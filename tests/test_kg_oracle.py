"""kg_* DuckDB oracles must reproduce the pipeline exactly (fixture scale).

This test backs the two corpus-level assumptions documented in
``pipelines/kg_oracle.py``:

1. substring-at-token-boundary matching + greedy resolution == the token
   trie tagger (surfaces appear with canonical spacing in the corpus);
2. all-pairs SQL link matching (without the blake2b embedding disjunct) ==
   the MinHash-blocked candidate generation + full match rule.

If either breaks (generator/gazetteer/match-rule change), the end-to-end
comparison here fails before the driver's gate does.
"""

from __future__ import annotations

import duckdb
import pandas as pd
import pytest

from neuroner_ray.pipelines import kg, kg_oracle
from neuroner_ray.pipelines.kg_streamed import census_batch, finalize_distributed
from neuroner_ray.sources.synth_transcripts import ensure_transcripts

SF = 0.001


@pytest.fixture(scope="module")
def tables():
    """The four tables built as ``__ray_entry__._kg_tables`` builds them:
    one tagging pass, and the graph from its turn tables."""
    tdir = ensure_transcripts(SF) + "/transcripts"
    turns = kg.turn_tables(kg.read_transcripts(tdir))
    census = turns["mentions"].map_batches(census_batch, batch_format="pyarrow")
    g = finalize_distributed(census, turns["triples"], None)
    return tdir, {
        "kg_mentions": turns["mentions"].to_pandas(),
        "kg_triples": turns["triples"].to_pandas(),
        "kg_nodes": g["nodes"].to_pandas().drop(columns=["surfaces"]),
        "kg_edges": g["edges"].to_pandas().drop(columns=["provenance"]),
    }


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize(
    "name, sql_fn",
    [
        ("kg_mentions", kg_oracle.kg_mentions_sql),
        ("kg_triples", kg_oracle.kg_triples_sql),
        ("kg_nodes", kg_oracle.kg_nodes_sql),
        ("kg_edges", kg_oracle.kg_edges_sql),
    ],
)
def test_kg_oracle_matches_pipeline(tables, name, sql_fn):
    tdir, got_tables = tables
    want = _norm(duckdb.execute(sql_fn(tdir + "/*.parquet")).fetchdf())
    got = _norm(got_tables[name])
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(
        got, want, check_dtype=False, check_exact=False, atol=1e-9, rtol=0
    )


def test_all_pairs_equals_blocked_candidates(tables):
    """The SQL all-pairs match set must equal the blocked candidate pair set
    (so blocking loses no recall on this corpus AND the embedding disjunct
    adds nothing beyond the SQL-expressible disjuncts)."""
    from ray.data.aggregate import Sum

    from neuroner_ray.stages.linker import (
        candidate_pairs,
        link_match,
        node_key,
        normalize_surface,
    )

    tdir, _ = tables
    mentions = kg.turn_tables(kg.read_transcripts(tdir))["mentions"]
    census = (
        mentions.map_batches(census_batch, batch_format="pyarrow")
        .groupby(["ent_type", "surface"])
        .aggregate(Sum("n", alias_name="mention_count"))
        .materialize()
    )
    cdf = census.to_pandas()

    blocked = set()
    for b in candidate_pairs(census).to_pandas().itertuples():
        blocked.add((b.a, b.b) if b.a < b.b else (b.b, b.a))

    all_pairs = set()
    rows = list(cdf.itertuples())
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i], rows[j]
            if a.ent_type != b.ent_type:
                continue
            if link_match(
                normalize_surface(a.surface), normalize_surface(b.surface)
            ):
                ka, kb = node_key(a.ent_type, a.surface), node_key(b.ent_type, b.surface)
                all_pairs.add((ka, kb) if ka < kb else (kb, ka))

    assert blocked == all_pairs
