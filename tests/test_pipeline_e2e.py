"""End-to-end KG pipeline on the synthetic fixture corpus (SURVEY.md §5).

With the gazetteer RuleTagger, mentions and triples must match the
generator's gold exactly (P = R = 1.0) and canonical clusters must match the
gazetteer's variant groups.
"""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import pytest

from neuroner_ray.pipelines import kg
from neuroner_ray.pipelines.kg_streamed import run_pipeline_streamed
from neuroner_ray.sources import synth_transcripts as synth


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    os.environ.setdefault("NEURONER_RAY_DATA", "/tmp/neuroner_ray_data")
    return synth.ensure_transcripts(0.0002)  # ~170 convs / ~1200 turns


def _key_set(tbl, cols):
    return set(zip(*[tbl.column(c).to_pylist() for c in cols]))


def test_mentions_match_gold(fixture_dir):
    tr = kg.read_transcripts(os.path.join(fixture_dir, "transcripts"))
    got = kg.turn_tables(tr)["mentions"].to_pandas()
    gold = pq.read_table(os.path.join(fixture_dir, "gold_mentions.parquet"))
    cols = ["conv_id", "turn_idx", "ent_type", "start", "end", "surface"]
    got_set = set(map(tuple, got[cols].itertuples(index=False)))
    gold_set = _key_set(gold, cols)
    assert got_set == gold_set


def test_triples_match_gold(fixture_dir):
    tr = kg.read_transcripts(os.path.join(fixture_dir, "transcripts"))
    got = kg.turn_tables(tr)["triples"].to_pandas()
    gold = pq.read_table(os.path.join(fixture_dir, "gold_triples.parquet"))
    cols = ["conv_id", "turn_idx", "subj", "pred", "obj", "subj_type", "obj_type"]
    got_set = set(map(tuple, got[cols].itertuples(index=False)))
    gold_set = _key_set(gold, cols)
    tp = len(got_set & gold_set)
    precision = tp / max(1, len(got_set))
    recall = tp / max(1, len(gold_set))
    assert precision == 1.0 and recall == 1.0, (precision, recall)


def test_canonicalization_matches_gazetteer_groups(fixture_dir):
    nodes = run_pipeline_streamed(os.path.join(fixture_dir, "transcripts"))["nodes"]
    ndf = nodes.to_pandas()
    # every surface observed in the corpus must map to its gazetteer canonical
    canon_of = {}
    for _, row in ndf.iterrows():
        for s in row["surfaces"]:
            canon_of[(row["ent_type"], s)] = row["canonical"]
    for (etype, surf), canon in canon_of.items():
        want = synth.CANONICAL_OF[surf]
        group = {
            s
            for s in synth.GAZETTEER[etype]
            if synth.CANONICAL_OF[s] == want
        }
        assert canon in group, (etype, surf, canon, want)
    # surfaces of one gazetteer group observed together must share a cluster
    seen_groups = {}
    for (etype, surf), canon in canon_of.items():
        key = (etype, synth.CANONICAL_OF[surf])
        seen_groups.setdefault(key, set()).add(canon)
    for key, canons in seen_groups.items():
        assert len(canons) == 1, (key, canons)


def test_entity_free_input_yields_empty_graph(tmp_path):
    import pyarrow as pa

    t = pa.table(
        {
            "conv_id": ["convX"] * 3,
            "turn_idx": pa.array([0, 1, 2], pa.int32()),
            "role": ["user", "assistant", "user"],
            "text": ["status update : all checks passed .", "", "rerun it ."],
            "tool": [""] * 3,
            "ts": pa.array([0, 1, 2], pa.timestamp("us")),
        }
    )
    src = tmp_path / "tr"
    src.mkdir()
    pq.write_table(t, str(src / "part-0.parquet"))
    assert kg.turn_tables(kg.read_transcripts(str(src)))["triples"].count() == 0
    tables = run_pipeline_streamed(str(src))
    assert tables["nodes"].count() == 0
    assert tables["edges"].count() == 0


def test_full_run_writes_graph(fixture_dir, tmp_path, assert_golden_graph):
    out = str(tmp_path / "graph")
    tables = run_pipeline_streamed(
        os.path.join(fixture_dir, "transcripts"), out_dir=out
    )
    edf = tables["edges"].to_pandas()
    assert (edf["weight"] >= 1).all()
    # the written graph reads back as the frozen golden
    assert_golden_graph(os.path.join(out, "nodes"), os.path.join(out, "edges"))
    # per-turn text equality + stable ordering invariant (input_hint)
    tdf = (
        kg.read_transcripts(os.path.join(fixture_dir, "transcripts"))
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
    )
    orig = pq.read_table(
        os.path.join(fixture_dir, "transcripts")
    ).to_pandas().sort_values(["conv_id", "turn_idx"])
    assert (tdf["text"].to_numpy() == orig["text"].to_numpy()).all()
