"""KG-construction building blocks shared by every KG entry point.

The engine is ``kg_streamed.run_pipeline_streamed``: one Ray-Data pass
from transcripts to nodes and edges. This module holds what it and the
per-turn table consumers share:

- ``map_annotator``: the one tagging stage, a task stage on Ray's warm
  worker pool that builds the annotator (and its tagger) per batch;
- ``read_transcripts`` and ``turn_tables``: one tagging pass that emits
  the per-turn mentions (M3) and triples (M11), built column-wise from
  the tagger's ``Tagged`` result by ``stages.triples.turn_rows`` (the rows
  the engine's ``FusedAnnotator`` builds its partials from). The
  resumable bucket runs (``manifests.run_bucketed``: the CLI and
  ``run_incremental``) persist them, and
  ``kg_streamed.finalize_distributed`` turns them into a graph;
- linking off a surface census (J4 blocking → A6 union-find → nodes),
  driver-side below ``SMALL_VOCAB_MAX`` distinct surfaces;
- ``run_incremental``: conversation-disjoint arrivals through the bucket
  machinery, re-finalized globally after each arrival.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data import Dataset

from ..stages.canonicalize import connected_components
from ..stages.graph import build_nodes
from ..stages.linker import candidate_pairs, node_keys
from ..schemas import MENTIONS, NODES, TRIPLES, TURN_TABLES
from ..stages.tagger import RuleTagger
from ..stages.triples import turn_rows
from ..sources.parquet import read_parquet_clean


def read_transcripts(path: str) -> Dataset:
    return read_parquet_clean(path)


# both per-turn tables as one union; ``kind`` names the table of a row
_TURN_ROWS = pa.schema(
    [("kind", pa.string())]
    + list(MENTIONS)
    + [f for f in TRIPLES if f.name not in MENTIONS.names]
)


def union_rows(schema: pa.Schema, kind: str, table: pa.Table) -> pa.Table:
    """``table`` as rows of one ``kind`` in a union ``schema`` whose first
    column is ``kind``; columns ``table`` lacks are null."""
    n = table.num_rows
    return pa.Table.from_arrays(
        [pa.repeat(pa.scalar(kind), n)]
        + [
            pc.cast(table[f.name], f.type)
            if f.name in table.column_names
            else pa.nulls(n, f.type)
            for f in list(schema)[1:]
        ],
        schema=schema,
    )


class TurnRows:
    """Annotator wrapping a tagger: batch of raw turns → its MENTIONS and
    TRIPLES rows (``stages.triples.turn_rows``) as one union table."""

    def __init__(self, tagger_cls: Any = RuleTagger, tagger_args: tuple = ()):
        self.tagger = tagger_cls(*tagger_args)

    def rows(self, batch: pa.Table) -> tuple[pa.Table, pa.Table]:
        return turn_rows(batch, self.tagger.annotate(batch))

    def __call__(self, batch: pa.Table) -> pa.Table:
        mentions, triples = self.rows(batch)
        return pa.concat_tables(
            [
                union_rows(_TURN_ROWS, "mentions", mentions),
                union_rows(_TURN_ROWS, "triples", triples),
            ]
        )


def annotate_batch(
    batch: pa.Table, annotator: type, tagger: Any, tagger_args: tuple
) -> pa.Table:
    """One tagging task: ``annotator(tagger, tagger_args)`` applied to one
    batch. The tagger is built per batch (a few ms: trie build / weight
    load) and nothing outlives the batch."""
    return annotator(tagger, tagger_args)(batch)


def map_annotator(
    ds: Dataset,
    annotator: type,
    tagger: Any,
    tagger_args: tuple,
    concurrency: Any,
    batch_size: int,
    num_gpus: float = 0,
) -> Dataset:
    """The KG engine's tagging stage: ``annotate_batch`` as a Ray Data task
    stage, so it runs on the warm task workers (which already hold
    ``ray.data``) instead of actors started in fresh processes on every
    call. ``concurrency`` is an int or a ``(min, max)`` pair; at most that
    int, or the pair's max, batches are tagged at once. ``num_gpus`` is the
    north_star GPU seam: pass e.g. 1 (or 0.5 for packing) on a GPU cluster
    and Ray schedules each tagging task on a GPU; the NumPy taggers here
    never ask for one, so the default is 0."""
    gpu_kwargs = {"num_gpus": num_gpus} if num_gpus else {}
    return ds.map_batches(
        annotate_batch,
        fn_args=(annotator, tagger, tagger_args),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=max(concurrency) if isinstance(concurrency, tuple) else concurrency,
        **gpu_kwargs,
    )


def turn_tables(
    transcripts: Dataset,
    tagger: Any = RuleTagger,
    tagger_args: tuple = (),
    concurrency: Any = (1, 8),
    batch_size: int = 1024,
    num_gpus: float = 0,
) -> dict[str, Dataset]:
    """The per-turn tables of one tagging pass: {"mentions" (M3),
    "triples" (M11)}.

    One tagging stage (``map_annotator`` over ``TurnRows``) tags each batch
    once and emits both row kinds; its output is materialized once and
    split by kind, so the two tables never re-run the tagger.
    """
    rows = map_annotator(
        transcripts, TurnRows, tagger, tagger_args, concurrency, batch_size, num_gpus
    ).materialize()
    return {
        name: rows.filter(expr=f"kind == '{name}'").select_columns(schema.names)
        for name, schema in TURN_TABLES.items()
    }


SMALL_VOCAB_MAX = 100_000  # distinct surfaces under which linking runs driver-side


def _link_small_census(census: Dataset) -> tuple[Dataset, Dataset]:
    """Driver-local linking for small vocabularies: the SAME blocking,
    match-rule, union-find and node-build functions as the distributed
    path, executed in-process — the census is already collected, so four
    vocabulary-sized Ray executions collapse into driver compute."""
    from collections import Counter

    import pandas as pd

    from ..stages.canonicalize import union_find
    from ..stages.graph import _node_rows
    from ..stages.linker import (
        LINK_CAP,
        _block_keys_batch,
        _pairs_in_block,
        salt_hot_blocks,
        salt_threshold_for,
    )

    ctab = pa.concat_tables(list(census.iter_batches(batch_size=None, batch_format="pyarrow")))
    blocked_tab = _block_keys_batch(ctab)
    # same hot-block salting + cap CONSTANTS as the distributed path (paths
    # must stay equivalent — tests/test_link_paths.py)
    sizes = Counter(blocked_tab["block"].to_pylist())
    blocked = salt_hot_blocks(
        blocked_tab, dict(sizes), salt_threshold_for(LINK_CAP)
    ).to_pandas()
    pair_frames = [
        _pairs_in_block(g, cap=LINK_CAP) for _, g in blocked.groupby("block")
    ]
    pair_list: list[tuple[str, str]] = []
    for f in pair_frames:
        pair_list.extend(zip(f["a"], f["b"]))
    nodes_list = node_keys(ctab["ent_type"], ctab["surface"]).to_pylist()
    labels = union_find(nodes_list, pair_list)
    cdf = ctab.to_pandas()
    cdf["node"] = nodes_list
    cdf["label"] = [labels[n] for n in nodes_list]
    nodes_df = pd.concat(
        [_node_rows(g) for _, g in cdf.groupby("label")], ignore_index=True
    )
    labels_tab = pa.table(
        {
            "node": pa.array(sorted(labels), pa.string()),
            "label": pa.array([labels[k] for k in sorted(labels)], pa.string()),
        }
    )
    return rd.from_pandas(nodes_df), rd.from_arrow(labels_tab)


def _link_from_census(census: Dataset) -> tuple[Dataset, Dataset]:
    n = census.count()
    if n == 0:  # entity-free corpus → empty typed graph
        empty_nodes = rd.from_arrow(NODES.empty_table())
        empty_labels = rd.from_arrow(
            pa.table(
                {"node": pa.array([], pa.string()), "label": pa.array([], pa.string())}
            )
        )
        return empty_nodes, empty_labels
    if n <= SMALL_VOCAB_MAX:
        return _link_small_census(census)
    pairs = candidate_pairs(census)
    node_ids = census.map_batches(
        lambda t: pa.table({"node": node_keys(t["ent_type"], t["surface"])}),
        batch_format="pyarrow",
    )
    labels = connected_components(pairs, node_ids)
    nodes = build_nodes(labels, census)
    return nodes, labels


# ------------------------------------------------------- incremental ingest
def run_incremental(
    transcripts_path: str,
    out_dir: str,
    num_increments: int = 2,
    num_buckets: int = 2,
    tagger: Any = RuleTagger,
    tagger_args: tuple = (),
    config: dict | None = None,
) -> dict[str, Any]:
    """Incremental KG build: ingest the corpus as ``num_increments``
    conversation-disjoint arrival batches ("day 1, day 2, ..."), each via
    the resumable bucket machinery (`manifests.run_bucketed` with a per-
    increment tag namespace), re-finalizing the GLOBAL graph after each
    arrival so the node/edge tables are queryable between arrivals.

    The final graph is guaranteed equal to a from-scratch build over the
    union: per-turn tables (mentions, triples) are per-conversation
    deterministic and increments are conversation-disjoint, while the
    global finalize (linking → union-find canonicalization → edge
    aggregation) is recomputed over ALL completed buckets each time. Only
    those cheap vocabulary/edge-sized stages re-run on later arrivals; the
    expensive tagging of earlier increments is reused from its manifests.

    Returns ``{"nodes": Dataset, "edges": Dataset, "increments": [...]}``
    with the tables read back from the finalized on-disk graph (the bucket
    partition column dropped).
    """
    import os

    from ..runtime.hashing import hash_buckets
    from . import manifests

    def table_fn(transcripts: Dataset) -> dict[str, Dataset]:
        return turn_tables(transcripts, tagger=tagger, tagger_args=tagger_args)

    cfg = dict(config or {})
    cfg.setdefault("pipeline", "kg-incremental-v1")
    cfg.setdefault("tagger", getattr(tagger, "__name__", str(tagger)))
    # the split parameters MUST enter the config hash: a re-run into the
    # same out_dir with a different split would otherwise skip manifests
    # produced under the old split and double-count moved conversations
    cfg["num_increments"] = num_increments
    cfg["num_buckets"] = num_buckets
    # one streaming pass splits the input into conversation-disjoint arrival
    # batches under <out>/_increments-n<N>/inc=<i>. The split count is in
    # the path: `inc=0` holds DIFFERENT conversations under a 2-way vs 3-way
    # split, and each increment's own bucket staging is keyed on this path.
    # The siphash has its own key domain (decorrelated from the crc32 resume
    # buckets); ANY deterministic disjoint split is valid, since finalize
    # recomputes the global stages.
    staged = manifests.stage_partitioned(
        transcripts_path,
        os.path.join(out_dir, f"_increments-n{num_increments}"),
        {"input": transcripts_path, "n": num_increments},
        "inc",
        lambda conv: pa.array(
            hash_buckets(conv, num_increments, key="inc").astype("int32"), pa.int32()
        ),
    )
    log = []
    for i in range(num_increments):
        idir = os.path.join(staged, f"inc={i}")
        if not os.path.isdir(idir):  # no conversation hashed into this batch
            continue
        r = manifests.run_bucketed(
            idir, out_dir, table_fn, cfg,
            num_buckets=num_buckets, increment=f"inc{i}",
        )
        fin = manifests.finalize_graph(out_dir, cfg)
        log.append({"increment": f"inc{i}", **r, "finalize_skipped": fin["skipped"]})

    def _read(table: str) -> Dataset:
        import pyarrow.dataset as pads

        ds = manifests.read_output(out_dir, table)
        # column names from parquet metadata (no Ray execution — a
        # ds.schema() here would run a limit-1 plan and can log an
        # empty-block schema warning on partitioned dirs)
        names = pads.dataset(
            os.path.join(out_dir, table), format="parquet", partitioning="hive"
        ).schema.names
        return ds.drop_columns(["bucket"]) if "bucket" in names else ds

    return {"nodes": _read("nodes"), "edges": _read("edges"), "increments": log}
