"""The KG engine: one Ray-Data pass from transcripts to nodes and edges.

One fused tagging stage (``kg.map_annotator`` over ``FusedAnnotator``, a
task stage on Ray's warm worker pool that builds the tagger per batch)
streams the corpus and emits only fixed-width *partials*: census counts
plus one slim row per distinct (surface-triple, conv_id, turn_idx)
instance (within-batch dedup; globally distinct because each turn lives
in exactly one batch). No unbounded list payloads, and the corpus is
never pinned in the object store. The fused stage is
column-wise end to end: the tagger's flat ``Tagged`` result (tokens,
label codes, mention spans) becomes the batch's MENTIONS and TRIPLES rows
(``stages.triples.turn_rows``, the same rows ``kg.turn_tables`` persists),
which feed Arrow group-bys for the census (``census_batch``) and the
distinct instances — no per-row Python between the tagger kernels and the
partials:

    read → [tag → census partials + triple instances]        (1 pass)
         → small input: stream partials to the driver; census group-by,
           linking and ``graph.edge_partials`` over the one resolved table
         → large input: stream partials to a disk stage (write_parquet,
           files of ``STAGE_ROWS_PER_FILE`` rows, read back one block per
           file), then ``finalize_distributed``: census Sum groupby →
           linking → ``graph.aggregate_edges`` (broadcast resolve →
           conv-hash bucket groupby → edge_partials →
           tree_combine(merge_edges)) → partitioned write

``finalize_distributed`` is also the global finalize of the resumable
bucket runs (``manifests.finalize_graph``), fed from the persisted
per-turn mentions and triples, and builds the ``kg_*`` queries' graph from
their one ``kg.turn_tables`` pass. Every regime runs the one O5/A7 kernel of
``stages/graph.py``, and the finalize shuffles move fixed-width rows
only. O5's distinct-turn weights stay exact because surface variants of
one canonical triple in the same turn resolve to identical instance
rows, which ``edge_partials`` counts once. The graph is pinned to frozen
goldens by tests/test_streamed_pipeline.py (both taggers, both finalize
regimes); the column-wise glue is pinned against the per-row reference
functions by tests/test_columnar_tagging.py.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Sum

from ..stages import graph
from ..stages.graph import (
    NUM_BUCKETS_DEFAULT,
    aggregate_edges,
    edge_instances,
    edge_partials,
    materialize_graph,
    pin_empty_tables,
)
from ..stages.tagger import RuleTagger
from ..sources.parquet import pin_empty, read_parquet_clean
from .kg import TurnRows, _link_from_census, map_annotator, read_transcripts, union_rows

# Fixed-width union schema: census rows ("c") use (ent_type, surface, n);
# instance rows ("e") use the TRIPLES column names (subj..obj_type,
# conv_id, turn_idx) that ``graph.edge_instances`` reads. No nested
# columns — partial width is bounded by construction (test_streamed asserts).
_PARTIAL_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),  # "c" census | "e" triple instance
        ("ent_type", pa.string()),
        ("surface", pa.string()),
        ("n", pa.int64()),
        ("subj", pa.string()),
        ("subj_type", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("obj_type", pa.string()),
        ("conv_id", pa.string()),
        ("turn_idx", pa.int64()),
    ]
)

_CENSUS_COLS = ["ent_type", "surface", "n"]
_INSTANCE_COLS = ["subj", "subj_type", "pred", "obj", "obj_type", "conv_id", "turn_idx"]


def census_batch(mentions: pa.Table) -> pa.Table:
    """One batch's mention census: (ent_type, surface, n) per distinct
    pair, the partial that ``finalize_distributed`` sums. Zero-row and
    schema-less blocks give the typed empty table."""
    if mentions.num_rows == 0:
        return _PARTIAL_SCHEMA.empty_table().select(_CENSUS_COLS)
    return (
        mentions.select(["ent_type", "surface"])
        .group_by(["ent_type", "surface"])
        .aggregate([([], "count_all")])
        .select(["ent_type", "surface", "count_all"])
        .rename_columns(_CENSUS_COLS)
    )


def _partials(mentions: pa.Table, triples: pa.Table) -> pa.Table:
    """One batch's per-turn rows → partials union table: census counts per
    (ent_type, surface), then the distinct triple instances, both through
    Arrow group-bys; every column is a fresh compact array (no views into
    the batch's text buffers)."""
    # within-batch dedup; a (conv, turn) appears in exactly one batch, so
    # the staged instance rows are globally distinct 7-tuples — cross-batch
    # dedup is unnecessary at surface level
    instances = (
        triples.select(_INSTANCE_COLS)
        .group_by(_INSTANCE_COLS)
        .aggregate([])
        # sorted rows keep runs of equal surfaces: the disk stage compresses
        .sort_by([(c, "ascending") for c in _INSTANCE_COLS])
    )
    return pa.concat_tables(
        [
            union_rows(_PARTIAL_SCHEMA, "c", census_batch(mentions)),
            union_rows(_PARTIAL_SCHEMA, "e", instances),
        ]
    ).combine_chunks()


class FusedAnnotator(TurnRows):
    """Annotator wrapping a tagger (anything with
    ``annotate(batch) -> Tagged``): batch of raw turns → partials.

    The batch's per-turn rows (``TurnRows.rows``) feed ``_partials``
    directly — no ``labels``/``mentions`` columns are rendered and nothing
    round-trips through Python lists."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _partials(*self.rows(batch))


# Input turns under which finalize runs driver-side (known up-front from
# parquet metadata — no partials materialization needed to decide). Partial
# rows ≈ a few slim tuples per turn, so 2M turns is comfortably driver-scale.
SMALL_INPUT_TURNS_MAX = 2_000_000

# Partial rows per disk-stage file (~75 B each in memory, so a file is about
# one Ray block), and the stage is read back one block per file. Ray's
# default splits even a few-MB stage into many blocks; each finalize shuffle
# then fans out into tiny concurrent tasks, and on a small warm pool one of
# them can wait ~0.7 s for a fresh worker process, on some calls and not on
# others.
STAGE_ROWS_PER_FILE = 1_000_000


def _finalize_small(partials: Dataset, out_dir: str | None) -> dict[str, Dataset]:
    """Driver finalize: stream the partials to the driver (no object-store
    pinning), then census group-by, linking, and ``edge_partials`` over the
    one resolved instance table — each avoided Ray execution saves more
    setup time than the compute costs. Same link/node/edge functions as the
    distributed path."""
    # batch_size=None → whole blocks; the default (256) would slice the
    # stream into thousands of driver-side micro-batches (measured ~8 s of
    # pull overhead at 1.8M partial rows vs ~1 s for block-sized pulls)
    batches = list(partials.iter_batches(batch_size=None, batch_format="pyarrow"))
    tab = pa.concat_tables([_PARTIAL_SCHEMA.empty_table()] + batches)
    census = (
        tab.filter(pc.equal(tab["kind"], "c"))
        .group_by(["ent_type", "surface"])
        .aggregate([("n", "sum")])
        .select(["ent_type", "surface", "n_sum"])
        .rename_columns(["ent_type", "surface", "mention_count"])
        .sort_by([("ent_type", "ascending"), ("surface", "ascending")])
    )
    nodes, _labels = _link_from_census(rd.from_arrow(census))
    nodes = nodes.materialize()
    instances = tab.filter(pc.equal(tab["kind"], "e")).select(_INSTANCE_COLS)
    edges = rd.from_arrow(
        edge_partials(edge_instances(instances, graph.canonical_map(nodes)))
    )
    out = {"nodes": nodes, "edges": edges}
    if out_dir is not None:
        _write_graph_small(nodes, edges, out_dir)
    return out


def _write_graph_small(
    nodes: Dataset,
    edges: Dataset,
    out_dir: str,
    num_buckets: int = NUM_BUCKETS_DEFAULT,
) -> None:
    """Driver-side bucket-partitioned writes for collected-scale tables —
    same on-disk layout as ``materialize_graph`` (same shared bucket count)
    without two Ray executions."""
    import pyarrow.parquet as pq

    from ..runtime.hashing import hash_buckets

    for name, ds, key in (("nodes", nodes, "entity_id"), ("edges", edges, "src_id")):
        batches = [
            b for b in ds.iter_batches(batch_size=None, batch_format="pyarrow") if b.num_rows
        ]
        if not batches:  # pin_empty_tables writes the typed empty
            continue
        tab = pa.concat_tables(batches)
        # same siphash as stages.graph.add_bucket, so the driver-side and
        # distributed writers produce identical bucket layouts
        buckets = pa.array(
            hash_buckets(tab[key], num_buckets).astype("int32"), pa.int32()
        )
        tab = tab.append_column("bucket", buckets)
        for b in sorted(set(buckets.to_pylist())):
            sub = tab.filter(pa.compute.equal(tab["bucket"], b))
            d = os.path.join(out_dir, name, f"bucket={b}")
            os.makedirs(d, exist_ok=True)
            pq.write_table(sub.drop_columns(["bucket"]), os.path.join(d, "part-0.parquet"))
    pin_empty_tables(out_dir)


def run_pipeline_streamed(
    transcripts_path: str,
    out_dir: str | None = None,
    tagger: Any = RuleTagger,
    tagger_args: tuple = (),
    concurrency: Any = (1, 8),
    batch_size: int = 2048,
    stage_dir: str | None = None,
    num_gpus: float = 0,
) -> dict[str, Dataset]:
    """One corpus pass; returns {"nodes", "edges"} Datasets.

    Large inputs stage the fixed-width partials to ``stage_dir`` (default:
    ``<out_dir>/_stage/partials``, else a fresh /tmp dir) via a streaming
    ``write_parquet`` — the one-pass checkpoint between census and edge
    finalize. The stage is left on disk (the returned edges Dataset reads
    from it lazily); callers may delete it after consuming the graph.
    """
    transcripts = read_transcripts(transcripts_path)
    partials = map_annotator(
        transcripts, FusedAnnotator, tagger, tagger_args, concurrency, batch_size, num_gpus
    )

    if transcripts.count() <= SMALL_INPUT_TURNS_MAX:  # metadata-only count
        return _finalize_small(partials, out_dir)

    if stage_dir is None:
        if out_dir is not None:
            stage_dir = os.path.join(out_dir, "_stage", "partials")
        else:
            stage_dir = tempfile.mkdtemp(prefix="neuroner_streamed_stage_")
    shutil.rmtree(stage_dir, ignore_errors=True)  # stale stage files pollute reads
    os.makedirs(stage_dir, exist_ok=True)
    # streaming consumption of the one pass
    partials.write_parquet(stage_dir, min_rows_per_file=STAGE_ROWS_PER_FILE)
    # mention-free corpus: Ray skips empty blocks, leaving a schema-less
    # stage — pin the typed empty so the re-reads keep their schema
    pin_empty(stage_dir, _PARTIAL_SCHEMA)
    stage_files = sum(f.endswith(".parquet") for f in os.listdir(stage_dir))

    def stage_rows(kind: str, cols: list[str]) -> Dataset:
        return (
            read_parquet_clean(
                stage_dir, columns=["kind"] + cols, override_num_blocks=stage_files
            )
            .filter(expr=f"kind == '{kind}'")
            .select_columns(cols)
        )

    return finalize_distributed(
        stage_rows("c", _CENSUS_COLS), stage_rows("e", _INSTANCE_COLS), out_dir
    )


def finalize_distributed(
    census: Dataset, triples: Dataset, out_dir: str | None
) -> dict[str, Dataset]:
    """Distributed finalize: (ent_type, surface, n) census rows → one Sum
    groupby → linking → nodes; TRIPLES-named rows → exact O5/A7 over
    conv-hash buckets (``graph.aggregate_edges``) → edges; then the
    partitioned write into ``out_dir``. ``graph.canonical_map`` and
    ``materialize_graph`` are looked up at call time so tracers can wrap
    them."""
    counts = census.groupby(["ent_type", "surface"]).aggregate(
        Sum("n", alias_name="mention_count")
    )
    nodes, _labels = _link_from_census(counts.materialize())
    nodes = nodes.materialize()
    edges = aggregate_edges(triples, graph.canonical_map(nodes))
    out = {"nodes": nodes, "edges": edges}
    if out_dir is not None:
        materialize_graph(nodes, edges, out_dir)
    return out
