"""Single-pass streamed KG pipeline — the 100 TB execution shape.

``kg.run_pipeline`` materializes the tagged corpus once so several
consumers can share it; at full scale even one corpus-sized materialization
is a cost. This variant streams the corpus through ONE fused stage that
emits only fixed-width *partials* — census counts plus one slim row per
distinct (surface-triple, conv_id, turn_idx) instance (within-batch
dedup; globally distinct because each turn lives in exactly one batch).
No unbounded list payloads, and the corpus is never pinned in the object
store. The fused stage is column-wise end to end: the tagger's flat
``Tagged`` result (tokens, label codes, mention spans) feeds Arrow
group-bys for the census and the distinct instances — no per-row Python
between the tagger kernels and the partials:

    read → [tag → census partials + triple instances]        (1 pass)
         → small input: stream partials to the driver, finalize in-process
         → large input: stream partials to a disk stage (write_parquet),
           then census groupby → linking → canonical remap (broadcast)
           → exact (src,dst,pred,conv,turn) dedup groupby
           → edge merge groupby → partitioned write

The two finalize shuffles move fixed-width rows only; O5's distinct-turn
weights stay exact because surface variants of one canonical triple in the
same turn collapse to identical instance rows, removed by the dedup
groupby before counting. Equivalence with the classic pipeline is pinned
by tests/test_streamed_pipeline.py (identical nodes and edges); the
column-wise glue is pinned against the per-row reference functions by
tests/test_columnar_tagging.py.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import zlib
from typing import Any

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Sum

from ..runtime.combine import tree_combine
from ..schemas import PROVENANCE_STRUCT
from ..stages.graph import (
    NUM_BUCKETS_DEFAULT,
    PROVENANCE_CAP,
    materialize_graph,
)
from ..stages.tagger import RuleTagger, Tagged
from ..stages.triples import triples_flat
from ..sources.parquet import read_parquet_clean
from .kg import _link_from_census, read_transcripts

# conv-hash buckets for the distributed edge finalize: bounds every reduce
# task to ~1/EDGE_BUCKETS of the instances AND splits hot edges, because
# dedup/count-distinct by (conv, turn) partitions exactly along conv_id
EDGE_BUCKETS = 64

# Fixed-width union schema: census rows ("c") use (ent_type, surface, n);
# instance rows ("e") use (s_surf..o_type, conv_id, turn_idx). No nested
# columns — partial width is bounded by construction (test_streamed asserts).
_PARTIAL_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),  # "c" census | "e" triple instance
        ("ent_type", pa.string()),
        ("surface", pa.string()),
        ("n", pa.int64()),
        ("s_surf", pa.string()),
        ("s_type", pa.string()),
        ("pred", pa.string()),
        ("o_surf", pa.string()),
        ("o_type", pa.string()),
        ("conv_id", pa.string()),
        ("turn_idx", pa.int64()),
    ]
)

_INSTANCE_COLS = ["s_surf", "s_type", "pred", "o_surf", "o_type", "conv_id", "turn_idx"]


def _partials(batch: pa.Table, tagged: Tagged) -> pa.Table:
    """One tagged batch → partials union table: census counts per
    (ent_type, surface), then the distinct triple instances. Built with
    Arrow group-bys over the flat mentions and triples; every column is a
    fresh compact array (no views into the batch's text buffers)."""
    census = (
        pa.table({"ent_type": tagged.mention_type, "surface": tagged.surface})
        .group_by(["ent_type", "surface"])
        .aggregate([([], "count_all")])
    )
    s, o, pred = triples_flat(tagged)
    rows = tagged.mention_rows[s]
    # within-batch dedup; a (conv, turn) appears in exactly one batch, so
    # the staged instance rows are globally distinct 7-tuples — cross-batch
    # dedup is unnecessary at surface level
    instances = (
        pa.table(
            {
                "s_surf": tagged.surface.take(s),
                "s_type": tagged.mention_type.take(s),
                "pred": pred,
                "o_surf": tagged.surface.take(o),
                "o_type": tagged.mention_type.take(o),
                "conv_id": batch["conv_id"].take(rows),
                "turn_idx": pc.cast(batch["turn_idx"].take(rows), pa.int64()),
            }
        )
        .group_by(_INSTANCE_COLS)
        .aggregate([])
        # sorted rows keep runs of equal surfaces: the disk stage compresses
        .sort_by([(c, "ascending") for c in _INSTANCE_COLS])
    )

    return pa.concat_tables(
        [
            _union_rows(
                "c",
                census.num_rows,
                ent_type=census["ent_type"],
                surface=census["surface"],
                n=census["count_all"],
            ),
            _union_rows(
                "e", instances.num_rows, **{c: instances[c] for c in _INSTANCE_COLS}
            ),
        ]
    ).combine_chunks()


def _union_rows(kind: str, num_rows: int, **cols) -> pa.Table:
    """``num_rows`` rows of one kind in ``_PARTIAL_SCHEMA``; absent columns
    are null."""
    return pa.Table.from_arrays(
        [pa.repeat(pa.scalar(kind), num_rows)]
        + [
            cols.get(f.name, pa.nulls(num_rows, f.type))
            for f in list(_PARTIAL_SCHEMA)[1:]
        ],
        schema=_PARTIAL_SCHEMA,
    )


class FusedAnnotator:
    """Actor-pool stage wrapping a tagger (anything with
    ``annotate(batch) -> Tagged``): batch of raw turns → partials.

    The tagger's column-wise ``annotate`` result (``stages.tagger.Tagged``)
    feeds ``_partials`` directly — no ``labels``/``mentions`` columns are
    rendered and nothing round-trips through Python lists."""

    def __init__(self, tagger_cls: Any = RuleTagger, tagger_args: tuple = ()):
        self.tagger = tagger_cls(*tagger_args)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _partials(batch, self.tagger.annotate(batch))


# Input turns under which finalize runs driver-side (known up-front from
# parquet metadata — no partials materialization needed to decide). Partial
# rows ≈ a few slim tuples per turn, so 2M turns is comfortably pandas-scale.
SMALL_INPUT_TURNS_MAX = 2_000_000


def _edges_from_instances_df(inst: pd.DataFrame) -> pa.Table:
    """Distinct (src,dst,pred,conv,turn) rows → EDGES Arrow table (driver).

    Same O5/A7 semantics as ``aggregate_edges``: weight = distinct
    (conv, turn) count, provenance = smallest-``PROVENANCE_CAP`` sample.
    """
    inst = inst.sort_values(
        ["src_id", "dst_id", "pred", "conv_id", "turn_idx"], kind="mergesort"
    )
    g = inst.groupby(["src_id", "dst_id", "pred"], sort=True)
    srcs, dsts, preds, ws, provs = [], [], [], [], []
    # head(CAP) of the globally-sorted frame IS each group's smallest-CAP
    # provenance sample; only #edges × CAP rows are touched in Python
    heads = g.head(PROVENANCE_CAP).groupby(["src_id", "dst_id", "pred"], sort=True)
    for ((s, d, p), n), (_, h) in zip(g.size().items(), heads):
        srcs.append(s)
        dsts.append(d)
        preds.append(p)
        ws.append(int(n))
        provs.append(
            [
                {"conv_id": c, "turn_idx": int(t)}
                for c, t in zip(h["conv_id"], h["turn_idx"])
            ]
        )
    return pa.table(
        {
            "src_id": pa.array(srcs, pa.string()),
            "dst_id": pa.array(dsts, pa.string()),
            "pred": pa.array(preds, pa.string()),
            "weight": pa.array(ws, pa.int64()),
            "provenance": pa.array(provs, pa.list_(PROVENANCE_STRUCT)),
        }
    )


def _finalize_small(partials: Dataset, out_dir: str | None) -> dict[str, Dataset]:
    """Driver finalize: stream the partials to the driver (no object-store
    pinning), then census groupby, linking, canonical remap and edge merge
    in pandas — each avoided Ray execution saves more setup time than the
    compute costs. Uses the SAME link/node/edge semantics as the
    distributed path."""
    from ..stages.graph import canonical_map

    # batch_size=None → whole blocks; the default (256) would slice the
    # stream into thousands of driver-side micro-batches (measured ~8 s of
    # pull overhead at 1.8M partial rows vs ~1 s for block-sized pulls)
    batches = list(partials.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not batches:  # mention-free corpus (pa.concat_tables([]) raises)
        batches = [_PARTIAL_SCHEMA.empty_table()]
    tab = pa.concat_tables(batches).combine_chunks()
    df = tab.to_pandas()
    cdf = df[df["kind"] == "c"]
    census_df = (
        cdf.groupby(["ent_type", "surface"], as_index=False)["n"]
        .sum()
        .rename(columns={"n": "mention_count"})
    )
    census = rd.from_pandas(census_df)
    nodes, _labels = _link_from_census(census.materialize())
    nodes = nodes.materialize()
    mapping = canonical_map(nodes)

    edf = df[df["kind"] == "e"].copy()
    # vectorized resolve_entity_id: node_key is "{type}|{surface}", missing
    # surfaces keep the synthetic "{type}:{surface}" id (same policy, via
    # C-speed Series.map instead of a per-row Python call)
    id_of = {k: v[0] for k, v in mapping.items()}
    src_key = edf["s_type"] + "|" + edf["s_surf"]
    dst_key = edf["o_type"] + "|" + edf["o_surf"]
    edf["src_id"] = src_key.map(id_of).fillna(edf["s_type"] + ":" + edf["s_surf"])
    edf["dst_id"] = dst_key.map(id_of).fillna(edf["o_type"] + ":" + edf["o_surf"])
    # surface variants of one canonical triple in the same turn collapse to
    # identical rows here — drop_duplicates is the O5 turn dedup
    inst = edf[["src_id", "dst_id", "pred", "conv_id", "turn_idx"]].drop_duplicates()
    edges = rd.from_arrow(_edges_from_instances_df(inst))
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
        tab = pa.concat_tables(list(ds.iter_batches(batch_size=None, batch_format="pyarrow")))
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


_EDGES_SCHEMA = pa.schema(
    [
        ("src_id", pa.string()),
        ("dst_id", pa.string()),
        ("pred", pa.string()),
        ("weight", pa.int64()),
        ("provenance", pa.list_(PROVENANCE_STRUCT)),
    ]
)


def _edges_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """One conv-hash bucket of resolved instances → per-bucket edge partials
    (same shape as the final EDGES rows, so the merge is idempotent).

    Exact within the bucket: all duplicates of a (src,dst,pred,conv,turn)
    row share conv_id, hence this bucket; drop_duplicates is a global dedup
    for the rows it sees.
    """
    g = g.drop_duplicates(["src_id", "dst_id", "pred", "conv_id", "turn_idx"])
    g = g.sort_values(
        ["src_id", "dst_id", "pred", "conv_id", "turn_idx"], kind="mergesort"
    )
    rows = []
    for (s, d, p), grp in g.groupby(["src_id", "dst_id", "pred"], sort=False):
        prov = [
            {"conv_id": c, "turn_idx": int(t)}
            for c, t in zip(
                grp["conv_id"].tolist()[:PROVENANCE_CAP],
                grp["turn_idx"].tolist()[:PROVENANCE_CAP],
            )
        ]
        rows.append((s, d, p, len(grp), prov))
    return pd.DataFrame(
        rows, columns=["src_id", "dst_id", "pred", "weight", "provenance"]
    )


def _merge_edge_rows(t: pa.Table) -> pa.Table:
    """Associative merge of per-bucket edge partials: weights sum exactly
    (buckets are disjoint in (conv, turn)) and provenance keeps the smallest
    PROVENANCE_CAP — exact, because every globally-smallest-CAP element is
    also among its own bucket's smallest CAP."""
    if t.num_rows == 0 or t.num_columns == 0:
        return _EDGES_SCHEMA.empty_table()
    df = t.to_pandas()
    rows = []
    for (s, d, p), grp in df.groupby(["src_id", "dst_id", "pred"], sort=True):
        prov = sorted(
            ((x["conv_id"], int(x["turn_idx"])) for pl in grp["provenance"] for x in pl)
        )[:PROVENANCE_CAP]
        rows.append(
            (
                s,
                d,
                p,
                int(grp["weight"].sum()),
                [{"conv_id": c, "turn_idx": t_} for c, t_ in prov],
            )
        )
    return pa.table(
        {
            "src_id": pa.array([r[0] for r in rows], pa.string()),
            "dst_id": pa.array([r[1] for r in rows], pa.string()),
            "pred": pa.array([r[2] for r in rows], pa.string()),
            "weight": pa.array([r[3] for r in rows], pa.int64()),
            "provenance": pa.array([r[4] for r in rows], pa.list_(PROVENANCE_STRUCT)),
        },
        schema=_EDGES_SCHEMA,
    )


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
    # num_gpus is the GPU-actor seam (north_star): on a GPU cluster each
    # fused-annotator actor reserves a GPU share; 0 (default) on CPU boxes
    gpu_kwargs = {"num_gpus": num_gpus} if num_gpus else {}
    partials = transcripts.map_batches(
        FusedAnnotator,
        fn_constructor_args=(tagger, tagger_args),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        **gpu_kwargs,
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
    partials.write_parquet(stage_dir)  # streaming consumption of the one pass
    if not any(f.endswith(".parquet") for f in os.listdir(stage_dir)):
        # mention-free corpus: Ray skips empty blocks, leaving a schema-less
        # stage — pin the typed empty so the re-reads keep their schema
        import pyarrow.parquet as pq

        pq.write_table(
            _PARTIAL_SCHEMA.empty_table(), os.path.join(stage_dir, "empty.parquet")
        )

    census = (
        read_parquet_clean(stage_dir, columns=["kind", "ent_type", "surface", "n"])
        .filter(expr="kind == 'c'")
        .select_columns(["ent_type", "surface", "n"])
        .groupby(["ent_type", "surface"])
        .aggregate(Sum("n", alias_name="mention_count"))
    )
    nodes, _labels = _link_from_census(census.materialize())
    nodes = nodes.materialize()

    from ..stages.graph import canonical_map

    mapping = canonical_map(nodes)
    map_ref = ray.put(mapping)

    def resolve_instances(batch: pa.Table) -> pa.Table:
        m = ray.get(map_ref)
        # vectorized resolve (same policy as resolve_entity_id: missing
        # surfaces keep the synthetic "{type}:{surface}" id) + within-batch
        # dedup; exact cross-batch dedup is per-bucket below (read batches
        # need not respect turn boundaries)
        id_of = {k: v[0] for k, v in m.items()}
        df = batch.to_pandas()
        src_key = df["s_type"] + "|" + df["s_surf"]
        dst_key = df["o_type"] + "|" + df["o_surf"]
        df["src_id"] = src_key.map(id_of).fillna(df["s_type"] + ":" + df["s_surf"])
        df["dst_id"] = dst_key.map(id_of).fillna(df["o_type"] + ":" + df["o_surf"])
        out = df[
            ["src_id", "dst_id", "pred", "conv_id", "turn_idx"]
        ].drop_duplicates()
        bucket_of = {
            c: zlib.crc32(c.encode("utf-8")) % EDGE_BUCKETS
            for c in out["conv_id"].unique()
        }
        out["bucket"] = out["conv_id"].map(bucket_of).astype("int32")
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)

    resolved = (
        read_parquet_clean(stage_dir, columns=["kind"] + _INSTANCE_COLS)
        .filter(expr="kind == 'e'")
        .select_columns(_INSTANCE_COLS)
        .map_batches(resolve_instances, batch_format="pyarrow")
    )
    # Exact O5 turn dedup + A7 edge aggregation via ONE int-key bucket
    # shuffle instead of chained multi-string-key sort-aggregates (measured
    # 5.7x faster at 1.8M instances, identical output):
    #   - dedup by the 5-tuple is PARTITIONABLE BY conv_id (every duplicate
    #     of a (src,dst,pred,conv,turn) row shares its conv), so per-bucket
    #     drop_duplicates is globally exact;
    #   - per-bucket edge partials (weight = distinct turns IN THIS BUCKET,
    #     provenance = smallest-CAP sample) are disjoint in (conv,turn)
    #     across buckets → summing weights and keep-smallest-CAP merging is
    #     exact (any global-smallest-CAP element is its own bucket's
    #     smallest-CAP);
    #   - hot edges split across EDGE_BUCKETS conv-hash buckets, so no
    #     single task ever holds one edge's full instance set (the skew
    #     watch item from the 5-tuple-groupby shape).
    partials_e = resolved.groupby("bucket").map_groups(
        _edges_in_bucket, batch_format="pandas"
    )
    edges = tree_combine(partials_e, _merge_edge_rows)
    out = {"nodes": nodes, "edges": edges}
    if out_dir is not None:
        materialize_graph(nodes, edges, out_dir)
    return out
