"""J5 / O5 / A7 / S9 — entity resolution, edge aggregation, graph materialize.

- **build_nodes** (A6 tail): cluster labels + surface census → canonical
  entity nodes. One groupby on the cluster label (vocabulary-sized input).
- **canonical_map / entity_ids** (J5): the one resolver. ``canonical_map``
  is a vocabulary-sized (node key, entity_id) Arrow table; ``entity_ids``
  looks surfaces up in it with ``index_in`` and gives a surface that no
  node claims the synthetic ``type:surface`` id, so nothing drops.
- **edge_partials / merge_edges** (O5+A7): the one edge kernel. Weight =
  number of distinct (conv_id, turn_idx) behind a (src, dst, pred) edge;
  provenance = its smallest ``PROVENANCE_CAP`` of those turns. Both are
  column-wise and emit exactly ``schemas.EDGES``; ``merge_edges`` is
  associative over conv-disjoint partials, so any tree of merges is exact.
- **aggregate_edges**: resolve → conv-hash bucket → ``edge_partials`` per
  bucket → ``tree_combine(merge_edges)``. Every duplicate of a
  (src, dst, pred, conv, turn) row shares its conv, hence its bucket, so
  the per-bucket dedup is global whatever the block layout.
- **materialize_graph** (S9): partitioned Parquet, ``bucket =
  hash(key) % B`` directories → resume unit (SURVEY.md §4.4).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from ..runtime.combine import tree_combine
from ..runtime.hashing import hash_buckets
from ..schemas import EDGES, NODES, PROVENANCE_STRUCT
from ..sources.parquet import pin_empty
from .linker import node_keys

PROVENANCE_CAP = 5
NUM_BUCKETS_DEFAULT = 16  # output partition count (shared by all writers)
# conv-hash buckets of aggregate_edges: bounds every reduce task to
# ~1/EDGE_BUCKETS of the instances AND splits hot edges across tasks
EDGE_BUCKETS = 64


def entity_id_of(ent_type, surface):
    """The ``{type}:{surface}`` entity id: a node's id (after its canonical
    surface) and the id of a surface no node claims. Takes strings (returns
    a scalar) or Arrow string arrays."""
    return pc.binary_join_element_wise(ent_type, surface, ":")


def _node_rows(group: pd.DataFrame) -> pd.DataFrame:
    """One cluster → one canonical node row (NODES schema)."""
    # canonical = highest mention_count, ties → lexicographically smallest
    g = group.sort_values(["mention_count", "surface"], ascending=[False, True])
    canonical = g["surface"].iloc[0]
    ent_type = g["ent_type"].iloc[0]
    return pd.DataFrame(
        {
            "entity_id": [entity_id_of(ent_type, canonical).as_py()],
            "canonical": [canonical],
            "ent_type": [ent_type],
            "surfaces": [sorted(g["surface"].tolist())],
            "mention_count": [int(g["mention_count"].sum())],
        }
    )


BROADCAST_JOIN_MAX_ROWS = 2_000_000


def build_nodes(
    labels: Dataset,
    surfaces: Dataset,
    broadcast_max_rows: int = BROADCAST_JOIN_MAX_ROWS,
) -> Dataset:
    """(node,label) × (ent_type,surface,mention_count) → canonical NODES.

    Both inputs are vocabulary-sized. Size-adaptive join: below
    ``broadcast_max_rows`` the (node, label) table is broadcast
    (``ray.put`` once, ``index_in`` lookup per batch — no shuffle); above
    it, the native hash join. Then one groupby(label) builds each
    cluster's node row.
    """
    labels = labels.materialize()

    def _with_node(t: pa.Table) -> pa.Table:
        return t.append_column("node", node_keys(t["ent_type"], t["surface"]))

    keyed = surfaces.map_batches(_with_node, batch_format="pyarrow")
    if labels.count() <= broadcast_max_rows:
        label_tab = pa.concat_tables(
            [
                b.select(["node", "label"])
                for b in labels.iter_batches(batch_size=None, batch_format="pyarrow")
                if b.num_rows
            ]
        ).combine_chunks()
        ref = ray.put(label_tab)

        def _attach(t: pa.Table) -> pa.Table:
            lt = ray.get(ref)
            idx = pc.index_in(t["node"], value_set=lt["node"].chunk(0))
            return t.append_column(
                "label", pc.coalesce(lt["label"].take(idx), t["node"])
            )

        joined = keyed.map_batches(_attach, batch_format="pyarrow")
    else:
        # LEFT outer + coalesce(label, node): the broadcast path keeps
        # label-table misses as self-labeled singletons; an inner join
        # would silently DROP those census rows, making the two
        # size-adaptive paths disagree on incomplete label tables
        from ..runtime.partitions import join_partitions

        joined = keyed.join(
            labels,
            join_type="left_outer",
            num_partitions=join_partitions(64),
            on=("node",),
        ).map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("label"),
                "label",
                pa.compute.coalesce(t["label"], t["node"]),
            ),
            batch_format="pyarrow",
        )
    return joined.groupby("label").map_groups(_node_rows, batch_format="pandas")


def canonical_map(nodes: Dataset) -> pa.Table:
    """(key, entity_id): one row per surface of every node, ``key`` being
    its ``linker.node_keys``. Vocabulary-sized by construction — built on
    the driver and broadcast once by ``aggregate_edges``."""
    keys, ids = [], []
    for t in nodes.iter_batches(batch_size=None, batch_format="pyarrow"):
        surfaces = t["surfaces"].combine_chunks()
        parent = pc.list_parent_indices(surfaces)
        keys.append(node_keys(t["ent_type"].take(parent), pc.list_flatten(surfaces)))
        ids.append(t["entity_id"].take(parent))
    return pa.table(
        {
            "key": pa.chunked_array(keys, pa.string()).combine_chunks(),
            "entity_id": pa.chunked_array(ids, pa.string()).combine_chunks(),
        }
    )


def entity_ids(types, surfaces, cmap: pa.Table):
    """Resolve (ent_type, surface) columns to entity ids through a
    ``canonical_map``; unclaimed surfaces get ``entity_id_of`` ids."""
    idx = pc.index_in(node_keys(types, surfaces), value_set=cmap["key"].combine_chunks())
    return pc.coalesce(cmap["entity_id"].take(idx), entity_id_of(types, surfaces))


_EDGE_KEY = ["src_id", "dst_id", "pred"]
_INSTANCE = _EDGE_KEY + ["conv_id", "turn_idx"]


def edge_instances(triples: pa.Table, cmap: pa.Table) -> pa.Table:
    """TRIPLES-named columns (subj, subj_type, pred, obj, obj_type,
    conv_id, turn_idx) → resolved (src_id, dst_id, pred, conv_id,
    turn_idx) rows, the input of ``edge_partials``."""
    return pa.table(
        {
            "src_id": entity_ids(triples["subj_type"], triples["subj"], cmap),
            "dst_id": entity_ids(triples["obj_type"], triples["obj"], cmap),
            "pred": triples["pred"],
            "conv_id": triples["conv_id"],
            "turn_idx": triples["turn_idx"],
        }
    )


def _edges(turns: pa.Table) -> pa.Table:
    """(src_id, dst_id, pred, conv_id, turn_idx, w) rows → EDGES sorted by
    (src, dst, pred): weight = Σw per edge, provenance = the edge's
    smallest PROVENANCE_CAP (conv_id, turn_idx), cut by each row's rank in
    its run of equal edge keys after one sort."""
    t = turns.sort_by([(c, "ascending") for c in _INSTANCE]).combine_chunks()
    n = t.num_rows
    head = np.zeros(n, dtype=bool)
    head[0] = True
    for k in _EDGE_KEY:
        col = t[k].chunk(0)
        head[1:] |= pc.not_equal(col[1:], col[:-1]).to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(head)
    sizes = np.diff(np.append(starts, n))
    rank = np.arange(n) - np.repeat(starts, sizes)
    kept = t.filter(pa.array(rank < PROVENANCE_CAP)).combine_chunks()
    offsets = np.concatenate([[0], np.cumsum(np.minimum(sizes, PROVENANCE_CAP))])
    prov = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        pa.StructArray.from_arrays(
            [kept["conv_id"].chunk(0), pc.cast(kept["turn_idx"].chunk(0), pa.int32())],
            fields=list(PROVENANCE_STRUCT),
        ),
    )
    weight = np.add.reduceat(t["w"].to_numpy(), starts)
    return pa.Table.from_arrays(
        [t[k].take(starts) for k in _EDGE_KEY] + [pa.array(weight, pa.int64()), prov],
        schema=EDGES,
    )


def edge_partials(instances: pa.Table) -> pa.Table:
    """Resolved instances → EDGES. Exact for the turns it sees: duplicate
    (src, dst, pred, conv, turn) rows count once."""
    if instances.num_rows == 0 or instances.num_columns == 0:
        return EDGES.empty_table()
    turns = instances.select(_INSTANCE).group_by(_INSTANCE).aggregate([])
    return _edges(turns.append_column("w", pa.array(np.ones(turns.num_rows, np.int64))))


def merge_edges(partials: pa.Table) -> pa.Table:
    """Associative merge of EDGES partials over disjoint (conv, turn) sets:
    weights sum, provenance keeps the smallest PROVENANCE_CAP — exact,
    because each of the global smallest CAP is among its own partial's
    smallest CAP. Zero-row and schema-less blocks (the sort-based groupby
    hands these to ``tree_combine``) merge to the typed empty table."""
    if partials.num_rows == 0 or partials.num_columns == 0:
        return EDGES.empty_table()
    prov = partials["provenance"].combine_chunks()
    parent = pc.list_parent_indices(prov)
    conv, turn = pc.list_flatten(prov).flatten()
    # a partial's weight rides on its first provenance entry (weight ≥ 1
    # implies a non-empty provenance), so Σw per edge sums the partials
    lens = pc.list_value_length(prov).fill_null(0).to_numpy()
    w = np.zeros(len(conv), np.int64)
    w[(np.cumsum(lens) - lens)[lens > 0]] = partials["weight"].to_numpy()[lens > 0]
    turns = pa.table(
        {k: partials[k].take(parent) for k in _EDGE_KEY}
        | {"conv_id": conv, "turn_idx": turn, "w": w}
    )
    return _edges(turns)


def aggregate_edges(triples: Dataset, cmap: pa.Table) -> Dataset:
    """TRIPLES-named rows → EDGES: broadcast ``cmap`` once, resolve and
    bucket by conv hash map-side, ``edge_partials`` per bucket, then
    ``tree_combine(merge_edges)``. Exact under any block layout: all
    duplicates of a (src, dst, pred, conv, turn) row share their bucket."""
    cmap_ref = ray.put(cmap)

    def resolve(t: pa.Table) -> pa.Table:
        inst = edge_instances(t, ray.get(cmap_ref))
        buckets = hash_buckets(inst["conv_id"], EDGE_BUCKETS)
        return inst.append_column("bucket", pa.array(buckets))

    resolved = triples.map_batches(resolve, batch_format="pyarrow")
    partials = resolved.groupby("bucket").map_groups(
        edge_partials, batch_format="pyarrow"
    )
    return tree_combine(partials, merge_edges)


def add_bucket(ds: Dataset, key: str, num_buckets: int) -> Dataset:
    """Append ``bucket = hash(key) % B`` (the partition / resume unit) —
    vectorized siphash, no per-row Python loop on this corpus-sized path."""

    def _bucketize(t: pa.Table) -> pa.Table:
        vals = hash_buckets(t[key], num_buckets)
        return t.append_column(
            "bucket", pa.array(vals.astype(np.int32), pa.int32())
        )

    return ds.map_batches(_bucketize, batch_format="pyarrow")


def materialize_graph(
    nodes: Dataset,
    edges: Dataset,
    out_dir: str,
    num_buckets: int = NUM_BUCKETS_DEFAULT,
) -> dict[str, str]:
    """S9: write node/edge tables as bucket-partitioned Parquet."""
    paths = {"nodes": f"{out_dir}/nodes", "edges": f"{out_dir}/edges"}
    add_bucket(nodes, "entity_id", num_buckets).write_parquet(
        paths["nodes"], partition_cols=["bucket"]
    )
    add_bucket(edges, "src_id", num_buckets).write_parquet(
        paths["edges"], partition_cols=["bucket"]
    )
    pin_empty_tables(out_dir)
    return paths


def pin_empty_tables(out_dir: str) -> None:
    """A graph table that got no file gets a typed empty one."""
    for name, schema in (("nodes", NODES), ("edges", EDGES)):
        pin_empty(os.path.join(out_dir, name), schema)


# ------------------------------------------------------------- analytics
# Driver-side rank vectors are entity-vocabulary-sized (same bound as the
# canonical-map broadcasts above); the cap makes the assumption loud —
# past it, pagerank switches to the sharded-rank-vector shuffle fallback
# (``_pagerank_sharded``) instead of raising.
PAGERANK_MAX_NODES = 2_000_000

# Below this edge count the whole analytic runs on the driver after ONE
# collect — every per-iteration Ray execution costs ~0.5-1 s of setup, so
# a 10-iteration analytic on a vocabulary-sized graph (the common KG case:
# 744 edges at sf0.1) pays ~100% overhead in the streamed formulation
# (VERDICT r3 item 2: kg_pagerank was 6.7 s on 744 edges). Same
# size-adaptive convention as SMALL_VOCAB_MAX / DRIVER_CC_MAX_NODES.
SMALL_GRAPH_EDGES_MAX = 100_000


def _try_collect_edges(
    g: Dataset, columns: list[str], row_cap: int | None
) -> pa.Table | None:
    """Bounded driver collect in ONE streaming execution: accumulate
    batches until ``row_cap`` is exceeded, then bail with ``None`` (the
    caller falls back to the distributed formulation). Deciding via
    ``count()`` first would cost a full extra execution on non-materialized
    inputs — ~0.5 s of setup that dominated kg_pagerank's wall time on
    vocabulary-sized graphs (VERDICT r3 item 3)."""
    batches = []
    rows = 0
    for b in g.select_columns(columns).iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        rows += b.num_rows
        if row_cap is not None and rows > row_cap:
            return None  # abandoning the iterator cancels the stream
        batches.append(b)
    if not batches:
        fields = {
            "src_id": pa.string(),
            "dst_id": pa.string(),
            "weight": pa.float64(),
        }
        return pa.schema([(c, fields[c]) for c in columns]).empty_table()
    return pa.concat_tables(batches, promote_options="default")


def _pagerank_local(
    tab: pa.Table, damping: float, iters: int, personalized: bool = False
) -> pa.Table:
    """Small-graph fast path: identical formulation to the streamed loop
    (same census, same dangling redistribution, same rounding), vectorized
    on the collected edge table. ``personalized`` teleports (1−d) AND the
    dangling mass to the lexicographically smallest node instead of
    uniformly (rank₀ = the seed indicator)."""
    from ..functions.rounding import round_half_away

    if tab.num_rows == 0:
        return pa.table(
            {
                "entity_id": pa.array([], pa.string()),
                "rank": pa.array([], pa.float64()),
            }
        )
    src = np.asarray(tab["src_id"].to_pylist(), dtype=object)
    dst = np.asarray(tab["dst_id"].to_pylist(), dtype=object)
    w = tab["weight"].cast(pa.float64()).to_numpy(zero_copy_only=False)
    nodes = np.unique(np.concatenate([src, dst]))  # lexicographic order
    idx = {v: i for i, v in enumerate(nodes)}
    si = np.fromiter((idx[v] for v in src), dtype=np.int64, count=len(src))
    di = np.fromiter((idx[v] for v in dst), dtype=np.int64, count=len(dst))
    n = len(nodes)
    ow = np.zeros(n)
    np.add.at(ow, si, w)
    seed_vec = np.zeros(n)
    seed_vec[0] = 1.0  # nodes are sorted: index 0 is the lexicographic min
    rank = seed_vec.copy() if personalized else np.full(n, 1.0 / n)
    for _ in range(iters):
        f = np.divide(rank, ow, out=np.zeros(n), where=ow > 0.0)
        contrib = np.zeros(n)
        np.add.at(contrib, di, f[si] * w)
        dangling = rank[ow == 0.0].sum()
        if personalized:
            rank = (
                seed_vec * ((1.0 - damping) + damping * dangling)
                + damping * contrib
            )
        else:
            rank = (
                (1.0 - damping) / n
                + damping * dangling / n
                + damping * contrib
            )
    return pa.table(
        {
            "entity_id": pa.array(list(nodes), pa.string()),
            "rank": pa.array(round_half_away(rank), pa.float64()),
        }
    )


def pagerank(
    edges: Dataset,
    damping: float = 0.85,
    iters: int = 10,
    *,
    small_max: int = SMALL_GRAPH_EDGES_MAX,
    max_nodes: int = PAGERANK_MAX_NODES,
    num_buckets: int | None = None,
    personalized: bool = False,
) -> pa.Table | Dataset:
    """Weighted PageRank over the canonical edge table (power method,
    fixed iteration count, deterministic). With ``personalized``, the
    (1−d) teleport AND the dangling mass restart at the lexicographically
    smallest node instead of uniformly (rank₀ = seed indicator) — the
    seeded-relevance variant (PPR), same three regimes.

    Size-adaptive, three regimes:
    - ≤ ``small_max`` edges: ONE collect + vectorized driver loop
      (``_pagerank_local``) — no per-iteration Ray executions.
    - ≤ ``max_nodes`` nodes: the edge table is STREAMED once per iteration
      (``map_batches`` partials + fan-in tree combine — no sort shuffle);
      only the rank vector (entity-vocabulary-sized) lives on the driver
      and is re-broadcast via ``ray.put`` each iteration.
    - > ``max_nodes`` nodes: sharded-rank-vector shuffle formulation
      (``_pagerank_sharded``) — the rank vector never touches the driver;
      returns a Dataset.

    Parallel (src, dst, pred) edges need no pre-collapse: contributions
    are linear in edge weight, so their weights sum naturally. Dangling
    mass (nodes with no out-edges) redistributes uniformly, per the
    standard formulation. All three regimes implement the SAME arithmetic
    (equivalence-tested at the 4-decimal output rounding).
    """
    from ..functions.rounding import round_half_away
    from ..runtime.combine import group_sum_merge, tree_combine

    slim = edges.select_columns(["src_id", "dst_id", "weight"])
    collected = _try_collect_edges(
        slim, ["src_id", "dst_id", "weight"], row_cap=small_max
    )
    if collected is not None:
        return _pagerank_local(
            collected, damping, iters, personalized=personalized
        )
    g = slim.materialize()

    # out-weight per src + node census (both vocabulary-sized)
    owm = group_sum_merge(("id",), ("ow", "is_src"))

    def endpoints(t: pa.Table) -> pa.Table:
        n = t.num_rows
        w = t["weight"].cast(pa.float64()).to_pylist()
        return owm(
            pa.table(
                {
                    "id": pa.concat_arrays(
                        [
                            t["src_id"].combine_chunks(),
                            t["dst_id"].combine_chunks(),
                        ]
                    ),
                    "ow": pa.array(w + [0.0] * n, pa.float64()),
                    "is_src": pa.array([1] * n + [0] * n, pa.int64()),
                }
            )
        )

    census = pa.concat_tables(
        tree_combine(
            g.map_batches(endpoints, batch_format="pyarrow"), owm
        ).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    if census.num_rows > max_nodes:
        return _pagerank_sharded(
            g,
            damping,
            iters,
            num_buckets=num_buckets or PR_NUM_BUCKETS,
            personalized=personalized,
        )
    node_ids = census["id"].to_pylist()
    ow = dict(zip(node_ids, census["ow"].to_numpy(zero_copy_only=False)))
    n_nodes = len(node_ids)
    seed = min(node_ids)
    rank = (
        {v: (1.0 if v == seed else 0.0) for v in node_ids}
        if personalized
        else {v: 1.0 / n_nodes for v in node_ids}
    )

    cmerge = group_sum_merge(("id",), ("contrib",))
    for _ in range(iters):
        # broadcast ONE per-node factor rank/out_weight (dangling nodes
        # never appear as src, so only ow>0 entries are needed)
        factor_ref = ray.put(
            pd.Series(
                {v: rank[v] / ow[v] for v in node_ids if ow[v] > 0.0}
            )
        )

        def contribs(t: pa.Table, factor_ref=factor_ref) -> pa.Table:
            f = ray.get(factor_ref)
            w = t["weight"].cast(pa.float64()).to_numpy(zero_copy_only=False)
            src = pd.Series(t["src_id"].to_pylist())
            return cmerge(
                pa.table(
                    {
                        "id": t["dst_id"],
                        "contrib": pa.array(
                            src.map(f).to_numpy(dtype=np.float64) * w,
                            pa.float64(),
                        ),
                    }
                )
            )

        ctab = pa.concat_tables(
            tree_combine(
                g.map_batches(contribs, batch_format="pyarrow"), cmerge
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        )
        c = dict(
            zip(
                ctab["id"].to_pylist(),
                ctab["contrib"].to_numpy(zero_copy_only=False),
            )
        )
        dangling = sum(rank[v] for v in node_ids if ow[v] == 0.0)
        if personalized:
            seed_base = (1.0 - damping) + damping * dangling
            rank = {
                v: (seed_base if v == seed else 0.0)
                + damping * c.get(v, 0.0)
                for v in node_ids
            }
        else:
            base = (
                (1.0 - damping) / n_nodes + damping * dangling / n_nodes
            )
            rank = {v: base + damping * c.get(v, 0.0) for v in node_ids}

    order = sorted(node_ids)
    return pa.table(
        {
            "entity_id": pa.array(order, pa.string()),
            "rank": pa.array(
                [float(round_half_away(rank[v])) for v in order], pa.float64()
            ),
        }
    )


PR_NUM_BUCKETS = 64
# neighbor-Jaccard hub chunking: past this degree, a center's wedge pairs
# split into ⌈d/C⌉-chunk cross-pair tasks of ≤ C² work each
NJ_HUB_CHUNK = 4096


def _bucket_of(ids: pa.ChunkedArray | pa.Array, num_buckets: int) -> pa.Array:
    """Vectorized id → bucket hash (pandas siphash C kernel — no Python
    per-row loop on this corpus-sized path)."""
    from ..runtime.hashing import hash_buckets

    return pa.array(hash_buckets(ids, num_buckets), pa.int64())


def _bundle(t: pa.Table) -> pa.Table:
    """Identity map used with a large ``batch_size`` to COALESCE many tiny
    blocks into few (map_batches row-count bundling — the tree_combine
    level-1 mechanism). NB ``repartition(target_num_rows_per_block=...)``
    only SPLITS oversized blocks; it never merges small ones (verified on
    Ray 2.49: 64 one-row blocks stay 64), so it cannot bound the
    block-count growth of iterative sort outputs."""
    return t


def _pagerank_sharded(
    g: Dataset,
    damping: float,
    iters: int,
    num_buckets: int = PR_NUM_BUCKETS,
    personalized: bool = False,
) -> Dataset:
    """Sharded-rank-vector PageRank (the > PAGERANK_MAX_NODES regime,
    VERDICT r3 item 3): node state lives as a bucketed Dataset — the rank
    vector never touches the driver.

    Per iteration:
    1. dangling mass: streamed partial sum of rank where out-weight = 0
       (ONE scalar to the driver);
    2. contributions: factor rows (rank/out-weight, bucketed by id) UNION
       src-bucketed edge rows → ONE int-key groupby cogroup per bucket
       emits per-dst contribution partials (pre-summed per dst inside the
       group);
    3. new state: contribution partials (bucketed by dst) UNION node-state
       rows → a second int-key cogroup computes rank' = base + d·Σcontrib.

    Expressed as union + groupby cogroups, not ``Dataset.join`` (Ray 2.49
    raises on zero-row join partitions — NOTES.md). Partitioning
    assumption (custom-operator rule): one bucket's node rows + incident
    edge rows fit one task's heap; buckets = siphash(id) % B, so hot
    buckets shrink as B grows — raise ``num_buckets`` for bigger graphs.
    Output: (entity_id, rank) Dataset, rank rounded to 4 decimals like the
    driver regimes.
    """
    from ray.data.aggregate import Sum

    from ..functions.rounding import round_half_away

    # node census (id → out-weight), computed by a distributed groupby —
    # never collected
    def endpoint_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        w = t["weight"].cast(pa.float64()).to_pylist()
        return pa.table(
            {
                "id": pa.concat_arrays(
                    [
                        t["src_id"].combine_chunks(),
                        t["dst_id"].combine_chunks(),
                    ]
                ),
                "ow": pa.array(w + [0.0] * n, pa.float64()),
            }
        ).group_by("id").aggregate([("ow", "sum")]).rename_columns(["id", "ow"])

    census = (
        g.map_batches(endpoint_rows, batch_format="pyarrow")
        .groupby("id")
        .aggregate(Sum("ow", alias_name="ow"))
        .materialize()
    )
    n_nodes = census.count()
    if n_nodes == 0:
        return census.map_batches(
            lambda t: pa.table(
                {
                    "entity_id": pa.array([], pa.string()),
                    "rank": pa.array([], pa.float64()),
                }
            ),
            batch_format="pyarrow",
        )

    # personalized teleport: the seed is ONE scalar to the driver (the
    # sssp/bfs seed convention) — the rank vector itself stays sharded
    seed = _sssp_seed(g) if personalized else None

    def init_state(t: pa.Table) -> pa.Table:
        if personalized:
            ranks = pa.compute.if_else(
                pa.compute.equal(t["id"], seed),
                pa.scalar(1.0),
                pa.scalar(0.0),
            )
        else:
            ranks = pa.array([1.0 / n_nodes] * t.num_rows, pa.float64())
        return pa.table(
            {
                "bucket": _bucket_of(t["id"], num_buckets),
                "id": t["id"],
                "ow": t["ow"],
                "rank": ranks,
            }
        )

    from ..runtime.combine import anchor

    state = anchor(census.map_batches(init_state, batch_format="pyarrow"))

    def edge_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": _bucket_of(t["src_id"], num_buckets),
                "kind": pa.array([1] * t.num_rows, pa.int64()),
                "a": t["src_id"],
                "b": t["dst_id"],
                "w": t["weight"].cast(pa.float64()),
            }
        )

    eb = anchor(g.map_batches(edge_rows, batch_format="pyarrow"))

    def contrib_group(df: pd.DataFrame, num_buckets=num_buckets) -> pd.DataFrame:
        f = df[df["kind"] == 0].set_index("a")["w"]
        e = df[df["kind"] == 1]
        if e.empty:
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "id": pd.Series([], dtype="object"),
                    "contrib": pd.Series([], dtype="float64"),
                }
            )
        out = pd.DataFrame(
            {
                "id": e["b"].to_numpy(),
                "contrib": e["a"].map(f).to_numpy(dtype=np.float64)
                * e["w"].to_numpy(dtype=np.float64),
            }
        ).groupby("id", as_index=False)["contrib"].sum()
        from ..runtime.hashing import hash_buckets

        out.insert(
            0,
            "bucket",
            hash_buckets(out["id"].to_numpy(dtype=object), num_buckets),
        )
        return out

    for _ in range(iters):
        dangling = (
            state.map_batches(
                lambda t: pa.table(
                    {
                        "d": pa.array(
                            [
                                float(
                                    pa.compute.sum(
                                        pa.compute.if_else(
                                            pa.compute.equal(t["ow"], 0.0),
                                            t["rank"],
                                            pa.scalar(0.0),
                                        )
                                    ).as_py()
                                    or 0.0
                                )
                            ],
                            pa.float64(),
                        )
                    }
                ),
                batch_format="pyarrow",
            ).sum("d")
            or 0.0
        )
        if personalized:
            base = 0.0
            seed_base = (1.0 - damping) + damping * dangling
        else:
            base = (1.0 - damping) / n_nodes + damping * dangling / n_nodes
            seed_base = base

        factor_rows = state.map_batches(
            lambda t: (
                lambda m: pa.table(
                    {
                        "bucket": m["bucket"],
                        "kind": pa.array([0] * m.num_rows, pa.int64()),
                        "a": m["id"],
                        "b": pa.array([None] * m.num_rows, pa.string()),
                        "w": pa.compute.divide(m["rank"], m["ow"]),
                    }
                )
            )(t.filter(pa.compute.greater(t["ow"], 0.0))),
            batch_format="pyarrow",
        )
        contribs = (
            factor_rows.union(eb)
            .groupby("bucket")
            .map_groups(contrib_group, batch_format="pandas")
        )

        def contrib_tagged(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "bucket": t["bucket"],
                    "kind": pa.array([1] * t.num_rows, pa.int64()),
                    "id": t["id"],
                    "ow": pa.array([0.0] * t.num_rows, pa.float64()),
                    "val": t["contrib"],
                }
            )

        def state_tagged(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "bucket": t["bucket"],
                    "kind": pa.array([0] * t.num_rows, pa.int64()),
                    "id": t["id"],
                    "ow": t["ow"],
                    "val": t["rank"],
                }
            )

        def new_state_group(
            df: pd.DataFrame,
            base=base,
            seed_base=seed_base,
            damping=damping,
            seed=seed,
        ) -> pd.DataFrame:
            s = df[df["kind"] == 0]
            c = df[df["kind"] == 1].groupby("id")["val"].sum()
            base_vec = (
                np.where(s["id"].to_numpy(dtype=object) == seed,
                         seed_base, base)
                if seed is not None
                else base
            )
            return pd.DataFrame(
                {
                    "bucket": s["bucket"].to_numpy(),
                    "id": s["id"].to_numpy(),
                    "ow": s["ow"].to_numpy(),
                    "rank": base_vec
                    + damping * s["id"].map(c).fillna(0.0).to_numpy(),
                }
            )

        # coalesce before materializing: sorts emit one block per input
        # block, so without this the per-iteration block count (and wall
        # time) compounds across iterations — see _lpa_sharded
        state = anchor(
            state.map_batches(state_tagged, batch_format="pyarrow")
            .union(contribs.map_batches(contrib_tagged, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(new_state_group, batch_format="pandas")
            .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
        )

    return state.map_batches(
        lambda t: pa.table(
            {
                "entity_id": t["id"],
                "rank": pa.array(
                    round_half_away(
                        t["rank"].to_numpy(zero_copy_only=False)
                    ),
                    pa.float64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


def degree_table(edges: Dataset) -> Dataset:
    """Per-entity degree census over the canonical edge table:
    ``out_degree`` / ``in_degree`` = number of distinct out/in edge-table
    rows (i.e. (neighbor, pred) pairs), ``w_degree`` = total incident
    weight (out + in).

    Map-side partials (each edge row contributes one src and one dst row)
    + associative tree combine — entity-vocabulary-sized output, no sort
    shuffle.
    """
    from ..runtime.combine import group_sum_merge, tree_combine

    merge = group_sum_merge(
        ("entity_id",), ("out_degree", "in_degree", "w_degree")
    )

    def partials(t: pa.Table) -> pa.Table:
        n = t.num_rows
        w = t["weight"].cast(pa.int64()).to_pylist()
        one0 = [1] * n + [0] * n
        return merge(
            pa.table(
                {
                    "entity_id": pa.concat_arrays(
                        [
                            t["src_id"].combine_chunks(),
                            t["dst_id"].combine_chunks(),
                        ]
                    ),
                    "out_degree": pa.array(one0, pa.int64()),
                    "in_degree": pa.array(one0[n:] + one0[:n], pa.int64()),
                    "w_degree": pa.array(w + w, pa.int64()),
                }
            )
        )

    return tree_combine(
        edges.select_columns(["src_id", "dst_id", "weight"]).map_batches(
            partials, batch_format="pyarrow"
        ),
        merge,
    )


def components(edges: Dataset) -> Dataset:
    """Connected components of the (undirected) canonical entity graph:
    (entity_id, component) where ``component`` is the lexicographically
    smallest entity_id in the component.

    Reuses the size-adaptive union-find / distributed min-label-propagation
    machinery from canonicalization (``canonicalize.connected_components``)
    — the edge pairs stream straight in; the node set is the
    entity-vocabulary-sized degree census.
    """
    from .canonicalize import connected_components

    edges = edges.select_columns(["src_id", "dst_id", "weight"]).materialize()
    pairs = edges.map_batches(
        lambda t: pa.table(
            {"a": t["src_id"], "b": t["dst_id"]}
        ),
        batch_format="pyarrow",
    )
    nodes = degree_table(edges).select_columns(["entity_id"]).rename_columns(
        {"entity_id": "node"}
    )
    return connected_components(pairs, nodes).rename_columns(
        {"node": "entity_id", "label": "component"}
    )


# Adjacency broadcast bound for the broadcast-adjacency analytics: the
# SIMPLE undirected edge set (distinct endpoint pairs), not the corpus —
# entity-vocabulary² bounded in this KG and far smaller in practice. Past
# the cap, triangle_count runs the degree-oriented edge⋈wedge shuffle
# (``_triangles_sharded``), kcore the edge-filtering shuffle
# (``_kcore_sharded``), LPA the join-per-round shuffle
# (``_lpa_sharded``), and neighbor Jaccard the wedge-count shuffle
# (``_neighbor_jaccard_sharded`` — full undirected wedges, Σdeg²: no
# orientation trick applies to common-NEIGHBOR counting, so its group
# tasks stay quadratic in hub degree; bound documented at the function).
TRIANGLE_MAX_EDGES = 5_000_000


def _simple_edges(edges: Dataset, caller: str) -> pa.Table:
    """Distinct undirected (a < b) pair set of the canonical entity graph
    (self-loops dropped, parallel edges/predicates collapsed) — the shared
    input of the broadcast-adjacency analytics (triangles, k-core,
    neighbor Jaccard). Entity-vocabulary²-bounded; past the loud cap the
    callers dispatch to their shuffle formulations (see the
    TRIANGLE_MAX_EDGES comment).

    Small graphs (≤ SMALL_GRAPH_EDGES_MAX rows) skip the streamed pass:
    one collect, same Arrow kernels locally."""

    def pairs(t: pa.Table) -> pa.Table:
        return (
            pa.table(
                {
                    "a": pa.compute.min_element_wise(t["src_id"], t["dst_id"]),
                    "b": pa.compute.max_element_wise(t["src_id"], t["dst_id"]),
                }
            )
            .filter(pa.compute.not_equal(t["src_id"], t["dst_id"]))
            .group_by(["a", "b"])
            .aggregate([])
        )

    empty = pa.schema([("a", pa.string()), ("b", pa.string())]).empty_table()
    tab = _try_collect_edges(
        edges, ["src_id", "dst_id"], row_cap=SMALL_GRAPH_EDGES_MAX
    )
    if tab is not None:
        return pairs(tab) if tab.num_rows else empty
    simple = pa.concat_tables(
        [empty]  # typed empty anchor: an all-empty stream still concats
        + list(
            edges.select_columns(["src_id", "dst_id"])
            .map_batches(pairs, batch_format="pyarrow")
            .iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).group_by(["a", "b"]).aggregate([])
    if simple.num_rows > TRIANGLE_MAX_EDGES:
        raise ValueError(
            f"{caller} simple edge set {simple.num_rows} exceeds "
            f"TRIANGLE_MAX_EDGES={TRIANGLE_MAX_EDGES}; use a shuffle-based "
            "wedge join instead of the broadcast adjacency"
        )
    return simple


def _attach_deg(
    p: Dataset,
    degs: Dataset,
    side: str,
    out_col: str,
    num_buckets: int,
    str_cols: frozenset = frozenset({"a", "b"}),
) -> Dataset:
    """Bucketed cogroup that joins the ``degs`` census (``id``, ``deg``)
    onto every row of ``p`` by the id in column ``side`` (union + int-key
    groupby — never ``Dataset.join``, per the NOTES.md zero-row-partition
    rule). Carried columns named in ``str_cols`` stay strings; every
    other carried column must be int64. Shared by ``_triangles_sharded``
    and ``_neighbor_jaccard_sharded``."""

    def pair_rows(t: pa.Table, side=side) -> pa.Table:
        cols = {
            "bucket": _bucket_of(t[side], num_buckets),
            "kind": pa.array([1] * t.num_rows, pa.int64()),
            "key": t[side],
        }
        for c in t.schema.names:
            cols[f"c_{c}"] = t[c]
        return pa.table(cols)

    def deg_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": _bucket_of(t["id"], num_buckets),
                "kind": pa.array([0] * t.num_rows, pa.int64()),
                "key": t["id"],
                "c_deg": t["deg"].cast(pa.int64()),
            }
        )

    def join_group(df: pd.DataFrame, out_col=out_col) -> pd.DataFrame:
        m = pd.Series(
            df.loc[df["kind"] == 0, "c_deg"].to_numpy(),
            index=df.loc[df["kind"] == 0, "key"].to_numpy(),
        )
        e = df[df["kind"] == 1]
        carried = [
            c[2:] for c in df.columns if c.startswith("c_") and c != "c_deg"
        ]
        out = pd.DataFrame(
            {c: e[f"c_{c}"].to_numpy() for c in carried}
        )
        # deg rows hold null in the carried columns, so the cogroup frame
        # floats them via NaN; carried non-string columns are int64 by
        # contract — pin them back so block schemas stay stable
        for c in carried:
            if out[c].dtype == np.float64:
                out[c] = out[c].astype(np.int64)
        out[out_col] = e["key"].map(m).to_numpy(dtype=np.int64)
        return out

    # schemas must union: pair rows lack c_deg, deg rows lack the
    # carried pair columns — give each side the other's columns as null
    def pad(ds: Dataset, cols_types: dict) -> Dataset:
        def _pad(t: pa.Table, cols_types=cols_types) -> pa.Table:
            for c, typ in cols_types.items():
                if c not in t.schema.names:
                    t = t.append_column(
                        c, pa.array([None] * t.num_rows, typ)
                    )
            return t.select(sorted(t.schema.names))

        return ds.map_batches(_pad, batch_format="pyarrow")

    carried_types = {
        f"c_{c}": pa.string() if c in str_cols else pa.int64()
        for c in p.schema().names
    }
    all_types = dict(carried_types)
    all_types["c_deg"] = pa.int64()
    tagged_pairs = pad(
        p.map_batches(pair_rows, batch_format="pyarrow"), all_types
    )
    tagged_degs = pad(
        degs.map_batches(deg_rows, batch_format="pyarrow"), all_types
    )
    return (
        tagged_pairs.union(tagged_degs)
        .groupby("bucket")
        .map_groups(join_group, batch_format="pandas")
        .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
    )


def _triangles_sharded(
    edges: Dataset, num_buckets: int = PR_NUM_BUCKETS
) -> pa.Table:
    """Degree-oriented edge⋈wedge triangle count (the past-the-cap
    regime): no adjacency is ever broadcast or collected.

    1. Distinct simple pairs as a Dataset; degree census by one int-key
       groupby.
    2. Orient each edge from its lower-degree endpoint to the higher
       (ties by id) via two endpoint-bucketed cogroups that attach the
       degrees — out-degrees are then O(√m)-bounded, so wedge generation
       is O(m^1.5) total instead of quadratic in hot-node degree.
    3. Wedges: group oriented edges by source, emit each out-neighbor
       pair once (canonical a < b); cogroup wedge rows with edge rows on
       a hash(a|b) int bucket and count matches — each triangle closes
       exactly one wedge.
    Driver state: the final scalar."""
    from ray.data.aggregate import Count as _Count
    from ray.data.aggregate import Sum as _Sum

    from ..runtime.combine import anchor
    from ..runtime.hashing import hash_buckets

    def ab_rows(t: pa.Table) -> pa.Table:
        return (
            pa.table(
                {
                    "a": pa.compute.min_element_wise(t["src_id"], t["dst_id"]),
                    "b": pa.compute.max_element_wise(t["src_id"], t["dst_id"]),
                }
            )
            .filter(pa.compute.not_equal(t["src_id"], t["dst_id"]))
            .group_by(["a", "b"])
            .aggregate([])
        )

    pairs = anchor(
        edges.select_columns(["src_id", "dst_id"])
        .map_batches(ab_rows, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(_Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    if pairs.count() == 0:
        return pa.table({"n_triangles": pa.array([0], pa.int64())})

    def degree_partials(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        return (
            pa.table(
                {"id": ids, "deg": pa.array([1] * len(ids), pa.int64())}
            )
            .group_by("id")
            .aggregate([("deg", "sum")])
            .rename_columns(["id", "deg"])
        )

    degs = anchor(
        pairs.map_batches(degree_partials, batch_format="pyarrow")
        .groupby("id")
        .aggregate(_Sum("deg", alias_name="deg"))
    )

    with_da = _attach_deg(pairs, degs, "a", "deg_a", num_buckets)
    with_db = anchor(_attach_deg(with_da, degs, "b", "deg_b", num_buckets))

    def orient(t: pa.Table) -> pa.Table:
        da = t["deg_a"].to_numpy(zero_copy_only=False)
        db = t["deg_b"].to_numpy(zero_copy_only=False)
        a = np.asarray(t["a"].to_pylist(), dtype=object)
        b = np.asarray(t["b"].to_pylist(), dtype=object)
        a_first = (da < db) | ((da == db) & (a < b))
        src = np.where(a_first, a, b)
        dst = np.where(a_first, b, a)
        return pa.table(
            {
                "src": pa.array(src, pa.string()),
                "dst": pa.array(dst, pa.string()),
            }
        )

    oriented = with_db.map_batches(orient, batch_format="pyarrow")

    def wedge_group(df: pd.DataFrame, num_buckets=num_buckets) -> pd.DataFrame:
        outs_a, outs_b = [], []
        for _, g in df.groupby("src", sort=False):
            nb = np.sort(g["dst"].to_numpy(dtype=object))
            m = len(nb)
            if m < 2:
                continue
            iu, ju = np.triu_indices(m, 1)
            outs_a.append(nb[iu])
            outs_b.append(nb[ju])
        if not outs_a:
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "kind": pd.Series([], dtype="int64"),
                    "a": pd.Series([], dtype="object"),
                    "b": pd.Series([], dtype="object"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        aa = np.concatenate(outs_a)
        bb = np.concatenate(outs_b)
        out = (
            pd.DataFrame({"a": aa, "b": bb})
            .groupby(["a", "b"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        out.insert(
            0,
            "bucket",
            hash_buckets(
                (out["a"].astype(str) + "|" + out["b"].astype(str)).to_numpy(),
                num_buckets,
            ),
        )
        out.insert(1, "kind", np.int64(1))
        return out

    # wedges grouped by oriented source (bounded out-degree)
    wedge_src = oriented.map_batches(
        lambda t: t.append_column(
            "wbucket", _bucket_of(t["src"], num_buckets)
        ),
        batch_format="pyarrow",
    )
    wedges = (
        wedge_src.groupby("wbucket")
        .map_groups(wedge_group, batch_format="pandas")
        .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
    )

    def edge_key_rows(t: pa.Table) -> pa.Table:
        keys = [
            f"{x}|{y}"
            for x, y in zip(t["a"].to_pylist(), t["b"].to_pylist())
        ]
        return pa.table(
            {
                "bucket": pa.array(hash_buckets(keys, num_buckets), pa.int64()),
                "kind": pa.array([0] * t.num_rows, pa.int64()),
                "a": t["a"],
                "b": t["b"],
                "n": pa.array([0] * t.num_rows, pa.int64()),
            }
        )

    def close_group(df: pd.DataFrame) -> pd.DataFrame:
        e = df[df["kind"] == 0]
        w = df[df["kind"] == 1]
        if e.empty or w.empty:
            return pd.DataFrame({"n": pd.Series([0], dtype="int64")})
        edge_set = set(zip(e["a"], e["b"]))
        mask = [
            (x, y) in edge_set for x, y in zip(w["a"], w["b"])
        ]
        return pd.DataFrame(
            {"n": pd.Series([int(w.loc[mask, "n"].sum())], dtype="int64")}
        )

    total = (
        wedges.union(
            pairs.map_batches(edge_key_rows, batch_format="pyarrow")
        )
        .groupby("bucket")
        .map_groups(close_group, batch_format="pandas")
        .sum("n")
        or 0
    )
    return pa.table({"n_triangles": pa.array([int(total)], pa.int64())})


def triangle_count(edges: Dataset) -> pa.Table:
    """Global triangle count of the undirected simple entity graph
    (self-loops dropped, parallel edges/predicates collapsed).

    Node-iterator formulation with a total order: for each simple edge
    (u, v), u < v, count common neighbors w > v — every triangle
    a < b < c is counted exactly once, at its (a, b) edge. The adjacency
    map is broadcast once (``ray.put``); per-batch counting is
    ``np.intersect1d`` over sorted neighbor arrays.
    """
    try:
        simple = _simple_edges(edges, "triangle_count")
    except ValueError:
        # simple pair set outgrew the broadcast-adjacency cap: run the
        # degree-oriented edge⋈wedge shuffle formulation instead
        return _triangles_sharded(edges)
    adj: dict[str, list[str]] = {}
    for a, b in zip(simple["a"].to_pylist(), simple["b"].to_pylist()):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    adj_np = {k: np.sort(np.asarray(v, dtype=object)) for k, v in adj.items()}

    def count_batch(t: pa.Table, adj_ref=None) -> pa.Table:
        A = ray.get(adj_ref) if isinstance(adj_ref, ray.ObjectRef) else adj_ref
        total = 0
        for u, v in zip(t["a"].to_pylist(), t["b"].to_pylist()):
            common = np.intersect1d(A[u], A[v], assume_unique=True)
            total += int((common > v).sum())
        return pa.table({"n_triangles": pa.array([total], pa.int64())})

    # small-graph fast path: the pair set is already on the driver — count
    # in place instead of paying a Ray execution on a one-block dataset
    if simple.num_rows <= SMALL_GRAPH_EDGES_MAX:
        return count_batch(simple, adj_ref=adj_np)

    import ray.data as rd

    adj_ref = ray.put(adj_np)
    parts = rd.from_arrow(simple).map_batches(
        lambda t, adj_ref=adj_ref: count_batch(t, adj_ref=adj_ref),
        batch_format="pyarrow",
    )
    total = sum(
        b["n_triangles"].to_pylist()[0]
        for b in parts.iter_batches(batch_size=None, batch_format="pyarrow")
    )
    return pa.table({"n_triangles": pa.array([total], pa.int64())})


def _bfs_sharded(
    edges: Dataset,
    max_levels: int,
    num_buckets: int = PR_NUM_BUCKETS,
) -> Dataset:
    """Join-per-level BFS (the > PAGERANK_MAX_NODES regime): visited/level
    and frontier state live as bucketed Datasets — no driver node map.

    Per level, two int-key cogroups (union + groupby, never Dataset.join):
    1. frontier rows ⋈ src-bucketed undirected pairs → candidate neighbor
       ids (pre-deduped per group);
    2. candidates ⋈ visited rows → the new frontier (candidates not yet
       leveled), which is also the new level's row set.
    Driver state per level: one row-count scalar (loop exit test). Same
    partitioning assumption as ``_pagerank_sharded``.
    """
    import pyarrow.compute as pc

    import ray.data as rd

    from ..runtime.combine import tree_combine

    empty = pa.table(
        {
            "entity_id": pa.array([], pa.string()),
            "level": pa.array([], pa.int64()),
        }
    )
    slim = edges.select_columns(["src_id", "dst_id"]).materialize()

    def und_rows(t: pa.Table) -> pa.Table:
        a = pa.concat_arrays(
            [t["src_id"].combine_chunks(), t["dst_id"].combine_chunks()]
        )
        b = pa.concat_arrays(
            [t["dst_id"].combine_chunks(), t["src_id"].combine_chunks()]
        )
        return pa.table(
            {
                "bucket": _bucket_of(a, num_buckets),
                "kind": pa.array([1] * len(a), pa.int64()),
                "a": a,
                "b": b,
            }
        )

    from ..runtime.combine import anchor

    und = anchor(slim.map_batches(und_rows, batch_format="pyarrow"))

    def min_node(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"node": pa.array([], pa.string())})
        vals = [
            v
            for v in (
                pc.min(t.column(c)).as_py() if c in t.schema.names else None
                for c in ("src_id", "dst_id", "node")
            )
            if v is not None
        ]
        return pa.table({"node": pa.array([min(vals)], pa.string())})

    seed_rows = tree_combine(
        slim.map_batches(min_node, batch_format="pyarrow"), min_node
    ).take_all()
    if not seed_rows:
        return rd.from_arrow(empty)
    seed = seed_rows[0]["node"]

    def level_table(ids: list[str], lvl: int) -> pa.Table:
        arr = pa.array(ids, pa.string())
        return pa.table(
            {
                "bucket": _bucket_of(arr, num_buckets),
                "id": arr,
                "level": pa.array([lvl] * len(ids), pa.int64()),
            }
        )

    levels = rd.from_arrow(level_table([seed], 0))
    frontier = levels

    def expand_group(df: pd.DataFrame, num_buckets=num_buckets) -> pd.DataFrame:
        f = set(df.loc[df["kind"] == 0, "a"])
        e = df[df["kind"] == 1]
        nbrs = e.loc[e["a"].isin(f), "b"].drop_duplicates().to_numpy(dtype=object)
        from ..runtime.hashing import hash_buckets

        return pd.DataFrame(
            {
                "bucket": hash_buckets(nbrs, num_buckets)
                if len(nbrs)
                else np.array([], dtype=np.int64),
                "id": nbrs,
            }
        )

    for lvl in range(1, max_levels + 1):
        frontier_tagged = frontier.map_batches(
            lambda t: pa.table(
                {
                    "bucket": t["bucket"],
                    "kind": pa.array([0] * t.num_rows, pa.int64()),
                    "a": t["id"],
                    "b": pa.array([None] * t.num_rows, pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        candidates = (
            frontier_tagged.union(und)
            .groupby("bucket")
            .map_groups(expand_group, batch_format="pandas")
        )

        def new_level_group(df: pd.DataFrame, lvl=lvl) -> pd.DataFrame:
            seen = set(df.loc[df["kind"] == 0, "id"])
            fresh = df.loc[
                (df["kind"] == 1) & ~df["id"].isin(seen), ["bucket", "id"]
            ].drop_duplicates("id")
            fresh["level"] = np.full(len(fresh), lvl, dtype=np.int64)
            return fresh

        cand_tagged = candidates.map_batches(
            lambda t: pa.table(
                {
                    "bucket": t["bucket"],
                    "kind": pa.array([1] * t.num_rows, pa.int64()),
                    "id": t["id"],
                    "level": pa.array([0] * t.num_rows, pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        visited_tagged = levels.map_batches(
            lambda t: pa.table(
                {
                    "bucket": t["bucket"],
                    "kind": pa.array([0] * t.num_rows, pa.int64()),
                    "id": t["id"],
                    "level": t["level"],
                }
            ),
            batch_format="pyarrow",
        )
        new_rows = anchor(
            cand_tagged.union(visited_tagged)
            .groupby("bucket")
            .map_groups(new_level_group, batch_format="pandas")
            .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
        )
        if new_rows.count() == 0:
            break
        levels = anchor(
            levels.union(new_rows)
            .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
        )
        frontier = new_rows

    return levels.map_batches(
        lambda t: pa.table(
            {"entity_id": t["id"], "level": t["level"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


def bfs_levels(
    edges: Dataset,
    max_levels: int = 10,
    *,
    max_nodes: int = PAGERANK_MAX_NODES,
    num_buckets: int | None = None,
) -> Dataset:
    """Undirected BFS hop levels from the lexicographically smallest
    entity: (entity_id, level) for every node reachable within
    ``max_levels`` hops (the seed at level 0).

    Size-adaptive, three regimes (same convention as ``pagerank``):
    driver-local below SMALL_GRAPH_EDGES_MAX edges; frontier-broadcast
    streaming below ``max_nodes`` driver-state nodes (per level: the
    frontier is broadcast via ray.put, ONE streaming pass filters
    frontier-incident edges with vectorized ``is_in`` kernels, an
    associative distinct merge reduces the candidates); past ``max_nodes``
    the join-per-level shuffle formulation (``_bfs_sharded``) takes over —
    visited/frontier state never touches the driver. At most
    ``max_levels`` passes — the loop exits early when the frontier
    empties. Oracle: ``kg_oracle.kg_bfs_levels_sql`` (recursive CTE, same
    level cap).
    """
    import pyarrow.compute as pc

    import ray.data as rd

    from ..runtime.combine import tree_combine

    empty = pa.table(
        {"entity_id": pa.array([], pa.string()), "level": pa.array([], pa.int64())}
    )
    # small-graph fast path: ONE bounded collect, BFS on the driver —
    # integer levels are exact, so this is bit-identical to the streamed
    # loop
    tab = _try_collect_edges(
        edges, ["src_id", "dst_id"], row_cap=SMALL_GRAPH_EDGES_MAX
    )
    if tab is not None:
        if tab.num_rows == 0:
            return rd.from_arrow(empty)
        adj: dict[str, set[str]] = {}
        for s, d in zip(tab["src_id"].to_pylist(), tab["dst_id"].to_pylist()):
            adj.setdefault(s, set()).add(d)
            adj.setdefault(d, set()).add(s)
        seed = min(adj)
        levels: dict[str, int] = {seed: 0}
        frontier = [seed]
        for lvl in range(1, max_levels + 1):
            nxt = sorted(
                {n for f in frontier for n in adj[f]} - levels.keys()
            )
            if not nxt:
                break
            for n in nxt:
                levels[n] = lvl
            frontier = nxt
        ids = sorted(levels)
        return rd.from_arrow(
            pa.table(
                {
                    "entity_id": pa.array(ids, pa.string()),
                    "level": pa.array([levels[i] for i in ids], pa.int64()),
                }
            )
        )

    # streamed formulation: materialize the slim projection once (every
    # level re-streams it)
    edges = edges.select_columns(["src_id", "dst_id"]).materialize()

    def min_node(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"node": pa.array([], pa.string())})
        vals = [
            v
            for v in (
                pc.min(t.column(c)).as_py() if c in t.schema.names else None
                for c in ("src_id", "dst_id", "node")
            )
            if v is not None
        ]
        return pa.table({"node": pa.array([min(vals)], pa.string())})

    seed_rows = tree_combine(
        edges.map_batches(min_node, batch_format="pyarrow"), min_node
    ).take_all()
    if not seed_rows:
        return rd.from_arrow(empty)
    seed = seed_rows[0]["node"]
    levels: dict[str, int] = {seed: 0}
    frontier = [seed]

    def distinct(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return pa.table({"node": pc.unique(t["node"])})

    for lvl in range(1, max_levels + 1):
        if len(levels) > max_nodes:
            # driver state outgrew the broadcast regime: restart in the
            # sharded join-per-level formulation (correct, costs the
            # partial broadcast work done so far)
            return _bfs_sharded(
                edges, max_levels, num_buckets=num_buckets or PR_NUM_BUCKETS
            )
        fref = ray.put(pa.array(sorted(frontier), pa.string()))

        def neighbors(t: pa.Table, fref=fref) -> pa.Table:
            f = ray.get(fref) if isinstance(fref, ray.ObjectRef) else fref
            src, dst = t["src_id"], t["dst_id"]
            out = pa.concat_arrays(
                [
                    dst.filter(pc.is_in(src, value_set=f)).combine_chunks(),
                    src.filter(pc.is_in(dst, value_set=f)).combine_chunks(),
                ]
            )
            return pa.table({"node": pc.unique(out)})

        reached = tree_combine(
            edges.map_batches(neighbors, batch_format="pyarrow"), distinct
        ).take_all()
        frontier = [r["node"] for r in reached if r["node"] not in levels]
        if not frontier:
            break
        for n in frontier:
            levels[n] = lvl

    ids = sorted(levels)
    return rd.from_arrow(
        pa.table(
            {
                "entity_id": pa.array(ids, pa.string()),
                "level": pa.array([levels[i] for i in ids], pa.int64()),
            }
        )
    )


KCORE_ROUNDS = 12


def _kcore_sharded(
    edges: Dataset,
    k: int,
    rounds: int,
    num_buckets: int = PR_NUM_BUCKETS,
) -> Dataset:
    """Edge-filtering k-core (the past-the-cap regime): the surviving
    simple pair set lives as a Dataset; per round, a degree census (one
    int-key groupby over endpoint partials) marks nodes with deg < k, and
    two endpoint-bucketed cogroups drop their incident pairs. Early exit
    when a round peels nothing (peeling is monotone, so stopping early
    equals running all rounds). Output: surviving (entity_id, deg), the
    same census the driver peel emits."""
    from ray.data.aggregate import Count as _Count
    from ray.data.aggregate import Sum as _Sum

    import ray.data as rd

    from ..runtime.combine import anchor

    def ab_rows(t: pa.Table) -> pa.Table:
        return (
            pa.table(
                {
                    "a": pa.compute.min_element_wise(t["src_id"], t["dst_id"]),
                    "b": pa.compute.max_element_wise(t["src_id"], t["dst_id"]),
                }
            )
            .filter(pa.compute.not_equal(t["src_id"], t["dst_id"]))
            .group_by(["a", "b"])
            .aggregate([])
        )

    pairs = anchor(
        edges.select_columns(["src_id", "dst_id"])
        .map_batches(ab_rows, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(_Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    empty = pa.table(
        {
            "entity_id": pa.array([], pa.string()),
            "deg": pa.array([], pa.int64()),
        }
    )

    def degree_partials(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        return (
            pa.table(
                {"id": ids, "deg": pa.array([1] * len(ids), pa.int64())}
            )
            .group_by("id")
            .aggregate([("deg", "sum")])
            .rename_columns(["id", "deg"])
        )

    def degrees_of(p: Dataset) -> Dataset:
        return p.map_batches(
            degree_partials, batch_format="pyarrow"
        ).groupby("id").aggregate(_Sum("deg", alias_name="deg"))

    def dead_rows(t: pa.Table, side: str) -> pa.Table:
        return pa.table(
            {
                "bucket": _bucket_of(t["id"], num_buckets),
                "kind": pa.array([0] * t.num_rows, pa.int64()),
                "a": t["id"],
                "b": pa.array([None] * t.num_rows, pa.string()),
            }
        )

    def drop_side(p: Dataset, dead: Dataset, side: str) -> Dataset:
        key = "a" if side == "a" else "b"
        other = "b" if side == "a" else "a"

        def pair_rows(t: pa.Table, key=key, other=other) -> pa.Table:
            return pa.table(
                {
                    "bucket": _bucket_of(t[key], num_buckets),
                    "kind": pa.array([1] * t.num_rows, pa.int64()),
                    "a": t[key],
                    "b": t[other],
                }
            )

        def filter_group(df: pd.DataFrame, key=key, other=other) -> pd.DataFrame:
            dead_ids = set(df.loc[df["kind"] == 0, "a"])
            e = df[df["kind"] == 1]
            keep = e[~e["a"].isin(dead_ids)]
            return pd.DataFrame(
                {key: keep["a"].to_numpy(), other: keep["b"].to_numpy()}
            )

        return (
            p.map_batches(pair_rows, batch_format="pyarrow")
            .union(
                dead.map_batches(
                    lambda t: dead_rows(t, side), batch_format="pyarrow"
                )
            )
            .groupby("bucket")
            .map_groups(filter_group, batch_format="pandas")
            .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
        )

    for _ in range(rounds):
        if pairs.count() == 0:
            return rd.from_arrow(empty)
        degs = anchor(degrees_of(pairs))
        dead = anchor(
            degs.map_batches(
                lambda t: pa.table(
                    {"id": t.filter(pa.compute.less(t["deg"], k))["id"]}
                ),
                batch_format="pyarrow",
            )
        )
        if dead.count() == 0:
            break
        pairs = anchor(drop_side(drop_side(pairs, dead, "a"), dead, "b"))

    if pairs.count() == 0:
        return rd.from_arrow(empty)
    return degrees_of(pairs).map_batches(
        lambda t: pa.table(
            {"entity_id": t["id"], "deg": t["deg"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


def kcore(
    edges: Dataset,
    k: int = 2,
    rounds: int = KCORE_ROUNDS,
    *,
    force_sharded: bool = False,
    num_buckets: int | None = None,
) -> Dataset:
    """Fixed-round k-core peel of the undirected simple entity graph:
    repeatedly drop nodes with fewer than ``k`` distinct surviving
    neighbors, ``rounds`` times (exact k-core once converged; the oracle
    unrolls the SAME round count, so the two sides agree even on a graph
    that has not converged yet). Output: surviving (entity_id, deg) where
    ``deg`` counts distinct surviving neighbors — nodes whose last
    neighbor was peeled drop out with them.

    The simple pair set is entity-vocabulary²-bounded and collected under
    the same loud cap as triangle_count; the peel itself is integer set
    arithmetic on that bounded state (early exit when a round is stable —
    peeling is monotone, so stopping early equals running all rounds).
    Past the cap — or with ``force_sharded`` — the edge-filtering shuffle
    formulation (``_kcore_sharded``) runs instead of raising.
    """
    import ray.data as rd

    if force_sharded:
        return _kcore_sharded(
            edges, k, rounds, num_buckets=num_buckets or PR_NUM_BUCKETS
        )
    try:
        simple = _simple_edges(edges, "kcore")
    except ValueError:
        return _kcore_sharded(
            edges, k, rounds, num_buckets=num_buckets or PR_NUM_BUCKETS
        )

    a = simple["a"].to_pylist()
    b = simple["b"].to_pylist()
    alive = set(a) | set(b)
    for _ in range(rounds):
        deg: dict[str, int] = {}
        for u, v in zip(a, b):
            if u in alive and v in alive:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
        nxt = {n for n, d in deg.items() if d >= k}
        if nxt == alive:
            break
        alive = nxt
    deg = {}
    for u, v in zip(a, b):
        if u in alive and v in alive:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
    ids = sorted(deg)
    return rd.from_arrow(
        pa.table(
            {
                "entity_id": pa.array(ids, pa.string()),
                "deg": pa.array([deg[i] for i in ids], pa.int64()),
            }
        )
    )


def _neighbor_jaccard_sharded(
    edges: Dataset,
    k: int,
    num_buckets: int = PR_NUM_BUCKETS,
    hub_chunk: int = 0,
) -> Dataset:
    """Shuffle-formulated neighbor Jaccard (the past-the-cap regime): no
    adjacency broadcast, no driver state beyond the final top-k table.

    1. Distinct simple pairs + degree census as Datasets (one int-key
       groupby each, as in ``_triangles_sharded``).
    2. Intersections: every unordered pair (u, v) with a common neighbor
       is a wedge through some center w — group the undirected adjacency
       rows by center bucket, emit each neighbor pair once per center
       with a partial count, then sum the partials in one hash(u|v)
       int-bucket cogroup (partials for one pair arrive from several
       center buckets — the consumer MUST re-aggregate, the LPA lesson).
       A degree-d center emits d(d-1)/2 wedge pairs, so when the degree
       census reports a hub past ``hub_chunk`` (``NJ_HUB_CHUNK`` by
       default; 0 = resolve to the default) the TWO-LEVEL CHUNKED regime
       runs instead: each center's neighbor list is hash-split into
       ⌈d/C⌉ chunks and every chunk PAIR (i ≤ j) becomes its own group
       task of ≤ C² cross pairs — each adjacency row is replicated
       ⌈d/C⌉ times (side-tagged so group (i, j) crosses chunk-i members
       with chunk-j members exactly once), bounding per-task work by C²
       regardless of hub degree. Downstream is unchanged: partials for
       one (u, v) pair arrive from several chunk tasks and re-aggregate
       in the same hash(u|v) cogroup.
    3. Degrees attach via the shared ``_attach_deg`` cogroup joins;
       jac = n / (deg_u + deg_v − n); exact associative top-k merge
       (no global sort shuffle).
    """
    from ray.data.aggregate import Count as _Count

    from ..functions.rounding import round_half_away
    from ..runtime.combine import anchor, topk_merge, tree_combine
    from ..runtime.hashing import hash_buckets

    import ray.data as rd

    empty = pa.schema(
        [("u", pa.string()), ("v", pa.string()), ("jac", pa.float64())]
    ).empty_table()

    def ab_rows(t: pa.Table) -> pa.Table:
        return (
            pa.table(
                {
                    "a": pa.compute.min_element_wise(t["src_id"], t["dst_id"]),
                    "b": pa.compute.max_element_wise(t["src_id"], t["dst_id"]),
                }
            )
            .filter(pa.compute.not_equal(t["src_id"], t["dst_id"]))
            .group_by(["a", "b"])
            .aggregate([])
        )

    pairs = anchor(
        edges.select_columns(["src_id", "dst_id"])
        .map_batches(ab_rows, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(_Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    if pairs.count() == 0:
        return rd.from_arrow(empty)

    def degree_partials(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        return (
            pa.table(
                {"id": ids, "deg": pa.array([1] * len(ids), pa.int64())}
            )
            .group_by("id")
            .aggregate([("deg", "sum")])
            .rename_columns(["id", "deg"])
        )

    from ray.data.aggregate import Sum as _Sum

    degs = anchor(
        pairs.map_batches(degree_partials, batch_format="pyarrow")
        .groupby("id")
        .aggregate(_Sum("deg", alias_name="deg"))
    )

    def _pair_partials(outs_u: list, outs_v: list) -> pd.DataFrame:
        # shared tail of both wedge regimes: local (u, v) partial counts
        # plus the hash(u|v) bucket key for the re-aggregation cogroup
        if not outs_u:
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "u": pd.Series([], dtype=object),
                    "v": pd.Series([], dtype=object),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        uu = np.concatenate(outs_u)
        vv = np.concatenate(outs_v)
        out = (
            pd.DataFrame({"u": uu, "v": vv})
            .groupby(["u", "v"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        out.insert(
            0,
            "bucket",
            hash_buckets(
                (out["u"].astype(str) + "|" + out["v"].astype(str)).to_numpy(),
                num_buckets,
            ),
        )
        return out

    def und_rows(t: pa.Table) -> pa.Table:
        center = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        nbr = pa.concat_arrays(
            [t["b"].combine_chunks(), t["a"].combine_chunks()]
        )
        out = pa.table({"center": center, "nbr": nbr})
        return out.append_column(
            "wbucket", _bucket_of(out["center"], num_buckets)
        )

    def wedge_group(df: pd.DataFrame) -> pd.DataFrame:
        outs_u, outs_v = [], []
        for _, g in df.groupby("center", sort=False):
            nb = np.sort(g["nbr"].to_numpy(dtype=object))
            m = len(nb)
            if m < 2:
                continue
            iu, ju = np.triu_indices(m, 1)
            outs_u.append(nb[iu])
            outs_v.append(nb[ju])
        return _pair_partials(outs_u, outs_v)

    def sum_group(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["u", "v"], as_index=False)["n"].sum()

    C = hub_chunk or NJ_HUB_CHUNK
    max_deg = int(degs.max("deg") or 0)
    if max_deg <= C:
        wedge_src = pairs.map_batches(und_rows, batch_format="pyarrow")
        wedge_fn = wedge_group
        wedge_key = "wbucket"
    else:
        # two-level chunked hub regime: replicate each adjacency row once
        # per chunk of its center and route every chunk PAIR to its own
        # bounded group task
        from ..runtime.hashing import hash_raw

        def und_plain(t: pa.Table) -> pa.Table:
            center = pa.concat_arrays(
                [t["a"].combine_chunks(), t["b"].combine_chunks()]
            )
            nbr = pa.concat_arrays(
                [t["b"].combine_chunks(), t["a"].combine_chunks()]
            )
            return pa.table({"center": center, "nbr": nbr})

        with_dc = _attach_deg(
            pairs.map_batches(und_plain, batch_format="pyarrow"),
            degs,
            "center",
            "dc",
            num_buckets,
            frozenset({"center", "nbr"}),
        )

        chunk_schema = pa.schema(
            [
                ("wbucket", pa.int64()),
                ("center", pa.string()),
                ("ci", pa.int64()),
                ("cj", pa.int64()),
                ("side", pa.int64()),
                ("nbr", pa.string()),
            ]
        )

        def chunk_expand(t: pa.Table, C=C) -> pa.Table:
            if t.num_rows == 0:
                return chunk_schema.empty_table()
            center = np.asarray(t["center"].to_pylist(), dtype=object)
            nbr = np.asarray(t["nbr"].to_pylist(), dtype=object)
            dc = t["dc"].to_numpy(zero_copy_only=False)
            nch = np.maximum(1, -(-dc // C)).astype(np.int64)
            cn = (
                hash_raw(nbr, key="njchunk") % nch.astype(np.uint64)
            ).astype(np.int64)
            reps = nch
            idx = np.repeat(np.arange(len(dc)), reps)
            total = int(reps.sum())
            # o = the "other" chunk index 0..nch-1 per replica
            o = np.arange(total) - np.repeat(np.cumsum(reps) - reps, reps)
            cn_r = cn[idx]
            ci = np.minimum(cn_r, o)
            cj = np.maximum(cn_r, o)
            # side 2 = within-chunk member; 0 = member of chunk ci in a
            # cross pair; 1 = member of chunk cj
            side = np.where(
                o == cn_r, 2, np.where(cn_r < o, 0, 1)
            ).astype(np.int64)
            cc = center[idx]
            gk = (
                pd.Series(cc).astype(str)
                + "|"
                + pd.Series(ci).astype(str)
                + "|"
                + pd.Series(cj).astype(str)
            )
            wb = hash_buckets(gk.to_numpy(), num_buckets, key="njwedge")
            return pa.table(
                {
                    "wbucket": pa.array(wb, pa.int64()),
                    "center": pa.array(cc, pa.string()),
                    "ci": pa.array(ci, pa.int64()),
                    "cj": pa.array(cj, pa.int64()),
                    "side": pa.array(side, pa.int64()),
                    "nbr": pa.array(nbr[idx], pa.string()),
                }
            )

        def wedge_group_chunked(df: pd.DataFrame) -> pd.DataFrame:
            outs_u, outs_v = [], []
            for (_, i, j), g in df.groupby(
                ["center", "ci", "cj"], sort=False
            ):
                if i == j:
                    nb = np.sort(
                        g.loc[g["side"] == 2, "nbr"].to_numpy(dtype=object)
                    )
                    m = len(nb)
                    if m < 2:
                        continue
                    iu, ju = np.triu_indices(m, 1)
                    outs_u.append(nb[iu])
                    outs_v.append(nb[ju])
                else:
                    left = g.loc[g["side"] == 0, "nbr"].to_numpy(
                        dtype=object
                    )
                    right = g.loc[g["side"] == 1, "nbr"].to_numpy(
                        dtype=object
                    )
                    if len(left) == 0 or len(right) == 0:
                        continue
                    u0 = np.repeat(left, len(right))
                    v0 = np.tile(right, len(left))
                    outs_u.append(np.minimum(u0, v0))
                    outs_v.append(np.maximum(u0, v0))
            return _pair_partials(outs_u, outs_v)

        wedge_src = with_dc.map_batches(chunk_expand, batch_format="pyarrow")
        wedge_fn = wedge_group_chunked
        wedge_key = "wbucket"

    inter = (
        wedge_src.groupby(wedge_key)
        .map_groups(wedge_fn, batch_format="pandas")
        .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(sum_group, batch_format="pandas")
        .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
    )

    str_uv = frozenset({"u", "v"})
    with_du = _attach_deg(inter, degs, "u", "deg_u", num_buckets, str_uv)
    with_dv = _attach_deg(with_du, degs, "v", "deg_v", num_buckets, str_uv)

    cut = topk_merge(k, "jac", ["u", "v"])

    def jac_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        du = t["deg_u"].to_numpy(zero_copy_only=False).astype(np.float64)
        dv = t["deg_v"].to_numpy(zero_copy_only=False).astype(np.float64)
        return cut(
            pa.table(
                {
                    "u": t["u"].cast(pa.string()),
                    "v": t["v"].cast(pa.string()),
                    "jac": pa.array(
                        round_half_away(n / (du + dv - n), 4), pa.float64()
                    ),
                }
            )
        )

    return tree_combine(
        with_dv.map_batches(jac_rows, batch_format="pyarrow"), cut
    )


def neighbor_jaccard_topk(
    edges: Dataset,
    k: int = 20,
    force_sharded: bool = False,
    num_buckets: int | None = None,
    hub_chunk: int = 0,
) -> Dataset:
    """Top-k node pairs by neighborhood Jaccard similarity over the
    undirected simple entity graph: J(u,v) = |N(u)∩N(v)| / |N(u)∪N(v)| for
    pairs u < v sharing at least one common neighbor, rounded to 4
    decimals, cut by (jac DESC, u ASC, v ASC).

    Same distribution shape as triangle_count: adjacency broadcast once
    (vocabulary-bounded, loud cap), candidate pairs generated per node
    batch (two-hop closure), LOCAL top-k per batch with the oracle's total
    order, associative top-k merge — no all-pairs, no sort shuffle. Past
    the TRIANGLE_MAX_EDGES cap the wedge-count shuffle formulation
    (``_neighbor_jaccard_sharded``) runs instead of raising; past
    ``hub_chunk`` degree (default ``NJ_HUB_CHUNK``) that path further
    splits each hub into bounded chunk-pair tasks.
    """
    from ..functions.rounding import round_half_away
    from ..runtime.combine import topk_merge, tree_combine

    import ray.data as rd

    if force_sharded:
        return _neighbor_jaccard_sharded(
            edges, k, num_buckets=num_buckets or PR_NUM_BUCKETS,
            hub_chunk=hub_chunk,
        )
    try:
        simple = _simple_edges(edges, "neighbor_jaccard_topk")
    except ValueError:
        return _neighbor_jaccard_sharded(
            edges, k, num_buckets=num_buckets or PR_NUM_BUCKETS,
            hub_chunk=hub_chunk,
        )
    adj: dict[str, set[str]] = {}
    for u, v in zip(simple["a"].to_pylist(), simple["b"].to_pylist()):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    node_table = pa.table({"u": pa.array(sorted(adj), pa.string())})
    cut = topk_merge(k, "jac", ["u", "v"])

    def pairs_batch(t: pa.Table, adj_ref=None) -> pa.Table:
        A = ray.get(adj_ref) if isinstance(adj_ref, ray.ObjectRef) else adj_ref
        us, vs, js = [], [], []
        for u in t["u"].to_pylist():
            nu = A[u]
            cands = set()
            for w in nu:
                cands.update(x for x in A[w] if x > u)
            for v in sorted(cands):
                nv = A[v]
                inter = len(nu & nv)
                if inter:
                    us.append(u)
                    vs.append(v)
                    js.append(inter / (len(nu) + len(nv) - inter))
        return cut(
            pa.table(
                {
                    "u": pa.array(us, pa.string()),
                    "v": pa.array(vs, pa.string()),
                    "jac": pa.array(round_half_away(js, 4), pa.float64()),
                }
            )
        )

    # small-graph fast path: one in-process sweep over the node list
    if simple.num_rows <= SMALL_GRAPH_EDGES_MAX:
        return rd.from_arrow(pairs_batch(node_table, adj_ref=adj))

    adj_ref = ray.put(adj)
    nodes = rd.from_arrow(node_table)
    return tree_combine(
        nodes.map_batches(
            lambda t, adj_ref=adj_ref: pairs_batch(t, adj_ref=adj_ref),
            batch_format="pyarrow",
        ),
        cut,
    )


LPA_ROUNDS = 8


def _lpa_sharded(
    edges: Dataset,
    rounds: int,
    num_buckets: int = PR_NUM_BUCKETS,
) -> Dataset:
    """Join-per-round label propagation (the past-the-cap regime): the
    simple undirected pair set is built as a DATASET (one distinct
    groupby — never collected) and the label map lives as a bucketed
    Dataset. Per round, two int-key cogroups (union + groupby, never
    Dataset.join):
    1. label rows ⋈ nbr-bucketed oriented pairs → per-(node, label)
       neighbor-label count partials;
    2. count partials ⋈ label state → per-node argmax with the
       (-count, label) tie order, own label kept when no counts.
    Same semantics as the broadcast loop (fixed synchronous rounds);
    driver state: nothing but per-round scheduling.
    """
    import ray.data as rd

    from ray.data.aggregate import Count as _Count

    from ..runtime.hashing import hash_buckets

    def ab_rows(t: pa.Table) -> pa.Table:
        return (
            pa.table(
                {
                    "a": pa.compute.min_element_wise(t["src_id"], t["dst_id"]),
                    "b": pa.compute.max_element_wise(t["src_id"], t["dst_id"]),
                }
            )
            .filter(pa.compute.not_equal(t["src_id"], t["dst_id"]))
            .group_by(["a", "b"])
            .aggregate([])
        )

    pairs = (
        edges.select_columns(["src_id", "dst_id"])
        .map_batches(ab_rows, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(_Count(alias_name="_n"))
        .drop_columns(["_n"])
        .materialize()
    )
    empty = pa.table(
        {
            "entity_id": pa.array([], pa.string()),
            "community": pa.array([], pa.string()),
        }
    )
    if pairs.count() == 0:
        return rd.from_arrow(empty)

    def und_rows(t: pa.Table) -> pa.Table:
        node = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        nbr = pa.concat_arrays(
            [t["b"].combine_chunks(), t["a"].combine_chunks()]
        )
        return pa.table(
            {
                "bucket": _bucket_of(nbr, num_buckets),
                "kind": pa.array([1] * len(node), pa.int64()),
                "node": node,
                "nbr": nbr,
                "lbl": pa.array([None] * len(node), pa.string()),
            }
        )

    from ..runtime.combine import anchor

    und = anchor(pairs.map_batches(und_rows, batch_format="pyarrow"))

    def node_rows(t: pa.Table) -> pa.Table:
        ids = pa.compute.unique(
            pa.concat_arrays([t["a"].combine_chunks(), t["b"].combine_chunks()])
        )
        return pa.table(
            {
                "bucket": _bucket_of(ids, num_buckets),
                "id": ids,
                "lbl": ids,
            }
        )

    labels = anchor(
        pairs.map_batches(node_rows, batch_format="pyarrow")
        .groupby("id")
        .map_groups(
            lambda g: g.head(1),  # distinct across batches
            batch_format="pandas",
        )
    )

    def count_group(df: pd.DataFrame, num_buckets=num_buckets) -> pd.DataFrame:
        m = pd.Series(
            df.loc[df["kind"] == 0, "lbl"].to_numpy(),
            index=df.loc[df["kind"] == 0, "nbr"].to_numpy(),
        )
        e = df[df["kind"] == 1]
        if e.empty:
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "node": pd.Series([], dtype="object"),
                    "lbl": pd.Series([], dtype="object"),
                    "c": pd.Series([], dtype="int64"),
                }
            )
        out = (
            pd.DataFrame(
                {
                    "node": e["node"].to_numpy(),
                    "lbl": e["nbr"].map(m).to_numpy(),
                }
            )
            .groupby(["node", "lbl"], as_index=False)
            .size()
            .rename(columns={"size": "c"})
        )
        out.insert(
            0,
            "bucket",
            hash_buckets(out["node"].to_numpy(dtype=object), num_buckets),
        )
        return out

    def argmax_group(df: pd.DataFrame) -> pd.DataFrame:
        s = df[df["kind"] == 0]
        cnt = df[df["kind"] == 1]
        if cnt.empty:
            best = pd.Series(dtype=object)
        else:
            # partials for the same (node, label) arrive from EVERY
            # nbr-bucket group that saw one of its edges — sum them before
            # the argmax or split counts lose ties they should win
            cnt = cnt.groupby(["id", "lbl"], as_index=False)["c"].sum()
            ordered = cnt.sort_values(
                ["id", "c", "lbl"], ascending=[True, False, True]
            ).drop_duplicates("id")
            best = pd.Series(
                ordered["lbl"].to_numpy(), index=ordered["id"].to_numpy()
            )
        new_lbl = s["id"].map(best)
        return pd.DataFrame(
            {
                "bucket": s["bucket"].to_numpy(),
                "id": s["id"].to_numpy(),
                "lbl": new_lbl.fillna(s["lbl"]).to_numpy(),
            }
        )

    # loop-invariant transforms defined ONCE: a fresh lambda per round
    # registers a new task type per call, and the raylet's task-spec table
    # growth degrades scheduling (observed: 8 rounds at 4 CPUs wedged)
    def tag_label_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": t["bucket"],
                "kind": pa.array([0] * t.num_rows, pa.int64()),
                "node": pa.array([None] * t.num_rows, pa.string()),
                "nbr": t["id"],
                "lbl": t["lbl"],
            }
        )

    def tag_count_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": t["bucket"],
                "kind": pa.array([1] * t.num_rows, pa.int64()),
                "id": t["node"],
                "lbl": t["lbl"],
                "c": t["c"].cast(pa.int64()),
            }
        )

    def tag_state_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": t["bucket"],
                "kind": pa.array([0] * t.num_rows, pa.int64()),
                "id": t["id"],
                "lbl": t["lbl"],
                "c": pa.array([0] * t.num_rows, pa.int64()),
            }
        )

    def project_out(t: pa.Table) -> pa.Table:
        return pa.table({"entity_id": t["id"], "community": t["lbl"]})

    # per-round block-count discipline: a sort emits one output block per
    # input block and the unions compound it — without coalescing, round
    # r's input block count grows superlinearly and per-round wall time
    # with it (measured 12.7 → 67.5 s across four rounds at 4 CPUs).
    # repartition(target_num_rows_per_block=...) coalesces WITHOUT
    # creating schema-less empties (NOTES.md).
    for _ in range(rounds):
        counts = anchor(
            labels.map_batches(tag_label_rows, batch_format="pyarrow")
            .union(und)
            .groupby("bucket")
            .map_groups(count_group, batch_format="pandas")
            .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
        )
        labels = anchor(
            labels.map_batches(tag_state_rows, batch_format="pyarrow")
            .union(counts.map_batches(tag_count_rows, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(argmax_group, batch_format="pandas")
            .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
        )

    return labels.map_batches(project_out, batch_format="pyarrow")


def label_propagation(
    edges: Dataset,
    rounds: int = LPA_ROUNDS,
    *,
    force_sharded: bool = False,
    num_buckets: int | None = None,
) -> Dataset:
    """Synchronous label-propagation communities over the undirected
    simple entity graph: every node starts as its own label; each round,
    every node adopts the most frequent label among its neighbors (ties →
    lexicographically smallest), keeping its own when it has none. Exactly
    ``rounds`` rounds on BOTH sides (synchronous LPA can oscillate, so the
    fixed round count — not convergence — defines the result; the oracle
    unrolls the same rounds). Output: (entity_id, community).

    Distribution shape, three regimes (same convention as ``pagerank``):
    driver-local below SMALL_GRAPH_EDGES_MAX; broadcast-labels streaming
    while the label map fits the driver (each round streams the simple
    pair set once, emitting (node, neighbor_label) rows reduced by an
    associative count merge); past the simple-edge or node caps — or with
    ``force_sharded`` — the join-per-round formulation (``_lpa_sharded``),
    whose pair set and label map are never collected.
    """
    import pyarrow.compute as pc  # noqa: F401 (parity with sibling ops)

    import ray.data as rd

    from ..runtime.combine import group_sum_merge, tree_combine

    if force_sharded:
        return _lpa_sharded(
            edges, rounds, num_buckets=num_buckets or PR_NUM_BUCKETS
        )
    try:
        simple = _simple_edges(edges, "label_propagation")
    except ValueError:
        # simple pair set outgrew the broadcast cap: run the sharded
        # formulation instead of raising
        return _lpa_sharded(
            edges, rounds, num_buckets=num_buckets or PR_NUM_BUCKETS
        )
    a = simple["a"].to_pylist()
    b = simple["b"].to_pylist()
    labels = {n: n for n in set(a) | set(b)}
    if len(labels) > PAGERANK_MAX_NODES:
        return _lpa_sharded(
            edges, rounds, num_buckets=num_buckets or PR_NUM_BUCKETS
        )
    # small-graph fast path: the pair set is already driver-local — run the
    # same synchronous rounds in place (integer counts + the same
    # (-count, label) tie order → identical to the streamed loop)
    if simple.num_rows <= SMALL_GRAPH_EDGES_MAX:
        pairs = list(zip(a + b, b + a))
        for _ in range(rounds):
            cnt: dict[tuple[str, str], int] = {}
            for node, nbr in pairs:
                key = (node, labels[nbr])
                cnt[key] = cnt.get(key, 0) + 1
            best: dict[str, tuple[int, str]] = {}
            for (node, lbl), c in cnt.items():
                key = (-c, lbl)
                if node not in best or key < best[node]:
                    best[node] = key
            labels = {
                n: best[n][1] if n in best else l for n, l in labels.items()
            }
        ids = sorted(labels)
        return rd.from_arrow(
            pa.table(
                {
                    "entity_id": pa.array(ids, pa.string()),
                    "community": pa.array([labels[i] for i in ids], pa.string()),
                }
            )
        )
    und = rd.from_arrow(
        pa.table(
            {
                "a": pa.array(a + b, pa.string()),
                "b": pa.array(b + a, pa.string()),
            }
        )
    )
    merge = group_sum_merge(("node", "lbl"), ("c",))
    for _ in range(rounds):
        lref = ray.put(labels)

        def nbr_labels(t: pa.Table, lref=lref) -> pa.Table:
            lm = ray.get(lref) if isinstance(lref, ray.ObjectRef) else lref
            return merge(
                pa.table(
                    {
                        "node": t["a"],
                        "lbl": pa.array(
                            [lm[x] for x in t["b"].to_pylist()], pa.string()
                        ),
                        "c": pa.array([1] * t.num_rows, pa.int64()),
                    }
                )
            )

        counts = tree_combine(
            und.map_batches(nbr_labels, batch_format="pyarrow"), merge
        ).take_all()
        best: dict[str, tuple[int, str]] = {}
        for r in counts:
            key = (-r["c"], r["lbl"])
            if r["node"] not in best or key < best[r["node"]]:
                best[r["node"]] = key
        labels = {n: best[n][1] if n in best else l for n, l in labels.items()}
    ids = sorted(labels)
    return rd.from_arrow(
        pa.table(
            {
                "entity_id": pa.array(ids, pa.string()),
                "community": pa.array([labels[i] for i in ids], pa.string()),
            }
        )
    )


def assortativity(edges: Dataset) -> Dataset:
    """Directed degree assortativity: the Pearson correlation, over edge
    rows, of (out_degree(src), in_degree(dst)) — do high-fan-out entities
    point at high-fan-in ones? One row out: (n_edges, assortativity).

    Scale shape: the degree census is entity-vocabulary-sized (the
    canonical_map bound), so it broadcasts ONCE via ``ray.put`` and each
    edge batch reduces to a single fixed-width six-moment partial row
    (m, Σx, Σy, Σx², Σy², Σxy — all exact ints) that tree-combines; the
    corpus-sized edge stream is never collected. Float parity: the five
    moment sums stay integers through the merge, and the Pearson r is the
    fixed expression num/(sqrt(dx)·sqrt(dy)) over ONE int→double cast
    each, mirrored verbatim in the unrolled oracle; degenerate variance
    (all-equal x or y) yields NULL on both sides."""
    import pyarrow.compute as pc

    from ..functions.rounding import round_half_away
    from ..runtime.combine import tree_combine

    degs = degree_table(edges).materialize()
    out_map: dict[str, int] = {}
    in_map: dict[str, int] = {}
    for b in degs.iter_batches(batch_size=None, batch_format="pyarrow"):
        for e, o, i in zip(
            b["entity_id"].to_pylist(),
            b["out_degree"].to_pylist(),
            b["in_degree"].to_pylist(),
        ):
            out_map[e] = int(o)
            in_map[e] = int(i)
    maps_ref = ray.put((out_map, in_map))

    class Moments:
        def __init__(self, ref):
            self.out_map, self.in_map = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            x = np.array(
                [self.out_map.get(s, 0) for s in t["src_id"].to_pylist()],
                np.int64,
            )
            y = np.array(
                [self.in_map.get(d, 0) for d in t["dst_id"].to_pylist()],
                np.int64,
            )
            return pa.table(
                {
                    "m": pa.array([t.num_rows], pa.int64()),
                    "sx": pa.array([int(x.sum())], pa.int64()),
                    "sy": pa.array([int(y.sum())], pa.int64()),
                    "sxx": pa.array([int((x * x).sum())], pa.int64()),
                    "syy": pa.array([int((y * y).sum())], pa.int64()),
                    "sxy": pa.array([int((x * y).sum())], pa.int64()),
                }
            )

    def smerge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return pa.table(
            {
                c: pa.array(
                    [int(pc.sum(t[c]).as_py() or 0)], pa.int64()
                )
                for c in ("m", "sx", "sy", "sxx", "syy", "sxy")
            }
        )

    moments = tree_combine(
        edges.select_columns(["src_id", "dst_id"]).map_batches(
            Moments,
            fn_constructor_args=(maps_ref,),
            batch_format="pyarrow",
            concurrency=(1, 4),
        ),
        smerge,
    )

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "n_edges": pa.array([], pa.int64()),
                "assortativity": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        m = int(t["m"][0].as_py())
        if m == 0:
            return empty
        sx, sy, sxx, syy, sxy = (
            int(t[c][0].as_py()) for c in ("sx", "sy", "sxx", "syy", "sxy")
        )
        # exact python-int moments; ONE int→double cast per factor
        dx = m * sxx - sx * sx
        dy = m * syy - sy * sy
        if dx <= 0 or dy <= 0:
            r = None
        else:
            import math

            r = round_half_away(
                float(m * sxy - sx * sy)
                / (math.sqrt(float(dx)) * math.sqrt(float(dy))),
                4,
            )
        return pa.table(
            {
                "n_edges": pa.array([m], pa.int64()),
                "assortativity": pa.array([r], pa.float64()),
            }
        )

    return moments.map_batches(finish, batch_size=None, batch_format="pyarrow")


def edge_reciprocity(edges: Dataset) -> Dataset:
    """EDGE RECIPROCITY: the fraction of distinct directed edges (u → v,
    u ≠ v, predicates collapsed) whose reverse edge also exists — the
    mutuality diagnostic of the produced KG. One row out:
    (n_directed_edges, n_reciprocated_pairs, reciprocity).

    Scale shape: TWO int/string-key shuffles, both corpus-edge-bounded —
    a (src, dst) groupby dedups the directed edge set, then an unordered
    (lo, hi) groupby sums direction flags (1 = forward, 2 = backward, so
    a group total of 3 marks a reciprocated pair — distinctness makes
    the sum a bit-set). Scalar partials tree-combine; nothing collects
    beyond one fixed-width row. Float parity: reciprocity is ONE IEEE
    division CAST(2·n_recip AS DOUBLE)/n_directed of exact ints; an
    empty (or all-self-loop) graph yields zero rows on both sides."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ..functions.rounding import round_half_away
    from ..runtime.combine import group_sum_merge, tree_combine

    dmerge = group_sum_merge(("src_id", "dst_id"), ("one",))

    def directed_rows(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.invert(pc.equal(t["src_id"], t["dst_id"])))
        return dmerge(
            pa.table(
                {
                    "src_id": kept["src_id"],
                    "dst_id": kept["dst_id"],
                    "one": pa.array(np.ones(kept.num_rows, np.int64)),
                }
            )
        )

    distinct = (
        edges.select_columns(["src_id", "dst_id"])
        .map_batches(directed_rows, batch_format="pyarrow")
        .groupby(["src_id", "dst_id"])
        .aggregate(Sum("one", alias_name="one"))
    )

    def pair_rows(t: pa.Table) -> pa.Table:
        s = t["src_id"].to_pylist()
        d = t["dst_id"].to_pylist()
        fwd = [a < b for a, b in zip(s, d)]
        return pa.table(
            {
                "lo": pa.array(
                    [a if f else b for a, b, f in zip(s, d, fwd)], pa.string()
                ),
                "hi": pa.array(
                    [b if f else a for a, b, f in zip(s, d, fwd)], pa.string()
                ),
                "f": pa.array([1 if f else 2 for f in fwd], pa.int64()),
            }
        )

    pairs = (
        distinct.map_batches(pair_rows, batch_format="pyarrow")
        .groupby(["lo", "hi"])
        .aggregate(Sum("f", alias_name="f"))
    )

    def scalar_partial(t: pa.Table) -> pa.Table:
        f = t["f"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_pairs": pa.array([t.num_rows], pa.int64()),
                "n_recip": pa.array([int((f == 3).sum())], pa.int64()),
                "n_dir": pa.array(
                    [int(np.where(f == 3, 2, 1).sum())], pa.int64()
                ),
            }
        )

    def smerge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return pa.table(
            {
                c: pa.array([int(pc.sum(t[c]).as_py() or 0)], pa.int64())
                for c in ("n_pairs", "n_recip", "n_dir")
            }
        )

    scalars = tree_combine(
        pairs.map_batches(scalar_partial, batch_format="pyarrow"), smerge
    )

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "n_directed_edges": pa.array([], pa.int64()),
                "n_reciprocated_pairs": pa.array([], pa.int64()),
                "reciprocity": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        nd = int(t["n_dir"][0].as_py())
        if nd == 0:
            return empty
        nr = int(t["n_recip"][0].as_py())
        return pa.table(
            {
                "n_directed_edges": pa.array([nd], pa.int64()),
                "n_reciprocated_pairs": pa.array([nr], pa.int64()),
                "reciprocity": pa.array(
                    [float(round_half_away(float(2 * nr) / nd, 4))],
                    pa.float64(),
                ),
            }
        )

    return scalars.map_batches(finish, batch_size=None, batch_format="pyarrow")


def _twohop_sharded(
    edges: Dataset, num_buckets: int = PR_NUM_BUCKETS
) -> Dataset:
    """Shuffle-formulated distinct ≤2-hop reach (the past-the-cap regime):
    no adjacency broadcast, no driver state.

    1. Distinct simple pairs as a Dataset (one string-key groupby, as in
       ``_neighbor_jaccard_sharded``).
    2. Every 2-hop connection is a wedge through some center: group the
       undirected adjacency rows per center and emit each unordered
       neighbor pair once (quadratic in center degree — the same bound as
       ``_neighbor_jaccard_sharded``; its NJ_HUB_CHUNK two-level chunk
       regime applies verbatim if hub centers appear). Direct edges join
       the stream as 1-hop pairs.
    3. ONE (x, y) groupby dedups pair multiplicities (a pair may arrive
       from many centers plus the direct edge); the distinct rows then
       feed a map-side endpoint census + one id groupby — each distinct
       unordered pair contributes 1 to both endpoints' reach.
    """
    from ray.data.aggregate import Count as _Count
    from ray.data.aggregate import Sum as _Sum

    from ..runtime.combine import anchor

    import ray.data as rd

    empty = pa.table(
        {
            "entity_id": pa.array([], pa.string()),
            "reach2": pa.array([], pa.int64()),
        }
    )

    def ab_rows(t: pa.Table) -> pa.Table:
        return (
            pa.table(
                {
                    "a": pa.compute.min_element_wise(t["src_id"], t["dst_id"]),
                    "b": pa.compute.max_element_wise(t["src_id"], t["dst_id"]),
                }
            )
            .filter(pa.compute.not_equal(t["src_id"], t["dst_id"]))
            .group_by(["a", "b"])
            .aggregate([])
        )

    pairs = anchor(
        edges.select_columns(["src_id", "dst_id"])
        .map_batches(ab_rows, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(_Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    if pairs.count() == 0:
        return rd.from_arrow(empty)

    def und_rows(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks()
        b = t["b"].combine_chunks()
        return pa.table(
            {
                "m": pa.concat_arrays([a, b]),
                "nb": pa.concat_arrays([b, a]),
            }
        )

    def wedge_group(df: pd.DataFrame) -> pd.DataFrame:
        nb = df["nb"].to_numpy()  # distinct within a center by construction
        n = len(nb)
        if n < 2:
            return pd.DataFrame(
                {
                    "x": pd.Series([], dtype=object),
                    "y": pd.Series([], dtype=object),
                }
            )
        iu, ju = np.triu_indices(n, 1)
        lo = np.minimum(nb[iu], nb[ju])
        hi = np.maximum(nb[iu], nb[ju])
        return pd.DataFrame({"x": lo, "y": hi})

    def to_arrow_pairs(t: pa.Table) -> pa.Table:
        # normalize the map_groups pandas blocks to Arrow string pairs so
        # the union with the Arrow direct-edge stream is block-type-clean
        if t.num_rows == 0 or "x" not in t.column_names:
            return pa.table(
                {
                    "x": pa.array([], pa.string()),
                    "y": pa.array([], pa.string()),
                }
            )
        return pa.table(
            {"x": t["x"].cast(pa.string()), "y": t["y"].cast(pa.string())}
        )

    wedges = (
        pairs.map_batches(und_rows, batch_format="pyarrow")
        .groupby("m")
        .map_groups(wedge_group, batch_format="pandas")
        .map_batches(to_arrow_pairs, batch_format="pyarrow")
    )
    direct = pairs.map_batches(
        lambda t: pa.table({"x": t["a"], "y": t["b"]}),
        batch_format="pyarrow",
    )
    distinct = (
        direct.union(wedges)
        .groupby(["x", "y"])
        .aggregate(_Count(alias_name="_n"))
        .drop_columns(["_n"])
    )

    def endpoint_census(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["x"].combine_chunks(), t["y"].combine_chunks()]
        )
        return (
            pa.table(
                {
                    "entity_id": ids,
                    "reach2": pa.array([1] * len(ids), pa.int64()),
                }
            )
            .group_by("entity_id")
            .aggregate([("reach2", "sum")])
            .rename_columns(["entity_id", "reach2"])
        )

    return (
        distinct.map_batches(endpoint_census, batch_format="pyarrow")
        .groupby("entity_id")
        .aggregate(_Sum("reach2", alias_name="reach2"))
    )


def twohop_reach(
    edges: Dataset,
    force_sharded: bool = False,
    num_buckets: int | None = None,
) -> Dataset:
    """Distinct ≤2-hop reach per node of the undirected simple entity
    graph: reach2(u) = |{v ≠ u : dist(u, v) ≤ 2}| — the neighborhood-size
    signal behind "how local is this entity" audits (SURVEY §2 graph
    analytics family).

    Same distribution ladder as ``neighbor_jaccard_topk``: vocabulary
    graphs compute locally on the collected simple edge set; mid-size
    graphs broadcast the adjacency once and fan the per-node set unions
    over node batches; past the TRIANGLE_MAX_EDGES cap the wedge-dedup
    shuffle formulation (``_twohop_sharded``) runs instead of raising.
    """
    import ray.data as rd

    if force_sharded:
        return _twohop_sharded(edges, num_buckets or PR_NUM_BUCKETS)
    try:
        simple = _simple_edges(edges, "twohop_reach")
    except ValueError:
        return _twohop_sharded(edges, num_buckets or PR_NUM_BUCKETS)
    if simple.num_rows == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "entity_id": pa.array([], pa.string()),
                    "reach2": pa.array([], pa.int64()),
                }
            )
        )
    adj: dict[str, set[str]] = {}
    for u, v in zip(simple["a"].to_pylist(), simple["b"].to_pylist()):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    node_table = pa.table({"u": pa.array(sorted(adj), pa.string())})

    def reach_batch(t: pa.Table, adj_ref=None) -> pa.Table:
        A = ray.get(adj_ref) if isinstance(adj_ref, ray.ObjectRef) else adj_ref
        us, ns = [], []
        for u in t["u"].to_pylist():
            reach = set(A[u])
            for w in A[u]:
                reach.update(A[w])
            reach.discard(u)
            us.append(u)
            ns.append(len(reach))
        return pa.table(
            {
                "entity_id": pa.array(us, pa.string()),
                "reach2": pa.array(ns, pa.int64()),
            }
        )

    # small-graph fast path: one in-process sweep over the node list
    if simple.num_rows <= SMALL_GRAPH_EDGES_MAX:
        return rd.from_arrow(reach_batch(node_table, adj))
    adj_ref = ray.put(adj)
    return rd.from_arrow(node_table).map_batches(
        lambda t, adj_ref=adj_ref: reach_batch(t, adj_ref),
        batch_format="pyarrow",
    )


def adamic_adar_topk(
    edges: Dataset,
    k: int = 20,
    force_sharded: bool = False,
    num_buckets: int | None = None,
    hub_chunk: int = 0,
) -> Dataset:
    """Top-k NON-ADJACENT node pairs by Adamic-Adar link-prediction score
    over the undirected simple entity graph:
    AA(u,v) = Σ_{w ∈ N(u)∩N(v)} 1/ln(deg(w)) for pairs u < v sharing at
    least one common neighbor and NOT already joined by an edge (the
    classic "which entities should be linked next" signal), rounded to 4
    decimals, cut by (aa_score DESC, u ASC, v ASC). A common neighbor
    has degree ≥ 2, so ln(deg) > 0 always.

    Same distribution shape as ``neighbor_jaccard_topk``: adjacency
    broadcast once (vocabulary-bounded, loud cap), candidate pairs from
    the two-hop closure, LOCAL top-k per batch, associative merge. Past
    the TRIANGLE_MAX_EDGES cap ``_adamic_adar_sharded`` runs instead:
    each wedge (u—w—v) carries weight 1/ln(deg(w)) — the degree is free
    at wedge time (the center's whole adjacency sits in its group; the
    chunked-hub regime reads it from the ``_attach_deg`` column) — the
    weights sum per pair in the hash(u|v) cogroup, and adjacency
    exclusion rides the same cogroup as marker rows. Per-pair float sums
    accumulate in whatever order the wedges arrive (documented
    kmeans/PCA fragility class; the per-pair term count is the common-
    neighborhood size)."""
    from ..functions.rounding import round_half_away
    from ..runtime.combine import topk_merge, tree_combine

    import ray.data as rd

    if force_sharded:
        return _adamic_adar_sharded(
            edges, k, num_buckets=num_buckets or PR_NUM_BUCKETS,
            hub_chunk=hub_chunk,
        )
    try:
        simple = _simple_edges(edges, "adamic_adar_topk")
    except ValueError:
        return _adamic_adar_sharded(
            edges, k, num_buckets=num_buckets or PR_NUM_BUCKETS,
            hub_chunk=hub_chunk,
        )
    adj: dict[str, set[str]] = {}
    for u, v in zip(simple["a"].to_pylist(), simple["b"].to_pylist()):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    node_table = pa.table({"u": pa.array(sorted(adj), pa.string())})
    cut = topk_merge(k, "aa_score", ["u", "v"])

    def pairs_batch(t: pa.Table, adj_ref=None) -> pa.Table:
        A = ray.get(adj_ref) if isinstance(adj_ref, ray.ObjectRef) else adj_ref
        us, vs, ss = [], [], []
        for u in t["u"].to_pylist():
            nu = A[u]
            cands = set()
            for w in nu:
                cands.update(x for x in A[w] if x > u)
            cands -= nu  # non-adjacent pairs only
            for v in sorted(cands):
                common = nu & A[v]
                if common:
                    us.append(u)
                    vs.append(v)
                    ss.append(
                        float(
                            sum(1.0 / np.log(len(A[w])) for w in sorted(common))
                        )
                    )
        return cut(
            pa.table(
                {
                    "u": pa.array(us, pa.string()),
                    "v": pa.array(vs, pa.string()),
                    "aa_score": pa.array(
                        round_half_away(ss, 4), pa.float64()
                    ),
                }
            )
        )

    # small-graph fast path: one in-process sweep over the node list
    if simple.num_rows <= SMALL_GRAPH_EDGES_MAX:
        return rd.from_arrow(pairs_batch(node_table, adj_ref=adj))

    adj_ref = ray.put(adj)
    nodes = rd.from_arrow(node_table)
    return tree_combine(
        nodes.map_batches(
            lambda t, adj_ref=adj_ref: pairs_batch(t, adj_ref=adj_ref),
            batch_format="pyarrow",
        ),
        cut,
    )


def _adamic_adar_sharded(
    edges: Dataset,
    k: int,
    num_buckets: int = PR_NUM_BUCKETS,
    hub_chunk: int = 0,
) -> Dataset:
    """Shuffle-formulated Adamic-Adar (the past-the-cap regime): the
    weighted twin of ``_neighbor_jaccard_sharded``. Every unordered pair
    (u, v) with a common neighbor is a wedge through some center w; each
    wedge carries weight 1/ln(deg(w)) — ``_attach_deg`` stamps the
    center degree onto every undirected adjacency row BEFORE wedge
    generation (one bucketed cogroup), so both the plain and the
    chunked-hub regimes read it off the row. Per-pair partial weight
    sums re-aggregate in one hash(u|v) int-bucket cogroup which ALSO
    carries the simple-edge marker rows: a pair with a marker is
    adjacent and drops (the Q22/anti-join idiom); everything downstream
    is an associative top-k merge. Driver state: the final top-k table
    only."""
    from ray.data.aggregate import Count as _Count

    from ..functions.rounding import round_half_away
    from ..runtime.combine import anchor, topk_merge, tree_combine
    from ..runtime.hashing import hash_buckets, hash_raw

    import ray.data as rd

    empty = pa.schema(
        [("u", pa.string()), ("v", pa.string()), ("aa_score", pa.float64())]
    ).empty_table()

    def ab_rows(t: pa.Table) -> pa.Table:
        return (
            pa.table(
                {
                    "a": pa.compute.min_element_wise(t["src_id"], t["dst_id"]),
                    "b": pa.compute.max_element_wise(t["src_id"], t["dst_id"]),
                }
            )
            .filter(pa.compute.not_equal(t["src_id"], t["dst_id"]))
            .group_by(["a", "b"])
            .aggregate([])
        )

    pairs = anchor(
        edges.select_columns(["src_id", "dst_id"])
        .map_batches(ab_rows, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(_Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    if pairs.count() == 0:
        return rd.from_arrow(empty)

    def degree_partials(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        return (
            pa.table(
                {"id": ids, "deg": pa.array([1] * len(ids), pa.int64())}
            )
            .group_by("id")
            .aggregate([("deg", "sum")])
            .rename_columns(["id", "deg"])
        )

    from ray.data.aggregate import Sum as _Sum

    degs = anchor(
        pairs.map_batches(degree_partials, batch_format="pyarrow")
        .groupby("id")
        .aggregate(_Sum("deg", alias_name="deg"))
    )

    def und_plain(t: pa.Table) -> pa.Table:
        center = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        nbr = pa.concat_arrays(
            [t["b"].combine_chunks(), t["a"].combine_chunks()]
        )
        return pa.table({"center": center, "nbr": nbr})

    with_dc = _attach_deg(
        pairs.map_batches(und_plain, batch_format="pyarrow"),
        degs,
        "center",
        "dc",
        num_buckets,
        frozenset({"center", "nbr"}),
    )

    def _pair_partials(outs_u: list, outs_v: list, outs_w: list) -> pd.DataFrame:
        if not outs_u:
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "u": pd.Series([], dtype=object),
                    "v": pd.Series([], dtype=object),
                    "s": pd.Series([], dtype="float64"),
                    "kind": pd.Series([], dtype="int64"),
                }
            )
        uu = np.concatenate(outs_u)
        vv = np.concatenate(outs_v)
        ww = np.concatenate(outs_w)
        out = (
            pd.DataFrame({"u": uu, "v": vv, "s": ww})
            .groupby(["u", "v"], as_index=False)["s"]
            .sum()
        )
        out.insert(
            0,
            "bucket",
            hash_buckets(
                (out["u"].astype(str) + "|" + out["v"].astype(str)).to_numpy(),
                num_buckets,
            ),
        )
        out["kind"] = np.zeros(len(out), np.int64)
        return out

    C = hub_chunk or NJ_HUB_CHUNK
    max_deg = int(degs.max("deg") or 0)
    if max_deg <= C:

        def bucketed(t: pa.Table) -> pa.Table:
            return t.append_column(
                "wbucket", _bucket_of(t["center"], num_buckets)
            )

        def wedge_group(df: pd.DataFrame) -> pd.DataFrame:
            outs_u, outs_v, outs_w = [], [], []
            for _, g in df.groupby("center", sort=False):
                nb = np.sort(g["nbr"].to_numpy(dtype=object))
                m = len(nb)
                if m < 2:
                    continue
                w = 1.0 / float(np.log(int(g["dc"].iloc[0])))
                iu, ju = np.triu_indices(m, 1)
                outs_u.append(nb[iu])
                outs_v.append(nb[ju])
                outs_w.append(np.full(len(iu), w, np.float64))
            return _pair_partials(outs_u, outs_v, outs_w)

        wedge_src = with_dc.map_batches(bucketed, batch_format="pyarrow")
        wedge_fn = wedge_group
    else:
        chunk_schema = pa.schema(
            [
                ("wbucket", pa.int64()),
                ("center", pa.string()),
                ("ci", pa.int64()),
                ("cj", pa.int64()),
                ("side", pa.int64()),
                ("nbr", pa.string()),
                ("dc", pa.int64()),
            ]
        )

        def chunk_expand(t: pa.Table, C=C) -> pa.Table:
            if t.num_rows == 0:
                return chunk_schema.empty_table()
            center = np.asarray(t["center"].to_pylist(), dtype=object)
            nbr = np.asarray(t["nbr"].to_pylist(), dtype=object)
            dc = t["dc"].to_numpy(zero_copy_only=False)
            nch = np.maximum(1, -(-dc // C)).astype(np.int64)
            cn = (
                hash_raw(nbr, key="aachunk") % nch.astype(np.uint64)
            ).astype(np.int64)
            reps = nch
            idx = np.repeat(np.arange(len(dc)), reps)
            total = int(reps.sum())
            o = np.arange(total) - np.repeat(np.cumsum(reps) - reps, reps)
            cn_r = cn[idx]
            ci = np.minimum(cn_r, o)
            cj = np.maximum(cn_r, o)
            side = np.where(
                o == cn_r, 2, np.where(cn_r < o, 0, 1)
            ).astype(np.int64)
            cc = center[idx]
            gk = (
                pd.Series(cc).astype(str)
                + "|"
                + pd.Series(ci).astype(str)
                + "|"
                + pd.Series(cj).astype(str)
            )
            wb = hash_buckets(gk.to_numpy(), num_buckets, key="aawedge")
            return pa.table(
                {
                    "wbucket": pa.array(wb, pa.int64()),
                    "center": pa.array(cc, pa.string()),
                    "ci": pa.array(ci, pa.int64()),
                    "cj": pa.array(cj, pa.int64()),
                    "side": pa.array(side, pa.int64()),
                    "nbr": pa.array(nbr[idx], pa.string()),
                    "dc": pa.array(dc[idx], pa.int64()),
                }
            )

        def wedge_group_chunked(df: pd.DataFrame) -> pd.DataFrame:
            outs_u, outs_v, outs_w = [], [], []
            for (_, i, j), g in df.groupby(
                ["center", "ci", "cj"], sort=False
            ):
                dci = int(g["dc"].iloc[0])
                if dci < 2:  # degree-1 center: no wedge, and ln(1) == 0
                    continue
                w = 1.0 / float(np.log(dci))
                if i == j:
                    nb = np.sort(
                        g.loc[g["side"] == 2, "nbr"].to_numpy(dtype=object)
                    )
                    m = len(nb)
                    if m < 2:
                        continue
                    iu, ju = np.triu_indices(m, 1)
                    outs_u.append(nb[iu])
                    outs_v.append(nb[ju])
                    outs_w.append(np.full(len(iu), w, np.float64))
                else:
                    left = g.loc[g["side"] == 0, "nbr"].to_numpy(
                        dtype=object
                    )
                    right = g.loc[g["side"] == 1, "nbr"].to_numpy(
                        dtype=object
                    )
                    if len(left) == 0 or len(right) == 0:
                        continue
                    u0 = np.repeat(left, len(right))
                    v0 = np.tile(right, len(left))
                    outs_u.append(np.minimum(u0, v0))
                    outs_v.append(np.maximum(u0, v0))
                    outs_w.append(np.full(len(u0), w, np.float64))
            return _pair_partials(outs_u, outs_v, outs_w)

        wedge_src = with_dc.map_batches(chunk_expand, batch_format="pyarrow")
        wedge_fn = wedge_group_chunked

    def marker_rows(t: pa.Table) -> pa.Table:
        key = pa.compute.binary_join_element_wise(t["a"], t["b"], "|")
        return pa.table(
            {
                "bucket": pa.array(
                    hash_buckets(key, num_buckets), pa.int64()
                ),
                "u": t["a"],
                "v": t["b"],
                "s": pa.array(
                    np.zeros(t.num_rows, np.float64), pa.float64()
                ),
                "kind": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
            }
        )

    def sum_group(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["u", "v"], as_index=False).agg(
            s=("s", "sum"), adj=("kind", "max")
        )
        g = g[g["adj"] == 0]
        return pd.DataFrame(
            {
                "u": g["u"].to_numpy(dtype=object),
                "v": g["v"].to_numpy(dtype=object),
                "s": g["s"].to_numpy(dtype=np.float64),
            }
        )

    scored = (
        wedge_src.groupby("wbucket")
        .map_groups(wedge_fn, batch_format="pandas")
        # bundle to Arrow BEFORE the union: mixing pandas map_groups
        # blocks with Arrow marker blocks breaks the sort sampler
        .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
        .union(pairs.map_batches(marker_rows, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(sum_group, batch_format="pandas")
        .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
    )

    cut = topk_merge(k, "aa_score", ["u", "v"])

    def score_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "u" not in t.column_names:
            return empty
        return cut(
            pa.table(
                {
                    "u": t["u"].cast(pa.string()),
                    "v": t["v"].cast(pa.string()),
                    "aa_score": pa.array(
                        round_half_away(
                            t["s"].to_numpy(zero_copy_only=False), 4
                        ),
                        pa.float64(),
                    ),
                }
            )
        )

    return tree_combine(
        scored.map_batches(score_rows, batch_format="pyarrow"), cut
    )


def _clustering_sharded(
    edges: Dataset, num_buckets: int = PR_NUM_BUCKETS
) -> Dataset:
    """Per-node triangle credit via the degree-oriented edge⋈wedge shuffle
    (the past-the-cap regime of ``clustering_coeff``): no adjacency is
    ever broadcast or collected.

    Same orientation as ``_triangles_sharded`` (lower-degree endpoint
    first, O(√m)-bounded out-degrees), but wedge rows KEEP the center id:
    a closed wedge (u—w—v) is one triangle and credits u, v AND w exactly
    once each, so the per-node totals need no /2 correction. Credits and
    the degree census merge through one node-bounded group-sum."""
    from ray.data.aggregate import Count as _Count
    from ray.data.aggregate import Sum as _Sum

    import ray.data as rd

    from ..functions.rounding import round_half_away
    from ..runtime.combine import anchor, group_sum_merge, tree_combine
    from ..runtime.hashing import hash_buckets

    empty = pa.table(
        {
            "entity_id": pa.array([], pa.string()),
            "degree": pa.array([], pa.int64()),
            "triangles": pa.array([], pa.int64()),
            "coeff": pa.array([], pa.float64()),
        }
    )

    def ab_rows(t: pa.Table) -> pa.Table:
        return (
            pa.table(
                {
                    "a": pa.compute.min_element_wise(t["src_id"], t["dst_id"]),
                    "b": pa.compute.max_element_wise(t["src_id"], t["dst_id"]),
                }
            )
            .filter(pa.compute.not_equal(t["src_id"], t["dst_id"]))
            .group_by(["a", "b"])
            .aggregate([])
        )

    pairs = anchor(
        edges.select_columns(["src_id", "dst_id"])
        .map_batches(ab_rows, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(_Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    if pairs.count() == 0:
        return rd.from_arrow(empty)

    def degree_partials(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        return (
            pa.table(
                {"id": ids, "deg": pa.array([1] * len(ids), pa.int64())}
            )
            .group_by("id")
            .aggregate([("deg", "sum")])
            .rename_columns(["id", "deg"])
        )

    degs = anchor(
        pairs.map_batches(degree_partials, batch_format="pyarrow")
        .groupby("id")
        .aggregate(_Sum("deg", alias_name="deg"))
    )

    with_da = _attach_deg(pairs, degs, "a", "deg_a", num_buckets)
    with_db = anchor(_attach_deg(with_da, degs, "b", "deg_b", num_buckets))

    def orient(t: pa.Table) -> pa.Table:
        da = t["deg_a"].to_numpy(zero_copy_only=False)
        db = t["deg_b"].to_numpy(zero_copy_only=False)
        a = np.asarray(t["a"].to_pylist(), dtype=object)
        b = np.asarray(t["b"].to_pylist(), dtype=object)
        a_first = (da < db) | ((da == db) & (a < b))
        return pa.table(
            {
                "src": pa.array(np.where(a_first, a, b), pa.string()),
                "dst": pa.array(np.where(a_first, b, a), pa.string()),
            }
        )

    oriented = with_db.map_batches(orient, batch_format="pyarrow")

    def wedge_group(df: pd.DataFrame, num_buckets=num_buckets) -> pd.DataFrame:
        cols = {"a": [], "b": [], "c": []}
        for src, g in df.groupby("src", sort=False):
            nb = np.sort(g["dst"].to_numpy(dtype=object))
            m = len(nb)
            if m < 2:
                continue
            iu, ju = np.triu_indices(m, 1)
            cols["a"].append(nb[iu])
            cols["b"].append(nb[ju])
            cols["c"].append(np.full(iu.size, src, dtype=object))
        if not cols["a"]:
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "kind": pd.Series([], dtype="int64"),
                    "a": pd.Series([], dtype="object"),
                    "b": pd.Series([], dtype="object"),
                    "c": pd.Series([], dtype="object"),
                }
            )
        out = pd.DataFrame(
            {
                "a": np.concatenate(cols["a"]),
                "b": np.concatenate(cols["b"]),
                "c": np.concatenate(cols["c"]),
            }
        )
        out.insert(
            0,
            "bucket",
            hash_buckets(
                (out["a"].astype(str) + "|" + out["b"].astype(str)).to_numpy(),
                num_buckets,
            ),
        )
        out.insert(1, "kind", np.int64(1))
        return out

    wedge_src = oriented.map_batches(
        lambda t: t.append_column(
            "wbucket", _bucket_of(t["src"], num_buckets)
        ),
        batch_format="pyarrow",
    )
    wedges = (
        wedge_src.groupby("wbucket")
        .map_groups(wedge_group, batch_format="pandas")
        .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
    )

    def edge_key_rows(t: pa.Table) -> pa.Table:
        keys = [
            f"{x}|{y}"
            for x, y in zip(t["a"].to_pylist(), t["b"].to_pylist())
        ]
        return pa.table(
            {
                "bucket": pa.array(hash_buckets(keys, num_buckets), pa.int64()),
                "kind": pa.array([0] * t.num_rows, pa.int64()),
                "a": t["a"],
                "b": t["b"],
                "c": pa.array([""] * t.num_rows, pa.string()),
            }
        )

    def credit_group(df: pd.DataFrame) -> pd.DataFrame:
        e = df[df["kind"] == 0]
        w = df[df["kind"] == 1]
        if e.empty or w.empty:
            return pd.DataFrame(
                {
                    "id": pd.Series([], dtype="object"),
                    "tri": pd.Series([], dtype="int64"),
                }
            )
        edge_set = set(zip(e["a"], e["b"]))
        mask = np.fromiter(
            ((x, y) in edge_set for x, y in zip(w["a"], w["b"])),
            bool,
            len(w),
        )
        closed = w.loc[mask]
        if closed.empty:
            return pd.DataFrame(
                {
                    "id": pd.Series([], dtype="object"),
                    "tri": pd.Series([], dtype="int64"),
                }
            )
        ids = np.concatenate(
            [
                closed["a"].to_numpy(dtype=object),
                closed["b"].to_numpy(dtype=object),
                closed["c"].to_numpy(dtype=object),
            ]
        )
        vc = pd.Series(ids).value_counts()
        return pd.DataFrame(
            {
                "id": vc.index.to_numpy(dtype=object),
                "tri": vc.to_numpy().astype(np.int64),
            }
        )

    credits = (
        wedges.union(pairs.map_batches(edge_key_rows, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(credit_group, batch_format="pandas")
    )

    # node-bounded merge of (id → triangles) with (id → degree): zero-fill
    # the missing column on each side, one group-sum tree combine
    both = credits.map_batches(
        lambda t: t.append_column(
            "deg", pa.array([0] * t.num_rows, pa.int64())
        ),
        batch_format="pyarrow",
    ).union(
        degs.map_batches(
            lambda t: pa.table(
                {
                    "id": t["id"],
                    "tri": pa.array([0] * t.num_rows, pa.int64()),
                    "deg": t["deg"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    merge = group_sum_merge(("id",), ("tri", "deg"))
    census = tree_combine(
        both.map_batches(
            lambda t: merge(t)
            if t.num_rows > 0 and "id" in t.column_names
            else pa.table(
                {
                    "id": pa.array([], pa.string()),
                    "tri": pa.array([], pa.int64()),
                    "deg": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "id" not in t.column_names:
            return empty
        df = t.to_pandas()
        df = df[df["deg"] >= 2]
        deg = df["deg"].to_numpy(dtype=np.int64)
        tri = df["tri"].to_numpy(dtype=np.int64)
        return pa.table(
            {
                "entity_id": pa.array(
                    df["id"].to_numpy(dtype=object), pa.string()
                ),
                "degree": pa.array(deg, pa.int64()),
                "triangles": pa.array(tri, pa.int64()),
                "coeff": pa.array(
                    round_half_away(2.0 * tri / (deg * (deg - 1.0)), 4),
                    pa.float64(),
                ),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


def clustering_coeff(
    edges: Dataset, force_sharded: bool = False
) -> pa.Table | Dataset:
    """Local clustering coefficient per node of the undirected simple
    entity graph: coeff(u) = 2·T(u) / (deg(u)·(deg(u)−1)) for nodes with
    degree ≥ 2, where T(u) counts triangles through u and deg counts
    distinct neighbors. Output: (entity_id, degree, triangles, coeff-
    rounded-to-4).

    Broadcast regime: the ``_simple_edges`` pair set + adjacency map (the
    ``triangle_count`` machinery); per edge (u, v) every common neighbor
    w credits u and v once — each triangle credits each of its nodes via
    its two incident edges, so T(u) = credit(u)/2. Small graphs compute
    on the driver (the size-adaptive rule); larger ones stream batches of
    pairs against the broadcast adjacency and group-sum the credits. Past
    TRIANGLE_MAX_EDGES the ``_clustering_sharded`` wedge cogroup runs
    instead (equivalence-tested)."""
    from ..functions.rounding import round_half_away

    if force_sharded:
        return _clustering_sharded(edges)
    try:
        simple = _simple_edges(edges, "clustering_coeff")
    except ValueError:
        return _clustering_sharded(edges)
    empty = pa.table(
        {
            "entity_id": pa.array([], pa.string()),
            "degree": pa.array([], pa.int64()),
            "triangles": pa.array([], pa.int64()),
            "coeff": pa.array([], pa.float64()),
        }
    )
    if simple.num_rows == 0:
        return empty
    adj: dict[str, list[str]] = {}
    for a, b in zip(simple["a"].to_pylist(), simple["b"].to_pylist()):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    adj_np = {k: np.sort(np.asarray(v, dtype=object)) for k, v in adj.items()}

    def credit_batch(t: pa.Table, adj_ref=None) -> pa.Table:
        A = ray.get(adj_ref) if isinstance(adj_ref, ray.ObjectRef) else adj_ref
        credit: dict[str, int] = {}
        for u, v in zip(t["a"].to_pylist(), t["b"].to_pylist()):
            c = int(
                np.intersect1d(A[u], A[v], assume_unique=True).size
            )
            if c:
                credit[u] = credit.get(u, 0) + c
                credit[v] = credit.get(v, 0) + c
        return pa.table(
            {
                "id": pa.array(list(credit.keys()), pa.string()),
                "tri2": pa.array(list(credit.values()), pa.int64()),
            }
        )

    def finish(credit: dict[str, int]) -> pa.Table:
        ids = sorted(k for k, v in adj_np.items() if v.size >= 2)
        deg = np.array([adj_np[k].size for k in ids], np.int64)
        tri = np.array([credit.get(k, 0) // 2 for k in ids], np.int64)
        return pa.table(
            {
                "entity_id": pa.array(ids, pa.string()),
                "degree": pa.array(deg, pa.int64()),
                "triangles": pa.array(tri, pa.int64()),
                "coeff": pa.array(
                    round_half_away(2.0 * tri / (deg * (deg - 1.0)), 4),
                    pa.float64(),
                ),
            }
        )

    if simple.num_rows <= SMALL_GRAPH_EDGES_MAX:
        part = credit_batch(simple, adj_ref=adj_np)
        credit = dict(
            zip(part["id"].to_pylist(), part["tri2"].to_pylist())
        )
        return finish(credit)

    import ray.data as rd

    adj_ref = ray.put(adj_np)
    credit: dict[str, int] = {}
    for b in (
        rd.from_arrow(simple)
        .map_batches(
            lambda t, adj_ref=adj_ref: credit_batch(t, adj_ref=adj_ref),
            batch_format="pyarrow",
        )
        .iter_batches(batch_size=None, batch_format="pyarrow")
    ):
        for i, n in zip(b["id"].to_pylist(), b["tri2"].to_pylist()):
            credit[i] = credit.get(i, 0) + int(n)
    return finish(credit)


KTRUSS_ROUNDS = 8


def _edge_support_sharded(
    pairs: Dataset, num_buckets: int = PR_NUM_BUCKETS
) -> Dataset:
    """Per-EDGE triangle support of a distinct (a < b) pair Dataset via
    the degree-oriented wedge cogroup (no adjacency broadcast): a closed
    wedge (u—w—v) is one triangle and supports all THREE of its edges —
    the closing edge (u,v) and the two wedge legs. Output: (a, b, sup)
    for edges with sup ≥ 1 (zero-support edges simply don't surface,
    exactly like the oracle's inner-join census)."""
    from ray.data.aggregate import Sum as _Sum

    from ..runtime.combine import anchor
    from ..runtime.hashing import hash_buckets

    def degree_partials(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        return (
            pa.table(
                {"id": ids, "deg": pa.array([1] * len(ids), pa.int64())}
            )
            .group_by("id")
            .aggregate([("deg", "sum")])
            .rename_columns(["id", "deg"])
        )

    degs = anchor(
        pairs.map_batches(degree_partials, batch_format="pyarrow")
        .groupby("id")
        .aggregate(_Sum("deg", alias_name="deg"))
    )
    with_da = _attach_deg(pairs, degs, "a", "deg_a", num_buckets)
    with_db = anchor(_attach_deg(with_da, degs, "b", "deg_b", num_buckets))

    def orient(t: pa.Table) -> pa.Table:
        da = t["deg_a"].to_numpy(zero_copy_only=False)
        db = t["deg_b"].to_numpy(zero_copy_only=False)
        a = np.asarray(t["a"].to_pylist(), dtype=object)
        b = np.asarray(t["b"].to_pylist(), dtype=object)
        a_first = (da < db) | ((da == db) & (a < b))
        return pa.table(
            {
                "src": pa.array(np.where(a_first, a, b), pa.string()),
                "dst": pa.array(np.where(a_first, b, a), pa.string()),
            }
        )

    oriented = with_db.map_batches(orient, batch_format="pyarrow")

    def wedge_group(df: pd.DataFrame, num_buckets=num_buckets) -> pd.DataFrame:
        cols = {"a": [], "b": [], "c": []}
        for src, g in df.groupby("src", sort=False):
            nb = np.sort(g["dst"].to_numpy(dtype=object))
            m = len(nb)
            if m < 2:
                continue
            iu, ju = np.triu_indices(m, 1)
            cols["a"].append(nb[iu])
            cols["b"].append(nb[ju])
            cols["c"].append(np.full(iu.size, src, dtype=object))
        if not cols["a"]:
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "kind": pd.Series([], dtype="int64"),
                    "a": pd.Series([], dtype="object"),
                    "b": pd.Series([], dtype="object"),
                    "c": pd.Series([], dtype="object"),
                }
            )
        out = pd.DataFrame(
            {
                "a": np.concatenate(cols["a"]),
                "b": np.concatenate(cols["b"]),
                "c": np.concatenate(cols["c"]),
            }
        )
        out.insert(
            0,
            "bucket",
            hash_buckets(
                (out["a"].astype(str) + "|" + out["b"].astype(str)).to_numpy(),
                num_buckets,
            ),
        )
        out.insert(1, "kind", np.int64(1))
        return out

    wedge_src = oriented.map_batches(
        lambda t: t.append_column(
            "wbucket", _bucket_of(t["src"], num_buckets)
        ),
        batch_format="pyarrow",
    )
    wedges = (
        wedge_src.groupby("wbucket")
        .map_groups(wedge_group, batch_format="pandas")
        .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
    )

    def edge_key_rows(t: pa.Table) -> pa.Table:
        keys = [
            f"{x}|{y}"
            for x, y in zip(t["a"].to_pylist(), t["b"].to_pylist())
        ]
        return pa.table(
            {
                "bucket": pa.array(hash_buckets(keys, num_buckets), pa.int64()),
                "kind": pa.array([0] * t.num_rows, pa.int64()),
                "a": t["a"],
                "b": t["b"],
                "c": pa.array([""] * t.num_rows, pa.string()),
            }
        )

    def support_group(df: pd.DataFrame) -> pd.DataFrame:
        e = df[df["kind"] == 0]
        w = df[df["kind"] == 1]
        empty = pd.DataFrame(
            {
                "a": pd.Series([], dtype="object"),
                "b": pd.Series([], dtype="object"),
                "sup": pd.Series([], dtype="int64"),
            }
        )
        if e.empty or w.empty:
            return empty
        edge_set = set(zip(e["a"], e["b"]))
        mask = np.fromiter(
            ((x, y) in edge_set for x, y in zip(w["a"], w["b"])),
            bool,
            len(w),
        )
        closed = w.loc[mask]
        if closed.empty:
            return empty
        # each closed wedge supports its three edges (canonical a < b)
        ua = closed["a"].to_numpy(dtype=object)
        ub = closed["b"].to_numpy(dtype=object)
        uc = closed["c"].to_numpy(dtype=object)
        ea = np.concatenate([ua, np.minimum(uc, ua), np.minimum(uc, ub)])
        eb = np.concatenate([ub, np.maximum(uc, ua), np.maximum(uc, ub)])
        out = (
            pd.DataFrame({"a": ea, "b": eb})
            .groupby(["a", "b"], as_index=False)
            .size()
            .rename(columns={"size": "sup"})
        )
        return out.astype({"a": "object", "b": "object", "sup": "int64"})

    support = (
        wedges.union(pairs.map_batches(edge_key_rows, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(support_group, batch_format="pandas")
    )

    # the same edge's support arrives from several buckets (its two legs
    # live in other wedges' buckets) — one edge-keyed sum concentrates it
    def pin(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "a": pa.array(df["a"] if "a" in df else [], pa.string()),
                "b": pa.array(df["b"] if "b" in df else [], pa.string()),
                "sup": pa.array(
                    (df["sup"] if "sup" in df else []), pa.int64()
                ),
            }
        )

    return (
        support.map_batches(pin, batch_format="pandas")
        # map_groups' empty sort partitions emit schema-less pandas blocks
        # that BYPASS map fns (Ray skips zero-row blocks) — coalescing by
        # row count drops them before the groupby sort, which rejects
        # mixed Arrow/pandas block streams (the NOTES.md ngram fix)
        .repartition(target_num_rows_per_block=65536)
        .groupby(["a", "b"])
        .aggregate(_Sum("sup", alias_name="sup"))
    )


def _ktruss_sharded(
    edges: Dataset,
    k: int,
    rounds: int,
    num_buckets: int = PR_NUM_BUCKETS,
) -> Dataset:
    """Fixed-round k-truss peel, fully sharded: per round one
    ``_edge_support_sharded`` pass and one support filter; the final
    support recompute left-joins back onto the survivors (zero-support
    rows only possible pre-convergence, mirrored by the oracle)."""
    import ray.data as rd

    from ..runtime.combine import anchor

    empty = pa.table(
        {
            "a": pa.array([], pa.string()),
            "b": pa.array([], pa.string()),
            "support": pa.array([], pa.int64()),
        }
    )

    def ab_rows(t: pa.Table) -> pa.Table:
        return (
            pa.table(
                {
                    "a": pa.compute.min_element_wise(t["src_id"], t["dst_id"]),
                    "b": pa.compute.max_element_wise(t["src_id"], t["dst_id"]),
                }
            )
            .filter(pa.compute.not_equal(t["src_id"], t["dst_id"]))
            .group_by(["a", "b"])
            .aggregate([])
        )

    from ray.data.aggregate import Count as _Count

    cur = anchor(
        edges.select_columns(["src_id", "dst_id"])
        .map_batches(ab_rows, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(_Count(alias_name="_n"))
        .drop_columns(["_n"])
    ).materialize()
    prev_n = cur.count()
    if prev_n == 0:
        return rd.from_arrow(empty)
    for _ in range(rounds):
        sup = _edge_support_sharded(cur, num_buckets)

        # vectorized Arrow support filter (a row-wise filter(lambda) here
        # was per-row Python in the peel loop's hot path); the same pass
        # pins the loop state to Arrow blocks, and the repartition
        # coalesces away the zero-row blocks that bypass map fns
        # (NOTES.md) — the next round's Aggregate rejects mixed streams
        def keep_supported(t: pa.Table, k=k) -> pa.Table:
            kept = t.filter(
                pa.compute.greater_equal(t["sup"], pa.scalar(k - 2))
            )
            return pa.table({"a": kept["a"], "b": kept["b"]})

        cur = (
            sup.map_batches(keep_supported, batch_format="pyarrow")
            .repartition(target_num_rows_per_block=65536)
            .materialize()
        )
        n = cur.count()
        if n == 0:
            return rd.from_arrow(empty)
        if n == prev_n:  # monotone peel: stable == converged
            break
        prev_n = n

    # final support on the survivors; zero-support rows kept via the
    # marker union (mirrors the oracle's LEFT JOIN coalesce)
    sup = _edge_support_sharded(cur, num_buckets)

    def zero_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": t["a"],
                "b": t["b"],
                "sup": pa.array([0] * t.num_rows, pa.int64()),
            }
        )

    from ray.data.aggregate import Sum as _Sum

    merged = (
        sup.map_batches(
            lambda t: pa.table(
                {"a": t["a"], "b": t["b"], "sup": t["sup"].cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .repartition(target_num_rows_per_block=65536)
        .union(cur.map_batches(zero_rows, batch_format="pyarrow"))
        .groupby(["a", "b"])
        .aggregate(_Sum("sup", alias_name="support"))
    )
    return merged.map_batches(
        lambda t: pa.table(
            {
                "a": t["a"],
                "b": t["b"],
                "support": t["support"].cast(pa.int64()),
            }
        )
        if t.num_rows
        else empty,
        batch_format="pyarrow",
    )


def ktruss(
    edges: Dataset,
    k: int = 3,
    rounds: int = KTRUSS_ROUNDS,
    *,
    force_sharded: bool = False,
    num_buckets: int | None = None,
) -> Dataset:
    """Fixed-round k-truss of the undirected simple entity graph: keep
    edges participating in ≥ k−2 triangles among surviving edges,
    ``rounds`` times (exact k-truss once converged — the peel is
    monotone, and the oracle unrolls the SAME round count). Output:
    surviving (a, b, support) with support recomputed on the final
    graph. The cohesion notch between k-core (node peel) and cliques.

    Under the loud cap the collected pair set peels on the driver (set
    arithmetic, early exit on stability); past it — or with
    ``force_sharded`` — the per-round ``_edge_support_sharded`` wedge
    cogroup runs instead of raising."""
    import ray.data as rd

    if force_sharded:
        return _ktruss_sharded(
            edges, k, rounds, num_buckets=num_buckets or PR_NUM_BUCKETS
        )
    try:
        simple = _simple_edges(edges, "ktruss")
    except ValueError:
        return _ktruss_sharded(
            edges, k, rounds, num_buckets=num_buckets or PR_NUM_BUCKETS
        )
    empty = pa.table(
        {
            "a": pa.array([], pa.string()),
            "b": pa.array([], pa.string()),
            "support": pa.array([], pa.int64()),
        }
    )
    E = set(zip(simple["a"].to_pylist(), simple["b"].to_pylist()))
    if not E:
        return rd.from_arrow(empty)

    def supports(E: set) -> dict:
        adj: dict[str, set] = {}
        for u, v in E:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return {
            (u, v): len(adj[u] & adj[v]) for u, v in E
        }

    for _ in range(rounds):
        sup = supports(E)
        nxt = {e for e, s in sup.items() if s >= k - 2}
        if nxt == E:
            break
        E = nxt
        if not E:
            return rd.from_arrow(empty)
    sup = supports(E)
    rows = sorted(E)
    return rd.from_arrow(
        pa.table(
            {
                "a": pa.array([a for a, _ in rows], pa.string()),
                "b": pa.array([b for _, b in rows], pa.string()),
                "support": pa.array(
                    [int(sup[e]) for e in rows], pa.int64()
                ),
            }
        )
    )


HITS_ITERS = 5


def _hits_local(tab: pa.Table, iters: int) -> pa.Table:
    """Small-graph HITS fast path: identical formulation to the streamed
    and sharded regimes (weighted contributions, L1 normalization after
    each half-step, auth from hub then hub from the NEW auth), vectorized
    on the collected edge table."""
    from ..functions.rounding import round_half_away

    if tab.num_rows == 0:
        return pa.table(
            {
                "entity_id": pa.array([], pa.string()),
                "hub": pa.array([], pa.float64()),
                "auth": pa.array([], pa.float64()),
            }
        )
    src = np.asarray(tab["src_id"].to_pylist(), dtype=object)
    dst = np.asarray(tab["dst_id"].to_pylist(), dtype=object)
    w = tab["weight"].cast(pa.float64()).to_numpy(zero_copy_only=False)
    nodes = np.unique(np.concatenate([src, dst]))
    idx = {v: i for i, v in enumerate(nodes)}
    si = np.fromiter((idx[v] for v in src), dtype=np.int64, count=len(src))
    di = np.fromiter((idx[v] for v in dst), dtype=np.int64, count=len(dst))
    n = len(nodes)
    hub = np.full(n, 1.0 / n)
    auth = np.full(n, 1.0 / n)
    for _ in range(iters):
        a = np.zeros(n)
        np.add.at(a, di, hub[si] * w)
        s = a.sum()
        auth = a / s if s > 0.0 else a
        h = np.zeros(n)
        np.add.at(h, si, auth[di] * w)
        s = h.sum()
        hub = h / s if s > 0.0 else h
    return pa.table(
        {
            "entity_id": pa.array(list(nodes), pa.string()),
            "hub": pa.array(round_half_away(hub), pa.float64()),
            "auth": pa.array(round_half_away(auth), pa.float64()),
        }
    )


def hits(
    edges: Dataset,
    iters: int = HITS_ITERS,
    *,
    small_max: int = SMALL_GRAPH_EDGES_MAX,
    max_nodes: int = PAGERANK_MAX_NODES,
    num_buckets: int | None = None,
    force_sharded: bool = False,
) -> pa.Table | Dataset:
    """Weighted HITS (hubs and authorities, Kleinberg) over the canonical
    edge table — fixed iteration count, L1 normalization (no sqrt, so the
    DuckDB oracle can unroll the same arithmetic exactly).

    Per iteration: auth'(v) = Σ_{u→v} hub(u)·w, L1-normalized; then
    hub'(u) = Σ_{u→v} auth'(v)·w, L1-normalized. Parallel edges sum
    naturally (contributions are linear in weight, the pagerank
    convention).

    Size-adaptive, three regimes (the ``pagerank`` convention):
    - ≤ ``small_max`` edges: ONE collect + vectorized driver loop.
    - ≤ ``max_nodes`` nodes: edge table STREAMED twice per iteration
      (once per direction) with the vocabulary-sized hub/auth maps
      broadcast via ``ray.put``.
    - > ``max_nodes`` nodes (or ``force_sharded``): ``_hits_sharded`` —
      bucketed node state, per-direction union+groupby cogroups; the
      hub/auth vectors never touch the driver.
    All regimes implement the SAME arithmetic (equivalence-tested at the
    4-decimal output rounding).
    """
    from ..functions.rounding import round_half_away
    from ..runtime.combine import group_sum_merge, tree_combine

    slim = edges.select_columns(["src_id", "dst_id", "weight"])
    if not force_sharded:
        collected = _try_collect_edges(
            slim, ["src_id", "dst_id", "weight"], row_cap=small_max
        )
        if collected is not None:
            return _hits_local(collected, iters)
    g = slim.materialize()

    nm = group_sum_merge(("id",), ("one",))

    def node_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return nm(
            pa.table(
                {
                    "id": pa.concat_arrays(
                        [
                            t["src_id"].combine_chunks(),
                            t["dst_id"].combine_chunks(),
                        ]
                    ),
                    "one": pa.array([1] * (2 * n), pa.int64()),
                }
            )
        )

    # seed the concat (NOTES: iter_batches of an empty dataset yields ZERO
    # tables and concat_tables raises)
    census = pa.concat_tables(
        [
            pa.table(
                {
                    "id": pa.array([], pa.string()),
                    "one": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                g.map_batches(node_rows, batch_format="pyarrow"), nm
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if force_sharded or census.num_rows > max_nodes:
        return _hits_sharded(
            g, iters, num_buckets=num_buckets or PR_NUM_BUCKETS
        )
    node_ids = census["id"].to_pylist()
    n_nodes = len(node_ids)
    if n_nodes == 0:
        return _hits_local(
            pa.table(
                {
                    "src_id": pa.array([], pa.string()),
                    "dst_id": pa.array([], pa.string()),
                    "weight": pa.array([], pa.float64()),
                }
            ),
            iters,
        )
    hub = {v: 1.0 / n_nodes for v in node_ids}
    auth = {v: 1.0 / n_nodes for v in node_ids}
    cmerge = group_sum_merge(("id",), ("contrib",))

    def _contrib_pass(vec: dict, key_col: str, out_col: str) -> dict:
        """One streamed direction: broadcast ``vec`` (keyed by the
        ``key_col`` endpoint), emit per-``out_col`` contribution partials,
        tree-combine, return the dict."""
        vec_ref = ray.put(pd.Series(vec))

        def contribs(
            t: pa.Table, vec_ref=vec_ref, key_col=key_col, out_col=out_col
        ) -> pa.Table:
            f = ray.get(vec_ref)
            w = t["weight"].cast(pa.float64()).to_numpy(zero_copy_only=False)
            keyed = pd.Series(t[key_col].to_pylist())
            return cmerge(
                pa.table(
                    {
                        "id": t[out_col],
                        "contrib": pa.array(
                            keyed.map(f).to_numpy(dtype=np.float64) * w,
                            pa.float64(),
                        ),
                    }
                )
            )

        ctab = pa.concat_tables(
            tree_combine(
                g.map_batches(contribs, batch_format="pyarrow"), cmerge
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        )
        return dict(
            zip(
                ctab["id"].to_pylist(),
                ctab["contrib"].to_numpy(zero_copy_only=False),
            )
        )

    for _ in range(iters):
        c = _contrib_pass(hub, "src_id", "dst_id")
        s = sum(c.values())
        auth = {
            v: (c.get(v, 0.0) / s if s > 0.0 else c.get(v, 0.0))
            for v in node_ids
        }
        c = _contrib_pass(auth, "dst_id", "src_id")
        s = sum(c.values())
        hub = {
            v: (c.get(v, 0.0) / s if s > 0.0 else c.get(v, 0.0))
            for v in node_ids
        }

    order = sorted(node_ids)
    return pa.table(
        {
            "entity_id": pa.array(order, pa.string()),
            "hub": pa.array(
                [float(round_half_away(hub[v])) for v in order], pa.float64()
            ),
            "auth": pa.array(
                [float(round_half_away(auth[v])) for v in order],
                pa.float64(),
            ),
        }
    )


def _hits_sharded(
    g: Dataset, iters: int, num_buckets: int = PR_NUM_BUCKETS
) -> Dataset:
    """Sharded-vector HITS (the > PAGERANK_MAX_NODES regime): node state
    (id, hub, auth) lives as a bucketed Dataset; each half-step is one
    union+groupby cogroup (factor rows bucketed by the edge's factor
    endpoint UNION endpoint-bucketed edge rows → per-target contribution
    partials) followed by a streamed scalar L1 sum and a state-update
    cogroup folding in the normalization. Same partitioning assumption as
    ``_pagerank_sharded`` (one bucket's node + incident edge rows fit one
    task's heap; buckets = siphash(id) % B)."""
    from ray.data.aggregate import Sum

    from ..functions.rounding import round_half_away
    from ..runtime.combine import anchor

    def endpoint_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return (
            pa.table(
                {
                    "id": pa.concat_arrays(
                        [
                            t["src_id"].combine_chunks(),
                            t["dst_id"].combine_chunks(),
                        ]
                    ),
                    "one": pa.array([1] * (2 * n), pa.int64()),
                }
            )
            .group_by("id")
            .aggregate([("one", "sum")])
            .rename_columns(["id", "one"])
        )

    census = (
        g.map_batches(endpoint_rows, batch_format="pyarrow")
        .groupby("id")
        .aggregate(Sum("one", alias_name="one"))
        .drop_columns(["one"])
        .materialize()
    )
    n_nodes = census.count()
    empty = pa.table(
        {
            "entity_id": pa.array([], pa.string()),
            "hub": pa.array([], pa.float64()),
            "auth": pa.array([], pa.float64()),
        }
    )
    if n_nodes == 0:
        return census.map_batches(
            lambda t: empty, batch_format="pyarrow"
        )

    def init_state(t: pa.Table) -> pa.Table:
        v = 1.0 / n_nodes
        return pa.table(
            {
                "bucket": _bucket_of(t["id"], num_buckets),
                "id": t["id"],
                "hub": pa.array([v] * t.num_rows, pa.float64()),
                "auth": pa.array([v] * t.num_rows, pa.float64()),
            }
        )

    state = anchor(census.map_batches(init_state, batch_format="pyarrow"))

    def edge_rows_by(col: str):
        def _rows(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "bucket": _bucket_of(t[col], num_buckets),
                    "kind": pa.array([1] * t.num_rows, pa.int64()),
                    "a": t["src_id"],
                    "b": t["dst_id"],
                    "w": t["weight"].cast(pa.float64()),
                }
            )

        return _rows

    e_by_src = anchor(
        g.map_batches(edge_rows_by("src_id"), batch_format="pyarrow")
    )
    e_by_dst = anchor(
        g.map_batches(edge_rows_by("dst_id"), batch_format="pyarrow")
    )

    def factor_rows(col: str):
        def _rows(t: pa.Table, col=col) -> pa.Table:
            return pa.table(
                {
                    "bucket": t["bucket"],
                    "kind": pa.array([0] * t.num_rows, pa.int64()),
                    "a": t["id"],
                    "b": pa.array([None] * t.num_rows, pa.string()),
                    "w": t[col].cast(pa.float64()),
                }
            )

        return _rows

    def contrib_group_by(key_col: str, out_col: str):
        def _group(
            df: pd.DataFrame, num_buckets=num_buckets
        ) -> pd.DataFrame:
            from ..runtime.hashing import hash_buckets

            f = df[df["kind"] == 0].set_index("a")["w"]
            e = df[df["kind"] == 1]
            if e.empty:
                return pd.DataFrame(
                    {
                        "bucket": pd.Series([], dtype="int64"),
                        "id": pd.Series([], dtype="object"),
                        "contrib": pd.Series([], dtype="float64"),
                    }
                )
            out = (
                pd.DataFrame(
                    {
                        "id": e[out_col].to_numpy(),
                        "contrib": e[key_col].map(f).to_numpy(
                            dtype=np.float64
                        )
                        * e["w"].to_numpy(dtype=np.float64),
                    }
                )
                .groupby("id", as_index=False)["contrib"]
                .sum()
            )
            out.insert(
                0,
                "bucket",
                hash_buckets(out["id"].to_numpy(dtype=object), num_buckets),
            )
            return out

        return _group

    def contrib_tagged(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": t["bucket"],
                "kind": pa.array([1] * t.num_rows, pa.int64()),
                "id": t["id"],
                "hub": pa.array([0.0] * t.num_rows, pa.float64()),
                "auth": pa.array([0.0] * t.num_rows, pa.float64()),
                "val": t["contrib"],
            }
        )

    def state_tagged(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": t["bucket"],
                "kind": pa.array([0] * t.num_rows, pa.int64()),
                "id": t["id"],
                "hub": t["hub"],
                "auth": t["auth"],
                "val": pa.array([0.0] * t.num_rows, pa.float64()),
            }
        )

    def half_step(state: Dataset, vec_col: str, key_col: str, out_col: str):
        """One HITS half-step: contributions of ``vec_col`` along edges
        keyed at ``key_col``, written (L1-normalized) into the OTHER
        vector column of the state."""
        eb = e_by_src if key_col == "a" else e_by_dst
        fr = state.map_batches(factor_rows(vec_col), batch_format="pyarrow")
        contribs = anchor(
            fr.union(eb)
            .groupby("bucket")
            .map_groups(
                contrib_group_by(key_col, out_col), batch_format="pandas"
            )
        )
        s = contribs.map_batches(
            lambda t: pa.table(
                {
                    "s": pa.array(
                        [
                            float(
                                pa.compute.sum(t["contrib"]).as_py() or 0.0
                            )
                        ],
                        pa.float64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("s") or 0.0
        upd_col = "auth" if vec_col == "hub" else "hub"

        def new_state_group(df: pd.DataFrame, s=s) -> pd.DataFrame:
            st = df[df["kind"] == 0]
            c = df[df["kind"] == 1].groupby("id")["val"].sum()
            new = st["id"].map(c).fillna(0.0).to_numpy(dtype=np.float64)
            if s > 0.0:
                new = new / s
            out = {
                "bucket": st["bucket"].to_numpy(),
                "id": st["id"].to_numpy(),
                "hub": st["hub"].to_numpy(dtype=np.float64),
                "auth": st["auth"].to_numpy(dtype=np.float64),
            }
            out[upd_col] = new
            return pd.DataFrame(out)

        return anchor(
            state.map_batches(state_tagged, batch_format="pyarrow")
            .union(contribs.map_batches(contrib_tagged, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(new_state_group, batch_format="pandas")
            .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
        )

    for _ in range(iters):
        state = half_step(state, "hub", "a", "b")    # auth ← hub over u→v
        state = half_step(state, "auth", "b", "a")   # hub ← new auth

    return state.map_batches(
        lambda t: pa.table(
            {
                "entity_id": t["id"],
                "hub": pa.array(
                    round_half_away(t["hub"].to_numpy(zero_copy_only=False)),
                    pa.float64(),
                ),
                "auth": pa.array(
                    round_half_away(
                        t["auth"].to_numpy(zero_copy_only=False)
                    ),
                    pa.float64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


# -------------------------------------------------- weighted shortest paths


def _sssp_local(tab: pa.Table, rounds: int) -> pa.Table:
    """Driver fast path: synchronous (Jacobi) Bellman-Ford — round-capped
    min-plus relaxation on the collected edge table. Integer distances are
    exact, so this is bit-identical to the distributed regimes at equal
    round counts (and to the oracle's unrolled CTEs: the relaxation is
    monotone, so early exit on a fixed round budget equals running every
    round — the kcore/ktruss convention)."""
    empty = pa.table(
        {
            "entity_id": pa.array([], pa.string()),
            "dist": pa.array([], pa.int64()),
        }
    )
    if tab.num_rows == 0:
        return empty
    src = tab["src_id"].to_pylist()
    dst = tab["dst_id"].to_pylist()
    w = tab["weight"].cast(pa.int64()).to_pylist()
    seed = min(min(src), min(dst))
    adj: dict[str, list[tuple[str, int]]] = {}
    for s, d, ww in zip(src, dst, w):
        if s == d:
            continue  # a positive-weight self-loop never relaxes
        adj.setdefault(s, []).append((d, ww))
        adj.setdefault(d, []).append((s, ww))
    dist: dict[str, int] = {seed: 0}
    frontier: dict[str, int] = {seed: 0}
    for _ in range(rounds):
        nxt: dict[str, int] = {}
        # frontier-only relaxation is round-for-round identical to the
        # full relax (a non-improved node's outgoing relaxations were
        # already applied the round it last improved)
        for u, du in frontier.items():
            for v, ww in adj.get(u, ()):
                nd = du + ww
                if nd < dist.get(v, nd + 1) and nd < nxt.get(v, nd + 1):
                    nxt[v] = nd
        if not nxt:
            break
        dist.update(nxt)
        frontier = nxt
    ids = sorted(dist)
    return pa.table(
        {
            "entity_id": pa.array(ids, pa.string()),
            "dist": pa.array([dist[i] for i in ids], pa.int64()),
        }
    )


def _sssp_seed(slim: Dataset) -> str | None:
    """Lexicographically smallest endpoint over ALL edge rows (self-loops
    included — the BFS seed convention)."""
    import pyarrow.compute as pc

    from ..runtime.combine import tree_combine

    def min_node(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"node": pa.array([], pa.string())})
        vals = [
            v
            for v in (
                pc.min(t.column(c)).as_py() if c in t.schema.names else None
                for c in ("src_id", "dst_id", "node")
            )
            if v is not None
        ]
        return pa.table({"node": pa.array([min(vals)], pa.string())})

    rows = tree_combine(
        slim.map_batches(min_node, batch_format="pyarrow"), min_node
    ).take_all()
    return rows[0]["node"] if rows else None


def _sssp_sharded(
    slim: Dataset,
    rounds: int,
    num_buckets: int = PR_NUM_BUCKETS,
    dist0: dict[str, int] | None = None,
) -> Dataset:
    """Join-per-round Bellman-Ford (the > max_nodes regime): the distance
    vector lives as a bucketed Dataset — no driver node map. Per round,
    two int-key cogroups (union + groupby, never ``Dataset.join``):

    1. frontier rows ⋈ src-bucketed weighted arcs → per-target candidate
       distances (pre-minned per group);
    2. candidates ⋈ state rows → the new state (min of old and candidate
       per node) plus a per-row improved flag; the new frontier is the
       improved subset and the round's driver state is ONE scalar (the
       improved count, for the early exit).

    Same partitioning assumption as ``_pagerank_sharded`` (one bucket's
    state + incident arc rows fit one task's heap). ``dist0`` lets the
    broadcast regime hand over mid-run (restart semantics: the map it
    accumulated so far becomes round-0 state; correct because min-plus
    state is monotone)."""
    import pyarrow.compute as pc

    import ray.data as rd

    from ..runtime.combine import anchor, tree_combine
    from ..runtime.hashing import hash_buckets

    empty = pa.table(
        {
            "entity_id": pa.array([], pa.string()),
            "dist": pa.array([], pa.int64()),
        }
    )

    def arc_rows(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.invert(pc.equal(t["src_id"], t["dst_id"]))
        t = t.filter(keep)
        a = pa.concat_arrays(
            [t["src_id"].combine_chunks(), t["dst_id"].combine_chunks()]
        )
        b = pa.concat_arrays(
            [t["dst_id"].combine_chunks(), t["src_id"].combine_chunks()]
        )
        w = t["weight"].cast(pa.int64()).combine_chunks()
        ww = pa.concat_arrays([w, w])
        return pa.table(
            {
                "bucket": _bucket_of(a, num_buckets),
                "kind": pa.array([1] * len(a), pa.int64()),
                "a": a,
                "b": b,
                "w": ww.cast(pa.int64()),
            }
        )

    arcs = anchor(slim.map_batches(arc_rows, batch_format="pyarrow"))

    if dist0 is None:
        seed = _sssp_seed(slim)
        if seed is None:
            return rd.from_arrow(empty)
        dist0 = {seed: 0}

    def state_table(d: dict[str, int]) -> pa.Table:
        ids = pa.array(list(d), pa.string())
        return pa.table(
            {
                "bucket": _bucket_of(ids, num_buckets),
                "id": ids,
                "dist": pa.array(list(d.values()), pa.int64()),
            }
        )

    state = rd.from_arrow(state_table(dist0))
    frontier = state

    def relax_group(df: pd.DataFrame, num_buckets=num_buckets) -> pd.DataFrame:
        f = df[df["kind"] == 0]
        fmap = pd.Series(
            f["w"].to_numpy(np.int64), index=f["a"].to_numpy(dtype=object)
        )
        e = df[df["kind"] == 1]
        base = e["a"].map(fmap)
        hit = base.notna()
        cand = pd.DataFrame(
            {
                "id": e.loc[hit, "b"].to_numpy(dtype=object),
                "dist": base[hit].to_numpy(np.int64)
                + e.loc[hit, "w"].to_numpy(np.int64),
            }
        )
        cand = cand.groupby("id", sort=False, as_index=False)["dist"].min()
        cand["bucket"] = hash_buckets(
            cand["id"].to_numpy(dtype=object), num_buckets
        )
        return cand[["bucket", "id", "dist"]]

    def update_group(df: pd.DataFrame) -> pd.DataFrame:
        old = df[df["kind"] == 0]
        new = df[df["kind"] == 1]
        omap = pd.Series(
            old["dist"].to_numpy(np.int64),
            index=old["id"].to_numpy(dtype=object),
        )
        nmin = new.groupby("id", sort=False, as_index=False)["dist"].min()
        prev = nmin["id"].map(omap)
        improved = prev.isna() | (nmin["dist"] < prev)
        keep_old = old[~old["id"].isin(set(nmin.loc[improved, "id"]))]
        out_new = nmin[improved].copy()
        out_new["chg"] = np.ones(len(out_new), np.int64)
        out_old = pd.DataFrame(
            {
                "id": keep_old["id"].to_numpy(dtype=object),
                "dist": keep_old["dist"].to_numpy(np.int64),
                "chg": np.zeros(len(keep_old), np.int64),
            }
        )
        out = pd.concat([out_new[["id", "dist", "chg"]], out_old])
        out["bucket"] = df["bucket"].iloc[0]
        return out[["bucket", "id", "dist", "chg"]]

    for _ in range(rounds):
        f_tagged = frontier.map_batches(
            lambda t: pa.table(
                {
                    "bucket": t["bucket"],
                    "kind": pa.array([0] * t.num_rows, pa.int64()),
                    "a": t["id"],
                    "b": pa.array([None] * t.num_rows, pa.string()),
                    "w": t["dist"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        candidates = (
            f_tagged.union(arcs)
            .groupby("bucket")
            .map_groups(relax_group, batch_format="pandas")
        )
        cand_tagged = candidates.map_batches(
            lambda t: pa.table(
                {
                    "bucket": t["bucket"],
                    "kind": pa.array([1] * t.num_rows, pa.int64()),
                    "id": t["id"],
                    "dist": t["dist"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        state_tagged = state.map_batches(
            lambda t: pa.table(
                {
                    "bucket": t["bucket"],
                    "kind": pa.array([0] * t.num_rows, pa.int64()),
                    "id": t["id"],
                    "dist": t["dist"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        new_state = anchor(
            cand_tagged.union(state_tagged)
            .groupby("bucket")
            .map_groups(update_group, batch_format="pandas")
            .map_batches(_bundle, batch_size=65536, batch_format="pyarrow")
        )
        changed = new_state.sum("chg") or 0
        frontier = anchor(
            new_state.map_batches(
                lambda t: t.filter(pc.equal(t["chg"], 1)).drop_columns(
                    ["chg"]
                ),
                batch_format="pyarrow",
            )
        )
        state = anchor(
            new_state.map_batches(
                lambda t: t.drop_columns(["chg"]), batch_format="pyarrow"
            )
        )
        if changed == 0:
            break

    return state.map_batches(
        lambda t: pa.table(
            {"entity_id": t["id"], "dist": t["dist"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )


def sssp(
    edges: Dataset,
    rounds: int = 10,
    *,
    small_max: int = SMALL_GRAPH_EDGES_MAX,
    max_nodes: int = PAGERANK_MAX_NODES,
    num_buckets: int | None = None,
    force_sharded: bool = False,
) -> pa.Table | Dataset:
    """Weighted single-source shortest paths over the undirected canonical
    edge graph (edge length = the edge's weight; parallel pred rows relax
    independently, which equals taking their min): (entity_id, dist) for
    every node whose min-weight path from the lexicographically smallest
    entity uses at most ``rounds`` edges — synchronous Bellman-Ford with a
    fixed round budget, the weighted counterpart of ``bfs_levels``.

    Size-adaptive, three regimes (the ``pagerank`` convention):
    driver-local under SMALL_GRAPH_EDGES_MAX; frontier-broadcast streaming
    under ``max_nodes`` driver-state nodes (per round: the frontier map is
    ONE ``ray.put``, a streamed pass over the arcs emits pre-minned
    candidate rows, a group-min tree combine returns the improvements);
    past ``max_nodes`` the state hands over to the join-per-round shuffle
    (``_sssp_sharded``). Oracle: ``kg_oracle.kg_sssp_sql`` (unrolled
    min-plus CTEs, same round budget)."""
    import ray.data as rd

    from ..runtime.combine import group_agg_merge, tree_combine

    empty = pa.table(
        {
            "entity_id": pa.array([], pa.string()),
            "dist": pa.array([], pa.int64()),
        }
    )
    if force_sharded:
        slim = edges.select_columns(
            ["src_id", "dst_id", "weight"]
        ).materialize()
        return _sssp_sharded(
            slim, rounds, num_buckets=num_buckets or PR_NUM_BUCKETS
        )
    tab = _try_collect_edges(
        edges, ["src_id", "dst_id", "weight"], row_cap=small_max
    )
    if tab is not None:
        return rd.from_arrow(_sssp_local(tab, rounds))

    slim = edges.select_columns(["src_id", "dst_id", "weight"]).materialize()
    seed = _sssp_seed(slim)
    if seed is None:
        return rd.from_arrow(empty)
    dist: dict[str, int] = {seed: 0}
    frontier: dict[str, int] = {seed: 0}
    mmerge = group_agg_merge(("id",), mins=("dist",))

    for done in range(rounds):
        if len(dist) > max_nodes:
            # driver state outgrew the broadcast regime: hand the
            # accumulated map to the sharded formulation for the REMAINING
            # rounds (the map encodes `done` rounds of relaxation, so the
            # total round budget — and the ≤rounds-edges semantics — is
            # preserved exactly)
            return _sssp_sharded(
                slim,
                rounds - done,
                num_buckets=num_buckets or PR_NUM_BUCKETS,
                dist0=dist,
            )
        fref = ray.put(pd.Series(frontier))

        def relax(t: pa.Table, fref=fref) -> pa.Table:
            f = ray.get(fref) if isinstance(fref, ray.ObjectRef) else fref
            s = t["src_id"].to_pylist()
            d = t["dst_id"].to_pylist()
            w = t["weight"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            a = pd.Series(s + d, dtype=object)
            b = np.asarray(d + s, dtype=object)
            ww = np.concatenate([w, w])
            base = a.map(f)
            hit = base.notna().to_numpy() & (a.to_numpy(dtype=object) != b)
            cand = pd.DataFrame(
                {
                    "id": b[hit],
                    "dist": base.to_numpy()[hit].astype(np.int64) + ww[hit],
                }
            )
            cand = cand.groupby("id", sort=False, as_index=False)[
                "dist"
            ].min()
            return pa.table(
                {
                    "id": pa.array(cand["id"].tolist(), pa.string()),
                    "dist": pa.array(
                        cand["dist"].to_numpy(np.int64), pa.int64()
                    ),
                }
            )

        ctab = pa.concat_tables(
            [
                pa.table(
                    {
                        "id": pa.array([], pa.string()),
                        "dist": pa.array([], pa.int64()),
                    }
                )
            ]
            + list(
                tree_combine(
                    slim.map_batches(relax, batch_format="pyarrow"), mmerge
                ).iter_batches(batch_size=None, batch_format="pyarrow")
            ),
            promote_options="default",
        )
        nxt: dict[str, int] = {}
        for i, dv in zip(ctab["id"].to_pylist(), ctab["dist"].to_pylist()):
            if dv < dist.get(i, dv + 1):
                nxt[i] = dv
        if not nxt:
            break
        dist.update(nxt)
        frontier = nxt

    ids = sorted(dist)
    return rd.from_arrow(
        pa.table(
            {
                "entity_id": pa.array(ids, pa.string()),
                "dist": pa.array([dist[i] for i in ids], pa.int64()),
            }
        )
    )


# ----------------------------------------------------- rich-club profile

RICHCLUB_KS = (1, 2, 4, 8)


def richclub(
    edges: Dataset,
    ks: tuple[int, ...] = RICHCLUB_KS,
    *,
    max_nodes: int = PAGERANK_MAX_NODES,
) -> pa.Table:
    """RICH-CLUB coefficient profile (do the hubs preferentially connect
    to each other?): for each degree threshold k, φ(k) = 2·E_k /
    (N_k·(N_k−1)) over the simple undirected graph, where N_k = nodes of
    degree > k and E_k = edges with both endpoints above the threshold.

    Scale shape: the distinct-pair dedup is ONE edge-bounded groupby; the
    degree census is vocabulary-sized and broadcasts once (loud cap at
    ``max_nodes`` — past it, attach degrees through the adamic-adar
    ``_attach_deg`` cogroup instead of broadcasting); one streamed pair
    pass carries len(ks) counters per batch. NULL φ when N_k < 2."""
    import pyarrow.compute as pc

    from ..runtime.combine import group_sum_merge, tree_combine

    schema = pa.schema(
        [
            ("k", pa.int64()),
            ("n_nodes", pa.int64()),
            ("n_edges", pa.int64()),
            ("phi", pa.float64()),
        ]
    )

    def pair_rows(t: pa.Table) -> pa.Table:
        keep = pc.invert(pc.equal(t["src_id"], t["dst_id"]))
        t = t.filter(keep)
        x = pc.min_element_wise(t["src_id"], t["dst_id"])
        y = pc.max_element_wise(t["src_id"], t["dst_id"])
        df = (
            pd.DataFrame(
                {"x": x.to_pylist(), "y": y.to_pylist()}
            )
            .drop_duplicates()
        )
        return pa.table(
            {
                "x": pa.array(df["x"].tolist(), pa.string()),
                "y": pa.array(df["y"].tolist(), pa.string()),
            }
        )

    from ray.data.aggregate import Count

    und = (
        edges.select_columns(["src_id", "dst_id"])
        .map_batches(pair_rows, batch_format="pyarrow")
        .groupby(["x", "y"])
        .aggregate(Count(alias_name="_c"))
        .materialize()
    )

    dmerge = group_sum_merge(("id",), ("d",))

    def deg_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "x" not in t.schema.names:
            return pa.table(
                {"id": pa.array([], pa.string()), "d": pa.array([], pa.int64())}
            )
        ids = pa.concat_arrays(
            [t["x"].combine_chunks(), t["y"].combine_chunks()]
        )
        return dmerge(
            pa.table(
                {"id": ids, "d": pa.array([1] * len(ids), pa.int64())}
            )
        )

    deg = pa.concat_tables(
        [pa.table({"id": pa.array([], pa.string()), "d": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                und.map_batches(deg_rows, batch_format="pyarrow"), dmerge
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if deg.num_rows == 0:
        return schema.empty_table()
    if deg.num_rows > max_nodes:
        raise ValueError(
            f"richclub degree map has {deg.num_rows} nodes "
            f"(> max_nodes={max_nodes}); attach degrees via the "
            "adamic-adar _attach_deg cogroup instead of broadcasting"
        )
    dmap = dict(
        zip(deg["id"].to_pylist(), deg["d"].to_numpy(zero_copy_only=False))
    )
    dref = ray.put(pd.Series(dmap))
    degs = np.asarray(list(dmap.values()), np.int64)

    def counters(t: pa.Table, dref=dref, ks=ks) -> pa.Table:
        if t.num_rows == 0 or "x" not in t.schema.names:
            return t if "k" in t.schema.names else pa.table(
                {"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())}
            )
        dm = ray.get(dref) if isinstance(dref, ray.ObjectRef) else dref
        dx = pd.Series(t["x"].to_pylist()).map(dm).to_numpy(np.int64)
        dy = pd.Series(t["y"].to_pylist()).map(dm).to_numpy(np.int64)
        rows_k, rows_m = [], []
        for k in ks:
            rows_k.append(k)
            rows_m.append(int(((dx > k) & (dy > k)).sum()))
        return pa.table(
            {
                "k": pa.array(rows_k, pa.int64()),
                "m": pa.array(rows_m, pa.int64()),
            }
        )

    emerge = group_sum_merge(("k",), ("m",))
    ek = pa.concat_tables(
        [pa.table({"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                und.map_batches(counters, batch_format="pyarrow"), emerge
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    mmap = dict(zip(ek["k"], ek["m"])) if not ek.empty else {}
    out_k, out_n, out_m, out_phi = [], [], [], []
    for k in ks:
        n_k = int((degs > k).sum())
        m_k = int(mmap.get(k, 0))
        phi = (
            None
            if n_k < 2
            else float(2.0 * m_k / (float(n_k) * (n_k - 1)))
        )
        out_k.append(k)
        out_n.append(n_k)
        out_m.append(m_k)
        out_phi.append(phi)
    from ..functions.rounding import round_half_away

    return pa.table(
        {
            "k": pa.array(out_k, pa.int64()),
            "n_nodes": pa.array(out_n, pa.int64()),
            "n_edges": pa.array(out_m, pa.int64()),
            "phi": pa.array(
                [
                    None if p is None else float(round_half_away([p], 4)[0])
                    for p in out_phi
                ],
                pa.float64(),
            ),
        },
        schema=schema,
    )
