"""Driver-contract query implementations (``__ray_entry__.queries()``).

Each function takes ``sf_dir`` (a /root/testdata/sf* directory) and returns a
``ray.data.Dataset`` whose row-set matches the paired DuckDB oracle SQL in
``__ray_entry__.oracle_sql()`` — same column NAMES, same values (floats
rounded identically on both sides). SURVEY.md §2 operator coverage is noted
per function.

Scale discipline (the point of the exercise):
- reads prune columns (``read_parquet(columns=[...])``)
- frequency counts pre-aggregate inside ``map_batches`` before the groupby
  (partial/combiner pattern), so the shuffle moves vocabulary-sized data
- small sides (nation) broadcast; large-large joins use the native hash join
- top-k does per-batch local top-k before the global sort
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..functions.rounding import round_half_away, top_by_score_then_id
from ..functions.tokenize import TOKEN_PATTERN
from ..runtime.combine import (
    group_agg_merge,
    group_sum_merge,
    topk_merge,
    tree_combine,
)
from ..runtime.timeutil import tbucket_of as _tbucket_of
from ..sources.parquet import read_parquet_clean

_TOKEN_RE = re.compile(TOKEN_PATTERN)
_PUNCT_RE = re.compile(r"[^A-Za-z0-9_\s]")
_WORD_RE = re.compile(r"[a-z0-9_]+")

STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "for", "on", "with")


def _round_cols(t: pa.Table, cols: tuple[str, ...], digits: int = 4) -> pa.Table:
    """Replace float columns with their half-away-rounded values."""
    for col in cols:
        idx = t.schema.get_field_index(col)
        t = t.set_column(
            idx,
            col,
            pa.array(round_half_away(t[col].to_numpy(zero_copy_only=False), digits)),
        )
    return t


def _p(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


# -------------------------------------------------------------------- A1/O1
def token_freq_top100(sf_dir: str) -> Dataset:
    """Token frequency census, top 100 (SURVEY.md A1 vocab-fit + O6 top-k).

    Partial counts per batch (combiner) → vocabulary-sized shuffle → total
    order (count desc, token asc) → limit.
    """
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch["text"].to_pylist():
            if text:
                c.update(_TOKEN_RE.findall(text))
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    counts = (
        docs.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
    )
    return counts.sort(["n", "token"], descending=[True, False]).limit(100)


MG_CAPACITY = 4096


def _mg_merge(t: pa.Table, capacity: int = MG_CAPACITY) -> pa.Table:
    """Associative Misra-Gries summary merge (mergeable-summaries trim):
    null-token rows carry the accumulated deficit D — the provable max
    per-item undercount. Sum counters by token; past MG_CAPACITY distinct
    tokens subtract the (C+1)-th largest count d from every counter and
    drop the non-positive ones (at most C stay strictly positive), adding
    d to D. Any token absent from the merged summary has true count ≤ D."""
    if t.num_rows == 0:
        return t
    isnull = pc.is_null(t["token"])
    D = pc.sum(pc.filter(t["n"], isnull)).as_py() or 0
    g = (
        t.filter(pc.invert(isnull))
        .group_by("token")
        .aggregate([("n", "sum")])
        .rename_columns(["token", "n"])
    )
    if g.num_rows > capacity:
        n = g["n"].to_numpy()
        d = int(np.partition(n, -(capacity + 1))[-(capacity + 1)])
        keep = n - d
        mask = keep > 0
        g = pa.table(
            {
                "token": pc.filter(g["token"], pa.array(mask)),
                "n": pa.array(keep[mask], pa.int64()),
            }
        )
        D += d
    return pa.concat_tables(
        [
            g,
            pa.table(
                {
                    "token": pa.array([None], pa.string()),
                    "n": pa.array([int(D)], pa.int64()),
                }
            ),
        ]
    )


def token_freq_top100_mg(sf_dir: str, capacity: int = MG_CAPACITY) -> Dataset:
    """Sketch-route token top-100 (Misra-Gries + exact verify — the
    heavy-hitter member of the sketch family next to HLL and the Bloom
    anti-join): per-batch counts trimmed to MG summaries of capacity
    C=4096, tree-merged associatively, then an EXACT verify census
    restricted to the ≤C merged candidates (broadcast set, map-side
    filtered counts, candidate-sized groupby).

    Scale shape: the sketch shuffle carries ≤C+1 fixed-width rows per
    block REGARDLESS of token-vocabulary size (the exact census's shuffle
    is vocabulary-sized); the verify pass re-reads the corpus once (the
    Bloom-anti-join convention). Exactness: a token absent from the
    merged summary has true count ≤ deficit D, so when the verified
    100th-largest count exceeds D the result provably equals the exact
    census — checked, raising loudly (raise MG_CAPACITY) instead of
    returning silently-approximate rows."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])

    def mg_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch["text"].to_pylist():
            if text:
                c.update(_TOKEN_RE.findall(text))
        return _mg_merge(
            pa.table(
                {
                    "token": pa.array(list(c.keys()), pa.string()),
                    "n": pa.array(list(c.values()), pa.int64()),
                }
            ),
            capacity,
        )

    empty = pa.schema([("token", pa.string()), ("n", pa.int64())]).empty_table()
    summary = pa.concat_tables(
        [empty]  # empty input yields ZERO batches; concat needs >=1 table
        + list(
            tree_combine(
                docs.map_batches(mg_partial, batch_format="pyarrow"),
                lambda t, capacity=capacity: _mg_merge(t, capacity),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if summary.num_rows == 0:
        return rd.from_arrow(empty)
    isnull = pc.is_null(summary["token"])
    deficit = int(pc.sum(pc.filter(summary["n"], isnull)).as_py() or 0)
    cand = frozenset(summary.filter(pc.invert(isnull))["token"].to_pylist())
    if not cand:
        if deficit > 0:
            # a near-uniform stream trimmed every counter away — nothing
            # is provable; approximate output is never returned silently
            raise ValueError(
                f"MG summary empty with deficit {deficit}; raise "
                f"MG_CAPACITY={capacity}"
            )
        return rd.from_arrow(empty)
    cand_ref = ray.put(cand)

    def verify_counts(batch: pa.Table, cand_ref=cand_ref) -> pa.Table:
        A = ray.get(cand_ref) if isinstance(cand_ref, ray.ObjectRef) else cand_ref
        c: Counter = Counter()
        for text in batch["text"].to_pylist():
            if text:
                c.update(tok for tok in _TOKEN_RE.findall(text) if tok in A)
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    exact = pa.concat_tables(
        [empty]
        + list(
            tree_combine(
                docs.map_batches(verify_counts, batch_format="pyarrow"),
                group_sum_merge(("token",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    df = exact.to_pandas().sort_values(
        ["n", "token"], ascending=[False, True], kind="mergesort"
    )
    top = df.head(100)
    # completeness proof: every non-candidate's true count ≤ deficit; a
    # 100th verified count strictly above it rules out all of them. When
    # the corpus vocabulary never exceeded C, deficit == 0 and the
    # candidate set IS the vocabulary (unconditionally exact).
    if deficit > 0 and (
        len(top) < 100 or int(top["n"].iloc[-1]) <= deficit
    ):
        raise ValueError(
            f"MG top-100 not provably exact: 100th count "
            f"{int(top['n'].iloc[-1]) if len(top) else 0} <= deficit "
            f"{deficit}; raise MG_CAPACITY={capacity}"
        )
    return rd.from_arrow(
        pa.Table.from_pandas(top.reset_index(drop=True), preserve_index=False)
    )


# ----------------------------------------------------------------- text ops
def doc_token_counts(sf_dir: str) -> Dataset:
    """Per-document token count (training-data token counting; reuses the
    shared counting kernel so the tokenization rule lives in one place)."""
    from ..functions.tokenize import token_count_batch

    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return docs.map_batches(
        token_count_batch, batch_format="pyarrow"
    ).select_columns(["doc_id", "n_tokens"])


def doc_fingerprints(sf_dir: str) -> Dataset:
    """Per-document content fingerprint (md5 — matches DuckDB md5())."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        fps = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table({"doc_id": batch["doc_id"], "fp": pa.array(fps, pa.string())})

    return docs.map_batches(fp, batch_format="pyarrow")


def doc_quality(sf_dir: str) -> Dataset:
    """Quality-scoring signals: length, punctuation ratio, stopword ratio."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        n_chars, punct_ratio, stop_ratio = [], [], []
        for t in batch["text"].to_pylist():
            t = t or ""
            n_chars.append(len(t))
            toks = _TOKEN_RE.findall(t)
            puncts = _PUNCT_RE.findall(t)
            words = _WORD_RE.findall(t.lower())
            punct_ratio.append(
                float(round_half_away(len(puncts) / len(toks))) if toks else 0.0
            )
            stop_ratio.append(
                float(round_half_away(sum(w in STOPWORDS for w in words) / len(words)))
                if words
                else 0.0
            )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pa.array(n_chars, pa.int64()),
                "punct_ratio": pa.array(punct_ratio, pa.float64()),
                "stop_ratio": pa.array(stop_ratio, pa.float64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


# -------------------------------------------------------------- dedup (O5)
def dedup_exact(sf_dir: str) -> Dataset:
    """Exact dedup: one survivor (min doc_id) per distinct text + dup count.

    Content-hash column computed map-side; the groupby key is the hash so
    the shuffle never moves full documents (SURVEY.md O5 at document scale).
    """
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def hashed(batch: pa.Table) -> pa.Table:
        h = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table({"doc_id": batch["doc_id"], "h": pa.array(h, pa.string())})

    return (
        docs.map_batches(hashed, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Min("doc_id", alias_name="doc_id"), Count(alias_name="n_dups"))
        .select_columns(["doc_id", "n_dups"])
    )


# ----------------------------------------------------------- events (A1/O4)
def events_hourly(sf_dir: str) -> Dataset:
    """Tumbling 1-hour window per user: count + sum(value) (windowed agg)."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "ts", "value"])

    def trunc(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "hour": pc.floor_temporal(batch["ts"], unit="hour"),
                "value": batch["value"],
            }
        )

    out = (
        ev.map_batches(trunc, batch_format="pyarrow")
        .groupby(["user_id", "hour"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
    )
    return out.map_batches(
        lambda t: _round_cols(t, ("sum_value",)), batch_format="pyarrow"
    )


def events_top_types(sf_dir: str) -> Dataset:
    """Heavy-hitter census (O6): top event types by count."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        c = Counter(batch["event_type"].to_pylist())
        return pa.table(
            {
                "event_type": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    from ..runtime.combine import topk_merge

    counts = tree_combine(
        ev.map_batches(partial, batch_format="pyarrow"),
        group_sum_merge(("event_type",), ("n",)),
    )
    # the combined census is one #event-types block; cut top-10 in place
    return counts.map_batches(
        topk_merge(10, "n", ["event_type"]), batch_size=None, batch_format="pyarrow"
    )


def events_recent100(sf_dir: str) -> Dataset:
    """Sort + limit (O4-style ordering guarantee): 100 most recent events."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["event_id", "ts"])
    return ev.sort(["ts", "event_id"], descending=[True, True]).limit(100)


def events_user_count(sf_dir: str) -> Dataset:
    """Distinct count (O3 dedup semantics)."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id"])
    n = len(ev.unique("user_id") or [])  # unique() is None on empty input
    return rd.from_arrow(pa.table({"n_users": pa.array([n], pa.int64())}))


# ----------------------------------------------------- relational coverage
def lineitem_pricing(sf_dir: str) -> Dataset:
    """TPC-H Q1-shaped aggregate (engine aggregation coverage). The key
    domain is enumerable (flag × status ≤ 6 groups), so the map-side
    partial group-sums each batch and a ``tree_combine`` merges the typed
    partials — the shuffle Ray's sort-aggregate would run moves nothing
    but #groups × #blocks fixed-width rows here, and no schema-less empty
    sort partitions are emitted (runtime.combine)."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )
    merge = group_sum_merge(
        ("l_returnflag", "l_linestatus"),
        ("sum_qty", "sum_revenue", "sum_disc", "n_rows"),
    )

    def partial(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        return merge(
            pa.table(
                {
                    "l_returnflag": batch["l_returnflag"],
                    "l_linestatus": batch["l_linestatus"],
                    "sum_qty": batch["l_quantity"],
                    "sum_revenue": rev,
                    "sum_disc": batch["l_discount"],
                    "n_rows": pa.array(
                        np.ones(batch.num_rows, dtype=np.int64), pa.int64()
                    ),
                }
            )
        )

    out = tree_combine(li.map_batches(partial, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        avg = pc.divide(t["sum_disc"], pc.cast(t["n_rows"], pa.float64()))
        t = t.drop_columns(["sum_disc"]).append_column("avg_disc", avg)
        return _round_cols(t, ("sum_qty", "sum_revenue", "avg_disc"))

    return out.map_batches(finish, batch_format="pyarrow")


def orders_by_nation(sf_dir: str) -> Dataset:
    """Join coverage: orders ⋈ customer (native hash join, both sides large)
    then nation broadcast-joined map-side (small side never shuffled)."""
    # metadata-only emptiness guard: Ray 2.49's hash join raises inside
    # HashShuffleAggregator.finalize on zero-row partitions (NOTES.md)
    if (
        pq.read_metadata(_p(sf_dir, "orders")).num_rows == 0
        or pq.read_metadata(_p(sf_dir, "customer")).num_rows == 0
    ):
        return rd.from_arrow(
            pa.table(
                {"nation": pa.array([], pa.string()),
                 "n_orders": pa.array([], pa.int64())}
            )
        )
    orders = read_parquet_clean(_p(sf_dir, "orders"), columns=["o_custkey"])
    cust = read_parquet_clean(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    )
    from ..runtime.partitions import join_partitions

    joined = orders.join(
        cust,
        join_type="inner",
        num_partitions=join_partitions(8),
        on=("o_custkey",),
        right_on=("c_custkey",),
    )
    nation = {
        int(k): v
        for k, v in zip(
            *[
                c.to_pylist()
                for c in pq.read_table(
                    _p(sf_dir, "nation"), columns=["n_nationkey", "n_name"]
                ).columns
            ]
        )
    }
    nation_ref = ray.put(nation)

    class AddNation:
        def __init__(self, ref):
            self.nation = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            names = [self.nation[int(k)] for k in batch["c_nationkey"].to_pylist()]
            return pa.table({"nation": pa.array(names, pa.string())})

    return (
        joined.map_batches(
            AddNation,
            fn_constructor_args=(nation_ref,),
            batch_format="pyarrow",
            concurrency=(1, 4),
        )
        .groupby("nation")
        .aggregate(Count(alias_name="n_orders"))
    )


# ------------------------------------------------- similarity search (ANN)
def similarity_topk(sf_dir: str, k: int = 10, query_vec_id: int = 0) -> Dataset:
    """Brute-force cosine top-k vs a broadcast query vector.

    Baseline ANN path: numpy matmul per batch against the broadcast query,
    per-batch local top-k, then a tiny global sort+limit — the full score
    set never shuffles.
    """
    # pushed-filter point lookup: only row groups containing the query id
    # are read — never the whole table on the driver
    qtab = pq.read_table(
        _p(sf_dir, "embeddings"),
        columns=["embedding"],
        filters=[("vec_id", "==", query_vec_id)],
    )
    if qtab.num_rows == 0:  # query vector absent (e.g. empty table)
        return rd.from_arrow(
            pa.table(
                {"vec_id": pa.array([], pa.int64()),
                 "cos": pa.array([], pa.float64())}
            )
        )
    q = np.asarray(qtab["embedding"].to_pylist()[0], dtype=np.float64)
    qn = q / np.linalg.norm(q)
    q_ref = ray.put(qn)

    emb = read_parquet_clean(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])

    class Score:
        def __init__(self, ref):
            self.q = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
            mat = np.asarray(batch["embedding"].to_pylist(), dtype=np.float64)
            norms = np.linalg.norm(mat, axis=1)
            norms[norms == 0] = 1.0
            # round half-away BEFORE the local top-k, and cut by the exact
            # oracle ordering (cos DESC, vec_id ASC) so rounded-score tie
            # groups at the boundary keep the rows the oracle keeps
            cos = round_half_away((mat @ self.q) / norms)
            keep = ids != query_vec_id
            ids, cos = ids[keep], cos[keep]
            part = top_by_score_then_id(cos, ids, k)
            ids, cos = ids[part], cos[part]
            return pa.table(
                {
                    "vec_id": pa.array(ids, pa.int64()),
                    "cos": pa.array(cos, pa.float64()),
                }
            )

    scored = emb.map_batches(
        Score, fn_constructor_args=(q_ref,), batch_format="pyarrow",
        concurrency=(1, 4),
    )
    return scored.sort(["cos", "vec_id"], descending=[True, False]).limit(k)


# ------------------------------------------------ text analysis / dedup suite
def doc_langid(sf_dir: str) -> Dataset:
    """Language-ID (n-gram heuristic) per document — rows-only check (not
    SQL-expressible)."""
    from ..functions.langid import langid_batch

    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return docs.map_batches(langid_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "lang_pred"]
    )


def doc_simhash(sf_dir: str) -> Dataset:
    """64-bit SimHash fingerprints — deterministic, rows-only."""
    from ..stages.dedup import simhash_fingerprints

    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return simhash_fingerprints(docs)


def doc_minhash_dedup(sf_dir: str) -> Dataset:
    """MinHash-LSH near-dup clusters — rows-only."""
    from ..stages.dedup import minhash_lsh_dedup

    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return minhash_lsh_dedup(docs)


def embedding_near_dup(sf_dir: str) -> Dataset:
    """Embedding-cosine near-dup clusters — rows-only."""
    from ..stages.dedup import embedding_cosine_dedup

    emb = read_parquet_clean(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    return embedding_cosine_dedup(emb, threshold=0.98)


def similarity_topk_lsh(sf_dir: str, k: int = 10, query_vec_id: int = 0) -> Dataset:
    """LSH-bucketed ANN variant of similarity_topk — rows-only (approximate)."""
    from ..stages.similarity import ann_search_lsh, build_lsh_index

    qtab = pq.read_table(
        _p(sf_dir, "embeddings"),
        columns=["embedding"],
        filters=[("vec_id", "==", query_vec_id)],
    )
    if qtab.num_rows == 0:  # query vector absent (e.g. empty table)
        return rd.from_arrow(
            pa.table(
                {"vec_id": pa.array([], pa.int64()),
                 "cos": pa.array([], pa.float64())}
            )
        )
    qvec = np.asarray(qtab["embedding"].to_pylist()[0], dtype=np.float64)
    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    ).map_batches(
        # exclude the query vector BEFORE the search: sort().limit() inside
        # the search stay adjacent in one plan, so top-k order is exact
        # (a map between sort and limit is not order-preserving by default)
        lambda t: t.filter(pc.not_equal(t["vec_id"], query_vec_id)),
        batch_format="pyarrow",
    )
    indexed = build_lsh_index(emb)
    return ann_search_lsh(indexed, qvec, k=k)


def events_first_per_user_type(sf_dir: str) -> Dataset:
    """First event timestamp per (user, type) — dedup-keep-first semantics."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "event_type", "ts"])
    return ev.groupby(["user_id", "event_type"]).aggregate(
        Min("ts", alias_name="first_ts")
    )


# --------------------------------------------------- relational coverage II
def events_sessions(sf_dir: str) -> Dataset:
    """Sessionization (30-min gap) — stateful windowed op per user."""
    from ..stages.sessions import sessionize

    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "ts"])
    return sessionize(ev, gap_minutes=30.0)


def customers_with_orders_by_nation(sf_dir: str) -> Dataset:
    """Semi-join: customers having >=1 order, counted per nation key.

    The order-customer key set is broadcast as a frozenset (ray_guide:
    semi/anti join = broadcast the key set, filter inside map_batches)."""
    custkeys = frozenset(
        pq.read_table(_p(sf_dir, "orders"), columns=["o_custkey"])
        .column("o_custkey")
        .to_pylist()
    )
    keys_ref = ray.put(custkeys)
    cust = read_parquet_clean(_p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"])

    merge = group_sum_merge(("c_nationkey",), ("n_customers",))

    class Semi:
        def __init__(self, ref):
            self.ks = ray.get(ref)  # deserialize ONCE per actor, not per batch

        def __call__(self, batch: pa.Table) -> pa.Table:
            keep = [k in self.ks for k in batch["c_custkey"].to_pylist()]
            kept = batch.filter(pa.array(keep, pa.bool_()))
            # partial per-nation count in place: the combine moves
            # #nations × #blocks rows (enumerable key, runtime.combine)
            return merge(
                pa.table(
                    {
                        "c_nationkey": kept["c_nationkey"],
                        "n_customers": pa.array(
                            np.ones(kept.num_rows, dtype=np.int64), pa.int64()
                        ),
                    }
                )
            )

    return tree_combine(
        cust.map_batches(
            Semi,
            fn_constructor_args=(keys_ref,),
            batch_format="pyarrow",
            concurrency=(1, 4),
        ),
        merge,
    )


def customers_without_orders(sf_dir: str) -> Dataset:
    """Anti-join: count of customers with no orders (broadcast key-set
    filter + partial counts; a count result stays schema-stable even when
    the anti-join is empty)."""
    custkeys = frozenset(
        pq.read_table(_p(sf_dir, "orders"), columns=["o_custkey"])
        .column("o_custkey")
        .to_pylist()
    )
    keys_ref = ray.put(custkeys)
    cust = read_parquet_clean(_p(sf_dir, "customer"), columns=["c_custkey"])

    class AntiCount:
        def __init__(self, ref):
            self.ks = ray.get(ref)  # deserialize ONCE per actor

        def __call__(self, batch: pa.Table) -> pa.Table:
            n = sum(k not in self.ks for k in batch["c_custkey"].to_pylist())
            return pa.table({"n": pa.array([n], pa.int64())})

    total = 0
    for b in cust.map_batches(
        AntiCount,
        fn_constructor_args=(keys_ref,),
        batch_format="pyarrow",
        concurrency=(1, 4),
    ).iter_batches(batch_format="pyarrow"):
        total += sum(b["n"].to_pylist())
    return rd.from_arrow(
        pa.table({"n_without_orders": pa.array([total], pa.int64())})
    )


def orders_rollup(sf_dir: str) -> Dataset:
    """Multi-level ROLLUP aggregate — (priority, status), (priority), ()
    subtotals in ONE pass: every batch emits partial group-sums for all
    three levels (rolled-up key columns as NULL, TPC-H columns are
    NULL-free so the sentinel is unambiguous), and a single associative
    tree combine merges them — no per-level shuffle, no GROUPING SETS
    re-scan. The key domain is enumerable (5 priorities × 3 statuses + 5
    + 1 rows), exactly tree_combine's contract."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"),
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )
    merge = group_sum_merge(
        ("o_orderpriority", "o_orderstatus"), ("n_orders", "sum_price")
    )

    def levels(batch: pa.Table) -> pa.Table:
        pr = batch["o_orderpriority"]
        st = batch["o_orderstatus"]
        tp = batch["o_totalprice"].cast(pa.float64())
        n = batch.num_rows
        null_s = pa.array([None] * n, pa.string())
        parts = []
        for p_col, s_col in ((pr, st), (pr, null_s), (null_s, null_s)):
            parts.append(
                pa.table(
                    {
                        "o_orderpriority": p_col,
                        "o_orderstatus": s_col,
                        "n_orders": pa.array([1] * n, pa.int64()),
                        "sum_price": tp,
                    }
                )
            )
        return merge(pa.concat_tables(parts))

    out = tree_combine(orders.map_batches(levels, batch_format="pyarrow"), merge)
    return out.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("sum_price"),
            "sum_price",
            pa.array(
                round_half_away(
                    t["sum_price"].to_numpy(zero_copy_only=False)
                ),
                pa.float64(),
            ),
        ),
        batch_format="pyarrow",
    )


def _funnel_stage_scan(df: pd.DataFrame) -> int:
    """Furthest strict-order view→click→purchase stage within one event
    frame (the single-shuffle per-user reduction)."""
    stage = 0
    t = df.loc[df["event_type"] == "view", "ts"].min()
    if pd.notna(t):
        stage = 1
        t = df.loc[(df["event_type"] == "click") & (df["ts"] > t), "ts"].min()
        if pd.notna(t):
            stage = 2
            t = df.loc[
                (df["event_type"] == "purchase") & (df["ts"] > t), "ts"
            ].min()
            if pd.notna(t):
                stage = 3
    return stage


def events_funnel(
    sf_dir: str, time_bucket_hours: float | None = None
) -> Dataset:
    """Ordered-sequence funnel (view → click → purchase): per user, the
    furthest stage reachable in strict timestamp order (each stage's
    earliest qualifying event must be strictly later than the previous
    stage's), histogrammed as (stage, n_users), stage 0 = user never
    viewed. Default: ONE user-key groupby shuffle (the sessionize class),
    per-group vectorized pandas reduction, then a 4-row tree combine — no
    joins.

    ``time_bucket_hours`` enables the two-level skew path (same design as
    sessionize / the as-of join): level 1 groups by (user, time bucket)
    and reduces each bucket to SIX fixed-width summary stats — min view
    ``v``, min click ``c_all``, min purchase ``p_all``, min click after
    the bucket's own view ``c_after_v``, min purchase after ``c_all``
    ``p_after_c``, and min purchase after ``c_after_v`` ``p_after_cv`` —
    because a stage time carried from an EARLIER bucket qualifies every
    later-bucket event, so only same-bucket transitions need
    within-bucket ordering. Level 2 scans each user's ordered bucket
    summaries (bounded: #buckets rows per user, not #events).
    Equivalence-tested against the single-pass path with a planted hot
    user."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type", "ts"]
    )

    def stage_of(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"stage": [_funnel_stage_scan(df)], "n_users": [1]}
        )

    if time_bucket_hours is None:
        per_user = ev.groupby("user_id").map_groups(
            stage_of, batch_format="pandas"
        )
    else:
        bucket_us = int(time_bucket_hours * 3_600_000_000)

        def add_tbucket(t: pa.Table) -> pa.Table:
            return t.append_column(
                "tbucket",
                pc.divide(
                    t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
                    pa.scalar(bucket_us, pa.int64()),
                ),
            )

        def bucket_summary(df: pd.DataFrame) -> pd.DataFrame:
            vv = df.loc[df["event_type"] == "view", "ts"].min()
            cl = df.loc[df["event_type"] == "click", "ts"]
            pu = df.loc[df["event_type"] == "purchase", "ts"]
            c_all = cl.min()
            p_all = pu.min()
            c_after_v = cl[cl > vv].min() if pd.notna(vv) else pd.NaT
            p_after_c = pu[pu > c_all].min() if pd.notna(c_all) else pd.NaT
            p_after_cv = (
                pu[pu > c_after_v].min() if pd.notna(c_after_v) else pd.NaT
            )
            # explicit [us] series: an all-NaT list would infer
            # datetime64[ns] and clash with the [us] unit of non-empty
            # groups at block-concat time (NOTES.md timestamp-unit trap)
            ts_col = lambda x: pd.Series([x], dtype="datetime64[us]")  # noqa: E731
            return pd.DataFrame(
                {
                    "user_id": [df["user_id"].iloc[0]],
                    "tbucket": [df["tbucket"].iloc[0]],
                    "v": ts_col(vv),
                    "c_all": ts_col(c_all),
                    "p_all": ts_col(p_all),
                    "c_after_v": ts_col(c_after_v),
                    "p_after_c": ts_col(p_after_c),
                    "p_after_cv": ts_col(p_after_cv),
                }
            )

        def user_scan(df: pd.DataFrame) -> pd.DataFrame:
            stage, t = 0, pd.NaT
            for r in df.sort_values("tbucket").itertuples(index=False):
                # cascade within this bucket from the carried (stage, t);
                # t from an earlier bucket qualifies every event here
                if stage == 0 and pd.notna(r.v):
                    stage, t = 1, r.v
                    if pd.notna(r.c_after_v):
                        stage, t = 2, r.c_after_v
                        if pd.notna(r.p_after_cv):
                            stage, t = 3, r.p_after_cv
                elif stage == 1:
                    # t (the view) is from an EARLIER bucket, so every
                    # click here is strictly later; the same-bucket
                    # purchase must beat the chosen click — that's exactly
                    # p_after_c (min purchase > c_all), NOT p_all
                    if pd.notna(r.c_all):
                        stage, t = 2, r.c_all
                        if pd.notna(r.p_after_c):
                            stage, t = 3, r.p_after_c
                elif stage == 2:
                    p = r.p_all if pd.notna(r.p_all) and r.p_all > t else pd.NaT
                    if pd.notna(p):
                        stage, t = 3, p
                if stage == 3:
                    break
            return pd.DataFrame({"stage": [stage], "n_users": [1]})

        per_user = (
            ev.map_batches(add_tbucket, batch_format="pyarrow")
            .groupby(["user_id", "tbucket"])
            .map_groups(bucket_summary, batch_format="pandas")
            .groupby("user_id")
            .map_groups(user_scan, batch_format="pandas")
        )
    merge = group_sum_merge(("stage",), ("n_users",))
    return tree_combine(
        per_user.map_batches(
            lambda t: merge(
                pa.table(
                    {
                        "stage": t["stage"].cast(pa.int64()),
                        "n_users": t["n_users"].cast(pa.int64()),
                    }
                )
            ),
            batch_format="pyarrow",
        ),
        merge,
    )


def customer_segments(sf_dir: str) -> Dataset:
    """Count + rounded balance sum per market segment — enumerable key
    (≤5 segments), so map-side partial group-sums + tree_combine instead
    of a sort-aggregate shuffle (runtime.combine)."""
    cust = read_parquet_clean(
        _p(sf_dir, "customer"), columns=["c_mktsegment", "c_acctbal"]
    )
    merge = group_sum_merge(("c_mktsegment",), ("n_customers", "sum_balance"))

    def partial(batch: pa.Table) -> pa.Table:
        return merge(
            pa.table(
                {
                    "c_mktsegment": batch["c_mktsegment"],
                    "n_customers": pa.array(
                        np.ones(batch.num_rows, dtype=np.int64), pa.int64()
                    ),
                    "sum_balance": batch["c_acctbal"],
                }
            )
        )

    out = tree_combine(cust.map_batches(partial, batch_format="pyarrow"), merge)
    return out.map_batches(
        lambda t: _round_cols(t, ("sum_balance",)), batch_format="pyarrow"
    )


def docs_by_lang_source(sf_dir: str) -> Dataset:
    """Two-key groupby over documents with a rounded mean."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["lang", "source", "n_chars"]
    )
    out = docs.groupby(["lang", "source"]).aggregate(
        Count(alias_name="n_docs"), Mean("n_chars", alias_name="avg_chars")
    )
    return out.map_batches(
        lambda t: _round_cols(t, ("avg_chars",)), batch_format="pyarrow"
    )


def orders_monthly(sf_dir: str) -> Dataset:
    """Orders per priority per month (temporal truncation + groupby)."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_orderpriority", "o_orderdate"]
    )

    # month key travels as int64 epoch-µs through the Ray aggregate (its
    # sort shuffle rebuilds timestamp keys via numpy, where day-aligned
    # values degrade to datetime64[D] and pyarrow logs a precision warning
    # per map task); cast back to timestamp[us] after the shuffle
    def trunc(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "month": pc.floor_temporal(batch["o_orderdate"], unit="month")
                .cast(pa.timestamp("us"))
                .cast(pa.int64()),
            }
        )

    return (
        orders.map_batches(trunc, batch_format="pyarrow")
        .groupby(["o_orderpriority", "month"])
        .aggregate(Count(alias_name="n_orders"))
        .map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index("month"),
                "month",
                t["month"].cast(pa.timestamp("us")),
            ),
            batch_format="pyarrow",
        )
    )


# ------------------------------------------------------ text analysis II
def doc_subword_counts(sf_dir: str) -> Dataset:
    """BPE-ish token counting: words are split into <=4-char subword chunks
    (a deterministic stand-in for a learned-merge tokenizer; the count is
    sum(ceil(len(word)/4)) over word tokens)."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    word_re = re.compile(r"[A-Za-z0-9_]+")

    def counts(batch: pa.Table) -> pa.Table:
        ns = []
        for t in batch["text"].to_pylist():
            words = word_re.findall(t or "")
            ns.append(sum((len(w) + 3) // 4 for w in words))
        return pa.table(
            {"doc_id": batch["doc_id"], "n_subwords": pa.array(ns, pa.int64())}
        )

    return docs.map_batches(counts, batch_format="pyarrow")


def doc_rolling_fp(sf_dir: str) -> Dataset:
    """Document fingerprint via polynomial rolling hash (Rabin-Karp style,
    base 257 mod 2^61-1) — deterministic, rows-only (not SQL-expressible)."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    MOD = (1 << 61) - 1

    def fp(batch: pa.Table) -> pa.Table:
        out = []
        for t in batch["text"].to_pylist():
            h = 0
            for ch in t or "":
                h = (h * 257 + ord(ch)) % MOD
            out.append(h)
        return pa.table(
            {"doc_id": batch["doc_id"], "rolling_fp": pa.array(out, pa.int64())}
        )

    return docs.map_batches(fp, batch_format="pyarrow")


# IVF index configuration — shared with the oracle builder
# (doc_oracle.similarity_topk_ivf_sql recomputes the same deterministic
# index locally, so the two must agree on these)
IVF_LISTS = 16
IVF_NPROBE = 6
IVF_SAMPLE = 2000


def similarity_topk_ivf(sf_dir: str, k: int = 10, query_vec_id: int = 0) -> Dataset:
    """IVF-flat ANN variant: k-means coarse quantizer (trained on a sample),
    nearest-list probing. Deterministic (fixed seed + prefix sample), so the
    oracle recomputes the probed candidate set locally and DuckDB verifies
    the exact cosine top-k over it (``doc_oracle.similarity_topk_ivf_sql``).

    Scale shape: centroids train on a STREAMED prefix sample
    (``ds.limit(2000)`` reads only the blocks it needs) and the query vector
    is a pushed-filter point lookup — the driver never reads the corpus
    (round-1 advice: the old version ``pq.read_table``-ed the whole table).
    """
    from ..stages.similarity import ann_search_ivf, build_ivf_index, kmeans_centroids

    if pq.read_metadata(_p(sf_dir, "embeddings")).num_rows == 0:
        return rd.from_arrow(
            pa.table(
                {"vec_id": pa.array([], pa.int64()),
                 "cos": pa.array([], pa.float64())}
            )
        )
    emb = read_parquet_clean(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    sample_tab = pa.concat_tables(
        list(emb.limit(IVF_SAMPLE).iter_batches(batch_size=None, batch_format="pyarrow"))
    )
    sample = np.asarray(sample_tab["embedding"].to_pylist(), dtype=np.float64)
    cent = kmeans_centroids(sample, k=IVF_LISTS)
    qtab = pq.read_table(
        _p(sf_dir, "embeddings"),
        columns=["embedding"],
        filters=[("vec_id", "==", query_vec_id)],
    )
    if qtab.num_rows == 0:  # query vector absent (e.g. empty table)
        return rd.from_arrow(
            pa.table(
                {"vec_id": pa.array([], pa.int64()),
                 "cos": pa.array([], pa.float64())}
            )
        )
    qvec = np.asarray(qtab["embedding"].to_pylist()[0], dtype=np.float64)
    filtered = emb.map_batches(
        lambda t: t.filter(pc.not_equal(t["vec_id"], query_vec_id)),
        batch_format="pyarrow",
    )
    indexed = build_ivf_index(filtered, cent)
    return ann_search_ivf(indexed, cent, qvec, k=k, n_probe=IVF_NPROBE)


def events_sliding_hourly(sf_dir: str) -> Dataset:
    """SLIDING-window aggregate (1 h windows advancing 30 min): each event
    lands in exactly two windows. Window assignment is a vectorized
    map-side expansion with per-batch partial aggregation — the shuffle
    moves window-count-sized partials, the 2× row expansion never leaves
    the map task."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["ts", "value"])
    HALF = 30 * 60 * 1_000_000  # 30 min in µs

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        micros = ts.astype("int64")
        vals = batch["value"].to_numpy(zero_copy_only=False)
        slot = micros // HALF * HALF
        # fully vectorized partial: expand to both windows, then
        # unique+bincount for counts and value sums — no per-row loop
        windows = np.concatenate([slot, slot - HALF])
        v2 = np.concatenate([vals, vals])
        uniq, inv = np.unique(windows, return_inverse=True)
        return pa.table(
            {
                "window_start": pa.array(
                    uniq.view("datetime64[us]"), pa.timestamp("us")
                ),
                "n_events": pa.array(np.bincount(inv), pa.int64()),
                "sum_value": pa.array(np.bincount(inv, weights=v2), pa.float64()),
            }
        )

    out = tree_combine(
        ev.map_batches(partial, batch_format="pyarrow"),
        group_sum_merge(("window_start",), ("n_events", "sum_value")),
    )
    return out.map_batches(
        lambda t: _round_cols(t, ("sum_value",)), batch_format="pyarrow"
    )


PRICE_BANDS = (("b0", 0.0, 20000.0), ("b1", 10000.0, 40000.0), ("b2", 30000.0, 100000.0))


def lineitem_price_bands(sf_dir: str) -> Dataset:
    """RANGE (interval) join against a broadcast interval table: bands
    OVERLAP, so a row can match several — a true range join, executed as a
    vectorized per-band mask inside map_batches with per-batch partial
    aggregation (the small side never shuffles; ray_guide broadcast-join
    pattern applied to interval predicates)."""
    li = read_parquet_clean(_p(sf_dir, "lineitem"), columns=["l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        bands, ns, sums = [], [], []
        for name, lo, hi in PRICE_BANDS:
            mask = (price >= lo) & (price < hi)
            bands.append(name)
            ns.append(int(mask.sum()))
            sums.append(float(price[mask].sum()))
        return pa.table(
            {
                "band": pa.array(bands, pa.string()),
                "n_rows": pa.array(ns, pa.int64()),
                "sum_price": pa.array(sums, pa.float64()),
            }
        )

    out = tree_combine(
        li.map_batches(partial, batch_format="pyarrow"),
        group_sum_merge(("band",), ("n_rows", "sum_price")),
    )
    return out.map_batches(
        # drop empty bands: the oracle's inner join emits no row for a band
        # no lineitem falls into
        lambda t: _round_cols(
            t.filter(pc.greater(t["n_rows"], 0)), ("sum_price",)
        ),
        batch_format="pyarrow",
    )


_ASOF_EMPTY = {
    "event_id": pd.Series([], dtype="int64"),
    "user_id": pd.Series([], dtype="int64"),
    "ts": pd.Series([], dtype="datetime64[us]"),
    "last_click_ts": pd.Series([], dtype="datetime64[us]"),
}


def events_purchase_last_click(
    sf_dir: str, time_bucket_hours: float | None = None
) -> Dataset:
    """AS-OF join (custom operator class the Dataset API lacks): each
    purchase event matched to the user's most recent STRICTLY-earlier click.

    Scale shape: both sides filter to their event types map-side at the
    read (nothing else enters the shuffle), ONE groupby on the reused
    partitioning key (user_id), and the within-group match is a vectorized
    ``np.searchsorted`` merge over the ts-sorted arrays — no per-row loop,
    no driver work. Partitioning assumption (default path): one user's
    two-type event history fits a task. Pass ``time_bucket_hours`` for the
    sessionize-style two-level variant: matching runs within
    (user, time-bucket) groups — bounding any reduce task by one bucket —
    and the per-user merge sees only per-bucket last-click SUMMARIES plus
    the purchases that precede their bucket's first click (resolved against
    earlier buckets' summaries; identical output, equivalence-tested)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "ts"]
    ).map_batches(
        lambda t: t.filter(pc.is_in(t["event_type"], pa.array(["purchase", "click"]))),
        batch_format="pyarrow",
    )

    if time_bucket_hours is None:

        def asof(g: pd.DataFrame) -> pd.DataFrame:
            clicks = g[g["event_type"] == "click"].sort_values("ts")
            buys = g[g["event_type"] == "purchase"].sort_values("ts")
            if clicks.empty or buys.empty:
                # typed empty: untyped {} would emit float64 blocks that
                # clash with the int64/datetime64 schema of non-empty groups
                return pd.DataFrame(_ASOF_EMPTY)
            cts = clicks["ts"].to_numpy()
            idx = np.searchsorted(cts, buys["ts"].to_numpy(), side="left") - 1
            keep = idx >= 0
            buys = buys[keep]
            return pd.DataFrame(
                {
                    "event_id": buys["event_id"].to_numpy(),
                    "user_id": buys["user_id"].to_numpy(),
                    "ts": buys["ts"].to_numpy(),
                    "last_click_ts": cts[idx[keep]],
                }
            )

        return ev.groupby("user_id").map_groups(asof, batch_format="pandas")

    # ---- two-level skew path (mirrors sessions.sessionize) -----------------
    bucket_us = int(time_bucket_hours * 3_600_000_000)

    def add_bucket(t: pa.Table) -> pa.Table:
        micros = pc.cast(t["ts"], pa.int64())
        return t.append_column(
            "tbucket", _tbucket_of(micros, bucket_us)
        )

    _PARTIAL_EMPTY = {
        "user_id": pd.Series([], dtype="int64"),
        "kind": pd.Series([], dtype=object),
        "event_id": pd.Series([], dtype="int64"),
        "ts": pd.Series([], dtype="datetime64[us]"),
        "last_click_ts": pd.Series([], dtype="datetime64[us]"),
    }

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        """One (user, bucket): in-bucket matches ("m"), purchases preceding
        the bucket's first click ("u", resolved at merge), and the bucket's
        last-click summary ("c"). A purchase after any in-bucket click always
        matches in-bucket — earlier buckets' clicks are strictly older — so
        "u" rows are exactly the pre-first-click purchases of the bucket."""
        uid = g["user_id"].iloc[0]
        clicks = g[g["event_type"] == "click"].sort_values("ts")
        buys = g[g["event_type"] == "purchase"].sort_values("ts")
        frames = []
        if not clicks.empty:
            last = clicks["ts"].iloc[-1]
            frames.append(
                pd.DataFrame(
                    {
                        "user_id": pd.Series([uid], dtype="int64"),
                        "kind": ["c"],
                        "event_id": pd.Series([-1], dtype="int64"),
                        "ts": pd.Series([last], dtype="datetime64[us]"),
                        "last_click_ts": pd.Series([last], dtype="datetime64[us]"),
                    }
                )
            )
        if not buys.empty:
            bts = buys["ts"].to_numpy()
            if clicks.empty:
                idx = np.full(len(buys), -1)
                cts = np.array([], dtype=bts.dtype)
            else:
                cts = clicks["ts"].to_numpy()
                idx = np.searchsorted(cts, bts, side="left") - 1
            m = idx >= 0
            if m.any():
                mb = buys[m]
                frames.append(
                    pd.DataFrame(
                        {
                            "user_id": mb["user_id"].to_numpy(),
                            "kind": "m",
                            "event_id": mb["event_id"].to_numpy(),
                            "ts": mb["ts"].to_numpy(),
                            "last_click_ts": cts[idx[m]],
                        }
                    )
                )
            if (~m).any():
                ub = buys[~m]
                frames.append(
                    pd.DataFrame(
                        {
                            "user_id": ub["user_id"].to_numpy(),
                            "kind": "u",
                            "event_id": ub["event_id"].to_numpy(),
                            "ts": ub["ts"].to_numpy(),
                            "last_click_ts": pd.Series(
                                [pd.NaT] * len(ub), dtype="datetime64[us]"
                            ).to_numpy(),
                        }
                    )
                )
        if not frames:
            return pd.DataFrame(_PARTIAL_EMPTY)
        return pd.concat(frames, ignore_index=True)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        """Per-user merge over partials: matched rows pass through; each
        unresolved purchase takes the newest bucket-summary click strictly
        before it (all clicks of earlier buckets ARE strictly before it, and
        its own/later buckets' summaries are >= it, so the summary array
        alone is sufficient)."""
        matched = g[g["kind"] == "m"]
        frames = [
            pd.DataFrame(
                {
                    "event_id": matched["event_id"].to_numpy(),
                    "user_id": matched["user_id"].to_numpy(),
                    "ts": matched["ts"].to_numpy(),
                    "last_click_ts": matched["last_click_ts"].to_numpy(),
                }
            )
        ]
        un = g[g["kind"] == "u"]
        if not un.empty:
            summ = np.sort(g[g["kind"] == "c"]["ts"].to_numpy())
            idx = np.searchsorted(summ, un["ts"].to_numpy(), side="left") - 1
            keep = idx >= 0
            uu = un[keep]
            if len(uu):
                frames.append(
                    pd.DataFrame(
                        {
                            "event_id": uu["event_id"].to_numpy(),
                            "user_id": uu["user_id"].to_numpy(),
                            "ts": uu["ts"].to_numpy(),
                            "last_click_ts": summ[idx[keep]],
                        }
                    )
                )
        out = pd.concat(frames, ignore_index=True)
        if out.empty:
            return pd.DataFrame(_ASOF_EMPTY)
        return out

    partials = (
        ev.map_batches(add_bucket, batch_format="pyarrow")
        .groupby(["user_id", "tbucket"])
        .map_groups(partial, batch_format="pandas")
    )
    return partials.groupby("user_id").map_groups(merge, batch_format="pandas")


_WINJOIN_EMPTY = {
    "purchase_id": pd.Series([], dtype="int64"),
    "user_id": pd.Series([], dtype="int64"),
    "purchase_ts": pd.Series([], dtype="datetime64[us]"),
    "click_id": pd.Series([], dtype="int64"),
    "click_ts": pd.Series([], dtype="datetime64[us]"),
}

WINDOW_JOIN_HOURS = 1


def events_purchase_click_window(sf_dir: str, two_level: bool = False) -> Dataset:
    """RANGE JOIN (windowed non-equi join — the second custom join class
    the Dataset API lacks, next to the as-of above): every purchase paired
    with EVERY click by the same user in the preceding hour
    (click_ts ∈ [purchase_ts − 1h, purchase_ts)).

    Scale shape mirrors the as-of: both sides filter to their event types
    map-side at the read, ONE groupby on the reused user_id partitioning
    key, and the per-group match is a fully vectorized double-searchsorted
    range expansion (repeat + cumulative-offset arithmetic, no per-row
    loop). Output size is the true join cardinality — inherent to
    range-join semantics, not an implementation artifact. Partitioning
    assumption (default path): one user's two-type history fits a task;
    pass ``two_level=True`` for the time-bucketed variant — purchases
    replicate to the ≤2 window-overlapped buckets of width W=1h and
    matching runs within (user, bucket) groups (each click lives in
    exactly ONE bucket, so the union of per-bucket matches is exact with
    no dedup pass) — bounding every reduce task by one bucket.
    Equivalence-tested, incl. a planted hot user."""
    win_us = WINDOW_JOIN_HOURS * 3_600_000_000
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["event_id", "user_id", "event_type", "ts"],
    ).map_batches(
        lambda t: t.filter(
            pc.is_in(t["event_type"], pa.array(["purchase", "click"]))
        ),
        batch_format="pyarrow",
    )

    def match(g: pd.DataFrame) -> pd.DataFrame:
        clicks = g[g["event_type"] == "click"].sort_values("ts")
        buys = g[g["event_type"] == "purchase"]
        if clicks.empty or buys.empty:
            return pd.DataFrame(_WINJOIN_EMPTY)
        cts = clicks["ts"].to_numpy()
        bts = buys["ts"].to_numpy()
        lo = np.searchsorted(cts, bts - np.timedelta64(win_us, "us"), side="left")
        hi = np.searchsorted(cts, bts, side="left")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return pd.DataFrame(_WINJOIN_EMPTY)
        offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
        idx = np.repeat(lo, counts) + np.arange(total) - np.repeat(offs, counts)
        rep = np.repeat(np.arange(len(buys)), counts)
        return pd.DataFrame(
            {
                "purchase_id": buys["event_id"].to_numpy()[rep],
                "user_id": buys["user_id"].to_numpy()[rep],
                "purchase_ts": bts[rep],
                "click_id": clicks["event_id"].to_numpy()[idx],
                "click_ts": cts[idx],
            }
        )

    if not two_level:
        return ev.groupby("user_id").map_groups(match, batch_format="pandas")

    def replicate(t: pa.Table) -> pa.Table:
        micros = pc.cast(t["ts"], pa.int64())
        t = t.append_column(
            "tbucket", _tbucket_of(micros, win_us)
        )
        buys = t.filter(pc.equal(t["event_type"], "purchase"))
        i = t.schema.get_field_index("tbucket")
        shifted = buys.set_column(
            i, "tbucket", pc.subtract(buys["tbucket"], pa.scalar(1, pa.int64()))
        )
        return pa.concat_tables([t, shifted])

    return (
        ev.map_batches(replicate, batch_format="pyarrow")
        .groupby(["user_id", "tbucket"])
        .map_groups(match, batch_format="pandas")  # tbucket column ignored
    )


QUANTILES = (0.25, 0.5, 0.75)


def lineitem_qty_quantiles(sf_dir: str) -> Dataset:
    """EXACT distributed quantiles over a low-cardinality value domain:
    per-batch (flag, quantity) histograms (map-side combiner) → a
    tree_combine of the typed partials → per-flag order statistics from
    the cumulative histogram. Only #flags × #distinct-values fixed-width
    rows ever move, regardless of corpus size — the scale path for exact
    percentiles when the domain is enumerable (DuckDB quantile_disc:
    sorted[ceil(n*q)-1])."""
    li = read_parquet_clean(_p(sf_dir, "lineitem"), columns=["l_returnflag", "l_quantity"])

    def hist(batch: pa.Table) -> pa.Table:
        c = Counter(
            zip(batch["l_returnflag"].to_pylist(), batch["l_quantity"].to_pylist())
        )
        fs, qs, ns = [], [], []
        for (f, qty), n in c.items():
            fs.append(f)
            qs.append(qty)
            ns.append(n)
        return pa.table(
            {
                "l_returnflag": pa.array(fs, pa.string()),
                "qty": pa.array(qs, pa.float64()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    counts = tree_combine(
        li.map_batches(hist, batch_format="pyarrow"),
        group_sum_merge(("l_returnflag", "qty"), ("n",)),
    )

    _QSCHEMA = pa.schema(
        [("l_returnflag", pa.string())]
        + [(f"p{int(q * 100)}", pa.float64()) for q in QUANTILES]
    )

    def quantiles(t: pa.Table) -> pa.Table:
        # the combined histogram is one tiny block (#flags × #distinct qty)
        if t.num_rows == 0:
            return _QSCHEMA.empty_table()
        df = t.to_pandas().sort_values(["l_returnflag", "qty"])
        out: dict[str, list] = {name: [] for name in _QSCHEMA.names}
        for flag, g in df.groupby("l_returnflag", sort=True):
            cum = g["n"].cumsum().to_numpy()
            total = int(cum[-1])
            out["l_returnflag"].append(flag)
            for q in QUANTILES:
                rank = int(np.ceil(total * q))  # 1-based order statistic
                pos = int(np.searchsorted(cum, rank, side="left"))
                out[f"p{int(q * 100)}"].append(float(g["qty"].iloc[pos]))
        return pa.table(out, schema=_QSCHEMA)

    return counts.map_batches(quantiles, batch_size=None, batch_format="pyarrow")


def _media_table(sf_dir: str) -> Dataset:
    """Deterministic media table derived from documents: payload = utf-8
    text bytes, duration keyed on length (MEDIA_SCHEMA; the multimodal
    brief's opaque-binary-column shape)."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        ids, payloads, durs = [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            data = (text or "").encode("utf-8")
            ids.append(f"m{did:06d}")
            payloads.append(data)
            durs.append(1000 + (len(data) % 5) * 1000)
        n = len(ids)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "kind": pa.array(["image"] * n, pa.string()),
                "payload": pa.array(payloads, pa.binary()),
                "mime": pa.array(["image/fake"] * n, pa.string()),
                "width": pa.array([16] * n, pa.int32()),
                "height": pa.array([16] * n, pa.int32()),
                "duration_ms": pa.array(durs, pa.int32()),
            }
        )

    return docs.map_batches(to_media, batch_format="pyarrow")


def media_image_features(sf_dir: str) -> Dataset:
    """Multimodal decode→pool actor stage over binary payloads (fake codec;
    deterministic md5-arithmetic decode). Oracle-checked end-to-end:
    ``feat_mean`` = round(px_sum / (n_px·255), 6) over the decoded image's
    exact integer pixel sum — equal to the mean of the (equal-sized-block)
    pooled features, but free of float32 quantization, so DuckDB can mirror
    it term-for-term (``doc_oracle.media_image_features_sql``)."""
    from ..stages.multimodal import extract_image_features

    feats = extract_image_features(_media_table(sf_dir))

    def summarize(batch: pa.Table) -> pa.Table:
        dims = [len(f) for f in batch["features"].to_pylist()]
        means = [
            float(round_half_away(s / (n * 255.0), 6))
            for s, n in zip(batch["px_sum"].to_pylist(), batch["n_px"].to_pylist())
        ]
        return pa.table(
            {
                "media_id": batch["media_id"],
                "feat_dim": pa.array(dims, pa.int64()),
                "feat_mean": pa.array(means, pa.float64()),
            }
        )

    return feats.map_batches(summarize, batch_format="pyarrow")


def media_video_frames(sf_dir: str) -> Dataset:
    """Frame-sampling actor stage → frames per media (the COUNT logic is
    SQL-expressible, so the oracle checks it even though frame bytes come
    from the stubbed codec)."""
    from ray.data.aggregate import Count as _Count

    from ..stages.multimodal import sample_video_frames

    frames = sample_video_frames(_media_table(sf_dir), fps=2.0)
    return frames.groupby("media_id").aggregate(_Count(alias_name="n_frames"))


def similarity_topk_multi(sf_dir: str, k: int = 10) -> Dataset:
    """Multi-query exact ANN: one broadcast [Q, D] matrix, one matmul per
    batch (brute_force_topk_many); queries = embedding rows 0..2."""
    from ..stages.similarity import brute_force_topk_many

    qtab = pq.read_table(
        _p(sf_dir, "embeddings"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", [0, 1, 2])],
    )
    if qtab.num_rows == 0:  # query vectors absent (e.g. empty table)
        return rd.from_arrow(
            pa.table(
                {"query_idx": pa.array([], pa.int64()),
                 "vec_id": pa.array([], pa.int64()),
                 "cos": pa.array([], pa.float64())}
            )
        )
    order = np.argsort(np.asarray(qtab["vec_id"].to_pylist()))
    Q = np.asarray(qtab["embedding"].to_pylist(), dtype=np.float64)[order]
    emb = read_parquet_clean(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    return brute_force_topk_many(emb, Q, k=k)


def user_top_event_type(sf_dir: str) -> Dataset:
    """Rank-per-group: each user's most frequent event type (ties → the
    alphabetically first type). Partial (user,type) counts map-side, then
    one groupby(user) picks the argmax."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        c = Counter(zip(batch["user_id"].to_pylist(), batch["event_type"].to_pylist()))
        us, ts, ns = [], [], []
        for (u, et), n in c.items():
            us.append(u)
            ts.append(et)
            ns.append(n)
        return pa.table(
            {
                "user_id": pa.array(us, pa.int64()),
                "event_type": pa.array(ts, pa.string()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    counts = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def argmax(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "event_type"], ascending=[False, True])
        return pd.DataFrame(
            {
                "user_id": [g["user_id"].iloc[0]],
                "top_type": [g["event_type"].iloc[0]],
                "n": [int(g["n"].iloc[0])],
            }
        )

    return counts.groupby("user_id").map_groups(argmax, batch_format="pandas")


def account_balance_union(sf_dir: str) -> Dataset:
    """Union coverage: customers and suppliers stacked into one account
    table, aggregated per role (Dataset.union of two reads)."""
    cust = read_parquet_clean(_p(sf_dir, "customer"), columns=["c_acctbal"]).map_batches(
        lambda t: pa.table(
            {
                "role": pa.array(["customer"] * t.num_rows, pa.string()),
                "balance": t["c_acctbal"],
            }
        ),
        batch_format="pyarrow",
    )
    supp = read_parquet_clean(_p(sf_dir, "supplier"), columns=["s_acctbal"]).map_batches(
        lambda t: pa.table(
            {
                "role": pa.array(["supplier"] * t.num_rows, pa.string()),
                "balance": t["s_acctbal"],
            }
        ),
        batch_format="pyarrow",
    )
    merge = group_sum_merge(("role",), ("n_accounts", "sum_balance"))

    def partial(batch: pa.Table) -> pa.Table:
        return merge(
            pa.table(
                {
                    "role": batch["role"],
                    "n_accounts": pa.array(
                        np.ones(batch.num_rows, dtype=np.int64), pa.int64()
                    ),
                    "sum_balance": batch["balance"],
                }
            )
        )

    out = tree_combine(
        cust.union(supp).map_batches(partial, batch_format="pyarrow"), merge
    )
    return out.map_batches(
        lambda t: _round_cols(t, ("sum_balance",)), batch_format="pyarrow"
    )


def lineitem_profile(sf_dir: str) -> Dataset:
    """Data-profiling operator (one table pass): per-column non-null
    count, null count, min, max and 4-dp mean over the four numeric
    lineitem measures — the query form of the generic
    ``stages.profile.profile_columns`` (see its scale notes)."""
    from ..stages.profile import profile_columns

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    return profile_columns(
        read_parquet_clean(_p(sf_dir, "lineitem"), columns=cols), cols
    )


def events_props_k_by_type(sf_dir: str) -> Dataset:
    """Semi-structured extraction over the JSON ``props`` column: the
    integer field ``k`` comes out with ONE vectorized RE2 kernel
    (``pc.extract_regex`` — no per-row ``json.loads``), then a
    per-event-type profile (row count, k-bearing count, min/max and 4-dp
    mean of k). Map-side fixed-width partials per type + tree combine —
    the JSON text never leaves its map task. The oracle applies the
    identical RE2 pattern via ``regexp_extract`` (RE2 on both sides, the
    house tokenizer rule)."""
    from ..runtime.combine import group_agg_merge

    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "props"]
    )
    merge = group_agg_merge(
        ("event_type",),
        sums=("n", "with_k", "s"),
        mins=("min_k",),
        maxs=("max_k",),
    )

    def partial(t: pa.Table) -> pa.Table:
        k = pc.cast(
            pc.struct_field(
                pc.extract_regex(t["props"], r'"k":\s*(?P<k>\d+)'), "k"
            ),
            pa.int64(),
        )
        # pyarrow group sums/mins skip nulls, so k flows through as-is;
        # with_k counts the non-null matches (SQL count(k))
        return merge(
            pa.table(
                {
                    "event_type": t["event_type"],
                    "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                    "with_k": pc.cast(pc.is_valid(k), pa.int64()),
                    "s": k,
                    "min_k": k,
                    "max_k": k,
                }
            )
        )

    out = tree_combine(ev.map_batches(partial, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        wk = t["with_k"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = t["s"].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = round_half_away(s / wk, 4)
        mean_k = pa.array(
            [float(v) if np.isfinite(v) else None for v in vals],
            pa.float64(),
        )
        return pa.table(
            {
                "event_type": t["event_type"],
                "n": t["n"],
                "with_k": t["with_k"],
                "min_k": t["min_k"],
                "max_k": t["max_k"],
                "mean_k": mean_k,
            }
        )

    return out.map_batches(finish, batch_size=None, batch_format="pyarrow")


def lineitem_qty_stats(sf_dir: str) -> Dataset:
    """Std/Max/Min aggregate coverage (sample stddev matches stddev_samp).
    Enumerable key (3 return flags): map-side (n, Σq, Σq², min, max)
    partials + tree_combine; std from the exact moment sums in the final
    map (quantities are small integers, so the double sums are exact and
    the formula reproduces stddev_samp bit-for-bit at 4 decimals)."""
    from ..runtime.combine import group_agg_merge

    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_returnflag", "l_quantity"]
    )
    merge = group_agg_merge(
        ("l_returnflag",), sums=("n", "s", "ss"), mins=("min_qty",), maxs=("max_qty",)
    )

    def partial(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"]
        return merge(
            pa.table(
                {
                    "l_returnflag": batch["l_returnflag"],
                    "n": pa.array(np.ones(batch.num_rows, dtype=np.int64), pa.int64()),
                    "s": q,
                    "ss": pc.multiply(q, q),
                    "min_qty": q,
                    "max_qty": q,
                }
            )
        )

    out = tree_combine(li.map_batches(partial, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = t["s"].to_numpy(zero_copy_only=False)
        ss = t["ss"].to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (ss - s * s / n) / (n - 1.0)
        std = np.sqrt(np.maximum(var, 0.0))
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "std_qty": pa.array(round_half_away(std), pa.float64()),
                "max_qty": t["max_qty"],
                "min_qty": t["min_qty"],
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def doc_ngram_jaccard_pairs(sf_dir: str) -> Dataset:
    """Exact-verified word-3-gram Jaccard near-dup pairs (rows-only)."""
    from ..stages.dedup import ngram_jaccard_pairs

    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    return ngram_jaccard_pairs(docs, threshold=0.8)


# ------------------------------------------- training-data curation ops
# (LLM-pipeline operators beyond the reference: repetition filtering,
# deterministic splits, stratified sampling, benchmark contamination,
# corpus n-gram counts — each paired with a DuckDB oracle in
# __ray_entry__.oracle_sql())

def doc_repetition(sf_dir: str) -> Dataset:
    """Gopher-style intra-document repetition signals: fraction of word
    occurrences that repeat an already-seen word, same for bigrams, and the
    most-frequent-word mass. Pure map — no shuffle, scale-safe."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def signals(batch: pa.Table) -> pa.Table:
        dup_w, dup_b, top_w = [], [], []
        for t in batch["text"].to_pylist():
            ws = _WORD_RE.findall((t or "").lower())
            n = len(ws)
            if n == 0:
                dup_w.append(0.0)
                top_w.append(0.0)
            else:
                dup_w.append(float(round_half_away(1.0 - len(set(ws)) / n)))
                top_w.append(
                    float(round_half_away(max(Counter(ws).values()) / n))
                )
            if n <= 1:
                dup_b.append(0.0)
            else:
                bgs = [f"{a} {b}" for a, b in zip(ws, ws[1:])]
                dup_b.append(
                    float(round_half_away(1.0 - len(set(bgs)) / len(bgs)))
                )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "dup_word_frac": pa.array(dup_w, pa.float64()),
                "dup_bigram_frac": pa.array(dup_b, pa.float64()),
                "top_word_frac": pa.array(top_w, pa.float64()),
            }
        )

    return docs.map_batches(signals, batch_format="pyarrow")


def doc_split_assign(sf_dir: str) -> Dataset:
    """Deterministic train/valid/test split by content-free id hash
    (8/1/1): bucket = first 8 md5 bytes of str(doc_id), little-endian
    (DuckDB ``md5_number_upper`` parity), mod 10. Stable across runs and
    cluster sizes — the property a training-data split needs."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id"])

    def assign(batch: pa.Table) -> pa.Table:
        splits = []
        for d in batch["doc_id"].to_pylist():
            b = (
                int.from_bytes(
                    hashlib.md5(str(d).encode("utf-8")).digest()[:8], "little"
                )
                % 10
            )
            splits.append("train" if b < 8 else ("valid" if b == 8 else "test"))
        return pa.table(
            {"doc_id": batch["doc_id"], "split": pa.array(splits, pa.string())}
        )

    return docs.map_batches(assign, batch_format="pyarrow")


def doc_sample_per_source(sf_dir: str, k: int = 3) -> Dataset:
    """Deterministic stratified sample: k docs per source, ordered by
    (md5(text) ASC, doc_id ASC). Map-side per-batch keep-k per source →
    associative tree merge; the combine moves ≤ k × #sources × #blocks slim
    rows, never the corpus."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text", "source"]
    )

    def keep_k(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        df = t.to_pandas()
        df = df.sort_values(
            ["source", "sk", "doc_id"], ascending=True, kind="mergesort"
        )
        df = df.groupby("source", sort=False).head(k)
        return pa.Table.from_pandas(
            df, schema=t.schema, preserve_index=False
        ).replace_schema_metadata(None)

    def partial(batch: pa.Table) -> pa.Table:
        sk = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        slim = pa.table(
            {
                "source": batch["source"],
                "doc_id": batch["doc_id"],
                "sk": pa.array(sk, pa.string()),
            }
        )
        return keep_k(slim)

    sampled = tree_combine(
        docs.map_batches(partial, batch_format="pyarrow"), keep_k
    )
    return sampled.select_columns(["source", "doc_id"])


# contamination benchmark-set derivation rule (shared with the oracle):
# the 5-gram at words[3:8] of every doc with doc_id % 100 == 7 that has
# >= 8 words. Stands in for a fixed benchmark suite; real reference sets
# are small, so broadcasting via ray.put is the scale shape.
CONTAM_STRIDE = 100
CONTAM_RESIDUE = 7
CONTAM_NGRAM_SLICE = (3, 8)


def doc_contamination(sf_dir: str) -> Dataset:
    """Benchmark-contamination check: count, per document, how many
    benchmark 5-grams appear in its word sequence (word-boundary-safe
    substring over the space-joined words). The benchmark set is broadcast
    once (``ray.put``) and each batch is scanned with a vectorized
    ``pyarrow.compute.match_substring`` per benchmark n-gram."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    lo, hi = CONTAM_NGRAM_SLICE

    def bench_partial(batch: pa.Table) -> pa.Table:
        out = []
        ids = batch["doc_id"].to_pylist()
        for d, t in zip(ids, batch["text"].to_pylist()):
            if d % CONTAM_STRIDE != CONTAM_RESIDUE:
                continue
            ws = _WORD_RE.findall((t or "").lower())
            if len(ws) >= hi:
                out.append(" " + " ".join(ws[lo:hi]) + " ")
        return pa.table({"ng": pa.array(sorted(set(out)), pa.string())})

    # benchmark sets are reference-suite-sized (small by construction);
    # the unique() result is the only driver-side collect on this path
    ngrams = sorted(
        docs.map_batches(bench_partial, batch_format="pyarrow").unique("ng")
        or []  # unique() is None on empty input
    )
    ng_ref = ray.put(ngrams)

    class Scan:
        def __init__(self, ng_ref):
            self.ngrams = ray.get(ng_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            joined = pa.array(
                [
                    " " + " ".join(_WORD_RE.findall((t or "").lower())) + " "
                    for t in batch["text"].to_pylist()
                ],
                pa.string(),
            )
            hits = np.zeros(batch.num_rows, dtype=np.int64)
            for ng in self.ngrams:
                hits += pc.match_substring(joined, ng).to_numpy(
                    zero_copy_only=False
                )
            return pa.table(
                {"doc_id": batch["doc_id"], "n_hits": pa.array(hits, pa.int64())}
            )

    return docs.map_batches(Scan(ng_ref), batch_format="pyarrow")


def corpus_bigram_top50(sf_dir: str) -> Dataset:
    """Corpus-level word-bigram census, top 50 (n-gram LM counts at corpus
    scale): partial Counter per batch → bigram-vocabulary-sized shuffle →
    total order (n DESC, bg ASC) → limit."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            ws = _WORD_RE.findall((t or "").lower())
            c.update(f"{a} {b}" for a, b in zip(ws, ws[1:]))
        return pa.table(
            {
                "bg": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    counts = (
        docs.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("bg")
        .aggregate(Sum("n", alias_name="n"))
    )
    return counts.sort(["n", "bg"], descending=[True, False]).limit(50)


def corpus_dup_shingles(sf_dir: str) -> Dataset:
    """Cross-document duplicate-passage census: word-8-gram shingles that
    appear in >= 2 distinct documents, top 50 by document count (the
    detection signal behind substring-level train-set dedup).

    Distinct-doc counting stays map-side: a document lives in exactly one
    batch, and its shingles are set-deduped per doc, so per-batch counts
    sum to exact distinct-document counts — the shuffle moves
    (shingle, partial_count) rows only, never per-occurrence rows.
    """
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])
    W = 8

    def partial_counts(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            ws = _WORD_RE.findall((t or "").lower())
            c.update(
                {
                    " ".join(ws[i : i + W])
                    for i in range(len(ws) - W + 1)
                }
            )
        return pa.table(
            {
                "shingle": pa.array(list(c.keys()), pa.string()),
                "n_docs": pa.array(list(c.values()), pa.int64()),
            }
        )

    counts = (
        docs.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("shingle")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )

    from ..runtime.combine import topk_merge

    # top-50 cut via the associative top-k keep (same (n DESC, shingle ASC)
    # total order as a global sort) — the duplicate-shingle set can still
    # be huge at corpus scale, so no second sort shuffle
    cut = topk_merge(50, "n_docs", ["shingle"])

    def dup_topk(t: pa.Table) -> pa.Table:
        return cut(t.filter(pc.greater_equal(t["n_docs"], 2)))

    return tree_combine(
        counts.map_batches(dup_topk, batch_format="pyarrow"), cut
    )


def lang_fertility(sf_dir: str) -> Dataset:
    """Tokenizer-fertility stats per language: total subwords, total words
    and subwords-per-word (the BPE-ish rule shared with
    ``doc_subword_counts``). Map-side partial sums per lang → fan-in tree
    merge over the (tiny) language key domain — no sort shuffle."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["lang", "text"])
    word_re = re.compile(r"[A-Za-z0-9_]+")
    merge = group_sum_merge(("lang",), ("n_subwords", "n_words"))

    def partial(batch: pa.Table) -> pa.Table:
        langs, subs, words = [], [], []
        for lang, t in zip(
            batch["lang"].to_pylist(), batch["text"].to_pylist()
        ):
            ws = word_re.findall(t or "")
            langs.append(lang)
            subs.append(sum((len(w) + 3) // 4 for w in ws))
            words.append(len(ws))
        return merge(
            pa.table(
                {
                    "lang": pa.array(langs, pa.string()),
                    "n_subwords": pa.array(subs, pa.int64()),
                    "n_words": pa.array(words, pa.int64()),
                }
            )
        )

    sums = tree_combine(docs.map_batches(partial, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        n_sub = t["n_subwords"].to_numpy(zero_copy_only=False).astype(np.float64)
        n_w = t["n_words"].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            f = np.where(n_w > 0, n_sub / np.maximum(n_w, 1.0), 0.0)
        return t.append_column(
            "fertility", pa.array(round_half_away(f), pa.float64())
        )

    return sums.map_batches(finish, batch_format="pyarrow")


def embedding_kmeans(sf_dir: str) -> Dataset:
    """Deterministic Lloyd k-means (k=8, 3 iterations) over the embeddings
    table; output = the final (vec_id, cluster) assignment. Centroid
    updates round to 6 decimals and assignment uses rounded-distance
    argmin with smallest-cluster tie-break, so the DuckDB oracle replays
    the identical iterations (see doc_oracle.embedding_kmeans_sql)."""
    from ..stages.similarity import kmeans_assign

    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    return kmeans_assign(emb, k=8, iters=3)


def events_daily_retention(sf_dir: str) -> Dataset:
    """Daily active users + next-day retention: per day, ``n_active`` =
    distinct active users, ``n_retained`` = users also active the previous
    day. ONE (user_id, day) groupby shuffle builds the distinct activity
    set (map-side per-batch dedup first); each activity row then re-emits
    itself plus a (user, day+1) "was active yesterday" marker, a second
    groupby on the same key pairs them, and the day-level census is
    tree-combined (days are enumerable). Per-user state never concentrates
    anywhere — both shuffles move fixed-width rows."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "ts"])

    # the day key travels as int64 epoch-µs through the Ray aggregates:
    # Ray's sort-aggregate rebuilds key columns through numpy, and
    # day-aligned values come back as datetime64[D] — pyarrow then logs a
    # precision-coercion warning per map task (BENCH_r03 tail). Int keys
    # shuffle clean (and faster); the final partials cast back to
    # timestamp[us] outside any Ray aggregate.
    def to_days(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "day": pc.floor_temporal(batch["ts"], unit="day")
                .cast(pa.timestamp("us"))
                .cast(pa.int64()),
            }
        )
        return t.group_by(["user_id", "day"]).aggregate([])

    act = (
        ev.map_batches(to_days, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    one_day = pa.scalar(86_400_000_000, pa.int64())

    def emit(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "user_id": pa.concat_arrays(
                    [batch["user_id"].combine_chunks()] * 2
                ),
                "day": pa.concat_arrays(
                    [
                        batch["day"].combine_chunks(),
                        pc.add(batch["day"], one_day).combine_chunks(),
                    ]
                ),
                "present": pa.array([1] * n + [0] * n, pa.int64()),
                "prev": pa.array([0] * n + [1] * n, pa.int64()),
            }
        )

    paired = (
        act.map_batches(emit, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .aggregate(
            Sum("present", alias_name="present"), Sum("prev", alias_name="prev")
        )
    )
    merge = group_sum_merge(("day",), ("n_active", "n_retained"))

    def day_partials(batch: pa.Table) -> pa.Table:
        present = batch["present"].to_numpy(zero_copy_only=False)
        prev = batch["prev"].to_numpy(zero_copy_only=False)
        active = present >= 1
        t = pa.table(
            {
                "day": batch["day"].cast(pa.timestamp("us")),
                "n_active": pa.array(active.astype(np.int64), pa.int64()),
                "n_retained": pa.array(
                    (active & (prev >= 1)).astype(np.int64), pa.int64()
                ),
            }
        ).filter(pa.array(active))
        return merge(t)

    return tree_combine(
        paired.map_batches(day_partials, batch_format="pyarrow"), merge
    )


def orders_top3_customers_by_nation(sf_dir: str) -> Dataset:
    """Per-nation top-3 customers by total order value (windowed top-k
    without a global sort): map-side per-batch partial sums per custkey →
    ONE int-key groupby shuffle → nation attached from the broadcast
    customer dimension (dimension-table-sized, same class as the nation
    broadcasts elsewhere) → associative per-nation top-3 merge, tie-exact
    on (rounded total DESC, custkey ASC)."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("o_custkey").aggregate([("o_totalprice", "sum")])
        return g.rename_columns(["o_custkey", "total_price"])

    totals = (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("total_price", alias_name="total_price"))
    )
    from ..runtime.combine import topk_merge
    from ..stages.graph import BROADCAST_JOIN_MAX_ROWS

    cut = topk_merge(3, "total_price", ["o_custkey"], group_cols=["c_nationkey"])
    cust = read_parquet_clean(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    )

    def finish(t: pa.Table) -> pa.Table:
        return cut(
            pa.table(
                {
                    "c_nationkey": t["c_nationkey"].cast(pa.int64()),
                    "o_custkey": t["o_custkey"],
                    "total_price": pa.array(
                        round_half_away(
                            t["total_price"].to_numpy(zero_copy_only=False), 4
                        ),
                        pa.float64(),
                    ),
                }
            )
        )

    # size-adaptive dimension attach: broadcast dict below the gate (inner
    # semantics — custkeys missing from customer are DROPPED, matching the
    # SQL join), distributed hash join above it (customer is corpus-scaled
    # at 150k rows/sf, not a 25-row dimension)
    n_cust = cust.count()
    if n_cust <= BROADCAST_JOIN_MAX_ROWS:
        tab = pq.read_table(
            _p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
        )
        nat = dict(
            zip(tab["c_custkey"].to_pylist(), tab["c_nationkey"].to_pylist())
        )
        nat_ref = ray.put(nat)

        def attach(batch: pa.Table, nat_ref=nat_ref) -> pa.Table:
            m = ray.get(nat_ref) if isinstance(nat_ref, ray.ObjectRef) else nat_ref
            keys = batch["o_custkey"].to_pylist()
            nk = [m.get(k) for k in keys]
            t = pa.table(
                {
                    "c_nationkey": pa.array(nk, pa.int64()),
                    "o_custkey": batch["o_custkey"],
                    "total_price": batch["total_price"],
                }
            ).filter(pc.is_valid(pa.array(nk, pa.int64())))
            return finish(t)

        joined = totals.map_batches(attach, batch_format="pyarrow")
    else:
        from ..runtime.partitions import join_partitions

        joined = totals.join(
            cust.rename_columns({"c_custkey": "o_custkey"}),
            join_type="inner",
            num_partitions=join_partitions(16),
            on=("o_custkey",),
        ).map_batches(finish, batch_format="pyarrow")

    return tree_combine(joined, cut)


def doc_tfidf_top50(sf_dir: str) -> Dataset:
    """Corpus TF-IDF census, top 50 terms by tf·ln(N/df): ONE pass emits
    per-batch (token, tf, df) partials — df is exact map-side because a
    document is one row, so "distinct docs containing t" = "rows containing
    t" — then a token-key shuffle sums them and the driver-side constant N
    (one count) closes the score. Cut by (tfidf DESC, token ASC) with
    4-decimal rounding on both sides (ln parity: IEEE double log of the
    same quotient)."""
    import math

    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])
    n_docs = docs.count()

    def partials(batch: pa.Table) -> pa.Table:
        tf: Counter = Counter()
        df: Counter = Counter()
        for t in batch["text"].to_pylist():
            toks = _TOKEN_RE.findall(t or "")
            tf.update(toks)
            df.update(set(toks))
        keys = list(tf.keys())
        return pa.table(
            {
                "token": pa.array(keys, pa.string()),
                "tf": pa.array([tf[k] for k in keys], pa.int64()),
                "df": pa.array([df[k] for k in keys], pa.int64()),
            }
        )

    stats = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("tf", alias_name="tf"), Sum("df", alias_name="df"))
    )

    def score(batch: pa.Table) -> pa.Table:
        tf = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        df = batch["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = round_half_away(tf * np.log(n_docs / df), 4)
        return pa.table(
            {
                "token": batch["token"],
                "tf": batch["tf"],
                "df": batch["df"],
                "tfidf": pa.array(s, pa.float64()),
            }
        )

    from ..runtime.combine import topk_merge

    cut = topk_merge(50, "tfidf", ["token"])
    return tree_combine(
        stats.map_batches(score, batch_format="pyarrow").map_batches(
            cut, batch_format="pyarrow"
        ),
        cut,
    )


def embedding_label_centroids(sf_dir: str) -> Dataset:
    """Per-label embedding centroid stats: member count and the L2 norm of
    the mean vector (rounded to 4 decimals). Map-side per-label partial
    sums (label-domain-sized rows) + associative tree merge; only the
    label × dim sum matrix ever concentrates."""
    from ..stages.similarity import _vectors_of

    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["label", "embedding"]
    )

    def partials(batch: pa.Table) -> pa.Table:
        X = _vectors_of(batch, "embedding")
        labels = batch["label"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(labels, return_inverse=True)
        counts = np.bincount(inv)
        sums = np.zeros((len(uniq), X.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, X)
        return pa.table(
            {
                "label": pa.array(uniq.astype(np.int64), pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
                "sums": pa.array(list(sums), pa.list_(pa.float64())),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        labels = t["label"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        S = _vectors_of(t, "sums")
        uniq, inv = np.unique(labels, return_inverse=True)
        counts = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(counts, inv, n)
        sums = np.zeros((len(uniq), S.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, S)
        return pa.table(
            {
                "label": pa.array(uniq.astype(np.int64), pa.int64()),
                "n": pa.array(counts, pa.int64()),
                "sums": pa.array(list(sums), pa.list_(pa.float64())),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "label": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "centroid_norm": pa.array([], pa.float64()),
                }
            )
        S = _vectors_of(t, "sums")
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        norms = np.sqrt(((S / n[:, None]) ** 2).sum(axis=1))
        return pa.table(
            {
                "label": t["label"],
                "n": t["n"],
                "centroid_norm": pa.array(
                    round_half_away(norms, 4), pa.float64()
                ),
            }
        )

    return tree_combine(
        emb.map_batches(partials, batch_format="pyarrow"), merge
    ).map_batches(finish, batch_size=None, batch_format="pyarrow")


_MOVAVG_EMPTY = {
    "event_id": pd.Series([], dtype="int64"),
    "user_id": pd.Series([], dtype="int64"),
    "ts": pd.Series([], dtype="datetime64[us]"),
    "mov_avg3": pd.Series([], dtype="float64"),
}


def _movavg3_of(v: np.ndarray) -> np.ndarray:
    """Trailing 3-row mean in frame order ((v[i−2]+v[i−1])+v[i], the same
    left-to-right association DuckDB's windowed AVG walks) / min(i+1, 3)."""
    n = len(v)
    s1 = np.concatenate(([0.0], v[:-1]))
    s2 = np.concatenate(([0.0, 0.0], v[:-2])) if n >= 2 else np.zeros(n)
    idx = np.arange(n)
    total = np.where(idx >= 2, (s2 + s1) + v, np.where(idx >= 1, s1 + v, v))
    return total / np.minimum(idx + 1, 3)


def events_moving_avg3(
    sf_dir: str, time_bucket_hours: float | None = None
) -> Dataset:
    """BOUNDED-frame window function (ROWS BETWEEN 2 PRECEDING AND CURRENT
    ROW): per-event trailing 3-row mean of ``value`` in the user's
    (ts, event_id) order, rounded to 4 decimals. Complements
    events_cum_value's UNBOUNDED frame — bounded frames need the previous
    rows themselves, not a prefix offset, so the skew variant carries
    BOUNDARY ROWS instead of bucket totals.

    Default path: one groupby on the reused user_id key, vectorized
    shift-sum per group. ``time_bucket_hours`` enables the two-level
    frame-carry variant: per (user, time-bucket) groups compute rows with
    ≥2 in-bucket predecessors exactly and emit the bucket's boundary set
    (first ≤2 rows needing carry + last ≤2 rows as carry providers); the
    per-user merge orders the boundary rows — every needed predecessor of
    a first-row is provably inside the boundary set — and resolves the
    remaining frames. Per-user merge state is ≤4 rows × #buckets,
    regardless of how hot the user is. Equivalence-tested (planted hot
    user, bucket-straddling frames, single-row buckets)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "ts": g["ts"].to_numpy(),
                "mov_avg3": round_half_away(
                    _movavg3_of(g["value"].to_numpy()), 4
                ),
            }
        )

    if time_bucket_hours is None:
        return ev.groupby("user_id").map_groups(finish, batch_format="pandas")

    bucket_us = int(time_bucket_hours * 3_600_000_000)

    _BPARTIAL_EMPTY = {
        "user_id": pd.Series([], dtype="int64"),
        "kind": pd.Series([], dtype=object),
        "tbucket": pd.Series([], dtype="int64"),
        "lidx": pd.Series([], dtype="int64"),
        "event_id": pd.Series([], dtype="int64"),
        "ts": pd.Series([], dtype="datetime64[us]"),
        "value": pd.Series([], dtype="float64"),
        "mov_avg3": pd.Series([], dtype="float64"),
    }

    def add_bucket(t: pa.Table) -> pa.Table:
        micros = pc.cast(t["ts"], pa.int64())
        return t.append_column(
            "tbucket",
            _tbucket_of(micros, bucket_us),
        )

    def bpartial(g: pd.DataFrame) -> pd.DataFrame:
        """One (user, bucket): rows with local idx ≥ 2 finish in-bucket
        ("d" rows); the boundary set goes to the merge — first ≤2 rows as
        "n" (need carry, local idx attached) and last ≤2 rows as "h"
        (carry providers; a row can be both, emitted once per role)."""
        g = g.sort_values(["ts", "event_id"])
        n = len(g)
        tb = g["tbucket"].iloc[0]
        v = g["value"].to_numpy()
        frames = []
        if n > 2:
            avg = _movavg3_of(v)[2:]
            d = g.iloc[2:]
            frames.append(
                pd.DataFrame(
                    {
                        "user_id": d["user_id"].to_numpy(),
                        "kind": "d",
                        "tbucket": np.int64(tb),
                        "lidx": np.arange(2, n, dtype=np.int64),
                        "event_id": d["event_id"].to_numpy(),
                        "ts": d["ts"].to_numpy(),
                        "value": d["value"].to_numpy(),
                        "mov_avg3": round_half_away(avg, 4),
                    }
                )
            )
        k = min(2, n)
        need = g.iloc[:k]
        frames.append(
            pd.DataFrame(
                {
                    "user_id": need["user_id"].to_numpy(),
                    "kind": "n",
                    "tbucket": np.int64(tb),
                    "lidx": np.arange(k, dtype=np.int64),
                    "event_id": need["event_id"].to_numpy(),
                    "ts": need["ts"].to_numpy(),
                    "value": need["value"].to_numpy(),
                    "mov_avg3": np.float64(0.0),
                }
            )
        )
        have = g.iloc[-k:]
        frames.append(
            pd.DataFrame(
                {
                    "user_id": have["user_id"].to_numpy(),
                    "kind": "h",
                    "tbucket": np.int64(tb),
                    "lidx": np.arange(n - k, n, dtype=np.int64),
                    "event_id": have["event_id"].to_numpy(),
                    "ts": have["ts"].to_numpy(),
                    "value": have["value"].to_numpy(),
                    "mov_avg3": np.float64(0.0),
                }
            )
        )
        out = pd.concat(frames, ignore_index=True)
        if out.empty:
            return pd.DataFrame(_BPARTIAL_EMPTY)
        return out

    def bmerge(g: pd.DataFrame) -> pd.DataFrame:
        """Per-user: pass the in-bucket-finished rows through; resolve the
        need rows against the ordered boundary stream. A need row at local
        idx L has its L in-bucket predecessors among the user's boundary
        rows (idx 0 is a first-row itself) and its remaining (2−L)
        predecessors among the last rows of earlier buckets — all present
        by construction, and adjacent in (tbucket, ts, event_id) order."""
        done = g[g["kind"] == "d"]
        frames = [
            pd.DataFrame(
                {
                    "event_id": done["event_id"].to_numpy(),
                    "user_id": done["user_id"].to_numpy(),
                    "ts": done["ts"].to_numpy(),
                    "mov_avg3": done["mov_avg3"].to_numpy(),
                }
            )
        ]
        nd = g[g["kind"] == "n"]
        if not nd.empty:
            # distinct boundary ROWS in global order (a row emitted as both
            # "n" and "h" appears once)
            b = (
                g[g["kind"].isin(["n", "h"])]
                .drop_duplicates(subset=["event_id"])
                .sort_values(["ts", "event_id"])
            )
            bv = b["value"].to_numpy()
            pos = pd.Series(
                np.arange(len(b)), index=b["event_id"].to_numpy()
            )
            p = pos[nd["event_id"].to_numpy()].to_numpy()
            # a need row's boundary-stream position equals its global
            # predecessor count while < 3 (see the docstring adjacency
            # argument), so min(p+1, 3) is the exact frame size
            v0 = bv[p]
            v1 = np.where(p >= 1, bv[np.maximum(p - 1, 0)], 0.0)
            v2 = np.where(p >= 2, bv[np.maximum(p - 2, 0)], 0.0)
            cnt = np.minimum(p + 1, 3)
            total = np.where(
                cnt == 3, (v2 + v1) + v0, np.where(cnt == 2, v1 + v0, v0)
            )
            frames.append(
                pd.DataFrame(
                    {
                        "event_id": nd["event_id"].to_numpy(),
                        "user_id": nd["user_id"].to_numpy(),
                        "ts": nd["ts"].to_numpy(),
                        "mov_avg3": round_half_away(total / cnt, 4),
                    }
                )
            )
        out = pd.concat(frames, ignore_index=True)
        if out.empty:
            return pd.DataFrame(_MOVAVG_EMPTY)
        return out

    partials = (
        ev.map_batches(add_bucket, batch_format="pyarrow")
        .groupby(["user_id", "tbucket"])
        .map_groups(bpartial, batch_format="pandas")
    )
    return partials.groupby("user_id").map_groups(bmerge, batch_format="pandas")


def events_cum_value(
    sf_dir: str, time_bucket_hours: float = 24.0 * 30
) -> Dataset:
    """Per-user running total (window function over a corpus-sized output):
    for every event, cum_value = sum of ``value`` over the user's events up
    to and including it in (ts, event_id) order, rounded to 4 decimals.

    Skew-safe two-level shape (same scheme as sessionize/as-of): events
    bucket by (user, time-bucket) so no task ever holds one user's full
    history — local cumulative sums per bucket, then per-user prefix
    offsets over the BUCKET TOTALS (per-user state = #buckets, bounded by
    the time range), re-attached size-adaptively (broadcast below
    BROADCAST_JOIN_MAX_ROWS; above it, a union + composite-key cogroup —
    see the wide-path comment for why not Dataset.join)."""
    from ..stages.graph import BROADCAST_JOIN_MAX_ROWS

    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )
    bucket_us = int(time_bucket_hours * 3_600_000_000)

    def add_bucket(t: pa.Table) -> pa.Table:
        micros = pc.cast(t["ts"], pa.int64())
        return t.append_column(
            "tbucket",
            _tbucket_of(micros, bucket_us),
        )

    # bucket totals → per-user prefix offsets (per-user rows = #buckets).
    # Totals come from the RAW values (map-side partial sums, associative)
    # — NOT max(local_cum), which is wrong whenever a bucket holds a
    # negative value (cumsum can peak before its end).
    def bucket_totals(t: pa.Table) -> pa.Table:
        bt = add_bucket(t)
        g = (
            bt.select(["user_id", "tbucket", "value"])
            .group_by(["user_id", "tbucket"])
            .aggregate([("value", "sum")])
        )
        return g.rename_columns(["user_id", "tbucket", "total"])

    def prefix(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("tbucket").reset_index(drop=True)
        g["offset"] = g["total"].astype(np.float64).cumsum().shift(1, fill_value=0.0)
        return g[["user_id", "tbucket", "offset"]]

    offsets = (
        ev.map_batches(bucket_totals, batch_format="pyarrow")
        .groupby(["user_id", "tbucket"])
        .aggregate(Sum("total", alias_name="total"))
        .groupby("user_id")
        .map_groups(prefix, batch_format="pandas")
        .materialize()
    )

    def local_cumsum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"]).reset_index(drop=True)
        g["local_cum"] = g["value"].astype(np.float64).cumsum()
        return g[["event_id", "user_id", "ts", "tbucket", "local_cum"]]

    n_off = offsets.count()
    if n_off <= BROADCAST_JOIN_MAX_ROWS:
        local = (
            ev.map_batches(add_bucket, batch_format="pyarrow")
            .groupby(["user_id", "tbucket"])
            .map_groups(local_cumsum, batch_format="pandas")
        )
        omap: dict[tuple, float] = {}
        for b in offsets.iter_batches(batch_format="pyarrow", batch_size=None):
            omap.update(
                zip(
                    zip(b["user_id"].to_pylist(), b["tbucket"].to_pylist()),
                    b["offset"].to_pylist(),
                )
            )
        oref = ray.put(omap)

        def attach(t: pa.Table, oref=oref) -> pa.Table:
            m = ray.get(oref) if isinstance(oref, ray.ObjectRef) else oref
            off = np.fromiter(
                (
                    m[(u, tb)]
                    for u, tb in zip(
                        t["user_id"].to_pylist(), t["tbucket"].to_pylist()
                    )
                ),
                dtype=np.float64,
                count=t.num_rows,
            )
            cum = t["local_cum"].to_numpy(zero_copy_only=False) + off
            return pa.table(
                {
                    "event_id": t["event_id"],
                    "user_id": t["user_id"],
                    "ts": t["ts"],
                    "cum_value": pa.array(
                        round_half_away(cum, 4), pa.float64()
                    ),
                }
            )

        return local.map_batches(attach, batch_format="pyarrow")

    # wide path: cogroup via ONE composite-key sort groupby. (Ray 2.49's
    # hash-join operator raises "No match ... FieldRef" whenever a join
    # partition receives zero rows — a schema-less empty table — so the
    # offset attach is expressed as union + groupby: each (user, bucket)
    # group carries its events plus at most one kind=1 offset sentinel.)
    def ev_rows(t: pa.Table) -> pa.Table:
        bt = add_bucket(t)
        n = bt.num_rows
        return pa.table(
            {
                "user_id": bt["user_id"],
                "tbucket": bt["tbucket"],
                "event_id": bt["event_id"],
                "ts": bt["ts"],
                "value": bt["value"].cast(pa.float64()),
                "offset": pa.array([0.0] * n, pa.float64()),
                "kind": pa.array([0] * n, pa.int64()),
            }
        )

    def off_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "user_id": t["user_id"],
                "tbucket": t["tbucket"],
                "event_id": pa.array([-1] * n, pa.int64()),
                "ts": pa.array([0] * n, pa.timestamp("us")),
                "value": pa.array([0.0] * n, pa.float64()),
                "offset": t["offset"].cast(pa.float64()),
                "kind": pa.array([1] * n, pa.int64()),
            }
        )

    both = ev.map_batches(ev_rows, batch_format="pyarrow").union(
        offsets.map_batches(off_rows, batch_format="pyarrow")
    )

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        sent = g[g["kind"] == 1]
        off = float(sent["offset"].iloc[0]) if len(sent) else 0.0
        e = g[g["kind"] == 0].sort_values(["ts", "event_id"]).reset_index(drop=True)
        cum = e["value"].astype(np.float64).cumsum().to_numpy() + off
        return pd.DataFrame(
            {
                "event_id": e["event_id"],
                "user_id": e["user_id"],
                "ts": e["ts"],
                "cum_value": round_half_away(cum, 4),
            }
        )

    return both.groupby(["user_id", "tbucket"]).map_groups(
        merge_group, batch_format="pandas"
    )


HLL_M = 256  # registers (p=8); std error ~ 1.04/sqrt(m) ~ 6.5%


def events_user_count_hll(sf_dir: str) -> Dataset:
    """Approximate distinct-user count via a deterministic HyperLogLog
    sketch (m=256 registers, md5-based — no RNG, so the DuckDB oracle
    replays the registers exactly), reported next to the exact count and
    the relative error. Map-side per-batch registers (unique users hashed
    once per batch) merge through an associative per-register MAX — the
    shuffle moves at most m rows per block regardless of corpus size; this
    is the sketch-shaped alternative to the exact distinct
    (events_user_count) whose state is user-vocabulary-sized."""
    from ..runtime.combine import group_agg_merge

    m, p = HLL_M, 8
    wbits = 64 - p
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id"])
    merge = group_agg_merge(("j",), maxs=("rho",))

    def partials(batch: pa.Table) -> pa.Table:
        regs: dict[int, int] = {}
        for u in set(batch["user_id"].to_pylist()):
            h = int.from_bytes(
                hashlib.md5(str(u).encode("utf-8")).digest()[:8], "little"
            )
            j, w = h % m, h >> p
            rho = (wbits + 1) if w == 0 else (wbits - w.bit_length() + 1)
            if rho > regs.get(j, 0):
                regs[j] = rho
        ks = sorted(regs)
        return pa.table(
            {
                "j": pa.array(ks, pa.int64()),
                "rho": pa.array([regs[k] for k in ks], pa.int64()),
            }
        )

    regs = tree_combine(
        ev.map_batches(partials, batch_format="pyarrow"), merge
    ).take_all()
    s = sum(2.0 ** -r["rho"] for r in regs)
    nz = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / (s + (m - nz))
    v = m - nz
    if est <= 2.5 * m and v > 0:  # small-range correction (linear counting)
        est = m * np.log(m / v)
    n_exact = int(
        events_user_count(sf_dir).to_pandas()["n_users"].iloc[0]
    )
    rel_err = abs(est - n_exact) / n_exact if n_exact else 0.0
    return rd.from_arrow(
        pa.table(
            {
                "hll_estimate": pa.array(
                    round_half_away([est], 4), pa.float64()
                ),
                "n_exact": pa.array([n_exact], pa.int64()),
                "rel_err": pa.array(
                    round_half_away([rel_err], 4), pa.float64()
                ),
            }
        )
    )


BLOOM_BITS = 1 << 20  # 128 KiB bitmap — fixed broadcast footprint
BLOOM_K = 4


def _bloom_positions(key, bloom_bits: int = BLOOM_BITS) -> list[int]:
    """K positions via double hashing over the two md5 64-bit halves
    (deterministic, no RNG)."""
    d = hashlib.md5(str(key).encode("utf-8")).digest()
    h1 = int.from_bytes(d[:8], "little")
    h2 = int.from_bytes(d[8:], "little") | 1
    return [(h1 + i * h2) % bloom_bits for i in range(BLOOM_K)]


def customers_without_orders_bloom(
    sf_dir: str, bloom_bits: int = BLOOM_BITS
) -> Dataset:
    """Bloom-prefiltered anti-join (sketch-assisted join pattern): result
    identical to ``customers_without_orders`` — the oracle is the same SQL.

    1. ONE orders pass builds a 2^20-bit Bloom bitmap of order custkeys as
       per-batch bitmaps OR-merged associatively — the merge moves 128 KiB
       rows, never the key set, and the final bitmap broadcast is
       fixed-size no matter how many orders exist (the exact variant
       broadcasts the full key set).
    2. Customers with a Bloom MISS are definitively order-less (no false
       negatives) and are counted map-side without any join.
    3. Only Bloom-HIT candidates take the exact path: candidate rows and
       order-key rows are UNIONED and cogrouped by one int-key groupby
       (side-tagged rows, Sum per side); candidates whose key has no order
       row are the false positives, added to the miss count. Expressed as a
       cogroup — not ``Dataset.join`` — because Ray 2.49's hash join raises
       on any zero-row join partition (NOTES.md: empty partitions appear
       whenever num_partitions exceeds the effective key spread, which is
       exactly the small-sf shape of this candidate set).
    """
    orders = read_parquet_clean(_p(sf_dir, "orders"), columns=["o_custkey"])
    nbytes = bloom_bits // 8

    def batch_bloom(batch: pa.Table) -> pa.Table:
        bits = np.zeros(nbytes, dtype=np.uint8)
        for k in set(batch["o_custkey"].to_pylist()):
            for p in _bloom_positions(k, bloom_bits):
                bits[p >> 3] |= 1 << (p & 7)
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    def or_merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        acc = np.zeros(nbytes, dtype=np.uint8)
        for b in t["bits"].to_pylist():
            acc |= np.frombuffer(b, dtype=np.uint8)
        return pa.table({"bits": pa.array([acc.tobytes()], pa.binary())})

    merged = tree_combine(
        orders.map_batches(batch_bloom, batch_format="pyarrow"), or_merge
    ).take_all()
    bitmap = (
        np.frombuffer(merged[0]["bits"], dtype=np.uint8)
        if merged  # empty orders: zero bitmap = every customer misses
        else np.zeros(bloom_bits // 8, dtype=np.uint8)
    )
    bref = ray.put(bitmap)

    cust = read_parquet_clean(_p(sf_dir, "customer"), columns=["c_custkey"])

    def split(batch: pa.Table, bref=bref) -> pa.Table:
        # one row per Bloom-HIT candidate (real key, miss=0) plus one
        # summary row (null key) carrying the batch's definite-miss count
        bits = ray.get(bref) if isinstance(bref, ray.ObjectRef) else bref
        miss = 0
        hits = []
        for k in batch["c_custkey"].to_pylist():
            if all(
                bits[p >> 3] & (1 << (p & 7))
                for p in _bloom_positions(k, bloom_bits)
            ):
                hits.append(k)
            else:
                miss += 1
        return pa.table(
            {
                "c_custkey": pa.array(hits + [None], pa.int64()),
                "miss": pa.array([0] * len(hits) + [miss], pa.int64()),
            }
        )

    sided = cust.map_batches(split, batch_format="pyarrow").materialize()
    n_miss = int(sided.sum("miss") or 0)
    # cogroup candidates with the order keys: side-tagged rows through ONE
    # int-key groupby (map-side per-batch dedup of order keys first), then
    # count candidate keys that attracted no order row
    candidates = sided.map_batches(
        lambda t: (
            lambda k: pa.table(
                {
                    "c_custkey": k,
                    "cand": pa.array([1] * len(k), pa.int64()),
                    "has_order": pa.array([0] * len(k), pa.int64()),
                }
            )
        )(t.filter(pc.is_valid(t["c_custkey"]))["c_custkey"].combine_chunks()),
        batch_format="pyarrow",
    )
    keyrows = orders.map_batches(
        lambda t: (
            lambda u: pa.table(
                {
                    "c_custkey": u,
                    "cand": pa.array([0] * len(u), pa.int64()),
                    "has_order": pa.array([1] * len(u), pa.int64()),
                }
            )
        )(pc.unique(t["o_custkey"])),
        batch_format="pyarrow",
    )
    paired = (
        candidates.union(keyrows)
        .groupby("c_custkey")
        .aggregate(
            Sum("cand", alias_name="cand"),
            Sum("has_order", alias_name="has_order"),
        )
    )
    n_fp = int(
        paired.map_batches(
            lambda t: pa.table(
                {
                    "n": pa.array(
                        [
                            int(
                                pc.sum(
                                    pc.and_(
                                        pc.greater(t["cand"], 0),
                                        pc.equal(t["has_order"], 0),
                                    ).cast(pa.int64())
                                ).as_py()
                                or 0
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("n")
        or 0
    )
    return rd.from_arrow(
        pa.table({"n_without_orders": pa.array([n_miss + n_fp], pa.int64())})
    )


QUANTILE_COLLECT_MAX = 5_000_000  # per-bin collect gate for pass 2


def _exact_quantile_in_interval(
    ev: Dataset,
    lo: float,
    hi: float,
    rank: int,
    count: int,
    num_bins: int,
    collect_max: int,
) -> float:
    """Re-binning recursion for an over-populated quantile bin: the bin's
    value set is exactly the closed interval [lo, hi] (binning is monotone
    in the value, so observed per-bin min/max bound the membership), and
    each level re-histograms ONLY that interval — one extra streamed pass
    per level, interval population shrinks ~num_bins× per level. Exits:
    lo == hi (every value identical → that IS the order statistic) or the
    population fits the collect gate."""
    from ..runtime.combine import group_agg_merge

    merge = group_agg_merge(("bin",), sums=("n",), mins=("mn",), maxs=("mx",))
    while True:
        if lo == hi:
            return lo
        if count <= collect_max:
            vals = np.sort(
                np.concatenate(
                    [
                        b["value"].to_numpy(zero_copy_only=False)
                        for b in ev.map_batches(
                            lambda t: t.filter(
                                pc.and_(
                                    pc.greater_equal(t["value"], lo),
                                    pc.less_equal(t["value"], hi),
                                )
                            ),
                            batch_format="pyarrow",
                        ).iter_batches(
                            batch_size=None, batch_format="pyarrow"
                        )
                    ]
                    + [np.array([], dtype=np.float64)]
                )
            )
            return float(vals[rank - 1])
        width = hi - lo

        def hist2(batch: pa.Table, lo=lo, hi=hi, width=width) -> pa.Table:
            v = batch["value"].to_numpy(zero_copy_only=False)
            v = v[(v >= lo) & (v <= hi)]
            if len(v) == 0:
                return pa.table(
                    {
                        "bin": pa.array([], pa.int64()),
                        "n": pa.array([], pa.int64()),
                        "mn": pa.array([], pa.float64()),
                        "mx": pa.array([], pa.float64()),
                    }
                )
            b = np.clip(
                ((v - lo) / width * num_bins).astype(np.int64),
                0,
                num_bins - 1,
            )
            order = np.argsort(b, kind="stable")
            b, v = b[order], v[order]
            nz, starts = np.unique(b, return_index=True)
            ends = np.append(starts[1:], len(b))
            return pa.table(
                {
                    "bin": pa.array(nz, pa.int64()),
                    "n": pa.array(ends - starts, pa.int64()),
                    "mn": pa.array(
                        np.minimum.reduceat(v, starts), pa.float64()
                    ),
                    "mx": pa.array(
                        np.maximum.reduceat(v, starts), pa.float64()
                    ),
                }
            )

        htab = pa.concat_tables(
            tree_combine(
                ev.map_batches(hist2, batch_format="pyarrow"), merge
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        )
        ns = htab["n"].to_numpy(zero_copy_only=False)
        cum = np.cumsum(ns)
        i = int(np.searchsorted(cum, rank, side="left"))
        before = int(cum[i - 1]) if i > 0 else 0
        lo = float(htab["mn"][i].as_py())
        hi = float(htab["mx"][i].as_py())
        count = int(ns[i])
        rank = rank - before


def events_value_quantiles(
    sf_dir: str,
    qs: tuple = (0.5, 0.9, 0.99),
    num_bins: int = 4096,
    collect_max: int = QUANTILE_COLLECT_MAX,
) -> Dataset:
    """EXACT distributed quantiles over a CONTINUOUS value domain (the
    complement of lineitem_qty_quantiles' enumerable-domain histogram):

    pass 1 streams per-batch (min, max, count) partials; pass 2 streams a
    fixed ``num_bins``-bin histogram over [min, max]; the cumulative
    histogram localizes each requested quantile to one bin, and pass 3
    collects ONLY the values in those bins (expected n/num_bins rows each,
    gated by QUANTILE_COLLECT_MAX — past the gate, recurse by re-binning
    inside the bin instead of raising) to take the exact order statistic
    (DuckDB quantile_disc: sorted[ceil(n·q)-1]). Three streaming passes,
    no sort shuffle, exact output — bin arithmetic only routes values, so
    float edge effects cannot change the result."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["value"])

    def mmn(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "mn": pa.array([float(v.min())], pa.float64()),
                "mx": pa.array([float(v.max())], pa.float64()),
                "n": pa.array([len(v)], pa.int64()),
            }
        )

    from ..runtime.combine import group_agg_merge

    merge0 = group_agg_merge(("k",), sums=("n",), mins=("mn",), maxs=("mx",))
    stats = tree_combine(ev.map_batches(mmn, batch_format="pyarrow"), merge0).take_all()
    if not stats:  # empty events → typed empty quantile row set
        return rd.from_arrow(
            pa.schema(
                [(f"p{int(q * 100)}", pa.float64()) for q in qs]
            ).empty_table()
        )
    mn, mx, n = stats[0]["mn"], stats[0]["mx"], stats[0]["n"]
    width = (mx - mn) or 1.0

    def bin_of(v: np.ndarray) -> np.ndarray:
        return np.clip(
            ((v - mn) / width * num_bins).astype(np.int64), 0, num_bins - 1
        )

    def hist(batch: pa.Table) -> pa.Table:
        b = bin_of(batch["value"].to_numpy(zero_copy_only=False))
        counts = np.bincount(b, minlength=num_bins)
        nz = np.nonzero(counts)[0]
        return pa.table(
            {
                "bin": pa.array(nz, pa.int64()),
                "n": pa.array(counts[nz], pa.int64()),
            }
        )

    merge1 = group_sum_merge(("bin",), ("n",))
    htab = pa.concat_tables(
        tree_combine(ev.map_batches(hist, batch_format="pyarrow"), merge1)
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    bins = htab["bin"].to_numpy(zero_copy_only=False)
    counts = htab["n"].to_numpy(zero_copy_only=False)
    order = np.argsort(bins)
    bins, counts = bins[order], counts[order]
    cum = np.cumsum(counts)

    targets = {}  # bin -> [(q, rank_within_bin)]
    out: dict[str, float] = {}
    for q in qs:
        rank = int(np.ceil(n * q))
        i = int(np.searchsorted(cum, rank, side="left"))
        before = int(cum[i - 1]) if i > 0 else 0
        if int(counts[i]) > collect_max:
            # over-populated bin: re-binning recursion (one extra streamed
            # pass per level) instead of a driver collect
            out[f"p{int(q * 100)}"] = _exact_quantile_in_interval(
                ev, mn, mx, rank, int(n), num_bins, collect_max
            )
        else:
            targets.setdefault(int(bins[i]), []).append((q, rank - before))
    need = set(targets)
    need_arr = np.array(sorted(need), dtype=np.int64)

    def collect(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        b = bin_of(v)
        mask = np.isin(b, need_arr)
        return pa.table(
            {
                "bin": pa.array(b[mask], pa.int64()),
                "value": pa.array(v[mask], pa.float64()),
            }
        )

    if targets:
        rows = pa.concat_tables(
            ev.map_batches(collect, batch_format="pyarrow").iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
        )
        bvals = rows["bin"].to_numpy(zero_copy_only=False)
        vvals = rows["value"].to_numpy(zero_copy_only=False)
        for b, wants in targets.items():
            vals = np.sort(vvals[bvals == b])
            for q, r in wants:
                out[f"p{int(q * 100)}"] = float(vals[r - 1])
    return rd.from_arrow(
        pa.table(
            {k: pa.array([out[k]], pa.float64()) for k in
             (f"p{int(q * 100)}" for q in qs)}
        )
    )


def media_audio_energy(sf_dir: str) -> Dataset:
    """Audio modality stage: windowed RMS energy per 256-sample window of
    the (deterministic fake) 1 kHz decode — actor pool with payload-aware
    small batches; the md5-arithmetic decode makes the whole path
    SQL-mirrorable (oracle recomputes every sample)."""
    from ..stages.multimodal import audio_window_energy

    return audio_window_energy(_media_table(sf_dir))


def embedding_pca_top1(sf_dir: str, iters: int = 3) -> Dataset:
    """Top principal direction of the (uncentered) embedding matrix via
    power iteration — distributed matvec: each batch contributes the
    D-vector partial Xᵀ(Xv) (two small matmuls), an associative tree merge
    sums them, and only the D-sized iterate touches the driver. The
    deterministic start (all 0.125 = 1/√64, exact in both engines) and the
    6-decimal normalize after every iteration make the DuckDB oracle able
    to replay the iterations exactly. Output: (pos, val) rounded to 4."""
    from ..stages.similarity import _vectors_of

    if pq.read_metadata(_p(sf_dir, "embeddings")).num_rows == 0:
        return rd.from_arrow(
            pa.table(
                {"pos": pa.array([], pa.int64()),
                 "val": pa.array([], pa.float64())}
            )
        )
    emb = read_parquet_clean(_p(sf_dir, "embeddings"), columns=["embedding"])
    dim = 64
    v = np.full(dim, 0.125, dtype=np.float64)
    merge = group_sum_merge(("pos",), ("w",))
    for _ in range(iters):
        vref = ray.put(v)

        def partial(t: pa.Table, vref=vref) -> pa.Table:
            vv = ray.get(vref) if isinstance(vref, ray.ObjectRef) else vref
            X = _vectors_of(t, "embedding")
            w = X.T @ (X @ vv)
            return pa.table(
                {
                    "pos": pa.array(np.arange(1, dim + 1), pa.int64()),
                    "w": pa.array(w, pa.float64()),
                }
            )

        rows = tree_combine(
            emb.map_batches(partial, batch_format="pyarrow"), merge
        ).take_all()
        w = np.zeros(dim)
        for r in rows:
            w[r["pos"] - 1] = r["w"]
        v = round_half_away(w / np.sqrt((w * w).sum()), 6)
    return rd.from_arrow(
        pa.table(
            {
                "pos": pa.array(np.arange(1, dim + 1), pa.int64()),
                "val": pa.array(round_half_away(v, 4), pa.float64()),
            }
        )
    )


# ----------------------------------------------- moment-sketch correlation
def lineitem_corr(sf_dir: str) -> Dataset:
    """Pearson correlation + covariance of (l_quantity, l_extendedprice)
    per return flag — bivariate-moment aggregate coverage. The map side
    emits the six raw moments (n, Σx, Σy, Σx², Σy², Σxy) per group and
    ``tree_combine`` merges them (enumerable key domain: 3 flags), so the
    whole statistic is one streaming pass moving #groups × #blocks
    fixed-width rows. The oracle computes the SAME closed form from SQL
    ``sum()`` aggregates — identical arithmetic, only summation order
    differs (same documented fragility class as the kmeans/PCA oracles;
    the final statistics are O(1)-magnitude, so 4-decimal rounding has
    ~1e-10 headroom)."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    merge = group_sum_merge(
        ("l_returnflag",), ("n_rows", "sx", "sy", "sxx", "syy", "sxy")
    )

    def partial(batch: pa.Table) -> pa.Table:
        x = batch["l_quantity"].to_numpy(zero_copy_only=False)
        y = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        return merge(
            pa.table(
                {
                    "l_returnflag": batch["l_returnflag"],
                    "n_rows": pa.array(np.ones(len(x), np.int64), pa.int64()),
                    "sx": pa.array(x, pa.float64()),
                    "sy": pa.array(y, pa.float64()),
                    "sxx": pa.array(x * x, pa.float64()),
                    "syy": pa.array(y * y, pa.float64()),
                    "sxy": pa.array(x * y, pa.float64()),
                }
            )
        )

    out = tree_combine(li.map_batches(partial, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        n = t["n_rows"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t["sx"].to_numpy(zero_copy_only=False)
        sy = t["sy"].to_numpy(zero_copy_only=False)
        sxx = t["sxx"].to_numpy(zero_copy_only=False)
        syy = t["syy"].to_numpy(zero_copy_only=False)
        sxy = t["sxy"].to_numpy(zero_copy_only=False)
        cov = (sxy - sx * sy / n) / n
        corr = (n * sxy - sx * sy) / (
            np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
        )
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "n_rows": t["n_rows"],
                "cov_qty_price": pa.array(round_half_away(cov, 4), pa.float64()),
                "corr_qty_price": pa.array(round_half_away(corr, 4), pa.float64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------------ star join (Q9 shape)
def profit_by_nation_year(sf_dir: str, name_word: str = "gear") -> Dataset:
    """TPC-H Q9-shaped star join: profit by supplier nation × order year
    for parts whose name contains ``name_word`` (multi-table join-plan
    coverage). Scale discipline: the DIMENSION sides never shuffle — the
    part filter broadcasts a sorted partkey array (searchsorted semi-join
    inside ``map_batches``, pruning the fact stream before any exchange)
    and supplier⋈nation broadcasts a suppkey→nation lookup; the single
    all-to-all is the fact⋈fact lineitem⋈orders hash join on the wide
    l_orderkey domain (key spread ≫ partition count, so no zero-row join
    partitions — NOTES.md Ray 2.49 caveat). Profit partials group-sum
    map-side on the enumerable (nation, year) domain and tree-combine."""
    if (
        pq.read_metadata(_p(sf_dir, "lineitem")).num_rows == 0
        or pq.read_metadata(_p(sf_dir, "orders")).num_rows == 0
    ):  # same zero-row hash-join guard as orders_by_nation
        return rd.from_arrow(
            pa.table(
                {"nation": pa.array([], pa.string()),
                 "o_year": pa.array([], pa.int64()),
                 "sum_profit": pa.array([], pa.float64())}
            )
        )
    part = pq.read_table(_p(sf_dir, "part"), columns=["p_partkey", "p_name"])
    keep = pc.filter(
        part["p_partkey"], pc.match_substring(part["p_name"], name_word)
    )
    part_keys = np.sort(keep.to_numpy(zero_copy_only=False))
    keys_ref = ray.put(part_keys)

    supp = pq.read_table(
        _p(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    nation = dict(
        zip(
            *[
                c.to_pylist()
                for c in pq.read_table(
                    _p(sf_dir, "nation"), columns=["n_nationkey", "n_name"]
                ).columns
            ]
        )
    )
    supp_keys = supp["s_suppkey"].to_numpy(zero_copy_only=False)
    order_ = np.argsort(supp_keys)
    supp_keys = supp_keys[order_]
    supp_nations = np.array(
        [nation[int(k)] for k in supp["s_nationkey"].to_numpy()], dtype=object
    )[order_]
    supp_ref = ray.put((supp_keys, supp_nations))

    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
        ],
    )

    def semi_filter(batch: pa.Table, ref=keys_ref) -> pa.Table:
        keys = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            return batch.slice(0, 0)
        idx = np.clip(np.searchsorted(keys, pk), 0, len(keys) - 1)
        return batch.filter(pa.array(keys[idx] == pk)).drop_columns(
            ["l_partkey"]
        )

    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_orderdate"]
    )
    from ..runtime.partitions import join_partitions

    joined = li.map_batches(semi_filter, batch_format="pyarrow").join(
        orders,
        join_type="inner",
        num_partitions=join_partitions(8),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    merge = group_sum_merge(("nation", "o_year"), ("sum_profit",))

    def partial(batch: pa.Table, ref=supp_ref) -> pa.Table:
        skeys, snations = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        idx = np.clip(np.searchsorted(skeys, sk), 0, len(skeys) - 1)
        profit = pc.multiply(
            batch["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), batch["l_discount"]),
        )
        return merge(
            pa.table(
                {
                    "nation": pa.array(snations[idx], pa.string()),
                    "o_year": pc.cast(pc.year(batch["o_orderdate"]), pa.int64()),
                    "sum_profit": profit,
                }
            )
        )

    out = tree_combine(joined.map_batches(partial, batch_format="pyarrow"), merge)
    return out.map_batches(
        lambda t: _round_cols(t, ("sum_profit",)), batch_format="pyarrow"
    )


# --------------------------------------------------------- dynamic pivot
def events_pivot_type_counts(sf_dir: str) -> Dataset:
    """Dynamic PIVOT: one count column per observed event type, one row
    per day — the long-to-wide reshape every reporting pipeline needs.
    The column set is discovered FROM THE DATA (no hardcoded type list),
    yet the plan stays single-pass: the map side emits long-form
    (day, event_type, n) partials, ``tree_combine`` merges them (days ×
    types is enumerable), and only the final vocabulary-sized table is
    reshaped wide — a dynamic pivot at 100 TB is exactly this long-form
    aggregate; the reshape cost is #days × #types regardless of corpus
    size. Day keys travel as int64 epoch-µs (NOTES.md temporal-key rule).
    Oracle: DuckDB's native dynamic ``PIVOT ... ON event_type USING
    count(*)``, which derives the same column set."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["ts", "event_type"])
    day_us = 86_400_000_000
    merge = group_sum_merge(("day", "event_type"), ("n",))

    def partial(batch: pa.Table) -> pa.Table:
        micros = pc.cast(batch["ts"], pa.int64())
        return merge(
            pa.table(
                {
                    "day": pc.multiply(
                        _tbucket_of(micros, day_us), pa.scalar(day_us, pa.int64())
                    ),
                    "event_type": batch["event_type"],
                    "n": pa.array(
                        np.ones(batch.num_rows, np.int64), pa.int64()
                    ),
                }
            )
        )

    long = tree_combine(ev.map_batches(partial, batch_format="pyarrow"), merge)

    def widen(t: pa.Table) -> pa.Table:
        df = t.to_pandas()  # final partials: #days × #types rows — tiny
        wide = df.pivot_table(
            index="day", columns="event_type", values="n",
            fill_value=0, aggfunc="sum",
        ).astype(np.int64)
        wide = wide.reset_index()
        wide.columns.name = None
        out = pa.Table.from_pandas(wide, preserve_index=False)
        out = out.replace_schema_metadata(None)
        day_idx = out.schema.get_field_index("day")
        return out.set_column(
            day_idx, "day", out["day"].cast(pa.timestamp("us"))
        )

    return long.map_batches(widen, batch_size=None, batch_format="pyarrow")


# ------------------------------------------- set-intersection co-occurrence
def events_type_cooccurrence(sf_dir: str, n_buckets: int = 64) -> Dataset:
    """Distinct-user set intersections between event types: for every
    unordered type pair, how many users performed BOTH (audience-overlap
    census — a set-op the reference's batch world has no analogue for).
    Shape: per-batch dedup of (user_id, event_type) → ONE int-key bucket
    shuffle on user_id (each user's rows co-locate; hot users cost 
    #types rows, so there is no skew concentration by construction) →
    per-bucket vectorized membership matrix M (users × types) whose
    Mᵀ·M upper triangle is the bucket's pair counts → fixed-width
    (type_a, type_b, n) partials tree-combined. The shuffle moves at most
    #users × #types slim rows; driver state is #type² counts.
    ``n_buckets`` is the task-size knob (one map_groups task sees
    ~#distinct-pairs/n_buckets rows): size it so a bucket fits a worker
    heap — the assignment is user_id % n_buckets, so any power of two
    preserves correctness."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type"]
    )

    def dedup_partial(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["user_id", "event_type"]).aggregate([])
        return t.append_column(
            "_bucket",
            pc.cast(
                pc.bit_wise_and(t["user_id"], pa.scalar(n_buckets - 1)),
                pa.int64(),
            ),
        )

    merge = group_sum_merge(("type_a", "type_b"), ("n_users",))

    def bucket_pairs(df: pd.DataFrame) -> pa.Table:
        m = pd.crosstab(df["user_id"], df["event_type"]).clip(upper=1)
        co = m.T.to_numpy() @ m.to_numpy()  # types × types co-occurrence
        types = list(m.columns)
        rows = [
            (types[i], types[j], int(co[i, j]))
            for i in range(len(types))
            for j in range(i + 1, len(types))
            if co[i, j] > 0
        ]
        return pa.table(  # explicit types: an empty pair set stays typed
            {
                "type_a": pa.array([r[0] for r in rows], pa.string()),
                "type_b": pa.array([r[1] for r in rows], pa.string()),
                "n_users": pa.array([r[2] for r in rows], pa.int64()),
            }
        )

    partials = (
        ev.map_batches(dedup_partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(bucket_pairs, batch_format="pandas")
    )
    return tree_combine(partials, merge)


# ------------------------------------------------- unigram-LM doc scoring
def doc_unigram_logprob(sf_dir: str) -> Dataset:
    """Corpus-LM document scoring (the perplexity-filter curation signal):
    fit a unigram language model over the whole corpus, then score every
    document by its total log-probability — the standard 'how typical is
    this text' quality feature. Two streaming passes: (1) token census
    (map-side partial counts, tree-combined over the vocabulary-sized key
    domain) collected and broadcast as a token→ln p(token) dict; (2) a
    pure map pass scoring each doc as Σ ln p(tokenᵢ). The shuffle moves
    vocabulary-sized partials only; scoring is embarrassingly parallel.
    Oracle mirrors Σ(ln(count) − ln(total)) term-for-term; only double
    summation order differs (documented kmeans/PCA fragility class —
    per-doc sums are a few hundred terms, error ~1e-12 against a 5e-5
    rounding boundary)."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    merge = group_sum_merge(("token",), ("c",))

    def census_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch["text"].to_pylist():
            if text:
                c.update(_TOKEN_RE.findall(text))
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "c": pa.array(list(c.values()), pa.int64()),
            }
        )

    census = tree_combine(
        docs.map_batches(census_partial, batch_format="pyarrow"), merge
    ).to_pandas()  # vocabulary-sized by construction (tree_combine bound)
    if census.empty:  # empty corpus: typed empty result (no broadcast)
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "logprob": pa.array([], pa.float64()),
                }
            )
        )
    total = float(census["c"].sum())
    logp = {
        t: float(np.log(c) - np.log(total))
        for t, c in zip(census["token"], census["c"])
    }
    logp_ref = ray.put(logp)

    def score(batch: pa.Table, ref=logp_ref) -> pa.Table:
        lp = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        ids, n_toks, scores = [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            toks = _TOKEN_RE.findall(text) if text else []
            if not toks:  # mirror the oracle's GROUP BY over present tokens
                continue
            ids.append(doc_id)
            n_toks.append(len(toks))
            scores.append(
                float(np.fromiter((lp[t] for t in toks), np.float64).sum())
            )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n_toks, pa.int64()),
                "logprob": pa.array(
                    round_half_away(np.array(scores, np.float64), 4),
                    pa.float64(),
                ),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------- fuzzy string-similarity join
FUZZY_MAX_NAMES = 10_000


def _lev_leq(a: str, b: str, k: int = 2) -> int | None:
    """Banded Levenshtein: the distance if ≤ k, else None. Only the
    diagonal band |i−j| ≤ k is computed (O(k·|a|)); rows whose in-band
    minimum exceeds k exit early."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return None
    big = k + 1
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [big] * (lb + 1)
        if i <= k:
            cur[0] = i
        lo, hi = max(1, i - k), min(lb, i + k)
        best = cur[0]  # the j=0 column is in the band while i <= k
        ai = a[i - 1]
        for j in range(lo, hi + 1):
            cost = 0 if ai == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            cur[j] = v
            if v < best:
                best = v
        if best > k:
            return None
        prev = cur
    return prev[lb] if prev[lb] <= k else None


def part_fuzzy_pairs(
    sf_dir: str, max_dist: int = 2, route: str = "auto"
) -> Dataset:
    """Fuzzy string-similarity self-join: all pairs of DISTINCT part names
    within edit distance ``max_dist`` (the entity-resolution primitive for
    dirty dimension data). Size-adaptive: below ``FUZZY_MAX_NAMES``
    distinct names the sorted census broadcasts and the pair sweep shards
    over Ray tasks by row range (length-band pruning + banded-DP
    Levenshtein); past the cap it routes to the PassJoin-style
    SEGMENT-BLOCKING path (``_fuzzy_pairs_blocked``) — sound and complete
    by pigeonhole, constant emitted rows per name, one segment-key
    groupby, no all-pairs sweep. ``route`` forces "broadcast" / "blocked"
    (equivalence-tested on both the corpus and a planted edit set)."""
    part = read_parquet_clean(_p(sf_dir, "part"), columns=["p_name"])
    merge = group_sum_merge(("p_name",), ())

    def distinct_partial(batch: pa.Table) -> pa.Table:
        return batch.group_by(["p_name"]).aggregate([])

    census_ds = tree_combine(
        part.map_batches(distinct_partial, batch_format="pyarrow"), merge
    )
    if route == "blocked":
        return _fuzzy_pairs_blocked(census_ds, max_dist)
    census = census_ds.to_pandas()
    if census.empty:  # empty table: typed empty result
        return rd.from_arrow(
            pa.table(
                {
                    "name_a": pa.array([], pa.string()),
                    "name_b": pa.array([], pa.string()),
                    "dist": pa.array([], pa.int64()),
                }
            )
        )
    names = sorted(census["p_name"].tolist())
    if len(names) > FUZZY_MAX_NAMES:
        if route == "broadcast":
            raise ValueError(
                f"part_fuzzy_pairs: {len(names)} distinct names exceeds "
                f"FUZZY_MAX_NAMES={FUZZY_MAX_NAMES} and route='broadcast' "
                "pins the quadratic sweep — use route='auto'/'blocked'"
            )
        return _fuzzy_pairs_blocked(census_ds, max_dist)
    names_arr = np.array(names, dtype=object)
    lens = np.array([len(n) for n in names], dtype=np.int64)
    names_ref = ray.put((names_arr, lens))

    idx = rd.range(len(names), override_num_blocks=max(1, len(names) // 512))

    def sweep(batch: dict, ref=names_ref, k=max_dist) -> pa.Table:
        nm, ln = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        a_out, b_out, d_out = [], [], []
        for i in batch["id"]:
            i = int(i)
            cand = np.nonzero(np.abs(ln[i + 1 :] - ln[i]) <= k)[0] + i + 1
            ai = nm[i]
            for j in cand:
                d = _lev_leq(ai, nm[j], k)
                if d is not None:
                    a_out.append(ai)
                    b_out.append(nm[j])
                    d_out.append(d)
        return pa.table(
            {
                "name_a": pa.array(a_out, pa.string()),
                "name_b": pa.array(b_out, pa.string()),
                "dist": pa.array(d_out, pa.int64()),
            }
        )

    return idx.map_batches(sweep, batch_size=512, batch_format="numpy")


# ---------------------------------------------- sequence transition census
def events_type_transitions(sf_dir: str, n_buckets: int = 64) -> Dataset:
    """Markov transition census: counts of consecutive (prev_type →
    next_type) pairs within each user's event stream ordered by
    (ts, event_id) — the LAG()-window sequence-pattern class (funnels are
    its ordered cousin; this is the unordered census). ONE int-key bucket
    shuffle co-locates each user's fixed-width rows; the per-bucket sweep
    is fully vectorized (sort + shift, no per-user loop) and emits
    #type² partials that tree-combine. Hot users cost their own event
    count in one bucket (same bound as events_funnel; its two-level
    bucket-carry variant is the template if a >10⁶-event user became
    real). ``n_buckets`` is the task-size knob (one map_groups task sees
    ~#events/n_buckets rows): size it so a bucket fits a worker heap —
    user_id % n_buckets keeps every user whole at any power of two."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket",
            pc.cast(
                pc.bit_wise_and(batch["user_id"], pa.scalar(n_buckets - 1)),
                pa.int64(),
            ),
        )

    merge = group_sum_merge(("prev_type", "next_type"), ("n",))

    def bucket_transitions(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        same_user = df["user_id"].to_numpy()[1:] == df["user_id"].to_numpy()[:-1]
        types = df["event_type"].to_numpy()
        prev_t = types[:-1][same_user]
        next_t = types[1:][same_user]
        t = pa.table(
            {
                "prev_type": pa.array(prev_t, pa.string()),
                "next_type": pa.array(next_t, pa.string()),
                "n": pa.array(np.ones(len(prev_t), np.int64), pa.int64()),
            }
        )
        return merge(t)

    partials = (
        ev.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(bucket_transitions, batch_format="pandas")
    )
    return tree_combine(partials, merge)


# ------------------------------------------------ inverted-index construction
def corpus_posting_lists(sf_dir: str, top_k: int = 50, post_k: int = 10) -> Dataset:
    """Retrieval-index construction: for the ``top_k`` tokens by document
    frequency, the document frequency and the first ``post_k`` posting doc
    ids (ascending). Document == row, so per-batch df partials are EXACT
    (each doc lands in exactly one batch — the tfidf precedent) and the
    capped posting list is an associative smallest-k merge: the whole
    index build is map-side partials + one vocabulary-sized tree combine,
    no token-key sort shuffle. Postings travel as a comma-joined string
    (NOTES.md: list payloads serialize through shuffles)."""
    from ..runtime.combine import topk_merge

    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        df_ = t.to_pandas()
        rows = []
        for token, g in df_.groupby("token", sort=True):
            ids = np.unique(
                np.concatenate(
                    [
                        np.fromstring(s, dtype=np.int64, sep=",")
                        for s in g["postings"]
                    ]
                )
            )[:post_k]
            rows.append(
                (token, int(g["df"].sum()), ",".join(str(i) for i in ids))
            )
        return pa.table(
            {
                "token": pa.array([r[0] for r in rows], pa.string()),
                "df": pa.array([r[1] for r in rows], pa.int64()),
                "postings": pa.array([r[2] for r in rows], pa.string()),
            }
        )

    def partial(batch: pa.Table) -> pa.Table:
        tok_df: dict[str, int] = {}
        tok_post: dict[str, list[int]] = {}
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            if not text:
                continue
            for tok in set(_TOKEN_RE.findall(text)):
                tok_df[tok] = tok_df.get(tok, 0) + 1
                post = tok_post.setdefault(tok, [])
                if len(post) < post_k or doc_id < post[-1]:
                    post.append(doc_id)
                    post.sort()
                    del post[post_k:]
        return pa.table(
            {
                "token": pa.array(list(tok_df.keys()), pa.string()),
                "df": pa.array(list(tok_df.values()), pa.int64()),
                "postings": pa.array(
                    [
                        ",".join(str(i) for i in tok_post[t])
                        for t in tok_df
                    ],
                    pa.string(),
                ),
            }
        )

    combined = tree_combine(docs.map_batches(partial, batch_format="pyarrow"), merge)
    cut = topk_merge(top_k, "df", ("token",))
    return tree_combine(combined, cut)


# ------------------------------------------------------- Count-Min sketch
CMS_DEPTH = 4
CMS_WIDTH = 1024


def _cms_col(r: int, key: str) -> int:
    """Row-r Count-Min column for key (md5_number_upper parity: first 8
    md5 bytes little-endian, mod width — the doc_split_assign hash)."""
    return (
        int.from_bytes(
            hashlib.md5(f"{r}|{key}".encode("utf-8")).digest()[:8], "little"
        )
        % CMS_WIDTH
    )


def events_user_freq_cms(sf_dir: str, n_probes: int = 10) -> Dataset:
    """Count-Min sketch frequency estimation (mergeable-sketch class,
    alongside the HLL distinct-count and Misra-Gries heavy-hitter
    sketches): per-batch (row, col) register partials — at most
    depth × width fixed-width rows per block through the shuffle
    regardless of corpus size — tree-combined by element-wise sum (CMS
    merge is associative), then ``est(u) = min_r reg[r, h_r(u)]`` for the
    probe users, reported next to the exact count (over-estimation bound
    visible in the output). The md5-derived hashes are replayed
    bit-for-bit by the DuckDB oracle (HLL precedent)."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id"])
    merge = group_sum_merge(("kind", "r", "col"), ("cnt",))
    probes = list(range(n_probes))

    def partial(batch: pa.Table) -> pa.Table:
        users, counts = np.unique(
            batch["user_id"].to_numpy(zero_copy_only=False), return_counts=True
        )
        kinds, rs, cols, cnts = [], [], [], []
        for u, c in zip(users, counts):
            for r in range(CMS_DEPTH):
                kinds.append(0)
                rs.append(r)
                cols.append(_cms_col(r, str(int(u))))
                cnts.append(int(c))
            if 0 <= u < n_probes:  # exact side for the probe users
                kinds.append(1)
                rs.append(0)
                cols.append(int(u))
                cnts.append(int(c))
        return merge(
            pa.table(
                {
                    "kind": pa.array(kinds, pa.int64()),
                    "r": pa.array(rs, pa.int64()),
                    "col": pa.array(cols, pa.int64()),
                    "cnt": pa.array(cnts, pa.int64()),
                }
            )
        )

    combined = tree_combine(ev.map_batches(partial, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        df = t.to_pandas()  # ≤ depth×width + n_probes rows by construction
        regs = {
            (int(row.r), int(row.col)): int(row.cnt)
            for row in df[df["kind"] == 0].itertuples()
        }
        exact = {
            int(row.col): int(row.cnt)
            for row in df[df["kind"] == 1].itertuples()
        }
        est = [
            min(regs.get((r, _cms_col(r, str(u))), 0) for r in range(CMS_DEPTH))
            for u in probes
        ]
        return pa.table(
            {
                "user_id": pa.array(probes, pa.int64()),
                "est_count": pa.array(est, pa.int64()),
                "exact_count": pa.array(
                    [exact.get(u, 0) for u in probes], pa.int64()
                ),
            }
        )

    return combined.map_batches(finish, batch_size=None, batch_format="pyarrow")


# --------------------------------------------------------------- CUBE
def orders_cube(sf_dir: str) -> Dataset:
    """CUBE aggregate — all four grouping sets of (priority, status) in
    ONE pass (completes the grouping-sets family next to orders_rollup's
    hierarchy): every batch emits partials for (pr,st), (pr,·), (·,st),
    (·,·) with NULL sentinels and a single associative tree combine
    merges them. Key domain stays enumerable (5×3 + 5 + 3 + 1 rows)."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"),
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )
    merge = group_sum_merge(
        ("o_orderpriority", "o_orderstatus"), ("n_orders", "sum_price")
    )

    def levels(batch: pa.Table) -> pa.Table:
        pr = batch["o_orderpriority"]
        st = batch["o_orderstatus"]
        tp = batch["o_totalprice"].cast(pa.float64())
        n = batch.num_rows
        null_s = pa.array([None] * n, pa.string())
        parts = []
        for p_col, s_col in (
            (pr, st),
            (pr, null_s),
            (null_s, st),
            (null_s, null_s),
        ):
            parts.append(
                pa.table(
                    {
                        "o_orderpriority": p_col,
                        "o_orderstatus": s_col,
                        "n_orders": pa.array([1] * n, pa.int64()),
                        "sum_price": tp,
                    }
                )
            )
        return merge(pa.concat_tables(parts))

    out = tree_combine(orders.map_batches(levels, batch_format="pyarrow"), merge)
    return out.map_batches(
        lambda t: _round_cols(t, ("sum_price",)), batch_format="pyarrow"
    )


# ----------------------------------------------------------- doc chunking
CHUNK_SIZE = 64
CHUNK_STRIDE = 48  # 16-token overlap


def doc_chunks(sf_dir: str) -> Dataset:
    """Overlapping fixed-token-window chunking — the RAG / long-context
    training-data expansion op (one doc → many chunk rows). Pure
    ``flat_map``-class transform: embarrassingly parallel, output rows
    carry (doc_id, chunk_idx) provenance plus the chunk token count and a
    content fingerprint (md5 of the space-joined chunk tokens — DuckDB
    md5() parity), so downstream dedup/contamination can run per chunk.
    Chunk grid frozen as starts = 0, 48, 96, … < n_tokens with a 64-token
    window (last chunk may be short)."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def chunk(batch: pa.Table) -> pa.Table:
        ids, idxs, ns, fps = [], [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            toks = _TOKEN_RE.findall(text) if text else []
            for ci, start in enumerate(range(0, len(toks), CHUNK_STRIDE)):
                ck = toks[start : start + CHUNK_SIZE]
                ids.append(doc_id)
                idxs.append(ci)
                ns.append(len(ck))
                fps.append(hashlib.md5(" ".join(ck).encode("utf-8")).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk_idx": pa.array(idxs, pa.int64()),
                "n_tokens": pa.array(ns, pa.int64()),
                "chunk_fp": pa.array(fps, pa.string()),
            }
        )

    return docs.map_batches(chunk, batch_format="pyarrow")


# -------------------------------------------------------- deny-list masking
REDACT_TERMS = ("spark", "dup")
_REDACT_RE = re.compile(r"\b(" + "|".join(REDACT_TERMS) + r")\b")


def doc_redact_terms(sf_dir: str) -> Dataset:
    """Deny-list scrubbing — blocked-term masking with telemetry (the
    shape of PII/compliance redaction: vectorizable regex rewrite plus
    per-doc counts; swap the term pattern for email/phone/SSN patterns on
    a real corpus). Pure map; the RE2-compatible pattern runs identically
    in DuckDB regexp_replace/extract_all, and the masked-content md5
    fingerprint pins the rewrite byte-for-byte."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def redact(batch: pa.Table) -> pa.Table:
        n_masked, fps = [], []
        for text in batch["text"].to_pylist():
            t = text or ""
            masked, n = _REDACT_RE.subn("[MASKED]", t)
            n_masked.append(n)
            fps.append(hashlib.md5(masked.encode("utf-8")).hexdigest())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_masked": pa.array(n_masked, pa.int64()),
                "masked_fp": pa.array(fps, pa.string()),
            }
        )

    return docs.map_batches(redact, batch_format="pyarrow")


# --------------------------------------------------------- BPE training
BPE_MERGES = 6


def corpus_bpe_merges(sf_dir: str, n_merges: int = BPE_MERGES) -> Dataset:
    """BPE tokenizer training — learn the first ``n_merges`` byte-pair
    merges over the corpus (the subword-vocabulary op every LLM data
    pipeline runs before tokenization). Classic two-phase design: the
    DISTRIBUTED phase is a word-frequency census (map-side partials,
    vocabulary-sized tree combine — BPE trains on the word-count dict,
    not the corpus stream, exactly as reference implementations do); the
    merge loop then runs on the collected dict (vocabulary-sized driver
    state, integer-exact so fully deterministic). Pair choice: max
    summed frequency, ties to the lexicographically smallest 'left
    right' string; merge is the standard left-to-right non-overlapping
    scan. The oracle unrolls the same rounds in SQL (kmeans/pagerank
    precedent) with a list_reduce fold proven equivalent to the scan
    (the merged token can never equal its own left symbol). Raises
    loudly if the corpus runs out of pairs before ``n_merges`` (row-count
    contract with the oracle)."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])
    merge = group_sum_merge(("word",), ("n",))

    def census_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch["text"].to_pylist():
            if text:
                c.update(_WORD_RE.findall(text.lower()))
        return pa.table(
            {
                "word": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    census = tree_combine(
        docs.map_batches(census_partial, batch_format="pyarrow"), merge
    ).to_pandas()
    if census.empty:  # empty corpus = zero pairs: the contracted loud raise
        raise ValueError(
            f"corpus_bpe_merges: pairs exhausted after 0 of "
            f"{n_merges} merges — corpus too small for the contract"
        )

    vocab: dict[str, tuple[int, list[str]]] = {
        w: (int(n), list(w)) for w, n in zip(census["word"], census["n"])
    }
    rows = []
    for it in range(1, n_merges + 1):
        pairs: Counter = Counter()
        for n, syms in vocab.values():
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += n
        if not pairs:
            raise ValueError(
                f"corpus_bpe_merges: pairs exhausted after {it - 1} of "
                f"{n_merges} merges — corpus too small for the contract"
            )
        (a, b), cnt = min(
            pairs.items(), key=lambda kv: (-kv[1], f"{kv[0][0]} {kv[0][1]}")
        )
        rows.append((it, a, b, a + b, cnt))
        new = a + b
        for w, (n, syms) in vocab.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(new)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            vocab[w] = (n, out)

    return rd.from_arrow(
        pa.table(
            {
                "merge_idx": pa.array([r[0] for r in rows], pa.int64()),
                "left_sym": pa.array([r[1] for r in rows], pa.string()),
                "right_sym": pa.array([r[2] for r in rows], pa.string()),
                "merged": pa.array([r[3] for r in rows], pa.string()),
                "freq": pa.array([r[4] for r in rows], pa.int64()),
            }
        )
    )


# ------------------------------------------------------- PMI collocations
PMI_MIN_COUNT = 5


def corpus_pmi_top50(sf_dir: str, min_count: int = PMI_MIN_COUNT) -> Dataset:
    """Pointwise-mutual-information collocations: top 50 adjacent word
    bigrams by PMI = ln(n_ab * T / (n_a * n_b)) with a min-count floor —
    the association score behind phrase detection (word2vec-style
    phrase merging) and collocation curation. Two vocabulary-sized
    censuses (unigram + bigram map-side partials, no per-occurrence
    shuffle); the unigram census broadcasts as a dict (corpus-vocabulary
    bound, the doc_unigram_logprob precedent) and scoring + top-k run as
    an associative tree cut. Integer products stay exact (< 2^53) before
    ONE double division per bigram, so the score is bit-identical to the
    oracle's; floor ``min_count`` keeps the scored table vocabulary-ish
    (rare-pair PMI is noise anyway, the standard practice)."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])

    def uni_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            c.update(_WORD_RE.findall((t or "").lower()))
        return pa.table(
            {
                "word": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    uni = tree_combine(
        docs.map_batches(uni_partial, batch_format="pyarrow"),
        group_sum_merge(("word",), ("n",)),
    ).to_pandas()
    if uni.empty:  # empty corpus: typed empty result, no broadcast pass
        return rd.from_arrow(
            pa.table(
                {
                    "bg": pa.array([], pa.string()),
                    "n_ab": pa.array([], pa.int64()),
                    "pmi": pa.array([], pa.float64()),
                }
            )
        )
    uni_map = {w: int(n) for w, n in zip(uni["word"], uni["n"])}
    total = int(uni["n"].sum())
    uni_ref = ray.put(uni_map)

    def bg_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            ws = _WORD_RE.findall((t or "").lower())
            c.update(f"{a} {b}" for a, b in zip(ws, ws[1:]))
        return pa.table(
            {
                "bg": pa.array(list(c.keys()), pa.string()),
                "n_ab": pa.array(list(c.values()), pa.int64()),
            }
        )

    bg = tree_combine(
        docs.map_batches(bg_partial, batch_format="pyarrow"),
        group_sum_merge(("bg",), ("n_ab",)),
    ).map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_ab"], min_count)),
        batch_format="pyarrow",
    )

    def score(batch: pa.Table) -> pa.Table:
        u = ray.get(uni_ref)
        bgs = batch["bg"].to_pylist()
        n_ab = batch["n_ab"].to_numpy().astype(np.int64)
        den = np.array(
            [u[a] * u[b] for a, b in (s.split(" ") for s in bgs)], np.int64
        )
        pmi = np.log((n_ab * total).astype(np.float64) / den.astype(np.float64))
        return pa.table(
            {
                "bg": batch["bg"],
                "n_ab": batch["n_ab"],
                "pmi": pa.array(round_half_away(pmi, 4), pa.float64()),
            }
        )

    scored = bg.map_batches(score, batch_format="pyarrow")
    return tree_combine(scored, topk_merge(50, "pmi", ("bg",)))


# ------------------------------------------------- per-user calendar gap-fill
def events_user_daily_gapfill(sf_dir: str, n_buckets: int = 64) -> Dataset:
    """Calendar gap-fill: per-user daily (count, sum) with every missing
    day between that user's first and last active day zero-filled — the
    dimension-generation + left-join pattern every time-series feature
    pipeline needs (a model reading \"events per day\" must see explicit
    zeros, not absent rows). Map-side (user, day) partials → ONE int-key
    user-bucket shuffle → per-bucket fully vectorized fill (span
    calendars materialize via a cumsum-offset arange, no per-user loop).
    A user's cost is bounded by their active-day span, not their event
    count; ``n_buckets`` is the task-size knob (transitions precedent)."""
    day_us = 86_400_000_000
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts", "value"]
    )
    merge = group_sum_merge(("user_id", "day"), ("n_events", "sum_value"))

    def partial(batch: pa.Table) -> pa.Table:
        micros = pc.cast(batch["ts"], pa.int64())
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "day": pc.multiply(
                    _tbucket_of(micros, day_us), pa.scalar(day_us, pa.int64())
                ),
                "n_events": pa.array(np.ones(batch.num_rows, np.int64)),
                "sum_value": pc.cast(batch["value"], pa.float64()),
            }
        )
        mt = merge(t)
        return mt.append_column(
            "_bucket",
            pc.cast(
                pc.bit_wise_and(mt["user_id"], pa.scalar(n_buckets - 1)),
                pa.int64(),
            ),
        )

    def bucket_fill(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["user_id", "day"], as_index=False).agg(
            n_events=("n_events", "sum"), sum_value=("sum_value", "sum")
        )
        b = g.groupby("user_id")["day"].agg(["min", "max"])
        spans = ((b["max"] - b["min"]) // day_us + 1).to_numpy(np.int64)
        idx = np.arange(int(spans.sum()), dtype=np.int64)
        offs = idx - np.repeat(np.cumsum(spans) - spans, spans)
        cal = pd.DataFrame(
            {
                "user_id": np.repeat(b.index.to_numpy(), spans),
                "day": np.repeat(b["min"].to_numpy(), spans) + offs * day_us,
            }
        )
        out = cal.merge(g, on=["user_id", "day"], how="left")
        out["n_events"] = out["n_events"].fillna(0).astype(np.int64)
        out["sum_value"] = round_half_away(
            out["sum_value"].fillna(0.0).to_numpy(), 4
        )
        return pa.table(
            {
                "user_id": pa.array(out["user_id"].to_numpy(), pa.int64()),
                "day": pa.array(out["day"].to_numpy(), pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "n_events": pa.array(out["n_events"].to_numpy(), pa.int64()),
                "sum_value": pa.array(out["sum_value"], pa.float64()),
            }
        )

    return (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(bucket_fill, batch_format="pandas")
    )


# ----------------------------------------------------------- NTILE window
def events_value_ntile(
    sf_dir: str, tiles: int = 4, n_buckets: int = 64
) -> Dataset:
    """NTILE window: assign each event its within-user value quartile
    (ORDER BY value, event_id — fully deterministic) — the rank-based
    bucketing window class (row_number/lag/cumsum/moving-avg cousins all
    exist; this adds the tile family used for per-entity feature binning).
    ONE user-bucket shuffle, per-bucket vectorized rank (mergesort +
    cumcount — no per-user loop), then the exact NTILE split: the first
    n % tiles buckets take ceil(n/tiles) rows."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "value"]
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket",
            pc.cast(
                pc.bit_wise_and(batch["user_id"], pa.scalar(n_buckets - 1)),
                pa.int64(),
            ),
        )

    def bucket_ntile(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "value", "event_id"], kind="mergesort")
        n = df.groupby("user_id")["event_id"].transform("size").to_numpy(np.int64)
        r = df.groupby("user_id").cumcount().to_numpy(np.int64)
        small = n // tiles
        large = n % tiles
        big_span = large * (small + 1)
        q = (
            np.where(
                r < big_span,
                r // np.maximum(small + 1, 1),
                large + (r - big_span) // np.maximum(small, 1),
            )
            + 1
        )
        return pa.table(
            {
                "event_id": pa.array(df["event_id"].to_numpy(), pa.int64()),
                "user_id": pa.array(df["user_id"].to_numpy(), pa.int64()),
                "quartile": pa.array(q.astype(np.int64), pa.int64()),
            }
        )

    return (
        ev.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(bucket_ntile, batch_format="pandas")
    )


# ------------------------------------------------------- per-group HLL
def events_type_user_hll(sf_dir: str) -> Dataset:
    """Sketch-per-key: distinct users PER EVENT TYPE via one HLL (m=256,
    md5 — deterministic, oracle replays the registers) per group, next to
    the exact count and relative error. The register partials are keyed
    (event_type, j) and merge through an associative per-register MAX, so
    the sketch side of the shuffle moves ≤ #types × 256 rows per block no
    matter the corpus — the grouped version of events_user_count_hll's
    global sketch (the pattern that replaces count-distinct-per-key at
    100 TB). The exact side (needed for the reported rel_err) is the
    user-vocabulary groupby the sketch exists to avoid."""
    from ..runtime.combine import group_agg_merge

    m, p = HLL_M, 8
    wbits = 64 - p
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "user_id"]
    )
    merge = group_agg_merge(("event_type", "j"), maxs=("rho",))

    def partials(batch: pa.Table) -> pa.Table:
        regs: dict[tuple[str, int], int] = {}
        seen = set(
            zip(batch["event_type"].to_pylist(), batch["user_id"].to_pylist())
        )
        for et, u in seen:
            h = int.from_bytes(
                hashlib.md5(str(u).encode("utf-8")).digest()[:8], "little"
            )
            j, w = h % m, h >> p
            rho = (wbits + 1) if w == 0 else (wbits - w.bit_length() + 1)
            if rho > regs.get((et, j), 0):
                regs[(et, j)] = rho
        ks = sorted(regs)
        return pa.table(
            {
                "event_type": pa.array([k[0] for k in ks], pa.string()),
                "j": pa.array([k[1] for k in ks], pa.int64()),
                "rho": pa.array([regs[k] for k in ks], pa.int64()),
            }
        )

    regs = tree_combine(
        ev.map_batches(partials, batch_format="pyarrow"), merge
    ).to_pandas()
    if regs.empty:  # empty table: typed empty result, skip the exact pass
        return rd.from_arrow(
            pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "hll_estimate": pa.array([], pa.float64()),
                    "n_exact": pa.array([], pa.int64()),
                    "rel_err": pa.array([], pa.float64()),
                }
            )
        )

    # exact side: ONE user-vocab groupby dedups (event_type, user) pairs;
    # the per-type count is a map-side partial + tree combine (a second
    # sort-aggregate here emits the empty-block schema warning)
    pairs = ev.groupby(["event_type", "user_id"]).aggregate(
        Count(alias_name="c")
    )
    merge_exact = group_sum_merge(("event_type",), ("n_exact",))

    def type_partial(t: pa.Table) -> pa.Table:
        return merge_exact(
            pa.table(
                {
                    "event_type": t["event_type"],
                    "n_exact": pa.array(np.ones(t.num_rows, np.int64)),
                }
            )
        )

    exact = tree_combine(
        pairs.map_batches(type_partial, batch_format="pyarrow"), merge_exact
    ).to_pandas()
    n_exact = {t: int(n) for t, n in zip(exact["event_type"], exact["n_exact"])}

    alpha = 0.7213 / (1 + 1.079 / m)
    types, ests, exacts, errs = [], [], [], []
    for et, g in regs.groupby("event_type", sort=True):
        s = sum(2.0 ** -r for r in g["rho"])
        nz = len(g)
        est = alpha * m * m / (s + (m - nz))
        v = m - nz
        if est <= 2.5 * m and v > 0:
            est = m * np.log(m / v)
        ne = n_exact[et]
        types.append(et)
        ests.append(est)
        exacts.append(ne)
        errs.append(abs(est - ne) / ne)
    return rd.from_arrow(
        pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "hll_estimate": pa.array(
                    round_half_away(np.array(ests), 4), pa.float64()
                ),
                "n_exact": pa.array(exacts, pa.int64()),
                "rel_err": pa.array(
                    round_half_away(np.array(errs), 4), pa.float64()
                ),
            }
        )
    )


# ------------------------------------------------ weighted priority sample
def doc_sample_weighted(sf_dir: str, k: int = 20) -> Dataset:
    """Weighted priority sampling: k docs by smallest priority
    u / (n_chars + 1), u = 53-bit md5 of the doc id — longer docs are
    proportionally likelier to be drawn (the length-weighted sampling a
    token-budgeted training mix needs), yet the draw is fully
    deterministic and reproducible at any cluster size. u stays < 2^53 so
    the single IEEE division is bit-identical in numpy and DuckDB — the
    SELECTION is exact, not tolerance-based. Per-batch local bottom-k →
    associative tree cut; the shuffle moves k × #blocks slim rows."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "n_chars"]
    )

    def score(batch: pa.Table) -> pa.Table:
        u = np.array(
            [
                int.from_bytes(
                    hashlib.md5(str(i).encode("utf-8")).digest()[:8], "little"
                )
                % (1 << 53)
                for i in batch["doc_id"].to_pylist()
            ],
            np.int64,
        )
        w = batch["n_chars"].to_numpy().astype(np.int64) + 1
        pr = u.astype(np.float64) / w.astype(np.float64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pc.cast(batch["n_chars"], pa.int64()),
                "priority": pa.array(pr, pa.float64()),
                "_negp": pa.array(-pr, pa.float64()),
            }
        )

    cut = topk_merge(k, "_negp", ("doc_id",))
    out = tree_combine(docs.map_batches(score, batch_format="pyarrow"), cut)
    # priority stays UNROUNDED: it is bit-identical to the oracle by
    # construction (one IEEE division of exact operands), and round(·, 4)
    # on ~1e12-magnitude values is where numpy and DuckDB diverge (the
    # ×10⁴ scaling multiply rounds differently) — rounding would CREATE
    # the mismatch it usually prevents.
    return out.map_batches(
        lambda t: t.drop_columns(["_negp"]), batch_format="pyarrow"
    )


# ---------------------------------------------------------- word entropy
def doc_entropy(sf_dir: str) -> Dataset:
    """Per-document word-distribution entropy (nats) — the
    low-information-content curation filter next to repetition and
    unigram-LM scoring (boilerplate and keyword-stuffed docs score low;
    H = ln n − Σ c·ln c / n over the word histogram). Pure map pass.
    Float parity note: only the Σ c·ln c summation ORDER differs from the
    oracle (documented kmeans/PCA fragility class; ≤ a few hundred terms
    per doc, error ~1e-13 against the 5e-5 rounding boundary)."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        n_words, ents = [], []
        for text in batch["text"].to_pylist():
            ws = _WORD_RE.findall((text or "").lower())
            n = len(ws)
            n_words.append(n)
            if n == 0:
                ents.append(0.0)
                continue
            c = np.array(list(Counter(ws).values()), np.float64)
            ents.append(float(np.log(n) - np.sum(c * np.log(c)) / n))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(n_words, pa.int64()),
                "entropy": pa.array(
                    round_half_away(np.array(ents), 4), pa.float64()
                ),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


# ------------------------------------------------- skip-gram pair census
def corpus_skipgram_top50(sf_dir: str, window: int = 2) -> Dataset:
    """Skip-gram (window ±2) co-occurrence census, top 50 ordered pairs —
    the training-pair generation step of word2vec-class embedding
    pipelines (the PMI/bigram censuses' wider-context sibling). Counts
    are INTEGER-exact end to end (no float parity risk); map-side partial
    Counters per batch → pair-vocabulary-sized tree combine → associative
    top-k cut, no per-occurrence shuffle."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])
    merge = group_sum_merge(("pair",), ("n",))

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            ws = _WORD_RE.findall((t or "").lower())
            for d in range(1, window + 1):
                c.update(f"{a} {b}" for a, b in zip(ws, ws[d:]))
        return pa.table(
            {
                "pair": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    counts = tree_combine(
        docs.map_batches(partial, batch_format="pyarrow"), merge
    )
    return tree_combine(counts, topk_merge(50, "n", ("pair",)))


# ------------------------------------------------- normalized-text dedup
_WS_RE = re.compile(r"\s+")


def dedup_normalized(sf_dir: str) -> Dataset:
    """Normalization-keyed exact dedup — the casefold/whitespace-collapse
    variant every curation pipeline runs before (or instead of) byte
    dedup: docs differing only in case or whitespace runs collapse to one
    survivor (min doc_id) with a duplicate count. The shuffle moves
    (md5-of-normalized, min_id, count) partials only — the normalized
    TEXT never leaves the map side; string-exact end to end (no float
    parity surface)."""
    from ..runtime.combine import group_agg_merge

    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    merge = group_agg_merge(("norm_fp",), sums=("n_dups",), mins=("doc_id",))

    def partial(batch: pa.Table) -> pa.Table:
        fps = [
            hashlib.md5(
                _WS_RE.sub(" ", (t or "").lower()).encode("utf-8")
            ).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return merge(
            pa.table(
                {
                    "norm_fp": pa.array(fps, pa.string()),
                    "n_dups": pa.array(np.ones(len(fps), np.int64)),
                    "doc_id": batch["doc_id"],
                }
            )
        )

    return tree_combine(docs.map_batches(partial, batch_format="pyarrow"), merge)


# ------------------------------------------------- time-to-next-event
def events_time_to_next(sf_dir: str, n_buckets: int = 64) -> Dataset:
    """LEAD-window feature: microseconds to the user's NEXT event (the
    inter-arrival feature behind churn/engagement models; the LAG-class
    transition census's forward-looking sibling). One int-key user-bucket
    shuffle, fully vectorized sort+shift per bucket, integer-exact
    deltas — no float parity surface. Rows without a successor drop (the
    oracle's WHERE nxt IS NOT NULL)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket",
            pc.cast(
                pc.bit_wise_and(batch["user_id"], pa.scalar(n_buckets - 1)),
                pa.int64(),
            ),
        )

    def bucket_deltas(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = df["user_id"].to_numpy(np.int64)
        tus = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        same = uid[1:] == uid[:-1]
        return pa.table(
            {
                "event_id": pa.array(
                    df["event_id"].to_numpy(np.int64)[:-1][same], pa.int64()
                ),
                "user_id": pa.array(uid[:-1][same], pa.int64()),
                "delta_us": pa.array(
                    (tus[1:] - tus[:-1])[same], pa.int64()
                ),
            }
        )

    return (
        ev.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(bucket_deltas, batch_format="pandas")
    )


# ------------------------------------------------- robust stats (MAD)
def lineitem_qty_mad(sf_dir: str) -> Dataset:
    """Median absolute deviation per group — the robust-dispersion
    sibling of lineitem_qty_stats' stddev. ONE streamed pass builds the
    per-group VALUE-DOMAIN census (group_keys × distinct values —
    enumerable for bounded domains like quantities); both medians (the
    value median and the deviation median) then fall out of the collected
    census by weighted-median arithmetic on the driver, so the corpus is
    never re-scanned for the second median. Interpolation ((lo+hi)/2 at
    even counts) replays DuckDB's median(); all arithmetic stays on
    exact-in-double integers and quarters — no rounding surface."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_returnflag", "l_quantity"]
    )
    merge = group_sum_merge(("l_returnflag", "l_quantity"), ("n",))

    def partial(batch: pa.Table) -> pa.Table:
        return merge(
            pa.table(
                {
                    "l_returnflag": batch["l_returnflag"],
                    "l_quantity": pc.cast(batch["l_quantity"], pa.float64()),
                    "n": pa.array(np.ones(batch.num_rows, np.int64)),
                }
            )
        )

    census = tree_combine(
        li.map_batches(partial, batch_format="pyarrow"), merge
    ).to_pandas()
    if census.empty:  # empty table: typed empty result
        return rd.from_arrow(
            pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "med_qty": pa.array([], pa.float64()),
                    "mad_qty": pa.array([], pa.float64()),
                }
            )
        )

    def wmedian(vals: np.ndarray, cnts: np.ndarray) -> float:
        order = np.argsort(vals)
        vals, cnts = vals[order], cnts[order]
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        if n % 2 == 1:
            return float(vals[np.searchsorted(cum, (n + 1) // 2)])
        lo = float(vals[np.searchsorted(cum, n // 2)])
        hi = float(vals[np.searchsorted(cum, n // 2 + 1)])
        return (lo + hi) / 2

    flags, meds, mads = [], [], []
    for flag, g in census.groupby("l_returnflag", sort=True):
        v = g["l_quantity"].to_numpy(np.float64)
        c = g["n"].to_numpy(np.int64)
        med = wmedian(v, c)
        mad = wmedian(np.abs(v - med), c)
        flags.append(flag)
        meds.append(med)
        mads.append(mad)
    return rd.from_arrow(
        pa.table(
            {
                "l_returnflag": pa.array(flags, pa.string()),
                "med_qty": pa.array(meds, pa.float64()),
                "mad_qty": pa.array(mads, pa.float64()),
            }
        )
    )


def events_type_value_quantiles(
    sf_dir: str,
    qs: tuple = (0.5, 0.9),
    num_bins: int = 2048,
    collect_max: int = QUANTILE_COLLECT_MAX,
) -> Dataset:
    """GROUPED exact continuous quantiles: per event type, the exact
    discrete p50/p90 of ``value`` — the per-key form of
    ``events_value_quantiles`` (the per-source/per-language distribution
    table a 100-TB curation run keeps). Same three streamed passes,
    keyed: (1) per-type (min, max, count) partials; (2) ONE
    per-(type, bin) histogram over each type's own range — the group
    domain is enumerable, so the bin table stays ≤ #types × num_bins
    rows through the tree combine; (3) only the localized target bins
    collect, per (type, bin) key. An over-populated bin recurses through
    the shared interval re-binner (``_exact_quantile_in_interval``) on
    the type-filtered stream — one extra pass per level, never a raise.
    Oracle: GROUP BY + quantile_disc (sorted[ceil(n·q)−1], same order
    statistic)."""
    from ..runtime.combine import group_agg_merge

    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    )
    labels = tuple(f"p{int(q * 100)}" for q in qs)
    empty = pa.schema(
        [("event_type", pa.string())] + [(c, pa.float64()) for c in labels]
    ).empty_table()

    def mmn(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        v = batch["value"].to_numpy(zero_copy_only=False)
        order = np.argsort(et, kind="stable")
        et, v = et[order], v[order]
        types, starts = np.unique(et, return_index=True)
        ends = np.append(starts[1:], len(et))
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "mn": pa.array(np.minimum.reduceat(v, starts), pa.float64()),
                "mx": pa.array(np.maximum.reduceat(v, starts), pa.float64()),
                "n": pa.array(ends - starts, pa.int64()),
            }
        )

    merge0 = group_agg_merge(
        ("event_type",), sums=("n",), mins=("mn",), maxs=("mx",)
    )
    stats_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("mn", pa.float64()),
            ("mx", pa.float64()),
            ("n", pa.int64()),
        ]
    )
    stats = pa.concat_tables(
        [
            b.select(stats_schema.names)
            for b in tree_combine(
                ev.map_batches(mmn, batch_format="pyarrow"), merge0
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ]
        + [stats_schema.empty_table()]  # empty events: zero batches
    )
    if stats.num_rows == 0:
        return rd.from_arrow(empty)

    tlist = sorted(stats["event_type"].to_pylist())
    srow = {
        t: (float(mn), float(mx), int(n))
        for t, mn, mx, n in zip(
            stats["event_type"].to_pylist(),
            stats["mn"].to_pylist(),
            stats["mx"].to_pylist(),
            stats["n"].to_pylist(),
        )
    }
    tidx = {t: i for i, t in enumerate(tlist)}
    mns = np.array([srow[t][0] for t in tlist], np.float64)
    widths = np.array(
        [(srow[t][1] - srow[t][0]) or 1.0 for t in tlist], np.float64
    )

    def keys_of(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        ti = (
            pd.Series(batch["event_type"].to_pylist())
            .map(tidx)
            .to_numpy(dtype=np.int64)
        )
        v = batch["value"].to_numpy(zero_copy_only=False)
        b = np.clip(
            ((v - mns[ti]) / widths[ti] * num_bins).astype(np.int64),
            0,
            num_bins - 1,
        )
        return ti * num_bins + b, v

    def hist(batch: pa.Table) -> pa.Table:
        key, _ = keys_of(batch)
        nz, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {"key": pa.array(nz, pa.int64()), "n": pa.array(cnt, pa.int64())}
        )

    merge1 = group_sum_merge(("key",), ("n",))
    htab = pa.concat_tables(
        tree_combine(ev.map_batches(hist, batch_format="pyarrow"), merge1)
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    hkeys = htab["key"].to_numpy(zero_copy_only=False)
    hcnts = htab["n"].to_numpy(zero_copy_only=False)
    order = np.argsort(hkeys)
    hkeys, hcnts = hkeys[order], hcnts[order]

    out: dict[str, dict[str, float]] = {t: {} for t in tlist}
    need: dict[int, list] = {}  # key -> [(type, label, rank_within_bin)]
    for t in tlist:
        ti = tidx[t]
        mask = (hkeys // num_bins) == ti
        kb, kn = hkeys[mask], hcnts[mask]
        cum = np.cumsum(kn)
        n_t = srow[t][2]
        for q, lbl in zip(qs, labels):
            rank = int(np.ceil(n_t * q))
            i = int(np.searchsorted(cum, rank, side="left"))
            before = int(cum[i - 1]) if i > 0 else 0
            if int(kn[i]) > collect_max:
                sub = ev.map_batches(
                    lambda tt, t=t: tt.filter(
                        pc.equal(tt["event_type"], t)
                    ).select(["value"]),
                    batch_format="pyarrow",
                )
                out[t][lbl] = _exact_quantile_in_interval(
                    sub, srow[t][0], srow[t][1], rank, n_t,
                    num_bins, collect_max,
                )
            else:
                need.setdefault(int(kb[i]), []).append(
                    (t, lbl, rank - before)
                )

    if need:
        need_arr = np.array(sorted(need), dtype=np.int64)

        def collect(batch: pa.Table) -> pa.Table:
            key, v = keys_of(batch)
            mask = np.isin(key, need_arr)
            return pa.table(
                {
                    "key": pa.array(key[mask], pa.int64()),
                    "value": pa.array(v[mask], pa.float64()),
                }
            )

        rows = pa.concat_tables(
            ev.map_batches(collect, batch_format="pyarrow").iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
        )
        rkeys = rows["key"].to_numpy(zero_copy_only=False)
        rvals = rows["value"].to_numpy(zero_copy_only=False)
        for key, wants in need.items():
            vals = np.sort(rvals[rkeys == key])
            for t, lbl, r in wants:
                out[t][lbl] = float(vals[r - 1])

    return rd.from_arrow(
        pa.table(
            {
                "event_type": pa.array(tlist, pa.string()),
                **{
                    lbl: pa.array([out[t][lbl] for t in tlist], pa.float64())
                    for lbl in labels
                },
            }
        )
    )


def events_click_purchase_setops(sf_dir: str) -> Dataset:
    """Set operators over distinct-key sets (INTERSECT / EXCEPT): users
    who both clicked and purchased (grp='both') and users who clicked
    but never purchased (grp='click_only'). Map-side per-batch DISTINCT
    flag partials — at most one (user, clicked, purchased) row per user
    per batch — then ONE user-key groupby with max-merge and a
    vectorized classify; no row-level shuffle of the raw events, no
    DISTINCT sort. The same plan computes any membership algebra over
    the flag columns (union is a flag-OR away)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type"]
    )

    def flags(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        keep = (et == "click") | (et == "purchase")
        u, et = u[keep], et[keep]
        df = pd.DataFrame(
            {
                "user_id": u.astype(np.int64),
                "clicked": (et == "click").astype(np.int64),
                "purchased": (et == "purchase").astype(np.int64),
            }
        )
        g = df.groupby("user_id", as_index=False).max()
        return pa.table(
            {
                "user_id": pa.array(g["user_id"].to_numpy(), pa.int64()),
                "clicked": pa.array(g["clicked"].to_numpy(), pa.int64()),
                "purchased": pa.array(g["purchased"].to_numpy(), pa.int64()),
            }
        )

    flagged = (
        ev.map_batches(flags, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Max("clicked", alias_name="clicked"),
            Max("purchased", alias_name="purchased"),
        )
    )

    def classify(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        c = batch["clicked"].to_numpy(zero_copy_only=False)
        p = batch["purchased"].to_numpy(zero_copy_only=False)
        both = u[(c == 1) & (p == 1)]
        only = u[(c == 1) & (p == 0)]
        return pa.table(
            {
                "user_id": pa.array(
                    np.concatenate([both, only]), pa.int64()
                ),
                "grp": pa.array(
                    ["both"] * len(both) + ["click_only"] * len(only),
                    pa.string(),
                ),
            }
        )

    return flagged.map_batches(classify, batch_format="pyarrow")


def events_user_dense_rank(sf_dir: str, k: int = 3) -> Dataset:
    """DENSE_RANK window without a per-group sort: per event type, users
    dense-ranked by event count descending (ties share a rank, ranks stay
    contiguous), keeping rank ≤ k. Scale shape: the (type, user) count
    census shuffles map-side partials once; the rank structure then comes
    from the (type, DISTINCT count) census — at most O(√(2·total)) 
    distinct count values per type, vocabulary-tiny — so the top ranks
    are a broadcast threshold filter over the census, never a sort of the
    user table. Oracle: dense_rank() OVER (PARTITION BY type ORDER BY n
    DESC) with QUALIFY-style rank cut."""
    from ray.data.aggregate import Count as _Count

    from ..runtime.combine import anchor

    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pylist(),
                "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["event_type", "user_id"], as_index=False).size()
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], pa.string()),
                "user_id": pa.array(
                    g["user_id"].to_numpy(), pa.int64()
                ),
                "n_events": pa.array(g["size"].to_numpy(), pa.int64()),
            }
        )

    counts = anchor(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Sum("n_events", alias_name="n_events"))
    )

    # tiny (type, distinct-count) census drives the dense ranks
    ncensus = (
        counts.select_columns(["event_type", "n_events"])
        .groupby(["event_type", "n_events"])
        .aggregate(_Count(alias_name="_c"))
        .drop_columns(["_c"])
        .to_pandas()
    )
    if ncensus.empty:
        return rd.from_arrow(
            pa.schema(
                [
                    ("event_type", pa.string()),
                    ("user_id", pa.int64()),
                    ("n_events", pa.int64()),
                    ("rnk", pa.int64()),
                ]
            ).empty_table()
        )

    rank_of: dict[tuple, int] = {}
    thresh: dict[str, int] = {}
    for t, g in ncensus.groupby("event_type", sort=False):
        ns = np.sort(g["n_events"].to_numpy(np.int64))[::-1]
        top = ns[: int(k)]
        thresh[t] = int(top[-1])
        for r, n in enumerate(top, start=1):
            rank_of[(t, int(n))] = r

    def fin(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        n = batch["n_events"].to_numpy(zero_copy_only=False)
        thr = np.array(
            [thresh[t] for t in et], np.int64
        ) if len(et) else np.array([], np.int64)
        keep = n >= thr
        et, u, n = et[keep], u[keep], n[keep]
        rnk = np.array(
            [rank_of[(t, int(v))] for t, v in zip(et, n)], np.int64
        )
        return pa.table(
            {
                "event_type": pa.array(et, pa.string()),
                "user_id": pa.array(u, pa.int64()),
                "n_events": pa.array(n, pa.int64()),
                "rnk": pa.array(rnk, pa.int64()),
            }
        )

    return counts.map_batches(fin, batch_format="pyarrow")


def orders_above_customer_avg(sf_dir: str) -> Dataset:
    """Correlated-aggregate filter (the correlated-subquery class):
    orders whose total price exceeds their OWN customer's average order
    price. ONE pass, ONE int-key shuffle: every batch emits its
    per-customer (cents-sum, count) PARTIAL rows alongside its
    side-tagged fact rows, a single groupby(custkey) cogroups them (the
    side-tagged-union idiom — never ``Dataset.join``, the NOTES
    zero-row-partition rule), and the filter is INTEGER-EXACT:
    ``price_cents · n > sum_cents`` compares int64s, so no float
    summation-order ulp can flip a boundary row (the PMI idiom). The
    reported ``cust_avg`` is one double division of exact <2⁵³ operands,
    rounded to 4, mirrored verbatim in the oracle SQL. Per-group frames
    stay order-count-per-customer-sized (bounded fan-in)."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def tag(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        price = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        cents = np.round(price * 100.0).astype(np.int64)
        g = (
            pd.DataFrame({"k": ck, "sc": cents})
            .groupby("k", as_index=False)
            .agg(sc=("sc", "sum"), n=("sc", "size"))
        )
        zp = np.zeros(len(g), np.int64)
        zf = np.zeros(len(ck), np.int64)
        return pa.table(
            {
                "o_custkey": pa.array(
                    np.concatenate([g["k"].to_numpy(np.int64), ck]), pa.int64()
                ),
                "kind": pa.array(
                    np.concatenate([zp, np.ones(len(ck), np.int64)]),
                    pa.int64(),
                ),
                "o_orderkey": pa.array(
                    np.concatenate([zp, ok]), pa.int64()
                ),
                "cents": pa.array(
                    np.concatenate([zp, cents]), pa.int64()
                ),
                "price": pa.array(
                    np.concatenate([np.zeros(len(g), np.float64), price]),
                    pa.float64(),
                ),
                "sc": pa.array(
                    np.concatenate([g["sc"].to_numpy(np.int64), zf]),
                    pa.int64(),
                ),
                "n": pa.array(
                    np.concatenate([g["n"].to_numpy(np.int64), zf]),
                    pa.int64(),
                ),
            }
        )

    def cogroup(df: pd.DataFrame) -> pd.DataFrame:
        part = df[df["kind"] == 0]
        sc = int(part["sc"].sum())
        n = int(part["n"].sum())
        e = df[df["kind"] == 1]
        keep = e["cents"].to_numpy(np.int64) * n > sc
        e = e[keep]
        return pd.DataFrame(
            {
                "o_orderkey": e["o_orderkey"].to_numpy(np.int64),
                "o_custkey": e["o_custkey"].to_numpy(np.int64),
                "o_totalprice": e["price"].to_numpy(np.float64),
                "cust_avg": round_half_away(
                    np.full(len(e), sc / (n * 100.0) if n else 0.0), 4
                ),
            }
        )

    return (
        orders.map_batches(tag, batch_format="pyarrow")
        .groupby("o_custkey")
        .map_groups(cogroup, batch_format="pandas")
    )


def nation_segments(sf_dir: str) -> Dataset:
    """LIST / STRING aggregation per group (the ``string_agg`` class):
    per nation NAME, the ','-joined SORTED distinct market segments of
    its customers plus their count. Map-side DISTINCT
    (nationkey, segment) partials shrink each batch to ≤ 25 × 5 rows,
    one enumerable-key groupby dedups globally, the per-group sorted
    join runs on ≤ 5 strings, and nation names attach from the
    broadcast 25-row dimension — no shuffle join anywhere."""
    from ray.data.aggregate import Count as _Count

    cust = read_parquet_clean(
        _p(sf_dir, "customer"), columns=["c_nationkey", "c_mktsegment"]
    )
    nat = pq.read_table(_p(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    nmap = dict(
        zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist())
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "k": batch["c_nationkey"].to_numpy(zero_copy_only=False),
                "s": batch["c_mktsegment"].to_pylist(),
            }
        ).drop_duplicates()
        return pa.table(
            {
                "k": pa.array(df["k"].to_numpy(np.int64), pa.int64()),
                "s": pa.array(df["s"].tolist(), pa.string()),
            }
        )

    distinct = (
        cust.map_batches(partial, batch_format="pyarrow")
        .groupby(["k", "s"])
        .aggregate(_Count(alias_name="_c"))
        .drop_columns(["_c"])
    )

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        segs = sorted(df["s"].tolist())
        k = int(df["k"].iloc[0])
        return pd.DataFrame(
            {
                "n_name": [nmap[k]],
                "segments": [",".join(segs)],
                "n_segments": np.array([len(segs)], np.int64),
            }
        )

    return distinct.groupby("k").map_groups(agg, batch_format="pandas")


def lineitem_charges_unpivot(sf_dir: str) -> Dataset:
    """UNPIVOT (wide → long reshaping, the inverse of the dynamic
    pivot): each lineitem row becomes three (charge, amount) rows for
    its discount / extendedprice / tax columns — a pure vectorized
    flat-map-class transform (three column slices concatenated per
    batch, no per-row loop, no shuffle, values pass through
    bit-identically)."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=[
            "l_orderkey",
            "l_linenumber",
            "l_discount",
            "l_extendedprice",
            "l_tax",
        ],
    )
    kinds = (("discount", "l_discount"), ("extended", "l_extendedprice"),
             ("tax", "l_tax"))

    def melt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ok = batch["l_orderkey"].combine_chunks()
        ln = batch["l_linenumber"].combine_chunks()
        parts = [
            pa.table(
                {
                    "l_orderkey": ok,
                    "l_linenumber": ln,
                    "charge": pa.array([kind] * n, pa.string()),
                    "amount": batch[col].cast(pa.float64()),
                }
            )
            for kind, col in kinds
        ]
        return pa.concat_tables(parts)

    return li.map_batches(melt, batch_format="pyarrow")


def events_click_no_purchase(sf_dir: str, two_level: bool = False) -> Dataset:
    """Windowed ANTI-join (NOT EXISTS under a time-range correlated
    condition — the negative-attribution complement of
    ``events_purchase_click_window``): clicks with NO purchase by the
    same user in the FOLLOWING hour (no purchase_ts in
    (click_ts, click_ts + 1h]). Same scale shape as the range join:
    both event types filter map-side at the read, ONE groupby on the
    reused user_id partitioning key, and the per-group test is a
    vectorized double-searchsorted window count kept at zero — no
    per-row loop, output ≤ the click count. Partitioning assumption
    (default): one user's two-type history fits a task; ``two_level=
    True`` buckets time at the window width and replicates each
    purchase to its PRECEDING bucket, so a click's (user, bucket) group
    provably contains every purchase in its forward window while each
    click lives in exactly ONE bucket — the bucketed anti-verdicts are
    exact with no dedup pass."""
    win_us = WINDOW_JOIN_HOURS * 3_600_000_000
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["event_id", "user_id", "event_type", "ts"],
    ).map_batches(
        lambda t: t.filter(
            pc.is_in(t["event_type"], pa.array(["purchase", "click"]))
        ),
        batch_format="pyarrow",
    )
    empty = {
        "click_id": pd.Series([], dtype="int64"),
        "user_id": pd.Series([], dtype="int64"),
        "click_ts": pd.Series([], dtype="datetime64[us]"),
    }

    def anti(g: pd.DataFrame) -> pd.DataFrame:
        clicks = g[g["event_type"] == "click"]
        buys = g[g["event_type"] == "purchase"].sort_values("ts")
        if clicks.empty:
            return pd.DataFrame(empty)
        cts = clicks["ts"].to_numpy()
        bts = buys["ts"].to_numpy()
        lo = np.searchsorted(bts, cts, side="right")
        hi = np.searchsorted(
            bts, cts + np.timedelta64(win_us, "us"), side="right"
        )
        keep = hi == lo
        return pd.DataFrame(
            {
                "click_id": clicks["event_id"].to_numpy()[keep],
                "user_id": clicks["user_id"].to_numpy()[keep],
                "click_ts": cts[keep],
            }
        )

    if not two_level:
        return ev.groupby("user_id").map_groups(anti, batch_format="pandas")

    def replicate(t: pa.Table) -> pa.Table:
        micros = pc.cast(t["ts"], pa.int64())
        t = t.append_column("tbucket", _tbucket_of(micros, win_us))
        buys = t.filter(pc.equal(t["event_type"], "purchase"))
        i = t.schema.get_field_index("tbucket")
        shifted = buys.set_column(
            i,
            "tbucket",
            pc.subtract(buys["tbucket"], pa.scalar(1, pa.int64())),
        )
        return pa.concat_tables([t, shifted])

    return (
        ev.map_batches(replicate, batch_format="pyarrow")
        .groupby(["user_id", "tbucket"])
        .map_groups(anti, batch_format="pandas")  # tbucket column ignored
    )


# ------------------------------------------------- round-4 sixth batch
HIST_NBINS = 20


def events_value_hist(sf_dir: str, nbins: int = HIST_NBINS) -> Dataset:
    """Equi-width HISTOGRAM over a continuous column (the profiling /
    distribution-sketch class next to the exact-quantile operators):
    two streaming passes — a (min, max) domain pass (single fixed-width
    partial row per batch, associative tree merge), then per-batch
    ``np.bincount`` partials over the derived bin index, tree-combined
    into ≤ nbins rows. Nothing larger than nbins rows ever moves, at any
    corpus size. Bin index and edges use the SAME float64 expression as
    the oracle (``(v - lo) * nbins / span``, clamp to nbins-1), so bin
    assignment is bit-identical; only observed bins are emitted (as SQL's
    GROUP BY does)."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["value"])

    def mm_partial(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return pa.table(
                {"lo": pa.array([], pa.float64()), "hi": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "lo": pa.array([float(v.min())], pa.float64()),
                "hi": pa.array([float(v.max())], pa.float64()),
            }
        )

    def mm_merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return pa.table(
            {
                "lo": pa.array([pc.min(t["lo"]).as_py()], pa.float64()),
                "hi": pa.array([pc.max(t["hi"]).as_py()], pa.float64()),
            }
        )

    mm = tree_combine(
        ev.map_batches(mm_partial, batch_format="pyarrow"), mm_merge
    ).take_all()
    schema = pa.schema(
        [
            ("bin", pa.int64()),
            ("bin_lo", pa.float64()),
            ("bin_hi", pa.float64()),
            ("n_events", pa.int64()),
        ]
    )
    if not mm:
        return rd.from_arrow(schema.empty_table())
    lo, hi = float(mm[0]["lo"]), float(mm[0]["hi"])
    span = hi - lo

    def bin_partial(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        if span == 0.0:
            b = np.zeros(len(v), np.int64)
        else:
            b = np.minimum(
                np.floor((v - lo) * float(nbins) / span), nbins - 1
            ).astype(np.int64)
        counts = np.bincount(b, minlength=nbins)
        nz = np.nonzero(counts)[0]
        return pa.table(
            {
                "bin": pa.array(nz.astype(np.int64), pa.int64()),
                "n_events": pa.array(counts[nz].astype(np.int64), pa.int64()),
            }
        )

    counts = tree_combine(
        ev.map_batches(bin_partial, batch_format="pyarrow"),
        group_sum_merge(("bin",), ("n_events",)),
    )
    width = span / float(nbins)

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        b = t["bin"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "bin": pa.array(b, pa.int64()),
                "bin_lo": pa.array(
                    round_half_away(lo + b * width, 4), pa.float64()
                ),
                "bin_hi": pa.array(
                    round_half_away(lo + (b + 1) * width, 4), pa.float64()
                ),
                "n_events": t["n_events"],
            }
        )

    return counts.map_batches(fin, batch_size=None, batch_format="pyarrow")


IQR_FENCE_K = 1.5


def events_value_outliers(sf_dir: str, k: float = IQR_FENCE_K) -> Dataset:
    """IQR OUTLIER DETECTION per group (the robust anomaly-flagging class
    next to MAD): per event type, discrete q25/q75 and the count of rows
    outside [q25 - k·IQR, q75 + k·IQR]. ONE (type, value)-census pass
    feeds BOTH the quantiles and the outlier counts — the combined
    histogram is value-domain-sized (fixed-width rows), so no second
    corpus pass and no sort shuffle. Fences compare UNROUNDED float64
    (the same expression the oracle evaluates), rounded only for display.
    Partitioning assumption: the per-type distinct-value domain fits one
    final task (6.6k values at sf0.01); an open-ended domain would take
    the events_value_quantiles binned-localize path instead."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    )

    def census(batch: pa.Table) -> pa.Table:
        c = Counter(
            zip(batch["event_type"].to_pylist(), batch["value"].to_pylist())
        )
        ts, vs, ns = [], [], []
        for (t, v), n in c.items():
            ts.append(t)
            vs.append(v)
            ns.append(n)
        return pa.table(
            {
                "event_type": pa.array(ts, pa.string()),
                "value": pa.array(vs, pa.float64()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    counts = tree_combine(
        ev.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("event_type", "value"), ("n",)),
    )
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("p25", pa.float64()),
            ("p75", pa.float64()),
            ("lo_fence", pa.float64()),
            ("hi_fence", pa.float64()),
            ("n_outliers", pa.int64()),
            ("n_rows", pa.int64()),
        ]
    )

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        df = t.to_pandas().sort_values(["event_type", "value"])
        out: dict[str, list] = {name: [] for name in schema.names}
        for et, g in df.groupby("event_type", sort=True):
            vals = g["value"].to_numpy(np.float64)
            cnt = g["n"].to_numpy(np.int64)
            cum = np.cumsum(cnt)
            total = int(cum[-1])
            qs = []
            for q in (0.25, 0.75):
                rank = int(np.ceil(total * q))  # DuckDB quantile_disc
                qs.append(float(vals[np.searchsorted(cum, rank, "left")]))
            p25, p75 = qs
            iqr = p75 - p25
            lo_f, hi_f = p25 - k * iqr, p75 + k * iqr
            n_out = int(cnt[(vals < lo_f) | (vals > hi_f)].sum())
            out["event_type"].append(et)
            out["p25"].append(p25)
            out["p75"].append(p75)
            out["lo_fence"].append(float(round_half_away(lo_f, 4)))
            out["hi_fence"].append(float(round_half_away(hi_f, 4)))
            out["n_outliers"].append(n_out)
            out["n_rows"].append(total)
        return pa.table(out, schema=schema)

    return counts.map_batches(fin, batch_size=None, batch_format="pyarrow")


def orders_monthly_mom(sf_dir: str) -> Dataset:
    """Period-over-period LAG on an aggregated series (the MoM / growth
    reporting class): per priority, each month's order count next to the
    previous OBSERVED month's and the integer delta. The corpus pass is
    the same enumerable-key (priority, month) count census as
    orders_monthly; the lag itself runs on the combined
    vocabulary-sized table in one final task (a few hundred rows at any
    corpus size). First observed month per priority is dropped (no
    predecessor) so every column stays non-null — int-exact end to end."""
    base = orders_monthly(sf_dir)
    schema = pa.schema(
        [
            ("o_orderpriority", pa.string()),
            ("month", pa.timestamp("us")),
            ("n_orders", pa.int64()),
            ("prev_n_orders", pa.int64()),
            ("mom_delta", pa.int64()),
        ]
    )

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        df = t.to_pandas().sort_values(["o_orderpriority", "month"])
        prev = df.groupby("o_orderpriority", sort=False)["n_orders"].shift(1)
        keep = prev.notna()
        df = df[keep]
        prev = prev[keep].astype(np.int64)
        return pa.table(
            {
                "o_orderpriority": pa.array(
                    df["o_orderpriority"].tolist(), pa.string()
                ),
                "month": pa.array(
                    df["month"].to_numpy().astype("datetime64[us]"),
                    pa.timestamp("us"),
                ),
                "n_orders": pa.array(
                    df["n_orders"].to_numpy(np.int64), pa.int64()
                ),
                "prev_n_orders": pa.array(prev.to_numpy(np.int64), pa.int64()),
                "mom_delta": pa.array(
                    df["n_orders"].to_numpy(np.int64) - prev.to_numpy(np.int64),
                    pa.int64(),
                ),
            }
        )

    return base.repartition(1).map_batches(
        fin, batch_size=None, batch_format="pyarrow"
    )


def events_user_window_1h(sf_dir: str) -> Dataset:
    """RANGE-interval window aggregate (the time-RANGE frame class, vs
    the ROWS frames of cum_value/moving_avg3 and the tumbling buckets of
    sliding_hourly): per event, the count and value-sum of the SAME
    user's events with ts in [ts - 1h, ts] — peer rows at the same ts
    all included, exactly DuckDB's ``RANGE BETWEEN INTERVAL 1 HOUR
    PRECEDING AND CURRENT ROW``. One groupby on the reused user_id
    partitioning key; per group the frame sums come from a prefix-sum
    over INTEGER half-away cents and two vectorized searchsorteds — no
    per-row loop, no float summation-order ulp (the integer-cents
    idiom; the one double division is mirrored in SQL)."""
    win_us = np.timedelta64(3_600_000_000, "us")
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        ts = g["ts"].to_numpy()
        cents = round_half_away(
            g["value"].to_numpy(np.float64) * 100.0, 0
        ).astype(np.int64)
        prefix = np.concatenate([[0], np.cumsum(cents)])
        lo = np.searchsorted(ts, ts - win_us, side="left")
        hi = np.searchsorted(ts, ts, side="right")
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(np.int64),
                "user_id": g["user_id"].to_numpy(np.int64),
                "ts": ts,
                "n_w": (hi - lo).astype(np.int64),
                "sum_w": round_half_away(
                    (prefix[hi] - prefix[lo]) / 100.0, 4
                ),
            }
        )

    return ev.groupby("user_id").map_groups(window, batch_format="pandas")


def events_latest_per_user(sf_dir: str) -> Dataset:
    """Latest-record COMPACTION (the SCD-1 / CDC-upsert merge shape —
    ``row_number() OVER (... ORDER BY ts DESC) = 1`` carrying the WHOLE
    row, vs first_per_user_type's scalar min): per user, the full most
    recent event row, ties broken by event_id DESC. Map-side per-batch
    argmax keeps one row per user before anything moves; the associative
    keep-latest merge tree-combines user-vocabulary-sized fixed-width
    rows — no sort shuffle of the event stream, the exact shape of a
    log→snapshot table compaction at 100 TB."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["user_id", "event_id", "ts", "event_type", "value"],
    )

    def keep_latest(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        df = (
            t.to_pandas()
            .sort_values(["user_id", "ts", "event_id"])
            .drop_duplicates("user_id", keep="last")
        )
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
                "event_id": pa.array(df["event_id"].to_numpy(np.int64)),
                "ts": pa.array(
                    df["ts"].to_numpy().astype("datetime64[us]"),
                    pa.timestamp("us"),
                ),
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "value": pa.array(df["value"].to_numpy(np.float64)),
            }
        )

    return tree_combine(
        ev.map_batches(keep_latest, batch_format="pyarrow"), keep_latest
    )


def fk_orphan_audit(sf_dir: str) -> Dataset:
    """Referential-integrity AUDIT (the data-quality / constraint-check
    class): for each declared FK relation, total fact rows, distinct FK
    keys, orphan rows and orphan keys (fact keys missing from the
    dimension). Per relation: fact batches shrink to (key, n) count
    partials and dim batches to distinct-key rows map-side, ONE
    side-tagged int-key groupby cogroups them (never Dataset.join — the
    NOTES zero-row-partition rule), and the per-key verdicts tree-combine
    into one fixed-width summary row. Shuffle volume is key-vocabulary-
    sized regardless of fact cardinality."""
    relations = (
        ("orders->customer", "orders", "o_custkey", "customer", "c_custkey"),
        ("lineitem->orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
    )
    out: list[pa.Table] = []
    schema = pa.schema(
        [
            ("relation", pa.string()),
            ("n_rows", pa.int64()),
            ("n_keys", pa.int64()),
            ("n_orphan_rows", pa.int64()),
            ("n_orphan_keys", pa.int64()),
        ]
    )
    for rel, fact, fk, dim, pk in relations:
        facts = read_parquet_clean(_p(sf_dir, fact), columns=[fk])
        dims = read_parquet_clean(_p(sf_dir, dim), columns=[pk])

        def fact_partial(batch: pa.Table, fk=fk) -> pa.Table:
            k = batch[fk].to_numpy(zero_copy_only=False).astype(np.int64)
            keys, n = np.unique(k, return_counts=True)
            return pa.table(
                {
                    "k": pa.array(keys, pa.int64()),
                    "n": pa.array(n.astype(np.int64), pa.int64()),
                    "in_dim": pa.array(np.zeros(len(keys), np.int64)),
                }
            )

        def dim_partial(batch: pa.Table, pk=pk) -> pa.Table:
            keys = np.unique(
                batch[pk].to_numpy(zero_copy_only=False).astype(np.int64)
            )
            return pa.table(
                {
                    "k": pa.array(keys, pa.int64()),
                    "n": pa.array(np.zeros(len(keys), np.int64)),
                    "in_dim": pa.array(np.ones(len(keys), np.int64)),
                }
            )

        tagged = facts.map_batches(fact_partial, batch_format="pyarrow").union(
            dims.map_batches(dim_partial, batch_format="pyarrow")
        )
        from ray.data.aggregate import Max as _Max

        perkey = (
            tagged.groupby("k")
            .aggregate(
                Sum("n", alias_name="n"), _Max("in_dim", alias_name="in_dim")
            )
        )

        def verdict(t: pa.Table, rel=rel) -> pa.Table:
            n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
            ind = t["in_dim"].to_numpy(zero_copy_only=False).astype(np.int64)
            is_fact = n > 0
            orphan = is_fact & (ind == 0)
            return pa.table(
                {
                    "relation": pa.array([rel], pa.string()),
                    "n_rows": pa.array([int(n.sum())], pa.int64()),
                    "n_keys": pa.array([int(is_fact.sum())], pa.int64()),
                    "n_orphan_rows": pa.array([int(n[orphan].sum())], pa.int64()),
                    "n_orphan_keys": pa.array([int(orphan.sum())], pa.int64()),
                }
            )

        summary = tree_combine(
            perkey.map_batches(verdict, batch_format="pyarrow"),
            group_sum_merge(
                ("relation",),
                ("n_rows", "n_keys", "n_orphan_rows", "n_orphan_keys"),
            ),
        ).take_all()
        out.append(
            pa.Table.from_pylist(summary, schema=schema)
            if summary
            else schema.empty_table()
        )
    return rd.from_arrow(pa.concat_tables(out))


def events_audience_overlap_hll(sf_dir: str) -> Dataset:
    """HLL SET ALGEBRA (sketch union + inclusion-exclusion intersection —
    the audience-overlap estimate two teams compute without ever joining
    their user sets): one streamed pass builds (type, j, rho) registers
    for the click and purchase audiences (≤ 2 × 256 rows per block, the
    events_type_user_hll shape); the UNION sketch is the per-register MAX
    of the two — the defining mergeability property — and
    |A∩B| ≈ est(A) + est(B) − est(A∪B). Reported next to the EXACT
    intersection (distinct-flag max-merge, the setops shape). All md5
    hashing replays bit-for-bit in the oracle; ×m and ×m² are exact
    power-of-two scalings so the estimator is float-identical."""
    from ray.data.aggregate import Max as _Max

    from ..runtime.combine import group_agg_merge

    m, p = HLL_M, 8
    wbits = 64 - p
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "user_id"]
    ).map_batches(
        lambda t: t.filter(
            pc.is_in(t["event_type"], pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow",
    )
    merge = group_agg_merge(("event_type", "j"), maxs=("rho",))

    def partials(batch: pa.Table) -> pa.Table:
        regs: dict[tuple[str, int], int] = {}
        for et, u in set(
            zip(batch["event_type"].to_pylist(), batch["user_id"].to_pylist())
        ):
            h = int.from_bytes(
                hashlib.md5(str(u).encode("utf-8")).digest()[:8], "little"
            )
            j, w = h % m, h >> p
            rho = (wbits + 1) if w == 0 else (wbits - w.bit_length() + 1)
            if rho > regs.get((et, j), 0):
                regs[(et, j)] = rho
        ks = sorted(regs)
        return pa.table(
            {
                "event_type": pa.array([k[0] for k in ks], pa.string()),
                "j": pa.array([k[1] for k in ks], pa.int64()),
                "rho": pa.array([regs[k] for k in ks], pa.int64()),
            }
        )

    regs = tree_combine(
        ev.map_batches(partials, batch_format="pyarrow"), merge
    ).to_pandas()

    def estimate(rho_by_j: dict[int, int]) -> float:
        s = sum(2.0 ** -r for r in rho_by_j.values())
        nz = len(rho_by_j)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / (s + (m - nz))
        v = m - nz
        if est <= 2.5 * m and v > 0:
            est = m * np.log(m / v)
        return float(est)

    sets: dict[str, dict[int, int]] = {"click": {}, "purchase": {}}
    if regs.empty:  # empty corpus: zero audiences, skip the exact pass
        return rd.from_arrow(
            pa.table(
                {
                    "est_click": pa.array([0.0], pa.float64()),
                    "est_purchase": pa.array([0.0], pa.float64()),
                    "est_union": pa.array([0.0], pa.float64()),
                    "est_intersection": pa.array([0.0], pa.float64()),
                    "n_exact_intersection": pa.array([0], pa.int64()),
                }
            )
        )
    for et, j, rho in zip(regs["event_type"], regs["j"], regs["rho"]):
        sets[et][int(j)] = int(rho)
    union = dict(sets["click"])
    for j, rho in sets["purchase"].items():
        union[j] = max(union.get(j, 0), rho)
    est_a, est_b, est_u = (
        estimate(sets["click"]),
        estimate(sets["purchase"]),
        estimate(union),
    )

    # exact side: distinct per-user flags, max-merged once
    def flags(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                "c": np.asarray(
                    pc.equal(batch["event_type"], "click").to_numpy(
                        zero_copy_only=False
                    ),
                    np.int64,
                ),
                "p": np.asarray(
                    pc.equal(batch["event_type"], "purchase").to_numpy(
                        zero_copy_only=False
                    ),
                    np.int64,
                ),
            }
        ).groupby("user_id", as_index=False).max()
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
                "c": pa.array(df["c"].to_numpy(np.int64)),
                "p": pa.array(df["p"].to_numpy(np.int64)),
            }
        )

    both = (
        ev.map_batches(flags, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(_Max("c", alias_name="c"), _Max("p", alias_name="p"))
    )
    n_both = tree_combine(
        both.map_batches(
            lambda t: pa.table(
                {
                    "k": pa.array([0], pa.int64()),
                    "n": pa.array(
                        [
                            int(
                                np.sum(
                                    (
                                        t["c"].to_numpy(zero_copy_only=False)
                                        > 0
                                    )
                                    & (
                                        t["p"].to_numpy(zero_copy_only=False)
                                        > 0
                                    )
                                )
                            )
                        ],
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        ),
        group_sum_merge(("k",), ("n",)),
    ).take_all()
    exact = int(n_both[0]["n"]) if n_both else 0
    return rd.from_arrow(
        pa.table(
            {
                "est_click": pa.array(
                    round_half_away([est_a], 4), pa.float64()
                ),
                "est_purchase": pa.array(
                    round_half_away([est_b], 4), pa.float64()
                ),
                "est_union": pa.array(
                    round_half_away([est_u], 4), pa.float64()
                ),
                "est_intersection": pa.array(
                    round_half_away([est_a + est_b - est_u], 4), pa.float64()
                ),
                "n_exact_intersection": pa.array([exact], pa.int64()),
            }
        )
    )


def embedding_sq8(sf_dir: str) -> Dataset:
    """Scalar INT8 QUANTIZATION of an embedding column (the vector-
    compression encode that precedes ANN serving — 4× smaller than
    float32): per vector, symmetric max-abs scale (mx/127, one exact
    division) and half-up codes floor(x/scale + 0.5), reported as the
    integer code census (min/max/sum/sum-of-squares — INT-EXACT, so the
    oracle's list-fold replay hashes bit-for-bit; the float32→float64
    widening is exact on both sides). Pure vectorized map — one matmul-
    free pass, no shuffle, embarrassingly scalable."""
    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )

    def quant(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        arr = batch["embedding"].combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        M = flat.reshape(len(ids), -1) if len(ids) else flat.reshape(0, 1)
        mx = np.abs(M).max(axis=1) if len(ids) else np.zeros(0)
        scale = mx / 127.0
        safe = np.where(scale == 0.0, 1.0, scale)
        codes = np.floor(M / safe[:, None] + 0.5)
        codes = np.where(scale[:, None] == 0.0, 0.0, codes).astype(np.int64)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "scale": pa.array(round_half_away(scale, 6), pa.float64()),
                "code_min": pa.array(codes.min(axis=1) if len(ids) else [], pa.int64()),
                "code_max": pa.array(codes.max(axis=1) if len(ids) else [], pa.int64()),
                "code_sum": pa.array(codes.sum(axis=1) if len(ids) else [], pa.int64()),
                "code_sumsq": pa.array(
                    (codes * codes).sum(axis=1) if len(ids) else [], pa.int64()
                ),
            }
        )

    return emb.map_batches(quant, batch_format="pyarrow")


def nation_balance_full_outer(sf_dir: str) -> Dataset:
    """FULL OUTER cogroup of two aggregated sides (the outer-join report
    class — nations keep a row even when one side has no members):
    per nation, customer count/balance next to supplier count/balance,
    missing sides zero-filled. Each side shrinks to an enumerable-key
    (nationkey, n, cents) census map-side and tree-combines; the outer
    merge runs on two ≤ 25-row tables in one final task. Balances sum as
    half-away integer CENTS (no float summation-order ulp), one double
    division each at the end, mirrored in SQL."""
    sides = []
    for table, key, bal in (
        ("customer", "c_nationkey", "c_acctbal"),
        ("supplier", "s_nationkey", "s_acctbal"),
    ):
        src = read_parquet_clean(_p(sf_dir, table), columns=[key, bal])

        def census(batch: pa.Table, key=key, bal=bal) -> pa.Table:
            k = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
            cents = round_half_away(
                batch[bal].to_numpy(zero_copy_only=False).astype(np.float64)
                * 100.0,
                0,
            ).astype(np.int64)
            g = (
                pd.DataFrame({"k": k, "cents": cents})
                .groupby("k", as_index=False)
                .agg(n=("cents", "size"), cents=("cents", "sum"))
            )
            return pa.table(
                {
                    "k": pa.array(g["k"].to_numpy(np.int64), pa.int64()),
                    "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
                    "cents": pa.array(
                        g["cents"].to_numpy(np.int64), pa.int64()
                    ),
                }
            )

        side = tree_combine(
            src.map_batches(census, batch_format="pyarrow"),
            group_sum_merge(("k",), ("n", "cents")),
        ).to_pandas()
        if side.empty:  # empty table: typed empty frame so the merge keys exist
            side = pd.DataFrame(
                {
                    "k": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                    "cents": pd.Series([], dtype="int64"),
                }
            )
        sides.append(side)
    cust, supp = sides
    merged = cust.merge(supp, on="k", how="outer", suffixes=("_c", "_s"))
    for c in ("n_c", "cents_c", "n_s", "cents_s"):
        merged[c] = merged[c].fillna(0).astype(np.int64)
    return rd.from_arrow(
        pa.table(
            {
                "n_nationkey": pa.array(
                    merged["k"].to_numpy(np.int64), pa.int64()
                ),
                "n_customers": pa.array(
                    merged["n_c"].to_numpy(np.int64), pa.int64()
                ),
                "cust_balance": pa.array(
                    round_half_away(
                        merged["cents_c"].to_numpy(np.int64) / 100.0, 4
                    ),
                    pa.float64(),
                ),
                "n_suppliers": pa.array(
                    merged["n_s"].to_numpy(np.int64), pa.int64()
                ),
                "supp_balance": pa.array(
                    round_half_away(
                        merged["cents_s"].to_numpy(np.int64) / 100.0, 4
                    ),
                    pa.float64(),
                ),
            }
        )
    )


def orders_priority_share(sf_dir: str) -> Dataset:
    """RATIO-TO-REPORT window (percent-of-total — ``n / sum(n) OVER ()``):
    per priority, order count and its share of all orders. The census is
    enumerable-key map-side partials + tree combine; the share is ONE
    double division of exact int64 operands per row (bit-identical to
    SQL), computed where the whole ≤ #priorities-row table already sits."""
    orders = read_parquet_clean(_p(sf_dir, "orders"), columns=["o_orderpriority"])

    def census(batch: pa.Table) -> pa.Table:
        c = Counter(batch["o_orderpriority"].to_pylist())
        return pa.table(
            {
                "o_orderpriority": pa.array(list(c.keys()), pa.string()),
                "n_orders": pa.array(list(c.values()), pa.int64()),
            }
        )

    counts = tree_combine(
        orders.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("o_orderpriority",), ("n_orders",)),
    )
    schema = pa.schema(
        [
            ("o_orderpriority", pa.string()),
            ("n_orders", pa.int64()),
            ("share", pa.float64()),
        ]
    )

    def fin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        n = t["n_orders"].to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(n.sum())
        return pa.table(
            {
                "o_orderpriority": t["o_orderpriority"],
                "n_orders": t["n_orders"],
                "share": pa.array(
                    round_half_away(n.astype(np.float64) / total, 4),
                    pa.float64(),
                ),
            }
        )

    return counts.map_batches(fin, batch_size=None, batch_format="pyarrow")


def events_user_rank_top3(sf_dir: str, k: int = 3) -> Dataset:
    """RANK window with gap semantics (ties share a rank AND consume
    rank slots — ``rank() <= k`` can return more OR skip past k, unlike
    dense_rank): per type, users ranked by event count desc, keeping
    rank ≤ k. Same scale shape as events_user_dense_rank: the rank
    structure comes from the tiny (type, count, multiplicity) census —
    rank(n) = 1 + Σ multiplicity(n' > n) — so the cut is a broadcast
    threshold filter over the count census, never a per-group sort of
    the user table."""
    from ..runtime.combine import anchor

    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pylist(),
                "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["event_type", "user_id"], as_index=False).size()
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], pa.string()),
                "user_id": pa.array(g["user_id"].to_numpy(), pa.int64()),
                "n_events": pa.array(g["size"].to_numpy(), pa.int64()),
            }
        )

    counts = anchor(
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Sum("n_events", alias_name="n_events"))
    )
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("user_id", pa.int64()),
            ("n_events", pa.int64()),
            ("rnk", pa.int64()),
        ]
    )
    # (type, count, multiplicity) census — O(#distinct counts) per type
    mcensus = tree_combine(
        counts.map_batches(
            lambda t: pa.table(
                {
                    "event_type": t["event_type"],
                    "n_events": t["n_events"],
                    "m": pa.array(np.ones(t.num_rows, np.int64)),
                }
            ),
            batch_format="pyarrow",
        ),
        group_sum_merge(("event_type", "n_events"), ("m",)),
    ).to_pandas()
    if mcensus.empty:
        return rd.from_arrow(schema.empty_table())

    rank_of: dict[tuple, int] = {}
    thresh: dict[str, int] = {}
    for t, g in mcensus.groupby("event_type", sort=False):
        g = g.sort_values("n_events", ascending=False)
        ns = g["n_events"].to_numpy(np.int64)
        ms = g["m"].to_numpy(np.int64)
        ranks = 1 + np.concatenate([[0], np.cumsum(ms)[:-1]])
        keep = ranks <= k
        if not keep.any():
            continue
        thresh[t] = int(ns[keep][-1])
        for n, r in zip(ns[keep], ranks[keep]):
            rank_of[(t, int(n))] = int(r)

    def fin(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        n = batch["n_events"].to_numpy(zero_copy_only=False)
        if len(et) == 0:
            return schema.empty_table()
        thr = np.array([thresh.get(t, np.iinfo(np.int64).max) for t in et])
        keep = n >= thr
        et, u, n = et[keep], u[keep], n[keep]
        rnk = np.array(
            [rank_of[(t, int(v))] for t, v in zip(et, n)], np.int64
        )
        return pa.table(
            {
                "event_type": pa.array(et, pa.string()),
                "user_id": pa.array(u, pa.int64()),
                "n_events": pa.array(n, pa.int64()),
                "rnk": pa.array(rnk, pa.int64()),
            }
        )

    return counts.map_batches(fin, batch_format="pyarrow")


def events_user_max_streak(sf_dir: str) -> Dataset:
    """GAPS-AND-ISLANDS (the consecutive-run / streak class — SQL's
    ``day - row_number() * INTERVAL 1 DAY`` island trick): per user, the
    count of distinct active days and the longest run of CONSECUTIVE
    days. Batches shrink to distinct (user, epoch-day) rows map-side;
    ONE groupby on the reused user_id key and the per-group streak is a
    vectorized diff-split over the sorted unique day ints — no per-day
    loop, state bounded by active-day span."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "ts"])

    def day_partial(batch: pa.Table) -> pa.Table:
        us = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        days = (
            pc.floor_temporal(batch["ts"], unit="day")
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            // 86_400_000_000
        )
        uniq = np.unique(np.stack([us, days], axis=1), axis=0)
        return pa.table(
            {
                "user_id": pa.array(uniq[:, 0], pa.int64()),
                "day": pa.array(uniq[:, 1], pa.int64()),
            }
        )

    def streak(g: pd.DataFrame) -> pd.DataFrame:
        days = np.unique(g["day"].to_numpy(np.int64))
        runs = np.split(days, np.where(np.diff(days) != 1)[0] + 1)
        return pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy(np.int64)[:1],
                "n_active_days": np.array([len(days)], np.int64),
                "max_streak_days": np.array(
                    [max(len(r) for r in runs)], np.int64
                ),
            }
        )

    return (
        ev.map_batches(day_partial, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(streak, batch_format="pandas")
    )


FUZZY_BLOCK_MAX = 4_000_000  # per-segment-group candidate cross cap (loud)


def _segments(L: int, k: int) -> list[tuple[int, int]]:
    """PassJoin partition of a length-L string into k+1 contiguous
    (start, len) segments — shorter segments first (one fixed convention
    shared by the index and probe sides; PassJoin, Li et al. VLDB'11)."""
    parts = k + 1
    base, rem = divmod(L, parts)
    out, pos = [], 0
    for i in range(parts):
        seg_len = base + (1 if i >= parts - rem else 0)
        out.append((pos, seg_len))
        pos += seg_len
    return out


def _fuzzy_pairs_blocked(census: Dataset, k: int) -> Dataset:
    """Segment-blocking fuzzy self-join — the SCALE path behind
    ``part_fuzzy_pairs``'s FUZZY_MAX_NAMES cap (converts the formerly
    named-but-not-built fallback into a real path). Sound and complete
    by pigeonhole: ≤ k edits can corrupt at most k of a string's k+1
    segments, so any match shares at least one segment EXACTLY, at a
    position shifted by at most k. Every distinct name emits its k+1
    (L, seg_idx, segment) index keys plus the ≤ (2k+1)²(k+1) probe
    substrings matching any candidate indexed length — constant rows
    per name, ONE groupby on the segment key, in-group index×probe
    cross (capped loudly at FUZZY_BLOCK_MAX — a hot segment means a
    shared-prefix pile-up; split on a longer q-gram before raising the
    cap), a pair-dedupe groupby, then banded-DP verify. No all-pairs
    sweep anywhere; candidate volume is data-dependent, not quadratic.
    Equivalence-tested against the broadcast sweep
    (tests/test_doc_oracle.py::test_fuzzy_blocked_path_matches_broadcast)."""
    from ray.data.aggregate import Count as _Count

    def emit(batch: pa.Table) -> pa.Table:
        keys, sides, names = [], [], []
        for s in batch["p_name"].to_pylist():
            n = len(s)
            # index side: this name's own segments
            for i, (p, seg_len) in enumerate(_segments(n, k)):
                keys.append(f"{n}|{i}|{s[p:p + seg_len]}")
                sides.append(0)
                names.append(s)
            # probe side: substrings matching the segment grid of every
            # candidate indexed length, start shifted by at most k
            for lc in range(max(0, n - k), n + k + 1):
                for i, (p, seg_len) in enumerate(_segments(lc, k)):
                    lo = max(0, p - k)
                    hi = min(n - seg_len, p + k)
                    seen: set[str] = set()
                    for st in range(lo, hi + 1):
                        sub = s[st:st + seg_len]
                        if sub in seen:
                            continue
                        seen.add(sub)
                        keys.append(f"{lc}|{i}|{sub}")
                        sides.append(1)
                        names.append(s)
        return pa.table(
            {
                "key": pa.array(keys, pa.string()),
                "side": pa.array(sides, pa.int64()),
                "name": pa.array(names, pa.string()),
            }
        )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        idx = df.loc[df["side"] == 0, "name"].unique()
        prb = df.loc[df["side"] == 1, "name"].unique()
        if len(idx) * len(prb) > FUZZY_BLOCK_MAX:
            raise ValueError(
                f"fuzzy segment group '{df['key'].iloc[0]}' crosses "
                f"{len(idx)}x{len(prb)} candidates > FUZZY_BLOCK_MAX="
                f"{FUZZY_BLOCK_MAX}: a shared-prefix pile-up — block on a "
                "longer q-gram or pre-split the hot segment"
            )
        out_a, out_b = [], []
        for a in idx:
            for b in prb:
                if a != b:
                    out_a.append(min(a, b))
                    out_b.append(max(a, b))
        return pd.DataFrame(
            {"name_a": out_a, "name_b": out_b}
        ).drop_duplicates()

    cands = (
        census.map_batches(emit, batch_format="pyarrow")
        .groupby("key")
        .map_groups(pairs, batch_format="pandas")
        .groupby(["name_a", "name_b"])
        .aggregate(_Count(alias_name="_c"))
        .drop_columns(["_c"])
    )

    def verify(batch: pa.Table) -> pa.Table:
        a_out, b_out, d_out = [], [], []
        for a, b in zip(
            batch["name_a"].to_pylist(), batch["name_b"].to_pylist()
        ):
            d = _lev_leq(a, b, k)
            if d is not None:
                a_out.append(a)
                b_out.append(b)
                d_out.append(d)
        return pa.table(
            {
                "name_a": pa.array(a_out, pa.string()),
                "name_b": pa.array(b_out, pa.string()),
                "dist": pa.array(d_out, pa.int64()),
            }
        )

    return cands.map_batches(verify, batch_format="pyarrow")


def events_selfjoin_size_cms(sf_dir: str) -> Dataset:
    """JOIN-SIZE ESTIMATION from a sketch (the query-optimizer
    cardinality primitive — |R ⋈ R| on user_id = Σ_u c(u)², estimated as
    min_r Σ_col reg[r,col]², the CMS inner-product bound: an
    OVERESTIMATE, never under): the register pass is the
    events_user_freq_cms shape (depth × width fixed-width partials,
    element-wise-sum tree combine); the exact side needs the true
    per-user counts, so it pays the one user-key groupby the sketch
    exists to avoid — reported side by side with the relative
    overestimate. All md5 hashing replays bit-for-bit in the oracle."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id"])
    merge = group_sum_merge(("r", "col"), ("cnt",))

    def reg_partial(batch: pa.Table) -> pa.Table:
        users, counts = np.unique(
            batch["user_id"].to_numpy(zero_copy_only=False), return_counts=True
        )
        rs, cols, cnts = [], [], []
        for u, c in zip(users, counts):
            for r in range(CMS_DEPTH):
                rs.append(r)
                cols.append(_cms_col(r, str(int(u))))
                cnts.append(int(c))
        return merge(
            pa.table(
                {
                    "r": pa.array(rs, pa.int64()),
                    "col": pa.array(cols, pa.int64()),
                    "cnt": pa.array(cnts, pa.int64()),
                }
            )
        )

    regs = tree_combine(
        ev.map_batches(reg_partial, batch_format="pyarrow"), merge
    ).to_pandas()
    if regs.empty:
        est = 0
    else:
        est = int(
            regs.assign(sq=regs["cnt"] * regs["cnt"])
            .groupby("r")["sq"]
            .sum()
            .min()
        )

    counts = ev.groupby("user_id").aggregate(Count(alias_name="n"))
    sq_merge = group_sum_merge(("k",), ("s",))
    parts = tree_combine(
        counts.map_batches(
            lambda t: pa.table(
                {
                    "k": pa.array([0], pa.int64()),
                    "s": pa.array(
                        [
                            int(
                                np.sum(
                                    t["n"]
                                    .to_numpy(zero_copy_only=False)
                                    .astype(np.int64)
                                    ** 2
                                )
                            )
                        ],
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        ),
        sq_merge,
    ).take_all()
    exact = int(parts[0]["s"]) if parts else 0
    rel = (est - exact) / exact if exact else 0.0
    return rd.from_arrow(
        pa.table(
            {
                "est_selfjoin": pa.array([est], pa.int64()),
                "exact_selfjoin": pa.array([exact], pa.int64()),
                "rel_overestimate": pa.array(
                    round_half_away([rel], 4), pa.float64()
                ),
            }
        )
    )


ER_CLUSTER_MAX_PAIRS = 5_000_000  # driver union-find gate (loud)


def part_name_clusters(sf_dir: str) -> Dataset:
    """ENTITY-RESOLUTION CLUSTERING (the dirty-dimension master-data
    step composing the fuzzy join with connected components): names
    within edit distance 2 are linked, clusters are transitive closures,
    cluster_id = the lexicographic min member, size attached. The pair
    set comes from the size-adaptive fuzzy join (broadcast sweep or
    PassJoin blocking); the closure is a union-find over the
    vocabulary-sized pair list (gated loudly at ER_CLUSTER_MAX_PAIRS —
    past it, the distributed min-label-propagation in stages/graph is
    the documented path). Oracle: DuckDB recursive-CTE reachability with
    the same min-member labeling."""
    pairs = part_fuzzy_pairs(sf_dir).to_pandas()
    if len(pairs) > ER_CLUSTER_MAX_PAIRS:
        raise ValueError(
            f"part_name_clusters: {len(pairs)} fuzzy pairs exceeds "
            f"ER_CLUSTER_MAX_PAIRS={ER_CLUSTER_MAX_PAIRS}; run the "
            "distributed min-label propagation (stages.graph.components) "
            "over the pair stream instead"
        )
    part = read_parquet_clean(_p(sf_dir, "part"), columns=["p_name"])
    merge = group_sum_merge(("p_name",), ())
    census = tree_combine(
        part.map_batches(
            lambda b: b.group_by(["p_name"]).aggregate([]),
            batch_format="pyarrow",
        ),
        merge,
    ).to_pandas()
    schema = pa.schema(
        [
            ("p_name", pa.string()),
            ("cluster_id", pa.string()),
            ("cluster_size", pa.int64()),
        ]
    )
    if census.empty:
        return rd.from_arrow(schema.empty_table())
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(pairs.get("name_a", ()), pairs.get("name_b", ())):
        ra, rb = find(a), find(b)
        if ra != rb:  # min-root union keeps the label deterministic
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    names = census["p_name"].tolist()
    labels = [find(n) for n in names]
    sizes = Counter(labels)
    return rd.from_arrow(
        pa.table(
            {
                "p_name": pa.array(names, pa.string()),
                "cluster_id": pa.array(labels, pa.string()),
                "cluster_size": pa.array(
                    [sizes[x] for x in labels], pa.int64()
                ),
            },
            schema=schema,
        )
    )


def events_user_gini(sf_dir: str) -> Dataset:
    """GINI COEFFICIENT of the per-user event-count distribution (the
    skew-diagnostics statistic a partitioner consults before choosing a
    salting strategy): G = 2·Σ i·c(i) / (n·Σc) − (n+1)/n over counts
    sorted ascending. Computed WITHOUT touching per-user rows on the
    driver: after the one user-key count groupby, the (count-value,
    multiplicity) census — O(√(2·total)) rows — gives every rank block
    in closed form (Σ i over m tied users at offset o = m·o + m(m+1)/2),
    all integer-exact until the two final divisions mirrored in SQL."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id"])
    counts = ev.groupby("user_id").aggregate(Count(alias_name="n_events"))
    mcensus = tree_combine(
        counts.map_batches(
            lambda t: pa.table(
                {
                    "v": t["n_events"],
                    "m": pa.array(np.ones(t.num_rows, np.int64)),
                }
            ),
            batch_format="pyarrow",
        ),
        group_sum_merge(("v",), ("m",)),
    ).to_pandas()
    schema = pa.schema(
        [
            ("n_users", pa.int64()),
            ("n_events", pa.int64()),
            ("gini", pa.float64()),
        ]
    )
    if mcensus.empty:
        return rd.from_arrow(schema.empty_table())
    mc = mcensus.sort_values("v")
    v = mc["v"].to_numpy(np.int64)
    m = mc["m"].to_numpy(np.int64)
    offsets = np.concatenate([[0], np.cumsum(m)[:-1]])
    A = int(np.sum(v * (m * offsets + m * (m + 1) // 2)))
    B = int(np.sum(v * m))
    n = int(m.sum())
    gini = 2.0 * A / (n * B) - (n + 1.0) / n
    return rd.from_arrow(
        pa.table(
            {
                "n_users": pa.array([n], pa.int64()),
                "n_events": pa.array([B], pa.int64()),
                "gini": pa.array(round_half_away([gini], 4), pa.float64()),
            },
            schema=schema,
        )
    )


def events_value_ks_drift(sf_dir: str) -> Dataset:
    """KOLMOGOROV–SMIRNOV DRIFT statistic between two slices (the
    data-validation primitive that guards a training mix against
    distribution shift): KS = max_v |F_click(v) − F_purchase(v)| over
    the click vs purchase value distributions. ONE (type, value)-census
    pass (the outliers idiom — fixed-width rows, value-domain-sized);
    the two CDFs merge on the sorted union support and the max runs on
    INTEGER cross-counts (|c₁·n₂ − c₂·n₁|, order-independent, no float
    CDF subtraction), with a single exact-operand division at the end —
    the SQL mirrors the same integer max. Output also reports the value
    where the max gap is attained (ties → smallest value)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    ).map_batches(
        lambda t: t.filter(
            pc.is_in(t["event_type"], pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow",
    )

    def census(batch: pa.Table) -> pa.Table:
        c = Counter(
            zip(batch["event_type"].to_pylist(), batch["value"].to_pylist())
        )
        ts, vs, ns = [], [], []
        for (t, v), n in c.items():
            ts.append(t)
            vs.append(v)
            ns.append(n)
        return pa.table(
            {
                "event_type": pa.array(ts, pa.string()),
                "value": pa.array(vs, pa.float64()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    counts = tree_combine(
        ev.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("event_type", "value"), ("n",)),
    ).to_pandas()
    schema = pa.schema(
        [
            ("n_click", pa.int64()),
            ("n_purchase", pa.int64()),
            ("ks", pa.float64()),
            ("ks_at_value", pa.float64()),
        ]
    )
    if counts.empty:
        return rd.from_arrow(schema.empty_table())
    piv = (
        counts.pivot_table(
            index="value", columns="event_type", values="n",
            aggfunc="sum", fill_value=0,
        )
        .reindex(columns=["click", "purchase"], fill_value=0)
        .sort_index()
    )
    c1 = piv["click"].to_numpy(np.int64).cumsum()
    c2 = piv["purchase"].to_numpy(np.int64).cumsum()
    n1, n2 = int(c1[-1]), int(c2[-1])
    if n1 == 0 or n2 == 0:
        return rd.from_arrow(schema.empty_table())
    gap = np.abs(c1 * n2 - c2 * n1)  # integer cross-counts, exact
    i = int(np.argmax(gap))  # first max → smallest value on ties
    ks = int(gap[i]) / (n1 * n2)
    return rd.from_arrow(
        pa.table(
            {
                "n_click": pa.array([n1], pa.int64()),
                "n_purchase": pa.array([n2], pa.int64()),
                "ks": pa.array(round_half_away([ks], 4), pa.float64()),
                "ks_at_value": pa.array(
                    [float(piv.index[i])], pa.float64()
                ),
            },
            schema=schema,
        )
    )


def events_sliding_distinct_users(sf_dir: str) -> Dataset:
    """COUNT(DISTINCT) per SLIDING window (the hard windowed-distinct
    class — a plain count slides for free, a distinct does not): distinct
    users per 60-minute window stepping 30 minutes. Each event replicates
    to its two covering windows and dedups to (window, user) map-side, so
    the shuffle moves per-window distinct pairs (bounded by active users
    per window, never raw events); one groupby counts. Same window grid
    as events_sliding_hourly (time_bucket ∪ time_bucket − 30 min)."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "ts"])
    step_us = 30 * 60 * 1_000_000

    def replicate(batch: pa.Table) -> pa.Table:
        us = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        micros = (
            pc.cast(batch["ts"], pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        b0 = micros // step_us * step_us
        w = np.concatenate([b0, b0 - step_us])
        u2 = np.concatenate([us, us])
        uniq = np.unique(np.stack([w, u2], axis=1), axis=0)
        return pa.table(
            {
                "w": pa.array(uniq[:, 0], pa.int64()),
                "user_id": pa.array(uniq[:, 1], pa.int64()),
            }
        )

    pairs = (
        ev.map_batches(replicate, batch_format="pyarrow")
        .groupby(["w", "user_id"])
        .aggregate(Count(alias_name="_c"))
    )
    merge = group_sum_merge(("w",), ("n_users",))
    counts = tree_combine(
        pairs.map_batches(
            lambda t: merge(
                pa.table(
                    {
                        "w": t["w"],
                        "n_users": pa.array(np.ones(t.num_rows, np.int64)),
                    }
                )
            ),
            batch_format="pyarrow",
        ),
        merge,
    )

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": t["w"].cast(pa.timestamp("us")),
                "n_users": t["n_users"],
            }
        )

    return counts.map_batches(fin, batch_format="pyarrow")


def events_session_conversion(sf_dir: str) -> Dataset:
    """SESSIONIZED OUTCOME aggregate (composing gap sessionization with
    a conversion flag — the funnel-completion rate per user): sessions
    are 30-minute-gap groups (the events_sessions convention); a session
    converts if it contains ≥ 1 purchase. Per user: session count,
    converted count, and the rate (ONE division of exact ints, mirrored
    in SQL). One groupby on the reused user_id key; the per-group sweep
    is vectorized (sorted ts diff → session starts → purchase flag
    max-per-session via np.maximum.reduceat)."""
    gap_us = np.timedelta64(30 * 60 * 1_000_000, "us")
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
    )

    def conv(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("ts")
        ts = g["ts"].to_numpy()
        is_buy = (g["event_type"] == "purchase").to_numpy()
        new = np.concatenate([[True], (ts[1:] - ts[:-1]) > gap_us])
        starts = np.nonzero(new)[0]
        n_sessions = len(starts)
        converted = np.maximum.reduceat(is_buy.astype(np.int64), starts)
        n_conv = int(converted.sum())
        return pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy(np.int64)[:1],
                "n_sessions": np.array([n_sessions], np.int64),
                "n_converted": np.array([n_conv], np.int64),
                "conv_rate": round_half_away(
                    np.array([n_conv / n_sessions]), 4
                ),
            }
        )

    return ev.groupby("user_id").map_groups(conv, batch_format="pandas")


FP_MOD = (1 << 61) - 1  # Mersenne modulus keeps every partial in int64


def events_table_fingerprint(sf_dir: str) -> Dataset:
    """ORDER-INDEPENDENT TABLE FINGERPRINT (the replication / migration
    audit checksum — two copies of a table compare equal iff their
    fingerprints do, no sort, no row shipping): sum over rows of
    md5(event_id|user_id) mod 2⁶¹−1, plus the row count. Per-batch
    partial sums are associative and fixed-width (ONE row per block);
    the merge reduces in arbitrary-precision Python ints before
    re-applying the modulus so no overflow wraps differently than the
    oracle's HUGEINT sum."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_id", "user_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        eids = batch["event_id"].to_pylist()
        uids = batch["user_id"].to_pylist()
        s = 0
        for e, u in zip(eids, uids):
            h = int.from_bytes(
                hashlib.md5(f"{e}|{u}".encode("utf-8")).digest()[:8],
                "little",
            )  # md5_number_upper replay (HLL-oracle convention)
            s += h % FP_MOD
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "fp": pa.array([s % FP_MOD], pa.int64()),
                "n_rows": pa.array([len(eids)], pa.int64()),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        fp = sum(int(x) for x in t["fp"].to_pylist()) % FP_MOD
        n = int(pc.sum(t["n_rows"]).as_py() or 0)
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "fp": pa.array([fp], pa.int64()),
                "n_rows": pa.array([n], pa.int64()),
            }
        )

    out = tree_combine(
        ev.map_batches(partial, batch_format="pyarrow"), merge
    ).take_all()
    if not out:
        return rd.from_arrow(
            pa.table(
                {
                    "n_rows": pa.array([], pa.int64()),
                    "fingerprint": pa.array([], pa.int64()),
                }
            )
        )
    return rd.from_arrow(
        pa.table(
            {
                "n_rows": pa.array([int(out[0]["n_rows"])], pa.int64()),
                "fingerprint": pa.array([int(out[0]["fp"])], pa.int64()),
            }
        )
    )


# ----------------------------------------------- batch 12: stat tests & paths
# Calendar arithmetic travels as int64 epoch-µs (the events_daily_retention
# convention — int keys shuffle clean and avoid the datetime64 precision-
# coercion warning class).
_DAY_US = 86_400_000_000
_WEEK_US = 7 * _DAY_US
# 1970-01-01 is a Thursday: +4d aligns day-of-week to Sunday=0 (DuckDB's
# dayofweek), +3d aligns the week floor to Monday (DuckDB date_trunc('week')).
_SUNDAY_SHIFT_DAYS = 4
_MONDAY_SHIFT_US = 3 * _DAY_US


def _ts_us(batch: pa.Table, col: str = "ts") -> np.ndarray:
    """Timestamp column → int64 epoch-µs numpy array."""
    return (
        batch[col]
        .cast(pa.timestamp("us"))
        .cast(pa.int64())
        .to_numpy(zero_copy_only=False)
    )


def events_type_dow_chi2(sf_dir: str) -> Dataset:
    """CHI-SQUARE INDEPENDENCE TEST (event_type × day-of-week) — the
    classic categorical-association diagnostic over an event log. ONE
    streaming census pass: map-side (event_type, dow) group-sum partials
    tree-combined (cell domain = #types × 7, enumerable), then a driver-
    block finish computes per-cell expected counts and χ² contributions
    from EXACT Python-int cross products — expected = rt·ct/n and
    contrib = (o·n − rt·ct)²/(rt·ct·n) are each ONE double division of
    exact integers, mirrored in SQL via HUGEINT (no float summation
    anywhere; the quotient magnitudes are O(n), so 4-decimal rounding has
    ~1e-10 headroom — same documented class as lineitem_corr). Per-cell
    rows are emitted instead of a single χ² scalar so neither side sums
    doubles in an order-dependent way."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["event_type", "ts"])
    merge = group_sum_merge(("event_type", "dow"), ("observed",))

    def partial(batch: pa.Table) -> pa.Table:
        dow = (_ts_us(batch) // _DAY_US + _SUNDAY_SHIFT_DAYS) % 7
        return merge(
            pa.table(
                {
                    "event_type": batch["event_type"],
                    "dow": pa.array(dow.astype(np.int64), pa.int64()),
                    "observed": pa.array(
                        np.ones(len(dow), np.int64), pa.int64()
                    ),
                }
            )
        )

    census = tree_combine(ev.map_batches(partial, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "dow": pa.array([], pa.int64()),
                    "observed": pa.array([], pa.int64()),
                    "expected": pa.array([], pa.float64()),
                    "contrib": pa.array([], pa.float64()),
                }
            )
        types = t["event_type"].to_pylist()
        dows = [int(d) for d in t["dow"].to_pylist()]
        obs = [int(o) for o in t["observed"].to_pylist()]
        n = sum(obs)
        row_tot: Counter = Counter()
        col_tot: Counter = Counter()
        for ty, d, o in zip(types, dows, obs):
            row_tot[ty] += o
            col_tot[d] += o
        expected, contrib = [], []
        for ty, d, o in zip(types, dows, obs):
            rc = row_tot[ty] * col_tot[d]  # exact Python int
            expected.append(rc / n)  # ONE correctly-rounded division
            num = (o * n - rc) ** 2  # exact Python int
            contrib.append(num / (rc * n))  # ONE division
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "dow": pa.array(dows, pa.int64()),
                "observed": pa.array(obs, pa.int64()),
                "expected": pa.array(
                    round_half_away(np.array(expected, np.float64), 4),
                    pa.float64(),
                ),
                "contrib": pa.array(
                    round_half_away(np.array(contrib, np.float64), 4),
                    pa.float64(),
                ),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


def events_cohort_retention(sf_dir: str) -> Dataset:
    """WEEKLY COHORT-RETENTION TRIANGLE (the product-analytics staple the
    adjacent-day retention query doesn't cover): cohort_week = the Monday-
    truncated week of each user's FIRST activity; for every (cohort_week,
    week_offset) report how many of that cohort were active offset weeks
    later. Shape: map-side per-batch dedup to distinct (user, week) int
    pairs → ONE (user, week) groupby → per-user vectorized offset emit
    (groups are bounded by the corpus week span, never by activity volume)
    → week²-sized census tree-combined. Per-user state never concentrates;
    both shuffles move fixed-width int rows."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "ts"])

    def to_weeks(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch)
        week = (us + _MONDAY_SHIFT_US) // _WEEK_US * _WEEK_US - _MONDAY_SHIFT_US
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "week": pa.array(week.astype(np.int64), pa.int64()),
            }
        )
        return t.group_by(["user_id", "week"]).aggregate([])

    act = (
        ev.map_batches(to_weeks, batch_format="pyarrow")
        .groupby(["user_id", "week"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )

    def offsets(g: pd.DataFrame) -> pd.DataFrame:
        w = np.sort(g["week"].to_numpy(np.int64))
        cohort = w[0]
        return pd.DataFrame(
            {
                "cohort_week": np.full(len(w), cohort, np.int64),
                "week_offset": ((w - cohort) // _WEEK_US).astype(np.int64),
                "n_active": np.ones(len(w), np.int64),
            }
        )

    per_user = act.groupby("user_id").map_groups(offsets, batch_format="pandas")
    merge = group_sum_merge(("cohort_week", "week_offset"), ("n_active",))
    out = tree_combine(per_user.map_batches(merge, batch_format="pyarrow"), merge)

    def cast_week(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "cohort_week" not in t.schema.names:
            return pa.table(
                {
                    "cohort_week": pa.array([], pa.timestamp("us")),
                    "week_offset": pa.array([], pa.int64()),
                    "n_active": pa.array([], pa.int64()),
                }
            )
        idx = t.schema.get_field_index("cohort_week")
        return t.set_column(
            idx, "cohort_week", t["cohort_week"].cast(pa.timestamp("us"))
        )

    return out.map_batches(cast_week, batch_size=None, batch_format="pyarrow")


def events_user_max_drawdown(sf_dir: str) -> Dataset:
    """PATH-DEPENDENT SCAN STATISTIC (max drawdown): per user, the largest
    running-peak-to-current fall of the value series ordered by
    (ts, event_id) — the risk metric no plain aggregate can express
    because it depends on the running maximum (max(value) − min(value)
    overstates it whenever the minimum precedes the peak). ONE user-key
    groupby; the per-group sweep is fully vectorized
    (np.maximum.accumulate over exact int cents → max gap), and every
    reported float is ONE division of an exact int by 100, mirrored in
    SQL by the identical cents-window arithmetic."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts", "event_id", "value"]
    )

    def mdd(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        cents = round_half_away(
            g["value"].to_numpy(np.float64) * 100.0, 0
        ).astype(np.int64)
        runmax = np.maximum.accumulate(cents)
        return pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy(np.int64)[:1],
                "n_events": np.array([len(cents)], np.int64),
                "peak_value": round_half_away(
                    np.array([int(runmax[-1]) / 100.0]), 4
                ),
                "max_drawdown": round_half_away(
                    np.array([int(np.max(runmax - cents)) / 100.0]), 4
                ),
            }
        )

    return ev.groupby("user_id").map_groups(mdd, batch_format="pandas")


# epoch minutes of 2024-01-01 00:00:00 UTC — a fixed reference origin that
# keeps regression time values small: with minute-resolution t and a multi-
# year span (|t| ≤ ~5e6), Σt² stays inside int64 up to ~10⁸ rows per group.
# Past that, widen the stt partial to two int64 limbs (the fingerprint op's
# Python-int merge shows the pattern); the finish already reduces in
# arbitrary-precision Python ints.
_TREND_EPOCH_MIN = 28_401_120


def events_value_trend_ols(sf_dir: str) -> Dataset:
    """INTEGER-EXACT OLS TREND per event_type (least-squares slope and
    intercept of value against time) — the drift/regression primitive done
    without any float accumulation: time is minute-resolution int64 offsets
    from a fixed origin, value is exact int cents, and the five raw moments
    (n, Σt, Σv, Σtv, Σt²) are integer partials group-summed map-side and
    tree-combined. The finish expands the closed forms in arbitrary-
    precision Python ints — slope = (nΣtv − ΣtΣv)/(nΣt² − (Σt)²), intercept
    = (ΣvΣt² − ΣtΣtv)/(nΣt² − (Σt)²) — so each reported float is ONE
    division of exact integers; the SQL mirror computes the same forms in
    HUGEINT. Degenerate groups (all rows in one minute) report NULLs on
    both sides."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "ts", "value"]
    )
    merge = group_sum_merge(
        ("event_type",), ("n_rows", "st", "sv", "stv", "stt")
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = _ts_us(batch) // 60_000_000 - _TREND_EPOCH_MIN
        v = round_half_away(
            batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        return merge(
            pa.table(
                {
                    "event_type": batch["event_type"],
                    "n_rows": pa.array(np.ones(len(t), np.int64), pa.int64()),
                    "st": pa.array(t, pa.int64()),
                    "sv": pa.array(v, pa.int64()),
                    "stv": pa.array(t * v, pa.int64()),
                    "stt": pa.array(t * t, pa.int64()),
                }
            )
        )

    census = tree_combine(ev.map_batches(partial, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "n_rows": pa.array([], pa.int64()),
                    "slope_per_day": pa.array([], pa.float64()),
                    "intercept_value": pa.array([], pa.float64()),
                }
            )
        slopes, icepts = [], []
        for i in range(t.num_rows):
            n = int(t["n_rows"][i].as_py())
            st = int(t["st"][i].as_py())
            sv = int(t["sv"][i].as_py())
            stv = int(t["stv"][i].as_py())
            stt = int(t["stt"][i].as_py())
            den = n * stt - st * st  # exact Python int
            if den == 0:
                slopes.append(None)
                icepts.append(None)
                continue
            # ×1440 min/day up top, ×100 cents down below — ONE division each
            slopes.append(
                float(
                    round_half_away(
                        np.array([(n * stv - st * sv) * 1440 / (den * 100)]),
                        6,
                    )[0]
                )
            )
            icepts.append(
                float(
                    round_half_away(
                        np.array([(sv * stt - st * stv) / (den * 100)]), 4
                    )[0]
                )
            )
        return pa.table(
            {
                "event_type": t["event_type"],
                "n_rows": t["n_rows"],
                "slope_per_day": pa.array(slopes, pa.float64()),
                "intercept_value": pa.array(icepts, pa.float64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


# ------------------------------------- batch 13: experimentation & behavior
AB_CONV_MIN_VALUE = 150


def events_ab_conversion_ztest(sf_dir: str) -> Dataset:
    """TWO-PROPORTION Z-TEST over a hash-randomized A/B split — the
    experimentation primitive (is arm A's conversion rate significantly
    different from arm B's?). Users are assigned arms by the
    md5_number_upper parity convention (deterministic, replayed
    bit-for-bit in SQL); a user converts if they ever make a HIGH-VALUE
    purchase (value >= AB_CONV_MIN_VALUE — plain "ever purchased" is
    degenerate on this corpus: every user converts and z is NULL). Shape:
    map-side (user, converted) partials → ONE user-key groupby (Max) →
    arm-level census tree-combined (2 fixed rows through the merge) →
    driver finish expands the pooled z closed form in exact Python ints,
    z = (c1·n2 − c2·n1) / sqrt(c·(N−c)·n1·n2 / N) — the only floats are
    ONE division inside the sqrt and the final quotient, mirrored in SQL
    via HUGEINT (~1-2 ulp slack against 4-decimal rounding). Degenerate
    splits (no conversions, all conversions, an empty arm) report NULL z
    on both sides."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type", "value"]
    )

    def user_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "conv": pc.cast(
                    pc.and_(
                        pc.equal(batch["event_type"], "purchase"),
                        pc.greater_equal(
                            batch["value"], pa.scalar(float(AB_CONV_MIN_VALUE))
                        ),
                    ),
                    pa.int64(),
                ),
            }
        )
        return pa.TableGroupBy(t, ["user_id"]).aggregate(
            [("conv", "max")]
        ).rename_columns(["user_id", "conv"])

    per_user = (
        ev.map_batches(user_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Max("conv", alias_name="conv"))
    )
    merge = group_sum_merge(("arm",), ("n_users", "n_conv"))

    def arm_partial(batch: pa.Table) -> pa.Table:
        arms = []
        for u in batch["user_id"].to_pylist():
            h = int.from_bytes(
                hashlib.md5(str(u).encode("utf-8")).digest()[:8], "little"
            )  # md5_number_upper replay (split-assign convention)
            arms.append("A" if h % 2 == 0 else "B")
        return merge(
            pa.table(
                {
                    "arm": pa.array(arms, pa.string()),
                    "n_users": pa.array([1] * len(arms), pa.int64()),
                    "n_conv": batch["conv"].cast(pa.int64()),
                }
            )
        )

    census = tree_combine(
        per_user.map_batches(arm_partial, batch_format="pyarrow"), merge
    )

    def finish(t: pa.Table) -> pa.Table:
        cols = {
            "n_users_a": pa.array([], pa.int64()),
            "n_conv_a": pa.array([], pa.int64()),
            "n_users_b": pa.array([], pa.int64()),
            "n_conv_b": pa.array([], pa.int64()),
            "rate_a": pa.array([], pa.float64()),
            "rate_b": pa.array([], pa.float64()),
            "z_stat": pa.array([], pa.float64()),
        }
        if t.num_rows == 0:
            return pa.table(cols)
        by = {
            a: (int(n), int(c))
            for a, n, c in zip(
                t["arm"].to_pylist(),
                t["n_users"].to_pylist(),
                t["n_conv"].to_pylist(),
            )
        }
        n1, c1 = by.get("A", (0, 0))
        n2, c2 = by.get("B", (0, 0))
        c, big_n = c1 + c2, n1 + n2
        if n1 and n2 and 0 < c < big_n:
            z = float(
                round_half_away(
                    np.array(
                        [
                            (c1 * n2 - c2 * n1)
                            / np.sqrt(c * (big_n - c) * n1 * n2 / big_n)
                        ]
                    ),
                    4,
                )[0]
            )
        else:
            z = None
        return pa.table(
            {
                "n_users_a": pa.array([n1], pa.int64()),
                "n_conv_a": pa.array([c1], pa.int64()),
                "n_users_b": pa.array([n2], pa.int64()),
                "n_conv_b": pa.array([c2], pa.int64()),
                "rate_a": pa.array(
                    [
                        float(round_half_away(np.array([c1 / n1]), 4)[0])
                        if n1
                        else None
                    ],
                    pa.float64(),
                ),
                "rate_b": pa.array(
                    [
                        float(round_half_away(np.array([c2 / n2]), 4)[0])
                        if n2
                        else None
                    ],
                    pa.float64(),
                ),
                "z_stat": pa.array([z], pa.float64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


SESSION_PATH_MAX_STEPS = 5


def events_session_paths_top20(sf_dir: str) -> Dataset:
    """CLICKSTREAM PATH MINING: the 20 most common session-opening
    event-type sequences (first ≤5 steps of each 30-minute-gap session,
    joined with '>') — the behavioral-pattern census downstream of
    sessionization. ONE user-key groupby; the per-group sweep reuses the
    vectorized session-start machinery (diff → reduceat bounds) and emits
    one path row per session; the path census group-sums map-side (path
    vocabulary is tiny: #types^≤5 bounded by observed behavior) and the
    top-20 cut is the associative (n DESC, path ASC) tree merge — no
    global sort."""
    gap_us = np.timedelta64(30 * 60 * 1_000_000, "us")
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts", "event_id", "event_type"]
    )

    def paths(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        ts = g["ts"].to_numpy()
        types = g["event_type"].to_numpy(object)
        new = np.concatenate([[True], (ts[1:] - ts[:-1]) > gap_us])
        starts = np.nonzero(new)[0]
        ends = np.append(starts[1:], len(ts))
        out = [
            ">".join(types[s : min(e, s + SESSION_PATH_MAX_STEPS)])
            for s, e in zip(starts, ends)
        ]
        return pd.DataFrame({"path": np.array(out, object)})

    per_session = ev.groupby("user_id").map_groups(paths, batch_format="pandas")
    merge = group_sum_merge(("path",), ("n",))

    def census_rows(t: pa.Table) -> pa.Table:
        return merge(
            pa.table(
                {
                    "path": t["path"],
                    "n": pa.array([1] * t.num_rows, pa.int64()),
                }
            )
        )

    counts = tree_combine(
        per_session.map_batches(census_rows, batch_format="pyarrow"), merge
    )
    return counts.map_batches(
        topk_merge(20, "n", ["path"]), batch_size=None, batch_format="pyarrow"
    )


BURST_WINDOW_US = 5 * 60 * 1_000_000


def events_user_burst_max(sf_dir: str) -> Dataset:
    """BURST DETECTION (rate-limit / abuse audit): per user, the maximum
    number of events inside any 5-minute window anchored at an event
    ([t, t+5min], value-based frame so equal timestamps are peers), plus
    the earliest window start achieving it. ONE user-key groupby; the
    per-group sweep is two vectorized searchsorted calls — no per-window
    loop, no window replication through the shuffle (contrast the
    sliding-window ops, which replicate rows to buckets; anchored-at-event
    windows localize to the group)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts"]
    )

    def burst(g: pd.DataFrame) -> pd.DataFrame:
        ts = np.sort(g["ts"].to_numpy().astype("datetime64[us]").view(np.int64))
        lo = np.searchsorted(ts, ts, side="left")
        hi = np.searchsorted(ts, ts + BURST_WINDOW_US, side="right")
        c = hi - lo
        best = int(c.max())
        at = int(ts[np.argmax(c == best)])  # first index achieving the max
        return pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy(np.int64)[:1],
                "n_events": np.array([len(ts)], np.int64),
                "burst_5min": np.array([best], np.int64),
                "burst_start_ts": np.array([at], "datetime64[us]"),
            }
        )

    return ev.groupby("user_id").map_groups(burst, batch_format="pandas")


# ------------------------------- batch 14: time-series state & anomaly ops
ZSCORE_WINDOW = 10  # trailing rows preceding current (frame = 11 rows)


def events_rolling_zscore(sf_dir: str) -> Dataset:
    """ROLLING Z-SCORE ANOMALY SCORE: per event, how unusual its value is
    against the user's trailing window (10 preceding rows + current) —
    the streaming-anomaly primitive. All windowed moments are EXACT int
    prefix sums of cents (and cents²), so mean and z reduce to single
    divisions of exact integers: z = (x·w − Σx)/√(w·Σx² − (Σx)²), with
    the sqrt the only other float op — the SQL mirror computes the same
    closed form from the identical cents windows. Zero-variance windows
    report NULL z on both sides. ONE user-key groupby; the per-group
    sweep is two cumsum arrays + slicing, no per-row loop."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts", "event_id", "value"]
    )

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        cents = round_half_away(
            g["value"].to_numpy(np.float64) * 100.0, 0
        ).astype(np.int64)
        n = len(cents)
        p1 = np.concatenate([[0], np.cumsum(cents)])
        p2 = np.concatenate([[0], np.cumsum(cents * cents)])
        idx = np.arange(n)
        lo = np.maximum(0, idx - ZSCORE_WINDOW)
        w = idx - lo + 1
        s = p1[idx + 1] - p1[lo]
        ss = p2[idx + 1] - p2[lo]
        var_num = w * ss - s * s  # exact int64 (|cents| ≤ 5e4, w ≤ 11)
        z = np.full(n, np.nan)
        nz = var_num > 0
        z[nz] = (cents[nz] * w[nz] - s[nz]) / np.sqrt(
            var_num[nz].astype(np.float64)
        )
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(np.int64),
                "user_id": g["user_id"].to_numpy(np.int64),
                "ts": g["ts"].to_numpy(),
                "roll_mean": round_half_away(s / (w * 100.0), 4),
                "roll_z": round_half_away(z, 4),
            }
        )

    return ev.groupby("user_id").map_groups(roll, batch_format="pandas")


def events_user_twa(sf_dir: str) -> Dataset:
    """TIME-WEIGHTED AVERAGE value per user (each value held until the
    next event — the ops/billing metric a plain avg misstates when
    sampling is irregular): TWA = Σ valueᵢ·(tᵢ₊₁−tᵢ) / (t_N−t₀). The
    numerator is an exact int64 sum of cents × µs-gap terms — bounded by
    max_cents × total_span (telescoping), i.e. inside int64 through
    ~5-year spans at these magnitudes — and the result is ONE division
    of exact ints, HUGEINT-mirrored. Single-event users (zero span)
    report NULL on both sides. ONE user-key groupby, vectorized diff."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts", "event_id", "value"]
    )

    def twa(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        ts = g["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
        cents = round_half_away(
            g["value"].to_numpy(np.float64) * 100.0, 0
        ).astype(np.int64)
        span = int(ts[-1] - ts[0])
        if span > 0:
            num = int(np.sum(cents[:-1] * np.diff(ts)))
            val = float(round_half_away(np.array([num / (span * 100.0)]), 4)[0])
        else:
            val = None
        return pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy(np.int64)[:1],
                "n_events": np.array([len(ts)], np.int64),
                "span_us": np.array([span], np.int64),
                "twa_value": np.array([val], np.float64),
            }
        )

    return ev.groupby("user_id").map_groups(twa, batch_format="pandas")


_HOUR_US = 3_600_000_000


def events_user_hourly_locf(sf_dir: str) -> Dataset:
    """LOCF HOURLY RESAMPLING (last-observation-carried-forward): per
    user, one row per hour from the hour of their first event to the
    hour of their last, carrying the value of the latest event seen
    before the hour ends — the state-sampling primitive behind billing
    meters and sensor gauges (the gap-fill op fills COUNTS with zeros;
    this carries VALUES forward). ONE user-key groupby; the per-group
    sweep is a single searchsorted of hour-ends into the sorted event
    times (grid size is bounded by the corpus time span, not by event
    volume). Values are carried verbatim — no arithmetic, exact parity
    with the SQL mirror's IGNORE-NULLS window carry."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts", "event_id", "value"]
    )

    def locf(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        ts = g["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
        vals = g["value"].to_numpy(np.float64)
        h0 = ts[0] // _HOUR_US
        h1 = ts[-1] // _HOUR_US
        hours = np.arange(h0, h1 + 1, dtype=np.int64) * _HOUR_US
        # latest event strictly before each hour's END (ties within the
        # hour resolved by the (ts, event_id) sort → last occurrence)
        idx = np.searchsorted(ts, hours + _HOUR_US, side="left") - 1
        return pd.DataFrame(
            {
                "user_id": np.full(len(hours), g["user_id"].iloc[0], np.int64),
                "hour": hours.view("datetime64[us]"),
                "locf_value": vals[idx],
            }
        )

    return ev.groupby("user_id").map_groups(locf, batch_format="pandas")


# ------------------------ batch 15: association, quotas, and drift indices
BASKET_MIN_PAIR_ORDERS = 3  # support floor keeps the lift ranking stable


def basket_brand_lift_top20(sf_dir: str) -> Dataset:
    """MARKET-BASKET ASSOCIATION RULES (support + lift over brand pairs
    co-occurring in an order) — the recommender/assortment primitive.
    Scale shape: the part dimension broadcasts as a sorted partkey→brand
    lookup (never shuffled, the profit_by_nation_year convention); ONE
    order-key groupby emits each order's distinct-brand pairs (≤ C(12,2)
    rows per order, bounded by basket size) plus one ("","") marker row
    per order, so the single census carries pair counts, per-brand order
    counts, AND the total order count N — no second pass. The finish
    computes support = n_ab/N and lift = N·n_ab/(n_a·n_b) as single
    divisions of exact Python ints (HUGEINT-mirrored) over the
    brand²-sized table, and the top-20 cut is the associative
    (lift DESC, brands ASC) merge. Pairs below BASKET_MIN_PAIR_ORDERS
    co-orders are dropped on both sides (noise floor keeps rank ties
    meaningful)."""
    part = pq.read_table(_p(sf_dir, "part"), columns=["p_partkey", "p_brand"])
    pk = part["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order_ = np.argsort(pk)
    pk = pk[order_]
    brands = np.array(part["p_brand"].to_pylist(), dtype=object)[order_]
    lookup_ref = ray.put((pk, brands))

    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"]
    )

    def with_brand(batch: pa.Table, ref=lookup_ref) -> pa.Table:
        keys, vals = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        lp = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(keys, lp)
        t = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "brand": pa.array(vals[idx], pa.string()),
            }
        )
        return t.group_by(["l_orderkey", "brand"]).aggregate([])

    ob = (
        li.map_batches(with_brand, batch_format="pyarrow")
        .groupby(["l_orderkey", "brand"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )

    def pair_rows(g: pd.DataFrame) -> pd.DataFrame:
        bs = np.sort(g["brand"].to_numpy(object))
        ii, jj = np.triu_indices(len(bs), k=1)
        # row classes: (brand, "") per-brand presence; (a, b) pairs;
        # ("", "") one marker per order for N
        return pd.DataFrame(
            {
                "brand_a": np.concatenate([bs, bs[ii], [""]]),
                "brand_b": np.concatenate(
                    [np.full(len(bs), "", object), bs[jj], [""]]
                ),
                "n": np.ones(len(bs) + len(ii) + 1, np.int64),
            }
        )

    rows = ob.groupby("l_orderkey").map_groups(pair_rows, batch_format="pandas")
    merge = group_sum_merge(("brand_a", "brand_b"), ("n",))
    census = tree_combine(rows.map_batches(merge, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "brand_a": pa.array([], pa.string()),
                "brand_b": pa.array([], pa.string()),
                "n_ab": pa.array([], pa.int64()),
                "support": pa.array([], pa.float64()),
                "lift": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        a = t["brand_a"].to_pylist()
        b = t["brand_b"].to_pylist()
        n = [int(x) for x in t["n"].to_pylist()]
        singles = {x: c for x, y, c in zip(a, b, n) if y == "" and x != ""}
        n_orders = next(
            (c for x, y, c in zip(a, b, n) if x == "" and y == ""), 0
        )
        if n_orders == 0:
            return empty
        oa, ob_, nab, sup, lift = [], [], [], [], []
        for x, y, c in zip(a, b, n):
            if y == "" or c < BASKET_MIN_PAIR_ORDERS:
                continue
            oa.append(x)
            ob_.append(y)
            nab.append(c)
            sup.append(c / n_orders)  # ONE division of exact ints
            lift.append((c * n_orders) / (singles[x] * singles[y]))
        return pa.table(
            {
                "brand_a": pa.array(oa, pa.string()),
                "brand_b": pa.array(ob_, pa.string()),
                "n_ab": pa.array(nab, pa.int64()),
                "support": pa.array(
                    round_half_away(np.array(sup, np.float64), 4), pa.float64()
                ),
                "lift": pa.array(
                    round_half_away(np.array(lift, np.float64), 4), pa.float64()
                ),
            }
        )

    pairs = census.map_batches(finish, batch_size=None, batch_format="pyarrow")
    return pairs.map_batches(
        topk_merge(20, "lift", ["brand_a", "brand_b"]),
        batch_size=None,
        batch_format="pyarrow",
    )


def orders_top20_diversified(sf_dir: str) -> Dataset:
    """DIVERSIFIED TOP-K (group quotas): the 20 highest-value orders with
    AT MOST 2 per customer — the ranking shape plain top-k can't express
    (a whale customer would flood the list). Fully associative, no global
    sort: per-batch/per-tree-level keep each customer's top-2 by
    (price DESC, orderkey ASC) — a provable superset of the quota-
    constrained answer — then the global top-20 cut with the same total
    order. Prices are compared verbatim (no arithmetic), so parity with
    the SQL row_number mirror is exact."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"),
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    )
    per_cust = topk_merge(
        2, "o_totalprice", ["o_orderkey"], group_cols=["o_custkey"]
    )
    global_cut = topk_merge(20, "o_totalprice", ["o_orderkey"])

    # round-5 audit fix: the per-customer cap alone left ≤ 2·|customers|
    # rows in tree_combine's final task (customer-scaled). Composing the
    # global top-20 cut into EVERY tree level is lossless: after the
    # per-customer cap each customer holds ≤ 2 rows, so the diversified
    # answer is exactly the top 20 rows of the capped set — and a row's
    # rank in any capped SUBSET is ≤ its rank in the capped union, so
    # surviving each intermediate top-20 cut is guaranteed for every row
    # of the true answer. Final-task rows: ≤ 20, scale-free.
    def quota_merge(t: pa.Table) -> pa.Table:
        return global_cut(per_cust(t))

    survivors = tree_combine(
        orders.map_batches(quota_merge, batch_format="pyarrow"), quota_merge
    )
    return survivors.map_batches(
        lambda t: t.select(["o_custkey", "o_orderkey", "o_totalprice"]),
        batch_format="pyarrow",
    )


PSI_BINS = 10


def events_value_psi(sf_dir: str) -> Dataset:
    """POPULATION STABILITY INDEX (the model-monitoring drift metric
    scored between the click and purchase value distributions): 10
    equal-width bins over the two slices' combined [min, max]; per bin,
    both counts and the PSI contribution (p_b − p_a)·ln(p_b/p_a). All
    counts are exact ints; each contribution uses ONE division per
    proportion and one ln of their exact-int ratio (numpy log vs DuckDB
    ln agree within ulps — 4-decimal rounding has orders of magnitude of
    headroom). Per-bin rows only, so neither side sums doubles
    order-dependently (the chi2 convention); bins where either slice is
    empty report NULL contribution on both sides. Two streaming passes
    (min/max census, then the bin census) — the events_value_hist
    machinery with a slice filter."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    )

    def mm_partial(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(
            batch["event_type"],
            value_set=pa.array(["click", "purchase"], pa.string()),
        )
        v = batch.filter(mask)["value"]
        if len(v) == 0:
            return pa.table(
                {"lo": pa.array([], pa.float64()), "hi": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "lo": pa.array([pc.min(v).as_py()], pa.float64()),
                "hi": pa.array([pc.max(v).as_py()], pa.float64()),
            }
        )

    def mm_merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return pa.table(
            {
                "lo": pa.array([pc.min(t["lo"]).as_py()], pa.float64()),
                "hi": pa.array([pc.max(t["hi"]).as_py()], pa.float64()),
            }
        )

    mm = tree_combine(
        ev.map_batches(mm_partial, batch_format="pyarrow"), mm_merge
    ).take_all()
    empty = pa.table(
        {
            "bin": pa.array([], pa.int64()),
            "n_click": pa.array([], pa.int64()),
            "n_purchase": pa.array([], pa.int64()),
            "psi_contrib": pa.array([], pa.float64()),
        }
    )
    if not mm:
        return rd.from_arrow(empty)
    lo, hi = float(mm[0]["lo"]), float(mm[0]["hi"])

    merge = group_sum_merge(("event_type", "bin"), ("n",))

    def bin_partial(batch: pa.Table, lo=lo, hi=hi) -> pa.Table:
        mask = pc.is_in(
            batch["event_type"],
            value_set=pa.array(["click", "purchase"], pa.string()),
        )
        t = batch.filter(mask)
        v = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        if hi == lo:
            fbin = np.zeros(len(v), np.int64)
        else:
            fbin = np.minimum(
                np.floor((v - lo) * float(PSI_BINS) / (hi - lo)),
                PSI_BINS - 1,
            ).astype(np.int64)
        return merge(
            pa.table(
                {
                    "event_type": t["event_type"],
                    "bin": pa.array(fbin, pa.int64()),
                    "n": pa.array(np.ones(len(v), np.int64), pa.int64()),
                }
            )
        )

    census = tree_combine(
        ev.map_batches(bin_partial, batch_format="pyarrow"), merge
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        counts: dict[int, dict[str, int]] = {}
        for ty, b, c in zip(
            t["event_type"].to_pylist(), t["bin"].to_pylist(), t["n"].to_pylist()
        ):
            counts.setdefault(int(b), {})[ty] = int(c)
        na = sum(d.get("click", 0) for d in counts.values())
        nb = sum(d.get("purchase", 0) for d in counts.values())
        bins = sorted(counts)
        ncs, nps, contribs = [], [], []
        for b in bins:
            ca = counts[b].get("click", 0)
            cb = counts[b].get("purchase", 0)
            ncs.append(ca)
            nps.append(cb)
            if ca == 0 or cb == 0 or na == 0 or nb == 0:
                contribs.append(None)
                continue
            # (p_b - p_a) · ln(p_b / p_a), each factor from exact ints
            diff = cb / nb - ca / na
            ratio = (cb * na) / (ca * nb)
            contribs.append(
                float(round_half_away(np.array([diff * np.log(ratio)]), 4)[0])
            )
        return pa.table(
            {
                "bin": pa.array(bins, pa.int64()),
                "n_click": pa.array(ncs, pa.int64()),
                "n_purchase": pa.array(nps, pa.int64()),
                "psi_contrib": pa.array(contribs, pa.float64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


# -------------------- batch 16: segmentation, history modeling, forensics
RFM_Q = (0.25, 0.5, 0.75)


def events_user_rfm_segments(sf_dir: str, num_bins: int = 4096) -> Dataset:
    """RFM SEGMENTATION (recency / frequency / monetary quartile scoring —
    the marketing-analytics segmentation primitive): per user, R = whole
    days since last activity (vs the corpus max timestamp), F = event
    count, M = exact-int cents value sum; each metric is scored 1-4
    against its own exact quartile boundaries (quantile_disc, the
    sorted[ceil(n*q)-1] order statistic) and the output is the segment
    census (r_score, f_score, m_score, n_users) — at most 64 rows.

    Scale shape: ONE user-key groupby (map-side per-batch pre-aggregation
    first) builds the vocabulary-sized metric table; the nine quartile
    boundaries come from ONE keyed (metric, bin) histogram pass + ONE
    targeted collect over the metric table — per-bin populations past
    QUANTILE_COLLECT_MAX recurse through ``_exact_quantile_in_interval``
    (integer-valued metrics hit its lo == hi exit fast) instead of
    collecting. Scores compare exact-int-in-double values against exact
    observed boundaries, so no float arithmetic can flip a segment; the
    SQL mirror is quantile_disc + identical CASE comparisons. R is scored
    inverted (4 = most recent) per RFM convention; F and M score high =
    heavy/valuable."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts", "value"]
    )

    def upartial(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch)
        cents = round_half_away(
            batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        df = (
            pd.DataFrame(
                {
                    "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                    "last_us": us,
                    "f_n": np.ones(len(us), np.int64),
                    "m_cents": cents,
                }
            )
            .groupby("user_id", sort=True)
            .agg(
                last_us=("last_us", "max"),
                f_n=("f_n", "sum"),
                m_cents=("m_cents", "sum"),
            )
            .reset_index()
        )
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
                "last_us": pa.array(df["last_us"].to_numpy(np.int64)),
                "f_n": pa.array(df["f_n"].to_numpy(np.int64)),
                "m_cents": pa.array(df["m_cents"].to_numpy(np.int64)),
            }
        )

    empty = pa.table(
        {
            "r_score": pa.array([], pa.int64()),
            "f_score": pa.array([], pa.int64()),
            "m_score": pa.array([], pa.int64()),
            "n_users": pa.array([], pa.int64()),
        }
    )
    if pq.read_metadata(_p(sf_dir, "events")).num_rows == 0:
        return rd.from_arrow(empty)

    metrics = (
        ev.map_batches(upartial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Max("last_us", alias_name="last_us"),
            Sum("f_n", alias_name="f_n"),
            Sum("m_cents", alias_name="m_cents"),
        )
        .materialize()
    )
    ref_us = int(metrics.max("last_us"))

    def add_rdays(t: pa.Table, ref_us=ref_us) -> pa.Table:
        r_days = (
            ref_us - t["last_us"].to_numpy(zero_copy_only=False)
        ) // 86_400_000_000
        return pa.table(
            {
                "r_days": pa.array(r_days.astype(np.float64), pa.float64()),
                "f_n": pa.array(
                    t["f_n"].to_numpy(zero_copy_only=False).astype(np.float64)
                ),
                "m_cents": pa.array(
                    t["m_cents"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.float64)
                ),
            }
        )

    mt = metrics.map_batches(add_rdays, batch_format="pyarrow").materialize()
    from ..runtime.combine import group_agg_merge

    METRICS = ("r_days", "f_n", "m_cents")
    merge0 = group_agg_merge(("metric",), sums=("n",), mins=("mn",), maxs=("mx",))

    def mmn(t: pa.Table) -> pa.Table:
        rows = []
        for m in METRICS:
            v = t[m].to_numpy(zero_copy_only=False)
            rows.append((m, len(v), float(v.min()), float(v.max())))
        return pa.table(
            {
                "metric": pa.array([r[0] for r in rows], pa.string()),
                "n": pa.array([r[1] for r in rows], pa.int64()),
                "mn": pa.array([r[2] for r in rows], pa.float64()),
                "mx": pa.array([r[3] for r in rows], pa.float64()),
            }
        )

    stats = {
        r["metric"]: r
        for r in tree_combine(
            mt.map_batches(mmn, batch_format="pyarrow"), merge0
        ).take_all()
    }
    n_users = int(stats["r_days"]["n"])

    merge1 = group_sum_merge(("metric", "bin"), ("n",))

    def hist(t: pa.Table) -> pa.Table:
        parts = []
        for m in METRICS:
            v = t[m].to_numpy(zero_copy_only=False)
            mn, mx = stats[m]["mn"], stats[m]["mx"]
            width = (mx - mn) or 1.0
            b = np.clip(
                ((v - mn) / width * num_bins).astype(np.int64), 0, num_bins - 1
            )
            counts = np.bincount(b, minlength=num_bins)
            nz = np.nonzero(counts)[0]
            parts.append(
                pa.table(
                    {
                        "metric": pa.array([m] * len(nz), pa.string()),
                        "bin": pa.array(nz, pa.int64()),
                        "n": pa.array(counts[nz], pa.int64()),
                    }
                )
            )
        return pa.concat_tables(parts)

    htab = pa.concat_tables(
        tree_combine(mt.map_batches(hist, batch_format="pyarrow"), merge1)
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    # localize each (metric, q) rank to a bin; collect only needed bins
    targets: dict[str, list] = {m: [] for m in METRICS}
    bounds: dict[str, dict[float, float]] = {m: {} for m in METRICS}
    need: dict[str, set] = {m: set() for m in METRICS}
    for m in METRICS:
        mask = pc.equal(htab["metric"], m)
        sub = htab.filter(mask)
        bins = sub["bin"].to_numpy(zero_copy_only=False)
        counts = sub["n"].to_numpy(zero_copy_only=False)
        order = np.argsort(bins)
        bins, counts = bins[order], counts[order]
        cum = np.cumsum(counts)
        for qv in RFM_Q:
            rank = int(np.ceil(n_users * qv))
            i = int(np.searchsorted(cum, rank, side="left"))
            before = int(cum[i - 1]) if i > 0 else 0
            if int(counts[i]) > QUANTILE_COLLECT_MAX:
                # over-populated bin: the shared re-binning recursion on a
                # one-column view (int-valued metrics exit at lo == hi fast)
                evm = mt.map_batches(
                    lambda t, m=m: pa.table({"value": t[m]}),
                    batch_format="pyarrow",
                )
                bounds[m][qv] = _exact_quantile_in_interval(
                    evm,
                    stats[m]["mn"],
                    stats[m]["mx"],
                    rank,
                    n_users,
                    num_bins,
                    QUANTILE_COLLECT_MAX,
                )
            else:
                targets[m].append((qv, int(bins[i]), rank - before))
                need[m].add(int(bins[i]))

    if any(targets[m] for m in METRICS):
        need_arrs = {
            m: np.array(sorted(need[m]), dtype=np.int64) for m in METRICS
        }

        def collect(t: pa.Table) -> pa.Table:
            parts = []
            for m in METRICS:
                if len(need_arrs[m]) == 0:
                    continue
                v = t[m].to_numpy(zero_copy_only=False)
                mn, mx = stats[m]["mn"], stats[m]["mx"]
                width = (mx - mn) or 1.0
                b = np.clip(
                    ((v - mn) / width * num_bins).astype(np.int64),
                    0,
                    num_bins - 1,
                )
                keep = np.isin(b, need_arrs[m])
                parts.append(
                    pa.table(
                        {
                            "metric": pa.array(
                                [m] * int(keep.sum()), pa.string()
                            ),
                            "bin": pa.array(b[keep], pa.int64()),
                            "value": pa.array(v[keep], pa.float64()),
                        }
                    )
                )
            return (
                pa.concat_tables(parts)
                if parts
                else pa.table(
                    {
                        "metric": pa.array([], pa.string()),
                        "bin": pa.array([], pa.int64()),
                        "value": pa.array([], pa.float64()),
                    }
                )
            )

        rows = pa.concat_tables(
            mt.map_batches(collect, batch_format="pyarrow").iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
        )
        for m in METRICS:
            sub = rows.filter(pc.equal(rows["metric"], m))
            bvals = sub["bin"].to_numpy(zero_copy_only=False)
            vvals = sub["value"].to_numpy(zero_copy_only=False)
            for qv, b, r in targets[m]:
                vals = np.sort(vvals[bvals == b])
                bounds[m][qv] = float(vals[r - 1])

    q1r, q2r, q3r = (bounds["r_days"][qv] for qv in RFM_Q)
    q1f, q2f, q3f = (bounds["f_n"][qv] for qv in RFM_Q)
    q1m, q2m, q3m = (bounds["m_cents"][qv] for qv in RFM_Q)

    def score(t: pa.Table) -> pa.Table:
        r = t["r_days"].to_numpy(zero_copy_only=False)
        f = t["f_n"].to_numpy(zero_copy_only=False)
        m = t["m_cents"].to_numpy(zero_copy_only=False)
        r_s = 4 - (r > q1r).astype(np.int64) - (r > q2r) - (r > q3r)
        f_s = 1 + (f > q1f).astype(np.int64) + (f > q2f) + (f > q3f)
        m_s = 1 + (m > q1m).astype(np.int64) + (m > q2m) + (m > q3m)
        return pa.table(
            {
                "r_score": pa.array(r_s.astype(np.int64), pa.int64()),
                "f_score": pa.array(f_s.astype(np.int64), pa.int64()),
                "m_score": pa.array(m_s.astype(np.int64), pa.int64()),
                "n_users": pa.array(np.ones(len(r_s), np.int64), pa.int64()),
            }
        )

    merge2 = group_sum_merge(("r_score", "f_score", "m_score"), ("n_users",))
    return tree_combine(
        mt.map_batches(score, batch_format="pyarrow").map_batches(
            merge2, batch_format="pyarrow"
        ),
        merge2,
    )


SCD2_BUCKETS = 64


def events_user_scd2(sf_dir: str, n_buckets: int = SCD2_BUCKETS) -> Dataset:
    """SCD TYPE-2 HISTORY MODELING (change-data-capture intervals): per
    user, collapse the (ts, event_id)-ordered event_type stream into
    validity intervals — one row per run of equal consecutive types with
    valid_from (first ts), valid_to (next run's start, NULL while
    current) and n_events (run length) — the warehouse dimension-history
    primitive (LOCF/latest-record model the converse direction).

    Scale shape: ONE user-bucket int-key shuffle (the ntile convention —
    users hash into ``n_buckets`` groups so group size tracks corpus/64,
    not the hottest user); per bucket the run detection is fully
    vectorized — one mergesort, one change mask (user break OR type
    change), run lengths by diff of change indices, valid_to by shifting
    run starts within the same user. No per-row loop, no driver state."""
    if pq.read_metadata(_p(sf_dir, "events")).num_rows == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "event_type": pa.array([], pa.string()),
                    "valid_from": pa.array([], pa.timestamp("us")),
                    "valid_to": pa.array([], pa.timestamp("us")),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        )
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket",
            pc.cast(
                pc.bit_wise_and(batch["user_id"], pa.scalar(n_buckets - 1)),
                pa.int64(),
            ),
        )

    def runs(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = df["user_id"].to_numpy(np.int64)
        ty = df["event_type"].to_numpy(object)
        ts = df["ts"].to_numpy()  # datetime64[us]
        brk = np.empty(len(u), np.bool_)
        brk[0] = True
        brk[1:] = (u[1:] != u[:-1]) | (ty[1:] != ty[:-1])
        starts = np.nonzero(brk)[0]
        ends = np.append(starts[1:], len(u))
        vfrom = ts[starts]
        # valid_to = next run's valid_from when that run is the SAME user
        vto = np.full(len(starts), np.datetime64("NaT", "us"))
        same = np.empty(len(starts), np.bool_)
        same[:-1] = u[starts[1:]] == u[starts[:-1]]
        same[-1] = False
        vto[same] = vfrom[np.nonzero(same)[0] + 1]
        return pa.table(
            {
                "user_id": pa.array(u[starts], pa.int64()),
                "event_type": pa.array(list(ty[starts]), pa.string()),
                "valid_from": pa.array(vfrom, pa.timestamp("us")),
                "valid_to": pa.array(vto, pa.timestamp("us")),
                "n_events": pa.array(
                    (ends - starts).astype(np.int64), pa.int64()
                ),
            }
        )

    return (
        ev.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(runs, batch_format="pandas")
    )


def events_value_benford(sf_dir: str) -> Dataset:
    """BENFORD'S-LAW FIRST-DIGIT AUDIT (data-forensics / fraud-screening
    primitive): distribution of the first significant digit of |value|
    (via exact int cents — the leading digit of the cents integer IS the
    first significant digit of the decimal value) against the Benford
    expectation log10(1 + 1/d), with the chi-square contribution per
    digit. ONE census pass (digit domain = 1..9); digit extraction is
    exact repeated integer division (never float log10, whose ulp error
    flips digits at powers of ten). Every share is ONE division of exact
    ints; expected shares and chi2 terms are computed with the identical
    expression shape on both sides (4-decimal rounding has >1e5 ulp
    headroom at every boundary — verified for all nine log10 constants)."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["value"])
    merge = group_sum_merge(("digit",), ("n",))

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.abs(
            round_half_away(
                batch["value"]
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
                * 100.0,
                0,
            ).astype(np.int64)
        )
        d = cents[cents > 0]
        while (d >= 10).any():  # exact leading digit: ≤19 vectorized halvings
            big = d >= 10
            d[big] //= 10
        counts = np.bincount(d, minlength=10)
        nz = np.nonzero(counts)[0]
        return pa.table(
            {
                "digit": pa.array(nz.astype(np.int64), pa.int64()),
                "n": pa.array(counts[nz].astype(np.int64), pa.int64()),
            }
        )

    census = tree_combine(ev.map_batches(partial, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "digit": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "obs_share": pa.array([], pa.float64()),
                    "exp_share": pa.array([], pa.float64()),
                    "chi2_term": pa.array([], pa.float64()),
                }
            )
        digit = t["digit"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(n.sum())
        e = np.log10(1.0 + 1.0 / digit.astype(np.float64))
        obs = n.astype(np.float64) / total
        chi2 = (n.astype(np.float64) - total * e) ** 2 / (total * e)
        return pa.table(
            {
                "digit": pa.array(digit, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "obs_share": pa.array(round_half_away(obs, 4), pa.float64()),
                "exp_share": pa.array(round_half_away(e, 4), pa.float64()),
                "chi2_term": pa.array(round_half_away(chi2, 4), pa.float64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


# ------------- batch 17: ops analytics, fraud screening, forecast eval
_SHIP_SENTINEL = 1 << 62


def orders_fulfillment_lag(sf_dir: str) -> Dataset:
    """FULFILLMENT-LAG AUDIT (order-to-first-ship interval per order
    priority): joins the orders table with min(l_shipdate) per order —
    the min-per-key large-large join — then aggregates lag days by
    priority. ONE int-key cogroup shuffle (side-tagged union rows: the
    lineitem side carries per-batch MIN-ship partials, the orders side
    carries orderdate + priority under sentinels; Min/Max aggregation
    reconstructs the pair) — no hash join, so no Ray 2.49 empty-partition
    FieldRef failure mode (NOTES.md). Both date columns are
    midnight-aligned (verified in the corpus), so lag day counts are
    exact integer multiples and floor == trunc division on both sides;
    avg lag is ONE division of exact int sums, mirrored in SQL."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_orderkey", "l_shipdate"]
    )
    orders = read_parquet_clean(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )

    def li_rows(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch, "l_shipdate")
        df = (
            pd.DataFrame(
                {
                    "o_orderkey": batch["l_orderkey"].to_numpy(
                        zero_copy_only=False
                    ),
                    "ship_us": us,
                }
            )
            .groupby("o_orderkey", sort=True)["ship_us"]
            .min()
            .reset_index()
        )
        n = len(df)
        return pa.table(
            {
                "o_orderkey": pa.array(
                    df["o_orderkey"].to_numpy(np.int64), pa.int64()
                ),
                "ship_us": pa.array(
                    df["ship_us"].to_numpy(np.int64), pa.int64()
                ),
                "odate_us": pa.array(np.full(n, -1, np.int64), pa.int64()),
                "prio": pa.array([""] * n, pa.string()),
            }
        )

    def o_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "ship_us": pa.array(
                    np.full(n, _SHIP_SENTINEL, np.int64), pa.int64()
                ),
                "odate_us": pa.array(_ts_us(batch, "o_orderdate"), pa.int64()),
                "prio": batch["o_orderpriority"],
            }
        )

    paired = (
        li.map_batches(li_rows, batch_format="pyarrow")
        .union(orders.map_batches(o_rows, batch_format="pyarrow"))
        .groupby("o_orderkey")
        .aggregate(
            Min("ship_us", alias_name="ship_us"),
            Max("odate_us", alias_name="odate_us"),
            Max("prio", alias_name="prio"),
        )
    )
    from ..runtime.combine import group_agg_merge

    merge = group_agg_merge(
        ("priority",), sums=("n_orders", "sum_lag"), maxs=("max_lag_days",)
    )

    def lag_partial(t: pa.Table) -> pa.Table:
        ship = t["ship_us"].to_numpy(zero_copy_only=False)
        odate = t["odate_us"].to_numpy(zero_copy_only=False)
        keep = (ship < _SHIP_SENTINEL) & (odate >= 0)  # both sides present
        lag = (ship[keep] - odate[keep]) // 86_400_000_000
        df = (
            pd.DataFrame(
                {
                    "priority": np.asarray(t["prio"].to_pylist(), object)[
                        keep
                    ],
                    "n_orders": np.ones(len(lag), np.int64),
                    "sum_lag": lag,
                    "max_lag_days": lag,
                }
            )
            .groupby("priority", sort=True)
            .agg(
                n_orders=("n_orders", "sum"),
                sum_lag=("sum_lag", "sum"),
                max_lag_days=("max_lag_days", "max"),
            )
            .reset_index()
        )
        return pa.table(
            {
                "priority": pa.array(df["priority"].tolist(), pa.string()),
                "n_orders": pa.array(
                    df["n_orders"].to_numpy(np.int64), pa.int64()
                ),
                "sum_lag": pa.array(
                    df["sum_lag"].to_numpy(np.int64), pa.int64()
                ),
                "max_lag_days": pa.array(
                    df["max_lag_days"].to_numpy(np.int64), pa.int64()
                ),
            }
        )

    census = tree_combine(
        paired.map_batches(lag_partial, batch_format="pyarrow"), merge
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "priority": pa.array([], pa.string()),
                    "n_orders": pa.array([], pa.int64()),
                    "avg_lag_days": pa.array([], pa.float64()),
                    "max_lag_days": pa.array([], pa.int64()),
                }
            )
        n = t["n_orders"].to_numpy(zero_copy_only=False)
        s = t["sum_lag"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "priority": t["priority"],
                "n_orders": t["n_orders"],
                "avg_lag_days": pa.array(
                    round_half_away(s.astype(np.float64) / n, 4), pa.float64()
                ),
                "max_lag_days": t["max_lag_days"],
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


DUP_PAY_WINDOW_US = 86_400_000_000  # same-amount window: 24 h, inclusive


def events_duplicate_payments(sf_dir: str, n_buckets: int = 64) -> Dataset:
    """DUPLICATE-PAYMENT SCREENING (fraud/reconciliation primitive): per
    user, count purchase events for which ANOTHER purchase with the SAME
    rounded-dollar amount exists within ±24 hours — the same-amount
    near-in-time double-charge signature (dollar bucket + day window
    chosen so the synthetic corpus actually exercises the match path at
    sf0.001/sf0.01; the cents/minutes variant is a parameter change).
    ONE user-bucket int-key shuffle; per bucket, events sort by
    (user, amt, ts, event_id) and the exists-test is purely the two
    ADJACENT neighbors inside each equal-(user, amt) run (sorted by
    time, the nearest same-amount event is adjacent — exact, not a
    heuristic). Only flagged users are emitted; each user lives in
    exactly one bucket so per-bucket counts are final (no second
    shuffle). Purchase values are positive in this corpus, and the
    rounded-dollar bucket is half-away on both sides (no floor-vs-trunc
    hazard). map_groups emits typed Arrow tables so an all-empty result
    keeps its schema (NOTES.md empty-bucket convention)."""
    empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "n_flagged": pa.array([], pa.int64()),
        }
    )
    if pq.read_metadata(_p(sf_dir, "events")).num_rows == 0:
        return rd.from_arrow(empty)
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["user_id", "ts", "event_id", "event_type", "value"],
    )

    def pre(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["event_type"], "purchase"))
        amt = round_half_away(
            t["value"].to_numpy(zero_copy_only=False).astype(np.float64), 0
        ).astype(np.int64)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "us": pa.array(_ts_us(t), pa.int64()),
                "event_id": t["event_id"],
                "amt": pa.array(amt, pa.int64()),
                "_bucket": pa.array(
                    (uid & (n_buckets - 1)).astype(np.int64), pa.int64()
                ),
            }
        )

    def flag(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(
            ["user_id", "amt", "us", "event_id"], kind="mergesort"
        )
        u = df["user_id"].to_numpy(np.int64)
        c = df["amt"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        samerun = np.empty(len(u), np.bool_)
        samerun[0] = False
        samerun[1:] = (u[1:] == u[:-1]) & (c[1:] == c[:-1])
        near = np.zeros(len(u), np.bool_)
        close = samerun[1:] & (us[1:] - us[:-1] <= DUP_PAY_WINDOW_US)
        near[1:] |= close  # previous neighbor close
        near[:-1] |= close  # next neighbor close
        if not near.any():
            return empty
        out = (
            pd.DataFrame({"user_id": u[near]})
            .groupby("user_id", sort=True)
            .size()
            .reset_index(name="n_flagged")
        )
        return pa.table(
            {
                "user_id": pa.array(
                    out["user_id"].to_numpy(np.int64), pa.int64()
                ),
                "n_flagged": pa.array(
                    out["n_flagged"].to_numpy(np.int64), pa.int64()
                ),
            }
        )

    return (
        ev.map_batches(pre, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(flag, batch_format="pandas")
    )


def events_hourly_mase(sf_dir: str) -> Dataset:
    """FORECAST-BASELINE EVALUATION (MASE-style): per event_type, the
    mean absolute error of the lag-1 naive and lag-24 seasonal-naive
    hourly-count forecasts over the corpus-wide hour grid (missing hours
    count 0), and their ratio — the standard 'is there daily
    seasonality worth modeling' diagnostic. ONE streaming census pass
    ((type, hour) partials group-summed map-side); the finish densifies
    each type's series over the global [min, max] hour span — driver
    state is hours × types (time-span-bounded: ~9k rows/type/decade,
    NOT data-sized). All errors are exact int sums of |int diffs|; each
    MAE is ONE division and the MASE ratio is ONE division of exact int
    cross-products (HUGEINT-mirrored); degenerate spans NULL on both
    sides."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["event_type", "ts"])
    merge = group_sum_merge(("event_type", "h"), ("n",))

    def partial(batch: pa.Table) -> pa.Table:
        h = _ts_us(batch) // 3_600_000_000
        df = (
            pd.DataFrame(
                {"event_type": batch["event_type"].to_pylist(), "h": h}
            )
            .groupby(["event_type", "h"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "h": pa.array(df["h"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    census = tree_combine(ev.map_batches(partial, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "n_pairs": pa.array([], pa.int64()),
                "mae_naive1": pa.array([], pa.float64()),
                "mae_seasonal24": pa.array([], pa.float64()),
                "mase": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        hs = t["h"].to_numpy(zero_copy_only=False)
        ns = t["n"].to_numpy(zero_copy_only=False)
        types = np.asarray(t["event_type"].to_pylist(), object)
        h0, h1 = int(hs.min()), int(hs.max())
        span = h1 - h0 + 1
        out = {
            "event_type": [],
            "n_pairs": [],
            "mae_naive1": [],
            "mae_seasonal24": [],
            "mase": [],
        }
        for ty in sorted(set(types)):
            sel = types == ty
            dense = np.zeros(span, np.int64)
            dense[hs[sel] - h0] = ns[sel]
            sad1 = int(np.abs(np.diff(dense)).sum()) if span > 1 else 0
            cnt1 = span - 1
            cnt24 = max(span - 24, 0)
            sad24 = (
                int(np.abs(dense[24:] - dense[:-24]).sum()) if cnt24 else 0
            )
            out["event_type"].append(ty)
            out["n_pairs"].append(cnt24)
            out["mae_naive1"].append(
                float(round_half_away(np.array([sad1 / cnt1]), 4)[0])
                if cnt1 > 0
                else None
            )
            out["mae_seasonal24"].append(
                float(round_half_away(np.array([sad24 / cnt24]), 4)[0])
                if cnt24 > 0
                else None
            )
            out["mase"].append(
                float(
                    round_half_away(
                        np.array([(sad24 * cnt1) / (sad1 * cnt24)]), 4
                    )[0]
                )
                if sad1 > 0 and cnt24 > 0
                else None
            )
        return pa.table(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "n_pairs": pa.array(out["n_pairs"], pa.int64()),
                "mae_naive1": pa.array(out["mae_naive1"], pa.float64()),
                "mae_seasonal24": pa.array(
                    out["mae_seasonal24"], pa.float64()
                ),
                "mase": pa.array(out["mase"], pa.float64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


# ---------- batch 18: series diagnostics and a data-quality rules engine
_HOUR_US = 3_600_000_000


def _hourly_type_census(sf_dir: str) -> Dataset:
    """Shared (event_type, hour) count census for the series diagnostics
    (MASE / ACF / changepoint family): map-side group-sum partials +
    tree combine — the shuffle moves types × observed-hours rows, never
    events."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["event_type", "ts"])
    merge = group_sum_merge(("event_type", "h"), ("n",))

    def partial(batch: pa.Table) -> pa.Table:
        h = _ts_us(batch) // _HOUR_US
        df = (
            pd.DataFrame(
                {"event_type": batch["event_type"].to_pylist(), "h": h}
            )
            .groupby(["event_type", "h"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "h": pa.array(df["h"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    return tree_combine(ev.map_batches(partial, batch_format="pyarrow"), merge)


def _dense_by_type(t: pa.Table):
    """Census table → (h0, {type: dense int64 series over the global
    [min, max] hour grid}) — driver state is hours × types
    (time-span-bounded, not data-sized)."""
    hs = t["h"].to_numpy(zero_copy_only=False)
    ns = t["n"].to_numpy(zero_copy_only=False)
    types = np.asarray(t["event_type"].to_pylist(), object)
    h0, h1 = int(hs.min()), int(hs.max())
    span = h1 - h0 + 1
    out = {}
    for ty in sorted(set(types)):
        sel = types == ty
        dense = np.zeros(span, np.int64)
        dense[hs[sel] - h0] = ns[sel]
        out[ty] = dense
    return h0, out


def events_hourly_acf24(sf_dir: str) -> Dataset:
    """LAG-24 AUTOCORRELATION (the 'is there daily seasonality' test
    statistic proper, complementing events_hourly_mase's error ratio):
    per event_type, the Pearson correlation between the dense hourly
    count series and itself shifted 24 hours, over the corpus-wide hour
    grid (missing hours count 0). Same ONE-census-pass shape as MASE;
    the five correlation moments (n, Σa, Σb, Σab, Σa², Σb²) are exact
    Python ints from the dense grid, and r is ONE division by one sqrt
    of an exact-int product — expression shape mirrored in HUGEINT SQL.
    Degenerate spans or zero-variance sides are NULL on both sides."""
    census = _hourly_type_census(sf_dir)

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "n_pairs": pa.array([], pa.int64()),
                "acf24": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        _, dense = _dense_by_type(t)
        tys, nps, acfs = [], [], []
        for ty, d in dense.items():
            a, b = d[24:], d[:-24]  # x_t vs x_{t-24}
            n = len(a)
            tys.append(ty)
            nps.append(n)
            if n == 0:
                acfs.append(None)
                continue
            sa, sb = int(a.sum()), int(b.sum())
            saa = int((a * a).sum())
            sbb = int((b * b).sum())
            sab = int((a * b).sum())
            va = n * saa - sa * sa
            vb = n * sbb - sb * sb
            if va == 0 or vb == 0:
                acfs.append(None)
                continue
            r = (n * sab - sa * sb) / np.sqrt(float(va * vb))
            acfs.append(float(round_half_away(np.array([r]), 4)[0]))
        return pa.table(
            {
                "event_type": pa.array(tys, pa.string()),
                "n_pairs": pa.array(nps, pa.int64()),
                "acf24": pa.array(acfs, pa.float64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


def events_hourly_changepoint(sf_dir: str) -> Dataset:
    """CHANGEPOINT DETECTION (balanced-CUSUM split): per event_type, the
    hour that best splits the dense hourly series into two halves with
    maximally different rates, scored by the INTEGER statistic
    |sumL·nR − sumR·nL| (the cross-multiplied mean gap — argmax over
    exact ints, so no float ulp can move the split; ties take the
    earliest hour). Output also reports the two 4-dp mean rates (ONE
    exact division each). Same census pass as the MASE/ACF family; SQL
    mirrors via window cumsums and HUGEINT ordering."""
    census = _hourly_type_census(sf_dir)

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "split_h": pa.array([], pa.int64()),
                "gap_stat": pa.array([], pa.float64()),
                "mean_left": pa.array([], pa.float64()),
                "mean_right": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        h0, dense = _dense_by_type(t)
        tys, shs, gaps, mls, mrs = [], [], [], [], []
        for ty, d in dense.items():
            span = len(d)
            if span < 2:
                continue
            pre = np.cumsum(d)
            total = int(pre[-1])
            best = None
            for s in range(1, span):  # span is time-bounded driver state
                sl, nl = int(pre[s - 1]), s
                sr, nr = total - sl, span - s
                gap = abs(sl * nr - sr * nl)
                if best is None or gap > best[0]:
                    best = (gap, s, sl, nl, sr, nr)
            gap, s, sl, nl, sr, nr = best
            tys.append(ty)
            shs.append(h0 + s)
            gaps.append(float(gap))
            mls.append(float(round_half_away(np.array([sl / nl]), 4)[0]))
            mrs.append(float(round_half_away(np.array([sr / nr]), 4)[0]))
        if not tys:
            return empty
        return pa.table(
            {
                "event_type": pa.array(tys, pa.string()),
                "split_h": pa.array(shs, pa.int64()),
                "gap_stat": pa.array(gaps, pa.float64()),
                "mean_left": pa.array(mls, pa.float64()),
                "mean_right": pa.array(mrs, pa.float64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


QUALITY_VALUE_CAP = 400.0
QUALITY_K_MAX = 90


def events_quality_audit(sf_dir: str) -> Dataset:
    """DATA-QUALITY RULES ENGINE: a battery of five vectorized business
    rules evaluated in ONE streaming pass, reported as a per-rule
    violation census with corpus shares — the data-contract audit every
    ingest pipeline runs before training. Rules: value above cap,
    error-type events, night-hours activity (00-06 UTC), weekend
    activity (dayofweek convention shared with the chi2 op), and JSON
    props k above threshold (ONE RE2 ``pc.extract_regex`` kernel — no
    per-row json.loads). Map-side partials carry a ("", total) marker
    row (the basket-census convention) so shares need no second pass;
    each share is ONE division of exact ints."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["event_type", "ts", "value", "props"],
    )
    merge = group_sum_merge(("rule",), ("n_violations",))

    def partial(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch)
        v = batch["value"].to_numpy(zero_copy_only=False)
        et = batch["event_type"]
        k = pc.cast(
            pc.struct_field(
                pc.extract_regex(batch["props"], r'"k":\s*(?P<k>-?\d+)'), "k"
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        hour = (us // _HOUR_US) % 24
        dow = (us // _DAY_US + _SUNDAY_SHIFT_DAYS) % 7
        counts = {
            "value_above_cap": int((v > QUALITY_VALUE_CAP).sum()),
            "error_event": int(
                pc.sum(
                    pc.cast(pc.equal(et, "error"), pa.int64())
                ).as_py()
                or 0
            ),
            "night_activity": int((hour < 6).sum()),
            "weekend_activity": int(((dow == 0) | (dow == 6)).sum()),
            "props_k_above_max": int(
                np.nansum((k > QUALITY_K_MAX).astype(np.int64))
            ),
            "": batch.num_rows,  # total marker
        }
        ks = sorted(counts)
        return pa.table(
            {
                "rule": pa.array(ks, pa.string()),
                "n_violations": pa.array(
                    [counts[x] for x in ks], pa.int64()
                ),
            }
        )

    census = tree_combine(ev.map_batches(partial, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "rule": pa.array([], pa.string()),
                "n_violations": pa.array([], pa.int64()),
                "share": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        rules = t["rule"].to_pylist()
        ns = [int(x) for x in t["n_violations"].to_pylist()]
        total = next((n for r, n in zip(rules, ns) if r == ""), 0)
        if total == 0:
            return empty
        out_r = [r for r in rules if r != ""]
        out_n = [n for r, n in zip(rules, ns) if r != ""]
        return pa.table(
            {
                "rule": pa.array(out_r, pa.string()),
                "n_violations": pa.array(out_n, pa.int64()),
                "share": pa.array(
                    round_half_away(
                        np.array([n / total for n in out_n], np.float64), 4
                    ),
                    pa.float64(),
                ),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


# -------- batch 19: LTV curve, survival ordinals, per-doc keyword ranks
_WEEK_US = 7 * 86_400_000_000


def events_ltv_weekly(sf_dir: str, n_buckets: int = 64) -> Dataset:
    """LIFETIME-VALUE CURVE (cumulative revenue by week index since each
    user's first activity — the growth-analytics primitive): one row per
    week-since-signup with the active-user count, that week's exact-cents
    revenue, the running cumulative, and average cumulative LTV per
    signed-up user. ONE user-bucket int-key shuffle: users are disjoint
    across buckets, so per-bucket distinct-user counts and per-week
    partials sum exactly; a per-bucket (-1)-week marker row carries the
    bucket's user count so the total needs no second pass. The finish
    runs on the week-domain-sized census (time-bounded driver state);
    cum sums are exact ints and avg LTV is ONE division mirrored in
    SQL."""
    empty = pa.table(
        {
            "week_since": pa.array([], pa.int64()),
            "n_users_active": pa.array([], pa.int64()),
            "week_cents": pa.array([], pa.int64()),
            "cum_cents": pa.array([], pa.int64()),
            "avg_cum_ltv": pa.array([], pa.float64()),
        }
    )
    if pq.read_metadata(_p(sf_dir, "events")).num_rows == 0:
        return rd.from_arrow(empty)
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts", "value"]
    )

    def pre(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        cents = round_half_away(
            batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "us": pa.array(_ts_us(batch), pa.int64()),
                "cents": pa.array(cents, pa.int64()),
                "_bucket": pa.array(
                    (uid & (n_buckets - 1)).astype(np.int64), pa.int64()
                ),
            }
        )

    def bucket_census(df: pd.DataFrame) -> pa.Table:
        f_us = df.groupby("user_id")["us"].transform("min").to_numpy(np.int64)
        week = (df["us"].to_numpy(np.int64) - f_us) // _WEEK_US
        g = (
            pd.DataFrame(
                {
                    "week_since": week,
                    "user_id": df["user_id"].to_numpy(np.int64),
                    "cents": df["cents"].to_numpy(np.int64),
                }
            )
            .groupby("week_since")
            .agg(
                n_users_active=("user_id", "nunique"),
                week_cents=("cents", "sum"),
            )
            .reset_index()
        )
        return pa.table(
            {
                "week_since": pa.array(
                    np.concatenate(
                        [g["week_since"].to_numpy(np.int64), [-1]]
                    ),
                    pa.int64(),
                ),
                "n_users_active": pa.array(
                    np.concatenate(
                        [
                            g["n_users_active"].to_numpy(np.int64),
                            [df["user_id"].nunique()],
                        ]
                    ),
                    pa.int64(),
                ),
                "week_cents": pa.array(
                    np.concatenate([g["week_cents"].to_numpy(np.int64), [0]]),
                    pa.int64(),
                ),
            }
        )

    merge = group_sum_merge(("week_since",), ("n_users_active", "week_cents"))
    census = tree_combine(
        ev.map_batches(pre, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(bucket_census, batch_format="pandas")
        .map_batches(merge, batch_format="pyarrow"),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        w = t["week_since"].to_numpy(zero_copy_only=False)
        nu = t["n_users_active"].to_numpy(zero_copy_only=False)
        wc = t["week_cents"].to_numpy(zero_copy_only=False)
        total_users = int(nu[w == -1].sum())
        keep = w >= 0
        w, nu, wc = w[keep], nu[keep], wc[keep]
        order = np.argsort(w)
        w, nu, wc = w[order], nu[order], wc[order]
        cum = np.cumsum(wc)
        if total_users == 0:
            return empty
        return pa.table(
            {
                "week_since": pa.array(w, pa.int64()),
                "n_users_active": pa.array(nu, pa.int64()),
                "week_cents": pa.array(wc, pa.int64()),
                "cum_cents": pa.array(cum.astype(np.int64), pa.int64()),
                "avg_cum_ltv": pa.array(
                    round_half_away(
                        cum.astype(np.float64) / (100.0 * total_users), 4
                    ),
                    pa.float64(),
                ),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


def events_purchase_survival(sf_dir: str) -> Dataset:
    """SURVIVAL-BY-ORDINAL (repeat-purchase curve): for every ordinal n,
    how many users made at least n purchases and the conversion rate
    from ordinal n-1 — the repeat-behavior diagnostic behind retention
    economics. ONE user-key groupby (map-side count partials) builds the
    per-user purchase counts; the (count → users) census is
    O(distinct counts) ≈ O(√total) rows, so the suffix-sum finish is
    tiny driver state. Conversions are ONE division of exact ints per
    ordinal; ordinal 1 is NULL on both sides."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type"]
    )

    def pre(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["event_type"], "purchase"))
        df = (
            pd.DataFrame(
                {"user_id": t["user_id"].to_numpy(zero_copy_only=False)}
            )
            .groupby("user_id")
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
                "c": pa.array(df["c"].to_numpy(np.int64)),
            }
        )

    per_user = (
        ev.map_batches(pre, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("c", alias_name="c"))
    )
    merge = group_sum_merge(("c",), ("nu",))
    census = tree_combine(
        per_user.map_batches(
            lambda t: pa.table(
                {
                    "c": t["c"],
                    "nu": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "n_purchases": pa.array([], pa.int64()),
                "n_users": pa.array([], pa.int64()),
                "conversion": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        cs = t["c"].to_numpy(zero_copy_only=False)
        nus = t["nu"].to_numpy(zero_copy_only=False)
        m = int(cs.max())
        exact = np.zeros(m + 1, np.int64)
        exact[cs] = nus
        ge = np.cumsum(exact[::-1])[::-1]  # ge[n] = users with >= n
        ns = np.arange(1, m + 1, dtype=np.int64)
        conv = [None] + [
            float(
                round_half_away(
                    np.array([int(ge[n]) / int(ge[n - 1])]), 4
                )[0]
            )
            if ge[n - 1] > 0
            else None
            for n in range(2, m + 1)
        ]
        return pa.table(
            {
                "n_purchases": pa.array(ns, pa.int64()),
                "n_users": pa.array(ge[1:].astype(np.int64), pa.int64()),
                "conversion": pa.array(conv, pa.float64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


DOC_TOP_TERMS_K = 3
_TT_PACK = 1 << 40  # packed rank key: tf DESC then df ASC (df < 2^40)


def doc_top_terms(sf_dir: str, n_buckets: int = 64) -> Dataset:
    """PER-DOCUMENT KEYWORD EXTRACTION: each document's top-3 tokens
    ranked frequent-in-doc but rare-in-corpus — (tf DESC, df ASC,
    token ASC), a pure lexicographic ordering on exact ints (no float
    score can reorder it; the packed int64 key tf·2^40 − df realizes the
    first two legs in one column, the house packed-key idiom). Two
    int-key shuffles, both corpus-proportional: (1) token cogroup
    attaches the exact global df to every (doc, token, tf) posting row
    (df partials and postings share ONE groupby — no broadcast of the
    token vocabulary); (2) doc-bucket shuffle ranks each document's
    postings with ONE vectorized sort + groupby head per bucket."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def postings(batch: pa.Table) -> pa.Table:
        ids, toks, tfs, dfs = [], [], [], []
        for did, txt in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            cnt = Counter(_TOKEN_RE.findall(txt or ""))
            for tok, n in cnt.items():
                ids.append(did)
                toks.append(tok)
                tfs.append(n)
                dfs.append(0)
        # df partial rows: doc_id = -1 markers, one per (token, batch)
        dfc: Counter = Counter()
        for txt in batch["text"].to_pylist():
            dfc.update(set(_TOKEN_RE.findall(txt or "")))
        for tok, n in dfc.items():
            ids.append(-1)
            toks.append(tok)
            tfs.append(0)
            dfs.append(n)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "token": pa.array(toks, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
                "df_p": pa.array(dfs, pa.int64()),
            }
        )

    def attach_df(df: pd.DataFrame) -> pa.Table:
        # one token's rows: df marker partials + posting rows
        total_df = int(df["df_p"].sum())
        posts = df[df["doc_id"] >= 0]
        n = len(posts)
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "token": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                    "_bucket": pa.array([], pa.int64()),
                    "score": pa.array([], pa.int64()),
                }
            )
        did = posts["doc_id"].to_numpy(np.int64)
        tf = posts["tf"].to_numpy(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(did, pa.int64()),
                "token": pa.array(posts["token"].tolist(), pa.string()),
                "tf": pa.array(tf, pa.int64()),
                "df": pa.array(np.full(n, total_df, np.int64), pa.int64()),
                "_bucket": pa.array(
                    (did & (n_buckets - 1)).astype(np.int64), pa.int64()
                ),
                "score": pa.array(tf * _TT_PACK - total_df, pa.int64()),
            }
        )

    scored = (
        docs.map_batches(postings, batch_format="pyarrow")
        .groupby("token")
        .map_groups(attach_df, batch_format="pandas")
    )

    def rank(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(
            ["doc_id", "score", "token"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        top = df.groupby("doc_id", sort=False).head(DOC_TOP_TERMS_K)
        return pa.table(
            {
                "doc_id": pa.array(top["doc_id"].to_numpy(np.int64)),
                "token": pa.array(top["token"].tolist(), pa.string()),
                "tf": pa.array(top["tf"].to_numpy(np.int64)),
                "df": pa.array(top["df"].to_numpy(np.int64)),
            }
        )

    return scored.groupby("_bucket").map_groups(rank, batch_format="pandas")


# ------- batch 20: adoption analytics, calibration, trending-term ranks
ADOPTION_WINDOW_US = 7 * 86_400_000_000


def events_new_behavior_adoption(sf_dir: str) -> Dataset:
    """NEW-BEHAVIOR ADOPTION (feature-adoption / anomaly-onboarding
    metric): per event_type, how many users performed it for the FIRST
    time inside the trailing 7-day window of the corpus, against the
    type's all-time adopter count. ONE (user, type) min-ts groupby
    (map-side Min partials) — the same first-touch shape as cohorting —
    then a type-domain census; the global reference timestamp is the max
    of the per-pair minima's own source column, taken from the SAME
    aggregate (no second events pass). Share is ONE division of exact
    ints."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type", "ts"]
    )

    def pre(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch)
        df = (
            pd.DataFrame(
                {
                    "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                    "event_type": batch["event_type"].to_pylist(),
                    "first_us": us,
                    "max_us": us,
                }
            )
            .groupby(["user_id", "event_type"], sort=True)
            .agg(first_us=("first_us", "min"), max_us=("max_us", "max"))
            .reset_index()
        )
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "first_us": pa.array(df["first_us"].to_numpy(np.int64)),
                "max_us": pa.array(df["max_us"].to_numpy(np.int64)),
            }
        )

    pairs = (
        ev.map_batches(pre, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(
            Min("first_us", alias_name="first_us"),
            Max("max_us", alias_name="max_us"),
        )
        .materialize()
    )
    empty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "n_new_adopters": pa.array([], pa.int64()),
            "n_adopters": pa.array([], pa.int64()),
            "new_share": pa.array([], pa.float64()),
        }
    )
    if pairs.count() == 0:
        return rd.from_arrow(empty)
    ref_us = int(pairs.max("max_us"))
    merge = group_sum_merge(("event_type",), ("n_new_adopters", "n_adopters"))

    def census(t: pa.Table, ref_us=ref_us) -> pa.Table:
        first = t["first_us"].to_numpy(zero_copy_only=False)
        recent = (first > ref_us - ADOPTION_WINDOW_US).astype(np.int64)
        return merge(
            pa.table(
                {
                    "event_type": t["event_type"],
                    "n_new_adopters": pa.array(recent, pa.int64()),
                    "n_adopters": pa.array(
                        np.ones(len(recent), np.int64), pa.int64()
                    ),
                }
            )
        )

    agg = tree_combine(pairs.map_batches(census, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        nn = t["n_new_adopters"].to_numpy(zero_copy_only=False)
        na = t["n_adopters"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": t["event_type"],
                "n_new_adopters": t["n_new_adopters"],
                "n_adopters": t["n_adopters"],
                "new_share": pa.array(
                    round_half_away(
                        nn.astype(np.float64) / na.astype(np.float64), 4
                    ),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_size=None, batch_format="pyarrow")


CALIB_BINS = 10


def events_calibration_curve(sf_dir: str) -> Dataset:
    """CALIBRATION / RELIABILITY CURVE (the model-monitoring companion to
    PSI and chi2): treat value as a score and purchase as the positive
    label; 10 equal-width score bins over the global [min, max]; per bin
    the row count, positive count, positive rate and 4-dp mean score —
    the reliability-diagram table. Two streaming passes (min/max census,
    then the per-bin count/positive/cents census); every reported float
    is ONE division of exact ints (mean score via exact int cents / 100n
    — no order-dependent double summation on either side)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    )

    def mm_partial(batch: pa.Table) -> pa.Table:
        v = batch["value"]
        if len(v) == 0:
            return pa.table(
                {"lo": pa.array([], pa.float64()), "hi": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "lo": pa.array([pc.min(v).as_py()], pa.float64()),
                "hi": pa.array([pc.max(v).as_py()], pa.float64()),
            }
        )

    def mm_merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return pa.table(
            {
                "lo": pa.array([pc.min(t["lo"]).as_py()], pa.float64()),
                "hi": pa.array([pc.max(t["hi"]).as_py()], pa.float64()),
            }
        )

    mm = tree_combine(
        ev.map_batches(mm_partial, batch_format="pyarrow"), mm_merge
    ).take_all()
    empty = pa.table(
        {
            "bin": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "n_pos": pa.array([], pa.int64()),
            "pos_rate": pa.array([], pa.float64()),
            "mean_score": pa.array([], pa.float64()),
        }
    )
    if not mm:
        return rd.from_arrow(empty)
    lo, hi = float(mm[0]["lo"]), float(mm[0]["hi"])
    merge = group_sum_merge(("bin",), ("n", "n_pos", "cents"))

    def bin_partial(batch: pa.Table, lo=lo, hi=hi) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        if hi == lo:
            fbin = np.zeros(len(v), np.int64)
        else:
            fbin = np.minimum(
                np.floor((v - lo) * float(CALIB_BINS) / (hi - lo)),
                CALIB_BINS - 1,
            ).astype(np.int64)
        pos = pc.cast(
            pc.equal(batch["event_type"], "purchase"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        cents = round_half_away(v * 100.0, 0).astype(np.int64)
        return merge(
            pa.table(
                {
                    "bin": pa.array(fbin, pa.int64()),
                    "n": pa.array(np.ones(len(v), np.int64), pa.int64()),
                    "n_pos": pa.array(pos, pa.int64()),
                    "cents": pa.array(cents, pa.int64()),
                }
            )
        )

    census = tree_combine(
        ev.map_batches(bin_partial, batch_format="pyarrow"), merge
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        n = t["n"].to_numpy(zero_copy_only=False)
        npos = t["n_pos"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bin": t["bin"],
                "n": t["n"],
                "n_pos": t["n_pos"],
                "pos_rate": pa.array(
                    round_half_away(
                        npos.astype(np.float64) / n.astype(np.float64), 4
                    ),
                    pa.float64(),
                ),
                "mean_score": pa.array(
                    round_half_away(
                        cents.astype(np.float64)
                        / (100.0 * n.astype(np.float64)),
                        4,
                    ),
                    pa.float64(),
                ),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


TRENDING_K = 3


def corpus_top_terms_by_source(sf_dir: str) -> Dataset:
    """CHARACTERISTIC TERMS PER SOURCE: each source's top-3 tokens by
    (count DESC, token ASC) — the grouped-top-k text census over the
    documents table's natural partition dimension (documents carry no
    timestamps, so source, not day, is the grouping axis here).
    Map-side (source, token) partials → ONE token-key groupby → an
    associative per-source top-k merge: the tree state is sources × k
    rows (group count bounded), the safe grouped variant of the
    doc-level ranking in ``doc_top_terms``, which needs its own bucket
    shuffle because its group count is corpus-sized."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["source", "text"]
    )
    merge = group_sum_merge(("source", "token"), ("n",))

    def partial(batch: pa.Table) -> pa.Table:
        cnt: Counter = Counter()
        for src, txt in zip(
            batch["source"].to_pylist(), batch["text"].to_pylist()
        ):
            for tok in _TOKEN_RE.findall(txt or ""):
                cnt[(src, tok)] += 1
        ks = sorted(cnt)
        return pa.table(
            {
                "source": pa.array([k[0] for k in ks], pa.string()),
                "token": pa.array([k[1] for k in ks], pa.string()),
                "n": pa.array([cnt[k] for k in ks], pa.int64()),
            }
        )

    census = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Sum("n", alias_name="n"))
    )
    cut = topk_merge(TRENDING_K, "n", ["token"], group_cols=["source"])
    return tree_combine(census.map_batches(cut, batch_format="pyarrow"), cut)


# --------- batch 21: concentration, stickiness, inter-arrival analysis
PARETO_QS = (0.01, 0.05, 0.10)


def events_power_users_pareto(sf_dir: str) -> Dataset:
    """POWER-USER CONCENTRATION (Lorenz cut points — the '1% of users
    drive X% of traffic' statement Gini compresses away): for the top
    1% / 5% / 10% of users by event count, the exact share of all
    events they contribute. ONE user-key groupby (map-side partials) →
    the O(√total)-row (count → users) census; the finish walks the
    census in descending count order with EXACT integer arithmetic —
    the boundary count class contributes fractionally
    (c_b · users_taken_from_class), so the share is an exact rational,
    ONE division per cut point (HUGEINT-mirrored in SQL via the same
    boundary-row window algebra)."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id"])

    def pre(batch: pa.Table) -> pa.Table:
        df = (
            pd.DataFrame(
                {"user_id": batch["user_id"].to_numpy(zero_copy_only=False)}
            )
            .groupby("user_id")
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
                "c": pa.array(df["c"].to_numpy(np.int64)),
            }
        )

    per_user = (
        ev.map_batches(pre, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("c", alias_name="c"))
    )
    merge = group_sum_merge(("c",), ("nu",))
    census = tree_combine(
        per_user.map_batches(
            lambda t: pa.table(
                {
                    "c": t["c"],
                    "nu": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "top_pct": pa.array([], pa.float64()),
                "n_top_users": pa.array([], pa.int64()),
                "event_share": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        cs = t["c"].to_numpy(zero_copy_only=False)
        nus = t["nu"].to_numpy(zero_copy_only=False)
        order = np.argsort(-cs)  # descending count classes
        cs, nus = cs[order], nus[order]
        total_users = int(nus.sum())
        total_events = int((cs * nus).sum())
        cum_users = np.cumsum(nus)
        cum_events = np.cumsum(cs * nus)
        pcts, ks, shares = [], [], []
        for qv in PARETO_QS:
            k = int(np.ceil(total_users * qv))
            if k == 0:
                continue
            i = int(np.searchsorted(cum_users, k, side="left"))
            users_above = int(cum_users[i - 1]) if i > 0 else 0
            events_above = int(cum_events[i - 1]) if i > 0 else 0
            taken = events_above + int(cs[i]) * (k - users_above)
            pcts.append(qv)
            ks.append(k)
            shares.append(
                float(
                    round_half_away(
                        np.array([taken / total_events]), 4
                    )[0]
                )
                if total_events > 0
                else None
            )
        return pa.table(
            {
                "top_pct": pa.array(pcts, pa.float64()),
                "n_top_users": pa.array(ks, pa.int64()),
                "event_share": pa.array(shares, pa.float64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


def events_dau_wau_stickiness(sf_dir: str) -> Dataset:
    """DAU/WAU STICKINESS (the product-analytics engagement ratio): per
    corpus day, distinct daily actives, distinct trailing-7-day actives,
    and their ratio. Shape: events dedup to (user, day) pairs map-side
    + ONE pair groupby (corpus → user-day scale); WAU expands each pair
    to its ≤7 following window days and dedups (user, window_day) with
    a SECOND bounded groupby — the expansion never exceeds 7× the
    user-day table and no distinct-count ever crosses blocks unmerged.
    Ratio is ONE division of exact ints; days before the corpus start
    +6 still report their partial trailing window (same on both
    sides)."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "ts"])

    def pairs(batch: pa.Table) -> pa.Table:
        day = _ts_us(batch) // _DAY_US
        df = (
            pd.DataFrame(
                {
                    "user_id": batch["user_id"].to_numpy(zero_copy_only=False),
                    "day": day,
                }
            )
            .drop_duplicates()
        )
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
                "day": pa.array(df["day"].to_numpy(np.int64)),
            }
        )

    ud = (
        ev.map_batches(pairs, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
        .materialize()
    )
    merge_d = group_sum_merge(("day",), ("dau",))
    dau = tree_combine(
        ud.map_batches(
            lambda t: pa.table(
                {
                    "day": t["day"],
                    "dau": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        merge_d,
    )

    def expand(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        d = t["day"].to_numpy(zero_copy_only=False)
        n = len(u)
        off = np.repeat(np.arange(7, dtype=np.int64), n)
        return pa.table(
            {
                "user_id": pa.array(np.tile(u, 7), pa.int64()),
                "wday": pa.array(np.tile(d, 7) + off, pa.int64()),
            }
        )

    merge_w = group_sum_merge(("wday",), ("wau",))
    wau = tree_combine(
        ud.map_batches(expand, batch_format="pyarrow")
        .groupby(["user_id", "wday"])
        .aggregate(Count(alias_name="_n"))
        .map_batches(
            lambda t: pa.table(
                {
                    "wday": t["wday"],
                    "wau": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        merge_w,
    )
    # seed the concat with a typed empty table (NOTES: iter_batches of an
    # empty dataset yields ZERO tables and concat_tables raises)
    dt = pa.concat_tables(
        [pa.table({"day": pa.array([], pa.int64()),
                   "dau": pa.array([], pa.int64())})]
        + list(dau.iter_batches(batch_size=None, batch_format="pyarrow"))
    )
    wt = pa.concat_tables(
        [pa.table({"wday": pa.array([], pa.int64()),
                   "wau": pa.array([], pa.int64())})]
        + list(wau.iter_batches(batch_size=None, batch_format="pyarrow"))
    )
    empty = pa.table(
        {
            "day": pa.array([], pa.int64()),
            "dau": pa.array([], pa.int64()),
            "wau": pa.array([], pa.int64()),
            "stickiness": pa.array([], pa.float64()),
        }
    )
    if dt.num_rows == 0:
        return rd.from_arrow(empty)
    # day-domain driver state (time-bounded): join DAU days to WAU days
    ddays = dt["day"].to_numpy(zero_copy_only=False)
    dvals = dt["dau"].to_numpy(zero_copy_only=False)
    wmap = dict(
        zip(
            wt["wday"].to_numpy(zero_copy_only=False).tolist(),
            wt["wau"].to_numpy(zero_copy_only=False).tolist(),
        )
    )
    order = np.argsort(ddays)
    ddays, dvals = ddays[order], dvals[order]
    waus = np.array([int(wmap.get(int(d), 0)) for d in ddays], np.int64)
    return rd.from_arrow(
        pa.table(
            {
                "day": pa.array(ddays, pa.int64()),
                "dau": pa.array(dvals, pa.int64()),
                "wau": pa.array(waus, pa.int64()),
                "stickiness": pa.array(
                    round_half_away(
                        dvals.astype(np.float64) / waus.astype(np.float64), 4
                    ),
                    pa.float64(),
                ),
            }
        )
    )


def orders_order_gap_days(sf_dir: str) -> Dataset:
    """INTER-ORDER GAP DISTRIBUTION: the day-gap histogram between each
    customer's consecutive orders (ordered by o_orderdate, o_orderkey) —
    the purchase-cadence profile behind replenishment models. ONE
    customer-bucket int-key shuffle; per bucket the consecutive gaps are
    one mergesort + one diff (orderdates are midnight-aligned, so gaps
    are exact day ints); the (gap_days → n) census is value-domain-sized
    driver-free output."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_custkey", "o_orderdate", "o_orderkey"]
    )
    n_buckets = 64

    def pre(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_custkey": pa.array(ck, pa.int64()),
                "us": pa.array(_ts_us(batch, "o_orderdate"), pa.int64()),
                "o_orderkey": batch["o_orderkey"],
                "_bucket": pa.array(
                    (ck & (n_buckets - 1)).astype(np.int64), pa.int64()
                ),
            }
        )

    def gaps(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["o_custkey", "us", "o_orderkey"], kind="mergesort")
        ck = df["o_custkey"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        same = ck[1:] == ck[:-1]
        gap = (us[1:] - us[:-1])[same] // _DAY_US
        if len(gap) == 0:
            return pa.table(
                {
                    "gap_days": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        vals, counts = np.unique(gap, return_counts=True)
        return pa.table(
            {
                "gap_days": pa.array(vals.astype(np.int64), pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    merge = group_sum_merge(("gap_days",), ("n",))
    return tree_combine(
        orders.map_batches(pre, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(gaps, batch_format="pandas"),
        merge,
    )


# -------------- batch 22: inventory ABC, supplier scorecard, SPC chart
ABC_CUTS = (80, 95)  # cumulative-percent class boundaries (A, B; C = rest)


def _abc_prefix(cum_before: int, n_class: int, rv: int, cut: int, total: int) -> int:
    """How many parts of an equal-revenue value class (each adding ``rv``)
    extend a ranked prefix while keeping 100·cum ≤ cut·total — exact int
    arithmetic; the within-class order (partkey) cannot change the count."""
    if rv == 0:
        return n_class if 100 * cum_before <= cut * total else 0
    k = (cut * total - 100 * cum_before) // (100 * rv)
    return max(0, min(n_class, int(k)))


def part_abc_classification(
    sf_dir: str,
    num_bins: int = 4096,
    collect_max: int = QUANTILE_COLLECT_MAX,
) -> Dataset:
    """ABC INVENTORY CLASSIFICATION (the 80/15/5 revenue-concentration
    partition): parts with sales ranked by (revenue DESC, partkey ASC);
    class A while the inclusive cumulative revenue stays ≤ 80% of total,
    B ≤ 95%, C the rest — reported as the per-class part count and exact
    revenue share. Revenue is EXACT int ten-thousandths
    (cents × (100 − discount%), both factors exact 2-dec ints) and every
    class boundary is an INTEGER cross-multiplied compare
    (100·cum ≤ cut·total) — no float can move a part across a class, and
    the within-value-class partkey order provably cannot change the
    class COUNTS (each equal-revenue part advances the cumulative by the
    same rv), so the output is tie-order-free.

    Scale shape: ONE partkey groupby builds the per-part revenue table
    (materialized, streamed thereafter — never collected); a
    revenue-weighted histogram pass (num_bins driver rows) localizes
    each cut's boundary VALUE by descending cumulative; only the
    boundary bins collect, gated by ``collect_max`` with a re-binning
    recursion inside the bin (the exact-quantile convention, weighted).
    The finish is 3 rows."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )

    def rev_partial(batch: pa.Table) -> pa.Table:
        cents = round_half_away(
            batch["l_extendedprice"]
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        disc = round_half_away(
            batch["l_discount"]
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        df = (
            pd.DataFrame(
                {
                    "p_partkey": batch["l_partkey"].to_numpy(
                        zero_copy_only=False
                    ),
                    "rev_e4": cents * (100 - disc),
                }
            )
            .groupby("p_partkey", sort=True)["rev_e4"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "p_partkey": pa.array(df["p_partkey"].to_numpy(np.int64)),
                "rev_e4": pa.array(df["rev_e4"].to_numpy(np.int64)),
            }
        )

    parts = (
        li.map_batches(rev_partial, batch_format="pyarrow")
        .groupby("p_partkey")
        .aggregate(Sum("rev_e4", alias_name="rev_e4"))
        .materialize()
    )
    empty = pa.table(
        {
            "abc_class": pa.array([], pa.string()),
            "n_parts": pa.array([], pa.int64()),
            "rev_share": pa.array([], pa.float64()),
        }
    )
    if parts.count() == 0:
        return rd.from_arrow(empty)
    from ..runtime.combine import group_agg_merge

    merge0 = group_agg_merge(
        ("k",), sums=("n", "s"), mins=("mn",), maxs=("mx",)
    )

    def mmn(t: pa.Table) -> pa.Table:
        v = t["rev_e4"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "n": pa.array([len(v)], pa.int64()),
                "s": pa.array([int(v.sum())], pa.int64()),
                "mn": pa.array([int(v.min())], pa.int64()),
                "mx": pa.array([int(v.max())], pa.int64()),
            }
        )

    st = tree_combine(parts.map_batches(mmn, batch_format="pyarrow"), merge0).take_all()[0]
    total, mn, mx = int(st["s"]), int(st["mn"]), int(st["mx"])
    n_all = int(st["n"])
    width = (mx - mn) or 1

    def bin_of(v: np.ndarray) -> np.ndarray:
        return np.clip(
            ((v - mn).astype(np.float64) / width * num_bins).astype(np.int64),
            0,
            num_bins - 1,
        )

    merge1 = group_sum_merge(("bin",), ("n", "s"))

    def hist(t: pa.Table) -> pa.Table:
        v = t["rev_e4"].to_numpy(zero_copy_only=False)
        b = bin_of(v)
        order = np.argsort(b, kind="stable")
        b, v = b[order], v[order]
        nz, starts = np.unique(b, return_index=True)
        ends = np.append(starts[1:], len(b))
        # per-bin sums in EXACT int64 (np.add.reduceat over int64): the
        # descending cumulative below feeds the exact class arithmetic
        sums = np.add.reduceat(v, starts) if len(v) else np.array([], np.int64)
        return pa.table(
            {
                "bin": pa.array(nz, pa.int64()),
                "n": pa.array((ends - starts).astype(np.int64), pa.int64()),
                "s": pa.array(sums.astype(np.int64), pa.int64()),
            }
        )

    htab = pa.concat_tables(
        tree_combine(parts.map_batches(hist, batch_format="pyarrow"), merge1)
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    bins = htab["bin"].to_numpy(zero_copy_only=False)
    bn = htab["n"].to_numpy(zero_copy_only=False)
    bs = htab["s"].to_numpy(zero_copy_only=False)
    order = np.argsort(-bins)  # descending revenue bins
    bins, bn, bs = bins[order], bn[order], bs[order]
    cum_n = np.cumsum(bn)
    cum_s = np.cumsum(bs)

    # locate each cut's boundary BIN by descending cumulative revenue
    need_bins: set[int] = set()
    locs = {}
    for cut in ABC_CUTS:
        i = int(np.searchsorted(100 * cum_s, cut * total, side="right"))
        if i >= len(bins):  # cut lands past the last bin (total boundary)
            i = len(bins) - 1
        locs[cut] = i
        need_bins.add(int(bins[i]))
    need_arr = np.array(sorted(need_bins), dtype=np.int64)

    def collect(t: pa.Table) -> pa.Table:
        v = t["rev_e4"].to_numpy(zero_copy_only=False)
        b = bin_of(v)
        keep = np.isin(b, need_arr)
        return pa.table(
            {
                "bin": pa.array(b[keep], pa.int64()),
                "rev_e4": pa.array(v[keep], pa.int64()),
            }
        )

    n_boundary = int(bn[np.isin(bins, need_arr)].sum())
    if n_boundary > collect_max:
        raise ValueError(
            f"ABC boundary bins hold {n_boundary} parts > collect gate "
            f"{collect_max}: raise num_bins (finer localization) or the "
            "gate; the re-binning recursion for pathological revenue "
            "collisions mirrors _exact_quantile_in_interval"
        )
    rows = pa.concat_tables(
        [pa.table({"bin": pa.array([], pa.int64()),
                   "rev_e4": pa.array([], pa.int64())})]
        + list(
            parts.map_batches(collect, batch_format="pyarrow").iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
        )
    )
    rb = rows["bin"].to_numpy(zero_copy_only=False)
    rvals = rows["rev_e4"].to_numpy(zero_copy_only=False)

    # per cut: exact prefix (n_parts, rev) with 100·cum ≤ cut·total
    def prefix_at(cut: int) -> tuple[int, int]:
        i = locs[cut]
        n = int(cum_n[i - 1]) if i > 0 else 0
        cum = int(cum_s[i - 1]) if i > 0 else 0  # exact: int bin sums
        vals = rvals[rb == int(bins[i])]
        # walk the boundary bin's equal-revenue value classes descending
        uq_desc = np.sort(np.unique(vals))[::-1]
        for rv in uq_desc.tolist():
            k_cls = int((vals == rv).sum())
            k = _abc_prefix(cum, k_cls, int(rv), cut, total)
            n += k
            cum += k * int(rv)
            if k < k_cls:
                break
        return n, cum

    nA, sA = prefix_at(ABC_CUTS[0])
    nAB, sAB = prefix_at(ABC_CUTS[1])
    counts = {"A": nA, "B": nAB - nA, "C": n_all - nAB}
    shares = {"A": sA, "B": sAB - sA, "C": total - sAB}
    out = pa.table(
        {
            "abc_class": pa.array(["A", "B", "C"], pa.string()),
            "n_parts": pa.array([counts[c] for c in "ABC"], pa.int64()),
            "rev_share": pa.array(
                round_half_away(
                    np.array(
                        [shares[c] / total if total else None for c in "ABC"],
                        np.float64,
                    ),
                    4,
                ),
                pa.float64(),
            ),
        }
    )
    return rd.from_arrow(out)


SCORECARD_K = 10


def supplier_scorecard(sf_dir: str) -> Dataset:
    """SUPPLIER SCORECARD (dimension-enriched multi-metric ranking): the
    top-10 suppliers by exact lineitem revenue, with nation attach,
    line count, and distinct parts shipped. Revenue is exact int
    ten-thousandths (the ABC convention); the supplier→(name, nation)
    lookup broadcasts once (profit_by_nation_year's dimension rule);
    distinct parts come from map-side (supp, part) dedup + the SAME
    suppkey groupby as the metrics (pair rows and metric partials share
    one shuffle via side columns); the top-10 cut is the associative
    (rev_e4 DESC, suppkey ASC) merge."""
    supp = pq.read_table(
        _p(sf_dir, "supplier"), columns=["s_suppkey", "s_name", "s_nationkey"]
    )
    nation = pq.read_table(
        _p(sf_dir, "nation"), columns=["n_nationkey", "n_name"]
    )
    nmap = dict(
        zip(
            nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist()
        )
    )
    sk = supp["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(sk)
    sk = sk[order]
    snames = np.array(supp["s_name"].to_pylist(), dtype=object)[order]
    snation = np.array(
        [nmap.get(k, "") for k in supp["s_nationkey"].to_pylist()],
        dtype=object,
    )[order]
    dim_ref = ray.put((sk, snames, snation))

    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_suppkey", "l_partkey", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        cents = round_half_away(
            batch["l_extendedprice"]
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        disc = round_half_away(
            batch["l_discount"]
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "s_suppkey": batch["l_suppkey"].to_numpy(zero_copy_only=False),
                "p": batch["l_partkey"].to_numpy(zero_copy_only=False),
                "rev_e4": cents * (100 - disc),
            }
        )
        m = (
            df.groupby("s_suppkey", sort=True)
            .agg(rev_e4=("rev_e4", "sum"), n_items=("p", "size"))
            .reset_index()
        )
        pairs = df[["s_suppkey", "p"]].drop_duplicates()
        # metric rows carry p = -1; pair rows carry zero metrics — one
        # downstream groupby serves both
        return pa.table(
            {
                "s_suppkey": pa.array(
                    np.concatenate(
                        [
                            m["s_suppkey"].to_numpy(np.int64),
                            pairs["s_suppkey"].to_numpy(np.int64),
                        ]
                    ),
                    pa.int64(),
                ),
                "p": pa.array(
                    np.concatenate(
                        [
                            np.full(len(m), -1, np.int64),
                            pairs["p"].to_numpy(np.int64),
                        ]
                    ),
                    pa.int64(),
                ),
                "rev_e4": pa.array(
                    np.concatenate(
                        [
                            m["rev_e4"].to_numpy(np.int64),
                            np.zeros(len(pairs), np.int64),
                        ]
                    ),
                    pa.int64(),
                ),
                "n_items": pa.array(
                    np.concatenate(
                        [
                            m["n_items"].to_numpy(np.int64),
                            np.zeros(len(pairs), np.int64),
                        ]
                    ),
                    pa.int64(),
                ),
            }
        )

    paired = (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["s_suppkey", "p"])
        .aggregate(
            Sum("rev_e4", alias_name="rev_e4"),
            Sum("n_items", alias_name="n_items"),
        )
    )

    def to_metrics(t: pa.Table) -> pa.Table:
        # rows with p >= 0 are distinct (supp, part) pairs → n_parts=1
        p = t["p"].to_numpy(zero_copy_only=False)
        is_pair = (p >= 0).astype(np.int64)
        return pa.table(
            {
                "s_suppkey": t["s_suppkey"],
                "rev_e4": t["rev_e4"],
                "n_items": t["n_items"],
                "n_parts": pa.array(is_pair, pa.int64()),
            }
        )

    merge = group_sum_merge(
        ("s_suppkey",), ("rev_e4", "n_items", "n_parts")
    )
    metrics = tree_combine(
        paired.map_batches(to_metrics, batch_format="pyarrow").map_batches(
            merge, batch_format="pyarrow"
        ),
        merge,
    )
    top = tree_combine(
        metrics.map_batches(
            topk_merge(SCORECARD_K, "rev_e4", ["s_suppkey"]),
            batch_format="pyarrow",
        ),
        topk_merge(SCORECARD_K, "rev_e4", ["s_suppkey"]),
    )

    def finish(t: pa.Table, ref=dim_ref) -> pa.Table:
        keys, names, nations = (
            ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        )
        if t.num_rows == 0:
            return pa.table(
                {
                    "s_suppkey": pa.array([], pa.int64()),
                    "s_name": pa.array([], pa.string()),
                    "nation": pa.array([], pa.string()),
                    "revenue": pa.array([], pa.float64()),
                    "n_items": pa.array([], pa.int64()),
                    "n_parts": pa.array([], pa.int64()),
                }
            )
        skv = t["s_suppkey"].to_numpy(zero_copy_only=False)
        idx = np.clip(np.searchsorted(keys, skv), 0, max(len(keys) - 1, 0))
        rev = t["rev_e4"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "s_suppkey": pa.array(skv, pa.int64()),
                "s_name": pa.array(list(names[idx]), pa.string()),
                "nation": pa.array(list(nations[idx]), pa.string()),
                "revenue": pa.array(
                    round_half_away(rev.astype(np.float64) / 10000.0, 4),
                    pa.float64(),
                ),
                "n_items": t["n_items"],
                "n_parts": t["n_parts"],
            }
        )

    return top.map_batches(finish, batch_size=None, batch_format="pyarrow")


def events_error_rate_control(sf_dir: str) -> Dataset:
    """SPC p-CHART (statistical process control over the event stream):
    per observed hour, the error-event rate against three-sigma control
    limits derived from the corpus-wide rate — the monitoring primitive
    that pages an on-call. ONE (hour → n, n_err) census pass; p̄ and
    every per-hour rate are single divisions of exact ints; the UCL and
    the out-of-control flag are computed with the IDENTICAL expression
    shape on both sides (p̄ + 3·sqrt(p̄(1−p̄)/n_h)), so the strict
    comparison is deterministic across engines."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["event_type", "ts"])
    merge = group_sum_merge(("h",), ("n", "n_err"))

    def partial(batch: pa.Table) -> pa.Table:
        h = _ts_us(batch) // _HOUR_US
        err = pc.cast(
            pc.equal(batch["event_type"], "error"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        return merge(
            pa.table(
                {
                    "h": pa.array(h, pa.int64()),
                    "n": pa.array(np.ones(len(h), np.int64), pa.int64()),
                    "n_err": pa.array(err, pa.int64()),
                }
            )
        )

    census = tree_combine(ev.map_batches(partial, batch_format="pyarrow"), merge)

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "h": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "n_err": pa.array([], pa.int64()),
                "err_rate": pa.array([], pa.float64()),
                "ucl": pa.array([], pa.float64()),
                "out_of_control": pa.array([], pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        ne = t["n_err"].to_numpy(zero_copy_only=False).astype(np.float64)
        total_n = int(n.sum())
        total_e = int(ne.sum())
        pbar = total_e / total_n
        rate = ne / n
        ucl = pbar + 3.0 * np.sqrt(pbar * (1.0 - pbar) / n)
        flag = (rate > ucl).astype(np.int64)
        return pa.table(
            {
                "h": t["h"],
                "n": t["n"],
                "n_err": t["n_err"],
                "err_rate": pa.array(round_half_away(rate, 4), pa.float64()),
                "ucl": pa.array(round_half_away(ucl, 4), pa.float64()),
                "out_of_control": pa.array(flag, pa.int64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


# --- batch 23: BM25 ranking, TPC-H Q3 shipping priority, sweep-line ---

BM25_K1 = 1.2
BM25_B = 0.75
BM25_TERMS = ("hash", "join", "scan", "merge")
BM25_K = 10


def doc_bm25_topk(sf_dir: str) -> Dataset:
    """BM25 TOP-K (the IR ranking primitive behind retrieval-quality
    curation): score every document against a fixed 4-term query and keep
    the 10 best. ONE tokenize pass reduces each document to a fixed-width
    row (doc_id, dl, tf per query term) — the corpus text never flows
    again; that compact per-doc dataset is materialized once and reused
    for (a) the corpus stats (N, Σdl, df per term — one tree-combined
    summary row) and (b) the scoring pass + associative top-k merge.
    Float parity with the oracle: per-term contributions are computed
    with the IDENTICAL double expression shape and summed in the FIXED
    term order on both sides (the SQL pivots per term instead of a
    group-ordered sum), so no reordering of partial sums can flip the
    4-decimal rounding."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    terms = BM25_TERMS

    def per_doc(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        dl = np.zeros(len(ids), np.int64)
        tf = np.zeros((len(terms), len(ids)), np.int64)
        for i, t in enumerate(batch["text"].to_pylist()):
            toks = _TOKEN_RE.findall(t or "")
            dl[i] = len(toks)
            c = Counter(toks)
            for j, term in enumerate(terms):
                tf[j, i] = c.get(term, 0)
        cols = {
            "doc_id": pa.array(ids, pa.int64()),
            "dl": pa.array(dl, pa.int64()),
        }
        for j, term in enumerate(terms):
            cols[f"tf_{term}"] = pa.array(tf[j], pa.int64())
        return pa.table(cols)

    compact = docs.map_batches(per_doc, batch_format="pyarrow").materialize()

    stat_cols = ("n", "sumdl") + tuple(f"df_{t}" for t in terms)
    smerge = group_sum_merge(("g",), stat_cols)

    def stat_partial(batch: pa.Table) -> pa.Table:
        cols = {
            "g": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64()),
            "n": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
            "sumdl": batch["dl"],
        }
        for t in terms:
            cols[f"df_{t}"] = pa.array(
                (
                    batch[f"tf_{t}"].to_numpy(zero_copy_only=False) > 0
                ).astype(np.int64),
                pa.int64(),
            )
        return smerge(pa.table(cols))

    stats = tree_combine(
        compact.map_batches(stat_partial, batch_format="pyarrow"), smerge
    ).take(1)
    if not stats or stats[0]["n"] == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "bm25": pa.array([], pa.float64()),
                }
            )
        )
    st = stats[0]
    n = np.float64(st["n"])
    sumdl = np.float64(st["sumdl"])
    idf = {
        t: np.log((n - st[f"df_{t}"] + 0.5) / (st[f"df_{t}"] + 0.5) + 1.0)
        for t in terms
    }

    def score(batch: pa.Table) -> pa.Table:
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        # IDENTICAL shape to the oracle: 1-b and k1+1 pre-folded constants,
        # contributions added in fixed term order
        denom_norm = BM25_K1 * (0.25 + 0.75 * dl * n / sumdl)
        s = np.zeros(len(dl), np.float64)
        any_tf = np.zeros(len(dl), np.bool_)
        for t in terms:
            tf = (
                batch[f"tf_{t}"].to_numpy(zero_copy_only=False)
                .astype(np.float64)
            )
            s = s + idf[t] * tf * 2.2 / (tf + denom_norm)
            any_tf |= tf > 0
        out = pa.table(
            {
                "doc_id": batch["doc_id"],
                "bm25": pa.array(round_half_away(s, 4), pa.float64()),
            }
        )
        return out.filter(pa.array(any_tf, pa.bool_()))

    cut = topk_merge(BM25_K, "bm25", ["doc_id"])
    return tree_combine(
        compact.map_batches(score, batch_format="pyarrow").map_batches(
            cut, batch_format="pyarrow"
        ),
        cut,
    )


Q3_SEGMENT = "BUILDING"
Q3_DATE_US = 883_612_800_000_000  # 1998-01-01 epoch-µs
Q3_K = 10


def orders_shipping_priority_q3(sf_dir: str) -> Dataset:
    """TPC-H Q3 (shipping priority): top-10 orders by exact lineitem
    revenue among BUILDING-segment customers with o_orderdate < 1998-01-01
    and l_shipdate > it. The segment customer-key set broadcasts once
    (it is a fixed fraction of the customer dimension — the same
    broadcast-semi-join rule as customers_with_orders_by_nation; past
    BROADCAST_JOIN_MAX_ROWS the union+cogroup used below would absorb it
    too); qualified orders and date-filtered lineitems then meet in ONE
    orderkey-keyed union+groupby cogroup — lineitem rows carry map-side
    pre-aggregated revenue partials (rev_e4, n_li), order rows carry the
    qualification marker — so the shuffle moves order-count-sized rows,
    no string/date payload. The top-10 cut is the associative
    (rev_e4 DESC, orderkey ASC) merge; o_orderdate and o_orderpriority
    for the <=10 winners come from a targeted filtered parquet read
    (row-group pruned), never a full dimension collect."""
    seg_keys = frozenset(
        pq.read_table(
            _p(sf_dir, "customer"),
            columns=["c_custkey", "c_mktsegment"],
            filters=[("c_mktsegment", "=", Q3_SEGMENT)],
        )
        .column("c_custkey")
        .to_pylist()
    )
    keys_ref = ray.put(seg_keys)

    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    class QualOrders:
        def __init__(self, ref):
            self.ks = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            odate = _ts_us(batch, "o_orderdate")
            keep_date = odate < Q3_DATE_US
            ck = batch["o_custkey"].to_pylist()
            keep = pa.array(
                [d and (k in self.ks) for d, k in zip(keep_date, ck)],
                pa.bool_(),
            )
            kept = batch.filter(keep)
            nrows = kept.num_rows
            return pa.table(
                {
                    "k": kept["o_orderkey"].cast(pa.int64()),
                    "rev_e4": pa.array(np.zeros(nrows, np.int64), pa.int64()),
                    "n_li": pa.array(np.zeros(nrows, np.int64), pa.int64()),
                    "qual": pa.array(np.ones(nrows, np.int64), pa.int64()),
                }
            )

    merge = group_sum_merge(("k",), ("rev_e4", "n_li", "qual"))

    def li_partial(batch: pa.Table) -> pa.Table:
        sdate = _ts_us(batch, "l_shipdate")
        kept = batch.filter(pa.array(sdate > Q3_DATE_US, pa.bool_()))
        cents = round_half_away(
            kept["l_extendedprice"]
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        disc = round_half_away(
            kept["l_discount"]
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        nrows = kept.num_rows
        return merge(
            pa.table(
                {
                    "k": kept["l_orderkey"].cast(pa.int64()),
                    "rev_e4": pa.array(cents * (100 - disc), pa.int64()),
                    "n_li": pa.array(np.ones(nrows, np.int64), pa.int64()),
                    "qual": pa.array(np.zeros(nrows, np.int64), pa.int64()),
                }
            )
        )

    unioned = orders.map_batches(
        QualOrders,
        fn_constructor_args=(keys_ref,),
        batch_format="pyarrow",
        concurrency=(1, 4),
    ).union(li.map_batches(li_partial, batch_format="pyarrow"))
    agg = unioned.groupby("k").aggregate(
        Sum("rev_e4", alias_name="rev_e4"),
        Sum("n_li", alias_name="n_li"),
        Sum("qual", alias_name="qual"),
    )

    def qualify(t: pa.Table) -> pa.Table:
        n_li = t["n_li"].to_numpy(zero_copy_only=False)
        qual = t["qual"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array((n_li > 0) & (qual > 0), pa.bool_())).select(
            ["k", "rev_e4"]
        )

    cut = topk_merge(Q3_K, "rev_e4", ["k"])
    winners = tree_combine(
        agg.map_batches(qualify, batch_format="pyarrow").map_batches(
            cut, batch_format="pyarrow"
        ),
        cut,
    ).take_all()

    empty = pa.table(
        {
            "l_orderkey": pa.array([], pa.int64()),
            "revenue": pa.array([], pa.float64()),
            "o_orderdate": pa.array([], pa.timestamp("us")),
            "o_orderpriority": pa.array([], pa.string()),
        }
    )
    if not winners:
        return rd.from_arrow(empty)
    wkeys = sorted(int(r["k"]) for r in winners)
    dim = pq.read_table(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filters=[("o_orderkey", "in", wkeys)],
    )
    dmap = {
        int(k): (d, p)
        for k, d, p in zip(
            dim["o_orderkey"].to_pylist(),
            dim["o_orderdate"].cast(pa.timestamp("us")).to_pylist(),
            dim["o_orderpriority"].to_pylist(),
        )
    }
    rows = sorted(
        ((int(r["rev_e4"]), int(r["k"])) for r in winners),
        key=lambda x: (-x[0], x[1]),
    )
    return rd.from_arrow(
        pa.table(
            {
                "l_orderkey": pa.array([k for _, k in rows], pa.int64()),
                "revenue": pa.array(
                    round_half_away(
                        np.array([r for r, _ in rows], np.float64) / 10000.0,
                        4,
                    ),
                    pa.float64(),
                ),
                "o_orderdate": pa.array(
                    [dmap[k][0] for _, k in rows], pa.timestamp("us")
                ),
                "o_orderpriority": pa.array(
                    [dmap[k][1] for _, k in rows], pa.string()
                ),
            }
        )
    )


def events_concurrent_sessions(sf_dir: str) -> Dataset:
    """PEAK CONCURRENCY (sweep-line over sessionized intervals): the
    maximum number of simultaneously-open 30-minute-gap sessions and the
    first microsecond it is reached — the capacity-planning number. The
    sweep is distributed segment-tree style: session boundaries (+1 at
    start, -1 at end, inclusive interval so starts sort before ends at
    an equal timestamp) bucket by hour; each bucket reduces to ONE
    summary row (delta total, max running prefix, first ts attaining
    it); the global scan then runs over hour-count-sized summaries in a
    single tiny ordered pass — identical to the full sort's answer
    because count(t) = bucket_offset + local_prefix(t)."""
    from ..stages.sessions import sessionize

    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "ts"])
    sessions = sessionize(ev, gap_minutes=30.0)

    def boundaries(t: pa.Table) -> pa.Table:
        start = (
            t["start_ts"].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        end = (
            t["end_ts"].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        ts = np.concatenate([start, end])
        d = np.concatenate(
            [np.ones(len(start), np.int64), -np.ones(len(end), np.int64)]
        )
        return pa.table(
            {
                "hb": pa.array(ts // _HOUR_US, pa.int64()),
                "t": pa.array(ts, pa.int64()),
                "d": pa.array(d, pa.int64()),
            }
        )

    def bucket_scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["t", "d"], ascending=[True, False]).reset_index(
            drop=True
        )
        run = g["d"].to_numpy(np.int64).cumsum()
        mx = int(run.max())
        first = int(np.argmax(run == mx))
        return pd.DataFrame(
            {
                "hb": [int(g["hb"].iloc[0])],
                "total": [int(run[-1])],
                "max_prefix": [mx],
                "ts_at_max": [int(g["t"].iloc[first])],
            }
        )

    summaries = (
        sessions.map_batches(boundaries, batch_format="pyarrow")
        .groupby("hb")
        .map_groups(bucket_scan, batch_format="pandas")
    )

    def add_g(t: pa.Table) -> pa.Table:
        return t.append_column(
            "g", pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
        )

    def global_scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("hb").reset_index(drop=True)
        offset = (
            g["total"].to_numpy(np.int64).cumsum()
            - g["total"].to_numpy(np.int64)
        )
        cand = offset + g["max_prefix"].to_numpy(np.int64)
        peak = int(cand.max())
        i = int(np.argmax(cand == peak))
        return pd.DataFrame(
            {
                "peak_concurrency": pd.Series([peak], dtype="int64"),
                "peak_ts_us": pd.Series(
                    [int(g["ts_at_max"].iloc[i])], dtype="int64"
                ),
            }
        )

    return (
        summaries.map_batches(add_g, batch_format="pyarrow")
        .groupby("g")
        .map_groups(global_scan, batch_format="pandas")
    )


# --- batch 24: sequence packing, TPC-H Q5 deep join, behavioral entropy ---

PACK_CAP = 4096  # tokens per packed bin (context-window budget)
PACK_BUCKET = 1024  # doc_ids per prefix-sum bucket


def doc_pack_bins(sf_dir: str) -> Dataset:
    """SEQUENCE PACKING (the LLM-training shard-builder): concatenate the
    corpus in doc_id order and assign each document to the PACK_CAP-token
    bin its first token lands in (concat-and-chunk packing); report per
    bin the doc count and token total. ONE tokenize pass reduces the
    corpus to fixed-width (doc_id, n_tokens) rows, materialized and
    reused; the global ordered prefix sum is the two-level
    events_cum_value scheme — doc_id-range bucket totals (bucket-count
    driver state only) plus per-bucket local cumsums — so no task ever
    sees more than one bucket and nothing corpus-sized collects. A bin
    spanning a bucket boundary is re-joined by the final bin-key sum."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        n = np.array(
            [
                len(_TOKEN_RE.findall(t or ""))
                for t in batch["text"].to_pylist()
            ],
            np.int64,
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
            }
        )

    compact = docs.map_batches(counts, batch_format="pyarrow").materialize()

    bmerge = group_sum_merge(("bk",), ("total",))

    def bucket_partial(batch: pa.Table) -> pa.Table:
        bk = batch["doc_id"].to_numpy(zero_copy_only=False) // PACK_BUCKET
        return bmerge(
            pa.table(
                {
                    "bk": pa.array(bk, pa.int64()),
                    "total": batch["n_tokens"],
                }
            )
        )

    totals = tree_combine(
        compact.map_batches(bucket_partial, batch_format="pyarrow"), bmerge
    ).take_all()
    if not totals:
        return rd.from_arrow(
            pa.table(
                {
                    "bin": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                    "total_tokens": pa.array([], pa.int64()),
                }
            )
        )
    totals.sort(key=lambda r: r["bk"])
    offsets: dict[int, int] = {}
    run = 0
    for r in totals:
        offsets[int(r["bk"])] = run
        run += int(r["total"])
    off_ref = ray.put(offsets)

    def add_bk(t: pa.Table) -> pa.Table:
        bk = t["doc_id"].to_numpy(zero_copy_only=False) // PACK_BUCKET
        return t.append_column("bk", pa.array(bk, pa.int64()))

    merge = group_sum_merge(("bin",), ("n_docs", "total_tokens"))

    class BinAssign:
        def __init__(self, ref):
            self.off = ray.get(ref)

        def __call__(self, g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values("doc_id").reset_index(drop=True)
            n = g["n_tokens"].to_numpy(np.int64)
            start = self.off[int(g["bk"].iloc[0])] + n.cumsum() - n
            df = pd.DataFrame({"bin": start // PACK_CAP, "n_tokens": n})
            out = (
                df.groupby("bin", sort=True)
                .agg(n_docs=("n_tokens", "size"), total_tokens=("n_tokens", "sum"))
                .reset_index()
            )
            return out

    binned = (
        compact.map_batches(add_bk, batch_format="pyarrow")
        .groupby("bk")
        .map_groups(
            BinAssign,
            fn_constructor_args=(off_ref,),
            batch_format="pandas",
            concurrency=(1, 4),
        )
    )
    return tree_combine(binned.map_batches(merge, batch_format="pyarrow"), merge)


Q5_REGION = "ASIA"
Q5_LO_US = 820_454_400_000_000  # 1996-01-01 epoch-µs
Q5_HI_US = 852_076_800_000_000  # 1997-01-01 epoch-µs


def revenue_by_nation_q5(sf_dir: str) -> Dataset:
    """TPC-H Q5 (local supplier volume): revenue per ASIA nation over one
    order year, counting only lineitems whose SUPPLIER sits in the
    CUSTOMER's nation. Two chained int-key cogroups, no row-level join
    engine: (1) date-filtered orders meet region-filtered customers in a
    custkey union+map_groups that stamps each order with its customer
    nation (groups are per-customer, bounded by one customer's orders);
    (2) those stamped orders meet supplier-nation-stamped lineitem
    revenue partials in an orderkey+nation groupby — the Q5 equality
    s_nationkey = c_nationkey becomes KEY COINCIDENCE: a (k, nation)
    group sums revenue only when both the order marker and lineitem
    partials landed on the same nation. Region/nation/supplier→nation
    are broadcast dimensions (supplier_scorecard's rule); revenue is
    exact int ten-thousandths end to end."""
    nation = pq.read_table(
        _p(sf_dir, "nation"), columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    region = pq.read_table(
        _p(sf_dir, "region"), columns=["r_regionkey", "r_name"]
    )
    rkeys = {
        int(k)
        for k, nm in zip(
            region["r_regionkey"].to_pylist(), region["r_name"].to_pylist()
        )
        if nm == Q5_REGION
    }
    nat_keys = [
        int(k)
        for k, rk in zip(
            nation["n_nationkey"].to_pylist(),
            nation["n_regionkey"].to_pylist(),
        )
        if int(rk) in rkeys
    ]
    nat_names = dict(
        zip(
            (int(k) for k in nation["n_nationkey"].to_pylist()),
            nation["n_name"].to_pylist(),
        )
    )
    asia = frozenset(nat_keys)
    supp = pq.read_table(
        _p(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    sk = supp["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order_idx = np.argsort(sk)
    sk = sk[order_idx]
    snat = (
        supp["s_nationkey"]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)[order_idx]
    )
    dims_ref = ray.put((asia, sk, snat))

    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    cust = read_parquet_clean(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    )
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    # stage 1: stamp each in-window order with its customer's nation
    def order_rows(batch: pa.Table) -> pa.Table:
        odate = _ts_us(batch, "o_orderdate")
        kept = batch.filter(
            pa.array((odate >= Q5_LO_US) & (odate < Q5_HI_US), pa.bool_())
        )
        return pa.table(
            {
                "ck": kept["o_custkey"].cast(pa.int64()),
                "k": kept["o_orderkey"].cast(pa.int64()),
                "nat": pa.array(np.full(kept.num_rows, -1, np.int64), pa.int64()),
            }
        )

    class CustRows:
        def __init__(self, ref):
            self.asia = ray.get(ref)[0]

        def __call__(self, batch: pa.Table) -> pa.Table:
            nk = batch["c_nationkey"].to_numpy(zero_copy_only=False)
            keep = pa.array([int(x) in self.asia for x in nk], pa.bool_())
            kept = batch.filter(keep)
            return pa.table(
                {
                    "ck": kept["c_custkey"].cast(pa.int64()),
                    "k": pa.array(np.full(kept.num_rows, -1, np.int64), pa.int64()),
                    "nat": kept["c_nationkey"].cast(pa.int64()),
                }
            )

    def stamp(g: pd.DataFrame) -> pd.DataFrame:
        nat = g.loc[g["k"] < 0, "nat"]
        if nat.empty:
            return pd.DataFrame({"k": pd.Series([], dtype="int64"),
                                 "nat": pd.Series([], dtype="int64")})
        ods = g.loc[g["k"] >= 0, "k"]
        return pd.DataFrame(
            {"k": ods.to_numpy(np.int64),
             "nat": np.full(len(ods), int(nat.iloc[0]), np.int64)}
        )

    stamped = (
        orders.map_batches(order_rows, batch_format="pyarrow")
        .union(
            cust.map_batches(
                CustRows,
                fn_constructor_args=(dims_ref,),
                batch_format="pyarrow",
                concurrency=(1, 4),
            )
        )
        .groupby("ck")
        .map_groups(stamp, batch_format="pandas")
    )

    def order_markers(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t["k"],
                "nat": t["nat"],
                "rev_e4": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                "n_li": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                "is_order": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
            }
        )

    kmerge = group_sum_merge(("k", "nat"), ("rev_e4", "n_li", "is_order"))

    class LiPartial:
        def __init__(self, ref):
            self.asia, self.sk, self.snat = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            suppk = (
                batch["l_suppkey"].to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            if len(self.sk) == 0:
                mask = np.zeros(len(suppk), np.bool_)
                nat = np.full(len(suppk), -1, np.int64)
            else:
                idx = np.clip(
                    np.searchsorted(self.sk, suppk), 0, len(self.sk) - 1
                )
                nat = self.snat[idx]
                in_asia = np.array(
                    [int(x) in self.asia for x in nat], np.bool_
                )
                mask = (self.sk[idx] == suppk) & in_asia
            kept = batch.filter(pa.array(mask, pa.bool_()))
            knat = nat[mask]
            cents = round_half_away(
                kept["l_extendedprice"]
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
                * 100.0,
                0,
            ).astype(np.int64)
            disc = round_half_away(
                kept["l_discount"]
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
                * 100.0,
                0,
            ).astype(np.int64)
            return kmerge(
                pa.table(
                    {
                        "k": kept["l_orderkey"].cast(pa.int64()),
                        "nat": pa.array(knat, pa.int64()),
                        "rev_e4": pa.array(cents * (100 - disc), pa.int64()),
                        "n_li": pa.array(
                            np.ones(kept.num_rows, np.int64), pa.int64()
                        ),
                        "is_order": pa.array(
                            np.zeros(kept.num_rows, np.int64), pa.int64()
                        ),
                    }
                )
            )

    cogrouped = (
        stamped.map_batches(order_markers, batch_format="pyarrow")
        .union(
            li.map_batches(
                LiPartial,
                fn_constructor_args=(dims_ref,),
                batch_format="pyarrow",
                concurrency=(1, 4),
            )
        )
        .groupby(["k", "nat"])
        .aggregate(
            Sum("rev_e4", alias_name="rev_e4"),
            Sum("n_li", alias_name="n_li"),
            Sum("is_order", alias_name="is_order"),
        )
    )

    nmerge = group_sum_merge(("nat",), ("rev_e4",))

    def nation_partial(t: pa.Table) -> pa.Table:
        n_li = t["n_li"].to_numpy(zero_copy_only=False)
        is_o = t["is_order"].to_numpy(zero_copy_only=False)
        kept = t.filter(pa.array((n_li > 0) & (is_o > 0), pa.bool_()))
        return nmerge(kept.select(["nat", "rev_e4"]))

    per_nation = tree_combine(
        cogrouped.map_batches(nation_partial, batch_format="pyarrow"), nmerge
    )

    def finish(t: pa.Table, names=nat_names) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "nation": pa.array([], pa.string()),
                    "revenue": pa.array([], pa.float64()),
                }
            )
        df = t.to_pandas()
        df["nation"] = df["nat"].map(lambda k: names.get(int(k), ""))
        df = df.sort_values("nation").reset_index(drop=True)
        return pa.table(
            {
                "nation": pa.array(df["nation"], pa.string()),
                "revenue": pa.array(
                    round_half_away(
                        df["rev_e4"].to_numpy(np.float64) / 10000.0, 4
                    ),
                    pa.float64(),
                ),
            }
        )

    return per_nation.map_batches(finish, batch_size=None, batch_format="pyarrow")


ENTROPY_TYPES = ("click", "error", "purchase", "signup", "view")
ENTROPY_K = 10


def events_user_entropy_topk(sf_dir: str) -> Dataset:
    """BEHAVIORAL ENTROPY (engagement-diversity ranking): the 10 users
    whose event-type mix has the highest Shannon entropy. Map-side
    per-user indicator partials (one int column per known type) meet in
    ONE user-key groupby; the per-row entropy is then embarrassingly
    vectorized. Float parity: the five -p·ln(p) contributions are
    SUBTRACTED in the fixed type order on both sides (no group-ordered
    float sum), zero-count types contribute an exact 0, and the top-10
    cut orders by the 4-dp ROUNDED entropy with user_id tiebreak."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type"]
    )
    cols = tuple(f"n_{t}" for t in ENTROPY_TYPES) + ("n_events",)
    merge = group_sum_merge(("user_id",), cols)

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        data = {"user_id": batch["user_id"].cast(pa.int64())}
        for t in ENTROPY_TYPES:
            data[f"n_{t}"] = pa.array((et == t).astype(np.int64), pa.int64())
        data["n_events"] = pa.array(np.ones(len(et), np.int64), pa.int64())
        return merge(pa.table(data))

    census = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(*[Sum(c, alias_name=c) for c in cols])
    )

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "entropy": pa.array([], pa.float64()),
                }
            )
        tot = t["n_events"].to_numpy(zero_copy_only=False).astype(np.float64)
        ent = np.zeros(len(tot), np.float64)
        # mirror the oracle: 0.0 - c_click - c_error - ... in fixed order
        for ty in ENTROPY_TYPES:
            n = t[f"n_{ty}"].to_numpy(zero_copy_only=False).astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                c = np.where(n > 0, (n / tot) * np.log(n / tot), 0.0)
            ent = ent - c
        return pa.table(
            {
                "user_id": t["user_id"],
                "n_events": t["n_events"],
                "entropy": pa.array(round_half_away(ent, 4), pa.float64()),
            }
        )

    cut = topk_merge(ENTROPY_K, "entropy", ["user_id"])
    return tree_combine(
        census.map_batches(score, batch_format="pyarrow").map_batches(
            cut, batch_format="pyarrow"
        ),
        cut,
    )


# --------------------------------------------- batch 25: Q14 / Q18 / Markov
Q14_LO_US = 820_454_400_000_000  # 1996-01-01 epoch-µs
Q14_HI_US = 852_076_800_000_000  # 1997-01-01 epoch-µs
Q18_QTY_E2_MIN = 30_000  # sum(l_quantity) > 300, in exact hundredths
Q18_K = 20


def lineitem_promo_share_q14(sf_dir: str) -> Dataset:
    """TPC-H Q14 (promotion effect) over the 1996 ship year: the share of
    lineitem revenue attributable to PROMO-type parts. The part dimension
    is corpus-scale at 100 TB, so it is NOT broadcast: part rows (partkey,
    promo flag) and in-window map-side revenue partials meet in ONE
    partkey union+groupby cogroup (``Sum`` over the revenue partials,
    ``Max`` over the flag — part rows carry 0/1, lineitem rows carry -1,
    so the max IS the part's flag and a -1 survivor marks an orphan key).
    The two global scalars then tree-combine as one fixed-width row.
    Float parity: revenue is exact int ten-thousandths end to end; the
    three outputs are each ONE IEEE division of exact ints (promo_e4·100
    stays < 2^53), shipped UNROUNDED per the NOTES.md exact-arithmetic
    rule."""
    part = read_parquet_clean(
        _p(sf_dir, "part"), columns=["p_partkey", "p_type"]
    )
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def part_rows(batch: pa.Table) -> pa.Table:
        promo = pc.starts_with(batch["p_type"], "PROMO")
        return pa.table(
            {
                "k": batch["p_partkey"].cast(pa.int64()),
                "rev_e4": pa.array(
                    np.zeros(batch.num_rows, np.int64), pa.int64()
                ),
                "flag": pc.cast(promo, pa.int64()),
            }
        )

    merge = group_sum_merge(("k",), ("rev_e4",))

    def li_partial(batch: pa.Table) -> pa.Table:
        sdate = _ts_us(batch, "l_shipdate")
        kept = batch.filter(
            pa.array((sdate >= Q14_LO_US) & (sdate < Q14_HI_US), pa.bool_())
        )
        cents = round_half_away(
            kept["l_extendedprice"]
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        disc = round_half_away(
            kept["l_discount"]
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        t = merge(
            pa.table(
                {
                    "k": kept["l_partkey"].cast(pa.int64()),
                    "rev_e4": pa.array(cents * (100 - disc), pa.int64()),
                }
            )
        )
        return t.append_column(
            "flag", pa.array(np.full(t.num_rows, -1, np.int64), pa.int64())
        )

    cogrouped = (
        part.map_batches(part_rows, batch_format="pyarrow")
        .union(li.map_batches(li_partial, batch_format="pyarrow"))
        .groupby("k")
        .aggregate(
            Sum("rev_e4", alias_name="rev_e4"),
            Max("flag", alias_name="flag"),
        )
    )

    def smerge(t: pa.Table) -> pa.Table:
        # keyless scalar merge (TableGroupBy needs >=1 key): one row out
        if t.num_rows == 0:
            return t
        return pa.table(
            {
                "promo_e4": pa.array(
                    [int(pc.sum(t["promo_e4"]).as_py() or 0)], pa.int64()
                ),
                "tot_e4": pa.array(
                    [int(pc.sum(t["tot_e4"]).as_py() or 0)], pa.int64()
                ),
            }
        )

    def scalar_partial(t: pa.Table) -> pa.Table:
        rev = t["rev_e4"].to_numpy(zero_copy_only=False)
        flag = t["flag"].to_numpy(zero_copy_only=False)
        in_dim = flag >= 0  # orphan partkeys (no part row) never count
        return pa.table(
            {
                "promo_e4": pa.array(
                    [int(rev[in_dim & (flag == 1)].sum())], pa.int64()
                ),
                "tot_e4": pa.array([int(rev[in_dim].sum())], pa.int64()),
            }
        )

    totals = tree_combine(
        cogrouped.map_batches(scalar_partial, batch_format="pyarrow"), smerge
    )

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "promo_revenue": pa.array([], pa.float64()),
                "total_revenue": pa.array([], pa.float64()),
                "promo_share": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        promo = int(t["promo_e4"][0].as_py())
        tot = int(t["tot_e4"][0].as_py())
        if tot <= 0:
            return empty
        return pa.table(
            {
                "promo_revenue": pa.array([promo / 10000.0], pa.float64()),
                "total_revenue": pa.array([tot / 10000.0], pa.float64()),
                "promo_share": pa.array(
                    [float(promo * 100) / float(tot)], pa.float64()
                ),
            }
        )

    return totals.map_batches(finish, batch_size=None, batch_format="pyarrow")


def orders_large_volume_q18(sf_dir: str) -> Dataset:
    """TPC-H Q18 (large-volume customers): the top-20 orders whose total
    lineitem quantity exceeds 300 units. The HAVING-on-the-fact-side
    shape: ONE orderkey groupby over map-side exact-hundredths quantity
    partials, a post-aggregate filter (the having threshold makes winners
    a vanishing fraction), then the associative (qty DESC, orderkey ASC)
    top-20 merge — so nothing order-count-sized ever sorts globally. The
    o_custkey / o_orderdate / o_totalprice attach for the ≤20 winners is
    a targeted row-group-pruned parquet read (the Q3 precedent), never a
    dimension shuffle. o_totalprice passes through untouched (bit-equal
    both sides); total_qty is one exact-int division."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_orderkey", "l_quantity"]
    )
    merge = group_sum_merge(("k",), ("qty_e2",))

    def li_partial(batch: pa.Table) -> pa.Table:
        qty = round_half_away(
            batch["l_quantity"]
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        return merge(
            pa.table(
                {
                    "k": batch["l_orderkey"].cast(pa.int64()),
                    "qty_e2": pa.array(qty, pa.int64()),
                }
            )
        )

    agg = (
        li.map_batches(li_partial, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum("qty_e2", alias_name="qty_e2"))
    )

    def having(t: pa.Table) -> pa.Table:
        q = t["qty_e2"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(q > Q18_QTY_E2_MIN, pa.bool_())).select(
            ["k", "qty_e2"]
        )

    cut = topk_merge(Q18_K, "qty_e2", ["k"])
    winners = tree_combine(
        agg.map_batches(having, batch_format="pyarrow").map_batches(
            cut, batch_format="pyarrow"
        ),
        cut,
    ).take_all()

    empty = pa.table(
        {
            "o_orderkey": pa.array([], pa.int64()),
            "o_custkey": pa.array([], pa.int64()),
            "o_orderdate": pa.array([], pa.timestamp("us")),
            "o_totalprice": pa.array([], pa.float64()),
            "total_qty": pa.array([], pa.float64()),
        }
    )
    if not winners:
        return rd.from_arrow(empty)
    wkeys = sorted(int(r["k"]) for r in winners)
    dim = pq.read_table(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
        filters=[("o_orderkey", "in", wkeys)],
    )
    dmap = {
        int(k): (int(c), d, float(p))
        for k, c, d, p in zip(
            dim["o_orderkey"].to_pylist(),
            dim["o_custkey"].to_pylist(),
            dim["o_orderdate"].cast(pa.timestamp("us")).to_pylist(),
            dim["o_totalprice"].to_pylist(),
        )
    }
    rows = sorted(
        ((int(r["qty_e2"]), int(r["k"])) for r in winners),
        key=lambda x: (-x[0], x[1]),
    )
    return rd.from_arrow(
        pa.table(
            {
                "o_orderkey": pa.array([k for _, k in rows], pa.int64()),
                "o_custkey": pa.array(
                    [dmap[k][0] for _, k in rows], pa.int64()
                ),
                "o_orderdate": pa.array(
                    [dmap[k][1] for _, k in rows], pa.timestamp("us")
                ),
                "o_totalprice": pa.array(
                    [dmap[k][2] for _, k in rows], pa.float64()
                ),
                "total_qty": pa.array(
                    [q / 100.0 for q, _ in rows], pa.float64()
                ),
            }
        )
    )


MARKOV_ITERS = 12


def events_markov_stationary(sf_dir: str) -> Dataset:
    """STATIONARY DISTRIBUTION of the event-type Markov chain: where a
    user's behavior settles if the observed transition matrix keeps
    acting. The corpus-scale work is exactly the transition census
    (``events_type_transitions`` — one int-key bucket shuffle, #type²
    output); the chain itself is a closed 5×5 row-stochastic matrix, so
    the 12-step power iteration is driver math over ≤25 collected rows.
    Float parity with the unrolled-CTE oracle: P entries are ONE int/int
    IEEE division each; every iteration accumulates the 5 contributions
    in FIXED type order with left-associated adds (the SQL `a*b + c*d +
    ...` chain); never-seen prev types take an identity self-loop so the
    matrix stays stochastic on both sides. Empty event log → 0 rows."""
    trans = events_type_transitions(sf_dir).take_all()
    if not trans:
        return rd.from_arrow(
            pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "stationary": pa.array([], pa.float64()),
                }
            )
        )
    types = ENTROPY_TYPES  # the closed alphabetical event-type set
    n = {
        (r["prev_type"], r["next_type"]): int(r["n"])
        for r in trans
        if r["prev_type"] in types and r["next_type"] in types
    }
    prob: dict[tuple[str, str], float] = {}
    for i in types:
        tot = 0
        for j in types:
            tot += n.get((i, j), 0)
        for j in types:
            if tot == 0:
                prob[(i, j)] = 1.0 if i == j else 0.0
            else:
                prob[(i, j)] = n.get((i, j), 0) / tot
    v = {t: 0.2 for t in types}
    for _ in range(MARKOV_ITERS):
        nxt = {}
        for j in types:
            acc = v[types[0]] * prob[(types[0], j)]
            for i in types[1:]:
                acc = acc + v[i] * prob[(i, j)]
            nxt[j] = acc
        v = nxt
    return rd.from_arrow(
        pa.table(
            {
                "event_type": pa.array(list(types), pa.string()),
                "stationary": pa.array(
                    round_half_away(
                        np.array([v[t] for t in types], np.float64), 4
                    ),
                    pa.float64(),
                ),
            }
        )
    )


# ------------------------------------ batch 26: readability / dup clusters
_FLESCH_WORD_RE = re.compile(r"[A-Za-z]+")
_FLESCH_SENT_RE = re.compile(r"[.!?]+")
_FLESCH_VOWEL_RE = re.compile(r"[AEIOUaeiou]+")


def doc_readability(sf_dir: str) -> Dataset:
    """Flesch-style reading-ease score per document from three exact
    counts — alpha words, sentence-ending punctuation runs, and vowel
    groups (the standard syllable proxy). Pure map, no shuffle. Float
    parity: the counts are exact ints; the score is the fixed chain
    206.835 − 1.015·(w/max(s,1)) − 84.6·(sy/w) — two int/int IEEE
    divisions and left-associated subtractions, mirrored verbatim in the
    oracle; w = 0 yields NULL on both sides."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        n_w, n_s, n_sy, fl = [], [], [], []
        for t in batch["text"].to_pylist():
            t = t or ""
            w = len(_FLESCH_WORD_RE.findall(t))
            s = len(_FLESCH_SENT_RE.findall(t))
            sy = len(_FLESCH_VOWEL_RE.findall(t))
            n_w.append(w)
            n_s.append(s)
            n_sy.append(sy)
            if w == 0:
                fl.append(None)
            else:
                fl.append(
                    float(
                        round_half_away(
                            206.835 - 1.015 * (w / max(s, 1)) - 84.6 * (sy / w),
                            4,
                        )
                    )
                )
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "n_words": pa.array(n_w, pa.int64()),
                "n_sentences": pa.array(n_s, pa.int64()),
                "n_syllables": pa.array(n_sy, pa.int64()),
                "flesch": pa.array(fl, pa.float64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def doc_jaccard_clusters(sf_dir: str) -> Dataset:
    """Near-duplicate CLUSTER SIZES: connected components over the
    exact-verified 3-gram Jaccard pair graph (``doc_ngram_jaccard_pairs``)
    → one row per multi-document cluster (label = min member id). The
    curation diagnostic that tells you whether near-dups come as pairs or
    as giant template families — the histogram the survivor-picker's cost
    model needs. Composition of two oracled parts: the banded pair
    generation (id-only band rows, capped blocks) feeds the size-adaptive
    union-find / min-label-propagation CC machinery; the node universe is
    the paired ids only (pair-count-bounded, far below the corpus)."""
    from ..stages.canonicalize import connected_components
    from ..stages.dedup import _id_key, ngram_jaccard_pairs

    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def as_keys(t: pa.Table) -> pa.Table:
        # zero-padded id strings: the union-find's lexicographic-min
        # label IS the numeric-min doc_id (the dedup-stage convention)
        return pa.table(
            {
                "a": pa.array(
                    [_id_key(v) for v in t["a"].to_pylist()], pa.string()
                ),
                "b": pa.array(
                    [_id_key(v) for v in t["b"].to_pylist()], pa.string()
                ),
            }
        )

    pairs = (
        ngram_jaccard_pairs(docs, threshold=0.8)
        .map_batches(as_keys, batch_format="pyarrow")
        .materialize()
    )
    nmerge = group_sum_merge(("node",), ("one",))

    def node_rows(t: pa.Table) -> pa.Table:
        return nmerge(
            pa.table(
                {
                    "node": pa.concat_arrays(
                        [t["a"].combine_chunks(), t["b"].combine_chunks()]
                    ),
                    "one": pa.array(np.ones(2 * t.num_rows, np.int64)),
                }
            )
        )

    nodes = tree_combine(
        pairs.map_batches(node_rows, batch_format="pyarrow"), nmerge
    ).select_columns(["node"])
    cc = connected_components(pairs, nodes)
    sizes = (
        cc.map_batches(
            lambda t: pa.table(
                {
                    "cluster_id": pa.array(
                        [int(v) for v in t["label"].to_pylist()], pa.int64()
                    ),
                    "n_docs": pa.array(np.ones(t.num_rows, np.int64)),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("cluster_id")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )
    return sizes.sort("cluster_id")


# --------------------------- batch 27: keyness / Q10 / edge reciprocity
KEYNESS_SOURCE = "src0"
KEYNESS_K = 50
Q10_LO_US = 820_454_400_000_000  # 1996-01-01 epoch-µs
Q10_HI_US = 828_316_800_000_000  # 1996-04-01 epoch-µs
Q10_K = 20


def corpus_keyness_g2(sf_dir: str) -> Dataset:
    """DUNNING LOG-LIKELIHOOD KEYNESS (G²): the 50 tokens whose frequency
    most distinguishes one source from the rest of the corpus — the
    corpus-linguistics contrast statistic behind "characteristic
    vocabulary" reports. ONE (token → in-target / in-rest) census
    shuffle (map-side partials, vocabulary-sized), the two global totals
    tree-combine as one fixed-width row, then the G² scoring pass is
    embarrassingly vectorized. Float parity: expected counts use the
    shape CAST(Nt AS DOUBLE)·(a+b)/(Nt+Nr) — double·int then ONE
    division, never a giant int product (int64-overflow-safe at corpus
    scale); zero cells contribute an exact 0; both ln-term adds run in
    fixed (target, rest) order; the top-50 cut orders by the 4-dp
    ROUNDED score with token tiebreak."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["source", "text"]
    )
    merge = group_sum_merge(("token",), ("n_target", "n_rest"))

    def partial(batch: pa.Table) -> pa.Table:
        ct: Counter = Counter()
        cr: Counter = Counter()
        for src, txt in zip(
            batch["source"].to_pylist(), batch["text"].to_pylist()
        ):
            c = ct if src == KEYNESS_SOURCE else cr
            for tok in _TOKEN_RE.findall(txt or ""):
                c[tok] += 1
        toks = sorted(set(ct) | set(cr))
        return pa.table(
            {
                "token": pa.array(toks, pa.string()),
                "n_target": pa.array([ct.get(t, 0) for t in toks], pa.int64()),
                "n_rest": pa.array([cr.get(t, 0) for t in toks], pa.int64()),
            }
        )

    census = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(
            Sum("n_target", alias_name="n_target"),
            Sum("n_rest", alias_name="n_rest"),
        )
        .materialize()
    )

    def tot_partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "nt": pa.array(
                    [int(pc.sum(t["n_target"]).as_py() or 0)], pa.int64()
                ),
                "nr": pa.array(
                    [int(pc.sum(t["n_rest"]).as_py() or 0)], pa.int64()
                ),
            }
        )

    def tot_merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return pa.table(
            {
                c: pa.array([int(pc.sum(t[c]).as_py() or 0)], pa.int64())
                for c in ("nt", "nr")
            }
        )

    tot = tree_combine(
        census.map_batches(tot_partial, batch_format="pyarrow"), tot_merge
    ).take_all()
    nt = int(tot[0]["nt"]) if tot else 0
    nr = int(tot[0]["nr"]) if tot else 0
    if nt + nr == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "n_target": pa.array([], pa.int64()),
                    "n_rest": pa.array([], pa.int64()),
                    "g2": pa.array([], pa.float64()),
                }
            )
        )

    def score(t: pa.Table, nt=nt, nr=nr) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "n_target": pa.array([], pa.int64()),
                    "n_rest": pa.array([], pa.int64()),
                    "g2": pa.array([], pa.float64()),
                }
            )
        a = t["n_target"].to_numpy(zero_copy_only=False).astype(np.float64)
        b = t["n_rest"].to_numpy(zero_copy_only=False).astype(np.float64)
        tot_f = (
            (
                t["n_target"].to_numpy(zero_copy_only=False)
                + t["n_rest"].to_numpy(zero_copy_only=False)
            ).astype(np.float64)
        )
        n = nt + nr
        ea = float(nt) * tot_f / n
        eb = float(nr) * tot_f / n
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = np.where(a > 0, a * np.log(a / ea), 0.0)
            tb = np.where(b > 0, b * np.log(b / eb), 0.0)
        g2 = round_half_away(2.0 * (ta + tb), 4)
        return pa.table(
            {
                "token": t["token"],
                "n_target": t["n_target"],
                "n_rest": t["n_rest"],
                "g2": pa.array(g2, pa.float64()),
            }
        )

    cut = topk_merge(KEYNESS_K, "g2", ["token"])
    return tree_combine(
        census.map_batches(score, batch_format="pyarrow").map_batches(
            cut, batch_format="pyarrow"
        ),
        cut,
    )


def orders_returned_q10(sf_dir: str) -> Dataset:
    """TPC-H Q10 (returned-item reporting): the top-20 customers by exact
    revenue of RETURNED lineitems against orders placed in 1996-Q1. The
    three-table chain is two int-key stages, no row-level join engine:
    in-window orders carry their custkey as a marker into ONE orderkey
    cogroup with the R-flag revenue partials (``Max`` picks the marker,
    li rows carry -1 — the Q14 flag rule), the surviving (custkey,
    rev_e4) rows then meet in ONE custkey groupby, the top-20 cut is the
    associative (rev DESC, custkey ASC) merge, and the name/nation/
    balance attach for the ≤20 winners is a targeted row-group-pruned
    customer read (the Q3/Q18 precedent)."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    )

    def order_rows(batch: pa.Table) -> pa.Table:
        odate = _ts_us(batch, "o_orderdate")
        kept = batch.filter(
            pa.array((odate >= Q10_LO_US) & (odate < Q10_HI_US), pa.bool_())
        )
        return pa.table(
            {
                "k": kept["o_orderkey"].cast(pa.int64()),
                "ck": kept["o_custkey"].cast(pa.int64()),
                "rev_e4": pa.array(np.zeros(kept.num_rows, np.int64)),
                "n_li": pa.array(np.zeros(kept.num_rows, np.int64)),
            }
        )

    merge = group_sum_merge(("k",), ("rev_e4", "n_li"))

    def li_partial(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        cents = round_half_away(
            kept["l_extendedprice"]
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        disc = round_half_away(
            kept["l_discount"]
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        t = merge(
            pa.table(
                {
                    "k": kept["l_orderkey"].cast(pa.int64()),
                    "rev_e4": pa.array(cents * (100 - disc), pa.int64()),
                    "n_li": pa.array(np.ones(kept.num_rows, np.int64)),
                }
            )
        )
        return t.append_column(
            "ck", pa.array(np.full(t.num_rows, -1, np.int64), pa.int64())
        ).select(["k", "ck", "rev_e4", "n_li"])  # match order_rows' layout

    cogrouped = (
        orders.map_batches(order_rows, batch_format="pyarrow")
        .union(li.map_batches(li_partial, batch_format="pyarrow"))
        .groupby("k")
        .aggregate(
            Sum("rev_e4", alias_name="rev_e4"),
            Sum("n_li", alias_name="n_li"),
            Max("ck", alias_name="ck"),
        )
    )
    cmerge = group_sum_merge(("ck",), ("rev_e4",))

    def cust_partial(t: pa.Table) -> pa.Table:
        ck = t["ck"].to_numpy(zero_copy_only=False)
        n_li = t["n_li"].to_numpy(zero_copy_only=False)
        kept = t.filter(pa.array((ck >= 0) & (n_li > 0), pa.bool_()))
        return cmerge(kept.select(["ck", "rev_e4"]))

    per_cust = (
        cogrouped.map_batches(cust_partial, batch_format="pyarrow")
        .groupby("ck")
        .aggregate(Sum("rev_e4", alias_name="rev_e4"))
    )
    cut = topk_merge(Q10_K, "rev_e4", ["ck"])
    winners = tree_combine(per_cust.map_batches(cut, batch_format="pyarrow"), cut).take_all()

    empty = pa.table(
        {
            "c_custkey": pa.array([], pa.int64()),
            "c_name": pa.array([], pa.string()),
            "c_nationkey": pa.array([], pa.int64()),
            "c_acctbal": pa.array([], pa.float64()),
            "revenue": pa.array([], pa.float64()),
        }
    )
    if not winners:
        return rd.from_arrow(empty)
    wkeys = sorted(int(r["ck"]) for r in winners)
    dim = pq.read_table(
        _p(sf_dir, "customer"),
        columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"],
        filters=[("c_custkey", "in", wkeys)],
    )
    dmap = {
        int(k): (nm, int(nk), float(ab))
        for k, nm, nk, ab in zip(
            dim["c_custkey"].to_pylist(),
            dim["c_name"].to_pylist(),
            dim["c_nationkey"].to_pylist(),
            dim["c_acctbal"].to_pylist(),
        )
    }
    rows = sorted(
        ((int(r["rev_e4"]), int(r["ck"])) for r in winners),
        key=lambda x: (-x[0], x[1]),
    )
    return rd.from_arrow(
        pa.table(
            {
                "c_custkey": pa.array([k for _, k in rows], pa.int64()),
                "c_name": pa.array([dmap[k][0] for _, k in rows], pa.string()),
                "c_nationkey": pa.array(
                    [dmap[k][1] for _, k in rows], pa.int64()
                ),
                "c_acctbal": pa.array(
                    [dmap[k][2] for _, k in rows], pa.float64()
                ),
                "revenue": pa.array(
                    round_half_away(
                        np.array([r for r, _ in rows], np.float64) / 10000.0,
                        4,
                    ),
                    pa.float64(),
                ),
            }
        )
    )


# -------------------------- batch 28: EWMA / Q7 / first-occurrence novelty
EWMA_ALPHA = 0.3
Q7_NATIONS = ("NATION_11", "NATION_12")
Q7_LO_US = 820_454_400_000_000  # 1996-01-01 epoch-µs
Q7_HI_US = 883_526_400_000_000  # 1998-01-01 epoch-µs


def events_hourly_ewma(sf_dir: str) -> Dataset:
    """EXPONENTIAL SMOOTHING (EWMA, α = 0.3) over the hourly event-count
    series — the classic monitoring baseline the MASE/changepoint ops
    compare against. The corpus-scale work is ONE hour-key census
    (map-side partials, hour-count-sized output — the time domain bounds
    it regardless of corpus size, the events_sliding_hourly argument);
    the recurrence s_t = α·x_t + (1−α)·s_{t−1} then runs over OBSERVED
    hours ascending inside the final single combine block. Float parity:
    both sides evaluate the identical α·x + (1−α)·s chain in time order
    (DuckDB mirrors with a row-number recursive CTE), s_1 = x_1 exactly,
    4-dp round at output only."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["ts"])
    HOUR = 3_600_000_000

    def partial(batch: pa.Table) -> pa.Table:
        micros = _ts_us(batch)
        slot = micros // HOUR * HOUR
        uniq, counts = np.unique(slot, return_counts=True)
        return pa.table(
            {
                "hour_us": pa.array(uniq, pa.int64()),
                "n_events": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    merge = group_sum_merge(("hour_us",), ("n_events",))
    census = tree_combine(ev.map_batches(partial, batch_format="pyarrow"), merge)

    def smooth(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "hour": pa.array([], pa.timestamp("us")),
                    "n_events": pa.array([], pa.int64()),
                    "ewma": pa.array([], pa.float64()),
                }
            )
        hrs = t["hour_us"].to_numpy(zero_copy_only=False)
        ns = t["n_events"].to_numpy(zero_copy_only=False)
        order = np.argsort(hrs)
        hrs, ns = hrs[order], ns[order]
        out = np.empty(len(ns), np.float64)
        s = float(ns[0])
        out[0] = s
        for i in range(1, len(ns)):
            # literal 0.3 / 0.7 on BOTH sides (don't derive 1 - α at
            # runtime; the oracle uses the same two literals)
            s = 0.3 * ns[i] + 0.7 * s
            out[i] = s
        return pa.table(
            {
                "hour": pa.array(
                    hrs.view("datetime64[us]"), pa.timestamp("us")
                ),
                "n_events": pa.array(ns, pa.int64()),
                "ewma": pa.array(round_half_away(out, 4), pa.float64()),
            }
        )

    return census.map_batches(smooth, batch_size=None, batch_format="pyarrow")


def revenue_two_nation_q7(sf_dir: str) -> Dataset:
    """TPC-H Q7 (volume shipping): revenue flowing between two named
    nations per ship year, split by (supplier nation, customer nation)
    direction. Two chained int-key stages (the Q5 scaffolding, but the
    nation PAIR survives instead of collapsing to a key equality):
    region-free customer rows in either nation meet orders in a custkey
    union+map_groups that stamps orders with the customer nation; the
    stamped markers then meet supplier-nation/year revenue partials in an
    orderkey groupby whose per-order group (bounded by one order's
    lineitems) emits the (supp_nation, cust_nation, year) pair rows when
    the two nations differ. Supplier→nation broadcasts once as sorted
    arrays (the Q5 rule); revenue is exact int ten-thousandths."""
    nation = pq.read_table(
        _p(sf_dir, "nation"), columns=["n_nationkey", "n_name"]
    )
    name_of = dict(
        zip(
            (int(k) for k in nation["n_nationkey"].to_pylist()),
            nation["n_name"].to_pylist(),
        )
    )
    nkeys = frozenset(
        k for k, nm in name_of.items() if nm in Q7_NATIONS
    )
    supp = pq.read_table(
        _p(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    sk = supp["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    order_idx = np.argsort(sk)
    sk = sk[order_idx]
    snat = (
        supp["s_nationkey"]
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)[order_idx]
    )
    dims_ref = ray.put((nkeys, sk, snat))

    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"]
    )
    cust = read_parquet_clean(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    )
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )

    def order_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "ck": batch["o_custkey"].cast(pa.int64()),
                "k": batch["o_orderkey"].cast(pa.int64()),
                "nat": pa.array(np.full(batch.num_rows, -1, np.int64)),
            }
        )

    class CustRows:
        def __init__(self, ref):
            self.nkeys = ray.get(ref)[0]

        def __call__(self, batch: pa.Table) -> pa.Table:
            nk = batch["c_nationkey"].to_numpy(zero_copy_only=False)
            keep = pa.array([int(x) in self.nkeys for x in nk], pa.bool_())
            kept = batch.filter(keep)
            return pa.table(
                {
                    "ck": kept["c_custkey"].cast(pa.int64()),
                    "k": pa.array(np.full(kept.num_rows, -1, np.int64)),
                    "nat": kept["c_nationkey"].cast(pa.int64()),
                }
            )

    def stamp(g: pd.DataFrame) -> pd.DataFrame:
        nat = g.loc[g["k"] < 0, "nat"]
        if nat.empty:
            return pd.DataFrame(
                {
                    "k": pd.Series([], dtype="int64"),
                    "c_nat": pd.Series([], dtype="int64"),
                }
            )
        ods = g.loc[g["k"] >= 0, "k"]
        return pd.DataFrame(
            {
                "k": ods.to_numpy(np.int64),
                "c_nat": np.full(len(ods), int(nat.iloc[0]), np.int64),
            }
        )

    stamped = (
        orders.map_batches(order_rows, batch_format="pyarrow")
        .union(
            cust.map_batches(
                CustRows,
                fn_constructor_args=(dims_ref,),
                batch_format="pyarrow",
                concurrency=(1, 4),
            )
        )
        .groupby("ck")
        .map_groups(stamp, batch_format="pandas")
    )

    def order_markers(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t["k"],
                "s_nat": pa.array(np.full(t.num_rows, -1, np.int64)),
                "year": pa.array(np.zeros(t.num_rows, np.int64)),
                "rev_e4": pa.array(np.zeros(t.num_rows, np.int64)),
                "c_nat": t["c_nat"],
            }
        )

    lmerge = group_sum_merge(("k", "s_nat", "year"), ("rev_e4",))

    class LiPartial:
        def __init__(self, ref):
            self.nkeys, self.sk, self.snat = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            sdate = _ts_us(batch, "l_shipdate")
            batch = batch.filter(
                pa.array((sdate >= Q7_LO_US) & (sdate < Q7_HI_US), pa.bool_())
            )
            sdate = _ts_us(batch, "l_shipdate")
            suppk = (
                batch["l_suppkey"].to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            if len(self.sk) == 0:
                mask = np.zeros(len(suppk), np.bool_)
                nat = np.full(len(suppk), -1, np.int64)
            else:
                idx = np.clip(
                    np.searchsorted(self.sk, suppk), 0, len(self.sk) - 1
                )
                nat = self.snat[idx]
                in_set = np.array(
                    [int(x) in self.nkeys for x in nat], np.bool_
                )
                mask = (self.sk[idx] == suppk) & in_set
            kept = batch.filter(pa.array(mask, pa.bool_()))
            knat = nat[mask]
            year = (
                (sdate[mask] // 1_000_000).astype("datetime64[s]")
                .astype("datetime64[Y]")
                .astype(np.int64)
                + 1970
            )
            cents = round_half_away(
                kept["l_extendedprice"]
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
                * 100.0,
                0,
            ).astype(np.int64)
            disc = round_half_away(
                kept["l_discount"]
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
                * 100.0,
                0,
            ).astype(np.int64)
            t = lmerge(
                pa.table(
                    {
                        "k": kept["l_orderkey"].cast(pa.int64()),
                        "s_nat": pa.array(knat, pa.int64()),
                        "year": pa.array(year, pa.int64()),
                        "rev_e4": pa.array(cents * (100 - disc), pa.int64()),
                    }
                )
            )
            return t.append_column(
                "c_nat", pa.array(np.full(t.num_rows, -1, np.int64))
            ).select(["k", "s_nat", "year", "rev_e4", "c_nat"])

    def pair_rows(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "s_nat": pd.Series([], dtype="int64"),
                "c_nat": pd.Series([], dtype="int64"),
                "year": pd.Series([], dtype="int64"),
                "rev_e4": pd.Series([], dtype="int64"),
            }
        )
        cn = g.loc[g["s_nat"] < 0, "c_nat"]
        if cn.empty:
            return empty
        c_nat = int(cn.iloc[0])
        li_rows = g[(g["s_nat"] >= 0) & (g["s_nat"] != c_nat)]
        if li_rows.empty:
            return empty
        return pd.DataFrame(
            {
                "s_nat": li_rows["s_nat"].to_numpy(np.int64),
                "c_nat": np.full(len(li_rows), c_nat, np.int64),
                "year": li_rows["year"].to_numpy(np.int64),
                "rev_e4": li_rows["rev_e4"].to_numpy(np.int64),
            }
        )

    paired = (
        stamped.map_batches(order_markers, batch_format="pyarrow")
        .union(
            li.map_batches(
                LiPartial,
                fn_constructor_args=(dims_ref,),
                batch_format="pyarrow",
                concurrency=(1, 4),
            )
        )
        .groupby("k")
        .map_groups(pair_rows, batch_format="pandas")
        .groupby(["s_nat", "c_nat", "year"])
        .aggregate(Sum("rev_e4", alias_name="rev_e4"))
    )

    def finish(t: pa.Table, names=name_of) -> pa.Table:
        empty = pa.table(
            {
                "supp_nation": pa.array([], pa.string()),
                "cust_nation": pa.array([], pa.string()),
                "l_year": pa.array([], pa.int64()),
                "revenue": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        df = t.to_pandas()
        df["supp_nation"] = df["s_nat"].map(lambda k: names.get(int(k), ""))
        df["cust_nation"] = df["c_nat"].map(lambda k: names.get(int(k), ""))
        df = df.sort_values(
            ["supp_nation", "cust_nation", "year"]
        ).reset_index(drop=True)
        return pa.table(
            {
                "supp_nation": pa.array(df["supp_nation"], pa.string()),
                "cust_nation": pa.array(df["cust_nation"], pa.string()),
                "l_year": pa.array(df["year"].to_numpy(np.int64), pa.int64()),
                "revenue": pa.array(
                    round_half_away(
                        df["rev_e4"].to_numpy(np.float64) / 10000.0, 4
                    ),
                    pa.float64(),
                ),
            }
        )

    return paired.map_batches(finish, batch_size=None, batch_format="pyarrow")


NOVELTY_W = 8


def doc_shingle_novelty(sf_dir: str) -> Dataset:
    """FIRST-OCCURRENCE NOVELTY per document: of a doc's distinct word-
    8-gram shingles (the corpus_dup_shingles definition), the fraction
    whose GLOBAL first occurrence (min doc_id) is this doc — the
    dataset-ordering signal behind "is this shard mostly recycled
    passages?" curation checks. Two corpus-proportional string-key
    shuffles: distinct (shingle, doc_id) posting rows group per shingle
    (the per-group novelty flags are one vectorized min-compare; group
    size = shingle df), then the flags re-group per doc. Docs under 8
    words carry no shingles and drop out — on both sides."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])

    def postings(batch: pa.Table) -> pa.Table:
        dids, shs = [], []
        for did, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ws = _WORD_RE.findall((t or "").lower())
            for sh in {
                " ".join(ws[i : i + NOVELTY_W])
                for i in range(len(ws) - NOVELTY_W + 1)
            }:
                dids.append(did)
                shs.append(sh)
        return pa.table(
            {
                "shingle": pa.array(shs, pa.string()),
                "doc_id": pa.array(dids, pa.int64()),
            }
        )

    def flag(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["doc_id"].to_numpy()
        return pd.DataFrame(
            {
                "doc_id": ids,
                "novel": (ids == ids.min()).astype(np.int64),
                "one": np.ones(len(ids), np.int64),
            }
        )

    flags = (
        docs.map_batches(postings, batch_format="pyarrow")
        .groupby("shingle")
        .map_groups(flag, batch_format="pandas")
    )
    merge = group_sum_merge(("doc_id",), ("n_novel", "n_shingles"))

    def doc_partial(t: pa.Table) -> pa.Table:
        return merge(
            pa.table(
                {
                    "doc_id": t["doc_id"],
                    "n_novel": t["novel"],
                    "n_shingles": t["one"],
                }
            )
        )

    census = (
        flags.map_batches(doc_partial, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            Sum("n_novel", alias_name="n_novel"),
            Sum("n_shingles", alias_name="n_shingles"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_shingles": pa.array([], pa.int64()),
                    "n_novel": pa.array([], pa.int64()),
                    "novelty": pa.array([], pa.float64()),
                }
            )
        nn = t["n_novel"].to_numpy(zero_copy_only=False).astype(np.float64)
        ns = t["n_shingles"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_shingles": t["n_shingles"],
                "n_novel": t["n_novel"],
                "novelty": pa.array(
                    round_half_away(nn / ns, 4), pa.float64()
                ),
            }
        )

    return census.map_batches(finish, batch_format="pyarrow")


# ----------------------- batch 29: SemDedup / Q13 custdist / 2-hop reach
SEMDEDUP_TAU = 0.42
Q13_EXCLUDED_PRIORITY = "1-URGENT"


def embedding_semdedup(sf_dir: str) -> Dataset:
    """SEMDEDUP (semantic dedup, Abbas et al. 2023 pattern): k-means the
    embedding space, then within each cluster drop every vector that has
    a cluster-mate with SMALLER vec_id at round(cosine, 6) ≥ τ — the
    deterministic min-id-survivor rule. Output = (vec_id, cluster, keep)
    for every vector.

    Scale shape: the clustering is the oracled ``kmeans_assign`` (K-row
    partial sums per pass, K×D driver state); the pairwise pass runs as
    ONE cluster-key groupby whose per-group task is quadratic in cluster
    size — bounded because k is chosen ∝ corpus size in SemDedup (per the
    paper: cluster size ≈ N/k stays constant); a corpus whose clusters
    outgrow task memory sub-clusters first (recurse kmeans inside the
    group) rather than collecting anywhere. τ = 0.42 sits ≥ 1e-4 from
    every observed within-cluster cosine at all three test scales, so the
    6-dp rounded compare is summation-order-safe on both sides."""
    from ..stages.similarity import kmeans_assign

    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    assigned = kmeans_assign(emb, k=8, iters=3, keep_vec=True)

    def flag_group(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["vec_id"].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        X = np.asarray(
            [np.asarray(v, np.float64) for v in df["embedding"].to_numpy()[order]]
        )
        nrm = np.sqrt((X * X).sum(axis=1))
        denom = np.outer(nrm, nrm)
        S = np.divide(
            X @ X.T, denom, out=np.zeros_like(denom), where=denom > 0.0
        )
        S = round_half_away(S, 6)
        # a mate with a strictly smaller id = the strict lower triangle
        # (ids ascend along the axis after the argsort)
        dup = np.tril(S >= SEMDEDUP_TAU, -1).any(axis=1)
        return pd.DataFrame(
            {
                "vec_id": ids,
                "cluster": np.full(len(ids), int(df["cluster"].iloc[0]), np.int64),
                "keep": (~dup).astype(np.int64),
            }
        )

    return assigned.groupby("cluster").map_groups(
        flag_group, batch_format="pandas"
    )


def orders_custdist_q13(sf_dir: str) -> Dataset:
    """TPC-H Q13 (customer distribution): histogram of customers by how
    many non-URGENT orders each placed — INCLUDING the zero-order
    customers the left join keeps. The filtered-LEFT-JOIN-then-double-
    aggregate shape: customer marker rows (cust=1, n=0) union per-batch
    order count partials (cust=0, n=count) through ONE custkey groupby
    cogroup (no Dataset.join — NOTES.md zero-row-partition rule); rows
    with cust ≥ 1 are customers whose c_count = summed n (0 when no order
    row arrived = the left-join NULL branch); the (c_count → custdist)
    census is map-side partials + a tree combine (the count domain is
    tiny)."""
    cust = read_parquet_clean(_p(sf_dir, "customer"), columns=["c_custkey"])
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_custkey", "o_orderpriority"]
    )

    def cust_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "k": t["c_custkey"].cast(pa.int64()),
                "cust": pa.array([1] * n, pa.int64()),
                "n": pa.array([0] * n, pa.int64()),
            }
        )

    def order_partials(t: pa.Table) -> pa.Table:
        kept = t.filter(
            pc.not_equal(t["o_orderpriority"], Q13_EXCLUDED_PRIORITY)
        )
        g = (
            pa.table({"k": kept["o_custkey"].cast(pa.int64())})
            .group_by("k")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "k": g["k"],
                "cust": pa.array([0] * g.num_rows, pa.int64()),
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    per_cust = (
        cust.map_batches(cust_rows, batch_format="pyarrow")
        .union(orders.map_batches(order_partials, batch_format="pyarrow"))
        .groupby("k")
        .aggregate(Sum("cust", alias_name="cust"), Sum("n", alias_name="n"))
    )
    merge = group_sum_merge(("c_count",), ("custdist",))

    def census(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["cust"], 1))
        return merge(
            pa.table(
                {
                    "c_count": t["n"],
                    "custdist": pa.array([1] * t.num_rows, pa.int64()),
                }
            )
        )

    return tree_combine(
        per_cust.map_batches(census, batch_format="pyarrow"), merge
    )


# --------------------- batch 30: PQ codes / bootstrap CI / adapted Q21
PQ_M, PQ_SUB_DIM, PQ_K, PQ_ITERS = 4, 16, 4, 2
BOOT_B = 8
# floor(CDF_Poisson(1)(k) * 65536) for k = 0..4; count 5 past the last
BOOT_BINS = np.array([24109, 48218, 60273, 64291, 65296], np.int64)


def embedding_pq_codes(sf_dir: str) -> Dataset:
    """PRODUCT QUANTIZATION codebook assignment (the IVF-PQ building
    block): the 64-dim vector splits into 4 contiguous 16-dim subspaces,
    each clustered independently by the oracled deterministic
    ``kmeans_assign`` (k=4, 2 iterations, same min-id seeding and 6-dp
    rounding); output = (vec_id, c0..c3) — the 4-byte code that replaces
    the 256-byte vector in a PQ index.

    Scale shape: m streamed clusterings (K-row partials each, K×D driver
    state), then the per-subspace assignments meet in ONE int-key groupby
    — each subspace packs its code into disjoint bit positions
    (code << 2s) so the cogroup is a plain Sum and the unpack is one
    vectorized shift/mask pass; nothing row-wise, nothing collected."""
    from ..stages.similarity import kmeans_assign

    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    parts = []
    for s in range(PQ_M):
        lo = s * PQ_SUB_DIM

        def slice_batch(t: pa.Table, lo=lo) -> pa.Table:
            return pa.table(
                {
                    "vec_id": t["vec_id"],
                    "embedding": pc.list_slice(
                        t["embedding"], lo, lo + PQ_SUB_DIM
                    ),
                }
            )

        assigned = kmeans_assign(
            emb.map_batches(slice_batch, batch_format="pyarrow"),
            k=PQ_K,
            iters=PQ_ITERS,
        )
        parts.append(
            assigned.map_batches(
                lambda t, s=s: pa.table(
                    {
                        "vec_id": t["vec_id"].cast(pa.int64()),
                        "packed": pc.shift_left(
                            t["cluster"].cast(pa.int64()), 2 * s
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
        )
    packed = (
        parts[0]
        .union(*parts[1:])
        .groupby("vec_id")
        .aggregate(Sum("packed", alias_name="packed"))
    )

    def unpack(t: pa.Table) -> pa.Table:
        p = t["packed"].to_numpy(zero_copy_only=False)
        cols: dict = {"vec_id": t["vec_id"]}
        for s in range(PQ_M):
            cols[f"c{s}"] = pa.array((p >> (2 * s)) & 3, pa.int64())
        return pa.table(cols)

    return packed.map_batches(unpack, batch_format="pyarrow")


def events_value_bootstrap(sf_dir: str) -> Dataset:
    """DETERMINISTIC POISSON BOOTSTRAP of the mean event value: 8
    resampling replicas whose per-row multiplicities are Poisson(1)
    counts driven by md5(event_id) — replica b reads the b-th 16-bit
    little-endian slice of the digest and inverts the Poisson CDF at
    fixed integer thresholds (BOOT_BINS, in 1/65536 units), so both sides
    reproduce the identical resample with no RNG. Output = the 8 replica
    means; their spread is the bootstrap CI (structural test pins the
    spread, the oracle pins the values).

    Scale shape: pure map — each batch emits ONE fixed 8-row partial
    (replica, Σcount, Σcount·value_e4) with exact int ten-thousandths, a
    tree combine reduces them, one division at the end. The md5-per-row
    Python loop is the documented hot spot of this op; a 100-TB corpus
    swaps it for a vectorized 64-bit mix of event_id (the hashing.py
    kernel) at the cost of re-deriving the oracle constants."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["event_id", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        v_e4 = round_half_away(
            batch["value"].to_numpy(zero_copy_only=False) * 10000.0, 0
        ).astype(np.int64)
        if len(ids) == 0:
            z = np.zeros(BOOT_B, np.int64)
            return pa.table(
                {
                    "replica": pa.array(np.arange(BOOT_B), pa.int64()),
                    "sw": pa.array(z, pa.int64()),
                    "sv": pa.array(z, pa.int64()),
                }
            )
        raw = b"".join(
            hashlib.md5(str(int(i)).encode()).digest() for i in ids
        )
        u16 = (
            np.frombuffer(raw, np.dtype("<u2"))
            .reshape(-1, BOOT_B)
            .astype(np.int64)
        )
        cnt = np.digitize(u16, BOOT_BINS)  # (n, 8) Poisson(1) counts 0..5
        return pa.table(
            {
                "replica": pa.array(np.arange(BOOT_B), pa.int64()),
                "sw": pa.array(cnt.sum(axis=0), pa.int64()),
                "sv": pa.array((cnt * v_e4[:, None]).sum(axis=0), pa.int64()),
            }
        )

    merge = group_sum_merge(("replica",), ("sw", "sv"))
    combined = tree_combine(
        ev.map_batches(partial, batch_format="pyarrow"), merge
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["sw"], 0))
        if t.num_rows == 0:
            return pa.table(
                {
                    "replica": pa.array([], pa.int64()),
                    "boot_mean": pa.array([], pa.float64()),
                }
            )
        sw = t["sw"].to_numpy(zero_copy_only=False).astype(np.float64)
        sv = t["sv"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "replica": t["replica"],
                "boot_mean": pa.array(
                    round_half_away(sv / (10000.0 * sw), 4), pa.float64()
                ),
            }
        )

    return combined.map_batches(finish, batch_size=None, batch_format="pyarrow")


def orders_waiting_supplier_q21(sf_dir: str) -> Dataset:
    """TPC-H Q21 SHAPE (suppliers who kept orders waiting), adapted to
    this schema: in a finished (status F) order touched by ≥ 2 distinct
    suppliers, the ONE supplier whose lines carry returnflag R — when no
    other supplier failed — gets a wait count; output the top 20 by
    (numwait DESC, s_name). The multi-EXISTS/NOT-EXISTS per-order logic
    becomes ONE orderkey cogroup: per-batch (orderkey, suppkey,
    max has_r) partials union status-F marker rows; each per-order group
    (bounded by the order's supplier count) re-dedups supplier partials
    and applies the exactly-one-failure rule. Supplier names broadcast
    (dimension-sized); the numwait census is supplier-vocabulary-sized →
    tree combine + associative top-20, no sort shuffle."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_returnflag"],
    )
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_orderstatus"]
    )
    supp = pq.read_table(
        _p(sf_dir, "supplier"), columns=["s_suppkey", "s_name"]
    )
    names = dict(
        zip(
            (int(k) for k in supp["s_suppkey"].to_pylist()),
            supp["s_name"].to_pylist(),
        )
    )

    def li_partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "k": t["l_orderkey"].cast(pa.int64()),
                    "supp": t["l_suppkey"].cast(pa.int64()),
                    "has_r": pc.equal(t["l_returnflag"], "R").cast(pa.int64()),
                }
            )
            .group_by(["k", "supp"])
            .aggregate([("has_r", "max")])
        )
        return g.rename_columns(["k", "supp", "has_r"])

    def order_markers(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.equal(t["o_orderstatus"], "F"))
        n = kept.num_rows
        return pa.table(
            {
                "k": kept["o_orderkey"].cast(pa.int64()),
                "supp": pa.array([-1] * n, pa.int64()),
                "has_r": pa.array([0] * n, pa.int64()),
            }
        )

    def judge(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"supp": pd.Series([], dtype="int64")})
        if not (g["supp"] < 0).any():  # order not status-F
            return empty
        rows = g[g["supp"] >= 0]
        if rows.empty:
            return empty
        per_supp = rows.groupby("supp")["has_r"].max()
        if len(per_supp) < 2 or int(per_supp.sum()) != 1:
            return empty
        return pd.DataFrame({"supp": [int(per_supp.idxmax())]})

    failed = (
        li.map_batches(li_partial, batch_format="pyarrow")
        .union(orders.map_batches(order_markers, batch_format="pyarrow"))
        .groupby("k")
        .map_groups(judge, batch_format="pandas")
    )
    merge = group_sum_merge(("supp",), ("numwait",))

    def census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "supp" not in t.column_names:
            return pa.table(
                {
                    "supp": pa.array([], pa.int64()),
                    "numwait": pa.array([], pa.int64()),
                }
            )
        return merge(
            pa.table(
                {
                    "supp": t["supp"].cast(pa.int64()),
                    "numwait": pa.array([1] * t.num_rows, pa.int64()),
                }
            )
        )

    counts = tree_combine(
        failed.map_batches(census, batch_format="pyarrow"), merge
    )
    cut = topk_merge(20, "numwait", ["s_name"])

    def finish(t: pa.Table, names=names) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "s_name": pa.array([], pa.string()),
                    "numwait": pa.array([], pa.int64()),
                }
            )
        return cut(
            pa.table(
                {
                    "s_name": pa.array(
                        [
                            names.get(int(k), "")
                            for k in t["supp"].to_pylist()
                        ],
                        pa.string(),
                    ),
                    "numwait": t["numwait"],
                }
            )
        )

    return counts.map_batches(finish, batch_size=None, batch_format="pyarrow")


# ------------- batch 31: bigram LM / Q16 distinct suppliers / lapsed Q22
LM_BUCKETS = 64
Q16_EXCL_MOD = 5  # complaints analog: exclude suppliers with suppkey %5==0
Q16_SIZES = (1, 4, 9, 16, 25, 36, 49)
Q22_LAPSE_DAYS = 365


def doc_bigram_logprob(sf_dir: str) -> Dataset:
    """LAPLACE-SMOOTHED BIGRAM LM document scoring (the stronger
    perplexity-filter curation signal next to ``doc_unigram_logprob``):
    fit bigram counts over the corpus, score every doc by
    Σ cnt·(ln(c(w1w2)+1) − ln(c(w1)+V)) over its distinct bigrams. Unlike
    the unigram model, the BIGRAM census is NOT vocabulary-bounded — it
    grows with the corpus — so c(w1w2) attaches through a DISTRIBUTED
    int-bucket cogroup (the NOTES.md LSH-blocking pattern: hash each
    bigram into 64 buckets, one int-key shuffle, per-bucket vectorized
    pandas sweep), never a broadcast and never a driver collect. The
    unigram denominators ARE vocabulary-bounded and broadcast once.
    Per-(bucket, doc) partial sums pre-aggregate before the final doc-key
    Sum. Float parity is the documented kmeans/PCA fragility class:
    identical per-term IEEE ops on both sides, summation order differs
    (per-doc sums are hundreds of terms, error ~1e-12 against the 5e-5
    rounding boundary)."""
    from ..runtime.hashing import hash_buckets

    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    merge = group_sum_merge(("token",), ("c",))

    def census_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch["text"].to_pylist():
            if text:
                c.update(_WORD_RE.findall(text.lower()))
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "c": pa.array(list(c.values()), pa.int64()),
            }
        )

    census = tree_combine(
        docs.map_batches(census_partial, batch_format="pyarrow"), merge
    ).to_pandas()  # vocabulary-sized by construction
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "n_bigrams": pa.array([], pa.int64()),
            "logprob": pa.array([], pa.float64()),
        }
    )
    if census.empty:
        return rd.from_arrow(empty)
    nv = int(len(census))
    lnden = {
        t: float(np.log(int(c) + nv))
        for t, c in zip(census["token"], census["c"])
    }
    lnden_ref = ray.put(lnden)

    def instances(batch: pa.Table, ref=lnden_ref) -> pa.Table:
        # the smoothing DENOMINATOR Σ cnt·ln(c(w1)+V) is computable
        # map-side (a doc is one row and the unigram map is broadcast),
        # so the bucket shuffle carries only (bg, doc_id, cnt) — no w1
        # strings, no per-bucket dict lookups (the 24 s → ~12 s rework
        # measured at sf0.1/32)
        d = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        dids, bgs, cnts, dens = [], [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ws = _WORD_RE.findall((text or "").lower())
            if len(ws) < 2:
                continue
            c = Counter(zip(ws[:-1], ws[1:]))
            den = 0.0
            for (w1, w2), n in c.items():
                dids.append(doc_id)
                bgs.append(w1 + " " + w2)
                cnts.append(n)
                dens.append(0.0)
                den += n * d[w1]
            # one sentinel row per doc (bg "", den>0): carries the whole
            # denominator straight through its bucket to the doc aggregate
            dids.append(doc_id)
            bgs.append("")
            cnts.append(0)
            dens.append(den)
        return pa.table(
            {
                "bucket": pa.array(
                    hash_buckets(bgs, LM_BUCKETS), pa.int64()
                ),
                "bg": pa.array(bgs, pa.string()),
                "doc_id": pa.array(dids, pa.int64()),
                "cnt": pa.array(cnts, pa.int64()),
                "den": pa.array(dens, pa.float64()),
            }
        )

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sent = g["bg"].to_numpy() == ""
        inst = g[~sent]
        cnt = inst["cnt"].to_numpy()
        c12 = (
            inst.groupby("bg", sort=False)["cnt"].transform("sum").to_numpy()
        )
        out = pd.DataFrame(
            {
                "doc_id": np.concatenate(
                    [inst["doc_id"].to_numpy(), g.loc[sent, "doc_id"].to_numpy()]
                ),
                "contrib": np.concatenate(
                    [cnt * np.log(c12 + 1.0), -g.loc[sent, "den"].to_numpy()]
                ),
                "nb": np.concatenate(
                    [cnt, np.zeros(int(sent.sum()), np.int64)]
                ),
            }
        )
        out = out.groupby("doc_id", as_index=False).sum()
        out["doc_id"] = out["doc_id"].astype(np.int64)
        out["nb"] = out["nb"].astype(np.int64)
        # second-stage routing key: a plain Ray groupby("doc_id")
        # sort-aggregate measured 27 s on 169k rows at sf0.1 — the
        # int-bucket cogroup (NOTES.md house pattern) does it in <1 s
        out.insert(0, "dbucket", out["doc_id"].to_numpy() % LM_BUCKETS)
        return out

    def doc_group(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby("doc_id", as_index=False)
            .agg(contrib=("contrib", "sum"), n_bigrams=("nb", "sum"))
        )
        out["doc_id"] = out["doc_id"].astype(np.int64)
        out["n_bigrams"] = out["n_bigrams"].astype(np.int64)
        return out

    per_doc = (
        docs.map_batches(instances, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(score_bucket, batch_format="pandas")
        .groupby("dbucket")
        .map_groups(doc_group, batch_format="pandas")
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return empty
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_bigrams": t["n_bigrams"].cast(pa.int64()),
                "logprob": pa.array(
                    round_half_away(
                        t["contrib"].to_numpy(zero_copy_only=False), 4
                    ),
                    pa.float64(),
                ),
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")


def part_supplier_cnt_q16(sf_dir: str) -> Dataset:
    """TPC-H Q16 SHAPE (distinct supplier counts per part attribute),
    adapted to this schema: no partsupp table, so the part⋈supplier
    relation is the distinct (l_partkey, l_suppkey) set observed in
    lineitem; the complaints NOT-IN exclusion becomes the deterministic
    ``l_suppkey % 5 == 0`` predicate (no complaint text exists); the
    attribute filter keeps p_brand <> 'Brand#13' and square p_size
    values. Shape: part attrs are dimension-sized and broadcast as a
    partkey→group-id map (group id enumerates the surviving
    (brand, type, size) combos); each lineitem batch dedups its
    (gid, suppkey) pairs map-side, ONE int-key gid shuffle groups them,
    and the per-group distinct-supplier count is one np.unique sweep;
    the result is attr-combo-bounded."""
    # round-5 audit: predicate pushdown — only surviving part rows reach
    # the driver-side broadcast map build
    part = pq.read_table(
        _p(sf_dir, "part"),
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
        filters=[
            ("p_brand", "!=", "Brand#13"),
            ("p_size", "in", list(Q16_SIZES)),
        ],
    ).to_pandas()
    empty = pa.table(
        {
            "p_brand": pa.array([], pa.string()),
            "p_type": pa.array([], pa.string()),
            "p_size": pa.array([], pa.int64()),
            "supplier_cnt": pa.array([], pa.int64()),
        }
    )
    if part.empty:
        return rd.from_arrow(empty)
    combos = (
        part[["p_brand", "p_type", "p_size"]]
        .drop_duplicates()
        .reset_index(drop=True)
    )
    gid_of_combo = {
        (b, t, int(s)): i
        for i, (b, t, s) in enumerate(
            zip(combos["p_brand"], combos["p_type"], combos["p_size"])
        )
    }
    pk_to_gid = {
        int(pk): gid_of_combo[(b, t, int(s))]
        for pk, b, t, s in zip(
            part["p_partkey"], part["p_brand"], part["p_type"], part["p_size"]
        )
    }
    map_ref = ray.put(pk_to_gid)

    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_partkey", "l_suppkey"]
    )

    def pairs(batch: pa.Table, ref=map_ref) -> pa.Table:
        m = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        keep = (sk % Q16_EXCL_MOD) != 0
        pk, sk = pk[keep], sk[keep]
        gid = (
            pd.Series(pk).map(m).fillna(-1).to_numpy(dtype=np.int64)
        )  # C-speed dict lookup, no per-row Python
        ok = gid >= 0
        uniq = np.unique(np.stack([gid[ok], sk[ok]], axis=1), axis=0)
        return pa.table(
            {
                "gid": pa.array(uniq[:, 0], pa.int64()),
                "supp": pa.array(uniq[:, 1], pa.int64()),
            }
        )

    def count_distinct(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "gid": [int(g["gid"].iloc[0])],
                "supplier_cnt": [int(g["supp"].nunique())],
            }
        )

    counts = (
        li.map_batches(pairs, batch_format="pyarrow")
        .groupby("gid")
        .map_groups(count_distinct, batch_format="pandas")
    )
    combo_rows = combos.to_dict("list")

    def attach(t: pa.Table, cr=combo_rows) -> pa.Table:
        if t.num_rows == 0 or "gid" not in t.column_names:
            return empty
        gids = t["gid"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "p_brand": pa.array(
                    [cr["p_brand"][g] for g in gids], pa.string()
                ),
                "p_type": pa.array(
                    [cr["p_type"][g] for g in gids], pa.string()
                ),
                "p_size": pa.array(
                    [int(cr["p_size"][g]) for g in gids], pa.int64()
                ),
                "supplier_cnt": t["supplier_cnt"].cast(pa.int64()),
            }
        )

    return counts.map_batches(attach, batch_format="pyarrow")


def customers_lapsed_rich_q22(sf_dir: str) -> Dataset:
    """TPC-H Q22 SHAPE (rich customers gone idle), adapted: at every
    test scale each customer has orders, so Q22's 'no orders at all'
    is empty — the lapse predicate becomes 'no order in the final 365
    days of the dataset'. Three bounded stages: (1) one column-pruned
    scan computes the exact global order-date max (fixed 1-row
    partials); (2) one customer scan computes the positive-balance
    average as exact integer cents (the NOTES.md correlated-comparison
    rule: candidates filter by cents·n > sum_cents, never a float
    compare); (3) candidates ∪ per-batch-deduped recent-orderer marker
    rows cogroup through ONE custkey-bucket int shuffle, the per-bucket
    anti-join is one vectorized isin, and the surviving rows collapse
    into segment-bounded census partials (sum in exact cents, ONE
    double division at the end, both sides)."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_custkey", "o_orderdate"]
    )
    cust = read_parquet_clean(
        _p(sf_dir, "customer"),
        columns=["c_custkey", "c_mktsegment", "c_acctbal"],
    )
    empty = pa.table(
        {
            "c_mktsegment": pa.array([], pa.string()),
            "numcust": pa.array([], pa.int64()),
            "totacctbal": pa.array([], pa.float64()),
        }
    )

    # stage 1: exact global max(o_orderdate) as int64 epoch-us
    def max_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"mx": pa.array([], pa.int64())})
        od = (
            t["o_orderdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        return pa.table({"mx": pa.array([int(od.max())], pa.int64())})

    def max_merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"mx": pa.array([], pa.int64())})
        v = t["mx"].to_numpy(zero_copy_only=False)
        return pa.table({"mx": pa.array([int(v.max())], pa.int64())})

    mx = tree_combine(
        orders.map_batches(max_partial, batch_format="pyarrow"), max_merge
    ).to_pandas()
    if mx.empty or "mx" not in mx.columns:
        return rd.from_arrow(empty)
    cutoff_us = int(mx["mx"].iloc[0]) - Q22_LAPSE_DAYS * 86_400_000_000

    # stage 2: exact positive-balance threshold (integer cents)
    def thr_partial(t: pa.Table) -> pa.Table:
        cents = round_half_away(
            t["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        pos = cents[cents > 0]
        return pa.table(
            {
                "sc": pa.array([int(pos.sum())], pa.int64()),
                "n": pa.array([int(pos.size)], pa.int64()),
            }
        )

    def thr_merge(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "sc": pa.array(
                    [int(t["sc"].to_numpy(zero_copy_only=False).sum())],
                    pa.int64(),
                ),
                "n": pa.array(
                    [int(t["n"].to_numpy(zero_copy_only=False).sum())],
                    pa.int64(),
                ),
            }
        )

    thr = tree_combine(
        cust.map_batches(thr_partial, batch_format="pyarrow"), thr_merge
    ).to_pandas()
    if thr.empty or int(thr["n"].iloc[0]) == 0:
        return rd.from_arrow(empty)
    sc, n = int(thr["sc"].iloc[0]), int(thr["n"].iloc[0])

    nbuckets = 64

    def candidates(t: pa.Table) -> pa.Table:
        cents = round_half_away(
            t["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        keep = cents * n > sc
        ck = t["c_custkey"].to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                "bucket": pa.array(
                    ck.astype(np.int64) % nbuckets, pa.int64()
                ),
                "ck": pa.array(ck.astype(np.int64), pa.int64()),
                "seg": t["c_mktsegment"].filter(pa.array(keep)),
                "cents": pa.array(cents[keep], pa.int64()),
                "kind": pa.array(np.zeros(int(keep.sum()), np.int64)),
            }
        )

    def recent_markers(t: pa.Table) -> pa.Table:
        od = (
            t["o_orderdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        ck = np.unique(
            t["o_custkey"].to_numpy(zero_copy_only=False)[od >= cutoff_us]
        ).astype(np.int64)
        z = np.zeros(ck.size, np.int64)
        return pa.table(
            {
                "bucket": pa.array(ck % nbuckets, pa.int64()),
                "ck": pa.array(ck, pa.int64()),
                "seg": pa.array([""] * ck.size, pa.string()),
                "cents": pa.array(z, pa.int64()),
                "kind": pa.array(np.ones(ck.size, np.int64)),
            }
        )

    merge = group_sum_merge(("c_mktsegment",), ("numcust", "sum_cents"))

    def judge(g: pd.DataFrame) -> pd.DataFrame:
        recent = g.loc[g["kind"] == 1, "ck"]
        kept = g[(g["kind"] == 0) & ~g["ck"].isin(set(recent))]
        if kept.empty:
            return pd.DataFrame(
                {
                    "c_mktsegment": pd.Series([], dtype="object"),
                    "numcust": pd.Series([], dtype="int64"),
                    "sum_cents": pd.Series([], dtype="int64"),
                }
            )
        out = kept.groupby("seg", as_index=False).agg(
            numcust=("ck", "size"), sum_cents=("cents", "sum")
        )
        return pd.DataFrame(
            {
                "c_mktsegment": out["seg"].astype(object),
                "numcust": out["numcust"].astype(np.int64),
                "sum_cents": out["sum_cents"].astype(np.int64),
            }
        )

    census = (
        cust.map_batches(candidates, batch_format="pyarrow")
        .union(orders.map_batches(recent_markers, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(judge, batch_format="pandas")
    )
    combined = tree_combine(
        census.map_batches(
            lambda t: merge(t)
            if t.num_rows > 0 and "c_mktsegment" in t.column_names
            else pa.table(
                {
                    "c_mktsegment": pa.array([], pa.string()),
                    "numcust": pa.array([], pa.int64()),
                    "sum_cents": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "c_mktsegment" not in t.column_names:
            return empty
        cents = t["sum_cents"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "c_mktsegment": t["c_mktsegment"],
                "numcust": t["numcust"].cast(pa.int64()),
                "totacctbal": pa.array(
                    round_half_away(cents / 100.0, 4), pa.float64()
                ),
            }
        )

    return combined.map_batches(finish, batch_size=None, batch_format="pyarrow")


# ------ batch 32: Q8 market share / Q11 important parts (kg_adamic_adar
# lives in __ray_entry__ beside the other graph-analytics wrappers)
Q8_TARGET_NATION = "NATION_19"


def nation_market_share_q8(sf_dir: str) -> Dataset:
    """TPC-H Q8 SHAPE (national market share by year), adapted: the
    yearly share of total revenue contributed by suppliers from ONE
    nation (NATION_19 — present at every test scale; no region/part filters exist in this schema).
    Revenue is exact integer ten-thousandths
    (price_cents · (100 − disc_hundredths)); the supplier→nation map is
    dimension-sized and broadcast; the order year attaches through ONE
    orderkey int-bucket cogroup (side-tagged union, never Dataset.join);
    the (year, is_target) census is year-bounded, tree-combined, and the
    share is ONE double division of exact integer operands per year —
    mirrored in SQL (NOTES.md integer-cents rule)."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_orderdate"]
    )
    supp = pq.read_table(
        _p(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"]
    )
    nat = pq.read_table(
        _p(sf_dir, "nation"), columns=["n_nationkey", "n_name"]
    )
    tgt_keys = {
        int(k)
        for k, name in zip(
            nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()
        )
        if name == Q8_TARGET_NATION
    }
    s_is_tgt = {
        int(s): int(int(n) in tgt_keys)
        for s, n in zip(
            supp["s_suppkey"].to_pylist(), supp["s_nationkey"].to_pylist()
        )
    }
    tgt_ref = ray.put(s_is_tgt)
    empty = pa.table(
        {
            "o_year": pa.array([], pa.int64()),
            "mkt_share": pa.array([], pa.float64()),
        }
    )
    nbuckets = 64

    def li_partial(t: pa.Table, ref=tgt_ref) -> pa.Table:
        m = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        price = round_half_away(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        disc = round_half_away(
            t["l_discount"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        units = price * (100 - disc)
        is_t = pd.Series(sk).map(m).fillna(0).to_numpy(dtype=np.int64)
        df = (
            pd.DataFrame(
                {"k": ok, "units": units, "tunits": units * is_t}
            )
            .groupby("k", as_index=False)
            .sum()
        )
        return pa.table(
            {
                "bucket": pa.array(
                    df["k"].to_numpy() % nbuckets, pa.int64()
                ),
                "k": pa.array(df["k"].to_numpy(), pa.int64()),
                "units": pa.array(df["units"].to_numpy(), pa.int64()),
                "tunits": pa.array(df["tunits"].to_numpy(), pa.int64()),
                "yr": pa.array(np.full(len(df), -1, np.int64), pa.int64()),
            }
        )

    def order_rows(t: pa.Table) -> pa.Table:
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        yr = (
            t["o_orderdate"]
            .cast(pa.timestamp("us"))
            .to_pandas()
            .dt.year.to_numpy()
            .astype(np.int64)
        )
        z = np.zeros(len(ok), np.int64)
        return pa.table(
            {
                "bucket": pa.array(ok % nbuckets, pa.int64()),
                "k": pa.array(ok, pa.int64()),
                "units": pa.array(z, pa.int64()),
                "tunits": pa.array(z, pa.int64()),
                "yr": pa.array(yr, pa.int64()),
            }
        )

    def cogroup(g: pd.DataFrame) -> pd.DataFrame:
        yrs = g[g["yr"] >= 0]
        rev = g[g["yr"] < 0]
        if yrs.empty or rev.empty:
            return pd.DataFrame(
                {
                    "o_year": pd.Series([], dtype="int64"),
                    "units": pd.Series([], dtype="int64"),
                    "tunits": pd.Series([], dtype="int64"),
                }
            )
        ymap = pd.Series(
            yrs["yr"].to_numpy(), index=yrs["k"].to_numpy()
        )
        out = pd.DataFrame(
            {
                "o_year": rev["k"].map(ymap).to_numpy(),
                "units": rev["units"].to_numpy(),
                "tunits": rev["tunits"].to_numpy(),
            }
        ).dropna(subset=["o_year"])
        out["o_year"] = out["o_year"].astype(np.int64)
        return out.groupby("o_year", as_index=False).sum()

    merge = group_sum_merge(("o_year",), ("units", "tunits"))
    census = tree_combine(
        li.map_batches(li_partial, batch_format="pyarrow")
        .union(orders.map_batches(order_rows, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(cogroup, batch_format="pandas")
        .map_batches(
            lambda t: merge(t)
            if t.num_rows > 0 and "o_year" in t.column_names
            else pa.table(
                {
                    "o_year": pa.array([], pa.int64()),
                    "units": pa.array([], pa.int64()),
                    "tunits": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_year" not in t.column_names:
            return empty
        u = t["units"].to_numpy(zero_copy_only=False).astype(np.float64)
        tu = t["tunits"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "o_year": t["o_year"].cast(pa.int64()),
                "mkt_share": pa.array(
                    round_half_away(tu / u, 4), pa.float64()
                ),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


def part_important_value_q11(sf_dir: str) -> Dataset:
    """TPC-H Q11 SHAPE (important stock), adapted: parts whose total
    revenue value (exact integer ten-thousandths, the Q8 unit) exceeds
    the MEAN part value — the self-scaling analog of Q11's
    0.0001/SF fraction threshold. One partkey int-key census (map-side
    partial sums first), anchored; the global (total, n_parts) scalar
    pair tree-combines over the SAME census; the filter is the exact
    integer comparison units·n > total (no float threshold), and the
    reported value is ONE double division per surviving part —
    mirrored in SQL."""
    from ..runtime.combine import anchor

    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )
    empty = pa.table(
        {
            "l_partkey": pa.array([], pa.int64()),
            "value": pa.array([], pa.float64()),
        }
    )

    def partial(t: pa.Table) -> pa.Table:
        pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        price = round_half_away(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        disc = round_half_away(
            t["l_discount"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        df = (
            pd.DataFrame({"l_partkey": pk, "units": price * (100 - disc)})
            .groupby("l_partkey", as_index=False)
            .sum()
        )
        return pa.table(
            {
                "l_partkey": pa.array(df["l_partkey"].to_numpy(), pa.int64()),
                "units": pa.array(df["units"].to_numpy(), pa.int64()),
            }
        )

    census = anchor(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("l_partkey")
        .aggregate(Sum("units", alias_name="units"))
    )

    def tot_partial(t: pa.Table) -> pa.Table:
        u = t["units"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "t": pa.array([int(u.sum())], pa.int64()),
                "n": pa.array([int(u.size)], pa.int64()),
            }
        )

    def tot_merge(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "t": pa.array(
                    [int(t["t"].to_numpy(zero_copy_only=False).sum())],
                    pa.int64(),
                ),
                "n": pa.array(
                    [int(t["n"].to_numpy(zero_copy_only=False).sum())],
                    pa.int64(),
                ),
            }
        )

    tot = tree_combine(
        census.map_batches(tot_partial, batch_format="pyarrow"), tot_merge
    ).to_pandas()
    if tot.empty or "n" not in tot.columns or int(tot["n"].iloc[0]) == 0:
        return rd.from_arrow(empty)
    total, n_parts = int(tot["t"].iloc[0]), int(tot["n"].iloc[0])

    def filt(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        u = t["units"].to_numpy(zero_copy_only=False)
        keep = u * n_parts > total
        return pa.table(
            {
                "l_partkey": pa.array(
                    t["l_partkey"]
                    .to_numpy(zero_copy_only=False)[keep]
                    .astype(np.int64),
                    pa.int64(),
                ),
                "value": pa.array(
                    round_half_away(
                        u[keep].astype(np.float64) / 10000.0, 4
                    ),
                    pa.float64(),
                ),
            }
        )

    return census.map_batches(filt, batch_format="pyarrow")


# --- batch 33: Q4 late-shipment priorities / Q15 top supplier / Q17
Q4_LATE_DAYS = 60
Q15_Q_START = "1996-01-01"
Q15_Q_END = "1996-04-01"
Q17_BRAND = "Brand#2"


def orders_priority_late_q4(sf_dir: str) -> Dataset:
    """TPC-H Q4 SHAPE (order priority checking), adapted: count, per
    o_orderpriority, the orders with at least one lineitem shipped more
    than 60 days after the order date (the schema has no
    commit/receipt dates — the EXISTS becomes max(l_shipdate) >
    o_orderdate + 60d, equivalent because max witnesses the EXISTS).
    One orderkey int-bucket cogroup: per-batch (orderkey, max-ship)
    lineitem partials ∪ (orderkey, orderdate, priority) rows; the
    per-bucket judge is two vectorized int64 compares; the surviving
    priorities collapse into a 5-row census (tree combine). Timestamps
    travel as exact epoch-µs int64 throughout (the NOTES.md temporal-key
    rule)."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_orderkey", "l_shipdate"]
    )
    orders = read_parquet_clean(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    empty = pa.table(
        {
            "o_orderpriority": pa.array([], pa.string()),
            "order_count": pa.array([], pa.int64()),
        }
    )
    nbuckets = 64
    late_us = Q4_LATE_DAYS * 86_400_000_000

    def li_partial(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sd = (
            t["l_shipdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        df = (
            pd.DataFrame({"k": ok, "mx": sd})
            .groupby("k", as_index=False)
            .max()
        )
        n = len(df)
        return pa.table(
            {
                "bucket": pa.array(df["k"].to_numpy() % nbuckets, pa.int64()),
                "k": pa.array(df["k"].to_numpy(), pa.int64()),
                "mx": pa.array(df["mx"].to_numpy(), pa.int64()),
                "prio": pa.array([""] * n, pa.string()),
                "kind": pa.array(np.zeros(n, np.int64), pa.int64()),
            }
        )

    def order_rows(t: pa.Table) -> pa.Table:
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        od = (
            t["o_orderdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "bucket": pa.array(ok % nbuckets, pa.int64()),
                "k": pa.array(ok, pa.int64()),
                "mx": pa.array(od, pa.int64()),
                "prio": t["o_orderpriority"],
                "kind": pa.array(np.ones(len(ok), np.int64), pa.int64()),
            }
        )

    def judge(g: pd.DataFrame, late_us=late_us) -> pd.DataFrame:
        li_rows = g[g["kind"] == 0]
        o_rows = g[g["kind"] == 1]
        if li_rows.empty or o_rows.empty:
            return pd.DataFrame(
                {
                    "o_orderpriority": pd.Series([], dtype="object"),
                    "order_count": pd.Series([], dtype="int64"),
                }
            )
        # partials for one order may arrive from several lineitem batches
        mx = li_rows.groupby("k")["mx"].max()
        om = o_rows.set_index("k")
        common = om.index.intersection(mx.index)
        late = mx.loc[common] > om.loc[common, "mx"] + late_us
        kept = om.loc[common[late.to_numpy()], "prio"]
        vc = kept.value_counts()
        return pd.DataFrame(
            {
                "o_orderpriority": vc.index.to_numpy(dtype=object),
                "order_count": vc.to_numpy().astype(np.int64),
            }
        )

    merge = group_sum_merge(("o_orderpriority",), ("order_count",))
    census = tree_combine(
        li.map_batches(li_partial, batch_format="pyarrow")
        .union(orders.map_batches(order_rows, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(judge, batch_format="pandas")
        .map_batches(
            lambda t: merge(t)
            if t.num_rows > 0 and "o_orderpriority" in t.column_names
            else empty,
            batch_format="pyarrow",
        ),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "o_orderpriority" not in t.column_names:
            return empty
        return pa.table(
            {
                "o_orderpriority": t["o_orderpriority"],
                "order_count": t["order_count"].cast(pa.int64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


def supplier_top_quarter_q15(sf_dir: str) -> Dataset:
    """TPC-H Q15 SHAPE (top supplier by quarterly revenue): suppliers
    whose 1996-Q1 shipped revenue equals the global maximum (the view +
    scalar-subquery classic). Revenue in exact integer ten-thousandths;
    the ship-date window filters map-side at the read; the per-supplier
    census is supplier-bounded and anchored so the global max
    (tree-combined scalar) and the equality filter reuse it without
    recomputation; names attach from the dimension-sized broadcast. The
    max compare is exact integers — ties all surface, as in Q15."""
    from ..runtime.combine import anchor

    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    supp = pq.read_table(
        _p(sf_dir, "supplier"), columns=["s_suppkey", "s_name"]
    )
    names = dict(
        zip(
            (int(k) for k in supp["s_suppkey"].to_pylist()),
            supp["s_name"].to_pylist(),
        )
    )
    empty = pa.table(
        {
            "s_name": pa.array([], pa.string()),
            "total_rev": pa.array([], pa.float64()),
        }
    )
    lo = int(np.datetime64(Q15_Q_START, "us").astype(np.int64))
    hi = int(np.datetime64(Q15_Q_END, "us").astype(np.int64))

    def partial(t: pa.Table) -> pa.Table:
        sd = (
            t["l_shipdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        keep = (sd >= lo) & (sd < hi)
        sk = (
            t["l_suppkey"].to_numpy(zero_copy_only=False)[keep].astype(np.int64)
        )
        price = round_half_away(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep] * 100.0,
            0,
        ).astype(np.int64)
        disc = round_half_away(
            t["l_discount"].to_numpy(zero_copy_only=False)[keep] * 100.0, 0
        ).astype(np.int64)
        df = (
            pd.DataFrame({"supp": sk, "units": price * (100 - disc)})
            .groupby("supp", as_index=False)
            .sum()
        )
        return pa.table(
            {
                "supp": pa.array(df["supp"].to_numpy(), pa.int64()),
                "units": pa.array(df["units"].to_numpy(), pa.int64()),
            }
        )

    census = anchor(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("supp")
        .aggregate(Sum("units", alias_name="units"))
    )

    def mx_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"m": pa.array([], pa.int64())})
        u = t["units"].to_numpy(zero_copy_only=False)
        return pa.table({"m": pa.array([int(u.max())], pa.int64())})

    def mx_merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"m": pa.array([], pa.int64())})
        return pa.table(
            {
                "m": pa.array(
                    [int(t["m"].to_numpy(zero_copy_only=False).max())],
                    pa.int64(),
                )
            }
        )

    mx = tree_combine(
        census.map_batches(mx_partial, batch_format="pyarrow"), mx_merge
    ).to_pandas()
    if mx.empty or "m" not in mx.columns:
        return rd.from_arrow(empty)
    m = int(mx["m"].iloc[0])

    def filt(t: pa.Table, names=names) -> pa.Table:
        if t.num_rows == 0:
            return empty
        u = t["units"].to_numpy(zero_copy_only=False)
        keep = u == m
        sk = t["supp"].to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                "s_name": pa.array(
                    [names.get(int(k), "") for k in sk], pa.string()
                ),
                "total_rev": pa.array(
                    round_half_away(
                        u[keep].astype(np.float64) / 10000.0, 4
                    ),
                    pa.float64(),
                ),
            }
        )

    return census.map_batches(filt, batch_format="pyarrow")


def part_smallqty_revenue_q17(sf_dir: str) -> Dataset:
    """TPC-H Q17 SHAPE (small-quantity-order revenue): average yearly
    revenue lost if Brand#2 parts stop shipping quantities under 20% of
    that part's average order quantity. The correlated scalar subquery
    becomes: pass 1 builds the per-part quantity census for Brand#2
    parts (brand filter via the dimension-sized part broadcast; census
    is part-bounded, collected and broadcast); pass 2 filters lineitems
    map-side with the exact integer comparison qty_h·5·n < sum_qty_h
    (the NOTES.md correlated-comparison rule — never a float 0.2·avg)
    and tree-combines ONE price-cents scalar; the /7.0 division happens
    once, on both sides. Empty when nothing qualifies (the oracle's
    HAVING mirrors it)."""
    part = pq.read_table(
        _p(sf_dir, "part"), columns=["p_partkey", "p_brand"]
    )
    brand_pks = {
        int(k)
        for k, b in zip(
            part["p_partkey"].to_pylist(), part["p_brand"].to_pylist()
        )
        if b == Q17_BRAND
    }
    empty = pa.table({"avg_yearly": pa.array([], pa.float64())})
    if not brand_pks:
        return rd.from_arrow(empty)
    pks_ref = ray.put(brand_pks)

    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )
    merge = group_sum_merge(("pk",), ("sq", "n"))

    def qty_partial(t: pa.Table, ref=pks_ref) -> pa.Table:
        pks = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.array([int(k) in pks for k in pk], bool)
        qh = round_half_away(
            t["l_quantity"].to_numpy(zero_copy_only=False)[keep] * 100.0, 0
        ).astype(np.int64)
        df = (
            pd.DataFrame(
                {"pk": pk[keep], "sq": qh, "n": np.ones(qh.size, np.int64)}
            )
            .groupby("pk", as_index=False)
            .sum()
        )
        return pa.table(
            {
                "pk": pa.array(df["pk"].to_numpy(), pa.int64()),
                "sq": pa.array(df["sq"].to_numpy(), pa.int64()),
                "n": pa.array(df["n"].to_numpy(), pa.int64()),
            }
        )

    census = tree_combine(
        li.map_batches(qty_partial, batch_format="pyarrow"), merge
    ).to_pandas()  # Brand#2-part-bounded (dimension-sized)
    if census.empty or "pk" not in census.columns:
        return rd.from_arrow(empty)
    thr = (
        census.assign(pk=census["pk"].astype(np.int64))
        .set_index("pk")[["sq", "n"]]
        .astype(np.int64)
    )
    thr_ref = ray.put(thr)

    def rev_partial(t: pa.Table, ref=thr_ref) -> pa.Table:
        m = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        pk = pd.Series(
            t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        qh = round_half_away(
            t["l_quantity"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        price = round_half_away(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        # int64 end-to-end: a float sq would lose exactness past 2^53
        sqv = pk.map(m["sq"]).fillna(-1).to_numpy(dtype=np.int64)
        nv = pk.map(m["n"]).fillna(0).to_numpy(dtype=np.int64)
        mask = (sqv >= 0) & (qh * 5 * nv < sqv)
        return pa.table(
            {
                "t": pa.array([int(price[mask].sum())], pa.int64()),
                "c": pa.array([int(mask.sum())], pa.int64()),
            }
        )

    def sc_merge(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "t": pa.array(
                    [int(t["t"].to_numpy(zero_copy_only=False).sum())],
                    pa.int64(),
                ),
                "c": pa.array(
                    [int(t["c"].to_numpy(zero_copy_only=False).sum())],
                    pa.int64(),
                ),
            }
        )

    tot = tree_combine(
        li.map_batches(rev_partial, batch_format="pyarrow"), sc_merge
    ).to_pandas()
    if tot.empty or "c" not in tot.columns or int(tot["c"].iloc[0]) == 0:
        return rd.from_arrow(empty)
    return rd.from_arrow(
        pa.table(
            {
                "avg_yearly": pa.array(
                    [
                        float(
                            round_half_away(
                                int(tot["t"].iloc[0]) / 700.0, 4
                            )
                        )
                    ],
                    pa.float64(),
                )
            }
        )
    )


Q6_DISC_LO, Q6_DISC_HI, Q6_QTY_LT = 5, 7, 24  # int hundredths / units


def lineitem_forecast_revenue_q6(sf_dir: str) -> Dataset:
    """TPC-H Q6 SHAPE (forecasting revenue change): one filtered scan of
    lineitem, revenue = Σ extendedprice·discount over 1996 shipments with
    discount in [0.05, 0.07] and quantity < 24. Pure map-side partials
    (one int64 scalar per batch: price-cents × discount-hundredths =
    exact ten-thousandths) tree-combined to a single row; the only
    division is the final /10000. Column-pruned read; predicate applied
    per batch with vectorized numpy masks — nothing shuffles.
    Reference shape: TPC-H spec Q6 (the no-join aggregate)."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )
    lo_us = int(pd.Timestamp("1996-01-01").value // 1000)
    hi_us = int(pd.Timestamp("1997-01-01").value // 1000)

    def partial(t: pa.Table) -> pa.Table:
        sd = (
            t["l_shipdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        dh = round_half_away(
            t["l_discount"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        qh = round_half_away(
            t["l_quantity"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        price = round_half_away(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        mask = (
            (sd >= lo_us)
            & (sd < hi_us)
            & (dh >= Q6_DISC_LO)
            & (dh <= Q6_DISC_HI)
            & (qh < Q6_QTY_LT * 100)
        )
        return pa.table(
            {"u": pa.array([int((price[mask] * dh[mask]).sum())], pa.int64())}
        )

    def sc_merge(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": pa.array(
                    [int(t["u"].to_numpy(zero_copy_only=False).sum())],
                    pa.int64(),
                )
            }
        )

    tot = tree_combine(
        li.map_batches(partial, batch_format="pyarrow"), sc_merge
    ).to_pandas()
    units = int(tot["u"].iloc[0]) if not tot.empty and "u" in tot.columns else 0
    return rd.from_arrow(
        pa.table(
            {
                "revenue": pa.array(
                    [float(round_half_away(units / 10000.0, 4))], pa.float64()
                )
            }
        )
    )


Q12_HIGH = ("1-URGENT", "2-HIGH")


def lineitem_shipmode_q12(sf_dir: str) -> Dataset:
    """TPC-H Q12 SHAPE (shipping modes and order priority), adapted: the
    schema has no l_shipmode or commit/receipt dates, so the mode analog
    is l_returnflag and "late" is the Q4 rule (l_shipdate more than 60
    days after o_orderdate). Per returnflag, count late LINES on
    high-priority orders (1-URGENT / 2-HIGH) vs the rest. The line→order
    priority attach is one orderkey int-bucket cogroup (the Q4 pattern):
    fixed-width lineitem rows (orderkey, shipdate-µs, flag-code) ∪ order
    rows (orderkey, orderdate-µs, is-high); the per-bucket judge is one
    int64 compare + a 6-cell bincount; the global census is a 3-row tree
    combine. No broadcast of either side — both tables stream.
    Reference shape: TPC-H spec Q12 with the Q4 lateness witness."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_shipdate", "l_returnflag"],
    )
    orders = read_parquet_clean(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    empty = pa.table(
        {
            "l_returnflag": pa.array([], pa.string()),
            "high_line_count": pa.array([], pa.int64()),
            "low_line_count": pa.array([], pa.int64()),
        }
    )
    nbuckets = 64
    late_us = Q4_LATE_DAYS * 86_400_000_000
    flags = ("A", "N", "R")
    fcode = {f: i for i, f in enumerate(flags)}

    def li_rows(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sd = (
            t["l_shipdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        fc = (
            pd.Series(t["l_returnflag"].to_pylist())
            .map(fcode)
            .fillna(-1)
            .to_numpy(dtype=np.int64)
        )
        return pa.table(
            {
                "bucket": pa.array(ok % nbuckets, pa.int64()),
                "k": pa.array(ok, pa.int64()),
                "ts": pa.array(sd, pa.int64()),
                "aux": pa.array(fc, pa.int64()),
                "kind": pa.array(np.zeros(ok.size, np.int64), pa.int64()),
            }
        )

    def order_rows(t: pa.Table) -> pa.Table:
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        od = (
            t["o_orderdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        hi = np.array(
            [1 if p in Q12_HIGH else 0 for p in t["o_orderpriority"].to_pylist()],
            np.int64,
        )
        return pa.table(
            {
                "bucket": pa.array(ok % nbuckets, pa.int64()),
                "k": pa.array(ok, pa.int64()),
                "ts": pa.array(od, pa.int64()),
                "aux": pa.array(hi, pa.int64()),
                "kind": pa.array(np.ones(ok.size, np.int64), pa.int64()),
            }
        )

    def judge(g: pd.DataFrame, late_us=late_us) -> pd.DataFrame:
        lr = g[g["kind"] == 0]
        orow = g[g["kind"] == 1]
        if lr.empty or orow.empty:
            return pd.DataFrame(
                {
                    "fc": pd.Series([], dtype="int64"),
                    "hi": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        om = orow.drop_duplicates("k").set_index("k")[["ts", "aux"]]
        od = lr["k"].map(om["ts"]).to_numpy(dtype=np.float64)
        hi = lr["k"].map(om["aux"]).fillna(-1).to_numpy(dtype=np.int64)
        late = (hi >= 0) & (lr["ts"].to_numpy() > od + late_us)
        if not late.any():
            return pd.DataFrame(
                {
                    "fc": pd.Series([], dtype="int64"),
                    "hi": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        cell = lr["aux"].to_numpy()[late] * 2 + hi[late]
        cnt = np.bincount(cell, minlength=6)
        nz = np.flatnonzero(cnt)
        return pd.DataFrame(
            {
                "fc": (nz // 2).astype(np.int64),
                "hi": (nz % 2).astype(np.int64),
                "n": cnt[nz].astype(np.int64),
            }
        )

    merge = group_sum_merge(("fc", "hi"), ("n",))
    census = tree_combine(
        li.map_batches(li_rows, batch_format="pyarrow")
        .union(orders.map_batches(order_rows, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(judge, batch_format="pandas")
        .map_batches(
            lambda t: merge(t)
            if t.num_rows > 0 and "fc" in t.column_names
            else pa.table(
                {
                    "fc": pa.array([], pa.int64()),
                    "hi": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "fc" not in t.column_names:
            return empty
        df = t.to_pandas()
        wide = (
            df.pivot_table(
                index="fc", columns="hi", values="n", aggfunc="sum", fill_value=0
            )
            .reindex(columns=[1, 0], fill_value=0)
            .sort_index()
        )
        return pa.table(
            {
                "l_returnflag": pa.array(
                    [flags[int(i)] for i in wide.index], pa.string()
                ),
                "high_line_count": pa.array(
                    wide[1].to_numpy().astype(np.int64), pa.int64()
                ),
                "low_line_count": pa.array(
                    wide[0].to_numpy().astype(np.int64), pa.int64()
                ),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


# (brand, max size, qty lo, qty hi) — the three disjunctive arms
Q19_ARMS = (
    ("Brand#1", 5, 1, 11),
    ("Brand#2", 10, 10, 20),
    ("Brand#3", 15, 20, 30),
)


def lineitem_disjunctive_q19(sf_dir: str) -> Dataset:
    """TPC-H Q19 SHAPE (discounted revenue under disjunctive predicates),
    adapted to the schema (no container column): three OR-arms over
    (p_brand, p_size, l_quantity) windows. The part side filters to the
    three arms' brands at the read and broadcasts a partkey→(qty-lo,
    qty-hi) map (arm-qualified parts only — a small fraction of an
    already dimension-sized table; `ray.put` once, read per actor);
    lineitem then streams one pure map-side pass: the OR collapses into
    a single per-row interval test against the broadcast bounds, revenue
    partials are exact int ten-thousandths, tree-combined to one row.
    Reference shape: TPC-H spec Q19 (join + disjunction of conjuncts)."""
    part = pq.read_table(
        _p(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_size"]
    )
    bounds = {}
    for k, b, s in zip(
        part["p_partkey"].to_pylist(),
        part["p_brand"].to_pylist(),
        part["p_size"].to_pylist(),
    ):
        for brand, szmax, qlo, qhi in Q19_ARMS:
            if b == brand and 1 <= s <= szmax:
                bounds[int(k)] = (qlo * 100, qhi * 100)
    empty_units = 0
    if bounds:
        keys = np.array(sorted(bounds), np.int64)
        lo = np.array([bounds[k][0] for k in keys], np.int64)
        hi = np.array([bounds[k][1] for k in keys], np.int64)
        bref = ray.put((keys, lo, hi))

        li = read_parquet_clean(
            _p(sf_dir, "lineitem"),
            columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        )

        def partial(t: pa.Table, bref=bref) -> pa.Table:
            keys, lo, hi = (
                ray.get(bref) if isinstance(bref, ray.ObjectRef) else bref
            )
            pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            idx = np.searchsorted(keys, pk)
            idx_c = np.clip(idx, 0, keys.size - 1)
            known = keys[idx_c] == pk
            qh = round_half_away(
                t["l_quantity"].to_numpy(zero_copy_only=False) * 100.0, 0
            ).astype(np.int64)
            mask = known & (qh >= lo[idx_c]) & (qh <= hi[idx_c])
            price = round_half_away(
                t["l_extendedprice"].to_numpy(zero_copy_only=False)[mask]
                * 100.0,
                0,
            ).astype(np.int64)
            dh = round_half_away(
                t["l_discount"].to_numpy(zero_copy_only=False)[mask] * 100.0, 0
            ).astype(np.int64)
            return pa.table(
                {"u": pa.array([int((price * (100 - dh)).sum())], pa.int64())}
            )

        def sc_merge(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "u": pa.array(
                        [int(t["u"].to_numpy(zero_copy_only=False).sum())],
                        pa.int64(),
                    )
                }
            )

        tot = tree_combine(
            li.map_batches(partial, batch_format="pyarrow"), sc_merge
        ).to_pandas()
        empty_units = (
            int(tot["u"].iloc[0]) if not tot.empty and "u" in tot.columns else 0
        )
    return rd.from_arrow(
        pa.table(
            {
                "revenue": pa.array(
                    [float(round_half_away(empty_units / 10000.0, 4))],
                    pa.float64(),
                )
            }
        )
    )


KMV_K = 256  # sketch size: fixed 2 KiB of state per partial, any scale


def events_user_count_kmv(sf_dir: str) -> Dataset:
    """Distinct-user estimate via a KMV (k-minimum-values) sketch, the
    order-statistics cousin of the HLL variant: keep the K smallest
    DISTINCT md5 hash values of user_id; if fewer than K exist the count
    is exact, else est = (K−1)·2⁶⁴ / h_(K) (Bar-Yossef et al.'s unbiased
    estimator). Hashing is the house md5-first-8-bytes-little-endian
    (DuckDB ``md5_number_upper`` parity — no RNG, so the oracle replays
    the sketch bit-for-bit). Per-batch partials carry ≤K uint64 rows;
    the merge is a sorted distinct-union cut back to K — associative, so
    it tree-combines. Driver state: K ints."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        us = pc.unique(t["user_id"]).to_pylist()
        hv = np.unique(
            np.array(
                [
                    int.from_bytes(
                        hashlib.md5(str(u).encode("utf-8")).digest()[:8],
                        "little",
                    )
                    for u in us
                ],
                np.uint64,
            )
        )[:KMV_K]
        return pa.table({"hv": pa.array(hv, pa.uint64())})

    def merge(t: pa.Table) -> pa.Table:
        hv = np.unique(t["hv"].to_numpy(zero_copy_only=False))[:KMV_K]
        return pa.table({"hv": pa.array(hv, pa.uint64())})

    sk = tree_combine(
        ev.map_batches(partial, batch_format="pyarrow"), merge
    ).to_pandas()
    hv = (
        np.unique(sk["hv"].to_numpy())[:KMV_K]
        if not sk.empty and "hv" in sk.columns
        else np.array([], np.uint64)
    )
    ku = int(hv.size)
    est = float(ku) if ku < KMV_K else (KMV_K - 1) * 2.0**64 / float(hv[-1])
    return rd.from_arrow(
        pa.table(
            {
                "k_used": pa.array([ku], pa.int64()),
                "est_kmv": pa.array(
                    [float(round_half_away(est, 4))], pa.float64()
                ),
            }
        )
    )


def events_hour_dow_seasonality(sf_dir: str) -> Dataset:
    """Weekly seasonality profile: per (ISO day-of-week, hour-of-day)
    cell, event count, mean value, and the seasonal index n·168/total
    (1.0 = a perfectly flat week). One streamed pass of ≤168-row
    integer partials (value in exact cents — the summation-order-proof
    idiom) tree-combined; every division happens once, on the driver,
    mirrored exactly in the oracle."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["ts", "value"])
    empty = pa.table(
        {
            "dow": pa.array([], pa.int64()),
            "hr": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "avg_value": pa.array([], pa.float64()),
            "seasonal_idx": pa.array([], pa.float64()),
        }
    )

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.timestamp("us")).to_pandas()
        g = (
            pd.DataFrame(
                {
                    "dow": (ts.dt.dayofweek + 1).to_numpy(np.int64),
                    "hr": ts.dt.hour.to_numpy(np.int64),
                    "n": np.ones(t.num_rows, np.int64),
                    "sv": round_half_away(
                        t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
                    ).astype(np.int64),
                }
            )
            .groupby(["dow", "hr"], as_index=False)
            .sum()
        )
        return pa.table(
            {
                "dow": pa.array(g["dow"].to_numpy(), pa.int64()),
                "hr": pa.array(g["hr"].to_numpy(), pa.int64()),
                "n": pa.array(g["n"].to_numpy(), pa.int64()),
                "sv": pa.array(g["sv"].to_numpy(), pa.int64()),
            }
        )

    merge = group_sum_merge(("dow", "hr"), ("n", "sv"))
    census = tree_combine(
        ev.map_batches(partial, batch_format="pyarrow"), merge
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "dow" not in t.column_names:
            return empty
        df = t.to_pandas()
        tot = float(df["n"].sum())
        n = df["n"].to_numpy(dtype=np.int64)
        sv = df["sv"].to_numpy(dtype=np.int64)
        return pa.table(
            {
                "dow": pa.array(df["dow"].to_numpy(np.int64), pa.int64()),
                "hr": pa.array(df["hr"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(n, pa.int64()),
                "avg_value": pa.array(
                    round_half_away(sv / 100.0 / n, 4), pa.float64()
                ),
                "seasonal_idx": pa.array(
                    round_half_away(n * 168.0 / tot, 4), pa.float64()
                ),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


FUNNEL_WINDOW_US = 3_600_000_000  # 1 h per transition
WEEK_US = 604_800_000_000


def events_windowed_funnel(sf_dir: str) -> Dataset:
    """Time-bounded funnel (view → click → purchase, each transition
    within 1 hour): per user the furthest stage reachable through ANY
    qualifying chain (EXISTS semantics, not greedy — a click is
    stage-2-reachable iff some view precedes it by ≤1 h, a purchase is
    stage-3-reachable iff some REACHABLE click precedes it by ≤1 h),
    histogrammed as (stage, n_users). ONE user-key groupby shuffle; the
    per-group reduction is three sorted arrays + searchsorted window
    probes (O(n log n) per user, no pairwise joins); the stage histogram
    is a 4-row tree combine."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type", "ts"]
    )
    empty = pa.table(
        {
            "stage": pa.array([], pa.int64()),
            "n_users": pa.array([], pa.int64()),
        }
    )

    def keep(t: pa.Table) -> pa.Table:
        mask = pc.is_in(
            t["event_type"],
            value_set=pa.array(["view", "click", "purchase"]),
        )
        # non-funnel users still count at stage 0, so keep one marker row
        # per user seen in the batch (event_type "")
        users = pc.unique(t["user_id"])  # pc.unique yields a flat Array
        if isinstance(users, pa.ChunkedArray):
            users = users.combine_chunks()
        kept = t.filter(mask)
        return pa.table(
            {
                "user_id": pa.concat_arrays(
                    [kept["user_id"].combine_chunks(), users]
                ),
                "event_type": pa.concat_arrays(
                    [
                        kept["event_type"].combine_chunks(),
                        pa.array([""] * len(users), pa.string()),
                    ]
                ),
                "ts_us": pa.concat_arrays(
                    [
                        kept["ts"]
                        .cast(pa.timestamp("us"))
                        .cast(pa.int64())
                        .combine_chunks(),
                        pa.array([0] * len(users), pa.int64()),
                    ]
                ),
            }
        )

    def stage_of(g: pd.DataFrame, W=FUNNEL_WINDOW_US) -> pd.DataFrame:
        et = g["event_type"].to_numpy()
        ts = g["ts_us"].to_numpy()
        v = np.sort(ts[et == "view"])
        stage = 0
        if v.size:
            stage = 1
            c = np.sort(ts[et == "click"])
            # click reachable iff a view sits in [c-W, c)
            lo = np.searchsorted(v, c - W, "left")
            hi = np.searchsorted(v, c, "left")
            rc = c[hi > lo]
            if rc.size:
                stage = 2
                p = np.sort(ts[et == "purchase"])
                lo = np.searchsorted(rc, p - W, "left")
                hi = np.searchsorted(rc, p, "left")
                if (hi > lo).any():
                    stage = 3
        return pd.DataFrame(
            {"stage": pd.Series([stage], dtype="int64"),
             "n_users": pd.Series([1], dtype="int64")}
        )

    merge = group_sum_merge(("stage",), ("n_users",))
    census = tree_combine(
        ev.map_batches(keep, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(stage_of, batch_format="pandas"),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "stage" not in t.column_names:
            return empty
        return pa.table(
            {
                "stage": t["stage"].cast(pa.int64()),
                "n_users": t["n_users"].cast(pa.int64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


def events_user_lifecycle(sf_dir: str) -> Dataset:
    """Weekly growth accounting (the new/retained/resurrected/churned
    decomposition): per epoch week, users active for the first time
    (new), active this week and last (retained), active this week after
    a gap (resurrected), and active LAST week but not this one (churned,
    attributed to the first inactive week, capped at the dataset's final
    week). Per-user distinct weeks travel through ONE user-key groupby
    (weeks-per-user-bounded rows); the global max week is a scalar
    pre-pass; the week census is a ≤n_weeks-row tree combine."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "ts"])
    empty = pa.table(
        {
            "wk": pa.array([], pa.int64()),
            "n_new": pa.array([], pa.int64()),
            "n_retained": pa.array([], pa.int64()),
            "n_resurrected": pa.array([], pa.int64()),
            "n_churned": pa.array([], pa.int64()),
        }
    )

    def user_weeks(t: pa.Table) -> pa.Table:
        wk = (
            t["ts"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            // WEEK_US
        )
        df = (
            pd.DataFrame(
                {
                    "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                    "wk": wk,
                }
            )
            .drop_duplicates()
        )
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(), pa.int64()),
                "wk": pa.array(df["wk"].to_numpy(), pa.int64()),
            }
        )

    uw = ev.map_batches(user_weeks, batch_format="pyarrow")

    def max_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"m": pa.array([], pa.int64())})
        return pa.table(
            {"m": pa.array([int(pc.max(t["wk"]).as_py())], pa.int64())}
        )

    def max_merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"m": pa.array([], pa.int64())})
        return pa.table(
            {"m": pa.array([int(pc.max(t["m"]).as_py())], pa.int64())}
        )

    mx = tree_combine(uw.map_batches(max_partial, batch_format="pyarrow"),
                      max_merge).to_pandas()
    if mx.empty or "m" not in mx.columns:
        return rd.from_arrow(empty)
    maxw = int(mx["m"].iloc[0])

    def stages(g: pd.DataFrame, maxw=maxw) -> pd.DataFrame:
        wks = np.unique(g["wk"].to_numpy(dtype=np.int64))
        out_w, out_s = [wks[0]], [0]  # 0=new
        prev = wks[0]
        for w in wks[1:]:
            out_w.append(w)
            out_s.append(1 if w == prev + 1 else 2)  # retained / resurrected
            if w > prev + 1 and prev + 1 <= maxw:
                out_w.append(prev + 1)
                out_s.append(3)  # churned at the first inactive week
            prev = w
        if prev + 1 <= maxw:
            out_w.append(prev + 1)
            out_s.append(3)
        return pd.DataFrame(
            {
                "wk": pd.Series(out_w, dtype="int64"),
                "st": pd.Series(out_s, dtype="int64"),
                "n": pd.Series(np.ones(len(out_w), np.int64)),
            }
        )

    merge = group_sum_merge(("wk", "st"), ("n",))
    census = tree_combine(
        uw.groupby("user_id").map_groups(stages, batch_format="pandas"),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "wk" not in t.column_names:
            return empty
        df = t.to_pandas()
        wide = (
            df.pivot_table(
                index="wk", columns="st", values="n", aggfunc="sum",
                fill_value=0,
            )
            .reindex(columns=[0, 1, 2, 3], fill_value=0)
            .sort_index()
        )
        return pa.table(
            {
                "wk": pa.array(wide.index.to_numpy(np.int64), pa.int64()),
                "n_new": pa.array(wide[0].to_numpy(np.int64), pa.int64()),
                "n_retained": pa.array(
                    wide[1].to_numpy(np.int64), pa.int64()
                ),
                "n_resurrected": pa.array(
                    wide[2].to_numpy(np.int64), pa.int64()
                ),
                "n_churned": pa.array(wide[3].to_numpy(np.int64), pa.int64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


def events_seasonal_anomaly(sf_dir: str) -> Dataset:
    """Top-20 anomalous (week, day-of-week, hour) cells by |z| against
    that cell's weekly profile: z = (n·W − S) / sqrt(W·Q − S²) where S/Q
    are the cell's count sum / sum-of-squares across the dataset's W
    weeks (missing weeks count as zero via W; only OBSERVED cells are
    scored — absence anomalies would need the zero-filled cross join,
    documented). The algebra keeps every operand integer until one final
    divide+sqrt, so Ray and DuckDB agree bit-for-bit. Partials are
    (week, dow, hr) int counts (weeks×168-bounded census); ranking
    happens once on the driver over that census."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["ts"])
    empty = pa.table(
        {
            "wk": pa.array([], pa.int64()),
            "dow": pa.array([], pa.int64()),
            "hr": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "z": pa.array([], pa.float64()),
        }
    )

    def partial(t: pa.Table) -> pa.Table:
        us = (
            t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        ts = t["ts"].cast(pa.timestamp("us")).to_pandas()
        g = (
            pd.DataFrame(
                {
                    "wk": us // WEEK_US,
                    "dow": (ts.dt.dayofweek + 1).to_numpy(np.int64),
                    "hr": ts.dt.hour.to_numpy(np.int64),
                    "n": np.ones(t.num_rows, np.int64),
                }
            )
            .groupby(["wk", "dow", "hr"], as_index=False)
            .sum()
        )
        return pa.table(
            {
                "wk": pa.array(g["wk"].to_numpy(), pa.int64()),
                "dow": pa.array(g["dow"].to_numpy(), pa.int64()),
                "hr": pa.array(g["hr"].to_numpy(), pa.int64()),
                "n": pa.array(g["n"].to_numpy(), pa.int64()),
            }
        )

    merge = group_sum_merge(("wk", "dow", "hr"), ("n",))
    census = tree_combine(
        ev.map_batches(partial, batch_format="pyarrow"), merge
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "wk" not in t.column_names:
            return empty
        df = t.to_pandas().astype(
            {"wk": np.int64, "dow": np.int64, "hr": np.int64, "n": np.int64}
        )
        W = int(df["wk"].max() - df["wk"].min() + 1)
        cell = (
            df.assign(n2=df["n"] * df["n"])
            .groupby(["dow", "hr"], as_index=False)
            .agg(S=("n", "sum"), Q=("n2", "sum"))
        )
        m = df.merge(cell, on=["dow", "hr"])
        num = (m["n"] * W - m["S"]).to_numpy(dtype=np.int64)
        den = (W * m["Q"] - m["S"] * m["S"]).to_numpy(dtype=np.int64)
        ok = den > 0
        m = m[ok]
        z = num[ok] / np.sqrt(den[ok])
        m = m.assign(z=z, az=np.abs(z)).sort_values(
            ["az", "wk", "dow", "hr"], ascending=[False, True, True, True]
        ).head(20)
        return pa.table(
            {
                "wk": pa.array(m["wk"].to_numpy(np.int64), pa.int64()),
                "dow": pa.array(m["dow"].to_numpy(np.int64), pa.int64()),
                "hr": pa.array(m["hr"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(m["n"].to_numpy(np.int64), pa.int64()),
                "z": pa.array(
                    round_half_away(m["z"].to_numpy(), 4), pa.float64()
                ),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


def doc_containment_pairs(sf_dir: str) -> Dataset:
    """Asymmetric shingle-containment near-dup pairs (the subset /
    quotation case Jaccard misses) — see
    ``stages.dedup.containment_pairs`` for the exact-recall per-shingle
    blocking and the size-adaptive two-direction verify."""
    from ..stages.dedup import containment_pairs

    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return containment_pairs(docs)


def users_all_event_types(sf_dir: str) -> Dataset:
    """Relational division (the FOR ALL join classic): users who
    performed EVERY event type present in the dataset. The global type
    set is a tiny tree-combined census; per-user distinct-type counts
    ride ONE int-bucket cogroup over per-batch-deduped (user, type)
    pairs; the division is count-equality."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type"]
    )
    empty = pa.table({"user_id": pa.array([], pa.int64())})

    def type_partial(t: pa.Table) -> pa.Table:
        return pa.table({"et": pc.unique(t["event_type"])})

    def type_merge(t: pa.Table) -> pa.Table:
        return pa.table({"et": pc.unique(t["et"])})

    types = tree_combine(
        ev.map_batches(type_partial, batch_format="pyarrow"), type_merge
    ).to_pandas()
    if types.empty or "et" not in types.columns:
        return rd.from_arrow(empty)
    nt = int(types["et"].nunique())

    def pair_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "et": t["event_type"].to_pylist(),
            }
        ).drop_duplicates()
        return pa.table(
            {
                "bucket": pa.array(
                    df["user_id"].to_numpy(np.int64) % 64, pa.int64()
                ),
                "user_id": pa.array(
                    df["user_id"].to_numpy(np.int64), pa.int64()
                ),
                "et": pa.array(df["et"].to_numpy(dtype=object), pa.string()),
            }
        )

    def divide(g: pd.DataFrame, nt=nt) -> pd.DataFrame:
        c = g.drop_duplicates(["user_id", "et"]).groupby("user_id").size()
        keep = c[c == nt].index.to_numpy(dtype=np.int64)
        return pd.DataFrame({"user_id": pd.Series(keep, dtype="int64")})

    return (
        ev.map_batches(pair_partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(divide, batch_format="pandas")
        .map_batches(
            lambda t: pa.table(
                {"user_id": t["user_id"].cast(pa.int64())}
            )
            if t.num_rows
            else empty,
            batch_format="pyarrow",
        )
    )


def events_conversion_delay(sf_dir: str) -> Dataset:
    """Cohorted view→purchase conversion delay: per user the first view
    and the first purchase STRICTLY after it; per first-view epoch-week
    cohort, converted-user count and exact p50/p90 delay in whole
    seconds (quantile_disc order statistics — sorted[ceil(n·q)−1],
    matched exactly). One user-key groupby computes the per-user delay
    (fixed-width int rows out); the per-cohort quantile group is
    user-bounded."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type", "ts"]
    )
    empty = pa.table(
        {
            "wk": pa.array([], pa.int64()),
            "n_converted": pa.array([], pa.int64()),
            "p50_delay_s": pa.array([], pa.int64()),
            "p90_delay_s": pa.array([], pa.int64()),
        }
    )

    def keep(t: pa.Table) -> pa.Table:
        mask = pc.is_in(
            t["event_type"], value_set=pa.array(["view", "purchase"])
        )
        kept = t.filter(mask)
        return pa.table(
            {
                "user_id": kept["user_id"],
                "event_type": kept["event_type"],
                "ts_us": kept["ts"]
                .cast(pa.timestamp("us"))
                .cast(pa.int64()),
            }
        )

    def delay_of(g: pd.DataFrame) -> pd.DataFrame:
        et = g["event_type"].to_numpy()
        ts = g["ts_us"].to_numpy()
        v = ts[et == "view"]
        out = {
            "wk": pd.Series([], dtype="int64"),
            "delay_s": pd.Series([], dtype="int64"),
        }
        if v.size:
            tv = int(v.min())
            p = ts[(et == "purchase") & (ts > tv)]
            if p.size:
                out = {
                    "wk": pd.Series([tv // WEEK_US], dtype="int64"),
                    "delay_s": pd.Series(
                        [(int(p.min()) - tv) // 1_000_000], dtype="int64"
                    ),
                }
        return pd.DataFrame(out)

    def cohort_q(g: pd.DataFrame) -> pd.DataFrame:
        d = np.sort(g["delay_s"].to_numpy(dtype=np.int64))
        n = d.size
        i50 = max(int(np.ceil(n * 0.5)) - 1, 0)
        i90 = max(int(np.ceil(n * 0.9)) - 1, 0)
        return pd.DataFrame(
            {
                "wk": pd.Series([int(g["wk"].iloc[0])], dtype="int64"),
                "n_converted": pd.Series([n], dtype="int64"),
                "p50_delay_s": pd.Series([int(d[i50])], dtype="int64"),
                "p90_delay_s": pd.Series([int(d[i90])], dtype="int64"),
            }
        )

    out = (
        ev.map_batches(keep, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(delay_of, batch_format="pandas")
        .groupby("wk")
        .map_groups(cohort_q, batch_format="pandas")
    )

    def pin(df: pd.DataFrame) -> pa.Table:
        if df.empty or "wk" not in df.columns:
            return empty
        return pa.table(
            {
                "wk": pa.array(df["wk"].to_numpy(np.int64), pa.int64()),
                "n_converted": pa.array(
                    df["n_converted"].to_numpy(np.int64), pa.int64()
                ),
                "p50_delay_s": pa.array(
                    df["p50_delay_s"].to_numpy(np.int64), pa.int64()
                ),
                "p90_delay_s": pa.array(
                    df["p90_delay_s"].to_numpy(np.int64), pa.int64()
                ),
            }
        )

    return out.map_batches(pin, batch_format="pandas")


WINNOW_K = 3  # token k-gram size
WINNOW_W = 4  # window of consecutive k-gram hashes per fingerprint


def doc_winnowing_fp(sf_dir: str) -> Dataset:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken, the
    MOSS selection rule): hash every ORDERED token 3-gram (md5 hex
    prefix — DuckDB parity), slide a window of 4 consecutive hashes,
    keep each window's lexicographic minimum, output the distinct
    selected fingerprints per doc. Guarantees every match of ≥
    K+W−1 tokens shares a fingerprint (the coverage property ad-hoc
    mod-p sampling lacks — cf. ``doc_rolling_fp``). Pure map (a doc is
    one row); the sliding min is a vectorized stride trick."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def fps(batch: pa.Table) -> pa.Table:
        out_id, out_fp = [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            toks = _TOKEN_RE.findall((text or "").lower())
            if len(toks) == 0:
                continue
            if len(toks) < WINNOW_K:
                grams = [" ".join(toks)]
            else:
                grams = [
                    " ".join(toks[i : i + WINNOW_K])
                    for i in range(len(toks) - WINNOW_K + 1)
                ]
            hs = np.array(
                [
                    hashlib.md5(g.encode("utf-8")).hexdigest()[:16]
                    for g in grams
                ],
                dtype=object,
            )
            if hs.size == 0:
                continue
            if hs.size < WINNOW_W:
                sel = {hs.min()}
            else:
                win = np.lib.stride_tricks.sliding_window_view(
                    hs, WINNOW_W
                )
                sel = set(win.min(axis=1))
            for fp in sorted(sel):
                out_id.append(did)
                out_fp.append(fp)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "fp": pa.array(out_fp, pa.string()),
            }
        )

    return docs.map_batches(fps, batch_format="pyarrow")


def doc_dedup_keep_longest(sf_dir: str) -> Dataset:
    """Near-dup survivorship by LENGTH (the curation policy that keeps
    the most complete copy instead of the min-id one): over the
    exact-verified 3-gram Jaccard clusters (``doc_jaccard_clusters``
    machinery), keep = 1 for each cluster's longest doc (n_chars DESC,
    doc_id ASC tiebreak), 0 for the rest; singletons don't appear
    (trivially kept). Member attrs attach via a candidate-bounded
    broadcast (the verify-stage convention); the per-cluster argmax is
    member-bounded."""
    from ..stages.canonicalize import connected_components
    from ..stages.dedup import _id_key, ngram_jaccard_pairs

    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text", "n_chars"]
    )
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "cluster_id": pa.array([], pa.int64()),
            "keep": pa.array([], pa.int64()),
        }
    )

    def as_keys(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": pa.array(
                    [_id_key(v) for v in t["a"].to_pylist()], pa.string()
                ),
                "b": pa.array(
                    [_id_key(v) for v in t["b"].to_pylist()], pa.string()
                ),
            }
        )

    pairs = (
        ngram_jaccard_pairs(
            docs.select_columns(["doc_id", "text"]), threshold=0.8
        )
        .map_batches(as_keys, batch_format="pyarrow")
        .materialize()
    )
    if pairs.count() == 0:
        return rd.from_arrow(empty)
    nmerge = group_sum_merge(("node",), ("one",))

    def node_rows(t: pa.Table) -> pa.Table:
        return nmerge(
            pa.table(
                {
                    "node": pa.concat_arrays(
                        [t["a"].combine_chunks(), t["b"].combine_chunks()]
                    ),
                    "one": pa.array(np.ones(2 * t.num_rows, np.int64)),
                }
            )
        )

    nodes = tree_combine(
        pairs.map_batches(node_rows, batch_format="pyarrow"), nmerge
    ).select_columns(["node"])
    cc = connected_components(pairs, nodes)

    # member → n_chars via one corpus pass against the broadcast member
    # set (candidate-bounded: members = nodes of the capped LSH pair
    # stage, not the corpus). Sorted-array + np.isin, no per-row Python.
    members: set = set()
    for t in nodes.iter_batches(batch_size=None, batch_format="pyarrow"):
        members.update(int(v) for v in t["node"].to_pylist())
    mref = ray.put(np.array(sorted(members), dtype=np.int64))

    def member_chars(t: pa.Table, mref=mref) -> pa.Table:
        ms = ray.get(mref) if isinstance(mref, ray.ObjectRef) else mref
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nc = t["n_chars"].to_numpy(zero_copy_only=False)
        keep = np.isin(ids, ms)
        return pa.table(
            {
                "doc_id": pa.array(ids[keep].astype(np.int64), pa.int64()),
                "n_chars": pa.array(nc[keep].astype(np.int64), pa.int64()),
            }
        )

    chars: dict[int, int] = {}
    for t in docs.map_batches(
        member_chars, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        chars.update(
            zip(t["doc_id"].to_pylist(), t["n_chars"].to_pylist())
        )
    cref = ray.put(chars)

    def with_attrs(t: pa.Table, cref=cref) -> pa.Table:
        cm = ray.get(cref) if isinstance(cref, ray.ObjectRef) else cref
        ids = [int(v) for v in t["node"].to_pylist()]
        return pa.table(
            {
                "cluster_id": pa.array(
                    [int(v) for v in t["label"].to_pylist()], pa.int64()
                ),
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars": pa.array(
                    [int(cm.get(i, 0)) for i in ids], pa.int64()
                ),
            }
        )

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["n_chars", "doc_id"], ascending=[False, True],
            kind="mergesort",
        )
        keep = np.zeros(len(g), np.int64)
        keep[0] = 1
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "cluster_id": g["cluster_id"].to_numpy(np.int64),
                "keep": keep,
            }
        )

    out = (
        cc.map_batches(with_attrs, batch_format="pyarrow")
        .groupby("cluster_id")
        .map_groups(pick, batch_format="pandas")
    )

    def pin(df: pd.DataFrame) -> pa.Table:
        if df.empty or "doc_id" not in df.columns:
            return empty
        return pa.table(
            {
                "doc_id": pa.array(df["doc_id"].to_numpy(np.int64), pa.int64()),
                "cluster_id": pa.array(
                    df["cluster_id"].to_numpy(np.int64), pa.int64()
                ),
                "keep": pa.array(df["keep"].to_numpy(np.int64), pa.int64()),
            }
        )

    return out.map_batches(pin, batch_format="pandas")


def embedding_centroid_outliers(sf_dir: str) -> Dataset:
    """Embedding quality audit: top-10 vectors by Euclidean distance to
    their OWN label centroid (mislabeled / out-of-distribution
    candidates). The label×dim centroid matrix concentrates via the
    ``embedding_label_centroids`` partial-sum chain and broadcasts once;
    the distance pass is one vectorized matmul-free scan with per-batch
    local top-10 + associative tree merge. Float caveat: centroid and
    distance sums are differently-ordered double summation vs the oracle
    (the documented kmeans/PCA fragility class) — rounded to 4."""
    from ..stages.similarity import _vectors_of

    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["vec_id", "label", "embedding"]
    )
    empty = pa.table(
        {
            "vec_id": pa.array([], pa.int64()),
            "label": pa.array([], pa.int64()),
            "dist": pa.array([], pa.float64()),
        }
    )

    def partials(batch: pa.Table) -> pa.Table:
        X = _vectors_of(batch, "embedding")
        labels = batch["label"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(labels, return_inverse=True)
        counts = np.bincount(inv)
        sums = np.zeros((len(uniq), X.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, X)
        return pa.table(
            {
                "label": pa.array(uniq.astype(np.int64), pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
                "sums": pa.array(list(sums), pa.list_(pa.float64())),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        labels = t["label"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        S = _vectors_of(t, "sums")
        uniq, inv = np.unique(labels, return_inverse=True)
        counts = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(counts, inv, n)
        sums = np.zeros((len(uniq), S.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, S)
        return pa.table(
            {
                "label": pa.array(uniq.astype(np.int64), pa.int64()),
                "n": pa.array(counts, pa.int64()),
                "sums": pa.array(list(sums), pa.list_(pa.float64())),
            }
        )

    cen = tree_combine(
        emb.map_batches(partials, batch_format="pyarrow"), merge
    ).to_pandas()
    if cen.empty or "label" not in cen.columns:
        return rd.from_arrow(empty)
    labels = cen["label"].to_numpy(np.int64)
    C = np.stack(cen["sums"].to_numpy()) / cen["n"].to_numpy(np.float64)[
        :, None
    ]
    lab_idx = {int(l): i for i, l in enumerate(labels)}
    cref = ray.put((lab_idx, C))

    cut = topk_merge(10, "d2", ["vec_id"])

    def dist_batch(t: pa.Table, cref=cref) -> pa.Table:
        lab_idx, C = ray.get(cref) if isinstance(cref, ray.ObjectRef) else cref
        X = _vectors_of(t, "embedding").astype(np.float64)
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.array([lab_idx[int(l)] for l in lab], np.int64)
        diff = X - C[idx]
        d2 = np.einsum("ij,ij->i", diff, diff)
        part = pa.table(
            {
                "vec_id": t["vec_id"].cast(pa.int64()),
                "label": pa.array(lab, pa.int64()),
                "d2": pa.array(d2, pa.float64()),
            }
        )
        return cut(part)

    top = tree_combine(
        emb.map_batches(dist_batch, batch_format="pyarrow"), cut
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "vec_id" not in t.column_names:
            return empty
        df = t.to_pandas().sort_values(
            ["d2", "vec_id"], ascending=[False, True], kind="mergesort"
        )
        return pa.table(
            {
                "vec_id": pa.array(df["vec_id"].to_numpy(np.int64), pa.int64()),
                "label": pa.array(df["label"].to_numpy(np.int64), pa.int64()),
                "dist": pa.array(
                    round_half_away(np.sqrt(df["d2"].to_numpy()), 4),
                    pa.float64(),
                ),
            }
        )

    return top.map_batches(finish, batch_size=None, batch_format="pyarrow")


def events_type_trigrams_top20(sf_dir: str) -> Dataset:
    """Behavioral sequence mining one order up from the transition
    matrix: top-20 event-type TRIGRAMS over each user's (ts, event_id)-
    ordered stream. ONE user-key groupby (per-group partials pre-
    aggregate to distinct-trigram rows), a trigram census tree combine,
    an associative top-k cut — no window-function shuffle."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type", "ts", "event_id"]
    )
    empty = pa.table(
        {
            "trigram": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        }
    )

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_type": t["event_type"],
                "ts_us": t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
                "event_id": t["event_id"],
            }
        )

    def tri_of(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts_us", "event_id"], kind="mergesort")
        et = g["event_type"].to_numpy(dtype=object)
        if et.size < 3:
            return pd.DataFrame(
                {
                    "trigram": pd.Series([], dtype="object"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        tri = np.array(
            [
                f"{et[i]}>{et[i + 1]}>{et[i + 2]}"
                for i in range(et.size - 2)
            ],
            dtype=object,
        )
        vc = pd.Series(tri).value_counts()
        return pd.DataFrame(
            {
                "trigram": vc.index.to_numpy(dtype=object),
                "n": vc.to_numpy().astype(np.int64),
            }
        )

    merge = group_sum_merge(("trigram",), ("n",))
    census = tree_combine(
        ev.map_batches(to_us, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(tri_of, batch_format="pandas"),
        merge,
    )
    cut = topk_merge(20, "n", ["trigram"])

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "trigram" not in t.column_names:
            return empty
        out = cut(
            pa.table(
                {"trigram": t["trigram"], "n": t["n"].cast(pa.int64())}
            )
        )
        return out

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


BOT_MIN_EVENTS = 40
BOT_MAX_MED_GAP_S = 2400


def events_bot_users(sf_dir: str) -> Dataset:
    """Bot/automation screening (the data-cleaning gate a behavioral
    corpus needs before modeling): per user with ≥2 events, event count,
    exact MEDIAN inter-event gap in whole seconds (quantile_disc order
    statistic over the (ts, event_id)-ordered stream), and the flag
    n ≥ 40 ∧ median gap < 2400 s. ONE user-key groupby; gaps never
    leave their group (fixed-width per-user summary rows out)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts", "event_id"]
    )
    empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
            "med_gap_s": pa.array([], pa.int64()),
            "is_bot": pa.array([], pa.int64()),
        }
    )

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts_us": t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
                "event_id": t["event_id"],
            }
        )

    def stats_of(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "n_events": pd.Series([], dtype="int64"),
                    "med_gap_s": pd.Series([], dtype="int64"),
                    "is_bot": pd.Series([], dtype="int64"),
                }
            )
        g = g.sort_values(["ts_us", "event_id"], kind="mergesort")
        ts = g["ts_us"].to_numpy(dtype=np.int64)
        gaps = np.sort((ts[1:] - ts[:-1]) // 1_000_000)
        n = len(g)
        med = int(gaps[max(int(np.ceil(gaps.size * 0.5)) - 1, 0)])
        bot = int(n >= BOT_MIN_EVENTS and med < BOT_MAX_MED_GAP_S)
        return pd.DataFrame(
            {
                "user_id": pd.Series(
                    [int(g["user_id"].iloc[0])], dtype="int64"
                ),
                "n_events": pd.Series([n], dtype="int64"),
                "med_gap_s": pd.Series([med], dtype="int64"),
                "is_bot": pd.Series([bot], dtype="int64"),
            }
        )

    out = (
        ev.map_batches(to_us, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(stats_of, batch_format="pandas")
    )

    def pin(df: pd.DataFrame) -> pa.Table:
        if df.empty or "user_id" not in df.columns:
            return empty
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64), pa.int64()),
                "n_events": pa.array(
                    df["n_events"].to_numpy(np.int64), pa.int64()
                ),
                "med_gap_s": pa.array(
                    df["med_gap_s"].to_numpy(np.int64), pa.int64()
                ),
                "is_bot": pa.array(df["is_bot"].to_numpy(np.int64), pa.int64()),
            }
        )

    return out.map_batches(pin, batch_format="pandas")


ATTRIB_WINDOW_US = 7 * 86_400_000_000
ATTRIB_MILLI = 1000


def events_attribution_linear(sf_dir: str) -> Dataset:
    """Linear multi-touch attribution in EXACT integer milli-credits:
    each purchase distributes 1000 milli-credits equally over the user's
    clicks in the preceding 7 days (1000 // m each; the 1000 % m
    remainder goes to the EARLIEST clicks — deterministic, no floats).
    Output: per click epoch-week, credited touch count and total
    milli-credit. ONE user-key groupby; per-purchase click windows via
    searchsorted; the week census is a tree combine."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type", "ts", "event_id"]
    )
    empty = pa.table(
        {
            "wk": pa.array([], pa.int64()),
            "n_touches": pa.array([], pa.int64()),
            "credit_milli": pa.array([], pa.int64()),
        }
    )

    def keep(t: pa.Table) -> pa.Table:
        mask = pc.is_in(
            t["event_type"], value_set=pa.array(["click", "purchase"])
        )
        kept = t.filter(mask)
        return pa.table(
            {
                "user_id": kept["user_id"],
                "event_type": kept["event_type"],
                "ts_us": kept["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
                "event_id": kept["event_id"],
            }
        )

    def credits_of(g: pd.DataFrame) -> pd.DataFrame:
        et = g["event_type"].to_numpy()
        c = (
            g[et == "click"]
            .sort_values(["ts_us", "event_id"], kind="mergesort")
        )
        p_ts = np.sort(g.loc[et == "purchase", "ts_us"].to_numpy(np.int64))
        cts = c["ts_us"].to_numpy(dtype=np.int64)
        if cts.size == 0 or p_ts.size == 0:
            return pd.DataFrame(
                {
                    "wk": pd.Series([], dtype="int64"),
                    "n_touches": pd.Series([], dtype="int64"),
                    "credit_milli": pd.Series([], dtype="int64"),
                }
            )
        credit = np.zeros(cts.size, np.int64)
        touched = np.zeros(cts.size, np.int64)
        for pt in p_ts:
            lo = np.searchsorted(cts, pt - ATTRIB_WINDOW_US, "left")
            hi = np.searchsorted(cts, pt, "left")
            m = hi - lo
            if m == 0:
                continue
            base, rem = divmod(ATTRIB_MILLI, m)
            credit[lo:hi] += base
            credit[lo : lo + rem] += 1
            touched[lo:hi] += 1
        sel = touched > 0
        df = pd.DataFrame(
            {
                "wk": cts[sel] // WEEK_US,
                "n_touches": touched[sel],
                "credit_milli": credit[sel],
            }
        )
        out = df.groupby("wk", as_index=False).sum()
        return out.astype(
            {"wk": "int64", "n_touches": "int64", "credit_milli": "int64"}
        )

    merge = group_sum_merge(("wk",), ("n_touches", "credit_milli"))
    census = tree_combine(
        ev.map_batches(keep, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(credits_of, batch_format="pandas"),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "wk" not in t.column_names:
            return empty
        return pa.table(
            {
                "wk": t["wk"].cast(pa.int64()),
                "n_touches": t["n_touches"].cast(pa.int64()),
                "credit_milli": t["credit_milli"].cast(pa.int64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


FUNNEL_SWEEP_WINDOWS_S = (900, 3600, 21600)  # 15 min / 1 h / 6 h


def events_funnel_window_sweep(sf_dir: str) -> Dataset:
    """Window-sensitivity sweep of the time-bounded funnel: the
    ``events_windowed_funnel`` reachable-set DP evaluated at THREE
    transition windows (15 min / 1 h / 6 h) in ONE user-key shuffle —
    the per-user sorted arrays are built once and probed three times,
    so adding a window costs two searchsorted passes, not a pipeline.
    Output: (window_s, stage, n_users)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type", "ts"]
    )
    empty = pa.table(
        {
            "window_s": pa.array([], pa.int64()),
            "stage": pa.array([], pa.int64()),
            "n_users": pa.array([], pa.int64()),
        }
    )

    def keep(t: pa.Table) -> pa.Table:
        mask = pc.is_in(
            t["event_type"],
            value_set=pa.array(["view", "click", "purchase"]),
        )
        users = pc.unique(t["user_id"])
        if isinstance(users, pa.ChunkedArray):
            users = users.combine_chunks()
        kept = t.filter(mask)
        return pa.table(
            {
                "user_id": pa.concat_arrays(
                    [kept["user_id"].combine_chunks(), users]
                ),
                "event_type": pa.concat_arrays(
                    [
                        kept["event_type"].combine_chunks(),
                        pa.array([""] * len(users), pa.string()),
                    ]
                ),
                "ts_us": pa.concat_arrays(
                    [
                        kept["ts"]
                        .cast(pa.timestamp("us"))
                        .cast(pa.int64())
                        .combine_chunks(),
                        pa.array([0] * len(users), pa.int64()),
                    ]
                ),
            }
        )

    def stages_of(g: pd.DataFrame) -> pd.DataFrame:
        et = g["event_type"].to_numpy()
        ts = g["ts_us"].to_numpy()
        v = np.sort(ts[et == "view"])
        c = np.sort(ts[et == "click"])
        p = np.sort(ts[et == "purchase"])
        ws, st = [], []
        for w_s in FUNNEL_SWEEP_WINDOWS_S:
            W = w_s * 1_000_000
            stage = 0
            if v.size:
                stage = 1
                lo = np.searchsorted(v, c - W, "left")
                hi = np.searchsorted(v, c, "left")
                rc = c[hi > lo]
                if rc.size:
                    stage = 2
                    lo = np.searchsorted(rc, p - W, "left")
                    hi = np.searchsorted(rc, p, "left")
                    if (hi > lo).any():
                        stage = 3
            ws.append(w_s)
            st.append(stage)
        return pd.DataFrame(
            {
                "window_s": pd.Series(ws, dtype="int64"),
                "stage": pd.Series(st, dtype="int64"),
                "n_users": pd.Series(
                    np.ones(len(ws), np.int64), dtype="int64"
                ),
            }
        )

    merge = group_sum_merge(("window_s", "stage"), ("n_users",))
    census = tree_combine(
        ev.map_batches(keep, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(stages_of, batch_format="pandas"),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "window_s" not in t.column_names:
            return empty
        return pa.table(
            {
                "window_s": t["window_s"].cast(pa.int64()),
                "stage": t["stage"].cast(pa.int64()),
                "n_users": t["n_users"].cast(pa.int64()),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


def events_bounce_rate_weekly(sf_dir: str) -> Dataset:
    """Weekly session bounce rate: sessions via the house 30-minute
    inactivity rule (the ``events_sessions`` definition), bounce =
    single-event session, grouped by the session-start epoch week.
    Per-user session reduction in ONE user-key groupby (fixed-width
    (week, is_bounce) rows out), week census tree-combined; the one
    division happens on the driver and in the oracle identically."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "ts"])
    empty = pa.table(
        {
            "wk": pa.array([], pa.int64()),
            "n_sessions": pa.array([], pa.int64()),
            "n_bounce": pa.array([], pa.int64()),
            "bounce_rate": pa.array([], pa.float64()),
        }
    )
    gap_us = 30 * 60 * 1_000_000

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts_us": t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            }
        )

    def sessions_of(g: pd.DataFrame, gap_us=gap_us) -> pd.DataFrame:
        ts = np.sort(g["ts_us"].to_numpy(dtype=np.int64))
        starts = np.concatenate(
            [[True], (ts[1:] - ts[:-1]) > gap_us]
        )
        idx = np.flatnonzero(starts)
        sizes = np.diff(np.append(idx, ts.size))
        return pd.DataFrame(
            {
                "wk": pd.Series(ts[idx] // WEEK_US, dtype="int64"),
                "n_sessions": pd.Series(
                    np.ones(idx.size, np.int64), dtype="int64"
                ),
                "n_bounce": pd.Series(
                    (sizes == 1).astype(np.int64), dtype="int64"
                ),
            }
        )

    merge = group_sum_merge(("wk",), ("n_sessions", "n_bounce"))
    census = tree_combine(
        ev.map_batches(to_us, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(sessions_of, batch_format="pandas"),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "wk" not in t.column_names:
            return empty
        ns = t["n_sessions"].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = t["n_bounce"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "wk": t["wk"].cast(pa.int64()),
                "n_sessions": pa.array(ns, pa.int64()),
                "n_bounce": pa.array(nb, pa.int64()),
                "bounce_rate": pa.array(
                    round_half_away(nb / ns, 4), pa.float64()
                ),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


REPEAT_WINDOW_DAYS = 90


def orders_cohort_repeat_rate(sf_dir: str) -> Dataset:
    """Relational cohort analysis: per first-order month cohort, the
    share of customers placing a SECOND order within 90 days of their
    first. One custkey-key groupby (per-customer reduction: min date +
    one strictly-later-within-window existence probe, both on int64
    epoch-µs), month census tree-combined."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_custkey", "o_orderdate"]
    )
    empty = pa.table(
        {
            "cohort_month": pa.array([], pa.timestamp("us")),
            "n_customers": pa.array([], pa.int64()),
            "n_repeat": pa.array([], pa.int64()),
            "repeat_rate": pa.array([], pa.float64()),
        }
    )
    win_us = REPEAT_WINDOW_DAYS * 86_400_000_000

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "od_us": t["o_orderdate"]
                .cast(pa.timestamp("us"))
                .cast(pa.int64()),
            }
        )

    def per_cust(g: pd.DataFrame, win_us=win_us) -> pd.DataFrame:
        ts = np.sort(g["od_us"].to_numpy(dtype=np.int64))
        first = int(ts[0])
        rep = int(((ts > first) & (ts <= first + win_us)).any())
        month = pd.Timestamp(first, unit="us").to_period("M").start_time
        return pd.DataFrame(
            {
                "m_us": pd.Series([month.value // 1000], dtype="int64"),
                "n_customers": pd.Series([1], dtype="int64"),
                "n_repeat": pd.Series([rep], dtype="int64"),
            }
        )

    merge = group_sum_merge(("m_us",), ("n_customers", "n_repeat"))
    census = tree_combine(
        orders.map_batches(to_us, batch_format="pyarrow")
        .groupby("o_custkey")
        .map_groups(per_cust, batch_format="pandas"),
        merge,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "m_us" not in t.column_names:
            return empty
        nc = t["n_customers"].to_numpy(zero_copy_only=False).astype(np.int64)
        nr = t["n_repeat"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "cohort_month": t["m_us"]
                .cast(pa.int64())
                .cast(pa.timestamp("us")),
                "n_customers": pa.array(nc, pa.int64()),
                "n_repeat": pa.array(nr, pa.int64()),
                "repeat_rate": pa.array(
                    round_half_away(nr / nc, 4), pa.float64()
                ),
            }
        )

    return census.map_batches(finish, batch_size=None, batch_format="pyarrow")


Q2_SIZE = 15
Q2_TYPE = "ECONOMY"
Q2_REGION = "EUROPE"


def part_mincost_supplier_q2(sf_dir: str) -> pa.Table:
    """TPC-H Q2 SHAPE (min-cost supplier per part within a region),
    adapted to this schema: no partsupp, so supply cost per
    (part, supplier) is the observed lineitem unit price — integer-exact
    as cost_micro = floor(Σcents·10⁴ / Σqty) (prices are exact cents,
    quantities integral, so BOTH sides compute the identical BIGINT; no
    float min-equality anywhere, the fragility class ADVICE r3 flagged).
    Shape: part/supplier/nation/region are dimension-sized broadcasts;
    ONE lineitem pass emits per-batch (pk, sk, cents, qty) partial sums
    map-side filtered to surviving parts × in-region suppliers (so the
    combine is candidate-bounded, not corpus-bounded); tree-combined;
    the argmin per part (tie-break suppkey) and the final total-order
    sort happen on the candidate-sized result. Completes the TPC-H suite
    alongside Q1/Q3-Q19/Q21/Q22."""
    # round-5 audit: predicate pushdown on the dimension reads — only
    # the SURVIVING part/supplier rows ever reach the driver (the
    # broadcast stays filtered-dimension-sized even when the raw
    # dimension tables grow with SF)
    part = pq.read_table(
        _p(sf_dir, "part"),
        columns=["p_partkey", "p_name", "p_size", "p_type"],
        filters=[("p_size", "==", Q2_SIZE), ("p_type", "==", Q2_TYPE)],
    ).to_pandas()
    nat = pq.read_table(
        _p(sf_dir, "nation"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    ).to_pandas()
    reg = pq.read_table(
        _p(sf_dir, "region"), columns=["r_regionkey", "r_name"]
    ).to_pandas()
    nat = nat.merge(
        reg[reg["r_name"] == Q2_REGION], left_on="n_regionkey",
        right_on="r_regionkey",
    )
    sup = pq.read_table(
        _p(sf_dir, "supplier"),
        columns=["s_suppkey", "s_name", "s_nationkey", "s_acctbal"],
        filters=[("s_nationkey", "in", nat["n_nationkey"].tolist() or [-1])],
    ).to_pandas()
    sup = sup.merge(nat, left_on="s_nationkey", right_on="n_nationkey")
    empty = pa.table(
        {
            "s_acctbal": pa.array([], pa.float64()),
            "s_name": pa.array([], pa.string()),
            "n_name": pa.array([], pa.string()),
            "p_partkey": pa.array([], pa.int64()),
            "p_name": pa.array([], pa.string()),
            "cost_micro": pa.array([], pa.int64()),
        }
    )
    if part.empty or sup.empty:
        return empty
    pname = {int(k): v for k, v in zip(part["p_partkey"], part["p_name"])}
    sinfo = {
        int(k): (str(nm), str(nn), float(ab))
        for k, nm, nn, ab in zip(
            sup["s_suppkey"], sup["s_name"], sup["n_name"], sup["s_acctbal"]
        )
    }
    pk_ref = ray.put(np.fromiter(pname, dtype=np.int64))
    sk_ref = ray.put(np.fromiter(sinfo, dtype=np.int64))

    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"],
    )

    def partial(batch: pa.Table, pk_ref=pk_ref, sk_ref=sk_ref) -> pa.Table:
        pks = ray.get(pk_ref) if isinstance(pk_ref, ray.ObjectRef) else pk_ref
        sks = ray.get(sk_ref) if isinstance(sk_ref, ray.ObjectRef) else sk_ref
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        keep = np.isin(pk, pks) & np.isin(sk, sks)
        if not keep.any():
            return pa.table(
                {
                    "pk": pa.array([], pa.int64()),
                    "sk": pa.array([], pa.int64()),
                    "cents": pa.array([], pa.int64()),
                    "qty": pa.array([], pa.int64()),
                }
            )
        pk, sk = pk[keep], sk[keep]
        cents = np.rint(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
            * 100.0
        ).astype(np.int64)
        qty = np.rint(
            batch["l_quantity"].to_numpy(zero_copy_only=False)[keep]
        ).astype(np.int64)
        df = pd.DataFrame({"pk": pk, "sk": sk, "cents": cents, "qty": qty})
        g = df.groupby(["pk", "sk"], sort=False, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False).cast(
            pa.schema(
                [
                    ("pk", pa.int64()),
                    ("sk", pa.int64()),
                    ("cents", pa.int64()),
                    ("qty", pa.int64()),
                ]
            )
        )

    merge = group_sum_merge(("pk", "sk"), ("cents", "qty"))
    # candidate-bounded census → driver (NOTES: an all-empty block stream
    # bypasses map fns entirely on Ray 2.49, so the finish must not be a
    # map_batches — seed the concat to keep the schema when zero rows
    # survive the filters)
    t = pa.concat_tables(
        [
            pa.table(
                {
                    "pk": pa.array([], pa.int64()),
                    "sk": pa.array([], pa.int64()),
                    "cents": pa.array([], pa.int64()),
                    "qty": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                li.map_batches(partial, batch_format="pyarrow"), merge
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        best: dict = {}  # pk -> (cost_micro, sk)
        for pk, sk, cents, qty in zip(
            t["pk"].to_pylist(), t["sk"].to_pylist(),
            t["cents"].to_pylist(), t["qty"].to_pylist(),
        ):
            cm = (cents * 10000) // qty  # exact Python ints: no overflow
            cur = best.get(pk)
            if cur is None or (cm, sk) < cur:
                best[pk] = (cm, sk)
        rows = []
        for pk, (cm, sk) in best.items():
            nm, nn, ab = sinfo[sk]
            rows.append((ab, nm, nn, pk, pname[pk], cm))
        # total order: acctbal DESC then n_name, s_name, p_partkey ASC
        rows.sort(key=lambda r: (-r[0], r[2], r[1], r[3]))
        rows = rows[:100]
        return pa.table(
            {
                "s_acctbal": pa.array([r[0] for r in rows], pa.float64()),
                "s_name": pa.array([r[1] for r in rows], pa.string()),
                "n_name": pa.array([r[2] for r in rows], pa.string()),
                "p_partkey": pa.array([r[3] for r in rows], pa.int64()),
                "p_name": pa.array([r[4] for r in rows], pa.string()),
                "cost_micro": pa.array([r[5] for r in rows], pa.int64()),
            }
        )

    return finish(t)


Q20_NAME_PREFIX = "red "
Q20_NATION = "NATION_7"
Q20_QTY_THRESHOLD = 30
Q20_YEAR = 1996


def supplier_promo_stock_q20(sf_dir: str) -> pa.Table:
    """TPC-H Q20 SHAPE (suppliers with meaningful stock of name-prefix
    parts, restricted to one nation), adapted: no partsupp availqty, so a
    supplier qualifies when some prefix-part's shipped quantity in the
    target year exceeds a fixed threshold (integer-exact; the original's
    0.5·availqty comparison has no data to bind to). Shape: the prefix
    part set is dimension-sized and broadcast; ONE windowed lineitem pass
    emits (pk, sk, qty) partials (candidate-bounded combine), the
    qualifying suppkey set falls out of the tree-combined census, and the
    nation-filtered supplier table (dimension-sized) is semi-joined on
    the driver. Output ordered by s_name (unique in TPC-H)."""
    # round-5 audit: predicate pushdown — the prefix filter runs inside
    # the scan (pyarrow dataset compute expression), so only surviving
    # part rows ever materialize driver-side; supplier is pre-pruned to
    # the target nation's key at the read
    import pyarrow.dataset as pads

    part = (
        pads.dataset(_p(sf_dir, "part"), format="parquet")
        .to_table(
            columns=["p_partkey", "p_name"],
            filter=pc.starts_with(
                pads.field("p_name"), pattern=Q20_NAME_PREFIX
            ),
        )
        .to_pandas()
    )
    nat = pq.read_table(
        _p(sf_dir, "nation"), columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nat = nat[nat["n_name"] == Q20_NATION]
    sup = pq.read_table(
        _p(sf_dir, "supplier"),
        columns=["s_suppkey", "s_name", "s_nationkey", "s_acctbal"],
        filters=[("s_nationkey", "in", nat["n_nationkey"].tolist() or [-1])],
    ).to_pandas()
    sup = sup.merge(nat, left_on="s_nationkey", right_on="n_nationkey")
    empty = pa.table(
        {
            "s_name": pa.array([], pa.string()),
            "s_acctbal": pa.array([], pa.float64()),
        }
    )
    if part.empty or sup.empty:
        return empty
    pk_ref = ray.put(part["p_partkey"].to_numpy(dtype=np.int64))
    lo = np.datetime64(f"{Q20_YEAR}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{Q20_YEAR + 1}-01-01", "us").astype(np.int64)

    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    )

    def partial(batch: pa.Table, pk_ref=pk_ref) -> pa.Table:
        pks = ray.get(pk_ref) if isinstance(pk_ref, ray.ObjectRef) else pk_ref
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        ts = (
            batch["l_shipdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        keep = np.isin(pk, pks) & (ts >= lo) & (ts < hi)
        if not keep.any():
            return pa.table(
                {
                    "pk": pa.array([], pa.int64()),
                    "sk": pa.array([], pa.int64()),
                    "qty": pa.array([], pa.int64()),
                }
            )
        df = pd.DataFrame(
            {
                "pk": pk[keep],
                "sk": batch["l_suppkey"].to_numpy(zero_copy_only=False)[keep],
                "qty": np.rint(
                    batch["l_quantity"].to_numpy(zero_copy_only=False)[keep]
                ).astype(np.int64),
            }
        )
        g = df.groupby(["pk", "sk"], sort=False, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False).cast(
            pa.schema(
                [("pk", pa.int64()), ("sk", pa.int64()), ("qty", pa.int64())]
            )
        )

    merge = group_sum_merge(("pk", "sk"), ("qty",))
    # candidate-bounded census → driver (empty-block-stream rule, see Q2)
    t = pa.concat_tables(
        [
            pa.table(
                {
                    "pk": pa.array([], pa.int64()),
                    "sk": pa.array([], pa.int64()),
                    "qty": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                li.map_batches(partial, batch_format="pyarrow"), merge
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    s_by_key = {
        int(k): (str(nm), float(ab))
        for k, nm, ab in zip(
            sup["s_suppkey"], sup["s_name"], sup["s_acctbal"]
        )
    }

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        qty = t["qty"].to_numpy(zero_copy_only=False)
        sk = t["sk"].to_numpy(zero_copy_only=False)
        qual = np.unique(sk[qty > Q20_QTY_THRESHOLD])
        rows = sorted(
            s_by_key[int(k)] for k in qual if int(k) in s_by_key
        )
        return pa.table(
            {
                "s_name": pa.array([r[0] for r in rows], pa.string()),
                "s_acctbal": pa.array([r[1] for r in rows], pa.float64()),
            }
        )

    return finish(t)


def corpus_zipf_fit(sf_dir: str) -> pa.Table:
    """Zipf-law fit over the token frequency census: OLS of ln(freq) on
    ln(rank) where rank is the total order (count DESC, token ASC) —
    the standard corpus-statistics health check for a training corpus
    (a slope far from −1 flags templated / degenerate text). The census
    is the token_freq partial-counts pass (vocabulary-sized shuffle);
    ranks and the closed-form OLS sums are computed in ONE numpy sweep
    inside the final map — both sides evaluate the identical explicit
    Σ formulas on identical integer inputs (float-parity note: double
    summation order may differ by ulps; rounded at 4 decimals, the
    NOTES.md convention)."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])
    empty = pa.table(
        {
            "n_types": pa.array([], pa.int64()),
            "slope": pa.array([], pa.float64()),
            "intercept": pa.array([], pa.float64()),
            "r2": pa.array([], pa.float64()),
        }
    )

    def partial_counts(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch["text"].to_pylist():
            if text:
                c.update(_TOKEN_RE.findall(text))
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    merge = group_sum_merge(("token",), ("n",))
    # vocabulary-sized census → driver (empty-block-stream rule, see Q2)
    t = pa.concat_tables(
        [
            pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                docs.map_batches(partial_counts, batch_format="pyarrow"),
                merge,
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows < 2:
            return empty
        df = pd.DataFrame(
            {"token": t["token"].to_pylist(), "n": t["n"].to_pylist()}
        ).sort_values(["n", "token"], ascending=[False, True])
        k = len(df)
        x = np.log(np.arange(1, k + 1, dtype=np.float64))
        y = np.log(df["n"].to_numpy(dtype=np.float64))
        sx, sy = float(x.sum()), float(y.sum())
        sxx, syy = float((x * x).sum()), float((y * y).sum())
        sxy = float((x * y).sum())
        den = k * sxx - sx * sx
        slope = (k * sxy - sx * sy) / den
        intercept = (sy - slope * sx) / k
        deny = k * syy - sy * sy
        r2 = ((k * sxy - sx * sy) ** 2) / (den * deny) if deny else 1.0
        return pa.table(
            {
                "n_types": pa.array([k], pa.int64()),
                "slope": pa.array(
                    round_half_away(np.array([slope]), 4), pa.float64()
                ),
                "intercept": pa.array(
                    round_half_away(np.array([intercept]), 4), pa.float64()
                ),
                "r2": pa.array(
                    round_half_away(np.array([r2]), 4), pa.float64()
                ),
            }
        )

    return finish(t)


SAMPLING_TEMPERATURE_ALPHA = 0.3


def corpus_temperature_weights(sf_dir: str) -> pa.Table:
    """Temperature-smoothed multilingual sampling weights (the XLM-R /
    mBERT exponent trick): q_l ∝ p_l^α with α=0.3, where p_l is the
    language's share of the corpus — the standard knob for up-sampling
    low-resource languages when drawing a training mix. Language census
    is a map-side partial count (language-cardinality-sized rows) tree-
    combined; the two normalizations happen in ONE final map over the
    tiny census, identically to the oracle's arithmetic."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["lang"])
    empty = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "p": pa.array([], pa.float64()),
            "q": pa.array([], pa.float64()),
        }
    )

    def partial(t: pa.Table) -> pa.Table:
        vc = t["lang"].to_pandas().value_counts()
        return pa.table(
            {
                "lang": pa.array(vc.index.astype(str), pa.string()),
                "n_docs": pa.array(vc.to_numpy(np.int64), pa.int64()),
            }
        )

    merge = group_sum_merge(("lang",), ("n_docs",))
    # language-cardinality census → driver (empty-block-stream rule)
    t = pa.concat_tables(
        [
            pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                docs.map_batches(partial, batch_format="pyarrow"), merge
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        n = t["n_docs"].to_numpy(zero_copy_only=False).astype(np.float64)
        p = n / n.sum()
        pw = p ** SAMPLING_TEMPERATURE_ALPHA
        q = pw / pw.sum()
        return pa.table(
            {
                "lang": t["lang"].cast(pa.string()),
                "n_docs": t["n_docs"].cast(pa.int64()),
                "p": pa.array(round_half_away(p, 4), pa.float64()),
                "q": pa.array(round_half_away(q, 4), pa.float64()),
            }
        )

    return finish(t)


# --------------------------------------------------------- CDC snapshot diff


def events_snapshot_diff(sf_dir: str) -> pa.Table:
    """CDC SNAPSHOT DIFF (the replication-validation / incremental-refresh
    audit shape: given the same append-only log read at two watermarks,
    classify every key as inserted / updated / unchanged / deleted between
    the two derived latest-row snapshots). Watermarks are data-derived —
    T1 = tmin + span//2, T2 = tmin + 3·span//4, exact int µs on both
    sides — so the op is self-scaling. ONE events pass emits per-batch
    per-(user, side) keep-latest partials (side 0 = as-of T1, side 1 =
    as-of T2; latest = lexicographic max of (ts, event_id) — the
    events_latest_per_user convention); the associative lexmax merge
    tree-combines user-vocabulary-sized fixed-width rows, and the final
    4-row category census falls out of one vectorized pivot. ``deleted``
    is structurally 0 for an append-only log but stays in the contract
    (the oracle's FULL OUTER shape produces it for a mutable source)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_id", "ts"]
    )
    cats = ("deleted", "inserted", "unchanged", "updated")
    schema = pa.schema([("category", pa.string()), ("n_users", pa.int64())])

    def spanrow(t: pa.Table) -> pa.Table:
        cols = {"tmin": pa.int64(), "tmax": pa.int64()}
        if t.num_rows == 0:
            return pa.schema(list(cols.items())).empty_table()
        us = (
            t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            if "ts" in t.schema.names
            else t["tmin"]
        )
        lo = pc.min(us).as_py()
        hi = pc.max(t["tmax"] if "tmax" in t.schema.names else us).as_py()
        return pa.table(
            {"tmin": pa.array([lo], pa.int64()), "tmax": pa.array([hi], pa.int64())}
        )

    span = tree_combine(
        ev.map_batches(spanrow, batch_format="pyarrow"), spanrow
    ).take_all()
    if not span:
        return pa.table(
            {
                "category": pa.array(list(cats), pa.string()),
                "n_users": pa.array([0] * 4, pa.int64()),
            },
            schema=schema,
        )
    tmin, tmax = int(span[0]["tmin"]), int(span[0]["tmax"])
    t1 = tmin + (tmax - tmin) // 2
    t2 = tmin + (tmax - tmin) * 3 // 4

    def lexmax(t: pa.Table) -> pa.Table:
        # associative merge: per (user, side), keep the (ts, event_id)
        # lexicographic max — fixed-width rows, user-vocab-sized
        if t.num_rows == 0:
            return t
        df = (
            t.to_pandas()
            .sort_values(["user_id", "side", "ts_us", "event_id"])
            .drop_duplicates(["user_id", "side"], keep="last")
        )
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
                "side": pa.array(df["side"].to_numpy(np.int64)),
                "ts_us": pa.array(df["ts_us"].to_numpy(np.int64)),
                "event_id": pa.array(df["event_id"].to_numpy(np.int64)),
            }
        )

    def partials(t: pa.Table, t1=t1, t2=t2) -> pa.Table:
        us = t["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m1, m2 = us <= t1, us <= t2
        return lexmax(
            pa.table(
                {
                    "user_id": pa.array(
                        np.concatenate([uid[m1], uid[m2]]), pa.int64()
                    ),
                    "side": pa.array(
                        np.concatenate(
                            [
                                np.zeros(int(m1.sum()), np.int64),
                                np.ones(int(m2.sum()), np.int64),
                            ]
                        )
                    ),
                    "ts_us": pa.array(
                        np.concatenate([us[m1], us[m2]]), pa.int64()
                    ),
                    "event_id": pa.array(
                        np.concatenate([eid[m1], eid[m2]]), pa.int64()
                    ),
                }
            )
        )

    latest = pa.concat_tables(
        [
            pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int64()),
                    "ts_us": pa.array([], pa.int64()),
                    "event_id": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(partials, batch_format="pyarrow"), lexmax
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    df = latest.to_pandas()
    a = df[df["side"] == 0].set_index("user_id")["event_id"]
    b = df[df["side"] == 1].set_index("user_id")["event_id"]
    joined = a.to_frame("a").join(b.to_frame("b"), how="outer")
    n_ins = int((joined["a"].isna() & joined["b"].notna()).sum())
    n_del = int((joined["a"].notna() & joined["b"].isna()).sum())
    both = joined.dropna()
    n_upd = int((both["a"] != both["b"]).sum())
    n_unc = int((both["a"] == both["b"]).sum())
    counts = {
        "deleted": n_del,
        "inserted": n_ins,
        "unchanged": n_unc,
        "updated": n_upd,
    }
    return pa.table(
        {
            "category": pa.array(list(cats), pa.string()),
            "n_users": pa.array([counts[c] for c in cats], pa.int64()),
        },
        schema=schema,
    )


# ------------------------------------------------------- Mann-Whitney U test


def events_value_mannwhitney(sf_dir: str) -> pa.Table:
    """MANN-WHITNEY U rank-sum test (the nonparametric two-sample class —
    the distribution-free complement to the z/chi²/KS family already in
    the registry): click vs purchase values in exact integer cents.
    ONE (type, value)-census pass (the KS-drift idiom — value-domain-sized
    fixed-width rows); doubled average ranks (2·rank stays integer under
    midrank ties), rank-sum / U / tie-corrected variance all expand in
    arbitrary-precision Python ints, and the only floats are the final
    sqrt and one division — mirrored expression-for-expression by the
    DuckDB HUGEINT oracle, so the 4-dp z compares deterministically."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    ).map_batches(
        lambda t: t.filter(
            pc.is_in(t["event_type"], pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow",
    )
    schema = pa.schema(
        [
            ("n_click", pa.int64()),
            ("n_purchase", pa.int64()),
            ("u", pa.float64()),
            ("z", pa.float64()),
        ]
    )

    def census(batch: pa.Table) -> pa.Table:
        cents = round_half_away(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        is_click = (
            pc.equal(batch["event_type"], "click")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        key, inv = np.unique(cents, return_inverse=True)
        n1 = np.zeros(key.size, np.int64)
        n2 = np.zeros(key.size, np.int64)
        np.add.at(n1, inv, is_click)
        np.add.at(n2, inv, 1 - is_click)
        return pa.table(
            {
                "c": pa.array(key, pa.int64()),
                "n1": pa.array(n1, pa.int64()),
                "n2": pa.array(n2, pa.int64()),
            }
        )

    counts = tree_combine(
        ev.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("c",), ("n1", "n2")),
    ).to_pandas()
    if counts.empty:
        return schema.empty_table()
    counts = counts.sort_values("c")
    n1a = counts["n1"].to_numpy(np.int64)
    n2a = counts["n2"].to_numpy(np.int64)
    n1, n2 = int(n1a.sum()), int(n2a.sum())
    if n1 == 0 or n2 == 0:
        return schema.empty_table()
    m = n1a + n2a
    cum = np.concatenate([[0], np.cumsum(m)[:-1]])
    # doubled average rank of a tie group starting after `cum` items with
    # multiplicity m: 2·(cum + (m+1)/2) = 2·cum + m + 1 — integer
    r1x2 = sum(
        int(a) * (2 * int(cb) + int(mm) + 1)
        for a, cb, mm in zip(n1a, cum, m)
    )
    tie = sum(int(mm) ** 3 - int(mm) for mm in m)
    nn = n1 + n2
    # U for the click sample: R1 − n1(n1+1)/2 (doubled to stay integer) —
    # counts (click, purchase) pairs where click outranks purchase
    u1x2 = r1x2 - n1 * (n1 + 1)
    amat = n1 * n2 * (nn**3 - nn - tie)
    bmat = 12 * nn * (nn - 1)
    if amat <= 0:
        zval = None
    else:
        import math

        sigma = math.sqrt(float(amat) / float(bmat))
        zval = round_half_away(
            [(float(u1x2) / 2.0 - float(n1 * n2) / 2.0) / sigma], 4
        )[0]
    return pa.table(
        {
            "n_click": pa.array([n1], pa.int64()),
            "n_purchase": pa.array([n2], pa.int64()),
            "u": pa.array([float(u1x2) / 2.0], pa.float64()),
            "z": pa.array([zval], pa.float64()),
        },
        schema=schema,
    )


# ------------------------------------------------ lead-lag cross-correlation

XCORR_MAX_LAG = 12


def events_hourly_xcorr(sf_dir: str) -> pa.Table:
    """LEAD-LAG CROSS-CORRELATION between two event series (the
    which-metric-moves-first diagnostic next to the single-series
    ACF/EWMA family): Pearson r of hourly click counts vs purchase counts
    at lags 0..12 over the dense [min, max] hour grid of the two series.
    Corpus-scale work is ONE (type, hour)-census (map-side partials,
    time-span-bounded output); the per-lag five integer moments expand in
    arbitrary-precision Python ints on the driver, mirrored by HUGEINT
    sums — one double division and two sqrts per lag at the end (the
    Pearson shape of kg_assortativity). Lags with no overlapping pairs
    emit no row on either side."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "ts"]
    ).map_batches(
        lambda t: t.filter(
            pc.is_in(t["event_type"], pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow",
    )
    schema = pa.schema(
        [("lag", pa.int64()), ("n_pairs", pa.int64()), ("r", pa.float64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        h = _ts_us(batch) // _HOUR_US
        df = (
            pd.DataFrame(
                {"event_type": batch["event_type"].to_pylist(), "h": h}
            )
            .groupby(["event_type", "h"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "h": pa.array(df["h"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    census = tree_combine(
        ev.map_batches(partial, batch_format="pyarrow"),
        group_sum_merge(("event_type", "h"), ("n",)),
    ).to_pandas()
    if census.empty:
        return schema.empty_table()
    h0, h1 = int(census["h"].min()), int(census["h"].max())
    span = h1 - h0 + 1
    x = [0] * span
    y = [0] * span
    for t, h, n in census.itertuples(index=False):
        if t == "click":
            x[int(h) - h0] = int(n)
        else:
            y[int(h) - h0] = int(n)
    import math

    lags, n_pairs, rs = [], [], []
    for lag in range(0, XCORR_MAX_LAG + 1):
        m = span - lag
        if m <= 0:
            continue  # no overlapping pairs: no row on either side
        xs = x[:m]
        ys = y[lag:]
        sx, sy = sum(xs), sum(ys)
        sxx = sum(v * v for v in xs)
        syy = sum(v * v for v in ys)
        sxy = sum(a * b for a, b in zip(xs, ys))
        dxx = m * sxx - sx * sx
        dyy = m * syy - sy * sy
        num = m * sxy - sx * sy
        if dxx <= 0 or dyy <= 0:
            r = None
        else:
            r = round_half_away(
                [
                    float(num)
                    / (math.sqrt(float(dxx)) * math.sqrt(float(dyy)))
                ],
                4,
            )[0]
        lags.append(lag)
        n_pairs.append(m)
        rs.append(r)
    return pa.table(
        {
            "lag": pa.array(lags, pa.int64()),
            "n_pairs": pa.array(n_pairs, pa.int64()),
            "r": pa.array(rs, pa.float64()),
        },
        schema=schema,
    )


# -------------------------------------------------- Holt linear smoothing


def events_hourly_holt(sf_dir: str) -> pa.Table:
    """HOLT LINEAR (double exponential) smoothing over the hourly event
    count series — the trend-aware extension of events_hourly_ewma
    (α = 0.3 level, β = 0.1 trend; l₁ = x₁, b₁ = 0). The corpus-scale
    work is the same hour-key census; the two-accumulator recurrence runs
    over observed hours ascending inside the final combine block. Float
    parity: both sides evaluate the identical literal chains in time
    order (l' = 0.3·x + 0.7·(l + b); b' = 0.1·(l' − l) + 0.9·b, with the
    oracle's recursive CTE recomputing l' inline — same operand sequence,
    same doubles), 4-dp round at output only."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        micros = _ts_us(batch)
        slot = micros // _HOUR_US * _HOUR_US
        uniq, counts = np.unique(slot, return_counts=True)
        return pa.table(
            {
                "hour_us": pa.array(uniq, pa.int64()),
                "n_events": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    # all-empty-block rule (NOTES): a fully-filtered stream bypasses map
    # fns on Ray 2.49 — concat the census with a typed seed on the driver
    # and return the finished Table itself
    census = pa.concat_tables(
        [
            pa.table(
                {
                    "hour_us": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(partial, batch_format="pyarrow"),
                group_sum_merge(("hour_us",), ("n_events",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )

    def smooth(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "hour": pa.array([], pa.timestamp("us")),
                "n_events": pa.array([], pa.int64()),
                "level": pa.array([], pa.float64()),
                "trend": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        hrs = t["hour_us"].to_numpy(zero_copy_only=False)
        ns = t["n_events"].to_numpy(zero_copy_only=False)
        order = np.argsort(hrs)
        hrs, ns = hrs[order], ns[order]
        levels = np.empty(len(ns), np.float64)
        trends = np.empty(len(ns), np.float64)
        lv = float(ns[0])
        b = 0.0
        levels[0], trends[0] = lv, b
        for i in range(1, len(ns)):
            # literal 0.3/0.7 and 0.1/0.9 on BOTH sides
            nl = 0.3 * ns[i] + 0.7 * (lv + b)
            b = 0.1 * (nl - lv) + 0.9 * b
            lv = nl
            levels[i], trends[i] = lv, b
        return pa.table(
            {
                "hour": pa.array(
                    hrs.view("datetime64[us]"), pa.timestamp("us")
                ),
                "n_events": pa.array(ns, pa.int64()),
                "level": pa.array(round_half_away(levels, 4), pa.float64()),
                "trend": pa.array(round_half_away(trends, 4), pa.float64()),
            }
        )

    return smooth(census)


# --------------------------------------------- stratified exact-quota split

STRAT_TRAIN_NUM = 8  # train quota = ⌊n · 8/10⌋ per stratum
STRAT_BINS_SHIFT = 52  # h64 >> 52 → 4096 histogram bins per stratum
STRAT_COLLECT_MAX = 5_000_000  # boundary-bin collect gate


def doc_split_stratified(sf_dir: str) -> Dataset:
    """STRATIFIED EXACT-QUOTA train/valid split (the curation counterpart
    of doc_split_assign's hash split, whose per-stratum proportions are
    only approximate): within every (lang, source) stratum, EXACTLY
    ⌊0.8·n⌋ docs go to train — the ⌊0.8·n⌋ smallest by the deterministic
    (md5_number_upper(doc_id), doc_id) order.

    Scale shape — a distributed per-group ORDER STATISTIC, never a
    per-stratum sort (a stratum is corpus-sized; the RFM-quartile
    machinery generalized to grouped quotas): ONE keyed 4096-bin
    histogram pass over the slim (id, stratum, hash) projection localizes
    each stratum's quota boundary to one bin; ONLY the boundary bins
    collect (md5 is uniform, so a boundary bin holds ~n/4096 rows —
    gated loudly at STRAT_COLLECT_MAX; remedy: re-bin inside the bin on
    the next 12 hash bits, same uniformity argument); the boundary PAIRS
    then broadcast and one map pass assigns splits. Hash ties across docs
    are broken by doc_id on both sides, so the quota is exact even under
    64-bit collisions."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "lang", "source"]
    )

    def hashed(batch: pa.Table) -> pa.Table:
        h = np.array(
            [
                int.from_bytes(
                    hashlib.md5(str(d).encode("utf-8")).digest()[:8],
                    "little",
                )
                for d in batch["doc_id"].to_pylist()
            ],
            np.uint64,
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "source": batch["source"],
                "h64": pa.array(h, pa.uint64()),
            }
        )

    slim = docs.map_batches(hashed, batch_format="pyarrow").materialize()
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "lang": pa.array([], pa.string()),
            "source": pa.array([], pa.string()),
            "split": pa.array([], pa.string()),
        }
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "source": pa.array([], pa.string()),
                    "bin": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        df = (
            pd.DataFrame(
                {
                    "lang": t["lang"].to_pylist(),
                    "source": t["source"].to_pylist(),
                    "bin": (
                        t["h64"].to_numpy(zero_copy_only=False)
                        >> STRAT_BINS_SHIFT
                    ).astype(np.int64),
                }
            )
            .groupby(["lang", "source", "bin"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "lang": pa.array(df["lang"].tolist(), pa.string()),
                "source": pa.array(df["source"].tolist(), pa.string()),
                "bin": pa.array(df["bin"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    hist = tree_combine(
        slim.map_batches(hist_partial, batch_format="pyarrow"),
        group_sum_merge(("lang", "source", "bin"), ("n",)),
    ).to_pandas()
    if hist.empty:
        # NOTES all-empty-block rule: return the typed Table itself —
        # rd.from_arrow(empty).to_pandas() drops the columns
        return empty

    # per stratum: quota = ⌊n·8/10⌋; localize the quota-th smallest
    # (h64, doc_id) to its histogram bin
    targets: dict[tuple[str, str], tuple[int, int]] = {}
    quotas: dict[tuple[str, str], int] = {}
    for (lang, source), g in hist.groupby(["lang", "source"], sort=False):
        n = int(g["n"].sum())
        quota = n * STRAT_TRAIN_NUM // 10
        quotas[(lang, source)] = quota
        if quota == 0:
            continue  # no train rows: boundary below every pair
        g = g.sort_values("bin")
        cum = g["n"].cumsum()
        i = int(np.searchsorted(cum.to_numpy(), quota))
        targets[(lang, source)] = (
            int(g["bin"].iloc[i]),
            quota - (int(cum.iloc[i - 1]) if i > 0 else 0),
        )

    tset = {(l, s, b) for (l, s), (b, _) in targets.items()}

    def boundary_rows(t: pa.Table) -> pa.Table:
        sel = [
            (l, s, int(h) >> STRAT_BINS_SHIFT) in tset
            for l, s, h in zip(
                t["lang"].to_pylist(),
                t["source"].to_pylist(),
                t["h64"].to_numpy(zero_copy_only=False),
            )
        ]
        return t.filter(pa.array(sel, pa.bool_()))

    try:
        collected = slim.map_batches(
            boundary_rows, batch_format="pyarrow"
        ).take_all(limit=STRAT_COLLECT_MAX)
    except ValueError as ex:
        raise ValueError(
            f"stratified-split boundary bins exceed STRAT_COLLECT_MAX="
            f"{STRAT_COLLECT_MAX}; re-bin inside the boundary bin on the "
            "next 12 hash bits (md5 uniformity bounds each level at "
            "~n/4096)"
        ) from ex
    bdf = pd.DataFrame(collected)
    bounds: dict[tuple[str, str], tuple[int, int]] = {}
    if not bdf.empty:
        for (lang, source), g in bdf.groupby(["lang", "source"], sort=False):
            rank_in_bin = targets[(lang, source)][1]
            g = g.sort_values(["h64", "doc_id"])
            row = g.iloc[rank_in_bin - 1]
            bounds[(lang, source)] = (int(row["h64"]), int(row["doc_id"]))
    bref = ray.put(bounds)

    def assign(t: pa.Table, bref=bref) -> pa.Table:
        if t.num_rows == 0:
            return empty
        b = ray.get(bref) if isinstance(bref, ray.ObjectRef) else bref
        h = t["h64"].to_numpy(zero_copy_only=False)
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        skeys = list(b)
        sidx = (
            pd.Series(
                list(zip(t["lang"].to_pylist(), t["source"].to_pylist()))
            )
            .map({k: i for i, k in enumerate(skeys)})
            .fillna(-1)
            .to_numpy(np.int64)
        )
        is_train = np.zeros(t.num_rows, bool)
        idx = np.flatnonzero(sidx >= 0)
        if idx.size:
            # integer-exact gather + compare — no float64 narrowing of
            # the 64-bit hash anywhere
            hb = np.array([b[k][0] for k in skeys], np.uint64)[sidx[idx]]
            db = np.array([b[k][1] for k in skeys], np.int64)[sidx[idx]]
            is_train[idx] = (h[idx] < hb) | (
                (h[idx] == hb) & (d[idx] <= db)
            )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "source": t["source"],
                "split": pa.array(
                    np.where(is_train, "train", "valid"), pa.string()
                ),
            }
        )

    return slim.map_batches(assign, batch_format="pyarrow")


# ------------------------------------------------- positional phrase search

PHRASE_QUERY = ("table", "scan")


def corpus_phrase_hits(sf_dir: str) -> pa.Table:
    """POSITIONAL PHRASE SEARCH (the IR class BM25's bag-of-words misses —
    exact-adjacency retrieval): every doc containing the fixed 2-token
    phrase, with its occurrence count. Text is row-local, so the right
    distributed shape is ONE pure map pass (tokenize + vectorized
    shifted-equality on the token array — the positional-postings
    intersection collapses to adjacency within a row store); the shuffle
    moves only matching (doc_id, n_hits) rows. Oracle replays the same
    word regex and adjacency test with list kernels."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    w1, w2 = PHRASE_QUERY
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "n_hits": pa.array([], pa.int64()),
        }
    )

    def scan(t: pa.Table) -> pa.Table:
        ids, hits = [], []
        for d, txt in zip(
            t["doc_id"].to_pylist(), t["text"].to_pylist()
        ):
            ws = _WORD_RE.findall((txt or "").lower())
            if len(ws) < 2:
                continue
            a = np.asarray(ws, dtype=object)
            n = int(((a[:-1] == w1) & (a[1:] == w2)).sum())
            if n:
                ids.append(d)
                hits.append(n)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_hits": pa.array(hits, pa.int64()),
            }
        )

    # driver-concat (NOTES all-empty-block rule: every block may filter
    # to zero rows, and the result must keep its schema)
    return pa.concat_tables(
        [empty]
        + list(
            docs.map_batches(scan, batch_format="pyarrow").iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
        ),
        promote_options="default",
    )


# ------------------------------------------------- reciprocal rank fusion

RRF_K = 60
RRF_CANDIDATES = 100


def _rrf_user_partial(t: pa.Table) -> pa.Table:
    """Per-batch RRF census rows (user_id, mc clicks, mp purchase cents,
    np purchases) for users with a click or a purchase. Zero-row and
    schema-less blocks give an empty table with the same four columns."""
    if t.num_rows == 0:
        return pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "mc": pa.array([], pa.int64()),
                "mp": pa.array([], pa.int64()),
                "np": pa.array([], pa.int64()),
            }
        )
    uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    types = t["event_type"].to_numpy(zero_copy_only=False)
    is_c = (types == "click").astype(np.int64)
    is_p = (types == "purchase").astype(np.int64)
    cents = round_half_away(
        t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
    ).astype(np.int64)
    keys, inv = np.unique(uid, return_inverse=True)
    mc = np.zeros(keys.size, np.int64)
    mp = np.zeros(keys.size, np.int64)
    np_ = np.zeros(keys.size, np.int64)
    np.add.at(mc, inv, is_c)
    np.add.at(mp, inv, is_p * cents)
    np.add.at(np_, inv, is_p)
    keep = (mc > 0) | (np_ > 0)
    return pa.table(
        {
            "user_id": pa.array(keys[keep], pa.int64()),
            "mc": pa.array(mc[keep], pa.int64()),
            "mp": pa.array(mp[keep], pa.int64()),
            "np": pa.array(np_[keep], pa.int64()),
        }
    )


def events_user_rrf_top20(sf_dir: str) -> pa.Table:
    """RECIPROCAL RANK FUSION (the rank-blending class — combine two
    heterogeneous rankings without score calibration): users ranked by
    click count and by purchase spend fuse via Σ 1/(60 + rank), summed
    over the arms the user appears in, evaluated over each arm's top-100
    candidate list (the standard candidate-list formulation — out-of-list
    arms contribute 0 on both sides). Scale shape: BOTH arm censuses
    ride ONE fused user-key groupby (user_id is corpus-scaled, NOT an
    enumerable tree_combine domain — round-5 audit; the fused shuffle
    also halves the event reads vs one groupby per arm), each arm's
    top-100 cut is the associative (metric DESC, user ASC) topk_merge
    over the shared census — never a global sort; the fuse runs on ≤200
    driver rows. Double parity: both sides add the click arm then the
    purchase arm of the identical 1/(60+r) doubles, cut by
    (rrf DESC, user ASC) BEFORE the 6-dp output round."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["user_id", "event_type", "value"],
    )

    census = (
        ev.map_batches(_rrf_user_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Sum("mc", alias_name="mc"),
            Sum("mp", alias_name="mp"),
            Sum("np", alias_name="np"),
        )
        .materialize()  # census-sized, object store — reused by both cuts
    )

    def arm_top(member_col: str, col: str) -> pd.DataFrame:
        # arm membership = "has ≥1 such EVENT" (the oracle's GROUP BY
        # row-existence rule) — tested on the COUNT column, never the
        # metric, so a user whose spend cents sum to ≤ 0 still ranks
        sel = census.map_batches(
            lambda t, member_col=member_col, col=col: (
                lambda kept: pa.table(
                    {"user_id": kept["user_id"], "m": kept[col]}
                )
            )(t.filter(pc.greater(t[member_col], pa.scalar(0)))),
            batch_format="pyarrow",
        )
        top = tree_combine(sel, topk_merge(RRF_CANDIDATES, "m", ["user_id"]))
        return pa.concat_tables(
            [
                pa.table(
                    {
                        "user_id": pa.array([], pa.int64()),
                        "m": pa.array([], pa.int64()),
                    }
                )
            ]
            + list(top.iter_batches(batch_size=None, batch_format="pyarrow")),
            promote_options="default",
        ).to_pandas()

    clicks, purch = arm_top("mc", "mc"), arm_top("np", "mp")
    schema = pa.schema([("user_id", pa.int64()), ("rrf", pa.float64())])

    def ranks(df: pd.DataFrame) -> dict[int, int]:
        df = df.sort_values(["m", "user_id"], ascending=[False, True])
        return {
            int(u): i + 1 for i, u in enumerate(df["user_id"].tolist())
        }

    r1, r2 = ranks(clicks), ranks(purch)
    fused = {
        u: (1.0 / (RRF_K + r1[u]) if u in r1 else 0.0)
        + (1.0 / (RRF_K + r2[u]) if u in r2 else 0.0)
        for u in set(r1) | set(r2)
    }
    order = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    return pa.table(
        {
            "user_id": pa.array([u for u, _ in order], pa.int64()),
            "rrf": pa.array(
                round_half_away([v for _, v in order], 6), pa.float64()
            ),
        },
        schema=schema,
    )


# ------------------------------------------------ zone-map skipping audit

ZONEMAP_FILES = 64
ZONEMAP_LO_US = 820_454_400_000_000  # 1996-01-01
ZONEMAP_HI_US = 852_076_800_000_000  # 1997-01-01


def lineitem_zonemap_skip(sf_dir: str) -> pa.Table:
    """ZONE-MAP DATA-SKIPPING audit (the physical-layout planning class:
    how many files a min/max-pruned reader skips for a date predicate,
    under two clusterings of the same table). Layout 'unclustered' =
    orderkey % 64 files (date-uniform, the anti-pattern); layout
    'date_clustered' = one file per ship month (what a sort/partition by
    date buys). ONE lineitem pass emits per-(layout, file) min/max/count
    partials (both layouts share the pass); the min/max census
    tree-combines and the predicate evaluates on ≤ (64 + months) driver
    rows — exact int µs everywhere. A file is skippable iff
    max < lo OR min >= hi (the standard zone-map test)."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_orderkey", "l_shipdate"]
    )
    schema = pa.schema(
        [
            ("layout", pa.string()),
            ("n_files", pa.int64()),
            ("n_skippable", pa.int64()),
            ("n_rows_skipped", pa.int64()),
        ]
    )

    def partials(t: pa.Table) -> pa.Table:
        us = (
            t["l_shipdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        dt = us.astype("datetime64[us]")
        months = (
            dt.astype("datetime64[M]").astype(np.int64) + 1970 * 12
        )  # absolute month id, mirrors year*12 + (month-1)
        frames = []
        for layout, fid in (
            ("unclustered", ok % ZONEMAP_FILES),
            ("date_clustered", months),
        ):
            df = pd.DataFrame({"fid": fid, "us": us})
            g = df.groupby("fid")["us"].agg(["min", "max", "size"])
            frames.append(
                pd.DataFrame(
                    {
                        "layout": layout,
                        "fid": g.index.to_numpy(np.int64),
                        "mn": g["min"].to_numpy(np.int64),
                        "mx": g["max"].to_numpy(np.int64),
                        "n": g["size"].to_numpy(np.int64),
                    }
                )
            )
        out = pd.concat(frames)
        return pa.table(
            {
                "layout": pa.array(out["layout"].tolist(), pa.string()),
                "fid": pa.array(out["fid"].to_numpy(np.int64), pa.int64()),
                "mn": pa.array(out["mn"].to_numpy(np.int64), pa.int64()),
                "mx": pa.array(out["mx"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(out["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    from ..runtime.combine import group_agg_merge

    merge = group_agg_merge(
        ("layout", "fid"), sums=("n",), mins=("mn",), maxs=("mx",)
    )
    zonemaps = pa.concat_tables(
        [
            pa.table(
                {
                    "layout": pa.array([], pa.string()),
                    "fid": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.int64()),
                    "mx": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                li.map_batches(partials, batch_format="pyarrow"), merge
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if zonemaps.empty:
        return schema.empty_table()
    rows = []
    for layout, g in zonemaps.groupby("layout", sort=True):
        skippable = (g["mx"] < ZONEMAP_LO_US) | (g["mn"] >= ZONEMAP_HI_US)
        rows.append(
            (
                layout,
                len(g),
                int(skippable.sum()),
                int(g.loc[skippable, "n"].sum()),
            )
        )
    return pa.table(
        {
            "layout": pa.array([r[0] for r in rows], pa.string()),
            "n_files": pa.array([r[1] for r in rows], pa.int64()),
            "n_skippable": pa.array([r[2] for r in rows], pa.int64()),
            "n_rows_skipped": pa.array([r[3] for r in rows], pa.int64()),
        },
        schema=schema,
    )


# ------------------------------------------------- winsorized robust mean

WINSOR_LO_Q = 0.05
WINSOR_HI_Q = 0.95


def events_value_winsorized_mean(sf_dir: str) -> pa.Table:
    """WINSORIZED MEAN per event type (the robust-statistics class next
    to MAD/IQR: clamp to [p05, p95] before averaging, so heavy tails
    cannot dominate the location estimate). ONE (type, cents)-census
    (value-domain-bounded, the quantiles idiom); the discrete quantiles
    are order statistics read off the sorted census
    (sorted[ceil(n·q)−1] — the DuckDB quantile_disc rule), the clamped
    sum is exact ints, and the single division mirrors the oracle
    expression-for-expression."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    )
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n_events", pa.int64()),
            ("lo_cents", pa.int64()),
            ("hi_cents", pa.int64()),
            ("winsorized_mean", pa.float64()),
        ]
    )

    def census(batch: pa.Table) -> pa.Table:
        cents = round_half_away(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        df = (
            pd.DataFrame(
                {"event_type": batch["event_type"].to_pylist(), "v": cents}
            )
            .groupby(["event_type", "v"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "v": pa.array(df["v"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    counts = tree_combine(
        ev.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("event_type", "v"), ("n",)),
    ).to_pandas()
    if counts.empty:
        return schema.empty_table()
    types, ns, los, his, means = [], [], [], [], []
    for t, g in counts.groupby("event_type", sort=True):
        g = g.sort_values("v")
        vs = g["v"].to_numpy(np.int64)
        cn = g["n"].to_numpy(np.int64)
        cum = np.cumsum(cn)
        n = int(cum[-1])
        lo = int(vs[np.searchsorted(cum, int(np.ceil(n * WINSOR_LO_Q)))])
        hi = int(vs[np.searchsorted(cum, int(np.ceil(n * WINSOR_HI_Q)))])
        clamped = np.clip(vs, lo, hi)
        s = int(np.dot(clamped, cn))
        types.append(t)
        ns.append(n)
        los.append(lo)
        his.append(hi)
        means.append(
            round_half_away([float(s) / (n * 100.0)], 4)[0]
        )
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "n_events": pa.array(ns, pa.int64()),
            "lo_cents": pa.array(los, pa.int64()),
            "hi_cents": pa.array(his, pa.int64()),
            "winsorized_mean": pa.array(means, pa.float64()),
        },
        schema=schema,
    )


# --------------------------------------------------- k-anonymity audit

KANON_K = 5
KANON_CHAR_BUCKET = 100


def doc_kanonymity_audit(sf_dir: str) -> pa.Table:
    """K-ANONYMITY privacy audit (the re-identification-risk class a
    curation pipeline runs before release): quasi-identifier =
    (lang, source, n_chars // 100); report the equivalence-class count,
    the anonymity level (min class size), and how many classes / docs
    fall below k = 5. ONE QI census (map-side group-sum partials — the
    QI domain is enumerable); the summary is one fixed-width row, exact
    ints throughout."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["lang", "source", "n_chars"]
    )
    schema = pa.schema(
        [
            ("n_classes", pa.int64()),
            ("min_class_size", pa.int64()),
            ("n_classes_below_k", pa.int64()),
            ("n_docs_at_risk", pa.int64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        df = (
            pd.DataFrame(
                {
                    "lang": t["lang"].to_pylist(),
                    "source": t["source"].to_pylist(),
                    "cb": t["n_chars"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)
                    // KANON_CHAR_BUCKET,
                }
            )
            .groupby(["lang", "source", "cb"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "lang": pa.array(df["lang"].tolist(), pa.string()),
                "source": pa.array(df["source"].tolist(), pa.string()),
                "cb": pa.array(df["cb"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    counts = tree_combine(
        docs.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("lang", "source", "cb"), ("n",)),
    ).to_pandas()
    if counts.empty:
        return schema.empty_table()
    n = counts["n"].to_numpy(np.int64)
    below = n < KANON_K
    return pa.table(
        {
            "n_classes": pa.array([len(n)], pa.int64()),
            "min_class_size": pa.array([int(n.min())], pa.int64()),
            "n_classes_below_k": pa.array([int(below.sum())], pa.int64()),
            "n_docs_at_risk": pa.array([int(n[below].sum())], pa.int64()),
        },
        schema=schema,
    )


# ------------------------------------------------------- skyline / Pareto


def orders_skyline(sf_dir: str) -> pa.Table:
    """SKYLINE (Pareto-frontier) query — the multi-objective shortlist
    classic: orders not dominated on (totalprice, orderdate), i.e. no
    other order is >= on both dimensions and strictly > on one.
    Distribution exploits that skylines COMPOSE: skyline(A ∪ B) =
    skyline(skyline(A) ∪ skyline(B)), so each batch reduces to its local
    frontier map-side and the associative tree merge keeps frontier-sized
    rows only (the local step is the classic sort-by-x-desc /
    running-max-y sweep, vectorized). Ints end to end (cents, epoch µs);
    the oracle is the textbook NOT EXISTS dominance predicate."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_totalprice", "o_orderdate"],
    )
    schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("price_cents", pa.int64()),
            ("od_us", pa.int64()),
        ]
    )

    def local_skyline(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        if "price_cents" in t.schema.names:
            key = t["o_orderkey"].to_numpy(zero_copy_only=False)
            price = t["price_cents"].to_numpy(zero_copy_only=False)
            dus = t["od_us"].to_numpy(zero_copy_only=False)
        else:
            key = t["o_orderkey"].to_numpy(zero_copy_only=False)
            price = round_half_away(
                t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0, 0
            ).astype(np.int64)
            dus = (
                t["o_orderdate"]
                .cast(pa.timestamp("us"))
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
        # vectorized sweep: sort (price DESC, date DESC, key ASC); a row
        # survives iff its date strictly exceeds every earlier row's date
        # (earlier rows have price >= its price, so any date tie or win
        # there dominates it) — EXCEPT exact (p, d) duplicates of a
        # survivor, which are mutually non-dominating and sort adjacently,
        # so run-level keep handles them
        order = np.lexsort((key, -dus, -price))
        p, d, k = price[order], dus[order], key[order]
        newrun = np.ones(len(p), bool)
        newrun[1:] = (p[1:] != p[:-1]) | (d[1:] != d[:-1])
        runid = np.cumsum(newrun) - 1
        prevmax = np.concatenate(
            [[np.iinfo(np.int64).min], np.maximum.accumulate(d)[:-1]]
        )
        firstkeep = d[newrun] > prevmax[newrun]
        keep = firstkeep[runid]
        return pa.table(
            {
                "o_orderkey": pa.array(k[keep], pa.int64()),
                "price_cents": pa.array(p[keep], pa.int64()),
                "od_us": pa.array(d[keep], pa.int64()),
            },
            schema=schema,
        )

    return pa.concat_tables(
        [schema.empty_table()]
        + list(
            tree_combine(
                orders.map_batches(local_skyline, batch_format="pyarrow"),
                local_skyline,
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )


# ------------------------------------------------ global CDF attach window


def orders_price_cume_dist(sf_dir: str, k: int = 50) -> pa.Table:
    """GLOBAL WINDOW FUNCTION at corpus scale — cume_dist() OVER
    (ORDER BY price) attached to every row WITHOUT a global sort: ONE
    price-cents census (value-domain-bounded) builds the exact CDF, which
    broadcasts as two sorted arrays; a map pass attaches ranks via
    searchsorted. Output here is the top-k orders by (cume_dist DESC,
    orderkey ASC) to keep the gate result bounded — the attach pass
    itself is corpus-sized and streams. cume_dist = (#rows <= v) / N,
    one double division per row, identical on both sides."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"]
    )
    schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("price_cents", pa.int64()),
            ("cume_dist", pa.float64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        cents = round_half_away(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        keys, counts = np.unique(cents, return_counts=True)
        return pa.table(
            {
                "v": pa.array(keys, pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    cdf = pa.concat_tables(
        [
            pa.table(
                {"v": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        ]
        + list(
            tree_combine(
                orders.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("v",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if cdf.num_rows == 0:
        return schema.empty_table()
    vs = cdf["v"].to_numpy(zero_copy_only=False)
    order = np.argsort(vs)
    vs = vs[order]
    cum = np.cumsum(cdf["n"].to_numpy(zero_copy_only=False)[order])
    total = int(cum[-1])
    vref = ray.put((vs, cum))

    def attach(t: pa.Table, vref=vref, total=total) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        vs, cum = ray.get(vref) if isinstance(vref, ray.ObjectRef) else vref
        cents = round_half_away(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        le = cum[np.searchsorted(vs, cents, side="right") - 1]
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "price_cents": pa.array(cents, pa.int64()),
                "cume_dist": pa.array(
                    le.astype(np.float64) / float(total), pa.float64()
                ),
            },
            schema=schema,
        )

    ranked = orders.map_batches(attach, batch_format="pyarrow")
    top = tree_combine(
        ranked, topk_merge(k, "cume_dist", ["o_orderkey"])
    )
    out = pa.concat_tables(
        [schema.empty_table()]
        + list(top.iter_batches(batch_size=None, batch_format="pyarrow")),
        promote_options="default",
    )
    cd = out["cume_dist"].to_numpy(zero_copy_only=False)
    return out.set_column(
        out.schema.get_field_index("cume_dist"),
        "cume_dist",
        pa.array(round_half_away(cd, 6), pa.float64()),
    )


# --------------------------------------------------- equi-depth histogram

EQUIDEPTH_BINS = 10


def events_value_equidepth(sf_dir: str) -> pa.Table:
    """EQUI-DEPTH (equal-frequency) HISTOGRAM — the optimizer-statistics
    counterpart of events_value_hist's equi-width bins: 10 bins whose
    UPPER boundaries are the exact i/10-quantile order statistics of the
    value distribution (quantile_disc rule, sorted[ceil(n·q)−1]); bin i
    holds the rows ≤ its boundary not claimed by an earlier bin, so
    counts concentrate near n/10 except across heavy duplicate values.
    ONE cents census; boundaries and counts both read off the sorted
    census cumulative — exact ints end to end."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["value"])
    schema = pa.schema(
        [
            ("bin", pa.int64()),
            ("hi_cents", pa.int64()),
            ("n_rows", pa.int64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        keys, counts = np.unique(cents, return_counts=True)
        return pa.table(
            {
                "v": pa.array(keys, pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {"v": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("v",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("v")
    vs = cen["v"].to_numpy(np.int64)
    cum = np.cumsum(cen["n"].to_numpy(np.int64))
    n = int(cum[-1])
    bins, his, rows = [], [], []
    prev_le = 0
    for i in range(1, EQUIDEPTH_BINS + 1):
        rank = int(np.ceil(n * (i / EQUIDEPTH_BINS)))
        j = int(np.searchsorted(cum, rank))
        hi = int(vs[j])
        le = int(cum[j])  # rows <= this boundary
        bins.append(i)
        his.append(hi)
        rows.append(le - prev_le)
        prev_le = le
    return pa.table(
        {
            "bin": pa.array(bins, pa.int64()),
            "hi_cents": pa.array(his, pa.int64()),
            "n_rows": pa.array(rows, pa.int64()),
        },
        schema=schema,
    )


# ------------------------------------------------ list-column dim stats


def embedding_dim_stats(sf_dir: str) -> pa.Table:
    """LIST-COLUMN ANALYTICS (the UNNEST/explode class, distributed
    without exploding): per embedding dimension, count/mean/min/max —
    the feature-quality profile a vector store runs before indexing.
    Each batch reduces its list<float> column to ONE fixed D-row partial
    (stacked matrix column sums / mins / maxs — never one row per list
    element through the shuffle, which is what SQL's UNNEST does); the
    D-row partials tree-combine. float32 values widen to float64 before
    summing on BOTH sides (the oracle casts the same way), and the mean
    divides once at the end, 4-dp. The mean shares the documented
    float-summation fragility class of embedding_kmeans (partial-sum
    order vs the oracle's sequential sum — a value within ~1 ulp of a
    4-dp boundary could flip); min/max are order-free and exact."""
    emb = read_parquet_clean(_p(sf_dir, "embeddings"), columns=["embedding"])
    schema = pa.schema(
        [
            ("dim", pa.int64()),
            ("n", pa.int64()),
            ("mean", pa.float64()),
            ("vmin", pa.float64()),
            ("vmax", pa.float64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.float64()),
                    "vmin": pa.array([], pa.float64()),
                    "vmax": pa.array([], pa.float64()),
                }
            )
        if "s" in t.schema.names:  # merge level
            return t
        col = t["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        d = len(col[0])
        m = flat.reshape(-1, d).astype(np.float64)
        return pa.table(
            {
                "dim": pa.array(np.arange(d, dtype=np.int64), pa.int64()),
                "n": pa.array(
                    np.full(d, m.shape[0], np.int64), pa.int64()
                ),
                "s": pa.array(m.sum(axis=0), pa.float64()),
                "vmin": pa.array(m.min(axis=0), pa.float64()),
                "vmax": pa.array(m.max(axis=0), pa.float64()),
            }
        )

    from ..runtime.combine import group_agg_merge

    merge = group_agg_merge(
        ("dim",), sums=("n", "s"), mins=("vmin",), maxs=("vmax",)
    )
    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.float64()),
                    "vmin": pa.array([], pa.float64()),
                    "vmax": pa.array([], pa.float64()),
                }
            )
        ]
        + list(
            tree_combine(
                emb.map_batches(partial, batch_format="pyarrow"), merge
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if cen.num_rows == 0:
        return schema.empty_table()
    n = cen["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    s = cen["s"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "dim": cen["dim"].cast(pa.int64()),
            "n": pa.array(n, pa.int64()),
            "mean": pa.array(round_half_away(s / n, 4), pa.float64()),
            "vmin": pa.array(
                round_half_away(
                    cen["vmin"].to_numpy(zero_copy_only=False), 4
                ),
                pa.float64(),
            ),
            "vmax": pa.array(
                round_half_away(
                    cen["vmax"].to_numpy(zero_copy_only=False), 4
                ),
                pa.float64(),
            ),
        },
        schema=schema,
    )


# --------------------------------------------------- weighted median


def lineitem_weighted_median(sf_dir: str) -> pa.Table:
    """WEIGHTED MEDIAN (weighted order statistic — the
    inventory-weighted price point a plain median misrepresents):
    smallest extendedprice whose cumulative l_quantity weight reaches
    half the total. ONE (price-cents → weight) census
    (value-domain-bounded); the boundary reads off the sorted cumulative
    with the ceil rule ≥ ⌈W/2⌉ in exact integer hundredth-quantity
    units, mirrored by the oracle's cumulative-window scan."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_extendedprice", "l_quantity"]
    )
    schema = pa.schema(
        [
            ("total_weight_h", pa.int64()),
            ("weighted_median_cents", pa.int64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        cents = round_half_away(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        wh = round_half_away(
            t["l_quantity"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        keys, inv = np.unique(cents, return_inverse=True)
        sums = np.zeros(keys.size, np.int64)
        np.add.at(sums, inv, wh)
        return pa.table(
            {
                "v": pa.array(keys, pa.int64()),
                "w": pa.array(sums, pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {"v": pa.array([], pa.int64()), "w": pa.array([], pa.int64())}
            )
        ]
        + list(
            tree_combine(
                li.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("v",), ("w",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("v")
    cum = np.cumsum(cen["w"].to_numpy(np.int64))
    total = int(cum[-1])
    half = (total + 1) // 2  # ceil(W/2), exact integer arithmetic
    j = int(np.searchsorted(cum, half))
    return pa.table(
        {
            "total_weight_h": pa.array([total], pa.int64()),
            "weighted_median_cents": pa.array(
                [int(cen["v"].to_numpy(np.int64)[j])], pa.int64()
            ),
        },
        schema=schema,
    )


# ----------------------------------------------------- 3-way Venn census


def events_type_venn3(sf_dir: str) -> pa.Table:
    """3-WAY SET-OVERLAP (Venn) census — the audience-composition report
    the pairwise set ops (events_click_purchase_setops) can't express:
    users bucketed by WHICH of {view, click, purchase} they ever did
    (7 non-empty cells). Map-side per-user OR partials (one bitmask row
    per user per batch), bit-OR merged as Max per bit via ONE user-key
    Ray groupby (user_id is NOT an enumerable key domain, so the
    user-flag table stays distributed — round-5 audit fix: it previously
    rode ``tree_combine``'s single final task and was pulled whole to
    the driver), then a map-side 8-cell census + ``tree_combine`` — only
    the ≤7-row Venn census reaches the driver. Exact ints."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type"]
    ).map_batches(
        lambda t: t.filter(
            pc.is_in(t["event_type"], pa.array(["view", "click", "purchase"]))
        ),
        batch_format="pyarrow",
    )
    schema = pa.schema(
        [
            ("has_view", pa.int64()),
            ("has_click", pa.int64()),
            ("has_purchase", pa.int64()),
            ("n_users", pa.int64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.schema.names:
            return t
        types = t["event_type"].to_pylist()
        df = pd.DataFrame(
            {
                "user_id": t["user_id"]
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "has_view": np.fromiter(
                    (x == "view" for x in types), np.int64, len(types)
                ),
                "has_click": np.fromiter(
                    (x == "click" for x in types), np.int64, len(types)
                ),
                "has_purchase": np.fromiter(
                    (x == "purchase" for x in types), np.int64, len(types)
                ),
            }
        )
        g = df.groupby("user_id", as_index=False).max()
        return pa.Table.from_pandas(
            g, preserve_index=False
        ).replace_schema_metadata(None)

    flags = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Max("has_view", alias_name="has_view"),
            Max("has_click", alias_name="has_click"),
            Max("has_purchase", alias_name="has_purchase"),
        )
    )

    def cell_census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "has_view" not in t.schema.names:
            return pa.table(
                {
                    "has_view": pa.array([], pa.int64()),
                    "has_click": pa.array([], pa.int64()),
                    "has_purchase": pa.array([], pa.int64()),
                    "n_users": pa.array([], pa.int64()),
                }
            )
        df = (
            t.select(["has_view", "has_click", "has_purchase"])
            .to_pandas()
            .astype(np.int64)
            .groupby(["has_view", "has_click", "has_purchase"], sort=True)
            .size()
            .reset_index(name="n_users")
        )
        return pa.Table.from_pandas(
            df, preserve_index=False
        ).replace_schema_metadata(None)

    cen = pa.concat_tables(
        [schema.empty_table()]
        + list(
            tree_combine(
                flags.map_batches(cell_census, batch_format="pyarrow"),
                group_sum_merge(
                    ("has_view", "has_click", "has_purchase"), ("n_users",)
                ),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if cen.num_rows == 0:
        return schema.empty_table()
    df = cen.to_pandas().sort_values(
        ["has_view", "has_click", "has_purchase"]
    )
    return pa.table(
        {
            "has_view": pa.array(df["has_view"].to_numpy(np.int64), pa.int64()),
            "has_click": pa.array(
                df["has_click"].to_numpy(np.int64), pa.int64()
            ),
            "has_purchase": pa.array(
                df["has_purchase"].to_numpy(np.int64), pa.int64()
            ),
            "n_users": pa.array(df["n_users"].to_numpy(np.int64), pa.int64()),
        },
        schema=schema,
    )


# ------------------------------------------------ time-decayed popularity

DECAY_UNIT = 1_000_000  # integer micro-weights: weight = UNIT // 2^age_days


def events_type_decayed_top(sf_dir: str) -> pa.Table:
    """TIME-DECAYED POPULARITY (the streaming-recency class — a trending
    score where yesterday counts half of today): per type,
    Σ 1e6 // 2^age_days in INTEGER micro-units (exact on both sides — no
    float exponentials to drift; weights hit 0 past 19 days, the natural
    horizon of a daily-halving decay). One scalar max-day pre-pass, then
    ONE (type, day)-census pass whose partials pre-multiply the integer
    weights map-side."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["event_type", "ts"])
    schema = pa.schema(
        [("event_type", pa.string()), ("decayed_units", pa.int64())]
    )
    DAY_US = 86_400_000_000

    def maxrow(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"mx": pa.array([], pa.int64())})
        if "mx" in t.schema.names:
            return pa.table(
                {"mx": pa.array([pc.max(t["mx"]).as_py()], pa.int64())}
            )
        return pa.table(
            {
                "mx": pa.array(
                    [int(_ts_us(t).max() // DAY_US)], pa.int64()
                )
            }
        )

    mrows = tree_combine(
        ev.map_batches(maxrow, batch_format="pyarrow"), maxrow
    ).take_all()
    if not mrows:
        return schema.empty_table()
    max_day = int(mrows[0]["mx"])

    def partial(t: pa.Table, max_day=max_day) -> pa.Table:
        age = (max_day - _ts_us(t) // DAY_US).astype(np.int64)
        w = np.where(
            age >= 20, 0, DECAY_UNIT // (1 << np.minimum(age, 19))
        ).astype(np.int64)
        df = (
            pd.DataFrame(
                {"event_type": t["event_type"].to_pylist(), "w": w}
            )
            .groupby("event_type", sort=True)["w"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "decayed_units": pa.array(
                    df["w"].to_numpy(np.int64), pa.int64()
                ),
            }
        )

    out = pa.concat_tables(
        [schema.empty_table()]
        + list(
            tree_combine(
                ev.map_batches(partial, batch_format="pyarrow"),
                group_sum_merge(("event_type",), ("decayed_units",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    return out


# --------------------------------------------- WoW contribution analysis


def events_wow_contribution(sf_dir: str) -> pa.Table:
    """METRIC-DECOMPOSITION (root-cause) analysis: which event type drove
    the week-over-week change — per type, counts in the last and previous
    epoch week, the delta, and the delta's share of the total change
    (NULL share when the total didn't move). ONE (type, week)-census
    pass; exact ints until the single share division, mirrored by the
    oracle."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["event_type", "ts"])
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n_prev", pa.int64()),
            ("n_last", pa.int64()),
            ("delta", pa.int64()),
            ("delta_share", pa.float64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        wk = (_ts_us(t) // WEEK_US).astype(np.int64)
        df = (
            pd.DataFrame({"event_type": t["event_type"].to_pylist(), "wk": wk})
            .groupby(["event_type", "wk"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "wk": pa.array(df["wk"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = tree_combine(
        ev.map_batches(partial, batch_format="pyarrow"),
        group_sum_merge(("event_type", "wk"), ("n",)),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    wk_last = int(cen["wk"].max())
    piv = (
        cen[cen["wk"].isin([wk_last - 1, wk_last])]
        .pivot_table(
            index="event_type", columns="wk", values="n",
            aggfunc="sum", fill_value=0,
        )
        .reindex(columns=[wk_last - 1, wk_last], fill_value=0)
    )
    n_prev = piv[wk_last - 1].to_numpy(np.int64)
    n_last = piv[wk_last].to_numpy(np.int64)
    delta = n_last - n_prev
    total = int(delta.sum())
    shares = [
        (None if total == 0 else round_half_away([int(d) / total], 4)[0])
        for d in delta
    ]
    return pa.table(
        {
            "event_type": pa.array(list(piv.index), pa.string()),
            "n_prev": pa.array(n_prev, pa.int64()),
            "n_last": pa.array(n_last, pa.int64()),
            "delta": pa.array(delta, pa.int64()),
            "delta_share": pa.array(shares, pa.float64()),
        },
        schema=schema,
    )


# ------------------------------------------------ train/test leakage audit


def doc_split_leakage(sf_dir: str) -> pa.Table:
    """TRAIN/TEST LEAKAGE audit (the curation gate that catches
    near-duplicates straddling a split boundary — the silent eval
    inflator): over the oracled 3-gram-Jaccard near-dup pairs (≥ 0.8)
    and the deterministic hash split (doc_split_assign's rule), count
    pairs whose endpoints land in DIFFERENT splits. The split is a pure
    hash function, so endpoints label map-side — no join against an
    assignment table; one fixed-width summary row."""
    from ..stages.dedup import ngram_jaccard_pairs

    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, threshold=0.8)
    schema = pa.schema(
        [("n_pairs", pa.int64()), ("n_cross_split", pa.int64())]
    )

    def split_of(d: int) -> str:
        b = (
            int.from_bytes(
                hashlib.md5(str(d).encode("utf-8")).digest()[:8], "little"
            )
            % 10
        )
        return "train" if b < 8 else ("valid" if b == 8 else "test")

    def summarize(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "a" not in t.schema.names:
            if "n_pairs" in t.schema.names:  # merge level
                return pa.table(
                    {
                        "n_pairs": pa.array(
                            [pc.sum(t["n_pairs"]).as_py() or 0], pa.int64()
                        ),
                        "n_cross_split": pa.array(
                            [pc.sum(t["n_cross_split"]).as_py() or 0],
                            pa.int64(),
                        ),
                    }
                )
            return pa.table(
                {
                    "n_pairs": pa.array([0], pa.int64()),
                    "n_cross_split": pa.array([0], pa.int64()),
                }
            )
        cross = sum(
            split_of(a) != split_of(b)
            for a, b in zip(t["a"].to_pylist(), t["b"].to_pylist())
        )
        return pa.table(
            {
                "n_pairs": pa.array([t.num_rows], pa.int64()),
                "n_cross_split": pa.array([int(cross)], pa.int64()),
            }
        )

    rows = tree_combine(
        pairs.map_batches(summarize, batch_format="pyarrow"), summarize
    ).take_all()
    if not rows:
        return pa.table(
            {
                "n_pairs": pa.array([0], pa.int64()),
                "n_cross_split": pa.array([0], pa.int64()),
            },
            schema=schema,
        )
    return pa.table(
        {
            "n_pairs": pa.array([int(rows[0]["n_pairs"])], pa.int64()),
            "n_cross_split": pa.array(
                [int(rows[0]["n_cross_split"])], pa.int64()
            ),
        },
        schema=schema,
    )


# ----------------------------------------------------- Wilson interval


def events_conversion_wilson(sf_dir: str) -> pa.Table:
    """WILSON 95% INTERVAL on a proportion (the interval-estimation class
    the point-estimate rate ops lack — the bound a dashboard should show
    for small-n segments): per event type, share of events belonging to
    high-value users... concretely: per type, the proportion of that
    type's events whose value exceeds the GLOBAL mean value, with Wilson
    lower/upper bounds at z = 1.96. Two streamed passes (global scalar,
    then a per-type 2-cell census); the interval expands from exact int
    counts with the literal 1.96 chain mirrored operand-for-operand in
    SQL (one sqrt, one division per bound)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    )
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n", pa.int64()),
            ("n_hi", pa.int64()),
            ("rate", pa.float64()),
            ("wilson_lo", pa.float64()),
            ("wilson_hi", pa.float64()),
        ]
    )

    def scal(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"s": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        if "s" in t.schema.names:
            return pa.table(
                {
                    "s": pa.array([pc.sum(t["s"]).as_py() or 0], pa.int64()),
                    "n": pa.array([pc.sum(t["n"]).as_py() or 0], pa.int64()),
                }
            )
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table(
            {
                "s": pa.array([int(cents.sum())], pa.int64()),
                "n": pa.array([t.num_rows], pa.int64()),
            }
        )

    srows = tree_combine(
        ev.map_batches(scal, batch_format="pyarrow"), scal
    ).take_all()
    if not srows or int(srows[0]["n"]) == 0:
        return schema.empty_table()
    s_tot, n_tot = int(srows[0]["s"]), int(srows[0]["n"])

    def census(t: pa.Table, s_tot=s_tot, n_tot=n_tot) -> pa.Table:
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        # value > global mean  ⇔  value_cents · n_tot > s_tot (exact ints;
        # cents ≤ ~1e7 and n_tot ≤ ~1e11 keep the product inside int64 —
        # past that, widen to object dtype)
        hi = (cents * np.int64(n_tot) > np.int64(s_tot)).astype(np.int64)
        df = (
            pd.DataFrame(
                {"event_type": t["event_type"].to_pylist(), "hi": hi}
            )
            .groupby("event_type", sort=True)
            .agg(n=("hi", "size"), n_hi=("hi", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
                "n_hi": pa.array(df["n_hi"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = tree_combine(
        ev.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("event_type",), ("n", "n_hi")),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    import math

    types, ns, nhis, rates, los, his = [], [], [], [], [], []
    for r in cen.itertuples(index=False):
        n, k = int(r.n), int(r.n_hi)
        p = k / n
        z = 1.96
        denom = 1.0 + z * z / n
        center = (p + z * z / (2.0 * n)) / denom
        half = (
            z
            * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
            / denom
        )
        types.append(r.event_type)
        ns.append(n)
        nhis.append(k)
        rates.append(round_half_away([p], 4)[0])
        los.append(round_half_away([center - half], 4)[0])
        his.append(round_half_away([center + half], 4)[0])
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "n_hi": pa.array(nhis, pa.int64()),
            "rate": pa.array(rates, pa.float64()),
            "wilson_lo": pa.array(los, pa.float64()),
            "wilson_hi": pa.array(his, pa.float64()),
        },
        schema=schema,
    )


# --------------------------------------------- iterative proportional fit

RAKE_ROUNDS = 2


def events_raking_weights(sf_dir: str) -> pa.Table:
    """RAKING / iterative proportional fitting (the survey-weighting and
    dataset-rebalancing classic): adjust the (event_type × dow) count
    table toward UNIFORM target marginals by alternately scaling rows
    and columns (2 full rounds — deterministic, so the oracle unrolls the
    same scalings as CTEs, the kmeans/markov convention). The corpus
    work is ONE census; the ≤ types×7 cell table iterates on the driver.
    Weight = adjusted_mass / count, 4-dp; target row marginal = N/R,
    column marginal = N/C (doubles of exact ints)."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["event_type", "ts"])
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("dow", pa.int64()),
            ("n", pa.int64()),
            ("weight", pa.float64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        us = _ts_us(t)
        dow = ((us // 86_400_000_000) + 4) % 7  # epoch day 0 = Thursday
        df = (
            pd.DataFrame(
                {"event_type": t["event_type"].to_pylist(), "dow": dow}
            )
            .groupby(["event_type", "dow"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "dow": pa.array(df["dow"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = tree_combine(
        ev.map_batches(partial, batch_format="pyarrow"),
        group_sum_merge(("event_type", "dow"), ("n",)),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    piv = cen.pivot_table(
        index="event_type", columns="dow", values="n",
        aggfunc="sum", fill_value=0,
    ).sort_index()
    m = piv.to_numpy(np.int64).astype(np.float64)
    n_total = float(m.sum())
    r_target = n_total / m.shape[0]
    c_target = n_total / m.shape[1]
    for _ in range(RAKE_ROUNDS):
        rs = m.sum(axis=1)
        m = m * (r_target / rs)[:, None]
        cs = m.sum(axis=0)
        m = m * (c_target / cs)[None, :]
    counts = piv.to_numpy(np.int64)
    rows = []
    for i, t in enumerate(piv.index):
        for j, d in enumerate(piv.columns):
            if counts[i, j] > 0:
                rows.append(
                    (
                        t,
                        int(d),
                        int(counts[i, j]),
                        float(
                            round_half_away(
                                [m[i, j] / counts[i, j]], 4
                            )[0]
                        ),
                    )
                )
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "dow": pa.array([r[1] for r in rows], pa.int64()),
            "n": pa.array([r[2] for r in rows], pa.int64()),
            "weight": pa.array([r[3] for r in rows], pa.float64()),
        },
        schema=schema,
    )


# ----------------------------------------------- percent-of-parent rollup


def customer_share_of_region(sf_dir: str) -> pa.Table:
    """PERCENT-OF-PARENT hierarchical rollup (the OLAP drill class
    ratio-to-report's global denominator can't express): per nation,
    customer account-balance mass as a share of its REGION's mass, with
    the region's share of the world alongside — two denominators from one
    census. Customer cents census by nationkey (ONE groupby), nation and
    region dims broadcast; all shares are single exact-int divisions."""
    cust = read_parquet_clean(
        _p(sf_dir, "customer"), columns=["c_nationkey", "c_acctbal"]
    )
    nation = pq.read_table(
        _p(sf_dir, "nation"), columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    region = pq.read_table(
        _p(sf_dir, "region"), columns=["r_regionkey", "r_name"]
    )
    schema = pa.schema(
        [
            ("r_name", pa.string()),
            ("n_name", pa.string()),
            ("bal_cents", pa.int64()),
            ("share_of_region", pa.float64()),
            ("region_share_of_world", pa.float64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        cents = round_half_away(
            t["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys, inv = np.unique(nk, return_inverse=True)
        sums = np.zeros(keys.size, np.int64)
        np.add.at(sums, inv, cents)
        return pa.table(
            {
                "nk": pa.array(keys, pa.int64()),
                "bal": pa.array(sums, pa.int64()),
            }
        )

    cen = tree_combine(
        cust.map_batches(partial, batch_format="pyarrow"),
        group_sum_merge(("nk",), ("bal",)),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    nmap = {
        int(k): (str(n), int(r))
        for k, n, r in zip(
            nation["n_nationkey"].to_pylist(),
            nation["n_name"].to_pylist(),
            nation["n_regionkey"].to_pylist(),
        )
    }
    rmap = dict(
        zip(
            (int(x) for x in region["r_regionkey"].to_pylist()),
            region["r_name"].to_pylist(),
        )
    )
    cen["n_name"] = cen["nk"].map(lambda k: nmap[int(k)][0])
    cen["rk"] = cen["nk"].map(lambda k: nmap[int(k)][1])
    cen["r_name"] = cen["rk"].map(rmap)
    region_tot = cen.groupby("rk")["bal"].sum()
    world = int(cen["bal"].sum())
    rows = cen.sort_values(["r_name", "n_name"])
    return pa.table(
        {
            "r_name": pa.array(rows["r_name"].tolist(), pa.string()),
            "n_name": pa.array(rows["n_name"].tolist(), pa.string()),
            "bal_cents": pa.array(rows["bal"].to_numpy(np.int64), pa.int64()),
            "share_of_region": pa.array(
                round_half_away(
                    [
                        int(b) / int(region_tot[rk])
                        for b, rk in zip(rows["bal"], rows["rk"])
                    ],
                    4,
                ),
                pa.float64(),
            ),
            "region_share_of_world": pa.array(
                round_half_away(
                    [int(region_tot[rk]) / world for rk in rows["rk"]], 4
                ),
                pa.float64(),
            ),
        },
        schema=schema,
    )


# ------------------------------------------- largest-remainder allocation

ALLOC_SEATS = 100


def doc_sample_allocation(sf_dir: str) -> pa.Table:
    """EXACT INTEGER ALLOCATION (Hamilton / largest-remainder
    apportionment — the quota-design step before stratified sampling:
    split EXACTLY 100 sample slots across sources proportional to doc
    counts, no fractional seats, no drift): base = ⌊K·n_s/N⌋ per source,
    the K − Σbase leftover seats go to the largest remainders
    (K·n_s mod N, ties by source ASC). ONE tiny source census; the
    apportionment is pure integer arithmetic on both sides."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["source"])
    schema = pa.schema(
        [
            ("source", pa.string()),
            ("n_docs", pa.int64()),
            ("seats", pa.int64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        col = "source" if "source" in t.schema.names else None
        if t.num_rows == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                }
            )
        if col is None:
            return t
        keys, counts = np.unique(
            np.asarray(t["source"].to_pylist(), object), return_counts=True
        )
        return pa.table(
            {
                "source": pa.array(list(keys), pa.string()),
                "n_docs": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    cen = tree_combine(
        docs.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("source",), ("n_docs",)),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("source").reset_index(drop=True)
    n = cen["n_docs"].to_numpy(np.int64)
    total = int(n.sum())
    base = (ALLOC_SEATS * n) // total
    rem = (ALLOC_SEATS * n) % total
    left = ALLOC_SEATS - int(base.sum())
    # largest remainder, ties by source ASC (cen already source-sorted,
    # mergesort is stable)
    order = np.argsort(-rem, kind="mergesort")
    seats = base.copy()
    seats[order[:left]] += 1
    return pa.table(
        {
            "source": pa.array(cen["source"].tolist(), pa.string()),
            "n_docs": pa.array(n, pa.int64()),
            "seats": pa.array(seats, pa.int64()),
        },
        schema=schema,
    )


# ---------------------------------------------------- join-plan advisor

BROADCAST_BYTES_MAX = 64 * 1024 * 1024


def join_plan_advisor(sf_dir: str) -> pa.Table:
    """OPTIMIZER ADVISORY (the size-adaptive philosophy as a queryable
    op): for each declared FK join, both sides' row counts and estimated
    in-memory bytes, and the strategy a distributed planner should pick —
    broadcast the small side when it fits the 64 MiB budget, else a hash
    shuffle. Row counts come from parquet metadata (no data read);
    bytes = rows × fixed per-table row-width estimates (documented
    deterministic constants, so the oracle reproduces them)."""
    relations = (
        ("orders->customer", "orders", "customer"),
        ("lineitem->orders", "lineitem", "orders"),
        ("customer->nation", "customer", "nation"),
    )
    # per-row width estimates (bytes): key columns + payload, fixed per
    # table so both sides compute identical plans
    widths = {
        "orders": 64,
        "customer": 56,
        "lineitem": 96,
        "nation": 32,
    }
    rows_of = {}
    for t in {x for _, a, b in relations for x in (a, b)}:
        rows_of[t] = pq.ParquetFile(_p(sf_dir, t)).metadata.num_rows
    rel, fact_rows, dim_rows, dim_bytes, strategy = [], [], [], [], []
    for name, fact, dim in relations:
        fr, dr = rows_of[fact], rows_of[dim]
        db = dr * widths[dim]
        rel.append(name)
        fact_rows.append(fr)
        dim_rows.append(dr)
        dim_bytes.append(db)
        strategy.append(
            "broadcast" if db <= BROADCAST_BYTES_MAX else "hash_shuffle"
        )
    return pa.table(
        {
            "relation": pa.array(rel, pa.string()),
            "fact_rows": pa.array(fact_rows, pa.int64()),
            "dim_rows": pa.array(dim_rows, pa.int64()),
            "dim_bytes_est": pa.array(dim_bytes, pa.int64()),
            "strategy": pa.array(strategy, pa.string()),
        }
    )


# ------------------------------------------------- Spearman correlation


SPEARMAN_CENSUS_MAX = 2_000_000  # joint (nc, sp) census driver cap


def events_user_spearman(sf_dir: str) -> pa.Table:
    """SPEARMAN RANK CORRELATION with midrank ties (the rank-correlation
    class next to Pearson xcorr and the Mann-Whitney rank test): over
    users with ≥1 click AND ≥1 purchase, the correlation between click
    count and purchase spend. Exactness trick: Pearson is affine-
    invariant, so DOUBLED midranks (2·cum + m + 1 per tie group — always
    integers) replace fractional average ranks, and all five moments
    expand in exact ints (HUGEINT-mirrored) down to one sqrt-and-divide.
    Scale shape (round-5 audit fix — previously the whole per-user
    census was pulled to the driver): the per-user census is ONE
    user-key Ray groupby, a second (nc, sp) groupby collapses it to the
    JOINT value-pair census, and only that census (distinct-pair-
    bounded, loudly capped at SPEARMAN_CENSUS_MAX) reaches the driver —
    every moment is Σ count·f(midrank) over census cells, identical to
    the per-user expansion."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["user_id", "event_type", "value"],
    )
    schema = pa.schema([("n_users", pa.int64()), ("rho", pa.float64())])

    def partial(t: pa.Table) -> pa.Table:
        types = t["event_type"].to_pylist()
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_c = np.fromiter(
            (x == "click" for x in types), np.int64, len(types)
        )
        is_p = np.fromiter(
            (x == "purchase" for x in types), np.int64, len(types)
        )
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        keys, inv = np.unique(uid, return_inverse=True)
        nc = np.zeros(keys.size, np.int64)
        sp = np.zeros(keys.size, np.int64)
        np.add.at(nc, inv, is_c)
        np.add.at(sp, inv, is_p * cents)
        keep = (nc > 0) | (sp != 0)
        return pa.table(
            {
                "user_id": pa.array(keys[keep], pa.int64()),
                "nc": pa.array(nc[keep], pa.int64()),
                "sp": pa.array(sp[keep], pa.int64()),
            }
        )

    per_user = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("nc", alias_name="nc"), Sum("sp", alias_name="sp"))
    )

    def pair_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "nc" not in t.schema.names:
            return pa.table(
                {
                    "nc": pa.array([], pa.int64()),
                    "sp": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        nc = t["nc"].to_numpy(zero_copy_only=False).astype(np.int64)
        sp = t["sp"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (nc > 0) & (sp > 0)
        df = (
            pd.DataFrame({"nc": nc[keep], "sp": sp[keep], "cnt": 1})
            .groupby(["nc", "sp"], sort=False)
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(
            df, preserve_index=False
        ).replace_schema_metadata(None)

    pair_cen_ds = (
        per_user.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["nc", "sp"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .materialize()
    )
    n_cells = pair_cen_ds.count()
    if n_cells == 0:
        return schema.empty_table()
    if n_cells > SPEARMAN_CENSUS_MAX:
        raise ValueError(
            "events_user_spearman: joint (click-count, spend) census has "
            f"{n_cells} cells > SPEARMAN_CENSUS_MAX={SPEARMAN_CENSUS_MAX} "
            "— band the spend values (e.g. cents → dollars) before the "
            "pair census to bound the driver pull at this data scale"
        )
    cen = pair_cen_ds.to_pandas()
    n = int(cen["cnt"].sum())
    if n < 2:
        return schema.empty_table()

    def doubled_midranks_census(
        vals: np.ndarray, counts: np.ndarray
    ) -> dict[int, int]:
        # 2·rank_avg per VALUE from its census: 2·cum_before + mult + 1
        order = np.argsort(vals, kind="mergesort")
        sv, sc = vals[order], counts[order]
        cum_before = np.concatenate([[0], np.cumsum(sc)[:-1]])
        return {
            int(v): int(2 * cb + m + 1)
            for v, cb, m in zip(sv, cum_before, sc)
        }

    xcen = cen.groupby("nc")["cnt"].sum()
    ycen = cen.groupby("sp")["cnt"].sum()
    drx = doubled_midranks_census(
        xcen.index.to_numpy(np.int64), xcen.to_numpy(np.int64)
    )
    dry = doubled_midranks_census(
        ycen.index.to_numpy(np.int64), ycen.to_numpy(np.int64)
    )
    # exact-int moments over census cells (Python ints: Σc·dr² overflows
    # int64 at scale) — identical to the per-user expansion
    sx = sum(int(c) * drx[int(a)] for a, c in zip(xcen.index, xcen))
    sy = sum(int(c) * dry[int(b)] for b, c in zip(ycen.index, ycen))
    sxx = sum(int(c) * drx[int(a)] ** 2 for a, c in zip(xcen.index, xcen))
    syy = sum(int(c) * dry[int(b)] ** 2 for b, c in zip(ycen.index, ycen))
    sxy = sum(
        int(c) * drx[int(a)] * dry[int(b)]
        for a, b, c in zip(cen["nc"], cen["sp"], cen["cnt"])
    )
    dxx = n * sxx - sx * sx
    dyy = n * syy - sy * sy
    num = n * sxy - sx * sy
    if dxx <= 0 or dyy <= 0:
        rho = None
    else:
        import math

        rho = round_half_away(
            [float(num) / (math.sqrt(float(dxx)) * math.sqrt(float(dyy)))],
            4,
        )[0]
    return pa.table(
        {
            "n_users": pa.array([n], pa.int64()),
            "rho": pa.array([rho], pa.float64()),
        },
        schema=schema,
    )


# --------------------------------------------------- LOO target encoding


def events_type_target_encoding(sf_dir: str) -> pa.Table:
    """LEAVE-ONE-OUT TARGET ENCODING (the categorical-featurization class
    with the self-leakage subtlety done right): encode event_type by the
    mean of a binary target (value above the global mean) EXCLUDING the
    row itself — encode = (k_type − y) / (n_type − 1). Per (type, y)
    there are only two distinct encodings, so the op reports the compact
    (type, y, n_rows, encoding) table instead of a corpus-sized column;
    exact ints to one division per row, global-mean compare as an int
    cross product (the Wilson idiom). Types with a single row yield NULL
    (undefined LOO)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    )
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("y", pa.int64()),
            ("n_rows", pa.int64()),
            ("encoding", pa.float64()),
        ]
    )

    def scal(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"s": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        if "s" in t.schema.names:
            return pa.table(
                {
                    "s": pa.array([pc.sum(t["s"]).as_py() or 0], pa.int64()),
                    "n": pa.array([pc.sum(t["n"]).as_py() or 0], pa.int64()),
                }
            )
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table(
            {
                "s": pa.array([int(cents.sum())], pa.int64()),
                "n": pa.array([t.num_rows], pa.int64()),
            }
        )

    srows = tree_combine(
        ev.map_batches(scal, batch_format="pyarrow"), scal
    ).take_all()
    if not srows or int(srows[0]["n"]) == 0:
        return schema.empty_table()
    s_tot, n_tot = int(srows[0]["s"]), int(srows[0]["n"])

    def census(t: pa.Table, s_tot=s_tot, n_tot=n_tot) -> pa.Table:
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        y = (cents * np.int64(n_tot) > np.int64(s_tot)).astype(np.int64)
        df = (
            pd.DataFrame({"event_type": t["event_type"].to_pylist(), "y": y})
            .groupby(["event_type", "y"], sort=True)
            .size()
            .reset_index(name="n_rows")
        )
        return pa.table(
            {
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "y": pa.array(df["y"].to_numpy(np.int64), pa.int64()),
                "n_rows": pa.array(
                    df["n_rows"].to_numpy(np.int64), pa.int64()
                ),
            }
        )

    cen = tree_combine(
        ev.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("event_type", "y"), ("n_rows",)),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    per_type = cen.groupby("event_type").agg(
        n=("n_rows", "sum"),
        k=("n_rows", lambda g: 0),  # placeholder, recomputed below
    )
    k_by_type = (
        cen[cen["y"] == 1].set_index("event_type")["n_rows"]
        if (cen["y"] == 1).any()
        else pd.Series(dtype="int64")
    )
    encs = []
    for r in cen.itertuples(index=False):
        n_t = int(per_type.loc[r.event_type, "n"])
        k_t = int(k_by_type.get(r.event_type, 0))
        if n_t <= 1:
            encs.append(None)
        else:
            encs.append(
                round_half_away([(k_t - int(r.y)) / (n_t - 1)], 4)[0]
            )
    return pa.table(
        {
            "event_type": pa.array(cen["event_type"].tolist(), pa.string()),
            "y": pa.array(cen["y"].to_numpy(np.int64), pa.int64()),
            "n_rows": pa.array(cen["n_rows"].to_numpy(np.int64), pa.int64()),
            "encoding": pa.array(encs, pa.float64()),
        },
        schema=schema,
    )


# ----------------------------------------------------- grouped CV folds

CV_FOLDS = 5


def events_user_cv_folds(sf_dir: str) -> pa.Table:
    """GROUP-AWARE CROSS-VALIDATION folds (the leakage-proof CV split —
    every event of a user lands in the SAME fold, the constraint plain
    row hashing violates): fold = md5_number_upper(user_id) % 5; report
    per fold the user and event counts. Map-side (user, n_events)
    partials deduped by ONE user-key Ray groupby (users are
    corpus-scaled, NOT an enumerable tree_combine domain — round-5
    audit fix: the dedup census previously rode tree_combine's single
    final task and was pulled whole to the driver), then a map-side
    5-row fold census + ``tree_combine``; only the 5 fold rows reach
    the driver."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id"])
    schema = pa.schema(
        [
            ("fold", pa.int64()),
            ("n_users", pa.int64()),
            ("n_events", pa.int64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys, counts = np.unique(uid, return_counts=True)
        return pa.table(
            {
                "user_id": pa.array(keys, pa.int64()),
                "n_events": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    per_user = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("n_events", alias_name="n_events"))
    )

    def fold_census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "user_id" not in t.schema.names:
            return pa.table(
                {
                    "fold": pa.array([], pa.int64()),
                    "n_users": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nev = t["n_events"].to_numpy(zero_copy_only=False).astype(np.int64)
        folds = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(str(u).encode("utf-8")).digest()[:8],
                    "little",
                )
                % CV_FOLDS
                for u in uid
            ),
            np.int64,
            uid.size,
        )
        df = (
            pd.DataFrame({"fold": folds, "n_users": 1, "n_events": nev})
            .groupby("fold", sort=True)
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(
            df, preserve_index=False
        ).replace_schema_metadata(None)

    cen = pa.concat_tables(
        [schema.empty_table()]
        + list(
            tree_combine(
                per_user.map_batches(fold_census, batch_format="pyarrow"),
                group_sum_merge(("fold",), ("n_users", "n_events")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if cen.num_rows == 0:
        return schema.empty_table()
    df = cen.to_pandas().sort_values("fold")
    return pa.table(
        {
            "fold": pa.array(df["fold"].to_numpy(np.int64), pa.int64()),
            "n_users": pa.array(df["n_users"].to_numpy(np.int64), pa.int64()),
            "n_events": pa.array(
                df["n_events"].to_numpy(np.int64), pa.int64()
            ),
        },
        schema=schema,
    )


# ----------------------------------------------- Poisson goodness-of-fit


def orders_basket_poisson_gof(sf_dir: str) -> pa.Table:
    """PARAMETRIC GOODNESS-OF-FIT (the distribution-fit-testing class —
    does order size follow Poisson(λ = mean size)?): order-size census
    (count-of-counts, O(√total) rows), λ as one exact-int division, the
    Poisson pmf via the multiplicative recurrence p_k = p_{k−1}·λ/k
    (exp called ONCE — the oracle's recursive CTE replays the identical
    chain), per-size expected counts and chi² contributions. Output per
    observed size k: observed, expected 4dp, chi² term 4dp."""
    li = read_parquet_clean(_p(sf_dir, "lineitem"), columns=["l_orderkey"])
    schema = pa.schema(
        [
            ("k", pa.int64()),
            ("observed", pa.int64()),
            ("expected", pa.float64()),
            ("chi2_term", pa.float64()),
        ]
    )

    def per_order(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys, counts = np.unique(ok, return_counts=True)
        return pa.table(
            {
                "o": pa.array(keys, pa.int64()),
                "sz": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    sizes = tree_combine(
        li.map_batches(per_order, batch_format="pyarrow"),
        group_sum_merge(("o",), ("sz",)),
    )

    def coc(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"k": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        if "k" in t.schema.names:
            return t
        keys, counts = np.unique(
            t["sz"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "k": pa.array(keys.astype(np.int64), pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {"k": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        ]
        + list(
            tree_combine(
                sizes.map_batches(coc, batch_format="pyarrow"),
                group_sum_merge(("k",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    import math

    cen = cen.sort_values("k")
    ks = cen["k"].to_numpy(np.int64)
    ns = cen["n"].to_numpy(np.int64)
    n_orders = int(ns.sum())
    total_lines = int(np.dot(ks, ns))
    lam = total_lines / n_orders  # one exact-int division
    # recurrence in k order from 0 — exp called once; identical chain in
    # the oracle's recursive CTE
    pmf = {0: math.exp(-lam)}
    for k in range(1, int(ks.max()) + 1):
        pmf[k] = pmf[k - 1] * lam / k
    rows_k, obs, exp_, chi = [], [], [], []
    for k, n in zip(ks, ns):
        e = n_orders * pmf[int(k)]
        rows_k.append(int(k))
        obs.append(int(n))
        exp_.append(round_half_away([e], 4)[0])
        chi.append(
            round_half_away([(int(n) - e) * (int(n) - e) / e], 4)[0]
        )
    return pa.table(
        {
            "k": pa.array(rows_k, pa.int64()),
            "observed": pa.array(obs, pa.int64()),
            "expected": pa.array(exp_, pa.float64()),
            "chi2_term": pa.array(chi, pa.float64()),
        },
        schema=schema,
    )


# ------------------------------------------------------------ ROC AUC


def events_value_auc(sf_dir: str) -> pa.Table:
    """ROC AUC (the ranking-metric evaluation class next to the
    calibration curve): how well does event value rank purchases above
    clicks — AUC = P(value_purchase > value_click) + ½·P(tie), which is
    exactly the Mann-Whitney U over n₁·n₂ (doubled-rank machinery,
    integer-exact to the final division). Same ONE (type, value)-census
    as the rank test; output (n_click, n_purchase, auc 4dp)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    ).map_batches(
        lambda t: t.filter(
            pc.is_in(t["event_type"], pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow",
    )
    schema = pa.schema(
        [
            ("n_click", pa.int64()),
            ("n_purchase", pa.int64()),
            ("auc", pa.float64()),
        ]
    )

    def census(batch: pa.Table) -> pa.Table:
        cents = round_half_away(
            batch["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        is_p = (
            pc.equal(batch["event_type"], "purchase")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        key, inv = np.unique(cents, return_inverse=True)
        n1 = np.zeros(key.size, np.int64)
        n2 = np.zeros(key.size, np.int64)
        np.add.at(n1, inv, is_p)          # positives: purchases
        np.add.at(n2, inv, 1 - is_p)      # negatives: clicks
        return pa.table(
            {
                "c": pa.array(key, pa.int64()),
                "n1": pa.array(n1, pa.int64()),
                "n2": pa.array(n2, pa.int64()),
            }
        )

    counts = tree_combine(
        ev.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("c",), ("n1", "n2")),
    ).to_pandas()
    if counts.empty:
        return schema.empty_table()
    counts = counts.sort_values("c")
    n1a = counts["n1"].to_numpy(np.int64)
    n2a = counts["n2"].to_numpy(np.int64)
    n1, n2 = int(n1a.sum()), int(n2a.sum())
    if n1 == 0 or n2 == 0:
        return schema.empty_table()
    m = n1a + n2a
    cum = np.concatenate([[0], np.cumsum(m)[:-1]])
    r1x2 = sum(
        int(a) * (2 * int(cb) + int(mm) + 1)
        for a, cb, mm in zip(n1a, cum, m)
    )
    u1x2 = r1x2 - n1 * (n1 + 1)  # doubled U for the positive sample
    auc = round_half_away(
        [float(u1x2) / (2.0 * float(n1) * float(n2))], 4
    )[0]
    return pa.table(
        {
            "n_click": pa.array([n2], pa.int64()),
            "n_purchase": pa.array([n1], pa.int64()),
            "auc": pa.array([auc], pa.float64()),
        },
        schema=schema,
    )


# --------------------------------------------------- Bayesian shrinkage

SHRINK_ALPHA = 20


def events_type_shrunk_rate(sf_dir: str) -> pa.Table:
    """EMPIRICAL-BAYES SHRINKAGE (the cold-start estimator class — a raw
    small-n rate is noise; shrink it toward the global prior with
    pseudo-count strength α = 20): per type, high-value rate
    (k + α·p₀) / (n + α) next to the raw k/n. p₀ = global rate; the
    compare is the exact-int cross product (Wilson idiom), shrinkage is
    two divisions of exact operands mirrored in SQL."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    )
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n", pa.int64()),
            ("n_hi", pa.int64()),
            ("raw_rate", pa.float64()),
            ("shrunk_rate", pa.float64()),
        ]
    )

    def scal(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"s": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        if "s" in t.schema.names:
            return pa.table(
                {
                    "s": pa.array([pc.sum(t["s"]).as_py() or 0], pa.int64()),
                    "n": pa.array([pc.sum(t["n"]).as_py() or 0], pa.int64()),
                }
            )
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table(
            {
                "s": pa.array([int(cents.sum())], pa.int64()),
                "n": pa.array([t.num_rows], pa.int64()),
            }
        )

    srows = tree_combine(
        ev.map_batches(scal, batch_format="pyarrow"), scal
    ).take_all()
    if not srows or int(srows[0]["n"]) == 0:
        return schema.empty_table()
    s_tot, n_tot = int(srows[0]["s"]), int(srows[0]["n"])

    def census(t: pa.Table, s_tot=s_tot, n_tot=n_tot) -> pa.Table:
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        hi = (cents * np.int64(n_tot) > np.int64(s_tot)).astype(np.int64)
        df = (
            pd.DataFrame(
                {"event_type": t["event_type"].to_pylist(), "hi": hi}
            )
            .groupby("event_type", sort=True)
            .agg(n=("hi", "size"), n_hi=("hi", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
                "n_hi": pa.array(df["n_hi"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = tree_combine(
        ev.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("event_type",), ("n", "n_hi")),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    k_tot = int(cen["n_hi"].sum())
    p0 = k_tot / n_tot
    a = SHRINK_ALPHA
    out = []
    for r in cen.itertuples(index=False):
        n, k = int(r.n), int(r.n_hi)
        out.append(
            (
                r.event_type,
                n,
                k,
                round_half_away([k / n], 4)[0],
                round_half_away([(k + a * p0) / (n + a)], 4)[0],
            )
        )
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in out], pa.string()),
            "n": pa.array([r[1] for r in out], pa.int64()),
            "n_hi": pa.array([r[2] for r in out], pa.int64()),
            "raw_rate": pa.array([r[3] for r in out], pa.float64()),
            "shrunk_rate": pa.array([r[4] for r in out], pa.float64()),
        },
        schema=schema,
    )


# ------------------------------------------------- mutual information

MI_DECILES = 10


def events_type_value_mi(sf_dir: str) -> pa.Table:
    """MUTUAL INFORMATION between event type and value decile (the
    information-theoretic association measure next to chi² — captures
    any dependence, not just linear): I = Σ p(t,d)·ln(p(t,d)/(p(t)p(d)))
    over the (type, decile) census, deciles = equi-depth boundaries from
    the value census (quantile_disc rule). Integer counts everywhere;
    each term is ln of a ratio of exact-int products times one division.
    PER-CELL contribution rows out (the chi² convention — neither side
    ever sums doubles order-dependently); the consumer sums."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    )
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("d", pa.int64()),
            ("n", pa.int64()),
            ("mi_term", pa.float64()),
        ]
    )

    def vcensus(t: pa.Table) -> pa.Table:
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        keys, counts = np.unique(cents, return_counts=True)
        return pa.table(
            {
                "v": pa.array(keys, pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    vc = pa.concat_tables(
        [
            pa.table(
                {"v": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(vcensus, batch_format="pyarrow"),
                group_sum_merge(("v",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if vc.empty:
        return schema.empty_table()
    vc = vc.sort_values("v")
    vs = vc["v"].to_numpy(np.int64)
    cum = np.cumsum(vc["n"].to_numpy(np.int64))
    n_total = int(cum[-1])
    bounds = []
    for i in range(1, MI_DECILES + 1):
        rank = int(np.ceil(n_total * (i / MI_DECILES)))
        bounds.append(int(vs[np.searchsorted(cum, rank)]))
    bref = ray.put(np.asarray(bounds, np.int64))

    def cell_census(t: pa.Table, bref=bref) -> pa.Table:
        b = ray.get(bref) if isinstance(bref, ray.ObjectRef) else bref
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        # decile = first boundary >= value (1-based)
        d = np.searchsorted(b, cents, side="left") + 1
        df = (
            pd.DataFrame(
                {"event_type": t["event_type"].to_pylist(), "d": d}
            )
            .groupby(["event_type", "d"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "event_type": pa.array(df["event_type"].tolist(), pa.string()),
                "d": pa.array(df["d"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = tree_combine(
        ev.map_batches(cell_census, batch_format="pyarrow"),
        group_sum_merge(("event_type", "d"), ("n",)),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    import math

    cen = cen.sort_values(["event_type", "d"])
    nt = cen.groupby("event_type")["n"].sum()
    nd = cen.groupby("d")["n"].sum()
    terms = [
        round_half_away(
            [
                (int(r.n) / n_total)
                * math.log(
                    (int(r.n) * n_total)
                    / (int(nt[r.event_type]) * int(nd[r.d]))
                )
            ],
            6,
        )[0]
        for r in cen.itertuples(index=False)
    ]
    return pa.table(
        {
            "event_type": pa.array(cen["event_type"].tolist(), pa.string()),
            "d": pa.array(cen["d"].to_numpy(np.int64), pa.int64()),
            "n": pa.array(cen["n"].to_numpy(np.int64), pa.int64()),
            "mi_term": pa.array(terms, pa.float64()),
        },
        schema=schema,
    )


# --------------------------------------------- interpolated percentiles

CONT_QS = (0.5, 0.9, 0.99)


def events_value_quantiles_cont(sf_dir: str) -> pa.Table:
    """INTERPOLATED (percentile_cont) quantiles — the second SQL quantile
    semantic, next to the discrete quantile_disc ops: position
    h = (n−1)·q, value = v⌊h⌋ + (h−⌊h⌋)·(v⌊h⌋₊₁ − v⌊h⌋), linear between
    order statistics (DuckDB quantile_cont's rule). ONE cents census;
    both order statistics read off the cumulative, one multiply-add in
    doubles mirrored exactly; output in dollars 4-dp."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["value"])
    schema = pa.schema([("q", pa.float64()), ("value_cont", pa.float64())])

    def census(t: pa.Table) -> pa.Table:
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        keys, counts = np.unique(cents, return_counts=True)
        return pa.table(
            {
                "v": pa.array(keys, pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {"v": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("v",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("v")
    vs = cen["v"].to_numpy(np.int64)
    cum = np.cumsum(cen["n"].to_numpy(np.int64))
    n = int(cum[-1])

    def order_stat(rank0: int) -> int:
        # 0-based order statistic via the cumulative
        return int(vs[np.searchsorted(cum, rank0 + 1)])

    qs_out, vals = [], []
    for qq in CONT_QS:
        h = (n - 1) * qq
        lo = int(np.floor(h))
        frac = h - lo
        v_lo = order_stat(lo)
        v = (
            float(v_lo)
            if frac == 0.0 or lo + 1 >= n
            else v_lo + frac * (order_stat(lo + 1) - v_lo)
        )
        qs_out.append(qq)
        vals.append(round_half_away([v / 100.0], 4)[0])
    return pa.table(
        {
            "q": pa.array(qs_out, pa.float64()),
            "value_cont": pa.array(vals, pa.float64()),
        },
        schema=schema,
    )


# ------------------------------------------------- langid agreement kappa


def doc_langid_kappa(sf_dir: str) -> pa.Table:
    """COHEN'S KAPPA inter-labeler agreement (the annotation-quality /
    classifier-evaluation class): the n-gram language-ID predictions vs
    the corpus lang labels. Confusion cells from ONE map pass (both
    columns live in the same row — no join); kappa collapses to ONE
    exact-int division: (D·N − S) / (N² − S), D = agreements, S =
    Σ row-marginal × column-marginal."""
    from ..functions.langid import langid_batch

    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )
    schema = pa.schema(
        [
            ("n_docs", pa.int64()),
            ("n_agree", pa.int64()),
            ("accuracy", pa.float64()),
            ("kappa", pa.float64()),
        ]
    )

    def cells(t: pa.Table) -> pa.Table:
        pred = langid_batch(t)["lang_pred"].to_pylist()
        df = (
            pd.DataFrame({"lang": t["lang"].to_pylist(), "pred": pred})
            .groupby(["lang", "pred"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "lang": pa.array(df["lang"].tolist(), pa.string()),
                "pred": pa.array(df["pred"].tolist(), pa.string()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = tree_combine(
        docs.map_batches(cells, batch_format="pyarrow"),
        group_sum_merge(("lang", "pred"), ("n",)),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    n_total = int(cen["n"].sum())
    d = int(cen.loc[cen["lang"] == cen["pred"], "n"].sum())
    rown = cen.groupby("lang")["n"].sum()
    coln = cen.groupby("pred")["n"].sum()
    s = sum(
        int(rn) * int(coln.get(l, 0)) for l, rn in rown.items()
    )
    denom = n_total * n_total - s
    kappa = (
        None
        if denom == 0
        else round_half_away([(d * n_total - s) / denom], 4)[0]
    )
    return pa.table(
        {
            "n_docs": pa.array([n_total], pa.int64()),
            "n_agree": pa.array([d], pa.int64()),
            "accuracy": pa.array(
                [round_half_away([d / n_total], 4)[0]], pa.float64()
            ),
            "kappa": pa.array([kappa], pa.float64()),
        },
        schema=schema,
    )


# ---------------------------------------------------- Hill tail index

HILL_K = 50


def events_user_hill_terms(sf_dir: str) -> pa.Table:
    """HILL TAIL-INDEX terms (heavy-tail / power-law estimation over user
    activity — the quantitative version of the Zipf fit): for the top-k
    users by event count, ln(c_i / c_{k+1}) per rank (the Hill estimator
    is k / Σ terms). PER-RANK rows out (no order-dependent double sum on
    either side); user census via ONE groupby, the top-(k+1) cut is the
    associative (count DESC, user ASC) merge. k = min(50, n_users − 1)."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id"])
    schema = pa.schema(
        [
            ("rank", pa.int64()),
            ("n_events", pa.int64()),
            ("ln_ratio", pa.float64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys, counts = np.unique(uid, return_counts=True)
        return pa.table(
            {
                "user_id": pa.array(keys, pa.int64()),
                "m": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    # user_id is corpus-scaled, NOT an enumerable tree_combine domain
    # (round-5 audit fix: the census previously rode tree_combine's
    # single final task) — the per-user sum is ONE user-key Ray groupby,
    # as the docstring always promised; only the associative top-(k+1)
    # cut tree-combines.
    census = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("m", alias_name="m"))
    )
    top = pa.concat_tables(
        [
            pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "m": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                census, topk_merge(HILL_K + 1, "m", ["user_id"])
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if len(top) < 2:
        return schema.empty_table()
    top = top.sort_values(
        ["m", "user_id"], ascending=[False, True]
    ).reset_index(drop=True)
    k = min(HILL_K, len(top) - 1)
    c_ref = int(top["m"].iloc[k])  # the (k+1)-th count
    import math

    ranks = list(range(1, k + 1))
    cs = [int(top["m"].iloc[i - 1]) for i in ranks]
    return pa.table(
        {
            "rank": pa.array(ranks, pa.int64()),
            "n_events": pa.array(cs, pa.int64()),
            "ln_ratio": pa.array(
                [
                    round_half_away([math.log(c / c_ref)], 6)[0]
                    for c in cs
                ],
                pa.float64(),
            ),
        },
        schema=schema,
    )


# ------------------------------------------------- Bloom-filter FPR audit


def bloom_fpr_audit(sf_dir: str) -> pa.Table:
    """SKETCH-QUALITY AUDIT (measure the sketch, not just use it): the
    ACTUAL false-positive rate of the order-custkey Bloom filter on the
    order-less customers, next to the theoretical (1 − e^(−kn/m))^k.
    Builds the same 2^20-bit / k=4 double-hashed bitmap as
    customers_without_orders_bloom; the exact key set broadcasts for
    ground truth (an AUDIT runs at sample scale — the production anti-
    join is the point of the sketch). One customer pass counts
    (order-less, bloom-hit) pairs. Theory and actual are single double
    expressions mirrored exactly (p1 multiplied k times, no pow)."""
    orders = read_parquet_clean(_p(sf_dir, "orders"), columns=["o_custkey"])
    schema = pa.schema(
        [
            ("n_no_orders", pa.int64()),
            ("n_bloom_fp", pa.int64()),
            ("fpr_actual", pa.float64()),
            ("fpr_theory", pa.float64()),
        ]
    )

    def keyrows(t: pa.Table) -> pa.Table:
        col = "o_custkey" if "o_custkey" in t.schema.names else "k"
        ks = np.unique(
            t[col].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        return pa.table({"k": pa.array(ks, pa.int64())})

    keys = pa.concat_tables(
        [pa.table({"k": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                orders.map_batches(keyrows, batch_format="pyarrow"), keyrows
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    okeys = set(keys["k"].to_pylist())
    nk = len(okeys)
    bits = np.zeros(BLOOM_BITS // 8, dtype=np.uint8)
    for k in okeys:
        for p in _bloom_positions(k):
            bits[p >> 3] |= 1 << (p & 7)
    bref = ray.put((bits, frozenset(okeys)))

    cust = read_parquet_clean(_p(sf_dir, "customer"), columns=["c_custkey"])

    def audit(t: pa.Table, bref=bref) -> pa.Table:
        bits, okeys = (
            ray.get(bref) if isinstance(bref, ray.ObjectRef) else bref
        )
        n_no, n_fp = 0, 0
        for ck in t["c_custkey"].to_pylist():
            if ck in okeys:
                continue
            n_no += 1
            if all(
                bits[p >> 3] & (1 << (p & 7))
                for p in _bloom_positions(ck)
            ):
                n_fp += 1
        return pa.table(
            {
                "n_no": pa.array([n_no], pa.int64()),
                "n_fp": pa.array([n_fp], pa.int64()),
            }
        )

    def sum_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return pa.table(
            {
                "n_no": pa.array([pc.sum(t["n_no"]).as_py() or 0], pa.int64()),
                "n_fp": pa.array([pc.sum(t["n_fp"]).as_py() or 0], pa.int64()),
            }
        )

    rows = tree_combine(
        cust.map_batches(audit, batch_format="pyarrow"), sum_rows
    ).take_all()
    n_no = int(rows[0]["n_no"]) if rows else 0
    n_fp = int(rows[0]["n_fp"]) if rows else 0
    import math

    lam = (BLOOM_K * nk) / BLOOM_BITS
    p1 = 1.0 - math.exp(-lam)
    theory = p1 * p1 * p1 * p1
    return pa.table(
        {
            "n_no_orders": pa.array([n_no], pa.int64()),
            "n_bloom_fp": pa.array([n_fp], pa.int64()),
            "fpr_actual": pa.array(
                [
                    None
                    if n_no == 0
                    else round_half_away([n_fp / n_no], 6)[0]
                ],
                pa.float64(),
            ),
            "fpr_theory": pa.array(
                [round_half_away([theory], 6)[0]], pa.float64()
            ),
        },
        schema=schema,
    )


# ----------------------------------------------------- binscatter profile


def events_hour_value_binscatter(sf_dir: str) -> pa.Table:
    """BINSCATTER / conditional-distribution profile (the nonparametric
    what-does-y-do-as-x-moves view): per hour of day, event count, mean
    value (exact-cents division) and MEDIAN value (quantile_disc order
    statistic). ONE (hour, cents)-census pass — 24 × value-domain rows —
    then per-hour order statistics off the sorted census."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["ts", "value"])
    schema = pa.schema(
        [
            ("hour", pa.int64()),
            ("n", pa.int64()),
            ("mean_value", pa.float64()),
            ("median_value", pa.float64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        hod = (_ts_us(t) // _HOUR_US) % 24
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        df = (
            pd.DataFrame({"h": hod, "v": cents})
            .groupby(["h", "v"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "h": pa.array(df["h"].to_numpy(np.int64), pa.int64()),
                "v": pa.array(df["v"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = tree_combine(
        ev.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("h", "v"), ("n",)),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    hours, ns, means, medians = [], [], [], []
    for h, g in cen.groupby("h", sort=True):
        g = g.sort_values("v")
        vs = g["v"].to_numpy(np.int64)
        cn = g["n"].to_numpy(np.int64)
        cum = np.cumsum(cn)
        n = int(cum[-1])
        s = int(np.dot(vs, cn))
        med = int(vs[np.searchsorted(cum, int(np.ceil(n * 0.5)))])
        hours.append(int(h))
        ns.append(n)
        means.append(
            round_half_away([float(s) / (n * 100.0)], 4)[0]
        )
        medians.append(round_half_away([med / 100.0], 4)[0])
    return pa.table(
        {
            "hour": pa.array(hours, pa.int64()),
            "n": pa.array(ns, pa.int64()),
            "mean_value": pa.array(means, pa.float64()),
            "median_value": pa.array(medians, pa.float64()),
        },
        schema=schema,
    )


# ------------------------------------------- exponential-fit KS GOF


def events_gap_expfit_ks(sf_dir: str) -> pa.Table:
    """PARAMETRIC KS goodness-of-fit (continuous counterpart of the
    Poisson chi² GOF — do inter-event gaps look exponential?): per-user
    consecutive gaps in whole seconds pooled corpus-wide, μ = mean gap
    (one exact-int division), D = max over the gap census of
    |ecdf − (1 − e^(−v/μ))|. The max is ORDER-FREE, so a single-row
    statistic is safe where a float SUM would not be (NOTES per-cell
    rule); ecdf steps are exact-int ratios. ONE user-key groupby emits
    gap-census partials."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "ts"])
    schema = pa.schema(
        [
            ("n_gaps", pa.int64()),
            ("mu_seconds", pa.float64()),
            ("ks", pa.float64()),
        ]
    )

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts_us": pa.array(_ts_us(t), pa.int64()),
            }
        )

    def gaps_of(g: pd.DataFrame) -> pd.DataFrame:
        ts = np.sort(g["ts_us"].to_numpy(np.int64))
        if ts.size < 2:
            return pd.DataFrame(
                {
                    "v": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        d = np.diff(ts) // 1_000_000  # whole seconds
        keys, counts = np.unique(d, return_counts=True)
        return pd.DataFrame(
            {"v": keys.astype(np.int64), "n": counts.astype(np.int64)}
        )

    cen = tree_combine(
        ev.map_batches(to_us, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(gaps_of, batch_format="pandas"),
        group_sum_merge(("v",), ("n",)),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    import math

    cen = cen.sort_values("v")
    vs = cen["v"].to_numpy(np.int64)
    cum = np.cumsum(cen["n"].to_numpy(np.int64))
    n = int(cum[-1])
    total = int(np.dot(vs, cen["n"].to_numpy(np.int64)))
    if total == 0:
        return schema.empty_table()
    mu = total / n
    d = max(
        abs(int(c) / n - (1.0 - math.exp(-(int(v) / mu))))
        for v, c in zip(vs, cum)
    )
    return pa.table(
        {
            "n_gaps": pa.array([n], pa.int64()),
            "mu_seconds": pa.array(
                [round_half_away([mu], 4)[0]], pa.float64()
            ),
            "ks": pa.array([round_half_away([d], 6)[0]], pa.float64()),
        },
        schema=schema,
    )


# ------------------------------------------------ difference-in-differences


def events_did_estimate(sf_dir: str) -> pa.Table:
    """DIFFERENCE-IN-DIFFERENCES (the causal-inference workhorse for
    natural experiments): md5-parity user arms (the split-assign
    convention), pre/post periods at the data-derived midpoint watermark
    (the snapshot-diff convention), outcome = mean purchase value. DiD =
    (treat_post − treat_pre) − (ctrl_post − ctrl_pre), each mean one
    exact-int division, the full chain mirrored operand-for-operand. ONE
    (arm, period) 4-cell census after a scalar span pre-pass."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["user_id", "event_type", "ts", "value"],
    )
    schema = pa.schema(
        [
            ("m_ctrl_pre", pa.float64()),
            ("m_ctrl_post", pa.float64()),
            ("m_treat_pre", pa.float64()),
            ("m_treat_post", pa.float64()),
            ("did", pa.float64()),
        ]
    )

    def spanrow(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "tmin": pa.array([], pa.int64()),
                    "tmax": pa.array([], pa.int64()),
                }
            )
        if "tmin" in t.schema.names:
            return pa.table(
                {
                    "tmin": pa.array(
                        [pc.min(t["tmin"]).as_py()], pa.int64()
                    ),
                    "tmax": pa.array(
                        [pc.max(t["tmax"]).as_py()], pa.int64()
                    ),
                }
            )
        us = _ts_us(t)
        return pa.table(
            {
                "tmin": pa.array([int(us.min())], pa.int64()),
                "tmax": pa.array([int(us.max())], pa.int64()),
            }
        )

    span = tree_combine(
        ev.map_batches(spanrow, batch_format="pyarrow"), spanrow
    ).take_all()
    if not span:
        return schema.empty_table()
    tmin, tmax = int(span[0]["tmin"]), int(span[0]["tmax"])
    t1 = tmin + (tmax - tmin) // 2

    def census(t: pa.Table, t1=t1) -> pa.Table:
        sel = pc.equal(t["event_type"], "purchase")
        t = t.filter(sel)
        if t.num_rows == 0:
            return pa.table(
                {
                    "arm": pa.array([], pa.int64()),
                    "post": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        us = _ts_us(t)
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        arm = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(str(u).encode("utf-8")).digest()[:8],
                    "little",
                )
                % 2
                for u in t["user_id"].to_pylist()
            ),
            np.int64,
            t.num_rows,
        )
        post = (us > t1).astype(np.int64)
        df = (
            pd.DataFrame({"arm": arm, "post": post, "s": cents})
            .groupby(["arm", "post"], sort=True)
            .agg(s=("s", "sum"), n=("s", "size"))
            .reset_index()
        )
        return pa.table(
            {
                "arm": pa.array(df["arm"].to_numpy(np.int64), pa.int64()),
                "post": pa.array(df["post"].to_numpy(np.int64), pa.int64()),
                "s": pa.array(df["s"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = tree_combine(
        ev.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("arm", "post"), ("s", "n")),
    ).to_pandas()
    cells = {
        (int(r.arm), int(r.post)): (int(r.s), int(r.n))
        for r in cen.itertuples(index=False)
    }
    if any((a, p) not in cells for a in (0, 1) for p in (0, 1)):
        return schema.empty_table()

    def mean(a, p):
        s, n = cells[(a, p)]
        return s / (n * 100.0)

    did = (mean(1, 1) - mean(1, 0)) - (mean(0, 1) - mean(0, 0))
    return pa.table(
        {
            "m_ctrl_pre": pa.array(
                [round_half_away([mean(0, 0)], 4)[0]], pa.float64()
            ),
            "m_ctrl_post": pa.array(
                [round_half_away([mean(0, 1)], 4)[0]], pa.float64()
            ),
            "m_treat_pre": pa.array(
                [round_half_away([mean(1, 0)], 4)[0]], pa.float64()
            ),
            "m_treat_post": pa.array(
                [round_half_away([mean(1, 1)], 4)[0]], pa.float64()
            ),
            "did": pa.array(
                [round_half_away([did], 4)[0]], pa.float64()
            ),
        },
        schema=schema,
    )


# ---------------------------------------------------------- OOV rate


def corpus_oov_rate(sf_dir: str) -> pa.Table:
    """VOCABULARY DRIFT / OOV-RATE audit (the train-vs-eval tokenizer
    check an LLM pipeline runs after any split change): fraction of
    token OCCURRENCES in the eval split (hash-split valid+test) whose
    token never appears in the train split. Distributed membership via
    ONE side-tagged token-key cogroup (the fk_orphan shape on tokens:
    train rows carry a marker, eval rows carry occurrence counts —
    vocabulary-sized shuffle, never corpus rows)."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    schema = pa.schema(
        [
            ("n_eval_tokens", pa.int64()),
            ("n_oov", pa.int64()),
            ("oov_rate", pa.float64()),
        ]
    )

    def token_rows(t: pa.Table) -> pa.Table:
        toks: dict[tuple[str, int], int] = {}
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            b = (
                int.from_bytes(
                    hashlib.md5(str(d).encode("utf-8")).digest()[:8],
                    "little",
                )
                % 10
            )
            is_train = 1 if b < 8 else 0
            for w in _TOKEN_RE.findall(txt or ""):
                toks[(w, is_train)] = toks.get((w, is_train), 0) + 1
        ws, tr, ns = [], [], []
        for (w, s), n in toks.items():
            ws.append(w)
            tr.append(s)
            ns.append(n)
        return pa.table(
            {
                "token": pa.array(ws, pa.string()),
                "in_train": pa.array(tr, pa.int64()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    from ray.data.aggregate import Max as _Max

    tagged = docs.map_batches(token_rows, batch_format="pyarrow")

    # side-tagged token cogroup: eval rows carry counts, train rows carry
    # the membership marker
    def eval_rows(t: pa.Table) -> pa.Table:
        sel = pc.equal(t["in_train"], 0)
        t2 = t.filter(sel)
        return pa.table(
            {
                "token": t2["token"],
                "n_eval": t2["n"].cast(pa.int64()),
                "marker": pa.array([0] * t2.num_rows, pa.int64()),
            }
        )

    def train_rows(t: pa.Table) -> pa.Table:
        sel = pc.equal(t["in_train"], 1)
        t2 = t.filter(sel)
        return pa.table(
            {
                "token": t2["token"],
                "n_eval": pa.array([0] * t2.num_rows, pa.int64()),
                "marker": pa.array([1] * t2.num_rows, pa.int64()),
            }
        )

    both = tagged.map_batches(eval_rows, batch_format="pyarrow").union(
        tagged.map_batches(train_rows, batch_format="pyarrow")
    )
    per_tok = both.groupby("token").aggregate(
        Sum("n_eval", alias_name="n_eval"),
        _Max("marker", alias_name="has_train"),
    )

    def verdict(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "n_eval" not in t.schema.names:
            if "n_tot" in t.schema.names:
                return pa.table(
                    {
                        "n_tot": pa.array(
                            [pc.sum(t["n_tot"]).as_py() or 0], pa.int64()
                        ),
                        "n_oov": pa.array(
                            [pc.sum(t["n_oov"]).as_py() or 0], pa.int64()
                        ),
                    }
                )
            return pa.table(
                {
                    "n_tot": pa.array([0], pa.int64()),
                    "n_oov": pa.array([0], pa.int64()),
                }
            )
        ne = t["n_eval"].to_numpy(zero_copy_only=False).astype(np.int64)
        ht = t["has_train"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n_tot": pa.array([int(ne.sum())], pa.int64()),
                "n_oov": pa.array([int(ne[ht == 0].sum())], pa.int64()),
            }
        )

    rows = tree_combine(
        per_tok.map_batches(verdict, batch_format="pyarrow"), verdict
    ).take_all()
    n_tot = int(rows[0]["n_tot"]) if rows else 0
    n_oov = int(rows[0]["n_oov"]) if rows else 0
    if n_tot == 0:
        return schema.empty_table()
    return pa.table(
        {
            "n_eval_tokens": pa.array([n_tot], pa.int64()),
            "n_oov": pa.array([n_oov], pa.int64()),
            "oov_rate": pa.array(
                [round_half_away([n_oov / n_tot], 6)[0]], pa.float64()
            ),
        },
        schema=schema,
    )


# ------------------------------------------------------- cluster purity


def doc_cluster_purity(sf_dir: str) -> pa.Table:
    """EXTERNAL CLUSTER VALIDATION (purity — does the near-dup clustering
    respect the lang labels?): over the oracled 3-gram-Jaccard clusters,
    per cluster the majority-label share. Cluster membership is
    pair-count-bounded (far below corpus), so the member→cluster map
    broadcasts and ONE documents pass emits (cluster, lang) cells; purity
    is one division per cluster."""
    from ..stages.canonicalize import connected_components
    from ..stages.dedup import _id_key, ngram_jaccard_pairs

    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )
    schema = pa.schema(
        [
            ("cluster_id", pa.int64()),
            ("n_docs", pa.int64()),
            ("n_major", pa.int64()),
            ("purity", pa.float64()),
        ]
    )
    pairs = ngram_jaccard_pairs(
        docs.select_columns(["doc_id", "text"]), threshold=0.8
    ).map_batches(
        lambda t: pa.table(
            {
                "a": pa.array(
                    [_id_key(v) for v in t["a"].to_pylist()], pa.string()
                ),
                "b": pa.array(
                    [_id_key(v) for v in t["b"].to_pylist()], pa.string()
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def node_rows(t: pa.Table) -> pa.Table:
        arr = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        return pa.table({"node": pc.unique(arr)})

    nodes = pairs.map_batches(node_rows, batch_format="pyarrow")
    members = connected_components(pairs, nodes).take_all()
    if not members:
        return schema.empty_table()
    memb = {int(r["node"]): int(r["label"]) for r in members}
    mref = ray.put(memb)

    def cells(t: pa.Table, mref=mref) -> pa.Table:
        m = ray.get(mref) if isinstance(mref, ray.ObjectRef) else mref
        cl, lg = [], []
        for d, lang in zip(t["doc_id"].to_pylist(), t["lang"].to_pylist()):
            c = m.get(int(d))
            if c is not None:
                cl.append(c)
                lg.append(lang)
        df = (
            pd.DataFrame({"cluster_id": cl, "lang": lg})
            .groupby(["cluster_id", "lang"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "cluster_id": pa.array(
                    df["cluster_id"].to_numpy(np.int64), pa.int64()
                ),
                "lang": pa.array(df["lang"].tolist(), pa.string()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = tree_combine(
        docs.map_batches(cells, batch_format="pyarrow"),
        group_sum_merge(("cluster_id", "lang"), ("n",)),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    g = cen.groupby("cluster_id").agg(
        n_docs=("n", "sum"), n_major=("n", "max")
    )
    return pa.table(
        {
            "cluster_id": pa.array(g.index.to_numpy(np.int64), pa.int64()),
            "n_docs": pa.array(g["n_docs"].to_numpy(np.int64), pa.int64()),
            "n_major": pa.array(
                g["n_major"].to_numpy(np.int64), pa.int64()
            ),
            "purity": pa.array(
                round_half_away(
                    g["n_major"].to_numpy(np.float64)
                    / g["n_docs"].to_numpy(np.float64),
                    4,
                ),
                pa.float64(),
            ),
        },
        schema=schema,
    )


# ------------------------------------------------- token coverage curve

COVERAGE_PCTS = (50, 90, 99)


def corpus_token_coverage(sf_dir: str) -> pa.Table:
    """VOCABULARY COVERAGE curve (the tokenizer-design question: how many
    distinct tokens cover 50/90/99% of occurrences?): token census, rank
    by (freq DESC, token ASC), smallest prefix whose cumulative count
    reaches each threshold — the comparison is the exact integer cross
    product 100·cum ≥ pct·total (the ABC-classification convention).
    ONE vocabulary census; prefix scan on the driver (vocab-bounded)."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])
    schema = pa.schema(
        [
            ("pct", pa.int64()),
            ("n_tokens", pa.int64()),
            ("covered", pa.int64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        c = Counter()
        for txt in t["text"].to_pylist():
            c.update(_TOKEN_RE.findall(txt or ""))
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    cen = tree_combine(
        docs.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("token",), ("n",)),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values(
        ["n", "token"], ascending=[False, True], kind="mergesort"
    )
    cum = np.cumsum(cen["n"].to_numpy(np.int64))
    total = int(cum[-1])
    pcts, nts, covs = [], [], []
    for pct in COVERAGE_PCTS:
        j = int(np.searchsorted(100 * cum, pct * total))
        pcts.append(pct)
        nts.append(j + 1)
        covs.append(int(cum[j]))
    return pa.table(
        {
            "pct": pa.array(pcts, pa.int64()),
            "n_tokens": pa.array(nts, pa.int64()),
            "covered": pa.array(covs, pa.int64()),
        },
        schema=schema,
    )


# ---------------------------------------------------------- Fano factor


def events_hourly_fano(sf_dir: str) -> pa.Table:
    """FANO FACTOR (index of dispersion — the overdispersion diagnostic
    that says whether hourly arrivals are Poisson-like, var/mean = 1, or
    bursty, > 1): over the dense hourly count grid, population variance /
    mean from exact integer moments (Σx, Σx², span), two divisions at the
    end mirrored by the oracle. Complements the Poisson GOF: that tests
    the SIZE distribution, this the arrival process."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["ts"])
    schema = pa.schema(
        [
            ("n_hours", pa.int64()),
            ("mean_per_hour", pa.float64()),
            ("fano", pa.float64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        h = _ts_us(t) // _HOUR_US
        keys, counts = np.unique(h, return_counts=True)
        return pa.table(
            {
                "h": pa.array(keys.astype(np.int64), pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    cen = tree_combine(
        ev.map_batches(partial, batch_format="pyarrow"),
        group_sum_merge(("h",), ("n",)),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    # dense grid: empty hours inside the span count as 0 (they carry no
    # census row but DO contribute to the span)
    span = int(cen["h"].max()) - int(cen["h"].min()) + 1
    ns = cen["n"].to_numpy(np.int64)
    s1 = int(ns.sum())
    s2 = int(np.dot(ns, ns))
    mean = s1 / span
    # population variance: E[x²] − E[x]² — identical shape in SQL
    var = s2 / span - (s1 / span) * (s1 / span)
    fano = None if s1 == 0 else round_half_away([var / mean], 4)[0]
    return pa.table(
        {
            "n_hours": pa.array([span], pa.int64()),
            "mean_per_hour": pa.array(
                [round_half_away([mean], 4)[0]], pa.float64()
            ),
            "fano": pa.array([fano], pa.float64()),
        },
        schema=schema,
    )


# ------------------------------------------------- CUPED variance reduction
def events_cuped_adjust(sf_dir: str) -> pa.Table:
    """CUPED (Controlled-experiment Using Pre-Existing Data): the
    standard variance-reduction adjustment for A/B metrics — adjusted
    mean = mean(Y) − θ·(mean(X) − mean(X_global)) with θ = cov(X,Y)/var(X),
    X = a user's PRE-period purchase cents, Y = the POST-period cents
    (arms by md5 parity, watermark at the data midpoint: the DiD
    conventions). Universe = every user with ANY event (the randomized
    unit), zero-filled — non-purchasers carry (0, 0). ONE user-key
    groupby builds the per-user (x, y) pairs; the moment partials
    (n, Σx, Σy, Σxy, Σx²) per arm are 2 fixed-width rows through the
    tree combine, so driver state is O(arms). Every moment is an exact
    int; θ and the adjusted means are the only float steps, mirrored
    operand-for-operand in SQL."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["user_id", "event_type", "ts", "value"],
    )
    schema = pa.schema(
        [
            ("theta", pa.float64()),
            ("m_ctrl", pa.float64()),
            ("m_treat", pa.float64()),
            ("adj_ctrl", pa.float64()),
            ("adj_treat", pa.float64()),
            ("lift_naive", pa.float64()),
            ("lift_cuped", pa.float64()),
        ]
    )

    def spanrow(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "tmin": pa.array([], pa.int64()),
                    "tmax": pa.array([], pa.int64()),
                }
            )
        if "tmin" in t.schema.names:
            return pa.table(
                {
                    "tmin": pa.array([pc.min(t["tmin"]).as_py()], pa.int64()),
                    "tmax": pa.array([pc.max(t["tmax"]).as_py()], pa.int64()),
                }
            )
        us = _ts_us(t)
        return pa.table(
            {
                "tmin": pa.array([int(us.min())], pa.int64()),
                "tmax": pa.array([int(us.max())], pa.int64()),
            }
        )

    span = tree_combine(
        ev.map_batches(spanrow, batch_format="pyarrow"), spanrow
    ).take_all()
    if not span:
        return schema.empty_table()
    tmin, tmax = int(span[0]["tmin"]), int(span[0]["tmax"])
    t1 = tmin + (tmax - tmin) // 2

    def per_user_partial(t: pa.Table, t1=t1) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "x": pa.array([], pa.int64()),
                    "y": pa.array([], pa.int64()),
                }
            )
        us = _ts_us(t)
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        is_p = pc.equal(t["event_type"], "purchase").to_numpy(
            zero_copy_only=False
        )
        pre = us <= t1
        x = np.where(is_p & pre, cents, 0)
        y = np.where(is_p & ~pre, cents, 0)
        df = (
            pd.DataFrame(
                {
                    "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                    "x": x,
                    "y": y,
                }
            )
            .groupby("user_id", sort=False)
            .agg(x=("x", "sum"), y=("y", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
                "x": pa.array(df["x"].to_numpy(np.int64)),
                "y": pa.array(df["y"].to_numpy(np.int64)),
            }
        )

    per_user = (
        ev.map_batches(per_user_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("x", alias_name="x"), Sum("y", alias_name="y"))
    )

    def moments(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "arm": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "sx": pa.array([], pa.int64()),
                    "sy": pa.array([], pa.int64()),
                    "sxy": pa.array([], pa.int64()),
                    "sx2": pa.array([], pa.int64()),
                }
            )
        x = t["x"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t["y"].to_numpy(zero_copy_only=False).astype(np.int64)
        arm = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(str(u).encode("utf-8")).digest()[:8],
                    "little",
                )
                % 2
                for u in t["user_id"].to_pylist()
            ),
            np.int64,
            t.num_rows,
        )  # md5_number_upper replay (split-assign convention)
        df = (
            pd.DataFrame(
                {"arm": arm, "n": 1, "sx": x, "sy": y, "sxy": x * y, "sx2": x * x}
            )
            .groupby("arm", sort=True)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                c: pa.array(df[c].to_numpy(np.int64), pa.int64())
                for c in ("arm", "n", "sx", "sy", "sxy", "sx2")
            }
        )

    cen = tree_combine(
        per_user.map_batches(moments, batch_format="pyarrow"),
        group_sum_merge(("arm",), ("n", "sx", "sy", "sxy", "sx2")),
    ).to_pandas()
    if len(cen) != 2:
        return schema.empty_table()
    cells = {
        int(r.arm): (int(r.n), int(r.sx), int(r.sy), int(r.sxy), int(r.sx2))
        for r in cen.itertuples(index=False)
    }
    n = cells[0][0] + cells[1][0]
    sx = cells[0][1] + cells[1][1]
    sy = cells[0][2] + cells[1][2]
    sxy = cells[0][3] + cells[1][3]
    sx2 = cells[0][4] + cells[1][4]
    mxc = sx / n
    myc = sy / n
    var = sx2 / n - mxc * mxc
    if var == 0.0:
        return schema.empty_table()
    theta = (sxy / n - mxc * myc) / var

    def arm_means(a: int) -> tuple[float, float]:
        na, sxa, sya = cells[a][0], cells[a][1], cells[a][2]
        return sxa / na, sya / na

    mx0, my0 = arm_means(0)
    mx1, my1 = arm_means(1)
    adj0 = my0 - theta * (mx0 - mxc)
    adj1 = my1 - theta * (mx1 - mxc)
    r4 = lambda v: round_half_away([v], 4)[0]  # noqa: E731
    return pa.table(
        {
            "theta": pa.array([round_half_away([theta], 6)[0]], pa.float64()),
            "m_ctrl": pa.array([r4(my0 / 100.0)], pa.float64()),
            "m_treat": pa.array([r4(my1 / 100.0)], pa.float64()),
            "adj_ctrl": pa.array([r4(adj0 / 100.0)], pa.float64()),
            "adj_treat": pa.array([r4(adj1 / 100.0)], pa.float64()),
            "lift_naive": pa.array([r4((my1 - my0) / 100.0)], pa.float64()),
            "lift_cuped": pa.array([r4((adj1 - adj0) / 100.0)], pa.float64()),
        },
        schema=schema,
    )


# --------------------------------------------- streaming watermark lateness
def events_late_arrival_audit(sf_dir: str, n_buckets: int = 64) -> pa.Table:
    """Late-data / watermark audit (the streaming-ingest health check):
    an event is LATE when its timestamp is behind the running maximum of
    the timestamps that ARRIVED before it (arrival order = event_id, the
    ingest sequence), per user. Reports event count, late count/rate and
    the max/total lateness in µs — the numbers that size a streaming
    watermark delay. ONE int-key user-bucket shuffle (the funnel /
    transitions shape) co-locates each user's rows; the per-bucket pass
    is fully vectorized (sort + groupby-cummax-shift, no per-user loop)
    and emits ONE fixed-width summary row per bucket, tree-combined."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_id", "ts"]
    )
    schema = pa.schema(
        [
            ("n_events", pa.int64()),
            ("n_late", pa.int64()),
            ("late_rate", pa.float64()),
            ("max_lateness_us", pa.int64()),
            ("sum_lateness_us", pa.int64()),
        ]
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket",
            pc.cast(
                pc.bit_wise_and(batch["user_id"], pa.scalar(n_buckets - 1)),
                pa.int64(),
            ),
        )

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "n": pa.array([], pa.int64()),
                    "nl": pa.array([], pa.int64()),
                    "mx": pa.array([], pa.int64()),
                    "sl": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "n": pa.array([pc.sum(t["n"]).as_py()], pa.int64()),
                "nl": pa.array([pc.sum(t["nl"]).as_py()], pa.int64()),
                "mx": pa.array([pc.max(t["mx"]).as_py()], pa.int64()),
                "sl": pa.array([pc.sum(t["sl"]).as_py()], pa.int64()),
            }
        )

    def bucket_audit(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        work = pd.DataFrame({"user_id": df["user_id"].to_numpy(), "us": us})
        cm = work.groupby("user_id", sort=False)["us"].cummax()
        work["cm"] = cm
        prev = work.groupby("user_id", sort=False)["cm"].shift(1)
        late = work["us"].to_numpy() < prev.fillna(-(2**62)).to_numpy()
        lateness = np.where(
            late, prev.fillna(0).to_numpy().astype(np.int64) - us, 0
        )
        return pa.table(
            {
                "n": pa.array([len(work)], pa.int64()),
                "nl": pa.array([int(late.sum())], pa.int64()),
                "mx": pa.array([int(lateness.max(initial=0))], pa.int64()),
                "sl": pa.array([int(lateness.sum())], pa.int64()),
            }
        )

    partials = (
        ev.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(bucket_audit, batch_format="pandas")
    )
    tot = tree_combine(partials, merge).to_pandas()
    if tot.empty or int(tot["n"].iloc[0]) == 0:
        return schema.empty_table()
    n, nl = int(tot["n"].iloc[0]), int(tot["nl"].iloc[0])
    return pa.table(
        {
            "n_events": pa.array([n], pa.int64()),
            "n_late": pa.array([nl], pa.int64()),
            "late_rate": pa.array(
                [round_half_away([nl / n], 6)[0]], pa.float64()
            ),
            "max_lateness_us": pa.array([int(tot["mx"].iloc[0])], pa.int64()),
            "sum_lateness_us": pa.array([int(tot["sl"].iloc[0])], pa.int64()),
        },
        schema=schema,
    )


# ------------------------------------------ Jaro-Winkler candidate rescoring
def _jaro_winkler(s1: str, s2: str) -> float:
    """Jaro-Winkler similarity, bit-identical to DuckDB's
    ``jaro_winkler_similarity`` (verified on every distinct part-name
    pair + the classic Winkler test strings): standard Jaro with the
    ⌊max/2⌋−1 match window, half-transpositions, and the Winkler prefix
    bonus (p = 0.1, prefix ≤ 4) applied above the 0.7 boost threshold."""
    if s1 == s2:
        return 1.0
    l1, l2 = len(s1), len(s2)
    if l1 == 0 or l2 == 0:
        return 0.0
    window = max(l1, l2) // 2 - 1
    m1 = [False] * l1
    m2 = [False] * l2
    matches = 0
    for i, c in enumerate(s1):
        lo, hi = max(0, i - window), min(l2, i + window + 1)
        for j in range(lo, hi):
            if not m2[j] and s2[j] == c:
                m1[i] = True
                m2[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    t = 0
    k = 0
    for i in range(l1):
        if m1[i]:
            while not m2[k]:
                k += 1
            if s1[i] != s2[k]:
                t += 1
            k += 1
    t //= 2
    j = (matches / l1 + matches / l2 + (matches - t) / matches) / 3.0
    if j > 0.7:
        pl = 0
        for a, b in zip(s1[:4], s2[:4]):
            if a != b:
                break
            pl += 1
        j += pl * 0.1 * (1.0 - j)
    return j


def part_jw_rescored(sf_dir: str, k: int = 50) -> Dataset:
    """Similarity RESCORING of entity-resolution candidates (the ranker
    behind match-review queues): the edit-distance candidate pairs from
    ``part_fuzzy_pairs`` (size-adaptive, sound + complete at any scale
    via the PassJoin blocking route) re-scored with Jaro-Winkler and cut
    to the global top-``k`` by (jw DESC, name pair ASC). The JW pass is
    pair-bounded (candidates only, never all pairs); the cut is the
    associative ``topk_merge`` — no sort shuffle. Scores are rounded to
    6 dp BEFORE ordering on both sides so the cut and the output agree
    bit-for-bit with the oracle's built-in."""
    pairs = part_fuzzy_pairs(sf_dir)

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "name_a": pa.array([], pa.string()),
                    "name_b": pa.array([], pa.string()),
                    "dist": pa.array([], pa.int64()),
                    "jw": pa.array([], pa.float64()),
                }
            )
        a = t["name_a"].to_pylist()
        b = t["name_b"].to_pylist()
        jw = round_half_away(
            np.array([_jaro_winkler(x, y) for x, y in zip(a, b)]), 6
        )
        return pa.table(
            {
                "name_a": t["name_a"],
                "name_b": t["name_b"],
                "dist": t["dist"],
                "jw": pa.array(jw, pa.float64()),
            }
        )

    scored = pairs.map_batches(score, batch_format="pyarrow")
    merge = topk_merge(k, "jw", ["name_a", "name_b"])
    merged = tree_combine(scored, merge)
    # All-empty block streams bypass the map fns entirely (NOTES.md), so
    # a legitimately-empty candidate set would lose the jw column: seed a
    # typed empty table on the driver and return the pa.Table itself.
    seed = pa.table(
        {
            "name_a": pa.array([], pa.string()),
            "name_b": pa.array([], pa.string()),
            "dist": pa.array([], pa.int64()),
            "jw": pa.array([], pa.float64()),
        }
    )
    parts = [
        b
        for b in merged.iter_batches(batch_format="pyarrow")
        if b.num_rows > 0
    ]
    return merge(pa.concat_tables([seed] + parts)) if parts else seed


# ------------------------------------------------ Kaplan-Meier product-limit
def events_km_factors(sf_dir: str) -> pa.Table:
    """KAPLAN-MEIER survival with RIGHT CENSORING (the time-to-event
    class the repeat-ordinal curve doesn't cover): duration = days from
    a user's FIRST event to their FIRST purchase (the event of
    interest); users who never purchase are CENSORED at their last
    observed event. One per-user reduce (min/max/min-of-purchase via a
    sentinel, so the groupby needs no null semantics) feeds the
    (duration-day, event-flag) census — O(distinct days) driver rows;
    n_at_risk is an integer suffix sum over it. Per the per-cell-term
    convention the operator emits the PER-STEP product-limit factors
    (n_risk − d)/n_risk (ONE exact-int division each, order-free) rather
    than an order-dependent cumulative float product — the consumer
    multiplies in day order."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "event_type", "ts"]
    )
    schema = pa.schema(
        [
            ("day", pa.int64()),
            ("n_risk", pa.int64()),
            ("n_events", pa.int64()),
            ("n_censored", pa.int64()),
            ("km_factor", pa.float64()),
        ]
    )
    SENT = 2**62

    def per_user_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "t0": pa.array([], pa.int64()),
                    "tl": pa.array([], pa.int64()),
                    "tp": pa.array([], pa.int64()),
                }
            )
        us = _ts_us(t)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        is_p = pc.equal(t["event_type"], "purchase").to_numpy(
            zero_copy_only=False
        )
        tp = np.where(is_p, us, SENT)
        df = (
            pd.DataFrame({"user_id": uid, "t0": us, "tl": us, "tp": tp})
            .groupby("user_id", sort=False)
            .agg(t0=("t0", "min"), tl=("tl", "max"), tp=("tp", "min"))
            .reset_index()
        )
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64)),
                "t0": pa.array(df["t0"].to_numpy(np.int64)),
                "tl": pa.array(df["tl"].to_numpy(np.int64)),
                "tp": pa.array(df["tp"].to_numpy(np.int64)),
            }
        )

    per_user = (
        ev.map_batches(per_user_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Min("t0", alias_name="t0"),
            Max("tl", alias_name="tl"),
            Min("tp", alias_name="tp"),
        )
    )
    DAY = 86_400_000_000

    def census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "t": pa.array([], pa.int64()),
                    "d": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        t0 = t["t0"].to_numpy(zero_copy_only=False).astype(np.int64)
        tl = t["tl"].to_numpy(zero_copy_only=False).astype(np.int64)
        tp = t["tp"].to_numpy(zero_copy_only=False).astype(np.int64)
        ev_flag = tp != SENT
        dur = np.where(ev_flag, (tp - t0) // DAY, (tl - t0) // DAY)
        df = (
            pd.DataFrame({"t": dur, "d": ev_flag.astype(np.int64), "n": 1})
            .groupby("t", sort=True)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "t": pa.array(df["t"].to_numpy(np.int64)),
                "d": pa.array(df["d"].to_numpy(np.int64)),
                "n": pa.array(df["n"].to_numpy(np.int64)),
            }
        )

    cen = tree_combine(
        per_user.map_batches(census, batch_format="pyarrow"),
        group_sum_merge(("t",), ("d", "n")),
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("t")
    n = cen["n"].to_numpy(np.int64)
    d = cen["d"].to_numpy(np.int64)
    n_risk = n[::-1].cumsum()[::-1]  # integer suffix sum — order-free
    keep = d > 0
    t_k = cen["t"].to_numpy(np.int64)[keep]
    nr_k, d_k, n_k = n_risk[keep], d[keep], n[keep]
    return pa.table(
        {
            "day": pa.array(t_k, pa.int64()),
            "n_risk": pa.array(nr_k, pa.int64()),
            "n_events": pa.array(d_k, pa.int64()),
            "n_censored": pa.array(n_k - d_k, pa.int64()),
            "km_factor": pa.array(
                round_half_away((nr_k - d_k) / nr_k.astype(np.float64), 6),
                pa.float64(),
            ),
        },
        schema=schema,
    )


# -------------------------------------------- exact mutual nearest neighbors
MNN_CHUNKS = 8


def embedding_mutual_nn(sf_dir: str, n_chunks: int = MNN_CHUNKS) -> pa.Table:
    """MUTUAL (reciprocal) nearest neighbors — the high-precision
    matching primitive (bitext mining, record linkage, cross-encoder
    candidate pairs): pairs (a, b) where each is the other's exact
    cosine top-1. EXACT and fully distributed with NO full-matrix
    broadcast: every vector replicates to the ``n_chunks`` chunk-pair
    keys its id-hash chunk participates in (the hub-chunking shape), one
    task per chunk pair computes the (N/B)²-bounded cross matmul and
    emits per-id LOCAL top-1 rows; each id's GLOBAL top-1 is one
    vec-key groupby over its ≤ B local rows (same (cos DESC, id ASC)
    total order) — replication ×B through shuffles instead of an N×N
    broadcast. The mutual check is one more (lo, hi) pair-key groupby;
    the pair output stays a Dataset with a distributed sort. Scores are
    rounded to 6 dp BEFORE every cut (the similarity-family parity
    convention vs ``list_cosine_similarity``)."""
    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    schema = pa.schema(
        [
            ("id_a", pa.int64()),
            ("id_b", pa.int64()),
            ("cos", pa.float64()),
        ]
    )
    if emb.count() < 2:
        return schema.empty_table()

    def replicate(t: pa.Table, B=n_chunks) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "pair": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float32())),
                }
            )
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        chunk = ids % B
        pair_k, side_k, idx = [], [], []
        for c in range(B):
            rows = np.nonzero(chunk == c)[0]
            if len(rows) == 0:
                continue
            for d_ in range(B):
                lo, hi = min(c, d_), max(c, d_)
                pair_k.append(np.full(len(rows), lo * B + hi, np.int64))
                side_k.append(np.full(len(rows), c, np.int64))
                idx.append(rows)
        idx = np.concatenate(idx)
        return pa.table(
            {
                "pair": pa.array(np.concatenate(pair_k), pa.int64()),
                "side": pa.array(np.concatenate(side_k), pa.int64()),
                "vec_id": pa.array(ids[idx], pa.int64()),
                "embedding": t["embedding"].take(pa.array(idx, pa.int64())),
            }
        )

    def local_top1(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("vec_id")
        pair = int(g["pair"].iloc[0])
        lo, hi = pair // n_chunks, pair % n_chunks
        mat = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in g["embedding"]]
        )
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        ids = g["vec_id"].to_numpy(np.int64)
        side = g["side"].to_numpy(np.int64)
        a_rows = np.nonzero(side == lo)[0]
        b_rows = np.nonzero(side == hi)[0]
        out_id, out_nn, out_cos = [], [], []

        def best_rows(rows, cand_rows):
            if len(rows) == 0 or len(cand_rows) == 0:
                return
            cos = mat[rows] @ mat[cand_rows].T
            cos = round_half_away(cos, 6)
            cand_ids = ids[cand_rows]
            # exclude self-matches, then vectorized (cos DESC, id ASC)
            # argmax: max per row, min candidate id among the maxima
            self_m = ids[rows][:, None] == cand_ids[None, :]
            cos[self_m] = -2.0
            ok = ~self_m.all(axis=1)
            if not ok.any():
                return
            cosk = cos[ok]
            mx = cosk.max(axis=1)
            at_max = cosk == mx[:, None]
            nnid = np.where(at_max, cand_ids[None, :], 2**62).min(axis=1)
            out_id.append(ids[rows][ok])
            out_nn.append(nnid.astype(np.int64))
            out_cos.append(mx)

        if lo == hi:
            best_rows(a_rows, a_rows)
        else:
            best_rows(a_rows, b_rows)
            best_rows(b_rows, a_rows)
        if not out_id:
            return pd.DataFrame(
                {
                    "vec_id": np.array([], np.int64),
                    "nn_id": np.array([], np.int64),
                    "cos": np.array([], np.float64),
                }
            )
        return pd.DataFrame(
            {
                "vec_id": np.concatenate(out_id).astype(np.int64),
                "nn_id": np.concatenate(out_nn).astype(np.int64),
                "cos": np.concatenate(out_cos).astype(np.float64),
            }
        )

    locals_ = (
        emb.map_batches(replicate, batch_format="pyarrow")
        .groupby("pair")
        .map_groups(local_top1, batch_format="pandas")
    )

    # global top-1 per vec_id: vec_id is corpus-scaled (NOT an
    # enumerable tree_combine domain — round-5 audit fix: this merge
    # previously rode tree_combine's single final task), so the
    # ≤ n_chunks local-top-1 rows per id merge in ONE vec-key Ray
    # groupby, same (cos DESC, nn_id ASC) total order as topk_merge.
    def global_top1(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["cos", "nn_id"], ascending=[False, True], kind="mergesort"
        )
        return g.head(1)[["vec_id", "nn_id", "cos"]]

    nn = locals_.groupby("vec_id").map_groups(
        global_top1, batch_format="pandas"
    )

    def pair_key(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "lo": pa.array([], pa.int64()),
                    "hi": pa.array([], pa.int64()),
                    "cos": pa.array([], pa.float64()),
                }
            )
        a = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["nn_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "lo": pa.array(np.minimum(a, b), pa.int64()),
                "hi": pa.array(np.maximum(a, b), pa.int64()),
                "cos": t["cos"],
            }
        )

    # each id contributes exactly ONE nn row, so a (lo, hi) group holds
    # ≤ 2 rows and is mutual iff it holds BOTH directions (n == 2); the
    # two rows carry the identical rounded cosine, so Max is exact.
    pairs = (
        nn.map_batches(pair_key, batch_format="pyarrow")
        .groupby(["lo", "hi"])
        .aggregate(Count(alias_name="nn_n"), Max("cos", alias_name="cos"))
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["nn_n"], pa.scalar(2)))
        return pa.table(
            {
                "id_a": t["lo"],
                "id_b": t["hi"],
                "cos": t["cos"],
            }
        ).cast(schema)

    # output is O(#mutual pairs) — corpus-scaled, so it stays a Dataset
    # with a distributed sort (round-5 audit fix: previously a driver
    # concat + driver sort). N ≥ 2 guarantees ≥ 1 mutual pair (the
    # globally-closest pair is always reciprocal under a deterministic
    # tie-break), so the sorted stream can only be schema-less when the
    # input itself had < 2 vectors — short-circuited above.
    return pairs.map_batches(finish, batch_format="pyarrow").sort(
        ["id_a", "id_b"]
    )


# --------------------------------------- point-in-time feature backfill
def events_pit_features(sf_dir: str, n_buckets: int = 64) -> Dataset:
    """POINT-IN-TIME-CORRECT feature backfill (the feature-store
    contract behind leakage-free training data): for every purchase
    event, the user's running feature vector STRICTLY BEFORE it —
    prior click count and prior purchase cents — computed over
    (ts, event_id) order so ties resolve deterministically and nothing
    from the label instant leaks in. ONE user-bucket shuffle (the funnel
    shape); the per-bucket pass is vectorized shifted-cumsum per user,
    emitting one row per label event. Exact ints end-to-end."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["user_id", "event_id", "event_type", "ts", "value"],
    )
    schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("prior_clicks", pa.int64()),
            ("prior_purchase_cents", pa.int64()),
        ]
    )
    # empty INPUT short-circuit: an all-empty block stream would bypass
    # the map fns and lose the schema (NOTES.md); metadata-only count
    if ev.count() == 0:
        return schema.empty_table()

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket",
            pc.cast(
                pc.bit_wise_and(batch["user_id"], pa.scalar(n_buckets - 1)),
                pa.int64(),
            ),
        )

    def bucket_features(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        is_click = (df["event_type"] == "click").to_numpy()
        is_p = (df["event_type"] == "purchase").to_numpy()
        cents = round_half_away(
            df["value"].to_numpy(np.float64) * 100.0, 0
        ).astype(np.int64)
        work = pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy(),
                "clk": is_click.astype(np.int64),
                "pc": np.where(is_p, cents, 0),
            }
        )
        g = work.groupby("user_id", sort=False)
        prior_clicks = (g["clk"].cumsum() - work["clk"]).to_numpy(np.int64)
        prior_cents = (g["pc"].cumsum() - work["pc"]).to_numpy(np.int64)
        return pa.table(
            {
                "event_id": pa.array(
                    df["event_id"].to_numpy(np.int64)[is_p], pa.int64()
                ),
                "prior_clicks": pa.array(prior_clicks[is_p], pa.int64()),
                "prior_purchase_cents": pa.array(
                    prior_cents[is_p], pa.int64()
                ),
            }
        )

    return (
        ev.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(bucket_features, batch_format="pandas")
    )


# ------------------------------------------------------------- Heaps' law
HEAPS_BUCKETS = 256


def corpus_heaps_fit(sf_dir: str, n_buckets: int = HEAPS_BUCKETS) -> pa.Table:
    """HEAPS'-LAW FIT V(n) = K·n^β — the vocabulary-GROWTH diagnostic that
    complements the Zipf fit (frequency shape) and the coverage curve
    (frequency concentration): reading the corpus in doc_id order, how
    fast does the distinct-token vocabulary grow with tokens read?  β
    far from the prose band (~0.4–0.6) flags templated or boilerplate
    corpora before they poison a tokenizer fit.

    Scale shape: doc_ids are range-bucketed into ``n_buckets`` prefix
    checkpoints (bucket = id·B // (max_id+1), monotonic in doc_id — so
    min-bucket-per-token IS the bucket of the token's first appearance).
    ONE tokenize pass emits (token, bucket) partial counts; the merged
    census is vocabulary-sized (the Zipf precedent).  Per-bucket token
    totals, first-appearance type counts, the two cumulative sums and the
    closed-form ln-ln OLS all happen in one driver sweep over ≤ B
    checkpoint rows + the vocab census.  Both sides evaluate the identical
    explicit Σ formulas (float-parity: rounded at 4 dp, NOTES.md)."""
    ids_only = read_parquet_clean(_p(sf_dir, "documents"), columns=["doc_id"])
    schema = pa.schema(
        [
            ("n_points", pa.int64()),
            ("beta", pa.float64()),
            ("ln_k", pa.float64()),
            ("r2", pa.float64()),
        ]
    )

    def pmax(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "m": pa.array([int(pc.max(t["doc_id"]).as_py())], pa.int64()),
            }
        )

    mx = pa.concat_tables(
        [pa.table({"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                ids_only.map_batches(pmax, batch_format="pyarrow"),
                group_agg_merge(("k",), maxs=("m",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if mx.num_rows == 0:
        return schema.empty_table()
    max_id = int(mx["m"][0].as_py())

    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def census(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            bk = int(did) * n_buckets // (max_id + 1)
            for tok in _TOKEN_RE.findall(txt or ""):
                c[(tok, bk)] += 1
        toks = [k[0] for k in c.keys()]
        bks = [k[1] for k in c.keys()]
        return pa.table(
            {
                "token": pa.array(toks, pa.string()),
                "bucket": pa.array(bks, pa.int64()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "bucket": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                docs.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("token", "bucket"), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    per_bucket = cen.groupby("bucket", sort=True)["n"].sum()
    first_bucket = cen.groupby("token", sort=False)["bucket"].min()
    new_types = first_bucket.value_counts().sort_index()
    buckets = per_bucket.index.to_numpy(np.int64)
    cum_n = per_bucket.to_numpy(np.int64).cumsum()
    nv = new_types.reindex(per_bucket.index, fill_value=0).to_numpy(np.int64)
    cum_v = nv.cumsum()
    k = len(buckets)
    if k < 2:
        return schema.empty_table()
    x = np.log(cum_n.astype(np.float64))
    y = np.log(cum_v.astype(np.float64))
    sx, sy = float(x.sum()), float(y.sum())
    sxx, syy = float((x * x).sum()), float((y * y).sum())
    sxy = float((x * y).sum())
    den = k * sxx - sx * sx
    beta = (k * sxy - sx * sy) / den
    ln_k = (sy - beta * sx) / k
    deny = k * syy - sy * sy
    r2 = ((k * sxy - sx * sy) ** 2) / (den * deny) if deny else 1.0
    return pa.table(
        {
            "n_points": pa.array([k], pa.int64()),
            "beta": pa.array(round_half_away(np.array([beta]), 4), pa.float64()),
            "ln_k": pa.array(round_half_away(np.array([ln_k]), 4), pa.float64()),
            "r2": pa.array(round_half_away(np.array([r2]), 4), pa.float64()),
        },
        schema=schema,
    )


# --------------------------------------------------------- Gopher rules
GOPHER_MIN_WORDS = 20
GOPHER_MAX_WORDS = 80
GOPHER_MIN_MEAN_WLEN = 3.0
GOPHER_MAX_MEAN_WLEN = 10.0
GOPHER_MAX_SYMBOL_RATIO = 0.15
GOPHER_MIN_ALPHA_FRAC = 0.8
GOPHER_MIN_STOPWORDS = 2
_ALPHA_RE = re.compile(r"[a-z]")


def doc_gopher_rules(sf_dir: str) -> Dataset:
    """GOPHER-STYLE QUALITY RULE AUDIT (the Rae et al. repetition/quality
    gate family, thresholds adapted to this corpus's 10–99-word docs):
    per-document 0/1 verdict for each rule plus the conjunction —
    word-count band, mean word length band, symbol-to-word ratio cap,
    alpha-word fraction floor, and distinct-stopword floor.  Emitting the
    PER-RULE flags (not just the final verdict) is what makes the audit
    actionable: the rule mix tells you WHICH filter would cut what.

    Pure per-doc map (no shuffle); every ratio is a division of exact
    integer counts, compared against decimal-literal thresholds — both
    sides compute the identical float64 comparisons."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    stop_set = frozenset(STOPWORDS)

    def rules(t: pa.Table) -> pa.Table:
        ids, r_wc, r_mwl, r_sym, r_alpha, r_stop, r_all = (
            [], [], [], [], [], [], [],
        )
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            low = (txt or "").lower()
            words = _WORD_RE.findall(low)
            nw = len(words)
            wc = GOPHER_MIN_WORDS <= nw <= GOPHER_MAX_WORDS
            if nw:
                mean_wl = sum(len(w) for w in words) / nw
                mwl = GOPHER_MIN_MEAN_WLEN <= mean_wl <= GOPHER_MAX_MEAN_WLEN
                sym = (
                    len(_PUNCT_RE.findall(txt or "")) / nw
                    <= GOPHER_MAX_SYMBOL_RATIO
                )
                alpha = (
                    sum(1 for w in words if _ALPHA_RE.search(w)) / nw
                    > GOPHER_MIN_ALPHA_FRAC
                )
            else:
                mwl = sym = alpha = False
            stop = len(stop_set.intersection(words)) >= GOPHER_MIN_STOPWORDS
            ids.append(did)
            r_wc.append(int(wc))
            r_mwl.append(int(mwl))
            r_sym.append(int(sym))
            r_alpha.append(int(alpha))
            r_stop.append(int(stop))
            r_all.append(int(wc and mwl and sym and alpha and stop))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "r_word_count": pa.array(r_wc, pa.int64()),
                "r_mean_word_len": pa.array(r_mwl, pa.int64()),
                "r_symbol_ratio": pa.array(r_sym, pa.int64()),
                "r_alpha_frac": pa.array(r_alpha, pa.int64()),
                "r_stopwords": pa.array(r_stop, pa.int64()),
                "pass_all": pa.array(r_all, pa.int64()),
            }
        )

    return docs.map_batches(rules, batch_format="pyarrow")


# ------------------------------------------- MinHash sketch-accuracy audit
def doc_minhash_estimate_audit(sf_dir: str) -> Dataset:
    """Registry wrapper for ``stages.dedup.minhash_estimate_audit`` — the
    est-vs-exact Jaccard audit over the LSH band candidate pairs (see the
    stage docstring for the scale shape)."""
    from ..stages.dedup import minhash_estimate_audit

    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return minhash_estimate_audit(docs)


# ----------------------------------------------------------- l-diversity
LDIV_L = 3
LDIV_VALUE_BAND_CENTS = 5_000  # $50 bands


def events_l_diversity(sf_dir: str) -> pa.Table:
    """L-DIVERSITY privacy audit — the companion to k-anonymity
    (``doc_kanonymity_audit``) that k-anonymity famously misses: a QI
    class can be large yet still leak if every row shares the SAME
    sensitive value. QI = (event_type, hour-of-day, $50 value band);
    sensitive attribute = user_id; a class is at risk when it contains
    fewer than l = 3 DISTINCT users (homogeneity ⇒ linkable).

    Scale shape: distinct-user counting never touches the driver — one
    distributed groupby on (QI, user) collapses duplicates (combiner
    partials first, so the shuffle moves distinct-combo-sized rows), a
    second map emits (QI, 1 user, n rows) partials and the QI-sized
    census tree-combines to ONE summary row of exact ints."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "ts", "user_id", "value"]
    )
    schema = pa.schema(
        [
            ("n_classes", pa.int64()),
            ("min_user_diversity", pa.int64()),
            ("n_classes_below_l", pa.int64()),
            ("n_rows_at_risk", pa.int64()),
        ]
    )

    def qi_user_partial(t: pa.Table) -> pa.Table:
        us = _ts_us(t)
        hod = (us // _HOUR_US) % 24
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        df = (
            pd.DataFrame(
                {
                    "et": t["event_type"].to_pylist(),
                    "hod": hod.astype(np.int64),
                    "vb": cents // LDIV_VALUE_BAND_CENTS,
                    "user_id": t["user_id"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                }
            )
            .groupby(["et", "hod", "vb", "user_id"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "et": pa.array(df["et"].tolist(), pa.string()),
                "hod": pa.array(df["hod"].to_numpy(np.int64), pa.int64()),
                "vb": pa.array(df["vb"].to_numpy(np.int64), pa.int64()),
                "user_id": pa.array(
                    df["user_id"].to_numpy(np.int64), pa.int64()
                ),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    per_qi_user = (
        ev.map_batches(qi_user_partial, batch_format="pyarrow")
        .groupby(["et", "hod", "vb", "user_id"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def qi_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "et": pa.array([], pa.string()),
                    "hod": pa.array([], pa.int64()),
                    "vb": pa.array([], pa.int64()),
                    "nu": pa.array([], pa.int64()),
                    "nr": pa.array([], pa.int64()),
                }
            )
        df = (
            pd.DataFrame(
                {
                    "et": t["et"].to_pylist(),
                    "hod": t["hod"].to_numpy(zero_copy_only=False),
                    "vb": t["vb"].to_numpy(zero_copy_only=False),
                    "n": t["n"].to_numpy(zero_copy_only=False),
                }
            )
            .groupby(["et", "hod", "vb"], sort=False)
            .agg(nu=("n", "size"), nr=("n", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "et": pa.array(df["et"].tolist(), pa.string()),
                "hod": pa.array(df["hod"].to_numpy(np.int64), pa.int64()),
                "vb": pa.array(df["vb"].to_numpy(np.int64), pa.int64()),
                "nu": pa.array(df["nu"].to_numpy(np.int64), pa.int64()),
                "nr": pa.array(df["nr"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "et": pa.array([], pa.string()),
                    "hod": pa.array([], pa.int64()),
                    "vb": pa.array([], pa.int64()),
                    "nu": pa.array([], pa.int64()),
                    "nr": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                per_qi_user.map_batches(qi_partial, batch_format="pyarrow"),
                group_sum_merge(("et", "hod", "vb"), ("nu", "nr")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    nu = cen["nu"].to_numpy(np.int64)
    nr = cen["nr"].to_numpy(np.int64)
    below = nu < LDIV_L
    return pa.table(
        {
            "n_classes": pa.array([len(nu)], pa.int64()),
            "min_user_diversity": pa.array([int(nu.min())], pa.int64()),
            "n_classes_below_l": pa.array([int(below.sum())], pa.int64()),
            "n_rows_at_risk": pa.array([int(nr[below].sum())], pa.int64()),
        },
        schema=schema,
    )


# ------------------------------------------------------- Z-order skipping
ZORDER_FILES_MOD = 64
ZORDER_PROBE_DAY_OFF_LO = 10
ZORDER_PROBE_DAY_OFF_HI = 20


def _zorder16(u8: np.ndarray, d8: np.ndarray) -> np.ndarray:
    """Bit-interleave two 8-bit lanes into a 16-bit Z-order key
    (u bits odd, d bits even) — explicit shifts so the oracle can emit
    the identical 16-term integer expression."""
    z = np.zeros(len(u8), dtype=np.int64)
    for i in range(8):
        z |= ((u8 >> i) & 1) << (2 * i + 1)
        z |= ((d8 >> i) & 1) << (2 * i)
    return z


def events_zorder_skip(sf_dir: str) -> pa.Table:
    """Z-ORDER DATA-SKIPPING audit — the TWO-dimensional extension of the
    zone-map class (``lineitem_zonemap_skip``): for a conjunctive probe
    (user range AND day range), how many files does a min/max-pruned
    reader skip under three clusterings of the same events table?
    'day_clustered' (one file per day) prunes on time but not user;
    'user_mod' (user_id % 64 files) prunes on user but not time;
    'zorder' SORTS by the 16-bit bit-interleave of (user_id % 256,
    day % 256) and cuts 64 equal-row files — the layout that serves
    BOTH predicates at once. No global sort is ever run: the z domain
    is bounded (≤ 2^16), so ONE events pass emits per-(layout, key)
    zone-map partials (zorder keyed by the z value itself), the census
    tree-combines, and the driver assigns each z run to its file by
    cumulative row position ((rows_before · 64) // N — exactly the
    fixed-size-file writer's cut points) before the final zone merge.
    The probe evaluates on ≤ (days + 64 + 2^16) driver rows — exact
    int µs everywhere. Both probe windows are DATA-DERIVED
    so the audit stays meaningful at every scale: days = corpus min day
    +10..+20, users = the middle third of the observed id range; a file
    is scannable iff BOTH per-column zone tests overlap."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts"]
    )
    schema = pa.schema(
        [
            ("layout", pa.string()),
            ("n_files", pa.int64()),
            ("n_skippable", pa.int64()),
            ("n_rows_skipped", pa.int64()),
        ]
    )

    def partials(t: pa.Table) -> pa.Table:
        us = _ts_us(t)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = us // _DAY_US
        z = _zorder16(uid % 256, day % 256)
        frames = []
        for layout, fid in (
            ("day_clustered", day),
            ("user_mod", uid % ZORDER_FILES_MOD),
            ("zorder", z),  # keyed by z value; file cut on the driver
        ):
            df = pd.DataFrame({"fid": fid, "u": uid, "t": us})
            g = df.groupby("fid").agg(
                mnu=("u", "min"),
                mxu=("u", "max"),
                mnt=("t", "min"),
                mxt=("t", "max"),
                n=("t", "size"),
            )
            g = g.reset_index()
            g.insert(0, "layout", layout)
            frames.append(g)
        out = pd.concat(frames)
        return pa.table(
            {
                "layout": pa.array(out["layout"].tolist(), pa.string()),
                "fid": pa.array(out["fid"].to_numpy(np.int64), pa.int64()),
                "mnu": pa.array(out["mnu"].to_numpy(np.int64), pa.int64()),
                "mxu": pa.array(out["mxu"].to_numpy(np.int64), pa.int64()),
                "mnt": pa.array(out["mnt"].to_numpy(np.int64), pa.int64()),
                "mxt": pa.array(out["mxt"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(out["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    merge = group_agg_merge(
        ("layout", "fid"),
        sums=("n",),
        mins=("mnu", "mnt"),
        maxs=("mxu", "mxt"),
    )
    zm = pa.concat_tables(
        [
            pa.table(
                {
                    "layout": pa.array([], pa.string()),
                    "fid": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "mnu": pa.array([], pa.int64()),
                    "mnt": pa.array([], pa.int64()),
                    "mxu": pa.array([], pa.int64()),
                    "mxt": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(partials, batch_format="pyarrow"), merge
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if zm.empty:
        return schema.empty_table()
    # zorder: z runs → 64 equal-row files by cumulative position (the
    # fixed-size-file writer's cut points), then re-merge zone stats
    zz = zm[zm["layout"] == "zorder"].sort_values("fid")
    n_total = int(zz["n"].sum())
    rows_before = zz["n"].cumsum() - zz["n"]
    zz = zz.assign(fid=(rows_before * ZORDER_FILES_MOD) // n_total)
    zz = (
        zz.groupby(["layout", "fid"], sort=True)
        .agg(
            mnu=("mnu", "min"),
            mxu=("mxu", "max"),
            mnt=("mnt", "min"),
            mxt=("mxt", "max"),
            n=("n", "sum"),
        )
        .reset_index()
    )
    zm = pd.concat(
        [zm[zm["layout"] != "zorder"], zz[zm.columns]], ignore_index=True
    )
    min_day = int(zm["mnt"].min() // _DAY_US)
    lo_us = (min_day + ZORDER_PROBE_DAY_OFF_LO) * _DAY_US
    hi_us = (min_day + ZORDER_PROBE_DAY_OFF_HI) * _DAY_US
    min_u, max_u = int(zm["mnu"].min()), int(zm["mxu"].max())
    span = max_u - min_u + 1
    u_lo = min_u + span // 3
    u_hi = min_u + (2 * span) // 3
    skip = (
        (zm["mxu"] < u_lo)
        | (zm["mnu"] >= u_hi)
        | (zm["mxt"] < lo_us)
        | (zm["mnt"] >= hi_us)
    ).to_numpy()
    g = (
        pd.DataFrame(
            {
                "layout": zm["layout"],
                "one": 1,
                "sk": skip.astype(np.int64),
                "rows_sk": np.where(skip, zm["n"].to_numpy(np.int64), 0),
            }
        )
        .groupby("layout", sort=True)
        .sum()
        .reset_index()
    )
    return pa.table(
        {
            "layout": pa.array(g["layout"].tolist(), pa.string()),
            "n_files": pa.array(g["one"].to_numpy(np.int64), pa.int64()),
            "n_skippable": pa.array(g["sk"].to_numpy(np.int64), pa.int64()),
            "n_rows_skipped": pa.array(
                g["rows_sk"].to_numpy(np.int64), pa.int64()
            ),
        },
        schema=schema,
    )


# --------------------------------------------------- blocking quality audit
def doc_blocking_quality(sf_dir: str) -> pa.Table:
    """Registry wrapper for ``stages.dedup.blocking_quality`` — pair
    completeness + reduction ratio of the MinHash band blocking vs exact
    word-shingle Jaccard ground truth (see the stage docstring for the
    chunk-pair all-pairs shape and the sampling knob)."""
    from ..stages.dedup import blocking_quality

    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    return blocking_quality(docs)


# ------------------------------------------------ hard-negative mining
def embedding_hard_negatives(
    sf_dir: str, n_chunks: int = MNN_CHUNKS
) -> pa.Table:
    """HARD-NEGATIVE MINING (the contrastive-training data op: for every
    vector, its most similar vector with a DIFFERENT label — the
    near-miss the loss needs): exact cross-label cosine top-1 via the
    same chunk-pair cogroup as ``embedding_mutual_nn`` (replication ×B
    through one shuffle, (N/B)²-bounded matmuls, NO full-matrix
    broadcast), with labels riding the replicated rows so the same-label
    mask is applied inside each task's score matrix. 6-dp rounding
    before the (cos DESC, id ASC) cut (similarity-family parity)."""
    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["vec_id", "embedding", "label"]
    )
    schema = pa.schema(
        [
            ("vec_id", pa.int64()),
            ("neg_id", pa.int64()),
            ("cos", pa.float64()),
        ]
    )

    def replicate(t: pa.Table, B=n_chunks) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "pair": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "label": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float32())),
                }
            )
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        chunk = ids % B
        pair_k, side_k, idx = [], [], []
        for c in range(B):
            rows = np.nonzero(chunk == c)[0]
            if len(rows) == 0:
                continue
            for d_ in range(B):
                lo, hi = min(c, d_), max(c, d_)
                pair_k.append(np.full(len(rows), lo * B + hi, np.int64))
                side_k.append(np.full(len(rows), c, np.int64))
                idx.append(rows)
        idx = np.concatenate(idx)
        return pa.table(
            {
                "pair": pa.array(np.concatenate(pair_k), pa.int64()),
                "side": pa.array(np.concatenate(side_k), pa.int64()),
                "vec_id": pa.array(ids[idx], pa.int64()),
                "label": pa.array(
                    t["label"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)[idx],
                    pa.int64(),
                ),
                "embedding": t["embedding"].take(pa.array(idx, pa.int64())),
            }
        )

    def local_top1(g: pd.DataFrame, B=n_chunks) -> pd.DataFrame:
        g = g.drop_duplicates(["vec_id", "side"])
        pk = int(g["pair"].iloc[0])
        lo, hi = pk // B, pk % B
        mat = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in g["embedding"]]
        )
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        ids = g["vec_id"].to_numpy(np.int64)
        labels = g["label"].to_numpy(np.int64)
        side = g["side"].to_numpy(np.int64)
        a_rows = np.nonzero(side == lo)[0]
        b_rows = np.nonzero(side == hi)[0]
        out_id, out_nn, out_cos = [], [], []

        def best_rows(rows, cand_rows):
            if len(rows) == 0 or len(cand_rows) == 0:
                return
            cos = mat[rows] @ mat[cand_rows].T
            cos = round_half_away(cos, 6)
            cand_ids = ids[cand_rows]
            # mask SAME-label candidates (this is the hard-negative twist
            # on the mutual-NN shape, which masks self only)
            same = labels[rows][:, None] == labels[cand_rows][None, :]
            cos[same] = -2.0
            ok = ~same.all(axis=1)
            if not ok.any():
                return
            cosk = cos[ok]
            mx = cosk.max(axis=1)
            at_max = cosk == mx[:, None]
            nnid = np.where(at_max, cand_ids[None, :], 2**62).min(axis=1)
            out_id.append(ids[rows][ok])
            out_nn.append(nnid.astype(np.int64))
            out_cos.append(mx)

        if lo == hi:
            best_rows(a_rows, a_rows)
        else:
            best_rows(a_rows, b_rows)
            best_rows(b_rows, a_rows)
        if not out_id:
            return pd.DataFrame(
                {
                    "vec_id": np.array([], np.int64),
                    "neg_id": np.array([], np.int64),
                    "cos": np.array([], np.float64),
                }
            )
        return pd.DataFrame(
            {
                "vec_id": np.concatenate(out_id).astype(np.int64),
                "neg_id": np.concatenate(out_nn).astype(np.int64),
                "cos": np.concatenate(out_cos).astype(np.float64),
            }
        )

    locals_ = (
        emb.map_batches(replicate, batch_format="pyarrow")
        .groupby("pair")
        .map_groups(local_top1, batch_format="pandas")
    )
    # global top-1 per vec_id: vec_id is corpus-scaled (NOT an enumerable
    # tree_combine domain — round-5 audit fix, same shape as
    # embedding_mutual_nn): merge the ≤ n_chunks local rows per id in ONE
    # vec-key groupby, then keep the output a Dataset with a distributed
    # sort (it is O(N) rows). Object-store materialize (not driver) so
    # the all-filtered empty case (single-label corpus) can fall back to
    # the typed empty table instead of a schema-less stream.
    def global_top1(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["cos", "neg_id"], ascending=[False, True], kind="mergesort"
        )
        return g.head(1)[["vec_id", "neg_id", "cos"]]

    nn = (
        locals_.groupby("vec_id")
        .map_groups(global_top1, batch_format="pandas")
        .materialize()
    )
    if nn.count() == 0:
        return schema.empty_table()
    return nn.map_batches(
        lambda b: pa.table(
            {"vec_id": b["vec_id"], "neg_id": b["neg_id"], "cos": b["cos"]}
        ).cast(schema),
        batch_format="pyarrow",
    ).sort(["vec_id"])


# ------------------------------------------------- MMR diverse retrieval
MMR_LAMBDA = 0.7
MMR_K = 10
MMR_CANDIDATES = 50


def embedding_mmr_topk(
    sf_dir: str,
    k: int = MMR_K,
    n_candidates: int = MMR_CANDIDATES,
    lam: float = MMR_LAMBDA,
    query_vec_id: int = 0,
) -> pa.Table:
    """MAXIMAL MARGINAL RELEVANCE retrieval (the diversity-aware re-rank
    every RAG stack runs after ANN): greedy k-selection maximizing
    λ·rel(i) − (1−λ)·max_{s∈S} sim(i, s). The DISTRIBUTED part is the
    exact top-M candidate generation (broadcast query, per-batch local
    top-M, associative ``topk_merge`` — the similarity_topk shape) plus
    one candidate-id-filtered gather of the M vectors; the greedy loop
    itself runs on the driver over the M×M sim matrix (M = 50,
    output-bounded — never corpus-scale). rel and pairwise sims are
    rounded to 6 dp BEFORE every argmax; ties break to the smaller
    vec_id (the similarity-family conventions)."""
    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    schema = pa.schema(
        [
            ("rank", pa.int64()),
            ("vec_id", pa.int64()),
            ("rel", pa.float64()),
        ]
    )
    qrow = [
        r
        for b in emb.map_batches(
            lambda t: t.filter(
                pc.equal(t["vec_id"], pa.scalar(query_vec_id))
            ),
            batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow")
        if b.num_rows
        for r in [b]
    ]
    if not qrow:
        return schema.empty_table()
    qv = np.asarray(qrow[0]["embedding"][0].as_py(), dtype=np.float64)
    qn = np.linalg.norm(qv)
    qv = qv / (qn if qn else 1.0)
    qref = ray.put(qv)

    def local_topm(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "rel": pa.array([], pa.float64()),
                }
            )
        q = ray.get(qref) if isinstance(qref, ray.ObjectRef) else qref
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids != query_vec_id
        ids = ids[keep]
        if len(ids) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "rel": pa.array([], pa.float64()),
                }
            )
        mat = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()]
        )[keep]
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        rel = round_half_away(mat @ q / norms, 6)
        order = np.lexsort((ids, -rel))[:n_candidates]
        return pa.table(
            {
                "vec_id": pa.array(ids[order], pa.int64()),
                "rel": pa.array(rel[order], pa.float64()),
            }
        )

    cand = pa.concat_tables(
        [
            pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "rel": pa.array([], pa.float64()),
                }
            )
        ]
        + list(
            tree_combine(
                emb.map_batches(local_topm, batch_format="pyarrow"),
                topk_merge(n_candidates, "rel", ["vec_id"]),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if cand.num_rows == 0:
        return schema.empty_table()
    cand_ids = cand["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    rels = cand["rel"].to_numpy(zero_copy_only=False).astype(np.float64)
    idset_ref = ray.put(np.unique(cand_ids))

    def gather(t: pa.Table) -> pa.Table:
        members = ray.get(idset_ref)
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(ids, members)
        if not keep.any():
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float32())),
                }
            )
        return pa.table(
            {
                "vec_id": pa.array(ids[keep], pa.int64()),
                "embedding": t["embedding"].filter(
                    pa.array(keep, pa.bool_())
                ),
            }
        )

    vecs: dict[int, np.ndarray] = {}
    for b in emb.map_batches(gather, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for vid, v in zip(b["vec_id"].to_pylist(), b["embedding"].to_pylist()):
            vecs[int(vid)] = np.asarray(v, dtype=np.float64)
    mat = np.stack([vecs[int(i)] for i in cand_ids])
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    mat = mat / norms[:, None]
    sims = round_half_away(mat @ mat.T, 6)

    selected: list[int] = []
    ranks, out_ids, out_rel = [], [], []
    remaining = list(range(len(cand_ids)))
    for rank in range(1, min(k, len(cand_ids)) + 1):
        if rank == 1:
            scores = rels[remaining]
        else:
            max_sim = sims[np.ix_(remaining, selected)].max(axis=1)
            scores = round_half_away(
                lam * rels[remaining] - (1.0 - lam) * max_sim, 6
            )
        best = max(
            range(len(remaining)),
            key=lambda j: (scores[j], -int(cand_ids[remaining[j]])),
        )
        pick = remaining[best]
        selected.append(pick)
        remaining.remove(pick)
        ranks.append(rank)
        out_ids.append(int(cand_ids[pick]))
        out_rel.append(float(rels[pick]))
    return pa.table(
        {
            "rank": pa.array(ranks, pa.int64()),
            "vec_id": pa.array(out_ids, pa.int64()),
            "rel": pa.array(out_rel, pa.float64()),
        },
        schema=schema,
    )


# ---------------------------------------------------- sortedness audit
SORTEDNESS_BUCKETS = 64


def events_sortedness_audit(
    sf_dir: str, n_buckets: int = SORTEDNESS_BUCKETS
) -> pa.Table:
    """SORTEDNESS / RUN-LENGTH audit — the clustering-depth profiler
    that completes the physical-layout family (zone-map, Z-order): in
    event_id order, what fraction of adjacent pairs is non-decreasing
    per column, and how long are the monotone runs? A column with
    sortedness ≈ 1 is already zone-map-prunable as written; a low one
    (user_id here) is what Z-ordering exists to fix. Adjacency needs
    the total order, but NOT a global sort: event_ids are range-bucketed
    (the Heaps checkpoint shape), each bucket task sorts ITS range and
    emits break counts + boundary values, and the driver stitches the
    ≤ B boundary pairs — the exact adjacent-pair census without any
    all-to-all."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_id", "ts", "user_id"]
    )
    schema = pa.schema(
        [
            ("col", pa.string()),
            ("n_rows", pa.int64()),
            ("n_pairs", pa.int64()),
            ("n_nondec", pa.int64()),
            ("sortedness", pa.float64()),
            ("n_runs", pa.int64()),
            ("avg_run_len", pa.float64()),
        ]
    )

    def pmax(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "m": pa.array(
                    [int(pc.max(t["event_id"]).as_py())], pa.int64()
                ),
            }
        )

    mx = pa.concat_tables(
        [pa.table({"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                ev.map_batches(pmax, batch_format="pyarrow"),
                group_agg_merge(("k",), maxs=("m",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if mx.num_rows == 0:
        return schema.empty_table()
    max_id = int(mx["m"][0].as_py())

    def add_bucket(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "bucket",
            pa.array(eid * n_buckets // (max_id + 1), pa.int64()),
        )

    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("event_id")
        ts = (
            g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        )
        u = g["user_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "bucket": [int(g["bucket"].iloc[0])],
                "n": [len(g)],
                "nd_ts": [int((np.diff(ts) >= 0).sum())],
                "nd_u": [int((np.diff(u) >= 0).sum())],
                "first_ts": [int(ts[0])],
                "last_ts": [int(ts[-1])],
                "first_u": [int(u[0])],
                "last_u": [int(u[-1])],
            }
        )

    st = (
        ev.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_stats, batch_format="pandas")
        .to_pandas()
        .sort_values("bucket")
    )
    if st.empty:
        return schema.empty_table()
    n_rows = int(st["n"].sum())
    # stitch bucket boundaries: last of bucket b vs first of bucket b+1
    bt = st["first_ts"].to_numpy(np.int64)[1:] >= st["last_ts"].to_numpy(
        np.int64
    )[:-1]
    bu = st["first_u"].to_numpy(np.int64)[1:] >= st["last_u"].to_numpy(
        np.int64
    )[:-1]
    nd_ts = int(st["nd_ts"].sum()) + int(bt.sum())
    nd_u = int(st["nd_u"].sum()) + int(bu.sum())
    n_pairs = n_rows - 1
    rows = []
    for col, nd in (("ts", nd_ts), ("user_id", nd_u)):
        brk = n_pairs - nd
        rows.append(
            {
                "col": col,
                "n_rows": n_rows,
                "n_pairs": n_pairs,
                "n_nondec": nd,
                "sortedness": float(
                    round_half_away(
                        np.array([nd / n_pairs if n_pairs else 1.0]), 6
                    )[0]
                ),
                "n_runs": 1 + brk,
                "avg_run_len": float(
                    round_half_away(np.array([n_rows / (1 + brk)]), 4)[0]
                ),
            }
        )
    df = pd.DataFrame(rows)
    return pa.table(
        {
            "col": pa.array(df["col"].tolist(), pa.string()),
            "n_rows": pa.array(df["n_rows"].to_numpy(np.int64), pa.int64()),
            "n_pairs": pa.array(df["n_pairs"].to_numpy(np.int64), pa.int64()),
            "n_nondec": pa.array(
                df["n_nondec"].to_numpy(np.int64), pa.int64()
            ),
            "sortedness": pa.array(
                df["sortedness"].to_numpy(np.float64), pa.float64()
            ),
            "n_runs": pa.array(df["n_runs"].to_numpy(np.int64), pa.int64()),
            "avg_run_len": pa.array(
                df["avg_run_len"].to_numpy(np.float64), pa.float64()
            ),
        },
        schema=schema,
    )


# ------------------------------------------------- retrieval gain curve
NDCG_K = 10


def embedding_retrieval_ndcg(
    sf_dir: str, k: int = NDCG_K, query_vec_id: int = 0
) -> pa.Table:
    """RETRIEVAL-QUALITY gain curve (the IR eval next to AUC /
    calibration): rank all vectors by cosine to the query, mark each
    top-k hit relevant iff it shares the query's LABEL, and emit the
    PER-RANK DCG terms rel/log₂(rank+1) plus the ideal-gain terms
    (1/log₂(rank+1) while rank ≤ |relevant|). Per the per-cell-term
    convention (NOTES.md) the operator outputs the exactly-reproducible
    terms and the consumer sums NDCG@k = Σgain / Σideal_gain — no
    order-dependent float sum crosses the oracle boundary.

    Distributed shape: broadcast query (vector + label), per-batch
    local top-k with the relevance flag riding along, associative
    ``topk_merge``; |relevant| is one fixed-width census. Cosines are
    rounded to 6 dp BEFORE the (cos DESC, id ASC) cut (similarity-family
    parity)."""
    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["vec_id", "embedding", "label"]
    )
    schema = pa.schema(
        [
            ("rank", pa.int64()),
            ("vec_id", pa.int64()),
            ("rel", pa.int64()),
            ("gain", pa.float64()),
            ("ideal_gain", pa.float64()),
        ]
    )
    qrow = [
        b
        for b in emb.map_batches(
            lambda t: t.filter(pc.equal(t["vec_id"], pa.scalar(query_vec_id))),
            batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    if not qrow:
        return schema.empty_table()
    qv = np.asarray(qrow[0]["embedding"][0].as_py(), dtype=np.float64)
    qn = np.linalg.norm(qv)
    qv = qv / (qn if qn else 1.0)
    qlabel = int(qrow[0]["label"][0].as_py())
    qref = ray.put((qv, qlabel))

    def local_topk(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "rel": pa.array([], pa.int64()),
                "cos": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        q_, ql = ray.get(qref) if isinstance(qref, ray.ObjectRef) else qref
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids != query_vec_id
        if not keep.any():
            return empty
        ids = ids[keep]
        labels = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)[
            keep
        ]
        mat = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()]
        )[keep]
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        cos = round_half_away(mat @ q_ / norms, 6)
        order = np.lexsort((ids, -cos))[:k]
        return pa.table(
            {
                "vec_id": pa.array(ids[order], pa.int64()),
                "rel": pa.array(
                    (labels[order] == ql).astype(np.int64), pa.int64()
                ),
                "cos": pa.array(cos[order], pa.float64()),
            }
        )

    topk = pa.concat_tables(
        [
            pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "rel": pa.array([], pa.int64()),
                    "cos": pa.array([], pa.float64()),
                }
            )
        ]
        + list(
            tree_combine(
                emb.map_batches(local_topk, batch_format="pyarrow"),
                topk_merge(k, "cos", ["vec_id"]),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if topk.empty:
        return schema.empty_table()

    def nrel_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"k": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        _, ql = ray.get(qref) if isinstance(qref, ray.ObjectRef) else qref
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        labels = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = int(((labels == ql) & (ids != query_vec_id)).sum())
        return pa.table(
            {"k": pa.array([0], pa.int64()), "n": pa.array([n], pa.int64())}
        )

    nrel_t = pa.concat_tables(
        [pa.table({"k": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                emb.map_batches(nrel_partial, batch_format="pyarrow"),
                group_sum_merge(("k",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    n_rel = int(nrel_t["n"][0].as_py()) if nrel_t.num_rows else 0

    topk = topk.sort_values(
        ["cos", "vec_id"], ascending=[False, True], kind="mergesort"
    ).head(k)
    ranks = np.arange(1, len(topk) + 1)
    rel = topk["rel"].to_numpy(np.int64)
    disc = np.log2(ranks + 1.0)
    gain = round_half_away(rel / disc, 6)
    ideal = round_half_away(
        np.where(ranks <= n_rel, 1.0 / disc, 0.0), 6
    )
    return pa.table(
        {
            "rank": pa.array(ranks.astype(np.int64), pa.int64()),
            "vec_id": pa.array(topk["vec_id"].to_numpy(np.int64), pa.int64()),
            "rel": pa.array(rel, pa.int64()),
            "gain": pa.array(gain, pa.float64()),
            "ideal_gain": pa.array(ideal, pa.float64()),
        },
        schema=schema,
    )


# ------------------------------------------- quantile sketch accuracy
QSKETCH_BINS = 20
QSKETCH_PS = (0.5, 0.9, 0.99)


def events_quantile_sketch_audit(sf_dir: str) -> pa.Table:
    """QUANTILE-SKETCH ACCURACY audit (completing the sketch-audit
    family next to HLL, CMS, and the MinHash estimate audit): the
    20-bin equi-width histogram's interpolated quantile estimate —
    what a streaming system would answer from its cheap histogram —
    next to the EXACT distributed quantile (``events_value_quantiles``'
    bin-localize machinery) and the absolute error, at p50/p90/p99.

    Histogram pass: per-batch (min, max, n) then bin-count partials
    (the events_value_hist shape); estimate = lo + (hi−lo)/B ·
    (bin + (rank − cum_before)/bin_n) with rank = ceil(p·n) — every
    operand an exact int except the two float divisions, mirrored
    term-for-term by the oracle."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["value"])
    schema = pa.schema(
        [
            ("p", pa.float64()),
            ("exact", pa.float64()),
            ("est", pa.float64()),
            ("err", pa.float64()),
        ]
    )

    def mmn(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.float64()),
                    "mx": pa.array([], pa.float64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "mn": pa.array([float(v.min())], pa.float64()),
                "mx": pa.array([float(v.max())], pa.float64()),
                "n": pa.array([len(v)], pa.int64()),
            }
        )

    mm = pa.concat_tables(
        [
            pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.float64()),
                    "mx": pa.array([], pa.float64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(mmn, batch_format="pyarrow"),
                group_agg_merge(("k",), sums=("n",), mins=("mn",), maxs=("mx",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if mm.num_rows == 0:
        return schema.empty_table()
    lo = float(mm["mn"][0].as_py())
    hi = float(mm["mx"][0].as_py())
    n = int(mm["n"][0].as_py())
    B = QSKETCH_BINS

    def hist(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        if len(v) == 0:
            return pa.table(
                {"bin": pa.array([], pa.int64()), "bn": pa.array([], pa.int64())}
            )
        if hi == lo:
            b = np.zeros(len(v), dtype=np.int64)
        else:
            b = np.minimum(
                np.floor((v - lo) * float(B) / (hi - lo)), float(B - 1)
            ).astype(np.int64)
        keys, counts = np.unique(b, return_counts=True)
        return pa.table(
            {
                "bin": pa.array(keys, pa.int64()),
                "bn": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    hc = pa.concat_tables(
        [pa.table({"bin": pa.array([], pa.int64()), "bn": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                ev.map_batches(hist, batch_format="pyarrow"),
                group_sum_merge(("bin",), ("bn",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas().sort_values("bin")
    bins = hc["bin"].to_numpy(np.int64)
    bns = hc["bn"].to_numpy(np.int64)
    cum_before = np.cumsum(bns) - bns

    exact_row = (
        events_value_quantiles(sf_dir, qs=QSKETCH_PS).to_pandas().iloc[0]
    )
    ps, exacts, ests, errs = [], [], [], []
    for p in QSKETCH_PS:
        rk = int(np.ceil(p * n))
        j = int(np.searchsorted(cum_before + bns, rk, side="left"))
        est = lo + (hi - lo) / float(B) * (
            float(bins[j]) + (rk - int(cum_before[j])) * 1.0 / int(bns[j])
        )
        exact = float(exact_row[f"p{int(p * 100)}"])
        ps.append(p)
        exacts.append(float(round_half_away(np.array([exact]), 4)[0]))
        ests.append(float(round_half_away(np.array([est]), 4)[0]))
        errs.append(
            float(round_half_away(np.array([abs(est - exact)]), 4)[0])
        )
    return pa.table(
        {
            "p": pa.array(ps, pa.float64()),
            "exact": pa.array(exacts, pa.float64()),
            "est": pa.array(ests, pa.float64()),
            "err": pa.array(errs, pa.float64()),
        },
        schema=schema,
    )


# ---------------------------------------------- functional dependencies
FD_VALUE_BAND_CENTS = 5_000


def events_fd_audit(sf_dir: str) -> pa.Table:
    """FUNCTIONAL-DEPENDENCY audit (the Metanome-style profiler class,
    next to ``lineitem_profile``'s per-column stats): for three
    candidate FDs over events — event_id→user_id (a key constraint,
    expected to HOLD), user_id→event_type and event_type→value_band
    (expected to FAIL) — the distinct-key census, how many left-hand
    keys map to >1 right-hand value, and the violation rate. The same
    two-level shape as the l-diversity audit: one (lhs, rhs) groupby
    collapses duplicates, a per-lhs distinct count feeds fixed-width
    partial sums — nothing key-scale touches the driver."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_id", "user_id", "event_type", "value"]
    )
    schema = pa.schema(
        [
            ("fd", pa.string()),
            ("n_lhs_keys", pa.int64()),
            ("n_violating", pa.int64()),
            ("violation_rate", pa.float64()),
            ("holds", pa.int64()),
        ]
    )

    def to_fd_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "fd": pa.array([], pa.string()),
                    "lhs": pa.array([], pa.string()),
                    "rhs": pa.array([], pa.string()),
                }
            )
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        et = np.asarray(t["event_type"].to_pylist(), dtype=object)
        vb = (
            round_half_away(
                t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
                * 100.0,
                0,
            ).astype(np.int64)
            // FD_VALUE_BAND_CENTS
        )
        frames = [
            pd.DataFrame(
                {
                    "fd": "event_id->user_id",
                    "lhs": eid.astype(str),
                    "rhs": uid.astype(str),
                }
            ),
            pd.DataFrame(
                {
                    "fd": "user_id->event_type",
                    "lhs": uid.astype(str),
                    "rhs": et.astype(str),
                }
            ),
            pd.DataFrame(
                {
                    "fd": "event_type->value_band",
                    "lhs": et.astype(str),
                    "rhs": vb.astype(str),
                }
            ),
        ]
        out = pd.concat(frames).drop_duplicates()
        return pa.table(
            {
                "fd": pa.array(out["fd"].tolist(), pa.string()),
                "lhs": pa.array(out["lhs"].tolist(), pa.string()),
                "rhs": pa.array(out["rhs"].tolist(), pa.string()),
            }
        )

    per_pair = (
        ev.map_batches(to_fd_rows, batch_format="pyarrow")
        .groupby(["fd", "lhs", "rhs"])
        .aggregate(Count(alias_name="n"))
    )

    # per-lhs distinct counting needs all of a lhs key's rows together:
    # the (fd, lhs) groupby over the ALREADY-COLLAPSED (fd, lhs, rhs)
    # rows moves distinct-combo-sized data, not corpus-sized
    per_lhs_counts = per_pair.groupby(["fd", "lhs"]).aggregate(
        Count(alias_name="nr")
    )

    def fd_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "fd": pa.array([], pa.string()),
                    "nk": pa.array([], pa.int64()),
                    "nv": pa.array([], pa.int64()),
                }
            )
        nr = t["nr"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = (
            pd.DataFrame({"fd": t["fd"].to_pylist(), "v": (nr > 1)})
            .assign(one=1)
            .groupby("fd", sort=False)
            .agg(nk=("one", "sum"), nv=("v", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "fd": pa.array(df["fd"].tolist(), pa.string()),
                "nk": pa.array(df["nk"].to_numpy(np.int64), pa.int64()),
                "nv": pa.array(df["nv"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "fd": pa.array([], pa.string()),
                    "nk": pa.array([], pa.int64()),
                    "nv": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                per_lhs_counts.map_batches(fd_partial, batch_format="pyarrow"),
                group_sum_merge(("fd",), ("nk", "nv")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("fd")
    nk = cen["nk"].to_numpy(np.int64)
    nv = cen["nv"].to_numpy(np.int64)
    return pa.table(
        {
            "fd": pa.array(cen["fd"].tolist(), pa.string()),
            "n_lhs_keys": pa.array(nk, pa.int64()),
            "n_violating": pa.array(nv, pa.int64()),
            "violation_rate": pa.array(
                round_half_away(nv / nk.astype(np.float64), 6), pa.float64()
            ),
            "holds": pa.array((nv == 0).astype(np.int64), pa.int64()),
        },
        schema=schema,
    )


# ------------------------------------------------- encoding advisor
ENC_COLS = (
    ("l_returnflag", "varchar"),
    ("l_linestatus", "varchar"),
    ("l_quantity", "fixed8"),
    ("l_orderkey", "fixed8"),
)


def lineitem_encoding_advisor(sf_dir: str) -> pa.Table:
    """DICTIONARY-ENCODING advisor — the storage-layout member of the
    physical-design family (zone-map, Z-order, sortedness): per column,
    would dictionary encoding shrink it?  Arrow cost model: raw_bytes =
    Σlen + 4·n offsets (varchar) or 8·n (fixed64); dict_bytes =
    dictionary payload (Σlen + 4·n_distinct offsets, or 8·n_distinct)
    + code array (1/2/4 bytes per row by dictionary size).  Exact ints end-to-end, one 6-dp division for the
    ratio.  Distributed shape: ONE pass emits per-batch distinct
    (col, val) rows + per-col row/byte partials; the distinct census
    collapses through a (col, val) groupby (distinct-domain-sized, never
    corpus-sized) and the per-col finish is a ≤ |cols| driver sweep."""
    cols = [c for c, _ in ENC_COLS]
    li = read_parquet_clean(_p(sf_dir, "lineitem"), columns=cols)
    kinds = dict(ENC_COLS)
    schema = pa.schema(
        [
            ("column", pa.string()),
            ("n_rows", pa.int64()),
            ("n_distinct", pa.int64()),
            ("raw_bytes", pa.int64()),
            ("dict_bytes", pa.int64()),
            ("ratio", pa.float64()),
            ("use_dict", pa.int64()),
        ]
    )

    def distinct_rows(t: pa.Table) -> pa.Table:
        # vectorized: Arrow unique per column, ONE pandas str cast over
        # the (small) unique set — not a Python loop over corpus rows
        out_c, out_v = [], []
        for c in cols:
            uniq = pc.unique(
                t[c].combine_chunks()
                if isinstance(t[c], pa.ChunkedArray)
                else t[c]
            )
            vals = pd.Series(uniq.to_pylist()).astype(str).tolist()
            out_c.extend([c] * len(vals))
            out_v.extend(vals)
        return pa.table(
            {
                "col": pa.array(out_c, pa.string()),
                "val": pa.array(out_v, pa.string()),
            }
        )

    per_val = (
        li.map_batches(distinct_rows, batch_format="pyarrow")
        .groupby(["col", "val"])
        .aggregate(Count(alias_name="nb"))
    )

    def dict_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "col": pa.array([], pa.string()),
                    "nd": pa.array([], pa.int64()),
                    "dlen": pa.array([], pa.int64()),
                }
            )
        df = pd.DataFrame(
            {
                "col": t["col"].to_pylist(),
                "ln": [len(v) for v in t["val"].to_pylist()],
            }
        )
        g = (
            df.assign(one=1)
            .groupby("col", sort=False)
            .agg(nd=("one", "sum"), dlen=("ln", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "col": pa.array(g["col"].tolist(), pa.string()),
                "nd": pa.array(g["nd"].to_numpy(np.int64), pa.int64()),
                "dlen": pa.array(g["dlen"].to_numpy(np.int64), pa.int64()),
            }
        )

    def raw_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "col": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "rb": pa.array([], pa.int64()),
                }
            )
        out_c, out_n, out_rb = [], [], []
        for c in cols:
            out_c.append(c)
            out_n.append(t.num_rows)
            if kinds[c] == "varchar":
                out_rb.append(
                    int(pc.sum(pc.utf8_length(t[c])).as_py() or 0)
                    + 4 * t.num_rows  # Arrow offset array
                )
            else:
                out_rb.append(8 * t.num_rows)
        return pa.table(
            {
                "col": pa.array(out_c, pa.string()),
                "n": pa.array(out_n, pa.int64()),
                "rb": pa.array(out_rb, pa.int64()),
            }
        )

    dcen = pa.concat_tables(
        [
            pa.table(
                {
                    "col": pa.array([], pa.string()),
                    "nd": pa.array([], pa.int64()),
                    "dlen": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                per_val.map_batches(dict_partial, batch_format="pyarrow"),
                group_sum_merge(("col",), ("nd", "dlen")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    rcen = pa.concat_tables(
        [
            pa.table(
                {
                    "col": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "rb": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                li.map_batches(raw_partial, batch_format="pyarrow"),
                group_sum_merge(("col",), ("n", "rb")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if dcen.empty or rcen.empty:
        return schema.empty_table()
    m = rcen.merge(dcen, on="col").sort_values("col")
    rows = []
    for r in m.itertuples():
        nd, n = int(r.nd), int(r.n)
        w = 1 if nd <= 256 else (2 if nd <= 65536 else 4)
        payload = (
            int(r.dlen) + 4 * nd if kinds[r.col] == "varchar" else 8 * nd
        )
        dict_bytes = payload + w * n
        raw = int(r.rb)
        rows.append(
            (
                r.col,
                n,
                nd,
                raw,
                dict_bytes,
                float(round_half_away(np.array([dict_bytes / raw]), 6)[0]),
                int(dict_bytes < raw),
            )
        )
    return pa.table(
        {
            "column": pa.array([r[0] for r in rows], pa.string()),
            "n_rows": pa.array([r[1] for r in rows], pa.int64()),
            "n_distinct": pa.array([r[2] for r in rows], pa.int64()),
            "raw_bytes": pa.array([r[3] for r in rows], pa.int64()),
            "dict_bytes": pa.array([r[4] for r in rows], pa.int64()),
            "ratio": pa.array([r[5] for r in rows], pa.float64()),
            "use_dict": pa.array([r[6] for r in rows], pa.int64()),
        },
        schema=schema,
    )


# ------------------------------------------------- v-optimal histogram
VOPT_PREBINS = 256
VOPT_BUCKETS = 8


def _voptimal_boundaries(
    n: np.ndarray, s: np.ndarray, ss: np.ndarray, n_buckets: int
) -> list[int]:
    """Classic V-OPTIMAL DP over a compressed pre-bin census: choose
    ``n_buckets`` contiguous segments of the pre-bins minimizing total
    SSE (Σx² − (Σx)²/n per segment). Ties keep the SMALLEST split index
    (strict < update). Returns the inclusive end pre-bin index of each
    bucket."""
    V = len(n)
    cn = np.concatenate([[0], np.cumsum(n)])
    cs = np.concatenate([[0], np.cumsum(s)])
    css = np.concatenate([[0], np.cumsum(ss)])

    def sse(i, j):  # pre-bins i..j inclusive (0-based)
        nn = cn[j + 1] - cn[i]
        if nn == 0:
            return 0.0
        sv = cs[j + 1] - cs[i]
        return float(css[j + 1] - css[i]) - float(sv) * float(sv) / float(nn)

    B = min(n_buckets, V)
    INF = float("inf")
    dp = np.full((V, B + 1), INF)
    back = np.zeros((V, B + 1), dtype=np.int64)
    for j in range(V):
        dp[j][1] = sse(0, j)
    for b in range(2, B + 1):
        for j in range(b - 1, V):
            best, arg = INF, -1
            for i in range(b - 2, j):
                cand = dp[i][b - 1] + sse(i + 1, j)
                if cand < best:
                    best, arg = cand, i
            dp[j][b] = best
            back[j][b] = arg
    ends = []
    j, b = V - 1, B
    while b >= 1:
        ends.append(j)
        j = int(back[j][b])
        b -= 1
    return sorted(ends)


def events_voptimal_hist(sf_dir: str) -> pa.Table:
    """V-OPTIMAL HISTOGRAM design (the selectivity-estimation classic —
    the histogram a cost-based optimizer wants, vs the equi-width one
    a streaming system gets): 8 variance-minimizing buckets over the
    value-cents domain. Pipeline: ONE pass emits 256 integer pre-bin
    partials (count, Σcents, Σcents² — exact ints); the O(256²·8) DP
    runs on the driver census; the output is the per-bucket INTEGER
    census (rows, Σ, Σ²) for the chosen boundaries, so no
    order-dependent float sum crosses the oracle (per-cell convention —
    the consumer derives each bucket's SSE). Oracle (IVF precedent):
    the builder recomputes census + DP locally and embeds boundaries;
    DuckDB independently re-aggregates the real rows per bucket."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["value"])
    schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("bin_lo", pa.int64()),
            ("bin_hi", pa.int64()),
            ("n_rows", pa.int64()),
            ("sum_cents", pa.int64()),
            ("sumsq_cents", pa.int64()),
        ]
    )

    def mmn(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.int64()),
                    "mx": pa.array([], pa.int64()),
                }
            )
        cents = round_half_away(v.astype(np.float64) * 100.0, 0).astype(
            np.int64
        )
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "mn": pa.array([int(cents.min())], pa.int64()),
                "mx": pa.array([int(cents.max())], pa.int64()),
            }
        )

    mm = pa.concat_tables(
        [
            pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.int64()),
                    "mx": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(mmn, batch_format="pyarrow"),
                group_agg_merge(("k",), mins=("mn",), maxs=("mx",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if mm.num_rows == 0:
        return schema.empty_table()
    lo_c = int(mm["mn"][0].as_py())
    hi_c = int(mm["mx"][0].as_py())
    span = hi_c - lo_c + 1
    P = VOPT_PREBINS

    def census(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        if len(v) == 0:
            return pa.table(
                {
                    "pb": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                    "ss": pa.array([], pa.int64()),
                }
            )
        cents = round_half_away(v * 100.0, 0).astype(np.int64)
        pb = (cents - lo_c) * P // span
        df = (
            pd.DataFrame({"pb": pb, "s": cents, "ss": cents * cents, "n": 1})
            .groupby("pb", sort=True)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "pb": pa.array(df["pb"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
                "s": pa.array(df["s"].to_numpy(np.int64), pa.int64()),
                "ss": pa.array(df["ss"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "pb": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                    "ss": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("pb",), ("n", "s", "ss")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas().sort_values("pb")
    if cen.empty:
        return schema.empty_table()
    # dense pre-bin arrays (empty pre-bins carry zeros)
    dense_n = np.zeros(P, dtype=np.int64)
    dense_s = np.zeros(P, dtype=np.int64)
    dense_ss = np.zeros(P, dtype=np.int64)
    idx = cen["pb"].to_numpy(np.int64)
    dense_n[idx] = cen["n"].to_numpy(np.int64)
    dense_s[idx] = cen["s"].to_numpy(np.int64)
    dense_ss[idx] = cen["ss"].to_numpy(np.int64)
    ends = _voptimal_boundaries(dense_n, dense_s, dense_ss, VOPT_BUCKETS)
    rows = []
    start = 0
    for b, end in enumerate(ends):
        seg = slice(start, end + 1)
        rows.append(
            (
                b,
                start,
                end,
                int(dense_n[seg].sum()),
                int(dense_s[seg].sum()),
                int(dense_ss[seg].sum()),
            )
        )
        start = end + 1
    return pa.table(
        {
            "bucket": pa.array([r[0] for r in rows], pa.int64()),
            "bin_lo": pa.array([r[1] for r in rows], pa.int64()),
            "bin_hi": pa.array([r[2] for r in rows], pa.int64()),
            "n_rows": pa.array([r[3] for r in rows], pa.int64()),
            "sum_cents": pa.array([r[4] for r in rows], pa.int64()),
            "sumsq_cents": pa.array([r[5] for r in rows], pa.int64()),
        },
        schema=schema,
    )


# ------------------------------------------- dedup threshold curve
DEDUP_CURVE_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)


def corpus_dedup_threshold_curve(sf_dir: str) -> pa.Table:
    """DEDUP THRESHOLD SENSITIVITY curve (the tuning sweep run before
    committing a near-dup threshold, the funnel-window-sweep shape for
    dedup): over the MinHash band candidate pairs with their EXACT
    word-shingle Jaccard — one blocking + one verify pass, reused from
    the sketch-accuracy audit — how many pairs survive each candidate
    threshold?  Thresholds compare the 6-dp-rounded jac on both sides."""
    from ..stages.dedup import minhash_estimate_audit

    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    audit = minhash_estimate_audit(docs)
    schema = pa.schema(
        [("threshold", pa.float64()), ("n_pairs", pa.int64())]
    )
    if isinstance(audit, pa.Table):
        jac = audit["jac"].to_numpy(zero_copy_only=False)
    else:
        parts = [
            b["jac"].to_numpy(zero_copy_only=False)
            for b in audit.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        jac = (
            np.concatenate(parts) if parts else np.array([], dtype=np.float64)
        )
    return pa.table(
        {
            "threshold": pa.array(list(DEDUP_CURVE_THRESHOLDS), pa.float64()),
            "n_pairs": pa.array(
                [int((jac >= t).sum()) for t in DEDUP_CURVE_THRESHOLDS],
                pa.int64(),
            ),
        },
        schema=schema,
    )


# ---------------------------------------------- join-pruning audit
JOINPRUNE_FILES = 64


def lineitem_join_pruning_audit(sf_dir: str) -> pa.Table:
    """JOIN-PRUNING audit — the semi-join-pushdown member of the
    physical-design family: a reader joins lineitem to a FILTERED
    orders side (the earliest order month); per lineitem layout
    ('orderkey_range' = 64 key-range files, 'shipdate_clustered' = one
    file per ship month), how much does each pruning mechanism skip?
    *zone-map* skip uses only the filtered side's [min, max] orderkey —
    the classic min/max pushdown, near-useless when filter and key are
    uncorrelated (the honest result this audit exists to show);
    *perfect* skip counts files with ZERO matching rows — the upper
    bound a per-file membership filter (Bloom) approaches. ONE lineitem
    pass emits per-(layout, file) partials (rows, key min/max, matching
    rows via the broadcast filtered-key set — the Bloom stand-in at
    test scale; at 100 TB the fixed-size Bloom bitmap from
    ``customers_without_orders_bloom`` replaces the raw set); the probe
    evaluates on ≤ (64 + months) driver rows."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_orderdate"]
    )
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_orderkey", "l_shipdate"]
    )
    schema = pa.schema(
        [
            ("layout", pa.string()),
            ("n_files", pa.int64()),
            ("zm_skippable", pa.int64()),
            ("perfect_skippable", pa.int64()),
            ("rows_scanned_zm", pa.int64()),
            ("rows_scanned_perfect", pa.int64()),
        ]
    )

    def omonth(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())}
            )
        us = (
            t["o_orderdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        dt = us.astype("datetime64[us]").astype("datetime64[M]")
        months = dt.astype(np.int64) + 1970 * 12
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "m": pa.array([int(months.min())], pa.int64()),
            }
        )

    mm = pa.concat_tables(
        [pa.table({"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                orders.map_batches(omonth, batch_format="pyarrow"),
                group_agg_merge(("k",), mins=("m",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if mm.num_rows == 0:
        return schema.empty_table()
    first_month = int(mm["m"][0].as_py())

    def fkeys(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"key": pa.array([], pa.int64())})
        us = (
            t["o_orderdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        months = (
            us.astype("datetime64[us]").astype("datetime64[M]").astype(np.int64)
            + 1970 * 12
        )
        keys = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"key": pa.array(np.unique(keys[months == first_month]), pa.int64())}
        )

    fk: set = set()
    for b in orders.map_batches(fkeys, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        fk.update(b["key"].to_pylist())
    if not fk:
        return schema.empty_table()
    kmin, kmax = min(fk), max(fk)
    fk_ref = ray.put(np.array(sorted(fk), dtype=np.int64))

    def kmax_pass(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())}
            )
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "m": pa.array([int(ok.max())], pa.int64()),
            }
        )

    lm = pa.concat_tables(
        [pa.table({"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                li.map_batches(kmax_pass, batch_format="pyarrow"),
                group_agg_merge(("k",), maxs=("m",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if lm.num_rows == 0:
        return schema.empty_table()
    max_key = int(lm["m"][0].as_py())

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "layout": pa.array([], pa.string()),
                    "fid": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "mnk": pa.array([], pa.int64()),
                    "mxk": pa.array([], pa.int64()),
                    "nm": pa.array([], pa.int64()),
                }
            )
        members = ray.get(fk_ref)
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = (
            t["l_shipdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        months = (
            us.astype("datetime64[us]").astype("datetime64[M]").astype(np.int64)
            + 1970 * 12
        )
        # vectorized membership: sorted broadcast array + np.isin — the
        # Python per-row `in set` loop was the batch hot spot
        match = np.isin(ok, members, assume_unique=False)
        frames = []
        for layout, fid in (
            ("orderkey_range", ok * JOINPRUNE_FILES // (max_key + 1)),
            ("shipdate_clustered", months),
        ):
            df = pd.DataFrame(
                {"fid": fid, "k": ok, "m": match.astype(np.int64)}
            )
            g = df.groupby("fid").agg(
                n=("k", "size"), mnk=("k", "min"), mxk=("k", "max"),
                nm=("m", "sum"),
            ).reset_index()
            g.insert(0, "layout", layout)
            frames.append(g)
        out = pd.concat(frames)
        return pa.table(
            {
                "layout": pa.array(out["layout"].tolist(), pa.string()),
                "fid": pa.array(out["fid"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(out["n"].to_numpy(np.int64), pa.int64()),
                "mnk": pa.array(out["mnk"].to_numpy(np.int64), pa.int64()),
                "mxk": pa.array(out["mxk"].to_numpy(np.int64), pa.int64()),
                "nm": pa.array(out["nm"].to_numpy(np.int64), pa.int64()),
            }
        )

    merge = group_agg_merge(
        ("layout", "fid"), sums=("n", "nm"), mins=("mnk",), maxs=("mxk",)
    )
    zm = pa.concat_tables(
        [
            pa.table(
                {
                    "layout": pa.array([], pa.string()),
                    "fid": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "nm": pa.array([], pa.int64()),
                    "mnk": pa.array([], pa.int64()),
                    "mxk": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                li.map_batches(partials, batch_format="pyarrow"), merge
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if zm.empty:
        return schema.empty_table()
    zskip = ((zm["mxk"] < kmin) | (zm["mnk"] > kmax)).to_numpy()
    pskip = (zm["nm"] == 0).to_numpy()
    n = zm["n"].to_numpy(np.int64)
    g = (
        pd.DataFrame(
            {
                "layout": zm["layout"],
                "one": 1,
                "zs": zskip.astype(np.int64),
                "ps": pskip.astype(np.int64),
                "rz": np.where(zskip, 0, n),
                "rp": np.where(pskip, 0, n),
            }
        )
        .groupby("layout", sort=True)
        .sum()
        .reset_index()
    )
    return pa.table(
        {
            "layout": pa.array(g["layout"].tolist(), pa.string()),
            "n_files": pa.array(g["one"].to_numpy(np.int64), pa.int64()),
            "zm_skippable": pa.array(g["zs"].to_numpy(np.int64), pa.int64()),
            "perfect_skippable": pa.array(
                g["ps"].to_numpy(np.int64), pa.int64()
            ),
            "rows_scanned_zm": pa.array(g["rz"].to_numpy(np.int64), pa.int64()),
            "rows_scanned_perfect": pa.array(
                g["rp"].to_numpy(np.int64), pa.int64()
            ),
        },
        schema=schema,
    )


# --------------------------------------------------- LTTB downsampling
LTTB_POINTS = 100


def events_hourly_lttb(sf_dir: str, n_out: int = LTTB_POINTS) -> pa.Table:
    """LARGEST-TRIANGLE-THREE-BUCKETS downsampling (the dashboarding
    classic: reduce a series to n points that preserve its visual
    shape): over the dense hourly event-count series — census is
    hour-domain-bounded, the one distributed pass — the driver runs the
    standard LTTB sweep: endpoints fixed, middle hours split into
    n_out − 2 equal buckets, each bucket keeps the point maximizing the
    triangle area with the PREVIOUS kept point and the NEXT bucket's
    centroid (ties → earliest hour). Output (idx, hour_us, n) — the n
    values are exact ints the oracle re-derives from the raw rows; the
    selection is the deterministic recomputed part (IVF precedent)."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["ts"])
    schema = pa.schema(
        [
            ("idx", pa.int64()),
            ("hour_us", pa.int64()),
            ("n", pa.int64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        h = (_ts_us(t) // _HOUR_US) * _HOUR_US
        keys, counts = np.unique(h, return_counts=True)
        return pa.table(
            {
                "h": pa.array(keys.astype(np.int64), pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [pa.table({"h": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                ev.map_batches(partial, batch_format="pyarrow"),
                group_sum_merge(("h",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas().sort_values("h")
    if cen.empty:
        return schema.empty_table()
    hs = cen["h"].to_numpy(np.int64)
    ns = cen["n"].to_numpy(np.int64)
    N = len(hs)
    if N <= n_out:
        return pa.table(
            {
                "idx": pa.array(np.arange(N, dtype=np.int64), pa.int64()),
                "hour_us": pa.array(hs, pa.int64()),
                "n": pa.array(ns, pa.int64()),
            },
            schema=schema,
        )
    # x in hour units keeps the area arithmetic in small exact floats
    x = ((hs - hs[0]) // _HOUR_US).astype(np.float64)
    y = ns.astype(np.float64)
    picked = [0]
    n_mid = n_out - 2
    # bucket b covers middle indices [1 + b*(N-2)//n_mid, 1 + (b+1)*(N-2)//n_mid)
    for b in range(n_mid):
        lo = 1 + b * (N - 2) // n_mid
        hi = 1 + (b + 1) * (N - 2) // n_mid
        if b + 1 < n_mid:
            nlo = 1 + (b + 1) * (N - 2) // n_mid
            nhi = 1 + (b + 2) * (N - 2) // n_mid
        else:
            nlo, nhi = N - 1, N
        ax, ay = x[picked[-1]], y[picked[-1]]
        cx = float(x[nlo:nhi].mean())
        cy = float(y[nlo:nhi].mean())
        best_area, best_i = -1.0, lo
        for i in range(lo, hi):
            area = abs(
                (ax - cx) * (y[i] - ay) - (ax - x[i]) * (cy - ay)
            )
            if area > best_area:
                best_area, best_i = area, i
        picked.append(best_i)
    picked.append(N - 1)
    picked_arr = np.asarray(picked, dtype=np.int64)
    return pa.table(
        {
            "idx": pa.array(
                np.arange(len(picked_arr), dtype=np.int64), pa.int64()
            ),
            "hour_us": pa.array(hs[picked_arr], pa.int64()),
            "n": pa.array(ns[picked_arr], pa.int64()),
        },
        schema=schema,
    )


# ---------------------------------------------- ANN index recall audit
IVF_RECALL_KS = (1, 5, 10)


def embedding_ivf_recall_audit(sf_dir: str) -> pa.Table:
    """ANN INDEX RECALL audit (the index-quality eval next to the
    sketch-accuracy family): overlap between the IVF-probed top-k and
    the exact brute-force top-k at k ∈ {1, 5, 10} — the number an index
    operator must know before trusting probed search (at sf0.001 the
    default probe setting reads 0.8–0.9 at k=5/10: REAL recall loss the
    audit surfaces; the LSH variant's exact-recall note does not carry
    over to IVF). Pure composition of the two existing oracled
    retrieval paths (one exact pass, one IVF pass); ranks re-derived by
    the shared (cos DESC, id ASC) order."""
    exact = similarity_topk(sf_dir)
    exact = exact if isinstance(exact, pd.DataFrame) else exact.to_pandas()
    ivf = similarity_topk_ivf(sf_dir)
    ivf = ivf if isinstance(ivf, pd.DataFrame) else ivf.to_pandas()
    schema = pa.schema(
        [
            ("k", pa.int64()),
            ("n_overlap", pa.int64()),
            ("recall", pa.float64()),
        ]
    )
    if exact.empty or ivf.empty:
        return schema.empty_table()
    exact = exact.sort_values(
        ["cos", "vec_id"], ascending=[False, True], kind="mergesort"
    )
    ivf = ivf.sort_values(
        ["cos", "vec_id"], ascending=[False, True], kind="mergesort"
    )
    ks, ovs, recs = [], [], []
    for k in IVF_RECALL_KS:
        e = set(exact["vec_id"].head(k).tolist())
        i = set(ivf["vec_id"].head(k).tolist())
        ov = len(e & i)
        ks.append(k)
        ovs.append(ov)
        recs.append(float(round_half_away(np.array([ov / k]), 6)[0]))
    return pa.table(
        {
            "k": pa.array(ks, pa.int64()),
            "n_overlap": pa.array(ovs, pa.int64()),
            "recall": pa.array(recs, pa.float64()),
        },
        schema=schema,
    )


# ------------------------------------------- clustering agreement
def cluster_agreement_lex_sem(sf_dir: str) -> pa.Table:
    """CLUSTERING AGREEMENT (pair-counting Jaccard/Rand family — the
    cross-method audit run before swapping a lexical dedup for a
    semantic one): do the MinHash word-shingle clusters over documents
    and the cosine near-dup clusters over the id-aligned embeddings
    co-cluster the same pairs?  All three pair counts come from CLUSTER
    SIZE censuses — Σ s·(s−1)/2 over each partition and over the JOINT
    partition — so nothing pair-scale is ever materialized: two label
    passes (both reusing oracled cluster stages), one id cogroup to
    build the joint keys, three size censuses, exact ints + one 6-dp
    division (pair-Jaccard agreement)."""
    lex = doc_minhash_dedup(sf_dir)
    sem = embedding_near_dup(sf_dir)
    schema = pa.schema(
        [
            ("n_ids", pa.int64()),
            ("n_pairs_lex", pa.int64()),
            ("n_pairs_sem", pa.int64()),
            ("n_pairs_both", pa.int64()),
            ("agreement", pa.float64()),
        ]
    )

    def tag(side: str, id_col: str):
        def fn(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table(
                    {
                        "id": pa.array([], pa.int64()),
                        "lex": pa.array([], pa.int64()),
                        "sem": pa.array([], pa.int64()),
                    }
                )
            cl = t["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            neg = np.full(len(ids), -1, np.int64)
            return pa.table(
                {
                    "id": pa.array(ids, pa.int64()),
                    "lex": pa.array(cl if side == "lex" else neg, pa.int64()),
                    "sem": pa.array(cl if side == "sem" else neg, pa.int64()),
                }
            )

        return fn

    joint = (
        lex.map_batches(tag("lex", "doc_id"), batch_format="pyarrow")
        .union(sem.map_batches(tag("sem", "vec_id"), batch_format="pyarrow"))
        .groupby("id")
        .aggregate(Max("lex", alias_name="lex"), Max("sem", alias_name="sem"))
    )

    def size_partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "kind": pa.array([], pa.string()),
                    "cl": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        lexv = t["lex"].to_numpy(zero_copy_only=False).astype(np.int64)
        semv = t["sem"].to_numpy(zero_copy_only=False).astype(np.int64)
        frames = [
            pd.DataFrame({"kind": "lex", "cl": lexv.astype(str)}),
            pd.DataFrame({"kind": "sem", "cl": semv.astype(str)}),
            pd.DataFrame(
                {
                    "kind": "both",
                    "cl": np.char.add(
                        np.char.add(lexv.astype(str), "|"), semv.astype(str)
                    ),
                }
            ),
            pd.DataFrame(
                {"kind": ["ids"] * len(lexv), "cl": ["all"] * len(lexv)}
            ),
        ]
        df = (
            pd.concat(frames)
            .groupby(["kind", "cl"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "kind": pa.array(df["kind"].tolist(), pa.string()),
                "cl": pa.array(df["cl"].tolist(), pa.string()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    sizes = (
        joint.map_batches(size_partials, batch_format="pyarrow")
        .groupby(["kind", "cl"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def pair_partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "kind": pa.array([], pa.string()),
                    "pairs": pa.array([], pa.int64()),
                    "nids": pa.array([], pa.int64()),
                }
            )
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = (
            pd.DataFrame(
                {
                    "kind": t["kind"].to_pylist(),
                    "pairs": n * (n - 1) // 2,
                    "nids": n,
                }
            )
            .groupby("kind", sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "kind": pa.array(df["kind"].tolist(), pa.string()),
                "pairs": pa.array(df["pairs"].to_numpy(np.int64), pa.int64()),
                "nids": pa.array(df["nids"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "kind": pa.array([], pa.string()),
                    "pairs": pa.array([], pa.int64()),
                    "nids": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                sizes.map_batches(pair_partials, batch_format="pyarrow"),
                group_sum_merge(("kind",), ("pairs", "nids")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    row = cen.set_index("kind")
    pl = int(row.loc["lex", "pairs"]) if "lex" in row.index else 0
    ps = int(row.loc["sem", "pairs"]) if "sem" in row.index else 0
    pb = int(row.loc["both", "pairs"]) if "both" in row.index else 0
    n_ids = int(row.loc["ids", "nids"]) if "ids" in row.index else 0
    denom = pl + ps - pb
    agree = 1.0 if denom == 0 else pb / float(denom)
    return pa.table(
        {
            "n_ids": pa.array([n_ids], pa.int64()),
            "n_pairs_lex": pa.array([pl], pa.int64()),
            "n_pairs_sem": pa.array([ps], pa.int64()),
            "n_pairs_both": pa.array([pb], pa.int64()),
            "agreement": pa.array(
                round_half_away(np.array([agree]), 6), pa.float64()
            ),
        },
        schema=schema,
    )


# ------------------------------------------------- curriculum ordering
CURRICULUM_DF_COMMON_MIN = 3  # df >= 3 ⇒ a "common" token
CURRICULUM_LEN_CAP = 100


def doc_curriculum_order(sf_dir: str) -> Dataset:
    """CURRICULUM DIFFICULTY scoring (the easy-to-hard data-ordering op
    for staged training): per doc, difficulty = 0.4·len_component +
    0.3·punct_component + 0.3·rare_frac, where len = min(n_words, 100)
    / 100, punct = min(punct/word ratio, 1), and rare_frac = fraction
    of the doc's DISTINCT words with corpus document-frequency < 3.
    Each component is one division of exact ints, the weighted sum one
    fixed left-associated 3-term chain mirrored by the oracle. The df
    census is vocabulary-sized; the COMMON-token set (df ≥ 3 — the
    short head, not the long rare tail) broadcasts via ray.put, so the
    per-doc pass stays map-only."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def df_partial(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for txt in t["text"].to_pylist():
            c.update(set(_WORD_RE.findall((txt or "").lower())))
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "df": pa.array(list(c.values()), pa.int64()),
            }
        )

    dfc = pa.concat_tables(
        [pa.table({"token": pa.array([], pa.string()), "df": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                docs.map_batches(df_partial, batch_format="pyarrow"),
                group_sum_merge(("token",), ("df",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    common = frozenset(
        tok
        for tok, df in zip(dfc["token"].to_pylist(), dfc["df"].to_pylist())
        if df >= CURRICULUM_DF_COMMON_MIN
    )
    common_ref = ray.put(common)

    def score(t: pa.Table) -> pa.Table:
        com = ray.get(common_ref)
        ids, diffs, nw_out, rare_out = [], [], [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            low = (txt or "").lower()
            words = _WORD_RE.findall(low)
            nw = len(words)
            len_c = min(nw, CURRICULUM_LEN_CAP) / float(CURRICULUM_LEN_CAP)
            punct_c = (
                min(len(_PUNCT_RE.findall(txt or "")) / nw, 1.0) if nw else 0.0
            )
            distinct = set(words)
            nd = len(distinct)
            rare = (
                sum(1 for w in distinct if w not in com) / nd if nd else 0.0
            )
            diff = 0.4 * len_c + 0.3 * punct_c + 0.3 * rare
            ids.append(did)
            nw_out.append(nw)
            rare_out.append(rare)
            diffs.append(diff)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_words": pa.array(nw_out, pa.int64()),
                "rare_frac": pa.array(
                    round_half_away(np.array(rare_out, np.float64), 6),
                    pa.float64(),
                ),
                "difficulty": pa.array(
                    round_half_away(np.array(diffs, np.float64), 6),
                    pa.float64(),
                ),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


# -------------------------------------------------- HHI concentration
def nation_customer_hhi(sf_dir: str) -> pa.Table:
    """HERFINDAHL-HIRSCHMAN concentration index per nation (the market-
    concentration classic next to the Pareto cuts and the Gini): over
    each nation's customers' total order revenue (whole DOLLARS —
    per-order round(o_totalprice) — so Σrev² stays inside int64 up to
    ~sf10; a negative-wrap guard raises loudly past it), HHI = Σ share²
    = Σ rev_c² / (Σ rev_c)² — the algebraic form that keeps EVERYTHING
    integer until ONE final division per nation (the NOTES
    single-division convention; no order-dependent float sum of
    shares). Two-level reduce, fully distributed (ADVICE r4): the
    customer→nation mapping rides the SAME customer-key shuffle as the
    revenue partials — side-tagged union of order partials (c, rev,
    n_orders, nk=-1) with customer rows (c, 0, 0, nk), ONE
    groupby(c).aggregate(Sum rev, Sum n_orders, Max nk) — so no
    O(|customer|) driver dict; only the 25-row nation-name lookup and
    the nation-level Σrev/Σrev² census live on the driver."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"]
    )
    cust = read_parquet_clean(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"]
    )
    nation = read_parquet_clean(
        _p(sf_dir, "nation"), columns=["n_nationkey", "n_name"]
    )
    schema = pa.schema(
        [
            ("n_name", pa.string()),
            ("n_customers", pa.int64()),
            ("hhi", pa.float64()),
        ]
    )
    nn: dict = {}
    for b in nation.iter_batches(batch_format="pyarrow"):
        nn.update(zip(b["n_nationkey"].to_pylist(), b["n_name"].to_pylist()))
    if not nn or cust.count() == 0:
        return schema.empty_table()

    def rev_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "c": pa.array([], pa.int64()),
                    "rev": pa.array([], pa.int64()),
                    "n_orders": pa.array([], pa.int64()),
                    "nk": pa.array([], pa.int64()),
                }
            )
        dollars = round_half_away(
            t["o_totalprice"].to_numpy(zero_copy_only=False).astype(np.float64),
            0,
        ).astype(np.int64)
        df = (
            pd.DataFrame(
                {
                    "c": t["o_custkey"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    "rev": dollars,
                    "n_orders": 1,
                }
            )
            .groupby("c", sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
                "rev": pa.array(df["rev"].to_numpy(np.int64), pa.int64()),
                "n_orders": pa.array(
                    df["n_orders"].to_numpy(np.int64), pa.int64()
                ),
                # -1 = "nation unknown on this side"; Max picks the real
                # nationkey contributed by the customer-side rows
                "nk": pa.array(
                    np.full(len(df), -1, dtype=np.int64), pa.int64()
                ),
            }
        )

    def cust_side(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "c": t["c_custkey"].cast(pa.int64()),
                "rev": pa.array(np.zeros(n, dtype=np.int64), pa.int64()),
                "n_orders": pa.array(
                    np.zeros(n, dtype=np.int64), pa.int64()
                ),
                "nk": t["c_nationkey"].cast(pa.int64()),
            }
        )

    # side-tagged union: the nation mapping rides the same customer-key
    # shuffle as the revenue partials (documented Ray-2.49 join-averse
    # cogroup shape, cf. orders_fulfillment_lag)
    per_cust = (
        orders.map_batches(rev_partial, batch_format="pyarrow")
        .union(cust.map_batches(cust_side, batch_format="pyarrow"))
        .groupby("c")
        .aggregate(
            Sum("rev", alias_name="rev"),
            Sum("n_orders", alias_name="n_orders"),
            Max("nk", alias_name="nk"),
        )
    )

    def nation_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "nk": pa.array([], pa.int64()),
                    "nc": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                    "ss": pa.array([], pa.int64()),
                }
            )
        no = t["n_orders"].to_numpy(zero_copy_only=False).astype(np.int64)
        nk = t["nk"].to_numpy(zero_copy_only=False).astype(np.int64)
        rev = t["rev"].to_numpy(zero_copy_only=False).astype(np.int64)
        # oracle counts customers WITH ≥1 order that exist in customer
        # (nk ≥ 0); order-only keys (dangling FK) drop like the old
        # lookup-miss path did
        keep = (no > 0) & (nk >= 0)
        if not keep.any():
            return pa.table(
                {
                    "nk": pa.array([], pa.int64()),
                    "nc": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                    "ss": pa.array([], pa.int64()),
                }
            )
        nk, rev = nk[keep], rev[keep]
        df = (
            pd.DataFrame({"nk": nk, "nc": 1, "s": rev, "ss": rev * rev})
            .groupby("nk", sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "nk": pa.array(df["nk"].to_numpy(np.int64), pa.int64()),
                "nc": pa.array(df["nc"].to_numpy(np.int64), pa.int64()),
                "s": pa.array(df["s"].to_numpy(np.int64), pa.int64()),
                "ss": pa.array(df["ss"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "nk": pa.array([], pa.int64()),
                    "nc": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                    "ss": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                per_cust.map_batches(nation_partial, batch_format="pyarrow"),
                group_sum_merge(("nk",), ("nc", "s", "ss")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    if (cen["ss"] < 0).any() or (cen["s"] < 0).any():
        raise ValueError(
            "nation_customer_hhi: int64 overflow in revenue moments — "
            "rescale revenue units before running at this data scale"
        )
    rows = []
    for r in cen.itertuples():
        name = nn.get(int(r.nk))
        if name is None or int(r.s) == 0:
            continue
        hhi = float(r.ss) / (float(r.s) * float(r.s))
        rows.append((name, int(r.nc), float(round_half_away(np.array([hhi]), 6)[0])))
    rows.sort()
    return pa.table(
        {
            "n_name": pa.array([r[0] for r in rows], pa.string()),
            "n_customers": pa.array([r[1] for r in rows], pa.int64()),
            "hhi": pa.array([r[2] for r in rows], pa.float64()),
        },
        schema=schema,
    )


# ------------------------------------------------- burstiness profile
def events_user_burstiness(sf_dir: str, n_buckets: int = 64) -> Dataset:
    """GOH-BARABÁSI BURSTINESS per user — B = (σ − μ)/(σ + μ) over the
    user's inter-event gaps in whole seconds: −1 = perfectly regular,
    0 = Poissonian, → 1 = extremely bursty. The arrival-PROCESS profile
    per user, complementing the global hourly Fano factor and the
    gap-distribution KS test. One user-bucket shuffle (the funnel
    shape); per user the gap moments stay exact ints (seconds; Σg² per
    user bounded far inside int64) and σ/B are two float ops from those
    ints, mirrored term-for-term. Users with < 3 events (< 2 gaps) are
    skipped — σ of one gap is 0 and B = −1 tells nothing."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "ts"]
    )
    schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("n_gaps", pa.int64()),
            ("mean_gap_s", pa.float64()),
            ("burstiness", pa.float64()),
        ]
    )
    if ev.count() == 0:
        return rd.from_arrow(schema.empty_table())

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_bucket",
            pc.bit_wise_and(t["user_id"], pa.scalar(n_buckets - 1)),
        )

    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"])
        us = (
            g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        )
        uid = g["user_id"].to_numpy(np.int64)
        secs = us // 1_000_000
        gap = np.diff(secs)
        same = uid[1:] == uid[:-1]
        df = (
            pd.DataFrame({"u": uid[1:][same], "g": gap[same]})
            .assign(g2=lambda d: d["g"] * d["g"], one=1)
            .groupby("u", sort=False)
            .agg(n=("one", "sum"), s=("g", "sum"), ss=("g2", "sum"))
            .reset_index()
        )
        df = df[df["n"] >= 2]
        if df.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "n_gaps": pd.Series([], dtype="int64"),
                    "mean_gap_s": pd.Series([], dtype="float64"),
                    "burstiness": pd.Series([], dtype="float64"),
                }
            )
        n = df["n"].to_numpy(np.int64).astype(np.float64)
        s = df["s"].to_numpy(np.int64).astype(np.float64)
        ss = df["ss"].to_numpy(np.int64).astype(np.float64)
        mu = s / n
        var = ss / n - mu * mu
        sigma = np.sqrt(np.maximum(var, 0.0))
        denom = sigma + mu
        b = np.where(denom > 0, (sigma - mu) / denom, 0.0)
        return pd.DataFrame(
            {
                "user_id": df["u"].to_numpy(np.int64),
                "n_gaps": df["n"].to_numpy(np.int64),
                "mean_gap_s": round_half_away(mu, 4),
                "burstiness": round_half_away(b, 6),
            }
        )

    return (
        ev.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(bucket_stats, batch_format="pandas")
    )


# ----------------------------------------------- Simpson diversity
SIMPSON_VALUE_BAND_CENTS = 5_000


def events_type_simpson(sf_dir: str) -> pa.Table:
    """SIMPSON DIVERSITY index per event type over $50 value bands —
    the probability two random events of the type share a band,
    λ = Σ n_b(n_b−1) / (N(N−1)), and its effective-class complement.
    The diversity-family member next to the Shannon entropy ops, chosen
    for its EXACT-INT form: both numerator and denominator are integer
    sums (band census → Σn(n−1)), ONE division at the end (the NOTES
    single-division convention)."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    )
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n_events", pa.int64()),
            ("n_bands", pa.int64()),
            ("simpson", pa.float64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "et": pa.array([], pa.string()),
                    "vb": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        df = (
            pd.DataFrame(
                {
                    "et": t["event_type"].to_pylist(),
                    "vb": cents // SIMPSON_VALUE_BAND_CENTS,
                }
            )
            .groupby(["et", "vb"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "et": pa.array(df["et"].tolist(), pa.string()),
                "vb": pa.array(df["vb"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "et": pa.array([], pa.string()),
                    "vb": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("et", "vb"), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    g = (
        cen.assign(num=lambda d: d["n"] * (d["n"] - 1), one=1)
        .groupby("et", sort=True)
        .agg(n_events=("n", "sum"), n_bands=("one", "sum"), num=("num", "sum"))
        .reset_index()
    )
    g = g[g["n_events"] >= 2]
    if g.empty:
        return schema.empty_table()
    ne = g["n_events"].to_numpy(np.int64)
    num = g["num"].to_numpy(np.int64)
    lam = num.astype(np.float64) / (ne * (ne - 1)).astype(np.float64)
    return pa.table(
        {
            "event_type": pa.array(g["et"].tolist(), pa.string()),
            "n_events": pa.array(ne, pa.int64()),
            "n_bands": pa.array(g["n_bands"].to_numpy(np.int64), pa.int64()),
            "simpson": pa.array(round_half_away(lam, 6), pa.float64()),
        },
        schema=schema,
    )


# ------------------------------------------------- peak load factor
def events_type_load_factor(sf_dir: str) -> pa.Table:
    """PEAK-TO-MEAN LOAD FACTOR per event type (the capacity-planning
    number behind provisioning: how much hotter is the peak hour than
    the average hour?): over each type's hour span, load = peak·span /
    total — the all-integer form of peak/mean with ONE final division
    (single-division convention). One hourly (type, hour) census
    (domain-bounded); span from per-type min/max hour."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "ts"]
    )
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n_events", pa.int64()),
            ("span_hours", pa.int64()),
            ("peak_hour_events", pa.int64()),
            ("load_factor", pa.float64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "et": pa.array([], pa.string()),
                    "h": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        h = _ts_us(t) // _HOUR_US
        df = (
            pd.DataFrame({"et": t["event_type"].to_pylist(), "h": h})
            .groupby(["et", "h"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "et": pa.array(df["et"].tolist(), pa.string()),
                "h": pa.array(df["h"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "et": pa.array([], pa.string()),
                    "h": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("et", "h"), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    g = (
        cen.groupby("et", sort=True)
        .agg(
            total=("n", "sum"),
            peak=("n", "max"),
            hmin=("h", "min"),
            hmax=("h", "max"),
        )
        .reset_index()
    )
    span = (g["hmax"] - g["hmin"] + 1).to_numpy(np.int64)
    peak = g["peak"].to_numpy(np.int64)
    total = g["total"].to_numpy(np.int64)
    load = (peak * span).astype(np.float64) / total.astype(np.float64)
    return pa.table(
        {
            "event_type": pa.array(g["et"].tolist(), pa.string()),
            "n_events": pa.array(total, pa.int64()),
            "span_hours": pa.array(span, pa.int64()),
            "peak_hour_events": pa.array(peak, pa.int64()),
            "load_factor": pa.array(round_half_away(load, 6), pa.float64()),
        },
        schema=schema,
    )


# --------------------------------------------------- Lorenz curve points
def events_value_lorenz(sf_dir: str) -> pa.Table:
    """LORENZ CURVE at user deciles over per-user value totals — the
    distribution-shape companion to the Gini coefficient (same census,
    readable inequality: "the bottom 50% of users hold X% of value").
    Shape mirrors ``events_user_gini``: one user-key sum groupby, then
    the (total-cents, multiplicity) census; every decile point is exact
    ints (cum_users = d·U//10, cum cents via block-closed-form over the
    sorted census — ties are interchangeable, so the boundary value is
    well-defined), one 6-dp share division per row."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["user_id", "value"]
    )
    schema = pa.schema(
        [
            ("decile", pa.int64()),
            ("cum_users", pa.int64()),
            ("cum_value_cents", pa.int64()),
            ("cum_value_share", pa.float64()),
        ]
    )

    def pu_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                }
            )
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        df = (
            pd.DataFrame(
                {
                    "user_id": t["user_id"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    "c": cents,
                }
            )
            .groupby("user_id", sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64), pa.int64()),
                "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    per_user = (
        ev.map_batches(pu_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("c", alias_name="c"))
    )
    cen = pa.concat_tables(
        [pa.table({"v": pa.array([], pa.int64()), "m": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                per_user.map_batches(
                    lambda t: pa.table(
                        {
                            "v": t["c"],
                            "m": pa.array(np.ones(t.num_rows, np.int64)),
                        }
                    ),
                    batch_format="pyarrow",
                ),
                group_sum_merge(("v",), ("m",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("v")
    v = cen["v"].to_numpy(np.int64)
    m = cen["m"].to_numpy(np.int64)
    cumm = np.cumsum(m)
    cumc = np.cumsum(v * m)
    U = int(cumm[-1])
    tot = int(cumc[-1])
    rows = []
    for d in range(1, 11):
        k = d * U // 10
        if k == 0:
            cents = 0
        else:
            j = int(np.searchsorted(cumm, k, side="left"))
            before_m = int(cumm[j - 1]) if j > 0 else 0
            before_c = int(cumc[j - 1]) if j > 0 else 0
            cents = before_c + (k - before_m) * int(v[j])
        share = cents / float(tot) if tot else 0.0
        rows.append((d, k, cents, float(round_half_away(np.array([share]), 6)[0])))
    return pa.table(
        {
            "decile": pa.array([r[0] for r in rows], pa.int64()),
            "cum_users": pa.array([r[1] for r in rows], pa.int64()),
            "cum_value_cents": pa.array([r[2] for r in rows], pa.int64()),
            "cum_value_share": pa.array([r[3] for r in rows], pa.float64()),
        },
        schema=schema,
    )


# --------------------------------------------------- dataset card
def events_dataset_card(sf_dir: str) -> pa.Table:
    """DATASET CARD for the events table (the one-row summary a data
    release ships: volume, entity counts, time span, value totals,
    degenerate-row counts) — the events-side companion to
    ``lineitem_profile``. Exact ints end-to-end: one fixed-width
    moments census (rows, null timestamps, zero/negative values, value
    cents sum, min/max ts) + the exact distinct-user count composed
    from the oracled ``events_user_count`` two-level reduce + a
    type-cardinality census."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["event_id", "user_id", "event_type", "ts", "value"],
    )
    schema = pa.schema(
        [
            ("n_rows", pa.int64()),
            ("n_users", pa.int64()),
            ("n_types", pa.int64()),
            ("ts_min_us", pa.int64()),
            ("ts_max_us", pa.int64()),
            ("span_days", pa.int64()),
            ("value_sum_cents", pa.int64()),
            ("n_zero_value", pa.int64()),
        ]
    )

    def moments(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.int64()),
                    "mx": pa.array([], pa.int64()),
                    "sc": pa.array([], pa.int64()),
                    "z": pa.array([], pa.int64()),
                }
            )
        us = _ts_us(t)
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "n": pa.array([t.num_rows], pa.int64()),
                "mn": pa.array([int(us.min())], pa.int64()),
                "mx": pa.array([int(us.max())], pa.int64()),
                "sc": pa.array([int(cents.sum())], pa.int64()),
                "z": pa.array([int((cents == 0).sum())], pa.int64()),
            }
        )

    mom = pa.concat_tables(
        [
            pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.int64()),
                    "mx": pa.array([], pa.int64()),
                    "sc": pa.array([], pa.int64()),
                    "z": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(moments, batch_format="pyarrow"),
                group_agg_merge(
                    ("k",), sums=("n", "sc", "z"), mins=("mn",), maxs=("mx",)
                ),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if mom.num_rows == 0:
        return schema.empty_table()
    n_users = int(
        events_user_count(sf_dir).to_pandas()["n_users"].iloc[0]
    )

    def type_partial(t: pa.Table) -> pa.Table:
        vals = sorted(set(t["event_type"].to_pylist()))
        return pa.table({"et": pa.array(vals, pa.string())})

    n_types = (
        ev.map_batches(type_partial, batch_format="pyarrow")
        .groupby("et")
        .aggregate(Count(alias_name="c"))
        .count()
    )
    mn = int(mom["mn"][0].as_py())
    mx = int(mom["mx"][0].as_py())
    return pa.table(
        {
            "n_rows": pa.array([int(mom["n"][0].as_py())], pa.int64()),
            "n_users": pa.array([n_users], pa.int64()),
            "n_types": pa.array([int(n_types)], pa.int64()),
            "ts_min_us": pa.array([mn], pa.int64()),
            "ts_max_us": pa.array([mx], pa.int64()),
            "span_days": pa.array([mx // _DAY_US - mn // _DAY_US + 1], pa.int64()),
            "value_sum_cents": pa.array([int(mom["sc"][0].as_py())], pa.int64()),
            "n_zero_value": pa.array([int(mom["z"][0].as_py())], pa.int64()),
        },
        schema=schema,
    )


# ------------------------------------------------- SRM guardrail
def events_ab_srm_check(sf_dir: str) -> pa.Table:
    """SAMPLE-RATIO-MISMATCH check — the experimentation guardrail run
    BEFORE reading any A/B result (a skewed split invalidates the
    z-test downstream): under the md5-parity 50/50 assignment (the
    split-assign convention shared with the z-test/CUPED ops), the
    2-arm equal-split χ² collapses to (n_A − n_B)²/(n_A + n_B) — an
    exact-int numerator and ONE division (single-division convention).
    One user-distinct reduce → two fixed census rows; the consumer
    compares χ² against its 1-dof threshold (3.84 at α=.05)."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id"])
    schema = pa.schema(
        [
            ("n_users_a", pa.int64()),
            ("n_users_b", pa.int64()),
            ("srm_chi2", pa.float64()),
        ]
    )

    def user_rows(t: pa.Table) -> pa.Table:
        users = sorted(set(t["user_id"].to_pylist()))
        return pa.table({"user_id": pa.array(users, pa.int64())})

    per_user = (
        ev.map_batches(user_rows, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Count(alias_name="c"))
    )

    def arm_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "arm": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        arms = []
        for u in t["user_id"].to_pylist():
            h = int.from_bytes(
                hashlib.md5(str(u).encode("utf-8")).digest()[:8], "little"
            )  # md5_number_upper replay (split-assign convention)
            arms.append("A" if h % 2 == 0 else "B")
        df = (
            pd.DataFrame({"arm": arms})
            .groupby("arm", sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "arm": pa.array(df["arm"].tolist(), pa.string()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [pa.table({"arm": pa.array([], pa.string()), "n": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                per_user.map_batches(arm_partial, batch_format="pyarrow"),
                group_sum_merge(("arm",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    row = cen.set_index("arm")["n"]
    na = int(row.get("A", 0))
    nb = int(row.get("B", 0))
    chi2 = ((na - nb) ** 2) / float(na + nb) if na + nb else 0.0
    return pa.table(
        {
            "n_users_a": pa.array([na], pa.int64()),
            "n_users_b": pa.array([nb], pa.int64()),
            "srm_chi2": pa.array(
                round_half_away(np.array([chi2]), 6), pa.float64()
            ),
        },
        schema=schema,
    )


# ------------------------------------------- conditional entropy terms
def events_type_cond_entropy_terms(sf_dir: str) -> pa.Table:
    """CONDITIONAL-ENTROPY terms of the event-type Markov chain —
    H(next | prev), the sequence-compressibility number (how predictable
    is the next action given the current one?) that complements the MI
    and transition-census ops. Per the per-cell-term convention the
    operator emits one row per (prev, next) cell with the exact integer
    counts and the term n_pn·log₂(n_p / n_pn) (ONE log of an exact-int
    ratio, 6 dp); the consumer sums terms / N for H. Composes the
    oracled transition census (one bucket shuffle) with a driver sweep
    over the #types² cells."""
    trans = events_type_transitions(sf_dir)
    trans = trans if isinstance(trans, pd.DataFrame) else trans.to_pandas()
    schema = pa.schema(
        [
            ("prev_type", pa.string()),
            ("next_type", pa.string()),
            ("n_pn", pa.int64()),
            ("n_p", pa.int64()),
            ("term", pa.float64()),
        ]
    )
    if trans.empty:
        return schema.empty_table()
    totals = trans.groupby("prev_type")["n"].sum()
    trans = trans.sort_values(["prev_type", "next_type"])
    n_pn = trans["n"].to_numpy(np.int64)
    n_p = totals.loc[trans["prev_type"]].to_numpy(np.int64)
    term = n_pn * np.log2(n_p / n_pn.astype(np.float64))
    return pa.table(
        {
            "prev_type": pa.array(trans["prev_type"].tolist(), pa.string()),
            "next_type": pa.array(trans["next_type"].tolist(), pa.string()),
            "n_pn": pa.array(n_pn, pa.int64()),
            "n_p": pa.array(n_p, pa.int64()),
            "term": pa.array(round_half_away(term, 6), pa.float64()),
        },
        schema=schema,
    )


# --------------------------------------------- compression-ratio signal
ZLIB_LEVEL = 6


def doc_compression_ratio(sf_dir: str) -> Dataset:
    """ZLIB COMPRESSION RATIO per document — the Gopher-family quality
    signal the repetition heuristics approximate: highly compressible
    text IS repetitive/templated text, measured directly. Pure per-doc
    map (zlib level 6 — stdlib, deterministic bytes across platforms
    for a fixed level); ratio = compressed/raw over exact byte counts,
    one 6-dp division. The oracle (IVF precedent) recomputes the
    deterministic compressed sizes locally and embeds them; raw sizes
    stay SQL-derived."""
    import zlib

    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )

    def ratios(t: pa.Table) -> pa.Table:
        ids, raw, comp, rat = [], [], [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            b = (txt or "").encode("utf-8")
            c = len(zlib.compress(b, ZLIB_LEVEL))
            ids.append(did)
            raw.append(len(b))
            comp.append(c)
            rat.append(c / len(b) if b else 0.0)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "raw_bytes": pa.array(raw, pa.int64()),
                "comp_bytes": pa.array(comp, pa.int64()),
                "ratio": pa.array(
                    round_half_away(np.array(rat, np.float64), 6),
                    pa.float64(),
                ),
            }
        )

    return docs.map_batches(ratios, batch_format="pyarrow")


# ------------------------------------------------- dedup savings
def doc_dedup_savings(sf_dir: str) -> pa.Table:
    """DEDUP SAVINGS estimate — the capacity number a curation run is
    justified by: if near-dup clusters (the oracled MinHash closure)
    keep only their min-id survivor, how many documents and bytes
    disappear?  Composes the cluster labels with a per-doc byte census:
    one cogroup on doc_id attaches sizes, one cluster-key groupby keeps
    the survivor byte count (Min over (cluster, doc) — survivor = min
    id, deterministic), fixed-width partial sums finish. Exact ints +
    two 6-dp fractions."""
    labels = doc_minhash_dedup(sf_dir)
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text"]
    )
    schema = pa.schema(
        [
            ("n_docs", pa.int64()),
            ("n_survivors", pa.int64()),
            ("total_bytes", pa.int64()),
            ("survivor_bytes", pa.int64()),
            ("doc_savings_frac", pa.float64()),
            ("byte_savings_frac", pa.float64()),
        ]
    )

    def sizes(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "nb": pa.array(
                    [
                        len((x or "").encode("utf-8"))
                        for x in t["text"].to_pylist()
                    ],
                    pa.int64(),
                ),
                "cluster_id": pa.array([-1] * t.num_rows, pa.int64()),
            }
        )

    def labeled(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "nb": pa.array([-1] * t.num_rows, pa.int64()),
                "cluster_id": t["cluster_id"].cast(pa.int64()),
            }
        )

    joined = (
        docs.map_batches(sizes, batch_format="pyarrow")
        .union(labels.map_batches(labeled, batch_format="pyarrow"))
        .groupby("doc_id")
        .aggregate(
            Max("nb", alias_name="nb"),
            Max("cluster_id", alias_name="cluster_id"),
        )
    )

    def per_cluster(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "cluster_id": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "surv_doc": pa.array([], pa.int64()),
                }
            )
        df = (
            pd.DataFrame(
                {
                    "cluster_id": t["cluster_id"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    "doc_id": t["doc_id"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    "nb": t["nb"].to_numpy(zero_copy_only=False).astype(np.int64),
                }
            )
            .groupby("cluster_id", sort=False)
            .agg(n=("nb", "size"), b=("nb", "sum"), surv_doc=("doc_id", "min"))
            .reset_index()
        )
        return pa.table(
            {
                "cluster_id": pa.array(
                    df["cluster_id"].to_numpy(np.int64), pa.int64()
                ),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
                "b": pa.array(df["b"].to_numpy(np.int64), pa.int64()),
                "surv_doc": pa.array(
                    df["surv_doc"].to_numpy(np.int64), pa.int64()
                ),
            }
        )

    # cluster-key reduce: doc/byte totals + the deterministic min-id
    # survivor per cluster
    per_cl = (
        joined.map_batches(per_cluster, batch_format="pyarrow")
        .groupby("cluster_id")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("b", alias_name="b"),
            Min("surv_doc", alias_name="surv_doc"),
        )
    )
    # survivor bytes: one more pass over the (doc_id, nb) pairs against
    # the broadcast survivor-id set (cluster-count-sized)
    surv_ids: set = set()
    tot_docs = tot_bytes = n_clusters = 0
    for bt in per_cl.iter_batches(batch_format="pyarrow"):
        surv_ids.update(bt["surv_doc"].to_pylist())
        tot_docs += int(np.sum(bt["n"].to_numpy(zero_copy_only=False)))
        tot_bytes += int(np.sum(bt["b"].to_numpy(zero_copy_only=False)))
        n_clusters += bt.num_rows
    if tot_docs == 0:
        return schema.empty_table()
    sref = ray.put(frozenset(surv_ids))

    def surv_bytes(t: pa.Table) -> pa.Table:
        members = ray.get(sref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = np.array(
            [len((x or "").encode("utf-8")) for x in t["text"].to_pylist()],
            dtype=np.int64,
        )
        keep = np.array([int(i) in members for i in ids], dtype=bool)
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "sb": pa.array([int(nb[keep].sum())], pa.int64()),
            }
        )

    sb_t = pa.concat_tables(
        [pa.table({"k": pa.array([], pa.int64()), "sb": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                docs.map_batches(surv_bytes, batch_format="pyarrow"),
                group_sum_merge(("k",), ("sb",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    surv_b = int(sb_t["sb"][0].as_py()) if sb_t.num_rows else 0
    return pa.table(
        {
            "n_docs": pa.array([tot_docs], pa.int64()),
            "n_survivors": pa.array([n_clusters], pa.int64()),
            "total_bytes": pa.array([tot_bytes], pa.int64()),
            "survivor_bytes": pa.array([surv_b], pa.int64()),
            "doc_savings_frac": pa.array(
                round_half_away(
                    np.array([1.0 - n_clusters / float(tot_docs)]), 6
                ),
                pa.float64(),
            ),
            "byte_savings_frac": pa.array(
                round_half_away(
                    np.array(
                        [1.0 - surv_b / float(tot_bytes) if tot_bytes else 0.0]
                    ),
                    6,
                ),
                pa.float64(),
            ),
        },
        schema=schema,
    )


# ------------------------------------------- selectivity independence
SEL_QTY_MAX = 25.0
SEL_DISC_MIN = 0.02
SEL_FLAG = "R"


def lineitem_selectivity_audit(sf_dir: str) -> pa.Table:
    """PREDICATE-SELECTIVITY INDEPENDENCE audit — the cardinality-
    estimation error a cost-based optimizer makes when it multiplies
    single-predicate selectivities: for the three predicates
    (l_quantity < 25, l_discount > 0.02, l_returnflag = 'R'), the
    observed selectivity of each single and each pairwise AND next to
    the independence prediction s_i·s_j, and the ratio observed /
    predicted (> 1 ⇒ correlated, the classic misestimate source). ONE
    pass emits the 7 exact-int counts (3 singles, 3 pairs, total) as a
    fixed-width partial; ratios are single divisions of exact ints."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_quantity", "l_discount", "l_returnflag"],
    )
    schema = pa.schema(
        [
            ("pair", pa.string()),
            ("n_i", pa.int64()),
            ("n_j", pa.int64()),
            ("n_ij", pa.int64()),
            ("sel_observed", pa.float64()),
            ("sel_predicted", pa.float64()),
            ("correlation_ratio", pa.float64()),
        ]
    )

    def counts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    **{
                        c: pa.array([], pa.int64())
                        for c in ("n", "a", "b", "c", "ab", "ac", "bc")
                    },
                }
            )
        qa = (
            t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.float64)
            < SEL_QTY_MAX
        )
        db = (
            t["l_discount"].to_numpy(zero_copy_only=False).astype(np.float64)
            > SEL_DISC_MIN
        )
        fc = np.asarray(t["l_returnflag"].to_pylist()) == SEL_FLAG
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "n": pa.array([t.num_rows], pa.int64()),
                "a": pa.array([int(qa.sum())], pa.int64()),
                "b": pa.array([int(db.sum())], pa.int64()),
                "c": pa.array([int(fc.sum())], pa.int64()),
                "ab": pa.array([int((qa & db).sum())], pa.int64()),
                "ac": pa.array([int((qa & fc).sum())], pa.int64()),
                "bc": pa.array([int((db & fc).sum())], pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    **{
                        c: pa.array([], pa.int64())
                        for c in ("n", "a", "b", "c", "ab", "ac", "bc")
                    },
                }
            )
        ]
        + list(
            tree_combine(
                li.map_batches(counts, batch_format="pyarrow"),
                group_sum_merge(("k",), ("n", "a", "b", "c", "ab", "ac", "bc")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if cen.num_rows == 0:
        return schema.empty_table()
    N = int(cen["n"][0].as_py())
    a, b, c = (int(cen[x][0].as_py()) for x in ("a", "b", "c"))
    pairs = [
        ("qty_and_disc", a, b, int(cen["ab"][0].as_py())),
        ("qty_and_flag", a, c, int(cen["ac"][0].as_py())),
        ("disc_and_flag", b, c, int(cen["bc"][0].as_py())),
    ]
    rows = []
    for name, ni, nj, nij in pairs:
        so = nij / float(N)
        sp = (ni / float(N)) * (nj / float(N))
        ratio = so / sp if sp > 0 else 0.0
        rows.append(
            (
                name,
                ni,
                nj,
                nij,
                float(round_half_away(np.array([so]), 6)[0]),
                float(round_half_away(np.array([sp]), 6)[0]),
                float(round_half_away(np.array([ratio]), 6)[0]),
            )
        )
    return pa.table(
        {
            "pair": pa.array([r[0] for r in rows], pa.string()),
            "n_i": pa.array([r[1] for r in rows], pa.int64()),
            "n_j": pa.array([r[2] for r in rows], pa.int64()),
            "n_ij": pa.array([r[3] for r in rows], pa.int64()),
            "sel_observed": pa.array([r[4] for r in rows], pa.float64()),
            "sel_predicted": pa.array([r[5] for r in rows], pa.float64()),
            "correlation_ratio": pa.array(
                [r[6] for r in rows], pa.float64()
            ),
        },
        schema=schema,
    )


# ---------------------------------------------- linenumber gap audit
def lineitem_linenumber_gap_audit(sf_dir: str) -> pa.Table:
    """LINE-NUMBER CONTIGUITY audit — the referential-integrity profiler
    next to fk_orphan_audit and the FD audit: per order, l_linenumber
    should be exactly 1..n with no duplicates or gaps; report how many
    orders violate which way. Two-level shape: a (orderkey, linenumber)
    census collapses duplicates while keeping their count, the per-order
    reduce derives (n rows, n distinct, min, max), and fixed-width
    partial sums finish — exact ints end-to-end."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_orderkey", "l_linenumber"]
    )
    schema = pa.schema(
        [
            ("n_orders", pa.int64()),
            ("n_dup_lines", pa.int64()),
            ("n_gapped", pa.int64()),
            ("n_contiguous", pa.int64()),
        ]
    )

    def pair_census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "ok": pa.array([], pa.int64()),
                    "ln": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        df = (
            pd.DataFrame(
                {
                    "ok": t["l_orderkey"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    "ln": t["l_linenumber"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                }
            )
            .groupby(["ok", "ln"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return pa.table(
            {
                "ok": pa.array(df["ok"].to_numpy(np.int64), pa.int64()),
                "ln": pa.array(df["ln"].to_numpy(np.int64), pa.int64()),
                "cnt": pa.array(df["cnt"].to_numpy(np.int64), pa.int64()),
            }
        )

    per_pair = (
        li.map_batches(pair_census, batch_format="pyarrow")
        .groupby(["ok", "ln"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )
    # a map_batches reduce here could split one order across batch
    # boundaries — the per-order stats need a true key groupby
    per_order_ds = per_pair.groupby("ok").aggregate(
        Count(alias_name="nd"),
        Sum("cnt", alias_name="n"),
        Min("ln", alias_name="mn"),
        Max("ln", alias_name="mx"),
    )

    def order_flags(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "no": pa.array([], pa.int64()),
                    "dup": pa.array([], pa.int64()),
                    "gap": pa.array([], pa.int64()),
                    "okc": pa.array([], pa.int64()),
                }
            )
        nd = t["nd"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        mn = t["mn"].to_numpy(zero_copy_only=False).astype(np.int64)
        mx = t["mx"].to_numpy(zero_copy_only=False).astype(np.int64)
        dup = nd < n
        gap = (mn != 1) | (mx != nd)
        good = (~dup) & (~gap)
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "no": pa.array([t.num_rows], pa.int64()),
                "dup": pa.array([int(dup.sum())], pa.int64()),
                "gap": pa.array([int(gap.sum())], pa.int64()),
                "okc": pa.array([int(good.sum())], pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "no": pa.array([], pa.int64()),
                    "dup": pa.array([], pa.int64()),
                    "gap": pa.array([], pa.int64()),
                    "okc": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                per_order_ds.map_batches(order_flags, batch_format="pyarrow"),
                group_sum_merge(("k",), ("no", "dup", "gap", "okc")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if cen.num_rows == 0:
        return schema.empty_table()
    return pa.table(
        {
            "n_orders": pa.array([int(cen["no"][0].as_py())], pa.int64()),
            "n_dup_lines": pa.array([int(cen["dup"][0].as_py())], pa.int64()),
            "n_gapped": pa.array([int(cen["gap"][0].as_py())], pa.int64()),
            "n_contiguous": pa.array([int(cen["okc"][0].as_py())], pa.int64()),
        },
        schema=schema,
    )


# ---------------------------------------------- first-touch attribution
def events_purchase_first_click(sf_dir: str) -> Dataset:
    """FIRST-TOUCH attribution — completing the attribution family
    (last-click AS-OF, linear multi-touch): each purchase matched to the
    user's FIRST-EVER strictly-earlier click. Same scale shape as the
    as-of join (map-side type filter, one user-key groupby) but the
    within-group match is just the min click timestamp — one vectorized
    comparison, no merge sweep."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["event_id", "user_id", "event_type", "ts"],
    ).map_batches(
        lambda t: t.filter(
            pc.is_in(t["event_type"], pa.array(["purchase", "click"]))
        ),
        batch_format="pyarrow",
    )
    _EMPTY = {
        "event_id": pd.Series([], dtype="int64"),
        "user_id": pd.Series([], dtype="int64"),
        "ts": pd.Series([], dtype="datetime64[us]"),
        "first_click_ts": pd.Series([], dtype="datetime64[us]"),
    }

    def first_touch(g: pd.DataFrame) -> pd.DataFrame:
        clicks = g[g["event_type"] == "click"]
        buys = g[g["event_type"] == "purchase"]
        if clicks.empty or buys.empty:
            return pd.DataFrame(_EMPTY)
        fc = clicks["ts"].min()
        buys = buys[buys["ts"] > fc]
        if buys.empty:
            return pd.DataFrame(_EMPTY)
        return pd.DataFrame(
            {
                "event_id": buys["event_id"].to_numpy(),
                "user_id": buys["user_id"].to_numpy(),
                "ts": buys["ts"].to_numpy(),
                "first_click_ts": np.full(len(buys), fc),
            }
        )

    return ev.groupby("user_id").map_groups(first_touch, batch_format="pandas")


# -------------------------------------------------- ANOVA terms
def events_value_anova_terms(sf_dir: str) -> pa.Table:
    """ONE-WAY ANOVA terms for value-by-type — the k-group mean
    comparison missing from the two-sample family (z/U/KS): per group
    the exact integer moments (n, Σcents, Σcents²) plus the
    between-term s²/n and within-term ss − s²/n (ONE division each,
    4 dp — at these magnitudes 6 dp sits on the float64 ulp boundary). Per the per-cell convention the consumer assembles
    F = (Σbetween − S²/N)/(k−1) ÷ Σwithin/(N−k) — no order-dependent
    float sum crosses the oracle. One fixed-width census pass."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_type", "value"]
    )
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n", pa.int64()),
            ("sum_cents", pa.int64()),
            ("sumsq_cents", pa.int64()),
            ("between_term", pa.float64()),
            ("within_term", pa.float64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "et": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                    "ss": pa.array([], pa.int64()),
                }
            )
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        df = (
            pd.DataFrame(
                {"et": t["event_type"].to_pylist(), "s": cents,
                 "ss": cents * cents, "n": 1}
            )
            .groupby("et", sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "et": pa.array(df["et"].tolist(), pa.string()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
                "s": pa.array(df["s"].to_numpy(np.int64), pa.int64()),
                "ss": pa.array(df["ss"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "et": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                    "ss": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                ev.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("et",), ("n", "s", "ss")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("et")
    n = cen["n"].to_numpy(np.int64)
    s = cen["s"].to_numpy(np.int64)
    ss = cen["ss"].to_numpy(np.int64)
    between = (s.astype(np.float64) * s) / n
    within = ss - between
    return pa.table(
        {
            "event_type": pa.array(cen["et"].tolist(), pa.string()),
            "n": pa.array(n, pa.int64()),
            "sum_cents": pa.array(s, pa.int64()),
            "sumsq_cents": pa.array(ss, pa.int64()),
            # 4 dp, not 6: these magnitudes (~5e9) scale to ~5e15 at
            # 6 dp — at the float64 ulp boundary where half-away vs the
            # SQL round can differ; 4 dp keeps a wide margin
            "between_term": pa.array(
                round_half_away(between, 4), pa.float64()
            ),
            "within_term": pa.array(round_half_away(within, 4), pa.float64()),
        },
        schema=schema,
    )


# --------------------------------------------- source vocab exclusivity
def corpus_source_vocab_overlap(sf_dir: str) -> pa.Table:
    """SOURCE VOCABULARY EXCLUSIVITY — the corpus-mix diagnostic: per
    source, how much of its vocabulary appears NOWHERE else?  High
    exclusivity flags a domain island (dedup/contamination checks won't
    transfer). Two-level shape: a distinct (token, source) census, a
    per-token source-count reduce, then per-source exclusive counts —
    vocabulary-sized shuffles only, exact ints + one 6-dp fraction."""
    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["source", "text"]
    )
    schema = pa.schema(
        [
            ("source", pa.string()),
            ("n_types", pa.int64()),
            ("n_exclusive", pa.int64()),
            ("exclusive_frac", pa.float64()),
        ]
    )

    def pair_rows(t: pa.Table) -> pa.Table:
        out_s, out_tok = [], []
        for src, txt in zip(t["source"].to_pylist(), t["text"].to_pylist()):
            for tok in set(_TOKEN_RE.findall(txt or "")):
                out_s.append(src)
                out_tok.append(tok)
        df = pd.DataFrame({"source": out_s, "token": out_tok}).drop_duplicates()
        return pa.table(
            {
                "source": pa.array(df["source"].tolist(), pa.string()),
                "token": pa.array(df["token"].tolist(), pa.string()),
            }
        )

    per_pair = (
        docs.map_batches(pair_rows, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Count(alias_name="c"))
    )
    per_token = per_pair.groupby("token").aggregate(
        Count(alias_name="n_sources")
    )
    # broadcast the (small) shared-token set? The EXCLUSIVE tail is the
    # large side — broadcast the shared head instead and count misses
    shared: set = set()
    for b in per_token.iter_batches(batch_format="pyarrow"):
        ns = b["n_sources"].to_numpy(zero_copy_only=False)
        toks = b["token"].to_pylist()
        shared.update(t for t, k in zip(toks, ns) if int(k) > 1)
    sref = ray.put(frozenset(shared))

    def src_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "nt": pa.array([], pa.int64()),
                    "nx": pa.array([], pa.int64()),
                }
            )
        sh = ray.get(sref)
        df = pd.DataFrame(
            {
                "source": t["source"].to_pylist(),
                "x": [tok not in sh for tok in t["token"].to_pylist()],
            }
        )
        g = (
            df.assign(one=1)
            .groupby("source", sort=False)
            .agg(nt=("one", "sum"), nx=("x", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "source": pa.array(g["source"].tolist(), pa.string()),
                "nt": pa.array(g["nt"].to_numpy(np.int64), pa.int64()),
                "nx": pa.array(g["nx"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "nt": pa.array([], pa.int64()),
                    "nx": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                per_pair.map_batches(src_partial, batch_format="pyarrow"),
                group_sum_merge(("source",), ("nt", "nx")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("source")
    nt = cen["nt"].to_numpy(np.int64)
    nx = cen["nx"].to_numpy(np.int64)
    return pa.table(
        {
            "source": pa.array(cen["source"].tolist(), pa.string()),
            "n_types": pa.array(nt, pa.int64()),
            "n_exclusive": pa.array(nx, pa.int64()),
            "exclusive_frac": pa.array(
                round_half_away(nx / nt.astype(np.float64), 6), pa.float64()
            ),
        },
        schema=schema,
    )


# ------------------------------------------- order-total reconciliation
def orders_total_reconciliation(sf_dir: str) -> pa.Table:
    """CROSS-TABLE RECONCILIATION audit — the double-entry check between
    the order header and its lines: does o_totalprice equal
    Σ extprice·(1−disc)·(1+tax)?  All arithmetic EXACT-INT at 10⁻⁴-cent
    scale (cents × integer percent factors — no float products, so the
    comparison is bit-free), reported as checked/matching/headerless
    counts + the max absolute discrepancy in whole cents. On this
    synthetic corpus header and lines are generated independently, so
    the audit honestly reports ~zero matches and a large max gap — the
    operator's value is the shape, not a green light. One line-side
    groupby + one header cogroup; fixed-width partial sums + max."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_tax"],
    )
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"]
    )
    schema = pa.schema(
        [
            ("n_orders_checked", pa.int64()),
            ("n_orders_no_lines", pa.int64()),
            ("n_exact_match", pa.int64()),
            ("max_abs_diff_cents", pa.int64()),
        ]
    )

    def line_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"ok": pa.array([], pa.int64()), "sc": pa.array([], pa.int64())}
            )
        ext = round_half_away(
            t["l_extendedprice"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        disc = round_half_away(
            t["l_discount"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        tax = round_half_away(
            t["l_tax"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        sc = ext * (100 - disc) * (100 + tax)
        df = (
            pd.DataFrame(
                {
                    "ok": t["l_orderkey"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    "sc": sc,
                }
            )
            .groupby("ok", sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "ok": pa.array(df["ok"].to_numpy(np.int64), pa.int64()),
                "sc": pa.array(df["sc"].to_numpy(np.int64), pa.int64()),
            }
        )

    SENT = -(2**62)

    def header_rows(t: pa.Table) -> pa.Table:
        tgt = (
            round_half_away(
                t["o_totalprice"]
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
                * 100.0,
                0,
            ).astype(np.int64)
            * 10_000
        )
        return pa.table(
            {
                "ok": t["o_orderkey"].cast(pa.int64()),
                "sc": pa.array(np.full(t.num_rows, SENT, np.int64)),
                "tgt": pa.array(tgt, pa.int64()),
            }
        )

    def line_tagged(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "ok": t["ok"],
                "sc": t["sc"],
                "tgt": pa.array(np.full(t.num_rows, SENT, np.int64)),
            }
        )

    lines = (
        li.map_batches(line_partial, batch_format="pyarrow")
        .groupby("ok")
        .aggregate(Sum("sc", alias_name="sc"))
    )
    joined = (
        lines.map_batches(line_tagged, batch_format="pyarrow")
        .union(orders.map_batches(header_rows, batch_format="pyarrow"))
        .groupby("ok")
        .aggregate(Max("sc", alias_name="sc"), Max("tgt", alias_name="tgt"))
    )

    def compare(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "nc": pa.array([], pa.int64()),
                    "nl": pa.array([], pa.int64()),
                    "nm": pa.array([], pa.int64()),
                    "mx": pa.array([], pa.int64()),
                }
            )
        sc = t["sc"].to_numpy(zero_copy_only=False).astype(np.int64)
        tgt = t["tgt"].to_numpy(zero_copy_only=False).astype(np.int64)
        has_header = tgt != SENT
        has_lines = sc != SENT
        checked = has_header & has_lines
        no_lines = has_header & ~has_lines
        diffs = np.abs(sc[checked] - tgt[checked])
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "nc": pa.array([int(checked.sum())], pa.int64()),
                "nl": pa.array([int(no_lines.sum())], pa.int64()),
                "nm": pa.array([int((diffs == 0).sum())], pa.int64()),
                "mx": pa.array(
                    [int(diffs.max()) if len(diffs) else 0], pa.int64()
                ),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "nc": pa.array([], pa.int64()),
                    "nl": pa.array([], pa.int64()),
                    "nm": pa.array([], pa.int64()),
                    "mx": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                joined.map_batches(compare, batch_format="pyarrow"),
                group_agg_merge(("k",), sums=("nc", "nl", "nm"), maxs=("mx",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if cen.num_rows == 0:
        return schema.empty_table()
    return pa.table(
        {
            "n_orders_checked": pa.array(
                [int(cen["nc"][0].as_py())], pa.int64()
            ),
            "n_orders_no_lines": pa.array(
                [int(cen["nl"][0].as_py())], pa.int64()
            ),
            "n_exact_match": pa.array([int(cen["nm"][0].as_py())], pa.int64()),
            "max_abs_diff_cents": pa.array(
                [int(cen["mx"][0].as_py()) // 10_000], pa.int64()
            ),
        },
        schema=schema,
    )


# ------------------------------------------- time-decay attribution
ATTR_DECAY_HALFLIFE_S = 86_400  # 1 day
ATTR_DECAY_WINDOW_US = 7 * 86_400_000_000


def events_attribution_time_decay(sf_dir: str) -> Dataset:
    """TIME-DECAY attribution terms — the fourth member of the
    attribution family (first-touch, last-click AS-OF, integer linear):
    each (purchase, prior click ≤ 7 days) pair gets the raw weight
    2^(−Δs/halflife), halflife = 1 day. Per the per-cell convention the
    operator emits the exact integer Δ seconds and the 6-dp raw weight;
    the consumer normalizes per purchase (the normalizing sum is a
    float fold the oracle boundary should not cross). Same user-key
    groupby + searchsorted window shape as the linear variant."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["user_id", "event_type", "ts", "event_id"],
    ).map_batches(
        lambda t: t.filter(
            pc.is_in(t["event_type"], pa.array(["click", "purchase"]))
        ),
        batch_format="pyarrow",
    )
    _EMPTY = {
        "purchase_id": pd.Series([], dtype="int64"),
        "click_id": pd.Series([], dtype="int64"),
        "delta_s": pd.Series([], dtype="int64"),
        "w_raw": pd.Series([], dtype="float64"),
    }

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        clicks = g[g["event_type"] == "click"].sort_values("ts")
        buys = g[g["event_type"] == "purchase"]
        if clicks.empty or buys.empty:
            return pd.DataFrame(_EMPTY)
        cts = clicks["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        cids = clicks["event_id"].to_numpy(np.int64)
        out_p, out_c, out_d = [], [], []
        for pid, pts in zip(
            buys["event_id"].to_numpy(np.int64),
            buys["ts"].to_numpy().astype("datetime64[us]").astype(np.int64),
        ):
            lo = np.searchsorted(cts, pts - ATTR_DECAY_WINDOW_US, side="left")
            hi = np.searchsorted(cts, pts, side="left")
            if hi > lo:
                out_p.extend([pid] * (hi - lo))
                out_c.extend(cids[lo:hi])
                out_d.extend(((pts - cts[lo:hi]) // 1_000_000).tolist())
        if not out_p:
            return pd.DataFrame(_EMPTY)
        d = np.asarray(out_d, dtype=np.int64)
        w = np.power(2.0, -(d / float(ATTR_DECAY_HALFLIFE_S)))
        return pd.DataFrame(
            {
                "purchase_id": np.asarray(out_p, np.int64),
                "click_id": np.asarray(out_c, np.int64),
                "delta_s": d,
                "w_raw": round_half_away(w, 6),
            }
        )

    return ev.groupby("user_id").map_groups(pairs, batch_format="pandas")


# -------------------------------------------------- price elasticity
def lineitem_price_qty_elasticity(sf_dir: str) -> pa.Table:
    """LOG-LOG ELASTICITY estimate — the econometrics member of the
    regression family (OLS trend, binscatter, Spearman): slope of
    ln(quantity) on ln(unit price) across line items (unit price =
    extendedprice/quantity in exact cents). The float Σ formulas never
    run distributed: a (unit_cents, qty) CENSUS (domain-bounded — qty
    1..50 × the price domain) collapses the corpus first, and the
    closed-form OLS sums sweep the census ONCE on the driver in
    deterministic order (the Zipf/Heaps convention); 4-dp rounding."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_extendedprice", "l_quantity"]
    )
    schema = pa.schema(
        [
            ("n_cells", pa.int64()),
            ("n_rows", pa.int64()),
            ("elasticity", pa.float64()),
            ("r2", pa.float64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "up": pa.array([], pa.int64()),
                    "q": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ext = round_half_away(
            t["l_extendedprice"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        q = (
            t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        ok = q > 0
        up = ext[ok] // q[ok]  # exact integer unit cents (floor)
        df = (
            pd.DataFrame({"up": up, "q": q[ok]})
            .groupby(["up", "q"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "up": pa.array(df["up"].to_numpy(np.int64), pa.int64()),
                "q": pa.array(df["q"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "up": pa.array([], pa.int64()),
                    "q": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                li.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("up", "q"), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty or len(cen) < 2:
        return schema.empty_table()
    cen = cen.sort_values(["up", "q"])
    n = cen["n"].to_numpy(np.int64).astype(np.float64)
    x = np.log(cen["up"].to_numpy(np.int64).astype(np.float64))
    y = np.log(cen["q"].to_numpy(np.int64).astype(np.float64))
    N = float(n.sum())
    sx = float((n * x).sum())
    sy = float((n * y).sum())
    sxx = float((n * x * x).sum())
    syy = float((n * y * y).sum())
    sxy = float((n * x * y).sum())
    den = N * sxx - sx * sx
    if den == 0:
        return schema.empty_table()
    slope = (N * sxy - sx * sy) / den
    deny = N * syy - sy * sy
    r2 = ((N * sxy - sx * sy) ** 2) / (den * deny) if deny else 1.0
    return pa.table(
        {
            "n_cells": pa.array([len(cen)], pa.int64()),
            "n_rows": pa.array([int(N)], pa.int64()),
            "elasticity": pa.array(
                round_half_away(np.array([slope]), 4), pa.float64()
            ),
            "r2": pa.array(round_half_away(np.array([r2]), 4), pa.float64()),
        },
        schema=schema,
    )


# -------------------------------------------------- langid confusion
def doc_langid_confusion(sf_dir: str) -> pa.Table:
    """LANGUAGE-ID CONFUSION MATRIX — the per-cell eval companion to the
    Cohen's-kappa summary: (true lang, predicted lang, count) over the
    labeled corpus, the table an error analysis actually reads. One
    langid map pass (the oracled detector) + a #langs²-bounded census."""
    from ..functions.langid import langid_batch

    docs = read_parquet_clean(
        _p(sf_dir, "documents"), columns=["doc_id", "text", "lang"]
    )
    schema = pa.schema(
        [
            ("lang", pa.string()),
            ("lang_pred", pa.string()),
            ("n", pa.int64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        pred = langid_batch(t.select(["doc_id", "text"]))
        df = (
            pd.DataFrame(
                {
                    "lang": t["lang"].to_pylist(),
                    "lang_pred": pred["lang_pred"].to_pylist(),
                }
            )
            .groupby(["lang", "lang_pred"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "lang": pa.array(df["lang"].tolist(), pa.string()),
                "lang_pred": pa.array(df["lang_pred"].tolist(), pa.string()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "lang_pred": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                docs.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("lang", "lang_pred"), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values(["lang", "lang_pred"])
    return pa.table(
        {
            "lang": pa.array(cen["lang"].tolist(), pa.string()),
            "lang_pred": pa.array(cen["lang_pred"].tolist(), pa.string()),
            "n": pa.array(cen["n"].to_numpy(np.int64), pa.int64()),
        },
        schema=schema,
    )


# -------------------------------------------------- MDE power sizing
MDE_Z_ALPHA = 1.96   # two-sided alpha = .05
MDE_Z_BETA = 0.8416  # power = .80


def events_ab_power_mde(sf_dir: str) -> pa.Table:
    """MINIMUM DETECTABLE EFFECT at the current sample — the experiment
    SIZING number that closes the A/B family (SRM guardrail, z-test,
    CUPED): with the observed arm sizes and pooled conversion rate,
    MDE = (z_α/2 + z_β)·√(p̄(1−p̄)·(1/n_A + 1/n_B)) at α=.05, power .80.
    Composes the oracled z-test census; fixed-order float formula from
    exact ints, constants bound once (the DECIMAL-literal convention in
    the SQL mirror)."""
    zt = events_ab_conversion_ztest(sf_dir)
    zt = zt if isinstance(zt, pd.DataFrame) else zt.to_pandas()
    schema = pa.schema(
        [
            ("n_users_a", pa.int64()),
            ("n_users_b", pa.int64()),
            ("pooled_rate", pa.float64()),
            ("mde_abs", pa.float64()),
            ("mde_rel", pa.float64()),
        ]
    )
    if zt.empty:
        return schema.empty_table()
    r = zt.iloc[0]
    n1, n2 = int(r["n_users_a"]), int(r["n_users_b"])
    c1, c2 = int(r["n_conv_a"]), int(r["n_conv_b"])
    if n1 == 0 or n2 == 0:
        return schema.empty_table()
    pb = (c1 + c2) / float(n1 + n2)
    mde = (MDE_Z_ALPHA + MDE_Z_BETA) * np.sqrt(
        pb * (1.0 - pb) * (1.0 / n1 + 1.0 / n2)
    )
    rel = mde / pb if pb > 0 else 0.0
    return pa.table(
        {
            "n_users_a": pa.array([n1], pa.int64()),
            "n_users_b": pa.array([n2], pa.int64()),
            "pooled_rate": pa.array(
                round_half_away(np.array([pb]), 6), pa.float64()
            ),
            "mde_abs": pa.array(
                round_half_away(np.array([mde]), 6), pa.float64()
            ),
            "mde_rel": pa.array(
                round_half_away(np.array([rel]), 6), pa.float64()
            ),
        },
        schema=schema,
    )


# ---------------------------------------------------- aging report
AGING_BUCKET_DAYS = (30, 90, 365)


def orders_aging_report(sf_dir: str) -> pa.Table:
    """AGING REPORT — the receivables/pipeline classic: per order
    status, how many orders fall in each age band (days from
    o_orderdate to the corpus max date; bands ≤30 / 31-90 / 91-365 /
    >365). Anchoring at the data max keeps the audit deterministic at
    any scale (no wall clock). One (status, band) census after a
    max-date reduce — exact integer day arithmetic throughout."""
    orders = read_parquet_clean(
        _p(sf_dir, "orders"), columns=["o_orderstatus", "o_orderdate"]
    )
    schema = pa.schema(
        [
            ("o_orderstatus", pa.string()),
            ("age_band", pa.string()),
            ("n_orders", pa.int64()),
        ]
    )

    def dmax(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())}
            )
        us = (
            t["o_orderdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "m": pa.array([int(us.max() // _DAY_US)], pa.int64()),
            }
        )

    mx = pa.concat_tables(
        [pa.table({"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                orders.map_batches(dmax, batch_format="pyarrow"),
                group_agg_merge(("k",), maxs=("m",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if mx.num_rows == 0:
        return schema.empty_table()
    anchor = int(mx["m"][0].as_py())
    b1, b2, b3 = AGING_BUCKET_DAYS

    def census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "st": pa.array([], pa.string()),
                    "band": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        days = anchor - (
            t["o_orderdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            // _DAY_US
        )
        band = np.where(
            days <= b1,
            "0-30",
            np.where(days <= b2, "31-90", np.where(days <= b3, "91-365", ">365")),
        )
        df = (
            pd.DataFrame({"st": t["o_orderstatus"].to_pylist(), "band": band})
            .groupby(["st", "band"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "st": pa.array(df["st"].tolist(), pa.string()),
                "band": pa.array(df["band"].tolist(), pa.string()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "st": pa.array([], pa.string()),
                    "band": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                orders.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("st", "band"), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values(["st", "band"])
    return pa.table(
        {
            "o_orderstatus": pa.array(cen["st"].tolist(), pa.string()),
            "age_band": pa.array(cen["band"].tolist(), pa.string()),
            "n_orders": pa.array(cen["n"].to_numpy(np.int64), pa.int64()),
        },
        schema=schema,
    )


# ---------------------------------------------- JSON key census
_PROPS_KEY_RE = re.compile(r'"([A-Za-z0-9_]+)"\s*:')


def events_props_key_census(sf_dir: str) -> pa.Table:
    """SEMI-STRUCTURED KEY CENSUS — the JSON-profiling companion to the
    props_k extractor: which keys appear in the ``props`` column, in how
    many rows, and with what presence rate?  ONE vectorized RE2 sweep
    per batch (the props_k convention — no per-row json.loads), a
    key-cardinality census, exact ints + one 6-dp rate."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["props"])
    schema = pa.schema(
        [
            ("key", pa.string()),
            ("n_rows", pa.int64()),
            ("presence_rate", pa.float64()),
        ]
    )
    total = ev.count()
    if total == 0:
        return schema.empty_table()

    def census(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for p_ in t["props"].to_pylist():
            if p_:
                c.update(set(_PROPS_KEY_RE.findall(p_)))
        return pa.table(
            {
                "key": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [pa.table({"key": pa.array([], pa.string()), "n": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                ev.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("key",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("key")
    n = cen["n"].to_numpy(np.int64)
    return pa.table(
        {
            "key": pa.array(cen["key"].tolist(), pa.string()),
            "n_rows": pa.array(n, pa.int64()),
            "presence_rate": pa.array(
                round_half_away(n / float(total), 6), pa.float64()
            ),
        },
        schema=schema,
    )


# ------------------------------------------------- churn sweep
CHURN_THRESHOLDS_DAYS = (7, 14, 30)


def events_churn_threshold_sweep(sf_dir: str) -> pa.Table:
    """CHURN-DEFINITION SWEEP — the retention-policy question answered
    before anyone picks "inactive 30 days": at each candidate threshold
    (7/14/30 days of silence before the corpus max date), how many
    users count as churned?  One per-user last-activity reduce (max ts)
    + a max-date reduce; the sweep is three integer comparisons over
    the user census — exact ints + one 6-dp rate per row."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["user_id", "ts"])
    schema = pa.schema(
        [
            ("threshold_days", pa.int64()),
            ("n_users", pa.int64()),
            ("n_churned", pa.int64()),
            ("churn_rate", pa.float64()),
        ]
    )

    def per_user(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "last": pa.array([], pa.int64()),
                }
            )
        us = _ts_us(t)
        df = (
            pd.DataFrame(
                {
                    "user_id": t["user_id"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    "last": us,
                }
            )
            .groupby("user_id", sort=False)
            .max()
            .reset_index()
        )
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].to_numpy(np.int64), pa.int64()),
                "last": pa.array(df["last"].to_numpy(np.int64), pa.int64()),
            }
        )

    per_u = (
        ev.map_batches(per_user, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Max("last", alias_name="last"))
    )

    def sweep_partial(t: pa.Table) -> pa.Table:
        # churn flags need the global anchor; emit (last-day) census
        # rows instead — day-domain-bounded
        if t.num_rows == 0:
            return pa.table(
                {"d": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        days = (
            t["last"].to_numpy(zero_copy_only=False).astype(np.int64)
            // _DAY_US
        )
        keys, counts = np.unique(days, return_counts=True)
        return pa.table(
            {
                "d": pa.array(keys.astype(np.int64), pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [pa.table({"d": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                per_u.map_batches(sweep_partial, batch_format="pyarrow"),
                group_sum_merge(("d",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    anchor = int(cen["d"].max())
    total = int(cen["n"].sum())
    rows = []
    for thr in CHURN_THRESHOLDS_DAYS:
        churned = int(cen.loc[cen["d"] < anchor - thr, "n"].sum())
        rows.append(
            (
                thr,
                total,
                churned,
                float(round_half_away(np.array([churned / total]), 6)[0]),
            )
        )
    return pa.table(
        {
            "threshold_days": pa.array([r[0] for r in rows], pa.int64()),
            "n_users": pa.array([r[1] for r in rows], pa.int64()),
            "n_churned": pa.array([r[2] for r in rows], pa.int64()),
            "churn_rate": pa.array([r[3] for r in rows], pa.float64()),
        },
        schema=schema,
    )


# ---------------------------------------- pairwise cosine histogram
COSHIST_SAMPLE_MOD = 5
COSHIST_BINS = 20


def embedding_pair_cosine_hist(sf_dir: str) -> pa.Table:
    """EMBEDDING-GEOMETRY diagnostic — the pairwise-cosine histogram
    (anisotropy shows up as mass piled near +1; a healthy space spreads
    wide): all pairs of the deterministic id % 5 sample, cosines
    6-dp-rounded then binned into 20 equal bins over [−1, 1]. The
    all-pairs pass rides the chunk-pair cogroup (mutual-NN shape) on
    the SAMPLE — never the full corpus; the histogram census is
    20 rows."""
    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    schema = pa.schema(
        [
            ("bin", pa.int64()),
            ("bin_lo", pa.float64()),
            ("n_pairs", pa.int64()),
        ]
    )
    B = 4  # sample is small; few chunk pairs suffice

    def replicate(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "pair": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float32())),
                }
            )
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids % COSHIST_SAMPLE_MOD == 0
        ids = ids[keep]
        emb_col = t["embedding"].filter(pa.array(keep, pa.bool_()))
        if len(ids) == 0:
            return pa.table(
                {
                    "pair": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float32())),
                }
            )
        chunk = ids % B
        pair_k, side_k, idx = [], [], []
        for c in range(B):
            rows = np.nonzero(chunk == c)[0]
            if len(rows) == 0:
                continue
            for d_ in range(B):
                lo, hi = min(c, d_), max(c, d_)
                pair_k.append(np.full(len(rows), lo * B + hi, np.int64))
                side_k.append(np.full(len(rows), c, np.int64))
                idx.append(rows)
        idx = np.concatenate(idx)
        return pa.table(
            {
                "pair": pa.array(np.concatenate(pair_k), pa.int64()),
                "side": pa.array(np.concatenate(side_k), pa.int64()),
                "vec_id": pa.array(ids[idx], pa.int64()),
                "embedding": emb_col.take(pa.array(idx, pa.int64())),
            }
        )

    def hist_in_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["vec_id", "side"])
        pk = int(g["pair"].iloc[0])
        lo, hi = pk // B, pk % B
        mat = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in g["embedding"]]
        )
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        side = g["side"].to_numpy(np.int64)
        a = np.nonzero(side == lo)[0]
        b = np.nonzero(side == hi)[0]
        if lo == hi:
            cos = mat[a] @ mat[a].T
            iu, ju = np.triu_indices(len(a), 1)
            vals = cos[iu, ju]
        else:
            vals = (mat[a] @ mat[b].T).ravel()
        if len(vals) == 0:
            return pd.DataFrame({"bin": [], "n": []})
        vals = round_half_away(vals, 6)
        bins = np.minimum(
            np.floor((vals + 1.0) * COSHIST_BINS / 2.0), COSHIST_BINS - 1
        ).astype(np.int64)
        keys, counts = np.unique(bins, return_counts=True)
        return pd.DataFrame(
            {"bin": keys.astype("int64"), "n": counts.astype("int64")}
        )

    cen = pa.concat_tables(
        [pa.table({"bin": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                emb.map_batches(replicate, batch_format="pyarrow")
                .groupby("pair")
                .map_groups(hist_in_group, batch_format="pandas"),
                group_sum_merge(("bin",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("bin")
    b = cen["bin"].to_numpy(np.int64)
    return pa.table(
        {
            "bin": pa.array(b, pa.int64()),
            "bin_lo": pa.array(
                round_half_away(-1.0 + b * (2.0 / COSHIST_BINS), 6),
                pa.float64(),
            ),
            "n_pairs": pa.array(cen["n"].to_numpy(np.int64), pa.int64()),
        },
        schema=schema,
    )


# -------------------------------------------------- hapax rate
def corpus_hapax_rate(sf_dir: str) -> pa.Table:
    """HAPAX LEGOMENA rate — the classic corpus statistic (what share
    of the vocabulary occurs exactly once?) that pairs with the Zipf /
    Heaps diagnostics: a high hapax share means an open, productive
    vocabulary, a near-zero one (this fixture's closed gazetteer) means
    templated text. ONE token census (the Zipf pass), counts from the
    frequency-of-frequencies sweep — exact ints + one 6-dp rate."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])
    schema = pa.schema(
        [
            ("n_types", pa.int64()),
            ("n_tokens", pa.int64()),
            ("n_hapax", pa.int64()),
            ("hapax_rate", pa.float64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for txt in t["text"].to_pylist():
            c.update(_TOKEN_RE.findall(txt or ""))
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [pa.table({"token": pa.array([], pa.string()), "n": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                docs.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("token",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    n = cen["n"].to_numpy(np.int64)
    n_types = len(n)
    n_hapax = int((n == 1).sum())
    return pa.table(
        {
            "n_types": pa.array([n_types], pa.int64()),
            "n_tokens": pa.array([int(n.sum())], pa.int64()),
            "n_hapax": pa.array([n_hapax], pa.int64()),
            "hapax_rate": pa.array(
                round_half_away(np.array([n_hapax / n_types]), 6),
                pa.float64(),
            ),
        },
        schema=schema,
    )


# ---------------------------------------------- price-point census
def events_price_point_census(sf_dir: str) -> pa.Table:
    """PRICE-POINT (ending-digit) census — the psychological-pricing
    audit: shares of .00 / .50 / .99 cent endings across event values
    (a synthetic uniform corpus honestly reads ~1% each; a retail feed
    would spike). One cents % 100 census (≤100 rows) + three share
    divisions."""
    ev = read_parquet_clean(_p(sf_dir, "events"), columns=["value"])
    schema = pa.schema(
        [
            ("ending", pa.string()),
            ("n", pa.int64()),
            ("share", pa.float64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"e": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        cents = round_half_away(
            t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 100.0,
            0,
        ).astype(np.int64)
        keys, counts = np.unique(cents % 100, return_counts=True)
        return pa.table(
            {
                "e": pa.array(keys.astype(np.int64), pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [pa.table({"e": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                ev.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("e",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    total = int(cen["n"].sum())
    lookup = dict(zip(cen["e"].to_numpy(np.int64), cen["n"].to_numpy(np.int64)))
    rows = []
    for name, e in ((".00", 0), (".50", 50), (".99", 99)):
        n = int(lookup.get(e, 0))
        rows.append(
            (name, n, float(round_half_away(np.array([n / total]), 6)[0]))
        )
    return pa.table(
        {
            "ending": pa.array([r[0] for r in rows], pa.string()),
            "n": pa.array([r[1] for r in rows], pa.int64()),
            "share": pa.array([r[2] for r in rows], pa.float64()),
        },
        schema=schema,
    )


# ----------------------------------------- session position share
SESSION_GAP_US = 30 * 60 * 1_000_000


def events_type_session_position(
    sf_dir: str, n_buckets: int = 64
) -> pa.Table:
    """WITHIN-SESSION POSITION profile per event type — "is 'error' an
    end-of-session event?": over sessions with ≥ 2 events (30-min gap
    rule, the sessionization convention), each event contributes its
    zero-based index; the per-type AGGREGATE position share
    Σidx / Σ(len−1) is the exact-int formulation (ratio of sums, ONE
    division — a mean of per-event fractions would be an order-dependent
    float fold). One user-bucket shuffle, vectorized session numbering
    per bucket, type-cardinality census."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"),
        columns=["user_id", "event_type", "ts", "event_id"],
    )
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n_events", pa.int64()),
            ("sum_idx", pa.int64()),
            ("sum_len_minus1", pa.int64()),
            ("position_share", pa.float64()),
        ]
    )

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_bucket",
            pc.bit_wise_and(t["user_id"], pa.scalar(n_buckets - 1)),
        )

    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        uid = g["user_id"].to_numpy(np.int64)
        new = np.ones(len(g), dtype=np.int64)
        if len(g) > 1:
            same = uid[1:] == uid[:-1]
            gap_ok = (us[1:] - us[:-1]) <= SESSION_GAP_US
            new[1:] = (~(same & gap_ok)).astype(np.int64)
        sid = np.cumsum(new)
        # idx within session + session length via two bincounts
        first_of = np.concatenate([[0], np.nonzero(new[1:])[0] + 1])
        starts = np.repeat(first_of, np.diff(np.concatenate([first_of, [len(g)]])))
        idx = np.arange(len(g)) - starts
        lens = np.bincount(sid)[sid]
        keep = lens >= 2
        if not keep.any():
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "n": pd.Series([], dtype="int64"),
                    "si": pd.Series([], dtype="int64"),
                    "sl": pd.Series([], dtype="int64"),
                }
            )
        df = (
            pd.DataFrame(
                {
                    "event_type": g["event_type"].to_numpy()[keep],
                    "idx": idx[keep],
                    "lm1": lens[keep] - 1,
                    "one": 1,
                }
            )
            .groupby("event_type", sort=False)
            .agg(n=("one", "sum"), si=("idx", "sum"), sl=("lm1", "sum"))
            .reset_index()
        )
        return df.astype(
            {"event_type": "object", "n": "int64", "si": "int64", "sl": "int64"}
        )

    cen = (
        ev.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(bucket_stats, batch_format="pandas")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("si", alias_name="si"),
            Sum("sl", alias_name="sl"),
        )
        .to_pandas()
    )
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("event_type")
    si = cen["si"].to_numpy(np.int64)
    sl = cen["sl"].to_numpy(np.int64)
    return pa.table(
        {
            "event_type": pa.array(cen["event_type"].tolist(), pa.string()),
            "n_events": pa.array(cen["n"].to_numpy(np.int64), pa.int64()),
            "sum_idx": pa.array(si, pa.int64()),
            "sum_len_minus1": pa.array(sl, pa.int64()),
            "position_share": pa.array(
                round_half_away(si / sl.astype(np.float64), 6), pa.float64()
            ),
        },
        schema=schema,
    )


# ------------------------------------------------- return-rate trend
def lineitem_return_rate_monthly(sf_dir: str) -> pa.Table:
    """RETURN-RATE trend — the ops metric behind "are returns creeping
    up?": per ship month, line count, returned count (l_returnflag =
    'R') and the rate. One (month, flag) census — exact ints + one 6-dp
    division per row."""
    li = read_parquet_clean(
        _p(sf_dir, "lineitem"), columns=["l_shipdate", "l_returnflag"]
    )
    schema = pa.schema(
        [
            ("month_id", pa.int64()),
            ("n_lines", pa.int64()),
            ("n_returned", pa.int64()),
            ("return_rate", pa.float64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "m": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "r": pa.array([], pa.int64()),
                }
            )
        us = (
            t["l_shipdate"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        months = (
            us.astype("datetime64[us]").astype("datetime64[M]").astype(np.int64)
            + 1970 * 12
        )
        ret = (np.asarray(t["l_returnflag"].to_pylist()) == "R").astype(
            np.int64
        )
        df = (
            pd.DataFrame({"m": months, "n": 1, "r": ret})
            .groupby("m", sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "m": pa.array(df["m"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
                "r": pa.array(df["r"].to_numpy(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "m": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "r": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                li.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("m",), ("n", "r")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("m")
    n = cen["n"].to_numpy(np.int64)
    r = cen["r"].to_numpy(np.int64)
    return pa.table(
        {
            "month_id": pa.array(cen["m"].to_numpy(np.int64), pa.int64()),
            "n_lines": pa.array(n, pa.int64()),
            "n_returned": pa.array(r, pa.int64()),
            "return_rate": pa.array(
                round_half_away(r / n.astype(np.float64), 6), pa.float64()
            ),
        },
        schema=schema,
    )


# ---------------------------------------------------- runs test
def events_runs_test(sf_dir: str, n_buckets: int = 64) -> pa.Table:
    """WALD-WOLFOWITZ RUNS TEST — the randomness check missing from the
    stats family: is the purchase/non-purchase sequence (in event_id
    order) randomly interleaved, or do purchases clump?  Exact integer
    census (n₁, n₂, observed runs via the event_id-range-bucket
    adjacency stitch — the sortedness-audit shape, no global sort);
    μ = 1 + 2n₁n₂/N and σ² = 2n₁n₂(2n₁n₂−N)/(N²(N−1)) expand from
    ints; z = (R−μ)/σ is the only float chain, 4 dp, mirrored
    term-for-term."""
    ev = read_parquet_clean(
        _p(sf_dir, "events"), columns=["event_id", "event_type"]
    )
    schema = pa.schema(
        [
            ("n_purchase", pa.int64()),
            ("n_other", pa.int64()),
            ("n_runs", pa.int64()),
            ("z_stat", pa.float64()),
        ]
    )

    def pmax(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "m": pa.array(
                    [int(pc.max(t["event_id"]).as_py())], pa.int64()
                ),
            }
        )

    mx = pa.concat_tables(
        [pa.table({"k": pa.array([], pa.int64()), "m": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                ev.map_batches(pmax, batch_format="pyarrow"),
                group_agg_merge(("k",), maxs=("m",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if mx.num_rows == 0:
        return schema.empty_table()
    max_id = int(mx["m"][0].as_py())

    def add_bucket(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "bucket", pa.array(eid * n_buckets // (max_id + 1), pa.int64())
        )

    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("event_id")
        b = (g["event_type"].to_numpy() == "purchase").astype(np.int64)
        return pd.DataFrame(
            {
                "bucket": [int(g["bucket"].iloc[0])],
                "n1": [int(b.sum())],
                "n2": [int((1 - b).sum())],
                "trans": [int((np.diff(b) != 0).sum())],
                "first_b": [int(b[0])],
                "last_b": [int(b[-1])],
            }
        )

    st = (
        ev.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_stats, batch_format="pandas")
        .to_pandas()
        .sort_values("bucket")
    )
    if st.empty:
        return schema.empty_table()
    trans = int(st["trans"].sum()) + int(
        (
            st["first_b"].to_numpy(np.int64)[1:]
            != st["last_b"].to_numpy(np.int64)[:-1]
        ).sum()
    )
    n1 = int(st["n1"].sum())
    n2 = int(st["n2"].sum())
    R = 1 + trans
    N = n1 + n2
    if n1 == 0 or n2 == 0 or N < 2:
        z = 0.0
    else:
        mu = 1.0 + 2.0 * n1 * n2 / N
        var = (
            2.0 * n1 * n2 * (2.0 * n1 * n2 - N)
            / (float(N) * N * (N - 1))
        )
        z = (R - mu) / np.sqrt(var) if var > 0 else 0.0
    return pa.table(
        {
            "n_purchase": pa.array([n1], pa.int64()),
            "n_other": pa.array([n2], pa.int64()),
            "n_runs": pa.array([R], pa.int64()),
            "z_stat": pa.array(
                round_half_away(np.array([z]), 4), pa.float64()
            ),
        },
        schema=schema,
    )


# ------------------------------------------- repeated-sentence census
_SENT_SPLIT_RE = re.compile(r"[.!?]+")


def corpus_sentence_dup_census(sf_dir: str) -> pa.Table:
    """REPEATED-SENTENCE census — the C4-style sub-document dedup
    signal (repeated lines/sentences across a corpus are boilerplate):
    sentences split on [.!?]+, whitespace-trimmed, empties dropped;
    report total occurrences, distinct sentences, occurrences beyond
    each sentence's first (what line-dedup would remove), and the dup
    share. One sentence census (the shuffle moves distinct-sentence
    rows); exact ints + one 6-dp division."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])
    schema = pa.schema(
        [
            ("n_occurrences", pa.int64()),
            ("n_distinct", pa.int64()),
            ("n_dup_occurrences", pa.int64()),
            ("dup_share", pa.float64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for txt in t["text"].to_pylist():
            for s in _SENT_SPLIT_RE.split(txt or ""):
                s = s.strip()
                if s:
                    c[s] += 1
        return pa.table(
            {
                "s": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [pa.table({"s": pa.array([], pa.string()), "n": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                docs.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("s",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    n = cen["n"].to_numpy(np.int64)
    total = int(n.sum())
    dup = int((n - 1).sum())
    return pa.table(
        {
            "n_occurrences": pa.array([total], pa.int64()),
            "n_distinct": pa.array([len(n)], pa.int64()),
            "n_dup_occurrences": pa.array([dup], pa.int64()),
            "dup_share": pa.array(
                round_half_away(np.array([dup / total]), 6), pa.float64()
            ),
        },
        schema=schema,
    )


# ------------------------------------------------- bursty terms
BURSTY_MIN_DF = 5


def corpus_bursty_terms_top20(sf_dir: str) -> pa.Table:
    """TERM BURSTINESS (Church-Gale cf/df — "when this word appears, it
    appears a lot"): the within-document clumping signal G2-keyness and
    plain frequency both miss. One pass emits (token, cf, df) partials
    (cf = occurrences, df = containing docs); top 20 by
    (cf/df DESC, token ASC) among tokens with df ≥ 5 — exact ints until
    the one 6-dp ratio; the order key is the exact rational cf/df
    (Fraction sort, no float compare; the oracle mirrors it with an
    exact fixed-point HUGEINT key scaled by max(df)²)."""
    docs = read_parquet_clean(_p(sf_dir, "documents"), columns=["text"])
    schema = pa.schema(
        [
            ("token", pa.string()),
            ("cf", pa.int64()),
            ("df", pa.int64()),
            ("burstiness", pa.float64()),
        ]
    )

    def census(t: pa.Table) -> pa.Table:
        cf: Counter = Counter()
        df: Counter = Counter()
        for txt in t["text"].to_pylist():
            toks = _TOKEN_RE.findall(txt or "")
            cf.update(toks)
            df.update(set(toks))
        keys = list(cf.keys())
        return pa.table(
            {
                "token": pa.array(keys, pa.string()),
                "cf": pa.array([cf[k] for k in keys], pa.int64()),
                "df": pa.array([df[k] for k in keys], pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [
            pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "cf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                }
            )
        ]
        + list(
            tree_combine(
                docs.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("token",), ("cf", "df")),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen[cen["df"] >= BURSTY_MIN_DF]
    if cen.empty:
        return schema.empty_table()
    # exact rational sort: cf/df DESC via cross-product comparison is
    # equivalent to sorting on the float ratio ONLY when no two ratios
    # collide within float precision — sort on (cf * K - ...) hmm; the
    # safe exact order is the fraction as (cf, df) compared by
    # cf_i*df_j vs cf_j*df_i: implement via sorting on the exact
    # Fraction values
    from fractions import Fraction

    cen = cen.assign(
        frac=[Fraction(int(a), int(b)) for a, b in zip(cen["cf"], cen["df"])]
    ).sort_values(["frac", "token"], ascending=[False, True], kind="mergesort")
    top = cen.head(20)
    cf = top["cf"].to_numpy(np.int64)
    dfv = top["df"].to_numpy(np.int64)
    return pa.table(
        {
            "token": pa.array(top["token"].tolist(), pa.string()),
            "cf": pa.array(cf, pa.int64()),
            "df": pa.array(dfv, pa.int64()),
            "burstiness": pa.array(
                round_half_away(cf / dfv.astype(np.float64), 6), pa.float64()
            ),
        },
        schema=schema,
    )


# ------------------------------------------------- norm histogram
NORMHIST_BINS = 20


def embedding_norm_hist(sf_dir: str) -> pa.Table:
    """L2-NORM histogram — the second embedding-geometry diagnostic
    (norm collapse / outlier shells show up immediately): per-vector
    norms 6-dp-rounded, equi-width binned over [min, max] (the
    value_hist shape). One norms pass + a min/max reduce + a 20-row
    census."""
    emb = read_parquet_clean(
        _p(sf_dir, "embeddings"), columns=["embedding"]
    )
    schema = pa.schema(
        [
            ("bin", pa.int64()),
            ("bin_lo", pa.float64()),
            ("n_vecs", pa.int64()),
        ]
    )

    def norms_of(t: pa.Table) -> np.ndarray:
        mat = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()]
        )
        if mat.size == 0:
            return np.array([], dtype=np.float64)
        return round_half_away(np.linalg.norm(mat, axis=1), 6)

    def mm(t: pa.Table) -> pa.Table:
        v = norms_of(t)
        if len(v) == 0:
            return pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.float64()),
                    "mx": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "mn": pa.array([float(v.min())], pa.float64()),
                "mx": pa.array([float(v.max())], pa.float64()),
            }
        )

    mmt = pa.concat_tables(
        [
            pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.float64()),
                    "mx": pa.array([], pa.float64()),
                }
            )
        ]
        + list(
            tree_combine(
                emb.map_batches(mm, batch_format="pyarrow"),
                group_agg_merge(("k",), mins=("mn",), maxs=("mx",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    )
    if mmt.num_rows == 0:
        return schema.empty_table()
    lo = float(mmt["mn"][0].as_py())
    hi = float(mmt["mx"][0].as_py())

    def census(t: pa.Table) -> pa.Table:
        v = norms_of(t)
        if len(v) == 0:
            return pa.table(
                {"b": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        if hi == lo:
            b = np.zeros(len(v), dtype=np.int64)
        else:
            b = np.minimum(
                np.floor((v - lo) * NORMHIST_BINS / (hi - lo)),
                NORMHIST_BINS - 1,
            ).astype(np.int64)
        keys, counts = np.unique(b, return_counts=True)
        return pa.table(
            {
                "b": pa.array(keys.astype(np.int64), pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    cen = pa.concat_tables(
        [pa.table({"b": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})]
        + list(
            tree_combine(
                emb.map_batches(census, batch_format="pyarrow"),
                group_sum_merge(("b",), ("n",)),
            ).iter_batches(batch_size=None, batch_format="pyarrow")
        ),
        promote_options="default",
    ).to_pandas()
    if cen.empty:
        return schema.empty_table()
    cen = cen.sort_values("b")
    b = cen["b"].to_numpy(np.int64)
    return pa.table(
        {
            "bin": pa.array(b, pa.int64()),
            "bin_lo": pa.array(
                round_half_away(lo + b * ((hi - lo) / NORMHIST_BINS), 6),
                pa.float64(),
            ),
            "n_vecs": pa.array(cen["n"].to_numpy(np.int64), pa.int64()),
        },
        schema=schema,
    )
