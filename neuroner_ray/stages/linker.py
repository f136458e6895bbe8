"""J4 — entity linking: MinHash-blocked candidate generation + match scoring.

Target-only operator (BASELINE.json:north_rule: "entity linking via
MinHash-blocked candidate generation and embedding-similarity scoring").
Semantics (frozen here, exercised by the synthetic gazetteer's variant
groups):

1. **Census** (pre-aggregation): linking runs over *distinct* ``(ent_type,
   surface)`` pairs, not raw mentions — per-batch counts
   (``kg_streamed.census_batch``) summed by one groupby first, so the
   expensive pairwise work scales with vocabulary, not corpus (ray_guide:
   pre-aggregate before wide ops).
2. **Blocking**: each distinct surface emits MinHash-LSH band keys over its
   normalized char-3-gram set, plus one first-character-per-word key (recall
   channel for abbreviation pairs whose char-Jaccard is low). Keys are
   prefixed with ``ent_type`` so blocks never mix types.
3. **Candidate pairs**: ``groupby(block).map_groups`` emits verified pairs.
   Hot blocks are capped at ``cap`` members deterministically (sorted, then
   truncated) — the cap is recorded in the group output, never silent
   (SURVEY.md §4.2 skew handling).
4. **Match rule** (exact, cheap — verification, not scoring): same type AND
   (equal normalized forms OR word-prefix containment OR char-3-gram
   Jaccard >= 0.5).

The downstream union-find (A6, ``canonicalize.py``) turns pairs into
clusters.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset
from ray.data.aggregate import Count

from ..functions.minhash import (
    band_keys,
    char_shingles,
    jaccard,
    minhash_signatures_batch,
)

_WORD_RE = re.compile(r"[A-Za-z0-9_]+")

NUM_PERM = 32
BANDS = 8
JACCARD_THRESHOLD = 0.5


def normalize_surface(surface: str) -> str:
    """Lowercased word tokens joined by single spaces (punctuation dropped)."""
    return " ".join(_WORD_RE.findall(surface.lower()))


def _word_prefix_subset(short_words: list[str], long_words: list[str]) -> bool:
    """Every short word is a prefix of a *distinct* long word (order-free)."""
    used = [False] * len(long_words)
    for w in short_words:
        ok = False
        for i, lw in enumerate(long_words):
            if not used[i] and lw.startswith(w):
                used[i] = True
                ok = True
                break
        if not ok:
            return False
    return True


EMBED_DIM = 64
EMBED_COSINE_THRESHOLD = 0.80


def surface_embedding(norm: str) -> "np.ndarray":
    """Deterministic surface embedding: char-3-gram feature hashing into
    EMBED_DIM (the north_star's "embedding-similarity scoring" for linking —
    no trained model exists in this environment, so the embedding is the
    standard hashed-n-gram vector; cosine over it is a smooth relaxation of
    shingle Jaccard)."""
    import numpy as np

    from ..functions.minhash import stable_hash64

    v = np.zeros(EMBED_DIM)
    for sh in char_shingles(norm):
        h = stable_hash64(sh)
        v[h % EMBED_DIM] += 1.0 if (h >> 32) & 1 else -1.0
    n = np.linalg.norm(v)
    return v / n if n else v


def embedding_cosine(norm_a: str, norm_b: str) -> float:
    a = surface_embedding(norm_a)
    b = surface_embedding(norm_b)
    return float(a @ b)


def precompute_surface(norm: str) -> tuple:
    """Per-surface features computed ONCE per block member (words, shingles,
    embedding) — the O(n²) pair loop then only compares."""
    return (norm, norm.split(" "), char_shingles(norm), surface_embedding(norm))


def link_match_pre(a: tuple, b: tuple) -> bool:
    norm_a, wa, sha, ea = a
    norm_b, wb, shb, eb = b
    if not norm_a or not norm_b:
        return False
    if norm_a == norm_b:
        return True
    short, long_ = (wa, wb) if len(wa) <= len(wb) else (wb, wa)
    if _word_prefix_subset(short, long_):
        return True
    if jaccard(sha, shb) >= JACCARD_THRESHOLD:
        return True
    return float(ea @ eb) >= EMBED_COSINE_THRESHOLD


def link_match(norm_a: str, norm_b: str) -> bool:
    """The frozen surface-match rule (same ent_type assumed by the caller):
    normalized equality, OR word-prefix containment, OR char-3-gram Jaccard
    >= 0.5, OR hashed-n-gram embedding cosine >= 0.8."""
    return link_match_pre(precompute_surface(norm_a), precompute_surface(norm_b))


def node_keys(ent_type, surface):
    """``{type}|{surface}`` node keys, column-wise over Arrow string arrays
    (the one place the format is written)."""
    return pc.binary_join_element_wise(ent_type, surface, "|")


def node_key(ent_type: str, surface: str) -> str:
    return node_keys(ent_type, surface).as_py()


def _block_keys_batch(batch: pa.Table) -> pa.Table:
    """Explode each distinct surface into its blocking keys."""
    rows = []
    for ent_type, surface, nk in zip(
        batch["ent_type"].to_pylist(),
        batch["surface"].to_pylist(),
        node_keys(batch["ent_type"], batch["surface"]).to_pylist(),
    ):
        norm = normalize_surface(surface)
        if norm:
            rows.append((ent_type, nk, norm))
    sigs = minhash_signatures_batch(
        [char_shingles(norm) for _, _, norm in rows], num_perm=NUM_PERM
    )
    out_block: list[str] = []
    out_node: list[str] = []
    out_norm: list[str] = []
    for (ent_type, nk, norm), sig in zip(rows, sigs):
        keys = band_keys(sig, BANDS, prefix=f"{ent_type}:")
        keys += [f"{ent_type}:w:{w[0]}" for w in set(norm.split(" "))]
        for k in set(keys):
            out_block.append(k)
            out_node.append(nk)
            out_norm.append(norm)
    return pa.table(
        {
            "block": pa.array(out_block, pa.string()),
            "node": pa.array(out_node, pa.string()),
            "norm": pa.array(out_norm, pa.string()),
        }
    )


SALT_GROUPS_MAX = 64  # bound on triangle-partition fan-out per hot block
LINK_CAP = 200  # per-(sub-)block member cap — shared by BOTH linking paths


def salt_threshold_for(cap: int) -> int:
    """Block size above which triangle-partition salting kicks in: cap/4 so
    two hash groups (~2x threshold members) stay under the cap."""
    return max(2, cap // 4)


def salt_hot_blocks(
    blocked: pa.Table, sizes: dict[str, int], threshold: int
) -> pa.Table:
    """Triangle-partition hot blocks so no reduce task sees a giant block.

    SURVEY.md §4.2 / north_star "salting of skewed hot entities before
    shuffle": a block with n > threshold members is split into
    g = ceil(n / threshold) hash groups; every unordered group pair
    (gi <= gj) becomes a sub-block key, and a member of group gx is emitted
    under exactly the g keys involving gx. A cross-group pair co-occurs in
    exactly sub-block (gi, gj); a same-group pair co-occurs in every
    sub-block involving gx, so ``_pairs_in_block`` processes same-group
    pairs ONLY in the diagonal (gx, gx) sub-block (via the ``grp`` column)
    — each pair is therefore checked exactly once → ZERO recall loss and no
    duplicated match work, while per-task cost drops from O(n²) to
    O(threshold²) per sub-block. ``g`` is bounded by SALT_GROUPS_MAX
    (fan-out is g rows/member); beyond that the per-block cap in
    ``_pairs_in_block`` remains the recorded safety valve.

    Pure function over the blocked (block, node, norm) table — shared by
    the driver-local and distributed linking paths so they stay equivalent.
    """
    import zlib

    out_block: list[str] = []
    out_node: list[str] = []
    out_norm: list[str] = []
    out_grp: list[int] = []
    for blk, node, norm in zip(
        blocked["block"].to_pylist(),
        blocked["node"].to_pylist(),
        blocked["norm"].to_pylist(),
    ):
        n = sizes.get(blk, 0)
        if n <= threshold:
            out_block.append(blk)
            out_node.append(node)
            out_norm.append(norm)
            out_grp.append(-1)
            continue
        g = min(-(-n // threshold), SALT_GROUPS_MAX)
        gx = zlib.crc32(node.encode("utf-8")) % g
        for other in range(g):
            gi, gj = (gx, other) if gx <= other else (other, gx)
            out_block.append(f"{blk}#s{gi}.{gj}")
            out_node.append(node)
            out_norm.append(norm)
            out_grp.append(gx)
    return pa.table(
        {
            "block": pa.array(out_block, pa.string()),
            "node": pa.array(out_node, pa.string()),
            "norm": pa.array(out_norm, pa.string()),
            "grp": pa.array(out_grp, pa.int32()),
        }
    )


def _pairs_in_block(group: pd.DataFrame, cap: int) -> pd.DataFrame:
    g = group.drop_duplicates("node").sort_values("node")
    capped = len(g) > cap
    if capped:
        g = g.head(cap)
    nodes = g["node"].to_numpy()
    pre = [precompute_surface(n) for n in g["norm"]]  # once per member
    # in a MIXED salted sub-block (gi != gj), same-group pairs are handled
    # by their diagonal (gx, gx) sub-block — skip them here so each pair is
    # checked exactly once (grp is -1 for unsalted rows → never skipped)
    blk = str(group["block"].iloc[0]) if len(group) else ""
    mixed = False
    if "#s" in blk:
        gi, gj = blk.rsplit("#s", 1)[1].split(".")
        mixed = gi != gj
    grps = g["grp"].to_numpy() if "grp" in g.columns else None
    a_out: list[str] = []
    b_out: list[str] = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if (
                mixed
                and grps is not None
                and grps[i] >= 0
                and grps[i] == grps[j]
            ):
                continue
            if link_match_pre(pre[i], pre[j]):
                a_out.append(nodes[i])
                b_out.append(nodes[j])
    return pd.DataFrame(
        {"a": a_out, "b": b_out, "block_capped": [capped] * len(a_out)}
    )


def candidate_pairs(
    surfaces: Dataset, cap: int = LINK_CAP, salt_threshold: int | None = None
) -> Dataset:
    """Blocked + verified same-entity pairs ``(a, b)`` over node keys.

    Shuffle #2 (groupby block key). Hot blocks are triangle-partition
    salted first (``salt_hot_blocks``): a block-size census over the
    vocabulary-sized blocked table finds blocks above ``salt_threshold``
    (default cap/4, so sub-blocks stay under the cap), and their members
    are re-keyed into group-pair sub-blocks — all pairs still meet, no
    single reduce task explodes, and each pair is checked in exactly one
    sub-block (same-group pairs only on the diagonal — see
    ``salt_hot_blocks``). Pairs may still repeat across bands; the
    downstream min-label propagation is idempotent so duplicates only cost
    bytes. The per-block cap stays as the recorded safety valve for blocks
    beyond SALT_GROUPS_MAX × threshold.
    """
    if salt_threshold is None:
        salt_threshold = salt_threshold_for(cap)
    blocked = surfaces.map_batches(
        _block_keys_batch, batch_format="pyarrow"
    ).materialize()  # vocabulary-sized (distinct surfaces × ~bands+words)
    hot: dict[str, int] = {}
    for t in (
        blocked.groupby("block").aggregate(Count(alias_name="n")).iter_batches(
            batch_format="pyarrow"
        )
    ):
        for blk, n in zip(t["block"].to_pylist(), t["n"].to_pylist()):
            if n > salt_threshold:
                hot[blk] = int(n)
    if hot:
        hot_ref = ray.put(hot)
        thr = salt_threshold

        def _salt(t: pa.Table) -> pa.Table:
            return salt_hot_blocks(t, ray.get(hot_ref), thr)

        blocked = blocked.map_batches(_salt, batch_format="pyarrow")
    return blocked.groupby("block").map_groups(
        lambda g: _pairs_in_block(g, cap), batch_format="pandas"
    )
