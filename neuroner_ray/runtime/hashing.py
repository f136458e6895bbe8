"""Vectorized string → bucket hashing for corpus-sized paths.

``pandas.util.hash_array`` is a C siphash kernel over object arrays — it
replaces the per-row Python ``zlib.crc32`` loops that sat on streamed
paths (VERDICT r3 item 6: ``add_bucket``, incremental ``add_inc``, the
dedup band→bucket and pair→bucket assignments). Bucket values only route
rows (partitioning / grouping); no oracle or golden depends on a specific
assignment, so the hash function is an implementation detail — EXCEPT the
conv-id resume buckets in ``pipelines.manifests.bucket_of``, which stay
crc32 so previously-written bucket manifests remain valid.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def hash_buckets(values, num_buckets: int, key: str = "") -> np.ndarray:
    """Hash a sequence / numpy array / Arrow array of strings into int64
    bucket ids in ``[0, num_buckets)``. ``key`` decorrelates independent
    bucket domains (padded to pandas' required 16-byte hash key)."""
    hashed = hash_raw(values, key=key)
    return (hashed % np.uint64(num_buckets)).astype(np.int64)


def hash_raw(values, key: str = "") -> np.ndarray:
    """Raw uint64 hash per value — for callers that need a PER-ROW
    modulus (e.g. the neighbor-Jaccard hub chunker, where each row's
    chunk count depends on its center's degree, so a fixed
    ``num_buckets`` cannot be baked in)."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = values.to_numpy(zero_copy_only=False)  # object array, nulls → None
    arr = np.asarray(values, dtype=object)
    kwargs = {}
    if key:
        kwargs["hash_key"] = (key + "0123456789abcdef")[:16]
    return pd.util.hash_array(arr, categorize=False, **kwargs)

