"""runtime.hashing.hash_buckets: stability and domain separation."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pyarrow as pa

from neuroner_ray.runtime.hashing import hash_buckets, hash_raw


def test_ranges_types_and_inputs():
    vals = [f"conv-{i}" for i in range(1000)]
    out = hash_buckets(vals, 16)
    assert out.dtype == np.int64
    assert out.min() >= 0 and out.max() < 16
    # all three input container types agree
    assert (out == hash_buckets(np.asarray(vals, dtype=object), 16)).all()
    assert (out == hash_buckets(pa.array(vals, pa.string()), 16)).all()
    # a multi-chunk Arrow column with a null and a non-ASCII value hashes
    # exactly like the same Python values
    mixed = vals[:500] + [None, "Zoë Müller-Łukasz"] + vals[500:]
    chunked = pa.chunked_array([mixed[:300], mixed[300:]], pa.string())
    assert (hash_raw(chunked) == hash_raw(mixed)).all()
    assert (hash_raw(chunked, key="inc") == hash_raw(mixed, key="inc")).all()
    # spread: 1000 keys over 16 buckets should touch every bucket
    assert len(set(out.tolist())) == 16


def test_keyed_domains_decorrelate():
    vals = [f"conv-{i}" for i in range(1000)]
    a = hash_buckets(vals, 16)
    b = hash_buckets(vals, 16, key="inc")
    assert (a != b).any()


def test_cross_process_determinism():
    """Bucket ids must not depend on PYTHONHASHSEED or process state —
    resume manifests and re-runs rely on identical assignment."""
    code = (
        "from neuroner_ray.runtime.hashing import hash_buckets;"
        "print(hash_buckets([f'conv-{i}' for i in range(50)], 8).tolist())"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            cwd="/root/repo",
        ).stdout.strip()
        for _ in range(2)
    }
    assert len(outs) == 1
    here = hash_buckets([f"conv-{i}" for i in range(50)], 8).tolist()
    assert outs.pop() == str(here)
