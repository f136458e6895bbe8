"""Per-partition lineage manifests + resumable bucket runs (SURVEY.md §4.4).

north_rule: "resumable from checkpoint with per-partition lineage +
metrics". The resume unit is a conversation bucket (``hash(conv_id) % B``):
each completed bucket writes ``_manifest/bucket=<i>.json`` recording input,
config hash, row counts per stage, output files and wall time. A rerun
reads the manifests, skips finished buckets, and processes only the rest —
a killed run loses at most the in-flight buckets.

Output writes are atomic: a bucket is written to ``<out>/.tmp-bucket=<i>``
and renamed into place before its manifest appears, so a manifest always
points at complete data.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import zlib
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd
from ray.data import Dataset

from ..schemas import TRANSCRIPTS, TURN_TABLES
from ..sources.parquet import pin_empty, read_parquet_clean


def config_hash(config: dict) -> str:
    return hashlib.blake2b(
        json.dumps(config, sort_keys=True).encode(), digest_size=8
    ).hexdigest()


def bucket_of(conv_id: str, num_buckets: int) -> int:
    return zlib.crc32(conv_id.encode("utf-8")) % num_buckets


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def completed_buckets(out_dir: str, cfg_hash: str) -> set:
    """Bucket tags whose manifest exists AND matches the current config hash.

    A tag is an ``int`` for the single-batch layout (``bucket=3``) or the
    string ``"<increment>.<i>"`` for incremental ingests (``bucket=day2.3``).
    """
    mdir = manifest_dir(out_dir)
    done = set()
    if not os.path.isdir(mdir):
        return done
    for name in os.listdir(mdir):
        if not name.startswith("bucket=") or not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(mdir, name)) as f:
                m = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        if m.get("config_hash") == cfg_hash:
            tag = m["bucket"]
            done.add(int(tag) if isinstance(tag, int) or str(tag).isdigit() else tag)
    return done


def write_manifest(out_dir: str, bucket: int, payload: dict) -> None:
    mdir = manifest_dir(out_dir)
    os.makedirs(mdir, exist_ok=True)
    tmp = os.path.join(mdir, f".tmp-bucket={bucket}.json")
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1)
    os.replace(tmp, os.path.join(mdir, f"bucket={bucket}.json"))


def stage_partitioned(
    transcripts_path: str,
    staged: str,
    key: dict,
    column: str,
    values: Callable[[pa.ChunkedArray], pa.Array],
) -> str:
    """One-time rewrite of the input into ``staged``, hive-partitioned by
    ``column`` = ``values(conv_id column)`` (resume-safe).

    ONE streaming pass writes ``<staged>/<column>=<v>/`` partitions, so each
    partition's pipeline reads only its own directory (pruned at the read)
    — no B full input scans and no corpus-sized object-store
    materialization, for one extra write+read of the corpus. Idempotent
    across resumes via a ``_DONE`` marker holding ``key``; written to tmp +
    atomic rename so a killed run restages.
    """
    marker = os.path.join(staged, "_DONE")
    if os.path.exists(marker):
        try:
            with open(marker) as f:
                if json.load(f) == key:
                    return staged
        except (OSError, json.JSONDecodeError):
            pass
        shutil.rmtree(staged, ignore_errors=True)  # stale staging
    tmp = f"{staged}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    read_parquet_clean(transcripts_path).map_batches(
        lambda t: t.append_column(column, values(t["conv_id"])),
        batch_format="pyarrow",
    ).write_parquet(tmp, partition_cols=[column])
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        json.dump(key, f)
    shutil.rmtree(staged, ignore_errors=True)
    os.replace(tmp, staged)
    return staged


def run_bucketed(
    transcripts_path: str,
    out_dir: str,
    table_fn: Callable[[Dataset], dict[str, Dataset]],
    config: dict,
    num_buckets: int = 8,
    increment: str | None = None,
) -> dict:
    """Resumable run: partition input conversations into ``num_buckets`` by
    ``crc32(conv_id)``, process each missing bucket through ``table_fn``
    (input Dataset → {table_name: Dataset}), write each table under
    ``<out>/<table>/bucket=<tag>/`` atomically, manifest last.

    Returns {"processed": [...], "skipped": [...]} (this namespace only).

    Buckets are deliberately processed as separate filtered pipelines: the
    bucket is the checkpoint granularity, and each bucket's pipeline is
    itself a streaming Ray Data job. (Within one cluster run you would use
    larger buckets — the granularity trades resume cost against scheduling
    overhead.)

    ``increment`` names a later arrival of NEW conversations (e.g. "day2")
    to ingest into an existing ``out_dir``: its buckets live under the tag
    ``"<increment>.<i>"`` so they never collide with earlier batches, and a
    subsequent :func:`finalize_graph` recomputes the (cheap, global)
    linking/canonicalization/edge stages over ALL completed buckets while
    the expensive per-turn tagging of earlier increments is reused from its
    manifests. Contract: increments must be conversation-disjoint — a
    (conv_id, turn_idx) that appears in two increments is counted twice.
    """
    if increment is not None and not all(
        c.isalnum() or c in "-_" for c in increment
    ):
        raise ValueError(f"increment name must be [-_ alnum]: {increment!r}")
    cfg_hash = config_hash(config)
    done = completed_buckets(out_dir, cfg_hash)

    def tag_of(b: int):
        return f"{increment}.{b}" if increment else b

    todo = [b for b in range(num_buckets) if tag_of(b) not in done]
    staged = stage_partitioned(
        transcripts_path,
        os.path.join(out_dir, "_bucketed" + (f"-inc-{increment}" if increment else "")),
        {"input": transcripts_path, "num_buckets": num_buckets},
        "bucket",
        lambda conv: pa.array(
            [bucket_of(c, num_buckets) for c in conv.to_pylist()], pa.int32()
        ),
    )
    processed = []
    for b in todo:
        t0 = time.time()
        tag = tag_of(b)
        # pruned read: only this bucket's partition directory leaves storage
        bdir = os.path.join(staged, f"bucket={b}")
        if os.path.isdir(bdir):
            part = read_parquet_clean(bdir).drop_columns(["bucket"])
        else:  # no conversation hashed into this bucket: one empty block
            # (a tagging stage given no block at all warns)
            part = rd.from_arrow(TRANSCRIPTS.empty_table())
        n_in = part.count()
        tables = table_fn(part)
        counts: dict[str, int] = {"input_turns": n_in}
        files: dict[str, list[str]] = {}
        for name, ds in tables.items():
            tmp = os.path.join(out_dir, name, f".tmp-bucket={tag}")
            final = os.path.join(out_dir, name, f"bucket={tag}")
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp, exist_ok=True)
            ds.write_parquet(tmp)
            if name in TURN_TABLES:  # a turn-free or mention-free bucket
                pin_empty(tmp, TURN_TABLES[name])
            counts[name] = pq.ParquetDataset(tmp).read().num_rows
            shutil.rmtree(final, ignore_errors=True)
            os.replace(tmp, final)
            files[name] = sorted(os.listdir(final))
        write_manifest(
            out_dir,
            tag,
            {
                "bucket": tag,
                "config_hash": cfg_hash,
                "config": config,
                "input": transcripts_path,
                "row_counts": counts,
                "output_files": files,
                "wall_sec": round(time.time() - t0, 3),
            },
        )
        processed.append(tag)
    skipped = sorted(
        (t for t in (tag_of(b) for b in range(num_buckets)) if t in done), key=str
    )
    return {"processed": processed, "skipped": skipped}


def read_output(out_dir: str, table: str, tags=None, columns=None) -> Dataset:
    """Read completed buckets of one output table (only ``columns``, if
    given).

    With ``tags`` (the manifest-listed bucket set), ONLY those bucket
    directories are read — bucket dirs left behind by an earlier config or
    arrival split (e.g. shrinking a 3-way split to 2-way leaves stale
    ``inc2.*`` dirs) must not leak into a global finalize."""
    root = os.path.join(out_dir, table)
    if tags is None:
        return read_parquet_clean(root, columns=columns)
    files = []
    for t in tags:
        p = os.path.join(root, f"bucket={t}")
        if os.path.isdir(p):
            # ray.data.read_parquet expands a single directory but NOT
            # directories inside a list — list the files explicitly
            files.extend(
                os.path.join(p, f)
                for f in sorted(os.listdir(p))
                if f.endswith(".parquet")
            )
    if not files:
        return read_parquet_clean(root, columns=columns).limit(0)
    return read_parquet_clean(files, columns=columns)


def finalize_graph(out_dir: str, config: dict) -> dict:
    """Phase 2 of the bucketed run: GLOBAL linking + graph materialize.

    Canonicalization is a global aggregate — computing nodes/edges per
    bucket yields duplicate entity ids and bucket-dependent canonical
    representatives (different buckets can elect different reps for one
    cluster). So buckets persist only per-turn tables (mentions, triples);
    this step counts the mentions per batch (``kg_streamed.census_batch``)
    and hands that census and the triples to the engine's distributed
    finalize (``kg_streamed.finalize_distributed``: global linking, resolve,
    edge aggregation, partitioned write of ``<out>/nodes`` +
    ``<out>/edges``). It records its own manifest (config hash +
    completed-bucket set) and is skipped when nothing changed.
    """
    from . import kg_streamed as ks

    cfg_hash = config_hash(config)
    done = sorted(completed_buckets(out_dir, cfg_hash), key=str)
    fpath = os.path.join(manifest_dir(out_dir), "finalize.json")
    if os.path.exists(fpath):
        try:
            with open(fpath) as f:
                prev = json.load(f)
            if prev.get("config_hash") == cfg_hash and prev.get("buckets") == done:
                return {"skipped": True, "buckets": done}
        except (OSError, json.JSONDecodeError):
            pass
    t0 = time.time()
    census = read_output(
        out_dir, "mentions", tags=done, columns=["ent_type", "surface"]
    ).map_batches(ks.census_batch, batch_format="pyarrow")
    triples = read_output(out_dir, "triples", tags=done)
    # finalize outputs get the same tmp+rename atomicity as bucket outputs:
    # materialize_graph APPENDS uniquely-named files, so writing straight
    # into <out>/nodes|edges would mix files from multiple executions
    # (re-finalize after more buckets, or a crash mid-finalize).
    # COMMIT POINT: the finalize manifest, written after BOTH table swaps.
    # A crash between the two os.replace calls can leave new nodes with old
    # edges on disk, but the manifest is then missing/stale, so the next
    # finalize_graph rerun rewrites both; consumers must treat the manifest
    # as the validity marker (two directories cannot be swapped in one
    # rename without changing the <out>/nodes|edges layout readers rely on)
    tmp_root = os.path.join(out_dir, f".tmp-finalize-{os.getpid()}")
    shutil.rmtree(tmp_root, ignore_errors=True)
    nodes = ks.finalize_distributed(census, triples, tmp_root)["nodes"]
    for table in ("nodes", "edges"):
        final = os.path.join(out_dir, table)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(os.path.join(tmp_root, table), final)
    shutil.rmtree(tmp_root, ignore_errors=True)
    payload = {
        "config_hash": cfg_hash,
        "buckets": done,
        "wall_sec": round(time.time() - t0, 3),
        "n_nodes": nodes.count(),
    }
    tmp = fpath + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1)
    os.replace(tmp, fpath)
    return {"skipped": False, **payload}
