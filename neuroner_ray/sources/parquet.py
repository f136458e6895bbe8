"""Parquet read with schema-metadata hygiene.

The driver-generated testdata parquet files (and anything pandas ever
wrote) carry a ``b'pandas'`` schema-metadata blob. A pyarrow 16 schema
WITH metadata is unhashable (``hash(schema)`` raises
``unhashable type: 'dict'``), so every Ray block concat/split over such
blocks logs "Failed to hash the schemas (for deduplication)" per task and
falls back to the slow unify path (transform_pyarrow.unify_schemas).

``read_parquet_clean`` fixes it at the source: for a plain-file read it
passes an explicit, column-pruned, metadata-free ``schema=`` (one
driver-side footer read), so even the ReadParquet task's internal
SplitBlocks sees hashable schemas and NO extra operator is added. For
directory / multi-file reads (hive-partitioned stages add partition
columns the file footer doesn't know about) it falls back to a zero-copy
metadata-strip map after the read.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd
from ray.data import Dataset


def strip_schema_metadata(t: pa.Table) -> pa.Table:
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def _clean_file_schema(path, columns) -> pa.Schema | None:
    """Pruned, metadata-free schema for a single parquet file, else None."""
    if not (isinstance(path, str) and os.path.isfile(path)):
        return None
    try:
        base = pq.read_schema(path)
        if columns is not None:
            base = pa.schema([base.field(c) for c in columns])
        return base.remove_metadata()
    except Exception:
        return None


def read_parquet_clean(path, *, columns=None, **kwargs) -> Dataset:
    """``ray.data.read_parquet`` whose blocks carry hashable schemas."""
    if "schema" not in kwargs:
        schema = _clean_file_schema(path, columns)
        if schema is not None:
            return rd.read_parquet(path, columns=columns, schema=schema, **kwargs)
    return rd.read_parquet(path, columns=columns, **kwargs).map_batches(
        strip_schema_metadata, batch_format="pyarrow"
    )


def pin_empty(path: str, schema: pa.Schema) -> None:
    """Ray writes no file for an empty Dataset: give a table directory that
    got none a typed empty file, so it reads back with its schema."""
    if not any(f.endswith(".parquet") for _, _, fs in os.walk(path) for f in fs):
        os.makedirs(path, exist_ok=True)
        pq.write_table(schema.empty_table(), os.path.join(path, "empty.parquet"))
