"""Map-side partials keep one schema on zero-row and schema-less blocks.

A sort-based aggregate or a filtered read may hand a ``map_batches`` fn a
block with no rows, or no columns at all; the partial it returns must have
the same columns as on a real block, or the downstream aggregate sees
mixed schemas.
"""

from __future__ import annotations

import pyarrow as pa

import __ray_entry__ as entry
from neuroner_ray.pipelines.queries import _rrf_user_partial

EMPTY_BLOCKS = {
    "typed": lambda schema: schema.empty_table(),
    "schema_less": lambda schema: pa.table({}),
}


def _check_empty_blocks(partial, block: pa.Table) -> None:
    want = partial(block).schema
    for kind, make in EMPTY_BLOCKS.items():
        out = partial(make(block.schema))
        assert out.num_rows == 0, kind
        assert out.schema == want, (kind, out.schema, want)


def test_rrf_user_partial_schema_on_empty_blocks():
    events = pa.table(
        {
            "user_id": pa.array([1, 1, 2], pa.int64()),
            "event_type": pa.array(["click", "purchase", "view"], pa.string()),
            "value": pa.array([0.0, 12.5, 0.0], pa.float64()),
        }
    )
    _check_empty_blocks(_rrf_user_partial, events)


def test_mention_hist_partial_schema_on_empty_blocks():
    per_turn = pa.table(
        {
            "conv_id": pa.array(["c0", "c0", "c1"], pa.string()),
            "turn_idx": pa.array([0, 1, 0], pa.int64()),
            "n": pa.array([2, 1, 2], pa.int64()),
        }
    )
    _check_empty_blocks(entry._mention_hist_partial, per_turn)
