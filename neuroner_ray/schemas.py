"""PyArrow schemas for every logical table (SURVEY.md §1.2).

The reference (src/dataset.py::Dataset, ≈L15–L400) holds parallel Python
lists in driver memory; here every logical table is a ``ray.data.Dataset``
whose blocks are Arrow tables with these schemas. ``TRANSCRIPTS`` is the
authoritative input shape from ``BASELINE.json:input_hint``.
"""

from __future__ import annotations

import pyarrow as pa

# ---- input (BASELINE.json input_hint) -------------------------------------
TRANSCRIPTS = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

# ---- tokenized turns (reference: brat_to_conll.py tokenizer contract) -----
TOKEN_STRUCT = pa.struct(
    [("text", pa.string()), ("start", pa.int32()), ("end", pa.int32())]
)
TOKENIZED = pa.schema(
    list(TRANSCRIPTS) + [("tokens", pa.list_(TOKEN_STRUCT))]
)

# ---- tagged turns / mentions ----------------------------------------------
MENTION_STRUCT = pa.struct(
    [
        ("ent_type", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("surface", pa.string()),
    ]
)
TAGGED = pa.schema(
    list(TOKENIZED)
    + [("labels", pa.list_(pa.string())), ("mentions", pa.list_(MENTION_STRUCT))]
)

# mentions exploded to one row per mention (downstream of M3 span assembly)
MENTIONS = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("ent_type", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("surface", pa.string()),
    ]
)

# ---- triples (M11 output) --------------------------------------------------
TRIPLES = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("subj_type", pa.string()),
        ("obj_type", pa.string()),
        ("confidence", pa.float32()),
    ]
)

# the per-turn tables of one tagging pass (``pipelines.kg.turn_tables``),
# persisted per bucket by ``pipelines.manifests.run_bucketed``
TURN_TABLES = {"mentions": MENTIONS, "triples": TRIPLES}

# ---- canonical entities / nodes (A6 output) --------------------------------
NODES = pa.schema(
    [
        ("entity_id", pa.string()),
        ("canonical", pa.string()),
        ("ent_type", pa.string()),
        ("surfaces", pa.list_(pa.string())),
        ("mention_count", pa.int64()),
    ]
)

# ---- edges (A7 output) ------------------------------------------------------
PROVENANCE_STRUCT = pa.struct(
    [("conv_id", pa.string()), ("turn_idx", pa.int32())]
)
EDGES = pa.schema(
    [
        ("src_id", pa.string()),
        ("dst_id", pa.string()),
        ("pred", pa.string()),
        ("weight", pa.int64()),
        ("provenance", pa.list_(PROVENANCE_STRUCT)),
    ]
)
