"""M11 — dependency-pattern (subj, pred, obj) triple extraction.

Target-only operator (no reference counterpart; required by
BASELINE.json:north_rule "dependency-pattern relation extraction"). Semantics
frozen by the synthetic golden corpus (see
``neuroner_ray.sources.synth_transcripts``): for each pair of mentions
adjacent in a turn (no third mention between them), the normalized token
sequence strictly between them is looked up in a fixed predicate lexicon;
a hit emits ``(subj_surface, pred, obj_surface)`` with the mention types.

``extract_triples_row`` is the per-row reference. The pipelines run
``triples_flat`` over a batch's ``Tagged`` result inside the tagging
stage, and ``turn_rows`` builds the batch's MENTIONS and TRIPLES
rows from it column-wise — the one source of per-turn rows for the engine
(``kg_streamed.FusedAnnotator``) and the persisted tables
(``kg.turn_tables``). The lexicon is a module constant; no shuffle, no
state.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.tokenize import concat_ranges
from ..schemas import MENTIONS, TRIPLES
from .tagger import Tagged

# normalized between-mention token string → canonical predicate
PREDICATE_LEXICON: dict[str, str] = {
    "works at": "works_at",
    "visited": "visited",
    "flew to": "visited",
    "used": "used",
    "is based in": "based_in",
    "met": "met",
    "acquired": "acquired",
    "partnered with": "partnered_with",
}
MAX_GAP_CHARS = 40  # mentions further apart than this never relate
_LEXICON_GAPS = pa.array(list(PREDICATE_LEXICON), pa.string())
_LEXICON_PREDS = pa.array(list(PREDICATE_LEXICON.values()), pa.string())

_NORM_RE = re.compile(r"[A-Za-z0-9_]+")


def _normalize_gap(text: str) -> str:
    return " ".join(_NORM_RE.findall(text)).lower()


def extract_triples_row(
    text: str, mentions: list[dict]
) -> list[tuple[str, str, str, str, str]]:
    """One turn → [(subj, pred, obj, subj_type, obj_type)]."""
    out = []
    for a, b in zip(mentions, mentions[1:]):  # mentions are in text order
        gap = text[a["end"] : b["start"]]
        if len(gap) > MAX_GAP_CHARS:
            continue
        pred = PREDICATE_LEXICON.get(_normalize_gap(gap))
        if pred is not None:
            out.append(
                (a["surface"], pred, b["surface"], a["ent_type"], b["ent_type"])
            )
    return out


def triples_flat(tagged: Tagged) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """``extract_triples_row`` over a whole tagged batch.

    Returns (subject mention index, object mention index, predicate) per
    triple. The normalized gap is built from the word tokens between the
    two mentions: when the tokens come from the text (raw turns), they are
    maximal word runs or single other characters, so these are exactly
    the runs ``_normalize_gap`` finds in the gap text.
    """
    rows = tagged.mention_rows
    a = np.flatnonzero(rows[:-1] == rows[1:])  # adjacent mentions, one row
    near = tagged.mention_start[a + 1] - tagged.mention_end[a] <= MAX_GAP_CHARS
    a = a[near]
    b = a + 1
    lo = tagged.last_token[a] + 1
    n_between = tagged.first_token[b] - lo
    toks = tagged.tokens.text.take(concat_ranges(lo, n_between))
    word = pc.match_substring_regex(toks, "^[A-Za-z0-9_]+$")
    per_pair = np.bincount(
        np.repeat(np.arange(a.size), n_between)[word.to_numpy(zero_copy_only=False)],
        minlength=a.size,
    )
    offsets = np.zeros(a.size + 1, dtype=np.int32)
    np.cumsum(per_pair, out=offsets[1:])
    gaps = pc.binary_join(pa.ListArray.from_arrays(pa.array(offsets), toks.filter(word)), " ")
    hit = pc.index_in(pc.ascii_lower(gaps), value_set=_LEXICON_GAPS)
    keep = hit.is_valid().to_numpy(zero_copy_only=False)
    return a[keep], b[keep], _LEXICON_PREDS.take(hit.drop_null())


def turn_rows(batch: pa.Table, tagged: Tagged) -> tuple[pa.Table, pa.Table]:
    """A tagged batch's per-turn rows: (``schemas.MENTIONS``,
    ``schemas.TRIPLES``) tables, in row order and text order within a row.

    Column-wise: the mentions are ``Tagged``'s flat spans, the triples are
    ``triples_flat``'s mention pairs, and each row's (conv_id, turn_idx)
    is taken from ``batch`` at its mention's row."""
    s, o, pred = triples_flat(tagged)
    rows = tagged.mention_rows

    def keys(at: np.ndarray) -> list:
        return [
            pc.cast(batch["conv_id"].take(at), pa.string()),
            pc.cast(batch["turn_idx"].take(at), pa.int32()),
        ]

    mentions = pa.Table.from_arrays(
        keys(rows)
        + [
            tagged.mention_type,
            pa.array(tagged.mention_start, pa.int32()),
            pa.array(tagged.mention_end, pa.int32()),
            tagged.surface,
        ],
        schema=MENTIONS,
    )
    triples = pa.Table.from_arrays(
        keys(rows[s])
        + [
            tagged.surface.take(s),
            pred,
            tagged.surface.take(o),
            tagged.mention_type.take(s),
            tagged.mention_type.take(o),
            pa.repeat(pa.scalar(1.0, pa.float32()), s.size),
        ],
        schema=TRIPLES,
    )
    return mentions, triples
