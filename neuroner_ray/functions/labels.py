"""Label-scheme algebra: BIO/BIOES conversion, span assembly, span tagging.

Reference anchors (SURVEY.md §2.2):
- M3 span assembly: src/conll_to_brat.py::output_entities (≈L20–L80) —
  maximal ``B-X I-X*`` (BIO) / ``S-X``, ``B-X I-X* E-X`` (BIOES) runs →
  typed char-offset spans, with conlleval-compatible leniency (an ``I-X``
  with no compatible open entity starts a new one).
- M4 char-span → token-BIO: src/brat_to_conll.py::brat_to_conll (≈L140–L200)
  — token covered by an entity span gets B-/I-; first match wins.
- M5/M6 BIO↔BIOES: src/utils_nlp.py::convert_conll_from_bio_to_bioes
  (≈L100–L160) and the inline BIOES→BIO remap in
  src/train.py::prediction_step (≈L100–L160).
- M9 eval-mode projection: src/evaluate.py::remap_labels (≈L20–L60).

The list functions are pure and operate on one sequence; ``label_table``
and ``assemble_spans_flat`` are their column-wise form for a whole batch
(label codes of all rows, flat), used by the tagger stages.
"""

from __future__ import annotations

import numpy as np

OUTSIDE = "O"


def _split(label: str) -> tuple[str, str]:
    """'B-PER' → ('B', 'PER'); 'O' → ('O', '')."""
    if label == OUTSIDE or "-" not in label:
        return (label, "")
    prefix, _, ent = label.partition("-")
    return (prefix, ent)


def bio_to_bioes(labels: list[str]) -> list[str]:
    """M5: singleton B → S; final I of a run → E (src/utils_nlp.py ≈L100–L160)."""
    out: list[str] = []
    n = len(labels)
    for i, lab in enumerate(labels):
        prefix, ent = _split(lab)
        if prefix == OUTSIDE or not ent:
            out.append(OUTSIDE)
            continue
        nxt_prefix, nxt_ent = _split(labels[i + 1]) if i + 1 < n else (OUTSIDE, "")
        continues = nxt_prefix == "I" and nxt_ent == ent
        if prefix == "B":
            out.append(("B-" if continues else "S-") + ent)
        elif prefix == "I":
            out.append(("I-" if continues else "E-") + ent)
        else:  # already BIOES
            out.append(lab)
    return out


def bioes_to_bio(labels: list[str]) -> list[str]:
    """M6: S→B, E→I; B/I/O unchanged (src/train.py::prediction_step remap)."""
    out: list[str] = []
    for lab in labels:
        prefix, ent = _split(lab)
        if prefix == "S":
            out.append("B-" + ent)
        elif prefix == "E":
            out.append("I-" + ent)
        else:
            out.append(lab)
    return out


def assemble_spans(labels: list[str]) -> list[tuple[str, int, int]]:
    """M3: labels → [(ent_type, first_token_idx, last_token_idx_inclusive)].

    Accepts BIO and BIOES (mixed is tolerated). conlleval-compatible
    leniency: ``I-X``/``E-X`` with no open entity of type X starts a new one.
    """
    spans: list[tuple[str, int, int]] = []
    open_type: str | None = None
    open_start = 0
    for i, lab in enumerate(labels):
        prefix, ent = _split(lab)
        if prefix in ("B", "S"):
            if open_type is not None:
                spans.append((open_type, open_start, i - 1))
            open_type, open_start = ent, i
            if prefix == "S":
                spans.append((ent, i, i))
                open_type = None
        elif prefix in ("I", "E"):
            if open_type != ent:
                if open_type is not None:
                    spans.append((open_type, open_start, i - 1))
                open_type, open_start = ent, i  # leniency: I after O starts
            if prefix == "E":
                spans.append((ent, open_start, i))
                open_type = None
        else:  # O or unknown
            if open_type is not None:
                spans.append((open_type, open_start, i - 1))
                open_type = None
    if open_type is not None:
        spans.append((open_type, open_start, len(labels) - 1))
    return spans


# prefix codes of ``label_table``; anything else (O, unknown) is outside
_B, _I, _E, _S = 1, 2, 3, 4
_PREFIX_CODES = {"B": _B, "I": _I, "E": _E, "S": _S}


def label_table(names: list[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Label dictionary → (prefix code per label, entity index per label,
    entity names); the same ``_split`` reading as ``assemble_spans``."""
    types: list[str] = []
    prefix = np.zeros(len(names), dtype=np.int8)
    ent = np.full(len(names), -1, dtype=np.int64)
    for i, lab in enumerate(names):
        p, e = _split(lab)
        if p in _PREFIX_CODES:
            prefix[i] = _PREFIX_CODES[p]
            if e not in types:
                types.append(e)
            ent[i] = types.index(e)
    return prefix, ent, types


def assemble_spans_flat(
    codes: np.ndarray, row_offsets: np.ndarray, prefix: np.ndarray, ent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``assemble_spans`` over every row of a batch at once.

    ``codes`` are the label codes of all rows back to back (row ``r`` owns
    ``row_offsets[r]:row_offsets[r + 1]``), read through ``label_table``.
    Returns the first and last flat token index of each span, in order. A
    token continues the open span iff it is I-/E- of the type a B-/I- token
    just before it opened, in the same row; every other labelled token
    starts a span.
    """
    p = prefix[codes]
    e = ent[codes]
    n = codes.size
    labelled = p > 0
    row_start = np.zeros(n + 1, dtype=bool)
    row_start[row_offsets[:-1]] = True
    opens = (p == _B) | (p == _I)
    cont = np.zeros(n, dtype=bool)
    cont[1:] = (
        ((p[1:] == _I) | (p[1:] == _E))
        & opens[:-1]
        & (e[1:] == e[:-1])
        & ~row_start[1:n]
    )
    ends = labelled.copy()
    ends[:-1] &= ~cont[1:]
    return np.flatnonzero(labelled & ~cont), np.flatnonzero(ends)


def spans_to_bio(
    token_offsets: list[tuple[int, int]], spans: list[tuple[str, int, int]]
) -> list[str]:
    """M4: char-offset entity spans → per-token BIO labels.

    ``spans``: [(ent_type, char_start, char_end)); first matching span wins
    (annotations assumed non-overlapping, as in the reference's
    brat_to_conll ≈L140–L200).
    """
    labels = [OUTSIDE] * len(token_offsets)
    if not spans:
        return labels
    prev_span = -1
    for i, (ts, te) in enumerate(token_offsets):
        hit = -1
        for k, (_, cs, ce) in enumerate(spans):
            if ts >= cs and te <= ce:
                hit = k
                break
        if hit >= 0:
            ent = spans[hit][0]
            labels[i] = ("I-" if hit == prev_span else "B-") + ent
            prev_span = hit
        else:
            prev_span = -1
    return labels


def project_labels(labels: list[str], mode: str) -> list[str]:
    """M9: evaluation-mode projection (src/evaluate.py::remap_labels ≈L20–L60).

    - ``token``: strip BIO/BIOES prefixes ('B-PER' → 'PER')
    - ``binary``: collapse every entity type to 'ENT'
    - ``bio`` / ``conll``: identity
    """
    if mode in ("bio", "conll"):
        return list(labels)
    out = []
    for lab in labels:
        prefix, ent = _split(lab)
        if prefix == OUTSIDE or not ent:
            out.append(OUTSIDE)
        elif mode == "token":
            out.append(ent)
        elif mode == "binary":
            out.append("ENT")
        else:
            raise ValueError(f"unknown evaluation mode: {mode}")
    return out
