"""Offset-preserving deterministic tokenizer (SURVEY.md §2.2 M1).

Reference contract: src/brat_to_conll.py::get_sentences_and_tokens_from_spacy
(≈L60–L100) — non-destructive tokenization emitting per-token
``(text, start, end)`` character offsets into the source text, skipping
whitespace. spaCy is not available in this environment, so the contract is
implemented with a fixed regex whose semantics are reproducible in DuckDB/RE2
for oracle checks (see TOKEN_PATTERN): runs of word characters, or single
non-word non-space characters (punctuation isolated, offsets exact).

Ray mapping: a stateless ``map_batches`` transform over Arrow batches
(``batch_format="pyarrow"``); the regex is compiled once per process at
module import, not per batch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import TOKEN_STRUCT

# ASCII word runs or a single other non-space char. Written with explicit
# classes so Python re and DuckDB's RE2 agree codepoint-for-codepoint.
TOKEN_PATTERN = r"[A-Za-z0-9_]+|[^A-Za-z0-9_\s]"
_TOKEN_RE = re.compile(TOKEN_PATTERN)


def tokenize_text(text: str) -> list[tuple[str, int, int]]:
    """Tokenize one string → [(token, start, end)]; ``text[start:end] == token``."""
    return [(m.group(0), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


# Column-wise tokenizer: the same contract as ``tokenize_text``, for a whole
# batch at once. The batch's texts are one UTF-8 buffer; every codepoint is
# classed as word ([A-Za-z0-9_]), space (``str.isspace``, which is what
# ``\s`` matches in a str pattern) or other. A token is a maximal word run
# or one "other" codepoint, and never crosses a row boundary.
_ASCII_WORD = np.array(
    [chr(c).isalnum() or chr(c) == "_" for c in range(128)], dtype=bool
)
_ASCII_SPACE = np.array([chr(c).isspace() for c in range(128)], dtype=bool)


def concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lens)])``."""
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    ends = np.cumsum(lens)
    return np.arange(int(ends[-1]) if lens.size else 0, dtype=np.int64) + np.repeat(
        starts - (ends - lens), lens
    )


class TextBuffer:
    """A string column as one UTF-8 byte buffer, addressed by (row, codepoint).

    ``cp_offsets[r]`` is the first codepoint of row ``r`` in the batch;
    ``byte_of`` maps a batch codepoint index to its byte offset (nulls read
    as empty strings)."""

    def __init__(self, texts: pa.Array | pa.ChunkedArray):
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        if texts.null_count:
            texts = pc.fill_null(texts, "")
        off_type = np.int64 if pa.types.is_large_string(texts.type) else np.int32
        n = len(texts)
        offsets = np.frombuffer(
            texts.buffers()[1], dtype=off_type, count=texts.offset + n + 1
        )[texts.offset :].astype(np.int64)
        data = texts.buffers()[2]
        self.data = (
            np.frombuffer(data, dtype=np.uint8)[offsets[0] : offsets[-1]]
            if data is not None
            else np.zeros(0, dtype=np.uint8)
        )
        self.byte_offsets = offsets - offsets[0]
        lead = np.flatnonzero((self.data & 0xC0) != 0x80)  # UTF-8 lead bytes
        if lead.size == self.data.size:  # all ASCII: codepoint == byte
            self._lead = None
            self.cp_offsets = self.byte_offsets
        else:
            self._lead = np.append(lead, self.data.size)
            self.cp_offsets = np.searchsorted(lead, self.byte_offsets)

    @property
    def n_rows(self) -> int:
        return self.byte_offsets.size - 1

    def byte_of(self, cp: np.ndarray) -> np.ndarray:
        return cp if self._lead is None else self._lead[cp]

    def codepoints(self) -> np.ndarray:
        if self._lead is None:
            return self.data
        return np.frombuffer(
            self.data.tobytes().decode("utf-8").encode("utf-32-le"), dtype=np.uint32
        )

    def substrings(self, rows: np.ndarray, start: np.ndarray, end: np.ndarray) -> pa.Array:
        """``text[row][start:end]`` (codepoints, Python slice clamping) as a
        new, compact string array."""
        base = self.cp_offsets[rows]
        row_len = self.cp_offsets[rows + 1] - base
        s = np.clip(start, 0, row_len)
        e = np.clip(end, s, row_len)
        return take_strings(self.data, self.byte_of(base + s), self.byte_of(base + e))


def take_strings(data: np.ndarray, bstart: np.ndarray, bend: np.ndarray) -> pa.Array:
    """Byte ranges of a UTF-8 buffer → a compact string array (copied)."""
    lens = np.asarray(bend - bstart, dtype=np.int64)
    offsets = np.zeros(lens.size + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    values = data[concat_ranges(bstart, lens)]
    return pa.Array.from_buffers(
        pa.string(), lens.size, [None, pa.py_buffer(offsets), pa.py_buffer(values)]
    )


@dataclass
class FlatTokens:
    """The tokens of a batch, flat: row ``r`` owns tokens
    ``row_offsets[r]:row_offsets[r + 1]``; ``start``/``end`` are codepoint
    offsets into the row's text (``text[start:end] == token``)."""

    source: TextBuffer
    row_offsets: np.ndarray  # int64 [n_rows + 1]
    start: np.ndarray  # int32
    end: np.ndarray  # int32
    text: pa.Array  # string, one per token

    @property
    def rows(self) -> np.ndarray:
        """Row index of every token."""
        return np.repeat(
            np.arange(self.row_offsets.size - 1), np.diff(self.row_offsets)
        )

    def list_array(self) -> pa.ListArray:
        """The ``tokens: list<struct<text,start,end>>`` column."""
        values = pa.StructArray.from_arrays(
            [self.text, pa.array(self.start, pa.int32()), pa.array(self.end, pa.int32())],
            fields=list(TOKEN_STRUCT),
        )
        return pa.ListArray.from_arrays(pa.array(self.row_offsets, pa.int32()), values)


def tokenize_flat(texts: pa.Array | pa.ChunkedArray) -> FlatTokens:
    """Tokenize a whole string column at once; row by row this equals
    ``tokenize_text`` (``None`` and ``""`` give no tokens)."""
    buf = TextBuffer(texts)
    cps = buf.codepoints()
    n = cps.size
    ascii_ = cps < 128
    small = np.where(ascii_, cps, 0)
    word = _ASCII_WORD[small] & ascii_
    space = _ASCII_SPACE[small] & ascii_
    if not ascii_.all():
        other = ~ascii_
        uniq, inv = np.unique(cps[other], return_inverse=True)
        space[other] = np.array([chr(c).isspace() for c in uniq], dtype=bool)[inv]
    row_start = np.zeros(n + 1, dtype=bool)
    row_start[buf.cp_offsets[:-1]] = True
    # a word codepoint continues the run of the previous one unless a row
    # starts here
    joins_prev = np.zeros(n, dtype=bool)
    joins_prev[1:] = word[1:] & word[:-1] & ~row_start[1:n]
    single = ~word & ~space
    first = (word & ~joins_prev) | single
    last = single.copy()
    last[:-1] |= word[:-1] & ~joins_prev[1:]
    if n:
        last[-1] |= word[-1]
    g_start = np.flatnonzero(first)
    g_end = np.flatnonzero(last) + 1
    row_offsets = np.searchsorted(g_start, buf.cp_offsets)
    rows = np.repeat(np.arange(buf.n_rows), np.diff(row_offsets))
    base = buf.cp_offsets[rows]
    return FlatTokens(
        source=buf,
        row_offsets=row_offsets.astype(np.int64),
        start=(g_start - base).astype(np.int32),
        end=(g_end - base).astype(np.int32),
        text=take_strings(buf.data, buf.byte_of(g_start), buf.byte_of(g_end)),
    )


def tokenize_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append a ``tokens: list<struct<text,start,end>>`` column (M1)."""
    return batch.append_column("tokens", tokenize_flat(batch[text_col]).list_array())


# a sentence boundary is a .!? run followed by whitespace or end-of-text —
# '.' inside "2.0"/"U.S.A."/URLs is NOT a boundary. Scanning for boundaries
# and slicing between them PARTITIONS the text; the old alternation regex
# silently skipped any prefix containing a non-boundary '.', losing tokens.
_SENT_BOUNDARY_RE = re.compile(r"[.!?]+(?=\s|$)")


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Deterministic sentencizer (the reference uses spaCy's; same contract:
    non-destructive char spans covering the text, split after .!? runs)."""

    def _trimmed(s: int, e: int) -> tuple[int, int]:
        while s < e and text[s].isspace():
            s += 1
        while e > s and text[e - 1].isspace():
            e -= 1
        return s, e

    spans = []
    start = 0
    for m in _SENT_BOUNDARY_RE.finditer(text):
        s, e = _trimmed(start, m.end())
        if s < e:
            spans.append((s, e))
        start = m.end()
    s, e = _trimmed(start, len(text))
    if s < e:
        spans.append((s, e))
    return spans


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Cheap variant: only ``n_tokens: int64`` (for text-analysis queries)."""
    counts = [
        len(_TOKEN_RE.findall(t)) if t else 0 for t in batch[text_col].to_pylist()
    ]
    return batch.append_column("n_tokens", pa.array(counts, pa.int64()))
