"""Sequence-tagging stages: gazetteer rule tagger + column-wise span assembly.

The reference's inference path (EP2: src/train.py::prediction_step ≈L60–L160
over an EntityLSTM) is embarrassingly parallel over sentences; here it is a
``map_batches`` stage over Arrow batches of turns. Two tagger
implementations share the same contract (tokens in → BIO labels out):

- ``RuleTagger`` (this module): deterministic gazetteer longest-match —
  the skeleton tagger from SURVEY.md §7 step 1, and the gold-parity tagger
  for the synthetic corpus.
- ``NeuralTagger`` (``neuroner_ray.state.model``): the NumPy BiLSTM-CRF
  reimplementation of src/entity_lstm.py::EntityLSTM (SURVEY.md §2.3 T2/T3).

Both work column-wise on a whole batch: ``annotate`` tokenizes the batch
flat (``tokenize_flat``, or the ``tokens`` column when present), gives
every token a label code and assembles mention spans by run-length over
the codes — a ``Tagged`` result with no per-row Python. ``__call__``
renders it as the public ``labels``/``mentions`` columns. The pipelines
consume the ``Tagged`` result directly: ``stages.triples.turn_rows`` turns
it into the per-turn MENTIONS and TRIPLES rows that both the engine's
``FusedAnnotator`` and ``pipelines.kg.turn_tables`` build on.
``tag_tokens``/``mentions_from_labels`` are the per-row reference forms.

Both are callable classes whose setup (trie build / weight load) costs a
few ms: the KG engine builds them per batch inside a task stage on Ray's
warm worker pool (``pipelines.kg.map_annotator``), which is cheaper than
starting actors in fresh processes on every call.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.labels import assemble_spans, assemble_spans_flat, label_table
from ..functions.tokenize import (
    FlatTokens,
    TextBuffer,
    concat_ranges,
    tokenize_flat,
    tokenize_text,
)
from ..schemas import MENTION_STRUCT
from ..sources.synth_transcripts import GAZETTEER


def build_trie(
    gazetteer: dict[str, list[str]] | None = None,
) -> dict[str, list[tuple[tuple[str, ...], str]]]:
    """first-token → [(token_tuple, ent_type)], longest first."""
    gazetteer = gazetteer if gazetteer is not None else GAZETTEER
    trie: dict[str, list[tuple[tuple[str, ...], str]]] = {}
    for ent_type, surfaces in gazetteer.items():
        for surf in surfaces:
            toks = tuple(t for t, _, _ in tokenize_text(surf))
            if not toks:
                continue
            trie.setdefault(toks[0], []).append((toks, ent_type))
    for cands in trie.values():
        cands.sort(key=lambda c: (-len(c[0]), c[0]))
    return trie


def tag_tokens(
    token_texts: list[str],
    trie: dict[str, list[tuple[tuple[str, ...], str]]],
) -> list[str]:
    """Greedy longest-match gazetteer tagging → BIO labels."""
    n = len(token_texts)
    labels = ["O"] * n
    i = 0
    while i < n:
        matched = False
        for toks, ent_type in trie.get(token_texts[i], ()):
            ln = len(toks)
            if i + ln <= n and tuple(token_texts[i : i + ln]) == toks:
                labels[i] = "B-" + ent_type
                for k in range(i + 1, i + ln):
                    labels[k] = "I-" + ent_type
                i += ln
                matched = True
                break
        if not matched:
            i += 1
    return labels


def mentions_from_labels(
    text: str,
    labels: list[str],
    starts: list[int],
    ends: list[int],
) -> list[dict]:
    """M3 span assembly applied per turn: labels+offsets → char-span mentions."""
    out = []
    for ent_type, ti, tj in assemble_spans(labels):
        cs, ce = starts[ti], ends[tj]
        out.append(
            {"ent_type": ent_type, "start": cs, "end": ce, "surface": text[cs:ce]}
        )
    return out


def tokens_of_batch(batch: pa.Table) -> FlatTokens:
    """The batch's tokens, flat: the ``tokens`` column when the batch was
    pre-tokenized (read via ``list_flatten`` + parent indices), else the
    ``text`` column tokenized in one pass."""
    if "tokens" not in batch.column_names:
        return tokenize_flat(batch["text"])
    col = batch["tokens"].combine_chunks()
    flat = pc.list_flatten(col)
    per_row = np.bincount(
        pc.list_parent_indices(col).to_numpy(zero_copy_only=False), minlength=len(col)
    )
    row_offsets = np.zeros(len(col) + 1, dtype=np.int64)
    np.cumsum(per_row, out=row_offsets[1:])
    start, end = (
        pc.struct_field(flat, f).to_numpy(zero_copy_only=False).astype(np.int32)
        for f in ("start", "end")
    )
    return FlatTokens(
        source=TextBuffer(batch["text"]),
        row_offsets=row_offsets,
        start=start,
        end=end,
        text=pc.struct_field(flat, "text"),
    )


class LabelSet:
    """A tagger's label dictionary: label code → name, span prefix, type."""

    def __init__(self, names: list[str]):
        self.names = pa.array(names, pa.string())
        self.prefix, self.ent, types = label_table(names)
        self.types = pa.array(types, pa.string())


class Tagged:
    """Column-wise tagger output for one batch: flat tokens, one label code
    per token, and the mentions assembled from them (flat, in row order;
    ``mention_rows`` says whose)."""

    def __init__(self, tokens: FlatTokens, codes: np.ndarray, labels: LabelSet):
        self.tokens = tokens
        self.codes = codes
        self.labels = labels
        first, last = assemble_spans_flat(
            codes, tokens.row_offsets, labels.prefix, labels.ent
        )
        self.first_token, self.last_token = first, last
        self.mention_rows = np.searchsorted(tokens.row_offsets, first, side="right") - 1
        self.mention_start = tokens.start[first]
        self.mention_end = tokens.end[last]
        self.mention_type = labels.types.take(labels.ent[codes[first]])
        self.surface = tokens.source.substrings(
            self.mention_rows, self.mention_start, self.mention_end
        )

    def append_to(self, batch: pa.Table) -> pa.Table:
        """``batch`` + ``labels: list<string>`` + ``mentions: list<struct>``."""
        n_rows = self.tokens.row_offsets.size - 1
        mention_offsets = np.searchsorted(self.mention_rows, np.arange(n_rows + 1))
        mentions = pa.StructArray.from_arrays(
            [
                self.mention_type,
                pa.array(self.mention_start, pa.int32()),
                pa.array(self.mention_end, pa.int32()),
                self.surface,
            ],
            fields=list(MENTION_STRUCT),
        )
        batch = batch.append_column(
            "labels",
            pa.ListArray.from_arrays(
                pa.array(self.tokens.row_offsets, pa.int32()),
                self.labels.names.take(self.codes),
            ),
        )
        return batch.append_column(
            "mentions",
            pa.ListArray.from_arrays(pa.array(mention_offsets, pa.int32()), mentions),
        )


class RuleTagger:
    """Tagger: turns → +labels +mentions (gazetteer longest-match).

    Call it on a batch, or map it as ``ds.map_batches(RuleTagger,
    batch_format="pyarrow", concurrency=N)``. Accepts raw turns (tokenizes
    inline — the fused fast path) or pre-tokenized batches with a
    ``tokens`` column.

    Matching is ``tag_tokens`` column-wise: every position whose token
    starts a gazetteer surface takes its first matching candidate (trie
    order: longest first), then overlapping matches resolve greedily left
    to right — a fixed-point pass over the matches, not over the tokens.
    """

    def __init__(self, gazetteer: dict[str, list[str]] | None = None):
        self.trie = build_trie(gazetteer)
        types = sorted({et for cands in self.trie.values() for _, et in cands})
        self.labels = LabelSet(["O"] + [p + t for t in types for p in ("B-", "I-")])
        vocab = sorted({t for cands in self.trie.values() for toks, _ in cands for t in toks})
        self._vocab = pa.array(vocab, pa.string())
        tid = {t: i for i, t in enumerate(vocab)}
        # patterns in trie order; _by_first[token id] = its candidates
        self._pat_ids: list[np.ndarray] = []
        self._by_first: dict[int, list[int]] = {}
        pat_type = []
        for first, cands in self.trie.items():
            for toks, et in cands:
                self._by_first.setdefault(tid[first], []).append(len(self._pat_ids))
                self._pat_ids.append(np.array([tid[t] for t in toks], dtype=np.int64))
                pat_type.append(types.index(et))
        self._pat_len = np.array([p.size for p in self._pat_ids], dtype=np.int64)
        self._pat_type = np.array(pat_type, dtype=np.int64)

    def _codes(self, tokens: FlatTokens) -> np.ndarray:
        n = len(tokens.text)
        tid = (
            pc.index_in(tokens.text, value_set=self._vocab)
            .fill_null(-1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        row_end = tokens.row_offsets[1:][tokens.rows]
        best = np.full(n, -1, dtype=np.int64)
        cand = np.flatnonzero(tid >= 0)
        for first in np.unique(tid[cand]):
            pos = cand[tid[cand] == first]
            # lowest priority first, so the first matching candidate wins
            for pid in reversed(self._by_first.get(int(first), ())):
                pat = self._pat_ids[pid]
                ok = pos + pat.size <= row_end[pos]
                for k in range(1, pat.size):
                    ok &= tid[np.minimum(pos + k, n - 1)] == pat[k]
                best[pos[ok]] = pid
        start = np.flatnonzero(best >= 0)
        stop = start + self._pat_len[best[start]]
        keep = np.ones(start.size, dtype=bool)
        while True:  # converges in (longest overlap chain) rounds
            reach = np.maximum.accumulate(np.where(keep, stop, 0))
            nxt = np.ones_like(keep)
            nxt[1:] = start[1:] >= reach[:-1]
            if np.array_equal(nxt, keep):
                break
            keep = nxt
        start = start[keep]
        pid = best[start]
        inner = self._pat_len[pid] - 1
        codes = np.zeros(n, dtype=np.int64)  # "O"
        codes[concat_ranges(start + 1, inner)] = np.repeat(2 + 2 * self._pat_type[pid], inner)
        codes[start] = 1 + 2 * self._pat_type[pid]
        return codes

    def annotate(self, batch: pa.Table) -> Tagged:
        tokens = tokens_of_batch(batch)
        return Tagged(tokens, self._codes(tokens), self.labels)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.annotate(batch).append_to(batch)
