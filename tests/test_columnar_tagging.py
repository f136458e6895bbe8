"""The column-wise tagging glue equals the per-row reference functions.

``RuleTagger``/``NeuralTagger`` tokenize, label and assemble spans for a
whole batch at once, and ``FusedAnnotator`` builds its partials with Arrow
group-bys. The per-row functions kept in the library define what they
must compute: ``tokenize_text``, ``tag_tokens``, ``bioes_to_bio``,
``assemble_spans``/``mentions_from_labels``, ``extract_triples_row``, and a
``Counter``/``set`` partials build. The per-turn MENTIONS and TRIPLES rows
(``turn_rows``, which both the partials and ``kg.turn_tables`` build on)
equal those references row for row, in order and with the exact schemas.
In-process; no Ray Data.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuroner_ray.functions.labels import (
    assemble_spans,
    assemble_spans_flat,
    bioes_to_bio,
    label_table,
)
from neuroner_ray.functions.tokenize import tokenize_flat, tokenize_text
from neuroner_ray.pipelines.kg_streamed import _PARTIAL_SCHEMA, FusedAnnotator
from neuroner_ray.schemas import MENTIONS, TRIPLES
from neuroner_ray.sources import synth_transcripts as synth
from neuroner_ray.stages.neural_tagger import NeuralTagger
from neuroner_ray.stages.tagger import RuleTagger, mentions_from_labels, tag_tokens
from neuroner_ray.stages.triples import extract_triples_row, turn_rows
from neuroner_ray.state.model import (
    char_features_unique,
    forward_scores_batch,
    input_tables,
    viterbi_decode,
)

CKPT = os.path.join(os.path.dirname(__file__), "fixtures", "checkpoint")
TURNS = 8192

# hand-built rows that break shortcuts: empty and null texts, unicode
# whitespace and punctuation, astral characters, an entity at the end of
# one row next to one at the start of the next, and mention gaps of
# exactly MAX_GAP_CHARS (40) and 41 characters
ADVERSARIAL = [
    "",
    None,
    "Alice　Johnson\xa0works at\x85Acme Corp\x1c.",
    "«Acme Corp» — partnered with … Globex Inc !",
    "\U0001d518 Alice Johnson met Bob Stone \U0001f642 in Paris",
    "I met Alice",
    "Johnson works at Acme Corp",
    "Bob Stone",
    "Bob Stone visited Paris",
    "Alice Johnson works at" + " " * 31 + "Acme Corp",
    "Alice Johnson works at" + " " * 32 + "Acme Corp",
    "  \t\n ",
    "ACME ACME Acme Corporation acme corp Globex",
]


@pytest.fixture(scope="module")
def turns() -> pa.Table:
    # the first TURNS turns of generate(6000, first_conv=6000), the bench
    # input: generation is per conversation, so 1300 conversations suffice
    tr, _, _ = synth.generate(1300, first_conv=6000)
    assert tr.num_rows >= TURNS
    return tr.slice(0, TURNS).combine_chunks()


def _adversarial_batch() -> pa.Table:
    n = len(ADVERSARIAL)
    return pa.table(
        {
            "conv_id": pa.array([f"c{i // 4}" for i in range(n)], pa.string()),
            "turn_idx": pa.array([i % 4 for i in range(n)], pa.int32()),
            "text": pa.array(ADVERSARIAL, pa.string()),
        }
    )


def _kernel_labels(tagger: NeuralTagger, seqs: list[list[str]]) -> list[list[str]]:
    """Per-row glue around the kernels: ids and char features built row by
    row, one input-table row per token slot (no two slots share a key, so
    no prefix or suffix is shared either), and each row decoded alone by
    the per-sequence ``viterbi_decode`` over its slice of the unaries."""
    p, vocab = tagger.params, tagger.vocab
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    tok_ids, feats = [], []
    for s in seqs:
        tok_ids += [vocab.token_index(t) for t in s]
        feats.append(char_features_unique(p, [vocab.char_indices(t) for t in s]))
    tables = input_tables(p, np.concatenate(feats), np.array(tok_ids, dtype=np.int64))
    U = forward_scores_batch(p, np.arange(len(tok_ids)), tables, lengths)
    off = np.concatenate([[0], np.cumsum(lengths)])
    return [
        [vocab.index_to_label[j] for j in viterbi_decode(U[lo:hi], p["crf_A"])] if hi > lo else []
        for lo, hi in zip(off[:-1], off[1:])
    ]


def _reference(batches: list[pa.Table], kind: str, tagger) -> tuple[list, list, list]:
    """(labels, mentions, sorted partial rows) built one row at a time;
    partials are per batch, like the annotator's."""
    whole = pa.concat_tables(batches)
    texts = whole["text"].to_pylist()
    toks = [tokenize_text(t) if t else [] for t in texts]
    seqs = [[w for w, _, _ in ts] for ts in toks]
    if kind == "rule":
        labels = [tag_tokens(s, tagger.trie) for s in seqs]
    else:
        distinct = list(dict.fromkeys(map(tuple, seqs)))
        tagged = dict(zip(distinct, _kernel_labels(tagger, [list(s) for s in distinct])))
        labels = [bioes_to_bio(tagged[tuple(s)]) for s in seqs]
    mentions = [
        mentions_from_labels(text or "", labs, [s for _, s, _ in ts], [e for _, _, e in ts])
        for text, ts, labs in zip(texts, toks, labels)
    ]
    rows: list[tuple] = []
    lo = 0
    keys = list(zip(whole["conv_id"].to_pylist(), whole["turn_idx"].to_pylist()))
    for b in batches:
        census: Counter = Counter()
        instances: set = set()
        for i in range(lo, lo + b.num_rows):
            census.update((m["ent_type"], m["surface"]) for m in mentions[i])
            for s, p, o, s_t, o_t in extract_triples_row(texts[i] or "", mentions[i]):
                instances.add((s, s_t, p, o, o_t) + keys[i])
        lo += b.num_rows
        rows += [("c", et, sf, n) + (None,) * 7 for (et, sf), n in census.items()]
        rows += [("e", None, None, None) + inst for inst in instances]
    return labels, mentions, sorted(rows, key=repr)


def _reference_turn_tables(batches: list[pa.Table], mentions: list) -> tuple:
    """MENTIONS and TRIPLES tables built one row at a time from the
    per-row mentions and ``extract_triples_row``, in turn order."""
    whole = pa.concat_tables(batches)
    keys = list(zip(whole["conv_id"].to_pylist(), whole["turn_idx"].to_pylist()))
    texts = whole["text"].to_pylist()
    m_rows = [
        {"conv_id": c, "turn_idx": t, **m} for (c, t), ms in zip(keys, mentions) for m in ms
    ]
    t_rows = [
        dict(zip(TRIPLES.names, (c, t, s, p, o, s_t, o_t, 1.0)))
        for (c, t), text, ms in zip(keys, texts, mentions)
        for s, p, o, s_t, o_t in extract_triples_row(text or "", ms)
    ]
    return (
        pa.Table.from_pylist(m_rows, schema=MENTIONS),
        pa.Table.from_pylist(t_rows, schema=TRIPLES),
    )


def _partial_rows(tables: list[pa.Table]) -> list[tuple]:
    t = pa.concat_tables(tables)
    assert t.schema == _PARTIAL_SCHEMA
    return sorted(zip(*(t[c].to_pylist() for c in t.column_names)), key=repr)


def _check(batches: list[pa.Table], kind: str) -> list:
    """Columnar labels, mentions, turn rows and partials == the per-row
    reference; returns the reference mentions."""
    tagger = RuleTagger() if kind == "rule" else NeuralTagger(CKPT)
    annotator = FusedAnnotator(type(tagger), () if kind == "rule" else (CKPT,))
    labels, mentions, partials = _reference(batches, kind, tagger)
    tagged = [tagger(b) for b in batches]
    assert sum((t["labels"].to_pylist() for t in tagged), []) == labels
    assert sum((t["mentions"].to_pylist() for t in tagged), []) == mentions
    assert _partial_rows([annotator(b) for b in batches]) == partials
    rows = [turn_rows(b, tagger.annotate(b)) for b in batches]
    for got, want in zip(zip(*rows), _reference_turn_tables(batches, mentions)):
        got = pa.concat_tables(got)
        assert got.schema == want.schema  # exact types, names and order
        assert got.num_rows == want.num_rows and got.equals(want)
    return mentions


@pytest.mark.parametrize("kind", ["rule", "neural"])
def test_columnar_equals_per_row_reference(turns, kind):
    size = 2048 if kind == "rule" else 4096
    _check([turns.slice(i, size) for i in range(0, turns.num_rows, size)], kind)


@pytest.mark.parametrize("kind", ["rule", "neural"])
def test_columnar_adversarial_batch(kind):
    batch = _adversarial_batch()
    mentions = _check([batch.slice(0, 8), batch.slice(0, 0), batch.slice(8)], kind)
    if kind == "rule":  # the shortcut-breaking cases really arise
        surfaces = [[m["surface"] for m in ms] for ms in mentions]
        assert surfaces[2] == ["Alice　Johnson", "Acme Corp"]
        assert surfaces[5] == [] and surfaces[6] == ["Acme Corp"]  # Alice | Johnson
        assert extract_triples_row(ADVERSARIAL[9], mentions[9])  # 40-char gap
        assert not extract_triples_row(ADVERSARIAL[10], mentions[10])  # 41


@pytest.mark.parametrize("kind", ["rule", "neural"])
def test_turn_rows_of_empty_and_mention_free_batches_are_typed(kind):
    """Zero-row and mention-free batches give typed empty MENTIONS and
    TRIPLES tables; a batch with mentions but no relation gives typed
    empty triples."""
    tagger = RuleTagger() if kind == "rule" else NeuralTagger(CKPT)
    batch = _adversarial_batch()
    # empty, null and whitespace-only texts have no token to tag
    cases = [batch.slice(0, 0), batch.slice(0, 2), batch.slice(11, 1)]
    if kind == "rule":  # the fixture model finds entities in plain words
        cases.append(
            pa.table(
                {
                    "conv_id": pa.array(["c0", "c0"], pa.string()),
                    "turn_idx": pa.array([0, 1], pa.int32()),
                    "text": pa.array(["nothing to see here .", "entirely plain text ."]),
                }
            )
        )
    for b in cases:
        mentions, triples = turn_rows(b, tagger.annotate(b))
        assert mentions.schema == MENTIONS and mentions.num_rows == 0
        assert triples.schema == TRIPLES and triples.num_rows == 0
    mentions, triples = turn_rows(batch.slice(7, 1), tagger.annotate(batch.slice(7, 1)))
    assert mentions.schema == MENTIONS and triples.schema == TRIPLES
    assert triples.num_rows == 0
    if kind == "rule":
        assert mentions["surface"].to_pylist() == ["Bob Stone"]


def test_neural_bioes_codes_map_to_bio(turns):
    """The BIOES→BIO lookup table equals ``bioes_to_bio`` per row, and the
    BIOES labels assemble to the same mentions (S-/E- runs)."""
    batch = turns.slice(0, 2048)
    bio = NeuralTagger(CKPT)(batch)
    bioes = NeuralTagger(CKPT, emit_bio=False)(batch)
    raw = bioes["labels"].to_pylist()
    assert [bioes_to_bio(labs) for labs in raw] == bio["labels"].to_pylist()
    assert any(lab.startswith(("S-", "E-")) for labs in raw for lab in labs)
    assert bioes["mentions"].to_pylist() == bio["mentions"].to_pylist()


def test_pretokenized_batch_equals_text_batch(turns):
    """A ``tokens`` column (the CoNLL path) is read flat, not re-tokenized,
    and tags exactly like the same turns given as text."""
    from neuroner_ray.functions.tokenize import tokenize_batch

    batch = tokenize_batch(turns.slice(0, 512))
    for tagger in (RuleTagger(), NeuralTagger(CKPT)):
        assert tagger(batch).drop_columns(["tokens"]).equals(
            tagger(batch.drop_columns(["tokens"]))
        )


SPAN_ROWS = [
    ["B-PER"],
    ["I-PER", "O"],  # continues nothing: the previous row is closed
    ["O", "I-ORG", "I-ORG"],  # I-X after O starts a span (leniency)
    ["B-LOC", "B-LOC", "I-LOC"],
    ["S-PER", "E-PER", "E-PER"],
    ["B-ORG", "E-ORG", "I-ORG", "S-ORG"],
    [],
    ["I-LOC", "I-PER", "E-PER", "O", "B-TOOL"],
    ["I-TOOL"],
]


def test_span_assembly_matches_reference_and_respects_rows():
    names = sorted({lab for row in SPAN_ROWS for lab in row} | {"O"})
    prefix, ent, types = label_table(names)
    codes = np.array([names.index(lab) for row in SPAN_ROWS for lab in row])
    offsets = np.cumsum([0] + [len(row) for row in SPAN_ROWS])
    first, last = assemble_spans_flat(codes, offsets, prefix, ent)
    got = [
        (int(r), types[ent[codes[f]]], int(f - offsets[r]), int(l - offsets[r]))
        for f, l, r in zip(first, last, np.searchsorted(offsets, first, "right") - 1)
    ]
    want = [
        (r, et, i, j) for r, row in enumerate(SPAN_ROWS) for et, i, j in assemble_spans(row)
    ]
    assert got == want
    # no span may cross a row: B-PER | I-PER and B-TOOL | I-TOOL stay apart
    assert (0, "PER", 0, 0) in got and (1, "PER", 0, 0) in got
    assert (8, "TOOL", 0, 0) in got


# any text an Arrow string column can hold (valid UTF-8: no lone surrogates)
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(list("aZ9_ .,-\t\n\r\x0b\x0c\x1c\x1f\x85\xa0 　é€\U0001d518")),
        st.characters(codec="utf-8"),
    ),
    max_size=24,
)


@given(st.lists(st.one_of(st.none(), _TEXT), max_size=8))
@settings(max_examples=150, deadline=None)
def test_flat_tokenizer_equals_tokenize_text(texts):
    flat = tokenize_flat(pa.array(texts, pa.string()))
    toks = flat.text.to_pylist()
    got = [
        list(zip(toks[a:b], flat.start[a:b].tolist(), flat.end[a:b].tolist()))
        for a, b in zip(flat.row_offsets[:-1], flat.row_offsets[1:])
    ]
    assert got == [tokenize_text(t) if t else [] for t in texts]
