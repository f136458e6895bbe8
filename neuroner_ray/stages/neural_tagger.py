"""T2/T3 as a Ray Data stage: the NumPy BiLSTM-CRF tagger.

Reference inference path: src/train.py::prediction_step (≈L60–L160) — one
sentence at a time through EntityLSTM + viterbi_decode. Here it is a
callable class: ``__init__`` loads weights + vocab (a few ms; the KG
engine builds one per batch in its task stage, ``kg.map_annotator``), and
each Arrow batch of turns is tagged by one BiLSTM call over its distinct
sequences (steps shared along their prefix and suffix tries,
``state.model.forward_scores_batch``) and one Viterbi call over the same
rows (``state.model.viterbi_decode_batch``) — no per-sentence Python
loop over timesteps×rows, and no padded array.

The glue around the kernels is column-wise (see ``stages.tagger``): the
batch is tokenized flat, and token ids, char features and the token
BiLSTM's input projection are computed once per distinct token of the
batch (``state.model.input_tables``). The BiLSTM reads the sequences'
distinct-token indices back to back and returns one row of unary scores
per token, Viterbi decodes those rows in place, and BIOES→BIO is a
lookup table over label codes. Turns with the same token sequence are
tagged once per batch.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.labels import bioes_to_bio
from ..functions.tokenize import FlatTokens, concat_ranges
from ..state.checkpoint import load_checkpoint
from ..state.vocab import UNK
from ..state.model import (
    char_features_unique,
    forward_scores_batch,
    input_tables,
    viterbi_decode_batch,
)
from .tagger import LabelSet, Tagged, tokens_of_batch

# resolved against the repo root (package parent), not the cwd: Ray workers
# and processes launched elsewhere must find the same fixture checkpoint
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DEFAULT_CHECKPOINT = os.path.join(_REPO_ROOT, "tests", "fixtures", "checkpoint")


def resolve_checkpoint(path: str) -> str:
    """cwd-independent checkpoint resolution: absolute paths pass through,
    relative ones resolve against the repo root."""
    return path if os.path.isabs(path) else os.path.join(_REPO_ROOT, path)


class NeuralTagger:
    """``ds.map_batches(NeuralTagger, fn_constructor_args=(ckpt_dir,),
    batch_format="pyarrow", concurrency=N)``, or called on a batch."""

    def __init__(
        self,
        checkpoint_dir: str = DEFAULT_CHECKPOINT,
        emit_bio: bool = True,
    ):
        self.params, self.vocab = load_checkpoint(resolve_checkpoint(checkpoint_dir))
        # inference in float32: identical decisions at these score margins,
        # half the memory bandwidth (the multi-core numpy bottleneck)
        self.params = {
            k: v.astype(np.float32) if v.dtype == np.float64 else v
            for k, v in self.params.items()
        }
        # model label index → output label code: BIOES→BIO is a lookup
        # table, not a per-token string rewrite
        i2l = self.vocab.index_to_label
        names = bioes_to_bio(i2l) if emit_bio else list(i2l)
        uniq = list(dict.fromkeys(names))
        self.labels = LabelSet(uniq)
        self._lut = np.array([uniq.index(n) for n in names], dtype=np.int64)

    def _tag_sequences(self, tokens: FlatTokens, rows: np.ndarray) -> np.ndarray:
        """Label codes of the given rows' tokens, back to back in ``rows``
        order: one BiLSTM call and one Viterbi call over all rows."""
        offsets = tokens.row_offsets
        lengths = offsets[rows + 1] - offsets[rows]
        enc = tokens.text.take(concat_ranges(offsets[rows], lengths)).dictionary_encode()
        at = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        distinct = enc.dictionary.to_pylist()
        t2i = self.vocab.token_to_index
        unk = t2i[UNK]
        tok_ids = np.array([t2i.get(t, unk) for t in distinct], dtype=np.int64)
        char_feats = char_features_unique(
            self.params, [self.vocab.char_indices(t) for t in distinct]
        )
        tables = input_tables(self.params, char_feats, tok_ids)
        U = forward_scores_batch(self.params, at, tables, lengths)
        return self._lut[viterbi_decode_batch(U, self.params["crf_A"], lengths)]

    def _codes(self, tokens: FlatTokens, keys: pa.Array) -> np.ndarray:
        """Label codes of every row, each distinct token sequence tagged
        once: transcripts repeat turn text heavily (~54% duplicate turns in
        the synthetic corpus; greetings/acks dominate real ones too), and
        the tagger is deterministic per token sequence. The sequence keys
        are dictionary-encoded, the first row of each key is tagged, and
        the rows gather their key's codes."""
        enc = keys.dictionary_encode()
        row_key = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        _, first_row = np.unique(row_key, return_index=True)
        codes = self._tag_sequences(tokens, first_row)
        lengths = np.diff(tokens.row_offsets)[first_row]
        starts = np.cumsum(lengths) - lengths
        return codes[concat_ranges(starts[row_key], lengths[row_key])]

    def annotate(self, batch: pa.Table) -> Tagged:
        tokens = tokens_of_batch(batch)
        return Tagged(tokens, self._codes(tokens, _sequence_keys(tokens)), self.labels)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.annotate(batch).append_to(batch)


def _sequence_keys(tokens: FlatTokens) -> pa.Array:
    """One string per row that identifies its token sequence exactly: the
    tokens joined by NUL, after escaping backslash and NUL inside them."""
    esc = pc.replace_substring(tokens.text, "\\", "\\\\")
    esc = pc.replace_substring(esc, "\x00", "\\0")
    lists = pa.ListArray.from_arrays(pa.array(tokens.row_offsets, pa.int32()), esc)
    return pc.binary_join(lists, "\x00")
