"""Model-core tests (SURVEY.md §5): numerical gradient check of the full
BiLSTM-CRF loss, Viterbi vs brute-force enumeration, and batched-inference
parity with the per-sequence path."""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neuroner_ray.state.model import (
    char_features,
    char_features_unique,
    crf_log_likelihood,
    forward_scores,
    forward_scores_batch,
    init_params,
    input_tables,
    sequence_loss_and_grads,
    viterbi_decode,
    viterbi_decode_batch,
)


def _tiny_params(seed=0):
    return init_params(
        n_chars=6, n_tokens=8, n_labels=4,
        char_dim=3, char_hidden=3, token_dim=4, token_hidden=4, ff_dim=4,
        seed=seed,
    )


def _tiny_input(rng):
    T = 5
    tok_ids = rng.randint(0, 8, size=T)
    char_ids = [rng.randint(0, 6, size=rng.randint(1, 5)) for _ in range(T)]
    y = rng.randint(0, 4, size=T)
    return tok_ids, char_ids, y


def test_gradient_check_full_model():
    rng = np.random.RandomState(1)
    p = _tiny_params()
    tok_ids, char_ids, y = _tiny_input(rng)
    _, grads = sequence_loss_and_grads(p, tok_ids, char_ids, y)
    eps = 1e-6
    for name in p:
        g_num = np.zeros_like(p[name])
        flat = p[name].ravel()
        gflat = g_num.ravel()
        idxs = rng.choice(flat.size, size=min(10, flat.size), replace=False)
        for i in idxs:
            old = flat[i]
            flat[i] = old + eps
            lp, _ = _loss_only(p, tok_ids, char_ids, y)
            flat[i] = old - eps
            lm, _ = _loss_only(p, tok_ids, char_ids, y)
            flat[i] = old
            gflat[i] = (lp - lm) / (2 * eps)
        ana = grads[name].ravel()[idxs]
        num = g_num.ravel()[idxs]
        denom = np.maximum(1e-6, np.abs(ana) + np.abs(num))
        rel = np.abs(ana - num) / denom
        assert rel.max() < 1e-4, (name, rel.max(), ana, num)


def _loss_only(p, tok_ids, char_ids, y):
    U, _ = forward_scores(p, tok_ids, char_ids)
    nll, _, _ = crf_log_likelihood(U, p["crf_A"], y)
    return nll, U


def test_crf_partition_is_logsumexp_of_all_paths():
    rng = np.random.RandomState(2)
    T, C = 4, 3
    U = rng.randn(T, C)
    A = rng.randn(C + 2, C + 2)
    y = rng.randint(0, C, size=T)
    nll, _, _ = crf_log_likelihood(U, A, y)
    # brute force logZ and gold score
    scores = []
    for path in itertools.product(range(C), repeat=T):
        s = A[C, path[0]] + U[0, path[0]]
        for t in range(1, T):
            s += A[path[t - 1], path[t]] + U[t, path[t]]
        s += A[path[T - 1], C + 1]
        scores.append(s)
    logZ = np.log(np.exp(scores - np.max(scores)).sum()) + np.max(scores)
    gold = A[C, y[0]] + U[0, y[0]]
    for t in range(1, T):
        gold += A[y[t - 1], y[t]] + U[t, y[t]]
    gold += A[y[T - 1], C + 1]
    assert nll == pytest.approx(logZ - gold, rel=1e-10)


def test_viterbi_vs_brute_force():
    rng = np.random.RandomState(3)
    for _ in range(20):
        T, C = rng.randint(1, 6), rng.randint(2, 5)
        U = rng.randn(T, C)
        A = rng.randn(C + 2, C + 2)
        best_path, best_score = None, -np.inf
        for path in itertools.product(range(C), repeat=T):
            s = A[C, path[0]] + U[0, path[0]]
            for t in range(1, T):
                s += A[path[t - 1], path[t]] + U[t, path[t]]
            s += A[path[T - 1], C + 1]
            if s > best_score:
                best_score, best_path = s, path
        got = viterbi_decode(U, A)
        assert tuple(got) == best_path


def test_batched_inference_matches_sequential():
    """Batched kernels (per-distinct-token input tables, one level-wise
    recurrence over the rows' prefix and suffix tries) equal per-sequence
    forward_scores + viterbi_decode in float64, unaries and paths. The rows
    share prefixes and suffixes, one is a strict prefix and one a strict
    suffix of another, one appears twice, one has length 1 and one length
    0, and they are not sorted by length; tokens repeat within and across
    rows, and the UNK token (id 0) and a token with no characters occur.
    Run once as is (every trie stops sharing before its last depth) and
    once with the longest row repeated (its last depth is still shared)."""
    rng = np.random.RandomState(4)
    p = _tiny_params(seed=5)
    p["crf_A"] = rng.randn(*p["crf_A"].shape)
    # distinct tokens: (token id, char ids); 0 is UNK, 3 has no characters
    distinct = [
        (0, np.array([1, 2])),
        (5, np.array([3])),
        (2, np.array([4, 4, 1, 5])),
        (7, np.array([], dtype=np.int64)),
        (3, np.array([2, 5, 1])),
        (1, np.array([0, 3])),
    ]
    seqs = [
        [2, 4, 4, 1, 0],
        [3],
        [5, 2, 2, 3, 0, 1, 4, 2],
        [1, 1],
        [2, 4, 5, 3],  # shares the prefix [2, 4] with row 0
        [],
        [1, 3, 0, 1, 4, 2],  # shares the suffix [3, 0, 1, 4, 2] with row 2
        [2, 4, 4],  # strict prefix of row 0
        [1, 1],  # row 3 again
        [4, 0, 3, 5, 2, 4, 1],
        [4, 2],  # strict suffix of row 2
        [0, 2, 5],
    ]
    tok_ids = np.array([t for t, _ in distinct])
    char_ids = [c for _, c in distinct]
    for rows in (seqs, seqs + [seqs[2]]):
        _check_batched(p, tok_ids, char_ids, rows)


def _check_batched(p, tok_ids, char_ids, seqs):
    lengths = np.array([len(s) for s in seqs])
    off = np.concatenate([[0], np.cumsum(lengths)])
    at = np.concatenate([np.array(s, dtype=np.int64) for s in seqs])
    feats = char_features_unique(p, char_ids)
    tables = input_tables(p, feats, tok_ids)
    U = forward_scores_batch(p, at, tables, lengths)
    assert U.shape == (at.size, p["out_b"].size)
    path = viterbi_decode_batch(U, p["crf_A"], lengths)
    assert path.shape == (at.size,)
    for i, s in enumerate(seqs):
        if not s:
            continue
        U_seq, _ = forward_scores(p, tok_ids[s], [char_ids[k] for k in s])
        np.testing.assert_allclose(U[off[i] : off[i + 1]], U_seq, rtol=1e-12, atol=1e-12)
        assert list(path[off[i] : off[i + 1]]) == list(viterbi_decode(U_seq, p["crf_A"]))


@settings(max_examples=100, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 12), max_size=10),
    C=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
@example(lengths=[0, 0, 0], C=3, seed=0)  # every row empty
@example(lengths=[1], C=4, seed=1)  # one row of length 1
@example(lengths=[5, 1, 12, 3, 9, 0, 2, 11, 7, 4, 10, 6, 8], C=5, seed=2)  # a row ends at every depth
@example(lengths=[2, 7, 7, 1, 7, 0, 4], C=3, seed=3)  # ties, unsorted
@example(lengths=[6, 1, 9, 4], C=300, seed=4)  # back-pointers above one byte
def test_flat_viterbi_matches_per_row(lengths, C, seed):
    """The flat ``viterbi_decode_batch`` over rows laid back to back equals
    the per-row ``viterbi_decode`` of each row's slice, on random float64
    unaries and transitions (NumPy only). With 300 labels a back-pointer
    needs two bytes."""
    rng = np.random.RandomState(seed)
    U = rng.randn(sum(lengths), C)
    A = rng.randn(C + 2, C + 2)
    path = viterbi_decode_batch(U, A, np.array(lengths, dtype=np.int64))
    assert path.shape == (U.shape[0],)
    off = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    for i in range(len(lengths)):
        if lengths[i]:
            want = viterbi_decode(U[off[i] : off[i + 1]], A)
            assert list(path[off[i] : off[i + 1]]) == list(want), (i, lengths)


def test_char_features_unique_matches_per_token():
    """The char BiLSTM over distinct tokens whose characters share prefixes
    and suffixes (ab, abc, cab, b, bab) and a token with no characters
    equals the per-token ``char_features`` in float64."""
    p = _tiny_params(seed=6)
    a, b, c = 1, 2, 3
    tokens = [[a, b], [a, b, c], [c, a, b], [b], [], [b, a, b]]
    ids = [np.array(t, dtype=np.int64) for t in tokens]
    got = char_features_unique(p, ids)
    want, _ = char_features(p, ids)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert not got[4].any()


def test_tagger_matches_per_sentence_predict():
    """The batch tagger (float32, flat Viterbi, per-batch sequence dedup) labels the first 512
    distinct token sequences of the benchmark input exactly as
    ``state.train.predict``, the float64 one-sentence-at-a-time reference."""
    import pyarrow as pa

    from neuroner_ray.functions.tokenize import tokenize_text
    from neuroner_ray.sources import synth_transcripts as synth
    from neuroner_ray.stages.neural_tagger import NeuralTagger
    from neuroner_ray.state.checkpoint import load_checkpoint
    from neuroner_ray.state.train import predict

    ckpt = os.path.join(os.path.dirname(__file__), "fixtures", "checkpoint_bench")
    tr, _, _ = synth.generate(100, first_conv=6000)
    first_text: dict[tuple, str] = {}
    for text in tr["text"].to_pylist():
        seq = tuple(w for w, _, _ in tokenize_text(text)) if text else ()
        if seq:
            first_text.setdefault(seq, text)
    assert len(first_text) >= 512
    seqs = list(first_text)[:512]
    texts = [first_text[s] for s in seqs]
    tagged = NeuralTagger(ckpt, emit_bio=False).annotate(pa.table({"text": texts}))
    names = tagged.labels.names.take(tagged.codes).to_pylist()
    off = tagged.tokens.row_offsets
    params, vocab = load_checkpoint(ckpt)
    for i, seq in enumerate(seqs):
        assert names[off[i] : off[i + 1]] == predict(params, vocab, list(seq)), seq


@pytest.mark.parametrize("n_long", [5000, 1645])
def test_long_turn_among_bench_turns_tagged_as_alone(n_long):
    """A long turn among 2,000 benchmark turns is labelled exactly as when
    it is tagged alone, and tagging the batch stays under 40 MB of traced
    allocations: the trie levels and the flat Viterbi cost O(tokens), where
    one padded [rows, max length] index array alone would take 80 MB at
    5,000 tokens. At 1,645 tokens, padding the long row together with a
    few hundred short rows to its length would exceed the bound."""
    import tracemalloc

    import pyarrow as pa

    from neuroner_ray.functions.tokenize import tokenize_text
    from neuroner_ray.sources import synth_transcripts as synth
    from neuroner_ray.stages.neural_tagger import NeuralTagger

    ckpt = os.path.join(os.path.dirname(__file__), "fixtures", "checkpoint_bench")
    texts = synth.generate(400, first_conv=6000)[0]["text"].to_pylist()
    words: list[str] = []
    for text in texts[2000:]:
        words += [w for w, _, _ in tokenize_text(text or "")]
    long_turn = " ".join(words[:n_long])
    batch = pa.table({"text": texts[:1000] + [long_turn] + texts[1000:2000]})
    tagger = NeuralTagger(ckpt)
    tracemalloc.start()
    try:
        tagged = tagger.annotate(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, peak
    alone = NeuralTagger(ckpt).annotate(pa.table({"text": [long_turn]}))
    off = tagged.tokens.row_offsets
    assert off[1001] - off[1000] == n_long
    assert np.array_equal(tagged.codes[off[1000] : off[1001]], alone.codes)
