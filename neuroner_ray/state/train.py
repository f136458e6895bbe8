"""Tiny driver-side trainer (SURVEY.md T4/T6) — produces the frozen fixture
checkpoint the neural tagger loads.

Reference: src/train.py::train_step (≈L20–L60) — one sentence per SGD step,
gradient clipping by value 5.0, dropout 0.5 on the token-LSTM input;
src/main.py epoch loop (≈L330–L450) — per-epoch shuffle, valid-set conlleval
F1 early stopping with patience. Training is NOT a dataflow op (the
reference is sequential here too); it runs once on the synthetic fixture
corpus to freeze ``tests/fixtures/checkpoint/``.
"""

from __future__ import annotations

import numpy as np

from ..functions.conlleval import evaluate
from ..functions.labels import bio_to_bioes, spans_to_bio
from ..functions.tokenize import tokenize_text
from ..sources.synth_transcripts import conv_len, gen_turn
from .model import (
    forward_scores,
    init_params,
    sequence_loss_and_grads,
    viterbi_decode,
)
from .vocab import Vocab, build_vocab


def make_corpus(
    n_convs: int, first_conv: int = 0
) -> tuple[list[list[str]], list[list[str]]]:
    """Synthetic tagged corpus (FIXTURES.md F2): sentences + gold BIO labels,
    exact by construction from the generator's entity placements."""
    sents: list[list[str]] = []
    labels: list[list[str]] = []
    for i in range(first_conv, first_conv + n_convs):
        cid = f"conv{i:06d}"
        for t in range(conv_len(cid)):
            text, mentions, _ = gen_turn(cid, t)
            if not text:
                continue
            toks = tokenize_text(text)
            spans = [(m["ent_type"], m["start"], m["end"]) for m in mentions]
            bio = spans_to_bio([(s, e) for _, s, e in toks], spans)
            sents.append([t for t, _, _ in toks])
            labels.append(bio)
    return sents, labels


def encode(
    vocab: Vocab, sents: list[list[str]], labels: list[list[str]]
) -> list[tuple[np.ndarray, list[np.ndarray], np.ndarray]]:
    out = []
    for sent, labs in zip(sents, labels):
        tok_ids = np.array([vocab.token_index(t) for t in sent], dtype=np.int64)
        char_ids = [vocab.char_indices(t) for t in sent]
        y = np.array([vocab.label_to_index[l] for l in labs], dtype=np.int64)
        out.append((tok_ids, char_ids, y))
    return out


def predict(params: dict, vocab: Vocab, sent: list[str]) -> list[str]:
    tok_ids = np.array([vocab.token_index(t) for t in sent], dtype=np.int64)
    char_ids = [vocab.char_indices(t) for t in sent]
    U, _ = forward_scores(params, tok_ids, char_ids)
    path = viterbi_decode(U, params["crf_A"])
    return [vocab.index_to_label[i] for i in path]


def train(
    train_sents: list[list[str]],
    train_labels: list[list[str]],
    valid_sents: list[list[str]],
    valid_labels: list[list[str]],
    tagging_format: str = "bioes",
    learning_rate: float = 0.05,
    gradient_clipping_value: float = 5.0,
    dropout_rate: float = 0.5,
    patience: int = 3,
    maximum_number_of_epochs: int = 30,
    seed: int = 42,
    verbose: bool = False,
    pretrained_embeddings: dict[str, np.ndarray] | None = None,
) -> tuple[dict, Vocab, dict]:
    """Returns (best params, vocab, history). Parameter names mirror the
    reference's parameters.ini [training]/[advanced] sections.

    ``pretrained_embeddings`` is the reference's default path
    (src/entity_lstm.py::load_pretrained_token_embeddings ≈L200–L250): the
    token embedding matrix initializes from the GloVe dict through the M7
    lookup cascade (J1 broadcast join), misses keep their random init; the
    A5 match-category stats land in the returned history dict.
    """
    valid_eval_labels = valid_labels  # always scored in BIO (M6 remap)
    if tagging_format == "bioes":
        train_labels = [bio_to_bioes(l) for l in train_labels]
    vocab = build_vocab(train_sents, train_labels)
    data = encode(vocab, train_sents, train_labels)
    params = init_params(
        n_chars=vocab.n_chars, n_tokens=vocab.n_tokens, n_labels=vocab.n_labels,
        seed=seed,
    )
    embedding_stats: dict[str, int] | None = None
    if pretrained_embeddings is not None:
        from .vocab import build_embedding_matrix

        M, embedding_stats = build_embedding_matrix(
            vocab, pretrained_embeddings, dim=params["tok_emb"].shape[1], seed=seed
        )
        params["tok_emb"] = M
    rng = np.random.RandomState(seed)
    best_f1 = -1.0
    best_params = None
    best_epoch = -1
    history = []
    in_dim = params["tok_Wx_f"].shape[0]
    for epoch in range(maximum_number_of_epochs):
        order = rng.permutation(len(data))
        total = 0.0
        for si in order:
            tok_ids, char_ids, y = data[si]
            mask = (
                rng.binomial(1, 1 - dropout_rate, size=(len(tok_ids), in_dim))
                / (1 - dropout_rate)
            )
            nll, grads = sequence_loss_and_grads(params, tok_ids, char_ids, y, mask)
            total += nll
            for k, g in grads.items():
                np.clip(g, -gradient_clipping_value, gradient_clipping_value, out=g)
                params[k] -= learning_rate * g
        # valid F1 (predict BIOES → remap to BIO for scoring, M6)
        from ..functions.labels import bioes_to_bio

        preds = [
            bioes_to_bio(predict(params, vocab, s)) for s in valid_sents
        ]
        m = evaluate(valid_eval_labels, preds)
        history.append({"epoch": epoch, "loss": total / len(data), "f1": m["fb1"]})
        if verbose:
            print(f"epoch {epoch}: loss={total/len(data):.4f} valid F1={m['fb1']:.2f}")
        if m["fb1"] > best_f1:
            best_f1 = m["fb1"]
            best_params = {k: v.copy() for k, v in params.items()}
            best_epoch = epoch
        if epoch - best_epoch >= patience:
            break
        if best_f1 >= 100.0:
            break
    return best_params, vocab, {
        "history": history,
        "best_f1": best_f1,
        "embedding_stats": embedding_stats,
    }
