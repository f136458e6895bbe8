"""NumPy reimplementation of the reference's BiLSTM-CRF sequence tagger.

Reference: src/entity_lstm.py::EntityLSTM (≈L15–L250) — character BiLSTM
(final fwd/bwd states concatenated) + token embedding → dropout → token
BiLSTM → tanh feed-forward → linear unary scores → CRF with start/end
states; decode via Viterbi (src/train.py::prediction_step ≈L60–L160 using
tf.contrib.crf.viterbi_decode). No TF/torch exists in this environment, so
forward, analytic gradients (for the fixture trainer) and Viterbi are
implemented directly in numpy; gradients are verified against numerical
differentiation in tests/test_model.py.

Two forward paths:
- per-sequence (training; exact gradients)
- batched (inference; the batch tagger): each LSTM input term X@Wx + b
  is computed once per key (character, or distinct token of a batch) into
  a table. Rows of keys, laid back to back with no padding, share LSTM
  steps: the forward direction runs over the rows' prefix trie and the
  backward one over their suffix trie, one step per depth for all of that
  depth's distinct prefixes (suffixes) at once. Viterbi steps the same
  rows level-wise over their flat unary scores (``viterbi_decode_batch``)
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# LSTM primitive (single sequence)
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # maximum/minimum are bit-identical to np.clip(x, -50, 50), and on
    # numpy 1.26 several times faster (clip's loop is not vectorized)
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -50), 50)))


def lstm_forward(X: np.ndarray, Wx: np.ndarray, Wh: np.ndarray, b: np.ndarray):
    """X:[T,D] → hs:[T,H]; gate order (i, f, o, g) along the 4H axis."""
    T, D = X.shape
    H = Wh.shape[0]
    hs = np.zeros((T, H))
    cs = np.zeros((T, H))
    cache = []
    h = np.zeros(H)
    c = np.zeros(H)
    for t in range(T):
        z = X[t] @ Wx + h @ Wh + b
        i = _sigmoid(z[:H])
        f = _sigmoid(z[H : 2 * H])
        o = _sigmoid(z[2 * H : 3 * H])
        g = np.tanh(z[3 * H :])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        cache.append((X[t], h, c, i, f, o, g, c_new))
        h, c = h_new, c_new
        hs[t] = h
        cs[t] = c
    return hs, (cache, Wx, Wh, b)


def lstm_backward(dhs: np.ndarray, fwd_cache):
    """dhs:[T,H] grads wrt each h_t → (dX, dWx, dWh, db)."""
    cache, Wx, Wh, b = fwd_cache
    T = len(cache)
    H = dhs.shape[1]
    D = Wx.shape[0]
    dX = np.zeros((T, D))
    dWx = np.zeros_like(Wx)
    dWh = np.zeros_like(Wh)
    db = np.zeros_like(b)
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    for t in range(T - 1, -1, -1):
        x, h_prev, c_prev, i, f, o, g, c_new = cache[t]
        dh = dhs[t] + dh_next
        tanh_c = np.tanh(c_new)
        do = dh * tanh_c
        dc = dh * o * (1 - tanh_c**2) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = np.concatenate(
            [
                di * i * (1 - i),
                df * f * (1 - f),
                do * o * (1 - o),
                dg * (1 - g**2),
            ]
        )
        dX[t] = dz @ Wx.T
        dWx += np.outer(x, dz)
        dWh += np.outer(h_prev, dz)
        db += dz
        dh_next = dz @ Wh.T
        dc_next = dc * f
    return dX, dWx, dWh, db


# ---------------------------------------------------------------------------
# CRF (start/end augmented, as in tf.contrib.crf usage by the reference)
# ---------------------------------------------------------------------------


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def crf_log_likelihood(U: np.ndarray, A: np.ndarray, y: np.ndarray):
    """U:[T,C] unary, A:[C+2,C+2] transitions (row→col; index C = start,
    C+1 = end), y:[T] gold. Returns (nll, dU, dA) — gradients of the NLL.
    """
    T, C = U.shape
    start, end = C, C + 1
    # forward
    alpha = np.zeros((T, C))
    alpha[0] = U[0] + A[start, :C]
    for t in range(1, T):
        alpha[t] = U[t] + _logsumexp(alpha[t - 1][:, None] + A[:C, :C], axis=0)
    logZ = _logsumexp(alpha[T - 1] + A[:C, end], axis=0)
    # gold score
    score = U[np.arange(T), y].sum() + A[start, y[0]] + A[y[T - 1], end]
    score += A[y[:-1], y[1:]].sum() if T > 1 else 0.0
    nll = logZ - score
    # backward (beta) for marginals
    beta = np.zeros((T, C))
    beta[T - 1] = A[:C, end]
    for t in range(T - 2, -1, -1):
        beta[t] = _logsumexp(A[:C, :C] + (U[t + 1] + beta[t + 1])[None, :], axis=1)
    # unary marginals
    logp = alpha + beta - logZ
    P = np.exp(logp)  # [T, C]
    dU = P.copy()
    dU[np.arange(T), y] -= 1.0
    # transition marginals
    dA = np.zeros_like(A)
    for t in range(T - 1):
        M = (
            alpha[t][:, None]
            + A[:C, :C]
            + U[t + 1][None, :]
            + beta[t + 1][None, :]
            - logZ
        )
        dA[:C, :C] += np.exp(M)
    if T > 1:
        np.add.at(dA, (y[:-1], y[1:]), -1.0)
    dA[start, :C] += P[0]
    dA[start, y[0]] -= 1.0
    dA[:C, end] += np.exp(alpha[T - 1] + A[:C, end] - logZ)
    dA[y[T - 1], end] -= 1.0
    return nll, dU, dA


def viterbi_decode(U: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Max-product decode with start/end transitions. U:[T,C] → path [T]."""
    T, C = U.shape
    start, end = C, C + 1
    delta = U[0] + A[start, :C]
    back = np.zeros((T, C), dtype=np.int64)
    for t in range(1, T):
        scores = delta[:, None] + A[:C, :C]
        back[t] = scores.argmax(axis=0)
        delta = U[t] + scores.max(axis=0)
    delta = delta + A[:C, end]
    path = np.zeros(T, dtype=np.int64)
    path[T - 1] = delta.argmax()
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path


def viterbi_decode_batch(U: np.ndarray, A: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Viterbi over rows of unary scores laid back to back. U:[N,C] (row r
    is the next ``lengths[r]`` positions) → label path [N], one per
    position. One step per depth for every row still alive there (rows
    longest first), back-pointers per flat position in the smallest
    unsigned dtype that holds C-1; no padded array is built."""
    lengths = np.asarray(lengths, dtype=np.int64)
    N, C = U.shape
    path = np.zeros(N, dtype=np.int64)
    if N == 0:
        return path
    start, alive = _rows_longest_first(lengths)
    back = np.empty((N, C), dtype=np.min_scalar_type(C - 1))
    delta = U[start[: alive[0]]] + A[C, :C]
    final = np.empty((alive[0], C))  # each row's last delta, float64 as the end add
    for t in range(1, alive.size):
        n = alive[t]
        final[n : len(delta)] = delta[n:]  # rows that ended at depth t-1
        pos = start[:n] + t
        scores = delta[:n, :, None] + A[:C, :C]  # [n, C_prev, C]
        amax = scores.argmax(axis=1)
        back[pos] = amax
        # max gathered at the argmax — one pass over [n,C,C] instead of two
        delta = U[pos] + np.take_along_axis(scores, amax[:, None, :], axis=1)[:, 0, :]
    final[: len(delta)] = delta
    # each row's last position: longest-first lengths are the sorted lengths
    last = start[: alive[0]] + np.sort(lengths)[::-1][: alive[0]] - 1
    path[last] = (final + A[:C, C + 1]).argmax(axis=1)
    for t in range(alive.size - 1, 0, -1):
        pos = start[: alive[t]] + t
        path[pos - 1] = back[pos, path[pos]]
    return path


# ---------------------------------------------------------------------------
# The full model
# ---------------------------------------------------------------------------


def init_params(
    n_chars: int,
    n_tokens: int,
    n_labels: int,
    char_dim: int = 8,
    char_hidden: int = 8,
    token_dim: int = 16,
    token_hidden: int = 16,
    ff_dim: int = 16,
    seed: int = 42,
) -> dict[str, np.ndarray]:
    """Glorot-ish init of every weight (matching the reference's parameter
    groups: char embeddings/LSTM, token embeddings/LSTM, feedforward, CRF)."""
    rng = np.random.RandomState(seed)

    def W(*shape):
        lim = np.sqrt(6.0 / sum(shape))
        return rng.uniform(-lim, lim, size=shape)

    tok_in = 2 * char_hidden + token_dim
    p = {
        "char_emb": W(n_chars, char_dim),
        "char_Wx_f": W(char_dim, 4 * char_hidden),
        "char_Wh_f": W(char_hidden, 4 * char_hidden),
        "char_b_f": np.zeros(4 * char_hidden),
        "char_Wx_b": W(char_dim, 4 * char_hidden),
        "char_Wh_b": W(char_hidden, 4 * char_hidden),
        "char_b_b": np.zeros(4 * char_hidden),
        "tok_emb": W(n_tokens, token_dim),
        "tok_Wx_f": W(tok_in, 4 * token_hidden),
        "tok_Wh_f": W(token_hidden, 4 * token_hidden),
        "tok_b_f": np.zeros(4 * token_hidden),
        "tok_Wx_b": W(tok_in, 4 * token_hidden),
        "tok_Wh_b": W(token_hidden, 4 * token_hidden),
        "tok_b_b": np.zeros(4 * token_hidden),
        "ff_W": W(2 * token_hidden, ff_dim),
        "ff_b": np.zeros(ff_dim),
        "out_W": W(ff_dim, n_labels),
        "out_b": np.zeros(n_labels),
        "crf_A": np.zeros((n_labels + 2, n_labels + 2)),
    }
    return p


def char_features(p: dict, char_ids: list[np.ndarray]) -> tuple[np.ndarray, list]:
    """Per-token char BiLSTM: final fwd state ++ final bwd state."""
    feats = []
    caches = []
    H = p["char_Wh_f"].shape[0]
    for ids in char_ids:
        if len(ids) == 0:
            feats.append(np.zeros(2 * H))
            caches.append(None)
            continue
        E = p["char_emb"][ids]
        hf, cf = lstm_forward(E, p["char_Wx_f"], p["char_Wh_f"], p["char_b_f"])
        hb, cb = lstm_forward(E[::-1], p["char_Wx_b"], p["char_Wh_b"], p["char_b_b"])
        feats.append(np.concatenate([hf[-1], hb[-1]]))
        caches.append((ids, E, cf, cb))
    return np.stack(feats) if feats else np.zeros((0, 2 * H)), caches


def forward_scores(
    p: dict,
    token_ids: np.ndarray,
    char_ids: list[np.ndarray],
    dropout_mask: np.ndarray | None = None,
):
    """One sequence → (U unary scores [T, C], cache for backward)."""
    CH, caches = char_features(p, char_ids)
    TE = p["tok_emb"][token_ids]
    X = np.concatenate([CH, TE], axis=1)
    if dropout_mask is not None:
        X = X * dropout_mask
    hf, cf = lstm_forward(X, p["tok_Wx_f"], p["tok_Wh_f"], p["tok_b_f"])
    hb, cb = lstm_forward(X[::-1], p["tok_Wx_b"], p["tok_Wh_b"], p["tok_b_b"])
    Hcat = np.concatenate([hf, hb[::-1]], axis=1)
    Z = np.tanh(Hcat @ p["ff_W"] + p["ff_b"])
    U = Z @ p["out_W"] + p["out_b"]
    cache = (token_ids, char_ids, caches, X, cf, cb, Hcat, Z, dropout_mask)
    return U, cache


def backward_scores(p: dict, dU: np.ndarray, cache) -> dict[str, np.ndarray]:
    """Grads of loss wrt every parameter given dLoss/dU."""
    token_ids, char_ids, ch_caches, X, cf, cb, Hcat, Z, dropout_mask = cache
    grads = {k: np.zeros_like(v) for k, v in p.items() if k != "crf_A"}
    dZ = dU @ p["out_W"].T
    grads["out_W"] = Z.T @ dU
    grads["out_b"] = dU.sum(axis=0)
    dHcat = (dZ * (1 - Z**2)) @ p["ff_W"].T
    grads["ff_W"] = Hcat.T @ (dZ * (1 - Z**2))
    grads["ff_b"] = (dZ * (1 - Z**2)).sum(axis=0)
    Ht = p["tok_Wh_f"].shape[0]
    dhf = dHcat[:, :Ht]
    dhb_rev = dHcat[:, Ht:][::-1]
    dXf, dWxf, dWhf, dbf = lstm_backward(dhf, cf)
    dXb_rev, dWxb, dWhb, dbb = lstm_backward(dhb_rev, cb)
    grads["tok_Wx_f"], grads["tok_Wh_f"], grads["tok_b_f"] = dWxf, dWhf, dbf
    grads["tok_Wx_b"], grads["tok_Wh_b"], grads["tok_b_b"] = dWxb, dWhb, dbb
    dX = dXf + dXb_rev[::-1]
    if dropout_mask is not None:
        dX = dX * dropout_mask
    Hc2 = 2 * p["char_Wh_f"].shape[0]
    dCH = dX[:, :Hc2]
    dTE = dX[:, Hc2:]
    np.add.at(grads["tok_emb"], token_ids, dTE)
    Hc = p["char_Wh_f"].shape[0]
    for ti, ch_cache in enumerate(ch_caches):
        if ch_cache is None:
            continue
        ids, E, cfc, cbc = ch_cache
        L = len(ids)
        dh_f = np.zeros((L, Hc))
        dh_f[-1] = dCH[ti, :Hc]
        dh_b = np.zeros((L, Hc))
        dh_b[-1] = dCH[ti, Hc:]
        dEf, dWxf, dWhf, dbf = lstm_backward(dh_f, cfc)
        dEb_rev, dWxb, dWhb, dbb = lstm_backward(dh_b, cbc)
        grads["char_Wx_f"] += dWxf
        grads["char_Wh_f"] += dWhf
        grads["char_b_f"] += dbf
        grads["char_Wx_b"] += dWxb
        grads["char_Wh_b"] += dWhb
        grads["char_b_b"] += dbb
        dE = dEf + dEb_rev[::-1]
        np.add.at(grads["char_emb"], ids, dE)
    return grads


def sequence_loss_and_grads(
    p: dict,
    token_ids: np.ndarray,
    char_ids: list[np.ndarray],
    y: np.ndarray,
    dropout_mask: np.ndarray | None = None,
):
    """Full BiLSTM-CRF negative log-likelihood + grads for one sequence."""
    U, cache = forward_scores(p, token_ids, char_ids, dropout_mask)
    nll, dU, dA = crf_log_likelihood(U, p["crf_A"], y)
    grads = backward_scores(p, dU, cache)
    grads["crf_A"] = dA
    return nll, grads


# ---------------------------------------------------------------------------
# Batched inference (one level-wise recurrence over a batch's prefix trie)
# ---------------------------------------------------------------------------


def _rows_longest_first(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Layout of rows laid back to back (row r is the next ``lengths[r]``
    flat positions), visited longest first: ``start`` holds the rows' first
    positions in that order (ties in row order), and ``alive[t]`` counts
    the rows longer than t, so the rows alive at depth t are the first
    ``alive[t]``."""
    start = (np.cumsum(lengths) - lengths)[np.argsort(-lengths, kind="stable")]
    alive = lengths.size - np.cumsum(np.bincount(lengths))[:-1]
    return start, alive


def _trie_levels(keys: np.ndarray, lengths: np.ndarray):
    """Prefix trie of rows of table keys laid back to back (row r is the
    next ``lengths[r]`` entries of ``keys``). A forward LSTM state at
    position t depends only on its row's first t+1 keys, so rows sharing a
    prefix share its states: the trie has one node per distinct prefix.

    Returns (levels, node). ``levels[t] = (parent, key)`` describes the
    nodes of depth t (the distinct prefixes of length t+1): ``parent``
    indexes the nodes of depth t-1 (a one-node root before depth 0) and
    ``key`` is each node's last key. ``node[j]`` is the depth-major id of
    flat position j's prefix. Rows are visited longest first, so the rows
    alive at depth t are the first ``alive[t]``. Once every alive row owns
    its own node (distinct prefixes stay distinct), node i of each deeper
    depth is alive row i: those depths skip ``np.unique``, their parent is
    a slice, and their ids come from one vectorized pass. Memory is
    O(tokens); no [rows, max length] array is built."""
    node = np.empty(keys.size, dtype=np.int64)
    levels: list = []
    if keys.size == 0:
        return levels, node
    start, alive = _rows_longest_first(lengths)
    T = alive.size
    K = int(keys.max()) + 1
    inv = np.zeros(int(alive[0]), dtype=np.int64)  # alive row → node at t-1
    base = 0
    for t in range(T):
        n = int(alive[t])
        pos = start[:n] + t
        u, row_node = np.unique(inv[:n] * K + keys[pos], return_inverse=True)
        if u.size == n:
            break
        levels.append((u // K, u % K))
        node[pos] = base + row_node
        base += u.size
        inv = row_node
    else:
        return levels, node
    # depths t..T-1, depth-major then row-major: node id = base + running index
    n_deep = alive[t:]
    first = np.cumsum(n_deep) - n_deep
    depth = np.repeat(np.arange(t, T), n_deep)
    pos = start[np.arange(depth.size) - np.repeat(first, n_deep)] + depth
    node[pos] = base + np.arange(pos.size)
    deep_keys = keys[pos]
    levels.append((inv[:n], deep_keys[:n]))
    levels.extend(
        (slice(0, m), deep_keys[lo : lo + m])
        for lo, m in zip(first[1:].tolist(), n_deep[1:].tolist())
    )
    return levels, node


def _level_scan(Z: np.ndarray, Wh: np.ndarray, keys: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """LSTM states hs:[N,H] of rows of table keys laid back to back, key k's
    input term (X@Wx + b) being row k of Z. One step per trie depth:
    ``z = Z[key] + h[parent] @ Wh`` for all of that depth's nodes at once,
    each shared prefix computed once. Computes in the weights' dtype
    (float32 at inference)."""
    levels, node = _trie_levels(keys, lengths)
    H = Wh.shape[0]
    hs = np.empty((sum(len(k) for _, k in levels), H), dtype=Wh.dtype)
    h = np.zeros((1, H), dtype=Wh.dtype)
    c = np.zeros((1, H), dtype=Wh.dtype)
    lo = 0
    for parent, key in levels:
        z = Z[key] + h[parent] @ Wh
        # i, f, o are contiguous along the gate axis — ONE sigmoid over
        # z[:, :3H] is bit-identical to three slice-wise calls
        ifo = _sigmoid(z[:, : 3 * H])
        g = np.tanh(z[:, 3 * H :])
        c = ifo[:, H : 2 * H] * c[parent] + ifo[:, :H] * g
        h = ifo[:, 2 * H :] * np.tanh(c)
        hs[lo : lo + len(key)] = h
        lo += len(key)
    return hs[node]


def _bilstm_states(Zf, Zb, Wh_f, Wh_b, keys: np.ndarray, lengths: np.ndarray):
    """(hf, hb):[N,H] per flat position, both on the forward time axis. The
    backward pass is the same scan over the mirrored rows, whose prefix
    trie is the rows' suffix trie; position j of a row and its mirror
    image swap places, so the one int index also un-mirrors hb."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    mirror = np.repeat(2 * ends - lengths - 1, lengths) - np.arange(keys.size)
    hf = _level_scan(Zf, Wh_f, keys, lengths)
    hb = _level_scan(Zb, Wh_b, keys[mirror], lengths)[mirror]
    return hf, hb


def char_features_unique(
    p: dict, unique_char_ids: list[np.ndarray]
) -> np.ndarray:
    """Char BiLSTM over a batch of (unique) tokens → [n, 2H] (zeros for a
    token with no characters); input terms come from per-character tables.
    The final states are each token's full-prefix node (forward) and
    full-suffix node (backward)."""
    H = p["char_Wh_f"].shape[0]
    n = len(unique_char_ids)
    if n == 0:
        return np.zeros((0, 2 * H), dtype=p["char_emb"].dtype)
    lens = np.array([len(c) for c in unique_char_ids], dtype=np.int64)
    chars = np.concatenate([np.asarray(c, dtype=np.int64) for c in unique_char_ids])
    E = p["char_emb"]
    Zf, Zb = (E @ p[f"char_Wx_{d}"] + p[f"char_b_{d}"] for d in "fb")
    hf, hb = _bilstm_states(Zf, Zb, p["char_Wh_f"], p["char_Wh_b"], chars, lens)
    out = np.zeros((n, 2 * H), dtype=p["char_Wh_f"].dtype)
    nz = lens > 0
    end = np.cumsum(lens)[nz]
    out[nz, :H] = hf[end - 1]
    out[nz, H:] = hb[end - lens[nz]]
    return out


def input_tables(
    p: dict, char_feats: np.ndarray, tok_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Token-BiLSTM input terms X@Wx + b of both directions, one row per
    distinct token (X = char features ++ token embedding): X depends only
    on the token, so each distinct token is projected once."""
    X = np.concatenate([char_feats, p["tok_emb"][tok_ids]], axis=1).astype(
        p["tok_emb"].dtype, copy=False
    )
    return tuple(X @ p[f"tok_Wx_{d}"] + p[f"tok_b_{d}"] for d in "fb")


def forward_scores_batch(
    p: dict, at: np.ndarray, tables: tuple, lengths: np.ndarray
) -> np.ndarray:
    """Rows of ``input_tables`` row indices laid back to back in at:[N]
    (row r is the next ``lengths[r]`` entries) → unary scores [N, C], one
    row per position; no dropout at inference."""
    hf, hb = _bilstm_states(*tables, p["tok_Wh_f"], p["tok_Wh_b"], at, lengths)
    Hcat = np.concatenate([hf, hb], axis=1)
    Z = np.tanh(Hcat @ p["ff_W"] + p["ff_b"])
    return Z @ p["out_W"] + p["out_b"]
