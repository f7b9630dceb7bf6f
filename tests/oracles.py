"""Independent reference implementations used only to check the package.

Everything here is deliberately naive (enumeration, per-definition scans,
finite differences) and stays independent of the code paths it validates.
"""

import itertools
import math
from collections import namedtuple

import numpy as np


# ---------------------------------------------------------------------------
# Tag schemes


def random_valid_spans(rng, length, types):
    """Random non-overlapping typed spans over [0, length)."""
    spans = []
    i = 0
    while i < length:
        if rng.random() < 0.45:
            end = min(length - 1, i + int(rng.integers(0, 3)))
            spans.append((i, end, types[int(rng.integers(0, len(types)))]))
            i = end + 1
        else:
            i += 1
    return spans


def emit_iobes(length, spans):
    tags = ["O"] * length
    for start, end, typ in spans:
        if start == end:
            tags[start] = f"S-{typ}"
        else:
            tags[start] = f"B-{typ}"
            for k in range(start + 1, end):
                tags[k] = f"I-{typ}"
            tags[end] = f"E-{typ}"
    return tags


def iobes_spans_naive(tags):
    """Definition-based scan of a VALID IOBES sequence."""
    spans = []
    i = 0
    while i < len(tags):
        tag = tags[i]
        if tag == "O":
            i += 1
            continue
        prefix, typ = tag.split("-", 1)
        assert prefix in ("B", "S"), f"invalid IOBES start {tag}"
        if prefix == "S":
            spans.append((i, i, typ))
            i += 1
            continue
        j = i + 1
        while j < len(tags) and tags[j] == f"I-{typ}":
            j += 1
        assert j < len(tags) and tags[j] == f"E-{typ}", "unterminated B chunk"
        spans.append((i, j, typ))
        i = j + 1
    return spans


def _chunk_starts(prev_prefix, prev_type, prefix, typ):
    if prefix == "O":
        return False
    if prev_prefix == "O" or prev_type != typ:
        return True
    return prefix in "BS" or prev_prefix in "ES"


def _chunk_ends(prev_prefix, prev_type, prefix, typ):
    if prev_prefix == "O":
        return False
    if prefix == "O" or prev_type != typ:
        return True
    return prefix in "BS" or prev_prefix in "ES"


def scan_entities_reference(tags, scheme):
    """(spans as (start, end, type), repairs) of any label sequence, by the
    per-side chunk start and end tests and an explicitly tracked open chunk:
    the scanner the step rule replaced. Labels are "O" or "<prefix>-<type>"
    with a prefix of the scheme."""
    spans = []
    repairs = 0
    open_start = open_type = None
    prev_prefix, prev_type = "O", None
    prev_open_prefix = None  # prefix of the last token of the open chunk
    for i, tag in enumerate(tags):
        prefix, typ = ("O", None) if tag == "O" else tag.split("-", 1)
        if open_start is not None and _chunk_ends(prev_prefix, prev_type,
                                                  prefix, typ):
            spans.append((open_start, i - 1, open_type))
            if scheme == "IOBES" and prev_open_prefix not in ("E", "S"):
                repairs += 1
            open_start = None
        if _chunk_starts(prev_prefix, prev_type, prefix, typ):
            if scheme == "IOBES" and prefix in "IE":
                repairs += 1
            elif scheme == "IOB2" and prefix == "I":
                repairs += 1
            elif scheme == "IOB1" and prefix == "B" and not (
                prev_prefix in "BI" and prev_type == typ
            ):
                repairs += 1
            open_start = i
            open_type = typ
        if prefix != "O":
            prev_open_prefix = prefix
        prev_prefix, prev_type = prefix, typ
    if open_start is not None:
        spans.append((open_start, len(tags) - 1, open_type))
        if scheme == "IOBES" and prev_open_prefix not in ("E", "S"):
            repairs += 1
    return spans, repairs


# ---------------------------------------------------------------------------
# Linear-chain CRF by exhaustive enumeration

def crf_enumerate(scores, trans):
    """All-path statistics of a (K+2)-state boundary CRF, by brute force.

    scores: (m, K) emissions; trans: (K+2, K+2) with BOS row K and EOS
    column K+1. Returns (log_partition, best_path, best_score, marginals)
    where marginals is (m, K).
    """
    m, k = scores.shape
    bos, eos = k, k + 1
    log_weights = {}
    for path in itertools.product(range(k), repeat=m):
        total = trans[bos, path[0]] + scores[0, path[0]]
        for i in range(1, m):
            total += trans[path[i - 1], path[i]] + scores[i, path[i]]
        total += trans[path[-1], eos]
        log_weights[path] = total
    all_scores = np.array(list(log_weights.values()))
    mx = all_scores.max()
    log_z = mx + np.log(np.exp(all_scores - mx).sum())
    best_path = min(log_weights, key=lambda p: (-log_weights[p], p))
    marginals = np.zeros((m, k))
    for path, lw in log_weights.items():
        p = np.exp(lw - log_z)
        for i, tag in enumerate(path):
            marginals[i, tag] += p
    return float(log_z), list(best_path), float(log_weights[best_path]), marginals


def crf_path_score(scores, trans, path):
    m, k = scores.shape
    bos, eos = k, k + 1
    total = trans[bos, path[0]] + scores[0, path[0]]
    for i in range(1, m):
        total += trans[path[i - 1], path[i]] + scores[i, path[i]]
    total += trans[path[-1], eos]
    return float(total)


# ---------------------------------------------------------------------------
# Finite differences

def finite_difference_grads(loss_fn, params, h=1e-5):
    """Central-difference gradient of loss_fn() w.r.t. every entry of params.

    params is a dict of float64 arrays that loss_fn reads in place.
    """
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        flat = p.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            gflat[idx] = (up - down) / (2 * h)
        grads[name] = g
    return grads


# ---------------------------------------------------------------------------
# The tagger, one sentence and one time step at a time
#
# This is the per-sentence formulation the batched engine in zrxner.tagger
# replaces. It reads the model's tensors and nothing else of the engine, and
# is the reference that tests/test_batched_engine.py pins the engine to.


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _log_sum_exp(v):
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


def crf_forward(scores, trans):
    """Forward recursion in the log domain; returns (alpha, log_partition)."""
    m, k = scores.shape
    bos, eos = k, k + 1
    alpha = np.empty((m, k))
    alpha[0] = scores[0] + trans[bos, :k]
    for i in range(1, m):
        prev = alpha[i - 1][:, None] + trans[:k, :k]
        mx = prev.max(axis=0)
        alpha[i] = scores[i] + mx + np.log(np.exp(prev - mx).sum(axis=0))
    return alpha, _log_sum_exp(alpha[m - 1] + trans[:k, eos])


def crf_backward(scores, trans):
    m, k = scores.shape
    eos = k + 1
    beta = np.empty((m, k))
    beta[m - 1] = trans[:k, eos]
    for i in range(m - 2, -1, -1):
        nxt = trans[:k, :k] + (scores[i + 1] + beta[i + 1])[None, :]
        mx = nxt.max(axis=1)
        beta[i] = mx + np.log(np.exp(nxt - mx[:, None]).sum(axis=1))
    return beta


def crf_log_partition(scores, trans):
    """log sum over all tag paths of exp(node + edge scores), boundaries
    included."""
    from zrxner.errors import UsageError

    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all() or not np.isfinite(trans).all():
        raise UsageError("non-finite CRF inputs")
    _, logz = crf_forward(scores, trans)
    return logz


def crf_marginals(scores, trans):
    """Per-position tag marginals p(y_i = j | X); rows sum to 1."""
    alpha, logz = crf_forward(scores, trans)
    beta = crf_backward(scores, trans)
    return np.exp(alpha + beta - logz), logz


def crf_nll(scores, trans, path):
    """Negative log-probability of the gold path (cross-entropy loss)."""
    from zrxner.errors import UsageError

    m, k = scores.shape
    path = list(path)
    if len(path) != m or any(not 0 <= y < k for y in path):
        raise UsageError("gold path does not match the score table")
    _, logz = crf_forward(scores, trans)
    return float(logz - crf_path_score(scores, trans, path))


def reference_crf_nll_grads(scores, trans, path):
    """(nll, d nll/d scores, d nll/d trans): marginals minus observed counts."""
    m, k = scores.shape
    bos, eos = k, k + 1
    alpha, logz = crf_forward(scores, trans)
    beta = crf_backward(scores, trans)
    marg = np.exp(alpha + beta - logz)
    dscores = marg.copy()
    dtrans = np.zeros_like(trans)
    dtrans[bos, :k] += marg[0]
    dtrans[:k, eos] += marg[m - 1]
    for i in range(m - 1):
        dtrans[:k, :k] += np.exp(
            alpha[i][:, None] + trans[:k, :k]
            + (scores[i + 1] + beta[i + 1])[None, :] - logz
        )
    dscores[0, path[0]] -= 1.0
    dtrans[bos, path[0]] -= 1.0
    for i in range(1, m):
        dscores[i, path[i]] -= 1.0
        dtrans[path[i - 1], path[i]] -= 1.0
    dtrans[path[-1], eos] -= 1.0
    return float(logz - crf_path_score(scores, trans, path)), dscores, dtrans


def reference_viterbi(scores, trans):
    """Highest-scoring tag path; ties break toward the lowest tag index,
    applied left to right."""
    scores = np.asarray(scores, dtype=np.float64)
    m, k = scores.shape
    bos, eos = k, k + 1
    delta = scores[0] + trans[bos, :k]
    back = np.zeros((m, k), dtype=np.int64)
    for i in range(1, m):
        cand = delta[:, None] + trans[:k, :k]
        back[i] = cand.argmax(axis=0)
        delta = scores[i] + cand[back[i], np.arange(k)]
    path = [int((delta + trans[:k, eos]).argmax())]
    for i in range(m - 1, 0, -1):
        path.append(int(back[i, path[-1]]))
    return path[::-1]


class Cell(namedtuple("Cell", "w u b")):
    """One direction's w (4H, I), u (4H, H) and b (4H,)."""

    @property
    def hidden_dim(self):
        return self.u.shape[1]


def direction(bi, d):
    """Direction d (0 forward, 1 backward) of a BiLstm as views of its
    stacked arrays; tied directions read the same cell."""
    cell = 0 if bi.tied else d
    return Cell(bi.w[cell], bi.u[cell], bi.b[cell])


def lstm_forward(cell, xs):
    """Run the cell over xs (m, I); returns (hs (m, H), cache)."""
    m = xs.shape[0]
    hdim = cell.hidden_dim
    zx = xs @ cell.w.T + cell.b
    gates = np.empty((m, 4 * hdim))
    cs = np.empty((m, hdim))
    hs = np.empty((m, hdim))
    h = np.zeros(hdim)
    c = np.zeros(hdim)
    for t in range(m):
        z = zx[t] + cell.u @ h
        gates[t, : 3 * hdim] = _sigmoid(z[: 3 * hdim])
        gates[t, 3 * hdim :] = np.tanh(z[3 * hdim :])
        i, f, o, g = np.split(gates[t], 4)
        c = f * c + i * g
        cs[t] = c
        h = o * np.tanh(c)
        hs[t] = h
    return hs, (xs, gates, cs, hs)


def lstm_backward(cell, cache, dhs):
    """BPTT through a cached forward run; returns (dxs, grads {w, u, b})."""
    xs, gates, cs, hs = cache
    m = xs.shape[0]
    hdim = cell.hidden_dim
    dz_all = np.empty((m, 4 * hdim))
    dh_next = np.zeros(hdim)
    dc_next = np.zeros(hdim)
    for t in range(m - 1, -1, -1):
        i, f, o, g = np.split(gates[t], 4)
        c_prev = cs[t - 1] if t > 0 else np.zeros(hdim)
        tc = np.tanh(cs[t])
        dh = dhs[t] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dc_next = dc * f
        dz_all[t] = np.concatenate([
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            do * o * (1.0 - o),
            dc * i * (1.0 - g * g),
        ])
        dh_next = cell.u.T @ dz_all[t]
    h_prev = np.vstack([np.zeros(hdim), hs[:-1]])
    grads = {"w": dz_all.T @ xs, "u": dz_all.T @ h_prev,
             "b": dz_all.sum(axis=0)}
    return dz_all @ cell.w, grads


def bilstm_states(bi, xs):
    hs_f, cache_f = lstm_forward(direction(bi, 0), xs)
    hs_b_rev, cache_b = lstm_forward(direction(bi, 1), xs[::-1])
    return np.hstack([hs_f, hs_b_rev[::-1]]), (cache_f, cache_b)


def bilstm_states_backward(bi, cache, dout):
    cache_f, cache_b = cache
    hdim = bi.hidden_dim
    dxs_f, grads_f = lstm_backward(direction(bi, 0), cache_f,
                                   dout[:, :hdim])
    dxs_b, grads_b = lstm_backward(direction(bi, 1), cache_b,
                                   dout[::-1, hdim:])
    return dxs_f + dxs_b[::-1], grads_f, grads_b


def bilstm_final(bi, xs):
    hs_f, cache_f = lstm_forward(direction(bi, 0), xs)
    hs_b_rev, cache_b = lstm_forward(direction(bi, 1), xs[::-1])
    return np.concatenate([hs_f[-1], hs_b_rev[-1]]), (cache_f, cache_b)


def bilstm_final_backward(bi, cache, dfinal, m):
    cache_f, cache_b = cache
    hdim = bi.hidden_dim
    dh_f = np.zeros((m, hdim))
    dh_f[-1] = dfinal[:hdim]
    dh_b = np.zeros((m, hdim))
    dh_b[-1] = dfinal[hdim:]
    dxs_f, grads_f = lstm_backward(direction(bi, 0), cache_f, dh_f)
    dxs_b, grads_b = lstm_backward(direction(bi, 1), cache_b, dh_b)
    return dxs_f + dxs_b[::-1], grads_f, grads_b


def encode_token_chars(model, lang, token):
    """Character bi-encoder representation of one token (2 * char_hidden)."""
    from zrxner.errors import UsageError

    enc = model.encoders[lang]
    if enc.char is None:
        raise UsageError("model variant has no character encoder")
    final, _ = bilstm_final(enc.char, model.char_emb[model.char_ids(token)])
    return final


def _word_vecs(prep):
    """(m, dim) float64 rows of the tokens; zeros for a token without a row
    (-1)."""
    return np.array([prep.table.vectors[r] if r >= 0
                     else np.zeros(prep.table.dim) for r in prep.rows],
                    dtype=np.float64)


def _embed_forward(model, lang, prep):
    """(m, input_dim) rows plus the char caches needed for backward."""
    enc = model.encoders[lang]
    if enc.char is None:
        return _word_vecs(prep), None
    reprs = {}
    for token in prep.tokens:
        if token not in reprs:
            ids = model.char_ids(token)
            final, cache = bilstm_final(enc.char, model.char_emb[ids])
            reprs[token] = (final, cache, ids)
    cdim = 2 * model.cfg.char_hidden
    x = np.empty((len(prep), model.cfg.input_dim))
    x[:, cdim:] = _word_vecs(prep)
    for t, token in enumerate(prep.tokens):
        x[t, :cdim] = reprs[token][0]
    return x, reprs


def embed_sentence(model, lang, table, tokens, train=False, rng=None,
                   mask=None):
    """Per-token concat of the char representation and the word vector.

    Training mode applies an inverted dropout mask on the rows; pass `mask`
    to fix it, or `rng` to draw one.
    """
    from zrxner.numeric import dropout_mask

    x, _ = _embed_forward(model, lang, model.prepare(table, tokens))
    if train and model.cfg.dropout > 0:
        if mask is None:
            mask = dropout_mask(rng, x.shape, model.cfg.dropout)
        x = x * mask
    return x


def word_context(model, lang, x):
    """Contextual states from the word-level bi-encoder (m, 2 * word_hidden)."""
    states, _ = bilstm_states(model.encoders[lang].word, x)
    return states


def emission_scores(model, states):
    """Per-tag scoring matrix applied to tanh(dense(state)), (m, K)."""
    t = np.tanh(states @ model.head["dense_w"].T + model.head["dense_b"])
    return t @ model.head["tag_w"].T


def sentence_forward(model, lang, prep, mask=None):
    x, char_reprs = _embed_forward(model, lang, prep)
    if mask is not None:
        x = x * mask
    states, word_cache = bilstm_states(model.encoders[lang].word, x)
    t = np.tanh(states @ model.head["dense_w"].T + model.head["dense_b"])
    scores = t @ model.head["tag_w"].T
    return scores, (prep, char_reprs, word_cache, states, t, mask)


def sentence_nll(model, lang, table, tokens, tags, mask=None):
    """Loss of one labeled sentence; pure given parameters and mask."""
    prep = model.prepare(table, tokens, tags)
    scores, _ = sentence_forward(model, lang, prep, mask)
    return crf_nll(scores, model.effective_trans(), prep.tag_ids)


def batch_nll(model, lang, table, batch, masks=None):
    """Mean-batch loss only (the finite-difference suite calls this)."""
    total = 0.0
    for idx, (tokens, tags) in enumerate(batch):
        mask = masks[idx] if masks is not None else None
        total += sentence_nll(model, lang, table, tokens, tags, mask)
    return total / len(batch)


def _accumulate(grads, name, value):
    if name in grads:
        grads[name] = grads[name] + value
    else:
        grads[name] = np.array(value, dtype=np.float64)


def _cell_grads_into(grads, prefix, bi, grads_f, grads_b):
    if bi.tied:
        grads_f = {name: g + grads_b[name] for name, g in grads_f.items()}
    directions = [("f", grads_f)] if bi.tied else [("f", grads_f), ("b", grads_b)]
    for tag, cell_grads in directions:
        for name, value in cell_grads.items():
            _accumulate(grads, f"{prefix}.{tag}.{name}", value)


def sentence_backward(model, lang, cache, dscores, dtrans, grads):
    prep, char_reprs, word_cache, states, t, mask = cache
    enc = model.encoders[lang]
    _accumulate(grads, "head.trans", dtrans)
    _accumulate(grads, "head.tag_w", dscores.T @ t)
    dzh = (dscores @ model.head["tag_w"]) * (1.0 - t * t)
    _accumulate(grads, "head.dense_w", dzh.T @ states)
    _accumulate(grads, "head.dense_b", dzh.sum(axis=0))
    dx, grads_f, grads_b = bilstm_states_backward(
        enc.word, word_cache, dzh @ model.head["dense_w"]
    )
    _cell_grads_into(grads, f"enc.{lang}.word", enc.word, grads_f, grads_b)
    if mask is not None:
        dx = dx * mask
    if enc.char is None:
        return
    cdim = 2 * model.cfg.char_hidden
    dchar = {}
    for pos, token in enumerate(prep.tokens):
        dchar[token] = dchar.get(token, 0.0) + dx[pos, :cdim]
    demb = np.zeros_like(model.char_emb)
    for token, dfinal in dchar.items():
        _, char_cache, ids = char_reprs[token]
        dxs, grads_f, grads_b = bilstm_final_backward(
            enc.char, char_cache, dfinal, len(ids)
        )
        _cell_grads_into(grads, f"enc.{lang}.char", enc.char, grads_f, grads_b)
        np.add.at(demb, ids, dxs)
    _accumulate(grads, "char_emb", demb)


def reference_backward_pass(model, lang, table, batch, masks=None):
    """Mean-batch loss and gradients, one sentence at a time."""
    grads = {}
    total = 0.0
    trans = model.effective_trans()
    scale = 1.0 / len(batch)
    for idx, (tokens, tags) in enumerate(batch):
        prep = model.prepare(table, tokens, tags)
        mask = masks[idx] if masks is not None else None
        scores, cache = sentence_forward(model, lang, prep, mask)
        nll, dscores, dtrans = reference_crf_nll_grads(scores, trans,
                                                       prep.tag_ids)
        total += nll
        sentence_backward(model, lang, cache, dscores * scale,
                          dtrans * scale, grads)
    return total * scale, grads


def reference_predict(model, lang, table, tokens):
    """Viterbi tags for one sentence, evaluation mode (no dropout)."""
    scores, _ = sentence_forward(model, lang, model.prepare(table, tokens))
    path = reference_viterbi(scores, model.effective_trans())
    return [model.cfg.tags[i] for i in path]


# ---------------------------------------------------------------------------
# Model selection


def select_model(records, selection):
    """The record with the best score on the selection split: a later
    record wins only by strict improvement, so ties keep the earliest."""
    scored = [r for r in records if selection in r.scores]
    if not scored:
        raise ValueError(f"no record carries a {selection!r} score")
    best = scored[0]
    for record in scored[1:]:
        if record.scores[selection] > best.scores[selection]:
            best = record
    return best


# ---------------------------------------------------------------------------
# Alignment


def _unit_rows(rows):
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.where(norms == 0, 1.0, norms)


def csls(queries, keys, k):
    """Full CSLS score matrix: 2 cos(q, key) - r_keys(q) - r_queries(key).

    r is the mean cosine of a point's k nearest neighbors in the other set;
    k larger than a set is clamped to the set size.
    """
    qn = _unit_rows(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    kn = _unit_rows(np.atleast_2d(np.asarray(keys, dtype=np.float64)))
    cos = qn @ kn.T
    k_row = min(k, kn.shape[0])
    k_col = min(k, qn.shape[0])
    r_q = np.partition(cos, cos.shape[1] - k_row, axis=1)[:, -k_row:].mean(axis=1)
    r_k = np.partition(cos, cos.shape[0] - k_col, axis=0)[-k_col:, :].mean(axis=0)
    return 2 * cos - r_q[:, None] - r_k[None, :]


def _top_k(a, k, axis):
    """The k largest entries of a along axis (all of them if there are fewer)."""
    n = a.shape[axis]
    if n <= k:
        return a
    top = np.partition(a, n - k, axis=axis)
    return top[:, n - k :] if axis == 1 else top[n - k :]


def _whole_64(n):
    return n - n % 64 if n >= 64 else max(1, n)


def csls_top1_two_pass(queries, keys, k, tile_bytes):
    """The two-pass tiled CSLS top-1 the package used to ship: pass 1 keeps
    every query's and every key's k largest cosines, pass 2 recomputes every
    cosine tile and keeps a running argmax per query, key tiles in
    increasing order. The reference for the one-pass search's ids and
    score bits, with the same tiles (tile_bytes of cosines each)."""
    qn = _unit_rows(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    keys = np.atleast_2d(np.asarray(keys, dtype=np.float64))
    nq, nk = qn.shape[0], keys.shape[0]
    k_row = min(k, nk)
    k_col = min(k, nq)
    cells = max(1, tile_bytes // 8)
    key_step = min(nk, _whole_64(math.isqrt(cells)))
    query_step = _whole_64(cells // key_step)
    key_tiles = [(lo, min(lo + key_step, nk)) for lo in range(0, nk, key_step)]
    query_blocks = [(lo, min(lo + query_step, nq))
                    for lo in range(0, nq, query_step)]
    row_top = np.full((nq, k_row), -np.inf)
    r_k = np.empty(nk)
    for klo, khi in key_tiles:
        kn = _unit_rows(keys[klo:khi])
        col_top = np.full((k_col, khi - klo), -np.inf)
        for qlo, qhi in query_blocks:
            cos = qn[qlo:qhi] @ kn.T
            row_top[qlo:qhi] = _top_k(np.hstack(
                [row_top[qlo:qhi], _top_k(cos, k_row, 1)]), k_row, 1)
            col_top = _top_k(np.vstack([col_top, _top_k(cos, k_col, 0)]), k_col, 0)
        r_k[klo:khi] = np.sort(col_top, axis=0).mean(axis=0)
    r_q = np.sort(row_top, axis=1).mean(axis=1)
    best_idx = np.zeros(nq, dtype=np.int64)
    best_score = np.full(nq, -np.inf)
    for klo, khi in key_tiles:
        kn = _unit_rows(keys[klo:khi])
        for qlo, qhi in query_blocks:
            scores = qn[qlo:qhi] @ kn.T
            scores *= 2
            scores -= r_q[qlo:qhi, None]
            scores -= r_k[None, klo:khi]
            arg = scores.argmax(axis=1)
            top = scores[np.arange(qhi - qlo), arg]
            better = top > best_score[qlo:qhi]
            np.copyto(best_idx[qlo:qhi], arg + klo, where=better)
            np.copyto(best_score[qlo:qhi], top, where=better)
    return best_idx, best_score


def induce_dictionary_two_calls(source_table, target_table, w, k, top_n,
                                tile_bytes):
    """Mutual CSLS top-1 pairs (target index, source index) from one
    two-pass search in each direction, as the package used to find them."""
    n_t = min(top_n, len(target_table))
    n_s = min(top_n, len(source_table))
    mapped_t = target_table.vectors[:n_t] @ w.T
    src = source_table.vectors[:n_s]
    fwd, _ = csls_top1_two_pass(mapped_t, src, k, tile_bytes)
    bwd, _ = csls_top1_two_pass(src, mapped_t, k, tile_bytes)
    return [(t, int(s)) for t, s in enumerate(fwd) if bwd[s] == t]


def _softplus(z):
    return np.logaddexp(0.0, z)


def discriminator_loss(disc, w, source_batch, target_batch, smoothing=0.0):
    """Mean BCE of the discriminator: mapped targets labeled src=0 (smoothed
    to s), true source vectors labeled src=1 (smoothed to 1-s)."""
    s = smoothing
    z_tgt = disc.logits(np.atleast_2d(target_batch) @ w.T)
    z_src = disc.logits(np.atleast_2d(source_batch))
    tgt_term = (s * _softplus(-z_tgt) + (1 - s) * _softplus(z_tgt)).mean()
    src_term = ((1 - s) * _softplus(-z_src) + s * _softplus(z_src)).mean()
    return float(tgt_term + src_term)


def adversary_loss(disc, w, source_batch, target_batch):
    """Mean BCE with flipped labels; only the mapper is trained on this."""
    z_tgt = disc.logits(np.atleast_2d(target_batch) @ w.T)
    z_src = disc.logits(np.atleast_2d(source_batch))
    return float(_softplus(-z_tgt).mean() + _softplus(z_src).mean())


# ---------------------------------------------------------------------------
# Embedding tables


def load_vec_text(stream, limit=200000, language=""):
    """The .vec reader one line and one float() at a time: the reference for
    the chunked loader, which must give the same words, the same vector bits
    and the same first error."""
    from zrxner.corpus import iter_lines
    from zrxner.embeddings import EmbeddingTable
    from zrxner.errors import ParseError

    lines = iter_lines(stream)
    try:
        header = next(lines)
    except StopIteration:
        raise ParseError("missing header", line=1)
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"bad header {header!r}, expected 'n d'", line=1)
    try:
        n, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"bad header {header!r}", line=1)
    cap = n if limit is None else min(n, limit)
    words = []
    rows = []
    seen = set()
    for lineno, line in enumerate(lines, start=2):
        if len(words) >= cap:
            break
        fields = line.split(" ")
        if fields and fields[-1] == "":
            fields = fields[:-1]  # tolerate fastText's trailing space
        if not fields or fields == [""]:
            continue
        word = fields[0]
        if len(fields) - 1 != dim:
            raise ParseError(
                f"{len(fields) - 1} values for dimension {dim}", line=lineno
            )
        if word in seen:
            continue
        try:
            vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
        except ValueError:
            raise ParseError("non-numeric vector entry", line=lineno)
        seen.add(word)
        words.append(word)
        rows.append(vec)
    vectors = np.vstack(rows) if rows else np.zeros((0, dim))
    return EmbeddingTable(words, vectors, language=language)


def normalize_table(table):
    """New table with every nonzero row scaled to unit length, whole-table."""
    from zrxner.embeddings import EmbeddingTable

    norms = np.linalg.norm(table.vectors, axis=1, keepdims=True)
    norms[norms == 0] = 1.0  # zero rows untouched
    return EmbeddingTable(table.words, table.vectors / norms, table.language)


# ---------------------------------------------------------------------------
# Checkpoint container


def save_checkpoint(path, config, tensors):
    """The checkpoint writer that builds the whole file as one bytes object:
    the reference for the streaming writer, which must write the same bytes
    or refuse the same input."""
    import hashlib
    import struct

    from zrxner.checkpoint import FORMAT_VERSION, MAGIC, config_to_text

    dtype_tags = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
    parts = [MAGIC, struct.pack("<H", FORMAT_VERSION)]
    config_bytes = config_to_text(config).encode("utf-8")
    parts.append(struct.pack("<I", len(config_bytes)))
    parts.append(config_bytes)
    parts.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if arr.dtype not in dtype_tags:
            arr = arr.astype(np.float64)
        arr = np.ascontiguousarray(arr)
        name_bytes = name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            parts.append(struct.pack("<I", dim))
        parts.append(struct.pack("<B", dtype_tags[arr.dtype.newbyteorder("<")]))
        parts.append(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    payload = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(hashlib.sha256(payload).digest()[:8])


def load_checkpoint(path):
    """The checkpoint reader that holds the whole file and checks the
    checksum before parsing it: the reference for the streaming reader,
    which must return the same config and tensor bits or raise the same
    error (a read past the end of the file, or a name or config block that
    is not UTF-8, raises struct.error or UnicodeDecodeError here)."""
    import hashlib
    import struct

    from zrxner.checkpoint import FORMAT_VERSION, MAGIC, text_to_config
    from zrxner.errors import CheckpointError

    tag_dtypes = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 2 + 8:
        raise CheckpointError("file too short to be a checkpoint")
    payload, stored = blob[:-8], blob[-8:]
    if hashlib.sha256(payload).digest()[:8] != stored:
        raise CheckpointError("checksum mismatch: file is corrupt")
    if payload[:4] != MAGIC:
        raise CheckpointError("bad magic bytes")
    offset = 4
    (version,) = struct.unpack_from("<H", payload, offset)
    offset += 2
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
        )
    (config_len,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    config = text_to_config(payload[offset : offset + config_len].decode("utf-8"))
    offset += config_len
    (count,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        name = payload[offset : offset + name_len].decode("utf-8")
        offset += name_len
        (rank,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        shape = struct.unpack_from(f"<{rank}I", payload, offset)
        offset += 4 * rank
        (tag,) = struct.unpack_from("<B", payload, offset)
        offset += 1
        if tag not in tag_dtypes:
            raise CheckpointError(f"unknown dtype tag {tag}")
        dtype = tag_dtypes[tag]
        n_bytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        data = payload[offset : offset + n_bytes]
        if len(data) != n_bytes:
            raise CheckpointError("truncated tensor data")
        offset += n_bytes
        tensors[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
    if offset != len(payload):
        raise CheckpointError("trailing bytes after tensor section")
    return config, tensors
