"""The NER model: a shared character table, character-level and word-level
bidirectional gated recurrent encoders, a point-wise tanh dense head scored
against a per-tag matrix, and a linear-chain CRF with exact inference.

One batched engine serves training (`backward_pass`) and evaluation
(`predict`). Sequences are stored back to back and run longest first, so
the ones still running at a time step are a prefix of the rows: every step
works on real elements only. The character encoder runs once per batch over
its unique tokens; the word encoder runs over the batch's real tokens; tied
directions share one input projection and one product for each of their
input and weight gradients. The CRF and Viterbi work on zero-padded
(B, m, K) scores with per-sentence lengths. Evaluation goes through its
input in chunks of about EVAL_TOKENS tokens and keeps no backward caches.

A batch's input rows are written into one block. A recurrent pass that
trains keeps three blocks, laid out step after step: the gates, the cells,
and the states that each step reads; every step writes its rows in place.
Back-propagation through time then overwrites each step's gates with the
gradient on its input projections and its cells with their tanh, so the
gate block is the projection gradient that the weight products read, and
no per-step array outlives its step. An evaluation pass keeps one step of
each block, and the char encoder no states but the final ones.

Gradients are derived analytically: CRF node/edge gradients come from
forward-backward marginals, the rest is back-propagation through time. All
math is float64. The finite-difference suite checks every tensor, and
tests/test_batched_engine.py holds the batched loss and gradients within
1e-10 of the per-sentence reference in tests/oracles.py, and its Viterbi
paths identical to the reference's.

Parameters live in plain float64 arrays shared by reference: the source and
target encoders of a cross-lingual model reference one character table and
one head. Each BiLSTM stores its cells stacked, in the layout the engine
reads: one cell when its directions are tied, else forward then backward.
The per-direction tensors that training and checkpoints name are views of
these arrays, so in-place SGD updates keep all of this aliasing intact.
"""

import contextlib
import itertools
from dataclasses import dataclass

import numpy as np

from . import workers
from .corpus import IOBES, UNK_CHAR, split_label, step_repairs
from .errors import NumericalError, UsageError
from .numeric import gaussian_init, log_sum_exp, sigmoid

MASK_VALUE = -1e4  # disallowed-transition penalty; finite by contract
EVAL_TOKENS = 512  # token budget of one evaluation batch


# ---------------------------------------------------------------------------
# Linear-chain CRF with BOS row K and EOS column K+1 of the transition matrix,
# over zero-padded (B, m, K) scores with per-sentence lengths.


def crf_nll_grads(scores, trans, paths, lengths):
    """Negative log-probability of each gold path and its gradients.

    Returns (nll (B,), d nll/d scores (B, m, K), d nll.sum()/d trans): the
    marginals minus the observed counts, zero on padding.
    """
    lengths = np.asarray(lengths)
    b, m, k = scores.shape
    bos, eos, inner = k, k + 1, trans[:k, :k]
    alpha = np.empty((b, m, k))
    alpha[:, 0] = scores[:, 0] + trans[bos, :k]
    for i in range(1, m):
        alpha[:, i] = scores[:, i] + log_sum_exp(alpha[:, i - 1, :, None] + inner, 1)
    beta = np.empty((b, m, k))
    beta[:] = trans[:k, eos]  # holds at and after each sentence's end
    for i in range(m - 2, -1, -1):
        run = lengths > i + 1
        beta[run, i] = log_sum_exp(
            inner + (scores[run, i + 1] + beta[run, i + 1])[:, None, :], 2)
    rows = np.arange(b)
    logz = log_sum_exp(alpha[rows, lengths - 1] + trans[:k, eos], 1)
    sent, pos = np.nonzero(np.arange(m) < lengths[:, None])
    dscores = np.zeros_like(scores)
    dscores[sent, pos] = np.exp(alpha[sent, pos] + beta[sent, pos]
                                - logz[sent, None])
    dtrans = np.zeros_like(trans)
    dtrans[bos, :k] = dscores[:, 0].sum(axis=0)
    dtrans[:k, eos] = dscores[rows, lengths - 1].sum(axis=0)
    ps, pp = sent[pos < lengths[sent] - 1], pos[pos < lengths[sent] - 1]
    pairs = alpha[ps, pp][:, :, None] + inner  # (N', K, K), in place
    pairs += (scores[ps, pp + 1] + beta[ps, pp + 1])[:, None, :]
    pairs -= logz[ps, None, None]
    dtrans[:k, :k] = np.exp(pairs, out=pairs).sum(axis=0)
    # the gold path: its emissions, then its transitions BOS..EOS
    tags = np.concatenate([np.asarray(p, dtype=np.int64) for p in paths])
    dscores[sent, pos, tags] -= 1.0
    last = np.cumsum(lengths) - 1
    src = np.r_[np.where(pos > 0, np.roll(tags, 1), bos), tags[last]]
    dst = np.r_[tags, np.full(b, eos)]
    np.add.at(dtrans, (src, dst), -1.0)
    gold = (np.bincount(sent, scores[sent, pos, tags], minlength=b)
            + np.bincount(np.r_[sent, rows], trans[src, dst], minlength=b))
    return logz - gold, dscores, dtrans


def viterbi(scores, trans, lengths):
    """Highest-scoring tag path of each sentence, boundary transitions
    included, as a list of paths.

    Ties break toward the lowest tag index, applied left to right.
    """
    lengths = np.asarray(lengths)
    b, m, k = scores.shape
    bos, eos = k, k + 1
    delta = scores[:, 0] + trans[bos, :k]
    back = np.zeros((b, m, k), dtype=np.int64)
    for i in range(1, m):
        cand = delta[:, :, None] + trans[:k, :k]
        back[:, i] = cand.argmax(axis=1)  # argmax favors the lowest index
        step = scores[:, i] + cand.max(axis=1)
        delta = np.where((lengths > i)[:, None], step, delta)
    cur = (delta + trans[:k, eos]).argmax(axis=1)
    rows = np.arange(b)
    path = np.empty((b, m), dtype=np.int64)
    for i in range(m - 1, -1, -1):
        path[:, i] = cur
        cur = np.where(lengths > i, back[rows, i, cur], cur)
    return [path[r, : lengths[r]].tolist() for r in range(b)]


# ---------------------------------------------------------------------------
# Gated recurrent cells (input / forget / output / candidate), manual BPTT


class BiLstm:
    """Both directions' cells stacked: w (cells, 4H, I), u (cells, 4H, H)
    and b (cells, 4H), one cell when tied, else forward then backward. The
    directions run side by side (axis 0 of every per-step array), and the
    input projection is computed once per cell, so tied directions share
    it."""

    def __init__(self, input_dim, hidden_dim, rng, tied=False):
        cells = 1 if tied else 2
        self.w = np.empty((cells, 4 * hidden_dim, input_dim))
        self.u = np.empty((cells, 4 * hidden_dim, hidden_dim))
        self.b = np.zeros((cells, 4 * hidden_dim))
        for d in range(cells):
            self.w[d] = gaussian_init(rng, 4 * hidden_dim, input_dim,
                                      1.0 / np.sqrt(input_dim))
            self.u[d] = gaussian_init(rng, 4 * hidden_dim, hidden_dim,
                                      1.0 / np.sqrt(hidden_dim))

    @property
    def tied(self):
        return len(self.w) == 1

    @property
    def hidden_dim(self):
        return self.u.shape[-1]

    def project(self, rows):
        """Input projections of rows (n, I): (n * cells, 4H), row
        cells * p + d holding element p for cell d."""
        proj = rows @ self.w.reshape(-1, self.w.shape[-1]).T
        proj += self.b.ravel()
        return proj.reshape(-1, 4 * self.hidden_dim)

    def feed(self, index):
        """Rows of `project` that the directions read for the (2, n) element
        indices `index` (forward in row 0, backward in row 1)."""
        return index if self.tied else 2 * index + np.array([[0], [1]])

    def grads(self, rows, dproj, du):
        """(d rows, (dw, du, db) stacked like w, u and b) given the gradient
        dproj on `project(rows)` and du on the recurrent weights."""
        w = self.w.reshape(-1, self.w.shape[-1])
        dproj = dproj.reshape(len(rows), -1)
        dw = (dproj.T @ rows).reshape(self.w.shape)
        db = dproj.sum(axis=0).reshape(self.b.shape)
        return dproj @ w, (dw, du, db)


def _per_direction(prefix, stacked):
    """Stacked (w, u, b) tensors, parameters or their gradients, as views
    named prefix.<f|b>.<w|u|b>: the forward cell's, then the backward
    cell's when the directions are untied."""
    return {f"{prefix}.{tag}.{name}": tensor[d]
            for d, tag in enumerate("fb"[: len(stacked[0])])
            for name, tensor in zip("wub", stacked)}


def _schedule(lengths):
    """Step plan for sequences stored back to back, run longest first.

    Returns (order, steps): order lists the sequences longest first (ties
    keep input order); steps[t] is a (2, n_t) array with the flat index of
    the element that each of the n_t sequences still running reads at time
    t, forward in row 0 and reversed in row 1.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    lens, offs = lengths[order], offsets[order]
    steps = []
    for t in range(int(lens[0])):
        n = int(np.count_nonzero(lens > t))
        steps.append(np.array([offs[:n] + t, offs[:n] + lens[:n] - 1 - t]))
    return order, steps


def _recur(bi, proj, feeds, keep=False, out=None, at=None):
    """Run both directions of bi over packed sequences, longest first.

    feeds[t] (2, n_t) picks the rows of proj that the running sequences
    read at step t. Returns (the final state of every sequence (2, n_0, H);
    the cache for `_recur_backward`, or None unless keep). With out
    (2N, H) and at, step t's states also go to the rows at[t] (2, n_t) of
    out.

    With keep, the gates, cells and read states of every step are kept in
    three blocks, (2, S, 4H), (2, S, H) and (2, S, H), where S is the total
    of the n_t and step t owns the rows from its offset: the state block
    holds at step t's rows the states that step reads (zeros at t = 0).
    Without keep each block is one step long and is overwritten.
    """
    hdim = bi.hidden_dim
    ut = bi.u.transpose(0, 2, 1)
    sizes = [feed.shape[1] for feed in feeds]
    starts = (list(itertools.accumulate(sizes, initial=0)) if keep
              else [0] * (len(sizes) + 1))
    rows = starts[-1] if keep else sizes[0]
    gates = np.empty((2, rows, 4 * hdim))
    cells = np.empty((2, rows, hdim))
    read = np.empty((2, rows, hdim))
    read[:, : sizes[0]] = 0.0
    final = np.empty((2, sizes[0], hdim))
    work = np.empty((2, sizes[0], 4 * hdim))
    for t, (feed, n) in enumerate(zip(feeds, sizes)):
        done = sizes[t + 1] if t + 1 < len(sizes) else 0
        lo = starts[t]
        z, c = gates[:, lo : lo + n], cells[:, lo : lo + n]
        for d in range(2):  # "clip" takes straight into out, "raise" buffers
            np.take(proj, feed[d], axis=0, out=z[d], mode="clip")
        z += np.matmul(read[:, lo : lo + n], ut, out=work[:, :n])
        sigmoid(z[..., : 3 * hdim], out=z[..., : 3 * hdim])  # i, f, o
        np.tanh(z[..., 3 * hdim :], out=z[..., 3 * hdim :])  # candidate
        i, f, o = (z[..., k * hdim : (k + 1) * hdim] for k in range(3))
        if t:
            prev = starts[t - 1]
            np.multiply(f, cells[:, prev : prev + n], out=c)
        else:
            np.multiply(f, 0.0, out=c)
        c += np.multiply(i, z[..., 3 * hdim :], out=work[:, :n, :hdim])
        nxt = starts[t + 1]
        for h, part in ((read[:, nxt : nxt + done], slice(0, done)),
                        (final[:, done:n], slice(done, n))):
            np.tanh(c[:, part], out=h)
            h *= o[:, part]
            if out is not None:
                out[at[t][:, part]] = h
    return final, ([sizes, gates, cells, read] if keep else None)


def _recur_backward(bi, cache, dfinal, dout=None, at=None):
    """BPTT through `_recur`, in place: each step's gradient on its
    projections overwrites its gates, and its cells are overwritten. The
    cache is emptied, so that each block is freed once it is read.

    dfinal (2, n_0, H) is the gradient on the final states; dout (2N, H),
    when given, the gradient on the `out` of `_recur`, whose rows at[t] hold
    step t's states. Returns (the gradient on the projections read by
    every step, the (2, S, 4H) gate block; the gradient on the recurrent
    weights, (cells, 4H, H)).
    """
    sizes, gates, cells, read = cache
    cache.clear()
    hdim = bi.hidden_dim
    starts = list(itertools.accumulate(sizes, initial=0))
    dh = np.array(dfinal, dtype=np.float64)
    dc = np.zeros_like(dh)
    work = np.empty((2,) + dh.shape)
    for t in range(len(sizes) - 1, -1, -1):
        n, lo = sizes[t], starts[t]
        z, tc = gates[:, lo : lo + n], cells[:, lo : lo + n]
        i, f, o, g = (z[..., k * hdim : (k + 1) * hdim] for k in range(4))
        a, b = work[0, :, :n], work[1, :, :n]
        np.tanh(tc, out=tc)
        dh_t, dc_t = dh[:, :n], dc[:, :n]
        if dout is not None:
            dh_t += dout[at[t]]
        np.multiply(dh_t, o, out=b)  # dc_t += dh_t * o * (1 - tc * tc)
        b *= np.subtract(1.0, np.multiply(tc, tc, out=a), out=a)
        dc_t += b
        # each gate's gradient times its derivative, o, i, candidate, f
        np.multiply(o, np.subtract(1.0, o, out=a), out=a)
        np.multiply(dh_t, tc, out=o)
        o *= a
        np.multiply(i, np.subtract(1.0, i, out=a), out=a)
        np.multiply(dc_t, g, out=b)
        b *= a
        np.subtract(1.0, np.multiply(g, g, out=a), out=a)
        np.multiply(dc_t, i, out=g)
        g *= a
        i[...] = b
        np.multiply(f, np.subtract(1.0, f, out=a), out=a)
        if t:
            prev = starts[t - 1]
            np.multiply(dc_t, cells[:, prev : prev + n], out=b)
        else:
            np.multiply(dc_t, 0.0, out=b)
        b *= a
        dc_t *= f
        f[...] = b
        np.matmul(z, bi.u, out=dh_t)
    del cells  # before the weight product
    if bi.tied:
        return gates, (gates.reshape(-1, 4 * hdim).T
                       @ read.reshape(-1, hdim))[None]
    return gates, gates.transpose(0, 2, 1) @ read


def _scatter_add(index, values, n_rows):
    """(n_rows, C) sums of the rows of values (n, C) that share an index."""
    width = values.shape[1]
    flat = (index[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, values.ravel(), minlength=n_rows * width).reshape(
        n_rows, width)


def bilstm_final(bi, table, seqs, keep=False):
    """Concatenated final forward and final backward states (U, 2H) of U
    non-empty id sequences read through `table` (V, I); each table row is
    projected once. Returns (states, cache or None)."""
    ids = np.concatenate(seqs)
    order, steps = _schedule([len(s) for s in seqs])
    feeds = [bi.feed(ids[s]) for s in steps]
    final, cache = _recur(bi, bi.project(table), feeds, keep)
    out = np.empty((len(seqs), 2 * bi.hidden_dim))
    out[order] = final.transpose(1, 0, 2).reshape(len(seqs), -1)
    return out, ((table, order, feeds, cache) if keep else None)


def bilstm_final_backward(bi, cache, dfinal):
    """(d table, (dw, du, db)) for the gradient dfinal (U, 2H) on
    the output of `bilstm_final`."""
    table, order, feeds, rec = cache
    hdim = bi.hidden_dim
    dfinal = dfinal[order].reshape(len(order), 2, hdim).transpose(1, 0, 2)
    dz, du = _recur_backward(bi, rec, dfinal)
    dproj = _scatter_add(np.concatenate(feeds, axis=1).ravel(),
                         dz.reshape(-1, 4 * hdim),
                         len(table) * len(bi.w))
    return bi.grads(table, dproj, du)


def bilstm_states(bi, xs, lengths, keep=False):
    """Per-position concatenation of forward and backward states (N, 2H) of
    sequences stored back to back in xs (N, I). Returns (states, cache or
    None)."""
    _, steps = _schedule(lengths)
    feeds = [bi.feed(s) for s in steps]
    at = [2 * s + np.array([[0], [1]]) for s in steps]  # row 2p + direction
    out = np.empty((2 * len(xs), bi.hidden_dim))
    _, cache = _recur(bi, bi.project(xs), feeds, keep, out, at)
    return out.reshape(len(xs), -1), ((xs, at, feeds, cache) if keep else None)


def bilstm_states_backward(bi, cache, dstates):
    """(d xs, (dw, du, db)) for the gradient dstates (N, 2H) on
    the output of `bilstm_states`."""
    xs, at, feeds, rec = cache
    hdim = bi.hidden_dim
    dh = np.ascontiguousarray(dstates).reshape(-1, hdim)
    dz, du = _recur_backward(bi, rec, np.zeros((2, at[0].shape[1], hdim)),
                             dh, at)
    # each direction reads every row once; tied directions read the same rows
    rows = np.concatenate(feeds, axis=1)
    dproj = np.zeros((len(xs) * len(bi.w), 4 * hdim))
    dproj[rows[0]] = dz[0]
    dproj[rows[1]] += dz[1]
    del dz
    return bi.grads(xs, dproj, du)


# ---------------------------------------------------------------------------
# Model


# Not a FlatConfig: tags and word_dim have no flat default, as they come
# from the training data and the embedding table. A checkpoint carries them
# as the keys tags and word_dim, and the two structural fields as model.*.
@dataclass
class TaggerConfig:
    word_dim: int
    tags: list
    scheme: str = IOBES
    char_dim: int = 25
    char_hidden: int = 25
    word_hidden: int = 100
    head_hidden: int = 100
    use_char: bool = True
    tied: bool = False
    dropout: float = 0.5
    constrained_decoding: bool = False

    @property
    def n_tags(self):
        return len(self.tags)

    @property
    def input_dim(self):
        return self.word_dim + (2 * self.char_hidden if self.use_char else 0)


class Encoder:
    def __init__(self, cfg, rng):
        self.char = (
            BiLstm(cfg.char_dim, cfg.char_hidden, rng, cfg.tied)
            if cfg.use_char else None
        )
        self.word = BiLstm(cfg.input_dim, cfg.word_hidden, rng, cfg.tied)

    def copy_from(self, other):
        """Overwrite this encoder's tensors with deep copies of another's."""
        for mine, theirs in ((self.char, other.char), (self.word, other.word)):
            if mine is not None:
                mine.w, mine.u, mine.b = (
                    theirs.w.copy(), theirs.u.copy(), theirs.b.copy())


class Tagger:
    """Cross-lingual CRF tagger. One char table and one head exist per model;
    every encoder references them."""

    def __init__(self, cfg, char_vocab, rng, languages=("src",)):
        self.cfg = cfg
        self.char_vocab = dict(char_vocab)
        self.char_emb = (
            gaussian_init(rng, len(self.char_vocab), cfg.char_dim, 0.1)
            if cfg.use_char else None
        )
        self.encoders = {lang: Encoder(cfg, rng) for lang in languages}
        self.head = {
            "dense_w": gaussian_init(rng, cfg.head_hidden, 2 * cfg.word_hidden,
                                     1.0 / np.sqrt(2 * cfg.word_hidden)),
            "dense_b": np.zeros(cfg.head_hidden),
            "tag_w": gaussian_init(rng, cfg.n_tags, cfg.head_hidden,
                               1.0 / np.sqrt(cfg.head_hidden)),
            "trans": np.zeros((cfg.n_tags + 2, cfg.n_tags + 2)),
        }
        self.tag_index = {t: i for i, t in enumerate(cfg.tags)}
        self.trans_mask = (
            transition_mask(cfg.tags, cfg.scheme)
            if cfg.constrained_decoding
            else np.zeros((cfg.n_tags + 2, cfg.n_tags + 2))
        )
        self._char_id_cache = {}

    # -- parameters -------------------------------------------------------

    def add_target_encoder(self, rng):
        enc = Encoder(self.cfg, rng)
        enc.copy_from(self.encoders["src"])
        self.encoders["tgt"] = enc
        return enc

    def effective_trans(self):
        return self.head["trans"] + self.trans_mask

    def named_parameters(self, lang):
        """Trainable tensors of one language's model view (theta_lang).

        The shared char table and head appear in every view; tied recurrent
        directions appear once.
        """
        if lang not in self.encoders:
            raise UsageError(f"no encoder for language {lang!r}")
        params = {}
        if self.char_emb is not None:
            params["char_emb"] = self.char_emb
        enc = self.encoders[lang]
        levels = [("word", enc.word)]
        if enc.char is not None:
            levels.append(("char", enc.char))
        for level_name, bi in levels:
            params.update(_per_direction(f"enc.{lang}.{level_name}",
                                         (bi.w, bi.u, bi.b)))
        for name, tensor in self.head.items():
            params[f"head.{name}"] = tensor
        return params

    def all_parameters(self):
        params = {}
        for lang in self.encoders:
            params.update(self.named_parameters(lang))
        return params

    def parameter_counts(self):
        """Per-section trainable parameter counts.

        recurrent_and_head excludes the char table; total includes it.
        """
        counts = {"char_level": 0, "word_level": 0, "head": 0, "char_table": 0}
        for name, tensor in self.all_parameters().items():
            if name == "char_emb":
                counts["char_table"] += tensor.size
            elif ".char." in name:
                counts["char_level"] += tensor.size
            elif ".word." in name:
                counts["word_level"] += tensor.size
            else:
                counts["head"] += tensor.size
        counts["recurrent_and_head"] = (
            counts["char_level"] + counts["word_level"] + counts["head"]
        )
        counts["total"] = counts["recurrent_and_head"] + counts["char_table"]
        return counts

    # -- input preparation --------------------------------------------------

    def char_ids(self, token):
        cached = self._char_id_cache.get(token)
        if cached is None:
            unk = self.char_vocab[UNK_CHAR]
            cached = np.array(
                [self.char_vocab.get(ch, unk) for ch in token], dtype=np.int64
            )
            self._char_id_cache[token] = cached
        return cached

    def prepare(self, table, tokens, tags=None):
        """Bind a sentence to its table rows and tag ids."""
        if not tokens:
            raise UsageError("empty sentence")
        rows = np.array([table.row(t) for t in tokens], dtype=np.int64)
        tag_ids = None
        if tags is not None:
            try:
                tag_ids = [self.tag_index[t] for t in tags]
            except KeyError as exc:
                raise UsageError(f"tag {exc.args[0]!r} not in the inventory")
        return PreparedSentence(list(tokens), table, rows, tag_ids)


@dataclass
class PreparedSentence:
    tokens: list
    table: object
    rows: np.ndarray  # table row of each token; -1 is the all-zero UNK
    tag_ids: list = None

    def __len__(self):
        return len(self.tokens)

    def write_word_vecs(self, out):
        """Write the tokens' rows into out (m, dim), widened from the
        table's storage dtype; a token without a row (-1) gets zeros."""
        found = self.rows >= 0  # a table may have no row for -1 to index
        out[found] = self.table.vectors[self.rows[found]]
        out[~found] = 0.0


def transition_mask(tags, scheme):
    """Additive mask: MASK_VALUE on exactly the transitions that
    `scan_entities` would repair, with BOS and EOS read as O; else 0."""
    k = len(tags)
    bos, eos = k, k + 1
    mask = np.zeros((k + 2, k + 2))
    labels = [split_label(t, scheme) for t in tags] + [("O", None)] * 2
    for i in [*range(k), bos]:
        for j in [*range(k), eos]:
            if step_repairs(labels[i], labels[j], scheme)[1]:
                mask[i, j] = MASK_VALUE
    return mask


# ---------------------------------------------------------------------------
# Forward / backward through the whole pipeline, one batch at a time


def batch_forward(model, lang, batch, masks=None, keep=False):
    """(scores, lengths, cache) of a batch of PreparedSentences: emission
    scores (B, m, K) zero-padded past each sentence's length, and with keep
    the cache for `batch_backward`. masks, when given, holds each sentence's
    dropout mask.

    The input rows (N, I), each token's char representation then its word
    vector, are written into one block, sentence after sentence."""
    enc = model.encoders[lang]
    lengths = np.array([len(p) for p in batch])
    spans = [slice(end - m, end) for m, end in zip(lengths, np.cumsum(lengths))]
    cdim = model.cfg.input_dim - model.cfg.word_dim
    x = np.empty((int(lengths.sum()), model.cfg.input_dim))
    for p, rows in zip(batch, spans):
        p.write_word_vecs(x[rows, cdim:])
    inverse = char_cache = None
    if enc.char is not None:
        unique = {}
        inverse = np.array([unique.setdefault(tok, len(unique))
                            for p in batch for tok in p.tokens])
        reprs, char_cache = bilstm_final(
            enc.char, model.char_emb, [model.char_ids(t) for t in unique], keep
        )
        x[:, :cdim] = reprs[inverse]
    if masks is not None:
        for mask, rows in zip(masks, spans):
            x[rows] *= mask
    states, word_cache = bilstm_states(enc.word, x, lengths, keep)
    t = states @ model.head["dense_w"].T
    t += model.head["dense_b"]
    np.tanh(t, out=t)
    valid = np.arange(lengths.max()) < lengths[:, None]
    scores = np.zeros(valid.shape + (model.cfg.n_tags,))
    scores[valid] = t @ model.head["tag_w"].T
    cache = (inverse, char_cache, masks, spans, word_cache, states, t, valid)
    return scores, lengths, (cache if keep else None)


def batch_backward(model, lang, cache, dscores, dtrans):
    """Gradient of every trainable tensor of theta_lang, given those of the
    padded emission scores and of the transitions."""
    inverse, char_cache, masks, spans, word_cache, states, t, valid = cache
    enc = model.encoders[lang]
    head = model.head
    dscores = dscores[valid]
    dzh = (dscores @ head["tag_w"]) * (1.0 - t * t)
    grads = {
        "head.trans": dtrans,
        "head.tag_w": dscores.T @ t,
        "head.dense_w": dzh.T @ states,
        "head.dense_b": dzh.sum(axis=0),
    }
    dx, cell_grads = bilstm_states_backward(enc.word, word_cache,
                                            dzh @ head["dense_w"])
    grads.update(_per_direction(f"enc.{lang}.word", cell_grads))
    if enc.char is not None:
        cdim = 2 * model.cfg.char_hidden
        dx = dx[:, :cdim]
        if masks is not None:
            for mask, rows in zip(masks, spans):
                dx[rows] *= mask[:, :cdim]
        dreprs = _scatter_add(inverse, dx, len(char_cache[1]))
        demb, cell_grads = bilstm_final_backward(enc.char, char_cache, dreprs)
        grads.update(_per_direction(f"enc.{lang}.char", cell_grads))
        grads["char_emb"] = demb
    return grads


def backward_pass(model, lang, batch, masks=None):
    """Mean-batch loss and its gradient for every trainable tensor of
    theta_lang.

    batch is a list of PreparedSentence objects with tag_ids; masks, when
    given, fixes the per-sentence dropout masks.
    """
    if not batch:
        raise UsageError("empty batch")
    if any(p.tag_ids is None for p in batch):
        raise UsageError("backward_pass needs labeled sentences")
    scores, lengths, cache = batch_forward(model, lang, batch, masks, keep=True)
    nll, dscores, dtrans = crf_nll_grads(
        scores, model.effective_trans(), [p.tag_ids for p in batch], lengths
    )
    scale = 1.0 / len(batch)
    loss = float(nll.sum()) * scale
    if not np.isfinite(loss):
        raise NumericalError("non-finite training loss")
    dscores *= scale
    dtrans *= scale
    grads = batch_backward(model, lang, cache, dscores, dtrans)
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for {name}")
    return loss, grads


def _share_tag_ids(model, lang, table, sentences, share):
    """The Viterbi tag ids of the sentences of share, a list of chunks of
    sentence indices, back to back in chunk order: the one array that a
    `workers.Child` sends."""
    trans = model.effective_trans()
    ids = []
    for chunk in share:
        preps = [model.prepare(table, sentences[i]) for i in chunk]
        scores, lengths, _ = batch_forward(model, lang, preps)
        for path in viterbi(scores, trans, lengths):
            ids += path
    return [np.array(ids, dtype=np.int64)]


def predict(model, lang, table, sentences, jobs=1):
    """Viterbi tags of each token list, evaluation mode (no dropout).

    Sentences of similar length go through the engine together, in chunks
    of about EVAL_TOKENS tokens, and no backward cache is kept. With jobs
    above 1 the chunks are dealt round-robin, so that each share holds a
    like mix of lengths, to this process and up to jobs - 1 forked children
    (`workers.Child`), which send their tag ids back; the chunks of a child
    that fails or dies are tagged here. A chunk's tags depend on the BLAS
    thread count of the process that tags it, so the parallel path expects
    one BLAS thread per process (`workers.blas_threads(1)`), as `tag` runs
    it: then the tags are the same for every job count.
    """
    if any(isinstance(s, str) for s in sentences):
        raise UsageError("predict takes a list of token lists")
    order = sorted(range(len(sentences)), key=lambda i: len(sentences[i]))
    budget = np.cumsum([len(sentences[i]) for i in order]) // EVAL_TOKENS
    chunks = [[i for _, i in group] for _, group in
              itertools.groupby(zip(budget, order), lambda p: p[0])]
    jobs = max(1, min(jobs, len(chunks)))
    shares = [chunks[j::jobs] for j in range(jobs)]
    with contextlib.ExitStack() as stack:
        children = [
            stack.enter_context(workers.Child(
                _share_tag_ids, model, lang, table, sentences, share))
            for share in shares[1:]
        ]
        sent = [_share_tag_ids(model, lang, table, sentences, shares[0])]
        sent += [child.result() for child in children]
    tags = [None] * len(sentences)
    for share, ids in zip(shares, sent):
        if ids is None:
            ids = _share_tag_ids(model, lang, table, sentences, share)
        ids = ids[0].tolist()
        at = 0
        for i in itertools.chain.from_iterable(share):
            end = at + len(sentences[i])
            tags[i] = [model.cfg.tags[j] for j in ids[at:end]]
            at = end
    return tags
