"""Unsupervised linear mapping between two embedding spaces.

An adversarial game (a two-layer discriminator against a linear mapper,
trained with plain SGD and an orthogonality pull-back after every mapper
update) produces an initial map; CSLS retrieval induces a mutual-top-1 seed
dictionary; the orthogonal Procrustes solution then refines the map
iteratively. Model selection is by a dictionary-free criterion: the mean
CSLS score of top-1 matches for the most frequent target words.

The Procrustes orientation used here, W = U V^T with U S V^T = SVD(X^T Y),
maps target rows onto source rows (row @ W.T); it is pinned by the
rotation-recovery tests rather than taken on faith.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .checkpoint import FlatConfig
from .embeddings import BLOCK_ROWS, mapped_rows, normalize
from .errors import AlignmentError, NumericalError, UsageError
from .numeric import dropout_mask, gaussian_init, sigmoid, svd_square

T_TO_S = "t_to_s"
S_TO_T = "s_to_t"
DIRECTIONS = (T_TO_S, S_TO_T)

# Bytes of cosines that csls_top1 holds at once; its working memory beyond
# the inputs is a few such tiles, however many keys there are.
CSLS_TILE_BYTES = 4 << 20


@dataclass
class LinearMapper:
    w: np.ndarray
    direction: str = T_TO_S

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 2 or self.w.shape[0] != self.w.shape[1]:
            raise UsageError("mapper must be a square matrix")
        if self.direction not in DIRECTIONS:
            raise UsageError(f"direction must be one of {DIRECTIONS}")

    @property
    def dim(self):
        return self.w.shape[0]

    def orthogonality_error(self):
        return float(np.abs(self.w.T @ self.w - np.eye(self.dim)).max())


@dataclass
class SeedDictionary:
    pairs: list  # (target word index, source word index)

    def __post_init__(self):
        targets = [t for t, _ in self.pairs]
        if len(set(targets)) != len(targets):
            raise UsageError("duplicate target entries in seed dictionary")

    def __len__(self):
        return len(self.pairs)


@dataclass
class AlignConfig(FlatConfig):
    PREFIX = "align"

    w_steps: int = 30000
    disc_steps: int = 5
    batch_size: int = 32
    lr_disc: float = 0.1
    lr_map: float = 0.1
    disc_hidden: int = 512
    input_dropout: float = 0.1
    label_smoothing: float = 0.2
    vocab_cap: int = 50000
    beta: float = 0.01
    csls_k: int = 10
    dict_top_n: int = 10000
    criterion_sample_n: int = 2500
    select_every: int = 500  # criterion-based mapper snapshots; 0 disables
    restarts: int = 3  # max adversarial games; stops early once one converges
    restart_disc_acc: float = 0.7  # end-of-game disc accuracy above this = failed game

    def __post_init__(self):
        self.check((
            ("w_steps", self.w_steps >= 0, "at least 0"),
            ("disc_steps", self.disc_steps >= 0, "at least 0"),
            ("batch_size", self.batch_size >= 1, "at least 1"),
            ("disc_hidden", self.disc_hidden >= 1, "at least 1"),
            ("input_dropout", 0.0 <= self.input_dropout < 1.0, "in [0, 1)"),
            ("vocab_cap", self.vocab_cap >= 1, "at least 1"),
            ("csls_k", self.csls_k >= 1, "at least 1"),
            ("dict_top_n", self.dict_top_n >= 1, "at least 1"),
            ("criterion_sample_n", self.criterion_sample_n >= 1, "at least 1"),
            ("restarts", self.restarts >= 1, "at least 1"),
        ))


def _leaky(z, slope=0.2):
    return np.maximum(z, slope * z)


def _leaky_grad(z, slope=0.2):
    return slope + (1.0 - slope) * (z > 0)


def _softplus(z):
    return np.logaddexp(0.0, z)


class Discriminator:
    """Two affine layers with a leaky rectifier between and a sigmoid output."""

    def __init__(self, dim, hidden, rng):
        self.w1 = gaussian_init(rng, hidden, dim, 1.0 / np.sqrt(dim))
        self.b1 = np.zeros(hidden)
        self.w2 = gaussian_init(rng, 1, hidden, 1.0 / np.sqrt(hidden)).ravel()
        self.b2 = 0.0

    def logits(self, x):
        z1 = x @ self.w1.T + self.b1
        return _leaky(z1) @ self.w2 + self.b2

    def _forward_cache(self, x):
        z1 = x @ self.w1.T + self.b1
        a1 = _leaky(z1)
        z2 = a1 @ self.w2 + self.b2
        return z1, a1, z2

    def _dz1(self, dz2, z1):
        return (dz2[:, None] * self.w2) * _leaky_grad(z1)

    def backward(self, x, dz2, cache):
        """Backprop dL/dz2 through the net, given the `_forward_cache` of x;
        returns the parameter grads."""
        z1, a1, _ = cache
        dz1 = self._dz1(dz2, z1)
        return {
            "w1": dz1.T @ x,
            "b1": dz1.sum(axis=0),
            "w2": a1.T @ dz2,
            "b2": float(dz2.sum()),
        }

    def input_grad(self, x, dz2, cache):
        """Backprop dL/dz2 through the net, given the `_forward_cache` of x;
        returns dL/dx alone."""
        return self._dz1(dz2, cache[0]) @ self.w1

    def sgd(self, grads, lr):
        self.w1 -= lr * grads["w1"]
        self.b1 -= lr * grads["b1"]
        self.w2 -= lr * grads["w2"]
        self.b2 -= lr * grads["b2"]


def orthogonalize(w, beta):
    """One pull-back step toward the orthogonal manifold (fixed point there)."""
    return (1 + beta) * w - beta * (w @ w.T) @ w


def _play_game(x_rows, y_rows, rng, config, criterion, log):
    """One full adversarial game; returns (best W of the game, its criterion
    score or None where nothing compared it, discriminator). Each W is
    scored at most once."""
    dim = x_rows.shape[1]
    w = np.eye(dim)
    disc = Discriminator(dim, config.disc_hidden, rng)
    s = config.label_smoothing
    rate = config.input_dropout
    b = config.batch_size
    targets = np.concatenate([np.full(b, s), np.full(b, 1 - s)])
    batch = np.empty((2 * b, dim))
    by = np.empty((b, dim))  # moving rows of one batch, widened to float64
    best_w, best_score = None, -np.inf
    score = None
    z_disc = None  # logits of the last discriminator batch
    for step in range(config.w_steps):
        for _ in range(config.disc_steps):
            idx_y = rng.integers(len(y_rows), b)
            idx_x = rng.integers(len(x_rows), b)
            by[...] = y_rows[idx_y]
            np.matmul(by, w.T, out=batch[:b])
            batch[b:] = x_rows[idx_x]
            mask = dropout_mask(rng, batch.shape, rate)
            if mask is not None:
                batch *= mask
            cache = disc._forward_cache(batch)
            z_disc = cache[2]
            dz = (sigmoid(z_disc) - targets) / b
            disc.sgd(disc.backward(batch, dz, cache), config.lr_disc)
        by[...] = y_rows[rng.integers(len(y_rows), b)]
        mapped = by @ w.T
        mask_t = dropout_mask(rng, mapped.shape, rate)
        in_t = mapped * mask_t if mask_t is not None else mapped
        cache = disc._forward_cache(in_t)
        dz_t = (sigmoid(cache[2]) - 1.0) / b
        d_input = disc.input_grad(in_t, dz_t, cache)
        if mask_t is not None:
            d_input = d_input * mask_t
        w -= config.lr_map * (d_input.T @ by)
        w = orthogonalize(w, config.beta)
        score = None  # criterion of the current w, once known
        if not np.isfinite(w).all():
            raise NumericalError(f"mapper became non-finite at step {step}")
        if config.select_every and (step + 1) % config.select_every == 0:
            score = criterion(w)
            if score > best_score:
                best_w, best_score = w.copy(), score
        if log is not None and (step % 100 == 0 or step == config.w_steps - 1):
            # the losses this step trained on, so keeping a log draws nothing
            d_loss = float("nan")
            if z_disc is not None:
                bce = targets * _softplus(-z_disc) + (1 - targets) * _softplus(z_disc)
                d_loss = float(bce[:b].mean() + bce[b:].mean())
            log((step, d_loss, float(_softplus(-cache[2]).mean())))
    if best_w is not None:  # the final W competes with a snapshot
        if score is None:  # the last step was not scored in the loop
            score = criterion(w)
        if score < best_score:
            return best_w, best_score, disc
    return w, score, disc


def _disc_accuracy(disc, w, x_rows, y_rows, rng, sample=256):
    """Balanced accuracy of the discriminator on fresh dropout-free samples."""
    idx_y = rng.integers(len(y_rows), min(sample, len(y_rows)))
    idx_x = rng.integers(len(x_rows), min(sample, len(x_rows)))
    p_t = sigmoid(disc.logits(y_rows[idx_y] @ w.T))
    p_s = sigmoid(disc.logits(x_rows[idx_x]))
    return 0.5 * (float((p_t < 0.5).mean()) + float((p_s >= 0.5).mean()))


def adversarial_train(space_table, moving_table, rng, config, log=None):
    """Learn W mapping rows of moving_table into the space of space_table.

    One game alternates config.disc_steps discriminator SGD updates with one
    adversary update of W; after each adversary update the orthogonality
    pull-back with config.beta is applied. W starts at the identity. Every
    config.select_every steps the mapper is scored with the dictionary-free
    criterion and the game returns its best-scoring snapshot (the game
    oscillates once converged; the criterion picks a converged state).

    The game is all-or-nothing: it either aligns the spaces (end-of-game
    discriminator accuracy falls to chance) or stalls with the discriminator
    winning. Up to config.restarts games are played, stopping at the first
    whose discriminator accuracy is at most config.restart_disc_acc; the
    best W across games by the criterion is returned.

    Calls `log`, if given, with a (step, disc_loss, adv_loss) tuple every
    100 steps and at the last: the discriminator's BCE on its last batch
    (mapped-target and source halves, each averaged, as trained: smoothed
    labels, dropout) and the mapper's BCE on its batch against the source
    label. Logging draws no random numbers, so it never changes the mapper.
    """
    if space_table.dim != moving_table.dim:
        raise UsageError(f"dimension mismatch: {space_table.language or 'space'} "
                         f"{space_table.dim} vs {moving_table.language or 'moving'} "
                         f"{moving_table.dim}")
    for table, role in ((space_table, "space"), (moving_table, "moving")):
        if len(table) == 0:
            raise UsageError(f"{table.language or role} table has no rows to align")
    x_rows = np.ascontiguousarray(space_table.vectors[: config.vocab_cap])
    y_rows = np.ascontiguousarray(moving_table.vectors[: config.vocab_cap])

    def criterion(candidate):
        return unsupervised_criterion(
            space_table, moving_table, LinearMapper(candidate),
            config.criterion_sample_n, config.csls_k,
        )

    if config.w_steps == 0:
        return LinearMapper(np.eye(space_table.dim), T_TO_S)
    best_w, best_score = None, None
    for _ in range(config.restarts):
        w, score, disc = _play_game(x_rows, y_rows, rng, config, criterion, log)
        if best_w is None:
            best_w, best_score = w, score
        else:
            # scored only now that a second game reads the scores; the
            # criterion draws no random numbers, so W does not change
            if best_score is None:
                best_score = criterion(best_w)
            if score is None:
                score = criterion(w)
            if score > best_score:
                best_w, best_score = w, score
        if _disc_accuracy(disc, w, x_rows, y_rows, rng) <= config.restart_disc_acc:
            break
    return LinearMapper(best_w, T_TO_S)


def _whole_64(n):
    """n rounded down to a multiple of 64; below 64, n itself (at least 1)."""
    return n - n % 64 if n >= 64 else max(1, n)


def _tiling(nq, nk):
    """(query blocks, key tiles) of nq queries against nk >= 1 keys, each
    tile CSLS_TILE_BYTES of cosines."""
    # a BLAS product taken in blocks can round otherwise than one product of
    # the whole matrix; CSLS stays exact because the sweep, _rescore and the
    # two-pass oracle take every product in these same tiles
    cells = max(1, CSLS_TILE_BYTES // 8)
    key_step = min(nk, _whole_64(math.isqrt(cells)))
    query_step = _whole_64(cells // key_step)
    return ([(lo, min(lo + query_step, nq)) for lo in range(0, nq, query_step)],
            [(lo, min(lo + key_step, nk)) for lo in range(0, nk, key_step)])


def _keep_top(vals, ids, a, offset):
    """Fold each row of a into that row's running largest values (vals, in
    place) and their ids (ids, in place: offset + column of a)."""
    n, m = a.shape
    k = vals.shape[1]
    # the k groups with the largest maxima hold a row's k largest entries
    # (a larger entry elsewhere would need k groups of larger maxima); group
    # j holds columns j, j + m/f, ..., so the maxima are f slabs compared
    f = next((f for f in (8, 4, 2) if m % f == 0 and m // f > k), 1)
    if f > 1:
        g = m // f
        maxima = a.reshape(n, f, g).max(axis=1)
        groups = np.argpartition(maxima, g - k, axis=1)[:, g - k:]
        cols = (groups[:, :, None] + g * np.arange(f)).reshape(n, k * f)
    else:
        cols = np.broadcast_to(np.arange(m), a.shape)
    both = np.hstack([vals, np.take_along_axis(a, cols, axis=1)])
    both_ids = np.hstack([ids, cols + offset])
    keep = np.argpartition(both, both.shape[1] - k, axis=1)[:, -k:]
    vals[...] = np.take_along_axis(both, keep, axis=1)
    ids[...] = np.take_along_axis(both_ids, keep, axis=1)


def _sweep(qn, keys, k, query_blocks, key_tiles, key_top=None):
    """One pass over every (key tile x query block) of cosines between the
    unit queries qn and the keys, normalized tile by tile.

    Returns each query's k largest cosines with their key ids, and r_keys,
    each key's mean over its k largest cosines (k clamped to the set sizes).
    key_top, a pair of (nk, k) arrays, receives each key's k largest
    cosines with their query ids; otherwise that state lives one key tile
    at a time.
    """
    nq, nk = qn.shape[0], keys.shape[0]
    k_row, k_col = min(k, nk), min(k, nq)
    row_vals = np.full((nq, k_row), -np.inf)
    row_ids = np.zeros((nq, k_row), dtype=np.intp)
    r_keys = np.empty(nk)
    for klo, khi in key_tiles:
        kn = normalize(keys[klo:khi])
        col_vals = np.full((khi - klo, k_col), -np.inf)
        col_ids = np.zeros((khi - klo, k_col), dtype=np.intp)
        for qlo, qhi in query_blocks:
            cos = qn[qlo:qhi] @ kn.T
            _keep_top(row_vals[qlo:qhi], row_ids[qlo:qhi], cos, klo)
            _keep_top(col_vals, col_ids, cos.T, qlo)
        # sorted, then summed down a C-order (k, tile) array: the order in
        # which the means were always taken, so the bits do not move
        r_keys[klo:khi] = np.ascontiguousarray(
            np.sort(col_vals, axis=1).T).mean(axis=0)
        if key_top is not None:
            key_top[0][klo:khi] = col_vals
            key_top[1][klo:khi] = col_ids
    return row_vals, row_ids, r_keys


def _rescore(qn, keys, r_q, r_k, key_tiles, blocks, best_idx, best_score):
    """Every CSLS score of the given query blocks, key tiles in increasing
    order, with a running argmax per query (ties to the lowest key id)."""
    for qlo, qhi in blocks:
        best_idx[qlo:qhi] = 0
        best_score[qlo:qhi] = -np.inf
    for klo, khi in key_tiles:
        kn = normalize(keys[klo:khi])
        for qlo, qhi in blocks:
            scores = qn[qlo:qhi] @ kn.T
            scores *= 2
            scores -= r_q[qlo:qhi, None]
            scores -= r_k[None, klo:khi]
            arg = scores.argmax(axis=1)
            top = scores[np.arange(qhi - qlo), arg]
            better = top > best_score[qlo:qhi]
            np.copyto(best_idx[qlo:qhi], arg + klo, where=better)
            np.copyto(best_score[qlo:qhi], top, where=better)


def _candidate_top1(vals, ids, r_q, r_k, n_keys, slack):
    """CSLS top-1 of each query among its candidates, its k largest cosines
    (vals) with their key ids, and its score; and whether it is settled:
    it beats every other candidate, and the bound that no key outside them
    can pass, by more than 2 * slack. The scores and the bound are formed
    by the operations of _rescore in its order, and rounding is monotone,
    so with slack 0 a settled top-1 is the search's over all keys, bit for
    bit; slack covers cosines that the search rounds otherwise."""
    scores = vals * 2
    scores -= r_q[:, None]
    scores -= r_k[ids]
    pos = scores.argmax(axis=1)[:, None]
    best = np.take_along_axis(scores, pos, axis=1)[:, 0]
    settled = ~np.isnan(best)
    k = vals.shape[1]
    if k > 1:
        second = np.partition(scores, k - 2, axis=1)[:, k - 2]
        settled &= best - second > 2 * slack
    if k < n_keys:
        # a cosine of at most the k-th largest and an r of at least the least
        bound = vals.min(axis=1) * 2
        bound -= r_q
        bound -= r_k.min()
        settled &= best - bound > 2 * slack
    return np.take_along_axis(ids, pos, axis=1)[:, 0], best, settled


def _top1(qn, keys, row_vals, row_ids, r_k, query_blocks, key_tiles):
    """CSLS top-1 per query from its k largest cosines; only the query
    blocks that hold a query the candidates cannot settle (zero rows, ties)
    are rescored, each whole, in the shape that the sweep gave it, so its
    cosines are those of the sweep, bit for bit."""
    nq = row_vals.shape[0]
    best_idx = np.empty(nq, dtype=np.int64)
    best_score = np.empty(nq)
    r_q = np.empty(nq)
    rerun = []
    for lo, hi in query_blocks:
        vals = row_vals[lo:hi]
        r_q[lo:hi] = np.sort(vals, axis=1).mean(axis=1)
        best_idx[lo:hi], best_score[lo:hi], settled = _candidate_top1(
            vals, row_ids[lo:hi], r_q[lo:hi], r_k, keys.shape[0], 0.0)
        if not settled.all():
            rerun.append((lo, hi))
    if rerun:  # _rescore normalizes every key tile, even for no blocks
        _rescore(qn, keys, r_q, r_k, key_tiles, rerun, best_idx, best_score)
    return best_idx, best_score


def csls_top1(queries, keys, k, unit=False):
    """Row-wise argmax of the CSLS scores 2 cos(q, key) - r_keys(q) -
    r_queries(key) and its score, in tiles; r is the mean cosine of a
    point's k nearest neighbors in the other set (k clamped to the set size).

    One pass over (key tile x query block), each tile CSLS_TILE_BYTES of
    cosines, keeps every query's k largest cosines with their key ids and
    every key's k largest cosines. The argmax is then found among each
    query's k candidates, and it is the argmax over all keys whenever it
    beats the bound no other key can reach; a query block that holds a
    query where it does not is rescored whole, tile by tile. Either way
    ties go to the lowest key index, and ids and scores are those of
    scoring every cosine. Keys of any float dtype are widened and
    normalized tile by tile: the working memory is a float64 copy of the
    queries, a few floats and ids per row, and a few tiles. With unit=True
    the queries are float64 unit rows, as normalize gives them, and are
    searched as they are, not copied.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    queries = np.atleast_2d(np.asarray(queries))
    qn = queries if unit else normalize(queries)
    keys = np.atleast_2d(np.asarray(keys))
    if keys.shape[0] == 0:
        raise UsageError("no keys to match")
    query_blocks, key_tiles = _tiling(qn.shape[0], keys.shape[0])
    row_vals, row_ids, r_k = _sweep(qn, keys, k, query_blocks, key_tiles)
    return _top1(qn, keys, row_vals, row_ids, r_k, query_blocks, key_tiles)


def _unit_queries(rows, w):
    """normalize(rows @ w.T) in float64, in one array: mapped_rows, then
    normalized in place."""
    queries = mapped_rows(rows, w)
    return normalize(queries, out=queries)


def _rounding_slack(dim, k):
    """The most that a CSLS score of unit rows of dim entries can move when
    its cosines are summed in another order: a dot product's rounding error
    is at most dim u |q| |key| in any order (u = eps / 2), and a score holds
    twice a cosine, two means of k of them and a few roundings of its own.
    This bound, doubled."""
    return (16 * dim + 8 * k + 64) * np.finfo(np.float64).eps


def induce_dictionary(source_table, target_table, mapper, k=10, top_n=10000):
    """Mutual CSLS top-1 pairs between the top_n most frequent words.

    Pairs are (target index, source index); one-directional matches are
    dropped. An empty result raises AlignmentError (failed alignment).

    One sweep over the cosines, in the tiles of the target -> source
    search, keeps the k largest of every target's and every source word's
    cosines. The target -> source matches follow as in csls_top1. A source
    word's match is taken from its candidates only where no rounding of
    the same cosines in the source -> target tiles could change it, since
    BLAS need not give a tile and its transpose the same bits. Should a
    source word that some target matches stay unsettled, the source ->
    target search runs in full; it maps the targets again.
    """
    n_t = min(top_n, len(target_table))
    n_s = min(top_n, len(source_table))
    if n_t == 0 or n_s == 0:
        raise AlignmentError("empty vocabulary")
    src = source_table.vectors[:n_s]
    nt = _unit_queries(target_table.vectors[:n_t], mapper.w)
    query_blocks, key_tiles = _tiling(n_t, n_s)
    k_col = min(k, n_t)
    src_vals = np.empty((n_s, k_col))
    src_ids = np.empty((n_s, k_col), dtype=np.intp)
    tgt_vals, tgt_ids, r_src = _sweep(nt, src, k, query_blocks, key_tiles,
                                      (src_vals, src_ids))
    fwd, _ = _top1(nt, src, tgt_vals, tgt_ids, r_src, query_blocks, key_tiles)
    del nt
    slack = _rounding_slack(mapper.dim, k)
    r_tgt = tgt_vals.mean(axis=1)
    bwd = np.empty(n_s, dtype=np.int64)
    settled = np.empty(n_s, dtype=bool)
    for lo, hi in key_tiles:
        vals = src_vals[lo:hi]
        bwd[lo:hi], _, settled[lo:hi] = _candidate_top1(
            vals, src_ids[lo:hi], vals.mean(axis=1), r_tgt, n_t, slack)
    if not settled[fwd].all():
        bwd, _ = csls_top1(src, mapped_rows(target_table.vectors[:n_t],
                                            mapper.w), k)
    pairs = [(t, int(s)) for t, s in enumerate(fwd) if bwd[s] == t]
    if not pairs:
        raise AlignmentError("induced dictionary is empty")
    return SeedDictionary(pairs)


def procrustes(x_dict, y_dict, direction=T_TO_S):
    """Closed-form orthogonal map W minimizing sum ||W y_i - x_i||^2.

    x_dict and y_dict hold dictionary-aligned rows (source and target side);
    rows that are not float64 are widened whole, so a caller with float32
    tables gathers them widened (refine does).
    """
    x_dict = np.atleast_2d(np.asarray(x_dict, dtype=np.float64))
    y_dict = np.atleast_2d(np.asarray(y_dict, dtype=np.float64))
    if x_dict.shape != y_dict.shape:
        raise UsageError("dictionary sides differ in shape")
    p, d = x_dict.shape
    if p < d:
        warnings.warn(f"procrustes with {p} pairs for dimension {d} (p >= d recommended)")
    m = x_dict.T @ y_dict
    u, s, v = svd_square(m)
    if s[-1] < 1e-12 * max(s[0], 1e-300):
        warnings.warn("rank-deficient cross-covariance in procrustes")
    return LinearMapper(u @ v.T, direction)


def unsupervised_criterion(source_table, target_table, mapper, sample_n=2500, k=10):
    """Mean CSLS score of the top-1 source match for the sample_n most
    frequent target words; higher is better. Deterministic."""
    n = min(sample_n, len(target_table))
    queries = _unit_queries(target_table.vectors[:n], mapper.w)
    _, scores = csls_top1(queries, source_table.vectors, k, unit=True)
    return float(scores.mean())


def identical_string_p1(space_table, moving_table, mapper, k, cap=5000):
    """CSLS P@1 over words spelled identically in both vocabularies."""
    shared = [
        (moving_table.index(w), space_table.index(w))
        for w in moving_table.words[:cap]
        if w in space_table
    ]
    if not shared:
        return float("nan")
    m_idx = [m for m, _ in shared]
    queries = _unit_queries(moving_table.vectors[m_idx], mapper.w)
    best, _ = csls_top1(queries, space_table.vectors, k, unit=True)
    hits = sum(1 for rank, (_, s) in enumerate(shared) if best[rank] == s)
    return hits / len(shared)


def _widened_rows(vectors, idx):
    """vectors[idx] in float64, gathered BLOCK_ROWS rows at a time, so no
    copy in the table's own dtype is held beside it."""
    out = np.empty((len(idx), vectors.shape[1]))
    for lo in range(0, len(idx), BLOCK_ROWS):
        out[lo:lo + BLOCK_ROWS] = vectors[idx[lo:lo + BLOCK_ROWS]]
    return out


def refine(source_table, target_table, w0, iterations, k=10, top_n=10000,
           criterion_sample_n=2500, log=None):
    """Alternate dictionary induction and Procrustes; keep the best iterate.

    Best is judged by unsupervised_criterion. If the dictionary collapses
    (fewer pairs than the dimension) the loop stops early and the best
    mapper so far (w0 if none) is returned. `log`, if given, is called with
    an (iteration, criterion, dictionary size) tuple per iteration.
    """
    if iterations < 1:
        raise UsageError("iterations must be >= 1")
    mapper = w0 if isinstance(w0, LinearMapper) else LinearMapper(w0)
    direction = mapper.direction
    dim = mapper.dim
    best = None
    best_score = -np.inf
    current = mapper
    for it in range(1, iterations + 1):
        try:
            dico = induce_dictionary(source_table, target_table, current, k, top_n)
        except AlignmentError:
            break
        if len(dico) < dim:
            break
        t_idx = [t for t, _ in dico.pairs]
        s_idx = [s for _, s in dico.pairs]
        current = procrustes(_widened_rows(source_table.vectors, s_idx),
                             _widened_rows(target_table.vectors, t_idx),
                             direction)
        score = unsupervised_criterion(
            source_table, target_table, current, criterion_sample_n, k
        )
        if log is not None:
            log((it, score, len(dico)))
        if score > best_score:
            best, best_score = LinearMapper(current.w.copy(), direction), score
    return best if best is not None else mapper
