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
from .embeddings import normalize
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

    @property
    def size(self):
        return len(self.pairs)

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

    def backward(self, x, dz2, cache=None, need_input_grad=True):
        """Backprop dL/dz2 through the net; returns (param grads, dL/dx)."""
        z1, a1, _ = cache if cache is not None else self._forward_cache(x)
        dw2 = a1.T @ dz2
        db2 = float(dz2.sum())
        dz1 = (dz2[:, None] * self.w2) * _leaky_grad(z1)
        grads = {
            "w1": dz1.T @ x,
            "b1": dz1.sum(axis=0),
            "w2": dw2,
            "b2": db2,
        }
        return grads, (dz1 @ self.w1 if need_input_grad else None)

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
    score, discriminator). Each W is scored at most once."""
    dim = x_rows.shape[1]
    w = np.eye(dim)
    disc = Discriminator(dim, config.disc_hidden, rng)
    s = config.label_smoothing
    rate = config.input_dropout
    b = config.batch_size
    targets = np.concatenate([np.full(b, s), np.full(b, 1 - s)])
    batch = np.empty((2 * b, dim))
    best_w, best_score = None, -np.inf
    score = None
    z_disc = None  # logits of the last discriminator batch
    for step in range(config.w_steps):
        for _ in range(config.disc_steps):
            idx_y = rng.integers(len(y_rows), b)
            idx_x = rng.integers(len(x_rows), b)
            np.matmul(y_rows[idx_y], w.T, out=batch[:b])
            batch[b:] = x_rows[idx_x]
            mask = dropout_mask(rng, batch.shape, rate)
            if mask is not None:
                batch *= mask
            cache = disc._forward_cache(batch)
            z_disc = cache[2]
            dz = (sigmoid(z_disc) - targets) / b
            grads, _ = disc.backward(batch, dz, cache, need_input_grad=False)
            disc.sgd(grads, config.lr_disc)
        by = y_rows[rng.integers(len(y_rows), b)]
        mapped = by @ w.T
        mask_t = dropout_mask(rng, mapped.shape, rate)
        in_t = mapped * mask_t if mask_t is not None else mapped
        cache = disc._forward_cache(in_t)
        dz_t = (sigmoid(cache[2]) - 1.0) / b
        _, d_input = disc.backward(in_t, dz_t, cache)
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
            log.append((step, d_loss, float(_softplus(-cache[2]).mean())))
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

    Appends (step, disc_loss, adv_loss) tuples to `log` every 100 steps and
    at the last: the discriminator's BCE on its last batch (mapped-target and
    source halves, each averaged, as trained: smoothed labels, dropout) and
    the mapper's BCE on its batch against the source label. Logging draws
    no random numbers, so it never changes the mapper.
    """
    if space_table.dim != moving_table.dim:
        raise UsageError(f"dimension mismatch: {space_table.language or 'space'} "
                         f"{space_table.dim} vs {moving_table.language or 'moving'} "
                         f"{moving_table.dim}")
    x_rows = np.ascontiguousarray(space_table.vectors[: config.vocab_cap])
    y_rows = np.ascontiguousarray(moving_table.vectors[: config.vocab_cap])

    def criterion(candidate):
        return unsupervised_criterion(
            space_table, moving_table, LinearMapper(candidate),
            config.criterion_sample_n, config.csls_k,
        )

    if config.w_steps == 0:
        return LinearMapper(np.eye(space_table.dim), T_TO_S)
    best_w, best_score = None, -np.inf
    for _ in range(config.restarts):
        w, score, disc = _play_game(x_rows, y_rows, rng, config, criterion, log)
        if score > best_score:
            best_w, best_score = w, score
        if _disc_accuracy(disc, w, x_rows, y_rows, rng) <= config.restart_disc_acc:
            break
    return LinearMapper(best_w, T_TO_S)


def _top_k(a, k, axis):
    """The k largest entries of a along axis (all of them if there are fewer)."""
    n = a.shape[axis]
    if n <= k:
        return a
    top = np.partition(a, n - k, axis=axis)
    return top[:, n - k :] if axis == 1 else top[n - k :]


def _whole_64(n):
    """n rounded down to a multiple of 64; below 64, n itself (at least 1)."""
    return n - n % 64 if n >= 64 else max(1, n)


def csls_top1(queries, keys, k):
    """Row-wise argmax of the CSLS scores 2 cos(q, key) - r_keys(q) -
    r_queries(key) and its score, in tiles; r is the mean cosine of a
    point's k nearest neighbors in the other set (k clamped to the set size).

    Two passes over (key tile x query block), each tile CSLS_TILE_BYTES of
    cosines. The first keeps every query's and every key's k largest
    cosines; the second recomputes the cosines, forms the scores and keeps a
    running argmax per query, key tiles in increasing order, so ties go to
    the lowest key index. Keys are normalized tile by tile: the working
    memory is the queries, a few floats per row, and a few tiles.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    qn = normalize(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    keys = np.atleast_2d(np.asarray(keys, dtype=np.float64))
    nq, nk = qn.shape[0], keys.shape[0]
    if nk == 0:
        raise UsageError("no keys to match")
    k_row = min(k, nk)
    k_col = min(k, nq)
    # tiles start at multiples of 64 rows, where the kernel blocks of one
    # whole-matrix BLAS product start, so the cosines match that product's
    cells = max(1, CSLS_TILE_BYTES // 8)
    key_step = min(nk, _whole_64(math.isqrt(cells)))
    query_step = _whole_64(cells // key_step)
    key_tiles = [(lo, min(lo + key_step, nk)) for lo in range(0, nk, key_step)]
    query_blocks = [(lo, min(lo + query_step, nq))
                    for lo in range(0, nq, query_step)]
    row_top = np.full((nq, k_row), -np.inf)
    r_k = np.empty(nk)
    for klo, khi in key_tiles:
        kn = normalize(keys[klo:khi])
        col_top = np.full((k_col, khi - klo), -np.inf)
        for qlo, qhi in query_blocks:
            cos = qn[qlo:qhi] @ kn.T
            row_top[qlo:qhi] = _top_k(np.hstack(
                [row_top[qlo:qhi], _top_k(cos, k_row, 1)]), k_row, 1)
            col_top = _top_k(np.vstack([col_top, _top_k(cos, k_col, 0)]), k_col, 0)
        # sorted before averaging, so the means do not depend on the tiling
        r_k[klo:khi] = np.sort(col_top, axis=0).mean(axis=0)
    r_q = np.sort(row_top, axis=1).mean(axis=1)
    best_idx = np.zeros(nq, dtype=np.int64)
    best_score = np.full(nq, -np.inf)
    for klo, khi in key_tiles:
        kn = normalize(keys[klo:khi])
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


def induce_dictionary(source_table, target_table, mapper, k=10, top_n=10000):
    """Mutual CSLS top-1 pairs between the top_n most frequent words.

    Pairs are (target index, source index); one-directional matches are
    dropped. An empty result raises AlignmentError (failed alignment).
    """
    n_t = min(top_n, len(target_table))
    n_s = min(top_n, len(source_table))
    if n_t == 0 or n_s == 0:
        raise AlignmentError("empty vocabulary")
    mapped_t = target_table.vectors[:n_t] @ mapper.w.T
    src = source_table.vectors[:n_s]
    fwd, _ = csls_top1(mapped_t, src, k)
    bwd, _ = csls_top1(src, mapped_t, k)
    pairs = [(t, int(s)) for t, s in enumerate(fwd) if bwd[s] == t]
    if not pairs:
        raise AlignmentError("induced dictionary is empty")
    return SeedDictionary(pairs)


def procrustes(x_dict, y_dict, direction=T_TO_S):
    """Closed-form orthogonal map W minimizing sum ||W y_i - x_i||^2.

    x_dict and y_dict hold dictionary-aligned rows (source and target side).
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
    mapped = target_table.vectors[:n] @ mapper.w.T
    _, scores = csls_top1(mapped, source_table.vectors, k)
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
    mapped = moving_table.vectors[m_idx] @ mapper.w.T
    best, _ = csls_top1(mapped, space_table.vectors, k)
    hits = sum(1 for rank, (_, s) in enumerate(shared) if best[rank] == s)
    return hits / len(shared)


def refine(source_table, target_table, w0, iterations, k=10, top_n=10000,
           criterion_sample_n=2500, history=None):
    """Alternate dictionary induction and Procrustes; keep the best iterate.

    Best is judged by unsupervised_criterion. If the dictionary collapses
    (fewer pairs than the dimension) the loop stops early and the best
    mapper so far (w0 if none) is returned. history, when given, collects
    (iteration, criterion, dictionary size) rows.
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
        if dico.size < dim:
            break
        t_idx = [t for t, _ in dico.pairs]
        s_idx = [s for _, s in dico.pairs]
        current = procrustes(
            source_table.vectors[s_idx], target_table.vectors[t_idx], direction
        )
        score = unsupervised_criterion(
            source_table, target_table, current, criterion_sample_n, k
        )
        if history is not None:
            history.append((it, score, dico.size))
        if score > best_score:
            best, best_score = LinearMapper(current.w.copy(), direction), score
    return best if best is not None else mapper
