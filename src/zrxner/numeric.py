"""Deterministic numeric substrate: stable log-sum-exp, small dense SVD,
clipped SGD steps, and seeded random draws.

All training math is float64. The random generator is PCG64, and its name
is recorded in checkpoints. A run is deterministic given the seed, the
NumPy and BLAS build, and the BLAS thread count: some matrix products give
other bits with another OpenBLAS thread count. Training runs at the
default thread count. `tag` pins one thread in each of its processes
(`workers.blas_threads`), so its output does not depend on the job count or
the core count. Every mapper and checkpoint that a command writes, and
`finetune --manifest`, record the thread count with the NumPy and BLAS
versions (`workers.numeric_environment`).
"""

import numpy as np

from .errors import UsageError

RNG_ALGORITHM = "pcg64"


class Rng:
    """Seeded random source. Identical seed gives identical draw sequences."""

    def __init__(self, seed):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform_int(self, lo, hi):
        """Uniform integer in [lo, hi] inclusive."""
        if lo > hi:
            raise UsageError(f"empty range [{lo}, {hi}]")
        return int(self._gen.integers(lo, hi + 1))

    def integers(self, n, size):
        """size indices uniform over [0, n)."""
        return self._gen.integers(0, n, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def normal(self, shape, scale=1.0):
        return self._gen.normal(0.0, scale, size=shape)

    def uniform(self, size=None):
        return self._gen.random(size)


def sigmoid(z, out=None):
    """Logistic function through tanh, which cannot overflow. With out
    (which may be z) it is written there."""
    out = np.multiply(0.5, z, out=out)
    np.tanh(out, out=out)
    np.add(1.0, out, out=out)
    return np.multiply(0.5, out, out=out)


def dropout_mask(rng, shape, rate):
    """Inverted dropout mask: entries are 0 with probability `rate`, else
    1 / (1 - rate). Returns None when rate is 0 (nothing is drawn)."""
    if not 0.0 <= rate < 1.0:
        raise UsageError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0:
        return None
    return (rng.uniform(shape) >= rate) / (1.0 - rate)


def log_sum_exp(a, axis):
    """log(sum(exp(a))) along axis, with max-subtraction."""
    mx = a.max(axis=axis, keepdims=True)
    return (mx + np.log(np.exp(a - mx).sum(axis=axis, keepdims=True))).squeeze(axis)


def svd_square(m):
    """SVD of a square matrix: returns (U, sigma, V) with m = U @ diag(sigma) @ V.T.

    U and V are orthogonal, sigma nonincreasing and nonnegative.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise UsageError(f"svd_square needs a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise UsageError("svd_square input has non-finite entries")
    u, s, vh = np.linalg.svd(m)
    return u, s, vh.T


def _scratch(grads):
    """One float64 buffer as large as the largest gradient."""
    return np.empty(max((g.size for g in grads.values()), default=0))


def _like(scratch, g):
    """The leading part of scratch, shaped like g."""
    return scratch[: g.size].reshape(g.shape)


def global_grad_norm(grads, scratch=None):
    """L2 norm over every entry of a dict of gradient arrays. Each square
    is formed in scratch (see `_scratch`), one tensor at a time."""
    if scratch is None:
        scratch = _scratch(grads)
    total = 0.0
    for g in grads.values():
        total += float(np.multiply(g, g, out=_like(scratch, g)).sum())
    return float(np.sqrt(total))


def clipped_sgd_step(params, grads, lr, clip):
    """In-place SGD step with global-norm clipping.

    If the global gradient norm exceeds `clip`, every gradient is scaled by
    clip/norm before p -= lr * g. Mutates the arrays in `params` (aliased
    tensors stay aliased) and returns them.
    """
    if lr <= 0:
        raise UsageError("learning rate must be positive")
    if clip <= 0:
        raise UsageError("clip must be positive")
    missing = set(grads) - set(params)
    if missing:
        raise UsageError(f"gradients for unknown parameters: {sorted(missing)}")
    scratch = _scratch(grads)
    norm = global_grad_norm(grads, scratch)
    scale = clip / norm if norm > clip else 1.0
    for name, g in grads.items():
        p = params[name]
        if p.shape != g.shape:
            raise UsageError(f"shape mismatch for {name}: {p.shape} vs {g.shape}")
        p -= np.multiply(lr * scale, g, out=_like(scratch, g))
    return params


def gaussian_init(rng, rows, cols, scale):
    """rows x cols matrix of i.i.d. normal(0, scale^2) entries, float64."""
    if scale <= 0:
        raise UsageError("scale must be positive")
    return rng.normal((rows, cols), scale)
