"""Determinantal repulsion over encoded sentences.

The kernel uses a quality/diversity decomposition: L = diag(q) S diag(q),
where q is the per-sentence summary probability and S = U U^T is the cosine
Gram matrix of the unit-norm encoded sentences U. Subset log-probability is
log det(L_Y) - log det(L + I); the normalizer identity
sum_Y det(L_Y) = det(L + I) is exercised by brute force in the tests.

L + I and the subset minor are each Cholesky-factored once, for both the
log-det and the gradient. The gradient runs through B = diag(q) U (L = B B^T)
in n x d form: O(n^3 / 3 + n^2 d) for n sentences of width d. A ridge on the
subset minor keeps training stable near duplicate sentences (escalating
tenfold up to 1e-4 on factorization failure); a zero ridge is exact and is
what test oracles use. The value path (kernel, log-determinants, subset
log-probability) also takes a stack of documents' encodings, one per
parameter row, as finite-difference certification batches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import cho_solve

__all__ = [
    "DppKernel",
    "DppLoss",
    "SingularMinorError",
    "ZeroNormError",
    "build_kernel",
    "dpp_log_prob",
    "dpp_loss_and_grad",
    "brute_force_subset_sum",
]

_MAX_RIDGE = 1e-4
_BRUTE_FORCE_LIMIT = 16


class SingularMinorError(Exception):
    """Raised when a subset minor cannot be factorized (even after ridge
    escalation when a positive ridge was requested)."""


class ZeroNormError(ValueError):
    """Raised when an encoded sentence has zero norm (cosine undefined)."""


@dataclass(frozen=True)
class DppKernel:
    """Quality vector, similarity matrix, and their product kernel."""

    quality: np.ndarray
    similarity: np.ndarray
    kernel: np.ndarray
    ridge: float


def build_kernel(hidden, quality, ridge=0.0):
    """Assemble L = diag(q) S diag(q) from encoded sentences and qualities.

    Parameters
    ----------
    hidden : (n, d) array
        Encoded sentence representations. Rows must have non-zero norm.
    quality : (n,) array
        Per-sentence quality scores in (0, 1].
    ridge : float
        Stored on the kernel; applied to subset minors during factorization.

    Leading axes on both (hidden (B, n, d), quality (B, n)) give a stack of
    B kernels.
    """
    return _kernel_with_rows(hidden, quality, ridge)[0]


def _kernel_with_rows(hidden, quality, ridge):
    """:func:`build_kernel`'s kernel, the unit rows u_i = h_i / |h_i| and the
    norms |h_i|, which the gradient chains through."""
    hidden = np.asarray(hidden, dtype=float)
    quality = np.asarray(quality, dtype=float)
    if hidden.ndim < 2 or quality.shape != hidden.shape[:-1]:
        raise ValueError("hidden must be (n, d) and quality (n,)")
    norms = np.linalg.norm(hidden, axis=-1)
    if np.any(norms == 0):
        raise ZeroNormError("zero-norm sentence representation; cosine undefined")
    if np.any(quality <= 0):
        raise ValueError("quality scores must be positive")
    unit = hidden / norms[..., None]
    similarity = unit @ unit.swapaxes(-1, -2)
    similarity = 0.5 * (similarity + similarity.swapaxes(-1, -2))
    kernel = quality[..., :, None] * similarity * quality[..., None, :]
    return (DppKernel(quality=quality, similarity=similarity, kernel=kernel,
                      ridge=float(ridge)), unit, norms)


def _chol_logdet(matrix):
    """Lower Cholesky factor and log det of a matrix or a stack of them;
    raises np.linalg.LinAlgError if any one is not PD."""
    factor = np.linalg.cholesky(matrix)
    diag = np.diagonal(factor, axis1=-2, axis2=-1)
    if np.any(diag <= 0) or not np.isfinite(diag).all():
        raise np.linalg.LinAlgError("non-positive pivot")
    return factor, 2.0 * np.log(diag).sum(axis=-1)


def _minor_logdet(kernel_matrix, subset, ridge):
    """Lower Cholesky factor, log det and ridge of the subset minor plus ridge,
    for one kernel or a stack of them; see :func:`_ridged_logdet`."""
    return _ridged_logdet(kernel_matrix[..., subset, :][..., subset], ridge)


def _ridged_logdet(minor, ridge):
    """Factor ``minor`` plus ridge; the ridge escalates tenfold (up to 1e-4)
    on failure, a zero ridge never. A stack is factored at ``ridge`` as one;
    if any matrix fails, each escalates on its own, exactly as it would
    alone, and the largest ridge used is returned."""
    eye = np.eye(minor.shape[-1])
    eps = ridge
    while True:
        try:
            return *_chol_logdet(minor + eps * eye), eps
        except np.linalg.LinAlgError:
            if minor.ndim > 2:
                factors, logdets, ridges = zip(*(_ridged_logdet(m, ridge) for m in minor))
                return np.stack(factors), np.array(logdets), max(ridges)
            if eps == 0.0 or eps >= _MAX_RIDGE:
                raise SingularMinorError(
                    f"singular subset minor (|Y| = {len(minor)}, ridge = {eps:g})"
                ) from None
            eps = min(eps * 10.0, _MAX_RIDGE)


def _subset_indices(subset, n):
    """Sorted distinct indices of ``subset``; IndexError unless all lie in [0, n)."""
    subset = sorted(set(int(i) for i in subset))
    if subset and (subset[0] < 0 or subset[-1] >= n):
        raise IndexError(f"subset indices out of range for n = {n}")
    return subset


def dpp_log_prob(kernel, subset):
    """log P(Y) = log det(L_Y + ridge I) - log det(L + I).

    The empty subset is valid (numerator term 0). Duplicate rows with a zero
    ridge raise :class:`SingularMinorError`. A stack of kernels gives one
    log-probability per kernel.
    """
    n = kernel.kernel.shape[-1]
    subset = _subset_indices(subset, n)
    _, log_norm = _chol_logdet(kernel.kernel + np.eye(n))
    if not subset:
        return -log_norm
    _, log_minor, _ = _minor_logdet(kernel.kernel, subset, kernel.ridge)
    return log_minor - log_norm


@dataclass(frozen=True)
class DppLoss:
    """Negative subset log-probability plus gradients with respect to the
    encoded sentences and the quality scores."""

    value: float
    d_hidden: np.ndarray
    d_quality: np.ndarray
    ridge_used: float


def dpp_loss_and_grad(hidden, quality, subset, ridge=1e-8):
    """Repulsion loss -log P(Y | L) and its exact gradients.

    Parameters
    ----------
    hidden : (n, d) array
        Encoded sentences; the similarity matrix is their cosine Gram.
    quality : (n,) array
        Summary probabilities, strictly inside (0, 1).
    subset : iterable of int
        Ground-truth summary indices Y (non-empty, each in [0, n)).
    ridge : float
        Diagonal ridge on the subset minor, applied consistently in the value
        and the gradients.

    Returns
    -------
    DppLoss
    """
    kern, unit, norms = _kernel_with_rows(hidden, quality, ridge)
    n = len(unit)
    subset = _subset_indices(subset, n)
    if not subset:
        raise ValueError("subset must be non-empty; skip the loss term instead")

    # Value: log det(L + I) - log det(L_Y + eps I).
    full_factor, log_norm = _chol_logdet(kern.kernel + np.eye(n))
    minor_factor, log_minor, eps = _minor_logdet(kern.kernel, subset, ridge)
    value = log_norm - log_minor

    # With L = B B^T, B = diag(q) U: d value / dB = 2 (L + I)^-1 B, minus
    # 2 A^-1 B_Y on the rows of Y, where A = L_Y + eps I.
    rows = kern.quality[:, None] * unit
    d_rows = 2.0 * cho_solve((full_factor, True), rows)
    d_rows[subset] -= 2.0 * cho_solve((minor_factor, True), rows[subset])

    # Chain through b_i = q_i u_i and the row normalization u_i = h_i / |h_i|.
    d_quality = (d_rows * unit).sum(axis=1)
    d_unit = kern.quality[:, None] * d_rows
    radial = (d_unit * unit).sum(axis=1, keepdims=True)
    d_hidden = (d_unit - radial * unit) / norms[:, None]

    return DppLoss(value=float(value), d_hidden=d_hidden, d_quality=d_quality,
                   ridge_used=eps)


def brute_force_subset_sum(kernel_matrix):
    """Sum of det(L_Y) over every subset Y (empty subset contributes 1).

    Exponential-time oracle for the normalizer identity; refuses n > 16.
    """
    kernel_matrix = np.asarray(kernel_matrix, dtype=float)
    n = kernel_matrix.shape[0]
    if kernel_matrix.shape != (n, n):
        raise ValueError("kernel must be square")
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to n <= {_BRUTE_FORCE_LIMIT}, got {n}")
    total = 1.0
    indices = range(n)
    for size in range(1, n + 1):
        for subset in combinations(indices, size):
            total += np.linalg.det(kernel_matrix[np.ix_(subset, subset)])
    return total
