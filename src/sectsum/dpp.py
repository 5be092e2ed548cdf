"""Determinantal repulsion over encoded sentences.

The kernel uses a quality/diversity decomposition: L = diag(q) S diag(q),
where q is the per-sentence summary probability and S = U U^T is the cosine
Gram matrix of the unit-norm encoded sentences U. Subset log-probability is
log det(L_Y) - log det(L + I); the normalizer identity
sum_Y det(L_Y) = det(L + I) is exercised by brute force in the tests.

The loss runs in dual form (Kulesza & Taskar 2012, section 3.3) through
B = diag(q) U, so that L = B B^T. The normalizer is log det(I_d + B^T B),
the subset minor is B_Y B_Y^T, and (L + I)^-1 B = B (I_d + B^T B)^-1, so no
n x n matrix is formed: a document of n sentences of width d and summary Y
costs O(n d^2 + |Y|^3). A ridge on the subset minor keeps training stable
near duplicate sentences (escalating tenfold up to 1e-4 on factorization
failure); a zero ridge is exact and is what test oracles use. The loss takes
a padded stack of documents, and each document escalates its own ridge.

The primal kernel of one document (:func:`build_kernel`, :func:`dpp_log_prob`)
serves inspection and the tests; no training path builds it.
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
    """
    hidden = np.asarray(hidden, dtype=float)
    quality = np.asarray(quality, dtype=float)
    if hidden.ndim != 2 or quality.shape != hidden.shape[:1]:
        raise ValueError("hidden must be (n, d) and quality (n,)")
    unit, _ = _unit_rows(hidden, quality)
    similarity = unit @ unit.T
    similarity = 0.5 * (similarity + similarity.T)
    kernel = quality[:, None] * similarity * quality[None, :]
    return DppKernel(quality=quality, similarity=similarity, kernel=kernel,
                     ridge=float(ridge))


def _unit_rows(hidden, quality, real=None):
    """Unit rows u_i = h_i / |h_i| and the norms |h_i|, over the rows that
    ``real`` marks (all by default); every other row gets norm 1 and is left
    as it is."""
    norms = np.linalg.norm(hidden, axis=-1)
    if real is not None:
        norms = np.where(real, norms, 1.0)
    if np.any(norms == 0):
        raise ZeroNormError("zero-norm sentence representation; cosine undefined")
    if np.any(quality <= 0 if real is None else (quality <= 0) & real):
        raise ValueError("quality scores must be positive")
    return hidden / norms[..., None], norms


def _chol_logdet(matrix):
    """Lower Cholesky factor and log det of a matrix or a stack of them;
    raises np.linalg.LinAlgError if any one is not PD."""
    factor = np.linalg.cholesky(matrix)
    diag = np.diagonal(factor, axis1=-2, axis2=-1)
    if np.any(diag <= 0) or not np.isfinite(diag).all():
        raise np.linalg.LinAlgError("non-positive pivot")
    return factor, 2.0 * np.log(diag).sum(axis=-1)


def _ridged_logdet(minor, ridge, real):
    """Factor ``minor`` plus the ridge on the diagonal entries that ``real``
    marks; the ridge escalates tenfold (up to 1e-4) on failure, a zero ridge
    never. A stack is factored at ``ridge`` as one; if any matrix fails,
    each escalates on its own, exactly as it would alone. Returns the
    factor, the log det and the ridge of each matrix."""
    shift = np.eye(minor.shape[-1]) * real[..., None, :]
    eps = ridge
    while True:
        try:
            return *_chol_logdet(minor + eps * shift), np.full(minor.shape[:-2], eps)
        except np.linalg.LinAlgError:
            if minor.ndim > 2:
                factors, logdets, ridges = zip(*(
                    _ridged_logdet(m, ridge, r) for m, r in zip(minor, real)))
                return np.stack(factors), np.array(logdets), np.array(ridges)
            if eps == 0.0 or eps >= _MAX_RIDGE:
                raise SingularMinorError(
                    f"singular subset minor (|Y| = {int(real.sum())}, ridge = {eps:g})"
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
    ridge raise :class:`SingularMinorError`.
    """
    n = len(kernel.kernel)
    subset = _subset_indices(subset, n)
    _, log_norm = _chol_logdet(kernel.kernel + np.eye(n))
    if not subset:
        return -log_norm
    minor = kernel.kernel[subset][:, subset]
    _, log_minor, _ = _ridged_logdet(minor, kernel.ridge, np.ones(len(subset), dtype=bool))
    return log_minor - log_norm


@dataclass(frozen=True)
class DppLoss:
    """Negative subset log-probability plus gradients with respect to the
    encoded sentences and the quality scores (None when not asked for), the
    ridge each document's minor took, and the largest of them."""

    value: float
    d_hidden: np.ndarray | None
    d_quality: np.ndarray | None
    ridge_used: float
    ridges: np.ndarray


def dpp_loss_and_grad(hidden, quality, subset, ridge=1e-8, lengths=None,
                      with_grads=True):
    """Repulsion loss -log P(Y | L) and its exact gradients.

    Parameters
    ----------
    hidden : (n, d) array, or a stack (G, n, d)
        Encoded sentences; the similarity matrix is their cosine Gram.
    quality : (n,) array, or (G, n)
        Summary probabilities, strictly inside (0, 1).
    subset : iterable of int, or a (G, n) boolean mask
        Ground-truth summary indices Y (non-empty, each in [0, n)), shared
        by every matrix of a stack; or, per stacked document, a mask row
        marking its own Y.
    ridge : float
        Diagonal ridge on the subset minor, applied consistently in the value
        and the gradients. Each matrix of a stack escalates its own.
    lengths : (G,) ints or None
        The real rows of each stacked document, padded to n (default: all n
        real). Padded rows take no part in the loss and get zero gradients.
    with_grads : bool
        When False, only the value is computed.

    Returns
    -------
    DppLoss
        For a stack, value (G,), gradients (G, n, d) and (G, n) and ridges
        (G,); ``ridge_used`` is the largest ridge in the stack.
    """
    hidden = np.asarray(hidden, dtype=float)
    quality = np.asarray(quality, dtype=float)
    single = hidden.ndim == 2
    if single:
        hidden, quality = hidden[None], quality[None]
    if hidden.ndim != 3 or quality.shape != hidden.shape[:-1]:
        raise ValueError("hidden must be (n, d) and quality (n,), or stacks of them")
    n, d = hidden.shape[1:]
    real = None if lengths is None else np.arange(n) < np.asarray(lengths)[:, None]
    unit, norms = _unit_rows(hidden, quality, real)
    rows = quality[..., None] * unit
    if real is not None:
        rows[~real] = 0.0

    # log det(L + I) = log det(I_d + B^T B), a d x d factorization.
    gram = np.eye(d) + rows.swapaxes(-1, -2) @ rows
    _, log_norm = _chol_logdet(gram)

    # Minors B_Y B_Y^T. Per-document subsets are padded to the largest |Y|
    # with identity, and the ridge goes on their real entries only.
    if np.ndim(subset) == 2:
        in_subset = np.asarray(subset, dtype=bool)
    else:
        in_subset = np.zeros(quality.shape, dtype=bool)
        in_subset[:, _subset_indices(subset, n)] = True
    if in_subset.shape != quality.shape or (real is not None and np.any(in_subset & ~real)):
        raise IndexError("subset mask does not fit the stacked documents")
    sizes = in_subset.sum(axis=1)
    if not sizes.all():
        raise ValueError("subset must be non-empty; skip the loss term instead")
    in_minor = np.arange(sizes.max()) < sizes[:, None]
    picked = np.zeros(in_minor.shape + (d,))
    picked[in_minor] = rows[in_subset]
    minor = picked @ picked.swapaxes(-1, -2)
    minor += np.eye(minor.shape[-1]) * ~in_minor[:, None, :]
    minor_factor, log_minor, ridges = _ridged_logdet(minor, ridge, in_minor)
    value = log_norm - log_minor

    d_hidden = d_quality = None
    if with_grads:
        # d value / dB = 2 (L + I)^-1 B = 2 B (I_d + B^T B)^-1, minus
        # 2 A^-1 B_Y on the rows of Y, where A = B_Y B_Y^T + eps I is solved
        # with the factor its log det came from.
        d_rows = 2.0 * np.linalg.solve(gram, rows.swapaxes(-1, -2)).swapaxes(-1, -2)
        solved = 2.0 * cho_solve((minor_factor, True), picked)
        d_rows[in_subset] -= solved[in_minor]

        # Chain through b_i = q_i u_i and the row normalization u_i = h_i / |h_i|.
        d_quality = (d_rows * unit).sum(axis=-1)
        d_unit = quality[..., None] * d_rows
        radial = (d_unit * unit).sum(axis=-1, keepdims=True)
        d_hidden = (d_unit - radial * unit) / norms[..., None]

    if single:
        value, ridges = float(value[0]), ridges[0]
        if with_grads:
            d_hidden, d_quality = d_hidden[0], d_quality[0]
    return DppLoss(value=value, d_hidden=d_hidden, d_quality=d_quality,
                   ridge_used=float(ridges.max()), ridges=ridges)


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
