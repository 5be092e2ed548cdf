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
a padded stack of documents, each with its own length and subset mask, and
each document escalates its own ridge.

Nothing here builds the primal n x n kernel: the tests build it as their
reference, and :func:`brute_force_subset_sum` takes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "DppLoss",
    "SingularMinorError",
    "ZeroNormError",
    "dpp_loss_and_grad",
    "brute_force_subset_sum",
]

# The subset minor's ridge in training and certification.
DEFAULT_DPP_RIDGE = 1e-8
_MAX_RIDGE = 1e-4
_BRUTE_FORCE_LIMIT = 16


class SingularMinorError(Exception):
    """Raised when a subset minor cannot be factorized (even after ridge
    escalation when a positive ridge was requested)."""


class ZeroNormError(ValueError):
    """Raised when an encoded sentence has zero norm (cosine undefined)."""


def _unit_rows(hidden, quality, real):
    """Unit rows u_i = h_i / |h_i| and the norms |h_i|, over the rows that
    ``real`` marks; every other row gets norm 1 and is left as it is."""
    # sqrt of the row sums of squares: what np.linalg.norm computes for real rows
    norms = np.where(real, np.sqrt((hidden * hidden).sum(axis=-1)), 1.0)
    if (norms == 0).any():
        raise ZeroNormError("zero-norm sentence representation; cosine undefined")
    if ((quality <= 0) & real).any():
        raise ValueError("quality scores must be positive")
    return hidden / norms[..., None], norms


def _chol_logdet(matrix):
    """Lower Cholesky factor and log det of a matrix or a stack of them;
    raises np.linalg.LinAlgError if any one is not PD."""
    factor = np.linalg.cholesky(matrix)
    diag = np.diagonal(factor, axis1=-2, axis2=-1)
    if (diag <= 0).any() or not np.isfinite(diag).all():
        raise np.linalg.LinAlgError("non-positive pivot")
    return factor, 2.0 * np.log(diag).sum(axis=-1)


def _ridged_logdet(minor, ridge, real):
    """Factor ``minor`` plus the ridge on the diagonal entries that ``real``
    marks; on failure the ridge escalates to ``ridge * 10.0 ** k`` (k = 1, 2,
    ..., so 1e-8 reaches 1e-5 exactly), up to 1e-4 and tried there once; a
    zero ridge never escalates. A stack is factored at ``ridge`` as one; if
    any matrix fails, each escalates on its own, exactly as it would alone.
    Returns the factor, the log det and the ridge of each matrix."""
    shift = np.eye(minor.shape[-1]) * real[..., None, :]
    eps, steps = ridge, 0
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
            steps += 1
            eps = min(ridge * 10.0 ** steps, _MAX_RIDGE)


@dataclass(frozen=True)
class DppLoss:
    """Each document's negative subset log-probability plus gradients with
    respect to the encoded sentences and the quality scores (None when not
    asked for), the ridge each document's minor took, and the largest of
    them."""

    value: np.ndarray
    d_hidden: np.ndarray | None
    d_quality: np.ndarray | None
    ridge_used: float
    ridges: np.ndarray


def dpp_loss_and_grad(hidden, quality, in_subset, lengths, ridge=DEFAULT_DPP_RIDGE,
                      with_grads=True):
    """Repulsion loss -log P(Y | L) of each document of a padded stack, and
    its exact gradients.

    Parameters
    ----------
    hidden : (G, n, d) array
        Encoded sentences of G documents padded to n rows; each document's
        similarity matrix is the cosine Gram of its real rows.
    quality : (G, n) array
        Summary probabilities, strictly inside (0, 1) on the real rows.
    in_subset : (G, n) boolean array
        Per document, the mask of its ground-truth summary Y: non-empty, and
        on real rows only.
    lengths : (G,) ints
        The real rows of each document. Padded rows take no part in the loss
        and get zero gradients.
    ridge : float
        Diagonal ridge on the subset minor, applied consistently in the value
        and the gradients. Each document escalates its own.
    with_grads : bool
        When False, only the value is computed.

    Returns
    -------
    DppLoss
        Values (G,), gradients (G, n, d) and (G, n) and ridges (G,);
        ``ridge_used`` is the largest ridge in the stack.
    """
    hidden = np.asarray(hidden, dtype=float)
    quality = np.asarray(quality, dtype=float)
    in_subset = np.asarray(in_subset, dtype=bool)
    if hidden.ndim != 3 or quality.shape != hidden.shape[:-1]:
        raise ValueError("hidden must be (G, n, d) and quality (G, n)")
    n, d = hidden.shape[1:]
    real = np.arange(n) < np.asarray(lengths)[:, None]
    unit, norms = _unit_rows(hidden, quality, real)
    rows = quality[..., None] * unit
    rows[~real] = 0.0

    # log det(L + I) = log det(I_d + B^T B), a d x d factorization.
    gram = np.eye(d) + rows.swapaxes(-1, -2) @ rows
    gram_factor, log_norm = _chol_logdet(gram)

    # Minors B_Y B_Y^T. Per-document subsets are padded to the largest |Y|
    # with identity, and the ridge goes on their real entries only.
    if in_subset.shape != quality.shape or (in_subset & ~real).any():
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
        # 2 A^-1 B_Y on the rows of Y, where A = B_Y B_Y^T + eps I. Both are
        # solved as M^-1 = C^-T C^-1 through the Cholesky factor C of their
        # log det (pivots checked positive), for the whole stack at once.
        gram_inv = np.linalg.inv(gram_factor)
        d_rows = 2.0 * (rows @ gram_inv.swapaxes(-1, -2)) @ gram_inv
        minor_inv = np.linalg.inv(minor_factor)
        solved = 2.0 * (minor_inv.swapaxes(-1, -2) @ (minor_inv @ picked))
        d_rows[in_subset] -= solved[in_minor]

        # Chain through b_i = q_i u_i and the row normalization u_i = h_i / |h_i|.
        d_quality = (d_rows * unit).sum(axis=-1)
        d_unit = quality[..., None] * d_rows
        radial = (d_unit * unit).sum(axis=-1, keepdims=True)
        d_hidden = (d_unit - radial * unit) / norms[..., None]

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
