import itertools
import math

import numpy as np
import pytest

from sectsum import (
    SingularMinorError,
    ZeroNormError,
    brute_force_subset_sum,
    dpp,
    dpp_loss_and_grad,
)

from conftest import one_document, primal_kernel, subset_masks


def random_instance(rng, n, d):
    hidden = rng.standard_normal((n, d))
    quality = rng.uniform(0.05, 0.95, size=n)
    return hidden, quality


def test_loss_input_validation():
    rng = np.random.default_rng(1)
    hidden, quality = random_instance(rng, 3, 4)
    hidden[1] = 0.0
    with pytest.raises(ValueError, match="zero-norm"):
        one_document(hidden, quality, [[0]])
    hidden[1] = 1.0
    quality[0] = 0.0
    with pytest.raises(ValueError, match="positive"):
        one_document(hidden, quality, [[1]])
    with pytest.raises(ValueError):
        dpp_loss_and_grad(hidden[None], quality[None, :2], subset_masks([[1]], 3), [3])
    # a stack, not one document
    with pytest.raises(ValueError):
        dpp_loss_and_grad(hidden, quality, subset_masks([[1]], 3), [3])


def test_zero_norm_sentence_raises_zero_norm_error():
    """A zero row fails in a real row of the stack, and not in a padded one."""
    rng = np.random.default_rng(2)
    hidden, quality = random_instance(rng, 4, 3)
    hidden[2] = 0.0
    with pytest.raises(ZeroNormError, match="zero-norm"):
        one_document(hidden, quality, [[0, 1]])
    padded = dpp_loss_and_grad(hidden[None], quality[None], subset_masks([[0, 1]], 4), [2])
    assert np.isfinite(padded.value).all()


def test_normalizer_identity_over_random_kernels():
    """Sum of subset determinants equals det(L + I), checked by brute force."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        hidden, quality = random_instance(rng, n, int(rng.integers(2, 6)))
        kernel = primal_kernel(hidden, quality)[0]
        total = brute_force_subset_sum(kernel)
        direct = np.linalg.det(kernel + np.eye(n))
        assert total == pytest.approx(direct, rel=1e-10)


def test_log_prob_identity_kernel():
    """For L = I (n = 3, quality 1 and orthogonal rows) every singleton has
    P = det([1]) / det(2 I) = 1/8, so each loss is 3 log 2."""
    loss = one_document(np.eye(3), np.ones(3), [[0], [1], [2]], ridge=0.0)
    np.testing.assert_allclose(loss.value, 3.0 * math.log(2.0), rtol=1e-12)


def test_subset_probabilities_sum_to_one():
    """exp(-loss) over every non-empty subset, in one stack, plus the empty
    subset's 1 / det(L + I), sums to one."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        hidden, quality = random_instance(rng, n, 3)
        subsets = [subset for r in range(1, n + 1)
                   for subset in itertools.combinations(range(n), r)]
        loss = one_document(hidden, quality, subsets, ridge=1e-10)
        empty = 1.0 / np.linalg.det(primal_kernel(hidden, quality)[0] + np.eye(n))
        assert np.exp(-loss.value).sum() + empty == pytest.approx(1.0, rel=1e-6)


def test_log_prob_rejects_out_of_range():
    """A subset mask of another width than the stack is refused."""
    with pytest.raises(IndexError, match="does not fit"):
        dpp_loss_and_grad(np.eye(3)[None], np.ones((1, 3)), subset_masks([[0]], 4), [3])


def test_single_sentence_closed_form():
    """n = 1: loss = -log(q^2) + log(1 + q^2); d/dq = -2/q + 2 q/(1 + q^2).

    The similarity matrix is the scalar 1, so no gradient reaches the
    representation itself.
    """
    q = 0.37
    hidden = np.array([[0.4, -1.2, 0.3]])
    result = one_document(hidden, np.array([q]), [[0]], ridge=0.0)
    expected = -math.log(q * q) + math.log1p(q * q)
    assert result.value[0] == pytest.approx(expected, rel=1e-12)
    expected_dq = -2.0 / q + 2.0 * q / (1.0 + q * q)
    assert result.d_quality[0, 0] == pytest.approx(expected_dq, rel=1e-12)
    np.testing.assert_allclose(result.d_hidden, 0.0, atol=1e-12)


def test_loss_gradients_match_finite_differences():
    # keep d >= n so subset minors stay full rank and no ridge escalation
    # perturbs the finite differences
    rng = np.random.default_rng(11)
    step = 1e-6
    for _ in range(8):
        n = int(rng.integers(2, 6))
        d = n + int(rng.integers(0, 3))
        hidden, quality = random_instance(rng, n, d)
        size = int(rng.integers(1, n + 1))
        subsets = [sorted(rng.choice(n, size=size, replace=False).tolist())]
        res = one_document(hidden, quality, subsets, ridge=1e-10)

        for _ in range(6):
            i = int(rng.integers(n))
            j = int(rng.integers(d))
            bump = np.zeros_like(hidden)
            bump[i, j] = step
            hi = one_document(hidden + bump, quality, subsets, ridge=1e-10).value[0]
            lo = one_document(hidden - bump, quality, subsets, ridge=1e-10).value[0]
            fd = (hi - lo) / (2 * step)
            assert fd == pytest.approx(res.d_hidden[0, i, j], rel=5e-4, abs=1e-7)

        for _ in range(4):
            i = int(rng.integers(n))
            bump = np.zeros_like(quality)
            bump[i] = step
            hi = one_document(hidden, quality + bump, subsets, ridge=1e-10).value[0]
            lo = one_document(hidden, quality - bump, subsets, ridge=1e-10).value[0]
            fd = (hi - lo) / (2 * step)
            assert fd == pytest.approx(res.d_quality[0, i], rel=5e-4, abs=1e-7)


def test_duplicate_rows_escalate_ridge():
    """Two identical summary sentences, b = (0.5, 0) both times, make the
    minor [[0.25, 0.25], [0.25, 0.25]] exactly singular until the ridge
    changes 0.25: from 1e-20 the ridge escalates tenfold to 1e-16, and the
    ridge it took is reported back."""
    hidden = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    quality = np.array([0.5, 0.5, 0.5])
    res = one_document(hidden, quality, [[0, 1]], ridge=1e-20)
    assert math.isfinite(res.value[0])
    assert res.ridge_used > 1e-20
    assert res.ridge_used == pytest.approx(1e-16)
    assert np.all(np.isfinite(res.d_hidden))


def test_stacked_documents_escalate_their_own_ridge():
    """Three documents of 3, 5 and 4 sentences padded into one stack. The
    second's summary holds one sentence twice, b = (0.5, 0, 0) both times,
    so its minor [[0.25, 0.25], [0.25, 0.25]] is exactly singular until the
    ridge changes 0.25: it fails at 1e-20 and escalates on its own, while the
    other two keep the requested ridge. Each document gets the value,
    gradients and ridge it gets alone, and padded rows get zero gradients."""
    hidden = np.zeros((3, 5, 3))
    hidden[0, :3] = [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [2.0, 0.0, 1.0]]
    hidden[1] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                 [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    hidden[2, :4] = [[0.0, 1.0, 2.0], [1.0, 1.0, 0.0], [3.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
    quality = np.full((3, 5), 0.5)
    lengths = [3, 5, 4]
    subsets = [[0, 2], [0, 2], [1]]
    stacked = dpp_loss_and_grad(hidden, quality, subset_masks(subsets, 5), lengths,
                                ridge=1e-20)
    assert stacked.ridges[0] == stacked.ridges[2] == 1e-20
    assert stacked.ridges[1] > 1e-20
    assert stacked.ridge_used == stacked.ridges[1]
    for g, (n, subset) in enumerate(zip(lengths, subsets)):
        alone = one_document(hidden[g, :n], quality[g, :n], [subset], ridge=1e-20)
        assert alone.ridge_used == stacked.ridges[g]
        assert stacked.value[g] == pytest.approx(alone.value[0], rel=1e-12)
        np.testing.assert_allclose(stacked.d_hidden[g, :n], alone.d_hidden[0],
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(stacked.d_quality[g, :n], alone.d_quality[0],
                                   rtol=1e-10, atol=1e-12)
        assert not stacked.d_hidden[g, n:].any() and not stacked.d_quality[g, n:].any()


def _cholesky_failing_below(monkeypatch, ridge):
    """Make ``np.linalg.cholesky``, as ``dpp`` calls it, fail on a subset
    minor whose ridge is below ``ridge``; returns the ridges tried, in order.
    The one-sentence minor of b = (0.5, 0, 0) is 0.25 + ridge; the
    normalizer's I_d + B^T B has diagonal entries of at least 1."""
    cholesky = np.linalg.cholesky
    tried = []

    def fake(matrix):
        diag = np.diagonal(matrix, axis1=-2, axis2=-1)
        if np.all(diag < 1.0):
            tried.append(float(diag.flat[0]) - 0.25)
            if tried[-1] < ridge:
                raise np.linalg.LinAlgError("forced failure")
        return cholesky(matrix)

    monkeypatch.setattr(dpp.np.linalg, "cholesky", fake)
    return tried


def test_ridge_escalates_tenfold_from_the_default(monkeypatch):
    """A minor that fails at 1e-8 and 1e-7 factors at 1e-6, reached by
    tenfold steps (after the stack's own try at 1e-8), and that is the ridge
    reported."""
    tried = _cholesky_failing_below(monkeypatch, 5e-7)
    res = one_document(np.eye(3), np.full(3, 0.5), [[0]], ridge=1e-8)
    assert tried == pytest.approx([1e-8, 1e-8, 1e-7, 1e-6], rel=1e-6)
    assert res.ridge_used == 1e-6
    assert res.ridges.tolist() == [1e-6]


def test_ridge_ladder_takes_powers_of_ten(monkeypatch):
    """A minor that first factors at the fourth rung from 1e-8 reports
    1e-5 itself, not the 9.999999999999999e-06 of three repeated tenfold
    products."""
    _cholesky_failing_below(monkeypatch, 5e-6)
    res = one_document(np.eye(3), np.full(3, 0.5), [[0]], ridge=1e-8)
    assert res.ridge_used == 1e-5


def test_minor_that_never_factors_raises_at_the_largest_ridge(monkeypatch):
    tried = _cholesky_failing_below(monkeypatch, math.inf)
    with pytest.raises(SingularMinorError, match=r"ridge = 0\.0001\)"):
        one_document(np.eye(3), np.full(3, 0.5), [[0]], ridge=1e-8)
    # the stack's own try, then each ridge of the ladder once, 1e-4 last
    assert tried == pytest.approx([1e-8, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4], rel=1e-6)


def test_duplicate_rows_with_zero_ridge_raise():
    hidden = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    quality = np.array([0.8, 0.8, 0.5])
    with pytest.raises(SingularMinorError, match="ridge = 0"):
        one_document(hidden, quality, [[0, 1]], ridge=0.0)


def test_empty_subset_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        one_document(np.eye(2), np.array([0.5, 0.5]), [[]])


@pytest.mark.parametrize("index", [-1, 5])
def test_out_of_range_subset_index_raises(index):
    """A 5-sentence document padded to 7 rows: rows 5 and 6 (-1) are padding,
    and a subset that marks one of them is refused."""
    hidden, quality = random_instance(np.random.default_rng(6), 7, 3)
    with pytest.raises(IndexError, match="does not fit"):
        dpp_loss_and_grad(hidden[None], quality[None], subset_masks([[0, index]], 7), [5])


def test_brute_force_limit():
    with pytest.raises(ValueError):
        brute_force_subset_sum(np.eye(17))


def test_ridge_used_matches_request_when_regular():
    rng = np.random.default_rng(5)
    hidden, quality = random_instance(rng, 4, 3)
    res = one_document(hidden, quality, [[0, 2]], ridge=1e-8)
    assert res.ridge_used == pytest.approx(1e-8)
