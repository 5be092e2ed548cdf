"""Inspect the determinant-based diversity term on a toy example.

Builds a kernel from four hand-made sentence vectors where two are nearly
identical, shows that subsets containing the duplicate pair get a much
lower probability, checks the subset-sum normalization identity by brute
force, and demonstrates the ridge fallback on an exactly singular minor.
Every probability comes from the training loss, P(Y) = exp(-loss), run on a
stack that holds the one document once per subset.
"""

import argparse

import numpy as np

from sectsum import (
    SingularMinorError,
    brute_force_subset_sum,
    dpp_loss_and_grad,
)


def toy_vectors():
    hidden = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.99, 0.14, 0.05, 0.0],  # near copy of sentence 0
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.3],
    ])
    quality = np.array([0.9, 0.85, 0.8, 0.7])
    return hidden, quality


def loss_per_subset(hidden, quality, subsets, **kwargs):
    """The repulsion loss of the one document for each subset: a stack of
    len(subsets) copies of it, with one subset mask row each."""
    n = len(quality)
    in_subset = np.zeros((len(subsets), n), dtype=bool)
    for row, subset in zip(in_subset, subsets):
        row[list(subset)] = True
    return dpp_loss_and_grad(np.broadcast_to(hidden, (len(subsets),) + hidden.shape),
                             np.broadcast_to(quality, (len(subsets), n)),
                             in_subset, [n] * len(subsets), **kwargs)


def primal_kernel(hidden, quality):
    """L = diag(q) S diag(q), with S the cosine Gram of the rows, and S."""
    unit = hidden / np.linalg.norm(hidden, axis=1, keepdims=True)
    similarity = unit @ unit.T
    return quality[:, None] * similarity * quality[None, :], similarity


def show_kernel(hidden, quality):
    print("cosine similarity matrix:")
    with np.printoptions(precision=3, suppress=True):
        print(primal_kernel(hidden, quality)[1])
    print(f"quality scores: {quality}")


def show_subset_probs(hidden, quality):
    subsets = [(0, 2), (0, 3), (2, 3), (0, 1), (0, 2, 3), (0, 1, 2)]
    loss = loss_per_subset(hidden, quality, subsets, with_grads=False)
    print("P(Y) = exp(-loss) for candidate subsets (higher is better):")
    for subset, value in zip(subsets, loss.value):
        note = "  <- contains the near-duplicate pair" if {0, 1} <= set(subset) else ""
        print(f"  Y = {subset}: {np.exp(-value):.4f}{note}")


def show_normalizer(hidden, quality):
    kernel = primal_kernel(hidden, quality)[0]
    total = brute_force_subset_sum(kernel)
    direct = float(np.linalg.det(kernel + np.eye(4)))
    rel = abs(total - direct) / direct
    print(f"sum over all subsets of det(L_Y) = {total:.6f}")
    print(f"det(L + I)                      = {direct:.6f}")
    print(f"relative difference             = {rel:.2e}")


def show_gradients(hidden, quality):
    loss = loss_per_subset(hidden, quality, [(0, 2, 3)])
    print(f"loss value on Y = (0, 2, 3): {loss.value[0]:.4f}")
    print(f"|d hidden| = {np.linalg.norm(loss.d_hidden):.4f}, "
          f"|d quality| = {np.linalg.norm(loss.d_quality):.4f}, "
          f"ridge used = {loss.ridge_used:.0e}")


def show_ridge_fallback():
    hidden = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # exact copy
    quality = np.array([0.9, 0.9, 0.5])
    loss = loss_per_subset(hidden, quality, [(0, 1)])
    print(f"exactly duplicated rows: loss {loss.value[0]:.4f} is finite with "
          f"ridge {loss.ridge_used:.0e}")
    try:
        loss_per_subset(hidden, quality, [(0, 1)], ridge=0.0)
    except SingularMinorError as exc:
        print(f"with ridge 0 the same subset raises: {exc}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()

    hidden, quality = toy_vectors()

    print("== kernel ==")
    show_kernel(hidden, quality)

    print()
    print("== subset probabilities ==")
    show_subset_probs(hidden, quality)

    print()
    print("== normalization identity ==")
    show_normalizer(hidden, quality)

    print()
    print("== gradients ==")
    show_gradients(hidden, quality)

    print()
    print("== singular minors ==")
    show_ridge_fallback()


if __name__ == "__main__":
    main()
