"""The one index rule of the 2^n computational basis.

Qubit positions are 1-based with qubit 1 the most significant bit, so basis
index k decomposes as k = sum_alpha k_alpha * 2^(n-alpha). Basis indices are
0-based throughout (external material that counts from 1 is off by one).

A single-qubit gate on qubit j couples index k only with its target partner
k + 2^(n-j), for every k whose qubit j is 0; a controlled gate does so only
where the control qubit i is 1 as well. pair_views is the only encoding of
that rule: the engine kernels mix its views of the state in place, and
pair_indices, the index form behind sparse gates, lifted eigenvectors and
projector Hamiltonians, is its pair of views of the basis indices.
"""
from __future__ import annotations

import numpy as np


def check_placement(n: int, j: int, i: int | None = None):
    """Refuse (ValueError) a register of fewer than 1 qubit, a target j
    outside 1..n, and a control i outside 1..n or equal to j."""
    if n < 1:
        raise ValueError(f"register size {n} must be at least 1 qubit")
    if not 1 <= j <= n:
        raise ValueError(f"target position {j} out of range 1..{n}")
    if i is not None and (not 1 <= i <= n or i == j):
        raise ValueError(f"control position {i} invalid for target {j} of 1..{n}")


def pair_views(
    a: np.ndarray, n: int, j: int, i: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The (low, high) strided views of a contiguous length-2^n array a.

    low holds the entries at indices k with qubit j = 0 (and qubit i = 1 if i
    is given), high those at the partners k + 2^(n-j), both in ascending
    order of k. They share a's memory, so writing them updates a in place.
    A flattened 2^n x m matrix works the same way, each index k owning its
    m consecutive entries (row k), carried on the views' last axis.
    """
    check_placement(n, j, i)
    if i is None:
        t = a.reshape(1 << (j - 1), 2, -1)
        return t[:, 0, :], t[:, 1, :]
    p, q = sorted((i, j))
    t = a.reshape(1 << (p - 1), 2, 1 << (q - p - 1), 2, -1)
    if i < j:  # axis 1 = control, axis 3 = target
        return t[:, 1, :, 0, :], t[:, 1, :, 1, :]
    return t[:, 0, :, 1, :], t[:, 1, :, 1, :]  # axis 1 = target, axis 3 = control


def pair_indices(n: int, j: int, i: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The (low, high) basis indices of the target pairs: pair_views of the
    indices 0..2^n-1, ravelled. low ascends, and high[m] = low[m] + 2^(n-j);
    there are 2^(n-1) pairs, or 2^(n-2) with a control."""
    check_placement(n, j, i)  # before 1 << n, which fails on a negative n
    low, high = pair_views(np.arange(1 << n), n, j, i)
    return low.ravel(), high.ravel()
