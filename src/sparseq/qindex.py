"""The one index rule of the 2^n computational basis.

Qubit positions are 1-based with qubit 1 the most significant bit, so basis
index k decomposes as k = sum_alpha k_alpha * 2^(n-alpha). Basis indices are
0-based throughout (external material that counts from 1 is off by one).

A single-qubit gate on qubit j couples index k only with its target partner
k + 2^(n-j), for every k whose qubit j is 0; a controlled gate does so only
where the control qubit i is 1 as well. Sparse gates, lifted eigenvectors and
projector Hamiltonians all sit on these pairs.
"""
from __future__ import annotations

import numpy as np


def pair_lows(n: int, j: int, i: int | None = None) -> np.ndarray:
    """Ascending indices k with qubit j = 0 (and qubit i = 1 if i is given).

    Each k is the low member of the target pair (k, k + 2^(n-j)); there are
    2^(n-1) of them, or 2^(n-2) with a control. They are built by inserting
    the fixed bits into a count over the free ones, lowest bit first, which
    keeps the count's order.
    """
    if not 1 <= j <= n:
        raise ValueError(f"target position {j} out of range 1..{n}")
    bits = [n - j]
    if i is not None:
        if not 1 <= i <= n or i == j:
            raise ValueError(f"control position {i} invalid for target {j} of 1..{n}")
        bits.append(n - i)
    k = np.arange(1 << (n - len(bits)))
    for bit in sorted(bits):
        # A zero at `bit`: the bits from `bit` up move one place up.
        k += k >> bit << bit
    if i is not None:
        k |= 1 << (n - i)
    return k
