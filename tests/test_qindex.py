"""pair_indices against the nested placement loops it replaced, the pair
properties every gate builder and Hamiltonian lifter relies on, and the
pair views that the engine kernels mix in place."""
import numpy as np
import pytest

from sparseq.qindex import check_placement, pair_indices, pair_views

MAX_N = 8


def loops_control_above(n, i, j):
    block, span, half = 1 << (n - i), 1 << (n - j + 1), 1 << (n - j)
    return [
        (2 * beta + 1) * block + l * span + r
        for beta in range(1 << (i - 1))
        for l in range(1 << (j - i - 1))
        for r in range(half)
    ]


def loops_control_below(n, i, j):
    blk, span, cross = 1 << (n - i), 1 << (n - j + 1), 1 << (i - j)
    return [
        k * span + blk + p + (l - 1) * blk
        for k in range(1 << (j - 1))
        for l in range(1, cross, 2)
        for p in range(blk)
    ]


def loops_embedded(n, j):
    span, half = 1 << (n - j + 1), 1 << (n - j)
    return [m * span + r for m in range(1 << (j - 1)) for r in range(half)]


def loops_straddled_block(n, i, j):
    blk, cross = 1 << (n - i), 1 << (i - j)
    return [p + (l - 1) * blk for l in range(1, cross, 2) for p in range(blk)]


def low_indices(n, j, i=None):
    """The low members of the target pairs."""
    return pair_indices(n, j, i)[0]


def placements():
    for n in range(1, MAX_N + 1):
        for j in range(1, n + 1):
            yield n, j, None
            for i in range(1, n + 1):
                if i != j:
                    yield n, j, i


def bit(k, q, n):
    return (k >> (n - q)) & 1


class TestAgainstPlacementLoops:
    def test_every_placement_matches_exactly(self):
        for n, j, i in placements():
            if i is None:
                want = loops_embedded(n, j)
            elif i < j:
                want = loops_control_above(n, i, j)
            else:
                want = loops_control_below(n, i, j)
            low, high = pair_indices(n, j, i)
            assert low.tolist() == want, (n, j, i)
            assert high.tolist() == [k + (1 << (n - j)) for k in want], (n, j, i)

    def test_straddled_block_positions(self):
        for n, j, i in placements():
            if i is not None and i > j:
                got = low_indices(n - j + 1, 1, i - j + 1) - (1 << (n - i))
                assert got.tolist() == loops_straddled_block(n, i, j), (n, j, i)

    def test_target_pair_block_positions(self):
        for n in range(1, MAX_N + 1):
            assert low_indices(n, 1).tolist() == list(range(1 << (n - 1)))


class TestPartnerIndex:
    """Each low index k pairs with its target partner k + 2^(n-j)."""

    def test_flip_last_qubit(self):
        assert low_indices(2, 2).tolist() == [0, 2]  # 0 pairs with 1

    def test_pairing_matches_offset(self):
        # n=5, j=3: index 8 pairs with 12 (offset 2^(5-3) = 4)
        lows = low_indices(5, 3)
        assert 8 in lows and 12 not in lows

    def test_flip_first_qubit(self):
        assert low_indices(2, 1).tolist() == [0, 1]  # 1 pairs with 3

    def test_involution_exhaustive(self):
        # lows and their partners cover every selected index exactly once
        for n, j, i in placements():
            both = np.concatenate(pair_indices(n, j, i))
            selected = [k for k in range(1 << n) if i is None or bit(k, i, n) == 1]
            assert sorted(both.tolist()) == selected, (n, j, i)

    def test_direction_follows_bit(self):
        for n, j, i in placements():
            lows = low_indices(n, j, i).tolist()
            assert lows == sorted(lows)
            for k in lows:
                assert bit(k, j, n) == 0 and bit(k + (1 << (n - j)), j, n) == 1
                assert i is None or bit(k, i, n) == 1


class TestControlBlocks:
    """With a control, only indices whose control qubit is 1 are paired."""

    def test_first_qubit_of_two(self):
        assert low_indices(2, 2, 1).tolist() == [2]

    def test_middle_qubit(self):
        assert low_indices(3, 3, 2).tolist() == [2, 6]

    def test_last_qubit_gives_odd_indices(self):
        assert low_indices(2, 1, 2).tolist() == [1]
        assert low_indices(3, 1, 3).tolist() == [1, 3]

    def test_blocks_equal_selected_bit_exhaustive(self):
        for n, j, i in placements():
            want = [
                k for k in range(1 << n)
                if bit(k, j, n) == 0 and (i is None or bit(k, i, n) == 1)
            ]
            assert low_indices(n, j, i).tolist() == want, (n, j, i)

    def test_n20_equals_the_mask_over_all_indices(self):
        n = 20
        k = np.arange(1 << n)
        for j, i in [(1, None), (20, None), (7, None), (3, 17), (17, 3), (1, 20), (20, 1)]:
            mask = (k >> (n - j)) & 1 == 0
            if i is not None:
                mask &= (k >> (n - i)) & 1 == 1
            got = low_indices(n, j, i)
            assert got.dtype == k.dtype and np.array_equal(got, k[mask]), (j, i)

    def test_total_length_is_half_the_basis(self):
        for n, j, i in placements():
            count = len(low_indices(n, j, i))
            assert count == 1 << (n - 1 if i is None else n - 2), (n, j, i)

    def test_position_out_of_range(self):
        for n, j, i in [(3, 0, None), (3, 4, None), (3, 2, 0), (3, 2, 4), (3, 2, 2)]:
            with pytest.raises(ValueError):
                low_indices(n, j, i)


class TestBitAt:
    """Target positions are 1-based qubit numbers in 1..n."""

    def test_position_out_of_range(self):
        for n, j in [(1, 0), (1, 2), (3, 0), (3, 4), (3, -1)]:
            with pytest.raises(ValueError):
                low_indices(n, j)


class TestBlockLayout:
    """A control/target placement names two distinct positions in 1..n."""

    def test_equal_positions_rejected(self):
        for n in range(2, MAX_N + 1):
            for j in range(1, n + 1):
                with pytest.raises(ValueError):
                    low_indices(n, j, j)

    def test_out_of_range_rejected(self):
        for n, j, i in [(2, 1, 0), (2, 1, 3), (4, 2, 5), (4, 4, -1), (4, 5, 1)]:
            with pytest.raises(ValueError):
                low_indices(n, j, i)


class TestPairViews:
    """pair_views is the rule itself: pair_indices are its views of the basis
    indices, and the engine kernels write both views of the state."""

    def test_high_view_is_low_view_plus_partner_offset(self):
        for n, j, i in placements():
            low, high = pair_views(np.arange(1 << n), n, j, i)
            assert low.shape == high.shape, (n, j, i)
            assert np.array_equal(high, low + (1 << (n - j))), (n, j, i)

    def test_pair_indices_are_the_ravelled_views(self):
        for n, j, i in placements():
            views = pair_views(np.arange(1 << n), n, j, i)
            for view, got in zip(views, pair_indices(n, j, i)):
                assert got.ndim == 1 and got.tolist() == view.ravel().tolist(), (n, j, i)

    def test_views_write_through_to_the_array(self):
        for n, j, i in placements():
            a = np.zeros(1 << n, dtype=int)
            low, high = pair_views(a, n, j, i)
            low[...] = 1
            high[...] = 2
            want = np.zeros(1 << n, dtype=int)
            low, high = pair_indices(n, j, i)
            want[low], want[high] = 1, 2
            assert np.array_equal(a, want), (n, j, i)

    def test_register_size_below_one_is_named(self):
        for n, j, i in [(0, 1, None), (-3, 1, None), (-3, 1, 2)]:
            with pytest.raises(ValueError, match=rf"^register size {n} must be at least 1 qubit$"):
                check_placement(n, j, i)
            with pytest.raises(ValueError, match=rf"^register size {n} must be at least 1 qubit$"):
                low_indices(n, j, i)
        for n, j, i in placements():
            check_placement(n, j, i)

    def test_placement_errors_name_the_position(self):
        a = np.arange(8)
        with pytest.raises(ValueError, match=r"^target position 4 out of range 1\.\.3$"):
            pair_views(a, 3, 4)
        with pytest.raises(ValueError, match=r"^control position 2 invalid for target 2 of 1\.\.3$"):
            pair_views(a, 3, 2, 2)
        with pytest.raises(ValueError, match=r"^control position 0 invalid"):
            pair_views(a, 3, 2, 0)
