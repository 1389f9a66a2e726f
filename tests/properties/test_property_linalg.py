"""Property-based tests (hypothesis) for the numerical core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg.convergence import pair_convergence_ratio
from repro.linalg.orderings import (
    RingOrdering,
    RoundRobinOrdering,
    ShiftingRingOrdering,
    validate_ordering,
)
from repro.linalg.rotations import rotate_pair
from repro.linalg.svd import svd

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRotationProperties:
    @given(
        arrays(np.float64, st.integers(2, 40), elements=finite_floats),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_rotation_orthogonalizes_and_preserves_energy(self, ai, random):
        aj = np.array([random.uniform(-1e6, 1e6) for _ in range(len(ai))])
        bi, bj, _ = rotate_pair(ai, aj)
        energy_before = ai @ ai + aj @ aj
        energy_after = bi @ bi + bj @ bj
        # Energy (Frobenius norm of the pair) is invariant.
        assert energy_after == pytest.approx(energy_before, rel=1e-9, abs=1e-9)
        # The rotated pair is orthogonal to working precision.
        scale = max(energy_before, 1e-30)
        assert abs(bi @ bj) / scale < 1e-8

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_convergence_ratio_is_a_cosine(self, alpha, beta, gamma):
        # |cos| <= 1 up to floating error for any Gram triple that came
        # from real vectors; for arbitrary triples it is still >= 0.
        ratio = pair_convergence_ratio(alpha, beta, gamma)
        assert ratio >= 0.0


class TestOrderingProperties:
    @given(
        st.integers(min_value=1, max_value=24),
        st.sampled_from([RingOrdering, RoundRobinOrdering, ShiftingRingOrdering]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_ordering_is_a_valid_sweep(self, half_n, cls):
        n = 2 * half_n
        validate_ordering(cls(n).rounds(), n)

    @given(st.integers(min_value=2, max_value=16))
    @settings(max_examples=30, deadline=None)
    def test_shifting_slots_are_permutations(self, half_n):
        ordering = ShiftingRingOrdering(2 * half_n)
        k = ordering.pairs_per_round
        for r in range(ordering.n_rounds):
            assert sorted(
                ordering.slot_of(r, p) for p in range(k)
            ) == list(range(k))


class TestSVDProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_transpose_duality(self, seed):
        a = np.random.default_rng(seed).standard_normal((9, 5))
        s1 = svd(a, precision=1e-10).singular_values
        s2 = svd(a.T, precision=1e-10).singular_values
        assert np.allclose(s1, s2, rtol=1e-8)
