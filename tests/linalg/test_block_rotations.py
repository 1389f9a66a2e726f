"""Block rotations: ``svd(method="block")`` rotates whole block pairs.

Each tournament round of block pairs is one call of
:func:`repro.linalg.hestenes._rotate_panels`: one batched ``eigh`` of
the round's ``2k x 2k`` panel Gram matrices, each panel's eigenvectors
permuted and signed towards the identity, one batched multiply.  A
matrix whose block sweeps stall (the Gram's eigenvectors are accurate
to eps of the panel's largest squared column) finishes on the pairwise
sweeps of the round kernel.
"""

import numpy as np
import pytest

import repro.linalg.hestenes as hestenes
from repro.errors import DeadlineExceeded
from repro.linalg import svd
from repro.linalg.convergence import zero_column_threshold_sq
from repro.linalg.orderings import ShiftingRingOrdering
from repro.linalg.svd import _prepare, _svd_many
from repro.workloads.matrices import conditioned_matrix, random_matrix
from tests.exec.test_deadline_partial import _CountdownDeadline
from tests.linalg.test_stacked_driver import _bits

EPS = np.finfo(float).eps


class _Calls:
    """Counts the block and pairwise kernel calls of one solve and
    keeps every rotation the block kernel computes."""

    def __init__(self, monkeypatch):
        self.blocks = 0
        self.pairs = 0
        self.rotations = []
        rotate_panels = hestenes._rotate_panels
        pair_kernel = hestenes._sweep_pairs_indexed
        gram_rotations = hestenes._gram_rotations

        def count_blocks(*args):
            self.blocks += 1
            return rotate_panels(*args)

        def count_pairs(*args):
            self.pairs += 1
            return pair_kernel(*args)

        def keep_rotations(gram):
            rotations = gram_rotations(gram)
            self.rotations.extend(rotations)
            return rotations

        monkeypatch.setattr(hestenes, "_rotate_panels", count_blocks)
        monkeypatch.setattr(hestenes, "_sweep_pairs_indexed", count_pairs)
        monkeypatch.setattr(hestenes, "_gram_rotations", keep_rotations)


def _sigma_error(result, a):
    reference = np.linalg.svd(a, compute_uv=False)
    return np.max(np.abs(result.singular_values - reference)) / reference[0]


class TestBlockSweeps:
    def test_one_call_per_tournament_round(self, monkeypatch):
        calls = _Calls(monkeypatch)
        a = random_matrix(128, 128, seed=0)
        result = svd(a, method="block", precision=1e-6,
                     strategy="vectorized")
        assert result.converged
        # 16 blocks of 8 columns: 15 tournament rounds per sweep.
        assert calls.blocks == 15 * result.sweeps
        assert calls.pairs == 0
        # Precision 1e-6 bounds sigma errors to first order only.
        assert _sigma_error(result, a) <= 1e-10

    def test_stalled_block_sweeps_hand_over_to_pairwise(self, monkeypatch):
        calls = _Calls(monkeypatch)
        a = conditioned_matrix(64, 64, 1e10, seed=0)
        result = svd(a, method="block", precision=1e-10,
                     strategy="vectorized")
        assert result.converged and not result.degraded
        residuals = result.sweep_residuals
        # A block sweep that stalls, then pairwise sweeps: 7 tournament
        # rounds per block sweep, 7 x 15 ordering rounds per pairwise.
        block_sweeps = calls.blocks // 7
        assert calls.blocks == 7 * block_sweeps
        assert calls.pairs == 7 * 15 * (result.sweeps - block_sweeps)
        assert calls.pairs > 0
        stalled = residuals[block_sweeps - 1]
        assert stalled >= hestenes._BLOCK_STALL * residuals[block_sweeps - 2]
        assert stalled >= 1e-10
        assert _sigma_error(result, a) <= 1e-12


class TestRotations:
    def test_applied_rotations_are_orthogonal_and_near_identity(
            self, monkeypatch):
        calls = _Calls(monkeypatch)
        a = conditioned_matrix(48, 48, 1e4, seed=3)
        svd(a, method="block", precision=1e-10)
        assert calls.rotations
        for rotation in calls.rotations:
            size = rotation.shape[0]
            np.testing.assert_allclose(rotation.T @ rotation, np.eye(size),
                                       rtol=0.0, atol=50 * EPS)
            assert np.all(np.diag(rotation) >= 0.0)
            _assert_greedy_diagonal(rotation)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_panel_does_not_depend_on_its_call_mates(self, seed):
        # One eigh call serves every panel of a round.  Each panel's
        # rotation, and its rotated columns, are bit for bit those of
        # a call on that panel alone: what keeps a stacked solve's bits
        # those of its tasks run one at a time.
        rng = np.random.default_rng(seed)
        m, n, width = 48, 64, 16
        b = rng.standard_normal((m, n)) * np.logspace(0, -6, n)
        b[:, 5] = 0.0  # a dead column: its panel takes the sub-Gram path
        w = np.asfortranarray(np.vstack([b, np.eye(n)]))
        cols = rng.permutation(n).reshape(-1, width)
        floor = np.full(len(cols), zero_column_threshold_sq(
            float(np.linalg.norm(b)), b.dtype))
        together = w.copy(order="F")
        assert hestenes._rotate_panels(together, m, cols, 1e-10,
                                       floor).all()
        for k in range(len(cols)):
            alone = w.copy(order="F")
            hestenes._rotate_panels(alone, m, cols[k:k + 1], 1e-10,
                                    floor[k:k + 1])
            assert (together[:, cols[k]].tobytes()
                    == alone[:, cols[k]].tobytes())
        top = b[:, cols.ravel()].reshape(m, -1, width).transpose(1, 0, 2)
        gram = np.matmul(top.transpose(0, 2, 1), top)
        rotations = hestenes._gram_rotations(gram)
        for k, rotation in enumerate(rotations):
            alone = hestenes._gram_rotations(gram[k:k + 1])[0]
            assert rotation.tobytes() == alone.tobytes()
            np.testing.assert_allclose(rotation.T @ rotation, np.eye(width),
                                       rtol=0.0, atol=2 * width * EPS)

    def test_clashing_argmax_takes_the_greedy_assignment(self):
        # A Gram matrix whose eigenvectors have two rows with their
        # largest entry in one column: the per-row argmax is not a
        # permutation.
        v = _clashing_orthogonal(6)
        magnitude = np.abs(v)
        assert len(set(magnitude.argmax(axis=1))) < 6
        sigma = np.linspace(6.0, 1.0, 6)
        rotation = hestenes._gram_rotations(((v * sigma**2) @ v.T)[None])[0]
        np.testing.assert_allclose(rotation.T @ rotation, np.eye(6),
                                   rtol=0.0, atol=50 * EPS)
        assert np.all(np.diag(rotation) >= 0.0)
        # Each column is one of v's columns, up to sign.
        matches = np.abs(np.abs(rotation.T @ v) - 1.0) < 1e-10
        assert np.array_equal(matches.sum(axis=0), np.ones(6))
        assert np.array_equal(matches.sum(axis=1), np.ones(6))
        _assert_greedy_diagonal(rotation)
        # The row that lost its largest entry to another row.
        rows = np.arange(6)
        assert np.any(np.abs(rotation).argmax(axis=1) != rows)

    def test_permutation_argmax_puts_row_maxima_on_the_diagonal(self):
        v = np.linalg.qr(np.eye(5) + 0.1 * np.random.default_rng(2)
                         .standard_normal((5, 5)))[0]
        rotation = hestenes._toward_identity(v[::-1][None])[0]
        assert np.array_equal(np.abs(rotation).argmax(axis=1), np.arange(5))
        assert np.all(np.diag(rotation) > 0.0)


def _assert_greedy_diagonal(rotation):
    """Row ``i``'s diagonal entry is its largest but for entries in
    columns whose own diagonal entry is at least as large: what the
    greedy assignment guarantees, and every row's largest entry on the
    diagonal when the per-row argmax is a permutation."""
    magnitude = np.abs(rotation)
    diagonal = np.diag(magnitude)
    larger = magnitude > diagonal[:, None]
    assert np.all(diagonal[None, :] >= np.where(larger, magnitude, 0.0))


def _clashing_orthogonal(size):
    """A seeded orthogonal matrix whose rows' argmax is no permutation."""
    rng = np.random.default_rng(0)
    while True:
        v = np.linalg.qr(rng.standard_normal((size, size)))[0]
        if len(set(np.abs(v).argmax(axis=1))) < size:
            return v


class TestShapes:
    @pytest.mark.parametrize("n,width", [
        (40, 8),   # five blocks: a bye in every tournament round
        (48, 16),  # three blocks of 16
        (20, 8),   # padded to 24: the last block holds 4 zero columns
    ])
    def test_converges(self, n, width):
        a = random_matrix(n + 4, n, seed=n)
        result = svd(a, method="block", block_width=width, precision=1e-10)
        assert result.converged and not result.degraded
        assert _sigma_error(result, a) <= 1e-12
        np.testing.assert_allclose(result.v.T @ result.v, np.eye(n),
                                   rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(result.reconstruct(), a, rtol=0.0,
                                   atol=1e-12)

    def test_zero_columns_stay_out_of_the_rotations(self, monkeypatch):
        # Padding and exactly-zero columns are never mixed into a
        # rotation, so their singular values stay exactly zero.
        calls = _Calls(monkeypatch)
        a = random_matrix(20, 20, seed=4)
        a[:, [2, 11]] = 0.0
        result = svd(a, method="block", block_width=8, precision=1e-10)
        assert calls.rotations
        assert np.all(result.singular_values[18:] == 0.0)
        assert np.all(result.singular_values[:18] > 0.0)
        np.testing.assert_allclose(result.v.T @ result.v, np.eye(20),
                                   rtol=0.0, atol=1e-13)


class TestPairwiseKernelTiers:
    """``strategy`` picks the pairwise round kernel, which a block solve
    runs only in its finish: the scalar-against-batched parity of the
    two kernels, on kappa = 1e12 inputs whose block sweeps stall and
    hand over at every one of these shapes."""

    @pytest.mark.parametrize("shape,block_width", [
        ((32, 32), 8),
        ((48, 48), 8),   # odd block count (p=3): tournament bye round
        ((16, 32), 4),   # wide input: transposed internally
        ((33, 16), 4),   # odd row count, rectangular blocks
    ])
    def test_block_finish(self, monkeypatch, shape, block_width):
        scalar_calls = [0]
        scalar_kernel = hestenes._sweep_pairs_scalar

        def count_scalar(*args):
            scalar_calls[0] += 1
            return scalar_kernel(*args)

        monkeypatch.setattr(hestenes, "_sweep_pairs_scalar", count_scalar)
        a = conditioned_matrix(*shape, 1e12, seed=0)
        kwargs = dict(method="block", block_width=block_width,
                      precision=1e-10)
        scalar = svd(a, strategy="scalar", **kwargs)
        assert scalar_calls[0] > 0
        batched = svd(a, strategy="vectorized", **kwargs)
        np.testing.assert_allclose(
            scalar.singular_values, batched.singular_values,
            rtol=0.0, atol=1e-10 * scalar.singular_values[0],
        )
        assert scalar.sweeps == batched.sweeps
        assert _sigma_error(batched, a) <= 1e-12


def _mixed_stack():
    """Two Gaussians that converge on five block sweeps, and two
    kappa = 1e10 matrices whose block sweeps stall: the first on its
    fourth sweep, finishing on a pairwise fifth while the other three
    still rotate blocks, the second on its fifth, finishing alone on a
    pairwise sixth."""
    return [random_matrix(64, 64, seed=0),
            conditioned_matrix(64, 64, 1e10, seed=1),
            random_matrix(64, 64, seed=1),
            conditioned_matrix(64, 64, 1e10, seed=2)]


class TestMixedStack:
    """A stacked run whose tasks sweep different ways in one sweep."""

    @pytest.mark.parametrize("strategy", ["scalar", "vectorized"])
    def test_svd_bit_identical(self, monkeypatch, strategy):
        matrices = _mixed_stack()
        kwargs = dict(method="block", precision=1e-10, strategy=strategy)
        solo = [svd(a, **kwargs) for a in matrices]
        assert [r.sweeps for r in solo] == [5, 5, 5, 6]
        calls = _Calls(monkeypatch)
        stacked = _svd_many(matrices, **kwargs)
        # Sweeps 1-4 rotate the four tasks' panels together; sweep 5
        # the Gaussians' and the second stalled task's, sweep 6 none.
        assert calls.blocks == 7 * 5
        for got, want in zip(stacked, solo):
            assert _bits(got) == _bits(want)

    def test_driver_rotations_and_deadline_partials(self):
        works = [_prepare(a, "block", None, True, "auto", None).work
                 for a in _mixed_stack()]
        args = dict(block_width=8, precision=1e-10, max_sweeps=60,
                    ordering_cls=ShiftingRingOrdering, fixed_sweeps=None,
                    strategy="vectorized", method="block")
        solo = [hestenes._block_jacobi_svd(a, **args) for a in works]
        counter = _CountdownDeadline(60.0)
        stacked = hestenes._block_jacobi_svd(works, deadline=counter,
                                             **args)
        for got, want in zip(stacked, solo):
            assert _bits(got) == _bits(want)
            assert got.rotations == want.rotations
        # The last 105 tests are the second stalled task's lone
        # pairwise sweep (7 tournament rounds of 15 ordering rounds):
        # cut it there, after the others converged.
        deadline = _CountdownDeadline(60.0, counter.tests - 50)
        cut = hestenes._block_jacobi_svd(works, deadline=deadline, **args)
        for i in (0, 1, 2):
            assert _bits(cut[i]) == _bits(solo[i])
            assert cut[i].rotations == solo[i].rotations
        assert isinstance(cut[3], DeadlineExceeded)
        partial = cut[3].partial
        five = hestenes._block_jacobi_svd(works[3], **{**args,
                                                       "fixed_sweeps": 5})
        assert partial.completed == 5
        assert partial.residual == five.sweep_residuals[-1]
        assert partial.kind == "block-sweep"
        assert partial.details["rotations"] == five.rotations
