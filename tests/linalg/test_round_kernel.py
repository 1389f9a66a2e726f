"""The fused round kernel pinned bit for bit to the three-call kernel.

``reference_sweep_pairs_indexed`` below is the batched round kernel as
it stood before ``B`` and ``V`` were stacked into one working array:
separate gathers and scatters for ``B`` and ``V``, three ``einsum``
calls for the Gram triple, and the two array helpers
``reference_pair_convergence_ratios`` and
``reference_compute_rotations_batch``.  All three are kept verbatim as
the arithmetic :func:`repro.linalg.hestenes._sweep_pairs_indexed` must
reproduce: the same ``worst`` and ``count``, and the same bits in every
entry of ``B`` and ``V``, on every path through the kernel.
"""

import numpy as np
import pytest

import repro.core.accelerator as accelerator_module
import repro.linalg.hestenes as hestenes_module
from repro.core.accelerator import HeteroSVDAccelerator
from repro.core.config import HeteroSVDConfig
from repro.errors import NumericalError
from repro.linalg import svd
from repro.linalg.block import block_pair_round_indices
from repro.linalg.convergence import pair_convergence_ratios
from repro.linalg.hestenes import (
    _sweep_pairs_indexed,
    round_workspace,
    stack_panels,
)
from repro.linalg.orderings import RingOrdering
from repro.linalg.rotations import (
    GRAM_SCALE_MAX,
    GRAM_SCALE_MIN,
    ORTHOGONALITY_EPS,
    compute_rotations_batch,
)


def reference_pair_convergence_ratios(alpha, beta, gamma, zero_sq=0.0):
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    live = (alpha > zero_sq) & (beta > zero_sq) & (alpha > 0.0) & (beta > 0.0)
    ratios = np.zeros_like(alpha)
    if np.any(live):
        denominator = np.sqrt(alpha[live]) * np.sqrt(beta[live])
        safe = denominator > 0.0
        quotient = np.zeros_like(denominator)
        np.divide(
            np.abs(gamma[live]), denominator, out=quotient, where=safe
        )
        ratios[live] = quotient
    return ratios


def reference_compute_rotations_batch(alpha, beta, gamma):
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if not (
        np.all(np.isfinite(alpha))
        and np.all(np.isfinite(beta))
        and np.all(np.isfinite(gamma))
    ):
        raise NumericalError(
            "non-finite Gram entries in batched rotation computation"
        )
    if np.any(alpha < 0) or np.any(beta < 0):
        raise NumericalError(
            "squared norms must be non-negative in batched rotation "
            "computation"
        )
    peak = np.maximum(np.maximum(alpha, beta), np.abs(gamma))
    needs_rescale = (peak > GRAM_SCALE_MAX) | (
        (peak > 0.0) & (peak < GRAM_SCALE_MIN)
    )
    if np.any(needs_rescale):
        exponent = np.where(needs_rescale, -np.frexp(peak)[1], 0)
        alpha = np.ldexp(alpha, exponent)
        beta = np.ldexp(beta, exponent)
        gamma = np.ldexp(gamma, exponent)
    norm_product = np.sqrt(alpha) * np.sqrt(beta)
    identity = (gamma == 0.0) | (
        np.abs(gamma) <= ORTHOGONALITY_EPS * norm_product
    )
    abs_gamma = np.where(identity, 1.0, np.abs(gamma))
    tau = (beta - alpha) / (2.0 * abs_gamma)
    t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.hypot(1.0, t)
    s = np.copysign(1.0, gamma) * t * c
    c = np.where(identity, 1.0, c)
    s = np.where(identity, 0.0, s)
    return c, s, identity


def reference_sweep_pairs_indexed(b, v, ii, jj, precision, zero_sq):
    bi = b[:, ii]
    bj = b[:, jj]
    alpha = np.einsum("ij,ij->j", bi, bi)
    beta = np.einsum("ij,ij->j", bj, bj)
    gamma = np.einsum("ij,ij->j", bi, bj)
    ratios = reference_pair_convergence_ratios(alpha, beta, gamma, zero_sq)
    worst = float(ratios.max()) if ratios.size else 0.0
    rotate = ratios >= precision
    count = int(np.count_nonzero(rotate))
    if count == 0:
        return worst, 0
    if 2 * count >= ii.size:
        c, s, _ = reference_compute_rotations_batch(alpha, beta, gamma)
        if count < ii.size:
            c = np.where(rotate, c, 1.0)
            s = np.where(rotate, s, 0.0)
        b[:, ii] = c * bi - s * bj
        b[:, jj] = s * bi + c * bj
        if v is not None:
            vi = v[:, ii]
            vj = v[:, jj]
            v[:, ii] = c * vi - s * vj
            v[:, jj] = s * vi + c * vj
        return worst, count
    c, s, _ = reference_compute_rotations_batch(
        alpha[rotate], beta[rotate], gamma[rotate]
    )
    sel_i = ii[rotate]
    sel_j = jj[rotate]
    bi = bi[:, rotate]
    bj = bj[:, rotate]
    b[:, sel_i] = c * bi - s * bj
    b[:, sel_j] = s * bi + c * bj
    if v is not None:
        vi = v[:, sel_i]
        vj = v[:, sel_j]
        v[:, sel_i] = c * vi - s * vj
        v[:, sel_j] = s * vi + c * vj
    return worst, count


def reference_round(w, m, idx, precision, zero_sq, work):
    """The reference kernel in the fused kernel's calling form.

    ``B`` and ``V`` are copied out of ``W`` into the separate
    Fortran-order arrays the reference ran on, and written back after.
    """
    k = idx.size // 2
    b = np.asfortranarray(w[:m])
    v = np.asfortranarray(w[m:]) if w.shape[0] > m else None
    result = reference_sweep_pairs_indexed(
        b, v, idx[:k], idx[k:], precision, zero_sq
    )
    w[:m] = b
    if v is not None:
        w[m:] = v
    return result


def _outcome(kernel, w, m, idx, precision, zero_sq):
    """Everything a round leaves behind, as comparable bytes."""
    w = w.copy(order="F")
    try:
        worst, count = kernel(
            w, m, idx, precision, zero_sq, round_workspace(w.shape, w.dtype)
        )
    except NumericalError as exc:
        return ("raised", str(exc))
    return (np.float64(worst).tobytes(), count, w.tobytes(order="F"))


def _assert_rounds_match(w, m, rounds, precision, zero_sq):
    """Run the rounds through both kernels; compare after each one."""
    ours = w.copy(order="F")
    ref = w.copy(order="F")
    work = round_workspace(w.shape, w.dtype)
    counts = []
    for idx in rounds:
        got = _sweep_pairs_indexed(ours, m, idx, precision, zero_sq, work)
        want = reference_round(ref, m, idx, precision, zero_sq, None)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1] == want[1]
        assert ours.tobytes(order="F") == ref.tobytes(order="F")
        counts.append(got[1])
    return counts


M, N = 24, 16
K = N // 2
PRECISION = 1e-3


def _panel(rng, dtype, with_v, rotating):
    """A ``[B; V]`` panel whose round ``idx`` rotates exactly the pairs
    listed in ``rotating``: B starts with orthogonal columns, and only
    those pairs are then mixed."""
    idx = rng.permutation(N).astype(np.intp)
    q, _ = np.linalg.qr(rng.standard_normal((M, N)))
    b = q * rng.uniform(0.5, 2.0, N)
    for p in rotating:
        b[:, idx[K + p]] += rng.uniform(0.3, 0.9) * b[:, idx[p]]
    v = rng.standard_normal((N, N)) if with_v else None
    w = stack_panels([b.astype(dtype)], [v.astype(dtype)] if with_v else None)
    return w, idx


def _sweep_rounds(idx):
    return [idx, *block_pair_round_indices([range(N)], RingOrdering(N)), idx]


REGIMES = {
    "all": range(K),
    "mostly": range(K - K // 4),
    "few": range(K // 4),
    "none": range(0),
}


class TestKernelBitIdentity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("with_v", [True, False], ids=["v", "v=None"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_matches_reference_kernel(self, rng, dtype, with_v, regime):
        rotating = REGIMES[regime]
        w, idx = _panel(rng, dtype, with_v, rotating)
        counts = _assert_rounds_match(w, M, _sweep_rounds(idx), PRECISION,
                                      0.0)
        # The first round took the path this case is named after.
        assert counts[0] == len(rotating)

    def test_paths_are_the_ones_named(self):
        assert 2 * len(REGIMES["mostly"]) >= K > len(REGIMES["mostly"])
        assert 0 < 2 * len(REGIMES["few"]) < K

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("regime", ["mostly", "few"])
    def test_zero_columns_below_floor(self, rng, dtype, regime):
        w, idx = _panel(rng, dtype, True, REGIMES[regime])
        # A dead column in a rotating pair, and a converged pair of two
        # zero columns (a zero Gram triple).
        w[:M, idx[0]] = 1e-30
        w[:M, idx[K - 1]] = 0.0
        w[:M, idx[N - 1]] = 0.0
        counts = _assert_rounds_match(w, M, _sweep_rounds(idx), PRECISION,
                                      1e-40)
        assert counts[0] == len(REGIMES[regime]) - 1

    @pytest.mark.parametrize("with_v", [True, False], ids=["v", "v=None"])
    @pytest.mark.parametrize("regime", ["all", "mostly", "few"])
    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_lanes_needing_the_rescale(self, rng, with_v, regime, scale):
        # Gram entries near 1e+-300: outside [2^-512, 2^512].
        w, idx = _panel(rng, np.float64, with_v, REGIMES[regime])
        for p in (0, K - 1):
            w[:M, idx[p]] *= scale
            w[:M, idx[K + p]] *= scale
        _assert_rounds_match(w, M, _sweep_rounds(idx), PRECISION, 0.0)

    @pytest.mark.parametrize("n", [2, 4, 64])
    def test_other_widths(self, rng, n):
        w = stack_panels([rng.standard_normal((n + 3, n))],
                         [rng.standard_normal((n, n))])
        rounds = block_pair_round_indices([range(n)], RingOrdering(n))
        _assert_rounds_match(w, n + 3, rounds * 3, 1e-8, 0.0)


class TestBadGramEntries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("regime", ["all", "mostly", "few"])
    def test_kernel_outcome_matches(self, rng, bad, regime):
        w, idx = _panel(rng, np.float64, True, REGIMES[regime])
        w[3, idx[K - 1]] = bad
        ours = _outcome(_sweep_pairs_indexed, w, M, idx, PRECISION, 0.0)
        assert ours == _outcome(reference_round, w, M, idx, PRECISION, 0.0)
        if regime != "few":
            # The whole round's angles are computed: the bad lane raises.
            assert ours == ("raised", "non-finite Gram entries in batched "
                            "rotation computation")

    @pytest.mark.parametrize("lane", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_rotations_batch_outcome_matches(self, lane, bad):
        gram = {
            "alpha": np.array([1.0, 2.0, 3.0]),
            "beta": np.array([2.0, 1.0, 0.5]),
            "gamma": np.array([0.5, -0.25, 0.1]),
        }
        gram[lane][1] = bad

        def outcome(fn):
            try:
                return [x.tobytes() for x in fn(**gram)]
            except NumericalError as exc:
                return str(exc)

        want = outcome(reference_compute_rotations_batch)
        assert outcome(compute_rotations_batch) == want
        # Only a negative inner product is a valid Gram entry here.
        assert isinstance(want, str) == (lane != "gamma" or bad != -1.0)


class TestHelpersMatchReference:
    def _gram(self, rng, n=64):
        alpha = rng.uniform(0.0, 4.0, n) * 10.0 ** rng.integers(-320, 300, n)
        beta = rng.uniform(0.0, 4.0, n) * 10.0 ** rng.integers(-320, 300, n)
        gamma = rng.standard_normal(n) * np.sqrt(alpha) * np.sqrt(beta)
        alpha[:4] = 0.0
        beta[4:6] = 0.0
        gamma[6:10] = 0.0
        return alpha, beta, gamma

    def test_rotations_bit_identical(self, rng):
        alpha, beta, gamma = self._gram(rng)
        want = reference_compute_rotations_batch(alpha, beta, gamma)
        shared = np.sqrt(alpha) * np.sqrt(beta)
        for got in (
            compute_rotations_batch(alpha, beta, gamma),
            compute_rotations_batch(alpha, beta, gamma,
                                    norm_product=shared),
        ):
            for got_arr, want_arr in zip(got, want):
                assert got_arr.tobytes() == want_arr.tobytes()

    @pytest.mark.parametrize("zero_sq", [0.0, 1e-200, 1.0])
    def test_ratios_bit_identical(self, rng, zero_sq):
        alpha, beta, gamma = self._gram(rng)
        alpha[10] = np.nan
        gamma[11] = np.nan
        want = reference_pair_convergence_ratios(alpha, beta, gamma, zero_sq)
        got = pair_convergence_ratios(alpha, beta, gamma, zero_sq)
        assert got.tobytes() == want.tobytes()

    def test_float32_entries_are_upcast(self, rng):
        alpha, beta, gamma = (
            x.astype(np.float32) for x in (rng.uniform(0.5, 2.0, (3, 16)))
        )
        ratios = pair_convergence_ratios(alpha, beta, gamma)
        c, s, _ = compute_rotations_batch(alpha, beta, gamma)
        assert ratios.dtype == c.dtype == s.dtype == np.float64
        assert ratios.tobytes() == reference_pair_convergence_ratios(
            alpha, beta, gamma).tobytes()
        assert c.tobytes() == reference_compute_rotations_batch(
            alpha, beta, gamma)[0].tobytes()


def _factor_bits(result):
    return (
        result.u.tobytes(),
        result.singular_values.tobytes(),
        result.v.tobytes(),
        result.sweeps,
        np.asarray(result.sweep_residuals).tobytes(),
    )


def _driver_inputs():
    rng = np.random.default_rng(2025)
    inputs = []
    for n in (8, 16, 33, 48):
        a = rng.standard_normal((n, n))
        u, _, vt = np.linalg.svd(a)
        ill = (u * np.logspace(0, -11, n)) @ vt
        zero = a.copy()
        zero[:, [1, n - 2]] = 0.0
        inputs += [a, ill, zero, a * 1e-300, a * 1e300]
    inputs.append(rng.standard_normal((40, 16)))
    inputs.append(rng.standard_normal((16, 40)))
    return inputs


DRIVER_INPUTS = _driver_inputs()


class TestDriversMatchReference:
    @pytest.mark.parametrize("method", ["hestenes", "block"])
    @pytest.mark.parametrize("case", range(len(DRIVER_INPUTS)))
    def test_svd_bit_identical(self, monkeypatch, method, case):
        a = DRIVER_INPUTS[case]
        # Odd widths are padded by one column: 34 = 17 blocks of 2.
        width = 2 if a.shape[1] % 2 else 4
        kwargs = {"block_width": width} if method == "block" else {}
        ours = svd(a, method=method, **kwargs)
        monkeypatch.setattr(hestenes_module, "_sweep_pairs_indexed",
                            reference_round)
        ref = svd(a, method=method, **kwargs)
        assert _factor_bits(ours) == _factor_bits(ref)

    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_fixed_sweeps_and_invariants(self, monkeypatch, rng, method):
        a = rng.standard_normal((30, 20))
        kwargs = {"block_width": 5} if method == "block" else {}
        runs = [dict(fixed_sweeps=2), dict(check_invariants=True),
                dict(precision=1e-12)]
        ours = [svd(a, method=method, **kwargs, **r) for r in runs]
        monkeypatch.setattr(hestenes_module, "_sweep_pairs_indexed",
                            reference_round)
        for got, r in zip(ours, runs):
            assert _factor_bits(got) == _factor_bits(
                svd(a, method=method, **kwargs, **r))

    @pytest.mark.parametrize("arithmetic", ["float64", "float32"])
    @pytest.mark.parametrize("n,p_eng", [(32, 4), (40, 8)])
    def test_accelerator_bit_identical(self, monkeypatch, rng, arithmetic,
                                       n, p_eng):
        config = HeteroSVDConfig(m=n, n=n, p_eng=p_eng,
                                 arithmetic=arithmetic)
        a = rng.standard_normal((n, n))
        ours = HeteroSVDAccelerator(config).run(a, accumulate_v=True)
        monkeypatch.setattr(accelerator_module, "_sweep_pairs_indexed",
                            reference_round)
        ref = HeteroSVDAccelerator(config).run(a, accumulate_v=True)
        assert ours.u.tobytes() == ref.u.tobytes()
        assert ours.sigma.tobytes() == ref.sigma.tobytes()
        assert ours.v.tobytes() == ref.v.tobytes()
        assert ours.convergence_history == ref.convergence_history
