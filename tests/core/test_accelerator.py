"""Integration tests: the functional accelerator vs the golden model."""

import numpy as np
import pytest

from repro.core.accelerator import HeteroSVDAccelerator
from repro.core.config import HeteroSVDConfig
from repro.core.ordering_codesign import (
    codesign_dma_transfers,
    traditional_dma_transfers,
)
from repro.core.placement import place
from repro.core.routing import ForwardingRule
from repro.errors import NumericalError, RoutingError, SimulationError
from repro.linalg.hestenes import DEFAULT_MAX_SWEEPS, _block_jacobi_svd
from repro.linalg.block import sweep_schedule
from repro.linalg.orderings import RingOrdering, ShiftingRingOrdering
from repro.linalg.reference import validate_svd
from repro.pl.sender import Sender


def make_accel(m, n, p_eng, **kwargs):
    return HeteroSVDAccelerator(
        HeteroSVDConfig(m=m, n=n, p_eng=p_eng, p_task=1, **kwargs)
    )


class TestFunctionalCorrectness:
    @pytest.mark.parametrize(
        "m,n,p_eng", [(16, 8, 2), (32, 16, 4), (24, 24, 3), (64, 32, 8)]
    )
    def test_singular_values_match_lapack(self, rng, m, n, p_eng):
        a = rng.standard_normal((m, n))
        result = make_accel(m, n, p_eng).run(a)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.sigma[: len(s_ref)], s_ref, rtol=1e-6)

    def test_full_factorization_with_v(self, rng):
        a = rng.standard_normal((32, 16))
        result = make_accel(32, 16, 4).run(a, accumulate_v=True)
        report = validate_svd(
            a, result.u[:, :16], result.sigma[:16], result.v[:, :16]
        )
        assert report.within(1e-5), report
        assert np.allclose(result.reconstruct(), a, atol=1e-6)

    def test_u_columns_unit_norm(self, rng):
        a = rng.standard_normal((24, 12))
        result = make_accel(24, 12, 2).run(a)
        norms = np.linalg.norm(result.u, axis=0)
        live = norms[result.sigma > 1e-12]
        assert np.allclose(live, 1.0, atol=1e-10)

    def test_sigma_descending(self, rng):
        a = rng.standard_normal((16, 8))
        result = make_accel(16, 8, 2).run(a)
        assert np.all(result.sigma[:-1] >= result.sigma[1:])

    def test_traditional_ordering_same_numerics(self, rng):
        a = rng.standard_normal((24, 12))
        codesign = make_accel(24, 12, 2, use_codesign=True).run(a)
        traditional = make_accel(24, 12, 2, use_codesign=False).run(a)
        assert np.allclose(codesign.sigma, traditional.sigma, rtol=1e-8)

    def test_convergence_history_decreases(self, rng):
        a = rng.standard_normal((32, 16))
        result = make_accel(32, 16, 4).run(a)
        assert result.converged
        assert result.convergence_history[-1] < result.convergence_history[0]

    def test_fixed_iterations_mode(self, rng):
        a = rng.standard_normal((16, 8))
        result = make_accel(16, 8, 2, fixed_iterations=2).run(a)
        assert result.iterations == 2

    def test_rank_deficient_input(self, rng):
        a = np.outer(rng.standard_normal(16), rng.standard_normal(8))
        result = make_accel(16, 8, 2).run(a)
        assert result.sigma[0] > 0
        assert np.allclose(result.sigma[1:], 0.0, atol=1e-8)

    def test_batch_processing(self, rng):
        accel = make_accel(16, 8, 2)
        mats = [rng.standard_normal((16, 8)) for _ in range(3)]
        results = accel.run_batch(mats)
        assert len(results) == 3
        for a, res in zip(mats, results):
            s_ref = np.linalg.svd(a, compute_uv=False)
            assert np.allclose(res.sigma, s_ref, rtol=1e-6)


class TestTransferAccounting:
    def test_codesign_dma_count(self, rng):
        a = rng.standard_normal((16, 8))
        accel = make_accel(16, 8, 2, fixed_iterations=2)
        result = accel.run(a)
        num = accel.config.num_block_pairs
        assert result.transfers.dma_transfers == (
            2 * num * codesign_dma_transfers(2)
        )

    def test_traditional_dma_count(self, rng):
        a = rng.standard_normal((16, 8))
        accel = make_accel(16, 8, 2, fixed_iterations=2, use_codesign=False)
        result = accel.run(a)
        num = accel.config.num_block_pairs
        assert result.transfers.dma_transfers == (
            2 * num * traditional_dma_transfers(2)
        )

    def test_codesign_reduces_dma_by_factor_k(self, rng):
        a = rng.standard_normal((32, 16))
        kwargs = dict(fixed_iterations=1)
        co = make_accel(32, 16, 4, **kwargs).run(a)
        trad = make_accel(32, 16, 4, use_codesign=False, **kwargs).run(a)
        assert trad.transfers.dma_transfers == (
            4 * co.transfers.dma_transfers
        )

    def test_packet_counts(self, rng):
        a = rng.standard_normal((16, 8))
        accel = make_accel(16, 8, 2, fixed_iterations=1)
        result = accel.run(a)
        expected = accel.config.num_block_pairs * accel.config.pair_cols
        assert result.transfers.packets_sent == expected
        assert result.transfers.packets_received == expected


class TestRoutingTable:
    """The table built at construction is the per-column sender's routing."""

    @pytest.mark.parametrize("p_eng", [2, 4, 8])
    def test_table_equals_sender_headers(self, rng, p_eng):
        accel = make_accel(32, 32, p_eng)
        rule = ForwardingRule(accel.placement.tasks[accel.pipeline])
        columns = list(range(4, 4 + 2 * p_eng))
        data = rng.standard_normal((32, 2 * p_eng))
        packets = Sender(rule.route_orth).packetize(columns, data)
        assert accel.routing_table == tuple(p.header for p in packets)

    def test_missing_first_layer_slot_fails_construction(self):
        config = HeteroSVDConfig(m=32, n=32, p_eng=4, p_task=1)
        placement = place(config)
        del placement.tasks[0].orth[(0, 2)]
        with pytest.raises(RoutingError, match="slot 2"):
            HeteroSVDAccelerator(config, placement=placement)

    @pytest.mark.parametrize("codesign, ordering_cls",
                             [(True, ShiftingRingOrdering),
                              (False, RingOrdering)])
    def test_sweep_indices_are_the_shared_schedule(self, codesign,
                                                   ordering_cls):
        config = HeteroSVDConfig(m=32, n=32, p_eng=4, p_task=1,
                                 use_codesign=codesign)
        accel = HeteroSVDAccelerator(config)
        assert accel._sweep_indices is sweep_schedule(ordering_cls, 32, 4)
        assert HeteroSVDAccelerator(config)._sweep_indices is \
            accel._sweep_indices


class TestBlockDriverParity:
    """The accelerator rotates exactly what the pairwise block driver
    rotates.

    The block driver (:func:`~repro.linalg.hestenes._block_jacobi_svd`)
    runs here on ``a`` itself with ``method="hestenes"``, which sweeps
    column pairs at any block width: the accelerator's rotations, where
    ``svd(method="block")`` rotates whole block pairs of the ``L`` of a
    QR and LQ of ``a`` instead, while the accelerator stays plain
    Hestenes (Algorithm 1).  Both run each tournament round of block
    pairs through the same batched round kernel, so after the same
    number of sweeps the accumulated V is bit-identical — odd block
    counts (a bye in every tournament round) included.
    """

    @pytest.mark.parametrize("use_codesign", [True, False])
    @pytest.mark.parametrize("sweeps", [1, 3])
    @pytest.mark.parametrize("n,p_eng", [(36, 4), (30, 2), (40, 8)])
    def test_v_matches_block_svd_bit_for_bit(
        self, rng, n, p_eng, sweeps, use_codesign
    ):
        a = rng.standard_normal((n, n))
        accel = make_accel(
            n, n, p_eng, fixed_iterations=sweeps, use_codesign=use_codesign
        )
        result = accel.run(a, accumulate_v=True)
        reference = _block_jacobi_svd(
            a,
            block_width=p_eng,
            precision=accel.config.precision,
            max_sweeps=DEFAULT_MAX_SWEEPS,
            ordering_cls=ShiftingRingOrdering,
            fixed_sweeps=sweeps,
            method="hestenes",
        )
        assert result.iterations == sweeps
        assert np.array_equal(result.v, reference.v)


class TestGoldenTraffic:
    """Traffic counts recorded with the per-pair rotation loop.

    Batching a tournament round's rotations must not move a single
    count: iterations, DMA/neighbour transfers, packets and the FIFO
    high-water mark stay per block pair.
    """

    GOLDEN = {
        # (n, p_eng, use_codesign): (iterations, dma, neighbour, packets)
        (32, 4, True): (8, 1344, 9408, 1792),
        (32, 4, False): (8, 5376, 5376, 1792),
        (48, 8, True): (7, 1470, 22050, 1680),
        (48, 8, False): (7, 11760, 11760, 1680),
        (64, 4, True): (9, 6480, 45360, 8640),
        (64, 4, False): (9, 25920, 25920, 8640),
    }

    @pytest.mark.parametrize("arithmetic", ["float64", "float32"])
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_counts_match_recorded(self, key, arithmetic):
        n, p_eng, use_codesign = key
        iterations, dma, neighbour, packets = self.GOLDEN[key]
        a = np.random.default_rng(n + p_eng).standard_normal((n, n))
        result = make_accel(
            n, n, p_eng, use_codesign=use_codesign, arithmetic=arithmetic
        ).run(a)
        transfers = result.transfers
        assert result.iterations == iterations
        assert transfers.dma_transfers == dma
        assert transfers.neighbor_transfers == neighbour
        assert transfers.packets_sent == packets
        assert transfers.packets_received == packets
        assert transfers.fifo_high_water == 1


class TestAcceleratorErrors:
    def test_wrong_shape_rejected(self, rng):
        accel = make_accel(16, 8, 2)
        with pytest.raises(NumericalError):
            accel.run(rng.standard_normal((8, 16)))

    def test_non_finite_rejected(self, rng):
        accel = make_accel(16, 8, 2)
        a = rng.standard_normal((16, 8))
        a[0, 0] = np.inf
        with pytest.raises(NumericalError):
            accel.run(a)

    def test_reconstruct_requires_v(self, rng):
        result = make_accel(16, 8, 2).run(rng.standard_normal((16, 8)))
        with pytest.raises(SimulationError):
            result.reconstruct()

    def test_non_finite_sigma_rejected(self, rng, monkeypatch):
        # Backstop for a datapath overflow the pre-scale did not avoid:
        # an infinite sigma is an error, not a converged result.
        accel = make_accel(16, 8, 2)
        normalize = accel._normalize

        def overflowing(working):
            u, sigma = normalize(working)
            sigma[0] = np.inf
            return u, sigma

        monkeypatch.setattr(accel, "_normalize", overflowing)
        with pytest.raises(NumericalError, match="overflowed"):
            accel.run(rng.standard_normal((16, 8)))

    def test_complex_rejected(self, rng):
        # The datapath is real: a complex input must not be cast away.
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        with pytest.raises(NumericalError, match="complex"):
            make_accel(16, 16, 4).run(a)


class TestInputScale:
    """Inputs far from unit scale are pre-scaled by a power of two."""

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_power_of_two_scale_is_exact(self, rng, exponent):
        # Unscaled, 2**600 overflows the Gram entries and 2**-600
        # underflows them (one sweep, all-zero sigma).
        a = rng.standard_normal((16, 16))
        accel = make_accel(16, 16, 4)
        plain = accel.run(a)
        scaled = accel.run(np.ldexp(a, exponent))
        assert scaled.iterations == plain.iterations > 1
        assert np.array_equal(scaled.sigma, np.ldexp(plain.sigma, exponent))
        assert np.array_equal(scaled.u, plain.u)

    def test_float32_rejects_entries_beyond_its_range(self, rng):
        # 1e50 is in float64's pre-scale range but overflows the cast.
        a = 1e50 * rng.standard_normal((16, 16))
        with pytest.raises(NumericalError, match="non-finite"):
            make_accel(16, 16, 4, arithmetic="float32").run(a)

    @pytest.mark.parametrize("scale", [1e20, 1e30, 1e-30, 1e-50])
    def test_float32_prescales_inputs_inside_its_range(self, rng, scale):
        # Unscaled, float32's squared column norms overflow (1e20,
        # 1e30: sigma = inf) or underflow (1e-30; 1e-50 flushes to zero
        # in the cast): all-zero sigma.
        a = scale * rng.standard_normal((16, 16))
        result = make_accel(16, 16, 4, arithmetic="float32").run(a)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert result.converged
        assert np.max(np.abs(result.sigma - s_ref)) <= 1e-5 * s_ref[0]
