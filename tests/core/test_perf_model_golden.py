"""Bit-exact golden values of the analytic performance model.

Every :class:`~repro.core.perf_model.PerformanceBreakdown` field, the
default-iterations ``task_time()`` and ``throughput(100)`` are pinned as
``float.hex`` strings for the nine Table IV configurations (208.3 MHz,
one iteration), the codesign and traditional variants of the Table V
128x128 latency point (450 MHz, P_eng 8), a single-block-pair design
and a design whose AIE stage outpaces transmission (non-zero
``t_aiewait``).  Any change to an expression's operands or evaluation
order shows up here as a mismatch, not as a rounding-level drift.
"""

import dataclasses

import pytest

from repro.core.config import HeteroSVDConfig
from repro.core.perf_model import PerformanceBreakdown, PerformanceModel
from repro.units import mhz

#: Pinned quantities, in order: the breakdown fields, then the two
#: compositions.
NAMES = tuple(f.name for f in dataclasses.fields(PerformanceBreakdown)) + (
    "task_time",
    "throughput_100",
)

#: (m, n, P_eng, P_task, PL MHz, fixed_iterations, use_codesign) ->
#: ``float.hex`` of each quantity in :data:`NAMES`.
GOLDEN = {
    (128, 128, 2, 1, 208.3, 1, True): (
        "0x1.eedc024b48798p-22", "0x1.eedc024b48798p-22", "0x1.a69ff1b555051p-23",
        "0x1.eb582155f05f6p-23", "0x0.0p+0", "0x1.eedc024b48798p-22",
        "0x1.eedc024b48798p-22", "0x0.0p+0", "0x1.e72092421b57ap-11",
        "0x1.e818004340fbdp-15", "0x1.5f540d184d70fp-21", "0x1.e7f41e45f43d2p-11",
        "0x1.f7dddd36b07d5p-16", "0x1.feaa8fbafc943p-10", "0x1.00ab2a47b2c88p+9",
    ),
    (256, 256, 2, 1, 208.3, 1, True): (
        "0x1.9c6201e9670fep-21", "0x1.9c6201e9670fep-21", "0x1.338508551d9aap-22",
        "0x1.715dffff43058p-22", "0x0.0p+0", "0x1.9c6201e9670fep-21",
        "0x1.9c6201e9670fep-21", "0x0.0p+0", "0x1.99293de59441cp-8",
        "0x1.eb3c25c6fb519p-13", "0x1.05904214e8e96p-20", "0x1.99535d09d426dp-8",
        "0x1.a007dd85a26e4p-14", "0x1.a42b4dc9db666p-7", "0x1.37f3575df6919p+6",
    ),
    (512, 512, 2, 1, 208.3, 1, True): (
        "0x1.732501b8765b2p-20", "0x1.732501b8765b2p-20", "0x1.f3ef274a03cabp-22",
        "0x1.3460ef53ec588p-21", "0x0.0p+0", "0x1.732501b8765b2p-20",
        "0x1.732501b8765b2p-20", "0x0.0p+0", "0x1.71b1dcb6bde4cp-5",
        "0x1.ecfc9d290f8b4p-11", "0x1.b15cb9266d4b3p-20", "0x1.71bb0c0437139p-5",
        "0x1.74c12b1035e17p-12", "0x1.77052ec2dcd11p-4", "0x1.5d81a7ae58917p+3",
    ),
    (128, 128, 4, 1, 208.3, 1, True): (
        "0x1.eedc024b48798p-21", "0x1.eedc024b48798p-21", "0x1.a69ff1b555051p-23",
        "0x1.13bca5813c274p-21", "0x0.0p+0", "0x1.eedc024b48798p-21",
        "0x1.eedc024b48798p-21", "0x0.0p+0", "0x1.df652238ee35bp-12",
        "0x1.e342da3d84c6ap-17", "0x1.f1c965ccfeefep-20", "0x1.e345c7a1067d2p-12",
        "0x1.ff994d3fdd9f4p-16", "0x1.f8df4abfef598p-11", "0x1.039d3c0d81f29p+10",
    ),
    (256, 256, 4, 1, 208.3, 1, True): (
        "0x1.9c6201e9670fep-20", "0x1.9c6201e9670fep-20", "0x1.338508551d9aap-22",
        "0x1.bf891c92c0891p-21", "0x0.0p+0", "0x1.9c6201e9670fep-20",
        "0x1.9c6201e9670fep-20", "0x0.0p+0", "0x1.95f079e1c173ap-9",
        "0x1.e818004340fbdp-15", "0x1.7d2da82eddb90p-19", "0x1.96b6ddcc4784dp-9",
        "0x1.a340a189753c6p-14", "0x1.a0b0de5db0d32p-8", "0x1.3a8df46aeae45p+7",
    ),
    (512, 512, 4, 1, 208.3, 1, True): (
        "0x1.732501b8765b2p-19", "0x1.732501b8765b2p-19", "0x1.f3ef274a03cabp-22",
        "0x1.8b91055ae4a65p-20", "0x0.0p+0", "0x1.732501b8765b2p-19",
        "0x1.732501b8765b2p-19", "0x0.0p+0", "0x1.703eb7b5056e7p-6",
        "0x1.eb3c25c6fb519p-13", "0x1.42dfc95fcd1d9p-18", "0x1.706a1801b6f29p-6",
        "0x1.76345011ee57cp-12", "0x1.752c0ca149088p-5", "0x1.5f3cc88fb632bp+4",
    ),
    (128, 128, 8, 1, 208.3, 1, True): (
        "0x1.eedc024b48798p-20", "0x1.eedc024b48798p-20", "0x1.a69ff1b555051p-23",
        "0x1.13bca5813c274p-21", "0x0.0p+0", "0x1.eedc024b48798p-20",
        "0x1.eedc024b48798p-20", "0x0.0p+0", "0x1.cfee422693f1ep-13",
        "0x1.df652238ee35bp-19", "0x1.0a65356e33d5bp-18", "0x1.dffcdbdb32b27p-13",
        "0x1.078816a91bf18p-15", "0x1.fca55c1a78accp-12", "0x1.01b026adeb28ap+11",
    ),
    (256, 256, 8, 1, 208.3, 1, True): (
        "0x1.9c6201e9670fep-19", "0x1.9c6201e9670fep-19", "0x1.338508551d9aap-22",
        "0x1.bf891c92c0891p-21", "0x0.0p+0", "0x1.9c6201e9670fep-19",
        "0x1.9c6201e9670fep-19", "0x0.0p+0", "0x1.8f7ef1da1bd76p-10",
        "0x1.e342da3d84c6ap-17", "0x1.982117a974403p-18", "0x1.92b374f3aeb2ap-10",
        "0x1.a9b229911ad8ap-14", "0x1.a04a078daba08p-9", "0x1.3adba95ccbfbcp+8",
    ),
    (512, 512, 8, 1, 208.3, 1, True): (
        "0x1.732501b8765b2p-18", "0x1.732501b8765b2p-18", "0x1.f3ef274a03cabp-22",
        "0x1.8b91055ae4a65p-20", "0x0.0p+0", "0x1.732501b8765b2p-18",
        "0x1.732501b8765b2p-18", "0x0.0p+0", "0x1.6d586db19481bp-7",
        "0x1.e818004340fbdp-15", "0x1.59cc6e0ffa8a3p-17", "0x1.6e0baa0d869e0p-7",
        "0x1.791a9a155f448p-12", "0x1.748a824804ad7p-6", "0x1.5fd51613e5a55p+5",
    ),
    (128, 128, 8, 1, 450.0, 1, True): (
        "0x1.ca213d840baf8p-21", "0x1.ca213d840baf8p-21", "0x1.a69ff1b555051p-23",
        "0x1.13bca5813c274p-21", "0x0.0p+0", "0x1.ca213d840baf8p-21",
        "0x1.ca213d840baf8p-21", "0x0.0p+0", "0x1.ad7f29abcaf48p-14",
        "0x1.bbd03397eb520p-20", "0x1.0a65356e33d5bp-18", "0x1.c54e01f8be60bp-14",
        "0x1.e9502720c22e6p-17", "0x1.db7338ab80a42p-13", "0x1.13ae0996dec5ap+12",
    ),
    (128, 128, 8, 1, 450.0, 1, False): (
        "0x1.ca213d840baf8p-21", "0x1.ca213d840baf8p-21", "0x1.a69ff1b555051p-23",
        "0x1.13bca5813c274p-21", "0x0.0p+0", "0x1.ca213d840baf8p-21",
        "0x1.f3af03ea5cd36p-21", "0x0.0p+0", "0x1.868a3fabdee2ep-14",
        "0x1.bbd03397eb520p-20", "0x1.8126b48959e78p-18", "0x1.f35be85d90312p-14",
        "0x1.e9502720c22e6p-17", "0x1.deffb6ddf3838p-13", "0x1.11a32b61c347dp+12",
    ),
    (64, 16, 8, 1, 208.3, None, True): (
        "0x1.49e8018785a65p-20", "0x1.49e8018785a65p-20", "0x1.466ae23ae1ed1p-23",
        "0x1.7bacd3f0f3ecap-22", "0x0.0p+0", "0x0.0p+0",
        "0x1.687b45145673cp-18", "0x0.0p+0", "0x0.0p+0",
        "0x1.3549816f0d4bfp-23", "0x1.870e88a127413p-19", "0x1.687b45145673cp-18",
        "0x1.f7578b5f820d0p-19", "0x1.5efce8aca3c01p-15", "0x1.756ff60925fc0p+14",
    ),
    (1024, 32, 4, 1, 500.0, None, True): (
        "0x1.240eca6a943fep-19", "0x1.240eca6a943fep-19", "0x1.ba61b299e8157p-21",
        "0x1.7194f9bef6b50p-19", "0x1.3618bd5189d48p-21", "0x1.7194f9bef6b50p-19",
        "0x1.b7c03f2d8eefcp-19", "0x0.0p+0", "0x1.f946abca99780p-16",
        "0x1.9c511dc3a41dfp-22", "0x1.25b8d9f844cfdp-17", "0x1.b58ee5021a2e0p-14",
        "0x1.4cd8b715f5429p-16", "0x1.d13a5e8f713b7p-11", "0x1.19bcb41ff3aa8p+10",
    ),
}


def _model(key):
    m, n, p_eng, p_task, f_mhz, iterations, codesign = key
    return PerformanceModel(HeteroSVDConfig(
        m=m, n=n, p_eng=p_eng, p_task=p_task,
        pl_frequency_hz=mhz(f_mhz), fixed_iterations=iterations,
        use_codesign=codesign,
    ))


@pytest.mark.parametrize("key", list(GOLDEN))
def test_model_is_bit_identical(key):
    model = _model(key)
    values = dataclasses.astuple(model.breakdown()) + (
        model.task_time(),
        model.throughput(100),
    )
    assert len(GOLDEN[key]) == len(NAMES)
    for name, value, golden in zip(NAMES, values, GOLDEN[key]):
        assert value.hex() == golden, name


@pytest.mark.parametrize("key", list(GOLDEN))
def test_term_methods_match_breakdown(key):
    model = _model(key)
    b = model.breakdown()
    assert model.t_tx() == b.t_tx
    assert model.t_rx() == b.t_rx
    assert model.t_orth() == b.t_orth
    assert model.t_stage() == b.t_stage
    assert model.t_aiewait() == b.t_aiewait
    assert model.t_algo() == b.t_algo
    assert model.t_period() == b.t_period
    assert model.t_datawait() == b.t_datawait
    assert model.t_ddr() == b.t_ddr
    assert model.t_hls_per_iteration() == b.t_hls_per_iteration
    assert model.aie_total() == b.aie_total
    assert model.iteration_time() == b.t_iter
    assert model.t_norm() == b.t_norm
    assert model.task_time(model.iterations()) == model.task_time()
    assert model.throughput(100) == 100 / model.system_time(100)
