"""Bit-exact golden values of the timing simulator and co-simulator.

Every :class:`~repro.core.timing.TimingResult` timing field and
``measure_iteration_time()`` are pinned as ``float.hex`` strings for the
nine Table IV configurations (208.3 MHz, two sweeps), the codesign and
traditional variants of the Table V 128x128 latency point (450 MHz,
P_eng 8), a three-pipeline batch of five tasks at the estimated sweep
count, a straggler layer and a placement-aware design.  The
co-simulator's makespan, kernel-event count and singular values are
pinned on two seeded small matrices.  A change to any duration's
operands or evaluation order shows up here as a mismatch, not as a
rounding-level drift.
"""

import numpy as np
import pytest

from repro.core.config import HeteroSVDConfig
from repro.core.cosim import CoSimulator
from repro.core.placement import place
from repro.core.timing import TimingSimulator
from repro.units import mhz

#: (m, n, P_eng, P_task, PL MHz, fixed_iterations, use_codesign,
#: n_tasks, slowed layer (factor 2) or None, placement-aware) ->
#: ``float.hex`` of each pinned quantity.
SIM_GOLDEN = {
    (128, 128, 2, 1, 208.3, 2, True, 1, None, False): {
        "task_times": ("0x1.8112de4b79ed2p-9",),
        "makespan": "0x1.8112de4b79ed2p-9",
        "iteration_times": ("0x1.f6a46f15f3d43p-10", "0x1.031425f4e6bd7p-10"),
        "steady_iteration_time": "0x1.031425f4e6bd7p-10",
        "orth_utilization": "0x1.328e1c97c8805p-2",
        "plio_utilization": "0x1.fa0264630ededp-1",
        "measure_iteration_time": "0x1.031425f4e6bd7p-10",
    },
    (128, 128, 4, 1, 208.3, 2, True, 1, None, False): {
        "task_times": ("0x1.789afd2cd063dp-10",),
        "makespan": "0x1.789afd2cd063dp-10",
        "iteration_times": ("0x1.e85752754b430p-11", "0x1.f14982b1a815ap-12"),
        "steady_iteration_time": "0x1.f14982b1a815ap-12",
        "orth_utilization": "0x1.76a0cb5264c64p-3",
        "plio_utilization": "0x1.f2fdcb0f8eda5p-1",
        "measure_iteration_time": "0x1.f14982b1a815ap-12",
    },
    (128, 128, 8, 1, 208.3, 2, True, 1, None, False): {
        "task_times": ("0x1.74cbb6624a13fp-11",),
        "makespan": "0x1.74cbb6624a13fp-11",
        "iteration_times": ("0x1.d9a68f82e530ep-12", "0x1.e35edcdf3675cp-13"),
        "steady_iteration_time": "0x1.e35edcdf3675cp-13",
        "orth_utilization": "0x1.6dde78493668ep-4",
        "plio_utilization": "0x1.e2da116fa32cbp-1",
        "measure_iteration_time": "0x1.e35edcdf3675cp-13",
    },
    (256, 256, 2, 1, 208.3, 2, True, 1, None, False): {
        "task_times": ("0x1.3c6825bdd6f4cp-6",),
        "makespan": "0x1.3c6825bdd6f4cp-6",
        "iteration_times": ("0x1.a0e3d518c72e1p-7", "0x1.a89e6c4bf919ep-8"),
        "steady_iteration_time": "0x1.a89e6c4bf919ep-8",
        "orth_utilization": "0x1.17f70b2ac8190p-2",
        "plio_utilization": "0x1.fcfbbd747b4bbp-1",
        "measure_iteration_time": "0x1.a89e6c4bf919ep-8",
    },
    (256, 256, 4, 1, 208.3, 2, True, 1, None, False): {
        "task_times": ("0x1.3819ac88331dcp-7",),
        "makespan": "0x1.3819ac88331dcp-7",
        "iteration_times": ("0x1.9a0826db6a19bp-8", "0x1.9e1fd3d512948p-9"),
        "steady_iteration_time": "0x1.9e1fd3d512948p-9",
        "orth_utilization": "0x1.5fbe6e6672c16p-3",
        "plio_utilization": "0x1.f9b349aaa3612p-1",
        "measure_iteration_time": "0x1.9e1fd3d512948p-9",
    },
    (256, 256, 8, 1, 208.3, 2, True, 1, None, False): {
        "task_times": ("0x1.3596fcdd22e12p-8",),
        "makespan": "0x1.3596fcdd22e12p-8",
        "iteration_times": ("0x1.92918008a3de7p-9", "0x1.95a40e372bddep-10"),
        "steady_iteration_time": "0x1.95a40e372bddep-10",
        "orth_utilization": "0x1.5cbb54dbb746bp-4",
        "plio_utilization": "0x1.f29cb03e75f0ap-1",
        "measure_iteration_time": "0x1.95a40e372bddep-10",
    },
    (512, 512, 2, 1, 208.3, 2, True, 1, None, False): {
        "task_times": ("0x1.19f618407f2c6p-3",),
        "makespan": "0x1.19f618407f2c6p-3",
        "iteration_times": ("0x1.758edb850b3f1p-4", "0x1.796bda53541dep-5"),
        "steady_iteration_time": "0x1.796bda53541dep-5",
        "orth_utilization": "0x1.054856436e108p-2",
        "plio_utilization": "0x1.fe79df61fcb95p-1",
        "measure_iteration_time": "0x1.796bda53541dep-5",
    },
    (512, 512, 4, 1, 208.3, 2, True, 1, None, False): {
        "task_times": ("0x1.17cdfa994ec25p-4",),
        "makespan": "0x1.17cdfa994ec25p-4",
        "iteration_times": ("0x1.723999919e38bp-5", "0x1.74347b6e369a0p-6"),
        "steady_iteration_time": "0x1.74347b6e369a0p-6",
        "orth_utilization": "0x1.4ef7f67371524p-3",
        "plio_utilization": "0x1.fce2484baa76ap-1",
        "measure_iteration_time": "0x1.74347b6e369a0p-6",
    },
    (512, 512, 8, 1, 208.3, 2, True, 1, None, False): {
        "task_times": ("0x1.1674f0ce3d8a2p-5",),
        "makespan": "0x1.1674f0ce3d8a2p-5",
        "iteration_times": ("0x1.6e8e69d89316bp-6", "0x1.6fc465ff92056p-7"),
        "steady_iteration_time": "0x1.6fc465ff92056p-7",
        "orth_utilization": "0x1.4dce6dcc397f3p-4",
        "plio_utilization": "0x1.f99241a28185ep-1",
        "measure_iteration_time": "0x1.6fc465ff92056p-7",
    },
    (128, 128, 8, 1, 450.0, 2, True, 1, None, False): {
        "task_times": ("0x1.5d3c6116a5095p-12",),
        "makespan": "0x1.5d3c6116a5095p-12",
        "iteration_times": ("0x1.baf772e818357p-13", "0x1.c86fbc2465766p-14"),
        "steady_iteration_time": "0x1.c86fbc2465766p-14",
        "orth_utilization": "0x1.868d0f2be7989p-3",
        "plio_utilization": "0x1.dd2b6a5f3315ap-1",
        "measure_iteration_time": "0x1.c86fbc2465766p-14",
    },
    (128, 128, 8, 1, 450.0, 2, False, 1, None, False): {
        "task_times": ("0x1.74fe7b812a250p-12",),
        "makespan": "0x1.74fe7b812a250p-12",
        "iteration_times": ("0x1.bead7ee0f1660p-13", "0x1.13bc12e73cf29p-13"),
        "steady_iteration_time": "0x1.13bc12e73cf29p-13",
        "orth_utilization": "0x1.08580966178b8p-2",
        "plio_utilization": "0x1.bec69be92d38bp-1",
        "measure_iteration_time": "0x1.13bc12e73cf29p-13",
    },
    (64, 64, 4, 3, 208.3, None, True, 5, None, False): {
        "task_times": (
            "0x1.9ac0e8f4fe5e3p-11", "0x1.9ac0e8f4fe5e3p-11", "0x1.9ac0e8f4fe5e3p-11",
            "0x1.9ac0e8f4fe697p-11", "0x1.9ac0e8f4fe697p-11",
        ),
        "makespan": "0x1.9ac0e8f4fe63dp-10",
        "iteration_times": (
            "0x1.40ae235a38629p-13", "0x1.4c12c545637f0p-14", "0x1.4c12c54563732p-14",
            "0x1.4c12c54563700p-14", "0x1.4c12c54563700p-14", "0x1.4c12c5456382cp-14",
            "0x1.4c12c545638e0p-14", "0x1.4c12c545638e0p-14", "0x1.4c12c545638e0p-14",
        ),
        "steady_iteration_time": "0x1.4c12c545637f0p-14",
        "orth_utilization": "0x1.c9a0c20793a2ep-3",
        "plio_utilization": "0x1.a287503f70bf7p-1",
        "measure_iteration_time": "0x1.4c12c545637f0p-14",
    },
    (128, 128, 4, 1, 208.3, 2, True, 1, 3, False): {
        "task_times": ("0x1.78aa57eddb135p-10",),
        "makespan": "0x1.78aa57eddb135p-10",
        "iteration_times": ("0x1.e87607f760a21p-11", "0x1.f186edb5d2d3ap-12"),
        "steady_iteration_time": "0x1.f186edb5d2d3ap-12",
        "orth_utilization": "0x1.a4c895e60ecb2p-3",
        "plio_utilization": "0x1.f2e973c0f7397p-1",
        "measure_iteration_time": "0x1.f186edb5d2d3ap-12",
    },
    (128, 128, 8, 1, 208.3, 2, True, 1, None, True): {
        "task_times": ("0x1.74d1f0ad016edp-11",),
        "makespan": "0x1.74d1f0ad016edp-11",
        "iteration_times": ("0x1.d9b3041853e6bp-12", "0x1.e377c60a13e14p-13"),
        "steady_iteration_time": "0x1.e377c60a13e14p-13",
        "orth_utilization": "0x1.721f178defd4ep-4",
        "plio_utilization": "0x1.e2d2009d73f3fp-1",
        "measure_iteration_time": "0x1.e377c60a13e14p-13",
    },
}

#: (m, n, P_eng, fixed_iterations, use_codesign, arithmetic, seed) ->
#: sweep count, ``float.hex`` makespan, kernel events and ``float.hex``
#: singular values.
COSIM_GOLDEN = {
    (32, 16, 4, None, True, "float64", 7): {
        "iterations": 5,
        "makespan": "0x1.5777e9c79f4ecp-15",
        "kernel_events": 210,
        "sigma": (
            "0x1.014cdaed5c728p+3", "0x1.f17236118fcc2p+2", "0x1.d8af960ff2fe7p+2",
            "0x1.b943ccef6fea2p+2", "0x1.ae4eb439a6a50p+2", "0x1.7af85467c081fp+2",
            "0x1.6a38bd977fa86p+2", "0x1.2e876cc55176dp+2", "0x1.21388c1e5e886p+2",
            "0x1.08bb7f624bb87p+2", "0x1.05f1765114b63p+2", "0x1.c9b2433dcf4fbp+1",
            "0x1.b19574db3ce3fp+1", "0x1.83bc4e262709ap+1", "0x1.2545c76871532p+1",
            "0x1.ba4927f80daecp+0",
        ),
    },
    (24, 24, 3, 3, False, "float32", 11): {
        "iterations": 3,
        "makespan": "0x1.6aa9a20666188p-15",
        "kernel_events": 420,
        "sigma": (
            "0x1.0dbf2a0000000p+3", "0x1.f455900000000p+2", "0x1.eb6b0a0000000p+2",
            "0x1.d48dce0000000p+2", "0x1.acbc520000000p+2", "0x1.80c00e0000000p+2",
            "0x1.6dbf640000000p+2", "0x1.6177400000000p+2", "0x1.371bb80000000p+2",
            "0x1.3457620000000p+2", "0x1.0ecce80000000p+2", "0x1.e53fa40000000p+1",
            "0x1.d449ec0000000p+1", "0x1.9ea1660000000p+1", "0x1.7a5fca0000000p+1",
            "0x1.37118a0000000p+1", "0x1.3309f40000000p+1", "0x1.14abf00000000p+1",
            "0x1.f54e060000000p+0", "0x1.2b72020000000p+0", "0x1.177bcc0000000p+0",
            "0x1.d462320000000p-1", "0x1.1351500000000p-1", "0x1.65662c0000000p-2",
        ),
    },
}


def _simulator(key):
    m, n, p_eng, p_task, f_mhz, iterations, codesign, _, slowed, placed = key
    config = HeteroSVDConfig(
        m=m, n=n, p_eng=p_eng, p_task=p_task,
        pl_frequency_hz=mhz(f_mhz), fixed_iterations=iterations,
        use_codesign=codesign,
    )
    return TimingSimulator(
        config,
        placement=place(config) if placed else None,
        layer_slowdown={slowed: 2.0} if slowed is not None else None,
    )


@pytest.mark.parametrize("key", list(SIM_GOLDEN))
def test_simulation_is_bit_identical(key):
    golden = SIM_GOLDEN[key]
    result = _simulator(key).simulate(key[7])
    assert tuple(t.hex() for t in result.task_times) == golden["task_times"]
    assert tuple(
        t.hex() for t in result.iteration_times
    ) == golden["iteration_times"]
    for name in (
        "makespan", "steady_iteration_time", "orth_utilization",
        "plio_utilization",
    ):
        assert getattr(result, name).hex() == golden[name], name


@pytest.mark.parametrize("key", list(SIM_GOLDEN))
def test_measured_iteration_time_is_bit_identical(key):
    measured = _simulator(key).measure_iteration_time()
    assert measured.hex() == SIM_GOLDEN[key]["measure_iteration_time"]


@pytest.mark.parametrize("key", list(COSIM_GOLDEN))
def test_cosimulation_is_bit_identical(key):
    m, n, p_eng, iterations, codesign, arithmetic, seed = key
    golden = COSIM_GOLDEN[key]
    config = HeteroSVDConfig(
        m=m, n=n, p_eng=p_eng, p_task=1, fixed_iterations=iterations,
        use_codesign=codesign, arithmetic=arithmetic,
    )
    matrix = np.random.default_rng(seed).standard_normal((m, n))
    result = CoSimulator(config).run(matrix)
    assert result.iterations == golden["iterations"]
    assert result.makespan.hex() == golden["makespan"]
    assert result.kernel_events == golden["kernel_events"]
    assert tuple(float(s).hex() for s in result.sigma) == golden["sigma"]
