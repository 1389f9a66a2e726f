"""HeteroSVD micro-architecture configuration (paper Table I).

First-order parameters — engine parallelism ``P_eng``, task parallelism
``P_task``, and the PL clock — determine everything else:

==============================  =======================================
second-order parameter          value (per Table I)
==============================  =======================================
orth-AIEs                       ``P_eng (2 P_eng - 1)`` per task
norm-AIEs                       ``P_eng`` per task
mem-AIEs                        determined after placement
PLIOs                           6 per task (4 orth + 2 norm)
==============================  =======================================

``P_eng`` equals the column-block width ``k``: a block pair carries
``2k`` columns, and its shifting-ring sweep needs ``2k - 1`` layers of
``k`` orth-AIEs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.linalg.convergence import DEFAULT_PRECISION
from repro.units import mhz
from repro.versal.device import DeviceSpec, VCK190
from repro.versal.plio import PLIOS_PER_TASK

#: Parameter ranges explored by the paper's DSE (Table I).
P_ENG_RANGE = range(1, 12)
P_TASK_RANGE = range(1, 27)


@dataclass(frozen=True)
class HeteroSVDConfig:
    """A complete HeteroSVD design point for one problem size.

    Attributes:
        m: Matrix row count.
        n: Matrix column count (must be divisible by ``2 * p_eng`` so
           blocks tile the matrix evenly).
        p_eng: AIE-level parallelism (block width ``k``).
        p_task: Task-level parallelism (independent task pipelines).
        pl_frequency_hz: PL clock.
        precision: Convergence threshold (Eq. 6).
        fixed_iterations: Fixed sweep count for benchmarking mode, or
            None for precision-driven termination.
        use_codesign: Shifting-ring ordering + relocated dataflow (the
            paper's method) versus the traditional ring baseline.
        arithmetic: Numeric type of the functional simulation:
            ``"float32"`` matches the AIE vector datapath; ``"float64"``
            (default) is the numerical-reference mode.
        device: Target device description.
    """

    m: int
    n: int
    p_eng: int = 8
    p_task: int = 1
    pl_frequency_hz: float = mhz(208.3)
    precision: float = DEFAULT_PRECISION
    fixed_iterations: Optional[int] = None
    use_codesign: bool = True
    arithmetic: str = "float64"
    device: DeviceSpec = field(default=VCK190)

    def __post_init__(self):
        if self.m < 1 or self.n < 2:
            raise ConfigurationError(
                f"matrix must be at least 1x2, got {self.m}x{self.n}"
            )
        if self.p_eng not in P_ENG_RANGE:
            raise ConfigurationError(
                f"P_eng={self.p_eng} outside Table I range "
                f"[{P_ENG_RANGE.start}, {P_ENG_RANGE.stop - 1}]"
            )
        if self.p_task not in P_TASK_RANGE:
            raise ConfigurationError(
                f"P_task={self.p_task} outside Table I range "
                f"[{P_TASK_RANGE.start}, {P_TASK_RANGE.stop - 1}]"
            )
        if self.n % self.block_width != 0 or self.n_blocks < 2:
            raise ConfigurationError(
                f"n={self.n} must be divisible by the block width "
                f"{self.block_width} with at least two blocks"
            )
        self._check_frequency()
        if self.fixed_iterations is not None and self.fixed_iterations < 1:
            raise ConfigurationError(
                f"fixed_iterations must be >= 1, got {self.fixed_iterations}"
            )
        if not 0 < self.precision < 1:
            raise ConfigurationError(
                f"precision must be in (0, 1), got {self.precision}"
            )
        if self.arithmetic not in ("float32", "float64"):
            raise ConfigurationError(
                f"arithmetic must be 'float32' or 'float64', "
                f"got {self.arithmetic!r}"
            )
        # Each orth-AIE double-buffers two input and two output columns;
        # a column buffer must fit one memory bank (the kernels use
        # bank-local addressing), which bounds the column length.
        column_bits = self.m * 32
        if column_bits > self.device.bank_bits:
            max_m = self.device.bank_bits // 32
            raise ConfigurationError(
                f"column length {self.m} exceeds one AIE memory bank "
                f"({max_m} fp32 elements); split the matrix row-wise "
                f"before offloading"
            )

    def _check_frequency(self) -> None:
        low, high = self.device.pl_frequency_range_hz
        if not low <= self.pl_frequency_hz <= high:
            raise ConfigurationError(
                f"PL frequency {self.pl_frequency_hz / 1e6:.1f} MHz outside "
                f"achievable range [{low / 1e6:.0f}, {high / 1e6:.0f}] MHz"
            )

    # -- derived structure ---------------------------------------------------
    @property
    def block_width(self) -> int:
        """Columns per block, ``k = P_eng``."""
        return self.p_eng

    @property
    def n_blocks(self) -> int:
        """Blocks per matrix, ``p = n / k``."""
        return self.n // self.block_width

    @property
    def num_block_pairs(self) -> int:
        """Block pairs per sweep — the performance model's ``num``."""
        p = self.n_blocks
        return p * (p - 1) // 2

    @property
    def pair_cols(self) -> int:
        """Columns per block pair, ``2k``."""
        return 2 * self.p_eng

    @property
    def orth_layers(self) -> int:
        """Orth-layers per task, ``2k - 1``."""
        return 2 * self.p_eng - 1

    @property
    def orth_aies_per_task(self) -> int:
        """Orth-AIEs one task needs: ``k (2k - 1)`` (Table I)."""
        return self.p_eng * (2 * self.p_eng - 1)

    @property
    def norm_aies_per_task(self) -> int:
        """Norm-AIEs one task needs: ``k`` (Table I)."""
        return self.p_eng

    @property
    def plios_per_task(self) -> int:
        """PLIOs one task needs (4 orth + 2 norm)."""
        return PLIOS_PER_TASK

    @property
    def total_plios(self) -> int:
        """PLIO usage over all task pipelines (Table I: ``6k``)."""
        return self.plios_per_task * self.p_task

    def with_tasks(self, p_task: int) -> "HeteroSVDConfig":
        """A copy of this configuration with a different ``P_task``."""
        return replace(self, p_task=p_task)

    def with_frequency(self, pl_frequency_hz: float) -> "HeteroSVDConfig":
        """A copy of this configuration with a different PL clock."""
        return replace(self, pl_frequency_hz=pl_frequency_hz)

    def with_clock_and_ordering(
        self, pl_frequency_hz: float, use_codesign: bool
    ) -> "HeteroSVDConfig":
        """A copy at another PL clock and ring ordering.

        Checks only the clock against the device range: every other
        field is this validated configuration's, so the rest of
        ``__post_init__`` (which :func:`dataclasses.replace` would rerun)
        cannot fail.  A DSE sweep builds each of its points this way.
        """
        clone = object.__new__(HeteroSVDConfig)
        clone.__dict__.update(
            self.__dict__,
            pl_frequency_hz=pl_frequency_hz,
            use_codesign=use_codesign,
        )
        clone._check_frequency()
        return clone

    def describe(self) -> str:
        """Short human-readable summary."""
        return (
            f"{self.m}x{self.n} P_eng={self.p_eng} P_task={self.p_task} "
            f"PL={self.pl_frequency_hz / 1e6:.1f}MHz "
            f"{'codesign' if self.use_codesign else 'traditional'}"
        )
