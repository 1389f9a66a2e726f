"""One differential correctness harness: every solver against LAPACK.

:data:`CONTRACTS` states each solver's accuracy contract, once.
:func:`cells` lists the battery that enforces it: input class x solver
x strategy x T (tasks per run).  A cell factors its input(s) at
:data:`PRECISION` and compares every result with LAPACK at
float64 (complex128) on the same values, through the error measures of
:mod:`repro.linalg.reference`:

* the normwise spectrum error ``max|s - s_ref| / s_ref[0]``;
* the U/V orthogonality error, over the columns whose reference
  singular value is above the rank floor (the one-sided Jacobi methods
  leave unit-norm but non-orthogonal columns in the null space);
* the relative reconstruction error ``||A - U S V^H||_F / ||A||_F``.

A cell also fails when a solver returns other than ``min(m, n)``
singular values, returns them out of order or negative, or when any
error is not finite.  ``python -m repro.validation`` (``heterosvd
validate``) runs every cell and prints one row per solver;
``tests/test_validation.py`` runs the same cells, one test case each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.accelerator import HeteroSVDAccelerator
from repro.core.config import HeteroSVDConfig
from repro.core.cosim import CoSimulator
from repro.linalg.reference import (
    orthogonality_error,
    reconstruction_error,
    reference_singular_values,
    singular_value_error,
)
from repro.linalg.svd import JACOBI_METHODS, svd
from repro.workloads.batch import TaskBatch, solve_batch
from repro.workloads.matrices import (
    conditioned_matrix,
    low_rank_matrix,
    random_matrix,
)

__all__ = [
    "SIZE",
    "PRECISION",
    "INPUT_CLASSES",
    "Contract",
    "MEASURES",
    "CONTRACTS",
    "Cell",
    "CellResult",
    "cells",
    "cell_input",
    "factor",
    "measure",
    "run_cell",
    "run_validation",
    "main",
]

#: Side of the battery's inputs (tall and wide double one side).
SIZE = 16
#: Convergence threshold (Eq. 6) every cell runs at.  At the default
#: 1e-6 the stopping rule, not the arithmetic, would set the Jacobi
#: methods' U orthogonality.
PRECISION = 1e-10


def _scaled(factor: float) -> Callable[[int, int], np.ndarray]:
    return lambda size, seed: factor * random_matrix(size, size, seed=seed)


def _zero_columns(size: int, seed: int) -> np.ndarray:
    a = random_matrix(size, size, seed=seed)
    a[:, ::4] = 0.0
    return a


def _complex(size: int, seed: int) -> np.ndarray:
    cols = 3 * size // 4
    return random_matrix(size, cols, seed=seed) + 1j * random_matrix(
        size, cols, seed=seed + 1
    )


#: Input class name -> builder ``(size, seed) -> matrix``.
INPUT_CLASSES: Dict[str, Callable[[int, int], np.ndarray]] = {
    "gaussian": _scaled(1.0),
    "ill-conditioned": lambda size, seed: conditioned_matrix(
        size, size, condition=1e10, seed=seed
    ),
    "rank-deficient": lambda size, seed: low_rank_matrix(
        size, size, rank=size // 4, seed=seed
    ),
    "zero-columns": _zero_columns,
    # Column scales 1 ... 1e-8: the case the Jacobi methods' norm-sorted
    # QR preconditioner is built for.
    "graded": lambda size, seed: random_matrix(
        size, size, seed=seed
    ) * np.logspace(0, -8, size),
    "tall": lambda size, seed: random_matrix(2 * size, size, seed=seed + 1),
    # 2048 x 16 at the battery's size: the longest column one AIE bank
    # holds, so the hardware models take it too.
    "large-tall": lambda size, seed: random_matrix(
        128 * size, size, seed=seed + 1
    ),
    "wide": lambda size, seed: random_matrix(size, 2 * size, seed=seed + 1),
    "complex": _complex,
    "float32": lambda size, seed: random_matrix(
        size, size, seed=seed
    ).astype(np.float32),
    "tiny-scale": _scaled(1e-150),
    "scaled-1e+300": _scaled(1e300),
    "scaled-1e-300": _scaled(1e-300),
}

#: The classes every solver takes.
_ALL = tuple(INPUT_CLASSES)
#: The hardware models (the rest are ``svd(method=...)``).
_HARDWARE = ("accelerator", "cosim")
#: Real ``m >= n`` classes: the accelerator's task shape.
_REAL_TALL = tuple(c for c in _ALL if c not in ("wide", "complex"))


@dataclass(frozen=True)
class Contract:
    """One solver's accuracy contract against LAPACK.

    Attributes:
        sigma: Bound on ``max|s - s_ref| / s_ref[0]``.
        orthogonality: Bound on ``max|Q^H Q - I|`` for ``Q`` = U and V
            (U alone when the solver returns no V) over the columns
            above the rank floor.
        reconstruction: Bound on ``||A - U S V^H||_F / ||A||_F``; None
            when the solver returns no V.
        classes: The input classes the solver accepts.
    """

    sigma: float
    orthogonality: float
    reconstruction: Optional[float]
    classes: Tuple[str, ...]


#: The error measures, named as the :class:`Contract` fields bounding them.
MEASURES = ("sigma", "orthogonality", "reconstruction")

#: Each solver's contract; measured by ``python -m repro.validation``
#: and quoted in docs/workloads.md.  ``accelerator`` is
#: :meth:`HeteroSVDAccelerator.run`, ``cosim`` :meth:`CoSimulator.run`
#: (U and singular values only); the rest are ``svd(method=...)``.
CONTRACTS: Dict[str, Contract] = {
    "hestenes": Contract(1e-12, 1e-8, 1e-8, _ALL),
    "block": Contract(1e-12, 1e-8, 1e-8, _ALL),
    "dnc": Contract(1e-12, 1e-8, 1e-8, _ALL),
    "streaming": Contract(1e-12, 1e-10, 1e-10, _ALL),
    "accelerator": Contract(1e-12, 1e-9, 1e-13, _REAL_TALL),
    "cosim": Contract(1e-12, 1e-9, None, _REAL_TALL),
}


@dataclass(frozen=True)
class Cell:
    """One check of the battery.

    Attributes:
        solver: A :data:`CONTRACTS` key.
        input_class: An :data:`INPUT_CLASSES` key.
        strategy: The Jacobi round kernel (``svd(strategy=...)``);
            ``"auto"`` for the reduction methods, ``"-"`` for the
            hardware models, which run their own.
        tasks: Matrices per run; above 1 they run as one stacked
            :func:`~repro.workloads.batch.solve_batch` call.
    """

    solver: str
    input_class: str
    strategy: str
    tasks: int = 1

    @property
    def name(self) -> str:
        """``solver/input_class/strategy/T=tasks``, the test id."""
        return (
            f"{self.solver}/{self.input_class}/{self.strategy}/"
            f"T={self.tasks}"
        )


@dataclass(frozen=True)
class CellResult:
    """The measured errors of one cell.

    Attributes:
        cell: The cell.
        errors: The worst error over the cell's tasks, for each measure
            of :data:`MEASURES` the solver's contract bounds.
        failures: Why the cell failed; empty when it passed.
    """

    cell: Cell
    errors: Dict[str, float]
    failures: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        """Whether every check of the cell held."""
        return not self.failures


def _strategies(solver: str) -> Tuple[str, ...]:
    if solver in _HARDWARE:
        return ("-",)
    if solver not in JACOBI_METHODS:
        return ("auto",)
    return ("scalar", "vectorized")


def cells() -> List[Cell]:
    """The battery: input class x solver x strategy x T."""
    return [
        Cell(solver, input_class, strategy, tasks)
        for solver, contract in CONTRACTS.items()
        for input_class in contract.classes
        for strategy in _strategies(solver)
        for tasks in ((1, 3) if solver in JACOBI_METHODS else (1,))
    ]


def cell_input(cell: Cell) -> List[np.ndarray]:
    """The cell's ``tasks`` matrices, of seeds 0, 1, ..."""
    build = INPUT_CLASSES[cell.input_class]
    return [build(SIZE, seed) for seed in range(cell.tasks)]


def _p_eng(n: int) -> int:
    """The widest engine (up to the battery's 4) that tiles ``n``."""
    return next(p for p in (4, 2, 1) if n % p == 0 and n // p >= 2)


def factor(
    solver: str, matrices: Sequence[np.ndarray], strategy: str = "auto"
) -> List[tuple]:
    """Factor ``matrices`` with one solver, one ``(u, s, v)`` each.

    ``v`` is None for the co-simulator, which returns U and the
    singular values only.  More than one matrix of a Jacobi method runs
    as one stacked :func:`~repro.workloads.batch.solve_batch` call.
    """
    if solver in _HARDWARE:
        out = []
        for a in matrices:
            m, n = a.shape
            config = HeteroSVDConfig(
                m=m, n=n, p_eng=_p_eng(n), precision=PRECISION
            )
            if solver == "accelerator":
                r = HeteroSVDAccelerator(config).run(a, accumulate_v=True)
                out.append((r.u, r.sigma, r.v))
            else:
                r = CoSimulator(config).run(a)
                out.append((r.u, r.sigma, None))
        return out
    if len(matrices) == 1:
        results = [svd(
            matrices[0], method=solver, strategy=strategy,
            precision=PRECISION,
        )]
    else:
        m, n = matrices[0].shape
        results = solve_batch(
            TaskBatch(m, n, list(matrices)), strategy=strategy,
            method=solver, precision=PRECISION,
        )
    return [(r.u, r.singular_values, r.v) for r in results]


def _worst(values: Sequence[float]) -> float:
    """The maximum, NaN when any value is NaN."""
    return float(np.max(values))


def measure(
    solver: str, a: np.ndarray, u: np.ndarray, s: np.ndarray,
    v: Optional[np.ndarray],
) -> Tuple[Dict[str, float], List[str]]:
    """Check one factorization of ``a`` against ``solver``'s contract.

    Returns:
        The error of each measure the contract bounds (keyed as in
        :data:`MEASURES`), and why the check failed (empty on a pass).
    """
    contract = CONTRACTS[solver]
    failures = []
    s = np.asarray(s)
    if s.shape != (min(a.shape),):
        failures.append(f"{s.size} singular values for a {a.shape} input")
    elif not (np.all(s >= 0) and np.all(s[:-1] >= s[1:])):
        failures.append("singular values not non-negative and descending")

    s_ref = reference_singular_values(a)
    floor = max(a.shape) * np.finfo(float).eps * s_ref[0]
    rank = int(np.count_nonzero(s_ref > floor))
    errors = {
        "sigma": singular_value_error(a, s),
        "orthogonality": _worst([
            orthogonality_error(q[:, :rank]) for q in (u, v) if q is not None
        ]),
    }
    if contract.reconstruction is not None:
        errors["reconstruction"] = reconstruction_error(a, u, s, v)
    for name, error in errors.items():
        bound = getattr(contract, name)
        # Written so that a NaN error fails too.
        if not error <= bound:
            failures.append(f"{name} error {error:.2e} above {bound:.0e}")
    return errors, failures


def run_cell(cell: Cell) -> CellResult:
    """Factor the cell's input(s) and check every result."""
    matrices = cell_input(cell)
    errors: Dict[str, float] = {}
    failures: List[str] = []
    for t, (a, factors) in enumerate(
        zip(matrices, factor(cell.solver, matrices, cell.strategy))
    ):
        task_errors, task_failures = measure(cell.solver, a, *factors)
        for name, error in task_errors.items():
            errors[name] = _worst([errors.get(name, 0.0), error])
        failures += [
            f"task {t}: {failure}" if cell.tasks > 1 else failure
            for failure in task_failures
        ]
    return CellResult(cell, errors, tuple(failures))


def run_validation() -> List[CellResult]:
    """Run every cell of the battery; one result per cell."""
    return [run_cell(cell) for cell in cells()]


def main() -> int:
    """CLI self-test entry point: ``python -m repro.validation``."""
    from repro.reporting.tables import Table

    results = run_validation()
    table = Table(
        f"Differential validation against LAPACK (n={SIZE}, "
        f"{len(results)} cells)",
        ["solver", "cells", "sigma err", "bound", "orthogonality",
         "bound", "reconstruction", "bound", "status"],
    )
    for solver, contract in CONTRACTS.items():
        mine = [r for r in results if r.cell.solver == solver]
        if not mine:
            continue
        row = [solver, len(mine)]
        for name in MEASURES:
            bound = getattr(contract, name)
            row += ["-", "-"] if bound is None else [
                f"{_worst([r.errors[name] for r in mine]):.2e}",
                f"{bound:.0e}",
            ]
        row.append("PASS" if all(r.passed for r in mine) else "FAIL")
        table.add_row(*row)
    table.print()
    failed = [r for r in results if not r.passed]
    for result in failed:
        print(f"FAIL {result.cell.name}: {'; '.join(result.failures)}")
    print(f"{len(results)} cells checked, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
