"""Tests for the differential correctness harness (``repro.validation``).

``test_cell`` runs every cell of the battery, one case each: the same
cells ``python -m repro.validation`` runs.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import validation
from repro.linalg.reference import singular_value_error
from repro.validation import (
    CONTRACTS,
    INPUT_CLASSES,
    Cell,
    cell_input,
    cells,
    factor,
    measure,
    run_cell,
)
from repro.workloads.matrices import random_matrix

REPO_ROOT = Path(__file__).resolve().parents[1]
CELLS = cells()


@pytest.mark.parametrize("cell", CELLS, ids=[c.name for c in CELLS])
def test_cell(cell):
    result = run_cell(cell)
    assert result.passed, result.failures


@given(
    solver=st.sampled_from(sorted(CONTRACTS)),
    m=st.integers(min_value=2, max_value=10),
    n=st.integers(min_value=2, max_value=10),
    exponent=st.integers(min_value=-300, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_drawn_matrix_meets_its_contract(solver, m, n, exponent, seed):
    if "wide" not in CONTRACTS[solver].classes:
        m, n = max(m, n), min(m, n)
    a = random_matrix(m, n, seed=seed) * 10.0 ** exponent
    [factors] = factor(solver, [a])
    _, failures = measure(solver, a, *factors)
    assert not failures


class TestBattery:
    def test_parent_cases_remain_cells_for_every_solver(self):
        covered = {(c.solver, c.input_class) for c in CELLS}
        for solver in CONTRACTS:
            for case in ("gaussian", "ill-conditioned", "rank-deficient",
                         "tall", "tiny-scale"):
                assert (solver, case) in covered

    def test_every_accepted_class_is_a_cell(self):
        for solver, contract in CONTRACTS.items():
            assert set(contract.classes) <= set(INPUT_CLASSES)
            assert {
                c.input_class for c in CELLS if c.solver == solver
            } == set(contract.classes)

    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_jacobi_methods_cover_stacked_runs(self, method):
        runs = {c.tasks for c in CELLS if c.solver == method}
        assert runs == {1, 3}

    @pytest.mark.parametrize("solver", ["accelerator", "cosim"])
    def test_hardware_models_take_real_tall_inputs(self, solver):
        for cell in (c for c in CELLS if c.solver == solver):
            [a] = cell_input(cell)
            assert not np.iscomplexobj(a)
            assert a.shape[0] >= a.shape[1]

    def test_input_classes_are_what_they_say(self):
        def build(name):
            return cell_input(Cell("hestenes", name))[0]

        s = np.linalg.svd(build("ill-conditioned"), compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(1e10, rel=1e-3)
        assert np.linalg.matrix_rank(build("rank-deficient")) == 4
        assert np.count_nonzero(
            ~build("zero-columns").any(axis=0)
        ) == 4
        assert build("large-tall").shape == (2048, 16)
        assert build("wide").shape == (16, 32)
        assert np.iscomplexobj(build("complex"))
        assert build("float32").dtype == np.float32
        assert np.max(np.abs(build("scaled-1e+300"))) > 1e300
        assert np.max(np.abs(build("scaled-1e-300"))) < 1e-299

    def test_reference_runs_in_double_precision(self):
        # A float32 input is compared with LAPACK at float64 on the
        # same values, not charged a float32 reference's own error.
        a = random_matrix(8, 8, seed=3).astype(np.float32)
        s = np.linalg.svd(a.astype(np.float64), compute_uv=False)
        assert singular_value_error(a, s) == 0.0


class TestBrokenSolversFail:
    """A solver whose output is wrong in kind must fail its cell."""

    @pytest.fixture
    def exact(self):
        a = random_matrix(8, 8, seed=1)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        return a, u, s, vt.T

    def test_exact_factors_pass(self, exact):
        _, failures = measure("hestenes", *exact)
        assert failures == []

    def test_nan_singular_values_fail(self, exact):
        a, u, s, v = exact
        s = s.copy()
        s[3] = np.nan
        errors, failures = measure("hestenes", a, u, s, v)
        assert np.isnan(errors["sigma"])
        assert failures

    def test_too_few_singular_values_fail(self, exact):
        a, u, s, v = exact
        _, failures = measure("hestenes", a, u[:, :2], s[:2], v[:, :2])
        assert any("2 singular values" in f for f in failures)

    def test_unordered_singular_values_fail(self, exact):
        a, u, s, v = exact
        _, failures = measure("hestenes", a, u[:, ::-1], s[::-1], v[:, ::-1])
        assert any("descending" in f for f in failures)

    def test_spectrum_error_counts_the_values(self, exact):
        a, _, s, _ = exact
        assert singular_value_error(a, s[:2]) == float("inf")
        assert not singular_value_error(a, s[:2]) < 1e-6

    def test_spectrum_error_propagates_nan(self, exact):
        a, _, s, _ = exact
        assert np.isnan(singular_value_error(a, np.full_like(s, np.nan)))

    def test_self_test_exits_1_on_a_nan_solver(self, monkeypatch, capsys):
        def nan_factor(solver, matrices):
            return [
                (np.eye(*a.shape), np.full(min(a.shape), np.nan),
                 np.eye(a.shape[1], min(a.shape)))
                for a in matrices
            ]

        monkeypatch.setattr(
            validation, "cells",
            lambda: [Cell("hestenes", "gaussian")],
        )
        monkeypatch.setattr(validation, "factor", nan_factor)
        assert validation.main() == 1
        out = capsys.readouterr().out
        assert "FAIL hestenes/gaussian/T=1" in out
        assert "1 cells checked, 1 failed" in out


class TestSelfTest:
    def test_one_row_per_solver_and_the_cell_count(self, monkeypatch,
                                                   capsys):
        # One gaussian cell per solver keeps this quick; test_cell runs
        # the whole battery.
        subset = [c for c in CELLS
                  if c.input_class == "gaussian" and c.tasks == 1]
        monkeypatch.setattr(validation, "cells", lambda: subset)
        assert validation.main() == 0
        out = capsys.readouterr().out
        rows = [line.split("|")[0].strip() for line in out.splitlines()
                if line.split("|")[0].strip() in CONTRACTS]
        assert rows == list(CONTRACTS)
        assert f"{len(subset)} cells checked, 0 failed" in out

    def test_cli_validate_runs_the_harness(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr(
            validation, "cells",
            lambda: [Cell("block", "tall")],
        )
        assert main(["validate"]) == 0
        assert "1 cells checked, 0 failed" in capsys.readouterr().out


class TestDocumentedContracts:
    """docs/workloads.md's contract table is CONTRACTS."""

    def _table(self):
        text = (REPO_ROOT / "docs" / "workloads.md").read_text()
        rows = re.findall(
            r"^\| `(\w+)` \| ([\d.e+-]+) \| ([\d.e+-]+) \| "
            r"([\d.e+-]+|-) \| (\d+) \|",
            text, flags=re.MULTILINE,
        )
        assert rows, "contract table not found in docs/workloads.md"
        return {
            name: tuple(None if x == "-" else float(x) for x in values[:3])
            + (int(values[3]),)
            for name, *values in rows
        }

    def test_table_matches_contracts(self):
        documented = self._table()
        assert list(documented) == list(CONTRACTS)
        for solver, contract in CONTRACTS.items():
            assert documented[solver] == (
                contract.sigma, contract.orthogonality,
                contract.reconstruction, len(contract.classes),
            ), solver

    def test_docs_name_the_measuring_command(self):
        text = (REPO_ROOT / "docs" / "workloads.md").read_text()
        assert "python -m repro.validation" in text
