"""Adversarial inputs against every public solver entry point.

The contract under test (ISSUE 5, satellite 3): NaN, ±Inf, all-zero
columns, 1e±300 scalings and float32 denormals either raise a
structured :class:`~repro.errors.InputValidationError` or converge
(with pre-scaling) to finite, correct singular values — **never**
silent NaN output.
"""

import numpy as np
import pytest

from repro.errors import InputValidationError


def nan_matrix(n=12):
    a = np.eye(n)
    a[1, 2] = np.nan
    return a


def inf_matrix(n=12, sign=1.0):
    a = np.eye(n)
    a[0, 1] = sign * np.inf
    return a


ADVERSARIAL_NONFINITE = [
    pytest.param(nan_matrix(), id="nan"),
    pytest.param(inf_matrix(sign=1.0), id="+inf"),
    pytest.param(inf_matrix(sign=-1.0), id="-inf"),
]


def make_rng_matrix(n=12, scale=1.0, dtype=float, seed=7):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)) * scale).astype(dtype)


class TestLibraryEntryPoints:
    @pytest.mark.parametrize("bad", ADVERSARIAL_NONFINITE)
    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_svd_rejects_non_finite(self, bad, method):
        from repro.linalg.svd import svd

        kwargs = {"block_width": 4} if method == "block" else {}
        with pytest.raises(InputValidationError) as excinfo:
            svd(bad, method=method, **kwargs)
        assert excinfo.value.reason == "non-finite"

    @pytest.mark.parametrize("bad", ADVERSARIAL_NONFINITE)
    def test_hestenes_rejects_non_finite(self, bad):
        from repro.linalg.hestenes import hestenes_svd

        with pytest.raises(InputValidationError):
            hestenes_svd(bad)

    @pytest.mark.parametrize("bad", ADVERSARIAL_NONFINITE)
    def test_solve_batch_rejects_non_finite(self, bad):
        from repro.workloads.batch import TaskBatch, solve_batch

        n = bad.shape[0]
        batch = TaskBatch(m=n, n=n, matrices=[np.eye(n), bad])
        with pytest.raises(InputValidationError):
            solve_batch(batch)

    @pytest.mark.parametrize("bad", ADVERSARIAL_NONFINITE)
    def test_batch_executor_rejects_non_finite(self, bad):
        from repro.core.config import HeteroSVDConfig
        from repro.exec.batch import BatchExecutor
        from repro.workloads.batch import TaskBatch

        n = bad.shape[0]
        config = HeteroSVDConfig(m=n, n=n, p_eng=4, p_task=1,
                                 precision=1e-4)
        executor = BatchExecutor(config, engine="software", jobs=1,
                                 degrade=False)
        batch = TaskBatch(m=n, n=n, matrices=[bad])
        with pytest.raises(InputValidationError):
            executor.run(batch)

    def test_complex_path_rejects_non_finite(self):
        from repro.linalg.svd import svd

        a = np.eye(8, dtype=complex)
        a[2, 2] = complex(0.0, np.inf)
        with pytest.raises(InputValidationError):
            svd(a)


class TestZeroColumns:
    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_zero_columns_converge_with_zero_singular_values(self, method):
        from repro.linalg.svd import svd

        a = make_rng_matrix(12)
        a[:, 3] = 0.0
        a[:, 7] = 0.0
        kwargs = {"block_width": 4} if method == "block" else {}
        result = svd(a, method=method, **kwargs)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.all(np.isfinite(result.singular_values))
        assert np.allclose(result.singular_values, s_ref, atol=1e-8)

    def test_all_zero_matrix(self):
        from repro.linalg.svd import svd

        result = svd(np.zeros((8, 8)))
        assert np.all(result.singular_values == 0.0)


class TestExtremeScales:
    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_extreme_scaling_converges_exactly(self, scale, method):
        from repro.linalg.svd import svd

        a = make_rng_matrix(12, scale=scale)
        kwargs = {"block_width": 4} if method == "block" else {}
        result = svd(a, method=method, **kwargs)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.all(np.isfinite(result.singular_values))
        assert not np.any(np.isnan(result.singular_values))
        assert np.allclose(result.singular_values, s_ref, rtol=1e-8)

    def test_extreme_scaling_without_prescale_still_no_silent_nan(self):
        """prescale=False relies on the hypot-rescaled rotation
        kernels alone; the result must still be finite."""
        from repro.linalg.svd import svd

        a = make_rng_matrix(8, scale=1e300)
        with np.errstate(over="ignore"):  # overflow is the point
            result = svd(a, prescale=False)
        assert not np.any(np.isnan(result.singular_values))

    def test_mixed_scale_columns(self):
        # Condition ~1e300: beyond any double-precision SVD's relative
        # accuracy for the small values, so the contract here is
        # finite output and a correct dominant singular value.
        from repro.linalg.svd import svd

        a = make_rng_matrix(8)
        a[:, 0] *= 1e150
        a[:, 1] *= 1e-150
        result = svd(a)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.all(np.isfinite(result.singular_values))
        assert result.singular_values[0] == pytest.approx(
            s_ref[0], rel=1e-8
        )


class TestFloat32Denormals:
    def test_denormal_float32_input_solves_finite(self):
        from repro.guard import validate_matrix
        from repro.linalg.svd import svd

        a = make_rng_matrix(8, dtype=np.float32)
        a[0, 1] = np.float32(1e-40)  # denormal in float32
        assert validate_matrix(a).denormals
        result = svd(a)
        s_ref = np.linalg.svd(a.astype(float), compute_uv=False)
        assert np.all(np.isfinite(result.singular_values))
        assert np.allclose(result.singular_values, s_ref, rtol=1e-6)


class TestCliEntryPoint:
    def test_cli_rejects_nan_input_with_exit_4(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "nan.npy"
        np.save(path, nan_matrix())
        assert main(["svd", "--input", str(path)]) == 4
        err = capsys.readouterr().err
        assert "invalid input" in err
        assert "non-finite" in err

    def test_cli_no_validate_opts_out(self, tmp_path):
        from repro.cli import main
        from repro.errors import NumericalError

        # Opting out skips the guard (no exit 4), but the accelerator
        # model's own non-finite check still refuses to emit NaN
        # singular values — there is no silent-NaN path.
        path = tmp_path / "nan.npy"
        np.save(path, nan_matrix())
        with pytest.raises(NumericalError, match="non-finite"):
            main(["svd", "--input", str(path), "--no-validate"])
