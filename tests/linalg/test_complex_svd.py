"""Unit tests for complex-matrix SVD via the real embedding."""

import numpy as np
import pytest

from repro.linalg.svd import svd


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestComplexSVD:
    @pytest.mark.parametrize("shape", [(6, 6), (10, 4), (4, 10), (7, 5)])
    def test_reconstruction(self, rng, shape):
        z = random_complex(rng, shape)
        result = svd(z, precision=1e-10)
        err = np.linalg.norm(z - result.reconstruct()) / np.linalg.norm(z)
        assert err < 1e-8

    def test_factor_count_is_min_dim(self, rng):
        z = random_complex(rng, (9, 5))
        result = svd(z, precision=1e-10)
        assert result.u.shape == (9, 5)
        assert result.v.shape == (5, 5)
        assert len(result.singular_values) == 5

    def test_unitary_factors(self, rng):
        z = random_complex(rng, (8, 8))
        result = svd(z, precision=1e-10)
        eye = np.eye(8)
        assert np.allclose(np.conj(result.u).T @ result.u, eye, atol=1e-8)
        assert np.allclose(np.conj(result.v).T @ result.v, eye, atol=1e-8)

    def test_factors_are_complex(self, rng):
        z = random_complex(rng, (4, 4))
        result = svd(z)
        assert np.iscomplexobj(result.u)
        assert np.iscomplexobj(result.v)
        assert not np.iscomplexobj(result.singular_values)

    def test_real_valued_complex_matrix(self, rng):
        a = rng.standard_normal((6, 4))
        result = svd(a.astype(complex), precision=1e-10)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.singular_values, s_ref, rtol=1e-8)

    def test_block_method_works_too(self, rng):
        z = random_complex(rng, (12, 8))
        result = svd(z, method="block", block_width=4, precision=1e-9)
        s_ref = np.linalg.svd(z, compute_uv=False)
        assert np.allclose(result.singular_values, s_ref, rtol=1e-6)

    def test_mimo_channel_roundtrip(self, rng):
        # The use case: factor a complex channel directly.
        h = random_complex(rng, (8, 8)) / np.sqrt(2)
        result = svd(h, precision=1e-10)
        # Beamformed channel U^H H V is diagonal.
        effective = np.conj(result.u).T @ h @ result.v
        off = effective - np.diag(np.diag(effective))
        assert np.max(np.abs(off)) < 1e-8 * result.singular_values[0]
