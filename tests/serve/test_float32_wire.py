"""End-to-end float32 requests: round-trip, no cross-dtype coalescing.

A ``dtype="float32"`` request must be materialized in single precision
server-side, must never share an engine batch with float64 batchmates
(the coalescing key includes the dtype), and must answer exactly what
a local :func:`repro.linalg.svd` computes on the same float32 input.
"""

import threading

import numpy as np
import pytest

from repro.linalg import svd
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.protocol import request_key, request_matrix
from repro.workloads import random_matrix


@pytest.fixture()
def server():
    with ServerThread(ServeConfig()) as handle:
        yield handle


class TestFloat32RequestKey:
    def test_dtype_splits_the_coalescing_key(self):
        doc64 = {"shape": [16, 16], "seed": 0}
        doc32 = {"shape": [16, 16], "seed": 0, "dtype": "float32"}
        key64 = request_key(doc64, (16, 16), 4)
        key32 = request_key(doc32, (16, 16), 4)
        assert key64 != key32
        assert key32.dtype == "float32"

    def test_request_matrix_materializes_float32(self):
        matrix = random_matrix(8, 8, seed=7)
        doc = {"matrix": matrix.tolist(), "dtype": "float32"}
        materialized = request_matrix(doc)
        assert materialized.dtype == np.float32
        np.testing.assert_array_equal(
            materialized, matrix.astype(np.float32)
        )


class TestFloat32EndToEnd:
    def test_inline_float32_matches_local_svd(self, server):
        matrix = random_matrix(8, 8, seed=42)
        with ServeClient(*server.address) as client:
            response = client.decompose(
                matrix=matrix.tolist(), dtype="float32"
            )
        assert response["degraded"] is False

        local = svd(
            matrix.astype(np.float32),
            method="block", block_width=4, precision=1e-6,
        ).singular_values
        wire = np.asarray(response["sigma"], dtype=np.float64)
        assert wire.tobytes() == np.asarray(
            local, dtype=np.float64
        ).tobytes()

    def test_float32_never_coalesces_with_float64(self, server):
        # Same shape, same seed, different dtype: the keys differ, so
        # the two requests cannot land in one engine batch — and each
        # must still match its own local computation.
        responses = {}
        errors = []

        def ask(dtype):
            try:
                with ServeClient(*server.address) as client:
                    kwargs = {"shape": [16, 16], "seed": 3}
                    if dtype == "float32":
                        kwargs["dtype"] = "float32"
                    responses[dtype] = client.decompose(**kwargs)
            except Exception as error:  # surfaced after join
                errors.append(error)

        threads = [
            threading.Thread(target=ask, args=(d,))
            for d in ("float64", "float32")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        base = random_matrix(16, 16, seed=3)
        for dtype, local_input in (
            ("float64", base),
            ("float32", base.astype(np.float32)),
        ):
            local = svd(
                local_input, method="block", block_width=4,
                precision=1e-6,
            ).singular_values
            wire = np.asarray(responses[dtype]["sigma"], dtype=np.float64)
            assert wire.tobytes() == np.asarray(
                local, dtype=np.float64
            ).tobytes(), dtype

        # The answers themselves must differ: single-precision input
        # cannot reproduce the float64 spectrum bit-for-bit.
        assert (
            np.asarray(responses["float32"]["sigma"]).tobytes()
            != np.asarray(responses["float64"]["sigma"]).tobytes()
        )

        with ServeClient(*server.address) as client:
            stats = client.stats()
        # Two distinct keys can never share a batch: at least two
        # engine batches ran for the two requests.
        assert stats.get("serve.batches", 0) >= 2
