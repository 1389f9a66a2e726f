"""Wire-protocol unit tests: codecs, schemas, rejection paths."""

import numpy as np
import pytest

from repro.errors import ServeProtocolError
from repro.serve.protocol import (
    ERROR_CODES,
    CoalesceKey,
    decode_line,
    encode,
    error_response,
    request_key,
    request_matrix,
    result_response,
    validate_request,
    validate_response,
)


def _decompose(**overrides):
    doc = {"op": "decompose", "id": "r-1", "shape": [16, 16], "seed": 3}
    doc.update(overrides)
    return doc


class TestCodec:
    def test_round_trip(self):
        doc = _decompose(tenant="alpha", deadline_s=2.0)
        assert decode_line(encode(doc)) == doc

    def test_encode_is_one_line(self):
        assert encode(_decompose()).count(b"\n") == 1

    def test_non_json_line_rejected(self):
        with pytest.raises(ServeProtocolError) as excinfo:
            decode_line(b"not json at all\n")
        assert excinfo.value.code == "schema"

    def test_non_object_line_rejected(self):
        with pytest.raises(ServeProtocolError) as excinfo:
            decode_line(b"[1, 2, 3]\n")
        assert excinfo.value.code == "schema"


class TestRequestValidation:
    def test_valid_seeded_request_passes(self):
        assert validate_request(_decompose()) is not None

    def test_valid_inline_request_passes(self):
        doc = {"op": "decompose", "id": "r", "matrix": [[1.0, 2.0],
                                                        [3.0, 4.0]]}
        validate_request(doc)

    @pytest.mark.parametrize("mutate", [
        {"op": "explode"},               # unknown op
        {"id": ""},                      # empty id
        {"shape": [16]},                 # wrong rank
        {"shape": [0, 16]},              # degenerate shape
        {"shape": [16, 1]},              # too narrow
        {"deadline_s": 0},               # non-positive deadline
        {"deadline_s": -1.0},
        {"block_width": 0},
        {"strategy": "auto"},            # field gone in protocol 2
        {"strategy": "vectorized"},
        {"strategy": "scalar"},
        {"dtype": "int8"},               # unknown dtype
        {"seed": "seven"},               # wrong type
    ])
    def test_bad_fields_rejected(self, mutate):
        with pytest.raises(ServeProtocolError) as excinfo:
            validate_request(_decompose(**mutate))
        assert excinfo.value.code == "schema"

    def test_missing_id_rejected(self):
        doc = _decompose()
        del doc["id"]
        with pytest.raises(ServeProtocolError):
            validate_request(doc)

    def test_matrix_and_shape_mutually_exclusive(self):
        doc = _decompose(matrix=[[1.0, 2.0]])
        with pytest.raises(ServeProtocolError) as excinfo:
            validate_request(doc)
        assert "mutually exclusive" in str(excinfo.value)

    def test_decompose_needs_matrix_or_shape(self):
        doc = {"op": "decompose", "id": "r"}
        with pytest.raises(ServeProtocolError):
            validate_request(doc)

    def test_ragged_matrix_rejected(self):
        doc = {"op": "decompose", "id": "r",
               "matrix": [[1.0, 2.0], [3.0]]}
        with pytest.raises(ServeProtocolError) as excinfo:
            validate_request(doc)
        assert "ragged" in str(excinfo.value)

    def test_management_ops_need_no_matrix(self):
        for op in ("ping", "stats", "shutdown"):
            validate_request({"op": op, "id": "m"})


class TestResponseValidation:
    def test_result_envelope_round_trips(self):
        doc = result_response("r-1", np.array([3.0, 1.0]), degraded=False,
                              shed=False, queue_s=0.01, service_s=0.002)
        assert validate_response(decode_line(encode(doc))) == doc

    def test_error_envelope_round_trips(self):
        doc = error_response("r-1", "overloaded", "queue full")
        validate_response(decode_line(encode(doc)))

    def test_unknown_error_code_rejected_at_build(self):
        with pytest.raises(ValueError):
            error_response("r-1", "mystery", "???")

    def test_not_ok_without_error_object_rejected(self):
        with pytest.raises(ServeProtocolError):
            validate_response({"id": "r", "ok": False})

    def test_all_error_codes_buildable(self):
        for code in ERROR_CODES:
            validate_response(error_response("r", code, "msg"))


class TestMatrixMaterialization:
    def test_seeded_matrix_matches_workloads(self):
        from repro.workloads.matrices import random_matrix

        doc = _decompose(shape=[8, 12], seed=11)
        np.testing.assert_array_equal(
            request_matrix(doc), random_matrix(8, 12, seed=11)
        )

    def test_inline_float64_exact_round_trip(self):
        from repro.workloads.matrices import random_matrix

        source = random_matrix(6, 6, seed=5)
        doc = {"op": "decompose", "id": "r",
               "matrix": source.tolist()}
        recovered = request_matrix(decode_line(encode(doc)))
        assert recovered.tobytes() == source.tobytes()

    def test_float32_cast(self):
        doc = _decompose(dtype="float32")
        assert request_matrix(doc).dtype == np.float32


class TestCoalesceKey:
    def test_same_parameters_same_key(self):
        a = request_key(_decompose(), (16, 16), 4)
        b = request_key(_decompose(seed=99, tenant="beta"), (16, 16), 4)
        assert a == b and hash(a) == hash(b)

    def test_different_shape_different_key(self):
        a = request_key(_decompose(), (16, 16), 4)
        b = request_key(_decompose(), (24, 32), 4)
        assert a != b
        assert request_key(_decompose(method="dnc"), (16, 16), 4) != \
            request_key(_decompose(method="dnc"), (16, 32), 4)

    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_jacobi_methods_key_the_prepared_shape(self, method):
        # Their solver sweeps the n x n triangle of the input's QR.
        keys = {
            request_key(_decompose(method=method), shape, 4)
            for shape in [(32, 16), (16, 32), (16, 16)]
        }
        assert len(keys) == 1
        (key,) = keys
        assert (key.m, key.n) == (16, 16)

    def test_dtype_splits_keys(self):
        base = request_key(_decompose(), (16, 16), 4)
        assert request_key(_decompose(dtype="float32"), (16, 16), 4) != base

    def test_accessors(self):
        key = CoalesceKey(16, 32, "float64", 4)
        assert (key.m, key.n, key.dtype, key.block_width) == \
            (16, 32, "float64", 4)
        assert key.cells == 512
        assert key.method == "block"

    def test_method_splits_keys(self):
        base = request_key(_decompose(), (16, 16), 4)
        dnc = request_key(_decompose(method="dnc"), (16, 16), 4)
        assert dnc != base
        assert dnc.method == "dnc"
        assert base.method == "block"
        # Explicit default method coalesces with the omitted field.
        assert request_key(_decompose(method="block"), (16, 16), 4) == base

    @pytest.mark.parametrize("method", ["qr", "tsqr"])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ServeProtocolError, match="method"):
            validate_request(_decompose(method=method))
