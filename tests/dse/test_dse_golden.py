"""Bit-identity golden of the design-space exploration's outputs.

Every case runs one sweep of the Table V scenarios (sizes 128, 256 and
512 at batch 1 and 100) and pins what it returns: the point count and a
sha256 digest over every field of every :class:`DesignPoint` in order
(configuration, latency, throughput, power terms, efficiency, resource
usage, batch), each float as ``float.hex``.  The classic
:meth:`DesignSpaceExplorer.explore` runs for all three objectives; the
widened :meth:`DesignSpace.explore_serial` runs once per scenario (its
canonical order does not depend on an objective).  Any change to the
feasibility stage, a model term, the power or resource estimate, the
frequency model or the enumeration order moves a digest.

The parity tests re-derive a widened digest through the pooled sweep
(``jobs=2``) and unit by unit through :meth:`DesignSpace.evaluate_unit`
(the path sharded sweeps and ledger recovery take).

Print the table for the code as it stands with
``PYTHONPATH=src python tests/dse/test_dse_golden.py``.
"""

import hashlib
import itertools
from dataclasses import fields, is_dataclass

import pytest

from repro.core.dse import VALID_OBJECTIVES, DesignSpaceExplorer
from repro.dse import DesignSpace

SIZES = (128, 256, 512)
BATCHES = (1, 100)

#: (engine, size, batch, objective); the widened sweep has no objective.
CASES = [
    ("classic", size, batch, objective)
    for size, batch, objective in itertools.product(
        SIZES, BATCHES, VALID_OBJECTIVES
    )
] + [
    ("widened", size, batch, None)
    for size, batch in itertools.product(SIZES, BATCHES)
]


def _flatten(value):
    """Every leaf of a (nested) dataclass, floats as ``float.hex``."""
    if is_dataclass(value):
        for f in fields(value):
            yield f.name
            yield from _flatten(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _flatten(item)
    elif isinstance(value, float):
        yield value.hex()
    else:
        yield repr(value)


def digest(points) -> tuple:
    """Point count and the sha256 over every field of every point."""
    h = hashlib.sha256()
    for point in points:
        for leaf in _flatten(point):
            h.update(leaf.encode())
            h.update(b"\0")
        h.update(b"\n")
    return len(points), h.hexdigest()


def sweep(case) -> list:
    engine, size, batch, objective = case
    if engine == "classic":
        return DesignSpaceExplorer(size, size).explore(objective, batch=batch)
    return DesignSpace(size, size, batch=batch).explore_serial()


GOLDEN = {
    ('classic', 128, 1, 'latency'): (95, '07b39a61eebec44b21c17123328bc6584aaf8a17ac3ee3af2f41cbe3ec2dd4f5'),
    ('classic', 128, 1, 'throughput'): (95, '07b39a61eebec44b21c17123328bc6584aaf8a17ac3ee3af2f41cbe3ec2dd4f5'),
    ('classic', 128, 1, 'energy_efficiency'): (95, '8531870b18fbe7bf0e8c85eb2235433a50ae86565e7ee890461799f13aada415'),
    ('classic', 128, 100, 'latency'): (95, '65229d20e84902ce4e10f94fb95d2a5a27e21f2ebb6255398608bee8d982d94d'),
    ('classic', 128, 100, 'throughput'): (95, '6d53f027c3414dcfa17d6facd2c32e03bd00aceedfa1fec93f58d69b2f42d80e'),
    ('classic', 128, 100, 'energy_efficiency'): (95, '946c9e9a05bed024df064646a0aac1301ca0e9ad9b0e37a1067d181a5ea53529'),
    ('classic', 256, 1, 'latency'): (95, 'f2b75d4e8d737c2928d741fc894d065a8ade729c7dd2d4bcb9424e3597bbcaf0'),
    ('classic', 256, 1, 'throughput'): (95, 'f2b75d4e8d737c2928d741fc894d065a8ade729c7dd2d4bcb9424e3597bbcaf0'),
    ('classic', 256, 1, 'energy_efficiency'): (95, '1245c014b4ecb43f164ea7a368ea4ca9dddc2000528d843320f09da3719fa6e3'),
    ('classic', 256, 100, 'latency'): (95, '8c412fd6a18c6b7513055776054fdc8475ca3a13e1a62a95553bb3fcf957097e'),
    ('classic', 256, 100, 'throughput'): (95, '248cfd4d2d7b8dd661704a4478faeee286ff56110a2b7c34bb30743f197aa20f'),
    ('classic', 256, 100, 'energy_efficiency'): (95, '18dbae7d6ce00d458a3473f5536f23f964e2698095187cf01770a071c4e90313'),
    ('classic', 512, 1, 'latency'): (46, '6e028716f19958c4e493eb7ef115f5b4d062e781a72948f662c7017cb087a0dc'),
    ('classic', 512, 1, 'throughput'): (46, '6e028716f19958c4e493eb7ef115f5b4d062e781a72948f662c7017cb087a0dc'),
    ('classic', 512, 1, 'energy_efficiency'): (46, '5e3a2d8ab37b4954f48c6efebe25dad8066d073bdd873b2bae2b313a8f3c75bd'),
    ('classic', 512, 100, 'latency'): (46, '5446666ad6cf982b4a982c298bd8e06dec13ae298dfd81dd142b878c259bef61'),
    ('classic', 512, 100, 'throughput'): (46, '75d07d9067f3e27aae01b05050f7aec3475f7c2b47e785bc42aee32cef1b1f73'),
    ('classic', 512, 100, 'energy_efficiency'): (46, '9fd451fb0776066ec87dc521716566b60405b9ff88eff70180228d4a08616e55'),
    ('widened', 128, 1, None): (380, '0cc59cba59c173584a47ca1c16f8bfeb8f9b25e87178e236aad8ca76f7bbf6fa'),
    ('widened', 128, 100, None): (380, '7c2a5bc7af5a1e47ec803911c666c3052f47dee025f2a4e50a41e401dc92e8dc'),
    ('widened', 256, 1, None): (380, '1fdac92b3181092939348c9c27426fb0816fcf8b8c54b44380795080676a39f2'),
    ('widened', 256, 100, None): (380, 'a225bfe46fe45fd5abbe828d7130b815498defcd92760cb39fee96cc7f358f06'),
    ('widened', 512, 1, None): (184, '53f7d4546882d2bd2d5d10f42022d5a274b6ff4411385323b80834cb537f7ddd'),
    ('widened', 512, 100, None): (184, 'd4f92f7a02f767c05562efb25ed1d0f70ca5472ed72983b44847b81884b95914'),
}


@pytest.mark.parametrize("case", CASES, ids=str)
def test_sweep_matches_golden(case):
    assert digest(sweep(case)) == GOLDEN[case]


class TestEvaluationPathsAgree:
    """The pooled and the per-unit paths give the serial sweep's bits."""

    def test_two_jobs(self):
        points = DesignSpace(256, 256, batch=100).explore(jobs=2)
        assert digest(points) == GOLDEN[("widened", 256, 100, None)]

    @pytest.mark.parametrize("size", SIZES)
    def test_evaluate_unit(self, size):
        space = DesignSpace(size, size, batch=1)
        points = [space.evaluate_unit(unit) for unit in space.units()]
        assert digest(points) == GOLDEN[("widened", size, 1, None)]

    def test_evaluate_unit_on_a_fresh_space(self):
        # No sweep ran on this object: every unit is evaluated cold.
        space = DesignSpace(128, 128, batch=100)
        unit = space.units()[-1]
        fresh = DesignSpace(128, 128, batch=100)
        assert digest([fresh.evaluate_unit(unit)]) \
            == digest([space.explore_serial()[-1]])


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f"    {case!r}: {digest(sweep(case))!r},")
    print("}")
