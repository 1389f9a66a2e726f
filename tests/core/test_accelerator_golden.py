"""Bit-identity golden of the accelerator model's outputs.

Every case runs :meth:`HeteroSVDAccelerator.run` on a seeded square
Gaussian and pins what it returns: sha256 digests of ``U``, ``sigma``
and ``V`` (dtype, shape and C-order bytes), ``float.hex`` of every
``convergence_history`` entry, ``iterations``, ``converged`` and every
:class:`~repro.core.accelerator.TransferStats` field.  The grid covers
odd block counts (36/4 and 30/2 have 9 and 15 blocks), both orderings,
both datapaths, V accumulation on and off, precision mode and a fixed
sweep budget, plus one input scaled by ``2**600`` that must be
pre-scaled.  Any change to the rotations, their order, the stopping
rule or the traffic accounting moves a digest.

Print the table for the code as it stands with
``PYTHONPATH=src python tests/core/test_accelerator_golden.py``.
"""

import hashlib
import itertools
import textwrap
from dataclasses import fields

import numpy as np
import pytest

from repro.core.accelerator import HeteroSVDAccelerator, TransferStats
from repro.core.config import HeteroSVDConfig

SIZES = [(32, 4), (48, 8), (64, 4), (64, 8), (36, 4), (30, 2)]

#: (n, p_eng, use_codesign, arithmetic, accumulate_v, fixed_iterations,
#: input exponent)
CASES = [
    (n, p_eng, codesign, arithmetic, accumulate_v, fixed, 0)
    for (n, p_eng), codesign, arithmetic, accumulate_v, fixed in itertools.product(
        SIZES, (True, False), ("float64", "float32"), (False, True), (None, 2)
    )
] + [(32, 4, True, "float64", True, None, 600)]


def _digest(array) -> str:
    if array is None:
        return "none"
    array = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def record(case) -> tuple:
    """Everything one run returns, in a form that compares exactly."""
    n, p_eng, codesign, arithmetic, accumulate_v, fixed, exponent = case
    a = np.random.default_rng(1000 * n + p_eng).standard_normal((n, n))
    config = HeteroSVDConfig(
        m=n, n=n, p_eng=p_eng, p_task=1, use_codesign=codesign,
        arithmetic=arithmetic, fixed_iterations=fixed,
    )
    result = HeteroSVDAccelerator(config).run(
        np.ldexp(a, exponent), accumulate_v=accumulate_v
    )
    return (
        _digest(result.u),
        _digest(result.sigma),
        _digest(result.v),
        tuple(float(r).hex() for r in result.convergence_history),
        result.iterations,
        result.converged,
        tuple(
            getattr(result.transfers, f.name) for f in fields(TransferStats)
        ),
    )


GOLDEN = {
    (32, 4, True, 'float64', False, None, 0): (
        '7e59cdf5ecd0bbd62e3bf17d3a103de0383321c3a590f18aec305a01eb6c5b42',
        'aecef1e4ebe323c1172a64ed0a3d35fc0bf627a48065f7fa592bf93c44df503c',
        'none',
        ('0x1.12c04ab295f90p-1', '0x1.e6e5f0e6c557ep-2', '0x1.216ef3185cbc1p-1',
         '0x1.2f72a62c24be4p-1', '0x1.f22ff9e2a915ap-3', '0x1.fff9f1ede8179p-9',
         '0x1.09f1df400ba11p-20',),
        7, True, (1176, 8232, 1568, 1568, 1),
    ),
    (32, 4, True, 'float64', False, 2, 0): (
        '4003653c9e7149d5b1d31216e777a06972b1d1fd3f925e1baae91e67732a9021',
        '104621c874ac223b2485f59bdc6d460db78c1d2d5aa747a938ee0772677f2ac3',
        'none',
        ('0x1.12c04ab295f90p-1', '0x1.e6e5f0e6c557ep-2',),
        2, False, (336, 2352, 448, 448, 1),
    ),
    (32, 4, True, 'float64', True, None, 0): (
        '7e59cdf5ecd0bbd62e3bf17d3a103de0383321c3a590f18aec305a01eb6c5b42',
        'aecef1e4ebe323c1172a64ed0a3d35fc0bf627a48065f7fa592bf93c44df503c',
        '0c565a33777b86e0bf6732a33b598d9a5f6f60c8190472934020e2ab136103f7',
        ('0x1.12c04ab295f90p-1', '0x1.e6e5f0e6c557ep-2', '0x1.216ef3185cbc1p-1',
         '0x1.2f72a62c24be4p-1', '0x1.f22ff9e2a915ap-3', '0x1.fff9f1ede8179p-9',
         '0x1.09f1df400ba11p-20',),
        7, True, (1176, 8232, 1568, 1568, 1),
    ),
    (32, 4, True, 'float64', True, 2, 0): (
        '4003653c9e7149d5b1d31216e777a06972b1d1fd3f925e1baae91e67732a9021',
        '104621c874ac223b2485f59bdc6d460db78c1d2d5aa747a938ee0772677f2ac3',
        '3bb96be9fbbe84da53b62d5269d7402e0627588a9c69e967c393fae3e3e9acc1',
        ('0x1.12c04ab295f90p-1', '0x1.e6e5f0e6c557ep-2',),
        2, False, (336, 2352, 448, 448, 1),
    ),
    (32, 4, True, 'float32', False, None, 0): (
        '4a578e012f6948e392aeb7a806c8c1de8bae6b85dabed8a5ab9500efe33a1be0',
        'e04a05db63b4f4fb3896117158e53647a580a66932533576a38a944301c8d7c6',
        'none',
        ('0x1.12c04c63d1dbbp-1', '0x1.e6e546e3fd859p-2', '0x1.216e527943e99p-1',
         '0x1.2f73288798b61p-1', '0x1.f2302557c6990p-3', '0x1.fff841b560f22p-9',
         '0x1.09607abf4498bp-20',),
        7, True, (1176, 8232, 1568, 1568, 1),
    ),
    (32, 4, True, 'float32', False, 2, 0): (
        'a572738a2d7f116f93e5aa3d7bb988ad06d87021737ae4d332c021681506d91b',
        '3a7946444c86d535f2a67ac4e1681e438030358a4c1fbcd7a37d3505aa28ce42',
        'none',
        ('0x1.12c04c63d1dbbp-1', '0x1.e6e546e3fd859p-2',),
        2, False, (336, 2352, 448, 448, 1),
    ),
    (32, 4, True, 'float32', True, None, 0): (
        '4a578e012f6948e392aeb7a806c8c1de8bae6b85dabed8a5ab9500efe33a1be0',
        'e04a05db63b4f4fb3896117158e53647a580a66932533576a38a944301c8d7c6',
        '40b754009eea2acf39bd27a5e16eb6ab2793a2832bdde0eb90b6095244611619',
        ('0x1.12c04c63d1dbbp-1', '0x1.e6e546e3fd859p-2', '0x1.216e527943e99p-1',
         '0x1.2f73288798b61p-1', '0x1.f2302557c6990p-3', '0x1.fff841b560f22p-9',
         '0x1.09607abf4498bp-20',),
        7, True, (1176, 8232, 1568, 1568, 1),
    ),
    (32, 4, True, 'float32', True, 2, 0): (
        'a572738a2d7f116f93e5aa3d7bb988ad06d87021737ae4d332c021681506d91b',
        '3a7946444c86d535f2a67ac4e1681e438030358a4c1fbcd7a37d3505aa28ce42',
        '08cc8fb692147314ac172e4792fe7d19b96a86e0603cc8da3075c1f1119071e5',
        ('0x1.12c04c63d1dbbp-1', '0x1.e6e546e3fd859p-2',),
        2, False, (336, 2352, 448, 448, 1),
    ),
    (32, 4, False, 'float64', False, None, 0): (
        '7e59cdf5ecd0bbd62e3bf17d3a103de0383321c3a590f18aec305a01eb6c5b42',
        'aecef1e4ebe323c1172a64ed0a3d35fc0bf627a48065f7fa592bf93c44df503c',
        'none',
        ('0x1.12c04ab295f90p-1', '0x1.e6e5f0e6c557ep-2', '0x1.216ef3185cbc1p-1',
         '0x1.2f72a62c24be4p-1', '0x1.f22ff9e2a915ap-3', '0x1.fff9f1ede8179p-9',
         '0x1.09f1df400ba11p-20',),
        7, True, (4704, 4704, 1568, 1568, 1),
    ),
    (32, 4, False, 'float64', False, 2, 0): (
        '4003653c9e7149d5b1d31216e777a06972b1d1fd3f925e1baae91e67732a9021',
        '104621c874ac223b2485f59bdc6d460db78c1d2d5aa747a938ee0772677f2ac3',
        'none',
        ('0x1.12c04ab295f90p-1', '0x1.e6e5f0e6c557ep-2',),
        2, False, (1344, 1344, 448, 448, 1),
    ),
    (32, 4, False, 'float64', True, None, 0): (
        '7e59cdf5ecd0bbd62e3bf17d3a103de0383321c3a590f18aec305a01eb6c5b42',
        'aecef1e4ebe323c1172a64ed0a3d35fc0bf627a48065f7fa592bf93c44df503c',
        '0c565a33777b86e0bf6732a33b598d9a5f6f60c8190472934020e2ab136103f7',
        ('0x1.12c04ab295f90p-1', '0x1.e6e5f0e6c557ep-2', '0x1.216ef3185cbc1p-1',
         '0x1.2f72a62c24be4p-1', '0x1.f22ff9e2a915ap-3', '0x1.fff9f1ede8179p-9',
         '0x1.09f1df400ba11p-20',),
        7, True, (4704, 4704, 1568, 1568, 1),
    ),
    (32, 4, False, 'float64', True, 2, 0): (
        '4003653c9e7149d5b1d31216e777a06972b1d1fd3f925e1baae91e67732a9021',
        '104621c874ac223b2485f59bdc6d460db78c1d2d5aa747a938ee0772677f2ac3',
        '3bb96be9fbbe84da53b62d5269d7402e0627588a9c69e967c393fae3e3e9acc1',
        ('0x1.12c04ab295f90p-1', '0x1.e6e5f0e6c557ep-2',),
        2, False, (1344, 1344, 448, 448, 1),
    ),
    (32, 4, False, 'float32', False, None, 0): (
        '4a578e012f6948e392aeb7a806c8c1de8bae6b85dabed8a5ab9500efe33a1be0',
        'e04a05db63b4f4fb3896117158e53647a580a66932533576a38a944301c8d7c6',
        'none',
        ('0x1.12c04c63d1dbbp-1', '0x1.e6e546e3fd859p-2', '0x1.216e527943e99p-1',
         '0x1.2f73288798b61p-1', '0x1.f2302557c6990p-3', '0x1.fff841b560f22p-9',
         '0x1.09607abf4498bp-20',),
        7, True, (4704, 4704, 1568, 1568, 1),
    ),
    (32, 4, False, 'float32', False, 2, 0): (
        'a572738a2d7f116f93e5aa3d7bb988ad06d87021737ae4d332c021681506d91b',
        '3a7946444c86d535f2a67ac4e1681e438030358a4c1fbcd7a37d3505aa28ce42',
        'none',
        ('0x1.12c04c63d1dbbp-1', '0x1.e6e546e3fd859p-2',),
        2, False, (1344, 1344, 448, 448, 1),
    ),
    (32, 4, False, 'float32', True, None, 0): (
        '4a578e012f6948e392aeb7a806c8c1de8bae6b85dabed8a5ab9500efe33a1be0',
        'e04a05db63b4f4fb3896117158e53647a580a66932533576a38a944301c8d7c6',
        '40b754009eea2acf39bd27a5e16eb6ab2793a2832bdde0eb90b6095244611619',
        ('0x1.12c04c63d1dbbp-1', '0x1.e6e546e3fd859p-2', '0x1.216e527943e99p-1',
         '0x1.2f73288798b61p-1', '0x1.f2302557c6990p-3', '0x1.fff841b560f22p-9',
         '0x1.09607abf4498bp-20',),
        7, True, (4704, 4704, 1568, 1568, 1),
    ),
    (32, 4, False, 'float32', True, 2, 0): (
        'a572738a2d7f116f93e5aa3d7bb988ad06d87021737ae4d332c021681506d91b',
        '3a7946444c86d535f2a67ac4e1681e438030358a4c1fbcd7a37d3505aa28ce42',
        '08cc8fb692147314ac172e4792fe7d19b96a86e0603cc8da3075c1f1119071e5',
        ('0x1.12c04c63d1dbbp-1', '0x1.e6e546e3fd859p-2',),
        2, False, (1344, 1344, 448, 448, 1),
    ),
    (48, 8, True, 'float64', False, None, 0): (
        'f1c54b9473957b72dead7df66a18e17d8720f59e57ab4e976def01e5d22a231a',
        '357c54633fef7d5569bd693c302ac00b148daf3e5f4b5d63e7515f42de14fb56',
        'none',
        ('0x1.fbfecd60a0746p-2', '0x1.07cc1fc5b9fb6p-1', '0x1.21c4784176ac1p-1',
         '0x1.482e8b325cb5dp-2', '0x1.be7f09437aca0p-4', '0x1.83d6b8283ef47p-11',
         '0x1.09f9c63d5b15dp-20',),
        7, True, (1470, 22050, 1680, 1680, 1),
    ),
    (48, 8, True, 'float64', False, 2, 0): (
        '5c138dac093d8356e3ee908fc08d4d6344cb073a8c6b3457768aad82076bd0c6',
        '799d4aa776e7cb13346a025c40694ce5c137954914c6cdf4696917d216119da1',
        'none',
        ('0x1.fbfecd60a0746p-2', '0x1.07cc1fc5b9fb6p-1',),
        2, False, (420, 6300, 480, 480, 1),
    ),
    (48, 8, True, 'float64', True, None, 0): (
        'f1c54b9473957b72dead7df66a18e17d8720f59e57ab4e976def01e5d22a231a',
        '357c54633fef7d5569bd693c302ac00b148daf3e5f4b5d63e7515f42de14fb56',
        '6fc0e8762c20a01c9199833100cc8e5b1a06af0d9c565b1fda5e3e3ab19555ae',
        ('0x1.fbfecd60a0746p-2', '0x1.07cc1fc5b9fb6p-1', '0x1.21c4784176ac1p-1',
         '0x1.482e8b325cb5dp-2', '0x1.be7f09437aca0p-4', '0x1.83d6b8283ef47p-11',
         '0x1.09f9c63d5b15dp-20',),
        7, True, (1470, 22050, 1680, 1680, 1),
    ),
    (48, 8, True, 'float64', True, 2, 0): (
        '5c138dac093d8356e3ee908fc08d4d6344cb073a8c6b3457768aad82076bd0c6',
        '799d4aa776e7cb13346a025c40694ce5c137954914c6cdf4696917d216119da1',
        '80646989812cfef2b84d5fc151be1f78749f48ef07832a1db2be90871b29c855',
        ('0x1.fbfecd60a0746p-2', '0x1.07cc1fc5b9fb6p-1',),
        2, False, (420, 6300, 480, 480, 1),
    ),
    (48, 8, True, 'float32', False, None, 0): (
        '123a55f511371e4d9998267a5c88cbd69e576089c743ada7e52a610109b4650f',
        '4db91c5164c3e9a123bdb7a0fd0156d5629a0ea9c33f38f8b1c90c60f93f20d0',
        'none',
        ('0x1.fbfecf6cc7211p-2', '0x1.07cbf566809b3p-1', '0x1.21c427a7de3afp-1',
         '0x1.4825ab7b3b053p-2', '0x1.be795f31df06cp-4', '0x1.83c179941086ep-11',
         '0x1.0b65e2813f299p-20',),
        7, True, (1470, 22050, 1680, 1680, 1),
    ),
    (48, 8, True, 'float32', False, 2, 0): (
        '11726066e866b287f8a9d7ef351001a15d57f41f58a5c3eadee88e73b7885a20',
        '1184b4ef9e2f3d8ddfbc61453f3647435d2e18869f5eba4a5ba2eca7f94b9e15',
        'none',
        ('0x1.fbfecf6cc7211p-2', '0x1.07cbf566809b3p-1',),
        2, False, (420, 6300, 480, 480, 1),
    ),
    (48, 8, True, 'float32', True, None, 0): (
        '123a55f511371e4d9998267a5c88cbd69e576089c743ada7e52a610109b4650f',
        '4db91c5164c3e9a123bdb7a0fd0156d5629a0ea9c33f38f8b1c90c60f93f20d0',
        'ffc67d07e1a5bfc5f2d162c0a132c3f233d0859248e260346f7b81cef9753563',
        ('0x1.fbfecf6cc7211p-2', '0x1.07cbf566809b3p-1', '0x1.21c427a7de3afp-1',
         '0x1.4825ab7b3b053p-2', '0x1.be795f31df06cp-4', '0x1.83c179941086ep-11',
         '0x1.0b65e2813f299p-20',),
        7, True, (1470, 22050, 1680, 1680, 1),
    ),
    (48, 8, True, 'float32', True, 2, 0): (
        '11726066e866b287f8a9d7ef351001a15d57f41f58a5c3eadee88e73b7885a20',
        '1184b4ef9e2f3d8ddfbc61453f3647435d2e18869f5eba4a5ba2eca7f94b9e15',
        '8e9d38ee147d237fff0238e12e30c8e49a960aafd0939e4ccc641c55132b9780',
        ('0x1.fbfecf6cc7211p-2', '0x1.07cbf566809b3p-1',),
        2, False, (420, 6300, 480, 480, 1),
    ),
    (48, 8, False, 'float64', False, None, 0): (
        'f1c54b9473957b72dead7df66a18e17d8720f59e57ab4e976def01e5d22a231a',
        '357c54633fef7d5569bd693c302ac00b148daf3e5f4b5d63e7515f42de14fb56',
        'none',
        ('0x1.fbfecd60a0746p-2', '0x1.07cc1fc5b9fb6p-1', '0x1.21c4784176ac1p-1',
         '0x1.482e8b325cb5dp-2', '0x1.be7f09437aca0p-4', '0x1.83d6b8283ef47p-11',
         '0x1.09f9c63d5b15dp-20',),
        7, True, (11760, 11760, 1680, 1680, 1),
    ),
    (48, 8, False, 'float64', False, 2, 0): (
        '5c138dac093d8356e3ee908fc08d4d6344cb073a8c6b3457768aad82076bd0c6',
        '799d4aa776e7cb13346a025c40694ce5c137954914c6cdf4696917d216119da1',
        'none',
        ('0x1.fbfecd60a0746p-2', '0x1.07cc1fc5b9fb6p-1',),
        2, False, (3360, 3360, 480, 480, 1),
    ),
    (48, 8, False, 'float64', True, None, 0): (
        'f1c54b9473957b72dead7df66a18e17d8720f59e57ab4e976def01e5d22a231a',
        '357c54633fef7d5569bd693c302ac00b148daf3e5f4b5d63e7515f42de14fb56',
        '6fc0e8762c20a01c9199833100cc8e5b1a06af0d9c565b1fda5e3e3ab19555ae',
        ('0x1.fbfecd60a0746p-2', '0x1.07cc1fc5b9fb6p-1', '0x1.21c4784176ac1p-1',
         '0x1.482e8b325cb5dp-2', '0x1.be7f09437aca0p-4', '0x1.83d6b8283ef47p-11',
         '0x1.09f9c63d5b15dp-20',),
        7, True, (11760, 11760, 1680, 1680, 1),
    ),
    (48, 8, False, 'float64', True, 2, 0): (
        '5c138dac093d8356e3ee908fc08d4d6344cb073a8c6b3457768aad82076bd0c6',
        '799d4aa776e7cb13346a025c40694ce5c137954914c6cdf4696917d216119da1',
        '80646989812cfef2b84d5fc151be1f78749f48ef07832a1db2be90871b29c855',
        ('0x1.fbfecd60a0746p-2', '0x1.07cc1fc5b9fb6p-1',),
        2, False, (3360, 3360, 480, 480, 1),
    ),
    (48, 8, False, 'float32', False, None, 0): (
        '123a55f511371e4d9998267a5c88cbd69e576089c743ada7e52a610109b4650f',
        '4db91c5164c3e9a123bdb7a0fd0156d5629a0ea9c33f38f8b1c90c60f93f20d0',
        'none',
        ('0x1.fbfecf6cc7211p-2', '0x1.07cbf566809b3p-1', '0x1.21c427a7de3afp-1',
         '0x1.4825ab7b3b053p-2', '0x1.be795f31df06cp-4', '0x1.83c179941086ep-11',
         '0x1.0b65e2813f299p-20',),
        7, True, (11760, 11760, 1680, 1680, 1),
    ),
    (48, 8, False, 'float32', False, 2, 0): (
        '11726066e866b287f8a9d7ef351001a15d57f41f58a5c3eadee88e73b7885a20',
        '1184b4ef9e2f3d8ddfbc61453f3647435d2e18869f5eba4a5ba2eca7f94b9e15',
        'none',
        ('0x1.fbfecf6cc7211p-2', '0x1.07cbf566809b3p-1',),
        2, False, (3360, 3360, 480, 480, 1),
    ),
    (48, 8, False, 'float32', True, None, 0): (
        '123a55f511371e4d9998267a5c88cbd69e576089c743ada7e52a610109b4650f',
        '4db91c5164c3e9a123bdb7a0fd0156d5629a0ea9c33f38f8b1c90c60f93f20d0',
        'ffc67d07e1a5bfc5f2d162c0a132c3f233d0859248e260346f7b81cef9753563',
        ('0x1.fbfecf6cc7211p-2', '0x1.07cbf566809b3p-1', '0x1.21c427a7de3afp-1',
         '0x1.4825ab7b3b053p-2', '0x1.be795f31df06cp-4', '0x1.83c179941086ep-11',
         '0x1.0b65e2813f299p-20',),
        7, True, (11760, 11760, 1680, 1680, 1),
    ),
    (48, 8, False, 'float32', True, 2, 0): (
        '11726066e866b287f8a9d7ef351001a15d57f41f58a5c3eadee88e73b7885a20',
        '1184b4ef9e2f3d8ddfbc61453f3647435d2e18869f5eba4a5ba2eca7f94b9e15',
        '8e9d38ee147d237fff0238e12e30c8e49a960aafd0939e4ccc641c55132b9780',
        ('0x1.fbfecf6cc7211p-2', '0x1.07cbf566809b3p-1',),
        2, False, (3360, 3360, 480, 480, 1),
    ),
    (64, 4, True, 'float64', False, None, 0): (
        '91e3b88292b2b2fc582f6333f55fd92524a7b344010051a502628537bfc72fae',
        'b935310dd3d5e3023225d8a60e44655fb7e29f5c898c01dee8d45b360cc8e0d7',
        'none',
        ('0x1.68a4fab4fe1c1p-2', '0x1.a39238c70be2dp-2', '0x1.c4a0e29aff158p-2',
         '0x1.dbaa099f21da5p-2', '0x1.01cc02f28dfe1p-1', '0x1.1904adca2e961p-1',
         '0x1.0cb5a4a38caecp-5', '0x1.32cdcc24e69efp-17', '0x1.0c14175dbbe54p-20',),
        9, True, (6480, 45360, 8640, 8640, 1),
    ),
    (64, 4, True, 'float64', False, 2, 0): (
        'd4291e28f3c443d74c852c4c7862d3f6bfd8f429baa04d4120c43c101f9764ed',
        'f7ccc8ecb2f45971f6e56aba75021d1d7a319555ff2c67c20715343de2d66095',
        'none',
        ('0x1.68a4fab4fe1c1p-2', '0x1.a39238c70be2dp-2',),
        2, False, (1440, 10080, 1920, 1920, 1),
    ),
    (64, 4, True, 'float64', True, None, 0): (
        '91e3b88292b2b2fc582f6333f55fd92524a7b344010051a502628537bfc72fae',
        'b935310dd3d5e3023225d8a60e44655fb7e29f5c898c01dee8d45b360cc8e0d7',
        '54c414e9ba533693e4b0b19143f7a0ef8b34cf9035240c46072090b1f01798d3',
        ('0x1.68a4fab4fe1c1p-2', '0x1.a39238c70be2dp-2', '0x1.c4a0e29aff158p-2',
         '0x1.dbaa099f21da5p-2', '0x1.01cc02f28dfe1p-1', '0x1.1904adca2e961p-1',
         '0x1.0cb5a4a38caecp-5', '0x1.32cdcc24e69efp-17', '0x1.0c14175dbbe54p-20',),
        9, True, (6480, 45360, 8640, 8640, 1),
    ),
    (64, 4, True, 'float64', True, 2, 0): (
        'd4291e28f3c443d74c852c4c7862d3f6bfd8f429baa04d4120c43c101f9764ed',
        'f7ccc8ecb2f45971f6e56aba75021d1d7a319555ff2c67c20715343de2d66095',
        '4a77a72027a89cb1d439b1ed27964222fe85060babc60d95e80eb443b77d1db6',
        ('0x1.68a4fab4fe1c1p-2', '0x1.a39238c70be2dp-2',),
        2, False, (1440, 10080, 1920, 1920, 1),
    ),
    (64, 4, True, 'float32', False, None, 0): (
        '9445b087890a03322793cc9d0654ce8ddbf1a8038abb75780c33520e7ebcfbe9',
        'c0ed6415edfdaa54526ccf98d4de5898ac63ab61508572d19461c10abb9ba880',
        'none',
        ('0x1.68a53920883eap-2', '0x1.a391a85cb3d2dp-2', '0x1.c48bc3ad5ffa6p-2',
         '0x1.dba10c159bf22p-2', '0x1.01d8e74656efep-1', '0x1.18d5ece5f8934p-1',
         '0x1.0cd131462e93cp-5', '0x1.2f2d2c7b183dep-17', '0x1.09633cee104e0p-20',),
        9, True, (6480, 45360, 8640, 8640, 1),
    ),
    (64, 4, True, 'float32', False, 2, 0): (
        '670cf5b371d3b524b849ec11c389dc4fec801cba118344dc00fa9d69a7225597',
        '3f9f27ed750c69d3d454e9cf873fba58ac078a7cff732922c925e9828779058e',
        'none',
        ('0x1.68a53920883eap-2', '0x1.a391a85cb3d2dp-2',),
        2, False, (1440, 10080, 1920, 1920, 1),
    ),
    (64, 4, True, 'float32', True, None, 0): (
        '9445b087890a03322793cc9d0654ce8ddbf1a8038abb75780c33520e7ebcfbe9',
        'c0ed6415edfdaa54526ccf98d4de5898ac63ab61508572d19461c10abb9ba880',
        '0ec4d3778188b1bfd70c45b35cb1faf66b1ae694efeb7663e776c31234a80f66',
        ('0x1.68a53920883eap-2', '0x1.a391a85cb3d2dp-2', '0x1.c48bc3ad5ffa6p-2',
         '0x1.dba10c159bf22p-2', '0x1.01d8e74656efep-1', '0x1.18d5ece5f8934p-1',
         '0x1.0cd131462e93cp-5', '0x1.2f2d2c7b183dep-17', '0x1.09633cee104e0p-20',),
        9, True, (6480, 45360, 8640, 8640, 1),
    ),
    (64, 4, True, 'float32', True, 2, 0): (
        '670cf5b371d3b524b849ec11c389dc4fec801cba118344dc00fa9d69a7225597',
        '3f9f27ed750c69d3d454e9cf873fba58ac078a7cff732922c925e9828779058e',
        'b68e06c514eb53f3f4b1916b9a9723b15856f161baa9f78b1389844ecdc48619',
        ('0x1.68a53920883eap-2', '0x1.a391a85cb3d2dp-2',),
        2, False, (1440, 10080, 1920, 1920, 1),
    ),
    (64, 4, False, 'float64', False, None, 0): (
        '91e3b88292b2b2fc582f6333f55fd92524a7b344010051a502628537bfc72fae',
        'b935310dd3d5e3023225d8a60e44655fb7e29f5c898c01dee8d45b360cc8e0d7',
        'none',
        ('0x1.68a4fab4fe1c1p-2', '0x1.a39238c70be2dp-2', '0x1.c4a0e29aff158p-2',
         '0x1.dbaa099f21da5p-2', '0x1.01cc02f28dfe1p-1', '0x1.1904adca2e961p-1',
         '0x1.0cb5a4a38caecp-5', '0x1.32cdcc24e69efp-17', '0x1.0c14175dbbe54p-20',),
        9, True, (25920, 25920, 8640, 8640, 1),
    ),
    (64, 4, False, 'float64', False, 2, 0): (
        'd4291e28f3c443d74c852c4c7862d3f6bfd8f429baa04d4120c43c101f9764ed',
        'f7ccc8ecb2f45971f6e56aba75021d1d7a319555ff2c67c20715343de2d66095',
        'none',
        ('0x1.68a4fab4fe1c1p-2', '0x1.a39238c70be2dp-2',),
        2, False, (5760, 5760, 1920, 1920, 1),
    ),
    (64, 4, False, 'float64', True, None, 0): (
        '91e3b88292b2b2fc582f6333f55fd92524a7b344010051a502628537bfc72fae',
        'b935310dd3d5e3023225d8a60e44655fb7e29f5c898c01dee8d45b360cc8e0d7',
        '54c414e9ba533693e4b0b19143f7a0ef8b34cf9035240c46072090b1f01798d3',
        ('0x1.68a4fab4fe1c1p-2', '0x1.a39238c70be2dp-2', '0x1.c4a0e29aff158p-2',
         '0x1.dbaa099f21da5p-2', '0x1.01cc02f28dfe1p-1', '0x1.1904adca2e961p-1',
         '0x1.0cb5a4a38caecp-5', '0x1.32cdcc24e69efp-17', '0x1.0c14175dbbe54p-20',),
        9, True, (25920, 25920, 8640, 8640, 1),
    ),
    (64, 4, False, 'float64', True, 2, 0): (
        'd4291e28f3c443d74c852c4c7862d3f6bfd8f429baa04d4120c43c101f9764ed',
        'f7ccc8ecb2f45971f6e56aba75021d1d7a319555ff2c67c20715343de2d66095',
        '4a77a72027a89cb1d439b1ed27964222fe85060babc60d95e80eb443b77d1db6',
        ('0x1.68a4fab4fe1c1p-2', '0x1.a39238c70be2dp-2',),
        2, False, (5760, 5760, 1920, 1920, 1),
    ),
    (64, 4, False, 'float32', False, None, 0): (
        '9445b087890a03322793cc9d0654ce8ddbf1a8038abb75780c33520e7ebcfbe9',
        'c0ed6415edfdaa54526ccf98d4de5898ac63ab61508572d19461c10abb9ba880',
        'none',
        ('0x1.68a53920883eap-2', '0x1.a391a85cb3d2dp-2', '0x1.c48bc3ad5ffa6p-2',
         '0x1.dba10c159bf22p-2', '0x1.01d8e74656efep-1', '0x1.18d5ece5f8934p-1',
         '0x1.0cd131462e93cp-5', '0x1.2f2d2c7b183dep-17', '0x1.09633cee104e0p-20',),
        9, True, (25920, 25920, 8640, 8640, 1),
    ),
    (64, 4, False, 'float32', False, 2, 0): (
        '670cf5b371d3b524b849ec11c389dc4fec801cba118344dc00fa9d69a7225597',
        '3f9f27ed750c69d3d454e9cf873fba58ac078a7cff732922c925e9828779058e',
        'none',
        ('0x1.68a53920883eap-2', '0x1.a391a85cb3d2dp-2',),
        2, False, (5760, 5760, 1920, 1920, 1),
    ),
    (64, 4, False, 'float32', True, None, 0): (
        '9445b087890a03322793cc9d0654ce8ddbf1a8038abb75780c33520e7ebcfbe9',
        'c0ed6415edfdaa54526ccf98d4de5898ac63ab61508572d19461c10abb9ba880',
        '0ec4d3778188b1bfd70c45b35cb1faf66b1ae694efeb7663e776c31234a80f66',
        ('0x1.68a53920883eap-2', '0x1.a391a85cb3d2dp-2', '0x1.c48bc3ad5ffa6p-2',
         '0x1.dba10c159bf22p-2', '0x1.01d8e74656efep-1', '0x1.18d5ece5f8934p-1',
         '0x1.0cd131462e93cp-5', '0x1.2f2d2c7b183dep-17', '0x1.09633cee104e0p-20',),
        9, True, (25920, 25920, 8640, 8640, 1),
    ),
    (64, 4, False, 'float32', True, 2, 0): (
        '670cf5b371d3b524b849ec11c389dc4fec801cba118344dc00fa9d69a7225597',
        '3f9f27ed750c69d3d454e9cf873fba58ac078a7cff732922c925e9828779058e',
        'b68e06c514eb53f3f4b1916b9a9723b15856f161baa9f78b1389844ecdc48619',
        ('0x1.68a53920883eap-2', '0x1.a391a85cb3d2dp-2',),
        2, False, (5760, 5760, 1920, 1920, 1),
    ),
    (64, 8, True, 'float64', False, None, 0): (
        '70a07c6bc7499274f170dd338adc5e89ca2943bbf8538f2d95b15c8ccf854ef4',
        'd71ed40a25e925668dbc3e08770e9913a14b3fb9d7e2340816f1de57886c880e',
        'none',
        ('0x1.8c99bd37462f0p-2', '0x1.806f1e19e8afap-2', '0x1.1d4df211b9690p-1',
         '0x1.561ba7c35c583p-1', '0x1.6de6cf947c009p-1', '0x1.a8cf276962393p-3',
         '0x1.4227436bfda5dp-12', '0x1.0bc02c0200aafp-20',),
        8, True, (3136, 47040, 3584, 3584, 1),
    ),
    (64, 8, True, 'float64', False, 2, 0): (
        'ab9a8db4f89c3419e384831dc649d51bc6410e9246950242205c51ce54317759',
        '31a5f05366ebcff4dcaba24fb05e4fcda5ec061da57a59a725bf731ec36e2048',
        'none',
        ('0x1.8c99bd37462f0p-2', '0x1.806f1e19e8afap-2',),
        2, False, (784, 11760, 896, 896, 1),
    ),
    (64, 8, True, 'float64', True, None, 0): (
        '70a07c6bc7499274f170dd338adc5e89ca2943bbf8538f2d95b15c8ccf854ef4',
        'd71ed40a25e925668dbc3e08770e9913a14b3fb9d7e2340816f1de57886c880e',
        '94c1a8f738dbf57de6baeb4fc340e727974227be0d81aa78d089e4ab2cec27af',
        ('0x1.8c99bd37462f0p-2', '0x1.806f1e19e8afap-2', '0x1.1d4df211b9690p-1',
         '0x1.561ba7c35c583p-1', '0x1.6de6cf947c009p-1', '0x1.a8cf276962393p-3',
         '0x1.4227436bfda5dp-12', '0x1.0bc02c0200aafp-20',),
        8, True, (3136, 47040, 3584, 3584, 1),
    ),
    (64, 8, True, 'float64', True, 2, 0): (
        'ab9a8db4f89c3419e384831dc649d51bc6410e9246950242205c51ce54317759',
        '31a5f05366ebcff4dcaba24fb05e4fcda5ec061da57a59a725bf731ec36e2048',
        '8cceecc429ec834aa32568a0566b48aa979ce77c666cc351fb813bd2361d22d2',
        ('0x1.8c99bd37462f0p-2', '0x1.806f1e19e8afap-2',),
        2, False, (784, 11760, 896, 896, 1),
    ),
    (64, 8, True, 'float32', False, None, 0): (
        '0b08454bc1abf92dfa45232ec3414dfa1d05c5fe2543405de4245b49cf5c45df',
        '73529eefb59b203fdd29256a245facef78551215277848adaf34e6bd9c13268e',
        'none',
        ('0x1.8c9a84b186687p-2', '0x1.80502f9bc67acp-2', '0x1.1d65ba4c1b497p-1',
         '0x1.5652c8daf5730p-1', '0x1.6e8b9507bcec8p-1', '0x1.9f75c933fe48cp-3',
         '0x1.33ec2b202745cp-12', '0x1.06c673840bf9ap-20',),
        8, True, (3136, 47040, 3584, 3584, 1),
    ),
    (64, 8, True, 'float32', False, 2, 0): (
        'f7f65f7119618ad74508759ea529b0b043132975d0f1b55cc4825f905c1efd0f',
        '79882856eaa5e0831ba9a9bd6c7bd685b2f3d6a927fcadb0030676e2c827b8ae',
        'none',
        ('0x1.8c9a84b186687p-2', '0x1.80502f9bc67acp-2',),
        2, False, (784, 11760, 896, 896, 1),
    ),
    (64, 8, True, 'float32', True, None, 0): (
        '0b08454bc1abf92dfa45232ec3414dfa1d05c5fe2543405de4245b49cf5c45df',
        '73529eefb59b203fdd29256a245facef78551215277848adaf34e6bd9c13268e',
        '8ac1fb1ae5c87458454184654220f68aae6c94f4c3830a21e1d25c13d3e4008d',
        ('0x1.8c9a84b186687p-2', '0x1.80502f9bc67acp-2', '0x1.1d65ba4c1b497p-1',
         '0x1.5652c8daf5730p-1', '0x1.6e8b9507bcec8p-1', '0x1.9f75c933fe48cp-3',
         '0x1.33ec2b202745cp-12', '0x1.06c673840bf9ap-20',),
        8, True, (3136, 47040, 3584, 3584, 1),
    ),
    (64, 8, True, 'float32', True, 2, 0): (
        'f7f65f7119618ad74508759ea529b0b043132975d0f1b55cc4825f905c1efd0f',
        '79882856eaa5e0831ba9a9bd6c7bd685b2f3d6a927fcadb0030676e2c827b8ae',
        '1954223ea6d04483aa22ffb64fd87be6aefac7e239da12c0c79376852506ecb6',
        ('0x1.8c9a84b186687p-2', '0x1.80502f9bc67acp-2',),
        2, False, (784, 11760, 896, 896, 1),
    ),
    (64, 8, False, 'float64', False, None, 0): (
        '70a07c6bc7499274f170dd338adc5e89ca2943bbf8538f2d95b15c8ccf854ef4',
        'd71ed40a25e925668dbc3e08770e9913a14b3fb9d7e2340816f1de57886c880e',
        'none',
        ('0x1.8c99bd37462f0p-2', '0x1.806f1e19e8afap-2', '0x1.1d4df211b9690p-1',
         '0x1.561ba7c35c583p-1', '0x1.6de6cf947c009p-1', '0x1.a8cf276962393p-3',
         '0x1.4227436bfda5dp-12', '0x1.0bc02c0200aafp-20',),
        8, True, (25088, 25088, 3584, 3584, 1),
    ),
    (64, 8, False, 'float64', False, 2, 0): (
        'ab9a8db4f89c3419e384831dc649d51bc6410e9246950242205c51ce54317759',
        '31a5f05366ebcff4dcaba24fb05e4fcda5ec061da57a59a725bf731ec36e2048',
        'none',
        ('0x1.8c99bd37462f0p-2', '0x1.806f1e19e8afap-2',),
        2, False, (6272, 6272, 896, 896, 1),
    ),
    (64, 8, False, 'float64', True, None, 0): (
        '70a07c6bc7499274f170dd338adc5e89ca2943bbf8538f2d95b15c8ccf854ef4',
        'd71ed40a25e925668dbc3e08770e9913a14b3fb9d7e2340816f1de57886c880e',
        '94c1a8f738dbf57de6baeb4fc340e727974227be0d81aa78d089e4ab2cec27af',
        ('0x1.8c99bd37462f0p-2', '0x1.806f1e19e8afap-2', '0x1.1d4df211b9690p-1',
         '0x1.561ba7c35c583p-1', '0x1.6de6cf947c009p-1', '0x1.a8cf276962393p-3',
         '0x1.4227436bfda5dp-12', '0x1.0bc02c0200aafp-20',),
        8, True, (25088, 25088, 3584, 3584, 1),
    ),
    (64, 8, False, 'float64', True, 2, 0): (
        'ab9a8db4f89c3419e384831dc649d51bc6410e9246950242205c51ce54317759',
        '31a5f05366ebcff4dcaba24fb05e4fcda5ec061da57a59a725bf731ec36e2048',
        '8cceecc429ec834aa32568a0566b48aa979ce77c666cc351fb813bd2361d22d2',
        ('0x1.8c99bd37462f0p-2', '0x1.806f1e19e8afap-2',),
        2, False, (6272, 6272, 896, 896, 1),
    ),
    (64, 8, False, 'float32', False, None, 0): (
        '0b08454bc1abf92dfa45232ec3414dfa1d05c5fe2543405de4245b49cf5c45df',
        '73529eefb59b203fdd29256a245facef78551215277848adaf34e6bd9c13268e',
        'none',
        ('0x1.8c9a84b186687p-2', '0x1.80502f9bc67acp-2', '0x1.1d65ba4c1b497p-1',
         '0x1.5652c8daf5730p-1', '0x1.6e8b9507bcec8p-1', '0x1.9f75c933fe48cp-3',
         '0x1.33ec2b202745cp-12', '0x1.06c673840bf9ap-20',),
        8, True, (25088, 25088, 3584, 3584, 1),
    ),
    (64, 8, False, 'float32', False, 2, 0): (
        'f7f65f7119618ad74508759ea529b0b043132975d0f1b55cc4825f905c1efd0f',
        '79882856eaa5e0831ba9a9bd6c7bd685b2f3d6a927fcadb0030676e2c827b8ae',
        'none',
        ('0x1.8c9a84b186687p-2', '0x1.80502f9bc67acp-2',),
        2, False, (6272, 6272, 896, 896, 1),
    ),
    (64, 8, False, 'float32', True, None, 0): (
        '0b08454bc1abf92dfa45232ec3414dfa1d05c5fe2543405de4245b49cf5c45df',
        '73529eefb59b203fdd29256a245facef78551215277848adaf34e6bd9c13268e',
        '8ac1fb1ae5c87458454184654220f68aae6c94f4c3830a21e1d25c13d3e4008d',
        ('0x1.8c9a84b186687p-2', '0x1.80502f9bc67acp-2', '0x1.1d65ba4c1b497p-1',
         '0x1.5652c8daf5730p-1', '0x1.6e8b9507bcec8p-1', '0x1.9f75c933fe48cp-3',
         '0x1.33ec2b202745cp-12', '0x1.06c673840bf9ap-20',),
        8, True, (25088, 25088, 3584, 3584, 1),
    ),
    (64, 8, False, 'float32', True, 2, 0): (
        'f7f65f7119618ad74508759ea529b0b043132975d0f1b55cc4825f905c1efd0f',
        '79882856eaa5e0831ba9a9bd6c7bd685b2f3d6a927fcadb0030676e2c827b8ae',
        '1954223ea6d04483aa22ffb64fd87be6aefac7e239da12c0c79376852506ecb6',
        ('0x1.8c9a84b186687p-2', '0x1.80502f9bc67acp-2',),
        2, False, (6272, 6272, 896, 896, 1),
    ),
    (36, 4, True, 'float64', False, None, 0): (
        '26fca10043b6d4794396dfee5ffd746da7841afbe93b9cecc63a74935abe54db',
        'ba6b42ab5bb8948ce157b2618c7b3916020b6c24c9251a1f24867e9506102531',
        'none',
        ('0x1.32b99dd67db6bp-1', '0x1.f8209401b49d0p-2', '0x1.df6d8e2ebd2efp-2',
         '0x1.90e43645c708ap-1', '0x1.575041511af5fp-2', '0x1.14bb206c757d5p-7',
         '0x1.25ced557e27c1p-19', '0x1.0b892e4bd1499p-20',),
        8, True, (1728, 12096, 2304, 2304, 1),
    ),
    (36, 4, True, 'float64', False, 2, 0): (
        '1902e7e3fb5dd7f2da7f162183904c86fa64695b5bf3dfce2dcf5dab3ab32560',
        'db447ab21f9450f7f358577fb28d5f8ece5fe4fed2f185f17ab94aad82579eea',
        'none',
        ('0x1.32b99dd67db6bp-1', '0x1.f8209401b49d0p-2',),
        2, False, (432, 3024, 576, 576, 1),
    ),
    (36, 4, True, 'float64', True, None, 0): (
        '26fca10043b6d4794396dfee5ffd746da7841afbe93b9cecc63a74935abe54db',
        'ba6b42ab5bb8948ce157b2618c7b3916020b6c24c9251a1f24867e9506102531',
        '006e192da20b9dc3a6fad0818567b20a83f6cf8f4972c8780fb0cd775ac3cfa0',
        ('0x1.32b99dd67db6bp-1', '0x1.f8209401b49d0p-2', '0x1.df6d8e2ebd2efp-2',
         '0x1.90e43645c708ap-1', '0x1.575041511af5fp-2', '0x1.14bb206c757d5p-7',
         '0x1.25ced557e27c1p-19', '0x1.0b892e4bd1499p-20',),
        8, True, (1728, 12096, 2304, 2304, 1),
    ),
    (36, 4, True, 'float64', True, 2, 0): (
        '1902e7e3fb5dd7f2da7f162183904c86fa64695b5bf3dfce2dcf5dab3ab32560',
        'db447ab21f9450f7f358577fb28d5f8ece5fe4fed2f185f17ab94aad82579eea',
        '8cc989827feca10318525dc8f799fb95f5023646d29fe581c32a87cda69ca1f3',
        ('0x1.32b99dd67db6bp-1', '0x1.f8209401b49d0p-2',),
        2, False, (432, 3024, 576, 576, 1),
    ),
    (36, 4, True, 'float32', False, None, 0): (
        '24a1304872f337003f1fe00be9141a5147bf0b668bfc037c1777f638756ca642',
        '3db8361ae886659d2ec7be9fc52d9fdfef12e0a448b79b711558a975c6626411',
        'none',
        ('0x1.32b99f4bb12cbp-1', '0x1.f81ffc0882618p-2', '0x1.df6a790ff1124p-2',
         '0x1.90e4890800f6ap-1', '0x1.574f4d8f5a088p-2', '0x1.14b4d2e04c388p-7',
         '0x1.274b04df6fb23p-19', '0x1.065b861159a17p-20',),
        8, True, (1728, 12096, 2304, 2304, 1),
    ),
    (36, 4, True, 'float32', False, 2, 0): (
        '9cea342c8ca3cdca7987257566c9e3a4c2890691377455a8bc1f92366186d13c',
        'cef7c52de146accdb4b83e0f3c184736d87a2add3e13b6077993687e68d43dfa',
        'none',
        ('0x1.32b99f4bb12cbp-1', '0x1.f81ffc0882618p-2',),
        2, False, (432, 3024, 576, 576, 1),
    ),
    (36, 4, True, 'float32', True, None, 0): (
        '24a1304872f337003f1fe00be9141a5147bf0b668bfc037c1777f638756ca642',
        '3db8361ae886659d2ec7be9fc52d9fdfef12e0a448b79b711558a975c6626411',
        '3c8a3439a4fa7afd904976d3a06b8d65a42c2cfa97ee730fe432e3518eeae841',
        ('0x1.32b99f4bb12cbp-1', '0x1.f81ffc0882618p-2', '0x1.df6a790ff1124p-2',
         '0x1.90e4890800f6ap-1', '0x1.574f4d8f5a088p-2', '0x1.14b4d2e04c388p-7',
         '0x1.274b04df6fb23p-19', '0x1.065b861159a17p-20',),
        8, True, (1728, 12096, 2304, 2304, 1),
    ),
    (36, 4, True, 'float32', True, 2, 0): (
        '9cea342c8ca3cdca7987257566c9e3a4c2890691377455a8bc1f92366186d13c',
        'cef7c52de146accdb4b83e0f3c184736d87a2add3e13b6077993687e68d43dfa',
        '537e3544a83505e704efe3a3b03a747378b1b0d111a2e78821ff346af4bbef4c',
        ('0x1.32b99f4bb12cbp-1', '0x1.f81ffc0882618p-2',),
        2, False, (432, 3024, 576, 576, 1),
    ),
    (36, 4, False, 'float64', False, None, 0): (
        '26fca10043b6d4794396dfee5ffd746da7841afbe93b9cecc63a74935abe54db',
        'ba6b42ab5bb8948ce157b2618c7b3916020b6c24c9251a1f24867e9506102531',
        'none',
        ('0x1.32b99dd67db6bp-1', '0x1.f8209401b49d0p-2', '0x1.df6d8e2ebd2efp-2',
         '0x1.90e43645c708ap-1', '0x1.575041511af5fp-2', '0x1.14bb206c757d5p-7',
         '0x1.25ced557e27c1p-19', '0x1.0b892e4bd1499p-20',),
        8, True, (6912, 6912, 2304, 2304, 1),
    ),
    (36, 4, False, 'float64', False, 2, 0): (
        '1902e7e3fb5dd7f2da7f162183904c86fa64695b5bf3dfce2dcf5dab3ab32560',
        'db447ab21f9450f7f358577fb28d5f8ece5fe4fed2f185f17ab94aad82579eea',
        'none',
        ('0x1.32b99dd67db6bp-1', '0x1.f8209401b49d0p-2',),
        2, False, (1728, 1728, 576, 576, 1),
    ),
    (36, 4, False, 'float64', True, None, 0): (
        '26fca10043b6d4794396dfee5ffd746da7841afbe93b9cecc63a74935abe54db',
        'ba6b42ab5bb8948ce157b2618c7b3916020b6c24c9251a1f24867e9506102531',
        '006e192da20b9dc3a6fad0818567b20a83f6cf8f4972c8780fb0cd775ac3cfa0',
        ('0x1.32b99dd67db6bp-1', '0x1.f8209401b49d0p-2', '0x1.df6d8e2ebd2efp-2',
         '0x1.90e43645c708ap-1', '0x1.575041511af5fp-2', '0x1.14bb206c757d5p-7',
         '0x1.25ced557e27c1p-19', '0x1.0b892e4bd1499p-20',),
        8, True, (6912, 6912, 2304, 2304, 1),
    ),
    (36, 4, False, 'float64', True, 2, 0): (
        '1902e7e3fb5dd7f2da7f162183904c86fa64695b5bf3dfce2dcf5dab3ab32560',
        'db447ab21f9450f7f358577fb28d5f8ece5fe4fed2f185f17ab94aad82579eea',
        '8cc989827feca10318525dc8f799fb95f5023646d29fe581c32a87cda69ca1f3',
        ('0x1.32b99dd67db6bp-1', '0x1.f8209401b49d0p-2',),
        2, False, (1728, 1728, 576, 576, 1),
    ),
    (36, 4, False, 'float32', False, None, 0): (
        '24a1304872f337003f1fe00be9141a5147bf0b668bfc037c1777f638756ca642',
        '3db8361ae886659d2ec7be9fc52d9fdfef12e0a448b79b711558a975c6626411',
        'none',
        ('0x1.32b99f4bb12cbp-1', '0x1.f81ffc0882618p-2', '0x1.df6a790ff1124p-2',
         '0x1.90e4890800f6ap-1', '0x1.574f4d8f5a088p-2', '0x1.14b4d2e04c388p-7',
         '0x1.274b04df6fb23p-19', '0x1.065b861159a17p-20',),
        8, True, (6912, 6912, 2304, 2304, 1),
    ),
    (36, 4, False, 'float32', False, 2, 0): (
        '9cea342c8ca3cdca7987257566c9e3a4c2890691377455a8bc1f92366186d13c',
        'cef7c52de146accdb4b83e0f3c184736d87a2add3e13b6077993687e68d43dfa',
        'none',
        ('0x1.32b99f4bb12cbp-1', '0x1.f81ffc0882618p-2',),
        2, False, (1728, 1728, 576, 576, 1),
    ),
    (36, 4, False, 'float32', True, None, 0): (
        '24a1304872f337003f1fe00be9141a5147bf0b668bfc037c1777f638756ca642',
        '3db8361ae886659d2ec7be9fc52d9fdfef12e0a448b79b711558a975c6626411',
        '3c8a3439a4fa7afd904976d3a06b8d65a42c2cfa97ee730fe432e3518eeae841',
        ('0x1.32b99f4bb12cbp-1', '0x1.f81ffc0882618p-2', '0x1.df6a790ff1124p-2',
         '0x1.90e4890800f6ap-1', '0x1.574f4d8f5a088p-2', '0x1.14b4d2e04c388p-7',
         '0x1.274b04df6fb23p-19', '0x1.065b861159a17p-20',),
        8, True, (6912, 6912, 2304, 2304, 1),
    ),
    (36, 4, False, 'float32', True, 2, 0): (
        '9cea342c8ca3cdca7987257566c9e3a4c2890691377455a8bc1f92366186d13c',
        'cef7c52de146accdb4b83e0f3c184736d87a2add3e13b6077993687e68d43dfa',
        '537e3544a83505e704efe3a3b03a747378b1b0d111a2e78821ff346af4bbef4c',
        ('0x1.32b99f4bb12cbp-1', '0x1.f81ffc0882618p-2',),
        2, False, (1728, 1728, 576, 576, 1),
    ),
    (30, 2, True, 'float64', False, None, 0): (
        '775a78511608ac9fafcdbc7133efd9d88ef46fc3244b1cedd19c177ac4ae3197',
        '1b9403a40c3aef31cec73a49a6a4beb47b94b7e06dbb2c7cc5de558478918f56',
        'none',
        ('0x1.068b6fb737e72p-1', '0x1.d0b8902aa77a6p-2', '0x1.2e1f5eeb89c8dp-1',
         '0x1.0b7bec27b0ef5p-1', '0x1.51a5f80c97a1fp-1', '0x1.5081b4ab8251ap-4',
         '0x1.7456a785f7b1cp-18', '0x1.098d04a984f5ap-20',),
        8, True, (1680, 5040, 3360, 3360, 1),
    ),
    (30, 2, True, 'float64', False, 2, 0): (
        '7b6b2844b90b2d0f1a35a0e83dd0eb5de2d98e1a83e72056682299354a07d441',
        '16392a67f72d5788f63d6d7030014fe1b1428c473734f8e0575628b0f383380b',
        'none',
        ('0x1.068b6fb737e72p-1', '0x1.d0b8902aa77a6p-2',),
        2, False, (420, 1260, 840, 840, 1),
    ),
    (30, 2, True, 'float64', True, None, 0): (
        '775a78511608ac9fafcdbc7133efd9d88ef46fc3244b1cedd19c177ac4ae3197',
        '1b9403a40c3aef31cec73a49a6a4beb47b94b7e06dbb2c7cc5de558478918f56',
        '7389280ce18a56d5f4ee81003e32a1a2cdb1368c66148133e23e9f1e757942e5',
        ('0x1.068b6fb737e72p-1', '0x1.d0b8902aa77a6p-2', '0x1.2e1f5eeb89c8dp-1',
         '0x1.0b7bec27b0ef5p-1', '0x1.51a5f80c97a1fp-1', '0x1.5081b4ab8251ap-4',
         '0x1.7456a785f7b1cp-18', '0x1.098d04a984f5ap-20',),
        8, True, (1680, 5040, 3360, 3360, 1),
    ),
    (30, 2, True, 'float64', True, 2, 0): (
        '7b6b2844b90b2d0f1a35a0e83dd0eb5de2d98e1a83e72056682299354a07d441',
        '16392a67f72d5788f63d6d7030014fe1b1428c473734f8e0575628b0f383380b',
        'a07ac9101971c8008f6e62838587aa6a71a3d5e4a64a8cbb8bbd3be2949062ab',
        ('0x1.068b6fb737e72p-1', '0x1.d0b8902aa77a6p-2',),
        2, False, (420, 1260, 840, 840, 1),
    ),
    (30, 2, True, 'float32', False, None, 0): (
        '168a3d80e595b9bc20de7d91d19af9e0ed7b90399076ada052ddfbed5173b248',
        '18128c7971e6ef9ba082bb903ff556925f05baf6eb17ef70228b2669a1fbc1d5',
        'none',
        ('0x1.068b70ef44f98p-1', '0x1.d0b89c37ac586p-2', '0x1.2e1e062fb2e33p-1',
         '0x1.0b7e47ad4850ap-1', '0x1.51a0dabd5f137p-1', '0x1.507bedf01d01ep-4',
         '0x1.714a9a11519f8p-18', '0x1.02ffcb7c3ec81p-20',),
        8, True, (1680, 5040, 3360, 3360, 1),
    ),
    (30, 2, True, 'float32', False, 2, 0): (
        'bdf7145662fb05315f439f990ed3e04de63996f1a2b943b58f9a9100ecc425c2',
        'f6cd2768da373f29547ac56c2472ce9a384629c5264e41849d8634b1e12e3221',
        'none',
        ('0x1.068b70ef44f98p-1', '0x1.d0b89c37ac586p-2',),
        2, False, (420, 1260, 840, 840, 1),
    ),
    (30, 2, True, 'float32', True, None, 0): (
        '168a3d80e595b9bc20de7d91d19af9e0ed7b90399076ada052ddfbed5173b248',
        '18128c7971e6ef9ba082bb903ff556925f05baf6eb17ef70228b2669a1fbc1d5',
        'b7c94feb070b0ee138209c4ec781daa37ff8cfc7f5241f8e30145e777415653e',
        ('0x1.068b70ef44f98p-1', '0x1.d0b89c37ac586p-2', '0x1.2e1e062fb2e33p-1',
         '0x1.0b7e47ad4850ap-1', '0x1.51a0dabd5f137p-1', '0x1.507bedf01d01ep-4',
         '0x1.714a9a11519f8p-18', '0x1.02ffcb7c3ec81p-20',),
        8, True, (1680, 5040, 3360, 3360, 1),
    ),
    (30, 2, True, 'float32', True, 2, 0): (
        'bdf7145662fb05315f439f990ed3e04de63996f1a2b943b58f9a9100ecc425c2',
        'f6cd2768da373f29547ac56c2472ce9a384629c5264e41849d8634b1e12e3221',
        'b32834200440c87ec510e211d4c7cdbab19b27b5b7a5fcdfdf49a8b6cc61942c',
        ('0x1.068b70ef44f98p-1', '0x1.d0b89c37ac586p-2',),
        2, False, (420, 1260, 840, 840, 1),
    ),
    (30, 2, False, 'float64', False, None, 0): (
        '775a78511608ac9fafcdbc7133efd9d88ef46fc3244b1cedd19c177ac4ae3197',
        '1b9403a40c3aef31cec73a49a6a4beb47b94b7e06dbb2c7cc5de558478918f56',
        'none',
        ('0x1.068b6fb737e72p-1', '0x1.d0b8902aa77a6p-2', '0x1.2e1f5eeb89c8dp-1',
         '0x1.0b7bec27b0ef5p-1', '0x1.51a5f80c97a1fp-1', '0x1.5081b4ab8251ap-4',
         '0x1.7456a785f7b1cp-18', '0x1.098d04a984f5ap-20',),
        8, True, (3360, 3360, 3360, 3360, 1),
    ),
    (30, 2, False, 'float64', False, 2, 0): (
        '7b6b2844b90b2d0f1a35a0e83dd0eb5de2d98e1a83e72056682299354a07d441',
        '16392a67f72d5788f63d6d7030014fe1b1428c473734f8e0575628b0f383380b',
        'none',
        ('0x1.068b6fb737e72p-1', '0x1.d0b8902aa77a6p-2',),
        2, False, (840, 840, 840, 840, 1),
    ),
    (30, 2, False, 'float64', True, None, 0): (
        '775a78511608ac9fafcdbc7133efd9d88ef46fc3244b1cedd19c177ac4ae3197',
        '1b9403a40c3aef31cec73a49a6a4beb47b94b7e06dbb2c7cc5de558478918f56',
        '7389280ce18a56d5f4ee81003e32a1a2cdb1368c66148133e23e9f1e757942e5',
        ('0x1.068b6fb737e72p-1', '0x1.d0b8902aa77a6p-2', '0x1.2e1f5eeb89c8dp-1',
         '0x1.0b7bec27b0ef5p-1', '0x1.51a5f80c97a1fp-1', '0x1.5081b4ab8251ap-4',
         '0x1.7456a785f7b1cp-18', '0x1.098d04a984f5ap-20',),
        8, True, (3360, 3360, 3360, 3360, 1),
    ),
    (30, 2, False, 'float64', True, 2, 0): (
        '7b6b2844b90b2d0f1a35a0e83dd0eb5de2d98e1a83e72056682299354a07d441',
        '16392a67f72d5788f63d6d7030014fe1b1428c473734f8e0575628b0f383380b',
        'a07ac9101971c8008f6e62838587aa6a71a3d5e4a64a8cbb8bbd3be2949062ab',
        ('0x1.068b6fb737e72p-1', '0x1.d0b8902aa77a6p-2',),
        2, False, (840, 840, 840, 840, 1),
    ),
    (30, 2, False, 'float32', False, None, 0): (
        '168a3d80e595b9bc20de7d91d19af9e0ed7b90399076ada052ddfbed5173b248',
        '18128c7971e6ef9ba082bb903ff556925f05baf6eb17ef70228b2669a1fbc1d5',
        'none',
        ('0x1.068b70ef44f98p-1', '0x1.d0b89c37ac586p-2', '0x1.2e1e062fb2e33p-1',
         '0x1.0b7e47ad4850ap-1', '0x1.51a0dabd5f137p-1', '0x1.507bedf01d01ep-4',
         '0x1.714a9a11519f8p-18', '0x1.02ffcb7c3ec81p-20',),
        8, True, (3360, 3360, 3360, 3360, 1),
    ),
    (30, 2, False, 'float32', False, 2, 0): (
        'bdf7145662fb05315f439f990ed3e04de63996f1a2b943b58f9a9100ecc425c2',
        'f6cd2768da373f29547ac56c2472ce9a384629c5264e41849d8634b1e12e3221',
        'none',
        ('0x1.068b70ef44f98p-1', '0x1.d0b89c37ac586p-2',),
        2, False, (840, 840, 840, 840, 1),
    ),
    (30, 2, False, 'float32', True, None, 0): (
        '168a3d80e595b9bc20de7d91d19af9e0ed7b90399076ada052ddfbed5173b248',
        '18128c7971e6ef9ba082bb903ff556925f05baf6eb17ef70228b2669a1fbc1d5',
        'b7c94feb070b0ee138209c4ec781daa37ff8cfc7f5241f8e30145e777415653e',
        ('0x1.068b70ef44f98p-1', '0x1.d0b89c37ac586p-2', '0x1.2e1e062fb2e33p-1',
         '0x1.0b7e47ad4850ap-1', '0x1.51a0dabd5f137p-1', '0x1.507bedf01d01ep-4',
         '0x1.714a9a11519f8p-18', '0x1.02ffcb7c3ec81p-20',),
        8, True, (3360, 3360, 3360, 3360, 1),
    ),
    (30, 2, False, 'float32', True, 2, 0): (
        'bdf7145662fb05315f439f990ed3e04de63996f1a2b943b58f9a9100ecc425c2',
        'f6cd2768da373f29547ac56c2472ce9a384629c5264e41849d8634b1e12e3221',
        'b32834200440c87ec510e211d4c7cdbab19b27b5b7a5fcdfdf49a8b6cc61942c',
        ('0x1.068b70ef44f98p-1', '0x1.d0b89c37ac586p-2',),
        2, False, (840, 840, 840, 840, 1),
    ),
    (32, 4, True, 'float64', True, None, 600): (
        '7e59cdf5ecd0bbd62e3bf17d3a103de0383321c3a590f18aec305a01eb6c5b42',
        '3ebb8f1aae755bbe4bf47626c2979efdb9722f1a6a3d288e63844bc8257b1ba2',
        '0c565a33777b86e0bf6732a33b598d9a5f6f60c8190472934020e2ab136103f7',
        ('0x1.12c04ab295f90p-1', '0x1.e6e5f0e6c557ep-2', '0x1.216ef3185cbc1p-1',
         '0x1.2f72a62c24be4p-1', '0x1.f22ff9e2a915ap-3', '0x1.fff9f1ede8179p-9',
         '0x1.09f1df400ba11p-20',),
        7, True, (1176, 8232, 1568, 1568, 1),
    ),
}


@pytest.mark.parametrize("case", CASES, ids=str)
def test_outputs_match_recorded(case):
    assert record(case) == GOLDEN[case]


def test_grid_is_fully_recorded():
    assert sorted(GOLDEN, key=str) == sorted(CASES, key=str)


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        u, sigma, v, history, iterations, converged, transfers = record(case)
        print(f"    {case!r}: (")
        for digest in (u, sigma, v):
            print(f"        {digest!r},")
        hexes = " ".join(f"{h!r}," for h in history)
        print(textwrap.fill(
            f"({hexes}),", width=100, initial_indent=" " * 8, subsequent_indent=" " * 9
        ))
        print(f"        {iterations!r}, {converged!r}, {transfers!r},")
        print("    ),")
    print("}")
