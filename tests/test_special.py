"""The numpy error function against ``math.erf``, and a package without scipy.

``math.erf`` is the oracle: the kernel must be within 1 ulp of it everywhere,
including both sides of every interval edge of the piecewise form, signed
zeros, subnormals, huge finite values, infinities and NaN, without a
floating-point warning (x*x overflows on huge inputs unless they are
clamped first).
"""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectsum.special import erf, normal_cdf

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EDGES = (0.84375, 1.25, 1.0 / 0.35, 6.0)
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 2.0 ** -28,
           2.0 ** -29, 1e154, 1.4e154, 1e200, 1.7e308, -1.7e308, sys.float_info.max)


def _ordered(value):
    """The double's position on the number line as an integer, so that
    adjacent doubles differ by 1 (and -0.0 and 0.0 coincide)."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _ulps(a, b):
    return abs(_ordered(a) - _ordered(b))


def _step(value, k):
    """The double k ulps from ``value`` (towards +inf for k > 0)."""
    return struct.unpack("<d", struct.pack("<q", _ordered_inverse(_ordered(value) + k)))[0]


def _ordered_inverse(n):
    return n if n >= 0 else (-n) | -0x8000000000000000


near_edges = st.tuples(st.sampled_from(EDGES), st.integers(-40, 40), st.booleans()).map(
    lambda t: _step(t[0], t[1]) * (-1.0 if t[2] else 1.0))
values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # every exponent
    st.floats(-7.0, 7.0),
    near_edges,
    st.sampled_from(SPECIAL),
    st.floats(-1e-300, 1e-300),  # subnormals and tiny normals
)


def _check(xs):
    got = erf(np.array(xs))
    for x, y in zip(xs, got.tolist()):
        assert _ulps(y, math.erf(x)) <= 1, (x, y, math.erf(x))
        # an entry's value does not depend on the rest of the array, so a
        # batched forward pass stays bitwise equal to its rows run alone
        assert np.float64(y).tobytes() == erf(np.array([x])).tobytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(values, min_size=1, max_size=64))
def test_erf_within_one_ulp_of_math_erf(xs):
    """Arrays of mixed branches, as one call: the gather and scatter keep
    every entry's own branch."""
    _check(xs)


def test_erf_both_sides_of_every_interval_edge():
    xs = [sign * _step(edge, k) for edge in EDGES for k in range(-200, 201)
          for sign in (1.0, -1.0)]
    _check(xs)
    assert {math.copysign(1.0, v) for v in erf(np.array([0.0, -0.0])).tolist()} == {1.0, -1.0}


def test_erf_special_values():
    got = erf(np.array([np.inf, -np.inf, np.nan, 1.7e308, -1.7e308, 6.0, -6.0]))
    assert got[:2].tolist() == [1.0, -1.0]
    assert np.isnan(got[2])
    assert got[3:].tolist() == [1.0, -1.0, 1.0, -1.0]
    assert float(erf(0.5)) == pytest.approx(math.erf(0.5), rel=2e-16)
    assert erf(np.zeros((2, 0, 3))).shape == (2, 0, 3)


@pytest.mark.parametrize("shape", [(5,), (8, 25, 32), (4, 53, 32), (128, 5, 16)])
def test_normal_cdf_is_half_of_one_plus_erf(shape):
    """GELU's Phi at the model's shapes equals (1 + erf(z / sqrt 2)) / 2
    bitwise, with a spread wide enough to reach every branch."""
    z = np.random.default_rng(len(shape)).standard_normal(shape) * 3.0
    z.flat[:4] = [np.inf, -1e300, 9.0, -0.0]
    expected = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
    got = normal_cdf(z)
    assert got.shape == shape
    assert got.tobytes() == expected.tobytes()


def test_gradcheck_runs_without_scipy():
    """The package, and a whole certification run, import no scipy module."""
    code = ("import sys\n"
            "import sectsum\n"
            "from sectsum import cli\n"
            "assert cli.run(['gradcheck']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.strip().splitlines()[-1] == "[]"
