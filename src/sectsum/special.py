"""The error function in numpy, for GELU's normal CDF.

A port of fdlibm's piecewise rational ``erf`` (Sun Microsystems, 1993,
``s_erf.c``), whose intervals follow W. J. Cody, *Rational Chebyshev
approximations for the error function*, Math. Comp. 23 (1969):

- |x| < 0.84375: erf(x) = x + x R(x^2) / S(x^2);
- 0.84375 <= |x| < 1.25: erf(x) = erx + P(s) / Q(s), s = |x| - 1;
- 1.25 <= |x| < 6: erf(x) = 1 - exp(-x^2 - 0.5625 + R(1/x^2) / S(1/x^2)) / |x|,
  with one (R, S) pair below 1/0.35 and another above it;
- |x| >= 6: erf(x) = 1 to double precision;

each odd in x. Within 1 ulp of ``math.erf`` (checked in the tests).

GELU's arrays hold thousands of entries, so the kernel is built for few
numpy calls: the first branch runs over the whole array in place, and one
gather takes the entries with |x| >= 0.84375 (about a quarter of them for
unit-normal GELU inputs) through the other branches together. Inputs are
clamped to [-6, 6] first, which gives +-1 beyond 6 and keeps x^2 finite;
NaN passes through.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erf", "normal_cdf"]

# Coefficients, highest degree first (fdlibm's names in the comments).
_ERX = 8.45062911510467529297e-01
# erf(x) = x + x R(z) / S(z), z = x^2, |x| < 0.84375 (pp, qq)
_R_SMALL = (-2.37630166566501626084e-05, -5.77027029648944159157e-03,
            -2.84817495755985104766e-02, -3.25042107247001499370e-01,
            1.28379167095512558561e-01)
_S_SMALL = (-3.96022827877536812320e-06, 1.32494738004321644526e-04,
            5.08130628187576562776e-03, 6.50222499887672944485e-02,
            3.97917223959155352819e-01, 1.0)
# erf(x) = erx + P(s) / Q(s), s = |x| - 1, 0.84375 <= |x| < 1.25 (pa, qa)
_P_MID = (-2.16637559486879084300e-03, 3.54783043256182359371e-02,
          -1.10894694282396677476e-01, 3.18346619901161753674e-01,
          -3.72207876035701323847e-01, 4.14856118683748331666e-01,
          -2.36211856075265944077e-03)
_Q_MID = (1.19844998467991074170e-02, 1.36370839120290507362e-02,
          1.26171219808761642112e-01, 7.18286544141962662868e-02,
          5.40397917702171048937e-01, 1.06420880400844228286e-01, 1.0)
# erfc(x) = exp(-x^2 - 0.5625 + R(s) / S(s)) / x, s = 1/x^2,
# 1.25 <= |x| < 1/0.35 (ra, sa)
_R_TAIL = (-9.81432934416914548592e+00, -8.12874355063065934246e+01,
           -1.84605092906711035994e+02, -1.62396669462573470355e+02,
           -6.23753324503260060396e+01, -1.05586262253232909814e+01,
           -6.93858572707181764372e-01, -9.86494403484714822705e-03)
_S_TAIL = (-6.04244152148580987438e-02, 6.57024977031928170135e+00,
           1.08635005541779435134e+02, 4.29008140027567833386e+02,
           6.45387271733267880336e+02, 4.34565877475229228821e+02,
           1.37657754143519042600e+02, 1.96512716674392571292e+01, 1.0)
# the same, 1/0.35 <= |x| < 6 (rb, sb)
_R_FAR = (-4.83519191608651397019e+02, -1.02509513161107724954e+03,
          -6.37566443368389627722e+02, -1.60636384855821916062e+02,
          -1.77579549177547519889e+01, -7.99283237680523006574e-01,
          -9.86494292470009928597e-03)
_S_FAR = (-2.24409524465858183362e+01, 4.74528541206955367215e+02,
          2.55305040643316442583e+03, 3.19985821950859553908e+03,
          1.53672958608443695994e+03, 3.25792512996573918826e+02,
          3.03380607434824582924e+01, 1.0)

_SMALL_SQ = 0.84375 ** 2   # exact: 729/1024, so x*x >= it iff |x| >= 0.84375
_FAR = 1.0 / 0.35
# clears the low 32 bits of a double, so that t*t is exact below
_HIGH_WORD = np.uint64(0xFFFFFFFF00000000)


def _horner(coefs, v):
    """sum(coefs[k] v^(deg - k)) by Horner's rule, as a new array.
    Coefficients are scalars, or columns that evaluate one polynomial per
    row of ``v``."""
    acc = v * coefs[0]
    for c in coefs[1:-1]:
        acc += c
        acc *= v
    acc += coefs[-1]
    return acc


def _columns(*polys):
    """One coefficient column per polynomial, highest degree first; shorter
    ones are zero-padded at the top, which leaves their Horner values
    unchanged."""
    width = max(map(len, polys))
    return np.array([(0.0,) * (width - len(p)) + p for p in polys]).T[..., None]


_OUTER = _columns(_P_MID, _Q_MID, _R_TAIL, _S_TAIL)
_FAR_COLUMNS = _columns(_R_FAR, _S_FAR)


def erf(x):
    """The error function, elementwise, as a new float array of ``x``'s
    shape."""
    return _erf_clamping(np.array(x, dtype=float))


def _erf_clamping(clamped):
    """erf of a float array that this clamps to [-6, 6] in place first."""
    np.minimum(clamped, 6.0, out=clamped)  # NaN stays NaN
    np.maximum(clamped, -6.0, out=clamped)
    x = clamped.reshape(-1)
    sq = x * x
    big = np.flatnonzero(sq >= _SMALL_SQ)
    # |x| < 0.84375, over the whole array: x + x R(x^2) / S(x^2)
    out = _horner(_R_SMALL, sq)
    out /= _horner(_S_SMALL, sq)
    out *= x
    out += x
    if not big.size:
        return out.reshape(clamped.shape)
    xs = x[big]
    a = np.abs(xs)
    # Every gathered entry goes through P and Q in |x| - 1 and R and S in
    # 1/x^2, four rows of one Horner pass. Each form is finite on the other
    # interval, where R/S < 0 keeps exp from overflowing. Horner works
    # entry by entry, so no value depends on the other entries (a BLAS
    # product's would), and a batched forward pass equals its rows.
    v = np.empty((4, a.size))
    np.subtract(a, 1.0, out=v[0])
    v[1] = v[0]
    np.multiply(a, a, out=v[2])
    np.divide(1.0, v[2], out=v[2])
    v[3] = v[2]
    forms = _horner(_OUTER, v)
    if a.max() >= _FAR:   # rare: |z| >= 4 for GELU's z
        far = a >= _FAR
        forms[2:, far] = _horner(_FAR_COLUMNS, v[2:, far])
    ratios = forms[0::2]
    ratios /= forms[1::2]
    mid, tail = ratios
    # 1 - exp(-a^2 - 0.5625 + R/S) / a, with exp(-a^2) taken as
    # exp(-t^2) exp((t - a)(t + a)) and t*t exact
    t = (a.view(np.uint64) & _HIGH_WORD).view(float)
    e = t * t
    np.subtract(-0.5625, e, out=e)
    np.exp(e, out=e)
    d = t - a
    t += a
    d *= t
    d += tail
    np.exp(d, out=d)
    e *= d
    e /= a
    np.subtract(1.0, e, out=e)
    mid += _ERX
    val = np.where(a < 1.25, mid, e)
    out[big] = np.copysign(val, xs, out=val)
    return out.reshape(clamped.shape)


def normal_cdf(z):
    """Phi(z) = (1 + erf(z / sqrt 2)) / 2, elementwise: z / sqrt 2 is the
    array the kernel clamps, and the affine step runs in place on its
    output."""
    out = _erf_clamping(np.divide(z, math.sqrt(2.0)))
    out += 1.0
    out *= 0.5
    return out
