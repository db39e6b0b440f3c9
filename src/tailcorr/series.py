"""Truncated power series on arrays, with a rounding bound per coefficient.

A :class:`Series` of order m holds the Taylor coefficients c_0..c_m of a
function of s at each of n base points, as an array of shape (m + 1, n):
``coef[k]`` is f^(k)(x) / k! at every x at once.  Its ``bound``, of the
same shape, bounds the absolute error of each coefficient.

The operations are the forward-mode recurrences of Griewank & Walther,
*Evaluating Derivatives* (2nd ed., SIAM 2008, ch. 13): products, powers
of a shifted argument, exp, erfc through its ODE y' = -(2/sqrt pi)
e^(-a^2) a', and composition with a series whose constant term is 0.
Each one carries the magnitudes it sums: a coefficient that sums rounded
terms t_j adds gamma_N sum_j |t_j| to its bound, N the number of
roundings in the op (gamma_N = N u / (1 - N u), u the unit roundoff;
Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
sec. 3.1), and the bounds of its inputs propagate to first order through
the same sums taken over magnitudes.  So a coefficient that cancels gets
a bound as large as its terms, not as small as its value.  Values of
exp, pow and erfc at a base point are taken as accurate to a few units
in the last place.

A product sum_j a_j b_(k-j) is one ``einsum`` over three stacked
channels: a against b, gamma_N |a| + bound(a) against |b|, and |a|
against bound(b); the last two add up to the bound of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _special

_UNIT = 0.5 * float(np.finfo(float).eps)

#: Relative error allowed for a library value of exp, pow or erfc.
_LIBM_ULPS = 4.0 * _UNIT

_TWO_BY_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _gamma(n) -> float:
    """gamma_n = n u / (1 - n u) for n rounded operations in a row."""
    return n * _UNIT / (1.0 - n * _UNIT)


@dataclass(frozen=True)
class Series:
    """Taylor coefficients ``coef`` of orders 0..m at n base points, shape
    (m + 1, n), and ``bound``, a bound on the absolute error of each."""

    coef: np.ndarray
    bound: np.ndarray

    @property
    def order(self) -> int:
        return self.coef.shape[0] - 1


def _left(coef: np.ndarray, bound: np.ndarray, gamma: float) -> np.ndarray:
    """The channels of a left factor: value, gamma |value| + bound, and
    |value|."""
    out = np.empty((3,) + coef.shape)
    out[0] = coef
    np.abs(coef, out=out[2])
    np.multiply(out[2], gamma, out=out[1])
    out[1] += bound
    return out


def _right(s: Series) -> np.ndarray:
    """The channels of a right factor: value, |value| and bound.  Summed
    against a left factor, the second and third channels add up to the
    rounding bound of the sum and the bounds its inputs carry into it."""
    out = np.empty((3,) + s.coef.shape)
    out[0] = s.coef
    np.abs(s.coef, out=out[1])
    out[2] = s.bound
    return out


def _toeplitz(channels: np.ndarray) -> np.ndarray:
    """T[c, j, k] = channels[c, k - j] for k >= j and 0 below, so that
    sum_j a[j] T[c, j, k] is coefficient k of the product a b."""
    c, m, n = channels.shape
    out = np.zeros((c, m, m, n))
    for j in range(m):
        out[:, j, j:] = channels[:, :m - j]
    return out


def _product(left: np.ndarray, right_toeplitz: np.ndarray) -> Series:
    """The truncated product of a left factor's channels and a right
    factor's Toeplitz channels."""
    r = np.einsum("cjn,cjkn->ckn", left, right_toeplitz)
    return Series(r[0], r[1] + r[2])


def shifted_power(x0, p: float, order: int, rel_error=0.0) -> Series:
    """(x0 + s)^p in s at base points x0 > 0 (a flat array): coefficient k
    is binom(p, k) x0^p (1 / x0)^k.

    ``rel_error`` bounds the relative error of x0 itself; it moves
    coefficient k by |p - k| times as much, to first order.
    """
    x0 = np.asarray(x0, dtype=float)
    k = np.arange(order + 1.0)
    binom = np.cumprod(np.concatenate(([1.0], (p - k[1:] + 1.0) / k[1:])))
    coef = np.power(1.0 / x0, k[:, None])
    coef *= np.power(x0, p)
    coef *= binom[:, None]
    # binom: p - k, + 1, / k and the running product; 1 / x0 and its
    # power carry k + 1; the two products.
    rounding = ((2.0 * _LIBM_ULPS + _gamma(5.0 * k + 3.0))[:, None]
                + np.abs(p - k)[:, None] * rel_error)
    return Series(coef, np.abs(coef) * rounding)


def scale(a: Series, factor: float) -> Series:
    """``factor`` times the series; ``factor`` may itself be rounded once
    (as -1 / s is), and so is each product."""
    coef = factor * a.coef
    return Series(coef, abs(factor) * a.bound + _gamma(2) * np.abs(coef))


def mul(a: Series, b: Series) -> Series:
    """The product, truncated at the order of ``a`` and ``b``: coefficient
    k sums the k + 1 products a_j b_(k-j)."""
    return _product(_left(a.coef, a.bound, _gamma(a.order + 1)),
                    _toeplitz(_right(b)))


def _derivative_channels(a: Series, gamma: float) -> np.ndarray:
    """The left channels of a': coefficient j is (j + 1) a_(j+1) for
    j < m, and 0 at m, so the orders match."""
    j = np.arange(1.0, a.order + 1.0)[:, None]
    pad = np.zeros((1,) + a.coef.shape[1:])
    return _left(np.concatenate([j * a.coef[1:], pad]),
                 np.concatenate([j * a.bound[1:], pad]), gamma)


def exp(a: Series) -> Series:
    """e^a: b_0 = e^(a_0), and b_k = sum_(j=1..k) j a_j b_(k-j) / k from
    b' = a' b, coefficient by coefficient."""
    m = a.order
    # j a_j, the product, k - 1 additions and the division by k.
    left = _derivative_channels(a, _gamma(m + 2))
    out = np.empty((3,) + a.coef.shape)
    out[0, 0] = np.exp(a.coef[0])
    out[1, 0] = out[0, 0]
    out[2, 0] = out[0, 0] * (a.bound[0] + _LIBM_ULPS)
    for k in range(1, m + 1):
        r = np.einsum("cjn,cjn->cn", left[:, :k], out[:, k - 1::-1])
        out[0, k] = r[0] / k
        out[1, k] = np.abs(out[0, k])
        out[2, k] = (r[1] + r[2]) / k
    return Series(out[0], out[2])


def erfc(a: Series, square: Series | None = None) -> Series:
    """erfc(a) through its ODE, y' = -(2/sqrt pi) e^(-a^2) a': coefficient
    k >= 1 is -(2/sqrt pi) / k times coefficient k - 1 of a' e^(-a^2).

    ``square`` is a^2 when the caller has it in a better form (for
    a = (x + s)^p it is (x + s)^(2p)); the product a a by default.
    """
    w = exp(scale(square if square is not None else mul(a, a), -1.0))
    # Two roundings more than exp's: 2 / sqrt(pi) and the product.
    integrand = _product(_derivative_channels(a, _gamma(a.order + 4)),
                         _toeplitz(_right(w)))
    k = np.arange(1.0, a.order + 1.0)[:, None]
    first = _TWO_BY_SQRT_PI * w.coef[0] * a.bound[0]
    value = _special.erfc(a.coef[0])
    coef = np.concatenate([value[None], -_TWO_BY_SQRT_PI
                           * integrand.coef[:-1] / k])
    bound = np.concatenate([(first + _LIBM_ULPS * np.abs(value))[None],
                            _TWO_BY_SQRT_PI * integrand.bound[:-1] / k])
    return Series(coef, bound)


def compose(outer: Series, inner: Series) -> Series:
    """sum_k outer_k inner^k, truncated, for an ``inner`` series whose
    constant term is 0 (it is not read), by Horner's rule: the constant
    term of each step is the next outer coefficient, exact."""
    right = _right(inner)
    right[:, 0] = 0.0
    toeplitz = _toeplitz(right)
    gamma = _gamma(outer.order + 1)
    coef, bound = np.zeros_like(outer.coef), np.zeros_like(outer.bound)
    coef[0], bound[0] = outer.coef[-1], outer.bound[-1]
    for k in range(outer.order - 1, -1, -1):
        step = _product(_left(coef, bound, gamma), toeplitz)
        coef, bound = step.coef, step.bound
        coef[0], bound[0] = outer.coef[k], outer.bound[k]
    return Series(coef, bound)
