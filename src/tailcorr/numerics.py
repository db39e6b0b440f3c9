"""Special functions, adaptive quadrature, and numerical differentiation.

This module is the shared numerical floor of the package:

* error-function family (``erf``, ``erfc``, ``erf_inv``, ``erfc_inv``) with
  strict domain checking; ``erfc_inv`` stays finite down to the smallest
  subnormal,
* modified Bessel function of the second kind ``bessel_k``,
* ``quadrature``: adaptive Gauss-Kronrod integration on finite or
  right-infinite intervals, with declared algebraic endpoint singularities
  removed by an explicit variable change,
* ``num_derivative``: central finite differences with Richardson
  extrapolation and refusal near caller-declared kinks.

Both rest on batched NumPy engines.  ``_integrate``, which the rest of
the package also calls directly, applies QUADPACK's G10/K21 rule to a
whole batch of integrals: each pass evaluates the integrand once, on
every unconverged panel of every integral; ``quadrature`` runs it on a
batch of one.  ``_ridders`` evaluates the whole step ladder of many
abscissae in one call; ``num_derivative`` is its only entry point, at a
float or at every entry of an array.  Both call their argument on the
whole ladder or panel set when it takes arrays, and float by float
otherwise.

All functions are pure and reentrant; there is no shared mutable state.
Every function of distance follows one float rule (``_float_rule``): a
float yields a Python float and an array an ndarray of its shape, a
one-element array included.  A function that also estimates its error,
as ``num_derivative`` does, gives a :class:`SpecialFnResult` for a float
and (values, abs_error_estimates) arrays for an array.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special as _special

from .errors import DomainError, KinkError, QuadratureError

__all__ = [
    "SpecialFnResult",
    "erf",
    "erfc",
    "erf_inv",
    "erfc_inv",
    "bessel_k",
    "quadrature",
    "num_derivative",
    "kappa_d",
    "beta_d",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SpecialFnResult:
    """A numerical value together with an absolute error estimate.

    Invariants: ``abs_error_estimate`` is finite and non-negative; ``value``
    is finite for in-domain inputs.
    """

    value: float
    abs_error_estimate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.abs_error_estimate) or self.abs_error_estimate < 0:
            raise DomainError(
                f"abs_error_estimate must be finite and >= 0, got {self.abs_error_estimate!r}"
            )

    def __float__(self) -> float:
        return float(self.value)


def _float_rule(func: Callable | None = None, *, at: int = 0,
                result: bool = False) -> Callable:
    """``func``, written for an array of distances as its positional
    argument ``at``, as a function of floats and arrays.

    A float is evaluated as a one-element array and comes back as a Python
    float, so it gets the bits of the same entry of an array: NumPy may
    round an operation on a scalar differently.  An array, a one-element
    one included, comes back as an ndarray of its shape.  The distance may
    also be passed by keyword.  Under ``result``, ``func`` returns
    (values, abs_error_estimates), two flat arrays or two of the distance's
    shape: a float gives a :class:`SpecialFnResult` and an array the pair
    of arrays.  Used bare or as ``@_float_rule(...)``.
    """
    if func is None:
        return functools.partial(_float_rule, at=at, result=result)
    name = None

    @functools.wraps(func)
    def evaluate(*args, **kwargs):
        nonlocal name
        if len(args) > at:
            arr = np.asarray(args[at], dtype=float)
            out = func(*args[:at], np.atleast_1d(arr), *args[at + 1:],
                       **kwargs)
        else:
            name = name or list(inspect.signature(func).parameters)[at]
            if name not in kwargs:
                # Python names the missing argument.
                return func(*args, **kwargs)
            arr = np.asarray(kwargs[name], dtype=float)
            out = func(*args, **{**kwargs, name: np.atleast_1d(arr)})
        if result:
            values, errors = out
            if arr.ndim == 0:
                return SpecialFnResult(float(values[0]), float(errors[0]))
            return values.reshape(arr.shape), errors.reshape(arr.shape)
        out = np.asarray(out, dtype=float).reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out

    return evaluate


def _reject(arr: np.ndarray, bad: np.ndarray, message: str) -> None:
    """Raise DomainError with ``message`` and the first entry of ``arr``
    where ``bad`` holds, if there is one."""
    if bad.any():
        raise DomainError(f"{message}, got {float(arr[bad][0])!r}")


def _is_integer(value) -> bool:
    """A Python or NumPy integer; bool is not one here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, name: str, low: int, high: int | None = None,
             error: type[Exception] = DomainError) -> int:
    """``value`` as a Python int in ``low..high`` (unbounded above when
    ``high`` is None), or ``error`` naming the argument and the value
    passed.  NumPy integers are accepted; bool and floats are not."""
    if _is_integer(value) and low <= value and (high is None or value <= high):
        return int(value)
    span = f">= {low}" if high is None else f"in {low}..{high}"
    raise error(f"{name} must be an integer {span}, got {value!r}")


def kappa_d(d: int) -> float:
    """Volume of the d-dimensional unit ball, pi^{d/2} / Gamma(d/2 + 1)."""
    d = _integer(d, "d", 0)
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def beta_d(d: int) -> float:
    """The slope constant Gamma(d/2) / (sqrt(pi) Gamma((d+1)/2)).

    This is the (negative) derivative at 0 of the ball self-convolution
    kernel in d dimensions, and the slope of its turning-bands average.
    """
    d = _integer(d, "d", 1)
    return math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d + 1) / 2.0))


@_float_rule
def erf(x):
    """Error function erf(x) = (2/sqrt(pi)) int_0^x e^{-v^2} dv."""
    _reject(x, np.isnan(x), "x must not contain NaN")
    return _special.erf(x)


@_float_rule
def erfc(x):
    """Complementary error function erfc(x) = 1 - erf(x)."""
    _reject(x, np.isnan(x), "x must not contain NaN")
    return _special.erfc(x)


@_float_rule
def erf_inv(p):
    """Inverse of erf on (-1, 1).

    Satisfies erf(erf_inv(p)) = p to <= 1e-12 relative error.
    """
    _reject(p, ~(np.abs(p) < 1.0), "erf_inv requires p in (-1, 1)")
    return _special.erfinv(p)


@_float_rule
def erfc_inv(p):
    """Inverse of erfc on (0, 2).

    Finite on the whole open domain representable in floats: at the
    smallest subnormal, where the standard routine overflows, a few Newton
    steps solve log erfc(x) = log p instead.
    """
    _reject(p, ~((p > 0.0) & (p < 2.0)), "erfc_inv requires p in (0, 2)")
    out = _special.erfcinv(p)
    bad = ~np.isfinite(out)
    if np.any(bad):
        # log erfc(x) = log 2 + log_ndtr(-x sqrt 2), started from the
        # asymptote erfc(x) ~ exp(-x^2).
        log_p = np.log(p[bad])
        x = np.sqrt(-log_p)
        for _ in range(4):
            log_erfc = math.log(2.0) + _special.log_ndtr(-math.sqrt(2.0) * x)
            slope = 2.0 / math.sqrt(math.pi) * np.exp(-x * x - log_erfc)
            x = x + (log_erfc - log_p) / slope
        out[bad] = x
    return out


def bessel_k(nu, x):
    """Modified Bessel function of the second kind K_nu(x) for nu > 0, x > 0.

    Relative error <= 1e-10 (verified in the tests against direct quadrature
    of the integral representation K_nu(x) = int_0^inf e^{-x cosh u} cosh(nu u) du).
    """
    nu_arr, x_arr = np.broadcast_arrays(np.asarray(nu, dtype=float),
                                        np.asarray(x, dtype=float))
    _reject(nu_arr, ~(nu_arr > 0), "bessel_k requires nu > 0")
    _reject(x_arr, ~(x_arr > 0), "bessel_k requires x > 0")
    return _float_rule(lambda xs: _special.kv(nu_arr.reshape(xs.shape), xs)
                       )(x_arr)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def _lift(func: Callable[[float], float]) -> Callable:
    """Lift a scalar-only callable to floats and arrays, element by element."""
    return _float_rule(
        lambda arr: [float(func(float(v))) for v in arr.ravel()])


def _array_callable(func: Callable) -> Callable:
    """``func`` as a function of arrays.

    Each call hands ``func`` the whole array first.  If that raises, or does
    not give back one value per point, the call is answered float by float
    instead, and so is every later call.  ``func`` is thus only tried at
    points the caller evaluates anyway: the adapter raises exactly where
    the float-by-float evaluation raises.
    """
    scalar_only = False

    def adapted(x):
        nonlocal scalar_only
        arr = np.asarray(x, dtype=float)
        if not scalar_only:
            try:
                out = func(arr)
                if np.shape(out) == arr.shape:
                    return np.asarray(out, dtype=float)
            except Exception:
                # Whatever the floats raise still surfaces below.
                pass
            scalar_only = True
        return _lift(func)(arr)

    return adapted


def _once_per_node(func: Callable, x: np.ndarray) -> np.ndarray:
    """``func`` on an array of abscissae, called once on their distinct
    values: the integrals of a batch start from the same panels, so a
    factor that depends on x alone repeats across them."""
    distinct, where = np.unique(x, return_inverse=True)
    return np.asarray(func(distinct), dtype=float)[where.ravel()].reshape(
        x.shape)


#: Panel budget of one integral.
_QUAD_LIMIT = 200

#: Most panels one integrand call evaluates (21 nodes each); a larger pass is
#: evaluated in chunks, which bounds the integrand's temporaries.
_CHUNK_PANELS = 2048

# The QUADPACK qk21 rule on [-1, 1]: 21 Kronrod nodes, of which the odd
# positions carry the embedded 10-point Gauss rule.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208034640323, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK_CENTER = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_NODES = np.array([-x for x in _XGK] + [0.0] + list(_XGK[::-1]))
_KRONROD = np.array(list(_WGK) + [_WGK_CENTER] + list(_WGK[::-1]))
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[19:10:-2] = _WG
_UFLOW = float(np.finfo(float).tiny)


def _row_dot(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # einsum sums each row alike wherever it sits in the batch, so a value
    # does not depend on the other integrals of its batch.
    return np.einsum("ij,j->i", values, weights)


def _kronrod_panels(f: Callable, lo, hi, owner, maps
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The qk21 value and error estimate of each panel [lo, hi] of the
    computational variable y, in one call of f.  ``maps`` is None when every
    panel has x = y, else (origin, sign, power, infinite): x = origin +
    sign * y^power, or x = origin + (1 - y) / y on an infinite panel."""
    half = 0.5 * (hi - lo)
    y = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    x, jac = y, None
    with np.errstate(all="ignore"):
        if maps is not None:
            origin, sign, power, infinite = maps
            x, jac = y.copy(), np.ones_like(y)
            bent = np.flatnonzero(power != 1.0)
            if bent.size:
                # One exponent per node: NumPy squares exactly when the
                # exponent is a single 2 and takes pow otherwise, so a
                # broadcast one would tie the bits to the panel count.
                yb = y[bent]
                pb = np.repeat(power[bent], y.shape[1]).reshape(yb.shape)
                x[bent] = origin[bent, None] + sign[bent, None] * yb ** pb
                jac[bent] = pb * yb ** (pb - 1.0)
            far = np.flatnonzero(infinite)
            if far.size:
                yf = y[far]
                x[far] = origin[far, None] + (1.0 - yf) / yf
                jac[far] = 1.0 / (yf * yf)
        fv = np.asarray(f(x, owner[:, None]), dtype=float)
        fv = np.broadcast_to(fv, y.shape) if jac is None else fv * jac
        resk = _row_dot(fv, _KRONROD)
        scale = np.abs(half)
        err = np.abs((resk - _row_dot(fv, _GAUSS)) * half)
        resabs = _row_dot(np.abs(fv), _KRONROD) * scale
        resasc = _row_dot(np.abs(fv - 0.5 * resk[:, None]), _KRONROD) * scale
        # QUADPACK's grading of |K - G| and its round-off floor.
        graded = np.where((resasc != 0.0) & (err != 0.0), resasc * np.minimum(
            1.0, (200.0 * err / resasc) ** 1.5), err)
        err = np.where(resabs > _UFLOW / (50.0 * _EPS),
                       np.maximum(50.0 * _EPS * resabs, graded), graded)
    return resk * half, err


def _segments(a, b, alpha, beta, points):
    """Initial panels of each integral: its interval cut at the hint points,
    with the endpoint variable changes on the first and last piece.
    Returns (lo, hi, owner, maps) as :func:`_kronrod_panels` takes them."""
    pts = np.asarray(points, dtype=float)
    cuts = []
    if pts.size:
        if pts.ndim > 2:
            raise DomainError(f"points must be one row or one row per "
                              f"integral, got shape {pts.shape}")
        pts = pts.reshape(1, -1) if pts.ndim <= 1 else pts
        inside = (pts > a[:, None]) & (pts < b[:, None])
        cuts.append(np.where(inside, pts, np.nan))
    singular_a, singular_b = alpha != 0.0, beta != 0.0
    infinite_b = np.isinf(b)
    if singular_a.any() or infinite_b.any():
        # A piece carries at most one variable change: split an interval
        # with two singular ends at its middle, and one reaching infinity
        # after a unit head, so that the map of the tail, whose resolution
        # near its origin is only absolute, stays away from the lower end.
        bare = ~np.any(inside, axis=1) if pts.size else True
        cuts.append(np.where(bare & singular_a & singular_b, 0.5 * (a + b),
                             np.where(bare & infinite_b, a + 1.0,
                                      np.nan))[:, None])
    if cuts:
        cut = np.sort(np.concatenate(cuts, axis=1), axis=1)
        count = np.sum(~np.isnan(cut), axis=1)
        lefts = np.concatenate([a[:, None], cut], axis=1)
        rights = np.concatenate([np.where(np.isnan(cut), b[:, None], cut),
                                 b[:, None]], axis=1)
        col = np.arange(lefts.shape[1])
        owner, col = np.nonzero((col <= count[:, None]) & (b > a)[:, None])
        left, right = lefts[owner, col], rights[owner, col]
        first, last = col == 0, col == count[owner]
    else:
        owner = np.flatnonzero(b > a)
        left, right = a[owner], b[owner]
        first = last = True
    head = first & singular_a[owner]
    tail = last & singular_b[owner]
    infinite = last & infinite_b[owner]
    bent = head | tail
    if not (np.any(bent) or np.any(infinite)):
        return left, right, owner, None
    lo, hi = left.copy(), right.copy()
    origin = np.where(tail, right, np.where(infinite | head, left, 0.0))
    sign = np.where(tail, -1.0, 1.0)
    # x = a + y^p with p = 1/(1 + alpha) turns (x - a)^alpha into y^0, and
    # x = b - y^p does so at the upper end.
    power = 1.0 / (1.0 + np.where(head, alpha[owner],
                                  np.where(tail, beta[owner], 0.0)))
    lo[bent] = 0.0
    hi[bent] = (right[bent] - left[bent]) ** (1.0 / power[bent])
    # x = c + (1 - y)/y maps y in (0, 1] onto [c, inf).
    lo[infinite], hi[infinite] = 0.0, 1.0
    return lo, hi, owner, (origin, sign, power, infinite)


def _integrate(f: Callable, a, b, tol: float, *, singular_exponent_a=0.0,
               singular_exponent_b=0.0, points=()
               ) -> tuple[np.ndarray, np.ndarray]:
    """A batch of integrals of ``f`` over (a_i, b_i), adaptively.

    ``f(x, k)`` takes an array of abscissae and a broadcastable integer
    array ``k`` naming the integral each belongs to, and returns the
    integrand there.  ``a``, ``b`` and the singular exponents broadcast to
    one entry per integral; ``points`` is one row of hints shared by all
    integrals or one row per integral (hints outside (a_i, b_i) and NaN are
    ignored).  An exponent alpha declares behavior like (x - a)^alpha,
    removed by the change x = a + y^(1/(1+alpha)).  Under alpha = -1/2 that
    is x = a + y^2, which also smooths an integrand that is a smooth
    function of sqrt(x - a), such as a square-root cusp.

    Each pass evaluates ``f`` once, on every new panel of every integral
    (G10/K21 rule, QUADPACK error estimate), then bisects, in each integral
    whose error sum exceeds ``max(tol, tol*|value|)``, every panel whose
    error is at least its share of that target; at most ``_QUAD_LIMIT``
    panels per integral.  Returns (values, abs_error_estimates); raises
    :class:`~tailcorr.errors.QuadratureError` naming the first integral
    that did not converge.
    """
    # One integral per entry of the broadcast limits and exponents, and per
    # row of a two-dimensional ``points``.
    pts = np.asarray(points, dtype=float)
    rows = np.zeros(pts.shape[:1] if pts.ndim == 2 else ())
    a, b, alpha, beta, _ = (np.ravel(v) for v in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a, b, singular_exponent_a,
                                                singular_exponent_b)), rows))
    if not np.all(np.isfinite(a)):
        raise DomainError(f"lower limit must be finite, got "
                          f"{a[~np.isfinite(a)][0]!r}")
    if np.any(np.isnan(b)):
        raise DomainError("upper limit must not be NaN")
    if np.any(b < a):
        i = int(np.argmax(b < a))
        raise DomainError(f"upper limit {b[i]!r} below lower limit {a[i]!r}")
    if tol <= 0 or not math.isfinite(tol):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    for name, exps in (("singular_exponent_a", alpha),
                       ("singular_exponent_b", beta)):
        bad = ~((exps > -1.0) & (exps <= 0.0))
        if bad.any():
            raise DomainError(f"{name} must lie in (-1, 0], got "
                              f"{exps[bad][0]!r}")
    if np.any((beta != 0.0) & np.isinf(b)):
        raise DomainError("singular_exponent_b requires a finite upper limit")

    n = a.size
    lo, hi, owner, maps = _segments(a, b, alpha, beta, pts)
    value = np.zeros(lo.size)
    error = np.zeros(lo.size)
    fresh = np.arange(lo.size)
    stuck = np.zeros(n, dtype=bool)
    while True:
        for start in range(0, fresh.size, _CHUNK_PANELS):
            idx = fresh[start:start + _CHUNK_PANELS]
            value[idx], error[idx] = _kronrod_panels(
                f, lo[idx], hi[idx], owner[idx],
                None if maps is None else tuple(m[idx] for m in maps))
        total = np.bincount(owner, weights=value, minlength=n)
        total_err = np.bincount(owner, weights=error, minlength=n)
        target = tol * np.maximum(1.0, np.abs(total))
        broken = ~np.isfinite(total + total_err)
        open_ = (total_err > target) & ~broken & ~stuck
        if not open_.any():
            break
        # Bisect every splittable panel of an open integral whose error is
        # at least its share of the target; within the panel budget, the
        # panels of largest error go first.
        count = np.bincount(owner, minlength=n)
        want = open_[owner] & (error * count[owner] >= target[owner]) & (
            hi - lo > 100.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))
        over = np.bincount(owner[want], minlength=n) > _QUAD_LIMIT - count
        if over.any():
            ranked = np.flatnonzero(want & over[owner])
            ranked = ranked[np.lexsort((-error[ranked], owner[ranked]))]
            who = owner[ranked]
            first = np.searchsorted(who, who)
            want[ranked[np.arange(who.size) - first
                        >= _QUAD_LIMIT - count[who]]] = False
        split = np.flatnonzero(want)
        stuck |= open_ & (np.bincount(owner[split], minlength=n) == 0)
        fresh = split
        if not split.size:
            continue
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([hi, hi[split]])
        hi[split] = mid
        owner = np.concatenate([owner, owner[split]])
        if maps is not None:
            maps = tuple(np.concatenate([m, m[split]]) for m in maps)
        value = np.concatenate([value, np.zeros(split.size)])
        error = np.concatenate([error, np.zeros(split.size)])
        fresh = np.concatenate([split, np.arange(lo.size - split.size,
                                                 lo.size)])
    failed = broken | (total_err > target)
    if failed.any():
        i = int(np.argmax(failed))
        if broken[i]:
            raise QuadratureError(
                f"quadrature produced a non-finite value on ({a[i]}, {b[i]})",
                value=float(total[i]), abs_error_estimate=float(total_err[i]))
        raise QuadratureError(
            f"quadrature did not converge on ({a[i]}, {b[i]}): "
            f"value={float(total[i])!r}, error estimate {total_err[i]:.3e} "
            f"exceeds tol {tol:.3e}",
            value=float(total[i]), abs_error_estimate=float(total_err[i]))
    return total, total_err


def quadrature(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    singular_exponent_a: float = 0.0,
    singular_exponent_b: float = 0.0,
    points: Sequence[float] = (),
) -> SpecialFnResult:
    """Integrate ``f`` over (a, b) adaptively (Gauss-Kronrod core).

    Parameters
    ----------
    f:
        Integrand, a callable of one float or of arrays, evaluable on the
        open interval.
    a, b:
        Limits; ``b`` may be ``math.inf``. ``a`` must be finite.
    tol:
        Target absolute error. If the adaptive scheme cannot certify
        ``abs_error_estimate <= max(tol, tol*|value|)``, a
        :class:`~tailcorr.errors.QuadratureError` is raised (never silent).
    singular_exponent_a, singular_exponent_b:
        Declared algebraic endpoint behavior: the integrand behaves like
        ``(x-a)^alpha`` (resp. ``(b-x)^beta``) with exponent in (-1, 0].
        Non-zero exponents trigger an explicit variable change that removes
        the singularity before the adaptive pass.
    points:
        Interior abscissae of known kinks/peaks, forwarded as subdivision
        hints.

    Returns
    -------
    SpecialFnResult with the value and the scheme's absolute error estimate.

    This is the batched engine on a batch of one integral.  ``f`` is
    called on every new panel set at once when it takes arrays, and float
    by float otherwise.
    """
    adapted = _array_callable(f)
    values, errors = _integrate(
        lambda x, k: adapted(x), float(a), float(b), tol,
        singular_exponent_a=singular_exponent_a,
        singular_exponent_b=singular_exponent_b,
        points=[float(p) for p in points])
    return SpecialFnResult(float(values[0]), float(errors[0]))


# ---------------------------------------------------------------------------
# Numerical differentiation
# ---------------------------------------------------------------------------

# Central stencils of second-order accuracy: (offsets, weights, power of h).
# Even orders are plain central binomial differences; odd orders are the
# averaged (smoothed) half-integer differences, which keeps the offsets on
# the integer grid at the same O(h^2) accuracy.  Offsets and weights are
# arrays, built once.
_STENCILS = {order: (np.array(offsets), np.array(weights), hpow)
             for order, (offsets, weights, hpow) in {
    1: ((-1.0, 1.0), (-0.5, 0.5), 1),
    2: ((-1.0, 0.0, 1.0), (1.0, -2.0, 1.0), 2),
    3: ((-2.0, -1.0, 1.0, 2.0), (-0.5, 1.0, -1.0, 0.5), 3),
    4: ((-2.0, -1.0, 0.0, 1.0, 2.0), (1.0, -4.0, 6.0, -4.0, 1.0), 4),
    5: ((-3.0, -2.0, -1.0, 1.0, 2.0, 3.0),
        (-0.5, 2.0, -2.5, 2.5, -2.0, 0.5), 5),
    6: ((-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0),
        (1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0), 6),
    7: ((-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0),
        (-0.5, 3.0, -7.0, 7.0, -7.0, 7.0, -3.0, 0.5), 7),
    8: ((-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0),
        (1.0, -8.0, 28.0, -56.0, 70.0, -56.0, 28.0, -8.0, 1.0), 8),
}.items()}
#: Largest |offset| of each order's stencil.
_STENCIL_REACH = {order: int(offsets[-1])
                  for order, (offsets, _, _) in _STENCILS.items()}


def _worst_midpoint_gap(f: Callable, xs: Sequence[float]
                        ) -> tuple[float, float, float, float]:
    """Largest gap ``f((a+b)/2) - (f(a)+f(b))/2`` over consecutive points
    a < b of an increasing grid, as (gap, a, mid, b) in Python floats.

    ``f`` takes arrays; it is called once on the grid and once on the
    midpoints.  The first of equal gaps wins and NaN gaps are skipped; with
    no comparable gap the result is ``(-inf, xs[0], xs[0], xs[0])``.
    """
    grid = np.asarray(xs, dtype=float)
    mids = 0.5 * (grid[:-1] + grid[1:])
    vals = f(grid)
    gaps = f(mids) - 0.5 * (vals[:-1] + vals[1:])
    ranked = np.where(np.isnan(gaps), -math.inf, gaps)
    if not np.any(ranked > -math.inf):
        return (-math.inf, float(grid[0]), float(grid[0]), float(grid[0]))
    i = int(np.argmax(ranked))
    return (float(gaps[i]), float(grid[i]), float(mids[i]),
            float(grid[i + 1]))


@functools.cache
def _tableau(depth: int) -> tuple[np.ndarray, ...]:
    """Plan of Ridders' table of ``depth`` rungs, built once per depth.
    The table's entries (i, j), rung i and extrapolation j <= i, lie column
    by column, (j, j) to (depth - 1, j) for each j in turn; the plan
    indexes them there.

    It holds the candidates, (0, 0) and then the entries (i, j) with
    1 <= j <= i in the order the scheme visits them; the parents (i, j - 1)
    and (i - 1, j - 1) and the rung i - 1 of each entry; the diagonal
    (i, i) for 0 <= i < depth; the rungs 1..depth-1; and the candidate
    that ends each rung."""
    def at(i, j):
        return j * depth - j * (j - 1) // 2 + i - j

    i_idx, j_idx = np.array([(i, j) for i in range(1, depth)
                             for j in range(1, i + 1)], dtype=int).T
    rung, diagonal = np.arange(1, depth), np.arange(depth)
    plan = (np.concatenate([[0], at(i_idx, j_idx)]), at(i_idx, j_idx - 1),
            at(i_idx - 1, j_idx - 1), i_idx - 1, at(diagonal, diagonal),
            rung, np.cumsum(rung))
    for part in plan:
        part.flags.writeable = False
    return plan


def _richardson(stencil: np.ndarray, con: np.ndarray, rungs: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Best entry and its error of the Richardson table over each row of
    ``stencil`` (one rung per column, step ratio ``con``, ``rungs`` valid
    columns), as Ridders' scheme picks it."""
    n, depth = stencil.shape
    pick, left, up, row, diagonal, rung, ends = _tableau(depth)
    fac = np.empty((depth - 1, n, 1))
    errs = np.empty((n, pick.size))
    live = np.empty((n, depth - 1), dtype=bool)
    taken = np.empty((n, pick.size), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # fac[j - 1] = con^(2j), a product of j factors con^2 in turn.
        fac[:] = (con * con)[:, None]
        np.multiply.accumulate(fac, axis=0, out=fac)
        # Column j of the table, over its rungs j..depth-1, from column
        # j - 1; then all columns end to end.
        columns = [stencil]
        for scale, less in zip(fac, fac - 1.0):
            prev = columns[-1]
            columns.append((prev[:, 1:] * scale - prev[:, :-1]) / less)
        flat = np.concatenate(columns, axis=1)
        # Each candidate with its error: the base stencil value, kept with
        # an infinite error when no entry qualifies, then the entries.
        cand = flat.take(pick, axis=1)
        entry = cand[:, 1:]
        errs[:, 0] = math.inf
        np.maximum(np.abs(entry - flat.take(left, axis=1)),
                   np.abs(entry - flat.take(up, axis=1)), out=errs[:, 1:])
        # The running best error, which an entry replaces when it is no
        # larger (NaN never does); after each rung i > 1, refinement stops
        # once the new diagonal moved by twice the best error (round-off).
        running = np.fmin.accumulate(errs, axis=1)
        diag = flat.take(diagonal, axis=1)
        stop = (np.abs(diag[:, 1:] - diag[:, :-1])
                >= 2.0 * running.take(ends, axis=1))
        stop[:, 0] = False
        live[:, 0] = True
        np.logical_not(np.logical_or.accumulate(stop[:, :-1], axis=1),
                       out=live[:, 1:])
        live &= rungs[:, None] > rung
        taken[:, 0] = True
        np.logical_and(live.take(row, axis=1), errs[:, 1:] <= running[:, :-1],
                       out=taken[:, 1:])
        last = pick.size - 1 - taken[:, ::-1].argmax(axis=1)
        rows = np.arange(n)
        return cand[rows, last], errs[rows, last]


def _ridders(f: Callable, x: np.ndarray, order: int, h: np.ndarray, *,
             gaps: Sequence[np.ndarray] = (), levels: int = 5
             ) -> tuple[np.ndarray, np.ndarray]:
    """Ridders' scheme for the order-k derivative of an array ``f`` at each
    abscissa of ``x``, with base steps ``h`` (same shape).

    Each abscissa gets a ladder of steps descending from a large initial
    step to h, with Richardson extrapolation across the ladder; the entry
    with the smallest estimated error wins.  Starting large (rather than
    halving below h) keeps round-off, which scales like eps/step^order, in
    check.  The ladder top shrinks so no stencil point crosses a declared
    kink; ``gaps`` holds the distance |x - kink| of each.  The whole ladder
    of every abscissa is one call of ``f``.
    Returns (values, abs_error_estimates); raises
    :class:`~tailcorr.errors.QuadratureError` on a non-finite value.
    """
    offsets, weights, hpow = _STENCILS[order]
    big = h * 2.0 ** (levels - 1)
    for gap in gaps:
        big = np.minimum(big, 0.5 * gap / _STENCIL_REACH[order])
    big = np.maximum(big, h)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = big / h
        # One rung where big = h (or is NaN); elsewhere floor(log2(ratio))
        # + 1 is at least 1.
        rungs = np.fmax(np.minimum(np.floor(np.log2(ratio)) + 1, levels), 1.0)
        con = np.where(rungs > 1, ratio ** (1.0 / (rungs - 1)), 1.0)
    depth = int(rungs.max(initial=1))
    steps = big[:, None] / con[:, None] ** np.arange(depth)
    terms = f(x[:, None, None] + offsets * steps[:, :, None]) * weights
    acc = terms[..., 0] + terms[..., 1]
    for j in range(2, terms.shape[-1]):
        acc += terms[..., j]
    stencil = acc / steps ** hpow
    if depth > 1:
        best, best_err = _richardson(stencil, con, rungs)
    else:
        best, best_err = stencil[:, 0], np.full(x.shape, math.inf)
    finite = np.isfinite(best)
    if not finite.all():
        raise QuadratureError(
            f"num_derivative failed at x={float(x[~finite][0])}")
    np.maximum(np.abs(best), 1.0, out=best_err, where=~np.isfinite(best_err))
    return best, best_err


@_float_rule(at=1, result=True)
def num_derivative(
    f: Callable[[float], float],
    x,
    order: int,
    h=None,
    *,
    kinks: Sequence[float] = (),
    levels: int = 5,
):
    """k-th derivative of ``f`` at ``x`` (k = 1..8) by central differences.

    A float ``x`` gives a :class:`SpecialFnResult`; an array gives
    (values, abs_error_estimates), arrays of its shape, and ``h``, when
    given, may be one step per entry.

    Error bars grow quickly with the order (round-off scales like
    eps / h^k); callers probing high orders must treat values whose
    magnitude is comparable to the error estimate as sign-indeterminate.

    A Richardson table over a ladder of steps is built and the entry with
    the smallest estimated error is returned, together with that estimate
    (Ridders' scheme).  ``f`` is called once on the ladders of every entry
    when it takes arrays, and float by float otherwise.

    The default step is ``eps^(1/(order+2)) * max(1, |x|)``.

    Raises :class:`~tailcorr.errors.KinkError` when the stencil would straddle
    or touch a caller-declared kink abscissa; derivatives across kinks are
    meaningless and the caller must use one-sided logic instead.  It names
    the first such entry of ``x``.
    """
    order = _integer(order, "order", 1, max(_STENCILS))
    levels = _integer(levels, "levels", 1)
    flat = x.ravel()
    if h is None:
        step = _EPS ** (1.0 / (order + 2)) * np.maximum(1.0, np.abs(flat))
    else:
        step = np.broadcast_to(np.asarray(h, dtype=float), x.shape).ravel()
    if not ((step > 0) & np.isfinite(step)).all():
        raise DomainError(f"step h must be positive and finite, got {h!r}")
    reach = _STENCIL_REACH[order]
    gaps = [np.abs(flat - kink) for kink in kinks]
    for kink, gap in zip(kinks, gaps):
        near = gap <= reach * step
        if near.any():
            i = int(np.argmax(near))
            raise KinkError(
                f"num_derivative at x={flat[i]} (order {order}, step "
                f"{step[i]:.3e}) would cross the declared kink at {kink}",
                x=float(flat[i]), kink=kink)
    return _ridders(_array_callable(f), flat, order, step, gaps=gaps,
                    levels=levels)


def _radial_derivatives(f: Callable, x: np.ndarray, order: int, *,
                        kinks: Sequence[float] = ()) -> np.ndarray:
    """:func:`num_derivative` values of ``f`` at x > 0 with no stencil point
    at or below 0.  Where the default ladder (five rungs, the top 16 steps
    out) would reach 0, 0 acts as a kink, and a base step that alone
    reaches 0 shrinks to half the distance."""
    _reject(x, ~(x > 0), "r must be > 0")
    reach = _STENCIL_REACH[order]
    step = _EPS ** (1.0 / (order + 2)) * np.maximum(1.0, x)
    near = reach * 16.0 * step >= x
    step = np.where(reach * step >= x, 0.5 * x / reach, step)
    out = np.empty(x.shape)
    out[~near] = num_derivative(f, x[~near], order, kinks=kinks)[0]
    if near.any():
        out[near] = num_derivative(f, x[near], order, step[near],
                                   kinks=(0.0, *kinks))[0]
    return out
