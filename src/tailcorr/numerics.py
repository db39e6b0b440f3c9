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
batch of one.  Each panel is one row of a float table (its ends and its
variable change) beside the index of its integral, so a pass takes its
panels with one index and a bisection appends its right halves with one
``concatenate``.  ``_ridders`` evaluates the whole step ladder of many
abscissae in one call; ``num_derivative`` runs it on every entry of an
array.  A float with a scalar or default step takes a float route,
``_ridders_at``, instead of a batch of one: the same ladder in one call
of the argument, with the checks and the Richardson table on Python
floats (``_ridders_pick``; ``_richardson`` runs that loop on all rows of
a batch at once).  Its fixed cost is a few one-element NumPy calls, not
a dozen per table entry, and it gives the bits of the same entry of an
array.  Both engines call their argument on the whole ladder or panel
set when it takes arrays, and float by float otherwise.  ``_segments``
builds the first pass's rows from one NaN-padded table of each
integral's ends and cuts.

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
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _special
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
            out = func(*args[:at], arr if arr.ndim else arr.reshape(1),
                       *args[at + 1:], **kwargs)
        else:
            name = name or list(inspect.signature(func).parameters)[at]
            if name not in kwargs:
                # Python names the missing argument.
                return func(*args, **kwargs)
            arr = np.asarray(kwargs[name], dtype=float)
            out = func(*args, **{**kwargs,
                                 name: arr if arr.ndim else arr.reshape(1)})
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
    if np.count_nonzero(bad):
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


def _real(value, name: str, low: float, high: float = math.inf, *,
          open_high: bool = False) -> float:
    """``value`` as a finite Python float with ``low < value <= high``
    (``value < high`` under ``open_high``), or DomainError naming the
    argument and the value passed.  NaN, +-inf and bool are refused."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and low < value
            and (value < high if open_high else value <= high)):
        return float(value)
    span = (f"in ({low:g}, {high:g}{')' if open_high else ']'}"
            if high < math.inf else f"finite and > {low:g}")
    raise DomainError(f"{name} must be {span}, got {value!r}")


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
    """``func`` on an array of abscissae, one panel of nodes per row (last
    axis), called once on each distinct panel: the integrals of a batch
    start from the same panels, so a factor that depends on x alone
    repeats across them.

    Rows are sorted by their first node, and a row equal to its sorted
    predecessor in every column takes that row's values, so no value is
    shared between nodes that differ.
    """
    rows = x.reshape(-1, x.shape[-1])
    order = np.argsort(rows[:, 0])
    ranked = rows[order]
    new = np.ones(len(ranked), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    out = np.empty(rows.shape)
    out[order] = np.asarray(func(ranked[new]), dtype=float)[
        np.cumsum(new) - 1]
    return out.reshape(x.shape)


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
#: QUADPACK's round-off floor: the error estimate of a panel is at least
#: ``_ROUNDOFF`` times the integral of |f| over it, once that integral
#: exceeds ``_ROUNDOFF_FLOOR``.
_ROUNDOFF = 50.0 * _EPS
_ROUNDOFF_FLOOR = float(np.finfo(float).tiny) / _ROUNDOFF

# Columns of the panel table, one row per panel: the panel [lo, hi] of the
# computational variable y and its map to the integration variable x,
# x = origin + sign * y^power, or x = origin + (1 - y)/y where infinite is
# 1.  A row of power 1 that is not infinite is not mapped: x = y.
_LO, _HI, _ORIGIN, _SIGN, _POWER, _INFINITE = range(6)
_IDENTITY = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 0.0])


def _row_dot(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # einsum sums each row alike wherever it sits in the batch, so a value
    # does not depend on the other integrals of its batch.
    return np.einsum("ij,j->i", values, weights)


def _bend(y: np.ndarray, tab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = origin + sign * y^power and its Jacobian at the nodes ``y`` of
    the panels ``tab``."""
    # One exponent per node: NumPy squares exactly when the exponent is a
    # single 2 and takes pow otherwise, so a broadcast one would tie the
    # bits to the panel count.
    pb = tab[:, _POWER].repeat(y.shape[1]).reshape(y.shape)
    return (tab[:, _ORIGIN, None] + tab[:, _SIGN, None] * y ** pb,
            pb * y ** (pb - 1.0))


def _kronrod_panels(f: Callable, tab: np.ndarray, owner: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The qk21 value and error estimate of each panel of the table ``tab``
    (rows of integrals ``owner``), in one call of f.  Runs under the
    caller's ``np.errstate``."""
    lo, hi = tab[:, _LO], tab[:, _HI]
    half = 0.5 * (hi - lo)
    y = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    bent = tab[:, _POWER] != 1.0
    far = tab[:, _INFINITE].nonzero()[0]
    x, jac = y, None
    if np.count_nonzero(bent) == len(tab):
        x, jac = _bend(y, tab)
    elif far.size or np.count_nonzero(bent):
        x, jac = y.copy(), np.ones_like(y)
        bent = bent.nonzero()[0]
        x[bent], jac[bent] = _bend(y[bent], tab[bent])
        yf = y[far]
        x[far] = tab[far, _ORIGIN, None] + (1.0 - yf) / yf
        jac[far] = 1.0 / (yf * yf)
    fv = np.asarray(f(x, owner[:, None]), dtype=float)
    if jac is not None:
        fv = fv * jac
    elif fv.shape != y.shape:
        fv = np.broadcast_to(fv, y.shape)
    resk = _row_dot(fv, _KRONROD)
    scale = np.abs(half)
    err = np.abs((resk - _row_dot(fv, _GAUSS)) * half)
    resabs = _row_dot(np.abs(fv), _KRONROD) * scale
    resasc = _row_dot(np.abs(fv - 0.5 * resk[:, None]), _KRONROD) * scale
    # QUADPACK's grading of |K - G| and its round-off floor.
    graded = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    # Where resasc or err is 0: both are >= 0 or NaN, and fmin skips NaN.
    np.copyto(graded, err, where=np.fmin(resasc, err) == 0.0)
    np.maximum(_ROUNDOFF * resabs, graded, out=graded,
               where=resabs > _ROUNDOFF_FLOOR)
    return resk * half, graded


def _segments(a, b, alpha, beta, pts):
    """Initial panels of each integral: its interval cut at the hint points,
    with the endpoint variable changes on the first and last piece.
    Returns the panel table and the integral of each row, as
    :func:`_kronrod_panels` takes them."""
    singular_a, singular_b = alpha != 0.0, beta != 0.0
    infinite_b = np.isinf(b)
    if np.count_nonzero(singular_b & infinite_b):
        raise DomainError("singular_exponent_b requires a finite upper limit")
    # A piece carries at most one variable change: split an interval with
    # two singular ends at its middle, and one reaching infinity after a
    # unit head, so that the map of the tail, whose resolution near its
    # origin is only absolute, stays away from the lower end.
    nonempty = b > a
    halve, extend = singular_a & singular_b, infinite_b
    hints = 0
    if pts.size:
        if pts.ndim > 2:
            raise DomainError(f"points must be one row or one row per "
                              f"integral, got shape {pts.shape}")
        inside = (pts > a[:, None]) & (pts < b[:, None])
        bare = ~inside.any(axis=1)
        halve, extend = halve & bare, extend & bare
        hints = inside.shape[1]
    halves, extends = np.count_nonzero(halve), np.count_nonzero(extend)
    extra = 1 if halves or extends else 0
    if hints or extra:
        # Row i: a_i (NaN where the interval is empty), its cuts in
        # increasing order with the unused ones (NaN) last, and a NaN
        # column.  Each edge that is not NaN starts a piece, which ends at
        # the next edge, or at b where that one is NaN.
        width = hints + extra + 2
        edges = np.full((a.size, width), np.nan)
        np.copyto(edges[:, 0], a, where=nonempty)
        if hints:
            np.copyto(edges[:, 1:hints + 1], pts, where=inside)
        if extends:
            np.copyto(edges[:, -2], a + 1.0, where=extend)
        if halves:
            np.copyto(edges[:, -2], 0.5 * (a + b), where=halve & nonempty)
        if hints + extra > 1:
            edges[:, 1:-1].sort(axis=1)
        edges = edges.ravel()
        at = np.flatnonzero(edges == edges)
        owner, col = np.divmod(at, width)
        left, right = edges[at], edges[at + 1]
        last = np.isnan(right)
        np.copyto(right, b[owner], where=last)
        # The exponent at the lower and at the upper end of each piece.
        start = np.where(col == 0, alpha[owner], 0.0)
        end = np.where(last, beta[owner], 0.0)
        infinite = last & infinite_b[owner]
    else:
        owner = nonempty.nonzero()[0]
        left, right = a[owner], b[owner]
        start, end, infinite = alpha[owner], beta[owner], infinite_b[owner]
    tab = np.empty((owner.size, 6))
    tab[:] = _IDENTITY
    lo, hi, origin = tab[:, _LO], tab[:, _HI], tab[:, _ORIGIN]
    lo[:], hi[:] = left, right
    if not (np.count_nonzero(singular_a) or np.count_nonzero(singular_b)
            or np.count_nonzero(infinite_b)):
        return tab, owner
    # x = a + y^p with p = 1/(1 + alpha) turns (x - a)^alpha into y^0 on
    # 0 <= y <= (b - a)^(1/p), and x = b - y^p does so at the upper end;
    # x = c + (1 - y)/y maps 0 < y <= 1 onto [c, inf).  A piece has at most
    # one singular end, so start + end is its exponent, and a piece whose
    # power rounds to 1 keeps x = y.
    power = 1.0 / (1.0 + (start + end))
    bent = power != 1.0
    tail = end != 0.0
    origin[:] = left
    np.copyto(origin, right, where=tail)
    np.copyto(tab[:, _SIGN], -1.0, where=tail)
    tab[:, _POWER], tab[:, _INFINITE] = power, infinite
    np.copyto(lo, 0.0, where=bent | infinite)
    np.copyto(hi, (right - left) ** (1.0 / power), where=bent)
    np.copyto(hi, 1.0, where=infinite)
    return tab, owner


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
    panels per integral.  Returns (values, abs_error_estimates), float
    arrays with one entry per integral; raises
    :class:`~tailcorr.errors.QuadratureError` naming the first integral
    that did not converge.
    """
    # One integral per entry of the broadcast limits and exponents, and per
    # row of a two-dimensional ``points``.
    pts = np.asarray(points, dtype=float)
    args = (a, b, singular_exponent_a, singular_exponent_b)
    shape = np.broadcast(*args).shape
    if pts.ndim == 2 and pts.shape[0] not in (1, math.prod(shape)):
        if math.prod(shape) != 1:
            raise DomainError(
                f"points must be one row or one row per integral, got shape "
                f"{pts.shape} for limits of shape {shape}")
        shape = pts.shape[:1]
    limits = np.empty((4,) + shape)
    for i, v in enumerate(args):
        limits[i] = v
    a, b, alpha, beta = limits = limits.reshape(4, -1)
    n = a.size
    if np.count_nonzero(np.isfinite(a) & (b >= a)) < n:
        _reject(a, ~np.isfinite(a), "lower limit must be finite")
        if np.count_nonzero(np.isnan(b)):
            raise DomainError("upper limit must not be NaN")
        i = int(np.argmax(b < a))
        raise DomainError(f"upper limit {float(b[i])!r} below lower limit "
                          f"{float(a[i])!r}")
    if tol <= 0 or not math.isfinite(tol):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    exps = limits[2:]
    if np.count_nonzero((exps > -1.0) & (exps <= 0.0)) < exps.size:
        for name, row in zip(("singular_exponent_a", "singular_exponent_b"),
                             exps):
            _reject(row, ~((row > -1.0) & (row <= 0.0)),
                    f"{name} must lie in (-1, 0]")

    with np.errstate(all="ignore"):
        tab, owner = _segments(a, b, alpha, beta, pts)
        value, error = np.empty(len(tab)), np.empty(len(tab))
        # The integrals that are finite and have not run out of panels to
        # split; an integral drops out for good, as it is not split again.
        live = ~np.zeros(n, dtype=bool)
        # The first pass evaluates every panel, by slices of the table; a
        # later one the panels ``fresh`` names.
        fresh = None
        while True:
            size = len(tab) if fresh is None else fresh.size
            for start in range(0, size, _CHUNK_PANELS):
                idx = (slice(start, start + _CHUNK_PANELS) if fresh is None
                       else fresh[start:start + _CHUNK_PANELS])
                value[idx], error[idx] = _kronrod_panels(f, tab[idx],
                                                         owner[idx])
            total = np.bincount(owner, weights=value, minlength=n)
            total_err = np.bincount(owner, weights=error, minlength=n)
            target = tol * np.maximum(1.0, np.abs(total))
            live &= np.isfinite(total + total_err)
            open_ = (total_err > target) & live
            if not np.count_nonzero(open_):
                break
            # Bisect every splittable panel of an open integral whose error
            # is at least its share of the target; within the panel budget,
            # the panels of largest error go first.
            count = np.bincount(owner, minlength=n)
            lo, hi = tab[:, _LO], tab[:, _HI]
            want = open_[owner] & (error * count[owner] >= target[owner]) & (
                hi - lo > 100.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))
            split = want.nonzero()[0]
            per = np.bincount(owner[split], minlength=n)
            over = per > _QUAD_LIMIT - count
            if np.count_nonzero(over):
                ranked = split[over[owner[split]]]
                ranked = ranked[np.lexsort((-error[ranked], owner[ranked]))]
                who = owner[ranked]
                first = np.searchsorted(who, who)
                want[ranked[np.arange(who.size) - first
                            >= _QUAD_LIMIT - count[who]]] = False
                split = want.nonzero()[0]
                per = np.bincount(owner[split], minlength=n)
            live &= ~open_ | (per > 0)
            # The left half of a panel keeps its row, the right half is a
            # new row at the end; both are evaluated in the next pass.
            new = tab[split]
            mid = 0.5 * (new[:, _LO] + new[:, _HI])
            tab[split, _HI] = new[:, _LO] = mid
            fresh = np.concatenate([split, np.arange(len(tab),
                                                     len(tab) + split.size)])
            tab = np.concatenate([tab, new])
            owner = np.concatenate([owner, owner[split]])
            # Placeholders: the next pass writes every fresh row.
            value = np.concatenate([value, mid])
            error = np.concatenate([error, mid])
    # Each integral still live has converged; the others are non-finite or
    # out of panels to split.
    if np.count_nonzero(live) < n:
        i = int(np.argmax(~live))
        if not math.isfinite(float(total[i]) + float(total_err[i])):
            raise QuadratureError(
                f"quadrature produced a non-finite value on ({a[i]}, {b[i]})",
                value=float(total[i]), abs_error_estimate=float(total_err[i]))
        raise QuadratureError(
            f"quadrature did not converge on ({a[i]}, {b[i]}): "
            f"value={float(total[i])!r}, error estimate {total_err[i]:.3e} "
            f"exceeds tol {tol:.3e}",
            value=float(total[i]), abs_error_estimate=float(total_err[i]))
    return total.astype(float, copy=False), total_err.astype(float, copy=False)


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


def _richardson(stencil: np.ndarray, con: np.ndarray, rungs: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Best entry and its error of the Richardson table over each row of
    ``stencil`` (one rung per column, step ratio ``con``, ``rungs`` valid
    columns), as Ridders' scheme picks it: :func:`_ridders_pick`'s loop,
    statement for statement, on all rows at once, so bit for bit.  A row
    drops out of ``live`` past its ``rungs`` or once it stops, and takes
    no later entry; a one-rung table gives the base value with an
    infinite error."""
    con2 = con * con
    above = [stencil[:, 0]]
    best, err = stencil[:, 0].copy(), np.full(len(stencil), math.inf)
    live = np.ones(len(stencil), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, stencil.shape[1]):
            live &= rungs > i
            if not live.any():
                break
            row = [stencil[:, i]]
            fac = con2
            for j in range(1, i + 1):
                entry = (row[j - 1] * fac - above[j - 1]) / (fac - 1.0)
                fac = fac * con2
                left = np.abs(entry - row[j - 1])
                up = np.abs(entry - above[j - 1])
                # Both gaps within the best error: max(left, up) is not NaN.
                take = live & (left <= err) & (up <= err)
                np.copyto(best, entry, where=take)
                np.copyto(err, np.maximum(left, up), where=take)
                row.append(entry)
            # Not ``gap < 2 err``: a NaN gap stops no row, as in the loop.
            if i > 1:
                live &= ~(np.abs(row[i] - above[i - 1]) >= 2.0 * err)
            above = row
    return best, err


def _ridders_pick(stencil: Sequence[float], con: float, rungs: int
                  ) -> tuple[float, float]:
    """Ridders' selection on one ladder in Python floats, after Numerical
    Recipes (3rd ed., section 5.7): the Richardson table over the first
    ``rungs`` values of ``stencil`` (step ratio ``con``) and its entry of
    smallest error estimate.  A later entry wins a tie and NaN never wins;
    with no entry, the first value comes back with an infinite error.
    Refinement stops once the new diagonal moved by twice the best error,
    checked from the third rung on.  :func:`_richardson` runs this loop on
    a batch of ladders, one array operation per statement, with a mask of
    the ladders still live."""
    con2 = con * con
    above = [stencil[0]]
    best, err = stencil[0], math.inf
    for i in range(1, rungs):
        row = [stencil[i]]
        fac = con2
        for j in range(1, i + 1):
            entry = (row[j - 1] * fac - above[j - 1]) / (fac - 1.0)
            fac = fac * con2
            left, up = abs(entry - row[j - 1]), abs(entry - above[j - 1])
            # Both gaps within the best error: max(left, up) is not NaN.
            if left <= err and up <= err:
                best, err = entry, max(left, up)
            row.append(entry)
        if i > 1 and abs(row[i] - above[i - 1]) >= 2.0 * err:
            break
        above = row
    return best, err


def _differences(f: Callable, nodes: np.ndarray, order: int,
                 steps: np.ndarray) -> np.ndarray:
    """Central differences of order k over each ladder of ``steps``
    (n, depth), from one call of ``f`` on their (n, depth, m) stencil
    ``nodes``."""
    _, weights, hpow = _STENCILS[order]
    terms = f(nodes)
    with np.errstate(all="ignore"):
        terms = terms * weights
        acc = terms[..., 0] + terms[..., 1]
        for j in range(2, terms.shape[-1]):
            acc += terms[..., j]
        return acc / steps ** hpow


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
    with np.errstate(all="ignore"):
        big = h * 2.0 ** (levels - 1)
        for gap in gaps:
            big = np.minimum(big, 0.5 * gap / _STENCIL_REACH[order])
        big = np.maximum(big, h)
        ratio = big / h
        # One rung where big = h; elsewhere floor(log2(ratio)) + 1 is at
        # least 1.
        rungs = np.fmax(np.minimum(np.floor(np.log2(ratio)) + 1, levels), 1.0)
        con = np.where(rungs > 1, ratio ** (1.0 / (rungs - 1)), 1.0)
        depth = int(rungs.max(initial=1))
        steps = big[:, None] / con[:, None] ** np.arange(depth)
        nodes = x[:, None, None] + _STENCILS[order][0] * steps[:, :, None]
    best, best_err = _richardson(_differences(f, nodes, order, steps), con,
                                 rungs)
    finite = np.isfinite(best)
    if not finite.all():
        raise QuadratureError(
            f"num_derivative failed at x={float(x[~finite][0])}")
    np.maximum(np.abs(best), 1.0, out=best_err, where=~np.isfinite(best_err))
    return best, best_err


def _ridders_at(f: Callable, x: float, order: int, h: float, *,
                gaps: Sequence[float] = (), levels: int = 5
                ) -> SpecialFnResult:
    """:func:`_ridders` at one abscissa, on Python floats.

    The ladder top and the Richardson table are float arithmetic, which
    rounds as NumPy's does; the rung count, the step ratio, the ladder and
    the differences are NumPy's, on one-element arrays and the
    (1, depth, m) nodes, as :func:`_ridders` computes them for a batch.  So
    a float gets the bits of the same entry of an array."""
    big = h * 2.0 ** (levels - 1)
    for gap in gaps:
        big = min(big, 0.5 * gap / _STENCIL_REACH[order])
    big = max(big, h)
    ratio = np.array([big / h])
    log2 = float(np.log2(ratio)[0])
    # floor(log2(ratio)) + 1 rungs, at most ``levels`` (log2 may be inf).
    rungs = levels if log2 >= levels else max(math.floor(log2) + 1, 1)
    with np.errstate(all="ignore"):
        if rungs > 1:
            con = np.power(ratio, np.array([1.0 / (rungs - 1)]))
            steps = big / con[:, None] ** np.arange(rungs)
            con = float(con[0])
        else:
            steps, con = np.array([[big]]), 1.0
        nodes = x + _STENCILS[order][0] * steps[:, :, None]
    stencil = _differences(f, nodes, order, steps)[0].tolist()
    value, error = _ridders_pick(stencil, con, rungs)
    if not math.isfinite(value):
        raise QuadratureError(f"num_derivative failed at x={x}")
    if not math.isfinite(error):
        error = max(abs(value), 1.0)
    return SpecialFnResult(value, error)


def _kink_error(x: float, kink: float, order: int, step: float
                ) -> KinkError:
    """The refusal of a stencil at ``x`` that would cross ``kink``."""
    return KinkError(f"num_derivative at x={x} (order {order}, step "
                     f"{step:.3e}) would cross the declared kink at {kink}",
                     x=x, kink=kink)


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
    (Ridders' scheme).  The estimate is the table's truncation estimate,
    not a bound: for erfc(sqrt r) at order 4 and r = 0.8214 the value is
    168 estimates off.  ``f`` is called once on the ladders of every entry
    when it takes arrays, and float by float otherwise.

    A float ``x`` with a scalar or default step takes a float route: the
    same ladder and the same call of ``f``, with the checks and the
    Richardson table on Python floats.  It gives the bits of the same
    entry of an array.

    The default step is ``eps^(1/(order+2)) * max(1, |x|)``, and the ladder
    of ``levels`` rungs (1..16) starts 2^(levels-1) steps out.  The step
    grows with |x|, so far from 0 the ladder may span the scale on which
    ``f`` varies: ``num_derivative(np.sin, 40.0, 7)`` reads -1.1e-8 with
    an estimate of 3.1e-9, where the derivative is -cos 40 = 0.667.  Pass
    ``h`` there.  ``x`` must be finite and ``h`` positive and finite; a
    NaN kink is refused.

    Raises :class:`~tailcorr.errors.KinkError` when the stencil would straddle
    or touch a caller-declared kink abscissa; derivatives across kinks are
    meaningless and the caller must use one-sided logic instead.  It names
    the first such entry of ``x``.
    """
    order = _integer(order, "order", 1, max(_STENCILS))
    levels = _integer(levels, "levels", 1, 16)
    kinks = tuple(float(kink) for kink in kinks)
    for kink in kinks:
        if math.isnan(kink):
            raise DomainError(f"kinks must not be NaN, got {kink!r}")
    if np.ndim(x) or (h is not None and np.ndim(h)):
        return _derivatives(f, x, order, h, kinks, levels)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    step = (_EPS ** (1.0 / (order + 2)) * max(1.0, abs(x)) if h is None
            else float(h))
    if not (step > 0 and math.isfinite(step)):
        raise DomainError(f"step h must be positive and finite, got {h!r}")
    gaps = [abs(x - kink) for kink in kinks]
    for kink, gap in zip(kinks, gaps):
        if gap <= _STENCIL_REACH[order] * step:
            raise _kink_error(x, kink, order, step)
    return _ridders_at(_array_callable(f), x, order, step, gaps=gaps,
                       levels=levels)


@_float_rule(at=1, result=True)
def _derivatives(f: Callable, x: np.ndarray, order: int, h,
                 kinks: tuple[float, ...], levels: int):
    """:func:`num_derivative` on an array ``x``, or with a step per entry."""
    flat = x.ravel()
    _reject(flat, ~np.isfinite(flat), "x must be finite")
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
            raise _kink_error(float(flat[i]), kink, order, float(step[i]))
    return _ridders(_array_callable(f), flat, order, step, gaps=gaps,
                    levels=levels)


def _radial_derivatives(f: Callable, x, order: int, *,
                        kinks: Sequence[float] = ()):
    """:func:`num_derivative` values of ``f`` at x > 0, a float or an
    array, with no stencil point at or below 0.  Where the default ladder
    (five rungs, the top 16 steps out) would reach 0, 0 acts as a kink, and
    a base step that alone reaches 0 shrinks to half the distance.  A float
    takes the float route of :func:`num_derivative` and gives the bits of
    the same entry of an array."""
    arr = np.atleast_1d(x)
    _reject(arr, ~(arr > 0), "r must be > 0")
    reach = _STENCIL_REACH[order]
    step = _EPS ** (1.0 / (order + 2)) * np.maximum(1.0, arr)
    near = reach * 16.0 * step >= arr
    step = np.where(reach * step >= arr, 0.5 * arr / reach, step)
    if np.ndim(x) == 0:
        if near[0]:
            return num_derivative(f, float(x), order, float(step[0]),
                                  kinks=(0.0, *kinks)).value
        return num_derivative(f, float(x), order, kinks=kinks).value
    out = np.empty(arr.shape)
    out[~near] = num_derivative(f, arr[~near], order, kinks=kinks)[0]
    if near.any():
        out[near] = num_derivative(f, arr[near], order, step[near],
                                   kinks=(0.0, *kinks))[0]
    return out
