"""Radial functions, variograms, and correlation functions.

A :class:`RadialFunction` is a function of a non-negative scalar radius.  It
is the common currency of the package: candidate tail correlation functions,
storm shapes, ball-convolution kernels, and turning-bands inputs are all
radial functions.  The wrapper records what plain callables cannot express:

* analytic derivatives up to order 3 where available,
* a Taylor hook where available: ``taylor(x, order)`` gives the Taylor
  coefficients of orders 0..order at every x > 0 in one call, each with a
  bound on its rounding error (:mod:`tailcorr.series`),
* declared kink abscissae (numeric differentiation refuses to straddle them),
* a support bound for compactly supported functions,
* the algebraic growth exponent at 0 for shapes that blow up there,
* family metadata (name + parameters) consumed by the classification rules.

:class:`Variogram` and :class:`Correlation` are the analogous wrappers for
the Gaussian-process model classes.
Each wrapper's ``func``, and each declared derivative of a radial
function, takes a float or a whole array of distances; the
``*_from_callable`` helpers lift a callable that only takes floats.

A derivative of order k takes one of three routes, the first one the
function declares: its closed form ``deriv<k>``, so every closed form
keeps its bits; k! times coefficient k of its Taylor hook; Ridders'
extrapolated differences of ``func`` (:func:`tailcorr.num_derivative`).
``exponential_decay``, ``erfc_sqrt``, ``powered_erfc``,
``powered_exponential`` and ``generalized_cauchy`` declare the hook, for
orders 0..10; a hook takes arrays only and is never lifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _special

from . import series
from .errors import DomainError, KinkError, TailcorrError
from .numerics import (_float_rule, _integer, _lift, _radial_derivatives,
                       _real, _reject, kappa_d)

__all__ = [
    "RadialFunction",
    "Variogram",
    "Correlation",
    "radial_from_callable",
    "tent",
    "exponential_decay",
    "erfc_sqrt",
    "powered_erfc",
    "powered_exponential",
    "whittle_matern",
    "generalized_cauchy",
    "truncated_power",
    "ball_indicator",
    "fbm_variogram",
    "bounded_variogram",
    "variogram_from_callable",
    "exponential_correlation",
    "correlation_from_callable",
]

_KINK_EPS = 1e-12

#: Largest order the Taylor hooks of the catalog take.
_MAX_TAYLOR_ORDER = 10

#: Distances per call of a correlation inside :func:`bounded_variogram`.
_RHO_PIECE = 2 ** 15


def _probe(func: Callable, points, what: str, helper: str) -> np.ndarray:
    """``func`` on a small array; rejects a callable that only takes floats."""
    arr = np.array(points, dtype=float)
    try:
        values = np.asarray(func(arr), dtype=float)
    except TailcorrError:
        raise
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != arr.shape:
        raise DomainError(f"{what} must take arrays of distances; wrap a "
                          f"scalar callable with {helper}")
    return values


@_float_rule
def _evaluate(x, func: Callable):
    """``func``, which takes arrays, at the distances ``x``."""
    return func(x)


def _taylor_hook(build: Callable, max_order: int = _MAX_TAYLOR_ORDER
                 ) -> Callable:
    """A ``taylor(x, order)`` hook from ``build(x, order)``, which takes a
    flat array of x > 0 and returns a :class:`~tailcorr.series.Series`;
    the hook returns its coefficients and bounds, shape
    (order + 1,) + x.shape."""
    def taylor(x, order: int):
        order = _integer(order, "order", 0, max_order)
        arr = np.asarray(x, dtype=float)
        _reject(arr, ~(arr > 0), "r must be > 0")
        out = build(arr.ravel(), order)
        shape = (order + 1,) + arr.shape
        return out.coef.reshape(shape), out.bound.reshape(shape)

    return taylor


@dataclass(frozen=True)
class RadialFunction:
    """A function of radius r >= 0 with differentiation metadata.

    ``func`` must be finite on (0, inf); it may diverge at 0 with declared
    algebraic exponent ``zero_exponent`` (``func(u) ~ u^zero_exponent``),
    which integrators use to handle the singularity.

    ``taylor(x, order)``, when given, takes an array of x > 0 and returns
    two arrays of shape (order + 1,) + x.shape: the Taylor coefficients
    f^(k)(x) / k! for k = 0..order, and the absolute error of each: a
    bound for the closed forms built on :mod:`tailcorr.series`, the
    quadrature error estimate / k! for the hook of an MPS model's TCF
    (:func:`tailcorr.models.tcf_radial`), which is no strict bound.  The
    membership batteries take it as the coefficient's error bar.
    """

    name: str
    func: Callable
    deriv1: Callable | None = None
    deriv2: Callable | None = None
    deriv3: Callable | None = None
    kinks: tuple[float, ...] = ()
    support_bound: float | None = None
    zero_exponent: float = 0.0
    family: str | None = None
    param: float | None = None
    taylor: Callable | None = None

    def __post_init__(self) -> None:
        for kink in self.kinks:
            if not math.isfinite(kink):
                raise DomainError(f"kinks must be finite, got {kink!r}")
        if list(self.kinks) != sorted(self.kinks):
            raise DomainError(f"kinks must be sorted, got {self.kinks!r}")
        if self.support_bound is not None and self.support_bound <= 0:
            raise DomainError(
                f"support_bound must be positive, got {self.support_bound!r}")
        probes = (0.73, 1.37)
        values = _probe(self.func, probes, f"radial function {self.name!r}",
                        "radial_from_callable")
        for probe, v in zip(probes, values):
            if not math.isfinite(v):
                raise DomainError(
                    f"radial function {self.name!r} is not finite at r={probe}")
        derivs = (self.deriv1, self.deriv2, self.deriv3)
        for order, deriv in enumerate(derivs, start=1):
            if deriv is not None:
                _probe(deriv, probes, f"derivative {order} of radial function "
                       f"{self.name!r}", "radial_from_callable")

    def __call__(self, r):
        arr = np.asarray(r, dtype=float)
        _reject(arr, arr < 0, "radius must be >= 0")
        return _evaluate(arr, self.func)

    def _series(self, x: np.ndarray, order: int
                ) -> tuple[np.ndarray, np.ndarray]:
        """The ``taylor`` hook at the array ``x``: coefficients and bounds,
        each checked to be of shape (order + 1,) + x.shape."""
        coef, bound = (np.asarray(a, dtype=float)
                       for a in self.taylor(x, order))
        if not coef.shape == bound.shape == (order + 1,) + x.shape:
            raise DomainError(
                f"the taylor hook of radial function {self.name!r} must "
                "return coefficients and bounds of shape (order + 1,) + "
                f"x.shape = {(order + 1,) + x.shape}, got {coef.shape} and "
                f"{bound.shape}")
        return coef, bound

    @property
    def has_compact_support(self) -> bool:
        return self.support_bound is not None

    def nearest_kink(self, r: float) -> float | None:
        if not self.kinks:
            return None
        return min(self.kinks, key=lambda k: abs(k - r))

    def _on_kink(self, r: np.ndarray) -> np.ndarray:
        """Mask of the entries of ``r`` that sit on a declared kink."""
        on = np.zeros(r.shape, dtype=bool)
        for k in self.kinks:
            on |= np.abs(r - k) <= _KINK_EPS * np.maximum(1.0, np.abs(r))
        return on

    def derivative(self, r, order: int):
        """Derivative of the given order at r > 0; a float for a float, an
        array for an array.

        Takes the first route the function declares, on the whole array:
        the closed form ``deriv<order>``, then order! times coefficient
        ``order`` of the ``taylor`` hook, then numeric differentiation of
        ``func`` (Ridders' scheme).
        Refuses (KinkError) on a declared kink, where no two-sided
        derivative exists; the numeric route also refuses wherever its
        stencil would cross a kink, so ``truncated_power(1.5)`` has no
        numeric second derivative at 0.9999999.
        """
        order = _integer(order, "order", 1, 3)
        arr = np.asarray(r, dtype=float)
        if self.kinks:
            on = self._on_kink(arr)
            if on.any():
                x = float(arr[on].flat[0])
                k = self.nearest_kink(x)
                raise KinkError(
                    f"{self.name!r} has a kink at {k}; no order-{order} "
                    "derivative there", x=x, kink=k)
        analytic = (self.deriv1, self.deriv2, self.deriv3)[order - 1]
        if analytic is not None:
            return _evaluate(arr, analytic)
        if self.taylor is not None:
            return _evaluate(arr, lambda x: math.factorial(order)
                             * self._series(x, order)[0][order])
        if arr.ndim == 0:
            return _radial_derivatives(self.func, float(arr), order,
                                       kinks=self.kinks)
        return _evaluate(arr, lambda x: _radial_derivatives(
            self.func, x, order, kinks=self.kinks))


def radial_from_callable(name: str, func: Callable[[float], float],
                         **meta) -> RadialFunction:
    """Wrap a scalar callable, and the scalar derivatives among ``meta``, as
    a RadialFunction; the other meta fields pass through."""
    for key in ("deriv1", "deriv2", "deriv3"):
        if meta.get(key) is not None:
            meta[key] = _lift(meta[key])
    return RadialFunction(name=name, func=_lift(func), **meta)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def tent() -> RadialFunction:
    """The tent function max(0, 1 - r): continuous, convex, compact support."""
    return RadialFunction(
        name="tent",
        func=lambda r: np.maximum(0.0, 1.0 - r),
        deriv1=lambda r: np.where(r < 1.0, -1.0, 0.0),
        deriv2=lambda r: np.zeros(np.shape(r)),
        deriv3=lambda r: np.zeros(np.shape(r)),
        kinks=(1.0,),
        support_bound=1.0,
        family="tent",
    )


def exponential_decay(scale: float = 1.0) -> RadialFunction:
    """exp(-r/scale); completely monotone."""
    s = _real(scale, "scale", 0.0)
    return RadialFunction(
        name=f"exp(-r/{s:g})" if s != 1.0 else "exp(-r)",
        func=lambda r: np.exp(-r / s),
        deriv1=lambda r: -np.exp(-r / s) / s,
        deriv2=lambda r: np.exp(-r / s) / s**2,
        deriv3=lambda r: -np.exp(-r / s) / s**3,
        family="exponential",
        param=s,
        taylor=_exp_power_taylor(1.0, -1.0 / s),
    )


def _exp_power_taylor(nu: float, factor: float) -> Callable:
    """The Taylor hook of exp(factor r^nu): exp of the shifted power
    (x + s)^nu times ``factor``."""
    return _taylor_hook(lambda x, m: series.exp(series.scale(
        series.shifted_power(x, nu, m), factor)))


def _erfc_power_taylor(nu: float) -> Callable:
    """The Taylor hook of erfc(r^nu): erfc through its ODE, of the shifted
    power (x + s)^nu, whose square is (x + s)^(2 nu)."""
    return _taylor_hook(lambda x, m: series.erfc(
        series.shifted_power(x, nu, m), series.shifted_power(x, 2.0 * nu, m)))


def erfc_sqrt() -> RadialFunction:
    """erfc(sqrt(r)); smooth on (0, inf).

    Analytic derivatives:
        d/dr   = -e^{-r} / sqrt(pi r)
        d²/dr² = e^{-r} (2r+1) / (2 sqrt(pi) r^{3/2})
        d³/dr³ = -e^{-r} (4r²+4r+3) / (4 sqrt(pi) r^{5/2})
    """
    sq_pi = math.sqrt(math.pi)
    return RadialFunction(
        name="erfc(sqrt(r))",
        func=lambda r: _special.erfc(np.sqrt(r)),
        deriv1=lambda r: -np.exp(-r) / np.sqrt(math.pi * r),
        deriv2=lambda r: (np.exp(-r) * (2.0 * r + 1.0)
                          / (2.0 * sq_pi * np.power(r, 1.5))),
        deriv3=lambda r: (-np.exp(-r) * (4.0 * r * (r + 1.0) + 3.0)
                          / (4.0 * sq_pi * np.power(r, 2.5))),
        family="powered_erfc",
        param=0.5,
        taylor=_erfc_power_taylor(0.5),
    )


def powered_erfc(nu: float) -> RadialFunction:
    """erfc(r^nu) for nu > 0."""
    n = _real(nu, "nu", 0.0)
    if n == 0.5:
        return erfc_sqrt()
    c = 2.0 / math.sqrt(math.pi)
    return RadialFunction(
        name=f"erfc(r^{n:g})",
        func=lambda r: _special.erfc(np.power(r, n)),
        deriv1=lambda r: (-c * n * np.power(r, n - 1.0)
                          * np.exp(-np.power(r, 2.0 * n))),
        family="powered_erfc",
        param=n,
        taylor=_erfc_power_taylor(n),
    )


def powered_exponential(nu: float) -> RadialFunction:
    """exp(-r^nu) for nu in (0, 2]."""
    n = _real(nu, "nu", 0.0, 2.0)
    if n == 1.0:
        return exponential_decay()
    return RadialFunction(
        name=f"exp(-r^{n:g})",
        func=lambda r: np.exp(-np.power(r, n)),
        deriv1=lambda r: -n * np.power(r, n - 1.0) * np.exp(-np.power(r, n)),
        family="powered_exponential",
        param=n,
        taylor=_exp_power_taylor(n, -1.0),
    )


def whittle_matern(nu: float) -> RadialFunction:
    """2^{1-nu} Gamma(nu)^{-1} r^nu K_nu(r); equals 1 at r=0."""
    n = _real(nu, "nu", 0.0)
    const = 2.0 ** (1.0 - n) / math.gamma(n)

    def f(r):
        with np.errstate(invalid="ignore"):  # 0 * K_nu(0) = 0 * inf
            body = const * np.power(r, n) * _special.kv(n, r)
        # Near 0 (r = 0 included) K_nu overflows and the product is
        # 0 * inf or inf, where the limit is 1; K_nu underflows beyond 705,
        # where the value is 0 to double precision.
        near_zero = (r < 1.0) & ~np.isfinite(body)
        return np.where(near_zero, 1.0, np.where(r > 705.0, 0.0, body))[()]

    return RadialFunction(
        name=f"whittle_matern(nu={n:g})",
        func=f,
        family="whittle_matern",
        param=n,
    )


def generalized_cauchy(nu: float, beta: float = 1.0) -> RadialFunction:
    """(1 + r^nu)^{-beta} for nu in (0, 2], beta > 0."""
    n, b = _real(nu, "nu", 0.0, 2.0), _real(beta, "beta", 0.0)

    def parts(r):
        # With u = r^nu and g = 1 + u: -beta nu g^(-beta-1), q = 1/g,
        # w = u/g and P/g for P = (nu - 1) - (1 + beta nu) u, all finite
        # wherever r is.
        u = np.power(r, n)
        q = 1.0 / (1.0 + u)
        w = 1.0 / (1.0 + 1.0 / u)
        return (-b * n * np.power(q, b + 1.0), q, w,
                (n - 1.0) * q - (1.0 + b * n) * w)

    def deriv2(r):
        # -beta nu r^(nu-2) g^(-beta-2) P
        lead, _, _, p = parts(r)
        return lead * np.power(r, n - 2.0) * p

    def deriv3(r):
        # -beta nu r^(nu-3) g^(-beta-3)
        #   [(nu - 1) g ((nu - 2) - 2 (1 + beta nu) u) - (beta + 2) nu u P];
        # so grouped, the bracket does not cancel at nu = 1.
        lead, q, w, p = parts(r)
        return lead * np.power(r, n - 3.0) * (
            (n - 1.0) * ((n - 2.0) * q - 2.0 * (1.0 + b * n) * w)
            - (b + 2.0) * n * w * p)

    def taylor(x, m):
        # (1 + u0 + v)^(-beta), a shifted power in v, composed with
        # v = (x + s)^nu - u0, u0 = x^nu; 1 + u0 is rounded once more.
        u = series.shifted_power(x, n, m)
        base = 1.0 + u.coef[0]
        outer = series.shifted_power(
            base, -b, m, rel_error=u.bound[0] / base + series._UNIT)
        return series.compose(outer, u)

    return RadialFunction(
        name=f"cauchy(nu={n:g}, beta={b:g})",
        func=lambda r: np.power(1.0 + np.power(r, n), -b),
        deriv1=lambda r: (-b * n * np.power(r, n - 1.0)
                          * np.power(1.0 + np.power(r, n), -b - 1.0)),
        deriv2=deriv2,
        deriv3=deriv3,
        family="cauchy",
        param=n,
        taylor=_taylor_hook(taylor),
    )


def truncated_power(nu: float) -> RadialFunction:
    """(1 - r)_+^nu for nu > 0; compact support [0, 1]."""
    n = _real(nu, "nu", 0.0)
    return RadialFunction(
        name=f"truncated_power(nu={n:g})",
        func=lambda r: np.power(np.maximum(0.0, 1.0 - r), n),
        # |1 - r| keeps the branch that np.where drops finite.
        deriv1=lambda r: np.where(
            r < 1.0, -n * np.power(np.abs(1.0 - r), n - 1.0), 0.0),
        kinks=(1.0,),
        support_bound=1.0,
        family="truncated_power",
        param=n,
    )


def ball_indicator(d: int, radius: float = 1.0) -> RadialFunction:
    """Normalized ball indicator 1_{r <= radius} / (kappa_d radius^d).

    Integrates to 1 over R^d; the building block of the ball-mixture model.
    """
    d = _integer(d, "d", 1)
    rad = _real(radius, "radius", 0.0)
    height = 1.0 / (kappa_d(d) * rad**d)
    return RadialFunction(
        name=f"ball_indicator(d={d}, radius={rad:g})",
        func=lambda r: height * (r <= rad),
        kinks=(rad,),
        support_bound=rad,
        family="ball_indicator",
        param=rad,
    )


# ---------------------------------------------------------------------------
# Variograms and correlations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Correlation:
    """A stationary correlation function of distance: rho(0)=1, |rho| <= 1."""

    name: str
    func: Callable

    def __post_init__(self) -> None:
        probes = (0.0, 0.31, 1.7, 23.0)
        values = _probe(self.func, probes, f"correlation {self.name!r}",
                        "correlation_from_callable")
        if abs(values[0] - 1.0) > 1e-12:
            raise DomainError(
                f"correlation {self.name!r} must equal 1 at distance 0")
        for probe, v in zip(probes[1:], values[1:]):
            if not (-1.0 - 1e-12 <= v <= 1.0 + 1e-12):
                raise DomainError(
                    f"correlation {self.name!r} leaves [-1,1] at distance {probe}")

    def __call__(self, t):
        return _evaluate(t, self.func)


def _abs_buffer(t) -> np.ndarray:
    """|t| in a new float buffer, for a function of distance to finish in
    place."""
    return np.abs(t, out=np.empty(np.shape(t)))


def exponential_correlation(scale: float = 1.0) -> Correlation:
    """rho(t) = exp(-t/scale)."""
    s = _real(scale, "scale", 0.0)

    def func(t):
        # -|t|, its scale and its exp in one buffer: the bits of
        # ``np.exp(-np.abs(t) / s)`` without its temporaries.
        out = _abs_buffer(t)
        np.negative(out, out=out)
        out /= s
        return np.exp(out, out=out)

    return Correlation(name=f"exp(-t/{s:g})" if s != 1.0 else "exp(-t)",
                       func=func)


def correlation_from_callable(name: str, func: Callable[[float], float]
                              ) -> Correlation:
    """Wrap a scalar callable as a Correlation."""
    return Correlation(name=name, func=_lift(func))


@dataclass(frozen=True)
class Variogram:
    """A variogram of distance: gamma(t) >= 0 with gamma(0) = 0."""

    name: str
    func: Callable

    def __post_init__(self) -> None:
        probes = (0.0, 0.31, 1.7, 23.0)
        values = _probe(self.func, probes, f"variogram {self.name!r}",
                        "variogram_from_callable")
        if abs(values[0]) > 1e-12:
            raise DomainError(f"variogram {self.name!r} must vanish at 0")
        for probe, v in zip(probes[1:], values[1:]):
            if v < -1e-12:
                raise DomainError(
                    f"variogram {self.name!r} is negative at distance {probe}")

    def __call__(self, t):
        return _evaluate(t, self.func)


def fbm_variogram(scale: float, alpha: float) -> Variogram:
    """gamma(t) = scale * |t|^alpha, alpha in (0, 2]."""
    a = _real(alpha, "fbm variogram alpha", 0.0, 2.0)
    s = _real(scale, "fbm variogram scale", 0.0)

    def func(t):
        # |t|, its power and the scale in one buffer: the bits of
        # ``s * np.power(np.abs(t), a)`` without its two temporaries.
        out = _abs_buffer(t)
        np.power(out, a, out=out)
        out *= s
        return out

    return Variogram(name=f"{s:g}*t^{a:g}", func=func)


def bounded_variogram(lam: float, correlation: Correlation) -> Variogram:
    """gamma(t) = lam * (1 - rho(t)) for a correlation rho."""
    lamf = _real(lam, "bounded variogram lam", 0.0)
    rho = correlation.func

    def func(t):
        # rho(|t|), 1 - rho and the scale in one buffer, rho taken on
        # pieces of |t| so that its own buffers stay small: the bits of
        # ``lamf * (1.0 - rho(np.abs(t)))`` for a rho that acts entry by
        # entry, without its whole-size temporaries.
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        flat_t, flat = t.reshape(-1), out.reshape(-1)
        for lo in range(0, flat.size, _RHO_PIECE):
            flat[lo:lo + _RHO_PIECE] = rho(np.abs(flat_t[lo:lo + _RHO_PIECE]))
        np.subtract(1.0, out, out=out)
        out *= lamf
        return out

    return Variogram(name=f"{lamf:g}*(1-{correlation.name})", func=func)


def variogram_from_callable(name: str, func: Callable[[float], float]
                            ) -> Variogram:
    """Wrap a scalar callable as a Variogram."""
    return Variogram(name=name, func=_lift(func))
