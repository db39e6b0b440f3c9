"""Radial functions, variograms, and correlation functions.

A :class:`RadialFunction` is a function of a non-negative scalar radius.  It
is the common currency of the package: candidate tail correlation functions,
storm shapes, ball-convolution kernels, and turning-bands inputs are all
radial functions.  The wrapper records what plain callables cannot express:

* analytic derivatives up to order 3 where available,
* declared kink abscissae (numeric differentiation refuses to straddle them),
* a support bound for compactly supported functions,
* the algebraic growth exponent at 0 for shapes that blow up there,
* family metadata (name + parameters) consumed by the classification rules.

:class:`Variogram` and :class:`Correlation` are the analogous wrappers for
the Gaussian-process model classes.
Each wrapper's ``func``, and each declared derivative of a radial
function, takes a float or a whole array of distances; the
``*_from_callable`` helpers lift a callable that only takes floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _special

from .errors import DomainError, KinkError, TailcorrError
from .numerics import (_float_rule, _integer, _lift, _radial_derivatives,
                       _reject, kappa_d)

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


@dataclass(frozen=True)
class RadialFunction:
    """A function of radius r >= 0 with differentiation metadata.

    ``func`` must be finite on (0, inf); it may diverge at 0 with declared
    algebraic exponent ``zero_exponent`` (``func(u) ~ u^zero_exponent``),
    which integrators use to handle the singularity.
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

    def __post_init__(self) -> None:
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

        Uses the analytic derivative when present, numeric differentiation
        of ``func`` otherwise, either one on the whole array.
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
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale!r}")
    s = float(scale)
    return RadialFunction(
        name=f"exp(-r/{s:g})" if s != 1.0 else "exp(-r)",
        func=lambda r: np.exp(-r / s),
        deriv1=lambda r: -np.exp(-r / s) / s,
        deriv2=lambda r: np.exp(-r / s) / s**2,
        deriv3=lambda r: -np.exp(-r / s) / s**3,
        family="exponential",
        param=s,
    )


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
    )


def powered_erfc(nu: float) -> RadialFunction:
    """erfc(r^nu) for nu > 0."""
    if nu <= 0:
        raise DomainError(f"nu must be positive, got {nu!r}")
    if nu == 0.5:
        return erfc_sqrt()
    n = float(nu)
    c = 2.0 / math.sqrt(math.pi)
    return RadialFunction(
        name=f"erfc(r^{n:g})",
        func=lambda r: _special.erfc(np.power(r, n)),
        deriv1=lambda r: (-c * n * np.power(r, n - 1.0)
                          * np.exp(-np.power(r, 2.0 * n))),
        family="powered_erfc",
        param=n,
    )


def powered_exponential(nu: float) -> RadialFunction:
    """exp(-r^nu) for nu in (0, 2]."""
    if not 0 < nu <= 2:
        raise DomainError(f"nu must be in (0, 2], got {nu!r}")
    if nu == 1.0:
        return exponential_decay()
    n = float(nu)
    return RadialFunction(
        name=f"exp(-r^{n:g})",
        func=lambda r: np.exp(-np.power(r, n)),
        deriv1=lambda r: -n * np.power(r, n - 1.0) * np.exp(-np.power(r, n)),
        family="powered_exponential",
        param=n,
    )


def whittle_matern(nu: float) -> RadialFunction:
    """2^{1-nu} Gamma(nu)^{-1} r^nu K_nu(r); equals 1 at r=0."""
    if nu <= 0:
        raise DomainError(f"nu must be positive, got {nu!r}")
    n = float(nu)
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
    if not 0 < nu <= 2:
        raise DomainError(f"nu must be in (0, 2], got {nu!r}")
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    n, b = float(nu), float(beta)

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

    return RadialFunction(
        name=f"cauchy(nu={n:g}, beta={b:g})",
        func=lambda r: np.power(1.0 + np.power(r, n), -b),
        deriv1=lambda r: (-b * n * np.power(r, n - 1.0)
                          * np.power(1.0 + np.power(r, n), -b - 1.0)),
        deriv2=deriv2,
        deriv3=deriv3,
        family="cauchy",
        param=n,
    )


def truncated_power(nu: float) -> RadialFunction:
    """(1 - r)_+^nu for nu > 0; compact support [0, 1]."""
    if nu <= 0:
        raise DomainError(f"nu must be positive, got {nu!r}")
    n = float(nu)
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
    if radius <= 0:
        raise DomainError(f"radius must be positive, got {radius!r}")
    height = 1.0 / (kappa_d(d) * float(radius) ** d)
    rad = float(radius)
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


def exponential_correlation(scale: float = 1.0) -> Correlation:
    """rho(t) = exp(-t/scale)."""
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale!r}")
    s = float(scale)
    return Correlation(
        name=f"exp(-t/{s:g})" if s != 1.0 else "exp(-t)",
        func=lambda t: np.exp(-np.abs(t) / s),
    )


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
    s, a = float(scale), float(alpha)
    if not 0 < a <= 2:
        raise DomainError(f"fbm variogram needs alpha in (0,2], got {a!r}")
    if not s > 0:
        raise DomainError(f"fbm variogram needs a positive scale, got {s!r}")
    return Variogram(
        name=f"{s:g}*t^{a:g}",
        func=lambda t: s * np.power(np.abs(t), a),
    )


def bounded_variogram(lam: float, correlation: Correlation) -> Variogram:
    """gamma(t) = lam * (1 - rho(t)) for a correlation rho."""
    lamf = float(lam)
    if not lamf > 0:
        raise DomainError(f"bounded variogram needs lam > 0, got {lamf!r}")
    return Variogram(
        name=f"{lamf:g}*(1-{correlation.name})",
        func=lambda t: lamf * (1.0 - correlation.func(np.abs(t))),
    )


def variogram_from_callable(name: str, func: Callable[[float], float]
                            ) -> Variogram:
    """Wrap a scalar callable as a Variogram."""
    return Variogram(name=name, func=_lift(func))
