"""TCF-preserving operators: correlation transforms, turning bands,
overlap multiplication, and the associated constructive functions.

Three exact maps send correlation functions to TCFs or TCFs to TCFs:

* ``R(x) = cos(pi sqrt((1-x)/2))``,
* ``S_lambda(x) = 1 - 2 erf(sqrt(lambda (1-x)/8))^2``,
* ``T_lambda = R o S_lambda``,

each admissible (correlation-function preserving) exactly when its Taylor
coefficients at 0 are nonnegative from order 1 on and the 0-th is >= 0.
The alpha-shifted variants precompose with ``x -> (1-alpha) x + alpha``; for
S and T this only rescales lambda to lambda (1-alpha).  The admissibility
thresholds are ``8 erf_inv(1/sqrt 2)^2`` for S and ``8 erf_inv(1/2)^2``
for T; :func:`taylor_abs_monotone` exposes the coefficients themselves.

The turning bands operator maps a radial function on R^d to a radial
function on R^k (k <= d) by averaging over random k-frames.  For radial
input the Stiefel-manifold average collapses to a one-dimensional mixture,

    tb_k^d(chi)(r) = E[chi(r sqrt(B))],   B ~ Beta(k/2, (d-k)/2),

because the squared norm of the projection of a fixed unit vector onto a
uniformly random k-frame is Beta(k/2, (d-k)/2).  This reduction is an
implementation choice; the tests validate it against the direct Monte
Carlo average over orthonormalized Gaussian frames.

From the tent TCF the operator produces phi_d = tb_1^d(tent), linear with
slope beta_d on [0,1]; multiplying phi_d(2t) by the ball overlap kernel
h_d(t) gives the compactly supported TCF chi_d used to separate storm
classes.  The convexity diagnostic c(t) and the curvature diagnostic psi(r)
quantify where such products leave the classical classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _special
from .errors import DomainError, KinkError, TailcorrError
from .models import TcfModel, h_d, tcf_result
from .numerics import (
    _EPS,
    _array_callable,
    _float_rule,
    _integer,
    _integrate,
    _reject,
    _worst_midpoint_gap,
    beta_d,
    erfc,
    erfc_inv,
    num_derivative,
)
from .radial import RadialFunction, tent

__all__ = [
    "S_ADMISSIBLE_LIMIT",
    "T_ADMISSIBLE_LIMIT",
    "transform_R",
    "transform_S",
    "transform_T",
    "TransformSpec",
    "transform_bound",
    "is_admissible",
    "apply_transform",
    "TaylorReport",
    "taylor_abs_monotone",
    "TurningBandsSpec",
    "turning_bands",
    "phi_d",
    "phi_d_neg_deriv_sqrt",
    "phi_d_radial",
    "chi_d",
    "chi_d_neg_deriv_sqrt",
    "chi_d_radial",
    "multiply_overlap",
    "gneiting_c",
    "c_second_deriv_at_1",
    "midpoint_convexity_violation",
    "implied_br_variogram",
    "implied_br_curvature_min",
    "erf_square_complement",
    "erf_square_complement_deriv1",
    "erf_square_complement_radial",
]

#: Largest lambda (at alpha = 0) for which S_lambda maps correlation
#: functions to correlation functions: 8 erf_inv(1/sqrt 2)^2, written out
#: so that importing the module calls no special function.
S_ADMISSIBLE_LIMIT = 4.425098125842823

#: Largest lambda (at alpha = 0) for which T_lambda does: 8 erf_inv(1/2)^2.
T_ADMISSIBLE_LIMIT = 1.819745692478291


def _check_x(x: np.ndarray) -> None:
    _reject(x, ~((x >= -1.0) & (x <= 1.0)),
            "transform argument must lie in [-1, 1]")


def _check_lam(lam: float) -> float:
    lf = float(lam)
    if not 0.0 < lf < math.inf:
        raise DomainError(f"lambda must be > 0 and finite, got {lam!r}")
    return lf


@_float_rule
def _transform(x, map: str, lam: float = 1.0):
    """The map R, S or T at an array x in [-1, 1]."""
    _check_x(x)
    if map == "R":
        return np.cos(math.pi * np.sqrt((1.0 - x) / 2.0))
    e = _special.erf(np.sqrt(_check_lam(lam) * (1.0 - x) / 8.0))
    return 1.0 - 2.0 * e * e if map == "S" else np.cos(math.pi * e)


def transform_R(x):
    """``cos(pi sqrt((1-x)/2))`` on [-1, 1], for floats and arrays."""
    return _transform(x, "R")


def transform_S(lam: float, x):
    """``1 - 2 erf(sqrt(lambda (1-x)/8))^2`` on [-1, 1], floats and arrays."""
    return _transform(x, "S", lam)


def transform_T(lam: float, x):
    """``cos(pi erf(sqrt(lambda (1-x)/8)))`` on [-1, 1], floats and arrays."""
    return _transform(x, "T", lam)


@dataclass(frozen=True)
class TransformSpec:
    """A correlation transform with shift: map in {R, S, T}, lambda, alpha.

    The alpha-shifted map is ``x -> map((1-alpha) x + alpha)``; lambda is
    ignored for R.
    """

    map: str
    lam: float = 1.0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.map not in ("R", "S", "T"):
            raise DomainError(f"map must be 'R', 'S' or 'T', got {self.map!r}")
        if self.map != "R":
            _check_lam(self.lam)
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha!r}")


def transform_bound(map: str, alpha: float) -> float:
    """Largest admissible lambda for S or T at the given shift alpha."""
    if map not in ("S", "T"):
        raise DomainError(f"bound applies to 'S' or 'T', got {map!r}")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    base = S_ADMISSIBLE_LIMIT if map == "S" else T_ADMISSIBLE_LIMIT
    if alpha == 1.0:
        return math.inf
    return base / (1.0 - alpha)


def is_admissible(spec: TransformSpec) -> bool:
    """Whether the shifted map sends correlation functions to correlation
    functions."""
    if spec.map == "R":
        return spec.alpha >= 0.5
    limit = S_ADMISSIBLE_LIMIT if spec.map == "S" else T_ADMISSIBLE_LIMIT
    return spec.lam * (1.0 - spec.alpha) <= limit


def apply_transform(spec: TransformSpec, x):
    """The alpha-shifted transform at x in [-1, 1], a float or an array."""
    xs = np.asarray(x, dtype=float)
    _check_x(xs)
    return _transform((1.0 - spec.alpha) * xs + spec.alpha, spec.map,
                      spec.lam)


# ---------------------------------------------------------------------------
# Taylor coefficients at 0 (absolute monotonicity diagnostics)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaylorReport:
    """Maclaurin coefficients of a shifted transform.

    ``coeffs[k]`` is the order-k coefficient; ``coeff0`` repeats the 0-th
    (the only one whose sign may flip with lambda); ``all_nonneg_from_1``
    summarizes the signs of orders >= 1; ``tail_bound`` bounds the series
    truncation error of the reported coefficients, and
    ``rounding_bound[k]`` the rounding error of the sums behind
    ``coeffs[k]`` (entry 0 is that of the series route, though ``coeffs[0]``
    is the transform at 0 itself).
    """

    coeffs: tuple[float, ...]
    coeff0: float
    all_nonneg_from_1: bool
    tail_bound: float
    rounding_bound: tuple[float, ...]


_MAX_ORDER = 60

#: Every base series keeps ``order + _EXTRA_TERMS`` Maclaurin coefficients.
_EXTRA_TERMS = 120


def _cos_sqrt_series(n: int) -> np.ndarray:
    """The first n Maclaurin coefficients of the entire
    ``C(u) = cos(pi sqrt u)``: ``(-1)^j pi^{2j} / (2j)!``."""
    j = np.arange(n)
    return (-1.0) ** j * np.exp(2.0 * j * math.log(math.pi)
                                - _special.gammaln(2.0 * j + 1.0))


def _erf_sq_series(n: int) -> np.ndarray:
    """The first n Maclaurin coefficients of the entire
    ``E(u) = erf(sqrt u)^2 = u p(u)^2``, where
    ``p_m = (2/sqrt pi) (-1)^m / (m! (2m+1))``."""
    m = np.arange(n - 1)
    p = (2.0 / math.sqrt(math.pi) * (-1.0) ** m
         * np.exp(-_special.gammaln(m + 1.0)) / (2.0 * m + 1.0))
    return np.concatenate(([0.0], np.convolve(p, p)[:n - 1]))


def _recentered(coeffs: np.ndarray, center: float, scale: float,
                order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of orders 0..order of ``x -> g(center + scale x)``,
    given the n Maclaurin coefficients of g; with the magnitude of the
    last kept term of each, whose largest bounds the truncation of g's
    series once its terms decrease, and eps n sum_j |term_kj|, which bounds
    the rounding of each sum and of its terms."""
    j = np.arange(len(coeffs))
    k = np.arange(order + 1)[:, None]
    # Entries with j < k hold a zero binomial; their power is clamped to 1.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (coeffs * _special.comb(j, k)
                 * center ** np.maximum(j - k, 0) * scale ** k)
        magnitude = np.abs(terms)
        return (terms.sum(axis=1), magnitude[:, -1],
                _EPS * len(coeffs) * magnitude.sum(axis=1))


def taylor_abs_monotone(map: str, lam: float = 1.0, alpha: float = 0.0,
                        order: int = 40) -> TaylorReport:
    """Maclaurin coefficients of the alpha-shifted transform at 0.

    The map is absolutely monotone on [0, 1] (hence correlation-function
    preserving) exactly when all reported coefficients of order >= 1 are
    nonnegative and ``coeff0 >= 0``; for admissible parameters only the
    0-th coefficient can go negative.

    All three maps are compositions of the entire series
    ``C(u) = cos(pi sqrt u)`` and ``E(u) = erf(sqrt u)^2``, with
    ``s = (1-alpha)/2`` and ``x0 = lambda (1-alpha)/8``:

    * ``R_alpha(x) = C(s - s x)``,
    * ``S(x) = 1 - 2 E(x0 - x0 x)``,
    * ``T(x) = C(E(x0 - x0 x))``: C is recentered at ``E(x0)`` and
      composed with ``E(x0 - x0 x) - E(x0)`` by Horner's rule.

    Each base series keeps ``order + 120`` terms.  ``tail_bound`` is the
    largest last kept term of a recentered series (doubled for S, summed
    over both series for T): it bounds the truncation of the series.
    ``rounding_bound`` bounds the rounding of each coefficient: eps n
    sum_j |term_kj| for a recentered sum of n terms (doubled for S), and
    for T the same magnitude rule carried through Horner's loop, with
    the rounding of E(x0), the center of C, moving coefficient m of C by
    (m + 1) |C_(m+1)| times as much.  ``coeff0`` is the transform at 0
    itself.

    A coefficient of order >= 1 below -(tail + rounding) - 1e-15 is
    negative; one that is not, but could be below -1e-15 within
    tail + rounding, has a sign the bounds cannot settle, and the call
    raises DomainError, as it does for a series that does not converge.
    So ``all_nonneg_from_1`` is never a guess.
    """
    order = _integer(order, "order", 1, _MAX_ORDER)
    spec = TransformSpec(map=map, lam=lam, alpha=alpha)
    if spec.alpha == 1.0:
        # alpha = 1 collapses every map to the constant 1.
        return TaylorReport((1.0,) + (0.0,) * order, 1.0, True, 0.0,
                            (0.0,) * (order + 1))
    n = order + _EXTRA_TERMS
    if map == "R":
        s = (1.0 - spec.alpha) / 2.0
        coeffs, last, rounding = _recentered(_cos_sqrt_series(n), s, -s,
                                             order)
        tail = float(last.max())
    else:
        x0 = spec.lam * (1.0 - spec.alpha) / 8.0
        e, last, e_rounding = _recentered(_erf_sq_series(n), x0, -x0, order)
        tail = float(last.max())
        if map == "S":
            coeffs, tail, rounding = -2.0 * e, 2.0 * tail, 2.0 * e_rounding
        else:
            coeffs, tail, rounding = _composed_t(n, e, e_rounding, tail,
                                                 order)
    if not tail <= 1e-15:
        # A truncation beyond the sign rule's slack (or an overflow).
        raise DomainError(
            f"the series of {map} do not converge in {n} terms at "
            f"lambda={spec.lam!r}, alpha={spec.alpha!r}")
    slack = (tail + rounding)[1:]
    negative = coeffs[1:] < -slack - 1e-15
    unsettled = ~negative & (coeffs[1:] - slack < -1e-15)
    if unsettled.any():
        k = int(np.argmax(unsettled)) + 1
        raise DomainError(
            f"the sign of the order-{k} coefficient of {map} "
            f"({coeffs[k]:.6g}) lies within its rounding and truncation "
            f"bound {slack[k - 1]:.3g} at lambda={spec.lam!r}, "
            f"alpha={spec.alpha!r}")
    coeffs[0] = coeff0 = apply_transform(spec, 0.0)
    return TaylorReport(
        coeffs=tuple(coeffs.tolist()),
        coeff0=coeff0,
        all_nonneg_from_1=not negative.any(),
        tail_bound=tail,
        rounding_bound=tuple(rounding.tolist()),
    )


def _composed_t(n: int, e: np.ndarray, e_rounding: np.ndarray, tail: float,
                order: int) -> tuple[np.ndarray, float, np.ndarray]:
    """T's coefficients, truncation and rounding bounds: C recentered at
    E(x0) = e[0] and composed with h = E(x0 - x0 x) - E(x0) by Horner's
    rule, each convolution adding eps (order + 1) times the magnitudes it
    sums and carrying the bounds of its inputs."""
    c, last, c_rounding = _recentered(_cos_sqrt_series(n), e[0], 1.0,
                                      order + 1)
    # The center e[0] is off by up to e_rounding[0].
    c_rounding = (c_rounding[:-1] + np.arange(1, order + 2)
                  * np.abs(c[1:]) * e_rounding[0])
    h = np.concatenate(([0.0], e[1:]))
    h_rounding = np.concatenate(([0.0], e_rounding[1:]))
    coeffs, rounding = np.zeros(order + 1), np.zeros(order + 1)
    for cm, rm in zip(c[-2::-1], c_rounding[::-1]):
        magnitude = np.convolve(np.abs(coeffs), np.abs(h))[:order + 1]
        rounding = (np.convolve(rounding, np.abs(h))[:order + 1]
                    + np.convolve(np.abs(coeffs), h_rounding)[:order + 1]
                    + _EPS * (order + 1) * magnitude)
        coeffs = np.convolve(coeffs, h)[:order + 1]
        coeffs[0] += cm
        rounding[0] += rm
    return coeffs, tail + float(last[:-1].max()), rounding


# ---------------------------------------------------------------------------
# Turning bands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TurningBandsSpec:
    """Dimension pair for the turning bands operator: R^d down to R^k."""

    k: int
    d: int

    def __post_init__(self) -> None:
        d = _integer(self.d, "d", 1)
        _integer(self.k, "k", 1, d)


@_float_rule(at=2)
def turning_bands(chi: RadialFunction, spec: TurningBandsSpec, r, *,
                  tol: float = 1e-10):
    """``tb_k^d(chi)(r) = E[chi(r sqrt B)]``, B ~ Beta(k/2, (d-k)/2).

    An array of radii is one batch of integrals, each cut where a declared
    kink of chi sits, at B = (kink / r)^2.  Scalar in, float out; array in,
    ndarray out.
    """
    _reject(r, r < 0, "r must be >= 0")
    if spec.k == spec.d:
        return chi(r)
    rs = r.ravel()
    origin = rs == 0.0
    out = np.empty(rs.shape)
    if origin.any():
        out[origin] = chi(0.0)
    if not origin.all():
        rm = rs[~origin]
        a_exp = spec.k / 2.0 - 1.0
        b_exp = (spec.d - spec.k) / 2.0 - 1.0
        norm = math.exp(math.lgamma(spec.d / 2.0) - math.lgamma(spec.k / 2.0)
                        - math.lgamma((spec.d - spec.k) / 2.0))

        def integrand(b, k):
            # A mapped node may round onto an end, where the weight is
            # dropped.
            inside = (b > 0.0) & (b < 1.0)
            bb = np.where(inside, b, 0.5)
            return np.where(inside, chi(rm[k] * np.sqrt(bb)) * bb**a_exp
                            * (1.0 - bb) ** b_exp, 0.0)

        # NaN marks a row's cuts outside (0, 1); a column with no cut
        # inside is dropped.
        cuts = (np.asarray(chi.kinks, dtype=float) / rm[:, None]) ** 2
        inside = (cuts > 0.0) & (cuts < 1.0)
        cuts = np.where(inside, cuts, np.nan)[:, inside.any(axis=0)]
        values = _integrate(integrand, np.zeros(rm.size), 1.0, tol,
                            singular_exponent_a=min(a_exp, 0.0),
                            singular_exponent_b=min(b_exp, 0.0),
                            points=cuts)[0]
        out[~origin] = norm * values
    return out


# ---------------------------------------------------------------------------
# The tent image phi_d and the product construction chi_d
# ---------------------------------------------------------------------------


@_float_rule
def phi_d(t, d: int):
    """``tb_1^d`` of the tent TCF: linear with slope beta_d on [0, 1].

    For d >= 2 the turning-bands integral
    ``c_d int_0^u (1 - t w) (1 - w^2)^{(d-3)/2} dw``, u = min(1, 1/t), is
    elementary in the regularized incomplete Beta function (DLMF 8.17):

        phi_d(t) = I_{u^2}(1/2, (d-1)/2) - beta_d t (1 - (1 - u^2)^{(d-1)/2}),

    which is 1 - beta_d t on [0, 1].  The d = 1 case is the tent itself.
    Scalar in, float out; array in, ndarray out; NaN gives NaN.
    """
    _reject(t, t < 0, "t must be >= 0")
    d = _integer(d, "d", 1)
    if d == 1:
        return np.maximum(0.0, 1.0 - t)
    u2 = 1.0 / np.maximum(t, 1.0) ** 2
    b = (d - 1) / 2.0
    # log1p(-1) = -inf on [0, 1]; the second term is inf * 0 at t = inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (_special.betainc(0.5, b, u2)
               + beta_d(d) * t * np.expm1(b * np.log1p(-u2)))
    return np.where(t == math.inf, 0.0, out)


@_float_rule
def phi_d_neg_deriv_sqrt(t, d: int):
    """``-phi_d'(sqrt t)``: beta_d for t <= 1, else
    ``beta_d (1 - (1 - 1/t)^{(d-1)/2})``.  Scalar in, float out; array in,
    ndarray out."""
    _reject(t, t <= 0, "t must be > 0")
    d = _integer(d, "d", 1)
    b = beta_d(d)
    return np.where(t <= 1.0, b, b * (1.0 - (1.0 - 1.0 / np.maximum(t, 1.0))
                                      ** ((d - 1) / 2.0)))


@_float_rule
def chi_d(t, d: int):
    """The compactly supported TCF ``phi_d(2t) h_d(t)``.  Scalar in, float
    out; array in, ndarray out; NaN gives NaN."""
    _reject(t, t < 0, "t must be >= 0")
    # h_d(1) = 0 ends the support; NaN takes its value last.
    s = np.where(t < 1.0, t, 1.0)
    return np.where(np.isnan(t), np.nan, phi_d(2.0 * s, d) * h_d(s, d))


@_float_rule
def chi_d_neg_deriv_sqrt(t, d: int = 3):
    """``-chi_d'(sqrt t)`` in closed form, for t in (0, 1).

    Expanded by the product rule into
    ``2 (-phi_d'(2 sqrt t)) h_d(sqrt t) + phi_d(2 sqrt t) (-h_d'(sqrt t))``
    with ``-h_d'(s) = d beta_d (1 - s^2)^{(d-1)/2}``.  The function has a
    kink at t = 1/4 (where phi_d(2s) changes branch); evaluation exactly
    there raises KinkError -- approach from either side for the one-sided
    slopes.  Scalar in, float out; array in, ndarray out.
    """
    _reject(t, ~((t > 0.0) & (t < 1.0)), "t must lie in (0, 1)")
    if np.any(t == 0.25):
        raise KinkError("-chi_d'(sqrt t) has a kink at t = 1/4",
                        x=0.25, kink=0.25)
    s = np.sqrt(t)
    # -phi_d'(r) at radius r = 2 sqrt(t): the sqrt-argument form takes 4t.
    term1 = 2.0 * phi_d_neg_deriv_sqrt(4.0 * t, d) * h_d(s, d)
    neg_h_deriv = d * beta_d(d) * (1.0 - t) ** ((d - 1) / 2.0)
    return term1 + phi_d(2.0 * s, d) * neg_h_deriv


def phi_d_radial(d: int) -> RadialFunction:
    """``phi_d`` packaged with its analytic derivative.

    The derivative of ``-phi_d'(sqrt t)`` jumps at t = 1 for every d >= 2,
    so the radius r = 1 is declared as a kink; d = 1 is the tent itself.
    """
    d = _integer(d, "d", 1)
    if d == 1:
        return tent()
    return RadialFunction(
        name=f"phi_{d}",
        func=lambda r: phi_d(r, d),
        deriv1=lambda r: -phi_d_neg_deriv_sqrt(r * r, d),
        kinks=(1.0,),
        family="tent_turning_bands",
        param=float(d),
    )


def chi_d_radial(d: int = 3) -> RadialFunction:
    """``chi_d`` packaged with its analytic derivative.

    Kinks sit at r = 1/2 (branch change of phi_d(2r)) and at the support
    boundary r = 1.
    """
    d = _integer(d, "d", 1)

    def deriv1(r):
        outside = np.asarray(r) >= 1.0
        inner = np.where(outside, 0.5, r * r)
        return np.where(outside, 0.0, -chi_d_neg_deriv_sqrt(inner, d))

    return RadialFunction(
        name=f"chi_{d}",
        func=lambda r: chi_d(r, d),
        deriv1=deriv1,
        kinks=(0.5, 1.0),
        support_bound=1.0,
        family="tent_turning_bands_product",
        param=float(d),
    )


# ---------------------------------------------------------------------------
# Multiplication by an overlap factor
# ---------------------------------------------------------------------------


@_float_rule(at=2, result=True)
def multiply_overlap(chi: RadialFunction, model: TcfModel, t, *,
                     tol: float = 1e-9):
    """``chi(t)`` times the TCF of ``model`` at t -- a TCF whenever chi is
    one, since a product of TCFs is a TCF.

    The overlap factor of a random ball of radius law R in R^d is
    ``M3bModel(dim=d, radius=R)``; that of a random normalized radial
    profile is an :class:`~tailcorr.models.M3rModel` over its law.  A float
    ``t`` gives a :class:`SpecialFnResult`; an array gives
    (values, abs_error_estimates) of its shape.
    """
    values, errors = tcf_result.__wrapped__(model, t, tol=tol)
    c = chi(t.ravel())
    return values * c, errors * np.abs(c)


# ---------------------------------------------------------------------------
# Convexity and curvature diagnostics
# ---------------------------------------------------------------------------


@_float_rule
def gneiting_c(t, d: int):
    """``c(t) = int_0^t sqrt(v/(t-v)) (-phi_d'(1/sqrt v)) dv``.

    Convexity of c (after dividing by beta_d) is necessary for the linear
    TCF with slope beta_d to extend to a monotone-shape storm process in
    dimension d >= 2; this function lets tests probe where convexity fails.

    With ``-phi_d'(1/sqrt v) = beta_d`` for v >= 1 and
    ``beta_d (1 - (1 - v)^{(d-1)/2})`` below, Euler's integral (DLMF
    15.6.1) gives c in the Gauss hypergeometric function 2F1:

        c(t) = t beta_d (pi/2) (1 - 2F1((1-d)/2, 3/2; 2; t)),   t <= 1,
        c(t) = t beta_d (pi/2 - t^{-3/2} B(3/2, (d+1)/2)
                         2F1(1/2, 3/2; (d+4)/2; 1/t)),          t > 1.

    Scalar in, float out; array in, ndarray out.
    """
    _reject(t, t < 0, "t must be >= 0")
    d = _integer(d, "d", 2)
    near = np.minimum(t, 1.0)
    far = np.maximum(t, 1.0)
    inner = np.where(
        t <= 1.0,
        math.pi / 2.0 * (1.0 - _special.hyp2f1((1 - d) / 2.0, 1.5, 2.0, near)),
        math.pi / 2.0 - _special.beta(1.5, (d + 1) / 2.0)
        * _special.hyp2f1(0.5, 1.5, (d + 4) / 2.0, 1.0 / far)
        / (far * np.sqrt(far)))
    return t * beta_d(d) * inner


def c_second_deriv_at_1(d: int) -> float:
    """Closed form of c''(1): ``-beta_d (d-1) 3 sqrt(pi) Gamma(d/2-2) /
    (16 Gamma((d+1)/2))``, valid for d >= 6 (negative: c is concave at 1)."""
    d = _integer(d, "d", 6)
    return -beta_d(d) * (d - 1) * 3.0 * math.sqrt(math.pi) * math.exp(
        math.lgamma(d / 2.0 - 2.0) - math.lgamma((d + 1) / 2.0)) / 16.0


def midpoint_convexity_violation(f: Callable[[float], float],
                                 grid: Sequence[float]
                                 ) -> tuple[float, float]:
    """Largest violation of the midpoint convexity inequality on a grid.

    For consecutive grid points a < b checks
    ``f((a+b)/2) <= (f(a)+f(b))/2``; returns (violation, midpoint) for the
    worst pair, where violation > 0 means f is not convex there.  ``f`` is
    called once on the grid and once on the midpoints when it takes arrays,
    and float by float otherwise.
    """
    xs = sorted(float(g) for g in grid)
    if len(xs) < 2:
        raise DomainError("grid needs at least two points")
    gap, _, mid, _ = _worst_midpoint_gap(_array_callable(f), xs)
    return gap, mid


@_float_rule
def implied_br_variogram(r):
    """The variogram exponent a Brown-Resnick TCF would need in order to
    equal ``0.25 erfc(sqrt r) + 0.75 erfc(5 sqrt r)``:

        psi(r) = erfc_inv(0.25 erfc(sqrt r) + 0.75 erfc(5 sqrt r))^2.

    psi is increasing from psi(0) = 0; its second derivative has a local
    minimum, which obstructs psi from having a completely monotone
    derivative -- the mixture TCF is not of Brown-Resnick type even though
    both components are.  Scalar in, float out; array in, ndarray out.
    """
    _reject(r, r < 0, "r must be >= 0")
    s = np.sqrt(r)
    mix = 0.25 * erfc(s) + 0.75 * erfc(5.0 * s)
    # psi(0) = 0 exactly, where erfc_inv(1) may round.
    root = erfc_inv(mix)
    return np.where(r == 0.0, 0.0, root * root)


def implied_br_curvature_min(lo: float = 1e-4, hi: float = 10.0, *,
                             n: int = 2000) -> tuple[float, float]:
    """Locate a local minimum of psi'' on [lo, hi].

    Scans a log grid of n points for a discrete local minimum of the
    numeric second derivative (one batch of Ridders ladders), then refines
    by golden-section on floats.  Returns (location, psi''(location));
    raises if no interior minimum exists.
    """
    grid = np.geomspace(lo, hi, n)

    def psi2(x):
        # Relative step keeps the whole Ridders ladder inside r > 0.
        return num_derivative(implied_br_variogram, x, 2, x / 20.0, levels=4)

    vals = psi2(grid)[0]
    interior = np.flatnonzero(
        (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])) + 1
    if interior.size == 0:
        raise TailcorrError(
            f"no local minimum of psi'' found on [{lo}, {hi}]")
    i = int(interior[np.argmin(vals[interior])])
    a, b = float(grid[i - 1]), float(grid[i + 1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d_ = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = psi2(c).value, psi2(d_).value
    for _ in range(60):
        if b - a < 1e-10 * max(1.0, abs(a)):
            break
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - invphi * (b - a)
            fc = psi2(c).value
        else:
            a, c, fc = c, d_, fd
            d_ = a + invphi * (b - a)
            fd = psi2(d_).value
    x_min = 0.5 * (a + b)
    return x_min, psi2(x_min).value


# ---------------------------------------------------------------------------
# The completely monotone building block 1 - erf(sqrt x)^2
# ---------------------------------------------------------------------------


@_float_rule
def erf_square_complement(x):
    """``1 - erf(sqrt x)^2``, completely monotone on [0, inf).  Scalar in,
    float out; array in, ndarray out."""
    _reject(x, x < 0, "x must be >= 0")
    e = _special.erf(np.sqrt(x))
    return 1.0 - e * e


@_float_rule
def erf_square_complement_deriv1(x):
    """First derivative: ``-(2/sqrt pi) (erf(sqrt x)/sqrt x) e^{-x}``,
    with the x -> 0 limit -4/pi.  Scalar in, float out; array in, ndarray
    out."""
    _reject(x, x < 0, "x must be >= 0")
    s = np.sqrt(np.where(x == 0.0, 1.0, x))
    return np.where(x == 0.0, -4.0 / math.pi, -(2.0 / math.sqrt(math.pi))
                    * (_special.erf(s) / s) * np.exp(-x))


def erf_square_complement_radial() -> RadialFunction:
    """The same function packaged with its derivative for membership tests."""
    return RadialFunction(name="erf_square_complement",
                          func=erf_square_complement,
                          deriv1=erf_square_complement_deriv1)
