"""Inversion of a tail correlation function into its storm representations.

A TCF chi realized by a mixed moving-maxima process in dimension d <= 3 can
be inverted in closed form into the defining object of each equivalent
construction:

* the monotone storm shape ``f`` of the fixed-shape moving-maxima process,
* the density ``k`` of the diameter ``2R`` of the random-ball process,
* the cdf ``H`` of ``1/R``, linked to ``f`` by
  ``f(u) = (1/kappa_d) int_0^{1/u} s^d dH(s)``.

All three routes pass through derivatives of chi:

====  ==============================  ==============================
dim   shape f(u)                      diameter density k(s)
====  ==============================  ==============================
1     -chi'(2u)                       s chi''(s)
2     theta-average of the d=3 entry  theta-average of the d=3 entry
3     chi''(2u) / (pi u)              (s/3) (chi''(s) - s chi'''(s))
====  ==============================  ==============================

A plane cuts a ball of diameter w = x cosh(theta) in a disc of diameter x
(Wicksell's corpuscle problem), so each d=2 object is a d=3 closed form
averaged over theta in (0, arccosh(b/x)), b the support end of chi: the
shape 2u int cosh f_3(u cosh), the density (3/2) int sech^3 k_3(s cosh)
plus a term per d=3 atom (a d=2 law has none), and the cdf (3/2) int
sech^4 K_3(s cosh), K_3 = 1 past b.  Numeric derivatives carry a relative
error of about 1e-9, so a d=2 integral of one floors its quadrature
tolerance at ``_NUMERIC_D2_TOL``.

Every function of distance here takes floats and arrays (one float rule,
``numerics._float_rule``); the d=2 integrals of an array are one batch.

A kink in chi (a jump of chi') corresponds to an atom in the diameter law
-- the tent TCF inverts to a deterministic ball -- so density queries on
such inputs return a structured :class:`AtomicAnswer` holding the full law
instead of a meaningless pointwise number.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution1D
from .errors import DomainError, KinkError, ModelError, NotInClassError
from .numerics import (_float_rule, _integer, _integrate, _reject, kappa_d,
                       quadrature)
from .radial import _KINK_EPS, RadialFunction

__all__ = [
    "RecoveryInput",
    "AtomicAnswer",
    "lambda_chi",
    "recover_shape",
    "recover_radius_density",
    "recover_radius_law",
    "shape_normalization",
    "radius_normalization",
    "f_from_H",
    "H_from_f",
]

# Relative offset used to take one-sided limits next to a declared kink.
_SIDE_EPS = 1e-7

#: Smallest quadrature tolerance of the d=2 integrals when chi'' or chi'''
#: is numeric: below it the integrand's differentiation noise, not the
#: quadrature, sets the error.
_NUMERIC_D2_TOL = 1e-8


@dataclass(frozen=True)
class RecoveryInput:
    """A TCF to invert, with the target dimension.

    ``chi`` must carry whatever derivative orders the dimension demands
    (order 1 for d=1 shapes, up to order 3 for d=3 radius densities);
    analytic derivatives, closed-form or from a Taylor hook, give
    machine-precision recovery, numeric fallbacks are accurate to roughly
    1e-7.

    In d=2, as in d=3, the shape and cdf need chi'' and the density chi''';
    numeric ones floor the tolerance at ``_NUMERIC_D2_TOL``.
    """

    chi: RadialFunction
    dim: int

    def __post_init__(self) -> None:
        _integer(self.dim, "dim", 1, 3)
        if abs(float(self.chi(0.0)) - 1.0) > 1e-9:
            raise ModelError(
                f"chi(0) must equal 1, got {float(self.chi(0.0))!r}")
        grid = np.logspace(-2, 1.5, 12)
        vals = self.chi(grid)
        if np.any(np.diff(vals) > 1e-9):
            raise ModelError(
                f"chi {self.chi.name!r} increases on the validation grid; "
                "not a valid TCF of this class")


@_float_rule(at=1)
def lambda_chi(inp: RecoveryInput, t):
    """The rescaled second derivative ``t * chi''(1/t)`` for t > 0.

    The paper's d=2 recovery integrates against d lambda_chi; the library
    averages the d=3 closed forms instead and keeps it as the paper's
    object.  Raises KinkError when 1/t lands on a declared kink of chi, or,
    where chi'' is numeric, so near one that the stencil would cross it.
    """
    _reject(t, ~(t > 0), "t must be > 0")
    return t * inp.chi.derivative(1.0 / t, 2)


def _end(fn: RadialFunction) -> float:
    return fn.support_bound if fn.support_bound is not None else math.inf


def _guard_nonnegative(name: str, x, value, slack: float) -> np.ndarray:
    bad = value < -max(slack, 1e-9)
    if bad.any():
        i = int(np.argmax(bad))
        x, v = float(x[i]), float(value[i])
        raise NotInClassError(
            f"recovered {name} is negative at {x:g}: {v:.6g}; the input "
            "TCF is not realized by this storm class", witness=(x, v))
    return np.where(value > 0.0, value, 0.0)


def _zero_where_refused(g, x: np.ndarray) -> np.ndarray:
    """``g`` on the array ``x``, with 0 at each entry where a derivative is
    refused (a KinkError naming that entry: it sits on a kink, or a numeric
    stencil there would cross one)."""
    out = np.zeros(x.shape)
    keep = np.ones(x.shape, dtype=bool)
    while keep.any():
        try:
            out[keep] = g(x[keep])
            break
        except KinkError as err:
            if not (keep & (x == err.x)).any():
                raise
            keep &= x != err.x
    return out


def _density_d3(chi: RadialFunction, w):
    """The d=3 diameter density at w."""
    return (w / 3.0) * (chi.derivative(w, 2) - w * chi.derivative(w, 3))


def _cdf_d3(chi: RadialFunction, w):
    """The d=3 diameter cdf at w, away from kinks."""
    return (1.0 - chi(w) + w * chi.derivative(w, 1)
            - w * w * chi.derivative(w, 2) / 3.0)


def _slice_average(inp: RecoveryInput, x: np.ndarray, power: int, form,
                   order: int, tol: float):
    """A d=3 closed form ``form(w)`` of derivatives of chi up to ``order``,
    times sech(theta)^power, integrated over theta in (0, arccosh(b / x_i))
    at w = x_i cosh(theta), b the support end of chi; with the sign guard's
    slack.  A numeric chi'' (or chi''' at order 3), one with neither a
    closed form nor a Taylor hook, floors ``tol`` at
    ``_NUMERIC_D2_TOL``."""
    chi = inp.chi
    if chi.taylor is None and None in (chi.deriv2, chi.deriv3)[:order - 1]:
        tol = max(tol, _NUMERIC_D2_TOL)
    with np.errstate(invalid="ignore"):
        # Kinks of chi at theta = arccosh(k / x_i) (NaN where k < x_i).
        points = np.arccosh(np.divide.outer(chi.kinks, x).T)

    def integrand(theta, k):
        c = np.cosh(theta)
        w = x[k] * c
        # Past w = 1e100, where cosh(theta) and w^2 overflow, it is 0.
        values = np.zeros(w.shape)
        near = w < 1e100
        c, w = c[near], w[near]
        # A node whose w rounds onto a kink takes the left piece.
        w = np.where(chi._on_kink(w),
                     w - 3.0 * _KINK_EPS * np.maximum(1.0, w), w)
        values[near] = form(w) / c**power
        return values

    return (_integrate(integrand, 0.0, np.arccosh(_end(chi) / x), tol,
                       points=points)[0], 10.0 * tol)


@_float_rule(at=1)
def recover_shape(inp: RecoveryInput, u, *, tol: float = 1e-10):
    """The storm shape f(u) of the fixed-shape moving-maxima process."""
    _reject(u, ~(u > 0), "u must be > 0")
    out = np.zeros(u.shape)
    live = ~(2.0 * u >= _end(inp.chi))
    u = u[live]
    slack = 0.0
    if inp.dim == 1:
        value = -inp.chi.derivative(2.0 * u, 1)
    elif inp.dim == 3:
        value = inp.chi.derivative(2.0 * u, 2) / (math.pi * u)
    else:
        # 2u int cosh f_3(u cosh) = (2/pi) int chi''(2u cosh).
        value, slack = _slice_average(inp, 2.0 * u, 0, lambda w: (
            2.0 / math.pi) * inp.chi.derivative(w, 2), 2, tol)
    out[live] = _guard_nonnegative("shape", u, value, slack)
    return out


def _diameter_atoms(inp: RecoveryInput) -> tuple[tuple[float, float], ...]:
    """Atoms of the diameter law, one per kink of chi, by one-sided limits
    of the exact cdf.  A d=2 law has none: each atom of the d=3 law slices
    into a term of its density."""
    if inp.dim == 2:
        return ()
    jumps = [(k, _diameter_cdf_smooth(inp, k * (1.0 + _SIDE_EPS))
              - _diameter_cdf_smooth(inp, k * (1.0 - _SIDE_EPS)))
             for k in inp.chi.kinks]
    return tuple((k, mass) for k, mass in jumps if mass > 1e-6)


def _diameter_cdf_smooth(inp: RecoveryInput, s: float) -> float:
    """The diameter cdf K(s) away from kinks: closed form for d=1,3, and
    its angle average for d=2."""
    chi = inp.chi
    end = _end(chi)
    if s <= 0 or s >= end:
        return float(s > 0)
    if inp.dim != 2 and chi._on_kink(np.array(s)):
        # No atom here (the law's cdf moves a query at an atom past it),
        # so the cdf is continuous: take the left piece.
        s -= 3.0 * _KINK_EPS * max(1.0, s)
    if inp.dim == 1:
        return 1.0 + s * chi.derivative(s, 1) - float(chi(s))
    if inp.dim == 3:
        return _cdf_d3(chi, s)
    # (3/2) int sech^4 K_3(s cosh) with K_3 = 1 past theta_b, where the
    # weight integrates to (1 - t)^2 (2 + t) / 2, t = tanh(theta_b).
    value, _ = _slice_average(inp, np.array([s]), 4,
                              lambda w: 1.5 * _cdf_d3(chi, w), 2, 1e-10)
    t = math.sqrt(1.0 - (s / end) ** 2)
    return float(value[0]) + 0.5 * (1.0 - t) ** 2 * (2.0 + t)


@dataclass(frozen=True)
class AtomicAnswer:
    """Returned by density queries when the diameter law has point masses.

    The requested density does not exist as a function; ``law`` carries the
    complete answer (atoms plus any continuous part).
    """

    law: Distribution1D


def recover_radius_density(inp: RecoveryInput, s, *, tol: float = 1e-10):
    """The density k(s) of the diameter 2R of the random-ball process.

    Returns a float or an array for smooth inputs.  If chi has kinks
    carrying mass the law is (partly) atomic and an :class:`AtomicAnswer`
    with the full distribution is returned instead.
    """
    arr = np.asarray(s, dtype=float)
    _reject(arr, ~(arr > 0), "s must be > 0")
    if _diameter_atoms(inp):
        return AtomicAnswer(law=recover_radius_law(inp))
    return _radius_density(s, inp, tol)


@_float_rule
def _radius_density(s, inp: RecoveryInput, tol: float):
    """k on an array of s, without looking for atoms; 0 at s <= 0 and
    beyond the support of chi."""
    chi = inp.chi
    out = np.zeros(s.shape)
    live = (s > 0) & ~(s >= _end(chi))
    s = s[live]
    slack = 0.0
    if inp.dim == 1:
        value = s * chi.derivative(s, 2)
    elif inp.dim == 3:
        value = _density_d3(chi, s)
    else:
        # (3/2) int sech^3 k_3(s cosh), plus a slice term per d=3 atom.
        value, slack = _slice_average(
            inp, s, 3, lambda w: 1.5 * _density_d3(chi, w), 3, tol)
        for k, m in _diameter_atoms(dataclasses.replace(inp, dim=3)):
            c = s < k
            value[c] += 1.5 * m * (s[c] / k) ** 3 / np.sqrt(
                (k - s[c]) * (k + s[c]))
    out[live] = _guard_nonnegative("diameter density", s, value, slack)
    return out


def recover_radius_law(inp: RecoveryInput, *, tol: float = 1e-10) -> Distribution1D:
    """The full law of the diameter 2R, including atoms from kinks of chi.

    The continuous part is the pointwise density between kinks; the cdf is
    exact (closed form in d=1,3; one angle integral in d=2, with no atoms).
    """
    atoms = _diameter_atoms(inp)

    def cdf(s: float) -> float:
        # Just right of an atom: right-continuous, the atom included.  The
        # cdf is continuous everywhere else, so no other query moves.
        for k, _ in atoms:
            if abs(s - k) <= 1e-9 * max(1.0, abs(k)):
                s = k * (1.0 + _SIDE_EPS)
        return min(1.0, _diameter_cdf_smooth(inp, s))

    pdf = None
    if sum(m for _, m in atoms) < 1.0 - 1e-9:
        # 0 where chi refuses a derivative at s, as on a kink.
        pdf = _float_rule(lambda s: _zero_where_refused(
            lambda x: _radius_density(x, inp, tol), s))

    return Distribution1D(
        name=f"diameter_law[{inp.chi.name}, d={inp.dim}]",
        cdf=cdf,
        pdf=pdf,
        atoms=atoms,
        support=(0.0, _end(inp.chi)),
    )


def shape_normalization(inp: RecoveryInput, *, tol: float = 1e-8) -> float:
    """``int_{R^d} f(|t|) dt`` for the recovered shape; 1 for valid inputs.

    Opt-in check (a full radial quadrature) -- not run during pointwise
    recovery.
    """
    d = inp.dim
    surface = d * kappa_d(d)
    res = quadrature(
        lambda u: recover_shape(inp, u) * u ** (d - 1), 0.0,
        _end(inp.chi) / 2.0, tol=tol, points=[k / 2.0 for k in inp.chi.kinks])
    return surface * res.value


def radius_normalization(inp: RecoveryInput, *, tol: float = 1e-8) -> float:
    """Total mass of the recovered diameter law; 1 for valid inputs."""
    law = recover_radius_law(inp)
    end = law.support[1]
    total = law.atom_mass
    if law.pdf is not None:
        # One piece per gap between kinks: in d=2 a d=3 atom at a kink k
        # slices into a density like (k - s)^(-1/2) below it.
        edges = np.array([0.0, *(k for k in inp.chi.kinks if k < end), end])
        beta = np.where((inp.dim == 2) & (edges[1:] < math.inf), -0.5, 0.0)
        total += _integrate(lambda s, k: law.pdf(s), edges[:-1], edges[1:],
                            tol, singular_exponent_b=beta)[0].sum()
    return float(total)


# ---------------------------------------------------------------------------
# The f <-> H correspondence
# ---------------------------------------------------------------------------


@_float_rule(at=2)
def f_from_H(H: Distribution1D, d: int, u, *, tol: float = 1e-10):
    """Shape value ``f(u) = (1/kappa_d) int_0^{1/u} s^d dH(s)``.

    H is the cdf of 1/R.  Atoms exactly at s = 1/u are included
    (right-continuous convention).
    """
    d = _integer(d, "d", 1)
    _reject(u, ~(u > 0), "u must be > 0")
    cut = 1.0 / u
    total = sum((np.where(a <= cut, a**d * m, 0.0) for a, m in H.atoms),
                np.zeros(u.shape))
    if 1.0 - H.atom_mass > 1e-12:
        if H.pdf is None:
            raise DomainError(
                f"law {H.name!r} has continuous mass but no density")
        lo, hi = H.support
        top = np.minimum(cut, hi)
        live = top > lo
        total[live] += _integrate(
            lambda s, k: s**d * H._density(s), lo, top[live], tol,
            singular_exponent_a=H.pdf_singular_exponent,
            points=H.pdf_points)[0]
    return total / kappa_d(d)


@_float_rule(at=2)
def H_from_f(f: RadialFunction, d: int, s, *, tol: float = 1e-10):
    """Cdf value ``H(s) = kappa_d int_{1/s}^inf v^d (-f'(v)) dv``.

    Jump discontinuities of f at declared kinks contribute atoms of 1/R at
    the kink radius (a ball-indicator shape gives a point mass).  H is 0 at
    s <= 0; NaN is refused.
    """
    d = _integer(d, "d", 1)
    _reject(s, np.isnan(s), "s must not be NaN")
    lo = np.divide(1.0, s, out=np.full(s.shape, math.inf), where=s > 0)
    hi = _end(f)
    total = np.zeros(lo.shape)
    for k in f.kinks:
        jump = float(f(k * (1.0 - _SIDE_EPS))) - float(f(k * (1.0 + _SIDE_EPS)))
        if jump > 1e-12 and k <= hi:
            total = total + np.where(k >= lo, k**d * jump, 0.0)

    def integrand(v, k):
        return _zero_where_refused(lambda x: -x**d * f.derivative(x, 1), v)

    inner = hi > lo
    total[inner] += _integrate(integrand, lo[inner], hi, tol,
                               points=f.kinks)[0]
    return kappa_d(d) * total
