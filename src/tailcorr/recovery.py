"""Inversion of a tail correlation function into its storm representations.

A TCF chi realized by a mixed moving-maxima process in dimension d <= 3 can
be inverted in closed form into the defining object of each equivalent
construction:

* the monotone storm shape ``f`` of the fixed-shape moving-maxima process,
* the density ``k`` of the diameter ``2R`` of the random-ball process,
* the cdf ``H`` of ``1/R``, linked to ``f`` by
  ``f(u) = (1/kappa_d) int_0^{1/u} s^d dH(s)``.

All three routes pass through derivatives of chi:

====  ========================  =====================================
dim   shape f(u)                diameter density k(s)
====  ========================  =====================================
1     -chi'(2u)                 s chi''(s)
2     (4u/pi) int sqrt-kernel   (s^2/2) int inverse-sqrt kernel
3     chi''(2u) / (pi u)        (s/3) (chi''(s) - s chi'''(s))
====  ========================  =====================================

where the d=2 kernels integrate against the measure ``d lambda_chi`` with
``lambda_chi(t) = t chi''(1/t)``.  The d=2 formulas assume enough smoothness
for lambda_chi to be differentiable: the integrals are computed against
``lambda_chi'`` in the radius variable w = 1/t, with chi'' and chi''' taken
analytically where chi carries them and numerically otherwise.  Numeric
derivatives carry a relative error of about 1e-9, so that route floors its
quadrature tolerance at ``_NUMERIC_D2_TOL``.

Every function of distance here takes floats and arrays (one float rule,
``numerics._float_rule``); the d=2 integrals of an array are one batch.

A kink in chi (a jump of chi') corresponds to an atom in the diameter law
-- the tent TCF inverts to a deterministic ball -- so density queries on
such inputs return a structured :class:`AtomicAnswer` holding the full law
instead of a meaningless pointwise number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution1D
from .errors import DomainError, KinkError, ModelError, NotInClassError
from .numerics import _float_rule, _integrate, _reject, kappa_d, quadrature
from .radial import RadialFunction

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
    analytic derivatives give machine-precision recovery, numeric fallbacks
    are accurate to roughly 1e-7.

    The d=2 formulas hold under a stronger smoothness assumption on chi
    (a third derivative exists); without analytic second and third
    derivatives they integrate numeric ones, at a tolerance of at least
    ``_NUMERIC_D2_TOL``.
    """

    chi: RadialFunction
    dim: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise DomainError(
                f"recovery formulas cover dim 1, 2, 3; got {self.dim!r}")
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

    This is the cdf-like function whose increments drive the d=2 recovery
    integrals.  Raises KinkError when 1/t lands on a declared kink of chi.
    """
    _reject(t, t <= 0, "t must be > 0")
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


def _d2_kernel(inp: RecoveryInput, w):
    """``chi''(w) - w chi'''(w)``, the density of d lambda_chi pushed to
    the radius variable w = 1/t (so that d lambda_chi(t) = kernel dw/w^2);
    ``w`` is an array."""
    return inp.chi.derivative(w, 2) - w * inp.chi.derivative(w, 3)


def _d2_integrals(inp: RecoveryInput, integrand, a, b, tol: float):
    """The d=2 integrals over (a_i, b_i), with a square-root change at a, at
    ``tol`` floored at ``_NUMERIC_D2_TOL`` when chi'' or chi''' is numeric;
    returned with the slack of the sign guard."""
    if inp.chi.deriv2 is None or inp.chi.deriv3 is None:
        tol = max(tol, _NUMERIC_D2_TOL)
    return (_integrate(integrand, a, b, tol, singular_exponent_a=-0.5)[0],
            10.0 * tol)


@_float_rule(at=1)
def recover_shape(inp: RecoveryInput, u, *, tol: float = 1e-10):
    """The storm shape f(u) of the fixed-shape moving-maxima process."""
    _reject(u, u <= 0, "u must be > 0")
    out = np.zeros(u.shape)
    live = ~(2.0 * u >= _end(inp.chi))
    u = u[live]
    slack = 0.0
    if inp.dim == 1:
        value = -inp.chi.derivative(2.0 * u, 1)
    elif inp.dim == 3:
        value = inp.chi.derivative(2.0 * u, 2) / (math.pi * u)
    else:
        # d = 2: (4u/pi) int_0^{1/(2u)} sqrt((2ut)^{-2} - 1) d lambda_chi(t).
        # In the radius variable w = 1/t this is
        #   (2/pi) int_{2u}^inf sqrt(w^2 - 4u^2) (chi''(w) - w chi'''(w)) / w^2 dw,
        # with a benign square-root zero at the lower endpoint and the decay
        # of chi's derivatives at infinity; one integral per entry.
        lo = 2.0 * u

        def integrand(w, k):
            arg = np.maximum((w - lo[k]) * (w + lo[k]), 0.0)
            return np.sqrt(arg) * _d2_kernel(inp, w) / (w * w)

        # The integrand is a smooth function of sqrt(w - 2u) at its lower
        # end, which the square-root variable change smooths out.
        value, slack = _d2_integrals(inp, integrand, lo, _end(inp.chi), tol)
        value = (2.0 / math.pi) * value
    out[live] = _guard_nonnegative("shape", u, value, slack)
    return out


def _diameter_atoms(inp: RecoveryInput) -> tuple[tuple[float, float], ...]:
    """Atoms of the diameter law, one per kink of chi, by one-sided limits
    of the exact cdf."""
    atoms = []
    for k in inp.chi.kinks:
        lo = _diameter_cdf_smooth(inp, k * (1.0 - _SIDE_EPS))
        hi = _diameter_cdf_smooth(inp, k * (1.0 + _SIDE_EPS))
        mass = hi - lo
        if mass > 1e-6:
            atoms.append((k, mass))
    return tuple(atoms)


def _diameter_cdf_smooth(inp: RecoveryInput, s: float) -> float:
    """The diameter cdf K(s) away from kinks, in closed form for d=1,3."""
    chi = inp.chi
    if s <= 0:
        return 0.0
    if s >= _end(chi):
        return 1.0
    if inp.dim == 1:
        return 1.0 + s * chi.derivative(s, 1) - float(chi(s))
    if inp.dim == 3:
        return (1.0 - float(chi(s)) + s * chi.derivative(s, 1)
                - s * s * chi.derivative(s, 2) / 3.0)
    # d = 2 has no derivative-only closed form; integrate the density.
    res = quadrature(lambda x: _radius_density(x, inp, 1e-10), 0.0, s,
                     tol=1e-9)
    return min(1.0, res.value)


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
    _reject(arr, arr <= 0, "s must be > 0")
    if inp.chi.kinks and _diameter_atoms(inp):
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
        value = (s / 3.0) * (chi.derivative(s, 2) - s * chi.derivative(s, 3))
    else:
        # d = 2: (s^2/2) int_0^{1/s} ((st)^{-2} - 1)^{-1/2} d lambda_chi(t);
        # in the radius variable w = 1/t this is
        #   (s^3/2) int_s^inf (w^2 - s^2)^{-1/2} (chi''(w) - w chi'''(w)) / w^2 dw
        # with an inverse-square-root singularity at the lower endpoint,
        # integrated over the offset x = w - s so the singular factor
        # (x (w + s))^{-1/2} is computed without cancellation.
        hi = _end(chi)

        def integrand(x, k):
            # A mapped node may round onto an end; its weight is dropped.
            base = np.broadcast_to(s[k], x.shape)
            w = base + x
            inside = (x > 0.0) & (w < hi)
            values = np.zeros(x.shape)
            xi, wi = x[inside], w[inside]
            values[inside] = ((xi * (wi + base[inside])) ** -0.5
                              * _d2_kernel(inp, wi) / (wi * wi))
            return values

        value, slack = _d2_integrals(inp, integrand, 0.0, hi - s, tol)
        value = 0.5 * s**3 * value
    out[live] = _guard_nonnegative("diameter density", s, value, slack)
    return out


def recover_radius_law(inp: RecoveryInput, *, tol: float = 1e-10) -> Distribution1D:
    """The full law of the diameter 2R, including atoms from kinks of chi.

    The continuous part is the pointwise density between kinks; the cdf is
    exact (closed form in d=1,3; integrated in d=2).
    """
    atoms = _diameter_atoms(inp) if inp.chi.kinks else ()
    atom_mass = sum(m for _, m in atoms)

    def nudge(s: float) -> float:
        # Evaluate the smooth cdf just right of a kink so the result is
        # right-continuous (includes the atom).
        k = inp.chi.nearest_kink(s)
        if k is not None and abs(s - k) <= 1e-9 * max(1.0, abs(k)):
            return k * (1.0 + _SIDE_EPS)
        return s

    def cdf(s: float) -> float:
        if s <= 0:
            return 0.0
        return min(1.0, _diameter_cdf_smooth(inp, nudge(s)))

    pdf = None
    if atom_mass < 1.0 - 1e-9:
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
    total = law.atom_mass
    if law.pdf is not None:
        total += quadrature(law.pdf, 0.0, law.support[1], tol=tol,
                            points=inp.chi.kinks).value
    return total


# ---------------------------------------------------------------------------
# The f <-> H correspondence
# ---------------------------------------------------------------------------


@_float_rule(at=2)
def f_from_H(H: Distribution1D, d: int, u, *, tol: float = 1e-10):
    """Shape value ``f(u) = (1/kappa_d) int_0^{1/u} s^d dH(s)``.

    H is the cdf of 1/R.  Atoms exactly at s = 1/u are included
    (right-continuous convention).
    """
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d!r}")
    _reject(u, u <= 0, "u must be > 0")
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
    the kink radius (a ball-indicator shape gives a point mass).
    """
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d!r}")
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
