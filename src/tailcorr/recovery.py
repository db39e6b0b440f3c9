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
from .numerics import _integrate, kappa_d, quadrature
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


def lambda_chi(inp: RecoveryInput, t: float) -> float:
    """The rescaled second derivative ``t * chi''(1/t)`` for t > 0.

    This is the cdf-like function whose increments drive the d=2 recovery
    integrals.  Raises KinkError when 1/t lands on a declared kink of chi.
    """
    tf = float(t)
    if tf <= 0:
        raise DomainError(f"t must be > 0, got {t!r}")
    return tf * inp.chi.derivative(1.0 / tf, 2)


def _beyond_support(inp: RecoveryInput, r: float) -> bool:
    b = inp.chi.support_bound
    return b is not None and r >= b


def _guard_nonnegative(name: str, x: float, value: float, slack: float) -> float:
    if value < -max(slack, 1e-9):
        raise NotInClassError(
            f"recovered {name} is negative at {x:g}: {value:.6g}; the input "
            "TCF is not realized by this storm class",
            witness=(x, value))
    return max(0.0, value)


def _d2_kernel(inp: RecoveryInput, w):
    """``chi''(w) - w chi'''(w)``, the density of d lambda_chi pushed to
    the radius variable w = 1/t (so that d lambda_chi(t) = kernel dw/w^2);
    ``w`` is an array."""
    return inp.chi.derivative(w, 2) - w * inp.chi.derivative(w, 3)


def _d2_tol(inp: RecoveryInput, tol: float) -> float:
    """The d=2 quadrature tolerance: ``tol``, floored at
    ``_NUMERIC_D2_TOL`` when chi'' or chi''' is numeric."""
    if inp.chi.deriv2 is None or inp.chi.deriv3 is None:
        return max(tol, _NUMERIC_D2_TOL)
    return tol


def recover_shape(inp: RecoveryInput, u: float, *, tol: float = 1e-10) -> float:
    """The storm shape f(u) of the fixed-shape moving-maxima process."""
    uf = float(u)
    if uf <= 0:
        raise DomainError(f"u must be > 0, got {u!r}")
    if _beyond_support(inp, 2.0 * uf):
        return 0.0
    if inp.dim == 1:
        value = -inp.chi.derivative(2.0 * uf, 1)
        return _guard_nonnegative("shape", uf, value, 0.0)
    if inp.dim == 3:
        value = inp.chi.derivative(2.0 * uf, 2) / (math.pi * uf)
        return _guard_nonnegative("shape", uf, value, 0.0)

    # d = 2: (4u/pi) int_0^{1/(2u)} sqrt((2ut)^{-2} - 1) d lambda_chi(t).
    # In the radius variable w = 1/t this is
    #   (2/pi) int_{2u}^inf sqrt(w^2 - 4u^2) (chi''(w) - w chi'''(w)) / w^2 dw,
    # with a benign square-root zero at the lower endpoint and the decay of
    # chi's derivatives at infinity.
    lo = 2.0 * uf
    hi = inp.chi.support_bound if inp.chi.support_bound is not None else math.inf
    tol = _d2_tol(inp, tol)

    def integrand(w, k):
        arg = np.maximum((w - lo) * (w + lo), 0.0)
        return np.sqrt(arg) * _d2_kernel(inp, w) / (w * w)

    # The integrand is a smooth function of sqrt(w - 2u) at its lower end,
    # which the square-root variable change smooths out.
    value = (2.0 / math.pi) * float(_integrate(
        integrand, lo, hi, tol, singular_exponent_a=-0.5)[0][0])
    return _guard_nonnegative("shape", uf, value, 10.0 * tol)


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
    if _beyond_support(inp, s):
        return 1.0
    if inp.dim == 1:
        return 1.0 + s * chi.derivative(s, 1) - float(chi(s))
    if inp.dim == 3:
        return (1.0 - float(chi(s)) + s * chi.derivative(s, 1)
                - s * s * chi.derivative(s, 2) / 3.0)
    # d = 2 has no derivative-only closed form; integrate the density.
    res = quadrature(lambda x: recover_radius_density(inp, x, _assume_smooth=True),
                     0.0, s, tol=1e-9)
    return min(1.0, res.value)


@dataclass(frozen=True)
class AtomicAnswer:
    """Returned by density queries when the diameter law has point masses.

    The requested density does not exist as a function; ``law`` carries the
    complete answer (atoms plus any continuous part).
    """

    law: Distribution1D


def recover_radius_density(inp: RecoveryInput, s: float, *,
                           tol: float = 1e-10,
                           _assume_smooth: bool = False):
    """The density k(s) of the diameter 2R of the random-ball process.

    Returns a float for smooth inputs.  If chi has kinks carrying mass the
    law is (partly) atomic and an :class:`AtomicAnswer` with the full
    distribution is returned instead.
    """
    sf = float(s)
    if sf <= 0:
        raise DomainError(f"s must be > 0, got {s!r}")
    if not _assume_smooth and inp.chi.kinks and _diameter_atoms(inp):
        return AtomicAnswer(law=recover_radius_law(inp))
    if _beyond_support(inp, sf):
        return 0.0
    chi = inp.chi
    if inp.dim == 1:
        value = sf * chi.derivative(sf, 2)
        return _guard_nonnegative("diameter density", sf, value, 0.0)
    if inp.dim == 3:
        value = (sf / 3.0) * (chi.derivative(sf, 2)
                              - sf * chi.derivative(sf, 3))
        return _guard_nonnegative("diameter density", sf, value, 0.0)

    # d = 2: (s^2/2) int_0^{1/s} ((st)^{-2} - 1)^{-1/2} d lambda_chi(t); in
    # the radius variable w = 1/t this is
    #   (s^3/2) int_s^inf (w^2 - s^2)^{-1/2} (chi''(w) - w chi'''(w)) / w^2 dw
    # with an inverse-square-root singularity at the lower endpoint,
    # integrated over the offset x = w - s so the singular factor
    # (x (w + s))^{-1/2} is computed without cancellation.
    hi = inp.chi.support_bound if inp.chi.support_bound is not None else math.inf
    tol = _d2_tol(inp, tol)

    def integrand(x, k):
        # A mapped node may round onto an end, where the weight is dropped.
        w = sf + x
        inside = (x > 0.0) & (w < hi)
        out = np.zeros(x.shape)
        xi, wi = x[inside], w[inside]
        out[inside] = ((xi * (wi + sf)) ** -0.5 * _d2_kernel(inp, wi)
                       / (wi * wi))
        return out

    value = 0.5 * sf**3 * float(_integrate(
        integrand, 0.0, hi - sf, tol, singular_exponent_a=-0.5)[0][0])
    return _guard_nonnegative("diameter density", sf, value, 10.0 * tol)


def recover_radius_law(inp: RecoveryInput, *, tol: float = 1e-10) -> Distribution1D:
    """The full law of the diameter 2R, including atoms from kinks of chi.

    The continuous part is the pointwise density between kinks; the cdf is
    exact (closed form in d=1,3; integrated in d=2).
    """
    atoms = _diameter_atoms(inp) if inp.chi.kinks else ()
    atom_mass = sum(m for _, m in atoms)
    hi = inp.chi.support_bound if inp.chi.support_bound is not None else math.inf

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
        def pdf(s: float) -> float:  # noqa: F811 - conditional definition
            if s <= 0 or _beyond_support(inp, s):
                return 0.0
            try:
                v = recover_radius_density(inp, s, tol=tol, _assume_smooth=True)
            except KinkError:
                return 0.0
            return float(v)

    return Distribution1D(
        name=f"diameter_law[{inp.chi.name}, d={inp.dim}]",
        cdf=cdf,
        pdf=pdf,
        atoms=atoms,
        support=(0.0, hi),
    )


def shape_normalization(inp: RecoveryInput, *, tol: float = 1e-8) -> float:
    """``int_{R^d} f(|t|) dt`` for the recovered shape; 1 for valid inputs.

    Opt-in check (a full radial quadrature) -- not run during pointwise
    recovery.
    """
    d = inp.dim
    surface = d * kappa_d(d)
    hi = (inp.chi.support_bound / 2.0 if inp.chi.support_bound is not None
          else math.inf)
    kink_pts = [k / 2.0 for k in inp.chi.kinks if 0.0 < k / 2.0 < hi]
    res = quadrature(
        lambda u: recover_shape(inp, u) * u ** (d - 1),
        0.0, hi, tol=tol, points=kink_pts)
    return surface * res.value


def radius_normalization(inp: RecoveryInput, *, tol: float = 1e-8) -> float:
    """Total mass of the recovered diameter law; 1 for valid inputs."""
    law = recover_radius_law(inp)
    total = law.atom_mass
    if law.pdf is not None:
        hi = law.support[1]
        pts = [k for k in inp.chi.kinks if 0.0 < k < hi]
        total += quadrature(law.pdf, 0.0, hi, tol=tol, points=pts).value
    return total


# ---------------------------------------------------------------------------
# The f <-> H correspondence
# ---------------------------------------------------------------------------


def f_from_H(H: Distribution1D, d: int, u: float, *, tol: float = 1e-10) -> float:
    """Shape value ``f(u) = (1/kappa_d) int_0^{1/u} s^d dH(s)``.

    H is the cdf of 1/R.  Atoms exactly at s = 1/u are included
    (right-continuous convention).
    """
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d!r}")
    uf = float(u)
    if uf <= 0:
        raise DomainError(f"u must be > 0, got {u!r}")
    cut = 1.0 / uf
    total = sum(a**d * m for a, m in H.atoms if a <= cut)
    if 1.0 - H.atom_mass > 1e-12:
        if H.pdf is None:
            raise DomainError(
                f"law {H.name!r} has continuous mass but no density")
        lo, hi = H.support
        top = min(cut, hi)
        if top > lo:
            total += quadrature(
                lambda s: s**d * H.pdf(s), lo, top, tol=tol,
                singular_exponent_a=H.pdf_singular_exponent,
                points=[p for p in H.pdf_points if lo < p < top]).value
    return total / kappa_d(d)


def H_from_f(f: RadialFunction, d: int, s: float, *, tol: float = 1e-10) -> float:
    """Cdf value ``H(s) = kappa_d int_{1/s}^inf v^d (-f'(v)) dv``.

    Jump discontinuities of f at declared kinks contribute atoms of 1/R at
    the kink radius (a ball-indicator shape gives a point mass).
    """
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d!r}")
    sf = float(s)
    if sf <= 0:
        return 0.0
    lo = 1.0 / sf
    hi = f.support_bound if f.support_bound is not None else math.inf
    total = 0.0
    for k in f.kinks:
        if k < lo or k > hi:
            continue
        jump = float(f(k * (1.0 - _SIDE_EPS))) - float(f(k * (1.0 + _SIDE_EPS)))
        if jump > 1e-12:
            total += k**d * jump

    def integrand(v: float) -> float:
        try:
            return -v**d * f.derivative(v, 1)
        except KinkError:
            return 0.0

    if hi > lo:
        pts = [k for k in f.kinks if lo < k < hi]
        total += quadrature(integrand, lo, hi, tol=tol, points=pts).value
    return kappa_d(d) * total
