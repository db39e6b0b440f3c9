"""One-dimensional mixing distributions with explicit atoms.

Models and recovery both push distributions around: the radius law of a
random ball, the intensity mixing law of a Poisson storm process, the scale
mixing law of a variance-mixed Gaussian.  These laws can be absolutely
continuous, purely atomic, or mixed (a tent-shaped TCF inverts to a radius
law that is a single point mass), so the representation keeps the two parts
separate:

* ``pdf`` is the density of the absolutely continuous part (may be ``None``),
* ``atoms`` lists ``(location, mass)`` pairs,
* ``cdf`` is the full right-continuous cdf including atoms.

Expectations integrate the density part with the batched Gauss-Kronrod
engine of :mod:`~tailcorr.numerics` and add the atom sum, so error estimates
flow through.  A density may take floats only; it is then evaluated float by
float.

Draws take one route per law, fixed on the first draw: the law's own
sampler, its atoms, a tabulated inverse cdf of its density (with its atoms),
its quantile function, or bisection on its cdf.  ``sample(rng, n)`` and the
one-draw ``sample_one(rng)`` of the simulation samplers share it, so one
draw has the bits of ``sample(rng, 1)[0]``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, SimulationError
from .numerics import (
    SpecialFnResult,
    _array_callable,
    _integrate,
    _once_per_node,
)

__all__ = [
    "Distribution1D",
    "point_mass",
    "exponential_dist",
    "from_pdf",
    "from_cdf",
    "scale_distribution",
]


#: Nodes of the tabulated inverse cdf that samples a law given by a density.
_TABLE_NODES = 1024

#: Upper-tail mass a table of a density with unbounded support may leave out,
#: relative to the mass it covers.
_TABLE_TAIL_MASS = 1e-10


@dataclass(frozen=True)
class Distribution1D:
    """A probability law on an interval of the real line.

    Parameters
    ----------
    name:
        Human-readable tag, carried into model fingerprints.
    cdf:
        Full right-continuous cdf (continuous part plus atoms).
    pdf:
        Density of the absolutely continuous part, or ``None`` if the law is
        purely atomic.  It may take floats only or whole arrays.
    atoms:
        ``(location, mass)`` pairs, sorted by location, masses > 0.
    support:
        ``(lo, hi)`` with the law concentrated on ``[lo, hi]``; ``hi`` may be
        ``inf``.
    quantile:
        Optional analytic quantile function; numeric inversion of ``cdf`` is
        used when absent.
    sampler:
        Optional ``sampler(rng, n) -> ndarray``; inverse-cdf sampling is used
        when absent (see :meth:`sample`).
    pdf_singular_exponent:
        Algebraic exponent of the density at the lower support endpoint
        (``pdf(x) ~ (x - lo)^alpha``), forwarded to quadrature.
    pdf_points:
        Interior abscissae where the density has kinks or sharp peaks,
        forwarded to quadrature as subdivision hints.
    """

    name: str
    cdf: Callable[[float], float] | None = None
    pdf: Callable[[float], float] | None = None
    atoms: tuple[tuple[float, float], ...] = ()
    support: tuple[float, float] = (0.0, math.inf)
    quantile: Callable[[float], float] | None = None
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    pdf_singular_exponent: float = 0.0
    pdf_points: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        lo, hi = self.support
        if not math.isfinite(lo) or hi < lo:
            raise DomainError(f"invalid support {self.support!r}")
        masses = [m for _, m in self.atoms]
        if any(m <= 0 for m in masses):
            raise DomainError(f"atom masses must be positive, got {self.atoms!r}")
        if sum(masses) > 1.0 + 1e-9:
            raise DomainError(f"atom masses sum to {sum(masses)!r} > 1")
        locs = [a for a, _ in self.atoms]
        if locs != sorted(locs):
            raise DomainError("atoms must be sorted by location")
        if self.cdf is None and self.pdf is None and not self.atoms:
            raise DomainError("a distribution needs a cdf, a pdf, or atoms")

    @property
    def atom_mass(self) -> float:
        return sum(m for _, m in self.atoms)

    @property
    def is_purely_atomic(self) -> bool:
        return self.pdf is None and abs(self.atom_mass - 1.0) <= 1e-9

    @cached_property
    def _density(self) -> Callable:
        """``pdf`` as a function of arrays: called on them if it takes them,
        else float by float."""
        return _array_callable(self.pdf)

    def _density_mass(self, a, b, tol: float) -> np.ndarray:
        """Mass of the density part on each (a_i, b_i), lower ends on or
        above the support's lower endpoint."""
        a = np.asarray(a, dtype=float)
        return _integrate(
            lambda x, k: self._density(x), a, b, tol,
            singular_exponent_a=np.where(a == self.support[0],
                                         self.pdf_singular_exponent, 0.0),
            points=self.pdf_points)[0]

    def cdf_value(self, x: float) -> float:
        """Right-continuous cdf at ``x``."""
        if self.cdf is not None:
            return min(1.0, max(0.0, float(self.cdf(x))))
        lo, _ = self.support
        if x < lo:
            return 0.0
        total = sum(m for a, m in self.atoms if a <= x)
        if self.pdf is not None:
            total += float(self._density_mass(lo, min(x, self.support[1]),
                                              1e-10)[0])
        return min(1.0, max(0.0, total))

    def expectations(self, g: Callable, t, *, tol: float = 1e-9,
                     points=()) -> tuple[np.ndarray, np.ndarray]:
        """E[g(X, t_i)] for each entry t_i of ``t``, with absolute error
        estimates, as two arrays of the shape of ``t``.

        ``g`` takes arrays of x and of t of one shape.  The continuous part
        is one batch of integrals against the density; atoms contribute
        exactly.  ``points`` adds subdivision hints (in x) on top of the
        distribution's own: one row shared by all t, or one row per t.
        """
        ts = np.asarray(t, dtype=float)
        flat = ts.ravel()
        hints = np.asarray(points, dtype=float)
        if hints.ndim > 2 or (hints.ndim == 2
                              and hints.shape[0] not in (1, flat.size)):
            raise DomainError(
                f"points must be one row or one row per entry of t, got "
                f"shape {hints.shape} for t of shape {ts.shape}")
        value = np.zeros(flat.shape)
        for a, m in self.atoms:
            value = value + m * np.asarray(g(np.full(flat.shape, a), flat),
                                           dtype=float)
        err = np.zeros(flat.shape)
        if 1.0 - self.atom_mass > 1e-12:
            if self.pdf is None:
                raise DomainError(
                    f"distribution {self.name!r} has continuous mass but no "
                    "density; cannot take expectations")
            own = np.asarray(self.pdf_points, dtype=float)
            if hints.ndim == 2:
                own = np.broadcast_to(own, (hints.shape[0], own.size))
            lo, hi = self.support
            cont, err = _integrate(
                lambda x, k: g(x, flat[k]) * _once_per_node(self._density, x),
                np.full(flat.shape, lo), hi, tol,
                singular_exponent_a=self.pdf_singular_exponent,
                points=np.concatenate([own, hints], axis=-1))
            value = value + cont
        return value.reshape(ts.shape), err.reshape(ts.shape)

    def expect(self, g: Callable[[float], float], *, tol: float = 1e-9,
               points: Sequence[float] = ()) -> SpecialFnResult:
        """E[g(X)] with an absolute error estimate, for a callable ``g`` of
        one float or of arrays (called on whole panel sets when it takes
        them, else float by float)."""
        adapted = _array_callable(g)
        values, errors = self.expectations(
            lambda x, _: adapted(x), 0.0, tol=tol, points=points)
        return SpecialFnResult(float(values), float(errors))

    def mean(self, *, tol: float = 1e-9) -> float:
        return float(self.expectations(lambda x, _: x, 0.0, tol=tol)[0])

    def quantile_value(self, q: float) -> float:
        """Generalized inverse cdf: inf{x : cdf(x) >= q}."""
        if not 0.0 < q < 1.0:
            raise DomainError(f"quantile level must be in (0,1), got {q!r}")
        if self.quantile is not None:
            return float(self.quantile(q))
        if self.is_purely_atomic:
            total = 0.0
            for a, m in self.atoms:
                total += m
                if total >= q - 1e-15:
                    return a
            return self.atoms[-1][0]
        lo, hi = self.support
        if not math.isfinite(hi):
            hi = max(lo + 1.0, 1.0)
            while self.cdf_value(hi) < q:
                hi *= 2.0
                if hi > 1e300:
                    raise DomainError(
                        f"quantile {q} of {self.name!r} beyond 1e300")
        # Bisection on the right-continuous cdf handles jumps correctly.
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if self.cdf_value(mid) >= q:
                b = mid
            else:
                a = mid
            if b - a <= 1e-14 * max(1.0, abs(b)):
                break
        return b

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` independent draws from the law.

        The law's own ``sampler`` is used when given, else its ``quantile``
        at uniform levels.  Without either, a purely atomic law draws its
        atoms, a law with a density draws from a tabulated inverse cdf of
        the density part (built on the first draw and kept; about 1e-6
        relative quantile error, far below every estimator tolerance) and
        its atoms, and a law given only by its cdf inverts it by bisection.
        A NaN or a value outside the support from the law's ``sampler`` or
        ``quantile`` raises :class:`~tailcorr.errors.DomainError`.
        """
        return self._route[0](rng, n)

    def sample_one(self, rng: np.random.Generator) -> float:
        """One draw: the float ``sample(rng, 1)[0]``, bit for bit, from the
        same random numbers, without the array."""
        return self._route[1](rng)

    @cached_property
    def _route(self) -> tuple[Callable, Callable]:
        """The draw route of :meth:`sample`, decided once per law: a pair
        ``(many, one)`` of ``many(rng, n)`` and ``one(rng)``."""
        if self.sampler is not None:
            return self._sampler_route()
        if self.quantile is None and self.is_purely_atomic:
            return self._atom_route()
        if self.quantile is None and self.pdf is not None:
            return self._table_route()
        return self._quantile_route()

    def _outside(self, value: float, source: str) -> DomainError:
        """The error for a draw of ``source`` outside the support."""
        lo, hi = self.support
        return DomainError(
            f"the {source} of law {self.name!r} returned {value!r}, outside "
            f"its support [{lo!r}, {hi!r}]")

    def _sampler_route(self) -> tuple[Callable, Callable]:
        sampler, (lo, hi) = self.sampler, self.support

        def many(rng, n):
            out = np.asarray(sampler(rng, n), dtype=float)
            if out.shape != (n,):
                raise DomainError(
                    f"sampler of {self.name!r} returned shape {out.shape}, "
                    f"expected ({n},)")
            inside = (out >= lo) & (out <= hi)
            if not inside.all():
                raise self._outside(float(out[np.argmin(inside)]), "sampler")
            return out

        return many, lambda rng: float(many(rng, 1)[0])

    def _atom_route(self) -> tuple[Callable, Callable]:
        points, cdf, _ = self._atom_cdf()

        def many(rng, n):
            return points[cdf.searchsorted(rng.random(n), "right")]

        def one(rng):
            return float(points[cdf.searchsorted(rng.random(), "right")])

        return many, one

    def _quantile_route(self) -> tuple[Callable, Callable]:
        # Levels stay off 0 and 1, where a quantile may be infinite, so
        # ``quantile_value`` would only check them again; without a quantile
        # it inverts the cdf.  A level is a NumPy float on both routes.
        lo, hi = self.support
        quantile = self.quantile
        invert = ((lambda q: float(quantile(q))) if quantile is not None
                  else self.quantile_value)

        def at(q):
            x = invert(q)
            if not lo <= x <= hi:
                raise self._outside(x, "quantile" if quantile is not None
                                    else "cdf")
            return x

        def level(rng, size=None):
            return rng.uniform(1e-12, 1.0 - 1e-12, size=size)

        return ((lambda rng, n: np.array([at(q) for q in level(rng, n)],
                                         dtype=float)),
                (lambda rng: at(np.float64(level(rng)))))

    def _table_route(self) -> tuple[Callable, Callable]:
        # The table is built on the first draw, not here.  One draw reads
        # it as lists, with the bits of ``np.interp`` (see :func:`_interp`).
        if not self.atoms:
            def many(rng, n):
                x, cum = self._inverse_cdf_table
                return np.interp(rng.random(n), cum, x)

            def one(rng):
                return _interp(rng.random(), *self._inverse_cdf_lists)

            return many, one
        points, cdf, mass = self._atom_cdf()

        def many(rng, n):
            x, cum = self._inverse_cdf_table
            atom = rng.random(n) < mass
            hits = int(atom.sum())
            out = np.empty(n)
            if hits:
                out[atom] = points[cdf.searchsorted(rng.random(hits), "right")]
            out[~atom] = np.interp(rng.random(n - hits), cum, x)
            return out

        def one(rng):
            if rng.random() < mass:
                return float(points[cdf.searchsorted(rng.random(), "right")])
            return _interp(rng.random(), *self._inverse_cdf_lists)

        return many, one

    def _atom_cdf(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Atom locations, the cdf over them that ``Generator.choice``
        builds from their normalized masses (so a draw is the atom whose cdf
        value first exceeds a uniform level, as in ``choice``), and their
        total mass."""
        points = np.array([a for a, _ in self.atoms])
        weights = np.array([m for _, m in self.atoms])
        mass = float(weights.sum())
        cdf = (weights / mass).cumsum()
        cdf /= cdf[-1]
        return points, cdf, mass

    @cached_property
    def _inverse_cdf_lists(self) -> tuple[list, list, list]:
        """The inverse-cdf table as the lists (levels, nodes, slopes) that
        :func:`_interp` reads; slope j is NumPy's ``(x[j+1] - x[j]) /
        (cum[j+1] - cum[j])``, infinite or NaN where that quotient is (a
        level step of 0, which no level selects, or a tiny one)."""
        x, cum = self._inverse_cdf_table
        with np.errstate(all="ignore"):
            slopes = np.diff(x) / np.diff(cum)
        return cum.tolist(), x.tolist(), slopes.tolist()

    @cached_property
    def _inverse_cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes ``x`` and the normalized cdf of the density part there."""
        lo, hi = self.support
        if math.isinf(hi):
            # The density may be unnormalized (it is renormalized below), so
            # bracket the support where doubling it stops adding relative
            # mass.
            hi = max(2.0 * max(lo, 0.0), lo + 1.0)
            mass = float(self._density_mass(lo, hi, 1e-11)[0])
            for _ in range(200):
                nxt = lo + 2.0 * (hi - lo)
                gain = float(self._density_mass(hi, nxt, 1e-11)[0])
                if mass > 0 and gain <= _TABLE_TAIL_MASS * mass:
                    break
                hi, mass = nxt, mass + gain
            else:
                raise SimulationError(
                    f"law {self.name!r}: upper tail does not vanish "
                    "numerically")
        # Nodes concentrate geometrically toward the lower endpoint, where
        # the density may carry a declared algebraic singularity.
        x = lo + (hi - lo) * np.concatenate(
            [[0.0], np.geomspace(1e-10, 1.0, _TABLE_NODES)])
        hints = set(p for p in self.pdf_points if lo < p < hi)
        if hints:
            x = np.unique(np.concatenate([x, sorted(hints)]))
        seg = self._density_mass(x[:-1], x[1:], 1e-11)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        total = cum[-1]
        if total <= 0:
            raise SimulationError(
                f"law {self.name!r}: density integrates to zero")
        return x, cum / total


def _interp(u: float, levels: list, nodes: list, slopes: list) -> float:
    """``np.interp(u, levels, nodes)`` of one float ``u``, bit for bit, in
    Python floats: NumPy's interval j with levels[j] <= u < levels[j+1],
    its end and exact-node cases, and its formula on the slope of a single
    value, with both of its NaN fallbacks."""
    if u != u:
        return u
    j = bisect_right(levels, u) - 1
    if j < 0:
        return nodes[0]
    if j == len(levels) - 1:
        return nodes[j]
    if levels[j] == u:
        return nodes[j]
    slope = slopes[j]
    value = slope * (u - levels[j]) + nodes[j]
    if value != value:
        value = slope * (u - levels[j + 1]) + nodes[j + 1]
        if value != value and nodes[j] == nodes[j + 1]:
            value = nodes[j]
    return value


def point_mass(x: float, name: str | None = None) -> Distribution1D:
    """The law concentrated at a single point."""
    xf = float(x)
    return Distribution1D(
        name=name or f"point_mass({xf:g})",
        cdf=lambda s: 1.0 if s >= xf else 0.0,
        atoms=((xf, 1.0),),
        support=(xf, xf),
        quantile=lambda q: xf,
        sampler=lambda rng, n: np.full(n, xf),
    )


def exponential_dist(rate: float = 1.0, name: str | None = None) -> Distribution1D:
    """Exponential law with the given rate (mean 1/rate)."""
    if not 0 < rate < math.inf:
        raise DomainError(f"rate must be positive and finite, got {rate!r}")
    r = float(rate)
    return Distribution1D(
        name=name or f"exponential(rate={r:g})",
        cdf=lambda s: -math.expm1(-r * s) if s > 0 else 0.0,
        pdf=lambda s: np.where(s > 0, r * np.exp(-r * np.maximum(s, 0.0)),
                               0.0),
        support=(0.0, math.inf),
        quantile=lambda q: -math.log1p(-q) / r,
        sampler=lambda rng, n: rng.exponential(1.0 / r, size=n),
    )


def from_pdf(name: str, pdf: Callable[[float], float],
             support: tuple[float, float] = (0.0, math.inf), *,
             singular_exponent: float = 0.0,
             points: Sequence[float] = ()) -> Distribution1D:
    """Absolutely continuous law from a density; cdf by quadrature."""
    lo, hi = support

    def cdf(s: float) -> float:
        if s <= lo:
            return 0.0
        return min(1.0, float(law._density_mass(lo, min(s, hi), 1e-10)[0]))

    law = Distribution1D(name=name, cdf=cdf, pdf=pdf, support=support,
                         pdf_singular_exponent=singular_exponent,
                         pdf_points=tuple(points))
    return law


def scale_distribution(dist: Distribution1D, c: float,
                       name: str | None = None) -> Distribution1D:
    """The law of c*X for X ~ dist and finite c > 0."""
    if not 0 < c < math.inf:
        raise DomainError(
            f"scale factor c must be positive and finite, got {c!r}")
    cf = float(c)
    lo, hi = dist.support
    cdf = (lambda s: dist.cdf(s / cf)) if dist.cdf is not None else None
    pdf = (lambda s: dist.pdf(s / cf) / cf) if dist.pdf is not None else None
    quantile = ((lambda q: cf * dist.quantile(q))
                if dist.quantile is not None else None)
    sampler = ((lambda rng, n: cf * dist.sampler(rng, n))
               if dist.sampler is not None else None)
    return Distribution1D(
        name=name or f"{cf:g}*{dist.name}",
        cdf=cdf,
        pdf=pdf,
        atoms=tuple((cf * a, m) for a, m in dist.atoms),
        support=(cf * lo, cf * hi if math.isfinite(hi) else math.inf),
        quantile=quantile,
        sampler=sampler,
        pdf_singular_exponent=dist.pdf_singular_exponent,
        pdf_points=tuple(cf * p for p in dist.pdf_points),
    )


def from_cdf(name: str, cdf: Callable[[float], float],
             support: tuple[float, float] = (0.0, math.inf), *,
             pdf: Callable[[float], float] | None = None,
             atoms: Sequence[tuple[float, float]] = (),
             quantile: Callable[[float], float] | None = None) -> Distribution1D:
    """Law given by its full cdf, optionally with density part and atoms."""
    return Distribution1D(name=name, cdf=cdf, pdf=pdf,
                          atoms=tuple(atoms), support=support,
                          quantile=quantile)
