"""Necessary-condition test batteries for the TCF class taxonomy.

Every test here checks a *necessary* condition for membership of a radial
function in one of the classes the package models:

* ``T1_MMMr``  - 1-D moving maxima with monotone shapes: chi continuous,
  convex, chi(0) = 1, chi(t) -> 0;
* ``Tinfty_MMMr`` - all-dimensional version: t -> -chi'(sqrt t) completely
  monotone;
* complete monotonicity itself - the mixed-Poisson-storm class;
* the triangle inequality for eta = 1 - chi and positive definiteness of
  chi - necessary for *any* TCF;
* the convexity conditions for the d = 3 and d = 2 monotone-storm classes
  (convexity of -chi'(sqrt t), respectively of the induced function c).

A "pass" verdict therefore always means "not refuted": none of these checks
can certify membership, only rule it out with an explicit witness.
"Inconclusive" is reported when numerical error bars straddle the decision
boundary; it never silently counts as a pass.

Positive definiteness is checked in two stages.  Random-configuration Gram
matrices (stage one) catch gross violations such as triangle-inequality
failures, but shallow spectral violations are invisible to small random
configurations: a candidate whose d-dimensional spectral density dips only
slightly negative needs site densities of order 1/|dip| per unit volume
before any Gram matrix goes indefinite, far beyond what a handful of
uniform points provides.  Stage two therefore computes the spectral density
of compactly supported candidates directly and, where it finds a clearly
negative frequency, certifies failure through an explicit Rayleigh quotient:
a lattice of sites carrying an oscillation at the offending frequency under
a Gaussian window elongated along the wave direction (frequencies tangent
to the sphere of radius omega* detune only quadratically, so the window may
stay narrow across it).  The quadratic form is summed directly from the
1-D autocorrelations of the vector's axis factors, and a negative value on
an explicit vector proves the Gram matrix has a negative eigenvalue.

Designs that do not depend on the candidate are built once: the moment
stage's grids and Hankel index and the triangle battery's default pairs
are module constants.  Stage one's seeded configurations are drawn on
every call, into one preallocated stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from . import series
from .errors import DomainError
from .models import parametric_bounds
from .numerics import (
    _EPS,
    _STENCIL_REACH,
    _float_rule,
    _integer,
    _integrate,
    _once_per_node,
    _reject,
    _worst_midpoint_gap,
    num_derivative,
)
from .radial import _MAX_TAYLOR_ORDER, RadialFunction, _taylor_hook

__all__ = [
    "Verdict",
    "MembershipReport",
    "DEFAULT_GRID",
    "test_T1_MMMr",
    "test_completely_monotone",
    "test_Tinfty_MMMr",
    "test_triangle",
    "test_positive_definite",
    "test_H3_condition",
    "test_H2_condition",
    "spectral_density",
    "classify",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one necessary-condition test.

    ``status`` is ``"pass"`` (meaning: not refuted), ``"fail"`` (with a
    witness), or ``"inconclusive"`` (with a reason).
    """

    status: str
    witness: object = None
    reason: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "inconclusive"):
            raise DomainError(f"unknown verdict status {self.status!r}")
        if self.status == "fail" and self.witness is None:
            raise DomainError("fail verdicts must carry a witness")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _passed() -> Verdict:
    return Verdict("pass")


def _failed(witness, reason: str = "") -> Verdict:
    return Verdict("fail", witness=witness, reason=reason)


def _inconclusive(reason: str) -> Verdict:
    return Verdict("inconclusive", reason=reason)


@dataclass(frozen=True)
class MembershipReport:
    """Bundle of verdicts from :func:`classify`.

    Passing verdicts mean "not refuted by the necessary-condition checks",
    never a membership proof.
    """

    verdicts: dict[str, Verdict]
    grid: tuple[float, ...]
    tolerances: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        lines = ["membership report (pass = not refuted)"]
        for name in sorted(self.verdicts):
            v = self.verdicts[name]
            extra = ""
            if v.failed:
                extra = f"  witness={v.witness!r}"
            elif v.status == "inconclusive":
                extra = f"  reason={v.reason}"
            lines.append(f"  {name:22s} {v.status}{extra}")
        return "\n".join(lines)


#: Log-spaced default evaluation grid covering kink regions and tail decay.
DEFAULT_GRID = tuple(float(x) for x in np.geomspace(1e-3, 1e2, 200))


def _as_grid(grid) -> tuple[float, ...]:
    if grid is None:
        return DEFAULT_GRID
    xs = tuple(float(g) for g in grid)
    if len(xs) < 3:
        raise DomainError("grid needs at least three points")
    i = next((i for i, x in enumerate(xs) if not 0 < x < math.inf), None)
    if i is not None:
        raise DomainError(f"grid entry {i} is {xs[i]!r}, not in (0, inf)")
    if list(xs) != sorted(xs):
        raise DomainError("grid must be increasing")
    return xs


def _finite_values(f: RadialFunction, x: np.ndarray, where: str
                   ) -> np.ndarray:
    """``f(x)``, or DomainError naming the candidate and the first point of
    ``x`` where it is not finite."""
    values = f(x)
    broken = ~np.isfinite(values)
    if broken.any():
        raise DomainError(f"candidate {f.name!r} is not finite at x = "
                          f"{float(x[broken][0])!r} {where}")
    return values


# ---------------------------------------------------------------------------
# Convexity-based class tests
# ---------------------------------------------------------------------------


def _midpoint_convexity(f: Callable, xs: Sequence[float], tol: float
                        ) -> Verdict:
    """Convexity on a grid by the midpoint inequality, with witness triple;
    ``f`` takes arrays."""
    gap, a, mid, b = _worst_midpoint_gap(f, xs)
    if gap > tol:
        return _failed((a, mid, b, gap), "midpoint convexity violated")
    return _passed()


def test_T1_MMMr(chi: RadialFunction, *, grid=None, tol: float = 1e-9
                 ) -> Verdict:
    """Necessary conditions for the 1-D monotone-storm class: chi(0) = 1,
    0 <= chi <= 1, convex, and decaying to 0."""
    xs = _as_grid(grid)
    values = _finite_values(chi, np.array((0.0,) + xs), "on the grid")
    at_zero, values = float(values[0]), values[1:]
    if abs(at_zero - 1.0) > 1e-9:
        return _failed((0.0, at_zero), "chi(0) must equal 1")
    outside = np.flatnonzero((values < -tol) | (values > 1.0 + 1e-9))
    if outside.size:
        i = int(outside[0])
        return _failed((xs[i], float(values[i])),
                       "values must stay within [0, 1]")
    convexity = _midpoint_convexity(chi, xs, tol)
    if convexity.failed:
        return convexity
    t_max = xs[-1]
    tail = float(values[-1])
    if tail > 0.1:
        return _failed((t_max, tail), "no decay to 0 at the grid end")
    if tail > 0.02:
        return _inconclusive(
            f"slow decay: chi({t_max:g}) = {tail:.3g}; extend the grid")
    return _passed()


# ---------------------------------------------------------------------------
# Complete monotonicity
# ---------------------------------------------------------------------------

_MAX_CM_ORDER = 8


def _safe_num_derivs(f: RadialFunction, xs: np.ndarray, order: int):
    """Numeric derivatives at every point of ``xs`` whose stencil provably
    stays inside (0, inf), in one call of ``f.func``.

    Returns (values, errors), NaN where no informative stencil fits (too
    close to 0 or to a declared kink).
    """
    reach = _STENCIL_REACH[order]
    levels = 4
    h = np.minimum((2.2e-16) ** (1.0 / (order + 2)) * np.maximum(1.0, xs),
                   0.9 * xs / (reach * 2.0 ** (levels - 1)))
    fits = (h > 0) & (h >= 1e-13 * np.maximum(1.0, xs))
    for kink in f.kinks:
        fits &= np.abs(xs - kink) > reach * h
    values = np.full(xs.shape, np.nan)
    errors = np.full(xs.shape, np.nan)
    if fits.any():
        values[fits], errors[fits] = num_derivative(
            f.func, xs[fits], order, h[fits], kinks=f.kinks, levels=levels)
    return values, errors


@dataclass(frozen=True)
class MomentMatrixWitness:
    """Certificate of a complete-monotonicity failure: values on the
    arithmetic grid start + spacing * (0..2n+1) are not a Hausdorff moment
    sequence (one of the two induced Hankel matrices has a negative
    eigenvalue)."""

    start: float
    spacing: float
    size: int
    eigmin: float


def _chunks(n: int):
    """Slices covering range(n) in chunks of 1, 3, 12, 48, ... items.

    A stage that reports its first failure stops after the chunk holding
    it, as an item-by-item loop would; one that passes makes O(log n)
    array calls.
    """
    lo, hi = 0, 1
    while lo < n:
        yield slice(lo, min(hi, n))
        lo, hi = hi, 4 * hi


def _eigmin_uncertified(floor, *stacks: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue over ``stacks`` of each symmetric matrix,
    or +inf where a Cholesky certificate shows none of them below -floor.

    Each stack is factorized once, shifted by floor / 2.  A factorization
    that completes is exact for the shifted matrix B plus a perturbation
    of 2-norm at most n gamma_{n+1} ||B|| / (1 - n gamma_{n+1}) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 10.1),
    and forming B rounds each diagonal entry once more; the bound below,
    with the Frobenius norm, covers both.  Where it lies under floor / 2,
    the smallest eigenvalue is above -floor.  Every other matrix, and the
    whole chunk when a factorization breaks down, takes the stacked
    eigenvalue call, so a passing chunk computes no eigenvalue and a
    failing one gets the bits of ``np.linalg.eigvalsh``.
    """
    n = stacks[0].shape[-1]
    half = 0.5 * np.broadcast_to(np.asarray(floor, dtype=float),
                                 stacks[0].shape[:1])
    unit = 0.5 * _EPS
    gamma = (n + 1) * unit / (1.0 - (n + 1) * unit)
    certified = np.ones(half.shape, dtype=bool)
    try:
        for a in stacks:
            shifted = a + half[:, None, None] * np.eye(n)
            np.linalg.cholesky(shifted)
            norm = np.sqrt(np.einsum("kij,kij->k", shifted, shifted))
            certified &= (n + 1) * gamma * norm < half
    except np.linalg.LinAlgError:
        certified[:] = False
    eigmin = np.full(half.shape, np.inf)
    rest = np.flatnonzero(~certified)
    if rest.size:
        eigmin[rest] = np.min([np.linalg.eigvalsh(a[rest])[:, 0]
                               for a in stacks], axis=0)
    return eigmin


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The moment stage's design: 13 x 13 arithmetic grids (start outer, spacing
# inner) of 2 * 14 + 2 points each, and the index of the 15 x 15 Hankel
# matrix of a grid's values.
_MOMENT_STARTS, _MOMENT_SPACINGS = (
    _frozen(g.ravel()) for g in np.meshgrid(np.geomspace(0.01, 5.0, 13),
                                            np.geomspace(0.01, 2.0, 13),
                                            indexing="ij"))
_MOMENT_STEPS = _frozen(np.arange(30.0))
_HANKEL = _frozen(np.add.outer(np.arange(15), np.arange(15)))


def _moment_matrix_stage(f: RadialFunction, tol: float) -> Verdict | None:
    """Hankel positive-semidefiniteness of f on arithmetic grids.

    If f is completely monotone, f(x0 + j h) = int y^j dnu(y) for a positive
    measure nu on [0, 1] (y = e^{-h s} under the Bernstein representation),
    so every Hankel matrix built from consecutive values must be positive
    semidefinite.  A clearly negative eigenvalue refutes; this detects
    shallow violations far beyond the reach of low-order derivative signs.
    The 13 x 13 grids (start outer, spacing inner; a module constant) go
    in chunks: one call of f and one Cholesky certificate per Hankel stack
    each (:func:`_eigmin_uncertified`); eigenvalues are computed only in a
    chunk the certificate does not pass, and the first failing grid in
    that order is the witness.  Returns None when no matrix falls below
    the tolerance; raises DomainError naming the first grid point where f
    is not finite.
    """
    for part in _chunks(_MOMENT_STARTS.size):
        x0, h = _MOMENT_STARTS[part], _MOMENT_SPACINGS[part]
        xs = x0[:, None] + h[:, None] * _MOMENT_STEPS
        m = _finite_values(f, xs, "on a moment grid")
        floor = np.maximum(tol, 1e-12 * np.maximum(1.0, np.abs(m[:, 0])))
        eigmin = _eigmin_uncertified(floor, m[:, _HANKEL], m[:, _HANKEL + 1])
        failing = np.flatnonzero(eigmin < -floor)
        if failing.size:
            i = int(failing[0])
            return _failed(
                MomentMatrixWitness(start=float(x0[i]), spacing=float(h[i]),
                                    size=len(_HANKEL), eigmin=float(eigmin[i])),
                "values on an arithmetic grid are not a moment sequence")
    return None


def _derivative_table(f: RadialFunction, grid: np.ndarray, max_order: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Values and error bars of f^(k) by (grid point, order), k =
    0..max_order.  NaN marks a kink, no fitting stencil or a value within
    two error bars of 0.

    A function with a Taylor hook takes every order from one call of it,
    k! c_k with k! times the coefficient's error term as its error bar: a
    rounding bound for a closed form, a quadrature error estimate for the
    hook of an MPS model's TCF.  Otherwise order 0 and the analytic orders carry no error bar,
    and every other order is one Ridders ladder over the grid.
    """
    off_kink = ~f._on_kink(grid)
    if f.taylor is not None:
        coef, bound = f._series(grid, max_order)
        scale = np.cumprod([1.0] + list(range(1, max_order + 1)))[:, None]
        values, errors = (coef * scale).T, (bound * scale).T
        errors += 0.5 * _EPS * np.abs(values)
        values[errors >= 0.5 * np.abs(values)] = np.nan
        values[~off_kink] = np.nan
        return values, errors
    values, errors = np.zeros((2, grid.size, max_order + 1))
    values[:, 0] = f(grid)
    for k in range(1, max_order + 1):
        if k <= 3 and (f.deriv1, f.deriv2, f.deriv3)[k - 1] is not None:
            values[:, k] = np.nan
            values[off_kink, k] = f.derivative(grid[off_kink], k)
        else:
            value, errors[:, k] = _safe_num_derivs(f, grid, k)
            values[:, k] = np.where(errors[:, k] >= 0.5 * np.abs(value),
                                    np.nan, value)
    return values, errors


def test_completely_monotone(f: RadialFunction, max_order: int = 6, *,
                             grid=None, tol: float = 1e-9) -> Verdict:
    """Necessary conditions for complete monotonicity.

    Stage one checks the derivative signs (-1)^k f^(k) >= 0 for
    k = 0..max_order on a log grid.  A function with a Taylor hook gives
    every order in one call of it, each value with its rounding bound as
    error bar.  Otherwise analytic derivatives are used through order 3
    when the input carries them, and higher orders fall back to finite
    differences with error bars (one Ridders ladder per order).  A value
    within two error bars of 0 is dropped.  A negative value beyond three
    error bars refutes; a negative value within the bars counts as
    inconclusive.

    Stage two exploits the Bernstein representation: values on arithmetic
    grids must form Hausdorff moment sequences, so their Hankel matrices
    must be positive semidefinite.  This catches shallow violations whose
    first wrong-signed derivative lies far beyond any fixed order cap.

    Compactly supported functions are refuted outright: a completely
    monotone function is analytic on (0, inf) and cannot vanish on an open
    set.
    """
    max_order = _integer(max_order, "max_order", 0, _MAX_CM_ORDER)
    xs = _as_grid(grid)
    if f.has_compact_support:
        return _failed(f.support_bound,
                       "compact support excludes complete monotonicity")
    values, errors = _derivative_table(f, np.array(xs), max_order)
    wrong = values * (-1.0) ** np.arange(max_order + 1) < -tol
    refuted = np.argwhere(wrong & (np.abs(values) > 3.0 * errors))
    if refuted.size:
        i, k = map(int, refuted[0])
        return _failed((xs[i], k, float(values[i, k])),
                       f"order-{k} derivative has the wrong sign" if k
                       else "negative value")
    stage_two = _moment_matrix_stage(f, tol)
    if stage_two is not None:
        return stage_two
    if wrong.any():
        i, k = map(int, np.argwhere(wrong)[np.argmax(np.abs(values[wrong]))])
        return _inconclusive(
            f"order-{k} derivative at x={xs[i]:.4g} is {values[i, k]:.3g} "
            f"with error bar {errors[i, k]:.3g}: sign indeterminate")
    return _passed()


def _neg_deriv_off_kinks(phi: RadialFunction, r: np.ndarray,
                         nudged: np.ndarray) -> np.ndarray:
    """-phi'(r) on an array; an entry on a declared kink, where no two-sided
    derivative exists, takes its ``nudged`` radius just off it."""
    if phi.kinks:
        r = np.where(phi._on_kink(r), nudged, r)
    return -phi.derivative(r, 1)


def _neg_deriv_sqrt(phi: RadialFunction) -> RadialFunction:
    """The function t -> -phi'(sqrt t), with kinks mapped to the t domain."""

    def g(t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise DomainError(f"t must be > 0, got {t!r}")
        return _neg_deriv_off_kinks(phi, np.sqrt(t),
                                    np.sqrt(t * (1.0 + 1e-9) + 1e-15))

    g1 = None
    if phi.deriv2 is not None:
        def g1(t):
            u = np.sqrt(t)
            return -phi.deriv2(u) / (2.0 * u)

    taylor = None
    if phi.taylor is not None:
        def taylor(t, order):
            # -phi'(u + v) at u = sqrt(t), a series in v, composed with
            # v = sqrt(t + s) - sqrt(t).  u is sqrt(t) rounded once: that
            # moves coefficient k of phi' by up to (k + 1) |phi'_(k+1)|
            # times the rounding, so phi's series runs two orders higher.
            u = np.sqrt(t)
            coef, bound = phi._series(u, order + 2)
            k = np.arange(1.0, order + 3.0)[:, None]
            d = k * coef[1:]
            moved = k[:-1] * np.abs(d[1:]) * (0.5 * _EPS) * u
            outer = series.Series(-d[:-1], k[:-1] * bound[1:-1] + moved
                                  + 0.5 * _EPS * np.abs(d[:-1]))
            return series.compose(outer, series.shifted_power(t, 0.5, order))

        taylor = _taylor_hook(taylor, _MAX_TAYLOR_ORDER - 2)

    return RadialFunction(
        name=f"-d/dr[{phi.name}](sqrt t)",
        func=g,
        deriv1=g1,
        kinks=tuple(sorted(k * k for k in phi.kinks)),
        support_bound=(phi.support_bound ** 2
                       if phi.support_bound is not None else None),
        taylor=taylor,
    )


def test_Tinfty_MMMr(phi: RadialFunction, max_order: int = 6, *,
                     grid=None, tol: float = 1e-9) -> Verdict:
    """Necessary condition for the all-dimensional monotone-storm class:
    t -> -phi'(sqrt t) completely monotone on (0, inf)."""
    g = _neg_deriv_sqrt(phi)
    if phi.has_compact_support:
        # The derivative vanishes beyond the support, so the same
        # analyticity argument applies to g directly.
        return _failed(phi.support_bound,
                       "compact support excludes complete monotonicity "
                       "of -phi'(sqrt t)")
    return test_completely_monotone(g, max_order, grid=grid, tol=tol)


def test_H3_condition(phi: RadialFunction, *, grid=None, tol: float = 1e-9
                      ) -> Verdict:
    """Necessary condition for the d >= 3 monotone-storm class: convexity
    of t -> -phi'(sqrt t)."""
    g = _neg_deriv_sqrt(phi)
    xs = _as_grid(grid)
    if phi.support_bound is not None:
        # Restrict to where the derivative can be informative.
        hi = phi.support_bound ** 2 * 4.0
        xs = tuple(x for x in xs if x <= hi) or xs[:3]
    return _midpoint_convexity(g, xs, tol)


def test_H2_condition(phi: RadialFunction, *, grid=None, tol: float = 1e-7
                      ) -> Verdict:
    """Necessary condition for the d = 2 monotone-storm class: convexity of

        c(t) = int_0^t sqrt(v/(t-v)) (-phi'(1/sqrt v)) dv.
    """
    if grid is None:
        grid = np.geomspace(0.25, 4.0, 33)
    xs = _as_grid(grid)

    def c(ts):
        # One batch of integrals over all t > 0; near w = 0 and w = 1 the
        # integrand is a smooth function of sqrt(w), resp. sqrt(1 - w).
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        pos = flat > 0
        tp = flat[pos]
        hints = 1.0 / np.outer(tp, np.square(phi.kinks))

        def integrand(w, k):
            # A mapped node may round onto an end, where the weight is
            # dropped.
            v = tp[k] * w
            inside = (w > 0.0) & (w < 1.0)
            out = np.zeros(v.shape)
            wi, vi = w[inside], v[inside]
            out[inside] = np.sqrt(wi / (1.0 - wi)) * _neg_deriv_off_kinks(
                phi, 1.0 / np.sqrt(vi), 1.0 / np.sqrt(vi * (1.0 + 1e-9)))
            return out

        out = np.zeros(flat.shape)
        out[pos] = tp * _integrate(integrand, np.zeros(tp.shape), 1.0, 1e-10,
                                   singular_exponent_a=-0.5,
                                   singular_exponent_b=-0.5, points=hints)[0]
        return out.reshape(ts.shape)

    return _midpoint_convexity(c, xs, tol)


# ---------------------------------------------------------------------------
# Triangle inequality
# ---------------------------------------------------------------------------


#: The default lag pairs (s, t) of :func:`test_triangle`: s <= t on 12
#: log-spaced lags in [0.01, 10].
_TRIANGLE_PAIRS = tuple((float(s), float(t)) for s, t in
                        combinations_with_replacement(
                            np.geomspace(0.01, 10.0, 12), 2))


def test_triangle(chi: RadialFunction, pairs=None, *, tol: float = 1e-12
                  ) -> Verdict:
    """Subadditivity of eta = 1 - chi: eta(|s +- t|) <= eta(s) + eta(t)."""
    pairs = _TRIANGLE_PAIRS if pairs is None else list(pairs)
    s, t = np.array(pairs, dtype=float).reshape(-1, 2).T
    eta = 1.0 - _finite_values(chi, np.abs(np.stack([s, t, s + t, s - t])),
                               "at a triangle lag")
    bound = eta[0] + eta[1] + tol
    # Row-major order: pair by pair, the sum lag before the difference lag.
    violated = np.flatnonzero((eta[2:] > bound).T)
    if violated.size:
        i, j = divmod(int(violated[0]), 2)
        s_i, t_i = pairs[i]
        return _failed((s_i, t_i, (s_i + t_i, abs(s_i - t_i))[j],
                        float(eta[2 + j, i]), float(bound[i] - tol)),
                       "triangle inequality violated")
    return _passed()


# ---------------------------------------------------------------------------
# Positive definiteness
# ---------------------------------------------------------------------------


# Per shape of _random_configuration: log of the smallest size and log of
# the ratio of sizes, (lo, hi) = (0.5, 4), (0.05, 1) and (0.1, 1).
_SIZE_LOGS = tuple((float(np.log(lo)), float(np.log(hi) - np.log(lo)))
                   for lo, hi in ((0.5, 4.0), (0.05, 1.0), (0.1, 1.0)))


def _random_configuration(rng: np.random.Generator, index: int,
                          n_points: int, d: int) -> np.ndarray:
    """Seeded site configurations cycling through three shapes.

    Uniform cubes probe generic placements, collinear ladders expose
    triangle-type violations, and tight Gaussian clusters stress the
    short-range behavior.  Each shape's size is log-uniform.  The draws are
    ``rng.uniform``'s, low + (high - low) * ``rng.random()``, written out
    to skip its per-call checks; the bits are the same.
    """
    kind = index % 3
    log_lo, log_ratio = _SIZE_LOGS[kind]
    size = float(np.exp(log_lo + log_ratio * rng.random()))
    if kind == 0:
        return rng.random((n_points, d)) * size
    if kind == 1:
        direction = rng.standard_normal(d)
        direction /= math.sqrt(direction.dot(direction))
        return (np.arange(n_points) * size)[:, None] * direction
    return rng.standard_normal((n_points, d)) * size


@_float_rule(at=2)
def spectral_density(chi: RadialFunction, d: int, omega, *,
                     tol: float = 1e-11):
    """d-dimensional Fourier transform of the radial function at |omega|.

    Requires compact support (the transform is then a finite integral);
    d in {1, 2, 3}.  Nonnegativity for all omega is Bochner's criterion
    for positive definiteness.  The frequencies of an array are one batch
    of integrals over the support.
    """
    d = _integer(d, "d", 1, 3)
    if not chi.has_compact_support:
        raise DomainError("spectral density requires compact support")
    _reject(omega, ~(omega > 0), "omega must be > 0")
    omegas = omega.ravel()
    bound = float(chi.support_bound)
    if d == 1:
        def integrand(r, k):
            return _once_per_node(chi, r) * np.cos(omegas[k] * r)
        scale = np.full(omegas.shape, 2.0)
    elif d == 2:
        from scipy.special import j0

        def integrand(r, k):
            return _once_per_node(chi, r) * j0(omegas[k] * r) * r
        scale = np.full(omegas.shape, 2.0 * math.pi)
    else:
        def integrand(r, k):
            return _once_per_node(chi, r) * np.sin(omegas[k] * r) * r
        scale = 4.0 * math.pi / omegas
    values = _integrate(integrand, np.zeros(omegas.shape), bound, tol,
                        points=chi.kinks)[0]
    return scale * values


@dataclass(frozen=True)
class LatticeProbeWitness:
    """Certificate of indefiniteness: an explicit configuration (a lattice
    of sites) and coefficient vector with negative Rayleigh quotient."""

    omega: float
    spacing: float
    shape: tuple[int, ...]
    sigma: tuple[float, float]
    rayleigh: float
    spectral_value: float


def _lattice_rayleigh(chi: RadialFunction, omega: float, h: float,
                      n_axis: tuple[int, ...], sig1: float, sigt: float
                      ) -> float:
    """Rayleigh quotient of the windowed-oscillation vector on a lattice.

    The vector is a product of one factor per axis, cos(omega x) times a
    Gaussian window along axis 0 and a Gaussian window along each other
    axis, so its autocorrelation at a lattice offset is the product of the
    1-D autocorrelations of the factors.  That and chi(|offset|) are even
    in every offset coordinate: the quadratic form
    sum_{jk} v_j v_k chi(|x_j - x_k|) is a sum over the nonnegative offsets
    inside the support of chi, each coordinate off zero weighted 2, and it
    is contracted one axis at a time.  Neither a pairwise matrix nor the
    d-dimensional vector is built.
    """
    bound = chi.support_bound
    weights, norm = [], 1.0
    for axis, n in enumerate(n_axis):
        x = (np.arange(n) - (n - 1) / 2.0) * h
        f = np.exp(-x ** 2 / (2.0 * (sigt if axis else sig1) ** 2))
        if not axis:
            f = np.cos(omega * x) * f
        # Offsets beyond bound / h lie outside the support in this
        # coordinate alone; one more keeps the cut safe from rounding.
        w = np.correlate(f, f, "full")[n - 1:n + int(bound / h) + 1]
        w[1:] *= 2.0
        weights.append(w)
        norm *= float(f @ f)
    offsets = np.meshgrid(*(np.arange(len(w)) * h for w in weights),
                          indexing="ij")
    dist = np.sqrt(sum(o ** 2 for o in offsets))
    mask = dist <= bound
    q = np.zeros_like(dist)
    q[mask] = chi(dist[mask])
    for w in reversed(weights):
        q = q @ w
    return float(q) / norm


def _spectral_probe(chi: RadialFunction, d: int) -> Verdict | None:
    """Stage-two PSD check for compactly supported inputs.

    Scans the spectral density; if it dips clearly negative, attempts to
    certify indefiniteness with a lattice probe.  Returns None when the
    spectrum shows no clear dip (stage one's verdict stands).
    """
    bound = float(chi.support_bound)
    omegas = np.linspace(0.3, 60.0, 180) / bound
    # The scan and the reference value near 0 are one batch.
    *vals, f0 = spectral_density(
        chi, d, np.append(omegas, 1e-3 / bound), tol=1e-11)
    vals = np.array(vals)
    threshold = -max(1e-6, 1e-5 * abs(f0))
    if vals.min() >= threshold:
        return None
    i_star = int(np.argmin(vals))
    w_star, f_star = float(omegas[i_star]), float(vals[i_star])
    # Width of the region at least half as deep as the dip, around it.
    lo, hi = i_star, i_star
    while lo > 0 and vals[lo - 1] < f_star / 2.0:
        lo -= 1
    while hi < len(vals) - 1 and vals[hi + 1] < f_star / 2.0:
        hi += 1
    width = max(float(omegas[hi] - omegas[lo]), float(omegas[1] - omegas[0]))
    h = min((abs(f_star) / 4.0) ** (1.0 / d), 2.0 * math.pi / (5.0 * w_star),
            bound / 3.0)
    sigt_base = math.sqrt(2.0 / (w_star * width))
    best = None
    for sig1 in (1.5 / width, 3.0 / width):
        for sigt in (sigt_base, 1.7 * sigt_base):
            n1 = int(math.ceil(6.0 * sig1 / h)) | 1
            nt = int(math.ceil(6.0 * sigt / h)) | 1
            shape = (n1,) + (nt,) * (d - 1)
            if np.prod(shape) > 4e5:
                continue
            ray = _lattice_rayleigh(chi, w_star, h, shape, sig1, sigt)
            if best is None or ray < best[0]:
                best = (ray, shape, (sig1, sigt))
    if best is not None and best[0] < -1e-6:
        witness = LatticeProbeWitness(
            omega=w_star, spacing=h, shape=best[1], sigma=best[2],
            rayleigh=best[0], spectral_value=f_star)
        return _failed(
            witness, "negative Rayleigh quotient certifies a negative "
            "Gram eigenvalue")
    return _inconclusive(
        f"spectral density dips to {f_star:.3g} at omega={w_star:.3g} but "
        "no certified configuration found")


def test_positive_definite(chi: RadialFunction, d: int,
                           n_configs: int = 50, n_points: int = 8,
                           seed: int = 0, *, tol: float = 1e-9) -> Verdict:
    """Positive definiteness of the Gram matrices [chi(|x_i - x_j|)].

    Stage one draws seeded random configurations (cubes, collinear ladders,
    clusters) and requires every Gram matrix to have minimum eigenvalue
    >= -tol; a violation carries the configuration as witness.  The
    configurations go in chunks, each passed by one Cholesky certificate
    (:func:`_eigmin_uncertified`); eigenvalues are computed only in a
    chunk the certificate does not pass.  Stage two,
    for compactly supported inputs in d <= 3, scans the spectral density
    and certifies shallow indefiniteness through an explicit lattice
    configuration and coefficient vector whose Rayleigh quotient is
    negative (such violations are practically invisible to random
    configurations of modest size).
    """
    d = _integer(d, "d", 1)
    n_configs = _integer(n_configs, "n_configs", 1)
    n_points = _integer(n_points, "n_points", 1)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    sites = np.empty((n_configs, n_points, d))
    for index in range(n_configs):
        sites[index] = _random_configuration(rng, index, n_points, d)
    for part in _chunks(n_configs):
        diff = sites[part, :, None, :] - sites[part, None, :, :]
        gram = _finite_values(chi, np.sqrt((diff ** 2).sum(-1)),
                              "at a Gram matrix distance")
        eigmin = _eigmin_uncertified(tol, gram)
        failing = np.flatnonzero(eigmin < -tol)
        if failing.size:
            i = int(failing[0])
            return _failed((part.start + i, sites[part][i], float(eigmin[i])),
                           "Gram matrix has a negative eigenvalue")
    if chi.has_compact_support and d <= 3:
        stage_two = _spectral_probe(chi, d)
        if stage_two is not None:
            return stage_two
    return _passed()


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(chi: RadialFunction, d: int, *, seed: int = 0, grid=None,
             max_order: int = 6) -> MembershipReport:
    """Run the applicable necessary-condition batteries plus the special
    closed-form rules for the powered-erfc family and compact supports.
    ``grid`` feeds T1_MMMr, completely_monotone, Tinfty_MMMr and
    H3_condition; triangle, positive_definite and H2_condition use their
    own points."""
    d = _integer(d, "d", 1)
    xs = _as_grid(grid)
    if abs(float(chi(0.0)) - 1.0) > 1e-9:
        raise DomainError(
            f"classification requires chi(0) = 1, got {float(chi(0.0))!r}")
    # Each battery with the tolerance it runs at and reports.
    batteries = {
        "T1_MMMr": (1e-9, partial(test_T1_MMMr, chi, grid=xs)),
        "completely_monotone": (1e-9, partial(test_completely_monotone, chi,
                                              max_order, grid=xs)),
        "triangle": (1e-12, partial(test_triangle, chi)),
        "positive_definite": (1e-9, partial(test_positive_definite, chi, d,
                                            seed=seed)),
        "Tinfty_MMMr": (1e-9, partial(test_Tinfty_MMMr, chi, max_order,
                                      grid=xs)),
    }
    if d >= 3:
        batteries["H3_condition"] = (1e-9, partial(test_H3_condition, chi,
                                                   grid=xs))
    if d == 2:
        batteries["H2_condition"] = (1e-7, partial(test_H2_condition, chi))
    tolerances = {name: tol for name, (tol, _) in batteries.items()}
    verdicts = {name: run(tol=tol) for name, (tol, run) in batteries.items()}

    if chi.family == "powered_erfc" and chi.param is not None:
        alpha = float(chi.param)
        bounds = parametric_bounds("powered_erfc")
        if bounds.tcf_range.contains(alpha):
            verdicts["br_family_rule"] = _passed()
        else:
            verdicts["br_family_rule"] = _failed(
                alpha, "erfc(t^alpha) lies in the Brown-Resnick class "
                "exactly for alpha in (0, 1]")
        if bounds.cm_range.contains(alpha):
            verdicts["mps_family_rule"] = _passed()
        else:
            verdicts["mps_family_rule"] = _failed(
                alpha, "erfc(t^alpha) is completely monotone exactly for "
                "alpha in (0, 1/2]")
    if chi.has_compact_support:
        verdicts["vbr_support_rule"] = _failed(
            chi.support_bound, "compact support excludes the "
            "variance-mixed Brown-Resnick class")
    else:
        verdicts["vbr_support_rule"] = _passed()
    return MembershipReport(verdicts=verdicts, grid=xs, tolerances=tolerances)


# The batteries are part of the public contract under these names; the
# attribute keeps test runners from collecting them as test cases.
for _fn in (test_T1_MMMr, test_completely_monotone, test_Tinfty_MMMr,
            test_triangle, test_positive_definite, test_H3_condition,
            test_H2_condition):
    _fn.__test__ = False
del _fn
