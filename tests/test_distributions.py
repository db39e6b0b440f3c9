"""Tests for ``Distribution1D.sample``, the one code path that turns a law
into draws: one case per branch (the law's own sampler, its quantile
function, its atoms, a tabulated inverse cdf of its density, bisection on
its cdf), a goodness-of-fit test of the density branch, and the table
being built once per law rather than once per simulation.  Also the hint
rows and the dtypes of ``Distribution1D.expectations``."""

import math
import re

import numpy as np
import pytest
from scipy import stats

from tailcorr import GridSpec, M3bModel, MPSModel, SimConfig, simulate
from tailcorr.distributions import (
    Distribution1D,
    _interp,
    exponential_dist,
    from_cdf,
    from_pdf,
    scale_distribution,
)
from tailcorr.errors import DomainError, SimulationError
from tailcorr.presets import (
    erfc_sqrt_models,
    erfc_sqrt_models_1d,
    erfc_sqrt_radius_law,
)

N = 4000


def rng(seed=11):
    return np.random.default_rng(seed)


def counted_exponential_pdf():
    """An Exp(1) density that counts its calls."""
    calls = [0]

    def pdf(x):
        calls[0] += 1
        return math.exp(-x) if x > 0 else 0.0

    return pdf, calls


def test_own_sampler_is_used():
    law = exponential_dist(2.0)
    assert np.array_equal(law.sample(rng(), 5),
                          rng().exponential(0.5, size=5))


def test_own_sampler_shape_is_checked():
    law = Distribution1D(name="bad", cdf=lambda s: 1.0,
                         sampler=lambda g, n: np.zeros(n + 1))
    with pytest.raises(DomainError, match=r"returned shape \(4,\)"):
        law.sample(rng(), 3)


def test_quantile_at_uniform_levels():
    law = from_cdf("exp", lambda s: -math.expm1(-s) if s > 0 else 0.0,
                   quantile=lambda q: -math.log1p(-q))
    levels = rng().uniform(1e-12, 1.0 - 1e-12, size=7)
    assert np.array_equal(law.sample(rng(), 7), -np.log1p(-levels))


def test_purely_atomic_law_draws_its_atoms():
    law = Distribution1D(name="atoms", atoms=((0.5, 0.25), (2.0, 0.75)))
    draws = law.sample(rng(), N)
    assert set(np.unique(draws)) == {0.5, 2.0}
    share = np.mean(draws == 0.5)
    assert abs(share - 0.25) <= 4.0 * math.sqrt(0.25 * 0.75 / N)


def test_density_branch_fits_the_cdf():
    law = from_pdf("exp", lambda x: math.exp(-x) if x > 0 else 0.0)
    draws = law.sample(rng(), N)
    assert draws.shape == (N,) and np.all(draws >= 0.0)
    result = stats.kstest(draws, lambda x: -np.expm1(-np.maximum(x, 0.0)))
    assert result.pvalue > 1e-3


def test_density_with_a_singular_endpoint_fits_the_cdf():
    # Gamma(1/2) density x^(-1/2) e^(-x) / sqrt(pi), declared singular at 0.
    law = from_pdf("gamma_half",
                   lambda x: math.exp(-x) / math.sqrt(math.pi * x),
                   singular_exponent=-0.5)
    result = stats.kstest(law.sample(rng(), N), stats.gamma(0.5).cdf)
    assert result.pvalue > 1e-3


def test_density_plus_atoms():
    mass = 0.3
    law = Distribution1D(
        name="mixed",
        cdf=lambda s: ((1.0 - mass) * -math.expm1(-s) if s > 0 else 0.0)
        + (mass if s >= 2.0 else 0.0),
        pdf=lambda x: (1.0 - mass) * math.exp(-x) if x > 0 else 0.0,
        atoms=((2.0, mass),),
    )
    draws = law.sample(rng(), N)
    at_atom = draws == 2.0
    assert abs(np.mean(at_atom) - mass) <= 4.0 * math.sqrt(
        mass * (1.0 - mass) / N)
    result = stats.kstest(draws[~at_atom], lambda x: -np.expm1(-x))
    assert result.pvalue > 1e-3


def test_cdf_only_law_inverts_by_bisection():
    law = from_cdf("exp", lambda s: -math.expm1(-s) if s > 0 else 0.0)
    levels = rng().uniform(1e-12, 1.0 - 1e-12, size=5)
    np.testing.assert_allclose(law.sample(rng(), 5), -np.log1p(-levels),
                               rtol=1e-12)


def test_table_is_built_once_per_law():
    pdf, calls = counted_exponential_pdf()
    law = from_pdf("counted", pdf)
    law.sample(rng(), 10)
    assert calls[0] > 0
    calls[0] = 0
    law.sample(rng(1), 10)
    law.sample(rng(2), 1)
    assert calls[0] == 0


def test_second_simulation_makes_no_density_calls():
    pdf, calls = counted_exponential_pdf()
    model = M3bModel(dim=1, radius=from_pdf("counted", pdf))
    grid = GridSpec(dim=1, shape=(4,), spacing=0.5)

    def run(seed):
        return [f.values for f in simulate(SimConfig(
            model=model, grid=grid, n_realizations=5, seed=seed))]

    run(1)
    calls[0] = 0
    run(2)
    assert calls[0] == 0


def test_density_without_mass_raises():
    law = from_pdf("zero", lambda x: 0.0, support=(0.0, 1.0))
    with pytest.raises(SimulationError, match="density integrates to zero"):
        law.sample(rng(), 1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_exponential_rate_must_be_positive_and_finite(value):
    with pytest.raises(DomainError, match=f"rate must be positive and "
                                          f"finite, got {value!r}"):
        exponential_dist(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_scale_factor_must_be_positive_and_finite(value):
    with pytest.raises(DomainError, match=f"scale factor c must be positive "
                                          f"and finite, got {value!r}"):
        scale_distribution(exponential_dist(), value)


def laplace(x, t):
    return np.exp(-t * x)


def test_hint_rows_must_be_one_or_one_per_t():
    with pytest.raises(DomainError, match=re.escape(
            "points must be one row or one row per entry of t, got shape "
            "(2, 1) for t of shape (3,)")):
        exponential_dist(1.0).expectations(laplace, [0.5, 1.0, 2.0],
                                           points=[[0.3], [0.4]])


@pytest.mark.parametrize("points", [[0.3], [[0.3]], [[0.3], [0.2], [1.0]]])
def test_one_hint_row_or_one_per_t(points):
    t = np.array([0.5, 1.0, 2.0])
    values, _ = exponential_dist(1.0).expectations(laplace, t, points=points)
    assert values == pytest.approx(1.0 / (1.0 + t), rel=1e-9)


def test_an_empty_batch_gives_float_arrays():
    values, errors = exponential_dist(1.0).expectations(laplace, np.array([]))
    assert values.dtype == errors.dtype == np.float64
    assert values.shape == errors.shape == (0,)


# ---------------------------------------------------------------------------
# The draw route: decided once per law, one draw with the bits of many
# ---------------------------------------------------------------------------


def mixed_law(mass=0.3):
    """Exp(1) density of mass 1 - mass plus an atom of that mass at 2."""
    return Distribution1D(
        name="mixed",
        cdf=lambda s: ((1.0 - mass) * -math.expm1(-s) if s > 0 else 0.0)
        + (mass if s >= 2.0 else 0.0),
        pdf=lambda x: (1.0 - mass) * math.exp(-x) if x > 0 else 0.0,
        atoms=((2.0, mass),),
    )


def exp_cdf(s):
    return -math.expm1(-s) if s > 0 else 0.0


#: One law of each draw route.
LAW_KINDS = {
    "sampler": lambda: Distribution1D(
        name="gamma3", cdf=lambda s: 0.0,
        sampler=lambda g, n: g.gamma(3.0, size=n)),
    "atoms": lambda: Distribution1D(
        name="atoms", atoms=((0.5, 0.25), (1.0, 0.15), (2.0, 0.6))),
    "table": lambda: from_pdf("exp", lambda x: math.exp(-x) if x > 0
                              else 0.0),
    "table_and_atoms": mixed_law,
    "quantile": lambda: from_cdf("exp", exp_cdf,
                                 quantile=lambda q: -math.log1p(-q)),
    "bisection": lambda: from_cdf("exp", exp_cdf),
}


def reference_sample(law, rng, n):
    """``n`` draws of ``law`` as the branches of ``sample`` write them out,
    with ``Generator.choice`` for atoms."""
    if law.sampler is not None:
        return np.asarray(law.sampler(rng, n), dtype=float)
    points = np.array([a for a, _ in law.atoms])
    weights = np.array([m for _, m in law.atoms])
    if law.quantile is None and law.is_purely_atomic:
        return rng.choice(points, size=n, p=weights / weights.sum())
    if law.quantile is None and law.pdf is not None:
        x, cum = law._inverse_cdf_table
        if not law.atoms:
            return np.interp(rng.random(n), cum, x)
        mass = float(weights.sum())
        atom = rng.random(n) < mass
        hits = int(atom.sum())
        out = np.empty(n)
        if hits:
            out[atom] = rng.choice(points, size=hits, p=weights / mass)
        out[~atom] = np.interp(rng.random(n - hits), cum, x)
        return out
    u = rng.uniform(1e-12, 1.0 - 1e-12, size=n)
    return np.array([law.quantile_value(q) for q in u])


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("kind", LAW_KINDS)
def test_one_draw_has_the_bits_of_a_sample_of_one(kind):
    law = LAW_KINDS[kind]()
    for seed in range(20):
        one, many = rng(seed), rng(seed)
        drawn = law.sample_one(one)
        assert type(drawn) is float
        assert np.array_equal(bits([drawn]), bits(law.sample(many, 1)))
        assert one.bit_generator.state == many.bit_generator.state


@pytest.mark.parametrize("kind", LAW_KINDS)
@pytest.mark.parametrize("n", [0, 1, 7])
def test_sample_keeps_its_bits(kind, n):
    law = LAW_KINDS[kind]()
    for seed in range(20):
        mine, theirs = rng(seed), rng(seed)
        got = law.sample(mine, n)
        assert got.shape == (n,) and got.dtype == np.float64
        assert np.array_equal(bits(got), bits(reference_sample(law, theirs,
                                                               n)))
        assert mine.bit_generator.state == theirs.bit_generator.state


def tabulated_preset_laws():
    """The laws of the presets that draw from an inverse-cdf table: the
    M3b radii and the M2r centre offsets in d = 1 and 3."""
    return {"radius-1d": erfc_sqrt_radius_law(1),
            "radius-3d": erfc_sqrt_radius_law(3),
            "offset-1d": erfc_sqrt_models_1d()["M2r"]._offset,
            "offset-3d": erfc_sqrt_models()["M2r"]._offset}


@pytest.mark.parametrize("name", ["radius-1d", "radius-3d", "offset-1d",
                                  "offset-3d"])
def test_one_table_draw_has_the_bits_of_np_interp(name):
    # 1e5 uniform levels, every node's level and both of its float
    # neighbours, each through one scalar ``np.interp`` call.
    law = tabulated_preset_laws()[name]
    x, cum = law._inverse_cdf_table
    assert law.quantile is None and law.sampler is None and not law.atoms
    levels = np.concatenate([
        rng(3).random(100_000), cum, np.nextafter(cum, -np.inf),
        np.nextafter(cum, np.inf), [np.nextafter(1.0, 0.0)]])
    levels = levels[(levels >= 0.0) & (levels < 1.0)]
    assert len(levels) > 100_000 + 3 * len(cum) - 4
    want = [np.interp(u, cum, x) for u in levels]
    got = [_interp(u, *law._inverse_cdf_lists) for u in levels.tolist()]
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("levels, nodes", [
    ([0.0, 0.5, 1.0], [0.0, 1.0, 3.0]),
    # An infinite slope: only the exact-node case keeps its nodes.
    ([0.0, 5e-324, 1.0], [0.0, 1e300, 2e300]),
    # Infinite nodes: the formula gives NaN, and each fallback answers.
    ([0.0, 0.5, 1.0], [-math.inf, 0.0, 1.0]),
    ([0.0, 0.5, 1.0], [math.inf, math.inf, 1.0]),
], ids=["plain", "infinite-slope", "nan-fallback", "equal-nodes-fallback"])
def test_one_table_draw_at_the_edges_of_np_interp(levels, nodes):
    with np.errstate(all="ignore"):
        slopes = (np.diff(nodes) / np.diff(levels)).tolist()
    for u in (-0.5, 0.0, 5e-324, 0.25, 0.5, 0.75, 1.0, 2.0, math.nan):
        with np.errstate(all="ignore"):
            want = np.interp(u, levels, nodes)
        assert np.array_equal(bits([_interp(u, levels, nodes, slopes)]),
                              bits([want]))


def test_atoms_of_a_mixed_law_are_drawn_on_both_routes():
    law = mixed_law(0.5)
    draws = [law.sample_one(rng(seed)) for seed in range(40)]
    assert 2.0 in draws and any(d != 2.0 for d in draws)


def test_the_route_builds_no_table_before_the_first_draw():
    pdf, calls = counted_exponential_pdf()
    law = from_pdf("counted", pdf)
    assert law._route and calls[0] == 0
    law.sample_one(rng())
    assert calls[0] > 0


@pytest.mark.parametrize("bad", [-1.5, math.nan])
def test_sampler_value_outside_the_support_is_refused(bad):
    law = Distribution1D(name="bad", cdf=lambda s: 0.0,
                         sampler=lambda g, n: np.full(n, bad))
    message = rf"the sampler of law 'bad' returned {bad!r}, outside its " \
              r"support \[0\.0, inf\]"
    with pytest.raises(DomainError, match=message):
        law.sample(rng(), 3)
    with pytest.raises(DomainError, match=message):
        law.sample_one(rng())


@pytest.mark.parametrize("bad", [5.0, math.nan])
def test_quantile_value_outside_the_support_is_refused(bad):
    law = from_cdf("bounded", lambda s: min(1.0, max(0.0, s - 1.0)),
                   support=(1.0, 2.0), quantile=lambda q: bad)
    message = rf"the quantile of law 'bounded' returned {bad!r}, outside " \
              r"its support \[1\.0, 2\.0\]"
    with pytest.raises(DomainError, match=message):
        law.sample(rng(), 2)
    with pytest.raises(DomainError, match=message):
        law.sample_one(rng())


def test_a_sampler_may_return_the_support_ends():
    law = Distribution1D(name="ends", cdf=lambda s: 0.0, support=(1.0, 2.0),
                         sampler=lambda g, n: np.resize([1.0, 2.0], n))
    assert law.sample(rng(), 4).tolist() == [1.0, 2.0, 1.0, 2.0]


@pytest.mark.parametrize("cls, field", [(M3bModel, "radius"),
                                        (MPSModel, "mixing")])
def test_a_negative_model_draw_names_its_law(cls, field):
    # Without the check, the radius ended in an exhausted storm budget and
    # the storm intensity in a bare NumPy ValueError.
    law = Distribution1D(name="negative", cdf=lambda s: 0.0,
                         sampler=lambda g, n: -g.exponential(size=n))
    model = cls(dim=1, **{field: law})
    config = SimConfig(model=model, grid=GridSpec(dim=1, shape=(4,)),
                       n_realizations=1, seed=0)
    with pytest.raises(DomainError, match=r"the sampler of law 'negative' "
                                          r"returned -\d"):
        list(simulate(config))
