"""Tests for exact max-stable simulation, margin transforms, and the
empirical extremal-coefficient estimator, closing the loop against the
closed-form TCFs of every simulatable class."""

import hashlib
import importlib
import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest, norm

from tailcorr import DomainError, SimulationError, erfc
from tailcorr.distributions import point_mass
from tailcorr.models import (
    BRModel,
    EBGModel,
    EGModel,
    M3bModel,
    M3rModel,
    MPSModel,
    ShapeEnsemble,
    VBRModel,
    _distances,
    tcf,
)
from tailcorr.presets import (
    bounded_gauss_chi,
    bounded_gauss_correlations,
    bounded_gauss_models,
    erfc_sqrt_models,
    erfc_sqrt_models_1d,
    erfc_sqrt_mps_mixing,
)
from tailcorr.radial import (
    correlation_from_callable,
    exponential_correlation,
    fbm_variogram,
    tent,
)
from tailcorr.simulate import (
    GridField,
    GridSpec,
    LagEstimate,
    SimConfig,
    ThetaEstimate,
    estimate_chi,
    estimate_theta,
    simulate,
    transform_margins,
)


def constant_correlation():
    return correlation_from_callable("one", lambda t: 1.0)


def frechet_cdf(x):
    return np.exp(-1.0 / np.asarray(x))


def collect(config):
    return np.stack([f.values.ravel() for f in simulate(config)])


# ---------------------------------------------------------------------------
# Grid geometry and field containers
# ---------------------------------------------------------------------------


class TestGridSpec:
    def test_sites_1d(self):
        g = GridSpec(dim=1, shape=(4,), spacing=0.5, origin=(1.0,))
        assert g.n_sites == 4
        assert np.allclose(g.sites(), [[1.0], [1.5], [2.0], [2.5]])

    def test_sites_2d_row_major(self):
        g = GridSpec(dim=2, shape=(2, 3), spacing=1.0)
        sites = g.sites()
        assert sites.shape == (6, 2)
        assert np.allclose(sites[:3], [[0, 0], [0, 1], [0, 2]])
        assert np.allclose(sites[3:], [[1, 0], [1, 1], [1, 2]])

    def test_default_origin_is_zero(self):
        assert GridSpec(dim=2, shape=(2, 2)).origin == (0.0, 0.0)

    @pytest.mark.parametrize("kwargs", [
        {"dim": 3, "shape": (2, 2, 2)},
        {"dim": 1, "shape": (2, 2)},
        {"dim": 1, "shape": (0,)},
        {"dim": 1, "shape": (4,), "spacing": 0.0},
        {"dim": 1, "shape": (4,), "spacing": -1.0},
        {"dim": 2, "shape": (2, 2), "origin": (0.0,)},
    ])
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(DomainError):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("field, kwargs", [
        ("shape", {"dim": 1, "shape": (2.7,)}),
        ("shape", {"dim": 2, "shape": (2, 3.0)}),
        ("shape", {"dim": 1, "shape": (True,)}),
        ("dim", {"dim": 1.0, "shape": (2,)}),
        ("dim", {"dim": True, "shape": (2,)}),
    ])
    def test_integer_fields_reject_other_values(self, field, kwargs):
        with pytest.raises(DomainError, match=field):
            GridSpec(**kwargs)


class TestGridField:
    def test_shape_must_match_grid(self):
        g = GridSpec(dim=1, shape=(3,))
        with pytest.raises(DomainError, match="shape"):
            GridField(grid=g, values=np.ones(4))

    def test_frechet_values_must_be_positive(self):
        g = GridSpec(dim=1, shape=(3,))
        with pytest.raises(DomainError, match="positive"):
            GridField(grid=g, values=np.array([1.0, 0.0, 2.0]))

    def test_gumbel_values_may_be_negative(self):
        g = GridSpec(dim=1, shape=(3,))
        f = GridField(grid=g, values=np.array([-1.0, 0.0, 1.0]),
                      margins="gumbel")
        assert f.margins == "gumbel"

    def test_margins_tag_validated(self):
        g = GridSpec(dim=1, shape=(2,))
        with pytest.raises(DomainError, match="margins"):
            GridField(grid=g, values=np.ones(2), margins="uniform")

    def test_geometry_properties_delegate(self):
        g = GridSpec(dim=2, shape=(2, 2), spacing=0.25, origin=(1.0, -1.0))
        f = GridField(grid=g, values=np.ones((2, 2)))
        assert (f.dim, f.spacing, f.shape, f.origin) == (
            2, 0.25, (2, 2), (1.0, -1.0))


class TestConfigValidation:
    def test_n_realizations_at_least_one(self):
        with pytest.raises(DomainError, match="n_realizations"):
            SimConfig(model=BRModel(dim=1, variogram=fbm_variogram(8.0, 1.0)),
                      grid=GridSpec(dim=1, shape=(2,)), n_realizations=0,
                      seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            SimConfig(model=BRModel(dim=1, variogram=fbm_variogram(8.0, 1.0)),
                      grid=GridSpec(dim=1, shape=(2,)), n_realizations=1,
                      seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("n_realizations", 150.9), ("n_realizations", True),
        ("seed", 3.99), ("seed", 3.0), ("seed", "3"),
    ])
    def test_integer_fields_reject_other_values(self, field, value):
        kwargs = {"n_realizations": 150, "seed": 3, field: value}
        with pytest.raises(DomainError, match=field):
            SimConfig(model=brown_resnick_8t(),
                      grid=GridSpec(dim=1, shape=(2,)), **kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(model=brown_resnick_8t(),
                        grid=GridSpec(dim=np.int64(1), shape=(np.int32(2),)),
                        n_realizations=np.int64(150), seed=np.uint8(3))
        assert (cfg.n_realizations, cfg.seed, cfg.grid.shape) == (150, 3, (2,))
        assert all(type(v) is int for v in (cfg.n_realizations, cfg.seed,
                                            cfg.grid.dim, *cfg.grid.shape))


# ---------------------------------------------------------------------------
# Engine basics: determinism, margins tagging, unsupported configurations
# ---------------------------------------------------------------------------


def brown_resnick_8t():
    return BRModel(dim=1, variogram=fbm_variogram(8.0, 1.0))


class TestEngineBasics:
    def test_stream_yields_frechet_fields(self):
        cfg = SimConfig(model=brown_resnick_8t(),
                        grid=GridSpec(dim=1, shape=(5,)), n_realizations=3,
                        seed=4)
        fields = list(simulate(cfg))
        assert len(fields) == 3
        for f in fields:
            assert f.margins == "frechet"
            assert f.values.shape == (5,)
            assert np.all(f.values > 0)

    def test_seed_determinism_bit_identical(self):
        cfg = SimConfig(model=brown_resnick_8t(),
                        grid=GridSpec(dim=1, shape=(6,)), n_realizations=5,
                        seed=123)
        first = collect(cfg)
        second = collect(cfg)
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        grid = GridSpec(dim=1, shape=(4,))
        a = collect(SimConfig(model=brown_resnick_8t(), grid=grid,
                              n_realizations=2, seed=0))
        b = collect(SimConfig(model=brown_resnick_8t(), grid=grid,
                              n_realizations=2, seed=1))
        assert not np.allclose(a, b)

    def test_two_dimensional_grid(self):
        model = EGModel(dim=2, correlation=exponential_correlation(2.0))
        cfg = SimConfig(model=model, grid=GridSpec(dim=2, shape=(3, 4)),
                        n_realizations=2, seed=5)
        for f in simulate(cfg):
            assert f.values.shape == (3, 4)
            assert np.all(f.values > 0)

    def test_unsupported_model_class_rejected(self):
        ensemble = ShapeEnsemble(name="const", sample=lambda rng: tent())
        with pytest.raises(DomainError, match="not supported"):
            simulate(SimConfig(model=M3rModel(dim=1, ensemble=ensemble),
                               grid=GridSpec(dim=1, shape=(2,)),
                               n_realizations=1, seed=0))

    def test_mps_needs_dimension_one(self):
        model = MPSModel(dim=2, mixing=erfc_sqrt_mps_mixing())
        with pytest.raises(DomainError, match="dimension 1"):
            simulate(SimConfig(model=model, grid=GridSpec(dim=1, shape=(2,)),
                               n_realizations=1, seed=0))

    def test_grid_dimension_cannot_exceed_model_dimension(self):
        models = erfc_sqrt_models_1d()
        with pytest.raises(DomainError, match="dimension"):
            simulate(SimConfig(model=models["M2r"],
                               grid=GridSpec(dim=2, shape=(2, 2)),
                               n_realizations=1, seed=0))

    @pytest.mark.parametrize("tag", ["M2r", "M3b", "MPS", "BR", "VBR", "EG",
                                     "EBG"])
    def test_one_dimensional_model_refuses_a_2d_grid(self, tag):
        message = ("requires a 1-D grid" if tag == "MPS" else
                   "lives in dimension 1 and cannot host a 2-dimensional grid")
        with pytest.raises(DomainError, match=message):
            simulate(SimConfig(model=models_1d()[tag],
                               grid=GridSpec(dim=2, shape=(2, 2)),
                               n_realizations=1, seed=0))

    def test_gaussian_site_cap(self):
        model = EGModel(dim=2, correlation=exponential_correlation(1.0))
        with pytest.raises(DomainError, match="capped"):
            simulate(SimConfig(model=model, grid=GridSpec(dim=2, shape=(50, 50)),
                               n_realizations=1, seed=0))

    def test_indefinite_correlation_reports_min_eigenvalue(self):
        bad = correlation_from_callable(
            "plateau", lambda t: 1.0 if t < 0.9 else 0.0)
        model = EGModel(dim=1, correlation=bad)
        with pytest.raises(SimulationError) as err:
            simulate(SimConfig(model=model,
                               grid=GridSpec(dim=1, shape=(3,), spacing=0.5),
                               n_realizations=1, seed=0))
        assert err.value.min_eigenvalue is not None
        assert err.value.min_eigenvalue < -1e-3

    def test_storm_budget_guard(self, monkeypatch):
        # ``tailcorr.simulate`` the attribute is the function; the module
        # holding the per-site budget comes from the import system.
        engine = importlib.import_module("tailcorr.simulate")
        monkeypatch.setattr(engine, "_STORMS_PER_SITE", 0)
        cfg = SimConfig(model=brown_resnick_8t(),
                        grid=GridSpec(dim=1, shape=(8,)), n_realizations=1,
                        seed=0)
        with pytest.raises(SimulationError) as err:
            list(simulate(cfg))
        message = str(err.value)
        assert "storm budget exhausted at site 0" in message
        assert "0 candidates examined" in message
        assert "budget of 0 per site for 8 sites" in message
        assert "normalization" not in message

    def test_budget_scales_with_site_count(self):
        """Exact enumeration examines about one storm candidate per site,
        so a valid model on more than 10,000 sites must finish."""
        cfg = SimConfig(model=M3bModel(dim=1, radius=point_mass(0.5)),
                        grid=GridSpec(dim=1, shape=(12_000,), spacing=0.1),
                        n_realizations=1, seed=0)
        (field,) = simulate(cfg)
        assert np.all(field.values > 0)


# ---------------------------------------------------------------------------
# The screen at the nearest finished sites
# ---------------------------------------------------------------------------


ENGINE = importlib.import_module("tailcorr.simulate")


def models_1d():
    return {**erfc_sqrt_models_1d(), **bounded_gauss_models(dim=1),
            "BR": brown_resnick_8t(),
            "VBR": VBRModel(dim=1, variogram=fbm_variogram(8.0, 1.0),
                            scale_mixing=point_mass(0.45)),
            "MPS": MPSModel(dim=1, mixing=erfc_sqrt_mps_mixing())}


def models_2d():
    """Every class that hosts a 2-D grid; moving maxima live in d = 3."""
    three = erfc_sqrt_models()
    return {"M2r": three["M2r"], "M3b": three["M3b"],
            **bounded_gauss_models(dim=2),
            "BR": BRModel(dim=2, variogram=fbm_variogram(8.0, 1.0)),
            "VBR": VBRModel(dim=2, variogram=fbm_variogram(8.0, 1.0),
                            scale_mixing=point_mass(0.45))}


SCREEN_CASES = (
    [(f"1d-{c}", c, GridSpec(dim=1, shape=(24,), spacing=0.5), 30)
     for c in ("M2r", "M3b", "MPS", "BR", "VBR", "EG", "EBG")]
    + [(f"2d-{c}", c, GridSpec(dim=2, shape=(6, 7), spacing=0.25), 10)
       for c in ("M2r", "M3b", "BR", "VBR", "EG", "EBG")])


def nearest_earlier_brute(grid, q):
    """The q nearest earlier sites of each site from all pairwise integer
    offsets, ties by index, as the simulator defines them."""
    shape = (1, grid.shape[0]) if grid.dim == 1 else grid.shape
    idx = np.indices(shape).reshape(2, -1).T
    near = np.full((len(idx), q), -1)
    for k in range(q + 1, len(idx)):
        d2 = np.sum((idx[:k] - idx[k]) ** 2, axis=1)
        near[k] = np.lexsort((np.arange(k), d2))[:q]
    return near


class TestScreen:
    @pytest.mark.parametrize("name, cls, grid, n", SCREEN_CASES,
                             ids=[c[0] for c in SCREEN_CASES])
    def test_fields_equal_unscreened(self, monkeypatch, name, cls, grid, n):
        model = (models_1d() if grid.dim == 1 else models_2d())[cls]
        cfg = SimConfig(model=model, grid=grid, n_realizations=n, seed=9)
        monkeypatch.setattr(ENGINE, "_SCREEN_FROM_SITES", 0)
        screened = collect(cfg)
        monkeypatch.setattr(ENGINE, "_SCREEN_SITES", grid.n_sites)
        assert np.array_equal(screened, collect(cfg))

    def test_screen_engages(self, monkeypatch):
        counts = {"candidates": 0, "whole": 0}
        sampler = BRModel._profile_sampler

        def counting(self, sites):
            draw = sampler(self, sites)

            def counted_draw(k, rng):
                counts["candidates"] += 1
                profile = draw(k, rng)

                def counted(*idx):
                    counts["whole"] += not idx
                    return profile(*idx)

                return counted

            return counted_draw

        monkeypatch.setattr(BRModel, "_profile_sampler", counting)
        monkeypatch.setattr(ENGINE, "_SCREEN_FROM_SITES", 0)
        model = BRModel(dim=2, variogram=fbm_variogram(8.0, 1.0))
        collect(SimConfig(model=model, grid=GridSpec(dim=2, shape=(12, 12),
                                                     spacing=0.25),
                          n_realizations=3, seed=1))
        assert 0 < counts["whole"] < counts["candidates"]

    def test_small_grids_and_whole_profile_classes_do_not_screen(
            self, monkeypatch):
        def refuse(*args):
            raise AssertionError("screened")

        monkeypatch.setattr(ENGINE, "_nearest_earlier", refuse)
        grid = GridSpec(dim=1, shape=(24,), spacing=0.5)
        for model in models_1d().values():
            collect(SimConfig(model=model, grid=grid, n_realizations=2,
                              seed=0))
        monkeypatch.setattr(ENGINE, "_SCREEN_FROM_SITES", 0)
        for name in ("M2r", "M3b", "MPS"):
            collect(SimConfig(model=models_1d()[name], grid=grid,
                              n_realizations=2, seed=0))

    def test_large_grids_screen_by_default(self, monkeypatch):
        built = []
        table = ENGINE._nearest_earlier

        def spy(grid, q):
            built.append(q)
            return table(grid, q)

        monkeypatch.setattr(ENGINE, "_nearest_earlier", spy)
        grid = GridSpec(dim=1, shape=(ENGINE._SCREEN_FROM_SITES,))
        collect(SimConfig(model=brown_resnick_8t(), grid=grid,
                          n_realizations=1, seed=0))
        assert built == [ENGINE._SCREEN_SITES]

    @pytest.mark.parametrize("cls", ["BR", "VBR", "EG", "EBG"])
    def test_partial_profile_is_a_lower_bound(self, cls):
        grid = GridSpec(dim=2, shape=(9, 11), spacing=0.25)
        draw = models_2d()[cls]._profile_sampler(grid.sites())
        rng = np.random.default_rng(3)
        for k in (0, 40, 98):
            for _ in range(20):
                profile = draw(k, rng)
                idx = rng.choice(grid.n_sites, size=9, replace=False)
                whole = profile()[idx]
                part = profile(idx)
                assert np.all(part <= whole)
                assert np.allclose(part, whole, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_moving_maxima_distances_equal_norm_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        pts = rng.normal(scale=5.0, size=(500, dim))
        for center in rng.normal(scale=5.0, size=(20, dim)):
            got = _distances(np.ascontiguousarray(pts.T), center[:, None])
            want = np.linalg.norm(pts - center, axis=1)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("grid", [
        GridSpec(dim=1, shape=(30,)),
        GridSpec(dim=2, shape=(9, 11), spacing=0.3, origin=(1.0, -2.0)),
        GridSpec(dim=2, shape=(1, 25)),
        GridSpec(dim=2, shape=(25, 1)),
        GridSpec(dim=2, shape=(3, 17)),
        GridSpec(dim=2, shape=(17, 2)),
    ], ids=["1d", "2d", "1xn", "nx1", "3x17", "17x2"])
    @pytest.mark.parametrize("q", [1, 8])
    def test_neighbour_table_matches_brute_force(self, grid, q):
        near = ENGINE._nearest_earlier(grid, q)
        assert near.shape == (grid.n_sites, q)
        assert np.array_equal(near, nearest_earlier_brute(grid, q))


# ---------------------------------------------------------------------------
# Margins: exact standard Frechet at every site
# ---------------------------------------------------------------------------


class TestMargins:
    """Kolmogorov-Smirnov against standard Frechet, 1% critical value."""

    N = 10_000

    def run_ks(self, model, site=1, spacing=0.5, m=4, seed=20):
        cfg = SimConfig(model=model, grid=GridSpec(dim=1, shape=(m,),
                                                   spacing=spacing),
                        n_realizations=self.N, seed=seed)
        values = collect(cfg)
        stat = kstest(values[:, site], frechet_cdf).statistic
        assert stat < 1.628 / math.sqrt(self.N)

    def test_m3b_margins(self):
        self.run_ks(erfc_sqrt_models_1d()["M3b"])

    def test_m2r_margins(self):
        self.run_ks(erfc_sqrt_models_1d()["M2r"])

    def test_brown_resnick_margins(self):
        self.run_ks(brown_resnick_8t())

    def test_ebg_margins(self):
        self.run_ks(EBGModel(dim=1, correlation=bounded_gauss_correlations()[1]))


# ---------------------------------------------------------------------------
# Closed-loop: empirical chi against the closed-form TCF per class
# ---------------------------------------------------------------------------


class TestClosedLoop:
    """chi_hat from one site pair agrees with tcf() within 3 std errors."""

    def run_loop(self, model, lags, n=6000, spacing=0.5, m=6, seed=11):
        cfg = SimConfig(model=model, grid=GridSpec(dim=1, shape=(m,),
                                                   spacing=spacing),
                        n_realizations=n, seed=seed)
        estimates = estimate_chi(simulate(cfg), lags)
        assert len(estimates) == len(lags)
        for est in estimates:
            true = tcf(model, est.lag)
            assert abs(est.chi_hat - true) <= 3.0 * max(est.std_err, 1e-12), \
                f"lag {est.lag}: {est.chi_hat} vs {true} +- {est.std_err}"

    def test_m2r(self):
        self.run_loop(erfc_sqrt_models_1d()["M2r"], [0.5, 1.0, 1.5])

    def test_m3b(self):
        self.run_loop(erfc_sqrt_models_1d()["M3b"], [0.5, 1.0, 1.5])

    def test_mps(self):
        self.run_loop(MPSModel(dim=1, mixing=erfc_sqrt_mps_mixing()),
                      [0.5, 1.0, 1.5])

    def test_brown_resnick(self):
        self.run_loop(brown_resnick_8t(), [0.5, 1.0, 2.0])

    def test_variance_mixed_brown_resnick(self):
        model = VBRModel(dim=1, variogram=fbm_variogram(8.0, 1.0),
                         scale_mixing=point_mass(0.45))
        self.run_loop(model, [0.5, 1.0, 2.0])

    def test_extremal_gaussian(self):
        self.run_loop(EGModel(dim=1, correlation=bounded_gauss_correlations()[0]),
                      [0.5, 1.0, 2.0])

    def test_extremal_binary_gaussian(self):
        self.run_loop(EBGModel(dim=1, correlation=bounded_gauss_correlations()[1]),
                      [0.5, 1.0, 2.0])

    def test_brown_resnick_chi_at_one(self):
        # gamma(t) = 8t, so chi(1) = erfc(1) ~ 0.1573; 1e4 realizations land
        # within 0.02.
        cfg = SimConfig(model=brown_resnick_8t(),
                        grid=GridSpec(dim=1, shape=(3,)), n_realizations=10_000,
                        seed=42)
        (est,) = estimate_chi(simulate(cfg), [1.0])
        assert abs(est.chi_hat - float(erfc(1.0))) < 0.02

    def test_ebg_bounded_gauss_at_lag_one(self):
        # chi(1) = erfc(0.45 sqrt(1 - e^{-1})) for the matched binary
        # Gaussian member.
        model = EBGModel(dim=1, correlation=bounded_gauss_correlations()[1])
        cfg = SimConfig(model=model, grid=GridSpec(dim=1, shape=(3,)),
                        n_realizations=10_000, seed=42)
        (est,) = estimate_chi(simulate(cfg), [1.0])
        assert abs(est.chi_hat - bounded_gauss_chi()(1.0)) <= 3 * est.std_err


class TestTrivialFields:
    def test_ebg_constant_when_correlation_is_one(self):
        model = EBGModel(dim=1, correlation=constant_correlation())
        cfg = SimConfig(model=model, grid=GridSpec(dim=1, shape=(6,)),
                        n_realizations=5, seed=2)
        for f in simulate(cfg):
            assert np.all(f.values == f.values[0])

    def test_disjoint_balls_never_co_exceed(self):
        # Fixed radius 0.4, sites 2 apart: balls of diameter 0.8 cannot
        # cover both sites, so the pair is independent and chi -> 0.
        model = M3bModel(dim=1, radius=point_mass(0.4))
        cfg = SimConfig(model=model, grid=GridSpec(dim=1, shape=(2,),
                                                   spacing=2.0),
                        n_realizations=4000, seed=6)
        (est,) = estimate_chi(simulate(cfg), [2.0])
        assert tcf(model, 2.0) == 0.0
        assert abs(est.chi_hat) <= 3.0 * est.std_err


@pytest.fixture(scope="module")
def m3b_fields():
    """The 1-D suite's M3b on 8 sites at spacing 0.5."""
    return list(simulate(SimConfig(
        model=erfc_sqrt_models_1d()["M3b"],
        grid=GridSpec(dim=1, shape=(8,), spacing=0.5), n_realizations=6000,
        seed=17)))


class TestStationarity:
    def test_pair_estimates_agree_across_translation(self, m3b_fields):
        a, b = estimate_theta(m3b_fields, [(0, 2), (4, 6)])
        assert abs(a.theta - b.theta) <= 3.0 * math.hypot(a.std_err,
                                                          b.std_err)


# ---------------------------------------------------------------------------
# Margin transforms
# ---------------------------------------------------------------------------


class TestTransformMargins:
    def unit_field(self, values):
        g = GridSpec(dim=1, shape=(len(values),))
        return GridField(grid=g, values=np.asarray(values, dtype=float))

    def test_frechet_one_maps_to_gumbel_zero(self):
        out = transform_margins(self.unit_field([1.0, math.e]), "gumbel")
        assert out.margins == "gumbel"
        assert out.values[0] == 0.0
        assert out.values[1] == pytest.approx(1.0, abs=1e-15)

    def test_round_trip_within_one_ulp(self):
        rng = np.random.default_rng(3)
        field = self.unit_field(1.0 / rng.exponential(size=50))
        back = transform_margins(transform_margins(field, "gumbel"), "frechet")
        drift = np.abs(back.values - field.values) / np.abs(field.values)
        # exp(log(x)) drifts by ~(1 + |log x|) * eps / 2; Frechet draws stay
        # far below e^14, so four epsilons cover the whole sample, and the
        # moderate band drifts at most one ulp.
        assert drift.max() <= 4.0 * np.finfo(float).eps
        band = (field.values >= 1 / math.e) & (field.values <= math.e)
        assert band.any()
        assert drift[band].max() <= np.finfo(float).eps

    def test_identity_when_already_on_requested_scale(self):
        field = self.unit_field([2.0, 3.0])
        assert transform_margins(field, "frechet") is field

    def test_unknown_margins_rejected(self):
        with pytest.raises(DomainError, match="margins"):
            transform_margins(self.unit_field([1.0]), "uniform")

    def test_corrupt_frechet_field_rejected(self):
        field = self.unit_field([1.0, 2.0])
        field.values[0] = -1.0  # corrupt in place, bypassing construction
        with pytest.raises(DomainError, match="corrupt"):
            transform_margins(field, "gumbel")


# ---------------------------------------------------------------------------
# The extremal-coefficient estimator
# ---------------------------------------------------------------------------


def frechet_fields(rng, n, grid, correlate=False, common=0.0):
    """``n`` fields of standard Frechet values on ``grid``.

    Sites are independent, or all take one value (``correlate``).  With
    ``common`` in (0, 1) each site is the larger of ``common`` times a value
    the field shares and ``1 - common`` times its own, so every site pair
    has chi = ``common``.
    """
    m = grid.n_sites
    out = []
    for _ in range(n):
        x = 1.0 / rng.exponential(size=m)
        if correlate:
            x[:] = x[0]
        if common:
            x = np.maximum(common / rng.exponential(), (1.0 - common) * x)
        out.append(GridField(grid=grid, values=x.reshape(grid.shape)))
    return out


#: (grid, realizations, seed, frechet_fields options, lags) whose estimates
#: ``TestEstimateChi.test_pinned_bits`` pins: a requested lag off the grid
#: (0.7) and one beyond it (5, skipped), site differences that are not
#: exact in floats (spacing 0.1), a 2-D grid, and estimates clipped below
#: and above.
PINNED = [
    (GridSpec(dim=1, shape=(8,), spacing=0.5), 400, 12, {"common": 0.5},
     [0.0, 0.5, 0.7, 5.0]),
    (GridSpec(dim=1, shape=(12,), spacing=0.1), 300, 13, {"common": 0.3},
     [0.1, 0.3, 0.7, 1.1]),
    (GridSpec(dim=2, shape=(4, 5)), 250, 14, {"common": 0.6},
     [0.0, 1.0, 1.5, 2.0, 2.9, 4.0, 5.0]),
    (GridSpec(dim=1, shape=(2,)), 150, 21, {}, [1.0]),
    (GridSpec(dim=1, shape=(2,)), 150, 21, {"correlate": True}, [1.0]),
]

#: The two estimators on one site pair, for the checks they share.
ESTIMATORS = [lambda fields: estimate_chi(fields, [1.0]),
              lambda fields: estimate_theta(fields, [(0, 1)])]

#: Family-wise z bound of the extremal-coefficient checks of
#: ``TestEstimateChi``: two-sided, Bonferroni over their 8 comparisons at a
#: family error of 1e-5, so a correct estimator fails them at about one
#: seed in 1e5.
THETA_Z = float(norm.isf(1e-5 / (2 * 8)))

#: sha256 of the ``float.hex`` of (lag, chi_hat, std_err, clipped) of every
#: estimate of ``PINNED``, from the per-lag reciprocal-max estimator.
PINNED_DIGEST = (
    "9426233c73db9d571aae39f3a64619a070d90589c3d79cc27cdcc98dbbca7962")


class TestEstimateChi:
    def test_independent_sites_give_chi_near_zero(self):
        grid = GridSpec(dim=1, shape=(2,))
        fields = frechet_fields(np.random.default_rng(0), 5000, grid)
        (est,) = estimate_chi(fields, [1.0])
        assert abs(est.chi_hat - 0.0) <= 3.0 * est.std_err

    def test_zero_lag_is_exactly_one(self):
        grid = GridSpec(dim=1, shape=(3,))
        fields = frechet_fields(np.random.default_rng(1), 200, grid)
        (est,) = estimate_chi(fields, [0.0])
        assert est.chi_hat == 1.0
        assert est.std_err == 0.0
        assert est.lag == 0.0

    def test_duplicated_coordinates_estimate_one(self):
        grid = GridSpec(dim=1, shape=(2,))
        fields = frechet_fields(np.random.default_rng(2), 4000, grid,
                                correlate=True)
        (est,) = estimate_chi(fields, [1.0])
        assert est.chi_hat >= 1.0 - 3.0 * est.std_err

    def test_results_unpack_as_lag_chi_se(self):
        grid = GridSpec(dim=1, shape=(2,))
        fields = frechet_fields(np.random.default_rng(3), 150, grid)
        (est,) = estimate_chi(fields, [1.0])
        lag, chi_hat, std_err = est[:3]
        assert (lag, chi_hat, std_err) == (est.lag, est.chi_hat, est.std_err)
        assert isinstance(est, LagEstimate)
        assert est.n == 150
        assert isinstance(est.clipped, bool)

    def test_nearest_grid_lag_reported(self):
        grid = GridSpec(dim=1, shape=(4,), spacing=0.5)
        fields = frechet_fields(np.random.default_rng(4), 120, grid)
        (est,) = estimate_chi(fields, [0.7])
        assert est.lag == 0.5
        assert est.requested_lag == 0.7

    def test_unrealizable_lag_skipped_with_notice(self):
        grid = GridSpec(dim=1, shape=(3,))
        fields = frechet_fields(np.random.default_rng(5), 120, grid)
        with pytest.warns(UserWarning, match="not realizable"):
            out = estimate_chi(fields, [5.0])
        assert out == []

    def test_chi_clipped_into_unit_interval(self):
        grid = GridSpec(dim=1, shape=(2,))
        fields = frechet_fields(np.random.default_rng(6), 300, grid)
        out = estimate_chi(fields, [1.0])
        for est in out:
            assert 0.0 <= est.chi_hat <= 1.0

    @pytest.mark.parametrize("estimate", ESTIMATORS, ids=["chi", "theta"])
    def test_needs_at_least_100_realizations(self, estimate):
        grid = GridSpec(dim=1, shape=(2,))
        fields = frechet_fields(np.random.default_rng(7), 99, grid)
        with pytest.raises(DomainError, match="100"):
            estimate(fields)

    @pytest.mark.parametrize("estimate", ESTIMATORS, ids=["chi", "theta"])
    def test_requires_frechet_margins(self, estimate):
        grid = GridSpec(dim=1, shape=(2,))
        fields = [transform_margins(f, "gumbel")
                  for f in frechet_fields(np.random.default_rng(8), 120, grid)]
        with pytest.raises(DomainError, match="Frechet"):
            estimate(fields)

    @pytest.mark.parametrize("estimate", ESTIMATORS, ids=["chi", "theta"])
    def test_requires_common_grid(self, estimate):
        fields = frechet_fields(np.random.default_rng(9), 60,
                                GridSpec(dim=1, shape=(2,)))
        fields += frechet_fields(np.random.default_rng(10), 60,
                                 GridSpec(dim=1, shape=(2,), spacing=2.0))
        with pytest.raises(DomainError, match="grid"):
            estimate(fields)

    def test_pinned_bits(self):
        hexes, clipped = [], []
        for grid, n, seed, options, lags in PINNED:
            fields = frechet_fields(np.random.default_rng(seed), n, grid,
                                    **options)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                estimates = estimate_chi(fields, lags)
            clipped += [est.clipped for est in estimates]
            hexes += [float(v).hex() for est in estimates
                      for v in (est.lag, est.chi_hat, est.std_err, est.clipped)]
        assert len(clipped) == 16 and sum(clipped) == 2
        digest = hashlib.sha256(" ".join(hexes).encode()).hexdigest()
        assert digest == PINNED_DIGEST

    def test_negative_lag_rejected(self):
        grid = GridSpec(dim=1, shape=(2,))
        fields = frechet_fields(np.random.default_rng(11), 120, grid)
        with pytest.raises(DomainError, match="lag"):
            estimate_chi(fields, [-1.0])

    @pytest.mark.parametrize("lag_tol", [math.nan, -1.0, math.inf])
    def test_lag_tol_must_be_finite_and_nonnegative(self, lag_tol):
        grid = GridSpec(dim=1, shape=(4,), spacing=2.0)
        fields = frechet_fields(np.random.default_rng(12), 120, grid)
        with pytest.raises(DomainError, match="lag_tol"):
            estimate_chi(fields, [0.0, 1.0, 5.0], lag_tol=lag_tol)

    def test_zero_lag_tol_keeps_exact_lags_only(self):
        grid = GridSpec(dim=1, shape=(4,), spacing=2.0)
        fields = frechet_fields(np.random.default_rng(12), 120, grid)
        with pytest.warns(UserWarning, match="not realizable"):
            out = estimate_chi(fields, [0.0, 1.0, 4.0], lag_tol=0.0)
        assert [est.lag for est in out] == [0.0, 4.0]

    # -- the extremal coefficient of site sets; estimate_chi is its pair case

    def test_single_site_is_exactly_one(self):
        grid = GridSpec(dim=1, shape=(5,))
        fields = frechet_fields(np.random.default_rng(13), 150, grid)
        out = estimate_theta(fields, [(2,), (2, 2), [np.int64(4)] * 3])
        assert out == [ThetaEstimate((2,), 1.0, 0.0, 150),
                       ThetaEstimate((2, 2), 1.0, 0.0, 150),
                       ThetaEstimate((4, 4, 4), 1.0, 0.0, 150)]
        assert all(type(k) is int for est in out for k in est.sites)

    def test_sites_with_one_value_give_one(self):
        grid = GridSpec(dim=1, shape=(5,))
        fields = frechet_fields(np.random.default_rng(14), 4000, grid,
                                correlate=True)
        for est in estimate_theta(fields, [(0, 1), (1, 2, 4),
                                           (0, 1, 2, 3, 4)]):
            assert abs(est.theta - 1.0) <= THETA_Z * est.std_err, est

    def test_independent_sites_give_set_size(self):
        grid = GridSpec(dim=1, shape=(5,))
        fields = frechet_fields(np.random.default_rng(15), 4000, grid)
        for est in estimate_theta(fields, [(0, 3), (4, 1, 2),
                                           (0, 1, 2, 3, 4)]):
            size = len(est.sites)
            assert abs(est.theta - size) <= THETA_Z * est.std_err, est

    @pytest.mark.parametrize("sites", [(0, 1, 3), (0, 1, 3, 4, 7)])
    def test_collinear_m3b_sites_match_the_chain_value(self, m3b_fields,
                                                        sites):
        """For M3b in d = 1 the sites' balls cover a union of length
        2R + sum min(g_k, 2R) over neighbour gaps g_k, so theta is
        1 + sum (1 - chi(g_k))."""
        model = erfc_sqrt_models_1d()["M3b"]
        truth = 1.0 + sum(1.0 - tcf(model, 0.5 * g) for g in np.diff(sites))
        (est,) = estimate_theta(m3b_fields, [sites])
        assert abs(est.theta - truth) <= THETA_Z * est.std_err

    def test_pair_is_two_minus_chi(self, m3b_fields):
        (chi,) = estimate_chi(m3b_fields, [1.0])
        (theta,) = estimate_theta(m3b_fields, [(0, 2)])
        assert chi.chi_hat == 2.0 - theta.theta
        assert chi.std_err == theta.std_err

    @pytest.mark.parametrize("sites", [
        (), (0, 5), (-1, 0), (0, 1.0), (True, 1), ("0", "1"), 3, None,
    ])
    def test_bad_site_sets_rejected(self, sites):
        grid = GridSpec(dim=1, shape=(5,))
        fields = frechet_fields(np.random.default_rng(16), 120, grid)
        with pytest.raises(DomainError, match="site set") as err:
            estimate_theta(fields, [(0, 1), sites])
        assert repr(sites) in str(err.value)
