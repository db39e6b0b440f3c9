"""Tests for exact max-stable simulation, margin transforms, and the
empirical extremal-coefficient estimator, closing the loop against the
closed-form TCFs of every simulatable class."""

import hashlib
import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import kstest, norm

from tailcorr import DomainError, SimulationError, erf, erfc
from tailcorr.distributions import Distribution1D, from_pdf, point_mass
from tailcorr.models import (
    _BELOW_EXP_ROUNDING,
    BRModel,
    EBGModel,
    EGModel,
    M3bModel,
    M3rModel,
    MPSModel,
    ShapeEnsemble,
    VBRModel,
    _correlation_factor,
    _distances,
    _drift_rows,
    _pairwise_distances,
    _variogram_covariance,
    tcf,
)
from tailcorr.presets import (
    bounded_gauss_chi,
    bounded_gauss_correlations,
    bounded_gauss_models,
    erfc_sqrt_models,
    erfc_sqrt_models_1d,
    erfc_sqrt_mps_mixing,
    erfc_sqrt_radius_law,
)
from tailcorr.radial import (
    bounded_variogram,
    correlation_from_callable,
    exponential_correlation,
    fbm_variogram,
    tent,
)
from tailcorr.simulate import (
    _MAX_SITES,
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

    @pytest.mark.parametrize("axis, kwargs", [
        (0, {"dim": 1, "shape": (4,), "spacing": 1e308}),
        (0, {"dim": 1, "shape": (3,), "spacing": 1e308,
             "origin": (-1.7e308,)}),
        (1, {"dim": 2, "shape": (2, 3), "spacing": 1e307,
             "origin": (0.0, 1.7e308)}),
    ])
    def test_sites_that_overflow_are_refused(self, axis, kwargs):
        with pytest.raises(DomainError, match=f"grid axis {axis} overflows"):
            GridSpec(**kwargs)

    def test_sites_near_the_float_limit_are_finite(self):
        grid = GridSpec(dim=2, shape=(4, 2), spacing=1e307,
                        origin=(1.7e308 - 3e307, -1.7e308))
        assert np.isfinite(grid.sites()).all()

    @pytest.mark.parametrize("cls", ["BR", "M2r"])
    @pytest.mark.parametrize("grid", [
        GridSpec(dim=1, shape=(4,), spacing=1e200),
        # Each axis squares to a finite 1.21e308, their sum does not.
        GridSpec(dim=2, shape=(2, 2), spacing=1.1e154),
    ], ids=["1d", "2d"])
    def test_a_squared_extent_that_overflows_is_named(self, cls, grid):
        model = {**erfc_sqrt_models_1d(),
                 "BR": BRModel(dim=1, variogram=fbm_variogram(8.0, 1.0))}
        if grid.dim == 2:
            model = erfc_sqrt_models()
        config = SimConfig(model=model[cls], grid=grid, n_realizations=1,
                           seed=0)
        with pytest.raises(DomainError, match="grid extent overflows: its "
                           r"squared extent, the sum over axes of \(spacing "
                           r"\* \(n - 1\)\)\^2, is not finite"):
            simulate(config)

    def test_a_squared_extent_below_the_limit_simulates(self):
        grid = GridSpec(dim=2, shape=(2, 2), spacing=9e153)
        config = SimConfig(model=erfc_sqrt_models()["M3b"], grid=grid,
                           n_realizations=2, seed=0)
        assert collect(config).shape == (2, 4)


class TestGridField:
    def test_shape_must_match_grid(self):
        g = GridSpec(dim=1, shape=(3,))
        with pytest.raises(DomainError, match="shape"):
            GridField(grid=g, values=np.ones(4))

    def test_frechet_values_must_be_positive(self):
        g = GridSpec(dim=1, shape=(3,))
        with pytest.raises(DomainError, match="positive"):
            GridField(grid=g, values=np.array([1.0, 0.0, 2.0]))

    @pytest.mark.parametrize("margins", ["frechet", "gumbel"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_must_be_finite(self, margins, bad):
        # A non-finite value is named first, also beside a negative one.
        g = GridSpec(dim=2, shape=(2, 2))
        for values in ([1.0, bad, 2.0, 3.0], [-1.0, 2.0, 3.0, bad]):
            with pytest.raises(DomainError, match="must be finite"):
                GridField(grid=g, values=np.reshape(values, (2, 2)),
                          margins=margins)

    @pytest.mark.parametrize("low", [0.0, -0.0, -2.0, -5e-324])
    def test_frechet_values_below_the_least_positive_are_refused(self, low):
        g = GridSpec(dim=1, shape=(3,))
        with pytest.raises(DomainError, match="positive"):
            GridField(grid=g, values=np.array([3.0, 1.0, low]))
        assert GridField(grid=g, values=np.array([3.0, 1.0, 5e-324])
                         ).values[2] == 5e-324

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

    @pytest.mark.parametrize("dim,shape", [(1, (_MAX_SITES + 1,)),
                                           (2, (100_000, 100_000))])
    def test_site_bound_refuses_before_any_allocation(self, monkeypatch,
                                                      dim, shape):
        def no_sites(grid):
            raise AssertionError("grid sites were built")

        monkeypatch.setattr(GridSpec, "sites", no_sites)
        model = EGModel(dim=dim, correlation=exponential_correlation(2.0))
        sites = math.prod(shape)
        with pytest.raises(DomainError, match=f"grid has {sites} sites, more "
                                              f"than the {_MAX_SITES}"):
            simulate(SimConfig(model=model, grid=GridSpec(dim=dim,
                                                          shape=shape),
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
                whole = profile()[1][idx]
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
# The engine's bits against a reference kept here
# ---------------------------------------------------------------------------


def reference_unit_vector(rng, dim):
    v = rng.standard_normal(dim)
    n = float(np.linalg.norm(v))
    while n == 0.0:  # pragma: no cover - probability zero
        v = rng.standard_normal(dim)
        n = float(np.linalg.norm(v))
    return v / n


def reference_draw(model, sites, swap=False):
    """``draw(k, rng) -> profile`` of each class written out plainly: a law
    draws through ``sample(rng, 1)[0]``, a direction is normalized by
    ``np.linalg.norm``, and the Gaussian classes read covariance and
    correlation columns.  ``swap`` exchanges the radius and the position
    draws of M3b, the mutant the comparison must catch."""
    tag = type(model).__name__.removesuffix("Model")
    if tag in ("M2r", "M3b"):
        pts = model._host(sites)
        coords = np.ascontiguousarray(pts.T)
    if tag == "M2r":
        func = model.shape.func

        def draw(k, rng):
            rho = model._offset.sample(rng, 1)[0]
            center = (pts[k] + rho * reference_unit_vector(rng, model.dim)
                      )[:, None]
            at_rho = func(rho)
            return lambda: func(_distances(coords, center)) / at_rho
    elif tag == "M3b":
        def draw(k, rng):
            if swap:
                u = rng.uniform()
                r = model.radius.sample(rng, 1)[0]
            else:
                r = model.radius.sample(rng, 1)[0]
                u = rng.uniform()
            w = r * u ** (1.0 / model.dim)
            center = (pts[k] + w * reference_unit_vector(rng, model.dim)
                      )[:, None]
            return lambda: (_distances(coords, center) <= r).astype(float)
    elif tag == "MPS":
        x = sites[:, 0]

        def draw(k, rng):
            beta = model.mixing.sample(rng, 1)[0]
            length = rng.gamma(2.0) / beta
            left = x[k] - rng.uniform(0.0, length)
            return lambda: ((x >= left) & (x <= left + length)).astype(float)
    elif tag in ("BR", "VBR"):
        cov, gauss, half = _variogram_covariance(model, sites)

        def draw(k, rng):
            s = model.scale_mixing.sample(rng, 1)[0] if tag == "VBR" else 1.0
            z = rng.standard_normal(len(sites))

            def log_ratio(w, w_k, at):
                if tag == "BR":
                    return ((w - w_k) + (cov[at, k] - cov[k, k])
                            - (half[at] - half[k]))
                return s * (w - w_k) + s * s * (
                    (cov[at, k] - cov[k, k]) - (half[at] - half[k]))

            def profile(idx=None):
                if idx is None:
                    w = gauss.factor @ z
                    return np.exp(log_ratio(w, w[k], slice(None)))
                w, _, w_k = gauss.some(z, idx, k)
                return np.exp(log_ratio(w, w_k, idx)) * _BELOW_EXP_ROUNDING

            return profile
    else:
        corr, gauss = _correlation_factor(model, sites)

        def draw(k, rng):
            z_star = (rng.rayleigh() if tag == "EG"
                      else abs(rng.standard_normal()))
            normals = rng.standard_normal(len(sites))

            def ratio(z):
                return (np.maximum(z, 0.0) / z_star if tag == "EG"
                        else (z > 0.0).astype(float))

            def profile(idx=None):
                if idx is None:
                    y = gauss.factor @ normals
                    out = ratio(y + (z_star - y[k]) * corr[:, k])
                    out[k] = 1.0
                    return out
                y, y_k_low, y_k_high = gauss.some(normals, idx, k)
                rho = corr[idx, k]
                return ratio(y + (z_star - np.where(rho >= 0.0, y_k_high,
                                                    y_k_low)) * rho)

            return profile
    return draw


def reference_fields(config, swap=False):
    """The fields of ``config`` from the plain per-site enumeration, one
    child generator per realization, with the engine's screen."""
    sites = config.grid.sites()
    near = None
    if (config.model._PARTIAL_PROFILE
            and len(sites) >= ENGINE._SCREEN_FROM_SITES):
        near = ENGINE._nearest_earlier(config.grid, ENGINE._SCREEN_SITES)
    return plain_enumeration(reference_draw(config.model, sites, swap),
                             len(sites), near, config.seed,
                             config.n_realizations)


def plain_enumeration(draw, n_sites, near, seed, n):
    """``n`` fields of ``draw``, whose whole profiles are arrays, from the
    per-site enumeration written with ``all`` for the check and ``any``
    for the screen at the sites ``near`` (None: no screen)."""
    fields = []
    for child in np.random.SeedSequence(seed).spawn(n):
        rng = np.random.default_rng(child)
        values = np.zeros(n_sites)
        for k in range(n_sites):
            screen = (near[k] if near is not None and k > ENGINE._SCREEN_SITES
                      else None)
            arrival = rng.exponential()
            while 1.0 / arrival > values[k]:
                profile = draw(k, rng)
                if screen is None or not (
                        profile(screen) / arrival > values[screen]).any():
                    candidate = profile() / arrival
                    if (candidate[:k] <= values[:k]).all():
                        np.maximum(values, candidate, out=values)
                arrival += rng.exponential()
        fields.append(values)
    return np.stack(fields)


def loop_models():
    """The seven classes on the 9-site loop grid, each law on another draw
    route: tables for the moving-maxima offsets and radii and the VBR
    scale, the analytic quantile for the storm intensity."""
    def gamma_4_8(s):
        return s ** 3 * math.exp(-8.0 * s) * 8.0 ** 4 / 6.0 if s > 0 else 0.0

    return {**erfc_sqrt_models_1d(), **bounded_gauss_models(dim=1),
            "BR": BRModel(dim=1, variogram=fbm_variogram(8.0, 1.0)),
            "VBR": VBRModel(dim=1, variogram=fbm_variogram(8.0, 1.0),
                            scale_mixing=from_pdf("gamma(4, 1/8)",
                                                  gamma_4_8)),
            "MPS": MPSModel(dim=1, mixing=erfc_sqrt_mps_mixing())}


LOOP_GRID = GridSpec(dim=1, shape=(9,), spacing=0.5)

#: 529 sites: BR screens its candidates at the nearest finished sites.
SCREENED_GRID = GridSpec(dim=2, shape=(23, 23), spacing=0.25)

#: 600 sites in 1-D, of which a bounded storm covers a short run.
LONG_GRID = GridSpec(dim=1, shape=(600,), spacing=0.1, origin=(-17.3,))

GRID_1024 = GridSpec(dim=2, shape=(32, 32), spacing=0.25)


def bit_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


class TestEngineBits:
    """The engine and the samplers keep every bit of the plain enumeration
    written out in :func:`reference_fields`.  Nothing is pinned to a hash:
    the fields go through exp and BLAS, whose last bits vary across CPUs
    and NumPy builds, so both sides are computed on the machine at hand."""

    @pytest.mark.parametrize("cls", ["BR", "VBR", "M2r", "M3b", "MPS", "EG",
                                     "EBG"])
    def test_loop_grid(self, cls):
        config = SimConfig(model=loop_models()[cls], grid=LOOP_GRID,
                           n_realizations=150, seed=31)
        assert bit_equal(collect(config), reference_fields(config))

    @pytest.mark.parametrize("cls", ["M2r", "M3b", "BR", "VBR", "EG",
                                     "EBG"])
    def test_screened_grid(self, cls):
        assert SCREENED_GRID.n_sites >= ENGINE._SCREEN_FROM_SITES
        config = SimConfig(model=models_2d()[cls], grid=SCREENED_GRID,
                           n_realizations=1, seed=5)
        assert bit_equal(collect(config), reference_fields(config))

    @pytest.mark.parametrize("cls", ["M3b", "MPS"])
    def test_long_grid(self, cls):
        config = SimConfig(model=models_1d()[cls], grid=LONG_GRID,
                           n_realizations=3, seed=7)
        assert bit_equal(collect(config), reference_fields(config))

    def test_m3b_on_32x32(self):
        config = SimConfig(model=models_2d()["M3b"], grid=GRID_1024,
                           n_realizations=2, seed=3)
        assert bit_equal(collect(config), reference_fields(config))

    @pytest.mark.parametrize("cls, field, x", [(M3bModel, "radius", 0.6),
                                               (MPSModel, "mixing", 2.0)],
                             ids=["M3b", "MPS"])
    def test_fixed_radius_and_intensity(self, cls, field, x):
        # A point mass draws on a constant route; the same law on the
        # sampler route gives the same fields.
        on_sampler = Distribution1D(
            name="on_sampler", atoms=((x, 1.0),), support=(x, x),
            sampler=lambda rng, n: np.full(n, x))
        config = SimConfig(model=cls(dim=1, **{field: point_mass(x)}),
                           grid=LOOP_GRID, n_realizations=150, seed=31)
        fields = collect(config)
        assert bit_equal(fields, reference_fields(config))
        assert bit_equal(fields, collect(SimConfig(
            model=cls(dim=1, **{field: on_sampler}), grid=LOOP_GRID,
            n_realizations=150, seed=31)))

    def test_a_swapped_draw_is_caught(self):
        config = SimConfig(model=loop_models()["M3b"], grid=LOOP_GRID,
                           n_realizations=20, seed=31)
        assert bit_equal(collect(config), reference_fields(config))
        assert not bit_equal(collect(config),
                             reference_fields(config, swap=True))


def nan_draw(n_sites, nan_in, counts):
    """A stub ``draw(k, rng)`` whose whole profile is an array: ratios 1
    at site k and uniform on [0.5, 1.5) elsewhere.  Three in ten candidates
    past the first site carry a NaN ratio at a finished site, in the whole
    profile (``nan_in="whole"``) or in the partial one only, at one of the
    sites it is asked for (``nan_in="screen"``).  ``counts`` tallies the
    whole profiles evaluated and the profiles of either kind that carried
    a NaN."""

    def draw(k, rng):
        ratios = 0.5 + rng.random(n_sites)
        ratios[k] = 1.0
        nan_at = int(rng.integers(k)) if k and rng.random() < 0.3 else None
        if nan_in == "whole" and nan_at is not None:
            ratios[nan_at] = math.nan

        def profile(idx=None):
            if idx is None:
                counts["whole"] += 1
                counts["nan whole"] += bool(np.isnan(ratios).any())
                return ratios.copy()
            part = ratios[idx]
            if nan_in == "screen" and nan_at is not None:
                part[nan_at % len(part)] = math.nan
            counts["nan screen"] += bool(np.isnan(part).any())
            return part

        return profile

    return draw


NAN_CASES = [("9-sites", GridSpec(dim=1, shape=(9,)), "whole", 40),
             ("screened", SCREENED_GRID, "whole", 2),
             ("screened-partial", SCREENED_GRID, "screen", 2)]


class TestCountedChecks:
    """The engine counts the comparisons of its check and its screen.  A
    NaN ratio at a finished site rejects a candidate, as ``all(<=)`` did,
    and a NaN at a screened site does not make the screen reject, as
    ``any(>)`` did not: the full check then decides."""

    @pytest.mark.parametrize("name, grid, nan_in, n", NAN_CASES,
                             ids=[c[0] for c in NAN_CASES])
    def test_nan_ratios_as_the_plain_loop(self, name, grid, nan_in, n):
        m = grid.n_sites
        near = (ENGINE._nearest_earlier(grid, ENGINE._SCREEN_SITES)
                if m >= ENGINE._SCREEN_FROM_SITES else None)
        engine = {"whole": 0, "nan whole": 0, "nan screen": 0}
        plain = dict(engine)
        draw = nan_draw(m, nan_in, engine)

        def run_draw(k, rng):
            # The ``_ProfileDraw`` contract: a whole profile on the run of
            # every site.
            profile = draw(k, rng)
            return lambda *idx: profile(*idx) if idx else (0, profile())

        got = np.stack([ENGINE._simulate_one(run_draw, m,
                                             np.random.default_rng(child),
                                             near)
                        for child in np.random.SeedSequence(17).spawn(n)])
        want = plain_enumeration(nan_draw(m, nan_in, plain), m, near, 17, n)
        assert bit_equal(got, want)
        assert engine == plain
        # Candidates with a NaN reached each check, and a NaN taken into
        # the field would stay there.
        assert engine[f"nan {nan_in}"] > 0
        assert not np.isnan(got).any()


class ScriptedRng:
    """A generator that returns scripted draws: ``random()`` the next level,
    ``uniform(low, high)`` NumPy's ``low + (high - low) * level`` of it,
    ``standard_normal(n)`` the next vector and ``gamma(shape)`` the next
    value."""

    def __init__(self, levels=(), normals=(), gammas=()):
        self.levels, self.normals = iter(levels), iter(normals)
        self.gammas = iter(gammas)

    def random(self):
        return next(self.levels)

    def uniform(self, low=0.0, high=1.0):
        return low + (high - low) * next(self.levels)

    def standard_normal(self, size):
        return np.array(next(self.normals), dtype=float)

    def gamma(self, shape):
        return next(self.gammas)


def padded(profile, n_sites):
    """The profile ``(start, ratios)`` at every site, 0 off its run."""
    start, ratios = profile()
    assert 0 <= start and start + len(ratios) <= n_sites
    out = np.zeros(n_sites)
    out[start:start + len(ratios)] = ratios
    return out


RUN_GRIDS = [
    ("1d", 1, GridSpec(dim=1, shape=(40,), spacing=0.25, origin=(-3.75,))),
    ("1d-0.1", 1, GridSpec(dim=1, shape=(61,), spacing=0.1,
                           origin=(-2.3,))),
    ("1xn", 3, GridSpec(dim=2, shape=(1, 25), spacing=0.25,
                        origin=(-1.25, -2.75))),
    ("nx1", 3, GridSpec(dim=2, shape=(25, 1), spacing=0.25,
                        origin=(-2.75, -1.25))),
    ("32x32", 3, GRID_1024),
]


class TestProfileRun:
    """The bounded storms of M3b and MPS return their profile on a run of
    sites; padded with zeros it equals the whole profile of the reference
    draws bit for bit."""

    @pytest.mark.parametrize("name, dim, grid", RUN_GRIDS,
                             ids=[c[0] for c in RUN_GRIDS])
    @pytest.mark.parametrize("radius", ["spacing", "2.5 spacings", "law"])
    def test_m3b_run_equals_whole_indicator(self, name, dim, grid, radius):
        law = {"spacing": point_mass(grid.spacing),
               "2.5 spacings": point_mass(2.5 * grid.spacing),
               "law": erfc_sqrt_radius_law(dim)}[radius]
        model = M3bModel(dim=dim, radius=law)
        sites, n = grid.sites(), grid.n_sites
        draw, reference = model._profile_sampler(sites), reference_draw(
            model, sites)
        rng, twin = np.random.default_rng(n), np.random.default_rng(n)
        for k in (0, n // 3, n - 1):
            for _ in range(30):
                assert bit_equal(padded(draw(k, rng), n),
                                 reference(k, twin)())
        if radius == "law":
            return
        # Centres on a site (level 0) or a radius away from it along an
        # axis (level 1), past the grid's edge at its first and last
        # sites.  On the grids of spacing 0.25, whose sites are exact in
        # binary, sites then lie at exactly the radius from the centre.
        axes = np.eye(dim)
        for k in (0, n // 2, n - 1):
            for level in (0.0, 1.0):
                for direction in (*axes, *-axes):
                    script = {"levels": [level], "normals": [direction]}
                    whole = reference(k, ScriptedRng(**script))()
                    assert bit_equal(padded(draw(k, ScriptedRng(**script)),
                                            n), whole)

    def test_mps_run_equals_whole_indicator(self):
        grid = GridSpec(dim=1, shape=(30,), spacing=0.5, origin=(-6.5,))
        sites, n = grid.sites(), grid.n_sites
        for model in (MPSModel(dim=1, mixing=erfc_sqrt_mps_mixing()),
                      MPSModel(dim=1, mixing=point_mass(1.0))):
            draw, reference = model._profile_sampler(sites), reference_draw(
                model, sites)
            rng, twin = np.random.default_rng(5), np.random.default_rng(5)
            for k in (0, 11, n - 1):
                for _ in range(30):
                    assert bit_equal(padded(draw(k, rng), n),
                                     reference(k, twin)())
        # Cells of length 0.25 to 3 whose ends fall on grid points, and
        # cells past the grid's edges.
        for k in (0, 1, 15, n - 1):
            for length in (0.25, 0.5, 1.0, 3.0):
                for level in (0.0, 0.25, 0.5, 1.0):
                    script = {"levels": [level], "gammas": [length]}
                    whole = reference(k, ScriptedRng(**script))()
                    got = padded(draw(k, ScriptedRng(**script)), n)
                    assert bit_equal(got, whole)
                    assert got[k] == 1.0

    def test_m3b_profile_evaluates_only_its_run(self, monkeypatch):
        models = importlib.import_module("tailcorr.models")
        distances = models._distances
        widths = []

        def spy(coords, center):
            widths.append(coords.shape[1])
            return distances(coords, center)

        monkeypatch.setattr(models, "_distances", spy)
        sites = GRID_1024.sites()
        draw = M3bModel(dim=3, radius=point_mass(0.5))._profile_sampler(sites)
        rng = np.random.default_rng(0)
        for k in (0, 500, len(sites) - 1):
            draw(k, rng)()
        assert len(widths) == 3
        assert max(widths) < len(sites)


PROFILE_AT_SITE_CASES = (
    [(f"loop-{c}", lambda c=c: loop_models()[c], LOOP_GRID)
     for c in ("BR", "VBR", "M3b", "MPS", "EG", "EBG")]
    + [(f"screened-{c}", lambda c=c: models_2d()[c], SCREENED_GRID)
       for c in ("BR", "VBR", "M3b", "EG", "EBG")])


class TestProfileAtItsSite:
    """A storm profile is its ratio to the storm's value at its conditioning
    site k, so the whole profile is exactly 1 there; a drift or tilt row
    whose diagonal is not 0 fails here.  M2r is left out: its ratio
    f(|c - x_k|) / f(rho) carries the rounding of the storm centre c, which
    is large beside a small offset rho."""

    @pytest.mark.parametrize("name, model, grid", PROFILE_AT_SITE_CASES,
                             ids=[c[0] for c in PROFILE_AT_SITE_CASES])
    def test_whole_profile_is_one_at_its_site(self, name, model, grid):
        n = grid.n_sites
        draw = model()._profile_sampler(grid.sites())
        rng = np.random.default_rng(n)
        for k in range(0, n, max(1, n // 40)):
            for _ in range(5):
                assert padded(draw(k, rng), n)[k] == 1.0


def reference_distances(sites):
    diff = sites[:, None, :] - sites[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def reference_setup(model, sites):
    """The dense Gaussian set-up of BR, VBR, EG and EBG written out with
    its (m, m, g) differences, a symmetrized copy and a scaled copy of the
    eigenvectors: the covariance or correlation matrix, its factor, the
    factor's row norms and half the variances (None for a correlation)."""
    dist = reference_distances(model._host(sites))
    if isinstance(model, (BRModel, VBRModel)):
        gamma = model.variogram(dist)
        sig2 = gamma[0]
        matrix = 0.5 * (sig2[:, None] + sig2[None, :] - gamma)
        half = 0.5 * sig2
    else:
        matrix = model.correlation(dist)
        np.fill_diagonal(matrix, 1.0)
        half = None
    eigvals, eigvecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return matrix, factor, np.sqrt(np.einsum("ij,ij->i", factor, factor)), half


SETUP_CASES = (
    [(f"loop-{c}", lambda c=c: loop_models()[c], LOOP_GRID)
     for c in ("BR", "VBR", "EG", "EBG")]
    + [(f"screened-{c}", lambda c=c: models_2d()[c], SCREENED_GRID)
       for c in ("BR", "VBR", "EG", "EBG")]
    + [("loop-EG-constant", lambda: EGModel(
        dim=1, correlation=constant_correlation()), LOOP_GRID)])


#: BR and VBR on the grids whose set-up keeps drift or tilt rows.
DRIFT_CASES = [(f"{where}-{c}", lambda c=c, models=models: models()[c], grid)
               for where, models, grid in (("loop", loop_models, LOOP_GRID),
                                           ("screened", models_2d,
                                            SCREENED_GRID),
                                           ("long", models_1d, LONG_GRID))
               for c in ("BR", "VBR")]


class TestSetupBits:
    """The Gaussian set-up, built in place, keeps every bit of the plain
    formulas in :func:`reference_setup`, which share no code with it."""

    @pytest.mark.parametrize("name, model, grid", SETUP_CASES,
                             ids=[c[0] for c in SETUP_CASES])
    def test_setup_equals_reference(self, name, model, grid):
        model, sites = model(), grid.sites()
        matrix, factor, norms, half = reference_setup(model, sites)
        if half is None:
            got, gauss = _correlation_factor(model, sites)
        else:
            got, gauss, got_half = _variogram_covariance(model, sites)
            assert bit_equal(got_half, half)
        assert bit_equal(got, matrix)
        assert bit_equal(gauss.factor, factor)
        assert bit_equal(gauss._norms, norms)
        if name.endswith("constant"):
            # Rank one: eigenvalues below zero are clipped.
            assert np.linalg.eigvalsh(matrix)[0] < 0.0

    @pytest.mark.parametrize("name, model, grid", DRIFT_CASES,
                             ids=[c[0] for c in DRIFT_CASES])
    def test_drift_and_tilt_rows(self, name, model, grid):
        # Whole rows, and the screened sites of every site that has them.
        model, sites = model(), grid.sites()
        cov, _, _, half = reference_setup(model, sites)
        got, _, got_half = _variogram_covariance(model, sites)
        rows = _drift_rows(got, got_half if name.endswith("VBR") else None)
        near = ENGINE._nearest_earlier(grid, ENGINE._SCREEN_SITES)
        for k in range(len(sites)):
            for at in ((slice(None), near[k]) if k > ENGINE._SCREEN_SITES
                       else (slice(None),)):
                want = cov[k, at] - cov[k, k]
                if name.endswith("VBR"):
                    want = want - (half[at] - half[k])
                assert bit_equal(rows[k, at], want)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_pairwise_distances(self, g):
        rng = np.random.default_rng(g)
        sites = rng.standard_normal((57, g)) * 10.0 ** rng.uniform(
            -3, 3, (57, g))
        dist = _pairwise_distances(sites)
        assert bit_equal(dist, reference_distances(sites))
        assert bit_equal(dist, dist.T)

    def test_br_setup_memory(self):
        # The library's own arrays at their peak, about 3 n^2 floats (the
        # distances and the variogram's two temporaries); LAPACK's
        # workspace is not traced.
        sites = GridSpec(dim=2, shape=(32, 32), spacing=0.25).sites()
        model = BRModel(dim=2, variogram=fbm_variogram(8.0, 1.0))
        tracemalloc.start()
        try:
            model._profile_sampler(sites)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * len(sites) ** 2 * 8

    def test_vbr_tilt_rows_memory(self):
        # The tilt rows are formed one at a time while the covariance and
        # the factor are alive, 2 n^2 floats: an n x n temporary there
        # would take the traced peak to 3 n^2.
        sites = GRID_1024.sites()
        model = VBRModel(dim=2, variogram=fbm_variogram(8.0, 1.0),
                         scale_mixing=point_mass(0.45))
        tracemalloc.start()
        try:
            model._profile_sampler(sites)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(sites) ** 2 * 8

    def test_br_setup_memory_with_variogram_in_one_buffer(self):
        # The variogram takes |t|, its power and its scale in one buffer
        # beside the distances: about 2 n^2 floats at the traced peak.
        sites = GRID_1024.sites()
        model = BRModel(dim=2, variogram=fbm_variogram(8.0, 1.0))
        tracemalloc.start()
        try:
            model._profile_sampler(sites)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(sites) ** 2 * 8

    @pytest.mark.parametrize("cls", ["BR", "EG", "EBG"])
    def test_bounded_gauss_setup_memory_in_one_buffer(self, cls):
        # The bounded-gauss correlations and BR's bounded variogram over
        # the exponential correlation each fill one buffer beside the
        # distances: about 2 n^2 floats at the traced peak.
        sites = GRID_1024.sites()
        model = bounded_gauss_models(dim=2)[cls]
        tracemalloc.start()
        try:
            model._profile_sampler(sites)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(sites) ** 2 * 8

    def test_correlations_in_one_buffer_keep_their_bits(self):
        # Against the formulas written out, on the distances of the 32 x 32
        # grid and on signed values from subnormal to huge.
        rho_eg, rho_ebg = bounded_gauss_correlations()

        def e(t):
            return erf(0.45 * np.sqrt(-np.expm1(-np.abs(t))))

        rng = np.random.default_rng(8)
        signed = np.concatenate([
            rng.standard_normal(5000) * 10.0 ** rng.uniform(-320, 3, 5000),
            [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, 1e300, math.inf]])
        lam, exp_rho = 1.62, exponential_correlation(1.0)
        for t in (_pairwise_distances(GRID_1024.sites()), signed, signed[:1]):
            for scale in (1.0, 0.3, 7.0):
                assert bit_equal(exponential_correlation(scale).func(t),
                                 np.exp(-np.abs(t) / scale))
            assert bit_equal(rho_eg.func(t), 1.0 - 2.0 * e(t) * e(t))
            assert bit_equal(rho_ebg.func(t), np.cos(math.pi * e(t)))
            assert bit_equal(bounded_variogram(lam, exp_rho).func(t),
                             lam * (1.0 - exp_rho.func(np.abs(t))))

    def test_a_bounded_variogram_of_a_plain_callable(self):
        # A correlation wrapped from a scalar callable that is not even,
        # on more signed distances than one piece of the variogram takes.
        rho = correlation_from_callable("odd", lambda t: 1.0 / (1.0 + abs(t) + t))
        t = np.linspace(-40.0, 40.0, 7 * (2 ** 14 + 3)).reshape(-1, 7)
        assert bit_equal(bounded_variogram(2.0, rho).func(t),
                         2.0 * (1.0 - rho.func(np.abs(t))))


class TestStreamContract:
    """One child generator per realization: a realization's fields depend
    on the seed and its index only, whatever is drawn around it."""

    def test_interleaved_streams_equal_each_alone(self):
        model = loop_models()["M2r"]
        first, second = (SimConfig(model=model, grid=LOOP_GRID,
                                   n_realizations=8, seed=seed)
                         for seed in (3, 4))
        together = [(a.values, b.values)
                    for a, b in zip(simulate(first), simulate(second))]
        assert bit_equal(np.stack([a for a, _ in together]), collect(first))
        assert bit_equal(np.stack([b for _, b in together]), collect(second))

    @pytest.mark.parametrize("cls", ["M3b", "BR"])
    def test_a_longer_stream_extends_a_shorter_one(self, cls):
        model = loop_models()[cls]
        short, long = (collect(SimConfig(model=model, grid=LOOP_GRID,
                                         n_realizations=n, seed=12))
                       for n in (6, 12))
        assert bit_equal(long[:6], short)
        assert not np.array_equal(long[6:], short)

    def test_a_stream_across_seed_blocks(self, monkeypatch):
        # Blocks of 4 children: the fields of a stream of 10 are those of
        # the reference's one generator per child of ``spawn``.
        monkeypatch.setattr(ENGINE, "_SEED_BLOCK", 4)
        config = SimConfig(model=loop_models()["M3b"], grid=LOOP_GRID,
                           n_realizations=10, seed=41)
        assert bit_equal(collect(config), reference_fields(config))

    def test_a_huge_stream_starts_at_once(self):
        # No child is made ahead of its block: the first field of a stream
        # of 10^12 costs one block of seeding words.
        config = SimConfig(model=loop_models()["MPS"], grid=LOOP_GRID,
                           n_realizations=10 ** 12, seed=3)
        tracemalloc.start()
        try:
            first = next(simulate(config))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20
        assert bit_equal(first.values.ravel(), reference_fields(
            SimConfig(model=config.model, grid=LOOP_GRID, n_realizations=1,
                      seed=3))[0])


#: Seeds of one to six 32-bit words.
SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 160 + 3]


class TestChildSeeds:
    """The seeding words of a block of children are NumPy's own, and a
    generator seeded from them draws as ``default_rng`` of the child."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start, stop", [
        (0, 10),
        (ENGINE._SEED_BLOCK - 3, ENGINE._SEED_BLOCK + 3),
        # Keys from 2^32 on take two words.
        (2 ** 32 - 2, 2 ** 32 + 2),
    ], ids=["first", "block-edge", "two-word-keys"])
    def test_words_are_those_of_the_child(self, seed, start, stop):
        words = ENGINE._child_words(seed, start, stop)
        assert words.dtype == np.uint64 and words.shape == (stop - start, 4)
        want = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(
            4, np.uint64) for i in range(start, stop)]
        assert np.array_equal(words, np.stack(want))

    def test_words_are_those_of_spawn(self):
        children = np.random.SeedSequence(2 ** 64 + 5).spawn(12)
        words = ENGINE._child_words(2 ** 64 + 5, 0, 12)
        for child, row in zip(children, words):
            assert np.array_equal(row, child.generate_state(4, np.uint64))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_are_those_of_default_rng(self, seed):
        for i, words in zip(range(2 ** 32 - 2, 2 ** 32 + 2),
                            ENGINE._child_words(seed, 2 ** 32 - 2,
                                                2 ** 32 + 2)):
            mine = np.random.Generator(
                np.random.PCG64(ENGINE._ChildSeed(words)))
            theirs = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(i,)))
            assert mine.bit_generator.state == theirs.bit_generator.state
            for name, args in [("random", ()), ("exponential", ()),
                               ("standard_normal", (3,)), ("gamma", (2.0,)),
                               ("rayleigh", ()), ("uniform", (0.0, 2.0)),
                               ("random", (5,))]:
                got = getattr(mine, name)(*args)
                want = getattr(theirs, name)(*args)
                assert np.array_equal(np.float64(got).view(np.int64),
                                      np.float64(want).view(np.int64))

    def test_a_child_seed_gives_only_its_words(self):
        seed = ENGINE._ChildSeed(ENGINE._child_words(1, 0, 1)[0])
        with pytest.raises(ValueError, match="4 uint64 words"):
            seed.generate_state(8, np.uint32)


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
