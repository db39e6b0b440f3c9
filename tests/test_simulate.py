"""Tests for exact max-stable simulation, margin transforms, and the
empirical extremal-coefficient estimator, closing the loop against the
closed-form TCFs of every simulatable class."""

import importlib
import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

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
    tcf,
)
from tailcorr.presets import (
    bounded_gauss_chi,
    bounded_gauss_correlations,
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
    estimate_chi,
    simulate,
    transform_margins,
)


def constant_correlation():
    return correlation_from_callable("one", lambda t: 1.0)


def frechet_cdf(x):
    return np.exp(-1.0 / np.asarray(x))


def pair_chi(values, i, j):
    """Closed-loop estimate (chi_hat, std_err) from one site pair."""
    a = 1.0 / np.maximum(values[:, i], values[:, j])
    theta = 1.0 / a.mean()
    se = theta * theta * a.std(ddof=1) / math.sqrt(len(a))
    return 2.0 - theta, se


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


class TestStationarity:
    def test_pair_estimates_agree_across_translation(self):
        cfg = SimConfig(model=erfc_sqrt_models_1d()["M3b"],
                        grid=GridSpec(dim=1, shape=(8,), spacing=0.5),
                        n_realizations=6000, seed=17)
        values = collect(cfg)
        chi_a, se_a = pair_chi(values, 0, 2)
        chi_b, se_b = pair_chi(values, 4, 6)
        assert abs(chi_a - chi_b) <= 3.0 * math.hypot(se_a, se_b)


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


def frechet_fields(rng, n, grid, correlate=False):
    m = grid.n_sites
    out = []
    for _ in range(n):
        x = 1.0 / rng.exponential(size=m)
        if correlate:
            x[:] = x[0]
        out.append(GridField(grid=grid, values=x.reshape(grid.shape)))
    return out


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

    def test_needs_at_least_100_realizations(self):
        grid = GridSpec(dim=1, shape=(2,))
        fields = frechet_fields(np.random.default_rng(7), 99, grid)
        with pytest.raises(DomainError, match="100"):
            estimate_chi(fields, [1.0])

    def test_requires_frechet_margins(self):
        grid = GridSpec(dim=1, shape=(2,))
        fields = [transform_margins(f, "gumbel")
                  for f in frechet_fields(np.random.default_rng(8), 120, grid)]
        with pytest.raises(DomainError, match="Frechet"):
            estimate_chi(fields, [1.0])

    def test_requires_common_grid(self):
        fields = frechet_fields(np.random.default_rng(9), 60,
                                GridSpec(dim=1, shape=(2,)))
        fields += frechet_fields(np.random.default_rng(10), 60,
                                 GridSpec(dim=1, shape=(2,), spacing=2.0))
        with pytest.raises(DomainError, match="grid"):
            estimate_chi(fields, [1.0])

    def test_negative_lag_rejected(self):
        grid = GridSpec(dim=1, shape=(2,))
        fields = frechet_fields(np.random.default_rng(11), 120, grid)
        with pytest.raises(DomainError, match="lag"):
            estimate_chi(fields, [-1.0])
