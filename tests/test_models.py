"""Tests for TCF evaluation across all process classes, the ball overlap
kernel, parametric family bounds, and the erfc scale-mixture catalog."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_entrywise

from tailcorr import DomainError, ModelError, erfc, models, numerics
from tailcorr.distributions import exponential_dist, point_mass
from tailcorr.cli import resolve_function
from tailcorr.membership import classify
from tailcorr.models import (
    _FAMILIES,
    PARAMETRIC_FAMILIES,
    _cap_fraction,
    BRModel,
    EBGModel,
    EGModel,
    ErfcMixtureModel,
    M2rModel,
    M3bModel,
    M3rModel,
    MPSModel,
    ParametricModel,
    ShapeEnsemble,
    VBRModel,
    classify_parameters,
    erfc_mixture,
    h_d,
    laplace_factor,
    overlap_integral,
    parametric_bounds,
    parametric_tcf,
    tcf,
    tcf_result,
)
from tailcorr.numerics import beta_d, kappa_d, quadrature
from tailcorr.presets import (
    bounded_gauss_chi,
    bounded_gauss_models,
    erfc_sqrt_models,
    erfc_sqrt_models_1d,
    erfc_sqrt_mps_mixing,
    erfc_sqrt_radius_law,
    erfc_sqrt_shape,
)
from tailcorr.radial import (
    ball_indicator,
    correlation_from_callable,
    exponential_correlation,
    fbm_variogram,
    powered_erfc,
    radial_from_callable,
    tent,
    variogram_from_callable,
)


class TestHd:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 8])
    def test_normalized_at_zero(self, d):
        assert h_d(0.0, d) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_vanishes_beyond_one(self, d):
        assert h_d(1.0, d) == 0.0
        assert h_d(2.5, d) == 0.0

    def test_h1_is_tent(self):
        t = np.linspace(0, 1, 11)
        assert np.allclose(h_d(t, 1), 1.0 - t)

    def test_h3_closed_form_in_sqrt(self):
        # h_3(sqrt(t)) = (2 - 3 sqrt(t) + t^{3/2}) / 2
        for t in [0.04, 0.25, 0.5, 0.81]:
            expected = (2.0 - 3.0 * math.sqrt(t) + t**1.5) / 2.0
            assert h_d(math.sqrt(t), 3) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_closed_forms_match_quadrature(self, d):
        # Independent route: h_d(t) = d beta_d int_t^1 (1-v^2)^{(d-1)/2} dv.
        for t in [0.0, 0.1, 0.37, 0.62, 0.9]:
            ref = d * beta_d(d) * quadrature(
                lambda v: (1.0 - v * v) ** ((d - 1) / 2.0), t, 1.0, tol=1e-12
            ).value
            assert h_d(t, d) == pytest.approx(ref, abs=1e-10)

    @given(st.floats(min_value=0.0, max_value=1.5),
           st.integers(min_value=1, max_value=7))
    def test_range_and_monotonicity(self, t, d):
        v = h_d(t, d)
        assert 0.0 <= v <= 1.0
        assert h_d(min(t + 0.05, 1.5), d) <= v + 1e-12

    def test_bad_dimension(self):
        with pytest.raises(DomainError):
            h_d(0.5, 0)


class TestCapFraction:
    """_cap_fraction(c, d) = I_{1-c^2}((d-1)/2, 1/2), the share of a
    hemisphere in the cap z_1 > c."""

    #: Where betainc keeps the digits of c: its argument 1 - c^2 loses
    #: about eps / c^2 relative in c^2, an error of order eps / c in the
    #: value, and below c ~ 1e-8 it rounds to 1.
    C = np.concatenate([np.linspace(0.0, 1.0, 1001),
                        np.geomspace(1e-4, 1.0, 400)])
    SMALL = np.geomspace(1e-12, 1e-4, 81)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_closed_forms_match_betainc(self, d):
        np.testing.assert_allclose(
            _cap_fraction(self.C, d),
            special.betainc((d - 1) / 2.0, 0.5, 1.0 - self.C * self.C),
            rtol=0.0, atol=2e-12)

    @pytest.mark.parametrize("d", range(8, 12))
    def test_betainc_beyond_seven(self, d):
        c = np.concatenate([self.C, self.SMALL])
        assert np.array_equal(_cap_fraction(c, d), special.betainc(
            (d - 1) / 2.0, 0.5, 1.0 - c * c))

    def test_d3_is_one_minus_c_rounded_once(self):
        c = np.concatenate([self.C, self.SMALL, [2.5e-5, 5e-324]])
        exact = [float(Fraction(1) - Fraction(float(x))) for x in c]
        assert _cap_fraction(c, 3).tolist() == exact

    @pytest.mark.parametrize("d,form", [
        (2, lambda c: 1.0 - (2.0 / math.pi) * math.asin(c)),
        (4, lambda c: 1.0 - (2.0 / math.pi) * (math.asin(c) + c * math.sqrt(
            1.0 - c * c))),
    ])
    def test_small_c_keeps_its_digits(self, d, form):
        # The arcsine forms are exact at c = 0 and lose nothing at small c.
        want = np.array([form(float(x)) for x in self.SMALL])
        np.testing.assert_allclose(_cap_fraction(self.SMALL, d), want,
                                   rtol=0.0, atol=4e-16)


class TestLaplaceFactor:
    def test_values(self):
        assert laplace_factor(1) == pytest.approx(1.0, abs=1e-15)
        assert laplace_factor(2) == pytest.approx(2.0 / math.pi, abs=1e-15)
        assert laplace_factor(3) == pytest.approx(0.5, abs=1e-15)


class TestOverlapIntegral:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 1.7])
    def test_ball_overlap_equals_kernel(self, d, radius):
        # min-overlap of two normalized balls at distance t is exactly
        # h_d(t / (2 radius)) — an independent closed form for the radial
        # cap-reduction route.
        f = ball_indicator(d, radius)
        ts = radius * np.array([[0.0, 0.3, 1.0], [1.9, 2.1, 0.7]])
        values, _ = assert_entrywise(lambda t: overlap_integral(f, d, t), ts)
        np.testing.assert_allclose(values, h_d(ts / (2.0 * radius), d),
                                   rtol=0.0, atol=1e-9)

    def test_exponential_shape_d1(self):
        # f(u) = e^{-2u} integrates to 1 on R and has chi(t) = e^{-t}:
        # 2 int_{t/2}^inf e^{-2u} du = e^{-t}.
        f = radial_from_callable("exp_shape", lambda u: math.exp(-2.0 * u))
        for t in [0.0, 0.5, 1.0, 3.0]:
            assert overlap_integral(f, 1, t).value == pytest.approx(
                math.exp(-t), abs=1e-10)

    def test_non_integrable_shape_rejected(self):
        f = radial_from_callable("too_singular", lambda u: u**-3.0,
                                 zero_exponent=-3.0)
        with pytest.raises(ModelError):
            overlap_integral(f, 1, 0.0)

    @pytest.mark.parametrize("lags", [math.nan, np.array([0.5, math.nan])],
                             ids=["float", "array"])
    def test_nan_lag_rejected(self, lags):
        with pytest.raises(DomainError, match="nan"):
            overlap_integral(ball_indicator(2, 1.0), 2, lags)


class TestTableOneClasses:
    def test_br_fbm(self):
        model = BRModel(dim=2, variogram=fbm_variogram(8.0, 1.0))
        assert tcf(model, 0.0) == 1.0
        assert tcf(model, 1.0) == pytest.approx(float(erfc(1.0)), abs=1e-14)
        assert tcf(model, 1.0) == pytest.approx(0.157299, abs=1e-6)
        assert tcf(model, 2.0) == pytest.approx(float(erfc(math.sqrt(2.0))),
                                                abs=1e-14)

    def test_eg_closed_form(self):
        rho = exponential_correlation()
        model = EGModel(dim=1, correlation=rho)
        t_half = -math.log(0.5)  # rho(t) = 1/2 there
        assert tcf(model, t_half) == pytest.approx(0.5, abs=1e-12)
        assert tcf(model, 0.0) == 1.0

    def test_ebg_closed_form(self):
        rho = correlation_from_callable("cos", lambda t: math.cos(t))
        model = EBGModel(dim=1, correlation=rho)
        assert tcf(model, math.pi / 2.0) == pytest.approx(0.5, abs=1e-12)
        assert tcf(model, 0.0) == 1.0

    def test_mps_suite_matches_erfc_sqrt(self):
        # d=2 Laplace transform of the arctan mixing law reproduces
        # erfc(sqrt(t)) — the independent identity behind the suite.
        model = MPSModel(dim=2, mixing=erfc_sqrt_mps_mixing())
        for t in [0.1, 0.5, 1.0, 2.0, 5.0]:
            assert tcf(model, t) == pytest.approx(
                float(erfc(math.sqrt(t))), abs=1e-6)

    def test_m2r_suite_matches_erfc_sqrt(self):
        model = M2rModel(dim=3, shape=erfc_sqrt_shape(3))
        for t in [0.05, 0.3, 1.0, 3.0]:
            assert tcf(model, t) == pytest.approx(
                float(erfc(math.sqrt(t))), abs=1e-6)

    def test_m3b_suite_matches_erfc_sqrt(self):
        model = M3bModel(dim=3, radius=erfc_sqrt_radius_law(3))
        for t in [0.05, 0.3, 1.0, 3.0]:
            assert tcf(model, t) == pytest.approx(
                float(erfc(math.sqrt(t))), abs=1e-6)

    def test_one_dim_suite_matches_erfc_sqrt(self):
        for model in erfc_sqrt_models_1d().values():
            for t in [0.05, 0.5, 2.0]:
                assert tcf(model, t) == pytest.approx(
                    float(erfc(math.sqrt(t))), abs=1e-6)

    def test_bounded_gauss_suite_agreement(self):
        chi = bounded_gauss_chi()
        for name, model in bounded_gauss_models().items():
            for t in [0.0, 0.3, 1.0, 4.0]:
                assert tcf(model, t) == pytest.approx(chi(t), abs=1e-12), name

    def test_vbr_point_mass_is_br(self):
        gamma = variogram_from_callable("lin", lambda t: 2.0 * abs(t))
        br = BRModel(dim=1, variogram=gamma)
        vbr = VBRModel(dim=1, variogram=gamma, scale_mixing=point_mass(1.0))
        for t in [0.0, 0.5, 2.0]:
            assert tcf(vbr, t) == pytest.approx(tcf(br, t), abs=1e-10)

    def test_vbr_exponential_mixture(self):
        gamma = variogram_from_callable("lin", lambda t: 2.0 * abs(t))
        vbr = VBRModel(dim=1, variogram=gamma,
                       scale_mixing=exponential_dist(1.0))
        # Independent route: direct quadrature of erfc(s sqrt(gamma/8)) e^{-s}.
        for t in [0.3, 1.0, 4.0]:
            arg = math.sqrt(2.0 * t / 8.0)
            ref = quadrature(
                lambda s: float(erfc(s * arg)) * math.exp(-s), 0.0, math.inf,
                tol=1e-12).value
            assert tcf(vbr, t) == pytest.approx(ref, abs=1e-8)

    def test_mps_point_mass(self):
        model = MPSModel(dim=3, mixing=point_mass(2.0))
        c = laplace_factor(3)
        for t in [0.0, 0.7, 2.0]:
            assert tcf(model, t) == pytest.approx(
                math.exp(-c * t * 2.0), abs=1e-12)

    def test_m3b_point_mass(self):
        model = M3bModel(dim=2, radius=point_mass(0.75))
        for t in [0.0, 0.4, 1.2]:
            assert tcf(model, t) == pytest.approx(h_d(t / 1.5, 2), abs=1e-10)

    def test_m3b_bounded_radius_support(self):
        model = M3bModel(dim=2, radius=point_mass(0.75))
        assert tcf(model, 1.6) == 0.0
        model_unbounded = M3bModel(dim=1, radius=exponential_dist(1.0))
        assert tcf(model_unbounded, 10.0) > 0.0

    def test_m3r_fixed_ensemble_equals_m2r(self):
        shape = ball_indicator(2, 1.0)
        ens = ShapeEnsemble(name="const", sample=lambda rng: shape)
        m3r = M3rModel(dim=2, ensemble=ens, n_samples=4, seed=1)
        for t in [0.0, 0.8, 1.5]:
            assert tcf(m3r, t) == pytest.approx(h_d(t / 2.0, 2), abs=1e-8)

    @pytest.mark.parametrize("n_samples", [1, 2, 3, 4])
    def test_m3r_integrates_each_distinct_shape_once(self, n_samples,
                                                      monkeypatch):
        # The mean and standard error still run over n_samples rows, so the
        # bits are those of one integral per draw.
        disc = ball_indicator(2, 1.0)
        model = M3rModel(dim=2, ensemble=ShapeEnsemble(
            name="unit_disc", sample=lambda rng: disc), n_samples=n_samples)
        t = np.geomspace(0.01, 3.0, 25)
        draws = [overlap_integral(disc, 2, t, tol=1e-8)
                 for _ in range(n_samples)]
        vals = np.array([v for v, _ in draws])
        errs = np.array([e for _, e in draws])
        se = (np.std(vals, axis=0, ddof=1) / math.sqrt(n_samples)
              if n_samples > 1 else errs[0])
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return overlap_integral(*args, **kwargs)

        monkeypatch.setattr(models, "overlap_integral", spy)
        value, error = model._tcf(t, 1e-10)
        assert len(calls) == 1
        for got, want in [(value, np.mean(vals, axis=0)),
                          (error, se + np.mean(errs, axis=0))]:
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))

    def test_m3r_unit_disc_matches_closed_form(self):
        # Two unit discs at distance t overlap in (2/pi)(arccos x -
        # x sqrt(1 - x^2)), x = t/2; the model's quadrature runs at 1e-8.
        disc = ball_indicator(2, 1.0)
        model = M3rModel(dim=2, ensemble=ShapeEnsemble(
            name="unit_disc", sample=lambda rng: disc), n_samples=2)
        t = np.geomspace(0.01, 5.0, 200)
        x = np.minimum(t / 2.0, 1.0)
        np.testing.assert_allclose(
            tcf(model, t),
            (2.0 / math.pi) * (np.arccos(x) - x * np.sqrt(1.0 - x * x)),
            rtol=0.0, atol=1e-8)

    def test_m3r_random_ball_ensemble_matches_m3b(self):
        # Random-radius ball indicators: the ensemble Monte Carlo route must
        # agree with the mixture closed form within its standard error.
        radii = [0.5, 1.0, 1.5]

        def sample(rng):
            return ball_indicator(3, radii[rng.integers(0, 3)])

        ens = ShapeEnsemble(name="three_balls", sample=sample)
        m3r = M3rModel(dim=3, ensemble=ens, n_samples=600, seed=7)
        mix = M3bModel(dim=3, radius=__import__("tailcorr.distributions",
                                                fromlist=["Distribution1D"]
                                                ).Distribution1D(
            name="three_balls",
            atoms=((0.5, 1 / 3), (1.0, 1 / 3), (1.5, 1 / 3)),
            cdf=lambda s: sum(1 / 3 for a in (0.5, 1.0, 1.5) if s >= a),
        ))
        t = 1.2
        res = tcf_result(m3r, t)
        assert abs(res.value - tcf(mix, t)) <= 4.0 * res.abs_error_estimate

    def test_tcf_of_array(self):
        model = BRModel(dim=1, variogram=fbm_variogram(8.0, 1.0))
        out = tcf(model, np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == 1.0


class TestBatchedLags:
    """The lags of one ``tcf`` call are one batch of integrals."""

    def test_m3b_density_called_once_per_pass(self, monkeypatch):
        passes = [0]
        kronrod = numerics._kronrod_panels

        def counted_passes(*args):
            passes[0] += 1
            return kronrod(*args)

        monkeypatch.setattr(numerics, "_kronrod_panels", counted_passes)
        law = erfc_sqrt_radius_law(3)
        calls = [0]

        def pdf(r):
            calls[0] += 1
            return law.pdf(r)

        model = M3bModel(dim=3, radius=dataclasses.replace(law, pdf=pdf))
        lags = np.geomspace(0.01, 5.0, 200)
        values = tcf(model, lags)
        # One call per pass, not one per lag, and no probe beside them.
        assert calls[0] == passes[0]
        assert passes[0] < 30
        np.testing.assert_allclose(values, erfc(np.sqrt(lags)), atol=1e-8)

    @pytest.mark.parametrize("name", ["M2r", "M3b", "MPS", "BR"])
    def test_array_matches_lag_by_lag(self, name):
        model = erfc_sqrt_models()[name]
        lags = np.array([[0.0, 0.05, 0.7], [3.0, 1.2, 0.3]])
        values = assert_entrywise(lambda t: tcf(model, t, tol=1e-10), lags)
        results = assert_entrywise(
            lambda t: tcf_result(model, t, tol=1e-10), lags)
        assert np.array_equal(results[0], values)


@pytest.mark.parametrize("name,model", [
    *erfc_sqrt_models().items(),
    *((k, v) for k, v in bounded_gauss_models().items() if k != "BR"),
    ("parametric", ParametricModel(dim=1, family="powered_exponential",
                                   nu=1.0)),
])
@pytest.mark.parametrize("lags", [math.nan, np.array([0.5, math.nan])],
                         ids=["float", "array"])
def test_nan_lag_rejected(name, model, lags):
    # Each class read a NaN lag its own way (1.0, 0.0, NaN, a quadrature
    # error, an erf error); the lag guard names it for all of them.
    for fn in (tcf, tcf_result):
        with pytest.raises(DomainError, match="t must be >= 0, got nan"):
            fn(model, lags)


@pytest.mark.parametrize("name,model", [
    ("BR", BRModel(dim=2, variogram=fbm_variogram(8.0, 1.0))),
    ("EG", EGModel(dim=1, correlation=exponential_correlation())),
    ("EBG", EBGModel(dim=1, correlation=exponential_correlation())),
    ("MPS", MPSModel(dim=1, mixing=exponential_dist(1.0))),
    ("M3b", M3bModel(dim=3, radius=point_mass(1.0))),
    ("M2r", M2rModel(dim=2, shape=ball_indicator(2, 1.0))),
    ("VBR", VBRModel(dim=1, variogram=fbm_variogram(1.0, 1.0),
                     scale_mixing=exponential_dist(2.0))),
    ("ErfcMixture", erfc_mixture(4, 1.0)),
    ("Parametric", ParametricModel(dim=1, family="powered_exponential", nu=1.0)),
])
class TestUniversalInvariants:
    def test_unit_at_origin(self, name, model):
        assert tcf(model, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative_on_grid(self, name, model):
        for t in np.logspace(-3, 3, 25):
            assert tcf(model, float(t)) >= -1e-12


class TestParametricFamilies:
    def test_powered_exponential_value(self):
        assert parametric_tcf("powered_exponential", 1.0, 2.0) == pytest.approx(
            math.exp(-2.0), abs=1e-14)

    def test_cauchy_value(self):
        assert parametric_tcf("cauchy", 1.0, 1.0, beta=1.0) == pytest.approx(
            0.5, abs=1e-14)

    def test_whittle_matern_half_is_exponential(self):
        t = np.linspace(0.1, 4, 9)
        assert np.allclose(parametric_tcf("whittle_matern", 0.5, t),
                           np.exp(-t), rtol=1e-10)

    @pytest.mark.parametrize("t", [math.nan, [0.5, math.nan]])
    def test_nan_lag_rejected(self, t):
        with pytest.raises(DomainError, match="^t must be >= 0, got nan$"):
            parametric_tcf("cauchy", 1.0, t)

    def test_truncated_power_value(self):
        assert parametric_tcf("truncated_power", 2.0, 0.5) == pytest.approx(
            0.25, abs=1e-14)
        assert parametric_tcf("truncated_power", 2.0, 1.5) == 0.0

    @pytest.mark.parametrize("family,cf,tcf_rng", [
        ("powered_exponential", (0.0, 2.0), (0.0, 1.0)),
        ("whittle_matern", (0.0, math.inf), (0.0, 0.5)),
        ("cauchy", (0.0, 2.0), (0.0, 1.0)),
        ("powered_erfc", (0.0, 1.0), (0.0, 1.0)),
    ])
    def test_bounds_dimension_free(self, family, cf, tcf_rng):
        b = parametric_bounds(family)
        assert (b.cf_range.lo, b.cf_range.hi) == cf
        assert (b.tcf_range.lo, b.tcf_range.hi) == tcf_rng
        assert b.tcf_sharp

    def test_truncated_power_bounds(self):
        b3 = parametric_bounds("truncated_power", 3)
        assert b3.cf_range.lo == 2.0 and not b3.cf_range.lo_open
        assert b3.tcf_range.lo == 2.0
        assert b3.tcf_sharp  # odd dimension
        b4 = parametric_bounds("truncated_power", 4)
        assert b4.cf_range.lo == 2.5
        assert b4.tcf_range.lo == 3.0
        assert not b4.tcf_sharp
        assert "sharpness unknown" in b4.note
        with pytest.raises(DomainError):
            parametric_bounds("truncated_power")

    def test_classification(self):
        assert classify_parameters("powered_exponential", 2.5) == "invalid_as_cf"
        assert classify_parameters("powered_exponential", 1.5) == "valid_cf_not_tcf"
        assert classify_parameters("powered_exponential", 0.8) == "valid_tcf"
        assert classify_parameters("whittle_matern", 1.0) == "valid_cf_not_tcf"
        assert classify_parameters("truncated_power", 1.5, 3) == "invalid_as_cf"
        assert classify_parameters("truncated_power", 2.0, 3) == "valid_tcf"


class TestFamilyTable:
    """Every entry of the family table is reachable from each surface that
    reads it: evaluation, bounds, the model class and the CLI specs."""

    GRID = np.concatenate([[0.0, 1e-300], np.geomspace(1e-8, 800.0, 401),
                           np.linspace(0.0, 3.0, 61)])

    @staticmethod
    def _params(family):
        nu = 2.5 if family == "truncated_power" else 0.5
        return nu, 1.5 if _FAMILIES[family].takes_beta else 1.0

    def test_families_are_the_table(self):
        assert PARAMETRIC_FAMILIES == (
            "powered_exponential", "whittle_matern", "cauchy",
            "powered_erfc", "truncated_power")
        assert PARAMETRIC_FAMILIES == tuple(_FAMILIES)

    @pytest.mark.parametrize("family", PARAMETRIC_FAMILIES)
    def test_parametric_tcf_is_the_constructor(self, family):
        nu, beta = self._params(family)
        f = _FAMILIES[family].function(nu, beta)
        values = parametric_tcf(family, nu, self.GRID, beta=beta)
        assert values.tobytes() == f(self.GRID).tobytes()
        scalars = [parametric_tcf(family, nu, float(t), beta=beta)
                   for t in self.GRID[::37]]
        assert scalars == [f(float(t)) for t in self.GRID[::37]]
        assert all(type(v) is float for v in scalars)

    @pytest.mark.parametrize("family", PARAMETRIC_FAMILIES)
    def test_bounds_answer(self, family):
        dims = range(1, 5) if family == "truncated_power" else (None, 1, 3)
        for d in dims:
            b = parametric_bounds(family, d)
            assert b.family == family
            nu = b.tcf_range.hi if math.isfinite(b.tcf_range.hi) \
                else b.tcf_range.lo
            assert classify_parameters(family, nu, d) == "valid_tcf"

    @pytest.mark.parametrize("family", PARAMETRIC_FAMILIES)
    def test_cli_spec_resolves_to_the_family(self, family):
        nu, beta = self._params(family)
        entry = _FAMILIES[family]
        args = f":{nu}:{beta}" if entry.takes_beta else f":{nu}"
        f = resolve_function(entry.constructor.__name__ + args)
        assert (f(self.GRID).tobytes()
                == parametric_tcf(family, nu, self.GRID, beta=beta).tobytes())

    @pytest.mark.parametrize("family,cm", [
        ("powered_exponential", (0.0, 1.0)),
        ("whittle_matern", (0.0, 0.5)),
        ("cauchy", (0.0, 1.0)),
        ("powered_erfc", (0.0, 0.5)),
    ])
    def test_completely_monotone_ranges(self, family, cm):
        b = parametric_bounds(family)
        assert (b.cm_range.lo, b.cm_range.hi) == cm
        assert b.cm_range.lo_open and not b.cm_range.hi_open

    def test_truncated_power_is_never_completely_monotone(self):
        for d in range(1, 5):
            assert parametric_bounds("truncated_power", d).cm_range is None

    @pytest.mark.parametrize("family", PARAMETRIC_FAMILIES)
    def test_nan_is_outside_every_range(self, family):
        d = 3 if family == "truncated_power" else None
        assert classify_parameters(family, math.nan, d) == "invalid_as_cf"

    @pytest.mark.parametrize("family,nu,beta", [
        ("powered_exponential", 3.0, 1.0),
        ("powered_exponential", 0.0, 1.0),
        ("whittle_matern", -1.0, 1.0),
        ("cauchy", 1.0, -1.0),
        ("cauchy", 2.5, 1.0),
        ("powered_erfc", 0.0, 1.0),
        ("truncated_power", -0.5, 1.0),
    ])
    def test_model_rejects_bad_parameter_at_construction(self, family, nu,
                                                         beta):
        with pytest.raises(DomainError):
            ParametricModel(dim=1, family=family, nu=nu, beta=beta)

    def test_beta_rejected_on_families_without_one(self):
        with pytest.raises(DomainError, match="powered_exponential"):
            ParametricModel(dim=1, family="powered_exponential", nu=1.0,
                            beta=-5.0)
        with pytest.raises(DomainError, match="whittle_matern"):
            parametric_tcf("whittle_matern", 0.5, 1.0, beta=math.nan)

    def test_model_tcf_is_the_family_function(self):
        model = ParametricModel(dim=2, family="cauchy", nu=0.7, beta=2.0)
        for t in (0.0, 0.3, 4.0):
            assert tcf(model, t) == parametric_tcf("cauchy", 0.7, t, beta=2.0)
        assert model == ParametricModel(dim=2, family="cauchy", nu=0.7,
                                        beta=2.0)


class TestPoweredErfcRules:
    """classify's closed-form rules for erfc(t^alpha) at the edges of the
    family's TCF range (0, 1] and CM range (0, 1/2]."""

    @pytest.mark.parametrize("alpha,br,mps", [
        (0.5, "pass", "pass"),
        (0.5001, "pass", "fail"),
        (1.0, "pass", "fail"),
        (1.0001, "fail", "fail"),
    ])
    def test_boundaries(self, alpha, br, mps):
        report = classify(powered_erfc(alpha), 1,
                          grid=np.geomspace(0.01, 20.0, 12))
        verdicts = report.verdicts
        assert verdicts["br_family_rule"].status == br
        assert verdicts["mps_family_rule"].status == mps
        bounds = parametric_bounds("powered_erfc")
        assert (br == "pass") == bounds.tcf_range.contains(alpha)
        assert (mps == "pass") == bounds.cm_range.contains(alpha)
        for name in ("br_family_rule", "mps_family_rule"):
            if verdicts[name].failed:
                assert verdicts[name].witness == alpha


class TestErfcMixtureCatalog:
    @pytest.mark.parametrize("row,param", [(1, 1.0), (1, 2.0), (3, 1.0),
                                           (3, 0.5), (4, 1.0), (4, 2.0)])
    def test_mixture_matches_closed_form(self, row, param):
        model = erfc_mixture(row, param)
        for t in [0.01, 0.1, 1.0, 5.0]:
            assert tcf(model, t) == pytest.approx(model.closed_form(t),
                                                  abs=1e-7)

    def test_row1_values(self):
        model = erfc_mixture(1, 1.0)
        assert model.closed_form(1.0) == pytest.approx(math.exp(-2.0), abs=1e-15)
        # G(s) = e^{-1/s^2}: the cdf built from the density must reproduce it.
        for s in [0.5, 1.0, 2.0]:
            assert model.mixing.cdf_value(s) == pytest.approx(
                math.exp(-1.0 / s**2), abs=1e-8)

    def test_row3_at_zero(self):
        model = erfc_mixture(3, 1.0)
        assert model.closed_form(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_row4_closed_form(self):
        model = erfc_mixture(4, 1.0)
        assert model.closed_form(1.0) == pytest.approx(
            1.0 - 1.0 / math.sqrt(2.0), abs=1e-15)

    @pytest.mark.parametrize("nu", [0.25])
    def test_row2_matches_whittle_matern(self, nu):
        # The Tricomi-U density must reproduce the Whittle-Matern closed
        # form (the acceptance suite covers more nu).
        model = erfc_mixture(2, nu)
        for t in [0.5, 2.0]:
            assert tcf(model, t, tol=1e-8) == pytest.approx(
                model.closed_form(t), abs=1e-6)

    def test_row2_density_normalizes(self):
        model = erfc_mixture(2, 0.3)
        total = quadrature(model.mixing.pdf, 0.0, math.inf, tol=1e-8)
        assert total.value == pytest.approx(1.0, abs=1e-6)

    @staticmethod
    def row2_density_by_quadrature(nu, s):
        # g(s) = C int_0^s x^(2nu-3) e^(-1/(4x^2)) (s^2 - x^2)^(-nu-1/2) dx,
        # C = sqrt(pi) / (Gamma(nu) Gamma(1/2 - nu)), over y = s - x, so
        # that the singular end is the lower one.
        def integrand(y):
            x = s - y
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                body = (x ** (2.0 * nu - 3.0) * np.exp(-0.25 / (x * x))
                        * (y * (s + x)) ** (-nu - 0.5))
            return np.where(x > 0.0, body, 0.0)

        c = math.sqrt(math.pi) / (math.gamma(nu) * math.gamma(0.5 - nu))
        return c * quadrature(integrand, 0.0, s, tol=1e-12,
                              singular_exponent_a=-nu - 0.5).value

    @pytest.mark.parametrize("s", [0.2, 0.5, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("nu", [0.1, 0.3, 0.49])
    def test_row2_density_matches_its_integral(self, nu, s):
        pdf = erfc_mixture(2, nu).mixing.pdf
        assert pdf(s) == pytest.approx(
            self.row2_density_by_quadrature(nu, s), rel=1e-8)

    @pytest.mark.parametrize("nu", [0.1, 0.3, 0.49])
    def test_row2_density_tail(self, nu):
        # g(s) ~ c s^(-1-2nu): the closed form at 1e90 and its a -> 0
        # asymptote, which takes over near 5e99, agree.
        pdf = erfc_mixture(2, nu).mixing.pdf
        near, far = (pdf(s) * s ** (1.0 + 2.0 * nu) for s in (1e90, 1e110))
        assert far == pytest.approx(near, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.1, 0.3])
    def test_row2_density_is_finite_where_s_squared_overflows(self, nu):
        # At nu = 0.49 the value, about 1e-398, is below the float range.
        value = erfc_mixture(2, nu).mixing.pdf(1e200)
        assert math.isfinite(value) and value > 0.0

    def test_row2_density_float_gets_array_bits(self):
        grid = np.array([-1.0, 0.0, 0.01, 0.05, 0.2, 1.0, 3.0, 1e8, 1e99,
                         1e101, 1e200, math.inf])
        values = assert_entrywise(erfc_mixture(2, 0.3).mixing.pdf, grid)
        assert np.all(values[:3] == 0.0) and np.all(values[3:-1] > 0.0)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            erfc_mixture(2, 0.7)
        with pytest.raises(DomainError):
            erfc_mixture(1, -1.0)
        with pytest.raises(DomainError):
            erfc_mixture(5, 1.0)

    @given(st.floats(min_value=0.2, max_value=4.0))
    @settings(deadline=None, max_examples=20)
    def test_point_mass_mixture_is_plain_erfc(self, s0):
        model = ErfcMixtureModel(dim=1, mixing=point_mass(s0))
        for t in [0.1, 1.0, 3.0]:
            assert tcf(model, t) == pytest.approx(float(erfc(s0 * t)),
                                                  abs=1e-10)


class TestModelValidation:
    def test_m2r_rejects_unnormalized_shape(self):
        bad = radial_from_callable("double", lambda u: 2.0 * math.exp(-2.0 * u))
        with pytest.raises(ModelError):
            M2rModel(dim=1, shape=bad)

    @pytest.mark.parametrize("shape, d", [
        (erfc_sqrt_shape(1), 1), (erfc_sqrt_shape(3), 3),
        (ball_indicator(1), 1), (ball_indicator(2), 2), (ball_indicator(3), 3),
    ], ids=["erfc_sqrt_1d", "erfc_sqrt_3d", "ball_1d", "ball_2d", "ball_3d"])
    def test_m2r_mass_is_the_overlap_at_zero(self, shape, d):
        # The construction check is one radial integral d kappa_d int u^(d-1)
        # f(u) du, with no Beta function; it reads the overlap at lag 0.
        assert models._mass(shape, d, 1e-9) == pytest.approx(
            overlap_integral(shape, d, 0.0, tol=1e-9).value, abs=1e-12)

    def test_m2r_rejects_a_shape_not_integrable_at_zero(self):
        spiky = radial_from_callable("spiky", lambda u: u ** -3.5,
                                     zero_exponent=-3.5)
        message = r"'spiky' is not integrable over R\^3 \(radial integrand " \
                  r"exponent -1\.5 at 0\)"
        with pytest.raises(ModelError, match=message):
            overlap_integral(spiky, 3, 0.0)
        with pytest.raises(ModelError, match=message):
            M2rModel(dim=3, shape=spiky)

    def test_m2r_rejects_increasing_shape(self):
        bad = radial_from_callable("rising", lambda u: min(u, 1.0))
        with pytest.raises(ModelError):
            M2rModel(dim=1, shape=bad)

    def test_mixing_with_mass_at_zero_rejected(self):
        with pytest.raises(ModelError):
            M3bModel(dim=1, radius=point_mass(0.0))

    def test_tent_is_not_a_valid_m2r_shape_unnormalized(self):
        # tent integrates to 1 on R only after rescaling; raw tent has mass 1
        # in d=1 exactly (2 * 1/2), so it passes; in d=2 it must fail.
        M2rModel(dim=1, shape=tent())
        with pytest.raises(ModelError):
            M2rModel(dim=2, shape=tent())

    def test_bad_dim(self):
        with pytest.raises(ModelError):
            BRModel(dim=0, variogram=fbm_variogram(1.0, 1.0))

    @pytest.mark.parametrize("model", [
        M3rModel(dim=1, ensemble=ShapeEnsemble("tent", lambda rng: tent())),
        M2rModel(dim=1, shape=tent()),
        M3bModel(dim=1, radius=point_mass(1.0)),
        MPSModel(dim=1, mixing=exponential_dist(1.0)),
        BRModel(dim=1, variogram=fbm_variogram(1.0, 1.0)),
        VBRModel(dim=1, variogram=fbm_variogram(1.0, 1.0),
                 scale_mixing=exponential_dist(2.0)),
        EGModel(dim=1, correlation=exponential_correlation()),
        EBGModel(dim=1, correlation=exponential_correlation()),
        ParametricModel(dim=1, family="powered_exponential", nu=1.0),
        erfc_mixture(4, 1.0),
    ], ids=lambda model: type(model).__name__)
    @pytest.mark.parametrize("dim", [0, 1.0, True])
    def test_every_class_checks_dim(self, model, dim):
        with pytest.raises(ModelError,
                           match=f"^dim must be an integer >= 1, got {dim!r}$"):
            dataclasses.replace(model, dim=dim)

    @pytest.mark.parametrize("build,what", [
        (lambda law: M3bModel(dim=1, radius=law), "radius law"),
        (lambda law: MPSModel(dim=1, mixing=law), "mixing law"),
        (lambda law: VBRModel(dim=1, variogram=fbm_variogram(1.0, 1.0),
                              scale_mixing=law), "scale mixing law"),
        (lambda law: ErfcMixtureModel(dim=1, mixing=law), "mixing law"),
    ], ids=["M3b", "MPS", "VBR", "ErfcMixture"])
    @pytest.mark.parametrize("law,problem", [
        (point_mass(-1.0),
         "must be supported on (0, inf), got support (-1.0, -1.0)"),
        (point_mass(0.0), "has an atom at a non-positive location"),
    ], ids=["support-below-0", "atom-at-0"])
    def test_mixing_law_checked(self, build, what, law, problem):
        with pytest.raises(ModelError) as err:
            build(law)
        assert str(err.value) == f"{what} {problem}"
