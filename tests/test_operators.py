"""Tests for the transform, turning bands, and diagnostic operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_entrywise

from tailcorr import series
from tailcorr.distributions import exponential_dist, point_mass
from tailcorr.errors import DomainError, KinkError, ModelError
from tailcorr.models import (
    BRModel,
    EGModel,
    M3bModel,
    M3rModel,
    ShapeEnsemble,
    h_d,
    tcf,
    tcf_result,
)
from tailcorr.numerics import (
    SpecialFnResult,
    _integrate,
    beta_d,
    erf_inv,
    num_derivative,
    quadrature,
)
from tailcorr.operators import (
    S_ADMISSIBLE_LIMIT,
    T_ADMISSIBLE_LIMIT,
    TransformSpec,
    TurningBandsSpec,
    apply_transform,
    c_second_deriv_at_1,
    chi_d,
    chi_d_neg_deriv_sqrt,
    chi_d_radial,
    erf_square_complement,
    erf_square_complement_deriv1,
    erf_square_complement_radial,
    gneiting_c,
    implied_br_curvature_min,
    implied_br_variogram,
    is_admissible,
    midpoint_convexity_violation,
    multiply_overlap,
    phi_d,
    phi_d_neg_deriv_sqrt,
    taylor_abs_monotone,
    transform_R,
    transform_S,
    transform_T,
    transform_bound,
    turning_bands,
)
from tailcorr.radial import (
    RadialFunction,
    ball_indicator,
    correlation_from_callable,
    radial_from_callable,
    tent,
    variogram_from_callable,
)


def turning_bands_mc(chi, spec, r, *, n_samples=100_000, seed=0):
    """Monte Carlo turning bands over random orthonormal k-frames: the
    definition-level reference for the Beta-mixture reduction.

    Samples frames as the QR orthonormalization of d x k standard Gaussian
    matrices and averages ``chi(|A^T t|)`` for a fixed probe t with
    ``|t| = r``; the error field is the standard error of the mean.
    """
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((n_samples, spec.d, spec.k))
    q, _ = np.linalg.qr(gauss)
    # |A^T e_1|^2 is the squared norm of the first row of the frame.
    b = np.sum(q[:, 0, :] ** 2, axis=1)
    vals = chi(r * np.sqrt(b))
    se = float(np.std(vals, ddof=1)) / math.sqrt(n_samples)
    return SpecialFnResult(float(np.mean(vals)), se)


def phi_d_by_quadrature(t, d):
    """The turning-bands integral ``c_d int_0^{min(1, 1/t)} (1 - t w)
    (1 - w^2)^{(d-3)/2} dw`` by adaptive quadrature (d >= 2): the reference
    for the closed form of :func:`phi_d`."""
    if t == 0.0:
        return 1.0
    c_d = 2.0 * math.exp(math.lgamma(d / 2.0) - math.lgamma((d - 1) / 2.0)) \
        / math.sqrt(math.pi)
    upper = min(1.0, 1.0 / t)
    expo = (d - 3) / 2.0

    def integrand(w, k):
        base = (1.0 - w) * (1.0 + w)
        return np.where(base > 0.0, (1.0 - t * w)
                        * np.where(base > 0.0, base, 1.0) ** expo, 0.0)

    sing_b = min(expo, 0.0) if upper == 1.0 else 0.0
    value = _integrate(integrand, 0.0, upper, 1e-12,
                       singular_exponent_b=sing_b)[0]
    return c_d * float(value[0])


def gneiting_c_by_quadrature(t, d):
    """``c(t) = t int_0^1 sqrt(w/(1-w)) (-phi_d'(1/sqrt(t w))) dw`` by
    adaptive quadrature, cut at the branch switch w = 1/t of -phi_d' (d >= 2):
    the reference for the closed form of :func:`gneiting_c`."""
    if t == 0.0:
        return 0.0

    def integrand(w, k):
        # A mapped node may round onto an end, where the weight is dropped.
        inside = (w > 0.0) & (w < 1.0)
        ww = np.where(inside, w, 0.5)
        return np.where(inside, np.sqrt(ww / (1.0 - ww))
                        * phi_d_neg_deriv_sqrt(1.0 / (t * ww), d), 0.0)

    # Near w = 0 and, left of the branch switch, near w = 1/t the integrand
    # is a smooth function of sqrt(w), resp. sqrt(1/t - w).
    ends = [0.0, 1.0 / t, 1.0] if t > 1.0 else [0.0, 1.0]
    values = _integrate(integrand, ends[:-1], ends[1:], 1e-12,
                        singular_exponent_a=-0.5, singular_exponent_b=-0.5)[0]
    return t * float(values.sum())


def one_sided_slope(fn, x, side, h=1e-4):
    """Second-order one-sided difference quotient, nudged off the kink."""
    s = 1.0 if side == "right" else -1.0
    x0 = x + s * 1e-9
    return s * (-3.0 * fn(x0) + 4.0 * fn(x0 + s * h) - fn(x0 + s * 2 * h)) / (2.0 * h)


class TestTransforms:
    def test_fixed_points(self):
        assert transform_R(1.0) == pytest.approx(1.0, abs=1e-15)
        assert transform_R(0.5) == pytest.approx(0.0, abs=1e-15)
        assert transform_R(0.0) == pytest.approx(math.cos(math.pi / math.sqrt(2.0)),
                                                 abs=1e-15)
        assert transform_S(2.7, 1.0) == 1.0
        assert transform_T(2.7, 1.0) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-1.0, 1.0), lam=st.floats(0.05, 5.0))
    def test_t_is_r_after_s(self, x, lam):
        assert transform_T(lam, x) == pytest.approx(
            transform_R(transform_S(lam, x)), abs=1e-13)

    def test_s_matches_bounded_gauss_correlation(self):
        # With lambda = 1.62 and base correlation e^{-t}, S produces the
        # extremal-Gaussian correlation 1 - 2 erf(0.45 sqrt(1 - e^{-t}))^2
        # and T the sign-correlation cos(pi erf(0.45 sqrt(1 - e^{-t}))).
        for t in (0.1, 0.7, 2.0, 6.0):
            rho = math.exp(-t)
            e = math.erf(0.45 * math.sqrt(1.0 - rho))
            assert transform_S(1.62, rho) == pytest.approx(1.0 - 2.0 * e * e,
                                                           abs=1e-14)
            assert transform_T(1.62, rho) == pytest.approx(
                math.cos(math.pi * e), abs=1e-14)

    def test_transformed_correlation_reproduces_br_tcf(self):
        # An extremal Gaussian process driven by S_lambda(rho) has the same
        # TCF as Brown-Resnick with variogram lambda (1 - rho).
        lam = 1.62
        rho_s = correlation_from_callable(
            "S(exp)", lambda t: transform_S(lam, math.exp(-t)))
        gamma = variogram_from_callable(
            "lam(1-exp)", lambda t: lam * (1.0 - math.exp(-t)))
        eg = EGModel(dim=1, correlation=rho_s)
        br = BRModel(dim=1, variogram=gamma)
        for t in (0.05, 0.4, 1.3, 4.0):
            assert tcf(eg, t) == pytest.approx(tcf(br, t), abs=1e-12)

    @pytest.mark.parametrize("map", [
        transform_R, lambda x: transform_S(1.62, x),
        lambda x: transform_T(1.62, x),
        *(lambda x, spec=TransformSpec(name, 1.62, alpha):
          apply_transform(spec, x)
          for name in ("R", "S", "T") for alpha in (0.0, 0.3))],
        ids=["R", "S", "T", "shift_R_0", "shift_R_0.3", "shift_S_0",
             "shift_S_0.3", "shift_T_0", "shift_T_0.3"])
    def test_array_matches_each_float_bit_for_bit(self, map):
        xs = np.concatenate([np.linspace(-1.0, 1.0, 400),
                             np.exp(-np.geomspace(1e-3, 1e2, 200))])
        got = map(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        floats = [map(float(x)) for x in xs]
        assert all(type(v) is float for v in floats)
        assert np.array_equal(got.view(np.int64),
                              np.array(floats).view(np.int64))
        assert map(xs.reshape(3, -1)).shape == (3, 200)

    def test_domain_guard_names_the_first_bad_entry(self):
        with pytest.raises(DomainError, match=r"\[-1, 1\], got 1\.5$"):
            transform_S(1.0, np.array([0.2, 1.5, -3.0]))
        with pytest.raises(DomainError, match=r"got nan$"):
            apply_transform(TransformSpec("R"), np.array([0.0, np.nan]))

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            transform_R(1.2)
        with pytest.raises(DomainError):
            transform_S(2.0, -1.01)
        with pytest.raises(DomainError):
            transform_S(0.0, 0.3)
        with pytest.raises(DomainError):
            transform_T(-1.0, 0.3)


class TestTransformSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            TransformSpec("Q")
        with pytest.raises(DomainError):
            TransformSpec("S", lam=-2.0)
        with pytest.raises(DomainError):
            TransformSpec("T", lam=1.0, alpha=1.5)
        TransformSpec("R", alpha=0.7)  # lambda irrelevant for R

    @pytest.mark.parametrize("map_name", ["S", "T"])
    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, map_name, lam):
        with pytest.raises(DomainError, match="lambda must be > 0 and finite"):
            TransformSpec(map_name, lam)
        with pytest.raises(DomainError, match="lambda must be > 0 and finite"):
            (transform_S if map_name == "S" else transform_T)(lam, 0.3)

    @pytest.mark.parametrize("lam,alpha", [(3.0, 0.25), (5.0, 0.6), (1.62, 0.0)])
    def test_shift_rescales_lambda_for_s_and_t(self, lam, alpha):
        # S_{lam,alpha} = S_{lam (1-alpha)} identically, and likewise for T.
        for x in (-0.8, -0.1, 0.35, 0.95):
            assert apply_transform(TransformSpec("S", lam, alpha), x) == \
                pytest.approx(transform_S(lam * (1 - alpha), x), abs=1e-15)
            assert apply_transform(TransformSpec("T", lam, alpha), x) == \
                pytest.approx(transform_T(lam * (1 - alpha), x), abs=1e-15)

    def test_shift_of_r_is_affine_composition(self):
        spec = TransformSpec("R", alpha=0.3)
        for x in (-1.0, 0.0, 0.6):
            assert apply_transform(spec, x) == pytest.approx(
                transform_R(0.7 * x + 0.3), abs=1e-15)


class TestAdmissibility:
    def test_bound_constants(self):
        assert S_ADMISSIBLE_LIMIT == pytest.approx(4.425098, abs=1e-5)
        assert T_ADMISSIBLE_LIMIT == pytest.approx(1.8197, abs=1e-4)
        # The constants are 8 erf_inv(1/sqrt 2)^2 and 8 erf_inv(1/2)^2.
        assert S_ADMISSIBLE_LIMIT == pytest.approx(
            8.0 * float(erf_inv(2.0 ** -0.5)) ** 2, abs=1e-14)
        assert T_ADMISSIBLE_LIMIT == pytest.approx(
            8.0 * float(erf_inv(0.5)) ** 2, abs=1e-14)

    def test_bound_scales_with_shift(self):
        for alpha in (0.0, 0.25, 0.8):
            assert transform_bound("S", alpha) == pytest.approx(
                S_ADMISSIBLE_LIMIT / (1.0 - alpha), rel=1e-14)
            assert transform_bound("T", alpha) == pytest.approx(
                T_ADMISSIBLE_LIMIT / (1.0 - alpha), rel=1e-14)
        assert transform_bound("S", 1.0) == math.inf

    def test_bound_rejects_r(self):
        with pytest.raises(DomainError):
            transform_bound("R", 0.0)

    def test_is_admissible(self):
        assert is_admissible(TransformSpec("R", alpha=0.5))
        assert is_admissible(TransformSpec("R", alpha=0.8))
        assert not is_admissible(TransformSpec("R", alpha=0.49))
        assert is_admissible(TransformSpec("S", lam=4.42))
        assert not is_admissible(TransformSpec("S", lam=4.43))
        assert is_admissible(TransformSpec("S", lam=8.8, alpha=0.5))
        assert is_admissible(TransformSpec("T", lam=1.81))
        assert not is_admissible(TransformSpec("T", lam=1.83))


class TestTaylor:
    @staticmethod
    def eval_series(report, x):
        return math.fsum(c * x**k for k, c in enumerate(report.coeffs))

    def test_r_at_half_shift(self):
        rep = taylor_abs_monotone("R", alpha=0.5, order=40)
        assert rep.coeff0 == pytest.approx(0.0, abs=1e-15)
        assert rep.all_nonneg_from_1
        assert min(rep.coeffs[1:]) >= 0.0

    def test_r_unshifted_has_negative_constant_only(self):
        rep = taylor_abs_monotone("R", order=40)
        assert rep.coeff0 == pytest.approx(math.cos(math.pi / math.sqrt(2.0)),
                                           abs=1e-15)
        assert rep.coeff0 < 0
        assert rep.all_nonneg_from_1

    @pytest.mark.parametrize("map,lam,alpha", [
        ("R", 1.0, 0.0), ("R", 1.0, 0.5), ("R", 1.0, 0.9),
        ("S", 1.62, 0.0), ("S", 4.4, 0.0), ("S", 6.0, 0.4),
        ("T", 1.0, 0.0), ("T", 1.8, 0.0), ("T", 3.0, 0.5),
    ])
    def test_series_evaluates_to_the_transform(self, map, lam, alpha):
        rep = taylor_abs_monotone(map, lam=lam, alpha=alpha, order=60)
        spec = TransformSpec(map, lam=lam, alpha=alpha)
        for x in np.linspace(0.0, 1.0, 11):
            assert self.eval_series(rep, float(x)) == pytest.approx(
                apply_transform(spec, float(x)), abs=1e-12)

    def test_s_constant_term_flips_at_the_limit(self):
        below = taylor_abs_monotone("S", lam=S_ADMISSIBLE_LIMIT - 1e-3, order=10)
        above = taylor_abs_monotone("S", lam=S_ADMISSIBLE_LIMIT + 1e-3, order=10)
        assert below.coeff0 > 0 > above.coeff0
        # Orders >= 1 stay nonnegative on both sides: only the constant
        # term decides admissibility.
        assert below.all_nonneg_from_1 and above.all_nonneg_from_1

    def test_t_constant_term_flips_at_the_limit(self):
        below = taylor_abs_monotone("T", lam=T_ADMISSIBLE_LIMIT - 1e-3, order=10)
        above = taylor_abs_monotone("T", lam=T_ADMISSIBLE_LIMIT + 1e-3, order=10)
        assert below.coeff0 > 0 > above.coeff0
        assert below.all_nonneg_from_1 and above.all_nonneg_from_1

    def test_shift_rescale_matches_coefficientwise(self):
        r1 = taylor_abs_monotone("S", lam=6.0, alpha=0.5, order=20)
        r2 = taylor_abs_monotone("S", lam=3.0, order=20)
        assert max(abs(a - b) for a, b in zip(r1.coeffs, r2.coeffs)) == 0.0

    def test_full_shift_is_constant_one(self):
        rep = taylor_abs_monotone("T", lam=2.0, alpha=1.0, order=5)
        assert rep.coeffs == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            taylor_abs_monotone("R", order=61)
        with pytest.raises(DomainError):
            taylor_abs_monotone("R", order=0)

    @pytest.mark.parametrize("order", [2.5, 40.0, "40", True])
    def test_non_integer_order_rejected(self, order):
        with pytest.raises(DomainError, match=f"order .*, got {order!r}"):
            taylor_abs_monotone("R", order=order)

    def test_diverging_series_rejected(self):
        # At lambda (1 - alpha) = 200 the order + 120 terms of the base
        # series no longer converge; the report would be noise.
        with pytest.raises(DomainError, match="converge"):
            taylor_abs_monotone("S", lam=200.0)
        with pytest.raises(DomainError, match="converge"):
            taylor_abs_monotone("T", lam=1000.0)

    def test_s_at_large_lambda_raises(self):
        # At lambda = 100 the recentered sums round to noise: the order-1
        # coefficient reads 2.9e-5 within a bound of 3.4e-3.  Without the
        # bound the call read all_nonneg_from_1=False, where a 90-digit
        # reference has every coefficient of orders 1..40 positive.
        with pytest.raises(DomainError, match=(
                r"sign of the order-1 coefficient of S .* at "
                r"lambda=100\.0, alpha=0\.0")):
            taylor_abs_monotone("S", 100.0)

    @pytest.mark.parametrize("lam", [1.0, 5.0, 20.0, 50.0])
    def test_s_rounding_bound_covers_a_second_route(self, lam):
        # S(x) = 1 - 2 E(x0 - x0 x), E(u) = erf(sqrt u)^2, x0 = lam / 8:
        # coefficient k is -2 (-x0)^k E_k, with E_k the Taylor coefficients
        # of E at x0 itself, from the series of erfc(sqrt u) there, which
        # do not cancel at large lambda.
        order = 40
        rep = taylor_abs_monotone("S", lam, order=order)
        assert len(rep.rounding_bound) == order + 1
        x0 = lam / 8.0
        y = series.erfc(series.shifted_power(np.array([x0]), 0.5, order),
                        series.shifted_power(np.array([x0]), 1.0, order))
        erf = series.Series(
            np.concatenate([1.0 - y.coef[:1], -y.coef[1:]]),
            y.bound + np.concatenate([[1e-16], np.zeros(order)])[:, None])
        e = series.mul(erf, erf)
        for k in range(1, order + 1):
            want = -2.0 * (-x0) ** k * float(e.coef[k, 0])
            slack = (rep.rounding_bound[k] + rep.tail_bound
                     + 2.0 * x0**k * float(e.bound[k, 0]) + 1e-15 * abs(want))
            assert abs(rep.coeffs[k] - want) <= slack
            assert rep.rounding_bound[k] < abs(rep.coeffs[k])

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    def test_r_satisfies_its_recurrence(self, alpha):
        # C(u) = cos(pi sqrt u) solves 4u C'' + 2C' + pi^2 C = 0, so the
        # coefficients of R_alpha(x) = C(s - s x), s = (1 - alpha)/2, obey
        # 4(k+2)(k+1) r_{k+2} - (4k+2)(k+1) r_{k+1} + pi^2 s r_k = 0.
        r = taylor_abs_monotone("R", alpha=alpha, order=40).coeffs
        s = (1.0 - alpha) / 2.0
        for k in range(39):
            terms = (4.0 * (k + 2) * (k + 1) * r[k + 2],
                     -(4.0 * k + 2.0) * (k + 1) * r[k + 1],
                     math.pi**2 * s * r[k])
            assert abs(math.fsum(terms)) <= 1e-12 * sum(map(abs, terms))


class TestTurningBands:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            TurningBandsSpec(3, 2)
        with pytest.raises(DomainError):
            TurningBandsSpec(0, 2)
        with pytest.raises(DomainError):
            TurningBandsSpec(1.0, 2.0)
        # NumPy integers are integers, as for h_d and a model's dim.
        assert TurningBandsSpec(np.int64(1), np.int32(3)).k == 1

    def test_k_equals_d_is_identity(self):
        chi = tent()
        for r in (0.0, 0.4, 2.0):
            assert turning_bands(chi, TurningBandsSpec(3, 3), r) == chi(r)

    def test_exponential_identity_in_dimension_3(self):
        # tb_1^3 maps (1 - t) e^{-t} to e^{-r}.
        mix = radial_from_callable("(1-t)exp(-t)",
                                   lambda t: (1.0 - t) * math.exp(-t))
        for r in np.linspace(0.0, 10.0, 21):
            got = turning_bands(mix, TurningBandsSpec(1, 3), float(r))
            assert got == pytest.approx(math.exp(-r), abs=1e-8)

    def test_tent_maps_to_phi_3(self):
        for r in (0.1, 0.5, 0.9, 1.0, 1.5, 3.0, 10.0):
            got = turning_bands(tent(), TurningBandsSpec(1, 3), r)
            want = 1.0 - r / 2.0 if r <= 1.0 else 1.0 / (2.0 * r)
            assert got == pytest.approx(want, abs=1e-10)

    def test_composition(self):
        # tb_1^2 after tb_2^3 equals tb_1^3.
        chi = radial_from_callable("exp", lambda t: math.exp(-t))
        inner = radial_from_callable(
            "tb23", lambda s: turning_bands(chi, TurningBandsSpec(2, 3), s,
                                            tol=1e-11))
        for r in (0.3, 1.0, 2.5):
            lhs = turning_bands(inner, TurningBandsSpec(1, 2), r, tol=1e-8)
            rhs = turning_bands(chi, TurningBandsSpec(1, 3), r)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    @pytest.mark.parametrize("k,d", [(1, 2), (2, 3), (2, 5)])
    def test_monte_carlo_frame_average_agrees(self, k, d):
        chi = radial_from_callable("exp", lambda t: math.exp(-t))
        r = 1.3
        mc = turning_bands_mc(chi, TurningBandsSpec(k, d), r,
                              n_samples=40_000, seed=11)
        qd = turning_bands(chi, TurningBandsSpec(k, d), r)
        assert abs(mc.value - qd) <= 3.0 * mc.abs_error_estimate

    def test_preserves_convex_decrease(self):
        chi = radial_from_callable("exp", lambda t: math.exp(-t))
        grid = np.linspace(0.0, 3.0, 61)
        vals = [turning_bands(chi, TurningBandsSpec(1, 3), float(t))
                for t in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(vals[i - 1] + vals[i + 1] - 2 * vals[i] >= -1e-9
                   for i in range(1, len(vals) - 1))

    def test_negative_lag_rejected(self):
        with pytest.raises(DomainError):
            turning_bands(tent(), TurningBandsSpec(1, 3), -0.1)
        with pytest.raises(DomainError):
            turning_bands(tent(), TurningBandsSpec(1, 3), np.array([0.5, -0.1]))

    @pytest.mark.parametrize("chi,k,d", [
        (tent(), 1, 3), (chi_d_radial(3), 1, 3), (ball_indicator(3, 1.0), 2, 3),
        (radial_from_callable("exp", lambda t: math.exp(-t)), 2, 5),
        (tent(), 3, 3)])
    def test_array_of_radii_matches_floats(self, chi, k, d):
        # One batch of integrals with per-row kink cuts, zeros included.
        spec = TurningBandsSpec(k, d)
        rs = np.concatenate([[0.0], np.linspace(0.05, 4.0, 41)])
        assert_entrywise(lambda r: turning_bands(chi, spec, r),
                         rs.reshape(2, 21))

    def test_bits_do_not_depend_on_the_batch(self):
        # A lone singular panel once had its nodes mapped by an exact
        # square and a batch of them by pow, which moved this value.
        r, spec = 1.1500000000000001, TurningBandsSpec(1, 3)
        alone = turning_bands(tent(), spec, r)
        assert turning_bands(tent(), spec, np.array([r, r])).tolist() == [
            alone, alone]


class TestPhiD:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_linear_on_unit_interval(self, d):
        for t in np.linspace(0.0, 1.0, 20):
            assert phi_d(float(t), d) == pytest.approx(
                1.0 - beta_d(d) * float(t), abs=1e-10)

    def test_dimension_one_is_tent(self):
        assert phi_d(0.3, 1) == 0.7
        assert phi_d(2.0, 1) == 0.0

    def test_closed_form_in_dimension_3(self):
        assert beta_d(3) == pytest.approx(0.5, abs=1e-15)
        assert phi_d(2.0, 3) == pytest.approx(0.25, abs=1e-12)
        for t in (1.2, 3.0, 7.5):
            assert phi_d(t, 3) == pytest.approx(1.0 / (2.0 * t), abs=1e-12)

    def test_neg_deriv_sqrt(self):
        # Constant beta_d inside the unit ball; explicit branch outside.
        assert phi_d_neg_deriv_sqrt(0.5, 3) == pytest.approx(0.5, abs=1e-15)
        assert phi_d_neg_deriv_sqrt(1.0, 3) == pytest.approx(0.5, abs=1e-15)
        assert phi_d_neg_deriv_sqrt(2.0, 3) == pytest.approx(0.25, abs=1e-15)
        assert phi_d_neg_deriv_sqrt(4.0, 2) == pytest.approx(
            beta_d(2) * (1.0 - math.sqrt(0.75)), abs=1e-15)

    def test_neg_deriv_matches_numeric(self):
        for d in (2, 4):
            for t in (0.5, 3.0):
                num = -num_derivative(lambda r: phi_d(r, d),
                                      math.sqrt(t), 1).value
                assert phi_d_neg_deriv_sqrt(t, d) == pytest.approx(num,
                                                                   abs=1e-7)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            phi_d(-0.1, 3)
        with pytest.raises(DomainError):
            phi_d(0.5, 0)
        with pytest.raises(DomainError):
            phi_d_neg_deriv_sqrt(0.0, 3)

    # t = 0, both sides of the branch switch at t = 1, and a log sweep.
    LAGS = np.concatenate([[0.0, 1.0 - 1e-3, 1.0, 1.0 + 1e-3],
                           np.geomspace(1e-3, 1e2, 200), [1e3, 1e6]])

    @pytest.mark.parametrize("d", range(2, 9))
    def test_closed_form_matches_quadrature(self, d):
        want = np.array([phi_d_by_quadrature(float(t), d) for t in self.LAGS])
        assert np.max(np.abs(phi_d(self.LAGS, d) - want)) <= 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_array_in_array_out(self, d):
        values = phi_d(self.LAGS.reshape(2, -1), d)
        assert values.shape == (2, self.LAGS.size // 2)
        assert values.ravel().tolist() == [phi_d(float(t), d)
                                           for t in self.LAGS]
        assert type(phi_d(0.5, d)) is float

    @settings(max_examples=25, deadline=None)
    @given(t=st.floats(0.0, 4.0), d=st.integers(2, 6))
    def test_decreasing_and_bounded(self, t, d):
        v = phi_d(t, d)
        assert -1e-10 <= v <= 1.0 + 1e-10
        assert phi_d(t + 0.3, d) <= v + 1e-10


class TestChiD:
    def test_values_and_support(self):
        assert chi_d(0.0, 3) == 1.0
        assert chi_d(1.0, 3) == 0.0
        assert chi_d(2.5, 3) == 0.0
        # phi_3(0.6) h_3(0.3) with both factors in closed form.
        want = 0.7 * (1.0 - 1.5 * 0.3 + 0.5 * 0.3**3)
        assert chi_d(0.3, 3) == pytest.approx(want, abs=1e-12)

    def test_neg_deriv_sqrt_closed_branches(self):
        # Expanding the product rule on the two branches of phi_3(2 sqrt t)
        # gives polynomial expressions on either side of t = 1/4.
        f = lambda t: chi_d_neg_deriv_sqrt(t, 3)
        for t in (0.05, 0.12, 0.24):
            want = 2.5 - 3.0 * math.sqrt(t) - 1.5 * t + 2.0 * t**1.5
            assert f(t) == pytest.approx(want, abs=1e-14)
        for t in (0.26, 0.5, 0.9):
            want = 1.0 / (4.0 * t) - math.sqrt(t) / 4.0
            assert f(t) == pytest.approx(want, abs=1e-14)

    def test_one_sided_slopes_at_quarter(self):
        f = lambda t: chi_d_neg_deriv_sqrt(t, 3)
        assert one_sided_slope(f, 0.25, "left") == pytest.approx(-3.0, abs=1e-4)
        assert one_sided_slope(f, 0.25, "right") == pytest.approx(-17.0 / 4.0,
                                                                  abs=1e-4)

    def test_kink_is_refused(self):
        with pytest.raises(KinkError):
            chi_d_neg_deriv_sqrt(0.25, 3)

    def test_matches_numeric_derivative_of_chi(self):
        for t in (0.09, 0.64):
            num = -num_derivative(lambda s: chi_d(s, 3), math.sqrt(t), 1,
                                  kinks=[0.5]).value
            assert chi_d_neg_deriv_sqrt(t, 3) == pytest.approx(num, abs=1e-7)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            chi_d_neg_deriv_sqrt(0.0, 3)
        with pytest.raises(DomainError):
            chi_d_neg_deriv_sqrt(1.0, 3)

    def test_negative_lag_names_the_callers_argument(self):
        with pytest.raises(DomainError, match=r"got -0\.5$"):
            chi_d(-0.5, 3)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_vanishes_at_infinity(self, d):
        assert phi_d(math.inf, d) == 0.0
        assert chi_d(math.inf, d) == 0.0

    @pytest.mark.parametrize("d", [3, 7])
    def test_nan_gives_nan(self, d):
        assert math.isnan(phi_d(math.nan, d))
        assert math.isnan(chi_d(math.nan, d))
        values = chi_d(np.array([0.3, math.nan, 1.5]), d)
        assert values[0] == chi_d(0.3, d) and values[2] == 0.0
        assert math.isnan(values[1])

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_arrays_match_floats(self, d):
        ts = np.linspace(0.01, 0.99, 40)
        assert chi_d_neg_deriv_sqrt(ts, d).tolist() == [
            chi_d_neg_deriv_sqrt(float(t), d) for t in ts]
        rs = np.linspace(0.0, 1.5, 61)
        assert chi_d(rs, d).tolist() == [chi_d(float(r), d) for r in rs]
        rad = chi_d_radial(d)
        rs = rs[(rs > 0.0) & ~rad._on_kink(rs)]
        assert rad.derivative(rs, 1).tolist() == [
            rad.derivative(float(r), 1) for r in rs]
        with pytest.raises(KinkError):
            chi_d_neg_deriv_sqrt(np.array([0.1, 0.25]), d)


class TestGneitingC:
    def test_vanishes_at_zero(self):
        assert gneiting_c(0.0, 3) == 0.0
        assert gneiting_c(1e-6, 3) < 1e-10

    # Both sides of the branch switch at t = 1 and a log sweep.
    LAGS = np.concatenate([[0.0, 1.0 - 1e-3, 1.0, 1.0 + 1e-3],
                           np.geomspace(1e-4, 50.0, 80)])

    @pytest.mark.parametrize("d", range(2, 11))
    def test_closed_form_matches_quadrature(self, d):
        want = np.array([gneiting_c_by_quadrature(float(t), d)
                         for t in self.LAGS])
        assert np.max(np.abs(gneiting_c(self.LAGS, d) - want)) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 6, 9])
    def test_array_in_array_out(self, d):
        values = gneiting_c(self.LAGS.reshape(4, -1), d)
        assert values.shape == (4, self.LAGS.size // 4)
        assert values.ravel().tolist() == [gneiting_c(float(t), d)
                                           for t in self.LAGS]
        assert type(gneiting_c(0.5, d)) is float

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_finite_and_continuous_at_one(self, d):
        # The quadrature raised QuadratureError just above t = 1, where the
        # piece (1/t, 1) of its integral shrank to a few ulps.
        at_one = gneiting_c(1.0, d)
        for k in range(5, 15):
            for t in (1.0 + 10.0**-k, 1.0 - 10.0**-k):
                value = gneiting_c(t, d)
                assert math.isfinite(value)
                # c'(t) grows only like log|t - 1| near 1 (for d = 2).
                assert abs(value - at_one) <= 100.0 * 10.0**-k

    @pytest.mark.parametrize("d", [6, 7, 8])
    def test_second_derivative_at_1_closed_form(self, d):
        closed = c_second_deriv_at_1(d)
        assert closed < 0
        numeric = num_derivative(lambda t: gneiting_c(t, d), 1.0, 2).value
        assert numeric == pytest.approx(closed, rel=1e-4)

    def test_closed_form_requires_d_at_least_6(self):
        with pytest.raises(DomainError):
            c_second_deriv_at_1(5)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_midpoint_convexity_fails_in_low_dimensions(self, d):
        grid = np.linspace(0.2, 3.0, 57)
        violation, where = midpoint_convexity_violation(
            lambda t: gneiting_c(t, d) / beta_d(d), grid)
        assert violation > 1e-5
        assert 0.5 < where < 2.0

    def test_midpoint_helper_on_convex_function(self):
        violation, _ = midpoint_convexity_violation(
            lambda t: t * t, np.linspace(0.0, 2.0, 11))
        assert violation <= 0.0

    def test_midpoint_helper_evaluates_each_point_once(self):
        # An array function is called on the whole grid, then on the whole
        # set of midpoints.
        seen = []

        def f(t):
            seen.append(np.asarray(t))
            return np.abs(t - 1.05)

        grid = np.linspace(0.0, 2.0, 11)
        violation, _ = midpoint_convexity_violation(f, grid[::-1])
        assert [a.shape for a in seen] == [(11,), (10,)]
        points = np.concatenate([a.ravel() for a in seen]).tolist()
        assert len(points) == len(set(points)) == 2 * len(grid) - 1
        assert violation <= 1e-15

    def test_midpoint_helper_evaluates_scalar_function_once_per_point(self):
        # A function of one float is called float by float, once per point.
        seen = []

        def f(t):
            value = math.fabs(t - 1.05)
            seen.append(t)
            return value

        grid = np.linspace(0.0, 2.0, 11)
        violation, _ = midpoint_convexity_violation(f, grid[::-1])
        assert all(type(t) is float for t in seen)
        assert len(seen) == len(set(seen)) == 2 * len(grid) - 1
        assert violation <= 1e-15

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            gneiting_c(0.5, 1)
        with pytest.raises(DomainError):
            gneiting_c(-0.5, 3)
        with pytest.raises(DomainError):
            midpoint_convexity_violation(lambda t: t, [1.0])


class TestImpliedBrVariogram:
    def test_starts_at_zero_and_increases(self):
        assert implied_br_variogram(0.0) == 0.0
        xs = np.geomspace(1e-4, 10.0, 40)
        vals = [implied_br_variogram(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_matches_direct_formula(self):
        from scipy.special import erfcinv as sp_erfcinv
        from scipy.special import erfc as sp_erfc
        for r in (0.01, 0.3, 1.0, 5.0):
            mix = 0.25 * sp_erfc(math.sqrt(r)) + 0.75 * sp_erfc(5 * math.sqrt(r))
            assert implied_br_variogram(r) == pytest.approx(
                float(sp_erfcinv(mix)) ** 2, rel=1e-12)

    def test_arrays_match_floats(self):
        # Squared as a product: libm's pow(x, 2) rounds some floats
        # differently from NumPy's square of an array (at r = 5, for one).
        rs = np.concatenate([[0.0, 5.0], np.geomspace(1e-4, 10.0, 400),
                             np.linspace(4.99, 5.01, 201)])
        assert implied_br_variogram(rs).tolist() == [
            implied_br_variogram(float(r)) for r in rs]

    def test_curvature_has_interior_local_minimum(self):
        r_min, v_min = implied_br_curvature_min()
        assert 1e-4 < r_min < 10.0
        assert v_min < -100.0

        def psi2(x):
            return num_derivative(implied_br_variogram, x, 2,
                                  h=x / 20.0, levels=4).value

        assert psi2(r_min * 0.5) > v_min
        assert psi2(r_min * 2.0) > v_min

    def test_curvature_minimum_bits(self):
        # The golden-section steps take num_derivative's float route, which
        # gives the bits of the same entry of an array.
        r_min, v_min = implied_br_curvature_min()
        assert (r_min.hex(), v_min.hex()) == ("0x1.9170505c8849cp-7",
                                              "-0x1.493e98e20b370p+7")


class TestErfSquareComplement:
    def test_values_and_decay(self):
        assert erf_square_complement(0.0) == 1.0
        assert erf_square_complement(36.0) < 1e-15
        vals = [erf_square_complement(x) for x in np.linspace(0.0, 5.0, 30)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_derivative_closed_form(self):
        assert erf_square_complement_deriv1(0.0) == pytest.approx(
            -4.0 / math.pi, abs=1e-15)
        for x in (0.2, 0.7, 2.5):
            num = num_derivative(erf_square_complement, x, 1).value
            assert erf_square_complement_deriv1(x) == pytest.approx(num,
                                                                    rel=1e-9)

    def test_derivative_signs_alternate_to_order_6(self):
        for x in np.geomspace(0.2, 8.0, 8):
            for k in range(1, 7):
                res = num_derivative(erf_square_complement, float(x), k,
                                     h=float(x) / 20.0, levels=3)
                confident = abs(res.value) > 3.0 * res.abs_error_estimate
                if confident:
                    assert res.value * (-1.0) ** k > 0.0, (x, k, res)

    def test_radial_wrapper(self):
        rad = erf_square_complement_radial()
        assert rad(0.7) == erf_square_complement(0.7)

    def test_arrays_match_floats(self):
        xs = np.array([0.0, 0.2, 0.7, 2.5])
        for f in (erf_square_complement, erf_square_complement_deriv1):
            assert f(xs).tolist() == [f(float(x)) for x in xs]
            assert type(f(0.7)) is float

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            erf_square_complement(-0.5)


class TestOverlap:
    """Overlap factors are model TCFs: a random ball is an M3b model, a
    random normalized profile an M3r model."""

    def test_ball_mode_with_fixed_radius_half_is_hd(self):
        model = M3bModel(dim=3, radius=point_mass(0.5))
        for t in (0.2, 0.6, 0.9):
            res = tcf_result(model, t)
            assert res.value == pytest.approx(h_d(t, 3), abs=1e-9)

    def test_ensemble_mode_fixed_ball_matches_hd(self):
        model = M3rModel(3, ShapeEnsemble(
            "ball(0.5)", lambda rng: ball_indicator(3, 0.5)), n_samples=4,
            seed=3)
        res = tcf_result(model, 0.4)
        assert res.value == pytest.approx(h_d(0.4, 3), abs=1e-8)

    @staticmethod
    def random_ball(n_samples, seed):
        def sampler(rng):
            return ball_indicator(3, float(rng.uniform(0.3, 1.0)))

        return M3rModel(3, ShapeEnsemble("ball(U(0.3, 1))", sampler),
                        n_samples=n_samples, seed=seed)

    def test_ensemble_mode_random_radius_against_quadrature(self):
        mc = tcf_result(self.random_ball(400, seed=5), 0.5)
        oracle = quadrature(lambda r: h_d(0.5 / (2 * r), 3) / 0.7, 0.3, 1.0,
                            tol=1e-12)
        assert abs(mc.value - oracle.value) <= 4.0 * mc.abs_error_estimate

    def test_ensemble_mode_is_seed_deterministic(self):
        model = self.random_ball(50, seed=9)
        a = tcf_result(model, 0.5)
        b = tcf_result(model, 0.5)
        assert a.value == b.value

    def test_multiply_is_the_product(self):
        chi = radial_from_callable("exp", lambda t: math.exp(-t))
        model = M3bModel(dim=3, radius=point_mass(0.5))
        res = multiply_overlap(chi, model, 0.4)
        assert res.value == pytest.approx(h_d(0.4, 3) * math.exp(-0.4),
                                          abs=1e-9)
        lags = np.array([[0.0, 0.4, 0.9], [1.3, 0.1, 2.0]])
        values, _ = assert_entrywise(
            lambda t: multiply_overlap(chi, model, t), lags)
        np.testing.assert_allclose(values, h_d(lags, 3) * np.exp(-lags),
                                   rtol=0.0, atol=1e-9)

    def test_product_preserves_convex_decrease_in_1d(self):
        # Multiplying a convex decreasing TCF by a ball overlap factor
        # keeps it convex and decreasing (hence a valid 1-D TCF).
        chi = radial_from_callable("exp", lambda t: math.exp(-t))
        model = M3bModel(dim=1, radius=exponential_dist(1.0))
        grid = np.linspace(0.0, 3.0, 61)
        vals = [multiply_overlap(chi, model, float(t)).value for t in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(vals[i - 1] + vals[i + 1] - 2 * vals[i] >= -1e-9
                   for i in range(1, len(vals) - 1))

    def test_guards(self):
        chi = radial_from_callable("exp", lambda t: math.exp(-t))
        with pytest.raises(DomainError):
            multiply_overlap(chi, M3bModel(dim=3, radius=point_mass(0.5)),
                             -0.1)
        with pytest.raises(ModelError):
            multiply_overlap(chi, object(), 0.5)