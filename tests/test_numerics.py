"""Tests for the shared numerical layer: special functions, quadrature,
numerical differentiation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tailcorr import (
    DomainError,
    KinkError,
    QuadratureError,
    bessel_k,
    erf,
    erf_inv,
    erfc,
    erfc_inv,
    num_derivative,
    quadrature,
)
from tailcorr.distributions import Distribution1D
from tailcorr.errors import ModelError
from tailcorr.membership import (
    classify,
    spectral_density,
    test_completely_monotone,
    test_positive_definite,
)
from tailcorr.models import (
    M3bModel,
    M3rModel,
    ShapeEnsemble,
    erfc_mixture,
    h_d,
    laplace_factor,
    overlap_integral,
    parametric_bounds,
    tcf,
)
from tailcorr.numerics import (
    _QUAD_LIMIT,
    _integer,
    _integrate,
    _richardson,
    _worst_midpoint_gap,
    beta_d,
    kappa_d,
)
from tailcorr.operators import (
    TurningBandsSpec,
    c_second_deriv_at_1,
    chi_d_radial,
    gneiting_c,
    midpoint_convexity_violation,
    phi_d,
    phi_d_neg_deriv_sqrt,
    phi_d_radial,
)
from tailcorr.presets import (
    erfc_sqrt_diameter_density,
    erfc_sqrt_radius_law,
    erfc_sqrt_shape,
)
from tailcorr.radial import ball_indicator, erfc_sqrt, truncated_power
from tailcorr.recovery import H_from_f, RecoveryInput, f_from_H


class TestErfFamily:
    def test_erfc_at_zero(self):
        assert erfc(0.0) == 1.0

    def test_erf_erfc_complement(self):
        x = np.linspace(-6, 6, 101)
        assert np.allclose(erf(x) + erfc(x), 1.0, atol=1e-15)

    def test_erfc_decreasing(self):
        # Strict decrease on the range where double precision resolves it
        # (erfc saturates to exactly 2.0 below about -6).
        x = np.linspace(-5, 5, 400)
        assert np.all(np.diff(erfc(x)) < 0)

    def test_erfc_reflection(self):
        x = np.linspace(0, 5, 80)
        assert np.max(np.abs(erfc(-x) - (2.0 - erfc(x)))) <= 1e-13

    def test_transform_bound_constant_s(self):
        # 8·(erf_inv(1/√2))² is the admissibility threshold of the S-map.
        assert 8.0 * erf_inv(1.0 / math.sqrt(2.0)) ** 2 == pytest.approx(
            4.425098, abs=1e-5
        )

    def test_transform_bound_constant_t(self):
        # 8·(erf_inv(1/2))² is the admissibility threshold of the T-map.
        assert 8.0 * erf_inv(0.5) ** 2 == pytest.approx(1.8197, abs=1e-4)

    @given(st.floats(min_value=-0.999, max_value=0.999))
    def test_erf_inv_roundtrip(self, p):
        assert erf(erf_inv(p)) == pytest.approx(p, rel=1e-12, abs=1e-300)

    @given(st.floats(min_value=1e-8, max_value=1.999))
    def test_erfc_inv_roundtrip(self, p):
        assert erfc(erfc_inv(p)) == pytest.approx(p, rel=1e-10)

    def test_erfc_inv_extreme_argument_stays_finite(self):
        # Arguments below ~1e-308 are subnormal; the result must still be
        # finite and monotone there.
        vals = [erfc_inv(p) for p in (1e-300, 1e-310, 1e-320)]
        assert all(math.isfinite(v) for v in vals)
        assert vals[0] < vals[1] < vals[2]

    def test_erfc_inv_matches_erfc_at_extreme(self):
        x = 27.0  # erfc(27) ~ 1e-318, deep in the subnormal range
        p = float(np.exp(-x * x)) / (x * math.sqrt(math.pi))  # asymptotic erfc
        assert erfc_inv(p) == pytest.approx(x, rel=1e-3)

    def test_erfc_inv_finite_at_the_smallest_subnormal(self):
        # SciPy's erfcinv overflows only at 5e-324; the round trip is not
        # testable there because erfc underflows to 0.
        smallest = erfc_inv(5e-324)
        assert math.isfinite(smallest)
        assert smallest > erfc_inv(1e-323)
        assert np.array_equal(erfc_inv(np.array([5e-324, 1e-323])),
                              [smallest, erfc_inv(1e-323)])

    @pytest.mark.parametrize("p", [-1.0, 1.0, 1.5, -2.0])
    def test_erf_inv_domain(self, p):
        with pytest.raises(DomainError):
            erf_inv(p)

    @pytest.mark.parametrize("p", [0.0, 2.0, -0.5, 2.5])
    def test_erfc_inv_domain(self, p):
        with pytest.raises(DomainError):
            erfc_inv(p)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            erf(float("nan"))

    def test_vector_arguments(self):
        out = erfc(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == 1.0


class TestBesselK:
    def test_half_order_closed_form(self):
        assert bessel_k(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12
        )

    @pytest.mark.parametrize("nu", [0.3, 0.5, 1.0, 1.7])
    @pytest.mark.parametrize("x", [0.2, 1.0, 3.5])
    def test_against_integral_representation(self, nu, x):
        # K_nu(x) = ∫_0^∞ e^{-x cosh u} cosh(nu u) du — independent route.
        def integrand(u):
            a = x * math.cosh(min(u, 710.0))
            if a > 745.0:  # product underflows to zero for nu < 2
                return 0.0
            return math.exp(-a) * math.cosh(nu * u)

        ref = quadrature(integrand, 0.0, math.inf, tol=1e-13)
        assert bessel_k(nu, x) == pytest.approx(ref.value, rel=1e-10)

    @pytest.mark.parametrize("nu", [0.3, 0.8, 1.5])
    def test_whittle_matern_normalization_at_origin(self, nu):
        t = 1e-10
        wm = 2.0 ** (1.0 - nu) / math.gamma(nu) * t**nu * bessel_k(nu, t)
        assert wm == pytest.approx(1.0, abs=1e-5)

    def test_whittle_matern_half_is_exponential(self):
        t = np.linspace(0.1, 5, 25)
        wm = 2.0**0.5 / math.gamma(0.5) * t**0.5 * bessel_k(0.5, t)
        assert np.allclose(wm, np.exp(-t), rtol=1e-12)

    @pytest.mark.parametrize("nu,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain(self, nu, x):
        with pytest.raises(DomainError):
            bessel_k(nu, x)


class TestQuadrature:
    def test_constant(self):
        assert quadrature(lambda v: 1.0, 0.0, 1.0).value == pytest.approx(1.0, abs=1e-12)

    def test_exponential_tail(self):
        assert quadrature(lambda s: math.exp(-s), 0.0, math.inf).value == pytest.approx(
            1.0, abs=1e-10
        )

    def test_dagum_mixture_identity(self):
        # ∫_0^∞ erfc(s) dG(s) with G(s)=1-e^{-s²} equals 1 - 1/√2.
        res = quadrature(
            lambda s: erfc(s) * 2.0 * s * math.exp(-s * s), 0.0, math.inf, tol=1e-12
        )
        assert res.value == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-8)

    def test_inverse_sqrt_singularity_left(self):
        res = quadrature(
            lambda v: 1.0 / math.sqrt(v), 0.0, 1.0, singular_exponent_a=-0.5
        )
        assert res.value == pytest.approx(2.0, abs=1e-8)

    def test_inverse_sqrt_singularity_right(self):
        res = quadrature(
            lambda v: 1.0 / math.sqrt(1.0 - v), 0.0, 1.0, singular_exponent_b=-0.5
        )
        assert res.value == pytest.approx(2.0, abs=1e-8)

    def test_both_endpoints_singular(self):
        res = quadrature(
            lambda v: 1.0 / math.sqrt(v * (1.0 - v)),
            0.0,
            1.0,
            singular_exponent_a=-0.5,
            singular_exponent_b=-0.5,
        )
        assert res.value == pytest.approx(math.pi, abs=1e-8)

    def test_singular_and_infinite(self):
        # ∫_0^∞ e^{-v}/√v dv = Γ(1/2) = √π.
        res = quadrature(
            lambda v: math.exp(-v) / math.sqrt(v),
            0.0,
            math.inf,
            singular_exponent_a=-0.5,
        )
        assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-8)

    def test_interior_kink_hint(self):
        res = quadrature(lambda v: abs(v - 0.5), 0.0, 1.0, points=[0.5])
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_kink_hint_on_infinite_interval(self):
        res = quadrature(
            lambda v: max(0.0, 1.0 - v) + math.exp(-v), 0.0, math.inf, points=[1.0]
        )
        assert res.value == pytest.approx(1.5, abs=1e-9)

    def test_error_estimate_reported(self):
        res = quadrature(lambda v: math.sin(v), 0.0, math.pi)
        assert res.value == pytest.approx(2.0, abs=1e-10)
        assert 0.0 <= res.abs_error_estimate < 1e-6

    def test_empty_interval(self):
        res = quadrature(lambda v: 1.0, 2.0, 2.0)
        assert res.value == 0.0

    def test_reversed_limits_rejected(self):
        with pytest.raises(DomainError):
            quadrature(lambda v: 1.0, 1.0, 0.0)

    def test_nonconvergence_is_loud(self):
        # Undeclared non-integrable endpoint singularity must raise, not
        # silently return garbage.
        with pytest.raises(QuadratureError):
            quadrature(lambda v: 1.0 / v, 0.0, 1.0, tol=1e-10)

    @given(st.floats(min_value=0.1, max_value=0.9))
    @settings(deadline=None)
    def test_additivity(self, c):
        f = lambda v: math.exp(-v) * math.cos(3.0 * v)  # noqa: E731
        whole = quadrature(f, 0.0, 1.0, tol=1e-11).value
        split = (
            quadrature(f, 0.0, c, tol=1e-11).value
            + quadrature(f, c, 1.0, tol=1e-11).value
        )
        assert abs(whole - split) <= 2e-11


class TestBatchedQuadrature:
    """The batched Gauss-Kronrod engine against SciPy's QUADPACK, one batch
    per integrand family, and its error estimates against closed forms."""

    @staticmethod
    def counted(f):
        calls = [0]

        def wrapped(x, k):
            calls[0] += 1
            return f(x, k)

        return wrapped, calls

    @staticmethod
    def agree(values, reference, tol):
        for got, want in zip(values, reference):
            assert abs(got - want) <= 10.0 * tol * max(1.0, abs(want))

    def test_smooth_family(self):
        freq = np.linspace(0.5, 12.0, 40)
        upper = np.linspace(0.5, 6.0, 40)
        f, calls = self.counted(lambda x, k: np.exp(-x) * np.cos(freq[k] * x))
        values, errors = _integrate(f, 0.0, upper, 1e-11)
        self.agree(values, [quad(lambda x, w=w: math.exp(-x) * math.cos(w * x),
                                 0.0, b, epsabs=1e-13, epsrel=1e-13)[0]
                            for w, b in zip(freq, upper)], 1e-11)
        assert calls[0] <= 8  # one call per pass for all 40 integrals

    def test_declared_singular_family(self):
        alpha = np.linspace(-0.9, -0.1, 17)
        values, _ = _integrate(lambda x, k: x ** alpha[k] * np.exp(-x),
                               0.0, 2.0, 1e-11, singular_exponent_a=alpha)
        self.agree(values, [quad(lambda x, a=a: x ** a * math.exp(-x), 0.0, 2.0,
                                 epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                            for a in alpha], 1e-11)
        # The integrand recomputes 1 - x from x = 1 - y^p, which cancels
        # once p = 1/(1 + beta) is large; QUADPACK behind the same change
        # loses accuracy from beta = -0.6 on.
        beta = np.linspace(-0.5, -0.1, 5)
        values, _ = _integrate(lambda x, k: (1.0 - x) ** beta[k] * np.cos(x),
                               0.0, 1.0, 1e-11, singular_exponent_b=beta)
        self.agree(values, [quad(lambda x, b=b: (1.0 - x) ** b * math.cos(x),
                                 0.0, 1.0, epsabs=1e-13, epsrel=1e-13,
                                 limit=200)[0] for b in beta], 1e-11)

    def test_infinite_family(self):
        scale = np.geomspace(0.05, 20.0, 25)
        lower = np.linspace(0.0, 3.0, 25)
        values, _ = _integrate(lambda x, k: 1.0 / (1.0 + (x / scale[k]) ** 3),
                               lower, math.inf, 1e-11)
        self.agree(values, [quad(lambda x, c=c: 1.0 / (1.0 + (x / c) ** 3), a,
                                 math.inf, epsabs=1e-13, epsrel=1e-13)[0]
                            for c, a in zip(scale, lower)], 1e-11)

    def test_kinked_family_with_hints_per_integral(self):
        kink = np.linspace(0.05, 0.95, 19)
        values, _ = _integrate(lambda x, k: np.abs(x - kink[k]) * np.exp(x),
                               0.0, 1.0, 1e-12, points=kink[:, None])
        self.agree(values, [quad(lambda x, c=c: abs(x - c) * math.exp(x), 0.0,
                                 1.0, points=[c], epsabs=1e-13,
                                 epsrel=1e-13)[0] for c in kink], 1e-12)

    @given(st.floats(0.1, 5.0), st.floats(-0.7, 0.0), st.floats(0.2, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_quadpack(self, rate, alpha, upper):
        def f(x):
            return x ** alpha * math.exp(-rate * x) * (1.0 + math.sin(3.0 * x))

        got = quadrature(f, 0.0, upper, tol=1e-11, singular_exponent_a=alpha)
        want = quad(f, 0.0, upper, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert abs(got.value - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("f,a,b,kwargs,exact", [
        (lambda x: math.exp(-x), 0.0, math.inf, {}, 1.0),
        (lambda x: x ** -0.5, 0.0, 4.0, {"singular_exponent_a": -0.5}, 4.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, {}, math.pi / 2.0),
        (lambda x: abs(x - 0.3), 0.0, 1.0, {"points": [0.3]}, 0.29),
        (lambda x: math.sin(x) ** 2, 0.0, 20.0, {},
         10.0 - math.sin(40.0) / 4.0),
        (lambda x: math.log(x), 0.0, 1.0, {}, -1.0),
    ])
    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_error_estimate_covers_the_true_error(self, f, a, b, kwargs,
                                                  exact, tol):
        res = quadrature(f, a, b, tol=tol, **kwargs)
        assert abs(res.value - exact) <= res.abs_error_estimate + 4e-16
        assert res.abs_error_estimate <= tol * max(1.0, abs(exact))

    def test_failure_names_the_interval(self):
        with pytest.raises(QuadratureError, match=r"on \(0\.0, 1\.0\)"):
            _integrate(lambda x, k: 1.0 / x + 0.0 * k, 0.0, [1.0, 2.0],
                       1e-10)

    def test_panel_budget(self):
        f, calls = self.counted(lambda x, k: 1.0 / x)
        with pytest.raises(QuadratureError):
            _integrate(f, 0.0, 1.0, 1e-10)
        # One bisection per pass until the budget is spent.
        assert calls[0] == _QUAD_LIMIT

    def test_batch_equals_one_at_a_time(self):
        rate = np.array([0.3, 1.0, 4.0])
        batch = _integrate(lambda x, k: np.exp(-rate[k] * x), np.zeros(3),
                           math.inf, 1e-12)
        for i, r in enumerate(rate):
            alone = _integrate(lambda x, k: np.exp(-r * x), 0.0, math.inf,
                               1e-12)
            assert (batch[0][i], batch[1][i]) == (alone[0][0], alone[1][0])


class TestNumDerivative:
    @pytest.mark.parametrize(
        "order,expected",
        [(1, lambda x: 3 * x * x - 4 * x), (2, lambda x: 6 * x - 4), (3, lambda x: 6.0)],
    )
    @pytest.mark.parametrize("x", [-1.3, 0.2, 2.0])
    def test_cubic_polynomial_exact(self, order, expected, x):
        f = lambda t: t**3 - 2 * t**2 + 0.5  # noqa: E731
        res = num_derivative(f, x, order)
        assert res.value == pytest.approx(expected(x), abs=1e-8)

    def test_quadratic_second_derivative(self):
        res = num_derivative(lambda t: t * t, 1.7, 2)
        assert res.value == pytest.approx(2.0, abs=1e-6)

    def test_erfc_sqrt_second_derivative(self):
        # χ(t)=erfc(√t) has χ″(s)=e^{-s}(2s+1)/(2√π s^{3/2}); at s=1 this is
        # 3/(2√π e).
        res = num_derivative(lambda t: erfc(math.sqrt(t)), 1.0, 2)
        exact = 3.0 / (2.0 * math.sqrt(math.pi) * math.e)
        assert res.value == pytest.approx(exact, abs=1e-6)

    def test_error_estimate_covers_truth(self):
        res = num_derivative(lambda t: math.exp(-t), 0.7, 2)
        true = math.exp(-0.7)
        assert abs(res.value - true) <= max(10.0 * res.abs_error_estimate, 1e-8)

    def test_kink_refusal_at_kink(self):
        with pytest.raises(KinkError):
            num_derivative(lambda t: abs(t - 1.0), 1.0, 1, kinks=[1.0])

    def test_kink_refusal_near_kink(self):
        with pytest.raises(KinkError):
            num_derivative(lambda t: abs(t - 1.0), 1.0 + 1e-12, 1, kinks=[1.0])

    def test_far_from_kink_ok(self):
        res = num_derivative(lambda t: abs(t - 1.0), 3.0, 1, h=0.25, kinks=[1.0])
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_bad_order(self):
        with pytest.raises(DomainError):
            num_derivative(lambda t: t, 0.0, 9)

    @pytest.mark.parametrize("order", [4, 5, 6, 7, 8])
    def test_high_orders_exponential(self, order):
        # Every derivative of exp(-t) at t0 is (-1)^k exp(-t0).
        res = num_derivative(lambda t: math.exp(-t), 0.4, order)
        true = (-1.0) ** order * math.exp(-0.4)
        assert res.value == pytest.approx(true, abs=max(1e-4, 5 * res.abs_error_estimate))
        assert abs(res.value - true) <= max(10.0 * res.abs_error_estimate, 1e-5)

    @pytest.mark.parametrize("levels", [None, 4])
    @pytest.mark.parametrize("step", ["default", "scalar", "per-entry"])
    @pytest.mark.parametrize("shape", [(25,), (2, 3)])
    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8])
    def test_batch_matches_one_at_a_time(self, order, shape, step, levels):
        # One call of f for the whole ladder of every abscissa; a kink
        # inside the ladder reach shrinks the ladder top of nearby points.
        calls = [0]

        def f(x):
            calls[0] += 1
            return 1.0 / (1.0 + x * x)

        xs = np.linspace(0.3, 3.0, math.prod(shape)).reshape(shape)
        h = {"default": None, "scalar": 0.01, "per-entry": xs / 40.0}[step]
        ladder = {} if levels is None else {"levels": levels}
        values, errors = num_derivative(f, xs, order, h, kinks=(3.6,),
                                        **ladder)
        assert calls[0] == 1
        assert values.shape == errors.shape == xs.shape
        steps = np.broadcast_to(np.asarray(h, dtype=object), xs.shape)
        for x, hx, value, error in zip(xs.ravel(), steps.ravel(),
                                       values.ravel(), errors.ravel()):
            res = num_derivative(f, float(x), order, hx, kinks=(3.6,),
                                 **ladder)
            assert (value, error) == (res.value, res.abs_error_estimate)

    def test_one_element_array_gets_the_array_form(self):
        values, errors = num_derivative(np.exp, np.array([0.5]), 1)
        assert values.shape == errors.shape == (1,)
        assert values[0] == num_derivative(np.exp, 0.5, 1).value

    def test_array_near_kink_names_the_first_offending_entry(self):
        xs = np.array([[0.5, 1.004, 2.0], [0.997, 3.0, 4.0]])
        with pytest.raises(KinkError, match=r"x=1\.004 ") as err:
            num_derivative(lambda t: np.abs(t - 1.0), xs, 1, h=0.01,
                           kinks=[1.0])
        assert (err.value.x, err.value.kink) == (1.004, 1.0)

    def test_bad_step(self):
        with pytest.raises(DomainError):
            num_derivative(lambda t: t, 0.0, 1, h=-0.1)


def ridders_pick(stencil, con, rungs):
    """Ridders' selection on one ladder as a scalar loop, after Numerical
    Recipes (3rd ed., section 5.7): the table a[i][j] over the first
    ``rungs`` stencil values, the entry of smallest error estimate (a later
    one wins a tie, NaN never wins; the first value with an infinite error
    if none does), and a stop once the new diagonal moved by twice the
    best error, checked from the third rung on."""
    a = [[math.nan] * rungs for _ in range(rungs)]
    a[0][0] = best = stencil[0]
    err = math.inf
    con2 = con * con
    for i in range(1, rungs):
        a[i][0] = stencil[i]
        fac = con2
        for j in range(1, i + 1):
            a[i][j] = (a[i][j - 1] * fac - a[i - 1][j - 1]) / (fac - 1.0)
            fac = fac * con2
            gaps = (abs(a[i][j] - a[i][j - 1]), abs(a[i][j] - a[i - 1][j - 1]))
            errt = math.nan if math.isnan(sum(gaps)) else max(gaps)
            if errt <= err:
                err, best = errt, a[i][j]
        if i > 1 and abs(a[i][i] - a[i - 1][i - 1]) >= 2.0 * err:
            break
    return best, err


class TestRichardson:
    """``_richardson`` on whole batches of ladders against the scalar loop,
    bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    def test_matches_the_scalar_loop(self, depth, seed):
        rng = np.random.default_rng(100 * depth + seed)
        n = 60
        con = rng.uniform(1.2, 3.0, n)
        rungs = rng.integers(1, depth + 1, n)
        rungs[0] = depth
        # Ladders that converge like h^2 with noise, and plain noise, with
        # NaN and inf entries.
        steps = con[:, None] ** -np.arange(depth)
        stencil = np.where(rng.random((n, 1)) < 0.7,
                           1.0 + rng.normal(size=(n, 1)) * steps ** 2
                           + rng.normal(scale=1e-6, size=(n, depth)),
                           rng.normal(size=(n, depth)))
        holes = rng.random((n, depth))
        stencil[holes < 0.04] = math.nan
        stencil[(holes >= 0.04) & (holes < 0.08)] = math.inf
        stencil[(holes >= 0.08) & (holes < 0.1)] = -math.inf
        with np.errstate(invalid="ignore"):
            values, errors = _richardson(stencil, con, rungs.astype(float))
        for k in range(n):
            want = ridders_pick(stencil[k].tolist(), float(con[k]),
                                int(rungs[k]))
            assert (values[k].hex(), errors[k].hex()) == tuple(
                float(w).hex() for w in want)


class TestWorstMidpointGap:
    """The convexity scan behind the membership batteries and
    ``midpoint_convexity_violation``: two array calls of ``f``."""

    XS = [0.0, 1.0, 2.0, 3.0]

    @given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=30,
                    unique=True))
    @settings(max_examples=50, deadline=None)
    def test_matches_the_scalar_loop(self, points):
        xs = sorted(points)

        def f(x):
            # Nonconvex, with a NaN band; plain arithmetic rounds the same
            # on floats and arrays.
            return np.where((x > 4.0) & (x < 4.5), np.nan,
                            x * (x - 3.0) * (x - 7.0))

        worst = (-math.inf, xs[0], xs[0], xs[0])
        for a, b in zip(xs, xs[1:]):
            mid = 0.5 * (a + b)
            gap = float(f(mid) - 0.5 * (f(a) + f(b)))
            if gap > worst[0]:
                worst = (gap, a, mid, b)
        assert _worst_midpoint_gap(f, xs) == worst

    def test_first_of_equal_gaps_wins(self):
        # Every gap of x^2 on a unit grid is -1/4.
        assert _worst_midpoint_gap(np.square, self.XS) == (-0.25, 0.0, 0.5,
                                                           1.0)

    def test_nan_gaps_are_skipped(self):
        def f(x):
            return np.where(x == 0.5, np.nan, np.square(x))

        gap, a, mid, b = _worst_midpoint_gap(f, self.XS)
        assert (gap, a, mid, b) == (-0.25, 1.0, 1.5, 2.0)
        assert all(type(v) is float for v in (gap, a, mid, b))

    def test_no_comparable_gap(self):
        def f(x):
            return np.full_like(x, np.nan)

        assert _worst_midpoint_gap(f, self.XS) == (-math.inf, 0.0, 0.0, 0.0)
        assert _worst_midpoint_gap(np.square, [2.0]) == (-math.inf, 2.0, 2.0,
                                                         2.0)


class TestArrayCallable:
    """``num_derivative``, ``quadrature``, ``Distribution1D.expect`` and
    ``midpoint_convexity_violation`` call ``f`` on the whole ladder, panel
    set or grid when it takes arrays, and float by float otherwise."""

    ENTRY_POINTS = ["num_derivative", "quadrature", "expect", "midpoint"]

    @staticmethod
    def run(entry, f, pdf=lambda x: np.exp(-x)):
        if entry == "num_derivative":
            return num_derivative(f, 0.7, 2).value
        if entry == "quadrature":
            return quadrature(f, 0.0, 2.0).value
        if entry == "expect":
            law = Distribution1D(name="exp(1)", pdf=pdf)
            return law.expect(f).value
        return midpoint_convexity_violation(f, np.linspace(0.1, 2.0, 9))[0]

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_scalar_only_callable_goes_float_by_float(self, entry):
        seen = []

        def f(x):
            value = math.exp(-x * x)  # a TypeError on an array
            seen.append(x)
            return value

        got = self.run(entry, f)
        assert seen and all(type(x) is float for x in seen)
        assert got == pytest.approx(self.run(entry, lambda x: np.exp(-x * x)),
                                    rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("entry,calls", [
        ("num_derivative", 1), ("quadrature", 1), ("midpoint", 2)])
    def test_array_callable_gets_one_call_per_ladder_or_grid(self, entry,
                                                             calls):
        # x^2 is integrated exactly by the first pass of G10/K21.
        shapes = []

        def f(x):
            shapes.append(np.shape(x))
            return x * x

        self.run(entry, f)
        assert len(shapes) == calls
        assert all(np.prod(shape) > 1 for shape in shapes)

    def test_array_callable_gets_one_call_per_pass_of_expect(self):
        # The density and g are both called once per pass of the engine.
        g_shapes, pdf_calls = [], [0]

        def g(x):
            g_shapes.append(np.shape(x))
            return x * x

        def pdf(x):
            pdf_calls[0] += 1
            return np.exp(-x)

        assert self.run("expect", g, pdf) == pytest.approx(2.0, rel=1e-9)
        assert len(g_shapes) == pdf_calls[0] >= 1
        assert all(len(shape) == 2 for shape in g_shapes)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_array_failure_falls_back_to_floats(self, entry):
        # A callable that refuses arrays, or answers them with one value,
        # is evaluated float by float and never raises from the attempt.
        def floats_only(x):
            if not isinstance(x, float):
                raise DomainError("floats only")
            return x * x

        want = self.run(entry, lambda x: x * x)
        assert self.run(entry, floats_only) == want
        assert self.run(entry, lambda x: float(np.sum(x * x))) == want

    def test_array_results_match_the_float_path(self):
        # Plain arithmetic rounds alike on floats and arrays.
        def f(x):
            return x * (x - 3.0) / (1.0 + x * x)

        def g(x):
            return float(f(x))

        for entry in self.ENTRY_POINTS:
            assert self.run(entry, f) == self.run(entry, g)


class TestIntegerArguments:
    """Dimensions, orders and counts: one check, ``_integer``, for all."""

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)],
                             ids=["int", "int64", "uint8"])
    def test_python_and_numpy_integers_accepted(self, value):
        out = _integer(value, "d", 1)
        assert out == 3 and type(out) is int

    @pytest.mark.parametrize("value", [True, False, 3.0, np.float64(3.0),
                                       2.5, "3", None],
                             ids=repr)
    def test_bool_and_non_integers_rejected(self, value):
        message = f"d must be an integer >= 0, got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            _integer(value, "d", 0)

    def test_bounds_and_error_class(self):
        assert _integer(0, "k", 0, 0) == 0
        with pytest.raises(DomainError, match=r"^k must be an integer in "
                           r"1\.\.3, got 4$"):
            _integer(4, "k", 1, 3)
        with pytest.raises(ModelError, match=r"^dim must be an integer "
                           r">= 1, got 0$"):
            _integer(0, "dim", 1, error=ModelError)

    def test_numpy_dimension_keeps_bits(self):
        # h_d(0.3, 3) = 1 - 0.45 + 0.0135 before and after the check.
        assert h_d(0.3, np.int64(3)).hex() == "0x1.2083126e978d5p-1"
        ts = np.array([0.0, 0.1, 0.37, 0.9, 1.2])
        for d in range(1, 9):
            assert h_d(ts, np.int64(d)).tobytes() == h_d(ts, d).tobytes()
            assert kappa_d(np.int64(d)) == kappa_d(d)
            assert beta_d(np.int64(d)) == beta_d(d)

    _BALLS = ShapeEnsemble("ball(0.5)", lambda rng: ball_indicator(3, 0.5))

    # Each call passes a bool, a float or an out-of-range value as an
    # integer argument; the error names the argument and the value.
    MODEL_PROBES = {
        "M3bModel-dim": (
            lambda: M3bModel(dim=True, radius=erfc_sqrt_radius_law(1)),
            "dim", True),
        "M3rModel-n_samples": (
            lambda: tcf(M3rModel(dim=3, ensemble=TestIntegerArguments._BALLS,
                                 n_samples=2.5), 0.5), "n_samples", 2.5),
        "M3rModel-seed": (
            lambda: M3rModel(dim=3, ensemble=TestIntegerArguments._BALLS,
                             seed=1.5), "seed", 1.5),
    }
    PROBES = {
        "kappa_d": (lambda: kappa_d(True), "d", True),
        "beta_d": (lambda: beta_d(2.0), "d", 2.0),
        "num_derivative-order-bool": (
            lambda: num_derivative(math.exp, 0.5, True), "order", True),
        "num_derivative-order-float": (
            lambda: num_derivative(math.exp, 0.5, 2.0), "order", 2.0),
        "num_derivative-levels": (
            lambda: num_derivative(math.exp, 0.5, 2, levels=2.5),
            "levels", 2.5),
        "h_d": (lambda: h_d(0.3, True), "d", True),
        "laplace_factor": (lambda: laplace_factor(True), "d", True),
        "overlap_integral-float": (
            lambda: overlap_integral(erfc_sqrt(), 2.5, 0.3), "d", 2.5),
        "overlap_integral-zero": (
            lambda: overlap_integral(erfc_sqrt(), 0, 0.3), "d", 0),
        "parametric_bounds": (
            lambda: parametric_bounds("truncated_power", True), "d", True),
        "erfc_mixture": (lambda: erfc_mixture(True, 1.0), "row", True),
        "TurningBandsSpec": (
            lambda: TurningBandsSpec(k=True, d=3), "k", True),
        "phi_d": (lambda: phi_d(0.3, True), "d", True),
        "phi_d_neg_deriv_sqrt": (
            lambda: phi_d_neg_deriv_sqrt(0.3, 3.0), "d", 3.0),
        "phi_d_radial": (lambda: phi_d_radial(True), "d", True),
        "chi_d_radial": (lambda: chi_d_radial(3.0), "d", 3.0),
        "gneiting_c": (lambda: gneiting_c(0.3, 2.5), "d", 2.5),
        "c_second_deriv_at_1": (
            lambda: c_second_deriv_at_1(6.0), "d", 6.0),
        "test_completely_monotone-bool": (
            lambda: test_completely_monotone(erfc_sqrt(), True),
            "max_order", True),
        "test_completely_monotone-float": (
            lambda: test_completely_monotone(erfc_sqrt(), 2.5),
            "max_order", 2.5),
        "spectral_density": (
            lambda: spectral_density(truncated_power(2.0), True, 1.0),
            "d", True),
        "test_positive_definite-d": (
            lambda: test_positive_definite(erfc_sqrt(), 2.5), "d", 2.5),
        "test_positive_definite-n_configs": (
            lambda: test_positive_definite(erfc_sqrt(), 2, n_configs=2.5),
            "n_configs", 2.5),
        "test_positive_definite-n_points": (
            lambda: test_positive_definite(erfc_sqrt(), 2, n_points=True),
            "n_points", True),
        "test_positive_definite-seed": (
            lambda: test_positive_definite(erfc_sqrt(), 2, seed=True),
            "seed", True),
        "classify-seed": (
            lambda: classify(erfc_sqrt(), 2, seed=2.5), "seed", 2.5),
        "ball_indicator": (lambda: ball_indicator(0), "d", 0),
        "classify": (lambda: classify(erfc_sqrt(), 2.5), "d", 2.5),
        "RecoveryInput": (
            lambda: RecoveryInput(erfc_sqrt(), True), "dim", True),
        "f_from_H": (
            lambda: f_from_H(erfc_sqrt_radius_law(3), True, 0.5), "d", True),
        "H_from_f": (
            lambda: H_from_f(erfc_sqrt_shape(3), 2.5, 0.5), "d", 2.5),
        "erfc_sqrt_shape": (lambda: erfc_sqrt_shape(True), "dim", True),
        "erfc_sqrt_diameter_density": (
            lambda: erfc_sqrt_diameter_density(True), "dim", True),
        "erfc_sqrt_radius_law": (
            lambda: erfc_sqrt_radius_law(True), "dim", True),
        "RadialFunction.derivative": (
            lambda: erfc_sqrt().derivative(0.5, True), "order", True),
    }

    @pytest.mark.parametrize("call, name, value, error", [
        *(pytest.param(*probe, ModelError, id=key)
          for key, probe in MODEL_PROBES.items()),
        *(pytest.param(*probe, DomainError, id=key)
          for key, probe in PROBES.items())])
    def test_non_integer_argument_named(self, call, name, value, error):
        pattern = (f"^{re.escape(name)} must be an integer .*, got "
                   f"{re.escape(repr(value))}$")
        with pytest.raises(error, match=pattern):
            call()
