"""Tests for the evaluation contract of the distance-function wrappers:
every catalog function, preset shape, correlation and variogram, the ball
overlap kernel h_d, and each analytic derivative of a radial function,
evaluates a whole array in one call, bit for bit as it evaluates each
float, and a scalar-only callable must come in through a
``*_from_callable`` helper."""

import dataclasses
import math

import numpy as np
import pytest

from tailcorr import DomainError, num_derivative, numerics
from tailcorr.cli import _gaussian_correlation
from tailcorr.membership import DEFAULT_GRID, _neg_deriv_sqrt
from tailcorr.models import erfc_mixture, h_d
from tailcorr.operators import (chi_d_neg_deriv_sqrt, chi_d_radial,
                                erf_square_complement_radial, phi_d,
                                phi_d_neg_deriv_sqrt, phi_d_radial)
from tailcorr.presets import bounded_gauss_correlations, erfc_sqrt_shape
from tailcorr.radial import (
    Correlation,
    RadialFunction,
    Variogram,
    ball_indicator,
    bounded_variogram,
    correlation_from_callable,
    erfc_sqrt,
    exponential_correlation,
    exponential_decay,
    fbm_variogram,
    generalized_cauchy,
    powered_erfc,
    powered_exponential,
    radial_from_callable,
    tent,
    truncated_power,
    variogram_from_callable,
    whittle_matern,
)

def ball_overlap(d: int) -> RadialFunction:
    """The ball overlap kernel h_d as a function of distance."""
    return RadialFunction(name=f"h_{d}", func=lambda r: h_d(r, d),
                          support_bound=1.0)


#: name -> (factory, finite at distance 0)
FUNCTIONS = {
    "tent": (tent, True),
    "exponential": (exponential_decay, True),
    "exponential_scale": (lambda: exponential_decay(2.5), True),
    "erfc_sqrt": (erfc_sqrt, True),
    "powered_erfc_0.3": (lambda: powered_erfc(0.3), True),
    "powered_erfc_0.8": (lambda: powered_erfc(0.8), True),
    "powered_exponential_0.5": (lambda: powered_exponential(0.5), True),
    "powered_exponential_1.5": (lambda: powered_exponential(1.5), True),
    "whittle_matern_0.5": (lambda: whittle_matern(0.5), True),
    "whittle_matern_1.5": (lambda: whittle_matern(1.5), True),
    "whittle_matern_2.5": (lambda: whittle_matern(2.5), True),
    "cauchy_0.5": (lambda: generalized_cauchy(0.5), True),
    "cauchy_1.5_2": (lambda: generalized_cauchy(1.5, 2.0), True),
    "truncated_power_1.5": (lambda: truncated_power(1.5), True),
    "truncated_power_2": (lambda: truncated_power(2.0), True),
    "ball_2d": (lambda: ball_indicator(2, 1.0), True),
    "ball_3d": (lambda: ball_indicator(3, 0.7), True),
    **{f"phi_{d}": (lambda d=d: phi_d_radial(d), True) for d in (2, 3, 4, 6)},
    **{f"chi_{d}": (lambda d=d: chi_d_radial(d), True) for d in (3, 4, 6)},
    **{f"h_{d}": (lambda d=d: ball_overlap(d), True) for d in range(1, 6)},
    "erf_square_complement": (erf_square_complement_radial, True),
    **{f"erfc_mixture_row{row}": (lambda row=row, a=a: RadialFunction(
        f"row{row}", erfc_mixture(row, a).closed_form), True)
       for row, a in ((1, 2.0), (2, 0.3), (3, 0.5), (4, 1.5))},
    "erfc_sqrt_shape_1d": (lambda: erfc_sqrt_shape(1), False),
    "erfc_sqrt_shape_3d": (lambda: erfc_sqrt_shape(3), False),
    "corr_exponential": (exponential_correlation, True),
    "corr_exponential_scale": (lambda: exponential_correlation(2.0), True),
    "corr_bounded_gauss_eg": (lambda: bounded_gauss_correlations()[0], True),
    "corr_bounded_gauss_ebg": (lambda: bounded_gauss_correlations()[1], True),
    "corr_gaussian": (lambda: _gaussian_correlation(1.5), True),
    "vario_fbm_linear": (lambda: fbm_variogram(8.0, 1.0), True),
    "vario_fbm_0.5": (lambda: fbm_variogram(2.0, 0.5), True),
    "vario_fbm_1.7": (lambda: fbm_variogram(1.0, 1.7), True),
    "vario_bounded": (lambda: bounded_variogram(
        1.62, exponential_correlation()), True),
    "vario_bounded_eg": (lambda: bounded_variogram(
        1.0, bounded_gauss_correlations()[0]), True),
}


#: Radii so small that r^nu underflows or K_nu overflows.
TINY = [1e-300, 1e-200, 1e-100]


def distances(with_zero: bool) -> np.ndarray:
    """Log-spaced distances with kinks, support ends, tiny radii and the
    far tail (beyond the Whittle-Matern underflow cut at 705) mixed in."""
    xs = np.concatenate([TINY, np.geomspace(1e-3, 50.0, 1193),
                         [0.5, 0.7, 1.0, 2.0, 704.9, 800.0]])
    return np.concatenate([[0.0], xs]) if with_zero else xs


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
# The singular erfc-sqrt shape of d = 3 is inf at radius 1e-300.
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
class TestArrayContract:
    def build(self, name):
        factory, with_zero = FUNCTIONS[name]
        return factory(), distances(with_zero)

    def test_array_matches_each_float_bit_for_bit(self, name):
        f, xs = self.build(name)
        got = f(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        per_call = [f(float(x)) for x in xs]
        per_func = [float(f.func(float(x))) for x in xs]
        assert np.array_equal(bits(got), bits(per_call))
        assert np.array_equal(bits(got), bits(per_func))

    def test_two_dimensional_input_keeps_shape(self, name):
        f, xs = self.build(name)
        grid = xs[: xs.size // 2 * 2].reshape(2, -1)
        got = f(grid)
        assert got.shape == grid.shape
        want = [[f(float(x)) for x in row] for row in grid]
        assert np.array_equal(bits(got), bits(want))

    def test_tiny_radii_reach_the_value_at_zero(self, name):
        factory, with_zero = FUNCTIONS[name]
        f = factory()
        got = f(np.array(TINY))
        assert not np.any(np.isnan(got))
        if with_zero:
            assert np.allclose(got, f(0.0), rtol=1e-12, atol=1e-12)

    def test_float_in_float_out(self, name):
        f, _ = self.build(name)
        assert type(f(0.37)) is float


def declared_orders(f) -> list[int]:
    return [k for k in (1, 2, 3) if getattr(f, f"deriv{k}", None) is not None]


@pytest.mark.parametrize("name", sorted(
    name for name, (factory, _) in FUNCTIONS.items()
    if declared_orders(factory())))
def test_analytic_derivatives_take_arrays(name):
    f = FUNCTIONS[name][0]()
    xs = np.geomspace(1e-3, 50.0, 301)
    xs = xs[~f._on_kink(xs)]
    for k in declared_orders(f):
        got = f.derivative(xs, k)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        per_call = [f.derivative(float(x), k) for x in xs]
        assert all(type(v) is float for v in per_call)
        assert np.array_equal(bits(got), bits(per_call))


@pytest.mark.parametrize("nu, beta", [(0.5, 1.0), (1.0, 1.0), (1.5, 2.0),
                                      (2.0, 0.5)])
def test_cauchy_derivatives_match_numeric_ones(nu, beta):
    f = generalized_cauchy(nu, beta)
    rs = np.array([0.3, 1.0, 2.5])
    for k in (2, 3):
        assert f.derivative(rs, k) == pytest.approx(
            num_derivative(f.func, rs, k)[0], rel=1e-7)


def test_cauchy_derivatives_closed_form_at_nu_one():
    # (1 + r)^-1 has f'' = 2 (1 + r)^-3 and f''' = -6 (1 + r)^-4, also at
    # small radii, where an ungrouped bracket of f''' would lose digits.
    f = generalized_cauchy(1.0)
    rs = np.array([1e-12, 1e-6, 0.3, 1.0, 2.5, 1e6])
    assert f.derivative(rs, 2) == pytest.approx(2.0 / (1.0 + rs) ** 3,
                                                rel=1e-14)
    assert f.derivative(rs, 3) == pytest.approx(-6.0 / (1.0 + rs) ** 4,
                                                rel=1e-14)


#: 5,000 lags of each sqrt-argument derivative: (0, 1) without the kink at
#: 1/4 for chi_d, [1e-3, 20] for phi_d.
UNIT_LAGS = np.linspace(0.0, 1.0, 5002)[1:-1]
NEG_DERIV_SQRT = [
    *[(phi_d_neg_deriv_sqrt, d, np.geomspace(1e-3, 20.0, 5000))
      for d in range(2, 8)],
    *[(chi_d_neg_deriv_sqrt, d, UNIT_LAGS[UNIT_LAGS != 0.25])
      for d in range(2, 7)],
]


@pytest.mark.parametrize("f, d, ts", NEG_DERIV_SQRT, ids=[
    f"{f.__name__}-{d}" for f, d, _ in NEG_DERIV_SQRT])
def test_neg_deriv_sqrt_array_matches_each_float(f, d, ts):
    got = f(ts, d)
    assert np.array_equal(bits(got), bits([f(float(t), d) for t in ts]))


def test_array_error_names_the_bad_entry():
    with pytest.raises(DomainError, match=r"got -0\.2$"):
        phi_d(np.array([0.5, -0.2]), 3)
    with pytest.raises(DomainError, match=r"got -0\.3$"):
        tent()(np.array([[0.5, 1.0], [-0.3, -0.4]]))


@pytest.mark.parametrize("kink", [math.nan, math.inf, -math.inf])
def test_non_finite_kinks_are_refused(kink):
    with pytest.raises(DomainError,
                       match=f"^kinks must be finite, got {kink!r}$"):
        RadialFunction(name="x", func=np.exp, kinks=(0.5, kink))


class TestNumericDerivativeNearZero:
    """A numeric derivative of a radial function evaluates it at r > 0
    only: a ladder that would reach 0 shrinks as next to a kink."""

    XS = np.geomspace(1e-6, 2.0, 60)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_no_stencil_point_at_or_below_zero(self, order):
        seen = []

        def func(r):
            seen.append(np.min(r))
            return np.exp(-r)

        f = RadialFunction(name="recorded", func=func)
        assert np.all(np.isfinite(f.derivative(self.XS, order)))
        assert min(seen) > 0.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_ladders_clear_of_zero_keep_their_bits(self, order):
        f = RadialFunction(name="exp(-r^1.5)", func=lambda r: np.exp(-r**1.5))
        xs = self.XS[self.XS > 0.05]
        want = num_derivative(f.func, xs, order)[0]
        assert np.array_equal(bits(f.derivative(xs, order)), bits(want))

    @pytest.mark.parametrize("r", [1e-4, 1e-3])
    def test_chi_3_second_derivative_near_zero(self, r):
        # chi_3(r) = (1 - r)(1 - 3r/2 + r^3/2) on [0, 1/2].
        assert chi_d_radial(3).derivative(r, 2) == pytest.approx(
            3.0 + 3.0 * r - 6.0 * r * r, rel=1e-8)

    def test_nonpositive_radius_is_refused(self):
        with pytest.raises(DomainError, match=r"r must be > 0, got 0\.0$"):
            whittle_matern(1.5).derivative(np.array([0.1, 0.0]), 2)

    @pytest.mark.parametrize("order", [1, 2, 3])
    # From 5e-5 (order 1), 1e-3 (order 2) or 1e-2 (order 3) down the ladder
    # would reach 0, and at 1e-7 so would the base step alone.
    @pytest.mark.parametrize("r", [3.0, 0.5, 1e-2, 1e-3, 5e-5, 1e-7])
    def test_float_takes_the_float_route_with_the_bits_of_an_array(
            self, monkeypatch, order, r):
        f = whittle_matern(1.5)
        want = f.derivative(np.array([r]), order)
        # The array engine is out of reach of a float.
        monkeypatch.setattr(numerics, "_ridders", None)
        got = f.derivative(r, order)
        assert type(got) is float
        assert got.hex() == float(want[0]).hex()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_float_stencil_clear_of_zero(self, order):
        seen = []

        def func(r):
            seen.append(np.min(r))
            return np.exp(-r)

        f = RadialFunction(name="recorded", func=func)
        for r in self.XS[:20]:
            assert math.isfinite(f.derivative(float(r), order))
        assert min(seen) > 0.0

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_nonpositive_float_radius_is_refused(self, r):
        with pytest.raises(DomainError, match=rf"r must be > 0, got {r!r}$"):
            whittle_matern(1.5).derivative(r, 2)


class TestScalarCallables:
    @pytest.mark.parametrize("func", [
        lambda r: math.exp(-r),
        lambda r: 1.0 if r < 1.0 else 0.0,
        lambda r: 0.5,
    ], ids=["math", "branch", "constant"])
    def test_radial_function_rejects_scalar_func(self, func):
        with pytest.raises(DomainError, match="radial_from_callable"):
            RadialFunction(name="scalar", func=func)

    @pytest.mark.parametrize("deriv", [
        lambda r: -math.exp(-r),
        lambda r: -1.0 if r < 1.0 else 0.0,
        lambda r: 0.0,
    ], ids=["math", "branch", "constant"])
    def test_radial_function_rejects_scalar_derivative(self, deriv):
        with pytest.raises(DomainError, match="derivative 1 .*"
                           "radial_from_callable"):
            RadialFunction(name="scalar", func=lambda r: np.exp(-r),
                           deriv1=deriv)
        lifted = radial_from_callable("lifted", lambda r: math.exp(-r),
                                      deriv1=deriv)
        assert lifted.derivative(np.array([0.5, 2.0]), 1).tolist() == [
            deriv(0.5), deriv(2.0)]

    def test_correlation_rejects_scalar_func(self):
        with pytest.raises(DomainError, match="correlation_from_callable"):
            Correlation(name="scalar", func=lambda t: math.exp(-abs(t)))

    def test_variogram_rejects_scalar_func(self):
        with pytest.raises(DomainError, match="variogram_from_callable"):
            Variogram(name="scalar", func=lambda t: 2.0 * abs(t) if t else 0.0)

    def test_domain_errors_of_the_func_pass_through(self):
        def func(r):
            raise DomainError("out of domain")
        with pytest.raises(DomainError, match="out of domain"):
            RadialFunction(name="raises", func=func)

    @pytest.mark.parametrize("wrap", [
        lambda: radial_from_callable("exp", lambda r: math.exp(-r)),
        lambda: correlation_from_callable("exp", lambda t: math.exp(-abs(t))),
        lambda: variogram_from_callable("lin", lambda t: 2.0 * abs(t)),
    ], ids=["radial", "correlation", "variogram"])
    def test_helpers_lift_scalar_callables(self, wrap):
        f = wrap()
        grid = np.linspace(0.0, 3.0, 12).reshape(3, 4)
        got = f(grid)
        assert got.shape == grid.shape
        want = [[f.func(float(x)) for x in row] for row in grid]
        assert np.array_equal(bits(got), bits(want))
        assert type(f.func(0.5)) is float


class TestVariogramParameters:
    """The variogram constructors reject parameters outside their domain,
    NaN included."""

    @pytest.mark.parametrize("scale, alpha, match", [
        (8.0, 3.0, "alpha must be in"),
        (8.0, 0.0, "alpha must be in"),
        (8.0, -1.0, "alpha must be in"),
        (8.0, math.nan, "alpha must be in"),
        (0.0, 1.0, "scale must be finite and > 0"),
        (-2.0, 1.0, "scale must be finite and > 0"),
        (math.nan, 1.0, "scale must be finite and > 0"),
    ])
    def test_fbm_rejects(self, scale, alpha, match):
        with pytest.raises(DomainError, match=match):
            fbm_variogram(scale, alpha)

    @pytest.mark.parametrize("lam", [0.0, -1.62, math.nan])
    def test_bounded_rejects(self, lam):
        with pytest.raises(DomainError, match="lam must be finite and > 0"):
            bounded_variogram(lam, exponential_correlation())

    def test_domain_edges_accepted(self):
        assert fbm_variogram(1e-300, 2.0)(1.0) == 1e-300
        assert fbm_variogram(8.0, 1e-9)(0.0) == 0.0
        assert bounded_variogram(1e-9, exponential_correlation())(0.0) == 0.0


class TestVariogramBuffer:
    """The variograms evaluate in one buffer with the bits of their
    formulas, at negative and integer distances too."""

    def test_fbm_equals_its_formula(self):
        t = np.concatenate([-distances(True), distances(True)])
        for scale, alpha in ((8.0, 1.0), (2.0, 0.5), (1.0, 1.7)):
            got = fbm_variogram(scale, alpha).func(t)
            assert np.array_equal(bits(got), bits(
                scale * np.power(np.abs(t), alpha)))
        assert np.array_equal(fbm_variogram(2.0, 0.5).func(np.array([-4, 9])),
                              [4.0, 6.0])

    def test_bounded_equals_its_formula(self):
        t = np.concatenate([-distances(True), distances(True)])
        for rho in (exponential_correlation(2.0),
                    bounded_gauss_correlations()[0]):
            got = bounded_variogram(1.62, rho).func(t)
            assert np.array_equal(bits(got), bits(
                1.62 * (1.0 - rho.func(np.abs(t)))))


# Each constructor with one real parameter (the others at valid values).
REAL_PARAMETERS = {
    "exponential_decay": (exponential_decay, "scale"),
    "powered_erfc": (powered_erfc, "nu"),
    "powered_exponential": (powered_exponential, "nu"),
    "whittle_matern": (whittle_matern, "nu"),
    "generalized_cauchy-nu": (generalized_cauchy, "nu"),
    "generalized_cauchy-beta": (lambda v: generalized_cauchy(1.0, v), "beta"),
    "truncated_power": (truncated_power, "nu"),
    "ball_indicator": (lambda v: ball_indicator(2, v), "radius"),
    "exponential_correlation": (exponential_correlation, "scale"),
    "fbm_variogram-scale": (lambda v: fbm_variogram(v, 1.0), "scale"),
    "fbm_variogram-alpha": (lambda v: fbm_variogram(1.0, v), "alpha"),
    "bounded_variogram": (
        lambda v: bounded_variogram(v, exponential_correlation()), "lam"),
    **{f"erfc_mixture-{row}": (lambda v, row=row: erfc_mixture(row, v),
                               "nu" if row == 2 else "a")
       for row in (1, 2, 3, 4)},
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(REAL_PARAMETERS))
def test_constructor_refuses_non_finite_parameter(name, value):
    build, argument = REAL_PARAMETERS[name]
    with pytest.raises(DomainError,
                       match=f"{argument} must be .*, got {value!r}$"):
        build(value)


#: name -> factory of every catalog function with a Taylor hook.
HOOKED = {
    "exponential": exponential_decay,
    "exponential_scale": lambda: exponential_decay(2.5),
    "erfc_sqrt": erfc_sqrt,
    "powered_erfc_0.4": lambda: powered_erfc(0.4),
    "powered_erfc_0.8": lambda: powered_erfc(0.8),
    "powered_exponential_0.5": lambda: powered_exponential(0.5),
    "powered_exponential_1.5": lambda: powered_exponential(1.5),
    "cauchy_1": lambda: generalized_cauchy(1.0),
    "cauchy_2": lambda: generalized_cauchy(2.0),
    "cauchy_0.5_2": lambda: generalized_cauchy(0.5, 2.0),
    "cauchy_1.5_0.7": lambda: generalized_cauchy(1.5, 0.7),
}


class TestTaylorHook:
    """The Taylor hook: k! c_k against each closed form the function
    declares, an ODE, and the route ``derivative`` takes."""

    GRID = np.array(DEFAULT_GRID)

    @pytest.mark.parametrize("name", sorted(HOOKED))
    def test_matches_every_closed_form(self, name):
        # 1e-13 relative, or within the hook's own bound where a
        # derivative crosses 0 (the third one of Cauchy nu = 1.5 near
        # r = 0.82, where the closed form is no better).
        f = HOOKED[name]()
        coef, bound = f.taylor(self.GRID, 3)
        assert coef.shape == bound.shape == (4, self.GRID.size)
        for k, closed in enumerate((f.func, f.deriv1, f.deriv2, f.deriv3)):
            if closed is None:
                continue
            want = closed(self.GRID)
            got = math.factorial(k) * coef[k]
            err = math.factorial(k) * bound[k]
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + err)
            assert np.all(err <= 1e-10 * np.abs(want))

    def test_erfc_sqrt_solves_its_ode_through_order_9(self):
        # y = erfc(sqrt x) solves 2x y'' + (2x + 1) y' = 0; in the
        # coefficients c at x, for k = 0..7:
        #   2x (k+2)(k+1) c_(k+2) + 2 (k+1) k c_(k+1)
        #     + (2x + 1)(k+1) c_(k+1) + 2 k c_k = 0.
        x = self.GRID
        c, bound = erfc_sqrt().taylor(x, 9)
        for k in range(8):
            terms = (2.0 * x * (k + 2) * (k + 1) * c[k + 2],
                     2.0 * (k + 1) * k * c[k + 1],
                     (2.0 * x + 1.0) * (k + 1) * c[k + 1],
                     2.0 * k * c[k])
            scale = sum(np.abs(t) for t in terms)
            assert np.all(np.abs(sum(terms)) <= 1e-13 * scale)
        assert np.all(bound <= 1e-12 * np.abs(c))

    @pytest.mark.parametrize("name", sorted(HOOKED))
    def test_neg_deriv_sqrt_hook_matches_its_closed_forms(self, name):
        # g(t) = -phi'(sqrt t) and g'(t) = -phi''(sqrt t) / (2 sqrt t),
        # from phi's hook composed with sqrt(t + s) - sqrt(t).
        phi = HOOKED[name]()
        g = _neg_deriv_sqrt(phi)
        coef, bound = g.taylor(self.GRID, 8)
        assert coef.shape == (9, self.GRID.size)
        u = np.sqrt(self.GRID)
        want = (-phi.derivative(u, 1), -phi.derivative(u, 2) / (2.0 * u))
        for k, w in enumerate(want):
            assert np.all(np.abs(coef[k] - w) <= 1e-13 * np.abs(w) + bound[k])

    @pytest.mark.parametrize("name", sorted(HOOKED))
    def test_derivative_route(self, name):
        # The closed form first, then k! c_k; both on the float rule.
        f = HOOKED[name]()
        xs = np.geomspace(1e-3, 50.0, 301)
        coef, _ = f.taylor(xs, 3)
        for k in (1, 2, 3):
            got = f.derivative(xs, k)
            closed = getattr(f, f"deriv{k}")
            want = closed(xs) if closed else math.factorial(k) * coef[k]
            assert np.array_equal(bits(got), bits(want))
            per_call = [f.derivative(float(x), k) for x in xs]
            assert np.array_equal(bits(got), bits(per_call))

    def test_without_hook_the_derivative_is_numeric(self):
        f = powered_erfc(0.4)
        bare = dataclasses.replace(f, taylor=None)
        xs = np.array([0.3, 1.0, 2.5])
        assert not np.array_equal(bare.derivative(xs, 2),
                                  f.derivative(xs, 2))
        assert bare.derivative(xs, 2) == pytest.approx(f.derivative(xs, 2),
                                                       rel=1e-7)

    def test_hook_shape_and_order_are_checked(self):
        f = erfc_sqrt()
        coef, bound = f.taylor(np.ones((2, 3)), 4)
        assert coef.shape == bound.shape == (5, 2, 3)
        with pytest.raises(DomainError,
                           match=r"order must be an integer in 0\.\.10, got 11"):
            f.taylor(self.GRID, 11)
        with pytest.raises(DomainError, match="r must be > 0, got 0.0"):
            f.taylor(np.array([1.0, 0.0]), 2)
        bad = RadialFunction("bad", func=lambda r: np.exp(-r),
                             taylor=lambda x, order: (x, x[None]))
        with pytest.raises(DomainError, match=r"taylor hook of radial "
                           r"function 'bad' .* got \(3,\) and \(1, 3\)"):
            bad.derivative(np.array([0.5, 1.0, 2.0]), 2)
