"""Tests for the evaluation contract of the distance-function wrappers:
every catalog function, preset shape, correlation and variogram evaluates
a whole array in one call, bit for bit as it evaluates each float, and a
scalar-only callable must come in through a ``*_from_callable`` helper."""

import math

import numpy as np
import pytest

from tailcorr import DomainError
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
    "erfc_sqrt_shape_1d": (lambda: erfc_sqrt_shape(1), False),
    "erfc_sqrt_shape_3d": (lambda: erfc_sqrt_shape(3), False),
    "corr_exponential": (exponential_correlation, True),
    "corr_exponential_scale": (lambda: exponential_correlation(2.0), True),
    "corr_bounded_gauss_eg": (lambda: bounded_gauss_correlations()[0], True),
    "corr_bounded_gauss_ebg": (lambda: bounded_gauss_correlations()[1], True),
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


class TestScalarCallables:
    @pytest.mark.parametrize("func", [
        lambda r: math.exp(-r),
        lambda r: 1.0 if r < 1.0 else 0.0,
        lambda r: 0.5,
    ], ids=["math", "branch", "constant"])
    def test_radial_function_rejects_scalar_func(self, func):
        with pytest.raises(DomainError, match="radial_from_callable"):
            RadialFunction(name="scalar", func=func)

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
