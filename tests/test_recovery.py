"""Tests for TCF inversion: storm shapes, diameter laws, and the f <-> H
correspondence, checked against closed forms and full round trips."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import assert_entrywise

from tailcorr import (DomainError, KinkError, ModelError, NotInClassError,
                      QuadratureError, erfc)
from tailcorr.distributions import (
    Distribution1D,
    exponential_dist,
    from_cdf,
    point_mass,
)
from tailcorr.models import M2rModel, M3bModel, tcf
from tailcorr.numerics import kappa_d, quadrature
from tailcorr.operators import chi_d_radial
from tailcorr.presets import erfc_sqrt_chi, erfc_sqrt_shape
from tailcorr.radial import (
    RadialFunction,
    exponential_decay,
    generalized_cauchy,
    powered_erfc,
    powered_exponential,
    radial_from_callable,
    tent,
    truncated_power,
)
from tailcorr.recovery import (
    _NUMERIC_D2_TOL,
    _diameter_cdf_smooth,
    AtomicAnswer,
    H_from_f,
    RecoveryInput,
    f_from_H,
    lambda_chi,
    radius_normalization,
    recover_radius_density,
    recover_radius_law,
    recover_shape,
    shape_normalization,
)


class TestRecoveryInput:
    def test_requires_unit_at_zero(self):
        bad = radial_from_callable("half", lambda t: 0.5 * math.exp(-t))
        with pytest.raises(ModelError):
            RecoveryInput(chi=bad, dim=1)

    def test_requires_monotone(self):
        bad = radial_from_callable("bump", lambda t: math.exp(-((t - 1) ** 2)))
        with pytest.raises(ModelError):
            RecoveryInput(chi=bad, dim=1)

    def test_dim_guard(self):
        with pytest.raises(DomainError):
            RecoveryInput(chi=exponential_decay(), dim=4)


@pytest.mark.parametrize("call", [
    lambda u: recover_shape(RecoveryInput(erfc_sqrt_chi(), 3), u),
    lambda u: recover_shape(RecoveryInput(erfc_sqrt_chi(), 2), u),
    lambda u: recover_radius_density(RecoveryInput(erfc_sqrt_chi(), 3), u),
    lambda u: lambda_chi(RecoveryInput(erfc_sqrt_chi(), 3), u),
    lambda u: f_from_H(exponential_dist(1.0), 3, u),
    lambda u: H_from_f(erfc_sqrt_shape(3), 3, u),
], ids=["recover_shape", "recover_shape-d2", "recover_radius_density",
        "lambda_chi", "f_from_H", "H_from_f"])
def test_nan_distance_rejected(call):
    # A NaN used to read as a distance at or below 0 (value 0), as NaN,
    # or as a quadrature "lower limit".
    with pytest.raises(DomainError, match="must .*, got nan$"):
        call(np.array([0.5, math.nan]))


class TestLambdaChi:
    def test_erfc_sqrt_at_one(self):
        # t chi''(1/t) at t=1 for chi = erfc(sqrt(.)):
        # chi''(1) = 3 e^{-1} / (2 sqrt(pi)).
        inp = RecoveryInput(chi=erfc_sqrt_chi(), dim=3)
        expected = 3.0 / (2.0 * math.sqrt(math.pi) * math.e)
        assert lambda_chi(inp, 1.0) == pytest.approx(expected, abs=1e-12)
        assert lambda_chi(inp, 1.0) == pytest.approx(0.311331, abs=1e-6)

    def test_exponential(self):
        inp = RecoveryInput(chi=exponential_decay(), dim=1)
        assert lambda_chi(inp, 2.0) == pytest.approx(2.0 * math.exp(-0.5),
                                                     abs=1e-12)

    def test_kink_refusal(self):
        inp = RecoveryInput(chi=tent(), dim=1)
        with pytest.raises(KinkError):
            lambda_chi(inp, 1.0)  # 1/t = 1 is the tent kink

    def test_domain(self):
        inp = RecoveryInput(chi=exponential_decay(), dim=1)
        with pytest.raises(DomainError):
            lambda_chi(inp, 0.0)


class TestRecoverShape:
    def test_d3_erfc_sqrt_closed_form(self):
        inp = RecoveryInput(chi=erfc_sqrt_chi(), dim=3)
        ref = erfc_sqrt_shape(3)
        for u in np.logspace(-2, 1, 30):
            assert recover_shape(inp, float(u)) == pytest.approx(
                float(ref(u)), rel=1e-10)

    def test_d1_tent_is_uniform_band(self):
        inp = RecoveryInput(chi=tent(), dim=1)
        assert recover_shape(inp, 0.2) == pytest.approx(1.0, abs=1e-12)
        assert recover_shape(inp, 0.49) == pytest.approx(1.0, abs=1e-12)
        assert recover_shape(inp, 0.51) == pytest.approx(0.0, abs=1e-12)
        assert recover_shape(inp, 3.0) == 0.0
        # Query exactly at the support edge: right-continuous, so 0.
        assert recover_shape(inp, 0.5) == 0.0

    def test_interior_kink_is_refused(self):
        # Convex polyline with slopes -1 then -1/2: kink at t=1/2 lies
        # strictly inside the support, so no two-sided derivative exists.
        def poly(t):
            if t < 0.5:
                return 1.0 - t
            return max(0.0, 0.75 - 0.5 * t)

        chi = radial_from_callable("polyline", poly, kinks=(0.5, 1.5),
                                   support_bound=1.5)
        inp = RecoveryInput(chi=chi, dim=1)
        assert recover_shape(inp, 0.2) == pytest.approx(1.0, abs=1e-7)
        assert recover_shape(inp, 0.35) == pytest.approx(0.5, abs=1e-7)
        with pytest.raises(KinkError):
            recover_shape(inp, 0.25)

    def test_d1_exponential(self):
        inp = RecoveryInput(chi=exponential_decay(), dim=1)
        for u in [0.1, 0.7, 2.0]:
            assert recover_shape(inp, u) == pytest.approx(math.exp(-2.0 * u),
                                                          abs=1e-12)

    def test_d2_exponential_consistency(self):
        # No closed form: recovered d=2 shape must rebuild chi = e^{-t}
        # through the overlap integral, and integrate to 1 over the plane.
        inp = RecoveryInput(chi=exponential_decay(), dim=2)
        f = radial_from_callable("recovered_d2",
                                 lambda u: recover_shape(inp, u, tol=1e-11)
                                 if u > 0 else recover_shape(inp, 1e-12))
        model = M2rModel(dim=2, shape=f, normalization_tol=1e-5)
        for t in [0.3, 1.0, 2.5]:
            assert tcf(model, t, tol=1e-8) == pytest.approx(math.exp(-t),
                                                            abs=1e-6)

    def test_nonincreasing_property(self):
        for dim in (1, 3):
            inp = RecoveryInput(chi=erfc_sqrt_chi(), dim=dim)
            grid = np.logspace(-2, 1, 40)
            vals = [recover_shape(inp, float(u)) for u in grid]
            assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_negative_witness(self):
        # A valid correlation that is NOT a d=1 moving-maxima TCF: its
        # "shape" -chi'(2u) goes negative and recovery must say so.
        chi = radial_from_callable("gauss", lambda t: math.exp(-t * t))
        inp = RecoveryInput(chi=chi, dim=3)
        with pytest.raises(NotInClassError) as err:
            for u in np.linspace(0.3, 2.0, 10):
                recover_shape(inp, float(u))
        assert err.value.witness is not None

    def test_array_negative_witness_names_first_entry(self):
        # chi''(t) = (4t^2 - 2) e^{-t^2} < 0 for t < 1/sqrt(2), so the d=3
        # shape chi''(2u) / (pi u) is negative for u < 0.3536: 0.3 is the
        # first negative entry in grid order, 0.2 the most negative one.
        chi = radial_from_callable("gauss", lambda t: math.exp(-t * t))
        inp = RecoveryInput(chi=chi, dim=3)
        with pytest.raises(NotInClassError) as err:
            recover_shape(inp, np.array([2.0, 1.0, 0.5, 0.3, 0.2]))
        u, value = err.value.witness
        assert u == 0.3
        assert value == pytest.approx(
            (4 * 0.36 - 2) * math.exp(-0.36) / (math.pi * 0.3), rel=1e-6)
        assert "at 0.3:" in str(err.value)

    def test_shape_normalization(self):
        for dim in (1, 2, 3):
            inp = RecoveryInput(chi=erfc_sqrt_chi(), dim=dim)
            assert shape_normalization(inp) == pytest.approx(1.0, abs=1e-6)
        assert shape_normalization(
            RecoveryInput(chi=tent(), dim=1)) == pytest.approx(1.0, abs=1e-9)


class TestRecoverRadiusDensity:
    def test_d3_erfc_sqrt_closed_form(self):
        inp = RecoveryInput(chi=erfc_sqrt_chi(), dim=3)
        for s in np.logspace(-2, 1, 30):
            expected = (4 * s * s + 8 * s + 5) * math.exp(-s) / (
                12.0 * math.sqrt(math.pi * s))
            assert recover_radius_density(inp, float(s)) == pytest.approx(
                expected, rel=1e-10)

    def test_d1_exponential(self):
        inp = RecoveryInput(chi=exponential_decay(), dim=1)
        for s in [0.2, 1.0, 4.0]:
            assert recover_radius_density(inp, s) == pytest.approx(
                s * math.exp(-s), abs=1e-12)

    def test_d1_tent_gives_atomic_answer(self):
        inp = RecoveryInput(chi=tent(), dim=1)
        ans = recover_radius_density(inp, 0.7)
        assert isinstance(ans, AtomicAnswer)
        law = ans.law
        assert law.atoms == ((1.0, pytest.approx(1.0, abs=1e-6)),)
        # Unit jump at s=1: cdf is 0 just below, 1 at and above.
        assert law.cdf_value(0.999) == pytest.approx(0.0, abs=1e-6)
        assert law.cdf_value(1.0) == pytest.approx(1.0, abs=1e-6)
        assert law.cdf_value(1.5) == pytest.approx(1.0, abs=1e-6)

    def test_cdf_on_a_kink_without_atom(self):
        # (1 - t)_+^3 has chi'(1) = 0, so its d=1 law has no atom at 1; a
        # query on the kink takes the left piece instead of raising.
        law = recover_radius_law(RecoveryInput(truncated_power(3.0), 1))
        assert law.atoms == ()
        assert law.cdf_value(1.0 - 1e-13) == pytest.approx(1.0, abs=1e-12)
        assert law.cdf_value(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_radius_normalization(self):
        for dim in (1, 2, 3):
            inp = RecoveryInput(chi=erfc_sqrt_chi(), dim=dim)
            assert radius_normalization(inp) == pytest.approx(1.0, abs=1e-6)
        inp1 = RecoveryInput(chi=exponential_decay(), dim=3)
        # k(s) = (s/3)(1+s)e^{-s} integrates to (Gamma(2)+Gamma(3))/3 = 1.
        assert radius_normalization(inp1) == pytest.approx(1.0, abs=1e-8)

    def test_d2_singular_route_converges(self):
        # chi = e^{-t} has analytic derivatives; the d=2 density, the angle
        # average of the d=3 one, must integrate to total mass 1 (outer
        # quadrature from s = 0 to infinity).
        inp = RecoveryInput(chi=exponential_decay(), dim=2)
        total = quadrature(
            lambda s: recover_radius_density(inp, s, tol=1e-11),
            0.0, math.inf, tol=1e-7)
        assert total.value == pytest.approx(1.0, abs=1e-5)


class TestNumericDerivativesNearZero:
    def test_chi_3_law_in_dimension_one_has_unit_mass(self):
        # The law's pdf takes chi_3'' by Ridders ladders; below r = 0.024
        # the default ladder would reach r < 0, where chi_d raises.
        assert radius_normalization(
            RecoveryInput(chi_d_radial(3), 1)) == pytest.approx(1.0, abs=1e-9)


class TestD2NumericDerivatives:
    """Without analytic second and third derivatives or a Taylor hook, the
    d=2 integrals take numeric ones and must agree with the
    analytic-derivative route."""

    FULL = generalized_cauchy(1.0)  # 1/(1 + r)
    CHI = dataclasses.replace(FULL, deriv2=None, deriv3=None, taylor=None)

    # The shape also far out, where it is 1.2e-10 at u = 1000: the angle
    # integral of chi'' alone keeps the numeric route within 1e-7 there.
    @pytest.mark.parametrize("recover, s", [
        (recover, s) for recover in (recover_radius_density, recover_shape)
        for s in (0.5, 1.0, 2.0)] + [(recover_shape, 30.0),
                                     (recover_shape, 1000.0)])
    def test_agrees_with_analytic_derivatives(self, recover, s):
        numeric = recover(RecoveryInput(chi=self.CHI, dim=2), s)
        analytic = recover(RecoveryInput(chi=self.FULL, dim=2), s)
        assert numeric == pytest.approx(analytic, rel=1e-7)

    def test_closed_form_at_one(self):
        # k(1) = 8/35 for chi = 1/(1 + r).
        inp = RecoveryInput(chi=self.CHI, dim=2)
        assert recover_radius_density(inp, 1.0) == pytest.approx(8.0 / 35.0,
                                                                 rel=1e-7)

    def test_tolerance_floor(self):
        # Below the floor the quadrature would chase differentiation noise;
        # a tighter request is served at the floor instead of failing.
        inp = RecoveryInput(chi=self.CHI, dim=2)
        assert recover_radius_density(inp, 1.0, tol=1e-13) == \
            recover_radius_density(inp, 1.0, tol=_NUMERIC_D2_TOL)

    def test_shape_normalization(self):
        inp = RecoveryInput(chi=self.FULL, dim=2)
        assert shape_normalization(inp) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.xfail(raises=QuadratureError, strict=True, reason=(
        "numeric chi'' is rounding noise near r = 0, so the normalization "
        "integral does not converge near u = 0"))
    def test_shape_normalization_by_numeric_derivatives(self):
        inp = RecoveryInput(chi=self.CHI, dim=2)
        assert shape_normalization(inp) == pytest.approx(1.0, abs=1e-6)


class TestTaylorHookRecovery:
    """Catalog functions whose second and third derivatives come from
    their Taylor hook recover a shape of unit mass in d = 2 and 3 (with
    numeric ones, d = 2 raised QuadratureError and d = 3 read up to
    1.0045)."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("chi", [powered_erfc(0.4), powered_erfc(0.8),
                                     powered_exponential(0.5)],
                             ids=lambda chi: chi.name)
    def test_shape_normalization(self, chi, d):
        assert chi.deriv2 is None and chi.taylor is not None
        assert shape_normalization(RecoveryInput(chi, d)) == pytest.approx(
            1.0, abs=1e-8)


class TestD2CompactSupport:
    """chi = (1 - t)_+^2, with chi''(1-) = 2: its d=3 diameter law has
    density 2w/3 and an atom of 2/3 at 1, so plane slices of those balls
    have the cdf 1 - sqrt(1 - s^2), and the d=2 shape is
    (4/pi) arccosh(1/(2u))."""

    CHI = RadialFunction(
        name="(1-t)_+^2",
        func=lambda t: np.maximum(0.0, 1.0 - t) ** 2,
        deriv1=lambda t: np.where(t < 1.0, -2.0 * (1.0 - t), 0.0),
        deriv2=lambda t: np.where(t < 1.0, 2.0, 0.0),
        deriv3=lambda t: np.zeros(np.shape(t)),
        kinks=(1.0,), support_bound=1.0)
    INP = RecoveryInput(chi=CHI, dim=2)
    S = np.array([0.1, 0.5, 0.9, 0.99])

    def test_shape(self):
        u = np.array([0.05, 0.2, 0.4])
        assert recover_shape(self.INP, u) == pytest.approx(
            4.0 / math.pi * np.arccosh(1.0 / (2.0 * u)), rel=1e-12)
        assert shape_normalization(self.INP) == pytest.approx(1.0, abs=1e-8)

    def test_cdf(self):
        law = recover_radius_law(self.INP)
        assert law.atoms == ()
        assert [law.cdf_value(s) for s in self.S] == pytest.approx(
            1.0 - np.sqrt(1.0 - self.S**2), abs=1e-12)

    def test_density(self):
        density = recover_radius_density(self.INP, self.S)
        assert isinstance(density, np.ndarray)
        # The slice term takes the d=3 atom from one-sided limits of the
        # d=3 cdf at a relative offset of 1e-7, so it is 1e-7 off.
        assert density == pytest.approx(
            self.S / np.sqrt(1.0 - self.S**2), rel=1e-6)
        assert radius_normalization(self.INP) == pytest.approx(1.0,
                                                               abs=1e-6)

    def mixture(self):
        """Half (1 - t)_+^2 and half (1 - t/2)_+^2."""
        def mix(order):
            return lambda t: 0.5 * (self.CHI.derivative(t, order)
                                    + self.CHI.derivative(t / 2.0, order)
                                    / 2.0**order)

        return RadialFunction(
            "mixture", lambda t: 0.5 * (self.CHI(t) + self.CHI(t / 2.0)),
            deriv1=mix(1), deriv2=mix(2), deriv3=mix(3), kinks=(1.0, 2.0),
            support_bound=2.0)

    def test_interior_atom(self):
        # The d=3 atom at the interior kink 1 of the mixture slices into a
        # density that grows like (1 - s)^(-1/2) below it, and the law
        # still has unit mass.
        inp = RecoveryInput(chi=self.mixture(), dim=2)
        law = recover_radius_law(inp)
        s = np.array([0.5, 0.99, 1.5, 1.99])
        exact = 1.0 - 0.5 * (np.sqrt(np.maximum(0.0, 1.0 - s**2))
                             + np.sqrt(1.0 - s**2 / 4.0))
        assert law.atoms == ()
        assert [law.cdf_value(x) for x in s] == pytest.approx(exact,
                                                              abs=1e-12)
        assert radius_normalization(inp) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("s", [1.0 - 1e-13, 2.0 - 1e-13, 1.0, 2.0])
    def test_cdf_next_to_a_kink_stays_put(self, s):
        # The d=2 law has no atom, so a query next to a kink of chi is
        # not moved past it (it read 1.0 at 2 - 1e-13, exact 1 - 1.6e-7).
        inp = RecoveryInput(chi=self.mixture(), dim=2)
        exact = 1.0 - 0.5 * (math.sqrt(max(0.0, 1.0 - s**2))
                             + math.sqrt(1.0 - s**2 / 4.0))
        got = recover_radius_law(inp).cdf_value(s)
        assert got == pytest.approx(_diameter_cdf_smooth(inp, s), abs=1e-9)
        assert got == pytest.approx(exact, abs=1e-9)

    def test_shape_rebuilds_chi(self):
        f = radial_from_callable(
            "recovered_d2", lambda u: recover_shape(self.INP, max(u, 1e-12)),
            kinks=(0.5,), support_bound=0.5)
        model = M2rModel(dim=2, shape=f, normalization_tol=1e-5)
        for t in [0.2, 0.5, 0.8]:
            assert tcf(model, t, tol=1e-10) == pytest.approx((1.0 - t) ** 2,
                                                             abs=1e-8)


class TestD2SmoothSlices:
    def test_exponential_radius_round_trip(self):
        # R ~ Exp(1): the d=2 M3b TCF, taken back to its diameter law, gives
        # the cdf 1 - e^{-s/2} and the density e^{-s/2} / 2.
        model = M3bModel(dim=2, radius=exponential_dist(1.0))
        chi = RadialFunction("m3b_exp", lambda t: tcf(model, t, tol=1e-13))
        inp = RecoveryInput(chi=chi, dim=2)
        law = recover_radius_law(inp)
        s = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
        assert [law.cdf_value(x) for x in s] == pytest.approx(
            -np.expm1(-s / 2.0), abs=1e-8)
        assert recover_radius_density(inp, s[1:5]) == pytest.approx(
            0.5 * np.exp(-s[1:5] / 2.0), rel=1e-6)

    @pytest.mark.parametrize("chi", [erfc_sqrt_chi(), generalized_cauchy(1.0),
                                     exponential_decay()],
                             ids=["erfc_sqrt", "cauchy", "exp"])
    def test_slice_is_smaller_than_ball(self, chi):
        # Valid in d=3, so each d=2 disc is a plane slice of a d=3 ball:
        # K_2(s) >= K_3(s) at every s.
        cdfs = [recover_radius_law(RecoveryInput(chi=chi, dim=d)).cdf_value
                for d in (2, 3)]
        for s in [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
            assert cdfs[0](s) > cdfs[1](s)


class TestConsistencyLoop:
    """The three storm constructions recovered from one TCF all rebuild it."""

    @pytest.mark.parametrize("dim", [1, 3])
    def test_erfc_sqrt_round_trip(self, dim):
        chi = erfc_sqrt_chi()
        inp = RecoveryInput(chi=chi, dim=dim)

        shape = radial_from_callable(
            "recovered_shape",
            lambda u: recover_shape(inp, max(u, 1e-12)),
            zero_exponent=-2.5 if dim == 3 else -0.5)
        m2r = M2rModel(dim=dim, shape=shape, normalization_tol=1e-5)

        law = recover_radius_law(inp)
        diam = Distribution1D(
            name="recovered_radius", cdf=lambda s: law.cdf_value(2.0 * s),
            pdf=lambda s: 2.0 * law.pdf(2.0 * s),
            support=(0.0, math.inf), pdf_singular_exponent=-0.5)
        m3b = M3bModel(dim=dim, radius=diam)

        for t in [0.05, 0.2, 1.0, 2.5, 5.0]:
            target = float(chi(t))
            assert tcf(m2r, t, tol=1e-8) == pytest.approx(target, abs=1e-4)
            assert tcf(m3b, t, tol=1e-8) == pytest.approx(target, abs=1e-4)


class TestFandH:
    def test_point_mass_d1(self):
        H = point_mass(2.0)
        # f(u) = (s0/2) for u <= 1/s0 (kappa_1 = 2), 0 beyond.
        assert f_from_H(H, 1, 0.3) == pytest.approx(1.0, abs=1e-14)
        assert f_from_H(H, 1, 0.5) == pytest.approx(1.0, abs=1e-14)  # at 1/s0
        assert f_from_H(H, 1, 0.6) == 0.0

    def test_exponential_round_trip_d3(self):
        # H(s) = 1 - e^{-s}: map to f, back to H, compare on a grid.
        H = from_cdf("one_minus_exp", lambda s: -math.expm1(-s),
                     pdf=lambda s: math.exp(-s))
        f = radial_from_callable("f_of_H",
                                 lambda u: f_from_H(H, 3, max(u, 1e-9)))
        for s in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
            assert H_from_f(f, 3, s) == pytest.approx(-math.expm1(-s),
                                                      abs=1e-6)

    def test_ball_indicator_maps_to_point_mass(self):
        # f = normalized indicator of radius r0: 1/R is a point mass at
        # 1/r0, so H(s) jumps from 0 to 1 there.
        r0 = 2.0
        height = 1.0 / (kappa_d(3) * r0**3)
        f = radial_from_callable(
            "ball", lambda u: height if u < r0 else 0.0,
            deriv1=lambda u: 0.0, kinks=(r0,), support_bound=r0)
        assert H_from_f(f, 3, 1.0 / r0 * 0.99) == pytest.approx(0.0, abs=1e-12)
        assert H_from_f(f, 3, 1.0 / r0) == pytest.approx(1.0, abs=1e-9)
        assert H_from_f(f, 3, 5.0) == pytest.approx(1.0, abs=1e-9)

    def test_beyond_support_is_zero(self):
        H = point_mass(2.0)
        assert f_from_H(H, 2, 10.0) == 0.0

    def test_guards(self):
        H = point_mass(1.0)
        with pytest.raises(DomainError):
            f_from_H(H, 0, 1.0)
        with pytest.raises(DomainError):
            f_from_H(H, 1, 0.0)


def _polyline(t):
    # Convex polyline with kinks at 1/2 and 3/2; numeric derivatives only.
    if t < 0.5:
        return 1.0 - t
    return max(0.0, 0.75 - 0.5 * t)


class TestFloatRule:
    """Every recovery function of distance takes a float or an array, and a
    float gets the bits of the matching array entry."""

    GRID = np.array([0.05, 0.3, 0.5, 0.7, 1.0, 1.9, 4.0])
    # Cauchy without chi'' and chi''', so d = 2 takes numeric ones.
    CHIS = {"erfc_sqrt": erfc_sqrt_chi(), "exp": exponential_decay(),
            "cauchy": dataclasses.replace(generalized_cauchy(1.0),
                                          deriv2=None, deriv3=None)}

    @classmethod
    def points(cls, layout, lead=()):
        """``lead`` and then GRID, in a line or the first six as a 2 x 3
        matrix."""
        points = np.concatenate([lead, cls.GRID])
        return points if layout == "line" else points[:6].reshape(2, 3)

    @pytest.mark.parametrize("layout", ["line", "matrix"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", list(CHIS))
    def test_recover_shape(self, name, dim, layout):
        inp = RecoveryInput(chi=self.CHIS[name], dim=dim)
        values = assert_entrywise(lambda u: recover_shape(inp, u),
                                  self.points(layout))
        assert np.all(values > 0)

    @pytest.mark.parametrize("u", [0.3, np.array([[0.3, 1.0]])])
    def test_distance_by_keyword(self, u):
        inp = RecoveryInput(chi=exponential_decay(), dim=2)
        got = recover_shape(inp, u=u, tol=1e-9)
        assert np.array_equal(got, recover_shape(inp, u, tol=1e-9))
        assert type(got) is type(recover_shape(inp, u))
        assert np.array_equal(lambda_chi(inp=inp, t=u), lambda_chi(inp, u))
        with pytest.raises(TypeError, match="'u'"):
            recover_shape(inp)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", list(CHIS))
    def test_recover_radius_density(self, name, dim):
        inp = RecoveryInput(chi=self.CHIS[name], dim=dim)
        assert_entrywise(lambda s: recover_radius_density(inp, s), self.GRID)

    @pytest.mark.parametrize("layout", ["line", "matrix"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lambda_chi(self, dim, layout):
        inp = RecoveryInput(chi=erfc_sqrt_chi(), dim=dim)
        assert_entrywise(lambda t: lambda_chi(inp, t), self.points(layout))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_law_pdf(self, dim):
        law = recover_radius_law(RecoveryInput(chi=erfc_sqrt_chi(), dim=dim))
        grid = np.concatenate([[-1.0, 0.0], self.GRID])
        values = assert_entrywise(law.pdf, grid)
        assert values[0] == values[1] == 0.0
        assert np.all(values[2:] > 0)

    def test_law_pdf_is_zero_where_a_derivative_is_refused(self):
        # (1 - s)^1.5 has a kink at 1 and numeric chi'': at 0.9999 the
        # stencil would cross the kink, so the density part reads 0 there
        # (and at the kink itself, the support's end).
        law = recover_radius_law(RecoveryInput(chi=truncated_power(1.5),
                                               dim=1))
        grid = np.array([0.3, 0.9999, 1.0, 0.5])
        values = assert_entrywise(law.pdf, grid)
        assert values[1] == values[2] == 0.0
        assert values[0] == pytest.approx(0.3 * 0.75 / math.sqrt(0.7),
                                          rel=1e-7)
        assert values[3] == pytest.approx(0.5 * 0.75 / math.sqrt(0.5),
                                          rel=1e-7)
        with pytest.raises(KinkError):
            recover_radius_density(
                RecoveryInput(chi=truncated_power(2.0), dim=1), grid)

    LAWS = {
        "exp_array_pdf": exponential_dist(1.0),
        "exp_float_pdf": from_cdf("one_minus_exp", lambda s: -math.expm1(-s),
                                  pdf=lambda s: math.exp(-s)),
        "point_mass": point_mass(2.0),
    }

    @pytest.mark.parametrize("layout", ["line", "matrix"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", list(LAWS))
    def test_f_from_H(self, name, d, layout):
        assert_entrywise(lambda u: f_from_H(self.LAWS[name], d, u),
                         self.points(layout))

    SHAPES = {
        "exp": exponential_decay(),
        "tent": tent(),
        "polyline": radial_from_callable("polyline", _polyline,
                                         kinks=(0.5, 1.5), support_bound=1.5),
        "ball": radial_from_callable(
            "ball", lambda u: 1.0 if u < 2.0 else 0.0, deriv1=lambda u: 0.0,
            kinks=(2.0,), support_bound=2.0),
    }

    @pytest.mark.parametrize("layout", ["line", "matrix"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", list(SHAPES))
    def test_H_from_f(self, name, d, layout):
        values = assert_entrywise(
            lambda s: H_from_f(self.SHAPES[name], d, s),
            self.points(layout, lead=[-1.0, 0.0]))
        assert values.flat[0] == values.flat[1] == 0.0
