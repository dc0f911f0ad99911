"""Unit tests for the SecondOrderModel closed forms."""

import math

import numpy as np
import pytest

from repro.analysis import SecondOrderModel
from repro.errors import ElementValueError

WN = 1e10


class TestConstruction:
    def test_from_sums_single_section(self):
        # eqs. 29-30 degenerate to eqs. 14-15 for one section.
        r, l, c = 10.0, 2e-9, 1e-12
        model = SecondOrderModel.from_sums(r * c, l * c)
        assert model.omega_n == pytest.approx(1.0 / math.sqrt(l * c))
        assert model.zeta == pytest.approx(0.5 * r * math.sqrt(c / l))

    def test_from_moments_round_trip(self):
        model = SecondOrderModel(zeta=0.6, omega_n=WN)
        m = model.moments(2)
        again = SecondOrderModel.from_moments(m[1], m[2])
        assert again.zeta == pytest.approx(0.6)
        assert again.omega_n == pytest.approx(WN)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ElementValueError):
            SecondOrderModel(zeta=0.0, omega_n=WN)
        with pytest.raises(ElementValueError):
            SecondOrderModel(zeta=0.5, omega_n=-1.0)
        with pytest.raises(ElementValueError):
            SecondOrderModel(zeta=math.inf, omega_n=WN)

    def test_from_sums_validation(self):
        with pytest.raises(ElementValueError):
            SecondOrderModel.from_sums(-1e-10, 1e-20)
        with pytest.raises(ElementValueError, match="RC node"):
            SecondOrderModel.from_sums(1e-10, 0.0)

    def test_from_moments_validation(self):
        with pytest.raises(ElementValueError):
            SecondOrderModel.from_moments(1e-10, 1e-20)  # m1 positive
        with pytest.raises(ElementValueError):
            SecondOrderModel.from_moments(-1e-10, 2e-20)  # m1^2 < m2


class TestPoles:
    def test_underdamped_conjugate_pair(self):
        model = SecondOrderModel(zeta=0.5, omega_n=WN)
        p1, p2 = model.poles()
        assert p1 == p2.conjugate()
        assert p1.real == pytest.approx(-0.5 * WN)
        assert abs(p1.imag) == pytest.approx(WN * math.sqrt(0.75))

    def test_overdamped_real_pair(self):
        model = SecondOrderModel(zeta=2.0, omega_n=WN)
        p1, p2 = model.poles()
        assert p1.imag == 0.0 and p2.imag == 0.0
        assert p1.real * p2.real == pytest.approx(WN * WN)  # product = wn^2

    def test_poles_satisfy_characteristic_eq(self):
        for zeta in (0.3, 1.0, 2.5):
            model = SecondOrderModel(zeta=zeta, omega_n=WN)
            for p in model.poles():
                residual = 1.0 + 2 * zeta * p / WN + (p / WN) ** 2
                assert abs(residual) < 1e-9


class TestMomentsAndTransfer:
    def test_low_order_moments(self):
        model = SecondOrderModel(zeta=0.7, omega_n=WN)
        m = model.moments(2)
        assert m[0] == 1.0
        assert m[1] == pytest.approx(-2 * 0.7 / WN)
        assert m[2] == pytest.approx((2 * 0.7 / WN) ** 2 - 1.0 / WN**2)

    def test_transfer_function_at_poles_is_large(self):
        model = SecondOrderModel(zeta=0.4, omega_n=WN)
        p1, _ = model.poles()
        near = model.transfer_function(p1 * (1 + 1e-8))
        assert abs(near) > 1e6

    def test_dc_gain_unity(self):
        model = SecondOrderModel(zeta=1.3, omega_n=WN)
        assert complex(model.transfer_function(0.0)).real == pytest.approx(1.0)

    def test_moments_match_transfer_function_derivative(self):
        model = SecondOrderModel(zeta=0.9, omega_n=WN)
        s = 1e-4 * WN
        # Central difference kills the even-order terms.
        numeric_m1 = (
            complex(model.transfer_function(s)).real
            - complex(model.transfer_function(-s)).real
        ) / (2 * s)
        assert numeric_m1 == pytest.approx(model.moments(1)[1], rel=1e-6)


class TestStepResponse:
    @pytest.mark.parametrize("zeta", [0.2, 0.7, 1.0, 1.5, 4.0])
    def test_boundary_values(self, zeta):
        model = SecondOrderModel(zeta=zeta, omega_n=WN)
        horizon = 50.0 * max(zeta, 1.0 / zeta) / WN
        t = np.linspace(0, horizon, 4000)
        v = model.step_response(t)
        assert v[0] == pytest.approx(0.0, abs=1e-12)
        assert v[-1] == pytest.approx(1.0, rel=1e-3)

    def test_negative_time_clamped_to_zero(self):
        model = SecondOrderModel(zeta=0.5, omega_n=WN)
        t = np.array([-1e-9, -1e-12, 0.0])
        np.testing.assert_array_equal(model.step_response(t)[:2], [0.0, 0.0])

    def test_underdamped_overshoots_supply(self):
        model = SecondOrderModel(zeta=0.3, omega_n=WN)
        t = np.linspace(0, 30 / WN, 5000)
        assert model.step_response(t).max() > 1.3

    def test_overdamped_monotone(self):
        model = SecondOrderModel(zeta=2.0, omega_n=WN)
        t = np.linspace(0, 100 / WN, 5000)
        v = model.step_response(t)
        assert np.all(np.diff(v) >= -1e-12)
        assert v.max() <= 1.0 + 1e-9

    def test_continuity_across_critical_damping(self):
        """The whole point: one continuous formula through zeta = 1."""
        t = np.linspace(0, 20 / WN, 500)
        below = SecondOrderModel(zeta=1.0 - 1e-6, omega_n=WN).step_response(t)
        at = SecondOrderModel(zeta=1.0, omega_n=WN).step_response(t)
        above = SecondOrderModel(zeta=1.0 + 1e-6, omega_n=WN).step_response(t)
        np.testing.assert_allclose(below, at, atol=1e-4)
        np.testing.assert_allclose(above, at, atol=1e-4)

    def test_scaled_response_is_time_scaling(self):
        model = SecondOrderModel(zeta=0.8, omega_n=WN)
        t = np.linspace(0, 20 / WN, 300)
        np.testing.assert_allclose(
            model.step_response(t), model.scaled_step_response(WN * t), atol=1e-12
        )

    def test_scaled_response_independent_of_wn(self):
        tau = np.linspace(0, 15, 200)
        a = SecondOrderModel(zeta=0.6, omega_n=1e9).scaled_step_response(tau)
        b = SecondOrderModel(zeta=0.6, omega_n=1e12).scaled_step_response(tau)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_step_delay(self):
        model = SecondOrderModel(zeta=0.8, omega_n=WN)
        t = np.linspace(0, 20 / WN, 401)
        delayed = model.step_response(t, delay=5 / WN)
        assert np.all(delayed[t < 5 / WN] == 0.0)


class TestImpulseResponse:
    @pytest.mark.parametrize("zeta", [0.3, 1.0, 2.0])
    def test_impulse_is_step_derivative(self, zeta):
        model = SecondOrderModel(zeta=zeta, omega_n=WN)
        t = np.linspace(0, 30 / WN, 20001)
        step = model.step_response(t)
        numeric = np.gradient(step, t)
        analytic = model.impulse_response(t)
        # Compare away from the t=0 kink.
        np.testing.assert_allclose(
            analytic[10:-10], numeric[10:-10], atol=2e-3 * analytic.max()
        )

    @pytest.mark.parametrize("zeta", [0.3, 1.0, 2.0])
    def test_unit_area(self, zeta):
        model = SecondOrderModel(zeta=zeta, omega_n=WN)
        t = np.linspace(0, 60 * max(zeta, 1.0 / zeta) / WN, 40001)
        area = np.trapezoid(model.impulse_response(t), t)
        assert area == pytest.approx(1.0, rel=1e-4)


class TestShapedInputs:
    def test_exponential_response_limits(self):
        model = SecondOrderModel(zeta=0.7, omega_n=WN)
        t = np.linspace(0, 60 / WN, 2000)
        v = model.exponential_response(t, tau=3 / WN)
        assert v[0] == pytest.approx(0.0, abs=1e-9)
        assert v[-1] == pytest.approx(1.0, rel=1e-3)

    def test_fast_exponential_approaches_step(self):
        model = SecondOrderModel(zeta=0.7, omega_n=WN)
        t = np.linspace(0, 30 / WN, 1000)
        v_exp = model.exponential_response(t, tau=1e-7 / WN)
        np.testing.assert_allclose(v_exp[5:], model.step_response(t)[5:], atol=1e-4)

    def test_slow_exponential_tracks_input(self):
        model = SecondOrderModel(zeta=0.7, omega_n=WN)
        tau = 1e4 / WN
        t = np.linspace(0, 5 * tau, 500)
        v = model.exponential_response(t, tau=tau)
        np.testing.assert_allclose(
            v[5:], 1.0 - np.exp(-t[5:] / tau), rtol=1e-2
        )

    def test_exponential_resonant_tau_finite(self):
        # tau exactly on a real pole: the limiting form must kick in.
        model = SecondOrderModel(zeta=2.0, omega_n=WN)
        pole = model.poles()[0]
        tau = -1.0 / pole.real
        t = np.linspace(0, 100 / WN, 500)
        v = model.exponential_response(t, tau=tau)
        assert np.all(np.isfinite(v))
        assert v[-1] == pytest.approx(1.0, rel=1e-3)

    def test_ramp_response_final_value(self):
        model = SecondOrderModel(zeta=1.2, omega_n=WN)
        t = np.linspace(0, 200 / WN, 2000)
        v = model.ramp_response(t, rise_time=20 / WN, amplitude=2.0)
        assert v[-1] == pytest.approx(2.0, rel=1e-3)

    def test_slow_ramp_tracks_input(self):
        model = SecondOrderModel(zeta=0.5, omega_n=WN)
        rise = 1e4 / WN
        t = np.linspace(0, rise / 2, 300)
        v = model.ramp_response(t, rise_time=rise)
        expected = t / rise
        np.testing.assert_allclose(v[30:], expected[30:], rtol=2e-2)

    def test_bad_tau_rejected(self):
        model = SecondOrderModel(zeta=0.5, omega_n=WN)
        with pytest.raises(ElementValueError):
            model.exponential_response(np.zeros(2), tau=0.0)
        with pytest.raises(ElementValueError):
            model.ramp_response(np.zeros(2), rise_time=-1.0)


class TestDescriptive:
    def test_damped_frequency(self):
        model = SecondOrderModel(zeta=0.6, omega_n=WN)
        assert model.damped_frequency == pytest.approx(WN * math.sqrt(1 - 0.36))
        assert SecondOrderModel(zeta=2.0, omega_n=WN).damped_frequency == 0.0

    def test_is_underdamped(self):
        assert SecondOrderModel(zeta=0.99, omega_n=WN).is_underdamped
        assert not SecondOrderModel(zeta=1.0, omega_n=WN).is_underdamped

    def test_time_scale(self):
        assert SecondOrderModel(zeta=1.0, omega_n=WN).time_scale == pytest.approx(
            1.0 / WN
        )
