"""Loop transfer functions, gain scheduling, and Bode/phase-margin tools."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vsglab.grid import JacobianPQ, scr_to_impedance, solve_operating_point, jacobian
from vsglab.smallsignal import (VsgGains, DesignTargets, TransferFunction,
                                DesignRegionError, SchedulingError, NoCrossoverError,
                                ExcludedPointError,
                                open_loop_p, p_loop_info,
                                q_loop_info, schedule_gains, bode, phase_margin,
                                default_omega_grid, write_frequency_response_csv)
from vsglab.tables import read_table

BASELINE = VsgGains(d_p=2087.0, k_ip=0.00767, d_q=0.687, k_iq=0.115)


def jac(a, d):
    return JacobianPQ(a=a, b=0.0, c=0.0, d=d)


def solved_jacobian(scr, p=2000.0, q=1000.0):
    z = scr_to_impedance(scr, 5.0)
    return jacobian(solve_operating_point(p, q, z), z)


# --- transfer-function forms -------------------------------------------------

# the control law K_ip / (s^2 + D_p K_ip s) is the open loop at A = 1

def test_control_tf_p_coefficients():
    tf = open_loop_p(VsgGains(d_p=2.0, k_ip=1.0, d_q=1.0, k_iq=1.0), 1.0)
    assert tf.num == (1.0,)
    assert tf.den == (0.0, 2.0, 1.0)


def test_control_tf_p_baseline_damping_product():
    tf = open_loop_p(BASELINE, 1.0)
    assert tf.den[1] == pytest.approx(16.007, abs=1e-3)


def test_control_tf_p_integrates_at_dc():
    tf = open_loop_p(VsgGains(d_p=2.0, k_ip=1.0, d_q=1.0, k_iq=1.0), 1.0)
    assert bode(tf, np.array([1e-9])).mag_db[0] > 160.0   # |tf| > 1e8


def test_transfer_function_validation():
    with pytest.raises(ValueError):
        TransferFunction(num=(1.0,), den=(1.0, 0.0))
    with pytest.raises(ValueError):
        TransferFunction(num=(math.nan,), den=(1.0,))


def test_open_loop_requires_positive_static_gain():
    with pytest.raises(DesignRegionError):
        open_loop_p(BASELINE, 0.0)
    with pytest.raises(DesignRegionError):
        q_loop_info(BASELINE, -5.0)


# --- gain scheduling ---------------------------------------------------------

def test_schedule_gains_worked_example():
    g = schedule_gains(jac(10000.0, 100.0))
    assert g.d_p == pytest.approx(5000.0, rel=1e-12)
    assert g.k_ip == pytest.approx(0.0016, rel=1e-12)
    assert g.d_q == pytest.approx(1.0, rel=1e-12)
    assert g.k_iq == pytest.approx(4.0 / 101.0, rel=1e-12)


def test_schedule_gains_rejects_nonpositive_entries():
    with pytest.raises(SchedulingError):
        schedule_gains(jac(0.0, 100.0))
    with pytest.raises(SchedulingError):
        schedule_gains(jac(10000.0, -1.0))


@given(st.floats(1e-2, 1e6), st.floats(1e-2, 1e6))
def test_scheduled_p_loop_characteristic_polynomial(a, d):
    g = schedule_gains(jac(a, d))
    # the closed loop K_ip A / (s^2 + D_p K_ip s + K_ip A) has the characteristic
    # polynomial s^2 + 8 s + 16, independent of the operating point
    assert abs(g.d_p * g.k_ip - 8.0) <= 8e-12
    assert abs(g.k_ip * a - 16.0) <= 16e-12


@given(st.floats(1e-2, 1e6), st.floats(1e-2, 1e6))
def test_scheduled_q_loop_pole_and_dc_gain(a, d):
    g = schedule_gains(jac(a, d))
    info = q_loop_info(g, d)
    assert abs(info.pole + 4.0) <= 4e-12
    assert abs(info.y_inf - 100.0 / 101.0) <= 1e-12
    assert info.e_inf == pytest.approx(1.0 / 101.0, rel=1e-12)


def test_scheduled_p_loop_is_critically_damped():
    info = p_loop_info(schedule_gains(jac(3000.0, 50.0)), 3000.0)
    assert info.omega_n == pytest.approx(4.0, rel=1e-12)
    assert info.xi == pytest.approx(1.0, rel=1e-12)
    assert info.t_s_rule == pytest.approx(1.0, rel=1e-12)


def test_schedule_gains_custom_targets():
    g = schedule_gains(jac(1000.0, 10.0), DesignTargets(t_s=2.0, xi=0.7))
    info = p_loop_info(g, 1000.0)
    assert info.xi == pytest.approx(0.7, rel=1e-12)
    assert info.t_s_rule == pytest.approx(2.0, rel=1e-12)


# --- bode and phase margin ---------------------------------------------------

def test_phase_margin_pure_integrator():
    assert phase_margin(bode(TransferFunction(num=(1.0,), den=(0.0, 1.0)))) \
        == pytest.approx(90.0, abs=1e-6)


def test_phase_margin_double_integrator():
    assert phase_margin(bode(TransferFunction(num=(1.0,), den=(0.0, 0.0, 1.0)))) \
        == pytest.approx(0.0, abs=1e-6)


def test_phase_margin_requires_crossover():
    # static gain below unity never crosses 0 dB
    with pytest.raises(NoCrossoverError):
        phase_margin(bode(TransferFunction(num=(0.5,), den=(1.0,))))


def test_frequency_response_csv_loads_back_exactly(tmp_path):
    fr = bode(open_loop_p(BASELINE, 10000.0))
    path = tmp_path / "bode.csv"
    write_frequency_response_csv(fr, path)
    data = read_table(path, ["omega_rad_s", "mag_db", "phase_deg"])
    np.testing.assert_array_equal(data.T, [fr.omega, fr.mag_db, fr.phase_deg])


def test_bode_of_product_is_sum_of_factors():
    f1 = TransferFunction(num=(1.0,), den=(1.0, 1.0))
    f2 = TransferFunction(num=(2.0,), den=(1.0, 0.3, 1.0))
    f12 = TransferFunction(num=(2.0,), den=(1.0, 1.3, 1.3, 1.0))   # (1 + s)(1 + 0.3 s + s^2)
    w = default_omega_grid()
    fr1, fr2, fr12 = bode(f1, w), bode(f2, w), bode(f12, w)
    np.testing.assert_allclose(fr12.mag_db, fr1.mag_db + fr2.mag_db, atol=1e-9)
    np.testing.assert_allclose(fr12.phase_deg, fr1.phase_deg + fr2.phase_deg, atol=1e-9)


def test_bode_rejects_a_grid_point_on_an_imaginary_axis_pole():
    # 1 / (1 + s^2) has its poles at s = +-j; the grid hits omega = 1 exactly
    with pytest.raises(ExcludedPointError):
        bode(TransferFunction((1.0,), (1.0, 0.0, 1.0)), np.array([0.5, 1.0, 2.0]))


def test_unwrapped_phase_is_continuous():
    fr = bode(open_loop_p(BASELINE, 10000.0))
    assert np.all(np.abs(np.diff(fr.phase_deg)) < 180.0)


def test_fixed_gain_phase_margin_decreases_with_grid_strength():
    pm = [phase_margin(bode(open_loop_p(BASELINE, solved_jacobian(scr).a)))
          for scr in (2.0, 8.0, 20.0)]
    assert pm[0] > pm[1] > pm[2]


def test_scheduled_phase_margin_is_invariant():
    pm = []
    for scr in (2.0, 8.0, 20.0):
        j = solved_jacobian(scr)
        pm.append(phase_margin(bode(open_loop_p(schedule_gains(j), j.a))))
    assert max(pm) - min(pm) < 0.1


def test_gains_must_be_positive():
    with pytest.raises(ValueError):
        VsgGains(d_p=0.0, k_ip=1.0, d_q=1.0, k_iq=1.0)
