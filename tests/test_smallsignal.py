"""Loop characteristics, gain scheduling, and the active open loop's Bode response and
phase margin."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vsglab.grid import JacobianPQ, scr_to_impedance, solve_operating_point, jacobian
from vsglab.smallsignal import (VsgGains, DesignTargets,
                                DesignRegionError, SchedulingError,
                                p_loop_info, q_loop_info, schedule_gains, bode, phase_margin,
                                write_frequency_response_csv)
from vsglab.tables import read_table

BASELINE = VsgGains(d_p=2087.0, k_ip=0.00767, d_q=0.687, k_iq=0.115)


def jac(a, d):
    return JacobianPQ(a=a, b=0.0, c=0.0, d=d)


def solved_jacobian(scr, p=2000.0, q=1000.0):
    z = scr_to_impedance(scr, 5.0)
    return jacobian(solve_operating_point(p, q, z), z)


# --- the active open loop ----------------------------------------------------

# L(s) = c / (s (s + b)) with b = D_p K_ip and c = A K_ip; the SCRs are the
# benchmark's grids (2, 8, 20), two between them and one so stiff that the fixed
# baseline crosses 0 dB above the default curve's 1e3 rad/s, each with the fixed
# baseline and with its scheduled gains
SCRS = (2.0, 3.3, 8.0, 12.7, 20.0, 1e5)
DESIGNS = [pytest.param(scr, scheduled, id=f"scr{scr:g}-{'scheduled' if scheduled else 'fixed'}")
           for scr in SCRS for scheduled in (False, True)]


def design(scr, scheduled):
    """(gains, A) of the active loop at `scr`."""
    j = solved_jacobian(scr)
    return (schedule_gains(j) if scheduled else BASELINE), j.a


@pytest.mark.parametrize("scr, scheduled", DESIGNS)
def test_bode_is_the_active_loop_in_closed_form(scr, scheduled):
    g, a = design(scr, scheduled)
    b, c = g.d_p * g.k_ip, a * g.k_ip
    fr = bode(g, a)
    w = fr.omega
    np.testing.assert_allclose(10.0 ** (fr.mag_db / 20.0), c / (w * np.sqrt(w * w + b * b)),
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fr.phase_deg, -90.0 - np.degrees(np.arctan(w / b)),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scr, scheduled", DESIGNS)
def test_phase_margin_is_the_closed_form_within_a_hundredth_of_a_degree(scr, scheduled):
    # the margin, computed from xi, against the sampled curve at the crossover w_c,
    # the positive root of w_c^4 + b^2 w_c^2 - c^2 = 0 (|L(j w_c)| = 1)
    g, a = design(scr, scheduled)
    b, c = g.d_p * g.k_ip, a * g.k_ip
    w_c = math.sqrt(2.0 * c * c / (math.sqrt(b ** 4 + 4.0 * c * c) + b * b))
    fr = bode(g, a, np.array([w_c]))
    assert abs(fr.mag_db[0]) < 1e-9
    assert abs(180.0 + fr.phase_deg[0] - phase_margin(g, a)) < 1e-9


@pytest.mark.parametrize("xi, margin", [(1e200, 90.0), (1e-200, math.degrees(2e-200))])
def test_phase_margin_holds_at_extreme_damping(xi, margin):
    # omega_n = sqrt(K_ip A) = 1, so xi = D_p / 2, and 2 xi^2 overflows or underflows
    g = VsgGains(d_p=2.0 * xi, k_ip=1.0, d_q=1.0, k_iq=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phase_margin(g, 1.0) == pytest.approx(margin, rel=1e-12)


# the control law K_ip / (s^2 + D_p K_ip s) is the open loop at A = 1

def test_control_tf_p_integrates_at_dc():
    g = VsgGains(d_p=2.0, k_ip=1.0, d_q=1.0, k_iq=1.0)
    assert bode(g, 1.0, np.array([1e-9])).mag_db[0] > 160.0   # |L| > 1e8


def test_open_loop_requires_positive_static_gain():
    with pytest.raises(DesignRegionError):
        bode(BASELINE, 0.0)
    with pytest.raises(DesignRegionError):
        phase_margin(BASELINE, 0.0)
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


# --- the sampled curve ------------------------------------------------------

def test_frequency_response_csv_loads_back_exactly(tmp_path):
    fr = bode(BASELINE, 10000.0)
    path = tmp_path / "bode.csv"
    write_frequency_response_csv(fr, path)
    data = read_table(path, ["omega_rad_s", "mag_db", "phase_deg"])
    np.testing.assert_array_equal(data.T, [fr.omega, fr.mag_db, fr.phase_deg])


def test_unwrapped_phase_is_continuous():
    fr = bode(BASELINE, 10000.0)
    assert np.all(np.abs(np.diff(fr.phase_deg)) < 180.0)


def test_gains_must_be_positive():
    with pytest.raises(ValueError):
        VsgGains(d_p=0.0, k_ip=1.0, d_q=1.0, k_iq=1.0)
