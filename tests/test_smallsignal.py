"""Loop characteristics, gain scheduling, and the active open loop's Bode response and
phase margin."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vsglab.grid import JacobianPQ, scr_to_impedance, solve_operating_point, jacobian
from vsglab.smallsignal import (VsgGains, DesignTargets,
                                DesignRegionError, SchedulingError, NoCrossoverError,
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
# benchmark's grids (2, 8, 20) and two between them, each with the fixed
# baseline and with its scheduled gains
SCRS = (2.0, 3.3, 8.0, 12.7, 20.0)
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
    # |L(j w_c)| = 1 gives w_c^4 + b^2 w_c^2 - c^2 = 0, and the phase there is
    # -90 deg - atan(w_c / b), so the margin is atan(b / w_c)
    g, a = design(scr, scheduled)
    b, c = g.d_p * g.k_ip, a * g.k_ip
    w_c = math.sqrt((math.sqrt(b ** 4 + 4.0 * c * c) - b * b) / 2.0)
    assert abs(phase_margin(bode(g, a)) - math.degrees(math.atan(b / w_c))) < 0.01


# the control law K_ip / (s^2 + D_p K_ip s) is the open loop at A = 1

def test_control_tf_p_integrates_at_dc():
    g = VsgGains(d_p=2.0, k_ip=1.0, d_q=1.0, k_iq=1.0)
    assert bode(g, 1.0, np.array([1e-9])).mag_db[0] > 160.0   # |L| > 1e8


def test_open_loop_requires_positive_static_gain():
    with pytest.raises(DesignRegionError):
        bode(BASELINE, 0.0)
    with pytest.raises(DesignRegionError):
        q_loop_info(BASELINE, -5.0)


def test_phase_margin_requires_crossover():
    # A = 1e9 puts the baseline loop's crossover near 2.8e3 rad/s, above the grid's 1e3
    with pytest.raises(NoCrossoverError, match="from 0.01 to 1000 rad/s"):
        phase_margin(bode(BASELINE, 1e9))


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

def test_frequency_response_csv_loads_back_exactly(tmp_path):
    fr = bode(BASELINE, 10000.0)
    path = tmp_path / "bode.csv"
    write_frequency_response_csv(fr, path)
    data = read_table(path, ["omega_rad_s", "mag_db", "phase_deg"])
    np.testing.assert_array_equal(data.T, [fr.omega, fr.mag_db, fr.phase_deg])


def test_unwrapped_phase_is_continuous():
    fr = bode(BASELINE, 10000.0)
    assert np.all(np.abs(np.diff(fr.phase_deg)) < 180.0)


def test_fixed_gain_phase_margin_decreases_with_grid_strength():
    pm = [phase_margin(bode(BASELINE, solved_jacobian(scr).a))
          for scr in (2.0, 8.0, 20.0)]
    assert pm[0] > pm[1] > pm[2]


def test_scheduled_phase_margin_is_invariant():
    pm = []
    for scr in (2.0, 8.0, 20.0):
        j = solved_jacobian(scr)
        pm.append(phase_margin(bode(schedule_gains(j), j.a)))
    assert max(pm) - min(pm) < 0.1


def test_gains_must_be_positive():
    with pytest.raises(ValueError):
        VsgGains(d_p=0.0, k_ip=1.0, d_q=1.0, k_iq=1.0)
