"""Power flow, analytic Jacobian, and SCR/impedance conversions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsglab.grid import (OMEGA0_DEFAULT, V_G, GridImpedance,
                         DegenerateImpedanceError, InfeasibleOperatingPointError,
                         power_flow, jacobian, operating_points,
                         scr_to_impedance, solve_operating_point)
from vsglab.sim import BASELINE_GAINS


def z_rx(r, x):
    return GridImpedance(r, x)


def phasor_oracle(delta, v, z):
    # S = 3 V conj(I), I = (V - Vg) / Z, all phasors per phase RMS
    vbar = v * complex(math.cos(delta), math.sin(delta))
    ibar = (vbar - V_G) / complex(z.r_g, z.x_g)
    s = 3.0 * vbar * ibar.conjugate()
    return s.real, s.imag


# --- worked examples ---------------------------------------------------------

def test_power_flow_zero_angle_equal_voltages():
    p, q = power_flow(0.0, 110.0, z_rx(0.5, 2.0))
    assert p == 0.0 and q == 0.0


def test_power_flow_resistive_divider():
    # purely resistive limit, x_g = 0 allowed when r_g > 0: 11 V across 1.21 ohm
    # carries 9.09 A from 121 V per phase
    p, q = power_flow(0.0, 121.0, z_rx(1.21, 0.0))
    assert p == pytest.approx(3300.0, rel=1e-12)
    assert q == pytest.approx(0.0, abs=1e-9)


def test_power_flow_reactive_line():
    p, q = power_flow(0.1, 110.0, z_rx(0.0, 3.63))
    assert p == pytest.approx(998.33, abs=0.01)
    assert q == pytest.approx(49.96, abs=0.01)


def test_jacobian_reactive_line_values():
    j = jacobian(0.0, 110.0, z_rx(0.0, 3.63))
    assert j.a == pytest.approx(3.0 * 110.0 ** 2 / 3.63, rel=1e-12)  # 10000 W/rad
    assert j.d == pytest.approx(3.0 * 110.0 / 3.63, rel=1e-12)       # 90.91 var/V


def test_scr_to_impedance_weak_grid():
    z = scr_to_impedance(2.0, 5.0)
    assert math.hypot(z.r_g, z.x_g) == pytest.approx(3.63, rel=1e-12)
    assert z.x_g == pytest.approx(3.560, abs=1e-3)
    assert z.r_g == pytest.approx(0.712, abs=1e-3)
    assert z.l_g == pytest.approx(11.33e-3, abs=1e-5)


def test_solve_operating_point_null():
    delta, v = solve_operating_point(0.0, 0.0, z_rx(0.5, 3.0))
    assert delta == pytest.approx(0.0, abs=1e-12)
    assert v == pytest.approx(110.0, abs=1e-9)


def test_solve_operating_point_inverse_of_power_flow():
    z = z_rx(0.0, 3.63)
    delta, v = solve_operating_point(998.33, 49.96, z)
    assert delta == pytest.approx(0.1, abs=1e-4)
    assert v == pytest.approx(110.0, abs=0.01)


# --- invariants --------------------------------------------------------------

def test_impedance_requires_consistent_reactance():
    # the inductance is derived from the reactance, so the two always agree
    assert GridImpedance(r_g=0.1, x_g=1.0).l_g == 1.0 / OMEGA0_DEFAULT
    with pytest.raises(DegenerateImpedanceError):
        GridImpedance(0.0, 0.0)
    with pytest.raises(ValueError):
        GridImpedance(-0.1, 1.0)


def test_infeasible_target_raises():
    # far beyond the line's transfer capability
    with pytest.raises(InfeasibleOperatingPointError):
        solve_operating_point(1e9, 0.0, z_rx(0.0, 3.63))
    # the default targets on an SCR 0.3 grid: the error names the targets, the grid
    # and the limit they break; on an SCR 2 grid 20 kvar is within the limit but
    # needs a PCC voltage far above the grid's
    for scr, q, cause in ((0.3, 1000.0, "beyond the maximum power transfer, (R Q - X P)^2 / 9"),
                          (2.0, 20000.0, "within the maximum power transfer, at a V_pcc "
                                         "outside that range")):
        z = scr_to_impedance(scr, 5.0)
        with pytest.raises(InfeasibleOperatingPointError) as err:
            solve_operating_point(2000.0, q, z)
        assert str(err.value).startswith(
            f"no V_pcc in (55, 165) V with |delta| < pi/2 carries P = 2000.0 W and Q = {q!r} var "
            f"over R = {z.r_g!r} ohm and X = {z.x_g!r} ohm: they are {cause}")


def test_solves_a_grid_at_the_edge_of_double_precision():
    # a nearly ideal, purely resistive grid (|Z| = 7e-10 ohm, X = 7e-310 ohm), where
    # one ulp of V_pcc moves P by 6e-3 W, so no double meets a 1e-9 relative
    # residual: the solved point is as close as a few ulps of V_pcc allow
    z = scr_to_impedance(1e10, 1e-300)
    delta, v = solve_operating_point(2000.0, 1000.0, z)
    (p, q), j = power_flow(delta, v, z), jacobian(delta, v, z)
    ulps = 4.0 * (abs(j.a) * math.ulp(delta) + abs(j.b) * math.ulp(v))
    assert abs(p - 2000.0) <= 1e-9 * 2000.0 + ulps
    assert abs(q - 1000.0) <= 1e-9 * 2000.0


# --- properties --------------------------------------------------------------

valid_deltas = st.floats(-1.4, 1.4)
valid_vs = st.floats(60.0, 160.0)
valid_z = st.builds(
    z_rx,
    st.floats(0.0, 5.0),
    st.floats(0.05, 10.0),
)


@given(valid_deltas, valid_vs, valid_z)
def test_power_flow_matches_phasor_oracle(delta, v, z):
    p, q = power_flow(delta, v, z)
    p_ref, q_ref = phasor_oracle(delta, v, z)
    scale = max(abs(p_ref), abs(q_ref), 1.0)
    assert abs(p - p_ref) <= 1e-9 * scale
    assert abs(q - q_ref) <= 1e-9 * scale


@given(valid_deltas, valid_vs, valid_z)
def test_jacobian_matches_finite_differences(delta, v, z):
    j = jacobian(delta, v, z)
    h_d, h_v = 1e-5, 1e-4
    pp = power_flow(delta + h_d, v, z)
    pm = power_flow(delta - h_d, v, z)
    qp = power_flow(delta, v + h_v, z)
    qm = power_flow(delta, v - h_v, z)
    fd = ((pp[0] - pm[0]) / (2 * h_d), (qp[0] - qm[0]) / (2 * h_v),
          (pp[1] - pm[1]) / (2 * h_d), (qp[1] - qm[1]) / (2 * h_v))
    # all four partials share the 3/|Z|^2 factor, so central-difference
    # truncation error scales with the Jacobian as a whole, not per entry
    scale = max(1.0, abs(j.a), abs(j.b), abs(j.c), abs(j.d))
    for got, ref in zip((j.a, j.b, j.c, j.d), fd):
        assert abs(got - ref) <= 1e-6 * scale


@given(st.floats(0.5, 50.0), st.floats(0.5, 20.0))
def test_scr_round_trip(scr, xr):
    z = scr_to_impedance(scr, xr)
    assert math.hypot(z.r_g, z.x_g) == pytest.approx(3.0 * 110.0 ** 2 / (scr * 5000.0),
                                                     rel=1e-12)
    assert z.x_g / z.r_g == pytest.approx(xr, rel=1e-12)


POINTS = st.tuples(st.floats(0.0, 3000.0), st.floats(-1000.0, 1500.0), st.floats(1.5, 30.0))


@settings(max_examples=50, deadline=None)
@given(st.lists(POINTS, min_size=1, max_size=8), st.sampled_from([0.0, BASELINE_GAINS.d_q]))
def test_solve_is_right_inverse_of_power_flow(points, d_q):
    # with and without the VSG's Q-V droop; each point of one array call is the
    # scalar solve's, bit for bit, and NaN where the scalar solve raises
    zs = [scr_to_impedance(scr, 5.0) for _, _, scr in points]
    deltas, vs = operating_points([p for p, _, _ in points], [q for _, q, _ in points],
                                  [z.r_g for z in zs], [z.x_g for z in zs], d_q=d_q)
    for (p, q, _), z, delta, v in zip(points, zs, deltas, vs):
        try:
            point = solve_operating_point(p, q, z, d_q=d_q)
        except InfeasibleOperatingPointError:
            assert math.isnan(delta) and math.isnan(v)
            continue
        assert np.array(point).tobytes() == np.array([delta, v]).tobytes()
        # the domain every solved point lies in
        assert abs(delta) < math.pi / 2 and 0.5 * 110.0 < v < 1.5 * 110.0
        p_got, q_got = power_flow(delta, v, z)
        scale = max(abs(p), abs(q), 1.0)
        assert abs(p_got - p) <= 1e-9 * scale
        assert abs(q_got + d_q * (v - 110.0) - q) <= 1e-9 * scale
