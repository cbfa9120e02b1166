"""Power flow, analytic Jacobian, and SCR/impedance conversions."""

import math

import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from vsglab.grid import (GridImpedance, OperatingPoint, DegenerateImpedanceError,
                         InfeasibleOperatingPointError, power_flow, jacobian,
                         scr_to_impedance, solve_operating_point)


def z_rx(r, x):
    return GridImpedance.from_rx(r, x)


def op(delta, v, vg=110.0):
    return OperatingPoint(delta0=delta, v_pcc0=v, v_g=vg)


def phasor_oracle(o, z):
    # S = 3 V conj(I), I = (V - Vg) / Z, all phasors per phase RMS
    vbar = o.v_pcc0 * complex(math.cos(o.delta0), math.sin(o.delta0))
    ibar = (vbar - o.v_g) / complex(z.r_g, z.x_g)
    s = 3.0 * vbar * ibar.conjugate()
    return s.real, s.imag


# --- worked examples ---------------------------------------------------------

def test_power_flow_zero_angle_equal_voltages():
    pq = power_flow(op(0.0, 110.0), z_rx(0.5, 2.0))
    assert pq.p == 0.0 and pq.q == 0.0


def test_power_flow_resistive_divider():
    # purely resistive limit, x_g = 0 allowed when r_g > 0
    pq = power_flow(op(0.0, 110.0, vg=100.0), z_rx(1.0, 0.0))
    assert pq.p == pytest.approx(3300.0, rel=1e-12)
    assert pq.q == pytest.approx(0.0, abs=1e-9)


def test_power_flow_reactive_line():
    pq = power_flow(op(0.1, 110.0), z_rx(0.0, 3.63))
    assert pq.p == pytest.approx(998.33, abs=0.01)
    assert pq.q == pytest.approx(49.96, abs=0.01)


def test_jacobian_reactive_line_values():
    j = jacobian(op(0.0, 110.0), z_rx(0.0, 3.63))
    assert j.a == pytest.approx(3.0 * 110.0 ** 2 / 3.63, rel=1e-12)  # 10000 W/rad
    assert j.d == pytest.approx(3.0 * 110.0 / 3.63, rel=1e-12)       # 90.91 var/V


def test_scr_to_impedance_weak_grid():
    z = scr_to_impedance(2.0, 5.0, 110.0, 5000.0)
    assert math.hypot(z.r_g, z.x_g) == pytest.approx(3.63, rel=1e-12)
    assert z.x_g == pytest.approx(3.560, abs=1e-3)
    assert z.r_g == pytest.approx(0.712, abs=1e-3)
    assert z.l_g == pytest.approx(11.33e-3, abs=1e-5)


def test_solve_operating_point_null():
    o = solve_operating_point(0.0, 0.0, z_rx(0.5, 3.0), 110.0)
    assert o.delta0 == pytest.approx(0.0, abs=1e-12)
    assert o.v_pcc0 == pytest.approx(110.0, abs=1e-9)


def test_solve_operating_point_inverse_of_power_flow():
    z = z_rx(0.0, 3.63)
    o = solve_operating_point(998.33, 49.96, z, 110.0)
    assert o.delta0 == pytest.approx(0.1, abs=1e-4)
    assert o.v_pcc0 == pytest.approx(110.0, abs=0.01)


# --- invariants --------------------------------------------------------------

def test_impedance_requires_consistent_reactance():
    with pytest.raises(ValueError):
        GridImpedance(r_g=0.1, x_g=1.0, l_g=1.0)
    with pytest.raises(DegenerateImpedanceError):
        GridImpedance.from_rx(0.0, 0.0)
    with pytest.raises(ValueError):
        GridImpedance.from_rx(-0.1, 1.0)


def test_operating_point_domain():
    with pytest.raises(ValueError):
        OperatingPoint(delta0=math.pi / 2, v_pcc0=110.0, v_g=110.0)
    with pytest.raises(ValueError):
        OperatingPoint(delta0=0.0, v_pcc0=-1.0, v_g=110.0)


def test_infeasible_target_raises():
    # far beyond the line's transfer capability
    with pytest.raises(InfeasibleOperatingPointError):
        solve_operating_point(1e9, 0.0, z_rx(0.0, 3.63), 110.0)


# --- properties --------------------------------------------------------------

valid_ops = st.builds(
    op,
    st.floats(-1.4, 1.4),
    st.floats(60.0, 160.0),
    st.floats(90.0, 130.0),
)
valid_z = st.builds(
    z_rx,
    st.floats(0.0, 5.0),
    st.floats(0.05, 10.0),
)


@given(valid_ops, valid_z)
def test_power_flow_matches_phasor_oracle(o, z):
    pq = power_flow(o, z)
    p_ref, q_ref = phasor_oracle(o, z)
    scale = max(abs(p_ref), abs(q_ref), 1.0)
    assert abs(pq.p - p_ref) <= 1e-9 * scale
    assert abs(pq.q - q_ref) <= 1e-9 * scale


@given(valid_ops, valid_z)
def test_jacobian_matches_finite_differences(o, z):
    j = jacobian(o, z)
    h_d, h_v = 1e-5, 1e-4
    pp = power_flow(OperatingPoint(o.delta0 + h_d, o.v_pcc0, o.v_g), z)
    pm = power_flow(OperatingPoint(o.delta0 - h_d, o.v_pcc0, o.v_g), z)
    qp = power_flow(OperatingPoint(o.delta0, o.v_pcc0 + h_v, o.v_g), z)
    qm = power_flow(OperatingPoint(o.delta0, o.v_pcc0 - h_v, o.v_g), z)
    fd = ((pp.p - pm.p) / (2 * h_d), (qp.p - qm.p) / (2 * h_v),
          (pp.q - pm.q) / (2 * h_d), (qp.q - qm.q) / (2 * h_v))
    # all four partials share the 3/|Z|^2 factor, so central-difference
    # truncation error scales with the Jacobian as a whole, not per entry
    scale = max(1.0, abs(j.a), abs(j.b), abs(j.c), abs(j.d))
    for got, ref in zip((j.a, j.b, j.c, j.d), fd):
        assert abs(got - ref) <= 1e-6 * scale


@given(st.floats(0.5, 50.0), st.floats(0.5, 20.0))
def test_scr_round_trip(scr, xr):
    z = scr_to_impedance(scr, xr, 110.0, 5000.0)
    assert math.hypot(z.r_g, z.x_g) == pytest.approx(3.0 * 110.0 ** 2 / (scr * 5000.0),
                                                     rel=1e-12)
    assert z.x_g / z.r_g == pytest.approx(xr, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 3000.0), st.floats(-1000.0, 1500.0), st.floats(1.5, 30.0))
def test_solve_is_right_inverse_of_power_flow(p, q, scr):
    z = scr_to_impedance(scr, 5.0, 110.0, 5000.0)
    try:
        o = solve_operating_point(p, q, z, 110.0)
    except InfeasibleOperatingPointError:
        assume(False)
    pq = power_flow(o, z)
    scale = max(abs(p), abs(q), 1.0)
    assert abs(pq.p - p) <= 1e-6 * scale
    assert abs(pq.q - q) <= 1e-6 * scale
