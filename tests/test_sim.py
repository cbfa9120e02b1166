"""Integrator, waveform synthesis, and the quasi-static scenario runner."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsglab import rk4, sim
from vsglab.ann import WINDOW_LEN
from vsglab.grid import (scr_to_impedance, power_flow, solve_operating_point,
                         InfeasibleOperatingPointError)
from vsglab.grid import _pf
from vsglab.sim import (RETIRED_SCENARIO_KEYS, TIMESERIES_COLUMNS, Setpoints, ScenarioEvent,
                        SimConfig, TimeSeries, NumericFailureError,
                        impedance_schedule, run_scenario, scenario_to_dict,
                        scenario_from_dict, save_scenario, load_scenario, benchmark_config,
                        benchmark_events)
from vsglab.cli import _truth_schedule
from vsglab.smallsignal import DesignTargets, VsgGains

GAINS = VsgGains(d_p=2087.0, k_ip=0.00767, d_q=0.687, k_iq=0.115)
OMEGA0 = 100.0 * math.pi


def short_config(**overrides):
    base = dict(duration=2.0, mode="cvsg", gains=GAINS,
                setpoints=Setpoints(2000.0, 1000.0), scr=2.0)
    base.update(overrides)
    return SimConfig(**base)


# --- integrator ----------------------------------------------------------------

def test_rk4_order_of_accuracy():
    # at millisecond steps truncation error dominates rounding: halving dt
    # cuts the step-to-step trace difference by 2^4
    events = [ScenarioEvent(time=0.0, kind="set_p_ref", value=2500.0),
              ScenarioEvent(time=0.0, kind="set_q_ref", value=1500.0)]
    runs = [run_scenario(short_config(duration=1.0, dt_sim=h, out_period=8e-3),
                         events).series
            for h in (8e-3, 4e-3, 2e-3)]
    for col in ("delta", "omega", "v_cmd"):
        coarse, mid, fine = (getattr(s, col) for s in runs)
        ratio = np.abs(coarse - mid).max() / np.abs(mid - fine).max()
        assert 14.0 < ratio < 19.0, (col, ratio)


def test_vsg_derivative_signs():
    # set-point steps of +2000 W and +1000 var at t = 0 from the equilibrium:
    # the P deficit accelerates, the Q deficit raises the voltage, and the
    # angle follows
    events = [ScenarioEvent(time=0.0, kind="set_p_ref", value=2000.0 + 2000.0),
              ScenarioEvent(time=0.0, kind="set_q_ref", value=1000.0 + 1000.0)]
    cfg = short_config(duration=1e-3, dt_sim=1e-5, out_period=1e-3)
    s = run_scenario(cfg, events).series
    assert s.omega[0] == OMEGA0
    assert (s.p_pcc[0], s.q_pcc[0] + GAINS.d_q * (s.v_cmd[0] - 110.0)) \
        == pytest.approx((2000.0, 1000.0), rel=1e-9)
    assert (s.omega[1] - OMEGA0) / 1e-3 == pytest.approx(GAINS.k_ip * 2000.0, rel=0.02)
    assert (s.v_cmd[1] - s.v_cmd[0]) / 1e-3 == pytest.approx(GAINS.k_iq * 1000.0, rel=0.02)
    assert 0.0 < s.delta[1] - s.delta[0] < (s.omega[1] - OMEGA0) * 1e-3


def textbook_rk4(cfg, events, gains=None):
    """(t, delta, omega, v_cmd, P_f, Q_f) rows of a run, as classical RK4: four
    calls of one derivative function per step, the slopes summed as
    k1 + 2 k2 + 2 k3 + k4.  Set-point and SCR events, each applied at the
    first step at or after its time.  `gains` holds the (D_p, K_ip, D_q, K_iq)
    each step acts with, one row per step; by default every step acts with
    `cfg.gains`."""
    vg, g = 110.0, cfg.gains
    dp, kip, dq, kiq = g.d_p, g.k_ip, g.d_q, g.k_iq
    xr = cfg.xr_ratio
    z = scr_to_impedance(cfg.scr, xr)
    r, x = z.r_g, z.x_g
    kz = 3.0 / (r * r + x * x)
    op = solve_operating_point(cfg.setpoints.p_ref, cfg.setpoints.q_ref, z, d_q=g.d_q)
    pref, qref, wc = cfg.setpoints.p_ref, cfg.setpoints.q_ref, cfg.meas_lpf_cutoff

    def rates(d, w, v, pf, qf):
        vvg = v * vg
        p = kz * (r * v * v - r * vvg * math.cos(d) + x * vvg * math.sin(d))
        q = kz * (x * v * v - x * vvg * math.cos(d) - r * vvg * math.sin(d))
        if wc is not None:
            p, q, dpf, dqf = pf, qf, wc * (p - pf), wc * (q - qf)
        else:
            dpf = dqf = 0.0
        return (w - OMEGA0, kip * (pref - p - dp * (w - OMEGA0)),
                kiq * (qref - q - dq * (v - vg)), dpf, dqf)

    h = cfg.dt_sim
    y = (op.delta0, OMEGA0, op.v_pcc0, *_pf(op.delta0, op.v_pcc0, vg, r, x))
    n_steps, dec_out = round(cfg.duration / h), round(cfg.out_period / h)
    rows = []
    for k in range(n_steps + 1):
        t = k * h
        for ev in sorted(events, key=lambda e: e.time):
            if not ev.time <= t < ev.time + h:
                continue
            if ev.kind == "set_p_ref":
                pref = ev.value
            elif ev.kind == "set_q_ref":
                qref = ev.value
            else:
                xr = xr if ev.xr_ratio is None else ev.xr_ratio
                z = scr_to_impedance(ev.value, xr)
                r, x = z.r_g, z.x_g
                kz = 3.0 / (r * r + x * x)
        if k % dec_out == 0:
            rows.append((t, *y))
        if gains is not None:
            dp, kip, dq, kiq = gains[k]
        k1 = rates(*y)
        k2 = rates(*(a + 0.5 * h * b for a, b in zip(y, k1)))
        k3 = rates(*(a + 0.5 * h * b for a, b in zip(y, k2)))
        k4 = rates(*(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
    return np.array(rows)


@pytest.mark.parametrize("cutoff", [None, 15.0])
def test_rk4_stage_loop_is_the_textbook_four_call_step_bit_for_bit(cutoff):
    # P and Q steps off the grid of steps, so the events land between two of them
    events = [ScenarioEvent(time=0.2003, kind="set_p_ref", value=2600.0),
              ScenarioEvent(time=0.61, kind="set_q_ref", value=1400.0),
              ScenarioEvent(time=0.9, kind="set_p_ref", value=1800.0)]
    cfg = short_config(duration=1.5, dt_sim=5e-4, out_period=5e-4, meas_lpf_cutoff=cutoff)
    s = run_scenario(cfg, events).series
    want = textbook_rk4(cfg, events)
    for j, col in enumerate(("t", "delta", "omega", "v_cmd")):
        assert getattr(s, col).tobytes() == want[:, j].tobytes(), col
    if cutoff is not None:  # the loops acted on the filtered powers, which lag P and Q
        assert np.abs(want[:, 4] - s.p_pcc).max() > 10.0


# X/R on both sides of 1
XR_RATIOS = st.one_of(st.floats(0.3, 0.9), st.just(1.0), st.floats(1.1, 10.0))
EVENT_VALUES = {"set_p_ref": st.floats(1500.0, 3000.0), "set_q_ref": st.floats(500.0, 1500.0),
                "set_scr": st.floats(2.0, 20.0)}


@st.composite
def off_grid_events(draw, n_steps):
    """Up to four events, each between two steps, SCR steps with or without a ratio."""
    events = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(sorted(EVENT_VALUES)))
        time = (draw(st.integers(0, n_steps - 1)) + draw(st.floats(0.1, 0.9))) * 5e-4
        xr = draw(st.none() | XR_RATIOS) if kind == "set_scr" else None
        events.append(ScenarioEvent(time=time, kind=kind, value=draw(EVENT_VALUES[kind]),
                                    xr_ratio=xr))
    return events


@settings(max_examples=30, deadline=None)
@given(cutoff=st.sampled_from([None, 15.0, 200.0]), scr=st.floats(2.0, 20.0), xr=XR_RATIOS,
       events=off_grid_events(800))
def test_every_step_is_the_textbook_four_call_step_bit_for_bit(cutoff, scr, xr, events):
    cfg = short_config(duration=0.4, dt_sim=5e-4, out_period=5e-4, scr=scr, xr_ratio=xr,
                       meas_lpf_cutoff=cutoff)
    s = run_scenario(cfg, events).series
    want = textbook_rk4(cfg, events)
    for j, col in enumerate(("t", "delta", "omega", "v_cmd")):
        assert getattr(s, col).tobytes() == want[:, j].tobytes(), col


STEPS = [ScenarioEvent(time=1.0003, kind="set_p_ref", value=2600.0),
         ScenarioEvent(time=1.6, kind="set_q_ref", value=1400.0)]
# (config, events, first and last row of a bit-exact fixed point): the solved
# equilibrium settles to a state that RK4 gives back bit for bit, until the
# P-step at 1.0003 s or the oracle's first estimate at 20 ms changes the step
FIXED_POINTS = {
    "cvsg": (short_config(duration=2.0, dt_sim=5e-4, out_period=5e-4), STEPS, 1100, 2001),
    "cvsg-filtered": (short_config(duration=2.0, dt_sim=5e-4, out_period=5e-4,
                                   meas_lpf_cutoff=15.0), STEPS, 1100, 2001),
    "oracle-avsg": (short_config(duration=0.1, dt_sim=5e-5, out_period=5e-5, mode="avsg",
                                 estimator_kind="oracle"), [], 250, 400),
}


@pytest.mark.parametrize("case", FIXED_POINTS)
def test_a_held_bit_exact_fixed_point_is_left_as_the_textbook_steps_leave_it(case):
    # the trace holds the fixed point over the same rows as textbook RK4, and
    # leaves it at the same step, with the gains each step acted with
    cfg, events, first, last = FIXED_POINTS[case]
    s = run_scenario(cfg, events).series
    gains = np.stack([s.d_p, s.k_ip, s.d_q, s.k_iq], axis=1)  # as each step used them
    want = textbook_rk4(cfg, events, gains)
    held = np.all(want[1:, 1:] == want[:-1, 1:], axis=1)
    assert held[first:last].all() and not held[last]
    for j, col in enumerate(("t", "delta", "omega", "v_cmd")):
        assert getattr(s, col).tobytes() == want[:, j].tobytes(), col


# --- waveform synthesis ----------------------------------------------------------

def window_waveforms(t, phasors):
    """The (n, 2 len) v-then-i samples at the `len` times `t` of the n (delta, V, R,
    X) rows of `phasors`, from the dataset's C entry point."""
    t = np.array(t, dtype=float)
    ph = np.array(phasors, dtype=float).reshape(-1, 4)
    out = np.empty((len(ph), 2 * len(t)))
    rk4.library().vsg_window_waveforms(len(ph), len(t), t.ctypes.data, ph.ctypes.data,
                                       OMEGA0, 110.0, out.ctypes.data)
    return out


def test_window_waveforms_rms_and_power():
    z = scr_to_impedance(2.0, 5.0)
    op = solve_operating_point(2000.0, 1000.0, z)
    # one full cycle at the estimator rate
    v, i = window_waveforms(200e-6 * np.arange(1, 101),
                            [(op.delta0, op.v_pcc0, z.r_g, z.x_g)]).reshape(2, 100)
    assert math.sqrt(np.mean(v ** 2)) == pytest.approx(op.v_pcc0, rel=1e-9)
    # mean instantaneous single-phase power equals P/3
    assert np.mean(v * i) == pytest.approx(2000.0 / 3.0, rel=1e-6)


def scalar_sample(t, d, v, r, x):
    """One (v, i) sample as Python floats and complex numbers compute it."""
    ibar = (v * complex(math.cos(d), math.sin(d)) - 110.0) / complex(r, x)
    return (math.sqrt(2.0) * v * math.sin(OMEGA0 * t + d),
            math.sqrt(2.0) * abs(ibar) * math.sin(OMEGA0 * t + math.atan2(ibar.imag,
                                                                           ibar.real)))


IMPEDANCE = st.tuples(st.floats(0.01, 3.0),  # R, then X/R on both sides of 1
                      st.one_of(st.just(1.0), st.floats(0.05, 20.0)))


@settings(max_examples=60, deadline=None)
@given(k0=st.integers(1, 3 * 10**5), h=st.sampled_from([50e-6, 200e-6]),
       d0=st.floats(-1.5, 1.5), d_step=st.sampled_from([0.0, 1e-4, -2e-3]),
       zeros=st.lists(st.tuples(st.integers(0, WINDOW_LEN - 1), st.sampled_from([0.0, -0.0])),
                      max_size=4),
       v0=st.floats(60.0, 160.0), v_step=st.floats(-0.05, 0.05),
       z1=IMPEDANCE, z2=IMPEDANCE, change=st.integers(0, WINDOW_LEN))
def test_window_waveforms_are_the_scalar_samples_bit_for_bit(k0, h, d0, d_step, zeros, v0,
                                                            v_step, z1, z2, change):
    # one window's samples as the simulator meets them, each its own window of one
    # sample: t = k h, a drifting angle with some exact +-0.0, and the grid
    # impedance changing at sample `change`
    t = [(k0 + j) * h for j in range(WINDOW_LEN)]
    delta = [d0 + j * d_step for j in range(WINDOW_LEN)]
    for j, zero in zeros:
        delta[j] = zero
    v = [v0 + j * v_step for j in range(WINDOW_LEN)]
    rx = [(r, r * xr) for r, xr in (z1, z2)]
    r, x = zip(*(rx[j >= change] for j in range(WINDOW_LEN)))
    want = np.array([scalar_sample(*s) for s in zip(t, delta, v, r, x)]).T
    got = np.array([window_waveforms([s[0]], [s[1:]])[0] for s in zip(t, delta, v, r, x)]).T
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h", [50e-6, 200e-6])
def test_each_estimator_sample_is_the_scalar_sample_of_its_row(monkeypatch, h):
    # the windows the estimator is handed, across an SCR step between two steps
    # in the middle of the second window to X/R 0.7, which takes the other
    # branch of the division
    windows = []

    class Recording(sim.OracleEstimator):
        def push_window(self, t, v, i):
            windows.append(np.array([t, v, i]).T)
            return super().push_window(t, v, i)

    monkeypatch.setattr(sim, "OracleEstimator", Recording)
    events = [ScenarioEvent(time=0.03013, kind="set_scr", value=8.0, xr_ratio=0.7)]
    cfg = short_config(duration=0.1, dt_sim=h, out_period=200e-6, mode="avsg",
                       estimator_kind="oracle")
    s = run_scenario(cfg, events).series
    sched = impedance_schedule(cfg, events)
    rows = {t: (d, v, r) for t, d, v, r in zip(*(getattr(s, c).tolist()
                                                 for c in ("t", "delta", "v_cmd", "r_g_true")))}
    assert len(windows) == 5
    for t, v_got, i_got in np.concatenate(windows).tolist():
        d, v, r = rows[t]  # a sample off the output-row grid has no row
        z = [z for start, z in sched if start <= t][-1]
        assert r == z.r_g
        want = scalar_sample(t, d, v, z.r_g, z.x_g)
        assert np.array([v_got, i_got]).tobytes() == np.array(want).tobytes(), t
    # the second window straddles the step
    assert {rows[t][2] for t in windows[1][:, 0].tolist()} == {z.r_g for _, z in sched}


# --- equilibrium -----------------------------------------------------------------

def test_solve_equilibrium_satisfies_loop_balance():
    z = scr_to_impedance(2.0, 5.0)
    sp = Setpoints(2000.0, 1000.0)
    op = solve_operating_point(sp.p_ref, sp.q_ref, z, d_q=GAINS.d_q)
    pq = power_flow(op, z)
    assert pq.p == pytest.approx(2000.0, abs=1e-5)
    assert pq.q + GAINS.d_q * (op.v_pcc0 - 110.0) == pytest.approx(1000.0, abs=1e-5)
    # every (SCR, P, Q) the 60 s benchmark settles at, as a run would start there
    cfg, segments = benchmark_config("cvsg"), []
    scr, p, q = cfg.scr, cfg.setpoints.p_ref, cfg.setpoints.q_ref
    for ev in [*benchmark_events(), None]:
        segments.append((scr, p, q))
        if ev is not None:
            scr, p, q = {"set_scr": (ev.value, p, q), "set_p_ref": (scr, ev.value, q),
                         "set_q_ref": (scr, p, ev.value)}[ev.kind]
    assert len(set(segments)) == 6
    for scr, p, q in segments:
        z = scr_to_impedance(scr, cfg.xr_ratio)
        op = solve_operating_point(p, q, z, d_q=cfg.gains.d_q)
        pq, scale = power_flow(op, z), max(abs(p), abs(q), 1.0)
        assert abs(pq.p - p) <= 1e-9 * scale
        assert abs(pq.q + cfg.gains.d_q * (op.v_pcc0 - 110.0) - q) <= 1e-9 * scale


def test_solve_equilibrium_infeasible():
    z = scr_to_impedance(2.0, 5.0)
    with pytest.raises(InfeasibleOperatingPointError):
        solve_operating_point(1e8, 0.0, z, d_q=GAINS.d_q)


# --- scenario runner -------------------------------------------------------------

def test_equilibrium_persists_without_events():
    res = run_scenario(short_config(duration=1.0), [])
    np.testing.assert_allclose(res.series.p_pcc, 2000.0, atol=1e-4)
    np.testing.assert_allclose(res.series.omega, OMEGA0, atol=1e-9)


def test_logged_power_matches_power_flow_bit_identical():
    # every row, through the transient of a P-step, not only at the equilibrium
    events = [ScenarioEvent(time=0.1, kind="set_p_ref", value=2600.0)]
    res = run_scenario(short_config(duration=0.5), events)
    z = scr_to_impedance(2.0, 5.0)
    s = res.series
    for k in range(len(s)):
        p, q = _pf(s.delta[k], s.v_cmd[k], 110.0, z.r_g, z.x_g)
        assert s.p_pcc[k] == p and s.q_pcc[k] == q


def test_droop_law_after_reference_step():
    events = [ScenarioEvent(time=0.2, kind="set_q_ref", value=1500.0)]
    res = run_scenario(short_config(duration=4.0), events)
    s = res.series
    # Q loop balance: Q + D_q (v_cmd - v_nom) = Q_ref at steady state
    assert s.q_pcc[-1] + GAINS.d_q * (s.v_cmd[-1] - 110.0) \
        == pytest.approx(1500.0, abs=0.01)


def test_timeseries_grid_is_uniform():
    res = run_scenario(short_config(duration=0.3), [])
    dt = np.diff(res.series.t)
    assert np.allclose(dt, 1e-3, atol=1e-12)
    assert len(res.series) == 301


def test_run_is_deterministic():
    events = [ScenarioEvent(time=0.5, kind="set_p_ref", value=2500.0)]
    a = run_scenario(short_config(), events)
    b = run_scenario(short_config(), events)
    for col in ("p_pcc", "q_pcc", "delta", "omega", "v_cmd"):
        np.testing.assert_array_equal(getattr(a.series, col), getattr(b.series, col))


def test_event_outside_duration_rejected():
    with pytest.raises(ValueError):
        run_scenario(short_config(duration=1.0),
                     [ScenarioEvent(time=2.0, kind="set_p_ref", value=2500.0)])


def test_set_scr_without_ratio_keeps_last_explicit_ratio():
    events = [ScenarioEvent(time=0.2, kind="set_scr", value=8.0, xr_ratio=10.0),
              ScenarioEvent(time=0.4, kind="set_scr", value=20.0)]
    cfg = short_config(duration=0.6)
    res = run_scenario(cfg, events)
    z = scr_to_impedance(20.0, 10.0)
    assert (res.series.r_g_true[-1], res.series.l_g_true[-1]) == (z.r_g, z.l_g)
    # the truth the estimation statistics use is the impedance the run used
    assert _truth_schedule(cfg, events)[-1] == (0.4, z.r_g, z.l_g)


def test_bad_scr_event_fails_before_integration():
    cfg = short_config(duration=1.0)
    events = [ScenarioEvent(time=0.9, kind="set_scr", value=0.0)]
    with pytest.raises(ValueError, match="scr"):
        impedance_schedule(cfg, events)
    with pytest.raises(ValueError, match="scr"):
        run_scenario(cfg, events)


def test_divergence_raises_numeric_failure():
    # K_ip D_p = 2e5 1/s puts the P-loop pole far outside RK4's stability
    # region at 50 us; a 100 W P-step at 1 ms excites it (the run starts on its
    # exact equilibrium, a fixed point of the steps), the angle runs off to
    # infinity inside a step, whose state the NaN of sin(inf) then makes non-finite
    cfg = short_config(duration=1.0, gains=VsgGains(2087.0, 100.0, 0.687, 0.115))
    with pytest.raises(NumericFailureError,
                       match=r"^non-finite state after the RK4 step at t = 0\.006950$"):
        run_scenario(cfg, [ScenarioEvent(time=0.001, kind="set_p_ref", value=2100.0)])
    # with K_iq = 1e6 the voltage loop leaves the finite range in the first step
    cfg = short_config(duration=1.0, gains=VsgGains(2087.0, 0.00767, 0.687, 1e6))
    with pytest.raises(NumericFailureError,
                       match=r"^non-finite state after the RK4 step at t = 0\.000100$"):
        run_scenario(cfg, [])


def test_avsg_ann_requires_model():
    with pytest.raises(ValueError):
        run_scenario(short_config(mode="avsg"), [])


def test_config_validation():
    with pytest.raises(ValueError):
        short_config(mode="manual")
    with pytest.raises(ValueError, match="sample period 200 us"):
        # the estimator samples every 200 us, which 125 us steps cannot hit
        short_config(mode="avsg", estimator_kind="oracle", dt_sim=125e-6)
    # cvsg feeds no estimator, so only the output period must be a multiple
    assert short_config(dt_sim=125e-6).dt_sim == 125e-6
    with pytest.raises(ValueError):
        short_config(dt_sim=0.0)
    with pytest.raises(ValueError):
        ScenarioEvent(time=0.0, kind="set_vg", value=1.0)
    # a zero cutoff freezes the measured P, so the P loop winds up without bound
    for field in ("duration", "out_period", "meas_lpf_cutoff"):
        for value in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
                short_config(**{field: value})
    assert short_config(meas_lpf_cutoff=None).meas_lpf_cutoff is None
    # 200.8 steps would log a row past the duration; 0.2 steps would integrate none
    for duration in (0.01004, 1e-5):
        with pytest.raises(ValueError, match="^duration must be an integer multiple of dt_sim"):
            short_config(duration=duration, dt_sim=50e-6, out_period=50e-6)


def test_oracle_avsg_applies_scheduled_gains():
    events = [ScenarioEvent(time=0.5, kind="set_scr", value=8.0, xr_ratio=5.0)]
    res = run_scenario(short_config(mode="avsg", estimator_kind="oracle",
                                    duration=1.5), events)
    s = res.series
    # estimates arrive every 0.02 s; truth is exact, so the first window after
    # the step reschedules and the scheduling identity D_p K_ip = 8 holds
    applied_times = [rec.t for rec, _, _, ap in res.estimates if ap]
    assert applied_times[0] == pytest.approx(0.02, abs=1e-9)
    # the event fires before the same-instant estimator sample, so the oracle
    # can react as early as t = 0.5 itself
    assert any(0.5 <= t <= 0.54 + 1e-9 for t in applied_times)
    after = s.t >= 0.06
    np.testing.assert_allclose(s.d_p[after] * s.k_ip[after], 8.0, rtol=1e-9)
    assert s.d_p[-1] * s.k_ip[-1] == pytest.approx(8.0, rel=1e-9)


def test_oracle_estimates_match_truth_log():
    events = [ScenarioEvent(time=0.5, kind="set_scr", value=8.0, xr_ratio=5.0)]
    res = run_scenario(short_config(mode="avsg", estimator_kind="oracle",
                                    duration=1.0), events)
    for rec, r_true, l_true, _ in res.estimates:
        assert rec.r_g_hat == r_true and rec.l_g_hat == l_true


def test_lpf_path_converges():
    res = run_scenario(short_config(duration=3.0, meas_lpf_cutoff=200.0), [])
    assert res.series.p_pcc[-1] == pytest.approx(2000.0, abs=0.1)


def test_timeseries_csv_round_trip(tmp_path):
    res = run_scenario(short_config(duration=0.2), [])
    path = tmp_path / "ts.csv"
    res.series.to_csv(path)
    s2 = TimeSeries.from_csv(path)
    for col in TIMESERIES_COLUMNS:  # NaN estimate columns compare equal
        np.testing.assert_array_equal(getattr(s2, col), getattr(res.series, col))
    header = path.read_text().splitlines()[0]
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match="no data row"):
        TimeSeries.from_csv(path)
    path.write_text(header.replace("p_pcc", "p", 1) + "\n0.0\n")
    with pytest.raises(ValueError, match="header"):
        TimeSeries.from_csv(path)


def test_scenario_json_round_trip(tmp_path):
    cfg = SimConfig(duration=3.0, mode="avsg", dt_sim=100e-6, out_period=2e-3,
                    gains=VsgGains(1000.0, 0.01, 0.5, 0.2),
                    setpoints=Setpoints(1500.0, 500.0), scr=4.0, xr_ratio=7.0,
                    meas_lpf_cutoff=200.0, estimator_kind="oracle",
                    targets=DesignTargets(2.0, 0.8, 50.0))
    defaults = SimConfig(duration=1.0)
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(SimConfig))
    events = [ScenarioEvent(time=0.5, kind="set_scr", value=8.0, xr_ratio=5.0),
              ScenarioEvent(time=1.0, kind="set_p_ref", value=2500.0)]
    path = tmp_path / "scenario.json"
    save_scenario(path, cfg, events)
    cfg2, events2 = load_scenario(path)
    assert cfg2 == cfg
    assert events2 == events
    # files from older versions carry a simulator seed, which is ignored, and
    # settings that are now fixed, which must have the one value in use; they
    # omit the ratio of an event that keeps the current one
    doc = scenario_to_dict(cfg, events)
    doc["sim"].update(seed=3, est_period=0.0002, gate_threshold=0.05,
                      start_at_equilibrium=True, v_g=110.0, s_rated=5000.0,
                      omega0=100.0 * math.pi)
    doc["sim"]["setpoints"].update(omega_nom=100.0 * math.pi, v_nom=110.0)
    del doc["events"][1]["xr_ratio"]
    assert scenario_from_dict(doc) == (cfg, events)
    for part, key, other in (("sim", "est_period", 400e-6), ("sim", "gate_threshold", 0.1),
                             ("sim", "start_at_equilibrium", False), ("sim", "v_g", 120.0),
                             ("sim", "s_rated", 6000.0), ("sim", "omega0", 101.0 * math.pi),
                             ("setpoints", "omega_nom", 99.0 * math.pi),
                             ("setpoints", "v_nom", 115.0)):
        bad = json.loads(json.dumps(doc))
        (bad["sim"] if part == "sim" else bad["sim"]["setpoints"])[key] = other
        with pytest.raises(ValueError, match=f"^{key} "):
            scenario_from_dict(bad)
    doc["sim"]["est_period"] = 400e-6
    with pytest.raises(ValueError, match="every 200 us"):
        scenario_from_dict(doc)



def test_no_live_field_is_a_retired_key():
    # the loader drops retired keys, so a live field of that name would be lost
    live = {f.name for cls in (SimConfig, Setpoints) for f in dataclasses.fields(cls)}
    assert live.isdisjoint(RETIRED_SCENARIO_KEYS)
