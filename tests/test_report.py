"""The comparison report's verdict rules and tables, on synthetic traces."""

import math

import numpy as np
import pytest

from vsglab.metrics import SegmentEstimationStats, StepMetrics
from vsglab.report import (ComparisonReport, EventComparison, build_comparison, render_text,
                           write_tables)
from vsglab.sim import TIMESERIES_COLUMNS, ScenarioEvent, TimeSeries

T = np.arange(0.0, 31.0 + 5e-4, 1e-3)
# with the default design targets (Ts = 1 s) a first-order Q step has tau = 0.25 s
TAU = 0.25


def channel(y_init, steps):
    """y_init, then per (time, size, tau, bump) a first-order step of `size` with time
    constant `tau`, plus an overshoot of `bump` times the step 2 s after the event:
    inside the 2 % band, so the settling time stays tau ln 50."""
    y = np.full_like(T, y_init)
    for t_event, size, tau, bump in steps:
        u = T[T >= t_event] - t_event
        y[T >= t_event] += size * (1.0 - np.exp(-u / tau)
                                   + bump * np.exp(-((u - 2.0) / 0.2) ** 2))
    return y


def series(p_steps, q_steps):
    cols = {c: np.ones_like(T) for c in TIMESERIES_COLUMNS}
    cols.update(t=T, p_pcc=channel(2000.0, p_steps), q_pcc=channel(1000.0, q_steps))
    return TimeSeries(**cols)


EVENTS = [ScenarioEvent(time=1.0, kind="set_p_ref", value=2500.0),
          ScenarioEvent(time=11.0, kind="set_p_ref", value=3000.0),
          ScenarioEvent(time=21.0, kind="set_q_ref", value=1400.0)]


def comparison(p2_tau=TAU, p2_bump=0.0, q_tau=TAU, q_bump=0.0):
    """Both modes on traces that meet every rule unless a step is changed."""
    trace = series([(1.0, 500.0, TAU, 0.0), (11.0, 500.0, p2_tau, p2_bump)],
                   [(21.0, 400.0, q_tau, q_bump)])
    return build_comparison(trace, trace, EVENTS, [], [])


def test_traces_that_meet_the_targets_pass():
    rep = comparison()
    assert rep.passed and rep.failures == []
    assert rep.settling_ref_p == pytest.approx(TAU * math.log(50.0), rel=1e-3)
    assert render_text(rep).endswith("PASS\n")


@pytest.mark.parametrize("change, failure", [
    (dict(p2_tau=2 * TAU), "AVSG P-step settling at t=11 deviates from weak-grid value"),
    (dict(q_tau=2 * TAU), "AVSG Q-step settling at t=21 deviates from first-order value"),
    (dict(p2_bump=0.015), "AVSG P-step overshoot spread 1.4"),
    (dict(q_bump=0.015), "AVSG Q-step overshoot 1.4"),
], ids=["p-settling", "q-settling", "p-overshoot", "q-overshoot"])
def test_each_rule_fails_on_its_own(change, failure):
    rep = comparison(**change)
    assert not rep.passed
    assert len(rep.failures) == 1 and rep.failures[0].startswith(failure)
    text = render_text(rep)
    assert text.endswith(f"FAIL\n  - {rep.failures[0]}\n")
    assert "not-settled" not in text


def test_a_step_still_outside_its_band_at_the_next_event_reads_not_settled():
    rep = comparison(p2_tau=20.0)
    assert rep.events[1].avsg.settling_time_s is None
    assert (f"AVSG P-step settling at t=11 deviates from weak-grid value "
            f"{rep.settling_ref_p} (got None)") in rep.failures
    assert "not-settled" in render_text(rep).splitlines()[4]


def test_events_at_one_time_each_measure_up_to_the_first_later_event():
    # a P-step and a Q-step at once: the window of each runs to the P-step at
    # t = 11, not to the other event at t = 1, so the P row is the one the P-step
    # gets alone
    events = [ScenarioEvent(time=1.0, kind="set_p_ref", value=2500.0),
              ScenarioEvent(time=1.0, kind="set_q_ref", value=1400.0),
              ScenarioEvent(time=11.0, kind="set_p_ref", value=3000.0)]
    trace = series([(1.0, 500.0, TAU, 0.0), (11.0, 500.0, TAU, 0.0)],
                   [(1.0, 400.0, TAU, 0.0)])
    rep = build_comparison(trace, trace, events, [], [])
    assert rep.passed, rep.failures
    assert rep.events[0] == comparison().events[0]
    assert rep.events[1].avsg.settling_time_s == pytest.approx(TAU * math.log(50.0), rel=1e-3)


def test_tables_hold_each_metric_at_full_precision_and_nan_where_none_exists(tmp_path):
    settled = StepMetrics(settling_time_s=0.1 + 0.2, overshoot_pct=1 / 3,
                          steady_state_error_pct=2e-17)
    unsettled = StepMetrics(settling_time_s=None, overshoot_pct=0.0,
                            steady_state_error_pct=5.0)
    rep = ComparisonReport(
        events=[EventComparison(10.0, "set_p_ref", "p_pcc", settled, unsettled, 1e-300, 7.25),
                EventComparison(20.0, "set_scr", "p_pcc", None, None, 0.5, 2 / 3)],
        estimation=[SegmentEstimationStats(0.0, 20.0, 0.1, 1e-3, 0.01, 0.02, 0.3, 0.4, 0.06),
                    SegmentEstimationStats(20.0, 60.0, 0.05, 2e-4, 1 / 7, math.inf, 0.3,
                                           0.4, None)],
        settling_ref_p=None, settling_ref_q=1.0, passed=False, failures=["x"])
    write_tables(rep, tmp_path)
    assert (tmp_path / "report.csv").read_text() == (
        "time,kind,channel,settling_cvsg_s,settling_avsg_s,overshoot_cvsg_pct,"
        "overshoot_avsg_pct,sse_cvsg_pct,sse_avsg_pct,ise_cvsg,ise_avsg\n"
        f"10.0,set_p_ref,p_pcc,{0.1 + 0.2!r},nan,{1 / 3!r},0.0,2e-17,5.0,1e-300,7.25\n"
        f"20.0,set_scr,p_pcc,nan,nan,nan,nan,nan,nan,0.5,{2 / 3!r}\n")
    assert (tmp_path / "estimation.csv").read_text() == (
        "t_start,t_end,r_true,l_true,steady_rel_err_r,steady_rel_err_l,"
        "peak_rel_err_r,peak_rel_err_l,detection_delay_s\n"
        "0.0,20.0,0.1,0.001,0.01,0.02,0.3,0.4,0.06\n"
        f"20.0,60.0,0.05,0.0002,{1 / 7!r},inf,0.3,0.4,nan\n")
