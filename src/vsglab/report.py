"""CVSG-vs-AVSG comparison reports built from logged simulation traces."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .estimator import EstimateRecord
from .metrics import (StepMetrics, step_metrics, oscillation_energy,
                      estimation_metrics, SegmentEstimationStats)
from .sim import TimeSeries, ScenarioEvent
from .smallsignal import DesignTargets
from .tables import write_table


@dataclass(frozen=True)
class EventComparison:
    time: float
    kind: str
    channel: str                 # p_pcc or q_pcc
    cvsg: StepMetrics | None     # None for set_scr events (no reference step)
    avsg: StepMetrics | None
    ise_cvsg: float              # squared-deviation energy over 2 s post-event
    ise_avsg: float


@dataclass
class ComparisonReport:
    events: list[EventComparison]
    estimation: list[SegmentEstimationStats]
    settling_ref_p: float | None     # AVSG weak-grid P-step settling, s
    settling_ref_q: float            # analytic first-order band crossing, s
    passed: bool
    failures: list[str]


def _event_window_end(events: list[ScenarioEvent], i: int, duration: float) -> float:
    if i + 1 >= len(events):
        return duration
    # stop just short of the next event: the sample logged at its exact time
    # already reflects the new grid/setpoint
    return events[i + 1].time - 1e-9


def build_comparison(cvsg: TimeSeries, avsg: TimeSeries,
                     events: list[ScenarioEvent],
                     estimates: list[tuple[EstimateRecord, float, float, bool]],
                     truth_schedule: list[tuple[float, float, float]],
                     targets: DesignTargets = DesignTargets()) -> ComparisonReport:
    """Per-event metrics for both modes plus estimation statistics.

    Settling times are to a 2 % band.  AVSG passes when every later P-step
    settles within 10 % of its weak-grid P-step value, Q-steps settle within
    the same fraction of the analytic first-order value, and overshoot is
    consistent to 1 percentage point per loop.  Oscillation energy is
    reported per event but does not gate the verdict.  A trace that ends
    before an event raises ValueError.
    """
    band, settling_tol_frac, overshoot_tol_pp = 0.02, 0.10, 1.0
    events = sorted(events, key=lambda e: e.time)
    for name, trace in (("cvsg", cvsg), ("avsg", avsg)):
        late = [ev.time for ev in events if ev.time > trace.t[-1]]
        if late:
            raise ValueError(f"the {name} trace ends at t = {trace.t[-1]:g} s, before the "
                             f"event at t = {late[0]:g} s")
    duration = float(avsg.t[-1])
    rows: list[EventComparison] = []
    for i, ev in enumerate(events):
        t_end = _event_window_end(events, i, duration)
        channel = "q_pcc" if ev.kind == "set_q_ref" else "p_pcc"
        m_c = m_a = None
        if ev.kind in ("set_p_ref", "set_q_ref"):
            m_c = step_metrics(cvsg.t, getattr(cvsg, channel), ev.time, ev.value,
                               t_end=t_end, band=band)
            m_a = step_metrics(avsg.t, getattr(avsg, channel), ev.time, ev.value,
                               t_end=t_end, band=band)
        ise_c = oscillation_energy(cvsg.t, getattr(cvsg, channel), ev.time)
        ise_a = oscillation_energy(avsg.t, getattr(avsg, channel), ev.time)
        rows.append(EventComparison(time=ev.time, kind=ev.kind, channel=channel,
                                    cvsg=m_c, avsg=m_a, ise_cvsg=ise_c, ise_avsg=ise_a))

    est_stats = estimation_metrics(estimates, truth_schedule, duration)

    # pass/fail against the design targets
    failures: list[str] = []
    p_rows = [r for r in rows if r.kind == "set_p_ref"]
    q_rows = [r for r in rows if r.kind == "set_q_ref"]
    tau_q = targets.t_s / 4.0
    ref_q = -tau_q * math.log(band)
    ref_p = None
    if p_rows and p_rows[0].avsg and p_rows[0].avsg.settling_time_s is not None:
        ref_p = p_rows[0].avsg.settling_time_s
    for r in p_rows[1:]:
        ts = r.avsg.settling_time_s if r.avsg else None
        if ts is None or ref_p is None or abs(ts - ref_p) > settling_tol_frac * ref_p:
            failures.append(f"AVSG P-step settling at t={r.time:g} deviates from "
                            f"weak-grid value {ref_p} (got {ts})")
    for r in q_rows:
        ts = r.avsg.settling_time_s if r.avsg else None
        if ts is None or abs(ts - ref_q) > settling_tol_frac * ref_q:
            failures.append(f"AVSG Q-step settling at t={r.time:g} deviates from "
                            f"first-order value {ref_q:.3f} (got {ts})")
    p_over = [r.avsg.overshoot_pct for r in p_rows if r.avsg]
    if p_over and max(p_over) - min(p_over) > overshoot_tol_pp:
        failures.append(f"AVSG P-step overshoot spread {max(p_over) - min(p_over):.2f} pp "
                        f"exceeds {overshoot_tol_pp} pp")
    for r in q_rows:
        if r.avsg and r.avsg.overshoot_pct > overshoot_tol_pp:
            failures.append(f"AVSG Q-step overshoot {r.avsg.overshoot_pct:.2f}% at "
                            f"t={r.time:g} exceeds {overshoot_tol_pp} pp")
    return ComparisonReport(events=rows, estimation=est_stats,
                            settling_ref_p=ref_p, settling_ref_q=ref_q,
                            passed=not failures, failures=failures)


def _fmt(x) -> str:
    if x is None:
        return "not-settled"
    return f"{x:.4g}"


def render_text(report: ComparisonReport) -> str:
    lines = ["CVSG vs AVSG comparison", "=" * 72]
    lines.append(f"{'t':>6} {'event':>10} {'chan':>6} "
                 f"{'Ts cvsg':>10} {'Ts avsg':>10} {'OS% cvsg':>9} {'OS% avsg':>9} "
                 f"{'ISE cvsg':>11} {'ISE avsg':>11}")
    for r in report.events:
        ts_c = _fmt(r.cvsg.settling_time_s) if r.cvsg else "-"
        ts_a = _fmt(r.avsg.settling_time_s) if r.avsg else "-"
        os_c = _fmt(r.cvsg.overshoot_pct) if r.cvsg else "-"
        os_a = _fmt(r.avsg.overshoot_pct) if r.avsg else "-"
        lines.append(f"{r.time:>6g} {r.kind:>10} {r.channel:>6} "
                     f"{ts_c:>10} {ts_a:>10} {os_c:>9} {os_a:>9} "
                     f"{r.ise_cvsg:>11.4g} {r.ise_avsg:>11.4g}")
    lines.append("")
    lines.append("Impedance estimation per segment")
    lines.append(f"{'t0':>6} {'t1':>6} {'R true':>9} {'L true':>10} "
                 f"{'ss err R':>9} {'ss err L':>9} {'peak R':>8} {'peak L':>8} {'delay':>8}")
    for s in report.estimation:
        lines.append(f"{s.t_start:>6g} {s.t_end:>6g} {s.r_true:>9.4g} {s.l_true:>10.4g} "
                     f"{s.steady_rel_err_r:>9.3%} {s.steady_rel_err_l:>9.3%} "
                     f"{s.peak_rel_err_r:>8.2%} {s.peak_rel_err_l:>8.2%} "
                     f"{_fmt(s.detection_delay_s):>8}")
    lines.append("")
    lines.append("PASS" if report.passed else "FAIL")
    for f in report.failures:
        lines.append(f"  - {f}")
    return "\n".join(lines) + "\n"


def write_tables(report: ComparisonReport, outdir: Path) -> None:
    """`report.csv`, one row per event, and `estimation.csv`, one row per segment,
    in the table format of `vsglab.tables`.  A metric that does not exist (a
    set_scr event has no step, a step that never settles no settling time) is nan."""
    def floats(values) -> list[float]:
        return [math.nan if v is None else float(v) for v in values]

    rows = report.events
    steps = [floats(getattr(getattr(r, mode), attr, None) for r in rows)
             for attr in ("settling_time_s", "overshoot_pct", "steady_state_error_pct")
             for mode in ("cvsg", "avsg")]
    write_table(outdir / "report.csv",
                ["time", "kind", "channel", "settling_cvsg_s", "settling_avsg_s",
                 "overshoot_cvsg_pct", "overshoot_avsg_pct", "sse_cvsg_pct", "sse_avsg_pct",
                 "ise_cvsg", "ise_avsg"],
                [floats(r.time for r in rows), [r.kind for r in rows], [r.channel for r in rows],
                 *steps, floats(r.ise_cvsg for r in rows), floats(r.ise_avsg for r in rows)])
    names = [f.name for f in fields(SegmentEstimationStats)]
    write_table(outdir / "estimation.csv", names,
                [floats(getattr(s, name) for s in report.estimation) for name in names])
