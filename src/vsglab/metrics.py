"""Step-response and estimation metrics computed from logged traces.

All functions are pure functions of the sampled series, so recomputing
from a saved CSV reproduces the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import EstimateRecord
from .grid import GridImpedance


@dataclass(frozen=True)
class StepMetrics:
    settling_time_s: float | None   # None = never settled within the window
    overshoot_pct: float
    steady_state_error_pct: float   # |final - reference| as % of the step size


def _window(t: np.ndarray, y: np.ndarray, t_start: float, t_end: float):
    m = (t >= t_start) & (t <= t_end)
    return t[m], y[m]


def _initial_value(t: np.ndarray, y: np.ndarray, t_event: float) -> float:
    pre = np.nonzero(t <= t_event)[0]
    if pre.size == 0:
        raise ValueError("series does not cover the event time")
    return float(y[pre[-1]])


def settling_time(t: np.ndarray, y: np.ndarray, t_event: float, y_final: float,
                  band: float = 0.02, t_end: float | None = None) -> float | None:
    """Time from the event until the signal last exits +-band*|step| around y_final.

    Returns 0.0 if the signal never leaves the band, None if it is still
    outside at the end of the window.  The exit instant is refined by
    linear interpolation between samples.
    """
    y0 = _initial_value(t, y, t_event)
    step = y_final - y0
    if step == 0.0:
        raise ValueError("zero step size; band is undefined")
    if t_end is None:
        t_end = float(t[-1])
    tw, yw = _window(t, y, t_event, t_end)
    env = band * abs(step)
    outside = np.abs(yw - y_final) > env
    if not outside.any():
        return 0.0
    i = int(np.nonzero(outside)[0][-1])
    if i == len(tw) - 1:
        return None
    # interpolate the band crossing between the last outside sample and the next
    a = abs(yw[i] - y_final) - env
    b = env - abs(yw[i + 1] - y_final)
    frac = a / (a + b) if (a + b) > 0 else 1.0
    return float(tw[i] + frac * (tw[i + 1] - tw[i]) - t_event)


def percent_overshoot(t: np.ndarray, y: np.ndarray, t_event: float,
                      initial: float, final: float,
                      t_end: float | None = None) -> float:
    """max((peak - final)/(final - initial), 0) * 100 over the post-event window."""
    if final == initial:
        raise ValueError("final must differ from initial")
    if t_end is None:
        t_end = float(t[-1])
    _, yw = _window(t, y, t_event, t_end)
    rel = (yw - final) / (final - initial)
    return max(float(rel.max()), 0.0) * 100.0


def steady_value(t: np.ndarray, y: np.ndarray, t_start: float, t_end: float) -> float:
    """Mean of the last quarter of the window; the measured final value."""
    tw, yw = _window(t, y, t_start, t_end)
    n = max(1, int(round(0.25 * len(yw))))
    return float(yw[-n:].mean())


def step_metrics(t: np.ndarray, y: np.ndarray, t_event: float, reference: float,
                 t_end: float | None = None, band: float = 0.02) -> StepMetrics:
    """Metrics for one setpoint step, with the final value taken from the data."""
    if t_end is None:
        t_end = float(t[-1])
    y0 = _initial_value(t, y, t_event)
    y_final = steady_value(t, y, t_event, t_end)
    ts = settling_time(t, y, t_event, y_final, band=band, t_end=t_end)
    ov = percent_overshoot(t, y, t_event, y0, y_final, t_end=t_end)
    step = reference - y0
    sse = abs(y_final - reference) / abs(step) * 100.0 if step != 0 else 0.0
    return StepMetrics(settling_time_s=ts, overshoot_pct=ov, steady_state_error_pct=sse)


ISE_HORIZON_S = 2.0  # the window after an event that oscillation_energy integrates over


def oscillation_energy(t: np.ndarray, y: np.ndarray, t_event: float) -> float:
    """Integral of the squared deviation from the final value, the tail mean of
    `steady_value`, over the ISE_HORIZON_S after the event."""
    t_end = t_event + ISE_HORIZON_S
    tw, yw = _window(t, y, t_event, t_end)
    return float(np.trapezoid((yw - steady_value(t, y, t_event, t_end)) ** 2, tw))


@dataclass(frozen=True)
class SegmentEstimationStats:
    t_start: float
    t_end: float
    r_true: float
    l_true: float
    steady_rel_err_r: float
    steady_rel_err_l: float
    peak_rel_err_r: float
    peak_rel_err_l: float
    detection_delay_s: float | None  # first in-tolerance estimate after the step


def estimation_metrics(estimates: list[tuple[EstimateRecord, float, float, bool]],
                       schedule: list[tuple[float, GridImpedance]],
                       t_end: float) -> list[SegmentEstimationStats]:
    """Per constant-impedance segment error statistics.

    `schedule` is `sim.impedance_schedule`'s list of (segment start time, true
    impedance); steady-state errors use the median estimate over the second half of
    each segment (clean windows only: window fully inside the segment).
    The detection delay runs to the first estimate within 10 % in both R and L.
    """
    tolerance = 0.10
    stats = []
    for si, (t0, z) in enumerate(schedule):
        t1 = schedule[si + 1][0] if si + 1 < len(schedule) else t_end
        clean = [rec for rec, *_ in estimates
                 if rec.window_start >= t0 and rec.window_end <= t1]
        if not clean:
            continue
        r_true, l_true = z.r_g, z.l_g
        err_r = np.array([abs(rec.r_g_hat - r_true) / abs(r_true) for rec in clean])
        err_l = np.array([abs(rec.l_g_hat - l_true) / abs(l_true) for rec in clean])
        times = np.array([rec.t for rec in clean])
        late = times >= (t0 + t1) / 2.0
        delay = None
        ok = np.nonzero((err_r <= tolerance) & (err_l <= tolerance))[0]
        if ok.size:
            delay = float(times[ok[0]] - t0)
        stats.append(SegmentEstimationStats(
            t_start=t0, t_end=t1, r_true=r_true, l_true=l_true,
            steady_rel_err_r=float(np.median(err_r[late])) if late.any() else math.inf,
            steady_rel_err_l=float(np.median(err_l[late])) if late.any() else math.inf,
            peak_rel_err_r=float(err_r.max()),
            peak_rel_err_l=float(err_l.max()),
            detection_delay_s=delay))
    return stats
