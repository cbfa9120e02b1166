"""Quasi-static time-domain simulation of the VSG outer power loops.

The three slow control states (angle, frequency, voltage command) are
integrated with classical RK4 at the converter sampling period while the
PCC power is recomputed algebraically from the phasor power flow at every
stage, optionally through a first-order P/Q measurement filter that adds
two states.  Every step is integrated by one compiled kernel (`vsglab.rk4`),
which runs from a state to the next stop: a scenario event, a full estimator
window, or the end of the run.  On the way it writes the decimated output
rows and, in adaptive mode, the phasor state of every estimator sample into
the one estimator buffer.  Inner voltage/current loops are modeled as ideal
(the PCC voltage magnitude tracks the command instantly).
At the stops, this module steps the SCR or the power set-points of the
scenario's events, and synthesizes a full window's waveforms in one
`ann.pcc_waveforms` call and hands them to the estimator whole; accepted
estimates reschedule the gains.

The plant is the one the estimator was trained at, no scenario's setting:
`grid.V_G`, `S_RATED` and `OMEGA0_DEFAULT` (110 V, 5 kVA, 50 Hz), which are
also the VSG's nominal voltage and frequency.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import rk4
from .ann import SAMPLE_DT, WINDOW_LEN, pcc_waveforms
from .grid import (GridImpedance, JacobianPQ, scr_to_impedance,
                   solve_operating_point, _pf, _pf_jac, OMEGA0_DEFAULT, S_RATED, V_G)
from .smallsignal import VsgGains, DesignTargets, schedule_gains, SchedulingError
from .estimator import (GATE_THRESHOLD, OnlineEstimator, OracleEstimator, EstimateRecord,
                        gate_gain_update)
from .tables import read_table, write_table

# The 60 s benchmark's initial grid and the fixed CVSG baseline gains, which
# the adaptive mode also starts from; `SimConfig` defaults to both.
XR_RATIO_DEFAULT = 5.0
BASELINE_GAINS = VsgGains(d_p=2087.0, k_ip=0.00767, d_q=0.687, k_iq=0.115)


class NumericFailureError(RuntimeError):
    """The integrator produced a non-finite state or derivative."""


@dataclass(frozen=True)
class Setpoints:
    p_ref: float                    # W
    q_ref: float                    # var


@dataclass(frozen=True)
class ScenarioEvent:
    time: float
    kind: str                     # set_scr | set_p_ref | set_q_ref
    value: float
    xr_ratio: float | None = None  # only for set_scr; None keeps the current ratio

    def __post_init__(self) -> None:
        if self.kind not in ("set_scr", "set_p_ref", "set_q_ref"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.xr_ratio is not None and self.kind != "set_scr":
            raise ValueError(f"xr_ratio {self.xr_ratio!r} is set on a {self.kind} event")


@dataclass(frozen=True)
class SimConfig:
    duration: float
    mode: str = "cvsg"                  # cvsg | avsg
    dt_sim: float = 50e-6
    out_period: float = 1e-3
    gains: VsgGains = BASELINE_GAINS
    setpoints: Setpoints = Setpoints(p_ref=2000.0, q_ref=1000.0)
    scr: float = 2.0
    xr_ratio: float = XR_RATIO_DEFAULT
    meas_lpf_cutoff: float | None = None  # rad/s; None disables the P/Q filter
    estimator_kind: str = "ann"           # ann | oracle (avsg only)
    targets: DesignTargets = field(default_factory=DesignTargets)

    def __post_init__(self) -> None:
        lpf = self.meas_lpf_cutoff
        for name, value in (("duration", self.duration), ("dt_sim", self.dt_sim),
                            ("out_period", self.out_period),
                            ("meas_lpf_cutoff", 1.0 if lpf is None else lpf)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.mode not in ("cvsg", "avsg"):
            raise ValueError(f"mode must be cvsg or avsg, got {self.mode!r}")
        if self.estimator_kind not in ("ann", "oracle"):
            raise ValueError(f"estimator_kind must be ann or oracle, "
                             f"got {self.estimator_kind!r}")
        # whole numbers of steps, so no row lands past the duration; only
        # avsg feeds the estimator, which samples every SAMPLE_DT
        periods = [(self.duration, "duration"), (self.out_period, "out_period")]
        if self.mode == "avsg":
            periods.append((SAMPLE_DT, f"the estimator sample period {SAMPLE_DT * 1e6:g} us"))
        for period, name in periods:
            k = period / self.dt_sim
            if abs(k - round(k)) > 1e-9 or round(k) < 1:
                raise ValueError(f"{name} must be an integer multiple of dt_sim")


TIMESERIES_COLUMNS = ("t", "p_pcc", "q_pcc", "delta", "omega", "v_cmd",
                      "r_g_true", "l_g_true", "r_g_est", "l_g_est",
                      "d_p", "k_ip", "d_q", "k_iq")


@dataclass
class TimeSeries:
    """Uniformly sampled simulation trace; one numpy array per column."""

    t: np.ndarray
    p_pcc: np.ndarray
    q_pcc: np.ndarray
    delta: np.ndarray
    omega: np.ndarray
    v_cmd: np.ndarray
    r_g_true: np.ndarray
    l_g_true: np.ndarray
    r_g_est: np.ndarray
    l_g_est: np.ndarray
    d_p: np.ndarray
    k_ip: np.ndarray
    d_q: np.ndarray
    k_iq: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path: str | Path) -> None:
        write_table(path, TIMESERIES_COLUMNS, [getattr(self, c) for c in TIMESERIES_COLUMNS])

    @classmethod
    def from_csv(cls, path: str | Path) -> "TimeSeries":
        data = read_table(path, TIMESERIES_COLUMNS)
        # the transposed view has the same column layout as a trace in memory
        return cls(**dict(zip(TIMESERIES_COLUMNS, data.T)))


@dataclass
class SimResult:
    series: TimeSeries
    # (record, r_true at emission, l_true at emission, applied)
    estimates: list[tuple[EstimateRecord, float, float, bool]]


def impedance_schedule(cfg: SimConfig, events: list[ScenarioEvent]
                       ) -> list[tuple[float, GridImpedance]]:
    """Grid impedance in force from each time on: the configured grid, then
    one entry per set_scr event in time order.

    An event without an X/R ratio keeps the last ratio given.  A bad SCR or
    X/R raises ValueError here, before any integration.
    """
    xr = cfg.xr_ratio
    sched = [(0.0, scr_to_impedance(cfg.scr, xr, V_G, S_RATED))]
    for ev in sorted(events, key=lambda e: e.time):
        if ev.kind == "set_scr":
            if ev.xr_ratio is not None:
                xr = ev.xr_ratio
            sched.append((ev.time, scr_to_impedance(ev.value, xr, V_G, S_RATED)))
    return sched


def run_scenario(cfg: SimConfig, events: list[ScenarioEvent],
                 model=None, norm=None) -> SimResult:
    """Integrate the scenario and return the decimated trace and estimate log.

    Raises NumericFailureError, naming the time of the step, when the state
    leaves the finite range.
    """
    events = sorted(events, key=lambda e: e.time)
    for ev in events:
        if not (0.0 <= ev.time <= cfg.duration):
            raise ValueError(f"event at t={ev.time} outside scenario duration")
    sched = impedance_schedule(cfg, events)
    z = sched[0][1]
    later_z = (z_ev for _, z_ev in sched[1:])

    sp = cfg.setpoints
    gains = cfg.gains
    op = solve_operating_point(sp.p_ref, sp.q_ref, z, V_G, tol=1e-10,
                               d_q=gains.d_q, v_nom=V_G)
    d, v = op.delta0, op.v_pcc0

    estimator = None
    if cfg.mode == "avsg":
        if cfg.estimator_kind == "oracle":
            estimator = OracleEstimator()
            estimator.truth = (z.r_g, z.l_g)
        else:
            if model is None or norm is None:
                raise ValueError("avsg mode with the ann estimator needs model and norm")
            estimator = OnlineEstimator(model, norm)

    h = cfg.dt_sim
    n_steps = int(round(cfg.duration / h))
    dec_out = int(round(cfg.out_period / h))
    n_out = n_steps // dec_out + 1
    est_log: list[tuple[EstimateRecord, float, float, bool]] = []
    prev_applied: EstimateRecord | None = None

    # The kernel's arrays (`vsglab.rk4`).  It integrates from step ix[IX_K] to
    # the next stop and writes the output rows into `out` and the (t, delta, V,
    # R, X) of each estimator sample into `window`, the one estimator buffer:
    # every SAMPLE_DT after t = 0, so each window of WINDOW_LEN samples opens
    # on the cycle grid.
    y = np.array([d, OMEGA0_DEFAULT, v, *_pf(d, v, V_G, z.r_g, z.x_g)])
    par = np.array([h, V_G, OMEGA0_DEFAULT, cfg.meas_lpf_cutoff or 0.0, z.x_g,
                    sp.p_ref, sp.q_ref, events[0].time if events else math.inf])
    row = np.array([z.r_g, z.l_g, math.nan, math.nan,
                    gains.d_p, gains.k_ip, gains.d_q, gains.k_iq])
    ix = np.array([0, 0, 0, 0, n_steps, dec_out,
                   0 if estimator is None else int(round(SAMPLE_DT / h)), WINDOW_LEN],
                  dtype=np.int64)
    out = np.empty((n_out, len(TIMESERIES_COLUMNS)))
    window = np.empty((WINDOW_LEN, 5))
    run = rk4.kernel()
    args = [a.ctypes.data for a in (y, par, row, ix, out, window)]
    ev_idx = 0

    while (stop := run(*args)) != rk4.STOP_END:
        t = int(ix[rk4.IX_K]) * h
        if stop == rk4.STOP_EVENT:
            # events apply at the first step with t >= event time
            while ev_idx < len(events) and events[ev_idx].time <= t:
                ev = events[ev_idx]
                ev_idx += 1
                if ev.kind == "set_p_ref":
                    par[rk4.PAR_P_REF] = ev.value
                elif ev.kind == "set_q_ref":
                    par[rk4.PAR_Q_REF] = ev.value
                else:
                    z = next(later_z)
                    row[[rk4.ROW_R, rk4.ROW_L]] = z.r_g, z.l_g
                    par[rk4.PAR_X] = z.x_g
                    if isinstance(estimator, OracleEstimator):
                        estimator.truth = (z.r_g, z.l_g)
            par[rk4.PAR_T_EVENT] = events[ev_idx].time if ev_idx < len(events) else math.inf
        elif stop == rk4.STOP_WINDOW:
            # the window is full: synthesize its waveforms in one call and hand
            # them to the estimator whole, before the step's output row
            ix[rk4.IX_WIN_LEN] = 0
            t_w, *phasors = window.T
            rec = estimator.push_window(t_w, *pcc_waveforms(t_w, *phasors))
            if rec is None:  # only for a window with a non-finite sample
                continue
            applied = gate_gain_update(rec, prev_applied)
            if applied:
                # estimates can stray slightly negative during transients
                z_hat = GridImpedance.from_rx(max(rec.r_g_hat, 0.0),
                                              max(OMEGA0_DEFAULT * rec.l_g_hat, 1e-9))
                d, v = float(y[rk4.Y_DELTA]), float(y[rk4.Y_V])
                ja, jb, jc, jd = _pf_jac(d, v, V_G, z_hat.r_g, z_hat.x_g)
                try:
                    gains = schedule_gains(JacobianPQ(ja, jb, jc, jd), cfg.targets)
                    row[rk4.ROW_DP:] = gains.d_p, gains.k_ip, gains.d_q, gains.k_iq
                    prev_applied = rec
                except SchedulingError:
                    applied = False  # keep previous gains
            est_log.append((rec, z.r_g, z.l_g, applied))
            row[[rk4.ROW_R_EST, rk4.ROW_L_EST]] = rec.r_g_hat, rec.l_g_hat
        elif stop == rk4.FAIL_STAGE_ANGLE:  # sin/cos of an infinite angle
            raise NumericFailureError(f"state diverged in the RK4 step at t = {t:.6f}")
        else:
            raise NumericFailureError(f"non-finite state after the RK4 step at t = {t:.6f}")

    cols = out[:ix[rk4.IX_OUT_ROW]].T
    series = TimeSeries(**dict(zip(TIMESERIES_COLUMNS, cols)))
    return SimResult(series=series, estimates=est_log)


# ---------------------------------------------------------------------------
# Scenario config documents (JSON)
# ---------------------------------------------------------------------------

def scenario_to_dict(cfg: SimConfig, events: list[ScenarioEvent]) -> dict:
    return {"sim": asdict(cfg), "events": [asdict(e) for e in events]}


# Keys older versions wrote in "sim" or "setpoints" for settings now fixed.  A file
# loads only if it carries the one value in use: key -> (that value, the reason shown).
RETIRED_SCENARIO_KEYS = {
    "est_period": (SAMPLE_DT, f"the estimator samples every {SAMPLE_DT * 1e6:g} us"),
    "gate_threshold": (GATE_THRESHOLD, f"gains reschedule on a {GATE_THRESHOLD:.0%} change"),
    "start_at_equilibrium": (True, "every run starts at the solved equilibrium"),
    "v_g": (V_G, f"the grid is {V_G:g} V"),
    "s_rated": (S_RATED, f"the plant is rated {S_RATED:g} VA"),
    "omega0": (OMEGA0_DEFAULT, "the grid runs at 50 Hz"),
    "omega_nom": (OMEGA0_DEFAULT, "the VSG's nominal frequency is the grid's 50 Hz"),
    "v_nom": (V_G, f"the VSG's nominal voltage is the grid's {V_G:g} V"),
}


def _fields_checked(cls, values, where: str) -> dict:
    """`values`, the JSON object at `where`, once each number field of `cls` in it
    holds a finite JSON number, or null where the field allows None; ValueError
    names `where` or its first key that does not."""
    if type(values) is not dict:
        raise ValueError(f"{where} must be an object, got {values!r}")
    for f in fields(cls):
        if f.type in ("float", "float | None") and f.name in values:
            v = values[f.name]
            if v is None and f.type == "float | None":
                continue
            if type(v) not in (int, float):
                raise ValueError(f"{where}.{f.name} must be a number, got {v!r}")
            if not math.isfinite(v):
                raise ValueError(f"{where}.{f.name} must be finite, got {v!r}")
    return values


def scenario_from_dict(doc: dict) -> tuple[SimConfig, list[ScenarioEvent]]:
    """What `scenario_to_dict` wrote; ValueError names a missing, unknown or retired key,
    a section of another JSON type, or a number field holding another JSON type or a
    value that is not finite."""
    try:
        if type(doc) is not dict:
            raise ValueError(f"scenario must be an object, got {doc!r}")
        s = dict(_fields_checked(SimConfig, doc["sim"], "sim"))
        setpoints = dict(_fields_checked(Setpoints, s.pop("setpoints"), "sim.setpoints"))
        s.pop("seed", None)  # written by older versions; the simulator draws no random numbers
        for part in (s, setpoints):
            for key, (value, reason) in RETIRED_SCENARIO_KEYS.items():
                got = part.pop(key, value)
                if got != value:
                    raise ValueError(f"{key} {got!r} is not supported: {reason}")
        gains = VsgGains(**_fields_checked(VsgGains, s.pop("gains"), "sim.gains"))
        targets = DesignTargets(**_fields_checked(DesignTargets, s.pop("targets", {}),
                                                  "sim.targets"))
        cfg = SimConfig(gains=gains, setpoints=Setpoints(**setpoints), targets=targets, **s)
        events = doc.get("events", [])
        if type(events) is not list:
            raise ValueError(f"events must be an array, got {events!r}")
        # older versions omit the xr_ratio of an event that keeps the current ratio
        events = [ScenarioEvent(**_fields_checked(ScenarioEvent, e, f"events[{i}]"))
                  for i, e in enumerate(events)]
    except KeyError as exc:
        raise ValueError(f"scenario has no {exc} key") from None
    except TypeError as exc:  # a missing or unknown field, named in the message
        raise ValueError(f"scenario: {exc}") from None
    return cfg, events


def save_scenario(path: str | Path, cfg: SimConfig, events: list[ScenarioEvent]) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(cfg, events), indent=2))


def load_scenario(path: str | Path) -> tuple[SimConfig, list[ScenarioEvent]]:
    return scenario_from_dict(json.loads(Path(path).read_text()))
