"""Correctness checks for the benchmark workloads.

Every check compares the program's outputs with a computation made here
(closed-form impedances, the power-flow equations, the scheduling rule)
or with a property the method must have.  Each check returns a list of
failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

V_G = 110.0             # grid voltage, V RMS per phase
V_NOM = 110.0           # nominal PCC voltage, V RMS
S_RATED = 5000.0        # VA
XR = 5.0                # X/R ratio of every grid in the workloads
OMEGA0 = 100.0 * math.pi
DURATION = 60.0
WINDOW_S = 0.02         # one estimator window: 100 samples at 200 us
SCR_SCHEDULE = ((0.0, 2.0), (20.0, 8.0), (40.0, 20.0))
STEADY_ERR_TOL = {2.0: 0.02, 8.0: 0.10, 20.0: 0.10}


def impedance(scr: float, xr: float = XR) -> tuple[float, float]:
    """(R, L) with |Z| = 3 V_g^2 / (SCR S_rated) and X/R setting the angle."""
    z = 3.0 * V_G * V_G / (scr * S_RATED)
    angle = math.atan(xr)
    return z * math.cos(angle), z * math.sin(angle) / OMEGA0


# the 60 s benchmark of vsglab.presets: set-points before the first event and
# the events as (time, kind, value)
P0, Q0 = 2000.0, 1000.0
EVENTS = ((10.0, "set_p_ref", 2500.0), (20.0, "set_scr", 8.0), (30.0, "set_p_ref", 3000.0),
          (40.0, "set_scr", 20.0), (50.0, "set_q_ref", 1500.0))


def state_before(t: float) -> tuple[float, float, float]:
    """(p_ref, q_ref, scr) in force just before time t."""
    p, q, scr = P0, Q0, SCR_SCHEDULE[0][1]
    for te, kind, value in EVENTS:
        if te >= t:
            break
        if kind == "set_p_ref":
            p = value
        elif kind == "set_q_ref":
            q = value
        else:
            scr = value
    return p, q, scr


def _rel(a, b):
    return np.abs(np.asarray(a) - b) / abs(b)


def load_trace(path) -> dict[str, np.ndarray]:
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def equilibria(trace: dict[str, np.ndarray], mode: str, tol: float = 1e-6) -> list[str]:
    """At the last sample before each event: P = p_ref and Q + D_q (V - v_nom) = q_ref."""
    out = []
    t = trace["t"]
    for te, _, _ in EVENTS:
        i = int(np.nonzero(t < te - 1e-9)[0][-1])
        p_ref, q_ref, scr = state_before(te)
        r, l = impedance(scr)
        x = OMEGA0 * l
        d, v = trace["delta"][i], trace["v_cmd"][i]
        k = 3.0 / (r * r + x * x)
        p = k * (r * v * v - r * v * V_G * math.cos(d) + x * v * V_G * math.sin(d))
        q = k * (x * v * v - x * v * V_G * math.cos(d) - r * v * V_G * math.sin(d))
        q_droop = q + trace["d_q"][i] * (v - V_NOM)
        if _rel(p, p_ref) > tol or _rel(q_droop, q_ref) > tol:
            out.append(f"{mode}: no equilibrium before t={te:g}: P={p:.9g} (ref {p_ref:g}), "
                       f"Q+Dq(V-Vnom)={q_droop:.9g} (ref {q_ref:g})")
    return out


def estimate_cadence(est: dict[str, np.ndarray]) -> list[str]:
    """Tumbling windows: estimate k is emitted at (k+1)*0.02 s, its window opening 0.02 s before."""
    n = len(est["t"])
    if n < 2999:
        return [f"only {n} estimates, expected at least 2999"]
    emitted_us = np.rint(est["t"] * 1e6).astype(np.int64)
    opened_us = np.concatenate([[0], emitted_us[:-1]])
    bad = np.nonzero(emitted_us - opened_us != round(WINDOW_S * 1e6))[0]
    if bad.size:
        k = int(bad[0])
        return [f"{bad.size} estimates not 0.02 s after their window opened, "
                f"first at t={est['t'][k]:.6f}"]
    return []


def scheduling_identities(series, estimates, tol: float = 1e-12) -> list[str]:
    """After the first applied estimate: D_p K_ip = 8 and K_iq D_q (1 + divisor) = 4/T_s.

    Checked on the trace as the simulator logged it in memory; the saved
    CSV keeps only 12 significant digits.
    """
    applied = [rec.t for rec, _, _, ok in estimates if ok]
    if not applied:
        return ["no estimate was applied"]
    rows = series.t >= applied[0] - 1e-9
    e_p = _rel(series.d_p[rows] * series.k_ip[rows], 8.0).max()
    e_q = _rel(series.k_iq[rows] * series.d_q[rows] * 101.0, 4.0).max()
    if e_p > tol or e_q > tol:
        return [f"scheduling identities off by {e_p:.2e} (P) and {e_q:.2e} (Q)"]
    return []


def steady_estimates(est: dict[str, np.ndarray]) -> list[str]:
    """Median error over the clean windows of the second half of each SCR segment."""
    out = []
    t = est["t"]
    bounds = [s[0] for s in SCR_SCHEDULE[1:]] + [DURATION]
    for (t0, scr), t1 in zip(SCR_SCHEDULE, bounds):
        r, l = impedance(scr)
        late = (t - WINDOW_S >= t0 - 1e-9) & (t <= t1 + 1e-9) & (t >= (t0 + t1) / 2)
        err_r = float(np.median(_rel(est["r_g_hat"][late], r)))
        err_l = float(np.median(_rel(est["l_g_hat"][late], l)))
        tol = STEADY_ERR_TOL[scr]
        if not (err_r <= tol and err_l <= tol):
            out.append(f"SCR {scr:g}: steady estimate error R {err_r:.3%}, L {err_l:.3%} "
                       f"above {tol:.0%}")
    return out


def settling_time(t, y, te: float, t_end: float, band: float = 0.02) -> float | None:
    """Time from the event until y last leaves the +-band*|step| band around its final value."""
    y0 = y[np.nonzero(t <= te + 1e-9)[0][-1]]
    w = (t >= te - 1e-9) & (t < t_end - 1e-9)
    tw, yw = t[w], y[w]
    final = yw[-max(1, round(0.25 * len(yw))):].mean()
    outside = np.nonzero(np.abs(yw - final) > band * abs(final - y0))[0]
    if outside.size == 0:
        return 0.0
    i = int(outside[-1])
    return None if i + 1 == len(tw) else float(tw[i + 1] - te)


def p_step_settling(trace: dict[str, np.ndarray], tol: float = 0.10) -> list[str]:
    """AVSG P-steps settle within `tol` of the first P-step's settling time."""
    times = []
    for k, (te, kind, _) in enumerate(EVENTS):
        if kind == "set_p_ref":
            t_end = EVENTS[k + 1][0] if k + 1 < len(EVENTS) else DURATION
            times.append((te, settling_time(trace["t"], trace["p_pcc"], te, t_end)))
    ref = times[0][1]
    bad = [(te, ts) for te, ts in times[1:] if ts is None or ref is None
           or abs(ts - ref) > tol * ref]
    return [f"AVSG P-step at t={te:g} settles in {ts} s against {ref} s" for te, ts in bad]


def closed_loop_outputs(outdir, avsg_result) -> list[str]:
    """Every trace check of the closed-loop and repro-quick workloads."""
    out = []
    avsg = load_trace(outdir / "timeseries_avsg.csv")
    for mode, trace in (("cvsg", load_trace(outdir / "timeseries_cvsg.csv")), ("avsg", avsg)):
        out += equilibria(trace, mode)
    est = load_trace(outdir / "estimates.csv")
    out += estimate_cadence(est)
    out += scheduling_identities(avsg_result.series, avsg_result.estimates)
    out += steady_estimates(est)
    out += p_step_settling(avsg)
    return out


# ---------------------------------------------------------------------------
# train-full
# ---------------------------------------------------------------------------

def stop_rule(report) -> list[str]:
    """Training stops on the MSE goal or on validation patience with test R >= 0.999."""
    if report.stop_reason == "goal" and report.train_mse[-1] <= 1e-5:
        return []
    if report.stop_reason == "val_patience" and report.regression["test"][2] >= 0.999:
        return []
    return [f"training stopped by {report.stop_reason!r} at train MSE "
            f"{report.train_mse[-1]:.3e}, test R {report.regression['test'][2]:.6f}"]


def heldout_accuracy(ann, model, norm, seed: int, n: int = 1000, tol: float = 0.02) -> list[str]:
    """Median relative error of R and L on windows from a seed training never used."""
    ds = ann.generate_dataset(ann.DatasetConfig(n_samples=n, seed=seed))
    pred = norm.inverse_y(ann.forward(model, norm.transform_x(ds.inputs)))
    truth = np.array([impedance(s, xr) for s, xr in zip(ds.scr, ds.xr_ratio)])
    err = np.abs(pred - truth) / truth
    med = np.median(err, axis=0)
    if np.all(med <= tol):
        return []
    return [f"held-out median error R {med[0]:.3%}, L {med[1]:.3%} above {tol:.0%}"]


def round_trips(ann, dataset_path, model_path, expected_ds, model, norm, probe_x) -> list[str]:
    """dataset.csv and model.json load back with identical values and network outputs."""
    out = []
    ds = ann.load_dataset_csv(dataset_path)
    fields = ("inputs", "targets", "scr", "xr_ratio", "p_ref", "q_ref", "t0")
    diff = [f for f in fields if not np.array_equal(getattr(ds, f), getattr(expected_ds, f))]
    if diff:
        out.append(f"dataset.csv does not load back exactly: {', '.join(diff)}")
    m2, n2 = ann.load_model(model_path)
    arrays = [(model.w1, m2.w1), (model.b1, m2.b1), (model.w2, m2.w2), (model.b2, m2.b2),
              (norm.x_mean, n2.x_mean), (norm.x_std, n2.x_std),
              (norm.y_mean, n2.y_mean), (norm.y_std, n2.y_std)]
    if not all(np.array_equal(a, b) for a, b in arrays):
        out.append("model.json does not load back with identical values")
    if not np.array_equal(ann.forward(model, norm.transform_x(probe_x)),
                          ann.forward(m2, n2.transform_x(probe_x))):
        out.append("model.json loads back with different network outputs")
    return out
