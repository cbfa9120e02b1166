"""Online impedance-estimation path.

Each estimator window is one fundamental cycle of decimated PCC voltage and
current samples that opens on the cycle grid, as every window of the
training set does.  `push_window` takes one whole window, z-scores it,
pushes it through the trained network and de-normalizes the output into an
(R_g, L_g) estimate; it keeps no state between windows.  The simulator's
one buffer is the RK4 kernel's `(WINDOW_LEN, 5)` window array in
`sim.run_scenario`; the waveforms of each full window go to `push_window`.
`push_sample` collects single samples in a `_pending` list of its own and
hands each WINDOW_LEN of them to `push_window`; no run of the package calls
it, and it is kept for perfbench's tracer, which counts its calls.  A
window holding a non-finite sample gives no estimate and costs nothing
beyond itself.  A hysteresis gate (`GATE_THRESHOLD`) decides when an
estimate is worth rescheduling gains for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ann import SAMPLE_DT, WINDOW_LEN, MlpModel, Normalizer, forward
from .tables import read_table, write_table


@dataclass(frozen=True)
class EstimateRecord:
    t: float             # emission time = window_end, s
    r_g_hat: float       # ohms
    l_g_hat: float       # henries
    window_start: float  # s
    window_end: float    # s


class OnlineEstimator:
    """The trained network applied to one whole estimator window at a time."""

    def __init__(self, model: MlpModel, norm: Normalizer):
        if model.w1.shape[1] != 2 * WINDOW_LEN:
            raise ValueError(f"model takes {model.w1.shape[1]} inputs, the estimator "
                             f"window gives {2 * WINDOW_LEN} ({WINDOW_LEN} of v and of i)")
        self.model = model
        self.norm = norm

    def _infer(self, v: np.ndarray, i: np.ndarray) -> tuple[float, float]:
        """(R_g, L_g) estimate from one window's samples."""
        x = np.concatenate([v, i])
        y = self.norm.inverse_y(forward(self.model, self.norm.transform_x(x)))
        return float(y[0]), float(y[1])

    def push_window(self, t, v, i) -> EstimateRecord | None:
        """The estimate of the window of WINDOW_LEN (t, v, i) samples, or None if a
        sample of v or i is not finite.

        The window opens one sample period before its first sample, which must
        lie on the cycle grid: `t[0] - SAMPLE_DT` a whole number of cycles.
        Another sample count or a window off the grid raises ValueError.
        """
        t, v, i = (np.asarray(a, dtype=float) for a in (t, v, i))
        if not len(t) == len(v) == len(i) == WINDOW_LEN:
            raise ValueError(f"a window is {WINDOW_LEN} samples of t, v and i, "
                             f"got {len(t)}, {len(v)} and {len(i)}")
        start = float(t[0]) - SAMPLE_DT
        cycle = WINDOW_LEN * SAMPLE_DT
        if not abs(math.remainder(start, cycle)) <= 1e-6 * cycle:
            raise ValueError(f"a window opening at t = {start!r} s is off the "
                             f"{cycle * 1e3:g} ms cycle grid")
        if not (np.isfinite(v).all() and np.isfinite(i).all()):
            return None
        r_g, l_g = self._infer(v, i)
        end = float(t[-1])
        return EstimateRecord(t=end, r_g_hat=r_g, l_g_hat=l_g,
                              window_start=start, window_end=end)

    def push_sample(self, t: float, v: float, i: float) -> EstimateRecord | None:
        """Collect one (t, v, i) sample; every WINDOW_LEN of them, finite or not,
        go to `push_window` as one window."""
        pending = self.__dict__.setdefault("_pending", [])
        pending.append((t, v, i))
        if len(pending) < WINDOW_LEN:
            return None
        del self._pending
        return self.push_window(*zip(*pending))


class OracleEstimator(OnlineEstimator):
    """Drop-in estimator that emits the true impedance at the same cadence.

    The scenario runner keeps `truth` = (r_g, l_g) current; used to isolate
    control correctness from estimation error.
    """

    def __init__(self):
        self.truth: tuple[float, float] = (math.nan, math.nan)

    def _infer(self, v: np.ndarray, i: np.ndarray) -> tuple[float, float]:
        return self.truth


GATE_THRESHOLD = 0.05  # relative change of R_g or L_g that reschedules the gains


def gate_gain_update(est: EstimateRecord, prev_applied: EstimateRecord | None) -> bool:
    """Apply scheduling on the first estimate or a > GATE_THRESHOLD relative change."""
    if prev_applied is None:
        return True
    dr = abs(est.r_g_hat - prev_applied.r_g_hat) / max(abs(prev_applied.r_g_hat), 1e-12)
    dl = abs(est.l_g_hat - prev_applied.l_g_hat) / max(abs(prev_applied.l_g_hat), 1e-12)
    return dr > GATE_THRESHOLD or dl > GATE_THRESHOLD


ESTIMATE_LOG_COLUMNS = ("t", "r_g_hat", "l_g_hat", "r_g_true", "l_g_true",
                        "window_start", "window_end", "applied")


def write_estimate_log_csv(path: str | Path,
                           records: list[tuple[EstimateRecord, float, float, bool]]) -> None:
    """Rows of (record, r_true, l_true, applied)."""
    rows = [(rec.t, rec.r_g_hat, rec.l_g_hat, r_true, l_true,
             rec.window_start, rec.window_end, int(applied))
            for rec, r_true, l_true, applied in records]
    write_table(path, ESTIMATE_LOG_COLUMNS,
                list(zip(*rows)) or [()] * len(ESTIMATE_LOG_COLUMNS))


def read_estimate_log_csv(path: str | Path) -> list[tuple[EstimateRecord, float, float, bool]]:
    """The rows `write_estimate_log_csv` wrote, with equal values."""
    return [(EstimateRecord(t, r_hat, l_hat, w_start, w_end), r_true, l_true, bool(applied))
            for t, r_hat, l_hat, r_true, l_true, w_start, w_end, applied
            in read_table(path, ESTIMATE_LOG_COLUMNS).tolist()]
