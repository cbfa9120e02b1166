"""Online impedance-estimation path.

Tumbling one-cycle windows of decimated PCC voltage/current samples are
buffered, z-scored, pushed through the trained network, and de-normalized
into (R_g, L_g) estimates.  Samples arrive a window at a time
(`push_window`, as the simulator sends them) or one at a time
(`push_sample`, the same buffer through the same call), and each full
window is inferred once.  A hysteresis gate (`GATE_THRESHOLD`) decides
when an estimate is worth rescheduling gains for.
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
    """Single-producer buffer-and-infer pipeline (not thread-safe).

    Samples must arrive at the estimator sample period (one accepted
    sample per `SAMPLE_DT`); a non-finite sample invalidates the current
    window and the fill restarts.
    """

    def __init__(self, model: MlpModel, norm: Normalizer):
        if model.w1.shape[1] != 2 * WINDOW_LEN:
            raise ValueError(f"model takes {model.w1.shape[1]} inputs, the estimator "
                             f"window gives {2 * WINDOW_LEN} ({WINDOW_LEN} of v and of i)")
        self.model = model
        self.norm = norm
        self._open_buffer()

    def _open_buffer(self) -> None:
        self._v = np.empty(WINDOW_LEN)
        self._i = np.empty(WINDOW_LEN)
        self.reset()

    def reset(self) -> None:
        self._fill = 0
        self._window_start = math.nan

    def _infer(self) -> tuple[float, float]:
        """(R_g, L_g) estimate from the full window."""
        x = np.concatenate([self._v, self._i])
        y = self.norm.inverse_y(forward(self.model, self.norm.transform_x(x)))
        return float(y[0]), float(y[1])

    def push_window(self, t, v, i) -> EstimateRecord | None:
        """`push_sample` over up to WINDOW_LEN (t, v, i) samples in order, at once:
        the estimate of the window they fill, if they fill one.

        As one at a time, the samples up to and including the last non-finite
        one are dropped, and the window reopens after it.
        """
        t, v, i = (np.asarray(a, dtype=float) for a in (t, v, i))
        if len(t) > WINDOW_LEN:
            raise ValueError(f"{len(t)} samples pushed at once, at most {WINDOW_LEN} fit")
        bad = np.flatnonzero(~(np.isfinite(v) & np.isfinite(i)))
        if bad.size:
            self.reset()
            t, v, i = t[bad[-1] + 1:], v[bad[-1] + 1:], i[bad[-1] + 1:]
        if len(t) == 0:
            return None
        if self._fill == 0:
            # the window opens one sample period before its first sample
            self._window_start = float(t[0]) - SAMPLE_DT
        n = min(len(t), WINDOW_LEN - self._fill)
        self._v[self._fill:self._fill + n] = v[:n]
        self._i[self._fill:self._fill + n] = i[:n]
        self._fill += n
        if self._fill < WINDOW_LEN:
            return None
        r_g, l_g = self._infer()
        end = float(t[n - 1])
        rec = EstimateRecord(t=end, r_g_hat=r_g, l_g_hat=l_g,
                             window_start=self._window_start, window_end=end)
        self.reset()
        if n < len(t):
            self.push_window(t[n:], v[n:], i[n:])  # the rest opens the next window
        return rec

    def push_sample(self, t: float, v: float, i: float) -> EstimateRecord | None:
        """Append one (v, i) pair; returns an estimate when a window fills."""
        return self.push_window((t,), (v,), (i,))


class OracleEstimator(OnlineEstimator):
    """Drop-in estimator that emits the true impedance at the same cadence.

    The scenario runner keeps `truth` = (r_g, l_g) current; used to isolate
    control correctness from estimation error.
    """

    def __init__(self):
        self.truth: tuple[float, float] = (math.nan, math.nan)
        self._open_buffer()

    def _infer(self) -> tuple[float, float]:
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
