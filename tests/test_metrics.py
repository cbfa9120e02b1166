"""Step metrics and estimation statistics against analytic oracles."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from vsglab.estimator import EstimateRecord
from vsglab.grid import OMEGA0_DEFAULT, GridImpedance
from vsglab.metrics import (settling_time, percent_overshoot, steady_value,
                            step_metrics, oscillation_energy, estimation_metrics)


def first_order(tau=1.0, t_end=8.0, dt=0.01):
    t = np.arange(0.0, t_end, dt)
    return t, 1.0 - np.exp(-t / tau)


def test_settling_time_first_order():
    # |y - 1| <= 0.02 from t = tau ln(50) on
    t, y = first_order()
    ts = settling_time(t, y, 0.0, 1.0)
    assert ts == pytest.approx(math.log(50.0), abs=1e-3)


def test_settling_time_critically_damped():
    t = np.arange(0.0, 5.0, 1e-3)
    y = 1.0 - (1.0 + 4.0 * t) * np.exp(-4.0 * t)
    ref = brentq(lambda u: (1.0 + 4.0 * u) * math.exp(-4.0 * u) - 0.02, 0.1, 4.0)
    assert settling_time(t, y, 0.0, 1.0) == pytest.approx(ref, abs=1e-4)
    assert ref == pytest.approx(1.458, abs=1e-3)


def test_settling_time_zero_when_always_in_band():
    t = np.arange(-1.0, 2.0, 1e-3)
    y = np.where(t < 0.0005, 0.9, 1.0)
    assert settling_time(t, y, 0.0005, 1.0, band=0.2) == 0.0


def test_settling_time_none_when_unsettled():
    t = np.arange(0.0, 2.0, 1e-3)
    y = 0.4 * t  # still far from 1 at the end
    assert settling_time(t, y, 0.0, 1.0) is None


def test_settling_time_rejects_zero_step():
    t = np.arange(0.0, 1.0, 1e-3)
    with pytest.raises(ValueError):
        settling_time(t, np.ones_like(t), 0.0, 1.0)


def test_percent_overshoot_second_order():
    zeta, wn = 0.5, 3.0
    wd = wn * math.sqrt(1.0 - zeta ** 2)
    t = np.arange(0.0, 10.0, 1e-4)
    y = 1.0 - np.exp(-zeta * wn * t) * (np.cos(wd * t)
                                        + zeta / math.sqrt(1 - zeta ** 2) * np.sin(wd * t))
    ref = 100.0 * math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta ** 2))
    assert percent_overshoot(t, y, 0.0, 0.0, 1.0) == pytest.approx(ref, abs=0.01)


def test_percent_overshoot_clipped_at_zero():
    t, y = first_order()
    assert percent_overshoot(t, y, 0.0, 0.0, 1.0) == 0.0


def test_steady_value_tail_mean():
    t = np.arange(0.0, 1.0, 0.01)
    y = np.where(t < 0.75, 5.0, 2.0)
    assert steady_value(t, y, 0.0, 1.0) == pytest.approx(2.0)


def test_step_metrics_steady_state_error():
    t, y = first_order(t_end=20.0)
    m = step_metrics(t, 0.99 * y, 0.0, reference=0.99 / 0.98)
    # final value 0.99, reference 0.99/0.98: error is 2% of the step by design
    assert m.steady_state_error_pct == pytest.approx(2.0, abs=0.1)
    # tail-mean final value sits a hair below the monotone curve's endpoint
    assert m.overshoot_pct < 1e-4


def test_oscillation_energy_of_sine():
    t = np.arange(0.0, 3.0, 1e-4)
    y = np.sin(2.0 * math.pi * t)
    # the final value is the mean of the last quarter of the 2 s window,
    # c = mean(sin) over [1.5, 2] = -2/pi; the integral of (sin - c)^2 over
    # 2 s is 1 - 2c * 0 + 2c^2 = 1 + 8/pi^2
    assert oscillation_energy(t, y, 0.0) == pytest.approx(1.0 + 8.0 / math.pi**2, abs=1e-6)


def make_rec(t, r, l):
    return EstimateRecord(t=t, r_g_hat=r, l_g_hat=l,
                          window_start=t - 0.02, window_end=t)


def grid(r, l):
    """The grid impedance of resistance r and inductance l."""
    return GridImpedance(r, OMEGA0_DEFAULT * l)


def test_estimation_metrics_segments():
    truth = [(0.0, grid(1.0, 0.010)), (1.0, grid(0.5, 0.005))]
    ests = []
    for k in range(1, 100):
        t = round(0.02 * k, 10)
        if t <= 1.0:
            r, l = 1.02, 0.0101     # 2% / 1% off in segment one
        else:
            r, l = 0.51, 0.0051     # 2% off in segment two
        ests.append((make_rec(t, r, l), 0.0, 0.0, False))
    # a window straddling the impedance step must be excluded everywhere
    ests.append((make_rec(1.01, 5.0, 0.05), 0.0, 0.0, False))
    stats = estimation_metrics(ests, truth, t_end=1.98)
    assert len(stats) == 2
    s1, s2 = stats
    assert s1.steady_rel_err_r == pytest.approx(0.02, abs=1e-12)
    assert s1.steady_rel_err_l == pytest.approx(0.01, abs=1e-12)
    assert s1.peak_rel_err_r == pytest.approx(0.02, abs=1e-12)
    assert s2.steady_rel_err_r == pytest.approx(0.02, abs=1e-12)
    assert s2.peak_rel_err_r == pytest.approx(0.02, abs=1e-12)
    assert s1.detection_delay_s == pytest.approx(0.02, abs=1e-12)
    assert s2.detection_delay_s == pytest.approx(0.02, abs=1e-9)


def test_estimation_metrics_out_of_tolerance_segment():
    truth = [(0.0, grid(1.0, 0.010))]
    ests = [(make_rec(0.02 * k, 2.0, 0.02), 0.0, 0.0, False) for k in range(1, 20)]
    (s,) = estimation_metrics(ests, truth, t_end=0.4)
    assert s.detection_delay_s is None
    assert s.steady_rel_err_r == pytest.approx(1.0)
