"""The 60 s three-segment benchmark scenario.

The benchmark's initial grid, set-points and the fixed-gain (CVSG)
baseline are `SimConfig`'s defaults, defined in `vsglab.sim` with
`BASELINE_GAINS` and `XR_RATIO_DEFAULT`; the plant (110 V, 5 kVA, 50 Hz)
is the constants of `vsglab.grid`.  The adaptive mode (AVSG) starts from
the same gains and reschedules them from impedance estimates.  The
simulation models the inner current/voltage loops as ideal.
"""

from __future__ import annotations

from .sim import XR_RATIO_DEFAULT, SimConfig, ScenarioEvent


def benchmark_events() -> list[ScenarioEvent]:
    """Three grid-strength segments with mid-segment setpoint steps."""
    return [
        ScenarioEvent(time=10.0, kind="set_p_ref", value=2500.0),
        ScenarioEvent(time=20.0, kind="set_scr", value=8.0, xr_ratio=XR_RATIO_DEFAULT),
        ScenarioEvent(time=30.0, kind="set_p_ref", value=3000.0),
        ScenarioEvent(time=40.0, kind="set_scr", value=20.0, xr_ratio=XR_RATIO_DEFAULT),
        ScenarioEvent(time=50.0, kind="set_q_ref", value=1500.0),
    ]


def benchmark_config(mode: str, **overrides) -> SimConfig:
    """60 s benchmark run: SCR 2 -> 8 -> 20, P 2 -> 2.5 -> 3 kW, Q 1 -> 1.5 kVAr."""
    return SimConfig(duration=60.0, mode=mode, **overrides)
