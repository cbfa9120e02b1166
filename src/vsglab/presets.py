"""Baseline parameters and the 60 s three-segment benchmark scenario.

The fixed-gain (CVSG) baseline uses the published controller gains
verbatim; the adaptive mode (AVSG) starts from the same gains and
reschedules them from impedance estimates.  Inner current/voltage loop
gains are recorded for documentation only; the simulation models the
inner loops as ideal.  The plant rating `V_G`, `S_RATED` is `vsglab.grid`'s,
re-exported here.
"""

from __future__ import annotations

from .grid import S_RATED, V_G
from .sim import SimConfig, ScenarioEvent, Setpoints
from .smallsignal import VsgGains

XR_RATIO_DEFAULT = 5.0

# fixed CVSG baseline gains
BASELINE_GAINS = VsgGains(d_p=2087.0, k_ip=0.00767, d_q=0.687, k_iq=0.115)

# inner-loop parameters, documentation only (inner loops modeled as ideal)
INNER_LOOPS = {
    "current": {"response_time_s": 1e-3, "k_p": 12.5664, "k_i": 3.9478e4},
    "voltage": {"response_time_s": 10e-3, "k_p": 0.0628, "k_i": 19.7392},
}


def benchmark_events(xr_ratio: float = XR_RATIO_DEFAULT) -> list[ScenarioEvent]:
    """Three grid-strength segments with mid-segment setpoint steps."""
    return [
        ScenarioEvent(time=10.0, kind="set_p_ref", value=2500.0),
        ScenarioEvent(time=20.0, kind="set_scr", value=8.0, xr_ratio=xr_ratio),
        ScenarioEvent(time=30.0, kind="set_p_ref", value=3000.0),
        ScenarioEvent(time=40.0, kind="set_scr", value=20.0, xr_ratio=xr_ratio),
        ScenarioEvent(time=50.0, kind="set_q_ref", value=1500.0),
    ]


def benchmark_config(mode: str, xr_ratio: float = XR_RATIO_DEFAULT,
                     **overrides) -> SimConfig:
    """60 s benchmark run: SCR 2 -> 8 -> 20, P 2 -> 2.5 -> 3 kW, Q 1 -> 1.5 kVAr."""
    base = dict(
        duration=60.0,
        mode=mode,
        gains=BASELINE_GAINS,
        setpoints=Setpoints(p_ref=2000.0, q_ref=1000.0),
        scr=2.0,
        xr_ratio=xr_ratio,
        v_g=V_G,
        s_rated=S_RATED,
    )
    base.update(overrides)
    return SimConfig(**base)
