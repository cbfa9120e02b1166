"""Virtual synchronous generator toolkit: quasi-static simulation,
online grid-impedance estimation with a small LM-trained network, and
adaptive gain scheduling of the VSG power loops."""

__version__ = "0.1.0"

from .grid import (GridImpedance, OperatingPoint, PowerPair, JacobianPQ,
                   power_flow, jacobian, scr_to_impedance, solve_operating_point)
from .smallsignal import (VsgGains, DesignTargets, TransferFunction,
                          FrequencyResponse, schedule_gains, bode, phase_margin)
from .sim import (Setpoints, ScenarioEvent, SimConfig, TimeSeries,
                  run_scenario)

__all__ = [
    "GridImpedance", "OperatingPoint", "PowerPair", "JacobianPQ",
    "power_flow", "jacobian", "scr_to_impedance", "solve_operating_point",
    "VsgGains", "DesignTargets", "TransferFunction", "FrequencyResponse",
    "schedule_gains", "bode", "phase_margin",
    "Setpoints", "ScenarioEvent", "SimConfig", "TimeSeries",
    "run_scenario",
]
