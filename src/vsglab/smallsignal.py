"""Small-signal machinery for the VSG power loops.

Loop characteristics, the gain-scheduling rule that pins the active loop at
omega_n = 4/(xi*Ts) with damping xi and the reactive loop at a first-order
pole with ~1% steady-state error, and the Bode response and phase margin of
the one loop that rule designs: the active open loop
L(s) = A K_ip / (s (s + D_p K_ip)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tables import write_table


class DesignRegionError(ValueError):
    """Static loop gain is non-positive; the linearized design rules do not apply."""


class SchedulingError(DesignRegionError):
    """Gain scheduling rejected the Jacobian entries; keep previous gains."""


class NoCrossoverError(ValueError):
    """The magnitude response never crosses 0 dB on the evaluated grid."""


@dataclass(frozen=True)
class VsgGains:
    """The four schedulable VSG power-loop parameters."""

    d_p: float   # active droop, W*s/rad
    k_ip: float  # active integral gain (virtual inertia), rad/(W*s)
    d_q: float   # reactive droop, var/V
    k_iq: float  # reactive integral gain, V/(var*s)

    def __post_init__(self) -> None:
        for name in ("d_p", "k_ip", "d_q", "k_iq"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class DesignTargets:
    """Closed-loop performance targets driving the scheduling rule."""

    t_s: float = 1.0                # settling time, s (4/(xi*omega_n) rule)
    xi: float = 1.0                 # damping factor
    q_droop_divisor: float = 100.0  # D_q = D / divisor

    def __post_init__(self) -> None:
        for name in ("t_s", "xi", "q_droop_divisor"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"design target {name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class FrequencyResponse:
    """Sampled frequency response with unwrapped phase."""

    omega: np.ndarray      # rad/s, strictly increasing
    mag_db: np.ndarray
    phase_deg: np.ndarray  # unwrapped

    def __post_init__(self) -> None:
        if np.any(np.diff(self.omega) <= 0):
            raise ValueError("frequency grid must be strictly increasing")


@dataclass(frozen=True)
class SecondOrderInfo:
    """Derived characteristics of the active (second-order) closed loop."""

    omega_n: float
    xi: float
    t_s_rule: float  # 4 / (xi * omega_n)


@dataclass(frozen=True)
class FirstOrderInfo:
    """Derived characteristics of the reactive (first-order) closed loop."""

    y_inf: float   # steady-state value for a unit step reference
    e_inf: float   # steady-state error fraction
    tau: float     # time constant, s
    pole: float    # rad/s (negative)


def p_loop_info(gains: VsgGains, jac_a: float) -> SecondOrderInfo:
    if jac_a <= 0.0:
        raise DesignRegionError(f"A must be > 0, got {jac_a}")
    omega_n = math.sqrt(gains.k_ip * jac_a)
    xi = gains.d_p * gains.k_ip / (2.0 * omega_n)
    return SecondOrderInfo(omega_n=omega_n, xi=xi, t_s_rule=4.0 / (xi * omega_n))


def q_loop_info(gains: VsgGains, jac_d: float) -> FirstOrderInfo:
    if jac_d <= 0.0:
        raise DesignRegionError(f"D must be > 0, got {jac_d}")
    total = gains.d_q + jac_d
    return FirstOrderInfo(
        y_inf=jac_d / total,
        e_inf=gains.d_q / total,
        tau=1.0 / (gains.k_iq * total),
        pole=-gains.k_iq * total,
    )


def _unusable(gain: float) -> bool:
    return gain == 0.0 or not math.isfinite(gain)


def schedule_gains(jac, targets: DesignTargets = DesignTargets()) -> VsgGains:
    """Recompute the four VSG gains from the Jacobian entries A and D.

    Active loop: omega_n = 4/(xi*Ts), K_ip = omega_n^2/A, D_p = 2 xi omega_n / K_ip
    (A/2 and 16/A for the default targets).  Reactive loop: D_q = D/divisor,
    K_iq = (4/Ts)/(D + D_q).  Targets that make a gain 0 or not finite at this A
    or D raise SchedulingError naming the targets and the entry.
    """
    a, d = jac.a, jac.d
    if not (a > 0.0 and math.isfinite(a)):
        raise SchedulingError(f"Jacobian entry A must be > 0, got {a}")
    if not (d > 0.0 and math.isfinite(d)):
        raise SchedulingError(f"Jacobian entry D must be > 0, got {d}")
    omega_n = 4.0 / (targets.xi * targets.t_s)
    k_ip = omega_n * omega_n / a
    # K_ip is checked before D_p divides by it
    if _unusable(k_ip) or _unusable(d_p := 2.0 * targets.xi * omega_n / k_ip):
        raise SchedulingError(f"t_s = {targets.t_s} s and xi = {targets.xi} cannot be met "
                              f"at A = {a}: omega_n = {omega_n} rad/s gives an active-loop "
                              f"gain of 0 or not finite")
    d_q = d / targets.q_droop_divisor
    k_iq = (4.0 / targets.t_s) / (d + d_q)
    if _unusable(d_q) or _unusable(k_iq):
        raise SchedulingError(f"t_s = {targets.t_s} s and q_droop_divisor = "
                              f"{targets.q_droop_divisor} cannot be met at D = {d}: they give "
                              f"a reactive-loop gain of 0 or not finite")
    return VsgGains(d_p=d_p, k_ip=k_ip, d_q=d_q, k_iq=k_iq)


def bode(gains: VsgGains, jac_a: float, omega: np.ndarray | None = None) -> FrequencyResponse:
    """Magnitude (dB) and unwrapped phase (deg) of the active open loop, the control
    law K_ip / (s^2 + D_p K_ip s) times the static P-delta gain A, at s = j omega
    (by default 400 log-spaced points from 1e-2 to 1e3 rad/s).  Its poles, 0 and
    -D_p K_ip, are off the positive imaginary axis."""
    if jac_a <= 0.0:
        raise DesignRegionError(f"A must be > 0, got {jac_a}")
    omega = np.logspace(-2.0, 3.0, 400) if omega is None else np.asarray(omega, dtype=float)
    if np.any(omega <= 0) or np.any(np.diff(omega) <= 0):
        raise ValueError("omega grid must be positive and strictly increasing")
    s = 1j * omega
    h = (jac_a * gains.k_ip) / (s * (s + gains.d_p * gains.k_ip))
    mag_db = 20.0 * np.log10(np.abs(h))
    phase_deg = np.degrees(np.unwrap(np.angle(h)))
    return FrequencyResponse(omega=omega, mag_db=mag_db, phase_deg=phase_deg)


def phase_margin(fr: FrequencyResponse) -> float:
    """180 deg + phase at the gain crossover (linear interp in log-omega/dB)."""
    mag = fr.mag_db
    crossings = np.nonzero(np.diff(np.sign(mag)) != 0)[0]
    exact = np.nonzero(mag == 0.0)[0]
    if exact.size:
        i = exact[-1]
        return 180.0 + float(fr.phase_deg[i])
    if crossings.size == 0:
        raise NoCrossoverError(f"the magnitude response never crosses 0 dB on the grid from "
                               f"{fr.omega[0]:g} to {fr.omega[-1]:g} rad/s")
    i = crossings[-1]
    logw = np.log10(fr.omega)
    frac = mag[i] / (mag[i] - mag[i + 1])
    logwc = logw[i] + frac * (logw[i + 1] - logw[i])
    phase = fr.phase_deg[i] + (logwc - logw[i]) / (logw[i + 1] - logw[i]) * (
        fr.phase_deg[i + 1] - fr.phase_deg[i])
    return 180.0 + float(phase)


def write_frequency_response_csv(fr: FrequencyResponse, path: str | Path) -> None:
    write_table(path, ("omega_rad_s", "mag_db", "phase_deg"), [fr.omega, fr.mag_db, fr.phase_deg])
