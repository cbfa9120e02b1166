"""Fundamental-frequency phasor model of the PCC-to-grid link.

Active/reactive power flow across a series R+jX grid impedance, the
analytic 2x2 Jacobian of that map, conversion between short-circuit
ratio (SCR) and impedance, and operating points in closed form, as the
roots of one quartic in the PCC voltage.  All quantities are per-phase
RMS; powers are three-phase totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OMEGA0_DEFAULT = 100.0 * math.pi  # 50 Hz nominal
V_G = 110.0       # plant rating: grid voltage, V RMS per phase
S_RATED = 5000.0  # plant rating: converter power, VA


class DegenerateImpedanceError(ValueError):
    """Raised when R_g^2 + X_g^2 == 0."""


class InfeasibleOperatingPointError(RuntimeError):
    """No operating point carries the targets: no root of the power-flow quartic
    has V_pcc in (0.5, 1.5) V_G and |delta| < pi/2."""


@dataclass(frozen=True)
class GridImpedance:
    """Series grid impedance Z_g = R_g + jX_g at the 50 Hz nominal frequency.

    The inductance `l_g` is derived from the reactance, x_g / OMEGA0_DEFAULT.
    x_g = 0 is tolerated only for resistive-limit oracle checks; normal use
    has x_g > 0.
    """

    r_g: float
    x_g: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_g) and math.isfinite(self.x_g)):
            raise ValueError("impedance entries must be finite")
        if self.r_g < 0.0:
            raise ValueError(f"r_g must be >= 0, got {self.r_g}")
        if self.x_g < 0.0:
            raise ValueError(f"x_g must be >= 0, got {self.x_g}")
        if self.r_g == 0.0 and self.x_g == 0.0:
            raise DegenerateImpedanceError("r_g and x_g are both zero")

    @property
    def l_g(self) -> float:
        """Grid inductance, H."""
        return self.x_g / OMEGA0_DEFAULT


@dataclass(frozen=True)
class OperatingPoint:
    """Steady-state phasor state at which linearization happens."""

    delta0: float   # phase angle difference PCC-grid, rad
    v_pcc0: float   # PCC RMS phase voltage, V
    v_g: float      # grid RMS phase voltage, V

    def __post_init__(self) -> None:
        if self.v_pcc0 <= 0.0 or self.v_g <= 0.0:
            raise ValueError("voltages must be positive")
        if abs(self.delta0) >= math.pi / 2:
            raise ValueError("|delta0| must be < pi/2 (monotone P-delta region)")


@dataclass(frozen=True)
class PowerPair:
    p: float  # W, three-phase
    q: float  # var, three-phase

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError("powers must be finite")


@dataclass(frozen=True)
class JacobianPQ:
    """Partials of (P_pcc, Q_pcc) w.r.t. (delta, V_pcc)."""

    a: float  # dP/ddelta, W/rad
    b: float  # dP/dV,     W/V
    c: float  # dQ/ddelta, var/rad
    d: float  # dQ/dV,     var/V


def _pf(delta: float, v: float, vg: float, r: float, x: float) -> tuple[float, float]:
    """Scalar power-flow kernel shared by the public API and the simulator."""
    den = r * r + x * x
    s = math.sin(delta)
    c = math.cos(delta)
    k = 3.0 / den
    p = k * (r * v * v - r * v * vg * c + x * v * vg * s)
    q = k * (x * v * v - x * v * vg * c - r * v * vg * s)
    return p, q


def _pf_jac(delta: float, v: float, vg: float, r: float, x: float
            ) -> tuple[float, float, float, float]:
    den = r * r + x * x
    s = math.sin(delta)
    c = math.cos(delta)
    k = 3.0 / den
    a = k * (r * v * vg * s + x * v * vg * c)
    b = k * (2.0 * r * v - r * vg * c + x * vg * s)
    cc = k * (x * v * vg * s - r * v * vg * c)
    d = k * (2.0 * x * v - x * vg * c - r * vg * s)
    return a, b, cc, d


def power_flow(op: OperatingPoint, z: GridImpedance) -> PowerPair:
    """Three-phase P_pcc, Q_pcc across the grid impedance."""
    p, q = _pf(op.delta0, op.v_pcc0, op.v_g, z.r_g, z.x_g)
    return PowerPair(p=p, q=q)


def jacobian(op: OperatingPoint, z: GridImpedance) -> JacobianPQ:
    """Analytic partials of the power-flow map at the operating point.

    All four entries are the true partials of the flow equations; in
    particular `d` is dQ/dV_pcc (validated against finite differences).
    """
    a, b, c, d = _pf_jac(op.delta0, op.v_pcc0, op.v_g, z.r_g, z.x_g)
    return JacobianPQ(a=a, b=b, c=c, d=d)


def scr_to_impedance(scr: float, xr_ratio: float) -> GridImpedance:
    """Grid impedance realizing a given short-circuit ratio on the plant.

    SCR = 3 V_G^2 / (|Z| S_RATED) with V_G per-phase RMS, so
    |Z| = 3 V_G^2 / (SCR S_RATED); the X/R ratio fixes the angle.  ValueError
    names both inputs when R or X overflows, underflows to 0 or is NaN.
    """
    for name, value in (("scr", scr), ("xr_ratio", xr_ratio)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    z_mag = 3.0 * V_G * V_G / (scr * S_RATED)
    x_g = z_mag * xr_ratio / math.sqrt(1.0 + xr_ratio * xr_ratio)
    r_g = x_g / xr_ratio
    if not (0.0 < r_g < math.inf and 0.0 < x_g < math.inf):
        raise ValueError(f"scr = {scr!r} and xr_ratio = {xr_ratio!r} give no representable "
                         f"impedance: r_g = {r_g!r} and x_g = {x_g!r} ohm")
    return GridImpedance(r_g, x_g)


def operating_points(p_target, q_target, r_g, x_g, *, d_q: float = 0.0) -> tuple[np.ndarray, ...]:
    """Operating points (delta, V_pcc) of arrays of targets and grid impedances.

    With S = P + jQ and Q = q_target - d_q (V_pcc - V_G), the two-bus power flow
    V_pcc V_G e^{j delta} = V_pcc^2 - conj(Z) S / 3 (Kundur, Power System Stability
    and Control, 1994) squares to a quartic in V_pcc, whose roots are the eigenvalues
    of its companion matrix; a real one has an imaginary part of exactly 0.  Each
    point is the largest real root in (0.5, 1.5) V_G, if |delta| < pi/2 there, and
    NaN where there is none or the quartic overflows.
    """
    p, q, r, x = np.broadcast_arrays(p_target, q_target, r_g, x_g)
    # conj(Z) S / 3 = (a0 - a1 V) + j (b0 - b1 V) once Q carries the droop
    q0 = q + d_q * V_G
    a0, a1 = (r * p + x * q0) / 3.0, x * d_q / 3.0
    b0, b1 = (r * q0 - x * p) / 3.0, r * d_q / 3.0
    # (V^2 + a1 V - a0)^2 + (b0 - b1 V)^2 - V_G^2 V^2 = 0, monic
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.stack([-2.0 * a1, 2.0 * a0 - a1 * a1 - b1 * b1 + V_G * V_G,
                        2.0 * (a0 * a1 + b0 * b1), -(a0 * a0 + b0 * b0)], axis=-1)
    companion = np.zeros(p.shape + (4, 4))  # all roots 0 where the quartic overflows
    companion[..., 0, :] = np.where(np.isfinite(top).all(axis=-1, keepdims=True), top, 0.0)
    companion[..., (1, 2, 3), (0, 1, 2)] = 1.0
    roots = np.linalg.eigvals(companion)
    in_range = (roots.imag == 0.0) & (0.5 * V_G < roots.real) & (roots.real < 1.5 * V_G)
    v = np.fmax.reduce(np.where(in_range, roots.real, np.nan), axis=-1)
    delta = np.arctan2(b1 * v - b0, v * v - a0 + a1 * v)
    ok = np.abs(delta) < math.pi / 2
    return np.where(ok, delta, np.nan), np.where(ok, v, np.nan)


def solve_operating_point(p_target: float, q_target: float, z: GridImpedance, *,
                          d_q: float = 0.0) -> OperatingPoint:
    """`operating_points` at one point: P = p_target and Q + d_q (V_pcc - V_G) = q_target,
    the steady state of the VSG outer loops when the Q-V droop gain d_q is nonzero.
    Where no root qualifies, InfeasibleOperatingPointError names the targets, the
    grid and the maximum power transfer (at Q = q_target)."""
    for name, value in (("p_target", p_target), ("q_target", q_target)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    delta, v = operating_points(p_target, q_target, z.r_g, z.x_g, d_q=d_q)
    if math.isnan(v):
        r, x = z.r_g, z.x_g
        b = (r * q_target - x * p_target) / 3.0
        limit = V_G * V_G * (V_G * V_G / 4.0 + (r * p_target + x * q_target) / 3.0)
        raise InfeasibleOperatingPointError(
            f"no V_pcc in ({0.5 * V_G:g}, {1.5 * V_G:g}) V with |delta| < pi/2 carries P = "
            f"{p_target!r} W and Q = {q_target!r} var over R = {r!r} ohm and X = {x!r} ohm: "
            + (f"they are beyond the maximum power transfer, (R Q - X P)^2 / 9 = {b * b:.6g} "
               f"V^4 > V_G^2 (V_G^2 / 4 + (R P + X Q) / 3) = {limit:.6g} V^4" if b * b > limit
               else "they are within the maximum power transfer, at a V_pcc outside that range"))
    return OperatingPoint(delta0=float(delta), v_pcc0=float(v), v_g=V_G)
