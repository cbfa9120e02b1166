"""Fundamental-frequency phasor model of the PCC-to-grid link.

Active/reactive power flow across a series R+jX grid impedance, the
analytic 2x2 Jacobian of that map, conversion between short-circuit
ratio (SCR) and impedance, and a damped-Newton operating-point solver.
All quantities are per-phase RMS; powers are three-phase totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

OMEGA0_DEFAULT = 100.0 * math.pi  # 50 Hz nominal
V_G = 110.0       # plant rating: grid voltage, V RMS per phase
S_RATED = 5000.0  # plant rating: converter power, VA


class DegenerateImpedanceError(ValueError):
    """Raised when R_g^2 + X_g^2 == 0."""


class InfeasibleOperatingPointError(RuntimeError):
    """Newton solve for an operating point failed to converge."""


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


def solve_operating_point(p_target: float, q_target: float, z: GridImpedance,
                          v_g: float, *, tol: float = 1e-9, d_q: float = 0.0,
                          v_nom: float = 0.0) -> OperatingPoint:
    """Damped Newton solve of the power-flow equations for (delta, V_pcc).

    Solves P = p_target and Q + d_q (V_pcc - v_nom) = q_target; a nonzero
    Q-V droop gain `d_q` gives the steady state of the VSG outer loops,
    and `v_nom` matters only then.  Searches |delta| < pi/2, V_pcc in
    [0.5, 1.5] v_g for at most 50 Newton steps.  The residual tolerance
    `tol` is relative to max(|P|, |Q|, 1), so both targets must be finite.
    """
    for name, value in (("p_target", p_target), ("q_target", q_target)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    max_iter = 50
    scale = max(abs(p_target), abs(q_target), 1.0)
    delta, v = 0.0, v_g

    def residual(d: float, vv: float) -> tuple[float, float, float]:
        p, q = _pf(d, vv, v_g, z.r_g, z.x_g)
        rp, rq = p - p_target, q + d_q * (vv - v_nom) - q_target
        return rp, rq, math.hypot(rp, rq)

    rp, rq, rn = residual(delta, v)
    for _ in range(max_iter):
        if rn <= tol * scale:
            return OperatingPoint(delta0=delta, v_pcc0=v, v_g=v_g)
        a, b, c, d = _pf_jac(delta, v, v_g, z.r_g, z.x_g)
        d += d_q
        det = a * d - b * c
        if det == 0.0 or not math.isfinite(det):
            raise InfeasibleOperatingPointError("singular Jacobian during Newton solve")
        dd = (d * rp - b * rq) / det
        dv = (-c * rp + a * rq) / det
        # step halving until the residual shrinks and stays in the domain
        step = 1.0
        for _ in range(40):
            d_new = delta - step * dd
            v_new = v - step * dv
            if abs(d_new) < math.pi / 2 and 0.5 * v_g < v_new < 1.5 * v_g:
                rp_n, rq_n, rn_n = residual(d_new, v_new)
                if rn_n < rn:
                    delta, v, rp, rq, rn = d_new, v_new, rp_n, rq_n, rn_n
                    break
            step *= 0.5
        else:
            raise InfeasibleOperatingPointError(
                f"no descent step found at residual {rn:.3e}")
    if rn <= tol * scale:
        return OperatingPoint(delta0=delta, v_pcc0=v, v_g=v_g)
    raise InfeasibleOperatingPointError(
        f"Newton did not converge in {max_iter} iterations (residual {rn:.3e})")
