"""End-to-end acceptance gate.

One test per headline requirement, at the stated tolerances: analytic
Jacobian, exact gain-scheduling identities, phase-margin behavior over
grid strength, design-rule step response, LM trainer correctness,
full-scale training convergence, estimator latency and accuracy in the
60 s benchmark, fixed-gain vs adaptive comparison, and bit-level
reproducibility of the whole pipeline.
"""

import filecmp
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from vsglab import ann
from vsglab.cli import run_paper_repro
from vsglab.grid import (GridImpedance, JacobianPQ, power_flow, jacobian, scr_to_impedance,
                         solve_operating_point)
from vsglab.metrics import settling_time, percent_overshoot, estimation_metrics
from vsglab.report import build_comparison
from vsglab.sim import benchmark_config, impedance_schedule
from vsglab.smallsignal import (VsgGains, schedule_gains,
                                p_loop_info, q_loop_info, phase_margin)

BASELINE = VsgGains(d_p=2087.0, k_ip=0.00767, d_q=0.687, k_iq=0.115)


def test_jacobian_matches_finite_differences_on_1000_points():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    for _ in range(1000):
        delta, v = rng.uniform(-1.4, 1.4), rng.uniform(60.0, 160.0)
        z = GridImpedance(rng.uniform(0.0, 5.0), rng.uniform(0.05, 10.0))
        j = jacobian(delta, v, z)
        h_d, h_v = 1e-5, 1e-4
        pp = power_flow(delta + h_d, v, z)
        pm = power_flow(delta - h_d, v, z)
        vp = power_flow(delta, v + h_v, z)
        vm = power_flow(delta, v - h_v, z)
        fd = ((pp[0] - pm[0]) / (2 * h_d), (vp[0] - vm[0]) / (2 * h_v),
              (pp[1] - pm[1]) / (2 * h_d), (vp[1] - vm[1]) / (2 * h_v))
        for got, ref in zip((j.a, j.b, j.c, j.d), fd):
            assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref))
    assert time.perf_counter() - t0 < 1.0


def test_scheduling_identity_is_exact_for_100_random_designs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = float(10.0 ** rng.uniform(-2.0, 6.0))
        d = float(10.0 ** rng.uniform(-2.0, 6.0))
        g = schedule_gains(JacobianPQ(a=a, b=0.0, c=0.0, d=d))
        # closed loop K_ip A / (s^2 + D_p K_ip s + K_ip A), whose characteristic
        # polynomial is s^2 + 8 s + 16: omega_n = 4, xi = 1
        assert abs(g.d_p * g.k_ip - 8.0) <= 1e-12 * 8.0
        assert abs(g.k_ip * a - 16.0) <= 1e-12 * 16.0
        info = q_loop_info(g, d)
        assert abs(info.pole + 4.0) <= 1e-12 * 4.0


def test_phase_margin_drops_with_grid_strength_unless_rescheduled():
    t0 = time.perf_counter()
    fixed, scheduled = [], []
    for scr in (2.0, 8.0, 20.0):
        z = scr_to_impedance(scr, 5.0)
        j = jacobian(*solve_operating_point(2000.0, 1000.0, z), z)
        fixed.append(phase_margin(BASELINE, j.a))
        g = schedule_gains(j)
        scheduled.append(phase_margin(g, j.a))
    assert fixed[0] > fixed[1] > fixed[2]
    assert max(scheduled) - min(scheduled) < 0.1
    assert time.perf_counter() - t0 < 1.0


def test_design_rule_step_response():
    z = scr_to_impedance(2.0, 5.0)
    j = jacobian(*solve_operating_point(2000.0, 1000.0, z), z)
    g = schedule_gains(j)
    info = p_loop_info(g, j.a)
    assert info.t_s_rule == pytest.approx(1.000, rel=1e-12)

    # critically damped closed loop: y(t) = 1 - (1 + 4t) e^(-4t)
    t = np.arange(0.0, 5.0, 1e-4)
    y = 1.0 - (1.0 + info.omega_n * t) * np.exp(-info.omega_n * t)
    assert percent_overshoot(t, y, 0.0, 0.0, 1.0) == 0.0
    measured = settling_time(t, y, 0.0, 1.0, band=0.02)
    ref = brentq(lambda u: (1.0 + 4.0 * u) * math.exp(-4.0 * u) - 0.02, 0.1, 4.0)
    assert measured == pytest.approx(ref, abs=1e-3)
    assert measured == pytest.approx(1.458, abs=0.01)

    # first-order reactive loop: steady-state error from the droop ratio
    e_pct = q_loop_info(g, j.d).e_inf * 100.0
    assert e_pct == pytest.approx(0.990, abs=0.001)


def test_lm_step_and_gradients_against_closed_forms():
    # one damped Gauss-Newton step on a linear model equals least squares
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 4))
    y = x @ rng.normal(size=(4, 2)) + rng.normal(size=2)
    m = ann.MlpModel(np.eye(4), np.zeros(4), np.zeros((2, 4)), np.zeros(2),
                     hidden_activation="linear")
    m1 = ann.lm_step(m, x, y, mu=1e-12)
    ref, *_ = np.linalg.lstsq(np.hstack([x, np.ones((60, 1))]), y, rcond=None)
    np.testing.assert_allclose(m1.w2, ref[:4].T, atol=1e-8)
    np.testing.assert_allclose(m1.b2, ref[4], atol=1e-8)

    # reverse-mode gradient of the half-SSE vs central differences
    for seed in range(3):
        rng = np.random.default_rng(seed)
        net = ann.init_model(3, 5, 2, seed=seed)
        xs = rng.normal(size=(8, 3))
        ys = rng.normal(size=(8, 2))
        j, e = ann.error_jacobian(net, xs, ys)
        grad = j.T @ e
        w0 = net.flat_weights()
        h = 1e-6
        for col in range(net.n_params):
            dw = np.zeros_like(w0)
            dw[col] = h
            _, ep = ann.error_jacobian(net.with_flat_weights(w0 + dw), xs, ys)
            _, em = ann.error_jacobian(net.with_flat_weights(w0 - dw), xs, ys)
            fd = (float(ep @ ep) - float(em @ em)) / (4.0 * h)
            assert abs(grad[col] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_full_scale_training_converges(trained):
    model, norm, report, elapsed = trained
    print(f"\ntraining: {report.epochs_run} epochs in {elapsed:.1f} s, "
          f"stop: {report.stop_reason}, test R: {report.regression['test'][2]:.6f}")
    assert elapsed < 30.0
    if report.stop_reason == "goal":
        assert report.epochs_run <= 500
        assert report.train_mse[-1] <= 1e-5
    else:
        assert report.stop_reason == "val_patience"
        assert report.regression["test"][2] >= 0.999


def test_every_estimate_arrives_one_cycle_after_its_window_opens(benchmark_runs):
    _, res_a, _, _ = benchmark_runs
    assert len(res_a.estimates) > 2500
    first = res_a.estimates[0][0]
    assert first.t == pytest.approx(0.02, abs=1e-12)
    for rec, _, _, _ in res_a.estimates:
        assert rec.t - rec.window_start == pytest.approx(0.02, abs=1e-12)


def test_estimation_accuracy_across_grid_strengths(benchmark_runs):
    _, res_a, events, _ = benchmark_runs
    cfg = benchmark_config("avsg")
    stats = estimation_metrics(res_a.estimates, impedance_schedule(cfg, events), 60.0)
    assert len(stats) == 3
    for s in stats:
        print(f"\nsegment {s.t_start:g}-{s.t_end:g}s: steady err R {s.steady_rel_err_r:.3%} "
              f"L {s.steady_rel_err_l:.3%}, peak R {s.peak_rel_err_r:.2%} "
              f"L {s.peak_rel_err_l:.2%}")
    trained_seg = stats[0]      # SCR 2 appears in the training grid
    assert trained_seg.steady_rel_err_r <= 0.02
    assert trained_seg.steady_rel_err_l <= 0.02
    for s in stats[1:]:         # SCR 8 and 20 were never trained on
        assert s.steady_rel_err_r <= 0.10
        assert s.steady_rel_err_l <= 0.10


def test_adaptive_mode_keeps_step_response_constant(benchmark_runs):
    res_c, res_a, events, elapsed = benchmark_runs
    assert elapsed < 120.0
    cfg = benchmark_config("avsg")
    rep = build_comparison(res_c.series, res_a.series, events, res_a.estimates,
                           impedance_schedule(cfg, events))

    p_steps = [r for r in rep.events if r.kind == "set_p_ref"]
    q_steps = [r for r in rep.events if r.kind == "set_q_ref"]
    ref_p = p_steps[0].avsg.settling_time_s
    for r in p_steps[1:]:
        assert abs(r.avsg.settling_time_s - ref_p) <= 0.10 * ref_p
    for r in q_steps:
        assert abs(r.avsg.settling_time_s - rep.settling_ref_q) \
            <= 0.10 * rep.settling_ref_q

    over_p = [r.avsg.overshoot_pct for r in p_steps]
    assert max(over_p) - min(over_p) <= 1.0
    assert all(r.avsg.overshoot_pct <= 1.0 for r in q_steps)

    assert rep.passed, rep.failures


def test_fixed_gains_accumulate_more_oscillation_energy_when_grid_stiffens(benchmark_runs):
    # Known to fail in this quasi-static model: with the fixed product
    # D_p*K_ip the CVSG step ISE is step^2*(1+4*xi^2)/(2*D_p*K_ip), which is
    # bounded above by the critically damped design's 0.3125*step^2 for every
    # grid strength, so the expected ordering cannot occur.
    res_c, res_a, events, _ = benchmark_runs
    cfg = benchmark_config("avsg")
    rep = build_comparison(res_c.series, res_a.series, events, res_a.estimates,
                           impedance_schedule(cfg, events))
    # setpoint steps after the grid first stiffens (SCR 8 at t=20, SCR 20 at t=40)
    for r in rep.events:
        if r.kind != "set_scr" and r.time > 20.0:
            assert r.ise_cvsg > r.ise_avsg, (
                f"t={r.time:g}: CVSG ISE {r.ise_cvsg:.4g} "
                f"not larger than AVSG ISE {r.ise_avsg:.4g}")


def test_pipeline_is_bit_reproducible(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_paper_repro(out1, seed=0, quick=True)
    run_paper_repro(out2, seed=0, quick=True)
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert {"timeseries_avsg.csv", "dataset.csv", "model.json", "report.txt",
            "scenario_avsg.json"} <= set(names)
    for name in names:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
