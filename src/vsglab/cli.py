"""Command-line front end.

Subcommands: gains, bode, dataset, train, simulate, evaluate, paper-repro.
Each reads flags and/or a JSON scenario config, writes CSV/report files,
and exits nonzero on error.  The dataset, train, simulate and evaluate
subcommands each write their files through one stage function, which
creates the output directory once its inputs have loaded; paper-repro is
those stages run in order, except that its CVSG simulate stage runs on a
worker thread while the calling thread runs the AVSG one.  evaluate likewise
reads the CVSG trace on a worker thread while the calling thread reads the
AVSG trace.  The two halves overlap because their hot loops run in C through
ctypes, which releases the GIL.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from . import ann
from .estimator import read_estimate_log_csv, write_estimate_log_csv
from .grid import S_RATED, JacobianPQ, scr_to_impedance, solve_operating_point, jacobian
from .report import ComparisonReport, build_comparison, render_text, write_tables
from .sim import (BASELINE_GAINS, XR_RATIO_DEFAULT, SimConfig, ScenarioEvent, SimResult,
                  TimeSeries, benchmark_config, benchmark_events, run_scenario,
                  impedance_schedule, load_scenario, save_scenario)
from .smallsignal import (DesignRegionError, DesignTargets, schedule_gains, bode, phase_margin,
                          p_loop_info, q_loop_info, write_frequency_response_csv)


def _jac_from_grid(scr: float, xr: float, p: float, q: float) -> tuple[JacobianPQ, str]:
    """The Jacobian at the solved operating point, and a design error's prefix naming it.

    A set-point past the plant's rating, |P + jQ| > `S_RATED`, raises `ValueError`."""
    z = scr_to_impedance(scr, xr)
    delta, v = solve_operating_point(p, q, z)
    if (s := math.hypot(p, q)) > S_RATED:
        raise ValueError(f"P = {p!r} W and Q = {q!r} var ask for {s:g} VA, "
                         f"past the plant's {S_RATED:g} VA rating")
    return jacobian(delta, v, z), (f"scr = {scr!r} and xr = {xr!r} at P = {p!r} W and "
                                   f"Q = {q!r} var solve to delta = {delta!r} rad and "
                                   f"V = {v!r} V, where ")


def cmd_gains(args) -> int:
    if (args.a is None) != (args.d is None):
        given, missing = ("--a", "--d") if args.d is None else ("--d", "--a")
        raise ValueError(f"{given} needs {missing}: gains come from both entries or the grid")
    jac, where = ((JacobianPQ(a=args.a, b=0.0, c=0.0, d=args.d), "") if args.a is not None
                  else _jac_from_grid(args.scr, args.xr, args.p, args.q))
    targets = DesignTargets(t_s=args.ts, xi=args.xi, q_droop_divisor=args.divisor)
    try:
        g = schedule_gains(jac, targets)
    except DesignRegionError as exc:
        raise DesignRegionError(f"{where}{exc}") from None
    pinfo = p_loop_info(g, jac.a)
    qinfo = q_loop_info(g, jac.d)
    print(f"A    = {jac.a:.6g} W/rad")
    print(f"D    = {jac.d:.6g} var/V")
    print(f"D_p  = {g.d_p:.6g}")
    print(f"K_ip = {g.k_ip:.6g}")
    print(f"D_q  = {g.d_q:.6g}")
    print(f"K_iq = {g.k_iq:.6g}")
    print(f"P loop: omega_n = {pinfo.omega_n:.6g} rad/s, xi = {pinfo.xi:.6g}, "
          f"Ts(rule) = {pinfo.t_s_rule:.6g} s")
    print(f"Q loop: tau = {qinfo.tau:.6g} s, steady-state error = {qinfo.e_inf:.4%}")
    return 0


def cmd_bode(args) -> int:
    tag = "scheduled" if args.scheduled else "fixed"
    curves = []
    for scr in args.scr_list:
        jac, where = _jac_from_grid(scr, args.xr, args.p, args.q)
        try:
            g = schedule_gains(jac) if args.scheduled else BASELINE_GAINS
            curves.append((scr, bode(g, jac.a), phase_margin(g, jac.a)))
        except DesignRegionError as exc:
            raise type(exc)(f"{where}{exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for scr, fr, _ in curves:
        write_frequency_response_csv(fr, out / f"bode_p_{tag}_scr{scr:g}.csv")
    for scr, _, pm in curves:
        print(f"SCR {scr:g}: phase margin {pm:.3f} deg")
    return 0


def _dataset_stage(path: Path, n: int, seed: int, noise: float = 0.0) -> ann.Dataset:
    """Generate the dataset and write it to `path`, creating its directory."""
    ds = ann.generate_dataset(ann.DatasetConfig(n_samples=n, seed=seed, noise_std=noise))
    path.parent.mkdir(parents=True, exist_ok=True)
    ann.save_dataset_csv(path, ds)
    return ds


def _train_stage(ds: ann.Dataset, seed: int, out: Path):
    """Split, train, and write model.json and the diagnostics CSVs under `out`."""
    tr, va, te = ann.split_dataset(ds, seed=seed)
    model, norm, report = ann.train_on_dataset(tr, va, te, seed)
    out.mkdir(parents=True, exist_ok=True)
    ann.save_model(out / "model.json", model, norm, ann.recipe_fingerprint(seed))
    ann.export_diagnostics(report, out)
    return model, norm, report


def _simulate_stage(cfg: SimConfig, events: list[ScenarioEvent], model, norm,
                    out: Path) -> SimResult:
    """Run the scenario; write its trace and, if any, its estimate log under `out`."""
    result = run_scenario(cfg, events, model=model, norm=norm)
    out.mkdir(parents=True, exist_ok=True)
    result.series.to_csv(out / f"timeseries_{cfg.mode}.csv")
    if result.estimates:
        write_estimate_log_csv(out / "estimates.csv", result.estimates)
    return result


def _evaluate_stage(cvsg: TimeSeries, avsg: TimeSeries, estimates, cfg: SimConfig,
                    events: list[ScenarioEvent], out: Path) -> ComparisonReport:
    """Compare the two runs; write report.txt, report.csv and estimation.csv under `out`."""
    rep = build_comparison(cvsg, avsg, events, estimates, impedance_schedule(cfg, events),
                           cfg.targets)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(render_text(rep))
    write_tables(rep, out)
    return rep


def cmd_dataset(args) -> int:
    ds = _dataset_stage(Path(args.out), args.n, args.seed, args.noise)
    print(f"wrote {len(ds)} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    ds = ann.load_dataset_csv(args.dataset)
    t0 = time.perf_counter()
    model, _, report = _train_stage(ds, args.seed, Path(args.out))
    dt = time.perf_counter() - t0
    print(f"trained {report.epochs_run} epochs in {dt:.1f} s on {report.input_rank} of "
          f"{model.w1.shape[1]} input directions, stop: {report.stop_reason}")
    print(f"final MSE train/val/test = {report.train_mse[-1]:.3e} / "
          f"{report.val_mse[-1]:.3e} / {report.test_mse[-1]:.3e}")
    for name, (slope, intercept, r) in report.regression.items():
        print(f"regression {name}: slope {slope:.5f}, intercept {intercept:.2e}, R {r:.6f}")
    return 0


def cmd_simulate(args) -> int:
    if args.config:
        cfg, events = load_scenario(args.config)
        if args.mode:
            cfg = dataclasses.replace(cfg, mode=args.mode)
    else:
        cfg = benchmark_config(args.mode or "cvsg")
        events = benchmark_events()
    model = norm = None
    if cfg.mode == "avsg" and cfg.estimator_kind == "ann":
        if not args.model:
            print("error: avsg mode needs --model", file=sys.stderr)
            return 2
        model, norm = ann.load_model(args.model)
    elif args.model:
        run = ("a cvsg run" if cfg.mode == "cvsg"
               else f"an avsg run with the {cfg.estimator_kind} estimator")
        print(f"error: --model given, but {run} reads no model", file=sys.stderr)
        return 2
    out = Path(args.out)
    result = _simulate_stage(cfg, events, model, norm, out)
    print(f"wrote {len(result.series)} rows to {out / f'timeseries_{cfg.mode}.csv'}")
    return 0


def cmd_evaluate(args) -> int:
    cfg, events = load_scenario(args.scenario) if args.scenario else (
        benchmark_config("avsg"), benchmark_events())
    # imported here, not at the top, so that `import vsglab.cli` does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    # the CVSG trace is read on a worker thread while this thread reads the AVSG one
    with ThreadPoolExecutor(1) as pool:
        cvsg_read = pool.submit(TimeSeries.from_csv, args.cvsg)
        avsg = TimeSeries.from_csv(args.avsg)
        cvsg = cvsg_read.result()
    estimates = read_estimate_log_csv(args.estimates) if args.estimates else []
    rep = _evaluate_stage(cvsg, avsg, estimates, cfg, events, Path(args.out))
    print(render_text(rep))
    return 0 if rep.passed else 1


def run_paper_repro(outdir: Path, seed: int = 0, model_path: Path | None = None,
                    quick: bool = False) -> ComparisonReport:
    """Full benchmark pipeline: the dataset, train, simulate and evaluate stages,
    all writing under `outdir`.  The cvsg simulate stage runs on a worker thread
    while this thread runs the avsg stage.

    `quick` shrinks the dataset and coarsens the integration step for smoke
    runs.  `outdir` is created only once the model has loaded or the dataset
    is built.
    """
    if model_path is None:
        ds = _dataset_stage(outdir / "dataset.csv", 600 if quick else 5000, seed)
        model, norm, _ = _train_stage(ds, seed, outdir)
    else:
        model, norm = ann.load_model(model_path)
    # imported here, not at the top, so that `import vsglab.cli` does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    cfg = benchmark_config("avsg", dt_sim=200e-6 if quick else 50e-6)
    events = benchmark_events()
    with ThreadPoolExecutor(1) as pool:
        cvsg_run = pool.submit(_simulate_stage, dataclasses.replace(cfg, mode="cvsg"), events,
                               None, None, outdir)
        res_a = _simulate_stage(cfg, events, model, norm, outdir)
        res_c = cvsg_run.result()
    save_scenario(outdir / "scenario_avsg.json", cfg, events)
    return _evaluate_stage(res_c.series, res_a.series, res_a.estimates, cfg, events, outdir)


def cmd_paper_repro(args) -> int:
    rep = run_paper_repro(Path(args.out), seed=args.seed,
                          model_path=Path(args.model) if args.model else None,
                          quick=args.quick)
    print(render_text(rep))
    return 0 if rep.passed else 1


def _scr_list(text: str) -> list[float]:
    """--scr-list: SCRs separated by commas."""
    return [float(s) for s in text.split(",")]  # argparse names the flag on a ValueError


def _seed(text: str) -> int:
    """--seed: numpy's generators take an integer >= 0."""
    seed = int(text)  # a ValueError here makes argparse name the flag and the text
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vsglab",
                                description="VSG adaptive gain scheduling toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    # the grid and set-points default to the simulator's start, the targets to the design's
    start, targets = SimConfig.setpoints, DesignTargets()

    g = sub.add_parser("gains", help="scheduled gains and predicted loop metrics")
    g.add_argument("--a", type=float, help="static P-delta gain A [W/rad]")
    g.add_argument("--d", type=float, help="static Q-V gain D [var/V]")
    g.add_argument("--scr", type=float, default=SimConfig.scr)
    g.add_argument("--xr", type=float, default=XR_RATIO_DEFAULT)
    g.add_argument("--p", type=float, default=start.p_ref)
    g.add_argument("--q", type=float, default=start.q_ref)
    g.add_argument("--ts", type=float, default=targets.t_s)
    g.add_argument("--xi", type=float, default=targets.xi)
    g.add_argument("--divisor", type=float, default=targets.q_droop_divisor)
    g.set_defaults(func=cmd_gains)

    b = sub.add_parser("bode", help="open-loop Bode curves and phase margins over SCRs")
    b.add_argument("--scr-list", type=_scr_list, default="2,8,20")
    b.add_argument("--scheduled", action="store_true",
                   help="use scheduled gains instead of the fixed baseline")
    b.add_argument("--xr", type=float, default=XR_RATIO_DEFAULT)
    b.add_argument("--p", type=float, default=start.p_ref)
    b.add_argument("--q", type=float, default=start.q_ref)
    b.add_argument("--out", default="out")
    b.set_defaults(func=cmd_bode)

    d = sub.add_parser("dataset", help="generate a training dataset CSV")
    d.add_argument("--out", required=True)
    d.add_argument("--n", type=int, default=5000)
    d.add_argument("--seed", type=_seed, default=0)
    d.add_argument("--noise", type=float, default=0.0)
    d.set_defaults(func=cmd_dataset)

    t = sub.add_parser("train", help="train the impedance estimator")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=_seed, default=0)
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("simulate", help="run a scenario and write the trace CSV")
    s.add_argument("--config", help="scenario JSON (defaults to the 60 s benchmark)")
    s.add_argument("--mode", choices=["cvsg", "avsg"])
    s.add_argument("--model", help="model JSON for avsg mode")
    s.add_argument("--out", default="out")
    s.set_defaults(func=cmd_simulate)

    e = sub.add_parser("evaluate", help="comparison report from saved traces")
    e.add_argument("--cvsg", required=True)
    e.add_argument("--avsg", required=True)
    e.add_argument("--estimates")
    e.add_argument("--scenario")
    e.add_argument("--out", default="out")
    e.set_defaults(func=cmd_evaluate)

    r = sub.add_parser("paper-repro",
                       help="full pipeline: dataset, training, both modes, report")
    r.add_argument("--out", default="out/repro")
    r.add_argument("--seed", type=_seed, default=0)
    r.add_argument("--model", help="reuse an existing model instead of training")
    r.add_argument("--quick", action="store_true",
                   help="small dataset and coarse step for smoke runs")
    r.set_defaults(func=cmd_paper_repro)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
