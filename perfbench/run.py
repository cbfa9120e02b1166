"""vsglab benchmark: runs one workload through the `vsglab` CLI in this process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Workloads (see README.md):

  train-full   vsglab dataset --n 5000, then vsglab train
  repro-quick  vsglab paper-repro --quick, then vsglab evaluate on its files
  closed-loop  vsglab simulate (cvsg, then avsg with perfbench/fixtures/model.json),
               then vsglab evaluate; not in BENCHMARK.json, run it by hand

`--trace 0` repeats whole rounds of the workload until S seconds have
passed and prints the end-to-end metrics.  `--trace 1` runs one untraced
round and one traced round and prints the per-layer metrics.  The last
line of standard output is the result object; the line before it is the
machine and run record.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
MODEL_FIXTURE = HERE / "fixtures" / "model.json"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracer import LAYERS, Tracer, public_functions, span_cost_ns  # noqa: E402

# seed of the program's own pipeline (dataset, split, initial weights), the
# same for every run: the LM epoch count moves by a third between seeds
PROGRAM_SEED = 0
SETUP_REPEATS = 3

SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import vsglab.cli; "
               "from vsglab import ann; [ann.load_model(p) for p in sys.argv[2:]]")


def _note_run(args, kwargs, result):
    cfg = args[0]
    return {"mode": cfg.mode, "sim_s": cfg.duration,
            "steps": round(cfg.duration / cfg.dt_sim), "result": result}


# spans kept in every round: the result of each training and scenario call
# feeds the correctness checks; their durations give train_s and the sim rates
def install_probe(tracer, vsglab):
    tracer.patch_function(vsglab.ann, "train_on_dataset", "ann.train_on_dataset",
                          note=lambda a, k, r: r)
    tracer.patch_function(vsglab.sim, "run_scenario", "sim.run_scenario", note=_note_run)


def install_full(tracer, vsglab):
    """Trace the public functions of every layer, plus the calls named below."""
    install_probe(tracer, vsglab)
    est, ann, sim = vsglab.estimator, vsglab.ann, vsglab.sim
    tracer.patch_function(est, "forward", "estimator.inference", namespaces=[est])
    tracer.patch_function(ann, "cho_factor", "ann.cho_factor")
    tracer.patch_function(ann, "cho_solve", "ann.cho_solve")
    tracer.patch_method(est.OnlineEstimator, "push_sample", "estimator.push_sample")
    tracer.patch_method(sim.TimeSeries, "to_csv", "sim.trace_csv_write")
    tracer.patch_method(sim.TimeSeries, "from_csv", "sim.trace_csv_read")
    notes = {"estimator.gate_gain_update": lambda a, k, r: r}
    done = {"train_on_dataset", "run_scenario"}
    for layer in LAYERS:
        module = getattr(vsglab, layer)
        for name in public_functions(module):
            if name not in done:
                span = f"{layer}.{name}"
                tracer.patch_function(module, name, span, note=notes.get(span))


class Workload:
    """One workload: `round()` runs its operations once, `verify()` checks their outputs."""

    def __init__(self, vsglab, seed: int, out: Path):
        self.vsglab = vsglab
        self.seed = seed
        self.out = out     # everything the CLI writes, emptied before each round
        self.ops: list[dict] = []
        self.failures: list[str] = []

    def op(self, name: str, argv: list, ok=None) -> dict:
        """Run one CLI command; `ok(rc)` decides whether it succeeded (default rc == 0)."""
        buf = io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.vsglab.cli.main([str(a) for a in argv])
        except Exception:  # the round goes on; the operation counts as failed
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0
        if rc != 0:
            print(f"{name}: exit code {rc}\n{buf.getvalue()[-2000:]}", file=sys.stderr)
        good = rc == 0 if ok is None else rc is not None and ok(rc)
        rec = {"op": name, "seconds": seconds, "rc": rc, "ok": good}
        self.ops.append(rec)
        return rec

    def check(self, label: str, failures: list[str]) -> None:
        self.failures += [f"{label}: {f}" for f in failures]


class TrainFull(Workload):
    name = "train-full"

    def inputs(self):
        return {"dataset_seed": PROGRAM_SEED, "train_seed": PROGRAM_SEED, "n_samples": 5000,
                "heldout_seed": 1000 + self.seed, "heldout_windows": 1000}

    @staticmethod
    def commands(out: Path) -> list[list]:
        """The CLI commands of one round; they leave model.json in out/train."""
        ds_path = out / "dataset.csv"
        return [["dataset", "--out", ds_path, "--n", 5000, "--seed", PROGRAM_SEED],
                ["train", "--dataset", ds_path, "--out", out / "train", "--seed", PROGRAM_SEED]]

    def round(self):
        make_dataset, train = self.commands(self.out)
        return [self.op("dataset", make_dataset), self.op("train", train)]

    def verify(self, ops, notes):
        if not all(o["ok"] for o in ops):
            return
        ann = self.vsglab.ann
        ds_path, out = self.out / "dataset.csv", self.out / "train"
        model, norm, report = notes["ann.train_on_dataset"][-1]
        self.check("stop rule", checks.stop_rule(report))
        saved_model, saved_norm = ann.load_model(out / "model.json")
        self.check("held-out accuracy", checks.heldout_accuracy(
            ann, saved_model, saved_norm, seed=1000 + self.seed))
        expected = ann.generate_dataset(ann.DatasetConfig(n_samples=5000, seed=PROGRAM_SEED))
        self.check("round trip", checks.round_trips(
            ann, ds_path, out / "model.json", expected, model, norm, expected.inputs[:256]))


class ClosedLoop(Workload):
    name = "closed-loop"

    def inputs(self):
        return {"scenario": "the 60 s benchmark (vsglab simulate default)",
                "model": "perfbench/fixtures/model.json"}

    def round(self):
        out = self.out
        return [self.op("simulate-cvsg", ["simulate", "--mode", "cvsg", "--out", out]),
                self.op("simulate-avsg", ["simulate", "--mode", "avsg", "--model", MODEL_FIXTURE,
                                          "--out", out]),
                self.op("evaluate", ["evaluate", "--cvsg", out / "timeseries_cvsg.csv",
                                     "--avsg", out / "timeseries_avsg.csv",
                                     "--estimates", out / "estimates.csv",
                                     "--out", out / "report"])]

    def verify(self, ops, notes):
        if all(o["ok"] for o in ops):
            avsg = notes["sim.run_scenario"][-1]["result"]
            self.check("traces", checks.closed_loop_outputs(self.out, avsg))


class ReproQuick(Workload):
    name = "repro-quick"

    def inputs(self):
        return {"paper_repro_seed": PROGRAM_SEED, "quick": True}

    def round(self):
        out = self.out / "repro"
        a = self.op("paper-repro", ["paper-repro", "--quick", "--seed", PROGRAM_SEED,
                                    "--out", out])
        # Known fault: the traces are saved with 12 significant digits and t
        # to 6 decimals, so the report rebuilt from the files never matches
        # the one paper-repro wrote.  The operation counts as failed.
        rebuilt = self.out / "rebuilt"
        b = self.op("evaluate", ["evaluate", "--cvsg", out / "timeseries_cvsg.csv",
                                 "--avsg", out / "timeseries_avsg.csv",
                                 "--estimates", out / "estimates.csv",
                                 "--scenario", out / "scenario_avsg.json", "--out", rebuilt],
                    ok=lambda rc: rc == 0 and (rebuilt / "report.csv").read_bytes()
                    == (out / "report.csv").read_bytes())
        return [a, b]

    def verify(self, ops, notes):
        repro, rebuild = ops
        if not repro["ok"]:
            return
        if rebuild["rc"] != 0:  # the rebuilt report must still pass, though it differs
            self.failures.append(f"evaluate of the saved files exited with {rebuild['rc']}")
            return
        self.check("stop rule", checks.stop_rule(notes["ann.train_on_dataset"][-1][2]))
        avsg = next(n["result"] for n in notes["sim.run_scenario"] if n["mode"] == "avsg")
        self.check("traces", checks.closed_loop_outputs(self.out / "repro", avsg))


WORKLOADS = {w.name: w for w in (TrainFull, ClosedLoop, ReproQuick)}


def run_round(workload, tracer, full: bool) -> float:
    """One round of the workload under `tracer`; returns the seconds its operations took."""
    tracer.notes.clear()  # keep only this round's results in memory
    shutil.rmtree(workload.out, ignore_errors=True)
    workload.out.mkdir()
    (install_full if full else install_probe)(tracer, workload.vsglab)
    try:
        ops = workload.round()
    finally:
        tracer.restore()
    workload.verify(ops, tracer.notes)  # untraced, so checks add no spans
    return sum(o["seconds"] for o in ops)


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def setup_seconds(workload: str) -> list[float]:
    """Fresh interpreter, package import and fixture load, timed from outside."""
    fixtures = [str(MODEL_FIXTURE)] if workload == "closed-loop" else []
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *fixtures],
                       check=True, timeout=120, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return samples


def per_layer_metrics(traced: Tracer, probe: Tracer, untraced_s: float, traced_s: float,
                      written: int) -> dict[str, tuple[float, str]]:
    """Counts and times of the traced round; train_s and sim rates of the untraced one."""
    s = traced.summary()

    def total(name):
        return s[name]["total_s"] if name in s else 0.0

    def own(name):
        return s[name]["self_s"] if name in s else 0.0

    def calls(name):
        return s[name]["calls"] if name in s else 0

    durs = probe.durations_ns()
    run_durs = [d for name, d in zip(probe.names, durs) if name == "sim.run_scenario"]

    def sim_rate(mode):
        runs = [(n["sim_s"], d * 1e-9) for n, d in zip(probe.notes["sim.run_scenario"], run_durs)
                if n["mode"] == mode]
        return sum(a for a, _ in runs) / sum(b for _, b in runs) if runs else 0.0

    train_s = sum(d for name, d in zip(probe.names, durs) if name == "ann.train_on_dataset")
    runs = traced.notes["sim.run_scenario"]
    steps = sum(n["steps"] for n in runs)
    estimates = [e for n in runs for e in n["result"].estimates]
    return {
        "train_s": (train_s * 1e-9, "s"),
        "cvsg_sim_rate": (sim_rate("cvsg"), "sim-s/s"),
        "avsg_sim_rate": (sim_rate("avsg"), "sim-s/s"),
        "ann.train_total_s": (traced.subtree_self_s("ann.train_on_dataset"), "s"),
        "ann.train_self_s": (own("ann.train"), "s"),
        "ann.epochs": (sum(r[2].epochs_run for r in traced.notes["ann.train_on_dataset"]),
                       "count"),
        "ann.error_jacobian_s": (total("ann.error_jacobian"), "s"),
        "ann.error_jacobian_calls": (calls("ann.error_jacobian"), "count"),
        "ann.cho_factor_s": (total("ann.cho_factor"), "s"),
        "ann.cho_factor_calls": (calls("ann.cho_factor"), "count"),
        "ann.cho_solve_s": (total("ann.cho_solve"), "s"),
        "ann.forward_s": (total("ann.forward"), "s"),
        "ann.forward_calls": (calls("ann.forward"), "count"),
        "ann.generate_dataset_s": (total("ann.generate_dataset"), "s"),
        "grid.solve_operating_point_s": (total("grid.solve_operating_point"), "s"),
        "grid.solve_operating_point_calls": (calls("grid.solve_operating_point"), "count"),
        "ann.save_dataset_csv_s": (total("ann.save_dataset_csv"), "s"),
        "ann.load_dataset_csv_s": (total("ann.load_dataset_csv"), "s"),
        "ann.save_model_s": (total("ann.save_model"), "s"),
        "ann.export_diagnostics_s": (total("ann.export_diagnostics"), "s"),
        "sim.self_s": (own("sim.run_scenario"), "s"),
        "sim.rk4_steps": (steps, "count"),
        "sim.self_ns_per_step": (own("sim.run_scenario") * 1e9 / steps if steps else 0.0, "ns"),
        "estimator.push_sample_self_s": (own("estimator.push_sample"), "s"),
        "estimator.push_sample_calls": (calls("estimator.push_sample"), "count"),
        "estimator.inference_s": (total("estimator.inference"), "s"),
        "estimator.inference_calls": (calls("estimator.inference"), "count"),
        "estimator.estimates": (len(estimates), "count"),
        "estimator.applied": (sum(1 for e in estimates if e[3]), "count"),
        "estimator.gated_out": (traced.notes["estimator.gate_gain_update"].count(False),
                                "count"),
        "smallsignal.schedule_gains_calls": (calls("smallsignal.schedule_gains"), "count"),
        "smallsignal.scheduling_failures": (traced.errors["smallsignal.schedule_gains"],
                                            "count"),
        "sim.trace_csv_write_s": (total("sim.trace_csv_write"), "s"),
        "sim.trace_csv_read_s": (total("sim.trace_csv_read"), "s"),
        "estimator.log_write_s": (total("estimator.write_estimate_log_csv"), "s"),
        "report.build_comparison_s": (total("report.build_comparison"), "s"),
        "cli.bytes_written": (written, "B"),
        "trace.spans": (len(traced.names), "count"),
        "trace.overhead_pct": ((traced_s - untraced_s) / untraced_s * 100.0, "%"),
        "trace.overhead_est_s": (len(traced.names) * span_cost_ns() * 1e-9, "s"),
    }


def openblas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.rsplit("/", 1)[-1].lower()})
    found = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": openblas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def import_package():
    if not (SRC / "vsglab" / "__init__.py").is_file():
        raise ImportError(f"no vsglab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import vsglab
    import vsglab.cli  # noqa: F401  (loads every layer module)
    if SRC.resolve() not in Path(vsglab.__file__).resolve().parents:
        raise ImportError(f"vsglab was imported from {vsglab.__file__}, not {SRC}")
    return vsglab


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        vsglab = import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not MODEL_FIXTURE.is_file():
        print(f"error: missing {MODEL_FIXTURE}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = [] if args.trace else setup_seconds(args.workload)
        wl = WORKLOADS[args.workload](vsglab, args.seed, work)
        probe = Tracer()
        walls = [run_round(wl, probe, full=False)]
        if args.trace:
            written = bytes_under(wl.out)
            traced = Tracer()
            traced_s = run_round(wl, traced, full=True)
            traced.write_csv(OUT / f"spans-{args.workload}.csv")
            metrics = per_layer_metrics(traced, probe, walls[0], traced_s, written)
        else:
            while sum(walls) < args.seconds:
                walls.append(run_round(wl, probe, full=False))
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": (statistics.median(setup), "s"),
                       "wall_s": (statistics.median(walls), "s"),
                       "peak_rss_mib": (rss_mib, "MiB")}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(wl.ops), sum(1 for o in wl.ops if not o["ok"])
    for f in wl.failures:
        print(f"check failed: {f}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs": wl.inputs(), "machine": machine_record(),
              "setup_samples_s": setup, "round_walls_s": walls,
              "ops": wl.ops,
              "attempted": attempted, "failed": failed, "check_failures": wl.failures}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not wl.failures, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
