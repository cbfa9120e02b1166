"""Command-line interface smoke tests on short scenarios."""

import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from vsglab import cli
from vsglab.ann import DatasetConfig, generate_dataset
from vsglab.cli import main
from vsglab.grid import InfeasibleOperatingPointError, scr_to_impedance, solve_operating_point
from vsglab.sim import (NumericFailureError, SimConfig, ScenarioEvent, Setpoints, TimeSeries,
                        save_scenario, scenario_to_dict)
from vsglab.smallsignal import VsgGains
from vsglab.tables import write_table

# a trained 200 -> 8 -> 2 estimator kept with the benchmark
MODEL_FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "model.json"


def short_scenario(path, mode="cvsg", duration=2.0, estimator_kind="oracle"):
    cfg = SimConfig(duration=duration, mode=mode, estimator_kind=estimator_kind,
                    gains=VsgGains(2087.0, 0.00767, 0.687, 0.115),
                    setpoints=Setpoints(2000.0, 1000.0), scr=2.0)
    events = [ScenarioEvent(time=0.5, kind="set_p_ref", value=2500.0)]
    save_scenario(path, cfg, events)
    return cfg, events


@contextlib.contextmanager
def no_thread_left():
    """Fails if the block leaves a thread running that it started."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


def test_gains_from_jacobian_entries(capsys):
    assert main(["gains", "--a", "10000", "--d", "100"]) == 0
    out = capsys.readouterr().out
    assert "D_p  = 5000" in out
    assert "K_ip = 0.0016" in out
    assert "D_q  = 1" in out
    assert "K_iq = 0.039604" in out
    assert "Ts(rule) = 1 s" in out


def test_gains_solved_from_grid(capsys):
    assert main(["gains", "--scr", "2", "--p", "2000", "--q", "1000"]) == 0
    out = capsys.readouterr().out
    assert "omega_n = 4 rad/s" in out


def test_gains_rejects_bad_inputs(capsys):
    assert main(["gains", "--a", "-1", "--d", "100"]) == 2
    # one Jacobian entry is no Jacobian, and solving from the grid would ignore it
    for given, missing in (("--a", "--d"), ("--d", "--a")):
        capsys.readouterr()
        assert main(["gains", given, "5000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {given} needs {missing}")
    # targets that are not finite or that no finite, nonzero gains meet (K_ip, D_p
    # or K_iq overflows or underflows, or D_q does), and power targets and grids
    # that are not finite: the error names them, not a gain
    for args, named in ((["--ts", "inf"], "t_s"), (["--xi", "inf"], "xi"),
                        (["--ts", "nan"], "t_s"), (["--ts", "1e300"], "t_s = 1e+300 s and xi"),
                        (["--ts", "1e-300"], "t_s = 1e-300 s and xi"),
                        (["--xi", "1e-320", "--ts", "1e300"], "xi = 1e-320 cannot be met at A"),
                        (["--divisor", "1e-320"], "q_droop_divisor = 1e-320 cannot be met at D"),
                        (["--a", "5", "--d", "1e-320"], "cannot be met at D = 1e-320"),
                        (["--q", "inf"], "q_target must be finite"),
                        (["--p=-inf"], "p_target must be finite"),
                        # targets whose power-flow quartic overflows
                        (["--p", "1e300"], "P = 1e+300 W and Q = 1000.0 var over R = "),
                        (["--scr", "nan"], "scr must be finite"),
                        (["--scr", "inf"], "scr must be finite"),
                        (["--xr", "inf"], "xr_ratio must be finite"),
                        # finite grids whose R and X overflow or underflow to 0
                        (["--xr", "1e300"], "scr = 2.0 and xr_ratio = 1e+300 give no"),
                        (["--scr", "1e308"], "scr = 1e+308 and xr_ratio = 5.0 give no"),
                        (["--scr", "1e-320"], "scr = 1e-320 and xr_ratio = 5.0 give no")):
        capsys.readouterr()
        assert main(["gains", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
        assert not any(gain in captured.err.lower() for gain in ("d_p", "k_ip", "d_q", "k_iq"))


def test_gains_and_bode_name_the_grid_they_cannot_design_at(tmp_path, capsys):
    # a nearly resistive grid solves to an operating point where A < 0: the error
    # names the grid, the targets and the solved point
    op = solve_operating_point(2000.0, 1000.0, scr_to_impedance(2.0, 1e-3))
    named = (f"scr = 2.0 and xr = 0.001 at P = 2000.0 W and Q = 1000.0 var solve to "
             f"delta = {op.delta0!r} rad and V = {op.v_pcc0!r} V, where ")
    assert main(["gains", "--xr", "1e-3"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {named}Jacobian entry A must be > 0")
    for scheduled in ([], ["--scheduled"]):
        assert main(["bode", "--scr-list", "2", "--xr", "1e-3", *scheduled,
                     "--out", str(tmp_path / "bode")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}")
    assert not (tmp_path / "bode").exists()
    # a grid too weak to carry the targets at all
    assert main(["gains", "--scr", "0.3"]) == 2
    assert "are beyond the maximum power transfer" in capsys.readouterr().err


def test_bode_names_the_grid_whose_loop_has_no_crossover(tmp_path, capsys):
    # on so stiff a grid the fixed gains cross 0 dB above the 1e3 rad/s end of the grid
    assert main(["bode", "--scr-list", "2,1e6", "--out", str(tmp_path / "bode")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scr = 1000000.0 and xr = 5.0 at P = 2000.0 W")
    assert "never crosses 0 dB on the grid from 0.01 to 1000 rad/s" in err
    assert not (tmp_path / "bode").exists()


def test_bode_fixed_gains_margins_decrease(tmp_path, capsys):
    assert main(["bode", "--scr-list", "2,8,20", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    margins = [float(line.split()[-2]) for line in out.strip().splitlines()]
    assert margins[0] > margins[1] > margins[2]
    assert (tmp_path / "bode_p_fixed_scr2.csv").exists()
    assert (tmp_path / "bode_p_fixed_scr20.csv").exists()


def test_bode_scheduled_margins_agree(tmp_path, capsys):
    assert main(["bode", "--scr-list", "2,20", "--scheduled", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    margins = [float(line.split()[-2]) for line in out.strip().splitlines()]
    assert abs(margins[0] - margins[1]) < 0.1


def test_dataset_then_train(tmp_path, capsys):
    ds_path = tmp_path / "ds.csv"
    assert main(["dataset", "--out", str(ds_path), "--n", "80", "--seed", "0"]) == 0
    assert main(["train", "--dataset", str(ds_path), "--out", str(tmp_path),
                 "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "on 4 of 200 input directions" in out
    assert (tmp_path / "model.json").exists()
    assert (tmp_path / "training_trace.csv").exists()
    assert (tmp_path / "error_histogram.csv").exists()
    assert (tmp_path / "regression.csv").exists()


def test_dataset_creates_the_directory_of_out(tmp_path):
    ds_path = tmp_path / "sub" / "ds.csv"
    assert main(["dataset", "--out", str(ds_path), "--n", "20", "--seed", "0"]) == 0
    assert ds_path.exists()


def test_simulate_from_config(tmp_path):
    sc = tmp_path / "scenario.json"
    short_scenario(sc)
    assert main(["simulate", "--config", str(sc), "--out", str(tmp_path)]) == 0
    series = TimeSeries.from_csv(tmp_path / "timeseries_cvsg.csv")
    assert len(series) == 2001
    assert series.p_pcc[-1] == pytest.approx(2500.0, abs=1.0)


def test_simulate_avsg_without_model_fails(tmp_path):
    sc = tmp_path / "scenario.json"
    short_scenario(sc, mode="avsg", estimator_kind="ann")
    assert main(["simulate", "--config", str(sc), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("case", ["train", "simulate", "simulate-avsg-no-model", "evaluate",
                                  "bode", "paper-repro"])
def test_rejected_input_leaves_no_out_directory(tmp_path, case):
    missing = str(tmp_path / "missing.csv")
    sc = tmp_path / "scenario.json"
    short_scenario(sc, mode="avsg", estimator_kind="ann")
    argv = {"train": ["train", "--dataset", missing],
            "simulate": ["simulate", "--config", str(tmp_path / "missing.json")],
            "simulate-avsg-no-model": ["simulate", "--config", str(sc)],
            "evaluate": ["evaluate", "--cvsg", missing, "--avsg", missing],
            # SCR 0.3 is too weak a grid for the 2 kW operating point
            "bode": ["bode", "--scr-list", "2,0.3"],
            "paper-repro": ["paper-repro", "--quick", "--model",
                            str(tmp_path / "missing.json")]}[case]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def _drop(*keys):
    def edit(d):
        for key in keys[:-1]:
            d = d[key]
        del d[keys[-1]]
    return edit


# (file, edit of its JSON document in place or returning the document to write,
# text the error must contain)
MALFORMED_INPUTS = {
    "model-without-dims": ("model", _drop("dims"), "'dims'"),
    "model-as-array": ("model", lambda d: [d], "model file must be an object, got list"),
    "null-dims": ("model", lambda d: d.update(dims=None),
                  "dims must be three positive integers, got None"),
    "zero-hidden-units": ("model", lambda d: d.update(dims=[200, 0, 2]),
                          "dims must be three positive integers, got [200, 0, 2]"),
    "short-x_mean": ("model", lambda d: d["x_mean"].__delitem__(-1),
                     "x_mean has shape (199,), dims [200, 8, 2] give 200"),
    "long-y_mean": ("model", lambda d: d["y_mean"].append(0.0),
                    "y_mean has shape (3,), dims [200, 8, 2] give 2"),
    "tansig-output-layer": ("model", lambda d: d.update(output_activation="tansig"),
                            "output_activation 'tansig'"),
    "model-with-identity-targets": ("model", lambda d: d.update(target_transform="identity"),
                                    "target_transform 'identity'"),
    "model-without-target_transform": ("model", _drop("target_transform"),
                                       "'target_transform'"),
    # JSON's true and 1.0 compare equal to the version 1 but are not it
    "boolean-version": ("model", lambda d: d.update(version=True),
                        "unsupported model file version True"),
    "float-version": ("model", lambda d: d.update(version=1.0),
                      "unsupported model file version 1.0"),
    "scenario-without-sim": ("scenario", _drop("sim"), "'sim'"),
    "scenario-without-setpoints": ("scenario", _drop("sim", "setpoints"), "'setpoints'"),
    "gains-without-k_iq": ("scenario", _drop("sim", "gains", "k_iq"), "'k_iq'"),
    "unknown-sim-key": ("scenario", lambda d: d["sim"].update(dt_step=1e-4), "'dt_step'"),
    "unknown-estimator-kind": ("scenario", lambda d: d["sim"].update(estimator_kind="kalman"),
                               "'kalman'"),
    "another-gate-threshold": ("scenario", lambda d: d["sim"].update(gate_threshold=0.1),
                               "gate_threshold"),
    "cold-start": ("scenario", lambda d: d["sim"].update(start_at_equilibrium=False),
                   "start_at_equilibrium"),
    # the plant is the one the network was trained at, for either estimator; on a
    # 60 Hz grid the network reads R and L about 98 % wrong
    "another-v_g": ("scenario", lambda d: d["sim"].update(v_g=120.0),
                    "v_g 120.0 is not supported"),
    "another-s_rated": ("scenario",
                        lambda d: d["sim"].update(s_rated=6000.0, estimator_kind="oracle"),
                        "s_rated 6000.0 is not supported"),
    "sixty-hertz-grid": ("scenario", lambda d: d["sim"].update(omega0=120.0 * math.pi),
                         f"omega0 {120.0 * math.pi!r} is not supported"),
    "another-omega_nom": ("scenario",
                          lambda d: d["sim"].update(estimator_kind="oracle", setpoints={
                              **d["sim"]["setpoints"], "omega_nom": 120.0 * math.pi}),
                          f"omega_nom {120.0 * math.pi!r} is not supported"),
    "another-v_nom": ("scenario", lambda d: d["sim"]["setpoints"].update(v_nom=115.0),
                      "v_nom 115.0 is not supported"),
    # a number field holding another JSON type
    "scr-as-string": ("scenario", lambda d: d["sim"].update(scr="2"),
                      "scr must be a number, got '2'"),
    "scr-as-boolean": ("scenario", lambda d: d["sim"].update(scr=True),
                       "scr must be a number, got True"),
    "null-duration": ("scenario", lambda d: d["sim"].update(duration=None),
                      "duration must be a number, got None"),
    "gain-as-string": ("scenario", lambda d: d["sim"]["gains"].update(d_p="2087"),
                       "gains.d_p must be a number, got '2087'"),
    "setpoint-as-string": ("scenario", lambda d: d["sim"]["setpoints"].update(p_ref="2000"),
                           "setpoints.p_ref must be a number, got '2000'"),
    "target-as-string": ("scenario", lambda d: d["sim"]["targets"].update(t_s="1"),
                         "targets.t_s must be a number, got '1'"),
    "event-time-as-string": ("scenario", lambda d: d["events"][0].update(time="0.5"),
                             "events[0].time must be a number, got '0.5'"),
    "null-event-value": ("scenario", lambda d: d["events"][0].update(value=None),
                         "events[0].value must be a number, got None"),
    # a section of another JSON type, or a number that is not finite
    "sim-as-array": ("scenario", lambda d: d.update(sim=[]), "sim must be an object, got []"),
    "setpoints-as-number": ("scenario", lambda d: d["sim"].update(setpoints=5),
                            "sim.setpoints must be an object, got 5"),
    "gains-as-string": ("scenario", lambda d: d["sim"].update(gains="x"),
                        "sim.gains must be an object, got 'x'"),
    "targets-as-array": ("scenario", lambda d: d["sim"].update(targets=[1]),
                         "sim.targets must be an object, got [1]"),
    "events-as-object": ("scenario", lambda d: d.update(events={"a": 1}),
                         "events must be an array, got {'a': 1}"),
    "event-as-number": ("scenario", lambda d: d["events"].__setitem__(0, 5),
                        "events[0] must be an object, got 5"),
    "nan-scr": ("scenario", lambda d: d["sim"].update(scr=math.nan),
                "sim.scr must be finite, got nan"),
    "infinite-setpoint": ("scenario", lambda d: d["sim"]["setpoints"].update(p_ref=math.inf),
                          "sim.setpoints.p_ref must be finite, got inf"),
    "nan-event-value": ("scenario", lambda d: d["events"][0].update(value=math.nan),
                        "events[0].value must be finite, got nan"),
    # only a set_scr event changes the X/R ratio
    "xr_ratio-on-a-p-step": ("scenario", lambda d: d["events"][0].update(xr_ratio=5.0),
                             "xr_ratio 5.0 is set on a set_p_ref event"),
    # JSON's NaN and Infinity in the model's arrays
    "nan-model-weight": ("model", lambda d: d["w1"].__setitem__(0, math.nan),
                         "w1 must be finite, got nan"),
    "infinite-x_std": ("model", lambda d: d["x_std"].__setitem__(3, math.inf),
                       "x_std must be finite, got inf"),
    "nan-y_mean": ("model", lambda d: d["y_mean"].__setitem__(1, math.nan),
                   "y_mean must be finite, got nan"),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_file_exits_2_naming_the_key(tmp_path, capsys, case):
    which, edit, named = MALFORMED_INPUTS[case]
    sc = tmp_path / "scenario.json"
    short_scenario(sc, mode="avsg", estimator_kind="ann")
    model = tmp_path / "model.json"
    model.write_text(MODEL_FIXTURE.read_text())
    path = {"model": model, "scenario": sc}[which]
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(edit(doc) or doc))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(sc), "--model", str(model),
                 "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_only_training_imports_scipy(tmp_path):
    # the online commands never factorize a matrix, so they run without scipy;
    # each runs through cli.main in one fresh interpreter
    sc = tmp_path / "scenario.json"
    short_scenario(sc, duration=1.0)
    o = str(tmp_path)
    script = f"""
import sys
from vsglab.cli import main
def run(*argv):
    assert main(list(argv)) in (0, 1), argv
run("gains", "--scr", "2", "--p", "2000", "--q", "1000")
run("simulate", "--config", {str(sc)!r}, "--mode", "cvsg", "--out", {o!r})
run("evaluate", "--cvsg", {o + "/timeseries_cvsg.csv"!r}, "--avsg", {o + "/timeseries_cvsg.csv"!r},
    "--scenario", {str(sc)!r}, "--out", {o!r})
run("dataset", "--n", "40", "--seed", "0", "--out", {o + "/ds.csv"!r})
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
run("train", "--dataset", {o + "/ds.csv"!r}, "--out", {o!r})
print(before, "scipy.linalg" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[] True"


def test_simulate_mode_override_with_oracle(tmp_path):
    sc = tmp_path / "scenario.json"
    short_scenario(sc, mode="avsg", estimator_kind="oracle")
    assert main(["simulate", "--config", str(sc), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "estimates.csv").exists()


def test_evaluate_from_saved_traces(tmp_path):
    sc = tmp_path / "scenario.json"
    short_scenario(sc, mode="avsg", estimator_kind="oracle", duration=4.0)
    assert main(["simulate", "--config", str(sc), "--mode", "cvsg",
                 "--out", str(tmp_path)]) == 0
    assert main(["simulate", "--config", str(sc), "--out", str(tmp_path)]) == 0
    with no_thread_left():  # the CVSG trace is read on a worker thread
        rc = main(["evaluate", "--cvsg", str(tmp_path / "timeseries_cvsg.csv"),
                   "--avsg", str(tmp_path / "timeseries_avsg.csv"),
                   "--estimates", str(tmp_path / "estimates.csv"),
                   "--scenario", str(sc), "--out", str(tmp_path)])
    assert rc in (0, 1)
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.csv").exists()


def test_evaluate_rejects_header_only_trace(tmp_path, capsys):
    sc = tmp_path / "scenario.json"
    short_scenario(sc)
    assert main(["simulate", "--config", str(sc), "--out", str(tmp_path)]) == 0
    trace = tmp_path / "timeseries_cvsg.csv"
    empty = tmp_path / "empty.csv"
    empty.write_text(trace.read_text().splitlines()[0] + "\n")
    assert main(["evaluate", "--cvsg", str(empty), "--avsg", str(trace),
                 "--out", str(tmp_path)]) == 2
    assert "no data row" in capsys.readouterr().err


def test_evaluate_names_the_bad_avsg_trace_and_reaps_the_cvsg_reader(tmp_path, capsys):
    # this thread reads the AVSG trace while a worker thread reads the CVSG one
    sc = tmp_path / "scenario.json"
    short_scenario(sc)
    assert main(["simulate", "--config", str(sc), "--out", str(tmp_path)]) == 0
    trace = tmp_path / "timeseries_cvsg.csv"
    with no_thread_left():
        assert main(["evaluate", "--cvsg", str(trace),
                     "--avsg", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "out")]) == 2
    assert "missing.csv" in capsys.readouterr().err


def test_train_rejects_header_only_dataset(tmp_path, capsys):
    ds_path = tmp_path / "ds.csv"
    assert main(["dataset", "--out", str(ds_path), "--n", "20", "--seed", "0"]) == 0
    ds_path.write_text(ds_path.read_text().splitlines()[0] + "\n")
    assert main(["train", "--dataset", str(ds_path), "--out", str(tmp_path)]) == 2
    assert "no data row" in capsys.readouterr().err


def test_train_rejects_dataset_with_foreign_header(tmp_path, capsys):
    # nine columns parse as 1-sample windows; only the header tells them apart
    rng = np.random.default_rng(0)
    ds_path = tmp_path / "other.csv"
    rows = np.column_stack([rng.normal(size=(40, 2)), rng.uniform(0.1, 1.0, (40, 7))])
    ds_path.write_text("a,b,c,d,e,f,g,h,i\n"
                       + "".join(",".join(map(str, r)) + "\n" for r in rows.tolist()))
    assert main(["train", "--dataset", str(ds_path), "--out", str(tmp_path)]) == 2
    assert "header" in capsys.readouterr().err


def test_train_rejects_dataset_with_another_window_length(tmp_path, capsys):
    # a well-formed dataset of 50-sample windows (every other sample of the
    # real one) would train a network the 100-sample estimator cannot use
    ds = generate_dataset(DatasetConfig(n_samples=40, seed=0))
    names = ([f"v_{j:03d}" for j in range(50)] + [f"i_{j:03d}" for j in range(50)]
             + ["r_g", "l_g", "scr", "xr_ratio", "p_ref", "q_ref", "t0"])
    ds_path = tmp_path / "ds50.csv"
    write_table(ds_path, names, [*ds.inputs[:, ::2].T, *ds.targets.T, ds.scr, ds.xr_ratio,
                                 ds.p_ref, ds.q_ref, ds.t0])
    assert main(["train", "--dataset", str(ds_path), "--out", str(tmp_path)]) == 2
    assert "header" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_simulate_rejects_scenario_with_another_estimator_period(tmp_path, capsys):
    # sampling every 100 us fills the 100-sample window in half a cycle; the
    # network then reads R_g about 60 times too low and schedules gains from it
    cfg = SimConfig(duration=2.0, mode="avsg", dt_sim=50e-6,
                    gains=VsgGains(2087.0, 0.00767, 0.687, 0.115),
                    setpoints=Setpoints(2000.0, 1000.0), scr=2.0)
    doc = scenario_to_dict(cfg, [ScenarioEvent(time=0.5, kind="set_p_ref", value=2500.0)])
    doc["sim"]["est_period"] = 100e-6
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(sc), "--model", str(MODEL_FIXTURE),
                 "--out", str(tmp_path)]) == 2
    assert "every 200 us" in capsys.readouterr().err
    assert not (tmp_path / "timeseries_avsg.csv").exists()


@pytest.mark.parametrize("noise", ["-0.5", "nan", "inf"])
def test_dataset_rejects_noise_that_is_not_a_finite_std(tmp_path, capsys, noise):
    # noise is added only above zero, so a negative level would write the clean dataset
    out = tmp_path / "ds.csv"
    assert main(["dataset", "--out", str(out), "--n", "20", "--noise", noise]) == 2
    assert "noise_std" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_rejects_traces_that_end_before_an_event(tmp_path, capsys):
    # without --scenario the events are the 60 s benchmark's, the first at 10 s
    sc = tmp_path / "scenario.json"
    short_scenario(sc, mode="avsg", duration=4.0)
    for mode in ("cvsg", "avsg"):
        assert main(["simulate", "--config", str(sc), "--mode", mode,
                     "--out", str(tmp_path)]) == 0
    out = tmp_path / "out"
    assert main(["evaluate", "--cvsg", str(tmp_path / "timeseries_cvsg.csv"),
                 "--avsg", str(tmp_path / "timeseries_avsg.csv"), "--out", str(out)]) == 2
    assert ("the cvsg trace ends at t = 4 s, before the event at t = 10 s"
            in capsys.readouterr().err)
    assert not out.exists()


def test_paper_repro_writes_what_the_subcommand_chain_writes(tmp_path):
    repro, chain = tmp_path / "repro", tmp_path / "chain"
    assert main(["paper-repro", "--quick", "--seed", "0", "--out", str(repro)]) == 0
    scenario = str(repro / "scenario_avsg.json")
    ds_path = str(chain / "dataset.csv")
    assert main(["dataset", "--out", ds_path, "--n", "600", "--seed", "0"]) == 0
    assert main(["train", "--dataset", ds_path, "--out", str(chain), "--seed", "0"]) == 0
    assert main(["simulate", "--config", scenario, "--mode", "cvsg", "--out", str(chain)]) == 0
    assert main(["simulate", "--config", scenario, "--model", str(chain / "model.json"),
                 "--out", str(chain)]) == 0
    assert main(["evaluate", "--cvsg", str(chain / "timeseries_cvsg.csv"),
                 "--avsg", str(chain / "timeseries_avsg.csv"),
                 "--estimates", str(chain / "estimates.csv"), "--scenario", scenario,
                 "--out", str(chain)]) == 0
    written = sorted(p.name for p in chain.iterdir())
    assert written == sorted(p.name for p in repro.iterdir() if p.name != "scenario_avsg.json")
    for name in written:
        assert (chain / name).read_bytes() == (repro / name).read_bytes(), name


def _patch_run_scenario(monkeypatch, cvsg, avsg):
    real = cli.run_scenario

    def run(cfg, events, **kwargs):
        # a 1 s run stands in for the stage that is not under test
        short = lambda: real(dataclasses.replace(cfg, duration=1.0), [], **kwargs)
        return (cvsg if cfg.mode == "cvsg" else avsg)(short)

    monkeypatch.setattr(cli, "run_scenario", run)


def test_paper_repro_exits_2_when_the_cvsg_stage_raises(tmp_path, capsys, monkeypatch):
    def diverge(_):
        raise NumericFailureError("non-finite state after the RK4 step at t = 12.345600")

    _patch_run_scenario(monkeypatch, cvsg=diverge, avsg=lambda short: short())
    with no_thread_left():  # the CVSG stage runs on a worker thread
        assert main(["paper-repro", "--quick", "--model", str(MODEL_FIXTURE),
                     "--out", str(tmp_path / "out")]) == 2
    assert ("error: non-finite state after the RK4 step at t = 12.345600"
            in capsys.readouterr().err)


def test_paper_repro_joins_the_cvsg_thread_when_the_avsg_stage_raises(tmp_path, capsys,
                                                                         monkeypatch):
    def infeasible(_):
        raise InfeasibleOperatingPointError("no operating point at SCR 0.3")

    _patch_run_scenario(monkeypatch, cvsg=lambda short: short(), avsg=infeasible)
    with no_thread_left():
        with pytest.raises(InfeasibleOperatingPointError,
                           match="no operating point at SCR 0.3"):
            cli.run_paper_repro(tmp_path / "out", model_path=MODEL_FIXTURE, quick=True)
        assert main(["paper-repro", "--quick", "--model", str(MODEL_FIXTURE),
                     "--out", str(tmp_path / "out")]) == 2
    assert "error: no operating point at SCR 0.3" in capsys.readouterr().err
