"""Building and loading the compiled library, and what importing the package leaves
unbuilt."""

import ctypes
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from vsglab import cli, rk4, tables
from vsglab.sim import TIMESERIES_COLUMNS, SimConfig, run_scenario


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache directory, and no library loaded in this process."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(rk4, "CACHE_DIR", cache)
    rk4.library.cache_clear()
    yield cache
    rk4.library.cache_clear()


def test_missing_compiler_raises_and_the_cli_exits_2(cold_cache, tmp_path, monkeypatch,
                                                     capsys):
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    with pytest.raises(rk4.KernelBuildError,
                       match=r"^cannot run `cc -o \S+ \S+rk4\.c \S+tables\.c -O2 "
                             r"-ffp-contract=off -fPIC -shared -lm`: .*'cc'$"):
        rk4.library()
    assert cli.main(["simulate", "--mode", "cvsg", "--out", str(tmp_path / "out")]) == 2
    assert "error: cannot run `cc " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert list(cold_cache.iterdir()) == []  # no temporary file is left


def test_failing_compiler_is_named_with_its_stderr(cold_cache, tmp_path, monkeypatch):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake = bin_dir / "cc"
    fake.write_text("#!/bin/sh\necho 'rk4.c:1: no room' >&2\nexit 3\n")
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    with pytest.raises(rk4.KernelBuildError,
                       match=r"^`cc -o \S+ \S+rk4\.c \S+tables\.c -O2 \S+ -fPIC -shared -lm` "
                             r"exited with code 3:\nrk4\.c:1: no room$"):
        rk4.library()
    assert list(cold_cache.iterdir()) == []


def _short_run_in_two_threads() -> list[str]:
    # as paper-repro's CVSG stage on its worker thread beside its AVSG one
    barrier = threading.Barrier(2, timeout=60)

    def run():
        barrier.wait()
        return run_scenario(SimConfig(duration=0.05), []).series.delta.tobytes().hex()

    with ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(run) for _ in range(2)]
        return [r.result(timeout=120) for r in runs]


def _short_run_in_two_processes() -> list[str]:
    # as two CLI runs at once, each building into this process's rk4.CACHE_DIR
    probe = ("import pathlib, sys\n"
             "from vsglab import rk4\n"
             "from vsglab.sim import SimConfig, run_scenario\n"
             f"rk4.CACHE_DIR = pathlib.Path({str(rk4.CACHE_DIR)!r})\n"
             "print(run_scenario(SimConfig(duration=0.05), []).series.delta.tobytes().hex())")
    env = {**os.environ, "PYTHONPATH": str(Path(rk4.__file__).parents[1])}
    runs = [subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE, text=True,
                             env=env) for _ in range(2)]
    return [r.communicate(timeout=120)[0].strip() for r in runs]


@pytest.mark.parametrize("run_two", [_short_run_in_two_threads, _short_run_in_two_processes],
                         ids=["threads", "processes"])
def test_two_callers_building_on_a_cold_cache_leave_one_library(cold_cache, run_two):
    # both build at once
    first, second = run_two()
    assert first == second != ""
    assert [p.name for p in cold_cache.iterdir()] == [rk4.build().name]
    assert rk4.build().name.startswith("vsglab-") and rk4.build().suffix == ".so"


def test_missing_compiler_leaves_no_table_file(cold_cache, tmp_path, monkeypatch, capsys):
    # the library loads before a table's file is opened
    trace = tmp_path / "trace.csv"
    trace.write_text(",".join(TIMESERIES_COLUMNS) + "\n" + ",".join(["0.0"] * 14) + "\n")
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    assert cli.main(["dataset", "--n", "20", "--out", str(tmp_path / "d.csv")]) == 2
    assert "error: cannot run `cc " in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()
    assert cli.main(["evaluate", "--cvsg", str(trace), "--avsg", str(trace),
                     "--out", str(tmp_path / "out")]) == 2
    assert "error: cannot run `cc " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", sorted(Path(rk4.__file__).parent.glob("*.c")),
                         ids=lambda p: p.name)
def test_c_source_compiles_without_a_warning(source):
    done = subprocess.run(["cc", "-fsyntax-only", "-Wall", "-Wextra", "-Werror", str(source)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_c_sources_are_every_c_file_of_the_package():
    assert sorted(rk4.SOURCES) == sorted(Path(rk4.__file__).parent.glob("*.c"))


def test_a_sweep_of_hard_floats_reads_back_bit_exact_under_ubsan(tmp_path, hard_floats):
    # the library built with UBSan, which aborts at the first undefined shift,
    # overflow or bad index in the reader's 128-bit products
    table = tmp_path / "t.csv"
    tables.write_table(table, ["x"], [hard_floats])
    hard_floats.tofile(tmp_path / "want.f64")
    probe = ("import pathlib, sys\n"
             "import numpy as np\n"
             "from vsglab import rk4, tables\n"
             "rk4.CACHE_DIR = pathlib.Path(sys.argv[1])\n"
             "rk4.FLAGS += ('-fsanitize=undefined', '-fno-sanitize-recover=all')\n"
             "got = tables.read_table(rk4.CACHE_DIR / 't.csv', ['x'])[:, 0]\n"
             "want = np.fromfile(rk4.CACHE_DIR / 'want.f64')\n"
             "nan = np.isnan(want)\n"
             "print('libubsan' in pathlib.Path('/proc/self/maps').read_text(),\n"
             "      rk4.build().parent == rk4.CACHE_DIR, np.array_equal(np.isnan(got), nan),\n"
             "      np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))")
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], capture_output=True,
                          text=True, env={**os.environ,
                                          "PYTHONPATH": str(Path(rk4.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"] * 4


def c_enums(source: Path) -> dict[str, int]:
    """Each enumerator of the `enum { … }` blocks of a C source, with its value."""
    text = re.sub(r"/\*.*?\*/", "", source.read_text(), flags=re.S)
    values = {}
    for body in re.findall(r"\benum\s*\{(.*?)\}", text, flags=re.S):
        value = 0
        for item in filter(None, map(str.strip, body.split(","))):
            name, _, given = map(str.strip, item.partition("="))
            value = int(given, 0) if given else value
            values[name] = value
            value += 1
    return values


def test_python_copies_of_c_enums_have_the_c_values():
    c = {name: value for source in rk4.SOURCES for name, value in c_enums(source).items()}
    assert c["READ_END"] == 5 and c["FAIL_NON_FINITE"] == 3  # the parse itself
    copies = {}
    for module, pattern in ((rk4, r"(Y|PAR|ROW|IX|STOP|FAIL)_[A-Z_]+"),
                            (tables, r"READ_[A-Z]+|FIELD_TEXT")):
        copies.update((name, value) for name, value in vars(module).items()
                      if re.fullmatch(pattern, name) or name in c)
    assert sorted(copies.keys() - c.keys()) == []  # each copy has a C counterpart
    assert copies == {name: c[name] for name in copies}


def c_entry_points(source: Path) -> dict[str, tuple[str, list[str]]]:
    """Each function named vsg_* that a C source defines without `static`: its return
    type and its parameters' declarations."""
    text = re.sub(r"/\*.*?\*/", "", source.read_text(), flags=re.S)
    return {name: (restype, [p.strip() for p in params.split(",")])
            for restype, name, params
            in re.findall(r"^(\w+)\s+(vsg_\w+)\(([^)]*)\)\s*\{", text, flags=re.M)}


C_TYPES = {"void": None, "int": ctypes.c_int, "int64_t": ctypes.c_int64,
           "double": ctypes.c_double}


def ctypes_type(param: str):
    """The ctypes type a C parameter declaration is passed as: a pointer as an address."""
    return ctypes.c_void_p if "*" in param else C_TYPES[param.split()[0]]


def test_every_c_entry_point_is_typed():
    # an untyped call passes a Python float as an int and reads every result as an int
    entry = {name: sig for source in rk4.SOURCES for name, sig in c_entry_points(source).items()}
    assert {"vsg_rk4_run", "vsg_window_waveforms", "vsg_table_write",
            "vsg_table_read"} <= entry.keys()
    lib = rk4.library()
    for name, (restype, params) in entry.items():
        fn = getattr(lib, name)
        assert fn.restype is C_TYPES[restype], name
        assert fn.argtypes == [ctypes_type(p) for p in params], name


def test_importing_the_cli_builds_and_loads_nothing():
    # the library is built, so that a load at import would show in the maps
    rk4.build()
    probe = ("import pathlib, sys, vsglab.cli\n"
             "from vsglab import rk4\n"
             "print(str(rk4.CACHE_DIR) in pathlib.Path('/proc/self/maps').read_text())\n"
             "for name in ('subprocess', 'concurrent.futures', 'vsglab.fork'):\n"
             "    print(name in sys.modules)")
    src = Path(rk4.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.split() == ["False"] * 4
