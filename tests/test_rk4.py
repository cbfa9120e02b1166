"""Building and loading the compiled RK4 kernel."""

import pytest

from vsglab import cli, rk4
from vsglab.fork import run_beside_fork
from vsglab.sim import SimConfig, run_scenario


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty kernel cache directory, and no kernel loaded in this process."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(rk4, "CACHE_DIR", cache)
    rk4.kernel.cache_clear()
    yield cache
    rk4.kernel.cache_clear()


def test_missing_compiler_raises_and_the_cli_exits_2(cold_cache, tmp_path, monkeypatch,
                                                     capsys):
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    with pytest.raises(rk4.KernelBuildError,
                       match=r"^cannot run `cc -o \S+ \S+rk4\.c -O2 -ffp-contract=off -fPIC "
                             r"-shared -lm`: .*'cc'$"):
        rk4.kernel()
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
                       match=r"^`cc -o \S+ \S+rk4\.c -O2 \S+ -fPIC -shared -lm` exited with "
                             r"code 3:\nrk4\.c:1: no room$"):
        rk4.kernel()
    assert list(cold_cache.iterdir()) == []


def test_two_processes_building_on_a_cold_cache_leave_one_library(cold_cache):
    # as paper-repro's forked CVSG stage beside its AVSG one: both build at once
    cfg = SimConfig(duration=0.05)

    def run():
        return run_scenario(cfg, []).series.delta.tobytes()

    in_child, in_parent = run_beside_fork(run, run)
    assert in_child == in_parent
    assert [p.name for p in cold_cache.iterdir()] == [rk4.build().name]
    assert rk4.build().name.startswith("rk4-") and rk4.build().suffix == ".so"
