"""Shared fixtures.

The expensive artifacts (generated dataset, trained estimator, 60 s
benchmark runs) are session-scoped so the acceptance suite pays for them
once.  Unit tests never request them.
"""

import time

import pytest

from vsglab import ann, presets
from vsglab.fork import run_beside_fork
from vsglab.sim import run_scenario


SEED = 0


@pytest.fixture(scope="session")
def dataset():
    return ann.generate_dataset(ann.DatasetConfig(n_samples=5000, seed=SEED))


@pytest.fixture(scope="session")
def trained(dataset):
    """(model, normalizer, report, wall seconds) for the pinned seed."""
    tr, va, te = ann.split_dataset(dataset, seed=SEED)
    t0 = time.perf_counter()
    model, norm, report = ann.train_on_dataset(tr, va, te, SEED)
    elapsed = time.perf_counter() - t0
    return model, norm, report, elapsed


@pytest.fixture(scope="session")
def benchmark_runs(trained):
    """CVSG and AVSG 60 s benchmark results plus total wall seconds; as in
    paper-repro, the CVSG run goes in a forked child process."""
    model, norm = trained[0], trained[1]
    events = presets.benchmark_events()
    t0 = time.perf_counter()
    res_c, res_a = run_beside_fork(
        lambda: run_scenario(presets.benchmark_config("cvsg"), events),
        lambda: run_scenario(presets.benchmark_config("avsg"), events, model=model, norm=norm))
    elapsed = time.perf_counter() - t0
    return res_c, res_a, events, elapsed
