"""Shared fixtures.

The expensive artifacts (generated dataset, trained estimator, 60 s
benchmark runs) are session-scoped so the acceptance suite pays for them
once.  Unit tests never request them.
"""

import time

import pytest

from vsglab import ann
from vsglab.sim import benchmark_config, benchmark_events, run_scenario


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
    """CVSG and AVSG 60 s benchmark results plus total wall seconds, the two runs
    in turn: the fixed-gain CVSG run takes about 0.2 s of the total."""
    model, norm = trained[0], trained[1]
    events = benchmark_events()
    t0 = time.perf_counter()
    res_c = run_scenario(benchmark_config("cvsg"), events)
    res_a = run_scenario(benchmark_config("avsg"), events, model=model, norm=norm)
    elapsed = time.perf_counter() - t0
    return res_c, res_a, events, elapsed
