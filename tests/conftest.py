"""Shared fixtures.

The expensive artifacts (generated dataset, trained estimator, 60 s
benchmark runs) are session-scoped so the acceptance suite pays for them
once.  Unit tests never request them.  The cheap sweep of hard floats is
session-scoped too, for the table tests that write and read it.
"""

import math
import time

import numpy as np
import pytest

from vsglab import ann
from vsglab.sim import benchmark_config, benchmark_events, run_scenario


SEED = 0


@pytest.fixture(scope="session")
def hard_floats() -> np.ndarray:
    """A seeded sweep of more than 200 000 doubles that are hard to format or to parse:
    any bits, subnormals, powers of 2 and of 10 and their neighbours, integers, and
    the trace time grids."""
    rng = np.random.default_rng(21)
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    pow10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
    powers = np.concatenate([pow2, pow10])
    subnormal = rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64)
    integers = rng.integers(0, 2**63, 40_000, dtype=np.uint64) >> rng.integers(0, 63, 40_000,
                                                                               dtype=np.uint64)
    return np.concatenate([
        rng.integers(0, 2**64, 80_000, dtype=np.uint64).view(np.float64),  # any bits
        subnormal, -subnormal,
        powers, np.nextafter(powers, math.inf), np.nextafter(powers, -math.inf),
        integers.astype(np.float64), np.ldexp(1.0, np.arange(64)) - 1.0,
        np.arange(60_000) * 50e-6, np.arange(20_000) * 200e-6,  # the trace time grids
    ])


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
