"""Whole cycle-aligned windows, estimate cadence, and the gain-update gate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vsglab.ann import MlpModel, Normalizer, init_model
from vsglab.estimator import (EstimateRecord, OnlineEstimator, OracleEstimator,
                              gate_gain_update, read_estimate_log_csv,
                              write_estimate_log_csv)

DT = 200e-6


def dummy_estimator(n_in=200):
    """Identity-free model; only the window cadence matters here."""
    model = MlpModel(np.zeros((2, n_in)), np.zeros(2), np.zeros((2, 2)),
                     np.array([0.5, 0.01]), hidden_activation="linear")
    norm = Normalizer(np.zeros(n_in), np.ones(n_in), np.zeros(2), np.ones(2))
    return OnlineEstimator(model, norm)


def push_stream(est, n, t_start=DT):
    records = []
    for j in range(n):
        rec = est.push_sample(t_start + j * DT, 1.0, 2.0)
        if rec is not None:
            records.append(rec)
    return records


def test_one_estimate_per_full_window():
    for n in (99, 100, 199, 250, 1000):
        assert len(push_stream(dummy_estimator(), n)) == n // 100


def test_window_span_is_one_cycle():
    records = push_stream(dummy_estimator(), 500)
    for rec in records:
        assert rec.window_end == rec.t
        assert rec.window_end - rec.window_start == pytest.approx(0.02, abs=1e-12)


def test_estimates_are_back_to_back():
    records = push_stream(dummy_estimator(), 300)
    for a, b in zip(records, records[1:]):
        assert b.window_start == pytest.approx(a.window_end, abs=1e-12)


def test_non_finite_sample_restarts_window():
    est = dummy_estimator()
    for j in range(60):
        assert est.push_sample((j + 1) * DT, 1.0, 1.0) is None
    assert est.push_sample(61 * DT, math.nan, 1.0) is None
    # the window holding it gives no estimate; the next one opens a cycle on
    records = push_stream(est, 239, t_start=62 * DT)
    assert [rec.window_start for rec in records] == pytest.approx([0.02, 0.04], abs=1e-12)


def random_estimator():
    """A seeded network and normalizer, so that every sample moves the estimate."""
    rng = np.random.default_rng(5)
    norm = Normalizer(rng.normal(size=200), rng.uniform(50.0, 150.0, 200),
                      np.array([-1.0, -4.5]), np.array([0.5, 0.3]))
    return OnlineEstimator(init_model(200, 8, 2, seed=3), norm)


def sample_stream(n):
    """(t, v, i) of n samples at the estimator rate from t = DT on."""
    rng = np.random.default_rng(7)
    return (np.arange(1, n + 1) * DT, rng.normal(0.0, 150.0, n), rng.normal(0.0, 20.0, n))


@pytest.mark.parametrize("tail", [100, 64, 37, 1])
@pytest.mark.parametrize("bad", [None, 130, 299])
def test_push_window_gives_the_records_of_push_sample(tail, bad):
    # three whole windows and `tail` samples more, one at a time or a window at a time
    t, v, i = sample_stream(300 + tail)
    if bad is not None:
        i[bad] = math.inf
    one_by_one = [rec for rec in map(random_estimator().push_sample, t, v, i)
                  if rec is not None]
    est = random_estimator()
    windowed = [est.push_window(t[j:j + 100], v[j:j + 100], i[j:j + 100])
                for j in range(0, len(t) - 99, 100)]
    assert [rec for rec in windowed if rec is not None] == one_by_one
    # every whole window but the one holding the non-finite sample
    assert len(one_by_one) == len(windowed) - (bad is not None)
    if bad is not None:
        assert windowed[bad // 100] is None


# any finite sample, up to the largest double
FINITE_WINDOW = hnp.arrays(np.float64, 100, elements=st.floats(allow_nan=False,
                                                              allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(FINITE_WINDOW, FINITE_WINDOW)
def test_every_finite_window_gives_a_non_negative_estimate(v, i):
    # the network's outputs are log-targets, so R and L are exp() of them
    rec = random_estimator().push_window(np.arange(1, 101) * DT, v, i)
    assert rec.r_g_hat >= 0.0 and rec.l_g_hat >= 0.0


@pytest.mark.parametrize("kind", ["ann", "oracle"])
def test_non_finite_sample_costs_only_its_own_window(kind):
    def estimator():
        if kind == "ann":
            return random_estimator()
        est = OracleEstimator()
        est.truth = (0.7, 0.011)
        return est

    t, v, i = sample_stream(400)
    clean = [rec for rec in map(estimator().push_sample, t, v, i) if rec is not None]
    v[150] = math.nan  # in the middle of window 1
    est = estimator()
    dropped = [rec for rec in map(est.push_sample, t, v, i) if rec is not None]
    assert len(clean) == 4
    assert dropped == [clean[0], clean[2], clean[3]]
    # window 2 opens two cycles in, on the grid of the clean stream
    assert dropped[1].window_start == pytest.approx(2 * 0.02, abs=1e-12)


def test_push_window_takes_at_most_one_window():
    t, v, i = sample_stream(101)
    with pytest.raises(ValueError, match="a window is 100 samples"):
        random_estimator().push_window(t, v, i)


def test_push_window_takes_no_part_of_a_window():
    t, v, i = sample_stream(99)
    with pytest.raises(ValueError, match="a window is 100 samples"):
        random_estimator().push_window(t, v, i)


@pytest.mark.parametrize("shift", [1, 5, 50, 99])
def test_push_window_rejects_a_window_off_the_cycle_grid(shift):
    t, v, i = sample_stream(300)
    est = random_estimator()
    on_grid = est.push_window(t[200:300], v[200:300], i[200:300])
    assert on_grid.window_start == pytest.approx(2 * 0.02, abs=1e-12)
    # a rounding error in t is still on the grid
    nudged = est.push_window(t[200:300] + 1e-12, v[200:300], i[200:300])
    assert (nudged.r_g_hat, nudged.l_g_hat) == (on_grid.r_g_hat, on_grid.l_g_hat)
    with pytest.raises(ValueError, match="off the 20 ms cycle grid"):
        est.push_window(t[shift:shift + 100], v[shift:shift + 100], i[shift:shift + 100])


def test_model_window_size_mismatch_rejected():
    # a network for 50-sample windows cannot read the 100 + 100 sample window
    with pytest.raises(ValueError, match="100 inputs"):
        dummy_estimator(n_in=100)


def test_oracle_estimator_same_cadence():
    est = OracleEstimator()
    est.truth = (0.7, 0.011)
    records = []
    for j in range(250):
        rec = est.push_sample((j + 1) * DT, 0.0, 0.0)
        if rec is not None:
            records.append(rec)
    assert len(records) == 2
    assert all(r.r_g_hat == 0.7 and r.l_g_hat == 0.011 for r in records)
    assert records[0].window_end - records[0].window_start == pytest.approx(0.02, abs=1e-12)


def test_gate_applies_first_estimate():
    rec = EstimateRecord(t=0.02, r_g_hat=0.7, l_g_hat=0.011,
                         window_start=0.0, window_end=0.02)
    assert gate_gain_update(rec, None)


def test_gate_blocks_repeats_and_passes_changes():
    prev = EstimateRecord(t=0.02, r_g_hat=0.7, l_g_hat=0.011,
                          window_start=0.0, window_end=0.02)
    same = EstimateRecord(t=0.04, r_g_hat=0.7, l_g_hat=0.011,
                          window_start=0.02, window_end=0.04)
    small = EstimateRecord(t=0.04, r_g_hat=0.7 * 1.03, l_g_hat=0.011,
                           window_start=0.02, window_end=0.04)
    big = EstimateRecord(t=0.04, r_g_hat=0.7, l_g_hat=0.011 * 1.2,
                         window_start=0.02, window_end=0.04)
    r_step = EstimateRecord(t=0.04, r_g_hat=0.7 * 1.06, l_g_hat=0.011,
                            window_start=0.02, window_end=0.04)
    assert not gate_gain_update(same, prev)
    assert not gate_gain_update(small, prev)
    assert gate_gain_update(big, prev)
    assert gate_gain_update(r_step, prev)  # 6 % > GATE_THRESHOLD in R alone


def test_estimate_log_csv(tmp_path):
    rec = EstimateRecord(t=0.02, r_g_hat=0.7, l_g_hat=0.011,
                         window_start=0.0, window_end=0.02)
    path = tmp_path / "est.csv"
    records = [(rec, 0.712, 0.01133, True),
               (EstimateRecord(t=0.04, r_g_hat=0.1 + 0.2, l_g_hat=math.pi / 3e2,
                               window_start=0.02, window_end=0.04), 0.712, 0.01133, False)]
    write_estimate_log_csv(path, records)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,r_g_hat,l_g_hat,r_g_true,l_g_true,window_start,window_end,applied"
    assert lines[1].startswith("0.02,0.7,0.011,")
    assert lines[1].endswith(",1")
    assert read_estimate_log_csv(path) == records
