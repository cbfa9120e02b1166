"""Sample buffering, estimate cadence, and the gain-update gate."""

import math

import numpy as np
import pytest

from vsglab.ann import MlpModel, Normalizer, init_model
from vsglab.estimator import (EstimateRecord, OnlineEstimator, OracleEstimator,
                              gate_gain_update, read_estimate_log_csv,
                              write_estimate_log_csv)

DT = 200e-6


def dummy_estimator(n_in=200):
    """Identity-free model; only the buffering behavior matters here."""
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
    est = dummy_estimator()
    for n in (99, 100, 199, 250, 1000):
        est.reset()
        assert len(push_stream(est, n)) == n // 100


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
    # the partial window is discarded; 100 fresh samples needed again
    records = push_stream(est, 100, t_start=62 * DT)
    assert len(records) == 1
    assert records[0].window_start == pytest.approx(61 * DT, abs=1e-12)


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


@pytest.mark.parametrize("chunk", [100, 64, 37, 1])
@pytest.mark.parametrize("bad", [None, 130, 299])
def test_push_window_gives_the_records_of_push_sample(chunk, bad):
    t, v, i = sample_stream(420)
    if bad is not None:
        i[bad] = math.inf
    one_by_one = [rec for rec in map(random_estimator().push_sample, t, v, i)
                  if rec is not None]
    est = random_estimator()
    chunked = [est.push_window(t[j:j + chunk], v[j:j + chunk], i[j:j + chunk])
               for j in range(0, len(t), chunk)]
    assert [rec for rec in chunked if rec is not None] == one_by_one
    # windows before the non-finite sample, then those the samples after it fill
    assert len(one_by_one) == (4 if bad is None else bad // 100 + (419 - bad) // 100)


def test_non_finite_sample_mid_window_reopens_the_window_after_it():
    t, v, i = sample_stream(260)
    v[20], i[40] = math.nan, -math.inf
    est = random_estimator()
    # samples up to and including the last non-finite one are dropped; the
    # 59 after it open the next window, which 41 more samples fill
    assert est.push_window(t[:100], v[:100], i[:100]) is None
    rec = est.push_window(t[100:141], v[100:141], i[100:141])
    assert (rec.window_start, rec.window_end, rec.t) == (t[41] - DT, t[140], t[140])
    assert random_estimator().push_window(t[41:141], v[41:141], i[41:141]) == rec
    # and the next window starts right after it
    assert est.push_window(t[141:241], v[141:241], i[141:241]).window_start == t[140]


def test_push_window_takes_at_most_one_window():
    t, v, i = sample_stream(101)
    with pytest.raises(ValueError, match="at most 100"):
        random_estimator().push_window(t, v, i)


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
    # the oracle shares the window code, so a non-finite sample restarts it too
    est.reset()
    assert push_stream(est, 60) == []
    assert est.push_sample(61 * DT, math.nan, 0.0) is None
    records = push_stream(est, 100, t_start=62 * DT)
    assert len(records) == 1
    assert records[0].window_start == pytest.approx(61 * DT, abs=1e-12)


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
