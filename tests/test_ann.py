"""Network forward/Jacobian math, LM training mechanics, and data plumbing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vsglab import ann
from vsglab.ann import (MlpModel, Normalizer, NormalizationError,
                        DatasetConfig, init_model, forward, error_jacobian,
                        lm_step, train, train_on_dataset, generate_dataset,
                        split_dataset, save_model, load_model,
                        save_dataset_csv, load_dataset_csv, tansig, SAMPLE_DT)
from vsglab.tables import read_table


def toy_splits(seed=0, n=80, n_val=20):
    """sin(3x) regression; small enough for fast LM epochs."""
    rng = np.random.default_rng(seed)
    def make(m):
        x = rng.uniform(-1.0, 1.0, (m, 1))
        return x, np.sin(3.0 * x)
    return make(n), make(n_val), make(n_val)


def set_recipe(monkeypatch, max_epochs, goal_mse=ann.GOAL_MSE, n_hidden=ann.N_HIDDEN):
    """Shrink the training recipe's module constants for one test."""
    monkeypatch.setattr(ann, "MAX_EPOCHS", max_epochs)
    monkeypatch.setattr(ann, "GOAL_MSE", goal_mse)
    monkeypatch.setattr(ann, "N_HIDDEN", n_hidden)


# --- activations and forward pass --------------------------------------------

@given(st.floats(-20.0, 20.0))
def test_tansig_matches_logistic_form(x):
    ref = 2.0 / (1.0 + math.exp(-2.0 * x)) - 1.0
    assert tansig(x) == pytest.approx(ref, abs=1e-15)


def test_forward_shapes():
    m = init_model(4, 3, 2, seed=1)
    assert forward(m, np.zeros(4)).shape == (2,)
    assert forward(m, np.zeros((7, 4))).shape == (7, 2)
    with pytest.raises(ValueError):
        forward(m, np.zeros(5))


def test_model_dimension_validation():
    with pytest.raises(ValueError):
        MlpModel(np.zeros((3, 4)), np.zeros(2), np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        init_model(4, 3, 2, seed=0, hidden_activation="relu")


def test_flat_weights_round_trip():
    m = init_model(5, 4, 2, seed=3)
    w = m.flat_weights()
    assert w.size == m.n_params
    m2 = m.with_flat_weights(w)
    np.testing.assert_array_equal(m2.w1, m.w1)
    np.testing.assert_array_equal(m2.b2, m.b2)


# --- residual Jacobian vs finite differences ----------------------------------

@pytest.mark.parametrize("hidden_act", ["tansig", "linear"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_error_jacobian_matches_finite_differences(hidden_act, seed):
    rng = np.random.default_rng(seed)
    m = init_model(3, 4, 2, seed=seed, hidden_activation=hidden_act)
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=(6, 2))
    j, e = error_jacobian(m, x, y)
    assert j.shape == (12, m.n_params)

    w0 = m.flat_weights()
    h = 1e-6
    for col in range(m.n_params):
        dw = np.zeros_like(w0)
        dw[col] = h
        _, ep = error_jacobian(m.with_flat_weights(w0 + dw), x, y)
        _, em = error_jacobian(m.with_flat_weights(w0 - dw), x, y)
        fd = (ep - em) / (2.0 * h)
        np.testing.assert_allclose(j[:, col], fd, atol=1e-6, rtol=1e-6)


def test_error_jacobian_rejects_empty_batch():
    m = init_model(3, 4, 2, seed=0)
    with pytest.raises(ValueError):
        error_jacobian(m, np.zeros((0, 3)), np.zeros((0, 2)))


# --- Levenberg-Marquardt mechanics --------------------------------------------

def test_lm_step_linear_oracle_equals_least_squares():
    # pass-through hidden layer and zero output weights: with mu ~ 0 one LM
    # step is exactly ordinary least squares in (w2, b2)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3))
    t_true = np.array([[2.0, -1.0, 0.5], [0.0, 1.0, 3.0]])
    c_true = np.array([0.3, -0.7])
    y = x @ t_true.T + c_true
    m = MlpModel(np.eye(3), np.zeros(3), np.zeros((2, 3)), np.zeros(2),
                 hidden_activation="linear")
    m1 = lm_step(m, x, y, mu=1e-12)
    xa = np.hstack([x, np.ones((50, 1))])
    ref, *_ = np.linalg.lstsq(xa, y, rcond=None)
    np.testing.assert_allclose(m1.w2, ref[:3].T, atol=1e-8)
    np.testing.assert_allclose(m1.b2, ref[3], atol=1e-8)
    # untouched parameters have zero Jacobian columns and must not move
    np.testing.assert_array_equal(m1.w1, m.w1)
    np.testing.assert_array_equal(m1.b1, m.b1)


def test_lm_step_requires_positive_mu():
    m = init_model(2, 2, 1, seed=0)
    with pytest.raises(ValueError):
        lm_step(m, np.zeros((3, 2)), np.zeros((3, 1)), mu=0.0)


def test_accepted_epochs_never_increase_training_mse(monkeypatch):
    set_recipe(monkeypatch, 60, goal_mse=1e-12, n_hidden=4)
    _, report = train(*toy_splits(), seed=0)
    assert report.epochs_run > 5
    assert all(b <= a + 1e-15 for a, b in zip(report.train_mse, report.train_mse[1:]))


def test_training_is_bit_reproducible(monkeypatch):
    set_recipe(monkeypatch, 25, goal_mse=1e-12, n_hidden=4)
    m1, r1 = train(*toy_splits(), seed=7)
    m2, r2 = train(*toy_splits(), seed=7)
    np.testing.assert_array_equal(m1.flat_weights(), m2.flat_weights())
    assert r1.train_mse == r2.train_mse
    assert r1.mu == r2.mu


def test_report_traces_have_one_entry_per_epoch(monkeypatch):
    set_recipe(monkeypatch, 20, goal_mse=1e-12, n_hidden=4)
    _, report = train(*toy_splits(), seed=1)
    n = report.epochs_run
    for trace in (report.train_mse, report.val_mse, report.test_mse,
                  report.grad_norm, report.mu, report.val_checks):
        assert len(trace) == n


def test_goal_stop_on_easy_problem(monkeypatch):
    set_recipe(monkeypatch, 200, n_hidden=6)
    _, report = train(*toy_splits(), seed=0)
    assert report.stop_reason == "goal"
    assert report.train_mse[-1] <= ann.GOAL_MSE == 1e-5


def test_train_takes_the_lm_step(monkeypatch):
    # one epoch moves the seeded weights by exactly one lm_step, taken at the
    # damping of the trial the epoch accepted (replayed from the schedule)
    (x, y), val, test = toy_splits()
    set_recipe(monkeypatch, 1, n_hidden=4)
    model, report = train((x, y), val, test, seed=0)
    mu = ann.MU_INIT
    while mu * ann.MU_DECREASE < report.mu[0]:
        mu *= ann.MU_INCREASE
    assert mu * ann.MU_DECREASE == report.mu[0]
    step = lm_step(init_model(1, 4, 1, seed=0), x, y, mu)
    np.testing.assert_array_equal(model.flat_weights(), step.flat_weights())


def test_a_wrapper_bound_as_cho_factor_sees_every_factorization(monkeypatch):
    # how perfbench counts them: `ann` binds the name from scipy on first use
    # and reads it off the module at each damped step
    real, calls = ann.cho_factor, []
    monkeypatch.setattr(ann, "cho_factor", lambda *a, **k: calls.append(a) or real(*a, **k))
    set_recipe(monkeypatch, 20, goal_mse=1e-12, n_hidden=4)
    _, report = train(*toy_splits(), seed=1)
    # replayed from the schedule: one factorization per damping tried, each
    # rejected trial x MU_INCREASE, until the one the epoch accepted
    trials, mu = 0, ann.MU_INIT
    for left in report.mu:
        trials += 1
        while mu * ann.MU_DECREASE < left:
            mu *= ann.MU_INCREASE
            trials += 1
        assert mu * ann.MU_DECREASE == left
        mu = left
    assert len(calls) == trials > report.epochs_run


def test_an_unknown_module_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ann.no_such_name


# the 1-D toy inputs laid along one unit vector of a 3-input space: rank 1 of 3
EMBED = np.array([2.0, -1.0, 2.0]) / 3.0


def embedded_toy_splits(seed=0):
    return tuple((x * EMBED, y) for x, y in toy_splits(seed))


def test_rank_deficient_epoch_takes_the_full_space_lm_step(monkeypatch):
    # an epoch in the span of the inputs moves the seeded 3-input weights as one
    # full-space lm_step does.  The reference is only as exact as its own solve:
    # at seed 0 the accepted mu is 1e-3, cond(J^T J + mu I) is about 1e5, and
    # reordering the rows of the full-space step alone moves it by 2.8e-12, so
    # this seed, accepted at mu = 1e-2, keeps that rounding below the tolerance
    splits = embedded_toy_splits()
    set_recipe(monkeypatch, 1, n_hidden=4)
    model, report = train(*splits, seed=1)
    assert report.input_rank == 1
    mu = ann.MU_INIT
    while mu * ann.MU_DECREASE < report.mu[0]:
        mu *= ann.MU_INCREASE
    assert mu == 1e-2
    step = lm_step(init_model(3, 4, 1, seed=1), *splits[0], mu).flat_weights()
    np.testing.assert_allclose(model.flat_weights(), step, rtol=0,
                               atol=1e-12 * np.linalg.norm(step))


def test_rank_deficient_training_keeps_off_span_weights_at_their_seed(monkeypatch):
    splits = embedded_toy_splits()
    set_recipe(monkeypatch, 20, n_hidden=4)
    model, report = train(*splits, seed=0)
    assert report.epochs_run > 5
    off_span = np.eye(3) - np.outer(EMBED, EMBED)
    seed_w1 = init_model(3, 4, 1, seed=0).w1
    np.testing.assert_allclose(model.w1 @ off_span, seed_w1 @ off_span, rtol=0, atol=1e-15)
    assert np.linalg.norm((model.w1 - seed_w1) @ EMBED) > 0.1   # the span did train
    # the report describes the lifted model on the 3-input splits
    for name, (x, y) in zip(("train", "val", "test"), splits):
        np.testing.assert_array_equal(report.scatter[name][1], forward(model, x).ravel())
    assert report.train_mse[-1] == pytest.approx(
        np.mean((forward(model, splits[0][0]) - splits[0][1]) ** 2), rel=1e-10)


def test_rank_deficient_training_scores_val_and_test_with_the_returned_model(monkeypatch):
    # 28 noisy training rows span 27 of 200 directions; the val and test rows
    # carry noise off that span, which the returned model's seeded weights see
    noisy = generate_dataset(DatasetConfig(n_samples=40, seed=0, noise_std=0.5))
    parts = split_dataset(noisy)
    set_recipe(monkeypatch, 3)
    model, norm, report = train_on_dataset(*parts)
    assert report.input_rank == 27 and report.epochs_run == 3
    for name, d in zip(("train", "val", "test"), parts):
        e = forward(model, norm.transform_x(d.inputs)) - norm.transform_y(d.targets)
        assert getattr(report, f"{name}_mse")[-1] == pytest.approx(np.mean(e * e), rel=1e-9)


def test_input_rank_counts_the_directions_lm_trained_in(monkeypatch):
    set_recipe(monkeypatch, 1, n_hidden=4)
    assert train(*toy_splits())[1].input_rank == 1
    # one cycle of two sinusoids is four numbers: the phasors of v and i
    set_recipe(monkeypatch, 1)
    clean = generate_dataset(DatasetConfig(n_samples=40, seed=0))
    assert train_on_dataset(*split_dataset(clean))[2].input_rank == 4
    # noise spans every direction the 28 z-scored (centred) training rows can
    noisy = generate_dataset(DatasetConfig(n_samples=40, seed=0, noise_std=0.5))
    assert train_on_dataset(*split_dataset(noisy))[2].input_rank == 27


def test_train_config_fingerprint_covers_the_damping_schedule():
    # model.json files trained at seed 0 carry this hash, back to when the
    # recipe and the damping schedule were fields of a config class
    assert ann.recipe_fingerprint(0) == "b9c378960bd460f6"
    assert ann.recipe_fingerprint(1) != ann.recipe_fingerprint(0)


def test_the_epoch_cap_is_read_at_each_training_and_hashed(monkeypatch):
    splits = toy_splits()
    set_recipe(monkeypatch, 3, goal_mse=1e-12, n_hidden=4)
    before = ann.recipe_fingerprint(0)
    assert train(*splits)[1].epochs_run == 3
    monkeypatch.setattr(ann, "MAX_EPOCHS", 5)
    _, report = train(*splits)
    assert (report.epochs_run, report.stop_reason) == (5, "max_epochs")
    assert ann.recipe_fingerprint(0) != before


# --- normalization -------------------------------------------------------------

def test_normalizer_log_targets_round_trip():
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(40, 6)), rng.uniform(0.05, 5.0, (40, 2))
    norm = Normalizer.fit(x, y)
    np.testing.assert_allclose(norm.inverse_y(norm.transform_y(y)), y, rtol=1e-12)
    # z-scoring happens in log space
    np.testing.assert_allclose(norm.transform_y(y).mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(norm.y_mean, np.log(y).mean(axis=0), rtol=1e-12)
    zx = norm.transform_x(x)
    np.testing.assert_allclose(zx.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(zx.std(axis=0), 1.0, atol=1e-12)


def test_normalizer_rejects_bad_inputs():
    x = np.random.default_rng(2).normal(size=(10, 3))
    with pytest.raises(NormalizationError):
        Normalizer.fit(x, np.full((10, 2), 3.0))          # constant target
    with pytest.raises(NormalizationError):
        Normalizer.fit(x, np.full((10, 2), -1.0) * np.linspace(1, 2, 10)[:, None])
    with pytest.raises(NormalizationError):
        Normalizer(np.zeros(3), np.ones(3), np.zeros(2), np.array([1.0, 0.0]))


# --- dataset generation and persistence ----------------------------------------

def test_generate_dataset_invariants():
    cfg = DatasetConfig(n_samples=40, seed=3)
    ds = generate_dataset(cfg)
    assert len(ds) == 40
    assert ds.inputs.shape == (40, 200)
    assert ds.targets.shape == (40, 2)
    assert np.all(ds.targets > 0)
    assert set(np.unique(ds.scr)) <= set(ann.DATASET_SCR_VALUES)
    assert set(np.unique(ds.xr_ratio)) <= set(ann.DATASET_XR_VALUES)
    assert np.all(ds.t0 == SAMPLE_DT)  # every window starts where the online buffer does


def test_dataset_config_validation():
    with pytest.raises(ValueError, match="n_samples"):
        generate_dataset(DatasetConfig(n_samples=0))


def test_split_dataset_partitions():
    ds = generate_dataset(DatasetConfig(n_samples=40, seed=0))
    tr, va, te = split_dataset(ds, seed=0)
    assert (len(tr), len(va), len(te)) == (28, 6, 6)
    merged = np.vstack([tr.inputs, va.inputs, te.inputs])
    assert merged.shape == ds.inputs.shape
    # same seed reproduces the same split
    tr2, _, _ = split_dataset(ds, seed=0)
    np.testing.assert_array_equal(tr.inputs, tr2.inputs)


def test_dataset_csv_round_trip(tmp_path):
    ds = generate_dataset(DatasetConfig(n_samples=12, seed=5))
    path = tmp_path / "ds.csv"
    save_dataset_csv(path, ds)
    ds2 = load_dataset_csv(path)
    for name in ("inputs", "targets", "scr", "xr_ratio", "p_ref", "q_ref", "t0"):
        np.testing.assert_array_equal(getattr(ds2, name), getattr(ds, name))


def test_diagnostics_csvs_load_back_exactly(tmp_path, monkeypatch):
    ds = generate_dataset(DatasetConfig(n_samples=30, seed=2))
    set_recipe(monkeypatch, 3)
    _, _, report = train_on_dataset(*split_dataset(ds, seed=2), seed=2)
    ann.export_diagnostics(report, tmp_path)
    trace = read_table(tmp_path / "training_trace.csv",
                       ["epoch", "train_mse", "val_mse", "test_mse", "grad_norm", "mu",
                        "val_checks"])
    np.testing.assert_array_equal(trace.T, [range(1, report.epochs_run + 1),
                                            report.train_mse, report.val_mse,
                                            report.test_mse, report.grad_norm,
                                            report.mu, report.val_checks])

    def rows(name):  # the split name leads; every other field is a number
        lines = (tmp_path / name).read_text().splitlines()[1:]
        return [(split, *map(float, rest)) for split, *rest in (ln.split(",") for ln in lines)]

    edges = report.hist_bin_edges
    assert rows("error_histogram.csv") == [
        (name, edges[j], edges[j + 1], c)
        for name, counts in report.hist_counts.items() for j, c in enumerate(counts)]
    assert rows("regression.csv") == [(name, *fit) for name, fit in report.regression.items()]
    assert rows("regression_scatter.csv") == [
        (name, tv, pv) for name, (t, pr) in report.scatter.items() for tv, pv in zip(t, pr)]

def test_model_save_load_round_trip(tmp_path, monkeypatch):
    ds = generate_dataset(DatasetConfig(n_samples=30, seed=2))
    tr, va, te = split_dataset(ds, seed=2)
    set_recipe(monkeypatch, 3)
    model, norm, _ = train_on_dataset(tr, va, te, seed=2)
    path = tmp_path / "model.json"
    save_model(path, model, norm, ann.recipe_fingerprint(2))
    assert json.loads(path.read_text())["target_transform"] == "log"
    model2, norm2 = load_model(path)
    np.testing.assert_array_equal(model2.flat_weights(), model.flat_weights())
    x = tr.inputs[0]
    np.testing.assert_array_equal(
        norm2.inverse_y(forward(model2, norm2.transform_x(x))),
        norm.inverse_y(forward(model, norm.transform_x(x))))

