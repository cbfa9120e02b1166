"""From-scratch MLP and Levenberg-Marquardt trainer for impedance estimation.

The production network is 200 -> 8 -> 2 (tansig hidden, linear output),
mapping one cycle of sampled PCC voltage and current (100 + 100 points at
200 us) to (R_g, L_g).  Inputs and log targets are z-scored with statistics
fitted on the training split only.  Training is full-batch LM with the
standard accept/reject damping schedule and validation-check early
stopping.  The whole recipe is module constants (N_HIDDEN, MAX_EPOCHS,
GOAL_MSE, the MU_* schedule and VAL_PATIENCE), hashed with the seed by
`recipe_fingerprint`.  `lm_step` and `train` take the same damped step,
over the one forward pass that `forward` and `error_jacobian` share.
`train` takes that step in the span of its training inputs: one cycle of
two sinusoids has rank 4, so its epochs solve for 58 weights rather than
1626, with the same iterates.  Full-rank (noisy) inputs train the same way,
in a rotated basis of all 200 input coordinates.

Only LM training factorizes a matrix, so `scipy.linalg` is imported on first
use: `cho_factor` and `cho_solve` are module attributes that a module-level
`__getattr__` binds from it when first read.  Commands that never train
(simulation, estimation, gain design, evaluation) start without scipy.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import rk4
from .grid import OMEGA0_DEFAULT, S_RATED, V_G, operating_points, scr_to_impedance
from .tables import read_json, read_table, write_table

MODEL_FILE_VERSION = 1

# The estimator input: one fundamental cycle (20 ms at 50 Hz) of PCC voltage
# and current, WINDOW_LEN samples of each at SAMPLE_DT.  The dataset, both
# estimators and the simulator's sampling all read these two constants.
WINDOW_LEN = 100
SAMPLE_DT = 200e-6

_module = sys.modules[__name__]


def __getattr__(name: str):
    """`cho_factor` and `cho_solve`, bound from `scipy.linalg` when first read."""
    if name not in ("cho_factor", "cho_solve"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg import cho_factor, cho_solve
    globals().update(cho_factor=cho_factor, cho_solve=cho_solve)
    return globals()[name]


class TrainingFailureError(RuntimeError):
    """Training diverged."""


class NormalizationError(ValueError):
    """A feature or target has zero variance on the fit split."""


_ACTIVATIONS = {
    # tansig, 2/(1+exp(-2x)) - 1, is tanh; its derivative in terms of the output
    "tansig": (np.tanh, lambda a: 1.0 - a * a),
    "linear": (lambda x: x, lambda a: np.ones_like(a)),
}


@dataclass
class MlpModel:
    """Single-hidden-layer perceptron, linear output layer; weights are float64 arrays."""

    w1: np.ndarray  # (hidden, inputs)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (outputs, hidden)
    b2: np.ndarray  # (outputs,)
    hidden_activation: str = "tansig"

    def __post_init__(self) -> None:
        self.w1 = np.asarray(self.w1, dtype=float)
        self.b1 = np.asarray(self.b1, dtype=float)
        self.w2 = np.asarray(self.w2, dtype=float)
        self.b2 = np.asarray(self.b2, dtype=float)
        h, n_in = self.w1.shape
        n_out = self.w2.shape[0]
        if self.b1.shape != (h,) or self.w2.shape != (n_out, h) or self.b2.shape != (n_out,):
            raise ValueError("inconsistent weight dimensions")
        if self.hidden_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.hidden_activation!r}")

    @property
    def n_params(self) -> int:
        return self.w1.size + self.b1.size + self.w2.size + self.b2.size

    def flat_weights(self) -> np.ndarray:
        return np.concatenate([self.w1.ravel(), self.b1, self.w2.ravel(), self.b2])

    def with_flat_weights(self, w: np.ndarray) -> "MlpModel":
        i = 0
        parts = []
        for arr in (self.w1, self.b1, self.w2, self.b2):
            parts.append(w[i:i + arr.size].reshape(arr.shape))
            i += arr.size
        return MlpModel(*parts, self.hidden_activation)


def init_model(n_in: int, n_hidden: int, n_out: int, seed: int,
               hidden_activation: str = "tansig") -> MlpModel:
    """Seeded uniform init in [-0.5, 0.5] scaled by 1/sqrt(fan_in)."""
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-0.5, 0.5, (n_hidden, n_in)) / math.sqrt(n_in)
    b1 = rng.uniform(-0.5, 0.5, n_hidden)
    w2 = rng.uniform(-0.5, 0.5, (n_out, n_hidden)) / math.sqrt(n_hidden)
    b2 = rng.uniform(-0.5, 0.5, n_out)
    return MlpModel(w1, b1, w2, b2, hidden_activation=hidden_activation)


def _layers(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations (N, H) and outputs (N, K) for an (N, n_in) batch."""
    a1 = _ACTIVATIONS[model.hidden_activation][0](x @ model.w1.T + model.b1)
    return a1, a1 @ model.w2.T + model.b2


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network output for a single input vector or an (N, n_in) batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if xb.shape[1] != model.w1.shape[1]:
        raise ValueError(f"expected {model.w1.shape[1]} inputs, got {xb.shape[1]}")
    out = _layers(model, xb)[1]
    return out[0] if single else out


def error_jacobian(model: MlpModel, x: np.ndarray, y: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Residual Jacobian for a batch, by reverse-mode accumulation.

    Returns (J, e) with one row per (sample, output) residual, sample-major,
    and columns ordered [w1 row-major, b1, w2 row-major, b2].
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    n, n_in = x.shape
    h = model.w1.shape[0]
    k = model.w2.shape[0]
    a1, out = _layers(model, x)
    g1 = _ACTIVATIONS[model.hidden_activation][1](a1)   # (N, H)
    e = (out - y).reshape(n * k)
    # sensitivity of output k to hidden pre-activation j: W2[k,j]*g1[n,j]
    s = model.w2[None, :, :] * g1[:, None, :]   # (N, K, H)
    j_w1 = (s[:, :, :, None] * x[:, None, None, :]).reshape(n * k, h * n_in)
    j_b1 = s.reshape(n * k, h)
    # output k depends on row k of W2 and on b2[k] only, each with unit slope
    eye = np.eye(k)
    j_w2 = (eye[None, :, :, None] * a1[:, None, None, :]).reshape(n * k, k * h)
    j_b2 = np.tile(eye, (n, 1))
    return np.hstack([j_w1, j_b1, j_w2, j_b2]), e


def _accumulate_normal_equations(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """(J^T J, J^T e) accumulated over 512-sample chunks in a fixed order."""
    chunk = 512
    n_params = model.n_params
    g = np.zeros((n_params, n_params))
    v = np.zeros(n_params)
    for lo in range(0, x.shape[0], chunk):
        j, e = error_jacobian(model, x[lo:lo + chunk], y[lo:lo + chunk])
        g += j.T @ j
        v += j.T @ e
    return g, v


def _damped_step(model: MlpModel, g: np.ndarray, v: np.ndarray, mu: float) -> MlpModel:
    """The model at w - (g + mu I)^-1 v; raises LinAlgError if g + mu I is not SPD.

    The Cholesky pair is read off the module at each call, so a wrapper bound
    as `ann.cho_factor` or `ann.cho_solve` sees every factorization.
    """
    gd = g.copy()
    gd[np.diag_indices_from(gd)] += mu
    delta = _module.cho_solve(_module.cho_factor(gd, lower=True), v)
    return model.with_flat_weights(model.flat_weights() - delta)


def lm_step(model: MlpModel, x: np.ndarray, y: np.ndarray, mu: float) -> MlpModel:
    """One Levenberg-Marquardt update, the step `train` takes: w -= (J^T J + mu I)^-1 J^T e."""
    if mu <= 0.0:
        raise ValueError(f"mu must be > 0, got {mu}")
    g, v = _accumulate_normal_equations(model, np.atleast_2d(x), np.atleast_2d(y))
    return _damped_step(model, g, v, mu)


# The training recipe of `train`: an N_HIDDEN-unit network, at most MAX_EPOCHS
# epochs, stopping once the training MSE reaches GOAL_MSE.  Damping schedule
# (Hagan & Menhaj, IEEE TNN 1994): x MU_DECREASE after an accepted step,
# x MU_INCREASE after a rejected one, no accepted step by MU_MAX ends training,
# as do VAL_PATIENCE epochs without a new best val MSE.
N_HIDDEN = 8
MAX_EPOCHS = 500
GOAL_MSE = 1e-5
MU_INIT = 1e-6
MU_DECREASE = 0.1
MU_INCREASE = 10.0
MU_MAX = 1e10
VAL_PATIENCE = 6


def recipe_fingerprint(seed: int) -> str:
    """Hash of the whole training recipe: the seed and the constants above."""
    recipe = dict(max_epochs=MAX_EPOCHS, goal_mse=GOAL_MSE, seed=seed, n_hidden=N_HIDDEN,
                  mu_init=MU_INIT, mu_decrease=MU_DECREASE, mu_increase=MU_INCREASE,
                  mu_max=MU_MAX, val_patience=VAL_PATIENCE)
    return hashlib.sha256(json.dumps(recipe, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Normalizer:
    """Per-feature z-score statistics fitted on the training split.

    Targets are log-transformed before z-scoring, so `y_mean` and `y_std`
    are statistics of log(R_g), log(L_g): impedances span nearly a decade
    per unit of SCR, and the log geometry extrapolates far better to grids
    outside the training range.
    """

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    def __post_init__(self) -> None:
        for s in (self.x_std, self.y_std):
            if np.any(np.asarray(s) <= 0):
                raise NormalizationError("standard deviations must be > 0")

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray) -> "Normalizer":
        if np.any(y <= 0):
            raise NormalizationError("log target transform needs positive targets")
        y = np.log(y)
        x_mean, x_std = x.mean(axis=0), x.std(axis=0)
        y_mean, y_std = y.mean(axis=0), y.std(axis=0)
        # essentially-constant columns make z-scores explode
        if (np.any(x_std <= 1e-12 * np.maximum(np.abs(x_mean), 1.0))
                or np.any(y_std <= 1e-12 * np.maximum(np.abs(y_mean), 1.0))):
            raise NormalizationError("constant feature or target on the fit split")
        return cls(x_mean, x_std, y_mean, y_std)

    def transform_x(self, x: np.ndarray) -> np.ndarray:
        return (x - self.x_mean) / self.x_std

    def transform_y(self, y: np.ndarray) -> np.ndarray:
        return (np.log(y) - self.y_mean) / self.y_std

    def inverse_y(self, yn: np.ndarray) -> np.ndarray:
        return np.exp(yn * self.y_std + self.y_mean)


@dataclass
class Dataset:
    """Waveform windows and impedance targets, with generation metadata."""

    inputs: np.ndarray    # (N, 2 * WINDOW_LEN): voltage then current samples
    targets: np.ndarray   # (N, 2): R_g [ohm], L_g [H]
    scr: np.ndarray       # (N,)
    xr_ratio: np.ndarray  # (N,)
    p_ref: np.ndarray     # (N,)
    q_ref: np.ndarray     # (N,)
    t0: np.ndarray        # (N,) window start phase time, s

    def __post_init__(self) -> None:
        n = self.inputs.shape[0]
        for name in ("targets", "scr", "xr_ratio", "p_ref", "q_ref", "t0"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"field {name} length mismatch")
        if not np.all(np.isfinite(self.inputs)) or not np.all(np.isfinite(self.targets)):
            raise ValueError("dataset contains non-finite entries")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[idx], self.targets[idx], self.scr[idx],
                       self.xr_ratio[idx], self.p_ref[idx], self.q_ref[idx], self.t0[idx])


# The training grids and operating points: SCR and X/R drawn from these values,
# P and Q uniform over these fractions of S_RATED, on a V_G grid at 50 Hz.
DATASET_SCR_VALUES = (2.0, 4.5, 7.0, 9.5, 15.0)
DATASET_XR_VALUES = (5.0,)
DATASET_P_FRAC_RANGE = (0.2, 0.8)
DATASET_Q_FRAC_RANGE = (0.0, 0.4)


@dataclass(frozen=True)
class DatasetConfig:
    n_samples: int = 5000
    noise_std: float = 0.0   # additive Gaussian, volts/amps
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")


def generate_dataset(cfg: DatasetConfig) -> Dataset:
    """Steady-state windows over randomized SCR and operating point, each
    starting at t0 = SAMPLE_DT, on the cycle grid every online window opens on.
    The samples are the simulator's: `rk4.c` synthesizes both."""
    if cfg.n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_samples
    draws = np.empty((n, 4))    # SCR, X/R, P, Q of each window
    phasors = np.empty((n, 4))  # delta, V_pcc, R_g, X_g of each window
    targets = np.empty((n, 2))
    noise = np.empty((n, 2 * WINDOW_LEN)) if cfg.noise_std > 0.0 else None
    todo = np.arange(n)
    while todo.size:  # draw in window order, then redraw the windows with no operating point
        for i in todo.tolist():
            draws[i] = (rng.choice(DATASET_SCR_VALUES), rng.choice(DATASET_XR_VALUES),
                        rng.uniform(*DATASET_P_FRAC_RANGE) * S_RATED,
                        rng.uniform(*DATASET_Q_FRAC_RANGE) * S_RATED)
            z = scr_to_impedance(*draws[i, :2].tolist())
            phasors[i, 2:], targets[i] = (z.r_g, z.x_g), (z.r_g, z.l_g)
            if noise is not None:  # voltage then current noise
                noise[i] = rng.normal(0.0, cfg.noise_std, 2 * WINDOW_LEN)
        delta, v = operating_points(*draws[todo, 2:].T, *phasors[todo, 2:].T)
        phasors[todo, 0], phasors[todo, 1] = delta, v
        todo = todo[np.isnan(v)]
    t = SAMPLE_DT + np.arange(WINDOW_LEN) * SAMPLE_DT
    inputs = np.empty((n, 2 * WINDOW_LEN))
    rk4.library().vsg_window_waveforms(n, WINDOW_LEN, t.ctypes.data, phasors.ctypes.data,
                                       OMEGA0_DEFAULT, V_G, inputs.ctypes.data)
    if noise is not None:
        inputs += noise
    return Dataset(inputs, targets, *draws.T, np.full(n, SAMPLE_DT))


def split_dataset(ds: Dataset, seed: int = 0) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle, then contiguous 70/15/15 % train/val/test split."""
    n = len(ds)
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(round(0.7 * n))
    n_val = int(round(0.15 * n))
    if n_train == 0 or n_val == 0 or n - n_train - n_val == 0:
        raise ValueError("a split would be empty")
    return (ds.take(perm[:n_train]), ds.take(perm[n_train:n_train + n_val]),
            ds.take(perm[n_train + n_val:]))


@dataclass
class TrainReport:
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    test_mse: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    mu: list[float] = field(default_factory=list)
    val_checks: list[int] = field(default_factory=list)
    stop_reason: str = ""
    epochs_run: int = 0
    input_rank: int = 0   # input directions LM trained in: the rank of the training inputs
    # populated at the end of training
    hist_bin_edges: np.ndarray | None = None
    hist_counts: dict[str, np.ndarray] = field(default_factory=dict)
    regression: dict[str, tuple[float, float, float]] = field(default_factory=dict)  # slope, intercept, r
    scatter: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def _mse(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    e = forward(model, x) - y
    return float(np.mean(e * e))


def _finalize_report(report: TrainReport, model: MlpModel,
                     splits: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    """Error histogram (20 bins shared by all splits), regression fits and scatter."""
    preds = {name: forward(model, x) for name, (x, _) in splits.items()}
    errors = {name: (preds[name] - y).ravel() for name, (_, y) in splits.items()}
    all_err = np.concatenate(list(errors.values()))
    edges = np.histogram_bin_edges(all_err, bins=20)
    report.hist_bin_edges = edges
    for name, (_, y) in splits.items():
        report.hist_counts[name] = np.histogram(errors[name], bins=edges)[0]
        t = y.ravel()
        p = preds[name].ravel()
        slope, intercept = np.polyfit(t, p, 1)
        r = float(np.corrcoef(t, p)[0, 1])
        report.regression[name] = (float(slope), float(intercept), r)
        report.scatter[name] = (t, p)


def _input_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis (n_in, rank) of the row space of `x`; square at full rank.

    The rank is numpy's `matrix_rank` default: singular values above
    s_1 * max(N, n_in) * eps.
    """
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(x.shape) * np.finfo(float).eps))
    return vt[:rank].T


def train(train_split: tuple[np.ndarray, np.ndarray],
          val_split: tuple[np.ndarray, np.ndarray],
          test_split: tuple[np.ndarray, np.ndarray],
          seed: int = 0) -> tuple[MlpModel, TrainReport]:
    """Full-batch LM training on already-normalized splits, from the initial
    weights :func:`init_model` draws with `seed`.

    Callers normalize with a :class:`Normalizer` fitted on the training
    split; :func:`train_on_dataset` wraps both steps.

    LM moves W1 only inside the row space of the training inputs, so the
    epochs run on the inputs projected onto an orthonormal basis q of that
    space, with W1 q in place of W1; at full rank q is a rotation of all the
    input coordinates.  The damping term is the same in both coordinates,
    so the iterates are the full-space ones; the returned W1 is the seed
    plus the reduced step lifted by q^T.  The validation and test splits
    need not lie in that span, so they are scored each epoch with the
    lifted model in their own coordinates.
    """
    for name, (x, y) in (("train", train_split), ("val", val_split), ("test", test_split)):
        if np.atleast_2d(x).shape[0] == 0:
            raise ValueError(f"{name} split is empty")
    x_tr, y_tr = (np.atleast_2d(a) for a in train_split)
    model = init_model(x_tr.shape[1], N_HIDDEN, y_tr.shape[1], seed)
    splits = {"train": (x_tr, y_tr),
              "val": tuple(np.atleast_2d(a) for a in val_split),
              "test": tuple(np.atleast_2d(a) for a in test_split)}
    seed_w1 = model.w1
    q = _input_basis(x_tr)
    seed_q = seed_w1 @ q
    model = replace(model, w1=seed_q)
    x_tr = x_tr @ q
    lift = lambda m: replace(m, w1=seed_w1 + (m.w1 - seed_q) @ q.T)
    report = TrainReport(input_rank=model.w1.shape[1])
    mu = MU_INIT
    mse = _mse(model, x_tr, y_tr)
    best_val = math.inf
    val_checks = 0
    n_res = x_tr.shape[0] * y_tr.shape[1]

    for epoch in range(MAX_EPOCHS):
        g, v = _accumulate_normal_equations(model, x_tr, y_tr)
        grad_norm = float(np.linalg.norm(2.0 * v / n_res))
        accepted = False
        while mu <= MU_MAX:
            try:
                candidate = _damped_step(model, g, v, mu)
            except np.linalg.LinAlgError:
                mu *= MU_INCREASE
                continue
            cand_mse = _mse(candidate, x_tr, y_tr)
            if cand_mse < mse:  # a NaN or inf candidate MSE never compares below
                model, mse = candidate, cand_mse
                mu = max(mu * MU_DECREASE, 1e-20)
                accepted = True
                break
            mu *= MU_INCREASE
        if not math.isfinite(mse):
            raise TrainingFailureError("training loss diverged")

        lifted = lift(model)
        vmse = _mse(lifted, *splits["val"])
        if vmse < best_val:
            best_val = vmse
            val_checks = 0
        else:
            val_checks += 1
        report.train_mse.append(mse)
        report.val_mse.append(vmse)
        report.test_mse.append(_mse(lifted, *splits["test"]))
        report.grad_norm.append(grad_norm)
        report.mu.append(mu)
        report.val_checks.append(val_checks)
        report.epochs_run = epoch + 1

        if mse <= GOAL_MSE:
            report.stop_reason = "goal"
            break
        if not accepted:
            report.stop_reason = "mu_ceiling"
            break
        if val_checks >= VAL_PATIENCE:
            report.stop_reason = "val_patience"
            break
    else:
        report.stop_reason = "max_epochs"
    model = lift(model)
    _finalize_report(report, model, splits)
    return model, report


def train_on_dataset(ds_train: Dataset, ds_val: Dataset, ds_test: Dataset,
                     seed: int = 0) -> tuple[MlpModel, Normalizer, TrainReport]:
    """Fit the normalizer (log targets) on the training split, z-score, and train."""
    # import scipy.linalg now, before the z-scored copies of the splits exist,
    # so its one-time allocations do not land on training's peak memory
    _module.cho_factor
    norm = Normalizer.fit(ds_train.inputs, ds_train.targets)
    mk = lambda d: (norm.transform_x(d.inputs), norm.transform_y(d.targets))
    model, report = train(mk(ds_train), mk(ds_val), mk(ds_test), seed)
    return model, norm, report


# header of a dataset CSV: voltage and current windows, targets, metadata
DATASET_COLUMNS = tuple([f"v_{j:03d}" for j in range(WINDOW_LEN)]
                        + [f"i_{j:03d}" for j in range(WINDOW_LEN)]
                        + ["r_g", "l_g", "scr", "xr_ratio", "p_ref", "q_ref", "t0"])


def save_dataset_csv(path: str | Path, ds: Dataset) -> None:
    write_table(path, DATASET_COLUMNS, [*ds.inputs.T, *ds.targets.T, ds.scr, ds.xr_ratio,
                                        ds.p_ref, ds.q_ref, ds.t0])


def load_dataset_csv(path: str | Path) -> Dataset:
    data = read_table(path, DATASET_COLUMNS)
    k = 2 * WINDOW_LEN
    return Dataset(inputs=data[:, :k], targets=data[:, k:k + 2],
                   scr=data[:, k + 2], xr_ratio=data[:, k + 3],
                   p_ref=data[:, k + 4], q_ref=data[:, k + 5], t0=data[:, k + 6])


# ---------------------------------------------------------------------------
# Persistence and diagnostics export
# ---------------------------------------------------------------------------

def save_model(path: str | Path, model: MlpModel, norm: Normalizer,
               config_fingerprint: str = "") -> None:
    doc = {
        "version": MODEL_FILE_VERSION,
        "dims": [model.w1.shape[1], model.w1.shape[0], model.w2.shape[0]],
        "hidden_activation": model.hidden_activation,
        "output_activation": "linear",
        "w1": model.w1.ravel().tolist(),
        "b1": model.b1.tolist(),
        "w2": model.w2.ravel().tolist(),
        "b2": model.b2.tolist(),
        "x_mean": norm.x_mean.tolist(),
        "x_std": norm.x_std.tolist(),
        "y_mean": norm.y_mean.tolist(),
        "y_std": norm.y_std.tolist(),
        "target_transform": "log",
        "train_config_fingerprint": config_fingerprint,
    }
    Path(path).write_text(json.dumps(doc))


def load_model(path: str | Path) -> tuple[MlpModel, Normalizer]:
    """What `save_model` wrote; ValueError names the file when it is not UTF-8 JSON, and
    a missing key, a document that is not an object, `dims` that are not three positive
    integers, another version, target transform or output activation, or the first
    array not finite (JSON's NaN and Infinity) or not of the length `dims` give."""
    doc = read_json(path)
    if type(doc) is not dict:
        raise ValueError(f"model file must be an object, got {type(doc).__name__}")
    try:
        if type(doc["version"]) is not int or doc["version"] != MODEL_FILE_VERSION:
            raise ValueError(f"unsupported model file version {doc['version']!r}")
        for key, value in (("target_transform", "log"), ("output_activation", "linear")):
            if doc[key] != value:
                raise ValueError(f"unsupported {key} {doc[key]!r}")
        dims = doc["dims"]
        if not (type(dims) is list and len(dims) == 3
                and all(type(d) is int and d > 0 for d in dims)):
            raise ValueError(f"model file dims must be three positive integers, got {dims!r}")
        n_in, h, k = dims
        sizes = {"w1": h * n_in, "b1": h, "w2": k * h, "b2": k,
                 "x_mean": n_in, "x_std": n_in, "y_mean": k, "y_std": k}
        arrays = {}
        for key, size in sizes.items():
            arrays[key] = a = np.array(doc[key], dtype=float)
            bad = a[~np.isfinite(a)]
            if bad.size:
                raise ValueError(f"model file {key} must be finite, got {bad[0]}")
            if a.shape != (size,):
                raise ValueError(f"model file {key} has shape {a.shape}, dims {dims} give {size}")
        model = MlpModel(
            arrays["w1"].reshape(h, n_in), arrays["b1"], arrays["w2"].reshape(k, h),
            arrays["b2"], doc["hidden_activation"])
        norm = Normalizer(arrays["x_mean"], arrays["x_std"], arrays["y_mean"], arrays["y_std"])
    except KeyError as exc:
        raise ValueError(f"model file has no {exc} key") from None
    return model, norm


def export_diagnostics(report: TrainReport, outdir: str | Path) -> list[Path]:
    """Write training-trace, histogram, and regression CSVs; returns paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    edges, hist, scatter = report.hist_bin_edges, report.hist_counts, report.scatter
    tables = {
        "training_trace.csv": (
            ["epoch", "train_mse", "val_mse", "test_mse", "grad_norm", "mu", "val_checks"],
            [np.arange(1, report.epochs_run + 1), report.train_mse, report.val_mse,
             report.test_mse, report.grad_norm, report.mu, report.val_checks]),
        "error_histogram.csv": (
            ["split", "bin_left", "bin_right", "count"],
            [np.repeat(list(hist), len(edges) - 1), np.tile(edges[:-1], len(hist)),
             np.tile(edges[1:], len(hist)), np.concatenate(list(hist.values()))]),
        "regression.csv": (
            ["split", "slope", "intercept", "r"],
            [list(report.regression),
             *np.reshape(list(report.regression.values()), (-1, 3)).T]),
        "regression_scatter.csv": (
            ["split", "target", "prediction"],
            [np.repeat(list(scatter), [len(t) for t, _ in scatter.values()]),
             np.concatenate([t for t, _ in scatter.values()]),
             np.concatenate([pr for _, pr in scatter.values()])]),
    }
    for name, (names, columns) in tables.items():
        write_table(outdir / name, names, columns)
    return [outdir / name for name in tables]
