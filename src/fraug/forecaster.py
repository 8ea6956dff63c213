"""Decomposition-linear forecaster, training loop, and metrics.

The model splits the look-back into a moving-average trend and the
remainder, maps each through its own h-by-b linear layer (shared across
channels), and sums the two predictions. Training is plain minibatch
gradient descent with adaptive-moment updates, early stopping on
validation loss, and optional batch-wise augmentation: the configured
batch is halved, every half-batch sample is augmented once, and the
model trains on the doubled batch.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .augment import AugmentSpec, apply_augment

CHECKPOINT_MAGIC = "FRAUG-DLINEAR-v1"


def moving_average_matrix(b, kernel):
    """(b, b) operator: centered moving average with replicate padding."""
    if kernel < 1:
        raise ValueError("kernel must be >= 1")
    pad_front = (kernel - 1) // 2
    a = np.zeros((b, b))
    for t in range(b):
        for j in range(kernel):
            src = min(max(t - pad_front + j, 0), b - 1)
            a[t, src] += 1.0 / kernel
    return a


@dataclass
class DLinearModel:
    b: int
    h: int
    kernel: int = 25
    w_trend: np.ndarray = None
    w_seasonal: np.ndarray = None
    b_trend: np.ndarray = None
    b_seasonal: np.ndarray = None

    def __post_init__(self):
        if self.w_trend is None:
            self.w_trend = np.zeros((self.h, self.b))
        if self.w_seasonal is None:
            self.w_seasonal = np.zeros((self.h, self.b))
        if self.b_trend is None:
            self.b_trend = np.zeros(self.h)
        if self.b_seasonal is None:
            self.b_seasonal = np.zeros(self.h)
        self._ma = moving_average_matrix(self.b, self.kernel)

    @classmethod
    def init_random(cls, b, h, kernel=25, seed=0):
        """Uniform [-1/b, 1/b] weight initialization."""
        rng = np.random.default_rng(seed)
        scale = 1.0 / b
        return cls(
            b=b, h=h, kernel=kernel,
            w_trend=rng.uniform(-scale, scale, size=(h, b)),
            w_seasonal=rng.uniform(-scale, scale, size=(h, b)),
            b_trend=rng.uniform(-scale, scale, size=h),
            b_seasonal=rng.uniform(-scale, scale, size=h),
        )

    def params(self):
        return {
            "w_trend": self.w_trend, "w_seasonal": self.w_seasonal,
            "b_trend": self.b_trend, "b_seasonal": self.b_seasonal,
        }

    def copy_params(self):
        return {k: v.copy() for k, v in self.params().items()}

    def set_params(self, params):
        for k, v in params.items():
            getattr(self, k)[...] = v

    def forward_batch(self, lookback):
        """lookback (n, C, b) -> predictions (n, C, h)."""
        if lookback.shape[-1] != self.b:
            raise ValueError(
                f"look-back length {lookback.shape[-1]} != model b {self.b}"
            )
        trend = lookback @ self._ma.T
        seasonal = lookback - trend
        return (trend @ self.w_trend.T + self.b_trend
                + seasonal @ self.w_seasonal.T + self.b_seasonal)

    def save(self, path):
        doc = {
            "magic": CHECKPOINT_MAGIC,
            "b": self.b, "h": self.h, "kernel": self.kernel,
            **{k: v.tolist() for k, v in self.params().items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path):
        """Read a checkpoint written by save; a malformed one raises ValueError."""
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("magic") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
        missing = [k for k in ("b", "h", "kernel", "w_trend", "w_seasonal",
                               "b_trend", "b_seasonal") if k not in doc]
        if missing:
            raise ValueError(f"{path}: checkpoint lacks {', '.join(missing)}")
        b, h = doc["b"], doc["h"]
        params = {}
        for name, shape in (("w_trend", (h, b)), ("w_seasonal", (h, b)),
                            ("b_trend", (h,)), ("b_seasonal", (h,))):
            value = np.asarray(doc[name], dtype=np.float64)
            if value.shape != shape:
                raise ValueError(f"{path}: {name} has shape {value.shape}, expected {shape}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{path}: {name} holds a non-finite value")
            params[name] = value
        return cls(b=b, h=h, kernel=doc["kernel"], **params)


def forward(model: DLinearModel, lookback):
    """Single-sample forward: (C, b) -> (C, h)."""
    lookback = np.asarray(lookback, dtype=np.float64)
    if lookback.ndim != 2:
        raise ValueError("lookback must be a (C, b) matrix")
    return model.forward_batch(lookback[None])[0]


@dataclass
class TrainConfig:
    learning_rate: float = 5e-3
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class Metrics:
    mse: float
    mae: float
    n_samples: int


@dataclass
class TrainingTrace:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = -1


def loss_and_grads(model: DLinearModel, lookback, target):
    """MSE loss over a batch plus analytic parameter gradients.

    lookback (n, C, b), target (n, C, h). Loss is the mean over all
    samples, channels, and horizon steps.
    """
    trend = lookback @ model._ma.T
    seasonal = lookback - trend
    pred = (trend @ model.w_trend.T + model.b_trend
            + seasonal @ model.w_seasonal.T + model.b_seasonal)
    err = pred - target
    loss = float(np.mean(err * err))
    dpred = 2.0 * err / err.size
    grads = {
        "w_trend": np.einsum("nch,ncb->hb", dpred, trend),
        "w_seasonal": np.einsum("nch,ncb->hb", dpred, seasonal),
        "b_trend": np.einsum("nch->h", dpred),
        "b_seasonal": np.einsum("nch->h", dpred),
    }
    return loss, grads


class _Adam:
    def __init__(self, params, lr, beta1, beta2, eps):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        for k, g in grads.items():
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            m_hat = self.m[k] / (1 - self.b1 ** self.t)
            v_hat = self.v[k] / (1 - self.b2 ** self.t)
            params[k] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _stack(samples):
    look = np.stack([s.lookback for s in samples])
    hor = np.stack([s.horizon for s in samples])
    return look, hor


def train(model, train_samples, val_samples, cfg: TrainConfig,
          aug: AugmentSpec | None = None):
    """Fit the model; returns (model, TrainingTrace).

    With augmentation, each step takes half a batch of originals and
    augments each sample once, so the effective step size equals the
    configured batch size. Early stopping restores the best-validation
    parameters.
    """
    if not train_samples or not val_samples:
        raise ValueError("train and validation sets must be non-empty")
    augmenting = aug is not None and aug.kind != "none"
    rng = np.random.default_rng(cfg.seed)
    opt = _Adam(model.params(), cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)
    trace = TrainingTrace()
    val_look, val_hor = _stack(val_samples)
    best = model.copy_params()
    best_val = np.inf
    bad_epochs = 0
    step_size = cfg.batch_size // 2 if augmenting else cfg.batch_size
    step_size = max(1, step_size)

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_samples))
        epoch_losses = []
        for lo in range(0, len(order), step_size):
            batch = [train_samples[i] for i in order[lo: lo + step_size]]
            if augmenting:
                batch = batch + [apply_augment(s, aug, rng, pool=train_samples)
                                 for s in batch]
            look, hor = _stack(batch)
            loss, grads = loss_and_grads(model, look, hor)
            if not np.isfinite(loss):
                raise FloatingPointError(f"divergence at epoch {epoch}")
            epoch_losses.append(loss)
            opt.step(model.params(), grads)
        val_pred = model.forward_batch(val_look)
        val_loss = float(np.mean((val_pred - val_hor) ** 2))
        if not np.isfinite(val_loss):
            raise FloatingPointError(f"divergence at epoch {epoch}")
        trace.train_loss.append(float(np.mean(epoch_losses)))
        trace.val_loss.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best = model.copy_params()
            trace.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    model.set_params(best)
    return model, trace


def evaluate(model, samples) -> Metrics:
    """Mean squared / absolute error over all samples, channels, steps."""
    if not samples:
        raise ValueError("empty sample set")
    look, hor = _stack(samples)
    pred = model.forward_batch(look)
    err = pred - hor
    return Metrics(
        mse=float(np.mean(err * err)),
        mae=float(np.mean(np.abs(err))),
        n_samples=len(samples),
    )
