"""Decomposition-linear forecaster, training loop, and metrics.

The model splits the look-back into a moving-average trend and the
remainder, maps each through its own h-by-b linear layer (shared across
channels), and sums the two predictions. Both heads are linear in the
look-back, so they are applied as one effective linear map: one matmul
per forward pass and one per gradient. Training is plain minibatch
gradient descent with adaptive-moment updates on one flat vector that
holds all four parameters, early stopping on validation loss, and
optional batch-wise augmentation: the configured batch is halved, one
augment.expand_dataset call adds a copy of each half-batch window, with
mixing partners drawn from the whole training set, and the model trains
on the doubled batch. Every window set is one dataset.Windows array:
each step gathers its windows with one fancy index and passes views of
that batch. Validation and test sets are scored block by block through
two buffers allocated once per pass, so the memory scoring takes
follows the block, not the set.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .augment import AugmentSpec, expand_dataset
from .dataset import check_count

CHECKPOINT_MAGIC = "FRAUG-DLINEAR-v1"
# Window-channel rows per scoring block: a block holds max(1, rows // C) windows.
SCORE_BLOCK_ROWS = 512


def moving_average_matrix(b, kernel):
    """(b, b) operator: centered moving average with replicate padding."""
    check_count("kernel", kernel, 1)
    pad_front = (kernel - 1) // 2
    rows = np.repeat(np.arange(b), kernel)
    src = np.clip(rows - pad_front + np.tile(np.arange(kernel), b), 0, b - 1)
    a = np.zeros((b, b))
    # Unbuffered and in index order: the same sums, in the same order, as
    # adding 1/kernel at (t, src) for t, then j = 0..kernel-1.
    np.add.at(a, (rows, src), 1.0 / kernel)
    return a


def _predict(rows, w, c, out=None):
    """rows (m, b) -> rows @ w.T + c, (m, h), written into ``out`` if given."""
    out = np.matmul(rows, w.T, out=out)
    out += c
    return out


class _FlatParams(dict):
    """{name: view} of the four parameters, all views of one vector ``flat``.

    The layout is w_trend (h, b), w_seasonal (h, b), b_trend (h,),
    b_seasonal (h,). Model parameters and gradients share it, so one
    elementwise pass over ``flat`` updates all four.
    """

    def __init__(self, b, h, alloc=np.zeros):
        hb = h * b
        self.flat = alloc(2 * hb + 2 * h)
        super().__init__(
            w_trend=self.flat[:hb].reshape(h, b),
            w_seasonal=self.flat[hb:2 * hb].reshape(h, b),
            b_trend=self.flat[2 * hb:2 * hb + h],
            b_seasonal=self.flat[2 * hb + h:],
        )


@dataclass(eq=False)
class DLinearModel:
    """DLinear forecaster; the four parameters are views of one flat vector.

    Arrays passed in are copied into that vector. Write to a parameter in
    place (``model.w_trend[...] = w`` or ``model.params().flat[...] = v``);
    rebinding the attribute detaches it from the vector that training
    updates.
    """

    b: int
    h: int
    kernel: int = 25
    w_trend: np.ndarray = None
    w_seasonal: np.ndarray = None
    b_trend: np.ndarray = None
    b_seasonal: np.ndarray = None

    def __post_init__(self):
        for name in ("b", "h", "kernel"):
            check_count(name, getattr(self, name), 1)
        self._params = _FlatParams(self.b, self.h)
        for name, view in self._params.items():
            given = getattr(self, name)
            if given is not None:
                if np.shape(given) != view.shape:
                    raise ValueError(f"{name} has shape {np.shape(given)}, "
                                     f"expected {view.shape}")
                view[...] = given
            setattr(self, name, view)
        self._ma = moving_average_matrix(self.b, self.kernel)

    @classmethod
    def init_random(cls, b, h, kernel=25, seed=0):
        """Uniform [-1/b, 1/b] weight initialization, drawn in parameter order."""
        check_count("seed", seed, 0)
        model = cls(b=b, h=h, kernel=kernel)
        rng = np.random.default_rng(seed)
        scale = 1.0 / b
        for view in model.params().values():
            view[...] = rng.uniform(-scale, scale, size=view.shape)
        return model

    def params(self):
        """{name: array} of the parameters, views of the flat vector ``params().flat``."""
        return self._params

    def effective_map(self):
        """(W, c) such that the two heads' summed prediction is lookback @ W.T + c.

        With A the moving-average matrix, the trend is lookback @ A.T, so
        W = w_seasonal + (w_trend - w_seasonal) A and c = b_trend +
        b_seasonal. Computed from the current parameters on every call.
        """
        w = self.w_seasonal + (self.w_trend - self.w_seasonal) @ self._ma
        return w, self.b_trend + self.b_seasonal

    def _rows(self, lookback):
        """(..., b) look-back -> (rows, b) matrix, one row per window channel."""
        if lookback.shape[-1] != self.b:
            raise ValueError(
                f"look-back length {lookback.shape[-1]} != model b {self.b}"
            )
        return lookback.reshape(-1, self.b)

    def forward_batch(self, lookback):
        """lookback (n, C, b) -> predictions (n, C, h)."""
        pred = _predict(self._rows(lookback), *self.effective_map())
        return pred.reshape(*lookback.shape[:-1], self.h)

    def save(self, path):
        doc = {
            "magic": CHECKPOINT_MAGIC,
            "b": self.b, "h": self.h, "kernel": self.kernel,
            **{k: v.tolist() for k, v in self.params().items()},
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))

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
        for name in ("b", "h", "kernel"):
            check_count(f"{path}: {name}", doc[name], 1)
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


@dataclass
class TrainConfig:
    learning_rate: float = 5e-3
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        for name, least in (("batch_size", 1), ("max_epochs", 0), ("patience", 1),
                            ("seed", 0)):
            check_count(name, getattr(self, name), least)
        # Written as not (...) so NaN fails too.
        if isinstance(self.learning_rate, bool) or not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")


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
    samples, channels, and horizon steps. The gradients are views of one
    flat vector, ``grads.flat``, laid out like ``model.params().flat``.

    With X the look-back rows and G = dpred.T @ X, the trend input is
    X A.T and the seasonal input X - X A.T, so d w_trend = G A.T and
    d w_seasonal = G - d w_trend.
    """
    x = model._rows(lookback)
    # In-place steps: fresh (rows, h) temporaries cost more than the arithmetic.
    err = _predict(x, *model.effective_map())
    err -= target.reshape(-1, model.h)
    # np.mean's sum and division without its wrapper; the square is a
    # temporary, so the arrays below can reuse its memory.
    loss = float(np.add.reduce(err * err, axis=None) / err.size)
    dpred = err
    dpred *= 2.0
    dpred /= dpred.size
    g = dpred.T @ x
    # Every block is written below, so the vector need not be zeroed.
    grads = _FlatParams(model.b, model.h, np.empty)
    np.matmul(g, model._ma.T, out=grads["w_trend"])
    np.subtract(g, grads["w_trend"], out=grads["w_seasonal"])
    np.add.reduce(dpred, axis=0, out=grads["b_trend"])
    grads["b_seasonal"][...] = grads["b_trend"]
    return loss, grads


class _Adam:
    """Adam over one flat parameter vector, updated in place."""

    # Adam's published defaults for the moment decays and epsilon.
    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, g):
        """params -= lr * m_hat / (sqrt(v_hat) + eps), evaluated in place.

        Each operation rounds as in that expression, so the result is
        bit-identical to it.
        """
        self.t += 1
        m, v = self.m, self.v
        m *= self.b1
        m += (1 - self.b1) * g
        v *= self.b2
        v += (1 - self.b2) * g * g
        update = m / (1 - self.b1 ** self.t)
        update *= self.lr
        denom = v / (1 - self.b2 ** self.t)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        self.params -= update


def train(model, train_samples, val_samples, cfg: TrainConfig,
          aug: AugmentSpec | None = None):
    """Fit the model; returns (model, TrainingTrace).

    With augmentation, each step takes floor(batch_size / 2) originals
    (at least one) plus one augmented copy of each, so a full augmented
    step has 2 * floor(batch_size / 2) windows, not batch_size. Early
    stopping restores the best-validation parameters. Both sets are
    dataset.Windows; validation is scored in blocks.
    """
    if not train_samples or not val_samples:
        raise ValueError("train and validation sets must be non-empty")
    _check_horizon(model, train_samples, val_samples)
    augmenting = aug is not None and aug.kind != "none"
    rng = np.random.default_rng(cfg.seed)
    params = model.params().flat
    opt = _Adam(params, cfg.learning_rate)
    trace = TrainingTrace()
    best = params.copy()
    best_val = np.inf
    bad_epochs = 0
    step_size = max(1, cfg.batch_size // 2 if augmenting else cfg.batch_size)

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_samples))
        epoch_losses = []
        for lo in range(0, len(order), step_size):
            batch = train_samples[order[lo: lo + step_size]]
            if augmenting:
                batch = expand_dataset(batch, aug, 2, rng, pool=train_samples)
            loss, grads = loss_and_grads(model, batch.lookback, batch.horizon)
            if not math.isfinite(loss):
                raise FloatingPointError(f"divergence at epoch {epoch}")
            epoch_losses.append(loss)
            opt.step(grads.flat)
        val_loss = _score(model, val_samples)[0]
        if not np.isfinite(val_loss):
            raise FloatingPointError(f"divergence at epoch {epoch}")
        trace.train_loss.append(float(np.mean(epoch_losses)))
        trace.val_loss.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best = params.copy()
            trace.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    params[...] = best
    return model, trace


def _check_horizon(model, *sets):
    """Raise ValueError if a Windows set's horizons are not model.h long."""
    for samples in sets:
        h = samples.horizon.shape[-1]
        if h != model.h:
            raise ValueError(f"horizon length {h} != model h {model.h}")


def _score(model, samples, with_mae=False):
    """(MSE, MAE or None) over a Windows set, SCORE_BLOCK_ROWS rows at a time.

    The effective map is formed once per call, and a look-back buffer
    and a residual buffer are allocated once per call, at one block's
    size: each block is copied into the first and predicted into the
    second, so the loop allocates no block-sized array. For MAE the
    residual is made absolute in place before it is squared, since
    |e| * |e| rounds exactly as e * e. Sums with np.add.reduce, as
    np.mean does, so a set that fits in one block scores bit-identically
    to the mean over the whole set.
    """
    n, c = samples.lookback.shape[:2]
    k = min(max(1, SCORE_BLOCK_ROWS // c), n)
    w, bias = model.effective_map()
    look = np.empty((k,) + samples.lookback.shape[1:])
    res = np.empty((k, c, model.h))
    sq = ab = 0.0
    for lo in range(0, n, k):
        m = min(k, n - lo)
        np.copyto(look[:m], samples.lookback[lo:lo + m])
        err = res[:m]
        _predict(model._rows(look[:m]), w, bias, out=err.reshape(-1, model.h))
        err -= samples.horizon[lo:lo + m]
        if with_mae:
            ab += np.add.reduce(np.abs(err, out=err), axis=None)
        err *= err
        sq += np.add.reduce(err, axis=None)
    size = n * c * model.h
    return float(sq / size), float(ab / size) if with_mae else None


def evaluate(model, samples) -> Metrics:
    """Mean squared / absolute error over all samples, channels, steps.

    samples is a dataset.Windows set; it is scored block by block and
    its horizons are read in place, never copied.
    """
    if not samples:
        raise ValueError("empty sample set")
    _check_horizon(model, samples)
    mse, mae = _score(model, samples, with_mae=True)
    return Metrics(mse=mse, mae=mae, n_samples=len(samples))
