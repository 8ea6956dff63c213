import json
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import fraug.forecaster as fc
from fraug.augment import AugmentSpec, apply_augment
from fraug.dataset import (TimeSeriesDataset, Windows, make_windows,
                           span_windows, split_and_normalize)
from fraug.forecaster import (DLinearModel, Metrics, TrainConfig, _Adam,
                              _FlatParams, evaluate, loss_and_grads,
                              moving_average_matrix, train)
from fraug.spectral import rfft
from fraug.synth import SynthSpec, generate

from conftest import random_windows


def linear_samples(n, c=1, b=4, h=2, slope=2.0, seed=0):
    """Noiseless windows from y_t = slope * t, each from its own random start t."""
    rng = np.random.default_rng(seed)
    t = np.array([rng.uniform(-10, 10) for _ in range(n)])[:, None] + np.arange(b + h)
    data = np.repeat(slope * t[:, None, :], c, axis=1)
    return Windows(data, b, np.arange(n))


def moving_average_loop(b, kernel):
    """Reference: the replicate-padded centered average, one addition at a time."""
    pad_front = (kernel - 1) // 2
    a = np.zeros((b, b))
    for t in range(b):
        for j in range(kernel):
            a[t, min(max(t - pad_front + j, 0), b - 1)] += 1.0 / kernel
    return a


@pytest.mark.parametrize("b,kernel", [(96, 25), (16, 25), (5, 3), (7, 1), (8, 4)])
def test_moving_average_matrix_equals_loop(b, kernel):
    np.testing.assert_array_equal(moving_average_matrix(b, kernel),
                                  moving_average_loop(b, kernel))


class TestForward:
    def test_zero_model_predicts_zero(self):
        model = DLinearModel(b=8, h=4)
        x = np.random.default_rng(0).normal(size=(3, 8))
        out = model.forward_batch(x[None])[0]
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_kernel_one_trend_is_input(self):
        model = DLinearModel.init_random(b=6, h=3, kernel=1, seed=1)
        x = np.random.default_rng(2).normal(size=(2, 6))
        out = model.forward_batch(x[None])[0]
        expected = x @ model.w_trend.T + model.b_trend + model.b_seasonal
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_matrix_oracle(self):
        # Independent dense-matmul oracle coded from the definition.
        model = DLinearModel.init_random(b=10, h=5, kernel=3, seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 10))
        pad = (3 - 1) // 2
        expected = np.empty((4, 5))
        for c in range(4):
            padded = np.concatenate([[x[c, 0]] * pad, x[c], [x[c, -1]] * (3 - 1 - pad)])
            trend = np.array([padded[t: t + 3].mean() for t in range(10)])
            seasonal = x[c] - trend
            expected[c] = (model.w_trend @ trend + model.b_trend
                           + model.w_seasonal @ seasonal + model.b_seasonal)
        np.testing.assert_allclose(model.forward_batch(x[None])[0], expected, atol=1e-12)

    def test_decomposition_identity(self):
        ma = moving_average_matrix(12, 25)
        x = np.random.default_rng(5).normal(size=12)
        trend = ma @ x
        np.testing.assert_allclose(trend + (x - trend), x, atol=1e-15)

    def test_shape_mismatch(self):
        model = DLinearModel(b=8, h=4)
        with pytest.raises(ValueError, match="look-back length"):
            model.forward_batch(np.zeros((2, 9))[None])


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = DLinearModel.init_random(b=8, h=4, seed=seed)
        look = rng.normal(size=(3, 2, 8))
        target = rng.normal(size=(3, 2, 4))
        _, grads = loss_and_grads(model, look, target)
        eps = 1e-5
        for name, grad in grads.items():
            param = getattr(model, name)
            for _ in range(10):
                idx = tuple(rng.integers(0, s) for s in param.shape)
                orig = param[idx]
                param[idx] = orig + eps
                lp, _ = loss_and_grads(model, look, target)
                param[idx] = orig - eps
                lm, _ = loss_and_grads(model, look, target)
                param[idx] = orig
                numeric = (lp - lm) / (2 * eps)
                denom = max(abs(numeric), abs(grad[idx]), 1e-8)
                assert abs(grad[idx] - numeric) / denom < 1e-5


def two_branch_forward(model, lookback):
    """Oracle: the trend and seasonal heads applied separately, then summed."""
    trend = lookback @ model._ma.T
    seasonal = lookback - trend
    return (trend @ model.w_trend.T + model.b_trend
            + seasonal @ model.w_seasonal.T + model.b_seasonal)


def two_branch_loss_and_grads(model, lookback, target):
    """Oracle: per-head gradients by einsum over the trend and seasonal inputs."""
    trend = lookback @ model._ma.T
    seasonal = lookback - trend
    err = two_branch_forward(model, lookback) - target
    dpred = 2.0 * err / err.size
    return float(np.mean(err * err)), {
        "w_trend": np.einsum("nch,ncb->hb", dpred, trend),
        "w_seasonal": np.einsum("nch,ncb->hb", dpred, seasonal),
        "b_trend": np.einsum("nch->h", dpred),
        "b_seasonal": np.einsum("nch->h", dpred),
    }


class PerParameterAdam:
    """Oracle: the Adam update applied to each parameter array separately."""

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


def assert_matches_oracle(actual, desired, rtol=1e-12, err_msg=""):
    """Elementwise rtol, plus rtol times the oracle's largest magnitude as atol.

    The fold sums the same terms in another order, so an entry that
    cancels to near zero keeps an absolute, not a relative, error.
    """
    np.testing.assert_allclose(actual, desired, rtol=rtol,
                               atol=rtol * np.max(np.abs(desired)), err_msg=err_msg)


# (n, C, b, h, kernel): ETT-hourly scale, one channel, identity trend, kernel > b.
FOLD_CASES = [(32, 7, 96, 96, 25), (16, 1, 48, 24, 25), (4, 3, 16, 8, 1), (5, 2, 10, 6, 25)]


class TestEffectiveMap:
    @pytest.mark.parametrize("n,c,b,h,kernel", FOLD_CASES)
    def test_loss_and_grads_match_two_branch_oracle(self, n, c, b, h, kernel):
        rng = np.random.default_rng(b + kernel)
        model = DLinearModel.init_random(b=b, h=h, kernel=kernel, seed=kernel)
        look = rng.normal(size=(n, c, b))
        target = rng.normal(size=(n, c, h))
        loss, grads = loss_and_grads(model, look, target)
        want_loss, want = two_branch_loss_and_grads(model, look, target)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert set(grads) == set(want)
        for name, grad in want.items():
            assert_matches_oracle(grads[name], grad, err_msg=name)

    @pytest.mark.parametrize("n,c,b,h,kernel", FOLD_CASES)
    def test_forward_batch_matches_two_branch_oracle(self, n, c, b, h, kernel):
        rng = np.random.default_rng(b + kernel)
        model = DLinearModel.init_random(b=b, h=h, kernel=kernel, seed=kernel)
        look = rng.normal(size=(n, c, b))
        assert_matches_oracle(model.forward_batch(look), two_branch_forward(model, look))

    def test_flat_adam_equals_per_parameter_update(self):
        b, h = 12, 5
        flat_model = DLinearModel.init_random(b=b, h=h, seed=2)
        params = copy_params(flat_model)
        flat = _Adam(flat_model.params().flat, 1e-2)
        oracle = PerParameterAdam(params, 1e-2, 0.9, 0.999, 1e-8)
        rng = np.random.default_rng(3)
        for _ in range(20):
            grads = _FlatParams(b, h)
            grads.flat[...] = rng.normal(size=grads.flat.size)
            flat.step(grads.flat)
            oracle.step(params, grads)
        for name, value in params.items():
            np.testing.assert_array_equal(getattr(flat_model, name), value)

    def test_parameters_share_one_buffer(self):
        model = DLinearModel.init_random(b=8, h=4, seed=1)
        flat = model.params().flat
        assert flat.size == 2 * 4 * 8 + 2 * 4
        for name in ("w_trend", "w_seasonal", "b_trend", "b_seasonal"):
            assert np.shares_memory(getattr(model, name), flat)
            assert model.params()[name] is getattr(model, name)

    def test_in_place_write_changes_forward(self):
        model = DLinearModel.init_random(b=8, h=4, kernel=3, seed=1)
        look = np.random.default_rng(2).normal(size=(3, 2, 8))
        before = model.forward_batch(look)
        model.w_trend[1, 2] += 0.5
        after = model.forward_batch(look)
        assert not np.allclose(after, before)
        assert_matches_oracle(after, two_branch_forward(model, look))

    def test_flat_snapshot_and_restore_round_trip(self):
        # train snapshots and restores the best parameters this way.
        model = DLinearModel.init_random(b=8, h=4, seed=1)
        other = DLinearModel.init_random(b=8, h=4, seed=2)
        saved = model.params().flat.copy()
        model.params().flat[...] = other.params().flat
        for name, value in other.params().items():
            np.testing.assert_array_equal(getattr(model, name), value)
            assert np.shares_memory(getattr(model, name), model.params().flat)
        model.params().flat[...] = saved
        np.testing.assert_array_equal(model.params().flat, saved)
        assert not np.shares_memory(saved, model.params().flat)
        for name in ("w_trend", "w_seasonal", "b_trend", "b_seasonal"):
            assert model.params()[name] is getattr(model, name)
            assert np.shares_memory(getattr(model, name), model.params().flat)

    def test_save_load_round_trip_keeps_one_buffer(self, tmp_path):
        model = DLinearModel.init_random(b=8, h=4, kernel=5, seed=9)
        model.save(tmp_path / "m.json")
        loaded = DLinearModel.load(tmp_path / "m.json")
        np.testing.assert_array_equal(loaded.params().flat, model.params().flat)
        for name in ("w_trend", "w_seasonal", "b_trend", "b_seasonal"):
            assert np.shares_memory(getattr(loaded, name), loaded.params().flat)
        look = np.random.default_rng(0).normal(size=(2, 3, 8))
        np.testing.assert_array_equal(loaded.forward_batch(look), model.forward_batch(look))

    def test_caller_arrays_not_aliased(self):
        rng = np.random.default_rng(0)
        given = {"w_trend": rng.normal(size=(4, 8)), "w_seasonal": rng.normal(size=(4, 8)),
                 "b_trend": rng.normal(size=4), "b_seasonal": rng.normal(size=4)}
        kept = {k: v.copy() for k, v in given.items()}
        model = DLinearModel(b=8, h=4, **given)
        for name, value in given.items():
            assert not np.shares_memory(getattr(model, name), value)
            np.testing.assert_array_equal(getattr(model, name), value)
            getattr(model, name)[...] += 1.0
            np.testing.assert_array_equal(value, kept[name])

    def test_wrong_parameter_shape_rejected(self):
        with pytest.raises(ValueError, match=r"w_seasonal has shape \(8, 4\), expected \(4, 8\)"):
            DLinearModel(b=8, h=4, w_seasonal=np.zeros((8, 4)))


class TestTrain:
    def _cfg(self, **kw):
        defaults = dict(learning_rate=5e-2, batch_size=8, max_epochs=200,
                        patience=200, seed=0)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_zero_epochs_returns_init(self):
        model = DLinearModel.init_random(b=4, h=2, seed=1)
        before = copy_params(model)
        samples = linear_samples(10)
        model, trace = train(model, samples, samples, self._cfg(max_epochs=0))
        for k, v in before.items():
            np.testing.assert_array_equal(getattr(model, k), v)
        assert trace.train_loss == []

    def test_fits_noiseless_linear_data(self):
        samples = linear_samples(64)
        model = DLinearModel.init_random(b=4, h=2, kernel=3, seed=0)
        model, trace = train(model, samples, samples, self._cfg())
        assert trace.train_loss[-1] < 1e-6

    def test_early_stopping_restores_best(self):
        train_set = random_windows(32, 1, 8, 4, seed=0)
        val_set = random_windows(8, 1, 8, 4, seed=100)
        model = DLinearModel.init_random(b=8, h=4, seed=0)
        cfg = self._cfg(max_epochs=30, patience=3, learning_rate=0.05)
        model, trace = train(model, train_set, val_set, cfg)
        err = model.forward_batch(val_set.lookback) - val_set.horizon
        final_val = float(np.mean(err ** 2))
        assert final_val == pytest.approx(min(trace.val_loss), abs=1e-12)
        assert trace.best_epoch == int(np.argmin(trace.val_loss))

    def test_patience_stops_training(self):
        # Random noise targets: val loss stops improving quickly.
        train_set = random_windows(16, 1, 8, 4, seed=0)
        val_set = random_windows(4, 1, 8, 4, seed=50)
        model = DLinearModel.init_random(b=8, h=4, seed=0)
        cfg = self._cfg(max_epochs=100, patience=2, learning_rate=0.1)
        model, trace = train(model, train_set, val_set, cfg)
        assert len(trace.val_loss) < 100

    def test_seeded_determinism(self):
        samples = linear_samples(32, seed=3)
        traces = []
        for _ in range(2):
            model = DLinearModel.init_random(b=4, h=2, seed=7)
            _, trace = train(model, samples, samples, self._cfg(max_epochs=5))
            traces.append(trace)
        assert traces[0].train_loss == traces[1].train_loss
        assert traces[0].val_loss == traces[1].val_loss

    def test_augmented_step_uses_full_batch(self, monkeypatch):
        import fraug.forecaster as fc

        seen = []
        orig = fc.loss_and_grads

        def spy(model, look, hor):
            seen.append(len(look))
            return orig(model, look, hor)

        monkeypatch.setattr(fc, "loss_and_grads", spy)
        samples = random_windows(32, 1, 16, 8, seed=0)
        model = DLinearModel.init_random(b=16, h=8, seed=0)
        cfg = TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=0)
        train(model, samples, samples[:4], cfg, aug=AugmentSpec(kind="freq_mask", rate=0.2))
        assert set(seen) == {8}  # 4 originals + 4 augmented per step

    def test_empty_sets_rejected(self):
        model = DLinearModel.init_random(b=4, h=2, seed=0)
        with pytest.raises(ValueError):
            train(model, [], linear_samples(2), TrainConfig())

    def test_non_finite_step_loss_raises_before_the_step(self):
        # Errors near 1e200 square to inf; the step that overflows is not applied.
        model = DLinearModel.init_random(b=4, h=2, seed=0)
        before = model.params().flat.copy()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="^divergence at epoch 0$"):
            train(model, linear_samples(8, slope=1e200), linear_samples(4),
                  self._cfg(max_epochs=1))
        np.testing.assert_array_equal(model.params().flat, before)

    def test_non_finite_validation_loss_raises(self):
        # Finite training steps; only the validation errors overflow when squared.
        model = DLinearModel.init_random(b=4, h=2, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="^divergence at epoch 0$"):
            train(model, linear_samples(8), linear_samples(4, slope=1e200),
                  self._cfg(max_epochs=1))


@pytest.mark.parametrize("make", [lambda: DLinearModel.init_random(b=4, h=2),
                                  lambda: rfft(np.arange(6.0))], ids=["model", "spectrum"])
def test_equality_is_identity_and_hash_works(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, a, b}) == 2


def reference_loss_and_grads(model, lookback, target):
    """loss_and_grads as first written: np.mean, np.sum and a zeroed vector."""
    x = model._rows(lookback)
    w, c = model.effective_map()
    err = x @ w.T
    err += c
    err -= target.reshape(-1, model.h)
    loss = float(np.mean(err * err))
    dpred = err
    dpred *= 2.0
    dpred /= dpred.size
    g = dpred.T @ x
    grads = _FlatParams(model.b, model.h)
    np.matmul(g, model._ma.T, out=grads["w_trend"])
    np.subtract(g, grads["w_trend"], out=grads["w_seasonal"])
    np.sum(dpred, axis=0, out=grads["b_trend"])
    grads["b_seasonal"][...] = grads["b_trend"]
    return loss, grads


def copy_params(model):
    """{name: copy} of the model's four parameters, one array each."""
    return {k: v.copy() for k, v in model.params().items()}


def reference_train(model, train_samples, val_samples, cfg, aug=None):
    """train's loop with the step as first written: one fancy index each
    for look-backs and horizons, copies stacked by np.concatenate, the
    reference step, np.isfinite and per-parameter snapshots of the best fit."""
    augmenting = aug is not None and aug.kind != "none"
    rng = np.random.default_rng(cfg.seed)
    opt = _Adam(model.params().flat, cfg.learning_rate)
    trace = fc.TrainingTrace()
    best, best_val, bad_epochs = copy_params(model), np.inf, 0
    step_size = max(1, cfg.batch_size // 2 if augmenting else cfg.batch_size)
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_samples))
        epoch_losses = []
        for lo in range(0, len(order), step_size):
            idx = order[lo: lo + step_size]
            look, hor = train_samples.lookback[idx], train_samples.horizon[idx]
            if augmenting:
                copies = [apply_augment(train_samples[i], aug, rng, pool=train_samples)
                          for i in idx]
                look = np.concatenate([look, [c.lookback for c in copies]])
                hor = np.concatenate([hor, [c.horizon for c in copies]])
            loss, grads = reference_loss_and_grads(model, look, hor)
            assert np.isfinite(loss)
            epoch_losses.append(loss)
            opt.step(grads.flat)
        val_loss = fc._score(model, val_samples)[0]
        trace.train_loss.append(float(np.mean(epoch_losses)))
        trace.val_loss.append(val_loss)
        if val_loss < best_val:
            best, best_val, bad_epochs = copy_params(model), val_loss, 0
            trace.best_epoch = epoch
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    for name, value in best.items():
        getattr(model, name)[...] = value
    return model, trace


class TestStepBits:
    """train's one-gather step gives the reference step's bits."""

    @pytest.mark.parametrize("kind", ["none", "freq_mask", "freq_mix"])
    @pytest.mark.parametrize("n,c,b,h,stride", [(70, 1, 16, 8, 1), (36, 7, 96, 96, 3)],
                             ids=["C1", "C7"])
    def test_train_matches_reference_loop(self, n, c, b, h, stride, kind):
        # Strided read-only views of one series, as make_windows gives them.
        span = stride * n + b + h
        values = np.random.default_rng(1).normal(size=(c, span))
        train_set = span_windows(values, 0, span, b, h, stride)
        assert len(train_set) == n and not train_set.data.flags.c_contiguous
        val_set = random_windows(12, c, b, h, seed=2)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=4, patience=2, seed=5)
        aug = AugmentSpec(kind=kind, rate=0.3)
        got, got_trace = train(DLinearModel.init_random(b, h, seed=3), train_set,
                               val_set, cfg, aug=aug)
        want, want_trace = reference_train(DLinearModel.init_random(b, h, seed=3),
                                           train_set, val_set, cfg, aug=aug)
        assert got.params().flat.tobytes() == want.params().flat.tobytes()
        assert got_trace.train_loss == want_trace.train_loss
        assert got_trace.val_loss == want_trace.val_loss
        assert got_trace.best_epoch == want_trace.best_epoch

    @pytest.mark.parametrize("n,c,b,h", [(32, 1, 16, 8), (32, 7, 96, 96), (5, 3, 7, 5)])
    def test_views_of_one_gather_match_contiguous_copies(self, n, c, b, h):
        windows = random_windows(3 * n, c, b, h, seed=4)
        model = DLinearModel.init_random(b, h, seed=6)
        batch = windows.data[np.random.default_rng(7).permutation(3 * n)[:n]]
        look, hor = batch[:, :, :b], batch[:, :, b:]
        assert np.shares_memory(model._rows(look), batch)
        assert np.shares_memory(hor.reshape(-1, h), batch)
        got_loss, got = loss_and_grads(model, look, hor)
        want_loss, want = reference_loss_and_grads(model, look.copy(), hor.copy())
        assert got_loss == want_loss
        assert got.flat.tobytes() == want.flat.tobytes()


class TestLossRows:
    """The rows each epoch passes to loss_and_grads, counted as the
    benchmark's trace counts them: the second argument's first axis."""

    @pytest.mark.parametrize("kind,step,rows_per_window",
                             [("none", 8, 1), ("freq_mask", 4, 2)])
    def test_one_epoch_counts(self, monkeypatch, kind, step, rows_per_window):
        rows = []
        orig = fc.loss_and_grads

        def spy(model, look, hor):
            rows.append(look.shape[0])
            return orig(model, look, hor)

        monkeypatch.setattr(fc, "loss_and_grads", spy)
        n = 37
        samples = random_windows(n, 2, 16, 8, seed=0)
        cfg = TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=0)
        train(DLinearModel.init_random(b=16, h=8, seed=0), samples, samples[:4], cfg,
              aug=AugmentSpec(kind=kind, rate=0.2))
        assert len(rows) == -(-n // step)
        assert sum(rows) == rows_per_window * n


class TestWindowSetPath:
    """train/evaluate on one Windows array."""

    @staticmethod
    def _sets():
        ds = split_and_normalize(TimeSeriesDataset(
            values=generate(SynthSpec(length=600, channels=2, tones=[(24.0, 1.0)],
                                      noise_std=0.4, seed=2)),
            channel_names=["a", "b"]), "generic")
        return [make_windows(ds, split, 24, 12) for split in ("train", "val", "test")]

    def test_fancy_index_gives_contiguous_batch(self):
        train_set = self._sets()[0]
        idx = np.array([5, 0, 17, 5])
        look, hor = train_set.lookback[idx], train_set.horizon[idx]
        assert look.flags.c_contiguous and hor.flags.c_contiguous
        np.testing.assert_array_equal(look, np.stack([train_set[i].lookback for i in idx]))
        np.testing.assert_array_equal(hor, np.stack([train_set[i].horizon for i in idx]))

    def test_empty_set_rejected_like_empty_list(self):
        train_set, val_set, _ = self._sets()
        empty = val_set[:0]
        model = DLinearModel.init_random(b=24, h=12, seed=0)
        for tr, va in ((empty, val_set), (train_set, empty), ([], val_set)):
            with pytest.raises(ValueError, match="train and validation sets must be non-empty"):
                train(model, tr, va, TrainConfig())
        for samples in (empty, []):
            with pytest.raises(ValueError, match="empty sample set"):
                evaluate(model, samples)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", float("nan")),
        ("max_epochs", -3),
    ])
    def test_bad_value_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_boundary_values_accepted(self):
        cfg = TrainConfig(max_epochs=0)
        assert cfg.max_epochs == 0

    @pytest.mark.parametrize("field", ["beta1", "beta2", "eps"])
    def test_adam_constants_are_not_fields(self, field):
        assert len(fields(TrainConfig)) == 5
        with pytest.raises(TypeError, match=field):
            TrainConfig(**{field: 0.5})


class TestEvaluate:
    def test_perfect_predictions(self):
        samples = linear_samples(8)
        model = DLinearModel.init_random(b=4, h=2, seed=0)
        model, _ = train(model, samples, samples,
                         TrainConfig(learning_rate=5e-2, batch_size=8,
                                     max_epochs=300, patience=300, seed=0))
        m = evaluate(model, samples)
        assert m.mse < 1e-6 and m.mae < 1e-3

    def test_constant_offset(self):
        model = DLinearModel(b=4, h=2)  # predicts all zeros
        delta = 1.5
        data = np.concatenate([np.zeros((3, 1, 4)), np.full((3, 1, 2), -delta)], axis=2)
        samples = Windows(data, 4, np.arange(3))
        m = evaluate(model, samples)
        assert m.mse == pytest.approx(delta**2)
        assert m.mae == pytest.approx(delta)
        assert m.n_samples == 3

    def test_matches_direct_summation(self):
        model = DLinearModel.init_random(b=6, h=3, seed=8)
        samples = random_windows(5, 2, 6, 3, seed=8)
        m = evaluate(model, samples)
        total_sq, total_abs, count = 0.0, 0.0, 0
        for s in samples:
            pred = model.forward_batch(s.lookback[None])[0]
            for c in range(2):
                for t in range(3):
                    err = pred[c, t] - s.horizon[c, t]
                    total_sq += err * err
                    total_abs += abs(err)
                    count += 1
        assert m.mse == pytest.approx(total_sq / count, rel=1e-12)
        assert m.mae == pytest.approx(total_abs / count, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sample set"):
            evaluate(DLinearModel(b=4, h=2), [])


def whole_set_scores(model, samples):
    """Oracle: (MSE, MAE) from one (n, C, h) error array over the whole set."""
    err = model.forward_batch(np.ascontiguousarray(samples.lookback)) - samples.horizon
    return float(np.mean(err * err)), float(np.mean(np.abs(err)))




class TestBlockScoring:
    """evaluate and train's val_loss, block by block, against whole_set_scores."""

    @staticmethod
    def _sizes(c):
        """(windows per block, set sizes): within one block, exactly one,
        an exact multiple of it, and a partial last block."""
        step = max(1, fc.SCORE_BLOCK_ROWS // c)
        return step, [step // 2, step, 2 * step, 2 * step + step // 3]

    @pytest.mark.parametrize("c", [1, 7])
    def test_evaluate_matches_whole_set(self, c):
        model = DLinearModel.init_random(b=8, h=4, seed=c)
        step, sizes = self._sizes(c)
        for n in sizes:
            samples = random_windows(n, c, 8, 4, seed=n)
            m = evaluate(model, samples)
            mse, mae = whole_set_scores(model, samples)
            assert m.mse == pytest.approx(mse, rel=1e-12, abs=0)
            assert m.mae == pytest.approx(mae, rel=1e-12, abs=0)
            assert m.n_samples == n
            if n <= step:  # one block sums exactly as np.mean does
                assert (m.mse, m.mae) == (mse, mae)

    @pytest.mark.parametrize("c", [1, 7])
    def test_val_loss_trace_matches_whole_set(self, c, monkeypatch):
        oracle = []
        score = fc._score

        def spy(model, samples, with_mae=False):
            oracle.append(whole_set_scores(model, samples)[0])
            return score(model, samples, with_mae)

        monkeypatch.setattr(fc, "_score", spy)
        train_set = random_windows(16, c, 8, 4, seed=1)
        cfg = TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=0)
        for n in self._sizes(c)[1]:
            oracle.clear()
            model = DLinearModel.init_random(b=8, h=4, seed=2)
            _, trace = train(model, train_set, random_windows(n, c, 8, 4, seed=n), cfg)
            assert len(trace.val_loss) == 3
            np.testing.assert_allclose(trace.val_loss, oracle, rtol=1e-12, atol=0)

    @staticmethod
    def _large_set():
        rng = np.random.default_rng(0)
        ds = split_and_normalize(TimeSeriesDataset(
            values=rng.normal(size=(7, 3000)), channel_names=[f"c{i}" for i in range(7)]),
            "generic")
        return make_windows(ds, "train", 96, 96)

    def test_evaluate_peak_below_one_error_array(self):
        samples = self._large_set()
        model = DLinearModel.init_random(b=96, h=96, seed=0)
        tracemalloc.start()
        try:
            evaluate(model, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < samples.horizon.nbytes

    def test_evaluate_peak_within_two_half_size_blocks(self):
        # Two 512-row float64 blocks at b = h = 96 (the look-back and
        # residual buffers: 2 * 512 * 96 * 8 = 786,432 B) plus the effective
        # map and numpy's 64 KiB iteration buffer. Pinned in bytes: 1024-row
        # temporaries allocated per block peak near 2.4 MB.
        samples = self._large_set()
        model = DLinearModel.init_random(b=96, h=96, seed=0)
        tracemalloc.start()
        try:
            evaluate(model, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    def test_one_effective_map_per_pass(self, monkeypatch):
        samples = self._large_set()
        model = DLinearModel.init_random(b=96, h=96, seed=0)
        step = self._sizes(7)[0]
        assert len(samples) > 2 * step  # several blocks
        calls = []
        effective_map = model.effective_map

        def spy():
            calls.append(1)
            return effective_map()

        monkeypatch.setattr(model, "effective_map", spy)
        fc._score(model, samples, with_mae=True)
        assert len(calls) == 1
        # forward_batch and _score predict through one routine, so a set
        # that fits one block scores exactly as the whole-set mean.
        m = evaluate(model, samples[:step])
        assert (m.mse, m.mae) == whole_set_scores(model, samples[:step])

    def test_train_peak_below_one_validation_error_array(self):
        val_set = self._large_set()
        train_set = random_windows(8, 7, 96, 96, seed=3)
        model = DLinearModel.init_random(b=96, h=96, seed=0)
        tracemalloc.start()
        try:
            train(model, train_set, val_set, TrainConfig(max_epochs=2, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < val_set.horizon.nbytes


def test_checkpoint_bytes_pinned(tmp_path):
    model = DLinearModel(b=2, h=1, kernel=1, w_trend=[[0.5, -1.0]],
                         w_seasonal=[[1 / 3, 0.1]], b_trend=[0.125], b_seasonal=[-3.0])
    path = tmp_path / "model.json"
    model.save(path)
    assert path.read_bytes() == (
        b'{"magic": "FRAUG-DLINEAR-v1", "b": 2, "h": 1, "kernel": 1, '
        b'"w_trend": [[0.5, -1.0]], "w_seasonal": [[0.3333333333333333, 0.1]], '
        b'"b_trend": [0.125], "b_seasonal": [-3.0]}')


def test_checkpoint_round_trip(tmp_path):
    model = DLinearModel.init_random(b=8, h=4, kernel=5, seed=9)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = DLinearModel.load(path)
    for k, v in model.params().items():
        np.testing.assert_array_equal(getattr(loaded, k), v)
    assert (loaded.b, loaded.h, loaded.kernel) == (8, 4, 5)


def test_checkpoint_magic_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"magic": "nope"}')
    with pytest.raises(ValueError, match="FRAUG-DLINEAR-v1"):
        DLinearModel.load(path)


def write_checkpoint(path, **changes):
    """A valid b=8, h=4 checkpoint with `changes` applied (None deletes a key)."""
    DLinearModel.init_random(b=8, h=4, kernel=5, seed=9).save(path)
    doc = json.loads(path.read_text())
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    path.write_text(json.dumps(doc))
    return path


class TestCheckpointValidation:
    def test_missing_key_named(self, tmp_path):
        path = write_checkpoint(tmp_path / "m.json", b_seasonal=None)
        with pytest.raises(ValueError, match="lacks b_seasonal"):
            DLinearModel.load(path)

    def test_weight_shape_checked(self, tmp_path):
        path = write_checkpoint(tmp_path / "m.json", w_trend=np.zeros((2, 8)).tolist())
        with pytest.raises(ValueError, match=r"w_trend has shape \(2, 8\), expected \(4, 8\)"):
            DLinearModel.load(path)

    def test_bias_shape_checked(self, tmp_path):
        path = write_checkpoint(tmp_path / "m.json", b_trend=np.zeros(5).tolist())
        with pytest.raises(ValueError, match=r"b_trend has shape \(5,\), expected \(4,\)"):
            DLinearModel.load(path)

    @pytest.mark.parametrize("field,value", [
        ("kernel", 2.5), ("kernel", "null"), ("kernel", 0), ("b", "8"),
        ("b", True), ("h", -4), ("h", 4.0),
    ])
    def test_size_field_must_be_positive_int(self, tmp_path, field, value):
        path = write_checkpoint(tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc[field] = None if value == "null" else value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            DLinearModel.load(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path / "m.json", b_seasonal=[0.0, float("nan"), 0.0, 0.0])
        with pytest.raises(ValueError, match="b_seasonal holds a non-finite value"):
            DLinearModel.load(path)
