"""The benchmark's workloads: inputs from a seed, set-up, one operation, checks.

Each workload generates its inputs with its own numpy code (never with
fraug.synth), so the program under test only ever receives data. ``lib``
is the namespace of freshly imported fraug modules; every call goes
through a module attribute so a Tracer's patches apply.
"""

import contextlib
import csv
import io
import math
import time
from fractions import Fraction

import numpy as np

FFT_RTOL = 1e-9  # library FFT vs numpy.fft, relative to the largest reference value
ENERGY_RTOL = 1e-9  # masked energy may exceed the input energy by this share only


def ett_like(seed, rows, channels=7):
    """ETT-hourly-shaped series: tones at periods 24, 168 and 7 plus noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=np.float64)
    out = np.empty((channels, rows))
    for c in range(channels):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        out[c] = (1.0 * np.sin(2 * np.pi * t / 24 + phases[0])
                  + 0.6 * np.sin(2 * np.pi * t / 168 + phases[1])
                  + 0.3 * np.sin(2 * np.pi * t / 7 + phases[2])
                  + rng.normal(0.0, 0.5, size=rows))
    return out


def shifted_tone(seed, rows=1000):
    """Criterion-10 shape: period-24 tone, noise 1.2, +1.5 mean shift at t=500.

    ``seed`` is anything numpy.random.default_rng accepts.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=np.float64)
    x = np.sin(2 * np.pi * t / 24) + rng.normal(0.0, 1.2, size=rows)
    x[rows // 2:] += 1.5
    return x[None, :]


def expected_ramp(n_parts):
    """The 1 -> 5 augmented-copy ramp, oldest part first, rounded half-up."""
    if n_parts == 1:
        return [5]
    return [int(Fraction(1) + Fraction(4 * r, n_parts - 1) + Fraction(1, 2))
            for r in range(n_parts)]


def fft_check(lib, n, rows, seed):
    """Library rfft_bins / irfft_signal against numpy.fft at length n."""
    x = np.random.default_rng(seed).standard_normal((rows, n))
    ref = np.fft.rfft(x)
    fwd = np.max(np.abs(lib.spectral.rfft_bins(x) - ref)) / np.max(np.abs(ref))
    inv = np.max(np.abs(lib.spectral.irfft_signal(ref, n) - x)) / np.max(np.abs(x))
    err = max(fwd, inv)
    return (f"fft_vs_numpy_n{n}", bool(err <= FFT_RTOL),
            f"max relative error {err:.2e} (tolerance {FFT_RTOL:g})")


def energy_check(name, before, after):
    """Per-channel energy of a masked signal is no greater than the input's."""
    e_in = np.sum(np.asarray(before) ** 2, axis=-1)
    e_out = np.sum(np.asarray(after) ** 2, axis=-1)
    worst = float(np.max((e_out - e_in) / e_in))
    return (name, bool(worst <= ENERGY_RTOL),
            f"largest relative energy gain {worst:.2e} (tolerance {ENERGY_RTOL:g})")


def _finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


class LongTerm:
    """One epoch of train() on ETT-hourly-shaped windows, then evaluate()."""

    probe = ()  # functions traced even in the untraced run (none here)
    min_ops = 1

    rows, channels, b, h = 14400, 7, 96, 96
    fft_length = b + h
    train_stride = 8  # one epoch over every 8th training window
    rate = 0.2

    def __init__(self, kind):
        self.kind = kind

    def inputs(self, seed, workdir):
        return {"values": ett_like(seed, self.rows, self.channels), "seed": seed}

    def setup(self, lib, inputs):
        ds = lib.dataset.TimeSeriesDataset(
            values=inputs["values"],
            channel_names=[f"ch{i}" for i in range(self.channels)])
        ds = lib.dataset.split_and_normalize(ds, "ett-hourly")
        return {
            "seed": inputs["seed"],
            "train": lib.dataset.make_windows(ds, "train", self.b, self.h,
                                              stride=self.train_stride),
            "val": lib.dataset.make_windows(ds, "val", self.b, self.h),
            "test": lib.dataset.make_windows(ds, "test", self.b, self.h),
        }

    def _aug(self, lib):
        if self.kind == "none":
            return None
        return lib.augment.AugmentSpec(kind=self.kind, rate=self.rate)

    def op(self, lib, state, index, tracer):
        seed = state["seed"]
        cfg = lib.forecaster.TrainConfig(max_epochs=1, patience=1, seed=seed)
        t0 = time.perf_counter()
        model = lib.forecaster.DLinearModel.init_random(self.b, self.h, seed=seed)
        t_train = time.perf_counter()
        model, trace = lib.forecaster.train(model, state["train"], state["val"],
                                            cfg, aug=self._aug(lib))
        t1 = time.perf_counter()
        metrics = lib.forecaster.evaluate(model, state["test"])
        t2 = time.perf_counter()
        copies = 1 if self.kind == "none" else 2
        failures = []
        if not _finite(trace.train_loss + trace.val_loss):
            failures.append("non-finite training loss")
        if not math.isfinite(metrics.mse):
            failures.append("non-finite test_mse")
        return {"wall_s": t2 - t0, "train_s": t1 - t_train,
                "windows": len(state["train"]) * copies * len(trace.train_loss),
                "series": 0, "test_mse": metrics.mse, "failures": failures}

    def run_checks(self, lib, state):
        checks = [fft_check(lib, self.fft_length, 4 * self.channels, state["seed"])]
        if self.kind != "none":
            rng = np.random.default_rng(state["seed"])
            spec = self._aug(lib)
            windows = state["train"][:64]
            outs = [lib.augment.apply_augment(w, spec, rng) for w in windows]
            checks.append(energy_check(
                "masked_energy_not_greater",
                [w.concat() for w in windows], [o.concat() for o in outs]))
        return checks

    def identities(self, tracer, state):
        n = len(state["train"])
        checks = []
        for run in tracer.op_runs():
            calls = {k: v[0] for k, v in tracer.stats[run].items()}
            rows = tracer.counters[run]["forecaster.loss_and_grads.rows"]
            spectral = [calls.get(k, 0) for k in
                        ("spectral.rfft_bins", "spectral.irfft_signal",
                         "augment.apply_augment")]
            if self.kind == "none":
                checks.append(("no_spectral_or_augment_calls", spectral == [0, 0, 0],
                               f"rfft_bins, irfft_signal, apply_augment calls {spectral}"))
                checks.append(("loss_rows_equal_windows", rows == n,
                               f"loss_and_grads rows {rows:g}, train windows {n}"))
            else:
                checks.append(("spectral_calls_equal_augmented_windows",
                               spectral == [n, n, n],
                               f"rfft_bins, irfft_signal, apply_augment calls "
                               f"{spectral}, augmented windows {n}"))
                checks.append(("loss_rows_equal_originals_plus_copies", rows == 2 * n,
                               f"loss_and_grads rows {rows:g}, expected {2 * n}"))
        return checks


class TTTShift:
    """run_ttt at the criterion-10 shape, one seed per operation.

    A run holds ``series`` input series; operation i trains on series
    i mod ``series``, and an untraced run covers each at least once, so
    test_mse averages over all of them.
    """

    b, h, parts, rate = 16, 8, 20, 0.2
    series = 3
    min_ops = series
    fft_length = b + h
    # Traced even in the untraced run: train() windows and the copy schedule
    # are only visible at these calls. About 230 calls per operation.
    probe = ("forecaster.train", "augment.expand_dataset")

    def inputs(self, seed, workdir):
        return {"values": [shifted_tone((seed, k)) for k in range(self.series)],
                "seed": seed}

    def setup(self, lib, inputs):
        return {"seed": inputs["seed"],
                "ds": [lib.dataset.TimeSeriesDataset(values=v, channel_names=["x"])
                       for v in inputs["values"]]}

    def op(self, lib, state, index, tracer):
        cfg = lib.forecaster.TrainConfig(learning_rate=5e-3, batch_size=32,
                                         max_epochs=5, patience=3)
        run = tracer.run_id
        tracer.events.clear()
        t0 = time.perf_counter()
        series = index % self.series
        report = lib.experiments.run_ttt(state["ds"][series], h=self.h, kinds=["freq_mask"],
                                         b=self.b, parts=self.parts, cfg=cfg,
                                         seeds=(state["seed"],), rate=self.rate)
        t1 = time.perf_counter()
        cell = next(c for c in report.cells if c.kind == "freq_mask")
        failures = []
        if not all(_finite(c.extra["part_losses"]) and math.isfinite(c.mse)
                   for c in report.cells):
            failures.append("non-finite part MSE")
        failures += self._schedule_failures(tracer.events, cell)
        return {"wall_s": t1 - t0,
                "train_s": tracer.stats[run]["forecaster.train"][1] / 1e9,
                "windows": tracer.counters[run]["forecaster.train.windows"],
                "series": series, "test_mse": cell.mse, "failures": failures}

    def _schedule_failures(self, events, cell):
        """Copies per part before each augmented train() follow the 1 -> 5 ramp."""
        failures = []
        if cell.extra["copy_schedule"] != expected_ramp(self.parts - 1):
            failures.append("reported copy schedule is not the 1->5 ramp")
        copies, rounds = [], 0
        for kind, value in events:
            if kind == "expand":
                copies.append(value)
            elif kind == "train" and copies:
                rounds += 1
                if copies != expected_ramp(len(copies)):
                    failures.append(f"round with {len(copies)} parts used copies {copies}")
                copies = []
        if rounds != self.parts - 1:
            failures.append(f"{rounds} augmented rounds, expected {self.parts - 1}")
        return failures

    def run_checks(self, lib, state):
        checks = [fft_check(lib, self.fft_length, 8, state["seed"])]
        rng = np.random.default_rng(state["seed"])
        ds = state["ds"][0]
        n = self.b + self.h
        windows = [lib.dataset.WindowSample(lookback=ds.values[:, s: s + self.b],
                                            horizon=ds.values[:, s + self.b: s + n],
                                            start_index=s)
                   for s in range(0, ds.length - n, 15)]
        spec = lib.augment.AugmentSpec(kind="freq_mask", rate=self.rate)
        outs = [lib.augment.apply_augment(w, spec, rng) for w in windows]
        checks.append(energy_check("masked_energy_not_greater",
                                   [w.concat() for w in windows],
                                   [o.concat() for o in outs]))
        return checks

    def identities(self, tracer, state):
        checks = []
        for run in tracer.op_runs():
            calls = {k: v[0] for k, v in tracer.stats[run].items()}
            copies = tracer.counters[run]["augment.expand_dataset.copies"]
            spectral = [calls.get(k, 0) for k in
                        ("spectral.rfft_bins", "spectral.irfft_signal",
                         "augment.apply_augment")]
            checks.append(("spectral_calls_equal_expanded_copies",
                           spectral == [copies] * 3,
                           f"rfft_bins, irfft_signal, apply_augment calls {spectral}, "
                           f"copies {copies:g}"))
            fits = 2 * (self.parts - 1)  # the no-augmentation control and freq_mask
            got = [calls.get(k, 0) for k in ("forecaster.train", "forecaster.evaluate")]
            checks.append(("one_fit_and_evaluate_per_round", got == [fits, fits],
                           f"train, evaluate calls {got}, expected {fits} each"))
        return checks


class AugmentCli:
    """``fraug augment --kind freq_mask --rate 0.2 --dump-spectrum`` in-process.

    Not listed in BENCHMARK.json: every operation fails its spectrum-CSV
    check, because ``cli._dump_spectrum`` writes ``repr()`` of numpy
    scalars. AugmentTrainCli measures the same file path without the dump.
    """

    probe = ()
    min_ops = 1

    rows, channels, rate = 17420, 7, 0.2
    fft_length = rows

    def inputs(self, seed, workdir):
        values = ett_like(seed, self.rows, self.channels)
        path = workdir / "input.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date"] + [f"ch{i}" for i in range(self.channels)])
            for i in range(self.rows):
                writer.writerow([f"t{i:06d}"] + [repr(float(v)) for v in values[:, i]])
        return {"values": values, "seed": seed, "dir": workdir, "csv": path}

    def setup(self, lib, inputs):
        return dict(inputs)

    def op(self, lib, state, index, tracer):
        out, spec = state["dir"] / "augmented.csv", state["dir"] / "spectrum.csv"
        argv = ["augment", "--in", str(state["csv"]), "--kind", "freq_mask",
                "--rate", str(self.rate), "--seed", str(state["seed"]),
                "--out", str(out), "--dump-spectrum", str(spec)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = lib.cli.main(argv)
            t1 = time.perf_counter()
        failures = [] if rc == 0 else [f"exit code {rc}"]
        n_bins = self.rows // 2 + 1
        augmented = _strict_csv(out, self.rows, 1 + self.channels, failures)
        _strict_csv(spec, n_bins, 1 + 2 * self.channels, failures)
        if augmented is not None:
            _, ok, detail = energy_check("masked_energy_not_greater",
                                            state["values"], augmented[:, 1:].T)
            if not ok:
                failures.append(detail)
        return {"wall_s": t1 - t0, "series": 0, "failures": failures}

    def run_checks(self, lib, state):
        return [fft_check(lib, self.fft_length, 1, state["seed"])]

    def identities(self, tracer, state):
        c = self.channels
        expected = {"cli.main": 1, "dataset.load_csv": 1, "synth.write_csv": 1,
                    "augment.apply_augment": 1, "spectral.rfft": 2 * c,
                    "spectral.rfft_bins": 1 + 2 * c, "spectral.irfft_signal": 1}
        checks = []
        for run in tracer.op_runs():
            got = {k: tracer.stats[run][k][0] for k in expected}
            checks.append(("cli_call_counts", got == expected,
                           f"calls {got}, expected {expected}"))
        return checks


class AugmentTrainCli(AugmentCli):
    """``fraug augment`` on the generated CSV, then ``fraug train`` on its output.

    Both commands run in-process through ``fraug.cli.main``: one epoch,
    b=96, h=96, the generic 70/10/20 split. train() and evaluate() are
    traced even in the untraced run, because the windows through train(),
    its time and the test MSE are only visible at those calls.
    """

    probe = ("forecaster.train", "forecaster.evaluate")
    b, h = 96, 96
    # Every run masks the same bins; the seed varies the data and the model's
    # initialisation. With the mask drawn per seed, whether the bins of the
    # input's tones were masked moved test_mse by 2x between seeds.
    augment_seed = 0

    def op(self, lib, state, index, tracer):
        run = tracer.run_id
        tracer.events.clear()
        seed = str(state["seed"])
        out, model = state["dir"] / "augmented.csv", state["dir"] / "model.json"
        augment = ["augment", "--in", str(state["csv"]), "--kind", "freq_mask",
                   "--rate", str(self.rate), "--seed", str(self.augment_seed),
                   "--out", str(out)]
        train = ["train", "--dataset", str(out), "--lookback", str(self.b),
                 "--horizon", str(self.h), "--epochs", "1", "--seed", seed,
                 "--out", str(model)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rcs = [lib.cli.main(augment), lib.cli.main(train)]
            t1 = time.perf_counter()
        failures = [f"exit codes {rcs}"] if rcs != [0, 0] else []
        augmented = _strict_csv(out, self.rows, 1 + self.channels, failures)
        if augmented is not None:
            _, ok, detail = energy_check("masked_energy_not_greater",
                                         state["values"], augmented[:, 1:].T)
            if not ok:
                failures.append(detail)
        try:
            fitted = lib.forecaster.DLinearModel.load(model)
            if (fitted.b, fitted.h) != (self.b, self.h):
                failures.append(f"checkpoint has b={fitted.b}, h={fitted.h}")
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"checkpoint: {exc}")
        mses = [value for kind, value in tracer.events if kind == "evaluate"]
        if len(mses) != 1 or not math.isfinite(mses[0]):
            failures.append(f"expected one finite test MSE, got {mses}")
        return {"wall_s": t1 - t0,
                "train_s": tracer.stats[run]["forecaster.train"][1] / 1e9,
                "windows": tracer.counters[run]["forecaster.train.windows"],
                "series": 0, "test_mse": mses[-1] if mses else math.nan,
                "failures": failures}

    def identities(self, tracer, state):
        expected = {"cli.main": 2, "dataset.load_csv": 2, "synth.write_csv": 1,
                    "augment.apply_augment": 1, "spectral.rfft": 0,
                    "spectral.rfft_bins": 1, "spectral.irfft_signal": 1,
                    "dataset.split_and_normalize": 1, "dataset.make_windows": 3,
                    "forecaster.train": 1, "forecaster.evaluate": 1}
        checks = []
        for run in tracer.op_runs():
            got = {k: tracer.stats[run][k][0] for k in expected}
            checks.append(("cli_call_counts", got == expected,
                           f"calls {got}, expected {expected}"))
            rows = tracer.counters[run]["forecaster.loss_and_grads.rows"]
            windows = tracer.counters[run]["forecaster.train.windows"]
            checks.append(("loss_rows_equal_windows", rows == windows > 0,
                           f"loss_and_grads rows {rows:g}, train windows {windows:g}"))
        return checks


def _strict_csv(path, rows, cols, failures):
    """Parse a header-plus-rows CSV whose cells after the first are floats."""
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        failures.append(f"{path.name}: {exc}")
        return None
    body = table[1:]
    if not table or len(table[0]) != cols or len(body) != rows or any(
            len(r) != cols for r in body):
        failures.append(f"{path.name}: expected {rows} rows of {cols} cells")
        return None
    try:
        return np.array([[0.0] + [float(v) for v in r[1:]] for r in body])
    except ValueError as exc:
        failures.append(f"{path.name}: {exc}")
        return None


WORKLOADS = {
    "longterm-mask": LongTerm("freq_mask"),
    "longterm-none": LongTerm("none"),
    "ttt-shift": TTTShift(),
    "augment-cli": AugmentCli(),
    "augment-train-cli": AugmentTrainCli(),
}
