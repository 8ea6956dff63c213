"""Which fraug functions the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<function>``; metric names add a statistic:
``calls``, ``busy_s``, ``self_s`` and ``errors`` for every wrapped
function, plus the computed counts and ratios below. Values cover one
set-up plus one operation (set-up total + mean over traced operations).
"""

import os
import statistics
import time

import numpy as np

TARGETS = {
    "spectral.rfft_bins": ("fraug.spectral", "rfft_bins"),
    "spectral.irfft_signal": ("fraug.spectral", "irfft_signal"),
    "spectral.rfft": ("fraug.spectral", "rfft"),
    "augment.apply_augment": ("fraug.augment", "apply_augment"),
    "augment.expand_dataset": ("fraug.augment", "expand_dataset"),
    "forecaster.train": ("fraug.forecaster", "train"),
    "forecaster.loss_and_grads": ("fraug.forecaster", "loss_and_grads"),
    "forecaster.evaluate": ("fraug.forecaster", "evaluate"),
    "forecaster.DLinearModel.forward_batch": ("fraug.forecaster",
                                              "DLinearModel.forward_batch"),
    "dataset.make_windows": ("fraug.dataset", "make_windows"),
    "dataset.split_and_normalize": ("fraug.dataset", "split_and_normalize"),
    "dataset.load_csv": ("fraug.dataset", "load_csv"),
    "synth.write_csv": ("fraug.synth", "write_csv"),
    "experiments.run_ttt": ("fraug.experiments", "run_ttt"),
    "cli.main": ("fraug.cli", "main"),
}
MODULES = ("spectral", "augment", "forecaster", "dataset", "synth", "experiments", "cli")


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _rfft_bins(tr, args, kwargs, result):
    x = args[0]
    tr.counters[tr.run_id]["spectral.points"] += x.size
    tr.seen[("rfft_bins", x.shape)] += 1


def _irfft_signal(tr, args, kwargs, result):
    tr.counters[tr.run_id]["spectral.points"] += result.size
    tr.seen[("irfft_signal", args[0].shape, result.shape[-1])] += 1


def _loss_and_grads(tr, args, kwargs, result):
    tr.counters[tr.run_id]["forecaster.loss_and_grads.rows"] += args[1].shape[0]


def _train(tr, args, kwargs, result):
    aug = _arg(args, kwargs, 4, "aug")
    copies = 2 if aug is not None and aug.kind != "none" else 1
    epochs = len(result[1].train_loss)
    tr.counters[tr.run_id]["forecaster.train.windows"] += len(args[1]) * copies * epochs
    tr.events.append(("train", 0))


def _expand_dataset(tr, args, kwargs, result):
    factor = _arg(args, kwargs, 2, "factor")
    tr.counters[tr.run_id]["augment.expand_dataset.copies"] += len(args[0]) * (factor - 1)
    tr.events.append(("expand", factor - 1))


def _make_windows(tr, args, kwargs, result):
    ctr = tr.counters[tr.run_id]
    ctr["dataset.make_windows.windows"] += len(result)
    if result:
        ctr["dataset.make_windows.bytes_copied"] += len(result) * (
            result[0].lookback.nbytes + result[0].horizon.nbytes)


def _load_csv(tr, args, kwargs, result):
    tr.counters[tr.run_id]["dataset.load_csv.rows"] += result.length


def _evaluate(tr, args, kwargs, result):
    tr.events.append(("evaluate", result.mse))


def _write_csv(tr, args, kwargs, result):
    tr.counters[tr.run_id]["synth.write_csv.bytes"] += os.path.getsize(args[1])


HOOKS = {
    "spectral.rfft_bins": _rfft_bins,
    "spectral.irfft_signal": _irfft_signal,
    "forecaster.loss_and_grads": _loss_and_grads,
    "forecaster.train": _train,
    "forecaster.evaluate": _evaluate,
    "augment.expand_dataset": _expand_dataset,
    "dataset.make_windows": _make_windows,
    "dataset.load_csv": _load_csv,
    "synth.write_csv": _write_csv,
}


def _time_per_call(fn, reps=3):
    """Median seconds per call over ``reps`` batches of at least 5 ms each."""
    def batch(loops):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        return time.perf_counter() - t0

    loops = 1
    while batch(loops) < 0.005:
        loops *= 4
    return statistics.median(batch(loops) / loops for _ in range(reps))


def numpy_gap(lib, seen, seed):
    """Library transform time over numpy.fft time on the shapes the run used.

    Each shape is weighted by how often the run called it. numpy.fft is
    the reference here only; the library keeps its own FFT.
    """
    rng = np.random.default_rng(seed)
    ours = ref = 0.0
    for key, count in seen.items():
        if key[0] == "rfft_bins":
            x = rng.standard_normal(key[1])
            t_ours = _time_per_call(lambda: lib.spectral.rfft_bins(x))
            t_ref = _time_per_call(lambda: np.fft.rfft(x))
        else:
            _, shape, n = key
            bins = np.fft.rfft(rng.standard_normal(shape[:-1] + (n,)))
            t_ours = _time_per_call(lambda: lib.spectral.irfft_signal(bins, n))
            t_ref = _time_per_call(lambda: np.fft.irfft(bins, n))
        ours += count * t_ours
        ref += count * t_ref
    return ours / ref if ref else 0.0


def layer_metrics(tracer, gap):
    """Per-layer metrics from a finished traced run (see module docstring)."""
    stats = tracer.per_op("stats")
    ctr = tracer.per_op("counters")
    zero = [0, 0.0, 0.0, 0]
    m = {}
    for name in TARGETS:
        calls, busy, self_s, errors = stats.get(name, zero)
        m[f"{name}.calls"] = calls
        m[f"{name}.busy_s"] = busy
        m[f"{name}.self_s"] = self_s
        m[f"{name}.errors"] = errors
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(m[f"{n}.self_s"] for n in TARGETS
                                 if n.startswith(mod + "."))
    m["trace.errors"] = sum(m[f"{n}.errors"] for n in TARGETS)

    def ratio(num, den):
        return num / den if den else 0.0

    points = ctr.get("spectral.points", 0.0)
    m["spectral.points"] = points
    m["spectral.ns_per_point"] = 1e9 * ratio(
        m["spectral.rfft_bins.busy_s"] + m["spectral.irfft_signal.busy_s"], points)
    m["spectral.numpy_gap_x"] = gap
    m["augment.windows_per_spectral_call"] = ratio(
        m["augment.apply_augment.calls"], m["spectral.rfft_bins.calls"])
    m["forecaster.loss_and_grads.rows_per_call"] = ratio(
        ctr.get("forecaster.loss_and_grads.rows", 0.0),
        m["forecaster.loss_and_grads.calls"])
    for key in ("dataset.make_windows.windows", "dataset.make_windows.bytes_copied",
                "dataset.load_csv.rows", "synth.write_csv.bytes"):
        m[key] = ctr.get(key, 0.0)
    return m

