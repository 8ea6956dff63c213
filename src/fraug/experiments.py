"""Evaluation protocols: long-term, cold-start, and test-time training.

Every protocol trains a no-augmentation control under the same seeds and
schedule as each augmented run, so improvement ratios are always
well-defined. Each runner makes its ExperimentReport with
ExperimentReport.start, then its plan, one AugmentSpec per augmented
kind and rate, before its first fit, and records every cell through
its add method; the report writes itself as report.json plus the flat
CSV traces trace.csv and, for ttt, ttt_parts.csv.
"""

import csv
import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .augment import AugmentSpec, expand_dataset
from .dataset import (TimeSeriesDataset, Windows, check_count, make_windows,
                      span_windows, take_last_fraction)
from .forecaster import DLinearModel, TrainConfig, evaluate, train

RATE_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass
class CellResult:
    """One (kind, horizon, seed) evaluation cell."""

    kind: str
    h: int
    seed: int
    rate: float
    mse: float
    mae: float
    extra: dict = field(default_factory=dict)


@dataclass
class ExperimentReport:
    """The cells of one protocol run; wall_clock_s runs from construction to the latest add."""

    protocol: str
    dataset_id: str
    b: int
    horizons: list
    kinds: list
    seeds: list
    cells: list = field(default_factory=list)
    chosen_rates: dict = field(default_factory=dict)
    # Per-rate validation MSE of each grid search, keyed like chosen_rates.
    rate_val_mse: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def __post_init__(self):
        self._t0 = time.perf_counter()

    @classmethod
    def start(cls, protocol, dataset_id, b, horizons, kinds, seeds):
        """An empty report: "none" leads the kinds, a repeated horizon, kind or
        seed is kept once (first-seen order), and seeds are counts >= 0."""
        if len(seeds) == 0:
            raise ValueError(f"seeds must be non-empty, got {seeds!r}")
        for i, seed in enumerate(seeds):
            check_count(f"seeds[{i}]", seed, 0)
        return cls(protocol, dataset_id, b, list(dict.fromkeys(horizons)),
                   ["none"] + [k for k in dict.fromkeys(kinds) if k != "none"],
                   list(dict.fromkeys(seeds)))

    def add(self, kind, h, seed, rate, mse, mae, **extra):
        """Append one cell and set chosen_rates[f"{kind}/{h}"]; "none" records rate 0.0."""
        rate = 0.0 if kind == "none" else rate
        self.chosen_rates[f"{kind}/{h}"] = rate
        self.cells.append(CellResult(kind, h, seed, rate, mse, mae, extra))
        self.wall_clock_s = time.perf_counter() - self._t0

    def median_mse(self, kind, h):
        vals = [c.mse for c in self.cells if c.kind == kind and c.h == h]
        if not vals:
            raise KeyError(f"no cells for kind={kind!r}, h={h}")
        return float(np.median(vals))

    def to_json(self):
        return json.dumps(asdict(self), indent=2, default=_jsonable, allow_nan=False)

    def write(self, out_dir):
        """Write report.json, trace.csv (the per-epoch losses of the cells that
        record them) and, for ttt, ttt_parts.csv (each round's test MSE)."""
        out_dir = Path(out_dir)
        (out_dir / "report.json").write_text(self.to_json())
        tables = [("trace.csv", "epoch", 0, ["train_loss", "val_loss"],
                   ["train_loss", "val_loss"])]
        if self.protocol == "ttt":
            tables.append(("ttt_parts.csv", "part", 1, ["test_mse"], ["part_losses"]))
        for name, index, first, columns, keys in tables:
            with open(out_dir / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["kind", "h", "seed", index, *columns])
                for c in self.cells:
                    series = enumerate(zip(*(c.extra.get(k, []) for k in keys)), first)
                    writer.writerows([c.kind, c.h, c.seed, i, *v] for i, v in series)

    def summary_lines(self):
        lines = [f"protocol={self.protocol} dataset={self.dataset_id} b={self.b}"]
        for h in self.horizons:
            for kind in self.kinds:
                try:
                    med = self.median_mse(kind, h)
                except KeyError:
                    continue
                rate = self.chosen_rates.get(f"{kind}/{h}", "-")
                lines.append(f"  h={h:<4} {kind:<24} rate={rate!s:<5} median MSE={med:.4f}")
        return lines


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _fit(b, h, train_set, val_set, cfg, seed, aug=None):
    """Train a fresh model under `seed`, which overrides cfg.seed; (model, trace)."""
    model = DLinearModel.init_random(b, h, seed=seed)
    return train(model, train_set, val_set, replace(cfg or TrainConfig(), seed=seed), aug=aug)


def cross_validate_rate(train_samples, val_samples, kind, grid=RATE_GRID, cfg=None, seed=0):
    """Pick the rate minimizing validation MSE; ties go to the smaller rate.

    One model is trained per distinct rate with batch-wise augmentation
    on the train set, whose b and h it takes; no test set is seen.
    Training runs under `seed`, which overrides cfg.seed as the protocol
    runners do for their seeds. Returns (rate, {rate: validation
    Metrics}, (model, trace) of the chosen rate's fit).
    """
    grid = sorted(set(grid))
    if not grid:
        raise ValueError("empty rate grid")
    b, h = train_samples.b, train_samples.horizon.shape[2]
    per_rate, best_rate, best_val, best_fit = {}, None, np.inf, None
    for rate in grid:
        fit = _fit(b, h, train_samples, val_samples, cfg, seed,
                   aug=AugmentSpec(kind=kind, rate=rate))
        val = per_rate[rate] = evaluate(fit[0], val_samples)
        if val.mse < best_val:
            best_rate, best_val, best_fit = rate, val.mse, fit
    return best_rate, per_rate, best_fit


def run_longterm(ds, horizons, kinds, b=96, cfg=None, seeds=(0,),
                 rate_grid=RATE_GRID, dataset_id="dataset",
                 select_rates=True, fixed_rate=0.2) -> ExperimentReport:
    """Batch-wise 2x augmentation during training; reports test MSE/MAE.

    The no-augmentation control is always included. With select_rates,
    a grid search on the validation split under the first seed picks the
    rate, and its winning fit is that seed's cell; else fixed_rate is used.
    """
    report = ExperimentReport.start("longterm", dataset_id, b, horizons, kinds, seeds)
    rates = sorted(set(rate_grid)) if select_rates else [fixed_rate]
    if report.kinds[1:] and not rates:
        raise ValueError("empty rate grid")
    plan = {(k, r): AugmentSpec(kind=k, rate=r) for k in report.kinds[1:] for r in rates}
    # Every horizon's sets first, so one with no window fails before any fit.
    sets = [(h, *(make_windows(ds, split, b, h) for split in ("train", "val", "test")))
            for h in report.horizons]
    for h, train_samples, val_samples, test_samples in sets:
        for kind in report.kinds:
            rate, fit = fixed_rate, None
            if kind != "none" and select_rates:
                rate, per_rate, fit = cross_validate_rate(
                    train_samples, val_samples, kind, rate_grid, cfg, report.seeds[0])
                report.rate_val_mse[f"{kind}/{h}"] = {r: m.mse for r, m in per_rate.items()}
            aug = None if kind == "none" else plan[(kind, rate)]
            for i, seed in enumerate(report.seeds):
                model, trace = (fit if i == 0 and fit is not None else
                                _fit(b, h, train_samples, val_samples, cfg, seed, aug))
                m = evaluate(model, test_samples)
                report.add(kind, h, seed, rate, m.mse, m.mae, train_loss=trace.train_loss,
                           val_loss=trace.val_loss, best_epoch=trace.best_epoch)
    return report


def run_coldstart(ds, h, kinds, b=96, fraction=0.01, factors=(2, 50),
                  cfg=None, seeds=(0,), rate=0.2, dataset_id="dataset") -> ExperimentReport:
    """Train on the last `fraction` of window samples, pre-expanded.

    For each kind the best expansion factor is chosen by validation MSE
    (a repeated factor trains once), and only its model is scored on the
    full original test split. Each (kind, seed) is expanded once, at the
    largest factor, from default_rng(seed); each factor trains on its prefix.
    """
    report = ExperimentReport.start("coldstart", dataset_id, b, [h], kinds, seeds)
    if len(factors) == 0:
        raise ValueError(f"factors must be non-empty, got {factors!r}")
    for i, factor in enumerate(factors):
        check_count(f"factors[{i}]", factor, 1)
    all_train = make_windows(ds, "train", b, h)
    train_small = take_last_fraction(all_train, fraction)
    val_samples = make_windows(ds, "val", b, h)
    test_samples = make_windows(ds, "test", b, h)
    plan = {(k, rate): AugmentSpec(kind=k, rate=rate) for k in report.kinds[1:]}
    for kind in report.kinds:
        for seed in report.seeds:
            expanded = train_small if kind == "none" else expand_dataset(
                train_small, plan[(kind, rate)], max(factors), np.random.default_rng(seed))
            best = None
            for factor in (1,) if kind == "none" else dict.fromkeys(factors):
                model, _ = _fit(b, h, expanded[:factor * len(train_small)],
                                val_samples, cfg, seed)
                val = evaluate(model, val_samples)
                if best is None or val.mse < best[0]:
                    best = (val.mse, factor, model)
            _, factor, model = best
            test = evaluate(model, test_samples)
            report.add(kind, h, seed, rate, test.mse, test.mae,
                       factor=factor, n_train=len(train_small))
    return report


def ttt_copy_schedule(n_parts_seen):
    """Augmented-copy counts per part, oldest first: linear 1 -> 5 ramp.

    Rounding is half-up, so n=8 gives [1, 2, 2, 3, 3, 4, 4, 5].
    """
    check_count("n_parts_seen", n_parts_seen, 1)
    if n_parts_seen == 1:
        return [5]
    return [int(np.floor(1.0 + 4.0 * rank / (n_parts_seen - 1) + 0.5))
            for rank in range(n_parts_seen)]


def _part_bounds(length, parts):
    # Equal contiguous spans; the remainder goes to the last part.
    size = length // parts
    bounds = [(i * size, (i + 1) * size) for i in range(parts)]
    bounds[-1] = (bounds[-1][0], length)
    return bounds


def _ttt_train_set(samples, bounds, spec, rng):
    """The originals, then each part's copies per the 1 -> 5 ramp, in one array.

    Window k starts at column k, so part [lo, hi) holds windows lo..hi-1,
    one at least (run_ttt's part-0 check). Each part's expansion is moved
    into place and dropped at once; beside the result at most one is alive.
    """
    parts = [samples[lo:hi] for lo, hi in bounds]
    schedule = ttt_copy_schedule(len(bounds))
    at = len(samples)
    data = np.empty((at + sum(len(p) * c for p, c in zip(parts, schedule)),)
                    + samples.data.shape[1:])
    data[:at] = samples.data
    for part, copies in zip(parts, schedule):
        extra = expand_dataset(part, spec, copies + 1, rng)[len(part):]
        data[at:at + len(extra)] = extra.data
        at += len(extra)
        del extra
    return Windows(data, samples.b)


def run_ttt(ds: TimeSeriesDataset, h, kinds, b=96, parts=20, cfg=None,
            seeds=(0,), rate=0.2, dataset_id="dataset") -> ExperimentReport:
    """Cumulative retraining over `parts` contiguous spans.

    Round i trains from scratch on parts [0, i) and tests on part i.
    With augmentation, each training sample gets extra copies per the
    1 -> 5 ramp: more copies for samples from newer parts. Early stopping
    validates on the newest tenth of the round's training windows, which
    the model also trains on: the validation is in-sample, and each
    cell's extra records it as val_in_sample.
    """
    check_count("parts", parts, 2)
    report = ExperimentReport.start("ttt", dataset_id, b, [h], kinds, seeds)
    bounds = _part_bounds(ds.length, parts)
    # No part is shorter than part 0, so every round holds windows if part 0 does.
    if bounds[0][1] <= b + h:
        raise ValueError(f"part 0 of length {bounds[0][1]} must be longer than b+h = {b + h}")
    plan = {(k, rate): AugmentSpec(kind=k, rate=rate) for k in report.kinds[1:]}
    rounds = [(past := span_windows(ds.values, 0, bounds[i - 1][1], b, h),
               past[-max(1, len(past) // 10):], span_windows(ds.values, *bounds[i], b, h))
              for i in range(1, parts)]
    for kind in report.kinds:
        for seed in report.seeds:
            part_losses, part_maes = [], []
            for i, (train_samples, val_samples, test_samples) in enumerate(rounds, start=1):
                train_set = train_samples if kind == "none" else _ttt_train_set(
                    train_samples, bounds[:i], plan[(kind, rate)],
                    np.random.default_rng((seed, i)))
                model, _ = _fit(b, h, train_set, val_samples, cfg, seed)
                m = evaluate(model, test_samples)
                part_losses.append(m.mse)
                part_maes.append(m.mae)
            report.add(kind, h, seed, rate, float(np.mean(part_losses)),
                       float(np.mean(part_maes)), part_losses=part_losses,
                       part_maes=part_maes, copy_schedule=ttt_copy_schedule(parts - 1),
                       val_in_sample=True)
    return report

