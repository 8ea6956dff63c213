"""Command-line entry point.

Subcommands: synth (generate a synthetic CSV), augment (one-shot
augmentation of a series file), spectrum (amplitude-spectrum dump),
train (fit one model, save a checkpoint), run (config-driven protocol
dispatch). Every `run` that completes writes a manifest.json with the
fully resolved configuration and the environment it ran in (argv, the
python, numpy and BLAS versions, the git sha), next to the files its
report writes, so the run is reproducible. augment keeps the input's
date column name, channel names and date cells.
"""

import argparse
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .augment import ALL_KINDS, MIN_WINDOW, MIX_KINDS, AugmentSpec, expand_dataset
from .dataset import (SPLIT_SCHEMES, Windows, check_number, load_csv, make_windows,
                      split_and_normalize)
from .forecaster import DLinearModel, TrainConfig, evaluate, train
from .experiments import RATE_GRID, run_coldstart, run_longterm, run_ttt
from .spectral import amplitude_spectrum, rfft
from .synth import SynthSpec, generate, write_csv

# The kinds of fraug augment and fraug train, all but asd: augment's one
# whole-series window leaves asd no pool, and in train every step would run
# a DTW against every training window: 44 s per window against the 8448
# ETT-hourly training windows (b = h = 96, C = 7), measured on a 2-core VM.
# fraug run refuses asd under longterm for that reason.
AUGMENT_KINDS = tuple(k for k in ALL_KINDS if k != "asd")
PROTOCOLS = ("longterm", "coldstart", "ttt")
# The least value of each integer flag; fraug run's config keys read the same.
LEAST = {"lookback": 1, "horizon": 1, "epochs": 0, "seed": 0, "length": 1, "channels": 1}


def _parse_tones(text):
    tones = []
    for part in text.split(","):
        period, _, amp = part.partition(":")
        try:
            period, amp = float(period), float(amp or 1.0)
        except ValueError:
            raise ValueError(f"--tones entry {part!r} is not period[:amp]") from None
        check_number(f"--tones entry {part!r} period", period, 0.0, math.inf, low_open=True)
        check_number(f"--tones entry {part!r} amplitude", amp, -math.inf, math.inf)
        tones.append((period, amp))
    return tones


def cmd_synth(args):
    _check_least(args, "length", "channels", "seed")
    for flag, low in (("noise", 0.0), ("trend", -math.inf), ("shift_delta", -math.inf)):
        check_number(f"--{flag.replace('_', '-')}", getattr(args, flag), low, math.inf)
    if args.shift_at is not None and not 0 <= args.shift_at < args.length:
        raise ValueError(f"--shift-at must be in [0, {args.length}), got {args.shift_at}")
    spec = SynthSpec(
        length=args.length, channels=args.channels,
        tones=_parse_tones(args.tones), noise_std=args.noise,
        trend_slope=args.trend, shift_at=args.shift_at,
        shift_delta=args.shift_delta, seed=args.seed,
    )
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by flag
        values = generate(spec)
    if not np.isfinite(values).all():
        raise ValueError("--length with --trend, --tones, --noise and --shift-delta "
                         "give a series that is not finite; lower their scale")
    write_csv(values, args.out)
    print(f"wrote {args.out}")
    return 0


def _check_least(args, *names):
    """Raise ValueError naming the first flag that is not >= its LEAST value."""
    for name in names:
        value = getattr(args, name)
        if not value >= LEAST[name]:
            raise ValueError(f"--{name} must be >= {LEAST[name]}, got {value}")


def _augment_spec(kind, rate, rate_name, kind_name):
    """AugmentSpec(kind, rate); a ValueError says that `rate_name` does not suit `kind_name`."""
    try:
        return AugmentSpec(kind=kind, rate=rate)
    except ValueError as exc:
        raise ValueError(f"{rate_name} does not suit {kind_name}: {exc}") from None


def _check_window(kinds, span, holder, names):
    """Raise ValueError naming the first of `kinds` that needs windows longer than `span`."""
    for kind in kinds:
        if span < MIN_WINDOW.get(kind, 0):
            raise ValueError(f"{holder} {kind}, which needs {names} >= "
                             f"{MIN_WINDOW[kind]}, got {span}")


def cmd_augment(args):
    _check_least(args, "seed")
    spec = _augment_spec(args.kind, args.rate, "--rate", f"--kind {args.kind}")
    ds = load_csv(args.infile, date_column=args.date_column)
    _check_window([args.kind], ds.length, "--kind", f"the rows of --in {args.infile}")
    # Whole series as one window: first half look-back, rest horizon.
    b = ds.length // 2
    rng = np.random.default_rng(args.seed)
    # Mixing kinds self-mix: a one-window pool, the series rolled by a quarter.
    pool = (Windows(np.roll(ds.values, ds.length // 4, axis=1)[None], b)
            if args.kind in MIX_KINDS else None)
    out = expand_dataset(Windows(ds.values[None], b), spec, 2, rng, pool=pool).data[1]
    write_csv(out, args.out, [args.date_column] + ds.channel_names, ds.timestamps)
    print(f"wrote {args.out}")
    if args.dump_spectrum:
        _dump_spectrum(ds.values, out, ds.channel_names, args.dump_spectrum)
        print(f"wrote {args.dump_spectrum}")
    return 0


def _dump_spectrum(original, augmented, names, path):
    """One row per rfft bin of each channel's amplitude, original then augmented, via write_csv."""
    amps = np.array([amplitude_spectrum(rfft(series[c]))
                     for c in range(len(names)) for series in (original, augmented)])
    header = ["bin"] + [f"{name}_{side}" for name in names for side in ("original", "augmented")]
    write_csv(amps, path, header, [str(k) for k in range(amps.shape[1])])


def cmd_spectrum(args):
    ds = load_csv(args.infile, date_column=args.date_column)
    _dump_spectrum(ds.values, ds.values, ds.channel_names, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_train(args):
    _check_least(args, "lookback", "horizon", "epochs", "seed")
    aug = _augment_spec(args.kind, args.rate, "--rate", f"--kind {args.kind}")
    _check_window([args.kind], args.lookback + args.horizon, "--kind", "--lookback + --horizon")
    ds = split_and_normalize(load_csv(args.dataset, date_column=args.date_column),
                             scheme=args.scheme)
    _check_window_fits(ds, args.lookback + args.horizon, "--lookback + --horizon")
    train_samples = make_windows(ds, "train", args.lookback, args.horizon)
    val_samples = make_windows(ds, "val", args.lookback, args.horizon)
    cfg = TrainConfig(seed=args.seed, max_epochs=args.epochs)
    model = DLinearModel.init_random(args.lookback, args.horizon, seed=args.seed)
    model, trace = train(model, train_samples, val_samples, cfg, aug=aug)
    test = evaluate(model, make_windows(ds, "test", args.lookback, args.horizon))
    model.save(args.out)
    print(f"test MSE {test.mse:.4f} MAE {test.mae:.4f}; checkpoint -> {args.out}")
    return 0


# fraug run's config: key -> (default, least value or allowed values or None).
CONFIG = {
    "protocol": ("longterm", PROTOCOLS),
    "dataset": (None, None),
    "date_column": ("date", None),
    "scheme": ("generic", tuple(sorted(SPLIT_SCHEMES))),
    "lookback": (96, LEAST["lookback"]),
    "horizons": ([96], LEAST["horizon"]),
    "kinds": (["freq_mask"], ALL_KINDS),
    "rate": (0.2, None),
    "rate_grid": (list(RATE_GRID), None),
    "select_rates": (False, None),
    "fraction": (0.01, None),
    "factors": ([2, 50], 1),
    "parts": (20, None),
    "seeds": ([0], LEAST["seed"]),
    "epochs": (20, LEAST["epochs"]),
    "out": ("runs/run", None),
}


def _has_type(value, kind):
    # JSON true/false are not numbers here; integers are valid floats.
    if kind is float:
        kind = (int, float)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _check_config_types(config, flags=None):
    """Each value has its CONFIG default's type (dataset: str) and bound; a
    list is non-empty (kinds may be empty: the "none" control always runs)
    and its items have the default items' type and the bound; no float is
    NaN or infinite, as manifest.json is strict JSON. Then coldstart and
    ttt take one horizon, ttt at least two parts, longterm no asd,
    0 < fraction <= 1, every kind accepts rate (and each rate_grid value
    under select_rates) and its windows span augment.MIN_WINDOW[kind], so
    a bad value fails before the dataset is loaded. A message names the
    flag that set a key's value, where `flags` maps the key to one.
    """
    flags = flags or {}
    for key, (default, bound) in CONFIG.items():
        value = config[key]
        if isinstance(default, list):
            item, items, must = type(default[0]), value, f"must hold {key}"
            ok = (isinstance(value, list) and (bool(value) or key == "kinds")
                  and all(_has_type(v, item) for v in value))
            want = f"a {'' if key == 'kinds' else 'non-empty '}list of {item.__name__}"
        else:
            item, items, must = str if default is None else type(default), [value], "must be"
            ok, want = _has_type(value, item), item.__name__
        if not ok:
            raise ValueError(f"config key {key!r} must be {want}, got {value!r}")
        for v in items:
            if isinstance(v, float):
                check_number(flags.get(key, f"config key {key!r}"), v, -math.inf, math.inf)
            if isinstance(bound, tuple) and v not in bound or isinstance(bound, int) and v < bound:
                rule = f"in ({', '.join(bound)})" if isinstance(bound, tuple) else f">= {bound}"
                where = f"{flags[key]} must be" if key in flags else f"config key {key!r} {must}"
                raise ValueError(f"{where} {rule}, got {v!r}")
    if config["protocol"] != "longterm" and len(config["horizons"]) != 1:
        raise ValueError(f"config key 'horizons' must hold one horizon for "
                         f"{config['protocol']}, got {config['horizons']!r}")
    if config["protocol"] == "ttt" and config["parts"] < 2:
        raise ValueError(f"config key 'parts' must be >= 2, got {config['parts']}")
    if config["protocol"] == "longterm" and "asd" in config["kinds"]:
        where = "--kind asd" if "kinds" in flags else "config key 'kinds' holding asd"
        raise ValueError(f"{where} does not suit protocol longterm: each training step "
                         f"would run a DTW against every training window; use protocol "
                         f"coldstart or ttt, which expand once from a small set")
    check_number(flags.get("fraction", "config key 'fraction'"), config["fraction"], 0.0, 1.0,
                 low_open=True)
    rates = [("rate", config["rate"])]
    if config["select_rates"]:
        rates += [("rate_grid", rate) for rate in config["rate_grid"]]
    for kind in config["kinds"]:
        for key, rate in rates:
            _augment_spec(kind, rate, flags.get(key, f"config key {key!r}"),
                          f"--kind {kind}" if "kinds" in flags else kind)
    _check_window(config["kinds"], config["lookback"] + min(config["horizons"]),
                  "config key 'kinds' holds", "config key 'lookback' plus the shortest horizon")


def _check_window_fits(ds, span, names, parts=None):
    """A window of `span` columns, set by the options `names`, is shorter
    than every span the run windows: with `parts` (ttt), parts of
    length // parts columns, otherwise the splits. A span no longer than
    the window holds none.
    """
    if parts is not None:
        limits = [(f"each of the {parts} parts (config key 'parts')", ds.length // parts)]
    else:
        limits = [(f"the {split} split", hi - lo) for split in ("train", "val", "test")
                  for lo, hi in [ds.split_range(split)]]
    for where, length in limits:
        if span >= length:
            raise ValueError(f"{names} give windows of {span} columns; they must be "
                             f"shorter than {where}, of length {length}")


def cmd_run(args):
    config = {key: default for key, (default, _) in CONFIG.items()}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except ValueError as exc:  # malformed JSON, or text that is not UTF-8
            raise ValueError(f"config file {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            found = {list: "an array", str: "a string", bool: "a boolean",
                     type(None): "null"}.get(type(loaded), "a number")
            raise ValueError(f"config file {args.config} must hold a JSON object, got {found}")
        unknown = set(loaded) - set(CONFIG)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    # Flag overrides win over file values; --horizon, --kind and --seed
    # each give a one-item list (horizons, kinds, seeds).
    flags = {}
    for flag in ("protocol", "dataset", "scheme", "rate", "fraction", "out",
                 "horizon", "kind", "seed"):
        if (value := getattr(args, flag)) is not None:
            key = flag if flag in CONFIG else flag + "s"
            config[key] = value if key == flag else [value]
            flags[key] = f"--{flag}"
    if config["dataset"] is None:
        raise ValueError("no dataset configured (use --dataset or a config file)")
    _check_config_types(config, flags)

    ds = split_and_normalize(load_csv(config["dataset"],
                                      date_column=config["date_column"]),
                             scheme=config["scheme"])
    _check_window_fits(ds, config["lookback"] + max(config["horizons"]),
                       "config keys 'lookback' + 'horizons'",
                       config["parts"] if config["protocol"] == "ttt" else None)
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    cfg = TrainConfig(max_epochs=config["epochs"])
    dataset_id = Path(config["dataset"]).stem
    protocol = config["protocol"]
    common = dict(b=config["lookback"], seeds=tuple(config["seeds"]),
                  cfg=cfg, dataset_id=dataset_id)
    if protocol == "longterm":
        report = run_longterm(ds, config["horizons"], config["kinds"],
                              rate_grid=tuple(config["rate_grid"]),
                              select_rates=config["select_rates"],
                              fixed_rate=config["rate"], **common)
    elif protocol == "coldstart":
        report = run_coldstart(ds, config["horizons"][0], config["kinds"],
                               fraction=config["fraction"],
                               factors=tuple(config["factors"]),
                               rate=config["rate"], **common)
    else:
        report = run_ttt(ds, config["horizons"][0], config["kinds"],
                         parts=config["parts"], rate=config["rate"], **common)

    manifest = {"config": config, "version": __version__,
                "environment": _environment(args.argv)}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, allow_nan=False))
    report.write(out_dir)
    for line in report.summary_lines():
        print(line)
    return 0


def _environment(argv):
    """argv, the python, numpy and BLAS versions, and the git sha of the
    checkout fraug runs from (None outside one or without git)."""
    import subprocess  # only a completed run needs it, not every import of the CLI
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # a numpy whose show_config has no dicts mode
        blas = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"argv": argv, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "git_sha": sha}


def build_parser():
    parser = argparse.ArgumentParser(prog="fraug",
                                     description="Frequency-domain augmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--length", type=int, default=1000)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--tones", default="24:1", help="period:amp[,period:amp...]")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--trend", type=float, default=0.0)
    p.add_argument("--shift-at", type=int, default=None)
    p.add_argument("--shift-delta", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("augment", help="augment a series file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", choices=AUGMENT_KINDS, default="freq_mask")
    p.add_argument("--rate", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-spectrum", default=None)
    p.add_argument("--date-column", default="date")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("spectrum", help="dump amplitude spectra of a series file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--date-column", default="date")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("train", help="train one model, save a checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--scheme", choices=sorted(SPLIT_SCHEMES), default="generic")
    p.add_argument("--lookback", type=int, default=96)
    p.add_argument("--horizon", type=int, default=96)
    p.add_argument("--kind", choices=AUGMENT_KINDS, default="none")
    p.add_argument("--rate", type=float, default=0.2)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--date-column", default="date")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="config-driven experiment protocols")
    p.add_argument("--config", default=None)
    p.add_argument("--protocol", choices=PROTOCOLS, default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--scheme", choices=sorted(SPLIT_SCHEMES), default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--kind", choices=ALL_KINDS, default=None)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--fraction", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
