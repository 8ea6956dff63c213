"""Golden outputs: rerun fraug's CLI and compare with a committed record.

tests/golden/record.json holds the argv of one `fraug synth` CSV, the
argv (and config file, where one is used) of each run on it, each
output's values with floats as repr, and the numpy version that wrote
it. The test reruns everything in a temporary directory and reports,
per output, whether it is bit-identical to the record. It fails when a
value differs by more than GOLDEN_RTOL times the largest |value| of its
output, or when a non-numeric cell differs at all: a last-bit move
passes and is reported, a changed draw or formula fails. report.json's
wall_clock_s and manifest.json's environment are not compared.

To rewrite the record from the code in src/ (say so in CHANGES.md, with
the largest difference, when it changes):

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np

from fraug.cli import AUGMENT_KINDS, main

RECORD = Path(__file__).parent / "golden" / "record.json"
GOLDEN_RTOL = 1e-12

# 432 rows, the paper's h=336 window length: above spectral._REAL_N, so
# fraug augment's whole-series transforms take the complex FFT.
SYNTH = ["synth", "--out", "series.csv", "--length", "432", "--channels", "1",
         "--tones", "24:1,7:0.5", "--noise", "0.3", "--trend", "0.002", "--seed", "5"]
CONFIGS = {
    "longterm": {"lookback": 16, "horizons": [8], "kinds": ["freq_mask", "freq_mix"],
                 "select_rates": True, "rate_grid": [0.1, 0.3], "epochs": 2, "seeds": [0, 1]},
    "coldstart": {"lookback": 16, "horizons": [8], "kinds": ["freq_mix", "freq_mask"],
                  "fraction": 0.1, "factors": [2, 5], "epochs": 2},
    "ttt": {"lookback": 32, "horizons": [16], "kinds": ["mbb", "freq_mask"],
            "parts": 3, "epochs": 2},
}


def planned_runs():
    """The runs of the record: one fraug augment per kind, one fraug run per protocol."""
    runs = [{"argv": ["augment", "--in", "series.csv", "--kind", kind, "--seed", "7",
                      "--out", f"{kind}.csv", "--dump-spectrum", f"{kind}_spectrum.csv"]}
            for kind in AUGMENT_KINDS]
    for protocol, config in CONFIGS.items():
        config = {"protocol": protocol, "dataset": "series.csv", **config, "out": protocol}
        runs.append({"argv": ["run", "--config", f"{protocol}.json"], "config": config})
    return runs


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_output(path):
    """An output's values: a CSV's header and its columns, cells as ints or
    floats where they parse; JSON as parsed."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        return {"header": header, "columns": [[_cell(c) for c in col] for col in zip(*rows)]}
    value = json.loads(path.read_text())
    value.pop("wall_clock_s", None)
    value.pop("environment", None)
    return value


def rerun(synth, runs, workdir):
    """Run `synth` and then each run in workdir; each run's outputs by file name."""
    assert main(synth) == 0
    results = []
    for run in runs:
        argv = run["argv"]
        if "config" in run:
            (workdir / argv[-1]).write_text(json.dumps(run["config"]))
        assert main(argv) == 0, argv
        if argv[0] == "augment":
            paths = [workdir / argv[argv.index(flag) + 1] for flag in ("--out", "--dump-spectrum")]
        else:
            paths = sorted((workdir / run["config"]["out"]).iterdir())
        results.append({path.name: read_output(path) for path in paths})
    return results


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(got, want):
    """(bit_identical, largest |difference| / largest |value|, first mismatch or None)."""
    got, want = list(_leaves(got)), list(_leaves(want))
    if [p for p, _ in got] != [p for p, _ in want]:
        return False, float("inf"), "the outputs have different shapes"
    scale = max((abs(v) for _, v in want if _is_number(v)), default=0.0) or 1.0
    largest, mismatch = 0.0, None
    for (where, a), (_, b) in zip(got, want):
        if _is_number(a) and _is_number(b):
            largest = max(largest, abs(a - b) / scale)
        elif a != b and mismatch is None:
            mismatch = f"{where}: {a!r} != {b!r}"
    identical = mismatch is None and all(a == b for (_, a), (_, b) in zip(got, want))
    return identical, largest, mismatch


def test_outputs_match_the_golden_record(tmp_path, monkeypatch, capsys):
    record = json.loads(RECORD.read_text())
    monkeypatch.chdir(tmp_path)
    results = rerun(record["synth"], record["runs"], tmp_path)
    capsys.readouterr()
    identical, moved, failures = [], [], []
    for run, got in zip(record["runs"], results):
        assert sorted(got) == sorted(run["outputs"]), run["argv"]
        folder = f"{run['config']['out']}/" if "config" in run else ""
        for name, want in run["outputs"].items():
            same, largest, mismatch = compare(got[name], want)
            (identical if same else moved).append(f"{folder}{name} ({largest:.3g})")
            if mismatch or largest > GOLDEN_RTOL:
                failures.append(f"{folder}{name}: largest relative change {largest:.3g}"
                                + (f", {mismatch}" if mismatch else ""))
    with capsys.disabled():
        print(f"\ngolden record (numpy {record['numpy']}, here {np.__version__}): "
              f"{len(identical)} outputs bit-identical, {len(moved)} moved"
              + "".join(f"\n  moved: {line}" for line in moved))
    assert not failures, "\n".join(failures)


def write_record(workdir):
    runs = planned_runs()
    # One line per output, so a changed record diffs output by output.
    lines = []
    for run, outputs in zip(runs, rerun(SYNTH, runs, workdir)):
        body = ",\n".join(f"   {json.dumps(name)}: {json.dumps(value)}"
                          for name, value in outputs.items())
        lines.append(f'  {json.dumps(run)[:-1]}, "outputs": {{\n{body}}}}}')
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(f'{{"numpy": {json.dumps(np.__version__)}, "synth": {json.dumps(SYNTH)},\n'
                      f' "runs": [\n' + ",\n".join(lines) + "]}\n")


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_record(Path(tmp))
    print(f"wrote {RECORD}", file=sys.stderr)
