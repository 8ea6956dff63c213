import csv
import io
import json
import platform
import re

import numpy as np
import pytest

from fraug.augment import MIN_WINDOW, freq_mask_then_mix, freq_mix
from fraug.cli import AUGMENT_KINDS, CONFIG, _check_config_types, main
from fraug.dataset import load_csv
from fraug.forecaster import DLinearModel
from fraug.spectral import amplitude_spectrum, rfft
from fraug.synth import write_csv


def run_cli(*argv):
    return main(list(argv))


def read_spectrum_csv(path, n):
    """Parse a spectrum dump strictly: int bin index, then plain floats."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == n // 2 + 1
    values = []
    for k, row in enumerate(rows):
        assert len(row) == len(header)
        assert int(row[0]) == k
        values.append([float(cell) for cell in row[1:]])
    return header, np.array(values)


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def make_series(tmp_path, name="series.csv", length=400, channels=2, noise=0.3):
    path = tmp_path / name
    rc = run_cli("synth", "--out", str(path), "--length", str(length),
                 "--channels", str(channels), "--tones", "20:1",
                 "--noise", str(noise), "--seed", "3")
    assert rc == 0
    return path


class TestSynth:
    def test_writes_loadable_csv(self, tmp_path):
        path = make_series(tmp_path)
        ds = load_csv(path)
        assert ds.values.shape[0] == 2 and ds.length == 400

    def test_deterministic_bytes(self, tmp_path):
        a = make_series(tmp_path, "a.csv")
        b = make_series(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("synth", "--out", str(a), "--noise", "0.1", "--seed", "1")
        run_cli("synth", "--out", str(b), "--noise", "0.1", "--seed", "2")
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("flag,args", [
        ("--length", ["--length", "0"]),
        ("--channels", ["--channels", "0"]),
        ("--seed", ["--seed", "-1"]),
        ("--noise", ["--noise", "-1"]),
        ("--noise", ["--noise", "nan"]),
        ("--noise", ["--noise", "inf"]),
        ("--trend", ["--trend", "nan"]),
        ("--shift-delta", ["--shift-at", "3", "--shift-delta", "inf"]),
        ("--tones", ["--tones", "0:1"]),
        ("--tones", ["--tones", "24:x"]),
        ("--tones", ["--tones", "24:1,"]),
        ("--tones", ["--tones", "-5"]),
        ("--tones", ["--tones", "24:inf"]),
        ("--shift-at", ["--shift-at", "-3"]),
        ("--shift-at", ["--length", "100", "--shift-at", "100"]),
    ])
    def test_bad_flag_rejected_before_writing(self, tmp_path, capsys, flag, args):
        out = tmp_path / "series.csv"
        assert run_cli("synth", "--out", str(out), *args) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--length", "10", "--trend", "1e308"],
                                      ["--tones", "24:1e308,24:1e308"]])
    def test_overflowing_series_rejected_before_writing(self, tmp_path, capsys, args):
        out = tmp_path / "series.csv"
        assert run_cli("synth", "--out", str(out), *args) == 1
        err = capsys.readouterr().err
        assert "not finite" in err
        assert all(flag in err for flag in ("--length", "--trend", "--tones", "--noise",
                                            "--shift-delta"))
        assert not out.exists()

    def test_edge_flags_accepted(self, tmp_path):
        out = tmp_path / "series.csv"
        assert run_cli("synth", "--out", str(out), "--length", "1", "--channels", "1",
                       "--seed", "0", "--noise", "0", "--shift-at", "0",
                       "--tones", "0.5:-2,24") == 0
        assert load_csv(out).length == 1


class TestAugment:
    def test_basic(self, tmp_path):
        src = make_series(tmp_path)
        out = tmp_path / "aug.csv"
        rc = run_cli("augment", "--in", str(src), "--out", str(out),
                     "--kind", "freq_mask", "--rate", "0.3", "--seed", "5")
        assert rc == 0
        aug = load_csv(out)
        orig = load_csv(src)
        assert aug.values.shape == orig.values.shape
        assert not np.array_equal(aug.values, orig.values)
        assert aug.channel_names == ["ch0", "ch1"]
        assert aug.timestamps == orig.timestamps == [f"t{i:06d}" for i in range(400)]

    def test_keeps_header_and_dates(self, tmp_path):
        # The date column in the middle, a name and a date holding a comma.
        src, out = tmp_path / "in.csv", tmp_path / "aug.csv"
        values = np.random.default_rng(1).normal(size=(2, 120))
        dates = [f"2016-07-01 {i // 60:02d}:{i % 60:02d}:00" for i in range(120)]
        dates[5] = "Jul 1, 2016"
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["HU,FL", "when", "OT"])
            writer.writerows(zip(values[0].tolist(), dates, values[1].tolist()))
        assert run_cli("augment", "--in", str(src), "--out", str(out),
                       "--date-column", "when", "--seed", "1") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == 'when,"HU,FL",OT'
        assert lines[6].startswith('"Jul 1, 2016",')
        aug = load_csv(out, date_column="when")
        assert aug.channel_names == ["HU,FL", "OT"] and aug.timestamps == dates
        assert aug.values.shape == (2, 120) and not np.array_equal(aug.values, values)

    def test_dump_spectrum_columns(self, tmp_path):
        src = make_series(tmp_path, channels=1)
        out = tmp_path / "aug.csv"
        spec = tmp_path / "spec.csv"
        rc = run_cli("augment", "--in", str(src), "--out", str(out),
                     "--dump-spectrum", str(spec))
        assert rc == 0
        lines = spec.read_text().splitlines()
        assert lines[0] == "bin,ch0_original,ch0_augmented"
        assert len(lines) == 1 + 400 // 2 + 1  # header + floor(N/2)+1 bins

    def test_dump_spectrum_strict_floats(self, tmp_path):
        src = make_series(tmp_path, length=401)
        out = tmp_path / "aug.csv"
        spec = tmp_path / "spec.csv"
        assert run_cli("augment", "--in", str(src), "--out", str(out),
                       "--dump-spectrum", str(spec)) == 0
        header, values = read_spectrum_csv(spec, 401)
        assert header == ["bin", "ch0_original", "ch0_augmented",
                          "ch1_original", "ch1_augmented"]
        orig, aug = load_csv(src).values, load_csv(out).values
        for c in range(2):
            assert np.array_equal(values[:, 2 * c], amplitude_spectrum(rfft(orig[c])))
            assert np.array_equal(values[:, 2 * c + 1], amplitude_spectrum(rfft(aug[c])))

    def test_mix_kind_runs(self, tmp_path):
        src = make_series(tmp_path)
        out = tmp_path / "aug.csv"
        assert run_cli("augment", "--in", str(src), "--out", str(out),
                       "--kind", "freq_mix", "--rate", "0.2") == 0

    @pytest.mark.parametrize("kind,mix", [("freq_mix", freq_mix),
                                          ("freq_mask_then_mix", freq_mask_then_mix)])
    def test_mix_partner_is_the_series_rolled_by_a_quarter(self, tmp_path, kind, mix):
        # The one-window pool's draw takes nothing from the generator.
        src = make_series(tmp_path)
        out = tmp_path / "aug.csv"
        assert run_cli("augment", "--in", str(src), "--out", str(out),
                       "--kind", kind, "--rate", "0.3", "--seed", "5") == 0
        x = load_csv(src).values
        want = mix(x, np.roll(x, 400 // 4, axis=1), 0.3, np.random.default_rng(5))
        np.testing.assert_array_equal(load_csv(out).values, want)

    @pytest.mark.parametrize("kind", sorted(MIN_WINDOW))
    def test_series_shorter_than_the_kind_accepts_named(self, tmp_path, capsys, kind):
        least = MIN_WINDOW[kind]
        for length, rc in ((least - 1, 1), (least, 0)):
            src = make_series(tmp_path, f"in{length}.csv", length=length)
            out, spec = tmp_path / f"aug{length}.csv", tmp_path / f"spec{length}.csv"
            capsys.readouterr()
            assert run_cli("augment", "--in", str(src), "--out", str(out), "--kind", kind,
                           "--dump-spectrum", str(spec)) == rc
            assert out.exists() == spec.exists() == (rc == 0)
            if rc:
                assert capsys.readouterr().err == (
                    f"error: --kind {kind}, which needs the rows of --in {src} "
                    f">= {least}, got {length}\n")

    def test_asd_not_offered(self, tmp_path, capsys):
        # One whole-series window has no candidate pool for asd.
        src = make_series(tmp_path, length=200)
        with pytest.raises(SystemExit) as exc:
            run_cli("augment", "--in", str(src), "--out", str(tmp_path / "o.csv"),
                    "--kind", "asd")
        assert exc.value.code == 2
        assert "invalid choice: 'asd'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", AUGMENT_KINDS)
    def test_every_offered_kind_runs(self, tmp_path, kind):
        src = make_series(tmp_path, length=200)
        out = tmp_path / "aug.csv"
        assert run_cli("augment", "--in", str(src), "--out", str(out),
                       "--kind", kind, "--rate", "0.2") == 0
        assert load_csv(out).values.shape == (2, 200)

    def test_missing_input(self, tmp_path, capsys):
        rc = run_cli("augment", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.csv"))
        assert rc == 1
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", "-3", "--seed must be >= 0, got -3"),
        ("--rate", "1.5", "--rate does not suit --kind freq_mask: "
                          "rate must be in [0, 1], got 1.5"),
    ], ids=["seed", "rate"])
    def test_bad_flag_named_before_reading(self, tmp_path, capsys, flag, value, message):
        # The input does not exist: a flag checked after reading would
        # report the missing file instead.
        out = tmp_path / "o.csv"
        rc = run_cli("augment", "--in", str(tmp_path / "nope.csv"), "--out", str(out),
                     flag, value)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestSpectrum:
    def test_identical_columns(self, tmp_path):
        src = make_series(tmp_path, channels=1)
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--in", str(src), "--out", str(out)) == 0
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            _, a, b = row.split(",")
            assert a == b

    def test_strict_floats(self, tmp_path):
        src = make_series(tmp_path, length=400, channels=2)
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--in", str(src), "--out", str(out)) == 0
        _, values = read_spectrum_csv(out, 400)
        assert values.shape == (201, 4)
        values_ch0 = amplitude_spectrum(rfft(load_csv(src).values[0]))
        assert np.array_equal(values[:, 0], values_ch0)


    def test_bytes_match_csv_writer(self, tmp_path):
        # A channel name with a comma is quoted; 401 rows give an odd length.
        src = tmp_path / "in.csv"
        values = np.random.default_rng(4).normal(size=(2, 401))
        write_csv(values, src, ["date", "temp,C", "load"])
        spec, aug_spec, aug = (tmp_path / name for name in ("s.csv", "as.csv", "a.csv"))
        assert run_cli("spectrum", "--in", str(src), "--out", str(spec)) == 0
        assert run_cli("augment", "--in", str(src), "--out", str(aug),
                       "--dump-spectrum", str(aug_spec)) == 0
        for out, augmented in ((spec, values), (aug_spec, load_csv(aug).values)):
            buf = io.StringIO(newline="")
            writer = csv.writer(buf)
            writer.writerow(["bin", "temp,C_original", "temp,C_augmented",
                             "load_original", "load_augmented"])
            amps = [amplitude_spectrum(rfft(series[c]))
                    for c in range(2) for series in (values, augmented)]
            for k in range(201):
                writer.writerow([k] + [repr(float(a[k])) for a in amps])
            assert out.read_bytes() == buf.getvalue().encode()


class TestTrain:
    def test_writes_checkpoint(self, tmp_path, capsys):
        src = make_series(tmp_path)
        ckpt = tmp_path / "model.json"
        rc = run_cli("train", "--dataset", str(src), "--lookback", "16",
                     "--horizon", "8", "--epochs", "2", "--out", str(ckpt))
        assert rc == 0
        model = DLinearModel.load(ckpt)
        assert (model.b, model.h) == (16, 8)
        assert "test MSE" in capsys.readouterr().out

    def test_with_augmentation(self, tmp_path):
        src = make_series(tmp_path)
        ckpt = tmp_path / "model.json"
        rc = run_cli("train", "--dataset", str(src), "--lookback", "16",
                     "--horizon", "8", "--epochs", "2", "--kind", "freq_mask",
                     "--out", str(ckpt))
        assert rc == 0

    @pytest.mark.parametrize("flag,value,message", [
        ("--lookback", "0", "--lookback must be >= 1, got 0"),
        ("--horizon", "0", "--horizon must be >= 1, got 0"),
        ("--epochs", "-1", "--epochs must be >= 0, got -1"),
        ("--seed", "-3", "--seed must be >= 0, got -3"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
        ("--rate", "-0.1", "--rate does not suit --kind none: "
                           "rate must be in [0, 1], got -0.1"),
        ("--rate", "nan", "--rate does not suit --kind none: "
                          "rate must be in [0, 1], got nan"),
    ], ids=["lookback", "horizon", "epochs", "seed", "seed-least", "rate", "rate-nan"])
    def test_bad_flag_named_before_reading(self, tmp_path, capsys, flag, value, message):
        # The dataset does not exist: a flag checked after reading would
        # report the missing file instead.
        ckpt = tmp_path / "model.json"
        rc = run_cli("train", "--dataset", str(tmp_path / "nope.csv"),
                     "--out", str(ckpt), flag, value)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not ckpt.exists()

    def test_asd_not_offered(self, tmp_path, capsys):
        # Per-step asd runs a DTW against every training window.
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--dataset", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "model.json"), "--kind", "asd")
        assert exc.value.code == 2
        assert "invalid choice: 'asd'" in capsys.readouterr().err

    def test_mbb_window_named_before_reading(self, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        rc = run_cli("train", "--dataset", str(tmp_path / "nope.csv"), "--out", str(ckpt),
                     "--lookback", "20", "--horizon", "10", "--kind", "mbb")
        assert rc == 1
        assert capsys.readouterr().err == ("error: --kind mbb, which needs --lookback + "
                                           "--horizon >= 48, got 30\n")
        assert not ckpt.exists()

    def test_mix_rate_above_half_named_before_reading(self, tmp_path, capsys):
        rc = run_cli("train", "--dataset", str(tmp_path / "nope.csv"), "--out",
                     str(tmp_path / "model.json"), "--kind", "freq_mix", "--rate", "0.7")
        assert rc == 1
        assert "--rate does not suit --kind freq_mix: mix rate must be <= 0.5" in (
            capsys.readouterr().err)

    def test_window_longer_than_a_split_names_flags(self, tmp_path, capsys):
        # 400 rows split 280/40/80: a 56-column window fits no val window.
        src = make_series(tmp_path)
        ckpt = tmp_path / "model.json"
        rc = run_cli("train", "--dataset", str(src), "--lookback", "40",
                     "--horizon", "16", "--out", str(ckpt))
        assert rc == 1
        err = capsys.readouterr().err
        assert ("--lookback + --horizon give windows of 56 columns; they must be "
                "shorter than the val split, of length 40") in err
        assert not ckpt.exists()


class TestRun:
    def test_longterm_with_config(self, tmp_path, capsys):
        src = make_series(tmp_path)
        out_dir = tmp_path / "run1"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "protocol": "longterm",
            "dataset": str(src),
            "lookback": 16,
            "horizons": [8],
            "kinds": ["freq_mask"],
            "epochs": 2,
            "out": str(out_dir),
        }))
        rc = run_cli("run", "--config", str(config))
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text(),
                              parse_constant=reject_constant)
        assert manifest["config"]["dataset"] == str(src)
        env = manifest["environment"]
        assert env["argv"] == ["run", "--config", str(config)]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["git_sha"] is None or re.fullmatch("[0-9a-f]{40}", env["git_sha"])
        report = json.loads((out_dir / "report.json").read_text())
        assert report["protocol"] == "longterm"
        assert {c["kind"] for c in report["cells"]} == {"none", "freq_mask"}
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert trace[0] == "kind,h,seed,epoch,train_loss,val_loss"
        assert len(trace) > 1
        assert "median MSE" in capsys.readouterr().out

    def test_manifest_sha_is_null_without_git(self, monkeypatch):
        import subprocess

        from fraug.cli import _environment

        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(subprocess, "run", no_git)
        assert _environment(["run"])["git_sha"] is None

    def test_flag_overrides_config(self, tmp_path):
        src = make_series(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "dataset": str(src), "lookback": 16, "horizons": [8],
            "kinds": ["freq_mask"], "epochs": 2,
            "out": str(tmp_path / "runA"),
        }))
        rc = run_cli("run", "--config", str(config), "--kind", "freq_mix",
                     "--out", str(tmp_path / "runB"))
        assert rc == 0
        manifest = json.loads((tmp_path / "runB" / "manifest.json").read_text())
        assert manifest["config"]["kinds"] == ["freq_mix"]

    def test_ttt_writes_part_trace(self, tmp_path):
        src = make_series(tmp_path, length=600)
        out_dir = tmp_path / "runT"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "protocol": "ttt", "dataset": str(src), "lookback": 8,
            "horizons": [4], "kinds": [], "parts": 3, "epochs": 2,
            "out": str(out_dir),
        }))
        assert run_cli("run", "--config", str(config)) == 0
        parts = (out_dir / "ttt_parts.csv").read_text().splitlines()
        assert parts[0] == "kind,h,seed,part,test_mse"
        assert len(parts) == 3  # control only, parts-1 rounds

    def test_ttt_report_is_strict_json(self, tmp_path):
        src = make_series(tmp_path, length=600)
        out_dir = tmp_path / "runT"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "protocol": "ttt", "dataset": str(src), "lookback": 8,
            "horizons": [4], "kinds": ["freq_mask"], "parts": 3, "epochs": 2,
            "out": str(out_dir),
        }))
        assert run_cli("run", "--config", str(config)) == 0
        report = json.loads((out_dir / "report.json").read_text(),
                            parse_constant=reject_constant)
        assert [c["kind"] for c in report["cells"]] == ["none", "freq_mask"]
        for cell in report["cells"]:
            assert len(cell["extra"]["part_maes"]) == 2
            assert cell["mae"] == pytest.approx(np.mean(cell["extra"]["part_maes"]))
            # Early stopping validates on training windows; the report says so.
            assert cell["extra"]["val_in_sample"] is True

    def test_coldstart_runs(self, tmp_path):
        src = make_series(tmp_path)
        out_dir = tmp_path / "runC"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "protocol": "coldstart", "dataset": str(src), "lookback": 16,
            "horizons": [8], "kinds": ["freq_mask"], "factors": [1, 2],
            "fraction": 0.1, "epochs": 1, "out": str(out_dir),
        }))
        assert run_cli("run", "--config", str(config)) == 0
        report = json.loads((out_dir / "report.json").read_text(),
                            parse_constant=reject_constant)
        assert report["protocol"] == "coldstart"
        assert [c["kind"] for c in report["cells"]] == ["none", "freq_mask"]
        for cell in report["cells"]:
            # 400 rows: 280 training columns, 256 windows, the last 25 kept.
            assert cell["extra"]["factor"] in (1, 2)
            assert cell["extra"]["n_train"] == 25

    @pytest.mark.parametrize("flags,config,message", [
        (["--kind", "asd"], {}, "--kind asd does not suit"),
        ([], {"kinds": ["freq_mask", "asd"]}, "config key 'kinds' holding asd does not suit"),
    ], ids=["flag", "config"])
    def test_asd_refused_for_longterm_before_loading(self, tmp_path, capsys, flags,
                                                     config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": str(tmp_path / "absent.csv"), **config}))
        rc = run_cli("run", "--config", str(path), "--out", str(tmp_path / "run"), *flags)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {message} protocol longterm: each training step would run a DTW "
            f"against every training window; use protocol coldstart or ttt, which "
            f"expand once from a small set\n")
        assert not (tmp_path / "run").exists()
        # The protocols that expand once keep asd.
        for protocol in ("coldstart", "ttt"):
            _check_config_types({**{k: d for k, (d, _) in CONFIG.items()},
                                 "dataset": "absent.csv", "protocol": protocol,
                                 "kinds": ["asd"]})

    def test_jobs_flag_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_cli("run", "--dataset", str(tmp_path / "x.csv"), "--jobs", "2")
        assert "--jobs" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"bogus": 1}))
        assert run_cli("run", "--config", str(config)) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("override,key", [
        ({"kinds": "freq_mask"}, "kinds"),
        ({"seeds": 3}, "seeds"),
        ({"horizons": 24}, "horizons"),
        ({"rate": "0.2"}, "rate"),
        ({"lookback": 16.5}, "lookback"),
        ({"epochs": "2"}, "epochs"),
        ({"seeds": [True]}, "seeds"),
        ({"epochs": True}, "epochs"),
        ({"factors": []}, "factors"),
        ({"rate_grid": [0.1, "0.2"]}, "rate_grid"),
        ({"select_rates": 1}, "select_rates"),
        ({"dataset": 5}, "dataset"),
        ({"protocol": "ttt", "parts": 0}, "parts"),
        ({"seeds": [0, -1]}, "seeds"),
        ({"protocol": "bogus"}, "protocol"),
        ({"kinds": ["bogus"]}, "kinds"),
        ({"kinds": ["freq_mix"], "rate": 0.7}, "rate"),
        ({"kinds": ["freq_mask"], "rate": 1.5}, "rate"),
        ({"kinds": ["freq_mix"], "select_rates": True, "rate_grid": [0.2, 0.6]},
         "rate_grid"),
        ({"protocol": "coldstart", "horizons": [8, 12]}, "horizons"),
        ({"protocol": "ttt", "horizons": [8, 12]}, "horizons"),
        ({"protocol": "coldstart", "factors": [0]}, "factors"),
        ({"protocol": "coldstart", "factors": [2, -1]}, "factors"),
        ({"protocol": "coldstart", "fraction": 1.5}, "fraction"),
        ({"protocol": "coldstart", "fraction": 0.0}, "fraction"),
        ({"lookback": 0}, "lookback"),
        ({"horizons": [8, 0]}, "horizons"),
        ({"protocol": "ttt", "horizons": [0]}, "horizons"),
        ({"epochs": -1}, "epochs"),
        ({"kinds": ["mbb"]}, "kinds"),
        ({"protocol": "ttt", "kinds": ["freq_mask", "mbb"]}, "kinds"),
        ({"scheme": "bogus"}, "scheme"),
    ])
    def test_bad_config_value_rejected(self, tmp_path, capsys, override, key):
        src = make_series(tmp_path)
        out_dir = tmp_path / "run"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "dataset": str(src), "lookback": 16, "horizons": [8],
            "kinds": ["freq_mask"], "epochs": 2, "out": str(out_dir), **override,
        }))
        assert run_cli("run", "--config", str(config)) == 1
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (out_dir / "report.json").exists()
        assert not (out_dir / "manifest.json").exists()
        assert not out_dir.exists()

    @pytest.mark.parametrize("override,where", [
        ({"lookback": 40, "horizons": [16]}, "the val split, of length 40"),
        ({"lookback": 24, "horizons": [8, 16]}, "the val split, of length 40"),
        ({"protocol": "coldstart", "lookback": 32, "horizons": [8]},
         "the val split, of length 40"),
        ({"protocol": "ttt", "parts": 20, "lookback": 12, "horizons": [8]},
         "each of the 20 parts (config key 'parts'), of length 20"),
    ])
    def test_window_longer_than_a_span_rejected_before_output(self, tmp_path, capsys,
                                                              override, where):
        # 400 rows split 280/40/80; lookback + the longest horizon must be shorter.
        src = make_series(tmp_path)
        out_dir = tmp_path / "run"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dataset": str(src), "kinds": ["freq_mask"],
                                      "epochs": 1, "out": str(out_dir), **override}))
        assert run_cli("run", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert "config keys 'lookback' + 'horizons'" in err and where in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("override", [
        {"lookback": 23, "horizons": [8, 16]},
        {"protocol": "ttt", "parts": 20, "lookback": 11, "horizons": [8]},
    ])
    def test_window_one_shorter_than_a_span_runs(self, tmp_path, override):
        src = make_series(tmp_path)
        out_dir = tmp_path / "run"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dataset": str(src), "kinds": [], "epochs": 1,
                                      "out": str(out_dir), **override}))
        assert run_cli("run", "--config", str(config)) == 0
        assert (out_dir / "report.json").exists()

    def test_negative_seed_names_key_and_value(self, tmp_path, capsys):
        src = make_series(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dataset": str(src), "seeds": [-1],
                                      "out": str(tmp_path / "run")}))
        assert run_cli("run", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert "config key 'seeds' must hold seeds >= 0, got -1" in err

    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--horizon", "0"], "--horizon must be >= 1, got 0"),
        (["--rate", "0.9", "--kind", "freq_mix"],
         "--rate does not suit --kind freq_mix: mix rate must be <= 0.5, got 0.9"),
        (["--fraction", "2"], "--fraction must be in (0, 1], got 2.0"),
    ])
    def test_bad_flag_named(self, tmp_path, capsys, flags, message):
        # The dataset does not exist: a flag checked after reading would
        # report the missing file instead.
        rc = run_cli("run", "--dataset", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "run"), *flags)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_mbb_needs_two_periods_of_window(self, tmp_path, capsys):
        src = make_series(tmp_path, length=800)
        config = tmp_path / "cfg.json"
        for lookback, rc in ((39, 1), (40, 0)):
            config.write_text(json.dumps({
                "dataset": str(src), "lookback": lookback, "horizons": [8, 16],
                "kinds": ["mbb"], "epochs": 1, "out": str(tmp_path / f"run{lookback}"),
            }))
            assert run_cli("run", "--config", str(config)) == rc
        err = capsys.readouterr().err
        assert "config key 'kinds' holds mbb" in err and "'lookback'" in err
        assert "shortest horizon >= 48, got 47" in err

    def test_seeds_accepted(self, tmp_path):
        src = make_series(tmp_path)
        out_dir = tmp_path / "run"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "dataset": str(src), "lookback": 16, "horizons": [8], "kinds": [],
            "seeds": [0, 7], "epochs": 1, "out": str(out_dir),
        }))
        assert run_cli("run", "--config", str(config)) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert sorted({c["seed"] for c in report["cells"]}) == [0, 7]

    def test_unknown_protocol_rejected_before_loading(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"protocol": "bogus",
                                      "dataset": str(tmp_path / "absent.csv")}))
        assert run_cli("run", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert "'protocol'" in err and "'bogus'" in err and "absent.csv" not in err

    def test_unknown_scheme_rejected_before_loading(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scheme": "bogus",
                                      "dataset": str(tmp_path / "absent.csv")}))
        assert run_cli("run", "--config", str(config)) == 1
        assert capsys.readouterr().err == (
            "error: config key 'scheme' must be in (ett-hourly, ett-minute, generic), "
            "got 'bogus'\n")

    @pytest.mark.parametrize("text,found", [("null", "null"), ("5", "a number"),
                                            ('"abc"', "a string"), ("[1]", "an array")])
    def test_config_that_is_not_an_object_names_the_file(self, tmp_path, capsys, text, found):
        config, out_dir = tmp_path / "cfg.json", tmp_path / "run"
        config.write_text(text)
        assert run_cli("run", "--config", str(config), "--dataset",
                       str(tmp_path / "absent.csv"), "--out", str(out_dir)) == 1
        assert capsys.readouterr().err == (
            f"error: config file {config} must hold a JSON object, got {found}\n")
        assert not out_dir.exists()

    def test_malformed_config_names_the_file(self, tmp_path, capsys):
        config, out_dir = tmp_path / "cfg.json", tmp_path / "run"
        config.write_text('{"lookback": 16\n"epochs": 2}')
        assert run_cli("run", "--config", str(config), "--dataset",
                       str(tmp_path / "absent.csv"), "--out", str(out_dir)) == 1
        assert capsys.readouterr().err == (
            f"error: config file {config}: Expecting ',' delimiter: "
            f"line 2 column 1 (char 16)\n")
        assert not out_dir.exists()

    def test_int_accepted_for_float_key(self, tmp_path):
        src = make_series(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "dataset": str(src), "lookback": 16, "horizons": [8], "kinds": [],
            "rate": 0, "epochs": 1, "out": str(tmp_path / "run"),
        }))
        assert run_cli("run", "--config", str(config)) == 0

    def test_no_dataset(self, capsys):
        assert run_cli("run", "--protocol", "longterm") == 1
        assert "dataset" in capsys.readouterr().err

    def test_missing_dataset_file(self, tmp_path, capsys):
        rc = run_cli("run", "--dataset", str(tmp_path / "absent.csv"))
        assert rc == 1
        assert "absent.csv" in capsys.readouterr().err


LEAST_KEYS = [key for key, (_, bound) in CONFIG.items() if isinstance(bound, int)]


def test_least_bounded_config_keys():
    assert sorted(LEAST_KEYS) == ["epochs", "factors", "horizons", "lookback", "seeds"]


@pytest.mark.parametrize("key", LEAST_KEYS)
def test_config_least_value_is_the_edge(key):
    # No data: the table alone decides, before any file is read.
    default, least = CONFIG[key]
    config = {k: d for k, (d, _) in CONFIG.items()}
    config["dataset"] = "absent.csv"
    wrap = (lambda v: [v]) if isinstance(default, list) else (lambda v: v)
    config[key] = wrap(least)
    _check_config_types(config)
    config[key] = wrap(least - 1)
    with pytest.raises(ValueError, match=f"^config key '{key}' must .*>= {least}, "
                                         f"got {least - 1}$"):
        _check_config_types(config)
