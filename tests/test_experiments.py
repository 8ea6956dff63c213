import ast
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_windows_equal
from fraug import experiments
from fraug.augment import AugmentSpec, asd_augment, decompose, expand_dataset, freq_mask
from fraug.dataset import (TimeSeriesDataset, Windows, make_windows, span_windows,
                           split_and_normalize, take_last_fraction)
from fraug.experiments import (ExperimentReport, _part_bounds, _ttt_train_set,
                               cross_validate_rate, run_coldstart, run_longterm,
                               run_ttt, ttt_copy_schedule)
from fraug.forecaster import (DLinearModel, TrainConfig, evaluate, moving_average_matrix,
                              train)
from fraug.synth import SynthSpec, generate


def small_dataset(length=400, seed=0):
    values = generate(SynthSpec(length=length, channels=1, tones=[(20.0, 1.0)],
                                noise_std=0.3, seed=seed))
    ds = TimeSeriesDataset(values=values, channel_names=["x"])
    return split_and_normalize(ds, scheme="generic")


def quick_cfg(seed=0):
    return TrainConfig(learning_rate=1e-2, batch_size=16, max_epochs=3,
                       patience=3, seed=seed)


@pytest.fixture
def calls(monkeypatch):
    """Counts the protocols' train and expand_dataset calls; records each expansion factor."""
    counts = {"train": 0, "factors": []}

    def counted_train(*args, **kwargs):
        counts["train"] += 1
        return train(*args, **kwargs)

    def counted_expand(samples, spec, factor, rng):
        counts["factors"].append(factor)
        return expand_dataset(samples, spec, factor, rng)

    monkeypatch.setattr(experiments, "train", counted_train)
    monkeypatch.setattr(experiments, "expand_dataset", counted_expand)
    return counts


@pytest.fixture
def spy(monkeypatch):
    """spy(name) wraps experiments.<name>; it returns the list of (args, result) of its calls."""
    def wrap(name):
        seen, real = [], getattr(experiments, name)

        def spied(*args, **kwargs):
            seen.append((args, real(*args, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(experiments, name, spied)
        return seen

    return wrap


def train_val(ds, b, h):
    """The train and validation Windows sets that cross_validate_rate takes."""
    return make_windows(ds, "train", b, h), make_windows(ds, "val", b, h)


def fresh_fit(ds, b, h, cfg, seed, aug=None):
    """A freshly initialised model trained outside the protocols: (model, trace)."""
    model = DLinearModel.init_random(b, h, seed=seed)
    return train(model, make_windows(ds, "train", b, h), make_windows(ds, "val", b, h),
                 replace(cfg, seed=seed), aug=aug)


class TestCopySchedule:
    def test_reference_ramp(self):
        assert ttt_copy_schedule(8) == [1, 2, 2, 3, 3, 4, 4, 5]

    def test_endpoints(self):
        for n in range(2, 25):
            sched = ttt_copy_schedule(n)
            assert sched[0] == 1 and sched[-1] == 5
            assert sched == sorted(sched)

    def test_single_part(self):
        assert ttt_copy_schedule(1) == [5]

    def test_two_parts(self):
        assert ttt_copy_schedule(2) == [1, 5]

    def test_nineteen_parts(self):
        sched = ttt_copy_schedule(19)
        assert len(sched) == 19
        assert min(sched) == 1 and max(sched) == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            ttt_copy_schedule(0)


class TestCrossValidate:
    def test_singleton_grid(self):
        rate, per_rate, _ = cross_validate_rate(*train_val(small_dataset(), 16, 8),
                                                kind="freq_mask", grid=(0.3,), cfg=quick_cfg())
        assert rate == 0.3
        assert list(per_rate) == [0.3]

    def test_picks_argmin(self):
        rate, per_rate, _ = cross_validate_rate(*train_val(small_dataset(), 16, 8),
                                                kind="freq_mask", grid=(0.1, 0.3),
                                                cfg=quick_cfg())
        best = min(per_rate, key=lambda r: per_rate[r].mse)
        assert rate == best

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty rate grid"):
            cross_validate_rate(*train_val(small_dataset(), 16, 8), "freq_mask", grid=())

    def test_chosen_fit_equals_a_fresh_train(self):
        ds = small_dataset()
        rate, per_rate, (model, trace) = cross_validate_rate(
            *train_val(ds, 16, 8), "freq_mix", grid=(0.1, 0.3), cfg=quick_cfg(), seed=3)
        ref_model, ref_trace = fresh_fit(ds, 16, 8, quick_cfg(), 3,
                                         AugmentSpec(kind="freq_mix", rate=rate))
        for name, value in ref_model.params().items():
            np.testing.assert_array_equal(model.params()[name], value)
        assert trace == ref_trace
        assert per_rate[rate] == evaluate(ref_model, make_windows(ds, "val", 16, 8))

    def test_repeated_rate_trains_once(self, calls):
        rate, per_rate, _ = cross_validate_rate(*train_val(small_dataset(), 16, 8), "freq_mask",
                                                grid=(0.3, 0.1, 0.3), cfg=quick_cfg())
        assert calls["train"] == 2
        assert list(per_rate) == [0.1, 0.3] and rate in per_rate


class TestLongterm:
    def test_control_always_included(self):
        ds = small_dataset()
        rep = run_longterm(ds, horizons=[8], kinds=["freq_mask"], b=16,
                           cfg=quick_cfg(), select_rates=False)
        assert rep.kinds[0] == "none"
        assert {c.kind for c in rep.cells} == {"none", "freq_mask"}

    def test_cells_complete(self):
        ds = small_dataset()
        rep = run_longterm(ds, horizons=[4, 8], kinds=["freq_mask", "freq_mix"],
                           b=16, cfg=quick_cfg(), seeds=(0, 1), select_rates=False)
        # 3 kinds (with control) x 2 horizons x 2 seeds
        assert len(rep.cells) == 12
        for c in rep.cells:
            assert np.isfinite(c.mse) and np.isfinite(c.mae)
        assert rep.median_mse("none", 8) > 0

    def test_fixed_rate_recorded(self):
        ds = small_dataset()
        rep = run_longterm(ds, horizons=[8], kinds=["freq_mask"], b=16,
                           cfg=quick_cfg(), select_rates=False, fixed_rate=0.4)
        assert rep.chosen_rates["freq_mask/8"] == 0.4
        assert rep.chosen_rates["none/8"] == 0.0

    def test_rate_selection_from_grid(self):
        ds = small_dataset()
        rep = run_longterm(ds, horizons=[8], kinds=["freq_mask"], b=16,
                           cfg=quick_cfg(), select_rates=True, rate_grid=(0.1, 0.2))
        assert rep.chosen_rates["freq_mask/8"] in (0.1, 0.2)

    def test_rate_selection_runs_under_first_seed(self):
        ds = small_dataset()
        grid = (0.1, 0.3)
        rep = run_longterm(ds, horizons=[8], kinds=["freq_mask"], b=16,
                           cfg=quick_cfg(), seeds=(3,), select_rates=True,
                           rate_grid=grid)
        _, seed3, _ = cross_validate_rate(*train_val(ds, 16, 8), "freq_mask", grid=grid,
                                          cfg=quick_cfg(), seed=3)
        _, seed0, _ = cross_validate_rate(*train_val(ds, 16, 8), "freq_mask", grid=grid,
                                          cfg=quick_cfg(), seed=0)
        assert rep.rate_val_mse["freq_mask/8"] == {r: m.mse for r, m in seed3.items()}
        assert rep.rate_val_mse["freq_mask/8"] != {r: m.mse for r, m in seed0.items()}

    def test_first_seed_cell_is_the_grid_winner(self):
        """Reusing the grid's fit reports what a fresh train at the chosen rate gives."""
        ds = small_dataset()
        rep = run_longterm(ds, horizons=[8], kinds=["freq_mask"], b=16, cfg=quick_cfg(),
                           seeds=(3, 5), select_rates=True, rate_grid=(0.1, 0.3))
        rate = rep.chosen_rates["freq_mask/8"]
        test = make_windows(ds, "test", 16, 8)
        for seed, cell in zip((3, 5), [c for c in rep.cells if c.kind == "freq_mask"]):
            model, trace = fresh_fit(ds, 16, 8, quick_cfg(), seed,
                                     AugmentSpec(kind="freq_mask", rate=rate))
            m = evaluate(model, test)
            assert (cell.seed, cell.rate, cell.mse, cell.mae) == (seed, rate, m.mse, m.mae)
            assert cell.extra == {"train_loss": trace.train_loss, "val_loss": trace.val_loss,
                                  "best_epoch": trace.best_epoch}

    @pytest.mark.parametrize("horizons,seeds,kinds,grid", [
        ([8], (0,), ["freq_mask"], (0.1, 0.2, 0.3, 0.4, 0.5)),
        ([4, 8], (0, 1), ["freq_mask", "freq_mix"], (0.1, 0.3, 0.2)),
    ])
    def test_training_count(self, calls, horizons, seeds, kinds, grid):
        # H * (S + K * (G + S - 1)): the grid's winner is the first seed's cell.
        cfg = TrainConfig(batch_size=64, max_epochs=1)
        run_longterm(small_dataset(), horizons=horizons, kinds=kinds, b=16, cfg=cfg,
                     seeds=seeds, select_rates=True, rate_grid=grid)
        H, S, K, G = len(horizons), len(seeds), len(kinds), len(grid)
        assert calls["train"] == H * (S + K * (G + S - 1))

    def test_every_set_made_before_the_first_fit(self, calls, spy):
        # h=60 leaves no window in the 43-row validation split of a 432-row series.
        made = spy("make_windows")
        with pytest.raises(ValueError, match="window exceeds split"):
            run_longterm(small_dataset(length=432), horizons=[8, 60], kinds=["freq_mask"],
                         b=16, cfg=quick_cfg(), select_rates=False)
        assert calls["train"] == 0
        # The spy records returned calls; the next, h=60's val set, raised.
        assert [args[1:] for args, _ in made] == [
            ("train", 16, 8), ("val", 16, 8), ("test", 16, 8), ("train", 16, 60)]

    def test_rate_selection_reuses_the_horizons_sets(self, spy):
        made = spy("make_windows")
        run_longterm(small_dataset(), horizons=[4, 8], kinds=["freq_mask", "freq_mix"], b=16,
                     cfg=TrainConfig(batch_size=64, max_epochs=1), select_rates=True,
                     rate_grid=(0.1, 0.3))
        assert len(made) == 3 * 2

    def test_json_round_trip(self):
        ds = small_dataset()
        rep = run_longterm(ds, horizons=[8], kinds=["freq_mask"], b=16,
                           cfg=quick_cfg(), select_rates=False)
        doc = json.loads(rep.to_json())
        assert doc["protocol"] == "longterm"
        assert len(doc["cells"]) == len(rep.cells)
        assert rep.summary_lines()


class TestColdstart:
    def test_basic_run(self):
        ds = small_dataset(length=800)
        rep = run_coldstart(ds, h=8, kinds=["freq_mask"], b=16, fraction=0.2,
                            factors=(2, 4), cfg=quick_cfg())
        assert rep.protocol == "coldstart"
        kinds = {c.kind for c in rep.cells}
        assert kinds == {"none", "freq_mask"}
        for c in rep.cells:
            if c.kind == "none":
                assert c.extra["factor"] == 1
            else:
                assert c.extra["factor"] in (2, 4)

    def test_train_subset_size_recorded(self):
        ds = small_dataset(length=800)
        rep = run_coldstart(ds, h=8, kinds=[], b=16, fraction=0.1,
                            cfg=quick_cfg())
        n_windows = 800 * 7 // 10 - 16 - 8  # generic train split window count
        expected = int(0.1 * n_windows)
        assert all(c.extra["n_train"] == expected for c in rep.cells)


    @pytest.mark.parametrize("factors", [(2, 4), (5, 2, 5, 3)])
    def test_cells_equal_expanding_per_factor(self, factors):
        """Expanding once and slicing gives what the per-factor expansion gave."""
        ds = small_dataset(length=800)
        cfg, b, h, fraction, rate = quick_cfg(), 16, 8, 0.2, 0.3
        rep = run_coldstart(ds, h=h, kinds=["freq_mask", "freq_mix"], b=b,
                            fraction=fraction, factors=factors, cfg=cfg, seeds=(0, 1),
                            rate=rate)
        train_small = take_last_fraction(make_windows(ds, "train", b, h), fraction)
        val = make_windows(ds, "val", b, h)
        test = make_windows(ds, "test", b, h)
        for cell in rep.cells:
            best = None
            for factor in (1,) if cell.kind == "none" else factors:
                expanded = expand_dataset(train_small, AugmentSpec(kind=cell.kind, rate=rate),
                                          factor, np.random.default_rng(cell.seed))
                model = DLinearModel.init_random(b, h, seed=cell.seed)
                model, _ = train(model, expanded, val, replace(cfg, seed=cell.seed))
                v, t = evaluate(model, val), evaluate(model, test)
                if best is None or v.mse < best[0]:
                    best = (v.mse, factor, t)
            _, factor, t = best
            assert (cell.extra["factor"], cell.mse, cell.mae) == (factor, t.mse, t.mae)

    def test_test_split_scored_once_per_kind_and_seed(self, calls, spy):
        made, scored = spy("make_windows"), spy("evaluate")
        run_coldstart(small_dataset(length=800), h=8, kinds=["freq_mask", "freq_mix"], b=16,
                      fraction=0.1, factors=(2, 5, 10), cfg=quick_cfg(), seeds=(0, 1))
        test = next(result for args, result in made if args[1] == "test")
        assert sum(args[1] is test for args, _ in scored) == 3 * 2
        # Each seed: the control's val and test, then per kind 3 factors' val and one test.
        assert len(scored) == 2 * (2 + 2 * (3 + 1))
        assert calls["train"] == 2 * (1 + 2 * 3)

    def test_one_expansion_per_augmented_kind_and_seed(self, calls):
        run_coldstart(small_dataset(length=800), h=8, kinds=["freq_mask", "freq_mix"], b=16,
                      fraction=0.1, factors=(2, 50, 2), cfg=quick_cfg(), seeds=(0, 1))
        assert calls["factors"] == [50] * 4
        # Each seed: the control once, then each distinct factor once per kind.
        assert calls["train"] == 2 * (1 + 2 * 2)


class TestTtt:
    def test_part_count_and_losses(self):
        ds = small_dataset(length=600)
        rep = run_ttt(ds, h=4, kinds=["freq_mask"], b=8, parts=4,
                      cfg=quick_cfg())
        for c in rep.cells:
            assert len(c.extra["part_losses"]) == 3  # parts - 1 rounds
            assert c.mse == pytest.approx(np.mean(c.extra["part_losses"]))
            assert c.extra["copy_schedule"] == ttt_copy_schedule(3)

    def test_two_parts_degenerate(self):
        ds = small_dataset(length=600)
        rep = run_ttt(ds, h=4, kinds=[], b=8, parts=2, cfg=quick_cfg())
        (cell,) = rep.cells
        assert cell.kind == "none"
        assert len(cell.extra["part_losses"]) == 1

    def test_too_many_parts_rejected(self):
        ds = small_dataset(length=600)
        with pytest.raises(ValueError):
            run_ttt(ds, h=4, kinds=[], b=8, parts=50, cfg=quick_cfg())

    def test_short_part_zero_rejected_before_any_fit(self, calls):
        # 600 // 50 = 12 columns per part hold no window of b+h = 12.
        with pytest.raises(ValueError, match=re.escape(
                "part 0 of length 12 must be longer than b+h = 12")):
            run_ttt(small_dataset(length=600), h=4, kinds=["freq_mask"], b=8, parts=50,
                    cfg=quick_cfg())
        assert calls == {"train": 0, "factors": []}

    @pytest.mark.parametrize("parts", [0, 1, -3])
    def test_fewer_than_two_parts_rejected(self, parts):
        ds = small_dataset(length=600)
        with pytest.raises(ValueError, match="parts must be an integer >= 2"):
            run_ttt(ds, h=4, kinds=["freq_mask"], b=8, parts=parts, cfg=quick_cfg())

    def test_rounds_made_once_before_the_loops(self, calls, spy):
        spans, scored = spy("span_windows"), spy("evaluate")
        rep = run_ttt(small_dataset(length=600), h=4, kinds=["freq_mask"], b=8, parts=5,
                      cfg=quick_cfg(), seeds=(0, 1))
        assert len(spans) == 2 * (5 - 1)
        # Still one train and one evaluate per round, kind and seed.
        assert calls["train"] == len(scored) == 2 * 2 * (5 - 1)
        assert all(len(c.extra["part_losses"]) == 5 - 1 for c in rep.cells)

    def test_deterministic_given_seed(self):
        ds = small_dataset(length=600)
        reps = [run_ttt(ds, h=4, kinds=["freq_mask"], b=8, parts=3,
                        cfg=quick_cfg(), seeds=(7,)) for _ in range(2)]
        a = [c.mse for c in reps[0].cells]
        b = [c.mse for c in reps[1].cells]
        assert a == b

    @pytest.mark.parametrize("kind", ["freq_mask", "freq_mix"])
    def test_train_set_is_originals_then_each_parts_copies(self, kind):
        # Five parts of 10 columns; with b+h = 12 the fourth part holds
        # 8 windows and the fifth none.
        ds = small_dataset(length=300)
        bounds = _part_bounds(ds.length, 30)[:5]
        ws = span_windows(ds.values, 0, bounds[-1][1], 8, 4)
        spec = AugmentSpec(kind=kind, rate=0.3)
        got = _ttt_train_set(ws, bounds, spec, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        expected = list(ws)
        for (lo, hi), copies in zip(bounds, ttt_copy_schedule(len(bounds))):
            part = ws[lo:hi]
            if part:
                expected += list(expand_dataset(part, spec, copies + 1, rng))[len(part):]
        assert len(ws) == 38 and len(got) == 38 + 10 * (1 + 2 + 3) + 8 * 4
        assert got.data.flags.c_contiguous
        assert_windows_equal(got, [(s.lookback, s.horizon) for s in expected])


@pytest.mark.parametrize("run,kwargs,name", [
    (run_longterm, dict(horizons=[8], seeds=()), "seeds"),
    (run_longterm, dict(horizons=[8], seeds=(), select_rates=False), "seeds"),
    (run_coldstart, dict(h=8, seeds=()), "seeds"),
    (run_coldstart, dict(h=8, factors=()), "factors"),
    (run_coldstart, dict(h=8, factors=(2, 0)), "factors[1]"),
    (run_ttt, dict(h=4, parts=3, seeds=[]), "seeds"),
    (run_coldstart, dict(h=8, factors=(2.5,)), "factors[0]"),
    (run_coldstart, dict(h=8, factors=(2, True)), "factors[1]"),
    (run_longterm, dict(horizons=[8], seeds=np.array([], int)), "seeds"),
    (run_coldstart, dict(h=8, factors=np.array([], int)), "factors"),
])
def test_empty_seeds_or_bad_factors_rejected_before_training(calls, run, kwargs, name):
    # An empty argument is named whole, a bad factor by its index.
    rule = "an integer >= 1" if name.endswith("]") else "non-empty"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be {rule}"):
        run(small_dataset(), kinds=["freq_mask"], b=8, cfg=quick_cfg(), **kwargs)
    assert calls == {"train": 0, "factors": []}


def _strict_report(report, out_dir):
    """report.json as written to out_dir, parsed as strict JSON, without wall_clock_s."""
    out_dir.mkdir()
    report.write(out_dir)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads((out_dir / "report.json").read_text(), parse_constant=reject)
    del doc["wall_clock_s"]
    return doc


@pytest.mark.parametrize("seeds", [[0], [0, 1]])
def test_numpy_array_arguments_give_the_plain_int_report(tmp_path, seeds):
    ds = small_dataset()
    runs = {
        "longterm": lambda seeds, sizes: run_longterm(
            ds, horizons=sizes, kinds=["freq_mask"], b=16, cfg=quick_cfg(), seeds=seeds,
            select_rates=False),
        "coldstart": lambda seeds, sizes: run_coldstart(
            ds, h=8, kinds=["freq_mask"], b=16, fraction=0.2, factors=sizes,
            cfg=quick_cfg(), seeds=seeds),
    }
    for name, run in runs.items():
        plain = _strict_report(run(seeds, [8]), tmp_path / f"{name}-plain")
        arrays = _strict_report(run(np.array(seeds), np.array([8])), tmp_path / f"{name}-np")
        assert arrays == plain


@pytest.mark.parametrize("run,kwargs,message", [
    (run_ttt, dict(h=4, parts=1, seeds=()), "parts must be an integer >= 2"),
    (run_ttt, dict(h=4, parts=2.5, seeds=()), "parts must be an integer >= 2, got 2.5"),
    (run_coldstart, dict(h=8, seeds=(), factors=()), "seeds must be non-empty"),
])
def test_first_bad_argument_named(calls, run, kwargs, message):
    """run_ttt checks parts before seeds, run_coldstart seeds before factors."""
    with pytest.raises(ValueError, match=f"^{message}"):
        run(small_dataset(), kinds=["freq_mask"], b=8, cfg=quick_cfg(), **kwargs)
    assert calls == {"train": 0, "factors": []}


@pytest.mark.parametrize("run,kwargs,message", [
    (run_longterm, dict(horizons=[8], kinds=["bogus"], select_rates=False),
     "unknown augmentation kind 'bogus'"),
    (run_longterm, dict(horizons=[8], kinds=["freq_mix"], rate_grid=(0.1, 0.7)),
     "mix rate must be <= 0.5, got 0.7"),
    (run_longterm, dict(horizons=[8], kinds=["freq_mask"], rate_grid=()), "empty rate grid"),
    (run_coldstart, dict(h=8, kinds=["freq_mix"], rate=0.7), "mix rate must be <= 0.5, got 0.7"),
    (run_ttt, dict(h=8, kinds=["bogus"], parts=3), "unknown augmentation kind 'bogus'"),
], ids=["longterm-kind", "longterm-grid-rate", "longterm-empty-grid", "coldstart-rate",
        "ttt-kind"])
def test_bad_kind_rate_or_grid_rejected_before_any_fit(calls, run, kwargs, message):
    # These raised after the control's fits: 1, 2, 1, 1 and 2 train calls.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(small_dataset(length=432), b=16, cfg=quick_cfg(), **kwargs)
    assert calls == {"train": 0, "factors": []}


def test_ttt_makes_one_spec_per_augmented_kind(spy):
    # A spec was made every round: 19 for one kind and seed at parts=20.
    specs = spy("AugmentSpec")
    run_ttt(small_dataset(length=600), h=4, kinds=["freq_mask"], b=8, parts=20,
            cfg=quick_cfg(), seeds=(0,))
    assert [args for args, _ in specs] == [()]
    assert specs[0][1] == AugmentSpec(kind="freq_mask", rate=0.2)


@pytest.mark.parametrize("run,kwargs", [
    (run_longterm, dict(horizons=[8], rate_grid=())),
    (run_longterm, dict(horizons=[8], select_rates=False, fixed_rate=2.0)),
    (run_coldstart, dict(h=8, fraction=0.2, factors=(2,), rate=2.0)),
    (run_ttt, dict(h=8, parts=3, rate=2.0)),
], ids=["longterm-empty-grid", "longterm-fixed-rate", "coldstart", "ttt"])
def test_control_only_run_checks_no_rate(run, kwargs):
    rep = run(small_dataset(length=600), kinds=["none"], b=16, cfg=quick_cfg(), **kwargs)
    assert [(c.kind, c.rate) for c in rep.cells] == [("none", 0.0)]


def test_summary_lines_skip_a_kind_and_horizon_without_cells():
    rep = ExperimentReport.start("longterm", "d", 8, [4, 8], ["freq_mask"], [0])
    rep.add("none", 4, 0, 0.0, 1.0, 0.5)
    rep.add("freq_mask", 8, 0, 0.3, 2.0, 0.5)
    assert rep.summary_lines() == [
        "protocol=longterm dataset=d b=8",
        f"  h=4    {'none':<24} rate=0.0   median MSE=1.0000",
        f"  h=8    {'freq_mask':<24} rate=0.3   median MSE=2.0000"]


def test_json_turns_an_array_extra_into_a_list_and_rejects_other_objects():
    rep = ExperimentReport.start("ttt", "d", 8, [4], [], [0])
    rep.add("none", 4, 0, 0.0, 1.0, 0.5, losses=np.array([1.5, np.float64(2.0)]),
            count=np.int64(3))
    extra = json.loads(rep.to_json())["cells"][0]["extra"]
    assert extra == {"losses": [1.5, 2.0], "count": 3}
    rep.add("none", 4, 1, 0.0, 1.0, 0.5, model=object())
    with pytest.raises(TypeError, match="not JSON serializable: <class 'object'>"):
        rep.to_json()


RUNNERS = {
    "longterm": (run_longterm, dict(horizons=[8], select_rates=False, fixed_rate=0.3)),
    "coldstart": (run_coldstart, dict(h=8, fraction=0.2, factors=(2,), rate=0.3)),
    "ttt": (run_ttt, dict(h=8, parts=3, rate=0.3)),
}


@pytest.mark.parametrize("kinds", [["freq_mask"], ["freq_mask", "none"],
                                   ["none", "freq_mask", "none"]])
@pytest.mark.parametrize("protocol", RUNNERS)
def test_control_first_at_rate_zero(protocol, kinds):
    run, kwargs = RUNNERS[protocol]
    rep = run(small_dataset(length=600), kinds=kinds, b=16, cfg=quick_cfg(),
              seeds=(0, 1), **kwargs)
    assert rep.kinds == ["none", "freq_mask"]
    assert [(c.kind, c.seed, c.rate) for c in rep.cells] == [
        ("none", 0, 0.0), ("none", 1, 0.0), ("freq_mask", 0, 0.3), ("freq_mask", 1, 0.3)]
    assert rep.chosen_rates == {"none/8": 0.0, "freq_mask/8": 0.3}
    assert rep.wall_clock_s > 0


def fit_uses(source):
    """{enclosing function name, None at module level: line numbers} naming
    ``train`` or ``init_random``, outside imports."""
    found = {}

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            else:
                name = None
            if name in ("train", "init_random"):
                found.setdefault(func, []).append(child.lineno)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(ast.parse(source), None)
    return found


EXPERIMENTS_SOURCE = Path(experiments.__file__).read_text()


@pytest.mark.parametrize("source,where", [
    ("fit = train", {None}),
    ("def f(m, a, b, c):\n    return train(m, a, b, c)", {"f"}),
    ("def g():\n    return forecaster.train", {"g"}),
    ("class A:\n    def h(self):\n        return DLinearModel.init_random(4, 2)", {"h"}),
    ("from .forecaster import DLinearModel, train\ndef f(train_set, aug=None):\n"
     "    return train_set.b", set()),
    (EXPERIMENTS_SOURCE.replace("        for seed in report.seeds:\n            part_losses",
                                "        train(None, None, None, None)\n"
                                "        for seed in report.seeds:\n            part_losses"),
     {"_fit", "run_ttt"}),
], ids=["alias", "call", "attribute", "method", "import-and-names", "train-in-run_ttt"])
def test_fit_detector_flags(source, where):
    assert set(fit_uses(source)) == where


def test_only_fit_trains_a_fresh_model():
    """_fit is the one place a protocol builds a DLinearModel and calls train."""
    assert set(fit_uses(EXPERIMENTS_SOURCE)) == {"_fit"}


def test_start_keeps_each_horizon_kind_and_seed_once():
    rep = ExperimentReport.start("longterm", "d", 8, [8, 4, 8], ["freq_mix", "none", "freq_mix"],
                                 [1, 0, np.int64(1)])
    assert (rep.horizons, rep.kinds, rep.seeds) == ([8, 4], ["none", "freq_mix"], [1, 0])


@pytest.mark.parametrize("protocol", list(RUNNERS))
def test_repeated_horizon_kind_or_seed_trains_and_reports_once(calls, protocol):
    run, kwargs = RUNNERS[protocol]
    if protocol == "longterm":
        kwargs = {**kwargs, "horizons": [8, 8]}
    rep = run(small_dataset(length=600), kinds=["freq_mask", "freq_mask"], b=16,
              cfg=quick_cfg(), seeds=(0, 0, 1), **kwargs)
    trained = calls["train"]
    once = run(small_dataset(length=600), kinds=["freq_mask"], b=16, cfg=quick_cfg(),
               seeds=(0, 1), **RUNNERS[protocol][1])
    assert [(c.kind, c.h, c.seed, c.mse) for c in rep.cells] == [
        (c.kind, c.h, c.seed, c.mse) for c in once.cells]
    assert (rep.horizons, rep.kinds, rep.seeds) == ([8], ["none", "freq_mask"], [0, 1])
    # Summary lines carry each median MSE, so seed 0 is counted once.
    assert rep.summary_lines() == once.summary_lines()
    assert calls["train"] == 2 * trained


def test_report_median_over_seeds():
    rep = ExperimentReport(protocol="x", dataset_id="d", b=1,
                           horizons=[1], kinds=["none"], seeds=[0, 1, 2])
    from fraug.experiments import CellResult
    for seed, mse in enumerate([1.0, 5.0, 2.0]):
        rep.cells.append(CellResult(kind="none", h=1, seed=seed, rate=0.0,
                                    mse=mse, mae=0.0))
    assert rep.median_mse("none", 1) == 2.0
    with pytest.raises(KeyError):
        rep.median_mse("missing", 1)


# Count sites no other test reaches: id -> (name in the message, least value, call).
COUNT_SITES = {
    "DLinearModel.b": ("b", 1, lambda v: DLinearModel(b=v, h=3)),
    "DLinearModel.h": ("h", 1, lambda v: DLinearModel(b=4, h=v)),
    "DLinearModel.kernel": ("kernel", 1, lambda v: DLinearModel(b=4, h=3, kernel=v)),
    "init_random.seed": ("seed", 0, lambda v: DLinearModel.init_random(4, 3, seed=v)),
    "ExperimentReport.start.seeds": ("seeds[1]", 0, lambda v: ExperimentReport.start(
        "longterm", "d", 8, [4], [], seeds=[0, v])),
    "run_ttt.parts": ("parts", 2, lambda v: run_ttt(
        small_dataset(length=300), h=4, kinds=[], b=8, parts=v, cfg=quick_cfg())),
    "ttt_copy_schedule": ("n_parts_seen", 1, ttt_copy_schedule),
    "asd_augment.k": ("k", 1, lambda v: asd_augment(
        np.zeros((1, 8)), np.arange(24.0).reshape(3, 1, 8), k=v)),
    "decompose.period": ("period", 2, lambda v: decompose(np.arange(20.0), v)),
    "moving_average_matrix.kernel": ("kernel", 1, lambda v: moving_average_matrix(6, v)),
    "generate.length": ("length", 1, lambda v: generate(SynthSpec(length=v))),
    "generate.channels": ("channels", 1, lambda v: generate(SynthSpec(length=10, channels=v))),
    "generate.seed": ("seed", 0, lambda v: generate(SynthSpec(length=10, seed=v))),
    "generate.shift_at": ("shift_at", 0, lambda v: generate(SynthSpec(length=10, shift_at=v))),
    "Windows.b": ("b", 0, lambda v: Windows(np.zeros((2, 1, 8)), v)),
    "freq_mask.keep_top": ("keep_top", 0, lambda v: freq_mask(
        np.zeros((1, 8)), 0.2, np.random.default_rng(0), keep_top=v)),
}


@pytest.mark.parametrize("bad", ["float", "bool", "below"])
@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_site_rejects_a_non_count_naming_it(site, bad):
    name, least, call = COUNT_SITES[site]
    value = {"float": 2.5, "bool": True, "below": least - 1}[bad]
    message = f"{name} must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_site_accepts_a_numpy_integer(site):
    name, least, call = COUNT_SITES[site]
    call(np.int64(least))
