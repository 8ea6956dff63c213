"""Frequency-domain data augmentation toolkit for time-series forecasting."""

__version__ = "0.1.0"

from .spectral import Spectrum, rfft, irfft, amplitude_spectrum
from .dataset import (TimeSeriesDataset, Windows, load_csv, split_and_normalize,
                      make_windows, take_last_fraction)
from .augment import (AugmentSpec, freq_mask, freq_mix, freq_mask_then_mix,
                      baseline_augment, dtw_distance, asd_augment, decompose,
                      mbb_augment, apply_augment, expand_dataset)
from .forecaster import (DLinearModel, TrainConfig, Metrics, loss_and_grads,
                         train, evaluate)
from .experiments import (ExperimentReport, cross_validate_rate, run_longterm,
                          run_coldstart, run_ttt, ttt_copy_schedule)
from .synth import SynthSpec, generate, write_csv

__all__ = [name for name in dir() if not name.startswith("_")]
