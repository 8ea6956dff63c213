"""Train the decomposition-linear forecaster with and without masking.

Run with:  python3 demos/03_train_dlinear.py
"""

import numpy as np

from fraug.augment import AugmentSpec
from fraug.dataset import TimeSeriesDataset, make_windows, split_and_normalize
from fraug.forecaster import DLinearModel, TrainConfig, evaluate, train
from fraug.synth import SynthSpec, generate

values = generate(SynthSpec(length=2000, channels=2, tones=[(24.0, 1.0), (7.0, 0.3)],
                            noise_std=0.5, trend_slope=0.001, seed=0))
ds = split_and_normalize(TimeSeriesDataset(values=values,
                                           channel_names=["a", "b"]), "generic")

b, h = 96, 48
train_samples = make_windows(ds, "train", b, h)
val_samples = make_windows(ds, "val", b, h)
test_samples = make_windows(ds, "test", b, h)
print(f"windows: {len(train_samples)} train / {len(val_samples)} val / "
      f"{len(test_samples)} test")

cfg = TrainConfig(learning_rate=5e-3, batch_size=32, max_epochs=15, patience=3, seed=0)

for kind in ("none", "freq_mask"):
    model = DLinearModel.init_random(b, h, seed=0)
    aug = None if kind == "none" else AugmentSpec(kind=kind, rate=0.2)
    model, trace = train(model, train_samples, val_samples, cfg, aug=aug)
    m = evaluate(model, test_samples)
    print(f"\n{kind}: stopped after epoch {len(trace.train_loss)}, "
          f"best epoch {trace.best_epoch}")
    print(f"  val loss trajectory: "
          + " ".join(f"{v:.3f}" for v in trace.val_loss[:8])
          + (" ..." if len(trace.val_loss) > 8 else ""))
    print(f"  test MSE {m.mse:.4f}  MAE {m.mae:.4f}")
