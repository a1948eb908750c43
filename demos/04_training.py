"""
Training a duration model from scratch
======================================

The sequence models are plain numpy: stacked RNN or LSTM cells, trained by
backpropagation through time with Adam. Windows go in, one number comes
out - here, how many seconds a defrost will take.
"""

import numpy as np

from coldflow.docstore import parse_document_line
from coldflow.fridgesim import SimConfig, simulate_fleet
from coldflow.neural import TrainConfig, predict_values, train
from coldflow.pipelines import midband_setpoints
from coldflow.telemetry import derive_features
from coldflow.wrangler import (
    document_columns,
    extract_defrost_examples,
    fridge_series,
    split_dataset,
)

# Raw temperatures plus the derived channels: the first difference carries
# the warming rate and the setpoint distances identify the fridge.
FEATURES = ("air_on_temperature", "air_off_temperature", "air_on_diff",
            "targetTemp_on", "targetTemp_off")

# A small corpus: six fridges for ten days gives a few hundred defrosts.
examples = []
for spec, readings in simulate_fleet(SimConfig(n_fridges=6, days=10.0, seed=5)):
    docs = [parse_document_line(line)
            for line in derive_features(readings, midband_setpoints(spec)).lines]
    series = fridge_series([document_columns(docs, FEATURES)], FEATURES)[spec.fridge_id]
    found, _ = extract_defrost_examples(series, window_len=24, threshold=8.0)
    examples.extend(found)
print(f"{len(examples)} examples of {examples[0].observed.shape}")

# Hold out a seeded test set by defrost event.
test_ids = set(split_dataset(sorted(e.event_id for e in examples), 0.15, 0.15, 5))
train_ex = [e for e in examples if e.event_id not in test_ids]
test_ex = [e for e in examples if e.event_id in test_ids]

X = np.stack([e.observed for e in train_ex])
y = np.array([e.target_seconds for e in train_ex])

# The trainer z-scores features and target internally and reports a loss
# history; everything is seeded, so this run is reproducible.
config = TrainConfig(cell="lstm", layers=1, hidden=16, task="regression",
                     epochs=48, batch_size=32, seed=5)
result = train(X, y, config)
for stats in result.history[::8]:
    print(f"epoch {stats.epoch}: train {stats.train_loss:.1f}s "
          f"val {stats.val_loss:.1f}s")

# Compare against the constant-mean baseline on the held-out events.
X_test = np.stack([e.observed for e in test_ex])
y_test = np.array([e.target_seconds for e in test_ex])
preds = predict_values(result.artifact, X_test)
mae = float(np.abs(preds - y_test).mean())
baseline = float(np.abs(y.mean() - y_test).mean())
print(f"test MAE {mae:.1f}s vs constant-mean baseline {baseline:.1f}s "
      f"({100 * mae / baseline:.0f}%)")
