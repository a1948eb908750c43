"""
Learning to see a failure a day early
=====================================

Failing fridges drift before they die: the warming rate creeps up and the
control loop starts hunting. The simulator injects that signature, work
orders mark when the engineer finally came, and the wrangler joins the two
into labeled windows that end a full 24 hours before each fault.

The pre-fault signature a day out is faint, so this demo simulates a
mid-sized fleet and takes 15 to 20 seconds.
"""

import numpy as np

from coldflow.docstore import parse_document_line
from coldflow.fridgesim import (
    SimConfig,
    WORKORDER_PATTERNS,
    fleet_specs,
    plan_faults,
    simulate_fleet,
    workorders_for_plans,
)
from coldflow.neural import TrainConfig, predict_labels, train
from coldflow.pipelines import midband_setpoints
from coldflow.telemetry import derive_features
from coldflow.wrangler import (
    Workorder,
    balance_classes,
    document_columns,
    fridge_series,
    merge_faults,
)

config = SimConfig(n_fridges=150, days=4.0, seed=21)
specs = fleet_specs(config)
plans = plan_faults(specs, config, n_faults=120, seed=21)
orders = workorders_for_plans(plans, specs, seed=21, noise_orders=5)
print("a work order:", orders[0][0])

# Each fridge's readings become telemetry lines, as the store keeps them,
# read back as documents and then as one array block.
features = ("air_on_temperature", "air_off_temperature", "air_on_diff",
            "targetTemp_on", "targetTemp_off")
series = {}
for spec, readings in simulate_fleet(config, fault_plans=plans):
    docs = [parse_document_line(line)
            for line in derive_features(readings, midband_setpoints(spec)).lines]
    series.update(fridge_series([document_columns(docs, features)], features))

# The join parses free-text orders with the configured patterns, cuts a
# positive window 24h before each matched fault, and samples negatives
# far from any fault on the same fridge.
examples, stats = merge_faults(
    series, [Workorder(text, ts) for text, ts in orders],
    horizon_seconds=86400.0, window_len=64, patterns=WORKORDER_PATTERNS, seed=21,
)
examples = balance_classes(examples, seed=21)
print(f"{stats.positives} positives, {stats.negatives} negatives, "
      f"{stats.skipped_workorders} unparseable orders skipped")

# Train a small classifier and check it on a slice it never saw.
held_out = examples[::5]
seen = [e for i, e in enumerate(examples) if i % 5]
X = np.stack([e.observed for e in seen])
labels = [e.label for e in seen]
# The 24h-ahead signature is subtle (the control loop hunts at a fraction
# of a degree), so this one earns its second layer.
result = train(X, labels, TrainConfig(cell="lstm", layers=2, hidden=32,
                                      task="classification", epochs=60,
                                      batch_size=16, seed=21))
predicted, _ = predict_labels(result.artifact,
                              np.stack([e.observed for e in held_out]))
hits = sum(p == e.label for p, e in zip(predicted, held_out))
print(f"held-out accuracy {hits}/{len(held_out)}")
