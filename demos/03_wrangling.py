"""
From raw telemetry to training examples
=======================================

The wrangler turns each fridge's telemetry documents, the form the store
keeps them in, into one array block (timestamps, defrost flags and a
feature matrix), then cuts supervised examples from it: a fixed window of
features before each defrost and the defrost's duration as the target.
"""

from coldflow.docstore import parse_document_line
from coldflow.fridgesim import SimConfig, simulate_fleet
from coldflow.pipelines import midband_setpoints
from coldflow.telemetry import derive_features
from coldflow.wrangler import (
    document_columns,
    extract_defrost_examples,
    fridge_series,
    shift_for_lead_time,
    split_dataset,
)

# Simulate a month for two fridges and turn the readings into telemetry
# lines, as ingest stores them: first differences and distance-to-setpoint
# channels join the raw temperatures. The blocks are built from those
# lines parsed back into documents, as the pipeline reads them from the
# store.
config = SimConfig(n_fridges=2, days=30.0, seed=3)
examples = []
for spec, readings in simulate_fleet(config):
    docs = [parse_document_line(line)
            for line in derive_features(readings, midband_setpoints(spec)).lines]
    names = ("air_on_temperature", "air_on_diff")
    series = fridge_series([document_columns(docs, names)], names)[spec.fridge_id]
    print(f"{spec.fridge_id}: block of {series.features.shape[0]} readings x "
          f"{series.features.shape[1]} features")
    found, rejected = extract_defrost_examples(series, window_len=32, threshold=8.0)
    print(f"  {len(found)} examples, {len(rejected)} rejected")

    # A lead-time variant answers "what will the duration be, decided two
    # minutes ahead": same target, window shifted 120 s earlier.
    ahead = shift_for_lead_time(series, found[0], 120.0)
    print(f"  lead variant's window ends "
          f"{found[0].window_end_ts - ahead.window_end_ts:.0f}s earlier, "
          f"same target")
    examples.extend(found)

# The split fixes a seeded test set; training draws its validation examples
# from the rest.
ids = sorted(ex.event_id for ex in examples)
test = split_dataset(ids, test_fraction=0.1, val_fraction=0.1, seed=3)
print(f"{len(ids)} events: {len(test)} held out for test, "
      f"{len(ids) - len(test)} for training")
