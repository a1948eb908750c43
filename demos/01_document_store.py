"""
The embedded document store
===========================

A coldflow project keeps everything - telemetry, training examples, model
weights, reports - in one NDJSON-backed document store. This walkthrough
covers the daily moves: insert, look up, aggregate, and model blobs.
"""

import tempfile

from coldflow.docstore import open_store

workdir = tempfile.mkdtemp(prefix="coldflow-demo-")

# A store is a directory; collections are append-only NDJSON files inside it.
with open_store(workdir + "/store") as store:
    store.insert_many("fridges", [
        {"_id": "F0001", "store_id": "S001", "power_kw": 3.2},
        {"_id": "F0002", "store_id": "S001", "power_kw": 1.8},
        {"_id": "F0003", "store_id": "S002", "power_kw": 2.4},
    ])

    # Point lookups go through _id; $match selects by any field.
    print("one fridge:", store.get("fridges", "F0002"))
    in_s001 = store.aggregate("fridges", [{"$match": {"store_id": "S001"}}])
    print("store S001:", [d["_id"] for d in in_s001])

    # The aggregation dialect is a typed subset of the MongoDB pipeline
    # grammar: $match, $project, $sort, $limit, $skip, $group, $sample.
    per_store = store.aggregate("fridges", [
        {"$group": {"_id": "$store_id", "n": {"$count": {}},
                    "kw": {"$sum": "$power_kw"}}},
        {"$sort": {"_id": 1}},
    ])
    for row in per_store:
        print(f"store {row['_id']}: {row['n']} fridges, {row['kw']:.1f} kW")

    # Model weights are one content-addressed document each: the id is a
    # hash of metadata plus bytes, so identical models dedupe.
    weights = b"\x00\x01" * 1000
    model_id = store.put_model({"name": "demo", "task": "none"}, weights)
    meta, loaded = store.get_model(model_id)
    assert loaded == weights
    print("model", model_id, "round-tripped", len(weights), "bytes")
