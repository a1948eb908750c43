"""Aggregation dialect semantics, pinned cases plus randomized oracle checks."""

import random

import pytest

from coldflow.docstore import canonical_dumps, open_store, parse_pipeline
from coldflow.docstore.pipeline import BadFieldPath, PipelineSyntaxError

from naive_agg import evaluate as naive_evaluate


def run(docs, pipeline):
    return parse_pipeline(pipeline).run(docs)


TELEMETRY = [
    {"_id": "f1:0", "fridge_id": "f1", "timestamp": 0.0, "defrost_state": 0, "t": 3.1},
    {"_id": "f1:60", "fridge_id": "f1", "timestamp": 60.0, "defrost_state": 1, "t": 3.9},
    {"_id": "f1:120", "fridge_id": "f1", "timestamp": 120.0, "defrost_state": 1, "t": 4.8},
    {"_id": "f2:0", "fridge_id": "f2", "timestamp": 0.0, "defrost_state": 0, "t": 2.2},
    {"_id": "f2:60", "fridge_id": "f2", "timestamp": 60.0, "defrost_state": 1, "t": 2.9},
]


def test_match_sort_limit_chain():
    got = run(
        TELEMETRY,
        [
            {"$match": {"defrost_state": 1}},
            {"$sort": {"timestamp": 1}},
            {"$limit": 2},
        ],
    )
    assert [d["_id"] for d in got] == ["f1:60", "f2:60"]


def test_sort_is_stable():
    # Equal timestamps keep insertion order: f1:0 before f2:0.
    got = run(TELEMETRY, [{"$sort": {"timestamp": 1}}])
    assert [d["_id"] for d in got] == ["f1:0", "f2:0", "f1:60", "f2:60", "f1:120"]


def test_sort_descending_stable_too():
    docs = [{"_id": str(i), "k": i % 2} for i in range(6)]
    got = run(docs, [{"$sort": {"k": -1}}])
    assert [d["_id"] for d in got] == ["1", "3", "5", "0", "2", "4"]


def test_match_operators():
    docs = [{"_id": "a", "v": 5}, {"_id": "b", "v": 10}, {"_id": "c", "v": "10"}]
    assert [d["_id"] for d in run(docs, [{"$match": {"v": {"$gt": 5}}}])] == ["b"]
    assert [d["_id"] for d in run(docs, [{"$match": {"v": {"$gte": 5, "$lt": 10}}}])] == ["a"]
    assert [d["_id"] for d in run(docs, [{"$match": {"v": {"$in": [5, "10"]}}}])] == ["a", "c"]
    assert [d["_id"] for d in run(docs, [{"$match": {"v": {"$ne": 5}}}])] == ["b", "c"]


def test_int_float_unify_bool_does_not():
    docs = [{"_id": "i", "v": 1}, {"_id": "f", "v": 1.0}, {"_id": "b", "v": True}]
    got = run(docs, [{"$match": {"v": 1}}])
    assert [d["_id"] for d in got] == ["i", "f"]
    got = run(docs, [{"$match": {"v": True}}])
    assert [d["_id"] for d in got] == ["b"]


def test_missing_field_fails_everything_except_exists_false():
    docs = [{"_id": "has", "v": 1}, {"_id": "not"}]
    assert [d["_id"] for d in run(docs, [{"$match": {"v": {"$ne": 99}}}])] == ["has"]
    assert [d["_id"] for d in run(docs, [{"$match": {"v": {"$exists": False}}}])] == ["not"]
    assert [d["_id"] for d in run(docs, [{"$match": {"v": {"$exists": True}}}])] == ["has"]
    assert run(docs, [{"$match": {"v": {"$lt": 100}}}]) == [{"_id": "has", "v": 1}]


def test_cross_type_comparison_is_false_not_error():
    docs = [{"_id": "s", "v": "abc"}, {"_id": "n", "v": 3}]
    assert run(docs, [{"$match": {"v": {"$gt": 10}}}]) == []
    assert [d["_id"] for d in run(docs, [{"$match": {"v": {"$lt": "zzz"}}}])] == ["s"]


def test_nested_dotted_paths():
    docs = [{"_id": "a", "m": {"k": 4}}, {"_id": "b", "m": {"k": 9}}, {"_id": "c", "m": 3}]
    assert [d["_id"] for d in run(docs, [{"$match": {"m.k": {"$gte": 5}}}])] == ["b"]


def test_project_inclusion_and_exclusion():
    docs = [{"_id": "a", "x": 1, "y": 2, "m": {"k": 3, "j": 4}}]
    assert run(docs, [{"$project": {"x": 1}}]) == [{"_id": "a", "x": 1}]
    assert run(docs, [{"$project": {"x": 1, "_id": 0}}]) == [{"x": 1}]
    assert run(docs, [{"$project": {"m.k": 1}}]) == [{"_id": "a", "m": {"k": 3}}]
    assert run(docs, [{"$project": {"y": 0, "m.j": 0}}]) == [
        {"_id": "a", "x": 1, "m": {"k": 3}}
    ]


def test_group_accumulators():
    docs = [
        {"_id": "1", "s": "A", "v": 2},
        {"_id": "2", "s": "A", "v": 4},
        {"_id": "3", "s": "B", "v": 10},
        {"_id": "4", "s": "B"},
    ]
    got = run(
        docs,
        [
            {
                "$group": {
                    "_id": "$s",
                    "n": {"$count": {}},
                    "total": {"$sum": "$v"},
                    "mean": {"$avg": "$v"},
                    "lo": {"$min": "$v"},
                    "hi": {"$max": "$v"},
                }
            }
        ],
    )
    assert got == [
        {"_id": "A", "n": 2, "total": 6, "mean": 3.0, "lo": 2, "hi": 4},
        {"_id": "B", "n": 2, "total": 10, "mean": 10.0, "lo": 10, "hi": 10},
    ]


def test_group_missing_key_goes_to_null_and_sum_of_nothing_is_zero():
    docs = [{"_id": "1", "v": 3}, {"_id": "2", "g": "x"}]
    got = run(docs, [{"$group": {"_id": "$g", "t": {"$sum": "$missing"}}}])
    assert got == [{"_id": None, "t": 0}, {"_id": "x", "t": 0}]


def test_group_first_appearance_order():
    docs = [{"_id": str(i), "g": g} for i, g in enumerate(["b", "a", "b", "c", "a"])]
    got = run(docs, [{"$group": {"_id": "$g", "n": {"$count": {}}}}])
    assert [d["_id"] for d in got] == ["b", "a", "c"]


def test_sample_deterministic_permutation_prefix():
    docs = [{"_id": str(i)} for i in range(30)]
    once = run(docs, [{"$sample": {"n": 10, "seed": 77}}])
    again = run(docs, [{"$sample": {"n": 10, "seed": 77}}])
    assert once == again
    full = run(docs, [{"$sample": {"n": 30, "seed": 77}}])
    assert once == full[:10]
    ids = [d["_id"] for d in once]
    assert len(set(ids)) == 10
    other_seed = run(docs, [{"$sample": {"n": 10, "seed": 78}}])
    assert once != other_seed


def test_sample_larger_than_collection_returns_all():
    docs = [{"_id": str(i)} for i in range(5)]
    got = run(docs, [{"$sample": {"n": 50, "seed": 1}}])
    assert sorted(d["_id"] for d in got) == [str(i) for i in range(5)]


def test_skip_and_limit():
    docs = [{"_id": str(i)} for i in range(10)]
    got = run(docs, [{"$skip": 3}, {"$limit": 4}])
    assert [d["_id"] for d in got] == ["3", "4", "5", "6"]
    assert run(docs, [{"$skip": 50}]) == []
    assert run(docs, [{"$limit": 0}]) == []


def test_unknown_stage_rejected():
    with pytest.raises(PipelineSyntaxError):
        parse_pipeline([{"$lookup": {"from": "other"}}])
    with pytest.raises(PipelineSyntaxError):
        parse_pipeline([{"$match": {"a": 1}, "$sort": {"a": 1}}])
    with pytest.raises(PipelineSyntaxError):
        parse_pipeline("not a list")


def test_bad_operator_rejected():
    with pytest.raises(PipelineSyntaxError):
        parse_pipeline([{"$match": {"a": {"$regex": "x"}}}])
    with pytest.raises(PipelineSyntaxError):
        parse_pipeline([{"$project": {"a": 1, "b": 0}}])
    with pytest.raises(PipelineSyntaxError):
        parse_pipeline([{"$sort": {"a": 2}}])
    with pytest.raises(PipelineSyntaxError):
        parse_pipeline([{"$limit": -1}])
    with pytest.raises(PipelineSyntaxError):
        parse_pipeline([{"$sample": {"n": 3}}])


def test_sort_on_non_scalar_is_bad_field_path():
    docs = [{"_id": "a", "v": [1, 2]}]
    with pytest.raises(BadFieldPath):
        run(docs, [{"$sort": {"v": 1}}])
    with pytest.raises(BadFieldPath):
        run([{"_id": "a", "v": {"m": 1}}], [{"$group": {"_id": "$v"}}])


def test_empty_pipeline_returns_all():
    assert run(TELEMETRY, []) == TELEMETRY


# ------------------------------------------------------- randomized oracle

FIELD_POOL = ["a", "b", "c", "s", "flag", "d.e"]
STRINGS = ["red", "green", "blue", "x", ""]


def random_value(rng, allow_container=True):
    roll = rng.random()
    if roll < 0.30:
        return rng.randint(-20, 20)
    if roll < 0.50:
        return round(rng.uniform(-20, 20), 2)
    if roll < 0.65:
        return rng.choice(STRINGS)
    if roll < 0.75:
        return rng.choice([True, False])
    if roll < 0.85:
        return None
    if allow_container and roll < 0.92:
        return [random_value(rng, False) for _ in range(rng.randint(0, 3))]
    return rng.randint(-20, 20)


def random_docs(rng, n):
    docs = []
    for i in range(n):
        doc = {"_id": f"doc{i}"}
        for field in ("a", "b", "c", "s", "flag"):
            if rng.random() < 0.8:
                if field == "s":
                    doc[field] = rng.choice(STRINGS)
                elif field == "flag":
                    doc[field] = rng.choice([True, False])
                else:
                    doc[field] = random_value(rng)
        if rng.random() < 0.5:
            doc["d"] = {"e": rng.randint(0, 5)}
        docs.append(doc)
    return docs


def random_pipeline(rng):
    """Random pipeline over the supported grammar.

    Sort/group keys draw from scalar-bearing fields only; "a"/"b"/"c" may
    hold arrays, which the dialect rejects for those stages, so they are
    excluded there.
    """
    scalar_fields = ["s", "flag", "d.e"]
    numeric_fields = ["d.e"]
    stages = []
    grouped = False
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(
            ["match", "match", "sort", "project", "limit", "skip", "group", "sample"]
        )
        if grouped and kind in ("group", "project", "sort", "match"):
            # After $group the field pool changes; keep it simple downstream.
            kind = rng.choice(["limit", "skip", "sample"])
        if kind == "match":
            field = rng.choice(FIELD_POOL)
            style = rng.random()
            if style < 0.4:
                cond = random_value(rng)
            elif style < 0.55:
                cond = {"$exists": rng.choice([True, False])}
            elif style < 0.7:
                cond = {"$in": [random_value(rng, False) for _ in range(rng.randint(0, 4))]}
            elif style < 0.85:
                op = rng.choice(["$gt", "$gte", "$lt", "$lte"])
                cond = {op: rng.choice([rng.randint(-20, 20), rng.choice(STRINGS)])}
            else:
                cond = {"$ne": random_value(rng, False)}
            stages.append({"$match": {field: cond}})
        elif kind == "sort":
            fields = rng.sample(scalar_fields, rng.randint(1, 2))
            stages.append({"$sort": {f: rng.choice([1, -1]) for f in fields}})
        elif kind == "project":
            if rng.random() < 0.5:
                picked = rng.sample(["a", "b", "s", "d.e"], rng.randint(1, 3))
                body = {f: 1 for f in picked}
                if rng.random() < 0.4:
                    body["_id"] = 0
            else:
                picked = rng.sample(["a", "b", "s", "d"], rng.randint(1, 2))
                body = {f: 0 for f in picked}
            stages.append({"$project": body})
        elif kind == "limit":
            stages.append({"$limit": rng.randint(0, 40)})
        elif kind == "skip":
            stages.append({"$skip": rng.randint(0, 40)})
        elif kind == "group":
            body = {"_id": rng.choice(["$s", "$flag", "$d.e", None])}
            for name, op in [("n", "$count"), ("t", "$sum"), ("m", "$avg"),
                             ("lo", "$min"), ("hi", "$max")]:
                if rng.random() < 0.5:
                    body[name] = {op: {}} if op == "$count" else {
                        op: rng.choice(["$d.e", "$a", 1, 2.5])
                    }
            stages.append({"$group": body})
            grouped = True
        else:
            stages.append({"$sample": {"n": rng.randint(0, 30), "seed": rng.randint(0, 9999)}})
    return stages


def test_random_pipelines_match_naive_evaluator():
    rng = random.Random(20260819)
    docs = random_docs(rng, 120)
    for trial in range(80):
        pipeline = random_pipeline(rng)
        got = parse_pipeline(pipeline).run(docs)
        want = naive_evaluate(docs, pipeline)
        got_s = [canonical_dumps(d) for d in got]
        want_s = [canonical_dumps(d) for d in want]
        assert got_s == want_s, f"trial {trial}: {pipeline}"


def test_random_pipelines_through_store(tmp_path):
    rng = random.Random(7)
    docs = random_docs(rng, 60)
    with open_store(tmp_path / "s") as store:
        store.insert_many("t", docs)
        for _ in range(20):
            pipeline = random_pipeline(rng)
            got = store.aggregate("t", pipeline)
            want = naive_evaluate(docs, pipeline)
            assert [canonical_dumps(d) for d in got] == [canonical_dumps(d) for d in want]
