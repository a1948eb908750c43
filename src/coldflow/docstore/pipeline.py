"""Aggregation pipelines: a small, exactly specified MongoDB subset.

A pipeline is a JSON array of single-key stage objects, applied in order to
the collection's documents (insertion order). The full dialect:

``{"$match": {field: cond, ...}}``
    Implicit AND over fields. ``cond`` is either a literal (sugar for $eq)
    or an operator object drawn from $eq, $ne, $gt, $gte, $lt, $lte, $in,
    $exists. Equality is type-strict deep equality (bool is not a number;
    int and float unify by value). Ordering operators apply only within a
    type family (number/number, string/string, bool/bool with False < True);
    any cross-type or unordered comparison is false, never an error. A
    missing field fails every condition except ``{"$exists": false}``.
    ``$in`` takes a literal array and tests whole-value equality against
    each element.

``{"$project": {field: 1, ...}}`` or ``{"$project": {field: 0, ...}}``
    Pure inclusion or pure exclusion of dotted paths (``_id`` may be
    excluded from an inclusion spec). Inclusion mode applies iff any
    non-``_id`` flag is 1, or the spec is exactly ``{"_id": 1}``; exclusion
    mode removes only flag-0 paths. Inclusion rebuilds the nested shape for
    paths that resolve; ``_id`` is kept unless explicitly excluded.

``{"$sort": {field: 1 | -1, ...}}``
    Stable sort, keys applied with the first entry most significant.
    Values order by type rank (missing < null < bool < number < string)
    and naturally within a type. Array or object sort values raise
    BadFieldPath.

``{"$limit": n}`` / ``{"$skip": n}``
    Non-negative integers.

``{"$group": {"_id": expr, name: {"$sum"|"$avg"|"$min"|"$max": expr}
  or {"$count": {}}, ...}}``
    ``expr`` is ``"$field.path"`` or a literal. The group key must resolve
    to a scalar (missing resolves to null; array/object keys raise
    BadFieldPath). Output documents are ``{"_id": key, name: value, ...}``
    in first-appearance order of the key. $sum adds the numeric values in
    document order (no numeric values -> int 0); $avg is float64 sum/count
    over numeric values (none -> null); $min/$max use the sort ordering over
    non-null scalar values (none -> null); $count counts documents.

``{"$sample": {"n": n, "seed": s}}``
    Deterministic uniform sample without replacement: positions 0..N-1 are
    shuffled by ``random.Random(seed).shuffle`` (this exact primitive is
    part of the contract) and the documents at the first min(n, N) permuted
    positions are emitted in permuted order.

Unknown stage names, multi-key stage objects, or malformed stage bodies
raise PipelineSyntaxError at parse time.
"""

from __future__ import annotations

import random
from typing import Any

from coldflow.docstore.documents import (
    compare_ordered,
    get_path,
    is_scalar,
    json_equals,
    scalar_key,
    type_rank,
)


class PipelineSyntaxError(Exception):
    """The pipeline JSON does not conform to the stage grammar."""


class BadFieldPath(Exception):
    """A sort key or group expression resolved to an array or object."""


_MATCH_OPS = {"$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$exists"}
_ACCUMULATORS = {"$sum", "$avg", "$min", "$max", "$count"}


class AggregationPipeline:
    """A parsed, validated pipeline. Evaluate with :meth:`run`."""

    def __init__(self, stages: list[tuple[str, Any]]):
        self.stages = stages

    def run(self, docs: list[dict]) -> list[dict]:
        out = docs
        for name, body in self.stages:
            out = _STAGE_EVAL[name](out, body)
        # Deep-copy results so callers can mutate them without reaching
        # back into the store's in-memory snapshot.
        return [_deep_copy_json(d) for d in out]


def parse_pipeline(spec: list) -> AggregationPipeline:
    """Validate a list of stage objects into an AggregationPipeline."""
    if not isinstance(spec, list):
        raise PipelineSyntaxError("pipeline must be a JSON array of stages")
    stages = []
    for i, stage in enumerate(spec):
        if not isinstance(stage, dict) or len(stage) != 1:
            raise PipelineSyntaxError(f"stage {i}: expected a single-key object")
        (name, body), = stage.items()
        if name not in _STAGE_PARSE:
            raise PipelineSyntaxError(f"stage {i}: unknown stage {name!r}")
        _STAGE_PARSE[name](body, i)
        stages.append((name, body))
    return AggregationPipeline(stages)


# ---------------------------------------------------------------- parsing

def _parse_match(body, i):
    if not isinstance(body, dict):
        raise PipelineSyntaxError(f"stage {i}: $match body must be an object")
    for field, cond in body.items():
        if isinstance(cond, dict) and any(k.startswith("$") for k in cond):
            bad = set(cond) - _MATCH_OPS
            if bad:
                raise PipelineSyntaxError(
                    f"stage {i}: $match.{field}: unsupported operator(s) {sorted(bad)}"
                )
            if "$in" in cond and not isinstance(cond["$in"], list):
                raise PipelineSyntaxError(f"stage {i}: $match.{field}.$in needs an array")
            if "$exists" in cond and not isinstance(cond["$exists"], bool):
                raise PipelineSyntaxError(f"stage {i}: $match.{field}.$exists needs a bool")


def _parse_project(body, i):
    if not isinstance(body, dict) or not body:
        raise PipelineSyntaxError(f"stage {i}: $project body must be a non-empty object")
    flags = set()
    for field, flag in body.items():
        if flag not in (0, 1) or isinstance(flag, bool):
            raise PipelineSyntaxError(f"stage {i}: $project.{field} must be 0 or 1")
        if field != "_id":
            flags.add(flag)
    if flags == {0, 1}:
        raise PipelineSyntaxError(f"stage {i}: $project mixes inclusion and exclusion")
    for field in body:
        for other in body:
            if other != field and other.startswith(field + "."):
                raise PipelineSyntaxError(
                    f"stage {i}: $project paths collide: {field!r} and {other!r}"
                )


def _parse_sort(body, i):
    if not isinstance(body, dict) or not body:
        raise PipelineSyntaxError(f"stage {i}: $sort body must be a non-empty object")
    for field, direction in body.items():
        if direction not in (1, -1) or isinstance(direction, bool):
            raise PipelineSyntaxError(f"stage {i}: $sort.{field} must be 1 or -1")


def _parse_count_arg(body, i, name):
    if not isinstance(body, int) or isinstance(body, bool) or body < 0:
        raise PipelineSyntaxError(f"stage {i}: {name} needs a non-negative integer")


def _parse_group(body, i):
    if not isinstance(body, dict) or "_id" not in body:
        raise PipelineSyntaxError(f"stage {i}: $group needs an _id expression")
    for name, acc in body.items():
        if name == "_id":
            continue
        if not isinstance(acc, dict) or len(acc) != 1:
            raise PipelineSyntaxError(f"stage {i}: $group.{name}: expected one accumulator")
        (op, _), = acc.items()
        if op not in _ACCUMULATORS:
            raise PipelineSyntaxError(f"stage {i}: $group.{name}: unknown accumulator {op!r}")


def _parse_sample(body, i):
    if (
        not isinstance(body, dict)
        or set(body) != {"n", "seed"}
        or not isinstance(body["n"], int)
        or isinstance(body["n"], bool)
        or body["n"] < 0
        or not isinstance(body["seed"], int)
        or isinstance(body["seed"], bool)
    ):
        raise PipelineSyntaxError(f'stage {i}: $sample needs {{"n": int >= 0, "seed": int}}')


_STAGE_PARSE = {
    "$match": _parse_match,
    "$project": _parse_project,
    "$sort": _parse_sort,
    "$limit": lambda b, i: _parse_count_arg(b, i, "$limit"),
    "$skip": lambda b, i: _parse_count_arg(b, i, "$skip"),
    "$group": _parse_group,
    "$sample": _parse_sample,
}


# ------------------------------------------------------------- evaluation

def match_condition(doc: dict, field: str, cond) -> bool:
    """Evaluate one field condition of a $match stage against a document."""
    found, value = get_path(doc, field)
    if isinstance(cond, dict) and any(k.startswith("$") for k in cond):
        ops = cond
    else:
        ops = {"$eq": cond}
    for op, arg in ops.items():
        if op == "$exists":
            if found != arg:
                return False
            continue
        if not found:
            return False
        if op == "$eq":
            if not json_equals(value, arg):
                return False
        elif op == "$ne":
            if json_equals(value, arg):
                return False
        elif op == "$in":
            if not any(json_equals(value, item) for item in arg):
                return False
        else:
            c = compare_ordered(value, arg)
            if c is None:
                return False
            if op == "$gt" and not c > 0:
                return False
            if op == "$gte" and not c >= 0:
                return False
            if op == "$lt" and not c < 0:
                return False
            if op == "$lte" and not c <= 0:
                return False
    return True


def _eval_match(docs, body):
    return [d for d in docs if all(match_condition(d, f, c) for f, c in body.items())]


def _set_path(out: dict, parts: list[str], value):
    node = out
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def _del_path(node, parts: list[str]):
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            return
        node = node[part]
    if isinstance(node, dict):
        node.pop(parts[-1], None)


def _deep_copy_json(value):
    if isinstance(value, dict):
        return {k: _deep_copy_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_deep_copy_json(v) for v in value]
    return value


def _eval_project(docs, body):
    # Inclusion mode iff any non-_id flag is 1, or the spec is exactly
    # {"_id": 1}. In exclusion mode only flag-0 fields are removed.
    include = any(flag == 1 for field, flag in body.items() if field != "_id")
    include = include or body == {"_id": 1}
    out_docs = []
    for doc in docs:
        if include:
            out: dict = {}
            if body.get("_id", 1) == 1 and "_id" in doc:
                out["_id"] = doc["_id"]
            for field, flag in body.items():
                if field == "_id" or flag != 1:
                    continue
                found, value = get_path(doc, field)
                if found:
                    _set_path(out, field.split("."), _deep_copy_json(value))
        else:
            out = _deep_copy_json(doc)
            for field, flag in body.items():
                if flag == 0:
                    _del_path(out, field.split("."))
        out_docs.append(out)
    return out_docs


def sort_key_for(doc, field):
    """The key ``$sort`` orders documents by on one field: missing, then
    null, bool, number and string, each naturally within its type."""
    found, value = get_path(doc, field)
    if not found:
        return (0,)
    if not is_scalar(value):
        raise BadFieldPath(f"$sort on {field!r}: value is not a scalar")
    if value is None:
        return (1,)
    return (type_rank(value), float(value) if isinstance(value, (int, float))
            and not isinstance(value, bool) else value)


def _eval_sort(docs, body):
    out = list(docs)
    # Last key first: repeated stable sorts realize multi-key significance.
    for field, direction in reversed(list(body.items())):
        out.sort(key=lambda d: sort_key_for(d, field), reverse=direction == -1)
    return out


def _resolve_expr(doc, expr):
    """Group expressions: "$path" references or literals. Returns (found, value)."""
    if isinstance(expr, str) and expr.startswith("$"):
        return get_path(doc, expr[1:])
    return True, expr


def _eval_group(docs, body):
    order: list = []
    buckets: dict = {}
    for doc in docs:
        found, key_value = _resolve_expr(doc, body["_id"])
        if not found:
            key_value = None
        if not is_scalar(key_value):
            raise BadFieldPath("$group _id expression resolved to a non-scalar")
        key = scalar_key(key_value)
        if key not in buckets:
            buckets[key] = (key_value, [])
            order.append(key)
        buckets[key][1].append(doc)

    out = []
    for key in order:
        key_value, members = buckets[key]
        row = {"_id": key_value}
        for name, acc in body.items():
            if name == "_id":
                continue
            (op, expr), = acc.items()
            row[name] = _accumulate(op, expr, members)
        out.append(row)
    return out


def _accumulate(op, expr, members):
    if op == "$count":
        return len(members)
    values = []
    for doc in members:
        found, value = _resolve_expr(doc, expr)
        if found:
            values.append(value)
    if op in ("$sum", "$avg"):
        nums = [v for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if op == "$sum":
            return sum(nums) if nums else 0
        return float(sum(nums)) / len(nums) if nums else None
    # $min / $max over orderable scalars, null excluded like MongoDB.
    pool = [v for v in values if v is not None and is_scalar(v)]
    if not pool:
        return None
    def order_key(v):
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return (type_rank(v), float(v))
        return (type_rank(v), v)
    return min(pool, key=order_key) if op == "$min" else max(pool, key=order_key)


def _eval_sample(docs, body):
    positions = list(range(len(docs)))
    random.Random(body["seed"]).shuffle(positions)
    take = min(body["n"], len(docs))
    return [docs[p] for p in positions[:take]]


_STAGE_EVAL = {
    "$match": _eval_match,
    "$project": _eval_project,
    "$sort": _eval_sort,
    "$limit": lambda docs, n: docs[:n],
    "$skip": lambda docs, n: docs[n:],
    "$group": _eval_group,
    "$sample": _eval_sample,
}
