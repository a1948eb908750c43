"""Document primitives: canonical JSON, dotted-path access, typed comparison.

A document is a plain dict whose ``_id`` key is a string unique within its
collection; every other key is ordinary JSON data (null, bool, int, float,
string, array, object). Canonical serialization sorts object keys and uses
compact separators, so a given document value has exactly one line form and
round-trips byte-identically.

JSON distinguishes ``1`` from ``1.0`` from ``true``; Python's ``==`` does
not. All value comparison in the store goes through :func:`json_equals` and
:func:`compare_ordered`, which treat bool as its own type, unify int/float by
numeric value, and refuse cross-type ordering.
"""

from __future__ import annotations

import json
from typing import Any


class CorruptCollection(Exception):
    """A collection file contains a line that is not a canonical document."""

    def __init__(self, path: str, line_no: int, reason: str):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


def canonical_dumps(value: Any) -> str:
    """Serialize a JSON tree to its single canonical form.

    Keys sorted, compact separators, UTF-8 passthrough, non-finite floats
    rejected. Parsing the result and dumping it again yields the same bytes.
    """
    return _ENCODER.encode(value)


# One encoder for every call: json.dumps with arguments builds a new one per call.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
)


def _no_duplicate_keys(pairs):
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r} within one object")
            seen.add(key)
    return out


# One decoder for every line: json.loads with a hook builds a new one per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_no_duplicate_keys)


def parse_document_line(line: str, path: str = "<memory>", line_no: int = 0) -> dict:
    """Parse one NDJSON line into a document dict.

    Raises CorruptCollection on malformed JSON, duplicate keys inside any
    object, non-object top level, or a non-string ``_id``.
    """
    try:
        doc = _DECODER.decode(line)
    except ValueError as exc:
        raise CorruptCollection(path, line_no, str(exc)) from None
    if not isinstance(doc, dict):
        raise CorruptCollection(path, line_no, "document is not a JSON object")
    if "_id" in doc and not isinstance(doc["_id"], str):
        raise CorruptCollection(path, line_no, "_id must be a string")
    return doc


def get_path(doc: Any, field_path: str):
    """Resolve a dotted field path against a document.

    Returns ``(True, value)`` when every path segment resolves through
    nested objects, else ``(False, None)``. Arrays are not traversed; a path
    segment against a non-object is simply missing.
    """
    node = doc
    for part in field_path.split("."):
        if isinstance(node, dict) and part in node:
            node = node[part]
        else:
            return False, None
    return True, node


def is_scalar(value: Any) -> bool:
    """True for null, bool, number and string; False for array/object."""
    return value is None or isinstance(value, (bool, int, float, str))


def type_rank(value: Any) -> int:
    """Total-order rank used by sort and min/max: null < bool < number < string.

    Rank 0 is reserved for missing fields; arrays and objects have no rank.
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 2
    if isinstance(value, (int, float)):
        return 3
    if isinstance(value, str):
        return 4
    raise TypeError(f"no ordering for {type(value).__name__}")


def json_equals(a: Any, b: Any) -> bool:
    """Type-strict deep equality: bool never equals number, int equals float
    by value, arrays/objects compare recursively."""
    a_bool, b_bool = isinstance(a, bool), isinstance(b, bool)
    if a_bool or b_bool:
        return a_bool and b_bool and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(json_equals(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return False
        return all(json_equals(a[k], b[k]) for k in a)
    return False


def compare_ordered(a: Any, b: Any):
    """Three-way compare for ordering operators, or None when unordered.

    Ordering exists only within a type family: number with number, string
    with string, bool with bool (False < True). Everything else (null,
    arrays, objects, cross-type pairs) is unordered and yields None, which
    match treats as "comparison false".
    """
    a_bool, b_bool = isinstance(a, bool), isinstance(b, bool)
    if a_bool and b_bool:
        return (a > b) - (a < b)
    if a_bool or b_bool:
        return None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        fa, fb = float(a), float(b)
        return (fa > fb) - (fa < fb)
    if isinstance(a, str) and isinstance(b, str):
        return (a > b) - (a < b)
    return None


def scalar_key(value: Any):
    """Hashable grouping key that respects json_equals semantics for scalars."""
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("num", float(value))
    return ("str", value)
