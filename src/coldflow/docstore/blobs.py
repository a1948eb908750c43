"""Binary blob storage for model artifacts: one ``models`` document each.

A model is stored as one line, ``{"_id", "total_bytes", "checksum",
"meta", "data"}``, where ``data`` is the weights in base64 and the
checksum is a 64-bit hash of the weights, so tampering or truncation is
detected on read. One insert writes the whole blob: a crash leaves at
most a torn final line, which a writer truncates when it first touches
the collection.

The model id is a content hash: blake2b-128 over the canonical meta JSON
(minus the volatile ``created`` key) plus the weight bytes. Identical
content therefore maps to an identical id, and re-putting is a no-op.
"""

from __future__ import annotations

import base64
import hashlib

from coldflow.docstore.documents import canonical_dumps

MODELS_COLLECTION = "models"


class ChecksumMismatch(Exception):
    """Decoded blob bytes do not match the stored checksum/length."""


def checksum64(data: bytes) -> str:
    """64-bit content checksum, hex encoded."""
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def model_content_id(meta: dict, weights: bytes) -> str:
    """Deterministic model id from meta (minus 'created') and weights."""
    stable_meta = {k: v for k, v in meta.items() if k != "created"}
    h = hashlib.blake2b(digest_size=16)
    h.update(canonical_dumps(stable_meta).encode("utf-8"))
    h.update(b"\x00")
    h.update(weights)
    return h.hexdigest()


def put_model(store, meta: dict, weights: bytes) -> str:
    """Store a model blob as one ``models`` document; returns its
    content-hash id. Re-putting identical content returns the existing id
    without writing; a stored blob under that id with another checksum or
    length raises ChecksumMismatch."""
    from coldflow.docstore.store import NotFound

    model_id = model_content_id(meta, weights)
    digest = checksum64(weights)
    try:
        existing = store.get(MODELS_COLLECTION, model_id)
    except NotFound:
        store.insert_many(MODELS_COLLECTION, [{
            "_id": model_id,
            "total_bytes": len(weights),
            "checksum": digest,
            "meta": meta,
            "data": base64.b64encode(weights).decode("ascii"),
        }])
        return model_id
    if existing.get("checksum") != digest or existing.get("total_bytes") != len(weights):
        raise ChecksumMismatch(f"model {model_id} already stored with different content")
    return model_id


def get_model(store, model_id: str) -> tuple[dict, bytes]:
    """Decode (meta, weights); raises NotFound / ChecksumMismatch. A
    document without ``data``, such as a chunked manifest from before
    blobs were one line, decodes to no bytes and so is a mismatch."""
    doc = store.get(MODELS_COLLECTION, model_id)
    weights = base64.b64decode(doc.get("data", ""))
    if len(weights) != doc["total_bytes"] or checksum64(weights) != doc["checksum"]:
        raise ChecksumMismatch(f"model {model_id}: blob does not match its checksum")
    return doc["meta"], weights
