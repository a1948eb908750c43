"""Chunked binary blob storage for model artifacts.

Large byte strings are split into chunks of at most MODEL_CHUNK_BYTES,
base64-encoded into the ``model_chunks`` collection, and described by a
manifest document in ``models``. The manifest records chunk ids in order,
total byte count and a 64-bit checksum so tampering or truncation is
detected on read.

The model id is a content hash: blake2b-128 over the canonical meta JSON
(minus the volatile ``created`` key) plus the weight bytes. Identical
content therefore maps to an identical id, and re-putting is a no-op.
"""

from __future__ import annotations

import base64
import hashlib

from coldflow.docstore.documents import canonical_dumps

# 4 MiB, in the spirit of GridFS-style chunking.
MODEL_CHUNK_BYTES = 4 * 1024 * 1024

MODELS_COLLECTION = "models"
CHUNKS_COLLECTION = "model_chunks"


class ChecksumMismatch(Exception):
    """Reassembled blob bytes do not match the manifest checksum/length."""


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
    """Store a model blob; returns its content-hash id.

    Chunks of at most MODEL_CHUNK_BYTES go to ``model_chunks``; the manifest
    (chunk ids in order, total_bytes, checksum, meta) goes to ``models``.
    Re-putting identical content returns the existing id without writing.
    The manifest is written last, so a crash between the two writes leaves
    orphan chunks; a retry skips the chunks already stored with the same
    content and raises ChecksumMismatch if a stored chunk differs.
    """
    from coldflow.docstore.store import NotFound

    model_id = model_content_id(meta, weights)
    digest = checksum64(weights)
    try:
        existing = store.get(MODELS_COLLECTION, model_id)
    except NotFound:
        existing = None
    if existing is not None:
        if existing.get("checksum") != digest or existing.get("total_bytes") != len(weights):
            raise ChecksumMismatch(
                f"model {model_id} already stored with different content"
            )
        return model_id

    chunk_docs = []
    chunk_ids = []
    # A zero-byte blob stores a manifest and no chunks.
    for seq, lo in enumerate(range(0, len(weights), MODEL_CHUNK_BYTES)):
        chunk_id = f"{model_id}.{seq:05d}"
        chunk_ids.append(chunk_id)
        chunk_docs.append(
            {
                "_id": chunk_id,
                "model_id": model_id,
                "seq": seq,
                "data": base64.b64encode(weights[lo : lo + MODEL_CHUNK_BYTES]).decode("ascii"),
            }
        )
    fresh = []
    for doc in chunk_docs:
        try:
            stored = store.get(CHUNKS_COLLECTION, doc["_id"])
        except NotFound:
            fresh.append(doc)
            continue
        if stored != doc:
            raise ChecksumMismatch(
                f"model {model_id}: stored chunk {doc['_id']} has different content"
            )
    if fresh:
        store.insert_many(CHUNKS_COLLECTION, fresh)
    store.insert_many(
        MODELS_COLLECTION,
        [
            {
                "_id": model_id,
                "model_id": model_id,
                "chunk_ids": chunk_ids,
                "total_bytes": len(weights),
                "checksum": digest,
                "meta": meta,
            }
        ],
    )
    return model_id


def get_model(store, model_id: str) -> tuple[dict, bytes]:
    """Reassemble (meta, weights); raises NotFound / ChecksumMismatch."""
    manifest = store.get(MODELS_COLLECTION, model_id)
    parts = []
    for chunk_id in manifest["chunk_ids"]:
        chunk = store.get(CHUNKS_COLLECTION, chunk_id)
        parts.append(base64.b64decode(chunk["data"]))
    weights = b"".join(parts)
    if len(weights) != manifest["total_bytes"] or checksum64(weights) != manifest["checksum"]:
        raise ChecksumMismatch(f"model {model_id}: blob does not match manifest")
    return manifest["meta"], weights
