"""Embedded, file-backed document store with a MongoDB-subset query dialect.

Collections are newline-delimited JSON files inside a store directory, one
canonically serialized document per line. A single writer per store is
enforced through an advisory lock file; readers open without locking. The
writer handles of one process share one view of the store, so each sees every
other's writes and no two store the same ``_id``; a read-only handle sees each
collection as it was flushed when the handle first touched it. A collection is
parsed on first touch. Aggregation pipelines use the familiar
list-of-stage-dicts syntax (``[{"$match": ...}, {"$sort": ...}]``) over an
explicitly documented subset of operators and run over a collection's
documents. ``get``, ``aggregate`` and ``find_all`` return deep copies, and
``map_ranges`` reads a large collection in byte ranges on forked
processes without keeping its documents. ``encode_documents`` checks and
encodes a batch into an ``Encoded`` without a store, so a worker process
can prepare what ``insert_many`` appends. A binary model artifact is one
``models`` document holding its bytes in base64 and their checksum.
"""

from coldflow.docstore.documents import (
    canonical_dumps,
    get_path,
    json_equals,
    parse_document_line,
    CorruptCollection,
)
from coldflow.docstore.pipeline import (
    AggregationPipeline,
    BadFieldPath,
    PipelineSyntaxError,
    parse_pipeline,
)
from coldflow.docstore.store import (
    DocumentStore,
    DuplicateId,
    Encoded,
    LockHeld,
    NotFound,
    ReadOnlyStore,
    encode_documents,
    open_store,
)
from coldflow.docstore.blobs import ChecksumMismatch

__all__ = [
    "AggregationPipeline",
    "BadFieldPath",
    "ChecksumMismatch",
    "CorruptCollection",
    "DocumentStore",
    "DuplicateId",
    "Encoded",
    "LockHeld",
    "NotFound",
    "PipelineSyntaxError",
    "ReadOnlyStore",
    "canonical_dumps",
    "encode_documents",
    "get_path",
    "json_equals",
    "open_store",
    "parse_document_line",
    "parse_pipeline",
]
