"""Naive per-record reference for window cutting.

The loop the wrangler used before it cut windows from per-fridge array
blocks: it walks one fridge's telemetry documents and resolves every
feature value one at a time. Used as the oracle in the array-vs-loop
equivalence test.
"""

import bisect
import math

import numpy as np

from coldflow.telemetry import field_value


def assemble_window(fridge_docs, end_before_ts, window_len, feature_names,
                    cadence_s, gap_factor, require_defrost_free=True):
    """(matrix, window_end_ts, None) or (None, None, reason)."""
    timestamps = [d["timestamp"] for d in fridge_docs]
    hi = bisect.bisect_left(timestamps, end_before_ts)
    if hi < window_len:
        return None, None, "insufficient_history"
    window = fridge_docs[hi - window_len : hi]
    max_gap = gap_factor * cadence_s
    if end_before_ts - window[-1]["timestamp"] > max_gap:
        return None, None, "window_gap"
    for prev, cur in zip(window, window[1:]):
        if cur["timestamp"] - prev["timestamp"] > max_gap:
            return None, None, "window_gap"
    if require_defrost_free and any(d["defrost_state"] != 0 for d in window):
        return None, None, "defrost_in_window"
    matrix = np.empty((window_len, len(feature_names)), dtype=np.float64)
    for i, doc in enumerate(window):
        for j, name in enumerate(feature_names):
            value = field_value(doc, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or not math.isfinite(float(value)):
                return None, None, "non_finite"
            matrix[i, j] = float(value)
    return matrix, window[-1]["timestamp"], None
