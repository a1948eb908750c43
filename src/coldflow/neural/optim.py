"""Adam and global-norm gradient clipping over flat parameter dicts."""

from __future__ import annotations

import math

import numpy as np

# Adam's published defaults (Kingma & Ba, 2015); only the learning rate is set.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class AdamState:
    """First and second moment accumulators, one pair per parameter."""

    def __init__(self, params: dict):
        self.step = 0
        self.m = {name: np.zeros_like(value) for name, value in params.items()}
        self.v = {name: np.zeros_like(value) for name, value in params.items()}


def adam_step(params: dict, grads: dict, state: AdamState, learning_rate: float) -> None:
    """One bias-corrected Adam update, applied to params in place."""
    state.step += 1
    t = state.step
    correction1 = 1.0 - BETA1**t
    correction2 = 1.0 - BETA2**t
    for name, grad in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        m_hat = m / correction1
        v_hat = v / correction2
        params[name] -= learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)


def global_norm(grads: dict) -> float:
    total = 0.0
    for value in grads.values():
        total += float(np.sum(value * value))
    return math.sqrt(total)


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale grads in place so their global L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    norm = global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for value in grads.values():
            value *= scale
    return norm
