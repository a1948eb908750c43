"""Training loop: standardization, Adam, Monte Carlo validation.

Inputs are standardized per feature channel, and regression targets are
z-scored too (durations are hundreds of seconds; tanh cells saturate if
the head has to reach that scale). All reported losses are converted back
to original units, so history entries read in seconds or nats.

Validation is Monte Carlo: each epoch draws a fresh validation multiset
(with replacement) from the example pool, keyed by (seed, epoch), and
trains on the complement. Every draw, shuffle and weight is derived from
the config seed, so a training run is a pure function of (data, config).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from coldflow.neural.losses import cce_loss, mae_loss, softmax
from coldflow.neural.network import NetworkSpec, backward, forward, init_params
from coldflow.neural.optim import AdamState, adam_step, clip_gradients
from coldflow.neural.serialize import ModelArtifact

# Each step's gradients are scaled down to at most this global L2 norm.
GRAD_CLIP_NORM = 5.0


class DivergedLoss(Exception):
    """Training produced a non-finite loss; the run is unrecoverable."""


@dataclass(frozen=True)
class TrainConfig:
    cell: str = "lstm"
    layers: int = 2
    hidden: int = 32
    task: str = "regression"  # or "classification"
    batch_size: int = 32
    epochs: int = 30
    learning_rate: float = 1e-3
    val_fraction: float = 0.1
    seed: int = 0
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float | None = None


@dataclass
class TrainResult:
    artifact: ModelArtifact
    history: list


def _standardize_features(X: np.ndarray):
    mean = X.mean(axis=(0, 1))
    std = X.std(axis=(0, 1))
    std = np.where(std < 1e-12, 1.0, std)
    return (X - mean) / std, mean, std


def train(X, y, config: TrainConfig) -> TrainResult:
    """Fit a recurrent model on [n, time, features] windows.

    For task="regression" y is a float vector; for task="classification" y
    is a sequence of labels, encoded against the sorted unique label set.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 3:
        raise ValueError(f"X must be [n, time, features], got shape {X.shape}")
    n = X.shape[0]
    Xs, f_mean, f_std = _standardize_features(X)

    classes = None
    t_mean, t_std = 0.0, 1.0
    if config.task == "regression":
        targets = np.asarray(y, dtype=float)
        t_mean = float(targets.mean())
        t_std = float(targets.std())
        if t_std < 1e-12:
            t_std = 1.0
        encoded = (targets - t_mean) / t_std
        outputs = 1
        head = "linear"
    elif config.task == "classification":
        classes = tuple(sorted(set(y)))
        if len(classes) < 2:
            raise ValueError(f"need at least two classes, got {classes}")
        index = {label: i for i, label in enumerate(classes)}
        encoded = np.asarray([index[label] for label in y], dtype=int)
        outputs = len(classes)
        head = "softmax"
    else:
        raise ValueError(f"unknown task {config.task!r}")
    if len(encoded) != n:
        raise ValueError("X and y lengths differ")

    spec = NetworkSpec(
        cell=config.cell,
        layers=config.layers,
        hidden=config.hidden,
        features=X.shape[2],
        outputs=outputs,
        head=head,
    )
    params = init_params(spec, config.seed)
    adam = AdamState(params)
    val_size = max(1, int(round(n * config.val_fraction)))

    history: list[EpochStats] = []
    for epoch in range(config.epochs):
        val_idx = np.random.default_rng([config.seed, epoch, 1]).choice(
            n, size=val_size, replace=True
        )
        held_out = set(val_idx.tolist())
        train_idx = np.array([i for i in range(n) if i not in held_out], dtype=int)
        if train_idx.size == 0:
            raise ValueError("validation resample consumed every example")
        order = np.random.default_rng([config.seed, epoch, 0]).permutation(train_idx)

        seen = 0
        loss_sum = 0.0
        for lo in range(0, order.size, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            outputs_batch, cache = forward(params, spec, Xs[idx])
            if config.task == "regression":
                loss, dout = mae_loss(outputs_batch, encoded[idx])
            else:
                loss, dout = cce_loss(outputs_batch, encoded[idx])
            if not np.isfinite(loss):
                raise DivergedLoss(f"epoch {epoch}: non-finite training loss")
            grads = backward(params, spec, cache, dout)
            clip_gradients(grads, GRAD_CLIP_NORM)
            adam_step(params, grads, adam, config.learning_rate)
            loss_sum += loss * idx.size
            seen += idx.size

        train_loss = loss_sum / seen
        val_loss, val_accuracy = _evaluate(params, spec, Xs, encoded, val_idx, config)
        if not np.isfinite(val_loss):
            raise DivergedLoss(f"epoch {epoch}: non-finite validation loss")
        if config.task == "regression":
            train_loss *= t_std
            val_loss *= t_std
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=float(train_loss),
                val_loss=float(val_loss),
                val_accuracy=val_accuracy,
            )
        )

    artifact = ModelArtifact(
        spec=spec,
        params=params,
        feature_mean=f_mean,
        feature_std=f_std,
        target_mean=t_mean,
        target_std=t_std,
        classes=classes,
        meta={
            "task": config.task,
            "cell": config.cell,
            "layers": config.layers,
            "hidden": config.hidden,
            "epochs": config.epochs,
            "seed": config.seed,
            **config.meta,
        },
    )
    return TrainResult(artifact=artifact, history=history)


def _evaluate(params, spec, Xs, encoded, idx, config: TrainConfig):
    loss_sum = 0.0
    correct = 0
    for lo in range(0, idx.size, config.batch_size):
        chunk = idx[lo : lo + config.batch_size]
        outputs, _ = forward(params, spec, Xs[chunk])
        if config.task == "regression":
            loss, _ = mae_loss(outputs, encoded[chunk])
        else:
            loss, _ = cce_loss(outputs, encoded[chunk])
            correct += int((outputs.argmax(axis=1) == encoded[chunk]).sum())
        loss_sum += loss * chunk.size
    val_loss = loss_sum / idx.size
    accuracy = correct / idx.size if config.task == "classification" else None
    return val_loss, accuracy


def predict_values(artifact: ModelArtifact, X) -> np.ndarray:
    """Regression predictions in original units, one forward per example.

    The per-example loop keeps predictions independent of batch
    composition, so a value never changes with who else is in the batch.
    """
    X = np.asarray(X, dtype=float)
    Xs = (X - artifact.feature_mean) / artifact.feature_std
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        outputs, _ = forward(artifact.params, artifact.spec, Xs[i : i + 1])
        out[i] = outputs[0, 0] * artifact.target_std + artifact.target_mean
    return out


def predict_labels(artifact: ModelArtifact, X):
    """Classification: returns (labels, probabilities[n, classes])."""
    if artifact.classes is None:
        raise ValueError("artifact has no class labels; was it a regressor?")
    X = np.asarray(X, dtype=float)
    Xs = (X - artifact.feature_mean) / artifact.feature_std
    probs = np.empty((X.shape[0], len(artifact.classes)))
    for i in range(X.shape[0]):
        outputs, _ = forward(artifact.params, artifact.spec, Xs[i : i + 1])
        probs[i] = softmax(outputs)[0]
    labels = [artifact.classes[int(i)] for i in probs.argmax(axis=1)]
    return labels, probs
