"""From-scratch recurrent networks on numpy.

Everything a sequence model needs and nothing more: RNN and LSTM cells,
stacked many-to-one networks trained by backpropagation through time,
MAE and cross-entropy losses, Adam, and a self-describing binary weight
format. All math is float64.
"""

from coldflow.neural.cells import lstm_backward, lstm_forward, rnn_backward, rnn_forward, sigmoid
from coldflow.neural.losses import cce_loss, mae_loss, softmax
from coldflow.neural.network import NetworkSpec, backward, forward, init_params
from coldflow.neural.optim import (
    AdamState,
    adam_step,
    clip_gradients,
    global_norm,
)
from coldflow.neural.serialize import ModelArtifact, from_bytes, to_bytes
from coldflow.neural.training import (
    DivergedLoss,
    EpochStats,
    TrainConfig,
    TrainResult,
    predict_labels,
    predict_values,
    train,
)

__all__ = [
    "AdamState",
    "DivergedLoss",
    "EpochStats",
    "ModelArtifact",
    "NetworkSpec",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "backward",
    "cce_loss",
    "clip_gradients",
    "forward",
    "from_bytes",
    "global_norm",
    "init_params",
    "lstm_backward",
    "lstm_forward",
    "mae_loss",
    "predict_labels",
    "predict_values",
    "rnn_backward",
    "rnn_forward",
    "sigmoid",
    "softmax",
    "to_bytes",
    "train",
]
