"""Data-parallel DNN training glue (the CNTK integration analog, §8.3).

Connects the NN substrate to Algorithm 1: builds the per-rank gradient
callback (sampling from the rank's data shard), the shared evaluation
callback, and standard model factories for the experiment families:

* :func:`make_mlp` — MLP classifier (CIFAR-like / wide-"ResNet"-like runs;
  ``width_multiplier`` plays the role of the 4x widening of Fig. 5);
* :func:`make_cnn_lite` — a small conv net (Fig. 1 gradient-density
  measurements);
* :class:`~repro.nn.lstm.LSTMClassifier` — recurrent runs (Fig. 4b).

Model construction is seeded, so every rank builds bit-identical initial
replicas — the data-parallel invariant TopK SGD preserves.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..mlopt.datasets import DenseDataset, SequenceDataset, partition_rows
from ..runtime.comm import Communicator
from .layers import Conv2D, Dense, Flatten, ReLU
from .network import Sequential
from .lstm import LSTMClassifier

__all__ = [
    "make_mlp",
    "make_cnn_lite",
    "make_lstm",
    "make_grad_fn",
    "make_eval_fn",
    "make_sequence_grad_fn",
    "make_sequence_eval_fn",
]


def make_mlp(
    n_features: int,
    n_classes: int,
    hidden: tuple[int, ...] = (256, 128),
    width_multiplier: int = 1,
    seed: int = 0,
) -> Sequential:
    """An MLP classifier; ``width_multiplier`` widens every hidden layer
    (the Fig. 5 wide-residual-network analog: same depth, k-times wider)."""
    rng = np.random.default_rng(seed)
    layers = []
    prev = n_features
    for h in hidden:
        h_eff = h * width_multiplier
        layers += [Dense(prev, h_eff, rng), ReLU()]
        prev = h_eff
    layers.append(Dense(prev, n_classes, rng))
    return Sequential(layers)


def make_cnn_lite(
    image_hw: int,
    in_channels: int,
    n_classes: int,
    channels: tuple[int, ...] = (8, 16),
    seed: int = 0,
) -> Sequential:
    """A small strided CNN (ResNet-20-like workload shape at toy scale)."""
    rng = np.random.default_rng(seed)
    layers: list = []
    prev_c, hw = in_channels, image_hw
    for c in channels:
        layers += [Conv2D(prev_c, c, ksize=3, rng=rng, stride=2, pad=1), ReLU()]
        prev_c = c
        hw = (hw + 2 - 3) // 2 + 1
    layers += [Flatten(), Dense(prev_c * hw * hw, n_classes, rng)]
    return Sequential(layers)


def make_lstm(
    vocab_size: int,
    n_classes: int,
    embed_dim: int = 32,
    hidden_dim: int = 64,
    seed: int = 0,
) -> LSTMClassifier:
    """An LSTM classifier with seeded initialisation."""
    return LSTMClassifier(
        vocab_size, embed_dim, hidden_dim, n_classes, np.random.default_rng(seed)
    )


# ----------------------------------------------------------------------
# gradient / evaluation callbacks for the Algorithm 1 driver
# ----------------------------------------------------------------------
def make_grad_fn(
    net: Sequential,
    dataset: DenseDataset,
    comm: Communicator,
    batch_size: int,
    seed: int = 0,
    reshape: tuple[int, ...] | None = None,
    compute_bytes_per_sample: int = 0,
) -> Callable[[np.ndarray, int], np.ndarray]:
    """Per-rank stochastic gradient callback over this rank's shard.

    ``reshape`` converts flat rows into e.g. NCHW images for conv nets;
    ``compute_bytes_per_sample`` adds model-compute cost to the trace
    (the replay model's gamma charges it), letting benches set realistic
    communication/computation ratios.
    """
    shard = partition_rows(dataset.n_samples, comm.size, comm.rank)
    X = dataset.X[shard]
    y = dataset.y[shard]
    if X.shape[0] == 0:
        raise ValueError(f"rank {comm.rank} received an empty shard")
    rng = np.random.default_rng(seed * 65537 + comm.rank)

    def grad_fn(params: np.ndarray, step: int) -> np.ndarray:
        net.set_param_vector(params)
        rows = rng.choice(X.shape[0], size=min(batch_size, X.shape[0]), replace=False)
        xb = X[rows]
        if reshape is not None:
            xb = xb.reshape((xb.shape[0], *reshape))
        _, grad = net.batch_grad(xb, y[rows])
        if compute_bytes_per_sample:
            comm.compute(compute_bytes_per_sample * rows.size, "model")
        return grad.astype(np.float32)

    return grad_fn


def make_eval_fn(
    net: Sequential,
    dataset: DenseDataset,
    max_samples: int = 1024,
    reshape: tuple[int, ...] | None = None,
) -> Callable[[np.ndarray], dict[str, float]]:
    """Loss/accuracy on a fixed evaluation slice (same on all ranks)."""
    X = dataset.X[:max_samples]
    if reshape is not None:
        X = X.reshape((X.shape[0], *reshape))
    y = dataset.y[:max_samples]

    def eval_fn(params: np.ndarray) -> dict[str, float]:
        net.set_param_vector(params)
        return {"loss": net.loss(X, y), "accuracy": net.accuracy(X, y)}

    return eval_fn


def make_sequence_grad_fn(
    net: LSTMClassifier,
    dataset: SequenceDataset,
    comm: Communicator,
    batch_size: int,
    seed: int = 0,
    compute_bytes_per_sample: int = 0,
) -> Callable[[np.ndarray, int], np.ndarray]:
    """Gradient callback for sequence batches (LSTM workloads)."""
    shard = partition_rows(dataset.n_samples, comm.size, comm.rank)
    tokens = dataset.tokens[shard]
    y = dataset.y[shard]
    if tokens.shape[0] == 0:
        raise ValueError(f"rank {comm.rank} received an empty shard")
    rng = np.random.default_rng(seed * 92821 + comm.rank)

    def grad_fn(params: np.ndarray, step: int) -> np.ndarray:
        net.set_param_vector(params.astype(np.float64))
        rows = rng.choice(tokens.shape[0], size=min(batch_size, tokens.shape[0]), replace=False)
        _, grad = net.batch_grad(tokens[rows], y[rows])
        if compute_bytes_per_sample:
            comm.compute(compute_bytes_per_sample * rows.size, "model")
        return grad.astype(np.float32)

    return grad_fn


def make_sequence_eval_fn(
    net: LSTMClassifier, dataset: SequenceDataset, max_samples: int = 512
) -> Callable[[np.ndarray], dict[str, float]]:
    tokens = dataset.tokens[:max_samples]
    y = dataset.y[:max_samples]

    def eval_fn(params: np.ndarray) -> dict[str, float]:
        net.set_param_vector(params.astype(np.float64))
        return {"loss": net.loss(tokens, y), "accuracy": net.accuracy(tokens, y)}

    return eval_fn
