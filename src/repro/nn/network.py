"""Sequential network with softmax cross-entropy and flat parameter views.

The bridge between the NN substrate and the communication library: TopK
SGD (Algorithm 1) treats the model as one flat vector, so the network
exposes ``param_vector`` / ``set_param_vector`` / ``grad_vector``. The
flattening order is deterministic (layer order, then each layer's params),
which also defines the coordinate space the per-bucket TopK operates on —
consecutive coordinates belong to the same tensor, exactly like the
paper's layer-wise buckets.

The network stores that vector directly: it owns one flat parameter
buffer and one flat gradient buffer, and every layer's arrays are reshaped
views into them, so moving the model in or out of the flat space is a
single copy.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer

__all__ = ["Sequential", "softmax_cross_entropy"]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE loss and gradient wrt logits for integer labels."""
    if logits.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got {logits.shape}")
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    eps = np.finfo(probs.dtype).tiny
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + eps)))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


class Sequential:
    """A stack of layers trained with softmax cross-entropy.

    Flat-view invariant: the network allocates one parameter buffer and one
    gradient buffer of ``n_params`` entries in the layers' common dtype,
    and every layer's ``params``/``grads`` are reshaped views into them
    (:meth:`Layer.bind`), in flattening order. Layers initialise their
    arrays before the network is built; construction copies those values
    into the buffer. ``param_vector``/``grad_vector`` return float64
    *copies* that never alias the network, and ``set_param_vector`` copies
    into the buffer.
    """

    def __init__(self, layers: list[Layer]) -> None:
        if not layers:
            raise ValueError("network needs at least one layer")
        self.layers = layers
        arrays = [p for layer in layers for p in layer.params]
        dtype = np.result_type(*{p.dtype for p in arrays}) if arrays else np.float64
        size = sum(p.size for p in arrays)
        self._params = np.empty(size, dtype=dtype)
        self._grads = np.zeros(size, dtype=dtype)
        offset = 0
        for layer in layers:
            params, grads = [], []
            for p in layer.params:
                view = self._params[offset: offset + p.size].reshape(p.shape)
                view[...] = p
                params.append(view)
                grads.append(self._grads[offset: offset + p.size].reshape(p.shape))
                offset += p.size
            layer.bind(params, grads)
        #: index of the lowest layer with parameters; backward stops there.
        self._lowest = next((i for i, layer in enumerate(layers) if layer.params), None)

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(x, train=False), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray, batch: int = 512) -> float:
        correct = 0
        for lo in range(0, x.shape[0], batch):
            correct += int(np.sum(self.predict(x[lo: lo + batch]) == y[lo: lo + batch]))
        return correct / max(x.shape[0], 1)

    def loss(self, x: np.ndarray, y: np.ndarray, batch: int = 512) -> float:
        total, count = 0.0, 0
        for lo in range(0, x.shape[0], batch):
            logits = self.forward(x[lo: lo + batch], train=False)
            l, _ = softmax_cross_entropy(logits, y[lo: lo + batch])
            total += l * logits.shape[0]
            count += logits.shape[0]
        return total / max(count, 1)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> float:
        """Forward + backward on one batch; grads land in the flat buffer.

        The backward pass ends at the lowest parameterised layer, which is
        asked for no input gradient: nothing below it has parameters.
        """
        self.zero_grads()
        logits = self.forward(x, train=True)
        loss, dlogits = softmax_cross_entropy(logits, y)
        if self._lowest is not None:
            grad = dlogits
            for layer in reversed(self.layers[self._lowest + 1:]):
                grad = layer.backward(grad)
            self.layers[self._lowest].backward(grad, need_input_grad=False)
        return loss

    def zero_grads(self) -> None:
        self._grads.fill(0.0)

    # ------------------------------------------------------------------
    # flat parameter views
    # ------------------------------------------------------------------
    @property
    def n_params(self) -> int:
        return self._params.size

    def param_vector(self) -> np.ndarray:
        """All parameters as one float64 vector (a copy)."""
        return self._params.astype(np.float64)

    def grad_vector(self) -> np.ndarray:
        """All gradients, in the same order, as one float64 vector (a copy)."""
        return self._grads.astype(np.float64)

    def set_param_vector(self, vec: np.ndarray) -> None:
        """Copy a flat vector (any float dtype) into the parameter buffer."""
        if vec.shape != self._params.shape:
            raise ValueError(f"parameter vector shape {vec.shape} != ({self.n_params},)")
        self._params[...] = vec

    def batch_grad(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Convenience: loss and flat gradient of one batch."""
        loss = self.loss_and_grad(x, y)
        return loss, self.grad_vector()
