"""Neural-network layers with explicit forward/backward passes.

A minimal but real NumPy substrate standing in for CNTK (§7): enough to
train the model families the paper's DNN experiments use — MLPs, small
convolutional nets (ResNet-style workloads of Figs. 1, 4a, 5) and LSTMs
(Fig. 4b, §8.4). Every layer owns its parameter and gradient arrays;
:mod:`repro.nn.network` flattens them into the single parameter vector the
TopK SGD algorithm operates on, and re-points them (:meth:`Layer.bind`) at
views of its flat buffers.

No autograd: backward passes are hand-derived (and verified against finite
differences in the test suite).
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Layer", "Dense", "ReLU", "Tanh", "Conv2D", "Flatten", "Dropout"]


class Layer(abc.ABC):
    """Base layer: ``forward`` caches what ``backward`` needs.

    ``params`` and ``grads`` are parallel lists of arrays (possibly empty
    for stateless layers). A :class:`~repro.nn.network.Sequential` owning
    the layer replaces both lists with views of its flat buffers through
    :meth:`bind`.
    """

    def __init__(self) -> None:
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []

    @abc.abstractmethod
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Compute the layer output; cache intermediates when ``train``."""

    @abc.abstractmethod
    def backward(self, dout: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        """Accumulate parameter grads; return gradient wrt the input.

        With ``need_input_grad=False`` the caller discards the input
        gradient (the network's lowest parameterised layer: nothing below
        it has parameters), so a layer may skip computing it and return
        ``None``. Parameter gradients are accumulated either way.
        """

    def bind(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Re-point ``params``/``grads`` at arrays of the same shapes.

        The caller has already copied the current values into ``params``;
        layers that keep named references (``W``, ``b``) re-point them too.
        """
        self.params = params
        self.grads = grads

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params)

    def zero_grads(self) -> None:
        for g in self.grads:
            g[...] = 0.0


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b`` with He initialisation."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, dtype=np.float64) -> None:
        super().__init__()
        scale = np.sqrt(2.0 / n_in)
        self.W = (rng.standard_normal((n_in, n_out)) * scale).astype(dtype)
        self.b = np.zeros(n_out, dtype=dtype)
        self.params = [self.W, self.b]
        self.grads = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            self._x = x
        return x @ self.W + self.b

    def bind(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        super().bind(params, grads)
        self.W, self.b = params

    def backward(self, dout: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        assert self._x is not None, "backward before forward"
        self.grads[0] += self._x.T @ dout
        self.grads[1] += dout.sum(axis=0)
        return dout @ self.W.T if need_input_grad else None


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        mask = x > 0
        if train:
            self._mask = mask
        return x * mask

    def backward(self, dout: np.ndarray, need_input_grad: bool = True) -> np.ndarray:
        assert self._mask is not None, "backward before forward"
        return dout * self._mask


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        out = np.tanh(x)
        if train:
            self._out = out
        return out

    def backward(self, dout: np.ndarray, need_input_grad: bool = True) -> np.ndarray:
        assert self._out is not None, "backward before forward"
        return dout * (1.0 - self._out**2)


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray, need_input_grad: bool = True) -> np.ndarray:
        assert self._shape is not None, "backward before forward"
        return dout.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout (identity at evaluation time)."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if not train or self.p == 0.0:
            self._mask = None
            return x
        self._mask = (self._rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * self._mask

    def backward(self, dout: np.ndarray, need_input_grad: bool = True) -> np.ndarray:
        if self._mask is None:
            return dout
        return dout * self._mask


class Conv2D(Layer):
    """2-D convolution via im2col (NCHW layout), stride and zero padding.

    Deliberately compact — this backs the small CNN workloads whose
    *gradient density* behaviour Fig. 1 measures; it is not a performance
    kernel.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        ksize: int,
        rng: np.random.Generator,
        stride: int = 1,
        pad: int = 0,
        dtype=np.float64,
    ) -> None:
        super().__init__()
        if ksize < 1 or stride < 1 or pad < 0:
            raise ValueError("invalid conv hyper-parameters")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.ksize = ksize
        self.stride = stride
        self.pad = pad
        scale = np.sqrt(2.0 / (in_channels * ksize * ksize))
        self.W = (rng.standard_normal((out_channels, in_channels, ksize, ksize)) * scale).astype(dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.params = [self.W, self.b]
        self.grads = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    # ------------------------------------------------------------------
    def _out_hw(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.pad - self.ksize) // self.stride + 1
        ow = (w + 2 * self.pad - self.ksize) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError("input smaller than receptive field")
        return oh, ow

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        oh, ow = self._out_hw(h, w)
        if self.pad:
            x = np.pad(x, ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad)))
        k, s = self.ksize, self.stride
        cols = np.empty((n, c, k, k, oh, ow), dtype=x.dtype)
        for i in range(k):
            i_max = i + s * oh
            for j in range(k):
                j_max = j + s * ow
                cols[:, :, i, j, :, :] = x[:, :, i:i_max:s, j:j_max:s]
        return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, -1)

    def _col2im(self, cols: np.ndarray, x_shape: tuple[int, ...]) -> np.ndarray:
        n, c, h, w = x_shape
        oh, ow = self._out_hw(h, w)
        k, s, p = self.ksize, self.stride, self.pad
        cols = cols.reshape(n, oh, ow, c, k, k).transpose(0, 3, 4, 5, 1, 2)
        x = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=cols.dtype)
        for i in range(k):
            i_max = i + s * oh
            for j in range(k):
                j_max = j + s * ow
                x[:, :, i:i_max:s, j:j_max:s] += cols[:, :, i, j, :, :]
        if p:
            return x[:, :, p:-p, p:-p]
        return x

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected NCHW input with {self.in_channels} channels, got {x.shape}"
            )
        n, _, h, w = x.shape
        oh, ow = self._out_hw(h, w)
        cols = self._im2col(x)
        out = cols @ self.W.reshape(self.out_channels, -1).T + self.b
        if train:
            self._cols = cols
            self._x_shape = x.shape
        return out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)

    def bind(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        super().bind(params, grads)
        self.W, self.b = params

    def backward(self, dout: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        assert self._cols is not None and self._x_shape is not None
        n, oc, oh, ow = dout.shape
        dflat = dout.transpose(0, 2, 3, 1).reshape(-1, oc)
        self.grads[0] += (dflat.T @ self._cols).reshape(self.W.shape)
        self.grads[1] += dflat.sum(axis=0)
        if not need_input_grad:
            return None
        dcols = dflat @ self.W.reshape(oc, -1)
        return self._col2im(dcols, self._x_shape)
