"""Quantized TopK SGD — the paper's Algorithm 1.

Every rank ``i`` holds a model replica ``v`` and a residual ``eps_i`` and
iterates::

    acc_i   <- eps_i + lr * grad_i(v)            # accumulate error
    eps_i   <- acc_i - TopK(acc_i)               # update the error
    g_i     <- allreduce(Q(TopK(acc_i)), SUM)    # sparse (quantized) sum
    v       <- v - g_i                           # apply the update

The allreduce is a SparCML sparse collective; the optional quantizer is
applied to the selected values before the reduction (the ``Q`` of
Algorithm 1), and/or inside DSAR's dense stage (§6). Because quantization
happens *before* the sum, every rank computes bit-identical totals and the
replicas stay consistent.

The driver is model-agnostic: it consumes a gradient callback and an
optional evaluation callback, so linear models (:mod:`repro.mlopt`) and
neural networks (:mod:`repro.nn`) reuse the same loop.

``algorithm="auto"`` is resolved once, on the first step, and the chosen
collective is reused for the whole run. The selection depends only on the
dimension, the world size, the value dtype, the topology and the agreed
per-rank nnz, and the first four are fixed. So is the nnz: Top-K with a
fixed ``k`` ships ``k`` entries (global) or ``k*floor(N/B) + min(k, N mod
B)`` (per bucket) on every step, and quantization keeps every index. The
per-step agreement round of :func:`~repro.collectives.sparse_allreduce`
would only repeat the same answer.

The sum is applied in its own representation (:func:`apply_sum`): a sparse
result updates only its coordinates, a dense one subtracts its payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..collectives.api import dense_allreduce, resolve_collective
from ..quant import QSGDQuantizer
from ..runtime.comm import Communicator
from ..streams import SparseStream
from .topk import ErrorFeedback, quantize_stream_values

__all__ = ["TopKSGDConfig", "TopKSGDResult", "quantized_topk_sgd", "dense_sgd"]

#: gradient callback: (params, step) -> stochastic gradient at this rank.
GradFn = Callable[[np.ndarray, int], np.ndarray]
#: evaluation callback: params -> metrics dict (loss/accuracy/...).
EvalFn = Callable[[np.ndarray], dict[str, float]]


@dataclass
class TopKSGDConfig:
    """Hyper-parameters of Algorithm 1.

    ``k``/``bucket_size`` follow the paper's notation "k out of every bucket
    of B consecutive elements" (e.g. k=8, B=512 is ~1.6% density);
    ``bucket_size=None`` selects the k largest entries globally.
    """

    k: int
    bucket_size: int | None = 512
    lr: float = 0.05
    quantizer_bits: int | None = None
    quantizer_bucket: int = 512
    algorithm: str = "auto"
    seed: int = 0
    lr_decay: float = 0.0  # lr_t = lr / (1 + decay * t), Thm 4.1's schedule

    def learning_rate(self, step: int) -> float:
        return self.lr / (1.0 + self.lr_decay * step)


@dataclass
class TopKSGDResult:
    """Outcome of one rank's run (identical params on all ranks)."""

    params: np.ndarray
    history: list[dict[str, Any]] = field(default_factory=list)
    bytes_sent_per_step: list[int] = field(default_factory=list)
    final_residual_norm: float = 0.0

    @property
    def mean_bytes_per_step(self) -> float:
        if not self.bytes_sent_per_step:
            return 0.0
        return float(np.mean(self.bytes_sent_per_step))


def apply_sum(comm: Communicator, params: np.ndarray, total: SparseStream) -> None:
    """``params -= total`` in place, in the sum's own representation.

    Bit-identical to subtracting ``total.to_dense()``: a coordinate the sum
    does not store would subtract an exact zero. The trace is charged as
    for that dense update.
    """
    comm.compute(total.dimension * total.value_dtype.itemsize * 2, "apply")
    if total.is_dense:
        params -= total.dense_payload
    elif total.nnz:
        params[total.indices] -= total.values


def quantized_topk_sgd(
    comm: Communicator,
    grad_fn: GradFn,
    dimension: int,
    steps: int,
    config: TopKSGDConfig,
    eval_fn: EvalFn | None = None,
    eval_every: int = 10,
    init_params: np.ndarray | None = None,
) -> TopKSGDResult:
    """Run Algorithm 1 at one rank for ``steps`` iterations.

    All ranks must call this collectively with the same configuration.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    params = (
        np.zeros(dimension, dtype=np.float32)
        if init_params is None
        else init_params.astype(np.float32, copy=True)
    )
    ef = ErrorFeedback(dimension, config.k, config.bucket_size, value_dtype=np.float32)
    quantizer = (
        QSGDQuantizer(
            bits=config.quantizer_bits,
            bucket_size=config.quantizer_bucket,
            seed=config.seed * 7919 + comm.rank,
        )
        if config.quantizer_bits is not None
        else None
    )
    result = TopKSGDResult(params=params)
    collective = None  # (fn, kwargs), resolved on the first step

    for step in range(steps):
        lr = config.learning_rate(step)
        grad = grad_fn(params, step)
        if grad.shape != (dimension,):
            raise ValueError(f"grad_fn returned shape {grad.shape}, expected ({dimension},)")
        comm.compute(grad.nbytes * 3, "grad")
        sent = ef.select(lr * grad.astype(np.float32, copy=False))
        if quantizer is not None:
            sent = quantize_stream_values(sent, quantizer)
        result.bytes_sent_per_step.append(sent.nbytes_payload)
        if collective is None:
            collective = resolve_collective(comm, sent, algorithm=config.algorithm)
        fn, kwargs = collective
        apply_sum(comm, params, fn(comm, sent, **kwargs))
        if eval_fn is not None and (step % eval_every == 0 or step == steps - 1):
            metrics = {"step": step, **eval_fn(params)}
            result.history.append(metrics)

    result.final_residual_norm = ef.residual_norm
    return result


def dense_sgd(
    comm: Communicator,
    grad_fn: GradFn,
    dimension: int,
    steps: int,
    lr: float = 0.05,
    lr_decay: float = 0.0,
    algorithm: str = "dense_rabenseifner",
    eval_fn: EvalFn | None = None,
    eval_every: int = 10,
    init_params: np.ndarray | None = None,
) -> TopKSGDResult:
    """The full-precision data-parallel SGD baseline (§2.1)."""
    params = (
        np.zeros(dimension, dtype=np.float32)
        if init_params is None
        else init_params.astype(np.float32, copy=True)
    )
    result = TopKSGDResult(params=params)
    for step in range(steps):
        step_lr = lr / (1.0 + lr_decay * step)
        grad = grad_fn(params, step).astype(np.float32, copy=False)
        comm.compute(grad.nbytes * 3, "grad")
        result.bytes_sent_per_step.append(grad.nbytes + 8)
        total = dense_allreduce(comm, grad, algorithm=algorithm)
        comm.compute(total.nbytes * 2, "apply")
        params -= step_lr * total
        if eval_fn is not None and (step % eval_every == 0 or step == steps - 1):
            result.history.append({"step": step, **eval_fn(params)})
    return result
