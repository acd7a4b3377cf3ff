"""The benchmark workloads: data-parallel training on P = 2 ranks.

Each workload is a closed loop: a rank issues its next training step (an
*op*) only after the previous one returned. A workload turns the benchmark
seed into inputs in the parent (``prepare``), warms the world up
(``start``), runs one *batch* between two stop agreements (``run_batch``:
one episode of training from the same initial state) and checks every op of
the batch (``check_batch``).

``run_batch`` appends one ``(start, end)`` pair per completed step to
``times`` as it goes, so an episode that raises still reports the steps it
finished. With ``spans`` set (the traced run) it rebuilds the step from the
same public calls the untraced training function makes and records one span
per layer.

The program is reached only through its public API; kernels it calls
internally (wire framing, stream merge, algorithm selection) are timed as
microcalls at the sizes the workload realized, in ``microcalls``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro import (
    CostModel,
    ErrorFeedback,
    Instance,
    QSGDQuantizer,
    TopKSGDConfig,
    add_streams,
    quantized_topk_sgd,
)
from repro.collectives.api import ALGORITHMS, resolve_collective
from repro.core.fusion import GradientFuser
from repro.core.topk import quantize_stream_values
from repro.costmodel import AdaptiveSelector
from repro.mlopt.async_sgd import distributed_sgd_async
from repro.mlopt.datasets import make_cifar_like, make_url_like, partition_rows
from repro.mlopt.linear import LogisticRegression
from repro.mlopt.sgd import SGDConfig
from repro.nn.training import make_eval_fn, make_grad_fn, make_mlp
from repro.runtime.wire import decode_message, encode_message

from spans import Spans

now = time.perf_counter

#: world size; equals the host's CPU count the benchmark is sized for.
NRANKS = 2


def digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).hexdigest()


def median_seconds(fn, reps: int) -> float:
    fn()
    samples = []
    for _ in range(reps):
        t0 = now()
        fn()
        samples.append(now() - t0)
    return float(np.median(samples))


def wire_microcalls(payloads: list) -> dict:
    """Encode/decode every payload one op sent, at its realized size."""
    if not payloads:
        return {"runtime.wire.encode_us": 0.0, "runtime.wire.decode_us": 0.0}
    blobs = [encode_message(1, 0, 0, p) for p in payloads]

    def encode():
        for p in payloads:
            encode_message(1, 0, 0, p)

    def decode():
        for b in blobs:
            decode_message(b)

    return {
        "runtime.wire.encode_us": median_seconds(encode, 31) * 1e6,
        "runtime.wire.decode_us": median_seconds(decode, 31) * 1e6,
    }


def merge_microcalls(pairs: list) -> dict:
    """Merge the two ranks' contributions, as the reduction step does."""
    if not pairs:
        return {"streams.merge_us": 0.0, "streams.merged_nnz": 0.0}

    def merge():
        for a, b in pairs:
            add_streams(a, b)

    return {
        "streams.merge_us": median_seconds(merge, 31) * 1e6,
        "streams.merged_nnz": float(sum(add_streams(a, b).nnz for a, b in pairs)),
    }


def select_microcall(instance: Instance) -> dict:
    """Selection compute alone: what ``"auto"`` runs after the agreement."""
    return {
        "costmodel.select_us": median_seconds(
            lambda: CostModel.default().rank(instance).choice, 201
        ) * 1e6
    }


def algorithm_name(fn) -> str:
    return next(name for name, f in ALGORITHMS.items() if f is fn)


class StepClock:
    """Step boundaries of a training call, from the callbacks it makes.

    A step starts when the training loop asks for its gradient and ends when the
    next step starts, or at :meth:`finish`. Completed steps land in
    ``times`` as they end, so a step that raises leaves the earlier ones.
    """

    def __init__(self, times: list) -> None:
        self.times = times
        self.last: float | None = None

    def tick(self) -> None:
        t = now()
        if self.last is not None:
            self.times.append((self.last, t))
        self.last = t

    def finish(self) -> None:
        if self.last is not None:
            self.times.append((self.last, now()))
            self.last = None


@dataclass
class TrainState:
    #: params digest of the first verified episode; every later episode,
    #: traced or not, replays the same seed and must end bit-identical.
    first_digest: str | None = None
    loss_initial: float = 0.0
    loss_final: float = 0.0
    algorithm: str = ""
    nnz: float = 0.0
    sent_payloads: list = field(default_factory=list)
    selected: list = field(default_factory=list)


@dataclass
class TrainWorkload:
    """What the two training workloads share: an op is one step, a batch is
    one episode of training from the same initial state, and every episode
    of a run must end with bit-identical params."""

    name: str
    why: str
    backend: str
    batch_size: int
    #: bytes per value of the streams the workload's collectives carry.
    value_itemsize = 4

    def loss(self, inputs, params: np.ndarray) -> float:
        raise NotImplementedError

    def dimension(self, inputs) -> int:
        raise NotImplementedError

    def check_batch(self, inputs, state: TrainState, params, n_ops: int) -> list:
        ok = check_episode(state, params, lambda p: self.loss(inputs, p))
        return [ok] * n_ops

    def digests(self, state: TrainState) -> dict:
        return {"params": state.first_digest}

    def extras(self, state: TrainState) -> dict:
        return {
            "algorithm": state.algorithm,
            "nnz": state.nnz,
            "sent_payloads": state.sent_payloads,
            "selected": state.selected,
            "loss_initial": state.loss_initial,
            "loss_final": state.loss_final,
        }

    def microcalls(self, inputs, extras: list, measured_s: float) -> dict:
        """Every microcall layer, at the sizes the first traced step realized;
        ``measured_s`` is the blocking allreduce time the cost model predicts."""
        first = extras[0]
        instance = Instance(self.dimension(inputs), NRANKS, first["nnz"], self.value_itemsize)
        pairs = list(zip(first["selected"], extras[1]["selected"])) if len(extras) > 1 else []
        out = {
            **select_microcall(instance),
            **wire_microcalls(first["sent_payloads"]),
            **merge_microcalls(pairs),
        }
        out["costmodel.predicted_over_measured"] = (
            CostModel.default().predict(instance, first["algorithm"]).time_s / measured_s
            if first["algorithm"] and measured_s > 0
            else 0.0
        )
        return out


def check_episode(state: TrainState, params: np.ndarray, loss_of) -> bool:
    """First episode: finite params and a loss below the initial one.
    Later episodes: bit-identical to the first."""
    d = digest(params)
    if state.first_digest is not None:
        return d == state.first_digest
    if not np.all(np.isfinite(params)):
        return False
    loss = float(loss_of(params))
    if not loss < state.loss_initial:
        return False
    state.first_digest = d
    state.loss_final = loss
    return True


@dataclass
class TopKInputs:
    data: object
    net: object
    init: np.ndarray
    config: TopKSGDConfig
    eval_fn: object


@dataclass
class TrainTopKWorkload(TrainWorkload):
    steps: int

    def prepare(self, seed: int) -> TopKInputs:
        data = make_cifar_like(n_samples=2048, seed=seed)
        net = make_mlp(3072, 10, hidden=(256, 128), seed=seed + 1)
        config = TopKSGDConfig(
            k=8, bucket_size=512, lr=0.05, quantizer_bits=4, quantizer_bucket=512,
            algorithm="auto", seed=seed,
        )
        return TopKInputs(
            data, net, net.param_vector(), config, make_eval_fn(net, data, max_samples=1024)
        )

    def start(self, comm, inputs: TopKInputs) -> TrainState:
        # one short episode pays every lazy first-call cost before timing
        self._episode(comm, inputs, TrainState(), None, [], steps=2)
        return TrainState(loss_initial=inputs.eval_fn(inputs.init)["loss"])

    def run_batch(self, comm, inputs, state, spans, times) -> np.ndarray:
        return self._episode(comm, inputs, state, spans, times, self.steps)

    def _episode(self, comm, inputs: TopKInputs, state, spans, times, steps) -> np.ndarray:
        grad_fn = make_grad_fn(
            inputs.net, inputs.data, comm, self.batch_size, seed=inputs.config.seed
        )
        clock = StepClock(times)
        if spans is None:
            def timed_grad(params, step):
                clock.tick()
                return grad_fn(params, step)

            result = quantized_topk_sgd(
                comm, timed_grad, inputs.init.size, steps, inputs.config,
                init_params=inputs.init,
            )
            clock.finish()
            return result.params
        return self._traced_episode(comm, inputs, state, spans, grad_fn, times, steps)

    def _traced_episode(self, comm, inputs, state, spans, grad_fn, times, steps):
        """Algorithm 1 rebuilt step by step from the calls quantized_topk_sgd makes."""
        cfg = inputs.config
        params = inputs.init.astype(np.float32, copy=True)
        ef = ErrorFeedback(params.size, cfg.k, cfg.bucket_size, value_dtype=np.float32)
        quantizer = QSGDQuantizer(
            bits=cfg.quantizer_bits, bucket_size=cfg.quantizer_bucket,
            seed=cfg.seed * 7919 + comm.rank,
        )
        for step in range(steps):
            capture = not state.sent_payloads
            spans.capturing = capture
            t0 = now()
            op = spans.begin_op(len(times))
            with spans.span("nn.grad"):
                grad = grad_fn(params, step)
            with spans.span("core.topk.select"):
                sent = ef.select(cfg.learning_rate(step) * grad.astype(np.float32, copy=False))
            with spans.span("quant.quantize"):
                sent = quantize_stream_values(sent, quantizer)
            with spans.span("collectives.resolve"):
                fn, kwargs = resolve_collective(comm, sent, algorithm=cfg.algorithm)
            with spans.span("collectives.algo"):
                total = fn(comm, sent, **kwargs)
            with spans.span("train.apply"):
                params -= total.to_dense()
            spans.close(op)
            times.append((t0, now()))
            if capture:
                state.sent_payloads = spans.sent_payloads
                state.selected = [sent]
                state.nnz = float(sent.nnz)
                spans.capturing = False
            state.algorithm = algorithm_name(fn)
        return params

    def loss(self, inputs: TopKInputs, params: np.ndarray) -> float:
        return inputs.eval_fn(params)["loss"]

    def dimension(self, inputs: TopKInputs) -> int:
        return inputs.init.size


class StepTimedLogisticRegression(LogisticRegression):
    """Logistic regression whose gradient and loss calls mark step bounds.

    ``distributed_sgd_async`` asks the model for one gradient per step and
    for the loss only after its last step, so those calls delimit steps.
    """

    clock: StepClock | None = None

    def grad_stream(self, w, X_batch, y_batch):
        if self.clock is not None:
            self.clock.tick()
        return super().grad_stream(w, X_batch, y_batch)

    def loss(self, w, X, y):
        if self.clock is not None:
            self.clock.finish()
            self.clock = None
        return super().loss(w, X, y)


@dataclass
class AsyncInputs:
    data: object
    config: SGDConfig
    tensor_sizes: list


@dataclass
class TrainAsyncWorkload(TrainWorkload):
    n_samples: int
    tensors: int
    min_bucket_bytes: int
    fuser_k: int
    #: the adaptive selector costs float64 gradient streams
    value_itemsize = 8

    def prepare(self, seed: int) -> AsyncInputs:
        data = make_url_like(scale=0.01, n_samples=self.n_samples, seed=seed)
        n = data.X.shape[1]
        sizes = [
            (f"w{i}", n // self.tensors + (1 if i < n % self.tensors else 0))
            for i in range(self.tensors)
        ]
        config = SGDConfig(epochs=1, batch_size=self.batch_size, algorithm="auto", seed=seed)
        return AsyncInputs(data, config, sizes)

    def fuser(self, inputs: AsyncInputs) -> GradientFuser:
        return GradientFuser(inputs.tensor_sizes, min_bucket_bytes=self.min_bucket_bytes)

    def start(self, comm, inputs: AsyncInputs) -> TrainState:
        self.run_batch(comm, inputs, TrainState(), None, [])
        w0 = np.zeros(self.dimension(inputs))
        return TrainState(loss_initial=self.loss(inputs, w0))

    def run_batch(self, comm, inputs: AsyncInputs, state, spans, times) -> np.ndarray:
        if spans is None:
            model = StepTimedLogisticRegression(self.dimension(inputs))
            model.clock = StepClock(times)
            history = distributed_sgd_async(
                comm, inputs.data, model, inputs.config,
                fuser=self.fuser(inputs), fuser_k=self.fuser_k, adaptive=True,
            )
            return history.params
        return self._traced_episode(comm, inputs, state, spans, times)

    def _traced_episode(self, comm, inputs: AsyncInputs, state, spans, times) -> np.ndarray:
        """The fused, adaptive, one-step-pipelined loop of
        ``distributed_sgd_async`` rebuilt from the calls it makes."""
        cfg = inputs.config
        data = inputs.data
        model = LogisticRegression(data.X.shape[1])
        fuser = self.fuser(inputs)
        selector = AdaptiveSelector(dimension=model.n_features, value_itemsize=8)
        feedback = fuser.make_error_feedback(self.fuser_k)
        for ef in feedback:
            ef.select = self._traced_select(ef.select, spans, state)
        shard = partition_rows(data.n_samples, comm.size, comm.rank)
        X_local, y_local = data.X[shard], data.y[shard]
        n_local = X_local.shape[0]
        rng = np.random.default_rng(cfg.seed * 100003 + comm.rank)
        w = np.zeros(model.n_features, dtype=np.float64)
        steps = max(1, n_local // cfg.batch_size)

        def apply_update(total: np.ndarray) -> None:
            model.apply_regularization(w, cfg.lr)
            w[:] -= (cfg.lr / comm.size) * total.astype(np.float64)

        pending = None
        for _ in range(steps):
            capture = not state.selected
            spans.capturing = capture
            t0 = now()
            op = spans.begin_op(len(times))
            with spans.span("mlopt.grad"):
                rows = rng.choice(n_local, size=min(cfg.batch_size, n_local), replace=False)
                grad = model.grad_stream(w, X_local[rows], y_local[rows])
            with spans.span("costmodel.adaptive.step"):
                algorithm = selector.step(comm, grad.nnz)
            with spans.span("core.fusion.launch"):
                handle = fuser.i_fused_allreduce(
                    comm, grad.to_dense().astype(np.float32), feedback, algorithm=algorithm
                )
            if pending is not None:
                with spans.span("core.fusion.wait"):
                    total = pending.wait()
                with spans.span("train.apply"):
                    apply_update(total)
            pending = handle
            spans.close(op)
            times.append((t0, now()))
            if capture:
                state.sent_payloads = spans.sent_payloads
                state.nnz = float(grad.nnz)
                spans.capturing = False
            state.algorithm = algorithm
        if pending is not None:
            apply_update(pending.wait())
        return w

    @staticmethod
    def _traced_select(select, spans: Spans, state: TrainState):
        def traced(scaled_gradient):
            with spans.span("core.topk.select"):
                out = select(scaled_gradient)
            if spans.capturing:
                state.selected.append(out)
            return out

        return traced

    def loss(self, inputs: AsyncInputs, params: np.ndarray) -> float:
        model = LogisticRegression(inputs.data.X.shape[1])
        return model.loss(params, inputs.data.X, inputs.data.y)

    def dimension(self, inputs: AsyncInputs) -> int:
        return inputs.data.X.shape[1]


#: The workloads, each with the layer it stresses. All run P = 2 ranks, one
#: closed-loop caller per rank, with one BLAS thread per rank.
#:
#: Bare allreduce workloads are deliberately absent. A latency-bound one
#: (1% of 2^16 over shared memory, ~1 ms ops) and a bandwidth-bound one (5%
#: of 2^22 over TCP, ~14 ms ops) were tried: on a host whose CPUs other
#: guests share, their op times and throughput moved by more than the 0.25
#: bound from run to run as that foreign load came and went, while the
#: compute-heavy training steps below stayed within a few percent. The
#: layers they stressed (resolution, transport, wire framing, merge) are
#: traced inside every training step below.
WORKLOADS = {
    w.name: w
    for w in (
        # Algorithm 1 on the 3072-256-128-10 MLP (~821k params) with
        # init_params from the net (zero init does not learn); an episode is
        # 40 steps of batch 64 per rank, long enough for the loss to drop.
        TrainTopKWorkload(
            name="train-topk",
            why=(
                "compute-bound Algorithm 1 step (MLP, top-k 8/512, 4-bit QSGD): "
                "shows how little a collective-only gain buys a training step"
            ),
            backend="shmem",
            steps=40,
            batch_size=64,
        ),
        # Logistic regression on url-like data (scale 0.01, 32k features);
        # 4000 samples give 20 steps of batch 100 per rank per episode. Eight
        # tensors fused into 32 KiB buckets make three non-blocking
        # collectives per step. Over shared memory this loop deadlocked about
        # once in 85k steps (a rank waits in the selector's agreement gather
        # for a peer that never arrives), which fails a run; over TCP it ran
        # clean, so the workload uses the socket transport.
        TrainAsyncWorkload(
            name="train-async",
            why=(
                "communication and overlap: fused non-blocking collectives with "
                "adaptive selection over TCP, the only path through nonblocking and fusion"
            ),
            backend="socket",
            n_samples=4000,
            batch_size=100,
            tensors=8,
            min_bucket_bytes=32 << 10,
            fuser_k=32,
        ),
    )
}
