"""Tests for Algorithm 1 (Quantized TopK SGD) and the dense baseline."""

import numpy as np
import pytest

from repro.collectives import sparse_allreduce
from repro.core import TopKSGDConfig, dense_sgd, quantized_topk_sgd
from repro.core.topk import ErrorFeedback, quantize_stream_values
from repro.costmodel import consistent_mean
from repro.quant import QSGDQuantizer
from repro.runtime import RankError, run_ranks


def make_quadratic(dim: int, nranks: int):
    """A distributed least-squares problem: f(x) = mean_i ||x - c_i||^2 / 2.

    The optimum is the mean of the rank centres; stochastic gradients add
    seeded noise. Used because convergence is provable and checkable.
    """
    centres = [np.random.default_rng(500 + r).standard_normal(dim) * 2 for r in range(nranks)]
    optimum = np.mean(centres, axis=0)

    def grad_fn_for(rank):
        noise_rng = np.random.default_rng(900 + rank)

        def grad_fn(params, step):
            noise = noise_rng.standard_normal(dim) * 0.05
            return ((params - centres[rank]) / nranks + noise).astype(np.float32)

        return grad_fn

    return grad_fn_for, optimum


class TestTopKSGDConvergence:
    @pytest.mark.parametrize("bits", [None, 4, 8])
    def test_converges_to_optimum(self, bits):
        dim, P, steps = 128, 4, 160
        grad_fn_for, optimum = make_quadratic(dim, P)
        # Thm 4.1 asks for diminishing step sizes; the decay also shrinks
        # the stochastic-noise floor the constant-lr iterates would keep.
        cfg = TopKSGDConfig(k=16, bucket_size=64, lr=0.3, lr_decay=0.02, quantizer_bits=bits)

        def prog(comm):
            return quantized_topk_sgd(comm, grad_fn_for(comm.rank), dim, steps, cfg)

        out = run_ranks(prog, P)
        err = np.linalg.norm(out[0].params - optimum) / np.linalg.norm(optimum)
        assert err < 0.15, f"bits={bits}: err={err}"

    def test_dense_baseline_converges(self):
        dim, P, steps = 128, 4, 120
        grad_fn_for, optimum = make_quadratic(dim, P)

        def prog(comm):
            return dense_sgd(comm, grad_fn_for(comm.rank), dim, steps, lr=0.25)

        out = run_ranks(prog, P)
        err = np.linalg.norm(out[0].params - optimum) / np.linalg.norm(optimum)
        assert err < 0.1

    def test_topk_matches_dense_final_point(self):
        """With error feedback and diminishing steps (Thm 4.1's regime),
        sparse and dense SGD land near the same point. Constant step sizes
        would leave TopK a larger noise floor (the EF delay amplifies
        gradient noise) — that's expected theory, not a bug."""
        dim, P, steps = 64, 4, 300
        grad_fn_for, _ = make_quadratic(dim, P)
        cfg = TopKSGDConfig(k=8, bucket_size=32, lr=0.3, lr_decay=0.01)

        def sparse_prog(comm):
            return quantized_topk_sgd(comm, grad_fn_for(comm.rank), dim, steps, cfg)

        def dense_prog(comm):
            return dense_sgd(comm, grad_fn_for(comm.rank), dim, steps, lr=0.3, lr_decay=0.01)

        sp = run_ranks(sparse_prog, P)[0].params
        dn = run_ranks(dense_prog, P)[0].params
        assert np.linalg.norm(sp - dn) / np.linalg.norm(dn) < 0.1


class TestConsistencyAndAccounting:
    def test_replicas_stay_identical(self):
        dim, P = 96, 4
        grad_fn_for, _ = make_quadratic(dim, P)
        cfg = TopKSGDConfig(k=8, bucket_size=48, lr=0.2, quantizer_bits=4)

        def prog(comm):
            return quantized_topk_sgd(comm, grad_fn_for(comm.rank), dim, 30, cfg)

        out = run_ranks(prog, P)
        for r in range(1, P):
            assert np.array_equal(out[r].params, out[0].params)

    def test_bytes_per_step_recorded(self):
        dim, P = 256, 2
        grad_fn_for, _ = make_quadratic(dim, P)
        cfg = TopKSGDConfig(k=4, bucket_size=128, lr=0.1)

        def prog(comm):
            return quantized_topk_sgd(comm, grad_fn_for(comm.rank), dim, 10, cfg)

        out = run_ranks(prog, P)
        assert len(out[0].bytes_sent_per_step) == 10
        assert out[0].mean_bytes_per_step > 0

    def test_quantization_shrinks_wire_bytes(self):
        dim, P = 1 << 14, 2
        grad_fn_for, _ = make_quadratic(dim, P)

        def prog(comm, bits):
            cfg = TopKSGDConfig(k=8, bucket_size=512, lr=0.1, quantizer_bits=bits)
            return quantized_topk_sgd(comm, grad_fn_for(comm.rank), dim, 5, cfg)

        fp = run_ranks(prog, P, None)[0].mean_bytes_per_step
        q4 = run_ranks(prog, P, 4)[0].mean_bytes_per_step
        assert q4 < fp
        # index bytes dominate: 4+4 fp pairs -> 4+0.5ish quantized
        assert q4 / fp < 0.75

    def test_sparse_sends_far_fewer_bytes_than_dense(self):
        dim, P = 1 << 14, 2
        grad_fn_for, _ = make_quadratic(dim, P)
        cfg = TopKSGDConfig(k=4, bucket_size=512, lr=0.1)

        def sparse_prog(comm):
            return quantized_topk_sgd(comm, grad_fn_for(comm.rank), dim, 5, cfg)

        def dense_prog(comm):
            return dense_sgd(comm, grad_fn_for(comm.rank), dim, 5, lr=0.1)

        sp = run_ranks(sparse_prog, P)[0].mean_bytes_per_step
        dn = run_ranks(dense_prog, P)[0].mean_bytes_per_step
        assert dn / sp > 20

    def test_eval_history(self):
        dim, P = 32, 2
        grad_fn_for, optimum = make_quadratic(dim, P)
        cfg = TopKSGDConfig(k=8, bucket_size=32, lr=0.3)

        def prog(comm):
            return quantized_topk_sgd(
                comm, grad_fn_for(comm.rank), dim, 21, cfg,
                eval_fn=lambda p: {"dist": float(np.linalg.norm(p - optimum))},
                eval_every=10,
            )

        out = run_ranks(prog, P)
        hist = out[0].history
        assert [h["step"] for h in hist] == [0, 10, 20]
        assert hist[-1]["dist"] < hist[0]["dist"]

    def test_lr_schedule(self):
        cfg = TopKSGDConfig(k=1, lr=1.0, lr_decay=0.5)
        assert cfg.learning_rate(0) == 1.0
        assert cfg.learning_rate(2) == pytest.approx(0.5)

    def test_bad_grad_shape_raises(self):
        cfg = TopKSGDConfig(k=1)

        def prog(comm):
            return quantized_topk_sgd(comm, lambda p, s: np.zeros(3, np.float32), 5, 1, cfg)

        with pytest.raises(RankError):
            run_ranks(prog, 2)

    def test_negative_steps_rejected(self):
        cfg = TopKSGDConfig(k=1)

        def prog(comm):
            return quantized_topk_sgd(comm, lambda p, s: np.zeros(5, np.float32), 5, -1, cfg)

        with pytest.raises(RankError):
            run_ranks(prog, 2)

    def test_init_params_used(self):
        dim, P = 16, 2
        init = np.full(dim, 7.0, dtype=np.float32)
        cfg = TopKSGDConfig(k=1, bucket_size=16, lr=0.0)

        def prog(comm):
            return quantized_topk_sgd(
                comm, lambda p, s: np.zeros(dim, np.float32), dim, 1, cfg, init_params=init
            )

        out = run_ranks(prog, P)
        assert np.allclose(out[0].params, 7.0)


def reference_topk_sgd(comm, grad_fn, dimension, steps, config, init_params):
    """Algorithm 1 as a plain loop: resolve "auto" and densify the sum every
    step. Returns the params and whether each step's sum came back dense."""
    params = init_params.astype(np.float32, copy=True)
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
    dense_sums = []
    for step in range(steps):
        grad = grad_fn(params, step)
        comm.compute(grad.nbytes * 3, "grad")
        sent = ef.select(config.learning_rate(step) * grad.astype(np.float32, copy=False))
        if quantizer is not None:
            sent = quantize_stream_values(sent, quantizer)
        total = sparse_allreduce(comm, sent, algorithm=config.algorithm)
        dense_sums.append(total.is_dense)
        update = total.to_dense()
        comm.compute(update.nbytes * 2, "apply")
        params -= update
    return params, dense_sums


class TestMatchesReferenceLoop:
    """The driver resolves "auto" once and applies the sum in place; both
    must leave the params exactly where the per-step reference loop does."""

    DIM, P, STEPS = 1000, 2, 12  # 1000 = 15 buckets of 64 plus a tail of 40

    def _run(self, driver, backend, algorithm, bits):
        grad_fn_for, _ = make_quadratic(self.DIM, self.P)
        init = np.random.default_rng(3).standard_normal(self.DIM).astype(np.float32)
        cfg = TopKSGDConfig(
            k=8, bucket_size=64, lr=0.2, quantizer_bits=bits, quantizer_bucket=64,
            algorithm=algorithm, seed=5,
        )

        def prog(comm):
            out = driver(comm, grad_fn_for(comm.rank), self.DIM, self.STEPS, cfg, init)
            return out if isinstance(out, tuple) else (out.params, None)

        return run_ranks(prog, self.P, backend=backend)

    @staticmethod
    def _driver(comm, grad_fn, dimension, steps, cfg, init):
        return quantized_topk_sgd(comm, grad_fn, dimension, steps, cfg, init_params=init)

    @pytest.mark.parametrize("backend", ["thread", "shmem"])
    @pytest.mark.parametrize("algorithm", ["ssar_rec_dbl", "dsar_split_ag", "auto"])
    @pytest.mark.parametrize("bits", [None, 4])
    def test_bit_identical_params(self, backend, algorithm, bits):
        ref = self._run(reference_topk_sgd, backend, algorithm, bits)
        new = self._run(self._driver, backend, algorithm, bits)
        dense_sums = ref[0][1]
        if algorithm == "dsar_split_ag":
            assert all(dense_sums)
        elif algorithm == "ssar_rec_dbl":
            assert not any(dense_sums)
        for r in range(self.P):
            assert new[r][0].dtype == ref[r][0].dtype == np.float32
            assert np.array_equal(new[r][0], ref[r][0])
        # "auto" agrees on the nnz once per run instead of once per step
        agreement = 0
        if algorithm == "auto":
            one_round = run_ranks(lambda comm: consistent_mean(comm, 1.0), self.P, backend=backend)
            agreement = one_round.trace.total_bytes_sent
            assert agreement > 0
        saved = ref.trace.total_bytes_sent - new.trace.total_bytes_sent
        assert saved == (self.STEPS - 1) * agreement
