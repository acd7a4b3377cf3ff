"""Run one workload and turn what the ranks recorded into metrics.

A run is ``ROUNDS`` rounds. Each round generates the workload's inputs from
the seed, launches a fresh world, warms it up and runs timed batches for its
share of ``--seconds``; so set-up happens several times per run and
``setup_s`` is a median. Latency percentiles are taken per round and the
median over rounds is reported, so one round that shared the host with a
burst of foreign load does not decide the run; ``ops_per_s`` stays a ratio
of totals, so a stall anywhere in the run lowers it. Between batches rank 0
broadcasts whether to go on (its clock decides), which keeps both ranks'
loops in step and stays outside every timed interval.

An untraced run has one phase per round. A traced run has two: the same
untraced loop, then the traced one, in the same world on the same inputs,
so the traced results are checked bit for bit against the untraced ones and
``trace.overhead`` compares two p50s measured side by side.

Failures are counted, never retried: a wrong result, an exception or a
timeout marks the op failed. A rank that raises stops its loop and still
returns what it recorded; its peer times out after ``OP_TIMEOUT_S`` and does
the same.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro import run_ranks
from repro.runtime.backend import RankError
from repro.runtime.trace import MARK, SEND

from spans import Spans, instrument_comm, per_op_layers, uninstrument_comm
from workloads import NRANKS

now = time.perf_counter

ROUNDS = 5
#: per-op transport deadline; a stalled op fails after this long. An op that
#: stalls for tens of seconds and then completes counts as a slow op.
OP_TIMEOUT_S = 60.0
#: the world watchdog allows this much beyond a round's time budget, so a
#: blocked op hits its own deadline first.
ROUND_GRACE_S = OP_TIMEOUT_S + 5.0
#: no further round starts once the run has taken this long; with the
#: watchdog this keeps a run that fails everywhere under three minutes.
RUN_BUDGET_S = 80.0

PLAIN = "plain"
TRACED = "traced"

#: op_tail_ms is the first of these percentiles of each round: the highest
#: that every workload's rounds support with at least ten samples beyond it.
#: It is fixed, so a faster commit, which fits more ops into a round, reports
#: the same percentile; only a round too short for it steps down the ladder.
TAIL_LADDER = (90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

#: per-layer metric -> (inclusive or self time, span names), in ms per op.
LAYER_SPANS = {
    "collectives.resolve_ms": ("incl", ("collectives.resolve",)),
    "collectives.algo_ms": ("incl", ("collectives.algo",)),
    "collectives.self_ms": ("self", ("collectives.algo",)),
    "runtime.send_ms": ("self", ("runtime.send", "runtime.isend")),
    "runtime.recv_wait_ms": ("self", ("runtime.recv", "runtime.sendrecv")),
    "nn.grad_ms": ("incl", ("nn.grad",)),
    "core.topk.select_ms": ("incl", ("core.topk.select",)),
    "quant.quantize_ms": ("incl", ("quant.quantize",)),
    "train.apply_ms": ("incl", ("train.apply",)),
    "mlopt.grad_ms": ("incl", ("mlopt.grad",)),
    "core.fusion.launch_ms": ("incl", ("core.fusion.launch",)),
    "core.fusion.wait_ms": ("incl", ("core.fusion.wait",)),
    "costmodel.adaptive.step_ms": ("incl", ("costmodel.adaptive.step",)),
}

#: per-layer metrics measured as microcalls, and their units.
MICROCALL_UNITS = {
    "costmodel.select_us": "us",
    "costmodel.predicted_over_measured": "ratio",
    "runtime.wire.encode_us": "us",
    "runtime.wire.decode_us": "us",
    "streams.merge_us": "us",
    "streams.merged_nnz": "count",
}

#: the traced decomposition must cover at least this share of an op.
MIN_ATTRIBUTED_SHARE = 0.9


def mark(phase: str, edge: str) -> str:
    return f"perfbench:{phase}:{edge}"


# ----------------------------------------------------------------------
# inside a rank
# ----------------------------------------------------------------------
def rank_main(comm, workload, inputs, phases) -> dict:
    out = {"t_enter": now(), "phases": {}, "error": None, "digests": {}, "extras": {}}
    try:
        state = workload.start(comm, inputs)
    except Exception:
        out["error"] = "start: " + traceback.format_exc(limit=3)
        return out
    for phase, budget in phases:
        rec = {"times": [], "oks": [], "batches": [], "spans": None}
        out["phases"][phase] = rec
        spans = Spans() if phase == TRACED else None
        if spans is not None:
            instrument_comm(comm, spans)
        try:
            run_phase(comm, workload, inputs, state, spans, rec, budget, phase)
        except Exception:
            # the op in flight failed, and so did every op of this batch that
            # completed but was never checked
            rec["oks"].extend([False] * (len(rec["times"]) + 1 - len(rec["oks"])))
            out["error"] = f"{phase}: " + traceback.format_exc(limit=3)
        finally:
            if spans is not None:
                uninstrument_comm(comm)
                rec["spans"] = spans.export()
        if out["error"]:
            break
    out["digests"] = workload.digests(state)
    out["extras"] = workload.extras(state)
    return out


def run_phase(comm, workload, inputs, state, spans, rec, budget, phase) -> None:
    times, oks, batches = rec["times"], rec["oks"], rec["batches"]
    deadline = now() + budget
    first = True
    while comm.bcast((first or now() < deadline) if comm.rank == 0 else None, root=0):
        first = False
        n0 = len(times)
        comm.mark(mark(phase, "begin"))
        outputs = workload.run_batch(comm, inputs, state, spans, times)
        comm.mark(mark(phase, "end"))
        n = len(times) - n0
        batches.append((times[n0][0], times[-1][1], n))
        oks.extend(workload.check_batch(inputs, state, outputs, n))


# ----------------------------------------------------------------------
# in the parent
# ----------------------------------------------------------------------
@dataclass
class Round:
    t_start: float
    t_spawn: float
    ranks: list
    trace: object
    error: str | None


@dataclass
class PhaseStats:
    attempted: int = 0
    failed: int = 0
    #: per round: the slowest rank's latency of every completed op.
    latencies: list = field(default_factory=list)
    completed_in_batches: int = 0
    batch_wall_s: float = 0.0
    wire_bytes: int = 0
    setup_s: list = field(default_factory=list)
    spawn_s: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    """All rounds of one run; returns the report (metrics and details)."""
    rounds: list[Round] = []
    inputs = None
    t_run = now()
    for _ in range(ROUNDS):
        if rounds and now() - t_run > RUN_BUDGET_S:
            break
        budget = seconds / ROUNDS
        phases = [(PLAIN, budget / 2), (TRACED, budget / 2)] if traced else [(PLAIN, budget)]
        t_start = now()
        inputs = workload.prepare(seed)
        t_spawn = now()
        error = None
        trace = None
        try:
            result = run_ranks(
                rank_main, NRANKS, workload, inputs, phases,
                backend=workload.backend,
                timeout=budget + ROUND_GRACE_S,
                op_timeout=OP_TIMEOUT_S,
            )
            ranks, trace = list(result.results), result.trace
        except RankError as exc:
            ranks = list(exc.partial_results or [None] * NRANKS)
            error = str(exc)
        except TimeoutError as exc:
            ranks = [None] * NRANKS
            error = f"world timed out: {exc}"
        rounds.append(Round(t_start, t_spawn, ranks, trace, error))
    return assemble(workload, rounds, inputs, traced)


def combine(rounds: list[Round], phase: str) -> PhaseStats:
    st = PhaseStats()
    for rnd in rounds:
        recs = [r["phases"].get(phase) if r else None for r in rnd.ranks]
        st.errors += [r["error"] for r in rnd.ranks if r and r["error"]]
        if rnd.error:
            st.errors.append(rnd.error)
        if rnd.ranks and all(r is not None for r in rnd.ranks):
            st.spawn_s.append(max(r["t_enter"] for r in rnd.ranks) - rnd.t_spawn)
        present = [x for x in recs if x is not None]
        attempted = max((len(x["oks"]) for x in present), default=0)
        if attempted == 0:
            # the world never reached its first op: one failed attempt
            st.attempted += 1
            st.failed += 1
            continue
        st.attempted += attempted
        for i in range(attempted):
            if any(x is None or i >= len(x["oks"]) or not x["oks"][i] for x in recs):
                st.failed += 1
        if len(present) < len(recs):
            continue
        n = min(len(x["times"]) for x in recs)
        st.latencies.append(
            [max(x["times"][i][1] - x["times"][i][0] for x in recs) for i in range(n)]
        )
        nb = min(len(x["batches"]) for x in recs)
        for b in range(nb):
            st.batch_wall_s += max(x["batches"][b][1] for x in recs) - min(
                x["batches"][b][0] for x in recs
            )
            st.completed_in_batches += min(x["batches"][b][2] for x in recs)
        if nb and phase == PLAIN:
            st.setup_s.append(max(x["batches"][0][0] for x in recs) - rnd.t_start)
        if rnd.trace is not None:
            st.wire_bytes += sum(
                phase_bytes(rnd.trace.events(r), phase) for r in range(len(recs))
            )
    return st


def phase_bytes(events, phase: str) -> int:
    """Wire bytes a rank sent inside the phase's timed batches."""
    begin, end = mark(phase, "begin"), mark(phase, "end")
    inside = False
    total = 0
    for e in events:
        if e.op == MARK:
            if e.label == begin:
                inside = True
            elif e.label == end:
                inside = False
        elif inside and e.op == SEND:
            total += e.nbytes
    return total


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def digests_agree(rounds: list[Round]) -> bool:
    """Every rank of every round ended with the same results, bit for bit."""
    seen = [r["digests"] for rnd in rounds for r in rnd.ranks if r is not None]
    return bool(seen) and all(d == seen[0] for d in seen)


def round_percentile(latencies: list, percentile: float) -> float:
    """Median over rounds of each round's percentile, in seconds."""
    per_round = [np.percentile(lat, percentile) for lat in latencies if lat]
    return float(np.median(per_round)) if per_round else 0.0


def assemble(workload, rounds: list[Round], inputs, traced: bool) -> dict:
    plain = combine(rounds, PLAIN)
    agree = digests_agree(rounds)
    attempted, failed = plain.attempted, plain.failed
    details: dict = {"rounds": len(rounds), "errors": plain.errors[:4]}
    extras = [r["extras"] for r in (rounds[-1].ranks if rounds else []) if r is not None]
    if extras:
        details["loss_initial"] = extras[0]["loss_initial"]
    sizes = [len(lat) for lat in plain.latencies if lat]
    tail = tail_percentile(min(sizes, default=0))
    details["op_tail"] = {"percentile": tail, "n_per_round": sizes}
    details["op_percentiles_ms"] = {
        str(p): round_percentile(plain.latencies, p) * 1e3 for p in (50.0, 90.0, 99.0)
    }
    details["op_max_ms"] = max((max(lat) for lat in plain.latencies if lat), default=0.0) * 1e3
    p50_s = round_percentile(plain.latencies, 50.0)
    if not traced:
        completed = plain.completed_in_batches
        metrics = {
            "setup_s": (float(np.median(plain.setup_s)) if plain.setup_s else 0.0, "s"),
            "op_p50_ms": (p50_s * 1e3, "ms"),
            "op_tail_ms": (round_percentile(plain.latencies, tail) * 1e3, "ms"),
            "ops_per_s": (completed / plain.batch_wall_s if plain.batch_wall_s else 0.0, "1/s"),
            "samples_per_s": (
                NRANKS * workload.batch_size * completed / plain.batch_wall_s
                if plain.batch_wall_s else 0.0,
                "1/s",
            ),
            # loss after one episode's fixed number of steps, on the workload's
            # fixed evaluation set; every episode of the run ends identically
            "loss_final": (extras[0]["loss_final"] if extras else 0.0, "nats"),
            "wire_bytes_per_op": (plain.wire_bytes / completed if completed else 0.0, "B"),
            "success_rate": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
        }
        correct = failed == 0 and attempted > 0 and agree
        return report(correct, attempted, failed, metrics, details, agree)

    tr = combine(rounds, TRACED)
    attempted += tr.attempted
    failed += tr.failed
    rows = [
        row
        for rnd in rounds
        for r in rnd.ranks
        if r is not None and r["phases"].get(TRACED, {}).get("spans")
        for row in per_op_layers(r["phases"][TRACED]["spans"]).values()
    ]
    metrics = {
        name: (median_of(rows, kind, names) * 1e3, "ms")
        for name, (kind, names) in LAYER_SPANS.items()
    }
    metrics["runtime.messages"] = (
        float(np.median([row.get("messages", 0.0) for row in rows])) if rows else 0.0, "count"
    )
    # 95% of the traced ops have at least this share of their wall time
    # inside a named layer span
    shares = np.asarray([row["attributed_s"] / row["op_s"] for row in rows if row.get("op_s")])
    share = float(np.percentile(shares, 5)) if shares.size else 0.0
    metrics["trace.attributed_share"] = (share, "ratio")
    traced_p50_s = round_percentile(tr.latencies, 50.0)
    overhead = traced_p50_s / p50_s - 1.0 if traced_p50_s and p50_s else 0.0
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["runtime.launcher.spawn_s"] = (
        float(np.median(plain.spawn_s)) if plain.spawn_s else 0.0, "s"
    )
    # the cost model predicts one blocking allreduce: resolution + algorithm
    measured_s = median_of(rows, "incl", ("collectives.resolve", "collectives.algo"))
    if inputs is not None and extras:
        for name, value in workload.microcalls(inputs, extras, measured_s).items():
            metrics[name] = (float(value), MICROCALL_UNITS[name])
    details["attributed_share_median"] = float(np.median(shares)) if shares.size else 0.0
    correct = (
        failed == 0 and attempted > 0 and agree and share >= MIN_ATTRIBUTED_SHARE
    )
    return report(correct, attempted, failed, metrics, details, agree)


def median_of(rows: list, kind: str, names: tuple) -> float:
    if not rows:
        return 0.0
    return float(np.median([sum(row.get(f"{kind}:{n}", 0.0) for n in names) for row in rows]))


def report(correct, attempted, failed, metrics, details, agree) -> dict:
    details["bit_identical"] = agree
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }
