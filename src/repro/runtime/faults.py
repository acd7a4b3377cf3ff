"""Deterministic fault injection: drop, delay or kill on any backend.

SparCML targets deployments where a dead or slow rank is the common case
(§6); this module makes those failures *reproducible test inputs* instead
of production surprises. The design follows the shape of PyTorch's faulty
RPC agent fixture — a wrapper transport with a deterministic schedule of
which messages to break — adapted to this runtime's transport hooks:

:class:`FaultPlan`
    a frozen, seeded schedule of actions keyed on the message identity
    ``(src, dst, tag, seq)`` plus a per-rank kill trigger keyed on the
    rank's transport-operation count. Decisions are pure functions of the
    key and the seed (a keyed hash, not Python's salted ``hash()``), so
    the same plan reproduces the same failure sequence on every backend,
    every process, every run.
:class:`FaultyComm`
    a proxy communicator that applies the plan at the transport-hook
    layer: drops vanish on the wire *after* the send is traced (exactly
    where a real network would lose them), delays sleep before the send,
    kills terminate the rank mid-collective, and survivors past the kill
    op wait briefly for the world to see the death (see :class:`FaultPlan`).
:class:`FaultyBackend`
    a wrapper backend registered as ``"faulty"``; the spec string
    ``"faulty:<inner>"`` (e.g. ``run_ranks(..., backend="faulty:shmem")``)
    runs the whole world on ``<inner>`` with every rank's communicator
    wrapped — so the equivalence suite can execute under injected faults
    on thread, process, shmem and socket alike.

The launcher surfaces this as ``run_ranks(..., fault_plan=...)``, and the
CLI entry points (``quickstart``, ``serve-rank``) as ``--fault-plan``.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .backend import Backend, ParallelResult, get_backend, register_backend
from .comm import Communicator, WorldAbortedError
from .thread_backend import ThreadComm
from .trace import Trace

__all__ = [
    "FaultPlan",
    "FaultyBackend",
    "FaultyComm",
    "RankKilledError",
    "KILL_EXIT_CODE",
    "KILL_GATE_S",
    "KILL_GATE_STEP_S",
]

#: exit status of a rank hard-killed by a plan on a process-family backend.
KILL_EXIT_CODE = 113

#: longest one survivor operation past a plan's kill op waits for the world
#: to observe the victim's death (seconds), and the total a survivor spends
#: in such waits over a run. See :class:`FaultPlan`.
KILL_GATE_STEP_S = 0.01
KILL_GATE_S = 2.0

#: the three actions a plan can take on one message.
DROP, DELAY, PASS = "drop", "delay", "pass"


class RankKilledError(RuntimeError):
    """Raised *inside* a rank scheduled to die on the thread backend.

    Thread ranks share the caller's process, so "kill" cannot be a real
    ``os._exit`` there; raising this unwinds the rank like a crash and the
    world aborts naming it, giving survivors the same
    :class:`~repro.runtime.comm.RankFailedError` they would see on the
    process-family backends.
    """

    def __init__(self, rank: int, op_index: int) -> None:
        super().__init__(f"rank {rank} killed by fault plan at op {op_index}")
        self.rank = rank
        self.op_index = op_index


def _parse_message_key(text: str) -> tuple[int, int, int, int]:
    """Parse a pinned-message key ``SRC:DST:TAG:SEQ`` from a spec clause."""
    fields = text.split(":")
    if len(fields) != 4:
        raise ValueError(f"expected SRC:DST:TAG:SEQ, got {text!r}")
    return tuple(int(f) for f in fields)  # type: ignore[return-value]


def _key_uniform(seed: int, src: int, dst: int, tag: int, seq: int) -> float:
    """Deterministic uniform in [0, 1) for one message key.

    A keyed blake2b, *not* ``hash()``: Python salts ``hash()`` per process,
    which would make every rank (and every rerun) decide differently.
    """
    digest = hashlib.blake2b(
        struct.pack("<qqqqq", seed, src, dst, tag, seq), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults for one run.

    Probabilistic faults (``drop_rate`` / ``delay_rate``) are decided per
    message from the seeded key hash; explicit faults (``drops`` /
    ``delays``) pin individual messages by their exact
    ``(src, dst, tag, seq)`` key and take precedence. ``kill_rank`` dies
    on its ``kill_after_ops``-th transport operation (sends and receives
    both count), so the kill lands mid-collective deterministically.

    The kill is a world event at that logical time, not only the
    victim's: while the victim may still be alive, every survivor
    transport operation past ``kill_after_ops`` first waits up to
    :data:`KILL_GATE_STEP_S` for the world to observe the death, and
    raises the resulting :class:`~repro.runtime.comm.RankFailedError`
    once it does. So a survivor that never talks to the victim surfaces
    the failure like one blocked on it, instead of racing the victim to
    the end of the program. The waits are per operation (a victim stuck
    behind a survivor's later message still gets it) and add up to at
    most :data:`KILL_GATE_S` per survivor.
    """

    seed: int = 0
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.002
    kill_rank: int | None = None
    kill_after_ops: int = 1
    revive_rank: int | None = None
    revive_after_ops: int = 1
    drops: frozenset = frozenset()
    delays: Mapping[tuple, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.drop_rate + self.delay_rate > 1.0:
            raise ValueError("drop_rate + delay_rate must not exceed 1")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")
        if self.kill_after_ops < 1:
            raise ValueError(f"kill_after_ops must be >= 1, got {self.kill_after_ops}")
        if self.revive_after_ops < 1:
            raise ValueError(f"revive_after_ops must be >= 1, got {self.revive_after_ops}")
        if self.revive_rank is not None:
            if self.revive_rank != self.kill_rank:
                raise ValueError(
                    f"revive_rank must name the killed rank "
                    f"({self.kill_rank}), got {self.revive_rank}"
                )
            if self.revive_after_ops <= self.kill_after_ops:
                raise ValueError(
                    "revive_after_ops must come after kill_after_ops "
                    f"({self.revive_after_ops} <= {self.kill_after_ops})"
                )

    # ------------------------------------------------------------------
    # decisions (pure, deterministic)
    # ------------------------------------------------------------------
    def action(self, src: int, dst: int, tag: int, seq: int) -> tuple[str, float]:
        """Decide one message's fate: ``(action, delay_seconds)``."""
        key = (src, dst, tag, seq)
        if key in self.drops:
            return DROP, 0.0
        if key in self.delays:
            return DELAY, float(self.delays[key])
        if self.drop_rate or self.delay_rate:
            u = _key_uniform(self.seed, src, dst, tag, seq)
            if u < self.drop_rate:
                return DROP, 0.0
            if u < self.drop_rate + self.delay_rate:
                return DELAY, self.delay_s
        return PASS, 0.0

    def kills(self, rank: int, op_index: int) -> bool:
        """Should ``rank`` die at its ``op_index``-th (1-based) transport op?"""
        return rank == self.kill_rank and op_index >= self.kill_after_ops

    def revives(self, op_index: int) -> bool:
        """Should the killed rank rejoin once survivors pass ``op_index`` ops?

        Consumed by elastic harnesses (not by :class:`FaultyComm` itself):
        the kill is a transport-level event, but the revive is a membership
        decision, so the driver — e.g. the quickstart's elastic path —
        checks this against a survivor's op count and relaunches the rank
        through the rendezvous when it fires.
        """
        return self.revive_rank is not None and op_index >= self.revive_after_ops

    # ------------------------------------------------------------------
    # CLI spec
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact CLI spec into a plan.

        Comma-separated ``key=value`` clauses::

            seed=7,drop=0.02,delay=0.1/0.005,kill=2@40,revive=2@80

        ``drop=R`` sets the drop rate; ``delay=R`` or ``delay=R/SECONDS``
        the delay rate (and per-message delay); ``kill=RANK`` or
        ``kill=RANK@OPS`` the rank to kill (after OPS transport ops,
        default 1); ``revive=RANK@OPS`` marks the killed rank for rejoin
        once a survivor passes OPS ops. Individual messages are pinned
        with repeatable ``pindrop=SRC:DST:TAG:SEQ`` and
        ``pindelay=SRC:DST:TAG:SEQ/SECONDS`` clauses.

        The spec grammar is the inverse of :meth:`describe`:
        ``FaultPlan.from_spec(plan.describe()) == plan`` for every plan.
        """
        kwargs: dict[str, Any] = {}
        pinned_drops: set[tuple] = set()
        pinned_delays: dict[tuple, float] = {}
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            key, sep, value = clause.partition("=")
            if not sep:
                raise ValueError(f"bad fault-plan clause {clause!r} (expected key=value)")
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key == "drop":
                    kwargs["drop_rate"] = float(value)
                elif key == "delay":
                    rate, slash, seconds = value.partition("/")
                    kwargs["delay_rate"] = float(rate)
                    if slash:
                        kwargs["delay_s"] = float(seconds)
                elif key == "kill":
                    rank, at, ops = value.partition("@")
                    kwargs["kill_rank"] = int(rank)
                    if at:
                        kwargs["kill_after_ops"] = int(ops)
                elif key == "revive":
                    rank, at, ops = value.partition("@")
                    kwargs["revive_rank"] = int(rank)
                    if at:
                        kwargs["revive_after_ops"] = int(ops)
                elif key == "pindrop":
                    pinned_drops.add(_parse_message_key(value))
                elif key == "pindelay":
                    msg, slash, seconds = value.partition("/")
                    if not slash:
                        raise ValueError("expected SRC:DST:TAG:SEQ/SECONDS")
                    pinned_delays[_parse_message_key(msg)] = float(seconds)
                else:
                    raise ValueError(f"unknown fault-plan key {key!r}")
            except ValueError as exc:
                raise ValueError(f"bad fault-plan clause {clause!r}: {exc}") from None
        if pinned_drops:
            kwargs["drops"] = frozenset(pinned_drops)
        if pinned_delays:
            kwargs["delays"] = pinned_delays
        return cls(**kwargs)

    def describe(self) -> str:
        """The plan as a spec string that :meth:`from_spec` parses back.

        Emitting the bare clause grammar (rather than prose) makes the
        description copy-pastable into ``--fault-plan`` and round-trippable:
        ``FaultPlan.from_spec(plan.describe()) == plan``.
        """
        parts = [f"seed={self.seed}"]
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate}")
        if self.delay_rate or self.delay_s != 0.002:
            parts.append(f"delay={self.delay_rate}/{self.delay_s}")
        if self.kill_rank is not None:
            parts.append(f"kill={self.kill_rank}@{self.kill_after_ops}")
        if self.revive_rank is not None:
            parts.append(f"revive={self.revive_rank}@{self.revive_after_ops}")
        for key in sorted(self.drops):
            parts.append("pindrop=" + ":".join(str(int(v)) for v in key))
        for key in sorted(self.delays):
            joined = ":".join(str(int(v)) for v in key)
            parts.append(f"pindelay={joined}/{float(self.delays[key])}")
        return ",".join(parts)


class FaultyComm(Communicator):
    """Fault-injecting proxy: applies a :class:`FaultPlan` to every message.

    Wraps a backend communicator and interposes on the transport hooks
    only — tags, peers, tracing, collectives and sub-communicator
    machinery all behave exactly as on the wrapped communicator, so any
    program (including the whole equivalence suite) runs unmodified.
    """

    def __init__(self, inner: Communicator, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.rank = inner.rank
        self.size = inner.size
        self.trace = inner.trace
        self.topology = inner.topology
        self.op_timeout = inner.op_timeout
        self._collective_counter = 0
        self._ops = 0
        #: what is left of this survivor's :data:`KILL_GATE_S` budget; zero
        #: once a world failure has reached the program through this proxy
        self._gate_left = KILL_GATE_S

    @property
    def world_rank(self) -> int:
        return self.inner.world_rank

    # -- mapping/bookkeeping hooks: pure delegation ---------------------
    def _map_tag(self, tag: int) -> int:
        return self.inner._map_tag(tag)

    def _map_peer(self, peer: int) -> int:
        return self.inner._map_peer(peer)

    def _abort_state(self):
        return self.inner._abort_state()

    def _alloc_seq(self, dest: int, tag: int) -> int:
        return self.inner._alloc_seq(dest, tag)

    def _probe(self, source: int, tag: int) -> bool:
        return self.inner._probe(source, tag)

    # -- the fault interposition ----------------------------------------
    def _tick(self) -> None:
        self._ops += 1
        plan = self.plan
        if plan.kill_rank is None:
            return
        if self.inner.rank == plan.kill_rank:
            if plan.kills(self.inner.rank, self._ops):
                self._die()
        elif self._ops > plan.kill_after_ops and self._gate_left > 0:
            self._await_kill()

    def _await_kill(self) -> None:
        """Survivor side of the kill: give the world a moment to see it."""
        if self.plan.kill_rank in getattr(self.inner, "dead_ranks", ()):
            self._gate_left = 0.0  # a shrink already settled the death
            return
        start = time.monotonic()
        aborted = self.inner._await_abort(min(KILL_GATE_STEP_S, self._gate_left))
        self._gate_left -= time.monotonic() - start
        if aborted:
            self._gate_left = 0.0
            raise self.inner._abort_state().error()

    def _die(self) -> None:
        if isinstance(self.inner, ThreadComm):
            # thread ranks share the test process: simulate death by
            # unwinding; the runner aborts the world naming this rank
            raise RankKilledError(self.inner.rank, self._ops)
        # real-process ranks die for real: immediate exit, no FIN frames,
        # no result report — peers observe EOF exactly like a crash
        os._exit(KILL_EXIT_CODE)

    def _transport_send(self, obj: Any, nbytes: int, seq: int, dest: int, tag: int) -> None:
        self._tick()
        action, delay = self.plan.action(self.inner.rank, dest, tag, seq)
        if action == DROP:
            return  # lost on the wire; the matching recv never completes
        if action == DELAY:
            time.sleep(delay)
        try:
            self.inner._transport_send(obj, nbytes, seq, dest, tag)
        except WorldAbortedError:
            self._gate_left = 0.0
            raise

    def _transport_recv(self, source: int, tag: int) -> tuple[Any, int, int]:
        self._tick()
        try:
            return self.inner._transport_recv(source, tag)
        except WorldAbortedError:
            self._gate_left = 0.0
            raise


class _FaultyProgram:
    """Picklable wrapper running the user's program on a faulty communicator.

    A module-level class (not a closure) so spawn-platform process
    backends can still pickle the rank function.
    """

    def __init__(self, fn: Callable[..., Any], plan: FaultPlan) -> None:
        self.fn = fn
        self.plan = plan

    def __call__(self, comm: Communicator, *args: Any, **kwargs: Any) -> Any:
        return self.fn(FaultyComm(comm, self.plan), *args, **kwargs)


class FaultyBackend(Backend):
    """Wrapper backend: run on an inner backend with faults injected.

    Registered as ``"faulty"``; the colon spec selects the inner backend,
    so ``backend="faulty:shmem"`` runs the shmem transport under the
    plan. Use :meth:`with_plan` (or ``run_ranks(..., fault_plan=...)``,
    which composes it for you) to attach a non-default plan.
    """

    name = "faulty"

    def __init__(self, inner: "str | Backend" = "thread", plan: FaultPlan | None = None) -> None:
        self.inner = get_backend(inner if inner else "thread")
        self.plan = plan if plan is not None else FaultPlan()
        self.name = f"faulty:{self.inner.name}"

    def with_plan(self, plan: FaultPlan) -> "FaultyBackend":
        """A copy of this wrapper running ``plan`` (backends are stateless)."""
        return FaultyBackend(self.inner, plan)

    def run(
        self,
        fn: Callable[..., Any],
        nranks: int,
        *args: Any,
        copy_payloads: bool = True,
        trace: Trace | None = None,
        timeout: float | None = 300.0,
        op_timeout: float | None = None,
        topology: Any = None,
        **kwargs: Any,
    ) -> ParallelResult:
        return self.inner.run(
            _FaultyProgram(fn, self.plan),
            nranks,
            *args,
            copy_payloads=copy_payloads,
            trace=trace,
            timeout=timeout,
            op_timeout=op_timeout,
            topology=topology,
            **kwargs,
        )


def _faulty_factory(inner: str = "thread") -> FaultyBackend:
    return FaultyBackend(inner or "thread")


#: marks the factory as a wrapper: ``get_backend("faulty:<inner>")`` passes
#: the inner spec through (see :func:`~repro.runtime.backend.get_backend`).
_faulty_factory.wraps_spec = True

register_backend(FaultyBackend.name, _faulty_factory)
