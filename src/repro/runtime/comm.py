"""Abstract communicator interface (the MPI stand-in).

The collective algorithms in :mod:`repro.collectives` are written against
this interface only; any backend that provides blocking point-to-point
``send``/``recv`` with FIFO matching per (source, dest, tag) channel — the
semantics MPI guarantees — can execute them. The library ships two
implementations, selected by the ``backend=`` argument of
:func:`~repro.runtime.run_ranks`:

* :mod:`repro.runtime.thread_backend` — one thread per rank, shared
  mailboxes (fast, in-process);
* :mod:`repro.runtime.process_backend` — one OS process per rank with
  real serialized transport over pipes;
* :mod:`repro.runtime.shmem_backend` — one OS process per rank with
  zero-copy shared-memory ring transport (the fast real transport);
* :mod:`repro.runtime.socket_backend` — one OS process per rank with
  TCP framing (the transport that spans machines).

Layering
--------
:class:`Communicator` implements the *traced* operations (``send``,
``recv``, ``isend``, ``irecv``, ``sendrecv``, ``barrier``, ``bcast``, …)
once, on top of four small transport hooks that each backend provides:

``_alloc_seq``
    allocate the FIFO sequence number of a (src, dst, tag) channel;
``_transport_send`` / ``_transport_recv``
    move one payload without touching the trace;
``_probe``
    non-blocking test for a pending matching message.

Every traced operation addresses peers through two *mapping hooks* —
:meth:`Communicator._map_peer` (rank space) and
:meth:`Communicator._map_tag` (tag space) — that default to the
identity. Proxy communicators override them to relocate traffic:

* :class:`SubCommunicator` (``comm.split(color, key)`` /
  ``comm.subgroup(ranks)``) renumbers a rank subset from 0 and shifts
  its tags into a private window, while payloads flow through the
  *parent's* transport hooks — so groups work identically on every
  backend without the backends knowing they exist;
* :mod:`repro.runtime.nonblocking` buffers trace events of a background
  collective while its traffic flows through the real backend.

Both proxies compose (a split of a split, a non-blocking collective on a
sub-communicator) because each hook delegates inward.

Topology
--------
:attr:`Communicator.topology` optionally carries a
:class:`~repro.runtime.topology.Topology` (rank -> host map): derived
from the rendezvous address map on the socket backend, injected via
``run_ranks(..., topology=...)`` elsewhere, and restricted automatically
on sub-communicators. Hierarchical collectives and the algorithm
selector read it; ``None`` means "assume flat".

Byte accounting
---------------
``payload_nbytes`` defines the wire size of every supported payload type:
objects exposing a ``comm_nbytes()`` protocol method (sparse streams,
quantized blocks), NumPy arrays, scalars, and (recursively) tuples/lists.
These sizes feed both the trace (for netsim replay) and the analytic cost
model, so they must be consistent across the library.
"""

from __future__ import annotations

import abc
import threading
import time
from collections import deque
from typing import Any

import numpy as np

from ..config import STREAM_HEADER_BYTES
from .topology import check_topology_size
from .trace import Trace

__all__ = [
    "Communicator",
    "SubCommunicator",
    "Handle",
    "CompletedHandle",
    "DeferredRecvHandle",
    "WorldAbortedError",
    "RankFailedError",
    "CommTimeoutError",
    "StaleEpochError",
    "AbortState",
    "payload_nbytes",
    "copy_payload",
    "TAG_USER_LIMIT",
]

#: user code may use tags in [0, TAG_USER_LIMIT); collectives allocate blocks
#: above it so that user traffic never collides with internal traffic.
TAG_USER_LIMIT = 1 << 16

#: number of distinct tags reserved for a single collective invocation.
COLLECTIVE_TAG_BLOCK = 64

#: tag window layout of sub-communicators: every split/subgroup anywhere
#: in the nesting tree gets a *globally unique* window id ``w`` and
#: relocates its whole tag space (user tags plus its own collective
#: blocks and non-blocking shifts, all well under ``SPLIT_TAG_SPAN``) to
#: ``SPLIT_TAG_BASE + w * SPLIT_TAG_SPAN``. Ids are allocated from the
#: (parent window, call slot) pair — linearly for splits of a backend
#: communicator, via the Cantor pairing for nested splits — so windows
#: from different nesting paths can never alias, even for sequentially
#: created overlapping groups used concurrently. The wire header carries
#: tags as signed 64-bit; :data:`SPLIT_TAG_MAX` bounds the id space and
#: exhaustion raises instead of wrapping.
SPLIT_TAG_BASE = 1 << 40
SPLIT_TAG_SPAN = 1 << 32
SPLIT_TAG_MAX = 1 << 62


def _cantor_pair(a: int, b: int) -> int:
    """The Cantor pairing function: injective N x N -> N."""
    return (a + b) * (a + b + 1) // 2 + b


class WorldAbortedError(RuntimeError):
    """Raised in ranks blocked on communication after another rank failed."""


class RankFailedError(WorldAbortedError):
    """A specific peer rank died; carries the failed rank id.

    Raised from blocked operations when the backend can attribute the
    failure to a rank — a pump/doorbell observing EOF without FIN, a send
    hitting a closed channel, the parent collecting a dead process.
    Consumers that can degrade gracefully (e.g. asynchronous SGD) catch
    this and continue with the surviving ranks' contributions.
    """

    def __init__(self, rank: int, message: "str | None" = None) -> None:
        super().__init__(message or f"rank {rank} failed; world aborted")
        self.rank = int(rank)

    def __reduce__(self):
        # default exception pickling rebuilds from args alone, which would
        # feed the message string into the ``rank`` parameter
        return (type(self), (self.rank, self.args[0] if self.args else None))


class StaleEpochError(RuntimeError):
    """Traffic or an operation belongs to a superseded world epoch.

    Every elastic membership change (:func:`~repro.runtime.elastic.shrink`,
    a rendezvous rejoin) bumps the world epoch. Frames on the wire carry
    the sender's epoch; receivers drop frames from dead epochs, and
    operations attempted *through* a superseded elastic world — or a
    rejoin handshake presenting an old epoch — raise this instead of
    silently corrupting the post-shrink collectives.
    """

    def __init__(
        self,
        message: "str | None" = None,
        frame_epoch: "int | None" = None,
        current_epoch: "int | None" = None,
    ) -> None:
        if message is None:
            message = (
                f"stale world epoch {frame_epoch} "
                f"(current epoch is {current_epoch})"
            )
        super().__init__(message)
        self.frame_epoch = frame_epoch
        self.current_epoch = current_epoch

    def __reduce__(self):
        # keep the attributes across the process backend's pickle round-trip
        msg = self.args[0] if self.args else None
        return (type(self), (msg, self.frame_epoch, self.current_epoch))


class CommTimeoutError(TimeoutError):
    """A per-operation timeout (``run_ranks(..., op_timeout=)``) expired.

    Raised from a blocked send/recv whose peer made no progress within
    ``op_timeout`` seconds — a stalled (but not yet dead) peer surfaces
    here instead of hanging until the whole-run watchdog.
    """

    def __init__(
        self,
        message: str = "communication operation timed out",
        source: "int | None" = None,
        tag: "int | None" = None,
        timeout: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.source = source
        self.tag = tag
        self.timeout = timeout

    def __reduce__(self):
        # keep the attributes across the process backend's pickle round-trip
        msg = self.args[0] if self.args else "communication operation timed out"
        return (type(self), (msg, self.source, self.tag, self.timeout))


class AbortState:
    """World-failure flag that remembers *which* rank failed first.

    A drop-in upgrade of the bare ``threading.Event`` the backends used:
    ``set()`` optionally records the failed rank (first writer wins) and
    ``error()`` builds the matching typed exception for blocked peers —
    :class:`RankFailedError` when the culprit is known,
    :class:`WorldAbortedError` otherwise.
    """

    __slots__ = ("_event", "_lock", "failed_rank", "_failed_ranks")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self.failed_rank: "int | None" = None
        self._failed_ranks: set[int] = set()

    def is_set(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: "float | None" = None) -> bool:
        return self._event.wait(timeout)

    def set(self, failed_rank: "int | None" = None) -> None:
        if failed_rank is not None:
            with self._lock:
                if self.failed_rank is None:
                    self.failed_rank = int(failed_rank)
                self._failed_ranks.add(int(failed_rank))
        self._event.set()

    @property
    def failed_ranks(self) -> frozenset[int]:
        """Every rank this state has attributed a failure to.

        ``failed_rank`` keeps the first-writer-wins single culprit for the
        typed error; the elastic shrink barrier reads the full set so a
        multi-rank failure is attributed in one pass.
        """
        with self._lock:
            return frozenset(self._failed_ranks)

    def error(self) -> WorldAbortedError:
        """A fresh typed exception describing the recorded failure."""
        if self.failed_rank is not None:
            return RankFailedError(self.failed_rank)
        return WorldAbortedError("another rank failed; aborting")


#: how often blocked receivers poll the failure flag (seconds).
_ABORT_POLL_S = 0.05


class Mailbox:
    """FIFO queue for one message channel (shared by both backends)."""

    __slots__ = ("items", "cond")

    def __init__(self) -> None:
        self.items: deque[tuple[Any, int, int]] = deque()  # (payload, nbytes, seq)
        self.cond = threading.Condition()

    def put(self, payload: Any, nbytes: int, seq: int) -> None:
        with self.cond:
            self.items.append((payload, nbytes, seq))
            self.cond.notify()

    def get(
        self,
        aborted: "threading.Event | AbortState",
        timeout: "float | None" = None,
        source: "int | None" = None,
        tag: "int | None" = None,
    ) -> tuple[Any, int, int]:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while not self.items:
                if aborted.is_set():
                    if isinstance(aborted, AbortState):
                        raise aborted.error()
                    raise WorldAbortedError("another rank failed; aborting recv")
                wait = _ABORT_POLL_S
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise CommTimeoutError(
                            f"recv from rank {source} (tag {tag}) saw no "
                            f"message within op_timeout={timeout}s",
                            source=source,
                            tag=tag,
                            timeout=timeout,
                        )
                    wait = min(wait, remaining)
                self.cond.wait(timeout=wait)
            return self.items.popleft()

    def pop_nowait(self) -> tuple[Any, int, int] | None:
        """The next message, or None — for callers that drive progress."""
        with self.cond:
            return self.items.popleft() if self.items else None

    def wait(self, timeout: float) -> None:
        """Sleep until a message may be available (or ``timeout`` passes)."""
        with self.cond:
            if not self.items:
                self.cond.wait(timeout=timeout)

    def has_items(self) -> bool:
        with self.cond:
            return bool(self.items)


class MailboxRegistry:
    """Lazily-created mailboxes keyed by channel tuple, with abort wakeup.

    The thread backend keys channels world-globally as (src, dst, tag);
    the process backend keys them per-rank as (src, tag). The creation
    (double-checked setdefault) and notify-all-on-abort logic is identical,
    so it lives here once.
    """

    __slots__ = ("_boxes", "_lock")

    def __init__(self) -> None:
        self._boxes: dict[tuple, Mailbox] = {}
        self._lock = threading.Lock()

    def get(self, key: tuple) -> Mailbox:
        box = self._boxes.get(key)
        if box is None:
            with self._lock:
                box = self._boxes.setdefault(key, Mailbox())
        return box

    def wake_all(self) -> None:
        """Wake every blocked receiver (after the abort flag is set)."""
        with self._lock:
            boxes = list(self._boxes.values())
        for box in boxes:
            with box.cond:
                box.cond.notify_all()


def payload_nbytes(obj: Any) -> int:
    """Wire size in bytes of a message payload.

    Mirrors a compact binary serialization: numpy arrays cost their buffer
    plus a small header, structured payloads cost the sum of their parts,
    scalars cost one word. Objects may override via ``comm_nbytes()``.
    """
    if obj is None:
        return 0
    hook = getattr(obj, "comm_nbytes", None)
    if callable(hook):
        return int(hook())
    if isinstance(obj, np.ndarray):
        return STREAM_HEADER_BYTES + int(obj.nbytes)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, str):
        return 8 + len(obj.encode())
    if isinstance(obj, bytes):
        return 8 + len(obj)
    if isinstance(obj, (tuple, list)):
        return 8 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 8 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    raise TypeError(f"cannot measure wire size of payload type {type(obj).__name__}")


def copy_payload(obj: Any) -> Any:
    """Deep-enough copy of a payload so sender and receiver never alias.

    The thread backend shares one address space; MPI semantics give the
    receiver an independent buffer, so sends copy by default. (The process
    backend gets this isolation for free from serialization.)
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes, np.integer, np.floating)):
        return obj
    copier = getattr(obj, "copy", None)
    if isinstance(obj, (tuple, list)):
        return type(obj)(copy_payload(x) for x in obj)
    if isinstance(obj, dict):
        return {k: copy_payload(v) for k, v in obj.items()}
    if callable(copier):
        return copier()
    # frozen dataclass payloads (QuantizedBlock) are treated as immutable
    return obj


class Communicator(abc.ABC):
    """A group of ``size`` ranks with point-to-point messaging.

    Concrete backends must implement the four transport hooks
    (:meth:`_alloc_seq`, :meth:`_transport_send`, :meth:`_transport_recv`,
    :meth:`_probe`) and set :attr:`trace`; every traced operation has a
    shared implementation here.
    """

    rank: int
    size: int
    #: the trace this communicator's events are recorded into. For ordinary
    #: backends this is the world trace; proxy communicators (nonblocking
    #: collectives) point it at a private buffer.
    trace: Trace
    #: optional rank -> host map (:class:`~repro.runtime.topology.Topology`);
    #: ``None`` means the world is assumed flat. Backends/launchers set it.
    topology: Any = None

    #: per-operation send/recv timeout in seconds (``None`` = block forever,
    #: bounded only by the run watchdog). Set by backends from
    #: ``run_ranks(..., op_timeout=)``; proxies delegate to what they wrap.
    op_timeout: "float | None" = None

    #: elastic world epoch stamped on every outgoing wire frame. Backend
    #: communicators start at 0; :func:`~repro.runtime.elastic.shrink` and
    #: rendezvous rejoins bump it. Receivers drop frames whose epoch is
    #: older than their own (counted in ``stale_epoch_rejected`` on the
    #: backends that have a wire).
    epoch: int = 0

    _collective_counter: int = 0
    _split_counter: int = 0
    #: window id of this communicator's tag space: 0 = the backend
    #: communicator's raw space, >= 1 for sub-communicator windows.
    _split_window_id: int = 0
    #: absolute offset of this communicator's tag space (0 for backend
    #: communicators; sub-communicators store their window start).
    _split_space_base: int = 0
    #: how many non-blocking-collective proxies wrap this communicator's
    #: traffic (0 = none). ``i_collective`` widens its tag-base shift by
    #: this depth so sibling proxies at different nesting levels land in
    #: disjoint bit fields — an equal-stride additive composition would
    #: alias (outer launch i, inner launch k) with (i', k') whenever
    #: ``i + k == i' + k'``. Sub-communicators inherit the depth of the
    #: communicator they restrict.
    _icoll_depth: int = 0

    # ------------------------------------------------------------------
    # transport hooks (backend-provided)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _alloc_seq(self, dest: int, tag: int) -> int:
        """Allocate the FIFO sequence number for the (rank, dest, tag) channel."""

    @abc.abstractmethod
    def _transport_send(self, obj: Any, nbytes: int, seq: int, dest: int, tag: int) -> None:
        """Move one payload to ``dest`` without recording trace events."""

    @abc.abstractmethod
    def _transport_recv(self, source: int, tag: int) -> tuple[Any, int, int]:
        """Blocking matching receive; returns ``(payload, nbytes, seq)``."""

    @abc.abstractmethod
    def _probe(self, source: int, tag: int) -> bool:
        """Non-blocking test: is a matching message already deliverable?"""

    def _map_tag(self, tag: int) -> int:
        """Hook for proxy communicators that relocate traffic in tag space."""
        return tag

    def _map_peer(self, peer: int) -> int:
        """Hook for proxy communicators that renumber ranks (sub-comms)."""
        return peer

    def _abort_state(self) -> "AbortState | None":
        """The world's :class:`AbortState`, if the backend exposes one.

        Backends override this; proxies delegate inward, so non-blocking
        probes anywhere in a proxy stack can observe world failure.
        ``None`` means the backend has no abort flag (nothing to observe).
        """
        return None

    def _await_abort(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for the world abort flag.

        Returns whether the world is aborted. Backends whose progress
        engine runs only inside transport calls (shmem) override this to
        keep driving it, since that is where they observe a peer's death.
        """
        state = self._abort_state()
        return state is not None and state.wait(timeout)

    @property
    def world_rank(self) -> int:
        """The world-level rank trace events are attributed to.

        Equal to :attr:`rank` on backend communicators; proxies that
        renumber ranks (sub-communicators) delegate to their parent so
        byte accounting always lands on the real rank.
        """
        return self.rank

    # ------------------------------------------------------------------
    # traced point-to-point operations
    # ------------------------------------------------------------------
    def _check_peer(self, peer: int, role: str) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"{role} rank {peer} out of range [0, {self.size})")
        if peer == self.rank:
            if role == "dest":
                raise ValueError("self-sends are not supported; use local state")
            raise ValueError("self-receives are not supported")

    def _check_tag(self, tag: int) -> None:
        # negative tags are reserved for transport-internal framing (e.g. the
        # process backend's FIN marker); rejecting them here keeps the
        # contract identical on every backend.
        if tag < 0:
            raise ValueError(f"message tags must be non-negative, got {tag}")

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking (buffered) send of ``obj`` to rank ``dest``."""
        self._check_peer(dest, "dest")
        self._check_tag(tag)
        tag = self._map_tag(tag)
        dest = self._map_peer(dest)
        nbytes = payload_nbytes(obj)
        seq = self._alloc_seq(dest, tag)
        self.trace.record_send(self.world_rank, dest, tag, seq, nbytes)
        self._transport_send(obj, nbytes, seq, dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive of the next message from ``source`` on ``tag``."""
        self._check_peer(source, "source")
        self._check_tag(tag)
        tag = self._map_tag(tag)
        source = self._map_peer(source)
        payload, nbytes, seq = self._transport_recv(source, tag)
        self.trace.record_recv(self.world_rank, source, tag, seq, nbytes)
        return payload

    def isend(self, obj: Any, dest: int, tag: int = 0) -> "Handle":
        """Non-blocking send; returns a completion handle.

        Both backends implement buffered-send semantics: the payload is
        copied (or serialized) immediately, so the operation is already
        complete when the handle is returned.
        """
        self.send(obj, dest, tag)
        return CompletedHandle()

    def irecv(self, source: int, tag: int = 0) -> "Handle":
        """Non-blocking receive; ``wait()`` yields the payload."""
        return DeferredRecvHandle(self, source, tag)

    # ------------------------------------------------------------------
    # local bookkeeping
    # ------------------------------------------------------------------
    def compute(self, nbytes: int, label: str = "") -> None:
        """Charge ``nbytes`` of local memory-bound work to the trace."""
        if nbytes < 0:
            raise ValueError(f"compute bytes must be non-negative, got {nbytes}")
        if nbytes:
            self.trace.record_compute(self.world_rank, nbytes, label)

    def mark(self, label: str) -> None:
        """Insert a phase marker into the trace (zero cost)."""
        self.trace.record_mark(self.world_rank, label)

    def next_collective_tag(self) -> int:
        """Allocate a tag block for one collective invocation.

        All ranks call collectives in the same order (the MPI contract), so
        per-communicator counters stay in sync without communication.
        """
        tag = TAG_USER_LIMIT + self._collective_counter * COLLECTIVE_TAG_BLOCK
        self._collective_counter += 1
        return tag

    # ------------------------------------------------------------------
    # composite operations
    # ------------------------------------------------------------------
    def sendrecv(self, obj: Any, peer: int, tag: int = 0) -> Any:
        """Simultaneous exchange with ``peer`` (both directions overlap)."""
        req = self.isend(obj, peer, tag)
        incoming = self.recv(peer, tag)
        req.wait()
        return incoming

    def barrier(self, tag: int | None = None) -> None:
        """Dissemination barrier built from point-to-point messages."""
        if self.size == 1:
            return
        base = self.next_collective_tag() if tag is None else tag
        distance = 1
        round_no = 0
        while distance < self.size:
            dest = (self.rank + distance) % self.size
            src = (self.rank - distance) % self.size
            req = self.isend(0, dest, base + round_no)
            self.recv(src, base + round_no)
            req.wait()
            distance *= 2
            round_no += 1

    def bcast(self, obj: Any, root: int = 0, tag: int | None = None) -> Any:
        """Binomial-tree broadcast from ``root`` (MPICH-style MST bcast)."""
        base = self.next_collective_tag() if tag is None else tag
        rel = (self.rank - root) % self.size
        mask = 1
        while mask < self.size:
            if rel & mask:
                src = (self.rank - mask) % self.size
                obj = self.recv(src, base)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if rel + mask < self.size:
                dest = (self.rank + mask) % self.size
                self.send(obj, dest, base)
            mask >>= 1
        return obj

    def gather_to_root(self, obj: Any, root: int = 0, tag: int | None = None) -> list[Any] | None:
        """Flat gather: every rank sends to ``root``; root returns the list."""
        base = self.next_collective_tag() if tag is None else tag
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for src in range(self.size):
                if src != root:
                    out[src] = self.recv(src, base)
            return out
        self.send(obj, root, base)
        return None

    # ------------------------------------------------------------------
    # sub-communicators
    # ------------------------------------------------------------------
    def _next_split_base(self) -> tuple[int, int]:
        """Allocate the tag window of one split/subgroup call.

        Every rank makes split calls in the same order (the collective
        contract), so per-communicator counters stay in sync without
        communication — groups created in the same call slot share a
        window, which is safe because their rank sets are disjoint.
        Window ids are globally injective over the (parent window, slot)
        tree: splits of a backend communicator take the odd ids linearly
        (so iterated splitting never runs out), nested splits take even
        ids through the Cantor pairing. Returns ``(window_id, tag_base
        relative to this communicator's tag space)``.
        """
        slot = self._split_counter
        self._split_counter += 1
        if self._split_window_id == 0:
            window_id = 2 * slot + 1
        else:
            window_id = 2 * (_cantor_pair(self._split_window_id, slot) + 1)
        abs_base = SPLIT_TAG_BASE + window_id * SPLIT_TAG_SPAN
        if abs_base + SPLIT_TAG_SPAN > SPLIT_TAG_MAX:
            raise RuntimeError(
                "sub-communicator tag space exhausted: too many nested "
                f"splits (window id {window_id})"
            )
        return window_id, abs_base - self._split_space_base

    def subgroup(self, ranks: "list[int] | tuple[int, ...]") -> "SubCommunicator | None":
        """Deterministic group creation — collective, but communication-free.

        Every rank of this communicator must call ``subgroup`` in the same
        program order; ranks creating *disjoint* groups may pass different
        lists in the same call slot (the host-group pattern of hierarchical
        collectives), ranks outside the group they pass get ``None`` back.
        Use :meth:`split` when memberships must be negotiated at runtime.

        ``ranks`` orders the new communicator: ``ranks[i]`` becomes sub-rank
        ``i``. Returns the member's :class:`SubCommunicator`, or ``None``.
        """
        members = tuple(int(r) for r in ranks)
        if not members:
            raise ValueError("a sub-communicator needs at least one rank")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate ranks in subgroup: {members}")
        for r in members:
            if not 0 <= r < self.size:
                raise ValueError(f"rank {r} out of range [0, {self.size})")
        window_id, tag_base = self._next_split_base()
        if self.rank not in members:
            return None
        return SubCommunicator(self, members, tag_base, window_id)

    def split(self, color: Any, key: int = 0) -> "SubCommunicator | None":
        """MPI_Comm_split: partition the ranks by ``color``, order by ``key``.

        Collective over this communicator (one gather + one broadcast to
        exchange the colors). Ranks with equal ``color`` form one
        sub-communicator whose ranks are ordered by ``(key, parent rank)``;
        ``color=None`` opts out (the ``MPI_UNDEFINED`` analog) and returns
        ``None``. Works identically on every backend — the group remaps
        ranks and tags onto the parent's transport hooks.
        """
        if not isinstance(key, int):
            raise TypeError(f"split key must be an int, got {type(key).__name__}")
        # validate the color *before* any counter bump or communication: an
        # invalid color (e.g. a numpy array, whose == breaks the membership
        # comparison) must not desynchronize the collective/split tag
        # windows of the surviving ranks
        if color is not None:
            try:
                hash(color)
            except TypeError:
                raise TypeError(
                    "split color must be hashable (colors must compare "
                    f"atomically across ranks), got {type(color).__name__}"
                ) from None
        base = self.next_collective_tag()
        everyone = self.gather_to_root((color, key), root=0, tag=base)
        everyone = self.bcast(everyone, root=0, tag=base + 1)
        if color is None:
            self._next_split_base()  # keep split counters aligned world-wide
            return None
        members = sorted(
            (r for r, (c, _k) in enumerate(everyone) if c == color),
            key=lambda r: (everyone[r][1], r),
        )
        return self.subgroup(members)

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def shrink(self, dead: Any = (), timeout: "float | None" = None):
        """Membership barrier after a rank failure: agree on the survivors
        and return the working world of the next epoch.

        Convenience front-end to :func:`repro.runtime.elastic.shrink`;
        collective over the survivors. See :mod:`repro.runtime.elastic`
        for the protocol and its caveats.
        """
        from .elastic import shrink as _shrink  # local: avoid import cycle

        return _shrink(self, dead=dead, timeout=timeout)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(rank={self.rank}, size={self.size})"


class SubCommunicator(Communicator):
    """A rank subset of a parent communicator, renumbered from zero.

    Created by :meth:`Communicator.split` / :meth:`Communicator.subgroup`.
    All traffic flows through the parent's transport hooks with ranks
    mapped back to parent numbering and tags shifted into the group's
    private window, so the construction needs nothing from the backend
    and nests arbitrarily (splits of splits, non-blocking collectives on
    splits). Trace events keep world-rank attribution; the parent's
    topology (if any) is restricted to the members automatically.
    """

    def __init__(
        self,
        parent: Communicator,
        members: tuple[int, ...],
        tag_base: int,
        window_id: int,
    ) -> None:
        self.parent = parent
        self._members = members
        self.rank = members.index(parent.rank)
        self.size = len(members)
        self.trace = parent.trace
        self._tag_base = tag_base
        self._collective_counter = 0
        self._split_counter = 0
        self._split_window_id = window_id
        # absolute window start: what this comm's nested splits offset from
        self._split_space_base = parent._split_space_base + tag_base
        # a subgroup of a buffered proxy is as deeply nested as the proxy
        self._icoll_depth = parent._icoll_depth
        if parent.topology is not None:
            # the same size check every launcher path applies: a topology
            # that does not describe the parent world cannot be restricted
            check_topology_size(parent.topology, parent.size)
            self.topology = parent.topology.restrict(members)
        else:
            self.topology = None

    @property
    def world_rank(self) -> int:
        return self.parent.world_rank

    @property
    def op_timeout(self) -> "float | None":
        return self.parent.op_timeout

    @property
    def epoch(self) -> int:
        # frames sent through a subgroup carry the backend world's epoch
        return self.parent.epoch

    @property
    def parent_ranks(self) -> tuple[int, ...]:
        """Parent-rank of every sub-rank (``parent_ranks[sub] -> parent``)."""
        return self._members

    # -- mapping hooks: compose with whatever the parent maps ----------
    def _map_peer(self, peer: int) -> int:
        return self.parent._map_peer(self._members[peer])

    def _map_tag(self, tag: int) -> int:
        return self.parent._map_tag(self._tag_base + tag)

    # -- transport hooks: pure delegation (already mapped) -------------
    def _alloc_seq(self, dest: int, tag: int) -> int:
        return self.parent._alloc_seq(dest, tag)

    def _transport_send(self, obj: Any, nbytes: int, seq: int, dest: int, tag: int) -> None:
        self.parent._transport_send(obj, nbytes, seq, dest, tag)

    def _transport_recv(self, source: int, tag: int) -> tuple[Any, int, int]:
        return self.parent._transport_recv(source, tag)

    def _probe(self, source: int, tag: int) -> bool:
        return self.parent._probe(source, tag)

    def _abort_state(self) -> "AbortState | None":
        return self.parent._abort_state()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SubCommunicator(rank={self.rank}, size={self.size}, "
            f"parent_ranks={list(self._members)})"
        )


class Handle(abc.ABC):
    """Completion handle for non-blocking operations (MPI request analog)."""

    @abc.abstractmethod
    def wait(self) -> Any:
        """Block until complete; returns the payload for receive handles."""

    @abc.abstractmethod
    def test(self) -> bool:
        """Non-blocking completion probe."""


class CompletedHandle(Handle):
    """Handle of an already-finished operation (buffered sends)."""

    __slots__ = ("_value",)

    def __init__(self, value: Any = None) -> None:
        self._value = value

    def wait(self) -> Any:
        return self._value

    def test(self) -> bool:
        return True


class DeferredRecvHandle(Handle):
    """irecv handle: performs the matching receive at ``wait()`` time."""

    __slots__ = ("_comm", "_source", "_tag", "_done", "_value")

    def __init__(self, comm: Communicator, source: int, tag: int) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._value: Any = None

    def wait(self) -> Any:
        if not self._done:
            # a blocking recv observes world abort through the transport; an
            # up-front check just surfaces it without touching the mailbox
            # when the world is already gone
            state = self._comm._abort_state()
            if state is not None and state.is_set() and not self.test_quiet():
                raise state.error()
            self._value = self._comm.recv(self._source, self._tag)
            self._done = True
        return self._value

    def test_quiet(self) -> bool:
        """Completion probe that never raises (abort looks like 'not yet')."""
        if self._done:
            return True
        return self._comm._probe(
            self._comm._map_peer(self._source), self._comm._map_tag(self._tag)
        )

    def test(self) -> bool:
        if self.test_quiet():
            return True
        # the matching message can never arrive once the world aborted:
        # raise like a blocking recv would instead of returning False forever
        state = self._comm._abort_state()
        if state is not None and state.is_set():
            raise state.error()
        return False
