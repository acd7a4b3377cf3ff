"""Shared-memory backend: one OS process per rank, zero-copy ring transport.

Like :mod:`~repro.runtime.process_backend` this backend runs every rank in
its own ``multiprocessing`` process, but payloads move through per-pair
**shared-memory ring buffers** (:class:`SharedRing`, one per directed pair
of ranks) instead of pipes:

* the sender packs the §5.1 flag/dimension/nnz header and the raw
  index/value buffers *directly into the shared segment* via the vectored
  :func:`~repro.runtime.wire.encode_frame_parts` — no pickle and no
  ``tobytes()`` staging on the stream fast path, one memcpy per payload
  byte in total;
* the receiver reconstructs streams straight out of the ring with
  ``np.frombuffer`` — a single copy into the final arrays (which the
  receiving collective may then mutate freely), with no intermediate
  ``bytes`` object and no payload-sized syscall.

Unlike the pipe transport there are **no receiver threads**: the backend
runs an MPI-style single-threaded *progress engine*. Whenever an
operation blocks — a receive with no matching message, a send facing a
full ring — the calling thread itself drains every inbound ring into the
(source, tag) mailboxes until it can proceed. Pipes need pump threads
because only a dedicated reader can keep a peer's stream flowing; shared
memory lets any blocked thread make global progress directly, which
removes two thread wakeups (pump → mailbox → program) from every message
and is where most of the backend's latency win over ``process`` comes
from. Deadlock-freedom survives: any cycle of blocked ranks is a cycle
of progress engines, each draining its inbound rings into unbounded
mailboxes, so ring space is always eventually freed.

Ring protocol (SPSC byte ring per directed pair)
------------------------------------------------
The segment holds two free-running ``uint32`` counters (head = published
bytes, tail = consumed bytes; capacity is a power of two so offsets wrap
consistently) followed by ``capacity`` data bytes. Each counter has one
writing process; 4-byte aligned stores are single machine words, so no
cross-process lock guards them — deliberately, because a lock shared with
a process that may die can be left locked forever and deadlock the
survivors. Records are 8-byte aligned::

    <u64 frame length> <frame bytes ...> <pad to 8>

A length word of all-ones is a *pad marker*: the writer emits it when a
record would straddle the wrap point, and the reader skips to the ring
start — so every ordinary frame is contiguous in memory and can be
decoded in place. Frames larger than the ring (rare: dense pickle
fallbacks) set the high bit of the length word and stream through the
ring in chunks that the reader reassembles.

Blocking and failure detection piggyback on a one-byte **doorbell pipe**
per ring: the writer rings it after each publish (non-blocking — a full
doorbell pipe already guarantees a wakeup) and the progress engine
``select``-waits on all inbound doorbells when nothing is readable. Because
the doorbell is a real pipe, a dying sender closes it and the reader sees
EOF — peer death propagates exactly like the process backend: EOF after a
FIN frame is a clean wind-down, EOF without one aborts the world. After
a rank finishes, the parent periodically drains that rank's inbound rings
so a peer's late buffered send can never block forever on a full ring
(the analog of the parent draining finished ranks' pipes).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import select
import struct
import threading
import time
from multiprocessing import shared_memory
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Any, Callable

from .backend import Backend, ParallelResult, register_backend
from .comm import CommTimeoutError, RankFailedError, WorldAbortedError
from .process_backend import (
    _ERROR_GRACE_S,
    _FIN_TAG,
    _START_METHOD,
    MeshComm,
    _check_spawn_picklable,
    _finalize_run,
    _portable_exception,
)
from .trace import Trace, TraceEvent
from .wire import decode_message, encode_frame_parts

__all__ = ["ShmemBackend", "ShmemComm", "ShmemWorld", "SharedRing"]

#: how long one progress wait blocks on the doorbells before rechecking
#: the abort flag (seconds).
_PROGRESS_WAIT_S = 0.05

#: backoff ceiling for the writer's full-ring poll (seconds). There is no
#: reader-to-writer doorbell, so a blocked oversize send advances at most
#: one ring-full of payload per poll tick — keep the tick short.
_FULL_POLL_S = 0.0003

#: ring record header: one little-endian u64 frame length.
_LEN = struct.Struct("<Q")

#: head/tail counters: little-endian u32 at segment offsets 0 and 4.
_CTR = struct.Struct("<I")
_M32 = (1 << 32) - 1

#: length-word value marking "skip to the ring start" (wrap padding).
_PAD_MARKER = (1 << 64) - 1

#: length-word bit marking a frame streamed in chunks (larger than the ring).
_OVERSIZE_BIT = 1 << 63

#: bytes of ring bookkeeping before the data region (head u32, tail u32, pad).
_RING_HEADER = 16

#: default per-pair ring capacity. Large enough that several typical
#: sparse frames can be in flight on the contiguous in-place path (a ring
#: that only fits one frame serializes pipelined collectives on blocked
#: writers); bigger frames (dense pickle fallbacks) stream through
#: chunked. Kept well under a few MiB: fresh pages cost a fault per
#: 4 KiB on first touch, so outsized rings hurt small-message latency.
DEFAULT_RING_CAPACITY = 1 << 21


def _pow2_capacity(capacity: int) -> int:
    """Round up to a power of two >= 4096 (so offsets wrap with the u32)."""
    capacity = max(int(capacity), 4096)
    return 1 << (capacity - 1).bit_length()


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without racing the resource tracker.

    Attaching registers the segment with this process's resource tracker
    (on Python < 3.13 there is no ``track=False``), which would unlink it a
    second time at child exit; unregister to keep ownership with the
    parent, which created the segment and unlinks it exactly once.
    """
    shm = shared_memory.SharedMemory(name=name)
    try:  # pragma: no cover - tracker layout is an implementation detail
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:
        pass
    return shm


class SharedRing:
    """Single-producer single-consumer byte ring in a shared segment.

    The parent creates one per directed rank pair; the writing rank is the
    only producer and the reading rank the only consumer (the parent only
    ever *drains* a ring once its consumer rank has finished).
    ``should_abort`` callables let blocked waits observe world failure —
    and, in the consumer rank, double as the progress hook while a send
    waits for ring space.
    """

    def __init__(self, capacity: int, ctx) -> None:
        self.capacity = _pow2_capacity(capacity)
        self._mask = self.capacity - 1
        self._shm = shared_memory.SharedMemory(create=True, size=_RING_HEADER + self.capacity)
        # doorbell: the reader selects on it when the ring is empty; the
        # writer dings it after each publish; writer death closes it, so
        # the reader sees EOF exactly like a pipe transport would
        self.reader_conn, self.writer_conn = ctx.Pipe(duplex=False)
        self._data: memoryview | None = None
        self._wfd: int | None = None
        #: consumer-side partial oversize frame: [buffer, filled, total].
        self._partial: list | None = None

    # -- pickling: spawn children re-attach by name ---------------------
    def __getstate__(self):
        return {
            "name": self._shm.name,
            "capacity": self.capacity,
            "reader_conn": self.reader_conn,
            "writer_conn": self.writer_conn,
        }

    def __setstate__(self, state):
        self.capacity = state["capacity"]
        self._mask = self.capacity - 1
        self.reader_conn = state["reader_conn"]
        self.writer_conn = state["writer_conn"]
        self._shm = _attach_shm(state["name"])
        self._data = None
        self._wfd = None
        self._partial = None

    # -- counters (single-word stores; one writing process each) --------
    def _head(self) -> int:
        return _CTR.unpack_from(self._shm.buf, 0)[0]

    def _tail(self) -> int:
        return _CTR.unpack_from(self._shm.buf, 4)[0]

    def _set_head(self, v: int) -> None:
        _CTR.pack_into(self._shm.buf, 0, v & _M32)

    def _set_tail(self, v: int) -> None:
        _CTR.pack_into(self._shm.buf, 4, v & _M32)

    def avail(self) -> int:
        """Published-but-unconsumed bytes."""
        return (self._head() - self._tail()) & _M32

    @property
    def data(self) -> memoryview:
        if self._data is None:
            self._data = self._shm.buf[_RING_HEADER:]
        return self._data

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def _ding(self) -> bool:
        """Wake the reader; False when every read end is gone (peer died)."""
        if self._wfd is None:
            self._wfd = self.writer_conn.fileno()
            os.set_blocking(self._wfd, False)
        try:
            os.write(self._wfd, b"!")
        except BlockingIOError:
            pass  # doorbell pipe full: the reader has wakeups queued already
        except (BrokenPipeError, OSError):
            return False
        return True

    def _wait_space(self, need_free: int, should_abort: Callable[[], bool]) -> bool:
        """Poll until at least ``need_free`` bytes are free; False on abort.

        ``should_abort`` runs every iteration: the communicator uses it to
        drive the progress engine, so a send blocked on a full ring keeps
        the world moving instead of busy-sleeping.
        """
        sleep = 0.0
        while self.capacity - self.avail() < need_free:
            if should_abort():
                return False
            time.sleep(sleep)
            sleep = min(sleep + 0.0002, _FULL_POLL_S)
        return True

    def _reserve(self, rec: int, should_abort: Callable[[], bool]) -> int:
        """Block until ``rec`` contiguous bytes are free; return the offset.

        Emits a pad marker (and retries from the ring start) when the
        record would straddle the wrap point. Returns -1 on abort.
        """
        while True:
            head = self._head()
            free = self.capacity - self.avail()
            pos = head & self._mask
            room = self.capacity - pos
            if room < rec:
                if free >= room:  # room is a multiple of 8, so >= 8
                    _LEN.pack_into(self.data, pos, _PAD_MARKER)
                    self._set_head(head + room)
                    continue
                if not self._wait_space(room, should_abort):
                    return -1
            elif free >= rec:
                return pos
            elif not self._wait_space(rec, should_abort):
                return -1

    def write(
        self, parts: list, total: int, should_abort: Callable[[], bool], ding: bool = True
    ) -> bool:
        """Append one frame (the concatenation of ``parts``) to the ring.

        Copies each part exactly once, straight into shared memory. Frames
        that fit take the contiguous path (decodable in place by the
        reader); larger ones stream through in chunks. Returns False if
        the peer died or the world aborted while blocked on a full ring.

        With ``ding=False`` the frame is published (visible to a polling
        reader) but the doorbell is left silent; the caller takes over the
        wakeup (see the communicator's deferred-doorbell batching).
        """
        rec = (_LEN.size + total + 7) & ~7
        buf = self.data
        if rec <= self.capacity - 8:
            pos = self._reserve(rec, should_abort)
            if pos < 0:
                return False
            _LEN.pack_into(buf, pos, total)
            off = pos + _LEN.size
            for part in parts:
                n = len(part)
                buf[off:off + n] = part
                off += n
            # the whole record becomes visible at once
            self._set_head(self._head() + rec)
            return self._ding() if ding else True

        # oversize: publish the length word, then stream the payload in
        # chunks the reader consumes concurrently. Chunk publishes always
        # ding: the reader must wake mid-frame for the ring to drain.
        pos = self._reserve(_LEN.size, should_abort)
        if pos < 0:
            return False
        _LEN.pack_into(buf, pos, _OVERSIZE_BIT | total)
        self._set_head(self._head() + _LEN.size)
        if not self._ding():
            return False
        pad = ((total + 7) & ~7) - total
        for part in [*parts, b"\x00" * pad] if pad else parts:
            view = part if isinstance(part, memoryview) else memoryview(part)
            sent = 0
            remaining = len(view)
            while sent < remaining:
                free = self.capacity - self.avail()
                if free == 0:
                    if not self._wait_space(1, should_abort):
                        return False
                    free = self.capacity - self.avail()
                head = self._head()
                wpos = head & self._mask
                chunk = min(free, self.capacity - wpos, remaining - sent)
                buf[wpos:wpos + chunk] = view[sent:sent + chunk]
                self._set_head(head + chunk)
                if not self._ding():
                    return False
                sent += chunk
        return True

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def try_read_frame(
        self, consume: Callable[[memoryview], None], should_abort: Callable[[], bool]
    ) -> str:
        """Consume one frame if any is published: 'ok', 'empty' or 'partial'.

        **Never blocks** — the progress engine must stay non-blocking or
        two ranks exchanging oversize frames would wedge, each waiting
        inside the other's half-assembled frame while its own suspended
        send is what feeds the peer. Oversize frames therefore assemble
        incrementally: each call consumes whatever chunks are published
        (freeing ring space for the writer) and parks the partial buffer
        on the ring until the rest arrives; ``'partial'`` means "no full
        frame yet, but keep me polled".

        ``consume`` runs while the bytes are still owned by the reader:
        for ordinary frames it receives a view *directly into the shared
        segment* (decode in place, copy only what must outlive the slot);
        for oversize frames it receives the reassembled buffer.
        """
        if self._partial is None:
            while True:
                if self.avail() < _LEN.size:
                    return "empty"
                tail = self._tail()
                pos = tail & self._mask
                size = _LEN.unpack_from(self.data, pos)[0]
                if size == _PAD_MARKER:
                    self._set_tail(tail + (self.capacity - pos))
                    continue
                break
            if not size & _OVERSIZE_BIT:
                # contiguous record: fully published with its length word
                consume(self.data[pos + _LEN.size: pos + _LEN.size + size])
                self._set_tail(tail + ((_LEN.size + size + 7) & ~7))
                return "ok"
            total = size & (_OVERSIZE_BIT - 1)
            self._set_tail(tail + _LEN.size)
            self._partial = [bytearray((total + 7) & ~7), 0, total]

        data, got, total = self._partial
        padded = len(data)
        while got < padded:
            avail = self.avail()
            if avail == 0:
                self._partial[1] = got
                return "partial"  # writer still streaming; space was freed
            tail = self._tail()
            pos = tail & self._mask
            chunk = min(avail, self.capacity - pos, padded - got)
            data[got:got + chunk] = self.data[pos:pos + chunk]
            self._set_tail(tail + chunk)
            got += chunk
        self._partial = None
        consume(memoryview(data)[:total])
        return "ok"

    # ------------------------------------------------------------------
    # parent-side lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Discard everything published so far (consumer rank is gone)."""
        self._set_tail(self._head())

    def close_doorbell(self) -> None:
        """Drop this process's doorbell ends (parent, after forking)."""
        for conn in (self.reader_conn, self.writer_conn):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def close(self) -> None:
        if self._data is not None:
            self._data.release()
            self._data = None
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - defensive
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except OSError:  # pragma: no cover - already unlinked
            pass


class ShmemComm(MeshComm):
    """Per-rank communicator over the shared-memory ring mesh.

    ``out_rings[d]`` / ``in_rings[s]`` are this rank's rings to and from
    each peer (``None`` at its own slot). Incoming traffic is moved into
    the inherited per-(source, tag) FIFO mailboxes by the progress engine,
    which runs in whichever thread is currently blocked — there are no
    receiver threads.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        out_rings: list[SharedRing | None],
        in_rings: list[SharedRing | None],
        trace: Trace,
        op_timeout: float | None = None,
    ) -> None:
        self._init_mesh(rank, size, trace, op_timeout)
        self._out_rings = out_rings
        self._out_locks = [threading.Lock() if r is not None else None for r in out_rings]
        self._in_rings = in_rings
        # one progress engine at a time; other threads wait on mailboxes
        self._progress_lock = threading.Lock()
        self._fin = [False] * size
        # deferred doorbells: frames are published immediately but peers are
        # only woken when this rank is about to block. On one core an early
        # wakeup makes sender and receiver compete for the CPU through the
        # receiver's whole reduction (preemption + cache thrash); deferring
        # the ding hands the CPU over exactly when the sender goes idle.
        # Correctness never depends on it: the progress wait times out and
        # polls the rings every 50 ms regardless.
        self._pending_dings: set[int] = set()
        self._ding_lock = threading.Lock()
        # this process is reader of in-rings and writer of out-rings only;
        # release the opposite doorbell ends so peer death shows as EOF
        for ring in in_rings:
            if ring is not None:
                try:
                    ring.writer_conn.close()
                except OSError:  # pragma: no cover
                    pass
        for ring in out_rings:
            if ring is not None:
                try:
                    ring.reader_conn.close()
                except OSError:  # pragma: no cover
                    pass
        #: active doorbells the progress engine selects on (fd -> source)
        self._watch = {
            r.reader_conn.fileno(): src for src, r in enumerate(in_rings) if r is not None
        }
        #: one long-lived consume callback per source: the progress engine
        #: runs on every blocked poll, so it allocates nothing per tick
        self._consumers = [
            self._consume_from(src) if r is not None else None
            for src, r in enumerate(in_rings)
        ]

    # ------------------------------------------------------------------
    # progress engine
    # ------------------------------------------------------------------
    def _consume_from(self, src: int) -> Callable[[memoryview], None]:
        def consume(view: memoryview) -> None:
            try:
                # the single copy of the receive path: shared segment ->
                # the decoded arrays the collective will own
                tag, seq, nbytes, epoch, payload = decode_message(view)
            except Exception:
                # undecodable frame: fail fast instead of silently wedging
                self._abort()
                return
            if epoch < self.epoch:
                # in-flight frame from a dead world epoch: drop it so the
                # post-shrink collectives never match pre-shrink traffic
                self._count_stale_frame()
                return
            if tag == _FIN_TAG:
                self._fin[src] = True  # peer finished; its channel is drained
                self._watch.pop(self._in_rings[src].reader_conn.fileno(), None)
                return
            self._mailbox(src, tag).put(payload, nbytes, seq)

        return consume

    def _drain_rings(self) -> bool:
        """Consume every published frame from every live inbound ring."""
        consumed = False
        for src, ring in enumerate(self._in_rings):
            if ring is None or self._fin[src]:
                continue
            consume = self._consumers[src]
            while not self._fin[src]:
                status = ring.try_read_frame(consume, self.aborted.is_set)
                if status == "ok":
                    consumed = True
                else:  # "empty" or "partial": nothing more readable now
                    break
        return consumed

    def _progress(self, wait: float) -> None:
        """One progress step: drain what is published, else wait for dings.

        Must be called with :attr:`_progress_lock` held. EOF on a doorbell
        whose peer never sent FIN means the peer died: abort the world,
        exactly like the process backend's pump observing pipe EOF.
        """
        if self._drain_rings() or self.aborted.is_set() or wait <= 0:
            return
        if not self._watch:
            time.sleep(min(wait, 0.001))  # every peer wound down already
            return
        try:
            readable, _, _ = select.select(list(self._watch), [], [], wait)
        except OSError:  # a watched fd went away mid-select
            readable = list(self._watch)
        for fd in readable:
            src = self._watch.get(fd)
            if src is None:
                continue
            try:
                wakeups = os.read(fd, 4096)
            except OSError:
                wakeups = b""
            if not wakeups:  # EOF with no FIN first: the peer died mid-run
                self._watch.pop(fd, None)
                if not self._fin[src]:
                    self._abort(failed_rank=src)
        if readable:
            self._drain_rings()

    def _run_progress(self, wait: float) -> None:
        """Drive progress if no other thread is; otherwise nap briefly."""
        if self._progress_lock.acquire(blocking=False):
            try:
                self._progress(wait)
            finally:
                self._progress_lock.release()
        else:
            time.sleep(0.0005)

    def _flush_dings(self) -> None:
        """Ring the doorbells of every peer with a pending unsignalled frame."""
        if not self._pending_dings:
            return
        with self._ding_lock:
            dests, self._pending_dings = self._pending_dings, set()
        for dest in dests:
            self._out_rings[dest]._ding()  # EPIPE here surfaces as EOF later

    def _send_progress_hook(self) -> bool:
        """``should_abort`` for blocked sends that also drives progress.

        Flushing the deferred doorbells first is what lets a sender blocked
        on a full ring hand the CPU to the reader that must drain it.
        """
        if self.aborted.is_set():
            return True
        self._flush_dings()
        self._run_progress(0.0)
        return self.aborted.is_set()

    # ------------------------------------------------------------------
    # transport hooks (_alloc_seq inherited from MeshComm)
    # ------------------------------------------------------------------
    def _send_deadline_hook(self, dest: int, tag: int) -> Callable[[], bool]:
        """The blocked-send progress hook, bounded by ``op_timeout``.

        The hook doubles as the abort check of :meth:`SharedRing.write`;
        raising out of it unwinds the write cleanly (the frame slot is not
        yet published at every point the hook runs).
        """
        deadline = time.monotonic() + self.op_timeout

        def hook() -> bool:
            if time.monotonic() >= deadline:
                raise CommTimeoutError(
                    f"send to rank {dest} (tag {tag}) blocked on a full ring "
                    f"for op_timeout={self.op_timeout}s",
                    source=dest,
                    tag=tag,
                    timeout=self.op_timeout,
                )
            return self._send_progress_hook()

        return hook

    def _transport_send(self, obj: Any, nbytes: int, seq: int, dest: int, tag: int) -> None:
        total, parts = encode_frame_parts(tag, seq, nbytes, obj, self.epoch)
        ring = self._out_rings[dest]
        hook = (
            self._send_progress_hook
            if self.op_timeout is None
            else self._send_deadline_hook(dest, tag)
        )
        with self._out_locks[dest]:
            ok = ring.write(parts, total, hook, ding=False)
        if not ok:
            if self.aborted.is_set():
                # the write observed the abort flag: name the true culprit
                raise self.aborted.error()
            # the doorbell write end is gone: the destination itself died
            self._abort(failed_rank=dest)
            raise RankFailedError(dest, f"rank {dest} is gone; send failed")
        with self._ding_lock:
            self._pending_dings.add(dest)

    def _transport_recv(self, source: int, tag: int) -> tuple[Any, int, int]:
        box = self._mailbox(source, tag)
        deadline = None if self.op_timeout is None else time.monotonic() + self.op_timeout
        while True:
            item = box.pop_nowait()
            if item is not None:
                # done transporting (about to hand control back to the
                # algorithm, usually into a reduction): wake the peers we fed
                self._flush_dings()
                return item
            if self.aborted.is_set():
                raise self.aborted.error()
            if deadline is not None and time.monotonic() >= deadline:
                raise CommTimeoutError(
                    f"recv from rank {source} (tag {tag}) saw no message "
                    f"within op_timeout={self.op_timeout}s",
                    source=source,
                    tag=tag,
                    timeout=self.op_timeout,
                )
            self._flush_dings()  # about to block: wake the peers we fed
            if self._progress_lock.acquire(blocking=False):
                try:
                    if box.has_items():
                        continue  # delivered while we grabbed the lock
                    self._progress(_PROGRESS_WAIT_S)
                finally:
                    self._progress_lock.release()
            else:
                # another thread is progressing; it will fill our mailbox
                box.wait(0.005)

    def _probe(self, source: int, tag: int) -> bool:
        box = self._mailbox(source, tag)
        if box.has_items():
            return True
        self._flush_dings()  # pollers hand the wakeup over too
        self._run_progress(0.0)
        return box.has_items()

    def _await_abort(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while not self.aborted.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            self._flush_dings()  # a peer may be waiting on our last frame
            self._run_progress(min(remaining, _PROGRESS_WAIT_S))
        return True

    def shutdown(self) -> None:
        """Graceful wind-down: tell every peer this rank is done sending."""
        total, parts = encode_frame_parts(_FIN_TAG, -1, 0, None, self.epoch)
        for dest, ring in enumerate(self._out_rings):
            if ring is None:
                continue
            with self._out_locks[dest]:
                ring.write(parts, total, self._send_progress_hook)  # best effort
        self._flush_dings()


class ShmemWorld:
    """Parent-side record of one shmem-backend run (for ParallelResult)."""

    def __init__(self, size: int, start_method: str, pids: list[int], ring_capacity: int) -> None:
        self.size = size
        self.start_method = start_method
        self.pids = pids
        self.ring_capacity = ring_capacity

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ShmemWorld(size={self.size}, start_method={self.start_method!r}, "
            f"ring_capacity={self.ring_capacity})"
        )


def _child_main(
    rank: int,
    size: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    out_rings: list[SharedRing | None],
    in_rings: list[SharedRing | None],
    result_conn: Connection,
    close_list: list[Connection],
    topology: Any = None,
    op_timeout: float | None = None,
) -> None:
    """Entry point of one rank process."""
    # under fork every doorbell/result end of every rank was inherited; drop
    # the foreign ones so peer death propagates as doorbell EOF
    for conn in close_list:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    trace = Trace(size)
    comm = ShmemComm(rank, size, out_rings, in_rings, trace, op_timeout)
    comm.topology = topology
    try:
        result = fn(comm, *args, **kwargs)
        comm.shutdown()
        payload = ("ok", rank, result, trace.events(rank))
    except WorldAbortedError:
        payload = ("aborted", rank, None, trace.events(rank))
    except BaseException as exc:  # noqa: BLE001 - must propagate rank errors
        payload = ("error", rank, _portable_exception(exc), trace.events(rank))
    try:
        result_conn.send(payload)
    except Exception as exc:  # unpicklable result/exception
        result_conn.send(("error", rank, _portable_exception(exc), None))
    finally:
        result_conn.close()


class ShmemBackend(Backend):
    """Multiprocess backend with zero-copy shared-memory ring transport."""

    name = "shmem"

    def __init__(self, ring_capacity: int = DEFAULT_RING_CAPACITY) -> None:
        self.ring_capacity = int(ring_capacity)

    def run(
        self,
        fn: Callable[..., Any],
        nranks: int,
        *args: Any,
        copy_payloads: bool = True,  # serialization always isolates; accepted for API parity
        trace: Trace | None = None,
        timeout: float | None = 300.0,
        op_timeout: float | None = None,
        topology: Any = None,
        **kwargs: Any,
    ) -> ParallelResult:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        ctx = mp.get_context(_START_METHOD)
        _check_spawn_picklable(fn, args, kwargs, self.name)

        out_rings: list[list[SharedRing | None]] = [[None] * nranks for _ in range(nranks)]
        in_rings: list[list[SharedRing | None]] = [[None] * nranks for _ in range(nranks)]
        all_rings: list[SharedRing] = []
        result_pipes: list[tuple[Connection, Connection]] = []
        procs: list[mp.Process] = []
        try:
            try:
                for src in range(nranks):
                    for dst in range(nranks):
                        if src == dst:
                            continue
                        ring = SharedRing(self.ring_capacity, ctx)
                        out_rings[src][dst] = ring
                        in_rings[dst][src] = ring
                        all_rings.append(ring)
                result_pipes = [ctx.Pipe(duplex=False) for _ in range(nranks)]

                for rank in range(nranks):
                    own: set[int] = {
                        id(r.writer_conn) for r in out_rings[rank] if r is not None
                    }
                    own |= {id(r.reader_conn) for r in in_rings[rank] if r is not None}
                    own.add(id(result_pipes[rank][1]))
                    close_list: list[Connection] = []
                    if _START_METHOD == "fork":
                        # spawn children only inherit the conns we pass; fork
                        # children inherit everything and must close foreign ends
                        for r in all_rings:
                            close_list += [
                                c for c in (r.reader_conn, r.writer_conn) if id(c) not in own
                            ]
                        close_list += [
                            c for rr, ws in result_pipes for c in (rr, ws) if id(c) not in own
                        ]
                    p = ctx.Process(
                        target=_child_main,
                        args=(
                            rank,
                            nranks,
                            fn,
                            args,
                            kwargs,
                            out_rings[rank],
                            in_rings[rank],
                            result_pipes[rank][1],
                            close_list,
                            topology,
                            op_timeout,
                        ),
                        name=f"rank-{rank}",
                        daemon=True,
                    )
                    p.start()
                    procs.append(p)
            except BaseException:
                for p in procs:
                    if p.is_alive():
                        p.terminate()
                for p in procs:
                    p.join(timeout=5.0)
                for r, w in result_pipes:
                    r.close()
                    w.close()
                raise

            # the parent closes its doorbell *write* ends so readers see EOF
            # exactly when the writing rank dies, but keeps the *read* ends
            # open so a late buffered send to a finished rank never hits
            # EPIPE (mirroring how the process backend parks pipe read ends)
            for ring in all_rings:
                try:
                    ring.writer_conn.close()
                except OSError:  # pragma: no cover
                    pass
            for _, w in result_pipes:
                w.close()

            try:
                outcome = self._collect(
                    procs, [r for r, _ in result_pipes], nranks, timeout, in_rings
                )
            finally:
                for p in procs:
                    if p.is_alive():
                        p.terminate()
                for p in procs:
                    p.join(timeout=5.0)
                for r, _ in result_pipes:
                    r.close()
        finally:
            for ring in all_rings:
                ring.close_doorbell()
                ring.close()
                ring.unlink()

        world = ShmemWorld(nranks, _START_METHOD, [p.pid for p in procs], self.ring_capacity)
        return _finalize_run(outcome, trace, nranks, world)

    # ------------------------------------------------------------------
    def _collect(
        self,
        procs: list[mp.Process],
        result_conns: list[Connection],
        nranks: int,
        timeout: float | None,
        in_rings: list[list[SharedRing | None]],
    ) -> tuple[list[Any], list[list[TraceEvent]], list[tuple[int, BaseException]], list[int]]:
        deadline = None if timeout is None else time.monotonic() + timeout
        error_deadline: float | None = None
        results: list[Any] = [None] * nranks
        events: list[list[TraceEvent]] = [[] for _ in range(nranks)]
        errors: list[tuple[int, BaseException]] = []
        aborted_ranks: list[int] = []
        pending = dict(enumerate(result_conns))
        # rings of finished/dead ranks: nothing consumes them anymore, so the
        # parent drains them each tick, keeping late buffered senders unstuck
        # (the shared-memory analog of the parent draining finished pipes)
        drainable: list[SharedRing] = []

        while pending:
            now = time.monotonic()
            wait_for = None
            if deadline is not None:
                wait_for = deadline - now
            if error_deadline is not None:
                wait_for = min(error_deadline - now, wait_for) if wait_for is not None else error_deadline - now
            if wait_for is not None and wait_for <= 0:
                if errors or error_deadline is not None:
                    break  # grace period after a failure ran out
                raise TimeoutError(
                    f"parallel run did not finish within {timeout}s "
                    f"(ranks {sorted(pending)} still pending; likely deadlock)"
                )
            if drainable:
                # rings are not waitable objects: tick often enough to drain
                wait_for = _PROGRESS_WAIT_S if wait_for is None else min(wait_for, _PROGRESS_WAIT_S)
            ready = conn_wait(list(pending.values()), timeout=wait_for)
            for ring in drainable:
                ring.drain()
            for conn in ready:
                rank = next(r for r, c in pending.items() if c is conn)
                try:
                    status, _r, value, rank_events = conn.recv()
                except (EOFError, OSError):
                    procs[rank].join(timeout=1.0)  # reap so exitcode is real
                    code = procs[rank].exitcode
                    errors.append(
                        (rank, RankFailedError(rank, f"rank {rank} process died (exitcode {code})"))
                    )
                    del pending[rank]
                    drainable.extend(r for r in in_rings[rank] if r is not None)
                    continue
                del pending[rank]
                drainable.extend(r for r in in_rings[rank] if r is not None)
                if status == "ok":
                    results[rank] = value
                    events[rank] = rank_events
                elif status == "aborted":
                    events[rank] = rank_events or []
                    aborted_ranks.append(rank)
                else:  # "error"
                    events[rank] = rank_events or []
                    errors.append((rank, value))
            if errors and error_deadline is None:
                error_deadline = time.monotonic() + _ERROR_GRACE_S
        return results, events, errors, aborted_ranks


register_backend(ShmemBackend.name, ShmemBackend)
