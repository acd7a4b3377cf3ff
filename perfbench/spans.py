"""In-memory spans for the traced benchmark run.

Every span is recorded from the benchmark's own files, around a public call
into one layer of the program: ``name``, start, end, the span that caused it
(its parent) and the op it belongs to. Spans stay in memory in the rank that
recorded them and travel back to the parent with the rank's result when the
world ends; nothing is written while an op runs.

The rank communicator is reached by the collectives, not by the benchmark,
so :func:`instrument_comm` wraps its public point-to-point methods on the
object itself (instance attributes shadow the class methods). The composite
methods (``isend``, ``sendrecv``) are spans of their own whose children are
the ``send``/``recv`` spans they are made of, so self-time counts every
interval exactly once.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

now = time.perf_counter

#: public communicator method -> span name.
COMM_SPANS = {
    "send": "runtime.send",
    "isend": "runtime.isend",
    "recv": "runtime.recv",
    "sendrecv": "runtime.sendrecv",
}
SEND_SPANS = ("runtime.send", "runtime.isend")

#: the span that encloses one op; its direct children are the named layers.
OP_SPAN = "op"


class Spans:
    """Append-only span log of one rank (parallel lists, cheap to pickle)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self.op = -1
        #: payloads passed to ``send`` while :attr:`capturing` is set; the
        #: wire microcalls replay them at the workload's realized sizes.
        self.sent_payloads: list = []
        self.capturing = False

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(now())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, fn, name: str):
        """``fn`` timed as a span named ``name`` on every call."""

        def wrapped(*args, **kwargs):
            if self.capturing and name == "runtime.send":
                self.sent_payloads.append(args[0])
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapped

    def begin_op(self, op: int) -> int:
        self.op = op
        return self.open(OP_SPAN)

    def export(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "ops": self.ops,
        }


def instrument_comm(comm, spans: Spans) -> None:
    """Time the communicator's public point-to-point calls as spans."""
    for method, name in COMM_SPANS.items():
        setattr(comm, method, spans.wrap(getattr(comm, method), name))


def uninstrument_comm(comm) -> None:
    for method in COMM_SPANS:
        vars(comm).pop(method, None)


def per_op_layers(log: dict) -> dict[int, dict[str, float]]:
    """Per op: inclusive and self seconds per span name, plus derived counts.

    Keys per op: ``incl:<name>``, ``self:<name>``, ``op_s`` (the op span's
    duration), ``attributed_s`` (time covered by the op span's direct
    children) and ``messages`` (sends not nested in another send).
    """
    names, starts, ends = log["names"], log["starts"], log["ends"]
    parents, ops = log["parents"], log["ops"]
    n = len(names)
    dur = [ends[i] - starts[i] for i in range(n)]
    child_sum = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child_sum[parents[i]] += dur[i]
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i in range(n):
        if ops[i] < 0:
            continue
        row = out[ops[i]]
        name = names[i]
        if name == OP_SPAN:
            row["op_s"] += dur[i]
            row["attributed_s"] += child_sum[i]
            continue
        row[f"self:{name}"] += dur[i] - child_sum[i]
        if not has_ancestor_in(i, (name,), names, parents):
            row[f"incl:{name}"] += dur[i]
        if name in SEND_SPANS and not has_ancestor_in(i, SEND_SPANS, names, parents):
            row["messages"] += 1
    return out


def has_ancestor_in(i: int, wanted: tuple, names: list, parents: list) -> bool:
    p = parents[i]
    while p >= 0:
        if names[p] in wanted:
            return True
        p = parents[p]
    return False
