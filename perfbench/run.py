"""The repository benchmark: SparCML data-parallel training steps on 2 ranks.

Run from the repository root::

    python3 perfbench/run.py --workload train-topk --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's tracing
off; ``--trace 1`` is a separate run that measures the untraced loop and then
the same loop with spans around every layer, and reports the per-layer
metrics. The lines before the last one are a readable report (host record,
every metric by name and unit, the tail percentile and its sample count);
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The workloads are defined, each with the reason it exists, in
``perfbench/workloads.py``; BENCHMARK.json at the repository root names the
metrics. The program under test is imported from ``src/`` of the checkout
the benchmark lives in; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import os

#: BLAS threads per rank. Set before numpy loads so every rank inherits it:
#: ranks x BLAS threads must not exceed the CPUs, or the benchmark measures
#: the scheduler instead of the program.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

EXIT_NO_PROGRAM = 2
EXIT_THREAD_BUDGET = 3


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def blas_record() -> dict:
    """The BLAS numpy loaded and the thread count it actually runs with."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    if threads is None:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def cpu_steal_s() -> float:
    """CPU time the hypervisor gave to other guests so far (0 if unknown).

    On a shared virtual machine, stolen time is foreign load the benchmark
    cannot see otherwise; the report states how much of it overlapped the run.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


def host_record() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_record(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def stop_helper_processes(timeout_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The rank processes are joined by the program; what can outlive them is
    multiprocessing's resource tracker, which the shared-memory backend
    starts on first use and which otherwise exits only some time after this
    process does. Closing its pipe stops it; it is then reaped here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker  # noqa: SLF001
    fd, pid = tracker._fd, tracker._pid  # noqa: SLF001
    if fd is None:
        return
    tracker._fd = tracker._pid = None  # noqa: SLF001
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout_s
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass  # already reaped


def main(argv=None) -> int:
    try:
        return measure(argv)
    finally:
        stop_helper_processes()


def measure(argv) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from harness import run_workload
    from workloads import NRANKS, WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    host = host_record()
    blas_threads = host["blas"]["threads"]
    if NRANKS * blas_threads > host["nproc"]:
        print(
            f"perfbench: {NRANKS} ranks x {blas_threads} BLAS threads exceeds "
            f"{host['nproc']} CPUs; refusing to measure an oversubscribed host",
            file=sys.stderr,
        )
        return EXIT_THREAD_BUDGET
    workload = WORKLOADS[args.workload]
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} backend={workload.backend} ranks={NRANKS}"
    )
    print(f"why: {workload.why}")
    print("host: " + json.dumps(host, sort_keys=True))
    steal0, t0 = cpu_steal_s(), time.monotonic()
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    details = result.pop("details")
    details["cpu_steal_share"] = (cpu_steal_s() - steal0) / (
        (time.monotonic() - t0) * host["nproc"]
    )
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print("details: " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
