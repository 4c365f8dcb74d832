"""bindsig benchmark.

    python3 perfbench/run.py --workload {laws,rewrite,cli} --seed N --seconds S --trace {0,1}

Runs one workload single-threaded against the library in ``src/`` of the
checkout that holds this file, and prints as its last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
depth probe, an untraced pass and a traced replay of the same units give
the per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 9  # cold set-ups per run: this process's, then fresh child processes
RECURSION_LIMIT_TRACED = 4000  # the tracer adds a frame per recursive fold call
MAX_ERRORS = 20  # failures described on stderr; all are counted


def use_checkout_library() -> None:
    sys.path.insert(0, SRC)
    spec = importlib.util.find_spec("bindsig")
    origin = spec.origin if spec is not None else None
    if origin is None or not os.path.abspath(origin).startswith(SRC + os.sep):
        sys.exit(f"perfbench: bindsig not found under {SRC}")


def setup(workload: str, seed: int):
    """Import the library, generate the inputs, build signatures and tables.

    What set-up leaves alive is then frozen out of the garbage collector,
    so the benchmark's own inputs do not lengthen the library's collections.
    """
    start = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    elapsed = perf_counter() - start
    gc.collect()
    gc.freeze()
    return elapsed, wl


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Pass:
    """Totals of one pass: whole epochs of a workload's units."""

    def __init__(self):
        self.units = 0
        self.busy = 0.0
        self.ops = 0
        self.nodes = 0
        self.attempted = 0
        self.failed = 0
        self.epochs = []  # (ops, nodes, busy seconds) per epoch
        self.latencies_ms = {}  # input key -> per-op ms, one per epoch
        self.inputs = []  # (terms, assignments) per unit of the first epoch, when kept
        self.errors = []

    def run(self, wl, seconds=None, epochs=None, tracer=None, keep_inputs=False, between=None):
        """Whole epochs until ``seconds`` have passed or ``epochs`` are done.

        ``between`` is called after each epoch, outside the timed calls.
        """
        begin = perf_counter()
        while True:
            ops, nodes, busy = self.ops, self.nodes, self.busy
            for pos, unit in enumerate(wl.epoch()):
                self._unit(pos, unit, tracer, keep_inputs and not self.epochs)
            self.epochs.append((self.ops - ops, self.nodes - nodes, self.busy - busy))
            if between is not None:
                between()
            if epochs is not None:
                if len(self.epochs) >= epochs:
                    break
            elif perf_counter() - begin >= seconds:
                break
        return self

    def _unit(self, pos, unit, tracer, keep_inputs):
        if tracer is not None:
            tracer.begin_op(self.units)
        error = None
        # The timed call runs with the cyclic collector paused, as timeit
        # does; it collects between calls.  Terms hold no cycles, and a full
        # collection inside a call moved item times by ~100 ms, at places
        # that depend on the heap rather than on the call.
        gc.disable()
        start = perf_counter()
        try:
            unit.result = unit.run()
        except Exception as e:  # noqa: BLE001 - a failing op is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        finally:
            elapsed = perf_counter() - start
            gc.enable()
        if error is None:
            try:
                if not unit.check(unit.result):
                    error = "output differs from the reference"
            except Exception as e:  # noqa: BLE001
                error = f"check raised {type(e).__name__}: {e}"
        ok = error is None
        if not ok and len(self.errors) < MAX_ERRORS:
            self.errors.append(f"unit {self.units}: {error}")
        self.units += 1
        self.busy += elapsed
        if ok:
            self.ops += unit.ops
            self.nodes += unit.nodes
            self.attempted += unit.ops
            if unit.latency:
                key = pos if unit.key is None else unit.key
                self.latencies_ms.setdefault(key, []).append(elapsed * 1000.0 / unit.ops)
        else:
            self.attempted += max(unit.ops, 1)
            self.failed += max(unit.ops, 1)
        if keep_inputs:
            self.inputs.append((unit.terms, unit.assigns))

    def rate(self, which: int) -> float:
        """Median over epochs of ops (0) or nodes (1) per busy second."""
        return statistics.median(e[which] / e[2] for e in self.epochs)

    def latencies(self) -> list[float]:
        """Per-op latency of each input: its median over the epochs."""
        return [statistics.median(v) for v in self.latencies_ms.values()]


def input_properties(inputs) -> dict:
    import ref

    terms = nodes = depth = closed = binders = 0
    uses, distinct = 0, set()
    for unit_terms, assigns in inputs:
        for t in unit_terms:
            n, d, c, b = ref.profile(t)
            terms += 1
            nodes += n
            depth = max(depth, d)
            closed += c
            binders += b
        for a in assigns:
            uses += 1
            distinct.add(a)
    return {
        "input.nodes_mean": (nodes / terms if terms else 0.0, "nodes"),
        "input.depth_max": (depth, "nodes"),
        "input.closed_share": (closed / nodes if nodes else 0.0, "ratio"),
        "input.binder_share": (binders / nodes if nodes else 0.0, "ratio"),
        "input.assign_reuse": (1 - len(distinct) / uses if uses else 0.0, "ratio"),
    }


def cache_entries(signatures) -> dict:
    seen = {id(s): s for s in signatures}.values()
    total = sum(len(s._cache) for s in seen)
    lifts = sum(
        1 for s in seen for key in s._cache if type(key) is tuple and key[0] in ("alift", "rlift")
    )
    return {
        "sigdef.cache_entries": (total, "count"),
        "sigdef.lift_cache_entries": (lifts, "count"),
    }


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(args) -> tuple[Pass, dict]:
    """The timed run.  The set-up samples in child processes are spread over
    the run, so their median sees the same machine as the timed epochs."""
    setup_s, wl = setup(args.workload, args.seed)
    setups = [setup_s]
    spacing = args.seconds / SETUP_SAMPLES
    due = perf_counter() + spacing

    def sample_setup():
        nonlocal due
        if len(setups) < SETUP_SAMPLES and perf_counter() >= due:
            setups.append(setup_in_child(args.workload, args.seed))
            due = perf_counter() + spacing

    p = Pass().run(wl, seconds=args.seconds, between=sample_setup)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_in_child(args.workload, args.seed))
    lat = p.latencies()
    print(
        f"{args.workload} seed={args.seed}: epochs={len(p.epochs)} units={p.units} ops={p.ops} "
        f"busy_s={p.busy:.3f} latency_samples={len(lat)} error_rate={p.failed / max(p.attempted, 1)} "
        f"setup_samples={[round(s, 4) for s in setups]}"
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (p.rate(0), "1/s"),
        "nodes_per_s": (p.rate(1), "nodes/s"),
        "op_ms_p50": (percentile(lat, 50), "ms"),
        "op_ms_p99": (percentile(lat, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return p, metrics


def per_layer(args) -> tuple[Pass, dict]:
    """Depth probe, then a fixed number of epochs untraced and again traced.

    The epoch count is fixed per workload rather than set by --seconds, so
    the traced run's counts repeat exactly for the same code and seed.
    """
    import probe
    import spans

    metrics = probe.depth_ceilings()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, RECURSION_LIMIT_TRACED))
    try:
        _s, wl = setup(args.workload, args.seed)
        plain = Pass().run(wl, epochs=wl.trace_epochs, keep_inputs=True)
        _s, wl = setup(args.workload, args.seed)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = Pass().run(wl, epochs=wl.trace_epochs, tracer=tracer)
        finally:
            tracer.uninstall()
    finally:
        sys.setrecursionlimit(limit)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.bin"))
    metrics.update(tracer.metrics())
    metrics.update(input_properties(plain.inputs))
    metrics.update(cache_entries(wl.signatures))
    unattributed = traced.busy - tracer.root_s
    metrics.update(
        {
            "trace.overhead": (traced.busy / plain.busy - 1, "ratio"),
            "trace.unattributed_s": (unattributed, "s"),
            "trace.unattributed_share": (unattributed / traced.busy, "ratio"),
            "trace.spans": (len(tracer.span_name) + tracer.dropped, "count"),
        }
    )
    print(
        f"{args.workload} seed={args.seed}: units={plain.units} untraced_busy_s={plain.busy:.3f} "
        f"traced_busy_s={traced.busy:.3f} spans={len(tracer.span_name)} dropped={tracer.dropped}"
    )
    both = Pass()
    for p in (plain, traced):
        both.attempted += p.attempted
        both.failed += p.failed
        both.errors += p.errors[: MAX_ERRORS - len(both.errors)]
    return both, metrics


def commit() -> str | None:
    """The checkout's git commit, read from .git without running git.

    ``source_sha256`` in :func:`describe` identifies the code without it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:  # no .git (a plain checkout) or a packed ref
        return None


def describe(args) -> dict:
    """Machine, Python, source and inputs of this result."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bindsig")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("laws", "rewrite", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_checkout_library()
    sys.path.insert(0, HERE)
    if args.setup_only:
        setup_s, _wl = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(json.dumps(describe(args)))
    p, metrics = (per_layer if args.trace else end_to_end)(args)
    for err in p.errors:
        print("error:", err, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": p.failed == 0,
                "attempted": p.attempted,
                "failed": p.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
