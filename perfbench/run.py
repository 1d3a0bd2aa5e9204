#!/usr/bin/env python3
"""Benchmark of the nsabc pipeline; README.md beside this file describes it.

    python3 perfbench/run.py --workload bulk-4m --seed 1 --seconds 30 --trace 0

Run from any directory; nsabc is imported from the ``src`` directory of the
checkout that holds this file, and from nowhere else.  One client, one
thread, closed loop.  Prints readable lines, one ``meta`` line, and as the
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Exits 1 when any check fails, and with an error and no
result when nsabc cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_LAUNCHES = 7
TRACE_CHUNKS = 10


def import_library():
    """Import nsabc from this checkout's src/ only; exit without a result otherwise."""
    sys.path.insert(0, str(SRC))
    try:
        import nsabc
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import nsabc from {SRC}: {exc}")
    if not Path(nsabc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: nsabc was imported from {nsabc.__file__}, not from {SRC}")


def launch_probe() -> dict:
    """Time a fresh interpreter that imports nsabc and makes one one-block call."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return {"ok": False}
    if proc.returncode != 0:
        return {"ok": False}
    probe = json.loads(proc.stdout.splitlines()[-1])
    probe["setup_s"] = probe["done_at"] - start
    return probe


def run_ops(workload, ops, clock, errors: Counter, *, seconds=None, tracer=None, interludes=()):
    """Closed loop over ``ops``; with ``seconds``, stop at the first
    width-cycle boundary after that much op time.

    ``interludes`` are untimed calls run between cycles, spread evenly over
    the run, so that they sample the same machine conditions as the ops.
    """
    from workloads import WIDTHS, OpResult

    check_rng = workload.rng("check")
    pending = list(interludes)
    results, busy = [], 0.0
    for i, op in enumerate(ops):
        if seconds is not None and i % len(WIDTHS) == 0:
            progress = busy / seconds
            while pending and progress * len(interludes) >= len(interludes) - len(pending):
                pending.pop(0)()
            if progress >= 1:
                break
        if tracer is not None:
            tracer.begin_op(op.width)
        start = time.perf_counter()
        try:
            results.append(workload.execute(op, clock, check_rng))
        except Exception as exc:  # a failed op is counted, and the run goes on
            errors[type(exc).__name__] += 1
            results.append(OpResult(op.width, False))
        busy += time.perf_counter() - start
    return results


def end_to_end(results, probes) -> dict:
    """End-to-end metrics over the whole run; rates count completed ops only.
    A metric with nothing to measure (every op failed) is left out."""
    from workloads import WIDTHS

    done = [r for r in results if r.ok]
    m = {}
    if any(p["ok"] for p in probes):
        m["setup_s"] = (statistics.median(p["setup_s"] for p in probes if p["ok"]), "s")
    for kind in ("enc", "dec"):
        for w in WIDTHS:
            sel = [r for r in done if r.width == w]
            if sel:
                seconds = sum(getattr(r, f"{kind}_s") for r in sel)
                m[f"{kind}_MBps.w{w}"] = (sum(r.nbytes for r in sel) / seconds / 1e6, "MB/s")
    if done:
        lat = np.array([r.latency_s for r in done])
        p50, p90 = np.percentile(lat, [50, 90]) * 1e3
        m["ops_per_s"] = (len(lat) / lat.sum(), "1/s")
        m["lat_p50_ms"] = (float(p50), "ms")
        m["lat_p90_ms"] = (float(p90), "ms")
    m["peak_mem_MB"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    return m


def traced_run(workload, probes, seconds: float, errors: Counter):
    """Run a fixed op list twice, chunk by chunk: each chunk untraced, then
    traced, so that drift in machine speed reaches both passes alike."""
    from tracer import Tracer
    from workloads import WIDTHS, Clock

    cycles = max(1, round(workload.trace_ops_per_second * seconds / len(WIDTHS)))
    ops, tracer = workload.ops(), Tracer()
    plain, traced = [], []
    edges = [len(WIDTHS) * (cycles * c // TRACE_CHUNKS) for c in range(TRACE_CHUNKS + 1)]
    for lo, hi in zip(edges, edges[1:]):
        batch = list(islice(ops, hi - lo))
        plain += run_ops(workload, batch, Clock(), errors)
        with tracer.installed():
            traced += run_ops(workload, batch, Clock(tracer), errors, tracer=tracer)
    base_s = sum(r.latency_s for r in plain)
    traced_s = sum(r.latency_s for r in traced)
    m = tracer.metrics(traced_s)
    m["trace.overhead_frac"] = (traced_s / base_s - 1, "ratio")
    ok = [p for p in probes if p["ok"]]
    if ok:
        m["setup.import_s"] = (statistics.median(p["import_s"] for p in ok), "s")
        m["setup.first_call_s"] = (statistics.median(p["first_call_s"] for p in ok), "s")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(path)
    return m, plain + traced, path


def _first_line(path: str, prefix: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.lower().startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches


def _nominal_hz() -> dict | None:
    khz = _read(Path("/sys/devices/system/cpu/cpu0/cpufreq/scaling_max_freq"))
    if khz:
        return {"value": float(khz) * 1e3, "source": "cpufreq scaling_max_freq (a ceiling)"}
    mhz = _first_line("/proc/cpuinfo", "cpu mhz")
    if mhz:
        return {"value": float(mhz) * 1e6, "source": "/proc/cpuinfo cpu MHz"}
    return None


def _git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata(args) -> dict:
    """Where and how the run happened; holds no key material."""
    from nsabc import _kernels

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "backend": _kernels.resolve_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"), "caches": _caches(),
        "cpu_hz_nominal": _nominal_hz(), "git_commit": _git_commit(),
    }


def warm_up() -> None:
    """One small round trip per width, so lazy set-up is not timed."""
    from nsabc import container

    from workloads import WARM_UP_KEYS, WIDTHS

    k = WARM_UP_KEYS
    for w in WIDTHS:
        blob = container.encrypt_bytes(bytes(3 * w), k.key, k.tweak_key, k.unit_key, w)
        container.decrypt_bytes(blob, k.key, k.tweak_key, k.unit_key)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("bulk-4m", "short-msg"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    import_library()
    from nsabc import kat

    from workloads import WORKLOADS, Clock

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    errors: Counter = Counter()
    warm_up()
    launches = 2 if args.tiny else SETUP_LAUNCHES
    probes: list[dict] = []

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(run_metadata(args)))
    if args.trace:
        probes = [launch_probe() for _ in range(launches)]
        metrics, results, span_path = traced_run(workload, probes, args.seconds, errors)
        print(f"spans written to {span_path.relative_to(ROOT)}")
    else:
        interludes = [lambda: probes.append(launch_probe())] * launches
        results = run_ops(workload, workload.ops(), Clock(), errors, seconds=args.seconds,
                          interludes=interludes)
        metrics = end_to_end(results, probes)

    gate = [("published w=16 trace", kat.trace_matches_reference(kat.standard_trace(16))),
            ("set-up probes ran and round-tripped", all(p["ok"] for p in probes))]
    failed = sum(not r.ok for r in results) + sum(not ok for _, ok in gate)
    attempted = len(results) + len(gate)
    for name, ok in gate:
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, n in errors.items():
        print(f"ops raising {name}: {n}")
    print(f"ops {len(results)}, gate checks {len(gate)}, failed {failed}, fail_frac {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
