"""Throughput benchmark: reference path vs. the fast paths.

Measures repeated-key bulk encryption (schedules precomputed once, as a real
bulk workload would) and reports bytes/second per path, and beside it the
microseconds per call of the schedule set-up that a fresh key pays
(``affine_expand`` and ``invert_affine``), of the tweak columns of one tile
of ``_kernels.tile_blocks(w)`` blocks (``_kernels.tile_tweaks`` on a
worker's first tile, seeded from limbs, and on a later one, advanced in place
from the one before) and of the 32 rounds of one such tile in each direction
(``crypt_tile``, ``icrypt_tile``), in a preallocated workspace.  For each
width it names the tile length and the number of threads the batch kernel runs a
fast-batch call and a 4 MiB call on, with the reason.  When a CPU frequency
is readable, an estimated cycles/byte figure is derived from it so the
numbers can be eyeballed against the paper's own figure for its x86-64
software implementation (circa 9 cpb at w=64, from its abstract); that
figure is hardware-bound context, not a target this build enforces.  The
one enforced expectation is fast path >= reference on the same machine.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._kernels import MAX_WORKERS, crypt_tile, icrypt_tile, tile_blocks, tile_tweaks, usable_cpus, worker_count
from .cipher import crypt, word_dtype
from .fastpath import affine_expand, crypt_fast, crypt_fast_batch, invert_affine
from .schedules import key_expand, tweak_expand, unit_expand
from .words import check_cipher_width

DEFAULT_WIDTHS = (32, 64)
BATCH_BLOCKS = 4096

HAND_TUNED_CPB_CONTEXT = "the paper's x86-64 software figure: circa 9 cpb (w=64)"


@dataclass(frozen=True)
class BenchResult:
    path: str
    width: int
    blocks: int
    seconds: float

    @property
    def bytes_per_second(self) -> float:
        return self.blocks * (self.width // 2) / self.seconds

    def cycles_per_byte(self, hz: float | None) -> float | None:
        if hz is None or self.blocks == 0:
            return None
        return hz * self.seconds / (self.blocks * (self.width // 2))


@dataclass(frozen=True)
class SetupResult:
    """Repeated calls of one set-up or tweak stage at one width."""

    stage: str
    width: int
    calls: int
    seconds: float

    @property
    def us_per_call(self) -> float:
        return self.seconds / self.calls * 1e6


def estimate_cpu_hz() -> tuple[float, str] | None:
    """Best-effort CPU frequency for cycles/byte estimates, with the source it was read from."""
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_max_freq") as fh:
            return float(fh.read().strip()) * 1e3, "nominal ceiling, cpufreq scaling_max_freq"
    except OSError:
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("cpu mhz"):
                    return float(line.split(":", 1)[1]) * 1e6, "current speed, /proc/cpuinfo cpu MHz"
    except OSError:
        pass
    return None


def _measure(fn, seconds: float, blocks_per_call: int) -> tuple[int, float]:
    """Call fn repeatedly for at least ``seconds``; return (blocks, elapsed)."""
    fn()  # warm up (caches)
    total = 0
    start = time.perf_counter()
    while True:
        fn()
        total += blocks_per_call
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return total, elapsed


def _inputs(w: int, seconds: float, seed: int) -> tuple[random.Random, tuple, tuple, int, tuple]:
    """The seeded generator, and the key, tweak, unit key and block it draws first."""
    check_cipher_width(w)
    if not 0 < seconds < math.inf:  # also false for nan
        raise ValueError("benchmark duration must be a positive finite number of seconds")
    rng = random.Random(seed)
    top = 1 << w
    z = tuple(rng.randrange(top) for _ in range(5))
    t = tuple(rng.randrange(top) for _ in range(4))
    u = rng.randrange(top)
    x = tuple(rng.randrange(top) for _ in range(4))
    return rng, z, t, u, x


def bench_width(w: int, seconds: float, seed: int = 0) -> list[BenchResult]:
    """Benchmark the reference, scalar fast and batch paths at one width."""
    rng, z, t, u, x = _inputs(w, seconds, seed)
    top = 1 << w

    ks, ls, cs = key_expand(z, w), unit_expand(u, w), tweak_expand(t, w)
    schedule = affine_expand(z, u, w)
    batch = np.array([[rng.randrange(top) for _ in range(4)] for _ in range(BATCH_BLOCKS)],
                     dtype=word_dtype(w))
    t_arr = np.array(t, dtype=word_dtype(w))

    return [
        BenchResult("reference", w, *_measure(lambda: crypt(x, ks, ls, cs, w), seconds, 1)),
        BenchResult("fast", w, *_measure(lambda: crypt_fast(x, t, schedule), seconds, 1)),
        BenchResult("fast-batch", w,
                    *_measure(lambda: crypt_fast_batch(batch, t_arr, schedule), seconds, BATCH_BLOCKS)),
    ]


def bench_setup(w: int, seconds: float, seed: int = 0) -> list[SetupResult]:
    """Time the schedule set-up of one key at one width, expansion then inversion, the
    tweak columns of a first tile and of a later tile advanced in place from the one before, and
    one tile's encryption and decryption.  These stay out of ``bench_width``: they are not paths."""
    rng, z, _, u, _ = _inputs(w, seconds, seed)
    schedule = affine_expand(z, u, w)
    inverse = invert_affine(schedule)
    first, step = rng.randrange(1 << (4 * w)), rng.randrange(1 << (4 * w))
    length = tile_blocks(w)
    dtype = word_dtype(w)
    # as the kernel hands them to a worker: its workspace, whose G output and rotation rows
    # are the carries of ``tile_tweaks``, and tweak columns, seeded by the first tile timed
    work, t = np.empty((6, length), dtype), np.empty((4, length), dtype)
    scratch = work[4:]
    x = np.random.default_rng(rng.randrange(1 << 32)).integers(0, 1 << w, (length, 4), np.uint64).astype(dtype)
    y = np.empty_like(x)
    return [
        SetupResult("affine_expand", w, *_measure(lambda: affine_expand(z, u, w), seconds, 1)),
        SetupResult("invert_affine", w, *_measure(lambda: invert_affine(schedule), seconds, 1)),
        SetupResult("tweak_first_tile", w,
                    *_measure(lambda: tile_tweaks(t, scratch, first, step, 0, None), seconds, 1)),
        SetupResult("tweak_advanced_tile", w,
                    *_measure(lambda: tile_tweaks(t, scratch, first, step, length, 0), seconds, 1)),
        SetupResult("tile_encrypt", w, *_measure(lambda: crypt_tile(x, y, work, t, schedule), seconds, 1)),
        SetupResult("tile_decrypt", w, *_measure(lambda: icrypt_tile(x, y, work, t, inverse), seconds, 1)),
    ]


def workers_line(w: int) -> str:
    """The tile length at width w, and the threads a fast-batch call and a 4 MiB call run on, and why."""
    length = tile_blocks(w)
    calls = []
    for name, blocks in (("fast-batch", BATCH_BLOCKS), ("4 MiB", (4 << 20) // (w // 2))):
        tiles = -(-blocks // length)
        why = "1 tile, inline" if tiles == 1 else f"min({MAX_WORKERS}, {usable_cpus()} usable CPUs, {tiles} tiles)"
        calls.append(f"{name} {worker_count(tiles)} ({why})")
    return f"{'workers':<20} {w:>3} tile {length} blocks; " + "; ".join(calls)


def render_report(results: list[BenchResult], clock: tuple[float, str] | None,
                  setup: Sequence[SetupResult] = ()) -> str:
    """``clock`` is the (hz, source) pair of ``estimate_cpu_hz``; no key material is printed."""
    lines = []
    if clock is not None:
        hz, source = clock
        lines.append(f"cycles/byte estimated from a {hz / 1e9:.2f} GHz clock ({source})")
    else:
        hz = None
        lines.append("no CPU frequency source found; cycles/byte omitted")
    lines.append(f"context: {HAND_TUNED_CPB_CONTEXT}")
    lines.append("")
    lines.append(f"{'path':<20} {'w':>3} {'MB/s':>10} {'cycles/byte':>12}")
    for r in results:
        cpb = r.cycles_per_byte(hz)
        cpb_text = f"{cpb:12.1f}" if cpb is not None else f"{'-':>12}"
        lines.append(f"{r.path:<20} {r.width:>3} {r.bytes_per_second / 1e6:>10.3f} {cpb_text}")
    if setup:
        lines.append("")
        lines.append(f"{'set-up, tiles':<20} {'w':>3} {'us/call':>10}")
        for s in setup:
            lines.append(f"{s.stage:<20} {s.width:>3} {s.us_per_call:>10.1f}")
    lines.append("")
    lines.extend(workers_line(w) for w in sorted({r.width for r in (*results, *setup)}))
    return "\n".join(lines)


def run(widths=DEFAULT_WIDTHS, seconds: float = 1.0, seed: int = 0) -> tuple[str, list[BenchResult]]:
    results, setup = [], []
    for w in widths:
        results.extend(bench_width(w, seconds, seed))
        setup.extend(bench_setup(w, seconds, seed))
    return render_report(results, estimate_cpu_hz(), setup), results
