"""Throughput benchmark: reference path vs. the fast paths, and the set-up stages beside them.

Each row of the report is one ``Timing``: repeated calls of one path or stage at
one width.  The paths encrypt blocks under schedules precomputed once, as a real
bulk workload would, and are reported in bytes/second.  The stages encrypt no
blocks and are reported in microseconds per call: the schedule set-up that a
fresh key pays (``affine_expand``, ``invert_affine``), the tweak columns of one
tile of ``_kernels.tile_blocks(w)`` blocks (``_kernels.tile_tweaks`` on a
worker's first tile, seeded from limbs, and on a later one, advanced in place
from the one before) and the 32 rounds of one such tile in each direction
(``crypt_tile``, ``icrypt_tile``), in a preallocated workspace.  The report's
first line names the set-up route (``_native.route()``).  On the compiled route
the expansion, inversion and tweak rows time compiled code, which seeds every
tile, so the two tweak rows time the same work.  For each width the report
names the tile length and the threads the batch kernel runs a fast-batch call
and a 4 MiB call on, with the reason.  When a CPU frequency is readable, a
cycles/byte estimate sits beside the paper's own figure for its x86-64
software (circa 9 cpb at w=64, from its abstract): hardware-bound context,
not a target.  The one enforced expectation is fast path >= reference
on the same machine.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _native
from ._kernels import MAX_WORKERS, crypt_tile, icrypt_tile, tile_blocks, tile_tweaks, usable_cpus, worker_count
from .cipher import crypt, word_dtype
from .fastpath import affine_expand, crypt_fast, crypt_fast_batch, invert_affine
from .schedules import key_expand, tweak_expand, unit_expand
from .words import check_cipher_width

DEFAULT_WIDTHS = (32, 64)
BATCH_BLOCKS = 4096

HAND_TUNED_CPB_CONTEXT = "the paper's x86-64 software figure: circa 9 cpb (w=64)"


@dataclass(frozen=True)
class Timing:
    """Repeated calls of one path or set-up stage at one width; ``blocks`` is 0 for a stage."""

    name: str
    width: int
    calls: int
    blocks: int
    seconds: float

    @property
    def us_per_call(self) -> float:
        return self.seconds / self.calls * 1e6

    @property
    def bytes_per_second(self) -> float:
        return self.blocks * (self.width // 2) / self.seconds

    def cycles_per_byte(self, hz: float | None) -> float | None:
        if hz is None or self.blocks == 0:
            return None
        return hz * self.seconds / (self.blocks * (self.width // 2))


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


def _measure(name: str, w: int, fn, seconds: float, blocks_per_call: int = 0) -> Timing:
    """Call fn repeatedly for at least ``seconds``, after one warm-up call."""
    fn()  # warm up (caches)
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return Timing(name, w, calls, calls * blocks_per_call, elapsed)


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


def bench_width(w: int, seconds: float, seed: int = 0) -> list[Timing]:
    """The rows of one width, in report order: the three paths, then the set-up stages."""
    rng, z, t, u, x = _inputs(w, seconds, seed)
    first, step = rng.randrange(1 << (4 * w)), rng.randrange(1 << (4 * w))
    dtype = word_dtype(w)
    ks, ls, cs = key_expand(z, w), unit_expand(u, w), tweak_expand(t, w)
    schedule = affine_expand(z, u, w)
    inverse = invert_affine(schedule)
    batch = np.array([[rng.randrange(1 << w) for _ in range(4)] for _ in range(BATCH_BLOCKS)], dtype=dtype)
    length = tile_blocks(w)
    # as the kernel hands them to a worker: its workspace, whose G output and rotation rows
    # are the carries of ``tile_tweaks``, and tweak columns, seeded by the first tile timed
    work, tweaks = np.empty((6, length), dtype), np.empty((4, length), dtype)
    tile = np.random.default_rng(rng.randrange(1 << 32)).integers(0, 1 << w, (length, 4), np.uint64).astype(dtype)
    out = np.empty_like(tile)
    return [
        _measure("reference", w, lambda: crypt(x, ks, ls, cs, w), seconds, 1),
        _measure("fast", w, lambda: crypt_fast(x, t, schedule), seconds, 1),
        _measure("fast-batch", w, lambda: crypt_fast_batch(batch, t, schedule), seconds, BATCH_BLOCKS),
        _measure("affine_expand", w, lambda: affine_expand(z, u, w), seconds),
        _measure("invert_affine", w, lambda: invert_affine(schedule), seconds),
        _measure("tweak_first_tile", w, lambda: tile_tweaks(tweaks, work[4:], first, step, 0, None), seconds),
        _measure("tweak_advanced_tile", w, lambda: tile_tweaks(tweaks, work[4:], first, step, length, 0), seconds),
        _measure("tile_encrypt", w, lambda: crypt_tile(tile, out, work, tweaks, schedule), seconds),
        _measure("tile_decrypt", w, lambda: icrypt_tile(tile, out, work, tweaks, inverse), seconds),
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


def render_report(timings: Sequence[Timing], clock: tuple[float, str] | None) -> str:
    """The set-up route, the rows that encrypt blocks as MB/s, and the set-up stages as us/call;
    ``clock`` is the (hz, source) pair of ``estimate_cpu_hz``.  No key material is printed."""
    lines = [f"set-up route: {_native.route()}"]
    if clock is not None:
        hz, source = clock
        lines.append(f"cycles/byte estimated from a {hz / 1e9:.2f} GHz clock ({source})")
    else:
        hz = None
        lines.append("no CPU frequency source found; cycles/byte omitted")
    lines.append(f"context: {HAND_TUNED_CPB_CONTEXT}")
    lines.append("")
    lines.append(f"{'path':<20} {'w':>3} {'MB/s':>10} {'cycles/byte':>12}")
    for r in timings:
        if r.blocks:
            cpb = r.cycles_per_byte(hz)
            cpb_text = f"{cpb:12.1f}" if cpb is not None else f"{'-':>12}"
            lines.append(f"{r.name:<20} {r.width:>3} {r.bytes_per_second / 1e6:>10.3f} {cpb_text}")
    lines.append("")
    lines.append(f"{'set-up, tiles':<20} {'w':>3} {'us/call':>10}")
    lines.extend(f"{r.name:<20} {r.width:>3} {r.us_per_call:>10.1f}" for r in timings if not r.blocks)
    lines.append("")
    lines.extend(workers_line(w) for w in sorted({r.width for r in timings}))
    return "\n".join(lines)


def run(widths=DEFAULT_WIDTHS, seconds: float = 1.0, seed: int = 0) -> str:
    """The report of every width's paths and set-up stages."""
    return render_report([r for w in widths for r in bench_width(w, seconds, seed)], estimate_cpu_hz())
