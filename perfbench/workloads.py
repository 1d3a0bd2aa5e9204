"""Seeded inputs and the closed-loop op of each benchmark workload.

Every workload cycles the word width 16 -> 32 -> 64 from one op to the next,
and runs stop only at the end of a cycle, so each width carries the same
number of ops.  All inputs come from the seed; the library receives only
these generated inputs and is called through module attributes at call time,
so the tracer's wrappers see every call.

Correctness checks run after each op's timed calls: the round trip is
compared, and sampled ciphertext blocks are re-derived through the reference
path ``tweakstream.encrypt_block_at``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from nsabc import container, tweakstream

WIDTHS = (16, 32, 64)


@dataclass(frozen=True)
class KeySet:
    """Key, tweak key and unit key for one width; never printed or written."""

    key: tuple[int, ...]
    tweak_key: int
    unit_key: int

    @classmethod
    def draw(cls, rng: random.Random, w: int) -> "KeySet":
        return cls(tuple(rng.getrandbits(w) for _ in range(5)), rng.getrandbits(4 * w), rng.getrandbits(w))


#: fixed public key set for the warm-up calls; only generated keys are secret
WARM_UP_KEYS = KeySet((1, 2, 3, 4, 5), 6, 7)


@dataclass(frozen=True)
class Op:
    width: int
    keys: KeySet
    data: bytes  # plaintext


@dataclass(frozen=True)
class OpResult:
    width: int
    ok: bool
    nbytes: int = 0     # plaintext bytes
    enc_s: float = 0.0  # time inside encrypt_bytes
    dec_s: float = 0.0  # time inside decrypt_bytes

    @property
    def latency_s(self) -> float:
        return self.enc_s + self.dec_s


class Clock:
    """Times one library call; a tracer, when attached, records spans only here."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def call(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.recording = True
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.recording = False
        return out, seconds


def words_of(data: bytes, w: int) -> np.ndarray:
    """Little-endian octets as an (n, 4) array of w-bit words."""
    return np.frombuffer(data, dtype=f"<u{w // 8}").reshape(-1, 4)


def reference_matches(plain: np.ndarray, cipher: np.ndarray, keys: KeySet, index: int, w: int) -> bool:
    """Re-derive ciphertext block ``index`` through the bit-exact reference path."""
    block = tuple(int(v) for v in plain[index])
    want = tweakstream.encrypt_block_at(block, keys.key, keys.tweak_key, keys.unit_key, index, w)
    return want == tuple(int(v) for v in cipher[index])


class Workload:
    """A container workload: each op is encrypt_bytes, decrypt_bytes, compare."""

    name = ""
    #: ops per measured second in a traced run (a fixed op list, see run.py)
    trace_ops_per_second = 1.0
    #: ciphertext blocks per op re-derived through the reference path
    reference_blocks = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.name}/{tag}/{self.seed}")

    def ops(self):
        """A fresh, endless, seed-determined stream of ops."""
        raise NotImplementedError

    def execute(self, op: Op, clock: Clock, check_rng: random.Random) -> OpResult:
        w, k = op.width, op.keys
        blob, enc_s = clock.call(container.encrypt_bytes, op.data, k.key, k.tweak_key, k.unit_key, w)
        back, dec_s = clock.call(container.decrypt_bytes, blob, k.key, k.tweak_key, k.unit_key)
        n = len(op.data)
        padded = op.data + b"\x00" * (-n % (w // 2))
        body = blob[container.HEADER_LEN:]
        ok = back == op.data and len(body) == len(padded)
        if ok and padded:
            plain, cipher = words_of(padded, w), words_of(body, w)
            ok = all(reference_matches(plain, cipher, k, check_rng.randrange(len(plain)), w)
                     for _ in range(self.reference_blocks))
        return OpResult(w, ok, n, enc_s, dec_s)


class Bulk4M(Workload):
    """4 MiB seeded-random payloads; one key set per width, reused all run."""

    name = "bulk-4m"
    trace_ops_per_second = 0.3
    reference_blocks = 8

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.payload_bytes = (64 << 10) if tiny else (4 << 20)
        rng = self.rng("keys")
        self.keys = {w: KeySet.draw(rng, w) for w in WIDTHS}

    def ops(self):
        data = np.random.default_rng([self.seed, 1])
        while True:
            for w in WIDTHS:
                yield Op(w, self.keys[w], data.bytes(self.payload_bytes))


def log_uniform_sizes(rng: random.Random, lo: int, hi: int, strata: int = 32):
    """Log-uniform sizes in [lo, hi), stratified: each run of ``strata`` draws
    takes one size from every 1/strata of the log range, in shuffled order,
    so the size mix of a run hardly depends on the seed."""
    while True:
        order = list(range(strata))
        rng.shuffle(order)
        for s in order:
            yield int(lo * (hi / lo) ** ((s + rng.random()) / strata))


class ShortMsg(Workload):
    """Messages of 16 B to 4 KiB, each under fresh key material."""

    name = "short-msg"
    trace_ops_per_second = 150.0

    def ops(self):
        keys, data = self.rng("keys"), self.rng("data")
        sizes = {w: log_uniform_sizes(self.rng(f"sizes{w}"), 16, 4096) for w in WIDTHS}
        while True:
            for w in WIDTHS:
                yield Op(w, KeySet.draw(keys, w), data.randbytes(next(sizes[w])))


WORKLOADS = {cls.name: cls for cls in (Bulk4M, ShortMsg)}
