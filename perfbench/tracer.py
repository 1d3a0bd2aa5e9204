"""Spans around the public nsabc entry points, recorded from outside the library.

``Tracer.installed()`` replaces each entry point of ENTRY_POINTS, in every
loaded nsabc module that holds a reference to it, with a wrapper that records
one span per call while ``recording`` is set: name, start, end, parent span,
op id, and the work the call did (blocks or plaintext bytes).  Spans stay in
memory until ``write`` is called.  Nothing derived from key material is kept
in a span; schedule reuse is counted in an in-memory set that is never
written out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from time import perf_counter_ns

from nsabc.container import HEADER_LEN

ENTRY_POINTS = {
    "container": ("encrypt_bytes", "decrypt_bytes"),
    "tweakstream": ("encrypt_blocks", "decrypt_blocks", "tweak_at"),
    "fastpath": ("affine_expand", "invert_affine", "crypt_fast_batch", "icrypt_fast_batch"),
    "schedules": ("key_expand", "unit_expand"),
    "_kernels": ("crypt_batch",),
}

_BLOCK_CALLS = {"tweakstream.encrypt_blocks", "tweakstream.decrypt_blocks", "fastpath.crypt_fast_batch",
                "fastpath.icrypt_fast_batch", "_kernels.crypt_batch"}


def _work(name: str, args, result) -> dict:
    """Key-free size of one call."""
    if name == "container.encrypt_bytes":
        return {"bytes": len(args[0]), "padded": len(result) - HEADER_LEN}
    if name == "container.decrypt_bytes":
        return {"bytes": len(result), "padded": len(args[0]) - HEADER_LEN}
    if name in _BLOCK_CALLS:
        return {"blocks": len(result)}
    return {}


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int
    work: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.op = -1  # id of the op whose calls are being recorded
        self.op_widths: list[int] = []
        self._stack: list[int] = []
        self._schedules: set = set()  # (key, unit key, width) per affine_expand call

    def begin_op(self, width: int) -> None:
        self.op = len(self.op_widths)
        self.op_widths.append(width)

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "nsabc" or n.startswith("nsabc.")]
        restore = []
        try:
            for modname, names in ENTRY_POINTS.items():
                module = sys.modules[f"nsabc.{modname}"]
                for name in names:
                    original = getattr(module, name)
                    wrapper = self._wrap(f"{modname}.{name}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                                restore.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(restore):
                setattr(m, attr, original)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            done = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[span_id] = Span(span_id, name, start, end, parent, self.op,
                                           _work(name, args, result) if done else {})
            if name == "fastpath.affine_expand":
                self._schedules.add((tuple(args[0]), args[1], args[2]))
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0].start_ns if self.spans else 0
        with open(path, "w") as fh:
            for s in self.spans:
                row = asdict(s)
                row["start_ns"] -= t0
                row["end_ns"] -= t0
                fh.write(json.dumps(row) + "\n")

    def metrics(self, op_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; ``op_seconds`` is the summed time of the timed calls."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        own_s = defaultdict(float)       # by span name
        own_s_w = defaultdict(float)     # by (layer, width)
        total_s = defaultdict(float)     # by span name, inclusive
        calls = defaultdict(int)         # by span name
        work = defaultdict(int)          # by (span name, work key)
        root_s = 0.0
        for s in self.spans:
            dur = (s.end_ns - s.start_ns) / 1e9
            own = dur - child_ns[s.id] / 1e9
            own_s[s.name] += own
            own_s_w[s.layer, self.op_widths[s.op]] += own
            total_s[s.name] += dur
            calls[s.name] += 1
            for key, value in s.work.items():
                work[s.name, key] += value
            if s.parent is None:
                root_s += dur
        self_s = {layer: sum(own_s[f"{layer}.{n}"] for n in names) for layer, names in ENTRY_POINTS.items()}

        def mean_us(name):
            return total_s[name] / calls[name] * 1e6 if calls[name] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        ts_blocks = work["tweakstream.encrypt_blocks", "blocks"] + work["tweakstream.decrypt_blocks", "blocks"]
        k_blocks, k_calls = work["_kernels.crypt_batch", "blocks"], calls["_kernels.crypt_batch"]
        c_bytes = work["container.encrypt_bytes", "bytes"] + work["container.decrypt_bytes", "bytes"]
        c_padded = work["container.encrypt_bytes", "padded"] + work["container.decrypt_bytes", "padded"]
        m = {
            "tweakstream.self_s": (self_s["tweakstream"], "s"),
            "tweakstream.ns_per_block": (ratio(self_s["tweakstream"] * 1e9, ts_blocks), "ns/block"),
            "kernels.self_s": (self_s["_kernels"], "s"),
            "kernels.ns_per_block": (ratio(self_s["_kernels"] * 1e9, k_blocks), "ns/block"),
            "kernels.blocks_per_call": (ratio(k_blocks, k_calls), "blocks"),
            "kernels.us_per_call": (ratio(self_s["_kernels"] * 1e6, k_calls), "us"),
            "fastpath.expand_us": (mean_us("fastpath.affine_expand"), "us"),
            "fastpath.invert_us": (mean_us("fastpath.invert_affine"), "us"),
            "fastpath.schedule_reuse": (ratio(len(self._schedules), calls["fastpath.affine_expand"]), "ratio"),
            "fastpath.batch_self_s": (own_s["fastpath.crypt_fast_batch"] + own_s["fastpath.icrypt_fast_batch"], "s"),
            "schedules.self_s": (self_s["schedules"], "s"),
            "container.self_s": (self_s["container"], "s"),
            "container.ns_per_byte": (ratio(self_s["container"] * 1e9, c_bytes), "ns/byte"),
            "container.pad_frac": (ratio(c_padded - c_bytes, c_padded), "ratio"),
            "trace.unattributed_frac": (ratio(op_seconds - root_s, op_seconds), "ratio"),
        }
        for layer, label in (("tweakstream", "tweakstream"), ("_kernels", "kernels")):
            for w in sorted(set(self.op_widths)):
                m[f"{label}.self_s.w{w}"] = (own_s_w[layer, w], "s")
        return m

