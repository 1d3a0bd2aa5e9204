"""Tests of the benchmark itself: every workload at a tiny size through the
one command, and no generated key material in anything it prints or writes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
import workloads  # noqa: E402  (found through the path set just above)


def _command(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    return subprocess.run(cmd + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                                 "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


_runs: dict = {}


def run_tiny(workload: str, trace: int):
    """One tiny run per (workload, trace), shared by the tests of this module."""
    if (workload, trace) not in _runs:
        _runs[workload, trace] = _command(ROOT, workload, trace)
    return _runs[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_no_failures(workload, trace):
    proc = run_tiny(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_frac 0" in proc.stdout
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(line.split()[::2] == [m["name"], m["unit"]] for line in lines[:-1]), m["name"]


def _key_strings(workload: str, ops: int) -> set[str]:
    """Text forms of the key material the workload generated in ``ops`` ops.

    Each whole key, tweak key and single word is rendered in hex (both cases,
    bare and zero-padded) and in decimal.  Values under 48 bits are left out:
    ten digits turn up by chance among the span file's timestamps.  Short
    words are still covered inside their key's whole-key value.
    """
    wl = workloads.WORKLOADS[workload](SEED, tiny=True)
    key_sets = {(op.width, op.keys) for op in islice(wl.ops(), ops)}
    key_sets.update(getattr(wl, "keys", {}).items())
    forms = set()
    for w, ks in key_sets:
        whole_key = sum(z << (i * w) for i, z in enumerate(ks.key))
        for value, bits in [(whole_key, 5 * w), (ks.tweak_key, 4 * w), (ks.unit_key, w),
                            *((z, w) for z in ks.key)]:
            if value >= 1 << 48:
                for text in (f"{value:x}", f"{value:0{bits // 4}x}", str(value)):
                    forms.update((text, text.upper()))
    return forms


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_key_material_in_output_or_trace(workload):
    texts = []
    for trace in (0, 1):
        proc = run_tiny(workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        texts += [proc.stdout, proc.stderr]
        for line in proc.stdout.splitlines():
            if line.startswith("spans written to "):
                texts.append((ROOT / line.removeprefix("spans written to ")).read_text())
    assert len(texts) == 5  # two runs' stdout and stderr, one span file
    ops = max(json.loads(t.strip().splitlines()[-1])["attempted"] for t in texts[0:4:2])
    keys = _key_strings(workload, ops)
    assert keys
    for text in texts:
        leaked = [k for k in keys if k in text]
        assert not leaked, f"{len(leaked)} key strings leaked"


def test_fails_without_result_when_the_library_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
