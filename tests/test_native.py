"""The compiled set-up (``_native``): built, cached, loaded and checked once per process,
and bit-equal to the numpy set-up it falls back to."""

import os
import shlex
import stat
import subprocess
import sys
import sysconfig
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import random_tuple, real_cache_dir
from nsabc import _kernels, _native
from nsabc._kernels import crypt_batch, numpy_tile_tweaks, tile_blocks, tile_tweaks
from nsabc.cipher import int_to_block, word_dtype
from nsabc.fastpath import (
    AffineSchedule,
    affine_expand,
    crypt_fast_batch,
    icrypt_fast_batch,
    invert_affine,
    numpy_affine_expand,
)
from nsabc.tweakstream import decrypt_blocks, encrypt_blocks

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """An empty cache directory, and a route that the next call of ``library()`` loads afresh."""
    directory = tmp_path / "cache"
    monkeypatch.setattr(_native, "cache_dir", lambda: directory)
    monkeypatch.setattr(_native, "_route", None)
    return directory


def compiler(monkeypatch, command):
    """Make sysconfig name ``command`` as the C compiler."""
    config = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: command if name == "CC" else config(name))


def test_compiled_setup_is_in_use_where_sysconfig_names_a_compiler():
    # no code path may be one the suite only ever skips: where sysconfig names a C
    # compiler, the compiled set-up must be the one in use, and this fails otherwise
    route = _native.route()
    if sysconfig.get_config_var("CC"):
        assert _native.library() is not None, route
        assert route == f"compiled, cached in {_native.cache_dir()}"
    else:
        assert route == "numpy, sysconfig names no C compiler"


def tweak_cases(w, rng):
    """(first, step) pairs: carries across all four words, the step of tweak key 2**(4w) - 1,
    the wrap of 2**(4w), one tweak for all blocks, and random ones."""
    top = 1 << (4 * w)
    return [(top - 3, 1), (top - 1, top - 1), (5, top - 1), (top - (1 << w), 1 << (w - 1)),
            (rng.randrange(top), 0), (rng.randrange(top), rng.randrange(top)), (0, rng.randrange(top))]


@pytest.mark.parametrize("w", [16, 32, 64])
def test_compiled_tweak_columns_equal_numpy(w, rng):
    # into tweak columns laid out as a worker's (rows a workspace apart), from tiles of
    # 1 block to a full tile: the compiled columns equal numpy_tile_tweaks, the closed form
    # at their ends, and write nothing around them
    assert _native.library() is not None
    length = tile_blocks(w)
    dtype = word_dtype(w)
    top = 1 << (4 * w)
    for count in (1, 2, 255, 256, 257, 1023, 1024, 1025, 3 * 1024 + 5, length - 1, length):
        for first, step in tweak_cases(w, rng):
            start = rng.choice((0, rng.randrange(1 << 20), top - count // 2))
            space = np.full((2, 6, count + 3), 0x5A, dtype)
            tile_tweaks(space[0, 2:, :count], space[0, :2, :count], first, step, start, None)
            numpy_tile_tweaks(space[1, 2:, :count], space[1, :2, :count], first, step, start, None)
            assert np.array_equal(space[0, 2:], space[1, 2:]), (count, first, step)
            assert (space[0, :2] == 0x5A).all() and (space[0, 2:, count:] == 0x5A).all()
            for j in (0, count - 1):
                assert tuple(space[0, 2:, j].tolist()) == int_to_block((first + (start + j) * step) % top, w)


def test_tweak_columns_are_checked_before_the_library_writes(rng):
    # the compiled tweaks take columns of the word dtype, each row contiguous, rows apart
    # by at least a row, writable; anything else raises before a pointer is handed on
    native = _native.library()
    assert native is not None
    space = np.zeros((6, 40), word_dtype(32))
    read_only = space.copy()
    read_only.setflags(write=False)
    for bad in (space[2:, ::2], space[2:5], space.T[:4], read_only[2:],
                np.zeros((4, 10, 4), word_dtype(32)), space[2:].astype(np.int32)):
        with pytest.raises(ValueError):
            native.tweaks(bad, 1, 2)
    assert not space.any()


@pytest.mark.threads
@pytest.mark.parametrize("w", [16, 32, 64])
def test_compiled_tweak_columns_on_two_workers(w, rng, monkeypatch):
    # calls of 3 tiles and a short one on 2 workers, which make their compiled tweak
    # columns at once, each with the interpreter lock released, give the bits of the
    # numpy route on one worker, in both directions, across the wrap of 2**(4w)
    assert _native.library() is not None
    _, z, t, u = random_tuple(rng, w)
    t0 = rng.randrange(1 << (4 * w))
    first = (1 << (4 * w)) - tile_blocks(w) - 3
    xs = np.random.default_rng(w).integers(0, 1 << w, (3 * tile_blocks(w) + 77, 4), np.uint64).astype(word_dtype(w))
    s = affine_expand(z, u, w)
    calls = [lambda: encrypt_blocks(xs, z, t0, u, w, first_index=first),
             lambda: decrypt_blocks(xs, z, t0, u, w, first_index=first),
             lambda: crypt_fast_batch(xs, t, s), lambda: icrypt_fast_batch(xs, t, invert_affine(s))]
    monkeypatch.setattr(_kernels, "usable_cpus", lambda: 2)
    compiled = [call() for call in calls]
    monkeypatch.setattr(_native, "_route", (None, "forced for the test"))
    monkeypatch.setattr(_kernels, "usable_cpus", lambda: 1)
    for call, got in zip(calls, compiled):
        assert np.array_equal(call(), got)


def test_forced_fallback_gives_the_same_bits_and_names_its_reason(rng, monkeypatch, tmp_path):
    # a compiler that cannot be run, or that fails, leaves the numpy set-up in use, which
    # gives the compiled route's schedules and ciphertexts, and the route names the reason
    w = 64
    _, z, t, u = random_tuple(rng, w)
    xs = np.random.default_rng(1).integers(0, 1 << w, (tile_blocks(w) + 5, 4), np.uint64)
    t0 = rng.randrange(1 << (4 * w))

    def outputs():
        s = affine_expand(z, u, w)
        inv = invert_affine(s)
        return [s, inv, encrypt_blocks(xs, z, t0, u, w, first_index=9), decrypt_blocks(xs, z, t0, u, w),
                crypt_fast_batch(xs, t, s)]

    assert _native.library() is not None
    compiled = outputs()
    empty = tmp_path / "cache"
    monkeypatch.setattr(_native, "cache_dir", lambda: empty)
    failing = tmp_path / "failing-cc"
    failing.write_text("#!/bin/sh\necho 'cc: error: no compiler here' >&2\nexit 1\n")
    failing.chmod(0o700)
    for command, reason in ((str(tmp_path / "no-such-cc"), "FileNotFoundError"),
                            (str(failing), "compile failed: cc: error: no compiler here")):
        monkeypatch.setattr(_native, "_route", None)
        compiler(monkeypatch, command)
        assert _native.library() is None
        route = _native.route()
        assert route.startswith(f"numpy, {reason}") and (command in route or "compile failed" in route)
        fallback = outputs()
        for got, want in zip(fallback, compiled):
            assert (got == want) if isinstance(got, AffineSchedule) else np.array_equal(got, want)
    assert list(empty.iterdir()) == []  # no library and no temporary file is left


def test_a_failed_check_falls_back(rng, monkeypatch, fresh):
    # a library whose set-up differs from numpy is never used, and the route says what differed
    def wrong(self, key, unit_key, w):
        m, n = real(self, key, unit_key, w)
        return m, n ^ 1

    real = _native.Native.expand
    monkeypatch.setattr(_native.Native, "expand", wrong)
    assert _native.library() is None
    assert _native.route() == "numpy, check failed: w=16 schedules differ from numpy"
    _, z, _, u = random_tuple(rng, 16)
    assert affine_expand(z, u, 16) == numpy_affine_expand(z, u, 16)


@pytest.mark.parametrize("routine, what", [("invert", "inverse schedules"), ("tweaks", "tweak columns")],
                         ids=["invert", "tweaks"])
def test_a_failed_check_names_what_differed(routine, what, monkeypatch, fresh):
    # the check compares the inverse schedules and the tweak columns too, and names which differed
    real = getattr(_native.Native, routine)

    def wrong(self, *args):
        got = real(self, *args)
        if routine == "tweaks":
            args[0][0, -1] ^= 1
            return got
        m, n = got
        return m, n ^ 1

    monkeypatch.setattr(_native.Native, routine, wrong)
    assert _native.library() is None
    assert _native.route() == f"numpy, check failed: w=16 {what} differ from numpy"


@pytest.mark.parametrize("named", [None, ""], ids=["none", "empty"])
def test_no_compiler_named_falls_back(named, monkeypatch, fresh):
    compiler(monkeypatch, named)
    assert _native.library() is None
    assert _native.route() == "numpy, sysconfig names no C compiler"
    assert not fresh.exists()


def test_a_compile_that_times_out_falls_back(monkeypatch, fresh):
    # a compiler that hangs is given up after its timeout, and leaves no temporary file
    def hang(args, **kwargs):
        raise subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", hang)
    assert _native.library() is None
    assert _native.route() == "numpy, compile timed out after 300 s"
    assert list(fresh.iterdir()) == []


def test_invert_refuses_what_is_not_a_schedule_of_the_word_dtype(rng):
    # the compiled inversion reads 64 words of each array as packed words of the width:
    # another dtype or size raises before any buffer is handed on
    native = _native.library()
    assert native is not None
    _, z, _, u = random_tuple(rng, 32)
    m, n = affine_expand(z, u, 32).arrays
    for bad_m, bad_n in ((m.astype(np.uint64), n.astype(np.uint64)), (m, n.astype(np.int32)),
                         (m[:63], n[:63]), (m, np.concatenate([n, n[:1]]))):
        with pytest.raises(ValueError):
            native.invert(bad_m, bad_n, 32)
    with pytest.raises(ValueError):
        native.invert(m, n, 64)


def test_cache_dir_ignores_an_unset_empty_or_relative_xdg_cache_home(monkeypatch, tmp_path):
    # as the XDG Base Directory spec asks: a relative XDG_CACHE_HOME would put the library
    # under whatever directory the process runs in
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.chdir(tmp_path)
    default = tmp_path / "home" / ".cache" / "nsabc"
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    assert real_cache_dir() == default
    for value in ("", "relcache", "./relcache"):
        monkeypatch.setenv("XDG_CACHE_HOME", value)
        assert real_cache_dir() == default
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert real_cache_dir() == tmp_path / "xdg" / "nsabc"
    # loaded through it, the library goes under the home directory, and nothing under the working one
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    monkeypatch.setattr(_native, "cache_dir", real_cache_dir)
    monkeypatch.setattr(_native, "_route", None)
    if sysconfig.get_config_var("CC"):
        assert _native.route() == f"compiled, cached in {default}"
    else:
        assert _native.route() == "numpy, sysconfig names no C compiler"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["home"]


def test_the_source_has_no_undefined_behaviour_under_the_sanitizer(tmp_path):
    # built with every warning an error and -fsanitize=undefined, aborting on the first
    # undefined operation, the library passes the loader's check in a child interpreter;
    # a product of two uint16_t words, promoted to signed int, would overflow it
    cc = sysconfig.get_config_var("CC")
    if not cc:
        assert _native.route() == "numpy, sysconfig names no C compiler"
        return
    path = tmp_path / "ubsan.so"
    flags = [*_native.FLAGS, "-Wall", "-Wextra", "-Werror", "-fsanitize=undefined", "-fno-sanitize-recover=all"]
    build = subprocess.run([*shlex.split(cc), *flags, "-o", str(path), str(_native.SOURCE)],
                           capture_output=True, text=True, timeout=300)
    assert build.returncode == 0, build.stderr
    code = ("import ctypes, sys; from nsabc import _native; "
            f"sys.exit(_native._mismatch(_native.Native(ctypes.CDLL({str(path)!r}))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr


def test_build_is_cached_and_a_cache_hit_starts_no_process(monkeypatch, fresh):
    # the first load compiles with -O3 -shared -fPIC and no -march=native into the private
    # cache directory, under a name made of the SHA-256 hex digest, through a temporary
    # file renamed into place; a second process state loads it without starting any process
    commands = []
    run = subprocess.run

    def recording(args, **kwargs):
        commands.append(args)
        return run(args, **kwargs)

    monkeypatch.setattr(subprocess, "run", recording)
    assert _native.library() is not None
    assert len(commands) == 1
    assert [flag for flag in commands[0] if flag.startswith(("-O", "-shared", "-fPIC", "-march"))] == \
        ["-O3", "-shared", "-fPIC"]
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o700
    (built,) = fresh.iterdir()
    assert built.name.startswith("setup-") and built.suffix == ".so" and len(built.stem) == len("setup-") + 64

    def no_process(*args, **kwargs):
        raise AssertionError("a cache hit started a process")

    monkeypatch.setattr(_native, "_route", None)
    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    assert _native.library() is not None
    assert list(fresh.iterdir()) == [built]


def test_cache_key_covers_source_flags_compiler_and_platform(monkeypatch):
    source, cc = _native.SOURCE.read_bytes(), sysconfig.get_config_var("CC") or "cc"
    key = _native._digest(source, cc)
    assert len(key) == 64 and int(key, 16) >= 0
    others = {_native._digest(source + b"\n", cc), _native._digest(source, cc + " -m64")}
    monkeypatch.setattr(_native, "FLAGS", (*_native.FLAGS, "-g"))
    others.add(_native._digest(source, cc))
    monkeypatch.undo()
    monkeypatch.setattr(sysconfig, "get_platform", lambda: "another-platform")
    others.add(_native._digest(source, cc))
    assert len(others) == 4 and key not in others


def test_a_cache_directory_that_is_not_private_is_not_used(fresh):
    # a directory others may read or write could hold a library someone else put there
    fresh.mkdir(mode=0o755)
    fresh.chmod(0o755)
    assert _native.library() is None
    assert "is not the user's own with mode 0700 (mode 755)" in _native.route()
    assert list(fresh.iterdir()) == []


@pytest.mark.threads
def test_loads_once_under_a_lock(monkeypatch, fresh):
    # threads asking for the library at once get the one loaded by one of them, once
    loads = []
    load = _native._load

    def counted():
        loads.append(threading.get_ident())
        return load()

    monkeypatch.setattr(_native, "_load", counted)
    barrier = threading.Barrier(4, timeout=60)
    got = []

    def ask():
        barrier.wait()
        got.append(_native.library())

    threads = [threading.Thread(target=ask) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert len(loads) == 1 and len(got) == 4 and got[0] is not None and all(g is got[0] for g in got)


@pytest.mark.threads
def test_batch_loads_on_the_calling_thread_before_any_helper_starts(rng, monkeypatch, fresh):
    # a call of 2 or more tiles loads the library, if no call did before, on the thread
    # that called, before it starts a helper
    w = 64
    _, z, t, u = random_tuple(rng, w)
    s = affine_expand(z, u, w)
    monkeypatch.setattr(_native, "_route", None)
    monkeypatch.setattr(_kernels, "usable_cpus", lambda: 2)
    events = []
    load = _native._load
    monkeypatch.setattr(_native, "_load", lambda: events.append(("load", threading.get_ident())) or load())

    class Recorded(threading.Thread):
        def start(self):
            events.append(("start", threading.get_ident()))
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    xs = np.zeros((2 * tile_blocks(w), 4), word_dtype(w))
    crypt_batch(xs, 1, 2, s)
    assert events == [("load", threading.get_ident()), ("start", threading.get_ident())]


def test_import_loads_nothing():
    # importing nsabc builds, loads and reads nothing of the compiled set-up
    code = "import nsabc, nsabc._native as n; print(n._route)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None"


def test_the_source_is_package_data():
    # the built library is compiled from the .c file beside the module, which the package ships
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert _native.SOURCE.parent == Path(_native.__file__).parent and _native.SOURCE.is_file()
    assert 'nsabc = ["_native.c"]' in pyproject
