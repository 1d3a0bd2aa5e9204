"""The compiled set-up: schedule derivation and inversion and tweak columns from ``_native.c``.

A short call spends much of its time outside the 32 rounds: deriving the affine
schedule (``fastpath.affine_expand``), inverting it (``fastpath.invert_affine``)
and writing its tile's tweak words (``_kernels.tile_tweaks``).  ``_native.c``
does the three for w = 16, 32 and 64.  The first call of ``library()`` builds,
loads and checks it, once per process, under a lock, on the thread that calls:

- The library is compiled with the C compiler ``sysconfig`` names and ``FLAGS``
  into ``cache_dir()``, a per-user directory that must be owned by the user with
  mode 0700.  Its name is the SHA-256 of the source, the flags, the compiler
  command and the platform tag, so a library built by another source or
  compiler is never loaded, and a cache hit starts no process.  It is written
  under a temporary name and renamed into place.
- It is loaded with ``ctypes``, which releases the interpreter lock during each
  call, so two workers' tweak columns are made at once.
- Before first use it is checked against the numpy code on one key per width
  and one tweak tile whose carries cross all four words.

If any step fails, ``library()`` returns None, the callers run their numpy code,
and ``route()`` says why.  The route is picked by availability alone.  Nothing
derived from key material is kept or cached.
"""

from __future__ import annotations

import ctypes
import os
import stat
import struct
import threading
from pathlib import Path

import numpy as np

from .cipher import word_dtype
from .words import CIPHER_WIDTHS

try:  # the interpreter's own SHA-256: hashlib's loads OpenSSL, 3.4 MB more resident memory
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

SOURCE = Path(__file__).with_name("_native.c")
#: Generic code, no -march=native: the built library is cached and may be loaded on another CPU.
FLAGS = ("-O3", "-shared", "-fPIC")

_C_WORDS = {16: ctypes.c_uint16, 32: ctypes.c_uint32, 64: ctypes.c_uint64}
_KEY_FORMATS = {16: "<6H", 32: "<6I", 64: "<6Q"}  # the 5 key words and the unit key
_lock = threading.Lock()
_route = None  # (Native, cache directory) or (None, reason): set once, by the first ``library()``


def cache_dir() -> Path:
    """The per-user directory of built libraries: ``nsabc`` in ``$XDG_CACHE_HOME``, or in
    ``~/.cache`` where that is unset, empty or relative, as the XDG Base Directory spec asks."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "nsabc"


class Native:
    """The set-up routines of a loaded ``_native.c``, at each cipher width."""

    def __init__(self, lib: ctypes.CDLL):
        self._fns = {}
        for w, word in _C_WORDS.items():
            words = ctypes.POINTER(word)
            for name, args in (("expand", [words, ctypes.c_char_p]),
                               ("invert", [words, ctypes.c_char_p, ctypes.c_char_p]),
                               ("tweaks", [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t,
                                           ctypes.c_char_p, ctypes.c_char_p])):
                fn = getattr(lib, f"nsabc_{name}{w}")
                fn.argtypes, fn.restype = args, None
                self._fns[name, w] = fn

    def _schedule(self, name: str, w: int, *args) -> tuple[np.ndarray, np.ndarray]:
        """m and n as views of the 128 words the routine ``name`` writes into a fresh buffer."""
        out = (_C_WORDS[w] * 128)()
        self._fns[name, w](out, *args)
        mn = np.frombuffer(out, word_dtype(w))
        return mn[:64], mn[64:]

    def expand(self, key: tuple[int, ...], unit_key: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        """m and n of the affine schedule of a checked key and unit key."""
        return self._schedule("expand", w, struct.pack(_KEY_FORMATS[w], *key, unit_key))

    def invert(self, m: np.ndarray, n: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
        """m and n of the inverse of the affine schedule m, n: 64 words each, of the word dtype."""
        if not (m.dtype == n.dtype == word_dtype(w) and m.size == n.size == 64):
            raise ValueError("an affine schedule is 64 words m and 64 words n of the word dtype")
        return self._schedule("invert", w, m.tobytes(), n.tobytes())

    def tweaks(self, t: np.ndarray, first: int, step: int) -> None:
        """Write into t, 4 writable columns of the word dtype, each contiguous, the tweak words
        first + i*step mod 2**(4w) of its blocks i; first and step are in [0, 2**(4w))."""
        size = t.itemsize
        w = 8 * size
        if (w not in _C_WORDS or t.dtype != word_dtype(w) or t.ndim != 2 or t.shape[0] != 4
                or t.strides[1] != size or t.strides[0] < t.shape[1] * size or t.strides[0] % size
                or not t.flags.writeable):
            raise ValueError("tweak columns must be 4 writable rows of a word dtype, each contiguous")
        self._fns["tweaks", w](t.ctypes.data, t.strides[0] // size, t.shape[1],
                               first.to_bytes(w // 2, "little"), step.to_bytes(w // 2, "little"))


def library() -> Native | None:
    """The checked library, or None where the numpy set-up runs; built, loaded and checked by
    the first call."""
    global _route
    if _route is None:
        with _lock:
            if _route is None:
                _route = _load()
    return _route[0]


def route() -> str:
    """The set-up route in use: compiled, with the cache directory, or numpy, with the reason."""
    library()
    native, where = _route
    return f"compiled, cached in {where}" if native is not None else f"numpy, {where}"


class BuildError(Exception):
    """The compiler ran and failed, or timed out; the message is the route's reason."""


def _load() -> tuple[Native | None, str]:
    """(the checked library, its cache directory), or (None, why not)."""
    import sysconfig  # here, not at import: the first call pays for it, and only once

    cc = sysconfig.get_config_var("CC")
    if not cc:
        return None, "sysconfig names no C compiler"
    try:
        source = SOURCE.read_bytes()
        directory = cache_dir()
        path = directory / f"setup-{_digest(source, cc)}.so"
        _make_private(directory)
        if not path.exists():
            _build(cc, source, path)
        native = Native(ctypes.CDLL(str(path)))
    except BuildError as exc:
        return None, str(exc)
    except (OSError, RuntimeError, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    mismatch = _mismatch(native)
    if mismatch:
        return None, f"check failed: {mismatch} differ from numpy"
    return native, str(directory)


def _digest(source: bytes, cc: str) -> str:
    """SHA-256 of the source, the flags, the compiler command and the platform tag."""
    import sysconfig

    parts = (source, " ".join(FLAGS).encode(), cc.encode(), sysconfig.get_platform().encode())
    return sha256(b"\0".join(parts)).hexdigest()


def _make_private(directory: Path) -> None:
    """Make the directory if it is missing; raise PermissionError unless the user owns it with mode 0700."""
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = directory.stat()
    if st.st_uid != os.getuid() or stat.S_IMODE(st.st_mode) != 0o700:
        raise PermissionError(f"cache directory {directory} is not the user's own with mode 0700 "
                              f"(mode {stat.S_IMODE(st.st_mode):o})")


def _build(cc: str, source: bytes, path: Path) -> None:
    """Compile the source with the compiler command cc into path, through a temporary file
    renamed into place; raise BuildError if the compiler fails."""
    import contextlib  # a cache hit imports none of these and starts no process
    import shlex
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([*shlex.split(cc), *FLAGS, "-o", tmp, "-x", "c", "-"], input=source,
                       capture_output=True, check=True, timeout=300)
        os.replace(tmp, path)
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.decode(errors="replace").strip().splitlines()
        raise BuildError(f"compile failed: {lines[0] if lines else f'exit status {exc.returncode}'}") from None
    except subprocess.TimeoutExpired as exc:
        raise BuildError(f"compile timed out after {exc.timeout:g} s") from None
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _mismatch(native: Native) -> str | None:
    """What of the library differs from the numpy set-up, on one wrapping key per width and
    one tweak tile whose carries cross all four words and the wrap of 2**(4w); None if nothing."""
    from ._kernels import numpy_tile_tweaks  # they import this module
    from .fastpath import numpy_affine_expand, numpy_invert_affine

    for w in CIPHER_WIDTHS:
        top = (1 << w) - 1
        key, unit_key = (top, 0, 1, top >> 1, top - 2), top
        want = numpy_affine_expand(key, unit_key, w)
        m, n = native.expand(key, unit_key, w)
        if not (np.array_equal(m, want.arrays[0]) and np.array_equal(n, want.arrays[1])):
            return f"w={w} schedules"
        inverse = numpy_invert_affine(want)
        im, inn = native.invert(*want.arrays, w)
        if not (np.array_equal(im, inverse.arrays[0]) and np.array_equal(inn, inverse.arrays[1])):
            return f"w={w} inverse schedules"
        # step 2**(4w) - 1, the step of tweak key 2**(4w) - 1, carries across all four words at
        # each add, and from first 2000 the tile crosses 0 and wraps
        count, first, step = 3 * 1024 + 5, 2000, (1 << (4 * w)) - 1
        space = np.zeros((2, 6, count + 3), word_dtype(w))
        native.tweaks(space[0, 2:, :count], first, step)
        numpy_tile_tweaks(space[1, 2:, :count], space[1, :2, :count], first, step, 0, None)
        if not np.array_equal(space[0, 2:], space[1, 2:]):
            return f"w={w} tweak columns"
    return None
