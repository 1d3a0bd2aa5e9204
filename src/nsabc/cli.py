"""Command line front end.

    nsabc encrypt --width 16 --key HEX --tweak-key HEX --unit-key HEX
                  --in plain.bin --out cipher.nsabc
    nsabc decrypt --key HEX --tweak-key HEX --unit-key HEX
                  --in cipher.nsabc --out plain.bin
    nsabc kat [--width W]
    nsabc bench [--seconds S] [--width W]
    nsabc analyze {gbox-bijectivity,gbox-diffusion,gbox-identity,avalanche} [options]

Files are streamed a few tiles of blocks at a time, so memory does not grow
with their size; only an encrypt input that is not a regular file, such as a
pipe, is read whole.  An output that is a regular file, or a new one, is
written under a temporary name beside it and renamed into place, so a failed
run leaves an existing --out as it was.

Key material is given as high-first hex strings of exactly 5w (key), 4w
(tweak key) and w (unit key) bits, either via the flags or the environment
variables NSABC_KEY, NSABC_TWEAK_KEY and NSABC_UNIT_KEY.  Keys are never
written to any output.

Exit codes: 0 success, 2 usage error, 3 container format error, 4 I/O error,
5 verification failure (kat or analyze mismatch).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import stat
import string
import sys
import tempfile

from . import analysis, bench
from .container import ContainerFormatError, decrypt_stream, encrypt_stream, read_header
from .kat import KAT_VECTORS, render_trace, standard_trace, trace_matches_reference
from .schedules import KEY_WORDS
from .words import CIPHER_WIDTHS, split_words

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_IO = 4
EXIT_VERIFY = 5

_KEY_ENV = "NSABC_KEY"
_TWEAK_ENV = "NSABC_TWEAK_KEY"
_UNIT_ENV = "NSABC_UNIT_KEY"


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


def _parse_hex(text: str, bits: int, what: str) -> int:
    digits = bits // 4
    body = text[2:] if text[:2].lower() == "0x" else text
    if len(body) != digits:
        raise UsageError(f"{what} must be exactly {digits} hex digits ({bits} bits), got {len(body)}")
    # the value is key material, so the message never quotes it
    if any(c not in string.hexdigits for c in body):
        raise UsageError(f"{what} must contain only the hex digits 0-9 and a-f")
    return int(body, 16)


def _key_material(args, w: int):
    """Resolve (key words, wide tweak key, unit key) from flags or environment."""
    key_hex = args.key or os.environ.get(_KEY_ENV)
    tweak_hex = args.tweak_key or os.environ.get(_TWEAK_ENV)
    unit_hex = args.unit_key or os.environ.get(_UNIT_ENV)
    if not key_hex:
        raise UsageError(f"missing --key (or {_KEY_ENV})")
    if not tweak_hex:
        raise UsageError(f"missing --tweak-key (or {_TWEAK_ENV})")
    if not unit_hex:
        raise UsageError(f"missing --unit-key (or {_UNIT_ENV})")
    z = _parse_hex(key_hex, 5 * w, "--key")
    t0 = _parse_hex(tweak_hex, 4 * w, "--tweak-key")
    u = _parse_hex(unit_hex, w, "--unit-key")
    return split_words(z, KEY_WORDS, w), t0, u


def _open_input(path: str):
    """The file at path, opened for reading, and its size if it is a regular file:
    a pipe or a device has none until it is read."""
    try:
        fh = open(path, "rb")
    except OSError as ex:
        raise OSError(f"cannot read {path}: {ex}") from ex
    st = os.fstat(fh.fileno())
    return fh, st.st_size if stat.S_ISREG(st.st_mode) else None


def _write_output(path: str, write) -> None:
    """Fill the file at path with write(fh).

    A regular file, or a new one, is written under a temporary name beside it and
    renamed over it once write returns, so a failure leaves what was there, and
    --out may be --in; a pipe or a device is written directly and never removed.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    except OSError as ex:
        raise OSError(f"cannot write {path}: {ex}") from ex
    if st is not None and not stat.S_ISREG(st.st_mode):
        try:
            fh = open(path, "wb")
        except OSError as ex:
            raise OSError(f"cannot write {path}: {ex}") from ex
        with fh:
            write(fh)
        return
    if st is None:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask  # the mode a file opened for writing gets
    else:
        mode = stat.S_IMODE(st.st_mode)
    target = os.path.realpath(path)  # through a symlink, as opening it would
    try:
        fd, tmp = tempfile.mkstemp(prefix=".nsabc-", dir=os.path.dirname(target))
    except OSError as ex:
        raise OSError(f"cannot write {path}: {ex}") from ex
    try:
        with open(fd, "wb") as fh:
            os.fchmod(fh.fileno(), mode)
            write(fh)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def cmd_encrypt(args) -> int:
    w = args.width
    z, t0, u = _key_material(args, w)
    src, length = _open_input(args.infile)
    with src:
        if length is None:  # the header holds the length, so such an input is read whole
            data = src.read()
            src, length = io.BytesIO(data), len(data)
        _write_output(args.outfile, lambda dst: encrypt_stream(
            src, dst, length, z, t0, u, w, tweaking=not args.no_tweak))
    return EXIT_OK


def cmd_decrypt(args) -> int:
    src, size = _open_input(args.infile)
    with src:
        header = read_header(src, size)
        if args.width is not None and args.width != header.width:
            raise UsageError(f"--width {args.width} conflicts with container width {header.width}")
        z, t0, u = _key_material(args, header.width)
        _write_output(args.outfile, lambda dst: decrypt_stream(src, dst, header, z, t0, u))
    return EXIT_OK


def cmd_kat(args) -> int:
    w = args.width if args.width is not None else 16
    v = KAT_VECTORS[w]
    trace = standard_trace(w)
    print(f"width {w}: X={v['x']:0{w}X} Z={v['z']:0{w * 5 // 4}X} T={v['t']:0{w}X} U={v['u']:0{w // 4}X}")
    print(render_trace(trace))
    if w == 16:
        if not trace_matches_reference(trace):
            raise VerificationFailure("w=16 trace does not match the published reference table")
        print("verified: field-equal to the published w=16 reference trace")
    return EXIT_OK


def cmd_bench(args) -> int:
    widths = (args.width,) if args.width is not None else bench.DEFAULT_WIDTHS
    seconds = args.seconds if args.seconds is not None else 1.0
    try:
        report, _ = bench.run(widths, seconds, seed=args.seed or 0)
    except ValueError as ex:
        raise UsageError(str(ex)) from ex
    print(report)
    return EXIT_OK


def cmd_analyze(args) -> int:
    fn = analysis.SUBCOMMANDS[args.check]
    w = args.width if args.width is not None else 16
    kwargs = {"w": w, "seed": args.seed}
    if args.samples is not None:
        kwargs["samples"] = args.samples
    try:
        report = fn(**kwargs)
    except ValueError as ex:
        raise UsageError(str(ex)) from ex
    print(report.render())
    if not report.ok:
        raise VerificationFailure(f"analysis check {args.check} failed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nsabc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_key_flags(p):
        p.add_argument("--key", help=f"5w-bit key, high-first hex (or {_KEY_ENV})")
        p.add_argument("--tweak-key", help=f"4w-bit tweak key, high-first hex (or {_TWEAK_ENV})")
        p.add_argument("--unit-key", help=f"w-bit unit key, high-first hex (or {_UNIT_ENV})")

    enc = sub.add_parser("encrypt", help="encrypt a file into a container")
    enc.add_argument("--width", type=int, choices=CIPHER_WIDTHS, default=16)
    add_key_flags(enc)
    enc.add_argument("--no-tweak", action="store_true",
                     help="keep the tweak constant instead of deriving one per block")
    enc.add_argument("--in", dest="infile", required=True)
    enc.add_argument("--out", dest="outfile", required=True)
    enc.set_defaults(fn=cmd_encrypt)

    dec = sub.add_parser("decrypt", help="decrypt a container back to the original file")
    dec.add_argument("--width", type=int, choices=CIPHER_WIDTHS, default=None,
                     help="optional; must match the container header")
    add_key_flags(dec)
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", dest="outfile", required=True)
    dec.set_defaults(fn=cmd_decrypt)

    kat_p = sub.add_parser("kat", help="print the known-answer register trace")
    kat_p.add_argument("--width", type=int, choices=CIPHER_WIDTHS, default=None)
    kat_p.set_defaults(fn=cmd_kat)

    bench_p = sub.add_parser("bench", help="throughput of all paths, schedule set-up and tweak tile time")
    bench_p.add_argument("--width", type=int, choices=CIPHER_WIDTHS, default=None,
                         help="bench only this width (default: 32 and 64)")
    bench_p.add_argument("--seconds", type=float, default=None)
    bench_p.add_argument("--seed", type=int, default=None)
    bench_p.set_defaults(fn=cmd_bench)

    ana = sub.add_parser("analyze", help="structural property checks")
    ana.add_argument("check", choices=sorted(analysis.SUBCOMMANDS))
    ana.add_argument("--width", type=int, choices=CIPHER_WIDTHS, default=None)
    ana.add_argument("--samples", type=int, default=None)
    ana.add_argument("--seed", type=int, default=None)
    ana.set_defaults(fn=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except ContainerFormatError as ex:
        print(f"format error: {ex}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as ex:
        print(f"i/o error: {ex}", file=sys.stderr)
        return EXIT_IO
    except VerificationFailure as ex:
        print(f"verification failure: {ex}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
