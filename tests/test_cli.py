"""Command line interface: commands, key handling, exit codes."""

import hashlib
import os
import random
import stat
import threading
import tracemalloc

import pytest

import nsabc.bench
import nsabc.container
import nsabc.kat
from nsabc import _kernels
from nsabc.cipher import int_to_block
from nsabc.cli import EXIT_FORMAT, EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from nsabc.fastpath import affine_expand, invert_affine

KEY16 = "88880777006600050000"
TWEAK16 = "0001002203334444"
UNIT16 = "1998"


def run(*argv):
    return main(list(argv))


def key_args():
    return ["--key", KEY16, "--tweak-key", TWEAK16, "--unit-key", UNIT16]


def test_encrypt_decrypt_roundtrip(tmp_path):
    src = tmp_path / "plain.bin"
    ct = tmp_path / "ct.nsabc"
    back = tmp_path / "back.bin"
    src.write_bytes(b"The quick brown fox jumps over the lazy dog")
    assert run("encrypt", "--width", "16", *key_args(), "--in", str(src), "--out", str(ct)) == EXIT_OK
    assert run("decrypt", *key_args(), "--in", str(ct), "--out", str(back)) == EXIT_OK
    assert back.read_bytes() == src.read_bytes()


def test_encrypt_published_vector_no_tweak(tmp_path):
    # one 4w-bit block at w=16 in little-endian octets
    src = tmp_path / "plain.bin"
    ct = tmp_path / "ct.nsabc"
    src.write_bytes(bytes.fromhex("EFCDAB8967452301"))
    assert run("encrypt", "--width", "16", *key_args(), "--no-tweak",
               "--in", str(src), "--out", str(ct)) == EXIT_OK
    body = ct.read_bytes()[24:]
    assert body == bytes.fromhex("1E92510F704EB188")


def test_keys_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("NSABC_KEY", KEY16)
    monkeypatch.setenv("NSABC_TWEAK_KEY", TWEAK16)
    monkeypatch.setenv("NSABC_UNIT_KEY", UNIT16)
    src = tmp_path / "p"
    src.write_bytes(b"12345")
    ct = tmp_path / "c"
    back = tmp_path / "b"
    assert run("encrypt", "--width", "16", "--in", str(src), "--out", str(ct)) == EXIT_OK
    assert run("decrypt", "--in", str(ct), "--out", str(back)) == EXIT_OK
    assert back.read_bytes() == b"12345"


def test_usage_errors(tmp_path, capsys):
    src = tmp_path / "p"
    src.write_bytes(b"x")
    out = tmp_path / "c"
    # one non-hex digit in an otherwise valid key: the error must not echo the key
    bad_key = KEY16[:-1] + "G"
    assert run("encrypt", "--width", "16", "--key", bad_key, "--tweak-key", TWEAK16,
               "--unit-key", UNIT16, "--in", str(src), "--out", str(out)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--key" in captured.err
    for start in range(len(bad_key) - 3):
        assert bad_key[start:start + 4] not in captured.out + captured.err
    # wrong hex length for the declared width
    assert run("encrypt", "--width", "16", "--key", "1234", "--tweak-key", TWEAK16,
               "--unit-key", UNIT16, "--in", str(src), "--out", str(out)) == EXIT_USAGE
    # non-hex digits
    assert run("encrypt", "--width", "16", "--key", "Z" * 20, "--tweak-key", TWEAK16,
               "--unit-key", UNIT16, "--in", str(src), "--out", str(out)) == EXIT_USAGE
    # missing key material entirely
    assert run("encrypt", "--width", "16", "--in", str(src), "--out", str(out)) == EXIT_USAGE
    # zero-duration benchmark
    assert run("bench", "--seconds", "0") == EXIT_USAGE
    # exhaustive analyze at an unsupported width
    assert run("analyze", "gbox-identity", "--width", "32") == EXIT_USAGE
    # an analysis with no samples would check nothing
    for check in ("gbox-bijectivity", "gbox-diffusion", "gbox-identity", "avalanche"):
        for samples in ("0", "-3"):
            assert run("analyze", check, "--samples", samples) == EXIT_USAGE
            assert "[PASS]" not in capsys.readouterr().out


def test_bench_refuses_non_finite_seconds(capsys):
    # a duration the timing loop can never reach
    for seconds in ("nan", "inf", "-inf"):
        assert run("bench", "--width", "16", f"--seconds={seconds}") == EXIT_USAGE
        assert "seconds" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("analyze", "not-a-check")
    assert exc.value.code == EXIT_USAGE


def test_format_errors(tmp_path):
    bad = tmp_path / "bad.nsabc"
    out = tmp_path / "out"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
    assert run("decrypt", *key_args(), "--in", str(bad), "--out", str(out)) == EXIT_FORMAT
    # rejected before any plaintext is written
    assert not out.exists()
    # valid header, truncated body
    src = tmp_path / "p"
    src.write_bytes(b"0123456789abcdef")
    ct = tmp_path / "ct"
    assert run("encrypt", "--width", "16", *key_args(), "--in", str(src), "--out", str(ct)) == EXIT_OK
    ct.write_bytes(ct.read_bytes()[:-3])
    assert run("decrypt", *key_args(), "--in", str(ct), "--out", str(out)) == EXIT_FORMAT


def test_file_round_trip_memory_does_not_grow_with_the_file(tmp_path):
    # the files are streamed a few tiles at a time through one chunk buffer: a round
    # trip of a 64 MiB file stays under 16 MiB traced, the kernel's workspaces included
    src, ct, back = tmp_path / "big.bin", tmp_path / "big.nsabc", tmp_path / "back.bin"
    seeded, digest = random.Random(64), hashlib.sha256()
    with open(src, "wb") as fh:
        for piece in map(seeded.randbytes, [1 << 20] * 64 + [5]):
            digest.update(piece)
            fh.write(piece)
    tracemalloc.start()
    try:
        assert run("encrypt", "--width", "16", *key_args(), "--in", str(src), "--out", str(ct)) == EXIT_OK
        assert run("decrypt", *key_args(), "--in", str(ct), "--out", str(back)) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak
    assert ct.stat().st_size == 24 + (64 << 20) + 8
    digest_back = hashlib.sha256()
    with open(back, "rb") as fh:
        for piece in iter(lambda: fh.read(1 << 20), b""):
            digest_back.update(piece)
    assert digest_back.digest() == digest.digest()


def test_in_and_out_may_be_one_file(tmp_path):
    # the output is written beside the input and renamed over it once the stream is
    # done, keeping the mode the file had
    src = tmp_path / "p"
    src.write_bytes(b"round trip in place")
    src.chmod(0o640)
    assert run("encrypt", "--width", "16", *key_args(), "--in", str(src), "--out", str(tmp_path / "." / "p")) \
        == EXIT_OK
    assert len(src.read_bytes()) == 24 + 24
    assert run("decrypt", *key_args(), "--in", str(src), "--out", str(src)) == EXIT_OK
    assert src.read_bytes() == b"round trip in place"
    assert stat.S_IMODE(src.stat().st_mode) == 0o640 and os.listdir(tmp_path) == ["p"]


def _through_fifo(path, data=None):
    """A thread that writes data into the FIFO at path, or with no data reads it
    into the list it returns; daemonic, so a run that never opens the FIFO cannot
    hold the test process."""
    got = []

    def move():
        if data is None:
            with open(path, "rb") as fh:
                got.append(fh.read())
        else:
            with open(path, "wb") as fh:
                fh.write(data)

    thread = threading.Thread(target=move, daemon=True)
    thread.start()
    return thread, got


def test_pipes_and_devices_are_read_and_written(tmp_path):
    # a pipe or a device has no size: encrypt reads it whole, decrypt streams it and
    # checks the body's length as it ends; an output pipe is written directly
    data = random.Random(7).randbytes(3000)
    src, ct, back, fifo = tmp_path / "p", tmp_path / "c", tmp_path / "b", tmp_path / "fifo"
    src.write_bytes(data)
    assert run("encrypt", "--width", "16", *key_args(), "--in", str(src), "--out", str(ct)) == EXIT_OK
    blob = ct.read_bytes()
    os.mkfifo(fifo)

    def through(data, *argv):
        thread, _ = _through_fifo(fifo, data)
        code = run(*argv, *key_args(), "--in", str(fifo), "--out", str(back))
        thread.join(10)
        assert not thread.is_alive()
        return code

    assert through(data, "encrypt", "--width", "16") == EXIT_OK and back.read_bytes() == blob
    assert through(blob, "decrypt") == EXIT_OK and back.read_bytes() == data
    for bad in (blob[:-1], blob + b"x", blob[:10]):
        assert through(bad, "decrypt") == EXIT_FORMAT and back.read_bytes() == data
    thread, got = _through_fifo(fifo)
    assert run("decrypt", *key_args(), "--in", str(ct), "--out", str(fifo)) == EXIT_OK
    thread.join(10)
    assert not thread.is_alive() and got == [data]
    assert run("encrypt", "--width", "16", *key_args(), "--in", os.devnull, "--out", str(back)) == EXIT_OK
    assert len(back.read_bytes()) == 24
    assert run("decrypt", *key_args(), "--in", os.devnull, "--out", str(back)) == EXIT_FORMAT
    assert sorted(os.listdir(tmp_path)) == ["b", "c", "fifo", "p"]


def test_failed_stream_leaves_the_output_as_it_was(tmp_path, monkeypatch):
    # a failure after the stream began, here an error in the 2nd chunk's decryption,
    # removes the temporary file: an existing output keeps its octets, a new one is
    # not made, and a pipe the output went into is left in place
    monkeypatch.setattr(_kernels, "TILE_BYTES", 32)
    src, ct, old, fifo = tmp_path / "p", tmp_path / "c", tmp_path / "old", tmp_path / "fifo"
    src.write_bytes(bytes(1000))
    assert run("encrypt", "--width", "16", *key_args(), "--in", str(src), "--out", str(ct)) == EXIT_OK
    old.write_bytes(b"previous output")
    os.mkfifo(fifo)
    calls = []
    decrypt_blocks = nsabc.container.decrypt_blocks

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:  # the key check, the 1st chunk, then the 2nd
            raise OSError("read error")
        return decrypt_blocks(*args, **kwargs)

    monkeypatch.setattr(nsabc.container, "decrypt_blocks", failing)
    for out in (old, tmp_path / "new", fifo):
        calls.clear()
        thread, got = _through_fifo(fifo) if out == fifo else (None, None)
        assert run("decrypt", *key_args(), "--in", str(ct), "--out", str(out)) == EXIT_IO
        assert len(calls) == 3
        if thread is not None:
            thread.join(10)
            assert not thread.is_alive() and len(got[0]) < 1000
    assert old.read_bytes() == b"previous output" and stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["c", "fifo", "old", "p"]


def test_width_conflict_is_usage_error(tmp_path):
    src = tmp_path / "p"
    src.write_bytes(b"abc")
    ct = tmp_path / "ct"
    out = tmp_path / "o"
    assert run("encrypt", "--width", "16", *key_args(), "--in", str(src), "--out", str(ct)) == EXIT_OK
    assert run("decrypt", "--width", "32", *key_args(), "--in", str(ct), "--out", str(out)) == EXIT_USAGE


def test_io_errors(tmp_path):
    assert run("encrypt", "--width", "16", *key_args(),
               "--in", str(tmp_path / "missing.bin"), "--out", str(tmp_path / "c")) == EXIT_IO
    src = tmp_path / "p"
    src.write_bytes(b"x")
    assert run("encrypt", "--width", "16", *key_args(), "--in", str(src),
               "--out", str(tmp_path / "no" / "such" / "dir" / "c")) == EXIT_IO


def test_kat_verifies(capsys):
    assert run("kat") == EXIT_OK
    out = capsys.readouterr().out
    assert "88B14E700F51921E" in out
    assert "verified" in out


def test_kat_other_width(capsys):
    assert run("kat", "--width", "32") == EXIT_OK
    out = capsys.readouterr().out
    assert "80C0B34B" in out  # leading word of the frozen w=32 vector


def test_kat_mismatch_exit_code(monkeypatch, capsys):
    doctored = nsabc.kat.REFERENCE_TRACE_16.replace("88B14E700F51921E", "0000000000000000")
    monkeypatch.setattr(nsabc.kat, "REFERENCE_TRACE_16", doctored)
    assert run("kat") == EXIT_VERIFY


def test_analyze_commands(capsys):
    assert run("analyze", "gbox-identity", "--samples", "2", "--seed", "1") == EXIT_OK
    assert "[PASS]" in capsys.readouterr().out
    assert run("analyze", "gbox-bijectivity", "--samples", "2", "--seed", "2") == EXIT_OK
    assert run("analyze", "gbox-diffusion", "--samples", "2", "--seed", "3") == EXIT_OK
    assert run("analyze", "avalanche", "--samples", "50", "--seed", "4") == EXIT_OK


def test_bench_quick(capsys):
    assert run("bench", "--width", "32", "--seconds", "0.05") == EXIT_OK
    out = capsys.readouterr().out
    assert "reference" in out
    assert "fast-batch" in out


def test_bench_reports_schedule_setup_without_key_material(capsys):
    # expansion and inversion get one line each per width; the seeded key they time
    # must not show up in those lines, in decimal or in hex
    assert run("bench", "--width", "32", "--seconds", "0.02", "--seed", "5") == EXIT_OK
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith(("affine_expand", "invert_affine"))]
    setup = [line.split() for line in lines]
    assert [row[:2] for row in setup] == [["affine_expand", "32"], ["invert_affine", "32"]]
    assert all(float(row[2]) > 0 for row in setup)
    _, z, _, u, _ = nsabc.bench._inputs(32, 0.02, 5)
    schedule = affine_expand(z, u, 32)
    for word in (*z, u, *schedule.m, *schedule.n, *invert_affine(schedule).m, *invert_affine(schedule).n):
        for digits in (str(word), f"{word:x}", f"{word:X}"):
            assert not any(digits in line for line in lines)


def test_bench_reports_tweak_tiles_without_key_material(capsys):
    # a first tile (limbs) and an advanced tile get one line each per width; the
    # seeded tweak key, its words and its step must not show up in the report
    assert run("bench", "--width", "32", "--seconds", "0.02", "--seed", "5") == EXIT_OK
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.startswith("tweak_")]
    assert [row[:2] for row in rows] == [["tweak_first_tile", "32"], ["tweak_advanced_tile", "32"]]
    assert all(float(row[2]) > 0 for row in rows)
    rng, z, _, u, _ = nsabc.bench._inputs(32, 0.02, 5)
    tweak_key = rng.randrange(1 << 128)
    step = (2 * tweak_key + 1) % (1 << 128)
    for value in (tweak_key, step, *int_to_block(tweak_key, 32), *int_to_block(step, 32), *z, u):
        for digits in (str(value), f"{value:x}", f"{value:X}"):
            assert digits not in out


@pytest.mark.parametrize("w", [16, 32, 64])
def test_bench_reports_tile_rounds_without_key_material(w, capsys):
    # one tile's encryption and decryption get one line each per width, in the
    # set-up section, so that the two directions can be compared; the seeded key
    # and unit key they run under must not show up in the report
    assert run("bench", "--width", str(w), "--seconds", "0.02", "--seed", "5") == EXIT_OK
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.startswith("tile_")]
    assert [row[:2] for row in rows] == [["tile_encrypt", str(w)], ["tile_decrypt", str(w)]]
    assert all(len(row) == 3 and float(row[2]) > 0 for row in rows)
    # whole fields: a short word's digits may well occur inside a timing
    _, z, _, u, _ = nsabc.bench._inputs(w, 0.02, 5)
    schedule = affine_expand(z, u, w)
    for word in (*z, u, *schedule.m, *schedule.n, *invert_affine(schedule).m, *invert_affine(schedule).n):
        for digits in (str(word), f"{word:x}", f"{word:X}"):
            assert not any(digits in row for row in rows)


def test_bench_reports_tiles_and_workers(capsys):
    # each width names its tile length and the threads a fast-batch call and a
    # 4 MiB call run on, and why: the usable CPUs and the tile count
    assert run("bench", "--width", "32", "--seconds", "0.02", "--seed", "5") == EXIT_OK
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("workers")]
    cpus = nsabc._kernels.usable_cpus()
    assert rows == [f"{'workers':<20}  32 tile 65536 blocks; fast-batch 1 (1 tile, inline); "
                    f"4 MiB {min(2, cpus)} (min(2, {cpus} usable CPUs, 4 tiles))"]
