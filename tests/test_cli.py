"""Command line interface: commands, key handling, exit codes."""

import pytest

import nsabc.bench
import nsabc.kat
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
