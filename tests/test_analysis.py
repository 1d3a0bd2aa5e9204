"""Structural analysis checks."""

import hashlib
import tracemalloc

import pytest

from nsabc.analysis import (
    SUBCOMMANDS,
    avalanche,
    gbox_bijectivity,
    gbox_diffusion,
    gbox_identity,
)


def test_bijectivity_passes():
    report = gbox_bijectivity(16, samples=3, seed=11)
    assert report.ok
    assert len(report.lines) == 3


def test_diffusion_passes():
    report = gbox_diffusion(16, samples=3, seed=12)
    assert report.ok


def test_identity_passes():
    report = gbox_identity(16, samples=3, seed=13)
    assert report.ok


def test_exhaustive_checks_require_w16():
    for fn in (gbox_bijectivity, gbox_diffusion, gbox_identity):
        with pytest.raises(ValueError):
            fn(32, samples=1, seed=0)


def test_avalanche_small_sample():
    report = avalanche(16, samples=150, seed=7)
    assert report.ok  # below the flagging threshold nothing is flagged
    mean_line = next(ln for ln in report.lines if ln.startswith("flip probability"))
    mean = float(mean_line.split("mean=")[1].split()[0])
    assert 0.47 < mean < 0.53


def test_avalanche_rejects_nonpositive_samples():
    with pytest.raises(ValueError):
        avalanche(16, samples=0)


def test_report_rendering():
    report = gbox_identity(16, samples=1, seed=1)
    text = report.render()
    assert text.startswith("[PASS]")
    assert "w=16" in text


def test_subcommand_registry():
    assert set(SUBCOMMANDS) == {"gbox-bijectivity", "gbox-diffusion", "gbox-identity", "avalanche"}


# SHA-256 of rendered reports at fixed seeds, pinned so that a change of the
# arrays' dtype or of the order of the random draws shows
PINNED_REPORTS = {
    ("gbox-bijectivity", 16, 4, 1): "180cc0450cf4abc6ba29cb8bec6398fa8e92ee60a5b2e7caf96668941f11c611",
    ("gbox-diffusion", 16, 4, 2): "50093cc97746ab0847ebd24e076c0e495b18780b8dfc2a2f0b9ef765640b7900",
    ("gbox-identity", 16, 4, 3): "5c70abaad3c9690acc6b6647c5a3c11d01f629c59f3aa4649532982c512eb990",
    ("avalanche", 16, 300, 5): "323e77701d46ada477ee1d050dd6cff3702762227dd970167859ba4a9b8e9711",
    ("avalanche", 32, 300, 5): "9b1f1b27d0d1cb30857afa1ce300219b84f11dad4b939047457be2db4df78f66",
    ("avalanche", 64, 300, 5): "5d1d500d28b5c8011ca559596588b13f9a7dba9a5c3ce48c8d87f2ec4c411968",
}


@pytest.mark.parametrize("check, w, samples, seed", PINNED_REPORTS)
def test_pinned_report_digests(check, w, samples, seed):
    text = SUBCOMMANDS[check](w, samples=samples, seed=seed).render()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[check, w, samples, seed]


def test_avalanche_memory_does_not_grow_with_samples():
    # each sample folds into the (4w, 4w) flip counts as it is made, so the traced
    # peak at w=64 does not grow from 200 samples to 1000, where holding every
    # sample's diff would take 8 KiB more each; the slack is for CPython's free
    # lists of small objects, which tracemalloc counts as they fill, about 160 KiB
    peaks = []
    for samples in (200, 1000):
        tracemalloc.start()
        try:
            avalanche(64, samples=samples, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + (512 << 10), peaks
