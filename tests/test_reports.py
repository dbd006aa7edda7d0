"""Pinned report digests: the exact reports must not change by accident.

Each digest is the sha256 of one command's stdout.  A change that means
to alter one of these reports updates its digest here and says so in
CHANGES.md.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from flatbands.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "sample_graphs"
LIEB = str(SAMPLES / "lieb.json")
# eight vertical faces whose witnesses are three different orbits; its
# printed L(z) has the most empty and multi-term cells of the samples
FIVE_ORBITS = str(SAMPLES / "five_orbits.json")
# d = 3: two flat bands, and the polytope report skips the faces (d > 2)
LIEB3D = str(SAMPLES / "lieb3d.json")

PINNED = [
    (("--json", "verify-theorem", "--count", "200", "--seed", "42"), 0,
     "7f4375ebc52038409d045cb91ddc00b3433419eae3698381cbd6f9be22a1bac1"),
    (("analyze", LIEB), 10,
     "769dcb11522678dfe57d15fca870ceff615fcf309fbdc521375eb33c8a937427"),
    (("--json", "analyze", LIEB), 10,
     "a3687ceab8532406a6d22553a90203cdd4e1aa7034b12a750dea33fe4d4f30a6"),
    (("generic", LIEB, "--trials", "100"), 0,
     "d0597d53d59fabd00d47689eadb6407ce68678cfe4cef7a3b939170e869932fd"),
    (("--json", "polytope", LIEB), 0,
     "c4fc56232d8d6f45cdfa3e8f73abf515862d2c29592b0c61ee7e32f6e2eb1934"),
    (("analyze", FIVE_ORBITS), 10,
     "c803ba7240e9803917da64a976975d2468c6e0bae06a08b6f1f6f315d4ddec7a"),
    (("--json", "analyze", FIVE_ORBITS), 10,
     "cfdc425a012773ff413d39a3dea1089463886d276827ea84ae70b734cdc11109"),
    (("--json", "polytope", FIVE_ORBITS), 0,
     "4dbb7ca232b239f197c25f5ce58e61cbf84fe2531664d672243df85dce7c78c8"),
    (("analyze", LIEB3D), 10,
     "627bd0b75c562188981647ba1c743c8413913463f19cc0effc88ac54f0bea2d4"),
    (("--json", "polytope", LIEB3D), 0,
     "ecb26f514337821dadf002100577a93dd932cc792f12e14f589b6fca470f95d6"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED, ids=[
    "verify-theorem-json", "analyze-lieb-text", "analyze-lieb-json",
    "generic-lieb-100", "polytope-lieb-json", "analyze-five-orbits-text",
    "analyze-five-orbits-json", "polytope-five-orbits-json",
    "analyze-lieb3d-text", "polytope-lieb3d-json"])
def test_report_digest(argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
