"""Whole stdout of the demos that print probe histograms, pair labels and
support patches.

Demo 03 prints covering multiplicities at chosen and random probes
(covering_histogram), demo 04 the sign classification of every adjacent
chord pair on a saddle loop (classify_adjacent_pair) and demo 06 the support
patches of the gallery (support_polygons). Each runs in its own process; its
stdout must equal the text below byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_03 = (
    "saddle, a few handpicked interior points:\n"
    "  [0, 0, 0]: multiplicity 4\n"
    "  [0.3, 0.1, 0.0]: multiplicity 4\n"
    "  [-0.2, 0.4, 0.1]: multiplicity 4\n"
    "  [0.0, 0.0, 0.6]: multiplicity 4\n"
    "\n"
    "50 random saddle probes: {4: 50}\n"
    "50 random wobble(3) probes: {0: 5, 4: 44, 8: 1}\n"
    "wobble(3) m=4 formula 4.2666 vs hull 4.6765 (off by 8.8%)\n"
)

DEMO_04 = (
    "n = 201: {'interior': 39006, 'boundary': 197, 'degenerate': 796}\n"
    "197 boundary triangles, worst centroid |signed distance| = 2.22e-16 "
    "(hull eps = 3.46e-09)\n"
    "interior spot check: 195 sampled interior centroids strictly inside\n"
)

DEMO_06 = (
    "curve         V    P  slack  satisfied\n"
    "saddle        4    0      0  True\n"
    "baseball      4    0      0  True\n"
    "wobble:k=3    6    2      0  True\n"
    "wobble:k=5   10    2      4  True\n"
    "ellipse       planar: torsion never leaves zero, nothing to count\n"
    "trefoil       not convex: inequality preconditions fail\n"
    "\n"
    "wobble(3)'s patches are the planes z = +1 and z = -1, each resting on\n"
    "the three crests (or troughs) of sin 3t: V + 2K = 6 = 4 + P, no slack\n"
)


@pytest.mark.parametrize(
    "script, want",
    [
        ("03_chord_covering_multiplicity.py", DEMO_03),
        ("04_sign_flips_find_the_hull.py", DEMO_04),
        ("06_gallery_inequality_audit.py", DEMO_06),
    ],
    ids=["demo03", "demo04", "demo06"],
)
def test_demo_stdout_is_unchanged(script, want):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    assert out == want
