"""Whole stdout of the six demos, each run in its own process.

Demo 01 prints the formula against the Richardson oracle along an n ladder
(hull_volume, richardson_volume), demo 02 torsion sign changes
(count_vertices), demo 03 covering multiplicities at chosen and random
probes (covering_histogram), demo 04 the sign classification of every
adjacent chord pair on a saddle loop (classify_pairs), demo 05 an OBJ export
and planar areas (save_obj, planar_area_integral) and demo 06 the support
patches of the gallery (support_polygons). Each demo's stdout must equal the
text below byte for byte.
Each demo runs with TMPDIR set to a fresh directory, which it must leave
empty: demo 05 writes its mesh into a temporary directory it removes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_01 = (
    "oracle volume (Richardson, 10k/5k-point hulls): 3.1415926536\n"
    "\n"
    " n      formula          rel gap\n"
    "  125  3.1366778425  1.564e-03\n"
    "  250  3.1401858098  4.478e-04\n"
    "  500  3.1412407613  1.120e-04\n"
    " 1000  3.1415046691  2.801e-05\n"
    " 2000  3.1415706568  7.002e-06\n"
    "\n"
    "the gap falls roughly like 1/n^2: doubling n buys a factor ~4\n"
    "the limit is exactly pi (3.1415926536): the hull is pinched between\n"
    "the parabolic sheets z = 1 - 2y^2 and z = 2x^2 - 1, whose gap\n"
    "integrates to pi over the unit disk\n"
    "self-estimate at n=1000: 2.639e-04 (true gap 8.798e-05)\n"
)

DEMO_02 = (
    "saddle       sign changes: 4   at t = 0.000 pi, 0.500 pi, 1.000 pi, 1.500 pi\n"
    "baseball     sign changes: 4   at t = 0.250 pi, 0.750 pi, 1.250 pi, 1.750 pi\n"
    "wobble:k=3   sign changes: 6   at t = 0.167 pi, 0.500 pi, 0.833 pi, 1.167 pi, "
    "1.500 pi, 1.833 pi\n"
    "wobble:k=5   sign changes: 10   at t = 0.100 pi, 0.300 pi, 0.500 pi, 0.700 pi, "
    "0.900 pi, 1.100 pi, 1.300 pi, 1.500 pi, 1.700 pi, 1.900 pi\n"
    "wobble:k=7   sign changes: 14   at t = 0.071 pi, 0.214 pi, 0.357 pi, 0.500 pi, "
    "0.643 pi, 0.786 pi, 0.929 pi, 1.071 pi, 1.214 pi, 1.357 pi, 1.500 pi, 1.643 pi, "
    "1.786 pi, 1.929 pi\n"
    "\n"
    "saddle zeros vs multiples of pi/2: True\n"
    "baseball max |tau| = 1.382, min kappa = 1.039\n"
    "\n"
    "ellipse: is_planar=True, max |tau| = 0.00e+00\n"
)

DEMO_03 = (
    "saddle, a few handpicked interior points:\n"
    "  [0, 0, 0]: multiplicity 4\n"
    "  [0.3, 0.1, 0.0]: multiplicity 4\n"
    "  [-0.2, 0.4, 0.1]: multiplicity 4\n"
    "  [0.0, 0.0, 0.6]: multiplicity 4\n"
    "\n"
    "50 random saddle probes: {4: 50}\n"
    "50 random wobble(3) probes: {0: 2, 4: 47, 8: 1}\n"
    "wobble(3) m=4 formula 4.2666 vs hull 4.6765 (off by 8.8%)\n"
)

DEMO_04 = (
    "n = 201: {'interior': 39006, 'boundary': 197, 'degenerate': 796}\n"
    "197 boundary triangles, worst centroid |signed distance| = 2.22e-16 "
    "(hull eps = 3.46e-09)\n"
    "interior spot check: 195 sampled interior centroids strictly inside\n"
)

DEMO_05 = (
    "baseball hull: 400 vertices, 796 facets, volume 2.858388\n"
    "wrote baseball_hull.obj: 1196 lines, first two:\n"
    "  v 1.1499999999999999 0 0\n"
    "  v 1.1497204034096506 0.0084865131640261739 0.021593857465914031\n"
    "baseball: 0 support patches\n"
    "wobble:k=3: 2 support patches\n"
    "\n"
    "unit square area: 1.000000000000000\n"
    "10k-gon circle area: 3.1415924469 (pi = 3.1415926536)\n"
    "rotated + shifted square area: 1.000000000000000\n"
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


def run_demo(script, tmp_path):
    """The demo's stdout; it runs with TMPDIR set to tmp_path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp_path)
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    assert list(tmp_path.iterdir()) == []
    return out


@pytest.mark.parametrize(
    "script, want",
    [
        ("01_volume_formula_vs_hull.py", DEMO_01),
        ("02_counting_torsion_zeros.py", DEMO_02),
        ("03_chord_covering_multiplicity.py", DEMO_03),
        ("04_sign_flips_find_the_hull.py", DEMO_04),
        ("05_meshes_and_planar_areas.py", DEMO_05),
        ("06_gallery_inequality_audit.py", DEMO_06),
    ],
    ids=["demo01", "demo02", "demo03", "demo04", "demo05", "demo06"],
)
def test_demo_stdout_is_unchanged(script, want, tmp_path):
    assert run_demo(script, tmp_path) == want
