import numpy as np
import pytest

from curvehull import build_hull, gallery, mesh_volume, sample_uniform

ORACLE_SAMPLES = 200_000

_acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_record():
    """Collector for one pass/fail line per acceptance criterion."""

    def record(line):
        _acceptance_lines.append(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def saddle_curve():
    return gallery.get("saddle").curve


@pytest.fixture(scope="session")
def saddle_2000(saddle_curve):
    return sample_uniform(saddle_curve, 2000)


@pytest.fixture(scope="session")
def saddle_oracle_volume(saddle_curve):
    """Dense quickhull volume of the saddle hull, the formula's ground truth."""
    dense = sample_uniform(saddle_curve, ORACLE_SAMPLES)
    return mesh_volume(build_hull(dense.points))


@pytest.fixture(scope="session")
def wobble3_curve():
    return gallery.get("wobble:k=3").curve


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


def lifted_flower_points() -> np.ndarray:
    """A five-lobed flower of 400 points lifted by 4e-9 in z: planar to
    planarity_check (deviation below 1e-9 of its length), though its
    deviation is above 1e-9 of its bounding-box diagonal, so build_hull
    alone would mesh it."""
    t = np.arange(400) * (2 * np.pi / 400)
    r = 1 + 0.3 * np.cos(5 * t)
    return np.stack([r * np.cos(t), r * np.sin(t), 4e-9 * np.sin(3 * t)], axis=1)


def lifted_circle_points() -> np.ndarray:
    """A 400-point unit circle with its first point lifted by 1e-8 in z: not
    planar to planarity_check (deviation 1.58e-9 of its length), though its
    smallest singular value is below 1e-9 of its largest."""
    t = np.arange(400) * (2 * np.pi / 400)
    pts = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    pts[0, 2] = 1e-8
    return pts


def buried_loop_points() -> np.ndarray:
    """r(t) = ((1 + 0.574 cos 2t) cos t, (1 + 0.574 cos 2t) sin t,
    0.581 sin(2t + 1.330)) at 1000 uniform t: V_{i,i+2} changes sign 4
    times, but 172 points are buried inside the hull, and the formula reads
    2.194359 against the hull's 2.131962."""
    t = np.arange(1000) * (2 * np.pi / 1000)
    r = 1 + 0.574 * np.cos(2 * t)
    return np.stack([r * np.cos(t), r * np.sin(t), 0.581 * np.sin(2 * t + 1.330)], axis=1)


def random_rotation(rng) -> np.ndarray:
    """A uniformly random proper rotation matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def triple_product(a, b, c):
    """Scalar triple product [a, b, c] = (a x b) . c, broadcasting over rows.

    A reference for the package's one V_ij route, the rank-6 factors of
    quadrature._tetra_factors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    r = np.einsum("...i,...i->...", np.cross(a, b), c)
    return float(r) if r.ndim == 0 else r


def signed_tetra_volume(curve, i: int, j: int) -> float:
    """Signed volume V_ij of the tetra on edge i, chord (i, j), and edge j:
    (1/6) [r_{i+1} - r_i, r_j - r_i, r_{j+1} - r_i]."""
    r = curve.points
    n = len(r)
    ri, ri1 = r[i % n], r[(i + 1) % n]
    rj, rj1 = r[j % n], r[(j + 1) % n]
    return triple_product(ri1 - ri, rj - ri, rj1 - ri) / 6.0
