"""The vertex gate: sign changes of the kernel's band V_{i,i+2}, read at the
stride where they settle (quadrature.discrete_vertex_report)."""

import io

import numpy as np
import pytest
from conftest import triple_product
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from curvehull import (
    AnalyticCurve,
    SampledCurve,
    VertexCountError,
    build_hull,
    count_vertices,
    frenet_profile,
    gallery,
    hull_volume,
    is_convex_curve,
    mesh_volume,
    sample_uniform,
)
from curvehull.gallery import _fourier
from curvehull.quadrature import discrete_vertex_report

EXPECTED = {"saddle": 4, "baseball": 4, "wobble:k=3": 6}
_SAMPLES = {}


def samples(name, n):
    if (name, n) not in _SAMPLES:
        _SAMPLES[name, n] = sample_uniform(gallery.get(name).curve, n)
    return _SAMPLES[name, n]


def direct_report(points) -> tuple:
    """The gate's stride rule on the direct bracket
    [r_{i+1} - r_i, r_{i+2} - r_i, r_{i+3} - r_i], exact zeros dropped."""

    def count(p):
        r = [np.roll(p, -s, axis=0) for s in range(4)]
        sign = np.sign(triple_product(r[1] - r[0], r[2] - r[0], r[3] - r[0]))
        sign = sign[sign != 0]
        return int(np.count_nonzero(sign != np.roll(sign, 1)))

    counts, k = [count(points)], 1
    while len(points[:: 2 * k]) >= 16:
        counts.append(count(points[:: 2 * k]))
        if counts[-1] == counts[-2]:
            return counts[-2], k, counts[-1]
        k *= 2
    return counts[0], 1, counts[1] if len(counts) > 1 else None


def as_tuple(report) -> tuple:
    return report.vertex_count, report.stride, report.count_at_double_stride


@given(
    name=st.sampled_from(sorted(EXPECTED)),
    n=st.integers(12, 64),
    sigma=st.sampled_from([0.02, 0.05, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_formula_is_the_polygon_hull_exactly_when_the_band_changes_sign_four_times(
    name, n, sigma, seed
):
    # the discrete form of the paper's theorem, on polygons in convex
    # position: every point a hull vertex and every edge a hull edge. The
    # noise is sigma times the squared mean edge length, the scale of a
    # vertex's distance from its neighbours' chord, so that draws of 64
    # points still often stay in convex position
    base = samples(name, n)
    noise = np.random.default_rng(seed).standard_normal((n, 3))
    points = base.points + sigma * (base.total_length / n) ** 2 * noise
    mesh = build_hull(points)
    edges = {frozenset((f[a], f[a - 1])) for f in mesh.facets.tolist() for a in range(3)}
    assume(mesh.n_vertices == n and len(mesh.buried) == 0)
    assume(all(frozenset((i, (i + 1) % n)) in edges for i in range(n)))
    loop = SampledCurve.from_points(points)
    hull = mesh_volume(mesh)
    exact = abs(hull_volume(loop, force=True).volume - hull) <= 1e-12 * hull
    report = discrete_vertex_report(loop)
    event("exact" if exact else "not exact")
    assert exact == (report.vertex_count == 4 and report.stride == 1), as_tuple(report)


@given(
    name=st.sampled_from(sorted(EXPECTED)),
    kind=st.sampled_from(["clean", "round6", "round5", "jitter1e-7", "jitter1e-6"]),
    uneven=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rounded_jittered_and_uneven_files_read_the_curve_count(name, kind, uneven, seed):
    # 2000 samples shifted by a seeded offset, so the rounding differs per
    # draw, then written as a file would be, and perhaps 1500 of them kept
    rng = np.random.default_rng(seed)
    points = samples(name, 2000).points + rng.uniform(-1.0, 1.0, 3)
    fmt = "%.17g"
    if kind.startswith("round"):
        fmt = f"%.{kind[-1]}f"
    elif kind.startswith("jitter"):
        points = points + rng.normal(scale=float(kind[len("jitter"):]), size=points.shape)
    text = io.StringIO()
    np.savetxt(text, points, fmt=fmt)
    points = np.loadtxt(io.StringIO(text.getvalue()))
    if uneven:
        points = points[np.sort(rng.choice(2000, 1500, replace=False))]
    report = discrete_vertex_report(SampledCurve.from_points(points))
    assert report.vertex_count == EXPECTED[name], as_tuple(report)
    assert report.count_at_double_stride == report.vertex_count
    # rounding decides the exact zeros, and the kernel's factors drop the
    # same ones as the direct bracket
    assert as_tuple(report) == direct_report(points)


@pytest.mark.parametrize("name", sorted(EXPECTED))
@pytest.mark.parametrize("n", [16, 50, 300, 2000])
def test_exact_gallery_samples_settle_at_stride_one(name, n):
    report = discrete_vertex_report(samples(name, n))
    assert as_tuple(report) == (EXPECTED[name], 1, EXPECTED[name] if n >= 32 else None)


def _family(e, c, phi) -> AnalyticCurve:
    """((1 + e cos 2t) cos t, (1 + e cos 2t) sin t, c sin(2t + phi) + 0.2 c sin 3t)."""
    return _fourier(
        "family",
        [(1, 1 + e / 2, 0), (3, e / 2, 0)],
        [(1, 0, 1 - e / 2), (3, 0, e / 2)],
        [(2, c * np.sin(phi), c * np.cos(phi)), (3, 0, 0.2 * c)],
    )


@pytest.mark.parametrize(
    "e, c, phi, torsion, ns, miss",
    [
        (0.168, 0.640, 6.162, 6, (250, 1000), 1e-5),
        (0.188, 0.519, 3.624, 6, (250, 1000), 1e-5),
        (0.598, 0.470, 1.614, 8, (250, 1000), 1e-5),
        # 40 points read 6 at stride 1 and 4 at stride 2, and 10 are too few
        # to confirm either: with no plateau the loop's own 6 is the count
        (0.015, 0.771, 5.775, 6, (40,), 1e-6),
    ],
)
def test_convex_curves_with_six_or_eight_torsion_sign_changes_are_refused(
    e, c, phi, torsion, ns, miss
):
    # the bracket reads the torsion count, so the gate refuses loops on
    # which the forced formula misses the hull of the samples
    curve = _family(e, c, phi)
    assert count_vertices(frenet_profile(curve, 8192)).vertex_count == torsion
    for n in ns:
        loop = sample_uniform(curve, n)
        convexity = is_convex_curve(loop)
        assert convexity.is_convex
        with pytest.raises(VertexCountError) as info:
            hull_volume(loop)
        assert info.value.details["vertex_count"] == torsion
        hull = mesh_volume(convexity.hull)
        assert abs(hull_volume(loop, force=True).volume - hull) > miss * hull
