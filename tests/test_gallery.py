import numpy as np
import pytest

from curvehull import (
    PlanarCurveError,
    count_vertices,
    frenet_profile,
    gallery,
    is_convex_curve,
    sample_uniform,
)
from curvehull.curves import require_nonplanar


def test_names_are_sorted_and_complete():
    assert gallery.names() == ["baseball", "ellipse", "saddle", "trefoil", "wobble"]


def test_spec_string_round_trip():
    entry = gallery.get("wobble:k=5")
    assert entry.params == {"k": 5}
    assert entry.spec_string == "wobble:k=5"
    assert gallery.get(entry.spec_string).params == entry.params


def test_parameter_parsing_and_defaults():
    base, params = gallery.parse_curve_spec("baseball")
    assert base == "baseball"
    assert params == {"a": 1.0, "b": 0.15, "c": 0.7}
    base, params = gallery.parse_curve_spec("baseball:b=0.2")
    assert params == {"a": 1.0, "b": 0.2, "c": 0.7}


def test_unknown_names_and_parameters_rejected():
    with pytest.raises(KeyError):
        gallery.get("moebius")
    with pytest.raises(KeyError):
        gallery.get("saddle:radius=2")
    with pytest.raises(KeyError):
        gallery.get("wobble:k")
    # values are checked, not coerced: an integer parameter takes no fraction,
    # and no parameter takes a non-finite value or a non-number
    for spec, key in [
        ("wobble:k=3.5", "wobble parameter k"),
        ("wobble:k=inf", "wobble parameter k"),
        ("wobble:k=nan", "wobble parameter k"),
        ("baseball:a=nan", "baseball parameter a"),
        ("baseball:c=-inf", "baseball parameter c"),
        ("ellipse:b=two", "ellipse parameter b"),
    ]:
        with pytest.raises(ValueError, match=key):
            gallery.get(spec)
    assert gallery.get("wobble:k=5.0").params == {"k": 5}


def test_wobble_frequency_must_be_odd():
    with pytest.raises(ValueError):
        gallery.get("wobble:k=4")
    with pytest.raises(ValueError):
        gallery.get("wobble:k=1")


def test_saddle_promises_hold():
    entry = gallery.get("saddle")
    assert entry.expected_vertex_count == 4
    rep = count_vertices(frenet_profile(entry.curve, 2000))
    assert rep.vertex_count == 4
    assert is_convex_curve(sample_uniform(entry.curve, 500)).is_convex


def test_baseball_default_promises_hold():
    # the one gallery entry whose behavior depends on tuned parameters:
    # this must fail loudly if the defaults ever drift
    entry = gallery.get("baseball")
    assert entry.expected_vertex_count == 4
    rep = count_vertices(frenet_profile(entry.curve, 2000))
    assert rep.vertex_count == 4
    assert not rep.is_planar
    assert is_convex_curve(sample_uniform(entry.curve, 500)).is_convex


def test_baseball_sign_change_count_is_stable_in_b():
    # the four torsion zeros sit at odd multiples of pi/4 and stay put over a
    # wide band of seam amplitudes, so the default is not a knife edge
    for b in (0.1, 0.15, 0.2):
        rep = count_vertices(
            frenet_profile(gallery.get(f"baseball:b={b}").curve, 4096)
        )
        assert rep.vertex_count == 4
        expected = np.pi * np.array([0.25, 0.75, 1.25, 1.75])
        assert np.allclose(sorted(rep.vertex_params), expected, atol=1e-3)


def test_wobble_promises_hold():
    entry = gallery.get("wobble:k=3")
    assert entry.expected_vertex_count == 6
    rep = count_vertices(frenet_profile(entry.curve, 2048))
    assert rep.vertex_count == 6


def test_ellipse_is_planar():
    entry = gallery.get("ellipse")
    assert entry.planar
    # is_convex_curve refuses every planar loop, so no convexity is claimed
    assert entry.expected_convex is None
    with pytest.raises(PlanarCurveError):
        is_convex_curve(sample_uniform(entry.curve, 100))
    sc = sample_uniform(entry.curve, 100)
    assert np.allclose(sc.points[:, 2], 0.0)


def test_off_default_baseballs_claim_only_what_holds():
    # c = 0 leaves a zero z term: the curve is planar and the gate refuses it
    flat = gallery.get("baseball:c=0")
    assert flat.planar
    with pytest.raises(PlanarCurveError):
        require_nonplanar(sample_uniform(flat.curve, 200))
    # off the defaults neither the vertex count nor convexity is claimed;
    # this one is convex, as the volume command's convexity gate finds
    other = gallery.get("baseball:b=0.3,c=0.4")
    assert (other.expected_vertex_count, other.expected_convex) == (None, None)
    assert is_convex_curve(sample_uniform(other.curve, 500)).is_convex


def test_trefoil_is_not_convex():
    entry = gallery.get("trefoil")
    assert not entry.expected_convex
    assert not is_convex_curve(sample_uniform(entry.curve, 500)).is_convex


def test_exact_derivatives_match_positions():
    # finite-difference cross-check of every shipped derivative callback
    h = 1e-6
    t = np.linspace(0.3, 5.9, 23)
    for name in gallery.names():
        curve = gallery.get(name).curve
        fd1 = (curve(t + h) - curve(t - h)) / (2 * h)
        assert np.allclose(curve.d1(t), fd1, atol=1e-5), name
        fd2 = (curve.d1(t + h) - curve.d1(t - h)) / (2 * h)
        assert np.allclose(curve.d2(t), fd2, atol=1e-4), name
        fd3 = (curve.d2(t + h) - curve.d2(t - h)) / (2 * h)
        assert np.allclose(curve.d3(t), fd3, atol=1e-3), name


def _same_bits(actual, expected):
    # array_equal takes -0.0 == 0.0, so compare the signs of zero too
    return np.array_equal(actual, expected) and np.array_equal(
        np.signbit(actual), np.signbit(expected)
    )


def test_trigonometric_derivative_rule_rounds_like_the_closed_forms():
    # each callback must give the bits of its closed form written out by hand:
    # k**m multiplied into the coefficient once, and no zero terms summed (a
    # summed 0*cos(t) turns -sin(0) = -0.0 into +0.0)
    t = np.concatenate([[0.0, -0.0], np.linspace(-7.0, 13.0, 20001)])
    sin, cos, zero = np.sin, np.cos, np.zeros_like
    a, b, k = 2.0, 1.0, 5

    def baseball(a, b, c):
        return [
            lambda t: [a * cos(t) + b * cos(3 * t), a * sin(t) - b * sin(3 * t), c * sin(2 * t)],
            lambda t: [
                -a * sin(t) - 3 * b * sin(3 * t),
                a * cos(t) - 3 * b * cos(3 * t),
                2 * c * cos(2 * t),
            ],
            lambda t: [
                -a * cos(t) - 9 * b * cos(3 * t),
                -a * sin(t) + 9 * b * sin(3 * t),
                -4 * c * sin(2 * t),
            ],
            lambda t: [
                a * sin(t) + 27 * b * sin(3 * t),
                -a * cos(t) + 27 * b * cos(3 * t),
                -8 * c * cos(2 * t),
            ],
        ]

    closed = {
        "saddle": [
            lambda t: [cos(t), sin(t), cos(2 * t)],
            lambda t: [-sin(t), cos(t), -2 * sin(2 * t)],
            lambda t: [-cos(t), -sin(t), -4 * cos(2 * t)],
            lambda t: [sin(t), -cos(t), 8 * sin(2 * t)],
        ],
        "baseball": baseball(1.0, 0.15, 0.7),
        "baseball:b=0.2": baseball(1.0, 0.2, 0.7),  # 3 * (3 * 0.2) != 9 * 0.2
        "ellipse": [  # a z axis with no terms is +0.0, never -0.0
            lambda t: [a * cos(t), b * sin(t), zero(t)],
            lambda t: [-a * sin(t), b * cos(t), zero(t)],
            lambda t: [-a * cos(t), -b * sin(t), zero(t)],
            lambda t: [a * sin(t), -b * cos(t), zero(t)],
        ],
        "wobble:k=5": [
            lambda t: [cos(t), sin(t), sin(k * t)],
            lambda t: [-sin(t), cos(t), k * cos(k * t)],
            lambda t: [-cos(t), -sin(t), -(k**2) * sin(k * t)],
            lambda t: [sin(t), -cos(t), -(k**3) * cos(k * t)],
        ],
        "trefoil": [
            lambda t: [
                0.5 * cos(t) + 2 * cos(2 * t) + 0.5 * cos(5 * t),
                -0.5 * sin(t) + 2 * sin(2 * t) + 0.5 * sin(5 * t),
                sin(3 * t),
            ],
            lambda t: [
                -0.5 * sin(t) - 4 * sin(2 * t) - 2.5 * sin(5 * t),
                -0.5 * cos(t) + 4 * cos(2 * t) + 2.5 * cos(5 * t),
                3 * cos(3 * t),
            ],
            lambda t: [
                -0.5 * cos(t) - 8 * cos(2 * t) - 12.5 * cos(5 * t),
                0.5 * sin(t) - 8 * sin(2 * t) - 12.5 * sin(5 * t),
                -9 * sin(3 * t),
            ],
            lambda t: [
                0.5 * sin(t) + 16 * sin(2 * t) + 62.5 * sin(5 * t),
                0.5 * cos(t) - 16 * cos(2 * t) - 62.5 * cos(5 * t),
                -27 * cos(3 * t),
            ],
        ],
    }
    assert {spec.partition(":")[0] for spec in closed} == set(gallery.names())
    for spec, forms in closed.items():
        curve = gallery.get(spec).curve
        for m, (callback, form) in enumerate(zip((curve, curve.d1, curve.d2, curve.d3), forms)):
            assert _same_bits(callback(t), np.stack(form(t), axis=-1)), (spec, m)
            assert _same_bits(callback(-0.0), np.stack(form(-0.0), axis=-1)), (spec, m)
