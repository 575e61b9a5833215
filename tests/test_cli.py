import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import buried_loop_points, lifted_circle_points, lifted_flower_points
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import write_inputs

import curvehull
import curvehull.cli as cli
from curvehull.cli import load_polyline, main
from curvehull.hull import facet_census

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def cli_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out)


def write_polyline(path, points, header=None):
    lines = [] if header is None else [header]
    lines += [f"{x} {y} {z}" for x, y, z in points]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def cube_file(tmp_path):
    pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    return write_polyline(tmp_path / "cube.txt", pts, header="# unit cube corners")


@pytest.fixture()
def square_file(tmp_path):
    return write_polyline(
        tmp_path / "square.txt", [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    )


def saddle_file(tmp_path, n):
    """The saddle (cos t, sin t, cos 2t) at n uniform parameter values."""
    t = np.arange(n) * (2 * np.pi / n)
    pts = np.stack([np.cos(t), np.sin(t), np.cos(2 * t)], axis=1)
    return write_polyline(tmp_path / f"saddle{n}.txt", pts)


# ---------------------------------------------------------------- volume


def test_volume_verified_run(saddle_oracle_volume, capsys):
    code, rep = cli_json(capsys, "volume", "saddle", "--n", "500", "--verify")
    assert code == 0
    assert rep["schema"] == 6
    assert rep["relative_gap"] < 1e-3
    # the two-hull oracle against the acceptance gate's 200k-point hull
    assert abs(rep["oracle_volume"] - saddle_oracle_volume) / saddle_oracle_volume < 2e-9
    assert rep["vertex_report"]["vertex_count"] == 4


@pytest.mark.parametrize(
    "spec, exact",
    # the baseball's hull is pi c (a^2 + 2ab); the saddle is its case b = 0
    [("saddle", np.pi), ("baseball:b=0.3,c=0.4", 0.64 * np.pi)],
    ids=["saddle", "baseball-b0.3-c0.4"],
)
def test_verify_oracle_is_the_hull_volume_to_1e_11(spec, exact, capsys):
    code, rep = cli_json(capsys, "volume", spec, "--n", "200", "--verify")
    assert code == 0
    assert abs(rep["oracle_volume"] - exact) / exact < 1e-11


def test_converge_and_verify_print_the_same_oracle(capsys):
    code, out, err = run_cli(capsys, "converge", "baseball", "--ns", "200,400")
    assert code == 0
    column = {line.split(",")[2] for line in out.strip().splitlines()[1:]}
    code, rep = cli_json(capsys, "converge", "baseball", "--ns", "200", "--json")
    assert code == 0
    assert rep["oracle_samples"] == cli.ORACLE_SAMPLES == 10_000
    code, verified = cli_json(capsys, "volume", "baseball", "--n", "200", "--verify")
    assert code == 0
    assert [float(o) for o in column] == [rep["rows"][0]["oracle_volume"]]
    assert rep["rows"][0]["oracle_volume"] == verified["oracle_volume"]


def test_discrete_gap_measures_the_formula_against_the_gate_hull(tmp_path, capsys):
    # the hull of the summed samples is the one the convexity gate builds
    code, rep = cli_json(capsys, "volume", "saddle", "--n", "2000")
    assert code == 0
    assert rep["discrete_gap"] < 1e-13
    code, rep = cli_json(capsys, "volume", "wobble:k=3", "--force")
    assert code == 0
    assert rep["discrete_gap"] == pytest.approx(0.088, abs=1e-3)
    code, rep = cli_json(capsys, "volume", saddle_file(tmp_path, 400))
    assert code == 0
    assert rep["discrete_gap"] < 1e-13


def test_polyline_oracle_is_the_one_hull_of_its_points(tmp_path, monkeypatch, capsys):
    path = saddle_file(tmp_path, 400)
    built = []
    build_hull = curvehull.hull.build_hull

    def counted(points):
        built.append(len(points))
        return build_hull(points)

    monkeypatch.setattr(curvehull.hull, "build_hull", counted)
    code, rep = cli_json(capsys, "volume", path, "--verify")
    assert code == 0
    assert built == [400]
    assert rep["oracle_volume"] == curvehull.mesh_volume(build_hull(load_polyline(path).points))


def test_volume_planar_curve_suggests_area(capsys):
    code, rep = cli_json(capsys, "volume", "ellipse:a=1,b=1", "--n", "100")
    assert code == 1
    assert rep["error"]["gate"] == "planarity"
    assert "area" in rep["error"]["message"]


def test_volume_vertex_gate_reports_count(capsys):
    code, rep = cli_json(capsys, "volume", "wobble:k=3", "--n", "1000")
    assert code == 1
    assert rep["error"]["gate"] == "vertex_count"
    assert rep["error"]["vertex_count"] == 6


def test_volume_force_marks_hypothesis_unverified(capsys):
    code, rep = cli_json(capsys, "volume", "wobble:k=3", "--n", "500", "--force")
    assert code == 0
    assert rep["vertex_report"] is None  # the count --force skipped


def test_volume_convexity_gate(capsys):
    # --force skips the vertex count only, in the CLI as in the library
    code, rep = cli_json(capsys, "volume", "trefoil", "--n", "300", "--force")
    assert code == 1
    assert rep["error"]["gate"] == "convexity"
    assert rep["error"]["non_extreme_count"] > 0
    sc = curvehull.sample_uniform(curvehull.gallery.get("trefoil").curve, 300)
    with pytest.raises(curvehull.NonConvexCurveError) as info:
        curvehull.hull_volume(sc, force=True)
    assert rep["error"] == {"gate": "convexity", "message": str(info.value), **info.value.details}


def test_volume_gates_planarity_before_the_vertex_stencil(square_file, capsys):
    # the vertex gate counts 4 on any 4-point loop, as V_{i,i+2} alternates
    # in sign, but the planarity gate runs first and refuses the square with
    # exit 1; volume and converge share the gate order
    for command in ("volume", "converge"):
        code, rep = cli_json(capsys, command, square_file)
        assert code == 1, command
        assert rep["error"]["gate"] == "planarity", command


@pytest.mark.parametrize("curve", ["lifted-flower-file", "ellipse"])
def test_every_hull_command_refuses_a_planar_loop_with_one_error(curve, tmp_path, capsys):
    # volume's planarity gate decides for diagnose and export-mesh too; the
    # flower is thick enough to pass build_hull's own coplanarity test
    if curve == "ellipse":
        spec, n = "ellipse", ("--n", "100")
    else:
        spec, n = write_polyline(tmp_path / "flower.txt", lifted_flower_points()), ()
    obj = tmp_path / "hull.obj"
    errors = []
    for argv in (("volume", spec), ("diagnose", spec), ("export-mesh", spec, str(obj))):
        code, rep = cli_json(capsys, *argv, *n)
        assert code == 1, argv
        errors.append(rep["error"])
    assert errors[0]["gate"] == "planarity" and "`area`" in errors[0]["message"]
    assert errors == errors[:1] * 3
    assert not obj.exists()


def test_a_loop_the_planarity_gate_accepts_gets_a_hull(tmp_path, capsys):
    # the lifted circle passes require_nonplanar, so build_hull, which
    # measures the same plane deviation against the bounding-box diagonal,
    # must mesh it; area refuses it as a space curve
    spec = write_polyline(tmp_path / "circle.txt", lifted_circle_points())
    code, rep = cli_json(capsys, "volume", spec, "--force", "--verify")
    assert code == 0
    assert rep["relative_gap"] < 1e-12
    code, rep = cli_json(capsys, "diagnose", spec, "--probes", "5")
    assert code == 0
    assert rep["non_extreme_count"] == 0
    # the loop is 1e-8 thick, yet every probe is drawn inside and evaluated
    assert rep["probes"]["evaluated"] == 5
    assert rep["multiplicity_histogram"] == {"4": 5}
    obj = tmp_path / "hull.obj"
    code, rep = cli_json(capsys, "export-mesh", spec, str(obj))
    assert code == 0
    assert obj.exists()
    code, rep = cli_json(capsys, "area", spec)
    assert code == 1
    assert rep["error"]["gate"] == "planarity"


def test_the_lifted_circle_reads_the_same_from_every_start(tmp_path, capsys):
    # rolled by one point the lift sits at index 1, so the stride-2 and
    # stride-4 loops lie exactly in z = 0 and their bands are all exact zeros.
    # Such a band confirms no count, so every start reads the loop's own 4 at
    # stride 1, where two counts of 0 once passed as a plateau and refused it
    volumes, inequalities = [], []
    for shift in range(4):
        points = np.roll(lifted_circle_points(), shift, axis=0)
        report = curvehull.quadrature.discrete_vertex_report(
            curvehull.SampledCurve.from_points(points)
        )
        assert (report.vertex_count, report.stride) == (4, 1), shift
        spec = write_polyline(tmp_path / f"circle{shift}.txt", points)
        code, rep = cli_json(capsys, "volume", spec)
        assert code == 0, rep
        volumes.append(rep["formula_volume"]["volume"])
        code, rep = cli_json(capsys, "diagnose", spec, "--probes", "5")
        assert code == 0, rep
        inequalities.append(rep["inequality_slack"])
    assert max(volumes) - min(volumes) <= 1e-15 * min(volumes)
    assert volumes[0] == pytest.approx(np.pi * 1e-8 / 3, rel=1e-4)
    assert inequalities == inequalities[:1] * 4


def test_a_far_from_origin_file_is_refused_as_degenerate(tmp_path, capsys):
    # a 1e-3-sized saddle 5e5 from the origin, written to 6 decimals: qhull's
    # hull of the rounded points leaves a point 5.8e-11 outside it, beyond
    # eps = 3.5e-12, so no hull of this input can be trusted
    samples = curvehull.sample_uniform(curvehull.gallery.get("saddle").curve, 300)
    path = tmp_path / "far.txt"
    np.savetxt(path, samples.points * 1e-3 + 5e5 * np.array([0.3, -0.97, 0.54]), fmt="%.6f")
    obj = tmp_path / "hull.obj"
    for argv in (
        ("volume", str(path), "--force"),
        ("diagnose", str(path)),
        ("export-mesh", str(path), str(obj)),
    ):
        code, rep = cli_json(capsys, *argv)
        assert code == 1, argv
        error = rep["error"]
        assert error["gate"] == "degenerate", argv
        assert error["depth"] > error["eps"], argv
        assert "outside its own hull, beyond eps" in error["message"], argv
    assert not obj.exists()


def test_a_far_three_point_file_is_refused_as_planar(tmp_path, capsys):
    # three points lie in a plane, yet rounding this small triangle 1e3 from
    # the origin put it 4.2e-09 of its length off its least-squares plane, so
    # it passed the planarity gate and qhull refused it as a usage error
    t = np.arange(3) * (2 * np.pi / 3)
    pts = np.stack([np.cos(t), np.sin(t), np.cos(2 * t)], axis=1) * 1e-6
    path = tmp_path / "far3.txt"
    np.savetxt(path, pts + 1e3 * np.array([0.3, -0.97, 0.54]), fmt="%.17g")
    obj = tmp_path / "hull.obj"
    for argv in (
        ("volume", str(path), "--force"),
        ("diagnose", str(path)),
        ("export-mesh", str(path), str(obj)),
        ("converge", str(path), "--force"),
    ):
        code, rep = cli_json(capsys, *argv)
        assert code == 1, argv
        assert rep["error"]["gate"] == "planarity", argv
    assert not obj.exists()
    a, b, c = load_polyline(path).points
    code, rep = cli_json(capsys, "area", str(path))
    assert code == 0
    assert rep["area"] == pytest.approx(np.linalg.norm(np.cross(b - a, c - a)) / 2, rel=1e-9)


@pytest.mark.parametrize("n", [20, 6, 4])
def test_coarse_polyline_gets_the_volume_of_its_hull(n, tmp_path, capsys):
    # the bracket V_{i,i+2} counts 4 on a coarse saddle, so the formula runs,
    # and it is the hull of the file's points, as hull_volume says; the
    # 4-point saddle is a tetrahedron, where the formula is its volume
    path = saddle_file(tmp_path, n)
    code, rep = cli_json(capsys, "volume", path)
    assert code == 0
    assert rep["vertex_report"] == {
        "vertex_count": 4, "stride": 1, "count_at_double_stride": None
    }
    assert rep["discrete_gap"] < 1e-12
    volume = rep["formula_volume"]["volume"]
    assert volume == curvehull.hull_volume(load_polyline(path)).volume
    code, forced = cli_json(capsys, "volume", path, "--force")
    assert forced["formula_volume"]["volume"] == volume
    if n == 20:
        assert volume == 2.9893408222247353
    if n == 4:
        a, b, c, d = load_polyline(path).points
        assert volume == pytest.approx(abs(np.linalg.det([b - a, c - a, d - a])) / 6, rel=1e-15)
    for argv in (
        ("volume", path, "--n", "100"),
        ("converge", path, "--ns", "100,200"),
        ("diagnose", path),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


def _ellipse_volume(tmp_path):
    sc = curvehull.sample_uniform(curvehull.gallery.get("ellipse").curve, 100)
    return lambda: curvehull.hull_volume(sc), ("volume", "ellipse", "--n", "100")


def _zero_length_volume(tmp_path):
    curve = curvehull.gallery.get("ellipse:a=0,b=0").curve
    return lambda: curvehull.sample_uniform(curve, 1000), ("volume", "ellipse:a=0,b=0")


def _wobble3_file_volume(tmp_path):
    sc = curvehull.sample_uniform(curvehull.gallery.get("wobble:k=3").curve, 500)
    path = write_polyline(tmp_path / "wobble3.txt", sc.points)
    return lambda: curvehull.hull_volume(load_polyline(path)), ("volume", path)


def _buried_file_volume(tmp_path):
    path = write_polyline(tmp_path / "buried.txt", buried_loop_points())
    return lambda: curvehull.hull_volume(load_polyline(path)), ("volume", path)


def _saddle_area(tmp_path):
    sc = curvehull.sample_uniform(curvehull.gallery.get("saddle").curve, 200)
    return lambda: curvehull.planar_area_integral(sc), ("area", "saddle", "--n", "200")


@pytest.mark.parametrize(
    "case, gate, names",
    [
        (_ellipse_volume, "planarity", ()),
        (_zero_length_volume, "degenerate", ("zero length",)),
        # the override is spelled both ways: a CLI flag and a library argument
        (_wobble3_file_volume, "vertex_count", ("--force", "force=True")),
        # four sign changes, so only the convexity gate refuses it
        (_buried_file_volume, "convexity", ()),
        (_saddle_area, "planarity", ()),
    ],
    ids=[
        "ellipse-volume",
        "zero-length-volume",
        "wobble3-file-volume",
        "buried-file-volume",
        "saddle-area",
    ],
)
def test_library_and_cli_refuse_with_the_same_words(case, gate, names, tmp_path, capsys):
    library_call, argv = case(tmp_path)
    with pytest.raises(curvehull.GateError) as info:
        library_call()
    exc = info.value
    assert exc.gate == gate
    assert all(name in str(exc) for name in names)
    code, rep = cli_json(capsys, *argv)
    assert code == 1
    assert rep["error"] == {"gate": exc.gate, "message": str(exc), **exc.details}


def test_volume_timing_goes_to_stderr_only(capsys):
    code, out, err = run_cli(capsys, "volume", "saddle", "--n", "300")
    assert code == 0
    assert "timing_ms" in err
    assert "timing" not in out


def test_volume_from_polyline_file(tmp_path, capsys):
    from curvehull import gallery, sample_uniform

    sc = sample_uniform(gallery.get("saddle").curve, 400)
    path = write_polyline(tmp_path / "saddle.txt", sc.points)
    code, rep = cli_json(capsys, "volume", path)
    assert code == 0
    assert rep["n"] == 400
    assert rep["vertex_report"]["vertex_count"] == 4


def test_unknown_curve_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "volume", "nosuchcurve")
    assert code == 2
    assert "gallery" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("baseball:z=1", "bad parameter 'z=1' for 'baseball' (allowed: a, b, c)"),
        ("saddle:a=1", "bad parameter 'a=1' for 'saddle' (allowed: none)"),
    ],
    ids=["baseball-z", "saddle-a"],
)
def test_unknown_gallery_parameter_keeps_the_gallery_message(spec, message, capsys):
    # the curve is known, so the error names the parameter, not a missing file
    code, out, err = run_cli(capsys, "volume", spec)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "spec, names",
    [
        ("wobble:k=3.5", "wobble parameter k"),
        ("wobble:k=inf", "wobble parameter k"),
        ("baseball:a=nan", "baseball parameter a"),
    ],
    ids=["fractional-k", "infinite-k", "nan-a"],
)
def test_bad_gallery_parameter_value_is_a_usage_error(spec, names, capsys):
    # each must be refused as a usage error before it runs: not truncated to
    # k = 3, not an OverflowError (exit 1), not a gate refusal of a NaN curve
    code, out, err = run_cli(capsys, "volume", spec, "--n", "200")
    assert code == 2
    assert names in err
    assert out == ""


@pytest.mark.parametrize("command", ["volume", "converge"])
def test_multiplicity_flag_is_an_unrecognized_argument(command, capsys):
    # the divisor and the expected sign-change count are the paper's 4; with
    # --m 6 wobble(3) used to pass every gate and print a volume 39% low
    for m in ("6", "4", "0"):
        with pytest.raises(SystemExit) as info:
            main([command, "wobble:k=3", "--m", m])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --m" in err


# ---------------------------------------------------------------- area


def test_area_square_file_exact(square_file, capsys):
    code, rep = cli_json(capsys, "area", square_file)
    assert code == 0
    assert rep["area"] == 1.0


def test_area_circle(capsys):
    code, rep = cli_json(capsys, "area", "ellipse:a=1,b=1", "--n", "10000")
    assert code == 0
    assert rep["area"] == pytest.approx(np.pi, abs=1e-6)


def test_area_rotated_triangle_file(tmp_path, capsys):
    ang = 0.7
    rot = np.array(
        [
            [np.cos(ang), 0, np.sin(ang)],
            [0, 1, 0],
            [-np.sin(ang), 0, np.cos(ang)],
        ]
    )
    tri = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]]) @ rot.T
    path = write_polyline(tmp_path / "tri.txt", tri)
    code, rep = cli_json(capsys, "area", path)
    assert code == 0
    assert rep["area"] == pytest.approx(0.5, abs=1e-12)


def test_area_rejects_space_curves(capsys):
    code, rep = cli_json(capsys, "area", "saddle", "--n", "200")
    assert code == 1
    assert rep["error"]["gate"] == "planarity"


# ---------------------------------------------------------------- converge


def test_converge_csv_gaps_decrease(capsys):
    code, out, err = run_cli(
        capsys, "converge", "saddle", "--ns", "125,250,500"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,formula_volume,oracle_volume,relative_gap"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [125, 250, 500]
    gaps = [float(r[3]) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    # each row's double sum is timed on stderr, not printed
    timing = json.loads(err.split("# timing_ms ", 1)[1])
    assert {"n=125", "n=250", "n=500"} <= set(timing)


def test_converge_empty_list_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "converge", "saddle", "--ns", "")
    assert code == 2
    code, out, err = run_cli(capsys, "converge", "saddle", "--ns", "100,abc")
    assert code == 2
    assert out == ""
    assert "bad --ns list '100,abc'" in err


def test_converge_checks_every_n_before_the_gates_and_oracle(monkeypatch, capsys):
    def too_early(*args, **kwargs):
        raise AssertionError("ran before every --ns entry was sampled")

    monkeypatch.setattr(cli, "hull_volume", too_early)
    monkeypatch.setattr(cli._ResolvedCurve, "oracle_volume", too_early)
    code, out, err = run_cli(capsys, "converge", "saddle", "--ns", "3,2000")
    assert code == 2
    assert out == ""
    assert "need n >= 4" in err


@pytest.mark.parametrize(
    "argv, function, args",
    [
        # hull_volume's planarity gate, then the one inside is_convex_curve
        (("volume", "saddle", "--n", "2000"), "planarity_check", [2000, 2000]),
        # each row sampled once, then the oracle's samples
        (("converge", "baseball", "--ns", "125,250"), "sample_uniform", [125, 250, 10_000]),
        # the one inside is_convex_curve, which builds both the gate's and the probes' hull
        (("diagnose", "saddle", "--n", "500", "--probes", "5"), "planarity_check", [500]),
    ],
    ids=["volume-planarity", "converge-sampling", "diagnose-planarity"],
)
def test_planarity_and_sampling_call_counts(argv, function, args, monkeypatch, capsys):
    original = getattr(curvehull.curves, function)
    seen = []

    def counted(curve, *rest):
        seen.append(rest[0] if rest else curve.n)
        return original(curve, *rest)

    for module in (curvehull.curves, curvehull.quadrature, cli):
        if getattr(module, function, None) is original:
            monkeypatch.setattr(module, function, counted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert sorted(seen) == args


def test_converge_on_a_file_reads_strides_of_its_points(tmp_path, monkeypatch, capsys):
    # rows are every k-th point for k = 16, 8, 4, 2, 1 with no interpolation,
    # one hull each, and the k = 1 row's hull is the reference: none is built for it
    path = saddle_file(tmp_path, 400)
    original = curvehull.curves.is_convex_curve
    built = []

    def counted(curve):
        built.append(curve.n)
        return original(curve)

    for module in (curvehull.curves, cli):
        monkeypatch.setattr(module, "is_convex_curve", counted)
    code, rep = cli_json(capsys, "converge", path, "--json")
    assert code == 0
    assert sorted(built) == [25, 50, 100, 200, 400]
    assert [row["n"] for row in rep["rows"]] == [25, 50, 100, 200, 400]
    gaps = [row["relative_gap"] for row in rep["rows"]]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-13
    points = load_polyline(path).points
    assert rep["rows"][0]["formula_volume"] == curvehull.hull_volume(
        curvehull.SampledCurve.from_points(points[::16])
    ).volume
    assert rep["rows"][0]["oracle_volume"] == curvehull.mesh_volume(
        curvehull.build_hull(points)
    )
    assert rep["oracle_samples"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ("volume", "{saddle}", "--n", "600"),
        ("diagnose", "{saddle}", "--probes", "5", "--n", "600"),
        ("area", "{circle}", "--n", "600"),
        ("export-mesh", "{saddle}", "hull.obj", "--n", "600"),
        ("converge", "{saddle}", "--ns", "200,400"),
    ],
    ids=lambda argv: argv[0],
)
def test_a_file_ignores_the_sample_count_flags(argv, tmp_path, monkeypatch, capsys):
    # a file is taken as it is: --n and --ns leave stdout and the OBJ as they
    # are without the flag, and one note on stderr says so
    monkeypatch.chdir(tmp_path)
    t = np.arange(200) * (2 * np.pi / 200)
    circle = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    files = {"saddle": saddle_file(tmp_path, 400), "circle": write_polyline(tmp_path / "c", circle)}
    argv = [arg.format(**files) for arg in argv]
    obj = tmp_path / "hull.obj"
    runs = []
    for args in (argv[:-2], argv):
        code, out, err = run_cli(capsys, *args)
        runs.append((code, out, obj.read_bytes() if obj.exists() else None))
        obj.unlink(missing_ok=True)
    assert runs[0][0] == 0
    assert runs[1] == runs[0]
    notes = [line for line in err.splitlines() if line.startswith("# note:")]
    assert notes == [f"# note: {argv[-2]} is ignored for a polyline file, taken as it is"]


def test_converge_planar_curve_rejected(capsys):
    code, rep = cli_json(capsys, "converge", "ellipse", "--ns", "100,200")
    assert code == 1
    assert rep["error"]["gate"] == "planarity"


def test_converge_runs_the_convexity_gate(capsys):
    code, rep = cli_json(capsys, "converge", "trefoil", "--ns", "125,250", "--force")
    assert code == 1
    assert rep["error"]["gate"] == "convexity"
    assert rep["error"]["non_extreme_count"] > 0


def test_converge_json_mode(capsys):
    code, rep = cli_json(
        capsys, "converge", "saddle", "--ns", "125,250", "--json"
    )
    assert code == 0
    assert [row["n"] for row in rep["rows"]] == [125, 250]
    assert rep["rows"][0]["relative_gap"] > rep["rows"][1]["relative_gap"]


# ---------------------------------------------------------------- diagnose


def test_diagnose_saddle(capsys):
    code, out, err = run_cli(capsys, "diagnose", "saddle", "--n", "500", "--probes", "25")
    assert code == 0
    rep = json.loads(out)
    timing = json.loads(err.split("# timing_ms ", 1)[1])
    assert set(timing) == {"hull", "structure", "probes"}
    assert rep["vertex_report"]["vertex_count"] == 4
    assert rep["non_extreme_count"] == 0
    assert rep["support_polygons"]["patch_sample_ids"] == []
    assert rep["inequality_slack"] == 0
    assert rep["multiplicity_histogram"] == {"4": 25}
    # every polygon edge on the hull (k1 + 2 k2 = 2n), and k2 - k0 = 4
    assert rep["facet_census"] == {"k0": 0, "k1": 992, "k2": 4}
    probes = rep["probes"]
    assert probes["evaluated"] == probes["requested"] == 25


def census(rep) -> tuple:
    return tuple(rep["facet_census"][k] for k in ("k0", "k1", "k2"))


@pytest.mark.parametrize(
    "spec, n, want",
    [("saddle", n, (0, 2 * n - 8, 4)) for n in (200, 500, 1000)]
    + [("wobble:k=5", n, (6, 2 * n - 20, 10)) for n in (400, 600, 1200)],
)
def test_diagnose_facet_census_of_gallery_loops(spec, n, want, capsys):
    # k2 discrete vertices, k0 tritangent facets; every polygon edge is on
    # the hull, so k1 + 2 k2 = 2n and k2 - k0 = 4
    code, rep = cli_json(capsys, "diagnose", spec, "--n", str(n), "--probes", "1")
    assert code == 0
    assert census(rep) == want


@pytest.mark.parametrize(
    "name, want",
    [("saddle400.txt", (0, 792, 4)), ("wobble3.txt", (2, 988, 6)), ("circle.txt", (1, 790, 5))],
)
def test_diagnose_facet_census_identities_hold_from_every_start(name, want, tmp_path, capsys):
    # the lifted circle's flat face may be triangulated otherwise once the
    # loop is rolled, which moves k0 and k2 but not their difference
    write_inputs(tmp_path)
    points = load_polyline(tmp_path / name).points
    n = len(points)
    for roll in (0, 1, 2):
        spec = write_polyline(tmp_path / f"rolled{roll}.txt", np.roll(points, roll, axis=0))
        code, rep = cli_json(capsys, "diagnose", spec, "--probes", "1")
        assert code == 0
        k0, k1, k2 = census(rep)
        assert (k1 + 2 * k2, k2 - k0) == (2 * n, want[2] - want[0]), roll
        if roll == 0:
            assert (k0, k1, k2) == want


def test_diagnose_reads_the_facet_census_at_the_vertex_stride(tmp_path, capsys):
    # the hull of all 2000 rounded points reads 228 discrete vertices of
    # noise; the hull of every 8th point, where the band settles, reads 4
    write_inputs(tmp_path)
    spec = str(tmp_path / "saddle_round6.txt")
    code, rep = cli_json(capsys, "diagnose", spec, "--probes", "1")
    assert code == 0
    assert rep["vertex_report"]["stride"] == 8
    assert census(rep) == (0, 492, 4)
    assert facet_census(curvehull.is_convex_curve(load_polyline(spec))) == (224, 3544, 228)


def test_diagnose_wobble_inequality_is_tight(capsys):
    # six sign changes and two tri-tangential patches (z = +/-1 each touch
    # the three extrema of sin 3t): 6 + 0 >= 4 + 2 holds with zero slack.
    code, rep = cli_json(
        capsys, "diagnose", "wobble:k=3", "--n", "400", "--probes", "5"
    )
    assert code == 0
    assert rep["vertex_report"]["vertex_count"] == 6
    assert len(rep["support_polygons"]["patch_sample_ids"]) == 2
    assert rep["inequality_slack"] == 0


@pytest.mark.parametrize(
    "spec, n, convex, patches",
    [("trefoil", 300, False, 2), ("saddle", 300, True, 0), ("wobble:k=3", 400, True, 2)],
)
def test_diagnose_prints_no_inequality_for_a_non_convex_loop(spec, n, convex, patches, capsys):
    # V + 2K >= 4 + P is a theorem about a loop on its own convex hull; the
    # trefoil buries samples, so its patches are listed but not audited
    code, rep = cli_json(capsys, "diagnose", spec, "--n", str(n), "--probes", "20")
    assert code == 0
    assert (rep["non_extreme_count"] == 0) is convex
    assert len(rep["support_polygons"]["patch_sample_ids"]) == patches
    if convex:
        assert rep["inequality_slack"] == rep["vertex_report"]["vertex_count"] - 4 - patches
    else:
        assert rep["inequality_slack"] is None


def test_diagnose_seed_changes_probe_stream(capsys):
    # wobble(3) has pockets no chord reaches, so other probes give another
    # histogram
    argv = ("diagnose", "wobble:k=3", "--n", "300", "--probes", "20")
    _, rep1 = cli_json(capsys, *argv)
    _, rep2 = cli_json(capsys, *argv, "--seed", "7")
    assert (rep1["seed"], rep2["seed"]) == (42, 7)
    assert rep1["multiplicity_histogram"] == {"0": 1, "4": 19}
    assert rep2["multiplicity_histogram"] == {"4": 20}


@pytest.mark.parametrize("probes", ["0", "-1", "abc"])
def test_diagnose_probes_below_one_is_a_usage_error(probes, capsys):
    with pytest.raises(SystemExit) as info:
        main(["diagnose", "saddle", "--n", "200", "--probes", probes])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--probes: probe count must be an integer >= 1" in err


def test_diagnose_seed_below_zero_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["diagnose", "saddle", "--n", "200", "--probes", "2", "--seed", "-1"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--seed: seed must be an integer >= 0, got '-1'" in err


@pytest.mark.parametrize(
    "spec, n, uncovered", [("saddle", 500, 0), ("wobble:k=3", 400, 7)], ids=["saddle", "wobble3"]
)
def test_covering_histogram_is_what_diagnose_reports(spec, n, uncovered, capsys):
    code, rep = cli_json(capsys, "diagnose", spec, "--n", str(n), "--seed", "42")
    assert code == 0
    samples = curvehull.sample_uniform(curvehull.gallery.get(spec).curve, n)
    mesh = curvehull.build_hull(samples.points)
    histogram, counters = curvehull.covering_histogram(samples, mesh, 100, 42)
    assert list(histogram) == sorted(histogram)
    assert {str(m): count for m, count in histogram.items()} == rep["multiplicity_histogram"]
    assert counters == rep["probes"]
    # a probe that no tetrahedron holds is the bin m = 0; chord_failures stays 0
    assert counters["chord_failures"] == 0
    assert histogram.get(0, 0) == uncovered
    assert sum(histogram.values()) == counters["evaluated"] == 100


@pytest.mark.parametrize(
    "spec, n, count",
    [("wobble:k=3", 400, 2)]
    + [("wobble:k=5", n, 2) for n in (400, 600, 1000, 1200)]
    + [("wobble:k=7", n, p) for n, p in ((400, 6), (500, 8), (600, 10), (1000, 6), (1200, 8))],
)
def test_diagnose_lists_support_patches_by_smallest_sample(spec, n, count, capsys):
    # wobble(5)'s two caps are patches of 3 facets; wobble(7)'s P moves with n
    code, rep = cli_json(capsys, "diagnose", spec, "--n", str(n), "--probes", "5")
    assert code == 0
    patches = rep["support_polygons"]["patch_sample_ids"]
    assert len(patches) == count
    assert rep["inequality_slack"] == rep["vertex_report"]["vertex_count"] - 4 - count
    assert patches == sorted(patches)
    assert all(ids == sorted(set(ids)) for ids in patches)


@pytest.mark.parametrize("spec, vertices, patches", [("saddle", 4, 0), ("wobble:k=3", 6, 2)])
def test_diagnose_reads_support_patches_at_the_vertex_stride(
    spec, vertices, patches, tmp_path, capsys
):
    # rounding to 6 decimals splits the hull of all the points into dozens
    # of spurious flat patches; on every k-th point only the real ones stay
    t = np.arange(1000) * (2 * np.pi / 1000)
    path = tmp_path / "rounded.txt"
    np.savetxt(path, curvehull.gallery.get(spec).curve(t) + [0.41, -0.63, 0.27], fmt="%.6f")
    code, rep = cli_json(capsys, "diagnose", str(path), "--probes", "5")
    assert code == 0
    k = rep["vertex_report"]["stride"]
    assert k > 1 and rep["vertex_report"]["vertex_count"] == vertices
    ids = rep["support_polygons"]["patch_sample_ids"]
    assert len(ids) == patches
    assert all(i % k == 0 for patch in ids for i in patch)  # indices of the file's points
    assert rep["inequality_slack"] == 0  # vertices = 4 + patches


@pytest.mark.parametrize("decimals", [6, 17])
def test_diagnose_reads_support_patches_on_the_file_points_under_n(decimals, tmp_path, capsys):
    # a file is taken as it is, so --n changes nothing: V and P are read on
    # the file's own points, at stride 1 (the exact file) as at k > 1 (6 decimals)
    t = np.arange(1000) * (2 * np.pi / 1000)
    path = tmp_path / "wobble.txt"
    points = curvehull.gallery.get("wobble:k=3").curve(t) + [0.41, -0.63, 0.27]
    np.savetxt(path, points, fmt=f"%.{decimals}g" if decimals > 6 else "%.6f")
    _, own = cli_json(capsys, "diagnose", str(path), "--probes", "5")
    code, under_n = cli_json(capsys, "diagnose", str(path), "--n", "150", "--probes", "5")
    assert code == 0 and under_n == own and own["n"] == 1000
    assert (own["vertex_report"]["stride"] > 1) == (decimals == 6)
    assert len(own["support_polygons"]["patch_sample_ids"]) == 2


# ---------------------------------------------------------------- export-mesh


def test_export_mesh_cube(cube_file, tmp_path, capsys):
    out_path = tmp_path / "cube.obj"
    code, rep = cli_json(capsys, "export-mesh", cube_file, str(out_path))
    assert code == 0
    assert rep["v_lines"] == 8
    assert rep["f_lines"] == 12
    text = out_path.read_text().splitlines()
    assert sum(1 for l in text if l.startswith("v ")) == 8
    assert sum(1 for l in text if l.startswith("f ")) == 12


def test_export_mesh_bad_output_path(cube_file, tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "export-mesh", cube_file, str(tmp_path / "missing" / "x.obj")
    )
    assert code == 2


def test_export_mesh_missing_input(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "export-mesh", str(tmp_path / "nope.txt"), str(tmp_path / "o.obj")
    )
    assert code == 2


def test_polyline_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3 4 5\n")
    code, out, err = run_cli(capsys, "volume", str(bad))
    assert code == 2
    assert "expected three numbers" in err
    bad.write_text("0 0 1\n1 2 x\n")
    code, out, err = run_cli(capsys, "volume", str(bad))
    assert code == 2
    assert f"{bad}:2: could not convert string to float" in err
    bad.write_text("# only a comment\n\n   # and another\n")
    code, out, err = run_cli(capsys, "volume", str(bad))
    assert code == 2
    assert f"{bad}: no points found" in err


def test_polyline_non_finite_coordinate_names_its_line(tmp_path, capsys):
    for token in ("nan", "inf", "-inf"):
        bad = tmp_path / f"{token}.txt"
        bad.write_text(f"# header\n1 0 0\n0 1 0\n0 0 {token}\n-1 0 1\n")
        with pytest.raises(ValueError, match=f"{bad}:4: non-finite coordinate"):
            load_polyline(bad)
        code, out, err = run_cli(capsys, "volume", str(bad))
        assert code == 2
        assert f"{bad}:4: non-finite coordinate" in err


def test_polyline_loader_closure_and_comments(tmp_path):
    path = tmp_path / "loop.txt"
    path.write_text(
        "# a square, explicitly closed\n"
        "0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
        "0 0 0  # repeat of the first point\n"
    )
    sc = load_polyline(path)
    assert sc.n == 4


GATES = {"planarity", "vertex_count", "convexity", "degenerate", "closure"}


@given(
    name=st.sampled_from(["saddle", "baseball", "wobble:k=3"]),
    n=st.sampled_from([3, 4, 5, 8, 63, 64, 65, 300]),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    offset=st.sampled_from([0.0, 1e3, 5e5, 1e7]),
    jitter=st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-2]),
    decimals=st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
    duplicate=st.sampled_from([None, "adjacent", "apart"]),
    shuffle=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_fuzzed_polyline_files_get_a_result_or_a_named_refusal(
    name, n, scale, offset, jitter, decimals, duplicate, shuffle, seed
):
    # rounded, jittered, duplicated, shuffled, scaled and shifted files: every
    # command exits 0, 1 with a gate's error object, or 2 with a usage
    # message, and never raises
    rng = np.random.default_rng(seed)
    t = np.arange(n) * (2 * np.pi / n)
    pts = curvehull.gallery.get(name).curve(t)
    pts = (pts + jitter * rng.standard_normal(pts.shape)) * scale
    pts += offset * np.array([0.3, -0.97, 0.54])
    if duplicate:
        k = int(rng.integers(n))
        at = k + 1 if duplicate == "adjacent" else (k + n // 2) % n
        pts = np.insert(pts, at, pts[k], axis=0)
    if shuffle:
        pts = rng.permutation(pts)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.txt")
        np.savetxt(path, pts, fmt="%.17g" if decimals is None else f"%.{decimals}f")
        obj = os.path.join(tmp, "hull.obj")
        for argv in (
            ("volume", path),
            ("volume", path, "--force"),
            ("diagnose", path, "--probes", "10"),
            ("converge", path, "--ns", "64,300"),
            ("export-mesh", path, obj),
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            if code == 1:
                assert json.loads(out.getvalue())["error"]["gate"] in GATES, argv
            elif code == 2:
                assert err.getvalue().startswith("error: "), argv
            else:
                assert code == 0, argv
                assert out.getvalue(), argv


# ---------------------------------------------------------------- misc


def readme_commands():
    """The lines of the fenced block under "## Command line" in README.md."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize(
    "line", readme_commands(), ids=lambda line: line.partition("#")[0].strip()
)
def test_readme_command_exits_as_stated(line, tmp_path, monkeypatch, capsys):
    # "# exits N" in a line's comment states its exit code; no such comment means 0
    monkeypatch.chdir(tmp_path)  # export-mesh writes its OBJ to the working directory
    command, _, comment = line.partition("#")
    argv = shlex.split(command)
    assert argv[0] == "curvehull"
    stated = re.search(r"exits (\d+)", comment)
    code, out, err = run_cli(capsys, *argv[1:])
    assert code == (int(stated.group(1)) if stated else 0), err


def test_readme_documents_exactly_the_parser_flags():
    # a flag deleted from the parser cannot stay documented, nor a new one
    # go undocumented
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        flag
        for p in subparsers.choices.values()
        for action in p._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section)) == parsed


def test_readme_lists_exactly_the_keys_of_each_report(tmp_path, capsys):
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = dict(re.findall(r"(?m)^\| `([a-z -]+)` \| (.+) \|$", section))
    runs = {
        "volume": ("volume", "saddle", "--n", "300"),
        "area": ("area", "ellipse", "--n", "100"),
        "converge --json": ("converge", "saddle", "--ns", "125", "--json"),
        "diagnose": ("diagnose", "saddle", "--n", "300", "--probes", "2"),
        "export-mesh": ("export-mesh", "saddle", str(tmp_path / "hull.obj"), "--n", "300"),
        "gallery-list --json": ("gallery-list", "--json"),
    }
    assert set(table) == set(runs)
    for row, argv in runs.items():
        code, rep = cli_json(capsys, *argv)
        assert code == 0, row
        assert set(rep) == set(re.findall(r"`(\w+)`", table[row])), row
        assert rep["schema"] == 6, row
    code, rep = cli_json(capsys, "volume", "ellipse")
    assert code == 1
    assert set(rep) == {"schema", "command", "error"}
    assert rep["schema"] == 6


def test_gallery_list(capsys):
    code, out, err = run_cli(capsys, "gallery-list")
    assert code == 0
    for name in ("saddle", "baseball", "ellipse", "wobble", "trefoil"):
        assert name in out
    code, rep = cli_json(capsys, "gallery-list", "--json")
    assert code == 0
    assert len(rep["curves"]) == 5


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "curvehull.cli", "volume", "saddle", "--n", "200"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["command"] == "volume"
    assert "timing_ms" in proc.stderr


def test_python_dash_m_package_runs():
    src = str(Path(curvehull.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "curvehull", "volume", "saddle", "--n", "200"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "volume"


_SCIPY_PROBE = """
import contextlib, io, json, sys
import curvehull.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

rows = [["import curvehull.cli", None, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    rows.append([" ".join(argv), code, scipy_modules()])
print(json.dumps(rows))
"""


def test_scipy_loads_only_when_a_hull_is_built():
    # qhull is imported by build_hull, so a command that stops before its
    # first hull never pays for scipy; the one fresh interpreter runs them in turn
    src = str(Path(curvehull.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    commands = [
        (["gallery-list"], 0),
        (["area", "ellipse"], 0),
        (["volume", "ellipse"], 1),  # planarity gate
        (["volume", "wobble:k=3"], 1),  # vertex gate
        (["volume", "saddle", "--n", "0"], 2),  # usage error
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE,
         json.dumps([argv for argv, _ in commands] + [["volume", "saddle", "--n", "256"]])],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert rows[0] == ["import curvehull.cli", None, []]
    for (argv, code), row in zip(commands, rows[1:]):
        assert row == [" ".join(argv), code, []]
    label, code, loaded = rows[-1]
    assert (label, code) == ("volume saddle --n 256", 0)
    assert "scipy.spatial" in loaded


def test_volume_bits_ignore_blas_and_worker_threads():
    src = str(Path(curvehull.__file__).resolve().parents[1])
    outs = set()
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "curvehull.cli", "volume", "saddle",
                 "--n", "1000", "--threads", threads],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
    assert len(outs) == 1


def test_diagnose_bits_ignore_blas_and_worker_threads():
    # the probes' angular screen runs through BLAS, but it only picks the
    # pairs whose face signs are tested, and the count reads only those signs
    src = str(Path(curvehull.__file__).resolve().parents[1])
    outs = set()
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "curvehull.cli", "diagnose", "saddle",
                 "--n", "600", "--probes", "40", "--threads", threads],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
    assert len(outs) == 1
    assert json.loads(outs.pop())["multiplicity_histogram"] == {"4": 40}


def test_repeated_runs_are_byte_identical(capsys):
    converge = ("converge", "saddle", "--ns", "125,250")
    for runs in (
        [("volume", "saddle", "--n", "400", "--threads", t) for t in ("1", "4", "1")],
        [converge] * 3,
        [converge + ("--json",)] * 3,
    ):
        outs = set()
        for argv in runs:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1, runs[0]
