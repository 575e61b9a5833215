"""Built-in curve gallery: named closed curves with exact derivatives.

Provides canonical witnesses for the volume formula and its hypotheses:

* saddle -- (cos t, sin t, cos 2t): convex, exactly 4 torsion sign changes.
* baseball(a, b, c) -- (a cos t + b cos 3t, a sin t - b sin 3t, c sin 2t):
  convex seam-like curve with 4 sign changes at the shipped defaults.
* ellipse(a, b) -- planar, routes to the area path.
* wobble(k) -- (cos t, sin t, sin kt), k odd >= 3: convex but with 2k sign
  changes, the standard counterexample to applying the formula blindly.
* trefoil -- ((2 + cos 3t) cos 2t, (2 + cos 3t) sin 2t, sin 3t): non-convex
  knotted curve, for negative tests.

Every coordinate is a trigonometric polynomial, so one rule (_fourier)
gives the position and the exact first, second and third derivatives.
One table, _CURVES, holds every curve, so get builds each on one path.
Entries are addressed by name with optional parameters,
e.g. "baseball:a=1,b=0.15,c=0.7" or "wobble:k=5"; a value must be finite,
and an integer parameter (wobble's k) must be integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import AnalyticCurve

TWO_PI = 2.0 * np.pi


@dataclass(eq=False)
class GalleryEntry:
    """A named curve plus the facts the suite promises about it (None: no claim)."""

    name: str
    curve: AnalyticCurve
    params: dict
    expected_vertex_count: Optional[int]
    expected_convex: Optional[bool]
    planar: bool
    description: str = ""

    @property
    def spec_string(self) -> str:
        if not self.params:
            return self.name
        args = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.name}:{args}"


def _fourier(name: str, x_terms, y_terms, z_terms) -> AnalyticCurve:
    """A closed curve whose x, y and z are trigonometric polynomials.

    Each axis is a list of terms (k, c, s), ascending in k, each meaning
    c cos(kt) + s sin(kt); an axis with no terms is zero. The m-th derivative
    of a term turns (c, s) a quarter turn m times, (c, s) -> (s, -c), and
    scales it by the integer k**m, multiplied into the coefficient once. Zero
    coefficients are left out and the rest summed in order, so every callback
    rounds exactly as its closed form written out by hand.
    """

    def derivative(m: int):
        plan = []  # per axis: (coefficient, wave, k) for each nonzero term
        for terms in (x_terms, y_terms, z_terms):
            row = []
            for k, c, s in terms:
                for _ in range(m):
                    c, s = s, -c
                row += [(k**m * v, wave, k) for v, wave in ((c, np.cos), (s, np.sin)) if v]
            plan.append(row)

        def evaluate(t):
            coords = []
            for row in plan:
                parts = [coef * wave(k * t) for coef, wave, k in row]
                coords.append(sum(parts[1:], parts[0]) if parts else np.zeros_like(t))
            return np.stack(coords, axis=-1)

        return evaluate

    position, d1, d2, d3 = (derivative(m) for m in range(4))
    return AnalyticCurve(position, TWO_PI, d1, d2, d3, name=name)


_BASEBALL = {"a": 1.0, "b": 0.15, "c": 0.7}


def _baseball(a, b, c):
    shipped = {"a": a, "b": b, "c": c} == _BASEBALL  # the claims hold at the defaults
    x, y, z = [(1, a, 0), (3, b, 0)], [(1, 0, a), (3, 0, -b)], [(2, 0, c)]
    return x, y, z, 4 if shipped else None, shipped or None


def _wobble(k: int):
    if k < 3 or k % 2 == 0:
        raise ValueError(f"wobble frequency k must be odd and >= 3, got {k}")
    return [(1, 1, 0)], [(1, 0, 1)], [(k, 0, 1)], 2 * k, True


# name -> (terms, defaults, description); terms(**params) gives the x, y, z
# Fourier terms (no nonzero z coefficient: planar), vertex count and convexity (None: no claim)
_CURVES = {
    "saddle": (
        lambda: ([(1, 1, 0)], [(1, 0, 1)], [(2, 1, 0)], 4, True),
        {},
        "circle lifted onto the saddle z = x^2 - y^2",
    ),
    "baseball": (
        _baseball, _BASEBALL, "seam-like closed curve, 4 torsion sign changes at defaults"
    ),
    "ellipse": (
        lambda a, b: ([(1, a, 0)], [(1, 0, b)], [], None, None),
        {"a": 2.0, "b": 1.0},
        "planar ellipse, exercises the area path",
    ),
    "wobble": (_wobble, {"k": 3}, "circle with z = sin(kt); 2k torsion sign changes"),
    "trefoil": (
        lambda: (  # (2 + cos 3t)(cos 2t, sin 2t) expanded, and sin 3t
            [(1, 0.5, 0), (2, 2, 0), (5, 0.5, 0)],
            [(1, 0, -0.5), (2, 0, 2), (5, 0, 0.5)],
            [(3, 0, 1)],
            None,
            False,
        ),
        {},
        "knotted curve with interior samples, fails the convexity gate",
    ),
}


def names() -> list:
    """Sorted gallery base names."""
    return sorted(_CURVES)


def parse_curve_spec(spec: str):
    """Split "name:key=val,key=val" into a base name and a parameter dict."""
    base, _, tail = spec.partition(":")
    base = base.strip()
    if base not in _CURVES:
        raise KeyError(f"unknown curve {base!r}; available: {', '.join(names())}")
    params = dict(_CURVES[base][1])
    if tail.strip():
        for item in tail.split(","):
            key, sep, val = item.partition("=")
            key = key.strip()
            if not sep or key not in params:
                allowed = ", ".join(params) or "none"
                raise KeyError(
                    f"bad parameter {item.strip()!r} for {base!r} (allowed: {allowed})"
                )
            integral = isinstance(params[key], int)
            try:
                value = float(val)
            except ValueError:
                value = np.nan
            if not np.isfinite(value) or (integral and not value.is_integer()):
                kind = "an integer" if integral else "a finite number"
                raise ValueError(f"{base} parameter {key} must be {kind}, got {val.strip()!r}")
            params[key] = int(value) if integral else value
    return base, params


def get(spec: str) -> GalleryEntry:
    """Build a gallery entry from a spec string like "wobble:k=5"."""
    base, params = parse_curve_spec(spec)
    terms, _, description = _CURVES[base]
    x, y, z, vertex_count, convex = terms(**params)
    return GalleryEntry(
        name=base,
        curve=_fourier(base, x, y, z),
        params=params,
        expected_vertex_count=vertex_count,
        expected_convex=convex,
        planar=not any(c or s for _, c, s in z),
        description=description,
    )
