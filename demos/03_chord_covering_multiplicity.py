"""
Why divide by four
==================

Each interior point of the hull is hit by chords of the curve; for a convex
loop with four torsion sign changes the chord family covers every interior
point exactly four times, which is where the 1/4 in the volume formula comes
from. Here we count the chords through a point directly: the ordered edge
pairs whose tetrahedron holds it.
"""

from curvehull import (
    build_hull,
    covering_histogram,
    estimate_covering_multiplicity,
    gallery,
    hull_volume,
    mesh_volume,
    sample_uniform,
)

sc = sample_uniform(gallery.get("saddle").curve, 2000)
mesh = build_hull(sc.points)

print("saddle, a few handpicked interior points:")
for p in ([0, 0, 0], [0.3, 0.1, 0.0], [-0.2, 0.4, 0.1], [0.0, 0.0, 0.6]):
    m = estimate_covering_multiplicity(sc, p)
    print(f"  {p}: multiplicity {m}")

# the probes of `curvehull diagnose`: uniform draws in the hull's tetrahedron
# fan, pulled 15% of the way toward its apex
print(f"\n50 random saddle probes: {covering_histogram(sc, mesh, 50, seed=42)[0]}")

# the same count on wobble(3) finds a patchwork of covering numbers, zero
# included (pockets under its two flat caps see no chord at all), so no
# single divisor can be right, and the m=4 formula misses the hull
sc6 = sample_uniform(gallery.get("wobble:k=3").curve, 2000)
mesh6 = build_hull(sc6.points)
print(f"50 random wobble(3) probes: {covering_histogram(sc6, mesh6, 50, seed=42)[0]}")
v4 = hull_volume(sc6, force=True)
print(f"wobble(3) m=4 formula {v4.volume:.4f} vs hull {mesh_volume(mesh6):.4f} "
      f"(off by {abs(v4.volume / mesh_volume(mesh6) - 1) * 100:.1f}%)")
