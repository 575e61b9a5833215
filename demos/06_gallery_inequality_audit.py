"""
Auditing V + 2K >= 4 + P across the gallery
===========================================

For a closed curve lying on its own convex hull, the count of torsion sign
changes V, corner count K, and the number of flat hull patches P obey
V + 2K >= 4 + P. This script runs the bookkeeping on every gallery curve
that qualifies and reports the slack. The wobble family is the interesting
row: its two flat caps push P to 2 and the inequality closes to an equality.
"""

from curvehull import (
    count_vertices,
    four_vertex_slack,
    frenet_profile,
    gallery,
    is_convex_curve,
    sample_uniform,
    support_polygons,
)

print("curve         V    P  slack  satisfied")
for spec in ("saddle", "baseball", "wobble:k=3", "wobble:k=5", "ellipse", "trefoil"):
    entry = gallery.get(spec)
    if entry.planar:
        print(f"{spec:12s}  planar: torsion never leaves zero, nothing to count")
        continue
    convexity = is_convex_curve(sample_uniform(entry.curve, 500))
    if not convexity.is_convex:
        print(f"{spec:12s}  not convex: inequality preconditions fail")
        continue
    vrep = count_vertices(frenet_profile(entry.curve, 4096))
    srep = support_polygons(convexity)
    slack = four_vertex_slack(vrep.vertex_count, srep.count)
    print(f"{spec:12s} {vrep.vertex_count:2d}   {srep.count:2d}  {slack:5d}  {slack >= 0}")

print()
print("wobble(3)'s patches are the planes z = +1 and z = -1, each resting on")
print("the three crests (or troughs) of sin 3t: V + 2K = 6 = 4 + P, no slack")
