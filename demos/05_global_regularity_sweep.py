"""The headline experiment: global W^{1,2} control of the transformed strain.

For each growth exponent the degenerate problem is solved through a
truncation continuation (quadratic-growth stages, warm-started), and the
W^{1,2} data of v_map(eps u) is compared against the conjugate modulars of
the forcing and its gradient.  The ratio must stay bounded as the mesh is
refined and the truncation is released; that is the measurable content of
the global regularity estimate.  Run with:

    python demos/05_global_regularity_sweep.py
"""

from orliczfem import PowerLaw, build_mesh, default_disk_forcing, regularity_ratio

print(f"{'p':>4s} {'h':>7s} {'lhs':>10s} {'rhs':>10s} {'ratio':>9s}")
for p in (1.3, 1.5, 2.0, 3.0, 4.0):
    spec = PowerLaw(p)
    for h in (1 / 4, 1 / 8, 1 / 16):
        f = default_disk_forcing(build_mesh("unit_disk", h))
        report, stages = regularity_ratio(spec, f)
        print(f"{p:4.1f} {h:7.4f} {report.lhs:10.5f} {report.rhs:10.5f} {report.ratio:9.5f}")
    ratios = [s.w12_total / report.rhs for s in stages]
    cauchy = [s.cauchy_prev for s in stages[1:]]
    print(f"      stage ratios at finest h: {[f'{r:.5f}' for r in ratios]}")
    print(f"      transform Cauchy distances: {[f'{c:.2e}' for c in cauchy]}")
