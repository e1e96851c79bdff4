"""Per-layer metrics read from a traced pass.

Each group names traced targets, the fields reported for each, and the
end-to-end metric and workload the group is expected to move. A later change
that claims a gain on one layer cites these names; the prediction column is
written down before any such change is measured.
"""

from __future__ import annotations

STANDARD = ("calls", "total_s", "self_s")

# The eight check functions with the most total time on verify-all (seeds 0
# and 1 rank them alike). Their own code is thin, so self_s is small and
# total_s shows which layers below them a change moved.
COSTLIEST_CHECKS = (
    "inequalities.check_reverse_isoperimetric",
    "inequalities.check_pointwise_global",
    "inequalities.check_set_sobolev",
    "inequalities.check_gauss_law",
    "inequalities.check_function_sobolev",
    "inequalities.check_cauchy_formula",
    "inequalities.check_flat_subset_bound",
    "inequalities.check_localized_identity",
)

# (traced labels, fields, what the group should move)
GROUPS = [
    (("geometry.ray_exits",), ("calls", "rays", "self_s"),
     "verify-all wall_s; no change on flow-planar"),
    (("quadrature.graded_half_rule", "nonlocal_ops.halpha_chord"), STANDARD,
     "verify-all wall_s; no change on flow-planar"),
    (("geometry.facet_normals", "geometry.facet_offsets", "geometry.sphere_cap_measure",
      "icosphere.sphere_mesh", "geometry.surface_quadrature"), STANDARD,
     "verify-all wall_s; cost moved into body construction shows in setup_s"),
    (("geometry.refine_towards",), ("calls", "cells", "self_s"),
     "surface-ops op_p50_ms and op_p90_ms"),
    (("nonlocal_ops.halpha_boundary", "nonlocal_ops._own_cell_sum"), STANDARD,
     "surface-ops op_p50_ms and op_p90_ms"),
    (("nonlocal_ops.interaction_matrix",), ("calls", "pairs", "self_s"),
     "surface-ops wall_s and peak_rss_mb; verify-all wall_s less so"),
    (("geometry.refine_node",), ("calls", "cells", "self_s"),
     "surface-ops wall_s and peak_rss_mb; verify-all wall_s less so"),
    (("nonlocal_ops.gagliardo", "nonlocal_ops.frac_perimeter"), STANDARD,
     "surface-ops wall_s and peak_rss_mb; verify-all wall_s less so"),
    (("flow.evaluator",), ("calls", "cells", "self_s"),
     "flow-planar items_per_s; no change on verify-all and surface-ops"),
    (("flow.marker_frame", "flow.resample"), STANDARD,
     "flow-planar items_per_s; no change on verify-all and surface-ops"),
    (("flow.restore_convexity",), ("calls", "self_s"),
     "flow-planar wall_s and oracle_rel_err"),
    (("nonlocal_ops.double_layer", "inequalities.halpha_at_nodes"), STANDARD,
     "verify-all wall_s"),
    (tuple(f"inequalities.section.{s}" for s in
           ("curvature", "localized", "functional", "classical")), ("self_s",),
     "verify-all wall_s"),
    (COSTLIEST_CHECKS, ("total_s", "self_s"), "verify-all wall_s"),
    (("cli.emit",), ("records", "self_s"), "verify-all wall_s; predicted under 1% of it"),
]

# Metrics derived from the `flow` calls and from the pass as a whole.
DERIVED = [
    ("flow.steps", "count", "lower", "flow-planar wall_s and oracle_rel_err"),
    ("flow.rehull_frac", "ratio", "lower",
     "re-hull steps over steps, a wasted-work ratio; flow-planar wall_s and oracle_rel_err"),
    ("trace.overhead_s", "s", "lower", "median traced minus median untraced pass wall time"),
    ("trace.overhead_frac", "ratio", "lower", "trace.overhead_s over untraced wall_s"),
    ("trace.covered_frac", "ratio", "higher",
     "share of the traced pass that the listed layers' self times account for"),
    ("trace.missing", "count", "lower", "listed targets not found in the package"),
]

UNITS = {"total_s": "s", "self_s": "s"}


def metric_specs():
    """(name, unit, better, prediction) for every per-layer metric."""
    specs = []
    for labels, fields, moves in GROUPS:
        for label in labels:
            for f in fields:
                specs.append((f"{label}.{f}", UNITS.get(f, "count"), "lower", moves))
    return specs + DERIVED


def layer_metrics(stats, wall_s):
    """Per-layer values from a tracer's stats; returns (values, missing labels).

    A listed target that is absent from the package reports zeros and is
    named in the missing list, so a rename shows instead of crashing.
    """
    values = {}
    missing = []
    covered = 0.0
    for labels, fields, _ in GROUPS:
        for label in labels:
            stat = stats.get(label)
            if stat is None:
                missing.append(label)
            else:
                covered += stat.self_s
            for f in fields:
                if stat is None:
                    values[f"{label}.{f}"] = 0
                elif f in stat.work:
                    values[f"{label}.{f}"] = stat.work[f]
                else:
                    values[f"{label}.{f}"] = getattr(stat, f)
    flow = stats.get("flow.flow")
    if flow is None:
        missing.append("flow.flow")
        steps = rehulls = 0
    else:
        steps, rehulls = flow.work["steps"], flow.work["rehulls"]
    values["flow.steps"] = steps
    values["flow.rehull_frac"] = rehulls / steps if steps else 0.0
    values["trace.covered_frac"] = covered / wall_s
    values["trace.missing"] = len(missing)
    return values, missing
