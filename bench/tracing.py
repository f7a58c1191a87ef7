"""Span tracing of littleweyl from outside the library.

``Tracer.install()`` wraps a fixed list of public functions and methods.  A
module-level function is rebound in every ``littleweyl.*`` module attribute
that *is* the original object, because ``from .linalg import rref`` binds a
separate name in each importing module; a method is rebound on its class.
Per-element helpers (``dot``, ``vec_add``, ...) are deliberately not wrapped:
they run millions of times per pass.

Every call records one span (name, start, end, parent span, run id) in flat
in-memory arrays.  Span times are read from the process CPU clock
(``time.process_time``), like a pass's ``pass_cpu_s``, so that time the
hypervisor takes from the process does not land in whichever span was open.  Call counts, inclusive times and per-layer self times are
computed from the spans after the pass; ``write_spans`` dumps them as CSV.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = (
    "cli",
    "verify",
    "weyl",
    "spherical",
    "cones",
    "limits",
    "lie",
    "linalg",
    "serialize",
    "catalog",
)

# layer -> traced attributes of littleweyl.<layer>; "Class.method" for methods.
TRACED = {
    "cli": ("main", "build_report"),
    "verify": (
        "structural_invariants",
        "weyl_invariants",
        "lie_invariants",
        "verify_space",
        "check_entry",
        "check_claims",
        "limit_oracle_suite",
        "run_entry",
    ),
    "weyl": (
        "little_weyl_group",
        "weyl_from_limits",
        "wall_reflection",
        "spherical_roots",
        "limits_agree_with_walls",
    ),
    "spherical": (
        "analyze",
        "compression_cone",
        "is_admissible",
        "find_admissible",
        "boundary_degeneration",
        "order_regular_chambers",
        "compression_cone_of_point",
        "is_adapted",
        "translate",
        "phi",
        "recover_q",
    ),
    "cones": (
        "enumerate_chambers",
        "Cone.from_inequalities",
        "Cone.from_rays",
        "Cone.walls",
        "Cone.faces",
        "Cone.dual",
        "Cone.intersect",
    ),
    "limits": (
        "limit_subspace",
        "float_flow_oracle",
        "filtration_degenerate",
        "graded_direction",
        "order_regular_hyperplanes",
    ),
    "lie": (
        "build_from_cartan",
        "LieAlgebraData.validate",
        "LieAlgebraData.weyl_lift",
        "LieAlgebraData.exp_ad",
        "LieAlgebraData.torus_ad",
        "LieAlgebraData.sign_character_ad",
        "LieAlgebraData.weyl_group_on_a",
        "LieAlgebraData.m_sign_characters",
        "LieAlgebraData.centralizer_in_g",
        "LieAlgebraData.is_subalgebra",
    ),
    "linalg": (
        "rref",
        "mat_mul",
        "kernel",
        "solve",
        "mat_inverse",
        "Subspace.restrict_to_coordinates",
        "Subspace.intersect",
        "Subspace.transform",
    ),
    "serialize": ("load_space_file", "space_from_json", "dumps_canonical"),
    "catalog": ("list_entries", "get_entry", "CatalogEntry.lie", "CatalogEntry.base_point"),
}

# Per-layer metrics of the traced run.  A ".calls" metric counts the spans of
# its span names; a ".s" metric sums the durations of its outermost spans.
CALL_METRICS = {
    "lie.weyl_lift.calls": ("lie.LieAlgebraData.weyl_lift",),
    "lie.exp_ad.calls": ("lie.LieAlgebraData.exp_ad",),
    "linalg.rref.calls": ("linalg.rref",),
    "linalg.mat_mul.calls": ("linalg.mat_mul",),
    "linalg.restrict_to_coordinates.calls": ("linalg.Subspace.restrict_to_coordinates",),
    "cones.dd.calls": ("cones.Cone.from_inequalities", "cones.Cone.from_rays"),
    "limits.limit_subspace.calls": ("limits.limit_subspace",),
    "spherical.analyze.calls": ("spherical.analyze",),
    "spherical.is_admissible.calls": ("spherical.is_admissible",),
    "spherical.compression_cone.calls": ("spherical.compression_cone",),
    "weyl.wall_reflection.calls": ("weyl.wall_reflection",),
}
TIME_METRICS = {
    "lie.build_from_cartan.s": "lie.build_from_cartan",
    "lie.validate.s": "lie.LieAlgebraData.validate",
    "lie.weyl_lift.s": "lie.LieAlgebraData.weyl_lift",
    "lie.exp_ad.s": "lie.LieAlgebraData.exp_ad",
    "linalg.rref.s": "linalg.rref",
    "linalg.mat_mul.s": "linalg.mat_mul",
    "cones.enumerate_chambers.s": "cones.enumerate_chambers",
    "cones.walls.s": "cones.Cone.walls",
    "cones.faces.s": "cones.Cone.faces",
    "limits.limit_subspace.s": "limits.limit_subspace",
    "limits.float_flow_oracle.s": "limits.float_flow_oracle",
    "spherical.analyze.s": "spherical.analyze",
    "spherical.is_admissible.s": "spherical.is_admissible",
    "spherical.find_admissible.s": "spherical.find_admissible",
    "spherical.boundary_degeneration.s": "spherical.boundary_degeneration",
    "weyl.weyl_from_limits.s": "weyl.weyl_from_limits",
    "weyl.little_weyl_group.s": "weyl.little_weyl_group",
    "weyl.spherical_roots.s": "weyl.spherical_roots",
    "verify.structural_invariants.s": "verify.structural_invariants",
    "verify.verify_space.s": "verify.verify_space",
    "verify.check_entry.s": "verify.check_entry",
    "verify.limit_oracle_suite.s": "verify.limit_oracle_suite",
    "serialize.load_space_file.s": "serialize.load_space_file",
    "serialize.dumps_canonical.s": "serialize.dumps_canonical",
    "cli.build_report.s": "cli.build_report",
}
CHAMBER_METRIC = "cones.chambers.count"
SELF_METRICS = {f"{layer}.self_s": layer for layer in LAYERS}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.run_id = 0
        self.chambers = 0
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.process_time
        stack = self.stack
        sname, sparent, srun = self.span_name, self.span_parent, self.span_run
        sstart, send = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(sname)
            sname.append(nid)
            sparent.append(stack[-1])
            srun.append(self.run_id)
            send.append(0.0)
            stack.append(sid)
            sstart.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                send[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_chambers(self, chamber_set) -> None:
        self.chambers += chamber_set.count

    def install(self) -> None:
        """Wrap every entry of TRACED.  Call once, after importing littleweyl."""
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "littleweyl" or n.startswith("littleweyl."))
        ]
        for layer, attrs in TRACED.items():
            mod = importlib.import_module(f"littleweyl.{layer}")
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = inspect.getattr_static(cls, meth, None) if cls else None
                    if raw is None:
                        self.missing.append(name)
                        continue
                    if isinstance(raw, staticmethod):
                        setattr(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
                    elif isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(name, raw))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    self.missing.append(name)
                    continue
                hook = self._count_chambers if name == "cones.enumerate_chambers" else None
                wrapped = self._wrap(name, orig, hook)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)

    # -- analysis ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts, inclusive times and per-layer self times from the spans."""
        n = len(self.span_name)
        names = self.names
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        calls = [0] * len(names)
        inclusive = [0.0] * len(names)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        # open_count[nid] > 0 while a span of that name is an ancestor.  Spans
        # are stored in start order, so a walk with a stack of open spans
        # visits each subtree contiguously.
        open_count = [0] * len(names)
        path: list[int] = []
        for i in range(n):
            parent = self.span_parent[i]
            while path and path[-1] != parent:
                open_count[self.span_name[path.pop()]] -= 1
            nid = self.span_name[i]
            calls[nid] += 1
            if open_count[nid] == 0:
                inclusive[nid] += dur[i]
            open_count[nid] += 1
            path.append(i)
            if parent >= 0:
                child[parent] += dur[i]
        for i in range(n):
            layer = names[self.span_name[i]].split(".", 1)[0]
            layer_self[layer] += dur[i] - child[i]
        by_name = {names[k]: k for k in range(len(names))}

        def total(values, name):
            k = by_name.get(name)
            return values[k] if k is not None else 0

        out: dict[str, float] = {}
        for metric, span_names in CALL_METRICS.items():
            out[metric] = sum(total(calls, s) for s in span_names)
        for metric, span_name in TIME_METRICS.items():
            out[metric] = total(inclusive, span_name)
        out[CHAMBER_METRIC] = self.chambers
        for metric, layer in SELF_METRICS.items():
            out[metric] = layer_self[layer]
        return out

    def write_spans(self, path: str) -> None:
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,run\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i] - t0:.9f},{self.span_end[i] - t0:.9f},"
                    f"{self.span_parent[i]},{self.span_run[i]}\n"
                )
