"""Per-layer tracing from outside the package.

A :class:`Tracer` replaces each traced name with a timing wrapper: in the
module that defines it, in every ``cubicfano`` module that imported it by
name, in the benchmark's ``workloads`` module, and on its class for a
method.  The wrappers share one span stack, so
each span's self time is its duration minus the time of the traced spans it
encloses.  :meth:`Tracer.uninstall` puts every original back.

Layers are the package modules.  The functions below turn the recorded spans
and counters into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MARK = "__perfbench_wrapper__"


def _patched_modules() -> list:
    """The package modules, and the benchmark module that calls into them."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name in ("cubicfano", "workloads") or name.startswith("cubicfano."))]

LAYERS = ("gf", "kernels", "forms", "linalg", "projective", "threefold",
          "pencil", "fano", "torsor", "rationality", "fourfold")


def _gf_init(tracer, args, kwargs, result, dt):
    tracer.fields.append(args[0])


def _eval_points(tracer, args, kwargs, result, dt):
    points = args[5] if len(args) > 5 else kwargs["points"]
    tracer.counts["kernels.eval_points"] += len(points)


def _threefold_accepted(tracer, args, kwargs, result, dt):
    if result is not None:
        tracer.counts["threefold.accepted"] += 1


def _letter_scan(tracer, args, kwargs, result, dt):
    excluded = args[0]._excluded
    if excluded is not None:
        tracer.counts["torsor.excluded_letters"] += len(excluded)


def _sum_points(tracer, args, kwargs, result, dt):
    escalate = args[3] if len(args) > 3 else kwargs.get("escalate", True)
    if not escalate:
        tracer.counts["torsor.inner_calls"] += 1
        tracer.counts["torsor.inner_s"] += dt


def _local_solvability(tracer, args, kwargs, result, dt):
    if result is not None and result.solvable:
        tracer.counts["rationality.solvable"] += 1


def _decide_over_rationals(tracer, args, kwargs, result, dt):
    if result is not None and (result.bounds or {}).get("points_found", 0) >= 2500:
        tracer.counts["rationality.points_capped"] += 1


def _fiber_scan(tracer, args, kwargs, result, dt):
    if result is not None:
        tracer.counts["fourfold.fibers"] += len(result)
        tracer.counts["fourfold.fibers_equal"] += sum(1 for r in result if r.equal)


# (layer, defining module, class or None, attribute, hook)
TARGETS = (
    ("gf", "cubicfano.gf", "GF", "__init__", _gf_init),
    ("kernels", "cubicfano.kernels", None, "eval_form_batch", _eval_points),
    ("forms", "cubicfano.forms", "BinaryForm", "roots", None),
    ("forms", "cubicfano.forms", "HomogeneousForm", "substitute", None),
    ("linalg", "cubicfano.linalg", None, "rref", None),
    ("projective", "cubicfano.projective", None, "line_meets", None),
    ("projective", "cubicfano.projective", None, "residual_line", None),
    ("threefold", "cubicfano.threefold", None, "random_threefold_through_plane", None),
    ("threefold", "cubicfano.threefold", None, "random_general_threefold", _threefold_accepted),
    ("threefold", "cubicfano.threefold", None, "certify_generality", None),
    ("threefold", "cubicfano.threefold", None, "compute_Z", None),
    ("pencil", "cubicfano.pencil", None, "discriminant", None),
    ("pencil", "cubicfano.pencil", None, "rulings_of_fiber", None),
    ("pencil", "cubicfano.pencil", None, "zeta", None),
    ("fano", "cubicfano.fano", "FanoSurface", "__init__", None),
    ("fano", "cubicfano.fano", "FanoSurface", "involution", None),
    ("torsor", "cubicfano.torsor", "TorsorGroup", "_scan_letters", _letter_scan),
    ("torsor", "cubicfano.torsor", "TorsorGroup", "sum_points", _sum_points),
    ("rationality", "cubicfano.rationality", None, "decide_over_rationals", _decide_over_rationals),
    ("rationality", "cubicfano.rationality", None, "local_solvability", _local_solvability),
    ("rationality", "cubicfano.rationality", None, "hilbert_symbol", None),
    ("fourfold", "cubicfano.fourfold", None, "certify_fourfold", None),
    ("fourfold", "cubicfano.fourfold", None, "fiber_scan", _fiber_scan),
)


class Tracer:
    """Spans and counters of one traced phase of a run."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        # span key -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.fields: list = []
        self.stack: list[list[float]] = []

    def _wrap(self, key: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            tracer.stack.append(children)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][0] += dt
                span = tracer.spans[key]
                span[0] += 1
                span[1] += dt
                span[2] += dt - children[0]
                if hook is not None:
                    hook(tracer, args, kwargs, result, dt)

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        modules = _patched_modules()
        for layer, module_name, cls_name, attr, hook in TARGETS:
            key = f"{layer}.{(cls_name + '.') if cls_name else ''}{attr}"
            module = sys.modules[module_name]
            if cls_name:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self.patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(key, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(key, original, hook)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self.patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []


def installed_wrappers() -> list[str]:
    """Names in the patched modules and their classes that are tracing wrappers."""
    found = []
    for module in _patched_modules():
        name = module.__name__
        for attr, value in list(vars(module).items()):
            if getattr(value, MARK, False):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                found += [f"{name}.{attr}.{a}" for a, v in vars(value).items() if getattr(v, MARK, False)]
    return found


def table_mb(fields) -> float:
    """Bytes of every numpy array a built field holds, in MiB."""
    total = 0
    for K in fields:
        for value in vars(K).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif isinstance(value, dict):
                total += sum(v.nbytes for v in value.values() if isinstance(v, np.ndarray))
    return total / 2**20


def layer_metrics(setup: Tracer, run: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: field builds over set-up and pass, the rest over the pass."""

    def calls(key):
        return run.spans[key][0] if key in run.spans else 0

    def secs(key):
        return run.spans[key][1] if key in run.spans else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    fields = setup.fields + run.fields
    builds = setup.spans["gf.GF.__init__"][0] + calls("gf.GF.__init__")
    build_s = setup.spans["gf.GF.__init__"][1] + secs("gf.GF.__init__")
    c = run.counts
    outer_sums = calls("torsor.TorsorGroup.sum_points") - c["torsor.inner_calls"]
    m = {
        "gf.fields_built": (builds, "count"),
        "gf.build_s": (build_s, "s"),
        "gf.table_mb": (table_mb(fields), "MB"),
        "kernels.eval_calls": (calls("kernels.eval_form_batch"), "count"),
        "kernels.eval_points": (c["kernels.eval_points"], "count"),
        "kernels.eval_s": (secs("kernels.eval_form_batch"), "s"),
        "kernels.points_per_s": (ratio(c["kernels.eval_points"], secs("kernels.eval_form_batch")), "1/s"),
        "forms.roots_calls": (calls("forms.BinaryForm.roots"), "count"),
        "forms.roots_s": (secs("forms.BinaryForm.roots"), "s"),
        "forms.substitute_calls": (calls("forms.HomogeneousForm.substitute"), "count"),
        "forms.substitute_s": (secs("forms.HomogeneousForm.substitute"), "s"),
        "linalg.rref_calls": (calls("linalg.rref"), "count"),
        "linalg.rref_s": (secs("linalg.rref"), "s"),
        "projective.line_meets_calls": (calls("projective.line_meets"), "count"),
        "projective.residual_line_calls": (calls("projective.residual_line"), "count"),
        "projective.residual_line_s": (secs("projective.residual_line"), "s"),
        "threefold.sample_tries": (calls("threefold.random_threefold_through_plane"), "count"),
        "threefold.accept_frac": (ratio(c["threefold.accepted"],
                                        calls("threefold.random_threefold_through_plane")), "ratio"),
        "threefold.certify_s": (secs("threefold.certify_generality"), "s"),
        "threefold.compute_Z_s": (secs("threefold.compute_Z"), "s"),
        "pencil.discriminant_s": (secs("pencil.discriminant"), "s"),
        "pencil.rulings_calls": (calls("pencil.rulings_of_fiber"), "count"),
        "pencil.rulings_s": (secs("pencil.rulings_of_fiber"), "s"),
        "pencil.zeta_s": (secs("pencil.zeta"), "s"),
        "fano.surface_builds": (calls("fano.FanoSurface.__init__"), "count"),
        "fano.surface_s": (secs("fano.FanoSurface.__init__"), "s"),
        "fano.involution_calls": (calls("fano.FanoSurface.involution"), "count"),
        "fano.involution_s": (secs("fano.FanoSurface.involution"), "s"),
        "torsor.letter_scan_s": (secs("torsor.TorsorGroup._scan_letters"), "s"),
        "torsor.sum_calls": (outer_sums, "count"),
        "torsor.sum_s": (secs("torsor.TorsorGroup.sum_points") - c["torsor.inner_s"], "s"),
        "torsor.escalated_frac": (ratio(c["torsor.inner_calls"], outer_sums), "ratio"),
        "torsor.excluded_letters": (c["torsor.excluded_letters"], "count"),
        "rationality.decide_self_s": (run.spans["rationality.decide_over_rationals"][2]
                                      if "rationality.decide_over_rationals" in run.spans else 0.0, "s"),
        "rationality.local_solvability_calls": (calls("rationality.local_solvability"), "count"),
        "rationality.local_solvability_s": (secs("rationality.local_solvability"), "s"),
        "rationality.solvable_frac": (ratio(c["rationality.solvable"],
                                            calls("rationality.local_solvability")), "ratio"),
        "rationality.hilbert_symbol_calls": (calls("rationality.hilbert_symbol"), "count"),
        "rationality.points_capped": (c["rationality.points_capped"], "count"),
        "fourfold.certify_s": (secs("fourfold.certify_fourfold"), "s"),
        "fourfold.fiber_scan_s": (secs("fourfold.fiber_scan"), "s"),
        "fourfold.fibers_equal_frac": (ratio(c["fourfold.fibers_equal"], c["fourfold.fibers"]), "ratio"),
    }
    self_s = dict.fromkeys(LAYERS, 0.0)
    for key, (_, _, own) in run.spans.items():
        self_s[key.split(".", 1)[0]] += own
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    return m
