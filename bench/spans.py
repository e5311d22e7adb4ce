"""In-memory span tracer for the traced benchmark run.

The tracer replaces, from outside the package, the module attributes
through which one layer of nbreserve calls the next with wrappers that
record a span (name, start, end, parent, request) and a few exact
counts. Nothing inside ``src/`` changes; ``uninstall`` puts every
original object back. Spans stay in memory until ``write``.

A hook whose attribute no longer exists makes ``install`` raise
``HookMissing``, and an observer that cannot read a call is recorded in
``observer_errors``; the traced run fails on either. A refactor that
moves a layer boundary updates ``HOOKS`` in the same change.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# Observers read a call's arguments and result to update exact counts.
Observer = Callable[["Tracer", tuple, dict, object], None]


def _irls_done(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts["glm.irls_iters"] += int(result[5])
    if tr.open_spans["dispersion.profile_kappa"]:
        tr.counts["dispersion.profile_refits"] += 1


def _nb_mle_done(tr: "Tracer", args, kwargs, result) -> None:
    if result[3]:
        tr.counts["kappa_at_cap.nb_mle"] += 1


def _profile_done(tr: "Tracer", args, kwargs, result) -> None:
    if result.at_boundary:
        tr.counts["kappa_at_cap.profile"] += 1


def _engine_done(tr: "Tracer", args, kwargs, result) -> None:
    spec = args[0] if args else kwargs["spec"]
    tr.counts["bootstrap.replicates"] += int(spec.b)
    tr.counts["bootstrap.refit_failed"] += int(result[2])


def _refit_done(tr: "Tracer", args, kwargs, result) -> None:
    # a replicate takes the dropped-level path when a synthetic factor
    # level sums to zero; this reads the input, not the engine's branch
    y_star, spec = args[0], args[1]
    ay = np.bincount(spec.ay_idx, weights=y_star, minlength=spec.n_ay)
    dy = np.bincount(spec.dy_idx, weights=y_star, minlength=spec.n_dy)
    if not (np.all(ay > 0) and np.all(dy > 0)):
        tr.counts["bootstrap.dropped_level"] += 1


def _study_done(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts["simulation.method_failed"] += sum(m.n_failed for m in result.methods)


# (span name, bindings "module:attr" or "module:Class.attr", observer).
# Hooks are installed in order, each wrapping the attribute's current
# value, so a later hook on the same binding nests outside an earlier one
# (predictive.base_fit encloses dispersion.nb_mle).
HOOKS: Sequence[Tuple[str, Sequence[str], Optional[Observer]]] = (
    ("triangle.read", ("cli:read_triangle", "triangle:read_triangle"), None),
    ("triangle.parse", ("triangle:parse_triangle",), None),
    ("triangle.serialize", ("triangle:serialize_triangle",), None),
    ("chainladder.chain_ladder",
     ("chainladder:chain_ladder", "predictive:chain_ladder", "simulation:chain_ladder", "cli:chain_ladder"), None),
    ("glm.irls", ("glm:_irls", "dispersion:_irls", "_bootstrap:_irls", "simulation:_irls"), _irls_done),
    ("glm.fit", ("glm:fit", "cli:glm_fit"), None),
    ("dispersion.nb_mle",
     ("dispersion:nb_mle", "predictive:nb_mle", "simulation:nb_mle"), _nb_mle_done),
    ("dispersion.solve_kappa", ("dispersion:_solve_kappa",), None),
    ("dispersion.profile_kappa", ("dispersion:profile_kappa",), _profile_done),
    ("dispersion.overdispersion_test", ("dispersion:overdispersion_test",), None),
    ("rng.substream", ("_bootstrap:substream", "simulation:substream"), None),
    ("bootstrap.run", ("_bootstrap:run",), _engine_done),
    ("bootstrap.draw", ("_bootstrap:draw_counts",), None),
    ("bootstrap.refit", ("_bootstrap:_refit",), _refit_done),
    ("bootstrap.design", ("_bootstrap:build_design",), None),
    ("predictive.sample_nb", ("predictive:sample_nb", "simulation:sample_nb"), None),
    ("predictive.base_fit", ("predictive:nb_mle",), None),
    ("predictive.bootstrap", ("predictive:bootstrap",), None),
    ("predictive.summarize", ("predictive:summarize", "predictive:ay_summary"), None),
    ("simulation.run_study", ("simulation:run_study",), _study_done),
    ("simulation.generate", ("simulation:generate",), None),
    ("simulation.method_base", ("simulation:_method_base",), None),
    ("diagnostics.pearson_residuals", ("diagnostics:pearson_residuals",), None),
    ("cli.load", ("cli:_load_triangle",), None),
    ("cli.write", ("cli:_Run.write_text", "cli:_Run.write_json", "cli:_Run.finish"), None),
)

# Called too often for a span each; counted only.
COUNTERS: Sequence[Tuple[str, str]] = (("glm.deviance_evals", "glm:Family.deviance"),)


class HookMissing(Exception):
    """A hooked binding no longer exists in the package."""


def _resolve(binding: str):
    """(owner, attribute name, current value) of a ``module:attr`` binding."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(f"nbreserve.{module_name}")
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise HookMissing(f"trace hook {binding} not found ({exc}); update HOOKS in bench/spans.py") from None


class Tracer:
    """Records spans and counts while its hooks are installed."""

    def __init__(self) -> None:
        # (name, start, end, parent, request); None while the span is open
        self.spans: List[Optional[tuple]] = []
        self.counts: Counter = Counter()
        self.open_spans: Counter = Counter()
        self.request: int = -1
        self.observer_errors: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def wrap(self, name: str, func, observe: Optional[Observer] = None):
        """``func`` recording a span named ``name`` per call."""
        spans, stack, open_spans = self.spans, self._stack, self.open_spans

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            open_spans[name] += 1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_spans[name] -= 1
                spans[sid] = (name, start, end, parent, self.request)
            if observe is not None:
                # an observer error must not reach the package's own handlers
                try:
                    observe(self, args, kwargs, result)
                except Exception as exc:
                    self.observer_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    def _count(self, key: str, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, binding: str, make) -> None:
        owner, attr, original = _resolve(binding)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for name, bindings, observe in HOOKS:
            for binding in bindings:
                self._patch(binding, lambda f, n=name, o=observe: self.wrap(n, f, o))
        for key, binding in COUNTERS:
            self._patch(binding, lambda f, k=key: self._count(k, f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def inclusive(self, *names: str) -> float:
        """Seconds covered by spans of ``names``, counting nested ones once."""
        group = set(names)
        spans = self.spans
        total = 0.0
        for s in spans:
            if s[0] not in group:
                continue
            parent = s[3]
            while parent >= 0 and spans[parent][0] not in group:
                parent = spans[parent][3]
            if parent < 0:
                total += s[2] - s[1]
        return total

    def table(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its
        direct children.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: Dict[str, List[float]] = {}
        for sid, s in enumerate(self.spans):
            row = out.setdefault(s[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += s[2] - s[1] - child[sid]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "columns": ["id", "name", "start", "end", "parent", "request"],
            "names": names,
            "spans": [
                [sid, index[s[0]], s[1], s[2], s[3], s[4]]
                for sid, s in enumerate(self.spans)
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def layer_metrics(tr: Tracer, parallel_eff: float = 0.0) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics named as in BENCHMARK.json, with their units.

    Times are inclusive seconds of the layer's outermost spans; counts
    are exact. A layer the workload does not reach reads 0.
    """
    t, c = tr.inclusive, tr.counts
    replicates = c["bootstrap.replicates"]
    useful = (replicates - c["bootstrap.refit_failed"]) / replicates if replicates else 0.0
    return {
        "triangle.io_s": (t("triangle.read", "triangle.parse", "triangle.serialize"), "s"),
        "chainladder.s": (t("chainladder.chain_ladder"), "s"),
        "glm.irls_calls": (tr.calls("glm.irls"), "count"),
        "glm.irls_iters": (c["glm.irls_iters"], "count"),
        "glm.deviance_evals": (c["glm.deviance_evals"], "count"),
        "glm.irls_s": (t("glm.irls"), "s"),
        "glm.fit_s": (t("glm.fit"), "s"),
        "dispersion.nb_mle_calls": (tr.calls("dispersion.nb_mle"), "count"),
        "dispersion.nb_mle_s": (t("dispersion.nb_mle"), "s"),
        "dispersion.kappa_solve_calls": (tr.calls("dispersion.solve_kappa"), "count"),
        "dispersion.kappa_solve_s": (t("dispersion.solve_kappa"), "s"),
        "dispersion.kappa_at_cap": (c["kappa_at_cap.nb_mle"] + c["kappa_at_cap.profile"], "count"),
        "dispersion.profile_s": (t("dispersion.profile_kappa"), "s"),
        "dispersion.profile_refits": (c["dispersion.profile_refits"], "count"),
        "dispersion.odtest_s": (t("dispersion.overdispersion_test"), "s"),
        "rng.substreams": (tr.calls("rng.substream"), "count"),
        "rng.substream_s": (t("rng.substream"), "s"),
        "bootstrap.replicates": (replicates, "count"),
        "bootstrap.dropped_level": (c["bootstrap.dropped_level"], "count"),
        "bootstrap.refit_failed": (c["bootstrap.refit_failed"], "count"),
        "bootstrap.useful_ratio": (useful, "ratio"),
        "bootstrap.draw_s": (t("bootstrap.draw"), "s"),
        "bootstrap.refit_s": (t("bootstrap.refit"), "s"),
        "bootstrap.design_s": (t("bootstrap.design"), "s"),
        "bootstrap.parallel_eff": (parallel_eff, "ratio"),
        "predictive.base_fit_s": (t("predictive.base_fit"), "s"),
        "predictive.summarize_s": (t("predictive.summarize"), "s"),
        "simulation.generate_s": (t("simulation.generate"), "s"),
        "simulation.method_base_s": (t("simulation.method_base"), "s"),
        "simulation.method_failed": (c["simulation.method_failed"], "count"),
        "diagnostics.residuals_s": (t("diagnostics.pearson_residuals"), "s"),
        "cli.load_s": (t("cli.load"), "s"),
        "cli.write_s": (t("cli.write"), "s"),
    }
