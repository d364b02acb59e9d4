"""Spans for the traced run, recorded from outside the library.

``Tracer.install`` replaces public functions of satmigrate's modules (and
``DpllSolver.solve``) with wrappers that open a span, call the original and
close the span; ``uninstall`` puts the originals back. Only the traced run
installs them, so the untraced run executes the library unchanged. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

from satmigrate import cli, controlfile, encoder, engine, repo, satcore

FAMILIES = ("u", "e", "i", "d", "c")
LAYERS = ("cli", "controlfile", "repo", "closure", "encoder", "satcore", "engine")

# Inclusive time of these spans, as mean seconds per traced operation.
TIMED = {
    "controlfile.parse_s": "controlfile.parse",
    "repo.build_universe_s": "repo.build_universe",
    "repo.check_testing_s": "repo.check_testing",
    "repo.is_admissible_s": "repo.is_admissible",
    "closure.index_s": "closure.index",
    "encoder.encode_s": "encoder.encode",
    "satcore.pmax_s": "satcore.pmax",
    "satcore.mus_s": "satcore.mus",
    "satcore.emit_dimacs_s": "satcore.emit_dimacs",
    "engine.objective_s": "engine.objective",
    "engine.restore_shared_s": "engine.restore_shared",
}


class Span:
    __slots__ = ("op", "name", "layer", "start", "end", "parent", "attrs")

    def __init__(self, op, name, layer, start, parent):
        self.op = op
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1
        self.ops: list[dict] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(self.op, name, layer, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans[index + 1:] if s.parent == index]

    def _wrap(self, owner, attr: str, name: str, layer: str, after=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer.spans[index], index, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- hooks that record counts at the layer boundaries ---------------------

    @staticmethod
    def _after_parse(span, index, args, kwargs, result):
        span.attrs["stanzas"] = len(result)

    @staticmethod
    def _after_dpll(span, index, args, kwargs, result):
        span.attrs["required"] = kwargs.get("required_soft", 0)
        span.attrs["status"] = result.status.value
        span.attrs["model"] = result.true_atoms

    def _after_pmax(self, span, index, args, kwargs, result):
        soft = args[1] if len(args) > 1 else kwargs["soft"]
        steps = [s for s in self.children(index) if s.name == "satcore.dpll"]
        span.attrs["steps"] = len(steps)
        span.attrs["bounds"] = [s.attrs["required"] for s in steps]
        first = steps[0].attrs["model"] if steps else None
        if soft and first is not None:
            span.attrs["first_ratio"] = satcore.count_satisfied(soft, first) / len(soft)
        last = steps[-1] if steps else None
        span.attrs["proof_s"] = (last.end - last.start
                                 if last is not None and len(steps) > 1
                                 and last.attrs["status"] == "unsat" else 0.0)
        for s in steps:
            s.attrs.pop("model", None)

    def _after_mus(self, span, index, args, kwargs, result):
        span.attrs["sat_calls"] = sum(1 for s in self.children(index)
                                      if s.name == "satcore.solve_sat")
        span.attrs["core"] = len(result.core)

    def _after_solve_sat(self, span, index, args, kwargs, result):
        for s in self.children(index):
            s.attrs.pop("model", None)

    @staticmethod
    def _keep_result(span, index, args, kwargs, result):
        span.attrs["result"] = result

    def install(self):
        w = self._wrap
        w(controlfile, "parse_packages_stream", "controlfile.parse", "controlfile",
          self._after_parse)
        w(repo, "build_universe", "repo.build_universe", "repo")
        w(repo, "check_testing", "repo.check_testing", "repo")
        w(repo, "is_installable", "repo.is_installable", "repo")
        w(repo, "is_admissible", "repo.is_admissible", "repo")
        for owner in (cli, engine, encoder):
            w(owner, "ClosureIndex", "closure.index", "closure", self._keep_result)
        w(encoder, "build_encoding", "encoder.encode", "encoder", self._keep_result)
        w(engine, "attach_objective", "engine.objective", "engine")
        w(engine, "solve_migration", "engine.solve_migration", "engine")
        w(engine, "explain_non_migration", "engine.explain", "engine")
        w(engine, "_restore_shared", "engine.restore_shared", "engine")
        w(satcore, "solve_pmaxsat", "satcore.pmax", "satcore", self._after_pmax)
        w(satcore, "solve_sat", "satcore.solve_sat", "satcore", self._after_solve_sat)
        w(satcore.DpllSolver, "solve", "satcore.dpll", "satcore", self._after_dpll)
        w(satcore, "extract_mus", "satcore.mus", "satcore", self._after_mus)
        w(satcore, "emit_dimacs", "satcore.emit_dimacs", "satcore")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-operation bookkeeping ---------------------------------------------

    def begin_op(self, label: str):
        self.op = len(self.ops)
        self.ops.append({"label": label})
        return self.open("cli." + label.split(":")[0], "cli")

    def end_op(self, root: int):
        """Close the operation's root span and take the sizes of the objects
        it built; computing them runs outside every span."""
        self.close(root)
        op = self.ops[self.op]
        for span in self.spans[root:]:
            result = span.attrs.pop("result", None)
            if result is None:  # not a kept result, or the call raised
                continue
            if span.name == "closure.index":
                pkgs = result.packages
                op.setdefault("index", []).append({
                    "easy_share": len(result.easy) / len(pkgs) if pkgs else 0.0,
                    "connecting_p50": statistics.median(
                        len(result.connecting(p)) for p in pkgs) if pkgs else 0,
                })
            elif span.name == "encoder.encode":
                stats = encoder.instance_stats(result)
                op.setdefault("encode", []).append({
                    "atoms": stats.atoms_total, "inst_atoms": stats.inst_atoms,
                    "hard_clauses": stats.hard_clauses,
                    "soft_clauses": stats.soft_clauses,
                    **{f"clauses.{f}": stats.by_family.get(f, 0) for f in FAMILIES},
                })

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: times and counts as means per traced operation,
        instance sizes as means per encoding, ratios as means per call."""
        n = max(1, len(self.ops))
        out: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        self_time = dict.fromkeys(LAYERS, 0.0)
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        for i, span in enumerate(self.spans):
            duration = span.end - span.start
            inclusive[span.name] = inclusive.get(span.name, 0.0) + duration
            self_time[span.layer] += duration - child_time[i]
        for metric, name in TIMED.items():
            out[metric] = inclusive.get(name, 0.0) / n
        out["cli.op_s"] = sum(v for k, v in inclusive.items() if k.startswith("cli.")) / n
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer] / n

        def spans_named(name):
            return [s for s in self.spans if s.name == name]

        def mean(values):
            values = [v for v in values if v is not None]
            return sum(values) / len(values) if values else 0.0

        pmax = spans_named("satcore.pmax")
        mus = spans_named("satcore.mus")
        out["controlfile.stanzas"] = sum(s.attrs.get("stanzas", 0) for s in
                                         spans_named("controlfile.parse")) / n
        out["repo.installability_queries"] = sum(
            1 for s in spans_named("satcore.solve_sat")
            if s.parent >= 0 and self.spans[s.parent].name == "repo.is_installable") / n
        out["satcore.sat_calls"] = len(spans_named("satcore.solve_sat")) / n
        # a call that raised has no attributes
        out["satcore.pmax_steps"] = sum(s.attrs.get("steps", 0) for s in pmax) / n
        out["satcore.pmax_first_ratio"] = mean(s.attrs.get("first_ratio") for s in pmax)
        out["satcore.pmax_proof_s"] = sum(s.attrs.get("proof_s", 0.0) for s in pmax) / n
        out["satcore.mus_sat_calls"] = sum(s.attrs.get("sat_calls", 0) for s in mus) / n
        out["satcore.mus_core_size"] = mean(s.attrs.get("core") for s in mus)
        index = [x for op in self.ops for x in op.get("index", ())]
        out["closure.easy_share"] = mean(x["easy_share"] for x in index)
        out["closure.connecting_p50"] = mean(x["connecting_p50"] for x in index)
        encodes = [x for op in self.ops for x in op.get("encode", ())]
        for key in ("atoms", "inst_atoms", "hard_clauses", "soft_clauses",
                    *(f"clauses.{f}" for f in FAMILIES)):
            out[f"encoder.{key}"] = mean(x[key] for x in encodes)
        return out

    def bound_trajectories(self) -> list[list[int]]:
        return [s.attrs.get("bounds", []) for s in self.spans if s.name == "satcore.pmax"]

    def write(self, path):
        """Write every span as one JSON list per line."""
        with open(path, "w") as handle:
            for s in self.spans:
                attrs = {k: v for k, v in s.attrs.items() if k != "model"}
                handle.write(json.dumps([s.op, s.name, s.layer, round(s.start, 7),
                                         round(s.end, 7), s.parent, attrs]) + "\n")
