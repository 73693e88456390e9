"""Per-layer spans and counts for one traced pass, recorded from outside.

`Tracer.install` wraps every public function of the traced layers (modules
of the ``tptg`` package) and rebinds the wrapper at every module attribute
that holds the original, so calls between and within layers become nested
spans. Nothing in the package is edited; the wrappers live only in the
traced process.

A span is ``(function, start, end, parent)``. Spans stay in memory and are
reduced when the pass ends:

- A named stage (``STAGES``) is charged with the self time of its spans:
  each span's duration minus its child spans. A span outside every stage
  charges its self time to the nearest enclosing stage, or to
  ``traced_other_s`` when none encloses it.
- ``untraced_s`` is job time outside every span (mostly CLI orchestration).

Counts are taken from the arguments and results at the layer boundaries
(``HOOKS``) and must repeat exactly between two traced passes. They come
from returned results, so a call that raises adds no count.
"""

import inspect
import sys
import time

LAYERS = ("dsl", "elaborate", "model", "semantics", "game", "solver")

#: stage metric -> functions whose spans it is charged with
STAGES = {
    "dsl.parse_s": ("dsl.parse", "dsl.parse_property"),
    "elaborate.to_tptg_s": ("elaborate.to_tptg",),
    "model.compose_s": ("model.compose",),
    "model.validate_s": ("model.validate_assumptions",),
    "semantics.build_s": ("semantics.build",),
    "solver.qualitative_s": ("solver.qualitative_reach",),
    "solver.value_s": ("solver.prob_reach", "solver.expected_price"),
    "solver.synthesize_s": ("solver.synthesize",),
    "solver.certify_s": ("solver.prob_reach_values_only", "solver.expected_price_values_only"),
}
STAGE_OF = {fn: stage for stage, fns in STAGES.items() for fn in fns}

COUNTS = (
    "elaborate.product_locations",
    "semantics.builds",
    "semantics.states",
    "semantics.moves",
    "semantics.branches",
    "semantics.reachable_locations",
    "semantics.location_yield",  # reachable / product locations of built models
    "solver.solves",
    "solver.qualitative_calls",
    "solver.sweeps",
    "solver.backups",
    "solver.active_states",
    "solver.pinned_states",
)


def _count_elaborated(counts, args, result):
    counts["elaborate.product_locations"] += len(result.locations)


def _count_build(counts, args, result):
    model = args["model"]
    counts["semantics.builds"] += 1
    counts["semantics.states"] += len(result.states)
    counts["semantics.moves"] += sum(len(ms) for ms in result.moves)
    counts["semantics.branches"] += sum(len(m.branches) for ms in result.moves for m in ms)
    counts["semantics.reachable_locations"] += len({s.location for s in result.states})
    counts["semantics.model_locations"] += len(model.locations)


def _count_solve(counts, args, result):
    """Active states are those value iteration sweeps; the rest are pinned
    by qualitative analysis (prob0 and prob1 for reachability; targets and
    infinite states for expected price)."""
    game, targets = args["game"], args["targets"]
    n = len(game.states)
    if result.objective.kind == "prob-reach":
        active = n - len(result.prob0 | result.prob1)
    else:
        target_set = game.labels[targets] if isinstance(targets, str) else frozenset(targets)
        active = len(result.prob1 - target_set)
    counts["solver.solves"] += 1
    counts["solver.sweeps"] += result.iterations
    counts["solver.backups"] += result.iterations * active
    counts["solver.active_states"] += active
    counts["solver.pinned_states"] += n - active


def _count_qualitative(counts, args, result):
    counts["solver.qualitative_calls"] += 1


HOOKS = {
    "elaborate.to_tptg": _count_elaborated,
    "semantics.build": _count_build,
    "solver.prob_reach": _count_solve,
    "solver.expected_price": _count_solve,
    "solver.qualitative_reach": _count_qualitative,
}

#: functions the metrics depend on; a missing one is reported, not fatal
REQUIRED = tuple(sorted(set(STAGE_OF) | set(HOOKS)))


class Tracer:
    def __init__(self):
        self.spans = []  # [function, start, end, parent index]
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.counts["semantics.model_locations"] = 0
        self.hook_errors = []
        self.missing = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                self._count(hook, name, signature, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _count(self, hook, name, signature, args, kwargs, result):
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(self.counts, bound.arguments, result)
        except Exception as exc:  # a changed signature must not stop the pass
            self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def install(self):
        """Wrap the layers' public functions wherever a tptg module binds them."""
        import importlib

        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"tptg.{layer}")
            except ImportError:
                self.missing.append(f"tptg.{layer}")
                continue
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        wrapped = {w.__wrapped__ for _, w in wrappers.values()}
        names = {f"{f.__module__.rsplit('.', 1)[-1]}.{f.__name__}" for f in wrapped}
        self.missing += [name for name in REQUIRED if name not in names]
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "tptg" or module_name.startswith("tptg.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def reduce(self, job_s: float, scale: float) -> dict:
        """Stage self times, untraced time and counts for the finished pass;
        times are multiplied by `scale` (the pass's host-speed calibration)."""
        durations = [(end - start) * scale for _, start, end, _ in self.spans]
        children = [0.0] * len(self.spans)
        charged = [None] * len(self.spans)
        stage_s = dict.fromkeys(list(STAGES) + ["traced_other_s"], 0.0)
        per_function: dict[str, float] = {}
        covered = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if parent is None:
                covered += durations[i]
                charged[i] = STAGE_OF.get(name, "traced_other_s")
            else:
                children[parent] += durations[i]
                charged[i] = STAGE_OF.get(name, charged[parent])
        for i, (name, _, _, _) in enumerate(self.spans):
            own = durations[i] - children[i]
            stage_s[charged[i]] += own
            per_function[name] = per_function.get(name, 0.0) + own
        counts = dict(self.counts)
        model_locations = counts.pop("semantics.model_locations")
        if model_locations:
            counts["semantics.location_yield"] = counts["semantics.reachable_locations"] / model_locations
        return {
            "stages": {**stage_s, "untraced_s": job_s * scale - covered},
            "counts": counts,
            "spans": len(self.spans),
            "self_by_function": per_function,
            "missing": self.missing,
            "hook_errors": self.hook_errors,
        }
