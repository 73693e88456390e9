"""Command-line front end: parse, validate, build, solve, synthesize,
simulate, sweep, export.

Exit codes: 0 success, 1 model or usage error, 2 non-convergence.
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import casestudies
from .digitization import estimate, simulate, uniform_profile
from .dsl import ModelSource, PropertyAst, parse, parse_property
from .elaborate import describe_property, resolve_property, to_tptg
from .errors import ModelError, ParseError, StateLimitError
from .game import Tsg, coalition_game, game_stats, to_json_dict
from .model import Tptg, errors_only, validate_assumptions, with_time_bound
from .semantics import DEFAULT_STATE_LIMIT, build
from .solver import SolveResult, solve

EXIT_OK = 0
EXIT_MODEL_ERROR = 1
EXIT_NOT_CONVERGED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to the model-error exit code
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_MODEL_ERROR)


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("model", nargs="?", help="path to a .tptg model file")
    sub.add_argument("--gen", choices=["nonrepudiation", "taskgraph"],
                     help="use a built-in generator instead of a model file")
    sub.add_argument("--variant", default="honest",
                     choices=list(casestudies.NONREP_VARIANTS),
                     help="nonrepudiation protocol variant")
    sub.add_argument("--p", default=None, help="generator probability parameter (rational)")
    sub.add_argument("--k1", type=int, default=0, help="fault budget of processor 1")
    sub.add_argument("--k2", type=int, default=0, help="fault budget of processor 2")
    sub.add_argument("--md", type=int, default=2)
    sub.add_argument("--MD", type=int, default=9)
    sub.add_argument("--ad", type=int, default=1)
    sub.add_argument("--AD", type=int, default=5)
    sub.add_argument("--timeout", type=int, default=24)
    sub.add_argument("--prop", action="append", default=[],
                     help="property text, e.g. 'Pmax [ F done ] coalition {sender}'; "
                          "may be repeated (default: properties listed in the model)")
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--max-iters", type=int, default=10**6,
                     help="cap on the value-iteration sweeps of each strongly connected component")
    sub.add_argument("--state-limit", type=int, default=None,
                     help="cap on explored states (default 5e6 or TPTG_STATE_LIMIT)")
    sub.add_argument("--json", help="write results as JSON to this path")


def _state_limit(args) -> int:
    if args.state_limit is not None:
        return args.state_limit
    env = os.environ.get("TPTG_STATE_LIMIT")
    return int(env) if env else DEFAULT_STATE_LIMIT


def load_source(args) -> ModelSource:
    if args.gen and args.model:
        raise ModelError("give either a model file or --gen, not both")
    if args.gen == "nonrepudiation":
        p = Fraction(args.p) if args.p is not None else Fraction(1, 100)
        return casestudies.nonrepudiation_source(
            args.variant, p=p, md=args.md, MD=args.MD, ad=args.ad, AD=args.AD,
            timeout=args.timeout,
        )
    if args.gen == "taskgraph":
        p = Fraction(args.p) if args.p is not None else Fraction(1)
        return casestudies.taskgraph_source(args.k1, args.k2, p)
    if not args.model:
        raise ModelError("no model given: pass a .tptg file or --gen")
    return parse(Path(args.model).read_text(encoding="utf-8"))


def _properties(args, source: ModelSource) -> list[PropertyAst]:
    if args.prop:
        return [parse_property(text, source) for text in args.prop]
    if not source.props:
        raise ModelError("the model lists no properties; pass --prop")
    return list(source.props)


def run_property(
    model: Tptg,
    prop: PropertyAst,
    tol: float,
    max_iters: int,
    state_limit: int,
) -> tuple[SolveResult, Tsg]:
    """parse -> bound -> build -> coalition -> solve, for one property."""
    objective, coalition, bound = resolve_property(prop)
    target = prop.target
    if target not in model.labels:
        raise ModelError(f"property targets unknown label {target!r}")
    if bound is not None:
        model, target = with_time_bound(model, target, bound)
        objective = type(objective)(
            objective.kind, objective.direction, target, price=objective.price
        )
    game = build(model, price=prop.price, state_limit=state_limit)
    two_player = coalition_game(game, coalition)
    result = solve(two_player, objective, tol=tol, max_iters=max_iters)
    return result, two_player


def cmd_check(args) -> int:
    source = load_source(args)
    model = to_tptg(source)
    props = _properties(args, source)
    state_limit = _state_limit(args)
    worst = EXIT_OK
    records = []
    for prop in props:
        result, game = run_property(model, prop, args.tol, args.max_iters, state_limit)
        stats = game_stats(game)
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print(
            f"{describe_property(prop)} = {result.initial_value:.6f} "
            f"(converged={str(result.converged).lower()}, iterations={result.iterations}, "
            f"states={stats['states']})"
        )
        records.append(result.to_json_dict())
        if not result.converged:
            worst = EXIT_NOT_CONVERGED
    if args.json:
        Path(args.json).write_text(json.dumps(records, indent=1), encoding="utf-8")
    return worst


def cmd_sweep(args) -> int:
    source = load_source(args)
    props = _properties(args, source)
    state_limit = _state_limit(args)
    values = [v for v in args.values.split(",") if v]
    header = [args.param] + [describe_property(p) for p in props]
    rows = [header]
    worst = EXIT_OK
    if args.param == "T":
        model = to_tptg(source)  # a time bound leaves the model unchanged
    for raw in values:
        if args.param == "T":
            bound = int(raw)
            cells = [raw]
            for prop in props:
                bounded = PropertyAst(prop.query, prop.target, bound, prop.price, prop.coalition)
                result, _ = run_property(model, bounded, args.tol, args.max_iters, state_limit)
                cells.append(f"{result.initial_value:.10g}")
                if not result.converged:
                    worst = EXIT_NOT_CONVERGED
        else:
            if args.gen is None:
                raise ModelError(f"sweeping {args.param} needs --gen")
            override = dict(gen=args.gen, variant=args.variant, p=args.p, k1=args.k1,
                            k2=args.k2, md=args.md, MD=args.MD, ad=args.ad, AD=args.AD,
                            timeout=args.timeout, model=None)
            override[args.param] = raw if args.param == "p" else int(raw)
            swept = argparse.Namespace(**override)
            model = to_tptg(load_source(swept))
            cells = [raw]
            for prop in props:
                result, _ = run_property(model, prop, args.tol, args.max_iters, state_limit)
                cells.append(f"{result.initial_value:.10g}")
                if not result.converged:
                    worst = EXIT_NOT_CONVERGED
        rows.append(cells)
    text = "\n".join(",".join(row) for row in rows) + "\n"
    if args.csv:
        Path(args.csv).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return worst


def cmd_synth(args) -> int:
    source = load_source(args)
    model = to_tptg(source)
    props = _properties(args, source)
    state_limit = _state_limit(args)
    records = []
    worst = EXIT_OK
    for prop in props:
        result, _ = run_property(model, prop, args.tol, args.max_iters, state_limit)
        print(
            f"{describe_property(prop)} = {result.initial_value:.6f} "
            f"(strategy over {len(result.strategy or {})} states)"
        )
        records.append(result.to_json_dict())
        if not result.converged:
            worst = EXIT_NOT_CONVERGED
    payload = records[0] if len(records) == 1 else records
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return worst


def cmd_simulate(args) -> int:
    if args.samples < 1:
        raise ModelError("--samples must be at least 1")
    source = load_source(args)
    model = to_tptg(source)
    props = _properties(args, source)
    if len(props) != 1:
        raise ModelError("simulate works on exactly one property")
    prop = props[0]
    state_limit = _state_limit(args)
    objective, coalition, bound = resolve_property(prop)
    target = prop.target
    if bound is not None:
        model, target = with_time_bound(model, target, bound)
    game = build(model, price=prop.price, state_limit=state_limit)
    two_player = coalition_game(game, coalition)
    if args.uniform:
        profile = uniform_profile(random.Random(args.seed ^ 0x5EED))
    else:
        if not args.strategy:
            raise ModelError("pass --strategy <solveresult.json> or --uniform")
        payload = json.loads(Path(args.strategy).read_text(encoding="utf-8"))
        entries = payload["strategy"] if isinstance(payload, dict) else payload
        profile = {}
        for item in entries:
            state, action = item["state"], item["action"]
            if not 0 <= state < len(two_player.states):
                raise ModelError(f"strategy refers to unknown state {state}")
            if action not in two_player.available_actions(state):
                raise ModelError(f"strategy picks unavailable action {action!r} at state {state}")
            profile[state] = action
    print(f"# seed={args.seed} samples={args.samples} max-steps={args.max_steps}")
    outcome = estimate(
        two_player, profile, target, args.samples, max_steps=args.max_steps, seed=args.seed
    )
    print(
        f"probability = {outcome.probability:.10g} +- {outcome.probability_halfwidth:.10g} (99% CI)"
    )
    if outcome.price is not None:
        print(f"price = {outcome.price:.10g} +- {outcome.price_halfwidth:.10g} (99% CI)")
    print(f"hits = {outcome.hits}  censored = {outcome.censored}")
    if args.traces:
        run = simulate(two_player, profile, target, seed=args.seed, max_steps=args.max_steps)
        with open(args.traces, "w", encoding="utf-8") as sink:
            price = 0.0
            for step in range(len(run.path)):
                move = two_player.move(run.path.state(step), run.path.action(step))
                price += move.price
                sink.write(json.dumps({
                    "step": step,
                    "state": run.path.state(step + 1),
                    "action": run.path.action(step),
                    "duration": move.time if move.time is not None else 0,
                    "price": price,
                }) + "\n")
    if args.json:
        Path(args.json).write_text(json.dumps(outcome.as_dict(), indent=1), encoding="utf-8")
    return EXIT_OK


def cmd_export_game(args) -> int:
    source = load_source(args)
    model = to_tptg(source)
    game = build(model, price=args.price, state_limit=_state_limit(args))
    payload = {"game": to_json_dict(game), "stats": game_stats(game)}
    text = json.dumps(payload, indent=1)
    if args.json:
        Path(args.json).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    source = load_source(args)
    model = to_tptg(source)
    diagnostics = validate_assumptions(model)
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)
    if errors_only(diagnostics):
        return EXIT_MODEL_ERROR
    print(f"ok: {len(model.locations)} locations, {len(model.clocks)} clocks, "
          f"{len(model.players)} players"
          + (f", {len(diagnostics)} warning(s)" if diagnostics else ""))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _Parser(prog="tptg", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="solve properties")
    _add_common(check)
    check.set_defaults(run=cmd_check)

    sweep = commands.add_parser("sweep", help="solve a property across a parameter range")
    _add_common(sweep)
    sweep.add_argument("--param", required=True, choices=["T", "p", "k1", "k2"])
    sweep.add_argument("--values", required=True, help="comma-separated parameter values")
    sweep.add_argument("--csv", help="write the CSV here instead of stdout")
    sweep.set_defaults(run=cmd_sweep)

    synth = commands.add_parser("synth", help="solve and export optimal strategies")
    _add_common(synth)
    synth.set_defaults(run=cmd_synth)

    sim = commands.add_parser("simulate", help="Monte Carlo estimation under a strategy")
    _add_common(sim)
    sim.add_argument("--strategy", help="SolveResult JSON with the strategy to follow")
    sim.add_argument("--uniform", action="store_true", help="choose moves uniformly")
    sim.add_argument("--samples", type=int, default=10_000)
    sim.add_argument("--max-steps", type=int, default=10_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--traces", help="write one sampled trace as JSON lines")
    sim.set_defaults(run=cmd_simulate)

    export = commands.add_parser("export-game", help="build and export the explicit game")
    _add_common(export)
    export.add_argument("--price", help="price structure to bake into the game")
    export.set_defaults(run=cmd_export_game)

    validate = commands.add_parser("validate", help="parse and check model assumptions")
    _add_common(validate)
    validate.set_defaults(run=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, StateLimitError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR


if __name__ == "__main__":
    sys.exit(main())
