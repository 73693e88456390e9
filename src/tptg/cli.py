"""Command-line front end: parse, validate, build, solve, synthesize,
simulate, sweep, export.

Exit codes: 0 success, 1 model or usage error, 2 non-convergence.
"""

import argparse
import json
import os
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import casestudies
from .dsl import ModelSource, PropertyAst, parse, parse_property
from .elaborate import describe_property, instantiate, to_tptg
from .errors import ModelError, ParseError, StateLimitError, _gc_paused
from .game import Tsg, coalition_game, game_stats, to_json_dict
from .model import Tptg, errors_only, validate_assumptions
from .semantics import DEFAULT_STATE_LIMIT, bound_time, build, reweigh
from .simulation import estimate, simulate, uniform_profile
from .solver import Objective, solve, time_bounded

EXIT_OK = 0
EXIT_MODEL_ERROR = 1
EXIT_NOT_CONVERGED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to the model-error exit code
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_MODEL_ERROR)


def _common_options() -> argparse.ArgumentParser:
    """The options every command takes, as a parent of each command's parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("model", nargs="?", help="path to a .tptg model file")
    common.add_argument("--gen", choices=["nonrepudiation", "taskgraph"],
                        help="use a built-in generator instead of a model file")
    common.add_argument("--variant", default="honest",
                        choices=list(casestudies.NONREP_VARIANTS),
                        help="nonrepudiation protocol variant")
    common.add_argument("--p", default=None, help="generator probability parameter (rational)")
    common.add_argument("--k1", type=int, default=0, help="fault budget of processor 1")
    common.add_argument("--k2", type=int, default=0, help="fault budget of processor 2")
    common.add_argument("--md", type=int, default=2)
    common.add_argument("--MD", type=int, default=9)
    common.add_argument("--ad", type=int, default=1)
    common.add_argument("--AD", type=int, default=5)
    common.add_argument("--timeout", type=int, default=24)
    common.add_argument("--prop", action="append", default=[],
                        help="property text, e.g. 'Pmax [ F done ] coalition {sender}'; "
                             "may be repeated (default: properties listed in the model)")
    common.add_argument("--tol", type=float, default=1e-8)
    common.add_argument("--max-iters", type=int, default=10**6,
                        help="cap on the value-iteration sweeps of each strongly connected component")
    common.add_argument("--state-limit", type=int, default=None,
                        help="cap on explored states (default 5e6 or TPTG_STATE_LIMIT)")
    common.add_argument("--json", help="write results as JSON to this path")
    return common


def _number(kind, text: str, what: str):
    """`kind(text)` (int or Fraction), raising ModelError on a malformed value."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        noun = "an integer" if kind is int else "a rational number"
        raise ModelError(f"{what} must be {noun}, not {text!r}") from None


def _state_limit(args) -> int:
    limit = args.state_limit
    if limit is None:
        env = os.environ.get("TPTG_STATE_LIMIT")
        limit = _number(int, env, "TPTG_STATE_LIMIT") if env else DEFAULT_STATE_LIMIT
    if limit < 1:
        raise ModelError(f"state limit must be at least 1, not {limit}")
    return limit


def model_text(args) -> str:
    if args.gen and args.model:
        raise ModelError("give either a model file or --gen, not both")
    if args.gen == "nonrepudiation":
        p = _number(Fraction, args.p, "p") if args.p is not None else Fraction(1, 100)
        return casestudies.nonrepudiation_text(
            args.variant, p=p, md=args.md, MD=args.MD, ad=args.ad, AD=args.AD,
            timeout=args.timeout,
        )
    if args.gen == "taskgraph":
        p = _number(Fraction, args.p, "p") if args.p is not None else Fraction(1)
        return casestudies.taskgraph_text(args.k1, args.k2, p)
    if not args.model:
        raise ModelError("no model given: pass a .tptg file or --gen")
    return Path(args.model).read_text(encoding="utf-8")


def load_source(args) -> ModelSource:
    return parse(model_text(args))


#: a constant's declaration, as the generators write it
_CONST = re.compile(r"^const (\w+) = ([^;]*);$", re.MULTILINE)


def _properties(args, source: ModelSource) -> list[PropertyAst]:
    if args.prop:
        return [parse_property(text, source) for text in args.prop]
    if not source.props:
        raise ModelError("the model lists no properties; pass --prop")
    return list(source.props)


def property_game(
    model: Tptg,
    prop: PropertyAst,
    state_limit: int,
    games: dict | None = None,
) -> tuple[Objective, Tsg]:
    """objective -> build -> time bound -> coalition for one property of
    `model`. A time-bounded property's game is derived from the unbounded
    game by `bound_time`. Without `games`, nothing is cached. Otherwise
    `games` holds the unbounded game of each price structure under the
    price, and at most one derived game, under ``(price, target, bound)``.
    A property reuses a held game of `model` and its price. Otherwise its
    unbounded game is the held one of its price reweighed to `model` (the
    next row of a sweep: only the rows at changed distributions' locations
    are walked); where its price has none, a held game of `model` reweighed
    to its price; else a build on an emptied table, so that the games of
    another model can be freed. A derived game goes with the game it was
    derived from, and before another is derived. Views share the
    components of the game they are made from."""
    if prop.target not in model.labels:
        raise ModelError(f"property targets unknown label {prop.target!r}")
    objective = Objective(
        "prob-reach" if prop.query[0] == "P" else "exp-price",
        "maxmin" if prop.query.endswith("max") else "minmax",
        prop.target if prop.bound is None else f"{prop.target}_by_{prop.bound}",
        price=prop.price,
    )
    held = {} if games is None else games
    game = held.get(prop.price)
    fresh = game is None or game.origin[0] is not model
    key = (prop.price, prop.target, prop.bound)
    if fresh or prop.bound is not None and key not in held:
        # the derived game, the one held game with no origin, is of another
        # property or of the game about to be replaced
        for stale in [k for k, g in held.items() if g.origin is None]:
            del held[stale]
    if fresh:
        if game is None:
            game = next((g for g in held.values() if g.origin[0] is model), None)
        if game is not None:
            game = reweigh(game, model, prop.price)
        if game is None:
            held.clear()
            game = build(model, price=prop.price, state_limit=state_limit)
        held[prop.price] = game
    if prop.bound is not None:
        if key not in held:
            held[key] = bound_time(game, prop.target, prop.bound, state_limit)
        game = held[key]
    return objective, coalition_game(game, prop.coalition)


def _solved(args, model: Tptg, props: list[PropertyAst], state_limit: int, games: dict):
    """(prop, result, states of its game) for each property of `model` in
    turn, over the game cache `games`; a property that fails leaves the
    earlier ones yielded. No game is yielded, but a result holds its game
    until its strategy is read."""
    for prop in props:
        objective, game = property_game(model, prop, state_limit, games)
        yield prop, solve(game, objective, tol=args.tol, max_iters=args.max_iters), len(game.states)


def _exit_code(worst: int, converged: bool) -> int:
    return worst if converged else EXIT_NOT_CONVERGED


def cmd_check(args) -> int:
    """`check`, or `synth`, whose JSON holds a lone record unwrapped."""
    source = load_source(args)
    model = to_tptg(source)
    props = _properties(args, source)
    records, worst = [], EXIT_OK
    for prop, result, states in _solved(args, model, props, _state_limit(args), {}):
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        detail = (
            f"strategy over {len(result.strategy or {})} states" if args.command == "synth" else
            f"converged={str(result.converged).lower()}, iterations={result.iterations}, "
            f"states={states}"
        )
        print(f"{describe_property(prop)} = {result.initial_value:.6f} ({detail})")
        records += [result.to_json_dict()] if args.json else []  # a record reads the whole strategy
        worst = _exit_code(worst, result.converged)
    payload = records[0] if args.command == "synth" and len(records) == 1 else records
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return worst


def _chunks(rows: list) -> list[list]:
    """`rows` cut into contiguous chunks whose sizes differ by at most one,
    one per CPU this process may run on, and one where the platform cannot
    tell which those are."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = min(len(rows), usable)
    size, extra = divmod(len(rows), max(count, 1))
    ends = [i * size + min(i, extra) for i in range(count + 1)]
    return [rows[begin:end] for begin, end in zip(ends, ends[1:])]


def _pickled_outcome(run, chunk) -> bytes:
    """``(True, run(chunk))``, or ``(False, the exception it raised)``, pickled."""
    import pickle  # in the forked child, so that it adds nothing to the caller's memory

    try:
        return pickle.dumps((True, run(chunk)))
    except BaseException as exc:
        return pickle.dumps((False, exc))


def _run_chunks(run, chunks: list) -> list:
    """``[run(chunk) for chunk in chunks]``, each chunk after the first run in
    a forked child while this process runs the first. A child sends back its
    result, or the exception it raised, pickled through a pipe, and always
    ends in `os._exit`, so it never unwinds into the caller's frames or
    flushes the caller's buffers. The exception of the earliest failing chunk
    is raised, and on every exit each child still running is killed and every
    child reaped."""
    if len(chunks) < 2:
        return [run(chunk) for chunk in chunks]
    import signal

    children = []  # (pid, read end of its pipe) per child not yet reaped, in chunk order
    try:
        for chunk in chunks[1:]:
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child, which leaves only here
                try:
                    with open(writer, "wb") as pipe:
                        pipe.write(_pickled_outcome(run, chunk))
                finally:
                    os._exit(0)
            os.close(writer)
            children.append((pid, reader))
        results = [run(chunks[0])]
        import pickle  # after the caller's chunk, so that it adds nothing to the chunk's peak memory

        while children:
            pid, reader = children[0]
            with open(reader, "rb", closefd=False) as pipe:
                message = pipe.read()
            os.waitpid(pid, 0)
            del children[0]
            os.close(reader)
            if not message:
                raise ChildProcessError("a sweep's worker process ended without a result")
            done, outcome = pickle.loads(message)
            if not done:
                raise outcome
            results.append(outcome)
        return results
    finally:
        for pid, reader in children:
            os.close(reader)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except ProcessLookupError:  # reaped already
                pass


def cmd_sweep(args) -> int:
    source_text = model_text(args)
    source = parse(source_text)
    props = _properties(args, source)
    state_limit = _state_limit(args)
    if args.param != "T" and args.gen is None:
        raise ModelError(f"sweeping {args.param} needs --gen")
    if args.param in ("k1", "k2") and args.gen != "taskgraph":
        raise ModelError(f"sweeping {args.param} needs --gen taskgraph")
    values = [v for v in args.values.split(",") if v]
    if args.param == "T":  # a column is its property at each row's bound
        props = [replace(prop, bound=None) for prop in props]
    rows = [[args.param] + [describe_property(p) for p in props]]
    worst, games, checked = EXIT_OK, {}, values
    if args.param == "T":
        model = to_tptg(source)  # a time bound leaves the model unchanged
        bounds = []
        for raw in values:
            bounds.append(_number(int, raw, "T"))
            if bounds[-1] < 0:
                raise ModelError("time bound must be non-negative")
        # per property, one induction over the budget up to the largest
        # bound; where zero-delay moves form a cycle, whatever the price,
        # each row checks its bound as `check` does
        columns = []
        for prop in props if bounds else ():  # no row, no game
            objective, game = property_game(model, prop, state_limit, games)
            solved = time_bounded(game, objective, max(bounds), args.tol, args.max_iters)
            if solved is None:
                break
            levels, converged = solved
            columns.append([f"{levels[bound][game.initial]:.10g}" for bound in bounds])
            worst = _exit_code(worst, converged)
        else:
            rows += [[raw, *cells] for raw, *cells in zip(values, *columns)]
            checked = []

    def run(chunk: list) -> tuple[list[list[str]], int]:
        """The cells of each row of `chunk` in turn and their worst exit code,
        over the game cache as it stands: empty, or the T route's unbounded
        games."""
        code, held, cells = EXIT_OK, None, []
        for raw in chunk:
            if args.param == "T":
                row_model, row_props = model, [replace(prop, bound=int(raw)) for prop in props]
            else:
                # a row whose text differs from that of the last elaborated row
                # in constant values alone instantiates that row's model; a row
                # reweighs the row before's game of each price where it can
                value = raw if args.param == "p" else _number(int, raw, args.param)
                row_text = model_text(argparse.Namespace(**{**vars(args), args.param: value}))
                shape = _CONST.sub(r"const \1", row_text)
                if held is not None and shape == held[0]:
                    constants = {name: Fraction(v) for name, v in _CONST.findall(row_text)}
                    row_model = instantiate(held[1], constants)
                else:  # the games of a model of another shape go before this one is elaborated
                    games.clear()
                    row_model = to_tptg(source if row_text == source_text else parse(row_text))
                    held = shape, row_model
                row_props = props
            row = [raw]
            for _, result, _ in _solved(args, row_model, row_props, state_limit, games):
                row.append(f"{result.initial_value:.10g}")
                code = _exit_code(code, result.converged)
                del result  # it holds its game and backups, while the next is solved or the row built
            cells.append(row)
        return cells, code

    for cells, code in _run_chunks(run, _chunks(checked)):
        rows += cells
        worst = max(worst, code)  # EXIT_OK or EXIT_NOT_CONVERGED
    text = "\n".join(",".join(row) for row in rows) + "\n"
    if args.csv:
        Path(args.csv).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return worst


def cmd_simulate(args) -> int:
    if args.samples < 1:
        raise ModelError("--samples must be at least 1")
    source = load_source(args)
    model = to_tptg(source)
    props = _properties(args, source)
    if len(props) != 1:
        raise ModelError("simulate works on exactly one property")
    objective, two_player = property_game(model, props[0], _state_limit(args))
    target = objective.target
    if args.uniform:
        profile = uniform_profile(random.Random(args.seed ^ 0x5EED))
    else:
        if not args.strategy:
            raise ModelError("pass --strategy <solveresult.json> or --uniform")
        try:
            payload = json.loads(Path(args.strategy).read_text(encoding="utf-8"))
            entries = payload["strategy"] if isinstance(payload, dict) else payload
            choices = [(item["state"], item["action"]) for item in entries]
        except ValueError as exc:
            raise ModelError(f"strategy file {args.strategy} is not JSON: {exc}") from None
        except KeyError as exc:
            raise ModelError(f"strategy file {args.strategy} has no {exc} key") from None
        except TypeError:
            raise ModelError(f"strategy file {args.strategy} holds no state/action list") from None
        profile = {}
        for state, action in choices:
            if type(state) is not int or not 0 <= state < len(two_player.states):
                raise ModelError(f"strategy refers to unknown state {state!r}")
            if action not in two_player.available_actions(state):
                raise ModelError(f"strategy picks unavailable action {action!r} at state {state}")
            profile[state] = action
    outcome = estimate(
        two_player, profile, target, args.samples, max_steps=args.max_steps, seed=args.seed
    )
    print(f"# seed={args.seed} samples={args.samples} max-steps={args.max_steps}")
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


@_gc_paused  # as a whole: no collection scans the games a paused call returns
def main(argv=None) -> int:
    parser = _Parser(prog="tptg", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    common = [_common_options()]

    def command(name: str, text: str, run) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=text, parents=common)
        sub.set_defaults(run=run)
        return sub

    command("check", "solve properties", cmd_check)
    sweep = command("sweep", "solve a property across a parameter range", cmd_sweep)
    sweep.add_argument("--param", required=True, choices=["T", "p", "k1", "k2"])
    sweep.add_argument("--values", required=True, help="comma-separated parameter values")
    sweep.add_argument("--csv", help="write the CSV here instead of stdout")
    command("synth", "solve and export optimal strategies", cmd_check)
    sim = command("simulate", "Monte Carlo estimation under a strategy", cmd_simulate)
    sim.add_argument("--strategy", help="SolveResult JSON with the strategy to follow")
    sim.add_argument("--uniform", action="store_true", help="choose moves uniformly")
    sim.add_argument("--samples", type=int, default=10_000)
    sim.add_argument("--max-steps", type=int, default=10_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--traces", help="write one sampled trace as JSON lines")
    export = command("export-game", "build and export the explicit game", cmd_export_game)
    export.add_argument("--price", help="price structure to bake into the game")
    command("validate", "parse and check model assumptions", cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, StateLimitError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR


if __name__ == "__main__":
    sys.exit(main())
