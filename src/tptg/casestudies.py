"""Built-in generators for the two shipped case studies.

Both generators emit model text (so generated models parse, and
round-trip through the tests' printer, like hand-written ones) and
elaborate it to a timed game.
For 0 < p < 1 the probability parameter is declared as the constant `p`,
and the branches it weighs read `p` and `1-p`, so texts for two such
values differ in that constant alone; at p = 0 and p = 1 the branches of
probability 0 are left out.
"""

from fractions import Fraction
from typing import Union

from .dsl import ModelSource, _print_rational, parse
from .elaborate import to_tptg
from .errors import ModelError
from .model import Tptg

RationalLike = Union[Fraction, int, str]

NONREP_VARIANTS = ("honest", "malicious1", "malicious2")

#: task graph: id -> (operation, prerequisite tasks)
TASKS = {
    1: ("add", ()),
    2: ("mult", ()),
    3: ("mult", (1,)),
    4: ("mult", (3,)),
    5: ("add", (1, 2)),
    6: ("add", (4, 5)),
}

#: per processor: operation durations and idle/busy power draw
PROCESSORS = {
    1: {"add": 2, "mult": 3, "idle": 10, "busy": 90},
    2: {"add": 5, "mult": 7, "idle": 20, "busy": 30},
}


def _rational(value: RationalLike, what: str) -> Fraction:
    if isinstance(value, float):
        raise ModelError(f"{what} must be an exact rational (int, Fraction or string)")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"{what}: {exc}") from None


def _declare_p(p: Fraction) -> list[str]:
    """The lines declaring p as a constant, where 0 < p < 1."""
    return [f"const p = {_print_rational(p)};", ""] if 0 < p < 1 else []


def nonrepudiation_text(
    variant: str = "honest",
    p: RationalLike = Fraction(1, 100),
    md: int = 2,
    MD: int = 9,
    ad: int = 1,
    AD: int = 5,
    timeout: int = 24,
) -> str:
    """Model text for the message/acknowledgement exchange protocol.

    The originator O sends a round of messages, each acknowledged by the
    recipient R; every completed round is the last one with probability p
    (drawing the geometric round count lazily, without truncation). In the
    malicious variants R may stop acknowledging and guess that the current
    message is the final one, or (variant 2) run a probabilistic decoder on
    it; on failure O can only run into its timeout and declare cheating.
    """
    if variant not in NONREP_VARIANTS:
        raise ModelError(f"unknown variant {variant!r}, expected one of {NONREP_VARIANTS}")
    p = _rational(p, "parameter p")
    if not 0 < p <= 1:
        raise ModelError("parameter p must lie in (0, 1]")
    if not (0 <= md <= MD and 1 <= ad <= AD - 1):
        raise ModelError("delay parameters must satisfy 0 <= md <= MD and 1 <= ad <= AD-1")
    malicious = variant != "honest"
    if p == 1:
        ack_branches = "1: {x} & done"
        guess_branches = "1: {} & has_info"
    else:
        ack_branches = "p: {x} & done + 1-p: {x} & send"
        guess_branches = "p: {} & has_info + 1-p: {} & burned"

    lines = [
        f"// Non-repudiation information transfer, {variant} recipient.",
        "// One shared clock x measures the current message delay and, once",
        "// the message is out, the acknowledgement delay; the round closes",
        f"// with probability {'1' if p == 1 else 'p'} on each acknowledgement.",
        "",
        *_declare_p(p),
        "player O, R;",
        "clock x;",
        "",
        "automaton orig {",
        "  init send;",
        "  location send {",
        f"    inv x <= {MD};",
        "    rate time 1;",
        f"    [msg] x >= {md} -> 1: {{x}} & wait;",
        "  }",
        "  location wait {",
        f"    inv x <= {AD};",
        "    rate time 1;",
        f"    [ack] true -> {ack_branches};",
    ]
    if malicious:
        lines.append(f"    [cheat] x >= {AD} -> 1: {{}} & cheated;")
    lines += [
        "  }",
        "  location done {",
        f"    inv x <= {AD};",
        "    rate time 1;",
        "  }",
    ]
    if malicious:
        lines += [
            "  location cheated {",
            f"    inv x <= {AD};",
            "    rate time 1;",
            "  }",
        ]
    lines += [
        "}",
        "",
        "automaton recip {",
        "  init idle;",
        "  location idle {",
        f"    inv x <= {MD};",
        "    [msg] true -> 1: {} & acking;",
        "  }",
        "  location acking {",
        f"    inv x <= {AD};",
        f"    [ack] x >= {ad} & x <= {AD - 1} -> 1: {{}} & idle;",
    ]
    if malicious:
        lines += [
            "    // guessing commits R: a wrong guess leaves only the timeout",
            f"    [guess] x <= {AD - 1} -> {guess_branches};",
        ]
        if variant == "malicious2":
            lines.append(
                f"    [decode] x <= {AD - 1} -> 1/4: {{}} & has_info + 3/4: {{}} & burned;"
            )
        lines.append(f"    [cheat] x >= {AD} -> 1: {{}} & stopped;")
    lines += [
        "  }",
    ]
    if malicious:
        lines += [
            "  location has_info {",
            f"    inv x <= {AD};",
            f"    [cheat] x >= {AD} -> 1: {{}} & has_info;",
            "  }",
            "  location burned {",
            f"    inv x <= {AD};",
            f"    [cheat] x >= {AD} -> 1: {{}} & burned;",
            "  }",
            "  location stopped {",
            f"    inv x <= {AD};",
            "  }",
        ]
    lines += [
        "}",
        "",
        "compose orig || recip;",
        "owner {",
        "  send.* -> O;",
        "  wait.acking -> R;",
        "  * -> O;",
        "}",
        "label terminated_ok = done.*;",
        "label r_gains_info = *.has_info;",
        "label o_declares_cheat = cheated.*;",
    ]
    if malicious:
        lines += [
            f"prop Pmax [ F r_gains_info ] <= {timeout} coalition {{R}};",
            "prop Pmax [ F r_gains_info ] coalition {R};",
        ]
    else:
        lines += [
            f"prop Pmax [ F terminated_ok ] <= {timeout} coalition {{O, R}};",
            "prop Emin [ F terminated_ok ] price time coalition {O, R};",
        ]
    return "\n".join(lines) + "\n"


def nonrepudiation_source(variant: str = "honest", **kwargs) -> ModelSource:
    return parse(nonrepudiation_text(variant, **kwargs))


def gen_nonrepudiation(variant: str = "honest", **kwargs) -> Tptg:
    return to_tptg(nonrepudiation_source(variant, **kwargs))


def taskgraph_text(k1: int = 0, k2: int = 0, p: RationalLike = 1) -> str:
    """Model text for the two-processor task-graph scheduling game.

    The scheduler assigns ready tasks to free processors at time zero of
    every decision point (the start and each task completion) and then
    yields to the environment, which picks completion times within each
    operation's duration window and may spend a bounded fault budget; a
    fault kills the running task with probability p, forcing a restart.
    Price structures: `time` (rate 1) and `energy` (sum of both processors'
    current power draw).
    """
    if k1 < 0 or k2 < 0:
        raise ModelError("fault budgets must be non-negative")
    p = _rational(p, "parameter p")
    if not 0 <= p <= 1:
        raise ModelError("parameter p must lie in [0, 1]")
    budgets = {1: k1, 2: k2}
    faulty = {i: budgets[i] > 0 and p > 0 for i in (1, 2)}
    slowest = max(PROCESSORS[i][op] for i in (1, 2) for op in ("add", "mult"))
    task_ids = sorted(TASKS)

    def start_guard(task: int, processor: int) -> str:
        parts = [f"st{task} = 0", f"free{processor} = 1"]
        parts += [f"st{dep} = 3" for dep in TASKS[task][1]]
        return " & ".join(parts)

    lines = [
        f"// Two-processor task-graph scheduling with fault budgets k1={k1}, k2={k2}",
        f"// and fault-failure probability {_print_rational(p) if p in (0, 1) else 'p'}.",
        "// Scheduling decisions are instantaneous: the deciding locations pin",
        "// the clock of the processor whose completion triggered them to zero.",
        "",
        *_declare_p(p),
        "player sched, env;",
        "clock x1, x2;",
        "",
        "automaton scheduler {",
        "  init decide0;",
    ]
    for t in task_ids:
        lines.append(f"  var st{t}: [0..3] init 0;")
    lines += [
        "  var free1: [0..1] init 1;",
        "  var free2: [0..1] init 1;",
        "  var nrun: [0..2] init 0;",
    ]
    decide_invariants = {
        "decide0": "x1 <= 0 & x2 <= 0",
        "decide1": f"x1 <= 0 & x2 <= {slowest}",
        "decide2": f"x1 <= {slowest} & x2 <= 0",
    }
    for name, invariant in decide_invariants.items():
        lines += [
            f"  location {name} {{",
            f"    inv {invariant};",
            "    rate time 1;",
        ]
        for t in task_ids:
            for proc in (1, 2):
                lines.append(
                    f"    [start{proc}_{t}] {start_guard(t, proc)} -> "
                    f"1: {{}} & {name}[st{t}' = {proc}, free{proc}' = 0, nrun' = nrun + 1];"
                )
        lines.append("    [go] nrun >= 1 -> 1: {} & wait;")
        lines.append("  }")
    lines += [
        "  location wait {",
        f"    inv x1 <= {slowest} & x2 <= {slowest};",
        "    rate time 1;",
    ]
    for t in task_ids:
        for proc in (1, 2):
            lines.append(
                f"    [fin{proc}_{t}] st{t} = {proc} -> "
                f"1: {{}} & decide{proc}[st{t}' = 3, free{proc}' = 1, nrun' = nrun - 1];"
            )
    for proc in (1, 2):
        if faulty[proc]:
            lines.append(f"    [fault{proc}] true -> 1: {{}} & wait;")
    lines += [
        "  }",
        "}",
    ]

    for proc in (1, 2):
        spec = PROCESSORS[proc]
        other = 3 - proc
        clock = f"x{proc}"
        lines += [
            "",
            f"automaton proc{proc} {{",
            f"  init idle{proc};",
            f"  location idle{proc} {{",
            f"    inv {clock} <= {slowest};",
            f"    rate energy {spec['idle']};",
        ]
        for t in task_ids:
            lines.append(
                f"    [start{proc}_{t}] true -> 1: {{{clock}}} & busy{proc}_{t};"
            )
        for t in task_ids:
            # completions elsewhere open a decision point: re-anchor the idle clock
            lines.append(f"    [fin{other}_{t}] true -> 1: {{{clock}}} & idle{proc};")
        lines.append("  }")
        for t in task_ids:
            duration = spec[TASKS[t][0]]
            lines += [
                f"  location busy{proc}_{t} {{",
                f"    inv {clock} <= {duration};",
                f"    rate energy {spec['busy']};",
                f"    [fin{proc}_{t}] true -> 1: {{{clock}}} & idle{proc};",
            ]
            if faulty[proc]:
                if p == 1:
                    outcome = f"1: {{{clock}}} & busy{proc}_{t}"
                else:
                    outcome = f"p: {{{clock}}} & busy{proc}_{t} + 1-p: {{}} & busy{proc}_{t}"
                lines.append(f"    [fault{proc}] true -> {outcome};")
            for s in task_ids:
                lines.append(f"    [fin{other}_{s}] true -> 1: {{}} & busy{proc}_{t};")
            lines.append("  }")
        lines.append("}")

    lines += [
        "",
        "automaton environment {",
        "  init live;",
    ]
    for proc in (1, 2):
        if faulty[proc]:
            lines.append(f"  var f{proc}: [0..{budgets[proc]}] init 0;")
    lines += [
        "  location live {",
        f"    inv x1 <= {slowest} & x2 <= {slowest};",
    ]
    for proc in (1, 2):
        if faulty[proc]:
            lines.append(
                f"    [fault{proc}] f{proc} <= {budgets[proc] - 1} -> "
                f"1: {{}} & live[f{proc}' = f{proc} + 1];"
            )
    lines += [
        "  }",
        "}",
        "",
        "compose scheduler || proc1 || proc2 || environment;",
        "owner {",
        "  decide0* -> sched;",
        "  decide1* -> sched;",
        "  decide2* -> sched;",
        "  * -> env;",
        "}",
        "label all_done = " + " & ".join(f"st{t}=3" for t in task_ids) + ";",
        "prop Emin [ F all_done ] price time coalition {sched};",
        "prop Emin [ F all_done ] price energy coalition {sched};",
    ]
    return "\n".join(lines) + "\n"


def taskgraph_source(k1: int = 0, k2: int = 0, p: RationalLike = 1) -> ModelSource:
    return parse(taskgraph_text(k1, k2, p))


def gen_taskgraph(k1: int = 0, k2: int = 0, p: RationalLike = 1) -> Tptg:
    return to_tptg(taskgraph_source(k1, k2, p))
