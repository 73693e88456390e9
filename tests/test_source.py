"""Checks on the package source itself."""

import ast
import pathlib
import sys
import types

import tptg

SOURCES = sorted(pathlib.Path(tptg.__file__).parent.glob("*.py"))


def test_the_package_has_no_assert_statements():
    # `python -O` strips assert statements; a correctness check in the
    # package must raise ModelError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 10
    assert found == []


def test_the_package_imports_only_the_standard_library():
    # the runtime has no dependencies; relative imports are the package's own
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "fractions" in imported
    assert sorted(imported - sys.stdlib_module_names) == []


#: every name `import tptg` exports, submodules aside
PUBLIC_NAMES = {
    "Atom", "ClockConstraint", "DEADLOCK_LABEL", "Diagnostic", "DigitalState",
    "ModelError", "ModelSource", "Move", "Objective", "ParseError",
    "PriceStructure", "ProbBranch", "SolveResult", "StateLimitError", "TRUE",
    "Tptg", "Tsg", "TsgPath", "bound_time", "build", "clock_ge", "clock_le",
    "coalition_game", "compose", "errors_only", "estimate", "expected_price",
    "from_json", "game_stats", "gen_nonrepudiation", "gen_taskgraph",
    "instantiate", "make_game", "max_constants", "nonrepudiation_source",
    "nonrepudiation_text", "parse", "parse_property", "prob_reach",
    "qualitative_reach", "reweigh", "simulate", "solve", "synthesize",
    "taskgraph_source", "taskgraph_text", "to_json", "to_tptg",
    "uniform_profile", "validate_assumptions",
}


def test_the_public_names_are_pinned():
    # the definition guard below counts a use in the tests as a use, so it
    # would let test-only code return to the runtime through an export; a
    # change to the public API must show up here as a diff
    exported = {
        name
        for name, value in vars(tptg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def _referenced_names(node) -> list[str]:
    """Every name a subtree uses: variables, attributes, imported names and
    dotted string constants such as ``"elaborate.to_tptg"``."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.append(sub.value.rsplit(".", 1)[-1])
    return names


def test_every_definition_in_the_package_is_used():
    # a function, method, class or module-level name (a constant or a type
    # alias) that nothing names, outside its own definition, in the package,
    # the tests or the benchmark is dead surface; a re-export from the
    # package's __init__ is not a use
    root = pathlib.Path(__file__).resolve().parent.parent
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in (SOURCES[0].parent, root / "tests", root / "bench")
        for path in sorted(folder.glob("*.py"))
    }
    uses: dict[str, int] = {}
    for path, tree in trees.items():
        if path.name == "__init__.py" and path.parent == SOURCES[0].parent:
            continue
        for name in _referenced_names(tree):
            uses[name] = uses.get(name, 0) + 1
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = [
        (path, node, node.name)
        for path in SOURCES
        for node in ast.walk(trees[path])
        if isinstance(node, kinds)
    ] + [
        (path, node, target.id)
        for path in SOURCES
        for node in trees[path].body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]
    unused = [
        f"{path.name}:{node.lineno} {name}"
        for path, node, name in defined
        if not (name.startswith("__") and name.endswith("__"))
        and uses.get(name, 0) <= _referenced_names(node).count(name)
    ]
    assert unused == []


#: "module.py:function parameter" -> why the body need not read it
UNREAD_PARAMETERS_ALLOWED: dict[str, str] = {}


def test_every_function_parameter_in_the_package_is_read():
    # a parameter that no line of its function reads is dead surface its
    # callers still have to fill; `self` and `cls` are exempt, and so are
    # lambdas, whose parameters the callee's protocol fixes
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    unread = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, kinds):
                continue
            args = node.args
            params = [
                p.arg
                for p in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
                if p is not None and p.arg not in ("self", "cls")
            ]
            read = {
                sub.id
                for statement in node.body
                for sub in ast.walk(statement)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{node.name} {p}"
                for p in params
                if p not in read and f"{path.name}:{node.name} {p}" not in UNREAD_PARAMETERS_ALLOWED
            ]
    assert unread == []


def test_only_one_helper_pauses_the_garbage_collector():
    # every pause goes through `errors._gc_paused`, which gives the caller's
    # setting back on every exit; a second path could leave the collector off
    toggles, helpers = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "_gc_paused":
                helpers.append((path.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                toggles.append((path.name, node.lineno))
            elif isinstance(node, ast.Import) and any(a.name == "gc" and a.asname for a in node.names):
                toggles.append((path.name, node.lineno))
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in ("disable", "enable")
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
            ):
                toggles.append((path.name, node.lineno))
    assert len(helpers) == 1
    name, first, last = helpers[0]
    assert len(toggles) == 2
    assert all(path == name and first <= line <= last for path, line in toggles)


def test_only_the_command_line_forks():
    # a sweep's chunks are the one place a process is started, and a forked
    # child leaves through `os._exit` alone; the library layers stay
    # single-process
    calls, imported = [], set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                if node.attr.startswith(("fork", "_exit", "spawn", "exec", "posix_spawn")) or node.attr in (
                    "system", "popen",
                ):
                    calls.append((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
                if node.module == "os":
                    calls += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
                calls += [(path.name, "os as " + a.asname) for a in node.names if a.name == "os" and a.asname]
    assert sorted(calls) == [("cli.py", "_exit"), ("cli.py", "fork")]
    assert imported.isdisjoint({"multiprocessing", "concurrent", "subprocess", "threading", "_thread"})
