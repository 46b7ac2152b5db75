"""The benchmark harness's hooks into the package still find their targets,
src/ holds no function that only tests call, and the README documents the run
layout that the code describes."""

import ast
import importlib
import importlib.util
import itertools
import json
import sys
import textwrap
import types
import typing
from pathlib import Path

import pytest

from epinmt import cli
from epinmt import config
from epinmt import pipeline

from helpers import CONFIG_FIELDS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(monkeypatch, path: Path, name: str):
    """Execute a perfbench module as `name`, which stays in sys.modules for
    this test only, without installing perfbench or writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is absent")
def test_every_tracer_target_resolves(monkeypatch):
    """The tracer rebinds its targets by name, so a renamed function would
    only break traced runs. Loads the tracer without installing it."""
    tracer = _load(monkeypatch, TRACER, "perfbench_tracer")
    missing = []
    for module, attrs in tracer.TARGETS.items():
        importlib.import_module(f"epinmt.{module}")
        for attr in attrs:
            try:
                target = tracer._resolve(f"{module}.{attr}")[2]
            except (AttributeError, KeyError):
                target = None
            if not callable(target):
                missing.append(f"{module}.{attr}")
    assert not missing


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is absent")
def test_pipeline_workload_argv_parses(monkeypatch):
    """Every CLI step of the pipeline workload parses, so a flag cleanup
    cannot silently turn that workload into failed steps."""
    _load(monkeypatch, TRACER, "tracer")  # workloads.py does `from tracer import`
    workloads = _load(monkeypatch, PERFBENCH / "workloads.py", "perfbench_workloads")
    parser = cli.build_parser()
    rejected = []
    for label, argv in workloads.PIPELINE_STEPS:
        try:
            parser.parse_args([*argv, "--config", "config.json"])
        except SystemExit:
            rejected.append(label)
    assert not rejected


SRC = Path(__file__).resolve().parents[1] / "src" / "epinmt"

# Public functions that no shipped path calls, kept on purpose, and why.
UNCALLED_BUT_KEPT = {
    "trainers.write_episode_log": "episodic runs are to write episodes.csv (ROADMAP item 6)",
}


def _public_defs(tree: ast.Module):
    """(qualified name, definition) of each public module-level function and
    each public method of a module-level class."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            yield from ((f"{stmt.name}.{f.name}", f) for f in stmt.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is absent")
def test_every_public_function_has_a_caller(monkeypatch):
    """Each public module-level function, and each public method of a
    module-level class, in src/ is named somewhere in src/ besides its own
    definition (and `__all__`), is a tracer target, or is kept on purpose;
    code that only tests call does not belong in src/."""
    tracer = _load(monkeypatch, TRACER, "perfbench_tracer")
    targets = {f"{module}.{name}" for module, names in tracer.TARGETS.items()
               for name in names}
    defined, named = [], []          # named: (identifier, node that names it)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(f"{path.stem}.{name}", node) for name, node in _public_defs(tree)]
        for node in ast.walk(tree):   # __all__'s entries are strings, not names
            if isinstance(node, ast.Name):
                named.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                named.append((node.attr, node))
    uncalled = []
    for qualname, definition in defined:
        own = {id(n) for n in ast.walk(definition)}
        name = qualname.rsplit(".", 1)[1]
        if not any(n == name and id(node) not in own for n, node in named):
            uncalled.append(qualname)
    assert sorted(set(uncalled) - targets - set(UNCALLED_BUT_KEPT)) == []
    # the allowlist holds nothing that has a caller or a tracer hook by now
    assert set(UNCALLED_BUT_KEPT) <= set(uncalled) - targets


README = Path(__file__).resolve().parents[1] / "README.md"


def _layout_block(text: str) -> list[str]:
    """The dedented lines of text's run-directory layout: from the line that
    starts with `run-<` to the first blank line or code fence."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.lstrip().startswith("run-<"))
    block = itertools.takewhile(lambda line: line.strip() not in ("", "```"), lines[start:])
    return textwrap.dedent("\n".join(block)).splitlines()


@pytest.mark.skipif(not README.exists(), reason="README.md is absent")
def test_readme_layout_is_the_pipeline_layout():
    """The README shows the run-directory layout that `pipeline`'s docstring,
    the module that writes it, describes, word for word."""
    readme = _layout_block(README.read_text(encoding="utf-8"))
    assert readme[0].startswith("run-<") and len(readme) > 1
    assert readme == _layout_block(pipeline.__doc__)


@pytest.mark.skipif(not README.exists(), reason="README.md is absent")
def test_readme_example_config_parses():
    """The README's example config is one that `config_from_dict` accepts,
    so a stricter check cannot quietly reject the documented config."""
    readme = README.read_text(encoding="utf-8")
    block = readme.split("### Example config", 1)[1].split("```json\n", 1)[1]
    config.config_from_dict(json.loads(block.split("```", 1)[0]))


def _scalars(hint) -> set:
    """The scalar types that annotation `hint` is built of, by tuple[...] and
    `X | None`; an annotation of any other form fails the assertion."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is None:
        return {hint}
    assert origin is tuple or origin is types.UnionType and len(args) == 2 \
        and type(None) in args, hint
    return set().union(*(_scalars(a) for a in args if a not in (Ellipsis, type(None))))


def test_the_config_check_knows_every_annotation():
    """Each config field's annotation is one that `config._value` checks, so a
    field annotated list[int] or dict fails here rather than go unchecked."""
    known = set(config._SCALARS)
    assert {f"{where}.{name}": hint for where, name, hint, _ in CONFIG_FIELDS
            if not _scalars(hint) <= known} == {}


ERRORS = {"UsageError", "DataError", "InternalError"}   # one per exit code


def _name(node) -> str | None:
    """The name a `raise` or an `except` gives: `X`, `X(...)` or `m.X`."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_src_raises_only_the_three_error_classes():
    """src/ defines three error classes, one per exit code; a `raise` names
    one of them, a builtin error or a caught one, never another class of the
    package."""
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"epinmt.{path.stem}")
        defined.update({name: path.stem for name, obj in vars(module).items()
                        if isinstance(obj, type) and issubclass(obj, BaseException)
                        and obj.__module__ == module.__name__})
    assert defined == {name: "errors" for name in ERRORS}
    nodes = {path.name: list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(SRC.glob("*.py"))}
    classes = {n.name for walk in nodes.values() for n in walk if isinstance(n, ast.ClassDef)}
    assert [f"{name}:{n.lineno} raises {_name(n.exc)}" for name, walk in nodes.items()
            for n in walk if isinstance(n, ast.Raise) and n.exc is not None
            and _name(n.exc) in classes - ERRORS] == []


def test_only_the_command_modules_raise_usage_errors():
    """`cli`, `config` and `pipeline` read the command line and the config,
    and only they raise UsageError; a library module raises a builtin error,
    a DataError or an InternalError, and config validation turns a config
    class's ValueError into a UsageError."""
    assert [f"{path.name}:{n.lineno}" for path in sorted(SRC.glob("*.py"))
            if path.stem not in {"cli", "config", "pipeline"}
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.Raise) and n.exc is not None
            and _name(n.exc) == "UsageError"] == []


def test_cli_main_maps_the_three_errors_in_one_clause():
    """`cli.main` catches the three errors together, then OSError (a file it
    cannot read or write) and KeyboardInterrupt; SystemExit is how argparse
    rejects a command line, before any command runs."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    clauses = [sorted(map(_name, h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]))
               for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)]
    assert clauses == [["SystemExit"], sorted(ERRORS), ["OSError"], ["KeyboardInterrupt"]]
