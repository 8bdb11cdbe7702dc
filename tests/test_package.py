import ast
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

import ccepanel as cp
from ccepanel.cli import build_parser

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def _cp_chain(node):
    """``["spj"]`` for ``cp.spj``, ``["Family", "LOGIT"]`` for
    ``cp.Family.LOGIT``; None for an expression not rooted at ``cp``."""
    names = []
    while isinstance(node, ast.Attribute):
        names.insert(0, node.attr)
        node = node.value
    return names if isinstance(node, ast.Name) and node.id == "cp" and names else None


def _resolve(chain):
    obj = cp
    for name in chain:
        assert hasattr(obj, name), f"cp.{'.'.join(chain)} does not resolve"
        obj = getattr(obj, name)
    return obj


def test_public_names_resolve():
    # a name removed from the package must leave __all__ too
    assert len(cp.__all__) == len(set(cp.__all__))
    assert [name for name in cp.__all__ if not hasattr(cp, name)] == []


def test_readme_python_calls_match_the_package():
    # every cp.<name> in the README's Python blocks resolves, and every call
    # binds to its signature (argument count and keyword names), unrun
    nodes = [node for block in _blocks("python") for node in ast.walk(ast.parse(block))]
    chains = [chain for chain in map(_cp_chain, nodes) if chain is not None]
    calls = [node for node in nodes
             if isinstance(node, ast.Call) and _cp_chain(node.func) is not None]
    assert chains and calls
    for chain in chains:
        _resolve(chain)
    for call in calls:
        try:
            inspect.signature(_resolve(_cp_chain(call.func))).bind(
                *call.args, **{kw.arg: kw.value for kw in call.keywords}
            )
        except TypeError as exc:
            pytest.fail(f"README: {ast.unparse(call)}: {exc}")


def test_readme_commands_parse():
    # every `ccepanel ...` command in the README's shell blocks parses
    # with the CLI's own parser; none is run
    text = "\n".join(_blocks("sh")).replace("\\\n", " ")
    commands = [shlex.split(line) for line in text.splitlines()
                if line.strip().startswith("ccepanel ")]
    assert len(commands) == 3
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_readme_module_names_resolve():
    # every backticked `ccepanel.<module>.<name>` and `ccepanel/<module>.py`
    # in the README exists, so that moving code between modules cannot
    # leave the README naming a module or function that is gone
    dotted = re.findall(r"`ccepanel\.(\w+)\.(\w+)`", README)
    files = re.findall(r"`ccepanel/(\w+)\.py`", README)
    assert dotted and files
    package = Path(cp.__file__).parent
    for module in {m for m, _ in dotted} | set(files):
        assert (package / f"{module}.py").is_file(), f"README names ccepanel/{module}.py"
    for module, name in dotted:
        assert hasattr(importlib.import_module(f"ccepanel.{module}"), name), (
            f"README names ccepanel.{module}.{name}"
        )
