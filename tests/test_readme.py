"""README's Performance section cites only tests and feelsim names that exist."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import feelsim

REPO = Path(__file__).resolve().parents[1]
MODULES = {module.name for module in pkgutil.iter_modules(feelsim.__path__)}


def _performance_section() -> str:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## Performance\n")
    return re.sub(r"```.*?```", "", text[start : text.index("\n## ", start + 1)], flags=re.S)  # prose only, no code blocks


def _test_names(path: Path) -> set:
    """The names of the test functions a test file defines, read by ``ast`` without importing it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _resolves(dotted: str) -> bool:
    module, *attrs = dotted.removeprefix("feelsim.").split(".")
    value = importlib.import_module(f"feelsim.{module}")
    for attr in attrs:
        value = getattr(value, attr, _resolves)  # a sentinel no module attribute holds
        if value is _resolves:
            return False
    return True


def test_performance_section_cites_tests_and_names_that_exist():
    spans = re.findall(r"`([^`]+)`", _performance_section())  # a span may wrap onto the next line
    cited = [span for span in spans if span.startswith("tests/")]
    assert [span for span in cited if not re.fullmatch(r"tests/\w+\.py(::\w+)?", span)] == []  # none wrapped or malformed
    assert [span for span in cited if not (REPO / span.split("::")[0]).is_file()] == []
    tests = [span.split("::") for span in cited if "::" in span]
    names = [m[0] for span in spans if (m := re.match(r"(?:feelsim\.)?(\w+)(?:\.\w+)+", span)) and m[1] in MODULES]
    assert tests and names
    defined = {path: _test_names(REPO / path) for path in {path for path, _ in tests}}
    assert [f"{path}::{name}" for path, name in tests if name not in defined[path]] == []
    assert [name for name in names if not _resolves(name)] == []
