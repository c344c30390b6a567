"""Rules about the repository's source text, checked by reading the files. Stdlib only."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


def lines_matching(pattern: str, paths) -> list[str]:
    """Each line of paths that pattern matches at its start, as 'file:line: text'."""
    found = re.compile(pattern)
    return [f"{path.relative_to(ROOT)}:{lineno}: {line}"
            for path in sorted(paths)
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if found.match(line)]


def float_formats(path: Path) -> list[tuple[str, int]]:
    """('file', line) of each string constant of path, docstrings aside, that holds '.6g'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    return [(str(path.relative_to(ROOT)), node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and ".6g" in node.value and id(node) not in docstrings]


def test_no_test_module_imports_another():
    # Shared draws live in strategies.py and re-derivations in oracle.py.
    assert lines_matching(r"\s*(from|import) test_", TESTS.glob("*.py")) == []


def test_the_oracle_imports_nothing_of_ntnsim():
    # An oracle that imported the package would share its faults.
    assert lines_matching(r"\s*(from|import) ntnsim", [TESTS / "oracle.py"]) == []


def test_every_annotation_of_the_package_is_evaluated_as_written():
    assert lines_matching(r"from __future__ import annotations",
                          (ROOT / "src").rglob("*.py")) == []


def test_the_csv_float_format_is_spelled_once_in_rows():
    # format_value, the writer and the sweep stages read rows.FLOAT_FORMAT, so the
    # text a record carries cannot drift from what the writer prints; a "%.6g"
    # string or a .6g format spec anywhere else would be a second spelling.
    found = [hit for path in sorted((ROOT / "src").rglob("*.py")) for hit in float_formats(path)]
    assert [path for path, _ in found] == ["src/ntnsim/harness/rows.py"], found
