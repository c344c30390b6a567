"""Rules about the repository's source text, checked by reading the files. Stdlib only."""

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


def test_no_test_module_imports_another():
    # Shared draws live in strategies.py and re-derivations in oracle.py.
    assert lines_matching(r"\s*(from|import) test_", TESTS.glob("*.py")) == []


def test_the_oracle_imports_nothing_of_ntnsim():
    # An oracle that imported the package would share its faults.
    assert lines_matching(r"\s*(from|import) ntnsim", [TESTS / "oracle.py"]) == []


def test_every_annotation_of_the_package_is_evaluated_as_written():
    assert lines_matching(r"from __future__ import annotations",
                          (ROOT / "src").rglob("*.py")) == []
