"""The fixed mutant list still applies to the current sources.

tests/run_mutants.py applies each mutant of tests/mutants.json and runs the
tests named to kill it; that costs a test run per mutant, so tier-1 only
checks that every mutant would apply, would still parse, and would run real
tests. A refactor that moves a mutant's text must update the list.
"""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


def defined_tests(path: Path) -> set[str]:
    """The ``Class::function`` and ``function`` names of a test file's tests."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}::{item.name}" for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return names


def test_mutant_names_are_unique():
    names = [m["name"] for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_old_text_occurs_once_in_src(mutant):
    assert set(mutant) == {"name", "file", "old", "new", "tests"}
    assert mutant["file"].startswith("src/")
    assert mutant["old"] != mutant["new"]
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_mutated_file_still_parses(mutant):
    # a mutant that is a syntax error fails every test it names, so it
    # would count as killed without any test having caught it
    text = (ROOT / mutant["file"]).read_text()
    ast.parse(text.replace(mutant["old"], mutant["new"]), filename=mutant["file"])


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_named_tests_exist(mutant):
    assert mutant["tests"]
    for test_id in mutant["tests"]:
        path, name = test_id.split("::", 1)
        assert path.startswith("tests/test_")
        assert name in defined_tests(ROOT / path), test_id
