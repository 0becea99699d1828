"""The package as a whole: its public surface and its source rules."""

import ast
from pathlib import Path

import canalis
from canalis import exact_counts, generator, oracle, probability, truth_table

LIBRARY_MODULES = (exact_counts, generator, oracle, probability, truth_table)


def test_package_exports_every_library_name():
    # the package's names are its modules' names, plus the version and the
    # RangeError that every module raises
    exported = {name for module in LIBRARY_MODULES for name in module.__all__}
    assert len(canalis.__all__) == len(set(canalis.__all__))
    assert set(canalis.__all__) == exported | {"__version__", "RangeError"}
    for name in canalis.__all__:
        assert getattr(canalis, name) is not None, name
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(canalis, name) is getattr(module, name), (module.__name__, name)


def test_source_has_no_assert_statements():
    # `python -O` strips assert statements, so an invariant check in the
    # library raises ArithmeticError (or another exception) instead
    found = []
    for path in sorted(Path(canalis.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        found += [f"{path.name}:{node.lineno}" for node in asserts]
    assert found == []
