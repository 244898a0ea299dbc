"""The benchmark's traced span names must name live sgkron callables.

``perfbench/run.py`` sums traced spans by dotted name (``module.function``
or ``module.Class.method``), and its tracer wraps only module functions
and methods in a class's own ``__dict__``.  A renamed callable silently
drops out of the per-layer metrics, or ends a traced run in an error, so
these tests read the span tables from the script's source (importing
nothing from it) and resolve every name in the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

RUN_SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
TABLES = ("LAYER_SPANS", "SETUP_SPANS", "APPLY_SPANS")

# Names the benchmark still lists whose callables were removed on purpose:
# the affine SBGS class was folded into precond.PairBlockSbgs, which the
# sbgs apply spans also name.  The next change to the benchmark drops it.
RETIRED = {"precond.SbgsAffinePreconditioner.apply_inverse"}


def span_tables() -> dict[str, dict]:
    tables = {}
    for node in ast.parse(RUN_SCRIPT.read_text()).body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in TABLES
        ):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def resolves(name: str) -> bool:
    """True when `name` is a function of an sgkron module, or a method in
    the own ``__dict__`` of a class defined there."""
    module, *path = name.split(".")
    try:
        mod = importlib.import_module(f"sgkron.{module}")
    except ImportError:
        return False
    obj = vars(mod).get(path[0])
    if len(path) == 1:
        return inspect.isfunction(obj) and obj.__module__ == mod.__name__
    return (
        len(path) == 2
        and inspect.isclass(obj)
        and obj.__module__ == mod.__name__
        and inspect.isfunction(vars(obj).get(path[1]))
    )


def span_groups():
    """(table, key, names) for every span list of the three tables."""
    tables = span_tables()
    assert set(tables) == set(TABLES), f"span tables missing from {RUN_SCRIPT}"
    return [
        (table, key, names)
        for table, entries in tables.items()
        for key, names in entries.items()
    ]


def test_span_names_resolve():
    names = {n for _, _, group in span_groups() for n in group}
    stale = sorted(n for n in names - RETIRED if not resolves(n))
    assert not stale, f"perfbench spans name no sgkron callable: {stale}"


def test_retired_names_are_listed_and_gone():
    # Keeps RETIRED minimal: a name leaves it once the benchmark drops it
    # or once it resolves again.
    names = {n for _, _, group in span_groups() for n in group}
    assert RETIRED <= names, f"no longer listed by the benchmark: {RETIRED - names}"
    assert not [n for n in RETIRED if resolves(n)]


def test_every_span_group_still_sees_the_library():
    blind = [(t, k) for t, k, group in span_groups() if not any(map(resolves, group))]
    assert not blind, f"span groups that resolve nowhere: {blind}"
