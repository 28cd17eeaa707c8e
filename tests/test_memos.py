"""Every memo in the library returns a value that no caller can change.

A memo's value is shared by every later call in the process, so a caller
that mutated it would change the answers of the calls after it.  The scan
lists each ``lru_cache`` and ``cached_property`` in ``src/constellation_lab/``;
each must appear below, either with a sample call whose value is checked to
be immutable, or among the named exceptions with the reason it may not be.
A new memo fails the first test until it is listed here.

Immutable means a bool, an int, a str or None, a tuple, a frozenset or a
``MappingProxyType`` of immutable values, or a frozen dataclass whose fields
are immutable.
"""
import ast
import dataclasses
import importlib
from pathlib import Path
from types import MappingProxyType

import pytest

from constellation_lab.nebulas import dual_opening, enumerate_tree_pointed

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "constellation_lab"


def _opened_map():
    """A fresh opened nebula map, whose views are not yet computed."""
    return dual_opening(next(iter(enumerate_tree_pointed(2, 3)))).hmap


# memo -> a function returning a sample value of it
SAMPLES = {
    "counting._census": lambda m: m._census(3, 2),
    "counting._cycle_count_census": lambda m: m._cycle_count_census(3, 2),
    "counting._surjection_row": lambda m: m._surjection_row(4, 2),
    "counting._composition_assignments": lambda m: m._composition_assignments((2, 1), (1, 2)),
    "counting.strict_subsets": lambda m: m.strict_subsets(3),
    "counting._jackson_terms": lambda m: m._jackson_terms(3, 2),
    "constellations._rooted_constellations": lambda m: m._rooted_constellations(2, 3),
    "constellations._rooted_by_type": lambda m: m._rooted_by_type(2, 3),
    "nebulas._pointing_census": lambda m: m._pointing_census(2, 3),
    "puzzle._successor_rows": lambda m: m._successor_rows(3),
    "puzzle._is_tree_map": lambda m: m._is_tree_map(3, (2, 3, 1)),
    "puzzle._count_with_supersets": lambda m: m._count_with_supersets(
        3, 3, (2, 2, 2), (frozenset({1}),)
    ),
    "halfedges.HalfEdgeMap.face_tour": lambda m: _opened_map().face_tour,
    "halfedges.HalfEdgeMap.buds_by_type": lambda m: _opened_map().buds_by_type,
}

EXCEPTIONS = {
    "puzzle._sampler_states": (
        "a dict of draw states that the sampler fills as it meets them, "
        "mutated on purpose; it holds no answer, only states that each draw "
        "rebuilds the same way"
    ),
    "cli._parser": (
        "the argparse parser, built once per process; parsing does not "
        "change it, and no answer is read from it"
    ),
}


def _is_memo_decorator(node):
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cached_property")


def library_memos():
    """Qualified names of the memoized functions and properties in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(path.stem, tree.body)]
        scopes += [
            (f"{path.stem}.{node.name}", node.body)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
        ]
        for prefix, body in scopes:
            for node in body:
                if isinstance(node, ast.FunctionDef) and any(
                    map(_is_memo_decorator, node.decorator_list)
                ):
                    found.append(f"{prefix}.{node.name}")
    return found


def is_immutable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(map(is_immutable, value))
    if isinstance(value, MappingProxyType):
        return all(is_immutable(k) and is_immutable(v) for k, v in value.items())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return value.__dataclass_params__.frozen and all(
            is_immutable(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    return False


def test_every_memo_is_listed():
    assert sorted(library_memos()) == sorted({*SAMPLES, *EXCEPTIONS})


@pytest.mark.parametrize("memo", sorted(SAMPLES))
def test_memo_value_is_immutable(memo):
    module = importlib.import_module(f"constellation_lab.{memo.split('.')[0]}")
    value = SAMPLES[memo](module)
    assert is_immutable(value), (memo, type(value))


def test_the_check_rejects_mutable_values():
    assert not is_immutable([1])
    assert not is_immutable((1, {2}))
    assert not is_immutable(MappingProxyType({"a": [1]}))
    assert not is_immutable({1: 2})
    assert is_immutable(MappingProxyType({"a": (1, frozenset({2}))}))
