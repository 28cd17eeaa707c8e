"""A guarded nebula's tour and bud table are computed once.

The nebula guard reads the clockwise tour from dart 0 and the buds by type,
and the map holds both (``HalfEdgeMap.face_tour``,
``HalfEdgeMap.buds_by_type``).  The closure of ``dual_closure`` and the
corner reading and subsets of ``vartheta`` read them again from the map, so
over a whole roundtrip each map that a guard checked has its tour walked
once and its bud table built once, and no other map has either.  A reader
that walked the map itself instead of reading the view would make a count
two.
"""
import json
from collections import Counter

import pytest

from constellation_lab.biddings import LabelledNebula
from constellation_lab.cli import main
from constellation_lab.halfedges import HalfEdgeMap
from constellation_lab.nebulas import Nebula


@pytest.mark.parametrize(
    "bijection, n, k, guarded",
    [("lambda", 3, 3, Nebula), ("psi", 3, 2, LabelledNebula)],
)
def test_roundtrip_computes_each_guarded_tour_and_bud_table_once(
    monkeypatch, capsys, bijection, n, k, guarded
):
    # the maps themselves are kept, so that no two of them share an id
    guards, tours, bud_tables = [], [], []

    def guard(self, _original=guarded.validate):
        guards.append(self.hmap if guarded is Nebula else self.nebula.hmap)
        return _original(self)

    def tour(self, start, _original=HalfEdgeMap.tour):
        tours.append(self)
        return _original(self, start)

    buds = HalfEdgeMap.__dict__["buds_by_type"]

    def bud_table(self, _original=buds.func):
        bud_tables.append(self)
        return _original(self)

    monkeypatch.setattr(guarded, "validate", guard)
    monkeypatch.setattr(HalfEdgeMap, "tour", tour)
    monkeypatch.setattr(buds, "func", bud_table)

    argv = ["--format", "json", "roundtrip", "--bijection", bijection, "--n", str(n), "--k", str(k)]
    assert main(argv) == 0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["failures"] == 0 and result["checked"] == len(guards) > 0

    once = Counter(map(id, guards))
    assert set(once.values()) == {1}
    assert Counter(map(id, tours)) == once
    assert Counter(map(id, bud_tables)) == once
