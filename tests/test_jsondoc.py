"""The four JSON loaders under a mutation sweep, the grid's at two widths.

From a valid document of each loader, every object key and the first and
last element of every array, at every level, is deleted, and separately
replaced by each JSON value of a wrong kind.  A mutant either loads, when it
only leaves out a key or element that may be left out, or raises a
ValueError that names the mutated path or the array or object enclosing it;
any other exception fails the test.  The document is mutated in place and
restored after each mutant."""

import json
import re

import numpy as np
import pytest

from adg2 import fueter as fu
from adg2 import gauge as ga
from adg2 import maxsec as mx
from adg2.excalc import BigradedForm, Poly, form_from_json, form_to_json

NAN, INF = float("nan"), float("inf")
# (kind, value); "float" replaces integers only, and no kind replaces its own
WRONG = [("object", {}), ("array", []), ("string", "1"), ("boolean", True),
         ("float", 1.5), ("null", None), ("nan", NAN), ("inf", INF), ("-inf", -INF)]
KIND = {dict: "object", list: "array", str: "string", bool: "boolean"}


def field_doc():
    rng = np.random.default_rng(25)
    grid = ga.LatticeGrid.unit(3, 3)
    return ga.field_to_json(ga.LatticeConnection(
        grid, 1j * rng.normal(size=(7,) + grid.shape + (1, 1))))


def grid_doc(b=19):
    return mx.grid_to_json(mx.affine_section((3, 3, 3), (0.5,) * 3,
                                             pairing=mx.standard_pairing(b)))


def section_doc():
    rng = np.random.default_rng(25)
    return fu.section_to_json(fu.FueterSectionGrid(rng.uniform(0, 6, (3, 3, 3, 4)),
                                                   (0.5, 0.25, 0.5)))


def form_doc():
    return form_to_json(BigradedForm.monomial([1], [], Poly({(1, 0, 0, 0, 0, 0, 2): -1.5})))


# (document, loader, writer, the deletions that leave a legal document)
LOADERS = {
    "field": (field_doc, ga.field_from_json, ga.field_to_json,
              {"/spacing", "/spacing/base", "/spacing/fibre",
               "/periodic", "/periodic/base", "/periodic/fibre"}),
    "grid": (grid_doc, mx.grid_from_json, mx.grid_to_json, set()),
    # 6 wide: the (3, 3) pairing of 2-forms on a flat T^4
    "grid3": (lambda: grid_doc(3), mx.grid_from_json, mx.grid_to_json, set()),
    "section": (section_doc, fu.section_from_json, fu.section_to_json,
                {"/period", "/base_periodic"}),
    "form": (form_doc, form_from_json, form_to_json,
             {"/terms", "/terms/0", "/terms/0/poly/0"}),
}


def slots(node, path=""):
    """(container, key, path) of every object key and of the first and last
    element of every array inside node, at every level."""
    if type(node) is dict:
        keys = list(node)
    elif type(node) is list:
        keys = sorted({0, len(node) - 1}) if node else []
    else:
        return
    for key in keys:
        yield node, key, f"{path}/{key}"
        yield from slots(node[key], f"{path}/{key}")


def mutants(doc):
    """Yield (path, kind) with doc mutated in place; restored between yields."""
    for parent, key, path in list(slots(doc)):
        value = parent[key]
        del parent[key]
        yield path, "delete"
        if type(parent) is list:
            parent.insert(key, value)
        for kind, wrong in WRONG:
            if kind != KIND.get(type(value)) and (kind != "float" or type(value) is int):
                parent[key] = wrong
                yield path, kind
        parent[key] = value


def names(message: str, path: str) -> bool:
    """Whether message names path or the array or object enclosing it."""
    parent = path.rpartition("/")[0]
    return any(re.search(re.escape(p) + r"(?![\w])", message) for p in {path, parent} - {""})


@pytest.mark.parametrize("name", list(LOADERS))
def test_mutants_load_or_name_their_path(name):
    make, load, _, legal = LOADERS[name]
    doc = make()
    before = json.dumps(doc, sort_keys=True)
    seen = 0
    for path, kind in mutants(doc):
        seen += 1
        if kind == "delete" and path in legal:
            load(doc)
            continue
        with pytest.raises(ValueError) as info:
            load(doc)
        assert names(str(info.value), path), f"{kind} at {path}: {info.value}"
    assert json.dumps(doc, sort_keys=True) == before
    assert seen >= 40


@pytest.mark.parametrize("name", list(LOADERS))
def test_documents_survive_json(name):
    make, load, dump, _ = LOADERS[name]
    doc = make()
    assert dump(load(json.loads(json.dumps(doc)))) == doc


def test_nonpositive_period_means_plane_values():
    doc = section_doc()
    doc["values"] = [[v + 10.0 for v in row] for row in doc["values"]]
    for period in (0.0, -1, -2.5):
        doc["period"] = period
        s = fu.section_from_json(doc)
        assert s.period == period
        assert s.values.reshape(-1, 4).tolist() == doc["values"]


def test_a_long_rejected_value_is_cut_short():
    doc = field_doc()
    doc["rank"] = doc["values"]  # 30,618 numbers
    with pytest.raises(ValueError, match="^/rank must be an integer, got ") as info:
        ga.field_from_json(doc)
    assert len(str(info.value)) < 300
