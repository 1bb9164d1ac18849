"""JSON file formats and report assembly.

All payloads are UTF-8 JSON with fixed field names; unknown fields are
rejected so archived instances stay unambiguous.  Slot numbering is
1-based in every file and report (table k of "mann" holds the slot-k
composition; placeholder coordinates are written {"e": k}); internally
slots are 0-based.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import AbstractAlgebra, Violation
from .bitrel import BinRelation
from .errors import InputError
from .represent import BLANK, Representation, ReprPart, Universe
from .tables import MAX_ARITY, UNDEFINED, ConcreteAlgebra, PartialFunction, _check_table_cells

ALGEBRA_FORMAT = "mengerkit-algebra-v1"
RELATION_FORMAT = "mengerkit-relation-v1"
REPRESENTATION_FORMAT = "mengerkit-representation-v1"
REPORT_FORMAT = "mengerkit-report-v1"


def dump_doc(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _reject_unknown(doc: dict, allowed: set[str], where: str):
    unknown = set(doc) - allowed
    if unknown:
        raise InputError(f"{where}: unknown field(s) {sorted(unknown)}")


def _require(doc: dict, name: str, where: str):
    if name not in doc:
        raise InputError(f"{where}: missing field {name!r}")
    return doc[name]


def _int(doc: dict, name: str, where: str, low: int = 0) -> int:
    """A required integer field >= low; booleans are not integers."""
    value = _require(doc, name, where)
    if type(value) is not int or value < low:
        raise InputError(f"{where}: {name} must be an integer >= {low}")
    return value


def _arity(doc: dict, where: str) -> int:
    n = _int(doc, "n", where, 1)
    if n > MAX_ARITY:
        raise InputError(f"{where}: n must be at most {MAX_ARITY}")
    return n


def _list(doc: dict, name: str, where: str) -> list:
    value = _require(doc, name, where)
    if type(value) is not list:
        raise InputError(f"{where}: {name} must be a list")
    return value


def _object(doc, fmt: str | None, where: str) -> dict:
    """doc, checked to be a JSON object carrying format tag fmt (if any)."""
    if type(doc) is not dict:
        raise InputError(f"{where}: must be an object")
    if fmt is not None and _require(doc, "format", where) != fmt:
        raise InputError(f"{where}: format must be {fmt!r}")
    return doc


def _partial_row(row, width: int, bound: int, where: str) -> list[int]:
    """A list of width entries, each null (read as -1) or in 0..bound-1."""
    if type(row) is not list or len(row) != width or any(
            v is not None and (type(v) is not int or not 0 <= v < bound) for v in row):
        raise InputError(f"{where}: expected a list of {width} entries, "
                         f"each null or in 0..{bound - 1}")
    return [-1 if v is None else v for v in row]


# -- words and points -------------------------------------------------


def word_to_json(word) -> list:
    return [[slot + 1, elem] for slot, elem in word]


def word_from_json(data) -> tuple:
    try:
        return tuple((slot - 1, elem) for slot, elem in data)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed word {data!r}") from exc


def point_to_json(point) -> list:
    return [{"e": i + 1} if c < 0 else {"g": int(c)} for i, c in enumerate(point)]


def violation_to_json(v: Violation) -> dict:
    witness = v.witness
    if v.law == "representability":
        w1, w2, g, a1, a2 = witness
        witness = {"word1": word_to_json(w1), "word2": word_to_json(w2),
                   "g": g, "results": [a1, a2]}
    elif v.law in ("v-negative-word", "word-superposition"):
        witness = {"word": word_to_json(witness[0]),
                   "rest": _plain(witness[1:])}
    elif v.law.startswith("homomorphism-slot"):
        g1, g2, point = witness
        witness = {"g1": g1, "g2": g2, "point": point_to_json(point)}
    elif v.law == "homomorphism-superposition":
        head, args, point = witness
        witness = {"head": head, "args": list(args), "point": point_to_json(point)}
    else:
        witness = _plain(witness)
    return {"law": v.law, "witness": witness, "detail": v.detail}


def _plain(value):
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


# -- algebra files -----------------------------------------------------


def algebra_to_doc(alg) -> dict:
    if isinstance(alg, ConcreteAlgebra):
        return {
            "format": ALGEBRA_FORMAT,
            "kind": "concrete",
            "flavor": alg.flavor,
            "n": alg.arity,
            "base_size": alg.base_size,
            "functions": [
                [None if v == UNDEFINED else v for v in f.entries]
                for f in alg.functions
            ],
        }
    if isinstance(alg, AbstractAlgebra):
        doc = {
            "format": ALGEBRA_FORMAT,
            "kind": "abstract",
            "flavor": alg.flavor,
            "n": alg.arity,
            "size": alg.size,
            "mann": alg.mann.tolist(),
        }
        if alg.zero is not None:
            doc["zero"] = alg.zero
        if alg.superposition is not None:
            doc["superposition"] = alg.superposition.tolist()
        return doc
    raise InputError(f"cannot serialize {type(alg).__name__}")


def algebra_from_doc(doc: dict):
    where = "algebra file"
    _object(doc, ALGEBRA_FORMAT, where)
    kind = _require(doc, "kind", where)
    flavor = _require(doc, "flavor", where)
    if flavor not in ("menger", "plain"):
        raise InputError(f"{where}: flavor must be menger or plain")
    n = _arity(doc, where)
    if kind == "concrete":
        _reject_unknown(doc, {"format", "kind", "flavor", "n", "base_size",
                              "functions"}, where)
        base = _int(doc, "base_size", where, 1)
        functions = tuple(
            PartialFunction(n, base, tuple(_partial_row(
                entries, base**n, base, f"{where}: functions[{k}]")))
            for k, entries in enumerate(_list(doc, "functions", where)))
        return ConcreteAlgebra(n, base, functions, flavor)
    if kind == "abstract":
        _reject_unknown(doc, {"format", "kind", "flavor", "n", "size", "zero",
                              "mann", "superposition"}, where)
        return AbstractAlgebra(n, _int(doc, "size", where, 1), _list(doc, "mann", where),
                               doc.get("superposition"), doc.get("zero"), flavor)
    raise InputError(f"{where}: kind must be abstract or concrete")


# -- relation files -----------------------------------------------------


def relation_to_doc(r: BinRelation) -> dict:
    return {"format": RELATION_FORMAT, "size": r.size,
            "matrix": r.matrix.astype(int).tolist()}


def relation_from_doc(doc: dict) -> BinRelation:
    where = "relation file"
    _object(doc, RELATION_FORMAT, where)
    _reject_unknown(doc, {"format", "size", "matrix"}, where)
    size = _int(doc, "size", where)
    matrix = _list(doc, "matrix", where)
    if len(matrix) != size:
        raise InputError(f"{where}: matrix has {len(matrix)} rows, expected {size}")
    for a, row in enumerate(matrix):
        # integers 0 and 1 only: booleans and floats are not entries
        if type(row) is not list or len(row) != size or any(
                type(v) is not int or v not in (0, 1) for v in row):
            raise InputError(f"{where}: matrix row {a} must be a list of "
                             f"{size} entries, each 0 or 1")
    return BinRelation.from_array(np.array(matrix, dtype=bool).reshape(size, size))


# -- representation files ------------------------------------------------


def representation_to_doc(rep: Representation) -> dict:
    """The representation file's document.  Raises CapacityError, before
    any assignment is formed, when the parts' assignments hold more than
    MAX_TABLE_CELLS cells together (size * points per part)."""
    _check_table_cells(f"representation file of {len(rep.parts)} parts",
                       sum(rep.size * len(part.universe) for part in rep.parts))
    parts = []
    for part in rep.parts:
        u = part.universe
        points = [point_to_json(p) if u.kind == "extended" else [int(c) for c in p]
                  for p in u.points]
        parts.append({
            "kind": u.kind,
            "n": u.n,
            "value_size": u.value_size,
            "points": points,
            "labels": list(part.labels),
            "assignment": [
                [None if v < 0 else int(v) for v in row] for row in part.assign
            ],
        })
    return {"format": REPRESENTATION_FORMAT, "size": rep.size, "parts": parts}


def _point_from_json(coords, n: int, value_size: int, where: str) -> tuple:
    """A point of n coordinates: values 0..value_size-1, bare or as
    {"g": v}, and at position i the placeholder {"e": i}."""
    if type(coords) is not list or len(coords) != n:
        raise InputError(f"{where}: a point must be a list of {n} coordinates")
    point = []
    for i, c in enumerate(coords):
        if type(c) is dict and set(c) == {"e"} and type(c["e"]) is int and c["e"] == i + 1:
            point.append(BLANK)
            continue
        if type(c) is dict and set(c) == {"g"}:
            c = c["g"]
        if type(c) is not int or not 0 <= c < value_size:
            raise InputError(f"{where}: bad coordinate {c!r} at position {i + 1}")
        point.append(c)
    return tuple(point)


def representation_from_doc(doc: dict) -> Representation:
    """Parts as written by representation_to_doc: an extended universe
    takes values in the carrier, a base universe holds every tuple."""
    where = "representation file"
    _object(doc, REPRESENTATION_FORMAT, where)
    _reject_unknown(doc, {"format", "size", "parts"}, where)
    size = _int(doc, "size", where)
    parts = []
    for k, raw in enumerate(_list(doc, "parts", where)):
        spot = f"{where}: parts[{k}]"
        _reject_unknown(_object(raw, None, spot), {"kind", "n", "value_size", "points",
                                                   "labels", "assignment"}, spot)
        kind = _require(raw, "kind", spot)
        if kind not in ("extended", "base"):
            raise InputError(f"{spot}: kind must be extended or base")
        n = _arity(raw, spot)
        value_size = _int(raw, "value_size", spot, 1)
        if kind == "extended" and value_size != size:
            raise InputError(f"{spot}: value_size must equal size")
        points = [_point_from_json(c, n, value_size, spot)
                  for c in _list(raw, "points", spot)]
        rows = _list(raw, "assignment", spot)
        if not points or len(rows) != size:
            raise InputError(f"{spot}: needs points and {size} assignment rows")
        assign = [_partial_row(row, len(points), value_size, spot) for row in rows]
        labels = raw.get("labels", [])
        if type(labels) is not list or any(type(label) is not str for label in labels):
            raise InputError(f"{spot}: labels must be a list of strings")
        universe = Universe(n, value_size, points, kind)
        if kind == "base" and not universe.has_all_tuples:
            raise InputError(f"{spot}: a base universe must hold every tuple")
        assign = np.array(assign, dtype=np.int64).reshape(size, len(points))
        parts.append(ReprPart(universe, assign, tuple(labels)))
    return Representation(size, tuple(parts))


# -- file round trips -----------------------------------------------------


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, over-long ints
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def save_doc(doc, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_doc(doc))


def load_algebra(path: str):
    return algebra_from_doc(load_json(path))


def save_algebra(alg, path: str):
    save_doc(algebra_to_doc(alg), path)


def load_relation(path: str) -> BinRelation:
    return relation_from_doc(load_json(path))


def save_relation(r: BinRelation, path: str):
    save_doc(relation_to_doc(r), path)


def load_representation(path: str) -> Representation:
    return representation_from_doc(load_json(path))


def save_representation(rep: Representation, path: str):
    save_doc(representation_to_doc(rep), path)
