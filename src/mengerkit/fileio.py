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
from .represent import Representation, ReprPart, Universe
from .tables import UNDEFINED, ConcreteAlgebra, PartialFunction

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
            "mann": [[list(row) for row in table] for table in alg.mann],
        }
        if alg.zero is not None:
            doc["zero"] = alg.zero
        if alg.superposition is not None:
            doc["superposition"] = _nested_list(alg.superposition)
        return doc
    raise InputError(f"cannot serialize {type(alg).__name__}")


def _nested_list(table):
    if isinstance(table, tuple):
        return [_nested_list(entry) for entry in table]
    return table


def algebra_from_doc(doc: dict):
    where = "algebra file"
    if not isinstance(doc, dict):
        raise InputError(f"{where}: document must be an object")
    if _require(doc, "format", where) != ALGEBRA_FORMAT:
        raise InputError(f"{where}: format must be {ALGEBRA_FORMAT!r}")
    kind = _require(doc, "kind", where)
    flavor = _require(doc, "flavor", where)
    if flavor not in ("menger", "plain"):
        raise InputError(f"{where}: flavor must be menger or plain")
    n = _require(doc, "n", where)
    if type(n) is not int or n < 1:
        raise InputError(f"{where}: n must be a positive integer")
    if kind == "concrete":
        _reject_unknown(doc, {"format", "kind", "flavor", "n", "base_size",
                              "functions"}, where)
        base = _require(doc, "base_size", where)
        if type(base) is not int or base < 1:
            raise InputError(f"{where}: base_size must be a positive integer")
        raw = _require(doc, "functions", where)
        if type(raw) is not list:
            raise InputError(f"{where}: functions must be a list")
        functions = []
        for k, entries in enumerate(raw):
            if type(entries) is not list:
                raise InputError(f"{where}: functions[{k}] must be a list")
            if len(entries) != base**n:
                raise InputError(
                    f"{where}: functions[{k}] has {len(entries)} entries, "
                    f"expected {base**n}")
            cleaned = []
            for v in entries:
                if v is None:
                    cleaned.append(UNDEFINED)
                elif type(v) is int and 0 <= v < base:
                    cleaned.append(v)
                else:
                    raise InputError(f"{where}: functions[{k}] entry {v!r} invalid")
            functions.append(PartialFunction(n, base, tuple(cleaned)))
        return ConcreteAlgebra(n, base, tuple(functions), flavor)
    if kind == "abstract":
        _reject_unknown(doc, {"format", "kind", "flavor", "n", "size", "zero",
                              "mann", "superposition"}, where)
        size = _require(doc, "size", where)
        if type(size) is not int:
            raise InputError(f"{where}: size must be an integer")
        mann = _require(doc, "mann", where)
        if type(mann) is not list:
            raise InputError(f"{where}: mann must be a list of tables")
        superposition = doc.get("superposition")
        if flavor == "menger" and superposition is None:
            raise InputError(f"{where}: menger flavor requires superposition")
        if flavor == "plain" and superposition is not None:
            raise InputError(f"{where}: plain flavor must not carry superposition")
        zero = doc.get("zero")
        if zero is not None and type(zero) is not int:
            raise InputError(f"{where}: zero must be an integer index")
        return AbstractAlgebra(n, size, mann, superposition, zero, flavor)
    raise InputError(f"{where}: kind must be abstract or concrete")


# -- relation files -----------------------------------------------------


def relation_to_doc(r: BinRelation) -> dict:
    return {"format": RELATION_FORMAT, "size": r.size, "matrix": r.to_matrix()}


def relation_from_doc(doc: dict) -> BinRelation:
    where = "relation file"
    if not isinstance(doc, dict):
        raise InputError(f"{where}: document must be an object")
    if _require(doc, "format", where) != RELATION_FORMAT:
        raise InputError(f"{where}: format must be {RELATION_FORMAT!r}")
    _reject_unknown(doc, {"format", "size", "matrix"}, where)
    size = _require(doc, "size", where)
    matrix = _require(doc, "matrix", where)
    if type(size) is not int:
        raise InputError(f"{where}: size must be an integer")
    if type(matrix) is not list or any(type(row) is not list for row in matrix):
        raise InputError(f"{where}: matrix must be a list of rows")
    if len(matrix) != size:
        raise InputError(f"{where}: matrix has {len(matrix)} rows, expected {size}")
    return BinRelation.from_matrix(matrix)


# -- representation files ------------------------------------------------


def representation_to_doc(rep: Representation) -> dict:
    parts = []
    for part in rep.parts:
        u = part.universe
        points = []
        for point in u.points:
            if u.kind == "extended":
                points.append(point_to_json(point))
            else:
                points.append([int(c) for c in point])
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


def _point_from_json(coords, n, where):
    if len(coords) != n:
        raise InputError(f"{where}: point has {len(coords)} coordinates, expected {n}")
    point = []
    for i, c in enumerate(coords):
        if isinstance(c, int):
            point.append(c)
        elif isinstance(c, dict) and set(c) == {"g"}:
            point.append(int(c["g"]))
        elif isinstance(c, dict) and set(c) == {"e"}:
            if c["e"] != i + 1:
                raise InputError(f"{where}: placeholder {c} at position {i + 1}")
            point.append(-1)
        else:
            raise InputError(f"{where}: bad coordinate {c!r}")
    return tuple(point)


def representation_from_doc(doc: dict) -> Representation:
    where = "representation file"
    if not isinstance(doc, dict):
        raise InputError(f"{where}: document must be an object")
    if _require(doc, "format", where) != REPRESENTATION_FORMAT:
        raise InputError(f"{where}: format must be {REPRESENTATION_FORMAT!r}")
    _reject_unknown(doc, {"format", "size", "parts"}, where)
    size = _require(doc, "size", where)
    parts = []
    for k, raw in enumerate(_require(doc, "parts", where)):
        spot = f"{where}: parts[{k}]"
        _reject_unknown(raw, {"kind", "n", "value_size", "points", "labels",
                              "assignment"}, spot)
        kind = _require(raw, "kind", spot)
        if kind not in ("extended", "base"):
            raise InputError(f"{spot}: kind must be extended or base")
        n = _require(raw, "n", spot)
        value_size = _require(raw, "value_size", spot)
        points = [_point_from_json(c, n, spot) for c in _require(raw, "points", spot)]
        universe = Universe(n, value_size, points, kind,
                            has_all_tuples=_covers_all_tuples(points, n, value_size))
        rows = _require(raw, "assignment", spot)
        if len(rows) != size:
            raise InputError(f"{spot}: assignment has {len(rows)} rows, expected {size}")
        for row in rows:
            if len(row) != len(points):
                raise InputError(f"{spot}: assignment row width mismatch")
        assign = np.array(
            [[-1 if v is None else int(v) for v in row] for row in rows],
            dtype=np.int64).reshape(size, len(points))
        if ((assign < -1) | (assign >= value_size)).any():
            raise InputError(f"{spot}: assignment value out of range")
        parts.append(ReprPart(universe, assign, tuple(raw.get("labels", ()))))
    return Representation(size, tuple(parts))


def _covers_all_tuples(points, n, value_size):
    carrier = set()
    for point in points:
        if all(c >= 0 for c in point):
            carrier.add(point)
    return len(carrier) == value_size**n


# -- file round trips -----------------------------------------------------


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
