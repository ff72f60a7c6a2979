"""Canonical JSON files for structures, groups and pair maps.

The canonical form is the round-trip contract: a single JSON document,
two-space indentation, keys in a fixed order, trailing newline.  Loading a
canonically written file and re-serializing it reproduces the bytes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import InvalidFile, RackworkError
from .euler import PairMap
from .structures import KINDS, Structure, _capped
from .tables import GroupTable, OpTable, make_op_table, validate_group


def _canonical(obj: dict) -> str:
    """Two-space indentation with one matrix row per line; fixed key order
    comes from the dict insertion order."""
    parts = []
    for key, value in obj.items():
        if (isinstance(value, list) and value
                and all(isinstance(row, list) for row in value)):
            rows = ",\n".join(f"    {json.dumps(row)}" for row in value)
            parts.append(f'  "{key}": [\n{rows}\n  ]')
        else:
            parts.append(f'  "{key}": {json.dumps(value)}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidFile(message)


def _carrier(doc: dict, path: str) -> int:
    n = doc.get("n")
    _require(type(n) is int and n >= 1, f"{path}: n must be a positive integer")
    return _capped(n, f"n of {path}")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidFile(f"{path}: {exc}") from exc
    _require(isinstance(doc, dict), f"{path}: top-level JSON object expected")
    return doc


def _indices(values: list, n: int) -> bool:
    """Whether a non-empty list holds only ints in [0, n-1]; JSON true and
    false load as bool, a subclass of int, and are not indices here."""
    return (set(map(type, values)) == {int}
            and min(values) >= 0 and max(values) < n)


def _check_matrix(mat, n: int, what: str) -> None:
    _require(isinstance(mat, list) and len(mat) == n,
             f"{what} must be a list of {n} rows")
    for row in mat:
        _require(isinstance(row, list) and len(row) == n,
                 f"{what} rows must have length {n}")
        _require(_indices(row, n),
                 f"{what} entries must be integers in [0, {n - 1}]")


def _check_labels(labels, n: int) -> None:
    if labels is None:
        return
    _require(isinstance(labels, list) and len(labels) == n
             and all(isinstance(s, str) for s in labels),
             f"labels must be {n} strings")


@dataclass(frozen=True)
class LoadedStructure:
    """A structure as read from disk: the kind tag is taken on trust
    (use the check command / axiom checkers to verify it)."""

    structure: Structure
    labels: list[str] | None


def structure_to_json(s: Structure, labels: list[str] | None = None) -> str:
    doc = {
        "kind": s.kind,
        "n": s.n,
        "dot": s.dot.tolist(),
        "diamond": s.diamond.tolist(),
    }
    if labels is not None:
        doc["labels"] = list(labels)
    return _canonical(doc)


def save_structure(path: str, s: Structure,
                   labels: list[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(structure_to_json(s, labels))


def load_structure(path: str) -> LoadedStructure:
    doc = _read_json(path)
    kind = doc.get("kind")
    _require(kind in KINDS, f"{path}: kind must be one of {KINDS}")
    n = _carrier(doc, path)
    _check_matrix(doc.get("dot"), n, f"{path}: dot")
    _check_matrix(doc.get("diamond"), n, f"{path}: diamond")
    labels = doc.get("labels")
    _check_labels(labels, n)
    s = Structure(
        n,
        OpTable(n, doc["dot"]),
        OpTable(n, doc["diamond"]),
        kind,
    )
    return LoadedStructure(structure=s, labels=labels)


def group_to_json(g: GroupTable, labels: list[str] | None = None) -> str:
    doc = {"n": g.n, "mul": g.mul.tolist()}
    if labels is not None:
        doc["labels"] = list(labels)
    return _canonical(doc)


def save_group(path: str, g: GroupTable,
               labels: list[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(group_to_json(g, labels))


def load_group(path: str) -> tuple[GroupTable, list[str] | None]:
    """Read a multiplication table and validate it as a group on load."""
    doc = _read_json(path)
    n = _carrier(doc, path)
    _check_matrix(doc.get("mul"), n, f"{path}: mul")
    labels = doc.get("labels")
    _check_labels(labels, n)
    flat = [v for row in doc["mul"] for v in row]
    try:
        group = validate_group(make_op_table(n, flat))
    except RackworkError as exc:
        raise InvalidFile(f"{path}: not a group table: {exc}") from exc
    return group, labels


def pair_map_to_json(f: PairMap) -> str:
    return _canonical({"n": f.n, "out": f.out.tolist()})


def save_pair_map(path: str, f: PairMap) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pair_map_to_json(f))


def load_pair_map(path: str) -> PairMap:
    """Read an explicit pair map: n and a list of n^2 output pairs in
    (x, y) -> x*n + y input order."""
    doc = _read_json(path)
    n = _carrier(doc, path)
    out = doc.get("out")
    _require(isinstance(out, list) and len(out) == n * n,
             f"{path}: out must list {n * n} pairs")
    _require(set(map(type, out)) == {list} and set(map(len, out)) == {2}
             and _indices(list(itertools.chain.from_iterable(out)), n),
             f"{path}: out entries must be pairs of indices in [0, {n - 1}]")
    return PairMap(n, out)
