"""Canonical JSON files for triangulations, structures, and measures.

One serializer, sorted keys, two-space indent, trailing newline; floats
go through repr, so save/load/save is byte-stable.  Pair keys are
"face.slot" strings, written and read back by IdealTriangulation's
pair_dict and pairs_from_dict; a table naming every pair is read into
its (F, 3) array through each key's flat index.  Structure and measure
files may either inline their triangulation or name another file by
path, resolved relative to the referring file.

A developed ball, develop's document, is written from its arrays: one
%-template per node kind, derived once from json's own layout of a
one-node placeholder, repeated per node and filled by one format
operation.  %d writes an int and %r a float as json does, so the bytes
are those of json.dumps on the ball as nested dicts.  Each coordinate
of the ball's vertex table is written by repr once, and the strings are
gathered through the ball's corner table into the points of every node
that holds the vertex, so the per-node lifts are never built.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain

import numpy as np

from .develop import DevelopedBall
from .foliation import BrokenMeasure
from .hyperbolic import DecoratedBrokenHyperbolic
from .triangulation import IdealTriangulation


def canonical_json(obj) -> str:
    """The canonical text of a JSON-ready object or a DevelopedBall."""
    if isinstance(obj, DevelopedBall):
        return _ball_json(obj)
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# Placeholders json writes as quoted strings, replaced by conversions:
# an int, a float, a float already written by repr, and a node.
_INT, _FLOAT, _REPR, _NODE = "<int>", "<float>", "<repr>", "<node>"

# A ball node's fields, an int or float placeholder per number; the root
# writes null for those in _ROOT_NULL.  The values are filled in sorted
# key order, which is json's with sort_keys, and the points row-major.
_NODE_FIELDS = {
    "index": _INT,
    "face": _INT,
    "depth": _INT,
    "parent": _INT,
    "entry_slot": _INT,
    "points": [[_REPR] * 3] * 3,
    "scale": _FLOAT,
}
_ROOT_NULL = ("parent", "entry_slot")


def _ball_templates() -> tuple:
    """(head, root, separator and node, tail) of a ball's %-template."""

    def doc(*nodes):
        top = {"base": _INT, "depth": _INT, "max_drift": _FLOAT}
        return canonical_json({**top, "nodes": list(nodes)})

    head, sep, tail = doc(_NODE, _NODE).split(f'"{_NODE}"')
    root = doc({**_NODE_FIELDS, **dict.fromkeys(_ROOT_NULL)})
    node = doc(_NODE_FIELDS)
    pieces = (head, root[len(head) : -len(tail)], sep + node[len(head) : -len(tail)], tail)
    return tuple(
        p.replace("%", "%%")
        .replace(f'"{_INT}"', "%d")
        .replace(f'"{_FLOAT}"', "%r")
        .replace(f'"{_REPR}"', "%s")
        for p in pieces
    )


_BALL_HEAD, _BALL_ROOT, _BALL_NODE, _BALL_TAIL = _ball_templates()


def _ball_json(ball: DevelopedBall) -> str:
    n = len(ball.face)
    # every vertex coordinate written once, gathered by corner per node
    written = np.array(list(map(repr, ball.vertices.ravel().tolist())), dtype=object)
    columns = {
        "index": np.arange(n),
        "face": ball.face,
        "depth": ball.depths,
        "parent": ball.parent,
        "entry_slot": ball.entry_slot,
        "points": written[3 * ball.corner[:, :, None] + np.arange(3)],
        "scale": ball.scale,
    }
    max_drift = ball.max_drift()
    # "nodes" sorts after the other three keys, so they fill the head
    root, rest = [ball.base, ball.depth, max_drift], []
    for key in sorted(columns):
        col = columns[key].reshape(n, -1)
        if key not in _ROOT_NULL:
            root.extend(col[0].tolist())
        rest.extend(col[1:].T.tolist())
    values = (*root, *chain.from_iterable(zip(*rest)))
    if not all(np.isfinite(x).all() for x in (max_drift, ball.vertices, ball.scale)):
        # json's own error, for the first such value in document order
        canonical_json(next(v for v in map(float, values) if not math.isfinite(v)))
    return (_BALL_HEAD + _BALL_ROOT + _BALL_NODE * (n - 1) + _BALL_TAIL) % values


def _is_triangulation_dict(d) -> bool:
    return isinstance(d, dict) and "faces" in d and "gluing" in d


def _resolve_triangulation(entry, base_dir: str | None) -> IdealTriangulation:
    """The triangulation a structure or measure names by path or inlines.

    A named file is read as JSON and must hold a triangulation alone, so a
    file naming itself, or a cycle of files, is rejected, not followed.
    """
    if isinstance(entry, str):
        path = entry if base_dir is None else os.path.join(base_dir, entry)
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        if not _is_triangulation_dict(entry) or "lambda" in entry or "w" in entry:
            raise ValueError(f"{path} is not a triangulation file")
    elif not _is_triangulation_dict(entry):
        raise ValueError(
            '"triangulation" entry is neither a file path nor a dict with '
            '"faces" and "gluing"'
        )
    return IdealTriangulation(entry["faces"], entry["gluing"])


def from_jsonable(d: dict, base_dir: str | None = None):
    """Rebuild whichever object the dict encodes, keyed by its table name."""
    if isinstance(d, dict):  # a file may hold any JSON value
        if "lambda" in d:
            T = _resolve_triangulation(d["triangulation"], base_dir)
            return DecoratedBrokenHyperbolic(T, T.pairs_from_dict(d["lambda"], "lambda"))
        if "w" in d:
            T = _resolve_triangulation(d["triangulation"], base_dir)
            return BrokenMeasure(T, T.pairs_from_dict(d["w"], "weight"))
        if _is_triangulation_dict(d):
            return _resolve_triangulation(d, base_dir)
    raise ValueError("dict is not a triangulation, structure, or measure")


def to_jsonable(obj) -> dict:
    if isinstance(
        obj, (IdealTriangulation, DecoratedBrokenHyperbolic, BrokenMeasure)
    ):
        return obj.to_dict()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    return from_jsonable(d, base_dir=os.path.dirname(os.path.abspath(path)))


def save(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(to_jsonable(obj)))

