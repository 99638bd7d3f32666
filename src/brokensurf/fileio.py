"""Canonical JSON files for triangulations, structures, and measures.

One serializer, sorted keys, two-space indent, trailing newline; floats
go through repr, so save/load/save is byte-stable.  Pair keys are
"face.slot" strings, written and read back by IdealTriangulation's
pair_dict and pairs_from_dict; a table naming every pair is read into
its (F, 3) array in whole-input passes, one match over all its keys and
one numpy parse of their flat indices.  Structure and measure files may
either inline their triangulation or name another file by path,
resolved relative to the referring file.

canonical_json writes every document as json.dumps(doc, sort_keys=True,
indent=2, allow_nan=False) + "\n", so what json rejects raises json's
own error.

Rows that repeat one shape are written from a %-template, derived from
json's own layout of a placeholder and filled by one format operation;
%d writes an int and %r a float as json does.  holonomy's loop rows
(LoopRows) are filled from each loop's flat crossing indices, split into
[face, slot] by one numpy divmod, where json has written a placeholder
string in their place.  A developed ball, develop's document, has one
template per node kind, repeated per node.  Each coordinate of the
ball's vertex table is written by repr once, and the strings are
gathered through the ball's corner table into the points of every node
that holds the vertex, so the per-node lifts are never built.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .develop import DevelopedBall
from .foliation import BrokenMeasure
from .hyperbolic import DecoratedBrokenHyperbolic
from .triangulation import IdealTriangulation


def canonical_json(obj) -> str:
    """The canonical text of a document: json.dumps(obj, sort_keys=True,
    indent=2, allow_nan=False) + "\n", byte for byte.

    obj is a DevelopedBall or a JSON-ready object, which may hold
    LoopRows where json would hold their rows().  What json rejects (a
    non-finite float, a value of no JSON type) raises json's own error.
    """
    if isinstance(obj, DevelopedBall):
        return _ball_json(obj)
    loops = []

    def placeholder(rows):
        loops.append(rows)
        return _LOOPS

    try:
        *pieces, tail = _dumps(obj, placeholder).split(f'"{_LOOPS}"')
        if len(pieces) == len(loops):  # else a string in obj is the placeholder
            # each LoopRows nested at the indent of its placeholder's line
            return "".join(
                piece + _loop_rows(rows, "\n" + " " * _indent(piece))
                for piece, rows in zip(pieces, loops)
            ) + tail
    except (TypeError, ValueError):
        pass
    # json's own text, or its error, in document order
    return _dumps(obj, LoopRows.rows)


# What json writes for a LoopRows before its rows replace it
_LOOPS = "<loop rows>"


def _dumps(obj, loop_rows) -> str:
    """json's canonical text of obj, a LoopRows written as loop_rows(it)."""

    def default(value):
        if isinstance(value, LoopRows):
            return loop_rows(value)
        return json.JSONEncoder().default(value)  # json's own TypeError

    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=default) + "\n"


def _indent(text: str) -> int:
    """The indent of text's last line."""
    line = text[text.rfind("\n") + 1 :]
    return len(line) - len(line.lstrip(" "))


@dataclass(frozen=True)
class LoopRows:
    """Loops as document rows, written from one %-template.

    crossings holds each loop's crossings by flat index 3 * f + s, and
    each of figures one float per loop.  Row i is json's dict with the
    key "crossings" for the list of loop i's [f, s] pairs and one key per
    figure for its i-th float.
    """

    crossings: Sequence[Sequence[int]]
    figures: Mapping[str, Sequence[float]]

    def rows(self) -> list[dict]:
        """The rows as dicts, the JSON value the template writes."""
        columns = {name: list(values) for name, values in self.figures.items()}
        return [
            {
                "crossings": [list(divmod(c, 3)) for c in loop],
                **{name: values[i] for name, values in columns.items()},
            }
            for i, loop in enumerate(self.crossings)
        ]


# Placeholders json writes as quoted strings, replaced by conversions:
# an int, a float, a float already written by repr, and a node or pair.
_INT, _FLOAT, _REPR, _NODE = "<int>", "<float>", "<repr>", "<node>"


def _templates(layout, first, rest) -> tuple[str, ...]:
    """(head, first item, separator and item, tail) of a %-template.

    layout(*items) is json's text of a document whose one list holds
    items; the list is split at two _NODE placeholders, and the items
    are cut from its layout of first alone and of rest alone.
    """
    head, sep, tail = layout(_NODE, _NODE).split(f'"{_NODE}"')
    first, rest = (layout(item)[len(head) : -len(tail)] for item in (first, rest))
    pieces = (head, first, sep + rest, tail)
    return tuple(
        piece.replace("%", "%%")
        .replace(f'"{_INT}"', "%d")
        .replace(f'"{_FLOAT}"', "%r")
        .replace(f'"{_REPR}"', "%s")
        for piece in pieces
    )


@functools.lru_cache(maxsize=16)
def _loop_templates(names: tuple[str, ...], inner: str) -> tuple[str, ...]:
    """(head, first pair, separator and pair, tail) of a loop row's
    %-template at inner, its figures named names.
    """

    def row(*pairs):
        doc = {**dict.fromkeys(names, _FLOAT), "crossings": list(pairs)}
        return json.dumps(doc, sort_keys=True, indent=2).replace("\n", inner)

    return _templates(row, [_INT, _INT], [_INT, _INT])


def _loop_rows(loops: LoopRows, pad: str) -> str:
    """The rows of loops, nested at pad, by one format operation.

    A row's template is its head, its first pair, the separator and pair
    repeated per further crossing, and its tail.  The values go in
    sorted key order, a crossing's face and slot row-major.
    """
    if not loops.crossings:
        return "[]"
    columns = {name: np.asarray(v, dtype=float) for name, v in loops.figures.items()}
    lengths = list(map(len, loops.crossings))
    if not (min(lengths) and all(np.isfinite(v).all() for v in columns.values())):
        raise ValueError("a loop with no crossings or a figure that is not finite")
    inner = pad + "  "
    names = sorted(columns)
    head, pair, sep_pair, tail = _loop_templates(tuple(names), inner)
    template = ("," + inner).join(head + pair + sep_pair * (k - 1) + tail for k in lengths)
    # a row's figures in sorted key order; those before "crossings" go
    # before its pairs
    at = sum(name < "crossings" for name in names)
    figures = list(zip(*(columns[name].tolist() for name in names))) or [()] * len(lengths)
    flat = np.fromiter(chain.from_iterable(loops.crossings), np.intp)
    face_slot = np.column_stack(np.divmod(flat, 3)).ravel().tolist()
    values, start = [], 0
    for k, row_figures in zip(lengths, figures):
        values += row_figures[:at]
        values += face_slot[start : start + 2 * k]
        values += row_figures[at:]
        start += 2 * k
    return "[" + inner + template % tuple(values) + pad + "]"


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


def _ball_layout(*nodes) -> str:
    top = {"base": _INT, "depth": _INT, "max_drift": _FLOAT}
    return canonical_json({**top, "nodes": list(nodes)})


_BALL_HEAD, _BALL_ROOT, _BALL_NODE, _BALL_TAIL = _templates(
    _ball_layout, {**_NODE_FIELDS, **dict.fromkeys(_ROOT_NULL)}, _NODE_FIELDS
)


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

