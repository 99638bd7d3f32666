"""Canonical JSON files for triangulations, structures, and measures.

One serializer, sorted keys, two-space indent, trailing newline; floats
go through repr, so save/load/save is byte-stable.  Pair keys are
"face.slot" strings, written and read back by IdealTriangulation's
pair_dict and pairs_from_dict; a table naming every pair is read into
its (F, 3) array in whole-input passes, one match over all its keys and
one numpy parse of their flat indices.  Structure and measure files may
either inline their triangulation or name another file by path,
resolved relative to the referring file.

canonical_json gives every document the bytes of json.dumps(doc,
sort_keys=True, indent=2, allow_nan=False) + "\n" without json's
pure-Python indent encoder, which any indent selects.  Dicts and nested
lists are walked in Python and a scalar of an exact JSON type is written
as json writes it.  Each flat list goes through json's C encoder in one
call, and a list of DEDUP_FROM or more floats writes each distinct float
by repr once.  What this writer turns away, json writes itself, so a
non-finite float raises json's own ValueError.

Rows that repeat one shape are written from a %-template, derived from
json's own layout of a placeholder and filled by one format operation;
%d writes an int and %r a float as json does.  holonomy's loop rows
(LoopRows) are filled from each loop's flat crossing indices, split into
[face, slot] by one numpy divmod.  A developed ball, develop's document,
has one template per node kind, repeated per node.  Each coordinate of
the ball's vertex table is written by repr once, and the strings are
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
from json.encoder import encode_basestring_ascii

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
    try:
        return _text(obj, "\n") + "\n"
    except (TypeError, ValueError, RecursionError):
        # json's own text, or its error, for what _text turns away
        text = json.dumps(
            obj, sort_keys=True, indent=2, allow_nan=False, default=_json_default
        )
        return text + "\n"


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


def _json_default(obj):
    """json.dumps' default: LoopRows as its rows, else json's TypeError."""
    if isinstance(obj, LoopRows):
        return obj.rows()
    return json.JSONEncoder().default(obj)


def _finite_repr(x: float) -> str:
    """A float as json writes it; ValueError where allow_nan=False raises."""
    if not math.isfinite(x):
        raise ValueError("a float that is not finite")
    return float.__repr__(x)


# How json writes a scalar of each exact type.  Any other scalar, a
# subclass or a value of no JSON type, goes to json's C encoder.
_SCALAR = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _finite_repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_scalar_json = json.JSONEncoder(allow_nan=False).encode


# Below this many floats, numpy's fixed cost (about 25 us) is more than
# writing each distinct float once saves.
DEDUP_FROM = 64


@functools.cache
def _flat_json(separator: str):
    """json's C encoder for a flat list, its items separated by separator."""
    return json.JSONEncoder(separators=(separator, ": "), allow_nan=False).encode


def _text(obj, pad: str) -> str:
    """obj as canonical_json writes it, nested at pad: a newline and the
    indent of the line obj starts on.

    Dicts and lists holding lists or dicts are walked here.  A flat list
    goes through json's C encoder in one call, and a long list of floats
    writes each distinct float by repr once.  Raises TypeError or
    ValueError for what it leaves to json: a non-finite float, a key that
    is no str, a value of no JSON type.
    """
    write = _SCALAR.get(type(obj))
    if write:
        return write(obj)
    if isinstance(obj, LoopRows):
        return _loop_rows(obj, pad)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("a key that is no str")
        items = (
            encode_basestring_ascii(key) + ": " + _text(obj[key], inner) for key in sorted(obj)
        )
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if not isinstance(obj, (list, tuple)):
        return _scalar_json(obj)
    if not obj:
        return "[]"
    types = set(map(type, obj))
    if len(obj) >= DEDUP_FROM and all(issubclass(t, float) for t in types):
        body = ("," + inner).join(_floats(obj))
    elif all(issubclass(t, (str, int, float, type(None))) for t in types):
        body = _flat_json("," + inner)(obj)[1:-1]
    else:
        body = ("," + inner).join(_text(value, inner) for value in obj)
    return "[" + inner + body + pad + "]"


def _floats(values) -> list[str]:
    """repr of each of values, each distinct float written once."""
    x = np.array(values, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("a float that is not finite")
    # by bit pattern, so that -0.0 and 0.0 stay apart
    bits, at = np.unique(x.view(np.int64), return_inverse=True)
    written = list(map(repr, bits.view(float).tolist()))
    return list(map(written.__getitem__, at.tolist()))


# Placeholders json writes as quoted strings, replaced by conversions:
# an int, a float, a float already written by repr, and a node or pair.
_INT, _FLOAT, _REPR, _NODE = "<int>", "<float>", "<repr>", "<node>"


def _conversions(piece: str) -> str:
    """A piece of json's text with its placeholders made conversions."""
    return (
        piece.replace("%", "%%")
        .replace(f'"{_INT}"', "%d")
        .replace(f'"{_FLOAT}"', "%r")
        .replace(f'"{_REPR}"', "%s")
    )


@functools.lru_cache(maxsize=16)
def _loop_templates(names: tuple[str, ...], inner: str) -> tuple[str, ...]:
    """(head, first pair, separator and pair, tail) of a loop row's
    %-template at inner, its figures named names.

    Derived from json's layout of a two-crossing placeholder row.
    """

    def row(*pairs):
        return _text({**dict.fromkeys(names, _FLOAT), "crossings": list(pairs)}, inner)

    head, sep, tail = row(_NODE, _NODE).split(f'"{_NODE}"')
    pair = row([_INT, _INT])[len(head) : -len(tail)]
    return tuple(map(_conversions, (head, pair, sep + pair, tail)))


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


def _ball_templates() -> tuple:
    """(head, root, separator and node, tail) of a ball's %-template."""

    def doc(*nodes):
        top = {"base": _INT, "depth": _INT, "max_drift": _FLOAT}
        return canonical_json({**top, "nodes": list(nodes)})

    head, sep, tail = doc(_NODE, _NODE).split(f'"{_NODE}"')
    root = doc({**_NODE_FIELDS, **dict.fromkeys(_ROOT_NULL)})
    node = doc(_NODE_FIELDS)
    pieces = (head, root[len(head) : -len(tail)], sep + node[len(head) : -len(tail)], tail)
    return tuple(map(_conversions, pieces))


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

