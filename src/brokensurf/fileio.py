"""Canonical JSON files for triangulations, structures, and measures.

One serializer, sorted keys, two-space indent, trailing newline; floats
go through repr, so save/load/save is byte-stable.  Pair keys are
"face.slot" strings, written and read back by IdealTriangulation's
pair_dict and pairs_from_dict.  Structure and measure files may either
inline their triangulation or name another file by path, resolved
relative to the referring file.
"""

from __future__ import annotations

import json
import os

from .foliation import BrokenMeasure
from .hyperbolic import DecoratedBrokenHyperbolic
from .triangulation import IdealTriangulation, build_triangulation


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def triangulation_from_dict(d: dict) -> IdealTriangulation:
    return build_triangulation(d["faces"], d["gluing"])


def _resolve_triangulation(entry, base_dir: str | None) -> IdealTriangulation:
    if isinstance(entry, str):
        path = entry if base_dir is None else os.path.join(base_dir, entry)
        obj = load(path)
        if not isinstance(obj, IdealTriangulation):
            raise ValueError(f"{path} is not a triangulation file")
        return obj
    return triangulation_from_dict(entry)


def from_jsonable(d: dict, base_dir: str | None = None):
    """Rebuild whichever object the dict encodes, keyed by its table name."""
    if "lambda" in d:
        T = _resolve_triangulation(d["triangulation"], base_dir)
        return DecoratedBrokenHyperbolic(T, T.pairs_from_dict(d["lambda"], "lambda"))
    if "w" in d:
        T = _resolve_triangulation(d["triangulation"], base_dir)
        return BrokenMeasure(T, T.pairs_from_dict(d["w"], "weight"))
    if "faces" in d and "gluing" in d:
        return triangulation_from_dict(d)
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


def dumps(obj) -> str:
    return canonical_json(to_jsonable(obj))
