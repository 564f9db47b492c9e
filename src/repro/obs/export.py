"""JSON artifacts.

Every benchmark and CLI run can emit a machine-readable artifact next
to (or instead of) its human-readable text.  JSON is the canonical
form: :func:`write_json` writes it with sorted keys, and
:func:`load_json` reads back the same values.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Union

__all__ = [
    "json_default",
    "write_json",
    "load_json",
]


def json_default(obj: Any) -> Any:
    """Coerce numpy scalars/arrays and other common simulation types."""
    for attr in ("item",):  # numpy scalar -> python scalar
        fn = getattr(obj, attr, None)
        if callable(fn):
            try:
                return fn()
            except (TypeError, ValueError):
                pass
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if hasattr(obj, "as_dict"):
        return obj.as_dict()
    if isinstance(obj, (set, frozenset)):
        try:
            return sorted(obj)
        except TypeError:
            # Mixed-type sets (e.g. {1, "a"}) have no natural order;
            # repr order is deterministic and never raises.
            return sorted(obj, key=repr)
    if isinstance(obj, tuple):
        return list(obj)
    return str(obj)


def write_json(path: Union[str, os.PathLike], payload: Dict[str, Any]) -> str:
    """Write a JSON artifact (parent dirs created); returns the path."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=json_default)
        fh.write("\n")
    return path


def load_json(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        return json.load(fh)
