"""Exporters: JSON artifacts, Prometheus text format.

Every benchmark and CLI run can emit a machine-readable artifact next
to (or instead of) its human-readable text.  JSON is the canonical form
and round-trips exactly (:func:`load_json` + ``MetricsRegistry.from_dict``
reproduce the same values); :func:`registry_to_prometheus` renders the
registry's counters and gauges as Prometheus exposition text, and
:func:`parse_exposition` parses it back as the tests' oracle.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Union

from .registry import MetricsRegistry

__all__ = [
    "json_default",
    "write_json",
    "load_json",
    "registry_to_prometheus",
    "parse_exposition",
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


def _prom_name(name: str) -> str:
    """Sanitize to the Prometheus name charset [a-zA-Z0-9_:]."""
    return "".join(c if c.isalnum() or c in "_:" else "_" for c in name)


def _prom_escape(value: str) -> str:
    """Escape a label value per the exposition format: backslash,
    double quote, and newline must be escaped inside the quotes."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_unescape(value: str) -> str:
    out: List[str] = []
    it = iter(value)
    for c in it:
        if c == "\\":
            nxt = next(it, "")
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
        else:
            out.append(c)
    return "".join(out)


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_prom_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def registry_to_prometheus(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """Prometheus exposition text (counters and gauges)."""
    data = registry.as_dict()
    lines: List[str] = []
    seen_types: Dict[str, str] = {}

    def typed(name: str, kind: str) -> None:
        if seen_types.get(name) != kind:
            seen_types[name] = kind
            lines.append(f"# TYPE {name} {kind}")

    for c in data["counters"]:
        name = _prom_name(f"{prefix}{c['name']}")
        typed(name, "counter")
        lines.append(f"{name}{_prom_labels(c['labels'])} {c['value']}")
    for g in data["gauges"]:
        name = _prom_name(f"{prefix}{g['name']}")
        typed(name, "gauge")
        lines.append(f"{name}{_prom_labels(g['labels'])} {g['value']}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_exposition(text: str) -> Dict[str, Any]:
    """Parse Prometheus exposition text back into samples.

    Returns ``{"types": {name: kind}, "samples": [{"name", "labels",
    "value"}, ...]}``.  Label values are unescaped, so a round trip
    through :func:`registry_to_prometheus` is exact.  Raises
    :class:`ValueError` on malformed lines — this is the test-side
    validator for the exposition :func:`registry_to_prometheus` emits.
    """
    types: Dict[str, str] = {}
    samples: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            types[fields[2]] = fields[3]
            continue
        if line.startswith("#"):
            continue  # HELP/comment lines
        name, labels, rest = _split_sample(line, lineno)
        value_field = rest.split()
        if not value_field:
            raise ValueError(f"line {lineno}: sample has no value: {line!r}")
        try:
            value = float(value_field[0])
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric sample value {value_field[0]!r}"
            ) from None
        samples.append({"name": name, "labels": labels, "value": value})
    return {"types": types, "samples": samples}


def _split_sample(line: str, lineno: int) -> tuple:
    """``name{labels} value`` -> (name, labels dict, value text)."""
    brace = line.find("{")
    if brace < 0:
        name, _, rest = line.partition(" ")
        if not name or not rest:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        return name, {}, rest
    name = line[:brace]
    labels: Dict[str, str] = {}
    i = brace + 1
    while i < len(line) and line[i] != "}":
        eq = line.find("=", i)
        if eq < 0 or eq + 1 >= len(line) or line[eq + 1] != '"':
            raise ValueError(f"line {lineno}: malformed labels: {line!r}")
        key = line[i:eq].lstrip(",").strip()
        j = eq + 2
        raw: List[str] = []
        while j < len(line):
            c = line[j]
            if c == "\\":
                raw.append(line[j : j + 2])
                j += 2
                continue
            if c == '"':
                break
            raw.append(c)
            j += 1
        else:
            raise ValueError(f"line {lineno}: unterminated label value: {line!r}")
        labels[key] = _prom_unescape("".join(raw))
        i = j + 1
    if i >= len(line) or line[i] != "}":
        raise ValueError(f"line {lineno}: unterminated label set: {line!r}")
    return name, labels, line[i + 1 :].strip()
