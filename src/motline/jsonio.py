"""File formats: measure/coupling JSON schemas and canonical JSON output.

Measure files: {"atoms": [...], "weights": [...]}.
Coupling files: {"points": [[x1, x2, w], ...]}.
Parsing rejects NaN/Inf and weight totals further than 1e-6 from 1, then
renormalizes exactly.  Output is canonical: sorted keys, floats printed with
17 significant digits, so byte-for-byte comparisons are meaningful.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError
from .measures import DiscreteCoupling, DiscreteMeasure, make_coupling, make_measure

PARSE_WEIGHT_TOL = 1e-6


def load_json(path: str) -> dict:
    """The JSON object in a file; an unreadable file, invalid JSON, a
    non-finite constant or a top-level value that is not an object raises
    ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return data


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name!r} is not allowed")


def _finite_array(values, path: str, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ParseError(f"{path}: non-finite {what}")
    return arr


def load_measure(path: str) -> DiscreteMeasure:
    data = load_json(path)
    if set(data) != {"atoms", "weights"}:
        raise ParseError(f"{path}: expected exactly the keys 'atoms' and 'weights'")
    try:
        atoms = _finite_array(data["atoms"], path, "atom")
        weights = _finite_array(data["weights"], path, "weight")
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if atoms.ndim != 1 or atoms.shape != weights.shape or atoms.size == 0:
        raise ParseError(f"{path}: atoms and weights must be equal-length nonempty lists")
    if np.any(weights < 0):
        raise ParseError(f"{path}: negative weight")
    if abs(weights.sum() - 1.0) > PARSE_WEIGHT_TOL:
        raise ParseError(f"{path}: weights sum to {weights.sum()!r}, not 1")
    return make_measure(atoms, weights)


def load_coupling(path: str) -> DiscreteCoupling:
    data = load_json(path)
    if set(data) != {"points"}:
        raise ParseError(f"{path}: expected exactly the key 'points'")
    try:
        pts = _finite_array(data["points"], path, "entry")
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise ParseError(f"{path}: points must be a nonempty list of [x1, x2, w] triples")
    if np.any(pts[:, 2] < 0):
        raise ParseError(f"{path}: negative point mass")
    if abs(pts[:, 2].sum() - 1.0) > PARSE_WEIGHT_TOL:
        raise ParseError(f"{path}: masses sum to {pts[:, 2].sum()!r}, not 1")
    return make_coupling(pts)


def coupling_to_dict(pi: DiscreteCoupling) -> dict:
    return {"points": [[float(a), float(b), float(w)]
                       for a, b, w in zip(pi.x1, pi.x2, pi.w)]}


def save(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(payload))
        handle.write("\n")


def canonical_dumps(value) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    return "".join(_emit(value))


def _emit(value):
    if value is None:
        yield "null"
    elif value is True:
        yield "true"
    elif value is False:
        yield "false"
    elif isinstance(value, str):
        yield json.dumps(value)
    elif isinstance(value, (int, np.integer)):
        yield str(int(value))
    elif isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ParseError("cannot serialize non-finite number")
        yield format(value, ".17g")
    elif isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise ParseError("object keys must be strings")
            if i:
                yield ","
            yield json.dumps(key)
            yield ":"
            yield from _emit(value[key])
        yield "}"
    elif isinstance(value, (list, tuple, np.ndarray)):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ","
            yield from _emit(item)
        yield "]"
    else:
        raise ParseError(f"cannot serialize {type(value).__name__}")
