"""Deterministic CSV/JSON emission: fixed float format, sorted JSON keys."""

from __future__ import annotations

import csv
import json
import math


def fmt_value(value) -> str:
    """Floats at 17 significant digits; everything else via str."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt_value(v) for v in row] for row in rows)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(fmt_value(obj))
    if hasattr(obj, "item"):  # numpy scalars
        return _jsonify(obj.item())
    return obj


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
