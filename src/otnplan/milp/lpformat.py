"""Standard LP text format export and external-solution ingestion.

The writer emits the CPLEX-style sections ``Minimize`` / ``Subject To`` /
``Bounds`` / ``Binary`` / ``End`` so instances beyond the embedded solver can
be handed to an external solver.  A model whose objective has no nonzero
coefficient is written as ``obj: 0 x_dummy`` (with ``x_dummy`` declared fixed
at 0 in ``Bounds``), which external solvers parse back without complaint.

Solutions come back as a plain listing, one ``name value`` pair per line;
``parse_solution_listing`` maps it onto model variables for validation-only
runs.
"""

from __future__ import annotations

import math
from typing import Mapping

from .model import MilpModel, ModelError

__all__ = ["emit_lp_file", "parse_solution_listing", "solution_values_by_id"]


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


_WRAP_COLUMN = 200


def _terms_text(terms) -> str:
    parts: list[str] = []
    for name, coef in terms:
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        piece = name if mag == 1 else f"{_fmt(mag)} {name}"
        if not parts:
            parts.append(piece if sign == "+" else f"- {piece}")
        else:
            parts.append(f"{sign} {piece}")
    # wrap long expressions; continuation lines stay indented for LP readers
    lines: list[str] = []
    cur = ""
    for part in parts:
        if cur and len(cur) + len(part) + 1 > _WRAP_COLUMN:
            lines.append(cur)
            cur = part
        else:
            cur = f"{cur} {part}" if cur else part
    if cur:
        lines.append(cur)
    return "\n   ".join(lines)


def emit_lp_file(model: MilpModel) -> str:
    lines = [f"\\ {model.name}", "Minimize"]
    obj_terms = [(v.name, v.objective) for v in model.variables if v.objective != 0.0]
    dummy_needed = not obj_terms
    if dummy_needed:
        lines.append(" obj: 0 x_dummy")
    else:
        lines.append(f" obj: {_terms_text(obj_terms)}")

    lines.append("Subject To")
    rel_text = {"<=": "<=", ">=": ">=", "=": "="}
    for idx, con in enumerate(model.constraints):
        terms = [(model.var_name(vid), coef) for vid, coef in con.terms]
        body = _terms_text(terms) if terms else "0 x_dummy"
        if not terms:
            dummy_needed = True
        label = con.name.replace(" ", "_") or f"c{idx}"
        lines.append(f" c{idx}_{label}: {body} {rel_text[con.relation]} {_fmt(con.rhs)}")

    lines.append("Bounds")
    for v in model.variables:
        if v.kind == "binary":
            if (v.lower, v.upper) != (0.0, 1.0):
                lines.append(f" {_fmt(v.lower)} <= {v.name} <= {_fmt(v.upper)}")
            continue
        lo = "-inf" if math.isinf(v.lower) and v.lower < 0 else _fmt(v.lower)
        hi = "+inf" if math.isinf(v.upper) else _fmt(v.upper)
        if lo == "-inf" and hi == "+inf":
            lines.append(f" {v.name} free")
        else:
            lines.append(f" {lo} <= {v.name} <= {hi}")
    if dummy_needed:
        lines.append(" x_dummy = 0")

    binaries = [v.name for v in model.variables if v.kind == "binary"]
    if binaries:
        lines.append("Binary")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def parse_solution_listing(text: str) -> dict[str, float]:
    """Parse a ``name value`` per-line listing; '#' starts a comment."""
    out: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed solution line: {raw!r}")
        out[parts[0]] = float(parts[1])
    return out


def solution_values_by_id(model: MilpModel, named: Mapping[str, float]) -> dict[int, float]:
    """Map a name->value listing onto variable ids.

    Unknown names (e.g. ``x_dummy`` or an external solver's extras) are
    ignored; missing model variables default to 0.
    """
    values = {v.id: 0.0 for v in model.variables}
    for name, val in named.items():
        try:
            values[model.var_id(name)] = val
        except ModelError:
            pass
    return values
