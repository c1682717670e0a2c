"""Standard LP text format export and external-solution ingestion.

The writer emits the CPLEX-style sections ``Minimize`` / ``Subject To`` /
``Bounds`` / ``Binary`` / ``End`` so instances beyond the embedded solver can
be handed to an external solver.  A model whose objective has no nonzero
coefficient is written as ``obj: 0 x_dummy`` (with ``x_dummy`` declared fixed
at 0 in ``Bounds``), which external solvers parse back without complaint.
The objective is written in one pass over the columns and each row in one
pass over its terms, with one table of coefficient texts for both;
``Bounds`` lists only the columns whose bounds are not [0, 1], and
``Binary`` is one join of the names.  The whole text is returned at once.

Solutions come back as a plain listing, one ``name value`` pair per line;
``parse_solution_listing`` reads it, rejecting a value that is not a finite
number and a name listed twice, and ``solution_values_by_id`` maps it onto
model variables for validation-only runs.
"""

from __future__ import annotations

import math
from itertools import compress, islice, pairwise
from operator import concat
from typing import Mapping

from .model import MilpModel, ModelError

__all__ = ["emit_lp_file", "parse_solution_listing", "solution_values_by_id"]


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


_WRAP_COLUMN = 200


class _Prefixes(dict):
    """Coefficient -> the text that leads a term with it: the sign, then the
    magnitude unless it is 1 (``"+ "``, ``"- 2.5 "``), built once per
    distinct coefficient."""

    def __missing__(self, coef: float) -> str:
        mag = abs(coef)
        text = ("- " if coef < 0 else "+ ") + ("" if mag == 1 else f"{_fmt(mag)} ")
        self[coef] = text
        return text


def _expression(parts: list[str]) -> str:
    """Signed terms (``"+ x"``, ``"- 2.5 y"``) joined into one expression
    without a leading ``+``.  A line wraps before a term that would take it
    past _WRAP_COLUMN; continuation lines stay indented for LP readers."""
    if parts and parts[0].startswith("+ "):
        parts[0] = parts[0][2:]
        if not parts[0]:  # an unnamed leading term with coefficient 1
            del parts[0]
    if not parts:
        return ""
    lines: list[str] = []
    start, width = 0, -1
    for k, size in enumerate(map(len, parts)):
        width += size + 1
        if width > _WRAP_COLUMN and k > start:
            lines.append(" ".join(parts[start:k]))
            start, width = k, size
    lines.append(" ".join(parts[start:]))
    return "\n   ".join(lines)


def emit_lp_file(model: MilpModel) -> str:
    """The model as LP text.  The objective and the rows share one
    _Prefixes table, so each distinct coefficient's text is built once per
    call; nothing is kept between calls."""
    names, objective = model.names, model.objective
    prefixes = _Prefixes()
    # one pass: the zero objective coefficients and their columns are left out
    dummy_needed = not any(objective)
    obj = "0 x_dummy" if dummy_needed else _expression(list(map(
        concat, map(prefixes.__getitem__, filter(None, objective)), compress(names, objective))))
    lines = [f"\\ {model.name}", "Minimize", f" obj: {obj}", "Subject To"]
    terms = zip(model.indices, model.coefs)  # walked row by row
    for idx, (name, relation, rhs, (start, end)) in enumerate(zip(
            model.row_names, model.relations, model.rhs, pairwise(model.indptr))):
        if end > start:  # add_rows keeps no zero term
            body = _expression([prefixes[coef] + names[vid]
                                for vid, coef in islice(terms, end - start)])
        else:
            body = "0 x_dummy"
            dummy_needed = True
        label = name.replace(" ", "_") or f"c{idx}"
        lines.append(f" c{idx}_{label}: {body} {relation} {_fmt(rhs)}")

    lines.append("Bounds")
    # every column inside [0, 1]: only a tightened one has a line
    if model.lower.count(0.0) + model.upper.count(1.0) != 2 * len(names):
        lines.extend(f" {_fmt(lower)} <= {name} <= {_fmt(upper)}"
                     for name, lower, upper in zip(names, model.lower, model.upper)
                     if (lower, upper) != (0.0, 1.0))
    if dummy_needed:
        lines.append(" x_dummy = 0")
    if names:
        lines.append("Binary\n " + "\n ".join(names))
    lines.append("End")
    return "\n".join(lines) + "\n"


def parse_solution_listing(text: str) -> dict[str, float]:
    """Parse a ``name value`` per-line listing; '#' starts a comment.

    A line that is not a name and a finite number, or that repeats an
    earlier name, is a ValueError naming the line."""
    out: dict[str, float] = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed solution line {number}: {raw!r}")
        name, value = parts
        try:
            x = float(value)
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise ValueError(f"solution line {number}: {raw!r}: the value of "
                             f"{name} must be a finite number")
        if name in out:
            raise ValueError(f"solution line {number}: {raw!r}: {name} is listed twice")
        out[name] = x
    return out


def solution_values_by_id(model: MilpModel, named: Mapping[str, float]) -> dict[int, float]:
    """Map a name->value listing onto variable ids.

    Unknown names (e.g. ``x_dummy`` or an external solver's extras) are
    ignored; missing model variables default to 0.
    """
    values = dict.fromkeys(range(len(model.names)), 0.0)
    for name, val in named.items():
        try:
            values[model.var_id(name)] = val
        except ModelError:
            pass
    return values
