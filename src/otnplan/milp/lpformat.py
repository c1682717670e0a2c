"""Standard LP text format export and external-solution ingestion.

The writer emits the CPLEX-style sections ``Minimize`` / ``Subject To`` /
``Bounds`` / ``Binary`` / ``End`` so instances beyond the embedded solver can
be handed to an external solver.  A model whose objective has no nonzero
coefficient is written as ``obj: 0 x_dummy`` (with ``x_dummy`` declared fixed
at 0 in ``Bounds``), which external solvers parse back without complaint.
The objective and each row are written with a fixed number of C-level
string operations per line, not a Python step per term: the terms'
texts (coefficient text from one table per call, then the column name)
are joined once, each led by a NUL, and each line of at most 200 columns ends at
the last NUL within reach of its start, found by one ``rfind``; a term
wider than a line takes a line of its own.  The lines are cut from a
copy with spaces for the NULs, and a continuation line is indented by
three.  ``Bounds`` lists only the columns whose bounds are not [0, 1],
and ``Binary`` is one join of the names, which is also where a name
holding a NUL is caught.  Every line of the text is joined once, and the
whole text is returned at once.

Solutions come back as a plain listing, one ``name value`` pair per line;
``parse_solution_listing`` reads it, rejecting a value that is not a finite
number and a name listed twice, and ``solution_values_by_id`` maps it onto
model variables for validation-only runs.
"""

from __future__ import annotations

import math
from itertools import compress, pairwise
from typing import Mapping

from .model import MilpModel, ModelError

__all__ = ["emit_lp_file", "parse_solution_listing", "solution_values_by_id"]


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


_WRAP_COLUMN = 200
# leads each term of a joined expression while its lines are found; no LP
# text holds it, and ``emit_lp_file`` rejects a column name that does
_SEP = "\0"


class _Prefixes(dict):
    """Coefficient -> the text that leads a term with it in a joined
    expression: _SEP, the sign, then the magnitude unless it is 1
    (``"\\0+ "``, ``"\\0- 2.5 "``), built once per distinct coefficient."""

    def __missing__(self, coef: float) -> str:
        mag = abs(coef)
        text = _SEP + ("- " if coef < 0 else "+ ") + ("" if mag == 1 else f"{_fmt(mag)} ")
        self[coef] = text
        return text


def _expression(prefixes: list[str], names: list[str]) -> list[str]:
    """The lines of the expression whose k-th term is ``prefixes[k]`` (from
    _Prefixes) then ``names[k]``, without a leading ``+``.  A line wraps
    before a term that would take it past _WRAP_COLUMN, and holds at least
    one term; continuation lines are indented for LP readers.  The prefixes
    and names are interleaved and joined once, each line's break is the
    last _SEP in reach of its start, and the lines are cut from a copy with
    spaces for the _SEPs."""
    parts = [""] * (2 * len(names))
    parts[::2] = prefixes
    parts[1::2] = names
    text = "".join(parts)
    spaced = text.replace(_SEP, " ")
    start = 1
    if text.startswith("+ ", 1):
        # an unnamed leading term with coefficient 1 leaves nothing
        start = 4 if text.startswith(_SEP, 3) else 3
    lines: list[str] = []
    indent = ""
    while len(text) - start > _WRAP_COLUMN:
        cut = text.rfind(_SEP, start + 1, start + _WRAP_COLUMN + 1)
        if cut < 0:  # a term wider than a line takes a line of its own
            cut = text.find(_SEP, start + _WRAP_COLUMN + 1)
            if cut < 0:
                break
        lines.append(indent + spaced[start:cut])
        indent = "   "
        start = cut + 1
    lines.append(indent + spaced[start:])
    return lines


def emit_lp_file(model: MilpModel) -> str:
    """The model as LP text.  The objective and the rows share one
    _Prefixes table, so each distinct coefficient's text is built once per
    call, and every line of the text is joined once at the end; nothing is
    kept between calls.  A column name that holds _SEP is a ModelError
    naming it."""
    names, objective, indices, coefs = model.names, model.objective, model.indices, model.coefs
    prefixes = _Prefixes()
    prefix = prefixes.__getitem__
    # the zero objective coefficients and their columns are left out
    dummy_needed = not any(objective)
    obj = ["0 x_dummy"] if dummy_needed else _expression(
        list(map(prefix, filter(None, objective))), list(compress(names, objective)))
    obj[0] = " obj: " + obj[0]
    lines = [f"\\ {model.name}", "Minimize", *obj, "Subject To"]
    for idx, (name, relation, rhs, (start, end)) in enumerate(zip(
            model.row_names, model.relations, model.rhs, pairwise(model.indptr))):
        if end > start:  # add_rows keeps no zero term
            body = _expression(list(map(prefix, coefs[start:end])),
                               list(map(names.__getitem__, indices[start:end])))
        else:
            body = ["0 x_dummy"]
            dummy_needed = True
        label = name.replace(" ", "_") or f"c{idx}"
        body[0] = f" c{idx}_{label}: {body[0]}"
        body[-1] = f"{body[-1]} {relation} {_fmt(rhs)}"
        lines += body

    lines.append("Bounds")
    # every column inside [0, 1]: only a tightened one has a line
    if model.lower.count(0.0) + model.upper.count(1.0) != 2 * len(names):
        lines.extend(f" {_fmt(lower)} <= {name} <= {_fmt(upper)}"
                     for name, lower, upper in zip(names, model.lower, model.upper)
                     if (lower, upper) != (0.0, 1.0))
    if dummy_needed:
        lines.append(" x_dummy = 0")
    if names:
        binary = "\n ".join(["Binary", *names])
        if _SEP in binary:
            raise ModelError(f"variable {next(name for name in names if _SEP in name)!r}: "
                             f"a name cannot hold {_SEP!r}")
        lines.append(binary)
    lines.append("End\n")
    return "\n".join(lines)


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
