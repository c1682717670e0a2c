"""Command-line front end: plan, verify, report, gen-topology,
estimate-size, oracle.

Exit codes: 0 success, 1 no plan (infeasible, time limit or a failed LP
solve) or failed verification, 2 usage errors, bad option values and
malformed instances or configurations.  The default output directory comes
from the ``OTNPLAN_OUT`` environment variable (falling back to the working
directory).

Every output file is written by ``_write``, in place: an existing file is
overwritten from its start and cut to the new length, never truncated to
zero first.  A re-run into the same output directory so avoids the flush
on close that ext4 (``auto_da_alloc``) gives a file truncated to zero and
written again; a new file gains nothing.  That flush is the file system's
guard for this rewrite pattern, and nothing here syncs: after a crash soon
after a rewrite, a file may have its new length but old or mixed bytes.
Every output is made again by running the same command.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .formulation import audit_model, estimate_problem_size
from .instance import bundled_instance_path, config_from_dict, config_to_dict, load_instance
from .milp import check_solution, emit_lp_file, parse_solution_listing, solution_values_by_id
from .modes import APPROACH_CHOICES, MODE_CHOICES, Approach, SurvivabilityMode
from .netmodel import average_connectivity, generate_topology, validate_topology
from .oracle import OracleBoundsError, brute_force_optimum
from .planner import PlanError, PlanOptions, export_phase_models, lightpath_overloads, plan
from .report import emit_report
from .verify import check_disjointness, check_restorability, enumerate_failures

__all__ = ["RunRequest", "run_cli", "main"]


@dataclass
class RunRequest:
    """A fully resolved ``plan`` invocation; its defaults are the ``plan``
    command's."""

    instance: str
    mode: str = "none"
    approach: str = "sequential"
    cost_ratio: str | None = None
    gap: float = PlanOptions.gap
    time_limit: float = PlanOptions.time_limit
    output_dir: str | None = None
    emit_lp: bool = False
    solution_in: str | None = None
    verify: bool = False
    report_format: str = "table"


# each report format and the extension of its file
_REPORT_EXTENSIONS = {"table": "txt", "csv": "csv", "json": "json"}


class _WriteError(Exception):
    """An output file or directory that cannot be written; exit code 2."""


def _out_dir(explicit: str | None) -> Path:
    path = Path(explicit or os.environ.get("OTNPLAN_OUT", "."))
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def _write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` in place (see the module docstring).  A
    regular file is cut to the bytes written even when a write fails, so
    no tail of its old text survives; ``/dev/null``, ``/dev/stdout`` or a
    FIFO is only written."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            view = memoryview(text.encode("utf-8"))
            written = 0
            try:
                while written < len(view):
                    written += os.write(fd, view[written:])
            finally:
                if regular:
                    os.ftruncate(fd, written)
        finally:
            os.close(fd)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc.strerror or exc}") from None


def _config_text(data: dict) -> str:
    """The configuration ``data`` as JSON text: one top-level key per line,
    and a non-empty list under a top-level key one element per line.  Each
    piece is written by ``json.dumps`` without ``indent``, which takes the C
    encoder."""
    lines = []
    for key, value in data.items():
        if isinstance(value, list) and value:
            text = "[\n" + ",\n".join(map(json.dumps, value)) + "\n]"
        else:
            text = json.dumps(value)
        lines.append(f"{json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _load(request: RunRequest):
    cost_ratio = None
    if request.cost_ratio:
        text = request.cost_ratio
        cost_ratio = json.loads(text) if text.strip().startswith("{") else text
    return load_instance(request.instance, SurvivabilityMode(request.mode),
                         Approach(request.approach), cost_ratio)


def _verification(config) -> tuple[str, bool]:
    """The failure-simulation report followed by any disjointness and
    capacity violations, and whether all three passed."""
    rest = check_restorability(config, enumerate_failures(config))
    violations = check_disjointness(config)
    overloads = lightpath_overloads(config)
    text = rest.render()
    if violations:
        text += "disjointness violations:\n" + "".join(f"  {v}\n" for v in violations)
    if overloads:
        text += "capacity violations:\n" + "".join(f"  {v}\n" for v in overloads)
    return text, rest.fully_restorable and not violations and not overloads


def run_cli(request: RunRequest) -> int:
    """Execute a plan request; returns the process exit code."""
    try:
        return _run(request)
    except _WriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(request: RunRequest) -> int:
    try:
        options = PlanOptions(gap=request.gap, time_limit=request.time_limit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if request.report_format not in _REPORT_EXTENSIONS:
        print(f"error: unknown report format {request.report_format!r} "
              f"(choose from {', '.join(_REPORT_EXTENSIONS)})", file=sys.stderr)
        return 2
    try:
        inst = _load(request)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load instance: {exc}", file=sys.stderr)
        return 2

    out = _out_dir(request.output_dir)
    if request.emit_lp:
        models = export_phase_models(inst)
        written = []
        for name, model in models.items():
            path = out / f"{Path(request.instance).stem}.{request.mode}.{name}.lp"
            _write(path, emit_lp_file(model))
            written.append(path)
            print(audit_model(model), end="")
        for path in written:
            print(f"wrote {path}")
        if request.solution_in:
            model = next(iter(models.values()))
            try:
                listing = parse_solution_listing(
                    Path(request.solution_in).read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                print(f"error: cannot read solution listing: {exc}", file=sys.stderr)
                return 2
            values = solution_values_by_id(model, listing)
            problems = check_solution(model, values)
            if problems:
                print(f"external solution INVALID ({len(problems)} violations):")
                for p in problems[:20]:
                    print(f"  {p}")
                return 1
            obj = model.evaluate_objective(values)
            print(f"external solution valid; objective {obj}")
        return 0

    try:
        config = plan(inst, options)
    except PlanError as exc:
        print(f"no plan: {exc}", file=sys.stderr)
        return 1

    stem = f"{Path(request.instance).stem}.{request.mode}.{request.approach}"
    config_path = out / f"{stem}.config.json"
    _write(config_path, _config_text(config_to_dict(config)))
    report_text = emit_report([(request.mode, config)], fmt=request.report_format)
    report_path = out / f"{stem}.report.{_REPORT_EXTENSIONS[request.report_format]}"
    _write(report_path, report_text)
    print(report_text, end="")
    print(f"wrote {config_path}")
    print(f"wrote {report_path}")

    if request.verify:
        text, passed = _verification(config)
        verify_path = out / f"{stem}.verify.txt"
        _write(verify_path, text)
        print(f"wrote {verify_path}")
        if not passed:
            print("verification FAILED", file=sys.stderr)
            return 1
        print("verification passed: 100% restorability, no violations")
    return 0


def _cmd_plan(args) -> int:
    return run_cli(RunRequest(
        instance=args.instance, mode=args.mode, approach=args.approach,
        cost_ratio=args.cost_ratio, gap=args.gap, time_limit=args.time_limit,
        output_dir=args.output_dir, emit_lp=args.emit_lp,
        solution_in=args.solution_in, verify=args.verify,
        report_format=args.report_format))


def _cmd_verify(args) -> int:
    try:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        config = config_from_dict(data)
        stored = data.get("cost", {}).get("total")
        stored_total = None if stored is None else Fraction(str(stored))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load configuration: {exc}", file=sys.stderr)
        return 2
    text, passed = _verification(config)
    if stored_total is not None and stored_total != config.cost.total:
        text += (f"consistency:\n  stored total cost {stored} != recomputed "
                 f"{config.cost.total}\n")
        passed = False
    print(text, end="")
    if args.output:
        _write(Path(args.output), text)
        print(f"wrote {args.output}")
    return 0 if passed else 1


def _cmd_report(args) -> int:
    configs = []
    try:
        for path in args.configs:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            config = config_from_dict(data)
            configs.append((args.labels.pop(0) if args.labels else data["mode"], config))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load configuration: {exc}", file=sys.stderr)
        return 2
    try:
        print(emit_report(configs, fmt=args.format, diff_base=args.diff), end="")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_gen_topology(args) -> int:
    try:
        topo = generate_topology(args.nodes, args.connectivity, args.seed,
                                 W=args.wavelengths)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = validate_topology(topo)
    skeleton = {
        "nodes": list(topo.nodes),
        "links": [list(l) for l in topo.links],
        "params": {"C": 10, "W": topo.W, "Q": 2, "T": 4 * (topo.n - 1)},
        "cost_ratio": "CR1",
        "demands": [],
    }
    text = json.dumps(skeleton, indent=1) + "\n"
    if args.output:
        _write(Path(args.output), text)
        print(f"wrote {args.output} (bi-connected: {report.ok}, "
              f"average connectivity {float(average_connectivity(topo))})")
    else:
        print(text, end="")
    return 0


def _cmd_estimate_size(args) -> int:
    try:
        inst = load_instance(args.instance)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load instance: {exc}", file=sys.stderr)
        return 2
    for approach in (Approach.SEQUENTIAL, Approach.INTEGRATED):
        print(f"{approach.value}: ~{estimate_problem_size(inst, approach)} variables")
    return 0


def _cmd_oracle(args) -> int:
    try:
        inst = load_instance(args.instance, SurvivabilityMode(args.mode),
                             Approach(args.approach))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load instance: {exc}", file=sys.stderr)
        return 2
    try:
        cost, config = brute_force_optimum(inst)
    except OracleBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PlanError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    counts = config.counts()
    print(f"optimal cost: {float(cost)}")
    print(f"lightpaths: {counts.lightpaths} "
          f"({config.protection_carrying_lightpaths()} carrying protection LSPs)")
    print(f"wavelengths: {counts.wavelengths}")
    print(f"transit: {float(counts.transit_gbps)} Gbps")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otnplan",
        description="Design minimum-cost survivable packet-over-optical networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run a survivability pipeline on an instance")
    p.add_argument("--instance", default=str(bundled_instance_path()),
                   help="instance JSON (default: bundled 12-node example)")
    p.add_argument("--mode", choices=MODE_CHOICES, default=RunRequest.mode)
    p.add_argument("--approach", choices=APPROACH_CHOICES, default=RunRequest.approach)
    p.add_argument("--cost-ratio", default=None,
                   help="cr1|cr2|cr3 or a JSON object with c_TR/c_P_IP/c_P_OXC")
    p.add_argument("--gap", type=float, default=RunRequest.gap)
    p.add_argument("--time-limit", type=float, default=RunRequest.time_limit,
                   help="seconds per optimization phase")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--emit-lp", action="store_true",
                   help="write LP-format phase models and skip solving")
    p.add_argument("--solution-in", default=None,
                   help="validate an external 'name value' solution listing "
                        "against the exported model (requires --emit-lp)")
    p.add_argument("--verify", action="store_true",
                   help="run failure simulation on the result")
    p.add_argument("--report-format", choices=tuple(_REPORT_EXTENSIONS),
                   default=RunRequest.report_format)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("verify", help="re-verify a configuration file")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--output", default=None,
                   help="also write the per-scenario report to this file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="side-by-side comparison of configurations")
    p.add_argument("configs", nargs="+")
    p.add_argument("--labels", nargs="*", default=[])
    p.add_argument("--format", choices=tuple(_REPORT_EXTENSIONS), default="table")
    p.add_argument("--diff", default=None,
                   help="add a relative total-cost row against this column label")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("gen-topology", help="generate a random bi-connected topology")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--connectivity", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wavelengths", type=int, default=32)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen_topology)

    p = sub.add_parser("estimate-size", help="closed-form problem-size estimates")
    p.add_argument("--instance", default=str(bundled_instance_path()))
    p.set_defaults(func=_cmd_estimate_size)

    p = sub.add_parser("oracle", help="brute-force optimum for tiny instances")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=MODE_CHOICES, default="none")
    p.add_argument("--approach", choices=APPROACH_CHOICES, default="sequential")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "plan" and args.solution_in and not args.emit_lp:
        print("error: --solution-in requires --emit-lp", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except _WriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
