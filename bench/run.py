"""Plan-and-verify benchmark for otnplan (see README.md beside this file).

One run measures one workload in one process:

    python3 bench/run.py --workload suite20-gap0 --seed 1 --seconds 40 --trace 0

``--workload all`` runs every workload untraced and traced, each in its own
process, one after the other, and prints every metric by name and unit.
The last line of a single run's output is its result as one JSON object.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up time includes importing the program

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import reference
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
P90_MIN_REQUESTS = 100
WORKLOADS = ("fixture6", "suite20-gap0", "export12")

# unit by name suffix; every other metric is a count
UNITS = {"_s": "s", ".s": "s", "_ref": "ref", "_pct": "%", "_mb": "MB", ".mb": "MB", "_mb_max": "MB",
         ".us_per_pivot": "us", ".cost_total": "cost"}
# per-layer metrics that are not counts; the counts must repeat between passes
NOT_COUNTS = ("_s", ".s", "_pct", ".us_per_pivot")


def _import_program() -> dict:
    """The modules that hold traced names, imported from this checkout's
    ``src``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        modules = {name: importlib.import_module(name)
                   for name, *_ in spans.TRACED}
    except ImportError as exc:
        raise SystemExit(f"error: cannot import otnplan from {src}: {exc}")
    where = Path(modules["otnplan.cli"].__file__).resolve()
    if not where.is_relative_to(src):
        raise SystemExit(f"error: otnplan was imported from {where}, not from {src}")
    return modules


# ---------------------------------------------------------------------------
# run record


def _proc_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _proc_children() -> int | None:
    try:
        return sum(len(Path(f"/proc/self/task/{tid}/children").read_text().split())
                   for tid in os.listdir("/proc/self/task"))
    except OSError:
        return None


def _blas() -> dict:
    import ctypes

    import numpy
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "library": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        out["library"] = Path(lib).name
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout, read without starting git; None outside a
    git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment() -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": _blas(), "machine": platform.machine(),
            "git_commit": _git_commit(), "source_sha256": _source_sha256()}


# ---------------------------------------------------------------------------
# one run


def _request(cli, call, req, out: Path) -> tuple[float, int | None, str, str]:
    """Time one ``run_cli`` call with its output captured."""
    request = cli.RunRequest(instance=req.instance, mode=req.mode, approach=req.approach,
                             gap=req.gap, output_dir=str(out), emit_lp=req.emit_lp,
                             verify=req.verify)
    stdout, stderr = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            rc = call(request)
        except Exception as exc:  # a request that raises is a failed request
            print(f"{type(exc).__name__}: {exc}", file=stderr)
        elapsed = time.perf_counter() - start
    return elapsed, rc, stdout.getvalue(), stderr.getvalue()


def _digest(evidence: dict) -> str:
    """Hash of every request's fingerprints and counts."""
    return hashlib.sha256(json.dumps(evidence, sort_keys=True).encode()).hexdigest()


def _compare_runs(key: str, digest: str, label: str) -> str | None:
    """Compare with earlier runs of the same source on the same inputs (any
    seed, traced or not); returns a problem or None."""
    store = OUT / "determinism.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    earlier = seen.get(key)
    if earlier and earlier["digest"] != digest:
        return f"fingerprints or counts differ from the earlier run {earlier['run']}"
    if not earlier:
        seen[key] = {"digest": digest, "run": label}
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1) + "\n")
        os.replace(tmp, store)
    return None


PHASES = ("I-working-logical", "III-working-lightpaths", "II-protection-logical",
          "III-spare-carrier-lightpaths", "IV-protection-lightpaths")


def _phase_metrics(evidence: dict, phase_s: list[dict]) -> dict:
    """Per phase name, summed over the requests: the planner's own wall time
    (median over passes), B&B nodes and simplex pivots."""
    out: dict[str, float] = {}
    for name in PHASES:
        out[f"phase.{name}.s"] = statistics.median(p.get(name, 0.0) for p in phase_s)
        out[f"phase.{name}.nodes"] = 0
        out[f"phase.{name}.pivots"] = 0
    retries = 0
    for ev in evidence.values():
        for name, nodes, pivots, r in ev.get("phases", ()):
            out[f"phase.{name}.nodes"] += nodes
            out[f"phase.{name}.pivots"] += pivots
            retries += r
    out["planner.retries"] = retries
    return out


def run(modules: dict, import_s: float, workload: str, seed: int, seconds: float,
        traced: bool, suite_seed: int) -> int:
    import workloads

    cli = modules["otnplan.cli"]
    tracer = spans.Tracer() if traced else None
    call = cli.run_cli
    if tracer:
        tracer.install(modules)
        call = tracer.wrap("request", cli.run_cli)
    label = f"{workload}.seed{seed}.trace{int(traced)}"
    if workload == "suite20-gap0" and suite_seed != workloads.SUITE_SEED:
        label = f"{workload}.suite-seed{suite_seed}.seed{seed}.trace{int(traced)}"
    work = OUT / "work" / workload
    failures: list[str] = []
    threads_max = _proc_threads() or 0
    children_max = _proc_children() or 0
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            if tracer:
                tracer.request = f"setup{k}"
            start = time.perf_counter()
            wl = workloads.setup(workload, seed, suite_seed, work)
            setup_times.append(time.perf_counter() - start)
        threads_max = max(threads_max, _proc_threads() or 0)

        order = list(wl.requests)
        random.Random(seed).shuffle(order)
        passes: list[dict] = []
        attempted = 0
        failed_keys: set[tuple[int, str]] = set()
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < seconds:
            p = len(passes)
            times, evidence, phase_s = {}, {}, {}
            ref_s = 0.0
            for req in order:
                ref_s += reference.run()
                if tracer:
                    tracer.request = f"p{p}/{req.key}"
                elapsed, rc, stdout, stderr = _request(cli, call, req, work)
                attempted += 1
                times[req.key] = elapsed
                try:
                    ev = workloads.check(req, rc, stdout, work)
                except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
                    tail = stderr.strip().splitlines()[-1:] or [""]
                    failures.append(f"pass {p} request {req.key}: {exc} {tail[0]}".strip())
                    failed_keys.add((p, req.key))
                    continue
                for name, s in zip((ph[0] for ph in ev.get("phases", ())),
                                   ev.pop("phase_s", ())):
                    phase_s[name] = phase_s.get(name, 0.0) + s
                evidence[req.key] = ev
                first = passes[0]["evidence"].get(req.key) if passes else None
                if first is not None and first != ev:
                    failures.append(f"pass {p} request {req.key}: fingerprint or "
                                    f"counts differ from pass 0")
                    failed_keys.add((p, req.key))
            passes.append({"wall_s": sum(times.values()), "ref_s": ref_s, "times": times,
                           "evidence": evidence, "phase_s": phase_s})
            threads_max = max(threads_max, _proc_threads() or 0)
            children_max = max(children_max, _proc_children() or 0)
    finally:
        if tracer:
            tracer.uninstall()

    env = _environment()
    if threads_max > env["nproc"] or children_max:
        failures.append(f"process check: {threads_max} threads (nproc "
                        f"{env['nproc']}), {children_max} child processes")
    evidence = passes[0]["evidence"]
    digest = _digest(evidence)
    problem = None
    if not failed_keys:
        problem = _compare_runs(f"{env['source_sha256']}/{workload}/"
                                f"{wl.record['inputs_sha256']}", digest, label)
    if problem:
        failures.append(f"determinism: {problem}")

    per_request = {req.key: statistics.median(p["times"][req.key] for p in passes)
                   for req in order}
    request_times = sorted(per_request.values())
    metrics = {
        # a pass's request time in units of one slice of the reference work
        "wall_ref": statistics.median(p["wall_s"] * len(order) / p["ref_s"]
                                      for p in passes),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    extra = {
        # each request at its median over the passes, so that one slow pass
        # or one request caught by a burst of load on the host weighs little
        "wall_s": sum(per_request.values()),
        "ref_slice_s": statistics.median(p["ref_s"] for p in passes) / len(order),
        "requests": len(request_times),
        "passes": len(passes),
        "req_p50_s": statistics.median(request_times),
        "req_p90_s": (statistics.quantiles(request_times, n=10)[8]
                      if len(request_times) >= P90_MIN_REQUESTS else None),
        "error_rate": len(failed_keys) / attempted,
        "cost_total": float(sum(Fraction(ev["cost"]) for ev in evidence.values()
                                if "cost" in ev)),
    }

    layers: dict[str, float] = {}
    if tracer:
        per_pass = [spans.layer_metrics(tracer.layer_totals(
            [f"p{i}/{req.key}" for req in order])) for i in range(len(passes))]
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            if not name.endswith(NOT_COUNTS) and len(set(values)) > 1:
                failures.append(f"determinism: {name} differs between passes: {values}")
            layers[name] = statistics.median(values)
        layers.update(_phase_metrics(evidence, [p["phase_s"] for p in passes]))
        layers["planner.cost_total"] = extra["cost_total"]
        layers["oracle.s"] = statistics.median(
            tracer.layer_totals([f"setup{k}"]).get("oracle", {}).get("s", 0.0)
            for k in range(SETUP_REPEATS))

    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": env,
        "process": {"pid": os.getpid(), "threads_max": threads_max,
                    "children_max": children_max},
        "inputs": wl.record,
        "setup": {"import_s": import_s, "repeats_s": setup_times},
        "metrics": metrics, "extra": extra, "per_layer": layers,
        "passes": [{"wall_s": p["wall_s"], "ref_s": p["ref_s"], "times": p["times"]}
                   for p in passes],
        "requests": evidence, "digest": digest, "failures": failures,
    }
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write_jsonl(OUT / f"{label}.spans.jsonl")

    print(f"{workload} seed={seed} trace={int(traced)}: {len(passes)} passes of "
          f"{len(order)} requests")
    for name, value in metrics.items():
        _show(name, value, "lower is better")
    _show("wall_s", extra["wall_s"], "lower is better")
    _show("ref_slice_s", extra["ref_slice_s"], "one slice of the reference work")
    _show("req_p50_s", extra["req_p50_s"], f"lower is better (n={len(request_times)})")
    if extra["req_p90_s"] is not None:
        _show("req_p90_s", extra["req_p90_s"], f"lower is better (n={len(request_times)})")
    _show("error_rate", extra["error_rate"], f"lower is better "
          f"({len(failed_keys)}/{attempted})", "fraction")
    _show("cost_total", extra["cost_total"], "lower is better", "cost")
    for name, value in layers.items():
        _show(name, value)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"record: {(OUT / f'{label}.json').relative_to(ROOT)}")

    shown = layers if traced else metrics
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failed_keys),
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in shown.items()}}))
    return 1 if failures else 0


def _show(name: str, value: float, note: str = "", unit: str | None = None) -> None:
    print(f"  {name:<42} {value:16.6f} {unit or _unit(name):<8} {note}".rstrip())


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# every workload


def run_all(seed: int, seconds: float, suite_seed: int) -> int:
    status = 0
    for workload in WORKLOADS:
        walls = {}
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced),
                 "--suite-seed", str(suite_seed)],
                capture_output=True, text=True, timeout=900, check=False)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            record = OUT / f"{workload}.seed{seed}.trace{traced}.json"
            if record.exists():
                walls[traced] = json.loads(record.read_text())["extra"]["wall_s"]
        if len(walls) == 2:
            untraced, traced_wall = walls[0], walls[1]
            print(f"  {workload}: traced wall_s minus untraced wall_s = "
                  f"{100 * (traced_wall - untraced) / untraced:+.2f}% (one run each)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite-seed", type=int, default=None,
                        help="draw suite20-gap0 from this seed instead of the "
                             "test suite's")
    args = parser.parse_args(argv)
    modules = _import_program()
    import_s = time.perf_counter() - _START
    import workloads
    suite_seed = workloads.SUITE_SEED if args.suite_seed is None else args.suite_seed
    if args.workload == "all":
        return run_all(args.seed, args.seconds, suite_seed)
    return run(modules, import_s, args.workload, args.seed, args.seconds,
               bool(args.trace), suite_seed)


if __name__ == "__main__":
    sys.exit(main())
