"""fqhent benchmark: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload figure-session --seed 1 --seconds 25 --trace 0

Runs the checkout's src/ (fqhent need not be installed).  Load is one
closed-loop client: one op at a time, no pool.  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run, whose spans go to .bench_out/.  The line
before it is an "info" object: versions, src/ size, sample counts and the
percentile behind each timing.

The timings of ops run inside a worker interpreter are reported at a
reference machine speed: the worker times a fixed pure-Python calibration
workload between its ops and scales each op's seconds by how fast the
calibrations around it ran (stats.speed_scale).  Start-up timings, set-up
and the cold-cli subprocesses, are reported as measured: that calibration
does not follow interpreter start-up.  The info line keeps the unscaled
values.

This process imports neither fqhent nor numpy, so it stays small; every op
runs in a child interpreter (see passes.py) whose own rusage gives the peak
resident memory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import check_cli, cli_key, load_reference
from inputs import WORKLOADS, cli_argv, make_inputs
from stats import Tracer, importtime_cumulative, op_scale, speed_scale, tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 5
IMPORTTIME_RUNS = 3

PASS_S = {"cold-cli": 5.0, "figure-session": 1.1, "heavy-point": 9.0, "mixed-states": 2.6}
"""Typical seconds of one pass, interpreter start-up included.

A run makes round(seconds / PASS_S) passes, at least one, and always whole
ones, so its op count, and with it its failure count, depends only on the
workload, the seed and --seconds, never on how fast the machine ran.
"""

TAIL_CAP = {"cold-cli": 75.0, "figure-session": 95.0, "heavy-point": 50.0, "mixed-states": 99.0}
"""Tail percentile per workload, set below what its op count always allows.

heavy-point runs about ten ops, too few for any tail: it reports its
slowest op instead, timed as that op's median over the passes and labelled
percentile 100.
"""

LAYER_SPANS = {
    "cli.main": "cli.main_s",
    "states.family_polynomial": "states.family_polynomial_self_s",
    "poly.vandermonde_power": "poly.vandermonde_power_s",
    "quasihole.condense": "quasihole.condense_s",
    "poly.slater_project": "poly.slater_project_s",
    "lll.to_fock": "lll.to_fock_s",
    "entangle.one_body_density": "entangle.one_body_density_s",
    "entangle.von_neumann": "entangle.von_neumann_s",
    "entangle.slater_pairing": "entangle.slater_pairing_s",
    "figures.render": "figures.render_s",
}
LAYER_COUNTS = (
    "poly.terms",
    "poly.dets",
    "poly.coeff_bits",
    "poly.vandermonde_calls",
    "poly.vandermonde_distinct",
    "quasihole.condense_calls",
    "quasihole.condense_distinct",
    "lll.configs",
    "lll.dim",
    "entangle.nondiagonal_states",
    "entangle.failed",
)
IMPORT_MODULES = {
    "fqhent.cli": "import.fqhent_cli_s",
    "fqhent.entangle": "import.entangle_s",
    "numpy": "import.numpy_s",
    "scipy": "import.scipy_s",
}


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""


def child_env() -> dict[str, str]:
    """The caller's environment with src/ importable.

    Children start as an installed package does, reading cached bytecode
    and buffering their output, whatever the caller's shell sets.
    """
    unset = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stdin: str = "") -> tuple[str, str]:
    proc = subprocess.run(
        argv, input=stdin, capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=170
    )
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout, proc.stderr


def run_worker(config: dict):
    """Run passes.py with this config; its last stdout line, parsed."""
    stdout, _ = run_child([sys.executable, str(BENCH / "passes.py")], json.dumps(config))
    return json.loads(stdout.splitlines()[-1]) if stdout else {}


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports and builds the inputs."""
    start = time.perf_counter()
    if workload == "cold-cli":
        run_child([sys.executable, "-c", "import fqhent.cli"])
    else:
        run_worker({"workload": workload, "seed": seed, "mode": "setup"})
    return time.perf_counter() - start


def import_times() -> dict[str, float]:
    """Median cumulative import seconds of the modules in IMPORT_MODULES."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORTTIME_RUNS):
        _, stderr = run_child([sys.executable, "-X", "importtime", "-c", "import fqhent.cli"])
        for module, seconds in importtime_cumulative(stderr, list(IMPORT_MODULES)).items():
            samples[module].append(seconds)
    return {IMPORT_MODULES[m]: statistics.median(v) for m, v in samples.items()}


# -- cold-cli: one subprocess per op -----------------------------------------

def cold_op(point, reference: dict) -> tuple[float, str, str | None, int]:
    """Run `python -m fqhent.cli compute ...`: (seconds, status, problem, maxrss_kb).

    os.wait4 returns this child's own rusage; RUSAGE_CHILDREN would be a
    running maximum over every child reaped so far.
    """
    argv = [sys.executable, "-m", "fqhent.cli", *cli_argv(point)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT, env=child_env(), text=True
    )
    with proc.stdout:
        stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problem = check_cli(reference, cli_key(*point), proc.returncode, stdout)
    return elapsed, "wrong" if problem else "ok", problem, usage.ru_maxrss


def cold_cli_pass(seed: int, traced: bool, reference: dict) -> dict:
    """The seeded points as cold subprocesses, one after another."""
    tracer = Tracer() if traced else None
    ops, errors, rss = [], [], []
    for pos, point in enumerate(make_inputs("cold-cli", seed)):
        if tracer is None:
            elapsed, status, problem, maxrss = cold_op(point, reference)
        else:
            tracer.op = pos
            with tracer.span("cli.cold_op"):
                elapsed, status, problem, maxrss = cold_op(point, reference)
        ops.append([pos, "op", elapsed, status])
        rss.append(maxrss)
        if problem:
            errors.append(problem)
    result = {"ops": ops, "errors": errors, "maxrss_kb": rss}
    if traced:
        # The layers under the cold runs, from cli.main in one fresh process.
        layers = run_worker({"workload": "cold-cli", "seed": seed, "mode": "pass", "trace": True})
        result.update(
            layer_ops=layers["ops"],
            counts=layers["counts"],
            layers=layers["layers"],
            calibrations=layers["calibrations"],
            spans={"cold_ops": tracer.spans, "cli_main": layers["spans"]},
        )
        result["errors"] += layers["errors"]
    return result


def worker_pass(workload: str, seed: int, traced: bool, extra: dict) -> dict:
    config = {"workload": workload, "seed": seed, "mode": "pass", "trace": traced}
    result = run_worker({**config, **extra})
    result["maxrss_kb"] = [result["maxrss_kb"]]
    return result


# -- aggregation -----------------------------------------------------------

def normalise(p: dict, ops_in_worker: bool) -> None:
    """Scale the times a worker measured to the reference speed.

    Layers always come from a worker.  The ops too, unless they are cold-cli
    subprocesses.  The unscaled op times stay in "raw_ops".
    """
    calibrations = p.get("calibrations", [])
    p["raw_ops"] = [list(op) for op in p["ops"]]
    p["scale"] = speed_scale([c for _, c in calibrations]) if ops_in_worker else 1.0
    if ops_in_worker:
        for op in p["ops"]:
            op[2] *= op_scale(calibrations, op[0])
    for pos, times in p.get("layers", {}).items():
        for span in times:
            times[span] *= op_scale(calibrations, int(pos))


def position_medians(passes: list[dict], field: str = "ops", kind: str | None = None) -> dict[int, float]:
    by_pos: dict[int, list[float]] = {}
    for p in passes:
        for pos, op_kind, seconds, _ in p[field]:
            if kind is None or op_kind == kind:
                by_pos.setdefault(pos, []).append(seconds)
    return {pos: statistics.median(v) for pos, v in by_pos.items()}


def wall(passes: list[dict], field: str = "ops") -> float:
    """One pass of the fixed work: the sum over its ops of each op's median.

    Summing per-op medians damps a single disturbed pass.
    """
    return sum(position_medians(passes, field).values())


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Per layer, the sum over op positions of the median traced self time."""
    per_pos: dict[int, list[dict[str, float]]] = {}
    for p in passes:
        for pos, times in p["layers"].items():
            per_pos.setdefault(int(pos), []).append(times)
    totals = {metric: 0.0 for metric in LAYER_SPANS.values()}
    for samples in per_pos.values():
        for span, metric in LAYER_SPANS.items():
            totals[metric] += statistics.median(s.get(span, 0.0) for s in samples)
    return totals


def end_to_end(workload: str, plain: list[dict], setup: list[float]) -> tuple[dict, dict]:
    latencies = [seconds for p in plain for _, kind, seconds, _ in p["ops"] if kind == "op"]
    statuses = [status for p in plain for _, kind, _, status in p["ops"] if kind == "op"]
    rss = [kb for p in plain for kb in p["maxrss_kb"]]
    level, tail_value = tail(latencies, TAIL_CAP[workload])
    if level == 100.0:
        # The slowest single sample would swing with one disturbed op.
        tail_value = max(position_medians(plain, kind="op").values())
    failed = sum(status != "ok" for status in statuses)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall(plain), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (statistics.median(rss) / 1024, "MB"),
        "ok_frac": (1 - failed / len(statuses), "ratio"),
    }
    info = {
        "setup_s": {"samples": len(setup), "statistic": "median"},
        "wall_s": {
            "passes": len(plain),
            "statistic": "sum over a pass's ops of each op's median",
            "unscaled_s": wall(plain, "raw_ops"),
            "speed_scales": [p["scale"] for p in plain],
        },
        "op_p50_s": {"samples": len(latencies), "percentile": 50},
        "op_tail_s": {"samples": len(latencies), "percentile": level},
        "peak_rss_mb": {"processes": len(rss), "statistic": "median of ru_maxrss"},
        "ok_frac": {"attempted": len(statuses), "failed": failed, "failed_frac": failed / len(statuses)},
    }
    return metrics, info


def per_layer(plain: list[dict], traced: list[dict], imports: dict[str, float]) -> tuple[dict, dict]:
    first = traced[0]
    metrics = {name: (seconds, "s") for name, seconds in imports.items()}
    metrics.update((name, (seconds, "s")) for name, seconds in layer_metrics(traced).items())
    metrics.update((name, (first["counts"].get(name, 0), "count")) for name in LAYER_COUNTS)
    traced_wall, plain_wall = wall(traced), wall(plain)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    info = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "unscaled": {"traced_wall_s": wall(traced, "raw_ops"), "untraced_wall_s": wall(plain, "raw_ops")},
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "import_runs": IMPORTTIME_RUNS,
        "statistic": "sum over a pass's ops of each op's median traced time",
    }
    return metrics, info


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))


def environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "python": sys.version.split()[0],
        **versions,
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = load_reference()
    extra: dict = {}
    run_child([sys.executable, "-c", "import fqhent.cli"])  # compile bytecode, untimed
    if workload == "mixed-states":
        extra["oracle"] = run_worker({"workload": workload, "seed": seed, "mode": "oracle"})
    setup = [] if trace else [time_setup(workload, seed) for _ in range(SETUP_RUNS)]
    imports = import_times() if trace else {}

    # Traced runs alternate untraced and traced passes in the same time.
    kinds = [False, True] if trace else [False]
    count = max(1, round(seconds / PASS_S[workload] / len(kinds)))
    passes: list[dict] = []
    for i in range(count * len(kinds)):
        traced = kinds[i % len(kinds)]
        if workload == "cold-cli":
            result = cold_cli_pass(seed, traced, reference)
        else:
            result = worker_pass(workload, seed, traced, dict(extra, deep=i < len(kinds)))
        result["traced"] = traced
        normalise(result, ops_in_worker=workload != "cold-cli")
        passes.append(result)

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    if trace:
        metrics, info = per_layer(plain, traced_passes, imports)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{workload}-seed{seed}.json"
        spans_file.write_text(json.dumps([p["spans"] for p in traced_passes]))
        info["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics, info = end_to_end(workload, plain, setup)

    all_ops = [op for p in passes for op in p["ops"] + p.get("layer_ops", [])]
    attempted = sum(kind == "op" for _, kind, _, _ in all_ops)
    failed = sum(kind == "op" and status != "ok" for _, kind, _, status in all_ops)
    errors = [e for p in passes for e in p["errors"]]
    info.update(environment(), workload=workload, seed=seed, seconds=seconds, errors=errors[:10])
    return {
        "info": info,
        "result": {
            "correct": not any(status == "wrong" for _, _, _, status in all_ops),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fqhent" / "__init__.py").is_file():
        print(f"no fqhent sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": outcome["info"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
