"""One pass of an in-process workload, run in a fresh interpreter.

    python bench/passes.py < config.json

The config names the workload, seed and mode.  Mode "setup" imports fqhent,
builds the inputs and exits, so its wall time is the set-up cost.  Mode
"pass" then runs every op once, in order, and prints one JSON line: the
per-op timings and check verdicts, the calibration timings taken between
ops (see stats.speed_scale), this process's peak RSS and, when traced, its
spans and counters.  Mode "oracle" prints the reference entropies of
the mixed-states inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import sys
import time

from checks import (
    ENTROPY_TOL,
    check_cli,
    check_state,
    cli_key,
    load_reference,
    oracle_entropy,
    state_digest,
    state_key,
)
from inputs import cli_argv, make_inputs
from stats import Tracer, calibrate, layer_times

from fqhent import cli, entangle, figures, lll, poly, states
from fqhent.lll import FockVector

INCLUSIVE_SPANS = ("cli.main",)
"""Spans reported with their children; all others report self time."""

CALIBRATE_EVERY_S = 0.5
"""Seconds of ops between two calibrations; each costs about 15 ms."""


_UNTRACED = contextlib.nullcontext()


class Pass:
    """Runs ops, timing each, and collects what the parent aggregates."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.ops: list[list] = []
        self.errors: list[str] = []
        self.pos = -1
        self.calibrations = [(self.pos, calibrate())]
        self.calibrated_at = time.perf_counter()

    def record(self, kind: str, seconds: float, status: str, problem: str | None = None) -> None:
        """status: ok, failed (the program raised) or wrong (output mismatch)."""
        self.ops.append([self.pos, kind, seconds, status])
        if problem and len(self.errors) < 20:
            self.errors.append(problem)

    def call(self, family: str, n: int, m: int, untraced=None):
        """Time one point: (seconds, result), or None once a raise is recorded.

        Traced passes compose the pipeline stage by stage; untraced ones call
        `untraced` (default: the family constructor and modified_measure).
        """
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                result = traced_point(self, family, n, m)
            else:
                result = (untraced or untraced_point)(family, n, m)
        except Exception as exc:  # a failing op is counted, not fatal
            self.record("op", time.perf_counter() - start, "failed", f"{family}/{n}/{m}: {exc!r}")
            return None
        return time.perf_counter() - start, result

    def span(self, name: str):
        return _UNTRACED if self.tracer is None else self.tracer.span(name)

    def calibrate(self, force: bool = False) -> None:
        """Time the calibration workload if CALIBRATE_EVERY_S has passed.

        Each calibration is kept as (position of the last op before it, seconds).
        """
        if force or time.perf_counter() - self.calibrated_at >= CALIBRATE_EVERY_S:
            self.calibrations.append((self.pos, calibrate()))
            self.calibrated_at = time.perf_counter()

    def begin_op(self) -> None:
        """Advance to the next planned op; positions match from pass to pass."""
        self.calibrate()
        self.pos += 1
        if self.tracer is not None:
            self.tracer.op = self.pos


def install_wrappers(tracer: Tracer) -> None:
    """Wrap the condense and vandermonde_power names fqhent.states looks up."""
    condense, vandermonde_power = states.condense, states.vandermonde_power
    kernels: set = set()
    powers: set = set()

    def traced_condense(kernel):
        tracer.count("quasihole.condense_calls")
        if kernel not in kernels:
            kernels.add(kernel)
            tracer.count("quasihole.condense_distinct")
        with tracer.span("quasihole.condense"):
            return condense(kernel)

    def traced_vandermonde_power(nvars, power):
        tracer.count("poly.vandermonde_calls")
        if (nvars, power) not in powers:
            powers.add((nvars, power))
            tracer.count("poly.vandermonde_distinct")
        with tracer.span("poly.vandermonde_power"):
            return vandermonde_power(nvars, power)

    states.condense = traced_condense
    states.vandermonde_power = traced_vandermonde_power


def traced_point(run: Pass, family: str, n: int, m: int):
    """The family pipeline composed stage by stage: (measure_bits, state).

    Mirrors states.<family> followed by entangle.modified_measure; returns
    (None, None) for a zero wavefunction.
    """
    tracer = run.tracer
    try:
        with tracer.span("states.family_polynomial"):
            polynomial = states.family_polynomial(family, n, m)
    except states.ZeroWavefunctionError:
        return None, None
    with tracer.span("poly.slater_project"):
        expansion = poly.slater_project(polynomial)
    with tracer.span("lll.to_fock"):
        state = lll.to_fock(expansion)
    with tracer.span("entangle.one_body_density"):
        rho = entangle.one_body_density(state)
    with tracer.span("entangle.von_neumann"):
        entropy = entangle.von_neumann(rho)
    tracer.count("poly.terms", len(polynomial))
    tracer.count("poly.dets", len(expansion))
    tracer.peak("poly.coeff_bits", max(abs(c).bit_length() for c in polynomial.terms.values()))
    tracer.count("lll.configs", len(state))
    tracer.peak("lll.dim", state.dim)
    measure = entropy - math.log(n)
    if -1e-12 <= measure < 0:
        measure = 0.0
    return measure / math.log(2), state


def untraced_point(family: str, n: int, m: int):
    """(measure_bits, state) through the public family constructors."""
    try:
        state = states.FAMILIES[family](n, m)
    except states.ZeroWavefunctionError:
        return None, None
    return entangle.modified_measure(state, family=family, m=m).measure_bits, state


# -- workloads -------------------------------------------------------------

def run_heavy_point(run: Pass, points, reference: dict) -> None:
    for family, n, m in points:
        run.begin_op()
        outcome = run.call(family, n, m)
        if outcome is None:
            continue
        elapsed, (bits, state) = outcome
        digest = None if state is None else state_digest(state)
        problem = check_state(reference, state_key(family, n, m), bits, digest)
        run.record("op", elapsed, "wrong" if problem else "ok", problem)


def run_figure_session(run: Pass, plan, reference: dict, deep: bool) -> None:
    """Each preset's points one op at a time, then its CSV and SVG as one op."""
    for fig_id, order_seed in plan:
        spec = figures.figure_spec(fig_id)
        requests = [(family, n, 2 * t + 1) for family, n in spec.series for t in spec.t_values]
        random.Random(order_seed).shuffle(requests)
        points, bad = [], False
        for family, n, m in requests:
            run.begin_op()
            outcome = run.call(family, n, m, untraced=figures.evaluate_point)
            if outcome is None:
                bad = True
                continue
            elapsed, result = outcome
            if run.tracer is None:
                point, state = result, None
                if deep and point.measure_bits is not None:
                    _, state = untraced_point(family, n, m)
            else:
                point, state = figures.SweepPoint(family, n, m, result[0]), result[1]
            digest = None if state is None else state_digest(state)
            problem = check_state(reference, state_key(family, n, m), point.measure_bits, digest)
            run.record("op", elapsed, "wrong" if problem else "ok", problem)
            points.append(point)
        run.begin_op()
        if bad:
            continue
        start = time.perf_counter()
        with run.span("figures.render"):
            csv = figures.rows_to_csv(points)
            figures.render_svg(points, figures.figure_title(fig_id))
        elapsed = time.perf_counter() - start
        if csv == reference["figure_csv"][str(fig_id)]:
            run.record("render", elapsed, "ok")
        else:
            run.record("render", elapsed, "wrong", f"figure {fig_id}: CSV differs")


def run_mixed_states(run: Pass, vectors, oracle) -> None:
    """one_body_density -> von_neumann per state; slater_pairing too at N = 2."""
    tracer = run.tracer
    for state, expected in zip(vectors, oracle):
        run.begin_op()
        results, failures = {}, []
        start = time.perf_counter()
        try:
            with run.span("entangle.one_body_density"):
                rho = entangle.one_body_density(state)
            with run.span("entangle.von_neumann"):
                results["von_neumann"] = entangle.von_neumann(rho)
        except Exception as exc:  # a failing op is counted, not fatal
            failures.append(repr(exc))
            rho = None
        if state.n_particles == 2:
            try:
                with run.span("entangle.slater_pairing"):
                    results["slater_pairing"] = entangle.slater_pairing(state).entropy_nats()
            except Exception as exc:  # a failing op is counted, not fatal
                failures.append(repr(exc))
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.count("entangle.failed", 1 if failures else 0)
            tracer.count("entangle.nondiagonal_states", 0 if rho is None or rho.is_diagonal() else 1)
        wrong = [
            f"{name}: {value!r} != oracle {expected!r}"
            for name, value in results.items()
            if abs(value - expected) > ENTROPY_TOL
        ]
        if wrong:
            run.record("op", elapsed, "wrong", "; ".join(wrong))
        else:
            run.record("op", elapsed, "failed" if failures else "ok", "; ".join(failures) or None)


def run_cli_in_process(run: Pass, points, reference: dict) -> None:
    """cli.main(argv) in this process, for the layers under the cold runs."""
    for point in points:
        run.begin_op()
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            with run.span("cli.main"):
                code = cli.main(cli_argv(point))
        elapsed = time.perf_counter() - start
        problem = check_cli(reference, cli_key(*point), code, out.getvalue())
        run.record("op", elapsed, "wrong" if problem else "ok", problem)


# -- entry -----------------------------------------------------------------

def mixed_fock_vectors(inputs):
    return [FockVector.from_unnormalized(n, dim, terms) for n, dim, terms in inputs]


def main() -> int:
    config = json.loads(sys.stdin.read())
    workload, seed, mode = config["workload"], config["seed"], config["mode"]

    inputs = make_inputs(workload, seed)
    if workload == "mixed-states":
        inputs = mixed_fock_vectors(inputs)
    if mode == "setup":
        return 0
    if mode == "oracle":
        entropies = [
            oracle_entropy(v.n_particles, v.dim, {c: a.as_float for c, a in v.terms.items()})
            for v in inputs
        ]
        print(json.dumps(entropies))
        return 0

    reference = load_reference()
    tracer = Tracer() if config["trace"] else None
    if tracer is not None:
        install_wrappers(tracer)
    run = Pass(tracer)
    if workload == "heavy-point":
        run_heavy_point(run, inputs, reference)
    elif workload == "figure-session":
        run_figure_session(run, inputs, reference, config.get("deep", False))
    elif workload == "mixed-states":
        run_mixed_states(run, inputs, config["oracle"])
    elif workload == "cold-cli":
        run_cli_in_process(run, inputs, reference)
    run.calibrate(force=True)
    result = {
        "ops": run.ops,
        "errors": run.errors,
        "calibrations": run.calibrations,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["counts"] = tracer.counts
        result["layers"] = layer_times(tracer.spans, INCLUSIVE_SPANS)
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
