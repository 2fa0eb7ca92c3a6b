"""Output checks: the reference recorded in reference.json and a numeric oracle.

The reference holds what the program printed or built when the benchmark
was defined: the five figure CSVs, every benchmarked state's measure and
amplitude digest, and every `compute` point's printed value and exit code.
Hand-built mixed states are seeded and unbounded in number, so they are
checked against an independent first-quantised computation instead.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Iterable

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

ENTROPY_TOL = 1e-9
"""Agreement required between the program's and the oracle's entropy, nats."""


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def state_key(family: str, n: int, m: int) -> str:
    return f"{family}/{n}/{m}"


def cli_key(family: str, n: int, m: int, fmt: str) -> str:
    return f"{family}/{n}/{m}/{fmt}"


def amplitude_digest(amplitudes: Iterable[tuple[tuple[int, ...], int, Fraction]]) -> str:
    """sha256 of the sorted (config, sign, magnitude_sq) triples, exactly."""
    rows = sorted((tuple(c), s, Fraction(q)) for c, s, q in amplitudes)
    text = "\n".join(f"{c}|{s}|{q.numerator}/{q.denominator}" for c, s, q in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def state_digest(state) -> str:
    """Digest of a FockVector's exact amplitudes."""
    return amplitude_digest((c, a.sign, a.magnitude_sq) for c, a in state.terms.items())


def same_float(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_state(reference: dict, key: str, measure_bits: float | None, digest: str | None) -> str | None:
    """None when the state matches its reference, else what differs."""
    expected = reference["states"].get(key)
    if expected is None:
        return f"{key}: no reference"
    if not same_float(measure_bits, expected["measure_bits"]):
        return f"{key}: measure_bits {measure_bits!r} != {expected['measure_bits']!r}"
    if digest is not None and digest != expected["digest"]:
        return f"{key}: amplitude digest differs"
    return None


def cli_value(stdout: str, fmt: str) -> str | float | None:
    """The measure a `compute` run printed: the text token or the JSON S_f."""
    if fmt == "json":
        try:
            return json.loads(stdout)["S_f"]
        except (ValueError, KeyError, TypeError):
            return None
    match = re.match(r"S_f = (\S+) ", stdout)
    return match.group(1) if match else None


def check_cli(reference: dict, key: str, exit_code: int, stdout: str) -> str | None:
    expected = reference["cli"].get(key)
    if expected is None:
        return f"{key}: no reference"
    if exit_code != expected["exit"]:
        return f"{key}: exit {exit_code} != {expected['exit']}"
    if expected["exit"] != 0:
        return None
    fmt = key.rsplit("/", 1)[1]
    value = cli_value(stdout, fmt)
    ok = value == expected["value"] if fmt == "text" else same_float(value, expected["value"])
    return None if ok else f"{key}: printed {value!r} != {expected['value']!r}"


# -- oracle for hand-built states ------------------------------------------

def oracle_entropy(n: int, dim: int, amplitudes: dict[tuple[int, ...], float]) -> float:
    """Von Neumann entropy (nats) of the one-body density matrix, first-quantised.

    The state is written out as an antisymmetric tensor psi[i_1..i_N] with
    unit norm; the one-body density matrix with unit trace is then the
    partial trace psi_(mu, rest) psi_(nu, rest).  No second-quantised sign
    rule is shared with the program.
    """
    import numpy as np

    psi = np.zeros((dim,) * n)
    scale = 1 / math.sqrt(math.factorial(n))
    for config, amp in amplitudes.items():
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            psi[tuple(config[p] for p in perm)] += (-1) ** inversions * amp * scale
    flat = psi.reshape(dim, -1)
    eigenvalues = np.linalg.eigvalsh(flat @ flat.T)
    return -sum(lam * math.log(lam) for lam in eigenvalues if lam > 1e-15)
