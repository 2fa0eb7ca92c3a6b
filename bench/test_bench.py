"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest bench
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from checks import (
    amplitude_digest,
    check_state,
    cli_value,
    load_reference,
    oracle_entropy,
    state_digest,
    state_key,
)
from inputs import WORKLOADS, cold_cli_points, make_inputs, mixed_states
from stats import (
    CALIBRATION_REF_S,
    Tracer,
    calibrate,
    op_scale,
    importtime_cumulative,
    layer_times,
    percentile,
    self_times,
    speed_scale,
    tail,
    tail_level,
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert make_inputs(workload, 7) == make_inputs(workload, 7)
    assert make_inputs(workload, 7) != make_inputs(workload, 8)


def test_cold_cli_points_cover_families_sizes_formats_and_a_zero_state():
    points = cold_cli_points(3)
    assert {(f, n) for f, n, _, _ in points} == {
        (f, n) for f in ("laughlin", "hierarchical_phi", "chi") for n in (2, 3)
    }
    assert {fmt for *_, fmt in points} == {"text", "json"}
    assert any(f == "chi" and m > 2 * n + 1 for f, n, m, _ in points)


def test_mixed_states_are_not_homogeneous():
    for _, _, terms in mixed_states(5, count=50):
        assert len({sum(config) for config in terms}) > 1


def test_mixed_states_seeds_reorder_one_fixed_pool():
    first, second = mixed_states(5, count=50), mixed_states(6, count=50)
    assert first != second
    assert sorted(map(repr, first)) == sorted(map(repr, second))


def test_speed_scale_maps_the_median_calibration_to_the_reference():
    slow = [2 * CALIBRATION_REF_S, 2 * CALIBRATION_REF_S, 9.0]
    assert speed_scale(slow) == pytest.approx(0.5)
    assert speed_scale([CALIBRATION_REF_S / 4]) == pytest.approx(4.0)
    assert 0 < calibrate(reps=1) < 1


def test_op_scale_uses_the_calibrations_just_before_and_after_the_op():
    ref = CALIBRATION_REF_S
    calibrations = [(-1, ref), (3, 2 * ref), (7, 4 * ref)]
    assert op_scale(calibrations, 0) == pytest.approx(2 / 3)  # between -1 and 3
    assert op_scale(calibrations, 3) == pytest.approx(2 / 3)
    assert op_scale(calibrations, 4) == pytest.approx(1 / 3)  # between 3 and 7
    assert op_scale(calibrations, 9) == pytest.approx(1 / 4)  # after the last
    assert op_scale(calibrations, -1) == pytest.approx(1.0)  # spans outside any op


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_level_keeps_ten_samples_beyond_it(n, expected):
    assert tail_level(n) == expected


def test_tail_level_respects_the_cap_and_falls_back_to_the_maximum():
    assert tail_level(10000, cap=95.0) == 95.0
    assert tail_level(30, cap=95.0) == 50.0
    assert tail(list(range(12)), cap=99.0) == (100.0, 11)
    values = list(range(1, 41))
    assert tail(values, cap=99.0) == (75.0, percentile(values, 75.0)) == (75.0, 30)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, "root", 0.0, 10.0, None, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (2, "b", 3.0, 6.0, 0, 0),  # overlaps a: union of children is 1..6
        (3, "c", 1.5, 2.0, 1, 0),
        (4, "d", 9.0, 12.0, 0, 0),  # runs past its parent: clipped at 10
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 5 - 1)
    assert own[1] == pytest.approx(3 - 0.5)
    assert own[2] == pytest.approx(3)
    assert own[3] == pytest.approx(0.5)


def test_layer_times_sum_per_op_and_keep_inclusive_spans_whole():
    spans = [
        (0, "cli.main", 0.0, 5.0, None, 0),
        (1, "poly.vandermonde_power", 1.0, 3.0, 0, 0),
        (2, "poly.vandermonde_power", 0.0, 1.0, None, 1),
        (3, "poly.vandermonde_power", 2.0, 2.5, None, 1),
    ]
    layers = layer_times(spans, inclusive=("cli.main",))
    assert layers[0] == {"cli.main": 5.0, "poly.vandermonde_power": 2.0}
    assert layers[1] == {"poly.vandermonde_power": 1.5}


def test_tracer_records_parent_and_op():
    tracer = Tracer()
    tracer.op = 4
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer_id, _, o_start, o_end, o_parent, o_op), (_, _, i_start, i_end, i_parent, i_op) = tracer.spans
    assert (o_parent, i_parent, o_op, i_op) == (None, outer_id, 4, 4)
    assert o_start <= i_start <= i_end <= o_end


def test_importtime_counts_only_the_outermost_matching_line():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       1000 |       numpy.core",
        "import time:       500 |       2000 |     numpy",
        "import time:       100 |        100 |         scipy",
        "import time:       300 |       4000 |       scipy.linalg",
        "import time:       200 |       7000 |   fqhent.entangle",
        "import time:        50 |       8000 | fqhent.cli",
    ])
    totals = importtime_cumulative(stderr, ["numpy", "scipy", "fqhent.entangle", "fqhent.cli"])
    assert totals == pytest.approx(
        {"numpy": 0.002, "scipy": 0.004, "fqhent.entangle": 0.007, "fqhent.cli": 0.008}
    )


def test_reference_checker_flags_a_single_mutated_amplitude():
    from fqhent import laughlin

    reference = load_reference()
    key = state_key("laughlin", 3, 5)
    state = laughlin(3, 5)
    bits = reference["states"][key]["measure_bits"]
    assert check_state(reference, key, bits, state_digest(state)) is None

    rows = [(c, a.sign, a.magnitude_sq) for c, a in state.terms.items()]
    config, sign, mag = rows[len(rows) // 2]
    for mutated in ((config, -sign, mag), (config, sign, mag + Fraction(1, 10**30))):
        rows_mutated = list(rows)
        rows_mutated[len(rows) // 2] = mutated
        problem = check_state(reference, key, bits, amplitude_digest(rows_mutated))
        assert problem is not None and "digest" in problem


def test_cli_values_parse_text_and_json():
    assert cli_value("S_f = 0.811278124459 bits (laughlin, N=2, m=3, t=1)\n", "text") == "0.811278124459"
    assert cli_value(json.dumps({"S_f": 0.5}), "json") == 0.5
    assert cli_value("", "json") is None


def test_oracle_matches_the_two_qubit_schmidt_entropy():
    # a0+a1+ with weight 1/3 and a2+a3+ with weight 2/3: the one-body
    # spectrum is (1/6, 1/6, 1/3, 1/3), entropy ln 2 + H(1/3, 2/3).
    import math

    amplitudes = {(0, 1): math.sqrt(1 / 3), (2, 3): -math.sqrt(2 / 3)}
    expected = math.log(2) - (1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
    assert oracle_entropy(2, 4, amplitudes) == pytest.approx(expected, abs=1e-12)
