"""CLI subcommands, exit codes, formats, and config handling."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqhent
from fqhent import figures
from fqhent.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    EXIT_ZERO_WAVEFUNCTION,
    load_config,
    main,
)
from fqhent.states import FAMILIES
from fqhent.verify import format_report, run_verification


PACKAGE_ROOT = Path(fqhent.__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_bits_value(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "laughlin", "--n", "2", "--m", "3",
            "--units", "bits",
        )
        assert code == EXIT_OK
        assert out.startswith("S_f = 0.811278124459 bits")
        assert "(laughlin, N=2, m=3, t=1)" in out

    def test_nats_value(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "laughlin", "--n", "2", "--m", "3",
            "--units", "nats",
        )
        assert code == EXIT_OK
        assert out.startswith("S_f = 0.562335144619 nats")

    def test_separable_zero(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "laughlin", "--m", "1")
        assert code == EXIT_OK
        assert out.startswith("S_f = 0 bits")

    def test_zero_wavefunction_exit_2(self, capsys):
        code, out, err = run(
            capsys, "compute", "--family", "chi", "--n", "2", "--m", "7"
        )
        assert code == EXIT_ZERO_WAVEFUNCTION
        assert "zero wavefunction: m > 2N+1" in err
        assert out == ""

    def test_even_m_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "laughlin", "--m", "4")
        assert code == EXIT_USAGE
        assert "odd" in err

    def test_unknown_flag_exit_64(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--badflag"])
        assert excinfo.value.code == EXIT_USAGE

    def test_unknown_family_exit_64(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--family", "bogus"])
        assert excinfo.value.code == EXIT_USAGE

    def test_over_determinant_budget_exit_64(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", "--n", "4", "--m", "41")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert "MAX_DETERMINANTS" in err
        assert out == ""

    def test_table_over_determinant_budget_exit_64_before_computing(self, capsys):
        # laughlin N=4 is refused from m = 39; m = 1..23 took about 37 s
        # when the sweep met the budget only at the first refused point
        start = time.perf_counter()
        code, out, err = run(
            capsys, "table", "--family", "laughlin", "--n", "4", "--m-max", "41"
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert "MAX_DETERMINANTS" in err
        assert out == ""

    def test_chi_table_over_subset_budget_exit_64_before_computing(self, capsys, monkeypatch):
        # chi(18, 37) is allowed, but chi(18, 17) tries C(18, 8) = 43,758
        # condensate subsets per determinant: the sweep's check refuses it
        def refuse(*args):
            raise AssertionError("a point was computed")

        monkeypatch.setattr(figures, "evaluate_point", refuse)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "table", "--family", "chi", "--n", "18", "--m-max", "37"
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_USAGE
        assert "43,758 condensate subsets" in err
        assert out == ""

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_table_refused_before_its_requests_exist(self):
        # nothing grows with --m-max alone: m = 513 is over the orbital budget,
        # so a laughlin table or figure 1 is refused at its top m, and a chi
        # series measures only its points up to m = 2N + 1, so its CSV costs
        # what --m-max 13 costs; each run is held to a 1 GiB address space
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        def exit_code_stdout_and_peak_kib(command, m_max):
            argv = [*command, "--m-max", str(m_max)]
            with subprocess.Popen(
                [sys.executable, "-m", "fqhent.cli", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
                preexec_fn=limit_address_space,
            ) as proc:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, out, usage.ru_maxrss

        for command in (["table", "--family", "laughlin", "--n", "2"], ["figure", "1"]):
            small_code, _, small_kib = exit_code_stdout_and_peak_kib(command, 13)
            large_code, _, large_kib = exit_code_stdout_and_peak_kib(command, 2_000_001)
            assert (small_code, large_code) == (EXIT_OK, EXIT_USAGE), command
            assert large_kib - small_kib < 15 * 1024, command
        for command in (["table", "--family", "chi", "--n", "2"], ["figure", "5"]):
            command = [*command, "--format", "csv"]
            small_code, small_out, small_kib = exit_code_stdout_and_peak_kib(command, 13)
            code, out, kib = exit_code_stdout_and_peak_kib(command, 100_000_001)
            assert (small_code, code) == (EXIT_OK, EXIT_OK), command
            assert out == small_out, command
            assert kib - small_kib < 5 * 1024, command

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_output_that_does_not_fit_exits_64(self, tmp_path):
        # JSON and SVG list every zero point up to --m-max, so at m = 10^8 they
        # cannot be built in a 128 MiB address space, which the CSV of the same
        # request fits in; each refused run takes about 2 s, and a refused
        # figure --out writes neither its CSV nor its SVG
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

        def run_limited(*argv):
            return subprocess.run(
                [sys.executable, "-m", "fqhent.cli", *argv, "--m-max", "100000001"],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
                preexec_fn=limit_address_space,
            )

        for command in (
            ["table", "--family", "chi", "--n", "2", "--format", "json"],
            ["figure", "5", "--format", "svg"],
        ):
            proc = run_limited(*command)
            request = " ".join([*command[:-2], "--m-max", "100000001", *command[-2:]])
            assert proc.returncode == EXIT_USAGE, proc.stderr
            assert proc.stdout == ""
            assert proc.stderr == f"error: {request}: the output does not fit in memory\n"
        proc = run_limited("figure", "5", "--out", str(tmp_path / "fig5"))
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert (proc.stdout, list(tmp_path.iterdir())) == ("", [])
        fits = run_limited("figure", "5", "--format", "csv")
        assert fits.returncode == EXIT_OK, fits.stderr
        assert fits.stdout.startswith("t,m,family,N,S_f_bits\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_state_that_does_not_fit_exits_64(self):
        # laughlin(9, 3), the largest state the budget allows at N = 9,
        # computes in a 47,600 KiB address space (Python 3.11, Linux); in
        # 32 MiB its squeeze runs out of memory after the imports, which fit
        # from 19,000 KiB, and compute and table refuse it with one line
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (32 << 20, 32 << 20))

        for command in (
            ["compute", "--family", "laughlin", "--n", "9", "--m", "3"],
            ["table", "--family", "laughlin", "--n", "9", "--m-max", "3"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "fqhent.cli", *command],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
                preexec_fn=limit_address_space,
            )
            assert proc.returncode == EXIT_USAGE, proc.stderr
            assert proc.stdout == ""
            request = " ".join(command)
            assert proc.stderr == f"error: {request}: the state does not fit in memory\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_size_refusals_fit_in_64000_kib(self):
        # a state over the size budget is refused by counting its determinants
        # before any is built, so the refusal fits in the address space that
        # every allowed state computes in: exit 64 with one line, in about
        # 0.2 s each on a 2-core VM; the limit is set in the child only
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (64_000 << 10, 64_000 << 10))

        for command in (
            ["compute", "--family", "laughlin", "--n", "170", "--m", "3"],
            ["compute", "--family", "laughlin", "--n", "4", "--m", "41"],
            ["table", "--family", "laughlin", "--n", "4", "--m-max", "41"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "fqhent.cli", *command],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
                preexec_fn=limit_address_space,
                timeout=5,
            )
            assert proc.returncode == EXIT_USAGE, proc.stderr
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
            assert "MAX_DETERMINANTS" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_states_at_the_orbital_limit_fit_in_32_mib(self):
        # one or a few determinants over 510-512 orbitals: ratio tables that
        # ran every position up to the last orbital took about 48,000 KiB
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (32 << 20, 32 << 20))

        for (family, n, m), printed in (
            (("laughlin", 512, 1), "0"),
            (("chi", 510, 3), "0.00318148284098"),
            (("hierarchical_phi", 510, 1), "0.00318148284098"),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "fqhent.cli", "compute", "--family", family,
                 "--n", str(n), "--m", str(m)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
                preexec_fn=limit_address_space,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            t = (m - 1) // 2
            assert proc.stdout == f"S_f = {printed} bits ({family}, N={n}, m={m}, t={t})\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 runs serially on one CPU")
    def test_parallel_sweep_that_cannot_start_its_threads_exits_64(self, tmp_path):
        # with 8 MiB thread stacks, a 32 MiB address space holds the imports
        # and one thread but not a process pool's two; the sweep once forked
        # its workers, then hung, and they outlived the killed parent
        import resource
        import signal

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (32 << 20, 32 << 20))
            _, hard = resource.getrlimit(resource.RLIMIT_STACK)
            resource.setrlimit(resource.RLIMIT_STACK, (8 << 20, hard))

        table = ["table", "--family", "laughlin", "--n", "2", "--m-max", "5", "--jobs", "2"]
        for command, request in (
            (table, " ".join(table)),
            (["figure", "1", "--jobs", "2"], "figure 1 --m-max 13 --jobs 2"),
        ):
            out, err = tmp_path / "out", tmp_path / "err"
            with open(out, "w") as stdout, open(err, "w") as stderr:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "fqhent.cli", *command],
                    stdout=stdout,
                    stderr=stderr,
                    env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
                    preexec_fn=limit_address_space,
                    start_new_session=True,
                )
            try:
                assert proc.wait(timeout=30) == EXIT_USAGE, err.read_text()
                assert out.read_text() == ""
                assert err.read_text() == (
                    f"error: {request}: cannot start a process pool's two threads; use --jobs 1\n"
                )
                with pytest.raises(ProcessLookupError):  # no process left in the session
                    os.killpg(proc.pid, 0)
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()

    @pytest.mark.parametrize("command", [["table"], ["figure", "1"]])
    @pytest.mark.parametrize("m_max", ["0", "-4"])
    def test_no_odd_m_exit_64(self, capsys, command, m_max):
        code, out, err = run(capsys, *command, "--m-max", m_max)
        assert code == EXIT_USAGE
        assert f"no odd m in 1..{m_max}" in err
        assert out == ""

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--family", "hierarchical_phi", "--n", "2",
            "--m", "1", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["family"] == "hierarchical_phi"
        assert payload["N"] == 2
        assert payload["m"] == 1
        assert payload["t"] == 0
        assert payload["S_f"] == pytest.approx(
            (2 * math.log(2) - 0.75 * math.log(3)) / math.log(2)
        )
        assert payload["units"] == "bits"


class TestTable:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "laughlin", "--n", "2", "--m-max", "5"
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "t,m,family,N,S_f_bits"
        assert len(lines) == 4  # m = 1, 3, 5
        assert lines[1].startswith("0,1,laughlin,2,")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "table", "--family", "laughlin", "--n", "2", "--m-max", "3",
            "--out", str(target),
        )
        assert code == EXIT_OK
        assert f"wrote {target}" in out
        text = target.read_bytes().decode()
        assert "\r" not in text
        assert text.startswith("t,m,family,N,S_f_bits\n")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "chi", "--n", "2", "--m-max", "7",
            "--format", "json",
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert [r["m"] for r in rows] == [1, 3, 5, 7]
        assert rows[-1]["S_f_bits"] is None  # zero wavefunction kept as null

    def test_json_equals_a_sweep_of_every_odd_m(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "chi", "--n", "4", "--m-max", "2001",
            "--format", "json",
        )
        assert code == EXIT_OK
        requests = [("chi", 4, m) for m in range(1, 2002, 2)]
        assert out == figures.rows_to_json(figures.sweep(requests)) + "\n"

    def test_parallel_matches_serial(self, capsys, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        # parallel first, so the workers fork from an empty point memo
        run(
            capsys, "table", "--family", "hierarchical_phi", "--n", "2",
            "--m-max", "9", "--jobs", "2", "--out", str(parallel),
        )
        assert figures._measured_point.cache_info().currsize == 0
        run(
            capsys, "table", "--family", "hierarchical_phi", "--n", "2",
            "--m-max", "9", "--out", str(serial),
        )
        assert serial.read_bytes() == parallel.read_bytes()

    def test_unwritable_out_exit_64(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(
            capsys, "table", "--family", "laughlin", "--n", "2", "--m-max", "3",
            "--out", str(target),
        )
        assert code == EXIT_USAGE
        assert err.startswith(f"error: cannot write {target}")
        assert "Traceback" not in err
        assert out == ""


class TestFigure:
    def test_writes_csv_and_svg(self, capsys, tmp_path):
        base = tmp_path / "fig1"
        code, out, _ = run(
            capsys, "figure", "1", "--m-max", "5", "--out", str(base)
        )
        assert code == EXIT_OK
        csv_text = (tmp_path / "fig1.csv").read_text()
        svg_text = (tmp_path / "fig1.svg").read_text()
        assert csv_text.startswith("t,m,family,N,S_f_bits\n")
        assert csv_text.count("\n") == 7  # header + 2 series x 3 points
        assert svg_text.startswith("<svg ")

    def test_csv_to_stdout_default(self, capsys):
        code, out, _ = run(capsys, "figure", "3", "--m-max", "3")
        assert code == EXIT_OK
        assert out.startswith("t,m,family,N,S_f_bits\n")

    def test_svg_to_stdout(self, capsys):
        code, out, _ = run(capsys, "figure", "5", "--m-max", "13", "--format", "svg")
        assert code == EXIT_OK
        assert out.startswith("<svg ")
        assert "zero (m=11)" in out

    def test_svg_equals_the_figure_spec_route(self, capsys):
        code, out, _ = run(capsys, "figure", "5", "--m-max", "2001", "--format", "svg")
        assert code == EXIT_OK
        points = figures.figure_points(figures.figure_spec(5, t_max=1000))
        assert out == figures.render_svg(points, figures.figure_title(5))

    def test_single_format_out(self, capsys, tmp_path):
        base = tmp_path / "fig2"
        code, _, _ = run(
            capsys, "figure", "2", "--m-max", "3", "--format", "csv",
            "--out", str(base),
        )
        assert code == EXIT_OK
        assert (tmp_path / "fig2.csv").exists()
        assert not (tmp_path / "fig2.svg").exists()

    def test_unwritable_out_exit_64(self, capsys, tmp_path):
        base = tmp_path / "missing" / "f"
        code, out, err = run(capsys, "figure", "1", "--m-max", "3", "--out", str(base))
        assert code == EXIT_USAGE
        assert err.startswith(f"error: cannot write {base}.csv")
        assert "Traceback" not in err
        assert out == ""

    def test_invalid_id(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "9"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize("out", ["outdir/", ".csv", "outdir/.svg", ".", ""])
    def test_out_with_no_file_name_exit_64(self, capsys, tmp_path, monkeypatch, out):
        # these once wrote the hidden files outdir/.csv and outdir/.svg, or
        # ..csv and ..svg, and exited 0
        (tmp_path / "outdir").mkdir()
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, "figure", "1", "--m-max", "3", "--out", out)
        assert code == EXIT_USAGE
        assert (stdout, err) == ("", f"error: --out {out} names no file\n")
        assert [p.name for p in tmp_path.rglob("*")] == ["outdir"]


class TestVerify:
    def test_fast_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "fast")
        assert code == EXIT_OK
        assert "[PASS] condensate-n2" in out
        assert "[PASS] basis-route-equivalence" in out
        assert "[PASS] laughlin-root-dominance" in out
        assert "[PASS] laughlin-translation-highest-weight" in out
        assert "[FAIL]" not in out
        assert "-162*pi^2" in out
        assert "0 failed" in out

    def test_ladder_check_catches_a_perturbed_laughlin_state(self, monkeypatch):
        from fqhent import verify

        real = verify.family_expansion

        def perturbed(family, n, m):
            terms = dict(real(family, n, m).terms)
            terms[min(terms)] += 1
            return fqhent.SlaterExpansion(n, terms)

        assert verify.check_laughlin_translation_highest_weight([(5, 5)])[0] is True
        monkeypatch.setattr(verify, "family_expansion", perturbed)
        verdict, detail = verify.check_laughlin_translation_highest_weight([(3, 3), (5, 5)])
        assert verdict is False
        assert "N=3, m=3" in detail

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        from fqhent import verify

        monkeypatch.setattr(verify, "vanishes", lambda n, p: False)
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_VERIFY_FAIL == 1
        assert "[FAIL] condensate-vanishing: mismatch at N=1, p=1\n" in out
        assert out.endswith("14 passed, 1 failed, 3 informational\n")

    def test_every_check_runs_once_under_its_name(self):
        from fqhent import verify

        # check_a_b runs as a-b and asserts; info_a_b runs as a-b and reports
        expected = {
            name.partition("_")[2].replace("_", "-"): "info" if name.startswith("info_") else "pass"
            for name in vars(verify)
            if name.startswith(("check_", "info_"))
        }
        results = run_verification("full")
        assert len(results) == len(expected)
        assert {r.name: r.status for r in results} == expected

    def test_default_level_is_fast(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK

    def test_reports_info_items(self, capsys):
        _, out, _ = run(capsys, "verify", "fast")
        assert "[INFO] filling-fractions" in out
        assert "not asserted" in out

    def test_fresh_process_exit_0(self):
        # cli imports verify only inside cmd_verify
        result = subprocess.run(
            [sys.executable, "-m", "fqhent.cli", "verify", "fast"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert "0 failed" in result.stdout


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = hierarchical_phi\nn = 2\nm = 1\nunits = nats\n")
        code, out, _ = run(capsys, "compute", "--config", str(cfg))
        assert code == EXIT_OK
        assert "hierarchical_phi" in out
        assert "nats" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 1  # overridden below\n")
        code, out, _ = run(
            capsys, "compute", "--family", "laughlin", "--m", "3", "--config", str(cfg)
        )
        assert code == EXIT_OK
        assert "m=3" in out

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nm-max = 5\n")
        assert load_config(str(cfg)) == {"m_max": "5"}

    def test_byte_order_mark_is_not_part_of_a_key(self, capsys, tmp_path):
        # some editors save UTF-8 with a leading byte-order mark
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfm-max = 3\n")
        assert load_config(str(cfg)) == {"m_max": "3"}
        code, out, _ = run(capsys, "figure", "1", "--config", str(cfg))
        assert code == EXIT_OK
        assert out.count("\n") == 5  # header + 2 series x 2 points

    def test_missing_file_exit_64(self, capsys):
        code, _, err = run(capsys, "compute", "--config", "/nonexistent.cfg")
        assert code == EXIT_USAGE
        assert "config" in err

    def test_undecodable_file_exit_64_without_traceback(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_bytes(b"n = 2\n\xff = 3\n")
        result = subprocess.run(
            [sys.executable, "-m", "fqhent.cli", "compute", "--config", str(cfg)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
        )
        assert result.returncode == EXIT_USAGE
        assert "cannot read config file" in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""

    def test_bad_value_exit_64(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = two\n")
        code, _, err = run(capsys, "compute", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "integer" in err

    def test_bad_choice_exit_64(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = bogus\n")
        code, _, err = run(capsys, "compute", "--config", str(cfg))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv,value",
        [(["table"], "xml"), (["compute"], "svg"), (["figure", "1"], "text")],
    )
    def test_format_checked_against_subcommand(self, capsys, tmp_path, argv, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"format = {value}\nm-max = 3\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "format" in err and out == ""

    def test_malformed_line_exit_64(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run(capsys, "compute", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "key = value" in err

    def test_unknown_key_exit_64(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("familly = chi\n")
        code, _, err = run(capsys, "compute", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "config" in err and "familly" in err

    def test_keys_of_other_subcommands_are_ignored(self, capsys, tmp_path):
        # the README's sweep.conf: figure takes m-max and ignores family, n
        cfg = tmp_path / "sweep.conf"
        cfg.write_text("family = hierarchical_phi\nn = 2\nm-max = 3\n")
        code, out, _ = run(capsys, "figure", "1", "--config", str(cfg))
        assert code == EXIT_OK
        assert out.count("\n") == 5  # header + 2 series x 2 points
        cfg.write_text("family = hierarchical_phi\nn = 2\nm-max = 3\nfamilly = chi\n")
        code, _, _ = run(capsys, "figure", "1", "--config", str(cfg))
        assert code == EXIT_USAGE


class TestIntegers:
    @pytest.mark.parametrize("value", ["3_1", "\u0663", "\uff13", "", " 3", "0x3", "3.0"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--m"],
            ["compute", "--n"],
            ["table", "--m-max"],
            ["figure", "1", "--jobs"],
            ["figure"],
        ],
    )
    def test_flag_that_is_not_ascii_decimal_exit_64(self, capsys, argv, value):
        # int() reads 3_1 as 31 and the Arabic-Indic or fullwidth 3 as 3
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, value])
        assert excinfo.value.code == EXIT_USAGE
        _, err = capsys.readouterr()
        assert f"invalid integer value: {value!r}" in err

    @pytest.mark.parametrize("value", ["3_1", "\u0663", "\uff13", "", "0x3"])
    def test_config_value_that_is_not_ascii_decimal_exit_64(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"m = {value}\n", encoding="utf-8")
        code, out, err = run(capsys, "compute", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: config value for m must be an integer, got {value!r}\n"

    def test_signed_and_zero_padded_decimals_are_read(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compute", "--n", "+2", "--m", "03")
        assert code == EXIT_OK
        assert "(laughlin, N=2, m=3, t=1)" in out
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m-max = -1\n")
        code, _, err = run(capsys, "table", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "no odd m in 1..-1" in err


class TestJobs:
    @pytest.mark.parametrize("command", ["table", "figure"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_flag_below_one_exit_64(self, capsys, command, jobs):
        argv = [command, *(["1"] if command == "figure" else []), "--m-max", "3"]
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        assert code == EXIT_USAGE
        assert "jobs" in err and out == ""

    def test_config_below_one_exit_64(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = 0\n")
        code, _, err = run(capsys, "table", "--m-max", "3", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "jobs" in err


# -- the CLI contract over generated argv and config files ---------------------

# Integer texts that int() reads (3_1 as 31, the Arabic-Indic and fullwidth
# digits as digits) but the CLI refuses; the --jobs ones read as at most 2,
# so that with int() restored no example starts more than two workers.
NOT_DECIMAL = ("3_1", "\u0663", "\uff13", "")
JOBS_NOT_DECIMAL = ("0_2", "\u0662", "\uff12", "")
FIGURE_IDS_NOT_DECIMAL = ("\u0663", "0_5")
HUGE = ("1000000000000", "1000000000001")


def _mostly_valid(valid: st.SearchStrategy, invalid: st.SearchStrategy) -> st.SearchStrategy:
    """An option's text, valid three times in four."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else invalid)


def _choices(valid: list[str], invalid: list[str]) -> st.SearchStrategy:
    return _mostly_valid(st.sampled_from(valid), st.sampled_from(invalid))


def _integers(valid: st.SearchStrategy, invalid: list[str]) -> st.SearchStrategy:
    """An integer option's text: valid, out of range, negative or not ASCII decimal."""
    negative = st.integers(-(10**12), -1).map(str)
    return _mostly_valid(valid.map(str), negative | st.sampled_from([*invalid, *NOT_DECIMAL]))


_FAMILY = _choices(list(FAMILIES), ["familly", ""])
_N = _integers(st.integers(2, 3), ["0", "1", *HUGE])
_M_MAX = _integers(st.integers(1, 41), ["0"])
_JOBS = _choices(["1", "2"], ["0", "-1", *JOBS_NOT_DECIMAL])
_OPTIONS = {
    "compute": {
        "family": _FAMILY,
        "n": _N,
        "m": _integers(st.integers(0, 4).map(lambda t: 2 * t + 1), ["0", "4", *HUGE]),
        "units": _choices(["bits", "nats"], ["bytes", ""]),
        "format": _choices(["text", "json"], ["csv", ""]),
    },
    "table": {
        "family": _FAMILY,
        "n": _N,
        "m_max": _M_MAX,
        "format": _choices(["csv", "json"], ["svg", ""]),
        "jobs": _JOBS,
    },
    "figure": {
        "m_max": _M_MAX,
        "format": _choices(["csv", "svg", "json"], ["text", ""]),
        "jobs": _JOBS,
        # only --out values that name no file, so no example writes one
        "out": st.sampled_from(["", "{tmp}/", "{tmp}/.csv", "{tmp}/sub/.svg", "{tmp}/."]),
    },
}
_MALFORMED = {*NOT_DECIMAL, *JOBS_NOT_DECIMAL, *FIGURE_IDS_NOT_DECIMAL}
_IGNORED_KEYS = {
    "compute": ("m_max", "out", "jobs"),
    "table": ("m", "units"),
    "figure": ("family", "n", "m", "units"),
}


@st.composite
def cli_cases(draw):
    """A subcommand, its options, and config-file lines that give the same options."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    prefix = [command]
    if command == "figure":
        prefix.append(draw(_choices(["1", "2", "3", "4", "5"], ["9", *FIGURE_IDS_NOT_DECIMAL])))
    options = {
        key: value
        for key, values in _OPTIONS[command].items()
        if (value := draw(st.none() | values)) is not None
    }
    lines = []
    for key, value in options.items():
        name = key.replace("_", "-") if draw(st.booleans()) else key
        if draw(st.booleans()):  # a repeated key: the last one counts
            lines.append(f"{name} = {draw(st.sampled_from(['junk', '7', '']))}")
        lines.append(f"{name}={value}" if draw(st.booleans()) else f"  {name} = {value}  # set")
    # keys that only other subcommands take are ignored, whatever their values
    for key in draw(st.lists(st.sampled_from(_IGNORED_KEYS[command]), max_size=3)):
        value = draw(st.sampled_from(["2", "chi", "?"]))
        lines.insert(draw(st.integers(0, len(lines))), f"{key} = {value}")
    lines.insert(draw(st.integers(0, len(lines))), "# a comment")
    unknown = draw(st.booleans()) and draw(st.booleans())
    if unknown:
        lines.append("familly = chi")
    bom = "\ufeff" if draw(st.booleans()) else ""
    return prefix, options, bom + "\n".join(lines) + "\n", unknown


def _main_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _flags(options: dict[str, str]) -> list[str]:
    return [arg for key, value in options.items() for arg in (f"--{key.replace('_', '-')}", value)]


def _csv_rows_equal_json_rows(csv_text: str, json_text: str) -> bool:
    header, *lines = csv_text.splitlines()
    expected = [
        [str(r["t"]), str(r["m"]), r["family"], str(r["N"]), f"{r['S_f_bits']:.12g}"]
        for r in json.loads(json_text)
        if r["S_f_bits"] is not None
    ]
    return header == "t,m,family,N,S_f_bits" and [line.split(",") for line in lines] == expected


@given(cli_cases())
@settings(max_examples=100, deadline=None)
def test_cli_contract(case):
    # every generated input exits 0, 2 or 64 without a traceback, the same
    # whether its options come as flags or from a config file; an integer
    # that is not ASCII decimal exits 64, and a table's CSV rows are its
    # non-null JSON rows
    prefix, options, config_text, unknown = case
    with tempfile.TemporaryDirectory() as tmp:
        options = {key: value.replace("{tmp}", tmp) for key, value in options.items()}
        cfg = Path(tmp, "run.cfg")
        cfg.write_text(config_text.replace("{tmp}", tmp), encoding="utf-8")
        flagged = _main_in_process([*prefix, *_flags(options)])
        configured = _main_in_process([*prefix, "--config", str(cfg)])
        assert sorted(os.listdir(tmp)) == ["run.cfg"], "an --out that names no file was written"
    for code, out, err in (flagged, configured):
        assert code in (EXIT_OK, EXIT_ZERO_WAVEFUNCTION, EXIT_USAGE), (code, err)
        assert "Traceback" not in err
    if _MALFORMED.intersection([*prefix, *options.values()]):
        assert flagged[0] == EXIT_USAGE, flagged
    if unknown:  # unless argparse refused the figure id before the config was read
        assert configured[0] == EXIT_USAGE
        assert "unknown config key(s): familly" in configured[2] or "argument id" in configured[2]
    else:
        assert configured[:2] == flagged[:2]
    code, out, _ = flagged
    if code == EXIT_OK:
        assert out.startswith(("S_f = ", "t,m,family,N,S_f_bits\n", "<svg ")) or json.loads(out)
    if prefix == ["table"] and code == EXIT_OK:
        fmt = options.get("format", "csv")
        other_fmt = "json" if fmt == "csv" else "csv"
        _, other, _ = _main_in_process([*prefix, *_flags({**options, "format": other_fmt})])
        assert _csv_rows_equal_json_rows(*((out, other) if fmt == "csv" else (other, out)))


_VERIFY_STRAYS = [["--config", "run.cfg"], ["--jobs", "2"], ["--format", "json"]]


@pytest.mark.parametrize("level", [None, "fast", "full", "quick", "FULL", ""], ids=repr)
def test_verify_argv_contract(level):
    # with no option, an absent, fast or full level exits 0 and prints what
    # run_verification reports; a malformed level, or any option, none of
    # which verify takes, before or after the level, exits 64 and prints
    # nothing to stdout; neither prints a traceback
    given = [] if level is None else [level]
    valid = level in (None, "fast", "full")
    report = format_report(run_verification(level or "fast")) if valid else None
    for k in range(len(_VERIFY_STRAYS) + 1):
        for strays in itertools.combinations(_VERIFY_STRAYS, k):
            flat = [arg for option in strays for arg in option]
            for argv in {("verify", *flat, *given), ("verify", *given, *flat)}:
                code, out, err = _main_in_process(list(argv))
                assert "Traceback" not in err
                if valid and not strays:
                    assert (code, out) == (EXIT_OK, report), argv
                else:
                    assert (code, out) == (EXIT_USAGE, ""), (argv, code, err)


def _loaded_after(code: str, module: str) -> bool:
    """Whether module is loaded once code has run in a fresh interpreter."""
    probe = f"{code}\nimport sys; print({module!r} in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
    )
    return result.stdout.strip() == "True"


@pytest.mark.parametrize(
    "module",
    # the process pool is imported only when a sweep starts one; verify only
    # by the verify subcommand; numpy only by a non-diagonal density matrix,
    # a rotated pairing or fqhent.entangle, which no subcommand reaches; json
    # only by JSON output; dataclasses and the inspect it loads by nothing
    [
        "numpy",
        "scipy",
        "multiprocessing",
        "fqhent.entangle",
        "fqhent.verify",
        "dataclasses",
        "inspect",
        "json",
    ],
)
def test_cli_import_does_not_load(module):
    assert not _loaded_after("import fqhent.cli", module)


def _running_main(argv: list[str], exit_code: int) -> str:
    """Code that runs main(argv) in-process, output discarded, and checks its exit code."""
    return (
        "import contextlib, io; from fqhent.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == {exit_code}"
    )


@pytest.mark.parametrize(
    "argv,exit_code",
    [
        (["compute", "--family", "laughlin", "--n", "3", "--m", "5"], EXIT_OK),
        (["compute", "--family", "hierarchical_phi", "--n", "3", "--m", "7", "--format", "json"], EXIT_OK),
        (["compute", "--family", "chi", "--n", "2", "--m", "7"], EXIT_ZERO_WAVEFUNCTION),
        (["table", "--family", "chi", "--n", "3"], EXIT_OK),
        (["figure", "5", "--format", "csv"], EXIT_OK),
        (["verify", "fast"], EXIT_OK),
        (["verify", "full"], EXIT_OK),
    ],
    ids=[
        "compute-text",
        "compute-json",
        "compute-zero-point",
        "table-chi",
        "figure-5",
        "verify-fast",
        "verify-full",
    ],
)
def test_cli_commands_do_not_load_numpy(argv, exit_code):
    assert not _loaded_after(_running_main(argv, exit_code), "numpy")


def test_verify_import_does_not_load_numpy():
    assert not _loaded_after("import fqhent.verify", "numpy")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_compute_loads_json_only_for_json_output(fmt):
    argv = ["compute", "--family", "laughlin", "--n", "3", "--m", "5", "--format", fmt]
    assert _loaded_after(_running_main(argv, EXIT_OK), "json") is (fmt == "json")


def test_entangle_import_loads_numpy():
    # eager on purpose: a caller contracting non-diagonal states pays for
    # numpy at import, not inside its first contraction
    assert _loaded_after("import fqhent.entangle", "numpy")
