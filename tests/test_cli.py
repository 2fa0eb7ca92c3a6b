"""CLI subcommands, exit codes, formats, and config handling."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

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

        assert verify.check_laughlin_translation_highest_weight([(5, 5)]).status == "pass"
        monkeypatch.setattr(verify, "family_expansion", perturbed)
        result = verify.check_laughlin_translation_highest_weight([(3, 3), (5, 5)])
        assert result.status == "fail"
        assert "N=3, m=3" in result.detail

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
    # the process pool is imported only when a sweep starts one; entangle,
    # verify and numpy only by verify and the two-fermion diagnostics; json
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
    ],
    ids=["compute-text", "compute-json", "compute-zero-point", "table-chi", "figure-5"],
)
def test_cli_commands_do_not_load_numpy(argv, exit_code):
    assert not _loaded_after(_running_main(argv, exit_code), "numpy")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_compute_loads_json_only_for_json_output(fmt):
    argv = ["compute", "--family", "laughlin", "--n", "3", "--m", "5", "--format", fmt]
    assert _loaded_after(_running_main(argv, EXIT_OK), "json") is (fmt == "json")


def test_entangle_import_loads_numpy():
    # eager on purpose: a caller contracting non-diagonal states pays for
    # numpy at import, not inside its first contraction
    assert _loaded_after("import fqhent.entangle", "numpy")
