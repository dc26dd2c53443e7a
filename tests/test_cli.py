"""Command-line behavior: JSON reports, exit codes, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entrace
from entrace.cli import RunConfig, build_parser, main, run
from entrace.generators import fem_matrix
from entrace.sparse import SymmetricSparseMatrix, read_matrix_market, write_matrix_market


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEntropyCommand:
    def test_generated_input_adaptive(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--generate", "fem:100",
                                 "-n", "3", "--threads", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 3
        assert doc["trace"] == 200.0
        assert doc["method"]["estimator"] == "adaptive"
        assert doc["method"]["bound"] == "gershgorin"
        assert abs(doc["entropy"] - (-199.227)) < doc["tau"]
        assert "entropy =" in err

    def test_fixed_sample_mode(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:10",
                               "--samples", "21", "-n", "2", "--threads", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 21
        assert doc["method"]["estimator"] == "fixed"

    def test_same_invocation_byte_identical(self, capsys):
        args = ("entropy", "--generate", "fem:50", "-n", "3", "--seed", "4",
                "--threads", "2")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_file_input_round_trip(self, capsys, tmp_path):
        path = tmp_path / "fem.mtx"
        write_matrix_market(fem_matrix(30), path)
        code, out, _ = run_cli(capsys, "entropy", "--input", str(path),
                               "--threads", "1")
        assert code == 0
        assert json.loads(out)["method"]["dim"] == 30

    def test_normalize_flag(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:20",
                               "--normalize", "-n", "8", "--threads", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"]["normalized"] is True
        # normalized entropy of a 20-dim state cannot exceed log 20
        assert doc["entropy"] <= math.log(20) + doc["tau"]

    def test_user_gamma0(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:10",
                               "--gamma0", "5.0", "--threads", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma0"] == 5.0
        assert doc["method"]["bound"] == "user"

    @pytest.mark.parametrize("gamma0, x0", [("1.4", "3"), ("1.4", "6"), ("6.3", "0.7")])
    def test_user_gamma0_is_exact_under_any_x0(self, capsys, gamma0, x0):
        # pairs for which (G * x0) / x0 is not G in floating point
        assert float(gamma0) * float(x0) / float(x0) != float(gamma0)
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:100", "--gamma0", gamma0,
                               "--x0", x0, "-n", "4", "--samples", "4", "--threads", "1")
        assert code == 0
        doc = json.loads(out)
        assert (doc["gamma0"], doc["x0"]) == (float(gamma0), float(x0))

    @pytest.mark.parametrize("source, gamma0", [("fem:1000", "0.004"), ("spdc:default", "1.0")])
    def test_user_gamma0_scales_the_state(self, capsys, source, gamma0):
        # under --normalize G bounds the state A / tr(A), whose lambda_max is
        # about 0.002 on fem:1000 and 0.39 on spdc, and is the run's gamma0
        code, out, _ = run_cli(capsys, "entropy", "--generate", source, "--normalize",
                               "--gamma0", gamma0, "-n", "8", "--samples", "20")
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma0"] == float(gamma0) and doc["method"]["bound"] == "user"
        code, out, _ = run_cli(capsys, "oracle", "--generate", source, "--normalize")
        assert code == 0
        assert abs(doc["entropy"] - json.loads(out)["entropy"]) <= doc["tau"]

    def test_zero_matrix(self, capsys, tmp_path):
        path = tmp_path / "zero.mtx"
        write_matrix_market(SymmetricSparseMatrix(3, [0], [0], [0.0]), path)
        code, out, _ = run_cli(capsys, "entropy", "--input", str(path),
                               "--threads", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["entropy"] == 0.0 and doc["method"]["zero_trace"] is True

    def test_verify_psd_rejects_indefinite(self, capsys, tmp_path):
        path = tmp_path / "indef.mtx"
        write_matrix_market(
            SymmetricSparseMatrix(2, [0, 1], [1, 0], [1.0, 1.0]), path)
        code, out, _ = run_cli(capsys, "entropy", "--input", str(path),
                               "--verify-psd", "--threads", "1")
        assert code == 1
        assert "not PSD" in json.loads(out)["error"]["message"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:10",
                               "-o", str(target), "--threads", "1")
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)


class TestOracleCommand:
    def test_report_keys(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--generate", "fem:50")
        assert code == 0
        doc = json.loads(out)
        assert list(doc.keys()) == ["entropy", "min_eig", "max_eig", "trace", "method"]
        assert doc["entropy"] == pytest.approx(-99.22764237, rel=1e-8)
        assert doc["trace"] == 100.0
        assert 0.0 < doc["min_eig"] < doc["max_eig"] < 4.0

    def test_normalized(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--generate", "fem:16", "--normalize")
        assert code == 0
        assert json.loads(out)["entropy"] <= math.log(16)

    def test_cap_exceeded(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--generate", "fem:30", "--cap", "10")
        assert code == 1
        assert "error" in json.loads(out)


class TestGenerateCommand:
    def test_writes_and_reports(self, capsys, tmp_path):
        target = tmp_path / "out.mtx"
        code, out, _ = run_cli(capsys, "generate", "--generate", "fem:25",
                               "-o", str(target))
        assert code == 0
        doc = json.loads(out)
        assert doc["written"] == str(target)
        assert doc["dim"] == 25 and doc["nnz"] == 25 + 48
        code2, out2, _ = run_cli(capsys, "entropy", "--input", str(target),
                                 "--threads", "1")
        assert code2 == 0

    def test_spdc_default(self, capsys, tmp_path):
        target = tmp_path / "spdc.mtx"
        code, out, _ = run_cli(capsys, "generate", "--generate", "spdc:default",
                               "-o", str(target))
        assert code == 0
        assert json.loads(out)["dim"] == 64

    def test_random_spec(self, capsys, tmp_path):
        target = tmp_path / "r.mtx"
        code, out, _ = run_cli(capsys, "generate", "--generate", "random:12:3",
                               "-o", str(target))
        assert code == 0
        a = json.loads(out)
        run_cli(capsys, "generate", "--generate", "random:12:3", "-o", str(target))
        assert target.exists() and a["dim"] == 12

    def test_bad_spec_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "generate", "--generate", "random:12",
                               "-o", str(tmp_path / "x.mtx"))
        assert code == 2
        assert "usage error" in err
        for spec in ("nope:1", "fem:0", "random:0:1"):
            code, out, err = run_cli(capsys, "generate", "--generate", spec,
                                     "-o", str(tmp_path / "x.mtx"))
            assert code == 2 and out == ""
            assert "usage error" in err


class TestRunWarnings:
    """A run reports its input's warnings; the matrix carries none."""

    @pytest.mark.parametrize("argv, where", [
        (["entropy", "-n", "4", "--samples", "8", "--threads", "1"], ("method", "warnings")),
        (["oracle"], ("method", "warnings")),
        (["generate", "-o", "spdc.mtx"], ("warnings",)),
    ])
    def test_under_resolved_pump(self, capsys, tmp_path, monkeypatch, argv, where):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "narrow.cfg").write_text("tau_p = 2e-13\n")
        code, out, _ = run_cli(capsys, *argv, "--generate", "spdc:narrow.cfg")
        assert code == 0
        doc = json.loads(out)
        for key in where:
            doc = doc[key]
        assert doc == ["pump envelope under-resolved: 6.18 grid points across its full "
                       "width at half maximum, want at least 8"]


class TestTable1Command:
    def test_small_subset(self, capsys):
        code, out, err = run_cli(capsys, "table1", "--sizes", "10,50",
                                 "--degrees", "2,3", "--threads", "1")
        assert code == 0
        doc = json.loads(out)
        assert [r["m"] for r in doc["rows"]] == [10, 50]
        for row in doc["rows"]:
            assert set(row) == {"m", "n", "exact", "estimate", "abs_err",
                                "rel_err", "tau", "samples", "capped"}
            assert row["abs_err"] < row["tau"]
        assert err.count("m=") == 2

    def test_mismatched_lengths(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--sizes", "10,50",
                               "--degrees", "2")
        assert code == 2
        assert "usage error" in err


class TestErrorHandling:
    def test_missing_file_json_error(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--input", "/no/such/file.mtx")
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "FileNotFoundError"

    def test_mutually_exclusive_sources(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--input", "a", "--generate", "fem:3"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_input_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["entropy"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bound_option_is_gone(self, capsys):
        # gamma0 is Gershgorin's bound or --gamma0; no option picks another
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--generate", "fem:10", "--bound", "gershgorin"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bound" in capsys.readouterr().err

    def test_non_finite_spdc_amplitude(self, capsys, tmp_path):
        # the nan matrix used to lose every entry and report entropy 0 +- 0
        path = tmp_path / "nan.cfg"
        path.write_text("amplitude_scale = nan\n")
        code, out, _ = run_cli(capsys, "entropy", "--generate", f"spdc:{path}",
                               "--threads", "1")
        assert code == 1
        assert json.loads(out)["error"] == {"type": "ValueError",
                                            "message": "matrix entries must be finite"}

    def test_confidence_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "--generate", "fem:5", "-p", "1.5")
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("x0", ["0", "-1", "nan", "inf"])
    def test_bad_x0(self, capsys, x0):
        code, out, err = run_cli(capsys, "entropy", "--generate", "fem:5", "--x0", x0)
        assert code == 2
        assert "usage error" in err and "--x0" in err
        assert out == ""

    @pytest.mark.parametrize("gamma0", ["0", "-1", "nan", "inf"])
    def test_bad_gamma0(self, capsys, gamma0):
        code, out, err = run_cli(capsys, "entropy", "--generate", "fem:5", "--gamma0", gamma0)
        assert code == 2
        assert "usage error" in err and "--gamma0" in err
        assert out == ""

    @pytest.mark.parametrize("sub", [["entropy", "--generate", "fem:5"], ["table1"]])
    def test_n_max_below_eight(self, capsys, sub):
        code, out, err = run_cli(capsys, *sub, "--n-max", "5")
        assert code == 2
        assert "usage error" in err and "--n-max" in err
        assert out == ""

    @pytest.mark.parametrize("sub", [["entropy", "--generate", "fem:5"], ["table1"]])
    def test_negative_threads(self, capsys, sub):
        code, out, err = run_cli(capsys, *sub, "--threads", "-3")
        assert code == 2
        assert "usage error" in err and "--threads" in err
        assert out == ""

    @pytest.mark.parametrize("argv, flag", [
        (["table1", "--sizes", "0", "--degrees", "2"], "--sizes"),
        (["table1", "--sizes", "10,-5", "--degrees", "2,2"], "--sizes"),
        (["table1", "--sizes", "10", "--degrees", "0"], "--degrees"),
        (["oracle", "--generate", "fem:10", "--cap", "0"], "--cap"),
        (["oracle", "--generate", "fem:10", "--cap", "-1"], "--cap"),
    ], ids=["size-0", "size-negative", "degree-0", "cap-0", "cap-negative"])
    def test_counts_below_one(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "usage error" in err and flag in err
        assert out == ""

    @pytest.mark.parametrize("sub", [["entropy", "--generate", "fem:10", "--samples", "4"],
                                     ["table1", "--sizes", "10", "--degrees", "2"]],
                             ids=["entropy", "table1"])
    def test_negative_seed(self, capsys, sub):
        code, out, err = run_cli(capsys, *sub, "--seed", "-1")
        assert code == 2
        assert "usage error" in err and "--seed" in err
        assert out == ""

    # the suite turns warnings into errors, so numpy's overflow warnings
    # would fail this test before the forms are checked
    @pytest.mark.parametrize("extra", [["-n", "8"], ["-n", "14"], ["-n", "30", "--samples", "4"]],
                             ids=["overflow", "non-finite", "non-finite-fixed"])
    def test_escaped_spectrum(self, capsys, extra):
        # gamma0 far below lambda_max: a moment far beyond m at n = 8, and
        # moments that overflow into nan at n = 14 and 30
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:10", "--gamma0", "1e-30",
                               "--threads", "1", *extra)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].endswith(
            "the spectrum is not inside [0, x0 * gamma0] = [0, 1e-30]")

    # gamma0 is a fraction of lambda_max (3.92 on fem:10, 0.997 on the file,
    # 0.388 on spdc, whose run estimates the state A / tr(A)); a low-rank
    # state keeps mu_1 = v^T B v far below m at 0.9 lambda_max, and the
    # escape shows from n = 2 on
    @pytest.mark.parametrize("source, fraction, n", [
        *(("fem:10", 0.125, n) for n in (1, 2, 3, 14)),
        *(("random:200:0", 0.5, n) for n in (1, 2, 3, 14)),
        ("random:200:0", 0.9, 14),
        *(("spdc:default", 0.9, n) for n in (2, 3, 14)),
    ])
    def test_moment_escape(self, capsys, tmp_path, source, fraction, n):
        path = tmp_path / "matrix.mtx"
        assert run_cli(capsys, "generate", "--generate", source, "-o", str(path))[0] == 0
        mat = read_matrix_market(path)
        lam = float(np.linalg.eigvalsh(mat.to_dense())[-1])
        extra = []
        if source.startswith("spdc"):
            # --gamma0 scales the state the run estimates
            lam /= mat.trace()
            extra = ["--normalize"]
        code, out, _ = run_cli(capsys, "entropy", "--input", str(path), "-n", str(n),
                               "--gamma0", repr(fraction * lam), "--samples", "30", *extra)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        k, ratio = re.match(r"probe moment \|mu_(\d+)\| = (\S+) m exceeds mu_0 = m: the "
                            r"spectrum is not inside \[0, x0 \* gamma0\] = \[0, ",
                            error["message"]).groups()
        assert 1 <= int(k) <= n and float(ratio) > 1.0

    @pytest.mark.parametrize("matrix, threads", [("fem:10", []), ("fem:20000", ["--threads", "2"])],
                             ids=["one-block", "pool"])
    def test_escaped_spectrum_prints_no_numpy_warning(self, matrix, threads):
        # under Python's default filters, in a fresh process; fem(20000) has
        # block width 1, so its four probes run on the pool's threads
        src = str(Path(entrace.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-m", "entrace", "entropy", "--generate", matrix,
                              "-n", "30", "--gamma0", "1e-30", "--samples", "4", *threads],
                             env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 1
        assert "a probe form is not finite" in json.loads(run.stdout)["error"]["message"]
        assert "RuntimeWarning" not in run.stderr

    def test_run_config_direct(self, capsys):
        # the config object is usable without the argument parser
        code = run(RunConfig(subcommand="oracle", generate_spec="fem:10"))
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["trace"] == 20.0


class TestModuleEntryPoint:
    """``python -m entrace`` is the command line."""

    @staticmethod
    def module_env():
        src = str(Path(entrace.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return dict(os.environ, PYTHONPATH=path)

    @classmethod
    def run_module(cls, *argv):
        return subprocess.run([sys.executable, "-m", "entrace", *argv], env=cls.module_env(),
                              capture_output=True, text=True, timeout=120)

    def test_matches_main(self, capsys):
        argv = ["entropy", "--generate", "fem:50", "-n", "4", "--samples", "2"]
        code, out, _ = run_cli(capsys, *argv)
        child = self.run_module(*argv)
        assert (child.returncode, child.stdout) == (code, out)

    def test_no_arguments_is_a_usage_error(self):
        assert self.run_module().returncode == 2

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["entropy", "--generate", "fem:20", "--samples", "2"],
        ["oracle", "--generate", "fem:20"],
        ["generate", "--generate", "fem:20", "-o", "a.mtx"],
        ["table1", "--sizes", "10", "--degrees", "2"],
    ], ids=["entropy", "oracle", "generate", "table1"])
    def test_closed_stdout_exits_one_quietly(self, tmp_path, argv, unbuffered):
        # stdout is a pipe whose read end is closed before the child starts:
        # buffered, the report fails at the final flush, unbuffered at print
        env = self.module_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            child = subprocess.run([sys.executable, "-m", "entrace", *argv], cwd=tmp_path,
                                   env=env, stdout=write, stderr=subprocess.PIPE, text=True,
                                   timeout=120)
        finally:
            os.close(write)
        assert child.returncode == 1, child.stderr
        assert "Traceback" not in child.stderr
        assert "Exception ignored" not in child.stderr


class TestPinnedOutput:
    """stdout of runs that span several row tiles, or one, byte for byte."""

    @pytest.mark.parametrize("argv, name", [
        (["--generate", "fem:100000", "-n", "8", "--samples", "4", "--seed", "0",
          "--threads", "1"], "entropy-fem-100000-threads-1.json"),
        (["--generate", "fem:100000", "-n", "8", "--samples", "4", "--seed", "0",
          "--threads", "2"], "entropy-fem-100000-threads-2.json"),
        (["--generate", "spdc:default", "--normalize", "-n", "14", "--samples", "400",
          "--threads", "2"], "entropy-spdc-normalize-threads-2.json"),
    ], ids=["fem-threads-1", "fem-threads-2", "spdc"])
    def test_entropy_stdout(self, capsys, argv, name):
        code, out, _ = run_cli(capsys, "entropy", *argv)
        assert code == 0
        assert out == (Path(__file__).parent / "data" / name).read_text()


class TestEstimatorDispatch:
    def test_samples_flag_selects_the_estimator(self, capsys, monkeypatch):
        # the command reaches the estimators through entrace.cli's globals,
        # where callers such as a profiler may wrap them
        import entrace.cli as cli

        calls = []
        for name in ("estimate_fixed", "estimate_adaptive"):
            def recorder(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, recorder)
        base = ("entropy", "--generate", "fem:10", "--threads", "1")
        assert run_cli(capsys, *base, "--samples", "4")[0] == 0
        assert run_cli(capsys, *base)[0] == 0
        assert calls == ["estimate_fixed", "estimate_adaptive"]


class TestThreadsDefault:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTRACE_THREADS", "2")
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:10")
        assert code == 0
        assert json.loads(out)["method"]["threads"] == 2

    def test_env_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTRACE_THREADS", "zero")
        code, _, err = run_cli(capsys, "entropy", "--generate", "fem:10")
        assert code == 2
        assert "usage error" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTRACE_THREADS", "2")
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:10",
                               "--threads", "3")
        assert json.loads(out)["method"]["threads"] == 3

    def test_threads_do_not_change_output_values(self, capsys):
        _, one, _ = run_cli(capsys, "entropy", "--generate", "fem:60", "--threads", "1")
        _, four, _ = run_cli(capsys, "entropy", "--generate", "fem:60", "--threads", "4")
        a, b = json.loads(one), json.loads(four)
        a["method"].pop("threads")
        b["method"].pop("threads")
        assert a == b


def test_parser_covers_all_subcommands():
    # parsing only the required arguments leaves every other RunConfig field
    # at its dataclass default
    parser = build_parser()
    for argv, required in (
        (["entropy", "--generate", "fem:3"], {"generate_spec": "fem:3"}),
        (["oracle", "--input", "x"], {"input_path": "x"}),
        (["generate", "--generate", "fem:3", "-o", "y"],
         {"generate_spec": "fem:3", "output": "y"}),
        (["table1"], {}),
    ):
        config = RunConfig(**vars(parser.parse_args(argv)))
        assert config == RunConfig(subcommand=argv[0], **required)
