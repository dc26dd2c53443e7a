"""Command-line behavior: JSON reports, exit codes, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import entrace
from entrace.cli import RunConfig, build_parser, main, run
from entrace.generators import fem_matrix
from entrace.sparse import SymmetricSparseMatrix, read_matrix_market, write_matrix_market
from support import indefinite, layout, scattered_psd


MTX_HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEntropyCommand:
    def test_generated_input_adaptive(self, capsys):
        code, out, err = run_cli(capsys, "entropy", "--generate", "fem:100",
                                 "-n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 3
        assert doc["trace"] == 200.0
        assert doc["method"]["estimator"] == "adaptive"
        assert doc["method"]["bound"] == "gershgorin"
        assert abs(doc["entropy"] - (-199.227)) < doc["tau"]
        assert "entropy =" in err

    def test_fixed_sample_mode(self, capsys):
        # a user scaling, so that fem samples
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:10",
                               "--samples", "21", "-n", "2", "--gamma0", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 21
        assert doc["method"]["estimator"] == "fixed"

    @pytest.mark.parametrize("extra", [[], ["--normalize"]], ids=["raw", "normalized"])
    def test_banded_run_takes_exact_moments(self, capsys, extra):
        # fem under Gershgorin's bound answers from n + 1 colour rows,
        # whatever --samples asks, and the oracle's entropy lies in its
        # interval; under --gamma0 the same run samples
        argv = ["--generate", "fem:500", *extra]
        code, out, _ = run_cli(capsys, "entropy", *argv, "-n", "6", "--samples", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 7 and doc["method"]["route"] == "moments"
        lo, hi = doc["method"]["interval"]
        code, out, _ = run_cli(capsys, "oracle", *argv)
        assert code == 0
        truth = json.loads(out)["entropy"]
        assert lo <= truth <= hi and abs(doc["entropy"] - truth) <= doc["tau"]
        gamma0 = str(doc["gamma0"])
        code, out, _ = run_cli(capsys, "entropy", *argv, "-n", "6", "--samples", "3",
                               "--gamma0", gamma0)
        doc = json.loads(out)
        assert doc["samples"] == 3 and "route" not in doc["method"]

    def test_same_invocation_byte_identical(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTRACE_THREADS", "2")
        args = ("entropy", "--generate", "fem:50", "-n", "3", "--seed", "4")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_file_input_round_trip(self, capsys, tmp_path):
        path = tmp_path / "fem.mtx"
        write_matrix_market(fem_matrix(30), path)
        code, out, _ = run_cli(capsys, "entropy", "--input", str(path))
        assert code == 0
        assert json.loads(out)["method"]["dim"] == 30

    def test_normalize_flag(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:20",
                               "--normalize", "-n", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"]["normalized"] is True
        # normalized entropy of a 20-dim state cannot exceed log 20
        assert doc["entropy"] <= math.log(20) + doc["tau"]

    def test_user_gamma0(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:10",
                               "--gamma0", "5.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma0"] == 5.0
        assert doc["method"]["bound"] == "user"

    @pytest.mark.parametrize("gamma0", ["4.2", "8.4", "4.41"])
    def test_user_gamma0_is_reported_as_given(self, capsys, gamma0):
        # x0 G for (G, x0) = (1.4, 3), (1.4, 6) and (6.3, 0.7): --gamma0 x0 G
        # is the run at that x0, reported at x0 = 1 with the G given
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:100", "--gamma0", gamma0,
                               "-n", "4", "--samples", "4")
        assert code == 0
        doc = json.loads(out)
        assert (doc["gamma0"], doc["x0"]) == (float(gamma0), 1.0)

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

    @pytest.mark.parametrize("argv, bound, entropy, tau", [
        (["--generate", "random:300:0", "--gamma0", "1.0005", "-n", "8", "--samples", "30"],
         "user", 70.06833460512927, 3.592348577449408),
        (["--generate", "spdc:default", "--normalize", "--gamma0", "0.39", "-n", "14",
          "--samples", "400"], "user", 1.5975946280130826, 0.1206196802070606),
        (["--generate", "fem:1000", "-n", "8", "--samples", "8"],
         "gershgorin", -1999.2396825396822, 6.66003482180304),
    ], ids=["random-gamma0", "spdc-gamma0", "fem"])
    def test_runs_without_lanczos_keep_their_numbers(self, capsys, argv, bound, entropy, tau):
        # --gamma0 runs, and runs on a matrix stored by diagonal, take no
        # Lanczos bound and charge no failure probability: the numbers of
        # the Gershgorin-only release, pinned; fem takes exact moments from
        # 9 colour rows, so its numbers are those of that route
        code, out, _ = run_cli(capsys, "entropy", *argv)
        assert code == 0
        doc = json.loads(out)
        assert (doc["method"]["bound"], doc["entropy"], doc["tau"]) == (bound, entropy, tau)

    def test_full_spectrum_keeps_its_numbers_undeflated(self, capsys):
        # random:1000:0, the dense benchmark matrix: 64 Krylov rows hold a
        # few percent of its trace, so the Lanczos interval is far wider
        # than tau, and the report is the sampled release's, pinned, with
        # no route
        code, out, _ = run_cli(capsys, "entropy", "--generate", "random:1000:0", "-n", "8",
                               "--samples", "30")
        assert code == 0
        doc = json.loads(out)
        assert (doc["method"]["bound"], doc["entropy"], doc["tau"], doc["samples"]) == (
            "lanczos", 248.9264205034521, 12.345225510063564, 30)
        assert "route" not in doc["method"]

    @pytest.mark.parametrize("extra, samples", [(["--samples", "4000"], 4000), ([], 0)],
                             ids=["fixed", "adaptive"])
    def test_low_rank_state_takes_the_lanczos_interval(self, capsys, extra, samples):
        # normalized spdc: the Lanczos interval is far below the floor, so
        # a fixed run answers from it after its probes, and an adaptive run
        # draws none
        code, out, _ = run_cli(capsys, "entropy", "--generate", "spdc:default", "--normalize",
                               "-n", "14", *extra)
        assert code == 0
        doc = json.loads(out)
        assert doc["method"]["route"] == "lanczos" and doc["samples"] == samples
        assert doc["tau"] < 1e-9
        lo, hi = doc["method"]["interval"]
        code, out, _ = run_cli(capsys, "oracle", "--generate", "spdc:default", "--normalize")
        assert lo <= json.loads(out)["entropy"] <= hi

    @pytest.mark.parametrize("extra", [["--samples", "30"], [], ["--normalize"]],
                             ids=["fixed", "adaptive", "normalized"])
    def test_indefinite_matrix_is_refused(self, capsys, tmp_path, extra):
        # a dense symmetric file, stored by column, with one eigenvalue at
        # -0.1 lambda_max: the Lanczos run's least Ritz value proves it is
        # not PSD, and no interval is reported
        path = tmp_path / "indefinite.mtx"
        write_matrix_market(indefinite(40, 1), path)
        code, out, err = run_cli(capsys, "entropy", "--input", str(path), "-n", "8", *extra)
        assert code == 1 and "route" not in out
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert re.match(r"a Ritz value of the Lanczos run is -0\.0\d+ tr A, below zero: the "
                        r"spectrum is not inside \[0, x0 \* gamma0\] = \[0, ", error["message"])
        assert "error:" in err

    @pytest.mark.parametrize("source", ["random:300:0", "spdc:default"])
    def test_lanczos_bound_reruns_bit_for_bit(self, capsys, source):
        # a matrix stored by column takes the Lanczos bound from a start
        # vector keyed by --seed: a rerun is byte-identical, and another seed
        # may move gamma0, here in its last digits
        argv = ["entropy", "--generate", source, "--normalize", "-n", "8", "--samples", "30"]
        runs = [run_cli(capsys, *argv, "--seed", seed)[1] for seed in ("3", "3", "4")]
        assert runs[0] == runs[1]
        docs = [json.loads(out) for out in runs]
        assert all(doc["method"]["bound"] == "lanczos" for doc in docs)
        assert docs[0]["gamma0"] != docs[2]["gamma0"]
        code, out, _ = run_cli(capsys, "oracle", "--generate", source, "--normalize")
        assert code == 0
        lam_max = json.loads(out)["max_eig"] / json.loads(out)["trace"]
        assert all(lam_max <= doc["gamma0"] < 1.1 * lam_max for doc in docs)

    def test_zero_matrix(self, capsys, tmp_path):
        path = tmp_path / "zero.mtx"
        write_matrix_market(SymmetricSparseMatrix(3, [0], [0], [0.0]), path)
        code, out, _ = run_cli(capsys, "entropy", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["entropy"] == 0.0 and doc["method"]["zero_trace"] is True

    def test_verify_psd_rejects_indefinite(self, capsys, tmp_path):
        path = tmp_path / "indef.mtx"
        write_matrix_market(
            SymmetricSparseMatrix(2, [0, 1], [1, 0], [1.0, 1.0]), path)
        code, out, _ = run_cli(capsys, "entropy", "--input", str(path),
                               "--verify-psd")
        assert code == 1
        assert "not PSD" in json.loads(out)["error"]["message"]


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

    def test_pure_state_entropy_is_positive_zero(self, capsys, tmp_path):
        # a state with one nonzero eigenvalue: fem:1 and a file with one entry
        path = tmp_path / "one.mtx"
        path.write_text(MTX_HEADER + "3 3 1\n2 2 5.0\n")
        for source in (["--generate", "fem:1"], ["--input", str(path)]):
            code, out, _ = run_cli(capsys, "oracle", *source, "--normalize")
            assert code == 0
            assert '"entropy": 0.0,' in out
            assert math.copysign(1.0, json.loads(out)["entropy"]) == 1.0

    def test_cap_exceeded(self, capsys):
        # oracle.DENSE_CAP is the dense route's only limit; no --cap lowers it
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--generate", "fem:30", "--cap", "10"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --cap" in err

    @pytest.mark.parametrize("argv, message", [
        (["oracle"], "dimension 2001 exceeds the dense oracle cap 2000; "),
        (["entropy", "--verify-psd"], "--verify-psd needs the dense oracle, which is "
                                      "capped at 2000; "),
    ], ids=["oracle", "verify-psd"])
    def test_dense_cap(self, capsys, argv, message):
        # one past the cap is refused with exactly one JSON document
        code, out, _ = run_cli(capsys, *argv, "--generate", "fem:2001")
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError" and error["message"].startswith(message)


class TestGenerateCommand:
    def test_writes_and_reports(self, capsys, tmp_path):
        target = tmp_path / "out.mtx"
        code, out, _ = run_cli(capsys, "generate", "--generate", "fem:25",
                               "-o", str(target))
        assert code == 0
        doc = json.loads(out)
        assert doc["written"] == str(target)
        assert doc["dim"] == 25 and doc["nnz"] == 25 + 48
        code2, out2, _ = run_cli(capsys, "entropy", "--input", str(target))
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
        # a random size lies in 1..oracle.DENSE_CAP and its seed is nonnegative
        for spec in ("nope:1", "fem:0", "random:0:1", "random:2001:0", "random:3000:0",
                     "random:10:-1"):
            code, out, err = run_cli(capsys, "generate", "--generate", spec,
                                     "-o", str(tmp_path / "x.mtx"))
            assert code == 2 and out == ""
            assert "usage error" in err
            assert spec == "nope:1" or repr(spec) in err
        assert not (tmp_path / "x.mtx").exists()

    def test_output_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--generate", "fem:3"])
        assert exc.value.code == 2
        capsys.readouterr()
        # and from a library config, which skips the parser
        assert run(RunConfig(subcommand="generate", generate_spec="fem:3")) == 2
        out, err = capsys.readouterr()
        assert out == "" and "generate requires --output" in err

    def test_fem_beyond_the_row_limit(self, capsys):
        # refused before fem_matrix fills its (3, m) mask, 12 GB at 4 * 10^9;
        # table1's --sizes take the same cap
        for argv, got in ((["entropy", "--generate", "fem:38347923"], "'fem:38347923'"),
                          (["entropy", "--generate", "fem:4000000000"], "'fem:4000000000'"),
                          (["table1", "--sizes", "38347923", "--degrees", "2"],
                           "38347923 in --sizes")):
            tracemalloc.start()
            try:
                code, out, err = run_cli(capsys, *argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2 and out == ""
            assert err == (f"usage error: fem size must lie in 1..38347922 (28 B a row "
                           f"within 1073741824 B), got {got}\n")
            assert peak < 2**20
        # the benchmark's size runs
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:1000000", "-n", "2",
                               "--samples", "2")
        assert code == 0 and json.loads(out)["method"]["dim"] == 10**6

    def test_spdc_grid_beyond_the_dense_cap(self, capsys, tmp_path):
        # refused before the builder forms 2001 x 2001 arrays (32 MB each)
        path = tmp_path / "wide.cfg"
        path.write_text("grid_points = 2001\n")
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "generate", "--generate", f"spdc:{path}",
                                   "-o", str(tmp_path / "x.mtx"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert json.loads(out)["error"] == {"type": "ValueError",
                                            "message": "grid_points must lie in 2..2000, "
                                                       "got 2001"}
        assert peak < 2**20


class TestRunWarnings:
    """A run reports its input's warnings; the matrix carries none."""

    @pytest.mark.parametrize("argv, where", [
        (["entropy", "-n", "4", "--samples", "8"], ("method", "warnings")),
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
                                 "--degrees", "2,3")
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

    @pytest.mark.parametrize("argv", [
        ["entropy", "--generate", "fem:10"],
        ["oracle", "--generate", "fem:10"],
        ["table1", "--sizes", "10", "--degrees", "2"],
    ], ids=["entropy", "oracle", "table1"])
    def test_report_copy_option_is_gone(self, capsys, tmp_path, argv):
        # stdout holds the one report; only generate writes a file
        target = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-o", str(target)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: -o" in err
        # a library config, which skips the parser, is refused the same way
        config = RunConfig(**vars(build_parser().parse_args(argv)), output=str(target))
        assert run(config) == 2
        out, err = capsys.readouterr()
        assert out == "" and "usage error" in err and "stdout only" in err
        assert not target.exists()

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
        code, out, _ = run_cli(capsys, "entropy", "--generate", f"spdc:{path}")
        assert code == 1
        assert json.loads(out)["error"] == {"type": "ValueError",
                                            "message": "matrix entries must be finite"}

    def test_confidence_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "--generate", "fem:5", "-p", "1.5")
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("x0", ["0", "-1", "nan", "inf"])
    def test_bad_x0(self, capsys, x0):
        # a run depends on x0 only through x0 * gamma0, so --x0 is gone and
        # the parser refuses any value of it
        for sub in (["entropy", "--generate", "fem:5"], ["table1"]):
            with pytest.raises(SystemExit) as exc:
                main([*sub, "--x0", x0])
            out, err = capsys.readouterr()
            assert exc.value.code == 2
            assert out == "" and "unrecognized arguments: --x0" in err

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
        # ENTRACE_THREADS is the one worker-count setting; no --threads flag
        # sets it, so the parser refuses any value of the flag
        with pytest.raises(SystemExit) as exc:
            main([*sub, "--threads", "-3"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == "" and "unrecognized arguments: --threads" in err

    @pytest.mark.parametrize("argv, flag", [
        (["table1", "--sizes", "0", "--degrees", "2"], "--sizes"),
        (["table1", "--sizes", "10,-5", "--degrees", "2,2"], "--sizes"),
        (["table1", "--sizes", "10", "--degrees", "0"], "--degrees"),
        (["oracle", "--generate", "fem:10", "--cap", "0"], "--cap"),
        (["oracle", "--generate", "fem:10", "--cap", "-1"], "--cap"),
    ], ids=["size-0", "size-negative", "degree-0", "cap-0", "cap-negative"])
    def test_counts_below_one(self, capsys, argv, flag):
        if flag == "--cap":
            # --cap is gone, so the parser refuses any value of it
            with pytest.raises(SystemExit) as exc:
                main(argv)
            code, (out, err) = exc.value.code, capsys.readouterr()
            assert f"unrecognized arguments: {flag}" in err
        else:
            code, out, err = run_cli(capsys, *argv)
            assert "usage error" in err and flag in err
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv, flag", [
        (["entropy", "--generate", "fem:10", "-n", "1025"], "degree"),
        (["entropy", "--generate", "fem:10", "-n", "0"], "degree"),
        (["table1", "--sizes", "10,50", "--degrees", "2,1025"], "--degrees"),
    ], ids=["entropy-1025", "entropy-0", "table1-1025"])
    def test_degree_beyond_the_cap(self, capsys, argv, flag):
        # refused before anything is allocated: a block's moments grow with n
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: {flag} must ") and "lie in 1..1024, got " in err
        assert peak < 2**20

    def test_largest_degree_keeps_its_moments_small(self, capsys, monkeypatch):
        # fem:1 takes 16 384 probe rows a product; at n = 1024 a block is cut
        # to the 127 rows whose (b, n + 1) moments fit BLOCK_BYTES, where one
        # block of all 2048 probes held two (2048, 1025) arrays, 33 MB; a
        # user scaling, so that fem samples
        monkeypatch.setenv("ENTRACE_THREADS", "2")
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:1", "-n", "1024",
                                   "--samples", "2048", "--gamma0", "4")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["samples"] == 2048
        assert peak < 8 * 2**20

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
                               *extra)
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

    @pytest.mark.parametrize("matrix, threads", [("fem:10", "1"), ("fem:20000", "2")],
                             ids=["one-block", "pool"])
    def test_escaped_spectrum_prints_no_numpy_warning(self, matrix, threads):
        # under Python's default filters, in a fresh process; fem(20000) has
        # block width 1, so its four probes run on the pool's threads
        src = str(Path(entrace.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-m", "entrace", "entropy", "--generate", matrix,
                              "-n", "30", "--gamma0", "1e-30", "--samples", "4"],
                             env=dict(os.environ, PYTHONPATH=path, ENTRACE_THREADS=threads),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 1
        assert "a probe form is not finite" in json.loads(run.stdout)["error"]["message"]
        assert "RuntimeWarning" not in run.stderr

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file, expected a MatrixMarket header"),
        ("%%MatrixMarket matrix coordinate real\n2 2 1\n1 1 1.0\n",
         "line 1: expected '%%MatrixMarket matrix coordinate real <symmetry>'"),
        ("%%MatrixMarket matrix array real symmetric\n2 2\n",
         "line 1: unsupported header 'matrix array real', only 'matrix coordinate real' "
         "is accepted"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
         "line 1: unsupported symmetry 'skew-symmetric'"),
        (f"{MTX_HEADER}% only comments\n\n", "line 3: missing size line"),
        (f"{MTX_HEADER}2 2\n", "line 2: size line must be 'rows cols nnz'"),
        (f"{MTX_HEADER}2 2 x\n", "line 2: size line is not three integers: '2 2 x'"),
        (f"{MTX_HEADER}2 3 1\n1 1 1.0\n", "line 2: matrix must be square, got 2 x 3"),
        (f"{MTX_HEADER}0 0 0\n", "line 2: size line entries out of range"),
        (f"{MTX_HEADER}2 2 -1\n", "line 2: size line entries out of range"),
    ], ids=["empty", "banner", "header", "symmetry", "no-size-line", "size-tokens",
            "size-not-integers", "not-square", "dim-below-one", "nnz-negative"])
    def test_matrix_market_header_errors(self, capsys, tmp_path, text, message):
        # a malformed file is a computation error naming its line
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "entropy", "--input", str(path))
        assert code == 1
        assert json.loads(out)["error"] == {"type": "MatrixMarketError", "message": message}

    @pytest.mark.parametrize("argv, threads, code, message", [
        (["entropy", "--generate", "fem:abc"], None, 2,
         "usage error: fem spec needs a size, e.g. fem:100, got 'fem:abc'"),
        (["entropy", "--generate", "random:a:b"], None, 2,
         "usage error: random spec is random:<m>:<seed>, got 'random:a:b'"),
        (["entropy", "--generate", "fem:10"], "0", 2,
         "usage error: ENTRACE_THREADS must be at least 1"),
        (["table1", "--sizes", "10", "--degrees", "2"], "0", 2,
         "usage error: ENTRACE_THREADS must be at least 1"),
        (["oracle", "--normalize", "--input", "zero.mtx"], None, 1,
         "cannot normalize a matrix with zero trace"),
    ], ids=["fem-size", "random-parts", "threads-0", "table1-threads-0", "oracle-zero-trace"])
    def test_refusals(self, capsys, tmp_path, monkeypatch, argv, threads, code, message):
        # usage errors leave stdout empty; a computation error prints its object
        monkeypatch.chdir(tmp_path)
        write_matrix_market(SymmetricSparseMatrix(3, [0], [0], [0.0]), "zero.mtx")
        if threads is not None:
            monkeypatch.setenv("ENTRACE_THREADS", threads)
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        if code == 2:
            assert out == "" and err == message + "\n"
        else:
            assert json.loads(out)["error"] == {"type": "ValueError", "message": message}

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

    @pytest.mark.parametrize("argv, threads, name", [
        (["--generate", "fem:100000", "-n", "8", "--samples", "4", "--seed", "0"], "1",
         "entropy-fem-100000-threads-1.json"),
        (["--generate", "fem:100000", "-n", "8", "--samples", "4", "--seed", "0"], "2",
         "entropy-fem-100000-threads-2.json"),
        (["--generate", "spdc:default", "--normalize", "-n", "14", "--samples", "400"], "2",
         "entropy-spdc-normalize-threads-2.json"),
        # sampled: a matrix stored by column, and a band under a user scaling
        (["--generate", "random:300:0", "-n", "8", "--samples", "30"], "1",
         "entropy-random-300-threads-1.json"),
        (["--generate", "random:300:0", "-n", "8", "--samples", "30"], "2",
         "entropy-random-300-threads-2.json"),
        (["--generate", "fem:100000", "-n", "8", "--samples", "4", "--gamma0", "4.3"], "2",
         "entropy-fem-100000-gamma0.json"),
    ], ids=["fem-threads-1", "fem-threads-2", "spdc", "columns-threads-1", "columns-threads-2",
            "fem-sampled"])
    def test_entropy_stdout(self, capsys, monkeypatch, argv, threads, name):
        # the report names its worker count, ENTRACE_THREADS
        monkeypatch.setenv("ENTRACE_THREADS", threads)
        code, out, _ = run_cli(capsys, "entropy", *argv)
        assert code == 0
        assert out == (Path(__file__).parent / "data" / name).read_text()

    def test_gathered_entropy_stdout(self, capsys, monkeypatch, tmp_path):
        # a sampled run on a matrix that gathers its products, read from a
        # file; the report names the file, which is left out
        path = tmp_path / "scattered.mtx"
        write_matrix_market(scattered_psd(280, 3), path)
        assert layout(read_matrix_market(path)) == "gather"
        monkeypatch.setenv("ENTRACE_THREADS", "2")
        code, out, _ = run_cli(capsys, "entropy", "--input", str(path), "-n", "8",
                               "--samples", "30")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"].pop("matrix") == str(path)
        want = (Path(__file__).parent / "data" / "entropy-gathered-280.json").read_text()
        assert json.dumps(doc, indent=2) + "\n" == want


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
        base = ("entropy", "--generate", "fem:10")
        assert run_cli(capsys, *base, "--samples", "4")[0] == 0
        assert run_cli(capsys, *base)[0] == 0
        assert calls == ["estimate_fixed", "estimate_adaptive"]


class TestThreadsDefault:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTRACE_THREADS", "2")
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:10")
        assert code == 0
        assert json.loads(out)["method"]["threads"] == 2

    def test_default_is_the_affinity_mask(self, capsys, monkeypatch):
        # one core in the process's mask, whatever the machine has
        monkeypatch.delenv("ENTRACE_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        code, out, _ = run_cli(capsys, "entropy", "--generate", "fem:10")
        assert code == 0
        assert json.loads(out)["method"]["threads"] == 1

    def test_env_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTRACE_THREADS", "zero")
        code, _, err = run_cli(capsys, "entropy", "--generate", "fem:10")
        assert code == 2
        assert "usage error" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        # no flag overrides ENTRACE_THREADS: the parser refuses --threads
        monkeypatch.setenv("ENTRACE_THREADS", "2")
        for argv in (["entropy", "--generate", "fem:10"], ["table1"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--threads", "2"])
            out, err = capsys.readouterr()
            assert exc.value.code == 2
            assert out == "" and "unrecognized arguments: --threads" in err
        assert not hasattr(RunConfig, "threads")

    def test_threads_do_not_change_output_values(self, capsys, monkeypatch):
        # a user scaling, so that fem samples
        monkeypatch.setenv("ENTRACE_THREADS", "1")
        _, one, _ = run_cli(capsys, "entropy", "--generate", "fem:60", "--gamma0", "4")
        monkeypatch.setenv("ENTRACE_THREADS", "4")
        _, four, _ = run_cli(capsys, "entropy", "--generate", "fem:60", "--gamma0", "4")
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
