"""End-to-end invariants of the command line: reports that do not depend on
the BLAS or worker thread counts, Matrix Market files that round-trip byte
for byte, and a file that gives the estimate of the matrix it holds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entrace
from entrace.cli import main
from entrace.sparse import SymmetricSparseMatrix, read_matrix_market, write_matrix_market
from support import dominant_band, layout


def report(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def same_estimate(a, b, keys=("entropy", "tau", "gamma0")):
    a, b = json.loads(a), json.loads(b)
    return all(a[k] == b[k] for k in keys)


@pytest.fixture(scope="module")
def laplacian(tmp_path_factory):
    """A gathered matrix: no --generate spec is one.

    The random-graph Laplacian L = D - W on dim 400 with 3 * dim random
    pairs is too scattered for diagonals or columns (2777 entries, block
    width 47), so 64 probes make one full block and one 17-row block
    gathered row by row, and the adaptive loop's 27 probes make batches that
    end in shorter blocks.
    """
    m = 400
    i, j = np.random.default_rng(0).integers(0, m, size=(2, 3 * m))
    w = np.zeros((m, m))
    w[i, j] = w[j, i] = 1.0
    np.fill_diagonal(w, 0.0)
    path = tmp_path_factory.mktemp("gathered") / "laplacian.mtx"
    write_matrix_market(SymmetricSparseMatrix.from_dense(np.diag(w.sum(axis=1)) - w), path)
    mat = read_matrix_market(path)
    assert layout(mat) == "gather" and mat.block_width < 64 < 2 * mat.block_width
    return path


def test_reports_do_not_depend_on_the_blas_thread_count(capsys, tmp_path, laplacian):
    # every reduction is an np.einsum, never BLAS: spdc:default and the dense
    # file are multiplied by column, fem:200000 by diagonal in several row
    # tiles, sampled under a user scaling, and the Laplacian gathered, a
    # fixed count and adaptively
    random = tmp_path / "random.mtx"
    report(capsys, "generate", "--generate", "random:300:0", "-o", str(random))
    runs = [
        ["entropy", "--generate", "spdc:default", "--normalize", "-n", "14", "--samples", "400"],
        ["entropy", "--input", str(random), "-n", "8", "--samples", "30"],
        ["entropy", "--generate", "fem:200000", "-n", "8", "--samples", "8", "--gamma0", "4"],
        ["entropy", "--input", str(laplacian), "-n", "8", "--samples", "64"],
        ["entropy", "--input", str(laplacian), "-n", "8"],
    ]
    # one process a BLAS thread count, which is read when numpy loads
    code = ("import json, sys\n"
            "from entrace.cli import main\n"
            "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))\n")
    src = str(Path(entrace.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for blas in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=blas,
                   OMP_NUM_THREADS=blas, MKL_NUM_THREADS=blas)
        child = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        outputs.append(child.stdout)
    assert outputs[0].count('"entropy"') == len(runs)
    assert outputs[0] == outputs[1]
    # the spdc run answers from its Lanczos interval, the dense file's from
    # its probes
    assert outputs[0].count('"route": "lanczos"') == 1


def test_moment_route_does_not_depend_on_thread_counts(capsys, tmp_path):
    # runs that take exact moments: fem by diagonal in several row tiles, a
    # normalized one, one whose measure has three points, one with rules of
    # up to 32 free nodes, and a band of half-width 3 with holes read from a
    # file. Their reports are the same
    # at one and two BLAS threads and workers, but for the worker count
    band = tmp_path / "band.mtx"
    write_matrix_market(dominant_band(2000, 3, 5)[0], band)
    runs = [
        ["entropy", "--generate", "fem:200000", "-n", "8", "--samples", "8"],
        ["entropy", "--generate", "fem:50000", "--normalize", "-n", "17"],
        ["entropy", "--generate", "fem:3", "-n", "64"],
        ["entropy", "--generate", "fem:20000", "-n", "64", "--samples", "1"],
        ["entropy", "--input", str(band), "-n", "12", "--samples", "4"],
    ]
    code = ("import json, sys\n"
            "from entrace.cli import main\n"
            "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))\n")
    src = str(Path(entrace.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for blas in ("1", "2"):
        for workers in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=blas,
                       OMP_NUM_THREADS=blas, MKL_NUM_THREADS=blas, ENTRACE_THREADS=workers)
            child = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                                   capture_output=True, text=True, timeout=300)
            assert child.returncode == 0, child.stderr
            outputs.append(child.stdout.replace(f'"threads": {workers},', '"threads": -,'))
    assert outputs[0].count('"route": "moments"') == len(runs)
    assert all(out == outputs[0] for out in outputs[1:])


@pytest.mark.parametrize("extra", [["--samples", "400"], []], ids=["fixed", "adaptive"])
def test_lanczos_report_does_not_depend_on_the_worker_count(capsys, monkeypatch, extra):
    # normalized spdc, answered by its Lanczos interval, after probes in
    # blocks of 256 rows on two workers or one for a fixed count: the same
    # report but for the worker count it names
    argv = ["entropy", "--generate", "spdc:default", "--normalize", "-n", "14", *extra]
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("ENTRACE_THREADS", threads)
        reports.append(json.loads(report(capsys, *argv)))
        assert reports[-1]["method"].pop("threads") == int(threads)
    assert reports[0]["method"]["route"] == "lanczos"
    assert json.dumps(reports[0]) == json.dumps(reports[1])


@pytest.mark.parametrize("extra", [["--samples", "64"], []], ids=["fixed", "adaptive"])
def test_gathered_estimate_does_not_depend_on_the_worker_count(capsys, monkeypatch, laplacian,
                                                               extra):
    argv = ["entropy", "--input", str(laplacian), "-n", "8", *extra]
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("ENTRACE_THREADS", threads)
        reports.append(report(capsys, *argv))
    assert same_estimate(*reports, keys=("entropy", "tau", "gamma0", "samples"))


@pytest.mark.parametrize("spec", ["fem:1", "fem:2", "fem:1000", "spdc:default", "random:200:0"])
def test_matrix_market_file_round_trips_byte_for_byte(capsys, tmp_path, spec):
    # fem:1 is stored as one diagonal, fem:1000 by diagonal, and fem:2,
    # spdc:default and random:200:0 (dense) by column, so every file is
    # written from entries read off the strips, and read back as its lower
    # triangle and then the mirror, which the strips take unsorted
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    report(capsys, "generate", "--generate", spec, "-o", str(a))
    report(capsys, "generate", "--input", str(a), "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_file_and_generated_matrix_give_the_same_estimate(capsys, monkeypatch, tmp_path):
    # fem:100000 read from a file is built by the constructor from its
    # entries, and generated it is handed over as its diagonals
    monkeypatch.setenv("ENTRACE_THREADS", "2")
    path = tmp_path / "fem.mtx"
    report(capsys, "generate", "--generate", "fem:100000", "-o", str(path))
    sampling = ["-n", "8", "--samples", "8"]
    assert same_estimate(report(capsys, "entropy", "--input", str(path), *sampling),
                         report(capsys, "entropy", "--generate", "fem:100000", *sampling))


def test_symmetric_file_and_its_general_mirror_give_the_same_estimate(capsys, monkeypatch,
                                                                      tmp_path):
    # random:200:0 is dense and stored by column; its symmetric file is read
    # as the lower triangle and then the mirror, and the general file, with
    # both triangles written out, as its lines come
    monkeypatch.setenv("ENTRACE_THREADS", "2")
    symmetric, general = tmp_path / "symmetric.mtx", tmp_path / "general.mtx"
    report(capsys, "generate", "--generate", "random:200:0", "-o", str(symmetric))
    header, size, *entries = symmetric.read_text().splitlines()
    entries += [f"{j} {i} {v}" for i, j, v in map(str.split, entries) if i != j]
    n = size.split()[0]
    general.write_text("\n".join([header.replace("symmetric", "general"),
                                  f"{n} {n} {len(entries)}", *entries]) + "\n")
    sampling = ["-n", "8", "--samples", "8"]
    assert same_estimate(report(capsys, "entropy", "--input", str(symmetric), *sampling),
                         report(capsys, "entropy", "--input", str(general), *sampling))
