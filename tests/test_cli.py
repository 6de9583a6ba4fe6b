"""Command-line interface: schemas, exit codes, reproducibility."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contraction_lab.cli import main
from contraction_lab.corpus import GenSpec, generate
from contraction_lab.linalg import DEFAULT_TOL, Tolerances, matrix_from_json, matrix_to_json


def write_matrix(path, mat):
    path.write_text(json.dumps(matrix_to_json(np.asarray(mat, dtype=complex))))
    return str(path)


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    out = buf.getvalue()
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def files(tmp_path):
    return {
        "one": write_matrix(tmp_path / "one.json", [[1.0]]),
        "zero": write_matrix(tmp_path / "zero.json", [[0.0]]),
        "half": write_matrix(tmp_path / "half.json", [[0.5]]),
        "J": write_matrix(tmp_path / "J.json", [[0, 1], [0, 0]]),
        "JZ": write_matrix(tmp_path / "JZ.json", [[0, 1], [0.5, 0]]),
        "zero2": write_matrix(tmp_path / "zero2.json", np.zeros((2, 2))),
        "tmp": tmp_path,
    }


class TestDominate:
    def test_harnack_boundary_pair(self, files):
        code, report = run_cli(["dominate", "--order", "harnack",
                                files["one"], files["zero"]])
        assert code == 1
        assert report["verdict"]["status"] == "NotDominated"
        assert report["verdict"]["witness"] is not None
        assert report["verdict"]["method"] == "kernel-escape"

    def test_harnack_strict_pair(self, files):
        code, report = run_cli(["dominate", "--order", "harnack",
                                files["half"], files["zero"]])
        assert code == 0
        assert report["verdict"]["status"] == "Dominated"
        assert report["verdict"]["method"] == "symbol"
        assert report["verdict"]["constant_estimate"] == pytest.approx(3.0, rel=1e-9)

    def test_shmulyan_part_pair(self, files):
        code, report = run_cli(["dominate", "--order", "shmulyan",
                                files["J"], files["JZ"]])
        assert code == 0
        assert report["verdict"]["dominates"] is True

    def test_shape_mismatch_is_input_error(self, files):
        code, report = run_cli(["dominate", "--order", "shmulyan",
                                files["one"], files["J"]])
        assert code == 2
        assert "error" in report


class TestAnalyze:
    def test_zero_matrix(self, files):
        code, report = run_cli(["analyze", files["zero2"]])
        assert code == 0
        assert {"strict", "pure", "quasi_normal"} <= set(report["classification"])
        assert report["class"] == "C00"
        assert report["parts"] == {"dim_h_i": 0, "dim_h_u": 0}

    def test_tolerances_echoed(self, files):
        code, report = run_cli(["--max-level", "32", "analyze", files["zero2"]])
        assert code == 0
        assert report["tolerances"]["max_level"] == 32

    def test_every_tolerance_has_a_flag(self, files):
        argv = []
        wanted = {}
        for f in dataclasses.fields(Tolerances):
            default = getattr(DEFAULT_TOL, f.name)
            wanted[f.name] = default * 2 if isinstance(default, int) else default / 2
            argv += ["--" + f.name.replace("_", "-"), str(wanted[f.name])]
        code, report = run_cli(argv + ["analyze", files["zero2"]])
        assert code == 0
        assert report["tolerances"] == wanted

    def test_u_plus_q_at_d32(self, tmp_path):
        t = generate(GenSpec(dim=32, kind="direct_sum_U_plus_Q", seed=4,
                             params={"unitary_dim": 12}))
        code, report = run_cli(["analyze", write_matrix(tmp_path / "m.json", t.mat)])
        assert code == 0
        assert report["parts"] == {"dim_h_i": 12, "dim_h_u": 12}


class TestPartAndArc:
    def test_part_member(self, files):
        code, report = run_cli(["part", files["J"], files["JZ"]])
        assert code == 0
        assert report["verdict"]["member"] is True
        assert report["verdict"]["z_norm"] == pytest.approx(0.5)

    def test_part_nonmember(self, files, tmp_path):
        swap = write_matrix(tmp_path / "swap.json", [[0, 1], [1, 0]])
        code, report = run_cli(["part", files["J"], swap])
        assert code == 1
        assert report["verdict"]["member"] is False

    def test_arc_connected_round_trips(self, files):
        code, report = run_cli(["arc", files["zero"], files["half"]])
        assert code == 0
        cert = report["certificate"]
        assert cert["bound"] <= np.arctanh(0.5) + 1e-6
        first = matrix_from_json(cert["arcs"][0]["coeffs"][0])
        assert first.shape == (1, 1)

    def test_arc_reports_each_hop_sup_norm(self, files):
        code, report = run_cli(["arc", files["J"], files["JZ"]])
        assert code == 0
        for arc in report["certificate"]["arcs"]:
            assert arc["method"] == "whitened"
            assert arc["sup_norm"] <= 1.0 + DEFAULT_TOL.contraction_slack

    def test_arc_hops_follow_psd_atol(self, files):
        a = write_matrix(files["tmp"] / "a.json", np.diag([1.0 - 1e-9, 0.3]))
        b = write_matrix(files["tmp"] / "b.json", np.diag([1.0, 0.8]))
        code, default = run_cli(["arc", a, b])
        assert code == 0
        code, wide = run_cli(["--psd-atol", "1e-8", "arc", a, b])
        assert code == 0
        assert wide["tolerances"]["psd_atol"] == 1e-8
        # the 1e-9 eigenvalue of P is a kernel direction under 1e-8, and the
        # direction's leak onto it shortens every hop
        assert len(wide["certificate"]["arcs"]) > 4 * len(default["certificate"]["arcs"])

    def test_arc_disconnected(self, files):
        code, report = run_cli(["arc", files["one"], files["half"]])
        assert code == 1
        assert report["status"] == "not_equivalent"


class TestSchurMember:
    def test_member(self, files, tmp_path):
        symbol = tmp_path / "F.json"
        coeffs = [matrix_to_json(np.array([[0, 1], [0, 0]], dtype=complex)),
                  matrix_to_json(np.array([[0, 0], [0.5, 0]], dtype=complex))]
        symbol.write_text(json.dumps({"coeffs": coeffs}))
        code, report = run_cli(["schur-member", files["J"], str(symbol)])
        assert code == 0
        assert report["verdict"]["member"] is True

    def test_identity_rejected(self, files, tmp_path):
        symbol = tmp_path / "ident.json"
        coeffs = [matrix_to_json(np.zeros((1, 1))), matrix_to_json(np.eye(1))]
        symbol.write_text(json.dumps({"coeffs": coeffs}))
        code, report = run_cli(["schur-member", files["zero"], str(symbol)])
        assert code == 1
        assert report["verdict"]["member"] is False


class TestGen:
    def test_single(self):
        code, report = run_cli(["gen", "--kind", "partial_isometry",
                                "--dim", "3", "--seed", "5"])
        assert code == 0
        m = matrix_from_json(report["matrix"])
        assert np.linalg.norm(m @ m.conj().T @ m - m, 2) < 1e-12

    def test_pair(self):
        code, report = run_cli(["gen", "--kind", "commuting_pair",
                                "--dim", "3", "--seed", "5"])
        assert code == 0
        a = matrix_from_json(report["pair"][0])
        b = matrix_from_json(report["pair"][1])
        assert np.linalg.norm(a @ b - b @ a, 2) < 1e-13

    def test_bad_kind(self):
        code, report = run_cli(["gen", "--kind", "nope", "--dim", "3"])
        assert code == 2
        assert "error" in report


class TestSuiteCommand:
    def test_passing_suite(self):
        code, report = run_cli(["suite", "--name", "scalar-constant"])
        assert code == 0
        assert report["suite"]["passed"] is True

    def test_unknown_suite(self):
        code, report = run_cli(["suite", "--name", "nope"])
        assert code == 2


class TestErrorsAndReproducibility:
    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, report = run_cli(["analyze", str(bad)])
        assert code == 2
        assert "error" in report

    def test_missing_file(self):
        code, report = run_cli(["analyze", "/nonexistent/m.json"])
        assert code == 2

    def test_bit_for_bit_reproducible(self, files):
        def run_raw(argv):
            buf = io.StringIO()
            old = sys.stdout
            sys.stdout = buf
            try:
                main(argv)
            finally:
                sys.stdout = old
            return buf.getvalue()

        argv = ["dominate", "--order", "harnack", files["half"], files["zero"]]
        assert run_raw(argv) == run_raw(argv)
        argv = ["gen", "--kind", "generic", "--dim", "4", "--seed", "9"]
        assert run_raw(argv) == run_raw(argv)
        argv = ["arc", files["J"], files["JZ"]]
        assert run_raw(argv) == run_raw(argv)

    def test_demo_stdout_is_reproducible(self):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}

        def demo():
            proc = subprocess.run([sys.executable, str(root / "scripts" / "demo.py")],
                                  capture_output=True, text=True, env=env, check=True)
            return proc.stdout

        first = demo()
        assert "$ contraction-lab analyze mix.json" in first
        assert first == demo()
