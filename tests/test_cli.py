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
from contraction_lab.suites import partial_isometry_pairs


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
        "flip": write_matrix(tmp_path / "flip.json", [[0, 1], [1, 0]]),
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

    def test_harnack_fejer_witness(self, tmp_path):
        # case 5 of the criterion-4 construction: w + Z is unitary (d = 2)
        w, b = next((w, cands[-1][1]) for i, w, _, cands in partial_isometry_pairs()
                    if i == 5)
        argv = ["dominate", "--order", "harnack",
                write_matrix(tmp_path / "w.json", w.mat),
                write_matrix(tmp_path / "b.json", b.mat)]
        code, report = run_cli(argv)
        assert code == 1
        verdict = report["verdict"]
        assert verdict["status"] == "NotDominated" and verdict["method"] == "fejer"
        assert verdict["levels"] == [1]
        y = np.array(verdict["witness"]["re"]) + 1j * np.array(verdict["witness"]["im"])
        mu = y.conj() @ b.mat @ y
        assert abs(abs(mu) - 1.0) <= 1e-12
        assert np.linalg.norm(b.mat @ y - mu * y) <= 1e-12

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
        assert report["asymptotic"] == {"idempotent": True, "dim_null": 2, "dim_fixed": 0}

    def test_split_failure_exits_3(self, tmp_path):
        # an eigenvalue inside the clamp whose eigenvector does not reduce T
        gap = 0.5 * DEFAULT_TOL.psd_atol
        m = [[np.sqrt(1.0 - gap), np.sqrt(gap / 4.0)], [0.0, 0.3]]
        code, report = run_cli(["analyze", write_matrix(tmp_path / "m.json", m)])
        assert code == 3
        assert "do not reduce" in report["error"]

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

    def test_part_of_a_strict_partial_isometry(self, files):
        # 1 - 1e-9 is outside the clamp, so the chart of diag(1 - 1e-9, 0)
        # has no kernel and the strict candidate is a member
        w = write_matrix(files["tmp"] / "w.json", np.diag([1.0 - 1e-9, 0.0]))
        c = write_matrix(files["tmp"] / "c.json", np.diag([0.5, 0.0]))
        code, report = run_cli(["part", w, c])
        assert code == 0
        assert report["verdict"]["member"] is True
        assert report["verdict"]["residual"] == 0.0

    def test_part_of_any_contraction(self, files):
        w = write_matrix(files["tmp"] / "w.json", np.diag([0.5, 0.0]))
        c = write_matrix(files["tmp"] / "c.json", np.diag([0.9, 0.3]))
        code, report = run_cli(["part", w, c])
        assert code == 0
        assert report["verdict"]["member"] is True
        code, report = run_cli(["part", w, files["flip"]])
        assert code == 1
        assert report["verdict"]["member"] is False

    def test_part_at_a_coarse_rank_cut(self, files):
        # the 1 x 2 W = [[sqrt(1 - 1e-9), 0]] has its root 3.2e-5 under the
        # rank cut 1e-4 on both sides, so its chart has a 1 x 1 W block
        w = write_matrix(files["tmp"] / "w.json", [[np.sqrt(1.0 - 1e-9), 0.0]])
        c = write_matrix(files["tmp"] / "c.json", [[0.5, 0.0]])
        code, report = run_cli(["--rank-rtol", "1e-4", "part", w, c])
        assert code in (0, 1) and "verdict" in report

    def test_arc_connected_round_trips(self, files):
        code, report = run_cli(["arc", files["zero"], files["half"]])
        assert code == 0
        cert = report["certificate"]
        assert cert["bound"] == pytest.approx(np.arctanh(0.5), abs=1e-13)
        (arc,) = cert["arcs"]
        v = matrix_from_json(arc["v"])
        assert v.shape == (1, 1) and arc["z"] == [0.0]
        # lambda0 V = phi_0(0.5) = 0.5 in the chart bases
        assert abs(arc["lambda"]["re"] * v[0, 0]) == pytest.approx(0.5, abs=1e-15)

    def test_arc_reports_the_mobius_data(self, files):
        code, report = run_cli(["arc", files["J"], files["JZ"]])
        assert code == 0
        (arc,) = report["certificate"]["arcs"]
        assert arc["method"] == "mobius"
        assert arc["sup_norm"] <= 1.0 + DEFAULT_TOL.contraction_slack
        assert arc["z"] == [0.0]
        assert report["certificate"]["endpoint_residuals"][0] == 0.0

    def test_arc_follows_psd_atol(self, files):
        a = write_matrix(files["tmp"] / "a.json", np.diag([1.0 - 1e-9, 0.3]))
        b = write_matrix(files["tmp"] / "b.json", np.diag([1.0, 0.8]))
        # under the default psd_atol e1 is in the chart of a, where b's
        # norm-one entry is on the boundary of the chart ball: the arc in the
        # chart of b is run backwards, and the 1e-9 gap is the start residual
        code, default = run_cli(["arc", a, b])
        assert code == 0
        (arc,) = default["certificate"]["arcs"]
        assert arc["z"] == [0.8] and arc["pivot"] == arc["lambda"]["re"]
        assert default["certificate"]["endpoint_residuals"][0] == pytest.approx(1e-9, rel=1e-6)
        # under 1e-8 e1 is in the W block, and b's 1e-9 gap there is left
        # as the endpoint residual
        code, wide = run_cli(["--psd-atol", "1e-8", "arc", a, b])
        assert code == 0
        assert wide["tolerances"]["psd_atol"] == 1e-8
        assert wide["certificate"]["arcs"][0]["z"] == [0.3]
        assert wide["certificate"]["arcs"][0]["pivot"] is None
        assert wide["certificate"]["endpoint_residuals"][1] == pytest.approx(1e-9, rel=1e-6)

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
        assert report["verdict"]["sup_method"] == "whitened"

    def test_identity_rejected(self, files, tmp_path):
        symbol = tmp_path / "ident.json"
        coeffs = [matrix_to_json(np.zeros((1, 1))), matrix_to_json(np.eye(1))]
        symbol.write_text(json.dumps({"coeffs": coeffs}))
        code, report = run_cli(["schur-member", files["zero"], str(symbol)])
        assert code == 1
        assert report["verdict"]["member"] is False

    def test_part_of_any_constant(self, files, tmp_path):
        w = write_matrix(tmp_path / "w.json", np.diag([0.5, 0.0]))
        for scale, code_wanted in ((0.5, 0), (1.0, 1)):
            symbol = tmp_path / "F.json"
            coeffs = [matrix_to_json(np.diag([0.5, 0.0])),
                      matrix_to_json(scale * np.eye(2) - np.diag([0.5, 0.0]))]
            symbol.write_text(json.dumps({"coeffs": coeffs}))
            code, report = run_cli(["schur-member", w, str(symbol)])
            assert code == code_wanted
            assert report["verdict"]["member"] is (code_wanted == 0)

    def test_spent_budget_is_reported(self, files, tmp_path):
        # F0 = lam^2 diag(1, 0.5) in the part of the zero operator: its norm
        # is flat at 1, and its grid spends the split budget
        symbol = tmp_path / "flat.json"
        coeffs = [matrix_to_json(np.zeros((2, 2)))] * 2 + [matrix_to_json(np.diag([1.0, 0.5]))]
        symbol.write_text(json.dumps({"coeffs": coeffs}))
        code, report = run_cli(["schur-member", files["zero2"], str(symbol)])
        assert code == 1
        assert report["verdict"]["sup_method"] == "grid-budget"
        assert report["verdict"]["sup_norm"] > 1.0


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
        argv = ["dominate", "--order", "harnack", files["J"], files["flip"]]
        assert '"fejer"' in run_raw(argv) and run_raw(argv) == run_raw(argv)
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
