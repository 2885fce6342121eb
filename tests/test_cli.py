import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import conespec
from conespec.cli import main


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestSpectrum:
    def test_octant_table(self):
        code, out = run(["spectrum", "T(3)", "--bc", "dirichlet", "--max-nu", "9"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["k", "nu", "multiplicity", "lambda"]
        rows = [line.split() for line in lines[1:]]
        assert [(r[1], r[2], r[3]) for r in rows] == [
            ("3", "1", "12"),
            ("5", "2", "30"),
            ("7", "3", "56"),
            ("9", "4", "90"),
        ]

    def test_csv_schema_and_round_trip(self):
        code, out = run(["spectrum", "HalfSphere(3)", "--format", "csv", "--max-nu", "6"])
        assert code == 0
        assert "\r" not in out
        reader = csv.DictReader(io.StringIO(out))
        assert reader.fieldnames == ["k", "nu", "multiplicity", "lambda"]
        rows = list(reader)
        assert len(rows) == 6
        for k, row in enumerate(rows, start=1):
            nu = float(row["nu"])
            assert int(row["k"]) == k
            assert float(row["multiplicity"]) == nu
            assert float(row["lambda"]) == nu * (nu + 1)
            # 12-significant-digit formatting is reproduced exactly
            assert format(float(row["nu"]), ".12g") == row["nu"]
            assert format(float(row["lambda"]), ".12g") == row["lambda"]

    def test_json_flat_rows(self):
        code, out = run(["spectrum", "Sphere(2)", "--format", "json", "--max-nu", "2"])
        assert code == 0
        rows = json.loads(out)
        assert rows[0] == {"k": 1, "nu": 0.0, "multiplicity": 1, "lambda": 0.0}
        assert set(rows[1]) == {"k", "nu", "multiplicity", "lambda"}

    def test_neumann(self):
        code, out = run(
            ["spectrum", "T0", "--bc", "neumann", "--format", "csv", "--max-nu", "3"]
        )
        assert code == 0
        assert out.splitlines()[1] == "1,0,1,0"  # nu = 0 constant mode


class TestExitCodes:
    def test_parse_error_is_2(self):
        code, _ = run(["spectrum", "T(3"])
        assert code == 2

    def test_bad_argument_is_2(self):
        code, _ = run(["spectrum", "Arc(9.0)"])
        assert code == 2

    def test_unsupported_is_4(self):
        code, _ = run(["spectrum", "Cap(theta=pi/3)"])
        assert code == 4

    def test_ok_is_0(self):
        code, _ = run(["size", "S0"])
        assert code == 0

    def test_zero_denominator_is_2(self):
        code, _ = run(["spectrum", "Arc(pi/0)"])
        assert code == 2

    def test_sector_angles_out_of_range_are_2(self):
        for expr in ("Sector(theta=4, phi=9)", "Sector(theta=pi/3, phi=7)"):
            code, _ = run(["coeffs", expr])
            assert code == 2, expr

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["spectrum", "(" * 101 + "S0" + ")" * 101], 2),  # RecursionError past ~500
            (["size", "Sphere(1e400/1e400)"], 2),  # NaN dimension
            (["size", "Sphere(20000)"], 2),
            (["coeffs", "Cap(theta=1e-9)"], 0),  # its area was 0
            (["coeffs", "Cap(theta=1e-200)"], 3),
            (["coeffs", "Arc(5e-324) * T0"], 3),
            (["spectrum", "Arc(1e-308)", "--bc", "neumann"], 3),  # pi / angle is inf
        ],
    )
    def test_found_by_fuzzing(self, argv, code):
        assert run(argv)[0] == code

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--target", "RegularT(3, rho=0.5)", "--reference", "T(3)",
             "--modes", "-3"],
            ["estimate", "--target", "RegularT(3, rho=0.5)", "--reference", "T(3)",
             "--modes", "0"],
            ["spectrum", "T(3)", "--max-nu", "nan"],
            ["spectrum", "T(3)", "--max-nu", "inf"],
            ["spectrum", "T(3)", "--max-nu", "0"],
        ],
    )
    def test_bad_option_value_is_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


class TestEstimate:
    def test_paper_example(self):
        code, out = run(
            [
                "estimate",
                "--target",
                "RegularT(3, rho=0.5)",
                "--reference",
                "T(3)",
                "--method",
                "linear",
                "--modes",
                "1",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["lambda"]) == pytest.approx(5.162, abs=2e-3)

    def test_multiplicity_grouping(self):
        code, out = run(
            [
                "estimate",
                "--target",
                "HalfSphere(3)",
                "--reference",
                "T(3)",
                "--modes",
                "3",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        # reference degrees 3, 5, 5 -> estimates 1, 2, 2 grouped
        assert [int(r["multiplicity"]) for r in rows] == [1, 2]


class TestSizeAndCoeffs:
    def test_regular_t4_half(self):
        code, out = run(["size", "RegularT(4, rho=0.5)"])
        assert code == 0
        assert float(out) == pytest.approx(2 * math.pi**2 / 5, rel=1e-8)

    def test_coeffs_octant(self):
        code, out = run(["coeffs", "T(3)"])
        assert code == 0
        got = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(got["area"]) == pytest.approx(math.pi / 2, rel=1e-10)
        assert float(got["gamma"]) == pytest.approx(3.0, rel=1e-12)
        assert float(got["c0"]) == pytest.approx(0.25, rel=1e-12)
        assert float(got["p"]) == pytest.approx(-1.0, rel=1e-12)
        assert set(got) == {
            "n", "area", "boundary", "c0", "c1", "gamma",
            "a0", "a1", "a2", "b0", "b1", "b2", "p", "q",
        }

    @pytest.mark.parametrize(
        "expr, a2",
        [
            ("Arc(pi/2)*Arc(pi/2)", "8.63590385095"),  # T(4)
            ("T(4)", "8.63590385095"),
            ("Cap(theta=pi/3)*T0", "8.38599923544"),
            ("RegularT(4, rho=0.5)", "8.72169228861"),
        ],
    )
    def test_coeffs_a2_with_all_corners(self, expr, a2):
        code, out = run(["coeffs", expr])
        assert code == 0
        assert f"a2 = {a2}\n" in out


def run_fresh(argv):
    """Exit code of a fresh `python -m conespec.cli` run, killed after 10 s."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(conespec.__file__))  # the code under test
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "conespec.cli", *argv],
        env=env, capture_output=True, timeout=10,
    ).returncode


class TestTermination:
    def test_huge_cutoff_is_refused(self):
        assert run_fresh(["spectrum", "T(3)", "--max-nu", "1e9"]) == 3

    def test_thin_arc_reference_is_refused(self):
        # its first degree pi / angle is infinite, so the cutoff doubled forever
        argv = ["estimate", "--target", "Arc(1e-308) * T0", "--reference", "Arc(1e-308) * T0"]
        assert run_fresh(argv) == 3

    def test_tiny_cap_neumann_quadratic(self):
        argv = ["estimate", "--target", "Cap(theta=0.0001)", "--reference", "HalfSphere(3)",
                "--bc", "neumann", "--method", "quadratic", "--modes", "2"]
        assert run_fresh(argv) == 0


class TestVerifyAndPaper:
    def test_verify_all_passes(self):
        code, out = run(["verify", "--suite", "all"])
        assert code == 0
        assert "FAIL" not in out

    def test_verify_single_suite(self):
        code, out = run(["verify", "--suite", "functional"])
        assert code == 0
        assert "[functional]" in out

    def test_paper_reproduction(self):
        code, out = run(["paper"])
        assert code == 0
        assert "FAIL" not in out
        assert "tetrahedral" in out

    def test_paper_csv(self):
        code, out = run(["paper", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["status"] == "pass" for r in rows)
        assert len(rows) == 12
