import json
import tracemalloc

import pytest

from bundle_forge.bundles import WeightedProjector, projector_from_ket
from bundle_forge.cli import build_projector, run
from bundle_forge.exact_ring import XPoly, ZPoly
from bundle_forge.kets import monopole_ket


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChernCommand:
    def test_exact_positive_charge(self, capsys):
        code, out, _ = invoke(capsys, "chern", "--family", "monopole", "--charge", "3")
        assert code == 0
        assert "c1 = 3" in out
        assert "representation label -3" in out

    def test_exact_negative_charge(self, capsys):
        code, out, _ = invoke(capsys, "chern", "--family", "monopole", "--charge", "-3")
        assert code == 0
        assert "c1 = -3" in out
        assert "representation label +3" in out

    def test_tilde(self, capsys):
        code, out, _ = invoke(capsys, "chern", "--family", "tilde")
        assert code == 0
        assert "c1 = 2" in out

    def test_quad_backend(self, capsys):
        code, out, _ = invoke(
            capsys, "chern", "--family", "monopole", "--charge", "1",
            "--backend", "quad", "--grid", "16x32", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["backend"] == "quad"
        assert abs(data["c1"] - 1.0) < 1e-9

    def test_charge_guard(self, capsys):
        code, _, err = invoke(capsys, "chern", "--family", "monopole", "--charge", "99")
        assert code == 2
        assert "charge out of range" in err

    def test_bad_grid(self, capsys):
        code, out, err = invoke(
            capsys, "chern", "--family", "monopole", "--charge", "1",
            "--backend", "quad", "--grid", "huge",
        )
        assert code == 2 and not out
        assert "grid" in err

    def test_charge_is_monopole_only(self, capsys):
        for command in ("build", "chern"):
            for family in ("tilde", "normal", "tangent", "realform"):
                code, out, err = invoke(capsys, command, "--family", family, "--charge", "5")
                assert code == 2 and not out
                assert "--charge applies only to --family monopole" in err
        code, out, _ = invoke(capsys, "chern", "--family", "monopole")
        assert code == 0
        assert "c1 = 1" in out

    def test_quad_zero_is_unsigned(self, capsys):
        for argv in (
            ("--family", "normal"),
            ("--family", "tangent"),
            ("--family", "realform"),
            ("--family", "monopole", "--charge", "0"),
        ):
            code, out, _ = invoke(capsys, "chern", *argv, "--backend", "quad", "--grid", "16x32")
            assert code == 0
            assert out.splitlines()[-1] == "c1 = 0.0"

    def test_grid_axis_cap(self, capsys):
        for grid in ("8x9999999999999", "9999999999999x8"):
            code, _, err = invoke(
                capsys, "chern", "--family", "monopole", "--backend", "quad", "--grid", grid,
            )
            assert code == 2
            assert "grid axes must be at most 1024" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "chern", "--family", "monopole", "--wat")
        assert code == 2

    def test_fd_is_quad_only(self, capsys):
        code, out, err = invoke(capsys, "chern", "--family", "tilde", "--fd")
        assert code == 2 and not out
        assert "error: --fd and --grid apply only to --backend quad" in err

    def test_grid_is_quad_only(self, capsys):
        code, out, err = invoke(capsys, "chern", "--family", "tilde", "--grid", "8x8", "--json")
        assert code == 2 and not out
        assert "error: --fd and --grid apply only to --backend quad" in err

    def test_report_json(self, capsys):
        code, out, _ = invoke(capsys, "chern", "--family", "tilde", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["c1"] == "2"
        assert data["backend"] == "exact"
        assert data["axioms"]["idempotent"] is True


class TestBuildCommand:
    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(
            capsys, "build", "--family", "monopole", "--charge", "2", "--json"
        )
        assert code == 0
        loaded = WeightedProjector.from_json(json.loads(out))
        reference = projector_from_ket(monopole_ket("minus", 2))
        assert loaded.weights == reference.weights
        assert loaded.core == reference.core

    def test_text_output(self, capsys):
        code, out, _ = invoke(capsys, "build", "--family", "tangent")
        assert code == 0
        assert "p_tan: 3x3" in out
        assert "core[0][0]" in out

    def test_all_families(self, capsys):
        for family in ("monopole", "tilde", "normal", "tangent", "realform"):
            code, out, _ = invoke(capsys, "build", "--family", family)
            assert code == 0, (family, out)


class TestVerifyCommand:
    def test_isometry_suite(self, capsys):
        # the whole text: five verdicts, so a dropped or renamed check shows
        code, out, _ = invoke(capsys, "verify", "--suite", "isometry")
        assert code == 0
        assert out == (
            "u+u = p_tan: PASS; uu+ = (p~[-2])^R: PASS\n"
            "u V_1 = W_1: PASS\n"
            "u V_2 = W_2: PASS\n"
            "u V_3 = W_3: PASS\n"
            "ALL PASS\n"
        )

    def test_axioms_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "axioms", "--max-charge", "2")
        assert code == 0
        assert "FAIL" not in out

    def test_curvature_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "curvature", "--max-charge", "8")
        assert code == 0
        lines = out.splitlines()
        passes = [line for line in lines if line.endswith("PASS") and line != "ALL PASS"]
        assert len(passes) == 17
        assert all("exact" in line for line in passes)
        assert lines[-1] == "ALL PASS"

    def test_tangent_suite(self, capsys):
        # the whole text: six verdicts, so a dropped or renamed check shows
        code, out, _ = invoke(capsys, "verify", "--suite", "tangent")
        assert code == 0
        assert out == (
            "tangent p_tan = 1 - p_nor (by construction, axioms): PASS\n"
            "tangent p_tan = sum |V_l><V_l|: PASS\n"
            "tangent (p~[-2])^R = sum |W_l><W_l|: PASS\n"
            "tangent (p_tan)_kl = <V_k|V_l>: PASS\n"
            "tangent Chern form of p_nor is 0: PASS\n"
            "tangent Chern form of p_tan is 0: PASS\n"
            "ALL PASS\n"
        )

    def test_gauge_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "gauge", "--seed", "1")
        assert code == 0
        assert "signed-permutation" in out

    def test_gauge_suite_evaluates_the_ket_once(self, capsys, monkeypatch):
        """The 20 random-g quadratures share one table of the Hopf-section
        ket: one ZPoly.evaluate per run, and no XPoly.evaluate."""
        calls = {XPoly: 0, ZPoly: 0}
        for ring in calls:
            def counted(self, *args, _original=ring.evaluate, _ring=ring, **kwargs):
                calls[_ring] += 1
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(ring, "evaluate", counted)
        code, out, _ = invoke(capsys, "verify", "--suite", "gauge", "--seed", "7")
        assert code == 0 and out.count("random g trial") == 20
        assert calls == {XPoly: 0, ZPoly: 1}

    def test_gauge_suite_memory(self, capsys):
        """The suite's tracemalloc peak stays within 2 MiB of the 2.05 MiB it
        took with one ket evaluation per trial (Python 3.11, numpy 2.4): the
        shared table adds its conjugates, not a table per trial."""
        invoke(capsys, "verify", "--suite", "gauge")  # fills the caches
        tracemalloc.start()
        try:
            code, _, _ = invoke(capsys, "verify", "--suite", "gauge")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < (2.05 + 2.0) * 2**20

    def test_max_charge_guard(self, capsys):
        # a negative max charge used to skip every monopole and print ALL PASS
        for value in ("99", "17", "-3", "-1"):
            code, out, err = invoke(capsys, "verify", "--suite", "axioms", "--max-charge", value)
            assert code == 2, value
            assert "ALL PASS" not in out
            assert "charge out of range" in err

    def test_negative_seed(self, capsys):
        # used to end in a numpy ValueError traceback with exit 1, the code of
        # a verification failure
        code, out, err = invoke(capsys, "verify", "--suite", "gauge", "--seed", "-1")
        assert code == 2 and not out
        assert err.startswith("error: ") and "--seed" in err


class TestConnectionCommand:
    def test_charge_one(self, capsys):
        code, out, _ = invoke(capsys, "connection", "--charge", "1")
        assert code == 0
        assert "A = " in out
        assert "dzb0" in out and "dzb1" in out


class TestGaugeCommand:
    def test_diagonal_gauge(self, capsys, tmp_path):
        g_file = tmp_path / "g.json"
        g_file.write_text(json.dumps({
            "n": 2,
            "entries": [
                [{"re": 2.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
                [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
            ],
        }))
        code, out, _ = invoke(
            capsys, "gauge", "--charge", "1", "--g-file", str(g_file),
            "--grid", "16x16",
        )
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("c1(quad, gauged)")][0]
        assert abs(float(line.split("=")[1]) - 1.0) < 1e-4

    @pytest.mark.parametrize("scale", [1e-170, 1e155])
    def test_scaled_gauge(self, capsys, tmp_path, scale):
        # g and c g give the same gauged projector; at these scales the
        # charge-16 matrix of the gauge smoke run used to end in an
        # OverflowError traceback (exit 1) or a pointwise norm defect
        n = 17
        entries = [
            [{"re": scale} if j == k else {"re": 0.3 * scale, "im": 0.2 * scale} if j < k
             else {"re": 0.3 * scale} for k in range(n)]
            for j in range(n)
        ]
        g_file = tmp_path / "g.json"
        g_file.write_text(json.dumps({"n": n, "entries": entries}))
        code, out, err = invoke(capsys, "gauge", "--charge", "16", "--g-file", str(g_file))
        assert code == 0 and not err
        line = [l for l in out.splitlines() if l.startswith("c1(quad, gauged)")][0]
        assert abs(float(line.split("=")[1]) - 16.0) < 1e-4

    def test_malformed_file(self, capsys, tmp_path):
        # "n": 2.9 used to be read as 2 and "n": true as 1; an entry
        # {"re": true} used to be read as 1 and {"re": "1e0"} as 1.0
        g_file = tmp_path / "g.json"
        entries = [[{"re": 1.0}, {"re": 0.0}], [{"re": 0.0}, {"re": 1.0}]]
        bad_entries = [
            [[bad, {"re": 0.0}], [{"re": 0.0}, {"re": 1.0}]]
            for bad in (
                {"re": True}, {"re": False}, {"re": "1e0"}, {"re": 1.0, "im": True},
                {"re": "1e0", "im": True}, {"re": None}, {"re": [1.0]}, {"im": 1.0},
                {"re": 10**400}, [1.0, 0.0], 1.0,
            )
        ]
        for text in ["{not json"] + [
            json.dumps({"n": n, "entries": entries}) for n in (2.9, "2", True)
        ] + [json.dumps({"n": 2, "entries": e}) for e in bad_entries]:
            g_file.write_text(text)
            code, out, err = invoke(capsys, "gauge", "--charge", "1", "--g-file", str(g_file))
            assert code == 2 and not out, text
            assert err.startswith("error: malformed gauge file"), text

    def test_dimension_mismatch(self, capsys, tmp_path):
        g_file = tmp_path / "g.json"
        g_file.write_text(json.dumps({
            "n": 2,
            "entries": [[{"re": 1.0}, {"re": 0.0}], [{"re": 0.0}, {"re": 1.0}]],
        }))
        code, _, err = invoke(capsys, "gauge", "--charge", "2", "--g-file", str(g_file))
        assert code == 2
        assert "3x3" in err

    def test_singular_gauge(self, capsys, tmp_path):
        # used to end in a ValueError traceback with exit 1
        g_file = tmp_path / "g.json"
        g_file.write_text(json.dumps({
            "n": 2,
            "entries": [[{"re": 1.0}, {"re": 0.0}], [{"re": 0.0}, {"re": 0.0}]],
        }))
        code, out, err = invoke(capsys, "gauge", "--charge", "1", "--g-file", str(g_file))
        assert code == 2 and not out
        assert err.startswith("error: ") and "singular" in err

    def test_non_finite_entries(self, capsys, tmp_path):
        # a "nan" entry used to end in a numpy LinAlgError traceback
        g_file = tmp_path / "g.json"
        for bad in ({"re": "nan"}, {"re": 1.0, "im": "inf"}, {"re": float("-inf")}):
            g_file.write_text(json.dumps({
                "n": 2,
                "entries": [[bad, {"re": 0.0}], [{"re": 0.0}, {"re": 1.0}]],
            }))
            code, out, err = invoke(capsys, "gauge", "--charge", "1", "--g-file", str(g_file))
            assert code == 2 and not out, bad
            assert err.startswith("error: malformed gauge file") and "finite" in err, bad


class TestIntegrateCommand:
    def test_even_monomial(self, capsys):
        code, out, _ = invoke(capsys, "integrate", "--monomial", "2,0,0",
                              "--mc-samples", "100000")
        assert code == 0
        assert "exact: (1/3)*4pi" in out
        assert "monte-carlo" in out

    def test_mc_samples_floor(self, capsys):
        # fewer than 10^4 samples used to print "nan +/- nan" with exit 0
        for value in ("0", "1", "9999"):
            code, out, err = invoke(capsys, "integrate", "--monomial", "2,0,0",
                                    "--mc-samples", value)
            assert code == 2, value
            assert "nan" not in out
            assert "samples" in err

    def test_mc_samples_cap(self, capsys):
        # rejected before anything is allocated; used to end in a numpy
        # memory error traceback with exit 1
        for value in ("10000000000000", str(10**12)):
            code, out, err = invoke(capsys, "integrate", "--monomial", "2,0,0",
                                    "--mc-samples", value)
            assert code == 2 and not out, value
            assert "at most 10000000" in err

    def test_bad_monomial(self, capsys):
        code, _, err = invoke(capsys, "integrate", "--monomial", "2,-1,0")
        assert code == 2
        assert "monomial" in err
        # beyond the exact rings' degree bound: an input error, not a traceback
        code, _, err = invoke(capsys, "integrate", "--monomial", "100,20,8")
        assert code == 2
        assert "degree" in err

    def test_negative_seed(self, capsys):
        # used to blame --mc-samples
        code, out, err = invoke(capsys, "integrate", "--monomial", "2,0,0", "--seed", "-1")
        assert code == 2 and not out
        assert err.startswith("error: ") and "--seed" in err and "mc-samples" not in err

    def test_deterministic_output(self, capsys):
        args = ("integrate", "--monomial", "2,2,0", "--mc-samples", "50000",
                "--seed", "9")
        code1, out1, _ = invoke(capsys, *args)
        code2, out2, _ = invoke(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestBuildProjectorHelper:
    def test_labels(self):
        assert build_projector("monopole", 2).label == "p[-2]"
        assert build_projector("monopole", -2).label == "p[+2]"
        assert build_projector("monopole", 0).label == "p[0]"
        assert build_projector("realform", 0).label == "(p~[-2])^R"
