import json

import numpy as np
import pytest

from realflag import jordan
from realflag.catalog import build_pair
from realflag.cli import main
from realflag.jordan import EmbeddingError
from realflag.core import LieAlgebra, save_algebra
from realflag.realforms import get_algebra


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_pair_file(tmp_path, subalgebra):
    """so(1,2) in the interchange format plus a 'subalgebra' block."""
    path = tmp_path / "pair.json"
    save_algebra(get_algebra("so(1,2)"), path)
    doc = json.loads(path.read_text())
    doc["subalgebra"] = subalgebra
    path.write_text(json.dumps(doc))
    return path


class TestCheck:
    def test_spherical_pair_exits_zero(self, capsys):
        code, out = run(capsys, "check", "--pair", "sl2:a", "--samples", "8")
        assert code == 0
        assert "spherical" in out

    def test_expected_obstruction(self, capsys):
        code, out = run(capsys, "check", "--pair", "max:sp(1,2):so(1,2)+sp(1)",
                        "--samples", "4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "dimension-obstructed"
        assert doc["schema"] == 3

    def test_not_spherical_expectation_matches(self, capsys):
        code, out = run(capsys, "check", "--pair", "max:f4:su(2,1)+su(3)",
                        "--samples", "8", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "not-spherical-at-confidence"

    def test_unknown_pair_exits_two(self, capsys):
        code, _ = run(capsys, "check", "--pair", "nosuchpair")
        assert code == 2

    def test_json_deterministic(self, capsys):
        args = ("check", "--pair", "berger:so(1,3):so(1,1)+so(2)",
                "--samples", "8", "--seed", "3", "--json")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_cache_without_subalgebras_is_rebuilt(self, capsys, tmp_path, monkeypatch,
                                                  f4bundle):
        monkeypatch.setenv("REALFLAG_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(jordan, "_BUNDLE", None)
        path = tmp_path / "f4.json"
        jordan._save_bundle(f4bundle, path)
        doc = json.loads(path.read_text())
        del doc["subalgebras"]
        path.write_text(json.dumps(doc))
        malformed = path.read_bytes()
        # a pair outside f4 neither reads nor rebuilds the cache
        code, out = run(capsys, "check", "--pair", "sl2:a", "--samples", "8")
        assert code == 0
        assert "spherical" in out
        assert path.read_bytes() == malformed
        code, _ = run(capsys, "check", "--pair", "berger:f4:so(1,8)", "--samples", "8")
        assert code == 0
        assert "subalgebras" in json.loads(path.read_text())

    def test_pairs_outside_f4_never_load_f4(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("f4_bundle was called")

        monkeypatch.setattr(jordan, "f4_bundle", refuse)
        for argv in (["check", "--pair", "sl2:a"],
                     ["catalog"],
                     ["catalog", "--json", "--n", "5"],
                     ["orbits", "count", "--pair", "so13:ma"],
                     ["orbits", "coincide", "--pair", "so15:so11+su2", "--sup", "so15:so11+so4"],
                     ["reduce", "step", "--pair", "sl3:so3"]):
            code, _ = run(capsys, *argv, "--samples", "8")
            assert code == 0, argv

    def test_failed_symmetric_subalgebra_stops_the_build(self, monkeypatch):
        # theta's own involution: its fixed algebra is the compact so(9), not so(1,8)
        monkeypatch.setattr(jordan, "_H1_VEC", jordan._THETA_VEC)
        with pytest.raises(EmbeddingError, match=r"so\(1,8\).*\(0, 36\)"):
            jordan._build_bundle()

    def test_unclosed_cached_subalgebra_exits_three(self, capsys, tmp_path, monkeypatch,
                                                    f4bundle):
        monkeypatch.setenv("REALFLAG_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(jordan, "_BUNDLE", None)
        path = tmp_path / "f4.json"
        jordan._save_bundle(f4bundle, path)
        doc = json.loads(path.read_text())
        doc["subalgebras"]["so(1,8)"] = np.random.default_rng(0).standard_normal((36, 52)).tolist()
        path.write_text(json.dumps(doc))
        assert main(["check", "--pair", "berger:f4:so(1,8)", "--samples", "8"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: so(1,8): not closed") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_tampered_cache_is_rebuilt(self, capsys, tmp_path, monkeypatch, f4bundle):
        # one derivation entry moved by 1e-7 is a cache miss, not an algebra that later exits 3
        monkeypatch.setenv("REALFLAG_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(jordan, "_BUNDLE", None)
        path = tmp_path / "f4.json"
        jordan._save_bundle(f4bundle, path)
        doc = json.loads(path.read_text())
        doc["derivations"][7][100] += 1e-7
        path.write_text(json.dumps(doc))
        builds = []
        build = jordan._build_bundle
        monkeypatch.setattr(jordan, "_build_bundle", lambda: builds.append(1) or build())
        code, out = run(capsys, "check", "--pair", "max:f4:so(1,2)+g2", "--samples", "8")
        assert code == 0 and "not-spherical" in out
        assert builds == [1]
        rewritten = json.loads(path.read_text())["derivations"]
        assert np.array_equal(rewritten, f4bundle.derivations.reshape(52, -1))

    def test_pair_file(self, capsys, tmp_path):
        L = get_algebra("so(1,2)")
        k_basis = [[1.0 if lab == "R12" else 0.0 for lab in L.labels]]
        path = write_pair_file(tmp_path, k_basis)
        code, out = run(capsys, "check", "--pair", str(path), "--samples", "8")
        assert code == 0
        assert "spherical" in out

    def test_pair_file_without_a_realization(self, capsys, tmp_path):
        # structure constants and theta are all a check needs
        pd = build_pair("sl2:a")
        g = LieAlgebra(labels=pd.g.labels, theta=pd.g.theta, name="sl2",
                       structure=pd.g.bracket_tensor)
        path = tmp_path / "pair.json"
        save_algebra(g, path)
        doc = json.loads(path.read_text())
        assert "matrices" not in doc
        doc["subalgebra"] = pd.h.basis.tolist()
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "check", "--pair", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "spherical"
        assert len(report["witness"]) == 1

    @pytest.mark.parametrize("case", ["invalid-json", "non-object", "non-numeric-row"])
    def test_malformed_pair_file_exits_three(self, capsys, tmp_path, case):
        row = ["x", 0.0, 0.0] if case == "non-numeric-row" else [0.0, 0.0, 1.0]
        path = write_pair_file(tmp_path, [row])
        if case == "invalid-json":
            path.write_text(path.read_text()[:-1])
        elif case == "non-object":
            path.write_text(f"[{path.read_text()}]")
        assert main(["check", "--pair", str(path)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("case", ["infinite-bracket", "nan-theta"])
    def test_non_finite_pair_file_exits_three(self, capsys, tmp_path, case):
        path = write_pair_file(tmp_path, [[0.0, 0.0, 1.0]])
        text, doc = path.read_text(), json.loads(path.read_text())
        if case == "infinite-bracket":           # json.loads reads 1e999 as inf
            i, j, k, _ = doc["bracket"][0]
            text = text.replace(json.dumps(doc["bracket"][0]), f"[{i}, {j}, {k}, 1e999]", 1)
            assert "1e999" in text
        else:
            doc["theta"][0][0] = float("nan")    # json.dumps writes NaN
            text = json.dumps(doc)
        path.write_text(text)
        assert main(["check", "--pair", str(path)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "not finite" in err

    @pytest.mark.parametrize("tol", ["2", "0", "-0.5", "nan", "tight"])
    def test_tol_outside_unit_interval_is_a_usage_error(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--pair", "sl2:a", "--tol", tol])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--tol" in err.splitlines()[-1]

    @pytest.mark.parametrize("argv", [
        ["check", "--pair", "sl2:a", "--samples", "0"],
        ["check", "--pair", "sl2:a", "--samples", "1.5"],
        ["check", "--pair", "sl2:a", "--samples", "many"],
        ["orbits", "coincide", "--pair", "so15:so11+su2", "--sup", "so15:so11+so4",
         "--samples", "-2", "--json"],
    ], ids=["zero", "fraction", "word", "negative-coincide"])
    def test_samples_below_one_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--samples" in err.splitlines()[-1]


class TestCatalog:
    def test_table(self, capsys):
        code, out = run(capsys, "catalog")
        assert code == 0
        for needle in ("sl2:k", "sl2:a", "sl2:n", "berger:su(1,2):s(u(1,1)+u(1))",
                       "max:f4:su(2,1)+su(3)", "max:f4:so(1,2)+g2",
                       "max:sp(1,2):so(1,2)+sp(1)"):
            assert needle in out

    def test_berger_rows_bounded(self, capsys):
        code, out = run(capsys, "catalog", "--json")
        doc = json.loads(out)
        names = [e["name"] for e in doc["entries"]]
        for n in range(2, 5):
            for m in range(1, n):
                assert f"berger:so(1,{n}):so(1,{m})+so({n - m})" in names
                assert f"berger:sp(1,{n}):sp(1,{m})+sp({n - m})" in names
        assert "berger:so(1,5):so(1,1)+so(4)" in names

    def test_n_override(self, capsys):
        code, out = run(capsys, "catalog", "--json", "--n", "5")
        names = [e["name"] for e in json.loads(out)["entries"]]
        assert "berger:so(1,5):so(1,2)+so(3)" in names


class TestOrbits:
    @pytest.mark.parametrize("name,count", [("sl2:a", 4), ("sl2:n", 2), ("so13:ma", 3)])
    def test_count(self, capsys, name, count):
        code, out = run(capsys, "orbits", "count", "--pair", name, "--samples", "8", "--json")
        assert code == 0
        assert json.loads(out)["count"] == count

    def test_coincide(self, capsys):
        code, out = run(capsys, "orbits", "coincide", "--pair", "so15:so11+su2",
                        "--sup", "so15:so11+so4", "--samples", "8", "--json")
        assert code == 0
        assert json.loads(out)["coincide"] is True

    def test_reductive_pair_rejected_for_count(self, capsys):
        code, _ = run(capsys, "orbits", "count", "--pair", "berger:so(1,3):so(1,1)+so(2)",
                      "--samples", "4")
        assert code == 3

    def test_coincide_mismatch_exit(self, capsys):
        code, out = run(capsys, "orbits", "coincide", "--pair", "sl2^3:diag",
                        "--sup", "sl2^3:sl2^2", "--samples", "4", "--json")
        assert code == 1
        assert json.loads(out)["coincide"] is False


class TestReduce:
    def test_step(self, capsys):
        code, out = run(capsys, "reduce", "step", "--pair", "sl3:so3",
                        "--alpha", "0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["open"] is True and doc["dim_p_alpha"] == 6

    def test_translate(self, capsys):
        code, out = run(capsys, "reduce", "step", "--pair", "sl2^3:diag", "--alpha", "1",
                        "--translate", "--samples", "16", "--json")
        assert code == 0
        assert json.loads(out)["open"] is True

    def test_bad_alpha(self, capsys):
        code, _ = run(capsys, "reduce", "step", "--pair", "sl3:so3", "--alpha", "7")
        assert code == 2
