import dataclasses
import importlib
import json

import numpy as np
import pytest

import realflag
from realflag import catalog, jordan, spherical
from realflag.catalog import (_ALIASES, EXPECT_NOT_SPHERICAL, EXPECT_OBSTRUCTED,
                              EXPECT_SPHERICAL, CatalogEntry, build_pair, catalog_entries,
                              get_entry)
from realflag.cli import main
from realflag.linalg import brackets

from oracles import symmetric_involution


class TestEntries:
    def test_every_entry_has_legal_expectation(self):
        legal = {EXPECT_SPHERICAL, EXPECT_NOT_SPHERICAL, EXPECT_OBSTRUCTED}
        for e in catalog_entries():
            assert e.expected in legal
            assert e.status == "full"

    def test_every_recipe_builds_a_valid_subalgebra(self):
        for e in catalog_entries():
            pd = build_pair(e.name)
            pd.h.validate(1e-7)
            assert pd.g.name == pd.entry.ambient or pd.entry.ambient in ("f4",)

    def test_deterministic_order(self):
        names1 = [e.name for e in catalog_entries()]
        names2 = [e.name for e in catalog_entries()]
        assert names1 == names2

    def test_aliases(self):
        assert get_entry("so15:so11+su2").name == "ml:so(1,5):so(1,1)+su(2)"
        assert get_entry("so15:so11+so4").name == "berger:so(1,5):so(1,1)+so(4)"
        for alias, name in _ALIASES.items():
            assert get_entry(alias).name == name, alias

    @pytest.mark.parametrize("n_max", [4, 5])
    def test_get_entry_matches_listing(self, n_max):
        for e in catalog_entries(n_max):
            assert get_entry(e.name, n_max) == e, e.name

    @pytest.mark.parametrize("n_max", [2, 3, 4, 5, 6])
    def test_entry_names_are_unique(self, n_max):
        names = [e.name for e in catalog_entries(n_max)]
        assert len(names) == len(set(names))

    def test_n5_lists_the_so15_block_pair_once(self):
        names = [e.name for e in catalog_entries(5)]
        assert len(names) == 53
        assert names.count("berger:so(1,5):so(1,1)+so(4)") == 1
        assert "berger:so(1,5):so(1,1)+so(4)" in [e.name for e in catalog_entries(4)]

    def test_json_rows_hold_only_entry_fields(self, capsys):
        assert main(["catalog", "--json"]) == 0
        fields = {f.name for f in dataclasses.fields(CatalogEntry)}
        assert len(fields) == 7
        for row in json.loads(capsys.readouterr().out)["entries"]:
            assert set(row) == fields, row["name"]

    def test_f4_pairs_follow_the_current_bundle(self, monkeypatch):
        first = jordan.f4_bundle()
        # a second bundle object, as after f4_bundle(rebuild=True), without the solve
        monkeypatch.setattr(jordan, "_BUNDLE", jordan._load_bundle(jordan.cache_path()))
        assert jordan.f4_bundle() is not first
        pd = build_pair("max:f4:so(1,2)+g2")
        assert pd.g is pd.h.ambient is pd.P.algebra is jordan.f4_bundle().algebra

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_entry("berger:so(1,9):so(1,1)+so(8)")

    def test_expected_dims(self):
        expected_dims = {
            "berger:f4:so(1,8)": 36,
            "berger:f4:sp(1,2)+sp(1)": 24,
            "max:f4:su(2,1)+su(3)": 16,
            "max:f4:so(1,2)+g2": 17,
            "max:sp(1,2):so(1,2)+sp(1)": 6,
            "berger:su(1,2):s(u(1,1)+u(1))": 4,
            "berger:sp(1,2):u(1,2)": 9,
        }
        for name, dim in expected_dims.items():
            assert build_pair(name).h.dim == dim, name

    @pytest.mark.parametrize("name", [e.name for e in catalog_entries(5)
                                      if e.name.startswith("berger:")])
    def test_sigma_fixes_h(self, name):
        # every berger row is a symmetric pair: an involutive automorphism fixes h pointwise
        pd = build_pair(name, 5)
        sigma, c = symmetric_involution(pd), pd.g.bracket_tensor
        assert np.abs(sigma @ sigma - np.eye(pd.g.dim)).max() < 1e-9
        assert np.abs(c @ sigma.T - brackets(c, sigma.T, sigma.T)).max() < 1e-8
        assert np.abs(pd.h.basis @ sigma.T - pd.h.basis).max() < 1e-8

    @pytest.mark.parametrize("name", [e.name for e in catalog_entries(5)
                                      if e.name.split(":")[0] in ("berger", "ml", "max")
                                      and e.ambient != "f4"])
    def test_subalgebra_name_is_the_entry_suffix(self, name):
        # the recipes derive h's name from their blocks; it reaches the orbit reports
        assert build_pair(name, 5).h.name == name.split(":", 2)[2]


def _count_calls(monkeypatch, module_name: str, attr: str) -> list:
    """Replace ``attr`` of ``realflag.<module_name>`` at every binding in the realflag
    modules, as the benchmark's tracer does, with a wrapper that records each call."""
    calls, fn = [], getattr(importlib.import_module(f"realflag.{module_name}"), attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name in ("cli", "catalog", "spherical", "orbits", "reduction", "realforms", "jordan",
                 "core", "linalg"):
        mod = importlib.import_module(f"realflag.{name}")
        if getattr(mod, attr, None) is fn:
            monkeypatch.setattr(mod, attr, counted)
    if getattr(realflag, attr, None) is fn:
        monkeypatch.setattr(realflag, attr, counted)
    return calls


class TestBenchmarkBookkeeping:
    """The traced benchmark cross-checks one ``spherical.local_dim`` call per entry of
    ``per_sample_dims`` and one ``catalog.build_pair`` call per built entry; a change that
    batches samples or builds a pair twice fails here first."""

    @pytest.mark.parametrize("name", ["berger:su(1,3):so(1,3)", "max:f4:so(1,2)+g2"])
    def test_one_local_dim_per_sample_and_one_build_per_entry(self, name, monkeypatch):
        local_dim = _count_calls(monkeypatch, "spherical", "local_dim")
        built = _count_calls(monkeypatch, "catalog", "build_pair")
        pd = catalog.build_pair(name, 4)                 # the sweep worker's loop body
        rep = spherical.is_spherical(pd.g, pd.h, pd.P, samples=64, seed=0, pair_name=name)
        assert len(built) == 1 and len(local_dim) == len(rep.per_sample_dims)

    @pytest.mark.parametrize("name", ["berger:su(1,3):so(1,3)", "max:f4:so(1,2)+g2"])
    def test_one_local_dim_per_sample_of_a_check(self, name, monkeypatch, capsys):
        local_dim = _count_calls(monkeypatch, "spherical", "local_dim")
        built = _count_calls(monkeypatch, "catalog", "build_pair")
        main(["check", "--pair", name, "--json", "--seed", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert len(built) == 1 and len(local_dim) == len(doc["per_sample_dims"]) > 0
