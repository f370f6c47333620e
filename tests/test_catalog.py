import dataclasses
import json

import numpy as np
import pytest

from realflag import jordan
from realflag.catalog import (_ALIASES, EXPECT_NOT_SPHERICAL, EXPECT_OBSTRUCTED,
                              EXPECT_SPHERICAL, CatalogEntry, build_pair, catalog_entries,
                              get_entry)
from realflag.cli import main


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
        # the stored involution fixes the symmetric subalgebra pointwise
        pd = build_pair(name, 5)
        assert pd.sigma is not None
        moved = pd.h.basis @ pd.sigma.T
        assert np.abs(moved - pd.h.basis).max() < 1e-8

    @pytest.mark.parametrize("name", [e.name for e in catalog_entries(5)
                                      if e.name.split(":")[0] in ("berger", "ml", "max")
                                      and e.ambient != "f4"])
    def test_subalgebra_name_is_the_entry_suffix(self, name):
        # the recipes derive h's name from their blocks; it reaches the orbit reports
        assert build_pair(name, 5).h.name == name.split(":", 2)[2]
