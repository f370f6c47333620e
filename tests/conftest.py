import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from realflag.catalog import build_pair, _parabolic_for
from realflag.realforms import get_algebra


@pytest.fixture(scope="session", autouse=True)
def _f4_cache_dir(tmp_path_factory):
    """Keep the f4 disk cache inside the session, away from the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REALFLAG_CACHE_DIR", str(tmp_path_factory.mktemp("f4-cache")))
        yield


@pytest.fixture
def pivot_searches(monkeypatch):
    """Every algebra whose pivot entries are searched during the test, once per search."""
    from realflag.core import LieAlgebra
    prop, searched = LieAlgebra.__dict__["_pivots"], []
    search = prop.func
    monkeypatch.setattr(prop, "func", lambda L: searched.append(L) or search(L))
    return searched


@pytest.fixture(scope="session")
def sl2():
    return get_algebra("sl2")


@pytest.fixture(scope="session")
def so14():
    return get_algebra("so(1,4)")


@pytest.fixture(scope="session")
def su12():
    return get_algebra("su(1,2)")


@pytest.fixture(scope="session")
def sp12():
    return get_algebra("sp(1,2)")


@pytest.fixture(scope="session")
def f4bundle():
    from realflag.jordan import f4_bundle
    return f4_bundle()


@pytest.fixture(scope="session")
def pair():
    """Catalog pair builder (parabolics cached per ambient)."""
    return build_pair


@pytest.fixture(scope="session")
def parabolic_of():
    return _parabolic_for
