"""Numerical toolkit for real semisimple Lie algebras: sphericality testing
by generic rank sampling, flag-manifold orbit decomposition for rank-one
subalgebras, and the octonionic construction of the noncompact f4."""

from .core import (LieAlgebra, Subalgebra, cartan_decomposition, load_algebra, save_algebra,
                   subalgebra)
from .linalg import numeric_rank
from .realforms import (build_classical, build_sl, get_algebra, minimal_parabolic,
                        restricted_roots)
from .spherical import SphericityReport, is_spherical, local_dim

# served from their modules on first use, so that importing the package loads neither
# jordan (nor the hashlib that keys the f4 cache) nor orbits and reduction
_LAZY_NAMES = {
    **dict.fromkeys(("build_g2", "cone_point"), "jordan"),
    **dict.fromkeys(("bruhat_cell_of", "nonreductive_orbit_count", "normalize_nonreductive",
                     "orbit_dim_at", "symmetric_coincidence"), "orbits"),
    **dict.fromkeys(("induced_pair", "parabolic_alpha"), "reduction"),
}


def __getattr__(name):
    if name in _LAZY_NAMES:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "LieAlgebra", "Subalgebra", "SphericityReport",
    "bruhat_cell_of", "build_classical", "build_g2", "build_sl", "cartan_decomposition",
    "cone_point", "get_algebra", "induced_pair", "is_spherical",
    "load_algebra", "local_dim", "minimal_parabolic", "nonreductive_orbit_count",
    "normalize_nonreductive", "numeric_rank", "orbit_dim_at", "parabolic_alpha",
    "restricted_roots", "save_algebra", "subalgebra", "symmetric_coincidence",
]

__version__ = "0.1.0"
