"""Generic-rank sphericality testing: does h + Ad(x) p fill g for some x?

The set of x with h + Ad(x) p = g is open and right-P-invariant, and N̄P is
open and dense in G (the Bruhat big cell), so it suffices to sample x = exp Y
with Y in n̄.  Samples are deterministic one-row words: Y has seeded
Gaussian coefficients on the basis of n̄.  Only the adjoint action of a word
is ever computed, through ``LieAlgebra.ad_group``, and a witness is the word
itself.  Since g = n̄ ⊕ p, h + Ad(x) p = g exactly when π(Ad(x)⁻¹ h) spans n̄,
π the projection onto n̄ along p; ``chart_rank`` ranks that (dim h, dim n̄)
matrix.  Attaining dim g at any single sample is a certificate (openness is
lower semicontinuous); a negative verdict is either a sample-free dimension
obstruction or a confidence statement after the requested number of samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InputError, LieAlgebra, Subalgebra
from .linalg import DEFAULT_TOL, numeric_rank
from .realforms import ParabolicData

VERDICT_SPHERICAL = "spherical"
VERDICT_NOT_SPHERICAL = "not-spherical-at-confidence"
VERDICT_OBSTRUCTED = "dimension-obstructed"


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Per-sample generator; independent of evaluation order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                                        spawn_key=(int(index),)))


def sample_group_element(P: ParabolicData, rng: np.random.Generator) -> np.ndarray:
    """One-row word exp(Y), Y in n̄ with standard Gaussian coefficients on its basis."""
    return (rng.standard_normal(P.nbar.dim) @ P.nbar.basis)[None]


def chart_rank(g: LieAlgebra, rows: np.ndarray, P: ParabolicData, word: np.ndarray,
               tol: float = DEFAULT_TOL) -> int:
    """rank π(Ad(x)⁻¹ rows) = dim(span(rows) + Ad(x) p) - dim p, x a word.

    Ad(x)⁻¹ (the word reversed, every row negated) acts on the rows alone.  The
    cut is relative to the moved rows too, so rows inside Ad(x) p read rank 0.
    """
    moved = g.ad_group(-np.asarray(word, dtype=float)[::-1], rows, depth=P.roots.depth)
    return numeric_rank(moved @ P.chart, tol, scale=float(np.linalg.norm(moved)))


def local_dim(g: LieAlgebra, h: Subalgebra, P: ParabolicData, word: np.ndarray,
              tol: float = DEFAULT_TOL) -> int:
    """dim(h + Ad(x) p) at the group element x given by a word."""
    return P.p.dim + chart_rank(g, h.basis, P, word, tol)


@dataclass
class SphericityReport:
    """Outcome of a sampled sphericality test, with full provenance."""

    pair_name: str
    dim_g: int
    dim_h: int
    dim_p: int
    dim_gp: int
    samples: int
    seed: int
    tol: float
    per_sample_dims: list[int]
    max_dim: int
    verdict: str
    witness: Optional[np.ndarray] = None     # (1, dim g) n̄ word of a spherical sample

    def to_dict(self) -> dict:
        return {
            "schema": 3,
            "kind": "sphericity",
            "pair": self.pair_name,
            "dim_g": self.dim_g,
            "dim_h": self.dim_h,
            "dim_p": self.dim_p,
            "dim_gp": self.dim_gp,
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "per_sample_dims": list(map(int, self.per_sample_dims)),
            "max_dim": self.max_dim,
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.tolist(),
        }


def is_spherical(g: LieAlgebra, h: Subalgebra, P: ParabolicData,
                 samples: int = 64, seed: int = 0, tol: float = DEFAULT_TOL,
                 pair_name: str = "") -> SphericityReport:
    """Sampled test of g = h + Ad(x) p.

    Evaluation short-circuits once a sample certifies sphericality; the
    evaluated prefix is recorded.  When dim h + dim p < dim g the verdict
    is a sample-free dimension obstruction.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    dim_g, dim_h, dim_p = g.dim, h.dim, P.p.dim
    base = dict(pair_name=pair_name or f"({g.name},{h.name})", dim_g=dim_g, dim_h=dim_h,
                dim_p=dim_p, dim_gp=dim_g - dim_p, samples=samples, seed=seed, tol=tol)
    if dim_h + dim_p < dim_g:
        return SphericityReport(per_sample_dims=[], max_dim=dim_h + dim_p,
                                verdict=VERDICT_OBSTRUCTED, witness=None, **base)
    dims: list[int] = []
    best = -1
    witness = None
    for i in range(samples):
        x = sample_group_element(P, sample_rng(seed, i))
        d = local_dim(g, h, P, x, tol)
        dims.append(d)
        if d > best:
            best, witness = d, x
        if d == dim_g:
            return SphericityReport(per_sample_dims=dims, max_dim=best,
                                    verdict=VERDICT_SPHERICAL, witness=witness, **base)
    return SphericityReport(per_sample_dims=dims, max_dim=best,
                            verdict=VERDICT_NOT_SPHERICAL, witness=None, **base)
