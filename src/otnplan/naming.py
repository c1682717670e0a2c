"""Variable naming scheme and deterministic tie-break weights.

Every decision entity belongs to one of two capacity planes: the working
plane (``WORKING``, letter ``w``), which carries the working LSPs, or the
protection plane (``PROTECTION``, letter ``p``), which carries the spare
capacity.  A name is the plane letter, the family and the entity's index
joined by underscores:

* ``beta(plane, i, j, q)`` -> ``wbeta_i_j_q``: the q-th lightpath between
  nodes i < j exists;
* ``delta(plane, k, i, j, q)`` -> ``pdelta_k_i_j_q``: LSP k crosses that
  lightpath from i to j;
* ``lam(plane, lp, m, n)`` -> ``wlam_lp_m_n``: given lightpath ``lp`` uses
  the physical arc m -> n;
* ``lam_integrated(plane, i, j, q, m, n)`` -> ``plam_i_j_q_m_n``: the same
  in the integrated model, where the lightpath is known by its (i, j, q).

Builders name a block of columns at once: ``delta_block(plane, k,
suffixes)`` joins the prefix ``pdelta_k`` to each suffix ``_i_j_q`` of
``suffixes(keys)``, which a model computes once, and so on for each family.
The strings are those of the one-name functions above.

The names are a public contract: LP exports, audit dumps and the
brute-force oracle all identify decision entities by these strings.  The
tie-break weights turn "any optimum" into "one well-defined optimum": after a
phase is solved to its optimal cost, the solution minimizing the weighted sum
of active entity names is selected.  Weights are stable integer hashes of the
names, so the planner (via two pinned follow-up solves) and the enumeration
oracle resolve ties identically.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable, Sequence

WORKING = "working"
PROTECTION = "protection"
_LETTER = {WORKING: "w", PROTECTION: "p"}

_WEIGHT_MODULUS = 1_000_003  # prime; sums over <=10^4 entities stay exact in float64


def beta(plane: str, i: int, j: int, q: int) -> str:
    return f"{_LETTER[plane]}beta_{i}_{j}_{q}"


def delta(plane: str, k: int, i: int, j: int, q: int) -> str:
    return f"{_LETTER[plane]}delta_{k}_{i}_{j}_{q}"


def lam(plane: str, lp: int, m: int, n: int) -> str:
    return f"{_LETTER[plane]}lam_{lp}_{m}_{n}"


def lam_integrated(plane: str, i: int, j: int, q: int, m: int, n: int) -> str:
    return f"{_LETTER[plane]}lam_{i}_{j}_{q}_{m}_{n}"


def suffixes(keys: Iterable[tuple[int, ...]]) -> list[str]:
    """The index part of each key's names: ``"_3_4_1"`` for (3, 4, 1)."""
    return ["".join([f"_{x}" for x in key]) for key in keys]


def beta_block(plane: str, suffixes: Sequence[str]) -> list[str]:
    """``beta(plane, i, j, q)`` for each suffix of (i, j, q)."""
    return _block(f"{_LETTER[plane]}beta", suffixes)


def delta_block(plane: str, k: int, suffixes: Sequence[str]) -> list[str]:
    """``delta(plane, k, i, j, q)`` for each suffix of (i, j, q)."""
    return _block(f"{_LETTER[plane]}delta_{k}", suffixes)


def lam_block(plane: str, lp: int, suffixes: Sequence[str]) -> list[str]:
    """``lam(plane, lp, m, n)`` for each suffix of (m, n)."""
    return _block(f"{_LETTER[plane]}lam_{lp}", suffixes)


def lam_integrated_block(plane: str, i: int, j: int, q: int,
                         suffixes: Sequence[str]) -> list[str]:
    """``lam_integrated(plane, i, j, q, m, n)`` for each suffix of (m, n)."""
    return _block(f"{_LETTER[plane]}lam_{i}_{j}_{q}", suffixes)


def _block(prefix: str, suffixes: Sequence[str]) -> list[str]:
    return list(map(prefix.__add__, suffixes))


@lru_cache(maxsize=1 << 14)
def tie_weight(name: str, level: int = 1) -> int:
    """Deterministic pseudo-random weight for an entity name.

    ``level`` selects independent weight families; two families make a
    collision between distinct equal-cost solutions vanishingly unlikely.
    The weights of recent names are cached: every gap-0 model weighs each
    of its columns at both levels, and the oracle each hop it routes over.
    """
    digest = hashlib.blake2b(f"{level}:{name}".encode("ascii"), digest_size=6).digest()
    return 1 + int.from_bytes(digest, "big") % _WEIGHT_MODULUS

