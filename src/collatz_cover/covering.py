"""Residue classes mod 18 and the covering system derived from them.

Every odd integer lies in exactly one class of the reordered residue sequence
S = (1, 5, 3, 13, 17, 15, 7, 11, 9); the step d -> 4d+1 advances the class
index cyclically through S. Pairing the class with the 2-adic valuation m of
3d+1 pins d into a single arithmetic progression

    d = 18*2^m * n + offset,   n >= 0,

whose image under the compressed Collatz step is the progression 54n + a with
a odd. Rather than hard-coding the 162 progressions for m <= 18, this module
derives each one in closed form from the cycle of the units mod 54, for any m.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .arith import two_adic_valuation

#: The reordering of the odd residues mod 18 that makes d -> 4d+1 advance the
#: class index by one (wrapping 9 -> 1).
RESIDUE_ORDER = (1, 5, 3, 13, 17, 15, 7, 11, 9)

_CLASS_OF = {r: i for i, r in enumerate(RESIDUE_ORDER, start=1)}


def _require_odd(d: int) -> None:
    if d < 1:
        raise ValueError(f"need a positive odd integer, got {d}")
    if not d & 1:
        raise ValueError(f"need an odd integer, got {d}")


def residue_class(d: int) -> int:
    """Class index i in 1..9 with d congruent to RESIDUE_ORDER[i-1] mod 18."""
    _require_odd(d)
    return _CLASS_OF[d % 18]


class Profile(NamedTuple):
    """One (class, valuation) progression triple.

    Members are d_modulus*n + d_offset; tripling-plus-one lands them on
    even_modulus*n + even_offset, and dividing out 2^m lands on
    54n + next_offset.
    """

    class_index: int
    residue: int
    m: int
    v_offset: int
    d_offset: int
    d_modulus: int
    even_offset: int
    even_modulus: int
    next_offset: int
    next_modulus: int = 54

    def row_dict(self) -> dict:
        return {
            "i": self.class_index,
            "r": self.residue,
            "m": self.m,
            "v_offset": self.v_offset,
            "d_offset": self.d_offset,
            "d_modulus": self.d_modulus,
            "even_offset": self.even_offset,
            "even_modulus": self.even_modulus,
            "next_offset": self.next_offset,
        }


#: No command derives a row twice, so the memo saves nothing. It stays, bounded,
#: while ``perfbench/tracing.py`` reads ``derive_profile.cache_info()``.
@lru_cache(maxsize=1024)
def derive_profile(i: int, m: int) -> Profile:
    """Construct the unique progression of class i needing exactly m halvings.

    Its members land on 54n + a for the odd a in [1, 54) with
    a = (3*S[i] + 1) * 2^(-m) (mod 27): then 3d + 1 = a*2^m puts d in class i,
    and a odd makes v(3d+1) = m. So the offset is (a*2^m - 1)/3, and a
    depends only on m mod 18, the order of 2 mod 27. The audits prove each
    row they use (``verify._row_faults``).
    """
    if not 1 <= i <= 9:
        raise ValueError(f"class index must be in 1..9, got {i}")
    if m < 1:
        raise ValueError(f"exponent must be >= 1, got {m}")
    r = RESIDUE_ORDER[i - 1]
    a = (3 * r + 1) * pow(2, -m, 27) % 27
    if not a & 1:
        a += 27
    d_offset = ((a << m) - 1) // 3
    d_modulus = 18 << m
    return Profile(
        class_index=i,
        residue=r,
        m=m,
        v_offset=(d_offset - r) // 18,
        d_offset=d_offset,
        d_modulus=d_modulus,
        even_offset=3 * d_offset + 1,
        even_modulus=3 * d_modulus,
        next_offset=a,
    )


def classify(d: int) -> tuple[Profile, int]:
    """Locate odd d in its unique progression: returns (profile, n) with
    d == profile.d_modulus * n + profile.d_offset exactly."""
    i = residue_class(d)
    m = two_adic_valuation(3 * d + 1)[0]
    profile = derive_profile(i, m)
    n, rem = divmod(d - profile.d_offset, profile.d_modulus)
    if rem or n < 0:  # an assert would vanish under python -O
        raise ArithmeticError(f"d={d} is not a member of its row, class {i} m={m}: "
                              f"{profile.d_modulus}n + {profile.d_offset}")
    return profile, n


class ProfileTable(NamedTuple):
    """All 9*max_m progressions, ordered by class then exponent. Immutable."""

    max_m: int
    rows: tuple[Profile, ...]

    @classmethod
    def build(cls, max_m: int) -> "ProfileTable":
        if max_m < 1:
            raise ValueError(f"max_m must be >= 1, got {max_m}")
        rows = tuple(derive_profile(i, m)
                     for i in range(1, 10) for m in range(1, max_m + 1))
        return cls(max_m, rows)

    def column(self, i: int) -> tuple[Profile, ...]:
        return self.rows[(i - 1) * self.max_m: i * self.max_m]


def cyclic_recurrence_check(i: int, d: int) -> bool:
    """Does 4d+1 fall in the class that follows i in the cycle S?

    d must actually lie in class i; a violated precondition is an error,
    not a False result.
    """
    if not 1 <= i <= 9:
        raise ValueError(f"class index must be in 1..9, got {i}")
    _require_odd(d)
    if d % 18 != RESIDUE_ORDER[i - 1]:
        raise ValueError(
            f"{d} is not in residue class [{RESIDUE_ORDER[i - 1]}] mod 18")
    successor = RESIDUE_ORDER[i % 9]
    return (4 * d + 1) % 18 == successor


#: Digits are summed 18 at a time, so no str() of a whole integer runs into
#: the interpreter's limit on int-to-str conversion (4300 digits by default).
_DIGIT_CHUNK = 10**18


def _digit_sum(x: int) -> int:
    total = 0
    while x:
        x, chunk = divmod(x, _DIGIT_CHUNK)
        total += sum(map(int, str(chunk)))
    return total


def digital_root(x: int) -> int:
    """Iterated decimal digit sum of x >= 1 (computed by actually summing
    digits, not by reduction mod 9), for integers of any length."""
    if x < 1:
        raise ValueError(f"need a positive integer, got {x}")
    while x > 9:
        x = _digit_sum(x)
    return x


def digit_root_class(d: int) -> int:
    """Classify odd d by digit sums alone.

    The digital root determines d mod 9; of the two lifts {root, root + 9}
    mod 18, exactly one is odd, and its index in S is the class. Agrees with
    residue_class on every odd integer.
    """
    _require_odd(d)
    root = digital_root(d)
    residue = root if root & 1 else root + 9
    return _CLASS_OF[residue]
