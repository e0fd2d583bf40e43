"""Dirichlet characters mod q with exact value tables.

Characters are built from the structure of the unit group (Z/qZ)^*: the group
is presented as a direct product over the prime-power factors of q, using the
smallest primitive root for odd prime powers and the {-1, 5} generator pair
for 2^k with k >= 3.  Each character value is stored exactly -- as an integer
in {-1, 0, +1} when the character is real, and otherwise as an (order,
exponent) pair (d, k) meaning exp(2*pi*i*k/d).  No floating point enters until
a value is explicitly converted by ``_to_number`` (which
:meth:`DirichletCharacter.value_complex` and the L-series term tables share).

The Kronecker symbol lives here as well; for fundamental discriminants it is
an independent construction of the real primitive characters and is used to
cross-check the enumeration.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterator, Sequence, Union

__all__ = [
    "CharacterValue",
    "DirichletCharacter",
    "enumerate_characters",
    "enumerate_real_characters",
    "kronecker_symbol",
    "principal_character",
    "unit_group_structure",
]

# A character value: exact integer 0/1/-1, or a root-of-unity pair (order, exponent).
CharacterValue = Union[int, tuple]


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(p, e), ...] with p ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _smallest_generator(p: int, e: int) -> int:
    """Smallest generator of the cyclic group (Z/p^eZ)^* for odd prime p."""
    pe = p**e
    order = pe // p * (p - 1)
    prime_divs = [r for r, _ in _factorize(order)]
    g = 2
    while True:
        if gcd(g, pe) == 1 and all(pow(g, order // r, pe) != 1 for r in prime_divs):
            return g
        g += 1


def _crt_lift(residue: int, pe: int, q: int) -> int:
    """The x in [0, q) with x = residue (mod pe) and x = 1 (mod q // pe)."""
    rest = q // pe
    if rest == 1:
        return residue % q
    inv = pow(pe, -1, rest)
    # x = residue + pe * k with pe * k = 1 - residue (mod rest)
    k = ((1 - residue) * inv) % rest
    return (residue + pe * k) % q


def unit_group_structure(q: int) -> list[tuple[int, int]]:
    """Generators and orders presenting (Z/qZ)^* as a direct product.

    Returns [(g_1, d_1), ...] with each g_i in [0, q) acting only on its own
    prime-power factor (it is 1 mod the others).  The product of the orders
    d_i equals phi(q).  The 2-power factor comes first (generator -1, then 5,
    for 2^k with k >= 3); odd prime-power factors follow in ascending order
    of p, each contributing its smallest generator.  q = 1, 2 give [].
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    gens: list[tuple[int, int]] = []
    for p, e in _factorize(q):
        pe = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                gens.append((_crt_lift(3, 4, q), 2))
            else:
                gens.append((_crt_lift(pe - 1, pe, q), 2))
                gens.append((_crt_lift(5, pe, q), 2 ** (e - 2)))
        else:
            g = _smallest_generator(p, e)
            gens.append((_crt_lift(g, pe, q), pe // p * (p - 1)))
    return gens


def _rotation_to_value(rot: Fraction) -> CharacterValue:
    """exp(2*pi*i*rot) as an exact value: 1, -1, or an (order, exponent) pair."""
    rot %= 1
    if rot == 0:
        return 1
    if rot == Fraction(1, 2):
        return -1
    return (rot.denominator, rot.numerator)


def _value_rotation(v: CharacterValue) -> Fraction:
    """Inverse of :func:`_rotation_to_value` for nonzero values."""
    if v == 1:
        return Fraction(0)
    if v == -1:
        return Fraction(1, 2)
    d, k = v
    return Fraction(k, d)


def _to_number(v: CharacterValue):
    """An exact value as a number: 0 and +/-1 stay ints, a root of unity
    (d, k) becomes the complex float exp(2*pi*i*k/d), one exponential."""
    if isinstance(v, int):
        return v
    d, k = v
    return cmath.exp(2j * cmath.pi * k / d)


def _multiply_values(u: CharacterValue, v: CharacterValue) -> CharacterValue:
    if u == 0 or v == 0:
        return 0
    return _rotation_to_value(_value_rotation(u) + _value_rotation(v))


def _conductor_of_table(q: int, values: Sequence[CharacterValue]) -> int:
    """Smallest f | q such that n = 1 (mod f), gcd(n, q) = 1 implies chi(n) = 1."""
    for f in _divisors(q):
        if all(
            values[n % q] == 1
            for n in range(1, q + 1, f)
            if gcd(n, q) == 1
        ):
            return f
    return q  # unreachable: f = q always passes


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod `modulus` with an exact length-q value table.

    `values[n]` is chi(n) for n in [0, q): the integer 0 when gcd(n, q) > 1,
    an integer in {-1, +1} when the value is real, and an (order, exponent)
    root-of-unity pair otherwise.  `is_real` holds iff every value is an
    integer, equivalently iff chi * chi is principal.  `conductor` is the
    smallest modulus of a character inducing this one.
    """

    modulus: int
    values: tuple
    is_principal: bool
    is_real: bool
    conductor: int

    @classmethod
    def from_values(cls, q: int, values: Sequence[CharacterValue]) -> "DirichletCharacter":
        """Build from an explicit table, validating the character axioms."""
        if q < 1:
            raise ValueError(f"modulus must be >= 1, got {q}")
        values = tuple(int(v) if isinstance(v, int) or v in (0, 1, -1) else tuple(v) for v in values)
        if len(values) != q:
            raise ValueError(f"value table must have length {q}, got {len(values)}")
        for n, v in enumerate(values):
            coprime = gcd(n, q) == 1
            if coprime and v == 0:
                raise ValueError(f"chi({n}) = 0 but gcd({n}, {q}) = 1")
            if not coprime and v != 0:
                raise ValueError(f"chi({n}) != 0 but gcd({n}, {q}) > 1")
        if values[1 % q] != 1:
            raise ValueError("chi(1) must equal 1")
        for m in range(q):
            for n in range(m, q):
                if _multiply_values(values[m], values[n]) != values[(m * n) % q]:
                    raise ValueError(f"table is not completely multiplicative at ({m}, {n})")
        return cls(
            modulus=q,
            values=values,
            is_principal=all(v in (0, 1) for v in values),
            is_real=all(isinstance(v, int) for v in values),
            conductor=_conductor_of_table(q, values),
        )

    def value_exact(self, n: int) -> CharacterValue:
        """chi(n) as stored: 0, +/-1, or an (order, exponent) pair."""
        return self.values[n % self.modulus]

    def value_complex(self, n: int) -> complex:
        """chi(n) as a complex float."""
        return complex(_to_number(self.values[n % self.modulus]))

    def to_json_dict(self) -> dict:
        """The documented JSON form: values as ints or [order, exponent] pairs."""
        return {
            "q": self.modulus,
            "real": self.is_real,
            "principal": self.is_principal,
            "conductor": self.conductor,
            "values": [v if isinstance(v, int) else [v[0], v[1]] for v in self.values],
        }


def principal_character(q: int) -> DirichletCharacter:
    """The principal character mod q: 1 on units, 0 elsewhere."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    values = tuple(1 if gcd(n, q) == 1 else 0 for n in range(q))
    return DirichletCharacter(
        modulus=q,
        values=values,
        is_principal=True,
        is_real=True,
        conductor=1,
    )


def _build_character(q: int, gens: list[tuple[int, int]], exps: tuple[int, ...]) -> DirichletCharacter:
    """Character sending generator g_i to exp(2*pi*i * exps[i] / d_i)."""
    rotations: list = [None] * q
    rotations[1 % q] = Fraction(0)
    # Walk the whole group as products of generator powers; each unit is hit once.
    for powers in product(*(range(d) for _, d in gens)):
        n = 1 % q
        rot = Fraction(0)
        for (g, d), a, c in zip(gens, powers, exps):
            n = (n * pow(g, a, q)) % q
            rot += Fraction(c * a, d)
        rotations[n] = rot % 1
    values = tuple(
        0 if rotations[n] is None else _rotation_to_value(rotations[n]) for n in range(q)
    )
    return DirichletCharacter(
        modulus=q,
        values=values,
        is_principal=all(c == 0 for c in exps),
        is_real=all(isinstance(v, int) for v in values),
        conductor=_conductor_of_table(q, values),
    )


def _table_sort_key(chi: DirichletCharacter) -> tuple:
    """Principal first, then lexicographic by value table, entries compared
    as (is-zero, rotation fraction) so real and complex values mix under a
    deterministic total order."""
    def entry_key(v: CharacterValue):
        if v == 0:
            return (1, Fraction(0))
        return (0, _value_rotation(v))

    return (0 if chi.is_principal else 1, tuple(entry_key(v) for v in chi.values))


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first, then lexicographic."""
    gens = unit_group_structure(q)
    chars = [
        _build_character(q, gens, exps)
        for exps in product(*(range(d) for _, d in gens))
    ]
    chars.sort(key=_table_sort_key)
    return chars


def enumerate_real_characters(q: int) -> list[DirichletCharacter]:
    """All real characters mod q, principal first, then lexicographic by table.

    The count is 2**(number of even-order generators of (Z/qZ)^*): each such
    generator may map to -1, everything else must map to +1.
    """
    gens = unit_group_structure(q)
    choices = [(0, d // 2) if d % 2 == 0 else (0,) for _, d in gens]
    chars = [_build_character(q, gens, exps) for exps in product(*choices)]
    chars.sort(key=lambda c: (0 if c.is_principal else 1, c.values))
    return chars


def kronecker_symbol(d: int, n: int) -> int:
    """Kronecker symbol (d | n): the Jacobi symbol extended to all integers n.

    Completely multiplicative in n, with (d | 2) read off d mod 8, (d | -1)
    the sign character of d, and (d | 0) nonzero only for d = +/-1.  For a
    fundamental discriminant d, n -> (d | n) is the real primitive character
    mod |d|.
    """
    if n == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    sign = 1
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos % 2 == 1 and d % 8 in (3, 5):
        sign = -sign
    if n < 0:
        n = -n
        if d < 0:
            sign = -sign
    # Jacobi symbol (d | n) for odd n > 0, by binary reciprocity.
    d %= n
    while d != 0:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                sign = -sign
        d, n = n, d
        if d % 4 == 3 and n % 4 == 3:
            sign = -sign
        d %= n
    return sign if n == 1 else 0
