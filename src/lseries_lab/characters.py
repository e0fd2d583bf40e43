"""Dirichlet characters mod q with exact value tables.

Characters are built from the structure of the unit group (Z/qZ)^*: the group
is presented as a direct product over the prime-power factors of q, using the
smallest primitive root for odd prime powers, and -1 (k >= 2) and 5 (k >= 3)
for 2^k.  A character is stored in one exact form: its table of integer
exponents e over the group exponent L = lcm(d_i), chi(n) = exp(2*pi*i*e/L)
on the units and the sentinel e = L (chi(n) = 0) off them.  The documented
``values`` form is derived from that table: an integer in {-1, 0, +1} for a
real value, and otherwise the reduced (order, exponent) pair (d, k) meaning
exp(2*pi*i*k/d).  ``from_values`` takes a table in that form and validates
it by rebuilding it from its generator images.  No floating point enters
until ``_to_number`` converts a value.

The Kronecker symbol lives here as well; for fundamental discriminants it is
an independent construction of the real primitive characters and is used to
cross-check the enumeration.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from itertools import product
from math import gcd, lcm
from operator import attrgetter, index
from typing import Sequence, Union

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
    """The x in [0, q) with x = residue (mod pe) and x = 1 (mod rest = q // pe),
    for a unit residue mod pe > 1: x = 1 + rest * k, k = (residue - 1) / rest mod pe."""
    rest = q // pe
    return 1 + rest * ((residue - 1) * pow(rest, -1, pe) % pe)


def unit_group_structure(q: int) -> list[tuple[int, int]]:
    """Generators and orders presenting (Z/qZ)^* as a direct product.

    Returns [(g_1, d_1), ...] with each g_i in [0, q) acting only on its own
    prime-power factor (it is 1 mod the others).  The product of the orders
    d_i equals phi(q).  The 2-power factor 2^k comes first (-1 when k >= 2,
    then 5 when k >= 3); odd prime-power factors follow in ascending order
    of p, each contributing its smallest generator.  q = 1, 2 give [].
    """
    q = index(q)
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    gens: list[tuple[int, int]] = []
    for p, e in _factorize(q):
        pe = p**e
        if p == 2:
            if e >= 2:
                gens.append((_crt_lift(pe - 1, pe, q), 2))
            if e >= 3:
                gens.append((_crt_lift(5, pe, q), 2 ** (e - 2)))
        else:
            g = _smallest_generator(p, e)
            gens.append((_crt_lift(g, pe, q), pe // p * (p - 1)))
    return gens


def _value(e: int, order: int) -> CharacterValue:
    """The exact value of a table entry e in [0, order]: 0 at the sentinel
    e = order, else exp(2*pi*i*e/order) as 1, -1, or the reduced
    (order, exponent) pair."""
    if e == order:
        return 0
    if e == 0:
        return 1
    if 2 * e == order:
        return -1
    g = gcd(e, order)
    return (order // g, e // g)


def _exponent(v: CharacterValue, order: int) -> int:
    """The e in [0, order) with exp(2*pi*i*e/order) = v, for a nonzero value
    v; ValueError when v is not a root of unity of order dividing `order`."""
    d, k = (1, 0) if v == 1 else (2, 1) if v == -1 else v
    if order % d:
        raise ValueError(f"{v!r} is not a root of unity of order dividing {order}")
    return k * (order // d) % order


def _to_number(v: CharacterValue):
    """An exact value as a number: 0 and +/-1 stay ints, a root of unity
    (d, k) becomes the complex float exp(2*pi*i*k/d), one exponential."""
    return v if isinstance(v, int) else cmath.exp(2j * cmath.pi * v[1] / v[0])


def _conductor_of_table(q: int, exponents: Sequence[int]) -> int:
    """Smallest f | q such that n = 1 (mod f), gcd(n, q) = 1 implies chi(n) = 1,
    that is exponent 0.  The f | q with that property are the multiples of the
    conductor, so dividing f = q by each prime p of q while f / p keeps it
    leaves the smallest one."""
    f = q
    for p, _ in _factorize(q):
        while f % p == 0 and all(exponents[n] == 0 for n in range(1, q, f // p) if gcd(n, q) == 1):
            f //= p
    return f


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod `modulus` with an exact length-q table.

    `exponents[n]` for n in [0, q) is the stored table: on a unit n, the e in
    [0, L) with chi(n) = exp(2*pi*i*e/L), L = `group_exponent` = lambda(q);
    off the units (gcd(n, q) > 1), the sentinel L, which sorts after every
    unit's exponent.  `values[n]`, derived from it on each read, is chi(n) in
    the documented form: the integer 0 when gcd(n, q) > 1, an integer in
    {-1, +1} when the value is real, and a reduced (order, exponent)
    root-of-unity pair otherwise.  `is_real` holds iff every unit's exponent
    is 0 or L/2, equivalently iff chi * chi is principal.  `conductor` is the
    smallest modulus of a character inducing this one.
    """

    modulus: int
    group_exponent: int
    exponents: tuple
    is_principal: bool
    is_real: bool
    conductor: int
    # exponent -> exact value, shared by the characters of one enumeration and
    # filled as their values are read, so that their tables share each pair
    _exact: dict = field(compare=False, repr=False)

    @classmethod
    def from_values(cls, q: int, values: Sequence[CharacterValue]) -> "DirichletCharacter":
        """Build from an explicit table in the documented `values` form (0,
        +/-1, reduced (order, exponent) pairs); ValueError unless it is a
        character mod q."""
        q = index(q)
        if q < 1:
            raise ValueError(f"modulus must be >= 1, got {q}")
        if len(values) != q:
            raise ValueError(f"value table must have length {q}, got {len(values)}")
        table = []
        for n, v in enumerate(values):
            pair = isinstance(v, (tuple, list)) and len(v) == 2 and all(type(x) is int for x in v)
            if not (pair and v[0] >= 1 or v in (0, 1, -1)):
                raise ValueError(f"chi({n}) = {v!r}: not 0, +/-1 or an int pair (order >= 1, exponent)")
            v = tuple(v) if pair else int(v)
            if (v == 0) != (gcd(n, q) > 1):
                raise ValueError(f"chi({n}) = {v!r} but gcd({n}, {q}) = {gcd(n, q)}")
            table.append(v)
        if table[1 % q] != 1:
            raise ValueError("chi(1) must equal 1")
        # A character is fixed by its generator images: rebuild it and compare.
        gens = unit_group_structure(q)
        chi = _build_character(q, _unit_walk(q, gens), [_exponent(table[g], d) for g, d in gens])
        if chi.values != tuple(table):
            n = next(n for n, (u, v) in enumerate(zip(chi.values, table)) if u != v)
            raise ValueError(
                f"not completely multiplicative: chi({n}) = {table[n]!r}, "
                f"its generator images give {chi.values[n]!r}"
            )
        return chi

    @property
    def values(self) -> tuple:
        """The documented table, derived from `exponents` on each read; the
        tuple is not kept, and its pairs come from the map its enumeration
        shares."""
        for e in set(self.exponents).difference(self._exact):
            self._exact[e] = _value(e, self.group_exponent)
        # A tuple grown from an iterator would be resized to its length and,
        # once freed, parked on the free list of that length; one made from a
        # list is taken from that free list, so reads of short tables do not
        # pile blocks up there between garbage collections.
        return tuple(list(map(self._exact.__getitem__, self.exponents)))

    def value_complex(self, n: int) -> complex:
        """chi(n) as a complex float."""
        return complex(_to_number(_value(self.exponents[n % self.modulus], self.group_exponent)))

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
    return _characters(q, lambda d: (0,))[0]


def _unit_walk(q: int, gens: list[tuple[int, int]]) -> tuple:
    """(L, units, columns, levels, exact), shared by the characters built in
    one call: L = lcm(d_i), each unit once as n = prod(g_i^a_i), per generator
    the column of a_i * L / d_i in unit order, levels = [0, 1, ..., L - 1],
    one int object per exponent for every table of the call to point at
    (exponents past 256 made afresh would cost an int object per entry), and
    an empty map for the exact values their ``values`` read."""
    group_exponent = lcm(*(d for _, d in gens))
    units, columns = [1 % q], []
    for g, d in gens:
        columns = [column * d for column in columns]
        columns.append([a * (group_exponent // d) for a in range(d) for _ in units])
        units = [u * p % q for p in [pow(g, a, q) for a in range(d)] for u in units]
    return group_exponent, units, columns, list(range(group_exponent)), {}


def _build_character(q: int, walk: tuple, exps: Sequence[int]) -> DirichletCharacter:
    """Character sending generator g_i to exp(2*pi*i * exps[i] / d_i), over a
    :func:`_unit_walk` of q: chi(n) has exponent sum(exps[i] * column_i[n])
    mod L, and every non-unit the sentinel L."""
    group_exponent, units, columns, levels, exact = walk
    logs = [0] * len(units)
    for c, column in zip(exps, columns):
        logs = [e + c * a for e, a in zip(logs, column)]
    exponents = [group_exponent] * q
    for n, e in zip(units, logs):
        exponents[n] = levels[e % group_exponent]
    return DirichletCharacter(
        modulus=q,
        group_exponent=group_exponent,
        exponents=tuple(exponents),
        is_principal=all(c == 0 for c in exps),
        is_real={0, group_exponent // 2, group_exponent}.issuperset(exponents),  # L is even past q = 2
        conductor=_conductor_of_table(q, exponents),
        _exact=exact,
    )


def _characters(q: int, images) -> list[DirichletCharacter]:
    """The characters mod q sending each generator g_i of order d_i to
    exp(2*pi*i*c/d_i) for each c in images(d_i), every combination, in
    product order over one :func:`_unit_walk`."""
    gens = unit_group_structure(q)
    walk = _unit_walk(q, gens)
    return [_build_character(q, walk, exps) for exps in product(*(images(d) for _, d in gens))]


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, lexicographic by exponent table (so the principal first)."""
    return sorted(_characters(q, range), key=attrgetter("exponents"))


def enumerate_real_characters(q: int) -> list[DirichletCharacter]:
    """All real characters mod q, principal first, then lexicographic by
    `values` (-1 < 0 < +1, not the exponent order 0 < L/2 < L).

    The count is 2**(number of even-order generators of (Z/qZ)^*): each such
    generator may map to -1, everything else must map to +1.
    """
    chars = _characters(q, lambda d: (0, d // 2) if d % 2 == 0 else (0,))
    return sorted(chars, key=lambda c: (0 if c.is_principal else 1, c.values))


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
