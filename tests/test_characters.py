"""Character construction, enumeration, Kronecker symbol, conductors.

Oracles used here and nowhere in the library:
* brute-force multiplicative-order / generated-subgroup checks for the unit
  group presentation;
* exhaustive sign-assignment enumeration of group homomorphisms to {+-1}
  for the real character count;
* the Euler criterion pow(a, (p-1)//2, p) for the Kronecker symbol at odd
  primes;
* the pairwise induced-modulus predicate for conductors;
* Fraction rotations (value = exp(2*pi*i*r), r in [0, 1)) for the order of
  ``enumerate_characters`` and the complete multiplicativity of complex
  characters, independent of the library's integer-exponent arithmetic.
"""

from fractions import Fraction
from itertools import product
import sys
import tracemalloc
from math import gcd

import pytest

from lseries_lab.characters import (
    DirichletCharacter,
    enumerate_characters,
    enumerate_real_characters,
    kronecker_symbol,
    principal_character,
    unit_group_structure,
)


def units(q):
    return [n for n in range(q) if gcd(n, q) == 1]


def phi(q):
    return len(units(q))


def brute_real_character_tables(q):
    """All multiplicative chi: units -> {+-1} by exhaustive sign assignment."""
    us = units(q)
    tables = []
    for signs in product((1, -1), repeat=len(us)):
        f = dict(zip(us, signs))
        if f[1 % q] != 1:
            continue
        if all(f[(a * b) % q] == f[a] * f[b] for a in us for b in us):
            tables.append(tuple(f.get(n, 0) for n in range(q)))
    return sorted(set(tables))


def rotation(v):
    """The r in [0, 1) with exp(2*pi*i*r) = v, for a nonzero exact value v."""
    if isinstance(v, int):
        return Fraction(0) if v == 1 else Fraction(1, 2)
    d, k = v
    return Fraction(k, d) % 1


def euler_criterion(d, p):
    """Legendre symbol (d | p) for an odd prime p."""
    r = pow(d % p, (p - 1) // 2, p)
    return {0: 0, 1: 1, p - 1: -1}[r]


ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


def is_fundamental_discriminant(d):
    if d == 1 or d == 0:
        return False

    def squarefree(n):
        n = abs(n)
        k = 2
        while k * k <= n:
            if n % (k * k) == 0:
                return False
            k += 1
        return True

    if d % 4 == 1 or d % 4 == -3:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3, -2, -1) and squarefree(m)
    return False


class TestUnitGroupStructure:
    def test_trivial_moduli(self):
        assert unit_group_structure(1) == []
        assert unit_group_structure(2) == []

    def test_q7_smallest_primitive_root(self):
        assert unit_group_structure(7) == [(3, 6)]

    def test_q8_klein_four(self):
        gens = unit_group_structure(8)
        assert [d for _, d in gens] == [2, 2]
        assert [g for g, _ in gens] == [7, 5]

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            unit_group_structure(0)

    @pytest.mark.parametrize("q", range(1, 61))
    def test_orders_multiply_to_phi(self, q):
        gens = unit_group_structure(q)
        total = 1
        for _, d in gens:
            total *= d
        assert total == phi(q)

    @pytest.mark.parametrize("q", range(3, 61))
    def test_generators_span_the_unit_group(self, q):
        gens = unit_group_structure(q)
        span = {1 % q}
        for g, d in gens:
            # each generator really has the stated order
            power, order = g, 1
            while power != 1 % q:
                power = power * g % q
                order += 1
            assert order == d
            span = {x * pow(g, a, q) % q for x in span for a in range(d)}
        assert span == set(units(q))

    def test_generators_are_the_documented_lifts(self):
        """Each generator g is 1 mod q / pe and, mod its prime power pe, is
        pe - 1 (4 | q) then 5 (8 | q) for p = 2, and for odd p the smallest
        primitive root mod pe, found here by brute-force orders."""

        def order(g, m):
            power, k = g % m, 1
            while power != 1:
                power, k = power * g % m, k + 1
            return k

        for q in range(1, 301):
            expected = []  # (pe, the generator's residue mod pe), in order
            for p in (p for p in range(2, q + 1) if q % p == 0 and all(p % r for r in range(2, p))):
                pe = p
                while q % (pe * p) == 0:
                    pe *= p
                if p == 2:
                    expected += [(pe, pe - 1)] * (pe >= 4) + [(pe, 5)] * (pe >= 8)
                else:
                    root = next(g for g in range(2, pe) if gcd(g, pe) == 1 and order(g, pe) == phi(pe))
                    expected.append((pe, root))
            gens = unit_group_structure(q)
            assert len(gens) == len(expected), q
            for (g, _), (pe, residue) in zip(gens, expected):
                assert 0 <= g < q and g % pe == residue and g % (q // pe) == 1 % (q // pe), (q, g)

    def test_deterministic(self):
        for q in (12, 40, 45):
            assert unit_group_structure(q) == unit_group_structure(q)


class TestEnumeration:
    def test_q1_single_principal(self):
        chars = enumerate_real_characters(1)
        assert len(chars) == 1
        assert chars[0].is_principal
        assert chars[0].values == (1,)

    def test_principal_character_is_the_first_enumerated(self):
        for q in range(1, 301):
            assert principal_character(q) == enumerate_characters(q)[0], q

    def test_q4_two_real_characters(self):
        chars = enumerate_real_characters(4)
        assert len(chars) == 2
        assert chars[0].is_principal
        assert chars[1].values == (0, 1, 0, -1)
        assert not chars[1].is_principal

    def test_q8_four_real_characters(self):
        chars = enumerate_real_characters(8)
        assert len(chars) == 4
        assert chars[0].is_principal
        # deterministic: principal first, then lexicographic by value table
        tables = [c.values for c in chars[1:]]
        assert tables == sorted(tables)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 12, 15, 16, 21, 24, 30])
    def test_real_enumeration_matches_brute_force(self, q):
        got = sorted(c.values for c in enumerate_real_characters(q))
        assert got == brute_real_character_tables(q)

    @pytest.mark.parametrize("q", range(1, 101))
    def test_counts(self, q):
        gens = unit_group_structure(q)
        expected_real = 2 ** sum(1 for _, d in gens if d % 2 == 0)
        real = enumerate_real_characters(q)
        assert len(real) == expected_real
        assert sum(1 for c in real if c.is_principal) == 1
        assert real[0].is_principal

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16])
    def test_all_characters_count_and_real_subset(self, q):
        chars = enumerate_characters(q)
        assert len(chars) == phi(q)
        real_tables = {c.values for c in chars if c.is_real}
        assert real_tables == {c.values for c in enumerate_real_characters(q)}
        # real holds iff chi * chi is principal
        for c in chars:
            square_rotations_trivial = all(
                _square_is_one(c, n) for n in units(q)
            )
            assert c.is_real == square_rotations_trivial

    @pytest.mark.parametrize("q", range(1, 41))
    def test_order_is_principal_then_lexicographic_by_rotation(self, q):
        keys = [
            (not c.is_principal, tuple((1, 0) if v == 0 else (0, rotation(v)) for v in c.values))
            for c in enumerate_characters(q)
        ]
        assert keys[0][0] is False
        assert keys == sorted(set(keys))

    @pytest.mark.parametrize("q", range(1, 41))
    def test_complete_multiplicativity_on_the_rotation_oracle(self, q):
        us = units(q)
        for chi in enumerate_characters(q):
            assert [v == 0 for v in chi.values] == [gcd(n, q) > 1 for n in range(q)]
            rot = {n: rotation(chi.values[n]) for n in us}
            for i, m in enumerate(us):
                for n in us[i:]:
                    assert (rot[m] + rot[n] - rot[m * n % q]) % 1 == 0, (chi.values, m, n)

    @pytest.mark.parametrize("q", range(1, 101))
    def test_real_character_axioms(self, q):
        for chi in enumerate_real_characters(q):
            values = chi.values
            # zero exactly off the units; +-1 on the units
            for n in range(q):
                if gcd(n, q) == 1:
                    assert values[n] in (1, -1)
                else:
                    assert values[n] == 0
            # complete multiplicativity on the stored integers
            for m in range(q):
                vm = values[m]
                for n in range(m, q):
                    assert values[m * n % q] == vm * values[n]
            # non-principal characters sum to zero over a period
            if not chi.is_principal:
                assert sum(values) == 0
            else:
                assert sum(values) == phi(q)


def _square_is_one(chi, n):
    v = chi.values[n % chi.modulus]
    if isinstance(v, int):
        return v * v == 1
    d, _ = v
    return d <= 2


class TestFromValues:
    def test_accepts_principal(self):
        chi = DirichletCharacter.from_values(6, [0, 1, 0, 0, 0, 1])
        assert chi.is_principal and chi.is_real and chi.conductor == 1

    def test_rejects_zero_on_unit(self):
        with pytest.raises(ValueError):
            DirichletCharacter.from_values(4, [0, 1, 0, 0])

    def test_rejects_nonzero_off_unit(self):
        with pytest.raises(ValueError):
            DirichletCharacter.from_values(4, [0, 1, 1, 1])

    def test_rejects_non_multiplicative(self):
        # chi(3)^2 must equal chi(9 mod 4) = chi(1) = 1; table says -1 at 1? no:
        # corrupt instead at 3*3: use q=5 with a broken assignment
        with pytest.raises(ValueError):
            DirichletCharacter.from_values(5, [0, 1, 1, -1, 1])

    @pytest.mark.parametrize(
        "q,values,message",
        [
            (0, [], "modulus must be >= 1, got 0"),
            (5, [0, 1, -1, -1], "value table must have length 5, got 4"),
            (1, [-1], r"chi\(1\) must equal 1"),
            (5, [0, -1, -1, 1, 1], r"chi\(1\) must equal 1"),
        ],
    )
    def test_rejects_a_table_that_is_no_character_mod_q(self, q, values, message):
        with pytest.raises(ValueError, match=message):
            DirichletCharacter.from_values(q, values)

    def test_matches_enumeration(self):
        for q in range(1, 41):
            for chi in enumerate_characters(q):
                assert DirichletCharacter.from_values(q, chi.values) == chi
                assert DirichletCharacter.from_values(q, chi.to_json_dict()["values"]) == chi

    # the last four name roots of unity of order dividing 4, but not in the
    # stored form: (4, 1) is the one value the other entries allow
    @pytest.mark.parametrize("entry", [(0, 1), (3,), "x", 2, (4, 5), (4, 2), (1, 0), (2, 1)])
    def test_rejects_malformed_entry(self, entry):
        table = [0, 1, entry, (4, 3), -1]
        with pytest.raises(ValueError, match=r"chi\(2\)"):
            DirichletCharacter.from_values(5, table)

    def test_rejects_table_corrupted_at_one_non_generator_unit(self):
        q = 21
        generators = {g for g, _ in unit_group_structure(q)}
        roots = [1, -1, (3, 1), (3, 2), (6, 1), (6, 5)]
        for chi in enumerate_characters(q):
            for n in units(q):
                if n == 1 or n in generators:
                    continue
                table = list(chi.values)
                table[n] = next(v for v in roots if v != table[n])
                with pytest.raises(ValueError, match="not completely multiplicative"):
                    DirichletCharacter.from_values(q, table)

    def test_rejects_generator_image_of_wrong_order(self):
        # 2 generates (Z/5Z)^* with order 4, so chi(2) cannot be a primitive 8th root.
        with pytest.raises(ValueError, match="order dividing 4"):
            DirichletCharacter.from_values(5, [0, 1, (8, 1), (4, 3), -1])
        # 11 = -1 mod 3 has order 2 in (Z/15Z)^*, whose exponent is 4: chi(11) = i
        # has an order dividing 4, but not 2
        table = list(next(c for c in enumerate_characters(15) if c.values[2] == (4, 1)).values)
        table[11] = (4, 1)
        with pytest.raises(ValueError, match="order dividing 2"):
            DirichletCharacter.from_values(15, table)


class TestStoredTable:
    """Each character is stored once, as exponents over the group exponent L
    with the sentinel L off the units; `values` is derived from it."""

    @pytest.mark.parametrize("q", [1, 2, 5, 8, 13, 24, 91])
    def test_values_are_derived_from_the_exponents(self, q):
        for chi in enumerate_characters(q):
            L = chi.group_exponent
            assert len(chi.exponents) == len(chi.values) == q
            for n, (e, v) in enumerate(zip(chi.exponents, chi.values)):
                if gcd(n, q) > 1:
                    assert e == L and v == 0
                else:
                    assert 0 <= e < L
                    assert rotation(v) == Fraction(e, L)

    def test_a_real_table_costs_one_pointer_per_residue(self):
        # L = 10006: the exponents 5003 and the sentinel 10006 are past the
        # small ints, so an int object made afresh per entry would add about
        # 32 bytes a residue; the derived values are not kept either
        q = 10007
        tracemalloc.start()
        try:
            chars = enumerate_real_characters(q)
            held = tracemalloc.get_traced_memory()[0]
            assert chars[1].values.count(-1) == (q - 1) // 2
            assert tracemalloc.get_traced_memory()[0] <= held + 1024  # no q-long tuple kept
        finally:
            tracemalloc.stop()
        assert [c.group_exponent for c in chars] == [q - 1, q - 1]
        assert held <= len(chars) * 8 * q + 4096

    def test_reading_short_tables_leaves_no_blocks_behind(self):
        # a table read 2400 times over: one freed tuple a read kept on an
        # interpreter free list would grow the allocated blocks by about 2000
        chars = enumerate_characters(13)
        for chi in chars:
            assert len(chi.values) == 13
        before = sys.getallocatedblocks()
        for _ in range(200):
            for chi in chars:
                chi.values
        assert sys.getallocatedblocks() - before < 200


class TestKronecker:
    def test_spec_values(self):
        assert kronecker_symbol(-4, 3) == -1
        assert kronecker_symbol(5, 11) == 1
        assert kronecker_symbol(1, 0) == 1
        assert kronecker_symbol(4, 0) == 0
        for n in range(1, 30):
            assert kronecker_symbol(1, n) == 1

    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_euler_criterion_oracle(self, p):
        for d in range(-60, 61):
            assert kronecker_symbol(d, p) == euler_criterion(d, p), (d, p)

    def test_completely_multiplicative_in_n(self):
        for d in (-8, -4, -3, 5, 8, 12, 13):
            for m in range(1, 40):
                for n in range(1, 40):
                    assert (
                        kronecker_symbol(d, m * n)
                        == kronecker_symbol(d, m) * kronecker_symbol(d, n)
                    )

    def test_periodic_mod_abs_d_for_discriminants(self):
        for d in (-20, -8, -7, -4, -3, 5, 8, 12, 13, 21):
            for n in range(1, 3 * abs(d)):
                assert kronecker_symbol(d, n) == kronecker_symbol(d, n + abs(d))

    def test_negative_n(self):
        # (d | -1) is the sign of d
        for d in (-15, -7, -3, 2, 9, 14):
            lhs = kronecker_symbol(d, -5)
            rhs = (-1 if d < 0 else 1) * kronecker_symbol(d, 5)
            assert lhs == rhs

    def test_fundamental_discriminants_hit_exactly_one_primitive_real_character(self):
        discs = [d for d in range(-100, 101) if is_fundamental_discriminant(d)]
        assert discs  # sanity: the range is not empty
        for d in discs:
            q = abs(d)
            table = tuple(kronecker_symbol(d, n) for n in range(q))
            matches = [
                chi
                for chi in enumerate_real_characters(q)
                if chi.values == table
            ]
            assert len(matches) == 1, f"discriminant {d}"
            assert matches[0].conductor == q, f"discriminant {d} should be primitive"


class TestConductor:
    def test_principal_always_one(self):
        for q in (1, 2, 6, 12, 45):
            assert principal_character(q).conductor == 1

    def test_primitive_mod4(self):
        chi = enumerate_real_characters(4)[1]
        assert chi.conductor == 4

    def test_induced_mod8_from_mod4(self):
        base = enumerate_real_characters(4)[1]
        values = tuple(
            base.values[n % 4] if gcd(n, 8) == 1 else 0 for n in range(8)
        )
        induced = DirichletCharacter.from_values(8, values)
        assert induced.conductor == 4

    @pytest.mark.parametrize("q", [1, 3, 4, 8, 9, 12, 16, 24, 36, 40, 48, 60, 64, 72, 96, 120])
    def test_pairwise_oracle(self, q):
        """f is an induced modulus iff chi is constant on unit classes mod f;
        checked for every character mod q, complex ones included."""
        us = units(q)
        for chi in enumerate_characters(q):
            def induced_modulus(f):
                return all(
                    chi.values[a] == chi.values[b]
                    for i, a in enumerate(us)
                    for b in us[i + 1:]
                    if (a - b) % f == 0
                )

            oracle = min(f for f in range(1, q + 1) if q % f == 0 and induced_modulus(f))
            assert chi.conductor == oracle

    def test_conductor_divides_modulus(self):
        for q in range(1, 50):
            for chi in enumerate_real_characters(q):
                assert q % chi.conductor == 0


class TestJsonExport:
    def test_real_character_schema(self):
        chi = enumerate_real_characters(4)[1]
        d = chi.to_json_dict()
        assert d == {
            "q": 4,
            "real": True,
            "principal": False,
            "conductor": 4,
            "values": [0, 1, 0, -1],
        }

    def test_complex_character_uses_order_exponent_pairs(self):
        chars = enumerate_characters(5)
        complex_chars = [c for c in chars if not c.is_real]
        assert len(complex_chars) == 2
        d = complex_chars[0].to_json_dict()
        assert d["real"] is False
        pair_entries = [v for v in d["values"] if isinstance(v, list)]
        assert pair_entries and all(len(v) == 2 for v in pair_entries)
        # mod 5 has a character of order 4
        assert any(v[0] == 4 for v in pair_entries)

    def test_exact_values_roundtrip_complex(self):
        import cmath

        for chi in enumerate_characters(7):
            for n in range(7):
                v = chi.values[n % chi.modulus]
                z = chi.value_complex(n)
                if isinstance(v, int):
                    assert z == complex(v)
                else:
                    d, k = v
                    assert abs(z - cmath.exp(2j * cmath.pi * k / d)) < 1e-15
