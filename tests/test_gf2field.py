"""Field-tower tests.

The brute-force oracles here (trial-division irreducibility over GF(2),
repeated-multiplication element orders) are deliberately independent of
the library's own fast paths.
"""

import pytest

from goppa_orbits.errors import GuardError
from goppa_orbits.gf2field import (
    GF2m,
    Tower,
    elem_to_bits,
    gf2_kernel,
    gf2_span,
    make_field,
    make_tower,
    modulus_from_text,
    modulus_to_text,
    smallest_irreducible,
    subfield_elements,
)
from goppa_orbits.polyq import divisor_polynomials_by_minpoly, poly_frobenius


# -- oracle: GF(2)[x] trial division on bit-packed ints ---------------------

def _gf2_divides(d, f):
    dd, df = d.bit_length() - 1, f.bit_length() - 1
    while df >= dd:
        f ^= d << (df - dd)
        df = f.bit_length() - 1
    return f == 0


def _oracle_irreducible(f):
    m = f.bit_length() - 1
    if m < 1:
        return False
    for d in range(2, 1 << m):
        if d.bit_length() - 1 >= 1 and _gf2_divides(d, f):
            return False
    return True


def _oracle_smallest_irreducible(m):
    for low in range(1 << m):
        f = (1 << m) | low
        if _oracle_irreducible(f):
            return f
    raise AssertionError


class TestModulusSelection:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_exhaustive_scan(self, m):
        assert smallest_irreducible(m) == _oracle_smallest_irreducible(m)

    def test_binary_irreducibility_matches_trial_division(self):
        from goppa_orbits.gf2field import gf2_is_irreducible

        for f in range(2, 1 << 9):
            assert gf2_is_irreducible(f) == _oracle_irreducible(f), bin(f)

    def test_known_moduli(self):
        assert smallest_irreducible(1) == 0b10  # x
        assert smallest_irreducible(3) == 0b1011  # x^3+x+1
        assert smallest_irreducible(5) == 0b100101  # x^5+x^2+1

    def test_degree_guard(self):
        with pytest.raises(GuardError):
            make_field(0)
        with pytest.raises(GuardError):
            make_field(65)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            GF2m(3, 0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1)

    def test_text_forms_round_trip(self):
        mod = smallest_irreducible(3)
        assert modulus_to_text(mod) == "x^3+x+1"
        assert elem_to_bits(mod, 4) == "1101"
        assert modulus_from_text("x^3+x+1") == mod
        assert modulus_from_text("1101") == mod

    @pytest.mark.parametrize("text", ["x^3+x^+1", "x^a+1", "x^3+y"])
    def test_malformed_term_named(self, text):
        with pytest.raises(ValueError, match=r"cannot parse polynomial term"):
            modulus_from_text(text)


class TestArithmetic:
    @pytest.mark.parametrize("m", [1, 3, 6, 11, 20, 35])
    def test_field_axioms_sampled(self, m, rng):
        gf = make_field(m)
        for _ in range(200):
            a = rng.randrange(gf.order)
            b = rng.randrange(gf.order)
            assert gf.mul(a, b) == gf.mul(b, a)
            if a:
                assert gf.mul(a, gf.inv(a)) == 1

    def test_hand_reduction_in_gf8(self, gf8):
        # x * x^2 = x^3 = x + 1 mod x^3+x+1
        assert gf8.mul(0b010, 0b100) == 0b011

    def test_inv_zero_raises(self, gf8):
        with pytest.raises(ZeroDivisionError):
            gf8.inv(0)

    def test_out_of_range_rejected(self, gf8):
        with pytest.raises(ValueError):
            gf8.mul(8, 1)

    @pytest.mark.parametrize("bad", [8, -1])
    def test_square_out_of_range_rejected(self, gf8, bad):
        with pytest.raises(ValueError, match="is not an element of GF"):
            gf8.square(bad)

    def test_table_and_clmul_paths_agree(self, rng):
        gf = make_field(9)
        for _ in range(300):
            a, b = rng.randrange(512), rng.randrange(512)
            assert gf.mul(a, b) == gf._mul_raw(a, b)


class TestTables:
    """exp and log against the plain recurrence exp[i + 1] = exp[i] * g by `_mul_raw`."""

    @staticmethod
    def _assert_tables_follow_the_generator(gf):
        g, powers, v = gf.generator, [], 1
        for _ in range(gf.mult_order):
            powers.append(v)
            v = gf._mul_raw(v, g)
        assert v == 1 and sorted(powers) == list(range(1, gf.order))  # g is primitive
        assert gf._exp == powers * 2
        assert gf._log[0] == -1 and all(gf._log[a] == i for i, a in enumerate(powers))
        assert all(gf._exp[gf._log[a]] == a for a in range(1, gf.order))

    @pytest.mark.parametrize("m", range(1, 17))
    def test_exhaustive_up_to_the_table_ceiling(self, m):
        self._assert_tables_follow_the_generator(make_field(m))

    def test_generators_cover_one_to_three_set_bits(self):
        # the fold table has 2^(deg g) entries; m = 9 and 14 take g = x^2 + x + 1
        assert {make_field(m).generator for m in range(1, 17)} == {1, 2, 3, 7}
        assert [m for m in range(1, 17) if make_field(m).generator == 7] == [9, 14]

    def test_modulus_where_x_is_not_primitive(self):
        gf = GF2m(4, modulus_from_text("x^4+x^3+x^2+x+1"))
        assert gf._pow_raw(2, 5) == 1  # x has order 5
        assert gf.generator == 3
        self._assert_tables_follow_the_generator(gf)


class TestProductRows:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_list_table_exhaustive(self, m):
        gf = make_field(m)
        assert isinstance(gf.rows, list) and len(gf.rows) == gf.order
        for a, row in enumerate(gf.rows):
            assert row == [gf._mul_raw(a, b) for b in range(gf.order)]

    @pytest.mark.parametrize("m", range(9, 18))
    def test_computed_rows_sampled(self, m, rng):
        # m = 9 to 16 multiply through exp/log, zero rows and columns aside; m = 17 through _mul_raw
        gf = make_field(m)
        pairs = [(a, b) for a in range(16) for b in range(16)]
        pairs += [(rng.randrange(gf.order), rng.randrange(gf.order)) for _ in range(300)]
        for a, b in pairs:
            assert gf.rows[a][b] == gf._mul_raw(a, b)
            assert gf.rows[0][b] == gf.rows[a][0] == 0

    @pytest.mark.parametrize("m", [9, 10, 16, 17, 64])
    def test_no_list_table_above_m8(self, m):
        # a 2^(2m)-entry list at m = 10 alone would add about 8 MiB
        gf = make_field(m)
        assert not isinstance(gf.rows, list)
        assert not isinstance(gf.rows[gf.order - 1], list)


class TestFrobeniusAndTrace:
    @pytest.mark.parametrize("m", [1, 3, 5, 8])
    def test_frobenius_is_automorphism(self, m, rng):
        gf = make_field(m)
        for _ in range(100):
            a, b = rng.randrange(gf.order), rng.randrange(gf.order)
            k = rng.randrange(2 * m)
            assert gf.frobenius(a, 0) == a
            assert gf.frobenius(a, m) == a
            assert gf.frobenius(a ^ b, k) == gf.frobenius(a, k) ^ gf.frobenius(b, k)
            assert gf.frobenius(gf.mul(a, b), k) == gf.mul(gf.frobenius(a, k), gf.frobenius(b, k))

    @pytest.mark.parametrize("m", range(1, 11))
    def test_frobenius_is_repeated_squaring_everywhere(self, m):
        # the log-table read against squaring, for every element and every k < m
        gf = make_field(m)
        for a in gf.elements():
            squares = [a]
            for _ in range(m - 1):
                squares.append(gf.square(squares[-1]))
            assert [gf.frobenius(a, k) for k in range(m)] == squares

    @pytest.mark.parametrize("m", [11, 12, 13, 14, 15, 16, 17, 24])
    def test_frobenius_is_repeated_squaring_sampled(self, m, rng):
        # m > 16 has no log tables and squares; k outside 0..m-1 is reduced mod m
        gf = make_field(m)
        for a in [0, 1, gf.order - 1] + [rng.randrange(gf.order) for _ in range(40)]:
            k = rng.randrange(-m, 3 * m)
            b = a
            for _ in range(k % m):
                b = gf.square(b)
            assert gf.frobenius(a, k) == b

    def test_frobenius_of_zero_multiplies_nothing(self, monkeypatch):
        # zero is fixed at once, with or without log tables
        def refuse(a, b):
            raise AssertionError("_mul_raw called")

        gf8, gf17 = make_field(3), make_field(17)
        monkeypatch.setattr(gf8, "_mul_raw", refuse)
        monkeypatch.setattr(gf17, "_mul_raw", refuse)
        f = (0, 3, 0, 0, 5, 1)
        assert poly_frobenius(gf8, f, 2) == tuple(gf8.square(gf8.square(a)) for a in f) == (0, 7, 0, 0, 3, 1)
        assert all(gf17.frobenius(0, k) == 0 for k in range(-17, 35))

    @pytest.mark.parametrize("n,r", [(3, 5), (3, 7), (5, 7), (5, 9)])
    def test_trace_image_identity(self, n, r):
        # {h^2 + h} and {h^(2^r) + h} coincide when gcd(r, n) = 1
        gf = make_field(n)
        squares = {gf.square(h) ^ h for h in gf.elements()}
        powers = {gf.frobenius(h, r) ^ h for h in gf.elements()}
        assert squares == powers


def _random_images(rng):
    """Image lists of k <= 10 inputs, narrow enough that dependencies are common."""
    for _ in range(300):
        k, width = rng.randrange(11), rng.randrange(1, 9)
        yield [rng.randrange(1 << width) for _ in range(k)]


def _image_of(images, v):
    image = 0
    for i, a in enumerate(images):
        if v >> i & 1:
            image ^= a
    return image


class TestGf2Span:
    @pytest.mark.parametrize("start", [None, 0b1011_0110_1001])
    def test_entry_k_xors_the_basis_at_the_bits_of_k(self, rng, start):
        for size in range(7):
            basis = [rng.getrandbits(12) for _ in range(size)]
            span = gf2_span(basis) if start is None else gf2_span(basis, start)
            assert len(span) == 1 << size
            for k, entry in enumerate(span):
                assert entry == _image_of(basis, k) ^ (start or 0)


class TestGf2Kernel:
    def test_span_matches_brute_force(self, rng):
        for images in _random_images(rng):
            basis = gf2_kernel(images)
            span = {0}
            for b in basis:
                span |= {e ^ b for e in span}
            assert len(span) == 1 << len(basis)
            assert span == {v for v in range(1 << len(images)) if _image_of(images, v) == 0}

    def test_reduced_form(self, rng):
        # input i is a pivot when images[i] is outside the span of the images before it
        for images in _random_images(rng):
            span, pivots = {0}, 0
            for i, a in enumerate(images):
                if a not in span:
                    span |= {e ^ a for e in span}
                    pivots |= 1 << i
            basis = gf2_kernel(images)
            free = [v & ~pivots for v in basis]
            # one free input per vector, its own and its highest bit, in input order
            assert all(f.bit_count() == 1 and f.bit_length() == v.bit_length() for f, v in zip(free, basis))
            assert sum(free) == (1 << len(images)) - 1 - pivots
            assert free == sorted(free)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_subfields_match_the_frobenius_scan(self, m):
        gf = make_field(m)
        for d in range(1, m + 1):
            if m % d == 0:
                assert subfield_elements(gf, d) == [z for z in gf.elements() if gf.frobenius(z, d) == z]


class TestTower:
    def test_embed_fixes_identity(self, tower_3_2):
        assert tower_3_2.embed(0) == 0
        assert tower_3_2.embed(1) == 1

    def test_embed_is_homomorphism_exhaustive(self, tower_3_2):
        t = tower_3_2
        for a in range(8):
            for b in range(8):
                assert t.embed(t.base.mul(a, b)) == t.ext.mul(t.embed(a), t.embed(b))
                assert t.embed(a ^ b) == t.embed(a) ^ t.embed(b)

    def test_embed_is_homomorphism_gf32_exhaustive(self, tower_5_7):
        t = tower_5_7
        for a in range(32):
            for b in range(32):
                assert t.embed(t.base.mul(a, b)) == t.ext.mul(t.embed(a), t.embed(b))

    def test_tower_coherence(self, tower_3_2, tower_5_7):
        # embedded base elements are fixed by the q-power Frobenius
        for t in (tower_3_2, tower_5_7):
            for a in range(t.base.order):
                assert t.frob_q(t.embed(a)) == t.embed(a)

    def test_embedded_generator_order(self, tower_3_2):
        # brute-force multiplication oracle for the order
        t = tower_3_2
        eg = t.embed(2)
        order, v = 1, eg
        while v != 1:
            v = t.ext.mul(v, eg)
            order += 1
        assert order == 7

    def test_root_is_smallest(self):
        # make_tower stops at the first root; this scans every subfield element
        for n, r in [(3, 2), (3, 5), (7, 5), (8, 2)]:
            t = make_tower(n, r)
            roots = [z for z in subfield_elements(t.ext, n) if _eval_base_modulus(t, z) == 0]
            assert len(roots) == n
            assert t.root == min(roots)

    def test_unembed_round_trip(self, tower_5_7):
        t = tower_5_7
        for a in range(32):
            assert t.unembed(t.embed(a)) == a

    def test_unembed_outside_image_raises(self, tower_3_2):
        t = tower_3_2
        img = {t.embed(a) for a in range(8)}
        outside = [y for y in range(t.ext.order) if y not in img]
        assert len(outside) == 56
        for y in outside:
            with pytest.raises(ValueError, match="not in the embedded base field"):
                t.unembed(y)

    @pytest.mark.parametrize("n, r", [(3, 2), (5, 7), (8, 2)])
    def test_embedded_is_the_power_basis_sum(self, n, r):
        # embedded[a] is the XOR of root^i over the bits i of a
        t = make_tower(n, r)
        powers = [1]
        for _ in range(n - 1):
            powers.append(t.ext.mul(powers[-1], t.root))
        assert len(t.embedded) == t.base.order
        for a in range(t.base.order):
            expected = 0
            for i, power in enumerate(powers):
                if (a >> i) & 1:
                    expected ^= power
            assert t.embedded[a] == expected

    def test_base_degree_above_16_refused_before_the_table(self, monkeypatch):
        base, ext = make_field(17), make_field(34)
        calls = []
        # the root check and the table both multiply in ext; neither may run
        monkeypatch.setattr(ext, "mul", lambda a, b: calls.append((a, b)) or 0)
        with pytest.raises(GuardError, match="^tower base degree 17 exceeds the ceiling 16 "):
            Tower(base, ext, 0)
        assert calls == []

    def test_degree_overflow_guard(self):
        with pytest.raises(GuardError):
            make_tower(5, 13)  # 65 bits

    def test_bad_root_rejected(self, tower_3_2):
        with pytest.raises(ValueError):
            Tower(tower_3_2.base, tower_3_2.ext, tower_3_2.root ^ 1)


def _eval_base_modulus(t, z):
    acc = 0
    mod = t.base.modulus
    for i in range(mod.bit_length() - 1, -1, -1):
        acc = t.ext.mul(acc, z)
        if (mod >> i) & 1:
            acc ^= 1
    return acc


class TestDegreeAndMinimalPolynomial:
    def test_degree_of_zero(self, tower_3_5):
        assert tower_3_5.degree_over(0) == 1

    def test_degree_of_full_generator(self, tower_3_5):
        # a multiplicative generator of GF(2^15)* has full degree (r = 5 prime)
        assert tower_3_5.degree_over(tower_3_5.ext.generator) == 5

    def test_degree_counts(self, tower_3_5):
        # exhaustive count of degree-5 elements vs the Möbius value 8^5 - 8
        count = sum(1 for a in range(tower_3_5.ext.order) if tower_3_5.degree_over(a) == 5)
        assert count == 32768 - 8 == 32760

    def test_base_elements_give_linear_minpoly(self, tower_3_2):
        t = tower_3_2
        for a in range(8):
            assert t.minimal_polynomial(t.embed(a)) == (a, 1)

    def test_minpoly_vanishes_at_argument(self, tower_3_5, rng):
        t = tower_3_5
        for _ in range(50):
            alpha = rng.randrange(t.ext.order)
            mp = t.minimal_polynomial(alpha)
            assert len(mp) - 1 == t.degree_over(alpha)
            acc = 0
            for c in reversed(mp):
                acc = t.ext.mul(acc, alpha) ^ t.embed(c)
            assert acc == 0

    def test_minpoly_irreducible_by_trial_division(self, tower_3_5, rng):
        # oracle: no factor of degree <= 2 over GF(8)
        from goppa_orbits.polyq import poly_divmod

        t = tower_3_5
        gf = t.base
        small = [(a, 1) for a in range(8)]
        small += [
            (c0, c1, 1)
            for c0 in range(8)
            for c1 in range(8)
            if all(poly_eval_oracle(gf, (c0, c1, 1), a) for a in range(8))
        ]
        for _ in range(10):
            alpha = rng.randrange(t.ext.order)
            if t.degree_over(alpha) != 5:
                continue
            mp = t.minimal_polynomial(alpha)
            assert all(poly_divmod(gf, mp, d)[1] != () for d in small)


def poly_eval_oracle(gf, f, a):
    acc = 0
    for c in reversed(f):
        acc = gf.mul(acc, a) ^ c
    return acc


class TestEmbeddingIndependence:
    # Every root of the base modulus is a Frobenius conjugate of the first,
    # so squaring the root gives the tower under a second embedding.
    def test_second_root_gives_identical_divisor_set(self, tower_3_5):
        t = tower_3_5
        second = Tower(t.base, t.ext, t.ext.square(t.root))
        assert second.root != t.root
        assert divisor_polynomials_by_minpoly(second) == divisor_polynomials_by_minpoly(t)

    def test_second_root_is_still_homomorphism(self, tower_3_2):
        t = Tower(tower_3_2.base, tower_3_2.ext, tower_3_2.ext.square(tower_3_2.root))
        assert t.root != tower_3_2.root
        for a in range(8):
            for b in range(8):
                assert t.embed(t.base.mul(a, b)) == t.ext.mul(t.embed(a), t.embed(b))


class TestElementBits:
    def test_round_trip(self):
        assert elem_to_bits(0b011, 3) == "110"
        # read back LSB first
        assert int(elem_to_bits(37, 6)[::-1], 2) == 37
