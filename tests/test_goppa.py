"""Code construction at the (n=3, r=2) desk scale: length 8, extended
length 9, small enough for exhaustive codeword sweeps everywhere."""

import pytest

from conftest import random_semilinear
from goppa_orbits.action import act_element
from goppa_orbits.errors import GuardError
from goppa_orbits.gf2field import make_tower
from goppa_orbits.goppa import (
    BinaryCode,
    GoppaSpec,
    build_goppa,
    code_from_orbit_element,
    congruence_holds,
    extend_code,
    permutation_equivalent,
    weight_enumerator,
)


def _row_reduction_kernel(rows, ncols):
    """Kernel of the parity checks `rows` by reduced row echelon form: one vector per free column."""
    rows, reduced = list(rows), {}
    for col in range(ncols):
        i = next((i for i, row in enumerate(rows) if row >> col & 1), None)
        if i is None:
            continue
        pivot = rows.pop(i)
        rows = [row ^ pivot if row >> col & 1 else row for row in rows]
        reduced = {c: row ^ pivot if row >> col & 1 else row for c, row in reduced.items()}
        reduced[col] = pivot
    return [
        1 << free | sum(1 << c for c, row in reduced.items() if row >> free & 1)
        for free in range(ncols)
        if free not in reduced
    ]


@pytest.fixture(scope="module")
def alpha_3_2(tower_3_2):
    return next(a for a in range(tower_3_2.ext.order) if tower_3_2.degree_over(a) == 2)


@pytest.fixture(scope="module")
def spec_3_2(tower_3_2, alpha_3_2):
    return GoppaSpec(
        tower=tower_3_2,
        g=tower_3_2.minimal_polynomial(alpha_3_2),
        alpha=alpha_3_2,
    )


@pytest.fixture(scope="module")
def base_code(spec_3_2):
    return build_goppa(spec_3_2)


class TestBinaryCodeInvariants:
    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError):
            BinaryCode(length=4, generator=(0b0011, 0b0011), parity_check=(), dimension=2)

    def test_rows_beyond_the_length_rejected(self):
        # a bit at or above the length is no coordinate, so it may not pass or fail a check
        for gen, checks in (((0b100,), (0b01,)), ((0b10,), (0b101,)), ((-1,), ())):
            with pytest.raises(ValueError, match="every row must lie in the 2 coordinates"):
                BinaryCode(length=2, generator=gen, parity_check=checks, dimension=1)

    def test_orthogonality_enforced(self):
        with pytest.raises(ValueError):
            BinaryCode(length=4, generator=(0b0011,), parity_check=(0b0001,), dimension=1)

    def test_zero_code(self):
        code = BinaryCode(length=5, generator=(), parity_check=(1, 2, 4, 8, 16), dimension=0)
        assert weight_enumerator(code) == [1, 0, 0, 0, 0, 0]


class TestRecords:
    """The code records are namedtuples that every construction validates."""

    def test_replace_revalidates(self, base_code, spec_3_2, tower_3_2, alpha_3_2):
        dependent = base_code.generator + base_code.generator[:1]
        with pytest.raises(ValueError, match="linearly dependent") as direct:
            BinaryCode(base_code.length, dependent, base_code.parity_check, base_code.dimension + 1)
        with pytest.raises(ValueError, match="linearly dependent") as replaced:
            base_code._replace(generator=dependent, dimension=base_code.dimension + 1)
        assert str(replaced.value) == str(direct.value)
        non_root = 1  # g is irreducible of degree 2, so g(1) != 0
        with pytest.raises(ValueError, match="not a root") as direct:
            GoppaSpec(tower_3_2, spec_3_2.g, non_root)
        with pytest.raises(ValueError, match="not a root") as replaced:
            spec_3_2._replace(alpha=non_root)
        assert str(replaced.value) == str(direct.value)
        assert spec_3_2._replace(alpha=tower_3_2.frob_q(alpha_3_2)).alpha == tower_3_2.frob_q(alpha_3_2)

    def test_fields_equality_hashing_and_immutability(self, base_code, spec_3_2):
        assert BinaryCode._fields == ("length", "generator", "parity_check", "dimension")
        assert GoppaSpec._fields == ("tower", "g", "alpha")
        again = BinaryCode(**base_code._asdict())
        assert again == base_code and hash(again) == hash(base_code)
        assert GoppaSpec(*spec_3_2) == spec_3_2 and hash(GoppaSpec(*spec_3_2)) == hash(spec_3_2)
        for record, field in [(base_code, "dimension"), (spec_3_2, "alpha")]:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                record.extra = 1


class TestBuildGoppa:
    def test_zero_word_is_codeword(self, base_code, spec_3_2):
        assert 0 in set(base_code.codewords())
        assert congruence_holds(spec_3_2, 0)

    def test_dimension_and_distance_bounds(self, base_code):
        # standard binary-Goppa facts used as oracles: k >= q - rn, d >= 2r + 1
        assert base_code.length == 8
        assert base_code.dimension >= 8 - 2 * 3
        nonzero = [w for w in base_code.codewords() if w]
        assert min(w.bit_count() for w in nonzero) >= 5

    def test_every_codeword_satisfies_congruence(self, base_code, spec_3_2):
        for w in base_code.codewords():
            assert congruence_holds(spec_3_2, w)

    def test_non_codewords_fail_congruence(self, base_code, spec_3_2):
        # all 256 words of length 8: the congruence holds exactly on the kernel
        words = set(base_code.codewords())
        assert [w for w in range(1 << base_code.length) if congruence_holds(spec_3_2, w)] == sorted(words)

    def test_alpha_must_be_root(self, tower_3_2, alpha_3_2):
        t = tower_3_2
        g = t.minimal_polynomial(alpha_3_2)
        bad = next(
            b
            for b in range(t.ext.order)
            if t.degree_over(b) == 2 and t.minimal_polynomial(b) != g
        )
        with pytest.raises(ValueError):
            GoppaSpec(tower=t, g=g, alpha=bad)

    def test_reducible_g_rejected(self, tower_3_2):
        with pytest.raises(ValueError):
            GoppaSpec(tower=tower_3_2, g=(0, 0, 1), alpha=0)


class TestExtension:
    def test_zero_maps_to_zero(self, base_code):
        ext = extend_code(base_code)
        assert 0 in set(ext.codewords())

    def test_extended_words_have_even_weight(self, base_code):
        ext = extend_code(base_code)
        assert all(w.bit_count() % 2 == 0 for w in ext.codewords())

    def test_dimension_preserved_here(self, base_code):
        # recorded for this instance; extension never loses dimension
        ext = extend_code(base_code)
        assert ext.dimension == base_code.dimension == 2
        assert ext.length == 9


class TestWeightEnumerator:
    def test_histogram_shape(self, base_code):
        hist = weight_enumerator(base_code)
        assert hist[0] == 1
        assert sum(hist) == 1 << base_code.dimension
        assert len(hist) == base_code.length + 1

    def test_guard(self):
        gen = tuple(1 << i for i in range(25))
        code = BinaryCode(length=25, generator=gen, parity_check=(), dimension=25)
        with pytest.raises(GuardError):
            weight_enumerator(code)


class TestCodeFromOrbitElement:
    def test_conjugates_share_the_code(self, tower_3_2, alpha_3_2):
        first = code_from_orbit_element(tower_3_2, alpha_3_2)
        second = code_from_orbit_element(tower_3_2, tower_3_2.frob_q(alpha_3_2))
        assert first.generator == second.generator

    @pytest.mark.parametrize("n, r", [(4, 3), (5, 3), (7, 3), (9, 2)])
    def test_generator_is_the_row_reduction_kernel(self, n, r):
        tower = make_tower(n, r)
        q, ext = tower.base.order, tower.ext
        alpha = next(a for a in range(ext.order) if tower.degree_over(a) == r)
        h_row = [ext.inv(alpha ^ e) for e in tower.embedded]
        rows = [sum((h >> k & 1) << i for i, h in enumerate(h_row)) for k in range(ext.m)]
        kernel = sorted(_row_reduction_kernel(rows, q))
        code = code_from_orbit_element(tower, alpha)
        assert code.generator == tuple(v | (v.bit_count() & 1) << q for v in kernel)
        assert code.dimension == len(kernel) >= q - n * r

    def test_wrong_degree_rejected(self, tower_3_2):
        with pytest.raises(ValueError):
            code_from_orbit_element(tower_3_2, tower_3_2.embed(5))

    def test_translates_share_weight_enumerator(self, tower_3_2, alpha_3_2, rng):
        reference = weight_enumerator(code_from_orbit_element(tower_3_2, alpha_3_2))
        for _ in range(5):
            g = random_semilinear(tower_3_2.base, 6, rng)
            beta = act_element(tower_3_2, g, alpha_3_2)
            assert weight_enumerator(code_from_orbit_element(tower_3_2, beta)) == reference

    def test_orbit_histogram_census(self, tower_3_2):
        # partition all degree-2 elements into semi-linear orbits and
        # record the weight-enumerator census: a regression anchor, since
        # distinct orbits may or may not share histograms
        t = tower_3_2
        from goppa_orbits.action import pgl_enumerate

        mats = list(pgl_enumerate(t.base))
        remaining = {a for a in range(t.ext.order) if t.degree_over(a) == 2}
        assert len(remaining) == 56
        censuses = []
        while remaining:
            seed = min(remaining)
            orbit = {
                act_element(t, (mat, i), seed) for mat in mats for i in range(6)
            }
            censuses.append(
                (len(orbit), tuple(weight_enumerator(code_from_orbit_element(t, seed))))
            )
            remaining -= orbit
        # one orbit covers everything at this scale
        assert censuses == [(56, (1, 0, 0, 0, 0, 0, 3, 0, 0, 0))]


class TestPermutationSearch:
    def test_translate_pair_is_equivalent(self, tower_3_2, alpha_3_2, rng):
        g = random_semilinear(tower_3_2.base, 6, rng)
        beta = act_element(tower_3_2, g, alpha_3_2)
        first = code_from_orbit_element(tower_3_2, alpha_3_2)
        second = code_from_orbit_element(tower_3_2, beta)
        assert permutation_equivalent(first, second)

    def test_different_enumerators_rejected_fast(self):
        other = BinaryCode(
            length=8,
            generator=(0b11,),
            parity_check=(0b11,) + tuple(1 << i for i in range(2, 8)),
            dimension=1,
        )
        padded = BinaryCode(
            length=8,
            generator=(0b11111111,),
            parity_check=tuple(0b11 << i for i in range(7)),
            dimension=1,
        )
        assert not permutation_equivalent(other, padded)

    def test_length_guard(self):
        big = BinaryCode(
            length=10,
            generator=(1,),
            parity_check=tuple(1 << i for i in range(1, 10)),
            dimension=1,
        )
        with pytest.raises(GuardError):
            permutation_equivalent(big, big)
