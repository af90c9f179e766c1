"""Group structure and both actions.

Random checks use a fixed seed; exhaustive checks are kept to the q = 8
fields where a full sweep is cheap.  The heavier exhaustive sweeps (all
of I_5, all of I_7 sampling) live in the acceptance suite.
"""

from itertools import product
from math import gcd

import pytest

from conftest import random_irreducible, random_matrix, random_semilinear
from goppa_orbits import action, polyq
from goppa_orbits.action import (
    IDENTITY,
    _irreducible_seed,
    _pgl_orbit_members,
    _plan,
    _sweep,
    _taylor_shift,
    act_element,
    act_poly,
    act_poly_semilinear,
    agl_decompose,
    agl_enumerate,
    count_divisors_in_orbit,
    fixed_orbit_classes,
    is_orbit_sigma_r_fixed,
    mat_canonical,
    mat_inv,
    mat_mul,
    orbit_canonical,
    pgl2_binary_subgroup,
    pgl_element_orbit,
    pgl_enumerate,
    pgl_orbit,
    pgl_orbits,
    pgammal_compose,
    pgammal_inverse,
    stabilizer,
)
from goppa_orbits.errors import GuardError, InternalCheckError
from goppa_orbits.gf2field import make_field, make_tower
from goppa_orbits.polyq import (
    Parameters,
    count_irreducibles,
    divisor_polynomials,
    enumerate_irreducibles,
    is_irreducible,
    poly_frobenius,
    poly_eval,
    poly_mul,
    poly_sort_key,
)


SHIFTS_AT_11_2 = r"^a degree-2 sweep over GF\(2048\) takes 4198400 Taylor shifts, which exceeds the 2\^21 guard$"
LOG_CEILING_AT_17 = r"^GF\(2\^17\) exceeds the 2\^16 log-table ceiling of the coset sweep$"


def poly_scale(gf, c, f):
    return tuple(gf.mul(c, a) for a in f)


class TestGroupEnumeration:
    def test_pgl_sizes(self, gf2, gf8, gf32):
        assert len(list(pgl_enumerate(gf2))) == 2**3 - 2 == 6
        mats8 = list(pgl_enumerate(gf8))
        assert len(mats8) == len(set(mats8)) == 8**3 - 8 == 504
        mats32 = list(pgl_enumerate(gf32))
        assert len(mats32) == len(set(mats32)) == 32**3 - 32 == 32736

    def test_canonical_form(self, gf8):
        for mat in pgl_enumerate(gf8):
            first_nonzero = next(e for e in mat if e)
            assert first_nonzero == 1
            assert mat_canonical(gf8, mat) == mat

    def test_singular_rejected(self, gf8):
        with pytest.raises(ValueError):
            mat_canonical(gf8, (1, 1, 1, 1))

    def test_agl_sizes_and_index(self, gf2, gf8):
        assert len(list(agl_enumerate(gf2))) == 2
        agl8 = set(agl_enumerate(gf8))
        assert len(agl8) == 8 * 7 == 56
        assert 504 // 56 == 8 + 1
        assert agl8 <= set(pgl_enumerate(gf8))

    def test_one_pgl_guard_admits_q_128_refuses_q_256(self):
        # |PGL2(F_q)| = q^3 - q <= 2^21: every walk over the whole group or
        # orbit refuses q = 256 before doing any work
        assert next(pgl_enumerate(make_field(7))) == IDENTITY
        gf256 = make_field(8)
        f = (32, 1, 1)  # an irreducible quadratic over GF(256)
        assert is_irreducible(gf256, f)
        refused = [
            lambda: next(pgl_enumerate(gf256)),
            lambda: next(agl_enumerate(gf256)),
            lambda: pgl_orbit(gf256, f),
            lambda: pgl_element_orbit(make_tower(8, 2), 1 << 8),
        ]
        for call in refused:
            with pytest.raises(GuardError, match=r"\|PGL2\(F_256\)\| = 16776960 exceeds the 2\^21 guard"):
                call()
        # the sweep has its own guard, priced in Taylor shifts: 66 048 here;
        # I_2 is one orbit, so |Stab| = 2(q + 1)
        assert len(stabilizer(gf256, f)) == 2 * (256 + 1)

    def test_pgl_orbits_guard_precedes_the_sieve(self, monkeypatch):
        def no_sieve(gf, r):
            raise AssertionError("enumerate_irreducibles ran before the group-size guard")

        monkeypatch.setattr(action, "enumerate_irreducibles", no_sieve)
        with pytest.raises(GuardError, match=r"^\|PGL2\(F_1024\)\| = 1073740800 exceeds the 2\^21 guard$"):
            next(pgl_orbits(make_field(10), 2))

    def test_seed_guards_precede_ben_or(self, monkeypatch):
        def no_test(gf, f):
            raise AssertionError("is_irreducible ran before the group-size guard")

        monkeypatch.setattr(action, "is_irreducible", no_test)
        _irreducible_seed.cache_clear()
        seed, guard = (32, 1, 1), r"^\|PGL2\(F_256\)\| = 16776960 exceeds the 2\^21 guard$"
        with pytest.raises(GuardError, match=guard):
            pgl_orbit(make_field(8), seed)
        refused = [
            (Parameters(11, 2, strict=False), seed, SHIFTS_AT_11_2),
            (Parameters(17, 5, strict=False), (1, 0, 0, 0, 0, 1), LOG_CEILING_AT_17),
        ]
        for params, f, guard in refused:
            for method in ("divisibility", "direct"):
                with pytest.raises(GuardError, match=guard):
                    is_orbit_sigma_r_fixed(f, params, method)
        assert _irreducible_seed.cache_info().currsize == 0

    def test_sweep_guard_prices_the_taylor_shifts(self):
        # 2(q + 1) shifts at odd r, q(q + 1) + q at even r, against 2^21:
        # q = 1024 is the last field an even-degree sweep admits
        gf1024, gf2048 = make_field(10), make_field(11)
        f = next(enumerate_irreducibles(gf1024, 2))
        assert len(stabilizer(gf1024, f)) == 2 * (1024 + 1)
        quadratic = (1 << 10, 1, 1)
        for call in (lambda: stabilizer(gf2048, quadratic), lambda: orbit_canonical(gf2048, quadratic)):
            with pytest.raises(GuardError, match=SHIFTS_AT_11_2):
                call()
        # the same field at odd r: 4098 shifts; seeds over GF(2^17) have no log tables
        assert stabilizer(gf2048, (1, 0, 1, 0, 0, 1)) == [IDENTITY]
        with pytest.raises(GuardError, match=LOG_CEILING_AT_17):
            orbit_canonical(make_field(17), (1, 0, 0, 0, 0, 1))
        with pytest.raises(GuardError, match=LOG_CEILING_AT_17):
            fixed_orbit_classes(Parameters(17, 5))

    def test_agl_closed_under_product(self, gf8, rng):
        agl8 = list(agl_enumerate(gf8))
        agl_set = set(agl8)
        for _ in range(100):
            x = agl8[rng.randrange(56)]
            y = agl8[rng.randrange(56)]
            assert mat_mul(gf8, x, y) in agl_set
            assert mat_inv(gf8, x) in agl_set


class TestSemiLinearGroup:
    def test_composition_law_sampled(self, gf8, rng):
        rn = 15
        for _ in range(500):
            g = random_semilinear(gf8, rn, rng)
            h = random_semilinear(gf8, rn, rng)
            k = random_semilinear(gf8, rn, rng)
            assert pgammal_compose(
                gf8, rn, pgammal_compose(gf8, rn, g, h), k
            ) == pgammal_compose(gf8, rn, g, pgammal_compose(gf8, rn, h, k))

    def test_identity_and_inverse(self, gf8, rng):
        rn = 15
        identity = (IDENTITY, 0)
        for _ in range(200):
            g = random_semilinear(gf8, rn, rng)
            gi = pgammal_inverse(gf8, rn, g)
            assert pgammal_compose(gf8, rn, g, identity) == g
            assert pgammal_compose(gf8, rn, identity, g) == g
            assert pgammal_compose(gf8, rn, g, gi) == identity
            assert pgammal_compose(gf8, rn, gi, g) == identity


class TestElementAction:
    def test_identity(self, tower_3_5, rng):
        for _ in range(50):
            alpha = rng.randrange(tower_3_5.ext.order)
            if tower_3_5.degree_over(alpha) < 2:
                continue
            assert act_element(tower_3_5, (IDENTITY, 0), alpha) == alpha

    def test_inversion_matrix(self, tower_3_5, rng):
        flip = (0, 1, 1, 0)
        for _ in range(50):
            alpha = rng.randrange(1, tower_3_5.ext.order)
            if tower_3_5.degree_over(alpha) < 2:
                continue
            assert act_element(tower_3_5, (flip, 0), alpha) == tower_3_5.ext.inv(alpha)

    def test_compatibility_sampled(self, tower_3_5, rng):
        t = tower_3_5
        rn = 15
        for _ in range(300):
            alpha = rng.randrange(t.ext.order)
            if t.degree_over(alpha) != 5:
                continue
            g = random_semilinear(t.base, rn, rng)
            h = random_semilinear(t.base, rn, rng)
            gh = pgammal_compose(t.base, rn, g, h)
            assert act_element(t, gh, alpha) == act_element(t, g, act_element(t, h, alpha))

    @pytest.mark.parametrize("mat", [(1, 1, 1, 1), (0, 0, 0, 0), (2, 4, 1, 2)])
    def test_singular_matrix_rejected(self, tower_3_5, mat):
        # (1, 1, 1, 1) used to send alpha to 1, and the zero matrix to blame alpha's degree
        alpha = 2
        assert tower_3_5.degree_over(alpha) == 5
        with pytest.raises(ValueError, match=rf"^matrix \({', '.join(map(str, mat))}\) is singular$"):
            act_element(tower_3_5, (mat, 0), alpha)

    def test_degree_preserved(self, tower_3_5, rng):
        t = tower_3_5
        for _ in range(100):
            alpha = rng.randrange(t.ext.order)
            d = t.degree_over(alpha)
            if d < 2:
                continue
            g = random_semilinear(t.base, 15, rng)
            assert t.degree_over(act_element(t, g, alpha)) == d


class TestPolyAction:
    def test_identity(self, gf8, rng):
        for _ in range(30):
            f = random_irreducible(gf8, 5, rng)
            assert act_poly(gf8, IDENTITY, f) == f

    def test_output_monic_irreducible_sampled(self, gf8, rng):
        for _ in range(200):
            f = random_irreducible(gf8, 5, rng)
            g = act_poly(gf8, random_matrix(gf8, rng), f, frob=rng.randrange(15))
            assert len(g) == 6 and g[-1] == 1
            assert is_irreducible(gf8, g)

    def test_root_compatibility(self, tower_3_5, rng):
        t = tower_3_5
        gf = t.base
        for _ in range(100):
            alpha = rng.randrange(t.ext.order)
            if t.degree_over(alpha) != 5:
                continue
            f = t.minimal_polynomial(alpha)
            g = random_semilinear(gf, 15, rng)
            image_poly = act_poly_semilinear(gf, g, f)
            image_alpha = act_element(t, g, alpha)
            embedded = tuple(t.embed(c) for c in image_poly)
            assert poly_eval(t.ext, embedded, image_alpha) == 0

    def test_composition(self, gf8, rng):
        rn = 15
        for _ in range(200):
            f = random_irreducible(gf8, 5, rng)
            g = random_semilinear(gf8, rn, rng)
            h = random_semilinear(gf8, rn, rng)
            gh = pgammal_compose(gf8, rn, g, h)
            assert act_poly_semilinear(gf8, g, act_poly_semilinear(gf8, h, f)) == act_poly_semilinear(gf8, gh, f)

    def test_sigma_n_fixes_coefficientwise(self, gf8, rng):
        # coefficients live in GF(q), so the q-power Frobenius is trivial
        for _ in range(30):
            f = random_irreducible(gf8, 5, rng)
            assert poly_frobenius(gf8, f, 3) == f
            assert act_poly(gf8, IDENTITY, f, frob=3) == f

    def test_non_monic_rejected(self, gf8):
        with pytest.raises(ValueError):
            act_poly(gf8, IDENTITY, (1, 1, 2))

    @pytest.mark.parametrize("bad", [8, -1])
    def test_non_elements_rejected(self, gf8, bad):
        # rows[-1] would silently read the last row: every entry point checks
        f = (3, 1, 0, 1)
        for call in (
            lambda: act_poly(gf8, IDENTITY, (bad, 1, 0, 1)),
            lambda: act_poly(gf8, (1, bad, 0, 1), f),
            lambda: act_poly(gf8, (1, 0, 0, bad), f),
            lambda: pgl_orbit(gf8, (bad, 1, 0, 1)),
            lambda: stabilizer(gf8, (bad, 1, 0, 1)),
        ):
            with pytest.raises(ValueError, match="is not an element of GF"):
                call()

    @pytest.mark.parametrize("mat", [(1, 1, 1, 1), (0, 0, 0, 0), (2, 4, 1, 2)])
    def test_singular_matrix_rejected(self, gf8, mat):
        # (1, 1, 1, 1) used to return (x + 1)^5, and the zero matrix to raise the arithmetic-bug class
        f = (1, 0, 0, 1, 0, 1)
        assert is_irreducible(gf8, f)
        for frob in (0, 1):
            with pytest.raises(ValueError, match=rf"^matrix \({', '.join(map(str, mat))}\) is singular$"):
                act_poly(gf8, mat, f, frob)

    def test_degree_drop_raises(self, gf8):
        # (x + 1) * x is reducible with roots in F_q; a matrix sending a
        # root to infinity drops the degree and must raise
        reducible = (0, 1, 1)  # x^2 + x = x(x+1)
        with pytest.raises(InternalCheckError):
            act_poly(gf8, (0, 1, 1, 1), reducible)


class TestOrbitsAndStabilizers:
    def test_all_orbits_size_504(self, gf8):
        # partition I_5 over GF(8): 13 orbits, each of full size
        from goppa_orbits.polyq import enumerate_irreducibles

        seen = set()
        sizes = []
        for f in enumerate_irreducibles(gf8, 5):
            if f in seen:
                continue
            orbit = pgl_orbit(gf8, f)
            sizes.append(orbit.size)
            seen |= set(orbit.members)
        assert sizes == [504] * 13
        assert len(seen) == 6552

    def test_orbit_canonical_well_defined(self, gf8, rng):
        f = random_irreducible(gf8, 5, rng)
        orbit = pgl_orbit(gf8, f)
        for _ in range(20):
            g = act_poly(gf8, random_matrix(gf8, rng), f)
            assert pgl_orbit(gf8, g).canonical == orbit.canonical

    def test_orbit_contains_inputs(self, gf8, rng):
        f = random_irreducible(gf8, 5, rng)
        orbit = pgl_orbit(gf8, f)
        assert f in orbit
        assert orbit.members[0] == orbit.canonical

    def test_reducible_seed_rejected(self, gf8):
        with pytest.raises(ValueError):
            pgl_orbit(gf8, (0, 1, 1))

    def test_zero_leading_coefficient_is_named(self, gf8):
        # Ben-Or refuses the trailing zero before any inverse; the sweep's seed check says monic
        with pytest.raises(ValueError, match=r"zero leading coefficient f\[2\]"):
            pgl_orbit(gf8, (1, 1, 0))
        for method in ("divisibility", "direct"):
            with pytest.raises(ValueError, match=r"zero leading coefficient f\[7\]"):
                is_orbit_sigma_r_fixed((1, 1, 0, 0, 0, 0, 0, 0), Parameters(3, 7, strict=False), method)
        with pytest.raises(ValueError, match="monic"):
            stabilizer(gf8, (1, 1, 0))

    def test_root_in_f_q_is_named(self, gf8):
        # h[r] of the coset representative for gamma is f(gamma): bad input, not an arithmetic bug
        cases = [
            (lambda: orbit_canonical(gf8, (0, 1, 1)), 0),  # x(x + 1)
            (lambda: stabilizer(gf8, (0, 0, 0, 1)), 0),  # x^3
            (lambda: orbit_canonical(gf8, (5, 4, 4, 1)), 5),  # (x + 5)(x^2 + x + 1)
            (lambda: stabilizer(gf8, (5, 4, 4, 1)), 5),
            # the representatives the sweep keeps, and the direct walk reuses, refuse the same seeds
            (lambda: action._representatives(gf8, (0, 0, 0, 1)), 0),
            (lambda: action._representatives(gf8, (5, 4, 4, 1)), 5),
        ]
        for call, root in cases:
            with pytest.raises(ValueError, match=rf"^the seed has the root {root} in F_q, so it is reducible$"):
                call()

    def test_linear_seed_rejected(self, gf8):
        # the root of x + 3 lies in F_8, and some Möbius map sends it to infinity
        with pytest.raises(ValueError, match=r"degree r >= 2, got r = 1"):
            pgl_orbit(gf8, (3, 1))
        # the divisor classes say so too, not that the divisor x has the root 0
        for n in (3, 2):
            with pytest.raises(ValueError, match=r"^PGL orbits need degree r >= 2, got r = 1$"):
                fixed_orbit_classes(Parameters(n, 1, strict=False))

    def test_pgl_orbits_walks_i_r_once_without_retesting_seeds(self, gf8, gf32, monkeypatch):
        # the seed-checked walk: pgl_orbit over the enumeration, skipping members already met
        expected, met = [], set()
        for f in enumerate_irreducibles(gf8, 5):
            if f not in met:
                expected.append(pgl_orbit(gf8, f))
                met.update(expected[-1].members)
        assert [orbit.size for orbit in expected] == [504] * 13
        assert list(pgl_orbits(gf8, 5)) == expected

        def no_test(gf, f):
            raise RuntimeError("irreducibility test called")

        # the enumeration's seeds are irreducible already; outside seeds are still tested
        monkeypatch.setattr("goppa_orbits.action.is_irreducible", no_test)
        assert list(pgl_orbits(gf8, 5)) == expected
        with pytest.raises(RuntimeError, match="irreducibility test called"):
            pgl_orbit(gf8, (0, 1, 1))
        with pytest.raises(ValueError, match=r"degree r >= 2, got r = 1"):
            list(pgl_orbits(gf8, 1))
        with pytest.raises(GuardError):
            next(pgl_orbits(gf32, 7))

    @pytest.mark.parametrize("m, r", [(1, 5), (2, 5), (3, 5), (2, 6)])
    def test_pgl_orbits_stop_at_coverage(self, m, r, monkeypatch):
        # once the orbits cover I_r, the walk pulls no other sieve entry: the
        # last entry pulled seeds the last orbit (irreducible #12 of 6552 at (3, 5))
        gf, pulled = make_field(m), []

        def recording(gf, r):
            for f in enumerate_irreducibles(gf, r):
                pulled.append(f)
                yield f

        monkeypatch.setattr(action, "enumerate_irreducibles", recording)
        orbits = list(pgl_orbits(gf, r))
        assert sum(orbit.size for orbit in orbits) == count_irreducibles(gf.order, r)
        assert [f for f in pulled if f in orbits[-1]] == [pulled[-1]]
        assert len(pulled) < count_irreducibles(gf.order, r)

    def test_pgl_orbits_keep_the_sieve_messages(self, gf2, gf8):
        # |I_r| is counted only after the sieve admits r, so its refusals come first
        with pytest.raises(ValueError, match=r"^irreducible enumeration needs degree r >= 1, got r = 0$"):
            next(pgl_orbits(gf2, 0))
        with pytest.raises(GuardError, match=r"^enumeration of q\^r = 8\^7 = 2\^21 candidates exceeds the 2\^20 guard$"):
            next(pgl_orbits(gf8, 7))

    def test_stabilizer_trivial_sampled(self, gf8, rng):
        for _ in range(5):
            f = random_irreducible(gf8, 5, rng)
            stab = stabilizer(gf8, f)
            assert stab == [IDENTITY]
            assert pgl_orbit(gf8, f).size * len(stab) == 504

    @pytest.mark.parametrize("m, r", [(1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 2), (3, 5), (3, 7), (4, 3)])
    def test_orbit_and_stabilizer_match_per_matrix_scan(self, m, r, rng):
        # the coset route against act_poly applied to every matrix, on
        # random monic seeds: irreducible or not, stabilizer trivial or not
        gf = make_field(m)
        mats = list(pgl_enumerate(gf))
        for _ in range(8):
            f = tuple(rng.randrange(gf.order) for _ in range(r)) + (1,)
            try:
                images = {act_poly(gf, mat, f) for mat in mats}
            except InternalCheckError:
                # act_poly's dropped degree is a root in F_q, which the coset route names
                with pytest.raises(ValueError, match=r"the seed has the root \d+ in F_q"):
                    _pgl_orbit_members(gf, f)
                continue
            assert _pgl_orbit_members(gf, f) == tuple(sorted(images, key=poly_sort_key))
            assert stabilizer(gf, f) == [mat for mat in mats if act_poly(gf, mat, f) == f]

    def test_nontrivial_stabilizers_match_scan(self, gf2, gf8):
        # x^3 + x + 1 over GF(2) (|Stab| = 3) and x^7 + g over GF(8),
        # fixed by x -> zeta x for every 7th root of unity zeta (|Stab| = 7)
        cases = [(gf2, (1, 1, 0, 1)), (gf8, (2, 0, 0, 0, 0, 0, 0, 1))]
        for gf, f in cases:
            stab = stabilizer(gf, f)
            assert len(stab) > 1
            assert stab == [mat for mat in pgl_enumerate(gf) if act_poly(gf, mat, f) == f]
            assert len(_pgl_orbit_members(gf, f)) * len(stab) == gf.order**3 - gf.order


class TestCanonicalSweep:
    """The coset sweep against materialized orbits and the per-matrix scan."""

    @staticmethod
    def _check_orbit_members(gf, orbit, members):
        for f in members:
            canonical, hits, _ = _sweep(gf, f)
            assert canonical == orbit.canonical
            # orbit-stabilizer: the hits are the |Stab(f)| elements reaching the canonical form
            assert len(hits) * orbit.size == gf.order**3 - gf.order
            assert len(set(hits)) == len(hits)
            assert all(act_poly(gf, mat, f) == canonical for mat in hits)

    @pytest.mark.parametrize(
        "m, r",
        [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 5),
         (4, 2), (4, 3)],
    )
    def test_every_irreducible_matches_its_materialized_orbit(self, m, r):
        gf = make_field(m)
        covered = 0
        for orbit in pgl_orbits(gf, r):
            self._check_orbit_members(gf, orbit, orbit.members)
            covered += orbit.size
        assert covered == count_irreducibles(gf.order, r)

    def test_sampled_seeds_over_gf32(self, gf32, rng):
        for _ in range(3):
            orbit = pgl_orbit(gf32, random_irreducible(gf32, 5, rng))
            self._check_orbit_members(gf32, orbit, [orbit.members[rng.randrange(orbit.size)] for _ in range(10)])

    @pytest.mark.parametrize("m, r", [(4, 4), (5, 4), (3, 6), (5, 5)])
    def test_sampled_seeds_beyond_the_exhaustive_range(self, m, r, rng):
        gf = make_field(m)
        for _ in range(2):
            orbit = pgl_orbit(gf, random_irreducible(gf, r, rng))
            self._check_orbit_members(gf, orbit, [orbit.members[rng.randrange(orbit.size)] for _ in range(5)])

    # Each of its q + 1 coset representatives, translated to clear x^12, keeps
    # a nonzero x^11 coefficient, and gcd(13 - 11, q - 1) = 1 lets a scaling
    # take that coefficient to 1: a (top index, least value) key ties them all.
    TIED_AT_7_13 = (114, 44, 35, 61, 19, 109, 43, 102, 105, 62, 79, 73, 115, 1)

    def test_lower_coefficients_break_the_top_tie_at_7_13(self):
        gf, f, r = make_field(7), self.TIED_AT_7_13, 13
        plan = _plan(gf, r)
        # u^-e for every u != 0 and e <= r, by field arithmetic
        inverse_powers = []
        for u in range(1, gf.order):
            row, iu = [1], gf.inv(u)
            for _ in range(r):
                row.append(gf.mul(row[-1], iu))
            inverse_powers.append(row)
        candidates = []
        for _, h in action._representatives(gf, f):
            ilead = gf.inv(h[r])
            c = _taylor_shift(plan, h, gf.mul(h[r - 1], ilead))
            # every scaling x -> u x, made monic, highest coefficient first
            scaled = [[gf.mul(gf.mul(c[j], ilead), row[r - j]) for j in range(r - 1, -1, -1)] for row in inverse_powers]
            assert c[r - 1] == 0 and c[r - 2] and min(cand[1] for cand in scaled) == 1
            candidates += map(tuple, scaled)
        canonical, hits, _ = _sweep(gf, f)
        least = min(candidates)
        assert canonical == least[::-1] + (1,)
        assert candidates.count(least) == len(hits) == 1
        assert all(act_poly(gf, mat, f) == canonical for mat in hits)

    @pytest.mark.parametrize(
        "m, r, every", [(1, 3, 1), (1, 4, 1), (1, 5, 1), (2, 3, 1), (2, 4, 1), (2, 5, 1), (3, 2, 1), (3, 3, 12)]
    )
    def test_stabilizer_matches_per_matrix_scan(self, m, r, every):
        gf = make_field(m)
        mats = list(pgl_enumerate(gf))
        for f in list(enumerate_irreducibles(gf, r))[::every]:
            assert stabilizer(gf, f) == [mat for mat in mats if act_poly(gf, mat, f) == f]

    @pytest.mark.parametrize("r", [5, 7])
    def test_fixedness_and_divisor_counts_match_materialized_orbits(self, gf8, rng, r):
        params = Parameters(3, r, strict=False)
        divisors = set(divisor_polynomials(params))
        seeds = [random_irreducible(gf8, r, rng) for _ in range(30)]
        seeds += [act_poly(gf8, random_matrix(gf8, rng), d) for d in sorted(divisors)[:10]]
        seeds += sorted(divisors)
        fixed = 0
        for f in seeds:
            members = _pgl_orbit_members(gf8, f)
            meets = not divisors.isdisjoint(members)
            assert is_orbit_sigma_r_fixed(f, params, "divisibility") == meets
            assert is_orbit_sigma_r_fixed(f, params, "direct") == (poly_frobenius(gf8, f, r) in members)
            assert orbit_canonical(gf8, f) == members[0]
            if f in divisors:
                assert count_divisors_in_orbit(f, params) == len(divisors.intersection(members))
            fixed += meets
        assert 0 < fixed < len(seeds)
        classes = fixed_orbit_classes(params)
        assert sorted(d for ds in classes.values() for d in ds) == sorted(divisors)

    def test_classes_at_7_11_are_the_binary_subgroup_orbits(self):
        # independent of the sweep: the six GF(2) matrices permute each class
        gf = make_field(7)
        classes = fixed_orbit_classes(Parameters(7, 11))
        assert len(classes) == 31
        for divisors in classes.values():
            for d in divisors:
                assert {act_poly(gf, mat, d) for mat in pgl2_binary_subgroup()} == set(divisors)

    @pytest.mark.parametrize("n", [11, 13])
    def test_classes_at_n_11_13_are_the_binary_subgroup_orbits(self, n):
        # the paper's rows past q = 128, checked by the per-matrix action alone
        gf, params = make_field(n), Parameters(n, 5)
        classes = fixed_orbit_classes(params)
        assert sorted(d for ds in classes.values() for d in ds) == sorted(divisor_polynomials(params))
        for canonical, divisors in classes.items():
            for d in divisors:
                _, hits, _ = _sweep(gf, d)
                assert all(act_poly(gf, mat, d) == canonical for mat in hits)
                assert {act_poly(gf, mat, d) for mat in pgl2_binary_subgroup()} == set(divisors)

    def test_even_degree_canonical_is_materialized(self, gf8, rng):
        f = random_irreducible(gf8, 4, rng)
        members = _pgl_orbit_members(gf8, f)
        canonical, hits, _ = _sweep(gf8, f)
        assert orbit_canonical(gf8, f) == canonical == members[0]
        assert len(hits) * len(members) == gf8.order**3 - gf8.order

    def test_quadratic_stabilizer_over_gf128(self):
        # I_2 is a single orbit of q(q - 1)/2 quadratics, so |Stab| = 2(q + 1)
        # = 258; a per-matrix scan would apply all 2 096 896 matrices
        gf = make_field(7)
        f = next(enumerate_irreducibles(gf, 2))
        stab = stabilizer(gf, f)
        assert len(stab) == 2 * (gf.order + 1)
        assert all(act_poly(gf, mat, f) == f and mat_canonical(gf, mat) == mat for mat in stab)
        # pgl_enumerate order: the a = 1 block, then a = 0, each ascending
        blocks = [mat for mat in stab if mat[0] == 1], [mat for mat in stab if mat[0] == 0]
        assert stab == sorted(blocks[0]) + sorted(blocks[1])
        assert len(set(stab)) == len(stab)


class TestSweepKernels:
    """The plan's Taylor shift and scaling tables against routes that share neither."""

    @pytest.mark.parametrize("m", [2, 3, 7])
    # bits of r: 111, 1000, 1101, 10000, 10001, 10011; each adds Lucas subsets
    @pytest.mark.parametrize("r", [7, 8, 13, 16, 17, 19])
    def test_taylor_shift_is_the_translation_action(self, m, r, rng):
        gf = make_field(m)
        plan = _plan(gf, r)
        f = tuple(rng.randrange(gf.order) for _ in range(r)) + (1,)
        # coset representatives are not monic; a shift commutes with scaling
        lead = rng.randrange(2, gf.order)
        h = poly_scale(gf, lead, f)
        for v in range(gf.order):
            shifted = act_poly(gf, (1, v, 0, 1), f)
            assert _taylor_shift(plan, f, v) == list(shifted)
            assert _taylor_shift(plan, h, v) == list(poly_scale(gf, lead, shifted))

    @pytest.mark.parametrize("m", [1, 3, 7])
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 7, 8, 13])
    def test_representatives_are_the_reversed_shifts(self, m, r, rng):
        # x^r f(1/x + gamma) in full, as immutable tuples
        gf = make_field(m)
        plan = _plan(gf, r)
        for _ in range(3):
            f = random_irreducible(gf, r, rng)
            reps = action._representatives(gf, f)
            assert [gamma for gamma, _ in reps] == [None] + list(range(gf.order))
            assert reps[0][1] == f
            for gamma, h in reps[1:]:
                assert h == tuple(_taylor_shift(plan, f, gamma)[::-1])

    # s = q - 1 is 3, 7, 15, 31, 63, 127, 2047 = 23 * 89 and 8191: the gaps
    # 1..19 meet gcd(e, s) of 1, 3, 5, 7, 9 and 15
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 11, 13])
    def test_least_scalings_are_the_brute_force_argmin(self, m, rng):
        gf = make_field(m)
        s, exp = gf.mult_order, gf._exp
        r = 19
        plan = _plan(gf, r)
        powers = [1]
        for _ in range(s - 1):
            powers.append(gf.mul(powers[-1], gf.generator))
        inverses = [gf.inv(u) for u in powers]
        # every row up to q = 128, three sampled rows above
        rows = range(s) if s < 128 else rng.sample(range(s), 3)
        # u^-(r - j) for u = g^k, by field arithmetic instead of logarithms, for gaps 1, 2, ..., 19
        scalings = [1] * s
        for j in range(r - 1, -1, -1):
            scalings = [gf.mul(w, iu) for w, iu in zip(scalings, inverses)]
            for l in rows:
                # c u^-(r - j) for c = g^l; the sweep reads it at l and at l - s
                vals = [gf.mul(powers[l], w) for w in scalings]
                assert [exp[l - off[j]] for off in plan.offsets] == vals
                assert [exp[l - s - off[j]] for off in plan.offsets] == vals
                low = min(vals)
                assert plan.least[j][l] == tuple(k for k, val in enumerate(vals) if val == low)

    def test_one_plan_per_field_and_degree(self, gf8, rng):
        # a session like the orbit_queries benchmark's: every kernel at (3, 7) reads one plan
        params = Parameters(3, 7, strict=False)
        septics = [random_irreducible(gf8, 7, rng) for _ in range(4)]
        septics += [(2, 0, 0, 0, 0, 0, 0, 1), divisor_polynomials(params)[0]]  # |Stab| = 7; a fixed orbit
        _plan.cache_clear()
        _sweep.cache_clear()
        for f in septics:
            stabilizer(gf8, f)
            is_orbit_sigma_r_fixed(f, params, "divisibility")
            is_orbit_sigma_r_fixed(f, params, "direct")
            pgl_orbit(gf8, f)
        info = _plan.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_a_refused_field_builds_no_plan(self):
        # each guard refuses before any table is built
        f = (32, 1, 1)
        _plan.cache_clear()
        refused = [
            (lambda: pgl_orbit(make_field(8), f), r"\|PGL2\(F_256\)\|"),
            (lambda: stabilizer(make_field(11), f), SHIFTS_AT_11_2),
            (lambda: is_orbit_sigma_r_fixed(f, Parameters(11, 2, strict=False), "direct"), SHIFTS_AT_11_2),
            (lambda: stabilizer(make_field(17), (1, 0, 0, 0, 0, 1)), LOG_CEILING_AT_17),
        ]
        for call, guard in refused:
            with pytest.raises(GuardError, match=guard):
                call()
        assert _plan.cache_info().misses == 0


class TestSigmaRFixedOrbits:
    def test_divisor_is_fixed_both_methods(self):
        params = Parameters(3, 5, strict=False)
        divs = divisor_polynomials(params)
        for f in divs:
            assert is_orbit_sigma_r_fixed(f, params, method="divisibility")
            assert is_orbit_sigma_r_fixed(f, params, method="direct")

    def test_methods_agree_on_random_polys(self, gf8, rng):
        params = Parameters(3, 5, strict=False)
        for _ in range(25):
            f = random_irreducible(gf8, 5, rng)
            assert is_orbit_sigma_r_fixed(f, params, "divisibility") == is_orbit_sigma_r_fixed(
                f, params, "direct"
            )

    @pytest.mark.parametrize("n, r, orbits", [(2, 4, 2), (3, 3, 1), (2, 6, 15), (4, 4, 8)])
    def test_divisibility_refuses_when_gcd_r_n_is_not_1(self, n, r, orbits):
        # no degree-r divisor of x^(2^r) + x exists there, yet "direct" finds every orbit fixed
        params = Parameters(n, r, strict=False)
        seeds = [orbit.members[-1] for orbit in pgl_orbits(make_field(n), r)]
        assert len(seeds) == orbits
        assert all(is_orbit_sigma_r_fixed(f, params, "direct") for f in seeds)
        with pytest.raises(ValueError, match=rf"gcd\(r, n\) = 1, got gcd\({r}, {n}\) = {gcd(r, n)}"):
            is_orbit_sigma_r_fixed(seeds[0], params, "divisibility")

    def test_methods_agree_on_every_orbit_where_gcd_r_n_is_1(self):
        pairs = [(n, r) for n in range(1, 8) for r in range(2, 15) if n * r <= 14 and gcd(r, n) == 1]
        assert len(pairs) == 21
        for n, r in pairs:
            params = Parameters(n, r, strict=False)
            for orbit in pgl_orbits(make_field(n), r):
                f = orbit.members[-1]
                assert is_orbit_sigma_r_fixed(f, params, "divisibility") == is_orbit_sigma_r_fixed(
                    f, params, "direct"
                ), (n, r, f)

    @pytest.mark.parametrize("m, r", [(1, 5), (1, 6), (1, 11), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3)])
    def test_least_is_the_smaller_of_bound_and_orbit_minimum(self, m, r, rng):
        # every monic bound with a nonzero x^0 coefficient (at odd r, none at x^(r-1)),
        # irreducible or not, against up to three materialized orbits and their sigma^k-images
        gf = make_field(m)
        head = product(range(1, gf.order), *[range(gf.order)] * (r - 2), [0] if r % 2 else range(gf.order))
        bounds = [t + (1,) for t in head]
        keys = list(map(poly_sort_key, bounds))
        orbits = list(pgl_orbits(gf, r))
        met = set()
        for orbit in rng.sample(orbits, min(3, len(orbits))):
            reps = action._representatives(gf, orbit.members[rng.randrange(orbit.size)])
            k = rng.randrange(1, m) if m > 1 else 0
            frobenius_log = [(log << k) % gf.mult_order for log in gf._log]
            twisted = [poly_frobenius(gf, g, k) for g in orbit.members]
            for flog, image in ((gf._log, orbit.members), (frobenius_log, twisted)):
                c = min(image, key=poly_sort_key)
                for t, key in zip(bounds, keys):
                    least, hits = action._least(gf, reps, t[:-1], flog)
                    reached = poly_sort_key(c) <= key
                    assert least == (c if reached else t)[:-1]
                    assert len(hits) * orbit.size == (gf.order**3 - gf.order if reached else 0)
                    met.add(reached)
        assert met == {False, True}

    @pytest.mark.parametrize("n, r", [(2, 5), (3, 4), (2, 6), (4, 3), (3, 3), (2, 4)])
    def test_direct_is_the_shared_canonical_form_on_every_irreducible(self, n, r):
        gf, params = make_field(n), Parameters(n, r, strict=False)
        fixed = 0
        for f in enumerate_irreducibles(gf, r):
            shared = orbit_canonical(gf, poly_frobenius(gf, f, r)) == orbit_canonical(gf, f)
            assert is_orbit_sigma_r_fixed(f, params, "direct") == shared
            fixed += shared
        assert fixed > 0

    def test_direct_is_the_shared_canonical_form_at_4_6(self, rng):
        # sigma^(2r) is the identity on F_16, so sigma^(2r)(c) = c says nothing about sigma^r(c)
        gf, params = make_field(4), Parameters(4, 6, strict=False)
        for f in [random_irreducible(gf, 6, rng) for _ in range(10)]:
            shared = orbit_canonical(gf, poly_frobenius(gf, f, 6)) == orbit_canonical(gf, f)
            assert is_orbit_sigma_r_fixed(f, params, "direct") == shared

    def test_direct_is_the_shared_canonical_form_at_3_7(self, gf8, rng):
        # divisors and their images are fixed, x^7 + g has |Stab| = 7, random septics mostly are not
        params = Parameters(3, 7, strict=False)
        divisors = divisor_polynomials(params)
        seeds = list(divisors[:6]) + [act_poly(gf8, random_matrix(gf8, rng), d) for d in divisors[:6]]
        seeds += [(2, 0, 0, 0, 0, 0, 0, 1)] + [random_irreducible(gf8, 7, rng) for _ in range(20)]
        answers = []
        for f in seeds:
            shared = orbit_canonical(gf8, poly_frobenius(gf8, f, 7)) == orbit_canonical(gf8, f)
            assert is_orbit_sigma_r_fixed(f, params, "direct") == shared
            answers.append(shared)
        assert all(answers[:12]) and not all(answers)

    def test_exactly_one_fixed_orbit_at_3_5(self):
        # 6 divisor polynomials / 6 per orbit
        params = Parameters(3, 5, strict=False)
        divs = divisor_polynomials(params)
        canonicals = {pgl_orbit(make_field(3), f).canonical for f in divs}
        assert len(canonicals) == 1

    def test_count_divisors_in_orbit(self):
        params = Parameters(3, 5, strict=False)
        divs = divisor_polynomials(params)
        for f in divs:
            assert count_divisors_in_orbit(f, params) == 6

    def test_count_divisors_in_orbit_does_not_read_the_classes(self, monkeypatch):
        # the oracle counts divisors in the materialized orbit, not in the classes it checks
        params = Parameters(3, 5, strict=False)
        monkeypatch.setattr(action, "fixed_orbit_classes", lambda params: {f: (f,) for f in divisor_polynomials(params)})
        assert [count_divisors_in_orbit(f, params) for f in divisor_polynomials(params)] == [6] * 6

    def test_witness_matrices_produce_the_six(self, gf8):
        params = Parameters(3, 5, strict=False)
        divs = set(divisor_polynomials(params))
        f = min(divs)
        images = {act_poly(gf8, mat, f) for mat in pgl2_binary_subgroup()}
        assert len(images) == 6
        assert images <= divs

    def test_non_divisor_rejected(self, gf8, rng):
        params = Parameters(3, 5, strict=False)
        while True:
            f = random_irreducible(gf8, 5, rng)
            if not is_orbit_sigma_r_fixed(f, params, "direct"):
                break
        with pytest.raises(ValueError):
            count_divisors_in_orbit(f, params)


class TestSeedMemo:
    """One sweep per seed and one Ben-Or test per fixedness seed, shared
    through the bounded (field, seed) memo; every call still checks its seed."""

    PARAMS = Parameters(3, 7, strict=False)
    # x^7 + g over GF(8): |Stab| = 7
    SEVEN_FOLD = (2, 0, 0, 0, 0, 0, 0, 1)

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        for memo in (_plan, _sweep, _irreducible_seed, fixed_orbit_classes):
            memo.cache_clear()

    @staticmethod
    def _query(gf, f, params):
        return (
            stabilizer(gf, f),
            is_orbit_sigma_r_fixed(f, params, "divisibility"),
            is_orbit_sigma_r_fixed(f, params, "direct"),
        )

    def test_one_query_sweeps_once_tests_once_and_walks_at_most_once(self, gf8, rng, monkeypatch):
        # the direct method walks f's representatives again, asking whether sigma^r(PGL(f)) holds
        # c, f's canonical form, only when no image sigma^(jr)(c) lies below c and sigma^r(c) != c
        seeds = {"divisor image": act_poly(gf8, random_matrix(gf8, rng), divisor_polynomials(self.PARAMS)[0])}
        while len(seeds) < 3:
            f = random_irreducible(gf8, 7, rng)
            c = orbit_canonical(gf8, f)
            images = [poly_frobenius(gf8, c, 7 * j) for j in (1, 2)]
            if images[0] != c:
                below = min(map(poly_sort_key, images)) < poly_sort_key(c)
                seeds.setdefault("image below" if below else "least image", f)
        tested, walked = [], []
        real_least = action._least

        def counting_test(gf, g):
            tested.append(tuple(g))
            return is_irreducible(gf, g)

        def counting_least(gf, reps, bound, flog):
            walked.append((reps, bound, flog))
            return real_least(gf, reps, bound, flog)

        monkeypatch.setattr("goppa_orbits.action.is_irreducible", counting_test)
        monkeypatch.setattr("goppa_orbits.action._least", counting_least)
        # log sigma^7 = 2^(7 mod 3) log on GF(8)
        frobenius_log = [(log << 1) % 7 for log in gf8._log]
        for kind, f in seeds.items():
            for memo in (_plan, _sweep, _irreducible_seed, fixed_orbit_classes):
                memo.cache_clear()
            tested.clear()
            walked.clear()
            # the first query at these Parameters builds their divisor classes too
            stab, divisibility, direct = self._query(gf8, f, self.PARAMS)
            assert (_sweep.cache_info().misses, _sweep.cache_info().currsize) == (1, 1)
            assert fixed_orbit_classes.cache_info().misses == 1
            assert tested == [f]
            canonical, _, reps = _sweep(gf8, f)
            assert reps[0] == (None, f)
            # the kernel runs for f's sweep, then once more, from c down, only for the least image
            # (the divisor sweeps call it with the divisors' representatives)
            own = [call for call in walked if call[0] is reps]
            assert own[0] == (reps, (8,) * 7, gf8._log)
            assert own[1:] == ([(reps, canonical[:-1], frobenius_log)] if kind == "least image" else []), kind
            # the answers, against f's materialized orbit
            members = _pgl_orbit_members(gf8, f)
            assert len(stab) * len(members) == gf8.order**3 - gf8.order
            assert divisibility == (not set(divisor_polynomials(self.PARAMS)).isdisjoint(members))
            assert direct == (poly_frobenius(gf8, f, 7) in members)
            if kind != "least image":
                assert direct == (kind == "divisor image")

    def test_divisor_classes_leave_the_seed_memo_alone(self, gf8, rng):
        f = random_irreducible(gf8, 7, rng)
        canonical = orbit_canonical(gf8, f)
        before = _sweep.cache_info()
        classes = fixed_orbit_classes(self.PARAMS)
        assert _sweep.cache_info() == before
        assert sorted(d for ds in classes.values() for d in ds) == sorted(divisor_polynomials(self.PARAMS))
        # f is still the memo's entry
        assert orbit_canonical(gf8, f) == canonical
        assert _sweep.cache_info().hits == before.hits + 1

    def test_unknown_method_is_named_before_the_seed_is_tested(self, gf8, monkeypatch):
        tested = []
        monkeypatch.setattr("goppa_orbits.action.is_irreducible", lambda gf, g: tested.append(g))
        reducible = poly_mul(gf8, (1, 1, 0, 1), (1, 1, 0, 0, 1))
        with pytest.raises(ValueError, match=r"^unknown method 'bogus'$"):
            is_orbit_sigma_r_fixed(reducible, self.PARAMS, "bogus")
        assert tested == []

    def test_stabilizer_list_is_fresh(self, gf8, rng):
        for f, size in ((self.SEVEN_FOLD, 7), (random_irreducible(gf8, 7, rng), 1)):
            first = stabilizer(gf8, f)
            assert len(first) == size
            expected = list(first)
            first.append((0, 1, 1, 0))
            first[0] = (1, 1, 0, 1)
            assert stabilizer(gf8, f) == expected
        assert isinstance(_sweep(gf8, self.SEVEN_FOLD)[1], tuple)

    def test_list_seed_answers_as_tuple(self, gf8, rng):
        for f in (self.SEVEN_FOLD, random_irreducible(gf8, 7, rng)):
            as_tuple = self._query(gf8, f, self.PARAMS) + (orbit_canonical(gf8, f),)
            # from the memo, then computed afresh
            assert self._query(gf8, list(f), self.PARAMS) + (orbit_canonical(gf8, list(f)),) == as_tuple
            _sweep.cache_clear()
            _irreducible_seed.cache_clear()
            assert self._query(gf8, list(f), self.PARAMS) + (orbit_canonical(gf8, list(f)),) == as_tuple

    def test_invalid_seeds_raise_on_every_call(self, gf8, rng):
        f = random_irreducible(gf8, 7, rng)
        reducible = poly_mul(gf8, (1, 1, 0, 1), (1, 1, 0, 0, 1))
        non_monic = poly_scale(gf8, 2, f)  # irreducible, so Ben-Or passes it
        # a float equals its int as a memo key; the coefficient check must still see it
        float_lead = f[:-1] + (1.0,)
        self._query(gf8, f, self.PARAMS)
        for _ in range(2):
            for method in ("divisibility", "direct"):
                with pytest.raises(ValueError, match="irreducible seed"):
                    is_orbit_sigma_r_fixed(reducible, self.PARAMS, method)
                with pytest.raises(ValueError, match="monic"):
                    is_orbit_sigma_r_fixed(non_monic, self.PARAMS, method)
                with pytest.raises(TypeError):
                    is_orbit_sigma_r_fixed(float_lead, self.PARAMS, method)
            with pytest.raises(ValueError, match="monic"):
                stabilizer(gf8, non_monic)
            with pytest.raises(TypeError):
                stabilizer(gf8, float_lead)
            with pytest.raises(ValueError, match="not an element"):
                stabilizer(gf8, f[:-2] + (8, 1))

    def test_memo_is_bounded(self):
        for memo in (_sweep, _irreducible_seed):
            assert memo.cache_info().maxsize is not None
            assert memo.cache_info().maxsize <= 64
        # the sieve oracle and the quintic fixture call Ben-Or in hot loops
        assert not hasattr(polyq.is_irreducible, "cache_info")

    def test_every_memo_keeps_one_entry(self, gf8, rng):
        # one plan resident at a time: at q = 2^16, r = 5 a plan holds about 82 MiB
        for gf, r in ((gf8, 7), (make_field(5), 5)):
            f = random_irreducible(gf, r, rng)
            stabilizer(gf, f)
            is_orbit_sigma_r_fixed(f, Parameters(gf.m, r, strict=False), "direct")
        for params in (Parameters(3, 7, strict=False), Parameters(5, 3, strict=False)):
            fixed_orbit_classes(params)
        memos = (_plan, _sweep, _irreducible_seed, fixed_orbit_classes)
        for memo in memos:
            assert memo.cache_info().currsize == 1
        # and they are action's only memos: the seed's representatives live in the sweep's entry
        assert {obj for obj in vars(action).values()
                if hasattr(obj, "cache_info") and obj.__module__ == action.__name__} == set(memos)


class TestRootOrbitCorrespondence:
    def test_poly_fixed_iff_root_orbit_fixed(self, tower_3_5, rng):
        # sigma^r f in PGL(f) coincides with alpha^(2^r) in PGL(alpha)
        t = tower_3_5
        gf = t.base
        params = Parameters(3, 5, strict=False)
        checked = 0
        for alpha in range(t.ext.order):
            if t.degree_over(alpha) != 5 or rng.random() > 0.002:
                continue
            f = t.minimal_polynomial(alpha)
            poly_side = is_orbit_sigma_r_fixed(f, params, "direct")
            element_side = t.ext.frobenius(alpha, 5) in pgl_element_orbit(t, alpha)
            assert poly_side == element_side
            checked += 1
        assert checked >= 20


class TestAffineDecomposition:
    def test_q_plus_one_parts(self, tower_3_5, rng):
        t = tower_3_5
        alpha = next(
            a for a in range(2, t.ext.order) if t.degree_over(a) == 5
        )
        parts = agl_decompose(t, alpha)
        assert len(parts) == 8 + 1
        assert sum(size for _, size in parts) == len(pgl_element_orbit(t, alpha)) == 504

    def test_parts_are_affine_invariant(self, tower_3_5):
        t = tower_3_5
        alpha = next(a for a in range(2, t.ext.order) if t.degree_over(a) == 5)
        affine = tuple(agl_enumerate(t.base))
        for rep, size in agl_decompose(t, alpha):
            orbit = {act_element(t, (mat, 0), rep) for mat in affine}
            assert len(orbit) == size
            # closed under every affine map beta -> a*beta + b
            for beta in orbit:
                assert all(act_element(t, (mat, 0), beta) in orbit for mat in affine)

    def test_low_degree_rejected(self, tower_3_5):
        # an element of F_q: both routes name the condition before any transform
        for call in (pgl_element_orbit, agl_decompose):
            with pytest.raises(ValueError, match=r"degree >= 2"):
                call(tower_3_5, tower_3_5.embed(3))


class TestElementCosetRoute:
    """`pgl_element_orbit` and `agl_decompose` build PGL(alpha) from the q+1
    affine orbits of alpha and the 1/(alpha + gamma); the reference here is
    `act_element` applied with every matrix of `pgl_enumerate`."""

    @pytest.mark.parametrize("m, r", [(m, r) for m in range(1, 6) for r in range(2, 11) if m * r <= 10])
    def test_coset_route_matches_per_matrix_walk(self, m, r):
        # one seed per orbit, over every element of degree r
        t = make_tower(m, r)
        mats = tuple(pgl_enumerate(t.base))
        affine = tuple(agl_enumerate(t.base))
        visited, orbits = set(), 0
        for alpha in range(t.ext.order):
            if alpha in visited or t.degree_over(alpha) != r:
                continue
            walk = {act_element(t, (mat, 0), alpha) for mat in mats}
            assert pgl_element_orbit(t, alpha) == walk
            reps = [alpha] + [t.ext.inv(alpha ^ t.embed(gamma)) for gamma in range(t.base.order)]
            parts = [{act_element(t, (mat, 0), rep) for mat in affine} for rep in reps]
            assert set().union(*parts) == walk
            if sum(map(len, parts)) == len(walk):
                assert agl_decompose(t, alpha) == [(rep, len(part)) for rep, part in zip(reps, parts)]
            else:
                # a nontrivial stabilizer makes two coset representatives share an affine orbit
                with pytest.raises(InternalCheckError, match="failed to partition"):
                    agl_decompose(t, alpha)
            visited |= walk
            orbits += 1
        assert orbits >= 1

    def test_no_per_matrix_transform(self, tower_3_5, monkeypatch):
        from goppa_orbits.enumeration import brute_force_orbit_count

        def no_transform(*args):
            raise AssertionError("act_element called")

        monkeypatch.setattr("goppa_orbits.action.act_element", no_transform)
        t = tower_3_5
        alpha = next(a for a in range(2, t.ext.order) if t.degree_over(a) == 5)
        assert len(pgl_element_orbit(t, alpha)) == 504
        assert len(agl_decompose(t, alpha)) == 9
        on_elements = brute_force_orbit_count(t.base, 5, "PGammaL", "elements")
        assert on_elements == brute_force_orbit_count(t.base, 5, "PGammaL", "polynomials") == 5
