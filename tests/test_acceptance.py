"""Acceptance suite: every criterion is exact, and each test prints one
PASS line (a failure raises before the line is printed)."""

import time
from itertools import permutations, product

from macpoly.mpoly import (MPoly, exact_div_xfree, specialize, swap_vars,
                           t_multinomial, t_pochhammer)
from macpoly.nonattacking import (AugmentedFilling, coinv,
                                  coinversion_triples, e_integral,
                                  enumerate_na, j_compact, j_hhl, maj_na,
                                  p_poly, schur_oracle)
from macpoly.quasisym import (demazure_t_atom, g_integral, hecke_T, qs_gamma,
                              qsym_expand)
from macpoly.shapes import multiplicities, partitions_of
from macpoly.tableaux import (Filling, ccw, enumerate_fillings,
                              enumerate_sorted, family, flip, htilde_brute,
                              htilde_compact, inv, is_packed, is_sorted, maj,
                              pds, perm_t, sort_filling, x_weight)


def _report(num, desc, t0):
    print(f"PASS criterion {num}: {desc} [{time.time() - t0:.1f}s]")


def test_criterion_1_compact_equals_brute():
    t0 = time.time()
    cases = [(lam, m) for m in range(1, 6) for lam in partitions_of(m)]
    cases.append(((2, 2, 2), 6))
    for lam, n in cases:
        assert htilde_compact(lam, n) == htilde_brute(lam, n), (lam, n)
    _report(1, "compact = brute modified Macdonald, all shapes of size <= 5 "
               "and (2,2,2) in 6 variables", t0)


# the displayed weights for the packed sorted tableaux of (2,1,1), n = 3:
# (bottom row, top entry) -> (inv, maj, perm_t has a [2]_t factor)
FIGURE_32 = {
    ("111", 1): (0, 0, False), ("111", 2): (0, 1, False),
    ("211", 1): (2, 0, False), ("112", 1): (0, 0, True),
    ("211", 2): (2, 0, False), ("122", 1): (0, 0, False),
    ("212", 1): (1, 0, True), ("112", 2): (0, 1, True),
    ("122", 2): (0, 1, False), ("222", 1): (0, 0, False),
    ("123", 1): (0, 0, True), ("213", 1): (1, 0, True),
    ("113", 2): (0, 1, True), ("312", 1): (2, 0, True),
    ("112", 3): (0, 1, True), ("311", 2): (2, 0, False),
    ("123", 2): (0, 1, True), ("223", 1): (0, 0, True),
    ("322", 1): (2, 0, False), ("122", 3): (0, 1, False),
    ("213", 2): (1, 0, True), ("233", 1): (0, 0, False),
    ("133", 2): (0, 1, False), ("123", 3): (0, 1, True),
    ("211", 3): (2, 1, False), ("212", 2): (1, 0, True),
    ("323", 1): (1, 0, True), ("313", 2): (1, 0, True),
    ("213", 3): (1, 1, True), ("312", 3): (2, 0, True),
    ("312", 2): (2, 0, True), ("212", 3): (1, 1, True),
}


def test_criterion_2_figure_weights():
    t0 = time.time()
    lam, n = (2, 1, 1), 3
    everything = list(enumerate_sorted(lam, n))
    packed = [f for f in everything if is_packed(f)]
    assert len(packed) == 32
    two = t_multinomial(2, [1, 1])
    seen = {}
    for f in packed:
        key = ("".join(str(f.entry(i, 1)) for i in (1, 2, 3)), f.entry(1, 2))
        pt = perm_t(f)
        assert pt in (MPoly.one(0), two)
        seen[key] = (inv(f), maj(f), pt == two)
    assert seen == FIGURE_32
    # every sorted tableau is an order-preserving relabeling of a packed one
    # with identical statistics, and the full x-weighted sum is the brute sum
    packed_stats = {(f.cols, inv(f), maj(f)) for f in packed}
    for f in everything:
        vals = sorted({e for col in f.cols for e in col})
        rel = {v: k for k, v in enumerate(vals, start=1)}
        squashed = Filling(tuple(tuple(rel[e] for e in col) for col in f.cols))
        assert (squashed.cols, inv(f), maj(f)) in packed_stats
    total = MPoly.zero(n)
    q, t = MPoly.q(n), MPoly.t(n)
    for f in everything:
        total = total + x_weight(f, n) * t ** inv(f) * q ** maj(f) * perm_t(f, n)
    assert total == htilde_brute(lam, n)
    _report(2, "the 32 packed sorted tableaux of (2,1,1) carry the displayed "
               "weights and the sorted-tableau sum is the brute sum", t0)


def test_criterion_3_figure_statistics():
    t0 = time.time()
    f = Filling(((9, 5, 5, 1, 6), (9, 5, 5, 1, 6), (9, 6, 2, 1, 6),
                 (1, 6), (3, 6), (2,), (2,), (3,), (3,)))
    assert inv(f) == 22
    assert maj(f) == 5
    assert is_sorted(f)
    expected = (t_multinomial(3, [2, 1]) * t_multinomial(2, [1, 1])
                * t_multinomial(4, [2, 2]))
    assert perm_t(f) == expected
    _report(3, "worked 23-cell filling: inv 22, maj 5, sorted, perm_t "
               "(3;2,1)(2;1,1)(4;2,2)", t0)


def test_criterion_4_operator_lemmas():
    t0 = time.time()
    checked = 0
    for m in range(1, 5):
        for lam in partitions_of(m):
            for n in (1, 2, 3):
                for f in enumerate_fillings(lam, n):
                    shape = f.shape
                    for i in range(1, len(shape)):
                        if shape[i - 1] != shape[i] or f.cols[i - 1] == f.cols[i]:
                            continue
                        g, r = flip(f, i)
                        assert flip(g, i)[0] == f          # involution
                        assert maj(g) == maj(f)            # maj preserved
                        if r == 1:
                            pivot_ccw = f.entry(i, 1) > f.entry(i + 1, 1)
                        else:
                            pivot_ccw = ccw(
                                (((i + 1, r), f.entry(i + 1, r)),
                                 ((i, r), f.entry(i, r)),
                                 ((i, r - 1), f.entry(i, r - 1))))
                        assert inv(g) == inv(f) + (-1 if pivot_ccw else 1)
                        checked += 1
    assert checked >= 300  # guard against a vacuous pass
    _report(4, f"involution, maj, and the signed inv step on {checked} "
               "operator applications", t0)


def test_criterion_5_family_structure():
    t0 = time.time()
    for m in range(1, 5):
        for lam in partitions_of(m):
            for n in (1, 2, 3):
                q, t = MPoly.q(n), MPoly.t(n)
                seen = set()
                for s in enumerate_sorted(lam, n):
                    fam = family(s)
                    weight_sum = MPoly.zero(n)
                    for g in fam:
                        assert g not in seen, (lam, n, g.cols)
                        seen.add(g)
                        weight_sum = weight_sum + q ** maj(g) * t ** inv(g)
                    assert weight_sum == q ** maj(s) * t ** inv(s) * perm_t(s, n)
                    assert MPoly.const(n, len(fam)) == \
                        specialize(perm_t(s, n), {"t": 1})
                assert len(seen) == n ** m, (lam, n)
    _report(5, "families partition all fillings with the stated generating "
               "function and sizes (shapes of size <= 4, n <= 3)", t0)


def test_criterion_6_pds():
    t0 = time.time()
    assert pds((2, 5, 1, 4, 3)) == (3, 1, 4, 3, 2)
    words3 = {pds(p) for p in permutations((1, 2, 3))}
    assert words3 == {(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)}
    words4 = {pds(p) for p in permutations((1, 2, 3, 4))}
    assert len(words4) == 24
    for w in words4:
        for h in range(len(w) + 1):
            assert w[h:] in words4
    _report(6, "canonical subword of (2,5,1,4,3), the six words for n=3, "
               "truncation closure over all of S_4", t0)


def test_criterion_7_reverse_algorithm():
    t0 = time.time()
    tau = Filling.from_rows([(2, 1, 3, 3, 1), (3, 3, 2, 4, 2), (1, 2, 1, 2, 1)])
    sig = sort_filling(tau)
    assert sig.rows() == ((3, 2, 1, 1, 3), (2, 2, 3, 3, 4), (1, 1, 1, 2, 2))
    for lam in partitions_of(4):
        n = 3
        for f in enumerate_fillings(lam, n):
            s = sort_filling(f)
            assert sort_filling(s) == s          # idempotent
        for s in enumerate_sorted(lam, n):
            for g in family(s):
                assert sort_filling(g) == s      # left inverse
    _report(7, "worked three-row reversal plus idempotence and left-inverse "
               "on all fillings of size 4, n = 3", t0)


def test_criterion_8_j_identities():
    t0 = time.time()
    for m in range(1, 5):
        for mu in partitions_of(m):
            jc = j_compact(mu, m)
            assert jc == j_hhl(mu, m), mu
            scal = MPoly.one(m)
            for k in multiplicities(mu).values():
                scal = scal * t_pochhammer(k, m)
            exact_div_xfree(jc, scal)            # remainder must vanish
    for n in range(1, 6):
        mu = (1,) * n
        mono = MPoly.one(n)
        for i in range(1, n + 1):
            mono = mono * MPoly.x(n, i)
        assert j_compact(mu, n) == mono * t_pochhammer(n, n)
        assert len(list(enumerate_na(tuple(sorted(mu)), None, n,
                                     ordered_only=True))) == 1
    _report(8, "compact = brute integral forms (size <= 4), the one-term "
               "column case for n <= 5, and divisibility", t0)


def test_criterion_9_nonattacking_figure():
    t0 = time.time()
    f = AugmentedFilling((0, 0, 1, 2, 2, 2, 3),
                         ((), (), (4,), (5, 5), (3, 1), (1, 2), (6, 7, 3)))
    assert maj_na(f) == 3
    assert coinv(f) == 7
    triples = sorted(tuple(sorted(f.entry(*c) for c in tri))
                     for tri in coinversion_triples(f))
    assert triples == sorted([(1, 6, 7), (3, 6, 7), (5, 6, 7), (4, 6, 7),
                              (1, 2, 3), (1, 2, 4), (3, 5, 7)])
    _report(9, "the seven coinversion triples, maj 3, of the worked "
               "composition filling", t0)


def test_criterion_10_p_specializations():
    t0 = time.time()
    for m in range(1, 6):
        for lam in partitions_of(m):
            p = p_poly(lam, m)
            for i in range(1, m):
                assert swap_vars(p.numerator, i, i + 1) == p.numerator
            assert specialize(j_compact(lam, m), {"q": 0, "t": 0}) \
                == schur_oracle(lam, m), lam
    for n in (2, 3, 4):
        mono = MPoly.one(n)
        for i in range(1, n + 1):
            mono = mono * MPoly.x(n, i)
        assert p_poly((1,) * n, n) == mono       # cross-multiplied equality
    _report(10, "symmetric numerators, the elementary column case, and the "
                "Schur specialization for all shapes of size <= 5", t0)


def test_criterion_11_quasisymmetric_suite():
    t0 = time.time()

    def strong_comps(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in strong_comps(total - first):
                yield (first,) + rest

    for d in range(1, 5):
        for gamma in strong_comps(d):
            for n in range(len(gamma), 5):
                qsym_expand(g_integral(gamma, n))    # must not raise
    for m in range(1, 5):
        for lam in partitions_of(m):
            n = 4
            total = MPoly.zero(n)
            qs_total = MPoly.zero(n)
            for gamma in sorted(set(permutations(lam))):
                gi = g_integral(gamma, n)
                total = total + gi
                assert specialize(gi, {"q": 0, "t": 0}) == qs_gamma(gamma, n)
                qs_total = qs_total + qs_gamma(gamma, n)
            assert total == j_compact(lam, n), lam
            assert qs_total == schur_oracle(lam, n), lam
    n = 3
    for alpha in product(range(4), repeat=3):
        if sum(alpha) > 3:
            continue
        scal = MPoly.one(n)
        for k in multiplicities(alpha).values():
            scal = scal * t_pochhammer(k, n)
        assert scal * demazure_t_atom(alpha, n) \
            == specialize(e_integral(alpha, n), {"q": 0}), alpha
        for i in (1, 2):
            if alpha[i - 1] > alpha[i]:
                swapped = list(alpha)
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                assert hecke_T(e_integral(alpha, n), i) \
                    == e_integral(tuple(swapped), n), (alpha, i)
    _report(11, "quasisymmetry of every G (degree <= 4, n <= 4), refinement "
                "to J and to Schur, the t-atom identity and the Hecke "
                "recurrence (degree <= 3, n = 3)", t0)
