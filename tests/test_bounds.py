"""Probability-bound machinery: hand-checked fixtures, dual-route exact
oracles, structural family builders, and the regularization procedure."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfreelab import (
    DomainError,
    ForbiddenFamily,
    LabeledGraph,
    MuDelta,
    Partition,
    RegularizationParams,
    SizeError,
    avoidance_probability_exact,
    construct_regularized_hypergraph,
    contains_clique,
    dsets_tail_bound,
    family_from_json,
    family_to_json,
    fkg_lower,
    heuristic_threshold_probe,
    hypergeom_hoeffding,
    janson_upper,
    krminus_family,
    m_r,
    mu_delta_closed_form,
    mu_delta_exact,
)


def brute_avoidance(fam, m):
    masks = [sum(1 << i for i in b) for b in fam.sets]  # the slot indices, not fam.masks()
    good = 0
    for combo in combinations(range(fam.ground_size), m):
        rmask = 0
        for i in combo:
            rmask |= 1 << i
        if not any(rmask & b == b for b in masks):
            good += 1
    return Fraction(good, math.comb(fam.ground_size, m))


# -- mu / Delta -------------------------------------------------------------


def test_mu_delta_single_set():
    md = mu_delta_exact(ForbiddenFamily(4, ((0,),)), 1)
    assert (md.mu, md.delta) == (0.25, 0.0)


def test_mu_delta_sharing_slot_exact():
    md = mu_delta_exact(ForbiddenFamily(4, ((0, 1), (1, 2))), 2, exact=True)
    assert md.mu == Fraction(1, 2)
    assert md.delta == Fraction(1, 4)  # 2 ordered pairs * (1/2)^3
    assert md.p == Fraction(1, 2)


def test_mu_delta_disjoint_sets_have_zero_delta():
    md = mu_delta_exact(ForbiddenFamily(6, ((0, 1), (2, 3), (4, 5))), 3)
    assert md.delta == 0.0


def test_mu_delta_duplicate_sets_count():
    # identical sets intersect: 2 ordered pairs with union = the set itself
    md = mu_delta_exact(ForbiddenFamily(4, ((0, 1), (0, 1))), 2, exact=True)
    assert md.delta == 2 * Fraction(1, 4)


def test_mu_delta_m_out_of_range():
    with pytest.raises(DomainError):
        mu_delta_exact(ForbiddenFamily(4, ((0,),)), 5)


def test_family_validation():
    with pytest.raises(DomainError):
        ForbiddenFamily(4, ((),))
    with pytest.raises(DomainError):
        ForbiddenFamily(4, ((4,),))
    with pytest.raises(DomainError):
        ForbiddenFamily(4, ((1, 1),))


# -- Janson -----------------------------------------------------------------


def test_janson_closed_form_point():
    # q* = min(1, 4/4) = 1: bound = 2 exp(-4 + 2)
    assert janson_upper(MuDelta(4.0, 4.0, 0.5)) == pytest.approx(2 * math.exp(-2))


def test_janson_zero_delta_uses_q_one():
    assert janson_upper(MuDelta(3.0, 0.0, 0.1)) == pytest.approx(2 * math.exp(-3))


def test_janson_clamps_to_one():
    assert janson_upper(MuDelta(0.0, 0.0, 0.5)) == 1.0
    assert janson_upper(MuDelta(0.1, 50.0, 0.5)) == 1.0


def test_janson_decreasing_in_mu():
    vals = [janson_upper(MuDelta(mu, 2.0, 0.5)) for mu in [0.5, 1, 2, 4, 8, 16]]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_mudelta_rejects_negative():
    with pytest.raises(DomainError):
        MuDelta(-1.0, 0.0, 0.5)


# -- FKG --------------------------------------------------------------------


def test_fkg_value_and_floor():
    fam = ForbiddenFamily(10, ((0, 1), (2, 3)))
    # product term (1 - (1.2*2/10)^2)^2, correction exp(-0.04*2/4)
    got = fkg_lower(fam, 2, 0.2)
    want = (1 - 0.24**2) ** 2 - math.exp(-0.02)
    assert got == pytest.approx(max(0.0, want))
    assert fkg_lower(ForbiddenFamily(4, ((0, 1),)), 2, 0.2) == 0.0  # floored


def test_fkg_preconditions():
    fam = ForbiddenFamily(10, ((0, 1),))
    with pytest.raises(DomainError, match="m="):
        fkg_lower(fam, 6, 0.2)  # m > floor(N/2)
    with pytest.raises(DomainError, match="eta"):
        fkg_lower(fam, 2, 1.0)
    with pytest.raises(DomainError):
        fkg_lower(fam, 2, 0.0)


# -- exact avoidance --------------------------------------------------------


def test_avoidance_fixtures():
    fam = ForbiddenFamily(6, ((0, 1), (2, 3)))
    assert avoidance_probability_exact(fam, 2) == Fraction(13, 15)
    assert avoidance_probability_exact(fam, 1) == 1  # m below every |B_i|
    singles = ForbiddenFamily(3, ((0,), (1,), (2,)))
    assert avoidance_probability_exact(singles, 1) == 0


def test_avoidance_superset_sets_are_irrelevant():
    a = ForbiddenFamily(8, ((0, 1), (0, 1, 2), (3, 4)))
    b = ForbiddenFamily(8, ((0, 1), (3, 4)))
    for m in range(9):
        assert avoidance_probability_exact(a, m) == avoidance_probability_exact(b, m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_avoidance_matches_brute_force(data):
    n = data.draw(st.integers(4, 10))
    nsets = data.draw(st.integers(1, 5))
    sets = tuple(
        tuple(
            data.draw(
                st.sets(st.integers(0, n - 1), min_size=1, max_size=3)
            )
        )
        for _ in range(nsets)
    )
    fam = ForbiddenFamily(n, sets)
    m = data.draw(st.integers(0, n))
    assert avoidance_probability_exact(fam, m) == brute_avoidance(fam, m)


# More than 20 minimal sets exceed inclusion-exclusion's 2^20 term guard, so
# the families below take the oracle's enumeration of the C(N, m) subsets.


def minimal_sets(fam):
    sets = {frozenset(b) for b in fam.sets}
    return {b for b in sets if not any(a < b for a in sets)}


def wide_family():
    """70 slots, so two 64-slot words: the 21 pairs in slots 60..66, three
    triples holding at most one of those slots, plus a duplicate pair and a
    superset of a pair, which add no minimal set."""
    sets = list(combinations(range(60, 67), 2))
    sets += [(0, 65, 69), (5, 67, 68), (10, 20, 69), (61, 60), (60, 61, 62)]
    return ForbiddenFamily(70, tuple(sets))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 68, 69, 70])
def test_enumeration_past_64_slots(m):
    fam = wide_family()
    assert len(minimal_sets(fam)) == 24
    assert avoidance_probability_exact(fam, m) == brute_avoidance(fam, m)


def test_enumeration_every_set_larger_than_m():
    fam = ForbiddenFamily(16, tuple(combinations(range(7), 3))[:25])
    assert len(minimal_sets(fam)) == 25
    for m in (1, 2):
        assert avoidance_probability_exact(fam, m) == 1 == brute_avoidance(fam, m)
    assert avoidance_probability_exact(fam, 3) == brute_avoidance(fam, 3) < 1


def test_enumeration_matches_brute_force_on_random_families():
    rnd = random.Random(1414)
    for _ in range(12):
        n = rnd.choice([20, 24, 70])
        size = rnd.choice([2, 3])
        target, distinct = rnd.randint(21, 32), set()
        while len(distinct) < target:
            distinct.add(tuple(sorted(rnd.sample(range(n), size))))
        sets = sorted(distinct)
        # a duplicate and a superset of an existing set change nothing
        extra = rnd.choice([s for s in range(n) if s not in sets[0]])
        fam = ForbiddenFamily(n, tuple(sets + [sets[-1], sets[0] + (extra,)]))
        assert 21 <= len(minimal_sets(fam)) <= 32
        m = rnd.choice([0, 1, 2, 3, n - 2, n] if n < 64 else [0, 1, 2, n - 1, n])
        assert avoidance_probability_exact(fam, m) == brute_avoidance(fam, m)


@pytest.mark.parametrize("n", [2**52 - 1, 10**20])
def test_enumeration_on_a_huge_ground_set_at_m_0_and_n(n):
    # 25 singletons pass inclusion-exclusion's guard, so the enumeration runs
    # its C(N, 0) = C(N, N) = 1 subset, which needs no walk of the N slots
    fam = ForbiddenFamily(n, tuple((i,) for i in range(25)))
    assert avoidance_probability_exact(fam, 0) == 1
    assert avoidance_probability_exact(fam, n) == 0


def test_huge_slot_indices():
    # counts, mu and Delta depend on set sizes and overlaps alone, so a slot
    # index of any size costs no more than a small one
    far = ForbiddenFamily(10**19, ((10**18,),))
    assert avoidance_probability_exact(far, 3) == 1 - Fraction(3, 10**19)
    md = mu_delta_exact(far, 3, exact=True)
    assert (md.mu, md.delta) == (Fraction(3, 10**19), 0)
    n, m, big = 10**30, 4, 10**29
    fam = ForbiddenFamily(n, ((big, 5), (5, big + 1), (7,)))
    md, p = mu_delta_exact(fam, m, exact=True), Fraction(m, n)
    assert (md.mu, md.delta) == (2 * p**2 + p, 2 * p**3)
    # inclusion-exclusion by hand: R holds a fixed u-set with chance
    # m(m-1)...(m-u+1) / n(n-1)...(n-u+1); the three sets pairwise span 3 slots
    held = [Fraction(math.perm(m, u), math.perm(n, u)) for u in range(5)]
    want = 1 - (2 * held[2] + held[1] - 3 * held[3] + held[4])
    assert avoidance_probability_exact(fam, m) == want


def test_enumeration_size_guard():
    # 24 minimal sets and C(70, 10) > 10^7 subsets: both strategies refuse
    with pytest.raises(SizeError, match="both exact strategies exceed their guards"):
        avoidance_probability_exact(wide_family(), 10)
    # C(20000, 10000) has over 4300 digits, past int-to-str's default limit:
    # the message must not print it
    fam = ForbiddenFamily(20000, tuple((i, i + 1) for i in range(0, 42, 2)))
    with pytest.raises(SizeError, match="both exact strategies exceed their guards"):
        avoidance_probability_exact(fam, 10000)


def test_exact_binomial_budget_edge(monkeypatch):
    # one 2-set at m = N/2 needs C(N, m) and C(N - 2, m - 2), about N bits
    # each: N = 314247 passes the work budget and N = 314248 does not; the
    # refusal comes before any binomial is built
    class Reached(Exception):
        pass

    def no_binomial(*args):
        raise Reached

    pair = ForbiddenFamily(60000, ((0, 1),))
    m = 30000
    assert avoidance_probability_exact(pair, m) == 1 - Fraction(m * (m - 1), 60000 * 59999)
    monkeypatch.setattr(math, "comb", no_binomial)
    with pytest.raises(Reached):
        avoidance_probability_exact(ForbiddenFamily(314247, ((0, 1),)), 314247 // 2)
    for n, sets in ((314248, ((0, 1),)), (10**6, ((0, 1),)), (10**6, ((0,),) * 21 + ((1, 2),))):
        with pytest.raises(SizeError, match="budget"):
            avoidance_probability_exact(ForbiddenFamily(n, sets), n // 2)


def test_exact_grouped_terms_on_huge_ground_sets():
    # C(N - u, m - u) / C(N, m) is a ratio of falling factorials, so the
    # oracle's answer has a closed form even where N is past float range
    def falling(x, k):
        return math.prod(range(x - k + 1, x + 1))

    for n in (10**6, 2**52 + 1, 10**400):
        m = 50
        fam = ForbiddenFamily(n, ((0, 1), (1, 2, 3), (0, 1, 2, 3)))
        # u = 2 and u = 3 once each, and u = 4 for {0,1} with {1,2,3}
        terms = ((2, 1), (3, 1), (4, -1))
        want = 1 - sum(c * Fraction(falling(m, u), falling(n, u)) for u, c in terms)
        assert avoidance_probability_exact(fam, m) == want


# -- sandwich ---------------------------------------------------------------


def test_sandwich_on_random_instances():
    rnd = random.Random(2024)
    checked = 0
    while checked < 60:
        n = rnd.randint(6, 16)
        nsets = rnd.randint(1, 6)
        sets = tuple(
            tuple(rnd.sample(range(n), rnd.randint(1, 4))) for _ in range(nsets)
        )
        fam = ForbiddenFamily(n, sets)
        m = rnd.randint(0, n // 2)
        exact = float(avoidance_probability_exact(fam, m))
        upper = janson_upper(mu_delta_exact(fam, m))
        assert exact <= upper + 1e-12
        eta = rnd.choice([0.2, 0.5, 0.8])
        lower = fkg_lower(fam, m, eta)
        assert lower <= exact + 1e-12
        checked += 1


# -- partition families -----------------------------------------------------


def test_krminus_structure():
    p = Partition(4, 2, (0, 0, 1, 1))
    fam = krminus_family(p, (0, 1))
    assert fam.ground_size == 4
    assert fam.slot_edges == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert fam.sets == ((0, 2), (1, 3))  # slots {(0,2),(1,2)} and {(0,3),(1,3)}


def test_krminus_golden_slots():
    # pinned slots: the classes interleave, so a slot's rank is not its
    # pair_table index, and each missing edge comes larger endpoint first
    fam = krminus_family(Partition(7, 3, (0, 1, 2, 0, 1, 0, 2)), (5, 0))
    assert fam.ground_size == 16
    assert fam.slot_edges == (
        (0, 1), (0, 2), (0, 4), (0, 6), (1, 2), (1, 3), (1, 5), (1, 6),
        (2, 3), (2, 4), (2, 5), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6),
    )
    assert fam.sets == (
        (0, 1, 4, 6, 10), (0, 3, 6, 7, 15), (1, 2, 9, 10, 13), (2, 3, 13, 14, 15)
    )
    fam = krminus_family(Partition(5, 2, (1, 0, 1, 0, 1)), (4, 0))
    assert fam.ground_size == 6
    assert fam.slot_edges == ((0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4))
    assert fam.sets == ((0, 3), (1, 5))


def test_krminus_rejects_cross_pair():
    p = Partition(4, 2, (0, 0, 1, 1))
    with pytest.raises(DomainError, match="classes"):
        krminus_family(p, (0, 2))
    with pytest.raises(DomainError):
        krminus_family(p, (1, 1))


def test_krminus_semantics_exhaustive():
    # avoidance of the family == adding the missing edge stays triangle-free
    p = Partition(5, 2, (0, 0, 0, 1, 1))
    fam = krminus_family(p, (0, 1))
    slots = fam.slot_edges
    for rmask in range(1 << fam.ground_size):
        edges = [slots[i] for i in range(fam.ground_size) if rmask >> i & 1]
        g = LabeledGraph.from_edge_list(5, edges + [(0, 1)])
        avoided = not any(
            all(rmask >> i & 1 for i in b) for b in fam.sets
        )
        assert avoided == (not contains_clique(g, 3))


def test_krminus_empty_other_class_gives_empty_family():
    p = Partition(3, 2, (0, 0, 0))  # class 1 empty -- only one real class
    fam = krminus_family(p, (0, 1))
    assert len(fam.sets) == 0
    assert avoidance_probability_exact(fam, 0) == 1


# -- closed-form mu / Delta -------------------------------------------------


def union_family(p, edges):
    fams = [krminus_family(p, e) for e in edges]
    return ForbiddenFamily(
        fams[0].ground_size,
        tuple(s for f in fams for s in f.sets),
        slot_edges=fams[0].slot_edges,
    )


def test_closed_form_single_edge_r2_has_zero_delta():
    p = Partition(4, 2, (0, 0, 1, 1))
    u = LabeledGraph.from_edge_list(4, [(0, 1)])
    md = mu_delta_closed_form(p, u, Fraction(1, 2), exact=True)
    assert md.delta == 0
    assert md.mu == Fraction(1, 2)  # 1 * 2^(2-1) * (1/2)^2


# Pinned mu_delta_closed_form values:
# r -> (mu, Delta) at p = 1/3 in rationals, then (mu, Delta) at p = 0.3 in
# floats.  The hosts' class sizes are (4, 3, 2, 2, 1)[:r], and U holds two
# disjoint and two adjacent pairs in class 0 and two adjacent pairs in class
# 1, so every D row whose sum is nonempty at r enters Delta.  The sandwich
# tests check only the direction of a bound; these catch a wrong coefficient.
CLOSED_FORM_GOLDEN = {
    2: ("5/3", "8/3", 1.3499999999999999, 1.9439999999999997),
    3: ("20/243", "736/2187", 0.04859999999999999, 0.14554922399999995),
    4: ("40/19683", "64544/14348907", 0.0007873199999999998, 0.0011010746664518395),
    5: ("5/4782969", "1180544/94143178827", 2.3914844999999985e-07, 1.6534292372254833e-06),
}


@pytest.mark.parametrize("r", sorted(CLOSED_FORM_GOLDEN))
def test_closed_form_golden_values(r):
    class_of = tuple(c for c, s in enumerate((4, 3, 2, 2, 1)[:r]) for _ in range(s))
    p = Partition(len(class_of), r, class_of)
    u = LabeledGraph.from_edge_list(p.n, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
    mu, delta, fmu, fdelta = CLOSED_FORM_GOLDEN[r]
    md = mu_delta_closed_form(p, u, Fraction(1, 3), exact=True)
    assert (md.mu, md.delta, md.p) == (Fraction(mu), Fraction(delta), Fraction(1, 3))
    assert type(md.mu) is type(md.delta) is Fraction
    md = mu_delta_closed_form(p, u, 0.3)
    assert (md.mu, md.delta) == (fmu, fdelta)  # equal to the last bit
    assert type(md.mu) is type(md.delta) is float


def test_closed_form_rejects_cross_class_edges():
    p = Partition(4, 2, (0, 0, 1, 1))
    u = LabeledGraph.from_edge_list(4, [(0, 2)])
    with pytest.raises(DomainError, match="monochromatic"):
        mu_delta_closed_form(p, u, 0.5)


@pytest.mark.parametrize(
    "sizes,r",
    [((3, 3), 2), ((4, 2), 2), ((2, 2, 2), 3), ((3, 2, 2), 3)],
)
def test_closed_form_sandwiches_exact(sizes, r):
    # mu_lower <= mu_exact and delta_upper >= delta_exact, in rationals
    class_of = []
    for c, s in enumerate(sizes):
        class_of += [c] * s
    p = Partition(sum(sizes), r, tuple(class_of))
    within = [
        (u, v)
        for u in range(p.n)
        for v in range(u + 1, p.n)
        if p.class_of[u] == p.class_of[v]
    ]
    ground = union_family(p, within[:1]).ground_size
    for k in (1, 2, 3):
        for edges in combinations(within, k):
            fam = union_family(p, list(edges))
            u = LabeledGraph.from_edge_list(p.n, list(edges))
            for m in (1, ground // 3, ground // 2):
                md_ex = mu_delta_exact(fam, m, exact=True)
                md_cf = mu_delta_closed_form(p, u, Fraction(m, ground), exact=True)
                assert md_cf.mu <= md_ex.mu
                assert md_cf.delta >= md_ex.delta


# -- tail bounds ------------------------------------------------------------


def test_hoeffding_fixture_and_clamp():
    assert hypergeom_hoeffding(0.2, 0.5, 6) == pytest.approx((2 * 0.2**0.5) ** 6)
    assert hypergeom_hoeffding(0.9, 0.1, 3) == 1.0  # 2*alpha^lam > 1
    assert hypergeom_hoeffding(0.2, 0.5, 0) == 1.0


def test_hoeffding_dominates_exact_tail_point():
    # n=30, d=6, alpha=0.2, lam=0.5: segment K = floor(0.1*30) = 3,
    # threshold lam*d = 3: exact tail C(3,3)C(27,3)/C(30,6) = 1/203
    tail = Fraction(math.comb(27, 3), math.comb(30, 6))
    assert tail == Fraction(1, 203)
    assert tail < hypergeom_hoeffding(0.2, 0.5, 6)


def test_hoeffding_validation():
    with pytest.raises(DomainError):
        hypergeom_hoeffding(1.2, 0.5, 3)
    with pytest.raises(DomainError):
        hypergeom_hoeffding(0.2, 0.5, -1)


def test_dsets_fixture():
    res = dsets_tail_bound(2, 0.2, 0.5, [10, 10], 4)
    assert res.bound == min(1.0, 15 * (2 * 0.2**0.5) ** 4)
    assert res.tau == pytest.approx((0.1) ** 8 * 0.25 * 4 ** (-8 / (4 * 0.5)))


def test_dsets_validation():
    with pytest.raises(DomainError, match="class_sizes"):
        dsets_tail_bound(2, 0.2, 0.5, [10], 4)
    with pytest.raises(DomainError, match="d="):
        dsets_tail_bound(2, 0.2, 0.5, [10, 10], 1)
    with pytest.raises(DomainError):
        dsets_tail_bound(2, 0.2, 0.5, [3, 3], 4)  # d > min size


def test_vandermonde_products_stay_below():
    for a in range(1, 13):
        for b in range(1, 13):
            for c in range(0, a + b + 1):
                for d in range(0, c + 1):
                    assert math.comb(a, d) * math.comb(b, c - d) <= math.comb(a + b, c)


# -- regularization ---------------------------------------------------------


def test_regularization_single_step_adds_full_product():
    params = RegularizationParams(c2=200.0, dstar=2, lam=2**-4)
    h, flags = construct_regularized_hypergraph(
        [[[0, 1], [0, 1], [0, 1]]], params, [4, 4, 4]
    )
    assert len(h) == 8 and flags == [True]
    assert set(h) == set(product((0, 1), repeat=3))


def test_regularization_repeat_step_not_useful():
    params = RegularizationParams(c2=200.0, dstar=2, lam=2**-4)
    w = [[[0, 1], [0, 1], [0, 1]]] * 2
    h, flags = construct_regularized_hypergraph(w, params, [4, 4, 4])
    assert len(h) == 8  # no duplicates
    assert flags == [True, False]


def test_regularization_low_threshold_blocks():
    # c2 tiny: after the first step every pair is saturated, so the second
    # (disjoint) vertex still adds, but any overlapping sub-tuple is blocked
    params = RegularizationParams(c2=1e-9, dstar=2, lam=0.4)
    w = [
        [[0, 1], [0, 1], [0, 1]],
        [[0, 1], [0, 1], [2, 3]],  # shares the (a,b) pair coordinates
    ]
    h, flags = construct_regularized_hypergraph(w, params, [4, 4, 4])
    assert len(h) == 8  # second step fully blocked on the {0,1}x{0,1} pairs
    assert flags == [True, False]


def test_regularization_caps_and_useful_gain():
    rnd = random.Random(99)
    for r, dstar in [(2, 3), (2, 6), (3, 3), (3, 5)]:
        sizes = [rnd.randint(8, 12) for _ in range(r)]
        params = RegularizationParams(
            c2=rnd.choice([20.0, 100.0, 400.0]),
            dstar=dstar,
            lam=2 ** -(r + 1),
        )
        w = [
            [rnd.sample(range(sizes[j]), dstar) for j in range(r)]
            for _ in range(12)
        ]
        h, flags = construct_regularized_hypergraph(w, params, sizes)
        n = sum(sizes)
        # degree caps for every middle arity
        for s in range(2, r):
            for idx in combinations(range(r), s):
                codeg = {}
                for t in h:
                    key = tuple(t[j] for j in idx)
                    codeg[key] = codeg.get(key, 0) + 1
                cap = (params.c2 / 2) * len(h) / n**s + dstar ** (r - s)
                assert all(v <= cap for v in codeg.values())
        # every useful step contributed at least dstar^r / 2 tuples
        sizes_before = [
            len(construct_regularized_hypergraph(w[:i], params, sizes)[0])
            for i in range(len(w) + 1)
        ]
        for i, fl in enumerate(flags):
            if fl:
                assert sizes_before[i + 1] - sizes_before[i] >= dstar**r / 2


def test_regularization_flag_at_its_budgets():
    # at most lam * dstar^|I| saturated sub-tuples and lam * dstar^r present
    # tuples leave a step useful: here exactly one saturated pair (0,1) -> (1,1)
    # of a budget of 4 * 1/4, then exactly 2 present tuples of 4 * 1/2
    w = [[[0, 1], [0, 1], [0, 1]], [[1, 2], [1, 2], [2, 3]]]
    for lam, flags in ((0.25, [True, True]), (0.24, [True, False])):
        h, got = construct_regularized_hypergraph(w, RegularizationParams(36.0, 2, lam), [4, 4, 4])
        assert got == flags and len(h) == 14  # the two tuples on (1,1) are blocked
    w = [[[0, 1], [0, 1]], [[0, 1], [0, 2]]]
    for lam, flags in ((0.5, [True, True]), (0.49, [True, False])):
        h, got = construct_regularized_hypergraph(w, RegularizationParams(1.0, 2, lam), [3, 3])
        assert got == flags and len(h) == 6


def test_regularization_golden_run():
    # a pinned run: c2 and lam make some steps useful and some not, and
    # block some tuples (121 of the 384 in the W-products are added)
    rnd = random.Random(18)
    sizes = (6, 5, 4, 4)
    w = [[rnd.sample(range(s), 2) for s in sizes] for _ in range(24)]
    params = RegularizationParams(c2=200.0, dstar=2, lam=0.4)
    h, flags = construct_regularized_hypergraph(w, params, sizes)
    assert len(h) == 121
    assert "".join("01"[f] for f in flags) == "111111000111110001010000"
    assert h[:2] == [(1, 3, 1, 3), (1, 3, 1, 2)] and h[-1] == (2, 1, 0, 3)
    digest = hashlib.sha256(repr(h).encode()).hexdigest()
    assert digest == "7ea2902a8ab032b8c947d8324db3281f7c12867143c1a2421f3b756e1eaf7ae2"


def test_regularization_validation():
    params = RegularizationParams(c2=10.0, dstar=2, lam=0.1)
    with pytest.raises(DomainError, match="W\\[0\\]\\[1\\]"):
        construct_regularized_hypergraph([[[0, 1], [0, 0]]], params, [4, 4])
    with pytest.raises(DomainError):
        construct_regularized_hypergraph([[[0, 5], [0, 1]]], params, [4, 4])
    with pytest.raises(DomainError):
        RegularizationParams(c2=0.0, dstar=2, lam=0.1)
    with pytest.raises(DomainError):
        RegularizationParams(c2=1.0, dstar=2, lam=1.5)


# -- criticality probe ------------------------------------------------------


def test_probe_fixture_at_threshold():
    got = heuristic_threshold_probe(10**4, 2, m_r(10**4, 2))
    assert got == pytest.approx(1.2892402880937952, rel=1e-9)


def test_probe_regimes():
    for n in (10**4, 10**5):
        at = m_r(n, 2)
        assert 0.1 <= heuristic_threshold_probe(n, 2, at) <= 10
        assert heuristic_threshold_probe(n, 2, 2 * at) < 0.01
        assert heuristic_threshold_probe(n, 2, at / 2) > 100


def test_probe_saturated_grid_returns_zero():
    # m at/above the full cross-pair count: nothing left to complete
    assert heuristic_threshold_probe(10, 2, 25) == 0.0
    assert heuristic_threshold_probe(10, 2, 30) == 0.0
    assert heuristic_threshold_probe(5, 2, 1e155) == 0.0  # exp would overflow


def test_probe_validation():
    with pytest.raises(DomainError):
        heuristic_threshold_probe(10, 1, 5)
    with pytest.raises(DomainError):
        heuristic_threshold_probe(10, 2, 0)


# -- interchange ------------------------------------------------------------


def test_family_json_roundtrip():
    fam = ForbiddenFamily(9, ((0, 3), (1,), (2, 5, 8)))
    back = family_from_json(family_to_json(fam))
    assert back.ground_size == 9 and back.sets == fam.sets


def test_family_json_rejects_garbage():
    with pytest.raises(DomainError):
        family_from_json("not json at all {")
    with pytest.raises(DomainError):
        family_from_json('{"sets": [[0]]}')
