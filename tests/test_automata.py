import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from horsmc import (Apt, Atom, BOTTOM, EPSILON, FALSE, FAnd, FOr, TRUE,
                    TreePrefix, color_set, conj, disj, dnf, format_color,
                    satisfies, unfold)
from horsmc.automata import Antichain
from horsmc.oracles import eval_formula, run_search
from conftest import loop_apt


def test_epsilon_is_minimal_and_distinct():
    # Colors are ints: the neutral color is below every natural, so `max`
    # joins colors and `sorted` orders them.
    assert EPSILON < 0
    assert max(EPSILON, 3) == 3
    assert max(EPSILON, EPSILON) == EPSILON
    assert max(2, 1) == 2
    assert sorted([2, EPSILON, 0]) == [EPSILON, 0, 2]
    assert format_color(EPSILON) == "e" and format_color(0) == "0"


class TestDnf:
    def test_conjunction_of_atoms(self):
        f = conj(Atom(2, "q0"), Atom(2, "q1"))
        assert dnf(f) == frozenset({frozenset({(2, "q0"), (2, "q1")})})

    def test_true_is_the_empty_clause(self):
        assert dnf(TRUE) == frozenset({frozenset()})
        assert dnf(FALSE) == frozenset()

    def test_builders_are_flat(self):
        a, b, c = Atom(1, "q"), Atom(2, "q"), Atom(3, "q")
        assert conj() == TRUE and disj() == FALSE
        assert conj(a) is a and disj(a) is a
        assert conj(conj(a, b), TRUE, c) == FAnd((a, b, c))
        assert disj(a, disj(b, c), FALSE) == FOr((a, b, c))
        assert conj(disj(a, b), c) == FAnd((FOr((a, b)), c))

    def test_wide_conjunction(self):
        f = conj(*(Atom(d, "q") for d in range(1, 3001)))
        assert f == FAnd(tuple(Atom(d, "q") for d in range(1, 3001)))
        assert dnf(f) == {frozenset((d, "q") for d in range(1, 3001))}

    def test_antichain_reduction(self):
        f = FAnd((FOr((Atom(1, "q"), Atom(2, "q"))), Atom(1, "q")))
        # evaluation oracle: identical satisfying sets over all assignments
        assert dnf(f) == frozenset({frozenset({(1, "q")})})

    def _random_formula(self, rng, atoms, depth):
        if depth == 0 or rng.random() < 0.3:
            r = rng.random()
            if r < 0.1:
                return TRUE
            if r < 0.2:
                return FALSE
            return Atom(*rng.choice(atoms))
        ctor = FAnd if rng.random() < 0.5 else FOr
        return ctor((self._random_formula(rng, atoms, depth - 1),
                     self._random_formula(rng, atoms, depth - 1)))

    def test_soundness_completeness_over_assignments(self):
        atoms = [(1, "q0"), (1, "q1"), (2, "q0"), (2, "q1"), (3, "q0"),
                 (3, "q1")]
        rng = random.Random(7)
        for _ in range(150):
            f = self._random_formula(rng, atoms, 4)
            clauses = dnf(f)
            assert not any(a < b for a in clauses for b in clauses), f
            for bits in itertools.product([False, True], repeat=len(atoms)):
                truth = frozenset(a for a, b in zip(atoms, bits) if b)
                want = eval_formula(f, truth)
                got = any(c <= truth for c in clauses)
                assert want == got, (f, truth)


class TestAntichain:
    def test_add_drops_strict_supersets_only(self):
        ab, ac, a, d = (frozenset(s) for s in ("ab", "ac", "a", "d"))
        found = Antichain()
        found.add(ab, 1)
        found.add(ac, 2)
        found.add(d, 3)
        assert found.sets == {ab: 1, ac: 2, d: 3}
        found.add(a, 4)
        assert found.sets == {d: 3, a: 4}
        assert found.sizes == {1}

    @pytest.mark.parametrize("stored", [1, 40])
    def test_subset_query_by_scan_and_by_hashing(self, stored):
        # One stored set, or forty that share "x": either way a query reads
        # only the sets filed under its own elements.
        found = Antichain()
        for i in range(stored):
            found.add(frozenset({"x", i}))
        abc = frozenset({"x", 0, "y"})
        assert found.has_subset_of(abc)
        assert found.has_subset_of(frozenset({"x", 0}))
        assert not found.has_subset_of(frozenset({"x", "y", "z"}))
        assert not found.has_subset_of(frozenset({0}))

    # Each step offers a set (added unless it contains a stored one, as the
    # footprint search does) or only queries it.
    steps = st.lists(st.tuples(st.booleans(),
                               st.frozensets(st.integers(0, 5))),
                     max_size=30)

    @given(steps)
    # A stored empty set, and queries after it.
    @example([(True, frozenset({1})), (True, frozenset()),
              (False, frozenset({1, 2})), (True, frozenset({3}))])
    # {0, 1} is filed under 1, whose bucket is shorter than 0's, so the
    # query {0, 1} finds it in the bucket of its second element.
    @example([(True, frozenset({0, 5})), (True, frozenset({0, 1})),
              (False, frozenset({0, 1}))])
    # One add drops three supersets filed under different elements.
    @example([(True, frozenset({0, 1})), (True, frozenset({0, 2, 3})),
              (True, frozenset({0, 4})), (True, frozenset({1, 2})),
              (True, frozenset({0})), (False, frozenset({0, 5}))])
    def test_queries_match_a_brute_force_model(self, steps):
        found, model = Antichain(), {}
        subsets = [frozenset(c) for n in range(7)
                   for c in itertools.combinations(range(6), n)]
        for i, (offer, s) in enumerate(steps):
            has = any(k <= s for k in model)
            assert found.has_subset_of(s) == has
            if offer and not has:
                found.add(s, i)
                model = {k: v for k, v in model.items() if not s < k}
                model[s] = i
            assert found.sets == model
            assert found.sizes == {len(k) for k in model}
            for q in subsets:
                assert found.has_subset_of(q) == any(k <= q for k in model)


class TestSatisfies:
    def test_branching_profile_q0(self, ex1_apt):
        alpha = (frozenset(), frozenset({(0, "q0"), (0, "q1")}))
        assert satisfies(alpha, "q0", "if", ex1_apt)

    def test_branching_profile_q1(self, ex1_apt):
        alpha = (frozenset({(0, "q1")}), frozenset({(0, "q0")}))
        assert satisfies(alpha, "q1", "if", ex1_apt)

    def test_empty_profile(self, ex1_apt):
        assert not satisfies((frozenset(), frozenset()), "q0", "if", ex1_apt)
        assert satisfies((), "q0", "Nil", ex1_apt)

    def test_wrong_color_fails(self, ex1_apt):
        alpha = (frozenset(), frozenset({(1, "q0"), (0, "q1")}))
        assert not satisfies(alpha, "q0", "if", ex1_apt)

    def test_monotone_in_profile(self, ex1_apt):
        # exhaustively over profiles for a binary symbol, |Q| = 2
        pool = [(c, q) for c in (EPSILON, 0, 1) for q in ("q0", "q1")]
        subsets = [frozenset(s) for n in range(3)
                   for s in itertools.combinations(pool, n)]
        for q in ex1_apt.states:
            for u1, u2 in itertools.product(subsets, repeat=2):
                if not satisfies((u1, u2), q, "if", ex1_apt):
                    continue
                for e1, e2 in itertools.product(subsets, repeat=2):
                    if u1 <= e1 and u2 <= e2:
                        assert satisfies((e1, e2), q, "if", ex1_apt)

    def test_arity_mismatch_rejected(self, ex1_apt):
        with pytest.raises(ValueError):
            satisfies((frozenset(),), "q0", "if", ex1_apt)


class TestColorSet:
    def test_image_plus_neutral(self):
        m = Apt(states=("q0", "q1"), terminals={}, delta={},
                omega={"q0": 0, "q1": 1}, initial="q0")
        assert color_set(m) == (EPSILON, 0, 1)

    def test_constant_coloring(self, ex1_apt):
        assert color_set(ex1_apt) == (EPSILON, 0)

    def test_neutral_always_present(self):
        assert len(color_set(loop_apt(7))) == 2


class TestValidate:
    # Parsing refuses an automaton without states and colors every listed
    # state, so only an `Apt` built in Python reaches these two checks.
    @pytest.mark.parametrize("states, omega, message", [
        ((), {}, "automaton has no states"),
        (("q", "r"), {"q": 0}, "state 'r' has no color"),
    ], ids=["no-states", "state-without-a-color"])
    def test_checks_that_parsing_lets_through(self, states, omega, message):
        m = Apt(states=states, terminals={}, delta={}, omega=omega,
                initial="q")
        with pytest.raises(ValueError) as e:
            m.validate()
        assert str(e.value) == message

    def test_repeated_state_rejected(self):
        m = Apt(states=("q", "r", "q"), terminals={}, delta={},
                omega={"q": 0, "r": 0}, initial="q")
        with pytest.raises(ValueError, match="state 'q' is listed twice"):
            m.validate()

    def test_color_for_unlisted_state_rejected(self):
        m = Apt(states=("q",), terminals={}, delta={},
                omega={"q": 0, "r": 1}, initial="q")
        with pytest.raises(ValueError,
                           match="color for unlisted state 'r'"):
            m.validate()

    def test_transition_for_unknown_symbol_rejected(self):
        m = Apt(states=("q",), terminals={"a": 1}, delta={("q", "b"): TRUE},
                omega={"q": 0}, initial="q")
        with pytest.raises(ValueError,
                           match="transition for unknown symbol 'b'"):
            m.validate()

    def test_direction_inside_a_group_is_checked(self):
        f = conj(Atom(1, "q"), disj(Atom(1, "q"), conj(Atom(2, "q"),
                                                        Atom(1, "q"))))
        m = Apt(states=("q",), terminals={"a": 1}, delta={("q", "a"): f},
                omega={"q": 0}, initial="q")
        with pytest.raises(ValueError, match="direction 2 out of range"):
            m.validate()

    def test_wide_conjunction_validates(self):
        f = conj(*[Atom(1, "q")] * 1000)
        m = Apt(states=("q",), terminals={"a": 1}, delta={("q", "a"): f},
                omega={"q": 0}, initial="q")
        m.validate()
        assert dnf(f) == {frozenset({(1, "q")})}

    def test_negative_color_rejected(self):
        # The neutral color is -1, so no state may carry a negative color.
        m = Apt(states=("q",), terminals={}, delta={}, omega={"q": -1},
                initial="q")
        with pytest.raises(ValueError,
                           match="state 'q' has the negative color -1"):
            m.validate()


class TestRunSearch:
    def test_example_prefixes(self, ex1, ex1_apt):
        for d in range(9):
            assert run_search(ex1_apt, unfold(ex1, d), "q0")
            assert run_search(ex1_apt, unfold(ex1, d), "q1")

    def test_unresolved_leaf_accepts(self, ex1_apt):
        assert run_search(ex1_apt, BOTTOM, "q0")

    def test_false_transition_rejects(self):
        m = Apt(states=("q",), terminals={"a": 0}, delta={},
                omega={"q": 0}, initial="q")
        assert not run_search(m, TreePrefix("a"), "q")

    def test_antitone_under_refinement(self, ex1, ex1_apt):
        # accepting a refinement implies accepting every coarser prefix
        for d in range(1, 8):
            coarse, fine = unfold(ex1, d), unfold(ex1, d + 1)
            for q in ex1_apt.states:
                if run_search(ex1_apt, fine, q):
                    assert run_search(ex1_apt, coarse, q)

    def test_clause_choice_matters(self):
        # delta(q,a) = (1,q0) \/ (1,q1): accepted iff some disjunct runs
        m = Apt(states=("q", "q0", "q1"), terminals={"a": 1, "b": 0, "c": 0},
                delta={("q", "a"): disj(Atom(1, "q0"), Atom(1, "q1")),
                       ("q0", "b"): TRUE,
                       ("q1", "c"): TRUE},
                omega={"q": 0, "q0": 0, "q1": 0}, initial="q")
        t_b = TreePrefix("a", (TreePrefix("b"),))
        t_c = TreePrefix("a", (TreePrefix("c"),))
        assert run_search(m, t_b, "q")
        assert run_search(m, t_c, "q")
        assert not run_search(m, TreePrefix("a", (TreePrefix("a", (BOTTOM,)),)), "q")
