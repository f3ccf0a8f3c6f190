import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from horsmc import (Arrow, ArrowType, EPSILON, GROUND, SizeGuardExceeded,
                    StateType, colored_set, count_types,
                    enumerate_colored_sets, enumerate_types,
                    is_terminal_type, subtype, subtype_set)
from horsmc import itypes
from horsmc.itypes import EMPTY_SET, natural_code, profile_of, split_chain
from horsmc.oracles import box_color
from conftest import loop_apt

Q0, Q1 = StateType("q0"), StateType("q1")
OO = Arrow(GROUND, GROUND)


class TestEnumerate:
    def test_ground_is_the_state_set(self, ex1_apt):
        assert enumerate_types(GROUND, ex1_apt) == [Q0, Q1]

    def test_single_state_arrow_count(self):
        m = loop_apt(0)
        assert len(enumerate_types(OO, m)) == 4
        assert count_types(OO, m) == 4

    def test_two_state_arrow_count(self, ex1_apt):
        ts = enumerate_types(OO, ex1_apt)
        assert len(ts) == 32
        assert count_types(OO, ex1_apt) == 32
        assert len(set(ts)) == 32  # canonical and duplicate-free
        assert count_types(Arrow(GROUND, OO), ex1_apt) == 2 ** 4 * 32

    def test_deterministic_order(self, ex1_apt):
        assert enumerate_types(OO, ex1_apt) == enumerate_types(OO, ex1_apt)

    def test_size_guard_reports_cardinality(self, ex1_apt):
        big = Arrow(OO, GROUND)  # 2^(2*32) * 2 candidates
        with pytest.raises(SizeGuardExceeded) as e:
            enumerate_types(big, ex1_apt)
        assert e.value.count == 2 ** 64 * 2

    def test_counts_at_the_limit_are_exact(self, monkeypatch):
        m = loop_apt(0)  # one state, colors e and 0: |o -> o| = 4
        monkeypatch.setattr(itypes, "DEFAULT_ENUM_LIMIT", 4)
        assert len(enumerate_types(OO, m)) == count_types(OO, m) == 4
        # an argument sort of 4 types, and a count of 4 so far, go on
        assert count_types(Arrow(OO, GROUND), m) == 2 ** (2 * 4)
        assert count_types(Arrow(GROUND, OO), m) == 16
        # past the limit, the count stops
        assert count_types(Arrow(Arrow(OO, GROUND), GROUND), m) is None
        assert count_types(Arrow(OO, Arrow(OO, GROUND)), m) is None

    def test_a_deep_argument_sort_is_never_counted(self, ex1_apt):
        # |(o -> o) -> o| = 2 ** (2 * 32) * 2: raising 2 to a power of that
        # would take about 2 ** 65 bits
        deep = Arrow(Arrow(Arrow(OO, GROUND), GROUND), GROUND)
        assert count_types(deep, ex1_apt) is None
        with pytest.raises(SizeGuardExceeded) as e:
            enumerate_types(deep, ex1_apt)
        assert e.value.count is None
        assert str(e.value) == ("type space at sort (((o -> o) -> o) -> o) "
                                "-> o: more candidates than the limit "
                                "1048576")


def tuple_key(x):
    """The order key that `key` encodes, written out as nested tuples: a
    state by its name, an arrow by argument set, then result, a colored set
    by its sorted (color, type) pairs."""
    if isinstance(x, StateType):
        return (0, x.state)
    if isinstance(x, ArrowType):
        return (1, tuple_key(x.argument), tuple_key(x.result))
    return tuple(sorted((c, tuple_key(t)) for c, t in x.pairs))


# Names share prefixes (q, q0) and hold a NUL, a 0x01, non-ASCII
# characters and a lone surrogate.
NAMES = st.lists(st.sampled_from(["q", "0", "\x00", "\x01", "\xe9",
                                  "\U0001F600", "\ud800"]),
                 max_size=3).map("".join)
COLORS = st.one_of(st.integers(EPSILON, 2), st.integers(EPSILON, 2 ** 70))
# Arrows nest two deep in argument and in result position.
KEY_SORTS = [GROUND, OO, Arrow(OO, GROUND), Arrow(GROUND, OO),
             Arrow(Arrow(OO, GROUND), GROUND)]


def types_of(sort):
    if sort is GROUND:
        return NAMES.map(StateType)
    return st.builds(ArrowType, sets_of(sort.domain), types_of(sort.codomain))


def sets_of(sort):
    return st.lists(st.tuples(COLORS, types_of(sort)),
                    max_size=2).map(colored_set)


@st.composite
def same_sort_pairs(draw):
    """Two types, or two colored sets, of one sort."""
    sort = draw(st.sampled_from(KEY_SORTS))
    values = draw(st.sampled_from([types_of, sets_of]))(sort)
    return draw(values), draw(values)


class TestOrderKey:
    @settings(max_examples=400, deadline=None)
    @given(same_sort_pairs())
    # a state, then a later pair, against an extension of its name
    @example((colored_set([(0, StateType("q")), (1, StateType("x"))]),
              colored_set([(0, StateType("q\x00"))])))
    @example((ArrowType(EMPTY_SET, StateType("q")),
              ArrowType(EMPTY_SET, StateType("q0"))))
    # colors whose codes differ in length
    @example((colored_set([(255, Q0)]), colored_set([(1, Q0)])))
    def test_bytes_order_is_the_nested_tuple_order(self, pair):
        a, b = pair
        assert isinstance(a.key, bytes)
        assert (a.key < b.key) == (tuple_key(a) < tuple_key(b))
        assert (a.key == b.key) == (a is b)

    def test_lengths_past_one_byte_keep_their_order(self):
        # byte lengths 254, 255 and 256 of c + 1, each side of the cut
        ns = [0, 1, 255, 256, 256 ** 254 - 1, 256 ** 254, 256 ** 255 - 1,
              256 ** 255, 256 ** 256 - 1, 256 ** 256, 256 ** 300]
        codes = list(map(natural_code, ns))
        assert sorted(codes) == codes and len(set(codes)) == len(codes)
        assert not any(x.startswith(y) for x in codes for y in codes
                       if x is not y)
        assert colored_set([(256 ** 300, Q0)]).key > colored_set(
            [(2, Q0)]).key


class TestSubtype:
    def test_states_by_equality(self):
        assert subtype(Q0, Q0)
        assert not subtype(Q0, Q1)

    def test_arrow_contravariance(self):
        u = colored_set([(0, Q0)])
        v = colored_set([(0, Q0), (1, Q1)])
        # v dominates u, so (v -> q) <= (u -> q)
        assert subtype(ArrowType(v, Q0), ArrowType(u, Q0))
        assert not subtype(ArrowType(u, Q0), ArrowType(v, Q0))
        assert subtype(ArrowType(u, Q0), ArrowType(EMPTY_SET, Q0))

    def test_reflexive_on_the_32_element_space(self, ex1_apt):
        for t in enumerate_types(OO, ex1_apt):
            assert subtype(t, t)

    def test_sort_mismatch_raises(self):
        with pytest.raises(ValueError):
            subtype(Q0, ArrowType(EMPTY_SET, Q0))

    def test_preorder_on_small_spaces(self, ex1_apt):
        m1 = loop_apt(0)
        for m, sorts in ((ex1_apt, [GROUND, OO, Arrow(GROUND, OO)]),
                         (m1, [GROUND, OO, Arrow(OO, GROUND)])):
            for sort in sorts:
                types = enumerate_types(sort, m)
                rows = []
                for a in types:
                    bits = 0
                    for j, b in enumerate(types):
                        if subtype(a, b):
                            bits |= 1 << j
                    rows.append(bits)
                for i, row in enumerate(rows):
                    assert row >> i & 1  # reflexivity
                    for j in range(len(types)):
                        if row >> j & 1:  # transitivity via row inclusion
                            assert rows[j] & ~row == 0, (sort, i, j)


class TestSubtypeSet:
    def test_empty_below_everything(self, ex1_apt):
        for v in enumerate_colored_sets(GROUND, ex1_apt):
            assert subtype_set(EMPTY_SET, v)

    def test_color_must_match(self):
        assert subtype_set(colored_set([(0, Q0)]),
                           colored_set([(0, Q0), (1, Q1)]))
        assert not subtype_set(colored_set([(0, Q0)]),
                               colored_set([(1, Q0)]))

    def test_agreement_with_double_loop(self, ex1_apt):
        sets = enumerate_colored_sets(GROUND, ex1_apt)
        rng = random.Random(3)
        for _ in range(300):
            u, v = rng.choice(sets), rng.choice(sets)
            brute = all(any(c2 == c and subtype(a, b) for c2, b in v)
                        for c, a in u)
            assert subtype_set(u, v) == brute

    def test_preorder_exhaustive_on_ground_sets(self, ex1_apt):
        sets = enumerate_colored_sets(GROUND, ex1_apt)
        rel = {(u, v) for u in sets for v in sets if subtype_set(u, v)}
        for u in sets:
            assert (u, u) in rel
        for u, v in rel:
            for w in sets:
                if (v, w) in rel:
                    assert (u, w) in rel


class TestBoxColor:
    def test_neutral_is_identity(self, ex1_apt):
        for u in enumerate_colored_sets(GROUND, ex1_apt):
            assert box_color(EPSILON, u) == u

    def test_pointwise_max(self):
        u = colored_set([(1, Q0), (3, Q1)])
        assert box_color(2, u) == colored_set([(2, Q0), (3, Q1)])

    def test_composition_is_max(self):
        pool = [(c, t) for c in (EPSILON, 0, 1, 2, 3) for t in (Q0, Q1)]
        sets = [colored_set(s) for n in range(3)
                for s in itertools.combinations(pool, n)]
        colors = [EPSILON, 0, 1, 2, 3]
        for u in sets:
            for c1 in colors:
                for c2 in colors:
                    assert box_color(c1, box_color(c2, u)) == \
                        box_color(max(c1, c2), u)

    def test_monotone_wrt_subtype_set(self, ex1_apt):
        sets = enumerate_colored_sets(GROUND, ex1_apt)
        rng = random.Random(11)
        for _ in range(200):
            u, v = rng.choice(sets), rng.choice(sets)
            if subtype_set(u, v):
                for c in (EPSILON, 0, 2):
                    assert subtype_set(box_color(c, u), box_color(c, v))


class TestIsTerminalType:
    def test_if_type_from_the_example(self, ex1_apt):
        t = ArrowType(EMPTY_SET,
                      ArrowType(colored_set([(0, Q0), (0, Q1)]), Q0))
        assert is_terminal_type("if", t, ex1_apt)

    def test_nullary_with_true_transition(self, ex1_apt):
        assert is_terminal_type("Nil", Q0, ex1_apt)
        assert is_terminal_type("Nil", Q1, ex1_apt)

    def test_missing_transition_is_false(self, ex1_apt):
        assert not is_terminal_type("data", ArrowType(EMPTY_SET, Q0), ex1_apt)

    def test_non_ground_entry_is_false(self, ex1_apt):
        t = ArrowType(colored_set([(0, ArrowType(EMPTY_SET, Q0))]),
                      ArrowType(EMPTY_SET, Q0))
        # entries of the argument sets must be states
        assert not is_terminal_type("if", t, ex1_apt)
        # also where the ground entries alone cover q0's clause
        # (2,q0) /\ (2,q1)
        t = ArrowType(t.argument,
                      ArrowType(colored_set([(0, Q0), (0, Q1)]), Q0))
        assert profile_of(split_chain(t)[0]) is None
        assert not is_terminal_type("if", t, ex1_apt)
        ground = ArrowType(EMPTY_SET, t.result)
        assert profile_of(split_chain(ground)[0]) == ((), ((0, "q0"),
                                                          (0, "q1")))
        assert is_terminal_type("if", ground, ex1_apt)

    def test_downward_closed(self, ex1_apt):
        # the saturation property, exhaustively over the fixture's if-space
        sort = Arrow(GROUND, Arrow(GROUND, GROUND))
        types = enumerate_types(sort, ex1_apt)
        good = [t for t in types if is_terminal_type("if", t, ex1_apt)]
        for t in good:
            for t2 in types:
                if subtype(t2, t):
                    assert is_terminal_type("if", t2, ex1_apt)
