import hashlib
import pickle
import random
from collections import Counter

import pytest

from horsmc import (ADAM, AdamNode, Apt, ColorNode, EVE, EveNode,
                    ParityGame, Solution, SizeGuardExceeded, StateType,
                    accepted_states, build_game, check_adam_strategy,
                    check_eve_strategy, colored_set, extract_scheme,
                    subtype, Terminal, to_dot, unfold, zielonka)
from horsmc import game
from horsmc.formats import print_annotated
from horsmc.oracles import run_search, solve_brute
from horsmc.typecheck import DDelta
from conftest import const_scheme, loop_apt, loop_scheme, order2_scheme, \
    order2_unary, random_game, random_game_few_dead_ends, solve_cached


class TestBuildGame:
    def test_assumption_free_rule(self):
        h, m = const_scheme()
        g = build_game(h, m)
        eve = EveNode("S", StateType("q"))
        assert g.initial == eve
        succs = g.successors(eve)
        assert len(succs) == 1
        adam = succs[0]
        assert isinstance(adam, AdamNode) and adam.assumption == ()
        assert g.successors(adam) == ()  # the refuter is stuck
        sol = zielonka(g)
        assert eve in sol.win_eve and adam in sol.win_eve

    def test_loop_game_priorities(self):
        h = loop_scheme()
        for color, cycle_priority in ((1, 3), (2, 4)):
            g = build_game(h, loop_apt(color))
            assert sorted(set(g.priority.values())) == [1, cycle_priority]
            color_nodes = [v for v in g.nodes if isinstance(v, ColorNode)]
            assert any(g.priority[v] == cycle_priority for v in color_nodes)

    def test_loop_game_verdict_matches_brute(self):
        h = loop_scheme()
        for color, eve_wins in ((1, False), (2, True)):
            g = build_game(h, loop_apt(color))
            sz, sb = zielonka(g), solve_brute(g)
            assert sz.win_eve == sb.win_eve
            start = EveNode("S", StateType("q"))
            assert (start in sz.win_eve) == eve_wins

    def test_example_start_is_won(self, ex1, ex1_apt):
        g = build_game(ex1, ex1_apt)
        sol = zielonka(g)
        assert EveNode("S", StateType("q0")) in sol.win_eve
        assert check_eve_strategy(g, sol)
        assert check_adam_strategy(g, sol)
        # finite-prefix oracle agrees at every depth (all colors even)
        for d in range(1, 9):
            assert run_search(ex1_apt, unfold(ex1, d), "q0")

    def test_deterministic_construction(self, ex1, ex1_apt):
        g1 = build_game(ex1, ex1_apt)
        g2 = build_game(ex1, ex1_apt)
        assert g1.nodes == g2.nodes
        assert g1.edges == g2.edges
        s1, s2 = zielonka(g1), zielonka(g2)
        assert s1.win_eve == s2.win_eve
        assert s1.strategy_eve == s2.strategy_eve

    def test_node_limit_guard(self, ex1, ex1_apt, monkeypatch):
        monkeypatch.setattr(game, "DEFAULT_NODE_LIMIT", 5)
        with pytest.raises(SizeGuardExceeded):
            build_game(ex1, ex1_apt)

    def test_order2_unary_game_is_pinned(self):
        # Golden game: a faster footprint search must build this very game.
        g, _ = solve_cached(*order2_unary(), "q")
        kinds = Counter(type(v).__name__ for v in g.nodes)
        assert kinds == {"EveNode": 261, "AdamNode": 10242, "ColorNode": 520}
        assert sum(len(ws) for ws in g.edges.values()) == 22026
        assert hashlib.sha256(to_dot(g).encode()).hexdigest() == (
            "d72673881232cbb3e1b4eca2b9e22818262eb86e6e112fa4898b348a9b6bba24")

    def test_select_output_is_pinned(self, ex1, ex1_apt):
        # Golden witnesses: the derivations behind Eve's strategy, however
        # they are built, must print these very schemes.
        for h, m, q, digest in select_pins(ex1, ex1_apt):
            _, sol = solve_cached(h, m, q)
            text = print_annotated(extract_scheme(h, m, sol, q))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, q

    def test_extraction_reads_the_game_alone(self, ex1, ex1_apt,
                                             monkeypatch):
        # Once the game is built, its Adam nodes carry every derivation
        # extraction needs: no footprint search runs again.
        pins = select_pins(ex1, ex1_apt)
        solved = [solve_cached(h, m, q) for h, m, q, _ in pins]

        def fail(*args, **kwargs):
            raise AssertionError("rule_typings called during extraction")

        monkeypatch.setattr("horsmc.typecheck.rule_typings", fail)
        monkeypatch.setattr("horsmc.game.rule_typings", fail)
        monkeypatch.setattr("horsmc.selection.rule_typings", fail,
                            raising=False)
        for (h, m, q, digest), (_, sol) in zip(pins, solved):
            text = print_annotated(extract_scheme(h, m, sol, q))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, q

    def test_derivation_is_invisible_to_equality(self):
        ty = StateType("q")
        bare = AdamNode("S", ty, ())
        carrying = AdamNode("S", ty, (), DDelta(Terminal("c"), ty))
        assert carrying.derivation is not None and bare.derivation is None
        assert bare == carrying
        assert hash(bare) == hash(carrying)
        assert repr(bare) == repr(carrying)

    def test_solutions_are_pinned(self):
        # Golden solutions: regions and both strategies, nodes written as
        # their index in `g.nodes`, so a faster solver must break every tie
        # as this one does, also in moves that extraction never reads.
        g, sol = solve_cached(*order2_unary(), "q")
        assert solution_digest([(g, sol)]) == (
            "b8b83d554f1e385fd2eaace1a56e13a73895f7d103467eb8cbde84d5cb41188d")
        rng = random.Random(2026)
        games = [random_game(rng, min_nodes=50, max_nodes=400, max_priority=3)
                 for _ in range(50)]
        assert solution_digest([(g, zielonka(g)) for g in games]) == (
            "3c2ac2a3dfb46cfbefc52b2b384654a95cef25daeb52af6f913b5bb5513fd347")


class TestNodes:
    def test_fields_cannot_be_assigned(self):
        ty = StateType("q")
        adam = AdamNode("S", ty, (), DDelta(Terminal("c"), ty))
        for v, name in [(EveNode("S", ty), "ty"), (adam, "assumption"),
                        (adam, "derivation"),
                        (ColorNode(0, "S", ty), "color")]:
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                v.extra = None
        assert adam.assumption == () and adam.derivation is not None

    def test_equal_only_to_a_node_of_its_class_with_equal_fields(self):
        ty = StateType("q")
        eve = EveNode("S", ty)
        assert eve == EveNode("S", ty) and hash(eve) == hash(EveNode("S", ty))
        assert eve != ("S", ty) and not eve == ("S", ty)
        assert eve != ColorNode(0, "S", ty) and eve != EveNode("T", ty)
        assert AdamNode("S", ty, ()) != EveNode("S", ty)
        assert len({eve, EveNode("S", ty), ColorNode(-1, "S", ty)}) == 2

    def test_reprs_are_pinned(self):
        ty = StateType("q")
        adam = AdamNode("S", ty, (("F", colored_set([(0, ty)])),),
                        DDelta(Terminal("c"), ty))
        assert repr(EveNode("S", ty)) == (
            "EveNode(nonterminal='S', ty=StateType('q'))")
        assert repr(adam) == (
            "AdamNode(nonterminal='S', ty=StateType('q'), assumption=(('F', "
            "ColoredSet(((0, StateType('q')),))),))")
        assert repr(ColorNode(-1, "S", ty)) == (
            "ColorNode(color=-1, nonterminal='S', ty=StateType('q'))")

    def test_pickling_keeps_the_fields_and_the_derivation(self):
        ty = StateType("q")
        for v in (EveNode("S", ty), ColorNode(0, "S", ty),
                  AdamNode("S", ty, (), DDelta(Terminal("c"), ty))):
            back = pickle.loads(pickle.dumps(v))
            assert type(back) is type(v) and back == v
            assert getattr(back, "derivation", None) == getattr(
                v, "derivation", None)


class TestNumbering:
    def test_build_game_numbers_as_the_mappings_do(self, fixture_games):
        for h, m, q in fixture_games:
            g, _ = solve_cached(h, m, q)
            plain = ParityGame(g.nodes, g.owner, g.priority, g.edges,
                               g.initial)
            assert plain.numbering is None and g.numbering is not None
            assert g.numbering == plain.numbered(), q

    def test_owner_and_priority_are_recorded_per_node(self, fixture_games):
        for h, m, q in fixture_games:
            g, _ = solve_cached(h, m, q)
            assert g.numbering.owner == [
                ADAM if isinstance(v, AdamNode) else EVE for v in g.nodes], q
            assert g.numbering.prio == list(map(game.node_priority,
                                                g.nodes)), q

    def test_mappings_are_derived_when_first_read(self, ex1, ex1_apt):
        g = build_game(ex1, ex1_apt)
        mappings = {"owner", "priority", "edges"}
        assert not mappings & vars(g).keys()
        assert g.successors(g.initial) and g.owner and g.priority
        assert mappings <= vars(g).keys()

    def test_repeated_successors_are_numbered_once(self):
        g = ParityGame(("a", "b"), {"a": EVE, "b": ADAM}, {"a": 1, "b": 2},
                       {"a": ("b", "a", "b"), "b": ("b",)})
        assert g.numbered().succ == [(1, 0), (1,)]

    def test_adam_nodes_of_one_map_share_their_moves(self, fixture_games):
        for h, m, q in fixture_games:
            g, _ = solve_cached(h, m, q)
            first: dict = {}
            for v, ws in zip(g.nodes, g.numbering.succ):
                if isinstance(v, AdamNode):
                    moves = first.setdefault(v.assumption, (g.edges[v], ws))
                    assert g.edges[v] is moves[0] and ws is moves[1], v

    def test_every_edge_leads_to_the_node_held_in_nodes(self, fixture_games):
        for h, m, q in fixture_games:
            g, _ = solve_cached(h, m, q)
            for v, ws in zip(g.nodes, g.numbering.succ):
                assert all(w is g.nodes[i]
                           for w, i in zip(g.edges[v], ws, strict=True)), v

    def test_order2_unary_moves_are_made_once_per_map(self):
        g, _ = solve_cached(*order2_unary(), "q")
        adam = [v for v in g.nodes if isinstance(v, AdamNode)]
        assert len(adam) == 10242
        assert len({id(g.edges[v]) for v in adam}) == 513


def won_lost_pairs(g, sol):
    """(v, w) for each Eve node v Eve wins and Eve node w she loses with
    the same nonterminal."""
    eve = [v for v in g.nodes if isinstance(v, EveNode)]
    lost = [w for w in eve if w not in sol.win_eve]
    return [(v, w) for v in eve if v in sol.win_eve
            for w in lost if v.nonterminal == w.nonterminal]


def test_eve_region_is_closed_downward_under_subtyping(fixture_games, ex1,
                                                       ex1_apt):
    # If Eve wins N : t and t' <= t, she wins N : t': no node she loses
    # lies below one she wins.
    checked = 0
    for h, m, q in fixture_games + [(ex1, ex1_apt, None)]:
        g, sol = solve_cached(h, m, q)
        pairs = won_lost_pairs(g, sol)
        assert not [(v, w) for v, w in pairs if subtype(w.ty, v.ty)], q
        checked += len(pairs)
    assert checked > 0


def test_eve_region_is_not_closed_upward_under_subtyping(ex1, ex1_apt):
    # The converse fails: on ex1, Eve loses some nodes above ones she wins.
    g, sol = solve_cached(ex1, ex1_apt, None)
    pairs = won_lost_pairs(g, sol)
    assert len([(v, w) for v, w in pairs if subtype(v.ty, w.ty)]) == 54


def select_pins(ex1, ex1_apt):
    """(scheme, automaton, state, sha256 of the `select` text)."""
    return [
        (ex1, ex1_apt, "q0", "a3ad78816cc3ba6ee66ff23911b93514"
                             "811976face9dc17780a53fdedf5f862d"),
        (ex1, ex1_apt, "q1", "de9376a20e66245c169d478e307c8ad5"
                             "1fc952472dccdfad2c33ef482da034e7"),
        (*order2_unary(), "q", "5b7c88c3f48ec57d4c6b894cbadf87aa"
                               "2c42207df16731cd182a67dd286e9497"),
    ]


def solution_digest(solved) -> str:
    digest = hashlib.sha256()
    for g, sol in solved:
        ix = {v: i for i, v in enumerate(g.nodes)}

        def moves(strategy):
            return sorted((ix[v], ix[w]) for v, w in strategy.items())

        digest.update((repr((sorted(map(ix.get, sol.win_eve)),
                             sorted(map(ix.get, sol.win_adam)),
                             moves(sol.strategy_eve),
                             moves(sol.strategy_adam))) + "\n").encode())
    return digest.hexdigest()


def ladder(n: int) -> ParityGame:
    """Shaped as the bench's `ladder(n)`: node i has priority i, a
    self-loop and an edge to i - 1, and belongs to the player priority i
    hurts."""
    nodes = tuple(range(n))
    return ParityGame(nodes, {i: EVE if i % 2 else ADAM for i in nodes},
                      {i: i for i in nodes},
                      {i: (i, i - 1) if i else (i,) for i in nodes}, n - 1)


class TestZielonka:
    def test_even_self_loop_eve_wins(self):
        g = ParityGame(("v",), {"v": EVE}, {"v": 2}, {"v": ("v",)})
        sol = zielonka(g)
        assert sol.win_eve == {"v"} and sol.strategy_eve["v"] == "v"

    def test_odd_self_loop_adam_wins(self):
        g = ParityGame(("v",), {"v": EVE}, {"v": 1}, {"v": ("v",)})
        assert zielonka(g).win_adam == {"v"}

    def test_dead_end_conventions(self):
        g = ParityGame(("e", "a"), {"e": EVE, "a": ADAM},
                       {"e": 2, "a": 2}, {"e": (), "a": ()})
        sol = zielonka(g)
        assert "e" in sol.win_adam and "a" in sol.win_eve

    def test_forced_escape(self):
        # Adam at "a" must move into Eve's even loop
        g = ParityGame(("a", "v"), {"a": ADAM, "v": EVE},
                       {"a": 1, "v": 2}, {"a": ("v",), "v": ("v",)})
        sol = zielonka(g)
        assert sol.win_eve == {"a", "v"}

    def test_random_cross_validation(self):
        rng = random.Random(99)
        for _ in range(100):
            g = random_game(rng)
            sz, sb = zielonka(g), solve_brute(g)
            assert sz.win_eve == sb.win_eve, g
            assert check_eve_strategy(g, sz), g
            assert check_adam_strategy(g, sz), g
            for v in sz.win_eve:
                if g.owner[v] == EVE and g.successors(v):
                    assert v in sz.strategy_eve

    def test_ladder_needs_no_recursion(self):
        # The recursive algorithm goes one level deeper per node.
        g = ladder(3000)
        sol = zielonka(g)
        assert sol.win_eve == set(g.nodes)
        assert check_eve_strategy(g, sol) and check_adam_strategy(g, sol)

    def test_ladders_are_pinned(self):
        # From four nodes up, most escapes in a ladder have more seeds
        # than the rest of their subgame has nodes, so these pin the
        # first round read from the smaller side.  The digest was computed
        # with the solver that always scanned the seeds' predecessors,
        # before that round was added.
        games = [ladder(n) for n in range(1, 65)]
        assert solution_digest([(g, zielonka(g)) for g in games]) == (
            "856deb9007d51364e510e7c776f4196012c41d708785e92e21de0edcaf917bfa")

    def test_first_round_joiners_enter_by_seed(self):
        # Adam attracts 4 to his top priority at 2 and 3 and loses the
        # five other nodes to Eve.  Read from {2, 3, 4}, 2 joins Eve's
        # escape at seed 1 and 3 at seed 0, so 3 joins first, and 4,
        # which reaches both, moves to 3.
        g = ParityGame(tuple(range(8)), {v: EVE for v in range(8)},
                       {0: 2, 1: 2, 2: 3, 3: 3, 4: 1, 5: 2, 6: 2, 7: 2},
                       {0: (0,), 1: (1,), 2: (1,), 3: (0,), 4: (2, 3),
                        5: (5,), 6: (6,), 7: (7,)})
        sol = zielonka(g)
        assert sol.win_eve == set(range(8)) and not sol.win_adam
        assert sol.strategy_eve == {0: 0, 1: 1, 2: 1, 3: 0, 4: 3, 5: 5,
                                    6: 6, 7: 7}

    def test_escape_seeds_are_scanned_in_node_order(self):
        # Adam's top priority 5 at 1 and 2 attracts nothing; Eve wins the
        # rest, listed as 3 then 0, and escapes to it from 1, whose
        # successors 0 and 3 are both seeds.  Scanned in node order, the
        # seeds give 1 the move to 0.
        g = ParityGame(tuple(range(4)), {0: EVE, 1: EVE, 2: EVE, 3: ADAM},
                       {0: 2, 1: 5, 2: 5, 3: 4},
                       {0: (0, 1, 2), 1: (0, 1, 3), 2: (2,), 3: (0,)})
        sol = zielonka(g)
        assert sol.win_eve == {0, 1, 3} and sol.win_adam == {2}
        assert sol.strategy_eve == {0: 0, 1: 0} and sol.strategy_adam == {}

    def test_opponent_joins_at_its_greatest_seed(self):
        # Adam attracts 6 to his top priority at 4 and 5 and loses the
        # six other nodes to Eve.  Read from {4, 5, 6}, his 4 joins Eve's
        # escape at seed 2, its greatest, and 5 at seed 3, so 4 joins
        # first, and Eve's 6 moves to it.
        owner = {v: EVE for v in range(9)}
        owner[4] = owner[5] = ADAM
        g = ParityGame(tuple(range(9)), owner,
                       {0: 2, 1: 2, 2: 2, 3: 2, 4: 3, 5: 3, 6: 1, 7: 2, 8: 2},
                       {0: (0,), 1: (1,), 2: (2,), 3: (3,), 4: (1, 2),
                        5: (0, 3), 6: (4, 5), 7: (7,), 8: (8,)})
        sol = zielonka(g)
        assert sol.win_eve == set(range(9)) and not sol.win_adam
        assert sol.strategy_eve == {0: 0, 1: 1, 2: 2, 3: 3, 6: 4, 7: 7,
                                    8: 8}

    def test_larger_games_with_many_priorities(self):
        # Checked without the solver's help: both strategies win their
        # regions, and the regions split the nodes.
        rng = random.Random(2601)
        for _ in range(200):
            g = random_game_few_dead_ends(rng, 20, 300, 11)
            sol = zielonka(g)
            assert not sol.win_eve & sol.win_adam
            assert sol.win_eve | sol.win_adam == set(g.nodes)
            assert check_eve_strategy(g, sol) and check_adam_strategy(g, sol)


def check_claim(player, edges, good, region, moves, theirs=()) -> bool:
    """Check `player`'s claim to win `region` with `moves` in a game of the
    player's nodes and the opponent's nodes `theirs`, where priorities
    favour the player at `good` nodes."""
    nodes = tuple(edges)
    even = 2 if player == EVE else 1
    g = ParityGame(nodes, {v: 1 - player if v in theirs else player
                           for v in nodes},
                   {v: even if v in good else even + 1 for v in nodes}, edges)
    region = frozenset(region)
    rest = frozenset(nodes) - region
    if player == EVE:
        return check_eve_strategy(g, Solution(region, rest, moves, {}))
    return check_adam_strategy(g, Solution(rest, region, {}, moves))


class TestStrategyChecks:
    @pytest.mark.parametrize("player", [EVE, ADAM], ids=["eve", "adam"])
    @pytest.mark.parametrize("edges, good, region, moves, valid", [
        # the move is no edge and leaves the region
        ({"v": ("v",), "w": ("w",)}, (), {"v"}, {"v": "w"}, False),
        # the move is an edge and leaves the region
        ({"v": ("v", "w"), "w": ("w",)}, (), {"v"}, {"v": "w"}, False),
        # the move stays in the region but is no edge
        ({"v": ("v",), "w": ("w",)}, {"w"}, {"v", "w"},
         {"v": "w", "w": "w"}, False),
        # a node of the region has no move
        ({"v": ("v",)}, {"v"}, {"v"}, {}, False),
        ({"v": ("v",)}, {"v"}, {"v"}, {"v": "v"}, True),
    ])
    def test_claims_are_checked(self, player, edges, good, region, moves,
                                valid):
        assert check_claim(player, edges, good, region, moves) == valid

    @pytest.mark.parametrize("player", [EVE, ADAM], ids=["eve", "adam"])
    @pytest.mark.parametrize("region, moves, valid", [
        # the opponent's u has an edge out of the region, to w
        ({"v", "u"}, {"v": "u"}, False),
        ({"v", "u", "w"}, {"v": "u", "w": "w"}, True),
    ], ids=["opponent-escapes", "opponent-stays"])
    def test_the_opponent_cannot_leave(self, player, region, moves, valid):
        edges = {"v": ("u",), "u": ("v", "w"), "w": ("w",)}
        assert check_claim(player, edges, "vuw", region, moves,
                           theirs={"u"}) == valid

    def test_losing_cycle_inside_a_winning_component(self):
        # Adam's u (4) -> v (3) -> w (2) -> u or v: the component's top
        # priority is even, but Adam can keep to the odd cycle v w
        g = ParityGame(("u", "v", "w"), {v: ADAM for v in "uvw"},
                       {"u": 4, "v": 3, "w": 2},
                       {"u": ("v",), "v": ("w",), "w": ("u", "v")})
        nodes = frozenset(g.nodes)
        assert not check_eve_strategy(g, Solution(nodes, frozenset(), {}, {}))
        sol = zielonka(g)
        assert sol.win_adam == nodes and check_adam_strategy(g, sol)


class TestSolveBrute:
    def test_guard(self):
        nodes = tuple(range(13))
        g = ParityGame(nodes, {v: EVE for v in nodes},
                       {v: 0 for v in nodes}, {v: () for v in nodes})
        with pytest.raises(SizeGuardExceeded):
            solve_brute(g)

    def test_strategies_are_uniform_witnesses(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_game(rng, max_nodes=6)
            sol = solve_brute(g)
            assert check_eve_strategy(g, sol)
            assert check_adam_strategy(g, sol)


class TestAcceptedStates:
    def test_example_fixture(self, ex1, ex1_apt):
        assert "q0" in accepted_states(ex1, ex1_apt)

    def test_parity_sensitivity(self):
        h = loop_scheme()
        assert accepted_states(h, loop_apt(1)) == set()
        assert accepted_states(h, loop_apt(2)) == {"q"}

    def test_false_root_transition_excludes_state(self):
        h, m = const_scheme()
        m_false = Apt(states=("q",), terminals={"c": 0}, delta={},
                      omega={"q": 0}, initial="q")
        assert accepted_states(h, m_false) == set()

    def test_order2_scheme_single_state(self):
        h, m = order2_unary()
        assert accepted_states(h, m) == {"q"}
        for d in range(1, 7):
            assert run_search(m, unfold(h, d), "q")

    def test_order2_instantiation_hits_the_guard(self, ex1_apt):
        # a two-state automaton makes the assumption-type space for a bare
        # nonterminal argument too wide; the guard reports instead of hanging
        h = order2_scheme()
        with pytest.raises(SizeGuardExceeded):
            accepted_states(h, ex1_apt)


class TestPriorityEncoding:
    def test_shift_preserves_parity_and_order(self):
        from horsmc.game import node_priority
        from horsmc import EPSILON
        cols = [EPSILON, 0, 1, 2, 3]
        pris = [node_priority(ColorNode(c, "F", StateType("q")))
                for c in cols]
        assert pris == [1, 2, 3, 4, 5]
        for c, p in zip(cols[1:], pris[1:]):
            assert p % 2 == c % 2

    def test_constant_branch_color_maps_to_cycle_parity(self):
        # the unique branch a^w has constant color; its acceptance flips
        # exactly with the parity of the encoded cycle priority
        h = loop_scheme()
        for color in (1, 2, 3, 4):
            g = build_game(h, loop_apt(color))
            cycle_max = max(g.priority.values())
            accepted = EveNode("S", StateType("q")) in zielonka(g).win_eve
            assert accepted == (cycle_max % 2 == 0)
            assert accepted == (color % 2 == 0)


def test_dot_output_is_stable(ex1, ex1_apt):
    g = build_game(ex1, ex1_apt, states=["q0"])
    d1, d2 = to_dot(g), to_dot(g)
    assert d1 == d2
    assert d1.startswith("digraph game {")
    assert "shape=box" in d1 and "shape=ellipse" in d1
    assert "p=1" in d1
