"""LP kernel: exact simplex plus the four game programs."""

from __future__ import annotations

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nashcycles.lp as lp_module
from nashcycles.domgraph import compute_domain, compute_domain_table, compute_relevancy
from nashcycles.equilibria import _Publisher
from nashcycles.games import (
    Game,
    MixedStrategy,
    ReducedGame,
    expected_payoffs,
    generate_random_game,
    is_best_response,
    pure_payoff_against,
)
from nashcycles.lp import (
    RELATIONS,
    Constraint,
    InfeasibleSides,
    LinearProgram,
    LpStatus,
    _best_response_region,
    _mask,
    _tie_ray,
    _two_column_side,
    _uniform_side,
    fp1_check,
    lp1_dominance,
    lp2_domain_check,
    lp2_joint_domain_check,
    lp3_relevancy,
    mod_lp1_relevancy,
    solve_lp,
)

from conftest import (
    degenerate_game,
    duplicated_game,
    rational_rank,
    scaled_games,
    side_lps,
    tied_games,
)

F = Fraction


def _feasible(lp: LinearProgram, x) -> bool:
    for con in lp.constraints:
        lhs = sum((c * v for c, v in zip(con.coeffs, x)), F(0))
        if not {"<=": lhs <= con.rhs, "=": lhs == con.rhs, ">=": lhs >= con.rhs}[con.relation]:
            return False
    return all(
        (lo is None or v >= lo) and (hi is None or v <= hi)
        for v, (lo, hi) in zip(x, lp.effective_bounds())
    )


def _lifted(game: Game, rows: int, cols: int, witness):
    """`fp1_check`'s integer witness for (rows, cols) made into an
    `Equilibrium` as the pipelines make it, over the identity reduction."""
    identity = ReducedGame(game, tuple(range(game.m)), tuple(range(game.n)))
    entries = []
    _Publisher(identity, game).publish(entries, rows, cols, witness)
    (entry,) = entries
    return entry


def _check_assignment(lp: LinearProgram, outcome):
    assert outcome.status is LpStatus.OPTIMAL
    x = outcome.assignment
    value = sum((c * v for c, v in zip(lp.objective, x)), F(0))
    assert value == outcome.objective_value
    assert _feasible(lp, x), x


class TestSolveLp:
    def test_single_upper_bound(self):
        lp = LinearProgram(1, (F(1),), (Constraint((F(1),), "<=", F(5)),))
        out = solve_lp(lp)
        _check_assignment(lp, out)
        assert out.objective_value == 5
        # The same program, malformed.
        with pytest.raises(ValueError, match="^relation must be one of"):
            Constraint((F(1),), "<", F(5))
        with pytest.raises(ValueError, match="^objective length must equal num_vars$"):
            LinearProgram(2, (F(1),), lp.constraints)
        with pytest.raises(ValueError, match="^constraint coefficient length must equal num_vars$"):
            LinearProgram(1, (F(1),), (Constraint((F(1), F(0)), "<=", F(5)),))
        with pytest.raises(ValueError, match="^bounds length must equal num_vars$"):
            LinearProgram(1, (F(1),), lp.constraints, ((F(0), None), (F(0), None)))
        with pytest.raises(ValueError, match=r"^inconsistent bounds \(1, 0\)$"):
            LinearProgram(1, (F(1),), lp.constraints, ((F(1), F(0)),))

    def test_infeasible(self):
        lp = LinearProgram(1, (F(1),), (Constraint((F(1),), "<=", F(-1)),))
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(1, (F(1),), ())
        assert solve_lp(lp).status is LpStatus.UNBOUNDED

    def test_equality_and_free_variable(self):
        # maximize eps subject to eps + q = 1, q >= 0; eps free -> optimum 1.
        lp = LinearProgram(
            2,
            (F(0), F(1)),
            (Constraint((F(1), F(1)), "=", F(1)),),
            ((F(0), None), (None, None)),
        )
        out = solve_lp(lp)
        _check_assignment(lp, out)
        assert out.objective_value == 1

    def test_variable_bounds(self):
        lp = LinearProgram(
            2,
            (F(1), F(-1)),
            (Constraint((F(1), F(1)), "<=", F(10)),),
            ((F(0), F(3)), (F(1), None)),
        )
        out = solve_lp(lp)
        _check_assignment(lp, out)
        assert out.objective_value == 2  # x=3, y=1

    def test_ge_constraints(self):
        lp = LinearProgram(
            2,
            (F(-1), F(-2)),
            (
                Constraint((F(1), F(1)), ">=", F(4)),
                Constraint((F(1), F(0)), "<=", F(3)),
            ),
        )
        out = solve_lp(lp)
        _check_assignment(lp, out)
        assert out.objective_value == -5  # x=3, y=1 minimizes x + 2y

    def test_beale_degenerate_terminates(self):
        # Classic cycling example for naive pivoting; Bland's rule terminates.
        lp = LinearProgram(
            4,
            (F(3, 4), F(-150), F(1, 50), F(-6)),
            (
                Constraint((F(1, 4), F(-60), F(-1, 25), F(9)), "<=", F(0)),
                Constraint((F(1, 2), F(-90), F(-1, 50), F(3)), "<=", F(0)),
                Constraint((F(0), F(0), F(1), F(0)), "<=", F(1)),
            ),
        )
        out = solve_lp(lp)
        _check_assignment(lp, out)
        assert out.objective_value == F(1, 20)

    def test_duality_perturbation_infeasible(self):
        # Pushing the objective above its optimum must make the system infeasible.
        instances = [
            LinearProgram(1, (F(1),), (Constraint((F(1),), "<=", F(5)),)),
            LinearProgram(
                2,
                (F(1), F(1)),
                (
                    Constraint((F(2), F(1)), "<=", F(4)),
                    Constraint((F(1), F(3)), "<=", F(6)),
                ),
            ),
        ]
        for lp in instances:
            out = solve_lp(lp)
            assert out.status is LpStatus.OPTIMAL
            bumped = LinearProgram(
                lp.num_vars,
                tuple(F(0) for _ in range(lp.num_vars)),
                lp.constraints
                + (Constraint(lp.objective, ">=", out.objective_value + F(1, 7)),),
                lp.bounds,
            )
            assert solve_lp(bumped).status is LpStatus.INFEASIBLE

    def test_random_instances_exact(self):
        rng = random.Random(11)
        for _ in range(25):
            nvars = rng.randint(1, 4)
            ncons = rng.randint(1, 4)
            x0 = [F(rng.randint(0, 5)) for _ in range(nvars)]
            constraints = []
            for _ in range(ncons):
                coeffs = tuple(F(rng.randint(-4, 4)) for _ in range(nvars))
                slackness = F(rng.randint(0, 3))
                rhs = sum((c * v for c, v in zip(coeffs, x0)), F(0)) + slackness
                constraints.append(Constraint(coeffs, "<=", rhs))
            lp = LinearProgram(
                nvars,
                tuple(F(rng.randint(-3, 3)) for _ in range(nvars)),
                tuple(constraints),
                tuple((F(0), F(6)) for _ in range(nvars)),
            )
            out = solve_lp(lp)
            _check_assignment(lp, out)


class TestSignSensitivePaths:
    """The pivots whose sign handling matters, reached directly."""

    def test_duplicated_equality_row_deleted_after_phase_one(self):
        # Both copies of x/2 + y = 2 get an artificial; after phase 1 the
        # second one sits on an all-zero row and is deleted.
        row = Constraint((F(1, 2), F(1)), "=", F(2))
        lp = LinearProgram(2, (F(1), F(-1)), (row, row), ((F(0), None), (F(1), None)))
        out = solve_lp(lp)
        _check_assignment(lp, out)
        assert out.assignment == (F(2), F(1))
        assert out.objective_value == 1

    def test_negative_rhs_flips_both_relations(self):
        # -x - y >= -5/2 becomes x + y <= 5/2; -x <= -1 becomes x >= 1.
        lp = LinearProgram(
            2,
            (F(-1), F(1)),
            (
                Constraint((F(-1), F(-1)), ">=", F(-5, 2)),
                Constraint((F(-1), F(0)), "<=", F(-1)),
            ),
        )
        out = solve_lp(lp)
        _check_assignment(lp, out)
        assert out.assignment == (F(1), F(3, 2))
        assert out.objective_value == F(1, 2)

    def test_artificial_pivoted_out_on_negative_entry(self):
        # The implied row x + y >= 1/2 keeps its artificial at level zero
        # after phase 1; the only nonzero entry left to pivot it out on is
        # its surplus column, which is negative.  Phase 2 then moves on.
        lp = LinearProgram(
            2,
            (F(-1), F(1)),
            (
                Constraint((F(2), F(2)), "=", F(1)),
                Constraint((F(1), F(1)), ">=", F(1, 2)),
            ),
        )
        out = solve_lp(lp)
        _check_assignment(lp, out)
        assert out.assignment == (F(0), F(1, 2))
        assert out.objective_value == F(1, 2)


_BOX = 4
_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _boxed_lps(draw) -> LinearProgram:
    """1-3 variables, 1-4 constraints with every relation, mixed-sign
    rational data, and every kind of bound.  A variable that its bounds do
    not box is boxed by extra (integer) constraints, so the LP is bounded."""
    nvars = draw(st.integers(1, 3))
    row = st.tuples(*[_fractions] * nvars)
    constraints = [
        Constraint(draw(row), draw(st.sampled_from(RELATIONS)), draw(_fractions))
        for _ in range(draw(st.integers(1, 4)))
    ]
    bounds = []
    for j in range(nvars):
        unit = tuple(int(k == j) for k in range(nvars))
        minus = tuple(-v for v in unit)
        kind = draw(st.sampled_from(("lower", "box", "upper", "free")))
        edge = draw(_fractions.filter(bool))
        if kind == "lower":
            bounds.append((edge, None))
            constraints.append(Constraint(unit, "<=", edge + _BOX))
        elif kind == "box":
            bounds.append((edge, edge + draw(st.integers(0, _BOX))))
        elif kind == "upper":
            bounds.append((None, edge))
            constraints.append(Constraint(unit, ">=", edge - _BOX))
        else:
            bounds.append((None, None))
            constraints.append(Constraint(unit, "<=", _BOX))
            constraints.append(Constraint(minus, "<=", _BOX))
    return LinearProgram(nvars, draw(row), tuple(constraints), tuple(bounds))


def _solve_square(rows, rhs):
    """The unique solution of a square system, or None when it is singular."""
    n = len(rows)
    m = [list(map(F, r)) + [F(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def _best_vertex_value(lp: LinearProgram):
    """Brute force: the best objective over every feasible vertex, i.e. every
    feasible point where some num_vars constraints or bounds are tight and
    independent; None when there is no feasible vertex."""
    planes = [(con.coeffs, con.rhs) for con in lp.constraints]
    for j, (lo, hi) in enumerate(lp.effective_bounds()):
        unit = tuple(int(k == j) for k in range(lp.num_vars))
        planes += [(unit, edge) for edge in (lo, hi) if edge is not None]
    best = None
    for tight in itertools.combinations(planes, lp.num_vars):
        x = _solve_square([c for c, _ in tight], [b for _, b in tight])
        if x is None or not _feasible(lp, x):
            continue
        value = sum((c * v for c, v in zip(lp.objective, x)), F(0))
        best = value if best is None else max(best, value)
    return best


# From the 4x4 grid game with seed 4403: when the tableau stored a column
# per artificial, this LP's third pivot put an artificial back into the
# basis (column 4).  It is infeasible; there is no vertex.
_ARTIFICIAL_REENTRY = LinearProgram(
    4,
    (F(0),) * 4,
    (
        Constraint((F(746), F(-505), F(-370), F(-107)), "=", F(236)),
        Constraint((F(808), F(-617), F(-297), F(311)), "=", F(-205)),
        Constraint((F(185), F(119), F(142), F(-511)), "=", F(65)),
    ),
)


class TestSolveLpAgainstVertices:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_boxed_lps())
    @example(_ARTIFICIAL_REENTRY)
    def test_matches_vertex_enumeration(self, lp):
        best = _best_vertex_value(lp)
        out = solve_lp(lp)
        if best is None:
            assert out.status is LpStatus.INFEASIBLE
        else:
            _check_assignment(lp, out)
            assert out.objective_value == best


class TestTableauShape:
    """A tableau row is the columns, one cell per slack and the rhs: an
    artificial is a basis label with no column of its own."""

    def test_row_width_is_columns_slacks_and_rhs(self):
        widths, pivots = [], [0, 0, 0]
        pivot = lp_module._pivot

        def recording_pivot(rows, row0, basis, det, r, c):
            widths.append({len(row) for row in rows})
            return pivot(rows, row0, basis, det, r, c)

        games = [generate_random_game(4, 3, 8100 + k) for k in range(3)]
        games.append(degenerate_game(4, 4, 8200))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp_module, "_pivot", recording_pivot)
            for game in games:
                for player in (1, 2):
                    own, opp = game.strategy_count(player), game.strategy_count(3 - player)
                    for x in range(own):
                        programs = (
                            # No floor: a column per opponent strategy, a slack
                            # per rival and one for the sum(q) >= 1 row.
                            (lambda: lp1_dominance(game, player, x), opp + own),
                            # One strategy zeroed: a column fewer, no sum row.
                            (lambda: lp2_domain_check(game, player, x, (0,), (opp - 1,)), opp - 1 + own - 1),
                            # Columns t and s, a slack per rival and per t <= 1 row.
                            (lambda: lp3_relevancy(game, player, x), 2 * opp + own - 1 + opp),
                        )
                        for kind, (call, width) in enumerate(programs):
                            widths.clear()
                            call()
                            assert all(seen == {width + 1} for seen in widths)
                            pivots[kind] += len(widths)
        assert all(pivots)


# Each public function that takes a player, asked of a 2 x 3 game with the
# player's own strategy 0 and, where one is needed, an opponent strategy
# that fits player 2, as which an unchecked player was read.
_PLAYER_TAKERS = {
    "lp1_dominance": lambda g, player: lp1_dominance(g, player, 0),
    "mod_lp1_relevancy": lambda g, player: mod_lp1_relevancy(g, player, 0, 0),
    "lp2_domain_check": lambda g, player: lp2_domain_check(g, player, 0, (0,), ()),
    "lp2_joint_domain_check": lambda g, player: lp2_joint_domain_check(g, player, (0,), (0,), ()),
    "lp3_relevancy": lambda g, player: lp3_relevancy(g, player, 0),
    "compute_relevancy": lambda g, player: compute_relevancy(g, player, 0),
    "compute_domain": lambda g, player: compute_domain(g, player, 0, 1),
    "compute_domain_table": lambda g, player: compute_domain_table(g, player, 1),
    "pure_payoff_against": lambda g, player: pure_payoff_against(g, player, 0, MixedStrategy(1, (1, 0))),
    "is_best_response": lambda g, player: is_best_response(g, player, 0, MixedStrategy(1, (1, 0))),
    "check_side": lambda g, player: InfeasibleSides(g).check_side(player, 1, 1),
}


@pytest.mark.parametrize("player", [0, -1, 3])
@pytest.mark.parametrize("name", list(_PLAYER_TAKERS))
def test_a_player_other_than_1_or_2_is_refused(name, player):
    g = Game.from_rows([[1, 0, 2], [0, 1, 0]], [[0, 2, 1], [1, 0, 0]])
    with pytest.raises(ValueError, match="player must be 1 or 2"):
        _PLAYER_TAKERS[name](g, player)


class TestLp1Dominance:
    def test_pd_cooperate_dominated_with_eps_minus_one(self, pd):
        dominated, witness = lp1_dominance(pd, 1, 0)
        assert dominated and witness is None
        # The max-gap program by hand: cooperate's worst payoff gap,
        # maximized over the simplex, is -1.
        lp = LinearProgram(
            3,
            (F(0), F(0), F(1)),
            (
                Constraint((F(2), F(1), F(1)), "<=", F(0)),
                Constraint((F(1), F(1), F(0)), "=", F(1)),
            ),
            ((F(0), None), (F(0), None), (None, None)),
        )
        assert solve_lp(lp).objective_value == -1

    def test_mp_not_dominated_with_witness(self, mp):
        dominated, witness = lp1_dominance(mp, 1, 0)
        assert not dominated
        assert is_best_response(mp, 1, 0, witness)

    def test_single_strategy_convention(self):
        g = Game.from_rows([[1, 2, 3]], [[0, 0, 0]])
        dominated, witness = lp1_dominance(g, 1, 0)
        assert not dominated
        assert witness is not None and len(witness.probs) == 3

    def test_player_two_side(self, pd):
        dominated, _ = lp1_dominance(pd, 2, 0)
        assert dominated  # cooperate column dominated under B

    def test_dominated_only_by_mixture(self):
        # Row 3 beats neither pure row but loses to the half-half mixture.
        g = Game.from_rows(
            [[4, 0], [0, 4], [1, 1]],
            [[0, 0], [0, 0], [0, 0]],
        )
        dominated, _ = lp1_dominance(g, 1, 2)
        assert dominated
        assert not lp1_dominance(g, 1, 0)[0]
        assert not lp1_dominance(g, 1, 1)[0]

    def test_dominated_gap_positive_at_every_simplex_vertex(self):
        # A dominated strategy loses to some rival against each pure column.
        games = [Game.from_rows([[3, 0], [5, 1]], [[3, 5], [0, 1]])]
        games += [generate_random_game(4, 4, 7700 + k) for k in range(4)]
        for g in games:
            for x in range(g.m):
                if not lp1_dominance(g, 1, x)[0]:
                    continue
                for y in range(g.n):
                    gap = max(g.a[other][y] - g.a[x][y] for other in range(g.m))
                    assert gap > 0


def _never_best_response(game: Game, player: int, x: int, keep) -> bool:
    """The max-gap program, independent of the library's programs: maximize
    the worst payoff gap eps of `x` over every rival strategy, across the
    opponent mixed strategies supported inside `keep` (variables: q over
    `keep`, then eps, free).  `x` is a best response to none of them when
    the optimum is negative, or when `keep` is empty and the program is
    INFEASIBLE.  With no rival strategy eps is UNBOUNDED and `x` is always
    a best response."""

    def pay(own: int, opp: int):
        return game.a[own][opp] if player == 1 else game.b[opp][own]

    nq = len(keep)
    rows = [
        Constraint(tuple(pay(other, y) - pay(x, y) for y in keep) + (F(1),), "<=", F(0))
        for other in range(game.strategy_count(player))
        if other != x
    ]
    rows.append(Constraint((F(1),) * nq + (F(0),), "=", F(1)))
    bounds = ((F(0), None),) * nq + ((None, None),)
    outcome = solve_lp(LinearProgram(nq + 1, (F(0),) * nq + (F(1),), tuple(rows), bounds))
    if outcome.status is LpStatus.INFEASIBLE:
        return True
    return outcome.status is LpStatus.OPTIMAL and outcome.objective_value < 0


@st.composite
def _thin_games(draw) -> Game:
    """1xn and mx1 games with payoffs in {0, 1, 2}: one player has a lone
    strategy, the other one to five."""
    k = draw(st.integers(1, 5))
    m, n = draw(st.sampled_from(((1, k), (k, 1))))
    rows = st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=m, max_size=m)
    return Game.from_rows(draw(rows), draw(rows))


class TestAgainstMaxGap:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.one_of(tied_games(), _thin_games()))
    def test_dominance_and_certificate_match(self, game):
        for player in (1, 2):
            opp_count = game.strategy_count(2 if player == 1 else 1)
            for x in range(game.strategy_count(player)):
                dominated, witness = lp1_dominance(game, player, x)
                assert dominated == _never_best_response(game, player, x, range(opp_count))
                if dominated:
                    assert witness is None
                else:
                    assert is_best_response(game, player, x, witness)
                for y in range(opp_count):
                    keep = [c for c in range(opp_count) if c != y]
                    assert mod_lp1_relevancy(game, player, x, y) == _never_best_response(
                        game, player, x, keep
                    )


def _reference_region(game: Game, player: int, responders, s1, s0):
    """The best-response-region program as a `Fraction` `LinearProgram`
    (variables: q over the opponent strategies outside s0, with the bound
    q >= 1 on s1), the form the library solved before it built its rows
    from `Game.int_payoffs`.  Returns the kept strategies and the program."""

    def pay(own: int, opp: int):
        return game.a[own][opp] if player == 1 else game.b[opp][own]

    keep = [y for y in range(game.strategy_count(2 if player == 1 else 1)) if y not in s0]
    base = responders[0]
    rows = [
        Constraint(
            tuple(pay(other, y) - pay(base, y) for y in keep),
            "=" if other in responders else "<=",
            F(0),
        )
        for other in range(game.strategy_count(player))
        if other != base
    ]
    if not s1:
        rows.append(Constraint((F(1),) * len(keep), ">=", F(1)))
    bounds = tuple((F(1) if y in s1 else F(0), None) for y in keep)
    return keep, LinearProgram(len(keep), (F(0),) * len(keep), tuple(rows), bounds)


def _reference_lp3(game: Game, player: int, x: int) -> LinearProgram:
    """The max-support program as a `Fraction` `LinearProgram`: q = t + s
    with 0 <= t <= 1 and s >= 0, maximizing the sum of t."""
    n = game.strategy_count(2 if player == 1 else 1)
    own = game.a[x] if player == 1 else tuple(row[x] for row in game.b)
    rows = []
    for other in range(game.strategy_count(player)):
        if other != x:
            rival = game.a[other] if player == 1 else tuple(row[other] for row in game.b)
            rows.append(Constraint(tuple(r - v for r, v in zip(rival, own)) * 2, "<=", F(0)))
    bounds = ((F(0), F(1)),) * n + ((F(0), None),) * n
    return LinearProgram(2 * n, (F(1),) * n + (F(0),) * n, tuple(rows), bounds)


class TestAgainstFractionPrograms:
    """The programs built from the integer view against the same programs
    built as `Fraction` `LinearProgram`s and run through public `solve_lp`:
    the same status, the same witness and the same pivots, on games whose
    two payoff matrices have different scales."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(scaled_games(), st.data())
    def test_same_status_witness_and_pivots(self, game, data):
        pivots, solves = [], []
        pivot, solve_rows = lp_module._pivot, lp_module._solve_rows

        def recording_pivot(rows, row0, basis, det, r, c):
            pivots.append((r, c, basis[r]))
            return pivot(rows, row0, basis, det, r, c)

        def counting_solve(*args):
            solves.append(None)
            return solve_rows(*args)

        def run(call):
            pivots.clear()
            solves.clear()
            return call(), list(pivots), len(solves)

        def reference(player, responders, s1, s0):
            keep, program = _reference_region(game, player, responders, s1, s0)
            outcome, trace, _ = run(lambda: solve_lp(program))
            if outcome.status is not LpStatus.OPTIMAL:
                return None, trace
            total = sum(outcome.assignment)
            padded = [F(0)] * game.strategy_count(2 if player == 1 else 1)
            for y, v in zip(keep, outcome.assignment):
                padded[y] = v / total
            return tuple(padded), trace

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp_module, "_pivot", recording_pivot)
            patch.setattr(lp_module, "_solve_rows", counting_solve)
            for player in (1, 2):
                own, opp = game.strategy_count(player), game.strategy_count(2 if player == 1 else 1)
                for x in range(own):
                    (dominated, witness), trace, _ = run(lambda: lp1_dominance(game, player, x))
                    assert (None if dominated else witness.probs, trace) == reference(
                        player, (x,), (), ()
                    )
                    witness, trace, _ = run(lambda: lp3_relevancy(game, player, x))
                    outcome, ref_trace, _ = run(lambda: solve_lp(_reference_lp3(game, player, x)))
                    assert trace == ref_trace
                    if outcome.objective_value == 0:
                        assert witness is None
                    else:
                        t, s = outcome.assignment[:opp], outcome.assignment[opp:]
                        q = [a + b for a, b in zip(t, s)]
                        assert witness.probs == tuple(v / sum(q) for v in q)

                def subset(pool, least):
                    drawn = st.lists(st.sampled_from(pool), min_size=least, unique=True)
                    return tuple(sorted(data.draw(drawn))) if pool else ()

                # Several responders where the player has them; s1 and s0 non-empty.
                responders = subset(range(own), min(2, own))
                s1 = subset(range(opp), 1)
                rest = [y for y in range(opp) if y not in s1]
                s0 = subset(rest, 1)
                (member, witness), trace, _ = run(
                    lambda: lp2_joint_domain_check(game, player, responders, s1, s0)
                )
                expected = reference(player, responders, s1, s0)
                assert (witness.probs if member else None, trace) == expected

                weights, trace, solved = run(
                    lambda: InfeasibleSides(game).check_side(player, _mask(responders), _mask(s1))
                )
                if weights is not None:
                    weights = MixedStrategy.from_weights(2 if player == 1 else 1, weights).probs
                expected, ref_trace = reference(player, responders, s1, tuple(rest))
                assert weights == expected
                if solved:
                    assert trace == ref_trace
                else:
                    # Rejected by pure dominance, a single column that holds
                    # with the reference's witness (asserted above), or two
                    # or more columns a closed form answers with that witness:
                    # an interval, a tie ray or the uniform mixture.
                    vectors = game.int_payoffs[player - 1][1]
                    sides = (vectors, _mask(responders), _mask(s1), opp)
                    closed = (
                        (len(s1) == 2 and _two_column_side(*sides) != ())
                        or (len(responders) >= len(s1) >= 3 and _tie_ray(*sides) != ())
                        or _uniform_side(*sides) != ()
                    )
                    assert expected is None or len(s1) == 1 or closed

                # The common payoffs are read off the witnesses at each matrix's scale.
                pair = tuple(map(_mask, (responders, s1) if player == 1 else (s1, responders)))
                ok, witness = fp1_check(game, *pair)
                if ok:
                    eq = _lifted(game, *pair, witness)
                    p, q, u1, u2 = eq.p, eq.q, eq.u1, eq.u2
                    assert (u1, u2) == expected_payoffs(game, p, q)


class TestModLp1:
    def test_mp_examples(self, mp):
        assert mod_lp1_relevancy(mp, 1, 0, 0) is True
        assert mod_lp1_relevancy(mp, 1, 0, 1) is False

    def test_bos_example(self, bos):
        assert mod_lp1_relevancy(bos, 1, 0, 0) is True

    def test_single_opponent_strategy(self):
        g = Game.from_rows([[1], [0]], [[0], [0]])
        assert mod_lp1_relevancy(g, 1, 0, 0) is True

    @pytest.mark.parametrize("x", [-1, 5])
    def test_out_of_range_strategy(self, pd, x):
        with pytest.raises(ValueError, match=f"^strategy index {x} out of range"):
            mod_lp1_relevancy(pd, 1, x, 0)

    def test_out_of_range_opponent_strategy(self, pd):
        with pytest.raises(ValueError, match="opponent strategy index 2 out of range"):
            mod_lp1_relevancy(pd, 1, 0, 2)


class TestLp3:
    def test_mixture_dominated_row_has_no_witness(self):
        g = Game.from_rows(
            [[4, 0], [0, 4], [1, 1]],
            [[0, 0], [0, 0], [0, 0]],
        )
        assert lp3_relevancy(g, 1, 2) is None
        witness = lp3_relevancy(g, 1, 0)
        assert witness.support == (0, 1)
        assert is_best_response(g, 1, 0, witness)

    def test_out_of_range_index(self, mp):
        with pytest.raises(ValueError, match="index 2"):
            lp3_relevancy(mp, 1, 2)


class TestLp2:
    def test_mp_pure_best_response(self, mp):
        member, witness = lp2_domain_check(mp, 1, 0, (0,), (1,))
        assert member and witness.probs == (F(1), F(0))

    def test_mp_wrong_column(self, mp):
        member, witness = lp2_domain_check(mp, 1, 0, (1,), (0,))
        assert not member and witness is None

    def test_mp_full_support_witness(self, mp):
        member, witness = lp2_domain_check(mp, 1, 0, (0, 1), ())
        assert member
        assert witness.probs == (F(1, 2), F(1, 2))  # the floor q = (1, 1) is feasible

    def test_witness_properties(self):
        for seed in range(3):
            g = generate_random_game(3, 3, 6000 + seed)
            for x in range(3):
                for size in (1, 2, 3):
                    for s1 in itertools.combinations(range(3), size):
                        s0 = tuple(y for y in range(3) if y not in s1)
                        member, witness = lp2_domain_check(g, 1, x, s1, s0)
                        if member:
                            assert witness.support == s1
                            assert is_best_response(g, 1, x, witness)

    def test_overlapping_sets_rejected(self, mp):
        with pytest.raises(ValueError):
            lp2_domain_check(mp, 1, 0, (0,), (0,))

    def test_out_of_range_indices_named(self, mp):
        with pytest.raises(ValueError, match="opponent strategy index 5"):
            lp2_domain_check(mp, 1, 0, (5,), ())
        with pytest.raises(ValueError, match="opponent strategy index 3"):
            lp2_domain_check(mp, 2, 0, (0,), (3,))
        with pytest.raises(ValueError, match="strategy index 7"):
            lp2_domain_check(mp, 1, 7, (0,), ())
        with pytest.raises(ValueError, match="strategy index -1"):
            lp2_joint_domain_check(mp, 2, (0, -1), (0,), ())
        with pytest.raises(ValueError, match="^xs must be non-empty$"):
            lp2_joint_domain_check(mp, 1, (), (0,), ())
        with pytest.raises(ValueError, match="^s1 must be non-empty$"):
            lp2_joint_domain_check(mp, 1, (0,), (), (0, 1))


class TestJointLp2:
    def test_mp_rows_share_witness(self, mp):
        member, witness = lp2_joint_domain_check(mp, 1, (0, 1), (0, 1), ())
        assert member and witness.probs == (F(1, 2), F(1, 2))

    def test_no_common_witness(self):
        # Three rows each best somewhere on the q-segment, never all at once.
        g = Game.from_rows(
            [[1, 0], [0, 1], [F(3, 5), F(3, 5)]],
            [[0, 0], [0, 0], [0, 0]],
        )
        for x in range(3):
            assert lp2_domain_check(g, 1, x, (0, 1), ())[0]
        member, _ = lp2_joint_domain_check(g, 1, (0, 1, 2), (0, 1), ())
        assert not member


class TestFp1:
    def test_bos_mixed_exact(self, bos):
        ok, witness = fp1_check(bos, 0b11, 0b11)
        assert ok
        eq = _lifted(bos, 0b11, 0b11, witness)
        p, q, u1, u2 = eq.p, eq.q, eq.u1, eq.u2
        assert p.probs == (F(2, 3), F(1, 3))
        assert q.probs == (F(1, 3), F(2, 3))
        assert u1 == u2 == F(2, 3)

    def test_mp_symmetric(self, mp):
        ok, witness = fp1_check(mp, 0b11, 0b11)
        assert ok
        eq = _lifted(mp, 0b11, 0b11, witness)
        p, q, u1, u2 = eq.p, eq.q, eq.u1, eq.u2
        assert p.probs == q.probs == (F(1, 2), F(1, 2))
        assert u1 == u2 == 0

    def test_pd_cooperate_rejected(self, pd):
        ok, witness = fp1_check(pd, 0b1, 0b1)
        assert not ok and witness is None

    def test_supports_enforced_exactly(self, flat_top):
        # Row 2 earns strictly less, so it can never sit inside a support.
        assert not fp1_check(flat_top, 0b11, 0b11)[0]
        assert fp1_check(flat_top, 0b1, 0b11)[0]

    def test_dominated_strategy_never_in_support(self, pd):
        for rows in (0b01, 0b11):
            for cols in (0b01, 0b10, 0b11):
                assert not fp1_check(pd, rows, cols)[0]
        for rows in (0b10,):
            assert not fp1_check(pd, rows, 0b01)[0]
        assert fp1_check(pd, 0b10, 0b10)[0]

    def test_witness_satisfies_best_response_condition(self):
        for seed in range(4):
            g = generate_random_game(3, 3, 6500 + seed)
            for rows in itertools.chain.from_iterable(
                itertools.combinations(range(3), k) for k in (1, 2, 3)
            ):
                for cols in itertools.chain.from_iterable(
                    itertools.combinations(range(3), k) for k in (1, 2, 3)
                ):
                    ok, witness = fp1_check(g, _mask(rows), _mask(cols))
                    if not ok:
                        continue
                    eq = _lifted(g, _mask(rows), _mask(cols), witness)
                    p, q = eq.p, eq.q
                    assert p.support == rows and q.support == cols
                    for x in rows:
                        assert is_best_response(g, 1, x, q)
                    for y in cols:
                        assert is_best_response(g, 2, y, p)

    def test_out_of_range_support(self, pd):
        # Empty, negative and out-of-range masks, with and without a record.
        bad = ((0b100001, 0b1), (0b1, 0b100), (0, 0b1), (0b1, 0), (-1, 0b1), (0b1, -2))
        for rows, cols in bad:
            for record in (None, InfeasibleSides(pd)):
                with pytest.raises(ValueError):
                    fp1_check(pd, rows, cols, record)

    def test_check_side_refuses_malformed_masks(self, bos):
        # An empty responder mask lies inside every responder set, so a
        # recorded one would rule out every later question on its support.
        record = InfeasibleSides(bos)
        bad = ((1, 0, 0b01), (1, 0b01, 0), (2, 0b01, 0b101), (1, 0b100, 0b01), (2, -1, 0b01))
        for player, responders, support in bad:
            with pytest.raises(ValueError):
                record.check_side(player, responders, support)
        assert record.check_side(1, 0b01, 0b01) == (1, 0)
        assert fp1_check(bos, 0b01, 0b01, record)[0]


def _rival_pairs(vectors) -> list[list[tuple[int, int]]]:
    """`_rival_masks` as first written: every row against every rival,
    twins included."""
    top = tuple(map(max, zip(*vectors)))
    out = []
    for own in vectors:
        pairs = []
        for rival in vectors if own != top else ():
            at_least = sum(1 << y for y, (r, v) in enumerate(zip(rival, own)) if r >= v)
            more = sum(1 << y for y, (r, v) in enumerate(zip(rival, own)) if r > v)
            if more:
                pairs.append((at_least, more))
        out.append(pairs)
    return out


class TestRivalMasks:
    def test_twins_share_their_pairs(self):
        # Pairs found once per distinct payoff vector give each row the same
        # set of pairs as every rival does, so pure dominance and the
        # relevancy bound answer as with every rival; twin rows share one
        # tuple of pairs.
        rng = random.Random(42)
        for seed in range(200):
            m, n = rng.randint(1, 6), rng.randint(1, 4)
            game = duplicated_game(m, n, 4200 + seed, True, seed % 2 == 0)
            record, reference = InfeasibleSides(game), InfeasibleSides(game)
            reference._masks = tuple(
                tuple(map(tuple, _rival_pairs(vectors))) for _, vectors in game.int_payoffs
            )
            for side, (_, vectors) in enumerate(game.int_payoffs):
                masks = record._masks[side]
                for x, pairs in enumerate(_rival_pairs(vectors)):
                    assert set(masks[x]) == set(pairs)
                    assert masks[x] is masks[vectors.index(vectors[x])]
                for fixed in range(1, 1 << len(vectors[0])):
                    dominated = record._responders_dominated(side, fixed)
                    assert dominated == reference._responders_dominated(side, fixed)
                for x in range(len(vectors)):
                    bound = record.relevancy_bound(side + 1, x)
                    assert bound == reference.relevancy_bound(side + 1, x)

    def test_many_twin_rows_cost_as_much_as_one(self):
        # 3996 rows of (0, 0), then (1, -1) and (1, 0), with B zero: three
        # distinct row vectors, one of them every column's top, and one
        # column vector, so the record compares six pairs of rows, not 16
        # million, and no pair of columns.
        rows = [(0, 0)] * 3996 + [(1, -1), (1, 0)]
        game = Game.from_rows(rows, [(0, 0)] * len(rows))
        masks = InfeasibleSides(game)._masks
        assert len({id(pairs) for pairs in masks[0]}) == 3
        assert masks[0][0] == ((0b01, 0b01), (0b11, 0b01))
        assert masks[0][-1] == () and masks[1] == ((), ())


class TestSingleColumnSides:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tied_games())
    def test_answered_by_pure_comparison(self, game):
        # A support of one column y solves no LP: the side is refused exactly
        # when a rival earns strictly more than some responder at y, and
        # otherwise holds with the witness the region program finds.
        solves = []
        solve_rows = lp_module._solve_rows

        def counting_solve(*args):
            solves.append(None)
            return solve_rows(*args)

        for player in (1, 2):
            own, opp = game.strategy_count(player), game.strategy_count(2 if player == 1 else 1)
            payoff = (lambda x, y: game.a[x][y]) if player == 1 else (lambda x, y: game.b[y][x])
            for y in range(opp):
                top = max(payoff(o, y) for o in range(own))
                rest = tuple(j for j in range(opp) if j != y)
                for responders in range(1, 1 << own):
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(lp_module, "_solve_rows", counting_solve)
                        weights = InfeasibleSides(game).check_side(player, responders, 1 << y)
                    assert solves == []
                    members = tuple(x for x in range(own) if responders >> x & 1)
                    refused = any(payoff(x, y) < top for x in members)
                    assert (weights is None) == refused
                    member, witness = lp2_joint_domain_check(game, player, members, (y,), rest)
                    assert member == (not refused)
                    if member:
                        owner = 2 if player == 1 else 1
                        assert MixedStrategy.from_weights(owner, weights) == witness


def _uniquely_best(vectors, x: int, a: int, b: int) -> bool:
    """Is row x of `vectors` the unique best response to some mixture
    t * e_a + (1 - t) * e_b, 0 < t < 1?  Tried in `Fraction`s halfway between
    neighbouring points where a row ties x: the set is open, so it holds one
    of them when it is not empty."""
    ends = {F(0), F(1)}
    for row in vectors:
        slope = (row[a] - vectors[x][a]) - (row[b] - vectors[x][b])
        if slope:
            t = F(vectors[x][b] - row[b], slope)
            if 0 < t < 1:
                ends.add(t)
    ends = sorted(ends)
    for t in ((u + v) / 2 for u, v in zip(ends, ends[1:])):
        payoffs = [t * row[a] + (1 - t) * row[b] for row in vectors]
        if all(p < payoffs[x] for o, p in enumerate(payoffs) if o != x):
            return True
    return False


class TestTwoColumnSides:
    """`_mixture_interval` and `_two_column_side` against the region program
    on every responder set and every two-column support."""

    @staticmethod
    def _check(game: Game) -> None:
        for player in (1, 2):
            view = game.int_payoffs[player - 1]
            vectors = view[1]
            own, opp = len(vectors), len(vectors[0])
            for a, b in itertools.combinations(range(opp), 2):
                support = 1 << a | 1 << b
                for responders in range(1, 1 << own):
                    closed = _two_column_side(vectors, responders, support, opp)
                    weights = _best_response_region(view, responders, support, ~support)
                    assert (closed is None) == (weights is None)
                    if closed:
                        assert F(closed[a], sum(closed)) == F(weights[a], sum(weights))
                    ends = lp_module._mixture_interval(vectors, responders, a, b)
                    if weights is not None:
                        # The program's point lies in the interval.
                        t = F(weights[a], sum(weights))
                        (lo_n, lo_d, lo_closed), (hi_n, hi_d, hi_closed) = ends
                        lo, hi = F(lo_n, lo_d), F(hi_n, hi_d)
                        assert lo < t < hi or (t == lo and lo_closed) or (t == hi and hi_closed)
                for x in range(own):
                    strict = lp_module._mixture_interval(vectors, 1 << x, a, b, True)
                    assert (strict is not None) == _uniquely_best(vectors, x, a, b)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(tied_games())
    def test_tied_games(self, game):
        self._check(game)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10**6))
    def test_grid_games(self, m, n, seed):
        self._check(generate_random_game(m, n, seed))

    def test_all_zero_game(self):
        # Every row ties every other: each responder set holds at the
        # uniform mixture, and no row is a unique best response.  The
        # interval is all of (0, 1), so the uniform mixture answers.
        self._check(Game.from_rows([[0] * 3] * 3, [[0] * 3] * 3))
        vectors = ((0, 0), (0, 0))
        assert _two_column_side(vectors, 0b11, 0b11, 2) == ()
        assert _uniform_side(vectors, 0b11, 0b11, 2) == (1, 1)
        assert lp_module._mixture_interval(vectors, 1, 0, 1, True) is None

    def test_tie_fixes_t(self):
        # Rows 2t and 1 - t tie at t = 1/3, where the zero row earns less.
        vectors = ((2, 0), (0, 1), (0, 0))
        ends = lp_module._mixture_interval(vectors, 0b011, 0, 1)
        assert [F(n, d) for n, d, _ in ends] == [F(1, 3)] * 2
        assert _two_column_side(vectors, 0b011, 0b11, 2) == (1, 2)
        assert _best_response_region((1, vectors), 0b011, 0b11, ~0b11) is not None

    def test_uniform_mixture_inside(self):
        # Row [1, 1] is best for t <= 1/2 against [2, 0]: the closed end is
        # the uniform mixture, the program's starting point.
        vectors = ((1, 1), (2, 0))
        ends = lp_module._mixture_interval(vectors, 0b01, 0, 1)
        assert ends == ((0, 1, False), (1, 2, True))
        assert _two_column_side(vectors, 0b01, 0b11, 2) == ()
        assert _uniform_side(vectors, 0b01, 0b11, 2) == (1, 1)
        weights = _best_response_region((1, vectors), 0b01, 0b11, ~0b11)
        assert weights[0] == weights[1]
        # Against [2, 0] and [0, 2] as well, the uniform mixture is the one
        # point where row [1, 1] is best, and it is never uniquely best.
        vectors = ((1, 1), (2, 0), (0, 2))
        assert lp_module._mixture_interval(vectors, 0b001, 0, 1) == ((1, 2, True), (1, 2, True))
        assert _two_column_side(vectors, 0b001, 0b11, 2) == (1, 1)
        assert _uniform_side(vectors, 0b001, 0b11, 2) == (1, 1)
        assert lp_module._mixture_interval(vectors, 0b001, 0, 1, True) is None

    def test_non_uniform_interval_goes_to_the_program(self):
        # Against [3, 0] row [1, 1] is best for t <= 1/3: an interval that
        # misses the uniform mixture, so the record solves the LP.
        game = Game.from_rows([[1, 1], [3, 0]], [[0, 0], [0, 0]])
        assert lp_module._mixture_interval(game.int_payoffs[0][1], 0b01, 0, 1) == (
            (0, 1, False),
            (1, 3, True),
        )
        assert _two_column_side(game.int_payoffs[0][1], 0b01, 0b11, 2) == ()
        assert _uniform_side(game.int_payoffs[0][1], 0b01, 0b11, 2) == ()
        with side_lps() as solved:
            weights = InfeasibleSides(game).check_side(1, 0b01, 0b11)
        assert solved == [(1, 0b01, 0b11)]
        assert F(weights[0], sum(weights)) <= F(1, 3)

    def test_ends_at_zero_and_one(self):
        # Over the whole of (0, 1) both ends are open: the pure columns are
        # not on the exact support.
        assert lp_module._mixture_interval(((1, 1), (0, 0)), 0b01, 0, 1) == (
            (0, 1, False),
            (1, 1, False),
        )
        # A row best only at pure e_b (t = 0) or pure e_a (t = 1) has an
        # empty side on the pair, as the program finds.
        for vectors in (((0, 1), (1, 1)), ((1, 0), (1, 1))):
            assert lp_module._mixture_interval(vectors, 0b01, 0, 1) is None
            assert _two_column_side(vectors, 0b01, 0b11, 2) is None
            assert _best_response_region((1, vectors), 0b01, 0b11, ~0b11) is None
        # A twin earns the same everywhere: never strictly beaten.
        assert lp_module._mixture_interval(((1, 2), (1, 2)), 0b01, 0, 1, True) is None


class TestTieRaySides:
    """`_tie_ray` against the region program on sides with at least as many
    responders as support columns, three or more."""

    def test_matches_the_region_program(self):
        # Same verdict on every side, the same normalized witness on every
        # feasible one, and exactly the sides whose tie rows have rank below
        # |C| - 1 left to the LP.
        rng = random.Random(37)
        seen = {"feasible": 0, "infeasible": 0, "program": 0}
        for case in range(1500):
            m, n = rng.randint(3, 6), rng.randint(3, 6)
            seed = 3700 + case
            game = (
                duplicated_game(m, n, seed, False),
                generate_random_game(m, n, seed),
                duplicated_game(m, n, seed, True, case % 2 == 0),
            )[case % 3]
            for player in (1, 2):
                view = game.int_payoffs[player - 1]
                vectors = view[1]
                own, opp = len(vectors), len(vectors[0])
                if min(own, opp) < 3:
                    continue
                cols = sorted(rng.sample(range(opp), rng.randint(3, min(own, opp))))
                rows = sorted(rng.sample(range(own), rng.randint(len(cols), own)))
                responders, support = _mask(rows), _mask(cols)
                ray = _tie_ray(vectors, responders, support, opp)
                weights = _best_response_region(view, responders, support, ~support)
                ties = [[F(vectors[r][y] - vectors[rows[0]][y]) for y in cols] for r in rows[1:]]
                if rational_rank(ties) < len(cols) - 1:
                    assert ray == ()
                    seen["program"] += 1
                    continue
                assert ray != ()
                assert (ray is None) == (weights is None)
                if ray is None:
                    seen["infeasible"] += 1
                    continue
                seen["feasible"] += 1
                owner = 2 if player == 1 else 1
                assert (
                    MixedStrategy.from_weights(owner, ray)
                    == MixedStrategy.from_weights(owner, weights)
                )
                assert all(ray[y] > 0 for y in cols)
        assert min(seen.values()) > 20, seen

    def test_record_solves_only_rank_deficient_sides(self):
        # A generic 3x3 game: the three rows tie along one positive ray, so
        # the side holds with no LP, at the LP's witness halved.  The
        # all-zero game ties everywhere: the tie rows have rank 0, but the
        # uniform mixture qualifies, so the record answers with the LP's
        # normalized witness and solves no LP.  A rival (3, -1, -1) earns
        # more than the zero rows there, so the record solves that side's LP.
        game = generate_random_game(3, 3, 0)
        weights = _best_response_region(game.int_payoffs[0], 0b111, 0b111, ~0b111)
        with side_lps() as solved:
            ray = InfeasibleSides(game).check_side(1, 0b111, 0b111)
        assert solved == []
        assert weights == tuple(2 * w for w in ray) == (427482, 452156, 49482)
        zero = Game.from_rows([[0] * 3] * 3, [[0] * 3] * 3)
        assert _tie_ray(zero.int_payoffs[0][1], 0b111, 0b111, 3) == ()
        with side_lps() as solved:
            uniform = InfeasibleSides(zero).check_side(1, 0b111, 0b111)
        assert solved == []
        weights = _best_response_region(zero.int_payoffs[0], 0b111, 0b111, ~0b111)
        assert uniform == (1, 1, 1) and len(set(weights)) == 1
        rival = Game.from_rows([[0] * 3] * 3 + [[3, -1, -1]], [[0] * 3] * 4)
        assert _tie_ray(rival.int_payoffs[0][1], 0b111, 0b111, 3) == ()
        assert _uniform_side(rival.int_payoffs[0][1], 0b111, 0b111, 3) == ()
        with side_lps() as solved:
            assert InfeasibleSides(rival).check_side(1, 0b111, 0b111) is not None
        assert solved == [(1, 0b111, 0b111)]

    def test_balanced_sides_match_the_region_program(self):
        # |R| = |C| = k, drawn from grid, tied and duplicated games: k - 1
        # tie rows, decided by their signed minors for k <= 4 and by
        # elimination for k = 5.  Every outcome occurs at every k, and so do
        # an all-zero tie row (a responder tied with the base on C) and a
        # repeated one (two responders tied with each other on C).
        rng = random.Random(40)
        seen = collections.Counter()
        for case in range(900):
            k = 3 + case % 3
            m, n = rng.randint(k, 6), rng.randint(k, 6)
            seed = 4000 + case
            game = (
                generate_random_game(m, n, seed),
                duplicated_game(m, n, seed, False),
                duplicated_game(m, n, seed, True, case % 2 == 0),
            )[case // 3 % 3]
            for player in (1, 2):
                view = game.int_payoffs[player - 1]
                vectors = view[1]
                opp = len(vectors[0])
                rows = sorted(rng.sample(range(len(vectors)), k))
                cols = sorted(rng.sample(range(opp), k))
                responders, support = _mask(rows), _mask(cols)
                ray = _tie_ray(vectors, responders, support, opp)
                weights = _best_response_region(view, responders, support, ~support)
                ties = [tuple(vectors[r][y] - vectors[rows[0]][y] for y in cols) for r in rows[1:]]
                seen[k, "zero row"] += not all(map(any, ties))
                seen[k, "repeated row"] += len(set(ties)) < len(ties)
                if rational_rank([list(map(F, t)) for t in ties]) < k - 1:
                    assert ray == ()
                    seen[k, "()"] += 1
                elif ray is None:
                    assert weights is None
                    seen[k, "None"] += 1
                else:
                    assert weights is not None and all(ray[y] > 0 for y in cols)
                    owner = 2 if player == 1 else 1
                    assert (
                        MixedStrategy.from_weights(owner, ray)
                        == MixedStrategy.from_weights(owner, weights)
                    )
                    seen[k, "ray"] += 1
        for k in (3, 4, 5):
            for outcome in ("None", "()", "ray", "zero row", "repeated row"):
                assert seen[k, outcome] >= 10, seen

    def test_minors_match_elimination(self):
        # On k - 1 rows and k = 3 or 4 columns both paths give the rows'
        # null space: the minors, which the rows annul, are all zero exactly
        # when elimination finds it two-dimensional, and otherwise the two
        # rays lie on one line.  Every fourth system has a zero row, a
        # repeated row, or a row that combines the others.
        rng = random.Random(41)
        seen = collections.Counter()
        for case in range(4000):
            k = 3 + case % 2
            rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k - 1)]
            shape = case // 2 % 4
            if shape == 1:
                rows[0] = [0] * k
            elif shape == 2:
                rows[-1] = list(rows[0])
            elif shape == 3:
                rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1] if k == 4 else [0] * k)]
            minors = lp_module._minors_ray(rows)
            ray = lp_module._eliminated_ray([list(row) for row in rows], k)
            assert all(sum(map(int.__mul__, row, minors)) == 0 for row in rows)
            if ray == ():
                assert not any(minors)
                seen[k, "()"] += 1
                continue
            assert any(minors) and any(ray)
            assert all(u * w == v * r for u, r in zip(minors, ray) for v, w in zip(minors, ray))
            seen[k, "ray"] += 1
        assert min(seen.values()) > 100 and len(seen) == 4, seen

    def test_full_rank_is_infeasible(self):
        # Rows e_0, e_1, e_2 and a fourth row (1, 2, 3): the three tie rows
        # against e_0 have rank 3 on three columns, so only q = 0 ties them.
        vectors = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3))
        assert _tie_ray(vectors, 0b1111, 0b111, 3) is None
        assert _best_response_region((1, vectors), 0b1111, 0b111, ~0b111) is None
        # The first three alone tie at the uniform mixture, where the fourth
        # row earns more; without it they hold there.
        assert _tie_ray(vectors, 0b0111, 0b111, 3) is None
        assert _tie_ray(vectors[:3], 0b111, 0b111, 3) == (1, 1, 1)


class TestUniformSides:
    def test_matches_the_region_program(self):
        # Wherever the uniform mixture qualifies, on any support and any
        # responder set, the region program holds and its normalized
        # witness is that mixture; wherever it does not, the program's
        # witness is some other point or there is none.
        rng = random.Random(38)
        seen = {"uniform": 0, "other": 0, "infeasible": 0}
        for case in range(1500):
            m, n = rng.randint(2, 5), rng.randint(2, 5)
            seed = 3800 + case
            game = (
                duplicated_game(m, n, seed, False),
                degenerate_game(m, n, seed),
                duplicated_game(m, n, seed, True, case % 2 == 0),
            )[case % 3]
            for player in (1, 2):
                view = game.int_payoffs[player - 1]
                own, opp = len(view[1]), len(view[1][0])
                responders = _mask(rng.sample(range(own), rng.randint(1, own)))
                support = _mask(rng.sample(range(opp), rng.randint(2, opp)))
                uniform = _uniform_side(view[1], responders, support, opp)
                weights = _best_response_region(view, responders, support, ~support)
                if uniform != ():
                    assert uniform == tuple(support >> y & 1 for y in range(opp))
                    assert len({weights[y] for y in range(opp) if support >> y & 1}) == 1
                    seen["uniform"] += 1
                elif weights is None:
                    seen["infeasible"] += 1
                else:
                    assert len({weights[y] for y in range(opp) if support >> y & 1}) > 1
                    seen["other"] += 1
        assert min(seen.values()) > 20, seen
