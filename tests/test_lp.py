"""LP kernel: exact simplex plus the four game programs."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashcycles.games import (
    Game,
    MixedStrategy,
    SupportPair,
    generate_random_game,
    is_best_response,
)
from nashcycles.lp import (
    RELATIONS,
    Constraint,
    LinearProgram,
    LpStatus,
    fp1_check,
    lp1_dominance,
    lp2_domain_check,
    lp2_joint_domain_check,
    lp3_relevancy,
    mod_lp1_relevancy,
    solve_lp,
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


class TestSolveLpAgainstVertices:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_boxed_lps())
    def test_matches_vertex_enumeration(self, lp):
        best = _best_vertex_value(lp)
        out = solve_lp(lp)
        if best is None:
            assert out.status is LpStatus.INFEASIBLE
        else:
            _check_assignment(lp, out)
            assert out.objective_value == best


class TestLp1Dominance:
    def test_pd_cooperate_dominated_with_eps_minus_one(self, pd):
        dominated, witness = lp1_dominance(pd, 1, 0)
        assert dominated and witness is None
        # The documented optimum: the smallest payoff gap over the simplex is 1.
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


class TestModLp1:
    def test_mp_examples(self, mp):
        assert mod_lp1_relevancy(mp, 1, 0, 0) is True
        assert mod_lp1_relevancy(mp, 1, 0, 1) is False

    def test_bos_example(self, bos):
        assert mod_lp1_relevancy(bos, 1, 0, 0) is True

    def test_single_opponent_strategy(self):
        g = Game.from_rows([[1], [0]], [[0], [0]])
        assert mod_lp1_relevancy(g, 1, 0, 0) is True


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
        assert witness.probs == (F(1, 2), F(1, 2))  # unique optimum of max min(q)

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
        ok, witness = fp1_check(bos, SupportPair((0, 1), (0, 1)))
        assert ok
        p, q, u1, u2 = witness
        assert p.probs == (F(2, 3), F(1, 3))
        assert q.probs == (F(1, 3), F(2, 3))
        assert u1 == u2 == F(2, 3)

    def test_mp_symmetric(self, mp):
        ok, witness = fp1_check(mp, SupportPair((0, 1), (0, 1)))
        assert ok
        p, q, u1, u2 = witness
        assert p.probs == q.probs == (F(1, 2), F(1, 2))
        assert u1 == u2 == 0

    def test_pd_cooperate_rejected(self, pd):
        ok, witness = fp1_check(pd, SupportPair((0,), (0,)))
        assert not ok and witness is None

    def test_supports_enforced_exactly(self, flat_top):
        # Row 2 earns strictly less, so it can never sit inside a support.
        assert not fp1_check(flat_top, SupportPair((0, 1), (0, 1)))[0]
        assert fp1_check(flat_top, SupportPair((0,), (0, 1)))[0]

    def test_dominated_strategy_never_in_support(self, pd):
        for rows in ((0,), (0, 1)):
            for cols in ((0,), (1,), (0, 1)):
                assert not fp1_check(pd, SupportPair(rows, cols))[0]
        for rows in ((1,),):
            assert not fp1_check(pd, SupportPair(rows, (0,)))[0]
        assert fp1_check(pd, SupportPair((1,), (1,)))[0]

    def test_witness_satisfies_best_response_condition(self):
        for seed in range(4):
            g = generate_random_game(3, 3, 6500 + seed)
            for rows in itertools.chain.from_iterable(
                itertools.combinations(range(3), k) for k in (1, 2, 3)
            ):
                for cols in itertools.chain.from_iterable(
                    itertools.combinations(range(3), k) for k in (1, 2, 3)
                ):
                    ok, witness = fp1_check(g, SupportPair(rows, cols))
                    if not ok:
                        continue
                    p, q, u1, u2 = witness
                    assert p.support == rows and q.support == cols
                    for x in rows:
                        assert is_best_response(g, 1, x, q)
                    for y in cols:
                        assert is_best_response(g, 2, y, p)

    def test_out_of_range_support(self, pd):
        with pytest.raises(ValueError):
            fp1_check(pd, SupportPair((0, 5), (0,)))
