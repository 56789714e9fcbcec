"""Exact-arithmetic linear programming kernel.

`solve_lp` is a two-phase tableau simplex over rationals with Bland's
anti-cycling pivot rule: deterministic, tolerance-free, and terminating
on degenerate inputs.  On top of it sit three programs, one per question
the library asks:

* the dominance program maximizes a strategy's worst payoff gap over the
  opponent simplex.  It is the strict-dominance test, and with one
  opponent column dropped the one-sided relevancy certificate;
* the max-support program reads the relevancy set R(x) off one optimum.
  The opponent strategies q >= 0 (not normalized) to which x responds
  best form a convex cone, and R(x) is the union of the supports in it.
  Writing q = t + s with 0 <= t <= 1 and s >= 0 and maximizing the sum of
  t rewards every coordinate the cone can make positive, and a sum of cone
  points is a cone point, so every optimum has t = 1 exactly on R(x) and
  q zero elsewhere (the idea of Freund, Roundy & Todd, 1985, for the
  always-active constraints of a linear system);
* the best-response-region program looks for an opponent mixed strategy
  against which every given responder is a best response.  Each rival
  row is a payoff difference with the first responder, so the common
  payoff is no variable; it is read off the witness after the solve.
  Domain checks, common-witness arcs and both sides of the support-pair
  feasibility check `fp1_check` are this one program.

`fp1_check` can take an `InfeasibleSides` record, made fresh for one
game, of the one-sided programs it has already found infeasible.  Each
side is monotone in its responders: if no q with support exactly C makes
every row of R a best response, then none does for any R' containing R,
because each extra responder turns a `<=` row into an `=` row and only
shrinks the region.  So a candidate (R, C) is rejected without an LP when
a recorded row set inside R failed against C, or a recorded column set
inside C failed against R.  This holds on degenerate games too.  Without
a record, every call solves its programs afresh.

The tableau is fraction-free (Bareiss 1968; Edmonds 1967; the integer
pivoting of Avis's ``lrs``).  After the variable substitutions, every
constraint row and rhs is multiplied by one common scale per LP, the lcm of
their denominators, and the phase-2 costs by their own; one scale per row
would reweight the phase-1 sum of artificials.  The solver keeps integer
rows T and one denominator det > 0, so that T / det is the rational
tableau.  A pivot on p = T[r][c] replaces every other row by
(row * p - row[c] * T[r]) / det, an exact division because every entry is
a minor of the scaled input, and then sets det = p.  Bland's rule reads
signs and compares ratios by cross-multiplying, so every pivot is the one
the rational tableau would choose.  Public inputs and outputs are
`Fraction` (ints are accepted).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .games import Game, MixedStrategy, SupportPair

__all__ = [
    "Constraint",
    "InfeasibleSides",
    "LinearProgram",
    "LpOutcome",
    "LpStatus",
    "fp1_check",
    "lp1_dominance",
    "lp2_domain_check",
    "lp2_joint_domain_check",
    "lp3_relevancy",
    "mod_lp1_relevancy",
    "solve_lp",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

RELATIONS = ("<=", "=", ">=")


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to constraints and per-variable bounds.

    `bounds[j]` is a (lower, upper) pair where None means unbounded; the
    default for every variable is (0, None).
    """

    num_vars: int
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    bounds: tuple[tuple[Fraction | None, Fraction | None], ...] | None = None

    def __post_init__(self):
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length must equal num_vars")
        for con in self.constraints:
            if len(con.coeffs) != self.num_vars:
                raise ValueError("constraint coefficient length must equal num_vars")
        if self.bounds is not None:
            if len(self.bounds) != self.num_vars:
                raise ValueError("bounds length must equal num_vars")
            for lo, hi in self.bounds:
                if lo is not None and hi is not None and lo > hi:
                    raise ValueError(f"inconsistent bounds ({lo}, {hi})")

    def effective_bounds(self) -> tuple[tuple[Fraction | None, Fraction | None], ...]:
        if self.bounds is None:
            return tuple((_ZERO, None) for _ in range(self.num_vars))
        return self.bounds


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    objective_value: Fraction | None = None
    assignment: tuple[Fraction, ...] | None = None


# ---------------------------------------------------------------------------
# Simplex core
# ---------------------------------------------------------------------------

def _run_simplex(rows, row0, basis, det):
    """Bland-rule simplex on an integer tableau with reduced costs in `row0`
    and the rhs stored in each row's last cell, all over the denominator
    `det`.  Returns ("optimal" or "unbounded", the final denominator)."""
    width = len(row0) - 1
    while True:
        enter = -1
        for j in range(width):
            if row0[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", det
        leave = -1
        for i, row in enumerate(rows):
            coef = row[enter]
            if coef > 0:
                # Compare row[-1] / coef with the best ratio by cross-multiplying.
                diff = -1 if leave < 0 else row[-1] * best_coef - best_rhs * coef
                if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                    best_rhs, best_coef = row[-1], coef
                    leave = i
        if leave < 0:
            return "unbounded", det
        det = _pivot(rows, row0, basis, det, leave, enter)


def _pivot(rows, row0, basis, det, r, c):
    """Fraction-free pivot on rows[r][c]; returns the new denominator.

    Every other row becomes (row * p - row[c] * pivot row) / det, which is
    exact because each entry is a minor of the scaled input.  A negative
    pivot row is negated first, which leaves its rational value unchanged
    and keeps the denominator positive."""
    prow = rows[r]
    p = prow[c]
    if p < 0:
        rows[r] = prow = [-v for v in prow]
        p = -p
    for i, row in enumerate(rows):
        if i != r:
            rows[i] = _eliminate(row, prow, p, det, c)
    row0[:] = _eliminate(row0, prow, p, det, c)
    basis[r] = c
    return p


def _eliminate(row, prow, p, det, c):
    f = row[c]
    if f:
        return [(a * p - f * b) // det for a, b in zip(row, prow)]
    if p != det:
        return [a * p // det for a in row]
    return row


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; status is Optimal, Infeasible, or Unbounded.

    When Optimal, the assignment satisfies every constraint with exact
    rational equality and attains the reported objective value.
    """
    bounds = lp.effective_bounds()

    # Substitute x = offset + sum of sign * column, with every column >= 0.
    var_map: list[tuple] = []
    upper_rows: list[tuple[int, Fraction]] = []
    ncols = 0
    for lo, hi in bounds:
        if lo is not None:
            var_map.append((lo, ((ncols, 1),)))
            if hi is not None:
                upper_rows.append((ncols, hi - lo))
            ncols += 1
        elif hi is not None:
            var_map.append((hi, ((ncols, -1),)))
            ncols += 1
        else:
            var_map.append((0, ((ncols, 1), (ncols + 1, -1))))
            ncols += 2

    raw_rows: list[tuple[dict, str, object]] = []
    for con in lp.constraints:
        terms = {}
        rhs = con.rhs
        for coef, (offset, cols) in zip(con.coeffs, var_map):
            if coef:
                if offset:
                    rhs -= coef * offset
                for col, sign in cols:
                    terms[col] = coef if sign > 0 else -coef
        raw_rows.append((terms, con.relation, rhs))
    for col, cap in upper_rows:
        raw_rows.append(({col: _ONE}, "<=", cap))

    # One common scale for the whole LP (not one per row, which would
    # reweight the phase-1 sum of artificials) makes every row integral.
    scale = math.lcm(
        *(v.denominator for terms, _, rhs in raw_rows for v in (rhs, *terms.values()))
    )
    for idx, (terms, rel, rhs) in enumerate(raw_rows):
        sign = 1
        if rhs < 0:
            sign = -1
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        raw_rows[idx] = (
            {col: sign * v.numerator * (scale // v.denominator) for col, v in terms.items()},
            rel,
            sign * rhs.numerator * (scale // rhs.denominator),
        )

    nslack = sum(1 for _, rel, _ in raw_rows if rel != "=")
    nart = sum(1 for _, rel, _ in raw_rows if rel != "<=")
    slack_start = ncols
    art_start = ncols + nslack
    width = art_start + nart

    rows: list[list[int]] = []
    basis: list[int] = []
    slack_at = slack_start
    art_at = art_start
    for terms, rel, rhs in raw_rows:
        full = [0] * (width + 1)
        for col, v in terms.items():
            full[col] = v
        full[-1] = rhs
        if rel == "<=":
            full[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            full[slack_at] = -1
            slack_at += 1
            full[art_at] = 1
            basis.append(art_at)
            art_at += 1
        else:
            full[art_at] = 1
            basis.append(art_at)
            art_at += 1
        rows.append(full)

    # The rational tableau is rows / det; the initial basis is a unit matrix.
    det = 1
    # Phase 1: maximize minus the sum of artificials.
    if nart:
        row0 = [0] * (width + 1)
        for i, b in enumerate(basis):
            if b >= art_start:
                row0 = [a - v for a, v in zip(row0, rows[i])]
        row0[art_start:width] = [0] * nart
        _, det = _run_simplex(rows, row0, basis, det)
        if row0[-1] < 0:
            return LpOutcome(LpStatus.INFEASIBLE)
        # Pivot surviving artificials (at level zero) out of the basis.
        for i in range(len(rows) - 1, -1, -1):
            if basis[i] >= art_start:
                target = -1
                for j in range(art_start):
                    if rows[i][j]:
                        target = j
                        break
                if target >= 0:
                    det = _pivot(rows, row0, basis, det, i, target)
                else:
                    del rows[i]
                    del basis[i]
        rows = [row[:art_start] + [row[-1]] for row in rows]
        width = art_start

    # Phase 2: reduced costs for the real objective, scaled by its own common
    # denominator, over the current basis and denominator.
    cost = [0] * width
    cost_scale = math.lcm(*(coef.denominator for coef in lp.objective))
    for coef, (_, cols) in zip(lp.objective, var_map):
        if coef:
            for col, sign in cols:
                cost[col] = sign * coef.numerator * (cost_scale // coef.denominator)
    row0 = [-c * det for c in cost] + [0]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            row0 = [a + cb * v for a, v in zip(row0, rows[i])]
    status, det = _run_simplex(rows, row0, basis, det)
    if status == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)

    values = [0] * width
    for i, b in enumerate(basis):
        values[b] = rows[i][-1]
    assignment = []
    for offset, cols in var_map:
        value = Fraction(sum(sign * values[col] for col, sign in cols), det)
        assignment.append(value + offset if offset else value)
    objective_value = sum(
        (c * v for c, v in zip(lp.objective, assignment) if c), _ZERO
    )
    return LpOutcome(LpStatus.OPTIMAL, objective_value, tuple(assignment))


# ---------------------------------------------------------------------------
# Program builders
# ---------------------------------------------------------------------------

def _payoff(game: Game, player: int, own: int, opp: int) -> Fraction:
    return game.a[own][opp] if player == 1 else game.b[opp][own]


def _opponent(player: int) -> int:
    return 2 if player == 1 else 1


def _lp1_program(game: Game, player: int, x: int, keep: range | list[int]) -> LpOutcome:
    """Maximize the worst payoff gap epsilon of `x` over every rival
    strategy, across opponent mixed strategies supported inside `keep`."""
    own_count = game.strategy_count(player)
    nq = len(keep)
    constraints = []
    for other in range(own_count):
        if other == x:
            continue
        coeffs = [_payoff(game, player, other, y) - _payoff(game, player, x, y) for y in keep]
        coeffs.append(_ONE)
        constraints.append(Constraint(tuple(coeffs), "<=", _ZERO))
    constraints.append(Constraint(tuple([_ONE] * nq + [_ZERO]), "=", _ONE))
    bounds = tuple([(_ZERO, None)] * nq + [(None, None)])
    objective = tuple([_ZERO] * nq + [_ONE])
    return solve_lp(LinearProgram(nq + 1, objective, tuple(constraints), bounds))


def lp1_dominance(game: Game, player: int, x: int) -> tuple[bool, MixedStrategy | None]:
    """Strict-dominance test for one pure strategy.

    Maximizes the worst payoff gap epsilon over the opponent simplex; the
    strategy is strictly dominated (by a mixed strategy) exactly when the
    optimum is negative.  When not dominated, returns an opponent mixed
    strategy to which `x` is a best response.
    """
    own_count = game.strategy_count(player)
    opp_count = game.strategy_count(_opponent(player))
    if not 0 <= x < own_count:
        raise ValueError(f"strategy index {x} out of range")
    if own_count == 1:
        # No rival strategies: a lone strategy is never dominated.
        return False, MixedStrategy.uniform(_opponent(player), opp_count)

    outcome = _lp1_program(game, player, x, range(opp_count))
    if outcome.status is not LpStatus.OPTIMAL:  # pragma: no cover - always bounded
        raise RuntimeError(f"dominance program ended {outcome.status}")
    if outcome.objective_value < 0:
        return True, None
    witness = MixedStrategy(_opponent(player), outcome.assignment[:opp_count])
    return False, witness


def mod_lp1_relevancy(game: Game, player: int, x: int, y_star: int) -> bool:
    """One-sided relevancy certificate: True means y_star is certainly in
    R(x); False is inconclusive.

    Re-runs the dominance program with the opponent forbidden from playing
    `y_star`.  If `x` (not dominated in the full game) becomes dominated,
    the only explanation is that every best-response witness needs
    `y_star` in its support.
    """
    own_count = game.strategy_count(player)
    opp_count = game.strategy_count(_opponent(player))
    if not 0 <= y_star < opp_count:
        raise ValueError(f"opponent strategy index {y_star} out of range")
    if opp_count == 1:
        # Forbidding the only opponent strategy empties the simplex.
        return True
    if own_count == 1:
        return False

    keep = [y for y in range(opp_count) if y != y_star]
    outcome = _lp1_program(game, player, x, keep)
    return outcome.status is LpStatus.OPTIMAL and outcome.objective_value < 0


def lp3_relevancy(game: Game, player: int, x: int) -> MixedStrategy | None:
    """Max-support best-response program: an opponent mixed strategy, to
    which `x` is a best response, whose support is exactly R(x).

    The opponent strategies q >= 0 with (A_other - A_x) . q <= 0 for every
    rival form a cone C, and R(x) is the union of the supports of its
    points.  The program writes q = t + s with 0 <= t <= 1 and s >= 0 and
    maximizes the sum of t.  Since t_y <= q_y, the optimum is at most
    |R(x)|; adding one cone point per member of R(x), each scaled to put at
    least 1 on its member, attains it.  So every optimum has t_y = 1 on
    R(x) and q_y = 0 off it, and q / sum(q) is the witness.  Returns None
    exactly when C is {0}, which by duality means `x` is strictly dominated.
    """
    own_count = game.strategy_count(player)
    opp_count = game.strategy_count(_opponent(player))
    if not 0 <= x < own_count:
        raise ValueError(f"strategy index {x} out of range")
    # Variables: t over the opponent strategies, then s.
    constraints = []
    for other in range(own_count):
        if other == x:
            continue
        diff = tuple(
            _payoff(game, player, other, y) - _payoff(game, player, x, y) for y in range(opp_count)
        )
        constraints.append(Constraint(diff + diff, "<=", _ZERO))
    bounds = ((_ZERO, _ONE),) * opp_count + ((_ZERO, None),) * opp_count
    objective = (_ONE,) * opp_count + (_ZERO,) * opp_count
    outcome = solve_lp(LinearProgram(2 * opp_count, objective, tuple(constraints), bounds))
    if outcome.status is not LpStatus.OPTIMAL:  # pragma: no cover - q = 0 is feasible, sum t <= n
        raise RuntimeError(f"max-support program ended {outcome.status}")
    if outcome.objective_value == 0:
        return None
    q = [t + s for t, s in zip(outcome.assignment[:opp_count], outcome.assignment[opp_count:])]
    total = sum(q)
    return MixedStrategy(_opponent(player), tuple(v / total for v in q))


def _best_response_region(
    game: Game,
    player: int,
    responders: tuple[int, ...],
    s1: tuple[int, ...],
    s0: tuple[int, ...],
) -> tuple[bool, tuple[Fraction, ...] | None, Fraction | None]:
    """Maximize the smallest s1-probability of an opponent mixed strategy q
    (zero on s0) to which every responder is simultaneously a best response.

    Every row compares a rival with the base responder ``responders[0]``:
    ``(A_other - A_base) . q`` is ``= 0`` for the other responders and
    ``<= 0`` for the remaining strategies.  Returns (member, padded q, u),
    where u is the base responder's payoff against q; member is True
    exactly when the optimum exists and is positive.
    """
    own_count = game.strategy_count(player)
    opp_count = game.strategy_count(_opponent(player))
    s0_set = frozenset(s0)
    keep = [y for y in range(opp_count) if y not in s0_set]
    if not keep:
        return False, None, None
    col = {y: j for j, y in enumerate(keep)}
    responders_set = frozenset(responders)
    base = responders[0]

    # Variables: q over `keep`, then eps.
    nq = len(keep)
    constraints = []
    for other in range(own_count):
        if other == base:
            continue
        coeffs = [_payoff(game, player, other, y) - _payoff(game, player, base, y) for y in keep]
        coeffs.append(_ZERO)
        relation = "=" if other in responders_set else "<="
        constraints.append(Constraint(tuple(coeffs), relation, _ZERO))
    constraints.append(Constraint(tuple([_ONE] * nq + [_ZERO]), "=", _ONE))
    for j in s1:
        if j in s0_set:
            raise ValueError("s1 and s0 must be disjoint")
        coeffs = [_ZERO] * (nq + 1)
        coeffs[col[j]] = -_ONE
        coeffs[nq] = _ONE
        constraints.append(Constraint(tuple(coeffs), "<=", _ZERO))

    bounds = tuple([(_ZERO, None)] * nq + [(None, None)])
    objective = tuple([_ZERO] * nq + [_ONE])
    outcome = solve_lp(LinearProgram(nq + 1, objective, tuple(constraints), bounds))
    if outcome.status is not LpStatus.OPTIMAL or outcome.objective_value <= 0:
        return False, None, None
    padded = [_ZERO] * opp_count
    for y in keep:
        padded[y] = outcome.assignment[col[y]]
    u = sum((_payoff(game, player, base, y) * padded[y] for y in keep if padded[y]), _ZERO)
    return True, tuple(padded), u


def lp2_domain_check(
    game: Game,
    player: int,
    x: int,
    s1: tuple[int, ...],
    s0: tuple[int, ...],
) -> tuple[bool, MixedStrategy | None]:
    """Membership check behind domains: is there an opponent mixed strategy
    with positive probability on all of s1, zero on all of s0, to which `x`
    is a best response?

    With s0 the complement of s1 this decides exactly whether s1 belongs to
    the domain of `x`.
    """
    return lp2_joint_domain_check(game, player, (x,), s1, s0)


def lp2_joint_domain_check(
    game: Game,
    player: int,
    xs: tuple[int, ...],
    s1: tuple[int, ...],
    s0: tuple[int, ...],
) -> tuple[bool, MixedStrategy | None]:
    """Common-witness variant of :func:`lp2_domain_check`: one opponent mixed
    strategy to which every strategy in `xs` is simultaneously a best
    response."""
    if not xs:
        raise ValueError("xs must be non-empty")
    if not s1:
        raise ValueError("s1 must be non-empty")
    own_count = game.strategy_count(player)
    opp_count = game.strategy_count(_opponent(player))
    for x in xs:
        if not 0 <= x < own_count:
            raise ValueError(f"strategy index {x} out of range")
    for y in (*s1, *s0):
        if not 0 <= y < opp_count:
            raise ValueError(f"opponent strategy index {y} out of range")
    member, padded, _ = _best_response_region(game, player, tuple(xs), tuple(s1), tuple(s0))
    if not member:
        return False, None
    return True, MixedStrategy(_opponent(player), padded)


def _mask(indices: tuple[int, ...]) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


class InfeasibleSides:
    """One game's record of infeasible one-sided programs of `fp1_check`.

    `rows_failed[C]` lists the row bitmasks R for which the q-side (every
    row of R a best response to some q with support exactly C) is
    infeasible; `cols_failed[R]` does the same for the p-side, with the
    players swapped.  Both sides are monotone, so any superset of a
    recorded set is infeasible against the same fixed side.  `pruned`
    counts the candidates rejected without an LP.
    """

    __slots__ = ("rows_failed", "cols_failed", "pruned")

    def __init__(self):
        self.rows_failed: dict[int, list[int]] = {}
        self.cols_failed: dict[int, list[int]] = {}
        self.pruned = 0

    def rules_out(self, rows: int, cols: int) -> bool:
        """True when a recorded side makes the pair (rows, cols) infeasible."""
        failed_rows = self.rows_failed.get(cols, ())
        failed_cols = self.cols_failed.get(rows, ())
        return any(bad & rows == bad for bad in failed_rows) or any(
            bad & cols == bad for bad in failed_cols
        )


def fp1_check(
    game: Game, support: SupportPair, infeasible: InfeasibleSides | None = None
) -> tuple[bool, tuple[MixedStrategy, MixedStrategy, Fraction, Fraction] | None]:
    """Feasibility check for a support pair.

    Searches for mixed strategies with supports exactly `support.rows` and
    `support.cols` satisfying the equilibrium equalities and inequalities:
    in-support pure strategies earn the common payoff, out-of-support ones
    earn no more, and every support probability is at least a maximized
    positive epsilon.  The program splits into two independent one-sided
    checks (the p-block and q-block share only epsilon), so each side is
    solved separately and the verdict is their conjunction.  Each side is
    one best-response-region program; the common payoffs u1 and u2 are read
    off the solved witnesses.

    With an `infeasible` record (one per game), a pair that a recorded side
    rules out is rejected without an LP, and every side found infeasible is
    recorded.  The verdict is the same with or without the record.

    Returns (is_equilibrium, witness) with the witness padded by zeros at
    out-of-support indices.
    """
    rows, cols = support.rows, support.cols
    if rows[-1] >= game.m or cols[-1] >= game.n:
        raise ValueError("support indices out of range for this game")
    if infeasible is not None:
        row_bits, col_bits = _mask(rows), _mask(cols)
        if infeasible.rules_out(row_bits, col_bits):
            infeasible.pruned += 1
            return False, None
    ok_q, q, u1 = _best_response_region(
        game, 1, rows, cols, tuple(y for y in range(game.n) if y not in cols)
    )
    if not ok_q:
        if infeasible is not None:
            infeasible.rows_failed.setdefault(col_bits, []).append(row_bits)
        return False, None
    ok_p, p, u2 = _best_response_region(
        game, 2, cols, rows, tuple(x for x in range(game.m) if x not in rows)
    )
    if not ok_p:
        if infeasible is not None:
            infeasible.cols_failed.setdefault(row_bits, []).append(col_bits)
        return False, None
    return True, (MixedStrategy(1, p), MixedStrategy(2, q), u1, u2)
