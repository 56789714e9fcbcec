"""Exact-arithmetic linear programming kernel.

One two-phase tableau simplex over rationals with Bland's anti-cycling
rule: deterministic, tolerance-free, and terminating on degenerate
inputs; `solve_lp` is its public form for a general program.  On top of
it sit two programs on the cone of unnormalized opponent strategies
q >= 0 to which given strategies are best responses:

* the best-response-region program asks whether that cone has a point
  positive on a given set s1 and zero on a given set s0, against which
  every given responder is a best response.  Each rival row is a payoff
  difference with the first responder, so the common payoff is no
  variable; the pipelines read it off the witness.  The program has no
  objective, and every "no" is a phase-1 infeasibility.  It is the
  strict-dominance test (a strategy is strictly dominated exactly when it
  is never a best response, Pearce 1984), the one-sided relevancy
  certificate, the domain checks, the common-witness arcs and both sides
  of the support-pair feasibility check `fp1_check`;
* the max-support program reads the relevancy set R(x) off one optimum.
  R(x) is the union of the supports in the cone of x.  Writing q = t + s
  with 0 <= t <= 1 and s >= 0 and maximizing the sum of t rewards every
  coordinate the cone can make positive, and a sum of cone points is a
  cone point, so every optimum has t = 1 exactly on R(x) and q zero
  elsewhere (Freund, Roundy & Todd, 1985, on the always-active
  constraints of a linear system).

Some sides need no LP.  If a rival row o earns at least as much as a row
x on every column of C and strictly more on one, then o earns strictly
more than x against every q with support exactly C, so x is no best
response to any such q: the conditional dominance of Porter, Nudelman &
Shoham (2004).  A twin of x has no strict column, so it never rules x
out, and the test holds on degenerate games.  A side whose support is
one column y and that this test leaves holds with no LP: no rival earns
more than a responder at y, so every responder earns y's top payoff
against pure y, the only strategy with that support, and the witness is
the unit weight at y.  The same pairs bound R(x) from above (see
`InfeasibleSides.relevancy_bound`).  A side on two columns a and b is
one-dimensional: the mixtures t * e_a + (1 - t) * e_b against which the
responders tie and no rival earns more are an interval of t, which
`_mixture_interval` cuts in exact integers, one bound per row.  An empty
interval is a failed side, and one point is the program's own normalized
witness.  A side on
three or more columns with at least as many responders is decided by the
responders' tie rows (A_r - A_base) . q = 0 on C, the way Porter, Nudelman
& Shoham solve balanced supports: when they have rank |C| only q = 0 ties
them, and the side fails; at rank |C| - 1 every point of the program is a
positive multiple of one ray, so the side holds exactly when that ray is
positive and no rival earns more against it, and the normalized ray is
the program's normalized witness (`_tie_ray`).  A balanced side, with
exactly |C| responders on |C| <= 4 columns, has |C| - 1 tie rows, and
their signed maximal minors (the cross product on three columns, four
3 x 3 determinants on four) are that ray up to sign, or all zero when the
rank is lower; other tie systems are reduced by fraction-free
Gauss-Jordan.  On any support C, a side
whose uniform mixture already qualifies (the responders earn one payoff
sum on C and no rival a larger one) holds at the program's own witness:
phase 1 starts at its floor, the all-ones weight on C, where every row
that starts on an artificial has rhs 0, so each pivot is degenerate and
the program ends where it started (`_uniform_side`).

Strategy sets are bitmasks, bit i for strategy i, below the programs
that take index tuples.  A witness is the integer weight vector the
simplex ends with, zero-padded, returned as it is up to `fp1_check`.
One game's `InfeasibleSides` record is where a side question is asked,
and its one record test is the only code that rejects a support pair
without an LP: in `fp1_check` (a fresh record when none is given), which
counts its rejections in the record's `pruned`, and in the exact routes'
walk, which has it decide each row set's column sets and counts as
pruned every pair it drew and the record did not decide.  The record
knows nothing of the classes of a merged game; the walk weighs the pairs.
The test applies pure dominance, then the sides already found
infeasible: if no q with support exactly C makes every row of R a best
response, none does for any R' containing R, as each extra responder
turns a `<=` row into an `=` row.  A side it leaves is answered from
memory or in closed form where that fixes the witness
(`InfeasibleSides._region`), and by an LP only when the record has not
seen it and its closed forms leave the witness open.

The tableau is fraction-free (Bareiss 1968; Edmonds 1967; the integer
pivoting of Avis's ``lrs``): integer rows T over one denominator det > 0.
A pivot on p = T[r][c] replaces every other row by
(row * p - row[c] * T[r]) / det, exact because every entry is a minor of
the scaled input, and sets det = p; Bland's rule compares ratios by
cross-multiplying.  Every LP goes through one entry, `_solve_rows`, with
the tableau rows its caller writes: one common positive scale per LP
(one per row would reweight the phase-1 sum of artificials) and every
rhs >= 0, each caller negating its own rows.  No artificial column is
stored: an artificial is a basis label, and one that has left the basis
only has to stay at zero.  A zero objective has no phase 2; the values
are read once phase 1 has driven the artificials out.  The region
program writes its rows straight from one player's view (S, rows) in
`Game.int_payoffs`, the matrix scaled to ints by the lcm S of its
denominators: rival rows are differences of payoff vectors, the q >= 1
floor on s1 is shifted into the rhs, and the sum(q) >= 1 row is written
at S.  That is the rational program times S, which rescales only slacks
and artificials, so no pivot changes; nor on a positive multiple of a
view, such as elimination's slices.  `lp3_relevancy` and `solve_lp`
(bounds substituted, rows scaled by the lcm of their denominators) build
theirs with `_tableau`.  `Fraction`s are made only where a result is
read: `solve_lp`'s assignment and the public programs' witnesses are
`Fraction`s, but a pipeline entry keeps each side witness as its weights
w, divided by their gcd, and makes w / sum(w) when it is first read, once
per distinct witness in a run; the command line prints from the weights
and makes none.  `build_gr` reads the max-support program's weights
(`_max_support`) as a mask.  Public inputs and outputs are `Fraction`
(ints accepted).
"""

from __future__ import annotations

import enum
import math
from itertools import compress
from dataclasses import dataclass
from fractions import Fraction

from .games import Game, MixedStrategy

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

RELATIONS = ("<=", "=", ">=")
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


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


def _tableau(rows) -> tuple[list[list[int]], list[int]]:
    """The tableau and basis `_solve_rows` takes, from rows (coefficients,
    relation, rhs) in ints with rhs >= 0: a slack per inequality, +1 for
    "<=" (the row starts on it) and -1 for ">=", else an artificial id."""
    nslack = sum(1 for _, rel, _ in rows if rel != "=")
    slack = len(rows[0][0]) if rows else 0
    art = slack + nslack
    out, basis = [], []
    for coeffs, rel, rhs in rows:
        row = [*coeffs, *[0] * nslack, rhs]
        if rel != "=":
            row[slack] = 1 if rel == "<=" else -1
            slack += 1
        if rel == "<=":
            basis.append(slack - 1)
        else:
            basis.append(art)
            art += 1
        out.append(row)
    return out, basis


def _solve_rows(rows, basis, cost) -> tuple[LpStatus, list[int] | None, int]:
    """Maximize cost . x over ints x >= 0 on the tableau its caller wrote:
    each row is the len(cost) coefficients, one cell per slack and the rhs
    >= 0; basis[i] is row i's +1 slack or the artificial id width + k of
    the k-th row without one, a label with no column.  Returns (status,
    values, det); when OPTIMAL, x = values / det."""
    ncols = len(cost)
    width = len(rows[0]) - 1 if rows else ncols
    # The rational tableau is rows / det; the initial basis is a unit matrix.
    det = 1
    # Phase 1: maximize minus the sum of the artificials.  One that leaves
    # the basis stays at zero, so its column is never needed: the LP with
    # those fixed at zero has optimum zero exactly when this one is feasible.
    art_rows = [row for row, b in zip(rows, basis) if b >= width]
    if art_rows:
        row0 = [-sum(column) for column in zip(*art_rows)]
        _, det = _run_simplex(rows, row0, basis, det)
        if row0[-1] < 0:
            return LpStatus.INFEASIBLE, None, det
        # Pivot surviving artificials (at level zero) out of the basis.
        for i in range(len(rows) - 1, -1, -1):
            if basis[i] >= width:
                target = next((j for j in range(width) if rows[i][j]), -1)
                if target >= 0:
                    det = _pivot(rows, row0, basis, det, i, target)
                else:
                    del rows[i]
                    del basis[i]

    # Phase 2, for a non-zero objective only: reduced costs over the
    # current basis and denominator.
    if any(cost):
        cost = [*cost, *[0] * (width - ncols)]
        row0 = [-c * det for c in cost] + [0]
        for i, b in enumerate(basis):
            cb = cost[b]
            if cb:
                row0 = [a + cb * v for a, v in zip(row0, rows[i])]
        status, det = _run_simplex(rows, row0, basis, det)
        if status == "unbounded":
            return LpStatus.UNBOUNDED, None, det

    values = [0] * ncols
    for i, b in enumerate(basis):
        if b < ncols:
            values[b] = rows[i][-1]
    return LpStatus.OPTIMAL, values, det


def _times(v, scale: int) -> int:
    return v.numerator * (scale // v.denominator)


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

    def columns(coeffs):
        out = [0] * ncols
        for coef, (_, cols) in zip(coeffs, var_map):
            for col, sign in cols:
                out[col] = sign * coef
        return out

    raw_rows = []
    for con in lp.constraints:
        shift = sum(coef * offset for coef, (offset, _) in zip(con.coeffs, var_map))
        raw_rows.append((columns(con.coeffs), con.relation, con.rhs - shift))
    for col, cap in upper_rows:
        coeffs = [0] * ncols
        coeffs[col] = 1
        raw_rows.append((coeffs, "<=", cap))

    # One common scale for the whole LP makes every row integral; a row
    # with a negative rhs is negated, its relation flipped.
    scale = math.lcm(*(v.denominator for coeffs, _, rhs in raw_rows for v in (rhs, *coeffs)))
    rows = []
    for coeffs, rel, rhs in raw_rows:
        coeffs, rhs = [_times(v, scale) for v in coeffs], _times(rhs, scale)
        if rhs < 0:
            coeffs, rel, rhs = [-v for v in coeffs], _FLIPPED[rel], -rhs
        rows.append((coeffs, rel, rhs))
    cost = columns(lp.objective)
    cost_scale = math.lcm(*(v.denominator for v in cost))
    status, values, det = _solve_rows(*_tableau(rows), [_times(v, cost_scale) for v in cost])
    if status is not LpStatus.OPTIMAL:
        return LpOutcome(status)
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

def _opponent(player: int) -> int:
    return 2 if player == 1 else 1


def _check_index(game: Game, player: int, i: int, label: str) -> None:
    if not 0 <= i < game.strategy_count(player):
        raise ValueError(f"{label} index {i} out of range")


def lp1_dominance(game: Game, player: int, x: int) -> tuple[bool, MixedStrategy | None]:
    """Strict-dominance test for one pure strategy.

    A strategy is strictly dominated by a mixed strategy exactly when it is
    never a best response (Pearce 1984), so this is the best-response-region
    program for `x` alone with no support floor: `x` is dominated exactly
    when that program is infeasible.  When not dominated, returns an
    opponent mixed strategy to which `x` is a best response.
    """
    _check_index(game, player, x, "strategy")
    weights = _best_response_region(game.int_payoffs[player - 1], 1 << x, 0, 0)
    if weights is None:
        return True, None
    return False, MixedStrategy.from_weights(_opponent(player), weights)


def mod_lp1_relevancy(game: Game, player: int, x: int, y_star: int) -> bool:
    """One-sided relevancy certificate: True means y_star is certainly in
    R(x); False is inconclusive.

    Asks the dominance question with the opponent forbidden from playing
    `y_star`.  If `x` (not dominated in the full game) is then never a
    best response, every best-response witness needs `y_star` in its
    support.  With `y_star` the only opponent strategy, nothing is left to
    respond to and the answer is True.
    """
    _check_index(game, player, x, "strategy")
    _check_index(game, _opponent(player), y_star, "opponent strategy")
    return _best_response_region(game.int_payoffs[player - 1], 1 << x, 0, 1 << y_star) is None


def lp3_relevancy(game: Game, player: int, x: int) -> MixedStrategy | None:
    """Max-support best-response program: an opponent mixed strategy, to
    which `x` is a best response, whose support is exactly R(x).

    With q = t + s, 0 <= t <= 1 and s >= 0 over the cone C of q >= 0 with
    (A_other - A_x) . q <= 0, the optimum of sum(t) is |R(x)| (one cone
    point per member attains it, and t_y <= q_y), so every optimum has
    t_y = 1 on R(x) and q_y = 0 off it, and q / sum(q) is the witness.
    Returns None exactly when C is {0}: `x` is strictly dominated.
    """
    _check_index(game, player, x, "strategy")
    weights = _max_support(game.int_payoffs[player - 1], x)
    if weights is None:
        return None
    return MixedStrategy.from_weights(_opponent(player), weights)


def _max_support(view, x: int) -> list[int] | None:
    """`lp3_relevancy`'s witness as the integer weights t + s over the
    opponent strategies of the view (S, rows), whose non-zero entries are
    R(x); None when `x` is strictly dominated."""
    scale, vectors = view
    own = vectors[x]
    n = len(own)
    # Columns: t over the opponent strategies, then s; q = t + s, so each
    # rival row repeats its coefficients.  The t <= 1 rows follow, at scale.
    rows = [
        (2 * [r - v for r, v in zip(rival, own)], "<=", 0)
        for other, rival in enumerate(vectors)
        if other != x
    ]
    rows += [([0] * y + [scale] + [0] * (2 * n - y - 1), "<=", scale) for y in range(n)]
    status, values, _ = _solve_rows(*_tableau(rows), [1] * n + [0] * n)
    if status is not LpStatus.OPTIMAL:  # pragma: no cover - q = 0 is feasible, sum t <= n
        raise RuntimeError(f"max-support program ended {status}")
    if not any(values[:n]):
        return None
    return [t + s for t, s in zip(values[:n], values[n:])]


def _best_response_region(view, responders: int, s1: int, s0: int) -> tuple[int, ...] | None:
    """Is there an opponent mixed strategy, positive on s1 and zero on s0,
    to which every responder is simultaneously a best response?  All three
    sets are bitmasks over `view`, one player's (S, rows) of `int_payoffs`
    or that view times a positive factor.

    The variables are an unnormalized q >= 0 over the strategies outside
    s0.  Each row compares a rival with the base responder, the lowest one:
    ``(A_other - A_base) . q`` is ``= 0`` for the other responders and
    ``<= 0`` for the rest.  A cone point positive on s1 scales to one with
    q_j >= 1 there (a column shift into the rhs), and when s1 is empty to
    one with sum(q) >= 1 (one row).  Returns None for no, else the witness
    as integer weights, det times phase 1's point, zero-padded over every
    opponent strategy, so the strategy is weights / sum(weights).
    """
    if s1 & s0:
        raise ValueError("s1 and s0 must be disjoint")
    scale, vectors = view
    opp_count = len(vectors[0])
    keep = [y for y in range(opp_count) if not s0 >> y & 1]
    if not keep:
        return None
    first = (responders & -responders).bit_length() - 1
    base = [vectors[first][y] for y in keep]
    floor = [s1 >> y & 1 for y in keep]
    ncols = len(keep)

    # The tableau, written here: columns q - floor >= 0, then one slack per
    # "<=" row and one for the sum(q) >= 1 row, rows at the matrix's scale.
    # A row whose rhs is negative is negated, so a "<=" slack turns surplus
    # and the row starts on an artificial, as an "=" row does.
    nslack = len(vectors) - responders.bit_count() + (not s1)
    pad = [0] * nslack
    slack, art = ncols, ncols + nslack
    rows, basis = [], []
    for other, rival in enumerate(vectors):
        if other == first:
            continue
        coeffs = [rival[y] - v for y, v in zip(keep, base)]
        rhs = -sum(compress(coeffs, floor))
        if rhs < 0:
            coeffs = [-c for c in coeffs]
        row = coeffs + pad
        row.append(abs(rhs))
        if responders >> other & 1 or rhs < 0:
            basis.append(art)
            art += 1
        else:
            basis.append(slack)
        if not responders >> other & 1:
            row[slack] = -1 if rhs < 0 else 1
            slack += 1
        rows.append(row)
    if not s1:
        row = [scale] * ncols + pad
        row[slack] = -1
        row.append(scale)
        rows.append(row)
        basis.append(art)
    status, values, det = _solve_rows(rows, basis, [0] * ncols)
    if status is not LpStatus.OPTIMAL:
        return None
    weights = [0] * opp_count
    for y, v in zip(keep, values):
        weights[y] = v + det if s1 >> y & 1 else v
    return tuple(weights)


def _mixture_interval(vectors, responders: int, a: int, b: int, strict: bool = False):
    """The mixtures t * e_a + (1 - t) * e_b, 0 < t < 1, of two opponent
    columns against which the rows of `vectors` in the mask `responders`
    earn one payoff and every other row earns no more (with `strict`,
    less).  `vectors` is a sequence of payoff rows over opponent columns.

    A row's lead over the lowest responder is the line d_b + (d_a - d_b) t,
    which must be zero for a responder and at most zero (below zero) for
    any other row, so each row cuts the open interval (0, 1) at most once
    and the set is an interval, found in exact integers with no LP.
    Returns None when it is empty, else its ends (lo, hi), each a triple
    (num, den, closed) with den > 0: the end is num / den, and `closed`
    when that mixture qualifies itself."""
    first = (responders & -responders).bit_length() - 1
    base_a, base_b = vectors[first][a], vectors[first][b]
    lo_n, lo_d, lo_closed = 0, 1, False
    hi_n, hi_d, hi_closed = 1, 1, False
    for other, row in enumerate(vectors):
        if other == first:
            continue
        lead_b = row[b] - base_b
        slope = row[a] - base_a - lead_b
        tie = responders >> other & 1
        if not slope:
            if lead_b > 0 or (lead_b < 0 if tie else strict and not lead_b):
                return None
            continue
        # The lead is zero at t = num / den and grows with t when slope > 0.
        num, den = (-lead_b, slope) if slope > 0 else (lead_b, -slope)
        closed = tie or not strict
        if slope > 0 or tie:
            cmp = num * hi_d - hi_n * den
            if cmp < 0:
                hi_n, hi_d, hi_closed = num, den, closed
            elif not cmp:
                hi_closed = hi_closed and closed
        if slope < 0 or tie:
            cmp = num * lo_d - lo_n * den
            if cmp > 0:
                lo_n, lo_d, lo_closed = num, den, closed
            elif not cmp:
                lo_closed = lo_closed and closed
    cmp = lo_n * hi_d - hi_n * lo_d
    if cmp > 0 or (not cmp and not (lo_closed and hi_closed)):
        return None
    return (lo_n, lo_d, lo_closed), (hi_n, hi_d, hi_closed)


def _two_column_side(vectors, responders: int, support: int, opp_count: int):
    """The region program's answer on a support of exactly two columns,
    where `_mixture_interval` decides it: None when no mixture qualifies,
    the witness weights when the interval is one mixture (a tie pins t, so
    the program's normalized point is that mixture), else () to leave the
    question to `_uniform_side` and the LP."""
    b = support.bit_length() - 1
    a = (support ^ 1 << b).bit_length() - 1
    ends = _mixture_interval(vectors, responders, a, b)
    if ends is None:
        return None
    (lo_n, lo_d, _), (hi_n, hi_d, _) = ends
    if lo_n * hi_d != hi_n * lo_d:
        return ()
    common = math.gcd(lo_n, lo_d)
    weights = [0] * opp_count
    weights[a], weights[b] = lo_n // common, (lo_d - lo_n) // common
    return tuple(weights)


def _uniform_side(vectors, responders: int, support: int, opp_count: int):
    """The region program's witness, the all-ones weight on `support`, when
    the uniform mixture on it qualifies: every responder earns one payoff
    sum on the support and no other row a larger one.  Else () to leave
    the question to the LP.

    Phase 1 starts at q = 1 on the support, its floor.  Each rival row's
    rhs is then the base responder's sum minus the rival's: 0 on a
    responder's row, the only rows that start on an artificial, and at
    least 0 on the others.  So every pivot is degenerate, and the program
    ends where it started."""
    floor = [support >> y & 1 for y in range(opp_count)]
    sums = [sum(compress(row, floor)) for row in vectors]
    top = sums[(responders & -responders).bit_length() - 1]
    for other, total in enumerate(sums):
        if total > top or total < top and responders >> other & 1:
            return ()
    return tuple(floor)


def _tie_ray(vectors, responders: int, support: int, opp_count: int):
    """The region program's answer on a support C of three or more columns
    that has at least |C| responders, where their ties decide it: None when
    no point qualifies, the witness weights when one ray does, else () to
    leave the question to the LP.

    The tie rows (A_r - A_base) . q = 0 of the responders, on C, decide it
    by their rank.  Rank |C| leaves only q = 0, so the side is
    infeasible.  Rank |C| - 1 leaves one ray, and every point of the
    program is a positive multiple of it: the side holds exactly when the
    ray is positive on C and no other row earns more against it, and the
    normalized ray is the LP's normalized witness.  A lower rank leaves a
    wider cone, whose witness only the LP fixes.  A balanced side, |C| - 1
    tie rows on |C| <= 4 columns, takes its ray as the signed maximal
    minors of the rows (`_minors_ray`), which are all zero exactly when the
    rank is below |C| - 1; any other system is reduced by fraction-free
    Gauss-Jordan (`_eliminated_ray`)."""
    cols = [y for y in range(opp_count) if support >> y & 1]
    first = (responders & -responders).bit_length() - 1
    base = [vectors[first][y] for y in cols]
    rows = [
        [row[y] - v for y, v in zip(cols, base)]
        for other, row in enumerate(vectors)
        if other != first and responders >> other & 1
    ]
    if len(rows) == len(cols) - 1 <= 3:
        ray = _minors_ray(rows)
        if not any(ray):
            return ()
    else:
        ray = _eliminated_ray(rows, len(cols))
        if not ray:  # None or ()
            return ray
    # The ray is determined up to sign; it qualifies only if one sign makes
    # it positive on C.
    if ray[0] < 0:
        ray = [-v for v in ray]
    if min(ray) <= 0:
        return None
    top = sum(v * w for v, w in zip(base, ray))
    for other, row in enumerate(vectors):
        if not responders >> other & 1 and sum(row[y] * w for y, w in zip(cols, ray)) > top:
            return None
    common = math.gcd(*ray)
    weights = [0] * opp_count
    for y, w in zip(cols, ray):
        weights[y] = w // common
    return tuple(weights)


def _minors_ray(rows) -> list[int]:
    """The signed maximal minors of k - 1 rows on k = 3 or 4 columns: entry
    j is (-1)^j times the determinant without column j, a vector that the
    rows annul (the cross product for k = 3).  All zero exactly when the
    rows have rank below k - 1, else it spans their null space."""
    if len(rows) == 2:
        (a0, a1, a2), (b0, b1, b2) = rows
        return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
    # The 2 x 2 minors of the last two rows, then each 3 x 3 minor by
    # expansion along the first row.
    m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
    m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
    return [
        a1 * m23 - a2 * m13 + a3 * m12,
        a2 * m03 - a0 * m23 - a3 * m02,
        a0 * m13 - a1 * m03 + a3 * m01,
        a1 * m02 - a0 * m12 - a2 * m01,
    ]


def _eliminated_ray(rows, ncols: int):
    """The null space of integer `rows` on `ncols` columns by fraction-free
    Gauss-Jordan (the simplex's `_eliminate`): None at full column rank, ()
    when it has two or more dimensions, else a spanning ray as a list of
    ints, positive at its one free column.  Reduces `rows` in place."""
    det, rank, free = 1, 0, -1
    for c in range(ncols):
        for r in range(rank, len(rows)):
            if rows[r][c]:
                break
        else:
            if free >= 0:
                return ()
            free = c
            continue
        prow, rows[r] = rows[r], rows[rank]
        p = prow[c]
        if p < 0:
            prow, p = [-v for v in prow], -p
        rows[rank] = prow
        for i, row in enumerate(rows):
            if i != rank:
                rows[i] = _eliminate(row, prow, p, det, c)
        det = p
        rank += 1
    if free < 0:
        return None
    # Pivot row k reads det * q_c + rows[k][free] * q_free = 0 for its column c.
    ray = [-row[free] for row in rows[:rank]]
    ray.insert(free, det)
    return ray


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

    This is the best-response-region program for `x`: the witness is the
    feasible point phase 1 finds, normalized, not the optimum of any
    objective.  With s0 the complement of s1 this decides exactly whether
    s1 belongs to the domain of `x`.
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
    for x in xs:
        _check_index(game, player, x, "strategy")
    for y in (*s1, *s0):
        _check_index(game, _opponent(player), y, "opponent strategy")
    weights = _best_response_region(game.int_payoffs[player - 1], _mask(xs), _mask(s1), _mask(s0))
    if weights is None:
        return False, None
    return True, MixedStrategy.from_weights(_opponent(player), weights)


def _mask(indices: tuple[int, ...]) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def _rival_masks(vectors) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per strategy x, for every rival that earns more than x somewhere, the
    opponent strategies where it earns at least as much and where it earns
    more, as the bitmask pair (at_least, more).  A twin of x gets no pair,
    and neither does any rival of an x that earns every column maximum, so
    that x gets an empty tuple with no scan of its rivals.  The pairs are
    found once per distinct payoff vector, against the distinct vectors
    only: a twin rival would repeat a pair, and twin strategies share
    theirs, so many identical rows cost as much as one."""
    top = tuple(map(max, zip(*vectors)))
    distinct = tuple(dict.fromkeys(vectors))
    found = {}
    for own in distinct:
        pairs = []
        if own != top:
            for rival in distinct:
                at_least = more = 0
                bit = 1
                for r, v in zip(rival, own):
                    if r > v:
                        at_least |= bit
                        more |= bit
                    elif r == v:
                        at_least |= bit
                    bit <<= 1
                if more:
                    pairs.append((at_least, more))
        found[own] = tuple(pairs)
    return tuple(map(found.__getitem__, vectors))


class InfeasibleSides:
    """One game's record of side questions: is there an opponent strategy
    with support exactly S to which every strategy of a responder set is a
    best response?

    The domains, the common-witness arcs, G_R's rows and `fp1_check` all
    ask it (see the module docstring for the order of its answers);
    `fp1_check`'s sides of (R, C) are the arc questions R -> C and C -> R.
    A side on one column that pure dominance leaves is answered yes with
    no LP and nothing kept; one on two columns, or on three or more with
    as many responders, is answered in closed form where that fixes the
    witness (`_two_column_side`, `_tie_ray`), as is any side whose uniform
    mixture qualifies (`_uniform_side`), and kept as an LP's answer is.  A
    feasible answer is reused for the same question only: a subset of a
    feasible responder set is feasible too, but its own LP may find another
    witness.  One record test (`_ruled_out`), pure dominance or a recorded
    failed side, is the only code that rules a side out without an LP, for
    `check_side`, `fp1_check` and `feasible_columns`.  `pruned` counts the
    pairs `fp1_check` rejects by it; the exact routes' walk counts its own
    (see `equilibria`).
    """

    __slots__ = ("game", "_ends", "_masks", "_dominated", "_failed", "_feasible", "pruned")

    def __init__(self, game: Game):
        self.game = game
        self._ends = ((1 << game.m, 1 << game.n), (1 << game.n, 1 << game.m))
        self._masks = tuple(_rival_masks(vectors) for _, vectors in game.int_payoffs)
        self._dominated: tuple[dict[int, int], dict[int, int]] = ({}, {})
        # Per player: opposite support bits -> the infeasible responder bits.
        self._failed: tuple[dict[int, list[int]], dict[int, list[int]]] = ({}, {})
        self._feasible: dict[tuple[int, int, int], tuple] = {}
        self.pruned = 0

    def require(self, game: Game) -> None:
        """Raise ValueError unless this record was made for `game`."""
        if self.game is not game and self.game != game:
            raise ValueError("the infeasible-side record was made for another game")

    def _responders_dominated(self, side: int, fixed: int) -> int:
        cache = self._dominated[side]
        bits = cache.get(fixed)
        if bits is None:
            bits = 0
            for x, masks in enumerate(self._masks[side]):
                for at_least, more in masks:
                    if fixed & more and fixed & at_least == fixed:
                        bits |= 1 << x
                        break
            cache[fixed] = bits
        return bits

    def _ruled_out(self, side: int, responders: int, support: int, dominated: int) -> bool:
        """The record test: is the side of `responders` (a mask of player
        side + 1's strategies) on the opponent `support` ruled out with no
        LP?  Either pure dominance does it, `dominated` being the responders
        a pure rival beats on `support`, or a recorded failed responder set
        on `support` lies inside `responders`."""
        if responders & dominated:
            return True
        for bad in self._failed[side].get(support, ()):
            if bad & responders == bad:
                return True
        return False

    def feasible_columns(self, rows: int, cols: int) -> list[tuple[int, tuple | None]]:
        """Decide (rows, C) for every non-empty C in `cols` that the record
        test leaves, in increasing mask order, pure dominance of the column
        side filtering `cols` once.  Counts nothing: returns [(C, witness or
        None)] of the pairs it decides, so the others are the rejections."""
        free = cols & ~self._responders_dominated(1, rows)
        dominated, known, ruled_out = self._responders_dominated, self._dominated[0], self._ruled_out
        found = []
        sub = -free & free
        while sub:
            blocked = known.get(sub)
            if blocked is None:
                blocked = dominated(0, sub)
            # The column side's pure dominance is already out of `free`.
            if not (ruled_out(0, rows, sub, blocked) or ruled_out(1, sub, rows, 0)):
                found.append((sub, self._decide(rows, sub)))
            sub = sub - free & free
        return found

    def _decide(self, rows: int, cols: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """The pair (rows, cols) past the record test: its q-side's then its
        p-side's `_region`, and (p, q) if both hold, else None."""
        q = self._region(1, rows, cols)
        p = None if q is None else self._region(2, cols, rows)
        return None if p is None else (p, q)

    def relevancy_bound(self, player: int, x: int) -> int:
        """A superset of R(x) by pure comparisons, as an opponent mask.

        Start from every opponent strategy and drop, while one applies, the
        strategies where a rival earns more than `x` if that rival earns at
        least as much on all that is left.  A best-response witness q
        supported on what is left has (A_rival - A_x) . q >= 0 and <= 0, so
        q is zero wherever the rival is strictly better."""
        bound = self._ends[player - 1][1] - 1
        masks = self._masks[player - 1][x]
        shrunk = True
        while shrunk:
            shrunk = False
            for at_least, more in masks:
                if bound & more and bound & at_least == bound:
                    bound &= ~more
                    shrunk = True
        return bound

    def _region(self, player: int, responders: int, support: int) -> tuple[int, ...] | None:
        """The region program on the exact support, past the cheap tests:
        remembered feasible weights, else the program's answer, which is
        kept.  A single column y needs no program: no pure rival beats a
        responder there, so all earn its top payoff against pure y.  On two
        columns `_two_column_side` answers in closed form unless the
        feasible interval is wider than a point.  On three or more columns
        with at least as many responders `_tie_ray` answers unless the tie
        rows have rank below |C| - 1: at rank |C| - 1 the program's points
        are the multiples of one ray, so its witness is the LP's.  A side
        these leave open, or wider with fewer responders, is answered by
        `_uniform_side` when its uniform mixture qualifies, and otherwise
        costs an LP."""
        opp_count = self.game.n if player == 1 else self.game.m
        if not support & support - 1:
            return tuple(support >> y & 1 for y in range(opp_count))
        key = (player, responders, support)
        weights = self._feasible.get(key)
        if weights is None:
            view = self.game.int_payoffs[player - 1]
            weights = ()
            if support.bit_count() == 2:
                weights = _two_column_side(view[1], responders, support, opp_count)
            elif responders.bit_count() >= support.bit_count():
                weights = _tie_ray(view[1], responders, support, opp_count)
            if weights == ():
                weights = _uniform_side(view[1], responders, support, opp_count) or (
                    _best_response_region(view, responders, support, ~support)
                )
            if weights is None:
                self._failed[player - 1].setdefault(support, []).append(responders)
            else:
                self._feasible[key] = weights
        return weights

    def check_side(self, player: int, responders: int, support: int) -> tuple[int, ...] | None:
        """Is there an opponent mixed strategy with support exactly `support`
        to which every strategy in `responders` is a best response?  Both are
        bitmasks.  Returns None for no; for yes, the integer weights w of the
        witness, zero-padded, whose strategy w / sum(w) is the one
        `lp2_joint_domain_check` finds for the same question.  A support of
        one column costs no LP: it is refused exactly when a rival earns
        more than a responder there, and otherwise w is the unit weight on
        it.  A support of two columns costs none when its interval of
        mixtures is empty or one point (`_two_column_side`), nor does a wider
        one with at least as many responders whose tie rows have rank |C| or
        |C| - 1 (`_tie_ray`): no point, or one ray and so the LP's normalized
        witness.  Nor does any support whose uniform mixture qualifies
        (`_uniform_side`): the LP ends at that point.  Raises ValueError
        unless `player` is 1 or 2 and both masks are non-empty and within the
        game."""
        if player not in (1, 2):
            raise ValueError(f"player must be 1 or 2, got {player}")
        side = player - 1
        end_r, end_s = self._ends[side]  # one past the largest valid mask
        if not (0 < responders < end_r and 0 < support < end_s):
            raise ValueError("masks must be non-empty and within the game")
        if self._ruled_out(side, responders, support, self._responders_dominated(side, support)):
            return None
        return self._region(player, responders, support)


def _record(game: Game, infeasible: InfeasibleSides | None) -> InfeasibleSides:
    """The given record, checked against `game`, or a fresh one."""
    if infeasible is None:
        return InfeasibleSides(game)
    infeasible.require(game)
    return infeasible


def fp1_check(
    game: Game, rows: int, cols: int, infeasible: InfeasibleSides | None = None
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Feasibility check for the support pair of the row mask `rows` and the
    column mask `cols`: mixed strategies with exactly these supports whose
    in-support pure strategies earn the common payoff and whose others earn
    no more.  The p-block and the q-block share no variable, so each side is
    one best-response-region program and the verdict is their conjunction.

    Both sides are asked of the record `infeasible` (made for this game; a
    fresh one when None): the pair is rejected without an LP, and counted
    in its `pruned`, when the record test rules out either side, and is
    otherwise `InfeasibleSides._decide`d, as the exact routes' walk decides
    it.  The verdict and witness are the same whatever the record holds.

    Raises ValueError unless both masks are non-empty and within the game.
    Returns (False, None), or (True, (p_weights, q_weights)), each witness
    as its side's zero-padded integer weights: p = p_weights / sum(p_weights)
    and likewise q.
    """
    if rows <= 0 or cols <= 0 or rows >> game.m or cols >> game.n:
        raise ValueError("supports must be non-empty masks within the game")
    record = _record(game, infeasible)
    dominated, ruled_out = record._responders_dominated, record._ruled_out
    if ruled_out(0, rows, cols, dominated(0, cols)) or ruled_out(1, cols, rows, dominated(1, rows)):
        record.pruned += 1
        return False, None
    witness = record._decide(rows, cols)
    return witness is not None, witness
