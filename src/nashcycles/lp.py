"""Exact-arithmetic linear programming kernel.

`solve_lp` is a two-phase tableau simplex over rationals with Bland's
anti-cycling pivot rule: deterministic, tolerance-free, and terminating
on degenerate inputs.  On top of it sit two programs.  Both work on the
cone of unnormalized opponent strategies q >= 0 to which given strategies
are best responses:

* the best-response-region program asks whether that cone has a point
  positive on a given set s1 and zero on a given set s0, against which
  every given responder is a best response.  Each rival row is a payoff
  difference with the first responder, so the common payoff is no
  variable; it is read off the witness after the solve.  The program has
  no objective, and every "no" is a phase-1 infeasibility.  It is the
  strict-dominance test (a strategy is strictly dominated exactly when it
  is never a best response, Pearce 1984), the one-sided relevancy
  certificate, the domain checks, the common-witness arcs and both sides
  of the support-pair feasibility check `fp1_check`;
* the max-support program reads the relevancy set R(x) off one optimum.
  R(x) is the union of the supports in the cone of x.  Writing q = t + s
  with 0 <= t <= 1 and s >= 0 and maximizing the sum of t rewards every
  coordinate the cone can make positive, and a sum of cone points is a
  cone point, so every optimum has t = 1 exactly on R(x) and q zero
  elsewhere (the idea of Freund, Roundy & Todd, 1985, for the
  always-active constraints of a linear system).

Some sides need no LP.  If a rival row o earns at least as much as a row
x on every column of C and strictly more on one, then o earns strictly
more than x against every q with support exactly C, because q weights
that column; so x is no best response to any such q.  This is the
conditional dominance of Porter, Nudelman & Shoham (2004); exact supports
let a weak dominator with one strict column decide it.  A twin of x has no
strict column, so it never rules x out, and the test holds on degenerate
games.

One game's `InfeasibleSides` record is the place where such a side
question is asked: `compute_domain`, the common-witness arcs and
`fp1_check` all ask it.  It applies pure dominance first, then the sides
already found infeasible.  Each side is monotone in its responders: if no
q with support exactly C makes every row of R a best response, then none
does for any R' containing R, because each extra responder turns a `<=`
row into an `=` row and only shrinks the region.  It then reuses the
answer to a feasible side it has solved before, witness included, and
solves an LP only for a side it has not seen.  Without a record,
`fp1_check` solves both sides afresh.

The tableau is fraction-free (Bareiss 1968; Edmonds 1967; the integer
pivoting of Avis's ``lrs``).  Every LP goes through one integer entry
whose rows carry one common positive scale per LP (one scale per row
would reweight the phase-1 sum of artificials).  The game programs build
their rows from `Game.int_payoffs`, each payoff matrix scaled to ints once
by the lcm S of its denominators: rival rows are differences of scaled
payoff vectors, the q >= 1 floor on s1 is shifted into the rhs, and the
sum(q) >= 1 and t <= 1 rows are written at S.  Such a program is the
rational one times S, which only rescales slacks and artificials: no
sign, ratio order or value of x changes, so no pivot does.  `solve_lp`
substitutes the bounds of a `LinearProgram`, scales its rows by the lcm
of their denominators and its costs by theirs, and calls the same entry.
The solver keeps integer rows T and one denominator det > 0, so that
T / det is the rational tableau.  A pivot on p = T[r][c] replaces every
other row by (row * p - row[c] * T[r]) / det, an exact division because
every entry is a minor of the scaled input, and then sets det = p.
Bland's rule reads signs and compares ratios by cross-multiplying.
`Fraction`s are made once, from the final basic values; public inputs
and outputs are `Fraction` (ints are accepted).
"""

from __future__ import annotations

import enum
import functools
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


def _solve_rows(rows, cost) -> tuple[LpStatus, list[int] | None, int]:
    """Maximize cost . x over ints x >= 0 subject to `rows`, each
    (coefficients, relation, rhs) in ints.  Returns (status, values, det);
    when OPTIMAL, x = values / det."""
    ncols = len(cost)
    normalized = [
        ([-v for v in coeffs], _FLIPPED[rel], -rhs) if rhs < 0 else (coeffs, rel, rhs)
        for coeffs, rel, rhs in rows
    ]
    nslack = sum(1 for _, rel, _ in normalized if rel != "=")
    nart = sum(1 for _, rel, _ in normalized if rel != "<=")
    slack_at = ncols
    art_at = art_start = ncols + nslack
    width = art_start + nart

    rows = []
    basis: list[int] = []
    for coeffs, rel, rhs in normalized:
        full = [*coeffs, *[0] * (nslack + nart), rhs]
        if rel != "=":
            full[slack_at] = 1 if rel == "<=" else -1
            slack_at += 1
        if rel == "<=":
            basis.append(slack_at - 1)
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
            return LpStatus.INFEASIBLE, None, det
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

    # Phase 2: reduced costs for the real objective over the current basis
    # and denominator.
    cost = [*cost, *[0] * (width - ncols)]
    row0 = [-c * det for c in cost] + [0]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            row0 = [a + cb * v for a, v in zip(row0, rows[i])]
    status, det = _run_simplex(rows, row0, basis, det)
    if status == "unbounded":
        return LpStatus.UNBOUNDED, None, det

    values = [0] * width
    for i, b in enumerate(basis):
        values[b] = rows[i][-1]
    return LpStatus.OPTIMAL, values[:ncols], det


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

    # One common scale for the whole LP makes every row integral.
    scale = math.lcm(*(v.denominator for coeffs, _, rhs in raw_rows for v in (rhs, *coeffs)))
    rows = [
        ([_times(v, scale) for v in coeffs], rel, _times(rhs, scale))
        for coeffs, rel, rhs in raw_rows
    ]
    cost = columns(lp.objective)
    cost_scale = math.lcm(*(v.denominator for v in cost))
    status, values, det = _solve_rows(rows, [_times(v, cost_scale) for v in cost])
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
    member, padded, _ = _best_response_region(game, player, (x,), (), ())
    if not member:
        return True, None
    return False, MixedStrategy(_opponent(player), padded)


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
    member, _, _ = _best_response_region(game, player, (x,), (), (y_star,))
    return not member


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
    _check_index(game, player, x, "strategy")
    scale, vectors = game.int_payoffs[player - 1]
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
    status, values, _ = _solve_rows(rows, [1] * n + [0] * n)
    if status is not LpStatus.OPTIMAL:  # pragma: no cover - q = 0 is feasible, sum t <= n
        raise RuntimeError(f"max-support program ended {status}")
    if not any(values[:n]):
        return None
    q = [t + s for t, s in zip(values[:n], values[n:])]
    total = sum(q)
    return MixedStrategy(_opponent(player), tuple(Fraction(v, total) for v in q))


def _best_response_region(
    game: Game,
    player: int,
    responders: tuple[int, ...],
    s1: tuple[int, ...],
    s0: tuple[int, ...],
) -> tuple[bool, tuple[Fraction, ...] | None, Fraction | None]:
    """Is there an opponent mixed strategy, positive on s1 and zero on s0,
    to which every responder is simultaneously a best response?

    The variables are an unnormalized q >= 0 over the strategies outside
    s0.  Every row compares a rival with the base responder
    ``responders[0]``: ``(A_other - A_base) . q`` is ``= 0`` for the other
    responders and ``<= 0`` for the remaining strategies.  These q form a
    cone, so a point positive on s1 scales to one with q_j >= 1 there (a
    column shift into the rhs, not a row), and when s1 is empty any
    non-zero point scales to one with sum(q) >= 1 (one row).  The
    objective is zero: the answer is yes exactly when phase 1 finds a
    feasible point.  Returns (member, padded q / sum(q), u), where u is
    the base responder's payoff against that witness.
    """
    opp_count = game.strategy_count(_opponent(player))
    s0_set = frozenset(s0)
    s1_set = frozenset(s1)
    if s1_set & s0_set:
        raise ValueError("s1 and s0 must be disjoint")
    keep = [y for y in range(opp_count) if y not in s0_set]
    if not keep:
        return False, None, None
    scale, vectors = game.int_payoffs[player - 1]
    base = [vectors[responders[0]][y] for y in keep]
    floor = [y in s1_set for y in keep]

    # Columns: q - floor >= 0, rows at the matrix's scale.
    rows = []
    for other, rival in enumerate(vectors):
        if other != responders[0]:
            coeffs = [rival[y] - v for y, v in zip(keep, base)]
            rhs = -sum(c for c, f in zip(coeffs, floor) if f)
            rows.append((coeffs, "=" if other in responders else "<=", rhs))
    if not s1_set:
        rows.append(([scale] * len(keep), ">=", scale))
    status, values, det = _solve_rows(rows, [0] * len(keep))
    if status is not LpStatus.OPTIMAL:
        return False, None, None
    q = [v + det if f else v for v, f in zip(values, floor)]
    total = sum(q)
    padded = [_ZERO] * opp_count
    for y, v in zip(keep, q):
        padded[y] = Fraction(v, total)
    u = Fraction(sum(c * v for c, v in zip(base, q)), scale * total)
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
    member, padded, _ = _best_response_region(game, player, tuple(xs), tuple(s1), tuple(s0))
    if not member:
        return False, None
    return True, MixedStrategy(_opponent(player), padded)


def _mask(indices: tuple[int, ...]) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def _rival_masks(vectors, x: int) -> tuple[tuple[int, int], ...]:
    """For every rival that earns more than `x` somewhere, the opponent
    strategies where it earns at least as much and where it earns more, as
    the bitmask pair (at_least, more).  A twin of `x` gets no pair."""
    own = vectors[x]
    out = []
    for rival in vectors:
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
            out.append((at_least, more))
    return tuple(out)


def _exact_region(game: Game, player: int, responders: tuple[int, ...], support: tuple[int, ...]):
    """The best-response-region program with opposite support exactly `support`."""
    count = game.strategy_count(_opponent(player))
    return _best_response_region(
        game, player, responders, support, tuple(y for y in range(count) if y not in support)
    )


class InfeasibleSides:
    """One game's record of side questions: is there an opponent strategy
    with support exactly S to which every strategy of a responder set is a
    best response?

    The domains, the common-witness arcs and `fp1_check` all ask it
    (see the module docstring for the order of its answers); `fp1_check`'s
    sides of (R, C) are the arc questions R -> C and C -> R.  A feasible
    answer is reused for the same question only: a subset of a feasible
    responder set is feasible too, but its own LP may find another witness.
    `pruned` counts the `fp1_check` candidates rejected without an LP.
    """

    __slots__ = ("game", "_masks", "_dominated", "_failed", "_feasible", "pruned")

    def __init__(self, game: Game):
        self.game = game
        self._masks = tuple(
            tuple(_rival_masks(vectors, x) for x in range(len(vectors)))
            for _, vectors in game.int_payoffs
        )
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

    def dominated_rows(self, cols: int) -> int:
        """Bitmask of the rows a pure rival row dominates on the columns `cols`."""
        return self._responders_dominated(0, cols)

    def dominated_cols(self, rows: int) -> int:
        """Bitmask of the columns a pure rival column dominates on the rows `rows`."""
        return self._responders_dominated(1, rows)

    def _failed_inside(self, side: int, fixed: int, responders: int) -> bool:
        return any(bad & responders == bad for bad in self._failed[side].get(fixed, ()))

    def rules_out(self, rows: int, cols: int) -> bool:
        """True when pure dominance or a recorded side makes the pair
        (rows, cols) infeasible."""
        if rows & self._responders_dominated(0, cols) or cols & self._responders_dominated(1, rows):
            return True
        return self._failed_inside(0, cols, rows) or self._failed_inside(1, rows, cols)

    def _region(self, player: int, responders: tuple[int, ...], support: tuple[int, ...]):
        """The region program on the exact support, past the cheap tests:
        a remembered feasible answer, else an LP whose answer is kept."""
        key = (player, _mask(responders), _mask(support))
        found = self._feasible.get(key)
        if found is None:
            found = _exact_region(self.game, player, responders, support)
            if found[0]:
                self._feasible[key] = found
            else:
                self._failed[player - 1].setdefault(key[2], []).append(key[1])
        return found

    def check_side(
        self, player: int, responders: tuple[int, ...], support: tuple[int, ...]
    ) -> tuple[bool, tuple[Fraction, ...] | None]:
        """Is there an opponent mixed strategy with support exactly `support`
        to which every strategy in `responders` is a best response?  Both are
        sorted index tuples.  Returns the verdict and, when yes, the
        probabilities of the witness `lp2_joint_domain_check` finds for the
        same question."""
        side, bits, fixed = player - 1, _mask(responders), _mask(support)
        if bits & self._responders_dominated(side, fixed) or self._failed_inside(side, fixed, bits):
            return False, None
        return self._region(player, responders, support)[:2]


def fp1_check(
    game: Game, support: SupportPair, infeasible: InfeasibleSides | None = None
) -> tuple[bool, tuple[MixedStrategy, MixedStrategy, Fraction, Fraction] | None]:
    """Feasibility check for a support pair.

    Searches for mixed strategies with supports exactly `support.rows` and
    `support.cols` satisfying the equilibrium equalities and inequalities:
    in-support pure strategies earn the common payoff, out-of-support ones
    earn no more, and every support probability is positive.  The p-block
    and the q-block share no variable, so each side is one
    best-response-region program and the verdict is their conjunction; the
    common payoffs u1 and u2 are read off the solved witnesses.

    With an `infeasible` record made for this game, both sides are asked
    of the record: the pair is rejected without an LP when pure dominance
    or a recorded side rules out either side (tested for both before any
    LP), a side the record has already solved costs no LP, and every other
    side is solved and recorded.  The verdict and witness are the same with
    or without the record; without one, both sides are solved afresh, which
    makes the call the unpruned reference.

    Returns (is_equilibrium, witness) with the witness padded by zeros at
    out-of-support indices.
    """
    rows, cols = support.rows, support.cols
    if rows[-1] >= game.m or cols[-1] >= game.n:
        raise ValueError("support indices out of range for this game")
    if infeasible is None:
        region = functools.partial(_exact_region, game)
    else:
        infeasible.require(game)
        if infeasible.rules_out(_mask(rows), _mask(cols)):
            infeasible.pruned += 1
            return False, None
        region = infeasible._region
    ok_q, q, u1 = region(1, rows, cols)
    if not ok_q:
        return False, None
    ok_p, p, u2 = region(2, cols, rows)
    if not ok_p:
        return False, None
    return True, (MixedStrategy(1, p), MixedStrategy(2, q), u1, u2)
