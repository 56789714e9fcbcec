"""Per-layer spans recorded from the benchmark side of each module boundary.

The package binds its callees by name at import time, so a span has to wrap
the name in the *caller's* namespace:

* ``equilibria`` binds ``fp1_check``, ``build_gr``, ``build_gi``,
  ``compute_domain_table``, ``cycle_basis``, ``enumerate_support_trees`` and
  ``iterated_elimination``;
* ``domgraph`` binds the ``lp`` program builders;
* ``cli`` binds ``enumerate_by_*`` and ``parse_game``;
* ``games.iterated_elimination`` imports ``lp1_dominance`` from ``lp`` at
  call time, and the builders look ``solve_lp`` up in ``lp``, so those two
  are wrapped in ``lp`` itself.

Nothing inside ``src/`` is edited.  Spans carry the id of the game being
solved and stay in memory until :func:`summarize` derives the per-layer
metrics.  A layer's self time is its spans' busy time minus the busy time of
their child spans.
"""

from __future__ import annotations

import functools
from time import perf_counter

LAYERS = ("games", "lp", "domgraph", "cycles", "equilibria", "cli")


class Span:
    __slots__ = ("name", "layer", "game", "start", "busy", "child", "lps", "fp1s", "first_fp1", "info")

    def __init__(self, name: str, game):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.game = game
        self.start = 0.0
        self.busy = 0.0  # time inside the callee (for generators: inside next())
        self.child = 0.0  # busy time of direct child spans
        self.lps = 0  # solve_lp calls beneath
        self.fp1s = 0  # fp1_check calls beneath
        self.first_fp1 = None  # start of the first fp1_check beneath
        self.info = None  # per-name payload taken from the arguments or result


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.game = None

    # -- span bookkeeping ------------------------------------------------
    def _enter(self, span: Span) -> None:
        self.stack.append(span)
        span.start = perf_counter()

    def _leave(self, span: Span) -> None:
        elapsed = perf_counter() - span.start
        self.stack.pop()
        span.busy += elapsed
        if self.stack:
            self.stack[-1].child += elapsed

    def call(self, name: str, fn, *args, post=None, **kwargs):
        """Run ``fn`` inside a span, then ``post(tracer, span, args, result)``."""
        span = Span(name, self.game)
        self.spans.append(span)
        self._enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._leave(span)
        if post is not None:
            post(self, span, args, result)
        return result

    # -- wrappers --------------------------------------------------------
    def wrap(self, module, attr: str, name: str, post=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, post=post, **kwargs)

        setattr(module, attr, traced)

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """The span of a lazy generator covers the call and every ``next``;
        ``info`` counts the items it yielded."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, self.game)
            span.info = 0
            self.spans.append(span)
            self._enter(span)
            try:
                inner = iter(original(*args, **kwargs))
            finally:
                self._leave(span)
            return _drive(self, span, inner)

        setattr(module, attr, traced)

    # -- counters raised at the lp boundary ---------------------------------
    def count_lp(self) -> None:
        for span in self.stack:
            span.lps += 1

    def count_fp1(self, start: float) -> None:
        for span in self.stack:
            span.fp1s += 1
            if span.first_fp1 is None:
                span.first_fp1 = start


def _drive(tracer: Tracer, span: Span, inner):
    while True:
        tracer._enter(span)
        try:
            item = next(inner)
        except StopIteration:
            return
        finally:
            tracer._leave(span)
        span.info += 1
        yield item


def tableau_cells(lp) -> int:
    """Rows x columns of the standard form ``solve_lp`` builds from ``lp``:
    one row per constraint plus one per doubly bounded variable; one column
    per bounded variable, two per free variable, one slack per inequality
    row.  Artificial columns and the right-hand side are not counted."""
    bounds = lp.bounds if lp.bounds is not None else ()
    free = sum(1 for lo, hi in bounds if lo is None and hi is None)
    capped = sum(1 for lo, hi in bounds if lo is not None and hi is not None)
    rows = len(lp.constraints) + capped
    slacks = sum(1 for con in lp.constraints if con.relation != "=") + capped
    return rows * (lp.num_vars + free + slacks)


# -- post hooks: O(1) facts taken from arguments and results ----------------

def _post_solve(tracer, span, args, outcome):
    tracer.count_lp()
    span.lps = 1
    span.info = (outcome.status.value == "infeasible", tableau_cells(args[0]))


def _post_fp1(tracer, span, args, result):
    tracer.count_fp1(span.start)
    span.info = bool(result[0])


def post_enumerate(tracer, span, args, result):
    span.info = len(result.entries)


def _post_elim(tracer, span, args, reduced):
    game = args[0]
    span.info = game.m + game.n - reduced.game.m - reduced.game.n


def _post_graph(tracer, span, args, graph):
    span.info = (graph.arc_count(), graph.artificial_arc_count(), len(graph.left) * len(graph.right))


def _post_basis(tracer, span, args, basis):
    span.info = len(basis)


def install(tracer: Tracer, nashcycles_modules) -> None:
    """Wrap every traced name; ``nashcycles_modules`` maps module names to
    the imported modules."""
    lp = nashcycles_modules["lp"]
    domgraph = nashcycles_modules["domgraph"]
    equilibria = nashcycles_modules["equilibria"]
    cli = nashcycles_modules["cli"]

    tracer.wrap(lp, "solve_lp", "lp.solve_lp", _post_solve)
    tracer.wrap(lp, "lp1_dominance", "lp.lp1_dominance")
    for name in ("lp1_dominance", "lp2_domain_check", "lp2_joint_domain_check", "mod_lp1_relevancy"):
        tracer.wrap(domgraph, name, f"lp.{name}")

    tracer.wrap(equilibria, "fp1_check", "lp.fp1_check", _post_fp1)
    tracer.wrap(equilibria, "iterated_elimination", "games.iterated_elimination", _post_elim)
    tracer.wrap(equilibria, "build_gr", "domgraph.build_gr", _post_graph)
    tracer.wrap(equilibria, "build_gi", "domgraph.build_gi", _post_graph)
    tracer.wrap(equilibria, "compute_domain_table", "domgraph.compute_domain_table")
    tracer.wrap(equilibria, "cycle_basis", "cycles.cycle_basis", _post_basis)
    tracer.wrap_generator(equilibria, "enumerate_support_trees", "cycles.enumerate_support_trees")

    for name in ("enumerate_by_supports", "enumerate_by_gr", "enumerate_by_gi"):
        tracer.wrap(cli, name, f"equilibria.{name}", post_enumerate)
    tracer.wrap(cli, "parse_game", "games.parse_game")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarize(spans: list[Span], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run."""
    by_name: dict[str, list[Span]] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        self_s[span.layer] += span.busy - span.child

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.busy for s in named(name))

    def lps(*names):
        return sum(s.lps for name in names for s in named(name))

    solves = named("lp.solve_lp")
    fp1s = named("lp.fp1_check")
    gr_graphs = [s.info for s in named("domgraph.build_gr")]
    gi_graphs = [s.info for s in named("domgraph.build_gi")]
    tree_spans = named("cycles.enumerate_support_trees")
    enumerations = [s for s in spans if s.name.startswith("equilibria.enumerate_by_")]
    tree_games = {s.game for s in tree_spans}
    tree_candidates = sum(s.fp1s for s in enumerations if s.game in tree_games)
    trees = sum(s.info for s in tree_spans)
    candidates = len(fp1s)
    total_self = sum(self_s.values())

    metrics = {
        "lp.solve_calls": len(solves),
        "lp.solve_s": busy("lp.solve_lp"),
        "lp.infeasible_frac": _ratio(sum(1 for s in solves if s.info[0]), len(solves)),
        "lp.tableau_cells": sum(s.info[1] for s in solves),
        "lp.fp1_calls": candidates,
        "lp.fp1_s": busy("lp.fp1_check"),
        "lp.fp1_feasible_frac": _ratio(sum(1 for s in fp1s if s.info), candidates),
        "lp.fp1_cache_hits": sum(1 for s in fp1s if s.lps == 0),
        "games.elim_s": busy("games.iterated_elimination"),
        "games.elim_lps": lps("games.iterated_elimination"),
        "games.removed": sum(s.info for s in named("games.iterated_elimination")),
        "games.parse_s": busy("games.parse_game"),
        "domgraph.build_gr_s": busy("domgraph.build_gr"),
        "domgraph.gr_lps": lps("domgraph.build_gr"),
        "domgraph.gr_density": _ratio(sum(g[0] for g in gr_graphs), sum(2 * g[2] for g in gr_graphs)),
        "domgraph.domain_s": busy("domgraph.compute_domain_table"),
        "domgraph.domain_lps": lps("domgraph.compute_domain_table"),
        "domgraph.build_gi_s": busy("domgraph.build_gi"),
        "domgraph.gi_arcs": sum(g[0] for g in gi_graphs),
        "domgraph.gi_artificial_arcs": sum(g[1] for g in gi_graphs),
        "cycles.basis_s": busy("cycles.cycle_basis"),
        "cycles.basis_classes": sum(s.info for s in named("cycles.cycle_basis")),
        "cycles.trees_s": busy("cycles.enumerate_support_trees"),
        "cycles.trees": trees,
        "cycles.dup_tree_frac": 1.0 - _ratio(tree_candidates, trees) if trees else 0.0,
        "equilibria.candidates": candidates,
        "equilibria.candidate_yield": _ratio(sum(s.info or 0 for s in enumerations), candidates),
        "equilibria.checks_s": sum(
            s.start + s.busy - s.first_fp1 for s in enumerations if s.first_fp1 is not None
        ),
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.self_frac"] = _ratio(self_s[layer], total_self)
    metrics["trace.spans"] = len(spans)
    return metrics
