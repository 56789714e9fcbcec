"""Nash-equilibrium support enumeration for bimatrix games via dominance
graphs and elementary cycles, over exact rational arithmetic."""

from .cycles import (
    Cycle,
    CycleBasisEntry,
    SupportTree,
    cycle_basis,
    elementary_cycles,
    enumerate_support_trees,
    johnson_cycles,
    strongly_connected_components,
    tarjan_scc,
)
from .domgraph import (
    BipartiteDigraph,
    DomainEntry,
    RelevancyRow,
    build_gd,
    build_gi,
    build_gr,
    compute_domain,
    compute_domain_table,
    compute_relevancy,
    format_graph,
)
from .equilibria import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Equilibrium,
    EquilibriumSet,
    PipelineStats,
    eliminable_strategies,
    enumerate_by_gi,
    enumerate_by_gr,
    enumerate_by_supports,
    game_hash,
    verify_equilibrium,
)
from .games import (
    Game,
    GameFormatError,
    MixedStrategy,
    ReducedGame,
    SupportPair,
    expected_payoffs,
    generate_random_game,
    is_best_response,
    iterated_elimination,
    parse_game,
    write_game,
)
from .lp import (
    Constraint,
    InfeasibleSides,
    LinearProgram,
    LpOutcome,
    LpStatus,
    fp1_check,
    lp1_dominance,
    lp2_domain_check,
    lp2_joint_domain_check,
    lp3_relevancy,
    mod_lp1_relevancy,
    solve_lp,
)

__version__ = "0.1.0"
