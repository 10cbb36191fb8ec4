"""Discrete martingale optimal transport on the real line.

Measures and couplings, a self-contained LP engine, classical and nested
Wasserstein distances, martingale transport solvers, the constructive
martingale rearrangement with certified cost traces, and instance generators.
"""

from .errors import (
    ConvexOrderError,
    InputError,
    InternalError,
    MotlineError,
    ParseError,
    SizeGuardError,
)
from .lab import (
    SweepResult,
    continuity_sweep,
    example1_family1,
    example1_family2,
    projection_stability,
    random_convex_pair,
    random_coupling,
)
from .lp import LinearProgram, LpSolution, solve_lp
from .measures import (
    BarycentreReport,
    DiscreteCoupling,
    DiscreteMeasure,
    barycentre_report,
    check_dispersion,
    convex_order,
    hoeffding_frechet,
    identity_coupling,
    is_martingale,
    is_monotone_support,
    make_coupling,
    make_measure,
    point_mass,
    product_coupling,
)
from .mot import (
    CostSpec,
    KappaSpec,
    MonotonicityReport,
    competitor_improve,
    kappa_competitor_improve,
    kappa_objective,
    kappa_solve_bruteforce,
    martingale_vertices,
    monotonicity_check,
    mot_solve,
    penalized_ot,
    strassen_feasible,
)
from .nested import (
    BicausalPlan,
    ProjectionResult,
    nd_lower_bound,
    nested_w_p,
    project_bruteforce,
    project_to_martingale,
)
from .rearrangement import (
    CascadeStep,
    ExchangeTuples,
    RearrangementResult,
    SwitchRecord,
    SwitchStep,
    cascade,
    find_exchange_tuples,
    find_switch_pair,
    rearrange,
    switch_assignment,
    trace_to_bicausal_plan,
)
from .transport import (
    TransportPlan,
    adapt_marginals,
    optimal_coupling_1d,
    solve_transport,
    w_p_1d,
    w_p_plane,
)

__version__ = "0.1.0"
