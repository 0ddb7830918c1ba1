"""ylab: a desk-scale numerical laboratory for the Yamabe flow on
asymptotically flat radial backgrounds.

Modules:

* grids        -- radial grids, quadrature, plain/weighted norms, field I/O
* operators    -- the boundary-folded radial Laplacian, tridiagonal and Newton solves
* backgrounds  -- catalog of asymptotically flat backgrounds and initial data
* elliptic     -- scalar-flat solve, Yamabe sign/quotient, prescribed curvature
* flow         -- implicit time integration with per-step monitoring
* diagnostics  -- post-hoc auditors: monotonicity, decay fits, mass drop
* cli          -- config parsing, simulate/report and the elliptic commands
"""

__version__ = "0.1.0"

from .grids import (  # noqa: F401
    LOG_STRETCHED,
    UNIFORM,
    RadialField,
    RadialGrid,
    SphereConstants,
    build_grid,
    integrate_dV,
    lp_norm,
    sphere_constants,
    weighted_sup_norm,
)
from .backgrounds import (  # noqa: F401
    BackgroundSpec,
    InitialData,
    background_from_name,
    decay_order_estimate,
    gaussian_bump_data,
    make_flat_background,
    make_synthetic_background,
    newtonian_data,
    schwarzschild_data,
)
from .elliptic import (  # noqa: F401
    SolveReport,
    YamabeSign,
    compute_R,
    prescribe_scalar_curvature,
    solve_scalar_flat,
    yamabe_quotient,
    yamabe_sign,
)
from .flow import (  # noqa: F401
    FlowConfig,
    FlowState,
    MonitorRecord,
    RunResult,
    adm_mass,
    monitor,
    run_flow,
    step,
)
from .diagnostics import (  # noqa: F401
    DecayFit,
    MonotonicityAudit,
    audit_monotone,
    convergence_to_limit,
    fit_decay_exponent,
    lp_inequality_audit,
    mass_drop_report,
    spacetime_decay_audit,
)
