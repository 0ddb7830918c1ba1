"""ylab: a desk-scale numerical laboratory for the Yamabe flow on
asymptotically flat radial backgrounds.

Modules:

* grids        -- radial grids, their one volume rule (dV), weighted norms, field I/O
* operators    -- the boundary-folded radial Laplacian, tridiagonal and Newton solves
* backgrounds  -- catalog of asymptotically flat backgrounds and initial data
* elliptic     -- scalar-flat solve, Yamabe sign/quotient, prescribed curvature
* flow         -- linearly implicit (ROS2) time integration with per-step monitoring
* diagnostics  -- post-hoc auditors: monotonicity, decay fits, mass drop
* cli          -- config parsing, simulate/report and the elliptic commands
"""

__version__ = "0.1.0"
