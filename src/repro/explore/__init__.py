"""Model-guided design-space exploration (docs/EXPLORATION.md).

Figure 8 of the paper is an exhaustive sweep; this package is how the
repo explores spaces the paper could never enumerate:

* :mod:`repro.explore.pareto` — strict cost/CPI dominance and the
  non-dominated frontier, shared with the Figure 8 driver.
* :mod:`repro.explore.space` — named candidate spaces (``fig8`` is the
  paper's 58-config grid: the Figure 8 catalogue at 17-cycle memory
  latency plus its 21-cycle twins).
* :mod:`repro.explore.model` — the analytic CPI estimator: a per-kind
  stall decomposition calibrated from the ``SimStats`` of twelve grid
  simulations, run as one grouped ``simulate_many``.
* :mod:`repro.explore.search` — the frontier driver: rank every
  candidate by (predicted CPI, RBE cost), simulate only the predicted
  frontier band plus an uncertainty margin, one grouped
  ``simulate_many`` per refinement round, until the simulated frontier
  is stable.
"""

from repro.explore.model import (  # noqa: F401
    CPIEstimator,
    ModelError,
    ModelReport,
    rank_correlation,
)
from repro.explore.pareto import (  # noqa: F401
    dominates,
    frontier_indices,
)
from repro.explore.search import (  # noqa: F401
    ExploreError,
    ExplorePoint,
    ExploreResult,
    explore,
)
from repro.explore.space import (  # noqa: F401
    Candidate,
    fig8_space,
    get_space,
    space_names,
)
