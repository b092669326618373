"""domroots: exact domination polynomials, certified real roots, and
constructive density witnesses.

The package is organised around six surfaces:

* :mod:`domroots.graph` - bitmask graphs, the table of named families
  (``FAMILIES``, one record each), clique substitution, graph6 ingestion;
* :mod:`domroots.dompoly` - exact domination polynomials by two independent
  algorithms, the closed forms of the family shapes ``K_n``, ``E_n`` and
  ``K_{a,b}``, and composition under clique substitution;
* :mod:`domroots.realroots` - Sturm-certified root counting/isolation and
  the star-root sequence with its Lambert-W asymptotics;
* :mod:`domroots.witness` - given any target z <= 0 and radius eps, an
  explicit graph whose domination polynomial provably has a root within eps;
* :mod:`domroots.atlas` - exhaustive desk-scale sweeps (root clouds,
  extremal tables, growth checks);
* :mod:`domroots.cli` - the ``domroots`` command.
"""

from .dompoly import (
    BRUTE_FORCE_CAP,
    DomPolynomial,
    compose_with_complete,
    dom_poly_bruteforce,
    dom_poly_closed_form,
    dom_poly_inclusion_exclusion,
    eval_rational,
    multiply,
)
from .errors import (
    BudgetExhaustedError,
    CapacityError,
    DomainError,
    DomRootsError,
    EndpointRootError,
    Graph6ParseError,
    InternalInvariantError,
)
from .graph import (
    VERTEX_CAP,
    Graph,
    closed_neighborhood_union,
    complete,
    complete_bipartite,
    disjoint_union,
    empty_graph,
    family,
    from_edges,
    from_graph6,
    star,
    substitute_complete,
    to_graph6,
)
from .realroots import (
    DEFAULT_TOL,
    Rational,
    RationalInterval,
    RootEnclosure,
    SturmChain,
    count_roots_in,
    isolate_real_roots,
    lambert_w,
    star_domination_root,
    star_gap_report,
    star_root,
    star_root_estimate,
    sturm_chain,
)
from .witness import (
    SearchBudget,
    WitnessCertificate,
    construct_witness,
    target_interval,
    verify_certificate,
)
from .atlas import (
    ExtremalRecord,
    RootCloudRecord,
    enumerate_graphs,
    growth_check,
    root_cloud,
    smallest_root_table,
)

__version__ = "0.1.0"
