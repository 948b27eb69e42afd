"""chromlc: gate-schedule compilation for pair-interaction Hamiltonians.

Continuous evolutions under time-dependent two-local Hamiltonians are
discretized into steps of simultaneous two-qubit gates by edge-coloring
the interaction graph at every sampled instant.  The weighted depth of
the compiled schedule (sum of per-step maximal gate angles) tracks the
integrated chromatic index of the source, which doubles as a running-time
measure for the continuous dynamics; the package also measures how the
variance of mean-field observables grows with that index.
"""

from .analysis import (
    ConvergenceRow,
    TrotterRow,
    VarianceTrialRecord,
    check_convergence,
    convergence_study,
    trotter_comparison,
    variance_bound_experiment,
)
from .compiler import (
    CompilationReport,
    Gate,
    GateSchedule,
    Step,
    compile,
    rechromatize,
    trotterize,
    weighted_depth,
)
from .errors import (
    BadParams,
    ChromlcError,
    DimensionMismatch,
    EpsilonTooLarge,
    NormDrift,
    NotConstant,
    NotHermitian,
    NotUnitary,
    OutOfRange,
    ParseError,
    SchemaVersionMismatch,
    ToleranceUnreachable,
    TooLarge,
)
from .graphs import (
    EdgeColoring,
    Level,
    LevelDecomposition,
    WeightedGraph,
    color_edges,
    edge_color_vizing,
    level_decompose,
    threshold_subgraph,
)
from .hamiltonian import (
    HamiltonianSchedule,
    IndexProfile,
    Segment,
    embed_discrete,
    eval_pair,
    generate,
    integrated_chromatic_index,
    interaction_graph,
    scale_schedule,
    weighted_chromatic_index,
)
from .linalg import (
    expm_i,
    hermitian_eig,
    is_hermitian,
    is_unitary,
    operator_norm,
    spectral_distance,
    unitary_angle,
    unitary_log,
)
from .serialization import (
    dumps_gates,
    dumps_schedule,
    load_document,
    load_gates,
    load_product_state,
    load_schedule,
    loads_gates,
    loads_schedule,
    save_gates,
    save_schedule,
)
from .simulator import (
    MeanFieldObservable,
    StateVector,
    evolve_continuous,
    full_unitary,
    propagate,
    run_schedule,
    variance,
)

__version__ = "0.1.0"
