"""mixcomp: numerics for compressing ensembles of mixed quantum states.

The library computes the quantities that govern how far an ensemble of mixed
states can be compressed: von Neumann and Shannon entropies, Bures-Uhlmann
and Bhattacharyya fidelities, the Holevo quantity, purification-based and
classical coding schemes, and a small-block typical-subspace simulator for
the unitary-decoding rate argument.
"""

from .blocksim import (
    BlockSource,
    FidelityScore,
    FixedOutputScheme,
    IdentityScheme,
    ProjectPatchScheme,
    Theorem7Row,
    TypicalSubspace,
    global_fidelity_score,
    lemma_a1_ceiling,
    local_fidelity_score,
    project_and_patch,
    project_patch_scheme,
    theorem7_demo,
    typical_subspace,
)
from .classical import (
    CoinSource,
    ProtocolTrace,
    StochasticMatrix,
    analytic_output_law,
    apply_channel,
    example9_message_distribution,
    example9_simulate,
    xi_rate,
)
from .errors import MixcompError, ValidationError
from .measures import (
    Ensemble,
    Povm,
    avg_ensemble_fidelity,
    avg_entropy_continuity_bound,
    classical_fidelity,
    fidelity,
    holevo,
    holevo_continuity_bound,
    measured_classical_fidelity,
    shannon_entropy,
    sqrt_fidelity,
    vn_entropy,
)
from .purify import (
    Purification,
    canonical_overlap,
    canonical_purification,
    photographic_negative_ensemble,
    photographic_negative_report,
    two_state_purification_rate,
    upsilon_rate,
)
from .qmat import (
    DensityOperator,
    PureState,
    Spectrum,
    eig_hermitian,
    matrix_sqrt_psd,
    partial_trace,
    projector,
)
from .rates import (
    BlockDiagonalEnsemble,
    RateEntry,
    RateReport,
    example11_rate,
    rate_report,
)

__version__ = "0.1.0"
