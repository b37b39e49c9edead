"""nqtensor: communication-tensor rank workbench and protocol simulator.

Exact rank certificates live on Gaussian-rational arithmetic; floating-point
enters through the SVD compression route, the statevector simulators and
the numerical rank of the NIH grouped matrix.  See the README for the
command-line surface.
"""

from .functions import (
    BooleanFunction,
    canonical_tensor,
    eq_nondet_decomposition,
    equality,
    from_name,
    gip,
    hamming_neq1,
    hamming_nondet_decomposition,
    inner_product_matrix,
    random_nondet_substitution,
)
from .protocol import (
    AcceptanceResult,
    BranchState,
    NofProtocol,
    ProtocolSpec,
    build_nof_protocol,
    coefficient_search,
    extract_families,
    nih_rank_certificate,
    run_nof,
    simulate_branches,
    simulate_dense,
    strong_nondet_check,
    trivial_eq_relay_spec,
)
from .rank_bounds import (
    GipCertificate,
    RankBracket,
    gip_certificate,
    nrank_probe,
    pattern_check,
    rank_bracket,
)
from .scalar_linalg import (
    ExactComplex,
    exact,
    exact_rank,
    svd,
    to_float,
)
from .tensor_core import (
    Decomposition,
    DenseTensor,
    group_matrize,
    materialize,
    tensor_slice,
    unfold,
)

__version__ = "0.1.0"
