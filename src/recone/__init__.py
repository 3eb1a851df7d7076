"""Toolkit for relative-entropy vectors over the subsets of n parties.

The package decides whether a candidate vector of relative entropies,
one entry per nonempty subset of parties, satisfies nonnegativity and
monotonicity under restriction; decomposes members into nested extremal
rays (indicator vectors of up-sets); realizes each ray by an explicit
pair of classical states built from a secret-sharing scheme; and checks
the construction numerically.
"""

from .cone import (
    InfiniteEntryError,
    MembershipReport,
    NotInConeError,
    RayDecomposition,
    REVector,
    check_membership,
    layer_cake_decompose,
)
from .lattice import (
    OrbitClass,
    UpSet,
    enumerate_upsets,
    mask_label,
    mask_of,
    parties,
    permutation_classes,
    subsets_in_order,
)
from .realize import (
    RealizationError,
    RealizationResult,
    VerificationReport,
    dense_pair,
    realize_ray,
    synthesize,
    verify,
)
from .schemes import Scheme, dnf_scheme, scheme_state_pair
from .states import (
    JointDistribution,
    ProductPair,
    StatePair,
    marginal,
    mix,
    re_vector,
    relative_entropy,
    tensor,
)

__version__ = "0.1.0"
