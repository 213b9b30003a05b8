"""Multidegree stability on vertex-weighted multigraphs.

The package models dual graphs of nodal curves: multigraphs with loops,
parallel edges and a genus attached to every vertex.  Given a rational
polarization it enumerates semistable, quasistable and stable
multidegrees, reduces arbitrary multidegrees to their unique
quasistable representative, computes degree class groups and
spanning-tree counts, and organises quasistable multidegrees into
strata indexed by edge subsets.

A compiled kernel (``_speedups.c``, built when a C compiler is
available) accelerates the enumeration scans; a pure-Python kernel with
identical behaviour is always present and is selected automatically when
the extension was not built, and for inputs whose intermediate values
might overflow machine integers.
"""

from .errors import (
    BlowupValueError,
    CanonicalPolarizationError,
    DegreeBudgetError,
    DegreeMismatchError,
    DisconnectedGraphError,
    EmptyGraphError,
    GraphConstructionError,
    GraphMismatchError,
    GuardLimitError,
    InvalidSubsetError,
    JacGraphError,
    NonIntegralRestrictionError,
    PolarizationTotalError,
    ReductionGuardError,
    UnknownEdgeError,
    UnknownVertexError,
)
from .graph import Edge, Multigraph
from .lattice import (
    Cochain,
    PicardGroup,
    characteristic,
    complexity,
    det_bareiss,
    invariant_factors,
    laplacian_apply,
    laplacian_matrix,
    laplacian_pairing,
    picard_group,
    same_class,
)
from .polarization import Polarization, canonical_polarization
from .quasistable import (
    DefectReport,
    ReduceReport,
    StratumContext,
    semistable_equality_witness,
)
from ._kernel import HAVE_SPEEDUPS, implementation_name

__version__ = "0.1.0"


# ``strata`` and its names load on first use (PEP 562), so a command that
# builds no stratum report does not compile the module; they are the only
# names of ``__all__`` not bound at import
def __getattr__(name):
    if name == "strata" or name in __all__:
        import importlib

        strata = importlib.import_module(".strata", __name__)
        return strata if name == "strata" else getattr(strata, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, "strata"})


__all__ = [
    "BlowupBucket",
    "BlowupDecomposition",
    "BlowupValueError",
    "CanonicalPolarizationError",
    "Cochain",
    "DefectReport",
    "DegreeBudgetError",
    "DegreeMismatchError",
    "DisconnectedGraphError",
    "Edge",
    "EmptyGraphError",
    "GraphConstructionError",
    "GraphMismatchError",
    "GuardLimitError",
    "HAVE_SPEEDUPS",
    "InvalidSubsetError",
    "JacGraphError",
    "Multigraph",
    "NonIntegralRestrictionError",
    "PicardGroup",
    "Polarization",
    "PolarizationTotalError",
    "PushforwardDegrees",
    "ReduceReport",
    "ReductionGuardError",
    "StrataReport",
    "StratumContext",
    "StratumRow",
    "UnknownEdgeError",
    "UnknownVertexError",
    "blowup_decomposition",
    "canonical_polarization",
    "characteristic",
    "complexity",
    "det_bareiss",
    "implementation_name",
    "invariant_factors",
    "laplacian_apply",
    "laplacian_matrix",
    "laplacian_pairing",
    "picard_group",
    "pushforward_multidegree",
    "same_class",
    "semistable_equality_witness",
    "strata_report",
    "stratum_multidegrees",
]
