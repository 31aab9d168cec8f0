"""Exact engine for window-truncated Z-systems of prime order, their two matrix
realizations, and searches over shift-invariant commutation tables."""

from .laurent import Fp, LaurentPoly
from .matgroup import (
    LaurentMatrix,
    StandardExample,
    UnitaryExample,
    commutator,
    conjugate,
    make_example,
)
from .rootsystem import Root, alpha, is_positive, negate, reflect
from .zsystem import (
    CapExceeded,
    GroupElement,
    NfStats,
    WindowGroup,
    closure,
    derive_window,
    nf_stats,
    overlap_violation,
    verify_zs_axioms,
)
from .analysis import (
    CutoffResult,
    Subgroup,
    commutator_subgroup,
    derived_series,
    generate,
    lemma_checks,
    lower_central_series,
    lower_cutoff,
    nilpotency_class,
    normal_closure,
    search_tables,
    shift_invariant_closure,
    single_shift_extends,
)
from .rgd import rgd3_m_map, rgd_check

__version__ = "0.1.0"
