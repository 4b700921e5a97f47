"""Bent function constructions with exact spectral verification.

The layers, bottom up: gf2n (integer-indexed GF(2^n) arithmetic),
boolfun (truth tables, Walsh spectra, duals, ANF), constructions (the
companion-certificate machinery and table-level builders), families
(Gold and Maiorana-MacFarland instantiations with closed-form duals),
search (parameter enumeration and the EA fingerprint), cli (the
reproducibility front end).
"""

from .boolfun import (
    AnfForm,
    BooleanFunction,
    VectorialFunction,
    WalshSpectrum,
    algebraic_degree,
    anf,
    bent_dual,
    compose,
    derivative,
    dot_form,
    dual,
    from_text,
    from_trace_monomial,
    is_bent,
    linear_form,
    parse_bitstring,
    to_text,
    translate,
    wht,
)
from .constructions import (
    ConstructionReport,
    PrCertificate,
    build_generic,
    carlet_build,
    check_property_pr,
    cornew_build,
    correduced_build,
    mesnager2_build,
    mesnager_build,
    shifted_build,
    zlj_build,
)
from .errors import (
    ArityMismatch,
    CertificateInvalid,
    NonIrreducible,
    NotADivisor,
    NotBent,
    NotBentAdmissible,
    SideConditionFailed,
    SingularMap,
    UnsupportedDegree,
    ZeroDenominator,
)
from .families import (
    GoldParams,
    MMParams,
    corn4t_build,
    cort_m_build,
    gold_bent_admissible,
    gold_build,
    gold_dual,
    gold_dual_build,
    gold_function,
    gold_in_S,
    mm_build,
    mm_dual,
    mm_dual_build,
    mm_function,
    thfromgold_build,
    thmm_build,
)
from .gf2n import FieldSpec, default_modulus, make_field
from .search import (
    EaFingerprint,
    MuSearchSpec,
    ea_fingerprint,
    find_alphas,
    find_gold_lambdas,
    find_mu_tuples,
)

__version__ = "0.1.0"
