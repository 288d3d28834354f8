"""hkforge: exact commutative algebra in prime characteristic.

Polynomial arithmetic over F_p with pluggable monomial orders, Buchberger's
algorithm with division certificates, ideal calculus (bracket powers,
intersection, colon, saturation), lengths of finite subquotients and 0th
local cohomology, and the relative Hilbert-Kunz sequence family.
"""

from .errors import (
    CapExceeded,
    ContainmentError,
    DimensionError,
    EmptyVariety,
    EngineError,
    InfiniteColength,
    ParseError,
    RingMismatch,
    ZeroDivisor,
    ZeroPolynomial,
)
from .polyring import (
    Block,
    DegRevLex,
    Lex,
    MonomialOrder,
    PolyRing,
    Polynomial,
    PrimeField,
    compare_monomials,
    division,
    normal_form,
    parse_polynomial,
)
from .groebner import (
    GroebnerBasis,
    GroebnerCertificate,
    buchberger,
    certify_groebner,
    s_polynomial,
)
from .ideals import (
    Ideal,
    bracket_power,
    colon_element,
    colon_ideal,
    dimension,
    ideal_equal,
    ideal_member,
    intersect,
    maximal_ideal,
    saturate,
    unit_ideal,
)
from .lengths import (
    LengthResult,
    finite_colength_length,
    gamma_length,
    gamma_submodule,
    oracle_ideal_member,
    oracle_quotient_dimension,
    subquotient_length,
)
from .sequences import (
    SandwichRecord,
    SequenceEntry,
    SequenceReport,
    check_sandwich,
    default_scaling_exponent,
    f_difference_sequence,
    hk_function,
    lf_sequences,
    rjj_sequence,
    sjj_sequence,
    vjj_sequence,
    window_bound_check,
)
from .verify import (
    ClaimReport,
    ConstructionData,
    aux_saturation_basis,
    build_construction,
    construction_basis,
    verify_construction,
    verify_katzman,
)
from .cli import Session, parse_session, run

__version__ = "0.1.0"
