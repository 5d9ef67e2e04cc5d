"""Exact arithmetic for fast-growing-hierarchy numerals and ordinal descent.

The package splits along the data it owns:

* :mod:`grzseq.grzeval`    - cutoff-aware evaluation of the hierarchy F_n
* :mod:`grzseq.frep`       - the tower representation codec and base shifts
* :mod:`grzseq.ordinals`   - Cantor normal form terms below epsilon_0
* :mod:`grzseq.correspond` - the number/ordinal correspondence and g_n
* :mod:`grzseq.seq`        - base-shift countdown sequences and shadows
* :mod:`grzseq.slowdown`   - compression of descending chains
* :mod:`grzseq.cli`        - the command-line front end
"""

from .grzeval import (
    BoundedNat,
    CapExceededError,
    Exact,
    ExceedsCap,
    eval_F,
    eval_F_iter,
    exceeds,
    fold,
    in_relation_R,
)
from .frep import (
    FRep,
    RepError,
    TRep,
    ValidationReport,
    compare as rep_compare,
    decode,
    decode_total,
    encode,
    parse_rep,
    print_rep,
    rep_from_json,
    rep_to_json,
    shift_total_value,
    shift_value,
    to_total,
    validate,
)
from .order import Ordering, ParseError
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    coeff_measure,
    compare as ordinal_compare,
    from_int,
    left_subtract_omega,
    mul_omega_omega,
    omega_pow,
    omega_tower,
    ordinal_from_json,
    ordinal_to_json,
    parse_ordinal,
    print_ordinal,
)
from .correspond import (
    L_inverse,
    MembershipReport,
    NotInDError,
    PaddedProfile,
    Q_pred,
    flip,
    g,
    in_D,
    o_map,
    o_map_literal,
    profile,
)
from .seq import (
    CheckReport,
    DominationReport,
    Outcome,
    Phase,
    Trace,
    TraceStep,
    dominate_check,
    next_step,
    run,
    shadow_check,
    trace_to_json,
)
from .slowdown import (
    SlowChain,
    SlowReport,
    chain_to_text,
    compress,
    parse_chain_text,
    slow_g,
    verify_slow,
)

__version__ = "0.1.0"
