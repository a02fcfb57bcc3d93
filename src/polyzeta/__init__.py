"""Arbitrary-precision calculator and identity engine for multiple
polylogarithms, multiple zeta values, and alternating/unit Euler sums."""

from .errors import (
    DivergenceError,
    DomainError,
    ExpressionError,
    InsufficientPrecision,
    PolyzetaError,
    PrecisionMismatch,
    UnsupportedSpec,
)
from .precision import BigReal, Precision, ln, pi, pow_int, to_decimal_string
from .model import (
    GoncharovArgs,
    LambdaSpec,
    Word,
    check_convergence,
    constant_base_spec,
    delta_spec,
    dual_word,
    format_spec,
    from_goncharov,
    lambda_from_z_string,
    lambda_to_word,
    make_word,
    mu_spec,
    mzv_dual_string,
    parse_spec,
    to_goncharov,
    word_to_lambda,
    z_string_from_lambda,
    zeta_spec,
)
from .evaluate import (
    GEOMETRIC_THRESHOLD,
    SplitTerm,
    SumPlan,
    direct_nested_sum,
    evaluate_J,
    evaluate_lambda,
    evaluate_word,
    evaluate_z,
    evaluate_zp,
    holder_split,
    hyp2f1_series,
    plan_nested_sum,
)
from .identities import (
    ClosedFormConstants,
    FormalSum,
    Identity,
    RootDressing,
    SpecProduct,
    alternating_source_spec,
    alternating_to_mu,
    bernoulli,
    closed_form,
    cyclotomic_expand,
    delta_mu_dual,
    delta_negative_exact,
    delta_one_negative_exact,
    evaluate_formal_sum,
    export_identities,
    identity_catalog,
    mu_source_spec,
    mu_to_compositions,
    mu_to_delta,
    rational_stuffle_check,
    render_formal_sum,
    reversal_reduction,
    shuffle_words,
    stuffle_count,
    stuffle_identity,
    stuffle_set,
    weak_chain_expand,
)
from .relations import RelationResult, lindep, lll_reduce

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
