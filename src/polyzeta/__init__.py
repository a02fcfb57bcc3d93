"""Arbitrary-precision calculator and identity engine for multiple
polylogarithms, multiple zeta values, and alternating/unit Euler sums.

The package exports what the README documents; everything else is imported
from its submodule (``polyzeta.model``, ``polyzeta.evaluate``,
``polyzeta.identities``, ...).
"""

from .errors import (
    DivergenceError,
    DomainError,
    ExpressionError,
    InsufficientPrecision,
    PolyzetaError,
    PrecisionMismatch,
    UnsupportedSpec,
)
from .precision import BigReal, Precision, to_decimal_string
from .model import (
    LambdaSpec,
    dual_word,
    format_spec,
    lambda_from_z_string,
    lambda_to_word,
    parse_spec,
    word_to_lambda,
    zeta_spec,
)
from .evaluate import evaluate_lambda, evaluate_z, evaluate_zp
from .identities import identity_catalog, stuffle_identity
from .relations import lindep

__version__ = "0.1.0"

__all__ = [
    # the README's Library block
    "LambdaSpec",
    "Precision",
    "evaluate_lambda",
    "evaluate_z",
    "evaluate_zp",
    "lindep",
    "stuffle_identity",
    "to_decimal_string",
    "zeta_spec",
    # values and errors
    "BigReal",
    "DivergenceError",
    "DomainError",
    "ExpressionError",
    "InsufficientPrecision",
    "PolyzetaError",
    "PrecisionMismatch",
    "UnsupportedSpec",
    # spec text, words, duality and the identity catalog
    "dual_word",
    "format_spec",
    "identity_catalog",
    "lambda_from_z_string",
    "lambda_to_word",
    "parse_spec",
    "word_to_lambda",
]
