"""Arbitrary-precision calculator and identity engine for multiple
polylogarithms, multiple zeta values, and alternating/unit Euler sums.

The package exports what the README documents; everything else is imported
from its submodule (``polyzeta.model``, ``polyzeta.evaluate``,
``polyzeta.identities``, ...).

Three of the exported names, ``identity_catalog``, ``stuffle_identity`` and
``lindep``, load on first use (PEP 562, through ``__getattr__``): a run
that only evaluates values never compiles ``identities`` and ``relations``,
about a third of the time of ``import polyzeta`` from source.
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

__version__ = "0.1.0"

# name -> submodule, for the names that load on first use
_LAZY = {
    "identity_catalog": "identities",
    "stuffle_identity": "identities",
    "lindep": "relations",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, which loads importlib
    module = __import__(f"{__name__}.{_LAZY[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


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
