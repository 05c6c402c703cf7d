"""Factorial coefficient cipher toolkit.

A toy cipher that encodes letters as polynomial coefficients, scales each
by the factorial of a scheduled exponent keyed on a secret parameter s, and
splits the result by division by 26 into a ciphertext letter and a quotient
that becomes part of the private key. Ships with a quadrature oracle that
verifies the integral identities the construction relies on, a bit-exact
key file format, and a key-recovery scan demonstrating that the quotients
leak s. Not secure; see README.
"""

from .alphabet import decode_values, encode_text
from .cipher import (
    CipherKey,
    CipherText,
    decrypt,
    encrypt,
    exponent_schedule,
    recover_s,
    split_mod26,
    transform_coefficients,
)
from .keyio import read_ciphertext, read_key, write_ciphertext, write_key

__version__ = "0.1.0"


def __getattr__(name: str):
    # a public name not imported above is the oracle's: it is imported on first use of one, so the
    # cipher, the key format and every CLI command but verify-transform run without paying its import
    if name in __all__:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CipherKey",
    "CipherText",
    "OracleResult",
    "decode_values",
    "decrypt",
    "encode_text",
    "encrypt",
    "exponent_schedule",
    "gamma_identity_check",
    "numeric_mellin",
    "read_ciphertext",
    "read_key",
    "recover_s",
    "scaling_check",
    "shift_check",
    "split_mod26",
    "transform_coefficients",
    "write_ciphertext",
    "write_key",
]
