"""Reasoning toolkit for the simple-minded output operation of input/output logic.

Decide norm-conditioned obligations semantically or proof-theoretically
(with checkable certificates), replicate the possible-worlds lifting of
the operation with a finite countermodel finder, and demonstrate why the
naive Boolean encoding of nested entailment is unsound.

Everything in the package is immutable and pure; all functions are safe
to call concurrently.
"""

# Each layer's ``__all__`` is the one list of its public names; the package's
# public API is their union.
from .formula import *
from .norms import *
from .entail import *
from .output import *
from .derivation import *
from .worlds import *

__all__ = (
    formula.__all__
    + norms.__all__
    + entail.__all__
    + output.__all__
    + derivation.__all__
    + worlds.__all__
)
