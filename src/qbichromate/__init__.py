"""Exact q-deformed graph polynomials and their knot-theoretic identities."""

from .polyq import LaurentPoly, qbinom

__version__ = "0.1.0"

__all__ = ["LaurentPoly", "qbinom", "__version__"]
