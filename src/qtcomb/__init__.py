"""Exact q,t-combinatorics: lattice path families, statistic-preserving
bijections, and a small symmetric-function engine for identity verification.

Everything is exact: polynomial coefficients are arbitrary-precision
integers and all specializations are rational.
"""

from qtcomb.qt import QtPolynomial, q_int, q_factorial, q_binomial
from qtcomb.paths import (
    Composition,
    DecoratedLabelledPath,
    PolyominoPaths,
    PolyominoWord,
)

__all__ = [
    "QtPolynomial",
    "q_int",
    "q_factorial",
    "q_binomial",
    "Composition",
    "DecoratedLabelledPath",
    "PolyominoPaths",
    "PolyominoWord",
]
