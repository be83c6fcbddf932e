"""Finite skew lattice toolkit: Cayley-table algebras, Green's relations,
variety classification, Yang-Baxter solution maps and bounded model search."""

from .core import (
    AxiomError,
    CayleyPair,
    MalformedTableError,
    SkewLattice,
    from_text,
    load,
    orders,
    save,
    to_text,
    validate,
)

__all__ = [
    "AxiomError",
    "CayleyPair",
    "MalformedTableError",
    "SkewLattice",
    "from_text",
    "load",
    "orders",
    "save",
    "to_text",
    "validate",
]

__version__ = "0.1.0"
