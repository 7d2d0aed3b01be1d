"""Exact computational engine for so(3,2), its Tanaka prolongation tower,
Kostant-style cochain decompositions, and the CR geometry of the tube over
the future light cone."""

__version__ = "0.1.0"
