"""Kalman variety toolkit: Betti tables, Hilbert series, defining
equations, and independent finite-field verification."""

__version__ = "0.1.0"
