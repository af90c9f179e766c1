"""Group actions on irreducible polynomials over GF(2^n) and the exact
upper bound on inequivalent extended irreducible binary Goppa codes."""

__version__ = "0.1.0"
