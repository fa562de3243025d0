"""Exact-arithmetic toolkit for paracomplex and generalized paracomplex
structures over neutral-signature spaces and coordinate patches."""

from paracomplex.exact import Poly, RatFunc, parse_ratfunc, PoleAtPoint

__all__ = ["Poly", "RatFunc", "parse_ratfunc", "PoleAtPoint"]
__version__ = "0.1.0"
