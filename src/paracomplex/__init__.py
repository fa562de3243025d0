"""Exact-arithmetic toolkit for paracomplex and generalized paracomplex
structures over neutral-signature spaces and coordinate patches."""

from paracomplex.exact import RatFunc, PoleAtPoint
from paracomplex.parse import parse_ratfunc
from paracomplex.poly import Poly

__all__ = ["Poly", "RatFunc", "parse_ratfunc", "PoleAtPoint"]
__version__ = "0.1.0"
