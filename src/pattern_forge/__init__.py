"""Executable finite-sum partition calculus over abelian direct sums:
pattern search, explicit bad colourings, and brute-force certificates."""

__version__ = "0.1.0"
