"""Primes of the form a^2+1: sieve, storage, verification, and heuristics."""

__version__ = "0.1.0"

from . import analytics, goldbach, hypotheses, oracle, sieve, store

__all__ = [
    "analytics",
    "goldbach",
    "hypotheses",
    "oracle",
    "sieve",
    "store",
]
