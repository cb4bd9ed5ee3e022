"""Primes of the form a^2+1: sieve, storage, verification, and heuristics."""

__version__ = "0.1.0"

from . import analytics, cli, goldbach, hypotheses, oracle, sieve, store

__all__ = [
    "analytics",
    "cli",
    "goldbach",
    "hypotheses",
    "oracle",
    "sieve",
    "store",
]
