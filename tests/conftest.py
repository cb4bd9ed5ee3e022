"""Shared fixtures: sieve runs and annotated-root caches reused across files.

The expensive ones are session-scoped; everything downstream (counts,
verification, acceptance) reads from the same two runs instead of
re-sieving per test.
"""

import pytest

from goo import sieve, store

SMALL_BOUND = 10**4
BIG_BOUND = 10**16


@pytest.fixture(scope="session")
def small_store(tmp_path_factory):
    """Complete run with bound 10^4: members below 100, one segment each."""
    out = tmp_path_factory.mktemp("run-small")
    cfg = sieve.SieveConfig(bound_b=SMALL_BOUND, segment_len=1024)
    return sieve.run_pipeline(cfg, out)


@pytest.fixture(scope="session")
def big_store(tmp_path_factory):
    """Complete run with bound 10^16: all members below 10^8."""
    out = tmp_path_factory.mktemp("run-big")
    cfg = sieve.SieveConfig(bound_b=BIG_BOUND, segment_len=1 << 22, thread_count=4)
    return sieve.run_pipeline(cfg, out)


def _root_blocks_reaching(x_cover: int, segment_len: int = 1 << 22):
    """Annotated prime-root blocks tiling [1, >= x_cover)."""
    bound = (x_cover + 2) * (x_cover + 2)  # x_limit(bound) > x_cover
    ranges = store.prime_segment_ranges(bound, segment_len)
    reach = next(i for i, (_, hi) in enumerate(ranges) if hi >= x_cover)
    return list(sieve.sieve_prime_roots(ranges[: reach + 1], thread_count=2))


@pytest.fixture(scope="session")
def roots_1e6():
    """Prime-root blocks covering [1, ~4.2e6): enough for members to 10^6."""
    return _root_blocks_reaching(10**6 + 3)


@pytest.fixture(scope="session")
def roots_1e9():
    """Prime-root blocks covering [1, >= 10^9): the window-equivalence cache."""
    return _root_blocks_reaching(10**9)


@pytest.fixture(scope="session")
def a_members_1e6(roots_1e6):
    """All members a <= 10^6, as a plain Python list."""
    seg = sieve.sieve_a_segment(1, 10**6 + 1, iter(roots_1e6))
    return seg.values.tolist()
