"""Counting statistics for the members of A = {a : a^2 + 1 prime}.

Two classical density models for the count of members a with a^2 + 1 <= x:

* a square-root model          c * sqrt(x) / log(x)
* a logarithmic-integral model (c / 2) * li(sqrt(x))

where c is the Hardy-Littlewood constant for this quadratic family,
an Euler product over odd primes, and li is integrated from 0 as a
principal value. The form integrated from x = 2 instead,
(c / 2) * (li(sqrt(x)) - li(sqrt(2))), differs from it by
li(sqrt(2)) ~ -0.10337 inside the parentheses. ``count_table`` streams
the member set once and reports the observed count against both models.
"""

import math
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Optional

import numpy as np

from .store import int64_chunks

EULER_GAMMA = 0.5772156649015329

# Truncated Euler product over odd primes, carried to more digits than the
# table rendering needs; compute_cq re-derives it for validation.
DEFAULT_HL_CONSTANT = 1.3728134628182

CHUNK = 1 << 15  # stream values counted per numpy pass
INT64_MAX = (1 << 63) - 1


class DomainError(ValueError):
    """Argument outside the function's mathematical domain."""


class StreamTooShortError(ValueError):
    """The member stream does not cover the largest requested point."""


def compute_cq(prime_limit) -> float:
    """Truncated Euler product defining the constant, over odd p <= limit.

    Converges like 1/limit, so 10^5 gives ~4 digits and 10^8 ~6. Used to
    cross-check DEFAULT_HL_CONSTANT, not to replace it.
    """
    limit = int(prime_limit)
    if limit < 3:
        raise ValueError("prime_limit must be at least 3")
    from .sieve import small_primes

    odd = small_primes(limit)[1:]
    chi = np.where(odd % 4 == 1, 1.0, -1.0)
    p = odd.astype(np.float64)
    return float(np.exp(np.log1p(-chi / (p - 1.0)).sum()))


def li(t: float) -> float:
    """Principal-value logarithmic integral, li(t) = PV int_0^t du/log u.

    Ramanujan's exponentially convergent series around gamma + log log t.
    Alternating terms peak near n = log t and then die factorially, so a
    few hundred terms cover any t this package ever evaluates.
    """
    t = float(t)
    if t <= 1.0:
        raise DomainError(f"li requires t > 1, got {t}")
    lt = math.log(t)
    series = 0.0
    fact_pow = 1.0  # lt^n / (n! * 2^(n-1))
    inner = 0.0  # sum of 1/(2k+1) for 2k+1 <= n
    for n in range(1, 400):
        fact_pow *= lt / n
        if n > 1:
            fact_pow /= 2.0
        if n & 1:
            inner += 1.0 / n
        term = fact_pow * inner
        if n & 1:
            series += term
        else:
            series -= term
        if n > lt and abs(term) < 1e-18 * abs(series):
            break
    return EULER_GAMMA + math.log(lt) + math.sqrt(t) * series


def count_model_sqrt(x: float, c_q: float = DEFAULT_HL_CONSTANT) -> float:
    """Square-root density model: c * sqrt(x) / log(x). Needs x > 1."""
    if x <= 1.0:
        raise DomainError(f"model requires x > 1, got {x}")
    return c_q * math.sqrt(x) / math.log(x)


def count_model_li(x: float, c_q: float = DEFAULT_HL_CONSTANT) -> float:
    """Logarithmic-integral density model: (c / 2) * li(sqrt(x)).

    li is the principal value from 0, not the integral from x = 2: the latter,
    (c / 2) * (li(sqrt(x)) - li(sqrt(2))), differs by li(sqrt(2)) ~ -0.10337.
    """
    if x <= 1.0:
        raise DomainError(f"model requires x > 1, got {x}")
    return 0.5 * c_q * li(math.sqrt(x))


@dataclass(frozen=True)
class CountTableRow:
    x: int
    pi_q: int  # members a with a^2 + 1 <= x
    ratio_f: float  # pi_q / sqrt model
    ratio_g: float  # pi_q / li model


def count_table(
    a_stream: Iterable[int],
    points: Iterable[int],
    *,
    covered_to: Optional[int] = None,
    c_q: float = DEFAULT_HL_CONSTANT,
) -> list:
    """Observed member counts against both density models, one pass.

    ``a_stream`` holds the members ascending: a store's ``read_a_stream()``,
    whose segment arrays are taken whole, or any iterable of ints.
    ``points`` are thresholds on x = a^2 + 1, ascending, each >= 10.
    ``covered_to`` (exclusive) declares how far the stream is complete;
    pass it whenever known so truncated data fails loudly instead of
    producing quietly-low counts.
    """
    pts = [int(p) for p in points]
    if not pts:
        return []
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("points must be strictly ascending")
    if pts[0] < 10:
        raise ValueError("points below 10 are not meaningful here")
    thresholds = [isqrt(x - 1) for x in pts]
    if covered_to is not None and covered_to <= thresholds[-1]:
        raise StreamTooShortError(
            f"stream covers members below {covered_to}, "
            f"largest point needs them through {thresholds[-1]}"
        )

    # thresholds past int64 are past every stream value, so clip them
    cuts = np.array([min(t, INT64_MAX) for t in thresholds], np.int64)
    counts = np.zeros(cuts.size, np.int64)
    prev = 0
    for chunk in int64_chunks(a_stream, CHUNK):
        # values after the first one past the last threshold are never
        # looked at, so neither is their order
        past = np.flatnonzero(chunk > cuts[-1])
        seen = chunk[: past[0] + 1] if past.size else chunk
        before = np.concatenate(([prev], seen[:-1]))
        bad = np.flatnonzero(seen <= before)
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"member stream must strictly ascend, got {seen[i]} after {before[i]}"
            )
        counts += np.searchsorted(seen, cuts, side="right")
        if past.size:
            break
        prev = seen[-1]
    counts = counts.tolist()

    return [
        CountTableRow(
            x=x,
            pi_q=c,
            ratio_f=c / count_model_sqrt(x, c_q),
            ratio_g=c / count_model_li(x, c_q),
        )
        for x, c in zip(pts, counts)
    ]


def format_columns(head: tuple, cells: list) -> str:
    """A text table: the header, then one line per row of cells, every
    column right-justified to its widest entry and columns two spaces apart."""
    rows = [head, *cells]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in rows)


def format_count_table(rows: Iterable[CountTableRow]) -> str:
    return format_columns(
        ("x", "count", "count/sqrt-model", "count/li-model"),
        [
            (_fmt_power(r.x), str(r.pi_q), f"{r.ratio_f:.5f}", f"{r.ratio_g:.5f}")
            for r in rows
        ],
    )


def count_table_csv(rows: Iterable[CountTableRow]) -> str:
    lines = ["x,count,ratio_sqrt_model,ratio_li_model"]
    for r in rows:
        lines.append(f"{r.x},{r.pi_q},{r.ratio_f:.6f},{r.ratio_g:.6f}")
    return "\n".join(lines) + "\n"


def _fmt_power(x: int) -> str:
    if x >= 10:
        k = round(math.log10(x))
        if 10**k == x:
            return f"10^{k}"
    return str(x)
