"""End-to-end tour: sieve, verify, and tabulate everything below 10^12.

Runs in about a second and leaves its data directory behind so the other
commands (and the CLI) can be pointed at it afterwards:

    python3 demos/demo_pipeline.py [data-dir]
"""

import sys
import time
from pathlib import Path

from goo import analytics, goldbach, sieve, store

BOUND = 10**12


def main() -> None:
    data_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo-data-1e12")

    print(f"sieving all a with a^2 + 1 prime and a^2 + 1 < 10^12")
    print(f"candidates run up to {store.x_limit(BOUND) - 1}\n")

    t0 = time.perf_counter()
    config = sieve.SieveConfig(bound_b=BOUND, segment_len=1 << 20, thread_count=4)
    st = sieve.run_pipeline(config, data_dir, resume=True)
    total = sum(n for kind, _, _, n in st.account() if kind == store.KIND_A and n is not None)
    print(f"{total} values in {time.perf_counter() - t0:.2f}s -> {data_dir}/\n")

    print("counts against the two density models:")
    rows = analytics.count_table(
        st.read_a_stream(),
        [10**k for k in range(2, 13)],
        covered_to=store.x_limit(BOUND),
    )
    print(analytics.format_count_table(rows))
    print()

    print("checking that every member is a sum of two earlier members...")
    t0 = time.perf_counter()
    report = goldbach.verify_stream(st.read_a_stream(), store=st)
    print(f"done in {time.perf_counter() - t0:.2f}s\n")
    print(report.summary())
    print()
    print("record-setting decomposition offsets:")
    print(goldbach.format_champion_table(goldbach.champion_table(report.champions)))


if __name__ == "__main__":
    main()
