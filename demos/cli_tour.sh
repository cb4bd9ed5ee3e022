#!/usr/bin/env bash
# Every CLI command once, against a small throwaway run.
set -euo pipefail

DATA="${1:-demo-data-cli}"

echo "== sieve: all values with a^2 + 1 prime below 10^10 =="
# --resume keeps a complete run from an earlier tour; without it, sieve refuses
goo sieve --limit 1e10 --out "$DATA" --resume --quiet

echo
echo "== status: what the store holds, read only =="
goo status --data "$DATA"

echo
echo "== verify: every member is a sum of two earlier members =="
goo verify --data "$DATA" --quiet --champions "$DATA/champions.csv"

echo
echo "== count: observed counts vs the density models =="
goo count --data "$DATA" --at 1e4,1e6,1e8,1e10

echo
echo "== cq: recompute the density constant from scratch =="
goo cq --prime-limit 1e6

echo
echo "== hyp: admissibility and simultaneous-prime scans =="
goo hyp check --poly 1,1,2
goo hyp check --poly sq:65,1 --poly sq:65,9
goo hyp scan --poly sq:65,1 --poly sq:65,9 --limit 1000

echo
echo "== oracle: brute-force spot checks =="
goo oracle prime 5477
goo oracle prime 5777
goo oracle a --limit 100 | tail -3

echo
echo "champion records were written to $DATA/champions.csv:"
cat "$DATA/champions.csv"
