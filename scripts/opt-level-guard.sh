#!/usr/bin/env bash
# Differential opt-level guard. The paper binaries print only
# virtual-clock results (none reads a wall clock), so a build at
# opt-level 0 and the shipped release build must print byte-identical
# output. A difference means the optimizer changed an answer.
#
# The shipped output must also match the stdout pinned under
# results/paper/<bin>.txt, so a change that moves a paper number fails
# here until it updates the pin, and the move shows as a diff of that
# file. To re-pin one binary after an intended change:
#
#     target/release/<bin> > results/paper/<bin>.txt
#
# Every binary runs the paper's full size and takes no arguments. On a
# 2-vCPU host the ten figure and table binaries took about 23 s as
# shipped and 96 s at opt-level 0, nearly all of it fig8, fig9 and
# table4 (the simulated Ansor's 1000 trials), and search_seeds 0.5 s and
# 2.6 s; the whole guard, with incremental builds, took 131 s.
#
# Usage, from the root of a checkout:
#
#     scripts/opt-level-guard.sh
#
# The opt-level-0 build goes to $O0_TARGET_DIR (default
# target/opt-level-0) so it never evicts the shipped build.
set -euo pipefail

SHIPPED="${CARGO_TARGET_DIR:-target}"
O0="${O0_TARGET_DIR:-target/opt-level-0}"
PINNED=results/paper
BINS=(
    fig2_roofline
    fig3_search_space
    fig7_pruning
    fig8_subgraph
    fig9_end2end
    fig10_shmem
    fig11_perf_model
    table1_comparison
    table4_tuning_time
    ablation
    search_seeds
)

cargo build --release --offline -p mcfuser-bench --bins
CARGO_PROFILE_RELEASE_OPT_LEVEL=0 CARGO_TARGET_DIR="$O0" \
    cargo build --release --offline -p mcfuser-bench --bins

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
export MCFUSER_RESULTS_DIR="$out/results"
status=0
for bin in "${BINS[@]}"; do
    "$SHIPPED/release/$bin" > "$out/$bin.shipped"
    "$O0/release/$bin" > "$out/$bin.o0"
    if diff -u "$out/$bin.o0" "$out/$bin.shipped"; then
        echo "same output at opt-level 0 and as shipped: $bin"
    else
        status=1
    fi
    if diff -u "$PINNED/$bin.txt" "$out/$bin.shipped"; then
        echo "same output as pinned in $PINNED/$bin.txt: $bin"
    else
        status=1
    fi
done
exit "$status"
