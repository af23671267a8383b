#!/usr/bin/env bash
# Differential opt-level guard. The paper binaries print only
# virtual-clock results (none reads a wall clock), so a build at
# opt-level 0 and the shipped release build must print byte-identical
# output. A difference means the optimizer changed an answer.
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
BINS=(
    fig2_roofline
    fig3_search_space
    fig7_pruning
    "fig8_subgraph --fast"
    "fig9_end2end --fast"
    "fig10_shmem --fast"
    "fig11_perf_model --fast"
    table1_comparison
    "table4_tuning_time --fast"
    "ablation --fast"
)

cargo build --release --offline -p mcfuser-bench --bins
CARGO_PROFILE_RELEASE_OPT_LEVEL=0 CARGO_TARGET_DIR="$O0" \
    cargo build --release --offline -p mcfuser-bench --bins

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
export MCFUSER_RESULTS_DIR="$out/results"
status=0
for entry in "${BINS[@]}"; do
    read -r bin args <<< "$entry"
    # shellcheck disable=SC2086 # `args` is a word list on purpose
    "$SHIPPED/release/$bin" $args > "$out/$bin.shipped"
    # shellcheck disable=SC2086
    "$O0/release/$bin" $args > "$out/$bin.o0"
    if diff -u "$out/$bin.o0" "$out/$bin.shipped"; then
        echo "same output at opt-level 0 and as shipped: $bin $args"
    else
        status=1
    fi
done
exit "$status"
