#!/usr/bin/env bash
# Soak lane (NOT tier-1): the `#[ignore]`d multi-million-op torture soaks
# (`tests/soak.rs`), run repeatedly with a rotated KMEM_TORTURE_SEED so
# successive rounds explore different operation programs. Every phase
# checkpoint inside each soak runs the full invariant walkers plus the
# snapshot consistency checks (quiescent equalities, monotonicity, delta
# exactness against ground truth).
#
# Usage: scripts/soak.sh [rounds]           (default: 3)
#   KMEM_SOAK_BASE_SEED=N   fix the seed ladder for reproducible rotation
#                           (default: current epoch seconds)
#   KMEM_SOAK_FAULTS=1      additionally run the fault-injection torture
#                           each round, rotating KMEM_TORTURE_FAULT_SEED
#                           on the same ladder as KMEM_TORTURE_SEED
#   KMEM_SOAK_HARDENED=0/1  force the hardened profile off/on for every
#                           round; unset, it rotates (odd rounds run with
#                           every corruption defense armed, even rounds
#                           with the plain profile)
#
# A failing round prints the reproducing seed in the panic message;
# re-run just that round with KMEM_TORTURE_SEED=<seed> cargo test ...
# (faulted rounds also need KMEM_TORTURE_FAULT_SEED=<fault seed>).

set -euo pipefail
cd "$(dirname "$0")/.."

rounds="${1:-3}"
base_seed="${KMEM_SOAK_BASE_SEED:-$(date +%s)}"
faults="${KMEM_SOAK_FAULTS:-0}"

echo "==> soak: $rounds rounds, seed ladder from $base_seed (faults: $faults)"
echo "==> building release test binaries (offline)"
cargo build --release --offline --tests

for i in $(seq 1 "$rounds"); do
    # Large odd stride: consecutive rounds share no low-bit structure.
    seed=$(( base_seed + i * 1000003 ))
    # Rotate the NUMA shard count 1/2/4 so successive rounds soak the
    # flat arena, the two-node steal path, and the fully sharded layout.
    nodes=$(( 1 << ((i - 1) % 3) ))
    # Rotate the hardened profile unless pinned: odd rounds soak with
    # every corruption defense armed (a false detection fails the round).
    hardened="${KMEM_SOAK_HARDENED:-$(( i % 2 ))}"
    echo "==> round $i/$rounds: KMEM_TORTURE_SEED=$seed KMEM_SOAK_NODES=$nodes KMEM_SOAK_HARDENED=$hardened"
    KMEM_TORTURE_SEED="$seed" KMEM_SOAK_NODES="$nodes" \
        KMEM_SOAK_HARDENED="$hardened" \
        cargo test -q --release --offline --test soak -- --ignored
    if [ "$faults" != "0" ]; then
        # Same ladder, different stream: the fault schedule rotates with
        # the round while the op seed above keeps its own rotation.
        fault_seed=$(( base_seed + i * 1000033 ))
        echo "==> round $i/$rounds: KMEM_TORTURE_FAULT_SEED=$fault_seed"
        KMEM_TORTURE_FAULTS=1 KMEM_TORTURE_FAULT_SEED="$fault_seed" \
            KMEM_TORTURE_SEED="$seed" KMEM_TORTURE_HARDENED="$hardened" \
            cargo test -q --release --offline -p kmem-testkit \
            --test torture fault_injection
    fi
done

echo "==> page contention bench (wall + simulated SMP, writes BENCH_page.json)"
cargo bench -q --offline -p kmem-bench --features bench-ext \
    --bench page_contention

echo "==> OK: $rounds soak rounds passed"
