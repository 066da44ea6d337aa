#!/usr/bin/env bash
# The full local CI gate: build, tests, lints, formatting.
#
# Usage: scripts/ci.sh [--full]
#   --full   additionally runs the ignored eight-example audit sweep and
#            the 104-scenario fault-injection campaign (minutes, release).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> perf-ledger build and tests (seeds, catalog, exact replayed allocation counts)"
# The catalog test reads BENCHMARK.json through the vendored JSON reader
# and the report writer prints through its printer, so they run here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets --quiet -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping"
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
else
    echo "==> cargo fmt unavailable; skipping"
fi

echo "==> cargo doc -D warnings"
# Only the crusade crates: the vendored stand-ins don't hold doc-clean.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
    -p crusade-model -p crusade-obs -p crusade-fabric -p crusade-sched \
    -p crusade-lint -p crusade-core -p crusade-ft -p crusade-verify \
    -p crusade-explore -p crusade-serve -p crusade-gen -p crusade-workloads \
    -p crusade-bench -p crusade

echo "==> explore smoke (2 examples, portfolio 4, jobs 2)"
cargo run --release -q -p crusade-bench --bin explore -- \
    --examples A1TR,VDRTX --jobs 2 --portfolio 4
cargo test --release -q -p crusade --test bench_artifacts explore

echo "==> resyn smoke (2 examples, exit-code convention)"
# Exit 0: a lone PE fault must be warm-repairable on both examples.
RESYN_DELTAS="$(mktemp)"
trap 'rm -f "$RESYN_DELTAS"' EXIT
echo '[{"FailPe":{"pe":0}}]' > "$RESYN_DELTAS"
for example in a1tr vdrtx; do
    cargo run --release -q -p crusade --bin crusade -- \
        resyn "$example" --deltas "$RESYN_DELTAS"
done
# Exit 2: an impossible deadline must be rejected by admission, not
# synthesized — and must report through findings, not `error:`.
echo '[{"TightenDeadline":{"graph":0,"deadline":1}}]' > "$RESYN_DELTAS"
set +e
cargo run --release -q -p crusade --bin crusade -- \
    resyn a1tr --deltas "$RESYN_DELTAS"
resyn_code=$?
set -e
if [[ $resyn_code -ne 2 ]]; then
    echo "resyn smoke: impossible tighten must exit 2, got $resyn_code" >&2
    exit 1
fi

echo "==> sweep smoke (1 utilization point, 2 seeds)"
cargo run --release -q -p crusade --bin crusade -- \
    sweep --points 1.6 --seeds 2 --secondary none

echo "==> serve smoke (ephemeral port, submit + cache hit + cached resyn + clean shutdown)"
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$SERVE_DIR"; rm -f "$RESYN_DELTAS"' EXIT
cargo run --release -q -p crusade --bin crusade -- sample "$SERVE_DIR/spec.json"
cargo run --release -q -p crusade --bin crusade -- \
    serve --addr 127.0.0.1:0 --workers 1 --port-file "$SERVE_DIR/port.txt" \
    > "$SERVE_DIR/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$SERVE_DIR/port.txt" ]] && break
    sleep 0.1
done
if [[ ! -s "$SERVE_DIR/port.txt" ]]; then
    echo "serve smoke: server never wrote its port file" >&2
    cat "$SERVE_DIR/serve.log" >&2
    exit 1
fi
serve_addr="$(cat "$SERVE_DIR/port.txt")"
# First submission synthesizes and must report audit-clean figures.
cargo run --release -q -p crusade --bin crusade -- \
    client submit "$SERVE_DIR/spec.json" --addr "$serve_addr" \
    | tee "$SERVE_DIR/first.txt"
# The duplicate must be served from the cache.
cargo run --release -q -p crusade --bin crusade -- \
    client submit "$SERVE_DIR/spec.json" --addr "$serve_addr" \
    | tee "$SERVE_DIR/second.txt"
if ! grep -q "cached" "$SERVE_DIR/second.txt"; then
    echo "serve smoke: duplicate submission missed the cache" >&2
    exit 1
fi
# A resyn with default flags must warm-start from the cached incumbent
# (exit 0: a lone PE fault repairs on a warm rung).
echo '[{"FailPe":{"pe":0}}]' > "$SERVE_DIR/deltas.json"
cargo run --release -q -p crusade --bin crusade -- \
    client resyn "$SERVE_DIR/spec.json" --deltas "$SERVE_DIR/deltas.json" \
    --addr "$serve_addr" | tee "$SERVE_DIR/resyn.txt"
if ! grep -q "(cached)" "$SERVE_DIR/resyn.txt"; then
    echo "serve smoke: default resyn missed the cached incumbent" >&2
    exit 1
fi
# Graceful drain: the Shutdown request alone must exit the server with 0.
cargo run --release -q -p crusade --bin crusade -- \
    client shutdown --addr "$serve_addr"
if ! wait "$serve_pid"; then
    echo "serve smoke: server exited non-zero after drain" >&2
    cat "$SERVE_DIR/serve.log" >&2
    exit 1
fi

if [[ "${1:-}" == "--full" ]]; then
    echo "==> full audit sweep (8 examples, both modes + FT)"
    cargo test --release -q -p crusade-verify --test audit_examples -- --ignored
    echo "==> fault-injection campaign (104 scenarios)"
    cargo run --release -q -p crusade-bench --bin campaign
    echo "==> Table 2 columns (the six large examples, PEs/links/cost pinned)"
    cargo test --release -q -p crusade --test table2_columns -- --ignored
    echo "==> exploration determinism (8 examples, jobs 1/2/8 bit-identical)"
    cargo test --release -q -p crusade-explore --test determinism -- --ignored
    echo "==> trace acceptance sweep (8 examples, metrics vs audit, jobs-invariant)"
    cargo test --release -q -p crusade --test trace_examples -- --ignored
    echo "==> online re-synthesis soak (8 examples, warm vs cold, soundness counters)"
    cargo run --release -q -p crusade-bench --bin warmstart
    cargo test --release -q -p crusade --test bench_artifacts warmstart
    echo "==> serve soak (4 clients x 8 examples, parity + cache + warm resyn)"
    cargo run --release -q -p crusade-bench --bin serve
    cargo test --release -q -p crusade --test bench_artifacts serve
    echo "==> schedulability sweep grid (5 utilizations x 3 tightness x 10 seeds)"
    cargo run --release -q -p crusade-bench --bin sweep
    cargo test --release -q -p crusade --test bench_artifacts sweep
    echo "==> line-coverage ratchet (crates/core + crates/sched)"
    scripts/coverage.sh
fi

echo "CI: all checks passed"
