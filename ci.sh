#!/bin/sh
# Offline CI: build, test, lint, and run the static-verification audit.
# The workspace has no external dependencies, so everything here works
# without network access.
set -eux

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
# Warning-free rustdoc: intra-doc links must resolve, so a deleted or
# renamed item cannot leave a stale link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
cargo run --release -p realistic-pe --example verify

# The repository benchmark (its own workspace under perfbench/): its
# tests pin the public layer calls it times to `Pipeline::compile`,
# byte for byte, and check its seeded inputs are deterministic.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The flow and sct reports must render and schema-validate their event
# streams.  (Their translation-validation tests, flow_integration.rs and
# sct_integration.rs, run under `cargo test` above, as does pe-faultline.)
cargo run --release -p realistic-pe --example pe-explain -- --flow > /dev/null
cargo run --release -p realistic-pe --example pe-explain -- --sct > /dev/null

# Deep-input stack smoke in the DEBUG profile: unoptimized frames are
# the worst case for host-stack recursion, so unbounded recursion
# aborts here rather than in a user's process.
cargo run -p pe-faultline --example stack_smoke

# Trace smoke: pe-explain in JSONL mode self-validates its own stream
# (schema, span balance) and exits non-zero on any violation; the
# human-readable report and the trap census must render without error.
cargo run --release -p realistic-pe --example pe-explain -- --json tak > /dev/null
cargo run --release -p realistic-pe --example pe-explain -- deriv fibclos > /dev/null
cargo run --release -p pe-faultline --example trap_census > /dev/null

# pe-prof cost attribution: every benchmark's traced compile + profiled
# VM run must produce a per-residual-procedure attribution table whose
# per-phase sums balance against the span totals within 5%, and whose
# event stream (attr + hist lines included) passes the JSONL schema.
# Exits non-zero on unbalanced books or a schema violation.
cargo run --release -p realistic-pe --example pe-explain -- --prof > /dev/null

# Timing gate: every Gabriel benchmark must compute its expected answer
# on the VM, the tail interpreter and Hobbit; then compile and run times
# (min of 3, test inputs) must stay within baseline x 2.5 + 25 ms.
cargo run --release -p pe-bench -- crates/bench/baseline.txt

# pe-siege robustness harness.  First the corpus gate: every minimal
# reproducer ever banked under crates/siege/corpus must stay clean
# (differential agreement across all eight engines plus a crash-free
# budget ladder).  Then the fixed-seed quick campaign: 400 generated
# programs + mutants through the full oracle/chaos/shrink loop —
# deterministic, <30s, exits non-zero on any panic, value split, or
# ladder violation, and leaves a schema-validated SIEGE_pe.json behind.
cargo run --release -p pe-siege -- --replay
cargo run --release -p pe-siege -- --quick

# pe-serve determinism gate: the compile service answers a fixed
# request mix (suite + seed-pinned generated programs, with duplicates)
# cold on N threads, warm from the artifact cache, and warm-started
# from memo snapshots on a capacity-starved cache — every pass must be
# byte-identical to a sequential reference and the hit/miss accounting
# must balance.  Deterministic, <30s, exits non-zero on any divergence.
cargo run --release -p pe-serve -- --gate
