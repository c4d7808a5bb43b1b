#!/usr/bin/env sh
# CI gate: formatting, lints, docs, release build, the full test suite,
# the persistence round-trip and the DML oracle in release mode, and the
# sysr-audit invariant/recovery/model pass (see DESIGN.md §8–§9), the
# benchmark's smoke run and the paper's results/*.txt as goldens.
# Runs offline — zero external crates.
set -eux

cd "$(dirname "$0")/.."

cargo fmt --all --check
# The benchmark's A/B driver runs by hand (about 25 min at 10 pairs), so
# CI only checks that it parses.
sh -n scripts/ab.sh
# The engine never depends on its auditor: sysr-audit builds its live
# databases, experiments and shell through the system-r facade, so an
# edge from system-r back to sysr-audit would be a cycle in the making.
deps=$(cargo tree -p system-r -e normal --offline)
case "$deps" in
*sysr-audit*)
    echo "system-r must not depend on sysr-audit" >&2
    exit 1
    ;;
esac
# This one clippy run is also the panic-freedom, indexing, cast and
# unsafe gate: the crate roots deny those clippy lints (DESIGN.md §8.2),
# every suppression is an `#[expect(lint, reason = …)]`, and an
# expectation that no longer fires fails here as
# `unfulfilled_lint_expectations`.
# It is also the latch-scope gate: clippy.toml disallows std's Mutex,
# RwLock and Condvar outside the sysr_rss::sync facade.
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo build --release --workspace --bins --examples
# The latch order (shard -> gate -> backend, no latch held under the
# backend latch) is checked at runtime at every acquisition in every debug
# test run, so this step checks it too (DESIGN.md §8.2).
cargo test --workspace
# Save/reopen round-trip against real page files in a temp dir; pins the
# fetches == device-reads identity, clean errors on torn/corrupt files,
# and readers that see unchanged rows while `sync` flushes beside them.
cargo test --release --test persistence
# The storage substrate again, optimized: the page-digest kernel and the
# SARG kernel (the segment scan's slot-directory walk and its compiled
# evaluator over encoded bytes) are exactly the kind of code whose debug
# and release builds differ, so the golden vector, the 98 304-flip sweep,
# the SARG differential test, the backend fault tests and the temp-file
# leak test must hold in the build that ships.
cargo test --release -p sysr-rss
# The executor optimized: a nested-loop join builds its inner probe once
# and rewrites only the outer-bound operands per OPEN, so the probe-reuse
# tests and the EXPLAIN ANALYZE goldens must hold in the build that ships.
# The random AND/OR/NOT/NULL predicate trees of property_random_queries
# reach the SARG kernel through the planner, so they run optimized too.
cargo test --release -p sysr-executor
cargo test --release --test sql_correctness --test explain_analyze --test property_random_queries
# DML by RID: the seeded INSERT/UPDATE/DELETE oracle (affected rows,
# segment and every index against a Vec model after each statement) ends
# with save -> open on real page files, so it also runs optimized — the
# one-flush-per-statement path must reach the files in release builds too.
cargo test --release --test dml_by_rid
# The text-keyed plan cache's own 8-thread tests (exact hit/miss counts,
# one shared cached plan executed from 8 threads with rows equal to a
# serial run, no stale serve across a catalog bump), optimized.
# RUST_TEST_THREADS is unset so several of these tests run at once and
# their threads contend; it never limits the threads inside one test.
env -u RUST_TEST_THREADS cargo test --release --test plan_cache
# --all = plan invariants + DP oracle (per query block, nested subquery
# blocks included) & sampled orders + recovery
# rules (page-checksum, reopen-equivalence, over a scratch database
# churned by delete_many/update_many/insert_many so deferred
# statement-end flushes are what the page files hold) + the
# concurrent-differential
# rule (corpus replayed from 8 threads, bit-identical plans/rows) + the
# exec-accounting rule (traced corpus replay: per-node I/O sums to the
# whole-query delta, RSI-call/page-fetch sums match component-wise, and
# no scan emits more rows than it charged RSI calls — the identities the
# batched NEXT path must preserve) + the cost-property verifier
# (exhaustive-boundary + seeded-sample domain checks that every Table 1
# selectivity and Table 2 cost formula is non-negative, finite, and
# monotone where the paper requires — see DESIGN.md §15) + the
# model engine (bounded schedule exploration of the RSS latches; the
# default budget — preemption bound 2, capped DFS plus 64 seeded deep
# samples per scenario — finishes in seconds and its explored-schedule
# counts are bit-identical across runs). Any unsuppressed finding exits
# nonzero and fails CI.
cargo run --release -p sysr-audit -- --all
# The DP oracle on a second seed: 96 more random queries, each block's
# winner checked against exhaustive enumeration, so a change to the
# join-order search meets queries beyond the default corpus.
cargo run --release -p sysr-audit -- --plans --diff --seed 1979 --random 96
# The model checker must have teeth: re-arm the PR-6 dirty-victim/flush
# reordering (a runtime-gated mutant, dead outside the harness) and
# require the explorer to FIND a violating schedule within the bound —
# exit 0 here means the bug was caught and its replay trace printed.
cargo run --release -p sysr-audit -- --model --mutant dirty-victim-gate
# Same teeth-check for the cost-property verifier: plant a non-monotone
# clustered-matching page formula (runtime-gated, dead outside the
# drill) and require the verifier to CATCH it with a replayable
# counterexample — exit 0 means caught, nonzero means the verifier has
# been lobotomized.
cargo run --release -p sysr-audit -- --cost-props --mutant cost-monotone
# Concurrency bench: the smoke run exercises the measurement pipeline
# end to end (writes BENCH_concurrency.smoke.json, not the committed
# file); --check fails CI when the committed BENCH_concurrency.json is
# missing or malformed (qps/p99 for 1, 2, 4, 8 sessions; no speedup
# assertion — see EXPERIMENTS.md on the single-hardware-thread
# container).
cargo run --release -p sysr-audit --bin bench_concurrency -- --smoke
cargo run --release -p sysr-audit --bin bench_concurrency -- --check
# The end-to-end benchmark (BENCHMARK.json) is a package of its own that
# depends on this repo by path, so the workspace commands above never
# compile it: build and test it, run every workload at tenth size, and
# check the emitted metric names and units against BENCHMARK.json — an
# API removal that breaks the benchmark fails here, not in the pipeline.
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --check
# The paper's claims, gated: every results/<name>.txt is one report of
# sysr-experiments, and --check reruns them all and compares each report's
# deterministic section (plans, predicted costs, F values, plan counts,
# measured fetch/RSI/cost-unit counts; everything above its
# `-- timing (not checked) --` line) byte for byte with the committed file.
# A change to candidate generation, pruning, the cost formulas or the
# pool's LRU semantics (exp_buffer_sweep's hit ratios) fails here unless it
# regenerates the file on purpose (`sysr-experiments <name> > results/<name>.txt`).
cargo run --release -p sysr-audit --bin sysr-experiments -- --check
