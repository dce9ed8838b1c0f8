//! # `lcp-bench` — the Figure 1 harness and the perf tooling
//!
//! Table 1 comes from the conformance campaign
//! (`lcp-campaign --profile table1`), not from this crate. Binaries:
//!
//! * `figure1` — regenerates Figure 1 and the §5.3/§6 lower-bound
//!   experiments: the exact `C(3,12)`-style identifier patterns, plus the
//!   gluing / join-collision / fooling attacks run against undersized
//!   strawmen (fooled) and the honest schemes (survive).
//! * `bench_diff` — compares a fresh BENCH snapshot against the committed
//!   one with a regression bound.
//! * `coldstart` / `serve_bench` — the artifact cold-start and serve
//!   daemon benches behind `BENCH_coldstart.json` / `BENCH_serve.json`.
//! * `trend` — folds campaign artifacts into a `TREND.json` series
//!   ([`trend`]).
//!
//! The criterion benches (`benches/`) measure prover/verifier throughput
//! and attack cost.

pub mod trend;
