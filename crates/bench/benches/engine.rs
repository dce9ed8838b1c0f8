//! Cached engine vs naive per-proof `View::extract`, and the batched
//! block odometer vs both: the comparisons that justify
//! `lcp_core::engine` and `lcp_core::batch`.
//!
//! Workload (the acceptance workload for the engine): exhaustive
//! soundness of the `Θ(log n)` non-bipartiteness scheme on the cycle
//! `C₈` (a no-instance: `χ(C₈) = 2`) over **every** proof of ≤ 2 bits
//! per node — `7⁸ = 5 764 801` candidate proofs.
//!
//! * `naive` re-extracts all 8 views (BFS + allocation) for every
//!   candidate — the pre-engine behaviour, reproduced locally below;
//! * `engine` binds the 8 cached skeletons once and then re-binds only
//!   the odometer-changed node, re-running only the ≤ 3 affected
//!   verifiers per candidate (`BatchPolicy::Scalar`);
//! * `batch` enumerates 49 candidates per block (`7² ≤ 64`) through
//!   the block odometer's per-owner mask tables, deciding a whole
//!   block with a handful of `u64` ANDs (`BatchPolicy::Auto`, the
//!   library default).
//!
//! Besides the criterion timings, the bench prints the measured
//! speedups and records a machine-readable snapshot in
//! `BENCH_engine.json` (see README § Benchmarks) with both the `engine`
//! and `batch` series. Run with `-- --test` for a smoke pass on a
//! reduced workload.

use criterion::{criterion_group, criterion_main, Criterion};
use lcp_core::engine::prepare;
use lcp_core::harness::{all_bitstrings_up_to, check_soundness_exhaustive, Run, Soundness};
use lcp_core::{evaluate, BatchPolicy, Instance, Proof, Scheme};
use lcp_graph::generators;
use lcp_schemes::chromatic::NonBipartite;
use std::hint::black_box;
use std::time::Instant;

/// The pre-engine exhaustive check: one full `Proof` materialization and
/// one `View::extract`-per-node sweep for every candidate.
fn naive_exhaustive<S: Scheme>(
    scheme: &S,
    inst: &Instance<S::Node, S::Edge>,
    max_bits: usize,
) -> Soundness {
    let n = inst.n();
    let strings = all_bitstrings_up_to(max_bits).expect("bench workloads stay in budget");
    let mut indices = vec![0usize; n];
    let mut tried = 0u64;
    loop {
        let proof = Proof::from_strings(indices.iter().map(|&i| strings[i].clone()).collect());
        tried += 1;
        if evaluate(scheme, inst, &proof).accepted() {
            return Soundness::Violated(proof);
        }
        let mut pos = 0;
        loop {
            if pos == n {
                return Soundness::Holds(tried);
            }
            indices[pos] += 1;
            if indices[pos] < strings.len() {
                break;
            }
            indices[pos] = 0;
            pos += 1;
        }
    }
}

/// One cached-engine exhaustive run under an explicit batch policy.
fn engine_exhaustive(inst: &Instance, max_bits: usize, policy: BatchPolicy) -> Soundness {
    let prep = prepare(&NonBipartite, inst);
    let run = Run {
        policy,
        ..Run::default()
    };
    check_soundness_exhaustive(&NonBipartite, &prep, max_bits, &run).unwrap()
}

fn workload(c: &Criterion) -> (usize, usize) {
    // Smoke mode exercises the same code on a workload that finishes in
    // milliseconds; the real comparison is n = 8, max_bits = 2.
    if c.is_test_mode() {
        (8, 1)
    } else {
        (8, 2)
    }
}

fn bench_exhaustive(c: &mut Criterion) {
    let (n, max_bits) = workload(c);
    let inst = Instance::unlabeled(generators::cycle(n));
    let mut group = c.benchmark_group(format!("exhaustive-c{n}-b{max_bits}"));
    group.sample_size(1);
    group.bench_function("batch", |b| {
        b.iter(|| engine_exhaustive(black_box(&inst), max_bits, BatchPolicy::Auto))
    });
    group.bench_function("engine", |b| {
        b.iter(|| engine_exhaustive(black_box(&inst), max_bits, BatchPolicy::Scalar))
    });
    group.bench_function("naive", |b| {
        b.iter(|| naive_exhaustive(&NonBipartite, black_box(&inst), max_bits))
    });
    group.finish();
}

fn bench_speedup_snapshot(c: &mut Criterion) {
    // Honour name filters even though this stage times work directly
    // (e.g. `cargo bench --bench engine -- naive` skips the snapshot).
    if !c.filter_matches("speedup-snapshot") {
        return;
    }
    let (n, max_bits) = workload(c);
    let inst = Instance::unlabeled(generators::cycle(n));

    // The engine and batch sides finish in well under a second, so a
    // single sample is at the mercy of scheduler noise — CI diffs these
    // numbers, so take the best of three (the naive side runs tens of
    // seconds and is comparatively stable; one sample suffices).
    let reps = if c.is_test_mode() { 1 } else { 3 };
    let timed = |policy: BatchPolicy| {
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..reps {
            let t = Instant::now();
            let out = engine_exhaustive(&inst, max_bits, policy);
            best = best.min(t.elapsed().as_secs_f64());
            result = Some(out);
        }
        (best, result.expect("at least one run"))
    };
    let (engine_s, engine_result) = timed(BatchPolicy::Scalar);
    let (batch_s, batch_result) = timed(BatchPolicy::Auto);

    let t = Instant::now();
    let naive_result = naive_exhaustive(&NonBipartite, &inst, max_bits);
    let naive_s = t.elapsed().as_secs_f64();

    assert_eq!(engine_result, naive_result, "executors must agree");
    assert_eq!(batch_result, naive_result, "batched executor must agree");
    let speedup = naive_s / engine_s;
    let batch_speedup = naive_s / batch_s;
    let Soundness::Holds(tried) = engine_result else {
        panic!("C{n} must be sound for chromatic>2");
    };
    println!(
        "engine-vs-naive: {tried} proofs on C{n} (max_bits = {max_bits}): \
         naive {naive_s:.3}s, engine {engine_s:.3}s ({speedup:.1}x), \
         batch {batch_s:.3}s ({batch_speedup:.1}x, {:.1}x over engine)",
        engine_s / batch_s
    );
    if !c.is_test_mode() {
        let json = format!(
            "{{\n  \"bench\": \"engine-vs-naive-exhaustive\",\n  \"graph\": \"cycle\",\n  \
             \"n\": {n},\n  \"max_bits\": {max_bits},\n  \"proofs\": {tried},\n  \
             \"naive_seconds\": {naive_s:.4},\n  \"engine_seconds\": {engine_s:.4},\n  \
             \"speedup\": {speedup:.2},\n  \"batch_seconds\": {batch_s:.4},\n  \
             \"batch_speedup\": {batch_speedup:.2}\n}}\n"
        );
        // Default to an untracked location so casual bench runs don't
        // dirty the committed reference snapshot; opt in to refreshing
        // the tracked BENCH_engine.json with LCP_BENCH_SNAPSHOT=1.
        // Paths are anchored to the workspace root regardless of the
        // bench binary's working directory.
        let path = if std::env::var_os("LCP_BENCH_SNAPSHOT").is_some_and(|v| v == "1") {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json")
        } else {
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../target/BENCH_engine.json"
            )
        };
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("could not write {path}: {e}");
        } else {
            println!("snapshot written to {path}");
        }
    }
}

criterion_group!(benches, bench_exhaustive, bench_speedup_snapshot);
criterion_main!(benches);
