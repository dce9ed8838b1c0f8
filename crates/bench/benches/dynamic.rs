//! Incremental reverify vs full evaluate under single-edge churn: the
//! comparison that justifies `lcp-dynamic`.
//!
//! Workload: the `Θ(log n)` non-bipartiteness scheme on large cycles,
//! grids, and random trees (n ≈ 10⁴). Each mutation deletes a seeded
//! random edge and re-inserts it (two single-edge mutations, returning
//! to the start state), and both executors must produce the same
//! verdict after every mutation:
//!
//! * `incremental` — a [`DynamicInstance`]: repair the two affected
//!   CSR balls, re-run only the dirty verifiers;
//! * `full` — what a consumer without the dynamic layer must do:
//!   re-prepare the instance (`PreparedInstance::new`) and evaluate
//!   every node.
//!
//! Besides criterion timings, the `churn-snapshot` stage measures both
//! sides and records `BENCH_dynamic.json` (committed reference: see
//! README § Benchmarks); the acceptance target is ≥ 10× on single-edge
//! churn at n ≥ 10⁴, and in practice the gap is orders of magnitude.

use criterion::{criterion_group, criterion_main, Criterion};
use lcp_core::engine::PreparedInstance;
use lcp_core::{Deadline, Instance, Proof, Scheme};
use lcp_dynamic::DynamicInstance;
use lcp_graph::families::GraphFamily;
use lcp_schemes::chromatic::NonBipartite;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Seeded edge picks: `(u, v)` pairs that are edges of `g` right now.
fn pick_edge(g: &lcp_graph::Graph, rng: &mut StdRng) -> (usize, usize) {
    loop {
        let u = rng.random_range(0..g.n());
        if g.degree(u) > 0 {
            let v = g.neighbors(u)[rng.random_range(0..g.degree(u))];
            return (u, v);
        }
    }
}

fn build(family: GraphFamily, n: usize) -> (Instance, Proof) {
    // Odd sizes make cycles non-bipartite, so the cycle cell runs with a
    // real honest proof; grids/trees are bipartite and run with ε.
    let g = family.generate(n | 1, 7);
    let inst = Instance::unlabeled(g);
    let proof = NonBipartite
        .prove(&inst)
        .unwrap_or_else(|| Proof::empty(inst.n()));
    (inst, proof)
}

/// `mutations` single-edge churn steps (delete + reinsert), incremental.
/// Returns the XOR-folded verdict stream so work cannot be elided.
fn incremental_churn(dynamic: &mut DynamicInstance, mutations: usize, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fold = 0u64;
    for step in 0..mutations {
        let (u, v) = pick_edge(dynamic.graph(), &mut rng);
        dynamic.delete_edge(u, v).expect("picked an existing edge");
        let out = dynamic.reverify();
        fold ^= (out.accepted as u64) << (step % 63);
        dynamic.insert_edge(u, v).expect("was just deleted");
        let out = dynamic.reverify();
        fold ^= (out.accepted as u64) << ((step + 31) % 63);
    }
    fold
}

/// The same churn with from-scratch re-preparation after every mutation.
fn full_churn(inst: &mut Instance, proof: &Proof, mutations: usize, seed: u64) -> u64 {
    let accepted = |inst: &Instance| {
        PreparedInstance::new(inst, NonBipartite.radius())
            .evaluate(&NonBipartite, proof, &Deadline::none())
            .expect("an unbounded sweep runs to the end")
            .accepted() as u64
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fold = 0u64;
    for step in 0..mutations {
        let (u, v) = pick_edge(inst.graph(), &mut rng);
        inst.remove_edge(u, v).expect("picked an existing edge");
        fold ^= accepted(inst) << (step % 63);
        inst.insert_edge(u, v).expect("was just removed");
        fold ^= accepted(inst) << ((step + 31) % 63);
    }
    fold
}

fn workload(c: &Criterion) -> (usize, usize) {
    // (n, mutations): smoke mode exercises the same code in milliseconds.
    if c.is_test_mode() {
        (400, 4)
    } else {
        (10_000, 24)
    }
}

fn bench_single_edge_churn(c: &mut Criterion) {
    let (n, mutations) = workload(c);
    let (inst, proof) = build(GraphFamily::Cycle, n);
    let mut group = c.benchmark_group(format!("churn-cycle-n{n}"));
    group.sample_size(1);
    group.bench_function("incremental", |b| {
        let mut dynamic =
            DynamicInstance::seal_with_proof(NonBipartite, inst.clone(), proof.clone());
        dynamic.reverify();
        b.iter(|| incremental_churn(black_box(&mut dynamic), mutations, 11))
    });
    group.bench_function("full", |b| {
        let mut inst = inst.clone();
        b.iter(|| full_churn(black_box(&mut inst), &proof, mutations, 11))
    });
    group.finish();
}

fn bench_churn_snapshot(c: &mut Criterion) {
    if !c.filter_matches("churn-snapshot") {
        return;
    }
    let (n, mutations) = workload(c);
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"dynamic-reverify-vs-full\",\n");
    let _ = writeln!(json, "  \"scheme\": \"chromatic>2\",");
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"mutations\": {},", mutations * 2);

    let families = [GraphFamily::Cycle, GraphFamily::Grid, GraphFamily::Tree];
    for (i, family) in families.iter().enumerate() {
        let (inst, proof) = build(*family, n);
        let real_n = inst.n();

        let mut dynamic =
            DynamicInstance::seal_with_proof(NonBipartite, inst.clone(), proof.clone());
        dynamic.reverify();
        // Warm-up pass, then best-of-three for the (fast) incremental side.
        incremental_churn(&mut dynamic, mutations, 11);
        let mut incremental_s = f64::INFINITY;
        let mut inc_fold = 0;
        for _ in 0..if c.is_test_mode() { 1 } else { 3 } {
            let t = Instant::now();
            inc_fold = incremental_churn(&mut dynamic, mutations, 11);
            incremental_s = incremental_s.min(t.elapsed().as_secs_f64());
        }

        let mut full_inst = inst.clone();
        let t = Instant::now();
        let full_fold = full_churn(&mut full_inst, &proof, mutations, 11);
        let full_s = t.elapsed().as_secs_f64();

        assert_eq!(
            inc_fold,
            full_fold,
            "{}: executors must agree",
            family.name()
        );
        let speedup = full_s / incremental_s;
        println!(
            "dynamic-vs-full on {} (n = {real_n}): {} single-edge mutations — \
             full {full_s:.3}s, incremental {incremental_s:.5}s, speedup {speedup:.0}x",
            family.name(),
            mutations * 2,
        );
        let _ = writeln!(json, "  \"{}_n\": {real_n},", family.name());
        let _ = writeln!(json, "  \"{}_full_seconds\": {full_s:.5},", family.name());
        let _ = writeln!(
            json,
            "  \"{}_incremental_seconds\": {incremental_s:.6},",
            family.name()
        );
        let _ = write!(json, "  \"{}_speedup\": {speedup:.1}", family.name());
        json.push_str(if i + 1 < families.len() { ",\n" } else { "\n" });
    }
    json.push_str("}\n");

    if !c.is_test_mode() {
        // Same snapshot policy as benches/engine.rs: casual runs land in
        // target/, LCP_BENCH_SNAPSHOT=1 refreshes the committed file.
        let path = if std::env::var_os("LCP_BENCH_SNAPSHOT").is_some_and(|v| v == "1") {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dynamic.json")
        } else {
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../target/BENCH_dynamic.json"
            )
        };
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("could not write {path}: {e}");
        } else {
            println!("snapshot written to {path}");
        }
    }
}

criterion_group!(benches, bench_single_edge_churn, bench_churn_snapshot);
criterion_main!(benches);
