//! Criterion micro-benches: prover and verifier cost for representative
//! schemes across the hierarchy levels.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use lcp_core::{evaluate, prepare, Deadline, Instance, Scheme};
use lcp_graph::{generators, spanning};
use lcp_schemes::bipartite::Bipartite;
use lcp_schemes::chromatic::NonBipartite;
use lcp_schemes::leader::LeaderElection;
use lcp_schemes::spanning_tree::SpanningTree;
use lcp_schemes::universal::prime_order;
use std::hint::black_box;

fn bench_provers(c: &mut Criterion) {
    let mut group = c.benchmark_group("prove");
    for n in [32usize, 128, 512] {
        let even = Instance::unlabeled(generators::cycle(n));
        group.bench_with_input(BenchmarkId::new("bipartite", n), &even, |b, inst| {
            b.iter(|| Bipartite.prove(black_box(inst)))
        });
        let odd = Instance::unlabeled(generators::cycle(n + 1));
        group.bench_with_input(BenchmarkId::new("chromatic>2", n + 1), &odd, |b, inst| {
            b.iter(|| NonBipartite.prove(black_box(inst)))
        });
        let leader: Instance<bool> =
            Instance::with_node_data(generators::cycle(n), (0..n).map(|v| v == 0).collect());
        group.bench_with_input(
            BenchmarkId::new("leader-election", n),
            &leader,
            |b, inst| b.iter(|| LeaderElection.prove(black_box(inst))),
        );
    }
    // The universal O(n²) prover, at smaller sizes.
    let uni = prime_order();
    for n in [11usize, 23, 47] {
        let inst = Instance::unlabeled(generators::cycle(n));
        group.bench_with_input(BenchmarkId::new("universal", n), &inst, |b, inst| {
            b.iter(|| uni.prove(black_box(inst)))
        });
    }
    group.finish();
}

fn bench_verifiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify-all-nodes");
    for n in [32usize, 128, 512] {
        let inst = Instance::unlabeled(generators::cycle(n));
        let proof = Bipartite.prove(&inst).expect("even cycle");
        group.bench_with_input(
            BenchmarkId::new("bipartite", n),
            &(inst, proof),
            |b, (inst, proof)| b.iter(|| evaluate(&Bipartite, black_box(inst), black_box(proof))),
        );
        let odd = Instance::unlabeled(generators::cycle(n + 1));
        let oproof = NonBipartite.prove(&odd).expect("odd cycle");
        group.bench_with_input(
            BenchmarkId::new("chromatic>2", n + 1),
            &(odd, oproof),
            |b, (inst, proof)| {
                b.iter(|| evaluate(&NonBipartite, black_box(inst), black_box(proof)))
            },
        );
    }
    group.finish();
}

/// The sequential sweep a resident daemon `verify` runs
/// (`PreparedInstance::evaluate` on a prepared core and a held
/// honest proof), per scheme, at n = 10⁴.
fn bench_resident_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify-resident");
    group.sample_size(50);
    for (family, g) in [
        ("cycle", generators::cycle(10_000)),
        ("grid", generators::grid(100, 100)),
    ] {
        let tree = spanning::bfs_spanning_tree(&g, 0);
        let edges = g.nodes().filter_map(|v| tree.parent(v).map(|p| (v, p)));
        let leader = (0..g.n()).map(|v| v == 0).collect();
        resident_sweep(
            &mut group,
            family,
            &Bipartite,
            &Instance::unlabeled(g.clone()),
        );
        let spanning = Instance::unlabeled(g.clone()).with_edge_set(edges);
        resident_sweep(&mut group, family, &SpanningTree, &spanning);
        resident_sweep(
            &mut group,
            family,
            &LeaderElection,
            &Instance::with_node_data(g, leader),
        );
    }
    group.finish();
}

fn resident_sweep<S: Scheme<Node: Send + Sync, Edge: Send + Sync>>(
    group: &mut BenchmarkGroup<'_>,
    family: &str,
    scheme: &S,
    inst: &Instance<S::Node, S::Edge>,
) {
    let prep = prepare(scheme, inst);
    let proof = scheme.prove(inst).expect("a yes-instance");
    group.bench_function(format!("{}/{family}", scheme.name()), |b| {
        b.iter(|| prep.evaluate(scheme, black_box(&proof), &Deadline::none()))
    });
}

fn bench_simulator_ablation(c: &mut Criterion) {
    // Ablation: centralized view extraction vs full message passing.
    let mut group = c.benchmark_group("executor-ablation");
    let n = 128;
    let inst = Instance::unlabeled(generators::cycle(n));
    let proof = Bipartite.prove(&inst).expect("even cycle");
    group.bench_function("centralized", |b| {
        b.iter(|| evaluate(&Bipartite, black_box(&inst), black_box(&proof)))
    });
    group.bench_function("message-passing", |b| {
        b.iter(|| lcp_sim::run_distributed(&Bipartite, black_box(&inst), black_box(&proof)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_provers,
    bench_verifiers,
    bench_resident_sweep,
    bench_simulator_ablation
);
criterion_main!(benches);
