//! Ablation: the scalar reference campaign vs the 63-lane compiled
//! tape campaign — the substrate speed-up claim of `DESIGN.md`.

#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use sfr_core::{
    benchmarks, golden_trace, run_serial, run_tape_counted, RunConfig, System, SystemConfig,
    TestSet,
};

fn bench(c: &mut Criterion) {
    let emitted = benchmarks::diffeq(4).expect("diffeq builds");
    let sys = System::build(&emitted, SystemConfig::default()).expect("system builds");
    let ts = TestSet::pseudorandom(sys.pattern_width(), 240, 0xACE1).expect("test set");
    let golden = golden_trace(&sys, &ts, &RunConfig::default());
    let faults = sys.controller_faults();

    let mut g = c.benchmark_group("ablation_faultsim");
    g.sample_size(10);
    g.bench_function("serial", |b| b.iter(|| run_serial(&sys, &golden, &faults)));
    g.bench_function("tape_63_lanes", |b| {
        b.iter(|| run_tape_counted(&sys, &golden, &faults))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
