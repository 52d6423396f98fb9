//! Micro-benches of the substrate layers: logic minimization, gate-level
//! simulation, and power accounting.

#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use sfr_core::{
    benchmarks, power_from_activity, CycleSim, Logic, PowerConfig, System, SystemConfig,
};

fn bench(c: &mut Criterion) {
    let emitted = benchmarks::diffeq(4).expect("diffeq builds");
    let sys = System::build(&emitted, SystemConfig::default()).expect("system builds");

    let mut g = c.benchmark_group("substrates");
    g.sample_size(20);

    g.bench_function("qm_minimize_4var", |b| {
        b.iter(|| {
            let mut cubes = 0usize;
            for truth in [0x1ee1u32, 0xcafe, 0x8421, 0x7777] {
                let on: Vec<u32> = (0..16).filter(|&m| truth >> m & 1 == 1).collect();
                cubes += sfr_core::minimize(4, &on, &[]).cube_count();
            }
            cubes
        })
    });

    g.bench_function("diffeq_system_1000_cycles", |b| {
        b.iter(|| {
            let mut sim = CycleSim::new(&sys.netlist);
            sys.reset_sim(&mut sim, Logic::Zero);
            let inputs = vec![Logic::One; sys.netlist.inputs().len()];
            for _ in 0..1000 {
                sim.step(&inputs);
            }
            sim.outputs()
        })
    });

    g.bench_function("power_accounting", |b| {
        let mut sim = CycleSim::new(&sys.netlist);
        sim.track_activity(true);
        sys.reset_sim(&mut sim, Logic::Zero);
        let inputs = vec![Logic::One; sys.netlist.inputs().len()];
        for _ in 0..200 {
            sim.step(&inputs);
        }
        let act = sim.activity().clone();
        b.iter(|| power_from_activity(&sys.netlist, &act, &PowerConfig::default()))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
