//! Property-based tests of the gate-level simulators.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sfr_netlist::{
    CellKind, CycleSim, Logic, Netlist, NetlistBuilder, StuckAt, TapeProgram, TapeSim, TapeWord,
};

/// A fixed small sequential circuit with reconvergent fanout and a
/// gated register — rich enough to exercise every simulator path.
fn circuit() -> Netlist {
    let mut b = NetlistBuilder::new("c");
    let a = b.input("a");
    let c = b.input("b");
    let en = b.input("en");
    let q = b.net("q");
    let x1 = b.gate_net(CellKind::Xor2, "x1", &[a, c]);
    let n1 = b.gate_net(CellKind::Nand2, "n1", &[x1, q]);
    let o1 = b.gate_net(CellKind::Or2, "o1", &[n1, a]);
    b.gate(CellKind::Dffe, "r", &[o1, en], q);
    let out = b.gate_net(CellKind::Xnor2, "out", &[q, x1]);
    b.mark_output(out);
    b.mark_output(q);
    b.finish().expect("valid")
}

fn logic_of(bits: u8, i: usize) -> Logic {
    Logic::from_bool(bits >> i & 1 == 1)
}

/// Input `i` of a three-input stimulus word in base 3 (0, 1, or X), so
/// random stimulus covers unknown inputs too.
fn trit_of(word: u8, i: usize) -> Logic {
    match word / 3u8.pow(i as u32) % 3 {
        0 => Logic::Zero,
        1 => Logic::One,
        _ => Logic::X,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Injecting a stuck-at fault and driving the node to the stuck
    /// value yields exactly the fault-free circuit (fault masking).
    #[test]
    fn fault_invisible_when_node_already_at_stuck_value(bits in 0u8..8) {
        let nl = circuit();
        // Input stem stuck at v, input driven to v: identical behaviour.
        let a = nl.find_net("a").unwrap();
        for stuck in [false, true] {
            let mut faulty = CycleSim::with_fault(&nl, StuckAt::primary_input(a, stuck));
            let mut clean = CycleSim::new(&nl);
            faulty.reset_state(Logic::Zero);
            clean.reset_state(Logic::Zero);
            let inputs = [
                Logic::from_bool(stuck),
                logic_of(bits, 1),
                logic_of(bits, 2),
            ];
            for _ in 0..4 {
                faulty.set_inputs(&inputs);
                clean.set_inputs(&inputs);
                faulty.eval();
                clean.eval();
                prop_assert_eq!(faulty.outputs(), clean.outputs());
                faulty.clock();
                clean.clock();
            }
        }
    }

    /// Activity accounting is additive: simulating a stimulus in one go
    /// or in two halves (merging the activities) gives identical counts.
    #[test]
    fn activity_is_additive(stimulus in proptest::collection::vec(0u8..8, 2..24)) {
        let nl = circuit();
        let run = |stim: &[u8], sim: &mut CycleSim| {
            for &bits in stim {
                sim.step(&[logic_of(bits, 0), logic_of(bits, 1), logic_of(bits, 2)]);
            }
        };
        let mut whole = CycleSim::new(&nl);
        whole.track_activity(true);
        whole.reset_state(Logic::Zero);
        run(&stimulus, &mut whole);

        let mid = stimulus.len() / 2;
        let mut halves = CycleSim::new(&nl);
        halves.track_activity(true);
        halves.reset_state(Logic::Zero);
        run(&stimulus[..mid], &mut halves);
        let mut first = halves.take_activity();
        run(&stimulus[mid..], &mut halves);
        // NOTE: take_activity resets the "previous values" baseline, so
        // the second half re-anchors; tolerate a ±1 difference per net
        // at the seam and require exact equality elsewhere.
        first.merge(halves.activity()).expect("same netlist merges");
        prop_assert_eq!(first.cycles, whole.activity().cycles);
        for (i, (&a, &b)) in first
            .net_toggles
            .iter()
            .zip(&whole.activity().net_toggles)
            .enumerate()
        {
            prop_assert!(
                a.abs_diff(b) <= 1,
                "net {i}: split {a} vs whole {b}"
            );
        }
        prop_assert_eq!(&first.clock_events, &whole.activity().clock_events);
    }

    /// Three-valued pessimism: replacing any input with X never turns a
    /// known output into a *different* known output.
    #[test]
    fn x_is_monotone_pessimistic(bits in 0u8..8, which in 0usize..3) {
        let nl = circuit();
        let mut known = CycleSim::new(&nl);
        let mut hazy = CycleSim::new(&nl);
        known.reset_state(Logic::Zero);
        hazy.reset_state(Logic::Zero);
        let full = [logic_of(bits, 0), logic_of(bits, 1), logic_of(bits, 2)];
        let mut masked = full;
        masked[which] = Logic::X;
        for _ in 0..3 {
            known.set_inputs(&full);
            hazy.set_inputs(&masked);
            known.eval();
            hazy.eval();
            for (k, h) in known.outputs().iter().zip(hazy.outputs()) {
                prop_assert!(
                    !h.is_known() || *k == h,
                    "X input produced a contradictory known output"
                );
            }
            known.clock();
            hazy.clock();
        }
    }
}

/// Random small sequential circuits: a random combinational cloud over
/// three inputs plus two register feedback nets (one plain [`Dff`], one
/// clock-gated [`Dffe`]).
///
/// [`Dff`]: CellKind::Dff
/// [`Dffe`]: CellKind::Dffe
fn random_seq(seed: u64) -> Netlist {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut b = NetlistBuilder::new("randseq");
    let mut nets: Vec<sfr_netlist::NetId> = (0..3).map(|i| b.input(format!("i{i}"))).collect();
    let q1 = b.net("q1");
    let q2 = b.net("q2");
    nets.push(q1);
    nets.push(q2);
    let kinds = [
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Inv,
        CellKind::Mux2,
    ];
    for g in 0..8 {
        let kind = kinds[(next() % kinds.len() as u64) as usize];
        let ins: Vec<sfr_netlist::NetId> = (0..kind.arity())
            .map(|_| nets[(next() % nets.len() as u64) as usize])
            .collect();
        let out = b.gate_net(kind, format!("g{g}"), &ins);
        nets.push(out);
    }
    let mut pick = |nets: &[sfr_netlist::NetId]| nets[(next() % nets.len() as u64) as usize];
    let d1 = pick(&nets);
    let en = pick(&nets);
    let d2 = pick(&nets);
    b.gate(CellKind::Dffe, "r1", &[d1, en], q1);
    b.gate(CellKind::Dff, "r2", &[d2], q2);
    b.mark_output(*nets.last().unwrap());
    b.mark_output(q1);
    b.finish().expect("valid random sequential netlist")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every lane of the compiled tape reproduces a scalar `CycleSim`
    /// run of that lane's circuit — every net value every cycle, the
    /// detected and potentially-detected masks, and the extracted
    /// per-lane toggle and clock-event counts — over random netlists,
    /// random fault packings, and random stimulus including `X` inputs.
    #[test]
    fn tape_lanes_equal_scalar_runs(
        seed in 1u64..3000,
        rot in any::<u64>(),
        stimulus in proptest::collection::vec(0u8..27, 1..24),
    ) {
        let nl = random_seq(seed);
        let all = StuckAt::enumerate_collapsed(&nl);
        // A random packing: rotate the collapsed fault list and fill a
        // whole 63-fault pack, repeating faults if the list is shorter.
        let start = (rot as usize) % all.len();
        let batch: Vec<StuckAt> = all.iter().cycle().skip(start).take(63).copied().collect();
        let prog = TapeProgram::<u64>::compile(&nl, &batch).expect("fits");
        let mut tape = TapeSim::new(&prog);
        tape.track_activity(true);
        tape.reset_state(Logic::Zero);
        let mut scalars: Vec<CycleSim> = std::iter::once(CycleSim::new(&nl))
            .chain(batch.iter().map(|&f| CycleSim::with_fault(&nl, f)))
            .map(|mut s| {
                s.track_activity(true);
                s.reset_state(Logic::Zero);
                s
            })
            .collect();
        for &word in &stimulus {
            let inputs = [trit_of(word, 0), trit_of(word, 1), trit_of(word, 2)];
            tape.set_inputs(&inputs);
            tape.eval();
            for s in scalars.iter_mut() {
                s.set_inputs(&inputs);
                s.eval();
            }
            let golden = scalars[0].outputs();
            let (detected, potential) = (tape.detected_mask(), tape.potentially_detected_mask());
            prop_assert!(!detected.bit(0) && !potential.bit(0), "lane 0 is the reference");
            for (lane, s) in scalars.iter().enumerate() {
                for net in nl.net_ids() {
                    prop_assert_eq!(
                        tape.value(net).lane(lane),
                        s.value(net),
                        "net {} lane {}", nl.net(net).name(), lane
                    );
                }
                if lane == 0 {
                    continue;
                }
                let out = s.outputs();
                let det = out.iter().zip(&golden).any(|(g, w)| g.definitely_differs(*w));
                let pot = out.iter().zip(&golden).any(|(g, w)| w.is_known() && !g.is_known());
                prop_assert_eq!(detected.bit(lane), det, "detected, lane {}", lane);
                prop_assert_eq!(potential.bit(lane), pot, "potential, lane {}", lane);
            }
            tape.clock();
            for s in scalars.iter_mut() {
                s.clock();
            }
        }
        for (lane, s) in scalars.iter().enumerate() {
            let got = tape.lane_activity(lane);
            let want = s.activity();
            prop_assert_eq!(got.cycles, want.cycles, "lane {}", lane);
            prop_assert_eq!(&got.net_toggles, &want.net_toggles, "lane {}", lane);
            prop_assert_eq!(&got.clock_events, &want.clock_events, "lane {}", lane);
        }
    }
}

/// Random 4-input combinational circuits for ATPG cross-checking.
fn random_comb(seed: u64) -> Netlist {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut b = NetlistBuilder::new("rand");
    let mut nets: Vec<sfr_netlist::NetId> = (0..4).map(|i| b.input(format!("i{i}"))).collect();
    let kinds = [
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Inv,
        CellKind::Mux2,
    ];
    for g in 0..10 {
        let kind = kinds[(next() % kinds.len() as u64) as usize];
        let pick = |n: &mut dyn FnMut() -> u64, nets: &[sfr_netlist::NetId]| {
            nets[(n() % nets.len() as u64) as usize]
        };
        let ins: Vec<sfr_netlist::NetId> =
            (0..kind.arity()).map(|_| pick(&mut next, &nets)).collect();
        let out = b.gate_net(kind, format!("g{g}"), &ins);
        nets.push(out);
    }
    let out = *nets.last().unwrap();
    b.mark_output(out);
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PODEM's testable/untestable verdicts agree with brute force over
    /// all 16 input combinations, on random combinational circuits.
    #[test]
    fn atpg_agrees_with_brute_force(seed in 1u64..5000) {
        use sfr_netlist::{u64_to_logic, Atpg, TestOutcome};
        let nl = random_comb(seed);
        let atpg = Atpg::new(&nl);
        for fault in StuckAt::enumerate_collapsed(&nl) {
            let verdict = match atpg.generate(fault) {
                TestOutcome::Test(v) => {
                    prop_assert!(
                        atpg.check_test(fault, &v),
                        "witness for {} does not simulate (seed {seed})", fault
                    );
                    true
                }
                TestOutcome::Untestable => false,
                TestOutcome::Aborted => continue,
            };
            let brute = (0..16u64).any(|m| atpg.check_test(fault, &u64_to_logic(m, 4)));
            prop_assert_eq!(verdict, brute, "disagreement on {} (seed {})", fault, seed);
        }
    }
}
