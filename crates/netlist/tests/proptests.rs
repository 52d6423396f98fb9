//! Property-based tests of the gate-level simulators.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use sfr_netlist::{
    write_verilog, CellKind, CycleSim, LaneValue, Logic, Netlist, NetlistBuilder, Pat, StuckAt,
    TapeEnergy, TapeProgram, TapeSim,
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

/// A random packing of `nl`'s collapsed faults: rotate the list by
/// `rot` and fill a whole 63-fault pack, repeating faults if the list
/// is shorter.
fn random_pack(nl: &Netlist, rot: u64) -> Vec<StuckAt> {
    let all = StuckAt::enumerate_collapsed(nl);
    let start = (rot as usize) % all.len();
    all.iter().cycle().skip(start).take(63).copied().collect()
}

/// One scalar simulator per lane of `batch` (lane 0 fault-free), with
/// activity tracking on and every flip-flop at `reset(gate index)`.
fn scalar_lanes<'n>(
    nl: &'n Netlist,
    batch: &[StuckAt],
    reset: impl Fn(usize) -> Logic,
) -> Vec<CycleSim<'n>> {
    std::iter::once(CycleSim::new(nl))
        .chain(batch.iter().map(|&f| CycleSim::with_fault(nl, f)))
        .map(|mut s| {
            s.track_activity(true);
            for &g in nl.sequential_gates() {
                s.set_state(g, reset(g.index()));
            }
            s
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every lane of the three-valued tape reproduces a scalar
    /// `CycleSim` run of that lane's circuit — every net value every
    /// cycle, and the detected and potentially-detected masks — over
    /// random netlists, random fault packings, and random stimulus
    /// including `X` inputs.
    #[test]
    fn three_valued_tape_lanes_equal_scalar_runs(
        seed in 1u64..3000,
        rot in any::<u64>(),
        stimulus in proptest::collection::vec(0u8..27, 1..24),
    ) {
        let nl = random_seq(seed);
        let batch = random_pack(&nl, rot);
        let prog = TapeProgram::<Pat>::compile(&nl, &batch).expect("fits");
        let mut tape = TapeSim::new(&prog);
        tape.reset_state(Logic::Zero);
        let mut scalars = scalar_lanes(&nl, &batch, |_| Logic::Zero);
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
            prop_assert!((detected | potential) & 1 == 0, "lane 0 is the reference");
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
                prop_assert_eq!(detected >> lane & 1 == 1, det, "detected, lane {}", lane);
                prop_assert_eq!(potential >> lane & 1 == 1, pot, "potential, lane {}", lane);
            }
            tape.clock();
            for s in scalars.iter_mut() {
                s.clock();
            }
        }
    }

    /// Every lane of the two-valued tape reproduces a scalar `CycleSim`
    /// run of that lane's circuit — every net value every cycle, and
    /// the per-lane switching and clock sums equal to the scalar toggle
    /// and clock-event counts weighted alike — over random netlists,
    /// random fault packings, every flip-flop reset to a random bit, and
    /// random binary stimulus. The sums are checked under random whole
    /// weights and under a one-hot weight on each net and on each
    /// flip-flop, which pins every count of every lane.
    #[test]
    fn two_valued_tape_lanes_and_energy_equal_scalar_runs(
        seed in 1u64..3000,
        rot in any::<u64>(),
        reset_bits in any::<u64>(),
        weight_seed in any::<u64>(),
        stimulus in proptest::collection::vec(0u8..8, 1..24),
    ) {
        let nl = random_seq(seed);
        let batch = random_pack(&nl, rot);
        let reset = |gate: usize| Logic::from_bool(reset_bits >> (gate % 64) & 1 == 1);
        let inputs = |bits: u8| [logic_of(bits, 0), logic_of(bits, 1), logic_of(bits, 2)];
        let prog = TapeProgram::<u64>::compile(&nl, &batch).expect("fits");
        let mut tape = TapeSim::new(&prog);
        let reset_tape = |tape: &mut TapeSim<'_, u64>| {
            for &g in nl.sequential_gates() {
                tape.set_gate_state(g, u64::splat(reset(g.index())));
            }
        };
        reset_tape(&mut tape);
        let mut scalars = scalar_lanes(&nl, &batch, reset);
        for &bits in &stimulus {
            tape.set_inputs(&inputs(bits));
            tape.eval();
            for (lane, s) in scalars.iter_mut().enumerate() {
                s.set_inputs(&inputs(bits));
                s.eval();
                for net in nl.net_ids() {
                    prop_assert_eq!(
                        tape.value(net).lane(lane),
                        s.value(net),
                        "net {} lane {}", nl.net(net).name(), lane
                    );
                }
                s.clock();
            }
            tape.clock();
        }
        for (net_ff, clock_ff) in weightings(&nl, weight_seed) {
            let mut energy = TapeEnergy::new(&prog, &net_ff, &clock_ff);
            reset_tape(&mut tape);
            for &bits in &stimulus {
                tape.set_inputs(&inputs(bits));
                tape.eval();
                tape.clock_counting(&mut energy);
            }
            for (lane, s) in scalars.iter().enumerate() {
                let a = s.activity();
                let switching: u64 = a.net_toggles.iter().zip(&net_ff).map(|(t, w)| t * w).sum();
                let clock: u64 = a.clock_events.iter().zip(&clock_ff).map(|(e, w)| e * w).sum();
                prop_assert_eq!(energy.cycles(), a.cycles, "lane {}", lane);
                prop_assert_eq!(energy.switching_ff(lane), switching, "switching, lane {}", lane);
                prop_assert_eq!(energy.clock_ff(lane), clock, "clock, lane {}", lane);
            }
        }
    }
}

/// Random whole weights, then a one-hot weight on each net, then one on
/// each flip-flop's clock: `(net_ff, clock_ff)` per weighting.
fn weightings(nl: &Netlist, seed: u64) -> Vec<(Vec<u64>, Vec<u64>)> {
    let (nets, gates) = (nl.net_count(), nl.gate_count());
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s % 1000
    };
    let random = (
        (0..nets).map(|_| next()).collect(),
        (0..gates).map(|_| next()).collect(),
    );
    let one_hot =
        |len: usize, at: usize| -> Vec<u64> { (0..len).map(|i| u64::from(i == at)).collect() };
    std::iter::once(random)
        .chain((0..nets).map(|n| (one_hot(nets, n), vec![0; gates])))
        .chain(
            nl.sequential_gates()
                .iter()
                .map(|g| (vec![0; nets], one_hot(gates, g.index()))),
        )
        .collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The export of a random sequential netlist declares every net
    /// once, plus `clk`, and writes one instance or assign line per
    /// gate, driving that gate's output net.
    #[test]
    fn exported_verilog_declares_each_net_and_gate_once(seed in 1u64..3000) {
        let nl = random_seq(seed);
        let mut text = Vec::new();
        write_verilog(&nl, &mut text).unwrap();
        let (mut declared, mut driven) = (Vec::new(), Vec::new());
        for line in String::from_utf8(text).unwrap().lines() {
            let body = line.trim().trim_end_matches(';');
            if let Some(net) = ["input ", "output ", "wire "]
                .iter()
                .find_map(|decl| body.strip_prefix(decl))
            {
                declared.push(net.to_string());
            } else if let Some(assign) = body.strip_prefix("assign ") {
                driven.push(assign.split(" = ").next().unwrap().to_string());
            } else if body.starts_with("SFR_") {
                let out = body.find(".y(").or_else(|| body.find(".q(")).unwrap() + 3;
                driven.push(body[out..].split(')').next().unwrap().to_string());
            }
        }
        let name = |n: sfr_netlist::NetId| format!("n_{}", nl.net(n).name());
        let mut nets: Vec<String> = nl.net_ids().map(name).collect();
        nets.push("clk".into());
        let mut outputs: Vec<String> = nl.gate_ids().map(|g| name(nl.gate(g).output())).collect();
        declared.sort();
        nets.sort();
        driven.sort();
        outputs.sort();
        prop_assert_eq!(declared, nets);
        prop_assert_eq!(driven, outputs);
    }
}
