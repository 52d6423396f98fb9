//! Power grading simulates on two-valued tape lanes, which is exact only
//! if a graded run never meets `X`. That holds when the tester's reset
//! loads every flip-flop and the test pattern drives every primary
//! input; this file checks both on every buildable paper design ×
//! encoding × don't-care fill × width, structurally and by simulation.

#![allow(clippy::unwrap_used)]

use sfr_power::{
    benchmarks, EmittedSystem, Encoding, FillPolicy, GateId, LaneValue, Logic, NetId, Pat, System,
    SystemConfig, TapeProgram, TapeSim, TestSet,
};

fn design(name: &str, width: usize) -> EmittedSystem {
    match name {
        "diffeq" => benchmarks::diffeq(width),
        "facet" => benchmarks::facet(width),
        "poly" => benchmarks::poly(width),
        "fir" => benchmarks::fir(width),
        other => panic!("unknown design {other}"),
    }
    .unwrap()
}

/// The reset loads exactly the sequential gates and the pattern drives
/// exactly the primary inputs.
fn assert_reset_and_pattern_cover_every_source(label: &str, sys: &System) {
    let mut reset: Vec<GateId> = sys.ctrl.state_gates.clone();
    reset.extend(sys.elab.reg_gates.iter().flatten());
    reset.sort_unstable();
    let mut sequential = sys.netlist.sequential_gates().to_vec();
    sequential.sort_unstable();
    assert_eq!(reset, sequential, "{label}: flip-flops outside the reset");
    let driven: Vec<NetId> = sys.data_inputs.iter().flatten().copied().collect();
    assert_eq!(
        driven,
        sys.netlist.inputs(),
        "{label}: inputs outside the pattern"
    );
}

/// A grading run from the known reset leaves no net `X` on the
/// three-valued tape, and the two-valued tape computes the same values.
fn assert_graded_runs_stay_binary(label: &str, sys: &System) {
    let three = TapeProgram::<Pat>::compile(&sys.netlist, &[]).unwrap();
    let two = TapeProgram::<u64>::compile(&sys.netlist, &[]).unwrap();
    let mut pat = TapeSim::new(&three);
    let mut bin = TapeSim::new(&two);
    sys.reset_tape(&mut pat, Logic::Zero);
    sys.reset_tape(&mut bin, Logic::Zero);
    let ts = TestSet::pseudorandom(sys.pattern_width(), 12, 0xACE1).unwrap();
    for (cycle, &pattern) in ts.patterns().iter().enumerate() {
        sys.apply_pattern_tape(&mut pat, pattern);
        sys.apply_pattern_tape(&mut bin, pattern);
        pat.eval();
        bin.eval();
        for net in sys.netlist.net_ids() {
            let v = pat.value(net).lane(0);
            assert!(
                v.is_known(),
                "{label}: net {} is X in cycle {cycle}",
                sys.netlist.net(net).name()
            );
            assert_eq!(bin.value(net).lane(0), v, "{label}: cycle {cycle}");
        }
        pat.clock();
        bin.clock();
    }
}

#[test]
fn two_valued_grading_precondition_holds_on_every_system() {
    let fills = [
        FillPolicy::Synthesis,
        FillPolicy::Zeros,
        FillPolicy::Ones,
        FillPolicy::Arbitrary(0x5EED),
    ];
    let mut checked = 0;
    for name in ["diffeq", "facet", "poly", "fir"] {
        for width in [4, 7, 12] {
            let emitted = design(name, width);
            for encoding in [Encoding::Binary, Encoding::Gray, Encoding::OneHot] {
                for fill in fills {
                    let label = format!("{name}/w{width}/{encoding}/{fill}");
                    let sys = System::build(&emitted, SystemConfig { encoding, fill }).unwrap();
                    assert_reset_and_pattern_cover_every_source(&label, &sys);
                    assert_graded_runs_stay_binary(&label, &sys);
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 4 * 3 * 3 * 4);
}
