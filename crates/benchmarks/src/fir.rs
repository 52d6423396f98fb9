//! A three-tap FIR filter — an extension benchmark beyond the paper's
//! three circuits.
//!
//! `y[t] = c0·x[t] + c1·x[t-1] + c2·x[t-2]`, run for a fixed number of
//! samples. Structurally it exercises two patterns the paper's circuits
//! don't: a **register delay line** (register-to-register moves through
//! the registers' input muxes) and **per-iteration input sampling**
//! (the `x` port is read inside the loop, not just in the prologue).
//! Both create their own flavours of control-line don't-cares and
//! lifespans, broadening the SFR population the test suite exercises.

use sfr_hls::{emit, BindingBuilder, DesignBuilder, EmitError, EmittedSystem, Rhs};
use sfr_rtl::FuOp;

/// Number of samples processed per run.
pub const FIR_SAMPLES: u64 = 8;

/// Builds the FIR filter at the given datapath width.
///
/// # Errors
///
/// Returns the [`EmitError`] datapath validation raises when `width < 4`,
/// where the sample counter's bound [`FIR_SAMPLES`] does not fit the
/// datapath width.
pub fn fir(width: usize) -> Result<EmittedSystem, EmitError> {
    let mut d = DesignBuilder::new("fir", width, 6);
    let x_in = d.port("x_in");
    let c0_in = d.port("c0_in");
    let c1_in = d.port("c1_in");
    let c2_in = d.port("c2_in");

    let c0 = d.var("c0");
    let c1 = d.var("c1");
    let c2 = d.var("c2");
    let cnt = d.var("cnt");
    let xs = d.var("xs"); // current sample
    let xd1 = d.var("xd1"); // x[t-1]
    let xd2 = d.var("xd2"); // x[t-2]
    let t0 = d.var("t0");
    let t1 = d.var("t1");
    let t2 = d.var("t2");
    let s1 = d.var("s1");
    let y1 = d.var("y1");
    let cnt1 = d.var("cnt1");
    let xd1n = d.var("xd1n");
    let xd2n = d.var("xd2n");
    let more = d.var("more"); // cnt1 < FIR_SAMPLES

    // CS1 (prologue): coefficients, zeroed delay line and counter.
    d.sample(1, c0, Rhs::Port(c0_in));
    d.sample(1, c1, Rhs::Port(c1_in));
    d.sample(1, c2, Rhs::Port(c2_in));
    d.sample(1, cnt, Rhs::Const(0));
    d.sample(1, xd1, Rhs::Const(0));
    d.sample(1, xd2, Rhs::Const(0));
    // Loop body CS2..CS6: one sample per iteration.
    d.sample(2, xs, Rhs::Port(x_in));
    let o_t0 = d.compute(3, t0, FuOp::Mul, Rhs::Var(c0), Rhs::Var(xs));
    let o_cn = d.compute(3, cnt1, FuOp::Add, Rhs::Var(cnt), Rhs::Const(1));
    let o_t1 = d.compute(4, t1, FuOp::Mul, Rhs::Var(c1), Rhs::Var(xd1));
    let o_mo = d.compute(4, more, FuOp::Lt, Rhs::Var(cnt1), Rhs::Const(FIR_SAMPLES));
    let o_t2 = d.compute(5, t2, FuOp::Mul, Rhs::Var(c2), Rhs::Var(xd2));
    let o_s1 = d.compute(5, s1, FuOp::Add, Rhs::Var(t0), Rhs::Var(t1));
    let o_y1 = d.compute(6, y1, FuOp::Add, Rhs::Var(s1), Rhs::Var(t2));
    // Delay-line shift: register-to-register moves.
    d.sample(6, xd1n, Rhs::Var(xs));
    d.sample(6, xd2n, Rhs::Var(xd1));

    d.output("y_out", y1);
    let st = d.status(more);
    d.loop_while(st, true, 2);
    d.carry(cnt1, cnt);
    d.carry(xd1n, xd1);
    d.carry(xd2n, xd2);
    let design = d.finish().expect("fir design is valid");

    let mut b = BindingBuilder::new(&design);
    b.bind(c0, "REG1")
        .bind(c1, "REG2")
        .bind(c2, "REG3")
        .bind(cnt, "REG4")
        .bind(cnt1, "REG4")
        .bind(xs, "REG5")
        .bind(xd1, "REG6")
        .bind(xd1n, "REG6")
        .bind(xd2, "REG7")
        .bind(xd2n, "REG7")
        .bind(t0, "REG8")
        .bind(t1, "REG9")
        .bind(t2, "REG10")
        .bind(s1, "REG8") // t0's register frees at CS5
        .bind(y1, "REG11")
        .bind(more, "REG12")
        .bind_op(o_t0, "MUL1")
        .bind_op(o_t1, "MUL1")
        .bind_op(o_t2, "MUL1")
        .bind_op(o_cn, "ADD1")
        .bind_op(o_s1, "ADD1")
        .bind_op(o_y1, "ADD1")
        .bind_op(o_mo, "CMP1");
    let binding = b.finish().expect("fir binding is valid");
    emit(&design, &binding)
}

/// Software reference model with a constant input `x` (how the
/// integration tests drive it): the filter output after all
/// [`FIR_SAMPLES`] samples.
pub fn fir_reference_constant_input(x: u64, c0: u64, c1: u64, c2: u64, width: usize) -> u64 {
    let (mut xd1, mut xd2) = (0u64, 0u64);
    let mut y = 0u64;
    for _ in 0..FIR_SAMPLES {
        let t0 = FuOp::Mul.apply(c0, x, width);
        let t1 = FuOp::Mul.apply(c1, xd1, width);
        let t2 = FuOp::Mul.apply(c2, xd2, width);
        let s1 = FuOp::Add.apply(t0, t1, width);
        y = FuOp::Add.apply(s1, t2, width);
        xd2 = xd1;
        xd1 = x;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_has_delay_line_and_loop() {
        let sys = fir(4).expect("builds");
        assert_eq!(sys.datapath.registers().len(), 12);
        assert_eq!(sys.fsm.state_count(), 8); // RESET + 6 + HOLD
        let l = sys.meta.loop_spec.expect("loops");
        assert_eq!(l.back_to, 2);
        // The delay registers take inputs from two sources (initial
        // zero / shifted value), so they sit behind input muxes.
        let reg6 = sys
            .datapath
            .registers()
            .iter()
            .find(|r| r.name() == "REG6")
            .unwrap();
        assert!(matches!(reg6.src(), sfr_rtl::DataSrc::Mux(_)));
    }

    #[test]
    fn reference_model_steady_state() {
        // After >= 3 samples of constant x, y = (c0+c1+c2)*x (wrapped).
        let y = fir_reference_constant_input(2, 1, 2, 3, 8);
        assert_eq!(y, 12);
        let y4 = fir_reference_constant_input(3, 1, 1, 1, 4);
        assert_eq!(y4, 9);
    }

    #[test]
    fn builds_at_wider_widths() {
        for w in [4, 8] {
            assert!(fir(w).is_ok());
        }
    }
}
