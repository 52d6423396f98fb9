//! The differential equation solver (HAL) benchmark.
//!
//! The classic high-level synthesis benchmark [11] the paper uses as its
//! running example: one Euler step of `y'' + 3xy' + 3y = 0`, iterated
//! while `x < a`:
//!
//! ```text
//! while x < a {
//!     x1 = x + dx;
//!     u1 = u - (3*x*u*dx) - (3*y*dx);
//!     y1 = y + u*dx;
//!     x = x1; u = u1; y = y1;
//! }
//! output y
//! ```
//!
//! The schedule below uses the classic HAL resource mix — two
//! multipliers, an adder, a subtractor and a comparator — over 8 body
//! steps (CS1 is a sampling prologue; the loop repeats CS2–CS8), which
//! — with RESET and HOLD — gives the paper's 10 controller states, and
//! the binding uses exactly the paper's **11 registers**.

use sfr_hls::{emit, BindingBuilder, DesignBuilder, EmitError, EmittedSystem, Rhs};
use sfr_rtl::FuOp;

/// Builds the differential equation solver at the given datapath width
/// (the paper uses 4 bits).
///
/// # Errors
///
/// Returns the [`EmitError`] datapath validation raises when `width < 2`,
/// where the constant 3 does not fit the datapath width.
pub fn diffeq(width: usize) -> Result<EmittedSystem, EmitError> {
    let mut d = DesignBuilder::new("diffeq", width, 8);
    let x_in = d.port("x_in");
    let y_in = d.port("y_in");
    let u_in = d.port("u_in");
    let dx_in = d.port("dx_in");
    let a_in = d.port("a_in");

    let x = d.var("x");
    let y = d.var("y");
    let u = d.var("u");
    let dx = d.var("dx");
    let a = d.var("a");
    let m1 = d.var("m1"); // 3*x
    let m2 = d.var("m2"); // u*dx
    let m3 = d.var("m3"); // 3*y
    let m4 = d.var("m4"); // 3*x*u*dx
    let m5 = d.var("m5"); // 3*y*dx
    let s1 = d.var("s1"); // u - m4
    let x1 = d.var("x1");
    let y1 = d.var("y1");
    let u1 = d.var("u1");
    let c = d.var("c"); // x1 < a

    // CS1 (prologue): sample everything.
    d.sample(1, x, Rhs::Port(x_in));
    d.sample(1, y, Rhs::Port(y_in));
    d.sample(1, u, Rhs::Port(u_in));
    d.sample(1, dx, Rhs::Port(dx_in));
    d.sample(1, a, Rhs::Port(a_in));
    // Loop body CS2..CS8 — the classic two-multiplier HAL schedule:
    // each unit is active in only a few steps, so its operand muxes
    // carry don't-cares through most of the control flow (the raw
    // material of the paper's select-line SFR faults).
    let o_m1 = d.compute(2, m1, FuOp::Mul, Rhs::Const(3), Rhs::Var(x));
    let o_x1 = d.compute(2, x1, FuOp::Add, Rhs::Var(x), Rhs::Var(dx));
    let o_m2 = d.compute(3, m2, FuOp::Mul, Rhs::Var(u), Rhs::Var(dx));
    let o_c = d.compute(3, c, FuOp::Lt, Rhs::Var(x1), Rhs::Var(a));
    let o_m4 = d.compute(4, m4, FuOp::Mul, Rhs::Var(m1), Rhs::Var(m2));
    let o_m3 = d.compute(5, m3, FuOp::Mul, Rhs::Const(3), Rhs::Var(y));
    let o_s1 = d.compute(5, s1, FuOp::Sub, Rhs::Var(u), Rhs::Var(m4));
    let o_m5 = d.compute(6, m5, FuOp::Mul, Rhs::Var(m3), Rhs::Var(dx));
    let o_y1 = d.compute(7, y1, FuOp::Add, Rhs::Var(y), Rhs::Var(m2));
    let o_u1 = d.compute(8, u1, FuOp::Sub, Rhs::Var(s1), Rhs::Var(m5));

    d.output("y_out", y1);
    let st = d.status(c);
    d.loop_while(st, true, 2);
    d.carry(x1, x);
    d.carry(y1, y);
    d.carry(u1, u);
    let design = d.finish().expect("diffeq design is valid");

    let mut b = BindingBuilder::new(&design);
    b.bind(x, "REG1")
        .bind(x1, "REG1")
        .bind(y, "REG2")
        .bind(y1, "REG2")
        .bind(u, "REG3")
        .bind(u1, "REG3")
        .bind(dx, "REG4")
        .bind(a, "REG5")
        .bind(m1, "REG6")
        .bind(s1, "REG6")
        .bind(m2, "REG7")
        .bind(m3, "REG8")
        .bind(m4, "REG9")
        .bind(m5, "REG10")
        .bind(c, "REG11")
        .bind_op(o_m1, "MUL1")
        .bind_op(o_m2, "MUL2")
        .bind_op(o_m3, "MUL1")
        .bind_op(o_m4, "MUL2")
        .bind_op(o_m5, "MUL1")
        .bind_op(o_x1, "ADD1")
        .bind_op(o_y1, "ADD1")
        .bind_op(o_s1, "SUB1")
        .bind_op(o_u1, "SUB1")
        .bind_op(o_c, "CMP1");
    let binding = b.finish().expect("diffeq binding is valid");
    emit(&design, &binding)
}

/// Software reference model: one full run at the given width.
///
/// Returns `y` at loop exit, or `None` if the loop fails to terminate
/// within `max_iters` (possible for `dx = 0`).
pub fn diffeq_reference(
    x0: u64,
    y0: u64,
    u0: u64,
    dx: u64,
    a: u64,
    width: usize,
    max_iters: usize,
) -> Option<u64> {
    let (mut x, mut y, mut u) = (x0, y0, u0);
    for _ in 0..max_iters {
        let x1 = FuOp::Add.apply(x, dx, width);
        let m1 = FuOp::Mul.apply(3, x, width);
        let m2 = FuOp::Mul.apply(u, dx, width);
        let m3 = FuOp::Mul.apply(3, y, width);
        let m4 = FuOp::Mul.apply(m1, m2, width);
        let m5 = FuOp::Mul.apply(m3, dx, width);
        let s1 = FuOp::Sub.apply(u, m4, width);
        let u1 = FuOp::Sub.apply(s1, m5, width);
        let y1 = FuOp::Add.apply(y, m2, width);
        let c = FuOp::Lt.apply(x1, a, width);
        x = x1;
        y = y1;
        u = u1;
        if c == 0 {
            return Some(y);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_matches_the_paper() {
        let sys = diffeq(4).expect("builds");
        assert_eq!(sys.datapath.registers().len(), 11, "REG1..REG11");
        assert_eq!(sys.fsm.state_count(), 10, "RESET + CS1..CS8 + HOLD");
        assert_eq!(sys.datapath.width(), 4);
        // 11 load lines plus the select lines.
        let loads = sys
            .datapath
            .control()
            .iter()
            .filter(|c| c.kind() == sfr_rtl::CtrlKind::Load)
            .count();
        assert_eq!(loads, 11);
        let selects = sys.datapath.control_width() - loads;
        assert!(selects >= 7, "diffeq needs a rich select structure");
    }

    #[test]
    fn loops_back_to_cs2() {
        let sys = diffeq(4).expect("builds");
        let cs8 = sys.meta.state_of_step(8);
        assert_eq!(sys.fsm.next_state(cs8, 1), sys.meta.state_of_step(2));
        assert_eq!(sys.fsm.next_state(cs8, 0), sys.meta.hold_state());
    }

    #[test]
    fn reference_model_terminates_for_dx_positive() {
        for dx in 1..8 {
            assert!(diffeq_reference(0, 1, 1, dx, 9, 4, 64).is_some());
        }
        // dx = 0 with x < a never terminates.
        assert!(diffeq_reference(0, 1, 1, 0, 9, 4, 64).is_none());
    }

    #[test]
    fn builds_at_wider_widths() {
        for w in [4, 8, 16] {
            let sys = diffeq(w).expect("builds");
            assert_eq!(sys.datapath.width(), w);
        }
    }
}
