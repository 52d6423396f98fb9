//! Small ready-made systems for tests, examples, and lint fixtures.
//!
//! These are not benchmarks — see `sfr-benchmarks` for the paper's
//! circuits. They exist so downstream crates (and this one's tests) can
//! exercise the full controller–datapath machinery on something that
//! builds in microseconds.

use crate::system::{System, SystemConfig};
use sfr_hls::{emit, BindingBuilder, DesignBuilder, Rhs};
use sfr_rtl::FuOp;

/// A three-step toy design: CS1 samples `a`, `b`; CS2 computes
/// `t = a * b`; CS3 computes `s = t + a`; `s` is the held output.
///
/// # Panics
///
/// Never panics: the design is statically valid.
pub fn toy_system() -> System {
    let mut d = DesignBuilder::new("toy", 4, 3);
    let pa = d.port("a");
    let pb = d.port("b");
    let va = d.var("va");
    let vb = d.var("vb");
    let t = d.var("t");
    let s = d.var("s");
    d.sample(1, va, Rhs::Port(pa));
    d.sample(1, vb, Rhs::Port(pb));
    let m = d.compute(2, t, FuOp::Mul, Rhs::Var(va), Rhs::Var(vb));
    let a = d.compute(3, s, FuOp::Add, Rhs::Var(t), Rhs::Var(va));
    d.output("s_out", s);
    let d = d.finish().expect("toy design is valid");
    let mut bb = BindingBuilder::new(&d);
    bb.bind(va, "R1")
        .bind(vb, "R2")
        .bind(t, "R3")
        .bind(s, "R4")
        .bind_op(m, "MUL1")
        .bind_op(a, "ADD1");
    let binding = bb.finish().expect("toy binding is valid");
    let sys = emit(&d, &binding).expect("toy design emits");
    System::build(&sys, SystemConfig::default()).expect("toy system builds")
}

/// A design with a shared adder, so an operand mux (and its select-line
/// don't-cares) exists: CS1 samples `a`, `b`; CS2 computes
/// `t1 = a + b`; CS3 computes `t2 = t1 + b`; `t2` is the held output.
///
/// # Panics
///
/// Never panics: the design is statically valid.
pub fn muxed_system() -> System {
    let mut d = DesignBuilder::new("muxed", 4, 3);
    let pa = d.port("a");
    let pb = d.port("b");
    let va = d.var("va");
    let vb = d.var("vb");
    let t1 = d.var("t1");
    let t2 = d.var("t2");
    d.sample(1, va, Rhs::Port(pa));
    d.sample(1, vb, Rhs::Port(pb));
    let o1 = d.compute(2, t1, FuOp::Add, Rhs::Var(va), Rhs::Var(vb));
    let o2 = d.compute(3, t2, FuOp::Add, Rhs::Var(t1), Rhs::Var(vb));
    d.output("o", t2);
    let d = d.finish().expect("muxed design is valid");
    let mut bb = BindingBuilder::new(&d);
    bb.bind(va, "R1")
        .bind(vb, "R2")
        .bind(t1, "R3")
        .bind(t2, "R4")
        .bind_op(o1, "ADD1")
        .bind_op(o2, "ADD1");
    let binding = bb.finish().expect("muxed binding is valid");
    let sys = emit(&d, &binding).expect("muxed design emits");
    System::build(&sys, SystemConfig::default()).expect("muxed system builds")
}
