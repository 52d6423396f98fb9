//! Structural Verilog export.
//!
//! Writes a [`crate::Netlist`] as a flat structural Verilog module over
//! a small behavioural cell library (emitted alongside), so synthesized
//! controllers and elaborated datapaths can be inspected, re-simulated,
//! or re-synthesized by external tools.

use crate::cell::CellKind;
use crate::graph::{NetId, Netlist};
use std::io::{self, Write};

/// Writes `nl` as structural Verilog.
///
/// The module's ports are the netlist's primary inputs and outputs plus
/// an explicit `clk`. Sequential cells reference the `SFR_DFF` /
/// `SFR_DFFE` primitives from [`write_cell_library`].
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_verilog<W: Write>(nl: &Netlist, mut w: W) -> io::Result<()> {
    let name = sanitize(nl.name());
    writeln!(w, "// Generated by sfr-netlist — structural export.")?;
    write!(w, "module {name}(clk")?;
    for &n in nl.inputs() {
        write!(w, ", {}", net_name(nl, n))?;
    }
    for &n in nl.outputs() {
        if !nl.inputs().contains(&n) {
            write!(w, ", {}", net_name(nl, n))?;
        }
    }
    writeln!(w, ");")?;
    writeln!(w, "  input clk;")?;
    for &n in nl.inputs() {
        writeln!(w, "  input {};", net_name(nl, n))?;
    }
    for &n in nl.outputs() {
        if !nl.inputs().contains(&n) {
            writeln!(w, "  output {};", net_name(nl, n))?;
        }
    }
    // Internal wires.
    for n in nl.net_ids() {
        if nl.inputs().contains(&n) || nl.outputs().contains(&n) {
            continue;
        }
        writeln!(w, "  wire {};", net_name(nl, n))?;
    }
    // Instances.
    for g in nl.gate_ids() {
        let gate = nl.gate(g);
        let cell = cell_name(gate.kind());
        let inst = sanitize(gate.name());
        let out = net_name(nl, gate.output());
        match gate.kind() {
            CellKind::Const0 => writeln!(w, "  assign {out} = 1'b0;")?,
            CellKind::Const1 => writeln!(w, "  assign {out} = 1'b1;")?,
            CellKind::Dff => writeln!(
                w,
                "  SFR_DFF {inst}(.clk(clk), .d({}), .q({out}));",
                net_name(nl, gate.inputs()[0])
            )?,
            CellKind::Dffe => writeln!(
                w,
                "  SFR_DFFE {inst}(.clk(clk), .d({}), .en({}), .q({out}));",
                net_name(nl, gate.inputs()[0]),
                net_name(nl, gate.inputs()[1])
            )?,
            CellKind::Mux2 => writeln!(
                w,
                "  SFR_MUX2 {inst}(.a({}), .b({}), .s({}), .y({out}));",
                net_name(nl, gate.inputs()[0]),
                net_name(nl, gate.inputs()[1]),
                net_name(nl, gate.inputs()[2])
            )?,
            _ => {
                write!(w, "  {cell} {inst}(.y({out})")?;
                for (i, &inp) in gate.inputs().iter().enumerate() {
                    write!(w, ", .{}({})", (b'a' + i as u8) as char, net_name(nl, inp))?;
                }
                writeln!(w, ");")?;
            }
        }
    }
    writeln!(w, "endmodule")
}

/// Writes the behavioural models of the cell library the export
/// references (simulation-ready Verilog).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_cell_library<W: Write>(mut w: W) -> io::Result<()> {
    writeln!(w, "// sfr-netlist behavioural cell library.")?;
    let comb: &[(&str, usize, &str)] = &[
        ("SFR_BUF", 1, "a"),
        ("SFR_INV", 1, "~a"),
        ("SFR_AND2", 2, "a & b"),
        ("SFR_AND3", 3, "a & b & c"),
        ("SFR_AND4", 4, "a & b & c & d"),
        ("SFR_OR2", 2, "a | b"),
        ("SFR_OR3", 3, "a | b | c"),
        ("SFR_OR4", 4, "a | b | c | d"),
        ("SFR_NAND2", 2, "~(a & b)"),
        ("SFR_NAND3", 3, "~(a & b & c)"),
        ("SFR_NAND4", 4, "~(a & b & c & d)"),
        ("SFR_NOR2", 2, "~(a | b)"),
        ("SFR_NOR3", 3, "~(a | b | c)"),
        ("SFR_NOR4", 4, "~(a | b | c | d)"),
        ("SFR_XOR2", 2, "a ^ b"),
        ("SFR_XNOR2", 2, "~(a ^ b)"),
    ];
    for (name, arity, expr) in comb {
        let ports: Vec<String> = (0..*arity)
            .map(|i| ((b'a' + i as u8) as char).to_string())
            .collect();
        writeln!(w, "module {name}(y, {});", ports.join(", "))?;
        writeln!(w, "  output y;")?;
        writeln!(w, "  input {};", ports.join(", "))?;
        writeln!(w, "  assign y = {expr};")?;
        writeln!(w, "endmodule")?;
    }
    writeln!(w, "module SFR_MUX2(y, a, b, s);")?;
    writeln!(w, "  output y; input a, b, s;")?;
    writeln!(w, "  assign y = s ? b : a;")?;
    writeln!(w, "endmodule")?;
    writeln!(w, "module SFR_DFF(clk, d, q);")?;
    writeln!(w, "  input clk, d; output reg q;")?;
    writeln!(w, "  always @(posedge clk) q <= d;")?;
    writeln!(w, "endmodule")?;
    writeln!(w, "module SFR_DFFE(clk, d, en, q);")?;
    writeln!(w, "  input clk, d, en; output reg q;")?;
    writeln!(w, "  always @(posedge clk) if (en) q <= d;")?;
    writeln!(w, "endmodule")
}

fn cell_name(kind: CellKind) -> &'static str {
    use CellKind::*;
    match kind {
        Const0 => "SFR_CONST0",
        Const1 => "SFR_CONST1",
        Buf => "SFR_BUF",
        Inv => "SFR_INV",
        And2 => "SFR_AND2",
        And3 => "SFR_AND3",
        And4 => "SFR_AND4",
        Or2 => "SFR_OR2",
        Or3 => "SFR_OR3",
        Or4 => "SFR_OR4",
        Nand2 => "SFR_NAND2",
        Nand3 => "SFR_NAND3",
        Nand4 => "SFR_NAND4",
        Nor2 => "SFR_NOR2",
        Nor3 => "SFR_NOR3",
        Nor4 => "SFR_NOR4",
        Xor2 => "SFR_XOR2",
        Xnor2 => "SFR_XNOR2",
        Mux2 => "SFR_MUX2",
        Dff => "SFR_DFF",
        Dffe => "SFR_DFFE",
    }
}

fn net_name(nl: &Netlist, n: NetId) -> String {
    format!("n_{}", sanitize(nl.net(n).name()))
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().map(|c| c.is_ascii_digit()).unwrap_or(true) {
        s.insert(0, '_');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetlistBuilder;

    #[test]
    fn export_is_pinned_on_every_branch() {
        // Constants, both flip-flops, a mux, an n-ary cell, an output
        // that is also an input, and names that need sanitizing.
        let mut b = NetlistBuilder::new("3bad name");
        let a = b.input("a");
        let en = b.input("en");
        let q = b.net("q");
        let p = b.net("p.1");
        let zero = b.gate_net(CellKind::Const0, "zero", &[]);
        let one = b.gate_net(CellKind::Const1, "one", &[]);
        let d = b.gate_net(CellKind::Xor2, "x1", &[a, q]);
        b.gate(CellKind::Dffe, "r", &[d, en], q);
        let m = b.gate_net(CellKind::Mux2, "m", &[zero, one, q]);
        b.gate(CellKind::Dff, "s", &[m], p);
        let o = b.gate_net(CellKind::Nand3, "nand 3", &[p, q, a]);
        b.mark_output(o);
        b.mark_output(q);
        b.mark_output(a);
        let nl = b.finish().unwrap();
        let mut out = Vec::new();
        write_verilog(&nl, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "\
// Generated by sfr-netlist — structural export.
module _3bad_name(clk, n_a, n_en, n_nand_3_o, n_q);
  input clk;
  input n_a;
  input n_en;
  output n_nand_3_o;
  output n_q;
  wire n_p_1;
  wire n_zero_o;
  wire n_one_o;
  wire n_x1_o;
  wire n_m_o;
  assign n_zero_o = 1'b0;
  assign n_one_o = 1'b1;
  SFR_XOR2 x1(.y(n_x1_o), .a(n_a), .b(n_q));
  SFR_DFFE r(.clk(clk), .d(n_x1_o), .en(n_en), .q(n_q));
  SFR_MUX2 m(.a(n_zero_o), .b(n_one_o), .s(n_q), .y(n_m_o));
  SFR_DFF s(.clk(clk), .d(n_m_o), .q(n_p_1));
  SFR_NAND3 nand_3(.y(n_nand_3_o), .a(n_p_1), .b(n_q), .c(n_a));
endmodule
"
        );
    }

    #[test]
    fn library_defines_every_referenced_cell() {
        let mut out = Vec::new();
        write_cell_library(&mut out).unwrap();
        let lib = String::from_utf8(out).unwrap();
        for kind in crate::cell::ALL_CELL_KINDS {
            if matches!(kind, CellKind::Const0 | CellKind::Const1) {
                continue; // exported as assigns, not instances
            }
            let name = cell_name(kind);
            assert!(lib.contains(&format!("module {name}(")), "missing {name}");
        }
        // Balanced module/endmodule (every module line follows the
        // header comment's newline or a previous endmodule's).
        assert_eq!(
            lib.matches("\nmodule ").count(),
            lib.matches("endmodule").count()
        );
    }
}
