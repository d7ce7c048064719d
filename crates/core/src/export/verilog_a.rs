//! Verilog-A behavioral code generation.
//!
//! Emits the extracted Hammerstein model as a self-contained Verilog-A
//! module: the static path and the nonlinear input stages become analog
//! expressions built from `ln()` (the closed-form RVF integrals), and
//! each LTI block becomes an internal node with a `ddt()` contribution —
//! the analog-HDL equivalent of the paper's VHDL-AMS export.

use core::fmt::Write as _;

use crate::hammerstein::{DynBlock, HammersteinModel};
use crate::integrated::StateFn;

/// Generates a Verilog-A module implementing the model.
///
/// The module has two electrical ports, `in` and `out`; `out` is driven
/// through a 1 Ω behavioral source so the module is directly usable as a
/// drop-in behavioral replacement of the extracted block.
pub fn to_verilog_a(model: &HammersteinModel, module_name: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "// Auto-generated RVF Hammerstein behavioral model.");
    let _ = writeln!(
        s,
        "// {} dynamic blocks, {} LTI states, anchored at u0={:.6e}.",
        model.blocks.len(),
        model.n_states(),
        model.u0
    );
    let _ = writeln!(s, "`include \"disciplines.vams\"");
    let _ = writeln!(s);
    let _ = writeln!(s, "module {module_name}(p_in, p_out);");
    let _ = writeln!(s, "  inout p_in, p_out;");
    let _ = writeln!(s, "  electrical p_in, p_out;");
    // Block i has one state node x{i}_j and one drive value v{i}_j per
    // stage.
    let names = |prefix: &str, i: usize, b: &DynBlock| -> Vec<String> {
        (1..=b.stages().count()).map(|j| format!("{prefix}{i}_{j}")).collect()
    };
    for (i, b) in model.blocks.iter().enumerate() {
        let _ = writeln!(s, "  electrical {};", names("x", i, b).join(", "));
    }
    let _ = writeln!(s, "  real u, y_static;");
    for (i, b) in model.blocks.iter().enumerate() {
        let _ = writeln!(s, "  real {};", names("v", i, b).join(", "));
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "  analog begin");
    let _ = writeln!(s, "    u = V(p_in);");
    let _ = writeln!(s, "    y_static = {};", integral_expr(&model.static_path, "u"));
    for (i, b) in model.blocks.iter().enumerate() {
        for (v, f) in names("v", i, b).iter().zip(b.stages()) {
            let _ = writeln!(s, "    {v} = {};", integral_expr(f, "u"));
        }
        match b {
            DynBlock::Real { a, .. } => {
                let _ = writeln!(s, "    // block {i}: real pole a = {a:.9e}");
                let _ =
                    writeln!(s, "    I(x{i}_1) <+ ddt(V(x{i}_1)) - ({a:.17e})*V(x{i}_1) - v{i}_1;");
            }
            DynBlock::Pair { sigma, omega, .. } => {
                let _ = writeln!(
                    s,
                    "    // block {i}: pole pair sigma = {sigma:.9e}, omega = {omega:.9e}"
                );
                let _ = writeln!(
                    s,
                    "    I(x{i}_1) <+ ddt(V(x{i}_1)) - ({sigma:.17e})*V(x{i}_1) - ({omega:.17e})*V(x{i}_2) - v{i}_1;"
                );
                let _ = writeln!(
                    s,
                    "    I(x{i}_2) <+ ddt(V(x{i}_2)) + ({omega:.17e})*V(x{i}_1) - ({sigma:.17e})*V(x{i}_2) - v{i}_2;"
                );
            }
        }
    }
    let mut sum = String::from("y_static");
    for (i, b) in model.blocks.iter().enumerate() {
        for x in names("x", i, b) {
            let _ = write!(sum, " + V({x})");
        }
    }
    let _ = writeln!(s, "    V(p_out) <+ {sum};");
    let _ = writeln!(s, "  end");
    let _ = writeln!(s, "endmodule");
    s
}

/// The analytic primitive as a Verilog-A expression in variable `var`:
/// `2·Re{ρ·ln(u−x̃)}` expanded to real arithmetic with `ln` and `atan2`.
fn integral_expr(p: &StateFn, var: &str) -> String {
    let mut out = format!("({:.17e})", p.constant);
    if p.linear != 0.0 {
        let _ = write!(out, " + ({:.17e})*{var}", p.linear);
    }
    for t in &p.terms {
        // 2·Re{ρ ln(u − x̃)} with x̃ = a+jb, ρ = c+jd:
        //   = 2c·ln(|u−x̃|) − 2d·arg(u−x̃)
        //   = c·ln((u−a)² + b²) − 2d·atan2(−b, u−a)
        let (a, b) = (t.pole.re, t.pole.im);
        let (c, d) = (t.rho.re, t.rho.im);
        let _ = write!(
            out,
            " + ({c:.17e})*ln(({var}-({a:.17e}))*({var}-({a:.17e})) + ({b:.17e})*({b:.17e}))"
        );
        let _ = write!(out, " - (2.0*({d:.17e}))*atan2(-({b:.17e}), {var}-({a:.17e}))");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrated::LogTerm;
    use rvf_numerics::c;

    fn toy_statefn() -> StateFn {
        let pole = c(0.9, 0.3);
        let rho = c(0.5, -0.2);
        StateFn { terms: vec![LogTerm { pole, rho }], linear: 0.1, constant: -0.05 }
    }

    fn toy_model() -> HammersteinModel {
        HammersteinModel {
            static_path: toy_statefn(),
            blocks: vec![
                DynBlock::Real { a: -3.0e9, f: toy_statefn() },
                DynBlock::Pair {
                    sigma: -1.0e9,
                    omega: 5.0e9,
                    f1: toy_statefn(),
                    f2: toy_statefn(),
                },
            ],
            u0: 0.9,
            y0: 0.5,
        }
    }

    #[test]
    fn module_structure() {
        let v = to_verilog_a(&toy_model(), "buffer_rvf");
        assert!(v.contains("module buffer_rvf(p_in, p_out);"));
        assert!(v.contains("endmodule"));
        assert!(v.contains("analog begin"));
        assert!(v.contains("`include \"disciplines.vams\""));
        // 3 LTI states → 3 internal node declarations and 3 ddt terms.
        assert_eq!(v.matches("ddt(").count(), 3);
        assert!(v.contains("electrical x0_1;"));
        assert!(v.contains("electrical x1_1, x1_2;"));
        // Output sums all states plus the static path.
        assert!(v.contains("V(p_out) <+ y_static + V(x0_1) + V(x1_1) + V(x1_2);"));
    }

    #[test]
    fn log_terms_emitted_per_pair() {
        let v = to_verilog_a(&toy_model(), "m");
        // 4 state functions × 1 pair each → 4 ln() and 4 atan2().
        assert_eq!(v.matches("ln(").count(), 4);
        assert_eq!(v.matches("atan2(").count(), 4);
    }

    #[test]
    fn integral_expr_matches_rust_evaluation() {
        // Evaluate the generated expression manually at a point and
        // compare against StateFn::integral.
        let p = toy_statefn();
        let u = 1.3_f64;
        let mut want = p.constant + p.linear * u;
        for t in &p.terms {
            let (a, b) = (t.pole.re, t.pole.im);
            let (c, d) = (t.rho.re, t.rho.im);
            want += c * ((u - a) * (u - a) + b * b).ln() - 2.0 * d * (-b).atan2(u - a);
        }
        assert!(
            (want - p.integral(u)).abs() < 1e-12,
            "emitted formula disagrees: {want} vs {}",
            p.integral(u)
        );
    }
}
