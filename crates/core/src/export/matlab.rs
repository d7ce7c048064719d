//! MATLAB code generation.
//!
//! Emits the model as a single `.m` file defining the state-space
//! right-hand side and output function, ready for `ode45`/`ode23t` —
//! mirroring the paper's flow where "the resulting system of nonlinear
//! differential equations can be simulated inside Matlab".

use core::fmt::Write as _;

use crate::hammerstein::{DynBlock, HammersteinModel};
use crate::integrated::StateFn;

/// Generates a MATLAB function file implementing the model.
///
/// The generated file defines `<name>()` returning a struct with
/// `rhs(t, y, u)` and `output(y, u)` function handles plus the state
/// dimension `n`.
pub fn to_matlab(model: &HammersteinModel, name: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "function model = {name}()");
    let _ = writeln!(s, "% Auto-generated RVF Hammerstein model ({} states).", model.n_states());
    let _ = writeln!(s, "% y' = A*y + f(u),  out = y_static(u) + sum(y).");
    let _ = writeln!(s, "model.n = {};", model.n_states());
    let _ = writeln!(s, "model.u0 = {:.17e};", model.u0);
    let _ = writeln!(s, "model.y0 = {:.17e};", model.y0);
    let _ = writeln!(s, "model.rhs = @rhs_{name};");
    let _ = writeln!(s, "model.output = @output_{name};");
    let _ = writeln!(s, "end");
    let _ = writeln!(s);
    let _ = writeln!(s, "function dy = rhs_{name}(~, y, u)");
    let _ = writeln!(s, "dy = zeros({}, 1);", model.n_states());
    let mut row = 1usize; // MATLAB is 1-based
    for b in &model.blocks {
        match b {
            DynBlock::Real { a, f } => {
                let _ = writeln!(s, "dy({row}) = ({a:.17e})*y({row}) + {};", integral_expr(f, "u"));
                row += 1;
            }
            DynBlock::Pair { sigma, omega, f1, f2 } => {
                let (r1, r2) = (row, row + 1);
                let _ = writeln!(
                    s,
                    "dy({r1}) = ({sigma:.17e})*y({r1}) + ({omega:.17e})*y({r2}) + {};",
                    integral_expr(f1, "u")
                );
                let _ = writeln!(
                    s,
                    "dy({r2}) = -({omega:.17e})*y({r1}) + ({sigma:.17e})*y({r2}) + {};",
                    integral_expr(f2, "u")
                );
                row += 2;
            }
        }
    }
    let _ = writeln!(s, "end");
    let _ = writeln!(s);
    let _ = writeln!(s, "function out = output_{name}(y, u)");
    let _ = writeln!(s, "out = {} + sum(y);", integral_expr(&model.static_path, "u"));
    let _ = writeln!(s, "end");
    s
}

/// The analytic primitive as a MATLAB expression (`log`, `atan2`).
fn integral_expr(p: &StateFn, var: &str) -> String {
    let mut out = format!("({:.17e})", p.constant);
    if p.linear != 0.0 {
        let _ = write!(out, " + ({:.17e})*{var}", p.linear);
    }
    for t in &p.terms {
        let (a, b) = (t.pole.re, t.pole.im);
        let (c, d) = (t.rho.re, t.rho.im);
        let _ = write!(out, " + ({c:.17e})*log(({var}-({a:.17e})).^2 + ({b:.17e})^2)");
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

    #[test]
    fn function_structure() {
        let model = HammersteinModel {
            static_path: toy_statefn(),
            blocks: vec![
                DynBlock::Pair {
                    sigma: -1.0e9,
                    omega: 5.0e9,
                    f1: toy_statefn(),
                    f2: toy_statefn(),
                },
                DynBlock::Real { a: -2.0e9, f: toy_statefn() },
            ],
            u0: 0.9,
            y0: 0.5,
        };
        let m = to_matlab(&model, "buffer_rvf");
        assert!(m.contains("function model = buffer_rvf()"));
        assert!(m.contains("model.n = 3;"));
        assert!(m.contains("dy = zeros(3, 1);"));
        assert!(m.contains("dy(1) ="));
        assert!(m.contains("dy(2) ="));
        assert!(m.contains("dy(3) ="));
        assert!(m.contains("out ="));
        // One log term per state function referenced in rhs/output.
        assert_eq!(m.matches("log(").count(), 4);
    }
}
