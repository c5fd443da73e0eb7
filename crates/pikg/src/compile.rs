//! Compilation of a [`KernelSpec`] into a register bytecode executed over
//! structure-of-arrays buffers.
//!
//! PIKG proper emits SVE/AVX-512/CUDA source; here the "generated code" is a
//! flat register program whose inner j-loop the optimizer can vectorize. The
//! important properties it shares with PIKG's output are the SoA data layout,
//! the i-outer/j-inner loop nest over an interaction list, and exact
//! operation counts.

use crate::ast::{BinOp, Expr, Func, KernelSpec, Stmt};
use crate::flops::FlopPolicy;
use std::collections::BTreeMap;

/// One bytecode instruction over f64 registers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    Const(u16, f64),
    /// Copy EPI variable `src` (index into epi arrays) into register `dst`.
    LoadI(u16, u16),
    /// Copy EPJ variable `src` into register `dst`.
    LoadJ(u16, u16),
    Add(u16, u16, u16),
    Sub(u16, u16, u16),
    Mul(u16, u16, u16),
    Div(u16, u16, u16),
    Neg(u16, u16),
    Sqrt(u16, u16),
    Rsqrt(u16, u16),
    Abs(u16, u16),
    Min(u16, u16, u16),
    Max(u16, u16, u16),
    Exp(u16, u16),
    Ln(u16, u16),
    /// Accumulate register `src` into force slot `acc`.
    AccAdd(u16, u16),
}

/// SoA views over particle data for one kernel launch.
pub struct SoaBuffers<'a> {
    /// One slice per declared EPI variable, each of length `n_i`.
    pub epi: Vec<&'a [f64]>,
    /// One slice per declared EPJ variable, each of length `n_j`.
    pub epj: Vec<&'a [f64]>,
}

/// An executable kernel.
pub struct CompiledKernel {
    spec: KernelSpec,
    code: Vec<Instr>,
    n_regs: usize,
}

impl CompiledKernel {
    /// Lower a validated spec to bytecode.
    pub fn from_spec(spec: KernelSpec) -> Result<CompiledKernel, String> {
        spec.validate()?;
        let mut c = Codegen {
            spec: &spec,
            code: Vec::new(),
            vars: BTreeMap::new(),
            next_reg: 0,
        };

        // Materialize declared inputs into registers up front; the executor
        // reloads EPI registers per i and EPJ registers per j.
        for (idx, name) in spec.epi.iter().enumerate() {
            let r = c.alloc()?;
            c.code.push(Instr::LoadI(r, idx as u16));
            c.vars.insert(name.clone(), r);
        }
        for (idx, name) in spec.epj.iter().enumerate() {
            let r = c.alloc()?;
            c.code.push(Instr::LoadJ(r, idx as u16));
            c.vars.insert(name.clone(), r);
        }

        for stmt in &spec.body {
            match stmt {
                Stmt::Assign(name, expr) => {
                    let r = c.emit_expr(expr)?;
                    // Rebind: later reads see the new register.
                    c.vars.insert(name.clone(), r);
                }
                Stmt::Accumulate(name, expr) => {
                    let r = c.emit_expr(expr)?;
                    let acc = spec
                        .force
                        .iter()
                        .position(|f| f == name)
                        .expect("validated accumulate target");
                    c.code.push(Instr::AccAdd(acc as u16, r));
                }
            }
        }

        let n_regs = c.next_reg as usize;
        let code = std::mem::take(&mut c.code);
        drop(c);
        Ok(CompiledKernel { spec, code, n_regs })
    }

    /// The original kernel description.
    pub fn spec(&self) -> &KernelSpec {
        &self.spec
    }

    /// The lowered instruction stream.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// FLOPs per i–j interaction under `policy` (loads/copies are free).
    pub fn flops_per_interaction(&self, policy: FlopPolicy) -> usize {
        self.code.iter().map(|i| policy.cost(i)).sum()
    }

    /// Execute the kernel for every (i, j) pair: `force[f][i]` accumulates
    /// the interaction sums. Slices in `bufs.epi` share length `n_i`; slices
    /// in `bufs.epj` share length `n_j`; `force` has one column per declared
    /// force variable, each of length `n_i`.
    pub fn execute(&self, bufs: &SoaBuffers, force: &mut [&mut [f64]]) {
        let n_i = bufs.epi.first().map_or(0, |s| s.len());
        let n_j = bufs.epj.first().map_or(0, |s| s.len());
        assert_eq!(bufs.epi.len(), self.spec.epi.len(), "EPI column count");
        assert_eq!(bufs.epj.len(), self.spec.epj.len(), "EPJ column count");
        assert_eq!(force.len(), self.spec.force.len(), "force column count");
        for col in &bufs.epi {
            assert_eq!(col.len(), n_i, "ragged EPI columns");
        }
        for col in &bufs.epj {
            assert_eq!(col.len(), n_j, "ragged EPJ columns");
        }
        for col in force.iter() {
            assert_eq!(col.len(), n_i, "force columns must match n_i");
        }

        let mut regs = vec![0.0f64; self.n_regs];
        let mut acc = vec![0.0f64; self.spec.force.len()];
        for i in 0..n_i {
            acc.iter_mut().for_each(|a| *a = 0.0);
            for j in 0..n_j {
                for instr in &self.code {
                    step(instr, &mut regs, &mut acc, bufs, i, j);
                }
            }
            for (f, a) in force.iter_mut().zip(&acc) {
                f[i] += *a;
            }
        }
    }
}

#[inline(always)]
fn step(instr: &Instr, regs: &mut [f64], acc: &mut [f64], bufs: &SoaBuffers, i: usize, j: usize) {
    match *instr {
        Instr::Const(d, v) => regs[d as usize] = v,
        Instr::LoadI(d, s) => regs[d as usize] = bufs.epi[s as usize][i],
        Instr::LoadJ(d, s) => regs[d as usize] = bufs.epj[s as usize][j],
        Instr::Add(d, a, b) => regs[d as usize] = regs[a as usize] + regs[b as usize],
        Instr::Sub(d, a, b) => regs[d as usize] = regs[a as usize] - regs[b as usize],
        Instr::Mul(d, a, b) => regs[d as usize] = regs[a as usize] * regs[b as usize],
        Instr::Div(d, a, b) => regs[d as usize] = regs[a as usize] / regs[b as usize],
        Instr::Neg(d, a) => regs[d as usize] = -regs[a as usize],
        Instr::Sqrt(d, a) => regs[d as usize] = regs[a as usize].sqrt(),
        Instr::Rsqrt(d, a) => regs[d as usize] = 1.0 / regs[a as usize].sqrt(),
        Instr::Abs(d, a) => regs[d as usize] = regs[a as usize].abs(),
        Instr::Min(d, a, b) => regs[d as usize] = regs[a as usize].min(regs[b as usize]),
        Instr::Max(d, a, b) => regs[d as usize] = regs[a as usize].max(regs[b as usize]),
        Instr::Exp(d, a) => regs[d as usize] = regs[a as usize].exp(),
        Instr::Ln(d, a) => regs[d as usize] = regs[a as usize].ln(),
        Instr::AccAdd(slot, s) => acc[slot as usize] += regs[s as usize],
    }
}

struct Codegen<'s> {
    spec: &'s KernelSpec,
    code: Vec<Instr>,
    vars: BTreeMap<String, u16>,
    next_reg: u16,
}

impl Codegen<'_> {
    fn alloc(&mut self) -> Result<u16, String> {
        let r = self.next_reg;
        self.next_reg = self
            .next_reg
            .checked_add(1)
            .ok_or_else(|| format!("kernel {}: register overflow", self.spec.name))?;
        Ok(r)
    }

    fn emit_expr(&mut self, expr: &Expr) -> Result<u16, String> {
        Ok(match expr {
            Expr::Num(v) => {
                let r = self.alloc()?;
                self.code.push(Instr::Const(r, *v));
                r
            }
            Expr::Var(name) => *self
                .vars
                .get(name)
                .ok_or_else(|| format!("kernel {}: unbound `{name}`", self.spec.name))?,
            Expr::Neg(e) => {
                let a = self.emit_expr(e)?;
                let r = self.alloc()?;
                self.code.push(Instr::Neg(r, a));
                r
            }
            Expr::Bin(op, lhs, rhs) => {
                let a = self.emit_expr(lhs)?;
                let b = self.emit_expr(rhs)?;
                let r = self.alloc()?;
                self.code.push(match op {
                    BinOp::Add => Instr::Add(r, a, b),
                    BinOp::Sub => Instr::Sub(r, a, b),
                    BinOp::Mul => Instr::Mul(r, a, b),
                    BinOp::Div => Instr::Div(r, a, b),
                });
                r
            }
            Expr::Call(f, args) => {
                let a = self.emit_expr(&args[0])?;
                let b = if args.len() > 1 {
                    Some(self.emit_expr(&args[1])?)
                } else {
                    None
                };
                let r = self.alloc()?;
                self.code.push(match f {
                    Func::Sqrt => Instr::Sqrt(r, a),
                    Func::Rsqrt => Instr::Rsqrt(r, a),
                    Func::Abs => Instr::Abs(r, a),
                    Func::Exp => Instr::Exp(r, a),
                    Func::Ln => Instr::Ln(r, a),
                    Func::Min => Instr::Min(r, a, b.expect("validated arity")),
                    Func::Max => Instr::Max(r, a, b.expect("validated arity")),
                });
                r
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn kernel(src: &str) -> CompiledKernel {
        CompiledKernel::from_spec(parse(src).unwrap()).unwrap()
    }

    #[test]
    fn pairwise_sum_of_differences() {
        let k = kernel("kernel k\nepi xi\nepj xj\nforce f\nf += xi - xj\n");
        let xi = [1.0, 2.0];
        let xj = [10.0, 20.0, 30.0];
        let mut f = vec![0.0; 2];
        k.execute(
            &SoaBuffers {
                epi: vec![&xi],
                epj: vec![&xj],
            },
            &mut [&mut f],
        );
        // f[i] = sum_j (xi - xj) = 3*xi - 60.
        assert_eq!(f, vec![3.0 - 60.0, 6.0 - 60.0]);
    }

    #[test]
    fn gravity_direct_sum_matches_reference() {
        let k = kernel(crate::kernels::GRAVITY_DSL);
        let n = 8;
        let mut xs = [[0.0f64; 3]; 8];
        let mut ms = [0.0f64; 8];
        for i in 0..n {
            xs[i] = [
                i as f64 * 0.37,
                (i * i % 5) as f64 * 0.21,
                -(i as f64) * 0.11,
            ];
            ms[i] = 1.0 + i as f64 * 0.25;
        }
        let eps2 = 1e-4;

        let x: Vec<f64> = xs.iter().map(|p| p[0]).collect();
        let y: Vec<f64> = xs.iter().map(|p| p[1]).collect();
        let z: Vec<f64> = xs.iter().map(|p| p[2]).collect();
        let e2 = vec![eps2; n];
        let m = ms.to_vec();

        let mut ax = vec![0.0; n];
        let mut ay = vec![0.0; n];
        let mut az = vec![0.0; n];
        let mut pot = vec![0.0; n];
        k.execute(
            &SoaBuffers {
                epi: vec![&x, &y, &z, &e2],
                epj: vec![&x, &y, &z, &m, &e2],
            },
            &mut [&mut ax, &mut ay, &mut az, &mut pot],
        );

        // Reference O(N^2) loop (self-interaction softened, as in the DSL).
        for i in 0..n {
            let (mut rx, mut ry, mut rz, mut rp) = (0.0, 0.0, 0.0, 0.0);
            for j in 0..n {
                let dx = xs[i][0] - xs[j][0];
                let dy = xs[i][1] - xs[j][1];
                let dz = xs[i][2] - xs[j][2];
                let r2 = dx * dx + dy * dy + dz * dz + 2.0 * eps2;
                let rinv = 1.0 / r2.sqrt();
                let mr3 = ms[j] * rinv * rinv * rinv;
                rx -= mr3 * dx;
                ry -= mr3 * dy;
                rz -= mr3 * dz;
                // The DSL accumulates the *positive* potential sum.
                rp += ms[j] * rinv;
            }
            assert!((ax[i] - rx).abs() < 1e-12, "ax[{i}]");
            assert!((ay[i] - ry).abs() < 1e-12);
            assert!((az[i] - rz).abs() < 1e-12);
            assert!((pot[i] - rp).abs() < 1e-12);
        }
    }

    #[test]
    fn reassignment_rebinds_variable() {
        let k = kernel("kernel k\nepi a\nepj b\nforce f\nt = a\nt = t * 2\nf += t + b\n");
        let a = [3.0];
        let b = [1.0, 2.0];
        let mut f = vec![0.0];
        k.execute(
            &SoaBuffers {
                epi: vec![&a],
                epj: vec![&b],
            },
            &mut [&mut f],
        );
        // Per j: 2a + b => (6+1) + (6+2) = 15.
        assert_eq!(f, vec![15.0]);
    }

    #[test]
    fn force_accumulates_across_calls() {
        let k = kernel("kernel k\nepi a\nepj b\nforce f\nf += a * b\n");
        let a = [2.0];
        let b = [3.0];
        let mut f = vec![1.0]; // pre-existing partial force
        let bufs = SoaBuffers {
            epi: vec![&a],
            epj: vec![&b],
        };
        k.execute(&bufs, &mut [&mut f]);
        k.execute(&bufs, &mut [&mut f]);
        assert_eq!(f, vec![1.0 + 6.0 + 6.0]);
    }

    #[test]
    fn empty_j_side_leaves_force_unchanged() {
        let k = kernel("kernel k\nepi a\nepj b\nforce f\nf += a * b\n");
        let a = [2.0];
        let b: [f64; 0] = [];
        let mut f = vec![5.0];
        k.execute(
            &SoaBuffers {
                epi: vec![&a],
                epj: vec![&b],
            },
            &mut [&mut f],
        );
        assert_eq!(f, vec![5.0]);
    }

    #[test]
    #[should_panic(expected = "ragged EPI")]
    fn ragged_columns_rejected() {
        let k = kernel("kernel k\nepi a, c\nepj b\nforce f\nf += a * b + c\n");
        let a = [1.0, 2.0];
        let c = [1.0];
        let b = [1.0];
        let mut f = vec![0.0, 0.0];
        k.execute(
            &SoaBuffers {
                epi: vec![&a, &c],
                epj: vec![&b],
            },
            &mut [&mut f],
        );
    }

    #[test]
    fn builtin_functions_evaluate() {
        let k = kernel(
            "kernel k\nepi a\nepj b\nforce f\nf += min(a, b) + max(a, b) + abs(-a) + sqrt(b*b)\n",
        );
        let a = [2.0];
        let b = [5.0];
        let mut f = vec![0.0];
        k.execute(
            &SoaBuffers {
                epi: vec![&a],
                epj: vec![&b],
            },
            &mut [&mut f],
        );
        assert_eq!(f, vec![2.0 + 5.0 + 2.0 + 5.0]);
    }
}
