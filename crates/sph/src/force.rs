//! Symmetrized SPH momentum and energy equations with Monaghan artificial
//! viscosity.
//!
//! Three force paths live here. [`pair_force`] is the scalar per-pair
//! reference with early-out branches. [`force_batch_portable`] is the
//! batched kernel — one target against its in-support pairs
//! ([`ForceBatch`]), with the kernel gradients evaluated through the batch
//! trait methods and no early-out left in the inner loop — written with
//! explicit `[f64; 4]` lanes. [`force_batch`], the production entry point,
//! runs the same loop as one 256-bit vector per four pairs where the CPU
//! has AVX2 (`crate::simd`) and the portable body elsewhere. The
//! early-outs happen *before* the kernel: the pass's j-side data sits
//! struct-of-arrays in tree order ([`ForceSources`]), a leaf's targets
//! share one candidate list — a few contiguous spans of it, see
//! [`crate::group`] — and [`ForceBatch::stage`] (dispatched the same way,
//! with [`ForceBatch::stage_portable`] its twin) selects per target the
//! pairs [`pair_force`] would not skip.
//!
//! The reference and the batch evaluate the identical per-pair arithmetic
//! over the identical pair set; they differ only in summation order (the
//! batch reduces over fixed lanes assigned by rank among the in-support
//! pairs), so they agree to reassociation rounding. The dispatched and
//! the portable batch agree on every bit: same lanes, same association
//! order, exactly rounded operations only (see `crate::simd`).

use crate::group::{reserve_column, span_len};
use crate::kernel::SphKernel;
#[cfg(target_arch = "x86_64")]
use crate::simd::{self, Avx2};
use fdps::Vec3;

/// Per-particle hydrodynamic quantities consumed by the force kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct HydroInput {
    pub pos: Vec3,
    pub vel: Vec3,
    pub mass: f64,
    pub h: f64,
    pub rho: f64,
    /// `P / rho^2`.
    pub p_over_rho2: f64,
    /// Sound speed.
    pub cs: f64,
}

/// Accumulated hydro force and heating for one particle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HydroAccum {
    pub acc: Vec3,
    pub dudt: f64,
    /// Maximum signal velocity seen over neighbours (for the CFL condition).
    pub v_sig_max: f64,
}

/// Artificial-viscosity parameters (Monaghan 1992: alpha=1, beta=2).
#[derive(Debug, Clone, Copy)]
pub struct Viscosity {
    pub alpha: f64,
    pub beta: f64,
    /// Softening of the mu denominator (eta^2 in units of h^2).
    pub eta2: f64,
}

impl Default for Viscosity {
    fn default() -> Self {
        Viscosity {
            alpha: 1.0,
            beta: 2.0,
            eta2: 0.01,
        }
    }
}

/// Evaluate the pairwise interaction of particle `i` with neighbour `j`,
/// accumulating into `out`. Symmetric formulation: using it with roles
/// swapped conserves momentum and energy identically.
pub fn pair_force(
    kernel: &dyn SphKernel,
    visc: &Viscosity,
    pi: &HydroInput,
    pj: &HydroInput,
    out: &mut HydroAccum,
) {
    let d = pi.pos - pj.pos;
    let r2 = d.norm2();
    if r2 == 0.0 {
        return;
    }
    let r = r2.sqrt();
    let support = kernel.support();
    if r >= support * pi.h.max(pj.h) {
        return;
    }
    // Arithmetic-mean kernel gradient of both smoothing lengths.
    let dw = 0.5 * (kernel.dwdr(r, pi.h) + kernel.dwdr(r, pj.h));
    let grad = d * (dw / r);

    let dv = pi.vel - pj.vel;
    let vdotr = dv.dot(d);

    // Monaghan viscosity, active only for approaching pairs.
    let mut visc_term = 0.0;
    let mut v_sig = pi.cs + pj.cs;
    if vdotr < 0.0 {
        let h_mean = 0.5 * (pi.h + pj.h);
        let mu = h_mean * vdotr / (r2 + visc.eta2 * h_mean * h_mean);
        let c_mean = 0.5 * (pi.cs + pj.cs);
        let rho_mean = 0.5 * (pi.rho + pj.rho);
        visc_term = (-visc.alpha * c_mean * mu + visc.beta * mu * mu) / rho_mean;
        v_sig += -3.0 * mu;
    }

    let fac = pi.p_over_rho2 + pj.p_over_rho2 + visc_term;
    out.acc -= grad * (pj.mass * fac);
    out.dudt += pj.mass * (pi.p_over_rho2 + 0.5 * visc_term) * dv.dot(grad);
    out.v_sig_max = out.v_sig_max.max(v_sig);
}

/// Lane count of [`force_batch`]'s accumulators. Fixed — never derived
/// from the machine — so the reduction order, and with it every bit of
/// the result, is identical across hosts and thread counts.
pub const FORCE_LANES: usize = 4;

/// The j-side hydro data of every source of a pass, struct-of-arrays in
/// the neighbour tree's (Morton) order: the spans a tree walk returns
/// address these columns directly and contiguously. Built once per pass;
/// [`ForceSources::fill`] rewrites it in place, keeping capacity. Every
/// column always holds [`ForceSources::len`] entries.
#[derive(Debug, Clone, Default)]
pub struct ForceSources {
    pub(crate) x: Vec<f64>,
    pub(crate) y: Vec<f64>,
    pub(crate) z: Vec<f64>,
    pub(crate) vx: Vec<f64>,
    pub(crate) vy: Vec<f64>,
    pub(crate) vz: Vec<f64>,
    pub(crate) h: Vec<f64>,
    pub(crate) m: Vec<f64>,
    pub(crate) rho: Vec<f64>,
    pub(crate) p2: Vec<f64>,
    pub(crate) cs: Vec<f64>,
}

impl ForceSources {
    /// Refill from `inputs`, which must arrive in the order the spans
    /// handed to [`ForceBatch::stage`] will refer to — the tree's
    /// `order` in the solver.
    ///
    /// Writes by slot: every column is sized to `inputs.len()` once
    /// (capacity kept) and input `k` is stored at index `k` of each.
    pub fn fill(&mut self, inputs: impl ExactSizeIterator<Item = HydroInput>) {
        let n = inputs.len();
        for col in self.columns() {
            col.resize(n, 0.0);
        }
        for (k, pj) in inputs.enumerate() {
            self.x[k] = pj.pos.x;
            self.y[k] = pj.pos.y;
            self.z[k] = pj.pos.z;
            self.vx[k] = pj.vel.x;
            self.vy[k] = pj.vel.y;
            self.vz[k] = pj.vel.z;
            self.h[k] = pj.h;
            self.m[k] = pj.mass;
            self.rho[k] = pj.rho;
            self.p2[k] = pj.p_over_rho2;
            self.cs[k] = pj.cs;
        }
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Column capacity, for zero-allocation regression tests.
    pub(crate) fn capacity(&self) -> usize {
        self.x.capacity()
    }

    fn columns(&mut self) -> [&mut Vec<f64>; 11] {
        [
            &mut self.x,
            &mut self.y,
            &mut self.z,
            &mut self.vx,
            &mut self.vy,
            &mut self.vz,
            &mut self.h,
            &mut self.m,
            &mut self.rho,
            &mut self.p2,
            &mut self.cs,
        ]
    }
}

/// One target's interacting pairs: which sources they are, and the
/// per-pair values the batched kernel-gradient evaluations need
/// contiguously. Everything else [`force_batch`] reads in place from the
/// [`ForceSources`]. Owned per pool worker by the solver;
/// [`ForceBatch::stage`] clears in place, keeping capacity.
#[derive(Debug, Clone, Default)]
pub struct ForceBatch {
    /// Positions in the [`ForceSources`] of the staged pairs, in span order.
    near: Vec<u32>,
    /// Squared separation, separation and `h_j` per staged pair.
    r2: Vec<f64>,
    r: Vec<f64>,
    hj: Vec<f64>,
    /// `dW/dr (r, h_i)` scratch.
    dwi: Vec<f64>,
    /// `dW/dr (r, h_j)` scratch.
    dwj: Vec<f64>,
}

impl ForceBatch {
    /// Stage target `pi` against the candidates `spans` (ranges of
    /// `sources`), keeping exactly the pairs [`pair_force`] interacts with
    /// — `r2 > 0` and `r < support * max(h_i, h_j)` — in span order. The
    /// target itself needs no exclusion: it is an `r2 == 0` row.
    ///
    /// Two steps: squared separations `(dx·dx + dy·dy) + dz·dz` over all
    /// candidates pre-select the rows with `r2 <= max(reach_i, reach_j)^2`
    /// (a superset: under correct rounding `r < reach` implies
    /// `r2 <= reach * reach`), then only those rows pay the sqrt and the
    /// exact test. Both steps compact branch-free: in-range rows are a
    /// minority in no predictable pattern, so every row is written and
    /// the write position advances on a hit.
    ///
    /// Runs the AVX2 bodies where the CPU has them; the staged columns are
    /// those of [`ForceBatch::stage_portable`], bit for bit.
    pub fn stage(
        &mut self,
        support: f64,
        pi: &HydroInput,
        sources: &ForceSources,
        spans: &[(u32, u32)],
    ) {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            self.stage_with(
                support,
                pi,
                span_len(spans),
                |near, r2, reach_i2| {
                    simd::preselect(avx2, support, pi.pos, reach_i2, sources, spans, near, r2)
                },
                |near, r2, r, hj| simd::exact(avx2, support, pi.h, &sources.h, near, r2, r, hj),
            );
            return;
        }
        self.stage_portable(support, pi, sources, spans);
    }

    /// [`ForceBatch::stage`] through the portable bodies on every CPU;
    /// public so the equivalence tests and the bench can pin and time the
    /// dispatched path against it.
    pub fn stage_portable(
        &mut self,
        support: f64,
        pi: &HydroInput,
        sources: &ForceSources,
        spans: &[(u32, u32)],
    ) {
        self.stage_with(
            support,
            pi,
            span_len(spans),
            |near, r2, reach_i2| {
                preselect_portable(support, pi.pos, reach_i2, sources, spans, near, r2)
            },
            |near, r2, r, hj| exact_portable(support, pi.h, &sources.h, near, r2, r, hj),
        );
    }

    /// The column bookkeeping of both staging paths around their two
    /// loops: `preselect` fills `near`/`r2` for each of the `n` candidates
    /// and returns how many it kept at the front; `exact` compacts those
    /// rows in place, filling `r`/`hj`, and returns how many survive.
    fn stage_with(
        &mut self,
        support: f64,
        pi: &HydroInput,
        n: usize,
        preselect: impl FnOnce(&mut [u32], &mut [f64], f64) -> usize,
        exact: impl FnOnce(&mut [u32], &mut [f64], &mut [f64], &mut [f64]) -> usize,
    ) {
        let reach_i = support * pi.h;
        // Every entry below `kept` is written before it is read, so the
        // columns only need the length, not fresh contents.
        self.near.resize(n, 0);
        self.r2.resize(n, 0.0);
        let kept = preselect(&mut self.near, &mut self.r2, reach_i * reach_i);
        self.near.truncate(kept);
        self.r2.truncate(kept);
        // Row `q` of the exact test is written to slot `kept <= q`, so the
        // in-place columns are never overrun.
        self.r.resize(kept, 0.0);
        self.hj.resize(kept, 0.0);
        let kept = exact(&mut self.near, &mut self.r2, &mut self.r, &mut self.hj);
        self.near.truncate(kept);
        self.r2.truncate(kept);
        self.r.truncate(kept);
        self.hj.truncate(kept);
    }

    /// Number of staged in-support pairs.
    pub fn len(&self) -> usize {
        self.near.len()
    }

    pub fn is_empty(&self) -> bool {
        self.near.is_empty()
    }

    /// The staged columns `(near, r2, r, hj)`: per pair, its position in
    /// the [`ForceSources`], squared separation, separation and `h_j`.
    pub fn staged(&self) -> (&[u32], &[f64], &[f64], &[f64]) {
        (&self.near, &self.r2, &self.r, &self.hj)
    }

    /// Candidates the columns can hold without growing.
    pub(crate) fn capacity(&self) -> usize {
        self.r2.capacity()
    }

    /// Grow every column to hold a candidate list of `n` (see
    /// [`crate::group::GroupBuffers`]; staging grows on demand without it).
    pub(crate) fn reserve(&mut self, n: usize) {
        reserve_column(&mut self.near, n);
        for col in [
            &mut self.r2,
            &mut self.r,
            &mut self.hj,
            &mut self.dwi,
            &mut self.dwj,
        ] {
            reserve_column(col, n);
        }
    }
}

/// The pre-selection loop of [`ForceBatch::stage_portable`]: writes every
/// candidate of `spans` to `near`/`r2` (one slot per candidate) and
/// returns how many rows with `0 < r2 <= max(reach_i2, reach_j^2)` it
/// packed to the front, in span order. Also the AVX2 body's tail on every
/// span, hence inlined there.
#[inline(always)]
pub(crate) fn preselect_portable(
    support: f64,
    xi: Vec3,
    reach_i2: f64,
    sources: &ForceSources,
    spans: &[(u32, u32)],
    near: &mut [u32],
    r2: &mut [f64],
) -> usize {
    let mut kept = 0;
    for &(s, e) in spans {
        let span = s as usize..e as usize;
        let xyz = sources.x[span.clone()]
            .iter()
            .zip(&sources.y[span.clone()])
            .zip(&sources.z[span.clone()]);
        for ((((&x, &y), &z), &hj), k) in xyz.zip(&sources.h[span]).zip(s..) {
            let (dx, dy, dz) = (xi.x - x, xi.y - y, xi.z - z);
            let d2 = dx * dx + dy * dy + dz * dz;
            let reach_j = support * hj;
            near[kept] = k;
            r2[kept] = d2;
            kept += ((d2 > 0.0) & (d2 <= reach_i2.max(reach_j * reach_j))) as usize;
        }
    }
    kept
}

/// The exact test of [`ForceBatch::stage_portable`]: over the
/// pre-selected rows, `r = sqrt(r2)` and `h_j` gathered from `h`; packs
/// the rows with `r < support * max(h_i, h_j)` to the front of all four
/// columns and returns their number.
fn exact_portable(
    support: f64,
    hi: f64,
    h: &[f64],
    near: &mut [u32],
    r2: &mut [f64],
    r: &mut [f64],
    hj: &mut [f64],
) -> usize {
    let mut kept = 0;
    for q in 0..near.len() {
        let (k, d2) = (near[q], r2[q]);
        let (d, h_j) = (d2.sqrt(), h[k as usize]);
        near[kept] = k;
        r2[kept] = d2;
        r[kept] = d;
        hj[kept] = h_j;
        kept += (d < support * hi.max(h_j)) as usize;
    }
    kept
}

/// The staged columns of one target a force body reads, all of one
/// length: the pair's source position, `r2`, `r`, `h_j` and the two
/// kernel gradients.
pub(crate) struct PairColumns<'a> {
    pub(crate) near: &'a [u32],
    pub(crate) r2: &'a [f64],
    pub(crate) r: &'a [f64],
    pub(crate) hj: &'a [f64],
    pub(crate) dwi: &'a [f64],
    pub(crate) dwj: &'a [f64],
}

/// The [`FORCE_LANES`] accumulators of a force body, reduced by
/// [`Lanes::reduce_into`] in one fixed order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Lanes {
    pub(crate) ax: [f64; FORCE_LANES],
    pub(crate) ay: [f64; FORCE_LANES],
    pub(crate) az: [f64; FORCE_LANES],
    pub(crate) du: [f64; FORCE_LANES],
    pub(crate) vs: [f64; FORCE_LANES],
}

impl Lanes {
    /// Add one pair's [`pair_terms`] to lane `l`. The signal-velocity max
    /// is `f64::max(acc, v)`: the vector bodies take `max(v, acc)` with
    /// the operand order that reproduces it (see `crate::simd`).
    #[inline(always)]
    pub(crate) fn add(&mut self, l: usize, [x, y, z, d, v]: [f64; 5]) {
        self.ax[l] += x;
        self.ay[l] += y;
        self.az[l] += z;
        self.du[l] += d;
        self.vs[l] = self.vs[l].max(v);
    }

    fn reduce_into(&self, out: &mut HydroAccum) {
        let (ax, ay, az, du, vs) = (self.ax, self.ay, self.az, self.du, self.vs);
        out.acc += Vec3::new(
            (ax[0] + ax[1]) + (ax[2] + ax[3]),
            (ay[0] + ay[1]) + (ay[2] + ay[3]),
            (az[0] + az[1]) + (az[2] + az[3]),
        );
        out.dudt += (du[0] + du[1]) + (du[2] + du[3]);
        out.v_sig_max = out.v_sig_max.max(vs[0].max(vs[1]).max(vs[2].max(vs[3])));
    }
}

/// The terms staged pair `q` adds to its lane — `(a_x, a_y, a_z, du/dt,
/// v_sig)` — in the association order every force body follows. The
/// vector bodies spell this same expression one operation at a time.
#[inline(always)]
pub(crate) fn pair_terms(
    pi: &HydroInput,
    visc: &Viscosity,
    src: &ForceSources,
    cols: &PairColumns,
    q: usize,
) -> [f64; 5] {
    let k = cols.near[q] as usize;
    let (dx, dy, dz) = (
        pi.pos.x - src.x[k],
        pi.pos.y - src.y[k],
        pi.pos.z - src.z[k],
    );
    let (dvx, dvy, dvz) = (
        pi.vel.x - src.vx[k],
        pi.vel.y - src.vy[k],
        pi.vel.z - src.vz[k],
    );
    let hj = cols.hj[q];
    let dw = 0.5 * (cols.dwi[q] + cols.dwj[q]);
    let gf = dw * (1.0 / cols.r[q]);
    let gx = dx * gf;
    let gy = dy * gf;
    let gz = dz * gf;
    let vdotr = dvx * dx + dvy * dy + dvz * dz;
    let h_mean = 0.5 * (pi.h + hj);
    let c_mean = 0.5 * (pi.cs + src.cs[k]);
    let rho_mean = 0.5 * (pi.rho + src.rho[k]);
    let mu_all = h_mean * vdotr / (cols.r2[q] + visc.eta2 * h_mean * h_mean);
    let mu = if vdotr < 0.0 { mu_all } else { 0.0 };
    let visc_term = (-visc.alpha * c_mean * mu + visc.beta * mu * mu) / rho_mean;
    let v_sig = pi.cs + src.cs[k] - 3.0 * mu;
    let mj = src.m[k];
    let fac = pi.p_over_rho2 + src.p2[k] + visc_term;
    let dudt = mj * (pi.p_over_rho2 + 0.5 * visc_term) * (dvx * gx + dvy * gy + dvz * gz);
    [
        -(gx * (mj * fac)),
        -(gy * (mj * fac)),
        -(gz * (mj * fac)),
        dudt,
        v_sig,
    ]
}

/// The portable force body: staged pair `q` goes to lane
/// `q % FORCE_LANES`, the pairs after the last full block of
/// [`FORCE_LANES`] to lane 0.
fn force_lanes_portable(
    pi: &HydroInput,
    visc: &Viscosity,
    src: &ForceSources,
    cols: &PairColumns,
) -> Lanes {
    let n = cols.near.len();
    let full = n - n % FORCE_LANES;
    let mut lanes = Lanes::default();
    for base in (0..full).step_by(FORCE_LANES) {
        for l in 0..FORCE_LANES {
            lanes.add(l, pair_terms(pi, visc, src, cols, base + l));
        }
    }
    for q in full..n {
        lanes.add(0, pair_terms(pi, visc, src, cols, q));
    }
    lanes
}

/// Accumulate the hydro force on `pi` from every pair staged in `batch`
/// (against the same `sources`) — the batched form of [`pair_force`].
///
/// [`pair_force`]'s early-outs (coincident or out-of-support pairs) were
/// applied by [`ForceBatch::stage`], so the loop carries no mask for them;
/// the one remaining branch, viscosity for approaching pairs only, is a
/// select. Accumulation runs over [`FORCE_LANES`] lanes — staged pair `q`
/// goes to lane `q % FORCE_LANES`, the remainder pairs to lane 0 — reduced
/// in a fixed order.
///
/// Runs the AVX2 body where the CPU has it; the result is that of
/// [`force_batch_portable`], bit for bit.
pub fn force_batch(
    kernel: &dyn SphKernel,
    visc: &Viscosity,
    pi: &HydroInput,
    sources: &ForceSources,
    batch: &mut ForceBatch,
    out: &mut HydroAccum,
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = Avx2::detect() {
        force_batch_with(kernel, pi, batch, out, |cols| {
            simd::force_lanes(avx2, pi, visc, sources, cols)
        });
        return;
    }
    force_batch_portable(kernel, visc, pi, sources, batch, out);
}

/// [`force_batch`] through the portable body on every CPU; public so the
/// equivalence tests and the bench can pin and time the dispatched path
/// against it.
pub fn force_batch_portable(
    kernel: &dyn SphKernel,
    visc: &Viscosity,
    pi: &HydroInput,
    sources: &ForceSources,
    batch: &mut ForceBatch,
    out: &mut HydroAccum,
) {
    force_batch_with(kernel, pi, batch, out, |cols| {
        force_lanes_portable(pi, visc, sources, cols)
    });
}

/// Both force paths around their bodies: the kernel gradients of every
/// staged pair, then `body` over the pair columns, then the fixed-order
/// reduction into `out`.
fn force_batch_with(
    kernel: &dyn SphKernel,
    pi: &HydroInput,
    batch: &mut ForceBatch,
    out: &mut HydroAccum,
    body: impl FnOnce(&PairColumns) -> Lanes,
) {
    let n = batch.near.len();
    batch.dwi.resize(n, 0.0);
    batch.dwj.resize(n, 0.0);
    kernel.dwdr_batch(&batch.r, pi.h, &mut batch.dwi);
    kernel.dwdr_batch_per_h(&batch.r, &batch.hj, &mut batch.dwj);
    let cols = PairColumns {
        near: &batch.near,
        r2: &batch.r2,
        r: &batch.r,
        hj: &batch.hj,
        dwi: &batch.dwi,
        dwj: &batch.dwj,
    };
    body(&cols).reduce_into(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eos::GammaLawEos;
    use crate::kernel::CubicSpline;

    fn make(pos: Vec3, vel: Vec3, rho: f64, u: f64) -> HydroInput {
        let eos = GammaLawEos::default();
        HydroInput {
            pos,
            vel,
            mass: 1.0,
            h: 1.0,
            rho,
            p_over_rho2: eos.p_over_rho2(rho, u),
            cs: eos.sound_speed(u),
        }
    }

    #[test]
    fn pressure_force_is_repulsive_along_separation() {
        let a = make(Vec3::ZERO, Vec3::ZERO, 1.0, 1.0);
        let b = make(Vec3::new(0.8, 0.0, 0.0), Vec3::ZERO, 1.0, 1.0);
        let mut out = HydroAccum::default();
        pair_force(&CubicSpline, &Viscosity::default(), &a, &b, &mut out);
        // a sits at smaller x: pressure pushes it toward -x.
        assert!(out.acc.x < 0.0, "acc {:?}", out.acc);
        assert_eq!(out.acc.y, 0.0);
    }

    #[test]
    fn newtons_third_law_momentum_and_energy() {
        let a = make(Vec3::ZERO, Vec3::new(0.3, 0.0, 0.0), 1.5, 2.0);
        let b = make(
            Vec3::new(0.5, 0.4, -0.2),
            Vec3::new(-0.1, 0.2, 0.0),
            0.8,
            1.0,
        );
        let mut fa = HydroAccum::default();
        let mut fb = HydroAccum::default();
        let visc = Viscosity::default();
        pair_force(&CubicSpline, &visc, &a, &b, &mut fa);
        pair_force(&CubicSpline, &visc, &b, &a, &mut fb);
        // Momentum: m_a a_a + m_b a_b = 0.
        let net = fa.acc * a.mass + fb.acc * b.mass;
        assert!(net.norm() < 1e-14, "net {net:?}");
        // Energy: m_a du_a + m_b du_b = -d/dt kinetic = -(m a)·v summed.
        let dk = a.mass * fa.acc.dot(a.vel) + b.mass * fb.acc.dot(b.vel);
        let du = a.mass * fa.dudt + b.mass * fb.dudt;
        assert!((dk + du).abs() < 1e-12, "energy leak {}", dk + du);
    }

    #[test]
    fn viscosity_only_for_approaching_pairs() {
        let visc = Viscosity::default();
        // Receding: viscosity off, dudt is pure PdV (negative for expansion).
        let a = make(Vec3::ZERO, Vec3::new(-1.0, 0.0, 0.0), 1.0, 1.0);
        let b = make(Vec3::new(0.7, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0), 1.0, 1.0);
        let mut out = HydroAccum::default();
        pair_force(&CubicSpline, &visc, &a, &b, &mut out);
        assert!(out.dudt < 0.0, "expansion must cool: {}", out.dudt);
        let receding_vsig = out.v_sig_max;

        // Approaching: viscosity raises both the force and v_sig.
        let a2 = make(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 1.0, 1.0);
        let b2 = make(
            Vec3::new(0.7, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            1.0,
            1.0,
        );
        let mut out2 = HydroAccum::default();
        pair_force(&CubicSpline, &visc, &a2, &b2, &mut out2);
        assert!(out2.dudt > 0.0, "compression must heat: {}", out2.dudt);
        assert!(out2.v_sig_max > receding_vsig);
    }

    #[test]
    fn no_interaction_beyond_support() {
        let a = make(Vec3::ZERO, Vec3::ZERO, 1.0, 1.0);
        let b = make(Vec3::new(2.5, 0.0, 0.0), Vec3::ZERO, 1.0, 1.0);
        let mut out = HydroAccum::default();
        pair_force(&CubicSpline, &Viscosity::default(), &a, &b, &mut out);
        assert_eq!(out, HydroAccum::default());
    }

    #[test]
    fn coincident_particles_are_skipped() {
        let a = make(Vec3::ZERO, Vec3::ZERO, 1.0, 1.0);
        let mut out = HydroAccum::default();
        pair_force(&CubicSpline, &Viscosity::default(), &a, &a, &mut out);
        assert_eq!(out, HydroAccum::default());
    }

    #[test]
    fn force_batch_matches_pair_force_loop() {
        // The staged batched kernel against the scalar reference, over a
        // candidate list that exercises every early-out the staging must
        // reproduce: the target itself (r2 == 0), out-of-support rows,
        // approaching and receding pairs, asymmetric smoothing lengths.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 57;
        let inputs: Vec<HydroInput> = (0..n)
            .map(|_| {
                let eos = GammaLawEos::default();
                let rho = rng.gen_range(0.5..2.0);
                let u = rng.gen_range(0.2..3.0);
                HydroInput {
                    pos: Vec3::new(
                        rng.gen_range(-2.0..2.0),
                        rng.gen_range(-2.0..2.0),
                        rng.gen_range(-2.0..2.0),
                    ),
                    vel: Vec3::new(
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ),
                    mass: rng.gen_range(0.5..1.5),
                    h: rng.gen_range(0.4..1.6),
                    rho,
                    p_over_rho2: eos.p_over_rho2(rho, u),
                    cs: eos.sound_speed(u),
                }
            })
            .collect();
        let visc = Viscosity::default();
        let everyone = [(0, n as u32)];
        let support = CubicSpline.support();
        let mut sources = ForceSources::default();
        sources.fill(inputs.iter().copied());
        assert_eq!(sources.len(), n);
        let mut batch = ForceBatch::default();
        let mut dropped_rows = false;
        for i in 0..n {
            let mut reference = HydroAccum::default();
            let mut pairs = 0;
            for j in 0..n {
                let before = reference;
                pair_force(&CubicSpline, &visc, &inputs[i], &inputs[j], &mut reference);
                pairs += (reference != before) as usize;
            }
            batch.stage(support, &inputs[i], &sources, &everyone);
            assert_eq!(batch.len(), pairs, "staged rows are the interacting pairs");
            dropped_rows |= batch.len() < n - 1;
            let mut batched = HydroAccum::default();
            force_batch(
                &CubicSpline,
                &visc,
                &inputs[i],
                &sources,
                &mut batch,
                &mut batched,
            );
            let acc_rel = (batched.acc - reference.acc).norm() / reference.acc.norm().max(1e-12);
            assert!(acc_rel < 1e-12, "acc[{i}] rel {acc_rel}");
            let du_rel = (batched.dudt - reference.dudt).abs() / reference.dudt.abs().max(1e-12);
            assert!(du_rel < 1e-12, "dudt[{i}] rel {du_rel}");
            let vs_rel =
                (batched.v_sig_max - reference.v_sig_max).abs() / reference.v_sig_max.max(1e-12);
            assert!(vs_rel < 1e-12, "v_sig[{i}] rel {vs_rel}");
        }
        assert!(dropped_rows, "the cloud must hold out-of-support pairs");
    }

    #[test]
    fn force_batch_is_deterministic() {
        let a = make(Vec3::ZERO, Vec3::new(0.3, 0.1, -0.2), 1.5, 2.0);
        let sources = [
            a,
            make(
                Vec3::new(0.5, 0.4, -0.2),
                Vec3::new(-0.1, 0.2, 0.0),
                0.8,
                1.0,
            ),
            make(
                Vec3::new(-0.7, 0.2, 0.3),
                Vec3::new(0.4, -0.3, 0.1),
                1.2,
                0.5,
            ),
            make(Vec3::new(3.0, 0.0, 0.0), Vec3::ZERO, 1.0, 1.0), // out of range
            make(
                Vec3::new(0.1, -0.6, 0.5),
                Vec3::new(0.0, 0.5, -0.5),
                0.9,
                2.5,
            ),
        ];
        let everyone = [(0, sources.len() as u32)];
        let visc = Viscosity::default();
        let support = CubicSpline.support();
        let mut soa = ForceSources::default();
        soa.fill(sources.iter().copied());
        let mut batch = ForceBatch::default();
        batch.stage(support, &a, &soa, &everyone);
        assert_eq!(batch.len(), 3, "self and the far source are dropped");
        let mut first = HydroAccum::default();
        force_batch(&CubicSpline, &visc, &a, &soa, &mut batch, &mut first);
        for _ in 0..3 {
            batch.stage(support, &a, &soa, &everyone);
            let mut again = HydroAccum::default();
            force_batch(&CubicSpline, &visc, &a, &soa, &mut batch, &mut again);
            assert_eq!(first.acc.x.to_bits(), again.acc.x.to_bits());
            assert_eq!(first.acc.y.to_bits(), again.acc.y.to_bits());
            assert_eq!(first.acc.z.to_bits(), again.acc.z.to_bits());
            assert_eq!(first.dudt.to_bits(), again.dudt.to_bits());
            assert_eq!(first.v_sig_max.to_bits(), again.v_sig_max.to_bits());
        }
        assert!(first.acc.norm() > 0.0, "batch must have produced a force");
    }

    #[test]
    fn asymmetric_smoothing_lengths_still_conserve() {
        let mut a = make(Vec3::ZERO, Vec3::new(0.5, 0.0, 0.0), 2.0, 3.0);
        let mut b = make(Vec3::new(0.9, 0.1, 0.0), Vec3::ZERO, 0.5, 0.7);
        a.h = 0.6;
        b.h = 1.4;
        let visc = Viscosity::default();
        let mut fa = HydroAccum::default();
        let mut fb = HydroAccum::default();
        pair_force(&CubicSpline, &visc, &a, &b, &mut fa);
        pair_force(&CubicSpline, &visc, &b, &a, &mut fb);
        assert!((fa.acc * a.mass + fb.acc * b.mass).norm() < 1e-14);
    }

    /// [`ForceSources::fill`] as it was before it wrote by slot.
    fn fill_pushed(inputs: &[HydroInput]) -> ForceSources {
        let mut s = ForceSources::default();
        for pj in inputs {
            s.x.push(pj.pos.x);
            s.y.push(pj.pos.y);
            s.z.push(pj.pos.z);
            s.vx.push(pj.vel.x);
            s.vy.push(pj.vel.y);
            s.vz.push(pj.vel.z);
            s.h.push(pj.h);
            s.m.push(pj.mass);
            s.rho.push(pj.rho);
            s.p2.push(pj.p_over_rho2);
            s.cs.push(pj.cs);
        }
        s
    }

    /// [`ForceBatch::stage`] as it was before its exact test wrote by
    /// slot: the second pass pushed `r` and `hj` per surviving row.
    fn stage_pushed(
        b: &mut ForceBatch,
        support: f64,
        pi: &HydroInput,
        sources: &ForceSources,
        spans: &[(u32, u32)],
    ) {
        let n = span_len(spans);
        let reach_i = support * pi.h;
        let reach_i2 = reach_i * reach_i;
        b.near.clear();
        b.near.resize(n, 0);
        b.r2.clear();
        b.r2.resize(n, 0.0);
        let mut kept = 0;
        for &(s, e) in spans {
            for k in s..e {
                let j = k as usize;
                let (dx, dy, dz) = (
                    pi.pos.x - sources.x[j],
                    pi.pos.y - sources.y[j],
                    pi.pos.z - sources.z[j],
                );
                let r2 = dx * dx + dy * dy + dz * dz;
                let reach_j = support * sources.h[j];
                b.near[kept] = k;
                b.r2[kept] = r2;
                kept += ((r2 > 0.0) & (r2 <= reach_i2.max(reach_j * reach_j))) as usize;
            }
        }
        b.near.truncate(kept);
        b.r.clear();
        b.hj.clear();
        let mut kept = 0;
        for q in 0..b.near.len() {
            let (k, r2) = (b.near[q], b.r2[q]);
            let (r, hj) = (r2.sqrt(), sources.h[k as usize]);
            if r < support * pi.h.max(hj) {
                b.near[kept] = k;
                b.r2[kept] = r2;
                kept += 1;
                b.r.push(r);
                b.hj.push(hj);
            }
        }
        b.near.truncate(kept);
        b.r2.truncate(kept);
    }

    fn random_inputs(rng: &mut rand::rngs::StdRng, n: usize, spread: f64) -> Vec<HydroInput> {
        use rand::Rng;
        let eos = GammaLawEos::default();
        (0..n)
            .map(|_| {
                let mut p = make(
                    Vec3::new(
                        rng.gen_range(-spread..spread),
                        rng.gen_range(-spread..spread),
                        rng.gen_range(-spread..spread),
                    ),
                    Vec3::new(
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ),
                    rng.gen_range(0.5..2.0),
                    rng.gen_range(0.2..3.0),
                );
                p.mass = rng.gen_range(0.5..1.5);
                p.h = rng.gen_range(0.4..1.6);
                p.cs = eos.sound_speed(rng.gen_range(0.2..3.0));
                p
            })
            .collect()
    }

    fn accum_bits(a: &HydroAccum) -> [u64; 5] {
        [a.acc.x, a.acc.y, a.acc.z, a.dudt, a.v_sig_max].map(f64::to_bits)
    }

    /// The slot writers — [`ForceSources::fill`] and the exact-test
    /// compaction of [`ForceBatch::stage`] — against their push references,
    /// through reused buffers: equal columns and equal [`force_batch`]
    /// bits over 0–9 sources (empty candidate lists included), split and
    /// whole spans, and clouds where every row is kept and where none is.
    #[test]
    fn slot_writers_match_the_push_references_bitwise() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2828);
        let support = CubicSpline.support();
        let visc = Viscosity::default();
        let mut sources = ForceSources::default();
        let (mut slot, mut pushed) = (ForceBatch::default(), ForceBatch::default());
        let (mut all_kept, mut none_kept) = (false, false);
        for n in (0..=9u32).rev().chain(0..=9) {
            // 0.2: every pair within reach; 40: almost never.
            for spread in [0.2, 1.5, 40.0] {
                let inputs = random_inputs(&mut rng, n as usize, spread);
                sources.fill(inputs.iter().copied());
                let mut reference = fill_pushed(&inputs);
                for (a, b) in sources.columns().into_iter().zip(reference.columns()) {
                    assert_eq!(a.len(), n as usize);
                    assert!(a
                        .iter()
                        .zip(b.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits()));
                }
                let outside = random_inputs(&mut rng, 1, spread)[0];
                for (t, pi) in inputs.iter().chain([&outside]).enumerate() {
                    let cut = n / 2;
                    for spans in [&[(0, n)][..], &[(0, cut), (cut, n)], &[]] {
                        slot.stage(support, pi, &sources, spans);
                        stage_pushed(&mut pushed, support, pi, &reference, spans);
                        let case = format!("n {n}, spread {spread}, target {t}, {spans:?}");
                        assert_eq!(slot.near, pushed.near, "{case}");
                        for (a, b) in [
                            (&slot.r2, &pushed.r2),
                            (&slot.r, &pushed.r),
                            (&slot.hj, &pushed.hj),
                        ] {
                            assert_eq!(a.len(), slot.near.len(), "{case}");
                            assert!(a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits()));
                        }
                        let candidates =
                            span_len(spans) - (t < n as usize && !spans.is_empty()) as usize;
                        all_kept |= candidates > 0 && slot.len() == candidates;
                        none_kept |= candidates > 0 && slot.is_empty();
                        let (mut a, mut b) = (HydroAccum::default(), HydroAccum::default());
                        force_batch(&CubicSpline, &visc, pi, &sources, &mut slot, &mut a);
                        force_batch(&CubicSpline, &visc, pi, &reference, &mut pushed, &mut b);
                        assert_eq!(accum_bits(&a), accum_bits(&b), "{case}");
                    }
                }
            }
        }
        assert!(
            all_kept && none_kept,
            "kept all: {all_kept}, kept none: {none_kept}"
        );
    }
}
