//! Ablation bench: flat vs 3-D torus alltoallv (paper §3.4's O(p^{1/3})
//! optimization), measured on real mpisim ranks. Writes the
//! `BENCH_alltoall.json` trajectory artifact at the repo root: the best
//! of 10 exchanges per routing and rank count, in ms, informational (the
//! repo benchmark's `dist_galaxy` routes flat only, so nothing else times
//! the torus).

use bench::{best_of, BenchDoc};
use json::Json;
use mpisim::{TorusDims, World};

fn main() {
    const PAYLOAD: usize = 256; // u64 per rank pair
    let (mut flat, mut torus) = (Vec::new(), Vec::new());
    for p in [8usize, 27, 64] {
        let sends = move || (0..p).map(|j| vec![j as u64; PAYLOAD]).collect::<Vec<_>>();
        let (t_flat, _) = best_of(10, || {
            World::new(p).run(|comm| comm.alltoallv(sends()).len())
        });
        let dims = TorusDims::for_size(p);
        let (t_torus, _) = best_of(10, || {
            World::new(p).run(|comm| comm.alltoallv_torus(dims, sends()).len())
        });
        let (flat_ms, torus_ms) = (t_flat * 1e3, t_torus * 1e3);
        println!("alltoallv on {p} ranks: flat {flat_ms:.3} ms, torus3d {torus_ms:.3} ms");
        flat.push((p.to_string(), flat_ms.into()));
        torus.push((p.to_string(), torus_ms.into()));
    }
    BenchDoc::new()
        .info("flat_ms", Json::obj(flat))
        .info("torus3d_ms", Json::obj(torus))
        .write("BENCH_alltoall.json");
}
