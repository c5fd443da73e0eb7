//! Ablation bench: flat vs 3-D torus alltoallv (paper §3.4's O(p^{1/3})
//! optimization), measured on real mpisim ranks. Writes the
//! `BENCH_alltoall.json` trajectory artifact at the repo root.

use bench::{BenchDoc, Records};
use mpisim::{TorusDims, World};

fn main() {
    const PAYLOAD: usize = 256; // u64 per rank pair
    let mut records = Records::new();
    for p in [8usize, 27, 64] {
        let sends = move || (0..p).map(|j| vec![j as u64; PAYLOAD]).collect::<Vec<_>>();
        records.time(format!("alltoallv/flat/{p}"), 10, || {
            World::new(p).run(|comm| comm.alltoallv(sends()).len())
        });
        let dims = TorusDims::for_size(p);
        records.time(format!("alltoallv/torus3d/{p}"), 10, || {
            World::new(p).run(|comm| comm.alltoallv_torus(dims, sends()).len())
        });
    }
    BenchDoc::new()
        .records(records)
        .write("BENCH_alltoall.json");
}
