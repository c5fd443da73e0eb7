//! Ablation bench: flat vs 3-D torus alltoallv (paper §3.4's O(p^{1/3})
//! optimization), measured on real mpisim ranks. Writes the
//! `BENCH_alltoall.json` trajectory artifact at the repo root.

use bench::BenchDoc;
use criterion::{criterion_group, BenchmarkId, Criterion};
use mpisim::{TorusDims, World};
use std::hint::black_box;

fn bench_alltoall(c: &mut Criterion) {
    let mut group = c.benchmark_group("alltoallv");
    group.sample_size(10);
    for &ranks in &[8usize, 27, 64] {
        let payload = 256usize; // u64 per rank pair
        group.bench_with_input(BenchmarkId::new("flat", ranks), &ranks, |b, &p| {
            b.iter(|| {
                let out = World::new(p).run(|comm| {
                    let sends: Vec<Vec<u64>> = (0..p).map(|j| vec![j as u64; payload]).collect();
                    comm.alltoallv(sends).len()
                });
                black_box(out)
            })
        });
        group.bench_with_input(BenchmarkId::new("torus3d", ranks), &ranks, |b, &p| {
            let dims = TorusDims::for_size(p);
            b.iter(|| {
                let out = World::new(p).run(|comm| {
                    let sends: Vec<Vec<u64>> = (0..p).map(|j| vec![j as u64; payload]).collect();
                    comm.alltoallv_torus(dims, sends).len()
                });
                black_box(out)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_alltoall);

fn main() {
    benches();
    BenchDoc::new()
        .records(criterion::take_records())
        .write("BENCH_alltoall.json");
}
