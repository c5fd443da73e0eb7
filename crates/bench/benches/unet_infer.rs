//! U-Net CPU inference cost: the pool-node budget. The paper gives the
//! prediction 50 global steps (~0.1 Myr, tens of wall seconds at scale) to
//! finish; this bench measures what our CPU inference path needs per
//! region and writes the `BENCH_unet_infer.json` trajectory artifact at
//! the repo root.
//!
//! Three tiers:
//!
//! * iterated measurements ([`bench::Records::time`]) at small test grids
//!   (16^3 and 32^3, both feature widths) for stable per-stage numbers;
//! * a single-shot voxelize → encode → forward → decode pipeline at the paper's 64^3
//!   region grid — *informational* absolute timings (the <1 s
//!   interactivity target is asserted by the integration tests, not
//!   gated here, because absolute wall-clock swings with the runner);
//! * the **gated** `conv_gflops_ratio` top-level metric: achieved
//!   convolution throughput of the production forward (the dispatched
//!   direct convolution) over the retained scalar loop-nest reference on
//!   the same layer and input. Same op count, same run, same machine —
//!   throughput ratio = time ratio, so runner speed cancels and the
//!   bench-gate can hold the line on it;
//! * informational `forward_inference_ms` / `forward_cached_ms` /
//!   `forward_gflops`: the inference forward against the training forward
//!   (which keeps the backprop cache) on one 32^3 input at
//!   `base_features` 4 — the benchmark's `sn_surrogate` shape.

use bench::{best_of, BenchDoc, Better, Records};
use surrogate::{decode_fields, encode_fields, particles_to_grid, VoxelGrid};
use unet::{Tensor, UNet3d, UNetConfig};

fn bench_inference(records: &mut Records) {
    for (n, feats) in [(16usize, 4usize), (32, 4), (32, 8)] {
        let net = UNet3d::new(
            &UNetConfig {
                in_channels: 8,
                out_channels: 8,
                base_features: feats,
            },
            1,
        );
        let x = Tensor::zeros(8, n, n, n);
        records.time(format!("unet_inference/{n}cubed_f{feats}"), 10, || {
            net.forward(&x)
        });
    }
}

fn bench_encode_decode(records: &mut Records) {
    // The tensor boundary around the net: voxel fields → 8-channel log
    // tensor → fields, at a small test grid and at the benchmark's
    // `sn_surrogate` grid (262 k `log10` / `powf` per region).
    for n in [16usize, 32] {
        let grid = VoxelGrid::centered(fdps::Vec3::ZERO, 60.0, n);
        let fields = particles_to_grid(grid, &synthetic_region(4000, 60.0, 2.0));
        let group = format!("encode_decode_{n}cubed");
        records.time(format!("{group}/encode"), 20, || encode_fields(&fields));
        let t = encode_fields(&fields);
        records.time(format!("{group}/decode"), 20, || decode_fields(&t, grid));
    }
}

fn bench_voxel_pipeline(records: &mut Records) {
    // One-voxel footprints: h = 2 pc on 3.75 pc voxels.
    let parts = synthetic_region(5000, 60.0, 2.0);
    let grid = VoxelGrid::centered(fdps::Vec3::ZERO, 60.0, 16);
    records.time("voxelize_5k_particles_16cubed", 10, || {
        particles_to_grid(grid, &parts)
    });
    // The shape the benchmark's `sn_surrogate` deploys: ~1600 particles
    // with h ~ 5 pc on 1.875 pc voxels, ~560 voxels per footprint.
    let parts = synthetic_region(1600, 60.0, 5.0);
    let grid = VoxelGrid::centered(fdps::Vec3::ZERO, 60.0, 32);
    records.time("voxelize_1600_particles_32cubed_h5", 10, || {
        particles_to_grid(grid, &parts)
    });
}

fn synthetic_region(n: usize, side: f64, h: f64) -> Vec<surrogate::GasParticle> {
    (0..n)
        .map(|i| surrogate::GasParticle {
            pos: fdps::Vec3::new(
                ((i * 7) % 600) as f64 / 600.0 * side - side / 2.0,
                ((i * 13) % 600) as f64 / 600.0 * side - side / 2.0,
                ((i * 29) % 600) as f64 / 600.0 * side - side / 2.0,
            ),
            vel: fdps::Vec3::new((i % 11) as f64 - 5.0, 0.0, 0.0),
            mass: 1.0,
            temp: 100.0 + (i % 97) as f64 * 50.0,
            h,
            id: i as u64,
        })
        .collect()
}

/// The gated convolution-throughput ratio: time the scalar loop-nest
/// reference against the production forward (the dispatched direct
/// convolution) on one representative interior convolution (8 -> 8
/// channels, k = 3, 32^3), best-of-`reps` each. Identical op count, so
/// the time ratio *is* the achieved-GFLOPs ratio and runner speed cancels
/// out.
fn conv_gflops_ratio() -> f64 {
    use unet::conv::Conv3d;
    let conv = Conv3d::new(8, 8, 3, 7);
    let x = Tensor::zeros(8, 32, 32, 32);
    let (t_ref, _) = best_of(3, || conv.forward_reference(&x));
    let (t_direct, _) = best_of(10, || conv.forward(&x));
    let ratio = t_ref / t_direct;
    println!(
        "conv_gflops_ratio: {ratio:.2}x (scalar reference {t_ref:.4} s, \
         direct convolution {t_direct:.6} s)"
    );
    ratio
}

/// Inference forward vs training forward on the benchmark's `sn_surrogate`
/// shape (32^3, `base_features` 4), best of 10 each, and the inference
/// path's throughput: `UNet3d::forward_flops` (2 per multiply-add of every
/// convolution, padding taps included) over its best time.
fn forward_paths() -> [(&'static str, f64); 3] {
    const N: usize = 32;
    let net = UNet3d::new(
        &UNetConfig {
            in_channels: 8,
            out_channels: 8,
            base_features: 4,
        },
        1,
    );
    let x = Tensor::zeros(8, N, N, N);
    let (t_inference, _) = best_of(10, || net.forward(&x));
    let (t_cached, _) = best_of(10, || net.forward_cached(&x).0);
    let gflop = net.forward_flops(N, N, N) * 1e-9;
    let gflops = gflop / t_inference;
    println!(
        "forward at {N}^3 f4: inference {:.3} ms ({gflops:.1} GFLOP/s of {gflop:.3} GFLOP), \
         with the backprop cache {:.3} ms",
        t_inference * 1e3,
        t_cached * 1e3
    );
    [
        ("forward_inference_ms", t_inference * 1e3),
        ("forward_cached_ms", t_cached * 1e3),
        ("forward_gflops", gflops),
    ]
}

/// Single-shot timings of the full tensor pipeline at the paper's 64^3
/// region grid, appended to the records as one-iteration measurements.
fn paper_grid_single_shot(records: &mut Records) {
    const N: usize = 64;
    const FEATS: usize = 4;
    let grid = VoxelGrid::centered(fdps::Vec3::ZERO, 60.0, N);
    let region = synthetic_region(20_000, 60.0, 2.0);
    let net = UNet3d::new(
        &UNetConfig {
            in_channels: 8,
            out_channels: 8,
            base_features: FEATS,
        },
        1,
    );
    let stage = |name| format!("paper_grid_{N}cubed_f{FEATS}/{name}");
    let fields = records.shot(stage("voxelize"), || particles_to_grid(grid, &region));
    let x = records.shot(stage("encode"), || encode_fields(&fields));
    let y = records.shot(stage("forward"), || net.forward(&x));
    let out = records.shot(stage("decode"), || decode_fields(&y, grid));
    assert_eq!(out.grid.n, N);
}

fn main() {
    let mut records = Records::new();
    bench_inference(&mut records);
    bench_encode_decode(&mut records);
    bench_voxel_pipeline(&mut records);
    paper_grid_single_shot(&mut records);
    forward_paths()
        .into_iter()
        .fold(BenchDoc::new().records(records), |doc, (name, value)| {
            doc.info(name, value)
        })
        .gated("conv_gflops_ratio", conv_gflops_ratio(), Better::Higher)
        .write("BENCH_unet_infer.json");
}
