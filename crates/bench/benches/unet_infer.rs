//! U-Net CPU inference cost: the pool-node budget. The paper gives the
//! prediction 50 global steps (~0.1 Myr, tens of wall seconds at scale) to
//! finish; this bench measures what our CPU inference path needs per
//! region and writes the `BENCH_unet_infer.json` trajectory artifact at
//! the repo root:
//!
//! * the **gated** `conv_gflops_ratio` top-level metric: achieved
//!   convolution throughput of the production forward (the dispatched
//!   direct convolution) over the retained scalar loop-nest reference on
//!   the same layer and input. Same op count, same run, same machine —
//!   throughput ratio = time ratio, so runner speed cancels and the
//!   bench-gate can hold the line on it;
//! * informational voxelize → encode → forward → decode stage times at
//!   the paper's 64^3 region grid, which nothing else measures (the repo
//!   benchmark's `sn_surrogate` times the same stages at 32^3). They are
//!   absolute wall-clock numbers, so they are reported and never gated,
//!   and no test asserts a budget on them.

use bench::{best_of, BenchDoc, Better};
use json::Json;
use surrogate::{decode_fields, encode_fields, particles_to_grid, VoxelGrid};
use unet::{Tensor, UNet3d, UNetConfig};

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

/// Best-of-3 milliseconds of each stage of the tensor pipeline at the
/// paper's 64^3 region grid (`base_features` 4), by stage.
fn paper_grid_stages() -> Json {
    const N: usize = 64;
    let grid = VoxelGrid::centered(fdps::Vec3::ZERO, 60.0, N);
    let region = synthetic_region(20_000, 60.0, 2.0);
    let net = UNet3d::new(
        &UNetConfig {
            in_channels: 8,
            out_channels: 8,
            base_features: 4,
        },
        1,
    );
    let (voxelize, fields) = best_of(3, || particles_to_grid(grid, &region));
    let (encode, x) = best_of(3, || encode_fields(&fields));
    let (forward, y) = best_of(3, || net.forward(&x));
    let (decode, out) = best_of(3, || decode_fields(&y, grid));
    assert_eq!(out.grid.n, N);
    let stages = [
        ("voxelize_ms", voxelize),
        ("encode_ms", encode),
        ("forward_ms", forward),
        ("decode_ms", decode),
    ]
    .map(|(stage, seconds)| (stage, seconds * 1e3));
    println!("paper grid {N}^3 f4: {stages:?}");
    Json::obj(stages.map(|(stage, ms)| (stage, ms.into())))
}

fn main() {
    BenchDoc::new()
        .info("paper_grid_64cubed_f4", paper_grid_stages())
        .gated("conv_gflops_ratio", conv_gflops_ratio(), Better::Higher)
        .write("BENCH_unet_infer.json");
}
