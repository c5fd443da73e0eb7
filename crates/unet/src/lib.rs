//! # unet — a pure-Rust 3-D U-Net with training and CPU inference
//!
//! The surrogate model of paper §3.3: "We employ a U-Net architecture ...
//! a series of three-dimensional convolutional layers", trained with MSE
//! loss and the Adam optimizer. The authors train in Keras/TensorFlow and
//! deploy with CPU-optimized inference engines (ONNX Runtime on x86-64,
//! SoftNeuro on A64FX) because shipping data to GPUs would bottleneck the
//! simulation; this crate plays both roles: a from-scratch training stack
//! (forward + full backprop) and a dependency-free CPU inference path, with
//! a JSON model document ([`UNet3d::to_json`], built as a [`json::Json`]
//! value and rendered by the workspace's one writer) standing in for the
//! ONNX interchange format.
//!
//! ```
//! use unet::{Tensor, UNet3d, UNetConfig};
//!
//! let cfg = UNetConfig { in_channels: 2, out_channels: 1, base_features: 2 };
//! let net = UNet3d::new(&cfg, 42);
//! let x = Tensor::zeros(2, 8, 8, 8);
//! let y = net.forward(&x);
//! assert_eq!([y.c, y.d, y.h, y.w], [1, 8, 8, 8]);
//! ```

// `unsafe` is confined to `conv::simd`, the AVX2 tile behind a
// `lanes::Avx2` token: the compiler keeps it out of every other module.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod adam;
pub mod conv;
pub mod gemm;
pub mod layers;
pub mod tensor;
pub mod train;
pub mod unet;

// Kept for `benchmark/`, which imports `unet::json::…`.
pub use json;

pub use adam::Adam;
pub use tensor::Tensor;
pub use train::{mse_loss, TrainSample, Trainer};
pub use unet::{UNet3d, UNetConfig};
