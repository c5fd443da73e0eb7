//! The end-to-end surrogate: particles in, predicted particles out.

// no-panic-daemon: malformed input is a typed error, never a crashed fleet.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::encode::{decode_fields, encode_fields};
use crate::gibbs::grid_to_particles;
use crate::voxel::{particles_to_grid, GasParticle, VoxelGrid};
use fdps::Vec3;
use json::{fnv1a, parse_json, Json};
use rand::Rng;
use unet::{Tensor, Trainer, UNet3d, UNetConfig};

/// Document tag of [`SurrogateModel::to_json`] weights files.
pub const WEIGHTS_FORMAT: &str = "asura-surrogate-model";

/// Surrogate hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct SurrogateConfig {
    /// Voxels per edge (64 in the paper; tests use smaller cubes).
    pub grid_n: usize,
    /// Region side \[pc\] (60 in the paper).
    pub side: f64,
    /// U-Net width.
    pub base_features: usize,
    /// Weight init seed.
    pub seed: u64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            grid_n: 64,
            side: 60.0,
            base_features: 8,
            seed: 0,
        }
    }
}

/// The trained model plus the conversion pipeline around it.
pub struct SurrogateModel {
    pub config: SurrogateConfig,
    pub net: UNet3d,
}

impl SurrogateModel {
    pub fn new(config: SurrogateConfig) -> Self {
        let net = UNet3d::new(
            &UNetConfig {
                in_channels: 8,
                out_channels: 8,
                base_features: config.base_features,
            },
            config.seed,
        );
        SurrogateModel { config, net }
    }

    /// Grid covering the SN region centred at `center`.
    pub fn region_grid(&self, center: Vec3) -> VoxelGrid {
        VoxelGrid::centered(center, self.config.side, self.config.grid_n)
    }

    /// Raw tensor-level inference.
    pub fn infer(&self, input: &Tensor) -> Tensor {
        self.net.forward(input)
    }

    /// The full pipeline of paper Fig. 3: particles → voxels → U-Net →
    /// voxels → Gibbs-sampled particles. The output has exactly the input's
    /// particle count with recycled IDs (mass conservation by construction).
    pub fn predict_particles<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        center: Vec3,
        particles: &[GasParticle],
    ) -> Vec<GasParticle> {
        if particles.is_empty() {
            return Vec::new();
        }
        let grid = self.region_grid(center);
        let fields = particles_to_grid(grid, particles);
        let encoded = encode_fields(&fields);
        let predicted = self.infer(&encoded);
        let out_fields = decode_fields(&predicted, grid);
        let ids: Vec<u64> = particles.iter().map(|p| p.id).collect();
        let mut out = grid_to_particles(rng, &out_fields, particles.len(), &ids, 30, 1);
        // Rescale masses so the region's mass is exactly conserved even if
        // the network hallucinates density (the paper guarantees this by
        // particle-count conservation; we enforce it by total mass too).
        let m_in: f64 = particles.iter().map(|p| p.mass).sum();
        let m_out: f64 = out.iter().map(|p| p.mass).sum();
        if m_out > 0.0 {
            let scale = m_in / m_out;
            for p in out.iter_mut() {
                p.mass *= scale;
            }
        } else {
            let equal = m_in / out.len() as f64;
            for p in out.iter_mut() {
                p.mass = equal;
            }
        }
        out
    }

    /// Train on encoded samples; returns per-epoch mean losses.
    pub fn train(&mut self, samples: &[unet::TrainSample], epochs: usize, lr: f64) -> Vec<f64> {
        let net = std::mem::replace(
            &mut self.net,
            UNet3d::new(
                &UNetConfig {
                    in_channels: 8,
                    out_channels: 8,
                    base_features: self.config.base_features,
                },
                self.config.seed,
            ),
        );
        let mut trainer = Trainer::new(net, lr);
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            losses.push(trainer.epoch(samples));
        }
        self.net = trainer.net;
        losses
    }

    /// Serialize the model as a self-describing weights document (the
    /// ONNX-interchange stand-in): a `asura-surrogate-model` envelope
    /// carrying the pipeline hyperparameters (voxel grid, region side,
    /// width, seed), the network weights, and an FNV-1a checksum of the
    /// embedded network document so corruption is detected on load.
    /// Float rendering is shortest-roundtrip, so save → load is bit-exact.
    pub fn to_json(&self) -> String {
        let net = self.net.to_json();
        let checksum = Json::checksum(fnv1a(net.as_bytes()));
        Json::obj([
            ("format", WEIGHTS_FORMAT.into()),
            ("grid_n", self.config.grid_n.into()),
            ("side", Json::number(self.config.side)),
            ("base_features", self.config.base_features.into()),
            // Decimal text: a u64 seed does not survive a trip through f64.
            ("seed", self.config.seed.to_string().into()),
            ("checksum", checksum),
            ("net", Json::Raw(net)),
        ])
        .render()
    }

    /// Load a [`SurrogateModel::to_json`] document. Every failure mode —
    /// unparsable text, a foreign document, wrong channel counts, damaged
    /// weights — is an `Err`, never a panic: this is the path untrusted
    /// on-disk weights files come through.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::read(text).map_err(|e| format!("surrogate weights: {e}"))
    }

    fn read(text: &str) -> Result<Self, String> {
        let v = parse_json(text)?;
        match v.at("format", Json::as_str) {
            Ok(WEIGHTS_FORMAT) => {}
            other => {
                return Err(format!(
                    "not a {WEIGHTS_FORMAT} document (format {other:?})"
                ))
            }
        }
        let config = SurrogateConfig {
            grid_n: v.at("grid_n", Json::as_usize)?,
            side: match v.get("side")? {
                Json::Num(s) if s.is_finite() && *s > 0.0 => *s,
                other => return Err(format!("side must be a positive number, got {other:?}")),
            },
            base_features: v.at("base_features", Json::as_usize)?,
            seed: v.at("seed", Json::as_parsed)?,
        };
        // The U-Net pools twice: `predict_particles` feeds it a grid_n^3 cube.
        if config.grid_n == 0 || !config.grid_n.is_multiple_of(4) {
            return Err(format!(
                "grid_n must be a positive multiple of 4, got {}",
                config.grid_n
            ));
        }
        let net = UNet3d::from_json_value(v.get("net")?)?;
        // The checksum covers the canonical re-rendering of the parsed
        // network: bit-exact float formatting makes it equal to the stored
        // bytes for an intact file, while any flipped digit surfaces here.
        let stored = v.at("checksum", Json::as_checksum)?;
        let computed = fnv1a(net.to_json().as_bytes());
        if stored != computed {
            return Err(format!(
                "checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            ));
        }
        if net.config.in_channels != 8 || net.config.out_channels != 8 {
            return Err(format!(
                "network must be 8-in/8-out (the encode/decode channel contract), \
                 got {}-in/{}-out",
                net.config.in_channels, net.config.out_channels
            ));
        }
        if net.config.base_features != config.base_features {
            return Err(format!(
                "envelope says base_features {} but the network was built with {}",
                config.base_features, net.config.base_features
            ));
        }
        Ok(SurrogateModel { config, net })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg() -> SurrogateConfig {
        SurrogateConfig {
            grid_n: 8,
            side: 60.0,
            base_features: 2,
            seed: 3,
        }
    }

    fn region_particles(n: usize, seed: u64) -> Vec<GasParticle> {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        (0..n)
            .map(|i| GasParticle {
                pos: Vec3::new(
                    rng.gen_range(-25.0..25.0),
                    rng.gen_range(-25.0..25.0),
                    rng.gen_range(-25.0..25.0),
                ),
                vel: Vec3::new(
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(-5.0..5.0),
                ),
                mass: 1.0,
                temp: 100.0,
                h: 3.0,
                id: i as u64,
            })
            .collect()
    }

    #[test]
    fn pipeline_conserves_count_ids_and_mass() {
        let model = SurrogateModel::new(small_cfg());
        let parts = region_particles(200, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let out = model.predict_particles(&mut rng, Vec3::ZERO, &parts);
        assert_eq!(out.len(), parts.len());
        let in_ids: Vec<u64> = parts.iter().map(|p| p.id).collect();
        let out_ids: Vec<u64> = out.iter().map(|p| p.id).collect();
        assert_eq!(in_ids, out_ids);
        let m_in: f64 = parts.iter().map(|p| p.mass).sum();
        let m_out: f64 = out.iter().map(|p| p.mass).sum();
        assert!((m_out / m_in - 1.0).abs() < 1e-9);
    }

    #[test]
    fn predicted_particles_stay_inside_the_region() {
        let model = SurrogateModel::new(small_cfg());
        let parts = region_particles(100, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let out = model.predict_particles(&mut rng, Vec3::ZERO, &parts);
        for p in &out {
            assert!(p.pos.x.abs() <= 30.0 + 1e-9);
            assert!(p.pos.y.abs() <= 30.0 + 1e-9);
            assert!(p.pos.z.abs() <= 30.0 + 1e-9);
            assert!(p.temp >= 1.0);
            assert!(p.h > 0.0);
        }
    }

    #[test]
    fn empty_region_returns_empty() {
        let model = SurrogateModel::new(small_cfg());
        let mut rng = StdRng::seed_from_u64(5);
        assert!(model
            .predict_particles(&mut rng, Vec3::ZERO, &[])
            .is_empty());
    }

    #[test]
    fn training_on_sedov_data_reduces_loss() {
        let mut model = SurrogateModel::new(small_cfg());
        let mut rng = StdRng::seed_from_u64(6);
        let setup = crate::training::TrainingSetup {
            grid_n: 8,
            ..Default::default()
        };
        let data = crate::training::make_dataset(&mut rng, &setup, 2);
        let losses = model.train(&data, 25, 1e-2);
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(
            last < first * 0.8,
            "training should reduce loss: {first} -> {last}"
        );
    }

    #[test]
    fn weights_document_roundtrips_bit_exactly() {
        let model = SurrogateModel::new(small_cfg());
        let json = model.to_json();
        let back = SurrogateModel::from_json(&json).expect("roundtrip");
        assert_eq!(back.config.grid_n, model.config.grid_n);
        assert_eq!(back.config.side, model.config.side);
        assert_eq!(back.config.base_features, model.config.base_features);
        assert_eq!(back.config.seed, model.config.seed);
        // Bit-exact: re-serializing reproduces the document verbatim.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn foreign_and_wrong_channel_documents_are_rejected() {
        assert!(SurrogateModel::from_json("not json").is_err());
        assert!(SurrogateModel::from_json("{\"format\":\"something-else\"}").is_err());
        // A bare network document (no envelope) must not load either.
        let net = SurrogateModel::new(small_cfg()).net.to_json();
        assert!(SurrogateModel::from_json(&net).is_err());
    }

    #[test]
    fn offset_region_center_is_respected() {
        let model = SurrogateModel::new(small_cfg());
        let center = Vec3::new(1000.0, -500.0, 30.0);
        let parts: Vec<GasParticle> = region_particles(80, 7)
            .into_iter()
            .map(|mut p| {
                p.pos += center;
                p
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(8);
        let out = model.predict_particles(&mut rng, center, &parts);
        for p in &out {
            assert!(
                (p.pos - center).norm() < 60.0,
                "particle strayed: {:?}",
                p.pos
            );
        }
    }
    /// The envelope's bytes, recorded at the commit before it moved onto
    /// the `unet::json` writer (PR 19): `side` is spelled the way `{}`
    /// prints it (`60`, `62.5`), the seed is decimal text.
    #[test]
    fn weights_envelope_bytes_are_stable() {
        for (side, head_side, len, sum) in [
            (60.0, "60", 71348, 0xd7a04f77c7aa0980u64),
            (62.5, "62.5", 71350, 0x9d721489a5906c6b),
        ] {
            let doc = SurrogateModel::new(SurrogateConfig {
                side,
                seed: u64::MAX - 1,
                ..small_cfg()
            })
            .to_json();
            let head = format!(
                "{{\"format\":\"asura-surrogate-model\",\"grid_n\":8,\"side\":{head_side},\
                 \"base_features\":2,\"seed\":\"18446744073709551614\",\
                 \"checksum\":\"fnv1a:0d7c084fdbef30d4\",\"net\":"
            );
            assert!(doc.starts_with(&head), "{}", &doc[..head.len()]);
            assert_eq!((doc.len(), fnv1a(doc.as_bytes())), (len, sum));
            let back = SurrogateModel::from_json(&doc).expect("loads");
            assert_eq!(back.config.seed, u64::MAX - 1);
            assert_eq!(back.config.side, side);
        }
    }

    /// The weights document and a tensor document keep their bytes from
    /// one commit to the next: `read` checks the stored checksum against a
    /// fresh rendering, so one moved byte would stop every weights file
    /// and every checkpoint's embedded model from loading. Both pins were
    /// recorded before the network and tensor writers moved onto
    /// `json::Json`. The tensor covers `-0.0`, a subnormal, `f32::MAX` and
    /// the non-finite values that render as `null`.
    #[test]
    fn weights_and_tensor_document_bytes_are_pinned() {
        let doc = SurrogateModel::new(SurrogateConfig {
            seed: 20251017,
            ..small_cfg()
        })
        .to_json();
        assert_eq!(
            (doc.len(), fnv1a(doc.as_bytes())),
            (71397, 0xee49be9dc57275b1)
        );
        let mut data: Vec<f32> = (0..24).map(|i| (i as f32 - 5.5) * 0.37).collect();
        data[1..7].copy_from_slice(&[
            f32::NAN,
            -0.0,
            f32::INFINITY,
            1e-40,
            f32::MAX,
            f32::NEG_INFINITY,
        ]);
        let doc = Tensor {
            c: 2,
            d: 2,
            h: 2,
            w: 3,
            data,
        }
        .to_json();
        assert!(
            doc.starts_with(
                "{\"c\":2,\"d\":2,\"h\":2,\"w\":3,\"data\":[-2.035,null,-0.0,null,1e-40,"
            ),
            "{doc}"
        );
        assert_eq!(
            (doc.len(), fnv1a(doc.as_bytes())),
            (190, 0xa2651964f962dc10)
        );
    }
}
