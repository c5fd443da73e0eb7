//! The 3-D U-Net: two-level encoder/decoder with skip connections
//! (paper §3.3, Figure 3: "a series of three-dimensional convolutional
//! layers" with the classic contracting/expanding U shape).

use crate::conv::{Conv3d, Param};
use crate::layers::{
    maxpool2, maxpool2_backward, maxpool2_values, relu, relu_backward, upsample2_backward,
    upsample2_concat,
};
use crate::tensor::Tensor;
use json::{parse_json, Json};

/// Network hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct UNetConfig {
    /// Input channels (8 in the paper: log density, log temperature, and
    /// two signed-log cubes per velocity component).
    pub in_channels: usize,
    /// Output channels (5: density, temperature, three velocities).
    pub out_channels: usize,
    /// Feature width of the first level (doubles per level).
    pub base_features: usize,
}

/// A two-level 3-D U-Net with full training support.
#[derive(Debug, Clone)]
pub struct UNet3d {
    pub config: UNetConfig,
    enc1a: Conv3d,
    enc1b: Conv3d,
    enc2a: Conv3d,
    enc2b: Conv3d,
    bot_a: Conv3d,
    bot_b: Conv3d,
    dec2a: Conv3d,
    dec2b: Conv3d,
    dec1a: Conv3d,
    dec1b: Conv3d,
    head: Conv3d,
}

/// Forward intermediates kept for backprop.
pub struct Cache {
    x: Tensor,
    z1a: Tensor,
    r1a: Tensor,
    z1b: Tensor,
    skip1: Tensor,
    arg1: Vec<u32>,
    p1: Tensor,
    z2a: Tensor,
    r2a: Tensor,
    z2b: Tensor,
    skip2: Tensor,
    arg2: Vec<u32>,
    p2: Tensor,
    zba: Tensor,
    rba: Tensor,
    zbb: Tensor,
    rbb: Tensor,
    cat2: Tensor,
    zd2a: Tensor,
    rd2a: Tensor,
    zd2b: Tensor,
    rd2b: Tensor,
    cat1: Tensor,
    zd1a: Tensor,
    rd1a: Tensor,
    zd1b: Tensor,
    rd1b: Tensor,
}

/// Layer names in construction / serialization order.
const LAYER_NAMES: [&str; 11] = [
    "enc1a", "enc1b", "enc2a", "enc2b", "bot_a", "bot_b", "dec2a", "dec2b", "dec1a", "dec1b",
    "head",
];

/// `(c_in, c_out, k)` of every layer, in [`LAYER_NAMES`] order: what
/// [`UNet3d::new`] builds and the only shapes [`UNet3d::from_json_value`]
/// accepts, so the channels chain by construction in both.
fn layer_shapes(cfg: &UNetConfig) -> [(usize, usize, usize); 11] {
    let f = cfg.base_features;
    [
        (cfg.in_channels, f, 3),
        (f, f, 3),
        (f, 2 * f, 3),
        (2 * f, 2 * f, 3),
        (2 * f, 4 * f, 3),
        (4 * f, 4 * f, 3),
        (4 * f + 2 * f, 2 * f, 3),
        (2 * f, 2 * f, 3),
        (2 * f + f, f, 3),
        (f, f, 3),
        (f, cfg.out_channels, 1),
    ]
}

impl UNet3d {
    /// Name the eleven layers, given in [`LAYER_NAMES`] order.
    fn from_layers(config: UNetConfig, layers: [Conv3d; 11]) -> Self {
        let [enc1a, enc1b, enc2a, enc2b, bot_a, bot_b, dec2a, dec2b, dec1a, dec1b, head] = layers;
        UNet3d {
            config,
            enc1a,
            enc1b,
            enc2a,
            enc2b,
            bot_a,
            bot_b,
            dec2a,
            dec2b,
            dec1a,
            dec1b,
            head,
        }
    }

    /// Build with deterministic Kaiming initialization.
    pub fn new(cfg: &UNetConfig, seed: u64) -> Self {
        assert!(cfg.base_features >= 1 && cfg.in_channels >= 1 && cfg.out_channels >= 1);
        let shapes = layer_shapes(cfg);
        let layers = std::array::from_fn(|i| {
            let (c_in, c_out, k) = shapes[i];
            let layer_seed = seed.wrapping_mul(0x9E37).wrapping_add(i as u64 + 1);
            Conv3d::new(c_in, c_out, k, layer_seed)
        });
        Self::from_layers(*cfg, layers)
    }

    /// Both forward passes need two poolings' worth of even dims.
    fn assert_poolable(x: &Tensor) {
        assert!(
            x.d.is_multiple_of(4) && x.h.is_multiple_of(4) && x.w.is_multiple_of(4),
            "U-Net input dims must be divisible by 4, got {:?}",
            x.shape()
        );
    }

    /// Inference: input spatial dims must be divisible by 4 (two poolings).
    ///
    /// The output of [`UNet3d::forward_cached`] to the bit, without the
    /// backprop cache: every ReLU is fused into its convolution's store,
    /// the pools keep values only, and no intermediate outlives its last
    /// reader.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        Self::assert_poolable(x);
        let skip1 = self.enc1b.forward_relu(&self.enc1a.forward_relu(x));
        let p1 = maxpool2_values(&skip1);
        let skip2 = self.enc2b.forward_relu(&self.enc2a.forward_relu(&p1));
        let p2 = maxpool2_values(&skip2);
        let bottom = self.bot_b.forward_relu(&self.bot_a.forward_relu(&p2));
        let cat2 = upsample2_concat(&bottom, &skip2);
        let up2 = self.dec2b.forward_relu(&self.dec2a.forward_relu(&cat2));
        let cat1 = upsample2_concat(&up2, &skip1);
        let up1 = self.dec1b.forward_relu(&self.dec1a.forward_relu(&cat1));
        self.head.forward(&up1)
    }

    /// Forward keeping intermediates for backprop.
    pub fn forward_cached(&self, x: &Tensor) -> (Tensor, Cache) {
        Self::assert_poolable(x);
        let z1a = self.enc1a.forward(x);
        let r1a = relu(&z1a);
        let z1b = self.enc1b.forward(&r1a);
        let skip1 = relu(&z1b);
        let (p1, arg1) = maxpool2(&skip1);

        let z2a = self.enc2a.forward(&p1);
        let r2a = relu(&z2a);
        let z2b = self.enc2b.forward(&r2a);
        let skip2 = relu(&z2b);
        let (p2, arg2) = maxpool2(&skip2);

        let zba = self.bot_a.forward(&p2);
        let rba = relu(&zba);
        let zbb = self.bot_b.forward(&rba);
        let rbb = relu(&zbb);

        let cat2 = upsample2_concat(&rbb, &skip2);
        let zd2a = self.dec2a.forward(&cat2);
        let rd2a = relu(&zd2a);
        let zd2b = self.dec2b.forward(&rd2a);
        let rd2b = relu(&zd2b);

        let cat1 = upsample2_concat(&rd2b, &skip1);
        let zd1a = self.dec1a.forward(&cat1);
        let rd1a = relu(&zd1a);
        let zd1b = self.dec1b.forward(&rd1a);
        let rd1b = relu(&zd1b);

        let y = self.head.forward(&rd1b);
        let cache = Cache {
            x: x.clone(),
            z1a,
            r1a,
            z1b,
            skip1,
            arg1,
            p1,
            z2a,
            r2a,
            z2b,
            skip2,
            arg2,
            p2,
            zba,
            rba,
            zbb,
            rbb,
            cat2,
            zd2a,
            rd2a,
            zd2b,
            rd2b,
            cat1,
            zd1a,
            rd1a,
            zd1b,
            rd1b,
        };
        (y, cache)
    }

    /// Backprop from the output gradient, accumulating parameter gradients.
    pub fn backward(&mut self, cache: &Cache, gy: &Tensor) {
        let g = self.head.backward(&cache.rd1b, gy);
        let g = relu_backward(&cache.zd1b, &g);
        let g = self.dec1b.backward(&cache.rd1a, &g);
        let g = relu_backward(&cache.zd1a, &g);
        let g = self.dec1a.backward(&cache.cat1, &g);
        let (g_up1, g_skip1_cat) = g.split_channels(cache.rd2b.c);
        let g = upsample2_backward(&g_up1);

        let g = relu_backward(&cache.zd2b, &g);
        let g = self.dec2b.backward(&cache.rd2a, &g);
        let g = relu_backward(&cache.zd2a, &g);
        let g = self.dec2a.backward(&cache.cat2, &g);
        let (g_up2, g_skip2_cat) = g.split_channels(cache.rbb.c);
        let g = upsample2_backward(&g_up2);

        let g = relu_backward(&cache.zbb, &g);
        let g = self.bot_b.backward(&cache.rba, &g);
        let g = relu_backward(&cache.zba, &g);
        let g = self.bot_a.backward(&cache.p2, &g);

        // Pool-2 backward plus the skip-2 gradient joining here.
        let mut g = maxpool2_backward(cache.skip2.shape(), &cache.arg2, &g);
        for (a, b) in g.data.iter_mut().zip(&g_skip2_cat.data) {
            *a += b;
        }
        let g = relu_backward(&cache.z2b, &g);
        let g = self.enc2b.backward(&cache.r2a, &g);
        let g = relu_backward(&cache.z2a, &g);
        let g = self.enc2a.backward(&cache.p1, &g);

        let mut g = maxpool2_backward(cache.skip1.shape(), &cache.arg1, &g);
        for (a, b) in g.data.iter_mut().zip(&g_skip1_cat.data) {
            *a += b;
        }
        let g = relu_backward(&cache.z1b, &g);
        let g = self.enc1b.backward(&cache.r1a, &g);
        let g = relu_backward(&cache.z1a, &g);
        // Nothing reads the gradient with respect to the input.
        self.enc1a.backward_params(&cache.x, &g);
    }

    /// All trainable parameters, in a fixed order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::with_capacity(22);
        for layer in [
            &mut self.enc1a,
            &mut self.enc1b,
            &mut self.enc2a,
            &mut self.enc2b,
            &mut self.bot_a,
            &mut self.bot_b,
            &mut self.dec2a,
            &mut self.dec2b,
            &mut self.dec1a,
            &mut self.dec1b,
            &mut self.head,
        ] {
            let [w, b] = layer.params_mut();
            out.push(w);
            out.push(b);
        }
        out
    }

    /// Reset all gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total parameter count.
    pub fn n_params(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }

    /// Names and references of the layers, in serialization order.
    fn layers(&self) -> [(&'static str, &Conv3d); 11] {
        let layers = [
            &self.enc1a,
            &self.enc1b,
            &self.enc2a,
            &self.enc2b,
            &self.bot_a,
            &self.bot_b,
            &self.dec2a,
            &self.dec2b,
            &self.dec1a,
            &self.dec1b,
            &self.head,
        ];
        std::array::from_fn(|i| (LAYER_NAMES[i], layers[i]))
    }

    /// Serialize to a JSON string (our ONNX-interchange stand-in).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let config = Json::obj([
            ("in_channels", c.in_channels.into()),
            ("out_channels", c.out_channels.into()),
            ("base_features", c.base_features.into()),
        ]);
        let layers = self
            .layers()
            .map(|(name, layer)| (name, layer.to_json_value()));
        Json::obj([("config", config)].into_iter().chain(layers)).render()
    }

    /// Load from [`UNet3d::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let v = parse_json(s).map_err(|e| format!("U-Net deserialize: {e}"))?;
        Self::from_json_value(&v)
    }

    /// Load from an already-parsed [`UNet3d::to_json`] document — the entry
    /// point for containers that embed a network inside a larger JSON value
    /// (e.g. the surrogate's self-describing weights file).
    ///
    /// Every layer must have exactly the shape [`UNet3d::new`] gives it
    /// for the document's `config`: a document whose layers do not chain
    /// is an `Err` here, not a failed assertion in the first forward pass.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let cfg = v.get("config")?;
        let config = UNetConfig {
            in_channels: cfg.get("in_channels")?.as_usize()?,
            out_channels: cfg.get("out_channels")?.as_usize()?,
            base_features: cfg.get("base_features")?.as_usize()?,
        };
        if config.in_channels == 0 || config.out_channels == 0 || config.base_features == 0 {
            return Err("U-Net deserialize: channel counts must be positive".into());
        }
        // The widest layer reads 6·base_features channels.
        if config.base_features.checked_mul(6).is_none() {
            return Err("U-Net deserialize: base_features overflows".into());
        }
        let shapes = layer_shapes(&config);
        let mut layers = Vec::with_capacity(LAYER_NAMES.len());
        for (name, want) in LAYER_NAMES.into_iter().zip(shapes) {
            let layer = Conv3d::from_json_value(v.get(name)?)
                .map_err(|e| format!("U-Net deserialize `{name}`: {e}"))?;
            let got = (layer.c_in, layer.c_out, layer.k);
            if got != want {
                return Err(format!(
                    "U-Net deserialize `{name}`: shape (c_in, c_out, k) = {got:?}, \
                     but this config builds {want:?}"
                ));
            }
            layers.push(layer);
        }
        let layers = layers.try_into().expect("one layer per name");
        Ok(Self::from_layers(config, layers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny() -> UNet3d {
        UNet3d::new(
            &UNetConfig {
                in_channels: 2,
                out_channels: 3,
                base_features: 2,
            },
            1,
        )
    }

    #[test]
    fn output_shape_matches_input_space_and_out_channels() {
        let net = tiny();
        let x = Tensor::zeros(2, 8, 8, 8);
        let y = net.forward(&x);
        assert_eq!(y.shape(), (3, 8, 8, 8));
        let x = Tensor::zeros(2, 4, 8, 12);
        assert_eq!(net.forward(&x).shape(), (3, 4, 8, 12));
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn non_divisible_input_rejected() {
        let net = tiny();
        let _ = net.forward(&Tensor::zeros(2, 6, 8, 8));
    }

    #[test]
    fn forward_is_deterministic_given_seed() {
        let a = tiny();
        let b = tiny();
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::from_vec(
            2,
            4,
            4,
            4,
            (0..128).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        assert_eq!(a.forward(&x).data, b.forward(&x).data);
    }

    #[test]
    fn whole_net_gradient_check() {
        let mut net = UNet3d::new(
            &UNetConfig {
                in_channels: 1,
                out_channels: 1,
                base_features: 1,
            },
            2,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::from_vec(
            1,
            4,
            4,
            4,
            (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        // Loss = 0.5 sum y^2 => gy = y.
        let (y, cache) = net.forward_cached(&x);
        net.zero_grad();
        net.backward(&cache, &y);

        let loss = |n: &UNet3d| -> f64 {
            let y = n.forward(&x);
            y.data.iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        // Spot-check a few parameters in different layers.
        let analytic: Vec<(usize, usize, f64)> = {
            let ps = net.params_mut();
            let picks = [(0usize, 3usize), (4, 1), (12, 0), (20, 0), (21, 0)];
            picks
                .iter()
                .map(|&(pi, wi)| (pi, wi, ps[pi].grad[wi.min(ps[pi].grad.len() - 1)] as f64))
                .collect()
        };
        for (pi, wi, an) in analytic {
            let eps = 1e-3f32;
            let wi = {
                let ps = net.params_mut();
                wi.min(ps[pi].value.len() - 1)
            };
            {
                let mut ps = net.params_mut();
                ps[pi].value[wi] += eps;
            }
            let lp = loss(&net);
            {
                let mut ps = net.params_mut();
                ps[pi].value[wi] -= 2.0 * eps;
            }
            let lm = loss(&net);
            {
                let mut ps = net.params_mut();
                ps[pi].value[wi] += eps;
            }
            let fd = (lp - lm) / (2.0 * eps as f64);
            assert!(
                (fd - an).abs() < 3e-2 * an.abs().max(0.5),
                "param {pi}[{wi}]: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn serialization_roundtrips_weights() {
        let net = tiny();
        let json = net.to_json();
        let back = UNet3d::from_json(&json).unwrap();
        let x = Tensor::zeros(2, 4, 4, 4);
        assert_eq!(net.forward(&x).data, back.forward(&x).data);
    }

    /// Documents `from_json` used to accept and the first forward pass
    /// then died on: one layer stored under another's name (the channels
    /// no longer chain), and a zero width.
    #[test]
    fn documents_whose_layers_do_not_chain_are_rejected() {
        let json = tiny().to_json();
        // The text between a layer's key and the next layer's key.
        let body = |name: &str, next: &str| {
            let start = json.find(&format!("\"{name}\":")).expect("layer key") + name.len() + 3;
            let end = json.find(&format!(",\"{next}\":")).expect("next layer key");
            &json[start..end]
        };
        let swapped = json.replace(body("enc1b", "enc2a"), body("bot_b", "dec2a"));
        assert_ne!(swapped, json);
        let err = UNet3d::from_json(&swapped).expect_err("bot_b's body under enc1b");
        assert!(err.contains("enc1b") && err.contains("(2, 2, 3)"), "{err}");

        let zero = json.replace("\"base_features\":2", "\"base_features\":0");
        assert!(UNet3d::from_json(&zero).is_err());
        let huge = json.replace(
            "\"base_features\":2",
            "\"base_features\":9223372036854775807",
        );
        assert!(UNet3d::from_json(&huge).is_err());
    }

    /// The inference path is the training forward to the bit.
    #[test]
    fn inference_forward_equals_cached_forward_bitwise() {
        let net = tiny();
        let mut rng = StdRng::seed_from_u64(12);
        let x = Tensor::from_vec(
            2,
            8,
            4,
            12,
            (0..2 * 8 * 4 * 12)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        );
        let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&net.forward(&x)), bits(&net.forward_cached(&x).0));
    }

    #[test]
    fn param_count_scales_with_width() {
        let mut small = UNet3d::new(
            &UNetConfig {
                in_channels: 1,
                out_channels: 1,
                base_features: 2,
            },
            0,
        );
        let mut big = UNet3d::new(
            &UNetConfig {
                in_channels: 1,
                out_channels: 1,
                base_features: 4,
            },
            0,
        );
        let (s, b) = (small.n_params(), big.n_params());
        assert!(b > 3 * s, "doubling width should ~4x params: {s} -> {b}");
    }
}
