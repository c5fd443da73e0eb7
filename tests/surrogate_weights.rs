//! Trained-weights robustness, mirroring `tests/ckpt_faults.rs` for the
//! model documents that now travel with runs: the weights JSON
//! round-trips exactly, corruption is a typed rejection (never a panic)
//! at every layer it can enter — [`SurrogateModel::from_json`], the
//! [`UNetPredictor::from_weights`] loader, [`PredictorSpec::resolve`]
//! ([`DistError::BadWeights`]), and the CLI, where a bad `--predictor`
//! file must exit 2 (the supervisor's permanent code) rather than be
//! retried.

#![expect(
    clippy::disallowed_methods,
    reason = "writes hostile weights files on purpose"
)]

use asura_core::dist::{DistError, PredictorKind, PredictorSpec};
use asura_core::pool::UNetPredictor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::process::Command;
use surrogate::{SurrogateConfig, SurrogateModel};
use unet::Tensor;

const BIN: &str = env!("CARGO_BIN_EXE_asura");

/// A small valid weights document (untrained is fine — validity is about
/// the envelope + checksum, not the training).
fn weights_doc() -> String {
    SurrogateModel::new(SurrogateConfig {
        grid_n: 8,
        side: 60.0,
        base_features: 2,
        seed: 9,
    })
    .to_json()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "asura-weights-{tag}-{}-{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn weights_document_roundtrips_exactly() {
    let doc = weights_doc();
    let back = SurrogateModel::from_json(&doc).expect("valid document loads");
    assert_eq!(back.to_json(), doc, "weights JSON must round-trip bitwise");
}

#[test]
fn truncated_weights_are_rejected_not_panics() {
    let doc = weights_doc();
    // Sweep cut points across the whole document (ckpt_faults style: a
    // deterministic spread, not every byte — the doc is ~100 KB).
    for i in 0..97 {
        let cut = (doc.len() * i) / 97;
        let result = std::panic::catch_unwind(|| SurrogateModel::from_json(&doc[..cut]));
        let parsed = result.unwrap_or_else(|_| panic!("truncation at {cut} panicked"));
        assert!(parsed.is_err(), "truncation at {cut} must be rejected");
    }
}

#[test]
fn byte_flips_inside_the_net_are_caught_by_the_checksum() {
    let doc = weights_doc();
    // The fnv1a checksum covers the embedded net document verbatim, so
    // any flip past the `"net"` key must fail — either as a parse error
    // or as a checksum mismatch, never a panic.
    let net_at = doc.find("\"net\"").expect("net key present");
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..40 {
        let at = rng.gen_range(net_at..doc.len());
        let mut bytes = doc.clone().into_bytes();
        bytes[at] ^= 0x40;
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();
        let result = std::panic::catch_unwind(|| SurrogateModel::from_json(&corrupt));
        let parsed = result.unwrap_or_else(|_| panic!("flip at {at} panicked"));
        assert!(parsed.is_err(), "flip at byte {at} must be rejected");
    }
}

/// Documents that are well-formed and correctly checksummed, yet describe
/// a model the pipeline cannot run. Each used to load and then panic in
/// `predict_particles` (a failed assertion inside the U-Net); each must
/// be an `Err` at load, which `PredictorSpec::resolve` turns into exit 2.
#[test]
fn checksummed_documents_the_pipeline_cannot_run_are_rejected_at_load() {
    let doc = weights_doc();
    let load = |text: &str| {
        std::panic::catch_unwind(|| SurrogateModel::from_json(text).map(|_| ()))
            .expect("loading must not panic")
    };
    assert!(load(&doc).is_ok());

    // A cube the two poolings cannot halve twice (the checksum covers
    // only the network, so the envelope edit leaves it valid).
    for bad in ["6", "0", "10"] {
        let hostile = doc.replace("\"grid_n\":8", &format!("\"grid_n\":{bad}"));
        assert_ne!(hostile, doc);
        let err = load(&hostile).expect_err("grid_n not a multiple of 4");
        assert!(err.contains("grid_n"), "{err}");
    }

    // Layers that do not chain: `bot_b`'s body stored under `enc1b`, the
    // checksum recomputed over the edited network as the writer would.
    let net_at = doc.find("\"net\":").expect("net key") + "\"net\":".len();
    let net = &doc[net_at..doc.len() - 1];
    let body = |name: &str, next: &str| {
        let start = net.find(&format!("\"{name}\":")).expect("layer key") + name.len() + 3;
        let end = net.find(&format!(",\"{next}\":")).expect("next layer key");
        &net[start..end]
    };
    let hostile_net = net.replace(body("enc1b", "enc2a"), body("bot_b", "dec2a"));
    assert_ne!(hostile_net, net);
    let stored = doc.find("fnv1a:").expect("checksum") + "fnv1a:".len();
    let hostile = format!(
        "{}{:016x}{}{hostile_net}}}",
        &doc[..stored],
        json::fnv1a(hostile_net.as_bytes()),
        &doc[stored + 16..net_at],
    );
    let err = load(&hostile).expect_err("layers that do not chain");
    assert!(
        err.contains("enc1b") && !err.contains("checksum"),
        "rejected for the wrong reason: {err}"
    );

    // The same documents through the loader the drivers use.
    assert!(UNetPredictor::from_weights(1, &hostile, 60.0).is_err());
    let six = doc.replace("\"grid_n\":8", "\"grid_n\":6");
    assert!(UNetPredictor::from_weights(1, &six, 60.0).is_err());
}

#[test]
fn wrong_format_tag_is_rejected_with_context() {
    let doc = weights_doc().replace("asura-surrogate-model", "some-other-doc");
    let err = match SurrogateModel::from_json(&doc) {
        Err(e) => e,
        Ok(_) => panic!("wrong format tag must be rejected"),
    };
    assert!(
        err.contains("asura-surrogate-model"),
        "unhelpful error: {err}"
    );
}

#[test]
fn train_sample_tensors_roundtrip_and_reject_corruption() {
    // TrainSample is a pair of tensors; its persistence (and the weights
    // document's Param blobs) ride on Tensor JSON.
    let mut rng = StdRng::seed_from_u64(3);
    let data: Vec<f32> = (0..2 * 4 * 4 * 4)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let t = Tensor::from_vec(2, 4, 4, 4, data);
    let json = t.to_json();
    let back = Tensor::from_json(&json).expect("tensor round-trips");
    assert_eq!(back.to_json(), json);
    for i in 0..29 {
        let cut = (json.len() * i) / 29;
        assert!(
            Tensor::from_json(&json[..cut]).is_err(),
            "tensor truncation at {cut} must be rejected"
        );
    }
}

#[test]
fn resolve_turns_bad_weight_files_into_typed_errors() {
    let dir = scratch_dir("resolve");

    // Missing file.
    let missing = PredictorSpec::UNet(dir.join("nope.json").display().to_string());
    match missing.resolve(1) {
        Err(DistError::BadWeights { path, .. }) => assert!(path.contains("nope.json")),
        other => panic!("missing file must be BadWeights, got {other:?}"),
    }

    // Corrupt file.
    let bad_path = dir.join("bad.json");
    std::fs::write(&bad_path, "{\"format\":\"nope\"}").unwrap();
    let corrupt = PredictorSpec::UNet(bad_path.display().to_string());
    assert!(matches!(
        corrupt.resolve(1),
        Err(DistError::BadWeights { .. })
    ));

    // Valid file resolves to inline weights that carry the exact text,
    // and with them the model state to embed in snapshots.
    let good_path = dir.join("good.json");
    let doc = weights_doc();
    std::fs::write(&good_path, &doc).unwrap();
    let good = PredictorSpec::UNet(good_path.display().to_string());
    let resolved = good.resolve(5).expect("valid weights resolve");
    match &resolved {
        PredictorKind::UNet(state) => {
            assert_eq!(state.seed, 5);
            assert_eq!(state.weights_json, doc);
        }
        other => panic!("expected inline weights, got {other:?}"),
    }

    // The analytic kind needs no file and embeds nothing.
    assert_eq!(
        PredictorSpec::Sedov.resolve(5),
        Ok(PredictorKind::SedovOverlay)
    );
    assert_eq!(PredictorKind::SedovOverlay.model(), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loader_overrides_the_deployed_region_side() {
    let doc = weights_doc();
    let p = UNetPredictor::from_weights(1, &doc, 42.5).expect("valid weights");
    assert_eq!(p.model.config.side, 42.5, "deployment geometry wins");
    assert!(UNetPredictor::from_weights(1, "[1, 2", 42.5).is_err());
}

/// The CLI regression the supervisor depends on: a bad `--predictor`
/// weights file is exit 2 — a *permanent* failure that must never enter
/// the crash-retry loop (`permanent_exit_codes` includes 2).
#[test]
fn cli_exits_2_on_bad_weights_and_never_panics() {
    let dir = scratch_dir("cli");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"format\":\"nope\"}").unwrap();

    for (tag, path) in [
        ("corrupt", bad.display().to_string()),
        ("missing", dir.join("absent.json").display().to_string()),
    ] {
        let out = Command::new(BIN)
            .args(["--scenario", "supernova_remnant", "--steps", "1"])
            .arg("--predictor")
            .arg(format!("unet:{path}"))
            .arg("--run-dir")
            .arg(dir.join(tag))
            .output()
            .expect("spawn asura");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{tag} weights must exit 2, got {:?}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cannot load surrogate weights"),
            "{tag}: uninformative stderr: {stderr}"
        );
    }

    // A malformed --predictor value is a plain usage error, also exit 2.
    let out = Command::new(BIN)
        .args(["--scenario", "supernova_remnant", "--predictor", "magic"])
        .output()
        .expect("spawn asura");
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint is outside input, and FNV-1a is not a signature: a
/// checkpoint whose embedded weights document was replaced by `{}` and
/// re-encoded (checksums recomputed, as the writer would — `to_bytes`
/// validates nothing) decodes as a snapshot — and must then be refused
/// where the model is built, exit 2 with the typed message, on both routes.
/// It used to panic the resume.
#[test]
fn cli_exits_2_on_a_checkpoint_whose_embedded_model_does_not_decode() {
    use asura_core::snapshot::SimSnapshot;
    let dir = scratch_dir("embedded");
    let weights = dir.join("weights.json");
    std::fs::write(&weights, weights_doc()).unwrap();
    let run = |args: &[&str], run_dir: &str| {
        Command::new(BIN)
            .args(args)
            .arg("--run-dir")
            .arg(dir.join(run_dir))
            .env_remove(asura_core::faults::FAULTS_ENV)
            .output()
            .expect("spawn asura")
    };
    for (route, dist) in [("shared", &[][..]), ("dist", &["--dist", "1x1x1+1"][..])] {
        let predictor = format!("unet:{}", weights.display());
        let mut fresh = vec!["--scenario", "supernova_remnant", "--steps", "1"];
        fresh.extend(["--snapshot-every", "1"]);
        fresh.extend(["--predictor", &predictor]);
        fresh.extend(dist);
        let out = run(&fresh, route);
        assert!(
            out.status.success(),
            "{route}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let base = if dist.is_empty() { "" } else { "dist_" };
        let ckpt = dir.join(route).join(format!("{base}checkpoint-000001.bin"));
        let mut snap = SimSnapshot::load(&ckpt).expect("the checkpoint");
        let model = snap.model.as_mut().expect("the model rides along");
        assert_ne!(model.weights_json, "{}");

        // Swap the document for `{}` and re-encode.
        model.weights_json = "{}".into();
        let hostile = snap.to_bytes();
        let hostile_snap = SimSnapshot::from_bytes(&hostile).expect("still a snapshot");
        assert_eq!(hostile_snap.model.unwrap().weights_json, "{}");
        let hostile_path = dir.join(format!("{route}-hostile.bin"));
        std::fs::write(&hostile_path, hostile).unwrap();

        let mut resume = vec!["--resume", hostile_path.to_str().unwrap(), "--steps", "1"];
        resume.extend(dist);
        let out = run(&resume, &format!("{route}-resumed"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{route}: {stderr}");
        assert!(
            stderr.contains("cannot load surrogate weights") && !stderr.contains("panicked"),
            "{route}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
