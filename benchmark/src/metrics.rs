//! The metric vocabulary. The names and units here are what the workloads
//! emit; `BENCHMARK.json` at the repo root lists the same names with their
//! direction and regression bound (a test keeps the two in step).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use unet::json::{parse_json, Json};

/// `(name, unit)` of every end-to-end metric, reported by every workload
/// with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("updates_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p80", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, reported by the traced pass.
/// A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 93] = [
    ("fdps.tree_build_ns_per_particle", "ns"),
    ("fdps.walk_index_ms", "ms"),
    ("fdps.walk_lists_per_s", "1/s"),
    ("fdps.walk_list_len_mean", "count"),
    ("fdps.n_groups", "count"),
    ("fdps.tree_refresh_ns_per_particle", "ns"),
    ("fdps.walk_index_refresh_ms", "ms"),
    ("gravity.eval_ms", "ms"),
    ("gravity.interactions", "count"),
    ("gravity.ns_per_interaction", "ns"),
    ("gravity.gflops", "GFLOP/s"),
    ("gravity.kernel_ns_per_interaction", "ns"),
    ("gravity.share", "ratio"),
    ("gravity.eval_active_ms", "ms"),
    ("gravity.active_interactions", "count"),
    ("sph.density_ms", "ms"),
    ("sph.density_interactions", "count"),
    ("sph.density_ns_per_interaction", "ns"),
    ("sph.force_ms", "ms"),
    ("sph.force_interactions", "count"),
    ("sph.force_ns_per_interaction", "ns"),
    ("sph.tree_rebuilds", "count"),
    ("sph.tree_refreshes", "count"),
    ("sph.share", "ratio"),
    ("sph.density_active_ms", "ms"),
    ("sph.force_active_ms", "ms"),
    ("core.forces.refresh_ms", "ms"),
    ("core.forces.refresh_hydro_ms", "ms"),
    ("core.scheduler.assign_ms", "ms"),
    ("core.scheduler.max_level", "count"),
    ("core.scheduler.substeps_per_base_step", "count"),
    ("core.scheduler.active_fraction", "ratio"),
    ("core.sim.step_ms", "ms"),
    ("core.sim.unattributed_share", "ratio"),
    ("core.sim.trace_step_ratio", "ratio"),
    ("core.sim.substeps", "count"),
    ("core.sim.active_updates", "count"),
    ("core.sim.tree_rebuilds", "count"),
    ("core.sim.tree_refreshes", "count"),
    ("core.sim.sn_events", "count"),
    ("core.sim.regions_applied", "count"),
    ("core.sim.stars_formed", "count"),
    ("core.sim.energy_drift", "ratio"),
    ("core.sim.mass_drift", "ratio"),
    ("core.sim.restore_ms", "ms"),
    ("surrogate.voxelize_ms", "ms"),
    ("surrogate.encode_ms", "ms"),
    ("unet.forward_ms", "ms"),
    ("unet.forward_gflops", "GFLOP/s"),
    ("surrogate.decode_ms", "ms"),
    ("surrogate.gibbs_ms", "ms"),
    ("surrogate.region_particles", "count"),
    ("surrogate.mass_err", "ratio"),
    ("surrogate.energy_budget_err", "ratio"),
    ("surrogate.train_s", "s"),
    ("core.pool.predict_ms", "ms"),
    ("core.pool.predict_share", "ratio"),
    ("core.dist.force_s", "s"),
    ("core.dist.density_s", "s"),
    ("core.dist.tree_s", "s"),
    ("core.dist.let_exchange_s", "s"),
    ("core.dist.exchange_particle_s", "s"),
    ("core.dist.sn_s", "s"),
    ("core.dist.comm_share", "ratio"),
    ("core.dist.phase_coverage", "ratio"),
    ("core.dist.vs_shared_wall_ratio", "ratio"),
    ("mpisim.bytes_sent_per_step", "B"),
    ("mpisim.bytes_imbalance", "ratio"),
    ("core.snapshot.capture_ms", "ms"),
    ("core.snapshot.encode_bin_mb_per_s", "MB/s"),
    ("core.snapshot.decode_bin_mb_per_s", "MB/s"),
    ("core.snapshot.encode_json_mb_per_s", "MB/s"),
    ("core.snapshot.decode_json_mb_per_s", "MB/s"),
    ("core.snapshot.bin_bytes", "B"),
    ("core.snapshot.json_bytes", "B"),
    ("core.ckpt.commit_ms_p50", "ms"),
    ("core.ckpt.commit_ms_p90", "ms"),
    ("core.ckpt.commit_mb_per_s", "MB/s"),
    ("core.ckpt.fsync_4k_ms", "ms"),
    ("core.ckpt.latest_valid_ms", "ms"),
    ("core.ckpt.commits", "count"),
    ("core.ckpt.failed", "count"),
    ("core.diagnostics.measure_ms", "ms"),
    ("core.diagnostics.render_ms", "ms"),
    ("core.diagnostics.live_rewrite_ms_p50", "ms"),
    ("core.diagnostics.bytes_written_total", "B"),
    ("core.diagnostics.share", "ratio"),
    ("core.supervise.heartbeat_ms_p50", "ms"),
    ("core.ops.outside_step_share", "ratio"),
    ("replay.fidelity_checked", "count"),
    ("replay.fidelity_failed", "count"),
    ("replay.samples", "count"),
    ("core.sim.untraced_step_ms", "ms"),
];

/// Metric values keyed by registered name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Every metric of `registry` at 0.
    pub fn zeroed(registry: &[(&'static str, &'static str)]) -> Values {
        Values(registry.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Set a registered metric; an unregistered name is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{name: {"value": v, "unit": u}}` in registry order.
    pub fn to_json(&self, registry: &[(&'static str, &'static str)]) -> Json {
        Json::Obj(
            registry
                .iter()
                .map(|&(name, unit)| {
                    (
                        name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(self.get(name))),
                            ("unit".into(), Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Direction and regression bound of one end-to-end metric, as
/// `BENCHMARK.json` fixes them.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// What the benchmark reads back from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: f64,
    pub bounds: Vec<Bound>,
}

pub fn contract_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

pub fn load_contract(path: &Path) -> Result<Contract, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse_json(&text)?;
    let Json::Arr(e2e) = doc.get("end_to_end")? else {
        return Err("end_to_end must be an array".into());
    };
    let mut bounds = Vec::new();
    for m in e2e {
        let (Json::Str(name), Json::Str(better), Json::Num(bound)) =
            (m.get("name")?, m.get("better")?, m.get("bound")?)
        else {
            return Err("end_to_end entries need name, better and bound".into());
        };
        bounds.push(Bound {
            name: name.clone(),
            higher_is_better: better == "higher",
            bound: *bound,
        });
    }
    let Json::Num(run_seconds) = doc.get("run_seconds")? else {
        return Err("run_seconds must be a number".into());
    };
    Ok(Contract {
        run_seconds: *run_seconds,
        bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use crate::workloads;

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Json::Arr(items) = doc.get(key).unwrap() else {
            panic!("{key} must be an array");
        };
        items
            .iter()
            .map(|m| match (m.get("name").unwrap(), m.get("unit").unwrap()) {
                (Json::Str(n), Json::Str(u)) => (n.clone(), u.clone()),
                _ => panic!("{key}: name and unit must be strings"),
            })
            .collect()
    }

    #[test]
    fn registry_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} registered twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry_and_the_workloads() {
        let contract = load_contract(&contract_path()).expect("BENCHMARK.json loads");
        let doc = parse_json(&std::fs::read_to_string(contract_path()).unwrap()).unwrap();
        let own = |r: &[(&str, &str)]| -> Vec<(String, String)> {
            r.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_and_units(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_and_units(&doc, "per_layer"), own(&PER_LAYER));
        let Json::Arr(listed) = doc.get("workloads").unwrap() else {
            panic!("workloads must be an array");
        };
        let listed: Vec<&Json> = listed.iter().map(|w| w.get("name").unwrap()).collect();
        let own: Vec<Json> = workloads::ALL
            .iter()
            .map(|w| Json::Str(w.name().into()))
            .collect();
        assert_eq!(listed, own.iter().collect::<Vec<_>>());
        assert!(contract
            .bounds
            .iter()
            .all(|b| b.bound > 0.0 && b.bound <= 0.25));
        assert!(contract
            .bounds
            .iter()
            .any(|b| b.name == "setup_s" && !b.higher_is_better));
    }

    #[test]
    fn values_render_in_registry_order() {
        let mut v = Values::zeroed(&END_TO_END);
        v.set("wall_s", 1.5);
        let Json::Obj(fields) = v.to_json(&END_TO_END) else {
            panic!()
        };
        assert_eq!(fields.len(), END_TO_END.len());
        assert_eq!(fields[1].0, "wall_s");
        assert_eq!(fields[1].1.get("value").unwrap(), &Json::Num(1.5));
    }
}
