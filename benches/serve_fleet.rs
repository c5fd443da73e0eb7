//! The fleet-overlap benchmark (`cargo bench --bench serve_fleet`).
//!
//! Drives a real `asura serve` daemon through its line protocol twice —
//! the same two quickstart runs with `--max-concurrent 1` (serial) and
//! `--max-concurrent 2` (overlapped) — and reports the wall-clock ratio.
//! The ratio is measured within one bench invocation on one machine, so
//! runner speed cancels: on a single-core box it sits near 1.0 (only the
//! runs' checkpoint I/O overlaps), and rises toward 2.0 with a second
//! core. What the gate actually protects is the *queue machinery*: a
//! daemon that serializes its workers behind a held lock, or re-runs work,
//! drags the ratio (and both wall times) down together.
//!
//! Writes `BENCH_serve.json` at the repo root so subsequent PRs have a
//! trajectory.

#![expect(clippy::disallowed_methods, reason = "a bench times its runs")]

use asura::serve::{self, RunOverrides, RunState};
use bench::{BenchDoc, Better};
use json::{parse_json, Json};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_asura");
const RUNS: usize = 2;
const STEPS: u64 = 6;

fn request_one(addr: &str, line: &str) -> String {
    let mut lines = serve::request(addr, line).expect("daemon reachable");
    assert_eq!(lines.len(), 1, "{line}: expected one response line");
    lines.pop().unwrap()
}

/// String field `key` of a reply line.
fn field(reply: &str, key: &str) -> String {
    parse_json(reply)
        .and_then(|doc| doc.at(key, Json::as_str).map(str::to_string))
        .unwrap_or_else(|e| panic!("{e} in reply {reply}"))
}

/// Run the two-run fleet at the given concurrency; returns the wall time
/// from first SUBMIT to last completion.
fn fleet_wall(root: &Path, max_concurrent: usize) -> f64 {
    let mut daemon = Command::new(BIN)
        .arg("serve")
        .arg("--root")
        .arg(root)
        .args(["--addr", "127.0.0.1:0"])
        .args(["--max-concurrent", &max_concurrent.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .env_remove(asura_core::faults::FAULTS_ENV)
        .env_remove(asura_core::faults::ATTEMPT_ENV)
        .spawn()
        .expect("spawn daemon");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Some(addr) = serve::read_serve_addr(root) {
            break addr;
        }
        assert!(Instant::now() < deadline, "daemon never wrote serve.json");
        std::thread::sleep(Duration::from_millis(10));
    };

    let overrides = RunOverrides {
        steps: Some(STEPS),
        snapshot_every: Some(2),
        ..Default::default()
    }
    .to_json();
    let start = Instant::now();
    let mut ids = Vec::new();
    for _ in 0..RUNS {
        let reply = request_one(&addr, &format!("SUBMIT quickstart {overrides}"));
        assert!(serve::reply_ok(&reply), "SUBMIT failed: {reply}");
        ids.push(field(&reply, "id"));
    }
    let deadline = Instant::now() + Duration::from_secs(300);
    for id in &ids {
        loop {
            let reply = request_one(&addr, &format!("STATUS {id}"));
            match RunState::parse(&field(&reply, "state")) {
                Some(RunState::Completed) => break,
                Some(state) if state.is_terminal() => panic!("{id} did not complete: {reply}"),
                _ => {}
            }
            assert!(Instant::now() < deadline, "{id} still running after 300s");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let reply = request_one(&addr, "SHUTDOWN");
    assert!(serve::reply_ok(&reply), "SHUTDOWN failed: {reply}");
    assert!(daemon.wait().expect("daemon exit").success());
    wall
}

fn main() {
    let scratch = std::env::temp_dir().join(format!("asura-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let serial = fleet_wall(&scratch.join("serial"), 1);
    let concurrent = fleet_wall(&scratch.join("concurrent"), RUNS);
    let overlap_speedup = serial / concurrent;
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "serve_fleet: {RUNS} quickstart runs x {STEPS} steps  \
         serial {serial:.3} s  concurrent {concurrent:.3} s  overlap x{overlap_speedup:.3}"
    );

    BenchDoc::new()
        .info("scenario", "quickstart")
        .info("runs", RUNS)
        .info("steps_per_run", STEPS)
        .info("serial_wall_s", serial)
        .info("concurrent_wall_s", concurrent)
        .gated("overlap_speedup", overlap_speedup, Better::Higher)
        .write("BENCH_serve.json");
}
