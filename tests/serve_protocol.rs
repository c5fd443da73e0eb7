//! End-to-end tests of the `asura serve` daemon: a real daemon process
//! per test (ephemeral port, private root), driven over the line protocol
//! by [`asura::serve::request`]. The chaos cases mirror
//! `tests/supervised_chaos.rs`: kill a worker *child* mid-run (per-run
//! `ASURA_FAULTS` override) and kill the *daemon* itself (`kill -9` +
//! restart), asserting in both cases that every run still converges to a
//! final checkpoint bitwise identical to an undisturbed run. The graceful
//! stops are covered the same way: a plain `SHUTDOWN` detaches a running
//! run for the next daemon, `SHUTDOWN DRAIN` waits for it.

#![expect(
    clippy::disallowed_methods,
    reason = "polls the daemon against a wall-clock deadline"
)]

use asura::serve::{self, Fleet, RunState};
use asura_core::faults::{ATTEMPT_ENV, FAULTS_ENV, FAULT_KILL_EXIT};
use asura_core::supervise::{IncidentKind, IncidentLog, Outcome};
use std::fs;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_asura");

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "asura-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn a daemon on an ephemeral port and wait for its `serve.json`.
/// Every returned child is reaped by `shutdown` (or an explicit
/// kill+wait in the kill -9 test), which clippy cannot see from here.
#[allow(clippy::zombie_processes)]
fn start_daemon(root: &Path, max_concurrent: usize) -> (Child, String) {
    // A kill -9'd daemon leaves its serve.json behind; drop it so the
    // wait below can't pick up the dead instance's address.
    let _ = fs::remove_file(root.join("serve.json"));
    let child = Command::new(BIN)
        .arg("serve")
        .arg("--root")
        .arg(root)
        .args(["--addr", "127.0.0.1:0"])
        .args(["--max-concurrent", &max_concurrent.to_string()])
        .args(["--backoff-ms", "10"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        // Never inherit a fault plan from the test runner's environment —
        // fleet chaos is injected per run via the `faults` override.
        .env_remove(FAULTS_ENV)
        .env_remove(ATTEMPT_ENV)
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(addr) = serve::read_serve_addr(root) {
            return (child, addr);
        }
        assert!(Instant::now() < deadline, "daemon never wrote serve.json");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn request_one(addr: &str, line: &str) -> String {
    let lines = serve::request(addr, line).unwrap();
    assert_eq!(lines.len(), 1, "{line}: expected one response line");
    lines.into_iter().next().unwrap()
}

fn submit(addr: &str, scenario: &str, overrides: &str) -> String {
    let reply = request_one(addr, &format!("SUBMIT {scenario} {overrides}"));
    assert!(serve::reply_ok(&reply), "SUBMIT failed: {reply}");
    let id = reply
        .split("\"id\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .unwrap_or_else(|| panic!("no id in {reply}"));
    id.to_string()
}

/// Poll STATUS until the run reaches `want`; panics if it lands in a
/// different terminal state first.
fn wait_state(addr: &str, id: &str, want: RunState) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = request_one(addr, &format!("STATUS {id}"));
        let state = reply
            .split("\"state\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .and_then(RunState::parse)
            .unwrap_or_else(|| panic!("unparseable STATUS reply: {reply}"));
        if state == want {
            return reply;
        }
        assert!(
            !state.is_terminal(),
            "{id}: wanted {}, ended {}: {reply}",
            want.as_str(),
            state.as_str()
        );
        assert!(
            Instant::now() < deadline,
            "{id}: still {} after 120s",
            state.as_str()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Poll STATUS until the running run's heartbeat reports at least `step`.
fn wait_step(addr: &str, id: &str, step: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = wait_state(addr, id, RunState::Running);
        let beat = reply
            .split("\"step\":")
            .nth(1)
            .and_then(|r| r.split(',').next())
            .and_then(|s| s.parse::<u64>().ok());
        if beat.is_some_and(|s| s >= step) {
            return;
        }
        assert!(Instant::now() < deadline, "{id}: never reached step {step}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn read_fleet(root: &Path) -> Fleet {
    let text = fs::read_to_string(root.join(serve::FLEET_FILE)).unwrap();
    Fleet::from_json(&text).unwrap()
}

fn shutdown(addr: &str, mut daemon: Child) {
    let reply = request_one(addr, "SHUTDOWN");
    assert!(serve::reply_ok(&reply), "SHUTDOWN failed: {reply}");
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon must exit cleanly, got {status}");
}

fn read_log(root: &Path, id: &str) -> IncidentLog {
    let text = fs::read_to_string(root.join(id).join("supervisor.json")).unwrap();
    IncidentLog::from_json(&text).unwrap()
}

#[test]
fn fleet_chaos_killed_child_resumes_bitwise_identical_to_its_neighbor() {
    let root = tmpdir("chaos");
    let (daemon, addr) = start_daemon(&root, 2);

    // Two identical quickstart runs; the second has its attempt-0 child
    // killed after step 3 (checkpoints at 2 and 4, so it resumes from 2).
    let clean = submit(&addr, "quickstart", "{\"steps\":4,\"snapshot_every\":2}");
    let faulted = submit(
        &addr,
        "quickstart",
        "{\"steps\":4,\"snapshot_every\":2,\"faults\":\"kill@3#0\"}",
    );
    wait_state(&addr, &clean, RunState::Completed);
    let status = wait_state(&addr, &faulted, RunState::Completed);
    assert!(
        status.contains("\"incidents\":1"),
        "STATUS must surface the incident: {status}"
    );

    let log = read_log(&root, &faulted);
    assert_eq!(log.outcome, Some(Outcome::Completed { attempts: 2 }));
    assert_eq!(log.incidents.len(), 1);
    assert_eq!(
        log.incidents[0].kind,
        IncidentKind::Crash {
            exit_code: FAULT_KILL_EXIT
        }
    );
    assert_eq!(log.incidents[0].resumed_from_step, Some(2));
    assert!(read_log(&root, &clean).incidents.is_empty());

    // The killed-and-resumed run must converge to exactly the state of
    // its undisturbed twin.
    let reference = fs::read(root.join(&clean).join("checkpoint-000004.bin")).unwrap();
    let resumed = fs::read(root.join(&faulted).join("checkpoint-000004.bin")).unwrap();
    assert_eq!(
        resumed, reference,
        "final checkpoint differs from the undisturbed run"
    );
    shutdown(&addr, daemon);
}

#[test]
fn daemon_kill9_restart_adopts_fleet_and_completes_all_runs() {
    let root = tmpdir("kill9");
    let (mut daemon, addr) = start_daemon(&root, 1);

    // Serial queue: the second run is still queued when the daemon dies.
    let first = submit(&addr, "quickstart", "{\"steps\":8,\"snapshot_every\":2}");
    let second = submit(&addr, "quickstart", "{\"steps\":8,\"snapshot_every\":2}");
    wait_state(&addr, &first, RunState::Running);
    daemon.kill().unwrap(); // SIGKILL: no drain, no cleanup
    daemon.wait().unwrap();

    // The restarted daemon re-adopts fleet.json: the interrupted run goes
    // back to queued and resumes from its rotation; the queued run is
    // dispatched as normal.
    let (daemon, addr) = start_daemon(&root, 1);
    wait_state(&addr, &first, RunState::Completed);
    wait_state(&addr, &second, RunState::Completed);

    for id in [&first, &second] {
        assert!(
            root.join(id).join("diagnostics.json").exists(),
            "{id}: diagnostics missing"
        );
    }
    // Both runs are identical configurations, so the interrupted-and-
    // adopted one must still converge bitwise to its undisturbed twin.
    let a = fs::read(root.join(&first).join("checkpoint-000008.bin")).unwrap();
    let b = fs::read(root.join(&second).join("checkpoint-000008.bin")).unwrap();
    assert_eq!(a, b, "adopted run diverged from the undisturbed run");
    shutdown(&addr, daemon);
}

#[test]
fn cancel_dequeues_queued_runs_and_kills_running_ones() {
    let root = tmpdir("cancel");
    let (daemon, addr) = start_daemon(&root, 1);

    // A long run hogs the single slot; a second stays queued behind it.
    let running = submit(&addr, "quickstart", "{\"steps\":200}");
    let queued = submit(&addr, "quickstart", "{\"steps\":4}");
    wait_state(&addr, &running, RunState::Running);

    // Canceling a queued run is immediate — it never dispatches.
    let reply = request_one(&addr, &format!("CANCEL {queued}"));
    assert!(reply.contains("\"state\":\"canceled\""), "{reply}");
    // Canceling a running run kills its child and records the outcome.
    let reply = request_one(&addr, &format!("CANCEL {running}"));
    assert!(serve::reply_ok(&reply), "{reply}");
    wait_state(&addr, &running, RunState::Canceled);
    assert!(matches!(
        read_log(&root, &running).outcome,
        Some(Outcome::Canceled { .. })
    ));
    // A canceled run cannot be canceled again.
    let reply = request_one(&addr, &format!("CANCEL {running}"));
    assert!(reply.contains("\"ok\":false"), "{reply}");
    shutdown(&addr, daemon);
}

/// A plain `SHUTDOWN` detaches a running run: the daemon exits cleanly
/// with the run `queued` in `fleet.json` and `"running"` in its
/// `supervisor.json`, and the next daemon resumes it from its rotation
/// and completes it in the bytes of an undisturbed twin. `SHUTDOWN DRAIN` exits only once the running run has
/// completed.
#[test]
fn shutdown_detaches_running_runs_and_drain_waits_for_them() {
    let root = tmpdir("shutdown");
    let overrides = "{\"steps\":6,\"snapshot_every\":2}";
    let (daemon, addr) = start_daemon(&root, 1);
    let detached = submit(&addr, "quickstart", overrides);
    // Step 3's beat comes after step 2's checkpoint committed.
    wait_step(&addr, &detached, 3);
    shutdown(&addr, daemon);
    let entry = read_fleet(&root).get(&detached).cloned().unwrap();
    assert_eq!(entry.state, RunState::Queued, "detached, not finished");
    assert_eq!(entry.child_pid, None);
    let log = fs::read_to_string(root.join(&detached).join("supervisor.json")).unwrap();
    assert!(
        log.contains("\"outcome\":\"running\""),
        "stays adoptable: {log}"
    );

    let (mut daemon, addr) = start_daemon(&root, 1);
    let twin = submit(&addr, "quickstart", overrides);
    wait_state(&addr, &detached, RunState::Completed);
    wait_state(&addr, &twin, RunState::Completed);
    let a = fs::read(root.join(&detached).join("checkpoint-000006.bin")).unwrap();
    let b = fs::read(root.join(&twin).join("checkpoint-000006.bin")).unwrap();
    assert_eq!(a, b, "the detached run diverged from its undisturbed twin");
    // The re-dispatched attempt resumed from the rotation: its diagnostics
    // sample only the steps it ran, the twin's all six.
    let samples = |id: &str| {
        let text = fs::read_to_string(root.join(id).join("diagnostics.json")).unwrap();
        json::parse_json(&text).and_then(|d| d.get("samples")?.as_u64())
    };
    assert!(samples(&detached).unwrap() < 6, "restarted from step 0");
    assert_eq!(samples(&twin), Ok(6));

    let drained = submit(&addr, "quickstart", "{\"steps\":2}");
    wait_state(&addr, &drained, RunState::Running);
    let reply = request_one(&addr, "SHUTDOWN DRAIN");
    assert!(reply.contains("\"shutdown\":\"drain\""), "{reply}");
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon must exit cleanly, got {status}");
    assert_eq!(
        read_fleet(&root).get(&drained).map(|r| r.state),
        Some(RunState::Completed),
        "DRAIN waits for the running run"
    );
    assert_eq!(
        read_log(&root, &drained).outcome,
        Some(Outcome::Completed { attempts: 1 })
    );
}

/// A client that connects and sends nothing does not hold the daemon
/// open: after `SHUTDOWN` the daemon exits and removes `serve.json` within
/// 15 s while the idle socket is still connected.
#[test]
fn shutdown_exits_while_a_client_holds_an_idle_connection() {
    let root = tmpdir("idle");
    let (mut daemon, addr) = start_daemon(&root, 1);
    // Connected before SHUTDOWN's connection, so accepted before it.
    let idle = TcpStream::connect(&addr).unwrap();
    let reply = request_one(&addr, "SHUTDOWN");
    assert!(reply.contains("\"shutdown\":\"detach\""), "{reply}");
    let deadline = Instant::now() + Duration::from_secs(15);
    let status = loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = daemon.kill();
            let _ = daemon.wait();
            panic!("daemon still running 15 s after SHUTDOWN with an idle client");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "daemon must exit cleanly, got {status}");
    assert!(!root.join("serve.json").exists(), "serve.json left behind");
    drop(idle);
}

#[test]
fn watch_streams_diagnostics_rows_then_a_done_line() {
    let root = tmpdir("watch");
    let (daemon, addr) = start_daemon(&root, 1);
    let id = submit(&addr, "quickstart", "{\"steps\":4}");

    // WATCH from submission time: blocks until the run completes, rows
    // streaming in as the child lands them.
    let lines = serve::request(&addr, &format!("WATCH {id}")).unwrap();
    assert!(lines.len() >= 5, "4 sample rows + done line, got {lines:?}");
    let (done, rows) = lines.split_last().unwrap();
    for (n, row) in rows.iter().enumerate() {
        assert!(row.contains("\"step\":"), "row {n} malformed: {row}");
    }
    assert!(done.contains("\"done\":true"), "{done}");
    assert!(done.contains("\"state\":\"completed\""), "{done}");
    shutdown(&addr, daemon);
}

#[test]
fn protocol_errors_come_back_as_ok_false() {
    let root = tmpdir("errors");
    let (daemon, addr) = start_daemon(&root, 1);
    for line in [
        "FROBNICATE",
        "SUBMIT no_such_scenario",
        "SUBMIT quickstart {\"stepz\":4}",
        "STATUS r9999-nope",
        "CANCEL r9999-nope",
        "SHUTDOWN NOW",
    ] {
        let reply = request_one(&addr, line);
        assert!(
            reply.contains("\"ok\":false") && reply.contains("\"error\":"),
            "`{line}` should error, got {reply}"
        );
    }
    // The daemon is unharmed by garbage requests.
    let reply = request_one(&addr, "LIST");
    assert!(serve::reply_ok(&reply), "{reply}");
    shutdown(&addr, daemon);
}

/// Hostile request lines come back `ok:false`, and the same daemon then
/// answers `LIST`. 60 000 `[` fit under the line cap, so they reach the
/// JSON parser: with no depth limit its recursion overflows the connection
/// thread's 2 MiB stack there and aborts the daemon. 100 000 `[` and a
/// `LIST` padded with 70 000 spaces are past the cap, which the daemon
/// refuses to read on; before the cap it trimmed the spaces and answered.
#[test]
fn deep_and_overlong_requests_are_refused_and_the_daemon_survives() {
    let root = tmpdir("hostile");
    let (daemon, addr) = start_daemon(&root, 1);
    let deep = format!("SUBMIT quickstart {}", "[".repeat(60_000));
    let reply = request_one(&addr, &deep);
    assert!(!serve::reply_ok(&reply), "{reply}");
    assert!(reply.contains("nesting deeper than"), "{reply}");
    for (line, what) in [
        (format!("SUBMIT quickstart {}", "[".repeat(100_000)), "deep"),
        (format!("LIST{}", " ".repeat(70_000)), "padded"),
    ] {
        let reply = request_one(&addr, &line);
        assert!(!serve::reply_ok(&reply), "{what}: {reply}");
        assert!(
            reply.contains("request line longer than"),
            "{what}: {reply}"
        );
    }
    let reply = request_one(&addr, "LIST");
    assert!(serve::reply_ok(&reply), "{reply}");
    shutdown(&addr, daemon);
}

/// The client verbs build a `Request` from argv and send its rendering:
/// a typo'd override is refused before anything crosses the wire, and the
/// exit status follows the replies' `ok` field.
#[test]
fn client_verbs_send_the_rendered_request() {
    let root = tmpdir("client");
    let (daemon, addr) = start_daemon(&root, 1);
    let client = |args: &[&str]| {
        let out = Command::new(BIN)
            .args(args)
            .args(["--addr", &addr])
            .output();
        let out = out.unwrap();
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        (out.status.success(), text.into_owned())
    };
    let (ok, text) = client(&["submit", "quickstart", "{\"stepz\":4}"]);
    assert!(
        !ok && text.contains("submit: `stepz`: unknown override"),
        "{text}"
    );
    let (ok, text) = client(&["list"]);
    assert!(
        ok && text.starts_with("{\"ok\":true,\"runs\":[]}"),
        "{text}"
    );
    let (ok, text) = client(&["status", "r9999-nope"]);
    assert!(!ok && text.starts_with("{\"ok\":false"), "{text}");
    shutdown(&addr, daemon);
}

/// `asura scenarios` prints the submittable registry: every registered
/// scenario's name, in registry order, one per line under a header.
#[test]
fn scenarios_lists_every_registered_scenario() {
    let out = Command::new(BIN).arg("scenarios").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = stdout
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    let names: Vec<&str> = asura::scenarios::SCENARIOS.iter().map(|s| s.name).collect();
    assert_eq!(listed, names, "{stdout}");
}
