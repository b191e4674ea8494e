//! Malformed `compass-run` argument vectors: each is refused with a
//! structured error and exit code — 2 for a usage error, 1 for a request
//! the program understood but cannot carry out — and never a panic.

use std::path::PathBuf;
use std::process::Command;

/// Runs `compass-run` with `args`; returns its exit code and stderr.
fn compass_run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_compass-run"))
        .args(args)
        .output()
        .expect("compass-run starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A path of this test's own under the system temp directory.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cli-args-{}-{name}", std::process::id()))
}

#[test]
fn malformed_arguments_exit_with_a_code_and_a_reason_not_a_panic() {
    let garbage = scratch("garbage.cmps");
    std::fs::write(&garbage, b"not a model").unwrap();
    let missing = scratch("missing.cmps");
    let store = scratch("store");
    let (garbage, missing, store) = (
        garbage.to_str().unwrap(),
        missing.to_str().unwrap(),
        store.to_str().unwrap(),
    );
    let rows: [(&[&str], i32); 22] = [
        (&[], 2),
        (&["--bogus"], 2),
        (&["--workload"], 2),
        (&["--workload", "nosuch"], 2),
        (&["--workload", "ring", "--model", missing], 2),
        (&["--workload", "ring", "--cores", "abc"], 2),
        (&["--workload", "ring", "--cores", "-1"], 2),
        (&["--workload", "ring", "--ticks", "99999999999"], 2),
        (&["--workload", "ring", "--backend", "udp"], 2),
        (&["--workload", "ring", "--ranks", "0"], 2),
        (&["--workload", "ring", "--threads", "0"], 2),
        (&["--workload", "ring", "--cores", "0"], 2),
        (&["--workload", "synthetic", "--cores", "0"], 2),
        (&["--workload", "cocomac", "--cores", "0"], 2),
        (&["--model", garbage, "--cores", "0"], 2),
        (&["--workload", "ring", "--resume"], 2),
        (&["--workload", "cocomac", "--checkpoint-dir", store], 2),
        (
            &["--workload", "synthetic", "--cores", "5", "--ranks", "7"],
            1,
        ),
        (
            &["--workload", "cocomac", "--cores", "10", "--ticks", "1"],
            1,
        ),
        (&["--model", missing], 1),
        (&["--model", garbage, "--ticks", "1"], 1),
        (&["--model", garbage, "--checkpoint-dir", store], 1),
    ];
    for (args, code) in rows {
        let (exit, stderr) = compass_run(args);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.starts_with("compass-run: "), "{args:?}: {stderr}");
        assert_eq!(exit, Some(code), "{args:?}: {stderr}");
    }
    std::fs::remove_file(garbage).unwrap();
}

/// The control: a well-formed run exits 0 and prints its report.
#[test]
fn a_well_formed_run_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_compass-run"))
        .args(["--workload", "ring", "--cores", "2", "--ranks", "1"])
        .args(["--ticks", "4"])
        .output()
        .expect("compass-run starts");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("cores 2 | ticks 4"));
}
