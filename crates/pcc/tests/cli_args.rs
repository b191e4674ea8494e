//! Malformed `pcc-compile` argument vectors and inputs: each is refused
//! with a `pcc-compile:` reason and an exit code — 2 for a usage error,
//! including sizes no run can hold, 1 for a request the tool understood
//! but could not carry out — and never a panic or an abort.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `pcc-compile` with `args`; returns its exit code and stderr.
fn pcc_compile(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pcc-compile"))
        .args(args)
        .output()
        .expect("pcc-compile starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A path of this test's own under the system temp directory.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pcc-cli-args-{}-{name}", std::process::id()))
}

#[test]
fn malformed_arguments_and_inputs_exit_with_a_code_and_a_reason_not_a_panic() {
    let demo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models/demo.cob");
    let demo = demo.to_str().unwrap();
    let garbage = scratch("garbage.cob");
    std::fs::write(&garbage, "region ??? not a directive\n").unwrap();
    let missing = scratch("missing.cob");
    let (garbage, missing) = (garbage.to_str().unwrap(), missing.to_str().unwrap());
    // (arguments, exit code, a phrase the reason must contain)
    let rows: [(&[&str], i32, &str); 6] = [
        (
            &[demo, "--cores", "99999999999"],
            2,
            "at most 16777216 cores a rank",
        ),
        (
            &[demo, "--ranks", "99999999", "--cores", "64"],
            2,
            "--ranks 99999999 exceeds 1048576",
        ),
        (&[demo, "--cores", "0"], 1, "planning failed"),
        (&[missing, "--cores", "4"], 1, "cannot read"),
        (&[garbage, "--cores", "4"], 1, "line 1"),
        (&[demo], 2, "--cores is required"),
    ];
    for (args, code, reason) in rows {
        let (exit, stderr) = pcc_compile(args);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.starts_with("pcc-compile: "), "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
        assert_eq!(exit, Some(code), "{args:?}: {stderr}");
    }
    std::fs::remove_file(garbage).unwrap();
}

#[test]
fn a_well_formed_compile_exits_zero() {
    let demo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models/demo.cob");
    let out = Command::new(env!("CARGO_BIN_EXE_pcc-compile"))
        .arg(&demo)
        .args(["--cores", "8", "--ranks", "2"])
        .output()
        .expect("pcc-compile starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("compiled 8 cores"));
}
