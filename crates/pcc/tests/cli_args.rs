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
    let not_utf8 = scratch("not-utf8.cob");
    std::fs::write(&not_utf8, b"region A\xff class=cortical volume=1\n").unwrap();
    let empty = scratch("empty.cob");
    std::fs::write(&empty, "").unwrap();
    // One region more than a region id can name.
    let crowded = scratch("crowded.cob");
    let regions: String = (0..=65_536).map(|i| format!("region R{i}\n")).collect();
    std::fs::write(&crowded, regions).unwrap();
    let (garbage, missing) = (garbage.to_str().unwrap(), missing.to_str().unwrap());
    let (not_utf8, empty) = (not_utf8.to_str().unwrap(), empty.to_str().unwrap());
    let crowded = crowded.to_str().unwrap();
    // (arguments, exit code, a phrase the reason must contain)
    let rows: [(&[&str], i32, &str); 9] = [
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
        (&[not_utf8, "--cores", "4"], 1, "cannot read"),
        (&[empty, "--cores", "4"], 1, "no regions"),
        (
            &[crowded, "--cores", "4"],
            1,
            "65537 regions exceed the 65536",
        ),
        (&[demo], 2, "--cores is required"),
    ];
    for (args, code, reason) in rows {
        let (exit, stderr) = pcc_compile(args);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.starts_with("pcc-compile: "), "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
        assert_eq!(exit, Some(code), "{args:?}: {stderr}");
    }
    for file in [garbage, not_utf8, empty, crowded] {
        std::fs::remove_file(file).unwrap();
    }
}

/// A compile whose run the host could not hold is refused before anything
/// is allocated, with `compass-run`'s price: the reason names the bytes.
/// A 1 024-core compile still passes.
#[cfg(target_os = "linux")]
#[test]
fn a_compile_the_host_cannot_run_is_refused_with_its_bytes() {
    let demo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models/demo.cob");
    let demo = demo.to_str().unwrap();
    let rows: [&[&str]; 2] = [
        &[demo, "--cores", "16000000", "--ranks", "1"],
        &[demo, "--cores", "64", "--ranks", "1000000"],
    ];
    for args in rows {
        let (exit, stderr) = pcc_compile(args);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.starts_with("pcc-compile: "), "{args:?}: {stderr}");
        assert!(stderr.contains("bytes are available"), "{args:?}: {stderr}");
        assert!(stderr.contains("need at least"), "{args:?}: {stderr}");
        assert_eq!(exit, Some(2), "{args:?}: {stderr}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_pcc-compile"))
        .args([demo, "--cores", "1024", "--ranks", "1"])
        .output()
        .expect("pcc-compile starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("compiled 1024 cores"));
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
