//! Malformed `compass-run` and `compass-ckpt` argument vectors: each is
//! refused with a structured error and exit code — 2 for a usage error, 1
//! for a request the program understood but cannot carry out — and never
//! a panic.

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

/// Sizes past what a run can hold are refused as usage errors before
/// anything is allocated: ranks past the spike record's 20-bit rank field,
/// cores per rank past its 24-bit index field, threads past the largest
/// rank's core count. Each reason names the option and the bound.
#[test]
fn sizes_a_run_cannot_hold_are_refused_before_anything_is_allocated() {
    let model = scratch("two-cores.cmps");
    let ring = compass::sim::NetworkModel::relay_ring(2, 16, 1);
    compass::pcc::expanded::write_file(&ring, &model).unwrap();
    let model = model.to_str().unwrap();
    let rows: [(&[&str], &str); 7] = [
        // Each of these aborted in the allocator or the thread spawner.
        (
            &["--workload", "ring", "--cores", "99999999999"],
            "puts 50000000000 cores on one rank",
        ),
        (
            &["--workload", "ring", "--ranks", "99999999"],
            "--ranks 99999999 exceeds 1048576",
        ),
        (
            &["--workload", "ring", "--threads", "99999999"],
            "--threads 99999999 exceeds 154",
        ),
        // One past each bound.
        (
            &["--workload", "ring", "--ranks", "1048577"],
            "--ranks 1048577 exceeds 1048576",
        ),
        (
            &["--workload", "ring", "--cores", "16777217", "--ranks", "1"],
            "--cores 16777217 over --ranks 1 puts 16777217 cores on one rank; a spike record addresses at most 16777216",
        ),
        (
            &["--workload", "synthetic", "--cores", "4", "--ranks", "2", "--threads", "3"],
            "--threads 3 exceeds 2, the largest rank's core count",
        ),
        (
            &["--model", model, "--ranks", "1", "--threads", "3"],
            "--threads 3 exceeds 2, the largest rank's core count",
        ),
    ];
    for (args, reason) in rows {
        let (exit, stderr) = compass_run(args);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.starts_with("compass-run: "), "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
        assert_eq!(exit, Some(2), "{args:?}: {stderr}");
    }
    std::fs::remove_file(model).unwrap();
}

/// A run the host cannot hold is priced and refused before anything is
/// allocated: its cores at the pool's per-slot bytes plus the world² table
/// of per-pair state, against `MemAvailable` (Linux's `/proc/meminfo`).
/// The reason names the bytes; a 1 024-core run still passes.
#[cfg(target_os = "linux")]
#[test]
fn a_run_the_host_cannot_hold_is_refused_with_its_bytes() {
    let rows: [&[&str]; 2] = [
        &["--workload", "ring", "--cores", "16000000", "--ranks", "1"],
        &["--workload", "ring", "--ranks", "1000000"],
    ];
    for args in rows {
        let (exit, stderr) = compass_run(args);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.starts_with("compass-run: "), "{args:?}: {stderr}");
        assert!(stderr.contains("bytes are available"), "{args:?}: {stderr}");
        assert!(stderr.contains("need at least"), "{args:?}: {stderr}");
        assert_eq!(exit, Some(2), "{args:?}: {stderr}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_compass-run"))
        .args(["--workload", "ring", "--cores", "1024", "--ranks", "1"])
        .args(["--ticks", "2"])
        .output()
        .expect("compass-run starts");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("cores 1024 | ticks 2"));
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

/// A short run reports its real-time result unrounded: a 10-tick ring
/// takes a fraction of its 10 ms of model time, which the slowdown shows
/// to two decimals instead of as `0x`; the phases line names the CPU level
/// the Neuron phase ran at.
#[test]
fn a_short_ring_run_reports_its_slowdown_and_kernel_level() {
    let out = Command::new(env!("CARGO_BIN_EXE_compass-run"))
        .args(["--workload", "ring", "--cores", "4", "--ticks", "10"])
        .output()
        .expect("compass-run starts");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("slowdown 0x"), "{stdout}");
    let slowdown = stdout
        .split("slowdown ")
        .nth(1)
        .and_then(|rest| rest.split('x').next())
        .expect("a slowdown field");
    assert_eq!(
        slowdown.split('.').nth(1).map(str::len),
        Some(2),
        "{stdout}"
    );
    let level = compass::tn::kernel::level().name();
    assert!(stdout.contains(&format!("| kernels {level}\n")), "{stdout}");
}

/// `compass-ckpt` inspects, checks and prunes a store; it never creates
/// one. Each subcommand refuses a `DIR` that is missing or a regular file
/// with exit 2 and a `compass-ckpt:` reason, and a missing path is still
/// missing afterwards. An existing empty directory is an empty store.
#[test]
fn compass_ckpt_refuses_a_dir_that_is_not_a_directory_and_creates_nothing() {
    let ckpt = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_compass-ckpt"))
            .args(args)
            .output()
            .expect("compass-ckpt starts");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let missing = scratch("no-store");
    let file = scratch("not-a-store");
    std::fs::write(&file, b"not a store").unwrap();
    for dir in [&missing, &file] {
        let dir = dir.to_str().unwrap();
        let vectors: [&[&str]; 4] = [
            &["inspect", dir],
            &["fsck", dir],
            &["gc", dir],
            &["gc", dir, "--retain", "1"],
        ];
        for args in vectors {
            let (exit, stderr) = ckpt(args);
            assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
            assert!(stderr.starts_with("compass-ckpt: "), "{args:?}: {stderr}");
            assert!(
                stderr.contains("not an existing directory"),
                "{args:?}: {stderr}"
            );
            assert_eq!(exit, Some(2), "{args:?}: {stderr}");
        }
    }
    assert!(
        !missing.exists(),
        "compass-ckpt created {}",
        missing.display()
    );
    assert!(file.is_file());
    std::fs::remove_file(file).unwrap();
    // The control: an existing empty directory is an empty store.
    let empty = scratch("empty-store");
    std::fs::create_dir(&empty).unwrap();
    let (exit, stderr) = ckpt(&["inspect", empty.to_str().unwrap()]);
    assert_eq!(exit, Some(0), "{stderr}");
    std::fs::remove_dir_all(empty).unwrap();
}
