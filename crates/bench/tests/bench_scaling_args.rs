//! `bench_scaling`'s argument contract: a malformed value exits 2 with
//! usage before anything runs, and writes no artifact.

use std::process::Command;

#[test]
fn zero_ticks_exits_2_and_writes_nothing() {
    let out =
        std::env::temp_dir().join(format!("bench-scaling-ticks0-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_bench_scaling"))
        .args(["--max-cores", "100", "--ticks", "0", "--check", "--out"])
        .arg(&out)
        .output()
        .expect("bench_scaling runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--ticks") && stderr.contains("Usage:"),
        "{stderr}"
    );
    assert!(!out.exists(), "a rejected run wrote {}", out.display());
}
