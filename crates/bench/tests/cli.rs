//! The `repro` binary fails loudly: an unknown experiment name and a
//! failed artifact write both exit non-zero.

use std::process::Command;

#[test]
fn unknown_experiment_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "no-such-experiment", "--fast"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "repro accepted an unknown experiment");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment: no-such-experiment"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "repro ran experiments before rejecting the name");
}

#[test]
fn failed_artifact_write_exits_nonzero() {
    // No `target/` directory here, so the fast JSON cannot be written.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_without_target");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--hostile", "--fast"])
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "repro ignored a failed artifact write");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("could not write target/BENCH_hostile_fast.json"),
        "stderr: {stderr}"
    );
}
