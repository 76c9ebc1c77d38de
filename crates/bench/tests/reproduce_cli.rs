//! The `reproduce` binary rejects a misspelled experiment before it runs
//! any of the others named with it.

use std::process::Command;

#[test]
fn unknown_experiment_fails_before_anything_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["grid-smoke", "bogus"])
        .output()
        .expect("reproduce runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran before checking: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `bogus`"), "{stderr}");
}
