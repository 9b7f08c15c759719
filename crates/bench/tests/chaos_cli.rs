//! The `chaos` binary's bad-input exits: every unusable argument or input
//! file is reported on stderr with exit code 2, never a panic (101).

use std::path::PathBuf;
use std::process::Command;

/// Runs `chaos` with `args`; returns its exit code and stderr.
fn chaos(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_chaos")).args(args).output().expect("spawn chaos");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Writes `text` to a file of this test target's scratch directory.
fn scratch_file(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write scratch file");
    path
}

fn assert_usage_error(args: &[&str], expected: &str) {
    let (code, stderr) = chaos(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("chaos: "), "{args:?}: {stderr}");
    assert!(stderr.contains(expected), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn unknown_arguments_exit_2() {
    assert_usage_error(&["--shards", "4"], "--shards");
}

#[test]
fn a_non_numeric_count_exits_2() {
    assert_usage_error(&["--count", "many"], "--count takes a number");
}

#[test]
fn unreadable_input_files_exit_2() {
    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no-such-file.txt");
    let missing = missing.to_str().unwrap();
    assert_usage_error(&["--replay", missing], "cannot read");
    assert_usage_error(&["--seeds", missing], "cannot read");
}

#[test]
fn a_malformed_repro_exits_2() {
    let text = "# doall-chaos-repro v1\nseed = 1\nprotocol = A\nplane = sync\nt = 4\nn = 8\n\
                fault = crash_recover p1 @5 down=0\n";
    let path = scratch_file("malformed-repro.txt", text);
    assert_usage_error(&["--replay", path.to_str().unwrap()], "cannot parse");
}

#[test]
fn a_bad_seed_line_exits_2() {
    let path = scratch_file("bad-seeds.txt", "# seeds\n7\nseven\n");
    assert_usage_error(&["--seeds", path.to_str().unwrap()], "bad seed line");
}
