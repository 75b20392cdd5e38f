//! The `experiments` binary's argument handling: retired commands and
//! malformed option values end with the usage exit code 2, never with a
//! panic (exit 101) inside a run.

use std::process::Command;

/// Run the binary with `args` in a scratch working directory and return
/// its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("busbw-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .arg("--out")
        .arg(&dir)
        .current_dir(&dir)
        .output()
        .expect("spawn experiments");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str]) {
    let (code, stderr) = run(args);
    assert_eq!(
        code,
        Some(2),
        "`{}` exit code; stderr:\n{stderr}",
        args.join(" ")
    );
    assert!(
        stderr.starts_with("usage: experiments"),
        "`{}` should print usage; stderr:\n{stderr}",
        args.join(" ")
    );
    assert!(
        !stderr.contains("panicked"),
        "`{}` panicked:\n{stderr}",
        args.join(" ")
    );
}

#[test]
fn retired_bench_commands_are_usage_errors() {
    for sub in ["tick-rate", "profile", "sweep"] {
        assert_usage_error(&["bench", sub]);
    }
}

#[test]
fn non_positive_or_non_finite_scale_is_a_usage_error() {
    for scale in ["0", "-1", "nan", "inf"] {
        assert_usage_error(&["fig1a", "--scale", scale]);
    }
}

#[test]
fn non_numeric_workers_is_a_usage_error() {
    assert_usage_error(&["fig1a", "--workers", "x"]);
}
