//! `trace_tool` end to end through the built binary: the trace tier is
//! read from the file's magic, so every reading subcommand prints the same
//! stdout for a WPTRACE1 export and its WPTRACE2 conversion, and input
//! the tool cannot use exits 1 or 2 with a message, never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(args)
        .output()
        .expect("run trace_tool")
}

/// An empty scratch directory private to this test process and test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wasteprof-trace-tool-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

fn assert_no_panic(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what} panicked:\n{stderr}");
}

#[test]
fn both_tiers_print_the_same_stdout() {
    let dir = scratch("tiers");
    let v1 = dir.join("session.wptrace");
    let v2 = dir.join("session.wptrace2");
    let (v1, v2) = (path_str(&v1), path_str(&v2));
    assert!(tool(&["export", "amazon_mobile", v1]).status.success());
    assert!(tool(&["convert", v1, v2]).status.success());

    let commands: [&[&str]; 6] = [
        &["slice"],
        &["slice", "--criteria", "syscalls"],
        &["slice", "--incremental"],
        &["check"],
        &["analyze", "--json"],
        &["certify"],
    ];
    for cmd in commands {
        let run = |file: &str| {
            let mut args = vec![cmd[0], file];
            args.extend(&cmd[1..]);
            tool(&args)
        };
        let (resident, chunked) = (run(v1), run(v2));
        assert_eq!(
            resident.status.code(),
            Some(0),
            "{cmd:?} on a clean session:\n{}",
            String::from_utf8_lossy(&resident.stderr)
        );
        assert_eq!(chunked.status.code(), Some(0), "{cmd:?} on WPTRACE2");
        assert!(!resident.stdout.is_empty(), "{cmd:?} printed nothing");
        assert_eq!(
            String::from_utf8_lossy(&resident.stdout),
            String::from_utf8_lossy(&chunked.stdout),
            "{cmd:?}: stdout differs between the tiers"
        );
    }

    // The tier is the file's, so the old flag that picked it is a usage
    // error like any other unknown flag.
    for cmd in ["slice", "check", "analyze", "certify"] {
        let out = tool(&[cmd, v2, "--out-of-core"]);
        assert_eq!(out.status.code(), Some(2), "{cmd} --out-of-core");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_files_exit_1_without_panicking() {
    let dir = scratch("bad");

    let junk = dir.join("junk.bin");
    std::fs::write(&junk, b"NOTATRACE, and some bytes after it").expect("write junk");
    for cmd in ["slice", "check", "analyze", "certify"] {
        let out = tool(&[cmd, path_str(&junk)]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{cmd} on a file of neither tier"
        );
        assert_no_panic(&out, cmd);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("bad magic"),
            "{cmd} must name the bad magic"
        );
    }

    // An output path under a missing directory is an I/O error.
    let missing = dir.join("missing").join("out.wptrace");
    let out = tool(&["export", "amazon_mobile", path_str(&missing)]);
    assert_eq!(out.status.code(), Some(1), "export to a missing directory");
    assert_no_panic(&out, "export");
    let _ = std::fs::remove_dir_all(&dir);
}
