//! `repro` finishes its run when the reader of its stdout goes away,
//! as in `repro serve … | grep -m1 …` or `repro canary | head -n 1`:
//! a broken pipe drops the rest of the output instead of panicking.

use std::process::{Command, Stdio};

#[test]
fn table1_exits_cleanly_with_its_stdout_closed() {
    let out_dir = std::env::temp_dir().join(format!("repro-closed-stdout-{}", std::process::id()));
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    // No reader is left, so the first write to stdout fails with EPIPE.
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .arg("--out-dir")
        .arg(&out_dir)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn repro");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "repro table1 exited with {}; stderr:\n{stderr}",
        output.status
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}
