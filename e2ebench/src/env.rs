//! The run environment recorded with every result, and the scratch
//! directory stores and checkpoints live in while a workload runs.

use crate::procfs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Cargo features this benchmark builds the library with (see
/// `Cargo.toml`).
pub const FEATURES: &str =
    "chef-core/parallel,chef-core/telemetry,chef-data/parallel,chef-serve/default";

/// Where benchmark files live, relative to the directory it runs from:
/// scratch stores while running, traces afterwards.
pub const OUT_DIR: &str = ".e2ebench";

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Key/value description of the machine, build and scratch disk.
pub fn describe(workload: &str, threads: usize, scratch: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    vec![
        ("workload", workload.to_string()),
        ("nproc", nproc.to_string()),
        ("rayon_num_threads", threads.to_string()),
        ("features", FEATURES.to_string()),
        ("rustc", command_line(&rustc, &["--version"])),
        // `--git-dir` keeps git from searching directories above this one.
        (
            "git_revision",
            command_line("git", &["--git-dir", ".git", "rev-parse", "HEAD"]),
        ),
        ("scratch_fs", procfs::filesystem_of(scratch)),
        (
            "peak_rss",
            if procfs::reset_peak_rss() {
                "VmHWM per repetition, reset before each"
            } else {
                "VmHWM since process start: the kernel refused the reset"
            }
            .to_string(),
        ),
        (
            "page_cache",
            "warm: stores are written just before timing; store.majflt counts reads that went to disk"
                .to_string(),
        ),
    ]
}

/// A scratch directory removed when dropped, which also happens while a
/// panic unwinds.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Create `<OUT_DIR>/scratch-<workload>-<pid>` after checking that its
    /// filesystem has room for `need_bytes` (doubled for slack). Nothing
    /// is written when the check fails.
    pub fn create(workload: &str, need_bytes: u64) -> Result<Scratch, String> {
        let dir = PathBuf::from(OUT_DIR).join(format!("scratch-{workload}-{}", std::process::id()));
        if need_bytes > 0 {
            let free = procfs::free_bytes(Path::new("."))
                .ok_or("cannot read free space of the working directory's filesystem")?;
            if free < need_bytes.saturating_mul(2) {
                return Err(format!(
                    "scratch disk too small for {workload}: needs {} MB (twice the {} MB it writes), has {} MB free",
                    (need_bytes * 2) >> 20,
                    need_bytes >> 20,
                    free >> 20
                ));
            }
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave OUT_DIR itself only when nothing else is in it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
