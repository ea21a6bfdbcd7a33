//! Host and process facts recorded beside every number: a figure without
//! its CPU count is noise, and set-up work moved into memory or system time
//! must show somewhere.

use crate::json::Json;
use std::path::{Path, PathBuf};

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` of the nearest enclosing
/// repository (no `git` process; a bare checkout reports `unknown`).
fn git_commit() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            return match head.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(git.join(r))
                    .map(|s| s.trim().to_string())
                    .unwrap_or_else(|_| head.to_string()),
                None => head.to_string(),
            };
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

pub fn host_json() -> Json {
    Json::obj([
        ("cpus", Json::Num(cpus() as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("rustc", Json::Str(rustc_version())),
        ("git_commit", Json::Str(git_commit())),
    ])
}

/// `(peak RSS in MiB, user CPU s, system CPU s)` of this process so far,
/// from `/proc/self` (zeros where that is not available).
pub fn process_usage() -> (f64, f64, f64) {
    let peak_mb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0);
    // fields 14 and 15 (1-based) after the parenthesised command name are
    // utime and stime in clock ticks; Linux reports 100 ticks per second
    let (user, sys) = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((
                f.get(11)?.parse::<f64>().ok()?,
                f.get(12)?.parse::<f64>().ok()?,
            ))
        })
        .map_or((0.0, 0.0), |(u, s)| (u / 100.0, s / 100.0));
    (peak_mb, user, sys)
}

/// Where result files and store directories go: `fdm_benchmark/` under the
/// Cargo target directory this executable was built into (found by the
/// `CACHEDIR.TAG` Cargo drops at its root), so everything the benchmark
/// writes stays inside the checkout's ignored build directory.
pub fn out_root() -> PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.ancestors()
                .find(|d| d.join("CACHEDIR.TAG").is_file())
                .map(Path::to_path_buf)
        })
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("fdm_benchmark")
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Size in bytes of the newest checkpoint file in a store directory.
pub fn newest_checkpoint_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
                .max_by_key(|e| e.file_name())
                .and_then(|e| e.metadata().ok())
                .map_or(0, |m| m.len())
        })
        .unwrap_or(0)
}
