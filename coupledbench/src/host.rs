//! Host and run details stamped on every result.

use std::path::Path;

use ap3esm_obs::json::Json;

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_sha: String,
}

/// The commit checked out in `dir`, read from `dir/.git` alone (no `git`
/// process, no search of parent directories); `None` outside a plain git
/// checkout, e.g. in an exported source tree.
fn git_sha(dir: &Path) -> Option<String> {
    let git = dir.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string()); // detached HEAD
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(name)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, r)| *r == name)
        .map(|(sha, _)| sha.to_string())
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let git_sha = std::env::current_dir()
            .ok()
            .and_then(|d| git_sha(&d))
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc,
            cpu_model,
            rustc: env!("COUPLEDBENCH_RUSTC"),
            git_sha,
        }
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("nproc", Json::UInt(self.nproc as u64))
            .set("cpu_model", Json::Str(self.cpu_model.clone()))
            .set("rustc", Json::Str(self.rustc.to_string()))
            .set("git_sha", Json::Str(self.git_sha.clone()));
        j
    }
}
