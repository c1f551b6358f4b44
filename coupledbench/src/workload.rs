//! The benchmark's workloads and one measured run of the coupled model,
//! driven through the public API only (`CoupledConfig`, `CoupledOptions`,
//! `World`, `run_coupled`, `CoupledStats`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ap3esm_comm::World;
use ap3esm_esm::{run_coupled, CoupledConfig, CoupledOptions, CoupledStats, Perturbation};

use crate::sys;

/// Simulated days of one timed run: 12 atmosphere and 6 ocean couplings
/// at the `demo_small` coupling rates.
pub const SAMPLE_DAYS: f64 = 0.5;

/// Peak-to-peak amplitude (K) of the seeded initial-θ perturbation.
pub const PERTURB_AMPLITUDE: f64 = 0.5;

/// One benchmark workload: the `demo_small` grids and coupling rates in
/// one of three task layouts.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// All components one after another on a single rank.
    pub single_domain: bool,
    /// Checkpoint at every ocean coupling (health guards on).
    pub checkpoint: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "coupled_seq",
        single_domain: true,
        checkpoint: false,
    },
    Workload {
        name: "coupled_2dom",
        single_domain: false,
        checkpoint: false,
    },
    Workload {
        name: "coupled_ckpt",
        single_domain: false,
        checkpoint: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// `demo_small` with a 1×1 ocean mesh, so both layouts integrate the
    /// same numerics bitwise; the seed picks the synthetic continents.
    pub fn config(&self, seed: u64) -> CoupledConfig {
        CoupledConfig {
            ocn_px: 1,
            ocn_py: 1,
            single_domain: self.single_domain,
            mask_seed: seed,
            ..CoupledConfig::demo_small()
        }
    }

    pub fn world_size(&self) -> usize {
        self.config(0).world_size()
    }

    /// Options for a run of `days`, with the seeded θ perturbation. A
    /// checkpointing workload writes under `ckpt_dir`; `resume` restarts
    /// from a committed checkpoint copied elsewhere.
    pub fn options(
        &self,
        seed: u64,
        days: f64,
        ckpt_dir: Option<&Path>,
        resume: Option<&Path>,
    ) -> CoupledOptions {
        let mut opts = CoupledOptions {
            days,
            perturb: Some(Perturbation {
                seed,
                amplitude: PERTURB_AMPLITUDE,
            }),
            ..CoupledOptions::default()
        };
        if self.checkpoint {
            opts.checkpoint_dir = ckpt_dir.map(Path::to_path_buf);
            opts.recovery.checkpoint_interval = 1;
            opts.resume_from = resume.map(Path::to_path_buf);
        }
        opts
    }
}

/// One coupled run measured from outside.
pub struct Run {
    pub wall_s: f64,
    /// Process CPU seconds (user + sys) spent in the run.
    pub cpu_s: f64,
    /// Peak resident memory the run added to what the process held when
    /// it started (so nothing left over from earlier runs counts), when
    /// the high-water reset is available.
    pub peak_rss_bytes: Option<u64>,
    /// Per-rank stats, or the panic message of a crashed rank.
    pub stats: Result<Vec<CoupledStats>, String>,
    pub world_size: usize,
    pub msgs: u64,
    pub bytes: u64,
}

/// Run `config` with `opts` on a fresh world and time the `World::run`
/// call that wraps every rank's `run_coupled`.
pub fn run_once(config: &CoupledConfig, opts: &CoupledOptions) -> Run {
    let world = World::new(config.world_size());
    let rss_start = sys::reset_peak_rss();
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let stats = catch_unwind(AssertUnwindSafe(|| {
        world.run(|rank| run_coupled(rank, config, opts))
    }));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;
    let peak_rss_bytes = rss_start
        .zip(sys::peak_rss_bytes())
        .map(|(start, peak)| peak.saturating_sub(start));
    let stats = stats.map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "rank panicked".to_string())
    });
    Run {
        wall_s,
        cpu_s,
        peak_rss_bytes,
        stats,
        world_size: config.world_size(),
        msgs: world.stats().total_messages(),
        bytes: world.stats().total_bytes(),
    }
}

/// The per-invocation scratch directory: checkpoints, the resume source
/// and span dumps live here. Resolved at run time under the working
/// directory and removed on drop unless kept.
pub struct WorkDir {
    pub path: PathBuf,
    pub keep: bool,
}

impl WorkDir {
    pub fn create(workload: &str, keep: bool) -> std::io::Result<WorkDir> {
        let path = std::env::current_dir()?
            .join(".coupledbench_work")
            .join(format!("{workload}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path, keep })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        if self.keep {
            eprintln!("work directory kept at {}", self.path.display());
            return;
        }
        let _ = std::fs::remove_dir_all(&self.path);
        // Remove the shared parent too once no other run is using it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
