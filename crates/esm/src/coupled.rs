//! The coupled AP3ESM driver.
//!
//! Implements the paper's two-task-domain layout (§7.2): world rank 0 is
//! **domain A** — coupler + atmosphere + sea ice + land ("the atmosphere
//! component exhibits the highest computational cost, and placing the
//! coupler within the same domain minimizes data exchange"; "the land
//! component is inherently coupled with the atmospheric component"; "the
//! sea ice component contributes minimal computational overhead") — and
//! world ranks 1..=N are **domain O**, exclusively the ocean ("the ocean
//! component represents the second largest computational cost,
//! necessitating its allocation to a separate domain").
//!
//! Data crosses domains through GSMap/Router rearrangement (`ap3esm-cpl`),
//! under the coupling clock's 180/36/180-per-day cadence (configurable).
//!
//! Both of §5.1.2's layouts run through one loop: rank 0 holds a
//! `CouplerSide` (domain A), every rank owning ocean columns an
//! `OceanSide` (domain O), and the sequential `single_domain` layout
//! simply puts both on rank 0. Every rank runs the same per-coupling
//! message sequence and the same recovery path over whichever sides it
//! holds.

use ap3esm_atm::dycore::{Dycore, DycoreConfig};
use ap3esm_atm::pdc::{PhysicsDriver, PhysicsDynamicsCoupler, SurfaceForcing};
use ap3esm_atm::state::AtmState;
use ap3esm_atm::vortex::{seed_vortex, track_vortex, TrackPoint, VortexSpec};
use ap3esm_comm::{collectives, Rank};
use ap3esm_cpl::clock::CouplingClock;
use ap3esm_cpl::fluxes::{blended_surface_temperature, merge_ocean_forcing};
use ap3esm_cpl::gsmap::GSMap;
use ap3esm_cpl::mapping::RemapMatrix;
use ap3esm_cpl::rearrange::Rearranger;
use ap3esm_cpl::router::Router;
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::mask::MaskGenerator;
use ap3esm_grid::sphere::Vec3;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_grid::GeodesicGrid;
use ap3esm_ice::{IceForcing, IceModel};
use ap3esm_lnd::{LndForcing, LndModel};
use ap3esm_obs::FrKind;
use ap3esm_ocn::model::{OcnConfig, OcnForcing, OcnModel};
use ap3esm_physics::constants::{temperature_from_theta, STEFAN_BOLTZMANN};
use ap3esm_physics::surface::{bulk_fluxes, BulkCoefficients};
use ap3esm_physics::ConventionalSuite;

use ap3esm_io::subfile::{SubfileReader, SubfileWriter};
use ap3esm_io::IoError;

use crate::config::CoupledConfig;
use crate::resilience::{
    with_retry, AtmGuard, CheckpointStore, GuardConfig, HealthVerdict, OcnGuard, RecoveryConfig,
    RecoveryFailure,
};
use crate::timing::{get_timing, Timers};

/// Tag of the per-ocean-coupling health agreement (severity max-reduce).
const HEALTH_TAG: u64 = 0x7EA1;
/// Tag broadcasting the checkpoint id chosen for a rollback.
const CKPT_ID_TAG: u64 = 0x7EA2;
/// Tag of the all-ranks-loaded-ok vote during a rollback.
const CKPT_OK_TAG: u64 = 0x7EA3;
/// Reply tag of the widened-window health agreement (root → peers).
const HEALTH_REPLY_TAG: u64 = 0x7EA4;
/// Sub-files per checkpoint field (matches the restart layer).
const CKPT_SUBFILES: usize = 4;
/// Telemetry busy-time exchange tags (max-reduce, sum-reduce). Dedicated
/// tags, only exchanged when `CoupledOptions::telemetry` is set, so fault
/// plans counting messages on the physics/health tags are unaffected.
const TELE_MAX_TAG: u64 = 0x7E1E;
const TELE_SUM_TAG: u64 = 0x7E1F;

/// Build the AI physics suite for the coupled model: a quick in-situ
/// training pass over conventional-physics supervision (our stand-in for
/// loading the paper's pre-trained 5-km weights; DESIGN.md substitution).
fn build_ai_driver(nlev: usize) -> PhysicsDriver {
    use ap3esm_ai::modules::{Normalizer, RadiationModule, TendencyModule};
    use ap3esm_ai::net::{RadiationMlp, TendencyCnn};
    use ap3esm_ai::train::{TrainConfig, Trainer};
    use ap3esm_physics::suite::{hydrostatic_thickness, Column, SurfaceProperties};

    let suite = ConventionalSuite::default();
    let sigma: Vec<f64> = (0..nlev)
        .map(|k| 1.0 - (k as f64 + 0.5) / nlev as f64)
        .collect();
    let ds = vec![1.0 / nlev as f64; nlev];
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    for s in 0..240 {
        let t_surf = 278.0 + 24.0 * ((s as f64) * 0.41).sin().abs();
        let t: Vec<f64> = (0..nlev)
            .map(|k| t_surf - (50.0 / nlev as f64) * k as f64)
            .collect();
        let (p, dp, dz) = hydrostatic_thickness(&sigma, &ds, 1.0e5, &t);
        let q: Vec<f64> = (0..nlev)
            .map(|k| 0.012 * (-1.5 * k as f64 / nlev as f64).exp())
            .collect();
        let col = Column {
            u: vec![6.0 * ((s % 7) as f64 - 3.0); nlev],
            v: vec![0.0; nlev],
            t: t.clone(),
            q: q.clone(),
            p: p.clone(),
            dp,
            dz,
        };
        let out = suite.step_column(
            &col,
            &SurfaceProperties {
                tskin: t_surf + 1.0,
                coszr: 0.25 * (s % 4) as f64,
                wetness: 1.0,
            },
        );
        let mut x = Vec::new();
        for src in [&col.u, &col.v, &col.t, &col.q, &col.p] {
            x.extend(src.iter().map(|&v| v as f32));
        }
        let mut y = Vec::new();
        for src in [&out.du, &out.dv, &out.dt, &out.dq] {
            y.extend(src.iter().map(|&v| v as f32));
        }
        inputs.push(x);
        targets.push(y);
    }
    let in_norm = Normalizer::fit(&inputs, 5);
    let out_norm = Normalizer::fit(&targets, 4);
    for s in inputs.iter_mut() {
        *s = in_norm.normalize(s, 5);
    }
    for s in targets.iter_mut() {
        *s = out_norm.normalize(s, 4);
    }
    let mut net = TendencyCnn::with_width(nlev, 12, 11);
    let trainer = Trainer::new(TrainConfig {
        epochs: 6,
        batch_size: 16,
        lr: 2e-3,
    });
    trainer.train_cnn(&mut net, &inputs, &targets);
    PhysicsDriver::AiSuite {
        tendency: TendencyModule::new(net, in_norm, out_norm),
        radiation: RadiationModule::new(
            RadiationMlp::with_width(nlev, 24, 13),
            Normalizer {
                mean: vec![0.0],
                std: vec![100.0],
            },
            Normalizer {
                mean: vec![200.0, 350.0],
                std: vec![100.0, 50.0],
            },
        ),
        diagnostics: ConventionalSuite::default(),
    }
}

/// Idealised initial-condition SST anomaly families, applied to the
/// coupler's initial SST boundary state at t = 0 (the reforecast-style
/// perturbation the scenario engine's ENSO catalog entries use). The
/// anomaly enters the coupled system through the first atmosphere
/// couplings' lower boundary condition; the ocean interior is untouched,
/// so the pattern relaxes on the coupling timescale like a prescribed-SST
/// nudge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SstPattern {
    /// ENSO-like anomaly: `amplitude` K (positive = warm event, negative =
    /// cold) centred on an eastern-basin warm pool, Gaussian in latitude
    /// (~15° e-folding) and longitude (~40°).
    Enso { amplitude: f64 },
}

impl SstPattern {
    /// Anomaly (K) at a point, `lat`/`lon` in radians.
    pub fn anomaly(&self, lat: f64, lon: f64) -> f64 {
        match self {
            SstPattern::Enso { amplitude } => {
                // Eastern-Pacific-like centre at 240°E.
                let lon0 = 240f64.to_radians();
                let mut dl = (lon - lon0) % std::f64::consts::TAU;
                if dl > std::f64::consts::PI {
                    dl -= std::f64::consts::TAU;
                }
                if dl < -std::f64::consts::PI {
                    dl += std::f64::consts::TAU;
                }
                let meridional = (-(lat / 15f64.to_radians()).powi(2)).exp();
                let zonal = (-(dl / 40f64.to_radians()).powi(2)).exp();
                amplitude * meridional * zonal
            }
        }
    }
}

/// Seeded white-noise perturbation of the initial potential temperature
/// (ensemble-spread generator): every cell of every level gets a
/// deterministic `±amplitude/2` offset hashed from `(seed, cell index)`,
/// so two members with different seeds decorrelate while any one member
/// stays bitwise reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturbation {
    pub seed: u64,
    /// Peak-to-peak noise amplitude (K).
    pub amplitude: f64,
}

impl Perturbation {
    /// Centred noise in `[-amplitude/2, amplitude/2]` for index `i`
    /// (splitmix64 of the seed and index — no RNG state to carry).
    pub fn noise(&self, i: usize) -> f64 {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        (u - 0.5) * self.amplitude
    }
}

/// Run options.
#[derive(Debug, Clone)]
pub struct CoupledOptions {
    /// Simulated days.
    pub days: f64,
    /// Seed this vortex into the atmosphere at t = 0 (forecast experiment).
    pub vortex: Option<VortexSpec>,
    /// Further vortices seeded after `vortex` (multi-vortex basin
    /// experiments); order matters only where cores overlap.
    pub extra_vortices: Vec<VortexSpec>,
    /// Idealised SST anomaly added to the initial coupler SST state.
    pub sst_pattern: Option<SstPattern>,
    /// Seeded noise added to the initial θ field (ensemble spread).
    pub perturb: Option<Perturbation>,
    /// Track the vortex at every atmosphere coupling.
    pub record_track: bool,
    /// Emit a JSON run report named `run-<name>.json` under `target/obs/`.
    /// Collective: every rank contributes its span tree to the cross-rank
    /// section table; rank 0 writes the file.
    pub report_name: Option<String>,
    /// Also export per-rank timelines: a Chrome Trace Event file
    /// (`trace-<name>.json`, one `pid` per rank, span + comm-flow events,
    /// resilience instants) and a collapsed-stack flamegraph
    /// (`trace-<name>.folded`). Requires `report_name`; ignored without it.
    pub trace: bool,
    /// Opt-in live telemetry: every N ocean couplings, rank 0 prints step
    /// rate, an SYPD estimate, and the per-component wall-time split to
    /// stderr. `None` (the default) prints nothing.
    pub progress_every: Option<u64>,
    /// Enable checkpoint/rollback recovery, writing checkpoints under this
    /// directory (shared by all ranks). `None` disables the entire
    /// resilience path: no guards, no health exchange, no checkpoints.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Recovery policy (only consulted when `checkpoint_dir` is set).
    pub recovery: RecoveryConfig,
    /// Resume the run from this checkpoint directory instead of a cold
    /// start. The directory must hold a restart set matching this world's
    /// layout (e.g. a `shrunk_g<N>` hand-off written by a degraded run, or
    /// an ordinary `ckpt_*` directory). Requires `checkpoint_dir`.
    pub resume_from: Option<std::path::PathBuf>,
    /// Continuous telemetry: background sampling of the metrics registry
    /// into a time-series store, SLO/anomaly alerting, and an optional
    /// OpenMetrics scrape endpoint — all on rank 0. `None` (the default)
    /// runs no sampler thread and exchanges no telemetry messages, so
    /// fault plans that count messages see an unchanged stream.
    pub telemetry: Option<TelemetryOptions>,
    /// Black-box flight recorder (default **on**): every rank journals
    /// structured resilience events (health transitions, rollbacks,
    /// shrinks, checkpoint begin/commit, fault firings) into a bounded
    /// per-rank ring shared through the world's blackbox slot, and the
    /// comm-event timeline records always. When the run ends in trouble
    /// (structured failure, shrink, rollback, or any fault event), rank 0
    /// dumps a self-contained diagnostics bundle to
    /// `target/obs/bundle-<name>/` for `ap3esm_obs::flightrec::analyze`.
    /// Steady-state cost is one relaxed load per journal call plus the
    /// bounded comm-event rings.
    pub flightrec: bool,
    /// Bundle directory name (`bundle-<name>`). Defaults to `report_name`,
    /// then to `pid<process id>`.
    pub bundle_name: Option<String>,
}

impl Default for CoupledOptions {
    fn default() -> Self {
        CoupledOptions {
            days: 1.0,
            vortex: None,
            extra_vortices: Vec::new(),
            sst_pattern: None,
            perturb: None,
            record_track: false,
            report_name: None,
            trace: false,
            progress_every: None,
            checkpoint_dir: None,
            recovery: RecoveryConfig::default(),
            resume_from: None,
            telemetry: None,
            flightrec: true,
            bundle_name: None,
        }
    }
}

/// Continuous-telemetry options. When set on [`CoupledOptions`], rank 0
/// runs a background [`ap3esm_obs::Sampler`] copying every registered
/// counter/gauge/histogram into an in-process [`ap3esm_obs::SeriesStore`]
/// on `cadence`, evaluates the alert rules on every tick, and (with
/// `metrics_addr`) serves live OpenMetrics scrapes over HTTP. Every ocean
/// coupling additionally exchanges per-rank busy time (dedicated tags) so
/// rank 0 can gauge `sim.sypd`, `sim.imbalance` and `sim.step_wall_s`.
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// Sampling cadence of the background sampler thread.
    pub cadence: std::time::Duration,
    /// Bind an OpenMetrics scrape endpoint here (e.g. `127.0.0.1:9464`;
    /// port 0 binds an ephemeral port — see
    /// [`CoupledStats::metrics_addr`]). `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Seed the engine with the built-in simulation rules ([SYPD collapse,
    /// imbalance drift, Degraded streak](ap3esm_obs::sim_rules)).
    pub builtin_rules: bool,
    /// Extra alert rules in the `ap3esm_obs::alert` grammar, one per line
    /// (appended after the built-ins; bad rules panic at startup).
    pub rules: String,
    /// Write the full series store to `target/obs/series-<name>.json`
    /// after the run (requires `report_name`; ignored without it).
    pub snapshot: bool,
    /// Raw-tier ring capacity per series, in samples. At the default
    /// cadence the default capacity retains minutes of raw history (the
    /// 10x/100x tiers extend it); size up for high-frequency sampling so
    /// pre-incident baseline survives for offline replay.
    pub capacity: usize,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions {
            cadence: std::time::Duration::from_millis(250),
            metrics_addr: None,
            builtin_rules: true,
            rules: String::new(),
            snapshot: true,
            capacity: ap3esm_obs::tsdb::DEFAULT_CAPACITY,
        }
    }
}

/// Per-run results (rank 0 carries the series; ocean ranks carry timing).
#[derive(Debug, Clone, Default)]
pub struct CoupledStats {
    pub simulated_seconds: f64,
    pub wall_seconds: f64,
    /// Measured SYPD of this (laptop-scale) run.
    pub sypd: f64,
    /// Global mean SST (°C) at each ocean coupling.
    pub sst_series: Vec<f64>,
    /// Atmosphere global mass-weighted mean θ (K) at each atm coupling.
    pub theta_series: Vec<f64>,
    /// Global ocean kinetic energy at each ocean coupling.
    pub ke_series: Vec<f64>,
    /// Tracked vortex positions (if requested).
    pub track: Vec<TrackPoint>,
    /// Mean ice cover at each ice coupling.
    pub ice_series: Vec<f64>,
    /// Coupler bytes moved (from the world's stats, measured by rank 0).
    pub per_section_seconds: Vec<(String, f64)>,
    /// The serialised run report (rank 0, when `report_name` was set).
    pub report_json: Option<String>,
    /// Where the report was written (rank 0, when `report_name` was set).
    pub report_path: Option<std::path::PathBuf>,
    /// Where the chrome-trace file was written (rank 0, when tracing).
    pub trace_path: Option<std::path::PathBuf>,
    /// Critical-path analysis of the traced run: per-interval path,
    /// wait-state classification and what-if projection (rank 0, when
    /// tracing with a report name).
    pub critpath: Option<ap3esm_obs::critpath::Analysis>,
    /// Where the collapsed-stack file was written (rank 0, when tracing).
    pub folded_path: Option<std::path::PathBuf>,
    /// Rollbacks performed by the recovery layer.
    pub recoveries: usize,
    /// Shrink-to-fit recoveries: how many times the world lost a rank
    /// permanently and rebuilt itself one generation up.
    pub shrinks: usize,
    /// Ranks permanently lost (launched world size minus final membership),
    /// nonzero only when the run finished in degraded mode.
    pub degraded_ranks: usize,
    /// True on a rank that was fault-injected dead mid-run: it stopped
    /// participating and its stats end at the point of death.
    pub lost: bool,
    /// Human-readable fault events (injected faults, comm errors, guard
    /// verdicts that triggered rollbacks), in firing order.
    pub fault_events: Vec<String>,
    /// Set when the run ended in a clean structured failure (recovery
    /// budget exhausted or no usable checkpoint) instead of completing.
    pub failure: Option<String>,
    /// Alert firings observed by the telemetry engine, in firing order
    /// (rank 0, when telemetry was enabled).
    pub alerts: Vec<String>,
    /// Where the time-series snapshot was written (rank 0, when telemetry
    /// with `snapshot` and a `report_name` were set).
    pub series_path: Option<std::path::PathBuf>,
    /// The OpenMetrics endpoint actually bound — resolves port 0 to the
    /// ephemeral port (rank 0, when telemetry set `metrics_addr`).
    pub metrics_addr: Option<String>,
    /// Where the flight-recorder diagnostics bundle was written (rank 0,
    /// when the recorder was on and the run ended in trouble).
    pub bundle_path: Option<std::path::PathBuf>,
}

impl CoupledStats {
    /// Harvest this run's trajectory metrics (the `perf.sim.*` vocabulary
    /// shared by `BENCH_*.json` files, run reports and tsdb gauges):
    /// SYPD (gated, higher-is-better), the per-section wall breakdown
    /// from the span tree, and — when a report was written — the
    /// coupler's message/byte traffic and sub-file I/O byte counters
    /// (informational: they attribute cost, they don't gate).
    pub fn perf_metrics(&self) -> Vec<(String, ap3esm_obs::perf::Stat)> {
        use ap3esm_obs::perf::{Direction, Stat};
        let mut out = vec![
            (
                "perf.sim.sypd".to_string(),
                Stat::single(self.sypd, "sypd", Direction::HigherIsBetter),
            ),
            (
                "perf.sim.wall_s".to_string(),
                Stat::single(self.wall_seconds, "s", Direction::Informational),
            ),
        ];
        for (name, secs) in &self.per_section_seconds {
            out.push((
                format!("perf.sim.section.{name}.wall_s"),
                Stat::single(*secs, "s", Direction::Informational),
            ));
        }
        // Critical-path attribution (traced runs): where the wall time on
        // the longest cross-rank chain actually went, plus the projected
        // payoff of halving the top-blamed section. Informational — the
        // fractions are attribution, not speed, and jitter run to run.
        if let Some(a) = &self.critpath {
            for (name, v) in [
                ("compute_frac", a.compute_frac()),
                ("comm_frac", a.comm_frac()),
                ("wait_frac", a.wait_frac()),
            ] {
                out.push((
                    format!("perf.sim.critpath.{name}"),
                    Stat::single(v, "frac", Direction::Informational),
                ));
            }
            for s in &a.sections {
                if s.name == ap3esm_obs::critpath::UNTRACKED {
                    continue;
                }
                out.push((
                    format!("perf.sim.critpath.section.{}.on_path_s", s.name),
                    Stat::single(s.on_path_us() as f64 / 1e6, "s", Direction::Informational),
                ));
            }
            if let Some(w) = &a.what_if_half_top {
                out.push((
                    "perf.sim.critpath.what_if_half_top_gain_pct".to_string(),
                    Stat::single(w.gain_pct, "%", Direction::Informational),
                ));
            }
        }
        if let Some(json) = &self.report_json {
            if let Ok(report) = ap3esm_obs::json::Json::parse(json) {
                for (group, field, metric, unit) in [
                    ("comm", "total_bytes", "perf.sim.comm_bytes", "bytes"),
                    ("comm", "total_messages", "perf.sim.comm_msgs", "msgs"),
                    (
                        "metrics",
                        "io.write.bytes",
                        "perf.sim.io_write_bytes",
                        "bytes",
                    ),
                ] {
                    let value = report.get(group).and_then(|g| g.get(field));
                    if let Some(v) = value.and_then(|v| v.as_f64()) {
                        out.push((
                            metric.to_string(),
                            Stat::single(v, unit, Direction::Informational),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Fit the ocean stepping so an integer number of steps covers the coupling
/// period (the atmosphere uses [`DycoreConfig::fitted_to_period`]).
fn fitted_ocn_config(config: &CoupledConfig, period: f64) -> OcnConfig {
    let mut c = OcnConfig::for_grid(
        config.ocn_nlon,
        config.ocn_nlat,
        config.ocn_nlev,
        config.ocn_px,
        config.ocn_py,
    );
    let n = (period / c.dt_baroclinic).ceil().max(1.0);
    c.dt_baroclinic = period / n;
    c
}

/// The ocean block decomposition of one world generation: the configured
/// mesh at generation 0, a shrink-to-fit re-decomposition over whatever
/// ocean ranks survive afterwards.
fn generation_ocn_decomp(config: &CoupledConfig, rank: &Rank) -> BlockDecomp2d {
    if rank.generation() == 0 {
        BlockDecomp2d::new(
            config.ocn_nlon,
            config.ocn_nlat,
            config.ocn_px,
            config.ocn_py,
        )
    } else {
        BlockDecomp2d::auto(config.ocn_nlon, config.ocn_nlat, rank.size() - 1)
    }
}

/// Per-rank runtime of the recovery layer.
struct Resilience {
    store: CheckpointStore,
    cfg: RecoveryConfig,
    recoveries: usize,
    /// Corruption events already applied (one-shot: a checkpoint rewritten
    /// after a rollback is not re-corrupted, or recovery could never
    /// converge).
    applied_corruptions: std::collections::HashSet<(u64, String, u32, u64)>,
}

impl Resilience {
    fn new(dir: &std::path::Path, cfg: &RecoveryConfig) -> Self {
        Resilience {
            store: CheckpointStore::new(dir, cfg.keep_checkpoints),
            cfg: cfg.clone(),
            recoveries: 0,
            applied_corruptions: std::collections::HashSet::new(),
        }
    }
}

/// Write one auxiliary (non-restart-layer) checkpoint field.
fn write_aux(dir: &std::path::Path, name: &str, data: &[f64]) -> Result<(), IoError> {
    SubfileWriter::new(dir, name, &[data.len()], CKPT_SUBFILES).write_all(data)
}

/// Read one auxiliary checkpoint field, validating its length.
fn read_aux(dir: &std::path::Path, name: &str, want: usize) -> Result<Vec<f64>, IoError> {
    let (_, data) = SubfileReader::new(dir, name).read_all()?;
    if data.len() != want {
        return Err(IoError::Inconsistent(format!(
            "{name}: {} elements, expected {want}",
            data.len()
        )));
    }
    Ok(data)
}

/// Rank 0 announces the newest committed checkpoint a rollback restores
/// (`-1` = none left); every rank returns the agreed id.
fn agree_candidate(rank: &Rank, store: &CheckpointStore) -> i64 {
    let newest = (rank.id() == 0).then(|| store.latest()).flatten();
    let mine = newest.map_or(-1, |i| i as i64);
    collectives::bcast(rank, CKPT_ID_TAG, 0, vec![mine]).expect("checkpoint id")[0]
}

/// The per-ocean-coupling health agreement (severity max-reduce), with a
/// window widened to 4x the world's receive timeout on every leg: a
/// healthy peer can legitimately arrive a couple of timed-out data legs
/// late (each stall is bounded by one receive timeout), and the sync
/// point must out-wait that skew or a slow-but-alive rank would be
/// misdeclared dead. Root keeps polling the remaining peers after a
/// timeout so the *first* failure — the real casualty — carries the blame.
fn agree_severity(rank: &Rank, sev: f64) -> Result<f64, ap3esm_comm::CommError> {
    let n = rank.size();
    if n == 1 {
        return Ok(sev);
    }
    let window = rank.recv_timeout() * 4;
    if rank.id() == 0 {
        let mut max = sev;
        let mut first_err = None;
        for src in 1..n {
            match rank.recv_within::<f64>(src, HEALTH_TAG, window) {
                Ok(v) => max = max.max(v[0]),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        for dst in 1..n {
            rank.send(dst, HEALTH_REPLY_TAG, vec![max]);
        }
        Ok(max)
    } else {
        rank.send(0, HEALTH_TAG, vec![sev]);
        Ok(rank.recv_within::<f64>(0, HEALTH_REPLY_TAG, window)?[0])
    }
}

/// Record on the world-shared flight recorder, if one is installed in the
/// world's blackbox slot. Journals are keyed by *physical* rank id, so
/// entries stay attributable across shrinks. One relaxed load plus a
/// `OnceLock` read when no recorder is installed.
fn fr_record(rank: &Rank, kind: ap3esm_obs::FrKind, a: u64, b: u64, detail: &str) {
    if let Some(slot) = rank.blackbox().get() {
        if let Some(rec) = slot.downcast_ref::<ap3esm_obs::FlightRecorder>() {
            rec.record(rank.world_id(), kind, a, b, detail);
        }
    }
}

/// What the membership escalation decided after a failed health agreement.
enum SurvivorOutcome {
    /// Everyone answered the liveness poll: the failure was transient
    /// (dropped/late messages). The caller proceeds with a normal rollback.
    Transient,
    /// The world shrank: a successor membership one generation up is
    /// installed and the caller must rebuild its layout from the
    /// redistributed checkpoint hand-off.
    Shrunk,
    /// This rank is out of the run: evicted by the survivors, or the
    /// shrink budget is exhausted. Carries the structured failure text.
    Failed(String),
}

/// Escalate a failed health agreement to a membership vote (DESIGN.md
/// §13): blame the peer the timeout names, let virtual rank 0 poll
/// liveness, and install the survivors' successor view if someone is
/// permanently gone. Deterministic on every survivor: they all observe
/// the same verdict sequence, so local shrink counters stay in agreement
/// without extra communication.
fn agree_survivors(
    rank: &Rank,
    err: &ap3esm_comm::CommError,
    stats: &mut CoupledStats,
    shrinks: &mut usize,
    max_shrinks: usize,
) -> SurvivorOutcome {
    let blamed = match err {
        ap3esm_comm::CommError::Deadlock { waiting, .. } => waiting.first().map(|&(src, _)| src),
        _ => None,
    };
    stats
        .fault_events
        .push(format!("health agreement failed: {err}"));
    ap3esm_obs::instant("health.agreement_lost");
    fr_record(
        rank,
        FrKind::Health,
        2,
        blamed.map(|b| b as u64).unwrap_or(u64::MAX),
        &format!("health agreement failed: {err}"),
    );
    match rank.membership_vote(blamed) {
        Ok(ap3esm_comm::MembershipVerdict::AllAlive) => SurvivorOutcome::Transient,
        Ok(ap3esm_comm::MembershipVerdict::Shrink(m)) => {
            *shrinks += 1;
            stats.shrinks = *shrinks;
            let dropped = rank.drain_stale();
            let total: usize = dropped.iter().map(|&(_, n)| n).sum();
            if total > 0 {
                ap3esm_obs::counter_add("resilience.drained_messages", total as u64);
                stats.fault_events.push(format!(
                    "stale traffic discarded post-shrink: {}",
                    dropped
                        .iter()
                        .map(|&(src, n)| format!("{n} from rank {src}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            stats.fault_events.push(format!(
                "membership shrunk to {:?} (generation {})",
                m.members, m.generation
            ));
            fr_record(
                rank,
                FrKind::Shrink,
                m.generation,
                m.members.len() as u64,
                &format!("survivors {:?}", m.members),
            );
            if *shrinks > max_shrinks {
                return SurvivorOutcome::Failed(format!(
                    "shrink budget exhausted: {} permanent rank losses exceed max_shrinks {}",
                    *shrinks, max_shrinks
                ));
            }
            SurvivorOutcome::Shrunk
        }
        Err(e) => SurvivorOutcome::Failed(format!(
            "evicted from the world during membership agreement: {e}"
        )),
    }
}

/// Shrink-to-fit hand-off, after the membership vote installed the
/// survivors' world: rank 0 redistributes the last committed checkpoint
/// from `decomp` onto the survivor layout and announces its id (-1 =
/// nothing usable). Every survivor returns the hand-off directory to
/// rebuild the next generation from, or `None` if there is none.
fn hand_off_checkpoint(
    rank: &Rank,
    store: &CheckpointStore,
    grid: &TripolarGrid,
    decomp: &BlockDecomp2d,
) -> Option<std::path::PathBuf> {
    let dst = store.root().join(format!("shrunk_g{}", rank.generation()));
    let mut sig = -1i64;
    if let Some(cand) = (rank.id() == 0).then(|| store.latest()).flatten() {
        let survivors = BlockDecomp2d::auto(decomp.nlon, decomp.nlat, rank.size() - 1);
        let _ = std::fs::remove_dir_all(&dst);
        match crate::restart::redistribute_ocn_restart(
            &store.dir(cand),
            &dst,
            grid,
            decomp,
            &survivors,
        ) {
            Ok(()) => sig = cand as i64,
            Err(e) => eprintln!("[resilience] checkpoint redistribution failed: {e}"),
        }
    }
    let cand = collectives::bcast(rank, CKPT_ID_TAG, 0, vec![sig]).ok()?[0];
    if cand < 0 {
        return None;
    }
    if rank.id() == 0 {
        let degraded = rank.world_size() - rank.size();
        ap3esm_obs::instant("recovery.shrink");
        ap3esm_obs::counter_add("resilience.shrinks", 1);
        ap3esm_obs::gauge_set("sim.degraded_ranks", degraded as f64);
        eprintln!(
            "[resilience] shrink-to-fit: continuing degraded on {} of {} ranks from checkpoint {cand}",
            rank.size(),
            rank.world_size()
        );
    }
    Some(dst)
}

/// Count a guard verdict on the obs registry; returns the verdict back.
fn observe_verdict(verdict: HealthVerdict, rank_id: usize) -> HealthVerdict {
    match &verdict {
        HealthVerdict::Healthy => {}
        HealthVerdict::Degraded(m) => {
            ap3esm_obs::counter_add("resilience.guard_degraded", 1);
            ap3esm_obs::instant("health.degraded");
            eprintln!("[resilience] rank {rank_id} degraded: {m}");
        }
        HealthVerdict::Fatal(m) => {
            ap3esm_obs::counter_add("resilience.guard_fatal", 1);
            ap3esm_obs::instant("health.fatal");
            eprintln!("[resilience] rank {rank_id} fatal: {m}");
        }
    }
    verdict
}

/// Enter a rollback: count it against the budget and synchronise + drain
/// every mailbox so replayed message streams start from clean FIFO queues.
/// Returns the structured failure if the budget is exhausted.
fn begin_rollback(rank: &Rank, resil: &mut Resilience, reason: &str) -> Option<RecoveryFailure> {
    resil.recoveries += 1;
    ap3esm_obs::counter_add("resilience.rollbacks", 1);
    ap3esm_obs::instant("rollback");
    fr_record(rank, FrKind::Recovery, resil.recoveries as u64, 0, reason);
    if resil.recoveries > resil.cfg.max_recoveries {
        return Some(RecoveryFailure {
            recoveries_attempted: resil.recoveries - 1,
            reason: reason.to_string(),
        });
    }
    rank.barrier();
    let drained = rank.drain_mailbox();
    if drained > 0 {
        ap3esm_obs::counter_add("resilience.drained_messages", drained as u64);
    }
    rank.barrier();
    None
}

/// Commit a freshly written checkpoint (rank 0 only) and apply any
/// checkpoint-corruption fault events targeting it.
fn commit_checkpoint(rank: &Rank, resil: &mut Resilience, id: u64) {
    with_retry(
        "checkpoint commit",
        resil.cfg.retries,
        resil.cfg.backoff,
        || resil.store.commit(id),
    )
    .expect("checkpoint commit");
    ap3esm_obs::counter_add("resilience.checkpoints", 1);
    ap3esm_obs::instant("checkpoint.commit");
    fr_record(rank, FrKind::CkptCommit, id, 0, "");
    if let Some(inj) = rank.fault_injector() {
        let corruptions: Vec<(String, u32, u64)> = inj
            .plan()
            .corruptions_for(id)
            .into_iter()
            .map(|(f, s, b)| (f.to_string(), s, b))
            .collect();
        for (field, sub, byte) in corruptions {
            let key = (id, field.clone(), sub, byte);
            if !resil.applied_corruptions.insert(key) {
                continue;
            }
            if resil
                .store
                .corrupt_subfile_byte(id, &field, sub, byte)
                .unwrap_or(false)
            {
                inj.record_external(format!(
                    "corrupted checkpoint {id} field {field} subfile {sub} byte {byte}"
                ));
                ap3esm_obs::counter_add("resilience.faults", 1);
                ap3esm_obs::instant("fault.corrupt");
            }
        }
    }
}

/// The coupler side of one world generation, held by rank 0: the
/// atmosphere (state, dycore, physics coupler), land, sea ice, the remap
/// matrices, and the rank-0 global copies of the ocean/ice surface state
/// the flux merge reads.
struct CouplerSide {
    grid: std::sync::Arc<GeodesicGrid>,
    atm: AtmState,
    dycore: Dycore,
    pdc: PhysicsDynamicsCoupler,
    guard: AtmGuard,
    atm_land: Vec<bool>,
    lnd: LndModel,
    ice: IceModel,
    atm_to_ocn: RemapMatrix,
    ocn_to_atm: RemapMatrix,
    ocn_valid: Vec<bool>,
    sst: Vec<f64>,
    ssu: Vec<f64>,
    ssv: Vec<f64>,
    ice_frac: Vec<f64>,
    ice_heat: Vec<f64>,
    ice_fresh: Vec<f64>,
    last_precip_accum: Vec<f64>,
    prev_track: Option<(f64, f64)>,
}

impl CouplerSide {
    fn new(
        config: &CoupledConfig,
        opts: &CoupledOptions,
        ocn_grid: &TripolarGrid,
        mask: &MaskGenerator,
        atm_period: f64,
    ) -> Self {
        let grid = std::sync::Arc::new(GeodesicGrid::new(config.atm_glevel));
        let n = grid.ncells();
        let mut atm = AtmState::isothermal(std::sync::Arc::clone(&grid), config.atm_nlev, 288.0);
        // Meridional temperature structure so the circulation is not
        // degenerate: warm tropics, cold poles.
        for k in 0..config.atm_nlev {
            for i in 0..n {
                atm.theta[k * n + i] += 15.0 * (grid.cells[i].lat().cos().powi(2) - 0.5);
            }
        }
        for spec in opts.vortex.iter().chain(&opts.extra_vortices) {
            seed_vortex(&mut atm, spec);
        }
        if let Some(p) = &opts.perturb {
            for (i, th) in atm.theta.iter_mut().enumerate() {
                *th += p.noise(i);
            }
        }
        let dycore = Dycore::new(
            std::sync::Arc::clone(&grid),
            DycoreConfig::fitted_to_period(grid.mean_spacing_km(), atm_period),
        );
        let pdc = PhysicsDynamicsCoupler::new(if config.ai_physics {
            build_ai_driver(config.atm_nlev)
        } else {
            PhysicsDriver::Conventional(ConventionalSuite::default())
        });
        // Land on atmosphere cells, same synthetic continents; ice on the
        // full ocean grid.
        let (atm_land, _) = mask.land_mask(&grid.cells, 0.29);
        let ice_decomp = BlockDecomp2d::new(config.ocn_nlon, config.ocn_nlat, 1, 1);
        let ice = IceModel::new(ocn_grid, &ice_decomp, 0);
        let ocn_points: Vec<Vec3> = (0..config.ocn_nlat)
            .flat_map(|j| {
                (0..config.ocn_nlon)
                    .map(move |i| Vec3::from_lat_lon(ocn_grid.lat[j], ocn_grid.lon[i]))
            })
            .collect();
        let ncols = ocn_grid.ncols();
        let sst = (0..ncols)
            .map(|c| {
                let phi = ocn_grid.lat[c / config.ocn_nlon];
                let base = 2.0 + 26.0 * phi.cos().powi(2);
                match &opts.sst_pattern {
                    Some(p) => base + p.anomaly(phi, ocn_grid.lon[c % config.ocn_nlon]),
                    None => base,
                }
            })
            .collect();
        CouplerSide {
            guard: AtmGuard::new(&atm, GuardConfig::default(), dycore.config.dt_dyn),
            lnd: LndModel::new(atm_land.clone(), 285.0),
            atm_to_ocn: RemapMatrix::inverse_distance(&grid.cells, &ocn_points, 3),
            ocn_to_atm: RemapMatrix::inverse_distance(&ocn_points, &grid.cells, 3),
            ocn_valid: (0..ncols).map(|c| ocn_grid.kmt[c] > 0).collect(),
            sst,
            ssu: vec![0.0; ncols],
            ssv: vec![0.0; ncols],
            ice_frac: ice.state.fraction.clone(),
            ice_heat: vec![0.0; ncols],
            ice_fresh: vec![0.0; ncols],
            last_precip_accum: vec![0.0; n],
            prev_track: None,
            grid,
            atm,
            dycore,
            pdc,
            atm_land,
            ice,
        }
    }

    /// One atmosphere coupling period (physics applied at every model
    /// step), then the land step on the atmosphere's surface fields.
    fn run_atm(
        &mut self,
        clock: &CouplingClock,
        period: f64,
        opts: &CoupledOptions,
        timers: &mut Timers,
        stats: &mut CoupledStats,
    ) {
        timers.start("atm_run");
        let day_of_year = 202.0 + clock.days(); // late July (Doksuri)
        let seconds_utc = (clock.time % 86_400) as f64;
        let n = self.grid.ncells();
        let atm = &mut self.atm;
        // Surface forcing seen by the atmosphere physics.
        let sst_on_atm = self
            .ocn_to_atm
            .apply_masked(&self.sst, &self.ocn_valid, 15.0);
        let ice_on_atm = self.ocn_to_atm.apply(&self.ice_frac);
        let wet = self.lnd.wetness();
        let mut forcing = SurfaceForcing::uniform(n, 288.0, 0.0, 1.0);
        for i in 0..n {
            let (phi, lam) = (self.grid.cells[i].lat(), self.grid.cells[i].lon());
            forcing.coszr[i] = crate::solar::cos_zenith(phi, lam, day_of_year, seconds_utc);
            if self.atm_land[i] {
                forcing.tskin[i] = self.lnd.state.tskin[i];
                forcing.wetness[i] = wet[i];
            } else {
                forcing.tskin[i] = blended_surface_temperature(sst_on_atm[i], -5.0, ice_on_atm[i]);
                forcing.wetness[i] = 1.0;
            }
        }
        let steps = (period / self.dycore.config.dt_model).round() as usize;
        for _ in 0..steps.max(1) {
            self.dycore.step_model_dynamics(atm);
            self.pdc.apply(atm, &forcing, self.dycore.config.dt_model);
        }
        stats.theta_series.push(atm.mean_theta());
        if opts.record_track && opts.vortex.is_some() {
            let p = track_vortex(atm, self.prev_track, 1_500_000.0);
            self.prev_track = Some((p.lat_deg, p.lon_deg));
            stats.track.push(p);
        }
        timers.stop("atm_run");

        // The land step is its own top-level section, so the critical-path
        // analyzer and the per-section trajectory see the land model's
        // share separately from the dycore's.
        timers.start("lnd_run");
        let winds = atm.surface_wind();
        let precip: Vec<f64> = atm
            .precip_accum
            .iter()
            .zip(&self.last_precip_accum)
            .map(|(now, before)| (now - before).max(0.0) / period)
            .collect();
        self.last_precip_accum.copy_from_slice(&atm.precip_accum);
        let lnd_forcing = LndForcing {
            gsw: atm.gsw.clone(),
            glw: atm.glw.clone(),
            tair: (0..n)
                .map(|i| temperature_from_theta(atm.theta[i], atm.sigma[0] * atm.ps[i]))
                .collect(),
            precip,
            wind: winds.iter().map(|&(u, v)| (u * u + v * v).sqrt()).collect(),
        };
        self.lnd.step(&lnd_forcing, period);
        timers.stop("lnd_run");
    }

    /// One sea-ice coupling period, forced by atmosphere fields remapped to
    /// the ocean grid.
    fn run_ice(&mut self, period: f64, timers: &mut Timers, stats: &mut CoupledStats) {
        timers.start("ice_run");
        let atm = &self.atm;
        let winds = atm.surface_wind();
        let tair_c: Vec<f64> = (0..self.grid.ncells())
            .map(|i| temperature_from_theta(atm.theta[i], atm.sigma[0] * atm.ps[i]) - 273.15)
            .collect();
        let u_atm: Vec<f64> = winds.iter().map(|&(u, _)| u).collect();
        let v_atm: Vec<f64> = winds.iter().map(|&(_, v)| v).collect();
        let ice_forcing = IceForcing {
            tair: self.atm_to_ocn.apply(&tair_c),
            sst: self.sst.clone(),
            flux_down: vec![0.0; self.sst.len()],
            uwind: self.atm_to_ocn.apply(&u_atm),
            vwind: self.atm_to_ocn.apply(&v_atm),
            uocn: self.ssu.clone(),
            vocn: self.ssv.clone(),
        };
        let export = self.ice.step(&ice_forcing, period);
        self.ice_frac = export.fraction;
        self.ice_heat = export.heat;
        self.ice_fresh = export.fresh;
        stats.ice_series.push(self.ice.ice_cover());
        timers.stop("ice_run");
    }

    /// Atmosphere-side bulk fluxes on atm cells, remapped onto the ocean
    /// grid and merged with the ice exports: the four forcing fields
    /// (taux, tauy, qnet, salt flux) scattered to the ocean side.
    fn merge_fluxes(&self) -> [Vec<f64>; 4] {
        const OCN_ALBEDO: f64 = 0.07;
        const EMISSIVITY: f64 = 0.97;
        let atm = &self.atm;
        let n = self.grid.ncells();
        let bulk = BulkCoefficients::default();
        let winds = atm.surface_wind();
        let sst_on_atm = self
            .ocn_to_atm
            .apply_masked(&self.sst, &self.ocn_valid, 15.0);
        let (mut taux, mut tauy) = (vec![0.0; n], vec![0.0; n]);
        let mut qnet = vec![0.0; n];
        let mut emp = vec![0.0; n]; // evaporation − precipitation (m/s)
        for i in 0..n {
            let (u, v) = winds[i];
            let ta = temperature_from_theta(atm.theta[i], atm.sigma[0] * atm.ps[i]);
            let ts_k = sst_on_atm[i] + 273.15;
            let fx = bulk_fluxes(&bulk, u, v, ta, atm.q[i], atm.ps[i], ts_k, 1.0);
            taux[i] = fx.taux;
            tauy[i] = fx.tauy;
            qnet[i] = atm.gsw[i] * (1.0 - OCN_ALBEDO)
                + EMISSIVITY * (atm.glw[i] - STEFAN_BOLTZMANN * ts_k.powi(4))
                - fx.sensible
                - fx.latent;
            emp[i] = fx.evaporation / 1000.0; // kg/m²/s → m/s
        }
        let [taux_o, tauy_o, qnet_o, emp_o] =
            [taux, tauy, qnet, emp].map(|f| self.atm_to_ocn.apply(&f));
        let mut out: [Vec<f64>; 4] = Default::default();
        for c in 0..self.sst.len() {
            let merged = merge_ocean_forcing(
                taux_o[c],
                tauy_o[c],
                qnet_o[c],
                emp_o[c],
                self.ice_frac[c],
                self.ice_heat[c],
                self.ice_fresh[c],
            );
            out[0].push(merged.taux);
            out[1].push(merged.tauy);
            out[2].push(merged.qnet);
            out[3].push(merged.salt_flux);
        }
        out
    }

    /// Unweighted global mean SST (°C) over wet columns.
    fn mean_sst(&self) -> f64 {
        let wet = self.sst.iter().zip(&self.ocn_valid).filter(|(_, &w)| w);
        let (sum, cnt) = wet.fold((0.0f64, 0.0f64), |(s, n), (t, _)| (s + t, n + 1.0));
        sum / cnt.max(1.0)
    }

    fn check(&self) -> HealthVerdict {
        self.guard.check(&self.atm)
    }

    /// The non-restart-layer checkpoint fields, in write order (one table
    /// for both directions, hence `&mut`).
    fn aux_fields(&mut self) -> [(&'static str, &mut Vec<f64>); 12] {
        [
            ("lnd_tskin", &mut self.lnd.state.tskin),
            ("lnd_moist", &mut self.lnd.state.moisture),
            ("ice_frac", &mut self.ice.state.fraction),
            ("ice_thick", &mut self.ice.state.thickness),
            ("ice_tsfc", &mut self.ice.state.tsfc),
            ("cpl_sst", &mut self.sst),
            ("cpl_ssu", &mut self.ssu),
            ("cpl_ssv", &mut self.ssv),
            ("cpl_icefrac", &mut self.ice_frac),
            ("cpl_iceheat", &mut self.ice_heat),
            ("cpl_icefresh", &mut self.ice_fresh),
            ("cpl_precip", &mut self.last_precip_accum),
        ]
    }

    /// Write this side's state plus the run's `cpl_meta` record: clock
    /// time, the diagnostic series lengths and the tracker's continuity
    /// point.
    fn write_checkpoint(
        &mut self,
        dir: &std::path::Path,
        time: i64,
        stats: &CoupledStats,
    ) -> Result<(), IoError> {
        crate::restart::write_atm_restart(dir, &self.atm)?;
        for (name, data) in self.aux_fields() {
            write_aux(dir, name, data)?;
        }
        let track = self.prev_track;
        let meta = [
            time as f64,
            stats.theta_series.len() as f64,
            stats.sst_series.len() as f64,
            stats.ke_series.len() as f64,
            stats.ice_series.len() as f64,
            stats.track.len() as f64,
            if track.is_some() { 1.0 } else { 0.0 },
            track.map_or(0.0, |(la, _)| la),
            track.map_or(0.0, |(_, lo)| lo),
        ];
        write_aux(dir, "cpl_meta", &meta)
    }

    fn restore(&mut self, dir: &std::path::Path) -> Result<(), IoError> {
        crate::restart::read_atm_restart(dir, &mut self.atm)?;
        for (name, data) in self.aux_fields() {
            *data = read_aux(dir, name, data.len())?;
        }
        Ok(())
    }
}

/// The ocean side of one world generation, held by every rank that owns
/// ocean columns: rank 0 in the sequential layout, ranks 1.. otherwise.
struct OceanSide {
    ocn: OcnModel,
    forcing: OcnForcing,
    guard: OcnGuard,
    /// This rank's index among the ocean ranks (its restart slab).
    slab: usize,
    /// Baroclinic steps per ocean coupling.
    steps: usize,
}

impl OceanSide {
    /// `first` is the world rank of ocean rank 0; the decomposition is this
    /// generation's (the configured mesh, or the shrink-to-fit re-fit).
    fn new(
        config: &CoupledConfig,
        grid: &TripolarGrid,
        decomp: &BlockDecomp2d,
        period: f64,
        first: usize,
        me: usize,
    ) -> Self {
        let mut c = fitted_ocn_config(config, period);
        (c.px, c.py, c.rank_offset) = (decomp.px, decomp.py, first);
        let ocn = OcnModel::new(grid, c.clone(), me - first);
        OceanSide {
            forcing: OcnForcing::zeros(ocn.state.ni, ocn.state.nj),
            guard: OcnGuard::new(
                &ocn.state,
                GuardConfig::default(),
                c.dt_baroclinic / c.n_barotropic.max(1) as f64,
            ),
            slab: me - first,
            steps: ((period / c.dt_baroclinic).round() as usize).max(1),
            ocn,
        }
    }

    /// Advance one coupling period under the four scattered forcing fields.
    fn step(&mut self, rank: &Rank, fields: &[Vec<f64>]) -> Result<(), ap3esm_comm::CommError> {
        self.forcing.taux.copy_from_slice(&fields[0]);
        self.forcing.tauy.copy_from_slice(&fields[1]);
        self.forcing.qnet.copy_from_slice(&fields[2]);
        self.forcing.salt_flux.copy_from_slice(&fields[3]);
        for _ in 0..self.steps {
            self.ocn.try_step(rank, &self.forcing)?;
        }
        Ok(())
    }

    /// Surface exports (SST, surface currents) in local row-major interior
    /// order, which is ascending global ids for a block.
    fn exports(&self) -> [Vec<f64>; 3] {
        let st = &self.ocn.state;
        let mut out: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(st.ni * st.nj));
        for j in 0..st.nj {
            for i in 0..st.ni {
                let idx = st.at(i, j);
                out[0].push(st.t[0][idx]);
                out[1].push(st.u[0][idx] + st.ubar[idx]);
                out[2].push(st.v[0][idx] + st.vbar[idx]);
            }
        }
        out
    }

    fn check(&self) -> HealthVerdict {
        self.guard.check(&self.ocn.state)
    }

    fn write_checkpoint(&self, dir: &std::path::Path) -> Result<(), IoError> {
        crate::restart::write_ocn_restart(dir, &self.ocn.state, self.slab)
    }

    fn restore(&mut self, dir: &std::path::Path) -> Result<(), IoError> {
        crate::restart::read_ocn_restart(dir, &mut self.ocn.state, self.slab)
    }
}

/// Restore every side this rank holds from `dir`, then vote: `Ok(true)`
/// only if every rank loaded cleanly, in which case the checkpoint's
/// `cpl_meta` is applied — the clock rewinds, the diagnostic series are
/// truncated to the checkpoint's lengths (replayed couplings re-push
/// them) and the tracker's continuity point returns. A comm error means
/// the vote itself could not complete (a peer vanished mid-restore).
fn restore_agreed(
    rank: &Rank,
    dir: &std::path::Path,
    cpl: &mut Option<CouplerSide>,
    ocean: &mut Option<OceanSide>,
    clock: &mut CouplingClock,
    stats: &mut CoupledStats,
) -> Result<bool, ap3esm_comm::CommError> {
    let loaded = (|| {
        if let Some(c) = cpl.as_mut() {
            c.restore(dir)?;
        }
        if let Some(o) = ocean.as_mut() {
            o.restore(dir)?;
        }
        read_aux(dir, "cpl_meta", 9)
    })();
    if let Err(e) = &loaded {
        eprintln!(
            "[resilience] rank {}: {} unusable: {e}",
            rank.id(),
            dir.display()
        );
    }
    let ok = if loaded.is_ok() { 1.0 } else { 0.0 };
    let all = collectives::allreduce(rank, CKPT_OK_TAG, vec![ok], |a: &f64, b| a.min(*b))?;
    let meta = match loaded {
        Ok(meta) if all[0] >= 1.0 => meta,
        _ => return Ok(false),
    };
    clock.time = meta[0] as i64;
    stats.theta_series.truncate(meta[1] as usize);
    stats.sst_series.truncate(meta[2] as usize);
    stats.ke_series.truncate(meta[3] as usize);
    stats.ice_series.truncate(meta[4] as usize);
    stats.track.truncate(meta[5] as usize);
    if let Some(c) = cpl {
        c.prev_track = (meta[6] > 0.5).then_some((meta[7], meta[8]));
    }
    Ok(true)
}

/// Keep the first comm error of an ocean coupling as its fault.
fn note_fault(fault: &mut Option<String>, e: ap3esm_comm::CommError) {
    fault.get_or_insert_with(|| e.to_string());
}

/// Run the coupled model; every world rank calls this inside `World::run`.
pub fn run_coupled(rank: &Rank, config: &CoupledConfig, opts: &CoupledOptions) -> CoupledStats {
    if let Err(e) = config.validate() {
        panic!("invalid configuration: {e}");
    }
    assert_eq!(rank.size(), config.world_size(), "world size mismatch");
    // Physical rank 0 chairs the membership vote, so a shrink can never
    // evict it: root-ness is stable across generations even though
    // `rank.id()`/`rank.size()` are per-view.
    let is_root = rank.id() == 0;

    let mask = MaskGenerator {
        seed: config.mask_seed,
        ..MaskGenerator::default()
    };
    let ocn_grid = TripolarGrid::new(config.ocn_nlon, config.ocn_nlat, config.ocn_nlev, mask);
    let ncols = ocn_grid.ncols();

    let mut clock = CouplingClock::new(
        config.couplings_per_day.0,
        config.couplings_per_day.1,
        config.couplings_per_day.2,
    );
    let atm_period = clock.atm_alarm.period as f64;
    let ocn_period = clock.ocn_alarm.period as f64;
    let ice_period = clock.ice_alarm.period as f64;

    // One observability instance per rank: timer sections and the leaf-crate
    // spans (dycore substeps, rearranger, sub-file I/O) land in one tree.
    let obs = std::sync::Arc::new(ap3esm_obs::Obs::new());
    let _obs_guard = ap3esm_obs::install(std::sync::Arc::clone(&obs));
    let mut timers = Timers::attached(std::sync::Arc::clone(&obs));
    // Timeline tracing: every rank buffers its span/instant events in a
    // bounded sink and the world's comm-event rings start recording; both
    // are drained into one chrome-trace file after the run.
    let tracing = opts.trace && opts.report_name.is_some();
    let trace_sink = tracing.then(|| {
        let sink = std::sync::Arc::new(ap3esm_obs::TraceSink::default());
        obs.profiler
            .set_trace_sink(Some(std::sync::Arc::clone(&sink)));
        rank.comm_events().set_enabled(true);
        sink
    });
    // Black-box flight recorder (always-on by default): one recorder for
    // the whole world, shared through the blackbox slot — the first rank
    // to arrive installs it, no messages exchanged. The comm-event rings
    // start recording too, so a postmortem bundle has both journal halves.
    let flightrec_on = opts.flightrec;
    if flightrec_on {
        rank.blackbox().get_or_init(|| {
            std::sync::Arc::new(ap3esm_obs::FlightRecorder::new(
                rank.world_size(),
                ap3esm_obs::DEFAULT_FLIGHT_CAPACITY,
            )) as std::sync::Arc<dyn std::any::Any + Send + Sync>
        });
        rank.comm_events().set_enabled(true);
        fr_record(rank, FrKind::Mark, rank.generation(), 0, "run start");
    }
    let t_start = std::time::Instant::now();
    let total_seconds = (opts.days * 86_400.0).round();
    let mut stats = CoupledStats::default();

    // --- Continuous telemetry (opt-in). Every rank notes the flag (the
    //     busy-time exchange is collective); rank 0 additionally runs the
    //     sampler thread, the alert engine, and the scrape endpoint. ---
    let telemetry_on = opts.telemetry.is_some();
    let mut telemetry = opts.telemetry.as_ref().filter(|_| is_root).map(|t| {
        let store = std::sync::Arc::new(ap3esm_obs::SeriesStore::new(t.capacity));
        let mut rules = if t.builtin_rules {
            ap3esm_obs::sim_rules()
        } else {
            Vec::new()
        };
        rules.extend(ap3esm_obs::parse_rules(&t.rules).expect("telemetry alert rules"));
        let engine = std::sync::Arc::new(ap3esm_obs::AlertEngine::new(rules));
        let sampler = ap3esm_obs::Sampler::start(
            std::sync::Arc::clone(&obs),
            std::sync::Arc::clone(&store),
            Some(std::sync::Arc::clone(&engine)),
            t.cadence,
            Vec::new(),
        );
        let server = t.metrics_addr.as_ref().map(|addr| {
            ap3esm_obs::MetricsServer::start(
                addr,
                std::sync::Arc::clone(&obs),
                std::sync::Arc::clone(&store),
                Some(std::sync::Arc::clone(&engine)),
            )
            .expect("bind OpenMetrics endpoint")
        });
        (store, engine, sampler, server)
    });
    if let Some((_, _, _, Some(server))) = &telemetry {
        stats.metrics_addr = Some(server.local_addr().to_string());
    }

    // --- Recovery-layer state that must survive world reconstruction: the
    //     checkpoint store (rollback + shrink budgets accumulate across
    //     generations), the restore hand-off, and the shrink counter. ---
    let mut resil = opts
        .checkpoint_dir
        .as_ref()
        .map(|d| Resilience::new(d, &opts.recovery));
    if is_root {
        if let Some(r) = &resil {
            // Checkpoint ids are this run's ocean-coupling indices: stale
            // checkpoints from an earlier run sharing the directory must
            // not shadow them. Safe without a barrier — no other rank
            // touches the store before the first checkpoint barrier, which
            // rank 0 only reaches after this point.
            r.store.reset().expect("clear stale checkpoints");
        }
        ap3esm_obs::gauge_set("sim.degraded_ranks", 0.0);
    }
    // A directory every rank restores from at the top of the next world
    // generation: an explicit `resume_from`, or the redistributed
    // checkpoint a shrink hands off.
    let mut pending_restore: Option<std::path::PathBuf> = opts.resume_from.clone();
    let mut shrinks = 0usize;

    // ===== The world loop: one iteration per membership generation. A
    //       shrink re-enters it with a smaller world; everything layout-
    //       dependent below is rebuilt, everything above persists. =====
    'world: loop {
        let world_ranks = rank.size();
        let me = rank.id();

        // --- Coupler data structures (rebuilt per generation; cheap at our
        //     sizes, and on Sunway they would be loaded from the offline
        //     store). The generation-0 block decomposition is the configured
        //     px x py mesh; after a shrink it is re-fitted to the survivors. ---
        let ocn_decomp = generation_ocn_decomp(config, rank);
        // World rank of ocean rank 0: the coupler's own rank in the
        // sequential layout (§5.1.2's "all components are executed
        // sequentially within a single domain"), the next one otherwise.
        let ocn_first = if config.single_domain { 0 } else { 1 };
        let ocn_map = GSMap::from_block2d(&ocn_decomp, world_ranks, ocn_first);
        let root_map = GSMap::all_on_rank(ncols, world_ranks, 0);
        let scatter = Rearranger::new(Router::build(&root_map, &ocn_map), 21);
        let gather = Rearranger::new(Router::build(&ocn_map, &root_map), 22);
        let (my_ocn_cols, my_root_cols) = (ocn_map.local_size(me), root_map.local_size(me));

        // This rank's share of the coupled system: the coupler side on
        // rank 0, an ocean side on every rank holding ocean columns — both
        // on rank 0 in the sequential layout.
        let mut cpl = is_root.then(|| CouplerSide::new(config, opts, &ocn_grid, &mask, atm_period));
        let mut ocean = (me >= ocn_first)
            .then(|| OceanSide::new(config, &ocn_grid, &ocn_decomp, ocn_period, ocn_first, me));

        // Live-telemetry state (rank 0): wall clock + sim time at the last
        // heartbeat; cumulative busy seconds + wall clock at the previous
        // ocean coupling.
        let mut hb_last: Option<(std::time::Instant, f64)> = None;
        let mut tele_prev_busy = 0.0f64;
        let mut tele_last_wall = std::time::Instant::now();

        // Generation entry: resume from a hand-off directory (a shrink's
        // redistributed checkpoint, or an explicit `resume_from`). The vote
        // keeps every rank's verdict identical — a failed resume is a
        // structured failure on all of them, never a divergent world.
        if let Some(dir) = pending_restore.take() {
            match restore_agreed(rank, &dir, &mut cpl, &mut ocean, &mut clock, &mut stats) {
                Ok(true) if is_root => {
                    ap3esm_obs::instant("recovery.resumed");
                    eprintln!(
                        "[resilience] generation {}: resumed from {} at t = {} s",
                        rank.generation(),
                        dir.display(),
                        clock.time
                    );
                }
                Ok(true) => {}
                _ => {
                    stats.failure = Some(format!(
                        "resume from {} failed on at least one rank",
                        dir.display()
                    ));
                }
            }
        }

        'sim: while stats.failure.is_none() && (clock.time as f64) < total_seconds {
            let event = clock.advance();
            if let Some(c) = cpl.as_mut() {
                if event.atm {
                    c.run_atm(&clock, atm_period, opts, &mut timers, &mut stats);
                }
                if event.ice {
                    c.run_ice(ice_period, &mut timers, &mut stats);
                }
            }
            if !event.ocn {
                continue;
            }

            // ----- Ocean coupling, the same sequence on every rank: merge,
            //       four scatters, ocean step, three gathers, the KE sum.
            //       The coupler times it as `cpl_rearrange` up to the ocean
            //       step; ocean work, and everything on an ocean-only rank,
            //       is `ocn_run`. -----
            let mut section = if cpl.is_some() {
                "cpl_rearrange"
            } else {
                "ocn_run"
            };
            timers.start(section);
            let fluxes = cpl.as_ref().map(CouplerSide::merge_fluxes);
            // Under the recovery layer a failed exchange is a fault verdict
            // (rollback), not a panic; without it the run panics below.
            let mut comm_fault: Option<String> = None;
            // A failed scatter leg zero-fills its field and the ocean still
            // steps on it; the comm fault then makes the health vote fatal
            // and the coupling is rolled back (or, without the recovery
            // layer, the run panics), so no checkpoint ever holds it.
            let mut fields = Vec::with_capacity(4);
            for k in 0..4 {
                let src = fluxes.as_ref().map_or(&[][..], |f| &f[k]);
                fields.push(
                    scatter
                        .try_rearrange(rank, config.strategy, src, my_ocn_cols)
                        .unwrap_or_else(|e| {
                            note_fault(&mut comm_fault, e);
                            vec![0.0; my_ocn_cols]
                        }),
                );
            }
            let exports = match ocean.as_mut() {
                Some(o) => {
                    if section != "ocn_run" {
                        timers.stop(section);
                        section = "ocn_run";
                        timers.start(section);
                    }
                    if let Err(e) = o.step(rank, &fields) {
                        note_fault(&mut comm_fault, e);
                    }
                    o.exports()
                }
                None => Default::default(),
            };
            // A failed gather leg keeps the previous surface state (the
            // rollback follows).
            for (k, src) in exports.iter().enumerate() {
                match gather.try_rearrange(rank, config.strategy, src, my_root_cols) {
                    Ok(v) => {
                        if let Some(c) = cpl.as_mut() {
                            *[&mut c.sst, &mut c.ssu, &mut c.ssv][k] = v;
                        }
                    }
                    Err(e) => note_fault(&mut comm_fault, e),
                }
            }
            timers.stop(section);
            let local_ke = ocean.as_ref().map_or(0.0, |o| o.ocn.state.kinetic_energy());
            let ke = collectives::allreduce_sum(rank, 77, local_ke).unwrap_or_else(|e| {
                note_fault(&mut comm_fault, e);
                f64::NAN
            });
            if let Some(c) = &cpl {
                stats.sst_series.push(c.mean_sst());
                stats.ke_series.push(ke);
            }
            if let (None, Some(e)) = (&resil, &comm_fault) {
                panic!("coupler exchange failed: {e}");
            }

            // ----- Recovery layer: fault injection, guards, health
            //       agreement, then checkpoint or rollback (ocean couplings
            //       are the global synchronisation points). -----
            if let Some(resil) = resil.as_mut() {
                let ocn_idx = ((clock.time as f64) / ocn_period).round() as u64;
                if let Some(inj) = rank.fault_injector() {
                    // Fault plans name physical (machine) ranks and never
                    // let rank 0 die. A dead rank stops participating with
                    // no farewell message, like a node dropping off the
                    // interconnect; the survivors detect the silence at the
                    // health agreement and shrink around it.
                    if inj.take_die(rank.world_id(), ocn_idx) {
                        let msg = format!(
                            "rank {} died permanently at ocn coupling {ocn_idx}",
                            rank.world_id()
                        );
                        eprintln!("[resilience] {msg}");
                        stats.fault_events.push(msg);
                        stats.lost = true;
                        ap3esm_obs::counter_add("resilience.faults", 1);
                        ap3esm_obs::instant("fault.die");
                        fr_record(
                            rank,
                            FrKind::Fault,
                            ocn_idx,
                            0,
                            "died permanently (injected)",
                        );
                        break 'sim;
                    }
                    if inj.take_kill(rank.world_id(), ocn_idx) {
                        // Simulated state loss: the rank's first side turns
                        // to garbage, which its guard detects.
                        if let Some(c) = cpl.as_mut() {
                            c.atm.theta.fill(f64::NAN);
                        } else if let Some(o) = ocean.as_mut() {
                            o.ocn.state.eta.fill(f64::NAN);
                        }
                        ap3esm_obs::counter_add("resilience.faults", 1);
                        ap3esm_obs::instant("fault.kill");
                        fr_record(
                            rank,
                            FrKind::Fault,
                            ocn_idx,
                            0,
                            "killed (state corrupted, injected)",
                        );
                    }
                }
                let mut verdict = cpl
                    .as_ref()
                    .map_or(HealthVerdict::Healthy, CouplerSide::check);
                if let Some(o) = &ocean {
                    verdict = verdict.worst(o.check());
                }
                if let Some(e) = comm_fault.take() {
                    stats
                        .fault_events
                        .push(format!("comm fault at ocn coupling {ocn_idx}: {e}"));
                    verdict = verdict.worst(HealthVerdict::Fatal(format!("comm: {e}")));
                }
                let verdict = observe_verdict(verdict, me);
                let sev = match agree_severity(rank, verdict.severity()) {
                    Ok(sev) => sev,
                    // The health agreement itself lost a peer: escalate to a
                    // membership vote (DESIGN.md §13 rung 3).
                    Err(e) => match agree_survivors(
                        rank,
                        &e,
                        &mut stats,
                        &mut shrinks,
                        resil.cfg.max_shrinks,
                    ) {
                        // Everyone is alive after all (dropped or very late
                        // messages): treat as a fatal transient and roll back.
                        SurvivorOutcome::Transient => 2.0,
                        SurvivorOutcome::Shrunk => {
                            match hand_off_checkpoint(rank, &resil.store, &ocn_grid, &ocn_decomp) {
                                Some(dir) => {
                                    stats.degraded_ranks = rank.world_size() - rank.size();
                                    pending_restore = Some(dir);
                                    continue 'world;
                                }
                                None => {
                                    stats.failure = Some(
                                        "no committed checkpoint to continue degraded from".into(),
                                    );
                                    break 'sim;
                                }
                            }
                        }
                        SurvivorOutcome::Failed(msg) => {
                            stats.failure = Some(msg);
                            break 'sim;
                        }
                    },
                };
                if sev >= 2.0 {
                    let reason = format!("fatal state at ocn coupling {ocn_idx}: {verdict}");
                    if let Some(fail) = begin_rollback(rank, resil, &reason) {
                        stats.failure = Some(fail.to_string());
                        break 'sim;
                    }
                    // Newest committed checkpoint every rank can load; rank
                    // 0 withdraws a damaged one and the vote repeats.
                    loop {
                        let cand = agree_candidate(rank, &resil.store);
                        if cand < 0 {
                            stats.failure = Some(
                                RecoveryFailure {
                                    recoveries_attempted: resil.recoveries,
                                    reason: "no committed checkpoint to roll back to".into(),
                                }
                                .to_string(),
                            );
                            break 'sim;
                        }
                        let dir = resil.store.dir(cand as u64);
                        // Every member is alive (the health agreement just
                        // completed), so the vote itself cannot fail.
                        if restore_agreed(rank, &dir, &mut cpl, &mut ocean, &mut clock, &mut stats)
                            .expect("checkpoint vote")
                        {
                            ap3esm_obs::instant("rollback.restored");
                            if is_root {
                                eprintln!(
                                    "[resilience] restored checkpoint {cand}, replaying from t = {} s",
                                    clock.time
                                );
                            }
                            break;
                        }
                        if is_root {
                            stats
                                .fault_events
                                .push(format!("checkpoint {cand} rejected at restore"));
                            resil
                                .store
                                .invalidate(cand as u64)
                                .expect("invalidate damaged checkpoint");
                        }
                        rank.barrier();
                    }
                } else if resil.cfg.checkpoint_interval > 0
                    && ocn_idx.is_multiple_of(resil.cfg.checkpoint_interval as u64)
                {
                    // Rank 0 clears the directory, every rank writes its
                    // sides, rank 0 commits once all writes are done.
                    let id = ocn_idx;
                    ap3esm_obs::instant("checkpoint.begin");
                    fr_record(rank, FrKind::CkptBegin, id, 0, "");
                    if is_root {
                        with_retry(
                            "checkpoint begin",
                            resil.cfg.retries,
                            resil.cfg.backoff,
                            || resil.store.begin(id),
                        )
                        .expect("checkpoint begin");
                    }
                    rank.barrier();
                    let dir = resil.store.dir(id);
                    with_retry(
                        "checkpoint write",
                        resil.cfg.retries,
                        resil.cfg.backoff,
                        || -> Result<(), IoError> {
                            if let Some(c) = cpl.as_mut() {
                                c.write_checkpoint(&dir, clock.time, &stats)?;
                            }
                            ocean.as_ref().map_or(Ok(()), |o| o.write_checkpoint(&dir))
                        },
                    )
                    .expect("checkpoint write");
                    rank.barrier();
                    if is_root {
                        commit_checkpoint(rank, resil, id);
                    }
                }
            }

            // ----- Live telemetry heartbeat (opt-in, rank 0 only): step
            //       rate, SYPD estimate and component split since the
            //       previous heartbeat. -----
            if let Some(every) = opts.progress_every.filter(|&e| is_root && e > 0) {
                if (stats.ke_series.len() as u64).is_multiple_of(every) {
                    let now = std::time::Instant::now();
                    let sim_s = clock.time as f64;
                    let (dw, ds) = match hb_last {
                        Some((w, s)) => (now.duration_since(w).as_secs_f64(), sim_s - s),
                        None => (t_start.elapsed().as_secs_f64(), sim_s),
                    };
                    let dw = dw.max(1e-9);
                    let split: Vec<String> =
                        ["atm_run", "lnd_run", "ocn_run", "ice_run", "cpl_rearrange"]
                            .iter()
                            .filter(|s| timers.count(s) > 0)
                            .map(|s| format!("{s} {:.2}s", timers.seconds(s)))
                            .collect();
                    eprintln!(
                        "[telemetry] day {:.2}/{:.1} | {:.2} couplings/s | est. SYPD {:.2} | {}",
                        clock.days(),
                        opts.days,
                        (ds / ocn_period) / dw,
                        get_timing(ds, dw),
                        split.join(", ")
                    );
                    hb_last = Some((now, sim_s));
                }
            }

            // ----- Continuous telemetry: global busy-time exchange at the
            //       coupling sync point, then rank-0 gauges the sampler
            //       thread turns into series. -----
            if telemetry_on {
                let busy: f64 = timers.sections().iter().map(|s| timers.seconds(s)).sum();
                let d_busy = (busy - tele_prev_busy).max(0.0);
                tele_prev_busy = busy;
                let max_busy =
                    collectives::allreduce_max(rank, TELE_MAX_TAG, d_busy).unwrap_or(d_busy);
                let sum_busy =
                    collectives::allreduce_sum(rank, TELE_SUM_TAG, d_busy).unwrap_or(d_busy);
                if is_root {
                    let now = std::time::Instant::now();
                    let dw = now.duration_since(tele_last_wall).as_secs_f64().max(1e-9);
                    tele_last_wall = now;
                    ap3esm_obs::gauge_set("sim.step_wall_s", dw);
                    ap3esm_obs::gauge_set("sim.sypd", get_timing(ocn_period, dw));
                    let mean_busy = sum_busy / world_ranks as f64;
                    if mean_busy > 0.0 {
                        ap3esm_obs::gauge_set("sim.imbalance", max_busy / mean_busy);
                    }
                }
            }
        }
        stats.simulated_seconds = clock.time as f64;
        if let Some(r) = &resil {
            stats.recoveries = r.recoveries;
        }

        // The run is over (completed, structurally failed, or this rank
        // died); only a shrink hand-off re-enters the loop with the next
        // world generation.
        break 'world;
    } // 'world

    // Injected faults that actually fired (message faults, kills,
    // corruptions) join the locally observed comm faults in one stream.
    if let Some(inj) = rank.fault_injector() {
        stats
            .fault_events
            .extend(inj.fired().into_iter().map(|f| f.description));
    }

    stats.wall_seconds = t_start.elapsed().as_secs_f64();
    stats.sypd = get_timing(stats.simulated_seconds, stats.wall_seconds);
    stats.per_section_seconds = timers
        .sections()
        .iter()
        .map(|s| (s.to_string(), timers.seconds(s)))
        .collect();

    // Telemetry teardown before the report: the shutdown handshake forces
    // one final sample + alert pass, so the report's alerts array and the
    // series snapshot include the run's last state. The scrape endpoint
    // stays up until the snapshot is on disk.
    let mut alert_events: Vec<ap3esm_obs::AlertEvent> = Vec::new();
    let mut bundle_series: Option<String> = None;
    if let Some((store, engine, sampler, server)) = telemetry.take() {
        sampler.shutdown();
        alert_events = engine.events();
        stats.alerts = alert_events.iter().map(|e| e.message.clone()).collect();
        if let Some(name) = &opts.report_name {
            if opts.telemetry.as_ref().is_some_and(|t| t.snapshot) {
                stats.series_path = store.write_snapshot(name).ok();
            }
        }
        // Keep the final tsdb state for the diagnostics bundle (the store
        // itself is consumed here).
        if flightrec_on {
            bundle_series = Some(store.snapshot_json());
        }
        if let Some(server) = server {
            server.stop();
        }
    }

    // --- Flight-recorder bundle: when the run ended in trouble, rank 0
    //     dumps a self-contained diagnostics bundle before the (collective)
    //     report path, using non-draining snapshots so the later trace
    //     export still sees every comm event. Non-collective by design:
    //     dead ranks cannot be waited on. ---
    if flightrec_on {
        if let Some(f) = &stats.failure {
            fr_record(
                rank,
                FrKind::Fault,
                0,
                0,
                &format!("structured failure: {f}"),
            );
        }
        for a in &alert_events {
            fr_record(rank, FrKind::Alert, 0, 0, &a.message);
        }
        let troubled = stats.failure.is_some()
            || stats.shrinks > 0
            || stats.recoveries > 0
            || !stats.fault_events.is_empty();
        if is_root && troubled {
            let name = opts
                .bundle_name
                .clone()
                .or_else(|| opts.report_name.clone())
                .unwrap_or_else(|| format!("pid{}", std::process::id()));
            let reason = if let Some(f) = &stats.failure {
                format!("recovery-failure: {f}")
            } else if stats.shrinks > 0 {
                "shrink".to_string()
            } else if stats.fault_events.iter().any(|e| e.contains("deadlock")) {
                "deadlock".to_string()
            } else {
                "fault".to_string()
            };
            // A comm-only Chrome trace so the bundle opens in Perfetto even
            // when full span tracing was off.
            let mut ct = ap3esm_obs::ChromeTrace::new();
            for r in 0..rank.world_size() {
                ct.add_process(r, &format!("rank {r}"));
                let (comm_events, _) = rank.comm_events().snapshot(r);
                ct.add_comm_events(r, &comm_events);
            }
            let recorder = rank
                .blackbox()
                .get()
                .and_then(|s| s.downcast_ref::<ap3esm_obs::FlightRecorder>());
            let spec = ap3esm_obs::BundleSpec {
                reason: &reason,
                recorder,
                comm_events: Some(rank.comm_events()),
                series_json: bundle_series.take(),
                alerts: &alert_events,
                fault_plan: rank.fault_injector().map(|i| i.plan().to_string()),
                scenario: None,
                trace_json: Some(ct.to_json()),
            };
            match ap3esm_obs::dump_bundle(&name, &spec) {
                Ok(dir) => {
                    eprintln!("[flightrec] diagnostics bundle: {}", dir.display());
                    stats.bundle_path = Some(dir);
                }
                Err(e) => eprintln!("[flightrec] bundle dump failed: {e}"),
            }
        }
    }

    if stats.lost {
        // A dead rank takes no part in the (collective) report: the
        // survivors build it over the shrunk membership without it.
        return stats;
    }

    if let Some(name) = &opts.report_name {
        // Paper §6.2 measurement rule: per-section times reduced to the
        // maximum across ranks. Collective — every rank participates.
        // Softened: a report must never turn a degraded-but-successful run
        // into a crash, so a failed aggregation just yields a thinner one.
        let spans = obs.profiler.snapshot();
        let sections = match ap3esm_obs::aggregate_sections(rank, 0x0B70, &spans) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[report] section aggregation failed: {e}");
                Vec::new()
            }
        };
        // Paper §6.2: the trajectory's per-section walls are cross-rank
        // maxima, not rank 0's local timers — otherwise sections that only
        // run on other ranks (ocn_run on the ocean task domain) vanish
        // from the BENCH point. Sorted by name so the metric set is
        // independent of rank layout.
        if is_root && !sections.is_empty() {
            let mut merged = stats.per_section_seconds.clone();
            for s in sections.iter().filter(|s| !s.path.contains('/')) {
                match merged.iter_mut().find(|(n, _)| *n == s.path) {
                    Some(entry) => entry.1 = s.max_s,
                    None => merged.push((s.path.clone(), s.max_s)),
                }
            }
            merged.sort_by(|a, b| a.0.cmp(&b.0));
            stats.per_section_seconds = merged;
        }
        // Every rank's tree (bounded) lands in the report, not just rank 0's.
        let trees = match ap3esm_obs::gather_span_trees(rank, 0x0B74, &spans, 16, 512) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("[report] span tree gather failed: {e}");
                None
            }
        };
        // Timeline export: stop recording everywhere, then ship each rank's
        // buffered span events to rank 0. The comm-event rings live in the
        // shared world structure, so rank 0 drains them directly once the
        // barrier guarantees all ranks have stopped recording.
        let mut trace_events: Option<Vec<Vec<ap3esm_obs::TraceEvent>>> = None;
        if let Some(sink) = &trace_sink {
            rank.comm_events().set_enabled(false);
            obs.profiler.set_trace_sink(None);
            rank.barrier();
            let (events, dropped) = sink.take();
            if dropped > 0 {
                eprintln!(
                    "[trace] rank {}: {dropped} span events dropped (sink full)",
                    rank.world_id()
                );
            }
            let wire = ap3esm_obs::trace::encode_events(&events);
            match collectives::gather::<u8>(rank, 0x0B76, 0, wire) {
                Ok(gathered) => {
                    trace_events = gathered.map(|parts| {
                        parts
                            .iter()
                            .map(|bytes| ap3esm_obs::trace::decode_events(bytes))
                            .collect()
                    });
                }
                Err(e) => eprintln!("[trace] event gather failed: {e}"),
            }
        }
        if is_root {
            if let Some(per_rank) = trace_events {
                // Drain every rank's comm ring exactly once; the same
                // events feed the chrome trace and the critical-path
                // analyzer below.
                let (all_comm, comm_dropped) = rank.comm_events().take_all();
                if comm_dropped > 0 {
                    eprintln!("[trace] {comm_dropped} comm events evicted (rings full)");
                }
                let mut ct = ap3esm_obs::ChromeTrace::new();
                for (r, events) in per_rank.iter().enumerate() {
                    ct.add_process(r, &format!("rank {r}"));
                    ct.add_span_events(r, events);
                    if let Some(comm_events) = all_comm.get(r) {
                        ct.add_comm_events(r, comm_events);
                    }
                }
                stats.trace_path = ct.write(name).ok();
                if let Some(trees) = &trees {
                    let folded = ap3esm_obs::trace::folded_stacks(trees);
                    stats.folded_path = ap3esm_obs::trace::write_folded(name, &folded).ok();
                }
                // End-of-run critical-path analysis over the same
                // timelines: where did the SYPD go, and what would
                // halving the top section buy?
                let timelines: Vec<ap3esm_obs::RankTimeline> = per_rank
                    .iter()
                    .enumerate()
                    .map(|(r, events)| ap3esm_obs::RankTimeline {
                        rank: r,
                        spans: events.clone(),
                        comms: all_comm.get(r).cloned().unwrap_or_default(),
                    })
                    .collect();
                let analyzer = ap3esm_obs::Analyzer::new(&timelines).with_sypd(stats.sypd);
                stats.critpath = Some(analyzer.analyze());
            }
            let comm = rank.stats();
            let stream = |label: &str, tags: [u64; 2]| {
                let (m, b) = tags.iter().fold((0u64, 0u64), |(m, b), &t| {
                    let (tm, tb) = comm.tag_traffic(t);
                    (m + tm, b + tb)
                });
                (label.to_string(), m, b)
            };
            let mut report = ap3esm_obs::ReportBuilder::new(name)
                .meta("world_size", rank.size())
                .meta("launched_world_size", rank.world_size())
                .meta("generation", rank.generation())
                .meta(
                    "layout",
                    if config.single_domain {
                        "sequential"
                    } else {
                        "concurrent"
                    },
                )
                .meta("strategy", format!("{:?}", config.strategy).as_str())
                .meta("simulated_seconds", stats.simulated_seconds)
                .meta("wall_seconds", stats.wall_seconds)
                .meta("sypd", stats.sypd)
                .meta("recoveries", stats.recoveries as u64)
                .meta("shrinks", stats.shrinks as u64)
                .meta("degraded_ranks", stats.degraded_ranks as u64)
                .meta("failure", stats.failure.as_deref().unwrap_or(""))
                .meta(
                    "fault_events",
                    ap3esm_obs::json::Json::Arr(
                        stats
                            .fault_events
                            .iter()
                            .map(|e| ap3esm_obs::json::Json::Str(e.clone()))
                            .collect(),
                    ),
                )
                .spans(spans)
                .alerts(alert_events)
                .sections(sections)
                .rank_trees(trees.unwrap_or_default())
                .metrics(obs.metrics.snapshot());
            if let Some(a) = &stats.critpath {
                report = report.critpath(a.to_json());
            }
            let report = report
                .comm(ap3esm_obs::CommSummary {
                    total_messages: comm.total_messages(),
                    total_bytes: comm.total_bytes(),
                    top_pairs: comm.top_pairs(5),
                    streams: vec![
                        stream("cpl_scatter", Rearranger::wire_tags_for(21)),
                        stream("cpl_gather", Rearranger::wire_tags_for(22)),
                    ],
                })
                .build();
            stats.report_json = Some(report.to_json());
            stats.report_path = report.write().ok();
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_comm::World;

    #[test]
    fn coupled_model_runs_one_day_stably() {
        let config = CoupledConfig::test_tiny();
        let world = World::new(config.world_size());
        let opts = CoupledOptions {
            days: 1.0,
            ..Default::default()
        };
        let all = world.run(|rank| run_coupled(rank, &config, &opts));
        let root = &all[0];
        assert_eq!(root.simulated_seconds, 86_400.0);
        assert!(root.sypd > 0.0);
        // Alarm cadence: 8 atm / 4 ocn / 8 ice couplings.
        assert_eq!(root.theta_series.len(), 8);
        assert_eq!(root.sst_series.len(), 4);
        assert_eq!(root.ice_series.len(), 8);
        // Physical sanity.
        for sst in &root.sst_series {
            assert!((-5.0_f64..40.0).contains(sst), "mean SST {sst}");
        }
        for th in &root.theta_series {
            assert!((250.0..400.0).contains(th), "mean theta {th}");
        }
        // Ocean spun up: KE grew from zero.
        assert!(*root.ke_series.last().unwrap() > 0.0);
        // The coupler actually moved data.
        assert!(world.stats().total_bytes() > 0);
    }

    #[test]
    fn coupled_run_emits_json_report() {
        let config = CoupledConfig::test_tiny();
        let world = World::new(config.world_size());
        let opts = CoupledOptions {
            days: 0.5,
            report_name: Some("esm-report-test".to_string()),
            ..Default::default()
        };
        let all = world.run(|rank| run_coupled(rank, &config, &opts));
        let root = &all[0];

        // Only rank 0 writes; ocean ranks still participated in aggregation.
        assert!(all[1..].iter().all(|s| s.report_json.is_none()));
        let json = root.report_json.as_ref().expect("rank 0 report");
        assert!(json.starts_with(r#"{"schema":"ap3esm-obs/5","name":"esm-report-test""#));

        // The sink wrote the same bytes to target/obs/.
        let path = root.report_path.as_ref().expect("report written");
        assert_eq!(path.file_name().unwrap(), "run-esm-report-test.json");
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body.trim_end(), json);

        // ≥8 distinct spans with a correct parent/child tree on rank 0:
        // driver sections parent the leaf-crate instrumentation.
        let spans_json = json
            .split(r#""spans":["#)
            .nth(1)
            .unwrap()
            .split(r#""rank_sections""#)
            .next()
            .unwrap();
        let span_paths: Vec<&str> = spans_json
            .split(r#""path":""#)
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
            .collect();
        for want in [
            "atm_run",
            "atm_run/dycore",
            "atm_run/dycore/dyn_substeps",
            "atm_run/dycore/tracer_step",
            "atm_run/physics",
            "ice_run",
            "cpl_rearrange",
            "cpl_rearrange/rearrange",
        ] {
            assert!(
                span_paths.contains(&want),
                "missing span {want}: {span_paths:?}"
            );
        }
        let distinct: std::collections::BTreeSet<&&str> = span_paths.iter().collect();
        assert!(
            distinct.len() >= 8,
            "only {} distinct spans",
            distinct.len()
        );

        // Cross-rank sections: the ocean ran on every domain-O rank (rank 0
        // never does, so "ocn_run" only reaches the report through the
        // collective aggregation) and the stats carry an imbalance ratio.
        let sections_json = json.split(r#""rank_sections":["#).nth(1).unwrap();
        assert!(
            !span_paths.contains(&"ocn_run"),
            "rank 0 should not run the ocean"
        );
        assert!(
            sections_json.contains(r#""path":"ocn_run""#),
            "ocean missing from aggregation"
        );
        assert!(sections_json.contains(r#""imbalance":"#));

        // Comm digest: real bytes moved, attributed to the coupling phases.
        assert!(json.contains(r#""comm":{"total_messages":"#));
        assert!(world.stats().total_bytes() > 0);
        let streams = json.split(r#""streams":["#).nth(1).unwrap();
        assert!(streams.contains(r#""label":"cpl_scatter""#));
        assert!(streams.contains(r#""label":"cpl_gather""#));
        // Scatter moved 4 forcing fields per ocean coupling; non-zero bytes.
        let scatter_bytes: u64 = streams
            .split(r#""label":"cpl_scatter","messages":"#)
            .nth(1)
            .and_then(|s| s.split(r#""bytes":"#).nth(1))
            .and_then(|s| s.split(['}', ',']).next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(scatter_bytes > 0, "no scatter traffic attributed");

        // The rearranger histogram flowed into the metrics registry.
        assert!(json.contains(r#""cpl.rearrange.ns":{"count":"#));
    }

    #[test]
    fn ai_physics_coupled_run_is_stable() {
        let mut config = CoupledConfig::test_tiny();
        config.ai_physics = true;
        let world = World::new(config.world_size());
        let opts = CoupledOptions {
            days: 0.25,
            ..Default::default()
        };
        let all = world.run(|rank| run_coupled(rank, &config, &opts));
        let root = &all[0];
        for th in &root.theta_series {
            assert!(th.is_finite() && *th > 200.0 && *th < 500.0, "theta {th}");
        }
        for sst in &root.sst_series {
            assert!((-5.0..40.0).contains(sst), "SST {sst}");
        }
    }

    #[test]
    fn single_domain_matches_two_domain_layout() {
        // §5.1.2: the two task-layout strategies must produce the same
        // physics. With a 1×1 ocean decomposition in both layouts the
        // trajectories are bitwise identical.
        let opts = CoupledOptions {
            days: 0.5,
            ..Default::default()
        };
        let mut sequential = CoupledConfig::test_tiny();
        sequential.ocn_px = 1;
        sequential.ocn_py = 1;
        sequential.single_domain = true;
        assert_eq!(sequential.world_size(), 1);
        let world = World::new(1);
        let seq = world.run(|rank| run_coupled(rank, &sequential, &opts));

        let mut concurrent = sequential.clone();
        concurrent.single_domain = false;
        assert_eq!(concurrent.world_size(), 2);
        let world = World::new(2);
        let con = world.run(|rank| run_coupled(rank, &concurrent, &opts));

        assert_eq!(seq[0].sst_series.len(), con[0].sst_series.len());
        for (a, b) in seq[0].sst_series.iter().zip(&con[0].sst_series) {
            assert_eq!(a.to_bits(), b.to_bits(), "task layout changed physics");
        }
        for (a, b) in seq[0].ke_series.iter().zip(&con[0].ke_series) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (name, a, b) in [
            ("theta", &seq[0].theta_series, &con[0].theta_series),
            ("ice", &seq[0].ice_series, &con[0].ice_series),
        ] {
            assert_eq!(a.len(), b.len(), "{name} series length");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "task layout changed {name}");
            }
        }
        assert_eq!(seq[0].simulated_seconds, con[0].simulated_seconds);
    }

    #[test]
    fn alltoall_and_p2p_coupling_agree() {
        let mut config = CoupledConfig::test_tiny();
        let opts = CoupledOptions {
            days: 0.5,
            ..Default::default()
        };
        config.strategy = ap3esm_cpl::rearrange::RearrangeStrategy::AllToAll;
        let world = World::new(config.world_size());
        let a = world.run(|rank| run_coupled(rank, &config, &opts));
        config.strategy = ap3esm_cpl::rearrange::RearrangeStrategy::NonBlockingP2p;
        let world = World::new(config.world_size());
        let b = world.run(|rank| run_coupled(rank, &config, &opts));
        // Identical physics — identical trajectories.
        assert_eq!(a[0].sst_series.len(), b[0].sst_series.len());
        for (x, y) in a[0].sst_series.iter().zip(&b[0].sst_series) {
            assert_eq!(x.to_bits(), y.to_bits(), "strategy changed the answer");
        }
    }
}
