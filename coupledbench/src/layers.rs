//! Outside-in layer timing: the traced run.
//!
//! The model itself stays uninstrumented. Instead this module calls each
//! layer crate's public entry points the way `esm::run_coupled` calls
//! them, at the workload's grid sizes and per-day call counts, and records
//! one span per call in memory from the benchmark's own code:
//!
//! * `grid.build` — `GeodesicGrid::new` + `TripolarGrid::new`;
//! * `cpl.setup` — `RemapMatrix::inverse_distance` ×2 + `Router::build` ×2;
//! * `atm.dyn` — `Dycore::step_model_dynamics`, once per model step;
//! * `physics.apply` — `PhysicsDynamicsCoupler::apply`, once per model step;
//! * `ocn.step` — `OcnModel::step` × the steps of one ocean coupling;
//! * `esm.guard` — `AtmGuard::check` + `OcnGuard::check` per ocean coupling;
//! * `io.ckpt_write` / `io.restart_read` — the atmosphere + ocean restart
//!   writers and readers, once per ocean coupling;
//! * `cpl.rearrange` — the 4 scatter + 3 gather `Rearranger::rearrange`
//!   calls of one ocean coupling, across the workload's ranks, entered
//!   only once every rank is ready.
//!
//! The model's time-step fitting is private to `esm::coupled`, so
//! [`fitted_atm_config`] and [`fitted_ocn_config`] mirror it here.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ap3esm_atm::dycore::{Dycore, DycoreConfig};
use ap3esm_atm::pdc::{PhysicsDriver, PhysicsDynamicsCoupler, SurfaceForcing};
use ap3esm_atm::state::AtmState;
use ap3esm_comm::World;
use ap3esm_cpl::clock::CouplingClock;
use ap3esm_cpl::fluxes::blended_surface_temperature;
use ap3esm_cpl::gsmap::GSMap;
use ap3esm_cpl::mapping::RemapMatrix;
use ap3esm_cpl::rearrange::Rearranger;
use ap3esm_cpl::router::Router;
use ap3esm_esm::restart::{
    read_atm_restart, read_ocn_restart, write_atm_restart, write_ocn_restart,
};
use ap3esm_esm::{AtmGuard, CoupledConfig, GuardConfig, OcnGuard, Perturbation};
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::mask::MaskGenerator;
use ap3esm_grid::sphere::Vec3;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_grid::GeodesicGrid;
use ap3esm_ice::IceModel;
use ap3esm_lnd::LndModel;
use ap3esm_obs::json::Json;
use ap3esm_ocn::model::{OcnConfig, OcnForcing, OcnModel};
use ap3esm_ocn::state::OcnState;
use ap3esm_physics::ConventionalSuite;

use crate::stats::median;
use crate::workload::{Workload, PERTURB_AMPLITUDE, SAMPLE_DAYS};

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Rank that recorded it.
    pub rank: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span recorder on a clock shared by every rank.
pub struct SpanLog {
    origin: Instant,
    rank: usize,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, rank: usize) -> SpanLog {
        SpanLog {
            origin,
            rank,
            spans: Vec::new(),
        }
    }

    /// Time `f` as one span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.spans.push(Span {
            name,
            rank: self.rank,
            start_ns: t0.duration_since(self.origin).as_nanos() as u64,
            dur_ns: t1.duration_since(t0).as_nanos() as u64,
        });
        out
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }
}

/// Chrome trace-event JSON of `spans` (one `tid` per rank).
pub fn spans_to_json(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut e = Json::obj();
            e.set("name", Json::Str(s.name.to_string()))
                .set("ph", Json::Str("X".into()))
                .set("pid", Json::UInt(0))
                .set("tid", Json::UInt(s.rank as u64))
                .set("ts", Json::Num(s.start_ns as f64 / 1e3))
                .set("dur", Json::Num(s.dur_ns as f64 / 1e3));
            e
        })
        .collect();
    let mut j = Json::obj();
    j.set("traceEvents", Json::Arr(events));
    j
}

/// Median per-call and per-day layer times of one traced run.
#[derive(Debug)]
pub struct LayerTimes {
    pub grid_build_s: f64,
    pub cpl_setup_s: f64,
    pub atm_dyn_s_per_day: f64,
    pub physics_apply_s_per_day: f64,
    pub ocn_step_s_per_day: f64,
    pub esm_guard_s_per_day: f64,
    pub io_ckpt_write_s: f64,
    pub io_ckpt_bytes: f64,
    pub io_restart_read_s: f64,
    pub cpl_rearrange_s_per_coupling: f64,
    /// Layer seconds that account for each replayed unit's wall time.
    pub covered_s_per_unit: Vec<f64>,
    /// Spans recorded per simulated day of the replay.
    pub spans_per_day: f64,
    /// Simulated days replayed.
    pub replay_days: f64,
}

/// The dycore stepping fitted so an integer number of model steps covers
/// the atmosphere coupling period (mirrors `esm::coupled`).
fn fitted_atm_config(dx_km: f64, period: f64) -> DycoreConfig {
    let base = DycoreConfig::for_spacing_km(dx_km);
    let n = (period / base.dt_model).ceil().max(1.0);
    let dt_model = period / n;
    let dt_tracer = dt_model / 4.0;
    let dt_dyn = dt_tracer / 4.0;
    DycoreConfig {
        dt_dyn,
        dt_tracer,
        dt_model,
        nu: 0.015 * (dx_km * 1000.0).powi(2) / dt_dyn,
    }
}

/// The ocean stepping fitted to its coupling period on a single-rank mesh
/// (mirrors `esm::coupled`).
fn fitted_ocn_config(config: &CoupledConfig, period: f64) -> OcnConfig {
    let mut c = OcnConfig::for_grid(config.ocn_nlon, config.ocn_nlat, config.ocn_nlev, 1, 1);
    let n = (period / c.dt_baroclinic).ceil().max(1.0);
    c.dt_baroclinic = period / n;
    c
}

fn mask_of(config: &CoupledConfig) -> MaskGenerator {
    MaskGenerator {
        seed: config.mask_seed,
        ..MaskGenerator::default()
    }
}

fn ocean_points(grid: &TripolarGrid) -> Vec<Vec3> {
    (0..grid.nlat)
        .flat_map(|j| (0..grid.nlon).map(move |i| (i, j)))
        .map(|(i, j)| Vec3::from_lat_lon(grid.lat[j], grid.lon[i]))
        .collect()
}

/// The coupler's two maps: everything on rank 0, and the ocean columns on
/// their owning rank (rank 0 itself in the sequential layout).
fn coupler_maps(config: &CoupledConfig, ncols: usize) -> (GSMap, GSMap) {
    let ranks = config.world_size();
    let root = GSMap::all_on_rank(ncols, ranks, 0);
    let ocn = if config.single_domain {
        GSMap::all_on_rank(ncols, ranks, 0)
    } else {
        let decomp = BlockDecomp2d::new(config.ocn_nlon, config.ocn_nlat, 1, 1);
        GSMap::from_block2d(&decomp, ranks, 1)
    };
    (root, ocn)
}

/// `reps` timed builds of the grids and of the coupler's remap matrices
/// and routers; returns the median (grid, coupler) seconds.
fn setup_layers(config: &CoupledConfig, reps: usize, log: &mut SpanLog) -> (f64, f64) {
    for _ in 0..reps {
        let (grid, ocn_grid) = log.time("grid.build", || {
            (
                GeodesicGrid::new(config.atm_glevel),
                TripolarGrid::new(
                    config.ocn_nlon,
                    config.ocn_nlat,
                    config.ocn_nlev,
                    mask_of(config),
                ),
            )
        });
        let points = ocean_points(&ocn_grid);
        let (root, ocn) = coupler_maps(config, ocn_grid.ncols());
        black_box(log.time("cpl.setup", || {
            (
                RemapMatrix::inverse_distance(&grid.cells, &points, 3),
                RemapMatrix::inverse_distance(&points, &grid.cells, 3),
                Router::build(&root, &ocn),
                Router::build(&ocn, &root),
            )
        }));
    }
    (
        median(&log.durations("grid.build")).unwrap_or(0.0),
        median(&log.durations("cpl.setup")).unwrap_or(0.0),
    )
}

/// Total bytes of the files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One guard check plus a checkpoint write and read-back of the
/// atmosphere and ocean restarts under `root`; returns the bytes written.
fn checkpoint_cycle(
    log: &mut SpanLog,
    atm: &AtmState,
    ocn: &OcnState,
    (atm_guard, ocn_guard): (&AtmGuard, &OcnGuard),
    root: &Path,
) -> Result<u64, String> {
    let verdict = log.time("esm.guard", || {
        atm_guard.check(atm).worst(ocn_guard.check(ocn))
    });
    if verdict.is_fatal() {
        return Err(format!("guard verdict {verdict}"));
    }
    let dir = root.join("ckpt");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    log.time("io.ckpt_write", || {
        write_atm_restart(&dir, atm)?;
        write_ocn_restart(&dir, ocn, 0)
    })
    .map_err(|e| format!("checkpoint write: {e}"))?;
    let bytes = dir_bytes(&dir);
    let (mut atm_back, mut ocn_back) = (atm.clone(), ocn.clone());
    log.time("io.restart_read", || {
        read_atm_restart(&dir, &mut atm_back)?;
        read_ocn_restart(&dir, &mut ocn_back, 0)
    })
    .map_err(|e| format!("restart read: {e}"))?;
    let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    if !same(&atm_back.theta, &atm.theta) || !same(&ocn_back.eta, &ocn.eta) {
        return Err("restart read back a different state".into());
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(bytes)
}

/// Per-unit totals of the component replay.
struct Replay {
    log: SpanLog,
    /// Span index where each replayed unit of `SAMPLE_DAYS` starts.
    unit_starts: Vec<usize>,
    /// Span index where the last unit ends.
    units_end: usize,
    ckpt_bytes: u64,
    ocn_couplings_per_unit: usize,
}

/// Replay units of `SAMPLE_DAYS` of atmosphere, physics and ocean calls
/// until `budget` has passed, at least one unit; `before_unit` runs ahead
/// of each unit. Every unit starts from the initial state, like every
/// timed run. When `checkpointing`, every ocean coupling also runs a
/// [`checkpoint_cycle`]. Runs on a one-rank world, since the ocean's halo
/// exchange needs a rank even on a 1×1 mesh.
fn replay_components(
    config: &CoupledConfig,
    checkpointing: bool,
    seed: u64,
    budget: Duration,
    ckpt_root: &Path,
    origin: Instant,
    before_unit: &(dyn Fn() + Sync),
) -> Result<Replay, String> {
    let world = World::new(1);
    let mut out = world.run(|rank| -> Result<Replay, String> {
        let mut log = SpanLog::new(origin, 0);
        let mask = mask_of(config);
        let grid = Arc::new(GeodesicGrid::new(config.atm_glevel));
        let ocn_grid = TripolarGrid::new(config.ocn_nlon, config.ocn_nlat, config.ocn_nlev, mask);
        let ncols = ocn_grid.ncols();
        let new_clock = || {
            let (atm, ocn, ice) = config.couplings_per_day;
            CouplingClock::new(atm, ocn, ice)
        };
        let atm_period = new_clock().atm_alarm.period as f64;
        let ocn_period = new_clock().ocn_alarm.period as f64;

        // Atmosphere initial state as `esm::run_coupled` builds it.
        let n = grid.ncells();
        let perturb = Perturbation {
            seed,
            amplitude: PERTURB_AMPLITUDE,
        };
        let initial_atm = || {
            let mut atm = AtmState::isothermal(Arc::clone(&grid), config.atm_nlev, 288.0);
            for k in 0..config.atm_nlev {
                for i in 0..n {
                    atm.theta[k * n + i] += 15.0 * (grid.cells[i].lat().cos().powi(2) - 0.5);
                }
            }
            for (i, th) in atm.theta.iter_mut().enumerate() {
                *th += perturb.noise(i);
            }
            atm
        };
        let dycore = Dycore::new(
            Arc::clone(&grid),
            fitted_atm_config(grid.mean_spacing_km(), atm_period),
        );
        let dt_model = dycore.config.dt_model;

        // The lower boundary the coupler hands the atmosphere at t = 0.
        let (atm_land, _) = mask.land_mask(&grid.cells, 0.29);
        let lnd = LndModel::new(atm_land.clone(), 285.0);
        let wet = lnd.wetness();
        let ice = IceModel::new(
            &ocn_grid,
            &BlockDecomp2d::new(config.ocn_nlon, config.ocn_nlat, 1, 1),
            0,
        );
        let points = ocean_points(&ocn_grid);
        let ocn_to_atm = RemapMatrix::inverse_distance(&points, &grid.cells, 3);
        let sst: Vec<f64> = (0..ncols)
            .map(|c| 2.0 + 26.0 * ocn_grid.lat[c / config.ocn_nlon].cos().powi(2))
            .collect();
        let valid: Vec<bool> = (0..ncols).map(|c| ocn_grid.kmt[c] > 0).collect();
        let sst_on_atm = ocn_to_atm.apply_masked(&sst, &valid, 15.0);
        let ice_on_atm = ocn_to_atm.apply(&ice.state.fraction);

        let ocn_config = fitted_ocn_config(config, ocn_period);
        let ocn_forcing = OcnForcing::climatology(
            &ocn_grid,
            &BlockDecomp2d::new(config.ocn_nlon, config.ocn_nlat, 1, 1),
            0,
        );
        let atm_steps = ((atm_period / dt_model).round() as usize).max(1);
        let ocn_steps = ((ocn_period / ocn_config.dt_baroclinic).round() as usize).max(1);
        let unit_seconds = (SAMPLE_DAYS * 86_400.0).round() as i64;

        let t_start = Instant::now();
        let mut unit_starts = Vec::new();
        let mut ckpt_bytes = 0;
        let mut ocn_couplings = 0;
        let mut last;
        loop {
            before_unit();
            unit_starts.push(log.spans.len());
            let mut clock = new_clock();
            let mut atm = initial_atm();
            let mut pdc = PhysicsDynamicsCoupler::new(PhysicsDriver::Conventional(
                ConventionalSuite::default(),
            ));
            let mut ocn = OcnModel::new(&ocn_grid, ocn_config.clone(), 0);
            let atm_guard = AtmGuard::new(&atm, GuardConfig::default(), dycore.config.dt_dyn);
            let ocn_guard = OcnGuard::new(
                &ocn.state,
                GuardConfig::default(),
                ocn_config.dt_baroclinic / ocn_config.n_barotropic.max(1) as f64,
            );
            while clock.time < unit_seconds {
                let event = clock.advance();
                if event.atm {
                    let day_of_year = 202.0 + clock.days();
                    let seconds_utc = (clock.time % 86_400) as f64;
                    let mut forcing = SurfaceForcing::uniform(n, 288.0, 0.0, 1.0);
                    for i in 0..n {
                        let (lat, lon) = (grid.cells[i].lat(), grid.cells[i].lon());
                        forcing.coszr[i] =
                            ap3esm_esm::solar::cos_zenith(lat, lon, day_of_year, seconds_utc);
                        if atm_land[i] {
                            forcing.tskin[i] = lnd.state.tskin[i];
                            forcing.wetness[i] = wet[i];
                        } else {
                            forcing.tskin[i] =
                                blended_surface_temperature(sst_on_atm[i], -5.0, ice_on_atm[i]);
                        }
                    }
                    for _ in 0..atm_steps {
                        log.time("atm.dyn", || dycore.step_model_dynamics(&mut atm));
                        log.time("physics.apply", || pdc.apply(&mut atm, &forcing, dt_model));
                    }
                }
                if event.ocn {
                    ocn_couplings += 1;
                    log.time("ocn.step", || {
                        for _ in 0..ocn_steps {
                            ocn.step(rank, &ocn_forcing);
                        }
                    });
                    if checkpointing {
                        let guards = (&atm_guard, &ocn_guard);
                        ckpt_bytes =
                            checkpoint_cycle(&mut log, &atm, &ocn.state, guards, ckpt_root)?;
                    }
                }
            }
            if !atm.mean_theta().is_finite() {
                return Err("non-finite mean theta".into());
            }
            last = (atm, ocn, atm_guard, ocn_guard);
            if t_start.elapsed() >= budget {
                break;
            }
        }
        let units_end = log.spans.len();
        let ocn_couplings_per_unit = ocn_couplings / unit_starts.len();
        if !checkpointing {
            // A workload without checkpoints still reports what one would
            // cost: one unit's worth of cycles after the paired units, so
            // their I/O cannot slow the compute layers being timed.
            let (atm, ocn, atm_guard, ocn_guard) = last;
            for _ in 0..ocn_couplings_per_unit {
                let guards = (&atm_guard, &ocn_guard);
                ckpt_bytes = checkpoint_cycle(&mut log, &atm, &ocn.state, guards, ckpt_root)?;
            }
        }
        Ok(Replay {
            log,
            ocn_couplings_per_unit,
            unit_starts,
            units_end,
            ckpt_bytes,
        })
    });
    out.pop().expect("one rank")
}

/// Time `couplings` ocean couplings' worth of coupler rearrangement (4
/// scatters + 3 gathers each) across the workload's ranks, each coupling
/// entered from a barrier so no rank waits on another's compute. Returns
/// rank 0's span log.
fn replay_rearrange(config: &CoupledConfig, couplings: usize, origin: Instant) -> SpanLog {
    let world = World::new(config.world_size());
    let mut logs = world.run(|rank| {
        let mut log = SpanLog::new(origin, rank.id());
        let ncols = config.ocn_nlon * config.ocn_nlat;
        let (root, ocn) = coupler_maps(config, ncols);
        let scatter = Rearranger::new(Router::build(&root, &ocn), 21);
        let gather = Rearranger::new(Router::build(&ocn, &root), 22);
        let mine = ocn.local_size(rank.id());
        let global: Vec<f64> = (0..ncols).map(|c| c as f64).collect();
        let local: Vec<f64> = (0..mine).map(|c| c as f64).collect();
        let (scatter_src, scatter_len, gather_len): (&[f64], usize, usize) = if rank.id() == 0 {
            (&global, mine, ncols)
        } else {
            (&[], mine, 0)
        };
        let gather_src: &[f64] = if mine > 0 { &local } else { &[] };
        for _ in 0..couplings {
            rank.barrier();
            log.time("cpl.rearrange", || {
                for _ in 0..4 {
                    scatter.rearrange(rank, config.strategy, scatter_src, scatter_len);
                }
                for _ in 0..3 {
                    gather.rearrange(rank, config.strategy, gather_src, gather_len);
                }
            });
        }
        log
    });
    logs.swap_remove(0)
}

/// The traced run's layer timings plus every recorded span. `before_unit`
/// runs ahead of each replayed unit, so a caller can pair every unit with
/// an untraced run made at the same time.
pub fn measure(
    workload: &Workload,
    seed: u64,
    budget: Duration,
    work: &Path,
    before_unit: &(dyn Fn() + Sync),
) -> Result<(LayerTimes, Vec<Span>), String> {
    let config = workload.config(seed);
    let origin = Instant::now();
    let mut setup_log = SpanLog::new(origin, 0);
    let (grid_build_s, cpl_setup_s) = setup_layers(&config, 7, &mut setup_log);
    let rearrange_log = replay_rearrange(&config, 48, origin);
    let replay_budget = budget.saturating_sub(origin.elapsed());
    let ckpt_root = work.join("layer_ckpt");
    let replay = replay_components(
        &config,
        workload.checkpoint,
        seed,
        replay_budget,
        &ckpt_root,
        origin,
        before_unit,
    )?;
    let _ = std::fs::remove_dir_all(&ckpt_root);

    let log = &replay.log;
    // Seconds per replayed unit spent in spans named in `names`.
    let per_unit = |names: &[&str]| -> Vec<f64> {
        let ends = replay.unit_starts[1..]
            .iter()
            .copied()
            .chain([replay.units_end]);
        replay
            .unit_starts
            .iter()
            .zip(ends)
            .map(|(&from, to)| {
                log.spans[from..to]
                    .iter()
                    .filter(|s| names.contains(&s.name))
                    .map(|s| s.dur_ns as f64 * 1e-9)
                    .sum()
            })
            .collect()
    };
    let per_day = |name: &str| median(&per_unit(&[name])).unwrap_or(0.0) / SAMPLE_DAYS;
    let cpl_rearrange_s_per_coupling =
        median(&rearrange_log.durations("cpl.rearrange")).unwrap_or(0.0);
    // What the layers account for of one unit: the model's compute layers
    // and rearrangement, plus guards and checkpoint writes where the
    // workload runs them.
    let mut covered = vec!["atm.dyn", "physics.apply", "ocn.step"];
    if workload.checkpoint {
        covered.extend(["esm.guard", "io.ckpt_write"]);
    }
    let rearrange_per_unit = cpl_rearrange_s_per_coupling * replay.ocn_couplings_per_unit as f64;
    let covered_s_per_unit = per_unit(&covered)
        .into_iter()
        .map(|s| s + rearrange_per_unit)
        .collect();
    let units = replay.unit_starts.len() as f64;
    let times = LayerTimes {
        grid_build_s,
        cpl_setup_s,
        atm_dyn_s_per_day: per_day("atm.dyn"),
        physics_apply_s_per_day: per_day("physics.apply"),
        ocn_step_s_per_day: per_day("ocn.step"),
        esm_guard_s_per_day: median(&log.durations("esm.guard")).unwrap_or(0.0)
            * replay.ocn_couplings_per_unit as f64
            / SAMPLE_DAYS,
        io_ckpt_write_s: median(&log.durations("io.ckpt_write")).unwrap_or(0.0),
        io_ckpt_bytes: replay.ckpt_bytes as f64,
        io_restart_read_s: median(&log.durations("io.restart_read")).unwrap_or(0.0),
        cpl_rearrange_s_per_coupling,
        covered_s_per_unit,
        spans_per_day: log.spans.len() as f64 / (units * SAMPLE_DAYS),
        replay_days: units * SAMPLE_DAYS,
    };
    let mut spans = setup_log.spans;
    spans.extend(rearrange_log.spans);
    spans.extend(replay.log.spans);
    Ok((times, spans))
}

/// Cost (s) of recording one span, measured on empty spans.
pub fn span_cost_s() -> f64 {
    const N: usize = 100_000;
    let mut log = SpanLog::new(Instant::now(), 0);
    log.spans.reserve(N);
    let t0 = Instant::now();
    for _ in 0..N {
        log.time("empty", || ());
    }
    t0.elapsed().as_secs_f64() / N as f64
}
