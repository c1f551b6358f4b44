//! `coupledbench` — outside-in benchmark of the coupled AP3ESM model.
//!
//! Runs the full coupled model (`esm::run_coupled`) on one of three
//! workloads and reports what a user of the model sees: simulated years
//! per wall-clock day, CPU hours per simulated year, set-up (or restart)
//! time and peak memory. With `--trace 1` it instead times each layer's
//! public entry points from outside (see `layers`) and reports per-layer
//! metrics; a traced number never feeds an end-to-end metric.
//!
//! ```text
//! cargo run --release --manifest-path coupledbench/Cargo.toml -- \
//!     --workload coupled_2dom --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path coupledbench/Cargo.toml -- --workload all
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the host and run details. `--workload all` runs every workload
//! untraced and traced and prints a table instead. The exit code is 1
//! when any run fails its correctness check, 2 on a usage or set-up error.

mod check;
mod host;
mod layers;
mod stats;
mod sys;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ap3esm_esm::{get_timing, CheckpointStore, CoupledConfig, CoupledOptions};
use ap3esm_obs::json::Json;

use check::{check_ranks, check_run, check_same, Finals, Reference};
use host::Host;
use workload::{run_once, Run, WorkDir, Workload, SAMPLE_DAYS, WORKLOADS};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// End-to-end metrics (untraced runs only): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("sypd", "SY/day"),
    ("cpu_h_per_sy", "cpu-h/SY"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (the traced run): name and unit.
const PER_LAYER: [(&str, &str); 17] = [
    ("atm.dyn_s_per_day", "s/day"),
    ("physics.apply_s_per_day", "s/day"),
    ("ocn.step_s_per_day", "s/day"),
    ("cpl.rearrange_s_per_coupling", "s"),
    ("cpl.setup_s", "s"),
    ("grid.build_s", "s"),
    ("comm.msgs_per_day", "count/day"),
    ("comm.bytes_per_day", "bytes/day"),
    ("esm.rank_busy_frac", "frac"),
    ("esm.guard_s_per_day", "s/day"),
    ("io.ckpt_write_s", "s"),
    ("io.ckpt_bytes", "bytes"),
    ("io.restart_read_s", "s"),
    ("alloc.count_per_day", "count/day"),
    ("alloc.bytes_per_day", "bytes/day"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// End-to-end metrics reported as the best passing sample of the timed
/// window (highest `sypd`, lowest `cpu_h_per_sy`) instead of the median.
/// On a shared host the CPU slows by up to 2x in phases lasting minutes,
/// with no steal time (CPU time stretches with wall time), so a window's
/// median reads the phase it ran in. Its best sample is the model's speed
/// while the host leaves it undisturbed; a slower model lowers it just the
/// same. Every sample, with the median, is still printed on stderr.
fn best_of_window(name: &str) -> Option<fn(f64, f64) -> f64> {
    match name {
        "sypd" => Some(f64::max),
        "cpu_h_per_sy" => Some(f64::min),
        _ => None,
    }
}

/// Zero-day runs whose median wall time the traced run subtracts from
/// each untraced run's wall time (odd, for a plain median).
const TRACED_SETUP_REPS: usize = 5;
/// Fewest timed runs per untraced measurement, however short `--seconds`.
const MIN_SAMPLES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    keep_workdir: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        keep_workdir: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--keep-workdir" {
            args.keep_workdir = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Every coupled run an invocation makes, and the ones that failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, verdict: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match verdict {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }
}

/// Structural check of a zero-day run.
fn checked_setup(run: &Run) -> Result<(), String> {
    run.stats
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|s| check_ranks(s))
}

/// Full check of a run that simulated time, including bitwise agreement
/// with the first completed run of the same seed (`expect`).
fn checked(
    run: &Run,
    reference: &Reference,
    expect: &mut Option<Finals>,
) -> Result<Finals, String> {
    let stats = run.stats.as_ref().map_err(Clone::clone)?;
    let finals = check_run(stats, reference)?;
    match expect {
        Some(e) => check_same(e, &finals)?,
        None => *expect = Some(finals),
    }
    Ok(finals)
}

/// Copy the newest committed checkpoint under `ckpt` to `dst`, outside the
/// checkpoint store (which every run clears at start-up).
fn copy_latest_checkpoint(ckpt: &Path, dst: &Path) -> Result<(), String> {
    let store = CheckpointStore::new(ckpt, 1);
    let id = store
        .latest()
        .ok_or("no committed checkpoint to resume from")?;
    std::fs::create_dir_all(dst).map_err(|e| e.to_string())?;
    let src = store.dir(id);
    for entry in std::fs::read_dir(&src).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), dst.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Options of a set-up run: zero days. On a checkpointing workload each
/// set-up run resumes from a committed checkpoint (job restart), which a
/// one-coupling run writes first. Set-up runs get a checkpoint store of
/// their own: every run clears its store at start-up, and clearing the
/// timed runs' checkpoints is not part of a restart.
fn setup_options(w: &Workload, seed: u64, work: &Path, tally: &mut Tally) -> CoupledOptions {
    let ckpt = work.join("setup-ckpt");
    let source = work.join("resume");
    if w.checkpoint {
        let config = w.config(seed);
        let one_coupling = 1.0 / config.couplings_per_day.1 as f64;
        let run = run_once(&config, &w.options(seed, one_coupling, Some(&ckpt), None));
        let ready = checked_setup(&run).and_then(|_| copy_latest_checkpoint(&ckpt, &source));
        tally.record("resume source", ready);
    }
    w.options(
        seed,
        0.0,
        Some(&ckpt),
        w.checkpoint.then_some(source.as_path()),
    )
}

/// Wall time of one checked set-up run, `None` when it failed.
fn setup_run(config: &CoupledConfig, opts: &CoupledOptions, tally: &mut Tally) -> Option<f64> {
    let run = run_once(config, opts);
    tally
        .record("set-up run", checked_setup(&run))
        .map(|_| run.wall_s)
}

/// Untraced measurement: per-sample end-to-end values of every passing
/// timed run, keyed like [`END_TO_END`]. A set-up run precedes every timed
/// run, so the set-up median spans the same stretch of host speed as the
/// timed runs instead of one second of it.
fn untraced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    reference: &Reference,
    tally: &mut Tally,
) -> Vec<(&'static str, Vec<f64>)> {
    let config = w.config(seed);
    let zero = setup_options(w, seed, work, tally);
    let ckpt = work.join("ckpt");
    // The other two layouts at the same seed must end bitwise identical.
    // Run before the timed window, they also warm it up.
    let mut expect = None;
    for other in WORKLOADS.iter().filter(|o| o.name != w.name) {
        let run = run_once(
            &other.config(seed),
            &other.options(seed, SAMPLE_DAYS, Some(&ckpt), None),
        );
        tally.record(other.name, checked(&run, reference, &mut expect));
    }
    let opts = w.options(seed, SAMPLE_DAYS, Some(&ckpt), None);
    let (mut sypd, mut cpu, mut rss, mut setup) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut runs = 0;
    while runs < MIN_SAMPLES || t0.elapsed().as_secs_f64() < seconds {
        runs += 1;
        setup.extend(setup_run(&config, &zero, tally));
        let run = run_once(&config, &opts);
        eprintln!(
            "sample {runs}: wall {:.4} s, cpu {:.4} s",
            run.wall_s, run.cpu_s
        );
        if tally
            .record(w.name, checked(&run, reference, &mut expect))
            .is_some()
        {
            sypd.push(get_timing(SAMPLE_DAYS * 86_400.0, run.wall_s));
            cpu.push(run.cpu_s / 3600.0 / (SAMPLE_DAYS / 365.0));
            if let Some(b) = run.peak_rss_bytes {
                rss.push(b as f64 / (1u64 << 20) as f64);
            }
        }
    }
    if let Some(f) = expect {
        eprintln!(
            "final state {} seed {seed}: theta {} K, sst {} C, ocean KE {} J, ice {}",
            w.name, f.theta_k, f.sst_c, f.ocn_ke_j, f.ice_cover
        );
    }
    vec![
        ("sypd", sypd),
        ("cpu_h_per_sy", cpu),
        ("setup_s", setup),
        ("peak_rss_mb", rss),
    ]
}

/// Traced measurement: one value per [`PER_LAYER`] metric. Untraced runs
/// here only supply denominators and exact counts; layer times come from
/// the outside-in replay. Each replayed unit follows an untraced run of
/// the same length, so coverage compares layer and wall time measured
/// side by side on a host whose speed drifts.
fn traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    reference: &Reference,
    tally: &mut Tally,
) -> Vec<(&'static str, Vec<f64>)> {
    let t0 = Instant::now();
    let config = w.config(seed);
    let ckpt = work.join("ckpt");
    let opts = w.options(seed, SAMPLE_DAYS, Some(&ckpt), None);
    let zero = w.options(seed, 0.0, Some(&ckpt), None);
    let setups: Vec<f64> = (0..TRACED_SETUP_REPS)
        .filter_map(|_| setup_run(&config, &zero, tally))
        .collect();
    let setup_s = stats::median(&setups).unwrap_or(0.0);

    // Allocation counts: a run minus a zero-day run, both counted.
    let mut expect = None;
    let (base, a0, b0) = sys::count_allocations(|| run_once(&config, &zero));
    tally.record("counted set-up run", checked_setup(&base));
    let (counted, a1, b1) = sys::count_allocations(|| run_once(&config, &opts));
    tally.record("counted run", checked(&counted, reference, &mut expect));

    let runs = Mutex::new(Vec::new());
    let untraced_run = || {
        let run = run_once(&config, &opts);
        runs.lock().expect("runs").push(run);
    };
    let budget = Duration::from_secs_f64(seconds).saturating_sub(t0.elapsed());
    let replay = layers::measure(w, seed, budget, work, &untraced_run);
    let runs = runs.into_inner().expect("runs");
    let passed: Vec<bool> = runs
        .iter()
        .map(|run| {
            tally
                .record(w.name, checked(run, reference, &mut expect))
                .is_some()
        })
        .collect();
    let Some((t, spans)) = tally.record("layer replay", replay) else {
        return Vec::new();
    };
    let dump = work.join(format!("spans-{}.json", w.name));
    if let Err(e) = std::fs::write(&dump, layers::spans_to_json(&spans).to_string()) {
        eprintln!("span dump {}: {e}", dump.display());
    }

    // Each passing untraced run with the layer time of the unit replayed
    // right after it.
    let paired: Vec<(&Run, f64)> = runs
        .iter()
        .zip(&t.covered_s_per_unit)
        .zip(&passed)
        .filter(|(_, &ok)| ok)
        .map(|((run, &covered), _)| (run, covered))
        .collect();
    let Some(&(first, _)) = paired.first() else {
        return Vec::new();
    };
    let walls: Vec<f64> = paired.iter().map(|(r, _)| r.wall_s - setup_s).collect();
    let coverage: Vec<f64> = paired
        .iter()
        .zip(&walls)
        .map(|((_, covered), wall)| covered / wall)
        .collect();
    let busy: Vec<f64> = paired
        .iter()
        .map(|(r, _)| r.cpu_s / (r.wall_s * r.world_size as f64))
        .collect();
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let wall_per_day = median(&walls) / SAMPLE_DAYS;
    let overhead = layers::span_cost_s() * t.spans_per_day / wall_per_day;
    eprintln!(
        "reconcile {}: untraced {wall_per_day:.3} s/day, layers {:.3} s/day, \
         coverage {:.3}, span overhead {:.2e} of wall ({} replayed days)",
        w.name,
        median(&t.covered_s_per_unit) / SAMPLE_DAYS,
        median(&coverage),
        overhead,
        t.replay_days
    );
    let per_day = |x: f64| x / SAMPLE_DAYS;
    [
        ("atm.dyn_s_per_day", t.atm_dyn_s_per_day),
        ("physics.apply_s_per_day", t.physics_apply_s_per_day),
        ("ocn.step_s_per_day", t.ocn_step_s_per_day),
        (
            "cpl.rearrange_s_per_coupling",
            t.cpl_rearrange_s_per_coupling,
        ),
        ("cpl.setup_s", t.cpl_setup_s),
        ("grid.build_s", t.grid_build_s),
        ("comm.msgs_per_day", per_day(first.msgs as f64)),
        ("comm.bytes_per_day", per_day(first.bytes as f64)),
        ("esm.rank_busy_frac", median(&busy)),
        ("esm.guard_s_per_day", t.esm_guard_s_per_day),
        ("io.ckpt_write_s", t.io_ckpt_write_s),
        ("io.ckpt_bytes", t.io_ckpt_bytes),
        ("io.restart_read_s", t.io_restart_read_s),
        ("alloc.count_per_day", per_day(a1.saturating_sub(a0) as f64)),
        ("alloc.bytes_per_day", per_day(b1.saturating_sub(b0) as f64)),
        ("trace.coverage", median(&coverage)),
        ("trace.overhead_frac", overhead),
    ]
    .into_iter()
    .map(|(name, v)| (name, vec![v]))
    .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("every emitted metric is declared")
}

/// The reported value of every metric in `names`: the best sample for
/// [`best_of_window`], otherwise the median (missing or empty ones are
/// absent).
fn reported(
    names: &[(&'static str, &'static str)],
    samples: &[(&'static str, Vec<f64>)],
) -> Vec<(&'static str, f64)> {
    names
        .iter()
        .filter_map(|(name, _)| {
            let values = &samples.iter().find(|(n, _)| n == name)?.1;
            let value = match best_of_window(name) {
                Some(better) => values.iter().copied().reduce(better),
                None => stats::median(values),
            };
            value.map(|v| (*name, v))
        })
        .collect()
}

/// Measure one workload; refuses one whose world size exceeds the CPUs.
fn measure(
    w: &Workload,
    args: &Args,
    host: &Host,
    trace: bool,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, Vec<f64>)>, String> {
    if w.world_size() > host.nproc {
        return Err(format!(
            "{} needs {} rank threads but this host has {} CPUs",
            w.name,
            w.world_size(),
            host.nproc
        ));
    }
    let work = WorkDir::create(w.name, args.keep_workdir).map_err(|e| e.to_string())?;
    // The model's diagnostics-bundle writer honours CARGO_TARGET_DIR at
    // run time; point it into the work directory so nothing escapes it.
    std::env::set_var("CARGO_TARGET_DIR", work.path.join("target"));
    let reference = Reference::shipped();
    let samples = if trace {
        traced(w, args.seed, args.seconds, &work.path, &reference, tally)
    } else {
        untraced(w, args.seed, args.seconds, &work.path, &reference, tally)
    };
    for (name, values) in &samples {
        if let Some(s) = stats::summarize(values) {
            eprintln!(
                "{:<14} {name:<30} n={:<3} q1={:<12.6} median={:<12.6} q3={:<12.6} iqr/med={:.4} {}",
                w.name,
                s.n,
                s.q1,
                s.median,
                s.q3,
                s.rel_iqr(),
                unit_of(name)
            );
        }
    }
    Ok(samples)
}

fn metrics_json(values: &[(&'static str, f64)]) -> Json {
    let mut m = Json::obj();
    for (name, v) in values {
        let mut entry = Json::obj();
        entry
            .set("value", Json::Num(*v))
            .set("unit", Json::Str(unit_of(name).to_string()));
        m.set(name, entry);
    }
    m
}

/// `--workload all`: every workload untraced then traced, as a table.
fn run_all(args: &Args, host: &Host) -> ExitCode {
    let mut tally = Tally::default();
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            match measure(w, args, host, trace, &mut tally) {
                Ok(samples) => {
                    for (name, v) in reported(names, &samples) {
                        rows.push((w.name, name, v));
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    println!("host {}", host.to_json());
    println!("{:<14} {:<30} {:>16}  unit", "workload", "metric", "value");
    for (w, name, v) in &rows {
        println!("{w:<14} {name:<30} {v:>16.6}  {}", unit_of(name));
    }
    let frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("{:<14} {:<30} {frac:>16.6}  frac", "all", "failed_run_frac");
    if tally.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("coupledbench: {e}");
            eprintln!(
                "usage: coupledbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--keep-workdir]",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    if args.workload == "all" {
        return run_all(&args, &host);
    }
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!("coupledbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let mut tally = Tally::default();
    let samples = match measure(w, &args, &host, args.trace, &mut tally) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("coupledbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let values = reported(names, &samples);
    let complete = values.len() == names.len();
    let correct = tally.failed == 0 && complete;

    let mut run = Json::obj();
    run.set("workload", Json::Str(w.name.to_string()))
        .set("seed", Json::UInt(args.seed))
        .set("world_size", Json::UInt(w.world_size() as u64))
        .set("trace", Json::Bool(args.trace))
        .set("seconds", Json::Num(args.seconds))
        .set("sample_days", Json::Num(SAMPLE_DAYS))
        .set(
            "failed_run_frac",
            Json::Num(tally.failed as f64 / tally.attempted.max(1) as f64),
        );
    let mut info = Json::obj();
    info.set("host", host.to_json()).set("run", run);
    println!("{info}");

    let mut result = Json::obj();
    result
        .set("correct", Json::Bool(correct))
        .set("attempted", Json::UInt(tally.attempted))
        .set("failed", Json::UInt(tally.failed))
        .set("metrics", metrics_json(&values));
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_and_unit_is_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let workloads = WORKLOADS.iter().map(|w| (w.name, "x"));
        for (name, unit) in END_TO_END.into_iter().chain(PER_LAYER).chain(workloads) {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(
                unit == "x" || valid_unit(unit),
                "bad unit {unit:?} of {name}"
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(!valid_name("a b") && !valid_name("é") && !valid_name(".x"));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert!(!workloads.is_empty());
        for name in &workloads {
            assert!(Workload::by_name(name).is_some(), "unknown workload {name}");
        }
    }

    #[test]
    fn reported_values_skip_missing_metrics() {
        let samples = vec![
            ("sypd", vec![3.0, 1.0, 2.0]),
            ("cpu_h_per_sy", vec![3.0, 1.0, 2.0]),
            ("setup_s", vec![]),
            ("peak_rss_mb", vec![3.0, 1.0, 2.0]),
        ];
        assert_eq!(
            reported(&END_TO_END, &samples),
            vec![("sypd", 3.0), ("cpu_h_per_sy", 1.0), ("peak_rss_mb", 2.0)]
        );
    }
}
