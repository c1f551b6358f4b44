//! Tier-1 integration tests for the resilience layer (ISSUE PR 2).
//!
//! The acceptance scenario: a coupled run with an injected mid-run rank
//! failure *and* one corrupted checkpoint sub-file must complete via
//! checkpoint rollback, and its final trajectory must be **bit-exact**
//! with a fault-free run of the same configuration.

use ap3esm::comm::{FaultInjector, FaultPlan};
use ap3esm::esm::RecoveryConfig;
use ap3esm::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ap3esm-resil-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_bitwise(name: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{name}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{name}[{i}] diverged: {x} vs {y}"
        );
    }
}

/// Kill an ocean rank at ocean coupling 3 and corrupt one byte of the
/// checkpoint the rollback would prefer, forcing a fallback to the older
/// checkpoint. The run must still finish, recovered, and bit-exact.
#[test]
fn rank_kill_and_corrupt_checkpoint_recover_bit_exact() {
    let config = CoupledConfig::test_tiny();

    // Fault-free reference trajectory.
    let plain = CoupledOptions {
        days: 1.0,
        ..Default::default()
    };
    let world = World::new(config.world_size());
    let reference = world.run(|rank| run_coupled(rank, &config, &plain));

    // Faulted run: checkpoints at every ocean coupling; rank 2 (an ocean
    // rank) loses its state at coupling 3, and checkpoint 2 — the one the
    // rollback tries first — has a flipped payload byte in `atm_theta`.
    let plan = FaultPlan::parse(
        "kill rank=2 step=3\ncorrupt ckpt=2 field=atm_theta subfile=1 byte=100",
    )
    .unwrap();
    let ckpt_dir = tmpdir("recover");
    // A stale committed checkpoint from a "previous run" sharing the
    // directory: the driver must clear it at startup, or the rollback
    // would restore foreign state (its id would shadow this run's).
    let stale = ckpt_dir.join("ckpt_00000099");
    std::fs::create_dir_all(&stale).unwrap();
    std::fs::write(stale.join("COMMIT"), "99\n").unwrap();
    let opts = CoupledOptions {
        days: 1.0,
        report_name: Some("resilience-it".into()),
        checkpoint_dir: Some(ckpt_dir.clone()),
        recovery: RecoveryConfig {
            checkpoint_interval: 1,
            keep_checkpoints: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let world = World::new(config.world_size())
        .with_fault_injector(Arc::new(FaultInjector::new(plan)));
    let faulted = world.run(|rank| run_coupled(rank, &config, &opts));

    for (r, stats) in faulted.iter().enumerate() {
        assert!(
            stats.failure.is_none(),
            "rank {r} reported failure: {:?}",
            stats.failure
        );
        assert_eq!(stats.recoveries, 1, "rank {r}: expected exactly one rollback");
    }

    let (r0, f0) = (&reference[0], &faulted[0]);
    assert_bitwise("sst_series", &r0.sst_series, &f0.sst_series);
    assert_bitwise("ke_series", &r0.ke_series, &f0.ke_series);
    assert_bitwise("theta_series", &r0.theta_series, &f0.theta_series);
    assert_bitwise("ice_series", &r0.ice_series, &f0.ice_series);
    assert_eq!(r0.simulated_seconds, f0.simulated_seconds);

    // The fault stream must record the kill, the applied corruption, and
    // the rejected-restore of the damaged checkpoint.
    let events = f0.fault_events.join("\n");
    assert!(events.contains("killed"), "no kill event in: {events}");
    assert!(
        events.contains("corrupted checkpoint 2"),
        "no corruption event in: {events}"
    );
    assert!(
        events.contains("checkpoint 2 rejected at restore"),
        "no rejected-restore event in: {events}"
    );

    // The obs run report surfaces the recovery in machine-readable form.
    let report = f0.report_json.as_deref().expect("report requested");
    assert!(report.contains("\"recoveries\""), "report lacks recoveries");
    assert!(report.contains("fault_events"), "report lacks fault_events");
    assert!(report.contains("killed"), "report lacks the kill event");

    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

/// With the recovery budget at zero, the same rank kill must end in a
/// clean structured failure on every rank — no panic, no hang.
#[test]
fn exhausted_recovery_budget_is_a_clean_structured_failure() {
    let config = CoupledConfig::test_tiny();
    let plan = FaultPlan::parse("kill rank=0 step=2").unwrap();
    let ckpt_dir = tmpdir("budget");
    let opts = CoupledOptions {
        days: 1.0,
        checkpoint_dir: Some(ckpt_dir.clone()),
        recovery: RecoveryConfig {
            checkpoint_interval: 1,
            max_recoveries: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    let world = World::new(config.world_size())
        .with_fault_injector(Arc::new(FaultInjector::new(plan)));
    let all = world.run(|rank| run_coupled(rank, &config, &opts));

    for (r, stats) in all.iter().enumerate() {
        let failure = stats
            .failure
            .as_deref()
            .unwrap_or_else(|| panic!("rank {r} should carry the structured failure"));
        assert!(
            failure.contains("fatal state at ocn coupling 2"),
            "rank {r}: unexpected failure text: {failure}"
        );
        // The run stopped early, at the failed coupling.
        assert!(stats.simulated_seconds < 86_400.0, "rank {r} ran to completion");
    }

    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

/// The resilience path disabled (no checkpoint dir, no injector) must not
/// perturb the trajectory: this is the zero-cost-when-disabled guarantee.
#[test]
fn checkpointing_alone_does_not_perturb_the_trajectory() {
    let config = CoupledConfig::test_tiny();
    let plain = CoupledOptions {
        days: 0.5,
        ..Default::default()
    };
    let world = World::new(config.world_size());
    let reference = world.run(|rank| run_coupled(rank, &config, &plain));

    let ckpt_dir = tmpdir("noop");
    let opts = CoupledOptions {
        days: 0.5,
        checkpoint_dir: Some(ckpt_dir.clone()),
        recovery: RecoveryConfig {
            checkpoint_interval: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let world = World::new(config.world_size());
    let checkpointed = world.run(|rank| run_coupled(rank, &config, &opts));

    assert_bitwise(
        "sst_series",
        &reference[0].sst_series,
        &checkpointed[0].sst_series,
    );
    assert_bitwise(
        "ke_series",
        &reference[0].ke_series,
        &checkpointed[0].ke_series,
    );
    assert_eq!(checkpointed[0].recoveries, 0);
    assert!(checkpointed[0].failure.is_none());
    assert!(checkpointed[0].fault_events.is_empty());

    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

/// The sequential layout (coupler and ocean on one rank) takes the same
/// recovery path: a kill at ocean coupling 3 plus a corrupted preferred
/// checkpoint must roll back through both sides' checkpoint write and
/// restore, and finish bit-exact with the fault-free sequential run.
#[test]
fn single_domain_kill_and_corrupt_checkpoint_recover_bit_exact() {
    let mut config = CoupledConfig::test_tiny();
    config.single_domain = true;
    (config.ocn_px, config.ocn_py) = (1, 1);
    assert_eq!(config.world_size(), 1);

    let plain = CoupledOptions {
        days: 1.0,
        ..Default::default()
    };
    let reference = World::new(1).run(|rank| run_coupled(rank, &config, &plain));

    let plan = FaultPlan::parse(
        "kill rank=0 step=3\ncorrupt ckpt=2 field=atm_theta subfile=0 byte=100",
    )
    .unwrap();
    let ckpt_dir = tmpdir("single-domain");
    let opts = CoupledOptions {
        days: 1.0,
        checkpoint_dir: Some(ckpt_dir.clone()),
        recovery: RecoveryConfig {
            checkpoint_interval: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let faulted = World::new(1)
        .with_fault_injector(Arc::new(FaultInjector::new(plan)))
        .run(|rank| run_coupled(rank, &config, &opts));

    let (r0, f0) = (&reference[0], &faulted[0]);
    assert!(f0.failure.is_none(), "run failed: {:?}", f0.failure);
    assert_eq!(f0.recoveries, 1, "expected exactly one rollback");
    assert!(
        f0.fault_events
            .iter()
            .any(|e| e.contains("checkpoint 2 rejected at restore")),
        "no rejected-restore event in: {:?}",
        f0.fault_events
    );
    assert_bitwise("sst_series", &r0.sst_series, &f0.sst_series);
    assert_bitwise("ke_series", &r0.ke_series, &f0.ke_series);
    assert_bitwise("theta_series", &r0.theta_series, &f0.theta_series);
    assert_bitwise("ice_series", &r0.ice_series, &f0.ice_series);
    assert_eq!(r0.simulated_seconds, f0.simulated_seconds);

    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
