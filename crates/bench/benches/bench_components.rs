//! Component step costs: atmosphere dycore step, ocean step with and
//! without 3-D point exclusion (the per-step side of Fig. 5 / Table 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ap3esm_atm::dycore::{Dycore, DycoreConfig};
use ap3esm_atm::state::AtmState;
use ap3esm_comm::World;
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::mask::MaskGenerator;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_grid::GeodesicGrid;
use ap3esm_ocn::model::{OcnConfig, OcnForcing, OcnModel};

fn bench_atm(c: &mut Criterion) {
    let grid = std::sync::Arc::new(GeodesicGrid::new(4));
    let dx = grid.mean_spacing_km();
    let dycore = Dycore::new(std::sync::Arc::clone(&grid), DycoreConfig::for_spacing_km(dx));
    let mut state = AtmState::isothermal(grid, 8, 288.0);
    state.ps[0] += 300.0;
    c.bench_function("atm_dyn_substep_g4", |b| {
        b.iter(|| dycore.step_dyn(&mut state, dycore.config.dt_dyn));
    });
}

fn bench_ocn(c: &mut Criterion) {
    let grid = TripolarGrid::new(72, 46, 10, MaskGenerator::default());
    let mut group = c.benchmark_group("ocn_step_72x46x10");
    group.sample_size(10);
    for exclude in [true, false] {
        let label = if exclude { "excluded" } else { "dense" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &exclude, |b, &exclude| {
            let mut config = OcnConfig::for_grid(72, 46, 10, 1, 1);
            config.exclude_land = exclude;
            b.iter(|| {
                let world = World::new(1);
                world.run(|rank| {
                    let decomp = BlockDecomp2d::new(72, 46, 1, 1);
                    let mut model = OcnModel::new(&grid, config.clone(), 0);
                    let forcing = OcnForcing::climatology(&grid, &decomp, 0);
                    for _ in 0..2 {
                        model.step(rank, &forcing);
                    }
                });
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_atm, bench_ocn);
criterion_main!(benches);
