//! The dycore and ocean hot loops allocate a fixed number of buffers per
//! step, however large the grid: a model step's workspace is a handful of
//! grid-sized arrays, not one array per level, substep or ocean column.
//!
//! This binary installs a counting global allocator. Counts are kept per
//! thread, so other tests running in parallel (and the harness itself)
//! do not disturb them; each measurement runs on the thread that steps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ap3esm::atm::dycore::{Dycore, DycoreConfig};
use ap3esm::atm::state::AtmState;
use ap3esm::comm::World;
use ap3esm::grid::decomp::BlockDecomp2d;
use ap3esm::grid::mask::MaskGenerator;
use ap3esm::grid::tripolar::TripolarGrid;
use ap3esm::grid::GeodesicGrid;
use ap3esm::ocn::model::{OcnConfig, OcnForcing, OcnModel};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; counting touches only a thread-local `Cell`
// (const-initialised, no destructor) and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Steady-state allocations of one `step_model_dynamics` on a grid level
/// and level count (after one warm-up step).
fn dycore_allocs_per_step(glevel: u32, nlev: usize) -> u64 {
    let grid = Arc::new(GeodesicGrid::new(glevel));
    let dycore = Dycore::new(
        Arc::clone(&grid),
        DycoreConfig::for_spacing_km(grid.mean_spacing_km()),
    );
    let mut state = AtmState::isothermal(grid, nlev, 285.0);
    for (i, p) in state.ps.iter_mut().enumerate() {
        *p += 200.0 * (i as f64 * 0.37).sin();
    }
    dycore.step_model_dynamics(&mut state);
    let steps = 3;
    let n = allocations_in(|| {
        for _ in 0..steps {
            dycore.step_model_dynamics(&mut state);
        }
    });
    assert!(state.ps.iter().all(|p| p.is_finite()));
    n / steps
}

/// Steady-state allocations of one ocean `step` on an `nlon × nlat × 6`
/// single-rank mesh (after one warm-up step), with its active-column count.
fn ocean_allocs_per_step(nlon: usize, nlat: usize) -> (u64, usize) {
    let nlev = 6;
    let grid = TripolarGrid::new(nlon, nlat, nlev, MaskGenerator::default());
    let config = OcnConfig::for_grid(nlon, nlat, nlev, 1, 1);
    let world = World::new(1);
    let mut out = world.run(|rank| {
        let decomp = BlockDecomp2d::new(nlon, nlat, 1, 1);
        let mut model = OcnModel::new(&grid, config.clone(), 0);
        let forcing = OcnForcing::climatology(&grid, &decomp, 0);
        model.step(rank, &forcing);
        let steps = 3;
        let n = allocations_in(|| {
            for _ in 0..steps {
                model.step(rank, &forcing);
            }
        });
        (n / steps as u64, model.state.active_columns().len())
    });
    out.swap_remove(0)
}

#[test]
fn dycore_step_allocations_do_not_scale_with_grid_or_levels() {
    let small = dycore_allocs_per_step(3, 4);
    let large = dycore_allocs_per_step(4, 8);
    assert_eq!(
        small, large,
        "allocations per model step: G3×4 {small}, G4×8 {large}"
    );
}

#[test]
fn ocean_step_allocations_do_not_scale_with_active_columns() {
    let (small, small_cols) = ocean_allocs_per_step(36, 24);
    let (large, large_cols) = ocean_allocs_per_step(72, 46);
    assert!(
        large_cols > 2 * small_cols,
        "{small_cols} vs {large_cols} columns"
    );
    assert_eq!(
        small, large,
        "allocations per ocean step: 36×24 ({small_cols} columns) {small}, \
         72×46 ({large_cols} columns) {large}"
    );
}
