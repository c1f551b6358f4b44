//! The ocean model driver: split time stepping, halo exchange, masking and
//! the point-exclusion loop path.

use ap3esm_comm::{CommError, HaloExchange, Rank};
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_physics::constants::CP_SEAWATER;

use crate::eos::density;
use crate::mixing::{CanutoMixing, MixingColumn};
use crate::state::OcnState;
use crate::{G, RHO0};

/// Model configuration.
#[derive(Debug, Clone)]
pub struct OcnConfig {
    pub nlon: usize,
    pub nlat: usize,
    pub nlev: usize,
    /// Process mesh.
    pub px: usize,
    pub py: usize,
    /// Baroclinic/tracer timestep (s); the paper uses 20 s at 1 km.
    pub dt_baroclinic: f64,
    /// Barotropic substeps per baroclinic step (paper ratio 20 s : 2 s = 10).
    pub n_barotropic: usize,
    /// §5.2.2 point exclusion on/off (the Fig. 5 ablation switch).
    pub exclude_land: bool,
    /// Rayleigh drag on the barotropic mode (1/s).
    pub r_drag: f64,
    /// Offset added to decomposition rank ids to get world rank ids (the
    /// coupled model places the ocean domain at world ranks `offset..`).
    pub rank_offset: usize,
}

impl OcnConfig {
    /// CFL-scaled configuration for a grid: barotropic gravity waves move
    /// at √(gH) ≈ 230 m/s, so dt_btr ≈ 1.2 s per km of the *smallest ocean*
    /// spacing — the row just south of the displaced-pole land cap, where
    /// zonal convergence shrinks dx by cos(84°) (the paper's 2 s at 1 km is
    /// the same scaling with its implicit free surface and polar filter);
    /// the 1:10 barotropic:baroclinic ratio of Table 1 is kept.
    pub fn for_grid(nlon: usize, nlat: usize, nlev: usize, px: usize, py: usize) -> Self {
        let dx_km = 40_000.0 / nlon as f64
            * ap3esm_grid::tripolar::POLAR_CAP_DEG.to_radians().cos();
        let dt_btr = 1.2 * dx_km;
        OcnConfig {
            nlon,
            nlat,
            nlev,
            px,
            py,
            dt_baroclinic: dt_btr * 10.0,
            n_barotropic: 10,
            exclude_land: true,
            r_drag: 1.0e-6,
            rank_offset: 0,
        }
    }
}

/// Surface forcing on the interior cells (row-major `nj × ni`).
#[derive(Debug, Clone)]
pub struct OcnForcing {
    /// Zonal/meridional wind stress (N/m²).
    pub taux: Vec<f64>,
    pub tauy: Vec<f64>,
    /// Net surface heat flux into the ocean (W/m²).
    pub qnet: Vec<f64>,
    /// Virtual salt flux (psu·m/s, positive salts the surface).
    pub salt_flux: Vec<f64>,
}

impl OcnForcing {
    pub fn zeros(ni: usize, nj: usize) -> Self {
        OcnForcing {
            taux: vec![0.0; ni * nj],
            tauy: vec![0.0; ni * nj],
            qnet: vec![0.0; ni * nj],
            salt_flux: vec![0.0; ni * nj],
        }
    }

    /// Idealised climatological forcing: easterly trades / westerlies
    /// pattern and solar heating peaked at the equator.
    pub fn climatology(grid: &TripolarGrid, decomp: &BlockDecomp2d, rank_id: usize) -> Self {
        let block = decomp.block(rank_id);
        let (ni, nj) = (block.ni(), block.nj());
        let mut f = Self::zeros(ni, nj);
        for j in 0..nj {
            let phi = grid.lat[block.j0 + j];
            let tau = 0.08 * (3.0 * phi).sin() * phi.cos();
            let q = 120.0 * phi.cos().powi(2) - 60.0;
            for i in 0..ni {
                f.taux[j * ni + i] = tau;
                f.qnet[j * ni + i] = q;
            }
        }
        f
    }
}

/// The assembled per-rank ocean model.
pub struct OcnModel {
    pub config: OcnConfig,
    pub state: OcnState,
    halo2d: HaloExchange,
    halo3d: HaloExchange,
    mixing: CanutoMixing,
    /// Column scratch of the vertical mixing, sized to `nlev`.
    column: MixingColumn,
    /// Packed active-column list (used when `exclude_land`).
    active: Vec<(usize, usize)>,
    /// Columns visited last step (exclusion accounting for Fig. 5).
    pub columns_visited: usize,
}

impl OcnModel {
    pub fn new(grid: &TripolarGrid, config: OcnConfig, rank_id: usize) -> Self {
        let decomp = BlockDecomp2d::new(config.nlon, config.nlat, config.px, config.py);
        let state = OcnState::new(grid, &decomp, rank_id);
        let mut spec = decomp.halo_spec(rank_id);
        for link in spec.sends.iter_mut().chain(spec.recvs.iter_mut()) {
            link.peer += config.rank_offset;
        }
        let halo2d = HaloExchange::new(spec.clone(), 100);
        let halo3d = HaloExchange::new(spec, 200);
        let active = state.active_columns();
        let column = MixingColumn::with_levels(state.nlev);
        OcnModel {
            config,
            state,
            halo2d,
            halo3d,
            mixing: CanutoMixing::default(),
            column,
            active,
            columns_visited: 0,
        }
    }

    /// Iterate interior columns under the configured loop policy, calling
    /// `f(i, j, idx)` for every *ocean* column.
    fn for_active_columns(&mut self, mut f: impl FnMut(&mut OcnState, usize, usize, usize)) {
        let mut visited = 0;
        if self.config.exclude_land {
            for &(i, j) in &self.active {
                let idx = self.state.at(i, j);
                visited += 1;
                f(&mut self.state, i, j, idx);
            }
        } else {
            for j in 0..self.state.nj {
                for i in 0..self.state.ni {
                    visited += 1; // dense policy visits land too
                    let idx = self.state.at(i, j);
                    if self.state.kmt[idx] > 0 {
                        f(&mut self.state, i, j, idx);
                    }
                }
            }
        }
        self.columns_visited = visited;
    }

    /// One barotropic substep (forward-backward, rotation-implicit
    /// Coriolis).
    fn barotropic_substep(
        &mut self,
        rank: &Rank,
        forcing: &OcnForcing,
        dt: f64,
    ) -> Result<(), CommError> {
        let st = &mut self.state;
        let stride = st.stride;
        let (ni, nj) = (st.ni, st.nj);

        // Continuity: η ← η − dt·∇·(H u) with masked face fluxes.
        let mut new_eta = st.eta.clone();
        for j in 0..nj {
            for i in 0..ni {
                let idx = st.at(i, j);
                if st.kmt[idx] == 0 {
                    continue;
                }
                let (e, w, n, s) = (idx + 1, idx - 1, idx + stride, idx - stride);
                let face = |a: usize, b: usize, vel: f64| -> f64 {
                    if st.kmt[a] > 0 && st.kmt[b] > 0 {
                        0.5 * (st.depth[a] + st.depth[b]) * vel
                    } else {
                        0.0
                    }
                };
                let fx_e = face(idx, e, 0.5 * (st.ubar[idx] + st.ubar[e]));
                let fx_w = face(w, idx, 0.5 * (st.ubar[w] + st.ubar[idx]));
                let fy_n = face(idx, n, 0.5 * (st.vbar[idx] + st.vbar[n]));
                let fy_s = face(s, idx, 0.5 * (st.vbar[s] + st.vbar[idx]));
                // Meridional faces use the *shared* interface length
                // (mean of the adjacent rows' dx), so the discrete
                // divergence telescopes and volume is conserved exactly on
                // the converging tripolar rows.
                let lx_n = 0.5 * (st.dx_ext[j + 1] + st.dx_ext[j + 2]);
                let lx_s = 0.5 * (st.dx_ext[j] + st.dx_ext[j + 1]);
                let area = st.dx[j] * st.dy;
                let div = ((fx_e - fx_w) * st.dy + fy_n * lx_n - fy_s * lx_s) / area;
                new_eta[idx] = st.eta[idx] - dt * div;
            }
        }
        st.eta = new_eta;
        self.halo2d.exchange(rank, &mut self.state.eta)?;

        // Momentum: pressure gradient from the *new* η (forward-backward),
        // wind stress, drag, then implicit rotation.
        let st = &mut self.state;
        let mut new_u = st.ubar.clone();
        let mut new_v = st.vbar.clone();
        for j in 0..nj {
            for i in 0..ni {
                let idx = st.at(i, j);
                if st.kmt[idx] == 0 {
                    continue;
                }
                let (e, w, n, s) = (idx + 1, idx - 1, idx + stride, idx - stride);
                let detadx = if st.kmt[e] > 0 && st.kmt[w] > 0 {
                    (st.eta[e] - st.eta[w]) / (2.0 * st.dx[j])
                } else if st.kmt[e] > 0 {
                    (st.eta[e] - st.eta[idx]) / st.dx[j]
                } else if st.kmt[w] > 0 {
                    (st.eta[idx] - st.eta[w]) / st.dx[j]
                } else {
                    0.0
                };
                let detady = if st.kmt[n] > 0 && st.kmt[s] > 0 {
                    (st.eta[n] - st.eta[s]) / (2.0 * st.dy)
                } else if st.kmt[n] > 0 {
                    (st.eta[n] - st.eta[idx]) / st.dy
                } else if st.kmt[s] > 0 {
                    (st.eta[idx] - st.eta[s]) / st.dy
                } else {
                    0.0
                };
                let h = st.depth[idx].max(1.0);
                let fi = j * ni + i;
                let du = dt
                    * (-G * detadx - self.config.r_drag * st.ubar[idx]
                        + forcing.taux[fi] / (RHO0 * h));
                let dv = dt
                    * (-G * detady - self.config.r_drag * st.vbar[idx]
                        + forcing.tauy[fi] / (RHO0 * h));
                let (u1, v1) = (st.ubar[idx] + du, st.vbar[idx] + dv);
                let a = dt * st.fcor[j];
                let denom = 1.0 + a * a;
                new_u[idx] = (u1 + a * v1) / denom;
                new_v[idx] = (v1 - a * u1) / denom;
            }
        }
        st.ubar = new_u;
        st.vbar = new_v;
        self.halo2d
            .exchange_many(rank, &mut [&mut self.state.ubar, &mut self.state.vbar])?;
        Ok(())
    }

    /// One full baroclinic + tracer step (with `n_barotropic` substeps).
    /// Panics on communication failure; fault-tolerant drivers use
    /// [`OcnModel::try_step`].
    pub fn step(&mut self, rank: &Rank, forcing: &OcnForcing) {
        self.try_step(rank, forcing).expect("ocn step comm failure")
    }

    /// One full step, surfacing halo-exchange failures (dropped messages
    /// under fault injection, deadlocks) as [`CommError`] so the coupled
    /// driver can roll back instead of aborting.
    pub fn try_step(&mut self, rank: &Rank, forcing: &OcnForcing) -> Result<(), CommError> {
        let _span = ap3esm_obs::span("ocn_step");
        let nbt = self.config.n_barotropic;
        let dt_btr = self.config.dt_baroclinic / nbt as f64;
        {
            let _btr = ap3esm_obs::span("barotropic");
            for _ in 0..nbt {
                self.barotropic_substep(rank, forcing, dt_btr)?;
            }
        }

        let _bcl = ap3esm_obs::span("baroclinic");
        let dt = self.config.dt_baroclinic;
        let nlev = self.state.nlev;
        let stride = self.state.stride;

        // --- Baroclinic pressure: p[k]/ρ0 = g·η + g·Σ (ρ'−ρ0)/ρ0·dz ---
        let slab = self.state.eta.len();
        let mut press = vec![vec![0.0; slab]; nlev];
        {
            let st = &self.state;
            for (idx, &eta) in st.eta.iter().enumerate() {
                let mut acc = G * eta;
                for (k, pk) in press.iter_mut().enumerate() {
                    let rho = density(st.t[k][idx], st.s[k][idx]);
                    acc += G * (rho - RHO0) / RHO0 * st.dz[k];
                    pk[idx] = acc;
                }
            }
        }

        // --- Momentum + tracer advection per level (old-field copies for
        //     neighbor reads keep the update order-independent). ---
        let u_old: Vec<Vec<f64>> = self.state.u.clone();
        let v_old: Vec<Vec<f64>> = self.state.v.clone();
        let t_old: Vec<Vec<f64>> = self.state.t.clone();
        let s_old: Vec<Vec<f64>> = self.state.s.clone();
        let r_drag = self.config.r_drag;
        self.for_active_columns(|st, _i, j, idx| {
            let kmax = st.kmt[idx] as usize;
            let (e, w, n, s_) = (idx + 1, idx - 1, idx + stride, idx - stride);
            for k in 0..kmax {
                let ocean = |nb: usize| (k as u16) < st.kmt[nb];
                // Pressure gradient (masked one-sided fallbacks).
                let dpdx = if ocean(e) && ocean(w) {
                    (press[k][e] - press[k][w]) / (2.0 * st.dx[j])
                } else if ocean(e) {
                    (press[k][e] - press[k][idx]) / st.dx[j]
                } else if ocean(w) {
                    (press[k][idx] - press[k][w]) / st.dx[j]
                } else {
                    0.0
                };
                let dpdy = if ocean(n) && ocean(s_) {
                    (press[k][n] - press[k][s_]) / (2.0 * st.dy)
                } else if ocean(n) {
                    (press[k][n] - press[k][idx]) / st.dy
                } else if ocean(s_) {
                    (press[k][idx] - press[k][s_]) / st.dy
                } else {
                    0.0
                };
                let du = dt * (-dpdx - r_drag * u_old[k][idx]);
                let dv = dt * (-dpdy - r_drag * v_old[k][idx]);
                let (u1, v1) = (u_old[k][idx] + du, v_old[k][idx] + dv);
                let a = dt * st.fcor[j];
                let denom = 1.0 + a * a;
                st.u[k][idx] = (u1 + a * v1) / denom;
                st.v[k][idx] = (v1 - a * u1) / denom;

                // Upwind advection of T, S by the old velocity.
                let adv = |field: &Vec<Vec<f64>>| -> f64 {
                    let uo = u_old[k][idx];
                    let vo = v_old[k][idx];
                    let fx = if uo >= 0.0 {
                        let upw = if ocean(w) { field[k][w] } else { field[k][idx] };
                        uo * (field[k][idx] - upw) / st.dx[j]
                    } else {
                        let upw = if ocean(e) { field[k][e] } else { field[k][idx] };
                        uo * (upw - field[k][idx]) / st.dx[j]
                    };
                    let fy = if vo >= 0.0 {
                        let upw = if ocean(s_) { field[k][s_] } else { field[k][idx] };
                        vo * (field[k][idx] - upw) / st.dy
                    } else {
                        let upw = if ocean(n) { field[k][n] } else { field[k][idx] };
                        vo * (upw - field[k][idx]) / st.dy
                    };
                    -(fx + fy)
                };
                st.t[k][idx] += dt * adv(&t_old);
                st.s[k][idx] += dt * adv(&s_old);
            }
        });

        // --- Vertical mixing (implicit) + surface forcing per column. ---
        let ni = self.state.ni;
        let mixing = self.mixing;
        // Moved out while the column loop borrows `self` mutably.
        let mut col = std::mem::take(&mut self.column);
        self.for_active_columns(|st, i, j, idx| {
            let kmax = st.kmt[idx] as usize;
            if kmax == 0 {
                return;
            }
            let fi = j * ni + i;
            for (c, field) in [&mut col.t, &mut col.s, &mut col.u, &mut col.v]
                .into_iter()
                .zip([&st.t, &st.s, &st.u, &st.v])
            {
                c.clear();
                c.extend(field[..kmax].iter().map(|level| level[idx]));
            }
            let heat_flux = forcing.qnet[fi] / (RHO0 * CP_SEAWATER); // K·m/s
            let fluxes = [
                heat_flux,
                forcing.salt_flux[fi],
                forcing.taux[fi] / RHO0,
                forcing.tauy[fi] / RHO0,
            ];
            mixing.mix_column(&mut col, &st.dz[..kmax], dt, fluxes);
            for k in 0..kmax {
                st.t[k][idx] = col.t[k];
                st.s[k][idx] = col.s[k];
                st.u[k][idx] = col.u[k];
                st.v[k][idx] = col.v[k];
            }
        });
        self.column = col;

        // --- Refresh 3-D halos for the next step: one packed message per
        //     neighbor per level (u, v, T, S together). ---
        let st = &mut self.state;
        for k in 0..nlev {
            self.halo3d.exchange_many(
                rank,
                &mut [
                    &mut st.u[k][..],
                    &mut st.v[k][..],
                    &mut st.t[k][..],
                    &mut st.s[k][..],
                ],
            )?;
        }
        Ok(())
    }

    /// Volume anomaly ∫η dA over the local interior (conservation checks).
    pub fn local_volume_anomaly(&self) -> f64 {
        let st = &self.state;
        let mut v = 0.0;
        for j in 0..st.nj {
            for i in 0..st.ni {
                let idx = st.at(i, j);
                if st.kmt[idx] > 0 {
                    v += st.eta[idx] * st.dx[j] * st.dy;
                }
            }
        }
        v
    }

    /// Fraction of 3-D points actually visited vs the dense box — the
    /// Fig. 5 resource-reduction number for this rank.
    pub fn exclusion_ratio(&self) -> f64 {
        let st = &self.state;
        let active: usize = self
            .active
            .iter()
            .map(|&(i, j)| st.kmt[st.at(i, j)] as usize)
            .sum();
        active as f64 / (st.ni * st.nj * st.nlev) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_comm::World;
    use ap3esm_grid::mask::MaskGenerator;

    fn grid(nlev: usize) -> TripolarGrid {
        TripolarGrid::new(36, 24, nlev, MaskGenerator::default())
    }

    fn run_steps(px: usize, py: usize, steps: usize, exclude: bool) -> Vec<Vec<f64>> {
        let g = grid(6);
        let mut config = OcnConfig::for_grid(36, 24, 6, px, py);
        config.exclude_land = exclude;
        let world = World::new(px * py);
        world.run(|rank| {
            let decomp = BlockDecomp2d::new(36, 24, px, py);
            let mut model = OcnModel::new(&g, config.clone(), rank.id());
            let forcing = OcnForcing::climatology(&g, &decomp, rank.id());
            for _ in 0..steps {
                model.step(rank, &forcing);
            }
            // Return the interior SST row-major for comparison.
            let st = &model.state;
            let mut out = Vec::new();
            for j in 0..st.nj {
                for i in 0..st.ni {
                    out.push(st.t[0][st.at(i, j)]);
                }
            }
            out
        })
    }

    #[test]
    fn model_runs_stably_with_forcing() {
        let g = grid(6);
        let config = OcnConfig::for_grid(36, 24, 6, 1, 1);
        let world = World::new(1);
        world.run(|rank| {
            let decomp = BlockDecomp2d::new(36, 24, 1, 1);
            let mut model = OcnModel::new(&g, config.clone(), 0);
            let forcing = OcnForcing::climatology(&g, &decomp, 0);
            for _ in 0..10 {
                model.step(rank, &forcing);
            }
            let st = &model.state;
            assert!(st.eta.iter().all(|v| v.is_finite()));
            assert!(st.t[0].iter().all(|v| v.is_finite() && *v > -5.0 && *v < 45.0));
            // Wind forcing must spin up currents.
            assert!(model.state.kinetic_energy() > 0.0);
            let max_speed = st
                .surface_speed()
                .into_iter()
                .fold(0.0f64, f64::max);
            assert!(max_speed > 1e-6 && max_speed < 5.0, "speed {max_speed}");
        });
    }

    #[test]
    fn volume_conserved_without_forcing() {
        let g = grid(4);
        let config = OcnConfig::for_grid(36, 24, 4, 1, 1);
        let world = World::new(1);
        world.run(|rank| {
            let mut model = OcnModel::new(&g, config.clone(), 0);
            // Seed an η anomaly, no forcing.
            let idx = model.state.at(10, 12);
            if model.state.kmt[idx] > 0 {
                model.state.eta[idx] = 0.5;
            }
            let forcing = OcnForcing::zeros(model.state.ni, model.state.nj);
            let v0 = model.local_volume_anomaly();
            for _ in 0..20 {
                model.step(rank, &forcing);
            }
            let v1 = model.local_volume_anomaly();
            assert!(
                (v1 - v0).abs() <= v0.abs() * 1e-9 + 1e-3,
                "volume drift {v0} -> {v1}"
            );
        });
    }

    #[test]
    fn exclusion_and_dense_paths_agree_bitwise() {
        let a = run_steps(1, 1, 5, true);
        let b = run_steps(1, 1, 5, false);
        assert_eq!(a[0].len(), b[0].len());
        for (x, y) in a[0].iter().zip(&b[0]) {
            assert_eq!(x.to_bits(), y.to_bits(), "exclusion changed results");
        }
    }

    #[test]
    fn one_rank_and_four_ranks_agree() {
        let serial = run_steps(1, 1, 3, true);
        let parallel = run_steps(2, 2, 3, true);
        // Reassemble the 2×2 fields into the global layout.
        let decomp = BlockDecomp2d::new(36, 24, 2, 2);
        let mut global = vec![f64::NAN; 36 * 24];
        for (r, field) in parallel.iter().enumerate() {
            let b = decomp.block(r);
            for j in 0..b.nj() {
                for i in 0..b.ni() {
                    global[(b.j0 + j) * 36 + (b.i0 + i)] = field[j * b.ni() + i];
                }
            }
        }
        for (k, (x, y)) in serial[0].iter().zip(&global).enumerate() {
            assert!(
                (x - y).abs() < 1e-9,
                "cell {k}: serial {x} vs parallel {y}"
            );
        }
    }

    #[test]
    fn exclusion_ratio_matches_grid_activity() {
        let g = grid(6);
        let config = OcnConfig::for_grid(36, 24, 6, 1, 1);
        let model = OcnModel::new(&g, config, 0);
        let ratio = model.exclusion_ratio();
        assert!(
            (ratio - g.active_fraction()).abs() < 1e-12,
            "ratio {ratio} vs grid {}",
            g.active_fraction()
        );
        // The paper's ~30 % reduction regime: a substantial share skipped.
        assert!(ratio < 0.9);
    }

    #[test]
    fn tracers_stay_within_physical_bounds() {
        let g = grid(6);
        let config = OcnConfig::for_grid(36, 24, 6, 1, 1);
        let world = World::new(1);
        world.run(|rank| {
            let decomp = BlockDecomp2d::new(36, 24, 1, 1);
            let mut model = OcnModel::new(&g, config.clone(), 0);
            let forcing = OcnForcing::climatology(&g, &decomp, 0);
            for _ in 0..15 {
                model.step(rank, &forcing);
            }
            for k in 0..model.state.nlev {
                for &(i, j) in &model.state.active_columns() {
                    let idx = model.state.at(i, j);
                    if model.state.is_ocean(i, j, k) {
                        let t = model.state.t[k][idx];
                        let s = model.state.s[k][idx];
                        assert!((-3.0..45.0).contains(&t), "T out of bounds: {t}");
                        assert!((30.0..40.0).contains(&s), "S out of bounds: {s}");
                    }
                }
            }
        });
    }
}
