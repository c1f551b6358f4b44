//! The hydrostatic dynamical core with GRIST's split time stepping.
//!
//! Horizontal discretisation: C-grid on the icosahedral Voronoi mesh —
//! mass/tracers at cells, normal velocity at edges, vorticity at corners
//! (triangle circulation). Momentum is stepped in vector-invariant form:
//!
//! ```text
//! ∂uₙ/∂t = +η·u_t − ∇ₙ(K + Φ) − R T ∇ₙ ln pₛ + ν∇²uₙ
//! ```
//!
//! Mass and tracers are flux-form (exactly conservative). Time stepping is
//! the paper's three-rate split: `dt_dyn` (8 s at 1 km) sub-steps inside
//! `dt_tracer` (30 s) inside the model/physics step `dt_model` (120 s);
//! θ and moisture are advected upwind at the dycore rate and the tracer
//! step filters moisture at the tracer rate.

use std::sync::Arc;

use ap3esm_grid::{GeodesicGrid, EARTH_RADIUS};
use ap3esm_physics::constants::{coriolis, KAPPA, R_DRY};

use crate::state::AtmState;
use crate::P_REF;

/// Time-stepping configuration. At 1 km the paper runs 8/30/120 s; coarser
/// configurations scale all three together.
#[derive(Debug, Clone, Copy)]
pub struct DycoreConfig {
    pub dt_dyn: f64,
    pub dt_tracer: f64,
    pub dt_model: f64,
    /// Horizontal hyper-viscosity coefficient (m²/s Laplacian).
    pub nu: f64,
}

impl DycoreConfig {
    /// Stepping scaled to a grid spacing with the paper's 1:4:16 rate
    /// structure (8 s / 32 s / 128 s at 1 km). GRIST's semi-implicit solver
    /// allows ~8 s·Δx(km); our forward-backward explicit core needs an
    /// external-gravity-wave CFL below ~0.3, i.e. dt ≈ 0.9 s·Δx(km) — the
    /// ratio structure is preserved, the absolute step is CFL-limited
    /// (substitution documented in DESIGN.md).
    pub fn for_spacing_km(dx_km: f64) -> Self {
        let dt_dyn = 0.9 * dx_km;
        DycoreConfig {
            dt_dyn,
            dt_tracer: dt_dyn * 4.0,
            dt_model: dt_dyn * 16.0,
            nu: 0.015 * (dx_km * 1000.0).powi(2) / dt_dyn, // grid-scale damping
        }
    }

    /// Stepping fitted so an integer number of model steps covers the
    /// coupling `period` (s), keeping the 1:4:16 rate structure (§5.1.1's
    /// consistency requirement).
    pub fn fitted_to_period(dx_km: f64, period: f64) -> Self {
        let base = Self::for_spacing_km(dx_km);
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

    pub fn dyn_substeps(&self) -> usize {
        (self.dt_tracer / self.dt_dyn).round() as usize
    }

    pub fn tracer_substeps(&self) -> usize {
        (self.dt_model / self.dt_tracer).round() as usize
    }
}

/// One entry of the flat cell→edge table: the edge, its outward sign, its
/// physical face length and the edge normal projected on the cell's east
/// and north unit vectors (the least-squares reconstruction weights).
#[derive(Debug, Clone, Copy)]
struct CellEdge {
    e: usize,
    sign: f64,
    le: f64,
    n_east: f64,
    n_north: f64,
}

/// Per-cell quantities of one level that the momentum edge loop reads.
#[derive(Debug, Clone, Copy, Default)]
struct CellLevel {
    /// Reconstructed (east, north) velocity.
    u_east: f64,
    u_north: f64,
    /// Velocity divergence.
    div_u: f64,
    /// Bernoulli function K + Φ.
    bern: f64,
    /// Temperature.
    t: f64,
}

/// Scratch arrays of the dynamics substep for one grid and level count.
/// Created per [`Dycore::step_model_dynamics`] (or [`Dycore::step_dyn`])
/// call and dropped with it, so the dycore holds no memory between model
/// steps. Every array is fully overwritten before it is read within a
/// substep; nothing carries from one substep to the next.
struct DynWork {
    /// `0.5·(ps[a] + ps[b])` per edge (old mass field).
    ps_edge: Vec<f64>,
    /// Mass, θ and q fluxes of one level per edge.
    flux: Vec<[f64; 3]>,
    /// Column-summed mass-flux convergence per cell.
    dps_dt: Vec<f64>,
    /// θ and q flux divergences per (level, cell).
    tq_div: Vec<[f64; 2]>,
    /// ln pₛ per cell and `(ln pₛ[b] − ln pₛ[a]) / de` per edge (new mass
    /// field).
    ln_ps: Vec<f64>,
    grad_lnps: Vec<f64>,
    /// Hypsometric integration carried upward level by level per cell.
    phi_below: Vec<f64>,
    p_below: Vec<f64>,
    /// Cell quantities of the current level.
    cell: Vec<CellLevel>,
    /// Relative vorticity of the current level at corners.
    zeta: Vec<f64>,
}

impl DynWork {
    fn new(grid: &GeodesicGrid, nlev: usize) -> Self {
        let (n, ne) = (grid.ncells(), grid.nedges());
        DynWork {
            ps_edge: vec![0.0; ne],
            flux: vec![[0.0; 3]; ne],
            dps_dt: vec![0.0; n],
            tq_div: vec![[0.0; 2]; nlev * n],
            ln_ps: vec![0.0; n],
            grad_lnps: vec![0.0; ne],
            phi_below: vec![0.0; n],
            p_below: vec![0.0; n],
            cell: vec![CellLevel::default(); n],
            zeta: vec![0.0; grid.ncorners()],
        }
    }
}

/// Precomputed geometry for the dycore.
pub struct Dycore {
    grid: Arc<GeodesicGrid>,
    /// Physical Voronoi-face lengths (m).
    le: Vec<f64>,
    /// Physical cell-center distances across each edge (m).
    de: Vec<f64>,
    /// Physical cell areas (m²).
    area: Vec<f64>,
    /// Physical corner (triangle) areas (m²).
    corner_area: Vec<f64>,
    /// Coriolis parameter at edge midpoints.
    f_edge: Vec<f64>,
    /// Per corner: the three (edge, circulation sign) pairs.
    corner_edges: Vec<[(usize, f64); 3]>,
    /// Cell→edge table in CSR form: cell `i` owns
    /// `cell_edge[cell_edge_start[i]..cell_edge_start[i + 1]]`.
    cell_edge_start: Vec<usize>,
    cell_edge: Vec<CellEdge>,
    /// Per cell: east and north unit vectors (3-D), to turn reconstructed
    /// cell velocities back into 3-D vectors.
    cell_east: Vec<[f64; 3]>,
    cell_north: Vec<[f64; 3]>,
    /// Per cell: inverse of the 2×2 least-squares normal matrix.
    cell_ls_inv: Vec<[f64; 3]>, // (a11, a12, a22) of the inverse
    /// Per edge: tangent unit vector t̂ = r̂ × n̂ (3-D).
    edge_tangent: Vec<[f64; 3]>,
    /// Per edge: the two adjacent corners ordered along +t̂ (down-, up-
    /// tangent) so ∂ζ/∂t̂ has a consistent sign.
    edge_corners_oriented: Vec<(usize, usize)>,
    pub config: DycoreConfig,
}

impl Dycore {
    pub fn new(grid: Arc<GeodesicGrid>, config: DycoreConfig) -> Self {
        let r = EARTH_RADIUS;
        let le: Vec<f64> = grid.edge_lengths.iter().map(|l| l * r).collect();
        let de: Vec<f64> = grid.edge_cell_dist.iter().map(|d| d * r).collect();
        let area: Vec<f64> = grid.cell_areas.iter().map(|a| a * r * r).collect();
        let f_edge: Vec<f64> = grid.edge_midpoints.iter().map(|m| coriolis(m.lat())).collect();

        // Corner circulation: triangle [a, b, c] traversed a→b→c; each side
        // is a dual edge whose stored normal points min(id)→max(id).
        let mut corner_edges = Vec::with_capacity(grid.ncorners());
        let mut corner_area = Vec::with_capacity(grid.ncorners());
        let mut edge_lookup = std::collections::HashMap::new();
        for (e, &(a, b)) in grid.edges.iter().enumerate() {
            edge_lookup.insert((a, b), e);
        }
        for (t, &[a, b, c]) in grid.triangles.iter().enumerate() {
            let mut entry = [(0usize, 0.0f64); 3];
            for (slot, &(u, v)) in [(a, b), (b, c), (c, a)].iter().enumerate() {
                let key = (u.min(v), u.max(v));
                let e = edge_lookup[&key];
                // Stored direction is u<v; traversal u→v gives +1 when
                // u < v, else −1.
                entry[slot] = (e, if u < v { 1.0 } else { -1.0 });
            }
            corner_edges.push(entry);
            corner_area.push(
                ap3esm_grid::sphere::spherical_triangle_area(
                    grid.cells[grid.triangles[t][0]],
                    grid.cells[grid.triangles[t][1]],
                    grid.cells[grid.triangles[t][2]],
                ) * r
                    * r,
            );
        }

        let mut cell_east = Vec::with_capacity(grid.ncells());
        let mut cell_north = Vec::with_capacity(grid.ncells());
        let mut cell_ls_inv = Vec::with_capacity(grid.ncells());
        let mut cell_edge_start = Vec::with_capacity(grid.ncells() + 1);
        let mut cell_edge = Vec::with_capacity(2 * grid.nedges());
        for i in 0..grid.ncells() {
            let east = grid.cells[i].east();
            let north = grid.cells[i].north();
            cell_east.push([east.x, east.y, east.z]);
            cell_north.push([north.x, north.y, north.z]);
            cell_edge_start.push(cell_edge.len());
            let (mut a11, mut a12, mut a22) = (0.0, 0.0, 0.0);
            for &(e, sign) in &grid.cell_edges[i] {
                let n = grid.edge_normals[e];
                let ne = n.dot(east);
                let nn = n.dot(north);
                a11 += ne * ne;
                a12 += ne * nn;
                a22 += nn * nn;
                cell_edge.push(CellEdge {
                    e,
                    sign,
                    le: le[e],
                    n_east: ne,
                    n_north: nn,
                });
            }
            let det = a11 * a22 - a12 * a12;
            assert!(det.abs() > 1e-12, "degenerate reconstruction at cell {i}");
            cell_ls_inv.push([a22 / det, -a12 / det, a11 / det]);
        }
        cell_edge_start.push(cell_edge.len());

        let mut edge_tangent = Vec::with_capacity(grid.nedges());
        let mut edge_corners_oriented = Vec::with_capacity(grid.nedges());
        for e in 0..grid.nedges() {
            let n = grid.edge_normals[e];
            let t = grid.edge_midpoints[e].cross(n);
            edge_tangent.push([t.x, t.y, t.z]);
            let (c0, c1) = grid.edge_corners[e];
            let along = grid.corners[c1] - grid.corners[c0];
            if along.dot(t) >= 0.0 {
                edge_corners_oriented.push((c0, c1));
            } else {
                edge_corners_oriented.push((c1, c0));
            }
        }

        Dycore {
            grid,
            le,
            de,
            area,
            corner_area,
            f_edge,
            corner_edges,
            cell_edge_start,
            cell_edge,
            cell_east,
            cell_north,
            cell_ls_inv,
            edge_tangent,
            edge_corners_oriented,
            config,
        }
    }

    pub fn grid(&self) -> &GeodesicGrid {
        &self.grid
    }

    /// The cell→edge entries of cell `i`.
    #[inline]
    fn edges_of(&self, i: usize) -> &[CellEdge] {
        &self.cell_edge[self.cell_edge_start[i]..self.cell_edge_start[i + 1]]
    }

    /// Relative vorticity at corners for one level.
    fn vorticity(&self, un: &[f64], out: &mut [f64]) {
        for (t, entry) in self.corner_edges.iter().enumerate() {
            let mut circ = 0.0;
            for &(e, sign) in entry {
                circ += sign * un[e] * self.de[e];
            }
            out[t] = circ / self.corner_area[t];
        }
    }

    /// One dynamics substep of length `dt`, with scratch arrays of its own.
    /// [`Dycore::step_model_dynamics`] shares one set across its substeps.
    pub fn step_dyn(&self, state: &mut AtmState, dt: f64) {
        let mut work = DynWork::new(&self.grid, state.nlev);
        self.substep(state, dt, &mut work);
    }

    /// One dynamics substep of length `dt` using the scratch in `w`.
    fn substep(&self, state: &mut AtmState, dt: f64, w: &mut DynWork) {
        let grid = &self.grid;
        let n = grid.ncells();
        let ne = grid.nedges();
        let nlev = state.nlev;

        // --- Mass fluxes and continuity (from the old state): one edge
        //     pass for the mass, θ and q fluxes of a level, then one cell
        //     pass for their three divergences. ---
        for (pe, &(a, b)) in w.ps_edge.iter_mut().zip(&grid.edges) {
            *pe = 0.5 * (state.ps[a] + state.ps[b]);
        }
        w.dps_dt.fill(0.0);
        for k in 0..nlev {
            let unk = &state.un[k * ne..(k + 1) * ne];
            let thk = &state.theta[k * n..(k + 1) * n];
            let qk = &state.q[k * n..(k + 1) * n];
            let dsigma = state.dsigma[k];
            for (e, &(a, b)) in grid.edges.iter().enumerate() {
                let f = unk[e] * w.ps_edge[e] * dsigma;
                // Upwind θ and q fluxes for the dycore-rate θ update.
                let up = if f >= 0.0 { a } else { b };
                w.flux[e] = [f, f * thk[up], f * qk[up]];
            }
            let tq_div = &mut w.tq_div[k * n..(k + 1) * n];
            for (i, div) in tq_div.iter_mut().enumerate() {
                let (mut acc_m, mut acc_t, mut acc_q) = (0.0, 0.0, 0.0);
                for ce in self.edges_of(i) {
                    let [fm, ft, fq] = w.flux[ce.e];
                    acc_m += ce.sign * fm * ce.le;
                    acc_t += ce.sign * ft * ce.le;
                    acc_q += ce.sign * fq * ce.le;
                }
                let area = self.area[i];
                w.dps_dt[i] -= acc_m / area;
                *div = [acc_t / area, acc_q / area];
            }
        }

        // --- Forward-backward staging: apply continuity and tracer-mass
        //     updates first, so the pressure-gradient force below sees the
        //     *new* mass field (stabilises external gravity waves). ---
        for (i, &dps) in w.dps_dt.iter().enumerate() {
            let ps_old = state.ps[i];
            let ps_new = ps_old + dt * dps;
            for k in 0..nlev {
                let dp_old = state.dsigma[k] * ps_old;
                let dp_new = state.dsigma[k] * ps_new;
                let idx = k * n + i;
                let [theta_div, q_div] = w.tq_div[idx];
                let th_mass = state.theta[idx] * dp_old - dt * theta_div;
                state.theta[idx] = th_mass / dp_new;
                let q_mass = state.q[idx] * dp_old - dt * q_div;
                state.q[idx] = q_mass / dp_new;
            }
            state.ps[i] = ps_new;
            w.phi_below[i] = 0.0;
            w.p_below[i] = ps_new;
        }
        // ln pₛ once per cell, its gradient once per edge (level-independent).
        for (l, p) in w.ln_ps.iter_mut().zip(&state.ps) {
            *l = p.ln();
        }
        for (e, &(a, b)) in grid.edges.iter().enumerate() {
            w.grad_lnps[e] = (w.ln_ps[b] - w.ln_ps[a]) / self.de[e];
        }

        // --- Momentum per level (old winds, new mass field), updated in
        //     place: the edge loop reads only its own edge's old wind. ---
        for k in 0..nlev {
            let unk = &mut state.un[k * ne..(k + 1) * ne];
            self.vorticity(unk, &mut w.zeta);

            // T and Φ of this level from the updated mass field, then the
            // reconstructed cell velocity, div u and the Bernoulli function.
            let sigma = state.sigma[k];
            let thk = &state.theta[k * n..(k + 1) * n];
            for (i, &theta) in thk.iter().enumerate() {
                let p = sigma * state.ps[i];
                let t = theta * (p / P_REF).powf(KAPPA);
                // Hypsometric increment from the previous reference level.
                let phi = w.phi_below[i] + R_DRY * t * (w.p_below[i] / p).ln();
                w.phi_below[i] = phi;
                w.p_below[i] = p;

                let (mut b1, mut b2, mut div) = (0.0, 0.0, 0.0);
                for ce in self.edges_of(i) {
                    let u = unk[ce.e];
                    b1 += ce.n_east * u;
                    b2 += ce.n_north * u;
                    div += ce.sign * u * ce.le;
                }
                let inv = self.cell_ls_inv[i];
                let (ue, uno) = (inv[0] * b1 + inv[1] * b2, inv[1] * b1 + inv[2] * b2);
                w.cell[i] = CellLevel {
                    u_east: ue,
                    u_north: uno,
                    div_u: div / self.area[i],
                    bern: 0.5 * (ue * ue + uno * uno) + phi,
                    t,
                };
            }

            let zeta = &w.zeta;
            for (e, &(a, b)) in grid.edges.iter().enumerate() {
                // Tangential velocity from averaged cell vectors.
                let ca = &w.cell[a];
                let cb = &w.cell[b];
                let (ea, na) = (&self.cell_east[a], &self.cell_north[a]);
                let (eb, nb) = (&self.cell_east[b], &self.cell_north[b]);
                let v3 = [
                    0.5 * (ca.u_east * ea[0]
                        + ca.u_north * na[0]
                        + cb.u_east * eb[0]
                        + cb.u_north * nb[0]),
                    0.5 * (ca.u_east * ea[1]
                        + ca.u_north * na[1]
                        + cb.u_east * eb[1]
                        + cb.u_north * nb[1]),
                    0.5 * (ca.u_east * ea[2]
                        + ca.u_north * na[2]
                        + cb.u_east * eb[2]
                        + cb.u_north * nb[2]),
                ];
                let t = self.edge_tangent[e];
                let ut = v3[0] * t[0] + v3[1] * t[1] + v3[2] * t[2];

                let (c0, c1) = grid.edge_corners[e];
                let eta = self.f_edge[e] + 0.5 * (zeta[c0] + zeta[c1]);

                let grad_bern = (cb.bern - ca.bern) / self.de[e];
                let t_e = 0.5 * (ca.t + cb.t);
                let grad_lnps = w.grad_lnps[e];

                // Vector Laplacian: ∇ₙδ − ∇ₜζ (corners oriented along +t̂).
                let (cd, cu) = self.edge_corners_oriented[e];
                let lap = (cb.div_u - ca.div_u) / self.de[e] - (zeta[cu] - zeta[cd]) / self.le[e];

                unk[e] +=
                    dt * (eta * ut - grad_bern - R_DRY * t_e * grad_lnps + self.config.nu * lap);
            }
        }
    }

    /// One tracer step: kept as a structural hook matching GRIST's slower
    /// tracer rate. Moisture here is already advected upwind at the dycore
    /// rate (needed for stability); the tracer step applies the *remainder*
    /// of the paper's pipeline — monotonic filtering at the 30 s cadence.
    pub fn step_tracer(&self, state: &mut AtmState) {
        // Clip-and-conserve filter: remove negative q (created by the
        // dycore-rate advection of sharp gradients) while conserving the
        // global moisture mass per level.
        let n = self.grid.ncells();
        for k in 0..state.nlev {
            let qk = &mut state.q[k * n..(k + 1) * n];
            let mut deficit = 0.0;
            let mut positive = 0.0;
            for (q, a) in qk.iter_mut().zip(&self.area) {
                if *q < 0.0 {
                    deficit += -*q * a;
                    *q = 0.0;
                } else {
                    positive += *q * a;
                }
            }
            if deficit > 0.0 && positive > 0.0 {
                let scale = 1.0 - deficit / positive;
                for q in qk.iter_mut() {
                    *q *= scale.max(0.0);
                }
            }
        }
    }

    /// One full model step: `tracer_substeps × dyn_substeps` dynamics
    /// substeps with tracer filtering at the tracer rate. Physics is applied
    /// by the caller (the physics–dynamics coupler) afterwards. All substeps
    /// share one set of scratch arrays, dropped when the step returns.
    pub fn step_model_dynamics(&self, state: &mut AtmState) {
        let _span = ap3esm_obs::span("dycore");
        let mut work = DynWork::new(&self.grid, state.nlev);
        for _ in 0..self.config.tracer_substeps() {
            {
                let _dyn = ap3esm_obs::span("dyn_substeps");
                for _ in 0..self.config.dyn_substeps() {
                    self.substep(state, self.config.dt_dyn, &mut work);
                }
            }
            let _tracer = ap3esm_obs::span("tracer_step");
            self.step_tracer(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::AtmState;

    fn setup(glevel: u32, nlev: usize) -> (Dycore, AtmState) {
        let grid = Arc::new(GeodesicGrid::new(glevel));
        let dx = grid.mean_spacing_km();
        let state = AtmState::isothermal(Arc::clone(&grid), nlev, 285.0);
        let config = DycoreConfig::for_spacing_km(dx);
        (Dycore::new(grid, config), state)
    }

    #[test]
    fn config_ratios_match_paper() {
        // The paper's 8/30(32)/120(128) structure is the 1:4:16 rate split.
        let c = DycoreConfig::for_spacing_km(1.0);
        assert_eq!(c.dyn_substeps(), 4); // tracer / dyn
        assert_eq!(c.tracer_substeps(), 4); // model / tracer
        assert_eq!(c.dyn_substeps() * c.tracer_substeps(), 16);
        // dt scales linearly with spacing.
        let c25 = DycoreConfig::for_spacing_km(25.0);
        assert!((c25.dt_dyn / c.dt_dyn - 25.0).abs() < 1e-9);
    }

    #[test]
    fn resting_isothermal_atmosphere_stays_at_rest() {
        let (dycore, mut state) = setup(3, 4);
        for _ in 0..10 {
            dycore.step_dyn(&mut state, dycore.config.dt_dyn);
        }
        assert!(
            state.max_wind() < 1e-8,
            "spurious wind {} m/s",
            state.max_wind()
        );
        assert!(state.ps.iter().all(|&p| (p - P_REF).abs() < 1e-6));
    }

    #[test]
    fn mass_conserved_under_flow() {
        let (dycore, mut state) = setup(3, 4);
        // Kick a local pressure anomaly.
        state.ps[10] += 500.0;
        state.ps[11] -= 300.0;
        let m0 = state.total_mass();
        for _ in 0..50 {
            dycore.step_dyn(&mut state, dycore.config.dt_dyn);
        }
        let m1 = state.total_mass();
        assert!(
            ((m1 - m0) / m0).abs() < 1e-12,
            "mass drift {}",
            (m1 - m0) / m0
        );
    }

    #[test]
    fn theta_mass_conserved_under_advection() {
        let (dycore, mut state) = setup(3, 3);
        let n = state.ncells();
        // Perturb θ and give a gentle flow.
        for i in 0..n {
            state.theta[i] += 2.0 * (i as f64 * 0.1).sin();
        }
        for (e, u) in state.un.iter_mut().enumerate() {
            *u = 3.0 * ((e % 17) as f64 / 17.0 - 0.5);
        }
        let t0 = state.theta_mass();
        for _ in 0..20 {
            dycore.step_dyn(&mut state, dycore.config.dt_dyn);
        }
        let t1 = state.theta_mass();
        assert!(
            ((t1 - t0) / t0).abs() < 1e-10,
            "theta mass drift {}",
            (t1 - t0) / t0
        );
    }

    #[test]
    fn gravity_wave_spreads_pressure_anomaly() {
        let (dycore, mut state) = setup(3, 3);
        state.ps[0] += 800.0;
        for _ in 0..100 {
            dycore.step_dyn(&mut state, dycore.config.dt_dyn);
        }
        // The anomaly must radiate: center value decreases, wind appears.
        assert!(state.ps[0] - P_REF < 700.0, "anomaly stuck: {}", state.ps[0]);
        assert!(state.max_wind() > 0.01);
        // And the run is stable.
        assert!(state.max_wind() < 50.0, "blow-up: {}", state.max_wind());
        assert!(state.ps.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn full_model_step_is_stable_and_conservative() {
        let (dycore, mut state) = setup(3, 4);
        let n = state.ncells();
        for i in 0..n {
            state.ps[i] += 300.0 * (i as f64 * 0.37).sin();
        }
        let m0 = state.total_mass();
        let q0 = state.moisture_mass();
        for _ in 0..3 {
            dycore.step_model_dynamics(&mut state);
        }
        assert!(((state.total_mass() - m0) / m0).abs() < 1e-12);
        // q is clipped but conservatively rescaled: change stays tiny.
        assert!(((state.moisture_mass() - q0) / q0).abs() < 1e-6);
        assert!(state.max_wind() < 60.0);
    }

    fn bits(s: &AtmState) -> Vec<u64> {
        [&s.ps, &s.theta, &s.q, &s.un]
            .into_iter()
            .flat_map(|f| f.iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn shared_scratch_steps_two_states_as_if_alone() {
        // One dycore and one substep scratch stepping two different states
        // alternately must give the bits each state gets stepped alone:
        // nothing of one state may carry over into the other's substep.
        let (dycore, base) = setup(3, 4);
        let mut a = base.clone();
        let mut b = base;
        for i in 0..a.ncells() {
            a.ps[i] += 300.0 * (i as f64 * 0.37).sin();
            b.theta[i] += 1.5 * (i as f64 * 0.11).cos();
        }
        for (e, u) in b.un.iter_mut().enumerate() {
            *u = 2.0 * ((e % 13) as f64 / 13.0 - 0.5);
        }
        let dt = dycore.config.dt_dyn;
        let alone = |mut s: AtmState| {
            let mut work = DynWork::new(dycore.grid(), s.nlev);
            for _ in 0..5 {
                dycore.substep(&mut s, dt, &mut work);
            }
            dycore.step_model_dynamics(&mut s);
            bits(&s)
        };
        let (a_alone, b_alone) = (alone(a.clone()), alone(b.clone()));

        let mut work = DynWork::new(dycore.grid(), a.nlev);
        for _ in 0..5 {
            dycore.substep(&mut a, dt, &mut work);
            dycore.substep(&mut b, dt, &mut work);
        }
        dycore.step_model_dynamics(&mut a);
        dycore.step_model_dynamics(&mut b);
        assert!(bits(&a) == a_alone, "state A changed by sharing scratch");
        assert!(bits(&b) == b_alone, "state B changed by sharing scratch");
        assert!(a_alone != b_alone);
    }

    #[test]
    fn solid_rotation_vorticity_matches_analytic() {
        // u = Ω R cos(lat) ẑonal ⇒ ζ = 2Ω sin(lat).
        let (dycore, state) = setup(4, 1);
        let grid = dycore.grid();
        let omega = 1.0e-5;
        let un: Vec<f64> = (0..grid.nedges())
            .map(|e| {
                let m = grid.edge_midpoints[e];
                let vel = ap3esm_grid::sphere::Vec3::new(0.0, 0.0, omega)
                    .cross(m)
                    .scale(EARTH_RADIUS);
                vel.dot(grid.edge_normals[e])
            })
            .collect();
        let mut zeta = vec![0.0; grid.ncorners()];
        dycore.vorticity(&un, &mut zeta);
        for (t, &z) in zeta.iter().enumerate().step_by(97) {
            let lat = dycore.grid.corners[t].lat();
            let expect = 2.0 * omega * lat.sin();
            assert!(
                (z - expect).abs() < 0.15 * omega.max(expect.abs()),
                "corner {t}: zeta {z} vs {expect}"
            );
        }
        let _ = state;
    }
}
