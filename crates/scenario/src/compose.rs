//! Composition: from a parsed [`Scenario`] to runnable model objects.
//!
//! Two halves:
//!
//! * configuration — [`Scenario::coupled_config`] /
//!   [`coupled_options`](Scenario::coupled_options) assemble the coupled
//!   driver's inputs, and [`sypd_proxy`](Scenario::sypd_proxy) prices the
//!   configuration with a deterministic cost model (the leaderboard ranks
//!   on this projection, never on wall clock — see
//!   [`ap3esm_obs::leaderboard`]);
//! * standalone subsets — [`OcnOnlyComponent`], [`AtmOnlyComponent`] and
//!   [`IceOnlyComponent`] wrap one model each behind
//!   [`esm::Component`](Component), exchanging boundary state through the
//!   same [`AttrVect`] field sets the coupled driver rearranges, so an
//!   ocean-spinup scenario exercises the exact MCT-style surface a coupled
//!   run does — minus the coupler.

use std::sync::Arc;

use ap3esm_atm::dycore::{Dycore, DycoreConfig};
use ap3esm_atm::pdc::{PhysicsDriver, PhysicsDynamicsCoupler, SurfaceForcing};
use ap3esm_atm::state::AtmState;
use ap3esm_atm::vortex::seed_vortex;
use ap3esm_comm::Rank;
use ap3esm_cpl::avect::AttrVect;
use ap3esm_cpl::rearrange::RearrangeStrategy;
use ap3esm_esm::component::{Component, ComponentPhase};
use ap3esm_esm::{CoupledConfig, CoupledOptions, Perturbation, SstPattern};
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::icosahedral::GeodesicCounts;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_grid::GeodesicGrid;
use ap3esm_ice::{IceForcing, IceModel};
use ap3esm_ocn::model::{OcnConfig, OcnForcing, OcnModel};
use ap3esm_physics::ConventionalSuite;

use ap3esm_comm::faultplan::{PlanParseError, ScenarioExpectation};

use crate::dsl::{Catalog, GridPreset, Layout, ModelKind, Scenario};

impl GridPreset {
    /// Atmosphere refinement level of this rung.
    pub fn atm_glevel(&self) -> u32 {
        match self {
            GridPreset::Tiny => 3,
            GridPreset::Small => 4,
            GridPreset::Medium => 5,
        }
    }

    /// Atmosphere levels.
    pub fn atm_nlev(&self) -> usize {
        match self {
            GridPreset::Tiny => 5,
            GridPreset::Small => 8,
            GridPreset::Medium => 10,
        }
    }

    /// Ocean grid dims (nlon, nlat, nlev).
    pub fn ocn_dims(&self) -> (usize, usize, usize) {
        match self {
            GridPreset::Tiny => (36, 24, 6),
            GridPreset::Small => (72, 46, 10),
            GridPreset::Medium => (108, 72, 12),
        }
    }
}

impl Scenario {
    /// The `CoupledConfig` this scenario composes. Standalone subsets use
    /// it for grid dimensions and cadence only (their mesh is pinned to
    /// 1×1 — `Catalog::validate` rejects an explicit mesh on them).
    pub fn coupled_config(&self) -> CoupledConfig {
        let (nlon, nlat, nlev) = self.grid.ocn_dims();
        let sequential = self.layout == Some(Layout::Sequential);
        let (px, py) = if self.model == ModelKind::Full && !sequential {
            self.mesh.unwrap_or_else(|| self.grid.default_mesh())
        } else {
            (1, 1)
        };
        CoupledConfig {
            atm_glevel: self.grid.atm_glevel(),
            atm_nlev: self.grid.atm_nlev(),
            ocn_nlon: nlon,
            ocn_nlat: nlat,
            ocn_nlev: nlev,
            ocn_px: px,
            ocn_py: py,
            couplings_per_day: self.couplings,
            strategy: self.strategy.unwrap_or(RearrangeStrategy::NonBlockingP2p),
            ai_physics: false,
            mask_seed: 20250704,
            single_domain: sequential,
        }
    }

    /// World size a full-model member needs (1 for standalone subsets).
    pub fn world_size(&self) -> usize {
        match self.model {
            ModelKind::Full => self.coupled_config().world_size(),
            _ => 1,
        }
    }

    /// The coupled driver's options for ensemble member `member` (full
    /// model only; checkpoint/resume fields are the runner's business).
    pub fn coupled_options(&self, member: usize) -> CoupledOptions {
        let mut vortices = self.vortices.iter().map(|v| v.to_spec());
        CoupledOptions {
            days: self.days,
            vortex: vortices.next(),
            extra_vortices: vortices.collect(),
            sst_pattern: self.enso.map(|amplitude| SstPattern::Enso { amplitude }),
            perturb: self.perturb.map(|amplitude| Perturbation {
                seed: self.member_seed(member),
                amplitude,
            }),
            record_track: !self.vortices.is_empty(),
            ..CoupledOptions::default()
        }
    }

    /// Deterministic cost-model SYPD projection for this configuration.
    ///
    /// Prices one simulated day in gridpoint-steps from the composed
    /// timestep hierarchy — the same fitting the driver performs — and
    /// converts at a fixed reference throughput. A *projection*, not a
    /// measurement: identical on every machine, which is what lets the
    /// leaderboard rank on it. The cost-model spacing is the dyadic
    /// `7054 km / 2^glevel` approximation of the geodesic mean spacing, so
    /// no grid needs to be built to price a catalog.
    pub fn sypd_proxy(&self) -> f64 {
        /// Reference throughput (gridpoint-steps per second).
        const REF_RATE: f64 = 2.0e6;
        let cfg = self.coupled_config();
        let (atm_cpd, ocn_cpd, ice_cpd) = (
            self.couplings.0.max(1) as f64,
            self.couplings.1.max(1) as f64,
            self.couplings.2.max(1) as f64,
        );

        // Atmosphere: model steps per coupling from the fitted dt, times
        // the fixed 16 dynamics substeps per model step.
        let counts = GeodesicCounts::at_glevel(cfg.atm_glevel);
        let dx_km = 7054.0 / f64::powi(2.0, cfg.atm_glevel as i32);
        let base = DycoreConfig::for_spacing_km(dx_km);
        let atm_period = 86_400.0 / atm_cpd;
        let atm_steps = (atm_period / base.dt_model).ceil().max(1.0);
        let atm_cost =
            (counts.cells * cfg.atm_nlev) as f64 * atm_cpd * atm_steps * 16.0;

        // Ocean: baroclinic steps per coupling from the fitted dt; the
        // barotropic substeps are priced at 1/5 of a baroclinic step each
        // (2-D vs 3-D work), the Canuto mixing at one more step.
        let ocn = OcnConfig::for_grid(cfg.ocn_nlon, cfg.ocn_nlat, cfg.ocn_nlev, 1, 1);
        let ocn_period = 86_400.0 / ocn_cpd;
        let ocn_steps = (ocn_period / ocn.dt_baroclinic).ceil().max(1.0);
        let ocn_points = (cfg.ocn_nlon * cfg.ocn_nlat * cfg.ocn_nlev) as f64;
        let ocn_cost =
            ocn_points * ocn_cpd * ocn_steps * (2.0 + ocn.n_barotropic as f64 / 5.0);

        // Ice: one thermodynamic step per coupling over the surface grid.
        let ice_cost = (cfg.ocn_nlon * cfg.ocn_nlat) as f64 * ice_cpd;

        let cost_per_day = match self.model {
            ModelKind::Full => atm_cost + ocn_cost + ice_cost,
            ModelKind::OceanOnly => ocn_cost,
            ModelKind::AtmOnly => atm_cost,
            ModelKind::IceOnly => ice_cost,
        };
        REF_RATE * 86_400.0 / (365.0 * cost_per_day)
    }
}

impl Catalog {
    /// Semantic validation, past what the grammar can see: every scenario's
    /// composed `CoupledConfig` must validate, fault plans must fit the
    /// world they inject into, and standalone subsets reject knobs that
    /// only the coupled driver honours. Errors name the scenario and carry
    /// the most specific catalog line available (the offending event line
    /// for plan errors, the scenario header otherwise).
    pub fn validate(&self) -> Result<(), PlanParseError> {
        for sc in &self.scenarios {
            let at = |message: String| PlanParseError {
                line: sc.header_line,
                message: format!("scenario {:?}: {message}", sc.name),
            };
            let cfg = sc.coupled_config();
            cfg.validate()
                .map_err(|e| at(e.to_string()))?;
            match sc.model {
                ModelKind::Full => {
                    sc.plan
                        .validate(cfg.world_size())
                        .map_err(|e| PlanParseError {
                            line: e.line,
                            message: format!("scenario {:?}: {}", sc.name, e.message),
                        })?;
                }
                m => {
                    if !sc.plan.events.is_empty() {
                        let line = sc.plan.event_lines.first().copied().unwrap_or(sc.header_line);
                        return Err(PlanParseError {
                            line,
                            message: format!(
                                "scenario {:?}: fault plans drive the coupled world; \
                                 model is {}",
                                sc.name,
                                m.as_str()
                            ),
                        });
                    }
                    if sc.mesh.is_some() {
                        return Err(at(format!(
                            "mesh is only meaningful for model full (model is {})",
                            m.as_str()
                        )));
                    }
                    if sc.layout.is_some() {
                        return Err(at(format!(
                            "layout is only meaningful for model full (model is {})",
                            m.as_str()
                        )));
                    }
                    if sc.strategy.is_some() {
                        return Err(at(format!(
                            "strategy is only meaningful for model full (model is {})",
                            m.as_str()
                        )));
                    }
                    if sc.cycles > 1 {
                        return Err(at(
                            "cycles (restart-cycled reforecasts) need the coupled \
                             driver's checkpoint machinery"
                                .into(),
                        ));
                    }
                    if matches!(m, ModelKind::OceanOnly | ModelKind::IceOnly)
                        && !sc.vortices.is_empty()
                    {
                        return Err(at(format!(
                            "vortex seeds an atmosphere; model is {}",
                            m.as_str()
                        )));
                    }
                    if m == ModelKind::IceOnly && sc.perturb.is_some() {
                        return Err(at(
                            "perturb seeds θ noise; the ice-only subset has no \
                             prognostic temperature to perturb"
                                .into(),
                        ));
                    }
                }
            }
            if sc.members > 1 && sc.perturb.is_none() {
                return Err(at(format!(
                    "members {} without perturb would run identical members; \
                     add perturb amp=... to decorrelate the ensemble",
                    sc.members
                )));
            }
            if sc.expect != ScenarioExpectation::Healthy {
                if sc.model != ModelKind::Full || sc.plan.events.is_empty() {
                    return Err(at(format!(
                        "expect={} needs a fault plan on the coupled model \
                         (a fault-free run can only be healthy)",
                        sc.expect.as_str()
                    )));
                }
                if sc.cycles > 1 {
                    return Err(at(format!(
                        "expect={} with cycles > 1 is unsupported: a degraded \
                         world cannot hand its checkpoint to a full-size resume",
                        sc.expect.as_str()
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The ocean stepping fitted to its coupling period (single-rank standalone
/// mesh; the atmosphere uses [`DycoreConfig::fitted_to_period`]).
pub fn fitted_ocn_config(config: &CoupledConfig, period: f64) -> OcnConfig {
    let mut c = OcnConfig::for_grid(
        config.ocn_nlon,
        config.ocn_nlat,
        config.ocn_nlev,
        1,
        1,
    );
    let n = (period / c.dt_baroclinic).ceil().max(1.0);
    c.dt_baroclinic = period / n;
    c.rank_offset = 0;
    c
}

// ---------------------------------------------------------------------------
// Standalone component wrappers
// ---------------------------------------------------------------------------

/// The standalone ocean behind [`Component`]: imports the
/// [`ATM_TO_OCN_FIELDS`] forcing, steps the LICOM-analogue through the
/// coupling period, exports [`OCN_TO_ATM_FIELDS`] surface state.
pub struct OcnOnlyComponent<'a> {
    rank: &'a Rank,
    pub model: OcnModel,
    forcing: OcnForcing,
    phase: ComponentPhase,
}

impl<'a> OcnOnlyComponent<'a> {
    /// Single-rank ocean over `grid`; `enso` adds the warm-pool anomaly to
    /// the *true* initial SST field (the coupled model can only nudge its
    /// boundary copy), `perturb` decorrelates ensemble members.
    pub fn new(
        grid: &TripolarGrid,
        config: OcnConfig,
        rank: &'a Rank,
        enso: Option<f64>,
        perturb: Option<&Perturbation>,
    ) -> Self {
        let mut model = OcnModel::new(grid, config, 0);
        let st = &mut model.state;
        let (ni, nj) = (st.ni, st.nj);
        for j in 0..nj {
            let phi = grid.lat[st.block.j0 + j];
            for i in 0..ni {
                let idx = st.at(i, j);
                if st.kmt[idx] == 0 {
                    continue;
                }
                if let Some(amp) = enso {
                    let lam = grid.lon[st.block.i0 + i];
                    st.t[0][idx] += SstPattern::Enso { amplitude: amp }.anomaly(phi, lam);
                }
                if let Some(p) = perturb {
                    st.t[0][idx] += p.noise(j * ni + i);
                }
            }
        }
        let forcing = OcnForcing::zeros(ni, nj);
        OcnOnlyComponent {
            rank,
            model,
            forcing,
            phase: ComponentPhase::Created,
        }
    }

    /// Area-weighted mean free-surface elevation (m) over ocean columns —
    /// the volume-conservation drift metric (a perfect barotropic solver
    /// keeps it at its initial value).
    pub fn volume_anomaly(&self) -> f64 {
        let st = &self.model.state;
        let (mut vol, mut area) = (0.0, 0.0);
        for j in 0..st.nj {
            for i in 0..st.ni {
                let idx = st.at(i, j);
                if st.kmt[idx] > 0 {
                    let da = st.dx[j] * st.dy;
                    vol += st.eta[idx] * da;
                    area += da;
                }
            }
        }
        if area > 0.0 {
            vol / area
        } else {
            0.0
        }
    }

    /// Mean SST (°C) over ocean columns.
    pub fn mean_sst(&self) -> f64 {
        let (sum, count) = self.model.state.sst_sum_count();
        if count > 0 {
            sum / count as f64
        } else {
            0.0
        }
    }
}

impl Component for OcnOnlyComponent<'_> {
    fn name(&self) -> &'static str {
        "ocn"
    }

    fn init(&mut self) {
        self.phase = ComponentPhase::Initialized;
    }

    fn run(&mut self, seconds: f64) {
        self.phase = ComponentPhase::Running;
        let steps = (seconds / self.model.config.dt_baroclinic).round() as usize;
        for _ in 0..steps.max(1) {
            self.model.step(self.rank, &self.forcing);
        }
    }

    fn finalize(&mut self) {
        self.phase = ComponentPhase::Finalized;
    }

    fn phase(&self) -> ComponentPhase {
        self.phase
    }

    fn import(&mut self, av: &AttrVect) {
        self.forcing.taux.copy_from_slice(av.get("taux"));
        self.forcing.tauy.copy_from_slice(av.get("tauy"));
        self.forcing.qnet.copy_from_slice(av.get("qnet"));
        // Precipitation freshens the surface: the coupled merge's virtual
        // salt-flux convention (psu·m/s, negative freshens).
        for (salt, p) in self.forcing.salt_flux.iter_mut().zip(av.get("precip")) {
            *salt = -0.035 * p;
        }
    }

    fn export(&self, av: &mut AttrVect) {
        let st = &self.model.state;
        let n = st.ni * st.nj;
        let (mut sst, mut ssu, mut ssv) =
            (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n));
        for j in 0..st.nj {
            for i in 0..st.ni {
                let idx = st.at(i, j);
                sst.push(st.t[0][idx]);
                ssu.push(st.u[0][idx] + st.ubar[idx]);
                ssv.push(st.v[0][idx] + st.vbar[idx]);
            }
        }
        av.set("sst", &sst);
        av.set("ssu", &ssu);
        av.set("ssv", &ssv);
    }

    fn internal_dt(&self) -> f64 {
        self.model.config.dt_baroclinic
    }
}

/// The standalone aqua-planet atmosphere behind [`Component`]: imports an
/// `sst` field on its own cells, steps dynamics+physics, exports the
/// [`ATM_TO_OCN_FIELDS`] it would hand a coupler.
pub struct AtmOnlyComponent {
    pub grid: Arc<GeodesicGrid>,
    pub state: AtmState,
    dycore: Dycore,
    pdc: PhysicsDynamicsCoupler,
    forcing: SurfaceForcing,
    last_precip: Vec<f64>,
    /// Simulated seconds since start (drives the zenith angle).
    time: f64,
}

impl AtmOnlyComponent {
    pub fn new(
        glevel: u32,
        nlev: usize,
        period: f64,
        vortices: &[ap3esm_atm::vortex::VortexSpec],
        perturb: Option<&Perturbation>,
    ) -> Self {
        let grid = Arc::new(GeodesicGrid::new(glevel));
        let dx_km = grid.mean_spacing_km();
        let mut state = AtmState::isothermal(Arc::clone(&grid), nlev, 288.0);
        let n = grid.ncells();
        // Same meridional structure as the coupled driver's cold start.
        for k in 0..nlev {
            for i in 0..n {
                let phi = grid.cells[i].lat();
                state.theta[k * n + i] += 15.0 * (phi.cos().powi(2) - 0.5);
            }
        }
        for spec in vortices {
            seed_vortex(&mut state, spec);
        }
        if let Some(p) = perturb {
            for (i, th) in state.theta.iter_mut().enumerate() {
                *th += p.noise(i);
            }
        }
        let dycore = Dycore::new(Arc::clone(&grid), DycoreConfig::fitted_to_period(dx_km, period));
        let pdc = PhysicsDynamicsCoupler::new(PhysicsDriver::Conventional(
            ConventionalSuite::default(),
        ));
        let forcing = SurfaceForcing::uniform(n, 288.0, 0.0, 1.0);
        AtmOnlyComponent {
            grid,
            state,
            dycore,
            pdc,
            forcing,
            last_precip: vec![0.0; n],
            time: 0.0,
        }
    }

    /// Global precipitation rate (m/s) over the last `run` period.
    pub fn precip_rate(&self, period: f64) -> Vec<f64> {
        self.state
            .precip_accum
            .iter()
            .zip(&self.last_precip)
            .map(|(now, before)| (now - before).max(0.0) / period)
            .collect()
    }
}

impl Component for AtmOnlyComponent {
    fn name(&self) -> &'static str {
        "atm"
    }

    fn init(&mut self) {}

    fn run(&mut self, seconds: f64) {
        // Zenith angle refreshed once per coupling, as in the coupled
        // driver (late-July epoch).
        let day_of_year = 202.0 + self.time / 86_400.0;
        let seconds_utc = self.time % 86_400.0;
        for i in 0..self.grid.ncells() {
            let phi = self.grid.cells[i].lat();
            let lam = self.grid.cells[i].lon();
            self.forcing.coszr[i] =
                ap3esm_esm::solar::cos_zenith(phi, lam, day_of_year, seconds_utc);
        }
        self.last_precip.copy_from_slice(&self.state.precip_accum);
        let steps = (seconds / self.dycore.config.dt_model).round() as usize;
        for _ in 0..steps.max(1) {
            self.dycore.step_model_dynamics(&mut self.state);
            self.pdc
                .apply(&mut self.state, &self.forcing, self.dycore.config.dt_model);
        }
        self.time += seconds;
    }

    fn finalize(&mut self) {}

    fn phase(&self) -> ComponentPhase {
        ComponentPhase::Running
    }

    fn import(&mut self, av: &AttrVect) {
        // Aqua planet: skin temperature is the imported SST (K), sea
        // everywhere, unit wetness.
        self.forcing.tskin.copy_from_slice(av.get("sst"));
        self.forcing.wetness.iter_mut().for_each(|w| *w = 1.0);
    }

    fn export(&self, av: &mut AttrVect) {
        let winds = self.state.surface_wind();
        let n = self.grid.ncells();
        let (mut taux, mut tauy) = (vec![0.0; n], vec![0.0; n]);
        // Bulk-like stress from the surface wind (fixed exchange coeff).
        const RHO_CD: f64 = 1.2 * 1.3e-3;
        for (i, &(u, v)) in winds.iter().enumerate() {
            let speed = (u * u + v * v).sqrt();
            taux[i] = RHO_CD * speed * u;
            tauy[i] = RHO_CD * speed * v;
        }
        av.set("taux", &taux);
        av.set("tauy", &tauy);
        av.set("qnet", &vec![0.0; n]);
        av.set("precip", &self.precip_rate(self.dycore.config.dt_model.max(1.0)));
    }

    fn internal_dt(&self) -> f64 {
        self.dycore.config.dt_model
    }
}

/// The standalone thermodynamic sea ice behind [`Component`]: imports
/// `tair`/`sst` forcing, steps the CICE-analogue, exports cover/volume
/// diagnostics through its state.
pub struct IceOnlyComponent {
    pub model: IceModel,
    forcing: IceForcing,
    dt: f64,
}

impl IceOnlyComponent {
    pub fn new(grid: &TripolarGrid, dt: f64) -> Self {
        let decomp = BlockDecomp2d::new(grid.nlon, grid.nlat, 1, 1);
        let model = IceModel::new(grid, &decomp, 0);
        let n = grid.nlon * grid.nlat;
        let forcing = IceForcing::uniform(n, -5.0, -1.5);
        IceOnlyComponent { model, forcing, dt }
    }
}

impl Component for IceOnlyComponent {
    fn name(&self) -> &'static str {
        "ice"
    }

    fn init(&mut self) {}

    fn run(&mut self, seconds: f64) {
        let steps = (seconds / self.dt).round() as usize;
        for _ in 0..steps.max(1) {
            self.model.step(&self.forcing, self.dt);
        }
    }

    fn finalize(&mut self) {}

    fn phase(&self) -> ComponentPhase {
        ComponentPhase::Running
    }

    fn import(&mut self, av: &AttrVect) {
        self.forcing.tair.copy_from_slice(av.get("tair"));
        self.forcing.sst.copy_from_slice(av.get("sst"));
    }

    fn export(&self, av: &mut AttrVect) {
        av.set("ifrac", &self.model.state.fraction);
    }

    fn internal_dt(&self) -> f64 {
        self.dt
    }
}
