//! MCT-style component interfaces.
//!
//! "CPL7 uses MCT-based *init*, *run*, and *finalize* interfaces in each
//! component to control the whole workflow… the *import* and *export*
//! methods are also implemented for GRIST and LICOM to get boundary
//! condition data from other models and provide output boundary condition
//! data" (§5.1.1).

use ap3esm_cpl::AttrVect;

/// Lifecycle phase (for sequencing assertions and progress reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentPhase {
    Created,
    Initialized,
    Running,
    Finalized,
}

/// The coupler-facing contract every AP3ESM component implements.
pub trait Component {
    /// Component name ("atm", "ocn", "ice", "lnd").
    fn name(&self) -> &'static str;

    /// One-time setup; must be called before the first `run`.
    fn init(&mut self);

    /// Advance the component by `seconds` of simulated time. The import
    /// state must have been refreshed by the coupler beforehand.
    fn run(&mut self, seconds: f64);

    /// Tear-down; after this only `phase` may be called.
    fn finalize(&mut self);

    fn phase(&self) -> ComponentPhase;

    /// Copy boundary conditions *into* the component from the coupler's
    /// attribute vector (fields on the component's own grid).
    fn import(&mut self, av: &AttrVect);

    /// Fill the coupler's attribute vector with this component's exports.
    fn export(&self, av: &mut AttrVect);

    /// Internal timestep (s) — checked against the coupling period
    /// (§5.1.1's consistency requirement).
    fn internal_dt(&self) -> f64;
}
