//! Correctness check of every coupled run the benchmark makes.
//!
//! A run fails when it reports a structured failure, a rollback or a lost
//! rank; when any diagnostic series holds a non-finite value; when its
//! final mean θ, SST or ocean KE leaves the physical tolerance band of
//! `reference.json`; or when its final diagnostics differ bitwise from
//! another run of the same seed, whatever the task layout.

use ap3esm_esm::CoupledStats;
use ap3esm_obs::json::Json;

/// One final-state diagnostic and the band it must land in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    pub reference: f64,
    pub tolerance: f64,
}

impl Band {
    fn contains(&self, v: f64) -> bool {
        (v - self.reference).abs() <= self.tolerance
    }
}

/// Reference final state after `sample_days` of any workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub sample_days: f64,
    pub theta_k: Band,
    pub sst_c: Band,
    pub ocn_ke_j: Band,
}

impl Reference {
    /// The reference shipped with the benchmark.
    pub fn shipped() -> Reference {
        Reference::parse(include_str!("../reference.json")).expect("reference.json is valid")
    }

    pub fn parse(text: &str) -> Result<Reference, String> {
        let doc = Json::parse(text)?;
        let num = |v: Option<&Json>, what: &str| {
            v.and_then(Json::as_f64)
                .ok_or_else(|| format!("reference.json: missing number {what}"))
        };
        let band = |name: &str| -> Result<Band, String> {
            let b = doc.get("final").and_then(|f| f.get(name));
            Ok(Band {
                reference: num(b.and_then(|b| b.get("reference")), name)?,
                tolerance: num(b.and_then(|b| b.get("tolerance")), name)?,
            })
        };
        Ok(Reference {
            sample_days: num(doc.get("sample_days"), "sample_days")?,
            theta_k: band("theta_k")?,
            sst_c: band("sst_c")?,
            ocn_ke_j: band("ocn_ke_j")?,
        })
    }
}

/// Final diagnostics of a completed run (rank 0's series ends).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Finals {
    pub theta_k: f64,
    pub sst_c: f64,
    pub ocn_ke_j: f64,
    pub ice_cover: f64,
    /// Series lengths (θ, SST, KE, ice).
    pub lens: [usize; 4],
}

impl Finals {
    fn bits(&self) -> [u64; 4] {
        [
            self.theta_k.to_bits(),
            self.sst_c.to_bits(),
            self.ocn_ke_j.to_bits(),
            self.ice_cover.to_bits(),
        ]
    }
}

/// Structural health of every rank: no structured failure, no rollback,
/// no lost rank.
pub fn check_ranks(ranks: &[CoupledStats]) -> Result<(), String> {
    if ranks.is_empty() {
        return Err("no rank results".into());
    }
    for (r, s) in ranks.iter().enumerate() {
        if let Some(f) = &s.failure {
            return Err(format!("rank {r}: structured failure: {f}"));
        }
        if s.recoveries > 0 {
            return Err(format!("rank {r}: {} rollback(s)", s.recoveries));
        }
        if s.lost {
            return Err(format!("rank {r}: lost"));
        }
    }
    Ok(())
}

/// Full check of a run that simulated time: structure, finite series and
/// the reference band. Returns the final diagnostics for the bitwise
/// cross-run comparison.
pub fn check_run(ranks: &[CoupledStats], reference: &Reference) -> Result<Finals, String> {
    check_ranks(ranks)?;
    let s = &ranks[0];
    let series = [
        ("theta", &s.theta_series),
        ("sst", &s.sst_series),
        ("ke", &s.ke_series),
        ("ice", &s.ice_series),
    ];
    for (name, values) in series {
        if values.is_empty() {
            return Err(format!("{name} series is empty"));
        }
        if let Some(i) = values.iter().position(|v| !v.is_finite()) {
            return Err(format!(
                "{name} series is non-finite at index {i}: {}",
                values[i]
            ));
        }
    }
    let last = |v: &[f64]| v[v.len() - 1];
    let finals = Finals {
        theta_k: last(&s.theta_series),
        sst_c: last(&s.sst_series),
        ocn_ke_j: last(&s.ke_series),
        ice_cover: last(&s.ice_series),
        lens: series.map(|(_, v)| v.len()),
    };
    for (name, value, band) in [
        ("mean theta (K)", finals.theta_k, reference.theta_k),
        ("mean SST (C)", finals.sst_c, reference.sst_c),
        ("ocean KE (J)", finals.ocn_ke_j, reference.ocn_ke_j),
    ] {
        if !band.contains(value) {
            return Err(format!(
                "final {name} {value} outside {} ± {}",
                band.reference, band.tolerance
            ));
        }
    }
    Ok(finals)
}

/// Bitwise equality of two runs' final diagnostics.
pub fn check_same(a: &Finals, b: &Finals) -> Result<(), String> {
    if a.lens != b.lens || a.bits() != b.bits() {
        return Err(format!("final diagnostics differ bitwise: {a:?} vs {b:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy(reference: &Reference) -> CoupledStats {
        CoupledStats {
            theta_series: vec![reference.theta_k.reference; 12],
            sst_series: vec![reference.sst_c.reference; 6],
            ke_series: vec![reference.ocn_ke_j.reference; 6],
            ice_series: vec![0.01; 12],
            ..CoupledStats::default()
        }
    }

    #[test]
    fn shipped_reference_parses() {
        let r = Reference::shipped();
        assert_eq!(r.sample_days, crate::workload::SAMPLE_DAYS);
        for b in [r.theta_k, r.sst_c, r.ocn_ke_j] {
            assert!(b.tolerance > 0.0 && b.tolerance < b.reference.abs());
        }
    }

    #[test]
    fn healthy_run_passes() {
        let r = Reference::shipped();
        let f = check_run(&[healthy(&r)], &r).unwrap();
        assert_eq!(f.lens, [12, 6, 6, 12]);
        assert!(check_same(&f, &f).is_ok());
    }

    #[test]
    fn rejects_a_nan_series() {
        let r = Reference::shipped();
        let mut s = healthy(&r);
        s.theta_series[7] = f64::NAN;
        let e = check_run(&[s], &r).unwrap_err();
        assert!(e.contains("theta series is non-finite at index 7"), "{e}");
        let mut s = healthy(&r);
        s.ke_series[2] = f64::INFINITY;
        assert!(check_run(&[s], &r).is_err());
    }

    #[test]
    fn rejects_a_mismatched_final_state() {
        let r = Reference::shipped();
        let a = check_run(&[healthy(&r)], &r).unwrap();
        let mut s = healthy(&r);
        let sst = s.sst_series.last_mut().unwrap();
        *sst = f64::from_bits(sst.to_bits() + 1); // one ulp apart
        let b = check_run(&[s], &r).unwrap();
        assert!(check_same(&a, &b).is_err());
        let mut s = healthy(&r);
        s.ice_series.push(0.01); // same values, different length
        let c = check_run(&[s], &r).unwrap();
        assert!(check_same(&a, &c).is_err());
    }

    #[test]
    fn rejects_states_outside_the_band_and_structural_trouble() {
        let r = Reference::shipped();
        let mut s = healthy(&r);
        *s.theta_series.last_mut().unwrap() += 2.0 * r.theta_k.tolerance;
        assert!(check_run(&[s], &r).unwrap_err().contains("mean theta"));
        let mut s = healthy(&r);
        s.failure = Some("budget exhausted".into());
        assert!(check_run(&[s], &r).is_err());
        let mut s = healthy(&r);
        s.recoveries = 1;
        assert!(check_run(&[s], &r).is_err());
        let lost = CoupledStats {
            lost: true,
            ..CoupledStats::default()
        };
        assert!(check_ranks(&[healthy(&r), lost]).is_err());
    }
}
