//! Canuto-style Richardson-number vertical mixing with an implicit
//! (tridiagonal) solve.
//!
//! The *canuto* scheme is where the paper's 3-D point-removal optimisation
//! was first applied (§5.2.2: "previous research utilized this technique
//! for thread-level optimization only in the canuto parameterization
//! scheme"); in AP3ESM it is extended to the whole component. Our
//! diffusivity closure keeps the scheme's structure — stability-dependent
//! coefficients from Ri — with a standard (1 + 5·Ri)⁻² fit.

/// Mixing-scheme parameters.
#[derive(Debug, Clone, Copy)]
pub struct CanutoMixing {
    /// Maximum (neutral) diffusivity (m²/s).
    pub k_max: f64,
    /// Background (abyssal) diffusivity (m²/s).
    pub k_background: f64,
    /// Convective-adjustment diffusivity for unstable columns (m²/s).
    pub k_convective: f64,
}

impl Default for CanutoMixing {
    fn default() -> Self {
        CanutoMixing {
            k_max: 1.0e-2,
            k_background: 1.0e-5,
            k_convective: 1.0,
        }
    }
}

impl CanutoMixing {
    /// Interface diffusivity from the local Richardson number
    /// `Ri = N² / S²` (shear squared `s2`, buoyancy frequency `n2`).
    pub fn diffusivity(&self, n2: f64, s2: f64) -> f64 {
        if n2 < 0.0 {
            return self.k_convective; // unstable: convective overturn
        }
        let ri = n2 / s2.max(1e-10);
        self.k_background + self.k_max / (1.0 + 5.0 * ri).powi(2)
    }

    /// Mix one column in place: interface diffusivities from Ri, then
    /// implicit diffusion of T, S, u and v, each with its surface flux
    /// (`surface_flux` in that order, field·m/s into the top cell). `dz`
    /// holds the column's cell thicknesses; its length is the column depth.
    pub fn mix_column(&self, col: &mut MixingColumn, dz: &[f64], dt: f64, surface_flux: [f64; 4]) {
        let kmax = dz.len();
        for f in [&col.t, &col.s, &col.u, &col.v] {
            assert_eq!(f.len(), kmax);
        }
        col.k_int.clear();
        for k in 0..kmax.saturating_sub(1) {
            let dzi = 0.5 * (dz[k] + dz[k + 1]);
            let n2 =
                crate::eos::brunt_vaisala_sq(col.t[k], col.s[k], col.t[k + 1], col.s[k + 1], dzi);
            let du = (col.u[k] - col.u[k + 1]) / dzi;
            let dv = (col.v[k] - col.v[k + 1]) / dzi;
            col.k_int.push(self.diffusivity(n2, du * du + dv * dv));
        }
        col.op.factor(dz, &col.k_int, dt);
        let MixingColumn { t, s, u, v, op, .. } = col;
        for (x, flux) in [t, s, u, v].into_iter().zip(surface_flux) {
            op.solve(x, flux);
        }
    }
}

/// Scratch for mixing one column at a time: the column's T, S, u and v
/// (top first), its interface diffusivities and its eliminated implicit
/// operator. Sized to a level count up front, so mixing columns no deeper
/// than that allocates nothing; every call overwrites all it reads.
#[derive(Debug, Clone, Default)]
pub struct MixingColumn {
    pub t: Vec<f64>,
    pub s: Vec<f64>,
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    k_int: Vec<f64>,
    op: ImplicitDiffusion,
}

impl MixingColumn {
    pub fn with_levels(nlev: usize) -> Self {
        let col = || Vec::with_capacity(nlev);
        MixingColumn {
            t: col(),
            s: col(),
            u: col(),
            v: col(),
            k_int: col(),
            op: ImplicitDiffusion {
                m: col(),
                b: col(),
                c: col(),
                ..ImplicitDiffusion::default()
            },
        }
    }
}

/// Implicit vertical diffusion `(I − dt·D) xⁿ⁺¹ = xⁿ + dt·b` of one
/// column, where `D` is the diffusion operator with interface
/// diffusivities `k_int` (len = nlev−1) and cell thicknesses `dz`, and the
/// surface flux `b` enters the top cell. The tridiagonal matrix depends on
/// neither the field nor the flux, so [`ImplicitDiffusion::factor`] runs
/// the Thomas forward elimination once and [`ImplicitDiffusion::solve`]
/// applies it to each field (unconditionally stable, as LICOM's vmix must
/// be at 80 levels).
#[derive(Debug, Clone, Default)]
struct ImplicitDiffusion {
    /// Elimination multipliers `a[k] / b[k−1]` (entry 0 unused).
    m: Vec<f64>,
    /// Eliminated diagonal.
    b: Vec<f64>,
    /// Super-diagonal.
    c: Vec<f64>,
    dt: f64,
    dz_top: f64,
}

impl ImplicitDiffusion {
    fn factor(&mut self, dz: &[f64], k_int: &[f64], dt: f64) {
        let n = dz.len();
        assert_eq!(k_int.len(), n.saturating_sub(1));
        self.m.clear();
        self.b.clear();
        self.c.clear();
        self.dt = dt;
        self.dz_top = dz.first().copied().unwrap_or(0.0);
        // Coefficients of a·x[k-1] + b·x[k] + c·x[k+1] = d, eliminated
        // top-down as they are built.
        for k in 0..n {
            let up = if k > 0 {
                k_int[k - 1] / (0.5 * (dz[k - 1] + dz[k]))
            } else {
                0.0
            };
            let dn = if k + 1 < n {
                k_int[k] / (0.5 * (dz[k] + dz[k + 1]))
            } else {
                0.0
            };
            let a = -dt * up / dz[k];
            let c = -dt * dn / dz[k];
            let mut b = 1.0 - a - c;
            let mut m = 0.0;
            if k > 0 {
                m = a / self.b[k - 1];
                b -= m * self.c[k - 1];
            }
            self.m.push(m);
            self.b.push(b);
            self.c.push(c);
        }
    }

    /// Solve for one field in place; `surface_flux` is in field·m/s.
    fn solve(&self, x: &mut [f64], surface_flux: f64) {
        let n = x.len();
        assert_eq!(n, self.b.len());
        if n == 0 {
            return;
        }
        // `x` holds the right-hand side `d` until the back substitution.
        x[0] += self.dt * surface_flux / self.dz_top;
        for k in 1..n {
            x[k] -= self.m[k] * x[k - 1];
        }
        x[n - 1] /= self.b[n - 1];
        for k in (0..n - 1).rev() {
            x[k] = (x[k] - self.c[k] * x[k + 1]) / self.b[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diffuse(x: &mut [f64], dz: &[f64], k_int: &[f64], dt: f64, surface_flux: f64) {
        let mut op = ImplicitDiffusion::default();
        op.factor(dz, k_int, dt);
        op.solve(x, surface_flux);
    }

    /// The textbook Thomas solve of one field: build a, b, c, d, eliminate,
    /// back-substitute.
    fn thomas(x: &mut [f64], dz: &[f64], k_int: &[f64], dt: f64, surface_flux: f64) {
        let n = x.len();
        let (mut a, mut b, mut c, mut d) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        for k in 0..n {
            let up = if k > 0 {
                k_int[k - 1] / (0.5 * (dz[k - 1] + dz[k]))
            } else {
                0.0
            };
            let dn = if k + 1 < n {
                k_int[k] / (0.5 * (dz[k] + dz[k + 1]))
            } else {
                0.0
            };
            a[k] = -dt * up / dz[k];
            c[k] = -dt * dn / dz[k];
            b[k] = 1.0 - a[k] - c[k];
            d[k] = x[k];
        }
        d[0] += dt * surface_flux / dz[0];
        for k in 1..n {
            let m = a[k] / b[k - 1];
            b[k] -= m * c[k - 1];
            d[k] -= m * d[k - 1];
        }
        x[n - 1] = d[n - 1] / b[n - 1];
        for k in (0..n - 1).rev() {
            x[k] = (d[k] - c[k] * x[k + 1]) / b[k];
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn factored_solve_is_bitwise_the_per_field_thomas_solve() {
        let dz = [10.0, 12.5, 20.0, 35.0, 60.0, 110.0];
        let k_int = [3e-3, 1e-2, 1.0, 2e-5, 7e-4];
        let mut op = ImplicitDiffusion::default();
        op.factor(&dz, &k_int, 1234.5);
        for (field, flux) in [
            ([20.0, 18.5, 15.0, 9.0, 4.0, 2.5], 3.1e-5),
            ([35.1, 35.0, 34.8, 34.7, 34.7, 34.6], -2.0e-6),
            ([0.3, 0.1, -0.05, 0.0, 0.01, 0.0], 7.8e-5),
        ] {
            let (mut x, mut y) = (field, field);
            op.solve(&mut x, flux);
            thomas(&mut y, &dz, &k_int, 1234.5, flux);
            assert_eq!(bits(&x), bits(&y));
        }
    }

    #[test]
    fn reused_column_scratch_matches_fresh_scratch_bitwise() {
        // A deep and a shallow column mixed alternately through one
        // scratch must give the bits each gets from a fresh scratch: no
        // value of one column may leak into the next.
        let m = CanutoMixing::default();
        let dz: Vec<f64> = (0..8).map(|k| 10.0 * 1.5f64.powi(k)).collect();
        let deep = |c: &mut MixingColumn, r: f64| {
            c.t.clear();
            c.s.clear();
            c.u.clear();
            c.v.clear();
            for k in 0..8 {
                let z = k as f64;
                c.t.push(25.0 - 2.5 * z + r);
                c.s.push(34.5 + 0.05 * z);
                c.u.push(0.2 / (1.0 + z) - 0.01 * r);
                c.v.push(-0.05 + 0.01 * z);
            }
        };
        let shallow = |c: &mut MixingColumn, r: f64| {
            c.t.clear();
            c.s.clear();
            c.u.clear();
            c.v.clear();
            // Unstable top: convective diffusivity.
            c.t.extend([4.0 + r, 12.0, 11.5]);
            c.s.extend([35.2, 34.9, 34.9]);
            c.u.extend([0.0, 0.0, 0.0]);
            c.v.extend([0.1, 0.0, -0.1]);
        };
        let out = |c: &MixingColumn| [bits(&c.t), bits(&c.s), bits(&c.u), bits(&c.v)];
        let flux = [2.0e-5, -1.0e-6, 1.0e-4, -5.0e-5];
        let mut shared = MixingColumn::with_levels(8);
        for round in 0..3 {
            let r = round as f64 * 0.5;
            deep(&mut shared, r);
            m.mix_column(&mut shared, &dz, 900.0, flux);
            let mut fresh = MixingColumn::with_levels(8);
            deep(&mut fresh, r);
            m.mix_column(&mut fresh, &dz, 900.0, flux);
            assert_eq!(out(&shared), out(&fresh), "deep column, round {round}");

            shallow(&mut shared, r);
            m.mix_column(&mut shared, &dz[..3], 900.0, flux);
            let mut fresh = MixingColumn::with_levels(8);
            shallow(&mut fresh, r);
            m.mix_column(&mut fresh, &dz[..3], 900.0, flux);
            assert_eq!(out(&shared), out(&fresh), "shallow column, round {round}");
        }
    }

    #[test]
    fn diffusivity_regimes() {
        let m = CanutoMixing::default();
        // Unstable → convective.
        assert_eq!(m.diffusivity(-1e-5, 1e-4), m.k_convective);
        // Strongly stratified → background.
        let k_strat = m.diffusivity(1e-3, 1e-6);
        assert!(k_strat < 2.0 * m.k_background, "k = {k_strat}");
        // Strong shear, weak stratification → near k_max.
        let k_shear = m.diffusivity(1e-8, 1e-3);
        assert!(k_shear > 0.5 * m.k_max, "k = {k_shear}");
        assert!(k_shear > k_strat);
    }

    #[test]
    fn implicit_diffusion_conserves_without_flux() {
        let mut x = vec![20.0, 15.0, 10.0, 6.0, 4.0];
        let dz = vec![10.0, 20.0, 40.0, 80.0, 160.0];
        let total0: f64 = x.iter().zip(&dz).map(|(v, d)| v * d).sum();
        let k = vec![1e-2; 4];
        diffuse(&mut x, &dz, &k, 3600.0, 0.0);
        let total1: f64 = x.iter().zip(&dz).map(|(v, d)| v * d).sum();
        assert!(
            ((total1 - total0) / total0).abs() < 1e-12,
            "drift {}",
            (total1 - total0) / total0
        );
        // Gradient weakened.
        assert!(x[0] < 20.0 && x[4] > 4.0);
    }

    #[test]
    fn implicit_diffusion_stable_at_huge_dt() {
        // K·dt/dz² ≈ 360: explicit would explode; implicit must stay
        // bounded by the initial extrema.
        let mut x = vec![25.0, 5.0, 5.0, 5.0];
        let dz = vec![10.0; 4];
        let k = vec![1.0; 3];
        diffuse(&mut x, &dz, &k, 3600.0, 0.0);
        assert!(x.iter().all(|&v| (5.0 - 1e-9..=25.0 + 1e-9).contains(&v)), "{x:?}");
        // Nearly homogenised.
        assert!((x[0] - x[3]).abs() < 1.0);
    }

    #[test]
    fn surface_flux_enters_top_cell() {
        let mut x = vec![10.0; 5];
        let dz = vec![10.0; 5];
        let k = vec![0.0; 4]; // no mixing: flux stays in the top cell
        diffuse(&mut x, &dz, &k, 100.0, 0.05);
        assert!((x[0] - 10.0 - 100.0 * 0.05 / 10.0).abs() < 1e-12);
        assert!(x[1..].iter().all(|&v| v == 10.0));
    }

    #[test]
    fn single_level_column() {
        let mut x = vec![5.0];
        diffuse(&mut x, &[10.0], &[], 100.0, 0.1);
        assert!((x[0] - 6.0).abs() < 1e-12);
    }
}
