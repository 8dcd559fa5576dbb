//! Implicit trapezoidal integration — SPICE's native method — as an
//! independent cross-check of the explicit RK4 solver.
//!
//! The ladder is linear, `dx/dt = A·x + B·u(t)`, so the trapezoidal
//! update `(I − h/2·A)·x₊ = (I + h/2·A)·x + h/2·B·(u + u₊)` has constant
//! matrices: factor `(I − h/2·A)` once, then every step is a pair of
//! matrix-vector products. Trapezoidal is A-stable (no step-size
//! stability limit) and is what HSPICE uses by default, making this the
//! closest in-crate analogue of the paper's simulation path.

use crate::model::PdnModel;

const N: usize = 6;

/// A dense LU factorization of a 6×6 matrix with partial pivoting.
#[derive(Debug, Clone)]
struct Lu {
    lu: [[f64; N]; N],
    piv: [usize; N],
}

#[allow(clippy::needless_range_loop)]
impl Lu {
    /// Factors `m`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is numerically singular (cannot happen for
    /// `I − h/2·A` with a valid PDN and reasonable step).
    fn new(mut m: [[f64; N]; N]) -> Self {
        let mut piv = [0usize; N];
        for col in 0..N {
            // Partial pivot.
            let mut best = col;
            for row in (col + 1)..N {
                if m[row][col].abs() > m[best][col].abs() {
                    best = row;
                }
            }
            assert!(m[best][col].abs() > 1e-300, "singular system matrix");
            m.swap(col, best);
            piv[col] = best;
            for row in (col + 1)..N {
                let f = m[row][col] / m[col][col];
                m[row][col] = f;
                for k in (col + 1)..N {
                    m[row][k] -= f * m[col][k];
                }
            }
        }
        Lu { lu: m, piv }
    }

    /// Solves `M·x = b`.
    fn solve(&self, mut b: [f64; N]) -> [f64; N] {
        // The factorization swapped whole rows (LAPACK storage), so all
        // interchanges are applied to `b` up front, then L- and
        // U-substitution run on the permuted system.
        for col in 0..N {
            b.swap(col, self.piv[col]);
        }
        for col in 0..N {
            for row in (col + 1)..N {
                b[row] -= self.lu[row][col] * b[col];
            }
        }
        for col in (0..N).rev() {
            b[col] /= self.lu[col][col];
            for row in 0..col {
                b[row] -= self.lu[row][col] * b[col];
            }
        }
        b
    }
}

/// Streaming trapezoidal transient solver (same interface shape as
/// [`crate::Transient`]).
///
/// # Example
///
/// ```
/// use audit_pdn::{trapezoidal::TrapezoidalTransient, PdnModel};
///
/// let pdn = PdnModel::bulldozer_board();
/// let mut sim = TrapezoidalTransient::new(&pdn, 3.2e9);
/// let v = sim.step(20.0);
/// assert!(v > 1.0 && v < 1.3);
/// ```
#[derive(Debug, Clone)]
pub struct TrapezoidalTransient {
    /// LU of `(I − h/2·A)`.
    lhs: Lu,
    /// `(I + h/2·A)`.
    rhs: [[f64; N]; N],
    /// `h/2 · B` columns for the two inputs `[v_src, i_load]`.
    b_vsrc: [f64; N],
    b_load: [f64; N],
    v_nom: f64,
    load_line_slope: f64,
    esr_die: f64,
    /// Per-stage cap-voltage scale factors √(C/L).
    u_scale: [f64; 3],
    state: [f64; N],
    prev_load: f64,
}

impl TrapezoidalTransient {
    /// Creates a solver stepped once per cycle of `clock_hz`.
    ///
    /// # Panics
    ///
    /// Panics if the model is invalid or the clock is not positive.
    pub fn new(pdn: &PdnModel, clock_hz: f64) -> Self {
        pdn.validate().expect("invalid PDN model");
        assert!(
            clock_hz.is_finite() && clock_hz > 0.0,
            "clock frequency must be positive and finite"
        );
        let s = pdn.stages();
        let h = 1.0 / clock_hz;
        let v_nom = pdn.nominal_voltage();

        // State x = [i0, i1, i2, u0, u1, u2] (branch currents, internal
        // cap voltages); see `transient.rs` for the derivation.
        let (l0, l1, l2) = (s[0].series_l, s[1].series_l, s[2].series_l);
        let (r0, r1, r2) = (s[0].series_r, s[1].series_r, s[2].series_r);
        let (c0, c1, c2) = (s[0].shunt_c, s[1].shunt_c, s[2].shunt_c);
        let (e0, e1, e2) = (s[0].shunt_esr, s[1].shunt_esr, s[2].shunt_esr);

        let mut a = [[0.0f64; N]; N];
        // di0/dt = (v_src − r0·i0 − (u0 + e0·(i0 − i1))) / l0
        a[0][0] = -(r0 + e0) / l0;
        a[0][1] = e0 / l0;
        a[0][3] = -1.0 / l0;
        // di1/dt = ((u0 + e0·(i0−i1)) − r1·i1 − (u1 + e1·(i1−i2))) / l1
        a[1][0] = e0 / l1;
        a[1][1] = -(e0 + r1 + e1) / l1;
        a[1][2] = e1 / l1;
        a[1][3] = 1.0 / l1;
        a[1][4] = -1.0 / l1;
        // di2/dt = ((u1 + e1·(i1−i2)) − r2·i2 − (u2 + e2·(i2−load))) / l2
        a[2][1] = e1 / l2;
        a[2][2] = -(e1 + r2 + e2) / l2;
        a[2][4] = 1.0 / l2;
        a[2][5] = -1.0 / l2;
        // du0/dt = (i0 − i1)/c0 ; du1/dt = (i1 − i2)/c1 ; du2/dt = (i2 − load)/c2
        a[3][0] = 1.0 / c0;
        a[3][1] = -1.0 / c0;
        a[4][1] = 1.0 / c1;
        a[4][2] = -1.0 / c1;
        a[5][2] = 1.0 / c2;

        // Input columns: v_src enters di0/dt; load enters di2/dt, du2/dt.
        let mut b_vsrc = [0.0; N];
        b_vsrc[0] = 1.0 / l0;
        let mut b_load = [0.0; N];
        b_load[2] = e2 / l2;
        b_load[5] = -1.0 / c2;

        // Equilibrate: express each cap voltage in units of its stage's
        // characteristic admittance (u_scaled = √(C/L)·u), which turns
        // the L↔C couplings into balanced ±ω₀ entries and keeps the
        // factored system well-conditioned even at extreme steps.
        let k = [(c0 / l0).sqrt(), (c1 / l1).sqrt(), (c2 / l2).sqrt()];
        for (stage, &ki) in k.iter().enumerate() {
            let row = 3 + stage;
            #[allow(clippy::needless_range_loop)]
            for col in 0..N {
                a[row][col] *= ki;
                a[col][row] /= ki;
            }
            b_vsrc[row] *= ki;
            b_load[row] *= ki;
        }

        let mut lhs = [[0.0; N]; N];
        let mut rhs = [[0.0; N]; N];
        for i in 0..N {
            for j in 0..N {
                lhs[i][j] = f64::from(i == j) - 0.5 * h * a[i][j];
                rhs[i][j] = f64::from(i == j) + 0.5 * h * a[i][j];
            }
        }
        let scale = |v: [f64; N]| {
            let mut out = v;
            for x in &mut out {
                *x *= 0.5 * h;
            }
            out
        };

        TrapezoidalTransient {
            lhs: Lu::new(lhs),
            rhs,
            b_vsrc: scale(b_vsrc),
            b_load: scale(b_load),
            v_nom,
            load_line_slope: pdn.load_line().slope_ohms(),
            esr_die: e2,
            u_scale: k,
            state: [0.0, 0.0, 0.0, k[0] * v_nom, k[1] * v_nom, k[2] * v_nom],
            prev_load: 0.0,
        }
    }

    /// Advances one cycle at the given load current; returns the die
    /// voltage.
    pub fn step(&mut self, amps: f64) -> f64 {
        let vs_now = self.v_nom - self.load_line_slope * self.state[0];
        // rhs·x + h/2·B·(u_n + u_{n+1})  (quasi-static v_src).
        let mut b = [0.0f64; N];
        for (i, bi) in b.iter_mut().enumerate() {
            let mut acc = 0.0;
            for j in 0..N {
                acc += self.rhs[i][j] * self.state[j];
            }
            acc += self.b_vsrc[i] * (2.0 * vs_now);
            acc += self.b_load[i] * (self.prev_load + amps);
            *bi = acc;
        }
        self.state = self.lhs.solve(b);
        self.prev_load = amps;
        self.die_voltage(amps)
    }

    /// Die node voltage under the given load.
    pub fn die_voltage(&self, amps: f64) -> f64 {
        self.state[5] / self.u_scale[2] + self.esr_die * (self.state[2] - amps)
    }

    /// Pre-settles at a constant load.
    pub fn settle(&mut self, amps: f64, cycles: u64) {
        for _ in 0..cycles {
            self.step(amps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::Transient;

    const CLOCK: f64 = 3.2e9;

    #[test]
    fn agrees_with_rk4_on_a_resonant_drive() {
        let pdn = PdnModel::bulldozer_board();
        let mut rk4 = Transient::new(&pdn, CLOCK);
        let mut trap = TrapezoidalTransient::new(&pdn, CLOCK);
        rk4.settle(10.0, 200_000);
        trap.settle(10.0, 200_000);
        // The two methods treat the input differently at square-wave
        // edges (zero-order hold vs trapezoidal averaging), so pointwise
        // traces differ near transitions; the physical observables —
        // worst droop and mean level — must agree closely.
        let mut min_a = f64::INFINITY;
        let mut min_b = f64::INFINITY;
        let mut sum_a = 0.0;
        let mut sum_b = 0.0;
        let n = 20_000u64;
        for c in 0..n {
            let amps = if (c / 15) % 2 == 0 { 80.0 } else { 10.0 };
            let a = rk4.step(amps);
            let b = trap.step(amps);
            min_a = min_a.min(a);
            min_b = min_b.min(b);
            sum_a += a;
            sum_b += b;
        }
        assert!(
            (min_a - min_b).abs() < 3e-3,
            "droop disagreement: rk4 {min_a} vs trap {min_b}"
        );
        assert!(
            (sum_a - sum_b).abs() / (n as f64) < 1e-3,
            "mean disagreement"
        );
    }

    #[test]
    fn dc_operating_point_matches_ir_drop() {
        let pdn = PdnModel::bulldozer_board();
        let mut t = TrapezoidalTransient::new(&pdn, CLOCK);
        t.settle(50.0, 3_000_000);
        let v = t.die_voltage(50.0);
        let expect = pdn.nominal_voltage() - 50.0 * pdn.total_series_resistance();
        assert!((v - expect).abs() < 2e-3, "v = {v}, expect = {expect}");
    }

    #[test]
    fn stable_at_huge_time_steps() {
        // A-stability: even a 100× coarser step must not blow up
        // (accuracy degrades, stability does not). An explicit method
        // would diverge immediately at ω·h ≈ 20.
        let pdn = PdnModel::bulldozer_board();
        let mut t = TrapezoidalTransient::new(&pdn, CLOCK / 100.0);
        let mut worst = 0.0f64;
        for c in 0..50_000u64 {
            let amps = if (c / 25) % 2 == 0 { 0.0 } else { 120.0 };
            let v = t.step(amps);
            assert!(v.is_finite(), "diverged at cycle {c}");
            worst = worst.max(v.abs());
        }
        assert!(worst < 100.0, "unbounded response: {worst}");
    }

    #[test]
    fn zero_load_holds_nominal() {
        let pdn = PdnModel::bulldozer_board();
        let mut t = TrapezoidalTransient::new(&pdn, CLOCK);
        for _ in 0..10_000 {
            let v = t.step(0.0);
            assert!((v - pdn.nominal_voltage()).abs() < 1e-9);
        }
    }

    #[test]
    fn lu_solves_a_known_system() {
        // Spot-check the factorization on a permuted diagonal system.
        let mut m = [[0.0; 6]; 6];
        for (i, row) in m.iter_mut().enumerate() {
            row[(i + 3) % 6] = (i + 1) as f64;
        }
        let lu = Lu::new(m);
        let b = [3.0, 8.0, 15.0, 4.0, 10.0, 18.0];
        let x = lu.solve(b);
        // m·x = b  ⇒  x[(i+3)%6] = b[i] / (i+1).
        for i in 0..6 {
            let expect = b[i] / (i + 1) as f64;
            assert!((x[(i + 3) % 6] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn lu_residual_on_a_pivot_heavy_dense_system() {
        // Tiny diagonal entries force pivoting at every column; the
        // residual ‖M·x − b‖ must stay at machine precision.
        let m = [
            [0.001, 2.0, -1.0, 0.5, 3.0, -2.0],
            [4.0, 0.002, 1.5, -0.5, 1.0, 2.0],
            [-1.0, 3.0, 0.003, 2.5, -1.5, 1.0],
            [2.0, -2.0, 1.0, 0.004, 2.0, -1.0],
            [0.5, 1.0, -2.0, 3.0, 0.005, 2.5],
            [-3.0, 0.5, 2.0, -1.0, 1.5, 0.006],
        ];
        let lu = Lu::new(m);
        let b = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0];
        let x = lu.solve(b);
        for i in 0..N {
            let mut acc = 0.0;
            for j in 0..N {
                acc += m[i][j] * x[j];
            }
            assert!(
                (acc - b[i]).abs() < 1e-10,
                "row {i} residual {}",
                acc - b[i]
            );
        }
    }
}
