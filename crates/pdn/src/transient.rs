//! Streaming time-domain (transient) simulation of the PDN.
//!
//! This is the reproduction's stand-in for the HSPICE step of the AUDIT
//! simulation path (paper Fig. 5): the per-cycle current profile produced
//! by the processor model is fed in one sample at a time, and the solver
//! integrates the three-stage RLC ladder to produce the die supply
//! voltage seen by the oscilloscope.
//!
//! The network state is six-dimensional — three inductor currents and
//! three capacitor voltages — and is integrated with classical
//! fourth-order Runge–Kutta at a fixed step of one processor clock cycle.
//! With the preset component values the fastest mode (first droop,
//! ≈ 100 MHz) is sampled ≈ 30× per period at 3.2 GHz, comfortably inside
//! RK4's stability region.

use crate::model::PdnModel;

/// Six-dimensional network state: inductor currents then cap voltages.
type State = [f64; 6];

/// Linear map on [`State`], row-major.
type Matrix = [[f64; 6]; 6];

/// Streaming transient solver for a [`PdnModel`].
///
/// Create one per simulation run; feed it the chip load current cycle by
/// cycle via [`Transient::step`] and it returns the die voltage for that
/// cycle.
///
/// # Example
///
/// ```
/// use audit_pdn::{PdnModel, Transient};
///
/// let pdn = PdnModel::bulldozer_board();
/// let mut sim = Transient::new(&pdn, 3.2e9);
/// let v = sim.step(20.0);
/// assert!(v > 0.0 && v <= pdn.nominal_voltage() + 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct Transient {
    // Cached component values (pre-inverted where hot).
    inv_l: [f64; 3],
    series_r: [f64; 3],
    inv_c: [f64; 3],
    esr: [f64; 3],
    v_nom: f64,
    load_line_slope: f64,
    dt: f64,
    state: State,
}

impl Transient {
    /// Creates a solver for `pdn` stepped once per cycle of a clock at
    /// `clock_hz`, with the network pre-settled at zero load.
    ///
    /// # Panics
    ///
    /// Panics if `pdn` fails [`PdnModel::validate`] or if `clock_hz` is
    /// not positive and finite — both indicate programmer error upstream.
    pub fn new(pdn: &PdnModel, clock_hz: f64) -> Self {
        pdn.validate().expect("invalid PDN model");
        assert!(
            clock_hz.is_finite() && clock_hz > 0.0,
            "clock frequency must be positive and finite"
        );
        let s = pdn.stages();
        let v_nom = pdn.nominal_voltage();
        Transient {
            inv_l: [
                1.0 / s[0].series_l,
                1.0 / s[1].series_l,
                1.0 / s[2].series_l,
            ],
            series_r: [s[0].series_r, s[1].series_r, s[2].series_r],
            inv_c: [1.0 / s[0].shunt_c, 1.0 / s[1].shunt_c, 1.0 / s[2].shunt_c],
            esr: [s[0].shunt_esr, s[1].shunt_esr, s[2].shunt_esr],
            v_nom,
            load_line_slope: pdn.load_line().slope_ohms(),
            dt: 1.0 / clock_hz,
            // All caps charged to Vnom, no branch current: zero-load DC.
            state: [0.0, 0.0, 0.0, v_nom, v_nom, v_nom],
        }
    }

    /// Pre-settles the network at a constant load, so a measurement
    /// window starts from the DC operating point instead of the
    /// power-on transient.
    ///
    /// Puts the solver in the state `cycles` calls of
    /// [`Transient::step`]`(amps)` reach, without stepping. At a
    /// constant load one RK4 step is the affine map `x ↦ M·x + c`,
    /// whose fixed point is the DC operating point `x*`, so `cycles`
    /// steps land on `x* + Mᶜʸᶜˡᵉˢ·(x − x*)`. The matrix power takes
    /// O(log `cycles`) 6×6 products, so the cost does not grow with
    /// `cycles`; the result matches the stepped loop to float rounding
    /// (≈ 1e-13 V).
    pub fn settle(&mut self, amps: f64, cycles: u64) {
        let dc = self.dc_state(amps);
        let m = matrix_pow(self.step_matrix(), cycles);
        let offset: State = std::array::from_fn(|j| self.state[j] - dc[j]);
        self.state = std::array::from_fn(|i| dc[i] + dot(&m[i], &offset));
    }

    /// DC operating point under `amps`: every branch carries the load,
    /// and each cap sits at Vnom minus the load-line and series IR drops
    /// upstream of it (no cap current, so no ESR drop).
    fn dc_state(&self, amps: f64) -> State {
        let mut state = [amps; 6];
        let mut drop = self.load_line_slope;
        for (k, r) in self.series_r.iter().enumerate() {
            drop += r;
            state[3 + k] = self.v_nom - drop * amps;
        }
        state
    }

    /// Linear part `M` of one RK4 step, one column per basis state:
    /// the step of that state with the source and the load off.
    fn step_matrix(&self) -> Matrix {
        let mut probe = Transient {
            v_nom: 0.0,
            ..self.clone()
        };
        let mut m = [[0.0; 6]; 6];
        for j in 0..6 {
            probe.state = [0.0; 6];
            probe.state[j] = 1.0;
            probe.step(0.0);
            for (row, x) in m.iter_mut().zip(probe.state) {
                row[j] = x;
            }
        }
        m
    }

    /// Advances one clock cycle with the given die load current (amps,
    /// held constant over the step) and returns the die voltage at the
    /// end of the step.
    #[inline]
    pub fn step(&mut self, amps: f64) -> f64 {
        let h = self.dt;
        let k1 = self.deriv(&self.state, amps);
        let s2 = add_scaled(&self.state, &k1, 0.5 * h);
        let k2 = self.deriv(&s2, amps);
        let s3 = add_scaled(&self.state, &k2, 0.5 * h);
        let k3 = self.deriv(&s3, amps);
        let s4 = add_scaled(&self.state, &k3, h);
        let k4 = self.deriv(&s4, amps);
        for i in 0..6 {
            self.state[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        self.die_voltage(amps)
    }

    /// Die node voltage for the current state under the given load.
    #[inline]
    pub fn die_voltage(&self, amps: f64) -> f64 {
        // v_die = u_die + ESR_die · i_cap, i_cap = i_branch3 − i_load.
        self.state[5] + self.esr[2] * (self.state[2] - amps)
    }

    /// Simulation time step in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Branch currents `[board, package, die]` in amps (for tests and
    /// diagnostics).
    pub fn branch_currents(&self) -> [f64; 3] {
        [self.state[0], self.state[1], self.state[2]]
    }

    /// Network derivative. States: `i0..i2` branch currents (board,
    /// package, die), `u0..u2` internal cap voltages.
    #[inline]
    fn deriv(&self, s: &State, load: f64) -> State {
        let (i0, i1, i2) = (s[0], s[1], s[2]);
        let (u0, u1, u2) = (s[3], s[4], s[5]);
        // Cap branch currents by KCL at each ladder node.
        let ic0 = i0 - i1;
        let ic1 = i1 - i2;
        let ic2 = i2 - load;
        // Node voltages include decap ESR drop.
        let v0 = u0 + self.esr[0] * ic0;
        let v1 = u1 + self.esr[1] * ic1;
        let v2 = u2 + self.esr[2] * ic2;
        // VRM source with (optionally disabled) quasi-static load line.
        let v_src = self.v_nom - self.load_line_slope * i0;
        [
            (v_src - self.series_r[0] * i0 - v0) * self.inv_l[0],
            (v0 - self.series_r[1] * i1 - v1) * self.inv_l[1],
            (v1 - self.series_r[2] * i2 - v2) * self.inv_l[2],
            ic0 * self.inv_c[0],
            ic1 * self.inv_c[1],
            ic2 * self.inv_c[2],
        ]
    }
}

#[inline]
fn add_scaled(a: &State, b: &State, k: f64) -> State {
    let mut out = [0.0; 6];
    for i in 0..6 {
        out[i] = a[i] + k * b[i];
    }
    out
}

fn dot(a: &State, b: &State) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn matrix_mul(a: &Matrix, b: &Matrix) -> Matrix {
    std::array::from_fn(|i| std::array::from_fn(|j| (0..6).map(|k| a[i][k] * b[k][j]).sum()))
}

/// `base^exp` by binary exponentiation (≤ 2·64 products).
fn matrix_pow(mut base: Matrix, mut exp: u64) -> Matrix {
    let mut acc: Matrix = std::array::from_fn(|i| std::array::from_fn(|j| f64::from(i == j)));
    while exp > 0 {
        if exp & 1 == 1 {
            acc = matrix_mul(&acc, &base);
        }
        exp >>= 1;
        if exp > 0 {
            base = matrix_mul(&base, &base);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadline::LoadLine;
    use crate::model::PdnModel;

    const CLOCK: f64 = 3.2e9;

    fn settled(pdn: &PdnModel, amps: f64) -> Transient {
        let mut t = Transient::new(pdn, CLOCK);
        // 3rd droop is ~500 kHz; settle for several of its periods.
        t.settle(amps, 100_000);
        t
    }

    #[test]
    fn zero_load_holds_nominal() {
        let pdn = PdnModel::bulldozer_board();
        let mut t = Transient::new(&pdn, CLOCK);
        for _ in 0..10_000 {
            let v = t.step(0.0);
            assert!((v - pdn.nominal_voltage()).abs() < 1e-9, "v = {v}");
        }
    }

    #[test]
    fn dc_operating_point_matches_ir_drop() {
        // Explicit steps, not `settle`: this pins that RK4 stepping
        // itself converges to DC, independently of the closed form.
        let pdn = PdnModel::bulldozer_board();
        let amps = 50.0;
        let mut t = Transient::new(&pdn, CLOCK);
        // Step a long time to kill slow board modes.
        let mut v = 0.0;
        for _ in 0..2_100_000 {
            v = t.step(amps);
        }
        let expect = pdn.nominal_voltage() - amps * pdn.total_series_resistance();
        assert!((v - expect).abs() < 2e-3, "v = {v}, expect = {expect}");
        // All series branches carry the full DC load.
        for i in t.branch_currents() {
            assert!((i - amps).abs() < 0.5, "branch current {i}");
        }
    }

    #[test]
    fn step_load_causes_droop_then_recovery() {
        let pdn = PdnModel::bulldozer_board();
        let mut t = settled(&pdn, 10.0);
        let settled_v = t.die_voltage(10.0);
        let mut min_v = f64::INFINITY;
        for _ in 0..2_000 {
            min_v = min_v.min(t.step(80.0));
        }
        // An abrupt 70 A step must droop tens of millivolts...
        assert!(settled_v - min_v > 0.02, "droop = {}", settled_v - min_v);
        // ...and the first droop must ring back up (underdamped).
        let mut max_after = f64::NEG_INFINITY;
        for _ in 0..2_000 {
            max_after = max_after.max(t.step(80.0));
        }
        assert!(max_after > min_v + 0.005);
    }

    #[test]
    fn resonant_square_wave_droops_more_than_single_step() {
        let pdn = PdnModel::bulldozer_board();
        let f1 = pdn.die_stage().natural_frequency_hz();
        let period = (CLOCK / f1).round() as u64; // cycles per resonant period

        // Single excitation.
        let mut t = settled(&pdn, 10.0);
        let mut single_min = f64::INFINITY;
        for _ in 0..10 * period {
            single_min = single_min.min(t.step(80.0));
        }

        // Square wave at the first droop resonance.
        let mut t = settled(&pdn, 10.0);
        let mut res_min = f64::INFINITY;
        for c in 0..100 * period {
            let amps = if (c / (period / 2)).is_multiple_of(2) {
                80.0
            } else {
                10.0
            };
            res_min = res_min.min(t.step(amps));
        }
        assert!(
            res_min < single_min - 0.01,
            "resonant min {res_min} vs single-step min {single_min}"
        );
    }

    #[test]
    fn off_resonance_square_wave_droops_less_than_resonant() {
        let pdn = PdnModel::bulldozer_board();
        let f1 = pdn.die_stage().natural_frequency_hz();
        let res_period = (CLOCK / f1).round() as u64;

        let min_for_period = |period: u64| {
            let mut t = settled(&pdn, 10.0);
            let mut min_v = f64::INFINITY;
            for c in 0..200 * res_period {
                let amps = if (c / (period / 2)).is_multiple_of(2) {
                    80.0
                } else {
                    10.0
                };
                min_v = min_v.min(t.step(amps));
            }
            min_v
        };

        let at_res = min_for_period(res_period);
        let off_res = min_for_period(res_period * 3);
        assert!(at_res < off_res - 0.01, "at {at_res} vs off {off_res}");
    }

    #[test]
    fn droop_magnitude_is_in_hardware_like_range() {
        // Resonant worst case should be on the order of 100–300 mV on a
        // 1.2 V rail — the regime real stressmarks operate in.
        let pdn = PdnModel::bulldozer_board();
        let f1 = pdn.die_stage().natural_frequency_hz();
        let period = (CLOCK / f1).round() as u64;
        let mut t = settled(&pdn, 10.0);
        let mut min_v = f64::INFINITY;
        for c in 0..300 * period {
            let amps = if (c / (period / 2)).is_multiple_of(2) {
                90.0
            } else {
                10.0
            };
            min_v = min_v.min(t.step(amps));
        }
        let droop = pdn.nominal_voltage() - min_v;
        assert!((0.05..0.4).contains(&droop), "droop = {droop}");
    }

    #[test]
    fn load_line_lowers_dc_voltage() {
        let base = PdnModel::bulldozer_board();
        let with_ll = base.clone().with_load_line(LoadLine::with_slope(1.0e-3));
        let mut a = settled(&base, 50.0);
        let mut b = settled(&with_ll, 50.0);
        a.settle(50.0, 1_000_000);
        b.settle(50.0, 1_000_000);
        let va = a.die_voltage(50.0);
        let vb = b.die_voltage(50.0);
        assert!(va - vb > 0.04, "va = {va}, vb = {vb}");
    }

    #[test]
    fn solver_is_deterministic() {
        let pdn = PdnModel::bulldozer_board();
        let run = || {
            let mut t = Transient::new(&pdn, CLOCK);
            let mut acc = 0.0;
            for c in 0..5_000u64 {
                acc += t.step(if c % 7 == 0 { 60.0 } else { 20.0 });
            }
            acc
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "clock frequency")]
    fn rejects_bad_clock() {
        let _ = Transient::new(&PdnModel::bulldozer_board(), 0.0);
    }

    #[test]
    fn state_stays_finite_under_extreme_load_swings() {
        let pdn = PdnModel::bulldozer_board();
        let mut t = Transient::new(&pdn, CLOCK);
        for c in 0..50_000u64 {
            let amps = if c % 2 == 0 { 0.0 } else { 200.0 };
            let v = t.step(amps);
            assert!(v.is_finite());
        }
    }
}
