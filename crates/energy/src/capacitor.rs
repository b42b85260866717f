//! Capacitor energy-store model.

/// An ideal capacitor used as the device's energy store.
///
/// Stored energy follows `E = ½·C·V²`. The paper models a 10 µF capacitor
/// (§IV). Harvested energy charges it toward a rail voltage `v_max`
/// (excess harvest is shed); execution drains it.
///
/// ```
/// use wn_energy::Capacitor;
/// let mut cap = Capacitor::new(10e-6, 4.5);
/// cap.add_energy(1e-6);
/// assert!(cap.voltage() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    capacitance_f: f64,
    v_max: f64,
    energy_j: f64,
    /// Cached `energy_at(v_max)`: [`Capacitor::add_energy`] clamps against
    /// it on the per-instruction hot path of every intermittent run.
    max_energy_j: f64,
}

impl Capacitor {
    /// Creates a discharged capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance_f` or `v_max` are not positive.
    pub fn new(capacitance_f: f64, v_max: f64) -> Capacitor {
        assert!(capacitance_f > 0.0, "capacitance must be positive");
        assert!(v_max > 0.0, "rail voltage must be positive");
        // Same expression (and evaluation order) as `energy_at`, so the
        // cached clamp is bit-identical to computing it per call.
        let max_energy_j = 0.5 * capacitance_f * v_max * v_max;
        Capacitor {
            capacitance_f,
            v_max,
            energy_j: 0.0,
            max_energy_j,
        }
    }

    /// Capacitance in farads.
    pub fn capacitance(&self) -> f64 {
        self.capacitance_f
    }

    /// Rail (maximum) voltage in volts.
    pub fn v_max(&self) -> f64 {
        self.v_max
    }

    /// Stored energy in joules.
    #[inline]
    pub fn energy(&self) -> f64 {
        self.energy_j
    }

    /// Terminal voltage in volts (`V = sqrt(2E/C)`).
    pub fn voltage(&self) -> f64 {
        (2.0 * self.energy_j / self.capacitance_f).sqrt()
    }

    /// Energy stored at a given voltage on this capacitor.
    pub fn energy_at(&self, volts: f64) -> f64 {
        0.5 * self.capacitance_f * volts * volts
    }

    /// [`Capacitor::voltage`] evaluated at a hypothetical stored energy —
    /// the exact same expression, so results are bit-identical to setting
    /// the energy and reading the voltage.
    #[inline]
    fn voltage_of(&self, energy_j: f64) -> f64 {
        (2.0 * energy_j / self.capacitance_f).sqrt()
    }

    /// The smallest stored energy whose [`Capacitor::voltage`] computes to
    /// at least `volts`, or `+inf` if no energy up to the rail does.
    ///
    /// `voltage_of` is monotone non-decreasing **in the energy's bit
    /// pattern**: `2.0 * e` is exact, and division by a positive constant
    /// and `sqrt` are correctly rounded and order-preserving. So for any
    /// reachable energy `e` (always in `[0, max_energy_j]`, never `-0.0`),
    /// `voltage() < volts` ⇔ `energy() < threshold`, and a brown-out
    /// check can compare energies directly — no `sqrt` on the hot path.
    /// Found by bisection over the f64 bit lattice (non-negative floats
    /// order like their bits), so the threshold is exact to the ulp, not
    /// an algebraic inversion subject to rounding.
    pub fn voltage_threshold_energy(&self, volts: f64) -> f64 {
        debug_assert!(volts > 0.0 && volts.is_finite());
        if self.voltage_of(0.0) >= volts {
            return 0.0;
        }
        if self.voltage_of(self.max_energy_j) < volts {
            return f64::INFINITY;
        }
        let mut lo = 0.0f64.to_bits(); // voltage_of(lo) < volts
        let mut hi = self.max_energy_j.to_bits(); // voltage_of(hi) >= volts
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.voltage_of(f64::from_bits(mid)) >= volts {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        f64::from_bits(hi)
    }

    /// Adds harvested energy, clamping at the rail voltage.
    ///
    /// The clamp is a branch rather than `f64::min`: the inputs are never
    /// NaN (so both forms produce identical bits), and a predicted branch
    /// keeps the compare off the per-instruction energy dependency chain
    /// that paces [`settle`](../supply/struct.EnergySupply.html#method.settle).
    #[inline]
    pub fn add_energy(&mut self, joules: f64) {
        debug_assert!(joules >= 0.0);
        let sum = self.energy_j + joules;
        self.energy_j = if sum > self.max_energy_j {
            self.max_energy_j
        } else {
            sum
        };
    }

    /// Drains energy for execution; clamps at zero and returns the energy
    /// actually removed. Branch-form clamp for the same reason as
    /// [`Capacitor::add_energy`].
    #[inline]
    pub fn drain(&mut self, joules: f64) -> f64 {
        debug_assert!(joules >= 0.0);
        if joules <= self.energy_j {
            self.energy_j -= joules;
            joules
        } else {
            let removed = self.energy_j;
            self.energy_j = 0.0;
            removed
        }
    }

    /// The rail energy [`Capacitor::add_energy`] clamps at.
    #[inline]
    pub(crate) fn max_energy(&self) -> f64 {
        self.max_energy_j
    }

    /// Stores an energy value the supply's settle kernel computed, with
    /// both clamps already ruled out, back into the capacitor.
    #[inline]
    pub(crate) fn set_energy_raw(&mut self, energy_j: f64) {
        debug_assert!((0.0..=self.max_energy_j).contains(&energy_j));
        self.energy_j = energy_j;
    }

    /// Sets the capacitor to an exact voltage (used by tests and to model
    /// a pre-charged deployment).
    pub fn set_voltage(&mut self, volts: f64) {
        let volts = volts.clamp(0.0, self.v_max);
        self.energy_j = self.energy_at(volts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_capacitor_usable_energy() {
        // ½·10µF·(2.4² − 1.8²) = 12.6 µJ usable between thresholds.
        let cap = Capacitor::new(10e-6, 4.5);
        let usable = cap.energy_at(2.4) - cap.energy_at(1.8);
        assert!((usable - 12.6e-6).abs() < 1e-9, "usable = {usable}");
    }

    #[test]
    fn voltage_energy_roundtrip() {
        let mut cap = Capacitor::new(10e-6, 5.0);
        cap.set_voltage(2.4);
        assert!((cap.voltage() - 2.4).abs() < 1e-12);
        assert!((cap.energy() - cap.energy_at(2.4)).abs() < 1e-18);
    }

    #[test]
    fn clamps_at_rail() {
        let mut cap = Capacitor::new(1e-6, 3.0);
        cap.add_energy(1.0); // way more than the rail allows
        assert!((cap.voltage() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn drain_clamps_at_zero() {
        let mut cap = Capacitor::new(1e-6, 3.0);
        cap.set_voltage(1.0);
        let e = cap.energy();
        let removed = cap.drain(e * 2.0);
        assert!((removed - e).abs() < 1e-18);
        assert_eq!(cap.energy(), 0.0);
        assert_eq!(cap.voltage(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacitance")]
    fn rejects_zero_capacitance() {
        Capacitor::new(0.0, 3.0);
    }

    #[test]
    fn threshold_energy_is_exact_to_the_ulp() {
        // The bisected threshold must split the energy axis exactly where
        // the voltage comparison does: one ulp below it the voltage
        // computes below v_off, at it the voltage computes at or above.
        for (c, v_max, v_off) in [
            (10e-6, 4.5, 1.8),
            (6.8e-6, 4.5, 1.8),
            (10e-6, 4.5, 2.4),
            (3.3e-7, 5.0, 0.9),
        ] {
            let cap = Capacitor::new(c, v_max);
            let e_star = cap.voltage_threshold_energy(v_off);
            assert!(e_star.is_finite() && e_star > 0.0);
            assert!(cap.voltage_of(e_star) >= v_off);
            let below = f64::from_bits(e_star.to_bits() - 1);
            assert!(cap.voltage_of(below) < v_off);
        }
    }

    #[test]
    fn threshold_energy_edges() {
        let cap = Capacitor::new(10e-6, 4.5);
        // Unreachable voltage: no stored energy suffices.
        assert_eq!(cap.voltage_threshold_energy(100.0), f64::INFINITY);
    }

    proptest! {
        #[test]
        fn threshold_agrees_with_voltage_comparison(
            c in 1e-7f64..1e-4,
            v_off_frac in 0.05f64..0.95,
            e_frac in 0.0f64..1.0,
        ) {
            let v_max = 4.5;
            let cap = Capacitor::new(c, v_max);
            let v_off = v_max * v_off_frac;
            let e_star = cap.voltage_threshold_energy(v_off);
            let e = cap.energy_at(v_max) * e_frac;
            // The hot-path rewrite: energy compare ⇔ voltage compare.
            prop_assert_eq!(e < e_star, cap.voltage_of(e) < v_off);
        }

        #[test]
        fn add_then_drain_is_identity_below_rail(v in 0.1f64..2.0, e in 0.0f64..1e-6) {
            let mut cap = Capacitor::new(10e-6, 4.5);
            cap.set_voltage(v);
            let before = cap.energy();
            cap.add_energy(e);
            // stays below rail for these ranges
            prop_assert!((cap.energy() - (before + e)).abs() < 1e-15);
            cap.drain(e);
            prop_assert!((cap.energy() - before).abs() < 1e-15);
        }

        #[test]
        fn voltage_monotone_in_energy(e1 in 0.0f64..1e-5, e2 in 0.0f64..1e-5) {
            let mut a = Capacitor::new(10e-6, 100.0);
            let mut b = Capacitor::new(10e-6, 100.0);
            a.add_energy(e1.min(e2));
            b.add_energy(e1.max(e2));
            prop_assert!(a.voltage() <= b.voltage() + 1e-12);
        }
    }
}
