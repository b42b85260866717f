//! Synthetic harvested-power traces.
//!
//! The paper drives its simulator with 1 kHz voltage traces captured from
//! a Wi-Fi RF source (§IV, citing Furlong et al.). We do not have those
//! measured traces, so we synthesize power traces with the same character:
//! irregular bursts of incoming power whose magnitude keeps device
//! on-periods in the few-millisecond regime. Traces are sampled at 1 kHz,
//! deterministic for a given seed, and wrap around when read past the end.
//! Every trace is one shared vector of dense samples.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sampling rate of all traces, matching the paper's 1 kHz traces.
pub const SAMPLE_HZ: f64 = 1000.0;

/// Number of 1 kHz samples covering a duration given in milliseconds —
/// kept in one place so synthesis derives sample counts from
/// [`SAMPLE_HZ`] instead of silently assuming one sample per
/// millisecond. At 1 kHz the scale factor is exactly 1.0, so the
/// multiplication is bit-transparent and historical traces are
/// unchanged.
#[inline]
pub(crate) fn samples_per_ms(dur_ms: f64) -> usize {
    samples_for_duration_ms(dur_ms, SAMPLE_HZ)
}

/// Rate-generic form of [`samples_per_ms`], unit-testable at sampling
/// rates other than the crate-wide constant.
#[inline]
pub(crate) fn samples_for_duration_ms(dur_ms: f64, sample_hz: f64) -> usize {
    (dur_ms * (sample_hz / 1000.0)).round().max(1.0) as usize
}

/// Families of synthetic harvesting environments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Wi-Fi/RF-like: alternating bursts and silences with exponentially
    /// distributed durations and noisy burst amplitude. This is the
    /// paper's environment.
    RfBursty,
    /// Solar-like: slow large-scale variation plus flicker.
    Solar,
    /// Periodic square wave (e.g. a rotating machine passing an antenna).
    Periodic,
    /// Constant power (useful as a calibration baseline).
    Constant,
    /// Imported from measured data (see [`PowerTrace::from_samples`] and
    /// [`PowerTrace::from_csv`]).
    Imported,
}

impl TraceKind {
    /// The synthetic kinds (excluding [`TraceKind::Imported`]).
    pub const ALL: [TraceKind; 4] = [
        TraceKind::RfBursty,
        TraceKind::Solar,
        TraceKind::Periodic,
        TraceKind::Constant,
    ];
}

/// A harvested-power trace sampled at 1 kHz, in watts.
///
/// Reads past the end wrap around, so a trace of any duration can drive an
/// arbitrarily long run.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    /// Shared sample storage: clones of a trace (one per intermittent
    /// run) are reference-counted, not memcpy'd.
    samples: Arc<Vec<f32>>,
    kind: TraceKind,
    seed: u64,
}

impl PowerTrace {
    /// Mean burst power of the RF environment, in watts. Chosen so that
    /// recharging the paper's 10 µF capacitor between thresholds takes on
    /// the order of 100 ms — frequent outages, as the paper requires.
    pub const RF_BURST_POWER_W: f64 = 250e-6;

    /// Generates a synthetic trace of `duration_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not positive or `kind` is
    /// [`TraceKind::Imported`] (use [`PowerTrace::from_samples`]).
    pub fn generate(kind: TraceKind, seed: u64, duration_s: f64) -> PowerTrace {
        assert!(duration_s > 0.0, "trace duration must be positive");
        let n = (duration_s * SAMPLE_HZ).ceil() as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x574e_5452_4143_4531);
        let mut samples = Vec::with_capacity(n);
        match kind {
            TraceKind::RfBursty => {
                // Alternate ON bursts and OFF gaps with exponential
                // durations (means 40 ms / 40 ms) and log-normal-ish
                // amplitude around RF_BURST_POWER_W, with per-sample
                // jitter.
                let mut remaining = 0usize;
                let mut level = 0.0f64;
                let mut on = rng.gen_bool(0.5);
                while samples.len() < n {
                    if remaining == 0 {
                        on = !on;
                        let mean_ms = 40.0;
                        let dur_ms = exp_sample(&mut rng, mean_ms).clamp(2.0, 400.0);
                        remaining = samples_per_ms(dur_ms);
                        level = if on {
                            Self::RF_BURST_POWER_W * (0.4 + 1.2 * rng.gen::<f64>())
                        } else {
                            Self::RF_BURST_POWER_W * 0.02 * rng.gen::<f64>()
                        };
                    }
                    let jitter = 1.0 + 0.1 * (rng.gen::<f64>() - 0.5);
                    samples.push((level * jitter).max(0.0) as f32);
                    remaining -= 1;
                }
            }
            TraceKind::Solar => {
                // Slow sinusoid (period ~20 s) plus flicker.
                let base = Self::RF_BURST_POWER_W;
                for i in 0..n {
                    let t = i as f64 / SAMPLE_HZ;
                    let slow = 0.5 + 0.5 * (2.0 * std::f64::consts::PI * t / 20.0).sin();
                    let flicker = 0.9 + 0.2 * rng.gen::<f64>();
                    samples.push((base * slow * flicker) as f32);
                }
            }
            TraceKind::Periodic => {
                // 50 ms on, 150 ms off square wave.
                let base = Self::RF_BURST_POWER_W * 2.0;
                for i in 0..n {
                    let phase_ms = (i % 200) as f64;
                    samples.push(if phase_ms < 50.0 { base as f32 } else { 0.0 });
                }
            }
            TraceKind::Constant => {
                let level = (Self::RF_BURST_POWER_W / 2.0) as f32;
                samples.resize(n, level);
            }
            TraceKind::Imported => {
                panic!("imported traces come from from_samples/from_csv, not generate")
            }
        }
        PowerTrace {
            samples: Arc::new(samples),
            kind,
            seed,
        }
    }

    /// Wraps measured 1 kHz power samples (watts) as a trace — the hook
    /// for replacing this repository's synthetic traces with the kind of
    /// captured Wi-Fi harvesting traces the paper uses.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample vector or negative power.
    pub fn from_samples(samples_w: Vec<f32>) -> PowerTrace {
        assert!(!samples_w.is_empty(), "a trace needs at least one sample");
        assert!(
            samples_w.iter().all(|&p| p >= 0.0),
            "power must be non-negative"
        );
        PowerTrace {
            samples: Arc::new(samples_w),
            kind: TraceKind::Imported,
            seed: 0,
        }
    }

    /// Parses a trace from CSV: one power-in-watts value per line
    /// (an optional `time,power` pair per line is also accepted — the
    /// first column is ignored; sampling is assumed to be 1 kHz). Lines
    /// starting with `#` and a leading header line are skipped.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unparseable line.
    pub fn from_csv(text: &str) -> Result<PowerTrace, String> {
        let mut samples = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let field = line.rsplit(',').next().unwrap_or(line).trim();
            match field.parse::<f32>() {
                Ok(p) if p >= 0.0 => samples.push(p),
                Ok(p) => return Err(format!("line {}: negative power {p}", i + 1)),
                // Tolerate textual header lines before the first sample.
                Err(_) if samples.is_empty() => continue,
                Err(e) => return Err(format!("line {}: {e}", i + 1)),
            }
        }
        if samples.is_empty() {
            return Err("no samples in CSV".to_string());
        }
        Ok(PowerTrace::from_samples(samples))
    }

    /// Converts a measured harvester *voltage* trace (volts at 1 kHz)
    /// into a power trace using a matched-source model
    /// (`P = V² / source_ohms`) — the paper's traces are voltage traces
    /// captured from a Wi-Fi source.
    ///
    /// # Panics
    ///
    /// Panics unless `source_ohms` is positive.
    pub fn from_voltage_samples(volts: &[f32], source_ohms: f64) -> PowerTrace {
        assert!(source_ohms > 0.0, "source impedance must be positive");
        let samples = volts
            .iter()
            .map(|&v| ((v as f64 * v as f64) / source_ohms) as f32)
            .collect();
        PowerTrace::from_samples(samples)
    }

    /// Renders the trace as CSV (`time_ms,power_w`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "time_ms,power_w
",
        );
        for (i, p) in self.samples.iter().enumerate() {
            out.push_str(&format!(
                "{i},{p:e}
"
            ));
        }
        out
    }

    /// The nine-trace ensemble used for intermittent experiments,
    /// mirroring the paper's "9 different voltage traces": seven RF
    /// traces with different seeds plus a solar and a periodic trace.
    pub fn paper_suite(base_seed: u64, duration_s: f64) -> Vec<PowerTrace> {
        PowerTrace::paper_suite_recipe(base_seed)
            .into_iter()
            .map(|(kind, seed)| PowerTrace::generate(kind, seed, duration_s))
            .collect()
    }

    /// The `(kind, seed)` of each [`PowerTrace::paper_suite`] trace, in
    /// order: seven RF traces at `base_seed + 0..7`, then a solar and a
    /// periodic trace at `base_seed + 7` and `+ 8`.
    pub fn paper_suite_recipe(base_seed: u64) -> [(TraceKind, u64); 9] {
        std::array::from_fn(|i| {
            let kind = match i {
                7 => TraceKind::Solar,
                8 => TraceKind::Periodic,
                _ => TraceKind::RfBursty,
            };
            (kind, base_seed + i as u64)
        })
    }

    /// The trace family.
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of 1 kHz samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the trace has no samples (never the case for `generate`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Trace duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.len() as f64 / SAMPLE_HZ
    }

    /// Instantaneous harvested power at time `t_s`, wrapping past the end.
    #[inline]
    pub fn power_at(&self, t_s: f64) -> f64 {
        debug_assert!(t_s >= 0.0);
        let idx = (t_s * SAMPLE_HZ) as usize % self.len();
        self.samples[idx] as f64
    }

    /// Harvested power of the sample at absolute (unwrapped) index
    /// `index`, in watts — the value [`PowerTrace::power_at`] reads for
    /// any time inside that 1 ms sample. Used by the supply's segment
    /// cache to avoid re-deriving the index (and its modulo) on every
    /// retired instruction.
    #[inline]
    pub fn power_at_sample(&self, index: u64) -> f64 {
        self.samples[(index % self.len() as u64) as usize] as f64
    }

    /// Number of consecutive samples from absolute index `index` (after
    /// wrapping) whose stored value is exactly zero, stopping at the
    /// first nonzero sample or at the trace end — never wrapping past
    /// it. The supply's charge/discharge fast-forward sprints through
    /// such runs: zero harvest leaves the capacitor's bits untouched, so
    /// the per-sample walk can be skipped without changing any result.
    pub fn zero_run_from(&self, index: u64) -> u64 {
        let wrapped = (index % self.len() as u64) as usize;
        self.samples[wrapped..]
            .iter()
            .take_while(|&&p| p == 0.0)
            .count() as u64
    }

    /// Energy harvested over `[t0, t0+dt)` in joules (piecewise-constant
    /// integration over the 1 kHz samples).
    #[inline]
    pub fn energy_between(&self, t0_s: f64, dt_s: f64) -> f64 {
        debug_assert!(dt_s >= 0.0);
        if dt_s <= 0.0 {
            return 0.0;
        }
        let sample_dt = 1.0 / SAMPLE_HZ;
        let end = t0_s + dt_s;
        // Walk integer sample indices: a float-time walk can stall when
        // `t / sample_dt` rounds just below the boundary it sits on,
        // which would silently drop the rest of the interval's energy.
        let first = (t0_s * SAMPLE_HZ).floor() as u64;
        let last = (end * SAMPLE_HZ).floor() as u64;
        let n = self.len() as u64;
        if first == last {
            // Same index reduction as `power_at`.
            let idx = (t0_s * SAMPLE_HZ) as usize % self.len();
            return self.samples[idx] as f64 * dt_s;
        }
        let mut energy = 0.0;
        for i in first..=last {
            let seg_start = i as f64 * sample_dt;
            let lo = seg_start.max(t0_s);
            let hi = (seg_start + sample_dt).min(end);
            if hi > lo {
                energy += self.samples[(i % n) as usize] as f64 * (hi - lo);
            }
        }
        energy
    }

    /// Mean power over the whole trace, in watts.
    pub fn mean_power(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&p| p as f64).sum::<f64>() / self.len() as f64
    }
}

/// An exponential draw of mean `mean`, from one uniform in `[1e-9, 1)`.
pub(crate) fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-9..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = PowerTrace::generate(TraceKind::RfBursty, 7, 5.0);
        let b = PowerTrace::generate(TraceKind::RfBursty, 7, 5.0);
        assert_eq!(a, b);
        let c = PowerTrace::generate(TraceKind::RfBursty, 8, 5.0);
        assert_ne!(a, c);
    }

    #[test]
    fn duration_and_len() {
        let t = PowerTrace::generate(TraceKind::Constant, 0, 2.5);
        assert_eq!(t.len(), 2500);
        assert!((t.duration_s() - 2.5).abs() < 1e-9);
        assert!(!t.is_empty());
    }

    #[test]
    fn wraps_past_end() {
        let t = PowerTrace::generate(TraceKind::Periodic, 0, 1.0);
        assert_eq!(t.power_at(0.0), t.power_at(1.0));
        assert_eq!(t.power_at(0.42), t.power_at(1.42));
    }

    #[test]
    fn constant_trace_mean() {
        let t = PowerTrace::generate(TraceKind::Constant, 0, 1.0);
        let expect = PowerTrace::RF_BURST_POWER_W / 2.0;
        assert!((t.mean_power() - expect).abs() < 1e-9);
    }

    #[test]
    fn rf_mean_power_in_regime() {
        // Mean power should be within a factor of a few of half the burst
        // power (bursts ~50% duty).
        let t = PowerTrace::generate(TraceKind::RfBursty, 3, 60.0);
        let mean = t.mean_power();
        assert!(mean > PowerTrace::RF_BURST_POWER_W * 0.15, "mean {mean}");
        assert!(mean < PowerTrace::RF_BURST_POWER_W * 1.2, "mean {mean}");
    }

    #[test]
    fn energy_integration_constant() {
        let t = PowerTrace::generate(TraceKind::Constant, 0, 1.0);
        let p = t.mean_power();
        let e = t.energy_between(0.1, 0.5);
        assert!((e - p * 0.5).abs() < 1e-12);
        // sub-sample interval
        let e = t.energy_between(0.1234, 0.0001);
        assert!((e - p * 0.0001).abs() < 1e-15);
    }

    #[test]
    fn energy_integration_additivity() {
        let t = PowerTrace::generate(TraceKind::RfBursty, 9, 10.0);
        let whole = t.energy_between(1.0, 0.8);
        let parts = t.energy_between(1.0, 0.3) + t.energy_between(1.3, 0.5);
        // Tolerance covers one-sample attribution jitter at the split
        // point (float division landing on either side of a 1 ms sample
        // boundary), bounded by burst power × sample period.
        assert!((whole - parts).abs() < 1e-6, "whole={whole} parts={parts}");
    }

    #[test]
    fn energy_zero_interval() {
        let t = PowerTrace::generate(TraceKind::Solar, 1, 1.0);
        assert_eq!(t.energy_between(0.5, 0.0), 0.0);
    }

    #[test]
    fn paper_suite_has_nine_distinct_traces() {
        let suite = PowerTrace::paper_suite(100, 5.0);
        assert_eq!(suite.len(), 9);
        for i in 0..suite.len() {
            for j in (i + 1)..suite.len() {
                assert_ne!(suite[i], suite[j], "traces {i} and {j} identical");
            }
        }
        assert_eq!(suite[7].kind(), TraceKind::Solar);
        assert_eq!(suite[8].kind(), TraceKind::Periodic);
    }

    #[test]
    fn csv_roundtrip() {
        let t = PowerTrace::generate(TraceKind::RfBursty, 5, 1.0);
        let csv = t.to_csv();
        let back = PowerTrace::from_csv(&csv).unwrap();
        assert_eq!(back.kind(), TraceKind::Imported);
        assert_eq!(back.len(), t.len());
        for i in 0..t.len() {
            let ts = i as f64 / SAMPLE_HZ;
            assert!((back.power_at(ts) - t.power_at(ts)).abs() < 1e-9);
        }
    }

    #[test]
    fn csv_accepts_single_column_and_comments() {
        let t = PowerTrace::from_csv(
            "# comment
0.001
0.002
0.0
",
        )
        .unwrap();
        assert_eq!(t.len(), 3);
        assert!(PowerTrace::from_csv("").is_err());
        assert!(PowerTrace::from_csv(
            "h
-1.0
"
        )
        .is_err());
    }

    #[test]
    fn voltage_conversion() {
        let t = PowerTrace::from_voltage_samples(&[1.0, 2.0], 100.0);
        assert!((t.power_at(0.0) - 0.01).abs() < 1e-9);
        assert!((t.power_at(1e-3) - 0.04).abs() < 1e-9);
    }

    #[test]
    fn all_kinds_generate_nonnegative_power() {
        for kind in TraceKind::ALL {
            let t = PowerTrace::generate(kind, 5, 3.0);
            for i in 0..t.len() {
                assert!(t.power_at(i as f64 / SAMPLE_HZ) >= 0.0);
            }
        }
    }

    #[test]
    fn samples_for_duration_scales_with_rate() {
        // The satellite guard for the SAMPLE_HZ coupling: segment
        // lengths must be derived from the sampling rate, so a rate
        // change scales sample counts instead of silently reusing
        // millisecond counts.
        assert_eq!(samples_for_duration_ms(40.0, 1000.0), 40);
        assert_eq!(samples_for_duration_ms(40.0, 2000.0), 80);
        assert_eq!(samples_for_duration_ms(40.0, 500.0), 20);
        assert_eq!(samples_for_duration_ms(2.4, 1000.0), 2);
        // Sub-sample durations still emit one sample.
        assert_eq!(samples_for_duration_ms(0.2, 1000.0), 1);
        assert_eq!(samples_for_duration_ms(1.0, 250.0), 1);
        // At the crate rate the helper is the historical expression.
        assert_eq!(samples_per_ms(17.49), 17);
        assert_eq!(samples_per_ms(17.5), 18);
    }

    #[test]
    fn zero_runs_stop_at_trace_end_and_nonzero() {
        let mut samples = vec![0.0f32; 5];
        samples.extend([1e-4, 1e-4, 0.0, 0.0, 0.0]);
        let t = PowerTrace::from_samples(samples);
        assert_eq!(t.zero_run_from(0), 5);
        assert_eq!(t.zero_run_from(2), 3);
        assert_eq!(t.zero_run_from(5), 0);
        assert_eq!(t.zero_run_from(7), 3); // trailing zero run, clipped at end
        assert_eq!(t.zero_run_from(9), 1);
        assert_eq!(t.zero_run_from(10), 5); // wraps to the head run
    }
}
