//! One entry point per table and figure of the paper's evaluation.
//!
//! Every experiment takes an [`ExperimentConfig`] and returns a typed
//! result struct that implements `Display` (human-readable rows matching
//! the paper's presentation) and provides `to_csv()` for plotting. The
//! per-experiment index lives in `DESIGN.md`; paper-vs-measured values are
//! recorded in `EXPERIMENTS.md`.

pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig09;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig17;
pub mod table1;

use wn_energy::{PowerTrace, SupplyConfig};
use wn_kernels::Scale;

use crate::intermittent::quick_supply;

/// Renders a row-major accumulator image as an 8-bit ASCII PGM, with
/// gray levels normalized by `max` (shared by the Fig. 2 and Fig. 16
/// panels so they quantize identically).
pub(crate) fn render_pgm(image: &[i64], width: u32, max: i64) -> String {
    let max = max.max(1);
    let mut s = format!("P2\n{} {}\n255\n", width, image.len() as u32 / width);
    for (i, &v) in image.iter().enumerate() {
        let gray = (v.max(0) * 255 / max).min(255);
        s.push_str(&gray.to_string());
        s.push(if (i + 1) % width as usize == 0 {
            '\n'
        } else {
            ' '
        });
    }
    s
}

/// Shared experiment knobs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Benchmark problem sizes.
    pub scale: Scale,
    /// Voltage traces per configuration (paper: 9).
    pub traces: usize,
    /// Invocations per trace (paper: 3).
    pub invocations: usize,
    /// Master seed for inputs and traces.
    pub seed: u64,
    /// Supply configuration for intermittent experiments.
    pub supply: SupplyConfig,
    /// Simulated wall-clock cap per intermittent run, in seconds.
    pub wall_limit_s: f64,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig::quick()
    }
}

impl ExperimentConfig {
    /// Fast configuration: small kernels, a scaled-down capacitor (same
    /// outage-dominated regime), 3 traces × 1 invocation.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            scale: Scale::Quick,
            traces: 3,
            invocations: 1,
            seed: 42,
            supply: quick_supply(),
            wall_limit_s: 3600.0,
        }
    }

    /// The paper's methodology: full-size kernels, 10 µF capacitor,
    /// 9 traces × 3 invocations. Slow — used by the benchmark harness.
    pub fn paper() -> ExperimentConfig {
        ExperimentConfig {
            scale: Scale::Paper,
            traces: 9,
            invocations: 3,
            seed: 42,
            supply: SupplyConfig::default(),
            wall_limit_s: 24.0 * 3600.0,
        }
    }

    /// The trace ensemble: `traces × invocations` seeded power traces
    /// (an invocation sees the same environment kind at a different
    /// offset, realized as a distinct seed).
    pub fn trace_ensemble(&self) -> Vec<PowerTrace> {
        self.ensemble(120.0)
    }

    /// [`ExperimentConfig::trace_ensemble`] with traces of `duration_s`.
    fn ensemble(&self, duration_s: f64) -> Vec<PowerTrace> {
        let recipe = PowerTrace::paper_suite_recipe(self.seed.wrapping_mul(1009));
        let mut out = Vec::with_capacity(self.traces * self.invocations);
        for t in 0..self.traces {
            let (kind, seed) = recipe[t % recipe.len()];
            for inv in 0..self.invocations {
                out.push(PowerTrace::generate(
                    kind,
                    seed.wrapping_add(10_000 * inv as u64),
                    duration_s,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_shape() {
        let c = ExperimentConfig::quick();
        assert_eq!(c.trace_ensemble().len(), 3);
        assert!(c.supply.capacitance_f < SupplyConfig::default().capacitance_f);
    }

    #[test]
    fn paper_config_matches_methodology() {
        let c = ExperimentConfig::paper();
        assert_eq!(c.traces, 9);
        assert_eq!(c.invocations, 3);
        assert_eq!(c.trace_ensemble().len(), 27);
    }

    #[test]
    fn trace_ensemble_follows_the_paper_suite_recipe() {
        // The ensemble as built from a synthesized paper suite, read
        // back through each trace's kind and seed.
        for c in [ExperimentConfig::quick(), ExperimentConfig::paper()] {
            let base = PowerTrace::paper_suite(c.seed.wrapping_mul(1009), 2.0);
            let mut expected = Vec::new();
            for t in 0..c.traces {
                let template = &base[t % base.len()];
                for inv in 0..c.invocations {
                    expected.push(PowerTrace::generate(
                        template.kind(),
                        template.seed().wrapping_add(10_000 * inv as u64),
                        2.0,
                    ));
                }
            }
            assert_eq!(c.ensemble(2.0), expected, "{} traces", c.traces);
        }
    }

    #[test]
    fn ensemble_traces_are_distinct() {
        let c = ExperimentConfig::quick();
        let e = c.trace_ensemble();
        for i in 0..e.len() {
            for j in (i + 1)..e.len() {
                assert_ne!(e[i], e[j]);
            }
        }
    }
}
