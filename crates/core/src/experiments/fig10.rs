//! Figures 10 and 11: speedup and quality of WN on the checkpoint-based
//! volatile processor (Clank, Fig. 10) and the non-volatile processor
//! (Fig. 11).
//!
//! Methodology follows §IV/§V-B: each configuration runs on the trace
//! ensemble; runtimes and errors are medians. Speedup is the precise
//! variant's median wall-clock runtime divided by the WN variant's —
//! where WN runs commit their approximate output at the first outage
//! after a skim point.

use std::fmt;

use wn_compiler::Technique;
use wn_energy::SupplyConfig;
use wn_kernels::Benchmark;
use wn_telemetry::RunReport;

use crate::error::WnError;
use crate::experiments::ExperimentConfig;
use crate::intermittent::{
    max_task_cycles, median, run_intermittent, run_intermittent_reported, task_supply_for,
    IntermittentOutcome, SubstrateKind,
};
use crate::jobs::run_jobs;
use crate::prepared::PreparedRun;

/// Results for one benchmark at one subword size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Subword size in bits.
    pub bits: u8,
    /// Median speedup over the precise baseline on the same substrate.
    pub speedup: f64,
    /// Median output NRMSE in percent.
    pub nrmse_percent: f64,
    /// Fraction of runs that finished via a skim jump.
    pub skim_rate: f64,
}

/// The full figure: all benchmarks × {8-bit, 4-bit} on one substrate.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupFigure {
    /// Substrate name ("clank" for Fig. 10, "nvp" for Fig. 11).
    pub substrate: &'static str,
    /// Rows, grouped by benchmark.
    pub rows: Vec<SpeedupRow>,
}

impl SpeedupFigure {
    /// Geometric-mean speedup at a subword size (the paper quotes
    /// averages: 1.78×/3.02× on Clank, 1.41×/2.26× on NVP), or `None`
    /// when no row has that subword size — previously this silently
    /// produced NaN.
    pub fn mean_speedup(&self, bits: u8) -> Option<f64> {
        let v: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.bits == bits)
            .map(|r| r.speedup.ln())
            .collect();
        if v.is_empty() {
            return None;
        }
        Some((v.iter().sum::<f64>() / v.len() as f64).exp())
    }

    /// Arithmetic-mean NRMSE at a subword size, or `None` when no row
    /// has that subword size.
    pub fn mean_error(&self, bits: u8) -> Option<f64> {
        let v: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.bits == bits)
            .map(|r| r.nrmse_percent)
            .collect();
        if v.is_empty() {
            return None;
        }
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("substrate,benchmark,bits,speedup,nrmse_percent,skim_rate\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{:.4},{:.4},{:.2}\n",
                self.substrate,
                r.benchmark.name(),
                r.bits,
                r.speedup,
                r.nrmse_percent,
                r.skim_rate
            ));
        }
        out
    }
}

impl fmt::Display for SpeedupFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "WN speedup and quality on {} (median over traces)",
            self.substrate
        )?;
        writeln!(
            f,
            "{:<10} {:>4} {:>9} {:>10} {:>9}",
            "benchmark", "bits", "speedup", "NRMSE", "skimmed"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>4} {:>8.2}x {:>9.3}% {:>8.0}%",
                r.benchmark.name(),
                r.bits,
                r.speedup,
                r.nrmse_percent,
                100.0 * r.skim_rate
            )?;
        }
        writeln!(
            f,
            "mean: {:.2}x (8-bit), {:.2}x (4-bit)",
            self.mean_speedup(8).unwrap_or(f64::NAN),
            self.mean_speedup(4).unwrap_or(f64::NAN)
        )
    }
}

/// Grid variants per benchmark: precise, 8-bit, 4-bit.
const VARIANTS: usize = 3;

fn technique_of(benchmark: Benchmark, variant: usize) -> Technique {
    match variant {
        0 => Technique::Precise,
        1 => benchmark.technique(8),
        _ => benchmark.technique(4),
    }
}

/// Runs the flat grid benchmark × {precise, 8-bit, 4-bit} × trace on
/// `substrate`, benchmark `b` on `supplies[b]`, and reassembles it in
/// grid order, so the rows (and their medians) are identical to a
/// serial run at any worker count. With `traced` set, each run's
/// [`RunReport`] comes back in grid-index order.
fn run_grid(
    config: &ExperimentConfig,
    substrate: SubstrateKind,
    supplies: &[SupplyConfig],
    traced: bool,
) -> Result<(SpeedupFigure, Vec<RunReport>), WnError> {
    let traces = config.trace_ensemble();
    let n_traces = traces.len();
    let cells = run_jobs(Benchmark::ALL.len() * VARIANTS * n_traces, |i| {
        let b = i / (VARIANTS * n_traces);
        let benchmark = Benchmark::ALL[b];
        // The Task substrate runs the task-decomposed binary; Clank and
        // NVP keep the plain build (same cache entries as before).
        let prepared = PreparedRun::cached_with_tasks(
            benchmark,
            config.scale,
            config.seed,
            technique_of(benchmark, (i / n_traces) % VARIANTS),
            matches!(substrate, SubstrateKind::Task(_)),
        )?;
        let (trace, supply) = (&traces[i % n_traces], supplies[b]);
        if traced {
            let (outcome, report) = run_intermittent_reported(
                &prepared,
                substrate,
                trace,
                supply,
                config.wall_limit_s,
            )?;
            // Boxed, so an untraced grid's cells stay outcome-sized.
            Ok::<_, WnError>((outcome, Some(Box::new(report))))
        } else {
            let outcome =
                run_intermittent(&prepared, substrate, trace, supply, config.wall_limit_s)?;
            Ok((outcome, None))
        }
    })?;
    let (outcomes, reports): (Vec<IntermittentOutcome>, Vec<_>) = cells.into_iter().unzip();

    let mut rows = Vec::new();
    for (b, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        let variant = |v: usize| {
            let start = (b * VARIANTS + v) * n_traces;
            &outcomes[start..start + n_traces]
        };
        let precise_times: Vec<f64> = variant(0).iter().map(|o| o.time_s).collect();
        let precise_median = median(&precise_times);

        for (v, bits) in [(1usize, 8u8), (2, 4)] {
            let outcomes = variant(v);
            let times: Vec<f64> = outcomes.iter().map(|o| o.time_s).collect();
            let errors: Vec<f64> = outcomes.iter().map(|o| o.error_percent).collect();
            let skims = outcomes.iter().filter(|o| o.skimmed).count();
            rows.push(SpeedupRow {
                benchmark,
                bits,
                speedup: precise_median / median(&times),
                nrmse_percent: median(&errors),
                skim_rate: skims as f64 / outcomes.len() as f64,
            });
        }
    }
    let figure = SpeedupFigure {
        substrate: match substrate {
            SubstrateKind::Clank(_) => "clank",
            SubstrateKind::Nvp(_) => "nvp",
            SubstrateKind::Task(_) => "task",
        },
        rows,
    };
    Ok((figure, reports.into_iter().flatten().map(|r| *r).collect()))
}

/// Runs Fig. 10 (Clank) or Fig. 11 (NVP) depending on `substrate`.
///
/// With `traced` set, every grid run is traced and its [`RunReport`]
/// returned in grid-index order — the same order at any worker count,
/// so folding them with [`RunReport::aggregate`] gives the same bytes
/// at any `--jobs` width. Untraced, the report list is empty. The
/// figure is identical either way.
///
/// # Errors
///
/// Propagates compilation, supply and simulation errors.
pub fn run(
    config: &ExperimentConfig,
    substrate: SubstrateKind,
    traced: bool,
) -> Result<(SpeedupFigure, Vec<RunReport>), WnError> {
    run_grid(
        config,
        substrate,
        &[config.supply; Benchmark::ALL.len()],
        traced,
    )
}

/// The checkpoint-free third column: the same speedup/quality grid on
/// the Task substrate. The supply is not `config.supply` — task-based
/// systems must size the energy buffer to the *largest task* (a task
/// that cannot finish on one charge re-executes forever) — and it is
/// sized **per benchmark** (largest task across that benchmark's
/// precise/8-bit/4-bit builds, via [`task_supply_for`]): a single
/// grid-wide capacitor would hand small benchmarks a charge that
/// swallows their whole precise run, collapsing the speedup ratio into
/// a recharge-time artifact. Kept out of `experiments all` so the
/// checkpoint-substrate artifact set is untouched. `traced` works as
/// in [`run`].
///
/// # Errors
///
/// See [`run`].
pub fn run_task(
    config: &ExperimentConfig,
    traced: bool,
) -> Result<(SpeedupFigure, Vec<RunReport>), WnError> {
    // Pre-size each benchmark's buffer (cache-warm, serial: the
    // largest-task measurement is itself a full run per build).
    let mut supplies = Vec::new();
    for benchmark in Benchmark::ALL {
        let mut largest = 0u64;
        for v in 0..VARIANTS {
            let prepared = PreparedRun::cached_with_tasks(
                benchmark,
                config.scale,
                config.seed,
                technique_of(benchmark, v),
                true,
            )?;
            largest = largest.max(max_task_cycles(&prepared)?);
        }
        supplies.push(task_supply_for(largest));
    }
    run_grid(config, SubstrateKind::task(), &supplies, traced)
}

/// Convenience: Fig. 10 — the Clank volatile processor.
///
/// # Errors
///
/// See [`run`].
pub fn run_fig10(config: &ExperimentConfig) -> Result<SpeedupFigure, WnError> {
    Ok(run(config, SubstrateKind::clank(), false)?.0)
}

/// Convenience: Fig. 11 — the non-volatile processor.
///
/// # Errors
///
/// See [`run`].
pub fn run_fig11(config: &ExperimentConfig) -> Result<SpeedupFigure, WnError> {
    Ok(run(config, SubstrateKind::nvp(), false)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(benchmark: Benchmark, bits: u8, speedup: f64, nrmse_percent: f64) -> SpeedupRow {
        SpeedupRow {
            benchmark,
            bits,
            speedup,
            nrmse_percent,
            skim_rate: 1.0,
        }
    }

    #[test]
    fn empty_figure_has_no_means() {
        let fig = SpeedupFigure {
            substrate: "clank",
            rows: Vec::new(),
        };
        assert_eq!(fig.mean_speedup(8), None);
        assert_eq!(fig.mean_error(4), None);
        // Display must survive an empty figure rather than panic.
        assert!(fig.to_string().contains("mean:"));
    }

    #[test]
    fn means_cover_only_matching_rows() {
        let fig = SpeedupFigure {
            substrate: "nvp",
            rows: vec![
                row(Benchmark::MatAdd, 8, 2.0, 1.0),
                row(Benchmark::MatMul, 8, 8.0, 3.0),
                row(Benchmark::MatAdd, 4, 3.0, 5.0),
            ],
        };
        // Geometric mean of 2 and 8 is 4.
        assert!((fig.mean_speedup(8).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(fig.mean_error(8), Some(2.0));
        assert!((fig.mean_speedup(4).unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(fig.mean_speedup(2), None, "no 2-bit rows");
    }
}
