//! wn-fleet: sharded multi-device fleet simulation.
//!
//! The paper evaluates WN on single devices under recorded traces; this
//! crate asks the deployment-scale question — what does a *population*
//! of intermittent devices look like? A [`scenario::FleetScenario`]
//! describes cohorts (benchmark × technique × substrate × capacitor ×
//! harvesting environment), [`EnvModel`](wn_energy::EnvModel)
//! synthesizes each device's power trace on the fly from a derived
//! seed, and [`runner::run_fleet`] sweeps the population in
//! bounded-memory shards, folding every outcome into mergeable
//! streaming aggregates ([`agg`]). Checkpoints ([`checkpoint`]) make
//! sweeps resumable at shard granularity, byte-identical to an
//! uninterrupted run; [`report::FleetReport`] renders the
//! `wn-fleet-report-v1` JSON/CSV artifacts.

pub mod agg;
pub mod batch;
pub mod checkpoint;
pub mod codec;
pub mod durable;
pub mod predict;
pub mod report;
pub mod runner;
pub mod scenario;

pub use agg::{FixedSketch, MetricAgg, StreamStats};
pub use checkpoint::Checkpoint;
pub use durable::persist_atomic;
pub use predict::{
    check_scenario, predict_fleet, validate, CheckSummary, CohortForecast, PredictReport,
    Validation, PREDICT_SCHEMA,
};
pub use report::FleetReport;
pub use runner::{
    run_fleet, run_fleet_with, simulate_device, CohortAggregate, DeviceFate, DeviceOutcome,
    FleetError, FleetOptions, FleetStatus, ShardProgress,
};
pub use scenario::{CohortSpec, FleetScenario, ScenarioError, SubstrateChoice};
