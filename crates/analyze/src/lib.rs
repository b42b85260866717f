//! # wn-analyze — analytic completion-time/energy prediction
//!
//! ROADMAP item 5: predicts what the fleet simulates. Given the same
//! prepared kernel, substrate, supply, and [`EnvModel`] a fleet cohort
//! uses, this crate computes — without simulating outages — the
//! cohort's completion-time distribution, expected checkpoint / commit
//! / re-execution counts, dead-cycle fraction, and completion
//! probability under a wall-clock limit (ETAP-style, Erata et al.).
//!
//! The pipeline has two halves:
//!
//! * **Exact profiling** ([`profile`]): one fused run of the precise
//!   path ([`ExecutionTape`] for task substrates) and one
//!   continuous-power intermittent run give the compute cycle count,
//!   task-region entry lengths, skim arm point, and the substrate's
//!   fault-free counters. Nothing here is estimated.
//! * **Closed-form solving** ([`predict`]): per-period energy budgets,
//!   the substrate's expected per-outage dead cycles
//!   ([`wn_intermittent::ProgressModel`]), energy-conservation
//!   completion time, and the harvester family's spread
//!   ([`wn_energy::HarvestStats`]) — renewal CLT for RF/piezo, exact
//!   phase quadrature for solar.
//!
//! Cohorts the model cannot handle (memoization-enabled cores) come
//! back as [`CohortPrediction::Unsupported`] with the reason — never
//! silently skipped. The fleet's `predict` path (wn-fleet) turns these
//! predictions into a `wn-analyze-report-v1` report shaped like the
//! fleet's own, and `experiments predict --validate` cross-checks the
//! two.
//!
//! [`ExecutionTape`]: wn_sim::ExecutionTape
//! [`EnvModel`]: wn_energy::EnvModel

pub mod dist;
pub mod predict;
pub mod profile;

pub use predict::{predict, CohortPrediction, CohortQuery, Prediction};
pub use profile::{profile_kernel, skim_replay, KernelProfile, SkimProfile};
