//! # multihonest-sweep
//!
//! The campaign sweep orchestrator: **10⁵–10⁷ deterministic seeded
//! executions** of the columnar scenario engine over a
//! (strategy × Δ × stake-profile × fault-profile × k) grid, with work
//! stealing, bounded memory, and checkpointed resume.
//!
//! The paper's headline claims (Theorem 1 / Corollary 1
//! settlement-failure bounds under concurrent honest slot leaders) are
//! empirically testable only as violation *tails* — frequencies small
//! enough that single executions say nothing and campaigns of millions
//! of seeds are the unit of work. Single executions are cheap
//! (`multihonest_scenario`, ~6 Mslots/s); this crate makes the campaign
//! the first-class object:
//!
//! * [`CampaignSpec`] — the grid, the shared protocol parameters, and
//!   the **seed-sharding** root: trial `j` of cell `i` runs with seed
//!   `mix(mix(root ^ mix(i)) ^ j)`, a pure function of the coordinates.
//!   Work partitioning (threads, chunk claim order, interruptions)
//!   cannot touch any execution's randomness.
//! * [`run_campaign`] — a work-stealing executor over
//!   [`multihonest_core::pool`]: per-worker chunk claiming, one reused
//!   [`ExecutionArena`] + schedule per worker, every execution streamed
//!   (no retained traces). Memory is bounded by `O(threads + cells)`,
//!   not the trial count.
//! * [`Checkpoint`] — completed-cell aggregates flushed atomically to
//!   JSON; an interrupted campaign resumes **byte-identically** (the
//!   resume tests compare final report bytes across interrupt points and
//!   thread counts).
//! * [`campaign_report`] — JSON + CSV with per-cell violation
//!   frequencies, 95% Wilson intervals, and two theory columns: the
//!   Theorem 7 closed-form bound (`multihonest_analytic`) and the exact
//!   margin DP on the Δ-reduced condition (`multihonest_margin`). For
//!   faulty cells the theory columns are evaluated at the plan's static
//!   Δ′ bound, and the degradation ledger (deferred / dropped / worst
//!   effective Δ) is carried per cell.
//! * [`check_conservatism`] — the Δ′-conservatism validation harness:
//!   for every bounded fault plan, the empirical settlement-violation
//!   frequency must stay under the Δ′-model prediction.
//!
//! Everything aggregated during a run is an integer (sums, maxes,
//! order-invariant fingerprints); every float in the report is derived
//! from those integers at render time. That is what makes "same spec ⇒
//! same bytes" hold across any execution history.
//!
//! [`ExecutionArena`]: multihonest_scenario::ExecutionArena

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod checkpoint;
pub mod conservatism;
pub mod report;
pub mod run;
pub mod spec;

pub use crate::aggregate::CellAggregate;
pub use crate::checkpoint::{Checkpoint, CompletedCell, CHECKPOINT_SCHEMA};
pub use crate::conservatism::{check_conservatism, ConservatismEstimate, ScenarioConservatism};
pub use crate::report::{
    campaign_report, leadership_condition, report_csv, report_json, CampaignReport, CellReport,
    SettlementEstimate, REPORT_SCHEMA,
};
pub use crate::run::{run_campaign, run_campaign_observed, CampaignOutcome, RunOptions};
pub use crate::spec::{CampaignSpec, CellSpec, FaultProfile, StakeProfile, SweepStrategy};
