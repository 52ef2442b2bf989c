//! Recharge route scheduling (§IV): the greedy baseline, the Algorithm 3
//! insertion builder, and the two multi-RV schemes.
//!
//! Every scheduler has two execution paths producing bit-identical plans:
//! the cached fast path (default) and the naive oracle retained from the
//! pre-optimization code (`ExecMode`). The `scheduler_equivalence`
//! proptest suite and the debug-build cross-checks inside
//! `insertion::build_site_route` hold the two together; DESIGN.md §4e
//! documents the contract.

mod combined;
mod deadline;
mod exact;
mod greedy;
mod insertion;
mod partition;
mod policy;
mod savings;
mod sites;

pub use combined::CombinedPolicy;
pub use deadline::DeadlinePolicy;
pub use exact::ExactPolicy;
pub use greedy::GreedyPolicy;
pub use insertion::InsertionPolicy;
pub use partition::PartitionPolicy;
pub use policy::{RechargePolicy, SchedulerKind};
pub use savings::SavingsPolicy;

pub(crate) use insertion::InsertScratch;
pub(crate) use sites::{build_sites, expand_route, Site};

use crate::{RvRoute, RvState, ScheduleInput};
use wrsn_geom::Point2;

/// Which implementation of the scheduling hot paths a plan uses. Plans are
/// bit-identical across modes; `Oracle` exists purely as the differential
/// reference for tests and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecMode {
    /// Cached incremental insertion + map-based site aggregation (default).
    Fast,
    /// The naive pre-optimization code paths.
    Oracle,
}

impl ExecMode {
    /// Site aggregation for this mode.
    pub(crate) fn build_sites(self, input: &ScheduleInput) -> Vec<Site> {
        match self {
            ExecMode::Fast => sites::build_sites(input),
            ExecMode::Oracle => sites::oracle_build_sites(input),
        }
    }

    /// Single-RV Algorithm 3 builder for this mode. `scratch` is only
    /// consulted by the fast path; multi-RV policies pass the same scratch
    /// across their sequential per-RV passes to reuse the distance memo.
    pub(crate) fn build_site_route(
        self,
        sites: &[Site],
        available: &mut [bool],
        rv: &RvState,
        base: Point2,
        cost_per_m: f64,
        scratch: &mut InsertScratch,
    ) -> Vec<usize> {
        match self {
            ExecMode::Fast => {
                insertion::build_site_route(sites, available, rv, base, cost_per_m, scratch)
            }
            ExecMode::Oracle => {
                insertion::oracle_build_site_route(sites, available, rv, base, cost_per_m)
            }
        }
    }
}

/// Naive reference paths exposed for the equivalence proptests and the
/// scheduler benchmark. Not part of the public API surface proper.
#[doc(hidden)]
pub mod oracle {
    pub use super::insertion::{cached_site_route, naive_site_route};
    use super::*;

    /// Plans `input` with the named scheduler running entirely on the
    /// naive oracle code paths (linear-scan site aggregation + full-rescan
    /// insertion builder). The fast [`SchedulerKind::build`] planner must
    /// match this bit for bit.
    pub fn plan(kind: SchedulerKind, seed: u64, input: &ScheduleInput) -> Vec<RvRoute> {
        match kind {
            SchedulerKind::Greedy => GreedyPolicy.plan_impl(input, ExecMode::Oracle),
            SchedulerKind::Insertion => InsertionPolicy.plan_impl(input, ExecMode::Oracle),
            SchedulerKind::Partition => {
                PartitionPolicy::new(seed).plan_impl(input, ExecMode::Oracle)
            }
            SchedulerKind::Combined => CombinedPolicy.plan_impl(input, ExecMode::Oracle),
            SchedulerKind::Savings => SavingsPolicy.plan_impl(input, ExecMode::Oracle),
            SchedulerKind::Deadline => DeadlinePolicy::default().plan_impl(input, ExecMode::Oracle),
        }
    }
}
