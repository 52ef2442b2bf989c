//! # wrsn-core
//!
//! The primary contribution of *"Joint Wireless Charging and Sensor Activity
//! Management in Wireless Rechargeable Sensor Networks"* (Gao, Wang, Yang —
//! ICPP 2015): the **JRSSAM** framework.
//!
//! ## Sensor activity management (§III)
//!
//! * [`clustering::CoverageMap`] — who can see which target (the `I_ij`
//!   indicator of the MIP formulation).
//! * [`clustering::balanced_clusters`] — **Algorithm 1**: organizes the
//!   sensors covering each target into clusters of nearly equal size, so no
//!   cluster drains (and calls the RVs) much earlier than the rest.
//! * [`activity::RoundRobinRota`] — §III-C distributed activation: one
//!   cluster member monitors per slot, dead members are skipped.
//! * [`activity::ErpController`] — §III-B Energy Request Control: a cluster
//!   withholds recharge requests until the *Energy Request Percentage* `K`
//!   of its members have fallen below the threshold, then emits a single
//!   aggregated request.
//!
//! ## Recharge scheduling (§IV)
//!
//! The scheduling problem — maximize recharged energy minus RV travel cost
//! (Eq. 2) subject to tour/capacity constraints — is NP-hard (reduction from
//! TSP with Profits). This crate implements the paper's heuristics behind
//! one trait, [`scheduling::RechargePolicy`]:
//!
//! * [`scheduling::GreedyPolicy`] — **Algorithm 2** baseline: each RV drives
//!   to the single node with maximum recharge profit.
//! * [`scheduling::InsertionPolicy`] — **Algorithm 3** (single RV): best
//!   destination first, then iterative best-profit insertion.
//! * [`scheduling::PartitionPolicy`] — §IV-D-1 Partition-Scheme: K-means the
//!   requests into one group per RV, Algorithm 3 inside each group.
//! * [`scheduling::CombinedPolicy`] — §IV-D-2 Combined-Scheme: Algorithm 3
//!   run sequentially over the global request list.
//! * [`scheduling::ExactPolicy`] — exact optimum via `wrsn-opt` (small
//!   instances only; validation, not part of the paper's comparison).
//!
//! Cluster-aware detail from §IV-C: requests carrying a cluster id are
//! aggregated into a single *site* with the summed demand at the cluster
//! centroid; when an RV visits the site it recharges every requesting
//! member, touring them nearest-neighbour first. Clusters in critical
//! energy state are prioritized as route destinations.

pub mod activity;
pub mod analysis;
pub mod clustering;
pub mod formulation;
pub mod ids;
pub mod problem;
pub mod scheduling;

pub use activity::{ErpController, RoundRobinRota};
pub use analysis::DeploymentAnalysis;
pub use clustering::{
    balanced_clusters, balanced_clusters_into, balanced_clusters_with, Cluster, ClusterSet,
    CoverageMap,
};
pub use formulation::{MipAssignment, Violation};
pub use ids::{ClusterId, RvId, SensorId, TargetId};
pub use problem::{RechargeRequest, RvRoute, RvState, ScheduleInput};
pub use scheduling::{
    CombinedPolicy, DeadlinePolicy, ExactPolicy, GreedyPolicy, InsertionPolicy, PartitionPolicy,
    RechargePolicy, SavingsPolicy, SchedulerKind,
};
