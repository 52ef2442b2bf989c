//! Cluster formation: coverage analysis and the paper's Algorithm 1.

mod balanced;
mod coverage;

pub use balanced::{balanced_clusters, balanced_clusters_into, balanced_clusters_with};
pub use coverage::CoverageMap;

use crate::{ClusterId, SensorId, TargetId};
use serde::{Deserialize, Serialize};

/// One cluster: the sensors assigned to monitor one target (§II-A).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// The monitored target.
    pub target: TargetId,
    /// Assigned members, ascending by id (the round-robin rota starts from
    /// the lowest id, §III-C).
    pub members: Vec<SensorId>,
}

/// The output of cluster formation: disjoint clusters, one per target that
/// at least one sensor can cover.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSet {
    clusters: Vec<Cluster>,
}

impl ClusterSet {
    /// Wraps raw clusters, normalizing member order.
    pub fn new(mut clusters: Vec<Cluster>) -> Self {
        for c in &mut clusters {
            c.members.sort_unstable();
        }
        Self { clusters }
    }

    /// All clusters.
    #[inline]
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Number of clusters.
    #[inline]
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when no cluster was formed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The cluster with the given id.
    #[inline]
    pub fn get(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.index()]
    }

    /// Iterates `(ClusterId, &Cluster)`.
    pub fn iter(&self) -> impl Iterator<Item = (ClusterId, &Cluster)> {
        self.clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (ClusterId(i as u32), c))
    }

    /// Inverse mapping: for each of `n_sensors`, the cluster it belongs to
    /// (`None` for unassigned sensors such as pure relays).
    pub fn sensor_assignment(&self, n_sensors: usize) -> Vec<Option<ClusterId>> {
        let mut out = vec![None; n_sensors];
        for (id, c) in self.iter() {
            for &m in &c.members {
                out[m.index()] = Some(id);
            }
        }
        out
    }

    /// Smallest and largest cluster sizes (`None` when empty) — the balance
    /// criterion Algorithm 1 optimizes.
    pub fn size_spread(&self) -> Option<(usize, usize)> {
        let sizes: Vec<usize> = self.clusters.iter().map(|c| c.members.len()).collect();
        Some((*sizes.iter().min()?, *sizes.iter().max()?))
    }
}
