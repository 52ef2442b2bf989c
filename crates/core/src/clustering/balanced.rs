//! Algorithm 1: the balanced clustering algorithm (§III-A).

use super::{Cluster, ClusterSet, CoverageMap};
use crate::{SensorId, TargetId};

/// Runs the paper's **Algorithm 1** to organize sensors into balanced
/// clusters around targets.
///
/// Phase 1 collects, for each target `j`, the candidate set `P(j)` of
/// sensors that can detect it, and the set `A` of all sensors detecting at
/// least one target. `A` is processed in ascending *load* order (sensors
/// with fewer detectable targets have fewer placement choices, so they get
/// priority; ties break on sensor id for determinism).
///
/// Phase 2 assigns each sensor of `A` to the currently **smallest** cluster
/// (ascending `U` counter, ties on target id) among those whose candidate
/// set contains it. The result is a [`ClusterSet`] with near-equal cluster
/// sizes, which equalizes cluster drain rates and therefore recharge
/// frequency (§III-A).
///
/// The paper bounds this by O(MN log M): phase 2 re-sorts the M targets
/// by `U` for every sensor. This implementation costs O(MN + |A|·L +
/// Σ load), where L ≤ M is the largest load: building the coverage map
/// is the O(MN) part, phase 1 makes one pass over `A` per load level, and
/// a sensor's smallest eligible cluster is a minimum over the targets it
/// detects — the very target the paper's sorted scan stops at — so
/// phase 2 never sorts.
///
/// Targets whose candidate set is empty produce **no** cluster (they cannot
/// be monitored at all); callers can list them via
/// [`CoverageMap::uncovered_targets`].
pub fn balanced_clusters(coverage: &CoverageMap) -> ClusterSet {
    balanced_clusters_with(coverage, &coverage.covering_sensors())
}

/// [`balanced_clusters`] with the set `A` supplied by the caller — for
/// callers that maintain the covering-sensor set incrementally (e.g. the
/// simulator's event-driven cluster repair) instead of paying the O(n)
/// [`CoverageMap::covering_sensors`] scan per rebuild. `a` may arrive in
/// any order; the `(load, id)` sort key is a total order, so the result is
/// identical to passing `covering_sensors()`. Phase 1 scans an `a`
/// ascending by id, as both of those are, once per load level; any other
/// order costs a copy and an O(|A| log |A|) sort.
pub fn balanced_clusters_with(coverage: &CoverageMap, a: &[SensorId]) -> ClusterSet {
    let mut set = ClusterSet::default();
    balanced_clusters_into(coverage, a, &mut set);
    set
}

/// [`balanced_clusters_with`] into `out`, reusing its cluster and member
/// storage: with an `a` ascending by id, a rerun over a map whose
/// clusters fit the old capacities allocates nothing.
pub fn balanced_clusters_into(coverage: &CoverageMap, a: &[SensorId], out: &mut ClusterSet) {
    // One slot per target while phase 2 runs; `U[j]` is slot `j`'s size.
    // Each old cluster moves to its target's slot first, so a target
    // keeps the member storage it had.
    let m = coverage.num_targets();
    let slots = &mut out.clusters;
    let old = slots.len();
    slots.resize_with(old.max(m), || Cluster {
        target: TargetId(0),
        members: Vec::new(),
    });
    for i in (0..old).rev() {
        let t = slots[i].target.index();
        if i < t && t < m {
            slots.swap(i, t);
        }
    }
    slots.truncate(m);
    for (j, c) in slots.iter_mut().enumerate() {
        c.target = TargetId(j as u32);
        c.members.clear();
    }

    // Phase 2: a sensor joins the target in `detects(s)` with the least
    // `(U[j], j)`.
    let mut join = |s: SensorId| {
        let smallest = coverage
            .detects(s)
            .iter()
            .min_by_key(|j| (slots[j.index()].members.len(), j.index()));
        if let Some(j) = smallest {
            slots[j.index()].members.push(s);
        }
    };

    // Phase 1: visit A ascending by load, ties by id.
    if a.is_sorted() {
        // One pass per load level keeps id order within the level.
        let max_load = a.iter().map(|&s| coverage.load(s)).max().unwrap_or(0);
        for load in 1..=max_load {
            a.iter()
                .filter(|&&s| coverage.load(s) == load)
                .for_each(|&s| join(s));
        }
    } else {
        let mut order = a.to_vec();
        order.sort_unstable_by_key(|&s| (coverage.load(s), s));
        order.into_iter().for_each(join);
    }

    // A target nobody joined forms no cluster; members are listed by id.
    slots.retain(|c| !c.members.is_empty());
    for c in slots {
        c.members.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use wrsn_geom::Point2;

    /// Alg. 1 with phase 2 as the paper states it, kept as the oracle for
    /// [`balanced_clusters_with`]: for every sensor, re-sort all targets
    /// by `(U, id)`, then scan for the first whose candidate set holds it.
    fn reference(coverage: &CoverageMap, a: &[SensorId]) -> ClusterSet {
        let m = coverage.num_targets();
        let mut a = a.to_vec();
        a.sort_by_key(|&s| (coverage.load(s), s));
        let mut members: Vec<Vec<_>> = vec![Vec::new(); m];
        let mut u = vec![0usize; m];
        let mut order: Vec<usize> = (0..m).collect();
        for s in a {
            order.sort_by_key(|&j| (u[j], j));
            for &j in &order {
                if coverage.candidates(TargetId(j as u32)).contains(&s) {
                    members[j].push(s);
                    u[j] += 1;
                    break;
                }
            }
        }
        let clusters = members
            .into_iter()
            .enumerate()
            .filter(|(_, ms)| !ms.is_empty())
            .map(|(j, ms)| Cluster {
                target: TargetId(j as u32),
                members: ms,
            })
            .collect();
        ClusterSet::new(clusters)
    }

    fn build(sensors: &[Point2], targets: &[Point2], range: f64) -> (CoverageMap, ClusterSet) {
        let cov = CoverageMap::build(sensors, targets, range);
        let set = balanced_clusters(&cov);
        (cov, set)
    }

    #[test]
    fn disjoint_targets_form_disjoint_clusters() {
        let sensors = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(100.0, 0.0),
            Point2::new(101.0, 0.0),
        ];
        let targets = [Point2::new(0.5, 0.0), Point2::new(100.5, 0.0)];
        let (_, set) = build(&sensors, &targets, 5.0);
        assert_eq!(set.len(), 2);
        assert_eq!(set.clusters()[0].members, vec![SensorId(0), SensorId(1)]);
        assert_eq!(set.clusters()[1].members, vec![SensorId(2), SensorId(3)]);
    }

    #[test]
    fn shared_coverage_is_balanced() {
        // Four sensors all able to see both (co-located) targets: Algorithm 1
        // must split them 2/2 rather than 4/0.
        let sensors = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(1.0, 1.0),
        ];
        let targets = [Point2::new(0.5, 0.5), Point2::new(0.6, 0.5)];
        let (_, set) = build(&sensors, &targets, 10.0);
        assert_eq!(set.len(), 2);
        let (min, max) = set.size_spread().unwrap();
        assert_eq!((min, max), (2, 2));
    }

    #[test]
    fn constrained_sensors_assigned_first() {
        // Sensor 0 only sees target 0; sensors 1-2 see both. Without load
        // priority sensor 0 could be locked out of its only choice.
        let sensors = [
            Point2::new(0.0, 0.0),
            Point2::new(5.0, 0.0),
            Point2::new(5.0, 1.0),
        ];
        let targets = [Point2::new(2.0, 0.0), Point2::new(7.0, 0.0)];
        let (cov, set) = build(&sensors, &targets, 4.0);
        assert_eq!(cov.load(SensorId(0)), 1);
        // Every target covered, every covering sensor assigned exactly once.
        assert_eq!(set.len(), 2);
        let total: usize = set.clusters().iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn uncoverable_target_produces_no_cluster() {
        let sensors = [Point2::new(0.0, 0.0)];
        let targets = [Point2::new(1.0, 0.0), Point2::new(500.0, 0.0)];
        let (_, set) = build(&sensors, &targets, 5.0);
        assert_eq!(set.len(), 1);
        assert_eq!(set.clusters()[0].target, TargetId(0));
    }

    #[test]
    fn sensor_assignment_inverse_map() {
        let sensors = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(50.0, 0.0),
        ];
        let targets = [Point2::new(0.5, 0.0)];
        let (_, set) = build(&sensors, &targets, 5.0);
        let assign = set.sensor_assignment(3);
        assert!(assign[0].is_some() && assign[1].is_some());
        assert!(assign[2].is_none()); // out of range: pure relay
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_matches_the_paper_phase_two(seed in 0u64..10_000) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let side = rng.gen_range(20.0..120.0);
            let point = |rng: &mut rand::rngs::StdRng| {
                Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))
            };
            let sensors: Vec<Point2> = (0..rng.gen_range(0..160usize))
                .map(|_| point(&mut rng))
                .collect();
            let mut targets: Vec<Point2> = Vec::new();
            for j in 0..rng.gen_range(1..14usize) {
                let p = match rng.gen_range(0..4u32) {
                    // Co-located with an earlier target: equal candidate
                    // sets, so `U` ties happen.
                    0 if j > 0 => targets[rng.gen_range(0..j)],
                    // Far outside the field: an empty candidate set.
                    1 => Point2::new(side * 10.0, -side * 10.0),
                    _ => point(&mut rng),
                };
                targets.push(p);
            }
            let cov = CoverageMap::build(&sensors, &targets, rng.gen_range(4.0..30.0));
            let a = cov.covering_sensors();
            let want = reference(&cov, &a);
            prop_assert_eq!(&balanced_clusters(&cov), &want);
            prop_assert_eq!(&balanced_clusters_with(&cov, &a), &want);

            // The same A in a shuffled order (Fisher-Yates).
            let mut shuffled = a.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            prop_assert_eq!(&balanced_clusters_with(&cov, &shuffled), &want);

            // Into the clustering of the targets in reverse order, and into
            // a set holding more, unrelated clusters than there are
            // targets: nothing of the old contents survives.
            let reversed: Vec<Point2> = targets.iter().rev().copied().collect();
            let mut reused = balanced_clusters(&CoverageMap::build(&sensors, &reversed, 6.0));
            balanced_clusters_into(&cov, &a, &mut reused);
            prop_assert_eq!(&reused, &want);
            let junk = Cluster { target: TargetId(99), members: vec![SensorId(7), SensorId(3)] };
            let mut reused = ClusterSet::new(vec![junk; 16]);
            balanced_clusters_into(&cov, &a, &mut reused);
            prop_assert_eq!(&reused, &want);
        }

        #[test]
        fn prop_clusters_are_disjoint_and_valid(seed in 0u64..500) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sensors: Vec<Point2> = (0..120)
                .map(|_| Point2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let targets: Vec<Point2> = (0..6)
                .map(|_| Point2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let cov = CoverageMap::build(&sensors, &targets, 8.0);
            let set = balanced_clusters(&cov);

            // Disjoint membership.
            let mut seen = std::collections::HashSet::new();
            for c in set.clusters() {
                prop_assert!(!c.members.is_empty());
                for &s in &c.members {
                    prop_assert!(seen.insert(s), "sensor {s} in two clusters");
                    // Member really covers the cluster target.
                    prop_assert!(cov.covers(s, c.target));
                }
            }

            // A coverable target may only end up unclustered when every one
            // of its candidates was consumed by another cluster (a sensor
            // can monitor at most one target, constraint (5)).
            let clustered: std::collections::HashSet<_> =
                set.clusters().iter().map(|c| c.target).collect();
            for t in 0..targets.len() {
                let t = TargetId(t as u32);
                if !cov.candidates(t).is_empty() && !clustered.contains(&t) {
                    for &s in cov.candidates(t) {
                        prop_assert!(seen.contains(&s),
                            "target {t} unclustered while candidate {s} is free");
                    }
                }
            }

            // Every covering sensor is assigned somewhere.
            prop_assert_eq!(seen.len(), cov.covering_sensors().len());
        }

        #[test]
        fn prop_balance_beats_naive_greedy_spread(seed in 0u64..200) {
            // Compare against first-fit assignment (every sensor to its
            // first detectable target): Algorithm 1's max-min spread must
            // never be worse.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sensors: Vec<Point2> = (0..80)
                .map(|_| Point2::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)))
                .collect();
            let targets: Vec<Point2> = (0..4)
                .map(|_| Point2::new(rng.gen_range(10.0..30.0), rng.gen_range(10.0..30.0)))
                .collect();
            let cov = CoverageMap::build(&sensors, &targets, 15.0);
            let set = balanced_clusters(&cov);
            if set.is_empty() {
                return Ok(());
            }

            // Naive: assign each sensor to its first detectable target.
            let mut naive = vec![0usize; targets.len()];
            for s in cov.covering_sensors() {
                naive[cov.detects(s)[0].index()] += 1;
            }
            let naive_sizes: Vec<usize> =
                naive.iter().copied().filter(|&c| c > 0).collect();
            let naive_spread = naive_sizes.iter().max().unwrap_or(&0)
                - naive_sizes.iter().min().unwrap_or(&0);
            let (min, max) = set.size_spread().unwrap();
            prop_assert!(max - min <= naive_spread.max(1),
                "balanced spread {} worse than naive {}", max - min, naive_spread);
        }
    }
}
