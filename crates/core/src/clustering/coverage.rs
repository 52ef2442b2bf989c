//! Sensing coverage analysis: the `I_ij` indicator of §IV-A.

use crate::{SensorId, TargetId};
use wrsn_geom::{GridIndex, Point2};

/// Which sensors can detect which targets, given positions and the sensing
/// range `d_s`.
///
/// This is the paper's binary matrix `I_ij` (sensor `i` detects target `j`)
/// stored sparsely in both directions, plus each sensor's *load* — the
/// number of targets it can detect — which Algorithm 1 sorts by.
#[derive(Debug, Clone)]
pub struct CoverageMap {
    /// Per target `j`: the paper's set `P(j)` of sensors that can detect it.
    candidates: Vec<Vec<SensorId>>,
    /// Per sensor `i`: targets within sensing range.
    detects: Vec<Vec<TargetId>>,
}

impl CoverageMap {
    /// Builds the coverage map. O(M · sensors-in-range) via a grid index.
    ///
    /// # Panics
    /// Panics unless `sensing_range` is strictly positive and finite.
    pub fn build(sensors: &[Point2], targets: &[Point2], sensing_range: f64) -> Self {
        assert!(
            sensing_range.is_finite() && sensing_range > 0.0,
            "sensing range must be positive, got {sensing_range}"
        );
        Self::build_on(
            &Self::grid_for(sensors, sensing_range),
            targets,
            sensing_range,
        )
    }

    /// [`CoverageMap::build`] over the sensors' existing
    /// [`CoverageMap::grid_for`] index, for a caller that keeps the index.
    pub fn build_on(grid: &GridIndex, targets: &[Point2], sensing_range: f64) -> Self {
        let mut candidates = Vec::with_capacity(targets.len());
        let mut detects: Vec<Vec<TargetId>> = vec![Vec::new(); grid.len()];
        for (j, &t) in targets.iter().enumerate() {
            let mut p: Vec<SensorId> = Vec::new();
            grid.within_into(t, sensing_range, &mut p);
            for &s in &p {
                detects[s.index()].push(TargetId(j as u32));
            }
            candidates.push(p);
        }
        Self {
            candidates,
            detects,
        }
    }

    /// Number of sensors.
    #[inline]
    pub fn num_sensors(&self) -> usize {
        self.detects.len()
    }

    /// Number of targets.
    #[inline]
    pub fn num_targets(&self) -> usize {
        self.candidates.len()
    }

    /// The paper's `P(j)`: sensors able to detect target `j`.
    #[inline]
    pub fn candidates(&self, j: TargetId) -> &[SensorId] {
        &self.candidates[j.index()]
    }

    /// Targets sensor `i` can detect.
    #[inline]
    pub fn detects(&self, i: SensorId) -> &[TargetId] {
        &self.detects[i.index()]
    }

    /// The paper's sensor *load*: how many targets sensor `i` can detect.
    #[inline]
    pub fn load(&self, i: SensorId) -> usize {
        self.detects[i.index()].len()
    }

    /// `I_ij` indicator.
    #[inline]
    pub fn covers(&self, i: SensorId, j: TargetId) -> bool {
        self.detects[i.index()].contains(&j)
    }

    /// The paper's set `A`: sensors that can detect at least one target,
    /// ascending by id.
    pub fn covering_sensors(&self) -> Vec<SensorId> {
        (0..self.num_sensors())
            .map(SensorId::from)
            .filter(|&s| self.load(s) > 0)
            .collect()
    }

    /// Targets with an empty candidate set (uncoverable with the current
    /// deployment — they will be missed regardless of scheduling).
    pub fn uncovered_targets(&self) -> Vec<TargetId> {
        (0..self.num_targets())
            .map(TargetId::from)
            .filter(|&t| self.candidates(t).is_empty())
            .collect()
    }

    /// The grid index [`CoverageMap::build`] queries — exposed so callers
    /// that keep a map up to date through [`CoverageMap::retarget`] build
    /// their persistent index with the identical cell size.
    pub fn grid_for(sensors: &[Point2], sensing_range: f64) -> GridIndex {
        GridIndex::build(sensors, sensing_range.max(1e-6))
    }

    /// Recomputes target `j`'s candidate set after it moved to `pos`,
    /// patching the affected sensors' `detects` lists in place. The result
    /// is *identical* to a fresh [`CoverageMap::build`] at the new target
    /// positions: candidate sets stay sorted ascending, and each sensor's
    /// detect list stays sorted by target id.
    ///
    /// `grid` must index the same (immutable) sensor positions the map was
    /// built over — use [`CoverageMap::grid_for`]. `scratch` is the grid
    /// query's buffer; the call leaves the old candidate set in it, so a
    /// caller that keeps one buffer across calls retargets without
    /// allocating. `on_load_change(s, old, new)` fires for every sensor
    /// whose load changed, letting callers maintain the covering-sensor
    /// set `A` incrementally.
    pub fn retarget<F>(
        &mut self,
        j: TargetId,
        grid: &GridIndex,
        pos: Point2,
        sensing_range: f64,
        scratch: &mut Vec<SensorId>,
        mut on_load_change: F,
    ) where
        F: FnMut(SensorId, usize, usize),
    {
        grid.within_into(pos, sensing_range, scratch);
        std::mem::swap(&mut self.candidates[j.index()], scratch);
        let (old, new) = (&*scratch, &self.candidates[j.index()]);
        // Diff the two sorted candidate sets.
        let (mut oi, mut ni) = (0, 0);
        while oi < old.len() || ni < new.len() {
            let take_old = ni >= new.len() || (oi < old.len() && old[oi] < new[ni]);
            let take_new = oi >= old.len() || (ni < new.len() && new[ni] < old[oi]);
            if take_old {
                // Sensor left range: drop `j` from its detect list.
                let s = old[oi];
                oi += 1;
                let d = &mut self.detects[s.index()];
                let pos = d.binary_search(&j).expect("detect list out of sync");
                d.remove(pos);
                let len = d.len();
                on_load_change(s, len + 1, len);
            } else if take_new {
                // Sensor entered range: insert `j` keeping the list sorted.
                let s = new[ni];
                ni += 1;
                let d = &mut self.detects[s.index()];
                let pos = d.binary_search(&j).expect_err("detect list out of sync");
                d.insert(pos, j);
                let len = d.len();
                on_load_change(s, len - 1, len);
            } else {
                // Present in both: unchanged.
                oi += 1;
                ni += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two targets; sensors 0,1 near target 0, sensor 2 near target 1,
    /// sensor 3 sees both, sensor 4 sees none.
    fn fixture() -> CoverageMap {
        let sensors = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(5.0, 0.0),
            Point2::new(50.0, 50.0),
        ];
        let targets = [Point2::new(0.5, 0.0), Point2::new(9.5, 0.0)];
        CoverageMap::build(&sensors, &targets, 5.0)
    }

    #[test]
    fn candidate_sets_match_geometry() {
        let m = fixture();
        assert_eq!(
            m.candidates(TargetId(0)),
            &[SensorId(0), SensorId(1), SensorId(3)]
        );
        assert_eq!(m.candidates(TargetId(1)), &[SensorId(2), SensorId(3)]);
    }

    #[test]
    fn loads_count_detectable_targets() {
        let m = fixture();
        assert_eq!(m.load(SensorId(0)), 1);
        assert_eq!(m.load(SensorId(3)), 2);
        assert_eq!(m.load(SensorId(4)), 0);
        assert!(m.covers(SensorId(3), TargetId(1)));
        assert!(!m.covers(SensorId(0), TargetId(1)));
    }

    #[test]
    fn covering_sensors_is_the_a_set() {
        let m = fixture();
        assert_eq!(
            m.covering_sensors(),
            vec![SensorId(0), SensorId(1), SensorId(2), SensorId(3)]
        );
    }

    #[test]
    fn uncoverable_targets_are_reported() {
        let sensors = [Point2::new(0.0, 0.0)];
        let targets = [Point2::new(0.0, 1.0), Point2::new(100.0, 100.0)];
        let m = CoverageMap::build(&sensors, &targets, 5.0);
        assert_eq!(m.uncovered_targets(), vec![TargetId(1)]);
    }

    #[test]
    fn retarget_matches_fresh_build_exactly() {
        let sensors = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(5.0, 0.0),
            Point2::new(50.0, 50.0),
        ];
        let mut targets = vec![Point2::new(0.5, 0.0), Point2::new(9.5, 0.0)];
        let range = 5.0;
        let mut live = CoverageMap::build(&sensors, &targets, range);
        let grid = CoverageMap::grid_for(&sensors, range);
        let mut scratch = Vec::new();
        // Walk target 0 across the field, target 1 out of everyone's range,
        // then back; the maintained map must equal a fresh build each step.
        let moves = [
            (TargetId(0), Point2::new(6.0, 0.0)),
            (TargetId(1), Point2::new(200.0, 200.0)),
            (TargetId(0), Point2::new(49.0, 50.0)),
            (TargetId(1), Point2::new(9.5, 0.0)),
        ];
        for (j, p) in moves {
            targets[j.index()] = p;
            let mut changes = Vec::new();
            live.retarget(j, &grid, p, range, &mut scratch, |s, old, new| {
                changes.push((s, old, new));
            });
            let fresh = CoverageMap::build(&sensors, &targets, range);
            for t in 0..targets.len() {
                assert_eq!(
                    live.candidates(TargetId::from(t)),
                    fresh.candidates(TargetId::from(t)),
                    "candidates for target {t} diverged"
                );
            }
            for s in 0..sensors.len() {
                assert_eq!(
                    live.detects(SensorId::from(s)),
                    fresh.detects(SensorId::from(s)),
                    "detect list for sensor {s} diverged"
                );
            }
            for (s, old, new) in changes {
                assert_ne!(old, new, "no-op load change reported for {s}");
                assert_eq!(live.load(s), new);
            }
            assert_eq!(live.covering_sensors(), fresh.covering_sensors());
        }
    }

    #[test]
    fn empty_inputs() {
        let m = CoverageMap::build(&[], &[], 5.0);
        assert_eq!(m.num_sensors(), 0);
        assert_eq!(m.num_targets(), 0);
        assert!(m.covering_sensors().is_empty());
    }
}
