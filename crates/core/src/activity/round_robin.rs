//! §III-C distributed round-robin sensor activation.

use crate::SensorId;

/// The rotation state of one cluster's round-robin activation scheme.
///
/// Per §III-C: the member with the lowest id monitors the target for one
/// time slot, then hands over by notification packet to the next member.
/// A member that fails to acknowledge (depleted battery) is skipped. The
/// rotation continues until the target relocates, at which point clusters
/// are rebuilt and a fresh rota starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinRota {
    members: Vec<SensorId>,
    cursor: usize,
}

impl RoundRobinRota {
    /// New rota over `members`. Order is normalized ascending so the lowest
    /// id leads, as the paper specifies.
    ///
    /// # Panics
    /// Panics on an empty member list.
    pub fn new(mut members: Vec<SensorId>) -> Self {
        assert!(!members.is_empty(), "a rota needs at least one member");
        members.sort_unstable();
        members.dedup();
        Self { members, cursor: 0 }
    }

    /// Restarts the rota over `members`, reusing its storage: afterwards
    /// it equals `RoundRobinRota::new(members.to_vec())`. When the member
    /// list is unchanged this only rewinds the cursor.
    ///
    /// # Panics
    /// Panics on an empty member list.
    pub fn reset(&mut self, members: &[SensorId]) {
        if self.members != members {
            assert!(!members.is_empty(), "a rota needs at least one member");
            self.members.clear();
            self.members.extend_from_slice(members);
            self.members.sort_unstable();
            self.members.dedup();
        }
        self.cursor = 0;
    }

    /// The members in rota order.
    #[inline]
    pub fn members(&self) -> &[SensorId] {
        &self.members
    }

    /// Index of the currently scheduled member within [`RoundRobinRota::members`]
    /// — the rotation's full mutable state, exposed so simulation
    /// snapshots can persist and restore a rota mid-rotation.
    #[inline]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Rebuilds a rota from a snapshot: the member list (normalized like
    /// [`RoundRobinRota::new`]) plus a previously captured
    /// [`RoundRobinRota::cursor`].
    ///
    /// # Panics
    /// Panics on an empty member list or a cursor outside it.
    pub fn restore(members: Vec<SensorId>, cursor: usize) -> Self {
        let mut rota = Self::new(members);
        assert!(
            cursor < rota.members.len(),
            "rota cursor {cursor} out of range for {} members",
            rota.members.len()
        );
        rota.cursor = cursor;
        rota
    }

    /// The member currently scheduled to be active. Note this ignores
    /// liveness; use [`RoundRobinRota::active`] to resolve against
    /// depletion.
    #[inline]
    pub fn scheduled(&self) -> SensorId {
        self.members[self.cursor]
    }

    /// The member that actually monitors this slot: the scheduled member,
    /// or — when it is depleted — the next live member in rotation order
    /// (the §III-C "no acknowledgement → try the next node" rule).
    /// `None` when every member is depleted (the target goes unmonitored).
    pub fn active<F: Fn(SensorId) -> bool>(&self, is_alive: F) -> Option<SensorId> {
        let n = self.members.len();
        (0..n)
            .map(|k| self.members[(self.cursor + k) % n])
            .find(|&s| is_alive(s))
    }

    /// Advances to the next slot: the slot after the currently *active*
    /// member (dead members are skipped permanently from handover, not just
    /// probed). No-op when all members are dead.
    pub fn advance<F: Fn(SensorId) -> bool>(&mut self, is_alive: F) {
        let n = self.members.len();
        // Hand over from whoever actually held the slot.
        let Some(holder) = self.active(&is_alive) else {
            return;
        };
        let holder_pos = self
            .members
            .iter()
            .position(|&s| s == holder)
            .expect("member");
        for k in 1..=n {
            let idx = (holder_pos + k) % n;
            if is_alive(self.members[idx]) {
                self.cursor = idx;
                return;
            }
        }
        // Only the holder is alive: it keeps the slot.
        self.cursor = holder_pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(v: &[u32]) -> Vec<SensorId> {
        v.iter().map(|&i| SensorId(i)).collect()
    }

    #[test]
    fn starts_from_lowest_id() {
        let r = RoundRobinRota::new(ids(&[5, 2, 9]));
        assert_eq!(r.scheduled(), SensorId(2));
        assert_eq!(r.members(), &ids(&[2, 5, 9])[..]);
    }

    #[test]
    fn rotates_in_order() {
        let mut r = RoundRobinRota::new(ids(&[1, 2, 3]));
        let all_alive = |_s: SensorId| true;
        assert_eq!(r.active(all_alive), Some(SensorId(1)));
        r.advance(all_alive);
        assert_eq!(r.active(all_alive), Some(SensorId(2)));
        r.advance(all_alive);
        assert_eq!(r.active(all_alive), Some(SensorId(3)));
        r.advance(all_alive);
        assert_eq!(r.active(all_alive), Some(SensorId(1)));
    }

    #[test]
    fn restore_resumes_mid_rotation() {
        let mut r = RoundRobinRota::new(ids(&[1, 2, 3]));
        let all_alive = |_s: SensorId| true;
        r.advance(all_alive);
        let copy = RoundRobinRota::restore(r.members().to_vec(), r.cursor());
        assert_eq!(copy, r);
        assert_eq!(copy.active(all_alive), Some(SensorId(2)));
    }

    #[test]
    fn reset_equals_a_fresh_rota() {
        let mut r = RoundRobinRota::new(ids(&[1, 2, 3]));
        let all_alive = |_s: SensorId| true;
        r.advance(all_alive);
        r.reset(&ids(&[1, 2, 3]));
        assert_eq!(r, RoundRobinRota::new(ids(&[1, 2, 3])));
        r.advance(all_alive);
        r.reset(&ids(&[9, 4, 9, 6]));
        assert_eq!(r, RoundRobinRota::new(ids(&[9, 4, 9, 6])));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn reset_to_no_members_panics() {
        RoundRobinRota::new(ids(&[1])).reset(&[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn restore_rejects_wild_cursor() {
        let _ = RoundRobinRota::restore(ids(&[1, 2]), 5);
    }

    #[test]
    fn dead_member_is_skipped() {
        let mut r = RoundRobinRota::new(ids(&[1, 2, 3]));
        let alive = |s: SensorId| s != SensorId(2);
        assert_eq!(r.active(alive), Some(SensorId(1)));
        r.advance(alive);
        // 2 is dead: the slot goes to 3.
        assert_eq!(r.active(alive), Some(SensorId(3)));
    }

    #[test]
    fn scheduled_member_dying_mid_slot_fails_over() {
        let r = RoundRobinRota::new(ids(&[4, 7]));
        assert_eq!(r.active(|s| s != SensorId(4)), Some(SensorId(7)));
    }

    #[test]
    fn all_dead_leaves_target_unattended() {
        let mut r = RoundRobinRota::new(ids(&[1, 2]));
        let dead = |_s: SensorId| false;
        assert_eq!(r.active(dead), None);
        r.advance(dead); // must not panic or loop
        assert_eq!(r.active(dead), None);
    }

    #[test]
    fn single_member_keeps_the_slot() {
        let mut r = RoundRobinRota::new(ids(&[8]));
        let alive = |_s: SensorId| true;
        r.advance(alive);
        assert_eq!(r.active(alive), Some(SensorId(8)));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_rota_panics() {
        RoundRobinRota::new(Vec::new());
    }

    proptest! {
        #[test]
        fn prop_active_share_is_fair(
            n in 1usize..8,
            slots in 8usize..64,
        ) {
            // With everyone alive, after n·k slots each member held exactly
            // k slots (perfect load balance, the §III-C claim).
            let members = ids(&(0..n as u32).collect::<Vec<_>>());
            let mut r = RoundRobinRota::new(members.clone());
            let alive = |_s: SensorId| true;
            let total = (slots / n) * n;
            let mut held = std::collections::HashMap::new();
            for _ in 0..total {
                *held.entry(r.active(alive).unwrap()).or_insert(0usize) += 1;
                r.advance(alive);
            }
            for m in &members {
                prop_assert_eq!(held.get(m).copied().unwrap_or(0), total / n);
            }
        }

        #[test]
        fn prop_active_is_always_alive(
            raw in proptest::collection::vec(0u32..16, 1..8),
            dead_mask in 0u16..u16::MAX,
            steps in 0usize..20,
        ) {
            let mut r = RoundRobinRota::new(ids(&raw));
            let alive = move |s: SensorId| dead_mask & (1 << (s.0 % 16)) == 0;
            for _ in 0..steps {
                if let Some(a) = r.active(alive) {
                    prop_assert!(alive(a));
                }
                r.advance(alive);
            }
        }
    }
}
