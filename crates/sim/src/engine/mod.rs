//! The engine subsystems behind [`crate::World`].
//!
//! [`World::step`](crate::World::step) is a fixed pipeline of phases, one
//! per submodule, each a set of free functions over the shared
//! [`WorldState`]:
//!
//! | phase | module | concern |
//! |-------|--------------|----------------------------------------------|
//! | 1 | [`mobility`] | target motion, cluster-rebuild triggers, Alg. 1 clustering |
//! | 2 | [`activity`] | round-robin slot handover, §III-C dormancy, routing refresh |
//! | 3 | [`faults`] | chaos engine: transient sensor outages, RV breakdown/repair |
//! | 4 | [`energy`] | permanent failure injection, sensor battery drain |
//! | 5 | [`dispatch`] | request board upkeep (§III-B ERC, lossy-uplink retransmits), dispatch hysteresis, recharge planning (Algs. 2–4) |
//! | 6 | [`fleet`] | RV phase machine: travel / charge / return / self-charge / broken |
//!
//! [`invariants`] is not a phase: it is a whole-state consistency checker
//! (energy conservation, board/route/phase agreement) that
//! [`World::step`](crate::World::step) runs after every tick in debug
//! builds and the chaos property tests assert explicitly.
//!
//! [`coverage`] is not a phase either: it holds the coverage and alive
//! accounting the sample phase reads (coverage from the rotas, alive
//! from an exact counter; DESIGN.md §4c).
//!
//! The split is deliberate: every subsystem reads and writes only through
//! `WorldState`, so policies can be swapped and subsystems tested in
//! isolation (each module owns the unit tests for its concern), while the
//! state itself stays one flat, cache-friendly struct — no `Rc`, no
//! interior mutability, no cross-subsystem borrows.

pub(crate) mod activity;
pub(crate) mod coverage;
pub(crate) mod dispatch;
pub(crate) mod energy;
pub(crate) mod faults;
pub(crate) mod fleet;
pub(crate) mod invariants;
pub(crate) mod mobility;

use crate::{RequestBoard, RvAgent, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wrsn_core::{
    ClusterId, ClusterSet, ErpController, RechargePolicy, RoundRobinRota, RvId, SensorId,
};
use wrsn_energy::{Battery, ChargeModel};
use wrsn_geom::{Field, Point2};
use wrsn_metrics::EvalMetrics;
use wrsn_net::{CommGraph, DynamicRoutingTree};

/// Sensor flag bit: battery has crossed into depletion and has not been
/// revived since (`was_depleted` in the pre-SoA layout).
pub(crate) const F_WAS_DEPLETED: u8 = 1 << 0;
/// Sensor flag bit: permanent hardware failure (never rechargeable).
pub(crate) const F_FAILED: u8 = 1 << 1;
/// Sensor flag bit: transient outage in progress (off duty, battery held).
pub(crate) const F_SUSPENDED: u8 = 1 << 2;
/// Sensor flag bit: actively monitoring a target this slot.
pub(crate) const F_ACTIVE: u8 = 1 << 3;
/// Sensor flag bit: fully asleep this slot (off-duty round-robin member).
pub(crate) const F_DORMANT: u8 = 1 << 4;

/// Ids per [`DueSchedule`] chunk: the span of one lower bound on its due
/// ticks.
const CHUNK: usize = 1024;

/// Per-sensor hot state in structure-of-arrays layout (DESIGN.md §4f).
///
/// The per-tick loops (failure injection, liveness scans) stride over one
/// or two flat arrays instead of an array-of-structs, and the five
/// per-sensor booleans (was-depleted / failed / suspended / active /
/// dormant) are packed into one byte per sensor.
///
/// Battery levels are integer lanes in whole nanojoules
/// ([`energy::UNITS_PER_J`]), and lazy (DESIGN.md §4j): lane `s` is its
/// level [`base`](Self::base) as of drain pass [`since`](Self::since),
/// and every pass since then drew the unchanged
/// [`tick_draw`](Self::tick_draw) entry from it, so its level now is
/// `max(base − k·d, 0)` for the `k` passes in between
/// ([`SensorSoA::level`]). A lane is rebased only where something
/// changes it: a new draw, a charge, a failure or its depletion, which
/// falls exactly at [`energy::depletion_pass`]. In worlds that drain
/// level-dependently (self-discharge) and under the naive-drain oracle,
/// levels are eager instead: every lane is current, the pass counter
/// stands still and every stamp equals it.
///
/// The charging paths materialize a [`wrsn_energy::Battery`] in J via
/// [`SensorSoA::battery`] and store its level back in units with
/// [`SensorSoA::set_level`], one rounding per transfer.
pub(crate) struct SensorSoA {
    /// Each lane's level (units) as of pass [`since`](Self::since).
    /// Positive exactly while the battery is not depleted: a lazy lane
    /// reaches 0 only at its depletion pass, which rebases it.
    pub(crate) base: Vec<i64>,
    /// The drain pass each [`base`](Self::base) is valid after.
    pub(crate) since: Vec<u64>,
    /// Lazy drain passes run (derived: 0 at construction and decode,
    /// frozen while [`lazy`](Self::lazy) is off).
    pass: u64,
    /// Whether levels are lazy; see the type docs.
    lazy: bool,
    /// Battery capacity (J).
    pub(crate) capacity: Vec<f64>,
    /// Per-sensor charge model (snapshots persist it per battery).
    pub(crate) model: Vec<ChargeModel>,
    /// Packed `F_*` flag bits.
    pub(crate) flags: Vec<u8>,
    /// When each suspended sensor's outage ends (NaN when not suspended).
    pub(crate) suspend_until: Vec<f64>,
    /// Number of sensors with [`F_SUSPENDED`] set — lets the fault
    /// phase's resume scan early-out on the (common) fault-free runs.
    suspended_count: usize,
    /// Each sensor's activity-and-relay draw over one tick (units):
    /// `profile.power(class, relay load) · tick_s` rounded once, `0`
    /// while suspended (depletion is masked by the drain instead).
    /// Derived state, never serialized: [`energy::refresh_draws`] brings
    /// it up to date at the start of every drain phase, through
    /// [`SensorSoA::set_draw`] (DESIGN.md §4j).
    pub(crate) tick_draw: Vec<i64>,
    /// Sensors whose [`F_ACTIVE`], [`F_DORMANT`] or [`F_SUSPENDED`] bit
    /// changed since their [`tick_draw`](Self::tick_draw) entry was
    /// last computed. The setters below are those bits' only writers.
    draw_stale: ScanSet,
    /// The depletion pass of each live lazy lane.
    depletions: DueSchedule,
    /// The sum of the live lazy lanes' draws: what one pass drains when
    /// no lane depletes.
    pub(crate) live_draw: i128,
}

impl SensorSoA {
    /// Columnizes freshly-built or decoded lanes: all flags clear, no
    /// timers, no draws yet, every lane stamped at pass 0, lazy unless
    /// the world drains level-dependently.
    pub(crate) fn new(
        levels: Vec<i64>,
        capacity: Vec<f64>,
        model: Vec<ChargeModel>,
        lazy: bool,
    ) -> Self {
        let n = levels.len();
        Self {
            base: levels,
            since: vec![0; n],
            pass: 0,
            lazy,
            capacity,
            model,
            flags: vec![0; n],
            suspend_until: vec![f64::NAN; n],
            suspended_count: 0,
            tick_draw: vec![0; n],
            draw_stale: ScanSet::new(n),
            depletions: DueSchedule::new(n),
            live_draw: 0,
        }
    }

    /// Number of sensors.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.base.len()
    }

    /// Sensor `s`'s battery level now (units).
    #[inline]
    pub(crate) fn level(&self, s: usize) -> i64 {
        energy::level_after(self.base[s], self.pass - self.since[s], self.tick_draw[s])
    }

    /// Sensor `s`'s battery level now (J).
    #[inline]
    pub(crate) fn level_at(&self, s: usize) -> f64 {
        energy::to_j(self.level(s))
    }

    /// Drain passes since lane `s` was last rebased.
    pub(crate) fn lag(&self, s: usize) -> u64 {
        self.pass - self.since[s]
    }

    /// Mirrors [`Battery::is_depleted`]. A base is 0 exactly when the
    /// level is (see [`base`](Self::base)).
    #[inline]
    pub(crate) fn is_depleted(&self, s: usize) -> bool {
        self.base[s] <= 0
    }

    /// Sensors with non-depleted batteries, by a full O(n) recount.
    pub(crate) fn count_alive(&self) -> usize {
        (0..self.len()).filter(|&s| !self.is_depleted(s)).count()
    }

    /// Mirrors [`Battery::soc`].
    #[inline]
    pub(crate) fn soc(&self, s: usize) -> f64 {
        self.level_at(s) / self.capacity[s]
    }

    /// Draws up to `demand` units from sensor `s` and returns what it
    /// gave up, as [`Battery::draw`] does in J. For the naive drain loop,
    /// which runs with every lane current.
    #[inline]
    pub(crate) fn draw(&mut self, s: usize, demand: i64) -> i64 {
        debug_assert!(demand >= 0);
        debug_assert_eq!(self.since[s], self.pass);
        let level = &mut self.base[s];
        let delivered = demand.min(*level);
        *level -= delivered;
        delivered
    }

    /// Materializes sensor `s`'s battery in J for the charging paths
    /// ([`Battery::charge_for`] / [`Battery::time_to_full`] need the
    /// stateful taper integration). Store the level back with
    /// [`SensorSoA::set_level`] after mutating.
    #[inline]
    pub(crate) fn battery(&self, s: usize) -> Battery {
        Battery::with_level(self.capacity[s], self.level_at(s)).with_charge_model(self.model[s])
    }

    /// Writes a battery level in units (a charge, a revival or a
    /// failure's 0), stamped at the current pass. A lazy lane that turns
    /// live or dead enters or leaves the live-draw sum, and its depletion
    /// pass is derived afresh.
    pub(crate) fn set_level(&mut self, s: usize, level: i64) {
        if self.lazy {
            let d = self.tick_draw[s];
            self.live_draw += d as i128 * ((level > 0) as i128 - (self.base[s] > 0) as i128);
            let due = energy::depletion_pass(level, self.pass, d);
            self.depletions.schedule(s, due);
        }
        (self.base[s], self.since[s]) = (level, self.pass);
    }

    /// Changes sensor `s`'s per-tick draw to a different `draw`: a lazy
    /// lane is rebased at its level under the old draw, moves its share
    /// of the live-draw sum, and has its depletion pass derived afresh.
    #[inline]
    pub(crate) fn set_draw(&mut self, s: usize, draw: i64) {
        let old = self.tick_draw[s];
        debug_assert_ne!(draw, old);
        if self.lazy {
            let level = self.level(s);
            (self.base[s], self.since[s]) = (level, self.pass);
            if level > 0 {
                self.live_draw += (draw - old) as i128;
            }
            let due = energy::depletion_pass(level, self.pass, draw);
            self.depletions.schedule(s, due);
        }
        self.tick_draw[s] = draw;
    }

    /// Switches between lazy and eager levels (the naive-drain oracle
    /// steps every level itself). Leaving lazy mode materializes every
    /// lane at the current pass; entering it sums the live draws and
    /// derives every depletion pass.
    pub(crate) fn set_lazy(&mut self, lazy: bool) {
        if lazy == self.lazy {
            return;
        }
        for s in 0..self.len() {
            (self.base[s], self.since[s]) = (self.level(s), self.pass);
        }
        self.lazy = lazy;
        self.live_draw = 0;
        self.depletions = DueSchedule::new(self.len());
        if lazy {
            for s in 0..self.len() {
                let (level, d) = (self.base[s], self.tick_draw[s]);
                self.live_draw += if level > 0 { d as i128 } else { 0 };
                self.depletions
                    .schedule(s, energy::depletion_pass(level, self.pass, d));
            }
        }
    }

    #[inline]
    pub(crate) fn was_depleted(&self, s: usize) -> bool {
        self.flags[s] & F_WAS_DEPLETED != 0
    }

    #[inline]
    pub(crate) fn failed(&self, s: usize) -> bool {
        self.flags[s] & F_FAILED != 0
    }

    #[inline]
    pub(crate) fn suspended(&self, s: usize) -> bool {
        self.flags[s] & F_SUSPENDED != 0
    }

    #[inline]
    pub(crate) fn active(&self, s: usize) -> bool {
        self.flags[s] & F_ACTIVE != 0
    }

    #[inline]
    pub(crate) fn dormant(&self, s: usize) -> bool {
        self.flags[s] & F_DORMANT != 0
    }

    #[inline]
    fn set_flag(&mut self, s: usize, bit: u8, on: bool) {
        if on {
            self.flags[s] |= bit;
        } else {
            self.flags[s] &= !bit;
        }
    }

    /// Sets one of the bits the tick draw depends on, marking the
    /// sensor's [`tick_draw`](Self::tick_draw) entry stale when the
    /// bit actually changes. Returns whether it did.
    #[inline]
    fn set_draw_flag(&mut self, s: usize, bit: u8, on: bool) -> bool {
        let changed = (self.flags[s] & bit != 0) != on;
        if changed {
            self.set_flag(s, bit, on);
            self.draw_stale.insert(s);
        }
        changed
    }

    #[inline]
    pub(crate) fn set_was_depleted(&mut self, s: usize, on: bool) {
        self.set_flag(s, F_WAS_DEPLETED, on);
    }

    #[inline]
    pub(crate) fn set_failed(&mut self, s: usize, on: bool) {
        self.set_flag(s, F_FAILED, on);
    }

    /// Sets the suspension bit, keeping the suspended counter exact.
    #[inline]
    pub(crate) fn set_suspended(&mut self, s: usize, on: bool) {
        if self.set_draw_flag(s, F_SUSPENDED, on) {
            if on {
                self.suspended_count += 1;
            } else {
                self.suspended_count -= 1;
            }
        }
    }

    #[inline]
    pub(crate) fn set_active(&mut self, s: usize, on: bool) {
        self.set_draw_flag(s, F_ACTIVE, on);
    }

    #[inline]
    pub(crate) fn set_dormant(&mut self, s: usize, on: bool) {
        self.set_draw_flag(s, F_DORMANT, on);
    }

    /// Sensors currently suspended by a transient outage.
    #[inline]
    pub(crate) fn suspended_count(&self) -> usize {
        self.suspended_count
    }
}

/// The SoC crossing-prediction state behind the event-driven request
/// scan (DESIGN.md §4j).
///
/// [`dispatch::manage_requests`] examines only the sensors in one
/// *next-scan set*. Every cause to examine a sensor sets its bit, and
/// each is a superset-safe trigger (a sensor that takes no action is a
/// no-op in the scan — no writes, no RNG — so extra bits never change
/// world bytes):
///
/// * `sched` — the predicted threshold-crossing tick of each
///   above-threshold sensor (current drain rate, two-tick early slack),
///   in a [`DueSchedule`]: a scan sets the due sensors' bits.
/// * [`note_check`](Self::note_check) — every event that can flip a
///   sensor's board recovery state or change its ERC vote (liveness
///   changes, RV charge delivery, route abandonment, request-group
///   refreshes).
/// * draw rises found by the drain-phase refresh
///   ([`energy::refresh_draws`]): an entry of the drain-rate column that
///   rose, whether through an activity flip or a relay load that moved
///   net ([`DynamicRoutingTree::take_load_events`]). Rate *drops* and
///   unchanged draws need no seed: the standing prediction was made at a
///   draw at least as high, so it fires at or before the crossing. A
///   full tree rebuild reports "all", which sets every bit.
/// * ungrouped pending requests still waiting on a lossy uplink.
///
/// A below-threshold sensor leaves the set once its examination can no
/// longer act: released, depleted and suspended ones wait for a seed,
/// and a pending grouped one is *parked* while its request group's
/// quorum is unmet. An unmet recount stays unmet until some sensor's
/// `soc < thr` side flips, so a scan that sees a flip (against the
/// per-sensor `below` bit) re-dirties every parked sensor's group, and a
/// met quorum unparks and seeds its parked members.
///
/// A scan takes the set whole, so bits set while it runs wait for the
/// next scan.
pub(crate) struct CrossingState {
    /// Relative tick counter the predictions key off. Deliberately *not*
    /// serialized: snapshots restart with every sensor in the next-scan
    /// set, so resumed worlds re-derive their predictions on the first
    /// tick.
    tick: u64,
    /// Predicted due tick per sensor. The single source of truth for
    /// which predictions are live.
    sched: DueSchedule,
    /// Sensors to examine at the next request scan.
    next: ScanSet,
    /// Scratch: the set a scan drains (empty between scans).
    scan: ScanSet,
    /// Scratch: request groups with a pending member in this scan (empty
    /// between scans). Group compaction keeps every id below `2n`.
    dirty_groups: ScanSet,
    /// Pending grouped sensors whose group's last recount was unmet;
    /// none of them is in a scan until a flip or a seed.
    parked: ScanSet,
    /// `soc < thr` per sensor as of its last scan: a scan that changes a
    /// bit has seen a flip that can change a quorum recount.
    below: ScanSet,
}

impl CrossingState {
    /// Fresh state with *every* sensor in the next-scan set and nothing
    /// parked — the safe superset used at construction, on snapshot
    /// resume and when the naive-dispatch oracle is switched.
    pub(crate) fn new_all_pending(num_sensors: usize) -> Self {
        let mut next = ScanSet::new(num_sensors);
        next.fill(num_sensors);
        Self {
            tick: 0,
            sched: DueSchedule::new(num_sensors),
            next,
            scan: ScanSet::new(num_sensors),
            dirty_groups: ScanSet::new(2 * num_sensors),
            parked: ScanSet::new(num_sensors),
            below: ScanSet::new(num_sensors),
        }
    }

    /// Seeds sensor `s` for re-examination at the next request scan.
    /// Called by every event that can flip `s`'s recovery-relevant board
    /// state or change its ERC vote, and by the drain-phase refresh for
    /// every draw that rose.
    #[inline]
    pub(crate) fn note_check(&mut self, s: usize) {
        self.next.insert(s);
    }

    /// [`note_check`](Self::note_check) when `on`, without a branch on
    /// `on`: the drain-phase refresh's rise test goes either way about
    /// as often, and mispredicting it cost the `chaos-replay` world's
    /// drain phase about a quarter of its time.
    #[inline]
    pub(crate) fn note_check_if(&mut self, s: usize, on: bool) {
        self.next.insert_if(s, on);
    }

    /// Seeds every sensor for re-examination at the next request scan.
    pub(crate) fn note_check_all(&mut self) {
        self.next.fill(self.sched.due.len());
    }

    /// Whether `s` will be examined at the next request scan. Exposed
    /// for the invariant audit.
    #[inline]
    pub(crate) fn scheduled(&self, s: usize) -> bool {
        self.next.contains(s)
    }

    /// Whether `s` is parked behind its group's unmet quorum. Exposed for
    /// the invariant audit.
    #[inline]
    pub(crate) fn parked(&self, s: usize) -> bool {
        self.parked.contains(s)
    }

    /// `soc < thr` of sensor `s` as of its last scan. Exposed for the
    /// invariant audit.
    #[inline]
    pub(crate) fn below_at_scan(&self, s: usize) -> bool {
        self.below.contains(s)
    }

    /// Number of parked sensors (diagnostics).
    pub(crate) fn parked_count(&self) -> usize {
        self.parked
            .words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Starts the examination of sensor `s` in a scan: unparks it and
    /// records its threshold side, returning whether the side flipped.
    #[inline]
    fn rescan(&mut self, s: usize, below: bool) -> bool {
        self.parked.remove(s);
        if self.below.contains(s) == below {
            return false;
        }
        if below {
            self.below.insert(s);
        } else {
            self.below.remove(s);
        }
        true
    }

    /// Unparks `s` and seeds it if it was parked: a group listing it met
    /// its quorum, or its stored group was replaced.
    #[inline]
    pub(crate) fn unpark(&mut self, s: usize) {
        if self.parked.remove(s) {
            self.next.insert(s);
        }
    }

    /// Starts the request scan at tick `now`: adds the due predictions to
    /// the next-scan set, withdrawing them, then hands the set over whole,
    /// leaving an empty one to collect the following scan's causes.
    fn take_scan(&mut self, now: u64) -> ScanSet {
        let next = &mut self.next;
        self.sched.take_due(now, |s| next.insert(s));
        let empty = std::mem::take(&mut self.scan);
        std::mem::replace(&mut self.next, empty)
    }

    /// Audits the scan state between request scans: the next-scan set is
    /// well formed, no prediction is already expired, and the chunk
    /// bounds hold.
    pub(crate) fn verify(&self) -> Result<(), String> {
        self.next.verify()?;
        self.parked.verify()?;
        self.below.verify()?;
        if let Some(s) = self.sched.due.iter().position(|&due| due < self.tick) {
            return Err(format!(
                "sensor {s} kept crossing prediction {} past scan tick {}",
                self.sched.due(s),
                self.tick
            ));
        }
        self.sched.verify("crossing")
    }
}

/// A set of sensor ids: one bit per sensor plus one summary bit per
/// 64-sensor word, so draining a sparse set touches only the set words
/// and `n / 4096` summary words, not all `n / 64` words.
#[derive(Default)]
struct ScanSet {
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set iff `words[w]` is not 0.
    summary: Vec<u64>,
}

impl ScanSet {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            summary: vec![0; n.div_ceil(64 * 64)],
        }
    }

    #[inline]
    fn insert(&mut self, s: usize) {
        let w = s / 64;
        self.words[w] |= 1 << (s % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    /// Adds `s` when `on`; a no-op otherwise.
    #[inline]
    fn insert_if(&mut self, s: usize, on: bool) {
        let w = s / 64;
        self.words[w] |= (on as u64) << (s % 64);
        self.summary[w / 64] |= (on as u64) << (w % 64);
    }

    #[inline]
    fn contains(&self, s: usize) -> bool {
        self.words[s / 64] >> (s % 64) & 1 == 1
    }

    /// Adds every id below `n`, a word at a time.
    fn fill(&mut self, n: usize) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let k = n.saturating_sub(w * 64).min(64);
            if k > 0 {
                *word |= u64::MAX >> (64 - k);
                self.summary[w / 64] |= 1 << (w % 64);
            }
        }
    }

    /// Calls `f` on the members in ascending order, in batches of up to
    /// 64 ids, emptying the set.
    #[inline]
    fn drain(&mut self, mut f: impl FnMut(&[u32])) {
        let mut batch = [0u32; 64];
        let mut len = 0;
        for sw in 0..self.summary.len() {
            let mut marks = std::mem::take(&mut self.summary[sw]);
            while marks != 0 {
                let w = sw * 64 + marks.trailing_zeros() as usize;
                marks &= marks - 1;
                let mut bits = std::mem::take(&mut self.words[w]);
                while bits != 0 {
                    batch[len] = (w * 64 + bits.trailing_zeros() as usize) as u32;
                    bits &= bits - 1;
                    len += 1;
                    if len == batch.len() {
                        f(&batch);
                        len = 0;
                    }
                }
            }
        }
        if len > 0 {
            f(&batch[..len]);
        }
    }

    /// Removes `s`, returning whether it was a member.
    #[inline]
    fn remove(&mut self, s: usize) -> bool {
        let w = s / 64;
        let bit = 1 << (s % 64);
        let had = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        had
    }

    /// Calls `f` on the members in ascending order, keeping the set.
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for (sw, &marks) in self.summary.iter().enumerate() {
            let mut marks = marks;
            while marks != 0 {
                let w = sw * 64 + marks.trailing_zeros() as usize;
                marks &= marks - 1;
                let mut bits = self.words[w];
                while bits != 0 {
                    f(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Checks that the summary marks exactly the non-zero words.
    fn verify(&self) -> Result<(), String> {
        match (self.words.iter().enumerate())
            .find(|&(w, &word)| (self.summary[w / 64] >> (w % 64) & 1 == 1) != (word != 0))
        {
            Some((w, _)) => Err(format!("scan set summary bit of word {w} is stale")),
            None => Ok(()),
        }
    }
}

/// A due tick per id (`u64::MAX` = none) plus one lower bound per
/// [`CHUNK`] ids, so that collecting the due entries visits only the
/// chunks whose bound has expired: the crossing predictions of
/// [`CrossingState`] and the depletion predictions of lazy levels
/// (DESIGN.md §4j). A bound may sit below its chunk's earliest entry
/// after an entry moved later or was withdrawn; that costs one wasted
/// chunk scan, never a miss.
struct DueSchedule {
    due: Vec<u64>,
    chunk_min: Vec<u64>,
}

impl DueSchedule {
    fn new(n: usize) -> Self {
        Self {
            due: vec![u64::MAX; n],
            chunk_min: vec![u64::MAX; n.div_ceil(CHUNK)],
        }
    }

    /// Id `s` falls due at `due` (`u64::MAX` withdraws it).
    #[inline]
    fn schedule(&mut self, s: usize, due: u64) {
        self.due[s] = due;
        let c = &mut self.chunk_min[s / CHUNK];
        *c = (*c).min(due);
    }

    fn due(&self, s: usize) -> u64 {
        self.due[s]
    }

    /// Calls `f` on every id due at or before `now`, ascending, and
    /// withdraws it, re-deriving each expired chunk bound exactly.
    #[inline]
    fn take_due(&mut self, now: u64, mut f: impl FnMut(usize)) {
        for (c, bound) in self.chunk_min.iter_mut().enumerate() {
            if *bound > now {
                continue;
            }
            let c0 = c * CHUNK;
            let c1 = (c0 + CHUNK).min(self.due.len());
            let mut lo = u64::MAX;
            for (s, due) in (c0..c1).zip(&mut self.due[c0..c1]) {
                if *due <= now {
                    *due = u64::MAX;
                    f(s);
                } else {
                    lo = lo.min(*due);
                }
            }
            *bound = lo;
        }
    }

    /// Checks that every chunk bound is at or below its chunk's earliest
    /// entry; `what` names the schedule in the error.
    fn verify(&self, what: &str) -> Result<(), String> {
        for (c, (due, &bound)) in self.due.chunks(CHUNK).zip(&self.chunk_min).enumerate() {
            let lo = due.iter().copied().min().unwrap_or(u64::MAX);
            if bound > lo {
                return Err(format!(
                    "{what} chunk {c} bound {bound} is above its earliest prediction {lo}"
                ));
            }
        }
        Ok(())
    }
}

/// Deduplicated dirty-sets feeding the event-incremental routing refresh
/// (the routing half of the invalidation contract, DESIGN.md §4f).
///
/// Three granularities, coarsest wins:
///
/// * `full` — the cluster structure itself changed (mobility rebuild,
///   snapshot resume with pending work): wholesale activity recompute +
///   full Dijkstra rebuild. Queued node/cluster events are dropped (a
///   full rebuild supersedes them) and new ones are not collected.
/// * `slots` — every rota advanced: re-derive activity for all clusters
///   (holder handovers are generator moves on the maintained tree).
/// * node/cluster sets — a liveness change re-enables/disables one
///   routing node and re-derives activity for its cluster only.
#[derive(Debug, Default)]
pub(crate) struct RoutingDirty {
    /// Sensor indices whose on-duty bit may have changed (deduplicated).
    pub(crate) nodes: Vec<u32>,
    node_flag: Vec<bool>,
    /// Cluster indices whose activity must be re-derived (deduplicated).
    pub(crate) clusters: Vec<u32>,
    cluster_flag: Vec<bool>,
    /// Every rota advanced a slot: all clusters need re-derivation.
    pub(crate) slots: bool,
    /// The cluster structure changed: wholesale recompute + full rebuild.
    pub(crate) full: bool,
    /// Sensors dropped from the cluster structure by an *incremental*
    /// repair (member of an old cluster, member of no new one). Their
    /// active/dormant flags and generator bits must be cleared at the
    /// next refresh — deferred there (not done at repair time) so flag
    /// bytes stay tick-phase-identical to the wholesale path, which also
    /// only touches flags at refresh time.
    pub(crate) departed: Vec<u32>,
    /// Scratch of the refresh's handover pairing (`activity::Handovers`),
    /// empty between refreshes.
    pub(crate) handover_offs: Vec<u32>,
}

impl RoutingDirty {
    pub(crate) fn new(num_sensors: usize) -> Self {
        Self {
            nodes: Vec::new(),
            node_flag: vec![false; num_sensors],
            clusters: Vec::new(),
            cluster_flag: Vec::new(),
            slots: false,
            full: false,
            departed: Vec::new(),
            handover_offs: Vec::new(),
        }
    }

    /// Queues sensor `s` for a departed-from-clustering flag clear at the
    /// next refresh. Callers guarantee each sensor is queued at most once
    /// between refreshes (a sensor departs at most once per repair, and a
    /// repair is followed by a refresh the same tick).
    pub(crate) fn note_departed(&mut self, s: usize) {
        if !self.full {
            self.departed.push(s as u32);
        }
    }

    /// Queues sensor `s` for a liveness (enabled-set) re-check.
    pub(crate) fn note_node(&mut self, s: usize) {
        if self.full || self.node_flag[s] {
            return;
        }
        self.node_flag[s] = true;
        self.nodes.push(s as u32);
    }

    /// Queues cluster `ci` for an activity re-derivation.
    pub(crate) fn note_cluster(&mut self, ci: usize) {
        if self.full {
            return;
        }
        if ci >= self.cluster_flag.len() {
            self.cluster_flag.resize(ci + 1, false);
        }
        if !self.cluster_flag[ci] {
            self.cluster_flag[ci] = true;
            self.clusters.push(ci as u32);
        }
    }

    /// Drops every queued cluster event (their ids refer to a cluster
    /// structure that no longer exists). Used by the incremental cluster
    /// repair, which re-queues every post-repair cluster afterwards.
    pub(crate) fn drop_stale_clusters(&mut self) {
        for c in self.clusters.drain(..) {
            self.cluster_flag[c as usize] = false;
        }
    }

    /// Every rota advanced one slot.
    pub(crate) fn note_slots(&mut self) {
        if !self.full {
            self.slots = true;
        }
    }

    /// The cluster structure changed: demote everything queued to one
    /// full rebuild.
    pub(crate) fn note_full(&mut self) {
        self.full = true;
        self.slots = false;
        for s in self.nodes.drain(..) {
            self.node_flag[s as usize] = false;
        }
        for c in self.clusters.drain(..) {
            self.cluster_flag[c as usize] = false;
        }
        // The wholesale recompute rewrites every sensor's flags anyway.
        self.departed.clear();
    }

    /// Whether any refresh work is pending.
    pub(crate) fn any(&self) -> bool {
        self.full
            || self.slots
            || !self.nodes.is_empty()
            || !self.clusters.is_empty()
            || !self.departed.is_empty()
    }

    /// Whether a full rebuild is pending (supersedes the queues).
    pub(crate) fn is_full(&self) -> bool {
        self.full
    }

    /// Clears all pending work after a refresh, (re)sizing the cluster
    /// flag column for the current cluster count.
    pub(crate) fn reset(&mut self, num_clusters: usize) {
        for s in self.nodes.drain(..) {
            self.node_flag[s as usize] = false;
        }
        for c in self.clusters.drain(..) {
            self.cluster_flag[c as usize] = false;
        }
        self.cluster_flag.resize(num_clusters, false);
        self.slots = false;
        self.full = false;
        self.departed.clear();
    }
}

/// Everything the engine subsystems share. Fields are `pub(crate)`: the
/// subsystem modules are the only writers, and [`crate::World`] exposes
/// the read-only views the public API needs.
pub(crate) struct WorldState {
    pub(crate) cfg: SimConfig,
    /// The seed the world was built from. Mutable state never depends on
    /// it after construction, but snapshots persist it so derived state
    /// (the scheduler's K-means initialization) can be rebuilt on resume.
    pub(crate) seed: u64,
    pub(crate) scheduler: Box<dyn RechargePolicy + Send + Sync>,
    pub(crate) rng: StdRng,
    pub(crate) t: f64,
    pub(crate) base: Point2,

    pub(crate) sensor_pos: Vec<Point2>,
    /// All hot per-sensor state (battery columns, packed status flags,
    /// suspension timers) in structure-of-arrays layout.
    pub(crate) sensors: SensorSoA,

    pub(crate) target_pos: Vec<Point2>,
    pub(crate) target_next_move: Vec<f64>,
    /// Random-waypoint mobility: current destination per target.
    pub(crate) target_waypoint: Vec<Point2>,
    /// Position of each target when clusters were last rebuilt (waypoint
    /// mobility rebuilds on drift, not on a timer).
    pub(crate) target_anchor: Vec<Point2>,

    pub(crate) clusters: ClusterSet,
    pub(crate) assignment: Vec<Option<ClusterId>>,
    pub(crate) rotas: Vec<RoundRobinRota>,
    pub(crate) next_slot: f64,

    /// §III-A: each sensor stores the member list of the most recent
    /// cluster it joined and coordinates recharge requests with that
    /// *request group* even after the target moves on. `group_of[s]`
    /// indexes into `groups`, an arena of `(start, len)` slices over
    /// `group_arena`.
    pub(crate) group_of: Vec<Option<u32>>,
    pub(crate) groups: Vec<(u32, u32)>,
    pub(crate) group_arena: Vec<SensorId>,

    pub(crate) graph: CommGraph,
    /// Event-incremental routing tree + relay loads over
    /// `[base, sensors…]` (node 0 = sink). Enabled set = on-duty sensors;
    /// generator set = sensors with [`F_ACTIVE`] (monitoring a target this
    /// slot, detector powered, data generated at λ; off-duty round-robin
    /// members are [`F_DORMANT`] instead — detector off entirely, §III-C
    /// "redundant sensors can be switched off" — and everyone else runs
    /// the duty-cycled watch). Repaired event-wise by
    /// [`activity::refresh_routing`] from the [`RoutingDirty`] queues; the
    /// naive Dijkstra + fold pipeline stays in the build as the
    /// differential oracle [`invariants`] checks every debug tick.
    pub(crate) routing: DynamicRoutingTree,
    pub(crate) routing_dirty: RoutingDirty,

    pub(crate) erp: ErpController,
    pub(crate) board: RequestBoard,
    pub(crate) next_plan_ok: f64,
    /// Dispatch-wave hysteresis: set when the batch/age/critical trigger
    /// fires, cleared when the unassigned queue drains.
    pub(crate) dispatching: bool,

    pub(crate) rvs: Vec<RvAgent>,

    pub(crate) metrics: EvalMetrics,
    pub(crate) next_sample: f64,
    /// Energy the sensors gave up to their draws, and energy the RVs
    /// delivered into them (units, exact; DESIGN.md §4j).
    pub(crate) total_drained: i128,
    pub(crate) total_delivered: i128,
    pub(crate) deaths: u64,
    pub(crate) plans: u64,
    pub(crate) rv_shortfall_j: f64,

    /// Permanent-failure events injected so far (the flags themselves
    /// live in [`SensorSoA::flags`]).
    pub(crate) failures: u64,
    pub(crate) trace: crate::Trace,

    /// Transient-outage events injected so far (chaos engine: suspended
    /// sensors are off duty — no sensing, no relaying, no requesting —
    /// but keep their battery).
    pub(crate) transient_faults: u64,
    /// RV breakdown events injected so far.
    pub(crate) rv_breakdowns: u64,
    /// Release/ack uplink exchanges lost so far.
    pub(crate) uplink_drops: u64,
    /// Set when a fault forcibly returned assigned requests to the board;
    /// tells the dispatcher to replan without waiting for batch hysteresis.
    pub(crate) replan_urgent: bool,

    /// Sensors with non-depleted batteries, exact at all times: counted
    /// at construction and on decode, then moved by one at the four
    /// battery transitions (see [`coverage`]).
    pub(crate) alive: usize,

    /// Scratch buffer reused by [`dispatch::manage_requests`] for the
    /// dirty request-group ids it collects each tick (avoids a per-tick
    /// allocation on the hot path).
    pub(crate) group_scratch: Vec<u32>,

    /// SoC crossing-prediction state behind the event-driven request scan
    /// (DESIGN.md §4j). Derived state: never serialized — snapshots
    /// resume with every sensor seeded for re-examination instead.
    pub(crate) crossings: CrossingState,

    /// Persistent geometry behind the incremental cluster repair
    /// (DESIGN.md §4f): grid index over the fixed sensor positions, the
    /// maintained coverage map, and the maintained covering-sensor set.
    /// `None` until the first wholesale rebuild constructs it (always
    /// `None` right after a snapshot resume — the first post-resume
    /// rebuild is wholesale, which is byte-identical anyway).
    pub(crate) repair: Option<mobility::RepairState>,

    /// Differential-oracle switches (never serialized, default `false`):
    /// force the retained naive full-scan dispatch / per-sensor drain
    /// loop / wholesale cluster rebuild instead of the event-driven
    /// fast paths. The equivalence proptests step a naive and a fast
    /// world side by side and require byte-identical snapshots.
    pub(crate) naive_dispatch: bool,
    pub(crate) naive_drain: bool,
    pub(crate) naive_repair: bool,

    /// Conservation ledgers for the invariant checker: energy stored in
    /// sensor batteries at t = 0 and energy discarded when hardware
    /// permanently fails (units, exact), then fleet energy at t = 0,
    /// total base-station input into RV packs, and total energy actually
    /// drawn from RV packs (J: RV batteries stay in floating point).
    pub(crate) initial_sensor: i128,
    pub(crate) failure_lost: i128,
    pub(crate) initial_fleet_j: f64,
    pub(crate) rv_input_j: f64,
    pub(crate) rv_drawn_j: f64,
}

impl WorldState {
    /// Builds the initial state for `(cfg, seed)`. Identical pairs produce
    /// identical states — the RNG consumption order here is part of the
    /// determinism contract, so new randomized features must draw *after*
    /// the existing ones.
    pub(crate) fn new(cfg: &SimConfig, seed: u64) -> Self {
        cfg.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let field = Field::new(cfg.field_side);
        let base = field.center();
        let sensor_pos = cfg.deployment.place(&field, cfg.num_sensors, &mut rng);
        let (soc_lo, soc_hi) = cfg.initial_soc;
        let levels: Vec<i64> = (0..cfg.num_sensors)
            .map(|_| {
                let soc = if soc_hi > soc_lo {
                    rng.gen_range(soc_lo..=soc_hi)
                } else {
                    soc_lo
                };
                let battery =
                    Battery::with_level(cfg.battery_capacity_j, cfg.battery_capacity_j * soc);
                energy::to_units(battery.level())
            })
            .collect();

        let target_pos: Vec<Point2> = (0..cfg.num_targets)
            .map(|_| field.random_point(&mut rng))
            .collect();
        // Stagger relocations so cluster rebuilds don't synchronize.
        let target_next_move: Vec<f64> = (0..cfg.num_targets)
            .map(|_| rng.gen_range(0.0..=cfg.target_period_s))
            .collect();

        // Communication graph over [base, sensors…] — node 0 is the sink.
        let mut node_pos = Vec::with_capacity(cfg.num_sensors + 1);
        node_pos.push(base);
        node_pos.extend_from_slice(&sensor_pos);
        let graph = CommGraph::build(&node_pos, cfg.comm_range);

        let erp = ErpController::new(cfg.activity.effective_k());
        let scheduler = cfg.scheduler.build(seed);

        let rvs = (0..cfg.num_rvs)
            .map(|i| RvAgent::new(RvId(i as u32), base, cfg.rv_model.battery_capacity_j))
            .collect();

        let initial_sensor = levels.iter().map(|&l| l as i128).sum();
        let initial_fleet_j = cfg.num_rvs as f64 * cfg.rv_model.battery_capacity_j;
        let routing = DynamicRoutingTree::new(cfg.num_sensors + 1, 0, cfg.data_rate_pps);
        let n = cfg.num_sensors;
        let sensors = SensorSoA::new(
            levels,
            vec![cfg.battery_capacity_j; n],
            vec![cfg.charge_model; n],
            cfg.self_discharge_per_day <= 0.0,
        );
        let mut state = Self {
            seed,
            scheduler,
            rng,
            t: 0.0,
            base,
            sensor_pos,
            alive: sensors.count_alive(),
            sensors,
            target_waypoint: target_pos.clone(),
            target_anchor: target_pos.clone(),
            target_pos,
            target_next_move,
            clusters: ClusterSet::default(),
            assignment: vec![None; cfg.num_sensors],
            rotas: Vec::new(),
            next_slot: cfg.slot_s,
            group_of: vec![None; cfg.num_sensors],
            groups: Vec::new(),
            group_arena: Vec::new(),
            graph,
            routing,
            routing_dirty: RoutingDirty::new(cfg.num_sensors),
            erp,
            board: RequestBoard::new(cfg.num_sensors),
            next_plan_ok: 0.0,
            dispatching: false,
            rvs,
            metrics: EvalMetrics::new(),
            next_sample: 0.0,
            total_drained: 0,
            total_delivered: 0,
            deaths: 0,
            plans: 0,
            rv_shortfall_j: 0.0,
            failures: 0,
            trace: crate::Trace::disabled(),
            transient_faults: 0,
            rv_breakdowns: 0,
            uplink_drops: 0,
            replan_urgent: false,
            group_scratch: Vec::new(),
            crossings: CrossingState::new_all_pending(cfg.num_sensors),
            repair: None,
            naive_dispatch: false,
            naive_drain: false,
            naive_repair: false,
            initial_sensor,
            failure_lost: 0,
            initial_fleet_j,
            rv_input_j: 0.0,
            rv_drawn_j: 0.0,
            cfg: cfg.clone(),
        };
        mobility::rebuild_clusters(&mut state);
        activity::refresh_routing(&mut state);
        energy::rebuild_draws(&mut state);
        state
    }

    /// Sensors with non-depleted batteries. Suspended sensors count as
    /// alive — their hardware and battery are intact, they are just
    /// temporarily off duty. O(1): the exact [`WorldState::alive`]
    /// counter ([`SensorSoA::count_alive`] is the full recount the
    /// invariant checker compares it with).
    pub(crate) fn alive_count(&self) -> usize {
        self.alive
    }

    /// Whether sensor `s` can perform duty right now: battery not
    /// depleted and not suspended by a transient fault.
    pub(crate) fn on_duty(&self, s: SensorId) -> bool {
        !self.sensors.is_depleted(s.index()) && !self.sensors.suspended(s.index())
    }

    /// Records that sensor `s`'s on-duty liveness may have flipped
    /// (depletion, revival, failure, suspension, resume): queues the
    /// routing node *and* its assigned cluster (the cluster's rota may
    /// fail over to a different holder) for the incremental refresh, and
    /// seeds a dispatch re-check — each of these can change what the
    /// sensor's request does or how it votes (DESIGN.md §4j).
    pub(crate) fn note_liveness_changed(&mut self, s: usize) {
        self.crossings.note_check(s);
        self.routing_dirty.note_node(s);
        if let Some(ci) = self.assignment[s] {
            self.routing_dirty.note_cluster(ci.index());
        }
    }

    /// Fraction of *coverable* targets (targets with at least one candidate
    /// sensor, i.e. a cluster) currently monitored by a live sensor —
    /// Fig. 6(b)'s coverage ratio. Targets with no sensor in range are a
    /// property of the random deployment, not of scheduling, and are
    /// excluded the way the paper's 0 %-missing baselines imply. 1.0 when
    /// no coverable target is present. O(clusters): one rota probe per
    /// cluster ([`coverage::ratio`]).
    pub(crate) fn coverage_ratio(&self) -> f64 {
        coverage::ratio(self)
    }
}

#[cfg(test)]
mod tests {
    use super::{DueSchedule, ScanSet, CHUNK};
    use proptest::prelude::*;

    fn drained(set: &mut ScanSet) -> Vec<u32> {
        let mut out = Vec::new();
        set.drain(|batch| out.extend_from_slice(batch));
        out
    }

    #[test]
    fn scan_set_drains_ascending_once_and_empties() {
        let n = 10_000;
        let mut set = ScanSet::new(n);
        // 700 distinct ids spread over every summary word, each inserted
        // twice, drained across many 64-id batches.
        let ids: Vec<u32> = (0..700u32).map(|i| i * 7919 % n as u32).collect();
        for &s in ids.iter().chain(&ids) {
            set.insert(s as usize);
        }
        set.verify().unwrap();
        assert!(set.contains(ids[3] as usize));
        let mut want = ids.clone();
        want.sort_unstable();
        assert_eq!(drained(&mut set), want);
        assert!(set.words.iter().chain(&set.summary).all(|&w| w == 0));

        set.insert(9_999);
        set.fill(130);
        set.insert_if(5_000, false);
        set.insert_if(6_000, true);
        set.verify().unwrap();
        let want: Vec<u32> = (0..130).chain([6_000, 9_999]).collect();
        assert_eq!(drained(&mut set), want);
    }

    #[test]
    fn stale_scan_set_summary_is_caught() {
        let mut set = ScanSet::new(200);
        set.words[2] = 1; // a member the summary does not mark
        assert!(set.verify().unwrap_err().contains("word 2"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over 1–3 chunks, the ragged last one included, `take_due`
        /// hands out exactly what a naive `due ≤ now` filter does,
        /// ascending, and leaves no expired bound. Entries are scheduled,
        /// moved earlier, moved later (leaving a low bound behind: a
        /// wasted chunk scan) and withdrawn between takes.
        #[test]
        fn due_schedule_takes_what_a_naive_filter_takes(
            n in 1usize..=3 * CHUNK,
            ops in proptest::collection::vec((0u8..4, 0usize..3 * CHUNK, 0u64..40), 1..120),
        ) {
            let mut sched = DueSchedule::new(n);
            let mut naive = vec![u64::MAX; n];
            let mut now = 0u64;
            for (kind, s, k) in ops {
                let s = s % n;
                match kind {
                    0 => naive[s] = now + k,
                    1 => naive[s] = naive[s].saturating_add(k + 1),
                    2 => naive[s] = u64::MAX,
                    _ => {
                        now += k / 4;
                        let mut got = Vec::new();
                        sched.take_due(now, |s| got.push(s));
                        let want: Vec<usize> = (0..n).filter(|&s| naive[s] <= now).collect();
                        prop_assert_eq!(got, want);
                        for &s in &want {
                            naive[s] = u64::MAX;
                        }
                        prop_assert!(sched.chunk_min.iter().all(|&b| b > now));
                        continue;
                    }
                }
                sched.schedule(s, naive[s]);
                prop_assert_eq!(sched.due(s), naive[s]);
                prop_assert_eq!(sched.verify("test"), Ok(()));
            }
        }
    }
}
