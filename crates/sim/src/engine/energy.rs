//! Phase 3 — sensor energy: permanent-failure injection and battery drain.
//!
//! Each tick, every live sensor draws power for its activity state
//! (sensing / dormant / duty-cycled watching, plus relay traffic from the
//! routing tree and optional self-discharge), and — on failure-injection
//! runs — may suffer a permanent Poisson hardware fault. Depletions and
//! faults invalidate the routing tree and feed the death/failure ledgers
//! the conservation tests audit.
//!
//! The activity-and-relay part of each sensor's draw changes only when
//! its activity or suspension bit flips or its relay load moves, so it is
//! kept in a maintained column, [`SensorSoA::tick_draw_j`].
//! [`refresh_draws`] recomputes just the changed entries at the start of
//! the drain phase (the routing tree reports only loads that moved net),
//! rebasing each changed lane and seeding a dispatch re-check for each
//! entry that rose. Battery levels are lazy (DESIGN.md §4j): a lane's
//! level is a base plus the passes since its stamp at its unchanged draw,
//! read through [`walk_from`]'s closed form, so [`drain_sensors`] touches
//! only the lanes whose depletion prediction falls due and adds the
//! tick's draws to the total by a maintained whole-ulp count
//! ([`UlpSum`]). Where most draws change every tick, and in worlds with
//! self-discharge, whose demand depends on the level, levels are eager:
//! a lane pass steps them all and sums what they gave up in sensor order
//! ([`drain_lanes`]). [`drain_sensors_naive`] derives every draw from
//! scratch and stays in the build as the differential oracle.

use super::{SensorSoA, WorldState, F_ACTIVE, F_DORMANT, F_SUSPENDED};
use crate::SimConfig;
use rand::Rng;
use wrsn_core::SensorId;
use wrsn_energy::{DetectorState, PowerTable, SensorActivity};
use wrsn_net::TrafficLoad;

/// Samples permanent hardware faults: each live sensor fails with
/// probability `rate·dt/86400` this tick. Failed sensors lose their
/// remaining charge, leave the request board, and are skipped by RVs.
///
/// At a zero (or negative) rate this returns before touching the RNG at
/// all — the common fault-free runs must not pay one `gen_bool(0.0)` per
/// live sensor per tick, and the RNG stream must stay byte-identical to
/// builds that never called this (pinned by
/// `zero_rate_injection_leaves_rng_untouched` below).
pub(crate) fn inject_failures(state: &mut WorldState, dt: f64) {
    let rate = state.cfg.permanent_failures_per_day;
    if rate <= 0.0 {
        return;
    }
    let p = (rate * dt / 86_400.0).min(1.0);
    for s in 0..state.cfg.num_sensors {
        if state.sensors.failed(s) || state.sensors.is_depleted(s) {
            continue;
        }
        if state.rng.gen_bool(p) {
            let id = SensorId(s as u32);
            state.sensors.set_failed(s, true);
            state.failures += 1;
            state.failure_lost_j += state.sensors.level_at(s);
            state.sensors.set_level(s, 0.0);
            state.sensors.set_was_depleted(s, true);
            // A permanent fault supersedes any transient outage.
            state.sensors.set_suspended(s, false);
            state.sensors.suspend_until[s] = f64::NAN;
            state.board.clear(id);
            state.note_liveness_changed(s);
            state.alive -= 1;
            state.trace.push(crate::TraceEvent::SensorFailed {
                t: state.t,
                sensor: id,
            });
        }
    }
}

/// One tick of activity-and-relay draw for a sensor with flag byte `fl`
/// and relay load `load`: the value [`SensorSoA::tick_draw_j`] holds.
pub(crate) fn tick_draw(cfg: &SimConfig, fl: u8, load: TrafficLoad) -> f64 {
    table_draw(
        &cfg.sensor_profile.table(cfg.watch_duty),
        cfg.tick_s,
        fl,
        load,
    )
}

/// [`tick_draw`] through the power `table` of the world's profile and
/// watch duty, for the refresh to evaluate once. Dormant sensors still
/// relay (Idle keeps the radio on); suspended ones are powered down for
/// the outage and draw nothing.
#[inline]
fn table_draw(table: &PowerTable, tick_s: f64, fl: u8, load: TrafficLoad) -> f64 {
    if fl & F_SUSPENDED != 0 {
        return 0.0;
    }
    let detector = if fl & F_ACTIVE != 0 {
        DetectorState::Sensing
    } else if fl & F_DORMANT != 0 {
        DetectorState::Idle
    } else {
        DetectorState::Watching
    };
    table.power(detector, load.tx_pps, load.rx_pps) * tick_s
}

/// Recomputes every [`SensorSoA::tick_draw_j`] entry: at construction and
/// on snapshot resume, where every sensor is in the dispatch next-scan
/// set anyway.
pub(crate) fn rebuild_draws(state: &mut WorldState) {
    let n = state.sensors.len();
    state.sensors.draw_stale.fill(n);
    recompute_stale_draws(state);
    // Setting every draw is not a drain pass's change density.
    state.sensors.window = (0, 0);
}

/// Brings [`SensorSoA::tick_draw_j`] up to date at the start of the drain
/// phase, in fast and naive drain mode alike. It recomputes only the
/// sensors whose activity or suspension bit changed (marked by the
/// [`SensorSoA`] setters) and the sensors whose relay load changed net,
/// or every sensor when the routing tree reports that all loads changed
/// (which also seeds every sensor for the next dispatch scan). It is the
/// only consumer of the tree's load events. Nothing changes an activity
/// bit or a load between here and the dispatch phase, so the column is
/// also what the crossing predictions read.
pub(crate) fn refresh_draws(state: &mut WorldState) {
    let WorldState {
        sensors,
        routing,
        crossings,
        ..
    } = state;
    // Node 0 is the base station.
    let all = routing.take_load_events(|v| {
        if v >= 1 {
            sensors.draw_stale.insert(v as usize - 1);
        }
    });
    if all {
        crossings.note_check_all();
        let n = sensors.len();
        sensors.draw_stale.fill(n);
    }
    recompute_stale_draws(state);
}

/// Recomputes the column entries of the sensors marked stale, clearing
/// the marks, and seeds a dispatch re-check for every entry that rose: a
/// higher draw can bring a threshold crossing forward, while a standing
/// prediction made at a higher or equal draw still fires at or before
/// the crossing (DESIGN.md §4j). [`SensorSoA::set_draw`] rebases each
/// lane whose entry changes before overwriting it.
fn recompute_stale_draws(state: &mut WorldState) {
    let WorldState {
        cfg,
        sensors,
        routing,
        crossings,
        ..
    } = state;
    let loads = routing.loads();
    let mut stale = std::mem::take(&mut sensors.draw_stale);
    let mut changed = [(0u32, 0.0f64); 64];
    let mut table = None;
    stale.drain(|batch| {
        let table = table.get_or_insert_with(|| cfg.sensor_profile.table(cfg.watch_duty));
        // Branch-free over the batch: a full refresh recomputes every
        // entry and changes few, at random, so a branch on the change
        // would mispredict (as would one on the rise).
        let mut len = 0;
        for &s32 in batch {
            let s = s32 as usize;
            let (draw, old) = (
                table_draw(table, cfg.tick_s, sensors.flags[s], loads[s + 1]),
                sensors.tick_draw_j[s],
            );
            crossings.note_check_if(s, draw > old);
            changed[len] = (s32, draw);
            len += (draw.to_bits() != old.to_bits()) as usize;
        }
        for &(s, draw) in &changed[..len] {
            sensors.set_draw(s as usize, draw);
        }
    });
    sensors.draw_stale = stale;
}

/// Integrates one tick of battery drain for every live sensor.
///
/// After [`refresh_draws`], the lazy path ([`drain_lazy`]) visits only
/// the lanes whose depletion may fall on this pass and adds the tick's
/// draws to the total in O(1) where the ulp count holds. Eager levels
/// ([`SensorSoA::adapt`], self-discharge) run the lane pass
/// ([`drain_lanes`]) instead, which sums in sensor order. Either way the
/// total has the bits of the naive loop's in-order sum, and depletion
/// transitions are replayed after the pass in the same ascending order
/// the naive loop fires them (transition side effects never feed back
/// into other sensors' draws within the tick, so deferral is invisible).
///
/// [`drain_sensors_naive`] keeps the historical per-sensor loop, which
/// derives each draw from the activity class and relay load itself, as
/// the differential oracle; the equivalence proptests require
/// byte-identical snapshots between the two.
pub(crate) fn drain_sensors(state: &mut WorldState, dt: f64) {
    debug_assert_eq!(dt.to_bits(), state.cfg.tick_s.to_bits());
    refresh_draws(state);
    if !state.naive_drain && state.cfg.self_discharge_per_day <= 0.0 {
        state.sensors.adapt();
    }
    if state.naive_drain {
        drain_sensors_naive(state, dt);
    } else if state.sensors.lazy {
        let depleted = drain_lazy(state);
        replay_depletions(state, &depleted);
        return;
    } else {
        let SensorSoA {
            lanes,
            tick_draw_j,
            flags,
            ..
        } = &mut state.sensors;
        let mut depleted = Vec::new();
        drain_lanes(
            &mut lanes.base,
            tick_draw_j,
            flags,
            state.cfg.self_discharge_per_day,
            dt,
            &mut state.total_drained_j,
            &mut depleted,
        );
        replay_depletions(state, &depleted);
    }
    #[cfg(debug_assertions)]
    state
        .sensors
        .shadow
        .copy_from_slice(&state.sensors.lanes.base);
}

/// Fires the depletion transitions of one pass, ascending, with the
/// naive loop's test that the depletion is not already recorded.
fn replay_depletions(state: &mut WorldState, depleted: &[u32]) {
    for &s32 in depleted {
        let s = s32 as usize;
        if state.sensors.was_depleted(s) {
            continue;
        }
        state.sensors.set_was_depleted(s, true);
        state.deaths += 1;
        state.note_liveness_changed(s);
        state.alive -= 1;
        state.trace.push(crate::TraceEvent::SensorDepleted {
            t: state.t,
            sensor: SensorId(s32),
        });
    }
}

/// One lazy drain pass (DESIGN.md §4j); returns the lanes it depleted,
/// ascending.
///
/// Only the lanes whose depletion prediction falls due are touched: each
/// is materialized, and one whose level is at most its draw gives that
/// level up and is rebased at 0; one that is not there yet is
/// re-predicted from its materialized level. Every other live lane gives
/// up exactly its draw, which the total takes through [`pass_total`].
fn drain_lazy(state: &mut WorldState) -> Vec<u32> {
    let sensors = &mut state.sensors;
    let pass = sensors.pass + 1;
    let mut due = Vec::new();
    sensors.depletions.take_due(pass, |s| due.push(s));
    // The depleting lanes with the level each gives up this pass.
    let mut last = Vec::new();
    for s in due {
        let level = sensors.level_at(s);
        sensors.restamp(s, level);
        if level > 0.0 && sensors.tick_draw_j[s] >= level {
            last.push((s as u32, level));
        } else {
            sensors.predict_by(s, depletion_bound);
        }
    }
    let before = state.total_drained_j;
    state.total_drained_j = pass_total(
        &mut sensors.sum,
        before,
        &mut sensors.lanes,
        &sensors.tick_draw_j,
        &last,
    );
    sensors.pass = pass;
    for &(s32, _) in &last {
        let s = s32 as usize;
        sensors.sum.sub(sensors.lanes.get(s).term);
        sensors.restamp(s, 0.0);
        sensors.depletions.schedule(s, u64::MAX);
    }
    #[cfg(debug_assertions)]
    {
        // The audit's eager twin, stepped with the per-lane rule, and
        // the in-order sum of what it gave up.
        let mut want = before;
        for (level, &draw) in sensors.shadow.iter_mut().zip(&sensors.tick_draw_j) {
            let old = *level;
            let demand = if old <= 0.0 { 0.0 } else { draw };
            let delivered = if demand < old { demand } else { old };
            *level = old - delivered;
            want += delivered;
        }
        debug_assert_eq!(state.total_drained_j.to_bits(), want.to_bits());
    }
    last.into_iter().map(|(s, _)| s).collect()
}

/// The eager lane kernel: drains every level of `levels` by its `draws`
/// entry, plus the level-dependent term in worlds with self-discharge,
/// adds what each lane gave up to `total` in lane order, and queues the
/// lanes that reached zero this tick, ascending. It is kept out of line
/// and fills a caller's queue so that its loop keeps the running total
/// in a register: inlined, or owning its queue, the loop kept the total
/// and each lane's draw on the stack, a store and a reload per lane.
#[inline(never)]
fn drain_lanes(
    levels: &mut [f64],
    draws: &[f64],
    flags: &[u8],
    sd: f64,
    dt: f64,
    total: &mut f64,
    transitions: &mut Vec<u32>,
) {
    let mut sum = *total;
    for (s, (level, &draw)) in levels.iter_mut().zip(draws).enumerate() {
        let old = *level;
        // A suspended lane's draw is already 0; its level-dependent
        // self-discharge term is masked here.
        let demand = if old <= 0.0 {
            0.0
        } else if sd > 0.0 && flags[s] & F_SUSPENDED == 0 {
            draw + old * sd * dt / 86_400.0
        } else {
            draw
        };
        debug_assert!(demand.is_finite() && demand >= 0.0);
        // Inlined `SensorSoA::draw`, with its `demand.min(level)` as a
        // select: the two agree on every non-NaN level, and levels are
        // never NaN (decode rejects them, the invariant audit checks
        // them).
        let delivered = if demand < old { demand } else { old };
        *level = old - delivered;
        sum += delivered;
        if old > 0.0 && *level <= 0.0 {
            transitions.push(s as u32);
        }
    }
    *total = sum;
}

/// A binade `[2^e, 2^(e+1))` of the running total, where every float is
/// a whole number of ulps `u = 2^(e−52)`.
pub(crate) struct Binade {
    /// The biased exponent `e + 1023`.
    pub(crate) exp: u64,
    pub(crate) ulp: f64,
    /// `1/u`, exact: a power of two.
    pub(crate) inv_ulp: f64,
    /// `2^(e+1)`, infinite in the top binade.
    pub(crate) top: f64,
}

impl Binade {
    /// The binade of a positive normal `s`, or `None` for a zero,
    /// negative, subnormal, infinite or NaN `s`, and for `s < 2^−970`,
    /// where `1/u` overflows.
    pub(crate) fn of(s: f64) -> Option<Self> {
        let exp = s.to_bits() >> 52; // a set sign bit lands above 2046
        (53..=2046).contains(&exp).then(|| Self::at(exp))
    }

    /// The binade with biased exponent `exp`, in `53..=2046`.
    pub(crate) fn at(exp: u64) -> Self {
        Self {
            exp,
            ulp: ulp_at(exp),
            inv_ulp: f64::from_bits((2098 - exp) << 52),
            top: f64::from_bits((exp + 1) << 52),
        }
    }
}

/// The spacing of the floats with biased exponent `exp`:
/// `2^(max(exp, 1) − 1075)`, subnormal below `exp = 53`.
fn ulp_at(exp: u64) -> f64 {
    if exp > 52 {
        f64::from_bits((exp - 52) << 52)
    } else {
        f64::from_bits(1 << (exp.max(1) - 1))
    }
}

/// `1.5 · 2^52`. For `0 ≤ q < 2^51`, `(q + RNE_SHIFT) − RNE_SHIFT` is `q`
/// rounded to the nearest integer, ties to even: the sum lands in
/// `[2^52, 2^53)`, where the ulp is 1, and `RNE_SHIFT` is even.
const RNE_SHIFT: f64 = 6_755_399_441_055_744.0;

/// `q ≥ 0` rounded to the nearest integer, ties to even. Baseline x86-64
/// has no rounding instruction (SSE4.1's `round`), and
/// [`f64::round_ties_even`] is a software call there, so the common
/// `q < 2^51` takes [`RNE_SHIFT`]'s two adds.
#[inline]
fn rne(q: f64) -> f64 {
    if q < 2_251_799_813_685_248.0 {
        (q + RNE_SHIFT) - RNE_SHIFT
    } else {
        q.round_ties_even()
    }
}

/// `2^53`: a count of this many ulps reaches any binade's top.
const ULP_CAP: f64 = 9_007_199_254_740_992.0;

/// A draw `d` in whole ulps of `b`: `rne(d/u)`, capped at `2^53`, and
/// whether `d/u` is an exact half-integer (a tie, where the in-order add
/// rounds by the running total's parity). A capped term marks a count
/// that cannot stay in the binade, and is removed as it was added.
#[inline]
fn term(d: f64, inv_ulp: f64) -> (u64, bool) {
    let q = d * inv_ulp; // exact: a power-of-two scaling
    if q < 2_251_799_813_685_248.0 {
        // [`rne`]'s shifted sum holds `rne(q)` in its low mantissa bits.
        let shifted = q + RNE_SHIFT;
        let r = shifted - RNE_SHIFT;
        (
            shifted.to_bits() - RNE_SHIFT.to_bits(),
            (q - r).abs() == 0.5,
        )
    } else {
        let r = q.round_ties_even();
        let capped = if r < ULP_CAP { r } else { ULP_CAP };
        (capped as u64, (q - r).abs() == 0.5)
    }
}

/// The tie flag of a packed [`UlpSum`] term.
const TIE: u64 = 1 << 63;

/// The whole-ulp count of one pass's draws in one binade of the running
/// total: `Σ rne(d/u)` over the live lanes' draws, plus how many of them
/// are ties. Every lane caches its own term ([`Lane::term`]), so the
/// rebase points ([`SensorSoA::set_draw`], [`SensorSoA::set_level`] and
/// the depletions of [`drain_lazy`]) each compute at most one; `exp ==
/// 0` means no count, and [`pass_total`] recounts when the total's
/// binade is not `exp`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct UlpSum {
    /// The binade: the biased exponent of the totals it applies to.
    pub(crate) exp: u64,
    /// The binade's `1/u`.
    inv_ulp: f64,
    pub(crate) ulps: u128,
    pub(crate) ties: u32,
}

impl UlpSum {
    /// Counts in `b`, refreshing every lane's term: the sum runs over
    /// the live lanes (`base > 0`).
    pub(crate) fn count(lanes: &mut Lanes, draws: &[f64], b: &Binade) -> Self {
        let mut sum = Self {
            exp: b.exp,
            inv_ulp: b.inv_ulp,
            ..Self::default()
        };
        let Lanes { base, rest } = lanes;
        for ((&level, (_, _, term)), &d) in base.iter().zip(rest).zip(draws) {
            *term = sum.term_of(d);
            if level > 0.0 {
                sum.add(*term);
            }
        }
        sum
    }

    /// The packed term of a lane drawing `d`: its whole ulps, [`TIE`] set
    /// on a tie; 0 without a count.
    #[inline]
    pub(crate) fn term_of(&self, d: f64) -> u64 {
        if self.exp == 0 {
            return 0;
        }
        let (t, tie) = term(d, self.inv_ulp);
        t | (tie as u64) << 63
    }

    /// A live lane with the packed term `t` joined the count.
    #[inline]
    pub(crate) fn add(&mut self, t: u64) {
        if self.exp != 0 {
            self.ulps += (t & !TIE) as u128;
            self.ties += (t >> 63) as u32;
        }
    }

    /// A live lane with the packed term `t` left the count.
    #[inline]
    pub(crate) fn sub(&mut self, t: u64) {
        if self.exp != 0 {
            self.ulps -= (t & !TIE) as u128;
            self.ties -= (t >> 63) as u32;
        }
    }

    /// Checks a count against the lanes: every lane's term is its
    /// draw's, and the count is the sum over the live ones.
    pub(crate) fn verify(&self, lanes: &Lanes, draws: &[f64]) -> Result<(), String> {
        if self.exp == 0 {
            return Ok(());
        }
        let mut fresh = Self {
            ulps: 0,
            ties: 0,
            ..*self
        };
        for (s, &d) in draws.iter().enumerate() {
            let lane = lanes.get(s);
            if lane.term != self.term_of(d) {
                return Err(format!(
                    "sensor {s} caches drain-sum term {:#x}, not its draw's {:#x}",
                    lane.term,
                    self.term_of(d)
                ));
            }
            if lane.base > 0.0 {
                fresh.add(lane.term);
            }
        }
        if fresh != *self {
            return Err(format!(
                "drain-sum ulp count {self:?} disagrees with a recount {fresh:?}"
            ));
        }
        Ok(())
    }
}

/// The running total after one lazy pass: `total` plus, in lane order,
/// each live lane's draw, except that the depleting lanes of `last` give
/// up their level instead.
///
/// With the total `s` in the binade of ulp `u` and no term on a
/// half-ulp, `fl(s + d) = s + u·rne(d/u)` while the sum stays below the
/// binade's top; partial sums only grow, so if `s + u·M < top` for the
/// count `M`, every partial sum stays in the binade and the in-order
/// result is exactly `s + u·M` (DESIGN.md §4j). `M` is the maintained
/// count with the depleting lanes' terms swapped. A total outside
/// [`Binade::of`], a tie and a sum that would leave the binade fall back
/// to the in-order loop.
fn pass_total(
    sum: &mut UlpSum,
    total: f64,
    lanes: &mut Lanes,
    draws: &[f64],
    last: &[(u32, f64)],
) -> f64 {
    if let Some(b) = Binade::of(total) {
        if sum.exp != b.exp {
            *sum = UlpSum::count(lanes, draws, &b);
        }
        let mut m = sum.ulps;
        let mut tie = sum.ties > 0;
        for &(s, level) in last {
            let (t_level, t_tie) = term(level, b.inv_ulp);
            m = m - (lanes.get(s as usize).term & !TIE) as u128 + t_level as u128;
            tie |= t_tie;
        }
        if !tie && m < ULP_CAP as u128 {
            // `m · ulp` is exact; below `top`, so is the add.
            let r = total + m as f64 * b.ulp;
            if r < b.top {
                return r;
            }
        }
    }
    let mut last = last.iter().peekable();
    let mut total = total;
    for (s, (&level, &d)) in lanes.base.iter().zip(draws).enumerate() {
        if level > 0.0 {
            total += match last.next_if(|&&(l, _)| l as usize == s) {
                Some(&(_, level)) => level,
                None => d,
            };
        }
    }
    total
}

/// One sensor's lazy battery lane (DESIGN.md §4j): its level as of a
/// stamped drain pass, under the draw it has had since.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lane {
    /// The level (J) as of pass [`since`](Self::since). Positive exactly
    /// while the battery is not depleted: a lane reaches 0 only at its
    /// depletion pass, which rebases it.
    pub(crate) base: f64,
    /// [`closed_step`] of `base` at the lane's draw, so that most reads
    /// are one multiply-subtract.
    step: f64,
    /// The drain pass `base` is valid after.
    pub(crate) since: u64,
    /// The lane's draw as a packed [`UlpSum`] term (stale while the sum
    /// has no binade).
    pub(crate) term: u64,
}

impl Lane {
    /// A lane at `level`, drawing `d`, stamped at `pass`, with the
    /// packed drain-sum term `term`.
    #[inline]
    pub(crate) fn new(level: f64, d: f64, pass: u64, term: u64) -> Self {
        Self {
            base: level,
            step: closed_step(level, d),
            since: pass,
            term,
        }
    }

    /// The lane rebased at `level`, now drawing `d`, stamped at `pass`,
    /// with the packed drain-sum term `term`.
    #[inline]
    pub(crate) fn rebased(&self, level: f64, d: f64, pass: u64, term: u64) -> Self {
        Self {
            base: level,
            step: closed_step_near(self.base, level, d),
            since: pass,
            term,
        }
    }

    /// The level after drain pass `pass`; `d` gives the lane's draw,
    /// read only where the closed form runs out.
    #[inline]
    pub(crate) fn level(&self, pass: u64, d: impl FnOnce() -> f64) -> f64 {
        walk_from(self.base, self.step, d, pass - self.since)
    }
}

/// Every sensor's [`Lane`], in two columns: the bases alone, which the
/// eager pass strides like a plain level column, and the rest.
pub(crate) struct Lanes {
    pub(crate) base: Vec<f64>,
    rest: Vec<(f64, u64, u64)>,
}

impl Lanes {
    pub(crate) fn new(lanes: impl IntoIterator<Item = Lane>) -> Self {
        let (base, rest) = lanes
            .into_iter()
            .map(|l| (l.base, (l.step, l.since, l.term)))
            .unzip();
        Self { base, rest }
    }

    pub(crate) fn len(&self) -> usize {
        self.base.len()
    }

    #[inline]
    pub(crate) fn get(&self, s: usize) -> Lane {
        let (step, since, term) = self.rest[s];
        Lane {
            base: self.base[s],
            step,
            since,
            term,
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, s: usize, lane: Lane) {
        self.base[s] = lane.base;
        self.rest[s] = (lane.step, lane.since, lane.term);
    }
}

/// What one drain pass at draw `d` subtracts from `level` while the
/// closed form of [`walk_from`] holds: `rne(d/u)·u`, `u` the ulp of the
/// level's binade, and 0 where the level stays put for good. `+∞` where
/// the next pass must step singly: a depleted level, `d ≥ level`, a level
/// at its binade's bottom, and a half-ulp tie from an odd level.
pub(crate) fn closed_step(level: f64, d: f64) -> f64 {
    closed_step_near(level, level, d)
}

/// [`closed_step`] with the ulp arithmetic taken from the binade of
/// `near`, when `level` lies in it: a rebase knows the old base before
/// it knows the level it walks to, and the level mostly stays in the
/// base's binade, so the arithmetic need not wait for the walk.
#[inline]
fn closed_step_near(near: f64, level: f64, d: f64) -> f64 {
    let bits = level.to_bits();
    let (exp, m) = (near.to_bits() >> 52, bits & MANTISSA);
    if bits >> 52 != exp {
        return closed_step(level, d);
    }
    // A depleted level has `m = 0`.
    if !(d < level && m > 0) {
        return f64::INFINITY;
    }
    // `u` and `d/u`, exact: `d < level`, a power-of-two scaling (a
    // multiply where `1/u` is a float).
    let (u, q) = if exp > 52 {
        let u = f64::from_bits((exp - 52) << 52);
        (u, d * f64::from_bits((2098 - exp) << 52))
    } else {
        let u = ulp_at(exp);
        (u, d / u)
    };
    let r = rne(q);
    // Ties are rare and the parity is not: test the tie first.
    if (q - r).abs() == 0.5 && m & 1 == 1 {
        return f64::INFINITY;
    }
    r * u
}

/// One ulp above the bottom of `level`'s binade: the lowest level the
/// closed form lands on (`2^−1074` for a subnormal).
#[inline]
pub(crate) fn closed_floor(level: f64) -> f64 {
    f64::from_bits(level.to_bits() & !MANTISSA | 1)
}

/// The float mantissa field.
const MANTISSA: u64 = (1 << 52) - 1;

/// A lane's level after `k` drain passes from `level` at the unchanged
/// draw `d`, given `step = closed_step(level, d)`: `k` steps of the
/// per-lane rule `level −= min(d, level)`, bit for bit, in O(binades
/// crossed) (DESIGN.md §4j).
///
/// Within the binade of ulp `u`, a level is a whole number of ulps above
/// the binade's bottom `2^e` (its mantissa field `m`), and with
/// `r = rne(d/u)`, `fl(level − d) = level − r·u` whenever that lands at
/// least one ulp above the bottom: the exact difference is then more
/// than half an ulp inside the binade, where the floats are the
/// multiples of `u`, and `level − r·u` is the one within half an ulp of
/// it. So `j` steps subtract `j·r·u` while `m − j·r ≥ 1`. On an exact
/// half-ulp tie the subtraction rounds to the even mantissa: from an
/// even level that is `rne`'s even `r` again, and the level stays even,
/// so only a tie from an odd level steps singly. Also stepped singly:
/// the step from the bottom itself or from below one ulp above it,
/// which may enter the lower binade's finer grid, and `d ≥ level`,
/// which gives up the whole level ([`closed_step`]). `r = 0` above the
/// bottom leaves the level where it is for good, as does a single step
/// that does not move it. The closed form is inline, the rest out of
/// line, and `d` is called only there.
#[inline]
pub(crate) fn walk_from(level: f64, step: f64, d: impl FnOnce() -> f64, k: u64) -> f64 {
    // Exact where it passes: `k·step` is `k·r` ulps below `2^53` of them
    // (a larger product lands below 0), and the difference is a
    // multiple of `u` in the binade. `k = 0` passes for any finite step
    // above the bottom, and a NaN (`0·∞`) never does.
    // (`k` is far below `2^63`; the signed conversion is one instruction.)
    let all = level - k as i64 as f64 * step;
    if all >= closed_floor(level) {
        all
    } else {
        walk_on(level, step, d(), k)
    }
}

#[inline(never)]
fn walk_on(mut level: f64, mut step: f64, d: f64, mut k: u64) -> f64 {
    while k > 0 && level > 0.0 && step != 0.0 {
        if step < f64::INFINITY {
            let all = level - k as f64 * step;
            if all >= closed_floor(level) {
                return all;
            }
            // The `⌊(m − 1)/r⌋` whole steps that land at least one ulp
            // above the bottom, fewer than `k`.
            let bits = level.to_bits();
            let r = (step / ulp_at(bits >> 52)) as u64;
            let steps = ((bits & MANTISSA) - 1) / r;
            level -= steps as f64 * step;
            k -= steps;
        }
        let next = level - if d < level { d } else { level };
        if next == level {
            break;
        }
        level = next;
        k -= 1;
        step = closed_step(level, d);
    }
    level
}

/// A lower bound on the passes after a lane's stamp, at base `level` and
/// unchanged draw `d`, until the pass that depletes it: `u64::MAX` for a
/// depleted lane, 1 when `d ≥ level`.
///
/// A pass gives up at most `δ = d + u/2`, `u` the ulp of `level` (the
/// subtraction's rounding is at most half the ulp of the level it lands
/// on, and levels only fall), and the lane depletes at the first pass
/// `p` that starts at a level `≤ d`. So `level − (p − 1)·δ ≤ d`, and
/// `p ≥ 1 + (level − d)/δ`. The quotient is shrunk by a relative
/// `2^−42`, which covers its own rounding, before the floor. It is
/// cheap and at most a pass or two early at paper scale, where `u` is
/// ten orders of magnitude below `d`; an early fire re-predicts.
pub(crate) fn depletion_bound(level: f64, d: f64) -> u64 {
    if level <= 0.0 {
        return u64::MAX;
    }
    if d >= level {
        return 1;
    }
    let delta = d + 0.5 * ulp_at(level.to_bits() >> 52);
    let x = (level - d) / delta * (1.0 - 1024.0 * f64::EPSILON);
    // The conversion floors; an infinite `x` (`δ = 0`) and anything past
    // `2^62` passes mean never.
    if x < 4.6e18 {
        x as i64 as u64 + 1
    } else {
        u64::MAX
    }
}

/// A cheaper and coarser [`depletion_bound`] for the rebase points, from
/// the exponent fields alone: with `a` the biased exponent of `level`
/// and `e` the larger of `d`'s and the level's half ulp's, a lane with
/// `2d ≤ level` has `level − d ≥ 2^(a−1024)` and `δ = d + u/2 <
/// 2^(e−1021)`, so `(level − d)/δ > 2^(a−e−3)` passes. It is at most
/// about 16 times early; a lane that falls due early is predicted again
/// with the division ([`drain_lazy`]).
#[inline]
pub(crate) fn quick_depletion_bound(level: f64, d: f64) -> u64 {
    if level <= 0.0 {
        return u64::MAX;
    }
    if d + d > level {
        return 1;
    }
    let a = level.to_bits() >> 52;
    let e = (d.to_bits() >> 52).max(a.saturating_sub(53));
    1 << (a as i64 - e as i64 - 3).clamp(0, 62)
}

pub(crate) fn drain_sensors_naive(state: &mut WorldState, dt: f64) {
    let profile = state.cfg.sensor_profile;
    let watch_duty = state.cfg.watch_duty;
    let self_discharge = state.cfg.self_discharge_per_day;
    for s in 0..state.cfg.num_sensors {
        if state.sensors.is_depleted(s) || state.sensors.suspended(s) {
            // Suspended sensors are powered down for the outage: they
            // neither sense nor relay, and their battery holds its level
            // (self-discharge during an outage is ignored).
            continue;
        }
        let load = state.routing.loads()[s + 1];
        let activity = if state.sensors.active(s) {
            SensorActivity::Sensing {
                tx_pps: load.tx_pps,
                rx_pps: load.rx_pps,
            }
        } else if state.sensors.dormant(s) {
            SensorActivity::Idle {
                tx_pps: load.tx_pps,
                rx_pps: load.rx_pps,
            }
        } else {
            SensorActivity::Watching {
                duty: watch_duty,
                tx_pps: load.tx_pps,
                rx_pps: load.rx_pps,
            }
        };
        let power = profile.power(activity);
        let mut demand = power * dt;
        if self_discharge > 0.0 {
            demand += state.sensors.level_at(s) * self_discharge * dt / 86_400.0;
        }
        let drawn = state.sensors.draw(s, demand);
        state.total_drained_j += drawn;
        if state.sensors.is_depleted(s) && !state.sensors.was_depleted(s) {
            state.sensors.set_was_depleted(s, true);
            state.deaths += 1;
            state.note_liveness_changed(s);
            state.alive -= 1;
            state.trace.push(crate::TraceEvent::SensorDepleted {
                t: state.t,
                sensor: SensorId(s as u32),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{
        closed_step, depletion_bound, pass_total, quick_depletion_bound, ulp_at, walk_from, Binade,
        Lane, Lanes, UlpSum, TIE,
    };
    use crate::{SimConfig, World};
    use proptest::prelude::*;
    use wrsn_core::SensorId;

    fn tiny_cfg(days: f64) -> SimConfig {
        let mut cfg = SimConfig::small(days);
        cfg.num_sensors = 60;
        cfg.num_targets = 3;
        cfg.num_rvs = 1;
        cfg.field_side = 60.0;
        cfg
    }

    #[test]
    fn failure_injection_breaks_sensors_permanently() {
        let mut cfg = tiny_cfg(4.0);
        cfg.permanent_failures_per_day = 0.05; // 5 % of sensors per day
        let mut w = World::new(&cfg, 31);
        let out = w.run();
        assert!(out.permanent_failures > 0, "failures should have occurred");
        assert!(w.failures() == out.permanent_failures);
        // Failed sensors are dead and stay dead.
        let failed: Vec<_> = (0..cfg.num_sensors)
            .filter(|&s| w.is_failed(SensorId(s as u32)))
            .collect();
        assert_eq!(failed.len() as u64, out.permanent_failures);
        for s in failed {
            assert!(w.battery(SensorId(s as u32)).is_depleted());
        }
        // The engine stayed consistent despite the faults.
        assert!(out.rv_energy_shortfall_j < 1.0);
    }

    #[test]
    fn self_discharge_accelerates_drain() {
        let base = tiny_cfg(2.0);
        let mut leaky = base.clone();
        leaky.self_discharge_per_day = 0.02;
        let a = World::new(&base, 8).run();
        let b = World::new(&leaky, 8).run();
        assert!(b.total_drained_j > a.total_drained_j);
    }

    #[test]
    fn zero_failure_rate_never_breaks_hardware() {
        let cfg = tiny_cfg(2.0); // permanent_failures_per_day = 0
        let out = World::new(&cfg, 5).run();
        assert_eq!(out.permanent_failures, 0);
    }

    #[test]
    fn zero_rate_injection_leaves_rng_untouched() {
        // The fast path must not draw one `gen_bool(0.0)` per live sensor:
        // the RNG stream on fault-free runs is part of the byte-identity
        // contract the snapshot and determinism pins rely on.
        let cfg = tiny_cfg(0.5); // permanent_failures_per_day = 0
        let mut state = crate::engine::WorldState::new(&cfg, 9);
        let before = state.rng.state();
        super::inject_failures(&mut state, cfg.tick_s);
        assert_eq!(
            state.rng.state(),
            before,
            "zero-rate failure injection advanced the RNG"
        );
        assert_eq!(state.failures, 0);

        // Sanity check the counterfactual: a positive rate does draw.
        let mut state = crate::engine::WorldState::new(&cfg, 9);
        state.cfg.permanent_failures_per_day = 0.05;
        super::inject_failures(&mut state, cfg.tick_s);
        assert_ne!(state.rng.state(), before);
    }

    /// [`walk_from`] from scratch.
    fn walk(level: f64, d: f64, k: u64) -> f64 {
        walk_from(level, closed_step(level, d), || d, k)
    }

    /// One pass of the per-lane rule, as the eager kernel writes it.
    fn step(level: f64, d: f64) -> f64 {
        level - if d < level { d } else { level }
    }

    /// `k` sequential passes of [`step`].
    fn stepped(mut level: f64, d: f64, k: u64) -> f64 {
        for _ in 0..k {
            level = step(level, d);
        }
        level
    }

    /// A battery level of one of five kinds: a random normal from
    /// millijoules to tens of kilojoules; zero to three ulps above a
    /// binade's bottom; a subnormal; a normal of any magnitude; the
    /// smallest normals.
    fn arb_level() -> impl Strategy<Value = f64> {
        (0u8..5, 1u64..1 << 52, 1013u64..1038, 0u64..4).prop_map(
            |(kind, mant, exp, j)| match kind {
                0 => f64::from_bits(exp << 52 | mant),
                1 => f64::from_bits(exp << 52) + j as f64 * ulp_at(exp),
                2 => f64::from_bits(mant),
                3 => f64::from_bits((mant % 2046 + 1) << 52 | mant),
                _ => f64::from_bits(1 << 52 | mant),
            },
        )
    }

    /// A draw for `level`, in ulps `u` of the level's binade: one that
    /// crosses binades within a few thousand passes; an exact half-ulp
    /// tie; below half an ulp; at or above the level; zero; a few ulps.
    fn draw_for(level: f64, (kind, f, n): (u8, f64, u64)) -> f64 {
        let u = ulp_at(level.to_bits() >> 52);
        match kind {
            0 | 1 => level * 10f64.powf(-1.0 - 5.0 * f),
            2 => (n as f64 + 0.5) * u,
            3 => 0.5 * f * u,
            4 => level * (1.0 + f),
            5 => 0.0,
            _ => (n as f64 + f) * u,
        }
    }

    fn arb_draw() -> impl Strategy<Value = (u8, f64, u64)> {
        (0u8..7, 0.0f64..1.0, 0u64..8)
    }

    /// Pass counts up to a 120-day run's 172,800 ticks, mostly short.
    fn arb_passes() -> impl Strategy<Value = u64> {
        (0u8..10, 0u64..=172_800).prop_map(|(kind, k)| match kind {
            0..=4 => k % 64,
            5..=7 => k % 5_000,
            _ => k,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The closed form is the sequential per-lane rule, bit for bit,
        /// whatever the level, the draw and the number of passes.
        #[test]
        fn walk_is_the_sequential_per_lane_rule(
            level in arb_level(),
            draw in arb_draw(),
            k in arb_passes(),
        ) {
            let d = draw_for(level, draw);
            let want = stepped(level, d, k);
            let got = walk(level, d, k);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{} - {} x {}", level, d, k);
        }

        /// The depletion prediction is never late: the lane is still
        /// above its draw before the predicted pass, so the pass that
        /// depletes it is at or after the prediction. Draws are sized to
        /// deplete within 172,800 passes.
        #[test]
        fn depletion_bound_is_never_late(
            level in arb_level(),
            passes in 1u64..=172_800,
            f in 0.0f64..1.0,
            kind in 0u8..4,
        ) {
            let d = match kind {
                0 => level / passes as f64,
                1 => level / passes as f64 * (1.0 + f * 1e-6),
                2 => level * (1.0 + f),
                _ => (level / passes as f64).max(ulp_at(level.to_bits() >> 52) * (0.5 + f)),
            };
            let (bound, quick) = (depletion_bound(level, d), quick_depletion_bound(level, d));
            prop_assert!(bound >= 1 && quick >= 1);
            // The pass that depletes the lane: the first to start at a
            // level at or below the draw.
            let (mut l, mut p) = (level, 1u64);
            while l > d && p < 400_000 {
                l = step(l, d);
                p += 1;
            }
            if l <= d {
                prop_assert!(bound <= p, "{} at {}: predicted {} for {}", level, d, bound, p);
                prop_assert!(quick <= p, "{} at {}: quickly predicted {} for {}", level, d, quick, p);
                prop_assert!(walk(level, d, p - 1) > 0.0);
                prop_assert_eq!(walk(level, d, p), 0.0);
            }
        }
    }

    #[test]
    fn walk_edge_cases() {
        let u = f64::EPSILON; // the ulp of [1, 2)
                              // d < u/2 never moves a level above a binade's bottom…
        assert_eq!(walk(1.0 + u, 0.49 * u, 172_800), 1.0 + u);
        // …but from the bottom itself it enters the finer grid below once
        // d > u/4, and stays at the bottom at d ≤ u/4.
        assert_eq!(walk(1.0, 0.3 * u, 1), 1.0 - 0.5 * u);
        assert_eq!(walk(1.0, 0.3 * u, 3), 1.0 - 1.5 * u);
        assert_eq!(walk(1.0, 0.25 * u, 172_800), 1.0);
        // A whole ulp of draw from one ulp above the bottom lands on it,
        // but more than that enters the finer grid below.
        assert_eq!(walk(1.0 + u, 0.9 * u, 1), 1.0);
        assert_eq!(walk(1.0 + u, 1.4 * u, 1), 1.0 - 0.5 * u);
        assert_eq!(
            walk(1.0 + 9.0 * u, 1.4 * u, 8),
            stepped(1.0 + 9.0 * u, 1.4 * u, 8)
        );
        // A tie from an odd level rounds to even once, then holds.
        assert_eq!(walk(1.0 + u, 0.5 * u, 1), 1.0);
        assert_eq!(walk(1.0 + 3.0 * u, 0.5 * u, 5), 1.0 + 2.0 * u);
        assert_eq!(walk(1.0 + 3.0 * u, 1.5 * u, 1), 1.0 + 2.0 * u);
        assert_eq!(
            walk(1.0 + 3.0 * u, 1.5 * u, 2),
            stepped(1.0 + 3.0 * u, 1.5 * u, 2)
        );
        // d ≥ level, d = 0, subnormals, an empty walk.
        assert_eq!(walk(2.0, 2.0, 1), 0.0);
        assert_eq!(walk(2.0, 3.0, 7), 0.0);
        assert_eq!(walk(5.0, 0.0, u64::MAX), 5.0);
        let sub = f64::from_bits(1_000);
        assert_eq!(walk(sub, f64::from_bits(3), 100), f64::from_bits(700));
        assert_eq!(walk(sub, f64::from_bits(3), 334), f64::from_bits(0));
        assert_eq!(walk(0.0, 1.0, 10), 0.0);
        assert_eq!(walk(3.0, 1.0, 0), 3.0);
        for bound in [depletion_bound, quick_depletion_bound] {
            assert_eq!(bound(0.0, 1.0), u64::MAX);
            assert!(bound(5.0, 0.0) >= 1 << 50);
            assert_eq!(bound(1.0, 1.0), 1);
        }
    }

    /// A running total of one of five kinds: a random normal; one to
    /// three ulps below a power of two; zero, a subnormal or a normal
    /// below `2^−970`; one in the top binade; a power of two.
    fn arb_total() -> impl Strategy<Value = f64> {
        (0u8..6, 1u64..1 << 52, 900u64..1200, 1u64..4).prop_map(|(kind, mant, exp, j)| match kind {
            0 | 1 => f64::from_bits(exp << 52 | mant),
            2 => f64::from_bits((exp << 52) - j),
            3 => [
                0.0,
                f64::from_bits(mant),
                f64::from_bits((mant % 53) << 52 | mant),
            ][j as usize - 1],
            4 => f64::from_bits(2046 << 52 | mant),
            _ => f64::from_bits(exp << 52),
        })
    }

    /// One lane's draw in ulps of the total's binade: a few ulps, many
    /// ulps, whole ulps, under half an ulp, an exact tie, zero, and
    /// lanes of `2^50` ulps and more.
    fn lane_ulps((kind, small, k, f): (u32, u64, u64, f64)) -> f64 {
        match kind {
            0..=29 => small as f64 + f,
            30..=59 => k as f64 + f,
            60..=69 => k as f64,
            70..=79 => f * 0.49,
            80..=84 => small as f64 + 0.5,
            85..=89 => 0.0,
            _ => (1u64 << 50) as f64 * (1.0 + 3.0 * f),
        }
    }

    fn arb_lane() -> impl Strategy<Value = (u32, u64, u64, f64)> {
        (0u32..95, 0u64..4, 0u64..1000, 0.0f64..1.0)
    }

    /// The in-order sum of one pass: every live lane's draw, the
    /// depleting ones' levels instead.
    fn in_order(total: f64, lanes: &Lanes, draws: &[f64], last: &[(u32, f64)]) -> f64 {
        let mut total = total;
        for (s, (&level, &d)) in lanes.base.iter().zip(draws).enumerate() {
            if level > 0.0 {
                total += last
                    .iter()
                    .find(|&&(l, _)| l as usize == s)
                    .map_or(d, |&(_, level)| level);
            }
        }
        total
    }

    /// Lanes of level 1 (live) or 0 (dead) without terms.
    fn lanes_of(live: impl IntoIterator<Item = bool>) -> Lanes {
        Lanes::new(
            live.into_iter()
                .map(|live| Lane::new(live as u8 as f64, 0.0, 0, 0)),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Over a run of passes whose lanes change draw, die, revive and
        /// deplete (each updating the maintained count as the rebase
        /// points do), every pass's total is the in-order sum's, across
        /// binade crossings, ties and fall-backs, and the count and the
        /// cached terms always match a recount.
        #[test]
        fn maintained_ulp_sum_tracks_the_in_order_total(
            s0 in arb_total(),
            raw in proptest::collection::vec((arb_lane(), proptest::bool::weighted(0.8)), 1..24),
            edits in proptest::collection::vec((0usize..24, arb_lane(), 0u8..8), 60),
        ) {
            let u = Binade::of(s0).map_or(f64::EPSILON, |b| b.ulp);
            let mut draws: Vec<f64> = raw.iter().map(|&(l, _)| lane_ulps(l) * u).collect();
            let mut lanes = lanes_of(raw.iter().map(|&(_, live)| live));
            let (mut total, mut want, mut sum) = (s0, s0, UlpSum::default());
            for (lane, l, roll) in edits {
                let s = lane % draws.len();
                let d = lane_ulps(l) * u;
                let mut last = Vec::new();
                let mut lane = lanes.get(s);
                match roll {
                    // A new draw on a live or dead lane.
                    0 | 1 => {
                        let term = sum.term_of(d);
                        if lane.base > 0.0 {
                            sum.sub(lane.term);
                            sum.add(term);
                        }
                        (lane.term, draws[s]) = (term, d);
                    }
                    // A charge revives or a failure kills.
                    2 => {
                        if lane.base > 0.0 {
                            sum.sub(lane.term);
                            lane.base = 0.0;
                        } else {
                            sum.add(lane.term);
                            lane.base = 1.0;
                        }
                    }
                    // The lane depletes this pass, giving up `d`.
                    3 if lane.base > 0.0 => last.push((s as u32, d)),
                    _ => {}
                }
                lanes.set(s, lane);
                want = in_order(want, &lanes, &draws, &last);
                total = pass_total(&mut sum, total, &mut lanes, &draws, &last);
                prop_assert_eq!(total.to_bits(), want.to_bits());
                for &(s, _) in &last {
                    sum.sub(lanes.get(s as usize).term);
                    lanes.base[s as usize] = 0.0;
                }
                prop_assert_eq!(sum.verify(&lanes, &draws), Ok(()));
            }
        }

        /// `j` ulps below a binade's top, `j + 1` lanes of 1 to 1.5 ulps
        /// count to one ulp past it, where the in-order loop goes on in
        /// the next binade's double-width ulps: the count must fall back.
        #[test]
        fn a_sum_one_ulp_past_the_binade_top_falls_back(
            exp in 53u64..2046,
            j in 1usize..4,
            fracs in proptest::collection::vec(0.0f64..0.5, 4),
        ) {
            let b = Binade::at(exp);
            let s0 = b.top - j as f64 * b.ulp;
            let draws: Vec<f64> = fracs[..=j].iter().map(|f| (1.0 + f) * b.ulp).collect();
            let mut lanes = lanes_of(draws.iter().map(|_| true));
            let want = in_order(s0, &lanes, &draws, &[]);
            prop_assert!(want >= b.top);
            let got = pass_total(&mut UlpSum::default(), s0, &mut lanes, &draws, &[]);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn a_tie_falls_back_to_the_in_order_sum() {
        let u = f64::EPSILON;
        let s0 = 1.0 + u;
        // Both half-ulp lanes are ties, and the in-order loop rounds the
        // first up to the even 1 + 2u and the second down to it again:
        // 1 + 5u in all, where a count of 0 + 0 + 3 ulps gives 1 + 4u.
        let (mut lanes, draws) = (lanes_of([true; 3]), [0.5 * u, 0.5 * u, 3.0 * u]);
        let mut sum = UlpSum::default();
        assert_eq!(
            pass_total(&mut sum, s0, &mut lanes, &draws, &[]),
            1.0 + 5.0 * u
        );
        assert_eq!((sum.exp, sum.ulps, sum.ties), (1023, 3, 2));
        assert_eq!(lanes.get(0).term, TIE);
        // The tie lanes leave the count, and it takes over.
        for s in 0..2 {
            sum.sub(lanes.get(s).term);
            lanes.base[s] = 0.0;
        }
        assert_eq!(
            pass_total(&mut sum, s0, &mut lanes, &draws, &[]),
            1.0 + 4.0 * u
        );
    }
}
