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
//! seeds a dispatch re-check for each entry that rose, and
//! [`drain_sensors`] is then a min/subtract pass over levels and that
//! column, with the energy drawn added to the total by a whole-ulp count
//! that a repeating tick reuses ([`add_drawn`], DESIGN.md §4j).
//! [`drain_sensors_naive`] derives every draw from scratch and stays in
//! the build as the differential oracle.

use super::{SensorSoA, WorldState, F_ACTIVE, F_DORMANT, F_SUSPENDED};
use crate::SimConfig;
use rand::Rng;
use wrsn_core::SensorId;
use wrsn_energy::SensorActivity;
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
            let level = state.sensors.level[s];
            state.failure_lost_j += state.sensors.draw(s, level);
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
/// Dormant sensors still relay (Idle keeps the radio on); suspended ones
/// are powered down for the outage and draw nothing.
pub(crate) fn tick_draw(cfg: &SimConfig, fl: u8, load: TrafficLoad) -> f64 {
    if fl & F_SUSPENDED != 0 {
        return 0.0;
    }
    let (tx_pps, rx_pps) = (load.tx_pps, load.rx_pps);
    let activity = if fl & F_ACTIVE != 0 {
        SensorActivity::Sensing { tx_pps, rx_pps }
    } else if fl & F_DORMANT != 0 {
        SensorActivity::Idle { tx_pps, rx_pps }
    } else {
        SensorActivity::Watching {
            duty: cfg.watch_duty,
            tx_pps,
            rx_pps,
        }
    };
    cfg.sensor_profile.power(activity) * cfg.tick_s
}

/// Recomputes every [`SensorSoA::tick_draw_j`] entry: at construction and
/// on snapshot resume, where every sensor is in the dispatch next-scan
/// set anyway.
pub(crate) fn rebuild_draws(state: &mut WorldState) {
    let n = state.sensors.len();
    state.sensors.draw_stale.fill(n);
    recompute_stale_draws(state);
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
/// the crossing (DESIGN.md §4j).
fn recompute_stale_draws(state: &mut WorldState) {
    let WorldState {
        cfg,
        sensors,
        routing,
        crossings,
        ..
    } = state;
    let loads = routing.loads();
    let SensorSoA {
        tick_draw_j,
        draw_stale,
        flags,
        ..
    } = sensors;
    draw_stale.drain(|batch| {
        for &s in batch {
            let s = s as usize;
            let draw = tick_draw(cfg, flags[s], loads[s + 1]);
            crossings.note_check_if(s, draw > tick_draw_j[s]);
            tick_draw_j[s] = draw;
        }
    });
}

/// Integrates one tick of battery drain for every live sensor.
///
/// After [`refresh_draws`], the fast path is one pass over the columns:
/// per lane `d = min(draw, level)`, `level -= d`, and `d` is kept in
/// [`SensorSoA::drawn`]. Depleted lanes are masked to a zero demand
/// (`level -= 0.0` is a bitwise no-op for the non-negative levels the
/// battery maintains, so masking matches the naive loop's `continue`
/// byte for byte), and suspended lanes hold a zero draw. With
/// self-discharge on, the level-dependent term is added on top in the
/// naive loop's expression order. What the lanes gave up is then added
/// to the total with the bits of the naive loop's in-order sum
/// ([`add_drawn`]).
/// Depletion transitions are queued and replayed after the sweep in the
/// same ascending order the naive loop fires them (transition side
/// effects never feed back into other sensors' draws within the tick, so
/// deferral is invisible).
///
/// [`drain_sensors_naive`] keeps the historical per-sensor loop, which
/// derives each draw from the activity class and relay load itself, as
/// the differential oracle; the equivalence proptests require
/// byte-identical snapshots between the two.
pub(crate) fn drain_sensors(state: &mut WorldState, dt: f64) {
    debug_assert_eq!(dt.to_bits(), state.cfg.tick_s.to_bits());
    refresh_draws(state);
    if state.naive_drain {
        drain_sensors_naive(state, dt);
        return;
    }
    let SensorSoA {
        level,
        tick_draw_j,
        flags,
        drawn,
        drawn_ulps,
        ..
    } = &mut state.sensors;
    let mut transitions = Vec::new();
    let changed = drain_lanes(
        level,
        tick_draw_j,
        flags,
        state.cfg.self_discharge_per_day,
        dt,
        drawn,
        &mut transitions,
    );
    if changed {
        drawn_ulps.valid = false;
    }
    add_drawn(&mut state.total_drained_j, drawn, drawn_ulps);
    // Replay depletion transitions in the naive loop's (ascending) order,
    // with its test that the depletion is not already recorded.
    for &s32 in &transitions {
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

/// The lane kernel: drains every lane of `levels` by its `draws` entry,
/// stores what each lane gave up in `drawn`, and queues the lanes that
/// reached zero this tick, ascending. Returns whether any `drawn` entry
/// changed (NaN entries always do).
///
/// A lane reached zero this tick exactly when it ends at `level ≤ 0`
/// having given up `d > 0`: a lane that starts depleted gives up
/// nothing, and `old − d ≤ 0` with `0 < d ≤ old` means `d = old`. The
/// pass only notes whether any lane did, so the queue is filled by a
/// second scan on the rare ticks with a depletion and the loop carries
/// no dependency from one lane to the next. It is kept out of line like
/// the in-order kernel before it, which inlined kept its running state on
/// the stack (DESIGN.md §4j).
#[inline(never)]
fn drain_lanes(
    levels: &mut [f64],
    draws: &[f64],
    flags: &[u8],
    sd: f64,
    dt: f64,
    drawn: &mut [f64],
    transitions: &mut Vec<u32>,
) -> bool {
    let (mut changed, mut depleted) = (false, false);
    let lanes = levels
        .iter_mut()
        .zip(draws)
        .zip(flags)
        .zip(drawn.iter_mut());
    for (((level, &draw), &fl), last) in lanes {
        let old = *level;
        // A suspended lane's draw is already 0; its level-dependent
        // self-discharge term is masked here.
        let demand = if old <= 0.0 {
            0.0
        } else if sd > 0.0 && fl & F_SUSPENDED == 0 {
            draw + old * sd * dt / 86_400.0
        } else {
            draw
        };
        debug_assert!(demand.is_finite() && demand >= 0.0);
        // Inlined `SensorSoA::draw`, with its `demand.min(level)` as a
        // select. The two agree on every non-NaN level (a NaN demand
        // included), and levels are never NaN: decode rejects them and
        // the invariant audit checks them. The select skips `min`'s NaN
        // fix-up.
        let delivered = if demand < old { demand } else { old };
        *level = old - delivered;
        changed |= *last != delivered;
        *last = delivered;
        depleted |= (*level <= 0.0) & (delivered > 0.0);
    }
    if depleted {
        let lanes = levels.iter().zip(drawn.iter()).enumerate();
        transitions.extend(
            lanes
                .filter(|&(_, (&level, &d))| level <= 0.0 && d > 0.0)
                .map(|(s, _)| s as u32),
        );
    }
    changed
}

/// `1.5 · 2^52`. For `0 ≤ q < 2^51`, `(q + RNE_SHIFT) − RNE_SHIFT` is `q`
/// rounded to the nearest integer, ties to even: the sum lands in
/// `[2^52, 2^53)`, where the ulp is 1, and `RNE_SHIFT` is even.
const RNE_SHIFT: f64 = 6_755_399_441_055_744.0;

/// The whole-ulp count of [`SensorSoA::drawn`] in one binade of the
/// running total: `Σ rne(d / u)` over the column, `u` the binade's ulp,
/// or `None` when the column declines there ([`count_ulps`]). It is a
/// function of the column's contents and the binade alone, and the drain
/// phase clears `valid` whenever a lane changes, so a valid count always
/// belongs to the current column.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct UlpCount {
    pub(crate) valid: bool,
    /// The binade: the biased exponent of the totals it applies to.
    pub(crate) exp: u64,
    pub(crate) ulps: Option<f64>,
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
            ulp: f64::from_bits((exp - 52) << 52),
            inv_ulp: f64::from_bits((2098 - exp) << 52),
            top: f64::from_bits((exp + 1) << 52),
        }
    }
}

/// `Σ rne(d / u)` over `drawn`, for the ulp `u` of `binade`, or `None`
/// if a lane is on an exact half-ulp or has its sign bit set, or the
/// count is not finite (a NaN or infinite lane).
///
/// Each lane is rounded to whole ulps as `r = (d + RNE_SHIFT·u) −
/// RNE_SHIFT·u`, which is [`RNE_SHIFT`]'s rounding scaled by the power
/// of two `u`. Beyond `2^51` ulps the rounding can miss by an ulp, but
/// then `|d − r| ≥ u/2`, which the half-ulp test declines; a lane it
/// passes is counted exactly. Every term is a whole number of ulps and
/// non-negative, so the partial sums are exact until one reaches
/// `2^53` ulps, and a count that large leaves any binade anyway (the sums
/// are monotone, so it still reads `≥ 2^53`). Four accumulators, two
/// SSE2 registers, and no branch; eight spilled registers on baseline
/// x86-64 and ran slower.
pub(crate) fn count_ulps(drawn: &[f64], binade: &Binade) -> Option<f64> {
    const W: usize = 4;
    let shift = RNE_SHIFT * binade.ulp;
    let mut acc = [0.0f64; W];
    let mut off = [0.0f64; W];
    let mut sign = [0u64; W];
    let mut lane = |k: usize, d: f64| {
        let r = (d + shift) - shift;
        acc[k] += r;
        sign[k] |= d.to_bits();
        // `max` as a select: `maxpd`, without `f64::max`'s NaN fix-up
        // (a NaN lane is caught by the count instead).
        let o = (d - r).abs();
        off[k] = if off[k] > o { off[k] } else { o };
    };
    let mut chunks = drawn.chunks_exact(W);
    for chunk in &mut chunks {
        for (k, &d) in chunk.iter().enumerate() {
            lane(k, d);
        }
    }
    for (k, &d) in chunks.remainder().iter().enumerate() {
        lane(k, d);
    }
    let m = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let sign = sign.iter().fold(0, |a, &b| a | b) >> 63;
    let half = off.iter().any(|&o| o >= 0.5 * binade.ulp);
    let ulps = m * binade.inv_ulp; // exact: a power-of-two scaling
    (sign == 0 && !half && ulps.is_finite()).then_some(ulps)
}

/// Adds `drawn` to `total` with the bits of the in-order loop
/// `for d in drawn { total += d }`, without its chain of dependent adds
/// where the ulp argument holds (DESIGN.md §4j). With the total `s` in
/// the binade of ulp `u` and no lane on a half-ulp, `fl(s + d) =
/// s + u·rne(d/u)` while the sum stays below the binade's top; partial
/// sums only grow, so if `s + u·M < top` for the count `M`, every
/// partial sum stays in the binade and the in-order result is exactly
/// `s + u·M`. `count` is reused while it is valid for the same binade,
/// recounted otherwise; a declined column, a total outside [`Binade::of`]
/// and a sum that would leave the binade fall back to the in-order loop.
pub(crate) fn add_drawn(total: &mut f64, drawn: &[f64], count: &mut UlpCount) {
    let s = *total;
    *total = ulp_sum(s, drawn, count).unwrap_or_else(|| add_in_order(s, drawn));
    debug_assert_eq!(total.to_bits(), add_in_order(s, drawn).to_bits());
}

/// `s + Σ drawn` as `s + u·M`, or `None` where [`add_drawn`] falls back.
fn ulp_sum(s: f64, drawn: &[f64], count: &mut UlpCount) -> Option<f64> {
    let b = Binade::of(s)?;
    if !(count.valid && count.exp == b.exp) {
        *count = UlpCount {
            valid: true,
            exp: b.exp,
            ulps: count_ulps(drawn, &b),
        };
    }
    // `m · ulp` is exact; below `top`, so is the add.
    count.ulps.map(|m| s + m * b.ulp).filter(|&r| r < b.top)
}

/// The in-order sum `s + drawn[0] + drawn[1] + …`.
fn add_in_order(s: f64, drawn: &[f64]) -> f64 {
    drawn.iter().fold(s, |sum, &d| sum + d)
}

/// The historical per-sensor drain loop, retained as the differential
/// oracle for the column kernel above. The loop
/// strides the SoA columns (levels, packed flags, relay loads) directly;
/// depletions feed the liveness dirty-set so the routing refresh repairs
/// only the affected subtrees.
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
            demand += state.sensors.level[s] * self_discharge * dt / 86_400.0;
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
    use super::{add_drawn, add_in_order, ulp_sum, Binade, UlpCount};
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

    /// One lane, in ulps of the total's binade: the raw draws of
    /// [`lane_ulps`].
    fn arb_lane() -> impl Strategy<Value = (u32, u64, u64, f64)> {
        (0u32..100, 0u64..4, 0u64..1000, 0.0f64..1.0)
    }

    /// Builds a lane from [`arb_lane`]'s draws; `clean` leaves out ties,
    /// `−0.0`, lanes of 2^50 ulps and more, and invalid ones. Lanes of a few ulps next to a total a
    /// few ulps below its binade's top cross that top by one ulp or so.
    fn lane_ulps((kind, small, k, f): (u32, u64, u64, f64), clean: bool) -> f64 {
        let kind = if clean { kind % 80 } else { kind };
        match kind {
            0..=29 => small as f64 + f,
            30..=59 => k as f64 + f,
            60..=69 => k as f64,
            70..=79 => f * 0.49,
            80..=84 => small as f64 + 0.5,
            85..=89 => [0.0, -0.0][small as usize % 2],
            90..=94 => (1u64 << 50) as f64 * (1.0 + 3.0 * f),
            95 => f64::NAN,
            96 => f64::INFINITY,
            97 => -(k as f64 + f) - 1.0,
            _ => small as f64 + f,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The ulp count reproduces the in-order sum bit for bit, and
        /// declines exactly where its argument does not hold: a total it
        /// cannot count in; a lane with its sign bit set, not finite or
        /// on a half-ulp; or a sum that reaches the binade's top.
        #[test]
        fn ulp_count_sum_is_the_in_order_sum_or_declines(
            s0 in arb_total(),
            raw in proptest::collection::vec(arb_lane(), 0..24),
            clean in proptest::bool::weighted(0.5),
        ) {
            let b = Binade::of(s0);
            let u = b.as_ref().map_or(f64::EPSILON, |b| b.ulp);
            let drawn: Vec<f64> = raw.iter().map(|&l| lane_ulps(l, clean) * u).collect();
            let in_order = add_in_order(s0, &drawn);
            // Lanes of 2^51 ulps and more may decline: their rounding is
            // only checked, not exact.
            let (must_decline, may_decline) = b.map_or((true, true), |b| {
                let q = |d: f64| d * b.inv_ulp;
                let must = in_order >= b.top
                    || drawn.iter().any(|&d| {
                        d.is_sign_negative() || !q(d).is_finite() || q(d).fract() == 0.5
                    });
                (must, must || drawn.iter().any(|&d| q(d) >= (1u64 << 51) as f64))
            });
            match ulp_sum(s0, &drawn, &mut UlpCount::default()) {
                Some(sum) => {
                    prop_assert_eq!(sum.to_bits(), in_order.to_bits(), "{} + {:?}", s0, drawn);
                    prop_assert!(!must_decline, "counted {} + {:?}", s0, drawn);
                }
                None => prop_assert!(may_decline, "declined {} + {:?}", s0, drawn),
            }
        }

        /// `j` ulps below a binade's top, `j + 1` lanes of 1 to 1.5 ulps
        /// count to one ulp past it, where the in-order loop goes on in
        /// the next binade's double-width ulps: the count must decline.
        #[test]
        fn a_sum_one_ulp_past_the_binade_top_declines(
            exp in 53u64..2046,
            j in 1usize..4,
            fracs in proptest::collection::vec(0.0f64..0.5, 4),
        ) {
            let b = Binade::at(exp);
            let s0 = b.top - j as f64 * b.ulp;
            let drawn: Vec<f64> = fracs[..=j].iter().map(|f| (1.0 + f) * b.ulp).collect();
            let in_order = add_in_order(s0, &drawn);
            prop_assert!(in_order >= b.top);
            let fast = ulp_sum(s0, &drawn, &mut UlpCount::default());
            prop_assert!(fast.is_none(), "{} + {:?}: {:?}, not {}", s0, drawn, fast, in_order);
        }

        /// Over a run of ticks that mostly repeat the drawn vector (the
        /// count reused) and sometimes change one lane (the count
        /// cleared, as the drain phase does), every tick's total is the
        /// in-order sum's, across binade crossings.
        #[test]
        fn reused_ulp_count_tracks_the_in_order_total(
            s0 in arb_total(),
            raw in proptest::collection::vec(arb_lane(), 1..24),
            edits in proptest::collection::vec((0usize..24, arb_lane(), 0u8..4), 60),
        ) {
            let u = Binade::of(s0).map_or(f64::EPSILON, |b| b.ulp);
            let mut drawn: Vec<f64> = raw.iter().map(|&l| lane_ulps(l, true) * u).collect();
            let (mut total, mut want, mut count) = (s0, s0, UlpCount::default());
            for (lane, l, roll) in edits {
                if roll == 0 {
                    let n = drawn.len();
                    drawn[lane % n] = lane_ulps(l, false) * u;
                    count.valid = false;
                }
                add_drawn(&mut total, &drawn, &mut count);
                want = add_in_order(want, &drawn);
                prop_assert_eq!(total.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn a_declined_column_keeps_its_verdict_until_the_binade_changes() {
        let u = f64::EPSILON;
        let s0 = 1.0 + u;
        // Both half-ulp lanes are ties, and the in-order loop rounds the
        // first up to the even 1 + 2u and the second down to it again:
        // 1 + 5u in all, where a count of 0 + 0 + 3 ulps gives 1 + 4u.
        let drawn = [0.5 * u, 0.5 * u, 3.0 * u];
        let mut count = UlpCount::default();
        let mut total = s0;
        add_drawn(&mut total, &drawn, &mut count);
        assert_eq!(total, 1.0 + 5.0 * u);
        assert!(count.valid && count.exp == 1023 && count.ulps.is_none());
        // A whole-ulp column is counted and its count kept.
        let drawn = [u, 2.0 * u, 0.25 * u];
        count.valid = false;
        add_drawn(&mut total, &drawn, &mut count);
        assert_eq!(count.ulps, Some(3.0));
        let before = total;
        add_drawn(&mut total, &drawn, &mut count);
        assert_eq!(total, before + 3.0 * u);
    }
}
