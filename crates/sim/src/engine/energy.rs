//! Phase 3 — sensor energy: permanent-failure injection and battery drain.
//!
//! Each tick, every live sensor draws power for its activity state
//! (sensing / dormant / duty-cycled watching, plus relay traffic from the
//! routing tree and optional self-discharge), and — on failure-injection
//! runs — may suffer a permanent Poisson hardware fault. Depletions and
//! faults invalidate the routing tree and feed the death/failure ledgers
//! the conservation tests audit.
//!
//! Sensor energy is counted in whole nanojoules ([`UNITS_PER_J`]), so
//! `k` passes at draw `d` subtract exactly `k·d` and every sum is exact
//! in any order (DESIGN.md §4j). Joules convert to units at the
//! boundaries only, through [`to_units`]: a power-model draw once per
//! refresh, a charge once per transfer.
//!
//! The activity-and-relay part of each sensor's draw changes only when
//! its activity or suspension bit flips or its relay load moves, so it is
//! kept in a maintained column, [`SensorSoA::tick_draw`].
//! [`refresh_draws`] recomputes just the changed entries at the start of
//! the drain phase (the routing tree reports only loads that moved net),
//! rebasing each changed lane and seeding a dispatch re-check for each
//! entry that rose. Battery levels are lazy: a lane's level is its base
//! less its draw per pass since its stamp ([`level_after`]), so
//! [`drain_sensors`] touches only the lanes whose depletion pass
//! ([`depletion_pass`]) has come and drains a maintained sum of the live
//! lanes' draws. In worlds with self-discharge, whose demand depends on
//! the level, levels are eager: a lane pass steps them all
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
            state.failure_lost += state.sensors.level(s) as i128;
            state.sensors.set_level(s, 0);
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
/// and relay load `load`, in units: the value [`SensorSoA::tick_draw`]
/// holds.
pub(crate) fn tick_draw(cfg: &SimConfig, fl: u8, load: TrafficLoad) -> i64 {
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
fn table_draw(table: &PowerTable, tick_s: f64, fl: u8, load: TrafficLoad) -> i64 {
    if fl & F_SUSPENDED != 0 {
        return 0;
    }
    let detector = if fl & F_ACTIVE != 0 {
        DetectorState::Sensing
    } else if fl & F_DORMANT != 0 {
        DetectorState::Idle
    } else {
        DetectorState::Watching
    };
    to_units(table.power(detector, load.tx_pps, load.rx_pps) * tick_s)
}

/// Recomputes every [`SensorSoA::tick_draw`] entry: at construction and
/// on snapshot resume, where every sensor is in the dispatch next-scan
/// set anyway.
pub(crate) fn rebuild_draws(state: &mut WorldState) {
    let n = state.sensors.len();
    state.sensors.draw_stale.fill(n);
    recompute_stale_draws(state);
}

/// Brings [`SensorSoA::tick_draw`] up to date at the start of the drain
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
    let mut changed = [(0u32, 0i64); 64];
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
                sensors.tick_draw[s],
            );
            crossings.note_check_if(s, draw > old);
            changed[len] = (s32, draw);
            len += (draw != old) as usize;
        }
        for &(s, draw) in &changed[..len] {
            sensors.set_draw(s as usize, draw);
        }
    });
    sensors.draw_stale = stale;
}

/// Integrates one tick of battery drain for every live sensor.
///
/// After [`refresh_draws`], the lazy pass ([`lazy_pass`]) visits only the
/// lanes that deplete on this pass and adds the live lanes' draws to the
/// total in O(1). Worlds with self-discharge, whose demand depends on
/// the level, step every lane instead ([`drain_lanes`]). Either way the
/// total is exactly the naive loop's sum, and depletion transitions are
/// replayed after the pass in the same ascending order the naive loop
/// fires them (transition side effects never feed back into other
/// sensors' draws within the tick, so deferral is invisible).
///
/// [`drain_sensors_naive`] keeps the historical per-sensor loop, which
/// derives each draw from the activity class and relay load itself, as
/// the differential oracle; the equivalence proptests require
/// byte-identical snapshots between the two.
pub(crate) fn drain_sensors(state: &mut WorldState, dt: f64) {
    debug_assert_eq!(dt.to_bits(), state.cfg.tick_s.to_bits());
    refresh_draws(state);
    if state.naive_drain {
        return drain_sensors_naive(state, dt);
    }
    let depleted = if state.sensors.lazy {
        let (drained, depleted) = lazy_pass(&mut state.sensors);
        state.total_drained += drained;
        depleted
    } else {
        let SensorSoA {
            base,
            tick_draw,
            flags,
            ..
        } = &mut state.sensors;
        let mut depleted = Vec::new();
        state.total_drained += drain_lanes(
            base,
            tick_draw,
            flags,
            state.cfg.self_discharge_per_day,
            dt,
            &mut depleted,
        );
        depleted
    };
    replay_depletions(state, &depleted);
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

/// One lazy drain pass (DESIGN.md §4j): returns what the lanes gave up
/// and the lanes it depleted, ascending.
///
/// Every live lane gives up its draw, so the pass drains the maintained
/// live-draw sum, except that a lane whose depletion falls on this pass
/// gives up its remaining level instead. Those lanes are the only ones
/// touched: each is rebased at 0 and leaves the live sum.
pub(crate) fn lazy_pass(sensors: &mut SensorSoA) -> (i128, Vec<u32>) {
    let pass = sensors.pass + 1;
    let mut depleted = Vec::new();
    sensors
        .depletions
        .take_due(pass, |s| depleted.push(s as u32));
    let mut drained = sensors.live_draw;
    for &s32 in &depleted {
        let s = s32 as usize;
        let (level, d) = (sensors.level(s), sensors.tick_draw[s]);
        debug_assert!(0 < level && level <= d, "lane {s} depletes early or late");
        drained -= (d - level) as i128;
        sensors.live_draw -= d as i128;
        (sensors.base[s], sensors.since[s]) = (0, pass);
    }
    sensors.pass = pass;
    (drained, depleted)
}

/// The eager lane kernel: drains every level of `levels` by its `draws`
/// entry, plus the level-dependent term in worlds with self-discharge,
/// queues the lanes that reached zero this tick, ascending, and returns
/// what the lanes gave up. It is kept out of line and fills a caller's
/// queue so that its loop keeps the running sum in registers.
#[inline(never)]
fn drain_lanes(
    levels: &mut [i64],
    draws: &[i64],
    flags: &[u8],
    sd: f64,
    dt: f64,
    transitions: &mut Vec<u32>,
) -> i128 {
    let mut sum = 0i128;
    for (s, (level, &draw)) in levels.iter_mut().zip(draws).enumerate() {
        let old = *level;
        // A suspended lane's draw is already 0; its level-dependent
        // self-discharge term is masked here.
        let demand = if old <= 0 {
            0
        } else if sd > 0.0 && flags[s] & F_SUSPENDED == 0 {
            draw + self_discharge(old, sd, dt)
        } else {
            draw
        };
        let delivered = demand.min(old);
        *level = old - delivered;
        sum += delivered as i128;
        if old > 0 && *level == 0 {
            transitions.push(s as u32);
        }
    }
    sum
}

/// One tick of self-discharge from `level` at `sd` of the level per day,
/// in units.
fn self_discharge(level: i64, sd: f64, dt: f64) -> i64 {
    to_units(to_j(level) * sd * dt / 86_400.0)
}

/// Battery energy units per joule: levels, draws and the sensor-side
/// ledgers count whole nanojoules (DESIGN.md §4j).
pub(crate) const UNITS_PER_J: f64 = 1e9;

/// An energy `j ≥ 0` (J) in whole units, to the nearest (ties up). Every
/// conversion into units goes through here: a draw once per refresh, a
/// charge once per transfer, an initial level once.
#[inline]
pub(crate) fn to_units(j: f64) -> i64 {
    debug_assert!(j >= 0.0, "{j} J is negative");
    // Truncation is the floor here; `as` saturates.
    (j * UNITS_PER_J + 0.5) as i64
}

/// `units` in J.
#[inline]
pub(crate) fn to_j(units: i64) -> f64 {
    units as f64 / UNITS_PER_J
}

/// A ledger total in J.
pub(crate) fn total_j(units: i128) -> f64 {
    units as f64 / UNITS_PER_J
}

/// A lane's level after `k` passes from `base` at the unchanged draw `d`:
/// each pass gives up `min(d, level)`, so `k` of them leave exactly
/// `max(base − k·d, 0)` (saturating, for a depleted lane that keeps a
/// draw).
#[inline]
pub(crate) fn level_after(base: i64, k: u64, d: i64) -> i64 {
    base.saturating_sub((k as i64).saturating_mul(d)).max(0)
}

/// The pass at which a lane stamped at `since` with level `base`
/// depletes at the unchanged draw `d`: the first whose start level is at
/// most `d`, `since + ⌈base/d⌉`; never (`u64::MAX`) for a depleted or
/// non-drawing lane.
#[inline]
pub(crate) fn depletion_pass(base: i64, since: u64, d: i64) -> u64 {
    if base <= 0 || d <= 0 {
        return u64::MAX;
    }
    since.saturating_add(((base - 1) / d) as u64 + 1)
}

pub(crate) fn drain_sensors_naive(state: &mut WorldState, dt: f64) {
    let profile = state.cfg.sensor_profile;
    let watch_duty = state.cfg.watch_duty;
    let sd = state.cfg.self_discharge_per_day;
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
        let mut demand = to_units(profile.power(activity) * dt);
        if sd > 0.0 {
            demand += self_discharge(state.sensors.level(s), sd, dt);
        }
        state.total_drained += state.sensors.draw(s, demand) as i128;
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
    use super::{depletion_pass, lazy_pass, level_after, to_units};
    use crate::engine::SensorSoA;
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

    /// `k` passes of the per-pass rule, one at a time: each gives up
    /// `min(d, level)`.
    fn stepped(mut level: i64, d: i64, k: u64) -> i64 {
        for _ in 0..k {
            level -= d.min(level);
        }
        level
    }

    #[test]
    fn a_lane_depletes_exactly_at_its_depletion_pass() {
        for base in 0..=60 {
            for d in 0..=13 {
                let pass = depletion_pass(base, 100, d);
                for k in 0..=80 {
                    assert_eq!(
                        level_after(base, k, d),
                        stepped(base, d, k),
                        "{base} at {d}"
                    );
                    // Live before the depletion pass, empty from it on.
                    let live = stepped(base, d, k) > 0;
                    assert_eq!(live, base > 0 && 100 + k < pass, "{base} at {d}, k = {k}");
                }
            }
        }
        assert_eq!(depletion_pass(10, 7, 5), 9);
        assert_eq!(depletion_pass(11, 7, 5), 10);
        assert_eq!(depletion_pass(5, u64::MAX - 1, 1), u64::MAX);
        assert_eq!(level_after(0, u64::MAX >> 1, 1 << 40), 0);
    }

    #[test]
    fn units_round_to_the_nearest_nanojoule() {
        assert_eq!(to_units(0.0), 0);
        assert_eq!(to_units(1.0), 1_000_000_000);
        assert_eq!(to_units(10_800.0), 10_800_000_000_000);
        assert_eq!(to_units(1.4e-9), 1);
        assert_eq!(to_units(1.6e-9), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Lazy lanes under random draws, draw changes, charges and
        /// failures read, pass by pass, exactly what stepping every lane
        /// leaves: each pass depletes exactly the lanes the stepping
        /// empties (never early, never late), drains exactly the in-order
        /// sum of what they gave up, and the maintained live-draw sum
        /// always equals a recount.
        #[test]
        fn lazy_lanes_read_what_stepping_every_pass_leaves(
            levels in proptest::collection::vec(0i64..2_000, 1..40),
            draws in proptest::collection::vec(0i64..60, 40),
            ops in proptest::collection::vec((0u8..10, 0usize..40, 0i64..3_000), 1..300),
        ) {
            let n = levels.len();
            let mut lanes = SensorSoA::new(levels.clone(), vec![1.0; n], vec![Default::default(); n], true);
            let (mut want, mut want_draws) = (levels, draws[..n].to_vec());
            for (s, &d) in want_draws.iter().enumerate() {
                if d != 0 {
                    lanes.set_draw(s, d);
                }
            }
            for (kind, s, v) in ops {
                let s = s % n;
                match kind {
                    // A new draw.
                    0 | 1 => {
                        let d = v % 60;
                        if d != lanes.tick_draw[s] {
                            lanes.set_draw(s, d);
                        }
                        want_draws[s] = d;
                    }
                    // A charge, which may revive the lane.
                    2 => {
                        lanes.set_level(s, v);
                        want[s] = v;
                    }
                    // A permanent failure.
                    3 => {
                        lanes.set_level(s, 0);
                        want[s] = 0;
                    }
                    // A drain pass.
                    _ => {
                        let (drained, depleted) = lazy_pass(&mut lanes);
                        let (mut sum, mut emptied) = (0i128, Vec::new());
                        for (s, level) in want.iter_mut().enumerate() {
                            let given = want_draws[s].min(*level);
                            sum += given as i128;
                            if *level > 0 && given == *level {
                                emptied.push(s as u32);
                            }
                            *level -= given;
                        }
                        prop_assert_eq!(depleted, emptied);
                        prop_assert_eq!(drained, sum);
                    }
                }
                for (s, &level) in want.iter().enumerate() {
                    prop_assert_eq!(lanes.level(s), level, "lane {}", s);
                }
                let live: i128 = (0..n)
                    .filter(|&s| want[s] > 0)
                    .map(|s| want_draws[s] as i128)
                    .sum();
                prop_assert_eq!(lanes.live_draw, live);
            }
        }
    }
}
