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
//! [`drain_sensors`] is then a min/subtract/sum pass over levels and that
//! column (DESIGN.md §4j).
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
/// After [`refresh_draws`], the fast path is one pass over two columns,
/// levels and [`SensorSoA::tick_draw_j`]: per lane `d = min(draw, level)`,
/// `level -= d`, `total += d`, with the total summed in sensor order.
/// Depleted lanes are masked to a zero demand (`level -= 0.0` and
/// `total += 0.0` are bitwise no-ops for the non-negative levels the
/// battery maintains, so masking matches the naive loop's `continue`
/// byte for byte), and suspended lanes hold a zero draw. With
/// self-discharge on, the level-dependent term is added on top in the
/// naive loop's expression order. Depletion transitions are queued and
/// replayed after the sweep in the same ascending order the naive loop
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
        drain_sensors_naive(state, dt);
        return;
    }
    let SensorSoA {
        level,
        tick_draw_j,
        flags,
        ..
    } = &mut state.sensors;
    let mut transitions = Vec::new();
    drain_lanes(
        level,
        tick_draw_j,
        flags,
        state.cfg.self_discharge_per_day,
        dt,
        &mut state.total_drained_j,
        &mut transitions,
    );
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

/// The column kernel: drains every lane of `levels` by its `draws`
/// entry, adds what was drawn to `total` in lane order, and queues the
/// lanes that reached zero this tick, ascending. It is kept out of line
/// and fills a caller's queue so that its loop compiles to a dozen
/// instructions per lane with the running total in a register. Inlined
/// into [`drain_sensors`], or owning its queue, the loop kept the total
/// and each lane's draw on the stack, a store and a reload per lane, and
/// the traced paper run spent twice as long in it.
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
        // select. The two agree on every non-NaN level (a NaN demand
        // included), and levels are never NaN: decode rejects them and
        // the invariant audit checks them. The select skips `min`'s NaN
        // fix-up.
        let delivered = if demand < old { demand } else { old };
        *level = old - delivered;
        sum += delivered;
        if old > 0.0 && *level <= 0.0 {
            transitions.push(s as u32);
        }
    }
    *total = sum;
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
    use crate::{SimConfig, World};
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
}
