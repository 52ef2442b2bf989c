//! Phase 3 — sensor energy: permanent-failure injection and battery drain.
//!
//! Each tick, every live sensor draws power for its activity state
//! (sensing / dormant / duty-cycled watching, plus relay traffic from the
//! routing tree and optional self-discharge), and — on failure-injection
//! runs — may suffer a permanent Poisson hardware fault. Depletions and
//! faults invalidate the routing tree and feed the death/failure ledgers
//! the conservation tests audit.

use super::{WorldState, CHUNK, F_ACTIVE, F_DORMANT, F_SUSPENDED, F_WAS_DEPLETED};
use rand::Rng;
use wrsn_core::SensorId;
use wrsn_energy::SensorActivity;

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
            super::coverage::note_failed(state, id);
            state.trace.push(crate::TraceEvent::SensorFailed {
                t: state.t,
                sensor: id,
            });
        }
    }
}

/// Integrates one tick of battery drain for every live sensor.
///
/// The fast path is a chunked kernel over the SoA columns: per-class
/// base powers and per-packet radio energies are hoisted out of the
/// loop, dead/suspended lanes are masked to a zero demand (`level -=
/// 0.0` and `total += 0.0` are bitwise no-ops for the non-negative
/// levels the battery maintains, so masking matches the naive loop's
/// `continue` byte for byte), and depletion transitions are queued and
/// replayed after the sweep in the same ascending order the naive loop
/// fires them (transition side effects never feed back into other
/// sensors' draws within the tick, so deferral is invisible).
///
/// [`drain_sensors_naive`] keeps the historical per-sensor loop as the
/// differential oracle; the equivalence proptests require byte-identical
/// snapshots between the two.
pub(crate) fn drain_sensors(state: &mut WorldState, dt: f64) {
    if state.naive_drain {
        drain_sensors_naive(state, dt);
        return;
    }
    let n = state.cfg.num_sensors;
    let profile = state.cfg.sensor_profile;
    let sd = state.cfg.self_discharge_per_day;
    // Per-class base power with zeroed packet rates. `power()` computes
    // `base + detector + tx·txe + rx·rxe` with left-associated adds, so
    // `dtab + tx·txe + rx·rxe` below reproduces it bitwise (the zeroed
    // rate terms add exact `+0.0`s).
    let d_sensing = profile.power(SensorActivity::Sensing {
        tx_pps: 0.0,
        rx_pps: 0.0,
    });
    let d_idle = profile.power(SensorActivity::Idle {
        tx_pps: 0.0,
        rx_pps: 0.0,
    });
    let d_watch = profile.power(SensorActivity::Watching {
        duty: state.cfg.watch_duty,
        tx_pps: 0.0,
        rx_pps: 0.0,
    });
    let txe = profile.radio.tx_energy(profile.packet_bytes);
    let rxe = profile.radio.rx_energy(profile.packet_bytes);

    let mut transitions: Vec<u32> = Vec::new();
    {
        let WorldState {
            sensors,
            routing,
            total_drained_j,
            ..
        } = state;
        let loads = routing.loads();
        let mut c0 = 0;
        while c0 < n {
            let c1 = (c0 + CHUNK).min(n);
            for s in c0..c1 {
                let fl = sensors.flags[s];
                let level = sensors.level[s];
                // Dormant sensors still relay (Idle keeps the radio on);
                // only depletion and suspension stop the draw entirely.
                let masked = level <= 0.0 || fl & F_SUSPENDED != 0;
                let base = if fl & F_ACTIVE != 0 {
                    d_sensing
                } else if fl & F_DORMANT != 0 {
                    d_idle
                } else {
                    d_watch
                };
                let load = loads[s + 1];
                let power = base + load.tx_pps * txe + load.rx_pps * rxe;
                let mut demand = power * dt;
                if sd > 0.0 {
                    demand += level * sd * dt / 86_400.0;
                }
                if masked {
                    demand = 0.0;
                }
                debug_assert!(demand.is_finite() && demand >= 0.0);
                // Inlined `SensorSoA::draw`, same min/subtract sequence.
                let delivered = demand.min(level);
                sensors.level[s] = level - delivered;
                *total_drained_j += delivered;
                if !masked && level - delivered <= 0.0 && fl & F_WAS_DEPLETED == 0 {
                    transitions.push(s as u32);
                }
            }
            c0 = c1;
        }
    }
    // Replay depletion transitions in the naive loop's (ascending) order.
    for &s32 in &transitions {
        let s = s32 as usize;
        state.sensors.set_was_depleted(s, true);
        state.deaths += 1;
        state.note_liveness_changed(s);
        super::coverage::note_depleted(state, SensorId(s32));
        state.trace.push(crate::TraceEvent::SensorDepleted {
            t: state.t,
            sensor: SensorId(s32),
        });
    }
}

/// The historical per-sensor drain loop, retained as the differential
/// oracle for the chunked kernel above. The loop
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
            super::coverage::note_depleted(state, SensorId(s as u32));
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
