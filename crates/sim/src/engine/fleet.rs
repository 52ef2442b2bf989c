//! Phase 5 — RV fleet execution: the per-vehicle phase machine.
//!
//! Each RV advances through `Idle → ToStop → Charging → … → ToBase →
//! SelfCharging` in exact sub-tick time: a tick's budget is consumed by
//! travel and charging in sequence, so several phase transitions can
//! complete within one tick and energy integration stays exact. Route
//! abandonment (battery floor) and failed-sensor skips keep the phase
//! machine consistent with the request board.

use super::WorldState;
use crate::RvPhase;
use wrsn_core::SensorId;
use wrsn_energy::Battery;
use wrsn_geom::Point2;

/// Moves RV `i` toward `goal` for at most `budget` seconds. Returns
/// `(time_used, arrived)`.
fn travel(state: &mut WorldState, i: usize, goal: Point2, budget: f64) -> (f64, bool) {
    let speed = state.cfg.rv_model.speed_mps;
    let dist = state.rvs[i].pos.distance(goal);
    if dist <= 1e-9 {
        state.rvs[i].pos = goal;
        return (0.0, true);
    }
    let max_d = speed * budget;
    let (d, arrived) = if dist <= max_d {
        (dist, true)
    } else {
        (max_d, false)
    };
    let rv = &mut state.rvs[i];
    rv.pos = if arrived {
        goal
    } else {
        rv.pos.lerp(goal, d / dist)
    };
    rv.distance_traveled_m += d;
    let energy = state.cfg.rv_model.travel_energy(d);
    let got = rv.battery.draw(energy);
    state.rv_drawn_j += got;
    state.rv_shortfall_j += energy - got;
    state.metrics.record_travel(d, energy);
    (if arrived { dist / speed } else { budget }, arrived)
}

/// Seconds until `battery` is full at `power` W, or `f64::INFINITY` when
/// it provably cannot be full within `budget` s plus the 1e-9 finish slack
/// ([`Battery::time_to_full_within`]). An infinite time charges for the
/// whole budget and does not finish, the same decision the exact time
/// makes, so the taper walk runs only on the tick a charge can finish.
fn time_to_full(battery: &Battery, power: f64, budget: f64) -> f64 {
    battery
        .time_to_full_within(power, budget)
        .unwrap_or_else(|| {
            debug_assert!(
                battery.time_to_full(power) - 1e-9 > budget,
                "skipped the taper walk of a charge that finishes within {budget} s"
            );
            f64::INFINITY
        })
}

/// Advances RV `i` by one tick of exact sub-tick execution.
pub(crate) fn step_rv(state: &mut WorldState, i: usize, dt: f64) {
    let mut budget = dt;
    // A few phase transitions can happen within one tick; cap the loop
    // defensively (every iteration either consumes budget or changes
    // phase toward a terminal state).
    let mut guard = 0;
    while budget > 1e-9 {
        guard += 1;
        debug_assert!(guard < 10_000, "RV phase loop stuck");
        match state.rvs[i].phase {
            RvPhase::Idle => {
                if let Some(&next) = state.rvs[i].route.front() {
                    state.rvs[i].phase = RvPhase::ToStop(next);
                    continue;
                }
                let at_base = state.rvs[i].pos.distance(state.base) <= 1e-6;
                if !at_base {
                    // No work: head home (tours start and end at the
                    // base station, constraint (3)). The planner runs
                    // before RV stepping each tick, so an idle RV in
                    // the field still gets first claim on new work
                    // from its current position.
                    state.rvs[i].phase = RvPhase::ToBase;
                    continue;
                }
                if !state.rvs[i].battery.is_full() {
                    state.rvs[i].phase = RvPhase::SelfCharging;
                    continue;
                }
                state.rvs[i].phase_time_s[0] += budget;
                break; // parked at base, fully charged, no work
            }
            RvPhase::ToStop(s) => {
                if abandon_if_exhausted(state, i) || skip_if_failed(state, i, s) {
                    continue;
                }
                let goal = state.sensor_pos[s.index()];
                let (used, arrived) = travel(state, i, goal, budget);
                state.rvs[i].phase_time_s[1] += used;
                budget -= used;
                if arrived {
                    state.rvs[i].phase = RvPhase::Charging(s);
                }
            }
            RvPhase::Charging(s) => {
                if abandon_if_exhausted(state, i) || skip_if_failed(state, i, s) {
                    continue;
                }
                let power = state.cfg.rv_model.charge_power_w;
                let eff = state.cfg.rv_model.transfer_efficiency;
                // Materialize the battery for the stateful taper
                // integration; the level is written back below.
                let si = s.index();
                let mut battery = state.sensors.battery(si);
                let t_full = time_to_full(&battery, power, budget);
                if t_full <= 1e-9 {
                    // Service complete: clear the request, revive
                    // routing if the sensor was dead, move on.
                    finish_service(state, i, s);
                    continue;
                }
                let use_t = budget.min(t_full);
                state.rvs[i].phase_time_s[2] += use_t;
                let was_dead = battery.is_depleted();
                battery.charge_for(power, use_t);
                // The transfer rounds to units once: what it delivered is
                // the change in the stored level, exactly.
                let level = super::energy::to_units(battery.level());
                let units = level - state.sensors.level(si);
                state.sensors.set_level(si, level);
                // Charging can carry the sensor across the request
                // threshold before the next tick's scan; make sure the
                // dispatch pass examines it. (A below-threshold sensor is
                // in the next-scan set anyway — this seed is the belt to
                // that suspender.)
                state.crossings.note_check(si);
                state.total_delivered += units as i128;
                let delivered = super::energy::to_j(units);
                state.metrics.record_recharge_energy(delivered);
                let src = delivered / eff;
                let got = state.rvs[i].battery.draw(src);
                state.rv_drawn_j += got;
                state.rv_shortfall_j += src - got;
                // Revival is the *battery* transition out of depletion (a
                // sensor deployed dead has no `was_depleted` entry yet
                // still rejoins the alive set).
                if was_dead && !state.sensors.is_depleted(si) {
                    state.alive += 1;
                }
                if state.sensors.was_depleted(si) && !state.sensors.is_depleted(si) {
                    state.sensors.set_was_depleted(si, false);
                    state.note_liveness_changed(si);
                    state.trace.push(crate::TraceEvent::SensorRevived {
                        t: state.t,
                        sensor: s,
                    });
                }
                budget -= use_t;
                if use_t >= t_full - 1e-9 {
                    finish_service(state, i, s);
                }
            }
            RvPhase::ToBase => {
                let base = state.base;
                let (used, arrived) = travel(state, i, base, budget);
                state.rvs[i].phase_time_s[1] += used;
                budget -= used;
                if arrived {
                    state.rvs[i].phase = RvPhase::SelfCharging;
                }
            }
            RvPhase::SelfCharging => {
                let power = state.cfg.base_charge_power_w;
                let t_full = time_to_full(&state.rvs[i].battery, power, budget);
                if t_full <= 1e-9 {
                    state.rvs[i].phase = RvPhase::Idle;
                    continue;
                }
                let use_t = budget.min(t_full);
                state.rvs[i].phase_time_s[3] += use_t;
                let stored = state.rvs[i].battery.charge_for(power, use_t);
                state.rv_input_j += stored;
                budget -= use_t;
                if use_t >= t_full - 1e-9 {
                    state.rvs[i].phase = RvPhase::Idle;
                }
            }
            RvPhase::Broken { .. } => {
                // Stuck in the field until the chaos engine's repair
                // phase (which runs before fleet stepping) releases it.
                state.rvs[i].phase_time_s[4] += budget;
                break;
            }
        }
    }
}

/// Abandons RV `i`'s remaining route when its battery has fallen below
/// the hard floor (2 % — demand grows between planning and arrival, so
/// a tour can overrun its planned budget into the reserve). Dropped
/// requests return to the unassigned pool. Returns `true` when the
/// route was abandoned.
fn abandon_if_exhausted(state: &mut WorldState, i: usize) -> bool {
    if state.rvs[i].battery.soc() >= 0.02 {
        return false;
    }
    for s in state.rvs[i].abandon_route() {
        state.board.unassign(s);
        // A released request just became unassigned: the dispatch
        // recovery pass must examine it next tick (a partial charge may
        // have pushed it above threshold already).
        state.crossings.note_check(s.index());
    }
    state.rvs[i].phase = RvPhase::ToBase;
    true
}

/// Advances RV `i` past stop `s` and retargets the phase at the new
/// route head. The head is expected to be `s` (debug-asserted); if a bug
/// ever desynchronizes phase and route in a release build, `s` is removed
/// from wherever it actually sits instead of silently dropping whichever
/// innocent stop happens to be at the front.
fn advance_route(state: &mut WorldState, i: usize, s: SensorId) {
    let rv = &mut state.rvs[i];
    debug_assert_eq!(
        rv.route.front(),
        Some(&s),
        "RV advancing past an unexpected stop"
    );
    if rv.route.front() == Some(&s) {
        rv.route.pop_front();
    } else if let Some(pos) = rv.route.iter().position(|&x| x == s) {
        rv.route.remove(pos);
    }
    rv.phase = match rv.route.front() {
        Some(&next) => RvPhase::ToStop(next),
        None => RvPhase::Idle,
    };
}

/// Drops stop `s` from RV `i`'s route when the sensor has permanently
/// failed (there is nothing left to charge). Returns `true` when the
/// stop was skipped.
fn skip_if_failed(state: &mut WorldState, i: usize, s: SensorId) -> bool {
    if !state.sensors.failed(s.index()) {
        return false;
    }
    advance_route(state, i, s);
    true
}

/// Completes the charging of sensor `s` by RV `i` and advances the
/// route.
fn finish_service(state: &mut WorldState, i: usize, s: SensorId) {
    state.metrics.record_service();
    state.trace.push(crate::TraceEvent::ServiceDone {
        t: state.t,
        rv: state.rvs[i].id,
        sensor: s,
    });
    state.board.clear(s);
    advance_route(state, i, s);
}

#[cfg(test)]
mod tests {
    use crate::{SimConfig, World};

    fn tiny_cfg(days: f64) -> SimConfig {
        let mut cfg = SimConfig::small(days);
        cfg.num_sensors = 60;
        cfg.num_targets = 3;
        cfg.num_rvs = 1;
        cfg.field_side = 60.0;
        cfg
    }

    #[test]
    fn zero_rvs_is_the_no_recharging_baseline() {
        // 12 days: long enough that the round-robin rota can no longer
        // stretch the low-SoC members past the horizon without recharging.
        let mut cfg = tiny_cfg(12.0);
        cfg.num_rvs = 0;
        cfg.initial_soc = (0.3, 1.0);
        let out = World::new(&cfg, 5).run();
        assert_eq!(out.report.recharged_mj, 0.0);
        assert_eq!(out.report.travel_distance_m, 0.0);
        assert_eq!(out.rv_charging_utilization, 0.0);
        // Without recharging, the low-start sensors that keep getting
        // cluster duty eventually die.
        assert!(out.deaths > 0, "sensors must die without recharging");
    }

    #[test]
    fn utilization_breakdown_sums_to_elapsed_time() {
        let mut cfg = tiny_cfg(2.0);
        cfg.initial_soc = (0.3, 1.0);
        let mut w = World::new(&cfg, 9);
        w.run();
        for rv in w.rvs() {
            let total: f64 = rv.phase_time_s.iter().sum();
            assert!(
                (total - cfg.duration_s).abs() < cfg.tick_s + 1e-6,
                "phase accounting lost time: {total} vs {}",
                cfg.duration_s
            );
            assert!((0.0..=1.0).contains(&rv.charging_utilization()));
        }
    }

    #[test]
    fn rvs_start_and_end_tours_at_the_base() {
        let mut cfg = tiny_cfg(6.0);
        cfg.initial_soc = (0.3, 1.0);
        let mut w = World::new(&cfg, 9);
        let base = w.rvs()[0].pos;
        let out = w.run();
        assert!(out.report.travel_distance_m > 0.0, "the RV worked");
        // After the run, idle RVs have converged back toward the base
        // (constraint (3): tours start and end at the base station).
        for rv in w.rvs() {
            if rv.route.is_empty()
                && matches!(
                    rv.phase,
                    crate::RvPhase::Idle | crate::RvPhase::SelfCharging
                )
            {
                assert!(rv.pos.distance(base) <= 1e-6);
            }
        }
    }
}
