//! Phase 3 — the chaos engine: pluggable fault injection and recovery.
//!
//! Generalizes the single permanent-failure knob into the three fault
//! classes of [`crate::FaultConfig`]: transient sensor outages (suspend /
//! resume without touching the battery), RV breakdowns mid-tour (route
//! returned to the board, repair timer, fleet-aware replanning) and the
//! lossy request uplink ([`uplink_release`], called from the dispatch
//! phase wherever a request group transmits toward the base station).
//!
//! Determinism contract: **nothing here touches the shared RNG unless the
//! corresponding fault class is enabled**, so an all-zero [`crate::FaultConfig`]
//! takes exactly the random draws a pre-chaos build took — zero-fault runs
//! stay byte-identical (pinned by `tests/zero_fault_regression.rs`).

use super::WorldState;
use crate::{FaultConfig, RequestBoard, RvPhase, Trace, TraceEvent};
use rand::rngs::StdRng;
use rand::Rng;
use wrsn_core::SensorId;

/// Injects and recovers faults for one tick: sensor outage resume/suspend
/// first, then RV repair/breakdown. Recoveries are processed before new
/// faults so a sampled duration of ≤ one tick still yields one full tick
/// of outage.
pub(crate) fn step(state: &mut WorldState, dt: f64) {
    resume_sensors(state);
    suspend_sensors(state, dt);
    repair_rvs(state);
    break_rvs(state, dt);
}

/// Ends transient outages whose repair time has passed. Deterministic (no
/// RNG), so it runs even when the fault plan is disabled — the maintained
/// suspended counter lets fault-free runs skip the scan entirely.
fn resume_sensors(state: &mut WorldState) {
    if state.sensors.suspended_count() == 0 {
        return;
    }
    for s in 0..state.cfg.num_sensors {
        if state.sensors.suspended(s) && state.t >= state.sensors.suspend_until[s] {
            state.sensors.set_suspended(s, false);
            state.sensors.suspend_until[s] = f64::NAN;
            // Drain restarts (a rate *raise* from zero): the liveness
            // change seeds the dispatch re-check that re-derives the
            // crossing prediction withdrawn during the outage.
            state.note_liveness_changed(s);
            state.trace.push(TraceEvent::SensorResumed {
                t: state.t,
                sensor: SensorId(s as u32),
            });
        }
    }
}

/// Samples new transient outages: each on-duty sensor is suspended with
/// probability `rate·dt/86400` for a uniformly sampled duration.
fn suspend_sensors(state: &mut WorldState, dt: f64) {
    let rate = state.cfg.faults.transients_per_day;
    if rate <= 0.0 {
        return;
    }
    let p = (rate * dt / 86_400.0).min(1.0);
    let (lo, hi) = state.cfg.faults.transient_outage_s;
    for s in 0..state.cfg.num_sensors {
        if state.sensors.suspended(s) || state.sensors.failed(s) || state.sensors.is_depleted(s) {
            continue;
        }
        if state.rng.gen_bool(p) {
            let outage = if hi > lo {
                state.rng.gen_range(lo..=hi)
            } else {
                lo
            };
            state.sensors.set_suspended(s, true);
            state.sensors.suspend_until[s] = state.t + outage.max(dt);
            state.transient_faults += 1;
            state.note_liveness_changed(s);
            state.trace.push(TraceEvent::SensorSuspended {
                t: state.t,
                sensor: SensorId(s as u32),
            });
        }
    }
}

/// Returns broken RVs whose repair completed to service. The repaired RV
/// wakes up `Idle` wherever it broke down; the normal phase machine then
/// either picks up new work or heads home.
fn repair_rvs(state: &mut WorldState) {
    for i in 0..state.rvs.len() {
        if let RvPhase::Broken { until_s } = state.rvs[i].phase {
            if state.t >= until_s {
                state.rvs[i].phase = RvPhase::Idle;
                state.trace.push(TraceEvent::RvRepaired {
                    t: state.t,
                    rv: state.rvs[i].id,
                });
            }
        }
    }
}

/// Samples RV breakdowns: each working vehicle fails with probability
/// `rate·dt/86400`. A breakdown abandons the active route — every
/// remaining stop goes back to the unassigned board and the dispatcher is
/// told to replan urgently around the shrunken fleet (§III-C's
/// notification/ack failure handling, applied to the charger side).
fn break_rvs(state: &mut WorldState, dt: f64) {
    let rate = state.cfg.faults.rv_breakdowns_per_day;
    if rate <= 0.0 {
        return;
    }
    let p = (rate * dt / 86_400.0).min(1.0);
    let (lo, hi) = state.cfg.faults.rv_repair_s;
    for i in 0..state.rvs.len() {
        if state.rvs[i].is_broken() {
            continue;
        }
        if state.rng.gen_bool(p) {
            let repair = if hi > lo {
                state.rng.gen_range(lo..=hi)
            } else {
                lo
            };
            let dropped = state.rvs[i].abandon_route();
            for &s in &dropped {
                state.board.unassign(s);
                // A released request just became unassigned: the
                // dispatch recovery pass must examine it (it may sit
                // above threshold after a partial charge).
                state.crossings.note_check(s.index());
            }
            state.rvs[i].phase = RvPhase::Broken {
                until_s: state.t + repair.max(dt),
            };
            state.rv_breakdowns += 1;
            if !dropped.is_empty() {
                // The dropped requests already passed the batch trigger
                // once; don't make them wait out the hysteresis again.
                state.replan_urgent = true;
            }
            state.trace.push(TraceEvent::RvBroke {
                t: state.t,
                rv: state.rvs[i].id,
                dropped_stops: dropped.len(),
            });
        }
    }
}

/// Attempts the §III-B release/ack uplink exchange for sensor `s` under
/// the configured loss model. Returns `true` when the request entered the
/// recharge node list.
///
/// With loss disabled this is exactly `board.release` (and draws no RNG).
/// With loss enabled, an exchange in backoff is skipped, a lost exchange
/// schedules a retransmit with capped exponential backoff, and a
/// successful one releases the request and resets the retry state.
///
/// Takes the state fields it needs separately so callers can hold other
/// `WorldState` borrows (e.g. the request-group arena) across the call.
pub(crate) fn uplink_release(
    faults: &FaultConfig,
    rng: &mut StdRng,
    board: &mut RequestBoard,
    trace: &mut Trace,
    uplink_drops: &mut u64,
    t: f64,
    s: SensorId,
) -> bool {
    if faults.uplink_loss <= 0.0 {
        board.release(s, t);
        return true;
    }
    if board.is_released(s) {
        return true; // already in the recharge node list
    }
    if !board.retry_due(s, t) {
        return false; // waiting out the backoff
    }
    if rng.gen_bool(faults.uplink_loss) {
        let attempt =
            board.note_uplink_drop(s, t, faults.uplink_backoff_s, faults.uplink_backoff_cap_s);
        *uplink_drops += 1;
        trace.push(TraceEvent::RequestDropped {
            t,
            sensor: s,
            attempt,
        });
        false
    } else {
        board.release(s, t);
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::{SimConfig, TraceEvent, World};

    fn tiny_cfg(days: f64) -> SimConfig {
        let mut cfg = SimConfig::small(days);
        cfg.num_sensors = 60;
        cfg.num_targets = 3;
        cfg.num_rvs = 2;
        cfg.field_side = 60.0;
        cfg
    }

    #[test]
    fn rv_breakdowns_degrade_but_do_not_stop_the_fleet() {
        let mut cfg = tiny_cfg(6.0);
        cfg.initial_soc = (0.3, 1.0);
        cfg.faults.rv_breakdowns_per_day = 2.0; // aggressive
        cfg.faults.rv_repair_s = (3_600.0, 4.0 * 3_600.0);
        let mut w = World::new(&cfg, 11);
        w.enable_trace(100_000);
        let out = w.run();
        assert!(out.rv_breakdowns > 0, "breakdowns should have occurred");
        assert!(
            out.report.recharged_mj > 0.0,
            "the degraded fleet must still deliver energy"
        );
        assert!(out.rv_energy_shortfall_j < 1.0);
        let broke = w
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::RvBroke { .. }))
            .count() as u64;
        let repaired = w
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::RvRepaired { .. }))
            .count() as u64;
        assert_eq!(broke, out.rv_breakdowns);
        // Every repair matches an earlier breakdown; at most one
        // outstanding breakdown per RV at the end.
        assert!(repaired <= broke && broke <= repaired + cfg.num_rvs as u64);
    }

    #[test]
    fn breakdown_returns_route_to_the_board() {
        // With constant breakdowns and one RV, requests dropped mid-tour
        // must be re-planned once the RV is repaired — nothing may be
        // lost, so every request eventually gets served or stays released.
        let mut cfg = tiny_cfg(8.0);
        cfg.num_rvs = 1;
        cfg.initial_soc = (0.25, 0.45);
        cfg.faults.rv_breakdowns_per_day = 4.0;
        cfg.faults.rv_repair_s = (1_800.0, 7_200.0);
        let out = World::new(&cfg, 3).run();
        assert!(out.rv_breakdowns > 0);
        assert!(out.plans > 1, "replanning should happen after breakdowns");
        assert!(out.report.recharged_mj > 0.0);
    }

    #[test]
    fn transient_faults_suspend_and_resume_sensors() {
        let mut cfg = tiny_cfg(4.0);
        cfg.faults.transients_per_day = 1.0;
        cfg.faults.transient_outage_s = (600.0, 3_600.0);
        let mut w = World::new(&cfg, 21);
        w.enable_trace(200_000);
        let out = w.run();
        assert!(out.transient_faults > 0, "transients should have occurred");
        // Batteries are untouched by suspension: no sensor died from the
        // outages alone on this healthy network.
        assert_eq!(out.deaths, 0);
        let suspended = w
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::SensorSuspended { .. }))
            .count() as u64;
        let resumed = w
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::SensorResumed { .. }))
            .count() as u64;
        assert_eq!(suspended, out.transient_faults);
        // Outages are bounded (≤ 1 h), so all but the last tick's faults
        // have resumed by the end of a 4-day run.
        assert!(resumed >= suspended.saturating_sub(cfg.num_sensors as u64));
    }

    #[test]
    fn lossy_uplink_retransmits_until_requests_get_through() {
        let mut cfg = tiny_cfg(6.0);
        cfg.initial_soc = (0.25, 0.45); // everyone wants a recharge
        cfg.faults.uplink_loss = 0.7; // drop most exchanges
        cfg.faults.uplink_backoff_s = 120.0;
        cfg.faults.uplink_backoff_cap_s = 1_800.0;
        let out = World::new(&cfg, 9).run();
        assert!(out.uplink_drops > 0, "losses should have occurred");
        assert!(
            out.report.recharged_mj > 0.0,
            "retransmits must eventually get requests through"
        );
        assert!(out.plans > 0);
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let cfg = tiny_cfg(2.0); // FaultConfig::none()
        let out = World::new(&cfg, 5).run();
        assert_eq!(out.rv_breakdowns, 0);
        assert_eq!(out.transient_faults, 0);
        assert_eq!(out.uplink_drops, 0);
    }
}
