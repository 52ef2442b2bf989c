//! Whole-state consistency checker for the engine.
//!
//! [`check`] audits the cross-subsystem invariants no single phase can
//! guarantee alone: energy conservation on both the sensor and the fleet
//! side, request-board ↔ route ↔ phase agreement, the fault ledgers, and
//! the exact alive counter against a full recount.
//! [`crate::World::step`] runs it after every tick in debug builds (so
//! every unit/property test sweeps it across every configuration it
//! touches), the chaos property tests assert it explicitly, and
//! [`crate::World::check_invariants`] exposes it for release-mode tests.

use super::WorldState;
use crate::RvPhase;
use wrsn_core::SensorId;

/// Relative tolerance for the fleet's conservation sum: RV batteries stay
/// in floating point, and f64 accumulation over millions of draw/charge
/// events loses at most ~1 ulp per event. The sensor side is exact.
const REL_EPS: f64 = 1e-6;

/// Checks that above-threshold sensor `s`, outside the next dispatch
/// scan set, holds a crossing prediction no later than the first scan
/// that would find it below threshold at its current draw (see the scan
/// coverage audit in [`check`]).
fn verify_prediction(state: &WorldState, s: usize) -> Result<(), String> {
    let sensors = &state.sensors;
    if sensors.is_depleted(s)
        || sensors.failed(s)
        || sensors.suspended(s)
        || sensors.draw_stale.contains(s)
        || state.routing.load_event_pending(s + 1)
    {
        return Ok(());
    }
    let mut per_tick = super::energy::to_j(sensors.tick_draw[s]);
    let sd = state.cfg.self_discharge_per_day;
    if sd > 0.0 {
        per_tick += sensors.level_at(s) * sd * state.cfg.tick_s / 86_400.0;
    }
    if per_tick <= 0.0 {
        return Ok(());
    }
    let margin = sensors.level_at(s) - state.cfg.recharge_threshold_frac * sensors.capacity[s];
    // The next scan runs after one more drain, so the scan `k` ticks
    // after it sees `margin - (k + 1) · per_tick`, first negative at
    // `k = floor(margin / per_tick)` (`as u64` saturates).
    let latest = state
        .crossings
        .tick
        .saturating_add((margin / per_tick) as u64);
    let due = state.crossings.sched.due(s);
    if due > latest {
        return Err(format!(
            "sensor {s} drains {per_tick} J per tick with a late crossing prediction: \
             due at scan {due}, but it is below threshold by scan {latest}"
        ));
    }
    Ok(())
}

/// Audits the lazy battery levels: a lane is depleted exactly when its
/// base is 0, every live lane's depletion pass is the exact one, the
/// prediction chunk bounds hold, and the maintained live-draw sum equals
/// a recount.
fn verify_lazy_levels(state: &WorldState) -> Result<(), String> {
    let sensors = &state.sensors;
    if !sensors.lazy {
        return Ok(());
    }
    sensors.depletions.verify("depletion")?;
    let mut live_draw = 0i128;
    for s in 0..sensors.len() {
        let (base, since, d) = (sensors.base[s], sensors.since[s], sensors.tick_draw[s]);
        if (base > 0) != (sensors.level(s) > 0) {
            return Err(format!(
                "sensor {s} lazy level {} units disagrees with its base {base}",
                sensors.level(s)
            ));
        }
        let (due, want) = (
            sensors.depletions.due(s),
            super::energy::depletion_pass(base, since, d),
        );
        if due != want {
            return Err(format!(
                "sensor {s} (base {base} units at pass {since}, draw {d}) has depletion \
                 prediction {due}, not its depletion pass {want}"
            ));
        }
        live_draw += if base > 0 { d as i128 } else { 0 };
    }
    if live_draw != sensors.live_draw {
        return Err(format!(
            "live-draw sum {} units disagrees with a recount {live_draw}",
            sensors.live_draw
        ));
    }
    Ok(())
}

/// Verifies every engine invariant; returns a description of the first
/// violation.
pub(crate) fn check(state: &WorldState) -> Result<(), String> {
    let n = state.cfg.num_sensors;

    // --- Per-sensor state machine --------------------------------------
    for s in 0..n {
        let level = state.sensors.level_at(s);
        let capacity = state.sensors.capacity[s];
        if !(level.is_finite() && (0.0..=capacity + 1e-9).contains(&level)) {
            return Err(format!(
                "sensor {s} battery out of bounds: {level} of {capacity}"
            ));
        }
        if state.sensors.failed(s) && !state.sensors.is_depleted(s) {
            return Err(format!("failed sensor {s} still holds charge"));
        }
        if state.sensors.suspended(s) && !state.sensors.suspend_until[s].is_finite() {
            return Err(format!("suspended sensor {s} has no repair time"));
        }
        if !state.sensors.suspended(s) && !state.sensors.suspend_until[s].is_nan() {
            return Err(format!("sensor {s} has a stale suspension timer"));
        }
        let id = SensorId(s as u32);
        if state.board.is_assigned(id) && !state.board.is_released(id) {
            return Err(format!("sensor {s} assigned but never released"));
        }
        if state.board.uplink_attempts(id) > 0 {
            if state.board.is_released(id) {
                return Err(format!("sensor {s} released with a retry pending"));
            }
            if !state.board.retry_time(id).is_finite() {
                return Err(format!(
                    "sensor {s} lost its uplink but has no retransmit scheduled"
                ));
            }
        }
    }

    // --- Fleet phase machine vs. routes vs. board ----------------------
    let mut route_count = vec![0u32; n];
    for rv in &state.rvs {
        match rv.phase {
            RvPhase::ToStop(s) | RvPhase::Charging(s) => {
                if rv.route.front() != Some(&s) {
                    return Err(format!(
                        "{} phase targets {s} but route head is {:?}",
                        rv.id,
                        rv.route.front()
                    ));
                }
            }
            RvPhase::Idle | RvPhase::ToBase | RvPhase::SelfCharging | RvPhase::Broken { .. } => {
                if !rv.route.is_empty() {
                    return Err(format!(
                        "{} holds {} stops in a routeless phase {:?}",
                        rv.id,
                        rv.route.len(),
                        rv.phase
                    ));
                }
            }
        }
        for &s in &rv.route {
            route_count[s.index()] += 1;
            // A routed stop is claimed on the board, except a sensor that
            // permanently failed after planning (the fleet skips it on
            // arrival).
            if !state.board.is_assigned(s) && !state.sensors.failed(s.index()) {
                return Err(format!("{} routes unclaimed sensor {s}", rv.id));
            }
        }
        let b = &rv.battery;
        if !(b.level().is_finite() && (0.0..=b.capacity() + 1e-9).contains(&b.level())) {
            return Err(format!("{} battery out of bounds: {}", rv.id, b.level()));
        }
    }
    for (s, &count) in route_count.iter().enumerate() {
        if count > 1 {
            return Err(format!(
                "sensor {s} appears in {count} route slots (double assignment)"
            ));
        }
    }

    // --- Fault ledgers --------------------------------------------------
    let failed_now = (0..n).filter(|&s| state.sensors.failed(s)).count() as u64;
    if state.failures != failed_now {
        return Err(format!(
            "failure ledger {} disagrees with {} failed sensors",
            state.failures, failed_now
        ));
    }
    let depleted_now = (0..n).filter(|&s| state.sensors.was_depleted(s)).count() as u64;
    if state.deaths + state.failures < depleted_now {
        return Err(format!(
            "{} sensors are down but only {} deaths + {} failures were recorded",
            depleted_now, state.deaths, state.failures
        ));
    }
    let suspended_now = (0..n).filter(|&s| state.sensors.suspended(s)).count();
    if state.sensors.suspended_count() != suspended_now {
        return Err(format!(
            "suspended counter {} disagrees with {suspended_now} suspended flags",
            state.sensors.suspended_count()
        ));
    }

    // --- Drain-rate column (DESIGN.md §4j) ------------------------------
    // An entry may differ from its from-scratch value only while a
    // refresh mark says the next drain phase recomputes it: a changed
    // activity/suspension bit, or a queued relay-load event.
    let loads = state.routing.loads();
    for s in 0..n {
        let want = super::energy::tick_draw(&state.cfg, state.sensors.flags[s], loads[s + 1]);
        let have = state.sensors.tick_draw[s];
        if have != want
            && !state.sensors.draw_stale.contains(s)
            && !state.routing.load_event_pending(s + 1)
        {
            return Err(format!(
                "sensor {s} drain-rate column holds {have} units, not its from-scratch \
                 {want} units, with no refresh pending"
            ));
        }
    }

    // --- Lazy battery levels (DESIGN.md §4j) ----------------------------
    verify_lazy_levels(state)?;

    // --- Dispatch scan coverage (DESIGN.md §4j) -------------------------
    // The event-driven request scan must never let an *acting* sensor
    // escape examination: every below-threshold live sensor is in the
    // next-scan set, parked, released or suspended, and every recovered
    // (above-threshold, released, unassigned) request is in the set. An
    // unscheduled sensor's recorded threshold side is its current one
    // (no flip went unseen), and a parked sensor is a live, pending,
    // grouped request whose group's recount does not meet the quorum.
    // Only draw *rises* seed a re-check, so every other unscheduled live
    // sensor's standing crossing prediction must still fire by the first
    // scan that would find it below threshold at its current draw: the
    // predictor aims two ticks before that, and a missed rise shows up
    // as a prediction past it. Sensors whose column entry awaits the
    // next drain-phase refresh are exempt (that refresh seeds a rise).
    // The scan state must also be sound: the bit sets well formed, no
    // crossing prediction expired past the last scan, and no chunk bound
    // above its chunk's earliest prediction. Skipped in naive-dispatch
    // oracle mode, where the full scan needs no bookkeeping.
    if !state.naive_dispatch {
        state.crossings.verify()?;
        let thr = state.cfg.recharge_threshold_frac;
        for s in 0..n {
            let id = SensorId(s as u32);
            let below = state.sensors.soc(s) < thr;
            if state.crossings.scheduled(s) {
                continue; // the next scan unparks and re-examines it
            }
            if state.crossings.parked(s) {
                verify_parked(state, s)?;
            } else if below
                && !state.sensors.failed(s)
                && !state.board.is_released(id)
                && !state.sensors.suspended(s)
            {
                return Err(format!(
                    "sensor {s} is below the request threshold but not in the \
                     next dispatch scan set, parked, released or suspended"
                ));
            }
            if !below && state.board.is_unassigned(id) {
                return Err(format!(
                    "sensor {s} is a recovered unassigned request but not in the \
                     next dispatch scan set"
                ));
            }
            if state.crossings.below_at_scan(s) != below {
                return Err(format!(
                    "sensor {s} crossed the request threshold without a dispatch \
                     re-check"
                ));
            }
            if !below {
                verify_prediction(state, s)?;
            }
        }
    }

    // --- Request groups (§III-A member lists) ---------------------------
    // Every stored group id resolves, every member span lies inside the
    // arena, and compaction keeps the group count bounded by 2n after
    // every refresh (a refresh appends at most one group per cluster,
    // then compacts when past 2n).
    if let Some(g) = state
        .group_of
        .iter()
        .flatten()
        .find(|&&g| g as usize >= state.groups.len())
    {
        return Err(format!(
            "request group id {g} is out of range of {} groups",
            state.groups.len()
        ));
    }
    if let Some(&(start, len)) = state
        .groups
        .iter()
        .find(|&&(start, len)| start as usize + len as usize > state.group_arena.len())
    {
        return Err(format!(
            "request group span {start}+{len} runs past the {}-entry arena",
            state.group_arena.len()
        ));
    }
    if state.groups.len() > 2 * n {
        return Err(format!(
            "{} request groups exceed the compaction bound {}",
            state.groups.len(),
            2 * n
        ));
    }

    // --- Alive counter vs. full recount ---------------------------------
    let alive = state.sensors.count_alive();
    if state.alive != alive {
        return Err(format!(
            "alive counter {} != {alive} non-depleted batteries",
            state.alive
        ));
    }

    // --- Routing tree vs. naive oracle ----------------------------------
    // The incremental tree/loads half of the contract (DESIGN.md §4f).
    verify_routing(state)?;

    // --- Energy conservation -------------------------------------------
    // Sensors, exactly: stored(t) = stored(0) − drained −
    // lost-to-hw-failure + delivered-by-RVs.
    let stored: i128 = (0..n).map(|s| state.sensors.level(s) as i128).sum();
    let expected =
        state.initial_sensor - state.total_drained - state.failure_lost + state.total_delivered;
    if stored != expected {
        return Err(format!(
            "sensor energy not conserved: stored {stored} units vs expected {expected} units"
        ));
    }
    // Fleet: stored(t) = stored(0) + base-station input − drawn (travel +
    // transfer source energy actually supplied).
    let fleet: f64 = state.rvs.iter().map(|rv| rv.battery.level()).sum();
    let fleet_expected = state.initial_fleet_j + state.rv_input_j - state.rv_drawn_j;
    let fleet_scale = 1.0 + state.initial_fleet_j + state.rv_input_j + state.rv_drawn_j;
    if (fleet - fleet_expected).abs() > REL_EPS * fleet_scale {
        return Err(format!(
            "fleet energy not conserved: stored {fleet} J vs expected {fleet_expected} J"
        ));
    }

    Ok(())
}

/// Audits parked sensor `s`: a live, pending request of a request group
/// whose quorum recount is unmet, so skipping its scan cannot skip an
/// action (DESIGN.md §4j).
fn verify_parked(state: &WorldState, s: usize) -> Result<(), String> {
    let thr = state.cfg.recharge_threshold_frac;
    let sensors = &state.sensors;
    if sensors.soc(s) >= thr
        || sensors.failed(s)
        || sensors.suspended(s)
        || sensors.is_depleted(s)
        || !state.board.is_pending(SensorId(s as u32))
    {
        return Err(format!(
            "parked sensor {s} is not a live pending below-threshold request"
        ));
    }
    let group = state.group_of[s].and_then(|g| Some((g, *state.groups.get(g as usize)?)));
    let Some((gid, (start, len))) = group else {
        return Err(format!("parked sensor {s} has no request group"));
    };
    let members = &state.group_arena[start as usize..(start + len) as usize];
    let below = members
        .iter()
        .filter(|m| sensors.soc(m.index()) < thr)
        .count();
    if state.erp.should_release(below, members.len()) {
        return Err(format!(
            "parked sensor {s} waits on request group {gid}, whose quorum is met"
        ));
    }
    Ok(())
}

/// Differential audit of the event-incremental routing tree against the
/// naive pipeline (DESIGN.md §4f). Two layers, gated on the pending
/// dirty work:
///
/// * Unless a full rebuild is pending (snapshot resume restores the
///   last-refresh loads over a freshly rebuilt tree, which is only
///   reconciled at the next refresh), the tree must verify against its
///   *own* enabled/generator sets — a from-scratch canonical Dijkstra +
///   count fold, demanded bitwise.
/// * When *no* work is pending at all, the tree's inputs must also match
///   ground truth: enabled == on-duty, generators == stored active
///   flags, and the flags themselves must equal the wholesale activity
///   recompute. Combined with layer one this pins the maintained loads
///   to exactly what the historical naive refresh would have produced.
pub(crate) fn verify_routing(state: &WorldState) -> Result<(), String> {
    if !state.routing_dirty.is_full() {
        state
            .routing
            .verify(&state.graph)
            .map_err(|e| format!("routing tree: {e}"))?;
    }
    if state.routing_dirty.any() {
        return Ok(());
    }
    let n = state.cfg.num_sensors;
    for s in 0..n {
        let on = state.on_duty(SensorId(s as u32));
        if state.routing.enabled(s + 1) != on {
            return Err(format!(
                "routing node {} enabled bit {} != on-duty {on} with no dirty work pending",
                s + 1,
                state.routing.enabled(s + 1)
            ));
        }
        if state.routing.generator(s + 1) != state.sensors.active(s) {
            return Err(format!(
                "routing node {} generator bit {} != active flag with no dirty work pending",
                s + 1,
                state.routing.generator(s + 1)
            ));
        }
    }
    let (active, dormant) = super::activity::naive_activity(state);
    for s in 0..n {
        if state.sensors.active(s) != active[s] || state.sensors.dormant(s) != dormant[s] {
            return Err(format!(
                "sensor {s} activity flags (active {}, dormant {}) diverged from the \
                 wholesale recompute (active {}, dormant {})",
                state.sensors.active(s),
                state.sensors.dormant(s),
                active[s],
                dormant[s]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorldState;
    use crate::SimConfig;

    fn tiny_state() -> WorldState {
        let mut cfg = SimConfig::small(1.0);
        cfg.num_sensors = 40;
        cfg.num_targets = 2;
        cfg.num_rvs = 2;
        cfg.field_side = 50.0;
        WorldState::new(&cfg, 7)
    }

    #[test]
    fn fresh_state_passes() {
        let state = tiny_state();
        check(&state).unwrap();
    }

    #[test]
    fn corrupted_energy_ledger_is_caught() {
        let mut state = tiny_state();
        state.total_drained += 1; // books claim a nanojoule that never left
        assert!(check(&state).unwrap_err().contains("not conserved"));
    }

    #[test]
    fn phase_route_mismatch_is_caught() {
        let mut state = tiny_state();
        state.rvs[0].phase = crate::RvPhase::ToStop(wrsn_core::SensorId(3));
        assert!(check(&state).unwrap_err().contains("route head"));
    }

    #[test]
    fn stale_suspension_timer_is_caught() {
        let mut state = tiny_state();
        state.sensors.suspend_until[5] = 100.0; // timer without the suspended flag
        assert!(check(&state).unwrap_err().contains("stale suspension"));
    }

    #[test]
    fn corrupted_routing_generator_is_caught() {
        let mut state = tiny_state();
        // Flip one stored active flag without telling the tree: the
        // generator/flag comparison (or the wholesale-activity oracle)
        // must notice.
        let s = (0..state.cfg.num_sensors)
            .find(|&s| state.sensors.active(s))
            .expect("a fresh world has at least one active sensor");
        state.sensors.set_active(s, false);
        assert!(check(&state).is_err());
    }

    /// `tiny_state` after `passes` lazy drain phases.
    fn drained_state(passes: usize) -> WorldState {
        let mut state = tiny_state();
        let dt = state.cfg.tick_s;
        for _ in 0..passes {
            crate::engine::energy::drain_sensors(&mut state, dt);
        }
        state
    }

    #[test]
    fn stale_live_draw_sum_is_caught() {
        let mut state = drained_state(3);
        check(&state).unwrap();
        // A sum that moved without a lane.
        state.sensors.live_draw += 1;
        assert!(check(&state).unwrap_err().contains("live-draw sum"));
    }

    #[test]
    fn stale_lazy_lane_stamp_is_caught() {
        let mut state = drained_state(5);
        check(&state).unwrap();
        // A lane stamped at the current pass without being materialized:
        // its level reads as if the last five passes drew nothing.
        let s = (0..state.cfg.num_sensors)
            .find(|&s| state.sensors.tick_draw[s] > 0 && state.sensors.since[s] == 0)
            .expect("a drawing lane stamped at pass 0");
        state.sensors.since[s] = state.sensors.pass;
        assert!(check(&state)
            .unwrap_err()
            .contains("not its depletion pass"));
    }

    #[test]
    fn late_depletion_prediction_is_caught() {
        let mut state = drained_state(2);
        let s = 4;
        let d = state.sensors.tick_draw[s];
        assert!(d > 1);
        // Sensor 4 at half its draw depletes at the next pass, and its
        // prediction says so…
        state.total_drained += (state.sensors.level(s) - d / 2) as i128;
        state.sensors.set_level(s, d / 2);
        check(&state).unwrap();
        let mut next = state.sensors.pass + 1;
        assert_eq!(state.sensors.depletions.due(s), next);
        // …one moved past that pass is late.
        next += 1;
        state.sensors.depletions.schedule(s, next);
        assert!(check(&state)
            .unwrap_err()
            .contains("not its depletion pass"));
    }

    #[test]
    fn unmarked_drain_rate_column_entry_is_caught() {
        let mut state = tiny_state();
        crate::engine::energy::refresh_draws(&mut state);
        check(&state).unwrap();
        // A stale entry with a pending mark is the refresh's to fix…
        state.sensors.set_draw(4, 2 * state.sensors.tick_draw[4]);
        state.sensors.draw_stale.insert(4);
        check(&state).unwrap();
        crate::engine::energy::refresh_draws(&mut state);
        check(&state).unwrap();
        // …one without a mark is a missed refresh.
        state.sensors.set_draw(4, 2 * state.sensors.tick_draw[4]);
        assert!(check(&state)
            .unwrap_err()
            .contains("sensor 4 drain-rate column"));
    }

    #[test]
    fn expired_crossing_prediction_is_caught() {
        let mut state = tiny_state();
        crate::engine::dispatch::manage_requests(&mut state);
        state.crossings.sched.due[4] = 0; // due before the scan that just ran
        assert!(check(&state).unwrap_err().contains("past scan tick"));
    }

    #[test]
    fn crossing_chunk_bound_above_prediction_is_caught() {
        let mut state = tiny_state();
        state.crossings.sched.due[4] = 10; // scheduled without lowering the bound
        assert!(check(&state).unwrap_err().contains("chunk 0 bound"));
    }

    #[test]
    fn unscheduled_below_threshold_sensor_is_caught() {
        let mut state = tiny_state();
        crate::engine::dispatch::manage_requests(&mut state);
        // Drop sensor 4 below threshold without an event that seeds it.
        let s = 4;
        assert!(
            !state.crossings.scheduled(s),
            "fresh sensors are above threshold"
        );
        let low = crate::engine::energy::to_units(
            0.1 * state.cfg.recharge_threshold_frac * state.sensors.capacity[s],
        );
        state.sensors.set_level(s, low);
        assert!(check(&state)
            .unwrap_err()
            .contains("below the request threshold"));
    }

    #[test]
    fn late_crossing_prediction_is_caught() {
        let mut state = tiny_state();
        crate::engine::energy::refresh_draws(&mut state);
        crate::engine::dispatch::manage_requests(&mut state);
        check(&state).unwrap();
        // Stand in for a draw rise that seeded nothing: sensor 4's
        // prediction moves past the scan at which its current draw takes
        // it below threshold.
        let s = 4;
        assert!(!state.crossings.scheduled(s) && state.sensors.tick_draw[s] > 0);
        state.crossings.sched.due[s] = u64::MAX - 1;
        assert!(check(&state).unwrap_err().contains("sensor 4 drains"));
    }

    #[test]
    fn threshold_crossing_without_a_seed_is_caught() {
        let mut state = tiny_state();
        crate::engine::dispatch::manage_requests(&mut state);
        // Move sensor 4 below threshold without a seed, but make it a
        // released request so only the recorded threshold side is stale.
        let s = 4;
        assert!(!state.crossings.scheduled(s));
        let low = crate::engine::energy::to_units(
            0.1 * state.cfg.recharge_threshold_frac * state.sensors.capacity[s],
        );
        state.sensors.set_level(s, low);
        state.board.release(SensorId(s as u32), state.t);
        assert!(check(&state)
            .unwrap_err()
            .contains("crossed the request threshold without a dispatch re-check"));
    }

    #[test]
    fn parked_sensor_with_met_quorum_is_caught() {
        let mut state = tiny_state();
        state.erp = wrsn_core::ErpController::new(1.0);
        crate::engine::dispatch::manage_requests(&mut state);
        // Drop one member of a two-plus-member group below threshold and
        // seed it, as a drain crossing would: at K = 1 its group's
        // quorum is unmet, so the scan parks it.
        let s = (0..state.cfg.num_sensors)
            .find(|&s| state.group_of[s].is_some_and(|g| state.groups[g as usize].1 >= 2))
            .expect("a fresh world has a multi-member request group");
        let low = crate::engine::energy::to_units(
            0.1 * state.cfg.recharge_threshold_frac * state.sensors.capacity[s],
        );
        state.total_drained += (state.sensors.level(s) - low) as i128;
        state.sensors.set_level(s, low);
        state.crossings.note_check(s);
        crate::engine::dispatch::manage_requests(&mut state);
        assert!(state.crossings.parked(s) && !state.crossings.scheduled(s));
        check(&state).unwrap();
        // Lowering the ERP meets the quorum without any flip or seed.
        state.erp = wrsn_core::ErpController::new(0.0);
        assert!(check(&state).unwrap_err().contains("whose quorum is met"));
    }

    #[test]
    fn out_of_range_request_group_is_caught() {
        let mut state = tiny_state();
        let s = (0..state.cfg.num_sensors)
            .find(|&s| state.group_of[s].is_some())
            .expect("a fresh world has clustered sensors");
        state.group_of[s] = Some(state.groups.len() as u32);
        assert!(check(&state).unwrap_err().contains("out of range"));
    }

    #[test]
    fn failure_ledger_mismatch_is_caught() {
        let mut state = tiny_state();
        state.failures = 3; // ledger says 3, no sensor is marked failed
        assert!(check(&state).unwrap_err().contains("failure ledger"));
    }
}
