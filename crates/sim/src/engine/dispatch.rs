//! Phase 4 — recharge request management and dispatch (§III-B, Algs. 2–4).
//!
//! Maintains the request board (threshold crossings become *pending*,
//! the §III-B ERC quorum turns a request group's pending requests into
//! *released* ones), decides when a dispatch wave is worth starting
//! ([`should_plan`]'s batch/age/critical hysteresis), and hands the
//! released demand to the configured [`RechargePolicy`] to turn into RV
//! routes.

use super::{faults, WorldState};
use wrsn_core::{ClusterId, RechargeRequest, RvState, ScheduleInput, SensorId};

/// Updates the request board from current battery states: recoveries
/// leave, threshold crossings enter, and the §III-B ERC quorum releases
/// aggregated group requests.
///
/// Event-driven (DESIGN.md §4j): instead of walking every sensor, the
/// scan examines only the *next-scan set* — due crossing predictions,
/// explicit re-check seeds, sensors whose relay load changed and
/// ungrouped requests retrying a lossy uplink. A pending grouped request
/// whose quorum is unmet is *parked* off the scan until a threshold flip
/// can change a recount. Any sensor outside the set takes no action (no
/// board writes, no RNG draws), so the result is byte-identical to
/// [`manage_requests_naive`], the retained full-scan oracle the
/// equivalence proptests diff against.
pub(crate) fn manage_requests(state: &mut WorldState) {
    if state.naive_dispatch {
        manage_requests_naive(state);
        return;
    }
    let thr = state.cfg.recharge_threshold_frac;
    let now = state.crossings.tick;
    state.crossings.tick = now + 1;
    let mut set = state.crossings.take_scan(now);

    // ---- One ascending pass over the set, a batch of ids at a time. Per
    // sensor it does the naive scan's recovery clear (only at/above
    // threshold) and crossing step (only below it), then parks, re-seeds
    // or re-predicts it. Both steps touch only that sensor's board
    // entries, so the recovery clears may run a batch ahead: that first
    // loop's independent loads overlap where the sensor arrays are out
    // of cache (a million sensors). Ascending order keeps the naive
    // scan's uplink RNG draw order. ----
    let mut dirty_groups = std::mem::take(&mut state.crossings.dirty_groups);
    let mut any_dirty = false;
    let mut flipped = false;
    let mut levels = [0.0; 64];
    set.drain(|batch| {
        let mut below = 0u64;
        for (i, &s32) in batch.iter().enumerate() {
            let s = s32 as usize;
            // Each level is read once.
            levels[i] = state.sensors.level_at(s);
            let soc = levels[i] / state.sensors.capacity[s];
            flipped |= state.crossings.rescan(s, soc < thr);
            if soc < thr && !state.sensors.failed(s) {
                below |= 1 << i;
            } else if soc >= thr && state.board.is_unassigned(SensorId(s32)) {
                // Assigned requests stay with their RV (it is already on
                // the way); only unassigned recoveries clear.
                state.board.clear(SensorId(s32));
            }
        }
        for (i, &s32) in batch.iter().enumerate() {
            let s = s32 as usize;
            if below >> i & 1 == 0 {
                predict_crossing(state, s, now, levels[i]);
                continue;
            }
            if state.sensors.suspended(s) {
                // A transiently-down sensor cannot transmit; its request
                // waits for the outage to end, which seeds it again.
                continue;
            }
            let id = SensorId(s32);
            state.board.mark_pending(id);
            if state.sensors.is_depleted(s) {
                // Base-station-side detection, no uplink involved.
                state.board.release(id, state.t);
            } else if state.board.is_pending(id) {
                match state.group_of[s] {
                    Some(gid) => {
                        // Parked until the recount below meets the
                        // quorum or a flip re-dirties the group.
                        dirty_groups.insert(gid as usize);
                        any_dirty = true;
                        state.crossings.parked.insert(s);
                    }
                    None => {
                        faults::uplink_release(
                            &state.cfg.faults,
                            &mut state.rng,
                            &mut state.board,
                            &mut state.trace,
                            &mut state.uplink_drops,
                            state.t,
                            id,
                        );
                        if state.board.is_pending(id) {
                            // Lost: retry on the naive scan's tick.
                            state.crossings.note_check(s);
                        }
                    }
                }
            }
        }
    });
    state.crossings.scan = set;

    // ---- A flip can turn any unmet recount into a met one, and every
    // parked sensor's group would be dirtied by the naive scan anyway:
    // recount them all. Without a flip they stay unmet and are skipped. ----
    if flipped {
        let group_of = &state.group_of;
        state.crossings.parked.for_each(|p| {
            if let Some(gid) = group_of[p] {
                dirty_groups.insert(gid as usize);
                any_dirty = true;
            }
        });
    }

    // ---- ERC quorum per dirty request group, in ascending id order like
    // the naive scan's sorted list (ids stay below 2n, see
    // `CrossingState::dirty_groups`). It writes only board, RNG and
    // trace state, which the re-predictions above never read. A met
    // quorum unparks its members, whichever group they are parked
    // under. ----
    if any_dirty {
        dirty_groups.drain(|gids| {
            for &gid in gids {
                let (start, len) = state.groups[gid as usize];
                let members = &state.group_arena[start as usize..(start + len) as usize];
                // Every sensor's `below` bit is its current threshold side
                // here: the scan above has just set it for the sensors
                // whose side can have moved since the last tick (a due
                // crossing prediction or a seed), and the invariant audit
                // holds every other sensor's to it. So the recount reads
                // bits, not lazy levels.
                let below = members
                    .iter()
                    .filter(|m| state.crossings.below_at_scan(m.index()))
                    .count();
                if state.erp.should_release(below, members.len()) {
                    for m in 0..len as usize {
                        let member = state.group_arena[start as usize + m];
                        state.crossings.unpark(member.index());
                        if state.crossings.below_at_scan(member.index())
                            && !state.sensors.failed(member.index())
                            && !state.sensors.suspended(member.index())
                        {
                            faults::uplink_release(
                                &state.cfg.faults,
                                &mut state.rng,
                                &mut state.board,
                                &mut state.trace,
                                &mut state.uplink_drops,
                                state.t,
                                member,
                            );
                        }
                    }
                }
            }
        });
    }
    state.crossings.dirty_groups = dirty_groups;
}

/// (Re)computes sensor `s`'s predicted threshold-crossing tick from its
/// *current* drain rate and its current `level` (as the scan read it),
/// and schedules it in [`super::CrossingState`]. Called for every
/// examined sensor that is not live and below threshold.
///
/// Safety of the estimate (DESIGN.md §4j): the power term is constant
/// until a seeded event changes the activity class or relay load, and the
/// self-discharge term uses the current level, which only decreases — so
/// `per_tick` never *under*-estimates a future tick's drain while the
/// prediction stands, and with the two-tick slack the sensor is always
/// re-examined at or before its true crossing. Early firings simply
/// re-predict. Rate *increases* are all seeded into the next-scan set by
/// their source events, whose re-prediction overwrites this one in `sched`.
fn predict_crossing(state: &mut WorldState, s: usize, now: u64, level: f64) {
    if state.sensors.failed(s) || state.sensors.suspended(s) {
        // Failed sensors never act again; suspended ones do not drain.
        // Resume seeds a re-check, which re-predicts.
        state.crossings.sched.schedule(s, u64::MAX);
        return;
    }
    let dt = state.cfg.tick_s;
    // Current since this tick's drain-phase refresh: nothing changes an
    // activity bit or a relay load between drain and dispatch.
    let mut per_tick = super::energy::to_j(state.sensors.tick_draw[s]);
    let sd = state.cfg.self_discharge_per_day;
    if sd > 0.0 {
        per_tick += level * sd * dt / 86_400.0;
    }
    if per_tick <= 0.0 {
        // Not draining at all: only a seeded rate raise can change that.
        state.crossings.sched.schedule(s, u64::MAX);
        return;
    }
    let thr = state.cfg.recharge_threshold_frac;
    // Non-negative: the sensor was just examined at/above threshold.
    let margin = level - thr * state.sensors.capacity[s];
    let ticks = margin / per_tick;
    // Two ticks of slack, floor at one (`as i64` saturates on huge/inf).
    let k = ((ticks as i64) - 2).max(1) as u64;
    let due = now.saturating_add(k).min(u64::MAX - 1);
    state.crossings.sched.schedule(s, due);
}

/// The historical full-scan request management, retained verbatim as the
/// differential oracle for [`manage_requests`] (and selectable with
/// [`crate::World::set_naive_dispatch`] — the equivalence proptests step
/// a naive and an event-driven world in lockstep and require
/// byte-identical snapshots).
pub(crate) fn manage_requests_naive(state: &mut WorldState) {
    let thr = state.cfg.recharge_threshold_frac;

    // Recovered sensors leave the board.
    for s in 0..state.cfg.num_sensors {
        let id = SensorId(s as u32);
        if state.sensors.soc(s) >= thr && state.board.is_released(id) {
            // Assigned requests stay with their RV (it is already on
            // the way); only unassigned recoveries clear.
            if state.board.is_unassigned(id) {
                state.board.clear(id);
            }
        }
    }

    // Threshold crossings become pending. Requests enter the recharge
    // node list through the request-group quorum below (§III-B).
    // Exceptions that release immediately: depleted sensors (the base
    // station notices the lost heartbeat, and a dead node cannot join
    // any quorum) and sensors that never belonged to a cluster (no
    // group to coordinate with — the prior-work rule applies). Merely
    // *low* sensors are NOT released early: per §III-C the framework
    // prioritizes them inside the recharge routes (the `critical`
    // flag) but still withholds the request, which is exactly why
    // large ERP values trade coverage for travel energy.
    // Reuse the per-tick dirty-group scratch buffer (taken out of the
    // state so the board/rng borrows below stay disjoint; put back at
    // the end of the function).
    let mut dirty_groups = std::mem::take(&mut state.group_scratch);
    dirty_groups.clear();
    for s in 0..state.cfg.num_sensors {
        if state.sensors.failed(s) {
            continue; // broken hardware: recharging cannot help
        }
        let id = SensorId(s as u32);
        let soc = state.sensors.soc(s);
        if soc < thr {
            if state.sensors.suspended(s) {
                // A transiently-down sensor cannot transmit; its request
                // waits for the outage to end. (Depletion is different:
                // the base station notices the lost heartbeat itself.)
                continue;
            }
            state.board.mark_pending(id);
            if state.sensors.is_depleted(s) {
                // Base-station-side detection, no uplink involved: a
                // dead node is released directly even under a lossy
                // uplink.
                state.board.release(id, state.t);
            } else if state.board.is_pending(id) {
                match state.group_of[s] {
                    Some(gid) => dirty_groups.push(gid),
                    None => {
                        faults::uplink_release(
                            &state.cfg.faults,
                            &mut state.rng,
                            &mut state.board,
                            &mut state.trace,
                            &mut state.uplink_drops,
                            state.t,
                            id,
                        );
                    }
                }
            }
        }
    }

    // ERC quorum per request group (§III-B): once the below-threshold
    // share of a sensor's stored member list reaches the ERP, every
    // below-threshold member sends its (aggregated) request.
    dirty_groups.sort_unstable();
    dirty_groups.dedup();
    for &gid in &dirty_groups {
        let (start, len) = state.groups[gid as usize];
        let members = &state.group_arena[start as usize..(start + len) as usize];
        let below = members
            .iter()
            .filter(|m| state.sensors.soc(m.index()) < thr)
            .count();
        if state.erp.should_release(below, members.len()) {
            for m in 0..len as usize {
                let member = state.group_arena[start as usize + m];
                if state.sensors.soc(member.index()) < thr
                    && !state.sensors.failed(member.index())
                    && !state.sensors.suspended(member.index())
                {
                    faults::uplink_release(
                        &state.cfg.faults,
                        &mut state.rng,
                        &mut state.board,
                        &mut state.trace,
                        &mut state.uplink_drops,
                        state.t,
                        member,
                    );
                }
            }
        }
    }
    state.group_scratch = dirty_groups;
}

/// Dispatch batching with hysteresis: a wave starts when the recharge
/// node list is worth a tour — accumulated demand reaches the batch
/// size, a request turned critical, or a request aged past the latency
/// bound — and keeps the planner live until the unassigned queue
/// drains, so RVs chain follow-up assignments from their field
/// positions instead of waiting for a fresh batch.
pub(crate) fn should_plan(state: &mut WorldState) -> bool {
    let mut demand = 0.0;
    let mut oldest = f64::INFINITY;
    let mut critical = false;
    for id in state.board.unassigned() {
        let s = id.index();
        let level = state.sensors.level_at(s);
        demand += state.sensors.capacity[s] - level;
        if state.dispatching && demand > 0.0 {
            // Mid-wave only whether any demand is left matters (the
            // deficits are never negative): the rest of the sum, the age
            // and the criticality are not read, and neither are the
            // remaining levels.
            break;
        }
        let rel = state.board.released_time(id);
        if rel.is_finite() {
            oldest = oldest.min(rel);
        }
        critical |= level / state.sensors.capacity[s] < state.cfg.critical_soc;
    }
    if demand <= 0.0 {
        state.dispatching = false;
        state.replan_urgent = false;
        return false;
    }
    if state.replan_urgent {
        // A fault (RV breakdown) forcibly returned assigned requests to
        // the board; they already earned a dispatch once, so skip the
        // batch hysteresis and replan around the shrunken fleet now.
        state.dispatching = true;
        state.replan_urgent = false;
    }
    if !state.dispatching
        && (critical
            || demand >= state.cfg.min_batch_demand_j
            || state.t - oldest >= state.cfg.max_request_age_s)
    {
        state.dispatching = true;
    }
    state.dispatching
}

/// Builds a [`ScheduleInput`] from the unassigned board and plannable
/// fleet, runs the configured policy, and commits the produced routes to
/// their RVs.
pub(crate) fn plan_routes(state: &mut WorldState) {
    let reserve = state.cfg.rv_model.battery_capacity_j * state.cfg.rv_model.low_battery_frac;
    let rv_states: Vec<RvState> = state
        .rvs
        .iter()
        .filter(|rv| rv.is_plannable() && !rv.needs_base(state.cfg.rv_model.low_battery_frac))
        .map(|rv| RvState {
            id: rv.id,
            position: rv.pos,
            available_energy: rv.plannable_energy(reserve),
        })
        .collect();
    if rv_states.is_empty() {
        return;
    }
    let requests: Vec<RechargeRequest> = state
        .board
        .unassigned()
        .map(|id| {
            let s = id.index();
            let level = state.sensors.level_at(s);
            RechargeRequest {
                sensor: id,
                position: state.sensor_pos[s],
                demand: state.sensors.capacity[s] - level,
                // The request group is the §IV-C aggregation unit: one
                // RV visit serves all of a group's released requests.
                cluster: state.group_of[s].map(ClusterId),
                critical: level / state.sensors.capacity[s] < state.cfg.critical_soc,
            }
        })
        .collect();
    if requests.is_empty() {
        return;
    }
    let input = ScheduleInput {
        requests,
        rvs: rv_states,
        base: state.base,
        cost_per_m: state.cfg.rv_model.move_j_per_m,
    };
    let routes = state.scheduler.plan(&input);
    debug_assert!(
        input.validate_plan(&routes).is_ok(),
        "scheduler produced invalid plan: {:?}",
        input.validate_plan(&routes)
    );
    // Index the fleet by id once; resolving each route with a linear
    // `find` made route commitment O(rvs²) per planning call.
    let rv_index: std::collections::HashMap<wrsn_core::RvId, usize> = state
        .rvs
        .iter()
        .enumerate()
        .map(|(i, a)| (a.id, i))
        .collect();
    let mut any = false;
    for route in &routes {
        if route.stops.is_empty() {
            continue;
        }
        let Some(agent) = rv_index.get(&route.rv).map(|&i| &mut state.rvs[i]) else {
            continue;
        };
        let stops: Vec<SensorId> = route
            .stops
            .iter()
            .map(|&i| input.requests[i].sensor)
            .collect();
        for &s in &stops {
            state.board.assign(s);
        }
        state.trace.push(crate::TraceEvent::Dispatch {
            t: state.t,
            rv: route.rv,
            stops: stops.len(),
            demand_j: input.route_demand(route),
        });
        agent.accept_route(stops);
        any = true;
    }
    if any {
        state.plans += 1;
    } else {
        // Nothing schedulable right now; don't thrash the planner.
        state.next_plan_ok = state.t + state.cfg.replan_cooldown_s;
    }
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
    fn initial_soc_below_threshold_triggers_requests_quickly() {
        let mut cfg = tiny_cfg(1.0);
        cfg.initial_soc = (0.2, 0.4); // everyone starts below the threshold
        cfg.activity.erp = Some(0.0);
        let out = World::new(&cfg, 2).run();
        assert!(
            out.plans > 0,
            "starting below threshold must trigger dispatch"
        );
        assert!(out.report.recharged_mj > 0.0);
    }

    #[test]
    fn healthy_network_dispatches_nothing() {
        let mut cfg = tiny_cfg(0.1); // a couple of hours: nobody crosses
        cfg.initial_soc = (1.0, 1.0);
        let out = World::new(&cfg, 2).run();
        assert_eq!(out.plans, 0);
        assert_eq!(out.report.recharge_visits, 0);
    }
}
