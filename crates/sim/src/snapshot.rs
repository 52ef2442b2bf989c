//! Durable, versioned world snapshots: save a running [`crate::World`] at
//! any tick and resume it **byte-identically** later — possibly in another
//! process, after a crash, or on another machine of the same architecture.
//!
//! # Format
//!
//! A snapshot is a flat little-endian binary blob in the crate's
//! [`crate::codec`]:
//!
//! ```text
//! [ MAGIC "WRSNSNAP" | VERSION u32 | config_hash u64 ]   header
//! [ SimConfig (its field list below)                 ]   config
//! [ seed u64 | rng [u64;4] | t f64 | mutable state…  ]   world
//! ```
//!
//! Each record's field list below is its wire format: `codec_struct!` and
//! `codec_enum!` emit the encoder and the decoder from the one list, so
//! the two cannot drift apart. Editing a list changes the bytes, so it
//! needs a `VERSION` bump and a new golden fixture. The world state keeps
//! a hand-ordered struct-of-arrays layout in `encode`/`decode`, built
//! from the same `put`/`get` calls.
//!
//! Every `f64` is stored as its IEEE-754 bit pattern (`to_bits`), so NaN
//! sentinels (e.g. `suspend_until`, the board's `retry_at`) and
//! denormals round-trip exactly. Decoding re-derives everything that is a
//! pure function of the config + stored state instead of storing it:
//! the field/base geometry, the communication graph (deterministic from
//! sensor positions), the ERP controller, the scheduler (rebuilt from the
//! stored `seed` — the only seeded policy, Partition, keeps nothing but
//! its seed), the incremental coverage cache (rebuilt from ground
//! truth; its reads are always recount-exact, so a fresh cache continues
//! identically to a dirty one), the cluster-repair baseline (a pure
//! function of the sensor positions and the restored target anchors),
//! and the event-incremental routing tree (a pure function of the
//! restored enabled/generator sets — only its maintained loads and the
//! one pending-refresh bit are stored).
//!
//! Decoding validates everything later code indexes or asserts on:
//! sensor and target positions inside the field, sensor/cluster/group ids
//! in range, RV ids in fleet order, group spans inside their arena,
//! finite non-decreasing metric series and non-negative counters. Damaged
//! bytes end in a [`SnapshotError`], never a panic.
//!
//! The continuation guarantee — run to tick `T`, snapshot, resume, run to
//! `T+N` produces bit-identical traces, metrics and ledgers to an
//! uninterrupted run to `T+N` — is pinned by
//! `crates/sim/tests/snapshot_properties.rs` in both debug and release
//! profiles and by the unit tests below; `golden_fixtures.rs` pins the
//! bytes against a committed fixture, and `snapshot_fuzz.rs` flips every
//! bit of it. Versioning is strict: a snapshot written by a different
//! `VERSION` is rejected, never reinterpreted.

use crate::codec::{codec_enum, codec_struct, ensure, fnv1a, Codec, Dec, Enc, Result};
use crate::engine::mobility::RepairState;
use crate::engine::{self, RoutingDirty, SensorSoA, WorldState};
use crate::frame;
use crate::{
    ActivityConfig, FaultConfig, RequestBoard, RvAgent, RvPhase, SimConfig, TargetMobility, Trace,
    TraceEvent,
};
use rand::rngs::StdRng;
use wrsn_core::{
    Cluster, ClusterId, ClusterSet, CoverageMap, ErpController, RoundRobinRota, SchedulerKind,
    SensorId,
};
use wrsn_energy::{
    Battery, ChargeModel, DetectorModel, RadioModel, RvEnergyModel, SensorEnergyProfile,
};
use wrsn_geom::{Deployment, Field, Point2};
use wrsn_metrics::{EvalMetrics, TimeSeries};
use wrsn_net::{CommGraph, DynamicRoutingTree, TrafficLoad};

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"WRSNSNAP";
/// Current snapshot format version. Bumped on any encoding change; old
/// versions are rejected, not migrated.
pub const VERSION: u32 = 1;

/// Why a snapshot (or a framed record, [`crate::frame`]) could not be
/// decoded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The blob ended before the expected data did.
    Truncated,
    /// The leading bytes are not [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion(
        /// The version found in the header.
        u32,
    ),
    /// Structurally invalid content (bad enum tag, inconsistent lengths,
    /// header hash that doesn't match the embedded config, …).
    Corrupt(String),
    /// Filesystem error from the path-based helpers.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::BadMagic => write!(f, "not a WRSN snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {VERSION})"
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

// --- Field lists (each one is its record's wire format) ------------------

// The config's encoding is also the canonical input of `content_hash`.
// Population sizes and the packet size are `usize`, i.e. plain counts:
// a config is often the last thing in a payload (a wire `Assign`'s final
// job), where 500 sensors legitimately exceed the bytes that follow.
codec_struct! {
    SimConfig {
        num_sensors, num_targets, num_rvs, field_side, comm_range, sensing_range,
        duration_s, target_period_s, target_mobility, deployment,
        recharge_threshold_frac, critical_soc, data_rate_pps, watch_duty,
        sensor_profile, battery_capacity_j, initial_soc, charge_model,
        permanent_failures_per_day, self_discharge_per_day, rv_model,
        base_charge_power_w, activity, scheduler, faults, slot_s, tick_s,
        replan_cooldown_s, min_batch_demand_j, max_request_age_s, sample_every_s,
        duration_days,
    }
    SensorEnergyProfile { radio, detector, packet_bytes }
    RadioModel { voltage, idle_a, tx_a, rx_a, bitrate_bps }
    DetectorModel { voltage, active_a, idle_a }
    ChargeModel { taper_start, min_accept }
    RvEnergyModel {
        move_j_per_m, speed_mps, charge_power_w, transfer_efficiency,
        battery_capacity_j, low_battery_frac,
    }
    ActivityConfig { round_robin, erp }
    FaultConfig {
        rv_breakdowns_per_day, rv_repair_s, uplink_loss, uplink_backoff_s,
        uplink_backoff_cap_s, transients_per_day, transient_outage_s,
    }
    RvAgent { id, pos, battery, route, phase, distance_traveled_m, phase_time_s }
    Cluster { target, members }
    TrafficLoad { tx_pps, rx_pps }
}

codec_enum! { TargetMobility, "mobility";
    0 => RandomTeleport, 1 => RandomWaypoint { speed_mps }, 2 => Static,
}
codec_enum! { Deployment, "deployment"; 0 => UniformRandom, 1 => Grid, 2 => Hex, 3 => Jittered }
codec_enum! { SchedulerKind, "scheduler";
    0 => Greedy, 1 => Insertion, 2 => Partition, 3 => Combined, 4 => Savings, 5 => Deadline,
}
codec_enum! { RvPhase, "RV phase";
    0 => Idle, 1 => ToStop(s), 2 => Charging(s), 3 => ToBase, 4 => SelfCharging,
    5 => Broken { until_s },
}
codec_enum! { TraceEvent, "trace-event";
    0 => Dispatch { t, rv, stops, demand_j },
    1 => ServiceDone { t, rv, sensor },
    2 => SensorDepleted { t, sensor },
    3 => SensorRevived { t, sensor },
    4 => ClustersRebuilt { t, clusters },
    5 => SensorFailed { t, sensor },
    6 => RvBroke { t, rv, dropped_stops },
    7 => RvRepaired { t, rv },
    8 => SensorSuspended { t, sensor },
    9 => SensorResumed { t, sensor },
    10 => RequestDropped { t, sensor, attempt },
}

// --- Hand-written records (their decode checks more than the shape) ------

impl Codec for Battery {
    fn put(&self, e: &mut Enc) {
        e.put(&self.capacity())
            .put(&self.level())
            .put(&self.charge_model());
    }
    fn get(d: &mut Dec) -> Result<Self> {
        let (capacity, level, model): (f64, f64, ChargeModel) = (d.get()?, d.get()?, d.get()?);
        ensure(
            capacity.is_finite() && capacity > 0.0 && (0.0..=capacity).contains(&level),
            || format!("battery level {level} outside [0, {capacity}]"),
        )?;
        Ok(Battery::with_level(capacity, level).with_charge_model(model))
    }
}

impl Codec for TimeSeries {
    fn put(&self, e: &mut Enc) {
        e.seq(self.times().iter());
        e.seq(self.values().iter());
    }
    fn get(d: &mut Dec) -> Result<Self> {
        let (times, values): (Vec<f64>, Vec<f64>) = d.get()?;
        ensure(
            times.len() == values.len()
                && times.iter().chain(&values).all(|v| v.is_finite())
                && times.windows(2).all(|w| w[0] <= w[1]),
            || "time series is not finite, paired and non-decreasing".into(),
        )?;
        Ok(TimeSeries::from_samples(times, values))
    }
}

impl Codec for EvalMetrics {
    fn put(&self, e: &mut Enc) {
        e.put(&self.travel_distance_m())
            .put(&self.travel_energy_j())
            .put(&self.recharged_j())
            .put(&self.recharge_visits())
            .put(self.coverage_series())
            .put(self.nonfunctional_series())
            .put(self.operational_series());
    }
    fn get(d: &mut Dec) -> Result<Self> {
        let [distance, energy, recharged]: [f64; 3] = d.get()?;
        ensure(distance >= 0.0 && energy >= 0.0 && recharged >= 0.0, || {
            "negative metric counter".into()
        })?;
        let visits = d.get()?;
        let (coverage, nonfunctional, operational) = (d.get()?, d.get()?, d.get()?);
        Ok(EvalMetrics::restore(
            distance,
            energy,
            recharged,
            visits,
            coverage,
            nonfunctional,
            operational,
        ))
    }
}

impl Codec for RoundRobinRota {
    fn put(&self, e: &mut Enc) {
        e.seq(self.members().iter());
        e.put(&self.cursor());
    }
    fn get(d: &mut Dec) -> Result<Self> {
        let (members, cursor): (Vec<SensorId>, usize) = d.get()?;
        ensure(
            cursor < members.len() && members.windows(2).all(|w| w[0] < w[1]),
            || format!("rota cursor {cursor} invalid for {} members", members.len()),
        )?;
        Ok(RoundRobinRota::restore(members, cursor))
    }
}

impl Codec for Trace {
    fn put(&self, e: &mut Enc) {
        e.put(&self.is_enabled())
            .put(&self.cap())
            .put(&self.dropped());
        e.seq(self.events().iter());
    }
    fn get(d: &mut Dec) -> Result<Self> {
        let (enabled, cap, dropped): (bool, usize, u64) = (d.get()?, d.get()?, d.get()?);
        let events: Vec<TraceEvent> = d.get()?;
        let n = events.len();
        ensure(if enabled { n <= cap } else { n == 0 }, || {
            format!("{n} trace events for cap {cap} (enabled: {enabled})")
        })?;
        Ok(Trace::restore(events, enabled, cap, dropped))
    }
}

/// FNV-1a 64 over `v`'s canonical encoding: equal values hash equal across
/// processes and runs, and any field change — including inside nested
/// models — changes the hash. Behind [`SimConfig::content_hash`] and
/// [`FaultConfig::content_hash`].
pub(crate) fn content_hash<T: Codec>(v: &T) -> u64 {
    let mut e = Enc::new();
    v.put(&mut e);
    fnv1a(&e.buf)
}

// --- World state codec ---------------------------------------------------

/// Serializes the full mutable world state (derived state is re-derived on
/// decode; see the module docs).
pub(crate) fn encode(state: &WorldState) -> Vec<u8> {
    let mut e = Enc::new();
    e.buf.extend_from_slice(&frame::header(MAGIC, VERSION));
    // The SoA sensor columns keep the byte layout of the per-sensor
    // vectors they replaced: a length prefix, then one entry per sensor.
    let (sensors, n) = (&state.sensors, state.sensors.len());
    let flags = |e: &mut Enc, flag: fn(&SensorSoA, usize) -> bool| {
        e.len(n);
        (0..n).for_each(|s| e.u8(flag(sensors, s) as u8));
    };
    e.put(&content_hash(&state.cfg)).put(&state.cfg);
    e.put(&state.seed).put(&state.rng.state()).put(&state.t);
    e.put(&state.sensor_pos).len(n);
    (0..n).for_each(|s| sensors.battery(s).put(&mut e));
    flags(&mut e, SensorSoA::was_depleted);
    e.put(&state.target_pos)
        .put(&state.target_next_move)
        .put(&state.target_waypoint)
        .put(&state.target_anchor);
    e.seq(state.clusters.clusters().iter());
    e.put(&state.assignment)
        .put(&state.rotas)
        .put(&state.next_slot);
    e.put(&state.group_of)
        .put(&state.groups)
        .put(&state.group_arena);
    e.seq(state.routing.loads().iter());
    flags(&mut e, SensorSoA::active);
    flags(&mut e, SensorSoA::dormant);
    // The queued dirty events collapse to one bit: decode turns it back
    // into a pending full refresh, which subsumes any finer-grained set.
    e.put(&state.routing_dirty.any());
    let (pending, released, assigned, released_at, attempts, retry_at) = state.board.raw();
    for column in [pending, released, assigned] {
        e.seq(column.iter());
    }
    e.seq(released_at.iter());
    e.seq(attempts.iter());
    e.seq(retry_at.iter());
    e.put(&state.next_plan_ok)
        .put(&state.dispatching)
        .put(&state.rvs)
        .put(&state.metrics);
    e.put(&state.next_sample)
        .put(&state.total_drained_j)
        .put(&state.total_delivered_j)
        .put(&state.deaths)
        .put(&state.plans)
        .put(&state.rv_shortfall_j);
    flags(&mut e, SensorSoA::failed);
    e.put(&state.failures).put(&state.trace);
    flags(&mut e, SensorSoA::suspended);
    e.put(&sensors.suspend_until)
        .put(&state.transient_faults)
        .put(&state.rv_breakdowns)
        .put(&state.uplink_drops)
        .put(&state.replan_urgent);
    e.put(&state.initial_sensor_j)
        .put(&state.failure_lost_j)
        .put(&state.initial_fleet_j)
        .put(&state.rv_input_j)
        .put(&state.rv_drawn_j);
    e.buf
}

/// `v`, if it holds exactly `n` entries.
fn sized<T>(v: Vec<T>, n: usize, what: &str) -> Result<Vec<T>> {
    ensure(v.len() == n, || {
        format!("{what} holds {} entries, expected {n}", v.len())
    })?;
    Ok(v)
}

/// Decodes a snapshot back into a world state, rebuilding derived state
/// (geometry, comm graph, cluster-repair baseline, ERP controller,
/// scheduler, coverage cache).
pub(crate) fn decode(bytes: &[u8]) -> Result<WorldState> {
    frame::check_header(bytes, MAGIC, VERSION)?;
    let mut d = Dec::new(&bytes[frame::HEADER_LEN..]);
    let stored_hash: u64 = d.get()?;
    let cfg: SimConfig = d.get()?;
    let actual_hash = content_hash(&cfg);
    ensure(stored_hash == actual_hash, || {
        format!("header config hash {stored_hash:#018x} != embedded config's {actual_hash:#018x}")
    })?;
    let (n, m) = (cfg.num_sensors, cfg.num_targets);

    let seed = d.get()?;
    let rng = StdRng::from_state(d.get()?);
    let t = d.get()?;

    let sensor_pos: Vec<Point2> = sized(d.get()?, n, "sensor positions")?;
    let batteries: Vec<Battery> = sized(d.get()?, n, "batteries")?;
    let was_depleted: Vec<bool> = sized(d.get()?, n, "was-depleted flags")?;
    let target_pos: Vec<Point2> = sized(d.get()?, m, "target positions")?;
    let target_next_move = sized(d.get()?, m, "target move times")?;
    let target_waypoint: Vec<Point2> = sized(d.get()?, m, "target waypoints")?;
    let target_anchor: Vec<Point2> = sized(d.get()?, m, "target anchors")?;

    let clusters: Vec<Cluster> = d.get()?;
    let assignment: Vec<Option<ClusterId>> = sized(d.get()?, n, "cluster assignment")?;
    let rotas: Vec<RoundRobinRota> = sized(d.get()?, clusters.len(), "rotas")?;
    let next_slot = d.get()?;
    let group_of: Vec<Option<u32>> = sized(d.get()?, n, "group membership")?;
    let groups: Vec<(u32, u32)> = d.get()?;
    let group_arena: Vec<SensorId> = d.get()?;

    let loads: Vec<TrafficLoad> = sized(d.get()?, n + 1, "traffic loads (+ sink)")?;
    let active: Vec<bool> = sized(d.get()?, n, "active flags")?;
    let dormant: Vec<bool> = sized(d.get()?, n, "dormant flags")?;
    let dirty: bool = d.get()?;
    let board = RequestBoard::from_raw(
        sized(d.get()?, n, "pending requests")?,
        sized(d.get()?, n, "released requests")?,
        sized(d.get()?, n, "assigned requests")?,
        sized(d.get()?, n, "release times")?,
        sized(d.get()?, n, "request attempts")?,
        sized(d.get()?, n, "retry times")?,
    );
    let next_plan_ok = d.get()?;
    let dispatching = d.get()?;
    let rvs: Vec<RvAgent> = sized(d.get()?, cfg.num_rvs, "RVs")?;

    let metrics: EvalMetrics = d.get()?;
    let next_sample: f64 = d.get()?;
    let total_drained_j = d.get()?;
    let total_delivered_j = d.get()?;
    let deaths = d.get()?;
    let plans = d.get()?;
    let rv_shortfall_j = d.get()?;
    let failed: Vec<bool> = sized(d.get()?, n, "failed flags")?;
    let failures = d.get()?;
    let trace = d.get()?;
    let suspended: Vec<bool> = sized(d.get()?, n, "suspended flags")?;
    let suspend_until: Vec<f64> = sized(d.get()?, n, "suspend deadlines")?;
    let transient_faults = d.get()?;
    let rv_breakdowns = d.get()?;
    let uplink_drops = d.get()?;
    let replan_urgent = d.get()?;
    let initial_sensor_j = d.get()?;
    let failure_lost_j = d.get()?;
    let initial_fleet_j = d.get()?;
    let rv_input_j = d.get()?;
    let rv_drawn_j = d.get()?;
    d.finish()?;

    // Everything later code indexes with, or asserts on, must be in range.
    let field = Field::new(cfg.field_side);
    let in_field = |ps: &Vec<Point2>| ps.iter().all(|&p| field.contains(p));
    ensure(
        [&sensor_pos, &target_pos, &target_waypoint, &target_anchor]
            .into_iter()
            .all(in_field),
        || "a position lies outside the field".into(),
    )?;
    let sensor_ok = |s: &SensorId| s.index() < n;
    ensure(
        clusters.iter().all(|c| c.members.iter().all(sensor_ok))
            && rotas.iter().all(|r| r.members().iter().all(sensor_ok))
            && group_arena.iter().all(sensor_ok)
            && rvs.iter().enumerate().all(|(i, rv)| {
                let stop = match rv.phase {
                    RvPhase::ToStop(s) | RvPhase::Charging(s) => Some(s),
                    _ => None,
                };
                rv.id.index() == i && rv.route.iter().chain(&stop).all(sensor_ok)
            }),
        || "a sensor or RV id is out of range".into(),
    )?;
    ensure(
        assignment
            .iter()
            .flatten()
            .all(|c| c.index() < clusters.len())
            && group_of
                .iter()
                .flatten()
                .all(|&g| (g as usize) < groups.len())
            && groups
                .iter()
                .all(|&(start, len)| start as usize + len as usize <= group_arena.len()),
        || "a cluster or request-group reference is out of range".into(),
    )?;
    let series = [
        metrics.coverage_series(),
        metrics.nonfunctional_series(),
        metrics.operational_series(),
    ];
    ensure(
        series
            .iter()
            .all(|s| s.times().last().is_none_or(|&last| next_sample >= last)),
        || format!("next sample at {next_sample} precedes the last sample"),
    )?;

    // Re-derive everything that is a pure function of config + stored
    // state: the base, the comm graph over [base, sensors…], the ERP
    // controller, the scheduler (from the stored seed), the coverage
    // cache (recounted from ground truth).
    let base = field.center();
    let mut node_pos = Vec::with_capacity(n + 1);
    node_pos.push(base);
    node_pos.extend_from_slice(&sensor_pos);
    let graph = CommGraph::build(&node_pos, cfg.comm_range);
    // The cluster-repair baseline is a pure function of the sensors and
    // the anchors, which equal the targets it last synced to (DESIGN.md
    // §4f), so the first rebuild after a resume is incremental too.
    let repair_grid = CoverageMap::grid_for(&sensor_pos, cfg.sensing_range);
    let repair_cov = CoverageMap::build_on(&repair_grid, &target_anchor, cfg.sensing_range);
    let repair = RepairState::new(repair_grid, repair_cov, target_anchor.clone());
    let erp = ErpController::new(cfg.activity.effective_k());
    let scheduler = cfg.scheduler.build(seed);

    // Reassemble the SoA columns from the decoded per-sensor vectors
    // (the flag setters also recount the suspended counter).
    let mut sensors = SensorSoA::from_batteries(&batteries);
    for s in 0..n {
        sensors.set_was_depleted(s, was_depleted[s]);
        sensors.set_failed(s, failed[s]);
        sensors.set_suspended(s, suspended[s]);
        sensors.set_active(s, active[s]);
        sensors.set_dormant(s, dormant[s]);
        sensors.suspend_until[s] = suspend_until[s];
    }

    // The routing tree is a pure function of the graph + final
    // enabled/generator sets (DESIGN.md §4f), so rebuilding from the
    // restored flags reproduces the live tree exactly. The maintained
    // loads are restored verbatim: if the snapshot was clean they equal
    // the rebuild's (pure function again, byte-for-byte); if it was
    // dirty they are the stale pre-refresh values an uninterrupted run
    // would still be carrying, and the pending full refresh below
    // reconciles them at the next tick, exactly as it would have live.
    let mut routing = DynamicRoutingTree::new(n + 1, 0, cfg.data_rate_pps);
    routing.rebuild(
        &graph,
        |v| v == 0 || (!sensors.is_depleted(v - 1) && !sensors.suspended(v - 1)),
        |v| v > 0 && sensors.active(v - 1),
    );
    routing.restore_loads(&loads);
    let mut routing_dirty = RoutingDirty::new(n);
    if dirty {
        routing_dirty.note_full();
    }

    let mut state = WorldState {
        seed,
        scheduler,
        rng,
        t,
        base,
        sensor_pos,
        sensors,
        target_pos,
        target_next_move,
        target_waypoint,
        target_anchor,
        clusters: ClusterSet::new(clusters),
        assignment,
        rotas,
        next_slot,
        group_of,
        groups,
        group_arena,
        graph,
        routing,
        routing_dirty,
        group_scratch: Vec::new(),
        erp,
        board,
        next_plan_ok,
        dispatching,
        rvs,
        metrics,
        next_sample,
        total_drained_j,
        total_delivered_j,
        deaths,
        plans,
        rv_shortfall_j,
        failures,
        trace,
        transient_faults,
        rv_breakdowns,
        uplink_drops,
        replan_urgent,
        coverage: engine::coverage::CoverageCache::default(),
        // Derived dispatch/repair accelerators are not serialized: the
        // crossing bookkeeping restarts with every sensor in its next-scan
        // set (the first post-resume scan examines every sensor, exactly
        // like the pending full routing refresh above), and cluster
        // repair resumes from the baseline re-derived above (DESIGN.md
        // §4f/§4j). The drain-rate column is rebuilt from the restored
        // flags and loads below.
        crossings: engine::CrossingState::new_all_pending(n),
        repair: Some(repair),
        naive_dispatch: false,
        naive_drain: false,
        naive_repair: false,
        initial_sensor_j,
        failure_lost_j,
        initial_fleet_j,
        rv_input_j,
        rv_drawn_j,
        cfg,
    };
    engine::coverage::rebuild(&mut state);
    engine::energy::rebuild_draws(&mut state);
    // Snapshots from builds without request-group compaction may hold
    // more groups than a refresh leaves behind.
    engine::mobility::compact_request_groups(&mut state);
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;
    use wrsn_core::RvId;

    fn tiny_cfg(days: f64) -> SimConfig {
        let mut cfg = SimConfig::small(days);
        cfg.num_sensors = 50;
        cfg.num_targets = 3;
        cfg.num_rvs = 1;
        cfg.field_side = 60.0;
        cfg
    }

    #[test]
    fn header_is_versioned_magic() {
        let w = World::new(&tiny_cfg(0.1), 1);
        let blob = w.save_snapshot();
        assert_eq!(&blob[..8], b"WRSNSNAP");
        assert_eq!(
            u32::from_le_bytes(blob[MAGIC.len()..frame::HEADER_LEN].try_into().unwrap()),
            VERSION
        );
    }

    #[test]
    fn round_trip_at_time_zero() {
        let cfg = tiny_cfg(0.2);
        let w = World::new(&cfg, 7);
        let resumed = World::resume(&w.save_snapshot()).expect("decode");
        assert_eq!(resumed.time(), 0.0);
        assert_eq!(resumed.alive_count(), w.alive_count());
        resumed
            .check_invariants()
            .expect("restored state consistent");
    }

    #[test]
    fn resumed_run_matches_uninterrupted_bitwise() {
        let mut cfg = tiny_cfg(1.0);
        cfg.initial_soc = (0.3, 0.9);
        cfg.faults.transients_per_day = 2.0;
        cfg.faults.uplink_loss = 0.2;
        let mut oracle = World::new(&cfg, 42);
        oracle.enable_trace(10_000);
        let mut live = World::new(&cfg, 42);
        live.enable_trace(10_000);
        for _ in 0..300 {
            oracle.step();
            live.step();
        }
        let mut resumed = World::resume(&live.save_snapshot()).expect("decode");
        while !oracle.finished() {
            oracle.step();
            resumed.step();
        }
        let a = oracle.outcome();
        let b = resumed.outcome();
        assert_eq!(a.report, b.report);
        assert_eq!(a.total_drained_j.to_bits(), b.total_drained_j.to_bits());
        assert_eq!(a.total_delivered_j.to_bits(), b.total_delivered_j.to_bits());
        assert_eq!(a.deaths, b.deaths);
        assert_eq!(a.uplink_drops, b.uplink_drops);
        assert_eq!(a.transient_faults, b.transient_faults);
        assert_eq!(oracle.trace().events(), resumed.trace().events());
        resumed
            .check_invariants()
            .expect("resumed state consistent");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = World::resume(b"NOTASNAPxxxxxxxxxxxxxxxx").unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let w = World::new(&tiny_cfg(0.1), 1);
        let mut blob = w.save_snapshot();
        blob[MAGIC.len()..frame::HEADER_LEN].copy_from_slice(&(VERSION + 1).to_le_bytes());
        let err = World::resume(&blob).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(v) if v == VERSION + 1));
    }

    #[test]
    fn truncation_is_detected() {
        let w = World::new(&tiny_cfg(0.1), 1);
        let blob = w.save_snapshot();
        let err = World::resume(&blob[..blob.len() / 2]).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Truncated | SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let w = World::new(&tiny_cfg(0.1), 1);
        let mut blob = w.save_snapshot();
        blob.push(0xAB);
        let err = World::resume(&blob).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)));
    }

    #[test]
    fn config_hash_is_stable_and_field_sensitive() {
        let a = tiny_cfg(1.0);
        let b = tiny_cfg(1.0);
        assert_eq!(a.content_hash(), b.content_hash());
        let mut c = tiny_cfg(1.0);
        c.faults.uplink_loss = 0.01;
        assert_ne!(a.content_hash(), c.content_hash());
        let mut k = tiny_cfg(1.0);
        k.activity.erp = Some(0.8);
        assert_ne!(a.content_hash(), k.content_hash());
        assert_eq!(a.faults.content_hash(), b.faults.content_hash());
        assert_ne!(a.faults.content_hash(), c.faults.content_hash());
    }

    fn encoded_rv(rv: &RvAgent) -> Vec<u8> {
        let mut e = Enc::new();
        rv.put(&mut e);
        e.buf
    }

    #[test]
    fn rv_bytes_pin_every_phase_tag() {
        let (s, until_s) = (SensorId(9), 7_250.5);
        let pins = [
            (RvPhase::Idle, 0x7279_19dd_ea2a_5f72),
            (RvPhase::ToStop(s), 0x8fd7_6172_795f_b6d8),
            (RvPhase::Charging(s), 0x5933_c966_293c_87e1),
            (RvPhase::ToBase, 0xf782_d760_9644_7d8f),
            (RvPhase::SelfCharging, 0x8c0b_89fc_f13a_40de),
            (RvPhase::Broken { until_s }, 0xef64_3a19_d00e_d7bf),
        ];
        for (phase, pin) in pins {
            let mut rv = RvAgent::new(RvId(1), Point2::new(12.5, 30.25), 40_000.0);
            rv.battery = Battery::with_level(40_000.0, 31_000.75);
            rv.route = [SensorId(4), s].into();
            rv.phase = phase;
            rv.distance_traveled_m = 812.5;
            rv.phase_time_s = [1.0, 2.0, 3.0, 4.0, 5.0];
            let bytes = encoded_rv(&rv);
            let rv2 = RvAgent::get(&mut Dec::new(&bytes)).expect("decode");
            assert_eq!(encoded_rv(&rv2), bytes, "{phase:?} round-trips");
            let h = fnv1a(&bytes);
            assert_eq!(h, pin, "{phase:?}: {h:#018x}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("wrsn-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.snap");
        let mut w = World::new(&tiny_cfg(0.3), 9);
        for _ in 0..50 {
            w.step();
        }
        w.save_snapshot_to(&path).expect("write");
        let resumed = World::resume_from(&path).expect("read");
        assert_eq!(resumed.time().to_bits(), w.time().to_bits());
        assert_eq!(resumed.alive_count(), w.alive_count());
        std::fs::remove_dir_all(&dir).ok();
    }
}
