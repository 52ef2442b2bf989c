//! Durable, versioned world snapshots: save a running [`crate::World`] at
//! any tick and resume it **byte-identically** later — possibly in another
//! process, after a crash, or on another machine of the same architecture.
//!
//! # Format
//!
//! A snapshot is a flat little-endian binary blob (std-only; the vendored
//! `serde` is a no-op marker crate, so the codec is hand-rolled):
//!
//! ```text
//! [ MAGIC "WRSNSNAP" | VERSION u32 | config_hash u64 ]   header
//! [ SimConfig (canonical field order)                ]   config
//! [ seed u64 | rng [u64;4] | t f64 | mutable state…  ]   world
//! ```
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
//! identically to a dirty one), and the event-incremental routing tree
//! (a pure function of the restored enabled/generator sets — only its
//! maintained loads and the one pending-refresh bit are stored).
//!
//! The continuation guarantee — run to tick `T`, snapshot, resume, run to
//! `T+N` produces bit-identical traces, metrics and ledgers to an
//! uninterrupted run to `T+N` — is pinned by
//! `crates/sim/tests/snapshot_roundtrip.rs` in both debug and release
//! profiles. Versioning is strict: a snapshot written by a different
//! `VERSION` is rejected, never reinterpreted.

use crate::engine::{self, RoutingDirty, SensorSoA, WorldState};
use crate::frame;
use crate::{
    FaultConfig, RequestBoard, RvAgent, RvPhase, SimConfig, TargetMobility, Trace, TraceEvent,
};
use rand::rngs::StdRng;
use wrsn_core::{
    Cluster, ClusterId, ClusterSet, ErpController, RoundRobinRota, RvId, SensorId, TargetId,
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

/// Why a snapshot could not be decoded.
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

type Result<T> = std::result::Result<T, SnapshotError>;

// --- Primitive encoder ---------------------------------------------------

/// The codec's primitive encoder (little-endian fields, `f64` as IEEE
/// bits), shared by every binary format in the crate.
#[derive(Debug)]
pub struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Self {
            buf: Vec::with_capacity(4096),
        }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn point(&mut self, p: Point2) {
        self.f64(p.x);
        self.f64(p.y);
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.len(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    fn bools(&mut self, vs: &[bool]) {
        self.len(vs.len());
        for &v in vs {
            self.bool(v);
        }
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.len(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }

    fn points(&mut self, vs: &[Point2]) {
        self.len(vs.len());
        for &p in vs {
            self.point(p);
        }
    }

    fn sensor_ids(&mut self, vs: &[SensorId]) {
        self.len(vs.len());
        for &s in vs {
            self.u32(s.0);
        }
    }

    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }
}

// --- Primitive decoder ---------------------------------------------------

/// The primitive decoder matching [`Enc`]: every read is bounds-checked
/// and fails with [`SnapshotError::Truncated`] instead of panicking.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length prefix — additionally bounded by the remaining bytes (every
    /// element costs at least one byte), so a corrupt length can never
    /// trigger an absurd allocation.
    pub(crate) fn len(&mut self) -> Result<usize> {
        let v = self.u64()?;
        let v = usize::try_from(v).map_err(|_| SnapshotError::Truncated)?;
        if v > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(v)
    }

    /// A plain count — a value that does *not* prefix that many encoded
    /// elements (a trace cap, a dispatch's stop count), so it may
    /// legitimately exceed the remaining bytes.
    pub(crate) fn count(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Truncated)
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bad bool byte {b}"))),
        }
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string field is not UTF-8".into()))
    }

    fn point(&mut self) -> Result<Point2> {
        Ok(Point2::new(self.f64()?, self.f64()?))
    }

    fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.len()?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn bools(&mut self) -> Result<Vec<bool>> {
        let n = self.len()?;
        (0..n).map(|_| self.bool()).collect()
    }

    fn u32s(&mut self) -> Result<Vec<u32>> {
        let n = self.len()?;
        (0..n).map(|_| self.u32()).collect()
    }

    fn points(&mut self) -> Result<Vec<Point2>> {
        let n = self.len()?;
        (0..n).map(|_| self.point()).collect()
    }

    fn sensor_ids(&mut self) -> Result<Vec<SensorId>> {
        Ok(self.u32s()?.into_iter().map(SensorId).collect())
    }

    fn opt_u32(&mut self) -> Result<Option<u32>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            b => Err(SnapshotError::Corrupt(format!("bad option tag {b}"))),
        }
    }

    pub(crate) fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the snapshot payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// --- Config codec (the canonical encoding behind `content_hash`) ---------

fn encode_faults(e: &mut Enc, f: &FaultConfig) {
    e.f64(f.rv_breakdowns_per_day);
    e.f64(f.rv_repair_s.0);
    e.f64(f.rv_repair_s.1);
    e.f64(f.uplink_loss);
    e.f64(f.uplink_backoff_s);
    e.f64(f.uplink_backoff_cap_s);
    e.f64(f.transients_per_day);
    e.f64(f.transient_outage_s.0);
    e.f64(f.transient_outage_s.1);
}

fn decode_faults(d: &mut Dec) -> Result<FaultConfig> {
    Ok(FaultConfig {
        rv_breakdowns_per_day: d.f64()?,
        rv_repair_s: (d.f64()?, d.f64()?),
        uplink_loss: d.f64()?,
        uplink_backoff_s: d.f64()?,
        uplink_backoff_cap_s: d.f64()?,
        transients_per_day: d.f64()?,
        transient_outage_s: (d.f64()?, d.f64()?),
    })
}

fn scheduler_tag(kind: wrsn_core::SchedulerKind) -> u8 {
    use wrsn_core::SchedulerKind::*;
    match kind {
        Greedy => 0,
        Insertion => 1,
        Partition => 2,
        Combined => 3,
        Savings => 4,
        Deadline => 5,
    }
}

fn scheduler_from_tag(tag: u8) -> Result<wrsn_core::SchedulerKind> {
    use wrsn_core::SchedulerKind::*;
    Ok(match tag {
        0 => Greedy,
        1 => Insertion,
        2 => Partition,
        3 => Combined,
        4 => Savings,
        5 => Deadline,
        t => return Err(SnapshotError::Corrupt(format!("bad scheduler tag {t}"))),
    })
}

pub(crate) fn encode_config(e: &mut Enc, cfg: &SimConfig) {
    e.len(cfg.num_sensors);
    e.len(cfg.num_targets);
    e.len(cfg.num_rvs);
    e.f64(cfg.field_side);
    e.f64(cfg.comm_range);
    e.f64(cfg.sensing_range);
    e.f64(cfg.duration_s);
    e.f64(cfg.target_period_s);
    match cfg.target_mobility {
        TargetMobility::RandomTeleport => e.u8(0),
        TargetMobility::RandomWaypoint { speed_mps } => {
            e.u8(1);
            e.f64(speed_mps);
        }
        TargetMobility::Static => e.u8(2),
    }
    e.u8(match cfg.deployment {
        Deployment::UniformRandom => 0,
        Deployment::Grid => 1,
        Deployment::Hex => 2,
        Deployment::Jittered => 3,
    });
    e.f64(cfg.recharge_threshold_frac);
    e.f64(cfg.critical_soc);
    e.f64(cfg.data_rate_pps);
    e.f64(cfg.watch_duty);
    e.f64(cfg.sensor_profile.radio.voltage);
    e.f64(cfg.sensor_profile.radio.idle_a);
    e.f64(cfg.sensor_profile.radio.tx_a);
    e.f64(cfg.sensor_profile.radio.rx_a);
    e.f64(cfg.sensor_profile.radio.bitrate_bps);
    e.f64(cfg.sensor_profile.detector.voltage);
    e.f64(cfg.sensor_profile.detector.active_a);
    e.f64(cfg.sensor_profile.detector.idle_a);
    e.len(cfg.sensor_profile.packet_bytes);
    e.f64(cfg.battery_capacity_j);
    e.f64(cfg.initial_soc.0);
    e.f64(cfg.initial_soc.1);
    e.f64(cfg.charge_model.taper_start);
    e.f64(cfg.charge_model.min_accept);
    e.f64(cfg.permanent_failures_per_day);
    e.f64(cfg.self_discharge_per_day);
    e.f64(cfg.rv_model.move_j_per_m);
    e.f64(cfg.rv_model.speed_mps);
    e.f64(cfg.rv_model.charge_power_w);
    e.f64(cfg.rv_model.transfer_efficiency);
    e.f64(cfg.rv_model.battery_capacity_j);
    e.f64(cfg.rv_model.low_battery_frac);
    e.f64(cfg.base_charge_power_w);
    e.bool(cfg.activity.round_robin);
    match cfg.activity.erp {
        None => e.u8(0),
        Some(k) => {
            e.u8(1);
            e.f64(k);
        }
    }
    e.u8(scheduler_tag(cfg.scheduler));
    encode_faults(e, &cfg.faults);
    e.f64(cfg.slot_s);
    e.f64(cfg.tick_s);
    e.f64(cfg.replan_cooldown_s);
    e.f64(cfg.min_batch_demand_j);
    e.f64(cfg.max_request_age_s);
    e.f64(cfg.sample_every_s);
    e.f64(cfg.duration_days);
}

/// Decodes [`encode_config`]'s fields. Population sizes and the packet
/// size are plain counts, not length prefixes: a config is often the last
/// thing in a payload (a wire `Assign`'s final job), where 500 sensors
/// legitimately exceed the bytes that follow.
pub(crate) fn decode_config(d: &mut Dec) -> Result<SimConfig> {
    Ok(SimConfig {
        num_sensors: d.count()?,
        num_targets: d.count()?,
        num_rvs: d.count()?,
        field_side: d.f64()?,
        comm_range: d.f64()?,
        sensing_range: d.f64()?,
        duration_s: d.f64()?,
        target_period_s: d.f64()?,
        target_mobility: match d.u8()? {
            0 => TargetMobility::RandomTeleport,
            1 => TargetMobility::RandomWaypoint {
                speed_mps: d.f64()?,
            },
            2 => TargetMobility::Static,
            t => return Err(SnapshotError::Corrupt(format!("bad mobility tag {t}"))),
        },
        deployment: match d.u8()? {
            0 => Deployment::UniformRandom,
            1 => Deployment::Grid,
            2 => Deployment::Hex,
            3 => Deployment::Jittered,
            t => return Err(SnapshotError::Corrupt(format!("bad deployment tag {t}"))),
        },
        recharge_threshold_frac: d.f64()?,
        critical_soc: d.f64()?,
        data_rate_pps: d.f64()?,
        watch_duty: d.f64()?,
        sensor_profile: SensorEnergyProfile {
            radio: RadioModel {
                voltage: d.f64()?,
                idle_a: d.f64()?,
                tx_a: d.f64()?,
                rx_a: d.f64()?,
                bitrate_bps: d.f64()?,
            },
            detector: DetectorModel {
                voltage: d.f64()?,
                active_a: d.f64()?,
                idle_a: d.f64()?,
            },
            packet_bytes: d.count()?,
        },
        battery_capacity_j: d.f64()?,
        initial_soc: (d.f64()?, d.f64()?),
        charge_model: ChargeModel {
            taper_start: d.f64()?,
            min_accept: d.f64()?,
        },
        permanent_failures_per_day: d.f64()?,
        self_discharge_per_day: d.f64()?,
        rv_model: RvEnergyModel {
            move_j_per_m: d.f64()?,
            speed_mps: d.f64()?,
            charge_power_w: d.f64()?,
            transfer_efficiency: d.f64()?,
            battery_capacity_j: d.f64()?,
            low_battery_frac: d.f64()?,
        },
        base_charge_power_w: d.f64()?,
        activity: crate::ActivityConfig {
            round_robin: d.bool()?,
            erp: match d.u8()? {
                0 => None,
                1 => Some(d.f64()?),
                t => return Err(SnapshotError::Corrupt(format!("bad ERP tag {t}"))),
            },
        },
        scheduler: scheduler_from_tag(d.u8()?)?,
        faults: decode_faults(d)?,
        slot_s: d.f64()?,
        tick_s: d.f64()?,
        replan_cooldown_s: d.f64()?,
        min_batch_demand_j: d.f64()?,
        max_request_age_s: d.f64()?,
        sample_every_s: d.f64()?,
        duration_days: d.f64()?,
    })
}

/// FNV-1a 64-bit over `bytes`.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable content hash of a full configuration: FNV-1a 64 over the
/// snapshot codec's canonical field encoding (f64s as IEEE bits). Equal
/// configs hash equal across processes and runs; any field change —
/// including inside nested models and the fault plan — changes the hash.
/// The run journal uses it to refuse resuming a sweep under a drifted
/// config.
pub(crate) fn config_hash(cfg: &SimConfig) -> u64 {
    let mut e = Enc::new();
    encode_config(&mut e, cfg);
    fnv1a(&e.buf)
}

/// Stable content hash of a fault plan alone (same canonical encoding).
pub(crate) fn fault_hash(f: &FaultConfig) -> u64 {
    let mut e = Enc::new();
    encode_faults(&mut e, f);
    fnv1a(&e.buf)
}

// --- Event / aggregate codecs --------------------------------------------

pub(crate) fn encode_trace_event(e: &mut Enc, ev: &TraceEvent) {
    match *ev {
        TraceEvent::Dispatch {
            t,
            rv,
            stops,
            demand_j,
        } => {
            e.u8(0);
            e.f64(t);
            e.u32(rv.0);
            e.len(stops);
            e.f64(demand_j);
        }
        TraceEvent::ServiceDone { t, rv, sensor } => {
            e.u8(1);
            e.f64(t);
            e.u32(rv.0);
            e.u32(sensor.0);
        }
        TraceEvent::SensorDepleted { t, sensor } => {
            e.u8(2);
            e.f64(t);
            e.u32(sensor.0);
        }
        TraceEvent::SensorRevived { t, sensor } => {
            e.u8(3);
            e.f64(t);
            e.u32(sensor.0);
        }
        TraceEvent::ClustersRebuilt { t, clusters } => {
            e.u8(4);
            e.f64(t);
            e.len(clusters);
        }
        TraceEvent::SensorFailed { t, sensor } => {
            e.u8(5);
            e.f64(t);
            e.u32(sensor.0);
        }
        TraceEvent::RvBroke {
            t,
            rv,
            dropped_stops,
        } => {
            e.u8(6);
            e.f64(t);
            e.u32(rv.0);
            e.len(dropped_stops);
        }
        TraceEvent::RvRepaired { t, rv } => {
            e.u8(7);
            e.f64(t);
            e.u32(rv.0);
        }
        TraceEvent::SensorSuspended { t, sensor } => {
            e.u8(8);
            e.f64(t);
            e.u32(sensor.0);
        }
        TraceEvent::SensorResumed { t, sensor } => {
            e.u8(9);
            e.f64(t);
            e.u32(sensor.0);
        }
        TraceEvent::RequestDropped { t, sensor, attempt } => {
            e.u8(10);
            e.f64(t);
            e.u32(sensor.0);
            e.u32(attempt);
        }
    }
}

pub(crate) fn decode_trace_event(d: &mut Dec) -> Result<TraceEvent> {
    Ok(match d.u8()? {
        0 => TraceEvent::Dispatch {
            t: d.f64()?,
            rv: RvId(d.u32()?),
            stops: d.count()?,
            demand_j: d.f64()?,
        },
        1 => TraceEvent::ServiceDone {
            t: d.f64()?,
            rv: RvId(d.u32()?),
            sensor: SensorId(d.u32()?),
        },
        2 => TraceEvent::SensorDepleted {
            t: d.f64()?,
            sensor: SensorId(d.u32()?),
        },
        3 => TraceEvent::SensorRevived {
            t: d.f64()?,
            sensor: SensorId(d.u32()?),
        },
        4 => TraceEvent::ClustersRebuilt {
            t: d.f64()?,
            clusters: d.count()?,
        },
        5 => TraceEvent::SensorFailed {
            t: d.f64()?,
            sensor: SensorId(d.u32()?),
        },
        6 => TraceEvent::RvBroke {
            t: d.f64()?,
            rv: RvId(d.u32()?),
            dropped_stops: d.count()?,
        },
        7 => TraceEvent::RvRepaired {
            t: d.f64()?,
            rv: RvId(d.u32()?),
        },
        8 => TraceEvent::SensorSuspended {
            t: d.f64()?,
            sensor: SensorId(d.u32()?),
        },
        9 => TraceEvent::SensorResumed {
            t: d.f64()?,
            sensor: SensorId(d.u32()?),
        },
        10 => TraceEvent::RequestDropped {
            t: d.f64()?,
            sensor: SensorId(d.u32()?),
            attempt: d.u32()?,
        },
        tag => return Err(SnapshotError::Corrupt(format!("bad trace-event tag {tag}"))),
    })
}

fn encode_battery(e: &mut Enc, b: &Battery) {
    e.f64(b.capacity());
    e.f64(b.level());
    e.f64(b.charge_model().taper_start);
    e.f64(b.charge_model().min_accept);
}

fn decode_battery(d: &mut Dec) -> Result<Battery> {
    let capacity = d.f64()?;
    let level = d.f64()?;
    let model = ChargeModel {
        taper_start: d.f64()?,
        min_accept: d.f64()?,
    };
    if !(capacity.is_finite()
        && capacity > 0.0
        && level.is_finite()
        && (0.0..=capacity).contains(&level))
    {
        return Err(SnapshotError::Corrupt(format!(
            "battery level {level} outside [0, {capacity}]"
        )));
    }
    Ok(Battery::with_level(capacity, level).with_charge_model(model))
}

fn encode_rv(e: &mut Enc, rv: &RvAgent) {
    e.u32(rv.id.0);
    e.point(rv.pos);
    encode_battery(e, &rv.battery);
    e.len(rv.route.len());
    for &s in &rv.route {
        e.u32(s.0);
    }
    match rv.phase {
        RvPhase::Idle => e.u8(0),
        RvPhase::ToStop(s) => {
            e.u8(1);
            e.u32(s.0);
        }
        RvPhase::Charging(s) => {
            e.u8(2);
            e.u32(s.0);
        }
        RvPhase::ToBase => e.u8(3),
        RvPhase::SelfCharging => e.u8(4),
        RvPhase::Broken { until_s } => {
            e.u8(5);
            e.f64(until_s);
        }
    }
    e.f64(rv.distance_traveled_m);
    for &t in &rv.phase_time_s {
        e.f64(t);
    }
}

fn decode_rv(d: &mut Dec) -> Result<RvAgent> {
    let id = RvId(d.u32()?);
    let pos = d.point()?;
    let battery = decode_battery(d)?;
    let route: std::collections::VecDeque<SensorId> = d.sensor_ids()?.into_iter().collect();
    let phase = match d.u8()? {
        0 => RvPhase::Idle,
        1 => RvPhase::ToStop(SensorId(d.u32()?)),
        2 => RvPhase::Charging(SensorId(d.u32()?)),
        3 => RvPhase::ToBase,
        4 => RvPhase::SelfCharging,
        5 => RvPhase::Broken { until_s: d.f64()? },
        t => return Err(SnapshotError::Corrupt(format!("bad RV phase tag {t}"))),
    };
    let distance_traveled_m = d.f64()?;
    let mut phase_time_s = [0.0; 5];
    for slot in &mut phase_time_s {
        *slot = d.f64()?;
    }
    Ok(RvAgent {
        id,
        pos,
        battery,
        route,
        phase,
        distance_traveled_m,
        phase_time_s,
    })
}

fn encode_series(e: &mut Enc, s: &TimeSeries) {
    e.f64s(s.times());
    e.f64s(s.values());
}

fn decode_series(d: &mut Dec) -> Result<TimeSeries> {
    let times = d.f64s()?;
    let values = d.f64s()?;
    if times.len() != values.len() {
        return Err(SnapshotError::Corrupt(
            "time series columns disagree".into(),
        ));
    }
    Ok(TimeSeries::from_samples(times, values))
}

// --- World state codec ---------------------------------------------------

/// Serializes the full mutable world state (derived state is re-derived on
/// decode; see the module docs).
pub(crate) fn encode(state: &WorldState) -> Vec<u8> {
    let mut e = Enc::new();
    e.buf.extend_from_slice(&frame::header(MAGIC, VERSION));
    e.u64(config_hash(&state.cfg));
    encode_config(&mut e, &state.cfg);

    e.u64(state.seed);
    for &w in &state.rng.state() {
        e.u64(w);
    }
    e.f64(state.t);

    e.points(&state.sensor_pos);
    // The SoA columns are written in the exact byte layout the AoS
    // `Vec<Battery>` used, so the format (and VERSION) is unchanged.
    let n = state.sensors.len();
    e.len(n);
    for s in 0..n {
        e.f64(state.sensors.capacity[s]);
        e.f64(state.sensors.level[s]);
        e.f64(state.sensors.model[s].taper_start);
        e.f64(state.sensors.model[s].min_accept);
    }
    e.len(n);
    for s in 0..n {
        e.bool(state.sensors.was_depleted(s));
    }

    e.points(&state.target_pos);
    e.f64s(&state.target_next_move);
    e.points(&state.target_waypoint);
    e.points(&state.target_anchor);

    e.len(state.clusters.len());
    for (_, c) in state.clusters.iter() {
        e.u32(c.target.0);
        e.sensor_ids(&c.members);
    }
    e.len(state.assignment.len());
    for a in &state.assignment {
        e.opt_u32(a.map(|c| c.0));
    }
    e.len(state.rotas.len());
    for r in &state.rotas {
        e.sensor_ids(r.members());
        e.len(r.cursor());
    }
    e.f64(state.next_slot);

    e.len(state.group_of.len());
    for g in &state.group_of {
        e.opt_u32(*g);
    }
    e.len(state.groups.len());
    for &(start, len) in &state.groups {
        e.u32(start);
        e.u32(len);
    }
    e.sensor_ids(&state.group_arena);

    let loads = state.routing.loads();
    e.len(loads.len());
    for l in loads {
        e.f64(l.tx_pps);
        e.f64(l.rx_pps);
    }
    e.len(n);
    for s in 0..n {
        e.bool(state.sensors.active(s));
    }
    e.len(n);
    for s in 0..n {
        e.bool(state.sensors.dormant(s));
    }
    // The queued dirty events collapse to one bit: decode turns it back
    // into a pending full refresh, which subsumes any finer-grained set.
    e.bool(state.routing_dirty.any());

    let (pending, released, assigned, released_at, attempts, retry_at) = state.board.raw();
    e.bools(pending);
    e.bools(released);
    e.bools(assigned);
    e.f64s(released_at);
    e.u32s(attempts);
    e.f64s(retry_at);
    e.f64(state.next_plan_ok);
    e.bool(state.dispatching);

    e.len(state.rvs.len());
    for rv in &state.rvs {
        encode_rv(&mut e, rv);
    }

    e.f64(state.metrics.travel_distance_m());
    e.f64(state.metrics.travel_energy_j());
    e.f64(state.metrics.recharged_j());
    e.u64(state.metrics.recharge_visits());
    encode_series(&mut e, state.metrics.coverage_series());
    encode_series(&mut e, state.metrics.nonfunctional_series());
    encode_series(&mut e, state.metrics.operational_series());
    e.f64(state.next_sample);
    e.f64(state.total_drained_j);
    e.f64(state.total_delivered_j);
    e.u64(state.deaths);
    e.u64(state.plans);
    e.f64(state.rv_shortfall_j);

    e.len(n);
    for s in 0..n {
        e.bool(state.sensors.failed(s));
    }
    e.u64(state.failures);

    e.bool(state.trace.is_enabled());
    e.len(state.trace.cap());
    e.u64(state.trace.dropped());
    e.len(state.trace.events().len());
    for ev in state.trace.events() {
        encode_trace_event(&mut e, ev);
    }

    e.len(n);
    for s in 0..n {
        e.bool(state.sensors.suspended(s));
    }
    e.f64s(&state.sensors.suspend_until);
    e.u64(state.transient_faults);
    e.u64(state.rv_breakdowns);
    e.u64(state.uplink_drops);
    e.bool(state.replan_urgent);

    e.f64(state.initial_sensor_j);
    e.f64(state.failure_lost_j);
    e.f64(state.initial_fleet_j);
    e.f64(state.rv_input_j);
    e.f64(state.rv_drawn_j);

    e.buf
}

/// Decodes a snapshot back into a world state, rebuilding derived state
/// (geometry, comm graph, ERP controller, scheduler, coverage cache).
pub(crate) fn decode(bytes: &[u8]) -> Result<WorldState> {
    frame::check_header(bytes, MAGIC, VERSION)?;
    let mut d = Dec::new(&bytes[frame::HEADER_LEN..]);
    let stored_hash = d.u64()?;
    let cfg = decode_config(&mut d)?;
    let actual_hash = config_hash(&cfg);
    if stored_hash != actual_hash {
        return Err(SnapshotError::Corrupt(format!(
            "header config hash {stored_hash:#018x} != embedded config's {actual_hash:#018x}"
        )));
    }

    let seed = d.u64()?;
    let rng = StdRng::from_state([d.u64()?, d.u64()?, d.u64()?, d.u64()?]);
    let t = d.f64()?;

    let n = cfg.num_sensors;
    let per_sensor = |len: usize, what: &str| -> Result<()> {
        if len != n {
            return Err(SnapshotError::Corrupt(format!(
                "{what} holds {len} entries for {n} sensors"
            )));
        }
        Ok(())
    };

    let sensor_pos = d.points()?;
    per_sensor(sensor_pos.len(), "sensor positions")?;
    let n_batteries = d.len()?;
    per_sensor(n_batteries, "batteries")?;
    let batteries: Vec<Battery> = (0..n_batteries)
        .map(|_| decode_battery(&mut d))
        .collect::<Result<_>>()?;
    let was_depleted = d.bools()?;
    per_sensor(was_depleted.len(), "was-depleted flags")?;

    let target_pos = d.points()?;
    let target_next_move = d.f64s()?;
    let target_waypoint = d.points()?;
    let target_anchor = d.points()?;
    if target_pos.len() != cfg.num_targets
        || target_next_move.len() != cfg.num_targets
        || target_waypoint.len() != cfg.num_targets
        || target_anchor.len() != cfg.num_targets
    {
        return Err(SnapshotError::Corrupt(format!(
            "target columns disagree with the configured {} targets",
            cfg.num_targets
        )));
    }

    let n_clusters = d.len()?;
    let clusters = ClusterSet::new(
        (0..n_clusters)
            .map(|_| {
                Ok(Cluster {
                    target: TargetId(d.u32()?),
                    members: d.sensor_ids()?,
                })
            })
            .collect::<Result<Vec<_>>>()?,
    );
    let n_assign = d.len()?;
    per_sensor(n_assign, "cluster assignment")?;
    let assignment: Vec<Option<ClusterId>> = (0..n_assign)
        .map(|_| Ok(d.opt_u32()?.map(ClusterId)))
        .collect::<Result<_>>()?;
    let n_rotas = d.len()?;
    if n_rotas != n_clusters {
        return Err(SnapshotError::Corrupt(format!(
            "{n_rotas} rotas for {n_clusters} clusters"
        )));
    }
    let rotas: Vec<RoundRobinRota> = (0..n_rotas)
        .map(|_| {
            let members = d.sensor_ids()?;
            let cursor = d.count()?;
            if members.is_empty() || cursor >= members.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "rota cursor {cursor} invalid for {} members",
                    members.len()
                )));
            }
            Ok(RoundRobinRota::restore(members, cursor))
        })
        .collect::<Result<_>>()?;
    let next_slot = d.f64()?;

    let n_groups_of = d.len()?;
    per_sensor(n_groups_of, "group membership")?;
    let group_of: Vec<Option<u32>> = (0..n_groups_of)
        .map(|_| d.opt_u32())
        .collect::<Result<_>>()?;
    let n_groups = d.len()?;
    let groups: Vec<(u32, u32)> = (0..n_groups)
        .map(|_| Ok((d.u32()?, d.u32()?)))
        .collect::<Result<_>>()?;
    let group_arena = d.sensor_ids()?;

    let n_loads = d.len()?;
    if n_loads != n + 1 {
        return Err(SnapshotError::Corrupt(format!(
            "{n_loads} traffic loads for {n} sensors (+ sink)"
        )));
    }
    let loads: Vec<TrafficLoad> = (0..n_loads)
        .map(|_| {
            Ok(TrafficLoad {
                tx_pps: d.f64()?,
                rx_pps: d.f64()?,
            })
        })
        .collect::<Result<_>>()?;
    let active = d.bools()?;
    per_sensor(active.len(), "active flags")?;
    let dormant = d.bools()?;
    per_sensor(dormant.len(), "dormant flags")?;
    let dirty = d.bool()?;

    let pending = d.bools()?;
    let released = d.bools()?;
    let assigned = d.bools()?;
    let released_at = d.f64s()?;
    let attempts = d.u32s()?;
    let retry_at = d.f64s()?;
    per_sensor(pending.len(), "request board")?;
    if released.len() != n
        || assigned.len() != n
        || released_at.len() != n
        || attempts.len() != n
        || retry_at.len() != n
    {
        return Err(SnapshotError::Corrupt(
            "request-board columns disagree".into(),
        ));
    }
    let board =
        RequestBoard::from_raw(pending, released, assigned, released_at, attempts, retry_at);
    let next_plan_ok = d.f64()?;
    let dispatching = d.bool()?;

    let n_rvs = d.len()?;
    if n_rvs != cfg.num_rvs {
        return Err(SnapshotError::Corrupt(format!(
            "{n_rvs} RVs for a {}-RV config",
            cfg.num_rvs
        )));
    }
    let rvs: Vec<RvAgent> = (0..n_rvs)
        .map(|_| decode_rv(&mut d))
        .collect::<Result<_>>()?;

    let travel_distance_m = d.f64()?;
    let travel_energy_j = d.f64()?;
    let recharged_j = d.f64()?;
    let recharge_visits = d.u64()?;
    let coverage_series = decode_series(&mut d)?;
    let nonfunctional_series = decode_series(&mut d)?;
    let operational_series = decode_series(&mut d)?;
    let metrics = EvalMetrics::restore(
        travel_distance_m,
        travel_energy_j,
        recharged_j,
        recharge_visits,
        coverage_series,
        nonfunctional_series,
        operational_series,
    );
    let next_sample = d.f64()?;
    let total_drained_j = d.f64()?;
    let total_delivered_j = d.f64()?;
    let deaths = d.u64()?;
    let plans = d.u64()?;
    let rv_shortfall_j = d.f64()?;

    let failed = d.bools()?;
    per_sensor(failed.len(), "failed flags")?;
    let failures = d.u64()?;

    let trace_enabled = d.bool()?;
    let trace_cap = d.count()?;
    let trace_dropped = d.u64()?;
    let n_events = d.len()?;
    if trace_enabled && n_events > trace_cap {
        return Err(SnapshotError::Corrupt(format!(
            "{n_events} trace events over cap {trace_cap}"
        )));
    }
    if !trace_enabled && n_events != 0 {
        return Err(SnapshotError::Corrupt(
            "disabled trace carries events".into(),
        ));
    }
    let events: Vec<TraceEvent> = (0..n_events)
        .map(|_| decode_trace_event(&mut d))
        .collect::<Result<_>>()?;
    let trace = Trace::restore(events, trace_enabled, trace_cap, trace_dropped);

    let suspended = d.bools()?;
    per_sensor(suspended.len(), "suspended flags")?;
    let suspend_until = d.f64s()?;
    per_sensor(suspend_until.len(), "suspend deadlines")?;
    let transient_faults = d.u64()?;
    let rv_breakdowns = d.u64()?;
    let uplink_drops = d.u64()?;
    let replan_urgent = d.bool()?;

    let initial_sensor_j = d.f64()?;
    let failure_lost_j = d.f64()?;
    let initial_fleet_j = d.f64()?;
    let rv_input_j = d.f64()?;
    let rv_drawn_j = d.f64()?;

    d.finish()?;

    // Re-derive everything that is a pure function of config + stored
    // state: the base, the comm graph over [base, sensors…], the ERP
    // controller, the scheduler (from the stored seed), the coverage
    // cache (recounted from ground truth).
    let base = Field::new(cfg.field_side).center();
    let mut node_pos = Vec::with_capacity(n + 1);
    node_pos.push(base);
    node_pos.extend_from_slice(&sensor_pos);
    let graph = CommGraph::build(&node_pos, cfg.comm_range);
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
        clusters,
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
        // crossing bookkeeping restarts all-pending (the first post-resume
        // scan examines every sensor, exactly like the pending full
        // routing refresh above), and cluster repair falls back to one
        // wholesale rebuild to re-establish its baseline (byte-identical
        // to incremental by contract, DESIGN.md §4f/§4j).
        crossings: engine::CrossingState::new_all_pending(n),
        repair: None,
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
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

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
