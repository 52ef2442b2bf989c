//! Simulation configuration with the paper's Table II defaults.

use serde::{Deserialize, Serialize};
use wrsn_core::SchedulerKind;
use wrsn_energy::{units, ChargeModel, RvEnergyModel, SensorEnergyProfile};
use wrsn_geom::Deployment;

/// How the monitored targets move.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TargetMobility {
    /// The paper's model: a target stays for the *target period*, then
    /// reappears at a uniformly random location.
    RandomTeleport,
    /// Continuous random-waypoint motion at the given speed (m/s): walk to
    /// a uniformly random waypoint, pick another, repeat. Clusters are
    /// rebuilt once a target has strayed half a sensing radius from where
    /// they were last formed.
    RandomWaypoint {
        /// Walking speed (m/s).
        speed_mps: f64,
    },
    /// Targets never move (e.g. fixed installations to guard).
    Static,
}

/// §III sensor-activity management switches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivityConfig {
    /// Round-robin activation (§III-C). `false` = every cluster member
    /// monitors full-time (the prior-work behaviour the paper compares
    /// against in Fig. 4).
    pub round_robin: bool,
    /// Energy Request Control (§III-B): `Some(K)` holds cluster requests
    /// until the below-threshold fraction reaches the ERP value `K`;
    /// `None` disables ERC (every sensor requests immediately, equivalent
    /// to `K = 0`).
    pub erp: Option<f64>,
}

impl ActivityConfig {
    /// The paper's full scheme: round-robin + ERC at the given `K`.
    pub fn managed(k: f64) -> Self {
        Self {
            round_robin: true,
            erp: Some(k),
        }
    }

    /// Prior-work behaviour: all sensors active, immediate requests.
    pub fn legacy() -> Self {
        Self {
            round_robin: false,
            erp: None,
        }
    }

    /// Effective ERP value (disabled ERC behaves like `K = 0`).
    pub fn effective_k(&self) -> f64 {
        self.erp.unwrap_or(0.0)
    }
}

/// Pluggable fault-injection plan (the chaos engine's configuration).
///
/// Three independent fault classes, each disabled at rate/probability 0
/// (the default). The engine draws from the shared RNG **only when a
/// class is enabled**, so a config with every rate at zero takes the
/// exact same random draws as one that predates the chaos engine —
/// zero-fault runs are byte-identical, which the regression tests pin.
///
/// * **RV breakdowns** — a vehicle fails mid-tour (Poisson per RV),
///   returns its remaining stops to the request board, and sits in
///   [`crate::RvPhase::Broken`] for a sampled repair time while the
///   dispatcher replans around the shrunken fleet.
/// * **Lossy request uplink** — the §III-B release/ack exchange between a
///   request group and the base station drops with probability
///   [`uplink_loss`](Self::uplink_loss); the cluster retransmits with
///   capped exponential backoff (the paper's notification/ack protocol
///   under loss).
/// * **Transient sensor faults** — recoverable outages (reboot, radio
///   wedge) that suspend a sensor for a sampled duration without touching
///   its battery, exercising the rota-failover and routing-revival paths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Expected breakdowns per RV per day (Poisson). 0 disables.
    pub rv_breakdowns_per_day: f64,
    /// Repair-duration range `(lo, hi)` in seconds, sampled uniformly per
    /// breakdown.
    pub rv_repair_s: (f64, f64),
    /// Probability that one release/ack uplink exchange is lost. Must be
    /// `< 1` (at 1 no request would ever get through). 0 disables.
    pub uplink_loss: f64,
    /// Initial retransmit backoff (s); doubles per consecutive loss.
    pub uplink_backoff_s: f64,
    /// Backoff cap (s) for the exponential retransmit schedule.
    pub uplink_backoff_cap_s: f64,
    /// Expected transient outages per sensor per day (Poisson). 0 disables.
    pub transients_per_day: f64,
    /// Outage-duration range `(lo, hi)` in seconds, sampled uniformly per
    /// transient fault.
    pub transient_outage_s: (f64, f64),
}

impl FaultConfig {
    /// No faults at all — the default, and the paper's environment.
    /// Duration/backoff knobs keep sensible values so enabling a rate is
    /// a one-field change.
    pub fn none() -> Self {
        Self {
            rv_breakdowns_per_day: 0.0,
            rv_repair_s: (units::hours(2.0), units::hours(8.0)),
            uplink_loss: 0.0,
            uplink_backoff_s: 60.0,
            uplink_backoff_cap_s: units::hours(1.0),
            transients_per_day: 0.0,
            transient_outage_s: (units::minutes(5.0), units::hours(1.0)),
        }
    }

    /// Stable 64-bit content hash of the fault plan (FNV-1a over the
    /// snapshot codec's canonical encoding, f64s as IEEE bits). Equal
    /// plans hash equal across processes; any field change changes it.
    pub fn content_hash(&self) -> u64 {
        crate::snapshot::content_hash(self)
    }

    /// Whether any fault class is enabled.
    pub fn any_enabled(&self) -> bool {
        self.rv_breakdowns_per_day > 0.0 || self.uplink_loss > 0.0 || self.transients_per_day > 0.0
    }

    /// Sanity checks, called from [`SimConfig::validate`].
    ///
    /// # Panics
    /// Panics with a description on the first violated constraint.
    pub fn validate(&self) {
        let finite_nonneg = |v: f64, name: &str| {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be finite and ≥ 0, got {v}"
            );
        };
        finite_nonneg(self.rv_breakdowns_per_day, "RV breakdown rate");
        finite_nonneg(self.transients_per_day, "transient fault rate");
        assert!(
            self.uplink_loss.is_finite() && (0.0..1.0).contains(&self.uplink_loss),
            "uplink loss must be in [0, 1), got {}",
            self.uplink_loss
        );
        for (range, name) in [
            (self.rv_repair_s, "RV repair time"),
            (self.transient_outage_s, "transient outage"),
        ] {
            let (lo, hi) = range;
            assert!(
                lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi,
                "{name} range must satisfy 0 ≤ lo ≤ hi, got ({lo}, {hi})"
            );
        }
        assert!(
            self.uplink_backoff_s.is_finite() && self.uplink_backoff_s > 0.0,
            "uplink backoff must be positive"
        );
        assert!(
            self.uplink_backoff_cap_s.is_finite()
                && self.uplink_backoff_cap_s >= self.uplink_backoff_s,
            "backoff cap must be ≥ the initial backoff"
        );
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Full simulation configuration. [`SimConfig::paper_defaults`] matches the
/// paper's Table II; every knob is public so experiments can sweep it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of sensors `N` (Table II: 500).
    pub num_sensors: usize,
    /// Number of targets `M` (Table II: 15).
    pub num_targets: usize,
    /// Number of RVs `m` (Table II: 3).
    pub num_rvs: usize,
    /// Field side length `L` in meters (Table II: 200).
    pub field_side: f64,
    /// Communication range `d_c` in meters (Table II: 12).
    pub comm_range: f64,
    /// Sensing range `d_s` in meters (Table II: 8).
    pub sensing_range: f64,
    /// Simulated duration in seconds (Table II: 120 days).
    pub duration_s: f64,
    /// Target dwell period in seconds (Table II: 3 hours).
    pub target_period_s: f64,
    /// Target mobility model (the paper's is [`TargetMobility::RandomTeleport`]).
    pub target_mobility: TargetMobility,
    /// Sensor placement strategy (the paper's is
    /// [`Deployment::UniformRandom`], §II-B).
    pub deployment: Deployment,
    /// Recharge threshold as a fraction of battery capacity
    /// (Table II: 50 %).
    pub recharge_threshold_frac: f64,
    /// State-of-charge below which a request is flagged *critical* and
    /// prioritized in routes (§III-C; not in Table II — engine constant).
    pub critical_soc: f64,
    /// Data generation rate of an actively sensing node, packets per second
    /// (§V: λ = 15 pkt/min).
    pub data_rate_pps: f64,
    /// Duty cycle of the detector on sensors that are not actively
    /// monitoring (duty-cycled watch so newly appearing targets are still
    /// detected). 0 = detector fully off when not monitoring.
    pub watch_duty: f64,
    /// Sensor device energy profile (CC2480 + PIR + 20-byte packets).
    pub sensor_profile: SensorEnergyProfile,
    /// Sensor battery capacity in Joules (2×AAA Ni-MH ≈ 10.8 kJ).
    pub battery_capacity_j: f64,
    /// Initial state-of-charge range `(lo, hi)`: each sensor starts at a
    /// uniformly random fraction of capacity inside it. Randomizing skips
    /// the cold-start transient in which no sensor needs recharging.
    pub initial_soc: (f64, f64),
    /// Sensor battery charging model (Ni-MH taper by default; switch to
    /// [`ChargeModel::ideal`] for the charge-curve ablation).
    pub charge_model: ChargeModel,
    /// Failure injection: expected permanent hardware failures per sensor
    /// per day (Poisson). Failed sensors cannot be recharged; RVs skip
    /// them. 0 disables (default).
    pub permanent_failures_per_day: f64,
    /// Battery self-discharge as a fraction of the *current level* per day
    /// (Ni-MH cells lose roughly 0.5–1 %/day; 0 disables, the default, to
    /// keep the paper-figure calibration unchanged).
    pub self_discharge_per_day: f64,
    /// RV kinematics/energy model (5.6 J/m, 1 m/s, …).
    pub rv_model: RvEnergyModel,
    /// Power (W) at which the base station recharges an RV's own battery.
    pub base_charge_power_w: f64,
    /// Activity management switches.
    pub activity: ActivityConfig,
    /// Recharge scheduling scheme.
    pub scheduler: SchedulerKind,
    /// Chaos-engine fault plan ([`FaultConfig::none`] by default — the
    /// paper's fault-free environment).
    pub faults: FaultConfig,
    /// Round-robin slot length in seconds.
    pub slot_s: f64,
    /// Engine tick in seconds (energy integration step).
    pub tick_s: f64,
    /// Cool-down after a planning round that produced nothing, seconds
    /// (avoids re-planning an infeasible board every tick).
    pub replan_cooldown_s: f64,
    /// Dispatch batching: the planner waits until this much unassigned
    /// demand (J) has accumulated in the recharge node list before sending
    /// RVs out, so tours are long and travel-efficient. Critical requests,
    /// aged requests, and an already-active dispatch wave bypass the batch.
    pub min_batch_demand_j: f64,
    /// Dispatch batching: a request older than this (s) triggers planning
    /// even when the batch is not full.
    pub max_request_age_s: f64,
    /// Metrics sampling interval in seconds.
    pub sample_every_s: f64,
    /// Simulated duration in days (redundant with `duration_s`; kept for
    /// reports).
    pub duration_days: f64,
}

impl SimConfig {
    /// Table II parameter settings plus the §V device constants.
    pub fn paper_defaults() -> Self {
        Self {
            num_sensors: 500,
            num_targets: 15,
            num_rvs: 3,
            field_side: 200.0,
            comm_range: 12.0,
            sensing_range: 8.0,
            duration_s: units::days(120.0),
            target_period_s: units::hours(3.0),
            target_mobility: TargetMobility::RandomTeleport,
            deployment: Deployment::UniformRandom,
            recharge_threshold_frac: 0.5,
            critical_soc: 0.2,
            data_rate_pps: 15.0 / 60.0,
            watch_duty: 0.1,
            sensor_profile: SensorEnergyProfile::cc2480_pir(),
            battery_capacity_j: units::battery_energy_j(1000.0, 3.0),
            initial_soc: (0.6, 1.0),
            charge_model: ChargeModel::nimh(),
            permanent_failures_per_day: 0.0,
            self_discharge_per_day: 0.0,
            rv_model: RvEnergyModel::paper_defaults(),
            base_charge_power_w: 200.0,
            activity: ActivityConfig::managed(0.6),
            scheduler: SchedulerKind::Combined,
            faults: FaultConfig::none(),
            slot_s: units::minutes(10.0),
            tick_s: 60.0,
            replan_cooldown_s: units::minutes(10.0),
            min_batch_demand_j: 60e3,
            max_request_age_s: units::hours(12.0),
            sample_every_s: units::minutes(10.0),
            duration_days: 120.0,
        }
    }

    /// A scaled-down copy for quick experiments and tests: `days` of
    /// simulated time over a quarter-size network.
    pub fn small(days: f64) -> Self {
        let mut cfg = Self::paper_defaults();
        cfg.num_sensors = 125;
        cfg.num_targets = 5;
        cfg.num_rvs = 2;
        cfg.field_side = 100.0;
        cfg.duration_s = units::days(days);
        cfg.duration_days = days;
        cfg
    }

    /// Stable 64-bit content hash of the full configuration — every field
    /// including nested device models and the [`FaultConfig`] plan —
    /// computed as FNV-1a over the snapshot codec's canonical encoding
    /// (f64s as IEEE bits). Equal configs hash equal across processes and
    /// runs; the run journal uses it to refuse resuming a sweep whose
    /// config drifted.
    pub fn content_hash(&self) -> u64 {
        crate::snapshot::content_hash(self)
    }

    /// Basic sanity checks, called by the engine at construction.
    ///
    /// # Panics
    /// Panics with a description on the first violated constraint.
    pub fn validate(&self) {
        assert!(self.num_sensors > 0, "need at least one sensor");
        // A NaN passes every `>`/`<=` comparison assert below (all
        // comparisons with NaN are false, so `assert!(x > 0.0)` fires but
        // `assert!(a <= b)`-style guards don't compose safely) and would
        // produce a silently hung or garbage run — reject non-finite
        // values up front, before the range checks.
        for (v, name) in [
            (self.field_side, "field side"),
            (self.comm_range, "comm range"),
            (self.sensing_range, "sensing range"),
            (self.duration_s, "duration"),
            (self.target_period_s, "target period"),
            (self.recharge_threshold_frac, "recharge threshold"),
            (self.critical_soc, "critical SoC"),
            (self.data_rate_pps, "data rate"),
            (self.watch_duty, "watch duty"),
            (self.battery_capacity_j, "battery capacity"),
            (self.permanent_failures_per_day, "failure rate"),
            (self.self_discharge_per_day, "self-discharge rate"),
            (self.base_charge_power_w, "base charge power"),
            (self.slot_s, "slot length"),
            (self.tick_s, "tick"),
            (self.replan_cooldown_s, "replan cooldown"),
            (self.min_batch_demand_j, "batch demand"),
            (self.max_request_age_s, "max request age"),
            (self.sample_every_s, "sample interval"),
        ] {
            assert!(v.is_finite(), "{name} must be finite, got {v}");
        }
        assert!(
            self.battery_capacity_j > 0.0,
            "battery capacity must be positive"
        );
        assert!(
            self.permanent_failures_per_day >= 0.0 && self.self_discharge_per_day >= 0.0,
            "failure and self-discharge rates must be non-negative"
        );
        // num_rvs == 0 is allowed: the no-recharging baseline that
        // motivates WRSNs in the first place.
        assert!(self.field_side > 0.0, "field must be non-degenerate");
        assert!(
            self.sensing_range > 0.0 && self.comm_range > 0.0,
            "ranges must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.recharge_threshold_frac),
            "recharge threshold must be a fraction"
        );
        assert!(
            (0.0..=1.0).contains(&self.critical_soc),
            "critical SoC must be a fraction"
        );
        let (lo, hi) = self.initial_soc;
        assert!(
            (0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi) && lo <= hi,
            "initial SoC range must satisfy 0 ≤ lo ≤ hi ≤ 1, got ({lo}, {hi})"
        );
        if let Some(k) = self.activity.erp {
            assert!((0.0..=1.0).contains(&k), "ERP must be in [0,1], got {k}");
        }
        assert!(
            self.tick_s > 0.0 && self.tick_s <= self.slot_s,
            "tick must divide into slots"
        );
        assert!(self.duration_s > 0.0, "duration must be positive");
        self.faults.validate();
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_defaults() {
        let c = SimConfig::paper_defaults();
        assert_eq!(c.num_sensors, 500);
        assert_eq!(c.num_targets, 15);
        assert_eq!(c.num_rvs, 3);
        assert_eq!(c.field_side, 200.0);
        assert_eq!(c.comm_range, 12.0);
        assert_eq!(c.sensing_range, 8.0);
        assert_eq!(c.duration_s, 120.0 * 86_400.0);
        assert_eq!(c.target_period_s, 3.0 * 3_600.0);
        assert_eq!(c.recharge_threshold_frac, 0.5);
        assert!((c.rv_model.move_j_per_m - 5.6).abs() < 1e-12);
        assert!((c.rv_model.speed_mps - 1.0).abs() < 1e-12);
        assert!((c.data_rate_pps - 0.25).abs() < 1e-12);
        c.validate();
    }

    #[test]
    fn activity_presets() {
        let managed = ActivityConfig::managed(0.6);
        assert!(managed.round_robin);
        assert_eq!(managed.effective_k(), 0.6);
        let legacy = ActivityConfig::legacy();
        assert!(!legacy.round_robin);
        assert_eq!(legacy.effective_k(), 0.0);
    }

    #[test]
    #[should_panic(expected = "ERP must be in")]
    fn invalid_erp_rejected() {
        let mut c = SimConfig::paper_defaults();
        c.activity.erp = Some(2.0);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "tick must be finite")]
    fn nan_tick_rejected() {
        let mut c = SimConfig::paper_defaults();
        c.tick_s = f64::NAN;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "duration must be finite")]
    fn infinite_duration_rejected() {
        let mut c = SimConfig::paper_defaults();
        c.duration_s = f64::INFINITY;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "battery capacity must be finite")]
    fn nan_battery_capacity_rejected() {
        let mut c = SimConfig::paper_defaults();
        c.battery_capacity_j = f64::NAN;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "failure rate must be finite")]
    fn nan_failure_rate_rejected() {
        let mut c = SimConfig::paper_defaults();
        c.permanent_failures_per_day = f64::NAN;
        c.validate();
    }

    #[test]
    fn default_faults_are_disabled_and_valid() {
        let f = FaultConfig::none();
        assert!(!f.any_enabled());
        f.validate();
        let mut on = f;
        on.uplink_loss = 0.3;
        assert!(on.any_enabled());
        on.validate();
    }

    #[test]
    #[should_panic(expected = "uplink loss must be in [0, 1)")]
    fn certain_uplink_loss_rejected() {
        let mut c = SimConfig::paper_defaults();
        c.faults.uplink_loss = 1.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "RV repair time range")]
    fn inverted_repair_range_rejected() {
        let mut c = SimConfig::paper_defaults();
        c.faults.rv_repair_s = (100.0, 10.0);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "transient fault rate must be finite")]
    fn nan_transient_rate_rejected() {
        let mut c = SimConfig::paper_defaults();
        c.faults.transients_per_day = f64::NAN;
        c.validate();
    }

    #[test]
    fn config_is_serializable_and_cloneable() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<SimConfig>();
        let c = SimConfig::small(2.0);
        assert_eq!(c.clone(), c);
        assert_eq!(c.num_sensors, 125);
        c.validate();
    }
}
