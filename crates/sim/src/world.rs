//! The simulation engine façade: §V's evaluation environment as a
//! deterministic discrete-time world.
//!
//! All engine logic lives in the [`crate::engine`] subsystem modules;
//! [`World`] owns the shared [`engine::WorldState`] and sequences the
//! subsystems into the per-tick phase pipeline documented on
//! [`World::step`].

use crate::engine::{self, WorldState};
use crate::{RvAgent, SimConfig};
use wrsn_core::{ClusterSet, SensorId};
use wrsn_geom::Point2;
use wrsn_metrics::EvalReport;

/// Final outcome of a run: the paper-facing report plus engine diagnostics
/// used by the conservation/invariant tests.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The §V metrics (travel energy, coverage, nonfunctional %, …).
    pub report: EvalReport,
    /// Total energy drained from sensor batteries (J).
    pub total_drained_j: f64,
    /// Total energy delivered into sensor batteries by RVs (J).
    pub total_delivered_j: f64,
    /// Battery-depletion events.
    pub deaths: u64,
    /// Planning rounds that produced at least one route.
    pub plans: u64,
    /// Energy the RVs wanted but their batteries couldn't supply (J);
    /// should be ~0 when the reserve policy is sane.
    pub rv_energy_shortfall_j: f64,
    /// Sensors alive at the end of the run.
    pub final_alive: usize,
    /// Permanent hardware failures injected (failure-injection runs).
    pub permanent_failures: u64,
    /// Mean fraction of RV time spent actually charging sensors (0 with
    /// no RVs) — the fleet's useful-work ratio.
    pub rv_charging_utilization: f64,
    /// RV breakdown events injected by the chaos engine.
    pub rv_breakdowns: u64,
    /// Transient sensor outages injected by the chaos engine.
    pub transient_faults: u64,
    /// Release/ack uplink exchanges lost by the chaos engine.
    pub uplink_drops: u64,
}

/// Wall-clock nanoseconds spent in each phase of one [`World::step_timed`]
/// tick — the per-phase breakdown behind `results/BENCH_tick.json`.
///
/// Phase numbering follows [`World::step`]'s pipeline docs; phases 3–4
/// (chaos + failure injection) share one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTimings {
    /// Phase 1 — target motion + cluster repair/rebuild.
    pub mobility_ns: u64,
    /// Phase 2 — round-robin slot handover.
    pub activity_ns: u64,
    /// Phases 3–4 — chaos engine + permanent failure injection.
    pub faults_ns: u64,
    /// Phase 5 — event-incremental routing/activity refresh.
    pub routing_ns: u64,
    /// Phase 6 — the drain-rate column refresh + battery-drain kernel.
    pub drain_ns: u64,
    /// Phase 7 — crossing-prediction request scan + batched planning.
    pub dispatch_ns: u64,
    /// Phase 8 — RV fleet execution.
    pub fleet_ns: u64,
    /// Phase 9 — metrics sampling (coverage ratio, alive count).
    pub sample_ns: u64,
}

/// Picks the [`StepTimings`] bucket a pipeline phase's time goes to.
type Bucket = fn(&mut StepTimings) -> &mut u64;

impl StepTimings {
    /// Sum over all phases (ns).
    pub fn total_ns(&self) -> u64 {
        self.mobility_ns
            + self.activity_ns
            + self.faults_ns
            + self.routing_ns
            + self.drain_ns
            + self.dispatch_ns
            + self.fleet_ns
            + self.sample_ns
    }
}

/// The simulated world. Construct with [`World::new`], then either call
/// [`World::run`] or drive [`World::step`] tick by tick.
pub struct World {
    state: WorldState,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("t", &self.state.t)
            .field("seed", &self.state.seed)
            .finish_non_exhaustive()
    }
}

impl World {
    /// Builds the world from a configuration and a seed. Identical
    /// `(config, seed)` pairs produce identical runs.
    pub fn new(cfg: &SimConfig, seed: u64) -> Self {
        Self {
            state: WorldState::new(cfg, seed),
        }
    }

    /// The engine state, for unit tests that audit derived state.
    #[cfg(test)]
    pub(crate) fn state(&self) -> &WorldState {
        &self.state
    }

    /// Current simulation time (s).
    pub fn time(&self) -> f64 {
        self.state.t
    }

    /// Whether the configured duration has elapsed.
    pub fn finished(&self) -> bool {
        self.state.t >= self.state.cfg.duration_s
    }

    /// Sensors with non-depleted batteries.
    pub fn alive_count(&self) -> usize {
        self.state.alive_count()
    }

    /// Battery state of sensor `s`, materialized from the SoA columns
    /// (returned by value — the engine no longer stores `Battery`
    /// structs per sensor).
    pub fn battery(&self, s: SensorId) -> wrsn_energy::Battery {
        self.state.sensors.battery(s.index())
    }

    /// The RV agents (read-only view for tests/examples).
    pub fn rvs(&self) -> &[RvAgent] {
        &self.state.rvs
    }

    /// The current cluster set.
    pub fn clusters(&self) -> &ClusterSet {
        &self.state.clusters
    }

    /// Current target positions.
    pub fn targets(&self) -> &[Point2] {
        &self.state.target_pos
    }

    /// Fraction of coverable targets currently monitored by a live sensor
    /// — Fig. 6(b)'s coverage ratio. O(clusters): one round-robin rota
    /// probe per cluster, which fails over to any on-duty member.
    pub fn coverage_ratio(&self) -> f64 {
        self.state.coverage_ratio()
    }

    /// Full recount of [`World::alive_count`] (rescans every battery) —
    /// the oracle for the exact alive counter.
    pub fn oracle_alive_count(&self) -> usize {
        self.state.sensors.count_alive()
    }

    /// `(covered, total)` cluster counts — the integer form of
    /// [`World::coverage_ratio`], for diagnostics and the ASCII renderer.
    pub fn covered_clusters(&self) -> (usize, usize) {
        engine::coverage::covered_clusters(&self.state)
    }

    /// The configuration the world was built with.
    pub fn config(&self) -> &SimConfig {
        &self.state.cfg
    }

    /// All sensor positions (fixed for the run).
    pub fn sensor_positions(&self) -> &[Point2] {
        &self.state.sensor_pos
    }

    /// Whether sensor `s` is actively monitoring a target this slot.
    pub fn is_active(&self, s: SensorId) -> bool {
        self.state.sensors.active(s.index())
    }

    /// Enables event tracing, retaining at most `cap` events.
    pub fn enable_trace(&mut self, cap: usize) {
        self.state.trace = crate::Trace::enabled(cap);
    }

    /// The event trace (empty unless [`World::enable_trace`] was called).
    pub fn trace(&self) -> &crate::Trace {
        &self.state.trace
    }

    /// The live evaluation metrics (travel ledgers + the coverage /
    /// nonfunctional / operational time series the sample phase appends
    /// to). The run store's recorder reads the series tails here to
    /// journal per-sample metrics without touching the engine.
    pub fn metrics(&self) -> &wrsn_metrics::EvalMetrics {
        &self.state.metrics
    }

    /// Permanent hardware failures injected so far.
    pub fn failures(&self) -> u64 {
        self.state.failures
    }

    /// Whether sensor `s` has permanently failed.
    pub fn is_failed(&self, s: SensorId) -> bool {
        self.state.sensors.failed(s.index())
    }

    /// Runs to the configured duration and returns the outcome.
    ///
    /// Equivalent to calling [`World::step`] until [`World::finished`],
    /// then [`World::outcome`] — a property the engine tests pin down.
    pub fn run(&mut self) -> SimOutcome {
        while !self.finished() {
            self.step();
        }
        self.outcome()
    }

    /// The outcome so far (can be taken mid-run).
    pub fn outcome(&self) -> SimOutcome {
        let state = &self.state;
        SimOutcome {
            report: state.metrics.report(),
            total_drained_j: engine::energy::total_j(state.total_drained),
            total_delivered_j: engine::energy::total_j(state.total_delivered),
            deaths: state.deaths,
            plans: state.plans,
            rv_energy_shortfall_j: state.rv_shortfall_j,
            final_alive: state.alive_count(),
            permanent_failures: state.failures,
            rv_charging_utilization: if state.rvs.is_empty() {
                0.0
            } else {
                state
                    .rvs
                    .iter()
                    .map(|rv| rv.charging_utilization())
                    .sum::<f64>()
                    / state.rvs.len() as f64
            },
            rv_breakdowns: state.rv_breakdowns,
            transient_faults: state.transient_faults,
            uplink_drops: state.uplink_drops,
        }
    }

    /// Advances the world by one tick: the engine phase pipeline.
    ///
    /// Each numbered phase is one subsystem call (see the `engine` module);
    /// the order is part of the determinism contract — subsystems draw
    /// from the shared RNG in pipeline order.
    pub fn step(&mut self) {
        self.run_phases(|_| {});
    }

    /// The phase pipeline of [`World::step`] and [`World::step_timed`]:
    /// calls `lap` with each phase's [`StepTimings`] bucket right after
    /// the phase ran (a no-op for `step`, a stopwatch for `step_timed`).
    fn run_phases(&mut self, mut lap: impl FnMut(Bucket)) {
        let state = &mut self.state;
        let dt = state.cfg.tick_s;

        // 1. Mobility: target motion, rebuilding clustering when coverage
        //    may have changed.
        engine::mobility::step_targets(state, dt);
        lap(|t| &mut t.mobility_ns);

        // 2. Activity: round-robin slot handover…
        engine::activity::advance_slots(state);
        lap(|t| &mut t.activity_ns);

        // 3. Chaos engine: transient-outage resume/suspend and RV
        //    repair/breakdown (draws no RNG when all fault rates are 0).
        engine::faults::step(state, dt);

        // 4. Energy: failure injection (Poisson per-sensor hardware
        //    faults; returns immediately — touching no RNG — at rate 0).
        engine::energy::inject_failures(state, dt);
        lap(|t| &mut t.faults_ns);

        // 5. …activity/routing/relay-load refresh where phases 1–4 left
        //    them stale: replays the dirty queues event-incrementally, or
        //    falls back to a full rebuild after cluster changes.
        if state.routing_dirty.any() {
            engine::activity::refresh_routing(state);
        }
        lap(|t| &mut t.routing_ns);

        // 6. …then sensor battery drain under the refreshed loads.
        engine::energy::drain_sensors(state, dt);
        lap(|t| &mut t.drain_ns);

        // 7. Dispatch: request-board upkeep (threshold checks + ERC
        //    gating, lossy-uplink retransmits), then batched recharge
        //    planning under hysteresis.
        engine::dispatch::manage_requests(state);
        if state.t >= state.next_plan_ok && engine::dispatch::should_plan(state) {
            engine::dispatch::plan_routes(state);
        }
        lap(|t| &mut t.dispatch_ns);

        // 8. Fleet: RV execution (movement / charging / self-charge /
        //    broken), exact in sub-tick time.
        for i in 0..state.rvs.len() {
            engine::fleet::step_rv(state, i, dt);
        }
        lap(|t| &mut t.fleet_ns);

        // 9. Metrics sampling: the alive counter is exact, the coverage
        //    ratio one rota probe per cluster.
        if state.t >= state.next_sample {
            state.next_sample = state.t + state.cfg.sample_every_s;
            let alive = state.alive_count();
            let nonfunctional = 1.0 - alive as f64 / state.cfg.num_sensors.max(1) as f64;
            let coverage = state.coverage_ratio();
            state
                .metrics
                .sample(state.t, coverage, nonfunctional, alive);
        }

        state.t += dt;
        lap(|t| &mut t.sample_ns);

        // In debug builds, audit the whole-state invariants every tick —
        // every test run doubles as a consistency sweep.
        #[cfg(debug_assertions)]
        if let Err(violation) = engine::invariants::check(state) {
            panic!("invariant violated at t = {} s: {violation}", state.t);
        }
    }

    /// Runs the whole-state consistency checker (energy conservation,
    /// board/route/phase agreement, fault ledgers) and returns the first
    /// violation, if any. [`World::step`] does this automatically after
    /// every tick in debug builds; release-mode tests call it explicitly.
    pub fn check_invariants(&self) -> Result<(), String> {
        engine::invariants::check(&self.state)
    }

    /// Serializes the full world into a versioned binary snapshot (see
    /// [`crate::snapshot`]). Resuming from it with [`World::resume`] and
    /// stepping to any later tick is bit-identical to never having
    /// paused — traces, metrics and energy ledgers included.
    pub fn save_snapshot(&self) -> Vec<u8> {
        crate::snapshot::encode(&self.state)
    }

    /// Writes [`World::save_snapshot`] to `path` atomically (temp file +
    /// rename), so a crash mid-write can never leave a torn checkpoint.
    pub fn save_snapshot_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("snap.tmp");
        std::fs::write(&tmp, self.save_snapshot())?;
        std::fs::rename(&tmp, path)
    }

    /// Rebuilds a world from a snapshot produced by
    /// [`World::save_snapshot`]. The continuation is bit-identical to the
    /// uninterrupted run.
    pub fn resume(bytes: &[u8]) -> Result<Self, crate::snapshot::SnapshotError> {
        Ok(Self {
            state: crate::snapshot::decode(bytes)?,
        })
    }

    /// [`World::resume`] from a file written by [`World::save_snapshot_to`].
    pub fn resume_from(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        Self::resume(&std::fs::read(path)?)
    }

    /// The request board (read-only view for tests/diagnostics).
    pub fn board(&self) -> &crate::RequestBoard {
        &self.state.board
    }

    /// Number of stored §III-A request groups, live or superseded
    /// (diagnostics: refreshes compact them once past twice the sensor
    /// count).
    pub fn request_group_count(&self) -> usize {
        self.state.groups.len()
    }

    /// Number of pending requests parked off the dispatch scan behind
    /// their request group's unmet ERC quorum (diagnostics, DESIGN.md
    /// §4j; always 0 in naive-dispatch mode).
    pub fn parked_request_count(&self) -> usize {
        self.state.crossings.parked_count()
    }

    /// Drain passes since sensor `s`'s lazy battery level was last
    /// materialized (diagnostics, DESIGN.md §4j; always 0 where levels
    /// are eager: under naive drain and with self-discharge).
    pub fn lazy_lane_lag(&self, s: SensorId) -> u64 {
        self.state.sensors.lag(s.index())
    }

    /// Whether sensor `s` is currently suspended by a transient fault.
    pub fn is_suspended(&self, s: SensorId) -> bool {
        self.state.sensors.suspended(s.index())
    }

    /// Flushes any pending incremental routing work, then audits the
    /// maintained routing tree + relay loads + activity flags against the
    /// naive pipeline (wholesale activity recompute + from-scratch
    /// canonical Dijkstra + count fold), demanding bitwise agreement.
    ///
    /// The flush is behaviour-neutral: the refreshed tree is a pure
    /// function of the final enabled/generator sets, so replaying the
    /// queues now produces exactly the state the next `step` would have
    /// built at its phase-5 refresh (DESIGN.md §4f). Debug builds run the
    /// same audit inside the per-tick invariant checker; release-mode
    /// property tests (`tests/routing_incremental.rs`) call this
    /// explicitly.
    pub fn verify_routing(&mut self) -> Result<(), String> {
        if self.state.routing_dirty.any() {
            engine::activity::refresh_routing(&mut self.state);
        }
        engine::invariants::verify_routing(&self.state)
    }

    /// Switches the dispatch phase to the historical full-scan request
    /// pass instead of the crossing-prediction next-scan set (DESIGN.md §4j).
    /// Differential-oracle knob: the two paths are byte-identical, which
    /// `tests/tick_scale_equivalence.rs` pins across chaos configs. Not
    /// serialized — a resumed world always runs the fast path.
    ///
    /// The naive pass keeps no scan state, so a switch restarts it from
    /// the all-pending superset, as a snapshot resume does.
    pub fn set_naive_dispatch(&mut self, on: bool) {
        if on != self.state.naive_dispatch {
            self.state.naive_dispatch = on;
            self.state.crossings =
                engine::CrossingState::new_all_pending(self.state.cfg.num_sensors);
        }
    }

    /// Switches the drain phase to the historical per-sensor loop instead
    /// of the lazy battery levels. Differential-oracle knob; byte-identical
    /// by contract. Not serialized. The drain-rate column is refreshed in
    /// both modes; the naive loop steps every level itself, so switching
    /// it on materializes every lane, and switching it off makes the
    /// levels lazy again unless the world self-discharges (DESIGN.md
    /// §4j).
    pub fn set_naive_drain(&mut self, on: bool) {
        self.state.naive_drain = on;
        let lazy = !on && self.state.cfg.self_discharge_per_day <= 0.0;
        self.state.sensors.set_lazy(lazy);
    }

    /// Switches cluster maintenance to wholesale rebuild-from-scratch
    /// instead of incremental repair (DESIGN.md §4f). Differential-oracle
    /// knob; byte-identical by contract. Enabling it drops the repair
    /// baseline so later rebuilds don't resume incrementally from stale
    /// state. Not serialized.
    pub fn set_naive_repair(&mut self, on: bool) {
        self.state.naive_repair = on;
        if on {
            self.state.repair = None;
        }
    }

    /// [`World::step`] with a wall-clock stopwatch around each phase.
    ///
    /// The same pipeline as `step` (one function, a property
    /// `world::tests::step_timed_matches_step` pins bitwise), with each
    /// phase's lap added to its bucket. Used by the criterion bench for
    /// the per-phase breakdown in `results/BENCH_tick.json`.
    pub fn step_timed(&mut self) -> StepTimings {
        let mut timings = StepTimings::default();
        let mut clock = std::time::Instant::now();
        self.run_phases(|bucket| {
            let now = std::time::Instant::now();
            *bucket(&mut timings) += (now - clock).as_nanos() as u64;
            clock = now;
        });
        timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrsn_core::SchedulerKind;

    fn tiny_cfg(days: f64) -> SimConfig {
        let mut cfg = SimConfig::small(days);
        cfg.num_sensors = 60;
        cfg.num_targets = 3;
        cfg.num_rvs = 1;
        cfg.field_side = 60.0;
        cfg
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = tiny_cfg(0.5);
        let a = World::new(&cfg, 11).run();
        let b = World::new(&cfg, 11).run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.total_drained_j, b.total_drained_j);
        assert_eq!(a.deaths, b.deaths);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = tiny_cfg(0.5);
        let a = World::new(&cfg, 1).run();
        let b = World::new(&cfg, 2).run();
        // Deployments differ, so drained energy will differ.
        assert_ne!(a.total_drained_j, b.total_drained_j);
    }

    #[test]
    fn run_agrees_with_manual_stepping() {
        // `World::run` must be nothing more than step-until-finished —
        // including when the manual stepping takes an `outcome()`
        // snapshot mid-run.
        let mut cfg = tiny_cfg(1.0);
        cfg.initial_soc = (0.3, 1.0);
        let auto = World::new(&cfg, 13).run();

        let mut manual = World::new(&cfg, 13);
        let mut mid: Option<SimOutcome> = None;
        let mut steps = 0u64;
        while !manual.finished() {
            manual.step();
            steps += 1;
            if steps == 200 {
                mid = Some(manual.outcome());
            }
        }
        let fin = manual.outcome();
        assert_eq!(auto.report, fin.report);
        assert_eq!(auto.total_drained_j, fin.total_drained_j);
        assert_eq!(auto.total_delivered_j, fin.total_delivered_j);
        assert_eq!(auto.deaths, fin.deaths);
        assert_eq!(auto.plans, fin.plans);
        // The mid-run snapshot is a prefix of the same run: its ledgers
        // can only grow toward the final ones.
        let mid = mid.expect("run is longer than 200 ticks");
        assert!(mid.total_drained_j <= fin.total_drained_j);
        assert!(mid.total_delivered_j <= fin.total_delivered_j);
        assert!(mid.deaths <= fin.deaths);
        assert!(mid.plans <= fin.plans);
    }

    #[test]
    fn energy_accounting_is_consistent() {
        let mut cfg = tiny_cfg(4.0);
        cfg.scheduler = SchedulerKind::Combined;
        let out = World::new(&cfg, 5).run();
        // Sensors drained something and the RV delivered something back.
        assert!(out.total_drained_j > 0.0);
        assert!(
            (out.report.recharged_mj * 1e6 - out.total_delivered_j).abs() < 1e-6,
            "metrics and engine disagree on delivered energy"
        );
        // No RV ever spent energy it did not have.
        assert!(
            out.rv_energy_shortfall_j < 1.0,
            "shortfall {}",
            out.rv_energy_shortfall_j
        );
    }

    #[test]
    fn sensors_get_recharged_before_dying_en_masse() {
        let mut cfg = tiny_cfg(6.0);
        cfg.scheduler = SchedulerKind::Combined;
        // Full-time activation + immediate requests + static targets:
        // cluster members burn half their battery in ~2 days, so recharging
        // must happen within the 6-day window.
        cfg.activity = crate::ActivityConfig::legacy();
        cfg.target_period_s = cfg.duration_s * 2.0;
        let out = World::new(&cfg, 7).run();
        assert!(
            out.final_alive as f64 >= cfg.num_sensors as f64 * 0.8,
            "most sensors should stay alive: {}/{}",
            out.final_alive,
            cfg.num_sensors
        );
        assert!(out.plans > 0, "the scheduler should have been exercised");
        assert!(out.report.travel_distance_m > 0.0);
    }

    #[test]
    fn coverage_is_reported_between_zero_and_one() {
        let cfg = tiny_cfg(1.0);
        let out = World::new(&cfg, 3).run();
        assert!((0.0..=100.0).contains(&out.report.coverage_ratio_pct));
        assert!((0.0..=100.0).contains(&out.report.nonfunctional_pct));
    }

    #[test]
    fn all_schedulers_run_end_to_end() {
        for kind in SchedulerKind::EVALUATED {
            let mut cfg = tiny_cfg(1.0);
            cfg.scheduler = kind;
            let out = World::new(&cfg, 9).run();
            assert!(out.total_drained_j > 0.0, "{kind} run produced no drain");
        }
    }

    #[test]
    fn no_targets_means_full_coverage_and_no_clusters() {
        let mut cfg = tiny_cfg(0.2);
        cfg.num_targets = 0;
        let mut w = World::new(&cfg, 1);
        assert_eq!(w.clusters().len(), 0);
        let out = w.run();
        assert!((out.report.coverage_ratio_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_charger_serves_faster_than_nimh_taper() {
        let mk = |model: wrsn_energy::ChargeModel| {
            let mut cfg = tiny_cfg(5.0);
            cfg.charge_model = model;
            cfg.initial_soc = (0.3, 1.0);
            World::new(&cfg, 8).run()
        };
        let nimh = mk(wrsn_energy::ChargeModel::nimh());
        let ideal = mk(wrsn_energy::ChargeModel::ideal());
        // Both deliver energy; the tapered charger can never complete
        // more services than the ideal one takes strictly less time per
        // service (weak check: both ran and delivered).
        assert!(nimh.report.recharged_mj > 0.0);
        assert!(ideal.report.recharged_mj > 0.0);
    }

    #[test]
    fn grid_deployment_runs_end_to_end() {
        let mut cfg = tiny_cfg(0.5);
        cfg.deployment = wrsn_geom::Deployment::Grid;
        let out = World::new(&cfg, 3).run();
        assert!(out.total_drained_j > 0.0);
    }

    #[test]
    fn trace_records_lifecycle_events() {
        let mut cfg = tiny_cfg(3.0);
        cfg.initial_soc = (0.3, 1.0);
        let mut w = World::new(&cfg, 2);
        w.enable_trace(100_000);
        w.run();
        let events = w.trace().events();
        assert!(!events.is_empty());
        use crate::TraceEvent;
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Dispatch { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ServiceDone { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ClustersRebuilt { .. })));
        // Timestamps are non-decreasing.
        assert!(events.windows(2).all(|w| w[0].time() <= w[1].time()));
        // Tracing never changes behaviour: same run without tracing agrees.
        let mut cfg2 = tiny_cfg(3.0);
        cfg2.initial_soc = (0.3, 1.0);
        let plain = World::new(&cfg2, 2).run();
        assert_eq!(plain.report, w.outcome().report);
    }

    #[test]
    fn extension_schedulers_run_end_to_end() {
        for kind in [SchedulerKind::Savings, SchedulerKind::Deadline] {
            let mut cfg = tiny_cfg(3.0);
            cfg.initial_soc = (0.3, 1.0);
            cfg.scheduler = kind;
            let out = World::new(&cfg, 6).run();
            assert!(out.report.recharged_mj > 0.0, "{kind} never recharged");
            assert!(out.rv_energy_shortfall_j < 1.0);
        }
    }

    #[test]
    fn step_timed_matches_step() {
        // The instrumented pipeline must be the same run, bit for bit,
        // even interleaved with plain stepping mid-run.
        let mut cfg = tiny_cfg(1.0);
        cfg.initial_soc = (0.25, 0.9);
        let mut plain = World::new(&cfg, 19);
        let mut timed = World::new(&cfg, 19);
        let mut spent = 0u64;
        let mut i = 0u32;
        while !plain.finished() {
            plain.step();
            if i.is_multiple_of(3) {
                timed.step();
            } else {
                spent += timed.step_timed().total_ns();
            }
            i += 1;
        }
        assert_eq!(plain.save_snapshot(), timed.save_snapshot());
        assert!(spent > 0, "the stopwatch measured something");
    }

    #[test]
    fn step_advances_time_by_tick() {
        let cfg = tiny_cfg(0.1);
        let mut w = World::new(&cfg, 0);
        assert_eq!(w.time(), 0.0);
        w.step();
        assert_eq!(w.time(), cfg.tick_s);
    }
}
