//! Engine and scheduling attribution for the traced run, taken through the
//! engine's public API only: `World::step_timed` for phase times,
//! `World::board`/`trace`/`battery` for the planner's inputs and the
//! dispatch watch set, and `World::set_naive_*` for the oracle twins.

use crate::report::Report;
use crate::stats::{mean, Summary};
use std::time::Instant;
use wrsn_core::SensorId;
use wrsn_sim::{StepTimings, TraceEvent, World};

/// Trace cap for probed worlds: only the newest tick's events are read.
pub const PROBE_TRACE_CAP: usize = 4096;

/// Ticks between two watch-set censuses (each census reads every battery).
const CENSUS_EVERY: u64 = 10;

fn add(acc: &mut StepTimings, t: &StepTimings) {
    acc.mobility_ns += t.mobility_ns;
    acc.activity_ns += t.activity_ns;
    acc.faults_ns += t.faults_ns;
    acc.routing_ns += t.routing_ns;
    acc.drain_ns += t.drain_ns;
    acc.dispatch_ns += t.dispatch_ns;
    acc.fleet_ns += t.fleet_ns;
    acc.sample_ns += t.sample_ns;
}

/// Phase times, plan ticks and watch-set sizes accumulated over probed runs.
#[derive(Default)]
pub struct EngineProbe {
    /// Worlds stepped to completion.
    pub runs: u64,
    pub ticks: u64,
    phases: StepTimings,
    /// Wall time of the whole probed pass, probes included (s).
    pub wall_s: f64,
    plan_tick_us: Vec<f64>,
    requests_per_plan: Vec<f64>,
    below_sum: u64,
    censuses: u64,
    /// `(start, end)` of every plan tick, for the caller's span log.
    pub plan_ticks: Vec<(Instant, Instant)>,
}

impl EngineProbe {
    /// Steps `world` (built with [`PROBE_TRACE_CAP`] tracing) to the end of
    /// its run through `step_timed`, recording per-phase time, which ticks
    /// planned (a new `TraceEvent::Dispatch`), how many unassigned
    /// requests each plan saw, and the below-threshold census.
    pub fn run(&mut self, world: &mut World) {
        let started = Instant::now();
        let threshold = world.config().recharge_threshold_frac;
        let sensors = world.config().num_sensors;
        let mut tick = 0u64;
        while !world.finished() {
            if tick.is_multiple_of(CENSUS_EVERY) {
                self.below_sum += (0..sensors)
                    .filter(|&s| world.battery(SensorId(s as u32)).soc() < threshold)
                    .count() as u64;
                self.censuses += 1;
            }
            let requests = world.board().unassigned().count();
            let seen = world.trace().total_recorded();
            let t0 = Instant::now();
            let timings = world.step_timed();
            let t1 = Instant::now();
            add(&mut self.phases, &timings);
            let fresh = (world.trace().total_recorded() - seen) as usize;
            let events = world.trace().events();
            let planned = events[events.len().saturating_sub(fresh)..]
                .iter()
                .any(|e| matches!(e, TraceEvent::Dispatch { .. }));
            if planned {
                self.plan_tick_us.push(timings.total_ns() as f64 / 1e3);
                self.requests_per_plan.push(requests as f64);
                self.plan_ticks.push((t0, t1));
            }
            tick += 1;
        }
        self.ticks += tick;
        self.runs += 1;
        self.wall_s += started.elapsed().as_secs_f64();
    }

    /// Folds another probe's observations into this one.
    pub fn merge(&mut self, other: EngineProbe) {
        self.runs += other.runs;
        self.ticks += other.ticks;
        add(&mut self.phases, &other.phases);
        self.wall_s += other.wall_s;
        self.plan_tick_us.extend(other.plan_tick_us);
        self.requests_per_plan.extend(other.requests_per_plan);
        self.below_sum += other.below_sum;
        self.censuses += other.censuses;
        self.plan_ticks.extend(other.plan_ticks);
    }

    /// Reports `engine.*` phase times and shares and `scheduling.*`.
    ///
    /// Shares are each phase's part of the summed phase time, which is the
    /// step time `step_timed` measured, so they sum to 1 up to rounding.
    pub fn report(&self, r: &mut Report) {
        let ticks = self.ticks.max(1) as f64;
        let p = &self.phases;
        let total = p.total_ns() as f64;
        let phases: [(&'static str, &'static str, u64); 8] = [
            (
                "engine.mobility_ns_per_tick",
                "engine.mobility_share",
                p.mobility_ns,
            ),
            (
                "engine.activity_ns_per_tick",
                "engine.activity_share",
                p.activity_ns,
            ),
            (
                "engine.faults_ns_per_tick",
                "engine.faults_share",
                p.faults_ns,
            ),
            (
                "engine.routing_ns_per_tick",
                "engine.routing_share",
                p.routing_ns,
            ),
            ("engine.drain_ns_per_tick", "engine.drain_share", p.drain_ns),
            (
                "engine.dispatch_ns_per_tick",
                "engine.dispatch_share",
                p.dispatch_ns,
            ),
            ("engine.fleet_ns_per_tick", "engine.fleet_share", p.fleet_ns),
            (
                "engine.sample_ns_per_tick",
                "engine.sample_share",
                p.sample_ns,
            ),
        ];
        let mut share_sum = 0.0;
        for (per_tick, share, ns) in phases {
            r.layer(per_tick, ns as f64 / ticks);
            let s = ns as f64 / total.max(1.0);
            share_sum += s;
            r.layer(share, s);
        }
        r.layer("engine.step_ns_per_tick", total / ticks);
        r.note(format!(
            "engine: {} ticks over {} runs; phase shares sum to {share_sum:.6} of the \
             {:.1} ns/tick step time step_timed measured",
            self.ticks,
            self.runs,
            total / ticks
        ));
        r.layer(
            "engine.below_threshold_mean",
            self.below_sum as f64 / self.censuses.max(1) as f64,
        );
        r.layer(
            "scheduling.plans",
            self.plan_tick_us.len() as f64 / self.runs.max(1) as f64,
        );
        if !self.plan_tick_us.is_empty() {
            let t = Summary::of(&self.plan_tick_us);
            let q = Summary::of(&self.requests_per_plan);
            r.layer("scheduling.plan_tick_us_p50", t.median);
            r.layer("scheduling.plan_tick_us_p99", t.p99);
            r.layer("scheduling.requests_per_plan_p50", q.median);
            r.layer("scheduling.requests_per_plan_max", q.max);
            r.note(format!(
                "scheduling: {} plan ticks (mean {:.1} us, {:.1} requests)",
                t.n,
                mean(&self.plan_tick_us),
                mean(&self.requests_per_plan)
            ));
        }
    }
}

/// Phase times of a fast world and its naive-oracle twin stepped in
/// lockstep.
#[derive(Default)]
pub struct OracleTwin {
    fast: StepTimings,
    naive: StepTimings,
}

impl OracleTwin {
    /// Steps `fast` and `naive` (the same world with every
    /// `set_naive_*` switch on) in lockstep to the end of the run.
    /// Returns whether their snapshots are byte-equal afterwards.
    pub fn run(&mut self, mut fast: World, mut naive: World) -> bool {
        naive.set_naive_dispatch(true);
        naive.set_naive_drain(true);
        naive.set_naive_repair(true);
        while !fast.finished() {
            add(&mut self.fast, &fast.step_timed());
            add(&mut self.naive, &naive.step_timed());
        }
        naive.finished() && fast.save_snapshot() == naive.save_snapshot()
    }

    /// Reports fast ÷ oracle time for the dispatch and drain phases and
    /// for cluster maintenance (mobility + routing refresh, where a naive
    /// repair's wholesale rebuild lands).
    pub fn report(&self, r: &mut Report) {
        let ratio = |f: u64, n: u64| f as f64 / n.max(1) as f64;
        let (f, n) = (&self.fast, &self.naive);
        r.layer(
            "engine.dispatch_vs_naive",
            ratio(f.dispatch_ns, n.dispatch_ns),
        );
        r.layer("engine.drain_vs_naive", ratio(f.drain_ns, n.drain_ns));
        r.layer(
            "engine.repair_vs_naive",
            ratio(f.mobility_ns + f.routing_ns, n.mobility_ns + n.routing_ns),
        );
    }
}
