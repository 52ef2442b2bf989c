//! Pins the chaos-engine determinism contract: with every fault rate at
//! zero (the default [`FaultConfig::none`]), runs take **exactly** the
//! random draws a pre-chaos build took, so outcomes are byte-identical.
//!
//! The literals below were first captured from the engine immediately
//! before the fault-injection subsystem was added, and re-captured once
//! when sensor energy became whole nanojoules (the integer-ledger
//! baseline: every draw, charge and ledger rounds differently, while the
//! deaths, plans, failures, coverage and event counts stayed the same).
//! They are exact f64 values (Debug-formatted, round-trip precise) — any
//! drift, even in the last ulp, means a code path consumed RNG draws or
//! reordered arithmetic on a zero-fault run, which breaks seed
//! reproducibility for every existing experiment. Compare with `==`, not
//! a tolerance.
//!
//! The sample-phase accounting rides on the same contract: it draws
//! **no** RNG and must reproduce the pinned sampled reports (coverage %,
//! nonfunctional %, alive counts) bit for bit; [`assert_pinned`]
//! additionally cross-checks the exact alive counter against a full
//! recount at the end of every pinned run.

use wrsn_sim::{ActivityConfig, FaultConfig, SimConfig, World};

fn tiny(days: f64) -> SimConfig {
    let mut cfg = SimConfig::small(days);
    cfg.num_sensors = 60;
    cfg.num_targets = 3;
    cfg.num_rvs = 1;
    cfg.field_side = 60.0;
    cfg
}

struct Pin {
    drained: f64,
    delivered: f64,
    deaths: u64,
    plans: u64,
    fails: u64,
    travel_m: f64,
    coverage_pct: f64,
    alive: usize,
}

fn assert_pinned(cfg: &SimConfig, seed: u64, pin: &Pin) {
    let mut w = World::new(cfg, seed);
    let out = w.run();
    assert_eq!(out.total_drained_j, pin.drained, "drained drifted");
    assert_eq!(out.total_delivered_j, pin.delivered, "delivered drifted");
    assert_eq!(out.deaths, pin.deaths);
    assert_eq!(out.plans, pin.plans);
    assert_eq!(out.permanent_failures, pin.fails);
    assert_eq!(out.report.travel_distance_m, pin.travel_m, "travel drifted");
    assert_eq!(out.report.coverage_ratio_pct, pin.coverage_pct);
    assert_eq!(out.final_alive, pin.alive);
    assert_eq!(out.rv_breakdowns, 0);
    assert_eq!(out.transient_faults, 0);
    assert_eq!(out.uplink_drops, 0);
    // The exact alive counter serves `final_alive` and the sampled
    // nonfunctional series above; it must also agree with a full recount
    // (release builds included).
    assert_eq!(w.alive_count(), w.oracle_alive_count());
    assert_eq!(w.alive_count(), pin.alive);
}

#[test]
fn default_run_matches_integer_ledger_baseline() {
    let cfg = tiny(4.0);
    assert_eq!(cfg.faults, FaultConfig::none());
    assert_pinned(
        &cfg,
        5,
        &Pin {
            drained: 92851.333557408,
            delivered: 5558.532725011,
            deaths: 0,
            plans: 1,
            fails: 0,
            travel_m: 23.204112581070955,
            coverage_pct: 100.0,
            alive: 60,
        },
    );
}

#[test]
fn failure_injection_run_matches_integer_ledger_baseline() {
    // Permanent failures predate the chaos engine; their RNG draws must
    // interleave exactly as before.
    let mut cfg = tiny(4.0);
    cfg.permanent_failures_per_day = 0.05;
    assert_pinned(
        &cfg,
        31,
        &Pin {
            drained: 85061.206963296,
            delivered: 5608.718064184,
            deaths: 0,
            plans: 1,
            fails: 12,
            travel_m: 24.370397863221516,
            coverage_pct: 98.08695652173913,
            alive: 48,
        },
    );
}

#[test]
fn legacy_activation_run_matches_integer_ledger_baseline() {
    // Full-time activation with a busy fleet: exercises the dispatch and
    // fleet paths (6 planning waves) where the uplink hook now sits.
    let mut cfg = tiny(3.0);
    cfg.activity = ActivityConfig::legacy();
    cfg.initial_soc = (0.3, 1.0);
    assert_pinned(
        &cfg,
        7,
        &Pin {
            drained: 115125.274910304,
            delivered: 204665.937579643,
            deaths: 0,
            plans: 6,
            fails: 0,
            travel_m: 785.6177117475672,
            coverage_pct: 100.0,
            alive: 60,
        },
    );
}

#[test]
fn teleport_heavy_run_matches_integer_ledger_baseline() {
    // First captured when an incremental coverage cache landed (since
    // replaced by a per-read rota probe; re-captured at the integer-ledger
    // baseline), from a run whose 6-hourly target
    // teleports force ~16 cluster rebuilds. Any change to the
    // sample-phase accounting that perturbs RNG order or the sampled
    // coverage series shows up as exact-literal drift here.
    let mut cfg = tiny(4.0);
    cfg.target_period_s = 6.0 * 3_600.0;
    cfg.initial_soc = (0.3, 1.0);
    assert_pinned(
        &cfg,
        23,
        &Pin {
            drained: 93253.365936288,
            delivered: 177488.550340358,
            deaths: 0,
            plans: 4,
            fails: 0,
            travel_m: 451.36759146956354,
            coverage_pct: 100.0,
            alive: 60,
        },
    );
}

/// FNV-1a 64 over a byte slice — used to pin whole artifacts (snapshot
/// blobs) as a single literal.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The 10k-sensor long-horizon config behind the large-scale pin: the
/// seed-test density (60 sensors / 60 m field, 1 target per 20 sensors)
/// scaled to 10 000 sensors, with a wide initial-SoC spread so the run
/// exercises depletions, revivals and slot handovers at scale.
fn big(days: f64) -> SimConfig {
    let mut cfg = SimConfig::small(days);
    cfg.num_sensors = 10_000;
    cfg.num_targets = 500;
    cfg.num_rvs = 4;
    cfg.field_side = 775.0;
    cfg.initial_soc = (0.02, 1.0);
    cfg
}

/// Byte-for-byte lock on the large-scale engine: runs the 10k-sensor
/// world for a day with tracing on and pins the FNV-1a hash of the final
/// snapshot blob. The snapshot encodes *everything* — RNG state, every
/// battery bit pattern, every activity/liveness flag, the relay loads,
/// the full trace and the sampled metrics series — so any fast path that
/// perturbs a single byte of state (not just the aggregate report) fails
/// this pin. First captured from the engine immediately before the SoA /
/// incremental-routing refactor landed; re-captured once when sensor
/// levels became whole nanojoules (snapshot format version 2).
///
/// Release-only: a day of a 10k-sensor world under the debug-build
/// per-tick invariant sweep takes minutes; the release property/CI suite
/// runs it in seconds.
#[test]
#[cfg_attr(debug_assertions, ignore = "10k-sensor pin runs in the release suite")]
fn large_scale_run_matches_integer_ledger_baseline() {
    let cfg = big(1.0);
    assert_eq!(cfg.faults, FaultConfig::none());
    let mut w = World::new(&cfg, 41);
    w.enable_trace(2_000_000);
    let out = w.run();
    assert_eq!(out.total_drained_j, 3859059.695904116, "drained drifted");
    assert_eq!(out.total_delivered_j, 922023.981812322, "delivered drifted");
    assert_eq!(out.deaths, 124);
    assert_eq!(out.plans, 4);
    assert_eq!(out.permanent_failures, 0);
    assert_eq!(
        out.report.travel_distance_m, 4062.1307552744565,
        "travel drifted"
    );
    assert_eq!(out.report.coverage_ratio_pct, 99.80661553050105);
    assert_eq!(out.final_alive, 9877);
    assert_eq!(w.trace().events().len(), 1548);
    assert_eq!(
        fnv1a(&w.save_snapshot()),
        0xa7564edbc91a8edd,
        "snapshot bytes drifted: some state byte differs from the integer-ledger baseline"
    );
    // The alive counter matches its recount at scale too.
    assert_eq!(w.alive_count(), w.oracle_alive_count());
}

/// Prints the literals for [`large_scale_run_matches_integer_ledger_baseline`].
/// Run manually after an *intentional* engine-behavior change:
/// `cargo test --release -p wrsn-sim --test zero_fault_regression -- --ignored capture --nocapture`
#[test]
#[ignore = "capture helper, run manually"]
fn capture_large_scale_pin() {
    let cfg = big(1.0);
    let mut w = World::new(&cfg, 41);
    w.enable_trace(2_000_000);
    let out = w.run();
    println!("drained:   {:?}", out.total_drained_j);
    println!("delivered: {:?}", out.total_delivered_j);
    println!("deaths:    {}", out.deaths);
    println!("plans:     {}", out.plans);
    println!("fails:     {}", out.permanent_failures);
    println!("travel_m:  {:?}", out.report.travel_distance_m);
    println!("coverage:  {:?}", out.report.coverage_ratio_pct);
    println!("alive:     {}", out.final_alive);
    println!("events:    {}", w.trace().events().len());
    println!("snap_fnv:  {:#x}", fnv1a(&w.save_snapshot()));
}

#[test]
fn explicit_zero_rates_equal_fault_config_none() {
    // A FaultConfig with explicitly-zero rates but non-default secondary
    // knobs (repair times, backoff) must behave exactly like none():
    // secondary knobs are inert until their rate enables the class.
    let mut cfg = tiny(2.0);
    cfg.faults = FaultConfig {
        rv_breakdowns_per_day: 0.0,
        rv_repair_s: (1.0, 2.0),
        uplink_loss: 0.0,
        uplink_backoff_s: 5.0,
        uplink_backoff_cap_s: 10.0,
        transients_per_day: 0.0,
        transient_outage_s: (1.0, 2.0),
    };
    let a = World::new(&cfg, 13).run();
    let mut plain = tiny(2.0);
    plain.faults = FaultConfig::none();
    let b = World::new(&plain, 13).run();
    assert_eq!(a.total_drained_j, b.total_drained_j);
    assert_eq!(a.total_delivered_j, b.total_delivered_j);
    assert_eq!(a.report, b.report);
}
