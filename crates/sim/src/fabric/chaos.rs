//! Deterministic network chaos for the agent transport (DESIGN.md §4i).
//!
//! Mirrors the worker chaos plan in `shard.rs`: the decision for one
//! `(shard, attempt)` is a pure function of the grid hash, so a chaotic sweep is reproducible and — because only the first
//! two attempts of a shard can be faulted — always converges whenever the
//! retry budget is at least two. Every fault mode lands on a path the
//! coordinator already owns: torn assignments and severed links surface
//! as dead-on-arrival or failed handles, silent agents starve the
//! heartbeat watchdog, and all of them end in the same requeue → resume →
//! merge machinery as a killed loopback worker.

use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// One injected network fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NetChaos {
    /// Write only a prefix of the `Assign` frame, then sever the link:
    /// the agent sees a torn frame and hangs up without accepting.
    TornAssign,
    /// Sleep this long before the handshake — a slow link, not a fault;
    /// the assignment still succeeds.
    Delay(Duration),
    /// One-way partition: discard everything the agent streams back, so
    /// its heartbeat never advances and the watchdog reaps the shard.
    Partition,
    /// Order the agent to accept and then go silent (a wedged agent).
    StallAgent,
    /// Order the agent to sever the connection mid-run (an agent crash),
    /// this long after accepting.
    AbortAgent(Duration),
}

/// Deterministic chaos decision for one `(shard, attempt)` assignment.
/// Only the first two attempts can be faulted, so `retries >= 2` always
/// converges.
pub(crate) fn net_chaos_plan(p: f64, hash: u64, shard: usize, attempt: u32) -> Option<NetChaos> {
    if p <= 0.0 || attempt >= 2 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(
        hash.rotate_left(17) ^ ((shard as u64) << 24) ^ ((attempt as u64) << 48),
    );
    if !rng.gen_bool(p.min(1.0)) {
        return None;
    }
    Some(match rng.gen_range(0u64..5) {
        0 => NetChaos::TornAssign,
        1 => NetChaos::Delay(Duration::from_millis(rng.gen_range(20u64..250))),
        2 => NetChaos::Partition,
        3 => NetChaos::StallAgent,
        _ => NetChaos::AbortAgent(Duration::from_millis(rng.gen_range(20u64..400))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_stops_after_two_attempts() {
        for shard in 0..16 {
            for attempt in 0..2 {
                let a = net_chaos_plan(1.0, 0xabc, shard, attempt);
                let b = net_chaos_plan(1.0, 0xabc, shard, attempt);
                assert_eq!(a, b, "deterministic");
                assert!(a.is_some(), "p=1.0 always faults early attempts");
            }
            assert!(net_chaos_plan(1.0, 0xabc, shard, 2).is_none(), "bounded");
            assert!(net_chaos_plan(0.0, 0xabc, shard, 0).is_none(), "off");
        }
    }

    #[test]
    fn plan_spreads_across_fault_modes() {
        let mut kinds = std::collections::HashSet::new();
        for shard in 0..64 {
            if let Some(c) = net_chaos_plan(1.0, 0xdef, shard, 0) {
                kinds.insert(std::mem::discriminant(&c));
            }
        }
        assert!(kinds.len() >= 4, "expected several distinct fault modes");
    }
}
