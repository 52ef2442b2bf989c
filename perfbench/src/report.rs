//! What one benchmark run reports: the operation tally, the end-to-end
//! metrics (untraced run) or the per-layer metrics (traced run), and the
//! printers for the human-readable lines and the final JSON line.

use crate::stats::Summary;
use std::collections::BTreeMap;

/// `end_to_end` keys of BENCHMARK.json, with units, in file order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `per_layer` keys of BENCHMARK.json, with units, in file order. A layer
/// a workload never calls reports 0 on that workload.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("engine.step_ns_per_tick", "ns"),
    ("engine.mobility_ns_per_tick", "ns"),
    ("engine.activity_ns_per_tick", "ns"),
    ("engine.faults_ns_per_tick", "ns"),
    ("engine.routing_ns_per_tick", "ns"),
    ("engine.drain_ns_per_tick", "ns"),
    ("engine.dispatch_ns_per_tick", "ns"),
    ("engine.fleet_ns_per_tick", "ns"),
    ("engine.sample_ns_per_tick", "ns"),
    ("engine.mobility_share", "ratio"),
    ("engine.activity_share", "ratio"),
    ("engine.faults_share", "ratio"),
    ("engine.routing_share", "ratio"),
    ("engine.drain_share", "ratio"),
    ("engine.dispatch_share", "ratio"),
    ("engine.fleet_share", "ratio"),
    ("engine.sample_share", "ratio"),
    ("engine.dispatch_vs_naive", "ratio"),
    ("engine.drain_vs_naive", "ratio"),
    ("engine.repair_vs_naive", "ratio"),
    ("engine.below_threshold_mean", "count"),
    ("scheduling.plans", "count"),
    ("scheduling.plan_tick_us_p50", "us"),
    ("scheduling.plan_tick_us_p99", "us"),
    ("scheduling.requests_per_plan_p50", "count"),
    ("scheduling.requests_per_plan_max", "count"),
    ("batch.job_s_p50", "s"),
    ("batch.job_s_max", "s"),
    ("batch.parallel_efficiency", "ratio"),
    ("fabric.overhead_frac", "ratio"),
    ("fabric.shard_imbalance", "ratio"),
    ("fabric.attempts_failed", "count"),
    ("journal.bytes", "bytes"),
    ("store.record_overhead", "ratio"),
    ("store.log_bytes", "bytes"),
    ("store.snap_bytes", "bytes"),
    ("store.snap_count", "count"),
    ("snapshot.encode_us", "us"),
    ("snapshot.bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("store.restep_ticks_mean", "count"),
    ("store.restep_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// One end-to-end metric as a workload measured it.
struct E2e {
    /// Key in BENCHMARK.json's `end_to_end`.
    key: &'static str,
    /// What the key measures on this workload — the name issues cite.
    label: &'static str,
    /// The reported value.
    value: f64,
    /// The samples the value was taken from.
    samples: Summary,
    /// What one sample is ("worlds", "sweeps", ...).
    per: &'static str,
}

/// Result of one run of one workload.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: runs, jobs, materializations, oracle twins.
    attempted: u64,
    /// Operations that failed, a failed output check included.
    failed: u64,
    e2e: Vec<E2e>,
    layers: BTreeMap<&'static str, f64>,
    /// Free-form lines printed before the result (checks, derivations).
    notes: Vec<String>,
}

impl Report {
    /// Tallies one operation and whether its output check passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Adds an end-to-end metric whose value is the samples' median.
    pub fn e2e_median(
        &mut self,
        key: &'static str,
        label: &'static str,
        per: &'static str,
        samples: &[f64],
    ) {
        let s = Summary::of(samples);
        self.e2e_value(key, label, per, s.median, s);
    }

    pub fn e2e_value(
        &mut self,
        key: &'static str,
        label: &'static str,
        per: &'static str,
        value: f64,
        samples: Summary,
    ) {
        self.e2e.push(E2e {
            key,
            label,
            value,
            samples,
            per,
        });
    }

    /// Sets a per-layer metric; `key` must be one of [`PER_LAYER`].
    pub fn layer(&mut self, key: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(k, _)| *k == key),
            "{key} is not a per_layer metric of BENCHMARK.json"
        );
        self.layers.insert(key, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Reports `peak_rss_mb` as this process's VmHWM now. Workloads call
    /// it once their first operation is done: the allocator's footprint
    /// keeps creeping up over later operations, so a peak taken at the end
    /// would grow with how many operations fit in the time budget, i.e.
    /// with the program's speed.
    pub fn peak_rss_after_first_op(&mut self, op: &'static str) -> Result<(), String> {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("/proc/self/status: {e}"))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM in /proc/self/status")?;
        let mb = kb / 1024.0;
        self.e2e_value("peak_rss_mb", "peak_rss_mb", op, mb, Summary::of(&[mb]));
        Ok(())
    }

    /// Prints the human-readable lines, then the result as the last line
    /// of standard output. Returns whether every check passed.
    pub fn print(&self, workload: &str, traced: bool) -> Result<bool, String> {
        for line in &self.notes {
            println!("{workload}: {line}");
        }
        let mut metrics = Vec::new();
        if traced {
            for (key, unit) in PER_LAYER {
                let value = self.layers.get(key).copied().unwrap_or(0.0);
                println!("{workload}: layer {key} = {value} {unit}");
                metrics.push((key, unit, value));
            }
        } else {
            for (key, unit) in END_TO_END {
                let m = self
                    .e2e
                    .iter()
                    .find(|m| m.key == key)
                    .ok_or_else(|| format!("{workload} did not measure {key}"))?;
                let s = &m.samples;
                println!(
                    "{workload}: {} [{key}] = {} {unit}  (median {} q1 {} q3 {} over n={} {})",
                    m.label, m.value, s.median, s.q1, s.q3, s.n, m.per
                );
                metrics.push((key, unit, m.value));
            }
            let frac = self.failed as f64 / self.attempted as f64;
            println!(
                "{workload}: failed_frac = {frac} ({} of {} operations failed)",
                self.failed, self.attempted
            );
        }
        let mut body = Vec::new();
        for (key, unit, value) in metrics {
            if !value.is_finite() {
                return Err(format!("{key} is not finite: {value}"));
            }
            body.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let correct = self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
        Ok(correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (key, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{key}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + 3,
            "BENCHMARK.json names a metric the benchmark does not report \
             (3 of the names are workloads)"
        );
    }
}
