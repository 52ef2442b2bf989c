//! Every enum tag of the binary codecs, pinned as a literal.
//!
//! The golden fixtures only reach the enum variants their pinned inputs
//! happen to use: `SimConfig::small`'s defaults and whichever trace
//! events the pinned chaos run fires. These pins cover the rest:
//!
//! * `SimConfig::content_hash` (FNV-1a over the canonical config
//!   encoding) under every scheduler, target mobility, deployment and
//!   ERP setting;
//! * the payload of one `LogRecord::Event` per trace event kind, framed
//!   as `WRSNEVTL` version 1 framed it (FNV-1a trailer): version 2 only
//!   changed the trailer, so the version-1 pins still hold;
//! * `codec::checksum`, the frame trailer and snapshot-chain link check,
//!   over fixed inputs.
//!
//! A changed literal means a changed wire format: bump that format's
//! version instead of editing the pin.

use wrsn_core::{RvId, SchedulerKind, SensorId};
use wrsn_geom::Deployment;
use wrsn_sim::codec::checksum;
use wrsn_sim::frame::{self, Record, HEADER_LEN};
use wrsn_sim::store::log::LogRecord;
use wrsn_sim::{SimConfig, TargetMobility, TraceEvent};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash_with(edit: impl FnOnce(&mut SimConfig)) -> u64 {
    let mut cfg = SimConfig::small(1.0);
    edit(&mut cfg);
    cfg.content_hash()
}

#[test]
fn config_hash_pins_every_scheduler_tag() {
    let pins = [
        (SchedulerKind::Greedy, 0xd1e2_6a5b_ee64_5ddd),
        (SchedulerKind::Insertion, 0xec69_4eb1_ad32_5272),
        (SchedulerKind::Partition, 0xb257_0c31_ea21_3707),
        (SchedulerKind::Combined, 0x5ba1_2af0_59ab_c4dc),
        (SchedulerKind::Savings, 0xf0c1_64f2_f9e0_a241),
        (SchedulerKind::Deadline, 0x666e_a456_41d9_6e76),
    ];
    for (kind, pin) in pins {
        let h = hash_with(|c| c.scheduler = kind);
        assert_eq!(h, pin, "{kind:?}: {h:#018x}");
    }
}

#[test]
fn config_hash_pins_every_mobility_tag() {
    let pins = [
        (TargetMobility::RandomTeleport, 0x5ba1_2af0_59ab_c4dc),
        (
            TargetMobility::RandomWaypoint { speed_mps: 1.5 },
            0xbce8_8b13_62a1_8622,
        ),
        (TargetMobility::Static, 0x1b80_2796_a0d8_06f6),
    ];
    for (mobility, pin) in pins {
        let h = hash_with(|c| c.target_mobility = mobility);
        assert_eq!(h, pin, "{mobility:?}: {h:#018x}");
    }
}

#[test]
fn config_hash_pins_every_deployment_tag() {
    let pins = [
        (Deployment::UniformRandom, 0x5ba1_2af0_59ab_c4dc),
        (Deployment::Grid, 0x5c63_0106_024e_bd41),
        (Deployment::Hex, 0x4c02_64da_63c7_3b52),
        (Deployment::Jittered, 0x2cf1_b799_90b4_2467),
    ];
    for (deployment, pin) in pins {
        let h = hash_with(|c| c.deployment = deployment);
        assert_eq!(h, pin, "{deployment:?}: {h:#018x}");
    }
}

#[test]
fn config_hash_pins_both_erp_tags() {
    let pins = [
        (None, 0xebd4_5f95_76fd_1119),
        (Some(0.75), 0x46ca_bbd6_96a3_0c8f),
    ];
    for (erp, pin) in pins {
        let h = hash_with(|c| c.activity.erp = erp);
        assert_eq!(h, pin, "{erp:?}: {h:#018x}");
    }
}

#[test]
fn log_bytes_pin_every_trace_event_tag() {
    let (t, rv, sensor) = (4_321.5, RvId(2), SensorId(17));
    let pins = [
        (
            TraceEvent::Dispatch {
                t,
                rv,
                stops: 6,
                demand_j: 12_500.25,
            },
            0x009f_4789_23bd_8d42,
        ),
        (
            TraceEvent::ServiceDone { t, rv, sensor },
            0x37ae_3c15_1f48_f12d,
        ),
        (
            TraceEvent::SensorDepleted { t, sensor },
            0xb573_a804_bd48_f281,
        ),
        (
            TraceEvent::SensorRevived { t, sensor },
            0x45bd_5684_6c58_bd87,
        ),
        (
            TraceEvent::ClustersRebuilt { t, clusters: 9 },
            0xf120_3fd2_1b30_7fc7,
        ),
        (
            TraceEvent::SensorFailed { t, sensor },
            0x9fc6_84f0_b714_16c4,
        ),
        (
            TraceEvent::RvBroke {
                t,
                rv,
                dropped_stops: 3,
            },
            0x4198_d984_889d_0459,
        ),
        (TraceEvent::RvRepaired { t, rv }, 0x8016_0e0a_317e_9414),
        (
            TraceEvent::SensorSuspended { t, sensor },
            0x55cf_8ed9_2441_27cf,
        ),
        (
            TraceEvent::SensorResumed { t, sensor },
            0x404b_8e63_cf34_cf78,
        ),
        (
            TraceEvent::RequestDropped {
                t,
                sensor,
                attempt: 4,
            },
            0x5f83_1222_cce1_cff0,
        ),
    ];
    for (event, pin) in pins {
        let bytes = frame::encode(&[LogRecord::Event { tick: 72, event }]);
        let (header, frame) = bytes.split_at(HEADER_LEN);
        let (body, trailer) = frame.split_at(frame.len() - 8);
        let payload = &body[4..];
        assert_eq!(
            trailer,
            checksum(payload).to_le_bytes(),
            "{event:?} trailer"
        );
        let v1 = [
            &header[..LogRecord::MAGIC.len()],
            &1u32.to_le_bytes(),
            body,
            &fnv1a(payload).to_le_bytes(),
        ]
        .concat();
        let h = fnv1a(&v1);
        assert_eq!(h, pin, "{event:?}: {h:#018x}");
    }
}

/// `n` fixed bytes that are neither constant nor periodic in 8.
fn pattern(n: usize) -> Vec<u8> {
    (0..n as u32)
        .map(|i| (i.wrapping_mul(0x9e37_79b1) >> 24) as u8)
        .collect()
}

#[test]
fn checksum_pins_fixed_inputs() {
    let pins = [
        (0, 0x3fdf_455f_9dcf_1e62),
        (1, 0x27d8_ce3f_728d_7ae2),
        (26, 0xf0ca_cafa_0e3a_69e6),
        (33, 0xccab_3905_6607_9536),
        (100_000, 0xaebb_e928_c3e9_4716),
    ];
    for (len, pin) in pins {
        let h = checksum(&pattern(len));
        assert_eq!(h, pin, "{len} bytes: {h:#018x}");
    }
}
