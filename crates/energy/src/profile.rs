//! Whole-sensor power profile: detector + radio under an activity state.

use crate::{DetectorModel, RadioModel};
use serde::{Deserialize, Serialize};

/// What a sensor is currently doing, with its packet workload.
///
/// `tx_pps` / `rx_pps` are average packets per second the node transmits and
/// receives (own data plus relayed traffic); the radio model converts them
/// to an average power via packet airtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorActivity {
    /// Detector idle, radio idle except for relay traffic.
    Idle {
        /// Average transmitted packets per second (relaying).
        tx_pps: f64,
        /// Average received packets per second (relaying).
        rx_pps: f64,
    },
    /// Duty-cycled watch: the detector wakes for `duty` of the time so
    /// newly appearing targets are still noticed, and sleeps otherwise —
    /// the standard WSN low-power listening pattern for sensors that are
    /// not assigned to monitor anything right now.
    Watching {
        /// Fraction of time the detector is awake (0..=1).
        duty: f64,
        /// Average transmitted packets per second (relaying).
        tx_pps: f64,
        /// Average received packets per second (relaying).
        rx_pps: f64,
    },
    /// Detector actively monitoring a target; radio also carries the node's
    /// own data reports plus relay traffic.
    Sensing {
        /// Average transmitted packets per second (own + relayed).
        tx_pps: f64,
        /// Average received packets per second (relayed).
        rx_pps: f64,
    },
}

/// What the detector does within a [`SensorActivity`]: which of a
/// [`PowerTable`]'s detector powers it draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorState {
    /// Asleep ([`SensorActivity::Idle`]).
    Idle = 0,
    /// Duty-cycled ([`SensorActivity::Watching`]).
    Watching = 1,
    /// Monitoring a target ([`SensorActivity::Sensing`]).
    Sensing = 2,
}

/// A [`SensorEnergyProfile`]'s power model at one watch duty, with every
/// term that does not depend on the packet rates evaluated
/// ([`SensorEnergyProfile::table`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerTable {
    /// The radio's idle power (W).
    radio_idle: f64,
    /// The detector's power (W), by [`DetectorState`].
    detector: [f64; 3],
    /// Energy (J) above idle per transmitted packet.
    tx: f64,
    /// Energy (J) above idle per received packet.
    rx: f64,
}

impl PowerTable {
    /// Average power draw (W) with the detector in `detector` and the
    /// given packet rates.
    #[inline]
    pub fn power(&self, detector: DetectorState, tx_pps: f64, rx_pps: f64) -> f64 {
        self.radio_idle + self.detector[detector as usize] + tx_pps * self.tx + rx_pps * self.rx
    }
}

/// Combined energy profile of one sensor node.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SensorEnergyProfile {
    /// Radio model (default CC2480).
    pub radio: RadioModel,
    /// Detector model (default PIR).
    pub detector: DetectorModel,
    /// Data packet payload size in bytes (paper: 20).
    pub packet_bytes: usize,
}

impl SensorEnergyProfile {
    /// The paper's hardware: CC2480 radio + PIR detector, 20-byte packets.
    pub fn cc2480_pir() -> Self {
        Self {
            radio: RadioModel::cc2480(),
            detector: DetectorModel::pir(),
            packet_bytes: 20,
        }
    }

    /// Average power draw (W) in the given activity state, through the
    /// activity's [`PowerTable`].
    pub fn power(&self, activity: SensorActivity) -> f64 {
        let (duty, detector, tx_pps, rx_pps) = match activity {
            SensorActivity::Idle { tx_pps, rx_pps } => (0.0, DetectorState::Idle, tx_pps, rx_pps),
            SensorActivity::Watching {
                duty,
                tx_pps,
                rx_pps,
            } => (duty, DetectorState::Watching, tx_pps, rx_pps),
            SensorActivity::Sensing { tx_pps, rx_pps } => {
                (0.0, DetectorState::Sensing, tx_pps, rx_pps)
            }
        };
        self.table(duty).power(detector, tx_pps, rx_pps)
    }

    /// The terms of [`power`](Self::power) that do not depend on the
    /// packet rates, for a watch duty of `duty` (clamped to `0..=1`):
    /// evaluate them once to price many sensors.
    pub fn table(&self, duty: f64) -> PowerTable {
        let (idle, active) = (self.detector.idle_power(), self.detector.active_power());
        let duty = duty.clamp(0.0, 1.0);
        PowerTable {
            radio_idle: self.radio.idle_power(),
            detector: [idle, duty * active + (1.0 - duty) * idle, active],
            tx: self.radio.tx_energy(self.packet_bytes),
            rx: self.radio.rx_energy(self.packet_bytes),
        }
    }

    /// Power (W) of a fully idle node (no relay traffic) — the network's
    /// quiescent floor.
    pub fn idle_floor(&self) -> f64 {
        self.power(SensorActivity::Idle {
            tx_pps: 0.0,
            rx_pps: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensing_dominates_idle() {
        let p = SensorEnergyProfile::cc2480_pir();
        let idle = p.idle_floor();
        let active = p.power(SensorActivity::Sensing {
            tx_pps: 0.25,
            rx_pps: 0.0,
        });
        // Paper-scale numbers: idle ≈ 0.525 mW, active ≈ 30 mW.
        assert!(idle < 1e-3, "idle floor {idle}");
        assert!(active > 0.029 && active < 0.032, "active {active}");
        assert!(active / idle > 30.0);
    }

    #[test]
    fn watching_interpolates_between_idle_and_sensing() {
        let p = SensorEnergyProfile::cc2480_pir();
        let idle = p.power(SensorActivity::Idle {
            tx_pps: 0.0,
            rx_pps: 0.0,
        });
        let full = p.power(SensorActivity::Sensing {
            tx_pps: 0.0,
            rx_pps: 0.0,
        });
        let w0 = p.power(SensorActivity::Watching {
            duty: 0.0,
            tx_pps: 0.0,
            rx_pps: 0.0,
        });
        let w1 = p.power(SensorActivity::Watching {
            duty: 1.0,
            tx_pps: 0.0,
            rx_pps: 0.0,
        });
        let w_half = p.power(SensorActivity::Watching {
            duty: 0.5,
            tx_pps: 0.0,
            rx_pps: 0.0,
        });
        assert!((w0 - idle).abs() < 1e-12);
        assert!((w1 - full).abs() < 1e-12);
        assert!((w_half - (idle + full) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn relay_traffic_adds_power() {
        let p = SensorEnergyProfile::cc2480_pir();
        let quiet = p.power(SensorActivity::Idle {
            tx_pps: 0.0,
            rx_pps: 0.0,
        });
        let relaying = p.power(SensorActivity::Idle {
            tx_pps: 10.0,
            rx_pps: 10.0,
        });
        assert!(relaying > quiet);
        // 10 pkt/s each way at ~52 µJ/packet ≈ 1 mW extra.
        assert!((relaying - quiet) > 0.8e-3 && (relaying - quiet) < 1.3e-3);
    }

    #[test]
    fn battery_lifetime_matches_paper_scale() {
        // A sensor actively monitoring full-time should burn through half of
        // its 10.8 kJ battery (the 50% recharge threshold) in ~2 days; this
        // is the drain rate that makes recharge scheduling matter.
        let p = SensorEnergyProfile::cc2480_pir();
        let watts = p.power(SensorActivity::Sensing {
            tx_pps: 0.25,
            rx_pps: 0.0,
        });
        let half_battery = 5_400.0;
        let days = half_battery / watts / 86_400.0;
        assert!(
            days > 1.5 && days < 2.5,
            "half-battery lifetime {days} days"
        );
    }
}
