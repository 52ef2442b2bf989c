//! # wrsn-energy
//!
//! Energy substrate for the `wrsn` workspace. The ICPP'15 paper grounds its
//! simulation in datasheet constants of real devices (§V): a TI CC2480
//! ZigBee radio \[25\], a PIR motion detector \[26\], Panasonic Ni-MH AAA cells
//! \[15\], and recharging vehicles that burn 5.6 J per meter of travel. This
//! crate implements those models:
//!
//! * [`Battery`] — bounded energy store with a Ni-MH-style charge-rate taper
//!   ([`ChargeModel`]), so recharge *time* depends on the deficit the way the
//!   Panasonic handbook describes.
//! * [`RadioModel`] — idle/tx/rx currents and per-packet energies.
//! * [`DetectorModel`] — PIR active/idle power.
//! * [`SensorEnergyProfile`] — combines radio + detector into the power draw
//!   of a sensor in a given activity state.
//! * [`RvEnergyModel`] — RV motion energy, travel time and wireless-charging
//!   transfer power.
//!
//! Unit conventions (documented once, used everywhere): energy in **Joules**,
//! power in **Watts**, time in **seconds**, distance in **meters**.
//!
//! ```
//! use wrsn_energy::{Battery, SensorEnergyProfile, SensorActivity};
//!
//! let profile = SensorEnergyProfile::cc2480_pir();
//! let mut batt = Battery::two_aaa_nimh();
//! // One hour of active sensing:
//! let p = profile.power(SensorActivity::Sensing { tx_pps: 0.25, rx_pps: 0.0 });
//! batt.draw(p * 3600.0);
//! assert!(batt.level() < batt.capacity());
//! ```

mod battery;
mod detector;
mod profile;
mod radio;
mod rv;
pub mod units;

pub use battery::{Battery, ChargeModel};
pub use detector::DetectorModel;
pub use profile::{DetectorState, PowerTable, SensorActivity, SensorEnergyProfile};
pub use radio::RadioModel;
pub use rv::RvEnergyModel;
