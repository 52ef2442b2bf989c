//! # wrsn-sim
//!
//! Discrete-time simulator reproducing the evaluation environment of the
//! ICPP'15 JRSSAM paper (§V): `N` sensors uniformly deployed on an `L×L`
//! field, `M` targets relocating every *target period*, a base station at
//! the field center collecting data over Dijkstra multi-hop routes, and `m`
//! recharging vehicles executing the schedules produced by a
//! [`wrsn_core::RechargePolicy`].
//!
//! The engine advances on a fixed tick (default 60 s). Between ticks every
//! power draw is piecewise constant, so energy integration is exact:
//!
//! * sensors drain according to their activity state (PIR active/idle +
//!   CC2480 radio with per-packet relay traffic from the routing tree);
//! * RVs move at constant speed, burn `e_m` J/m, and transfer charge with
//!   the Ni-MH acceptance taper;
//! * target relocations rebuild coverage, clusters and round-robin rotas;
//! * sensor deaths invalidate the routing tree (depleted nodes can't relay).
//!
//! Everything is deterministic for a given [`SimConfig`] and seed.
//!
//! ```
//! use wrsn_sim::{SimConfig, World};
//!
//! let mut cfg = SimConfig::paper_defaults();
//! cfg.num_sensors = 60;        // shrink for the doctest
//! cfg.num_targets = 3;
//! cfg.duration_s = 3_600.0;    // one hour
//! let mut world = World::new(&cfg, 42);
//! let outcome = world.run();
//! assert!(outcome.report.coverage_ratio_pct >= 0.0);
//! ```

pub mod batch;
pub mod codec;
mod config;
mod engine;
pub mod fabric;
pub mod frame;
pub mod journal;
pub mod render;
mod request;
mod rv_agent;
pub mod shard;
pub mod snapshot;
pub mod store;
pub mod sweep;
mod trace;
mod world;

pub use config::{ActivityConfig, FaultConfig, SimConfig, TargetMobility};
pub use request::RequestBoard;
pub use rv_agent::{RvAgent, RvPhase};
pub use trace::{Trace, TraceEvent};
pub use world::{SimOutcome, StepTimings, World};
