//! # wrsn-metrics
//!
//! Metrics substrate for the `wrsn` workspace: lightweight time-series
//! accumulation, summary statistics, the paper's §V evaluation metrics, and
//! aligned-table / CSV reporting used by the figure-regeneration binaries.
//!
//! The paper evaluates (Figs. 4–7):
//! * total RV traveling energy (MJ),
//! * target **missing rate** / average **coverage ratio**,
//! * average percentage of **nonfunctional** (depleted) sensors,
//! * **recharging cost** = total RV travel distance ÷ average number of
//!   operational sensors (m/sensor),
//! * total energy recharged into the network and the Eq. (2) **objective
//!   score** (recharged energy − traveling energy).
//!
//! [`EvalMetrics`] aggregates all of these from periodic samples plus
//! running counters; [`Table`] renders paper-style series.

mod eval;
mod report;
mod series;
mod summary;

pub use eval::{EvalMetrics, EvalReport};
pub use report::Table;
pub use series::TimeSeries;
pub use summary::Summary;
