//! Optional event trace: a bounded log of the discrete events a run emits,
//! for debugging, visualization and replay-style assertions.

use wrsn_core::{RvId, SensorId};

/// One traced event. Times are simulation seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// The planner assigned a route.
    Dispatch {
        /// Time of the assignment.
        t: f64,
        /// Vehicle receiving the route.
        rv: RvId,
        /// Number of stops in the route.
        stops: usize,
        /// Total demand (J) the route is expected to serve.
        demand_j: f64,
    },
    /// An RV finished charging one sensor.
    ServiceDone {
        /// Completion time.
        t: f64,
        /// The serving vehicle.
        rv: RvId,
        /// The recharged sensor.
        sensor: SensorId,
    },
    /// A sensor's battery reached zero.
    SensorDepleted {
        /// Time of depletion.
        t: f64,
        /// The sensor.
        sensor: SensorId,
    },
    /// A depleted sensor came back above zero thanks to an RV.
    SensorRevived {
        /// Time of revival.
        t: f64,
        /// The sensor.
        sensor: SensorId,
    },
    /// Target relocations forced a cluster rebuild.
    ClustersRebuilt {
        /// Time of the rebuild.
        t: f64,
        /// Number of clusters formed.
        clusters: usize,
    },
    /// A permanent hardware failure (failure-injection experiments).
    SensorFailed {
        /// Time of the fault.
        t: f64,
        /// The sensor.
        sensor: SensorId,
    },
    /// An RV broke down mid-tour (chaos engine); its remaining stops went
    /// back to the request board.
    RvBroke {
        /// Time of the breakdown.
        t: f64,
        /// The broken vehicle.
        rv: RvId,
        /// Stops returned to the board.
        dropped_stops: usize,
    },
    /// A broken RV finished its repair and rejoined the fleet.
    RvRepaired {
        /// Time the repair completed.
        t: f64,
        /// The repaired vehicle.
        rv: RvId,
    },
    /// A transient fault suspended a sensor (battery untouched).
    SensorSuspended {
        /// Time of the outage.
        t: f64,
        /// The sensor.
        sensor: SensorId,
    },
    /// A suspended sensor's outage ended; it rejoins duty and routing.
    SensorResumed {
        /// Time of the recovery.
        t: f64,
        /// The sensor.
        sensor: SensorId,
    },
    /// A release/ack uplink exchange was lost; the request group will
    /// retransmit after a capped exponential backoff.
    RequestDropped {
        /// Time of the loss.
        t: f64,
        /// The requesting sensor.
        sensor: SensorId,
        /// Consecutive losses for this request so far (1 = first).
        attempt: u32,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn time(&self) -> f64 {
        match *self {
            TraceEvent::Dispatch { t, .. }
            | TraceEvent::ServiceDone { t, .. }
            | TraceEvent::SensorDepleted { t, .. }
            | TraceEvent::SensorRevived { t, .. }
            | TraceEvent::ClustersRebuilt { t, .. }
            | TraceEvent::SensorFailed { t, .. }
            | TraceEvent::RvBroke { t, .. }
            | TraceEvent::RvRepaired { t, .. }
            | TraceEvent::SensorSuspended { t, .. }
            | TraceEvent::SensorResumed { t, .. }
            | TraceEvent::RequestDropped { t, .. } => t,
        }
    }

    /// One CSV row: `time,kind,subject,detail1,detail2`.
    pub fn to_csv_row(&self) -> String {
        match *self {
            TraceEvent::Dispatch {
                t,
                rv,
                stops,
                demand_j,
            } => {
                format!("{t},dispatch,{rv},{stops},{demand_j}")
            }
            TraceEvent::ServiceDone { t, rv, sensor } => {
                format!("{t},service,{rv},{sensor},")
            }
            TraceEvent::SensorDepleted { t, sensor } => format!("{t},depleted,{sensor},,"),
            TraceEvent::SensorRevived { t, sensor } => format!("{t},revived,{sensor},,"),
            TraceEvent::ClustersRebuilt { t, clusters } => format!("{t},clusters,{clusters},,"),
            TraceEvent::SensorFailed { t, sensor } => format!("{t},failed,{sensor},,"),
            TraceEvent::RvBroke {
                t,
                rv,
                dropped_stops,
            } => format!("{t},rv_broke,{rv},{dropped_stops},"),
            TraceEvent::RvRepaired { t, rv } => format!("{t},rv_repaired,{rv},,"),
            TraceEvent::SensorSuspended { t, sensor } => format!("{t},suspended,{sensor},,"),
            TraceEvent::SensorResumed { t, sensor } => format!("{t},resumed,{sensor},,"),
            TraceEvent::RequestDropped { t, sensor, attempt } => {
                format!("{t},req_dropped,{sensor},{attempt},")
            }
        }
    }
}

/// Bounded, optionally-enabled event log. Disabled traces cost one branch
/// per event site; enabled traces drop the oldest events beyond `cap`.
///
/// Eviction is amortized O(1): an evicted event stays in `events` below
/// `head` until `cap` of them have piled up, then one compaction drops
/// them all, so the buffer never holds more than `2 · cap` events.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The retained events are `events[head..]`, oldest first.
    events: Vec<TraceEvent>,
    head: usize,
    enabled: bool,
    cap: usize,
    dropped: u64,
}

impl Trace {
    /// A disabled trace (the default inside [`crate::World`]).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled trace that retains at most `cap` events (oldest dropped).
    pub fn enabled(cap: usize) -> Self {
        Self {
            enabled: true,
            cap: cap.max(1),
            ..Self::default()
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records `event` when enabled.
    pub fn push(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() - self.head >= self.cap {
            self.head += 1;
            self.dropped += 1;
            if self.head >= self.cap {
                self.events.drain(..self.head);
                self.head = 0;
            }
        }
        self.events.push(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events[self.head..]
    }

    /// How many events were evicted by the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded: the retained ones plus those evicted by
    /// the cap. The run store's recorder uses this as a monotone cursor to
    /// drain exactly the events each tick appended.
    pub fn total_recorded(&self) -> u64 {
        self.dropped + self.events().len() as u64
    }

    /// The retention cap (0 for a disabled trace).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Rebuilds a trace from previously captured state (simulation-snapshot
    /// restore). A disabled trace must carry no events; an enabled one must
    /// fit its cap.
    ///
    /// # Panics
    /// Panics when `events` exceeds `cap` on an enabled trace, or when a
    /// disabled trace carries events.
    pub fn restore(events: Vec<TraceEvent>, enabled: bool, cap: usize, dropped: u64) -> Self {
        if enabled {
            assert!(
                events.len() <= cap,
                "restored trace holds {} events over its cap {cap}",
                events.len()
            );
        } else {
            assert!(events.is_empty(), "disabled trace cannot carry events");
        }
        Self {
            events,
            head: 0,
            enabled,
            cap,
            dropped,
        }
    }

    /// Renders the retained events as CSV (with header).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,kind,subject,detail1,detail2\n");
        for e in self.events() {
            out.push_str(&e.to_csv_row());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.push(TraceEvent::SensorDepleted {
            t: 1.0,
            sensor: SensorId(0),
        });
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn cap_evicts_oldest() {
        let mut t = Trace::enabled(2);
        for i in 0..4 {
            t.push(TraceEvent::SensorDepleted {
                t: i as f64,
                sensor: SensorId(i),
            });
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.events()[0].time(), 2.0);
    }

    #[test]
    fn capped_trace_keeps_the_last_cap_events() {
        let event = |i: u32| TraceEvent::SensorDepleted {
            t: i as f64,
            sensor: SensorId(i),
        };
        for cap in [1, 2, 3, 7, 64] {
            let (mut capped, mut full) = (Trace::enabled(cap), Trace::enabled(usize::MAX));
            for n in 0..5 * cap as u32 + 3 {
                capped.push(event(n));
                full.push(event(n));
                let all = full.events();
                let kept = all.len().min(cap);
                assert_eq!(
                    capped.events(),
                    &all[all.len() - kept..],
                    "cap {cap}, n {n}"
                );
                assert_eq!(capped.dropped(), (all.len() - kept) as u64);
                assert_eq!(capped.total_recorded(), full.total_recorded());
            }
        }
    }

    #[test]
    fn csv_rows_have_five_fields() {
        let mut t = Trace::enabled(16);
        t.push(TraceEvent::Dispatch {
            t: 0.0,
            rv: RvId(1),
            stops: 3,
            demand_j: 100.0,
        });
        t.push(TraceEvent::ServiceDone {
            t: 5.0,
            rv: RvId(1),
            sensor: SensorId(9),
        });
        t.push(TraceEvent::ClustersRebuilt {
            t: 6.0,
            clusters: 4,
        });
        t.push(TraceEvent::RvBroke {
            t: 7.0,
            rv: RvId(0),
            dropped_stops: 2,
        });
        t.push(TraceEvent::RvRepaired {
            t: 8.0,
            rv: RvId(0),
        });
        t.push(TraceEvent::SensorSuspended {
            t: 9.0,
            sensor: SensorId(4),
        });
        t.push(TraceEvent::SensorResumed {
            t: 10.0,
            sensor: SensorId(4),
        });
        t.push(TraceEvent::RequestDropped {
            t: 11.0,
            sensor: SensorId(4),
            attempt: 3,
        });
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 5, "bad row: {line}");
        }
        assert!(csv.contains("dispatch,rv1,3,100"));
    }
}
