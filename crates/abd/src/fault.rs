//! Seeded fault injection for the simulated message-passing network, and
//! a nemesis driver that walks a schedule of fault phases.
//!
//! The paper's resilience claim is *"as long as a majority of the system
//! remains connected"* — which means the interesting executions are the
//! ones where links lose, duplicate, delay and reorder messages and
//! partitions come and go. [`FaultPlan`] configures all of that per link
//! (one link = the path between the clients and one replica), driven by a
//! single [`SeededRng`] seed so every run is reproducible; [`Nemesis`] walks
//! a schedule of fault phases (heal → partition a minority → flap a
//! replica → heal) over wall-clock or message-count triggers.
//!
//! [`SeededRng`]: snapshot_registers::SeededRng

use std::time::{Duration, Instant};

use crate::Network;

/// Fault policy for one client↔replica link.
///
/// All probabilities are per message and clamped to `[0, 1]`. The default
/// ([`LinkFault::healthy`]) injects nothing, so a `FaultPlan` is built by
/// turning individual faults on:
///
/// ```
/// use std::time::Duration;
/// use snapshot_abd::LinkFault;
///
/// let lossy = LinkFault::healthy()
///     .with_drop(0.1)
///     .with_duplicate(0.05)
///     .with_reorder(0.1, 3)
///     .with_reply_drop(0.05)
///     .with_delay(Duration::from_micros(10), Duration::from_micros(200));
/// assert!(lossy.injects_faults());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LinkFault {
    /// Probability a client→replica request is silently discarded.
    pub drop: f64,
    /// Probability a request is delivered twice (exercising replica-side
    /// request-id deduplication).
    pub duplicate: f64,
    /// Probability a request is held back past later traffic.
    pub reorder: f64,
    /// Maximum number of later messages a held-back request can be
    /// overtaken by (bounded reordering; ignored while `reorder == 0`).
    pub reorder_window: usize,
    /// Uniform per-delivery processing delay `[min, max]`, if any.
    pub delay: Option<(Duration, Duration)>,
    /// Probability a replica→client reply is silently discarded.
    pub reply_drop: f64,
}

impl LinkFault {
    /// A link that delivers every message exactly once, in order,
    /// immediately.
    pub fn healthy() -> Self {
        LinkFault {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_window: 0,
            delay: None,
            reply_drop: 0.0,
        }
    }

    /// Sets the request drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the request duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the reorder probability and holdback window.
    pub fn with_reorder(mut self, p: f64, window: usize) -> Self {
        self.reorder = p.clamp(0.0, 1.0);
        self.reorder_window = window;
        self
    }

    /// Sets a uniform per-delivery delay range.
    pub fn with_delay(mut self, min: Duration, max: Duration) -> Self {
        self.delay = Some((min.min(max), max.max(min)));
        self
    }

    /// Sets the reply drop probability.
    pub fn with_reply_drop(mut self, p: f64) -> Self {
        self.reply_drop = p.clamp(0.0, 1.0);
        self
    }

    /// True if any fault has nonzero probability (used to skip the fault
    /// bookkeeping entirely on healthy links).
    pub fn injects_faults(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.reorder > 0.0
            || self.delay.is_some()
            || self.reply_drop > 0.0
    }
}

impl Default for LinkFault {
    fn default() -> Self {
        LinkFault::healthy()
    }
}

/// A seeded, reproducible fault-injection plan for a whole network:
/// one default [`LinkFault`] plus per-replica overrides.
///
/// Replica `i`'s fault decisions are drawn from
/// `SeededRng::new(seed + i)`, so a fixed seed fixes the entire
/// drop/duplicate/reorder decision sequence of every link. Partitions and
/// crashes are *not* part of the static plan — they are runtime state,
/// driven by [`Network::partition`]/[`Network::crash`] or a [`Nemesis`]
/// schedule.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for all per-link fault RNGs.
    pub seed: u64,
    /// Fault policy applied to every link without an override.
    pub default_fault: LinkFault,
    /// Per-replica overrides `(replica index, fault)`.
    pub overrides: Vec<(usize, LinkFault)>,
}

impl FaultPlan {
    /// A plan with healthy links and the given seed (turn faults on with
    /// [`FaultPlan::with_default`]/[`FaultPlan::with_link`]).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_fault: LinkFault::healthy(),
            overrides: Vec::new(),
        }
    }

    /// Sets the default fault policy for every link.
    pub fn with_default(mut self, fault: LinkFault) -> Self {
        self.default_fault = fault;
        self
    }

    /// Overrides the fault policy of replica `index`'s link.
    pub fn with_link(mut self, index: usize, fault: LinkFault) -> Self {
        self.overrides.push((index, fault));
        self
    }

    /// The fault policy for replica `index`'s link (last override wins).
    pub fn fault_for(&self, index: usize) -> LinkFault {
        self.overrides
            .iter()
            .rev()
            .find(|(i, _)| *i == index)
            .map(|(_, f)| f.clone())
            .unwrap_or_else(|| self.default_fault.clone())
    }
}

/// One step a [`Nemesis`] schedule applies to the network.
#[derive(Clone, Debug)]
pub enum NemesisEvent {
    /// Clear every partition cut (link faults and crashes stay).
    Heal,
    /// Partition the listed replicas away. `symmetric` cuts both request
    /// and reply direction; asymmetric cuts only requests (the replica can
    /// still speak — its acks arrive but new work never reaches it).
    Partition {
        /// Replica indexes to cut off.
        replicas: Vec<usize>,
        /// Cut both directions (`true`) or only client→replica (`false`).
        symmetric: bool,
    },
    /// Crash a replica (it falls silent until restarted; state intact).
    Crash(usize),
    /// Restart a crashed replica.
    Restart(usize),
    /// Replace every link's fault policy.
    GlobalFault(LinkFault),
    /// Replace one link's fault policy.
    LinkFaultOn {
        /// Replica whose link changes.
        replica: usize,
        /// The new policy.
        fault: LinkFault,
    },
}

/// How long a nemesis phase dwells after applying its events.
#[derive(Clone, Copy, Debug)]
pub enum Dwell {
    /// Wall-clock milliseconds.
    Millis(u64),
    /// Until the network has sent this many further messages (with a
    /// 5-second wall-clock cap so a starved network cannot hang the
    /// schedule).
    Messages(u64),
}

/// Hard cap on a [`Dwell::Messages`] wait, so a partitioned/idle network
/// cannot stall a nemesis schedule forever.
const DWELL_MESSAGES_CAP: Duration = Duration::from_secs(5);

/// One phase of a nemesis schedule: events applied atomically (from the
/// schedule's point of view), then a dwell.
#[derive(Clone, Debug)]
pub struct NemesisPhase {
    /// The fault events this phase applies.
    pub events: Vec<NemesisEvent>,
    /// How long to hold the resulting fault mix.
    pub dwell: Dwell,
}

/// A driver that walks a schedule of fault phases over a [`Network`]
/// while a workload runs on other threads.
///
/// `run` is blocking; tests typically spawn it on its own (scoped) thread
/// next to the client threads:
///
/// ```
/// use std::sync::Arc;
/// use snapshot_abd::{Dwell, Nemesis, NemesisEvent, Network};
///
/// let network = Arc::new(Network::new(5));
/// Nemesis::new()
///     .phase(vec![NemesisEvent::Partition { replicas: vec![0, 1], symmetric: true }],
///            Dwell::Millis(5))
///     .phase(vec![NemesisEvent::Heal, NemesisEvent::Crash(2)], Dwell::Millis(5))
///     .phase(vec![NemesisEvent::Restart(2), NemesisEvent::Heal], Dwell::Millis(1))
///     .run(&network);
/// ```
///
/// The schedule above never cuts more than a minority at once, so a
/// concurrent ABD workload stays live throughout (retries carry it across
/// the phase boundaries).
#[derive(Clone, Debug, Default)]
pub struct Nemesis {
    phases: Vec<NemesisPhase>,
}

impl Nemesis {
    /// An empty schedule.
    pub fn new() -> Self {
        Nemesis { phases: Vec::new() }
    }

    /// Appends a phase.
    pub fn phase(mut self, events: Vec<NemesisEvent>, dwell: Dwell) -> Self {
        self.phases.push(NemesisPhase { events, dwell });
        self
    }

    /// The scheduled phases.
    pub fn phases(&self) -> &[NemesisPhase] {
        &self.phases
    }

    /// Applies the schedule to `network`, phase by phase, blocking through
    /// each dwell. Leaves whatever fault state the last phase set (end
    /// schedules with [`NemesisEvent::Heal`] if the workload must finish
    /// cleanly).
    pub fn run(&self, network: &Network) {
        for phase in &self.phases {
            for event in &phase.events {
                Self::apply(network, event);
            }
            match phase.dwell {
                Dwell::Millis(ms) => std::thread::sleep(Duration::from_millis(ms)),
                Dwell::Messages(n) => {
                    let start_messages = network.stats().messages_sent;
                    let deadline = Instant::now() + DWELL_MESSAGES_CAP;
                    while network.stats().messages_sent < start_messages.saturating_add(n)
                        && Instant::now() < deadline
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
    }

    fn apply(network: &Network, event: &NemesisEvent) {
        match event {
            NemesisEvent::Heal => network.heal(),
            NemesisEvent::Partition {
                replicas,
                symmetric,
            } => {
                if *symmetric {
                    network.partition(replicas);
                } else {
                    network.partition_inbound(replicas);
                }
            }
            NemesisEvent::Crash(i) => network.crash(*i),
            NemesisEvent::Restart(i) => network.restart(*i),
            NemesisEvent::GlobalFault(fault) => network.set_fault_all(fault.clone()),
            NemesisEvent::LinkFaultOn { replica, fault } => {
                network.set_fault(*replica, fault.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn probabilities_are_clamped() {
        let f = LinkFault::healthy()
            .with_drop(7.0)
            .with_duplicate(-1.0)
            .with_reply_drop(0.25);
        assert_eq!(f.drop, 1.0);
        assert_eq!(f.duplicate, 0.0);
        assert_eq!(f.reply_drop, 0.25);
        assert!(f.injects_faults());
        assert!(!LinkFault::healthy().injects_faults());
    }

    #[test]
    fn plan_overrides_win_per_link() {
        let plan = FaultPlan::seeded(1)
            .with_default(LinkFault::healthy().with_drop(0.5))
            .with_link(2, LinkFault::healthy());
        assert_eq!(plan.fault_for(0).drop, 0.5);
        assert_eq!(plan.fault_for(2).drop, 0.0);
    }

    #[test]
    fn empty_and_millis_schedules_terminate() {
        let network = Arc::new(Network::new(3));
        Nemesis::new().run(&network);
        Nemesis::new()
            .phase(vec![NemesisEvent::Crash(0)], Dwell::Millis(1))
            .phase(vec![NemesisEvent::Restart(0), NemesisEvent::Heal], Dwell::Millis(1))
            .run(&network);
    }

    #[test]
    fn message_dwell_is_wall_clock_capped() {
        // No traffic flows, so only the cap can release the dwell; use a
        // tiny message budget — the point is that it returns at all.
        let network = Arc::new(Network::new(1));
        let nemesis = Nemesis::new().phase(vec![], Dwell::Messages(1));
        let started = Instant::now();
        // Drive a single message so the dwell releases fast.
        let handle = {
            let network = Arc::clone(&network);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                use snapshot_registers::Register;
                let reg = crate::AbdRegister::new(network, 0u32);
                let _ = reg.read(snapshot_registers::ProcessId::new(0));
            })
        };
        nemesis.run(&network);
        assert!(started.elapsed() < DWELL_MESSAGES_CAP + Duration::from_secs(1));
        handle.join().unwrap();
    }
}
