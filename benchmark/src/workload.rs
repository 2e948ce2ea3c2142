//! The seven workloads by name.

use std::time::{Duration, Instant};

use crate::gen::Mix;
use crate::run::{run, Failure, Outcome, RunSpec};
use crate::stack::{build_abd_sim, build_svc, build_wire, MemMw, MemScan, RunDir, WireFlavor};
use crate::tracing::Plane;

/// A workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name later issues cite.
    pub name: &'static str,
    /// The op mix.
    pub mix: Mix,
    /// Whether ops cross a quorum (200 warm-up ops instead of 2 000).
    pub quorum: bool,
    /// Whether every op is timed (else one in sixteen).
    pub time_all: bool,
}

/// Every workload, in ledger order.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "mem-scan",
        mix: Mix::ScanHeavy,
        quorum: false,
        time_all: false,
    },
    Workload {
        name: "mem-mw",
        mix: Mix::MultiWriter,
        quorum: false,
        time_all: false,
    },
    Workload {
        name: "svc",
        mix: Mix::Service,
        quorum: false,
        time_all: true,
    },
    Workload {
        name: "abd-sim",
        mix: Mix::Service,
        quorum: true,
        time_all: true,
    },
    Workload {
        name: "wire",
        mix: Mix::Service,
        quorum: true,
        time_all: true,
    },
    Workload {
        name: "wire-durable",
        mix: Mix::Service,
        quorum: true,
        time_all: true,
    },
    Workload {
        name: "wire-degraded",
        mix: Mix::Service,
        quorum: true,
        time_all: true,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The spec of one plain run of this workload: untraced, one set-up,
    /// span timestamps counted from `base`. Callers flip the rest.
    pub fn spec(&self, seed: u64, measure: Duration, base: Instant) -> RunSpec {
        RunSpec {
            mix: self.mix,
            seed,
            // 2 000 warm-up ops per client in-process, 200 quorum-backed.
            warm_ops: if self.quorum { 200 } else { 2000 },
            measure,
            time_all: self.time_all,
            traced: false,
            repeat_setup: false,
            base,
        }
    }
}

/// Runs `w` once as `spec` says, on stacks wired to `plane`.
pub fn run_workload(
    w: &Workload,
    spec: &RunSpec,
    plane: &Plane,
    dir: &RunDir,
) -> Result<Outcome, Failure> {
    let trace = &plane.trace;
    let wire = |flavor| move || build_wire(&dir.fresh()?, flavor, trace);
    match w.name {
        "mem-scan" => run(&|| Ok(MemScan::build()), spec),
        "mem-mw" => run(&|| Ok(MemMw::build()), spec),
        "svc" => run(&|| Ok(build_svc(trace)), spec),
        "abd-sim" => run(&|| Ok(build_abd_sim(trace)), spec),
        "wire" => run(&wire(WireFlavor::Plain), spec),
        "wire-durable" => run(&wire(WireFlavor::Durable), spec),
        "wire-degraded" => run(&wire(WireFlavor::Degraded), spec),
        other => Err(Failure::Setup(format!("unknown workload `{other}`"))),
    }
}
