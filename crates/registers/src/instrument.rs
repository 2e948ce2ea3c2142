use std::fmt;
use std::sync::Arc;

use snapshot_obs::{Event, Trace};

use crate::{Backend, OpCounters, OpKind, ProcessId, Register, RegisterValue, StepGate};

/// The observation hooks shared by every cell an [`Instrumented`] backend
/// creates: optional per-process operation counters, an optional scheduler
/// gate, and an optional [`Trace`] receiving a typed event per primitive
/// register operation.
#[derive(Clone, Default)]
pub struct Probe {
    counters: Option<Arc<OpCounters>>,
    gate: Option<Arc<dyn StepGate>>,
    trace: Trace,
}

impl Probe {
    /// A probe that counts operations into `counters`.
    pub fn counting(counters: Arc<OpCounters>) -> Self {
        Probe {
            counters: Some(counters),
            gate: None,
            trace: Trace::disabled(),
        }
    }

    /// A probe that parks at `gate` before every operation.
    pub fn gated(gate: Arc<dyn StepGate>) -> Self {
        Probe {
            counters: None,
            gate: Some(gate),
            trace: Trace::disabled(),
        }
    }

    /// Adds counting to this probe.
    pub fn with_counters(mut self, counters: Arc<OpCounters>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Adds gating to this probe.
    pub fn with_gate(mut self, gate: Arc<dyn StepGate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Routes a `register_read` / `register_write` event into `trace` for
    /// every observed operation.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// The counters this probe records into, if any.
    pub fn counters(&self) -> Option<&Arc<OpCounters>> {
        self.counters.as_ref()
    }

    /// The trace this probe emits into (disabled by default).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    fn observe(&self, pid: ProcessId, op: OpKind) {
        if let Some(gate) = &self.gate {
            gate.step(pid, op);
        }
        if let Some(counters) = &self.counters {
            counters.record(pid, op);
        }
        self.trace.emit(
            pid.get(),
            match op {
                OpKind::Read => Event::RegisterRead,
                OpKind::Write => Event::RegisterWrite,
            },
        );
    }
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Probe")
            .field("counting", &self.counters.is_some())
            .field("gated", &self.gate.is_some())
            .field("traced", &self.trace.is_enabled())
            .finish()
    }
}

/// A [`Backend`] wrapper whose every cell reports to a shared [`Probe`].
///
/// Composes with any inner backend: counted real-concurrency runs
/// (`Instrumented<EpochBackend>` with counters), deterministic simulation
/// (gate installed by `snapshot-sim`), or both at once — the step-complexity
/// experiments count operations *under* adversarial schedules this way.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use snapshot_registers::{
///     Backend, EpochBackend, Instrumented, OpCounters, ProcessId, Register,
/// };
///
/// let counters = Arc::new(OpCounters::new(1));
/// let backend = Instrumented::new(EpochBackend::default())
///     .with_counters(Arc::clone(&counters));
/// let cell = backend.cell(0u8);
/// let p = ProcessId::new(0);
/// cell.write(p, 1);
/// cell.read(p);
/// let snap = counters.snapshot(p);
/// assert_eq!((snap.reads, snap.writes), (1, 1));
/// ```
#[derive(Debug)]
pub struct Instrumented<B> {
    inner: B,
    probe: Probe,
}

impl<B> Instrumented<B> {
    /// Wraps `inner` with an empty probe (no counting, no gating).
    pub fn new(inner: B) -> Self {
        Instrumented {
            inner,
            probe: Probe::default(),
        }
    }

    /// Wraps `inner` with an explicit probe.
    pub fn with_probe(inner: B, probe: Probe) -> Self {
        Instrumented { inner, probe }
    }

    /// Adds operation counting.
    pub fn with_counters(mut self, counters: Arc<OpCounters>) -> Self {
        self.probe = self.probe.with_counters(counters);
        self
    }

    /// Adds scheduler gating.
    pub fn with_gate(mut self, gate: Arc<dyn StepGate>) -> Self {
        self.probe = self.probe.with_gate(gate);
        self
    }

    /// Adds trace emission (one event per primitive register operation).
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.probe = self.probe.with_trace(trace);
        self
    }

    /// The probe shared by all cells of this backend.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Consumes the wrapper, returning the inner backend.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: Backend> Backend for Instrumented<B> {
    type Cell<T: RegisterValue> = InstrumentedCell<B::Cell<T>>;
    type Bit = InstrumentedCell<B::Bit>;

    fn cell<T: RegisterValue>(&self, init: T) -> Self::Cell<T> {
        InstrumentedCell {
            inner: self.inner.cell(init),
            probe: self.probe.clone(),
        }
    }

    fn bit(&self, init: bool) -> Self::Bit {
        InstrumentedCell {
            inner: self.inner.bit(init),
            probe: self.probe.clone(),
        }
    }
}

/// A register cell that reports every operation to a [`Probe`] before
/// delegating to the wrapped cell.
pub struct InstrumentedCell<R> {
    inner: R,
    probe: Probe,
}

impl<T, R: Register<T>> Register<T> for InstrumentedCell<R> {
    fn read(&self, reader: ProcessId) -> T {
        self.probe.observe(reader, OpKind::Read);
        self.inner.read(reader)
    }

    fn write(&self, writer: ProcessId, value: T) {
        self.probe.observe(writer, OpKind::Write);
        self.inner.write(writer, value)
    }

    fn read_with<U>(&self, reader: ProcessId, f: impl FnOnce(&T) -> U) -> U {
        // Exactly one observed step per logical read, same as `read`, so
        // the clone-free path is indistinguishable to gates and counters.
        self.probe.observe(reader, OpKind::Read);
        self.inner.read_with(reader, f)
    }

    fn version_hint(&self) -> Option<crate::Version> {
        // Under a gate, deliberately no hint even when the inner cell
        // keeps versions: a version probe would let callers skip reads
        // *without parking at the gate*, hiding steps from the
        // deterministic scheduler and changing the operation counts the
        // simulator tests assert on. Counting-only and tracing-only
        // instrumentation forwards the hint — probes are not register
        // operations (no reader identity, nothing to count), and hiding
        // them would make the instrumented backend behave unlike the
        // production one it is supposed to measure (no incremental
        // collect, no version-filtered subset collect).
        if self.probe.gate.is_some() {
            None
        } else {
            self.inner.version_hint()
        }
    }
}

impl<R: fmt::Debug> fmt::Debug for InstrumentedCell<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstrumentedCell")
            .field("inner", &self.inner)
            .field("probe", &self.probe)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EpochBackend;

    #[test]
    fn counters_see_every_cell_of_the_backend() {
        let counters = Arc::new(OpCounters::new(2));
        let backend = Instrumented::new(EpochBackend::new()).with_counters(Arc::clone(&counters));
        let a = backend.cell(0u32);
        let b = backend.cell(0u32);
        let bit = backend.bit(false);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);

        a.read(p0);
        b.read(p0);
        bit.write(p1, true);

        assert_eq!(counters.snapshot(p0).reads, 2);
        assert_eq!(counters.snapshot(p1).writes, 1);
    }

    #[test]
    fn gate_is_invoked_before_each_operation() {
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Debug, Default)]
        struct CountingGate(AtomicU64);
        impl StepGate for CountingGate {
            fn step(&self, _pid: ProcessId, _op: OpKind) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let gate = Arc::new(CountingGate::default());
        let backend = Instrumented::new(EpochBackend::new())
            .with_gate(Arc::clone(&gate) as Arc<dyn StepGate>);
        let cell = backend.cell(0u8);
        let p = ProcessId::new(0);
        cell.write(p, 1);
        cell.read(p);
        cell.read(p);
        assert_eq!(gate.0.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn read_with_is_one_observed_step_and_versions_follow_the_gate() {
        let counters = Arc::new(OpCounters::new(1));
        let backend = Instrumented::new(EpochBackend::new()).with_counters(Arc::clone(&counters));
        let cell = backend.cell(5u32);
        let p = ProcessId::new(0);
        assert_eq!(cell.read_with(p, |v| v + 1), 6);
        assert_eq!(counters.snapshot(p).reads, 1);
        // Counting-only instrumentation forwards the inner EpochCell's
        // versions (probes are not counted operations), and the hint
        // keeps the inner contract: it moves with every write.
        let before = cell.version_hint().expect("counting must not hide versions");
        cell.write(p, 9);
        let after = cell.version_hint().expect("still forwarded after a write");
        assert_ne!(before, after, "the forwarded hint must move with writes");

        // Under a gate the hint disappears: a probe-based shortcut would
        // let callers skip reads without parking at the gate.
        let gated = Instrumented::new(EpochBackend::new())
            .with_gate(Arc::new(crate::NullGate) as Arc<dyn StepGate>);
        assert_eq!(gated.cell(5u32).version_hint(), None);
    }

    #[test]
    fn trace_sees_each_operation_with_the_right_kind() {
        use snapshot_obs::RingSink;

        let sink = Arc::new(RingSink::new(2, 16));
        let backend =
            Instrumented::new(EpochBackend::new()).with_trace(Trace::new(sink.clone()));
        let cell = backend.cell(0u8);
        let p1 = ProcessId::new(1);
        cell.write(p1, 7);
        cell.read(p1);

        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].pid, 1);
        assert_eq!(events[0].event, Event::RegisterWrite);
        assert_eq!(events[1].event, Event::RegisterRead);
    }
}
