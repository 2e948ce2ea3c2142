//! Property tests for the error-rate windowed circuit breaker: the trip
//! rule against a reference sliding-window model, jitter band
//! containment, and a fully deterministic closed → open → half-open →
//! closed lifecycle driven by explicit clock readings — no sleeps
//! anywhere. Each property runs over
//! `CASES` seeded cases; a failure names its case, and
//! `SeededRng::new(SEED ^ case)` regenerates it.

use std::time::Duration;

use snapshot_registers::SeededRng;
use snapshot_service::{Breaker, BreakerState, Gate, HealthConfig, Priority};

const CASES: u64 = 256;

/// Reference model of the outcome window: a plain Vec of outcome bits,
/// newest last, trimmed to the window size.
struct ModelWindow {
    outcomes: Vec<bool>,
    window: usize,
}

impl ModelWindow {
    fn new(window: u32) -> Self {
        ModelWindow { outcomes: Vec::new(), window: window.clamp(1, 64) as usize }
    }

    fn push(&mut self, err: bool) {
        self.outcomes.push(err);
        while self.outcomes.len() > self.window {
            self.outcomes.remove(0);
        }
    }

    /// The specified trip rule, verbatim: rate at-or-over threshold AND
    /// at least `min_volume` outcomes in the window.
    fn tripped(&self, cfg: &HealthConfig) -> bool {
        let len = self.outcomes.len() as u64;
        let errors = self.outcomes.iter().filter(|&&e| e).count() as u64;
        len >= u64::from(cfg.min_volume) && errors * 100 >= u64::from(cfg.trip_error_pct) * len
    }
}

/// An arbitrary (window, threshold, volume) tuning.
fn config(rng: &mut SeededRng) -> HealthConfig {
    HealthConfig {
        window: rng.range(1..=64) as u32,
        trip_error_pct: rng.range(1..=100) as u8,
        min_volume: rng.range(1..=64) as u32,
        cooldown: Duration::from_micros(500),
        ramp_successes: 2,
        ramp_tokens: 1,
        ramp_interval: Duration::from_micros(50),
        jitter_pct: 0,
    }
}

/// The breaker trips exactly when the reference model says the
/// window rate crosses the threshold with the volume guard met —
/// for arbitrary outcome sequences and arbitrary (window,
/// threshold, volume) tunings, at the exact same outcome.
#[test]
fn trips_iff_rate_over_threshold_and_volume_met() {
    'case: for case in 0..CASES {
        let mut rng = SeededRng::new(0x7219 ^ case);
        let cfg = config(&mut rng);
        let b = Breaker::new(0);
        let mut model = ModelWindow::new(cfg.window);
        for i in 0..rng.below(200) {
            let err = rng.chance(0.5);
            if err {
                b.on_failure(true, 0, &cfg);
            } else {
                b.on_success(0, &cfg);
            }
            model.push(err);
            if model.tripped(&cfg) {
                assert!(
                    b.is_open(0),
                    "case {case}, outcome {i}: model tripped (rate rule met) but breaker stayed \
                     closed"
                );
                assert_eq!(b.trips(), 1, "case {case}");
                continue 'case;
            }
            assert!(
                !b.is_open(0),
                "case {case}, outcome {i}: breaker tripped early (model rate rule not met)"
            );
        }
        assert_eq!(b.trips(), 0, "case {case}");
    }
}

/// Every retry hint an open breaker hands out stays inside the
/// configured ± jitter band around the remaining cooldown.
#[test]
fn retry_hints_stay_inside_the_jitter_band() {
    for case in 0..CASES {
        let mut rng = SeededRng::new(0x3177 ^ case);
        let jitter_pct = rng.range(0..=100) as u8;
        let seed = rng.next_u64();
        let probe_at = rng.range(0..=99_999);
        let cooldown_us = 100_000u64;
        let cfg = HealthConfig {
            jitter_pct,
            cooldown: Duration::from_micros(cooldown_us),
            ..HealthConfig::default()
        };
        let b = Breaker::new(seed);
        b.on_failure(false, 0, &cfg); // terminal: open until cooldown_us
        let left = cooldown_us - probe_at;
        match b.check(probe_at, Priority::Full, &cfg) {
            Gate::Shed { retry_after } => {
                let us = retry_after.as_micros() as u64;
                let span = left / 100 * u64::from(jitter_pct)
                    + left % 100 * u64::from(jitter_pct) / 100;
                assert!(
                    (left.saturating_sub(span)..=left + span).contains(&us),
                    "case {case}: hint {us}µs outside ±{jitter_pct}% of {left}µs"
                );
            }
            g => panic!("case {case}: open breaker must shed, got {g:?}"),
        }
    }
}

/// The full lifecycle, deterministically: trip on window rate, shed
/// through the cooldown, half-open into the priority ramp (probes first,
/// each success lowering the admitted rank), close after enough
/// successes — every instant an explicit microsecond reading, no sleep.
#[test]
fn deterministic_lifecycle_closed_open_half_open_closed() {
    let cfg = HealthConfig {
        window: 8,
        trip_error_pct: 50,
        min_volume: 4,
        cooldown: Duration::from_micros(1_000),
        ramp_successes: 3,
        ramp_tokens: 4,
        ramp_interval: Duration::from_micros(100_000), // no rank decay by time
        jitter_pct: 0,
    };
    let b = Breaker::new(7);
    assert_eq!(b.state(), BreakerState::Closed);

    // Closed: an alternating shard — the schedule a consecutive-failure
    // breaker can never trip on — crosses the 50% window rate as soon as
    // the volume guard is met.
    for t in 0..2u64 {
        b.on_success(t, &cfg);
        b.on_failure(true, t, &cfg);
    }
    assert_eq!(b.state(), BreakerState::Open { until_us: 1_001 });
    assert_eq!(b.trips(), 1);

    // Open: everything sheds, with the exact remaining cooldown.
    match b.check(501, Priority::Probe, &cfg) {
        Gate::Shed { retry_after } => assert_eq!(retry_after, Duration::from_micros(500)),
        g => panic!("cooling breaker must shed even probes, got {g:?}"),
    }

    // Cooldown elapsed: the first consult half-opens. The ramp starts
    // probe-only; each success admits the next rank down.
    let t = 1_001;
    assert!(matches!(b.check(t, Priority::Full, &cfg), Gate::Shed { .. }));
    assert_eq!(b.state(), BreakerState::HalfOpen { ramp_successes: 0 });
    assert!(matches!(b.check(t, Priority::Probe, &cfg), Gate::Probe));
    b.on_success(t, &cfg);
    assert!(matches!(b.check(t, Priority::Bulk, &cfg), Gate::Shed { .. }));
    assert!(matches!(b.check(t, Priority::Partial, &cfg), Gate::Probe));
    b.on_success(t, &cfg);
    assert_eq!(b.state(), BreakerState::HalfOpen { ramp_successes: 2 });
    assert!(matches!(b.check(t, Priority::Full, &cfg), Gate::Probe));
    b.on_success(t, &cfg);

    // Third success closes the breaker with a clean window: the old
    // outage's evidence cannot re-trip the now-healthy shard.
    assert_eq!(b.state(), BreakerState::Closed);
    assert!(matches!(b.check(t, Priority::Bulk, &cfg), Gate::Admit));
    b.on_failure(true, t, &cfg);
    assert_eq!(b.state(), BreakerState::Closed, "window must restart clean after recovery");
}

/// A half-open failure re-opens a *fresh* cooldown from the failure
/// instant, and the ramp restarts probe-only when it next half-opens.
#[test]
fn half_open_failure_restarts_the_lifecycle() {
    let cfg = HealthConfig {
        window: 4,
        trip_error_pct: 50,
        min_volume: 2,
        cooldown: Duration::from_micros(1_000),
        ramp_successes: 2,
        ramp_tokens: 1,
        ramp_interval: Duration::from_micros(100_000),
        jitter_pct: 0,
    };
    let b = Breaker::new(8);
    b.on_failure(true, 0, &cfg);
    b.on_failure(true, 0, &cfg);
    assert_eq!(b.trips(), 1);

    assert!(matches!(b.check(1_001, Priority::Probe, &cfg), Gate::Probe));
    b.on_failure(true, 1_500, &cfg); // the probe fails
    assert_eq!(b.state(), BreakerState::Open { until_us: 2_500 });
    assert_eq!(b.trips(), 2);
    assert!(matches!(b.check(2_499, Priority::Probe, &cfg), Gate::Shed { .. }));
    assert!(matches!(b.check(2_500, Priority::Probe, &cfg), Gate::Probe));
    b.on_success(2_500, &cfg);
    b.on_success(2_500, &cfg);
    assert_eq!(b.state(), BreakerState::Closed);
}
