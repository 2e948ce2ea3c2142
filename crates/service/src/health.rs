//! Per-shard health gating: an error-rate windowed circuit breaker with
//! priority-aware half-open recovery.
//!
//! When a backing core keeps erroring, letting every request run its full
//! retry budget against a dead backend multiplies latency for no
//! information. Each shard therefore carries a [`Breaker`]:
//!
//! * **closed** — requests pass; the outcomes of the last
//!   [`window`](HealthConfig::window) backend operations are kept in a
//!   sliding window. The breaker trips when the window's **error rate**
//!   reaches [`trip_error_pct`](HealthConfig::trip_error_pct) *and* the
//!   window holds at least [`min_volume`](HealthConfig::min_volume)
//!   outcomes (the volume guard: one unlucky burst on a quiet shard is
//!   not a sick shard). A terminal, non-retryable error (a poisoned
//!   replica fleet) trips immediately. Unlike a consecutive-failure
//!   counter, a shard failing every *other* request — degrading, but
//!   never twice in a row — still trips. A closed breaker whose window
//!   is full and holds no error is **clean**: a success cannot change
//!   that window, so recording one is a single atomic load;
//! * **open** — requests are shed with
//!   [`ServiceError::Degraded`](crate::ServiceError::Degraded) carrying a
//!   **jittered** `retry_after` hint (so a shed cohort does not
//!   thundering-herd the shard the moment it half-opens), touching no
//!   registers at all, until [`cooldown`](HealthConfig::cooldown) passes;
//! * **half-open** — recovery is a *priority ramp*, not a floodgate:
//!   admission is token-bucketed
//!   ([`ramp_tokens`](HealthConfig::ramp_tokens) per
//!   [`ramp_interval`](HealthConfig::ramp_interval)) and gated by
//!   [`Priority`] — probe-class traffic is admitted immediately, each
//!   ramp interval (or recorded success) lowers the admitted rank by one,
//!   so partial scans, then full scans, then bulk updates follow. Enough
//!   successes ([`ramp_successes`](HealthConfig::ramp_successes)) close
//!   the breaker; any failure re-opens a fresh cooldown.
//!
//! Time enters only as a `now_us` reading (microseconds on the service's
//! monotone clock), so every lifecycle here is testable without a single
//! `sleep`.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::priority::Priority;

/// Circuit-breaker tuning for the per-shard health gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthConfig {
    /// Backend outcomes the sliding window holds, clamped into `[1, 64]`.
    pub window: u32,
    /// Error-rate trip threshold, in percent of the window (a window at
    /// or above this rate trips the breaker). Values above 100 make rate
    /// trips impossible (see [`disabled`](Self::disabled)).
    pub trip_error_pct: u8,
    /// Volume guard: the window must hold at least this many outcomes
    /// before the rate can trip. Values above [`window`](Self::window)
    /// make rate trips impossible.
    pub min_volume: u32,
    /// How long an open breaker sheds load before half-opening.
    pub cooldown: Duration,
    /// Successes recorded in half-open that fully close the breaker (at
    /// least 1).
    pub ramp_successes: u32,
    /// Admission tokens granted per elapsed ramp interval while
    /// half-open (at least 1): the recovery rate limit.
    pub ramp_tokens: u32,
    /// Half-open ramp step: each elapsed interval lowers the minimum
    /// admitted [`Priority`] rank by one (probes first, bulk last) and
    /// grants another round of tokens.
    pub ramp_interval: Duration,
    /// Jitter applied to every `retry_after` hint, in ± percent (clamped
    /// to 100). Zero disables jitter.
    pub jitter_pct: u8,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window: 32,
            trip_error_pct: 50,
            min_volume: 8,
            cooldown: Duration::from_millis(250),
            ramp_successes: 4,
            ramp_tokens: 2,
            ramp_interval: Duration::from_millis(5),
            jitter_pct: 25,
        }
    }
}

impl HealthConfig {
    /// A gate that never trips on error *rate* (the rate threshold and
    /// volume guard are unreachable): useful for tests that isolate
    /// retry/fan-out behavior from load shedding. Terminal errors still
    /// trip it — a poisoned backend is sick no matter the tuning.
    pub fn disabled() -> Self {
        HealthConfig {
            trip_error_pct: 101,
            min_volume: u32::MAX,
            ..HealthConfig::default()
        }
    }
}

/// Outcome of consulting a shard's gate at admission.
#[derive(Debug)]
pub enum Gate {
    /// Breaker closed: proceed normally.
    Admit,
    /// Breaker half-open and this request was granted a ramp token:
    /// proceed, and *must* resolve the token via
    /// `on_success`/`on_failure` (or `release_probe`).
    Probe,
    /// Breaker open, or the half-open ramp is not yet admitting this
    /// request's priority class: shed.
    Shed {
        /// Jittered hint for when a retry is worth attempting (not a
        /// guarantee).
        retry_after: Duration,
    },
}

/// Breaker mode for [`Breaker::state`] (diagnostics and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Admitting normally, watching the outcome window (clean or not).
    Closed,
    /// Shedding until the cooldown instant.
    Open {
        /// Microsecond reading at which the breaker half-opens.
        until_us: u64,
    },
    /// Ramping recovery traffic by priority.
    HalfOpen {
        /// Successes recorded so far toward closing.
        ramp_successes: u32,
    },
}

const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;
/// Closed, with a full window that holds no error. Pushing a success onto
/// such a window leaves it as it was, so a success seen here needs no
/// lock. Entered only under the lock, by a success that fills an
/// error-free window; any failure leaves it.
const CLEAN: u8 = 3;

/// Sliding outcome window plus half-open ramp bookkeeping, under one
/// mutex (consulted only off the closed-breaker fast path).
#[derive(Debug, Default)]
struct Window {
    /// Outcome bits, newest at bit 0; set bit = error.
    bits: u64,
    /// Outcomes currently held (≤ 64).
    len: u32,
    /// Set bits in `bits`.
    errors: u32,
    /// `now_us` when the breaker last half-opened.
    half_open_since_us: u64,
    /// Successes recorded since half-opening.
    ramp_successes: u32,
    /// Ramp tokens consumed since half-opening.
    tokens_used: u32,
}

impl Window {
    /// Pushes one outcome, evicting the oldest once `window` are held.
    fn push(&mut self, err: bool, window: u32) {
        if self.len == window {
            let oldest = 1u64 << (self.len - 1);
            if self.bits & oldest != 0 {
                self.errors -= 1;
            }
            self.bits &= !oldest;
            self.len -= 1;
        }
        self.bits <<= 1;
        if err {
            self.bits |= 1;
            self.errors += 1;
        }
        self.len += 1;
    }

    fn rate_tripped(&self, cfg: &HealthConfig) -> bool {
        self.len >= cfg.min_volume
            && u64::from(self.errors) * 100 >= u64::from(cfg.trip_error_pct) * u64::from(self.len)
    }

    fn reset(&mut self) {
        *self = Window::default();
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// One shard's error-rate windowed circuit breaker.
///
/// The closed-state admission check is a single atomic load (the gate
/// sits on the request fast path), and so is recording a success on a
/// clean breaker; window and ramp bookkeeping live behind a mutex taken
/// only on failures, on half-open traffic, and on successes that change
/// the window.
#[derive(Debug)]
pub struct Breaker {
    /// `CLOSED` / `CLEAN` / `OPEN` / `HALF_OPEN` fast-path mode.
    /// Transitions happen under `window`'s lock; this is the lock-free
    /// read hint.
    mode: AtomicU8,
    /// Microsecond reading when an open breaker may half-open.
    open_until_us: AtomicU64,
    /// Times this breaker has tripped open.
    trips: AtomicU64,
    /// Jitter sequence counter (deterministic splitmix64 stream).
    jitter_seq: AtomicU64,
    /// Per-breaker jitter seed (the shard index, so shards de-correlate).
    seed: u64,
    /// The tuning, fixed for the breaker's life (`window` clamped into
    /// `[1, 64]`), so the window size `CLEAN` depends on never changes.
    cfg: HealthConfig,
    window: Mutex<Window>,
}

impl Breaker {
    /// A closed breaker tuned by `cfg`. `seed` de-correlates this
    /// breaker's jitter stream from its siblings' (the service passes the
    /// shard index).
    pub fn new(seed: u64, cfg: HealthConfig) -> Self {
        Breaker {
            mode: AtomicU8::new(CLOSED),
            open_until_us: AtomicU64::new(0),
            trips: AtomicU64::new(0),
            jitter_seq: AtomicU64::new(0),
            seed,
            cfg: HealthConfig { window: cfg.window.clamp(1, 64), ..cfg },
            window: Mutex::new(Window::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Window> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `base` ± `jitter_pct`%, drawn from this breaker's deterministic
    /// jitter stream.
    fn jittered(&self, base: Duration) -> Duration {
        let pct = u64::from(self.cfg.jitter_pct.min(100));
        let base_us = duration_us(base);
        if pct == 0 || base_us == 0 {
            return base;
        }
        let n = self.jitter_seq.fetch_add(1, Ordering::Relaxed);
        let z = splitmix64(self.seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ n);
        let span = base_us / 100 * pct + base_us % 100 * pct / 100;
        Duration::from_micros(base_us - span + z % (2 * span + 1))
    }

    /// Consults the gate at `now_us` for a request of class `priority`.
    pub fn check(&self, now_us: u64, priority: Priority) -> Gate {
        if let CLOSED | CLEAN = self.mode.load(Ordering::Acquire) {
            return Gate::Admit;
        }
        self.check_slow(now_us, priority)
    }

    fn check_slow(&self, now_us: u64, priority: Priority) -> Gate {
        let cfg = &self.cfg;
        let mut w = self.lock();
        match self.mode.load(Ordering::Acquire) {
            CLOSED | CLEAN => return Gate::Admit, // raced with a close
            OPEN => {
                let open_until = self.open_until_us.load(Ordering::Acquire);
                if now_us < open_until {
                    let left = Duration::from_micros(open_until - now_us);
                    return Gate::Shed { retry_after: self.jittered(left) };
                }
                // Cooldown elapsed: half-open and start the ramp fresh.
                self.mode.store(HALF_OPEN, Ordering::Release);
                w.half_open_since_us = now_us;
                w.ramp_successes = 0;
                w.tokens_used = 0;
            }
            _ => {}
        }
        // Half-open: the priority ramp. Each elapsed interval (or
        // recorded success) lowers the required rank by one, starting at
        // probe-only; tokens refill per interval.
        let interval_us = duration_us(cfg.ramp_interval).max(1);
        let elapsed_intervals = now_us.saturating_sub(w.half_open_since_us) / interval_us;
        let progress = u64::from(w.ramp_successes).saturating_add(elapsed_intervals);
        let required = 3u64.saturating_sub(progress.min(3));
        if u64::from(priority.rank()) < required {
            let wait = required - u64::from(priority.rank());
            let hint = cfg.ramp_interval.saturating_mul(wait.min(4) as u32);
            return Gate::Shed { retry_after: self.jittered(hint) };
        }
        let granted = u64::from(cfg.ramp_tokens.max(1)).saturating_mul(1 + elapsed_intervals);
        if u64::from(w.tokens_used) >= granted {
            return Gate::Shed { retry_after: self.jittered(cfg.ramp_interval) };
        }
        w.tokens_used += 1;
        Gate::Probe
    }

    /// Refunds a ramp token claimed by [`check`](Self::check) that never
    /// reached the backend (e.g. another shard's gate shed the request).
    /// Idempotent for requests whose outcome was recorded instead.
    pub fn release_probe(&self) {
        let mut w = self.lock();
        if self.mode.load(Ordering::Acquire) == HALF_OPEN && w.tokens_used > 0 {
            w.tokens_used -= 1;
        }
    }

    /// A backend operation through this shard succeeded. The window rule
    /// is evaluated on *every* recorded outcome: a success that lifts the
    /// window past the volume guard can still reveal a rate already over
    /// the threshold and trip the breaker.
    ///
    /// Returns `true` exactly when this outcome tripped the breaker open,
    /// so the caller can surface the transition (trace event, flight
    /// recorder) without polling [`state`](Self::state).
    ///
    /// On a clean breaker this returns at once, without the lock: the
    /// success would leave the full error-free window as it was.
    pub fn on_success(&self, now_us: u64) -> bool {
        if self.mode.load(Ordering::Acquire) == CLEAN {
            return false;
        }
        let cfg = &self.cfg;
        let mut w = self.lock();
        match self.mode.load(Ordering::Acquire) {
            CLOSED => {
                w.push(false, cfg.window);
                if w.rate_tripped(cfg) {
                    self.trip(&mut w, now_us);
                    return true;
                }
                if w.errors == 0 && w.len == cfg.window {
                    self.mode.store(CLEAN, Ordering::Release);
                }
            }
            HALF_OPEN => {
                // The resolved probe frees its admission slot: the bucket
                // bounds *outstanding* half-open traffic per interval, so
                // a quick success lets the newly eligible rank through
                // without waiting out the interval.
                w.tokens_used = w.tokens_used.saturating_sub(1);
                w.ramp_successes = w.ramp_successes.saturating_add(1);
                if w.ramp_successes >= cfg.ramp_successes.max(1) {
                    // Recovered: close with a clean window, so old outage
                    // evidence cannot re-trip the healthy shard.
                    self.mode.store(CLOSED, Ordering::Release);
                    self.open_until_us.store(0, Ordering::Release);
                    w.reset();
                }
            }
            // A success from an operation admitted before the trip (the
            // cooldown stands: the ramp, not a straggler, closes it), or
            // one that raced another into `CLEAN`.
            _ => {}
        }
        false
    }

    /// A backend operation through this shard failed. Rate-over-threshold
    /// (with the volume guard) trips a closed breaker; terminal errors
    /// trip immediately; any half-open failure re-opens a fresh cooldown.
    ///
    /// Returns `true` exactly when this outcome tripped the breaker open
    /// (closed→open or half-open→open), so the caller can surface the
    /// transition (trace event, flight recorder) at the moment it happens.
    pub fn on_failure(&self, retryable: bool, now_us: u64) -> bool {
        let mut w = self.lock();
        if !retryable {
            self.trip(&mut w, now_us);
            return true;
        }
        match self.mode.load(Ordering::Acquire) {
            CLOSED | CLEAN => {
                w.push(true, self.cfg.window);
                if w.rate_tripped(&self.cfg) {
                    self.trip(&mut w, now_us);
                    return true;
                }
                self.mode.store(CLOSED, Ordering::Release);
            }
            HALF_OPEN => {
                self.trip(&mut w, now_us);
                return true;
            }
            // Already open: a straggler from before the trip.
            _ => {}
        }
        false
    }

    fn trip(&self, w: &mut Window, now_us: u64) {
        self.open_until_us
            .store(now_us.saturating_add(duration_us(self.cfg.cooldown)), Ordering::Release);
        self.mode.store(OPEN, Ordering::Release);
        self.trips.fetch_add(1, Ordering::Relaxed);
        w.reset();
    }

    /// True if the breaker currently sheds unconditionally (open and
    /// cooling down). A half-open breaker is *not* open: it admits (some)
    /// traffic.
    pub fn is_open(&self, now_us: u64) -> bool {
        self.mode.load(Ordering::Acquire) == OPEN
            && now_us < self.open_until_us.load(Ordering::Acquire)
    }

    /// Times this breaker has tripped open since construction.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Acquire)
    }

    /// The breaker's current mode (diagnostics and tests).
    pub fn state(&self) -> BreakerState {
        match self.mode.load(Ordering::Acquire) {
            OPEN => BreakerState::Open { until_us: self.open_until_us.load(Ordering::Acquire) },
            HALF_OPEN => BreakerState::HalfOpen { ramp_successes: self.lock().ramp_successes },
            _ => BreakerState::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact-assertion config: no jitter, tight window.
    const CFG: HealthConfig = HealthConfig {
        window: 8,
        trip_error_pct: 50,
        min_volume: 4,
        cooldown: Duration::from_micros(100),
        ramp_successes: 2,
        ramp_tokens: 1,
        ramp_interval: Duration::from_micros(10),
        jitter_pct: 0,
    };

    fn fail_n(b: &Breaker, n: usize, now_us: u64) {
        for _ in 0..n {
            b.on_failure(true, now_us);
        }
    }

    #[test]
    fn volume_guard_blocks_low_sample_trips() {
        let b = Breaker::new(1, CFG);
        fail_n(&b, 3, 0); // 100% error rate but below min_volume = 4
        assert!(matches!(b.check(0, Priority::Full), Gate::Admit));
        assert_eq!(b.trips(), 0);
        b.on_failure(true, 0); // volume reached, rate 100%
        assert!(b.is_open(50));
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn alternating_failures_trip_the_windowed_breaker() {
        // The consecutive-failure counter this breaker replaced reset on
        // every success: an alternating shard never tripped it. A 50%
        // window rate trips here as soon as the volume guard is met.
        let b = Breaker::new(2, CFG);
        for _ in 0..2 {
            b.on_success(0);
            b.on_failure(true, 0);
        }
        assert!(b.is_open(0), "S F S F is a 50% window: must trip");
    }

    #[test]
    fn below_rate_windows_never_trip() {
        let b = Breaker::new(3, CFG);
        for _ in 0..20 {
            b.on_success(0);
            b.on_success(0);
            b.on_success(0);
            b.on_failure(true, 0); // 25% < 50%
        }
        assert!(matches!(b.check(0, Priority::Bulk), Gate::Admit));
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn terminal_errors_trip_immediately() {
        let b = Breaker::new(4, CFG);
        b.on_failure(false, 0);
        assert!(b.is_open(0), "one non-retryable failure is enough");
    }

    #[test]
    fn open_breaker_sheds_with_remaining_cooldown() {
        let b = Breaker::new(5, CFG);
        fail_n(&b, 4, 0);
        match b.check(40, Priority::Full) {
            Gate::Shed { retry_after } => {
                assert_eq!(retry_after, Duration::from_micros(60), "no jitter configured")
            }
            g => panic!("open breaker must shed, got {g:?}"),
        }
    }

    #[test]
    fn half_open_ramp_admits_by_priority_then_closes() {
        let b = Breaker::new(6, CFG);
        fail_n(&b, 4, 0);
        let t = 150; // past cooldown: first consult half-opens
        // Ramp step 0: probe-class only.
        assert!(matches!(b.check(t, Priority::Full), Gate::Shed { .. }));
        assert!(matches!(b.check(t, Priority::Probe), Gate::Probe));
        b.on_success(0); // ramp 1/2: partials now eligible
        assert!(matches!(b.check(t, Priority::Partial), Gate::Probe));
        assert!(matches!(b.check(t, Priority::Full), Gate::Shed { .. }));
        b.on_success(0); // ramp 2/2: fully closed
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(matches!(b.check(t, Priority::Bulk), Gate::Admit));
        assert!(!b.is_open(t));
    }

    #[test]
    fn elapsed_ramp_intervals_lower_the_admitted_rank() {
        // Liveness without probe traffic: rank descends with time alone.
        let b = Breaker::new(7, CFG);
        fail_n(&b, 4, 0);
        assert!(matches!(b.check(150, Priority::Bulk), Gate::Shed { .. }));
        // 3 intervals after half-opening at t=150, even bulk is eligible.
        assert!(matches!(b.check(150 + 30, Priority::Bulk), Gate::Probe));
    }

    #[test]
    fn ramp_tokens_bound_half_open_admissions() {
        let b = Breaker::new(8, CFG);
        fail_n(&b, 4, 0);
        assert!(matches!(b.check(150, Priority::Probe), Gate::Probe));
        // One token per interval; the same instant has none left.
        assert!(matches!(b.check(150, Priority::Probe), Gate::Shed { .. }));
        // A released (unused) token can be reclaimed.
        b.release_probe();
        assert!(matches!(b.check(150, Priority::Probe), Gate::Probe));
        // The next interval grants a fresh one.
        assert!(matches!(b.check(161, Priority::Probe), Gate::Probe));
    }

    #[test]
    fn failed_probe_reopens_a_fresh_cooldown() {
        let b = Breaker::new(9, CFG);
        fail_n(&b, 4, 0);
        assert!(matches!(b.check(150, Priority::Probe), Gate::Probe));
        b.on_failure(true, 150);
        assert!(b.is_open(200), "failed probe re-opens");
        assert!(matches!(b.check(151, Priority::Probe), Gate::Shed { .. }));
        assert!(matches!(b.check(251, Priority::Probe), Gate::Probe));
    }

    #[test]
    fn disabled_config_never_rate_trips() {
        let b = Breaker::new(10, HealthConfig::disabled());
        for _ in 0..1000 {
            b.on_failure(true, 0);
        }
        assert!(matches!(b.check(0, Priority::Full), Gate::Admit));
        // ... but terminal errors still trip it.
        b.on_failure(false, 0);
        assert!(b.is_open(0));
    }

    #[test]
    fn retry_hints_are_jittered_within_the_band() {
        let b = Breaker::new(12, HealthConfig { jitter_pct: 25, ..CFG });
        b.on_failure(false, 0); // open until 100µs
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            match b.check(0, Priority::Full) {
                Gate::Shed { retry_after } => {
                    let us = retry_after.as_micros() as u64;
                    assert!((75..=125).contains(&us), "hint {us}µs outside ±25% of 100µs");
                    seen.insert(us);
                }
                g => panic!("open breaker must shed, got {g:?}"),
            }
        }
        assert!(seen.len() > 1, "jitter must actually vary the hints");
    }

    #[test]
    fn clean_is_entered_on_a_full_error_free_window_and_left_on_a_failure() {
        let b = Breaker::new(13, CFG);
        let mode = || b.mode.load(Ordering::Acquire);
        for _ in 1..CFG.window {
            b.on_success(0);
            assert_eq!(mode(), CLOSED, "the window is not full yet");
        }
        b.on_success(0);
        assert_eq!(mode(), CLEAN, "`window` successes fill an error-free window");
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_success(0); // the lock-free return: the window is unchanged
        let w = b.lock();
        assert_eq!((w.len, w.errors), (CFG.window, 0));
        drop(w);

        b.on_failure(true, 0);
        assert_eq!(mode(), CLOSED, "a failure leaves CLEAN");
        assert!(matches!(b.check(0, Priority::Bulk), Gate::Admit));
        for _ in 1..CFG.window {
            b.on_success(0);
            assert_eq!(mode(), CLOSED, "the failure is still in the window");
        }
        b.on_success(0);
        assert_eq!(mode(), CLEAN, "`window` more successes evict it");
        assert_eq!(b.trips(), 0);
    }
}
