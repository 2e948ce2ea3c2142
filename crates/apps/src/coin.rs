use std::fmt;

use snapshot_core::{SwSnapshot, SwSnapshotHandle, UnboundedSnapshot};
use snapshot_registers::{Backend, EpochBackend, ProcessId};

/// A **shared coin** from atomic snapshots — the random-walk construction
/// behind the fast randomized consensus the paper cites as \[AH89\]
/// (Aspnes–Herlihy, "Fast Randomized Consensus using Shared Memory").
///
/// Each process repeatedly flips a local coin and adds ±1 to its own
/// segment; after each step it scans and computes the global sum. Once
/// the random walk drifts past `±threshold`, the process outputs the
/// corresponding side. Because scans are atomic, all processes watch *the
/// same* walk, so with probability at least a constant (independent of
/// the adversary) **all** processes see the same side — which is exactly
/// the "weak shared coin" contract that upgrades local-coin consensus
/// from exponential to polynomial expected time.
///
/// This implementation is the textbook unbounded-counter variant: simple,
/// wait-free, with the agreement *probability* (not certainty) that the
/// consensus layer is designed to tolerate.
///
/// # Example
///
/// ```
/// use snapshot_apps::SharedCoin;
/// use snapshot_registers::ProcessId;
///
/// let coin = SharedCoin::new(1, 4);
/// let mut h = coin.handle(ProcessId::new(0));
/// // A heads-biased local coin drives the walk to +4 deterministically
/// // (an alternating coin would oscillate forever — the walk must drift).
/// let heads = h.flip(&mut || true);
/// assert!(heads);
/// ```
pub struct SharedCoin<B: Backend = EpochBackend> {
    snapshot: UnboundedSnapshot<i64, B>,
    threshold: i64,
}

impl SharedCoin<EpochBackend> {
    /// Creates a shared coin for `n` processes with drift threshold
    /// `threshold` (a small multiple of `n` gives the classic constant
    /// agreement probability).
    ///
    /// # Panics
    ///
    /// Panics if `n` or `threshold` is zero.
    pub fn new(n: usize, threshold: i64) -> Self {
        Self::with_backend(n, threshold, &EpochBackend::new())
    }
}

impl<B: Backend> SharedCoin<B> {
    /// Creates the coin over an explicit register backend.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `threshold` is zero.
    pub fn with_backend(n: usize, threshold: i64, backend: &B) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        SharedCoin {
            snapshot: UnboundedSnapshot::with_backend(n, 0, backend),
            threshold,
        }
    }

    /// Number of participating processes.
    pub fn processes(&self) -> usize {
        self.snapshot.processes()
    }

    /// Claims the handle for process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or already claimed.
    pub fn handle(&self, pid: ProcessId) -> SharedCoinHandle<'_, B> {
        SharedCoinHandle {
            inner: self.snapshot.handle(pid),
            threshold: self.threshold,
            contribution: 0,
        }
    }
}

impl<B: Backend> fmt::Debug for SharedCoin<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCoin")
            .field("processes", &self.processes())
            .field("threshold", &self.threshold)
            .finish()
    }
}

/// Per-process handle to a [`SharedCoin`].
pub struct SharedCoinHandle<'a, B: Backend> {
    inner: <UnboundedSnapshot<i64, B> as SwSnapshot<i64>>::Handle<'a>,
    threshold: i64,
    contribution: i64,
}

impl<B: Backend> SharedCoinHandle<'_, B> {
    /// Participates in the walk until it drifts past the threshold;
    /// returns the side (`true` = heads). `local` supplies the local
    /// random bits.
    ///
    /// Wait-free per step; the number of steps is the hitting time of a
    /// ±threshold random walk — finite with probability 1 for genuinely
    /// random `local` bits, expected `O(threshold²)` total steps across
    /// all processes. A *deterministically alternating* `local` source
    /// can stall the walk forever; callers that need a hard bound should
    /// wrap `flip` with their own step budget.
    pub fn flip(&mut self, local: &mut dyn FnMut() -> bool) -> bool {
        loop {
            let total: i64 = self.inner.scan().iter().sum();
            if total >= self.threshold {
                return true;
            }
            if total <= -self.threshold {
                return false;
            }
            self.contribution += if local() { 1 } else { -1 };
            self.inner.update(self.contribution);
        }
    }
}

impl<B: Backend> fmt::Debug for SharedCoinHandle<'_, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCoinHandle")
            .field("threshold", &self.threshold)
            .field("contribution", &self.contribution)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapshot_registers::SeededRng;

    #[test]
    fn biased_local_coins_fix_the_outcome() {
        let coin = SharedCoin::new(1, 3);
        let mut h = coin.handle(ProcessId::new(0));
        assert!(h.flip(&mut || true), "all-heads walk must output heads");

        let coin = SharedCoin::new(1, 3);
        let mut h = coin.handle(ProcessId::new(0));
        assert!(!h.flip(&mut || false), "all-tails walk must output tails");
    }

    #[test]
    fn threaded_flips_mostly_agree() {
        // With fair local coins the weak-coin property promises agreement
        // with constant probability per instance; across 30 instances the
        // agreement rate must be well above coin-guessing. (The consensus
        // layer tolerates occasional disagreement by construction.)
        let mut agreements = 0;
        let instances = 30;
        for round in 0..instances {
            let n = 3;
            let coin = SharedCoin::new(n, 2 * n as i64);
            let sides: Vec<bool> = std::thread::scope(|s| {
                (0..n)
                    .map(|i| {
                        let coin = &coin;
                        s.spawn(move || {
                            let mut rng = SeededRng::new(
                                round as u64 * 100 + i as u64,
                            );
                            let mut h = coin.handle(ProcessId::new(i));
                            h.flip(&mut || rng.chance(0.5))
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|j| j.join().unwrap())
                    .collect()
            });
            if sides.iter().all(|&s| s == sides[0]) {
                agreements += 1;
            }
        }
        assert!(
            agreements * 2 > instances,
            "only {agreements}/{instances} instances agreed"
        );
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_is_rejected() {
        let _ = SharedCoin::new(1, 0);
    }
}
