use std::fmt;

use snapshot_core::{SwSnapshot, SwSnapshotHandle, UnboundedSnapshot};
use snapshot_registers::{Backend, EpochBackend, ProcessId};

use crate::SharedCoin;

/// Why a consensus attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsensusError {
    /// The configured round budget ran out before a decision. Safety is
    /// never compromised — rerun with a larger budget.
    RoundLimitExceeded {
        /// The exhausted budget.
        rounds: u64,
    },
}

impl fmt::Display for ConsensusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusError::RoundLimitExceeded { rounds } => {
                write!(f, "no decision within {rounds} rounds")
            }
        }
    }
}

impl std::error::Error for ConsensusError {}

/// One commit–adopt round: a phase-A snapshot of raw proposals and a
/// phase-B snapshot of `(commit?, value)` proposals.
struct Round<B: Backend> {
    a: UnboundedSnapshot<Option<bool>, B>,
    b: UnboundedSnapshot<Option<(bool, bool)>, B>,
}

/// Wait-free binary **randomized consensus** from atomic snapshots — the
/// application family the paper cites as \[A88, AH89, ADS89, A90\].
///
/// Structure: a sequence of *commit–adopt* rounds (Gafni-style), each
/// built from two snapshot objects.
///
/// * Phase A: write your value, scan; if every visible value agrees,
///   propose `(commit: true, v)`, else `(false, v)`.
/// * Phase B: write your proposal, scan.
///     * all visible proposals are `(true, v)` → **decide** `v`;
///     * some `(true, v)` visible → **adopt** `v` (someone may have
///       decided it);
///     * only `(false, _)` visible → nobody can have decided this round:
///       flip the **coin** and retry.
///
/// Snapshot atomicity makes the two phases airtight: if a process decides
/// `v` in round `r`, every other process leaves round `r` holding `v`, so
/// round `r + 1` decides `v` unanimously. Agreement and validity are
/// deterministic; only termination is randomized (expected constant
/// rounds against non-adaptive adversaries with local coins). The
/// consensus tests *model-check* agreement over every schedule of small
/// configurations.
///
/// # Example
///
/// ```
/// use snapshot_apps::RandomizedConsensus;
/// use snapshot_registers::ProcessId;
///
/// let consensus = RandomizedConsensus::new(2, 64);
/// let mut h = consensus.handle(ProcessId::new(0));
/// let decided = h.propose(true, &mut || false).unwrap();
/// assert!(decided); // sole participant: its input wins (validity)
/// ```
pub struct RandomizedConsensus<B: Backend = EpochBackend> {
    rounds: Vec<Round<B>>,
    /// One weak shared coin per round, when built with
    /// [`RandomizedConsensus::with_shared_coin`]: conflicting processes
    /// then agree on their new value with constant probability per round
    /// (the \[AH89\] configuration), instead of relying on independent
    /// local coins aligning.
    coins: Vec<SharedCoin<B>>,
    n: usize,
}

impl RandomizedConsensus<EpochBackend> {
    /// Creates a consensus object for `n` processes with a budget of
    /// `max_rounds` commit–adopt rounds.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `max_rounds` is zero.
    pub fn new(n: usize, max_rounds: u64) -> Self {
        Self::with_backend(n, max_rounds, &EpochBackend::new())
    }
}

impl<B: Backend> RandomizedConsensus<B> {
    /// Creates the object over an explicit register backend.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `max_rounds` is zero.
    pub fn with_backend(n: usize, max_rounds: u64, backend: &B) -> Self {
        assert!(n > 0, "consensus needs at least one process");
        assert!(max_rounds > 0, "consensus needs at least one round");
        RandomizedConsensus {
            rounds: (0..max_rounds)
                .map(|_| Round {
                    a: UnboundedSnapshot::with_backend(n, None, backend),
                    b: UnboundedSnapshot::with_backend(n, None, backend),
                })
                .collect(),
            coins: Vec::new(),
            n,
        }
    }

    /// Like [`with_backend`](Self::with_backend), but additionally equips
    /// every round with a snapshot-based [`SharedCoin`] (drift threshold
    /// `2n`): on a conflict round, processes flip the *shared* coin
    /// instead of independent local ones, which aligns their next values
    /// with constant probability per round — the \[AH89\]
    /// fast-randomized-consensus configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `max_rounds` is zero.
    pub fn with_shared_coin(n: usize, max_rounds: u64, backend: &B) -> Self {
        let mut object = Self::with_backend(n, max_rounds, backend);
        object.coins = (0..max_rounds)
            .map(|_| SharedCoin::with_backend(n, 2 * n as i64, backend))
            .collect();
        object
    }

    /// True if rounds are equipped with shared coins.
    pub fn has_shared_coin(&self) -> bool {
        !self.coins.is_empty()
    }

    /// Number of participating processes.
    pub fn processes(&self) -> usize {
        self.n
    }

    /// The round budget.
    pub fn max_rounds(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// Claims the handle for process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range. (Unlike the snapshot handles,
    /// consensus handles claim their per-round snapshot handles lazily, so
    /// this only validates the range.)
    pub fn handle(&self, pid: ProcessId) -> ConsensusHandle<'_, B> {
        assert!(
            pid.get() < self.n,
            "process {pid} out of range (consensus has {} processes)",
            self.n
        );
        ConsensusHandle { shared: self, pid }
    }
}

impl<B: Backend> fmt::Debug for RandomizedConsensus<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomizedConsensus")
            .field("processes", &self.n)
            .field("max_rounds", &self.rounds.len())
            .finish()
    }
}

/// Per-process handle to a [`RandomizedConsensus`] object.
pub struct ConsensusHandle<'a, B: Backend> {
    shared: &'a RandomizedConsensus<B>,
    pid: ProcessId,
}

impl<B: Backend> ConsensusHandle<'_, B> {
    /// Proposes `input`; returns the decided value.
    ///
    /// `coin` supplies the local random bits (pass a closure over your
    /// RNG; tests pass deterministic sequences).
    ///
    /// # Errors
    ///
    /// [`ConsensusError::RoundLimitExceeded`] if the round budget runs out
    /// (possible only with adversarial coins/schedules; rerunning with a
    /// larger budget is always safe).
    pub fn propose(
        &mut self,
        input: bool,
        coin: &mut dyn FnMut() -> bool,
    ) -> Result<bool, ConsensusError> {
        let mut value = input;
        for (index, round) in self.shared.rounds.iter().enumerate() {
            match self.commit_adopt(round, value) {
                Outcome::Commit(v) => return Ok(v),
                Outcome::Adopt(v) => value = v,
                Outcome::Conflict => {
                    value = match self.shared.coins.get(index) {
                        // The shared coin consumes local randomness but
                        // aligns the outcome across processes with
                        // constant probability.
                        Some(shared_coin) => {
                            shared_coin.handle(self.pid).flip(coin)
                        }
                        None => coin(),
                    }
                }
            }
        }
        Err(ConsensusError::RoundLimitExceeded {
            rounds: self.shared.max_rounds(),
        })
    }

    fn commit_adopt(&self, round: &Round<B>, value: bool) -> Outcome {
        // Phase A: publish the raw value; check for unanimity.
        let mut a = round.a.handle(self.pid);
        a.update(Some(value));
        let seen = a.scan();
        drop(a);
        let unanimous = seen.iter().flatten().all(|&v| v == value);
        let proposal = (unanimous, value);

        // Phase B: publish the (commit?, value) proposal.
        let mut b = round.b.handle(self.pid);
        b.update(Some(proposal));
        let proposals = b.scan();
        drop(b);

        let mut committed_value = None;
        let mut all_commit = true;
        for p in proposals.iter().flatten() {
            match p {
                (true, v) => committed_value = Some(*v),
                (false, _) => all_commit = false,
            }
        }
        match committed_value {
            Some(v) if all_commit => Outcome::Commit(v),
            // Some process proposed a commit for `v`: it may decide `v`
            // this round, so `v` must be carried forward.
            Some(v) => Outcome::Adopt(v),
            // No commit proposal visible anywhere: nobody can decide this
            // round (a decider's proposal is written before its scan, so
            // it would be visible) — randomizing is safe.
            None => Outcome::Conflict,
        }
    }
}

enum Outcome {
    Commit(bool),
    Adopt(bool),
    Conflict,
}

impl<B: Backend> fmt::Debug for ConsensusHandle<'_, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConsensusHandle")
            .field("pid", &self.pid)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_process_decides_its_input() {
        for input in [false, true] {
            let c = RandomizedConsensus::new(1, 4);
            let mut h = c.handle(ProcessId::new(0));
            assert_eq!(
                h.propose(input, &mut || panic!("no coin needed")),
                Ok(input)
            );
        }
    }

    #[test]
    fn unanimous_inputs_decide_in_one_round_without_coins() {
        let n = 4;
        let c = RandomizedConsensus::new(n, 2);
        let decisions: Vec<bool> = std::thread::scope(|s| {
            (0..n)
                .map(|i| {
                    let c = &c;
                    s.spawn(move || {
                        let mut h = c.handle(ProcessId::new(i));
                        h.propose(true, &mut || panic!("coin must not be needed"))
                            .unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        assert!(decisions.iter().all(|&d| d));
    }

    #[test]
    fn conflicting_inputs_agree_with_random_coins() {
        use snapshot_registers::SeededRng;
        for seed in 0..20u64 {
            let n = 4;
            let c = RandomizedConsensus::new(n, 64);
            let decisions: Vec<bool> = std::thread::scope(|s| {
                (0..n)
                    .map(|i| {
                        let c = &c;
                        s.spawn(move || {
                            let mut rng = SeededRng::new(seed * 100 + i as u64);
                            let mut h = c.handle(ProcessId::new(i));
                            h.propose(i % 2 == 0, &mut || rng.chance(0.5)).unwrap()
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|j| j.join().unwrap())
                    .collect()
            });
            assert!(
                decisions.iter().all(|&d| d == decisions[0]),
                "seed {seed}: disagreement {decisions:?}"
            );
        }
    }

    #[test]
    fn shared_coin_configuration_reaches_agreement() {
        use snapshot_registers::SeededRng;
        for seed in 0..10u64 {
            let n = 4;
            let backend = snapshot_registers::EpochBackend::new();
            let c = RandomizedConsensus::with_shared_coin(n, 32, &backend);
            assert!(c.has_shared_coin());
            let decisions: Vec<bool> = std::thread::scope(|s| {
                (0..n)
                    .map(|i| {
                        let c = &c;
                        s.spawn(move || {
                            let mut rng =
                                SeededRng::new(seed * 1000 + i as u64);
                            let mut h = c.handle(ProcessId::new(i));
                            h.propose(i % 2 == 0, &mut || rng.chance(0.5))
                                .unwrap()
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|j| j.join().unwrap())
                    .collect()
            });
            assert!(
                decisions.iter().all(|&d| d == decisions[0]),
                "seed {seed}: disagreement {decisions:?}"
            );
        }
    }

    #[test]
    fn round_budget_errors_are_reported_not_hung() {
        // A coin that perpetuates disagreement (each process stubbornly
        // re-flips to its own id parity) + a tiny budget.
        let n = 2;
        let c = RandomizedConsensus::new(n, 2);
        let results: Vec<Result<bool, ConsensusError>> = std::thread::scope(|s| {
            (0..n)
                .map(|i| {
                    let c = &c;
                    s.spawn(move || {
                        let mut h = c.handle(ProcessId::new(i));
                        h.propose(i % 2 == 0, &mut || i % 2 == 0)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        // Whatever happened, any decisions reached must agree.
        let decisions: Vec<bool> = results.iter().filter_map(|r| r.ok()).collect();
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    }
}
