//! Output checks, run on every view the clients receive.
//!
//! A violation is not a metric: it carries the offending views, aborts
//! the run and makes the process exit non-zero.

use std::fmt;

use crate::gen::unpack;
use crate::SEGMENTS;

/// One full view, copied out of the `SnapshotView` it arrived in.
pub type View = [u64; SEGMENTS];

/// Every `KEEP_STRIDE`-th view per client is kept for the after-run
/// chain check.
pub const KEEP_STRIDE: u32 = 64;
/// Kept views per client before the keeper halves itself (and doubles its
/// stride), so memory stays bounded on the 10⁷-scan workloads.
const KEEP_CAP: usize = 1 << 15;

/// A failed correctness check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which rule broke.
    pub rule: &'static str,
    /// The client that observed it.
    pub client: usize,
    /// The offending views / values, rendered for the operator.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "correctness violation [{}] at client {}: {}",
            self.rule, self.client, self.detail
        )
    }
}

impl std::error::Error for Violation {}

fn render(view: &[u64]) -> String {
    let parts: Vec<String> = view
        .iter()
        .map(|&v| {
            let (w, s) = unpack(v);
            format!("{w}:{s}")
        })
        .collect();
    format!("[{}]", parts.join(" "))
}

/// A bounded every-k-th keeper.
#[derive(Debug)]
struct Keeper<T> {
    kept: Vec<T>,
    stride: u32,
    countdown: u32,
}

impl<T> Keeper<T> {
    fn new() -> Self {
        // Full capacity up front (untouched pages cost nothing): the
        // keeper never reallocates in the middle of a measurement.
        Keeper {
            kept: Vec::with_capacity(KEEP_CAP),
            stride: KEEP_STRIDE,
            countdown: KEEP_STRIDE,
        }
    }

    fn offer(&mut self, make: impl FnOnce() -> T) {
        self.countdown -= 1;
        if self.countdown > 0 {
            return;
        }
        if self.kept.len() == KEEP_CAP {
            let mut i = 0;
            self.kept.retain(|_| {
                i += 1;
                i % 2 == 0
            });
            self.stride *= 2;
        }
        self.countdown = self.stride;
        self.kept.push(make());
    }
}

/// A kept subset view: `(a, b, value_a, value_b)`.
pub type KeptPair = (u8, u8, u64, u64);

/// Per-client checker for the single-writer workloads.
#[derive(Debug)]
pub struct SwChecker {
    client: usize,
    /// The client's last completed update.
    last_own: u64,
    /// False between a failed (indeterminate) update and the next
    /// completed one: the own segment may hold either value.
    own_known: bool,
    /// Componentwise maximum of everything this client has seen.
    seen: View,
    full: Keeper<View>,
    pairs: Keeper<KeptPair>,
}

impl SwChecker {
    /// A checker for the client on lane `client`, after set-up wrote
    /// `init[j]` to every segment `j`.
    pub fn new(client: usize, init: View) -> Self {
        SwChecker {
            client,
            last_own: init[client],
            own_known: true,
            seen: init,
            full: Keeper::new(),
            pairs: Keeper::new(),
        }
    }

    /// The client's last acknowledged value.
    pub fn last_own(&self) -> u64 {
        self.last_own
    }

    /// Records a completed update of the client's own segment.
    pub fn on_update(&mut self, value: u64) {
        self.last_own = value;
        self.own_known = true;
    }

    /// A failed update is indeterminate: stop asserting the own segment
    /// until the next update completes.
    pub fn forget_own(&mut self) {
        self.own_known = false;
    }

    fn violation(&self, rule: &'static str, detail: String) -> Violation {
        Violation {
            rule,
            client: self.client,
            detail,
        }
    }

    fn observe(&mut self, segment: usize, value: u64, whole: &[u64]) -> Result<(), Violation> {
        if segment == self.client && self.own_known && value != self.last_own {
            return Err(self.violation(
                "own-segment",
                format!(
                    "segment {segment} reads {} but the last completed update wrote {} (view {})",
                    render(&[value]),
                    render(&[self.last_own]),
                    render(whole)
                ),
            ));
        }
        if value < self.seen[segment] {
            return Err(self.violation(
                "per-client-monotone",
                format!(
                    "segment {segment} went back from {} to {} (view {}, seen so far {})",
                    render(&[self.seen[segment]]),
                    render(&[value]),
                    render(whole),
                    render(&self.seen)
                ),
            ));
        }
        self.seen[segment] = value;
        Ok(())
    }

    /// Checks a full view.
    pub fn on_scan(&mut self, view: &[u64]) -> Result<(), Violation> {
        if view.len() != SEGMENTS {
            return Err(self.violation(
                "view-length",
                format!("{} entries: {}", view.len(), render(view)),
            ));
        }
        for (j, &v) in view.iter().enumerate() {
            self.observe(j, v, view)?;
        }
        self.full
            .offer(|| view.try_into().expect("length checked above"));
        Ok(())
    }

    /// Checks a subset view over `segments` (strictly increasing).
    pub fn on_subset(&mut self, segments: &[usize], values: &[u64]) -> Result<(), Violation> {
        if segments.len() != 2 || values.len() != 2 || segments[0] >= segments[1] {
            return Err(self.violation(
                "subset-shape",
                format!("segments {segments:?}, values {}", render(values)),
            ));
        }
        for (&s, &v) in segments.iter().zip(values) {
            self.observe(s, v, values)?;
        }
        self.pairs
            .offer(|| (segments[0] as u8, segments[1] as u8, values[0], values[1]));
        Ok(())
    }

    /// Hands the kept views to the after-run chain check.
    pub fn into_kept(self) -> (Vec<View>, Vec<KeptPair>) {
        (self.full.kept, self.pairs.kept)
    }
}

/// Per-client checker for `mem-mw`, where both writers write every word.
#[derive(Debug)]
pub struct MwChecker {
    client: usize,
    /// 1-based writer id of this client.
    me: usize,
    /// Per word: the seq of this client's last write there (0 = none).
    last_written: View,
    /// Per word, per writer: the newest seq this client has seen.
    seen: [[u64; 3]; SEGMENTS],
    /// Cleared for good by a failed (indeterminate) update.
    own_known: bool,
}

impl MwChecker {
    /// A checker for writer `me` (1-based); `last_written[w]` is the seq
    /// of its set-up write to word `w` (0 if it made none).
    pub fn new(client: usize, me: usize, last_written: View) -> Self {
        MwChecker {
            client,
            me,
            last_written,
            seen: [[0; 3]; SEGMENTS],
            own_known: true,
        }
    }

    /// Records this client's completed write of `seq` to `word`.
    pub fn on_update(&mut self, word: usize, seq: u64) {
        self.last_written[word] = seq;
    }

    /// A failed update is indeterminate: stop asserting own writes.
    pub fn forget_own(&mut self) {
        self.own_known = false;
    }

    /// Checks a full view.
    pub fn on_scan(&mut self, view: &[u64]) -> Result<(), Violation> {
        let fail = |rule, detail| {
            Err(Violation {
                rule,
                client: self.client,
                detail,
            })
        };
        if view.len() != SEGMENTS {
            return fail(
                "view-length",
                format!("{} entries: {}", view.len(), render(view)),
            );
        }
        for (word, &v) in view.iter().enumerate() {
            let (writer, seq) = unpack(v);
            if writer == 0 || writer > 2 {
                return fail("unknown-writer", format!("word {word} of {}", render(view)));
            }
            if writer == self.me && self.own_known && seq != self.last_written[word] {
                return fail(
                    "own-write",
                    format!(
                        "word {word} shows own write {seq}, last completed there is {} (view {})",
                        self.last_written[word],
                        render(view)
                    ),
                );
            }
            if seq < self.seen[word][writer] {
                return fail(
                    "per-writer-monotone",
                    format!(
                        "word {word} went back from {writer}:{} to {writer}:{seq} (view {})",
                        self.seen[word][writer],
                        render(view)
                    ),
                );
            }
            self.seen[word][writer] = seq;
        }
        Ok(())
    }
}

fn leq(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// The defining property of an atomic snapshot of single-writer segments:
/// all views, from all clients, form a chain under componentwise `≤`.
///
/// In a chain the component sum is strictly monotone between distinct
/// views, so sorting by it and comparing neighbours decides the question
/// in `O(k log k)`.
pub fn check_chain(mut views: Vec<View>) -> Result<(), Violation> {
    views.sort_by_key(|v| v.iter().map(|&x| u128::from(x)).sum::<u128>());
    for pair in views.windows(2) {
        if !leq(&pair[0], &pair[1]) {
            return Err(Violation {
                rule: "views-form-a-chain",
                client: usize::MAX,
                detail: format!(
                    "incomparable views {} and {}",
                    render(&pair[0]),
                    render(&pair[1])
                ),
            });
        }
    }
    Ok(())
}

/// [`check_chain`] for kept subset views: views over the same pair of
/// segments must be pairwise comparable.
pub fn check_pair_chains(mut pairs: Vec<KeptPair>) -> Result<(), Violation> {
    pairs.sort_by_key(|&(a, b, va, vb)| (a, b, u128::from(va) + u128::from(vb)));
    for w in pairs.windows(2) {
        let ((a0, b0, x0, y0), (a1, b1, x1, y1)) = (w[0], w[1]);
        if (a0, b0) == (a1, b1) && !(x0 <= x1 && y0 <= y1) {
            return Err(Violation {
                rule: "subset-views-form-a-chain",
                client: usize::MAX,
                detail: format!(
                    "incomparable views of segments ({a0}, {b0}): {} and {}",
                    render(&[x0, y0]),
                    render(&[x1, y1])
                ),
            });
        }
    }
    Ok(())
}
