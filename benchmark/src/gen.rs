//! Seeded op streams: the only thing the program under test receives.
//!
//! Each client gets a fixed-length script drawn from a xorshift generator
//! seeded by `(--seed, client)`, and replays it cyclically for the whole
//! run. Update *values* are not part of the script: they are
//! `(writer << 40) | seq`, unique and monotone per writer, so the checks
//! can order any two values of one writer.

use crate::SEGMENTS;

/// Ops per client script (a power of two; replayed cyclically).
pub const SCRIPT_LEN: usize = 1 << 16;

/// xorshift64*, seeded through one splitmix64 step so small seeds spread.
#[derive(Clone, Debug)]
pub struct Xorshift(u64);

impl Xorshift {
    /// The generator `seed` always produces.
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Xorshift((z ^ (z >> 31)) | 1)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What one scripted op does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A full scan.
    Scan,
    /// An update of the client's own segment (single-writer stacks) or of
    /// word `a` (`mem-mw`).
    Update,
    /// `scan_subset(&[a, b])`, `a < b`.
    Subset,
}

/// One scripted op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// First operand (see [`OpKind`]).
    pub a: u8,
    /// Second operand (see [`OpKind`]).
    pub b: u8,
    /// Whether the in-process workloads time this op (one in sixteen,
    /// picked by the stream rather than a stride so it cannot alias with
    /// the mix); the service and quorum workloads time every op.
    pub timed: bool,
}

/// The op mix of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// `mem-scan`: 7 scans : 1 update.
    ScanHeavy,
    /// `mem-mw`: 3 updates (uniform word) : 1 scan.
    MultiWriter,
    /// `svc` and every quorum workload: 50 % scan, 25 % `scan_subset`
    /// (k = 2, zipf s = 1 over the 8 segments), 25 % update.
    Service,
}

/// Cumulative zipf(s = 1) weights over the 8 segments, scaled to 2^16:
/// `P(seg = i) ∝ 1 / (i + 1)`.
fn zipf_segment(rng: &mut Xorshift) -> u8 {
    // 1/H_8 * (1, 1/2, ..., 1/8), H_8 = 761/280; cumulative * 65536.
    const CUM: [u64; SEGMENTS] = [24113, 36169, 44207, 50235, 55058, 59076, 62521, 65536];
    let draw = rng.below(65536);
    CUM.iter()
        .position(|&c| draw < c)
        .expect("draw below the last bound") as u8
}

/// The script client `client` replays under `seed`.
pub fn script(mix: Mix, seed: u64, client: usize) -> Vec<Op> {
    let mut rng = Xorshift::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    (0..SCRIPT_LEN)
        .map(|_| {
            let draw = rng.below(8);
            let timed = rng.below(16) == 0;
            let (kind, a, b) = match mix {
                Mix::ScanHeavy if draw < 7 => (OpKind::Scan, 0, 0),
                Mix::ScanHeavy => (OpKind::Update, 0, 0),
                Mix::MultiWriter if draw < 6 => {
                    (OpKind::Update, rng.below(SEGMENTS as u64) as u8, 0)
                }
                Mix::MultiWriter => (OpKind::Scan, 0, 0),
                Mix::Service if draw < 4 => (OpKind::Scan, 0, 0),
                Mix::Service if draw < 6 => {
                    let a = zipf_segment(&mut rng);
                    let mut b = zipf_segment(&mut rng);
                    while b == a {
                        b = zipf_segment(&mut rng);
                    }
                    (OpKind::Subset, a.min(b), a.max(b))
                }
                Mix::Service => (OpKind::Update, 0, 0),
            };
            Op { kind, a, b, timed }
        })
        .collect()
}

/// The value writer `writer` (1-based, so 0 stays "initial") publishes as
/// its `seq`-th write.
pub fn value(writer: usize, seq: u64) -> u64 {
    debug_assert!(seq < 1 << 40);
    ((writer as u64) << 40) | seq
}

/// Splits a value back into `(writer, seq)`.
pub fn unpack(value: u64) -> (usize, u64) {
    ((value >> 40) as usize, value & ((1 << 40) - 1))
}
