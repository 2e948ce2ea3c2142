//! The epoch stand-in reclaims as it goes: ten seconds of `EpochCell`
//! writes against a reader leave the resident set flat. (A stand-in that
//! leaked its retired records, as the rustc+shim recipe's does, would
//! grow by gigabytes here.) Alone in its test binary so no other test's
//! allocations or pins disturb the reading.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use snapshot_benchmark::procfs::rss_mb;
use snapshot_registers::{EpochCell, ProcessId, Register};

#[test]
fn rss_stays_flat_over_a_ten_second_write_loop() {
    if rss_mb() == 0.0 {
        eprintln!("no /proc/self/status here; skipping");
        return;
    }
    let cell = EpochCell::new([0u64; 8]);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(cell.read(ProcessId::new(1)));
            }
        });
        let start = Instant::now();
        let mut writes = 0u64;
        let mut early = None;
        while start.elapsed() < Duration::from_secs(10) {
            for _ in 0..1024 {
                writes += 1;
                cell.write(ProcessId::new(0), [writes; 8]);
            }
            if early.is_none() && start.elapsed() >= Duration::from_secs(2) {
                early = Some((rss_mb(), writes));
            }
        }
        stop.store(true, Ordering::Relaxed);
        let (early_mb, early_writes) = early.expect("the loop ran past two seconds");
        let late_mb = rss_mb();
        let retired_mb = (writes - early_writes) as f64 * 64.0 / (1 << 20) as f64;
        eprintln!("{writes} writes; rss {early_mb:.1} MiB at 2 s, {late_mb:.1} MiB at 10 s; {retired_mb:.0} MiB retired in between");
        assert!(
            retired_mb > 64.0,
            "the loop must retire enough for a leak to show ({retired_mb:.0} MiB)"
        );
        assert!(
            late_mb - early_mb < 8.0,
            "resident set grew from {early_mb:.1} to {late_mb:.1} MiB"
        );
    });
}
