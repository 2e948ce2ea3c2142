//! Randomized consensus from atomic snapshots: eight threads with mixed
//! proposals reach agreement, wait-free, using only registers + local
//! coins (the application family the paper cites as [A88, AH89, ADS89]).
//!
//! Run with: `cargo run --example randomized_consensus`

use snapshot_apps::RandomizedConsensus;
use snapshot_registers::{ProcessId, SeededRng};

fn main() {
    const N: usize = 8;

    let consensus = RandomizedConsensus::new(N, 128);

    let decisions: Vec<(usize, bool, bool)> = std::thread::scope(|s| {
        (0..N)
            .map(|i| {
                let consensus = &consensus;
                s.spawn(move || {
                    let input = i % 3 == 0; // mixed proposals
                    let mut rng = SeededRng::new(0xC01_u64 + i as u64);
                    let mut handle = consensus.handle(ProcessId::new(i));
                    let decided = handle
                        .propose(input, &mut || rng.chance(0.5))
                        .expect("round budget is generous");
                    (i, input, decided)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect()
    });

    for (i, input, decided) in &decisions {
        println!("P{i}: proposed {input:5} -> decided {decided}");
    }

    let first = decisions[0].2;
    assert!(
        decisions.iter().all(|(_, _, d)| *d == first),
        "agreement violated!"
    );
    assert!(
        decisions.iter().any(|(_, input, _)| *input == first),
        "validity violated!"
    );
    println!("agreement + validity hold: all {N} processes decided {first}");
}
