//! Contiguous partitioning of segments across shards.
//!
//! Shards are the unit of health gating: each owns a circuit breaker on
//! its own cache line, so a degrading range of segments sheds only the
//! requests that touch it.

use std::ops::Range;

/// Balanced contiguous partition of `segments` segments into `shards`
/// shards: shard `i` owns `[i*segments/shards, (i+1)*segments/shards)`,
/// so shard sizes differ by at most one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShardMap {
    segments: usize,
    shards: usize,
}

impl ShardMap {
    /// Creates the map, clamping the shard count into `[1, segments]`.
    pub(crate) fn new(segments: usize, shards: usize) -> Self {
        assert!(segments > 0, "a shard map needs at least one segment");
        ShardMap { segments, shards: shards.clamp(1, segments) }
    }

    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `segment`.
    pub(crate) fn shard_of(&self, segment: usize) -> usize {
        debug_assert!(segment < self.segments);
        // Inverse of `start(i) = i * segments / shards`: the largest `i`
        // with `start(i) <= segment`.
        ((segment + 1) * self.shards - 1) / self.segments
    }

    /// The contiguous segment range shard `shard` owns.
    pub(crate) fn range(&self, shard: usize) -> Range<usize> {
        debug_assert!(shard < self.shards);
        (shard * self.segments / self.shards)..((shard + 1) * self.segments / self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_segments() {
        for segments in 1..=17 {
            for shards in 1..=segments + 3 {
                let map = ShardMap::new(segments, shards);
                let mut covered = Vec::new();
                for s in 0..map.shards() {
                    let r = map.range(s);
                    assert!(!r.is_empty(), "empty shard {s} for {segments}/{shards}");
                    for seg in r {
                        assert_eq!(map.shard_of(seg), s);
                        covered.push(seg);
                    }
                }
                assert_eq!(covered, (0..segments).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn shard_sizes_are_balanced() {
        let map = ShardMap::new(10, 4);
        let sizes: Vec<usize> = (0..4).map(|s| map.range(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&l| l == 2 || l == 3), "{sizes:?}");
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(ShardMap::new(3, 0).shards(), 1);
        assert_eq!(ShardMap::new(3, 99).shards(), 3);
    }
}
