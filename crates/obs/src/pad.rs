use std::fmt;
use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes so that neighbouring values never
/// share a cache line.
///
/// Two kinds of dense array live in this workspace and both need it: the
/// snapshot constructions keep one register per process
/// (`Box<[Cell]>`), where every process hammers its own slot on every
/// update while scanners sweep all of them; and the striped metrics keep
/// one cell per thread, written only by its thread and summed on read.
/// Without padding, two writers' slots can land on the same cache line
/// and every write invalidates the neighbour's line — *false sharing*, a
/// pure constant-factor tax the paper's `O(n²)` step bounds know nothing
/// about. The alignment is 128 (not 64) because adjacent-line hardware
/// prefetchers on x86 pull cache lines in pairs, and several ARM cores
/// use 128-byte lines outright.
///
/// `CachePadded<T>` is transparent: it derefs to the inner value.
/// `snapshot-registers` re-exports it and forwards its `Register`
/// interface through it, so a padded cell array drops into any code that
/// held a plain one.
///
/// # Example
///
/// ```
/// use snapshot_obs::CachePadded;
///
/// let padded = CachePadded::new(7u64);
/// assert_eq!(*padded, 7);
/// assert!(std::mem::size_of::<CachePadded<u64>>() >= 128);
/// assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 128);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

// The padding claim the counters rely on, checked at compile time: even a
// bare 8-byte atomic occupies a full aligned block once padded, so two
// padded slots can never share a line.
const _: () = assert!(std::mem::size_of::<CachePadded<std::sync::atomic::AtomicU64>>() >= 128);
const _: () = assert!(std::mem::align_of::<CachePadded<std::sync::atomic::AtomicU64>>() == 128);

impl<T> CachePadded<T> {
    /// Pads `value` to its own cache-line block.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Consumes the padding, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::{align_of, size_of};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn padded_atomics_do_not_share_cache_lines() {
        assert!(size_of::<CachePadded<AtomicU64>>() >= 128);
        assert_eq!(align_of::<CachePadded<AtomicU64>>(), 128);
        // Array layout: consecutive elements are a full block apart.
        let arr = [CachePadded::new(0u8), CachePadded::new(0u8)];
        let a = &arr[0] as *const _ as usize;
        let b = &arr[1] as *const _ as usize;
        assert!(b - a >= 128);
    }

    #[test]
    fn deref_reaches_the_inner_value() {
        let mut padded = CachePadded::new(vec![1, 2]);
        padded.push(3);
        assert_eq!(padded.into_inner(), vec![1, 2, 3]);
    }
}
