use std::fmt;

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::{ProcessId, Register, TryRegister};

/// A blocking register baseline: the value behind a [`std::sync::Mutex`].
///
/// Linearizable but *not* wait-free in the strict sense (a reader can be
/// delayed by a writer holding the lock). It exists as a benchmark baseline
/// and as a sanity cross-check for the lock-free [`EpochCell`]: every test
/// and experiment in the workspace can be re-run over this backend.
///
/// [`EpochCell`]: crate::EpochCell
///
/// # Example
///
/// ```
/// use snapshot_registers::{MutexCell, ProcessId, Register};
///
/// let cell = MutexCell::new(1u8);
/// cell.write(ProcessId::new(0), 2);
/// assert_eq!(cell.read(ProcessId::new(1)), 2);
/// ```
pub struct MutexCell<T> {
    slot: Mutex<T>,
}

impl<T: Clone + Send> MutexCell<T> {
    /// Creates a register holding `init`.
    pub fn new(init: T) -> Self {
        MutexCell {
            slot: Mutex::new(init),
        }
    }
}

impl<T> MutexCell<T> {
    /// A poisoned lock yields its guard: the value is replaced whole, so a
    /// writer that panicked left either the old or the new one.
    fn lock(&self) -> MutexGuard<'_, T> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Clone + Send> Register<T> for MutexCell<T> {
    fn read(&self, _reader: ProcessId) -> T {
        self.lock().clone()
    }

    fn write(&self, _writer: ProcessId, value: T) {
        *self.lock() = value;
    }

    fn read_with<U>(&self, _reader: ProcessId, f: impl FnOnce(&T) -> U) -> U {
        // Borrow under the lock instead of cloning out; `f` must stay
        // short (see the trait docs) since it runs with the lock held.
        f(&self.lock())
    }
}

impl<T: Clone + Send> TryRegister<T> for MutexCell<T> {
    type Error = std::convert::Infallible;

    fn try_read(&self, reader: ProcessId) -> Result<T, Self::Error> {
        Ok(self.read(reader))
    }

    fn try_write(&self, writer: ProcessId, value: T) -> Result<(), Self::Error> {
        self.write(writer, value);
        Ok(())
    }
}

impl<T> fmt::Debug for MutexCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutexCell").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let cell = MutexCell::new(vec![0u8]);
        cell.write(ProcessId::new(0), vec![1, 2]);
        assert_eq!(cell.read(ProcessId::new(1)), vec![1, 2]);
    }

    #[test]
    fn concurrent_writers_do_not_tear() {
        let cell = MutexCell::new((0u64, 0u64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cell = &cell;
                s.spawn(move || {
                    for i in 0..500 {
                        let v = t * 500 + i;
                        cell.write(ProcessId::new(t as usize), (v, v * 7));
                    }
                });
            }
            let cell = &cell;
            s.spawn(move || {
                for _ in 0..2_000 {
                    let (a, b) = cell.read(ProcessId::new(4));
                    assert_eq!(b, a * 7);
                }
            });
        });
    }
}
