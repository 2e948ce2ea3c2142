//! [`CachePadded`] lives in `snapshot-obs` (the striped metrics pad their
//! cells with it too); this module re-exports it and forwards the
//! [`Register`] interface through it — including the clone-free
//! [`Register::read_with`] path and [`Register::version_hint`] — so a
//! padded cell array drops into any code that held a plain one.

use crate::{ProcessId, Register};

pub use snapshot_obs::CachePadded;

impl<T, R: Register<T>> Register<T> for CachePadded<R> {
    fn read(&self, reader: ProcessId) -> T {
        (**self).read(reader)
    }

    fn write(&self, writer: ProcessId, value: T) {
        (**self).write(writer, value)
    }

    fn read_with<U>(&self, reader: ProcessId, f: impl FnOnce(&T) -> U) -> U {
        (**self).read_with(reader, f)
    }

    fn version_hint(&self) -> Option<crate::Version> {
        (**self).version_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EpochCell;

    #[test]
    fn register_interface_passes_through() {
        let p = ProcessId::new(0);
        let cell = CachePadded::new(EpochCell::new(3u32));
        assert_eq!(cell.read(p), 3);
        cell.write(p, 4);
        assert_eq!(cell.read_with(p, |v| *v + 1), 5);
        // The version hint of the inner cell is visible through the pad.
        let v0 = cell.version_hint().expect("EpochCell has versions");
        cell.write(p, 5);
        assert_ne!(cell.version_hint(), Some(v0));
    }
}
