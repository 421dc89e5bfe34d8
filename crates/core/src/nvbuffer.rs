//! Steins' non-volatile parent-counter buffer (§III-E, Table I: 128 B).
//!
//! When a dirty node is evicted and its parent is *not* cached, Steins does
//! not read the parent on the write critical path. It computes the child's
//! HMAC from the locally generated parent counter and parks
//! `(child offset, generated counter)` in this small NV buffer. The buffer
//! drains — fetching parents, applying counter updates and LInc deltas —
//! before the next read operation or when full. Because the buffer is
//! non-volatile, a crash mid-drain loses nothing: recovery replays the
//! entries (§III-G step ⑤).

/// One parked update: the child at `child_offset` (metadata-region offset)
/// was flushed with generated parent counter `generated`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NvBufferEntry {
    /// Metadata-region offset of the flushed child.
    pub child_offset: u64,
    /// The parent counter generated from the child at flush time.
    pub generated: u64,
}

/// Entry footprint in the 128 B register file: 4 B offset + 8 B counter,
/// padded to 16 B.
pub const ENTRY_BYTES: usize = 16;

/// Bounded FIFO of parked parent updates.
#[derive(Clone, Debug)]
pub struct NvBuffer {
    entries: Vec<NvBufferEntry>,
    capacity: usize,
    /// Entries retired since construction (FIFO position of the front).
    retired: u64,
}

impl NvBuffer {
    /// A buffer of `bytes` total (Table I: 128 ⇒ 8 entries).
    pub fn new(bytes: usize) -> Self {
        let capacity = bytes / ENTRY_BYTES;
        assert!(capacity >= 1, "NV buffer too small for one entry");
        NvBuffer {
            entries: Vec::with_capacity(capacity),
            capacity,
            retired: 0,
        }
    }

    /// Parks an entry. Returns `true` if the buffer is now full (caller must
    /// drain before accepting more).
    pub fn push(&mut self, entry: NvBufferEntry) -> bool {
        debug_assert!(self.entries.len() < self.capacity, "push into full buffer");
        self.entries.push(entry);
        self.entries.len() == self.capacity
    }

    /// Whether another push would overflow.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Whether any entries are parked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drains all parked entries in FIFO order.
    pub fn drain(&mut self) -> Vec<NvBufferEntry> {
        std::mem::take(&mut self.entries)
    }

    /// Oldest parked entry, if any (drain processes FIFO).
    pub fn front(&self) -> Option<NvBufferEntry> {
        self.entries.first().copied()
    }

    /// Retires the oldest entry. The engine calls this only *after* the
    /// entry's parent update and LInc transfer have completed, so a crash
    /// mid-drain never loses a parked update (§III-E: the buffer is
    /// non-volatile precisely so recovery can replay it).
    pub fn pop_front(&mut self) -> Option<NvBufferEntry> {
        if self.entries.is_empty() {
            None
        } else {
            self.retired += 1;
            Some(self.entries.remove(0))
        }
    }

    /// Entries retired through [`Self::pop_front`] since construction.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Read-only view (recovery replays without draining the register).
    pub fn entries(&self) -> &[NvBufferEntry] {
        &self.entries
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_from_table1_bytes() {
        let b = NvBuffer::new(128);
        assert_eq!(b.capacity(), 8);
    }

    #[test]
    fn push_reports_full() {
        let mut b = NvBuffer::new(32); // 2 entries
        assert!(!b.push(NvBufferEntry {
            child_offset: 1,
            generated: 10
        }));
        assert!(b.push(NvBufferEntry {
            child_offset: 2,
            generated: 20
        }));
        assert!(b.is_full());
    }

    #[test]
    fn drain_is_fifo_and_empties() {
        let mut b = NvBuffer::new(64);
        for i in 0..3 {
            b.push(NvBufferEntry {
                child_offset: i,
                generated: i * 100,
            });
        }
        let drained = b.drain();
        assert_eq!(
            drained.iter().map(|e| e.child_offset).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn degenerate_rejected() {
        NvBuffer::new(8);
    }

    #[test]
    fn front_and_pop_front_are_fifo() {
        let mut b = NvBuffer::new(64);
        for i in 0..3 {
            b.push(NvBufferEntry {
                child_offset: i,
                generated: i * 100,
            });
        }
        assert_eq!(b.front().map(|e| e.child_offset), Some(0));
        assert_eq!(b.pop_front().map(|e| e.child_offset), Some(0));
        assert_eq!(b.front().map(|e| e.child_offset), Some(1));
        assert_eq!(b.entries().len(), 2);
        b.pop_front();
        b.pop_front();
        assert_eq!(b.pop_front(), None);
    }
}
