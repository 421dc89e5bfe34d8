//! Media-fault injection plane.
//!
//! Models the NVM failure modes a recovery scrub must survive, usable both
//! against a crashed image and live under a running controller:
//!
//! * **bit flips** — a one-shot corruption of stored content (radiation,
//!   wear-out, or an attacker with physical access). Applied directly to
//!   the backing store: a later full-line write heals it.
//! * **stuck-at lines** — a permanently failed line: reads always return
//!   the stuck value, writes are accepted (and timed/counted) but have no
//!   effect on what is read back.
//! * **unreadable lines** — an uncorrectable media error: reads return a
//!   recognizable poison pattern, and [`FaultPlane::is_readable`] lets the
//!   scrub classify the region instead of trusting the poison bytes.
//! * **transient unreadable lines** — a soft media error that fails the
//!   next *n* read attempts and then heals (marginal cells, disturbed
//!   rows). The device's timed read path re-reads on a bounded
//!   exponential-backoff schedule (modeled cycles, no wall clock), so
//!   short transients never reach the engine; a transient that outlives
//!   the budget is promoted to a permanent unreadable fault
//!   ([`FaultPlane::promote_transient`]).
//!
//! The plane is an overlay on [`crate::device::NvmDevice`]'s read path, so
//! timing and persist-point enumeration are unaffected by injected
//! faults — a fault changes what the controller *sees*, not what the device
//! *does*.

use crate::storage::Line;
use std::collections::{HashMap, HashSet};

/// The poison pattern an unreadable line returns. Chosen to be non-zero (a
/// zero line is the legitimate never-written state) and structured enough to
/// be recognizable in hex dumps.
pub const POISON_BYTE: u8 = 0xBD;

/// Overlay of injected media faults, keyed by line address.
#[derive(Clone, Default)]
pub struct FaultPlane {
    stuck: HashMap<u64, Line>,
    unreadable: HashSet<u64>,
    /// Remaining failed attempts per transiently-unreadable line.
    transient: HashMap<u64, u32>,
}

impl FaultPlane {
    /// Empty plane: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `addr`'s line stuck at `line`: every read observes `line`
    /// regardless of writes.
    pub fn stick_line(&mut self, addr: u64, line: Line) {
        self.stuck.insert(addr & !63, line);
    }

    /// Marks `addr`'s line unreadable: reads return the poison pattern.
    pub fn mark_unreadable(&mut self, addr: u64) {
        self.unreadable.insert(addr & !63);
    }

    /// Marks `addr`'s line transiently unreadable: the next `failures`
    /// read attempts observe poison, after which the line heals.
    pub fn mark_transient_unreadable(&mut self, addr: u64, failures: u32) {
        if failures > 0 {
            self.transient.insert(addr & !63, failures);
        }
    }

    /// Consumes one pending transient failure on `addr`'s line. Returns
    /// `true` when an attempt failed (count decremented), `false` when the
    /// line has no transient fault left.
    pub fn consume_transient_failure(&mut self, addr: u64) -> bool {
        let key = addr & !63;
        match self.transient.get_mut(&key) {
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    self.transient.remove(&key);
                }
                true
            }
            None => false,
        }
    }

    /// Remaining failed attempts on a transiently-unreadable line.
    pub fn transient_remaining(&self, addr: u64) -> u32 {
        self.transient.get(&(addr & !63)).copied().unwrap_or(0)
    }

    /// Promotes a still-pending transient fault on `addr`'s line to a
    /// permanent unreadable fault (the device calls this when the bounded
    /// re-read schedule exhausts its budget). Returns `true` when a
    /// transient was actually promoted, `false` when the line had none
    /// left — an already-healed line is never re-poisoned.
    pub fn promote_transient(&mut self, addr: u64) -> bool {
        let key = addr & !63;
        if self.transient.remove(&key).is_some() {
            self.unreadable.insert(key);
            true
        } else {
            false
        }
    }

    /// Whether `addr`'s line reads back real (possibly stuck) content
    /// right now — a transient fault makes the line unreadable until its
    /// remaining failures are consumed.
    pub fn is_readable(&self, addr: u64) -> bool {
        let key = addr & !63;
        !self.unreadable.contains(&key) && !self.transient.contains_key(&key)
    }

    /// Applies the overlay to a line read from the backing store.
    pub fn observe(&self, addr: u64, stored: Line) -> Line {
        let key = addr & !63;
        if self.unreadable.contains(&key) || self.transient.contains_key(&key) {
            return [POISON_BYTE; 64];
        }
        if let Some(stuck) = self.stuck.get(&key) {
            return *stuck;
        }
        stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plane_passes_through() {
        let p = FaultPlane::new();
        assert!(p.is_readable(64));
        assert_eq!(p.transient_remaining(64), 0);
        assert_eq!(p.observe(64, [7; 64]), [7; 64]);
    }

    #[test]
    fn stuck_line_overrides_stored_content() {
        let mut p = FaultPlane::new();
        p.stick_line(128, [0xAA; 64]);
        assert_eq!(p.observe(128, [1; 64]), [0xAA; 64]);
        assert_eq!(p.observe(192, [1; 64]), [1; 64]);
        assert!(p.is_readable(128), "stuck lines still read (wrong) data");
    }

    #[test]
    fn unreadable_line_poisons_and_reports() {
        let mut p = FaultPlane::new();
        p.mark_unreadable(256);
        assert!(
            !p.is_readable(256 + 13),
            "sub-line addresses map to the line"
        );
        assert_eq!(p.observe(256, [1; 64]), [POISON_BYTE; 64]);
        assert!(p.is_readable(320), "the next line is untouched");
        assert_eq!(p.observe(320, [1; 64]), [1; 64]);
    }

    #[test]
    fn transient_fault_heals_after_consuming_failures() {
        let mut p = FaultPlane::new();
        p.mark_transient_unreadable(320, 2);
        assert!(!p.is_readable(320));
        assert_eq!(p.observe(320, [5; 64]), [POISON_BYTE; 64]);
        assert!(p.consume_transient_failure(320));
        assert_eq!(p.transient_remaining(320), 1);
        assert!(p.consume_transient_failure(320 + 7), "sub-line addr maps");
        assert!(!p.consume_transient_failure(320), "fault healed");
        assert!(p.is_readable(320));
        assert_eq!(p.transient_remaining(320), 0, "nothing left behind");
        assert_eq!(p.observe(320, [5; 64]), [5; 64]);
    }

    #[test]
    fn promote_transient_makes_fault_permanent() {
        let mut p = FaultPlane::new();
        p.mark_transient_unreadable(64, 2);
        assert!(p.promote_transient(64 + 9), "sub-line addr maps");
        assert!(!p.is_readable(64));
        assert_eq!(p.transient_remaining(64), 0, "transient entry consumed");
        assert!(!p.consume_transient_failure(64), "no transient left");
        assert_eq!(p.observe(64, [3; 64]), [POISON_BYTE; 64]);
        assert!(
            !p.promote_transient(64),
            "healed/absent lines never promote"
        );
        assert!(!p.promote_transient(128));
        assert!(p.is_readable(128), "a failed promotion poisons nothing");
        assert_eq!(p.observe(128, [3; 64]), [3; 64]);
    }

    #[test]
    fn unreadable_wins_over_stuck() {
        let mut p = FaultPlane::new();
        p.stick_line(0, [0x11; 64]);
        p.mark_unreadable(0);
        assert_eq!(p.observe(0, [9; 64]), [POISON_BYTE; 64]);
        assert!(!p.is_readable(0));
        assert_eq!(p.observe(64, [9; 64]), [9; 64], "only line 0 is faulted");
    }
}
