//! The functional ground truth: the last-stored plaintext of every line.
//!
//! A trace store writes [`synth_data`]`(addr, version)`, a pure function of
//! its version, so the truth keeps the version and regenerates the payload
//! on demand: 16 B per line instead of 64. A payload the caller chose (the
//! direct [`SecureNvmSystem::write`](crate::SecureNvmSystem::write) API, a
//! crash sweep's reconcile) is kept boxed, and a later direct write to the
//! same line overwrites that box in place.

use crate::engine::synth_data;
use steins_crypto::FxHashMap;

/// One line's last-stored value.
enum Stored {
    /// A trace store's version: the payload is `synth_data(addr, version)`.
    Synth(u64),
    /// A payload given by the caller.
    Given(Box<[u8; 64]>),
}

/// Last-stored plaintext per line, keyed by line address. FxHash-keyed:
/// consulted on every simulated fill and write-back.
#[derive(Default)]
pub(crate) struct Truth {
    lines: FxHashMap<u64, Stored>,
}

impl Truth {
    /// The last-stored plaintext of `addr`, if any.
    pub(crate) fn get(&self, addr: u64) -> Option<[u8; 64]> {
        self.lines.get(&addr).map(|s| match s {
            Stored::Synth(version) => synth_data(addr, *version),
            Stored::Given(data) => **data,
        })
    }

    /// Records a trace store of `synth_data(addr, version)`.
    pub(crate) fn set_version(&mut self, addr: u64, version: u64) {
        self.lines.insert(addr, Stored::Synth(version));
    }

    /// Records a store of `data`, overwriting a given payload in place.
    pub(crate) fn set(&mut self, addr: u64, data: &[u8; 64]) {
        match self.lines.get_mut(&addr) {
            Some(Stored::Given(old)) => **old = *data,
            Some(slot) => *slot = Stored::Given(Box::new(*data)),
            None => {
                self.lines.insert(addr, Stored::Given(Box::new(*data)));
            }
        }
    }

    /// Forgets `addr`: its content is lost.
    pub(crate) fn remove(&mut self, addr: u64) {
        self.lines.remove(&addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steins_trace::rng::SmallRng;

    #[test]
    fn a_stored_line_costs_16_bytes() {
        assert_eq!(std::mem::size_of::<Stored>(), 16);
    }

    /// Drives a `Truth` and a plain payload map through the same seeded
    /// mix of trace stores, direct writes, crash removals and overwrites
    /// between the two representations, checking every line (its payload,
    /// or that it has none) after each op.
    #[test]
    fn matches_a_plain_payload_map() {
        const LINES: u64 = 48;
        let mut rng = SmallRng::seed_from_u64(0x7EA7);
        let mut truth = Truth::default();
        let mut plain: FxHashMap<u64, [u8; 64]> = FxHashMap::default();
        let (mut version, mut given, mut synth) = (0u64, 0u32, 0u32);
        for op in 0..20_000u32 {
            let addr = rng.gen_range(0, LINES) * 64;
            match rng.gen_range(0, 8) {
                // A trace store: a new version, over anything.
                0..=2 => {
                    version += 1;
                    synth += u32::from(matches!(truth.lines.get(&addr), Some(Stored::Given(_))));
                    truth.set_version(addr, version);
                    plain.insert(addr, synth_data(addr, version));
                }
                // A direct write, over anything.
                3..=5 => {
                    let mut data = [0u8; 64];
                    data[..4].copy_from_slice(&op.to_le_bytes());
                    data[63] = addr as u8;
                    given += u32::from(matches!(truth.lines.get(&addr), Some(Stored::Synth(_))));
                    truth.set(addr, &data);
                    plain.insert(addr, data);
                }
                // A crash-sweep reconcile restores an acknowledged payload
                // that equals a trace store's.
                6 => {
                    let data = synth_data(addr, rng.gen_range(0, 1 << 20));
                    truth.set(addr, &data);
                    plain.insert(addr, data);
                }
                // A line lost in the CPU caches or to the scrub.
                _ => {
                    truth.remove(addr);
                    plain.remove(&addr);
                }
            }
            for line in 0..LINES {
                let a = line * 64;
                assert_eq!(truth.get(a), plain.get(&a).copied(), "op {op}, line {line}");
            }
        }
        assert_eq!(truth.lines.len(), plain.len());
        assert!(
            given > 100 && synth > 100,
            "{given} Synth→Given, {synth} Given→Synth"
        );
    }
}
