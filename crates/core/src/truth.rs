//! The functional ground truth: the last-stored plaintext of every line.
//!
//! A trace store writes [`synth_data`]`(addr, version)`, a pure function of
//! its version, so the truth keeps the version and regenerates the payload
//! on demand. Two [`SparseStore`]s, both keyed by line address, hold it on
//! the line store's paged index:
//!
//! * `words`, one `u64` per stored line: [`NONE`] for no content,
//!   [`GIVEN`] for a payload in `given`, anything else a trace store's
//!   version;
//! * `given`, the payloads the caller chose (the direct
//!   [`SecureNvmSystem::write`](crate::SecureNvmSystem::write) API,
//!   `heal_write`, a crash sweep's reconcile). A later direct write to the
//!   line overwrites its payload in place; a trace store or a removal only
//!   rewrites its word, and the stale payload stays until the line's next
//!   direct write.
//!
//! So a line a trace stores costs an 8 B word plus its share of an index
//! page, and the truth allocates nothing until a line is stored.

use crate::engine::synth_data;
use steins_nvm::SparseStore;

/// The word of a line with no content.
const NONE: u64 = 0;

/// The word of a line whose payload is in `given`. No version equals it:
/// versions count trace stores from 1.
const GIVEN: u64 = u64::MAX;

/// Last-stored plaintext per line, keyed by line address. Consulted on
/// every simulated fill and write-back.
#[derive(Default)]
pub(crate) struct Truth {
    /// Each stored line's word (module docs).
    words: SparseStore<u64>,
    /// The payloads of lines whose word is [`GIVEN`].
    given: SparseStore,
}

impl Truth {
    /// The last-stored plaintext of `addr`, if any.
    pub(crate) fn get(&self, addr: u64) -> Option<[u8; 64]> {
        match self.words.read(addr) {
            NONE => None,
            GIVEN => Some(self.given.read(addr)),
            version => Some(synth_data(addr, version)),
        }
    }

    /// Records a trace store of `synth_data(addr, version)`.
    pub(crate) fn set_version(&mut self, addr: u64, version: u64) {
        debug_assert!(
            version != NONE && version != GIVEN,
            "version {version:#x} is a marker word"
        );
        self.words.write(addr, &version);
    }

    /// Records a store of `data`, overwriting a given payload in place.
    pub(crate) fn set(&mut self, addr: u64, data: &[u8; 64]) {
        self.words.write(addr, &GIVEN);
        self.given.write(addr, data);
    }

    /// Forgets `addr`: its content is lost. A line never stored allocates
    /// nothing.
    pub(crate) fn remove(&mut self, addr: u64) {
        if self.words.contains(addr) {
            self.words.write(addr, &NONE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steins_crypto::FxHashMap;
    use steins_trace::rng::SmallRng;

    /// A trace store keeps one word and no payload.
    #[test]
    fn a_trace_store_costs_one_word() {
        let mut truth = Truth::default();
        for line in 0..3_000u64 {
            truth.set_version(line * 64, line + 1);
        }
        assert_eq!(truth.words.population(), 3_000);
        assert_eq!(truth.given.population(), 0);
        assert_eq!(truth.get(64), Some(synth_data(64, 2)));
    }

    /// Drives a `Truth` and a plain payload map through the same seeded
    /// mix of trace stores, direct writes, crash removals and overwrites
    /// between the two representations. The lines span the index's page
    /// forms: 640 dense lines (their page turns direct at its 513th), 128
    /// at stride 8 (a packed page) and a lone line in a far page. Removals
    /// also hit lines never stored, in those pages and past them all. After
    /// each op the op's line and a random line are checked (their payload,
    /// or that they have none), and every line every 1,000 ops.
    #[test]
    fn matches_a_plain_payload_map() {
        let lines: Vec<u64> = (0..640)
            .chain((0..128).map(|i| 1024 + 8 * i))
            .chain([40 * 1024 + 77])
            .map(|line| line * 64)
            .collect();
        let never = [640, 1024 + 4, 40 * 1024 + 78, 99 * 1024].map(|line| line * 64);
        let pick =
            |rng: &mut SmallRng, set: &[u64]| set[rng.gen_range(0, set.len() as u64) as usize];
        let mut rng = SmallRng::seed_from_u64(0x7EA7);
        let mut truth = Truth::default();
        let mut plain: FxHashMap<u64, [u8; 64]> = FxHashMap::default();
        let mut version = 0u64;
        // Given → Synth, Synth → Given, and Synth → Given over a stale payload.
        let (mut synth, mut given, mut round_trips) = (0u32, 0u32, 0u32);
        for op in 0..20_000u32 {
            let mut addr = pick(&mut rng, &lines);
            match rng.gen_range(0, 8) {
                // A trace store: a new version, over anything.
                0..=2 => {
                    version += 1;
                    synth += u32::from(truth.words.read(addr) == GIVEN);
                    truth.set_version(addr, version);
                    plain.insert(addr, synth_data(addr, version));
                }
                // A direct write, over anything.
                3..=5 => {
                    let mut data = [0u8; 64];
                    data[..4].copy_from_slice(&op.to_le_bytes());
                    data[63] = addr as u8;
                    if !matches!(truth.words.read(addr), NONE | GIVEN) {
                        given += 1;
                        round_trips += u32::from(truth.given.contains(addr));
                    }
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
                // A line lost in the CPU caches or to the scrub, or one
                // never stored.
                _ => {
                    if rng.gen_range(0, 4) == 0 {
                        addr = pick(&mut rng, &never);
                    }
                    truth.remove(addr);
                    plain.remove(&addr);
                }
            }
            let checked = if op % 1_000 == 999 {
                lines.clone()
            } else {
                vec![addr, pick(&mut rng, &lines)]
            };
            for a in checked {
                assert_eq!(truth.get(a), plain.get(&a).copied(), "op {op}, line {a:#x}");
            }
        }
        let stored = lines.iter().filter(|&&a| truth.get(a).is_some()).count();
        assert_eq!(stored, plain.len());
        for a in never {
            assert_eq!(truth.get(a), None, "never stored: {a:#x}");
        }
        assert_eq!(
            truth.words.population(),
            lines.len(),
            "every line was stored, and removing one never stored took no slot"
        );
        assert!(
            synth > 100 && given > 100 && round_trips > 100,
            "{synth} Given→Synth, {given} Synth→Given, {round_trips} of them over a stale payload"
        );
    }
}
