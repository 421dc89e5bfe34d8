//! Reusable integrity diagnostics: when a MAC check fails, search nearby
//! counter values for the one the stored MAC actually corresponds to.
//!
//! A failed data/node MAC tells you *that* state diverged, not *how*. In
//! practice almost every real divergence is a counter off by a bounded
//! amount (a lost increment, a stale parent, a replayed line), so probing a
//! window of candidate counters around the expected value pinpoints the
//! first divergent quantity. The crash-sweep harness attaches this
//! diagnosis to every repro it prints.

use crate::engine::SecureMemoryController;
use std::fmt;
use steins_metadata::SitNode;

/// Outcome of probing a stored data-block MAC against candidate counter
/// pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataMacDiagnosis {
    /// The stored MAC verifies under `(major, minor)` — the counters the
    /// block was really encrypted with.
    Matches {
        /// Matching major (encryption) counter.
        major: u64,
        /// Matching minor counter (0 in general-counter mode).
        minor: u64,
    },
    /// No candidate in the searched window verifies: the data or the MAC
    /// itself was corrupted/tampered, not merely a counter mismatch.
    NoCandidate {
        /// Majors searched: `[major_lo, major_hi]`.
        major_lo: u64,
        /// Upper bound of the searched major window (inclusive).
        major_hi: u64,
    },
}

impl fmt::Display for DataMacDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataMacDiagnosis::Matches { major, minor } => {
                write!(f, "stored mac matches pair ({major},{minor})")
            }
            DataMacDiagnosis::NoCandidate { major_lo, major_hi } => write!(
                f,
                "stored mac matches no pair with major in [{major_lo},{major_hi}] — data or record corrupted"
            ),
        }
    }
}

/// Searches which `(major, minor)` pair the stored MAC of the data block at
/// `addr` corresponds to: majors within `±major_radius` of `major_hint`,
/// minors in `0..minor_span` (use 1 for general counters, 64 for split).
/// `stored_mac` is the MAC record's value; `data` the persisted ciphertext.
pub fn probe_data_mac(
    ctrl: &SecureMemoryController,
    addr: u64,
    data: &[u8; 64],
    stored_mac: u64,
    major_hint: u64,
    major_radius: u64,
    minor_span: u64,
) -> DataMacDiagnosis {
    let lo = major_hint.saturating_sub(major_radius);
    let hi = major_hint + major_radius;
    for major in lo..=hi {
        for minor in 0..minor_span.max(1) {
            if ctrl.data_mac_probe(addr, data, major, minor) == stored_mac {
                return DataMacDiagnosis::Matches { major, minor };
            }
        }
    }
    DataMacDiagnosis::NoCandidate {
        major_lo: lo,
        major_hi: hi,
    }
}

/// Outcome of probing a stored node HMAC against candidate parent counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeMacDiagnosis {
    /// The stored HMAC verifies under parent counter `pc`; `expected` is the
    /// counter the caller believed current — the divergence is their gap.
    Matches {
        /// Parent counter the stored HMAC was computed with.
        pc: u64,
        /// Parent counter the caller expected.
        expected: u64,
    },
    /// No counter within the window verifies.
    NoCandidate {
        /// Counters searched: `[pc_lo, pc_hi]`.
        pc_lo: u64,
        /// Upper bound of the searched window (inclusive).
        pc_hi: u64,
    },
}

impl fmt::Display for NodeMacDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeMacDiagnosis::Matches { pc, expected } => write!(
                f,
                "stored hmac matches parent counter = {pc} (expected = {expected})"
            ),
            NodeMacDiagnosis::NoCandidate { pc_lo, pc_hi } => write!(
                f,
                "stored hmac matches no parent counter in [{pc_lo},{pc_hi}] — node tampered/diverged"
            ),
        }
    }
}

/// Searches which parent counter the stored HMAC of `node` (at metadata
/// offset `offset`) was computed with, probing `±radius` around
/// `pc_expected`. Under STAR the comparison masks to the packed MAC bits,
/// exactly as verification does.
pub fn probe_node_mac(
    ctrl: &SecureMemoryController,
    node: &SitNode,
    offset: u64,
    pc_expected: u64,
    radius: u64,
) -> NodeMacDiagnosis {
    let lo = pc_expected.saturating_sub(radius);
    let hi = pc_expected + radius;
    for pc in lo..=hi {
        if ctrl.mac_probe(node, offset, pc) == node.hmac {
            return NodeMacDiagnosis::Matches {
                pc,
                expected: pc_expected,
            };
        }
    }
    NodeMacDiagnosis::NoCandidate {
        pc_lo: lo,
        pc_hi: hi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SchemeKind, SystemConfig};
    use crate::engine::SecureNvmSystem;
    use steins_metadata::CounterMode;

    fn steins_sys(mode: CounterMode) -> SecureNvmSystem {
        SecureNvmSystem::new(SystemConfig::small_for_tests(SchemeKind::Steins, mode))
    }

    #[test]
    fn data_probe_finds_true_pair_from_offset_hint() {
        for mode in [CounterMode::General, CounterMode::Split] {
            let mut sys = steins_sys(mode);
            // A few writes so the counters move off zero.
            for v in 0..5u8 {
                sys.write(0, &[v; 64]).unwrap();
            }
            let rec = sys.ctrl.data_mac_record(0);
            let data = sys.ctrl.nvm().peek(sys.ctrl.layout().data_base);
            let span = mode.leaf_coverage(); // 8 (GC) is harmlessly wide; 64 covers SC minors
            let got = probe_data_mac(
                &sys.ctrl,
                sys.ctrl.layout().data_base,
                &data,
                rec.mac,
                3, // wrong hint: true major is 5 (GC) / 0 with minor 5 (SC)
                8,
                span,
            );
            let (mj, mn) = crate::cme::MacRecord::unpack_recovery(rec.recovery);
            assert_eq!(
                got,
                DataMacDiagnosis::Matches {
                    major: mj,
                    minor: mn
                },
                "{mode:?}"
            );
        }
    }

    #[test]
    fn data_probe_reports_no_candidate_on_tamper() {
        let mut sys = steins_sys(CounterMode::General);
        sys.write(0, &[1; 64]).unwrap();
        let rec = sys.ctrl.data_mac_record(0);
        let mut data = sys.ctrl.nvm().peek(sys.ctrl.layout().data_base);
        data[0] ^= 0xFF; // corrupt the ciphertext
        let got = probe_data_mac(
            &sys.ctrl,
            sys.ctrl.layout().data_base,
            &data,
            rec.mac,
            1,
            4,
            1,
        );
        assert!(matches!(got, DataMacDiagnosis::NoCandidate { .. }));
        assert!(got.to_string().contains("no pair"));
    }

    #[test]
    fn node_probe_recovers_flush_time_parent_counter() {
        let mut sys = steins_sys(CounterMode::General);
        // Traffic wide enough to overflow the metadata cache, so leaves get
        // evicted and flushed to NVM with nonzero counters.
        for i in 0..1500u64 {
            sys.write((i * 37 % 4096) * 64, &[i as u8; 64]).unwrap();
        }
        let geo = sys.ctrl.layout().geometry.clone();
        // Find a flushed (nonzero) leaf in NVM and probe its stored HMAC.
        let mut checked = 0;
        for off in 0..geo.nodes_at(0) {
            let line = sys.ctrl.nvm().peek(sys.ctrl.layout().node_addr(off));
            if line == [0u8; 64] {
                continue;
            }
            let node = SitNode::general_from_line(&line);
            let truth = node.counters.parent_value();
            // Deliberately wrong expectation, a few counts off.
            let got = probe_node_mac(&sys.ctrl, &node, off, truth + 3, 16);
            assert_eq!(
                got,
                NodeMacDiagnosis::Matches {
                    pc: truth,
                    expected: truth + 3
                }
            );
            checked += 1;
            if checked >= 3 {
                break;
            }
        }
        assert!(checked > 0, "at least one flushed leaf must exist");
    }

    #[test]
    fn node_probe_reports_no_candidate_outside_window() {
        let mut sys = steins_sys(CounterMode::General);
        for i in 0..60u64 {
            sys.write(i * 64, &[i as u8; 64]).unwrap();
        }
        let off = 0;
        let line = sys.ctrl.nvm().peek(sys.ctrl.layout().node_addr(off));
        let mut node = SitNode::general_from_line(&line);
        node.hmac ^= 0xDEAD; // no counter can match a corrupted HMAC
        let got = probe_node_mac(&sys.ctrl, &node, off, 1, 50);
        assert!(matches!(got, NodeMacDiagnosis::NoCandidate { .. }));
    }
}
