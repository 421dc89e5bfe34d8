//! Integrity-violation errors.
//!
//! Every verification failure the secure controller or a recovery engine can
//! raise. Tests use these to assert that injected attacks are *detected at
//! the right layer* (tampering by HMAC, replay by LInc/root, §III-H).

use steins_metadata::NodeId;

/// A detected integrity violation.
#[derive(Clone, Debug, PartialEq)]
pub enum IntegrityError {
    /// A user data block failed its HMAC check.
    DataMac {
        /// Line address of the failing block.
        addr: u64,
    },
    /// A SIT node failed its HMAC check against its parent counter.
    NodeMac {
        /// Which node.
        node: NodeId,
    },
    /// During recovery, the recomputed per-level increment disagreed with
    /// the stored `LInc` — the signature of a replay (§III-D).
    LIncMismatch {
        /// Tree level whose sum failed.
        level: usize,
        /// Stored trusted value.
        stored: u64,
        /// Recomputed value (smaller ⇒ replay).
        recomputed: u64,
    },
    /// ASIT/STAR: the rebuilt cache-tree root disagreed with the on-chip
    /// register.
    CacheTreeMismatch {
        /// Stored trusted root.
        stored: u64,
        /// Recomputed root.
        recomputed: u64,
    },
    /// The scheme cannot recover at all (WB after a crash with dirty
    /// metadata).
    RecoveryUnsupported,
    /// A persisted structure decoded to a state no crash-free execution can
    /// produce — the signature of a torn (partially persisted) line.
    Torn {
        /// Line address of the torn structure.
        addr: u64,
    },
    /// A line failed with an uncorrectable media error: its bytes are not
    /// trustworthy at all (distinct from a MAC mismatch on readable bytes).
    Unreadable {
        /// Line address of the unreadable region.
        addr: u64,
    },
    /// The ADR recovery journal records an interrupted lenient scrub.
    /// A scrub rewrites the very regions strict recovery trusts (records,
    /// shadow table, bitmap), so once one has started, strict recovery is
    /// no longer sound — the caller must re-run the scrub instead.
    ScrubInterrupted,
    /// The request routed to a shard that has been parked `Degraded`
    /// (a power cut mid-operation, an explicit park, or an unrecoverable
    /// scrub verdict). The shard fails typed; the rest of the engine keeps
    /// serving.
    ShardDegraded {
        /// The degraded shard.
        shard: u16,
    },
    /// The line belongs to a region the online integrity service has
    /// quarantined (MAC mismatch, unreadable media, exhausted read
    /// retries). Reads and writes fail typed until an operator clears the
    /// quarantine; the ack is never silently wrong.
    Quarantined {
        /// Line address of the quarantined region.
        addr: u64,
    },
    /// The ADR recovery journal failed its MAC check: the resume point is
    /// attacker-controlled (or the line rotted) and must not steer
    /// recovery. Strict recovery fails closed; the lenient scrub discards
    /// the journal and rebuilds from scratch.
    JournalForged,
    /// A modeled power cut: the device's armed crash point tripped inside
    /// this call (see [`steins_nvm::PowerCut`]). Nothing after the tripping
    /// persist was issued; the machine must be `crash()`ed before anything
    /// else touches it.
    PowerCut,
}

impl From<steins_nvm::PowerCut> for IntegrityError {
    fn from(_: steins_nvm::PowerCut) -> Self {
        IntegrityError::PowerCut
    }
}

/// Separates a power cut from every other outcome of `r`: the cut comes
/// back as the outer `Err` for `?` to pass up, anything else — success or a
/// detected violation — as the inner result.
pub(crate) fn pass_cut<T>(
    r: Result<T, IntegrityError>,
) -> Result<Result<T, IntegrityError>, IntegrityError> {
    match r {
        Err(IntegrityError::PowerCut) => Err(IntegrityError::PowerCut),
        other => Ok(other),
    }
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::DataMac { addr } => {
                write!(
                    f,
                    "data HMAC mismatch at address {addr:#x} (tampering detected)"
                )
            }
            IntegrityError::NodeMac { node } => write!(
                f,
                "SIT node HMAC mismatch at level {} index {} (tampering detected)",
                node.level, node.index
            ),
            IntegrityError::LIncMismatch {
                level,
                stored,
                recomputed,
            } => write!(
                f,
                "L{level}Inc mismatch: stored {stored}, recomputed {recomputed} (replay detected)"
            ),
            IntegrityError::CacheTreeMismatch { stored, recomputed } => write!(
                f,
                "cache-tree root mismatch: stored {stored:#x}, recomputed {recomputed:#x}"
            ),
            IntegrityError::RecoveryUnsupported => {
                write!(f, "scheme does not support metadata recovery")
            }
            IntegrityError::Torn { addr } => {
                write!(
                    f,
                    "torn write detected at address {addr:#x} (partial persist)"
                )
            }
            IntegrityError::Unreadable { addr } => {
                write!(f, "uncorrectable media error at address {addr:#x}")
            }
            IntegrityError::ScrubInterrupted => {
                write!(
                    f,
                    "recovery journal records an interrupted scrub: re-run the scrub"
                )
            }
            IntegrityError::ShardDegraded { shard } => {
                write!(f, "shard {shard} is degraded and not serving requests")
            }
            IntegrityError::Quarantined { addr } => {
                write!(
                    f,
                    "address {addr:#x} is quarantined by the online integrity service"
                )
            }
            IntegrityError::JournalForged => {
                write!(
                    f,
                    "recovery journal failed its MAC check: resume state untrusted, rebuild from scratch"
                )
            }
            IntegrityError::PowerCut => write!(f, "power cut at an armed persist point"),
        }
    }
}

impl std::error::Error for IntegrityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = IntegrityError::LIncMismatch {
            level: 3,
            stored: 10,
            recomputed: 7,
        };
        let s = e.to_string();
        assert!(s.contains("L3Inc"));
        assert!(s.contains("replay"));
        let e = IntegrityError::NodeMac {
            node: NodeId { level: 1, index: 5 },
        };
        assert!(e.to_string().contains("level 1"));
        let e = IntegrityError::ShardDegraded { shard: 3 };
        assert!(e.to_string().contains("shard 3"));
        let e = IntegrityError::Quarantined { addr: 0xC0 };
        assert!(e.to_string().contains("0xc0"));
        assert!(e.to_string().contains("quarantine"));
        let e = IntegrityError::JournalForged;
        assert!(e.to_string().contains("MAC"));
        assert!(e.to_string().contains("rebuild"));
    }
}
