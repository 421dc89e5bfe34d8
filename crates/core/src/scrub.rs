//! Lenient recovery: the integrity **scrub** (fault-model hardening).
//!
//! Strict [`CrashedSystem::recover`] is fail-stop: any MAC/LInc/root
//! mismatch aborts recovery with the precise [`crate::IntegrityError`] — the right
//! behaviour against an *attacker*, but unhelpful against *media faults*
//! and torn writes, where the operator wants every salvageable byte back
//! plus an honest damage report. [`CrashedSystem::recover_lenient`] is the
//! other mode: it never panics on an arbitrarily corrupted NVM image,
//! classifies every region, and rebuilds a fully consistent machine from
//! the data plane outward.
//!
//! The scrub is a **full re-initialization rebuild**:
//!
//! 1. *Data plane.* Every data line is judged against its MAC record
//!    (the per-block HMAC + recovery counter riding the ECC spare bits) by
//!    the one verdict strict recovery and the patrol use too,
//!    [`crate::cme::MacRecord::judge`]: authentic lines count intact,
//!    forged ones unrecoverable (no redundant source — torn data write,
//!    media fault, or tampering), never-written ones untouched.
//! 2. *Tree.* Leaf counters are rebuilt from the MAC records by strict
//!    recovery's own leaf rebuild, over an all-zero node; every parent
//!    counter is regenerated bottom-up from its children; every node is
//!    re-MACed against its regenerated parent counter and written home.
//!    Nodes whose rebuilt line equals the stale home copy count intact, the
//!    rest recovered.
//! 3. *Anchors.* The on-chip root registers are reset to the regenerated
//!    top-level values; scheme NV state (LIncs, cache-tree roots, shadow
//!    tags) restarts fresh; the record/shadow/bitmap regions are reset to
//!    their empty encodings (all nodes come back *clean*).
//!
//! Because the tree is regenerated rather than incrementally patched, no
//! decoded byte ever reaches an invariant-checking code path — the scrub is
//! total on arbitrary images. The price is a weaker trust statement than
//! strict recovery: the scrub re-anchors trust in the MAC records, so a
//! *wholesale* replay of data + records to an older consistent state is not
//! detected here (strict mode's LInc/cache-tree checks exist for exactly
//! that). Lenient mode is for fault recovery, not adversarial recovery;
//! callers pick per §III-H threat model.

use std::convert::Infallible;

use crate::cme::LineVerdict;
use crate::crash::CrashedSystem;
use crate::engine::{is_zero_node, seal_node, SecureNvmSystem};
use crate::error::IntegrityError;
use crate::recovery::journal;
use steins_metadata::counter::CounterBlock;
use steins_metadata::records::RecordLine;
use steins_metadata::{NodeId, SitNode};
use steins_obs::MetricRegistry;

/// What the integrity scrub found and did.
#[derive(Clone, Debug, PartialEq)]
pub struct ScrubReport {
    /// Scheme/mode label.
    pub scheme: String,
    /// Data lines whose MAC verified against the stored record.
    pub data_intact: u64,
    /// Data lines never written (default record, zero content).
    pub data_untouched: u64,
    /// Data lines whose MAC failed: content unrecoverable.
    pub data_unrecoverable: u64,
    /// Line addresses of the unrecoverable data (reads of these return
    /// [`crate::IntegrityError`] deterministically after the scrub).
    pub unrecoverable_addrs: Vec<u64>,
    /// Metadata nodes whose rebuilt line matched the stale home copy.
    pub meta_intact: u64,
    /// Metadata nodes reconstructed and rewritten.
    pub meta_recovered: u64,
    /// On-chip root-register slots whose value changed.
    pub anchors_updated: u64,
    /// NVM line reads the scrub performed.
    pub nvm_reads: u64,
    /// How many earlier recovery/scrub attempts the ADR journal recorded as
    /// interrupted before this one completed (0 on a first, uninterrupted
    /// run).
    pub restarts: u64,
    /// Which shard's image was scrubbed (0 for unsharded systems); the
    /// sharded engine scrubs each shard's own journal line independently.
    pub shard: u16,
    /// The ADR recovery journal failed its MAC check at entry: its resume
    /// marks were discarded and the scrub rebuilt from scratch (the
    /// fail-closed half of the journal-authentication contract; strict
    /// recovery instead refuses with
    /// [`crate::IntegrityError::JournalForged`]).
    pub journal_rejected: bool,
}

impl ScrubReport {
    /// True when no data was lost (metadata rewrites are routine).
    pub fn clean(&self) -> bool {
        self.data_unrecoverable == 0
    }

    /// An all-zero report carrying only identity (label/restarts/shard).
    pub fn empty(scheme: String, restarts: u64, shard: u16) -> ScrubReport {
        ScrubReport {
            scheme,
            data_intact: 0,
            data_untouched: 0,
            data_unrecoverable: 0,
            unrecoverable_addrs: Vec::new(),
            meta_intact: 0,
            meta_recovered: 0,
            anchors_updated: 0,
            nvm_reads: 0,
            restarts,
            shard,
            journal_rejected: false,
        }
    }

    /// Exports the verdict counters under `core.scrub.`.
    pub fn metrics(&self) -> MetricRegistry {
        let mut m = MetricRegistry::new();
        m.counter_add("core.scrub.data.intact", self.data_intact);
        m.counter_add("core.scrub.data.untouched", self.data_untouched);
        m.counter_add("core.scrub.data.unrecoverable", self.data_unrecoverable);
        m.counter_add("core.scrub.meta.intact", self.meta_intact);
        m.counter_add("core.scrub.meta.recovered", self.meta_recovered);
        m.counter_add("core.scrub.anchors.updated", self.anchors_updated);
        m.counter_add("core.scrub.reads", self.nvm_reads);
        m.counter_add("core.scrub.restarts", self.restarts);
        m.counter_add("core.scrub.journal_rejected", self.journal_rejected as u64);
        m.gauge_set("core.scrub.shard", self.shard as f64);
        m
    }
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} scrub: data {} intact / {} untouched / {} unrecoverable; \
             meta {} intact / {} recovered; {} anchors updated; {} reads",
            self.scheme,
            self.data_intact,
            self.data_untouched,
            self.data_unrecoverable,
            self.meta_intact,
            self.meta_recovered,
            self.anchors_updated,
            self.nvm_reads
        )
    }
}

impl CrashedSystem {
    /// Lenient recovery: scrubs the image, classifies every region, and
    /// rebuilds a consistent live system (`None` for WB, which has no
    /// metadata redundancy to rebuild from — the report still classifies
    /// the data plane). Never panics, for any NVM image. The device must be
    /// disarmed: a scrub that may be cut needs
    /// [`Self::recover_lenient_into`], which keeps the half-scrubbed system.
    pub fn recover_lenient(self) -> (Option<SecureNvmSystem>, ScrubReport) {
        let mut out = None;
        let report = self
            .recover_lenient_into(&mut out)
            .expect("power cut inside recover_lenient: use recover_lenient_into");
        (out, report)
    }

    /// Restartable form of [`Self::recover_lenient`]: the rebuilt system is
    /// parked in `out` *before* the scrub issues its first durable write
    /// (all classification and planning are peek-only). If a second crash
    /// trips mid-rewrite ([`crate::IntegrityError::PowerCut`], the only
    /// error), the caller still owns the half-scrubbed system and can crash
    /// it and scrub again — the verdicts re-derive
    /// identically because the scrub never rewrites the data plane or the
    /// MAC records it classifies from. The ADR recovery journal holds
    /// `SCRUB` for the whole rewrite (strict recovery refuses such an
    /// image: [`crate::IntegrityError::ScrubInterrupted`]) and `DONE` once
    /// complete.
    pub fn recover_lenient_into(
        mut self,
        out: &mut Option<SecureNvmSystem>,
    ) -> Result<ScrubReport, IntegrityError> {
        let geo = self.layout.geometry.clone();
        // Fail closed on a journal that does not authenticate: discard it
        // and rebuild from scratch (the scrub re-derives every verdict
        // from the data plane anyway, so a discarded journal costs only the
        // resume shortcut — never correctness).
        let journal_rejected = !crate::recovery::journal_authentic(self.crypto.as_ref(), &self.nvm);
        let prior = if journal_rejected {
            steins_nvm::RecoveryJournal::default()
        } else {
            self.nvm.recovery_journal()
        };
        let restarts = if journal::in_progress(prior.phase) {
            u64::from(prior.restarts.saturating_add(1))
        } else {
            0
        };
        let mut reads = 0u64;
        let mut report = ScrubReport::empty(
            self.cfg.scheme.label(self.cfg.mode),
            restarts,
            self.nvm.shard(),
        );
        report.journal_rejected = journal_rejected;

        // —— 1. Data plane: verify every MAC record, rebuild the leaves. ——
        let total = geo.total_nodes() as usize;
        let mut nodes: Vec<SitNode> = vec![SitNode::general_from_line(&[0u8; 64]); total];
        for index in 0..geo.nodes_at(0) {
            let id = NodeId { level: 0, index };
            nodes[geo.offset_of(id) as usize] = self.scrub_leaf(&mut reads, id, &mut report);
        }
        // Lost content stays lost: drop it from the functional ground truth
        // so post-scrub reads of these lines fail deterministically (the
        // stored record still disagrees with the stored bytes).
        for &addr in &report.unrecoverable_addrs {
            self.truth.remove(addr);
        }

        if !self.recoverable() {
            report.nvm_reads = reads;
            return Ok(report);
        }

        // —— 2. Parents bottom-up: regenerate every counter from children. ——
        for k in 1..geo.levels() {
            for index in 0..geo.nodes_at(k) {
                let id = NodeId { level: k, index };
                let mut g = *SitNode::general_from_line(&[0u8; 64]).counters.as_general();
                for (j, cid) in geo.children_of(id).into_iter().enumerate() {
                    let coff = geo.offset_of(cid) as usize;
                    g.set(j, nodes[coff].counters.parent_value());
                }
                nodes[geo.offset_of(id) as usize] = SitNode {
                    counters: CounterBlock::General(g),
                    hmac: 0,
                };
            }
        }

        // —— 3. Anchors: root registers ← regenerated top-level values. ——
        let top = geo.top_level();
        for index in 0..geo.nodes_at(top) {
            let id = NodeId { level: top, index };
            let val = nodes[geo.offset_of(id) as usize].counters.parent_value();
            let slot = geo.root_slot(id);
            if self.root.get(slot) != val {
                report.anchors_updated += 1;
                self.root.set(slot, val);
            }
        }

        // —— 4. Plan: re-MAC every node against its regenerated parent
        //       counter and classify against the stale home copy (peek-only;
        //       the rewrites are collected and issued after parking). ——
        let mut rewrites: Vec<(u64, [u8; 64])> = Vec::new();
        for off in 0..total as u64 {
            let id = geo.node_at_offset(off);
            let pc = match geo.parent_of(id) {
                None => self.root.get(geo.root_slot(id)),
                Some((pid, slot)) => nodes[geo.offset_of(pid) as usize]
                    .counters
                    .as_general()
                    .get(slot),
            };
            let mut node = nodes[off as usize];
            let addr = self.layout.node_addr(off);
            let line = if pc == 0 && is_zero_node(&node) {
                // Lazily-initialized state: zero node under a zero counter.
                [0u8; 64]
            } else {
                let (crypto, scheme) = (self.crypto.as_ref(), self.cfg.scheme);
                node.hmac = seal_node(crypto, &self.layout, scheme, &node, off, pc);
                node.to_line()
            };
            reads += 1;
            if self.nvm.peek(addr) == line {
                report.meta_intact += 1;
            } else {
                report.meta_recovered += 1;
                rewrites.push((addr, line));
            }
        }

        // —— 5. The image revived, parked *before* the first durable
        //       write. Its scheme registers start fresh (zero LIncs, empty
        //       shadow tags, fresh cache-tree roots) — exactly the state a
        //       clean, all-nodes-clean machine holds.
        report.nvm_reads = reads;
        let sys = out.insert(self.revive());
        let restarts32 = restarts.min(u64::from(u32::MAX)) as u32;
        sys.ctrl.journal_write(journal::SCRUB, 0, restarts32)?;

        // —— 6. Rewrite: planned node homes, then the derived regions reset
        //       to empty (all nodes come back clean, so records/shadow/
        //       bitmap must say so). Every write is idempotent — a crash
        //       anywhere in here re-runs the scrub, which re-plans the same
        //       rewrites from the untouched data plane, so the journal holds
        //       `SCRUB` throughout and records the rewrite count only with
        //       `DONE`.
        let rewritten = rewrites.len() as u64;
        for (addr, line) in rewrites {
            sys.ctrl.nvm.poke(addr, &line)?;
        }
        let slots = sys.config().meta_cache.slots();
        let empty_record = RecordLine::default().to_line();
        for r in 0..sys.ctrl.layout.record_lines() {
            sys.ctrl
                .nvm
                .poke(sys.ctrl.layout.record_addr(r), &empty_record)?;
        }
        for s in 0..slots {
            sys.ctrl
                .nvm
                .poke(sys.ctrl.layout.shadow_addr(s), &[0u8; 64])?;
        }
        for l in 0..sys.ctrl.layout.bitmap_lines() {
            sys.ctrl
                .nvm
                .poke(sys.ctrl.layout.bitmap_base + l * 64, &[0u8; 64])?;
        }
        sys.ctrl
            .journal_write(journal::DONE, rewritten, restarts32)?;
        sys.ctrl.nvm.disarm_crash();
        sys.ctrl.nvm.reset_stats();
        Ok(report)
    }

    /// Rebuilds one leaf over an all-zero node from the data plane,
    /// recording verdicts: two reads a line (the record, then the data), and
    /// a forged line is unrecoverable. Total on arbitrary record/data bytes.
    fn scrub_leaf(&self, reads: &mut u64, id: NodeId, report: &mut ScrubReport) -> SitNode {
        let counted = self.leaf_from_data(reads, 2, id, SitNode::zero_general(), |addr, v| {
            match v {
                LineVerdict::Unwritten => report.data_untouched += 1,
                LineVerdict::Authentic { .. } => report.data_intact += 1,
                LineVerdict::Forged { .. } => {
                    report.data_unrecoverable += 1;
                    report.unrecoverable_addrs.push(addr);
                }
            }
            Ok::<(), Infallible>(())
        });
        counted.unwrap_or_else(|never| match never {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SchemeKind, SystemConfig};
    use steins_metadata::CounterMode;

    fn scrubbed(scheme: SchemeKind, mode: CounterMode) -> (Option<SecureNvmSystem>, ScrubReport) {
        let cfg = SystemConfig::small_for_tests(scheme, mode);
        let mut sys = SecureNvmSystem::new(cfg);
        for i in 0..24u64 {
            sys.write(i * 64, &[i as u8 + 1; 64]).unwrap();
        }
        sys.crash().recover_lenient()
    }

    #[test]
    fn clean_crash_scrubs_all_intact_data() {
        for scheme in [SchemeKind::Steins, SchemeKind::Asit, SchemeKind::Star] {
            let (sys, report) = scrubbed(scheme, CounterMode::General);
            assert!(report.clean(), "{report}");
            assert_eq!(report.data_intact, 24, "{report}");
            let mut sys = sys.expect("schemes with NV anchors rebuild");
            for i in 0..24u64 {
                assert_eq!(sys.read(i * 64).unwrap(), [i as u8 + 1; 64]);
            }
        }
    }

    #[test]
    fn wb_scrub_classifies_but_returns_no_system() {
        let (sys, report) = scrubbed(SchemeKind::WriteBack, CounterMode::General);
        assert!(sys.is_none());
        assert_eq!(report.data_intact, 24);
        assert!(report.clean());
    }

    #[test]
    fn tampered_data_line_is_unrecoverable_and_reads_fail() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let mut sys = SecureNvmSystem::new(cfg);
        for i in 0..8u64 {
            sys.write(i * 64, &[0xA0 | i as u8; 64]).unwrap();
        }
        let mut crashed = sys.crash();
        crashed.tamper_data_at(3, 17, 0x80);
        let (sys, report) = crashed.recover_lenient();
        assert_eq!(report.data_unrecoverable, 1, "{report}");
        assert_eq!(report.unrecoverable_addrs, vec![3 * 64]);
        let mut sys = sys.unwrap();
        sys.read(3 * 64).unwrap_err();
        for i in [0u64, 1, 2, 4, 5, 6, 7] {
            assert_eq!(sys.read(i * 64).unwrap(), [0xA0 | i as u8; 64]);
        }
    }

    #[test]
    fn scrub_never_panics_on_garbage_metadata() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::Split);
        let mut sys = SecureNvmSystem::new(cfg);
        for i in 0..8u64 {
            sys.write(i * 64, &[5; 64]).unwrap();
        }
        let mut crashed = sys.crash();
        // Trash every metadata node line with a recognizable pattern.
        let total = crashed.layout.geometry.total_nodes();
        for off in 0..total {
            crashed.tamper_node_at(off, (off % 64) as usize, 0xFF);
        }
        let (sys, report) = crashed.recover_lenient();
        // Metadata is redundant: the data plane rebuilds it all.
        assert!(report.clean(), "{report}");
        assert!(report.meta_recovered > 0);
        let mut sys = sys.unwrap();
        for i in 0..8u64 {
            assert_eq!(sys.read(i * 64).unwrap(), [5; 64]);
        }
    }

    /// One serial leaf pass classifies the whole data plane; the terminal
    /// journal records the rewrite count.
    #[test]
    fn scrub_verdicts_and_terminal_journal() {
        let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, CounterMode::General);
        let mut sys = SecureNvmSystem::new(cfg);
        for i in 0..24u64 {
            sys.write(i * 64, &[i as u8 + 1; 64]).unwrap();
        }
        let mut crashed = sys.crash();
        crashed.tamper_data_at(5, 9, 0x40);
        let (sys, report) = crashed.recover_lenient();
        assert_eq!(report.data_intact, 23, "{report}");
        assert_eq!(report.data_unrecoverable, 1);
        assert_eq!(report.unrecoverable_addrs, vec![5 * 64]);
        let mut sys = sys.unwrap();
        assert_eq!(
            sys.ctrl.nvm.recovery_journal(),
            steins_nvm::RecoveryJournal::new(
                crate::recovery::journal::DONE,
                report.meta_recovered,
                0
            ),
            "DONE journal with hwm = rewrites"
        );
        for i in [0u64, 1, 2, 3, 4, 6, 7] {
            assert_eq!(sys.read(i * 64).unwrap(), [i as u8 + 1; 64]);
        }
    }

    /// The read bill: one MAC-record read and one data read per data line,
    /// then one home-copy read per node.
    #[test]
    fn scrub_reads_each_data_line_twice_and_each_node_once() {
        for (scheme, mode) in [
            (SchemeKind::Steins, CounterMode::General),
            (SchemeKind::Steins, CounterMode::Split),
            (SchemeKind::Asit, CounterMode::General),
            (SchemeKind::Star, CounterMode::General),
        ] {
            let (sys, report) = scrubbed(scheme, mode);
            let layout = sys.expect("schemes with NV anchors rebuild").ctrl.layout;
            let bill = 2 * layout.data_lines + layout.geometry.total_nodes();
            assert_eq!(report.nvm_reads, bill, "{report}");
        }
    }

    #[test]
    fn scrub_report_metrics_export() {
        let (_, report) = scrubbed(SchemeKind::Star, CounterMode::General);
        let m = report.metrics();
        let json = m.to_json_deterministic().pretty();
        assert!(json.contains("core.scrub.data.intact"), "{json}");
        assert!(json.contains("core.scrub.reads"), "{json}");
    }
}
