//! The recovery schemes, one module each.
//!
//! A scheme is what the controller does at a few hook points beyond the
//! shared SIT/CME machinery — and what it therefore pays at runtime (the
//! subject of Figs. 9–16) and can rebuild after a crash (Fig. 17). Each of
//! `asit.rs`, `star.rs` and `steins.rs` owns its state, its hooks (an
//! `impl SecureMemoryController` block), its crash remnant with its ADR
//! flush, and its strict recovery (an `impl CrashedSystem` block). This
//! module owns one `match` per hook point; WB runs only the shared code.
//!
//! | scheme     | fetch | vacate | modify | evict | data write | node-MAC field | crash remnant | strict recovery |
//! |------------|-------|--------|--------|-------|------------|----------------|---------------|-----------------|
//! | (dispatch) | `scheme_fetch`, `scheme_fetch_counter` | `slot_vacated` | `on_node_modified` | `scheme_flush`, `counters_moved`, `scheme_cleaned` | `counters_moved`, `skip_update` | `seal_node_mac`, `node_mac_opens` | `SchemeState::power_cut` | `recover_scheme` |
//! | WB         | — | — | — | `increment_flush` | — | full MAC | — | refuses |
//! | ASIT       | — | `asit_vacate` | `asit_mirror` | `increment_flush` | — | full MAC | `AsitState::power_cut` | `recover_asit` |
//! | STAR       | — | — | `star_mark_dirty` | `increment_flush` with `star_refresh`, `star_cleaned` | `star_refresh` | `pack_hmac`, `unpack_hmac` | `StarState::power_cut` | `recover_star` |
//! | Steins     | `steins_fetch`, `steins_fetch_counter` | — | `steins_record` | `steins_flush` | `steins_counters_moved`, Eq. 2 skip | full MAC | `SteinsState::power_cut` | `recover_steins` |
//!
//! There is no scheme trait. Steins' hooks call back into the controller
//! (`drain_nv_buffer` → `ensure_cached` → `install_node` → `flush_in_place`
//! → `drain_nv_buffer`), so a hook cannot hold its state and the controller
//! at once: a trait would need either a generic controller or downcasts.
//! Each hook instead takes the controller and reaches its own variant
//! through one private helper in its file.

mod asit;
mod star;
mod steins;

use crate::config::{SchemeKind, SystemConfig};
use crate::crash::CrashedSystem;
use crate::engine::{SecureMemoryController, SecureNvmSystem};
use crate::error::IntegrityError;
use crate::recovery::RecoveryReport;
use steins_crypto::CryptoEngine;
use steins_metadata::{MemoryLayout, NodeId, SitNode};
use steins_nvm::{Cycle, NvmDevice, PowerCut, RecoveryJournal};

/// Scheme-specific mutable state held by the controller.
pub(crate) enum SchemeState {
    /// Write-back baseline: nothing extra.
    WriteBack,
    /// Anubis/ASIT.
    Asit(asit::AsitState),
    /// STAR.
    Star(star::StarState),
    /// Steins.
    Steins(steins::SteinsState),
}

/// What of a scheme's state survives a power cut.
pub(crate) enum NvState {
    /// WB keeps nothing (and can recover nothing).
    WriteBack,
    /// ASIT's cache-tree root, shadow tags and in-flight pre-image.
    Asit(asit::AsitNv),
    /// STAR's cache-tree root register.
    Star(u64),
    /// Steins' LIncs and NV buffer.
    Steins(steins::SteinsNv),
}

/// Fresh state for `cfg`'s scheme.
pub(crate) fn new_state(
    cfg: &SystemConfig,
    layout: &MemoryLayout,
    crypto: &dyn CryptoEngine,
) -> SchemeState {
    let slots = cfg.meta_cache.slots() as usize;
    match cfg.scheme {
        SchemeKind::WriteBack => SchemeState::WriteBack,
        SchemeKind::Asit => SchemeState::Asit(asit::AsitState::new(crypto, slots)),
        SchemeKind::Star => SchemeState::Star(star::StarState::new(
            crypto,
            cfg.meta_cache.sets() as usize,
            cfg.bitmap_cache_lines,
        )),
        SchemeKind::Steins => SchemeState::Steins(steins::SteinsState::new(
            layout.geometry.levels(),
            cfg.nv_buffer_bytes,
            cfg.record_cache_lines,
        )),
    }
}

impl SchemeState {
    /// Data write: whether a split-counter overflow applies Steins' Eq. 2
    /// alignment instead of the traditional `major += 1`.
    pub(crate) fn skip_update(&self) -> bool {
        matches!(self, SchemeState::Steins(_))
    }

    /// Crash remnant: residual power flushes the ADR-domain lines into
    /// `nvm`; the NV registers cross into the crashed image.
    pub(crate) fn power_cut(self, nvm: &mut NvmDevice) -> NvState {
        match self {
            SchemeState::WriteBack => NvState::WriteBack,
            SchemeState::Asit(st) => NvState::Asit(st.power_cut()),
            SchemeState::Star(st) => NvState::Star(st.power_cut(nvm)),
            SchemeState::Steins(st) => NvState::Steins(st.power_cut(nvm)),
        }
    }
}

/// Node-MAC field: the 64 bits a node stores for `mac` under parent
/// counter `pc` (STAR packs the counter's low bits beside a 48-bit MAC).
pub(crate) fn seal_node_mac(scheme: SchemeKind, mac: u64, pc: u64) -> u64 {
    match scheme {
        SchemeKind::Star => star::pack_hmac(mac, pc),
        _ => mac,
    }
}

/// Node-MAC field: whether a stored field carries `mac`.
pub(crate) fn node_mac_opens(scheme: SchemeKind, field: u64, mac: u64) -> bool {
    match scheme {
        SchemeKind::Star => star::unpack_hmac(field).0 == star::unpack_hmac(mac).0,
        _ => field == mac,
    }
}

impl SecureMemoryController {
    /// Fetch, before the parent walk. `Some` when the scheme installed the
    /// node itself (a Steins rebuild's pending node).
    pub(crate) fn scheme_fetch(
        &mut self,
        t: Cycle,
        id: NodeId,
        offset: u64,
    ) -> Result<Option<Cycle>, IntegrityError> {
        match self.scheme {
            SchemeState::Steins(_) => self.steins_fetch(t, id, offset),
            _ => Ok(None),
        }
    }

    /// Fetch, after the parent walk: the parent counter the node's stored
    /// MAC was computed with.
    pub(crate) fn scheme_fetch_counter(&mut self, offset: u64, pc: u64) -> u64 {
        match self.scheme {
            SchemeState::Steins(_) => self.steins_fetch_counter(offset, pc),
            _ => pc,
        }
    }

    /// Vacate: a cache slot's previous (clean) occupant left. Clean fetches
    /// cost nothing under any scheme (ASIT mirrors modifications, not
    /// installs; STAR's cache-tree covers dirty nodes only).
    pub(crate) fn slot_vacated(&mut self, t: Cycle, slot: u64) -> Cycle {
        match self.scheme {
            SchemeState::Asit(_) => self.asit_vacate(t, slot),
            _ => t,
        }
    }

    /// Modify: marks a cached node dirty after a content change and runs
    /// the scheme's tracking. `pre` is the node's content just before the
    /// mutation (STAR's register covers it at a clean→dirty transition).
    pub(crate) fn on_node_modified(
        &mut self,
        t: Cycle,
        offset: u64,
        pre: &SitNode,
    ) -> Result<Cycle, PowerCut> {
        let (slot, was_clean) = self.meta.mark_dirty(offset);
        match self.scheme {
            SchemeState::Asit(_) => self.asit_mirror(t, offset),
            SchemeState::Star(_) if was_clean => self.star_mark_dirty(t, offset, pre),
            SchemeState::Steins(_) if was_clean => self.steins_record(t, slot, offset),
            _ => Ok(t),
        }
    }

    /// Evict: Steins generates the parent counter; the others share the
    /// self-increment flush.
    pub(crate) fn scheme_flush(&mut self, t: Cycle, offset: u64) -> Result<Cycle, IntegrityError> {
        match self.scheme {
            SchemeState::Steins(_) => self.steins_flush(t, offset),
            _ => self.increment_flush(t, offset),
        }
    }

    /// Evict: the flushed node `offset` is clean again.
    pub(crate) fn scheme_cleaned(&mut self, t: Cycle, offset: u64) -> Result<Cycle, PowerCut> {
        match self.scheme {
            SchemeState::Star(_) => self.star_cleaned(t, offset),
            _ => Ok(t),
        }
    }

    /// Data write, or a flush's parent increment: cached node `offset`'s
    /// counters moved from `pre` to `post`, and the push that makes the
    /// move durable (the data line + MAC record, or the child) comes next.
    pub(crate) fn counters_moved(
        &mut self,
        t: Cycle,
        offset: u64,
        pre: &SitNode,
        post: &SitNode,
    ) -> Cycle {
        match self.scheme {
            SchemeState::Star(_) => self.star_refresh(t, offset),
            SchemeState::Steins(_) => self.steins_counters_moved(t, offset, pre, post),
            _ => t,
        }
    }
}

impl CrashedSystem {
    /// Strict recovery: hands the scheme its crash remnant.
    pub(crate) fn recover_scheme(
        mut self,
        out: &mut Option<SecureNvmSystem>,
        prior: RecoveryJournal,
        restarts: u32,
    ) -> Result<RecoveryReport, IntegrityError> {
        match std::mem::replace(&mut self.nv, NvState::WriteBack) {
            NvState::WriteBack => Err(IntegrityError::RecoveryUnsupported),
            NvState::Asit(nv) => self.recover_asit(nv, out, prior, restarts),
            NvState::Star(nv_root) => self.recover_star(nv_root, out, prior, restarts),
            NvState::Steins(nv) => self.recover_steins(nv, out, prior, restarts),
        }
    }
}
