//! Authenticated recovery journal, end to end: a forged or tampered ADR
//! journal is detected by its MAC — strict recovery fails closed with
//! [`IntegrityError::JournalForged`], and the lenient scrub discards the
//! untrusted resume point and rebuilds from scratch, byte-correct.

use steins_core::crash::CrashedSystem;
use steins_core::{CounterMode, IntegrityError, SchemeKind, SecureNvmSystem, SystemConfig};
use steins_nvm::RecoveryJournal;

const LINES: u64 = 48;

fn payload(line: u64, tag: u8) -> [u8; 64] {
    let mut d = [tag; 64];
    d[..8].copy_from_slice(&line.to_le_bytes());
    d
}

/// A dirtied, crashed Steins machine.
fn crashed_image(mode: CounterMode) -> CrashedSystem {
    let cfg = SystemConfig::small_for_tests(SchemeKind::Steins, mode);
    let mut sys = SecureNvmSystem::new(cfg);
    for line in 0..LINES {
        sys.write(line * 64, &payload(line, 0xB7)).unwrap();
    }
    sys.crash()
}

/// Tampers the image's journal line: a non-default journal whose stored
/// MAC no longer covers it (the attacker steered the resume point but
/// cannot produce the keyed MAC).
fn forge_journal(crashed: &mut CrashedSystem) {
    let mut j = crashed.nvm().recovery_journal();
    let stale_mac = crashed.nvm().journal_mac();
    // Claim a recovery was interrupted halfway through its rebuild —
    // exactly the lie that would let an attacker skip re-verification.
    j.phase = 1;
    j.hwm = LINES / 2;
    j.restarts = 7;
    crashed
        .nvm_mut()
        .set_recovery_journal(j, stale_mac)
        .unwrap();
}

#[test]
fn forged_journal_fails_strict_recovery_closed() {
    for mode in [CounterMode::General, CounterMode::Split] {
        let mut crashed = crashed_image(mode);
        forge_journal(&mut crashed);
        match crashed.recover() {
            Err(IntegrityError::JournalForged) => {}
            Ok(_) => panic!("strict recovery trusted a forged journal ({mode:?})"),
            Err(e) => panic!("expected JournalForged, got {e} ({mode:?})"),
        }
    }
}

#[test]
fn forged_journal_lenient_scrub_rebuilds_from_scratch_byte_correct() {
    for mode in [CounterMode::General, CounterMode::Split] {
        let mut crashed = crashed_image(mode);
        forge_journal(&mut crashed);
        let (sys, report) = crashed.recover_lenient();
        assert!(
            report.journal_rejected,
            "scrub must flag the forged journal ({mode:?})"
        );
        assert_eq!(
            report.metrics().counter("core.scrub.journal_rejected"),
            Some(1)
        );
        // The untrusted restart count must not leak into the report: the
        // scrub started from a pristine journal.
        assert_eq!(report.restarts, 0, "forged restarts leaked ({mode:?})");
        let mut sys = sys.expect("Steins rebuilds from redundancy");
        for line in 0..LINES {
            assert_eq!(
                sys.read(line * 64).unwrap(),
                payload(line, 0xB7),
                "line {line} wrong after from-scratch rebuild ({mode:?})"
            );
        }
    }
}

#[test]
fn attacker_zeroing_journal_and_mac_degrades_to_from_scratch() {
    // Wiping both the journal line and its MAC is indistinguishable from a
    // never-written journal — and that state already means "no resume
    // point, rebuild from scratch", so the attacker gains nothing.
    let mut crashed = crashed_image(CounterMode::General);
    crashed
        .nvm_mut()
        .set_recovery_journal(RecoveryJournal::default(), 0)
        .unwrap();
    let (mut sys, report) = crashed.recover().expect("default journal is authentic");
    assert_eq!(
        report
            .metrics
            .counter("core.recovery.restarts")
            .unwrap_or(0),
        0
    );
    for line in 0..LINES {
        assert_eq!(sys.read(line * 64).unwrap(), payload(line, 0xB7));
    }
}

#[test]
fn authentic_journal_still_recovers_clean() {
    // Control: an untouched image recovers strictly with no journal
    // complaints (the MAC gate must not reject honest machines).
    let crashed = crashed_image(CounterMode::Split);
    let (mut sys, _report) = crashed.recover().expect("honest image recovers");
    for line in 0..LINES {
        assert_eq!(sys.read(line * 64).unwrap(), payload(line, 0xB7));
    }
}
