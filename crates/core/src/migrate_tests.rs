//! Tests of the tier migrator: the copy → stamp → unlink crash matrix
//! (exactly one authoritative copy after a crash at every protocol step,
//! proptest-randomized), live migration/rebalance semantics (busy files,
//! access-heat catalog), misplaced files going home after recovery,
//! cross-tier rename, and a one-tier mount's refusal to migrate.

use std::sync::Arc;

use nvmm::NvRegion;
use proptest::prelude::*;
use simclock::{ActorClock, SimTime};
use vfs::{FileSystem, IoError, OpenFlags};

use crate::files::PersistentFdTable;
use crate::layout::{Layout, FD_VALID_MIGRATION};
use crate::migrate::{self, CrashPoint};
use crate::tests::rig::{read_all, Below, Rig};
use crate::tests::{legacy_then_two_tiers, parked_128};
use crate::{HeatPolicy, Mount};

/// Two `MemFs` tiers, `/hot/*` on tier 1, and the two of them.
fn tiers() -> (Below, Arc<dyn FileSystem>, Arc<dyn FileSystem>) {
    let below = Below::memfs(2);
    let (cold, hot) = (Arc::clone(&below.bases[0]), Arc::clone(&below.bases[1]));
    (below, cold, hot)
}

/// Formats a two-tier region and shuts it down, ready for direct protocol
/// calls.
fn formatted_two_tier_region() -> Rig {
    let (rig, cache) = Rig::new(parked_128(), Below::memfs(2));
    cache.shutdown(&rig.clock);
    rig
}

fn write_file(fs: &Arc<dyn FileSystem>, path: &str, content: &[u8]) {
    let clock = ActorClock::new();
    let fd = fs.open(path, OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
    if !content.is_empty() {
        fs.pwrite(fd, content, 0, &clock).unwrap();
    }
    fs.fsync(fd, &clock).unwrap();
    fs.close(fd, &clock).unwrap();
}

/// Runs one migration with a crash injected after `crash_after` (or to
/// completion for `None`), crashes the NVMM image, recovers, and asserts
/// the exactly-one-copy + content oracle. Returns which backend ended up
/// authoritative.
fn crash_scenario(content: &[u8], from: usize, crash_after: Option<CrashPoint>) -> usize {
    let rig = formatted_two_tier_region();
    let (clock, backends) = (&rig.clock, &rig.below.bases);
    let to = 1 - from;
    // The path routes to tier 1; placement correctness is not what this
    // oracle checks (recovery repair of journals never consults the
    // router), so both directions are exercised with the same name.
    let path = "/hot/victim";
    write_file(&backends[from], path, content);

    let lay = Layout::for_config(&rig.cfg);
    let region = NvRegion::whole(rig.dimm());
    migrate::migrate_bytes(
        &region,
        &lay,
        backends,
        3, // any free journal slot
        path,
        path,
        from,
        to,
        clock,
        crash_after,
    )
    .expect("protocol run");

    // Power failure, then a recovery mount (journal repair runs on every
    // recovery).
    rig.power_cut(0);
    let recovered = rig.recover();
    let report = recovered.recovery_report().unwrap();
    let expect_journal = crash_after.is_some();
    assert_eq!(
        report.migrations_repaired,
        usize::from(expect_journal),
        "a crash inside the protocol leaves exactly one journal ({crash_after:?})"
    );
    recovered.shutdown(clock);

    // The oracle: exactly one copy, bytes unchanged.
    let on = [read_all(&*backends[0], path), read_all(&*backends[1], path)];
    let survivors: Vec<usize> = (0..2).filter(|&b| on[b].is_some()).collect();
    assert_eq!(
        survivors.len(),
        1,
        "exactly one authoritative copy must survive {crash_after:?} (found on {survivors:?})"
    );
    let where_ = survivors[0];
    assert_eq!(
        on[where_].as_deref(),
        Some(content),
        "content must be byte-identical after {crash_after:?}"
    );
    where_
}

#[test]
fn crash_matrix_converges_to_exactly_one_copy() {
    let content = b"migration payload: the bytes themselves never change".as_slice();
    for from in [0usize, 1] {
        let to = 1 - from;
        // No crash: the move completes.
        assert_eq!(crash_scenario(content, from, None), to);
        // Before the copy: source stays authoritative.
        assert_eq!(crash_scenario(content, from, Some(CrashPoint::AfterJournal)), from);
        // Copy done but unstamped: source stays authoritative, the full
        // (but uncommitted) target copy is deleted.
        assert_eq!(crash_scenario(content, from, Some(CrashPoint::AfterCopy)), from);
        // Stamped: the target owns the file, the stale source is deleted.
        assert_eq!(crash_scenario(content, from, Some(CrashPoint::AfterStamp)), to);
        // Unlinked but journal not yet cleared: target owns the file.
        assert_eq!(crash_scenario(content, from, Some(CrashPoint::AfterUnlink)), to);
    }
}

#[test]
fn empty_files_migrate_and_repair_too() {
    assert_eq!(crash_scenario(&[], 0, Some(CrashPoint::AfterCopy)), 0);
    assert_eq!(crash_scenario(&[], 0, Some(CrashPoint::AfterStamp)), 1);
}

#[test]
fn a_journal_naming_a_missing_backend_fails_recovery_and_unlinks_nothing() {
    // A journal's backend is the copy to keep: out of range, it matches no
    // tier, and "unlink every other copy" would delete them all.
    let rig = formatted_two_tier_region();
    let path = "/hot/twice";
    for fs in &rig.below.bases {
        write_file(fs, path, b"a copy");
    }
    let region = NvRegion::whole(rig.dimm());
    let lay = Layout::for_config(&rig.cfg);
    PersistentFdTable::set(&region, &lay, 2, FD_VALID_MIGRATION, path, 5, &rig.clock);

    rig.power_cut(0);
    let mounted = rig.mount(Mount::Recover);
    assert!(matches!(mounted, Err(IoError::InvalidArgument(_))), "{mounted:?}");
    for fs in &rig.below.bases {
        assert_eq!(read_all(&**fs, path).as_deref(), Some(b"a copy".as_slice()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The crash-mid-migration property of the ISSUE: random content and a
    /// random kill point at each protocol step always recover to exactly
    /// one copy whose bytes match the oracle.
    #[test]
    fn crash_mid_migration_always_leaves_one_true_copy(
        content in proptest::collection::vec(any::<u8>(), 0..6000),
        from in 0..2usize,
        step in 0..5usize,
    ) {
        let crash_after = [
            None,
            Some(CrashPoint::AfterJournal),
            Some(CrashPoint::AfterCopy),
            Some(CrashPoint::AfterStamp),
            Some(CrashPoint::AfterUnlink),
        ][step];
        let survivor = crash_scenario(&content, from, crash_after);
        // Placement follows the commit point: authoritative copy moves at
        // the stamp, never before.
        let expect = match crash_after {
            None | Some(CrashPoint::AfterStamp) | Some(CrashPoint::AfterUnlink) => 1 - from,
            _ => from,
        };
        prop_assert_eq!(survivor, expect);
    }
}

#[test]
fn live_migration_moves_a_closed_file_and_counts_stats() {
    let (below, cold, hot) = tiers();
    let (rig, cache) = Rig::new(parked_128(), below);
    let clock = &rig.clock;
    let fd = cache.open("/hot/wal", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, b"hot payload", 0, clock).unwrap();

    // Open file: migration must refuse with EBUSY.
    assert!(matches!(cache.migrate("/hot/wal", 0, clock), Err(IoError::Busy(_))));

    cache.flush_log(clock);
    cache.close(fd, clock).unwrap();
    // Closed and drained: the explicit move (against the router's wishes)
    // succeeds and the bytes change tier, not value.
    let moved = cache.migrate("/hot/wal", 0, clock).expect("migrate closed file");
    assert_eq!(moved, 11);
    assert_eq!(read_all(&*cold, "/hot/wal").as_deref(), Some(b"hot payload".as_slice()));
    assert_eq!(read_all(&*hot, "/hot/wal"), None);
    let snap = cache.stats().snapshot();
    assert_eq!(snap.files_migrated, 1);
    assert_eq!(snap.migration_bytes, 11);
    // Idempotent: already there.
    assert_eq!(cache.migrate("/hot/wal", 0, clock).unwrap(), 0);

    // The file is now misplaced by the router's standards; stat/unlink
    // still reach it through the recorded backend (the catalog).
    assert_eq!(cache.stat("/hot/wal", clock).unwrap().size, 11);
    // And a rebalance sweep brings it home.
    let report = cache.rebalance(clock).expect("sweep");
    assert_eq!(report.files_migrated, 1);
    assert_eq!(report.bytes_moved, 11);
    assert_eq!(read_all(&*hot, "/hot/wal").as_deref(), Some(b"hot payload".as_slice()));
    assert_eq!(read_all(&*cold, "/hot/wal"), None);
    cache.shutdown(clock);
}

#[test]
fn draining_zombie_blocks_migration_until_drained() {
    let (below, cold, _) = tiers();
    let (rig, cache) = Rig::new(parked_128(), below);
    let clock = &rig.clock;
    let fd = cache.open("/hot/zombie", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, b"pending", 0, clock).unwrap();
    // Close with the drain parked: the descriptor lingers as a zombie whose
    // entries are still in NVMM — mid-drain files must not migrate.
    cache.close(fd, clock).unwrap();
    assert!(cache.pending_entries() > 0, "the drain must still be parked");
    assert!(matches!(cache.migrate("/hot/zombie", 0, clock), Err(IoError::Busy(_))));
    // Draining unblocks it.
    cache.flush_log(clock);
    assert_eq!(cache.migrate("/hot/zombie", 0, clock).unwrap(), 7);
    assert_eq!(read_all(&*cold, "/hot/zombie").as_deref(), Some(b"pending".as_slice()));
    cache.shutdown(clock);
}

#[test]
fn a_one_tier_mount_refuses_rebalance_and_migrate() {
    let only = Below::memfs(1);
    write_file(&only.bases[0], "/x", b"stays");
    // A heat policy changes nothing: one tier has nowhere to move a file.
    let heat = HeatPolicy::new(0, 1.0, 0.5, SimTime::from_secs(60));
    let (rig, cache) = Rig::new(parked_128(), Below { heat: Some(heat), ..only });
    let clock = &rig.clock;
    assert!(matches!(cache.rebalance(clock), Err(IoError::InvalidArgument(_))));
    assert!(matches!(cache.migrate("/x", 0, clock), Err(IoError::InvalidArgument(_))));
    assert_eq!(read_all(&*rig.below.bases[0], "/x").as_deref(), Some(b"stays".as_slice()));
    cache.shutdown(clock);
}

/// The acceptance scenario: crash with files misplaced by a policy change.
/// Recovery replays them where their slots say and moves nothing; it hands
/// them to the migrator, so the first sweep a caller asks for repairs the
/// placement of them all, a byte oracle confirms the content, and the
/// *next* crash + recovery reports zero misplaced files.
#[test]
fn recover_repair_rehomes_every_misplaced_file() {
    // Phase 1: a single-backend (legacy) mount writes files under /hot —
    // they all land on the only backend — and crashes with the fd slots
    // live.
    let (rig, cache, two) = legacy_then_two_tiers(parked_128());
    let clock = &rig.clock;
    let (legacy, hot) = (Arc::clone(&two.bases[0]), Arc::clone(&two.bases[1]));
    let mut oracle = Vec::new();
    for i in 0..4u32 {
        let path = format!("/hot/f{i}");
        let fd = cache.open(&path, OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
        let content = vec![i as u8 + 1; 100 + 37 * i as usize];
        cache.pwrite(fd, &content, 0, clock).unwrap();
        oracle.push((path, content));
    }
    rig.crash(&cache, 0);

    // Phase 2: recovery into a two-tier stack whose router claims /hot/**
    // for tier 1. The legacy files replay to backend 0 (acknowledged bytes
    // never re-route); the sweep then re-homes them to tier 1.
    let recovered = rig.mount_over(&two, Mount::Recover).expect("recovery");
    let report = recovered.recovery_report().unwrap();
    assert_eq!((report.entries_replayed, report.files_misplaced), (4, 4));
    assert_eq!(recovered.stats().snapshot().files_migrated, 0, "recovery moves nothing");
    assert_eq!(recovered.rebalance(clock).expect("sweep").files_migrated, 4);
    assert_eq!(recovered.stats().snapshot().files_migrated, 4, "every move is counted");
    for (path, content) in &oracle {
        assert_eq!(
            read_all(&*hot, path).as_deref(),
            Some(content.as_slice()),
            "{path} must live on its router tier with intact bytes"
        );
        assert_eq!(read_all(&*legacy, path), None, "{path} must leave the legacy tier");
        // The mount itself sees the file where the router expects it.
        assert_eq!(recovered.stat(path, clock).unwrap().size, content.len() as u64);
    }

    // Phase 3: reopen through the mount, crash again, recover — the next
    // mount must report files_misplaced == 0 (the slots now record the
    // router's placement).
    for (path, _) in &oracle {
        let fd = recovered.open(path, OpenFlags::RDWR, clock).unwrap();
        recovered.pwrite(fd, b"!", 0, clock).unwrap();
    }
    rig.crash(&recovered, 0);
    let next = rig.mount_over(&two, Mount::Recover).expect("second recovery");
    assert_eq!(next.recovery_report().unwrap().files_misplaced, 0);
    next.shutdown(clock);
}

#[test]
fn a_recovered_misplaced_file_goes_home_on_the_next_sweep() {
    let (rig, cache, two) = legacy_then_two_tiers(parked_128());
    let clock = &rig.clock;
    let (legacy, hot) = (Arc::clone(&two.bases[0]), Arc::clone(&two.bases[1]));
    let fd = cache.open("/hot/auto", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, b"self-healing", 0, clock).unwrap();
    rig.crash(&cache, 0);

    // The misplaced file seeds the catalog, so the first sweep a caller
    // asks for re-homes it.
    let recovered = rig.mount_over(&two, Mount::Recover).expect("recovery");
    assert_eq!(recovered.recovery_report().unwrap().files_misplaced, 1);
    assert_eq!(recovered.rebalance(clock).expect("sweep").files_migrated, 1);
    assert_eq!(
        read_all(&*hot, "/hot/auto").as_deref(),
        Some(b"self-healing".as_slice()),
        "the sweep must move the file to its router tier"
    );
    assert_eq!(read_all(&*legacy, "/hot/auto"), None);
    recovered.shutdown(clock);
}

#[test]
fn open_falls_back_to_the_recorded_tier_for_misplaced_files() {
    // A misplaced file must be *readable* through the mount, not just
    // stat-able: a non-creating open probes past the router's tier. A
    // creating open still follows the router (that is the placement
    // decision for new files).
    let (below, _, hot) = tiers();
    let (rig, cache) = Rig::new(parked_128(), below);
    let clock = &rig.clock;
    // Create on the router's tier (1), then migrate away so the file is
    // misplaced relative to the policy.
    let fd = cache.open("/hot/stray", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, b"stray bytes", 0, clock).unwrap();
    cache.flush_log(clock);
    cache.close(fd, clock).unwrap();
    cache.migrate("/hot/stray", 0, clock).unwrap();

    let fd = cache.open("/hot/stray", OpenFlags::RDONLY, clock).expect("fallback open");
    let mut buf = [0u8; 11];
    cache.pread(fd, &mut buf, 0, clock).unwrap();
    assert_eq!(&buf, b"stray bytes");
    cache.close(fd, clock).unwrap();
    // The catalog entry survived the open (same tier), so a sweep can
    // still re-home the file.
    let report = cache.rebalance(clock).unwrap();
    assert_eq!(report.files_migrated, 1);
    assert_eq!(read_all(&*hot, "/hot/stray").as_deref(), Some(b"stray bytes".as_slice()));
    cache.shutdown(clock);
}

#[test]
fn creating_open_reuses_a_misplaced_file_instead_of_shadowing() {
    // POSIX O_CREAT opens an existing file — it must not shadow a
    // misplaced copy on another tier with a fresh empty file on the
    // routed tier (the shadow would fork the name into two divergent
    // copies). Works with migration disabled too: the probe is part of
    // the path-op routing fix, not the migrator.
    let (below, cold, hot) = tiers();
    // The file lives on tier 0 while the router claims /hot/** for tier 1.
    write_file(&cold, "/hot/kept", b"original");
    let (rig, cache) = Rig::new(parked_128(), below);
    let clock = &rig.clock;
    let fd = cache.open("/hot/kept", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    let mut buf = [0u8; 8];
    cache.pread(fd, &mut buf, 0, clock).unwrap();
    assert_eq!(&buf, b"original", "the existing bytes must be opened, not an empty shadow");
    cache.pwrite(fd, b"UPDATED!", 0, clock).unwrap();
    cache.flush_log(clock);
    cache.close(fd, clock).unwrap();
    assert_eq!(read_all(&*hot, "/hot/kept"), None, "no shadow on the routed tier");
    assert_eq!(read_all(&*cold, "/hot/kept").as_deref(), Some(b"UPDATED!".as_slice()));
    // A genuinely new file still follows the router.
    let fd = cache.open("/hot/fresh", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, b"new", 0, clock).unwrap();
    cache.flush_log(clock);
    cache.close(fd, clock).unwrap();
    assert!(read_all(&*hot, "/hot/fresh").is_some());
    assert_eq!(read_all(&*cold, "/hot/fresh"), None);
    cache.shutdown(clock);
}

#[test]
fn unlink_removes_duplicate_copies_from_every_tier() {
    // A name visible through the merged mount may have duplicate physical
    // copies (a misplaced file plus a shadow created on the routed tier):
    // unlink must remove them all, or the survivor resurrects the name.
    let (below, cold, hot) = tiers();
    write_file(&cold, "/hot/dup", b"stale copy");
    write_file(&hot, "/hot/dup", b"fresh copy");
    let (rig, cache) = Rig::new(parked_128(), below);
    let clock = &rig.clock;
    cache.unlink("/hot/dup", clock).expect("unlink");
    assert_eq!(read_all(&*cold, "/hot/dup"), None, "the stale copy must go too");
    assert_eq!(read_all(&*hot, "/hot/dup"), None);
    assert!(matches!(cache.stat("/hot/dup", clock), Err(IoError::NotFound(_))));
    cache.shutdown(clock);
}

#[test]
fn rename_onto_itself_succeeds_even_when_misplaced() {
    // POSIX: rename(p, p) of an existing file is a successful no-op. A
    // misplaced file (actual tier != routed tier) used to report EXDEV.
    let (below, cold, _) = tiers();
    // The file sits on tier 0 while the router places /hot/** on tier 1.
    write_file(&cold, "/hot/self", b"content");
    let (rig, cache) = Rig::new(parked_128(), below);
    let clock = &rig.clock;
    cache.rename("/hot/self", "/hot/self", clock).expect("self-rename is a no-op");
    assert_eq!(read_all(&*cold, "/hot/self").as_deref(), Some(b"content".as_slice()));
    assert!(matches!(cache.rename("/hot/ghost", "/hot/ghost", clock), Err(IoError::NotFound(_))));
    cache.shutdown(clock);
}

#[test]
fn rename_replaces_stale_destination_copies_on_other_tiers() {
    // rename must replace the destination on the mount's *merged* view: a
    // stale copy of the destination name on a third location would
    // resurface once the fresh copy is unlinked.
    let (below, cold, hot) = tiers();
    // Destination name pre-exists, misplaced on the hot tier (routes cold).
    write_file(&hot, "/cold/dest", b"stale destination");
    let (rig, cache) = Rig::new(parked_128(), below);
    let clock = &rig.clock;
    let fd = cache.open("/hot/src", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, b"new content", 0, clock).unwrap();
    cache.flush_log(clock);
    cache.close(fd, clock).unwrap();

    cache.rename("/hot/src", "/cold/dest", clock).expect("cross-tier rename");
    assert_eq!(read_all(&*cold, "/cold/dest").as_deref(), Some(b"new content".as_slice()));
    assert_eq!(read_all(&*hot, "/cold/dest"), None, "the stale destination must go");
    assert_eq!(read_all(&*hot, "/hot/src"), None);
    assert_eq!(cache.stat("/cold/dest", clock).unwrap().size, 11);
    cache.shutdown(clock);
}

#[test]
fn cross_tier_rename_migrates_behind_the_flag() {
    let (below, cold, hot) = tiers();
    let (rig, cache) = Rig::new(parked_128(), below);
    let clock = &rig.clock;
    let fd = cache.open("/hot/wal", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
    cache.pwrite(fd, b"renamed across tiers", 0, clock).unwrap();
    // Open source: EBUSY, like a migration.
    assert!(matches!(cache.rename("/hot/wal", "/cold/wal", clock), Err(IoError::Busy(_))));
    cache.flush_log(clock);
    cache.close(fd, clock).unwrap();

    cache.rename("/hot/wal", "/cold/wal", clock).expect("cross-tier rename");
    assert_eq!(read_all(&*cold, "/cold/wal").as_deref(), Some(b"renamed across tiers".as_slice()));
    assert_eq!(read_all(&*hot, "/hot/wal"), None, "the source name must be gone");
    assert_eq!(cache.stats().snapshot().files_migrated, 1);
    // Same-tier renames still go through the inner file system.
    cache.rename("/cold/wal", "/cold/wal2", clock).expect("same-tier rename");
    assert_eq!(cache.stat("/cold/wal2", clock).unwrap().size, 20);
    cache.shutdown(clock);
}
