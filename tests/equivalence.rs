//! Transparency tests: a legacy application must not be able to tell NVCache
//! apart from the kernel it wraps (paper §II: "works transparently with
//! unmodified legacy applications").

use std::sync::Arc;

use nvcache_bench::{build_system, SystemKind, SystemSpec};
use nvcache_repro::rocklet::{bench_key, RockletDb, RockletOptions, WriteOptions};
use nvcache_repro::simclock::ActorClock;
use nvcache_repro::sqlight::{SqlightDb, SqlightOptions};
use nvcache_repro::vfs::{self, FileSystem, OpenFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the same mixed byte-level workload on two file systems and demands
/// byte-identical results.
fn mixed_workload(fs: &Arc<dyn FileSystem>, clock: &ActorClock, seed: u64) -> Vec<u8> {
    let fd = fs.open("/w", OpenFlags::RDWR | OpenFlags::CREATE, clock).expect("open");
    let mut rng = StdRng::seed_from_u64(seed);
    let size = 64 * 1024u64;
    for _ in 0..500 {
        let off = rng.gen_range(0..size - 4096);
        if rng.gen_bool(0.7) {
            let len = rng.gen_range(1..4096usize);
            let val = vec![rng.gen::<u8>(); len];
            fs.pwrite(fd, &val, off, clock).expect("pwrite");
        } else {
            let mut buf = vec![0u8; rng.gen_range(1..4096usize)];
            fs.pread(fd, &mut buf, off, clock).expect("pread");
        }
    }
    fs.fsync(fd, clock).expect("fsync");
    let total = fs.fstat(fd, clock).expect("fstat").size;
    let mut content = vec![0u8; total as usize];
    fs.pread(fd, &mut content, 0, clock).expect("read back");
    fs.close(fd, clock).expect("close");
    content
}

#[test]
fn nvcache_is_byte_equivalent_to_the_inner_fs() {
    for seed in [1u64, 42, 99] {
        let clock = ActorClock::new();
        let plain = build_system(&SystemSpec::new(SystemKind::Ssd, 512), &clock);
        let reference = mixed_workload(&plain.fs, &clock, seed);

        let boosted = build_system(&SystemSpec::new(SystemKind::NvcacheSsd, 512), &clock);
        let observed = mixed_workload(&boosted.fs, &clock, seed);
        boosted.shutdown(&clock);

        assert_eq!(reference.len(), observed.len(), "seed {seed}: size diverged");
        assert_eq!(reference, observed, "seed {seed}: content diverged");
    }
}

#[test]
fn rocklet_runs_identically_on_every_system() {
    let mut reference: Option<Vec<(Vec<u8>, Vec<u8>)>> = None;
    for kind in SystemKind::all() {
        let clock = ActorClock::new();
        let sys = build_system(&SystemSpec::new(kind, 512), &clock);
        let db = RockletDb::open(
            Arc::clone(&sys.fs),
            "/db",
            RockletOptions::tiny(), // tiny => flushes + compactions happen
            &clock,
        )
        .expect("open");
        let wo = WriteOptions { sync: true };
        for i in 0..400u64 {
            db.put(&bench_key(i % 200), format!("v{i}").as_bytes(), &wo, &clock)
                .expect("put");
        }
        for i in (0..200u64).step_by(17) {
            db.delete(&bench_key(i), &wo, &clock).expect("delete");
        }
        let content = db.scan_all(&clock).expect("scan");
        match &reference {
            None => reference = Some(content),
            Some(r) => assert_eq!(r, &content, "{} diverged from the reference", sys.name),
        }
        sys.shutdown(&clock);
    }
}

#[test]
fn sqlight_runs_identically_on_every_system() {
    let mut reference: Option<Vec<(i64, Vec<u8>)>> = None;
    for kind in SystemKind::all() {
        let clock = ActorClock::new();
        let sys = build_system(&SystemSpec::new(kind, 512), &clock);
        let db = SqlightDb::open(Arc::clone(&sys.fs), "/app.db", SqlightOptions::default(), &clock)
            .expect("open");
        db.create_table("t", &clock).expect("create");
        for i in 0..150i64 {
            db.insert("t", i, format!("row{i}").as_bytes(), &clock).expect("insert");
        }
        // A rolled-back transaction must leave no trace anywhere.
        db.begin().expect("begin");
        db.insert("t", 999, b"phantom", &clock).expect("insert phantom");
        db.rollback(&clock).expect("rollback");
        let content = db.scan("t", &clock).expect("scan");
        match &reference {
            None => reference = Some(content),
            Some(r) => assert_eq!(r, &content, "{} diverged from the reference", sys.name),
        }
        db.close(&clock).expect("close");
        sys.shutdown(&clock);
    }
}

#[test]
fn posix_conformance_for_every_system() {
    let clock = ActorClock::new();
    for kind in SystemKind::all() {
        let sys = build_system(&SystemSpec::new(kind, 512), &clock);
        vfs::check_posix_semantics(sys.fs.as_ref());
        sys.shutdown(&clock);
    }
}

/// The temporary-file idiom on all seven stacks: a descriptor held across
/// `unlink` still reads every acknowledged page once the log has drained
/// them — the inner file system has the only copy by then, and must keep it
/// until that descriptor closes, whoever is given storage in the meantime.
#[test]
fn a_descriptor_held_across_unlink_reads_every_drained_page_on_every_system() {
    let clock = ActorClock::new();
    let flags = OpenFlags::RDWR | OpenFlags::CREATE;
    for kind in SystemKind::all() {
        let sys = build_system(&SystemSpec::new(kind, 512), &clock);
        let fs = &sys.fs;
        let drain = || sys.nvcache.iter().for_each(|nc| nc.flush_log(&clock));
        let held = fs.open("/held", flags, &clock).expect("create");
        for page in 0..8u64 {
            fs.pwrite(held, &[page as u8 + 1; 4096], page * 4096, &clock).expect("pwrite");
        }
        fs.fsync(held, &clock).expect("fsync");
        drain();
        fs.unlink("/held", &clock).expect("unlink");
        let next = fs.open("/next", flags, &clock).expect("create the next file");
        fs.pwrite(next, &[0xEE; 8 * 4096], 0, &clock).expect("fill the next file");
        drain();
        for page in 0..8u64 {
            let mut buf = [0u8; 4096];
            assert_eq!(fs.pread(held, &mut buf, page * 4096, &clock), Ok(4096), "{}", sys.name);
            assert!(buf == [page as u8 + 1; 4096], "{}: page {page} reads {}", sys.name, buf[0]);
        }
        fs.close(held, &clock).expect("close");
        fs.close(next, &clock).expect("close");
        sys.shutdown(&clock);
    }
}
