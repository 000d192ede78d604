//! Conformance matrix for composable backend layers: every stack in
//! {bare, delay, fault-off, crypt, crypt∘delay} × backends
//! {MemFs, Ext4+SSD} must preserve POSIX semantics and the application's
//! byte-level view through an NvCache mount — and a mount whose every
//! layer is inert must be **byte- and virtual-time-identical** to an
//! unlayered mount (the inertness contract, `vfs::layer` docs).

use std::sync::Arc;

use nvcache_repro::nvcache::{Mount, NvCache, NvCacheConfig};
use nvcache_repro::nvmm::{NvDimm, NvmmProfile};
use nvcache_repro::simclock::{ActorClock, Bandwidth, SimTime};
use nvcache_repro::vfs::{
    self, CryptLayer, DelayLayer, DelayProfile, FaultLayer, FileSystem, IoError, Layer, MemFs,
    OpenFlags,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nvcache_bench::rig::{parked, Below, Model, Rig};

fn ext4_ssd() -> Arc<dyn FileSystem> {
    Below::ext4(1).bases.remove(0)
}

/// A mount of `cfg` over `MemFs` behind `layers`, on an Optane DIMM.
fn optane_memfs(cfg: NvCacheConfig, layers: Vec<Arc<dyn Layer>>) -> (Rig, NvCache) {
    Rig::new(cfg, Below { layers, nvmm: NvmmProfile::optane(), ..Below::memfs(1) })
}

fn active_delay_profile() -> DelayProfile {
    DelayProfile {
        open: SimTime::from_micros(8),
        pread: SimTime::from_micros(4),
        pwrite: SimTime::from_micros(6),
        fsync: SimTime::from_micros(30),
        read_bandwidth: Some(Bandwidth::mib_per_sec(800.0)),
        write_bandwidth: Some(Bandwidth::mib_per_sec(400.0)),
        ..DelayProfile::default()
    }
}

fn active_delay() -> Arc<dyn Layer> {
    Arc::new(DelayLayer::new(active_delay_profile()))
}

/// A fault layer carrying a live pwrite-fault schedule that is *disarmed*:
/// it must behave as a pure forwarder until armed.
fn fault_off() -> Arc<dyn Layer> {
    let fault = FaultLayer::failing_pwrites(0);
    fault.disarm();
    Arc::new(fault)
}

/// The named stack matrix of the ISSUE: each entry built fresh per call
/// (layer values carry state and must not be shared across mounts).
fn stack_matrix() -> Vec<(&'static str, Vec<Arc<dyn Layer>>)> {
    vec![
        ("bare", vec![]),
        ("delay", vec![active_delay()]),
        ("fault-off", vec![fault_off()]),
        ("crypt", vec![Arc::new(CryptLayer::new(0xFACE_0FFE))]),
        ("crypt∘delay", vec![Arc::new(CryptLayer::new(0xFACE_0FFE)), active_delay()]),
    ]
}

#[test]
fn every_stack_passes_posix_conformance_on_every_backend() {
    type MakeBackend = fn() -> Arc<dyn FileSystem>;
    let backends: Vec<(&str, MakeBackend)> =
        vec![("memfs", || Arc::new(MemFs::new())), ("ext4+ssd", ext4_ssd)];
    for (backend_name, make_backend) in &backends {
        for (stack_name, layers) in stack_matrix() {
            let fs = vfs::stack(&layers, make_backend());
            // check_posix_semantics panics with context on violation; the
            // eyeball-greppable pair tells which cell of the matrix failed.
            eprintln!("conformance: {stack_name} over {backend_name}");
            vfs::check_posix_semantics(fs.as_ref());
        }
    }
}

/// The byte-level application view through an NvCache mount must be
/// identical for every stack: layers may change timing and at-rest
/// representation, never content.
#[test]
fn mounted_stacks_preserve_the_byte_oracle() {
    let workload = |cache: &NvCache, clock: &ActorClock| -> Vec<u8> {
        let fd = cache.open("/w", OpenFlags::RDWR | OpenFlags::CREATE, clock).expect("open");
        let mut rng = StdRng::seed_from_u64(20210621);
        let size = 32 * 1024u64;
        for i in 0..120 {
            let off = rng.gen_range(0..size - 4096);
            if rng.gen_bool(0.7) {
                let len = rng.gen_range(1..4096usize);
                cache.pwrite(fd, &vec![(i % 251 + 1) as u8; len], off, clock).expect("pwrite");
            } else {
                let mut buf = vec![0u8; rng.gen_range(1..4096usize)];
                cache.pread(fd, &mut buf, off, clock).expect("pread");
            }
        }
        cache.fsync(fd, clock).expect("fsync");
        // Drain the log so reads below cross the layered backend, then
        // evict nothing by rereading through the mount.
        cache.flush_log(clock);
        let total = cache.fstat(fd, clock).expect("fstat").size;
        let mut content = vec![0u8; total as usize];
        cache.pread(fd, &mut content, 0, clock).expect("read back");
        cache.close(fd, clock).expect("close");
        content
    };

    let cfg = NvCacheConfig { nb_entries: 256, fd_slots: 16, ..NvCacheConfig::tiny() };
    let mut reference: Option<Vec<u8>> = None;
    for (stack_name, layers) in stack_matrix() {
        let (Rig { clock, .. }, cache) = Rig::new(cfg.clone(), Below { layers, ..Below::memfs(1) });
        let content = workload(&cache, &clock);
        cache.shutdown(&clock);
        match &reference {
            None => reference = Some(content),
            Some(r) => assert_eq!(r, &content, "stack {stack_name} diverged from bare content"),
        }
    }
}

fn region_bytes(dimm: &NvDimm) -> Vec<u8> {
    let mut buf = vec![0u8; dimm.len() as usize];
    dimm.read_cached(0, &mut buf);
    buf
}

/// The acceptance criterion: a mount whose every layer is in its inert
/// configuration is byte- and virtual-time-identical to an unlayered
/// mount — asserted on region bytes, the application clock, and the
/// deterministic stats snapshot.
#[test]
fn all_inert_stack_is_byte_and_time_identical_to_unlayered() {
    // Parked cleanup workers (huge batch window): the concurrent drain's
    // batch composition races the OS scheduler, so the deterministic
    // surfaces are the mount, the app-side write path, and the fully
    // drained persistent bytes (same discipline as the builder oracle).
    let cfg = parked(NvCacheConfig { nb_entries: 64, ..NvCacheConfig::tiny() });

    let (bare_rig, bare) = optane_memfs(cfg.clone(), vec![]);
    let (bare_clock, bare_dimm) = (&bare_rig.clock, bare_rig.dimm());

    let delay = Arc::new(DelayLayer::inert());
    let fault = Arc::new(FaultLayer::inert());
    let (layered_rig, layered) = optane_memfs(cfg, vec![delay.clone(), fault.clone()]);
    let (layered_clock, layered_dimm) = (&layered_rig.clock, layered_rig.dimm());

    assert_eq!(bare_clock.now(), layered_clock.now(), "mount timings diverged");
    assert_eq!(region_bytes(&bare_dimm), region_bytes(&layered_dimm), "format bytes diverged");

    let burst = |cache: &NvCache, clock: &ActorClock| {
        let fd = cache.open("/inert", OpenFlags::RDWR | OpenFlags::CREATE, clock).unwrap();
        for i in 0..24u64 {
            cache.pwrite(fd, &[i as u8 + 1; 300], i * 300, clock).unwrap();
        }
        let mut buf = [0u8; 600];
        cache.pread(fd, &mut buf, 150, clock).unwrap();
        fd
    };
    let bfd = burst(&bare, bare_clock);
    let lfd = burst(&layered, layered_clock);

    assert_eq!(bare_clock.now(), layered_clock.now(), "write-path virtual time diverged");
    assert_eq!(region_bytes(&bare_dimm), region_bytes(&layered_dimm), "logged bytes diverged");
    // `idle_wakeups` counts the host's scheduling of the workers, not the
    // modelled system.
    let host_free = |cache: &NvCache| {
        let mut s = cache.stats().snapshot();
        s.per_shard.iter_mut().for_each(|shard| shard.idle_wakeups = 0);
        s
    };
    assert_eq!(host_free(&bare), host_free(&layered), "deterministic stats diverged");

    // Drain and settle: still byte-identical, and every inert layer's own
    // counters stayed at zero (they never acted).
    for (cache, fd, clock) in [(&bare, bfd, &bare_clock), (&layered, lfd, &layered_clock)] {
        cache.flush_log(clock);
        cache.close(fd, clock).unwrap();
        cache.shutdown(clock);
    }
    assert_eq!(region_bytes(&bare_dimm), region_bytes(&layered_dimm), "drained bytes diverged");
    assert_eq!(delay.stats(), Default::default(), "inert delay layer acted");
    assert_eq!(fault.faults_injected(), 0, "inert fault layer injected");
}

/// Synchronous durability must hold through an active crypt∘delay stack
/// over Ext4+SSD: acknowledged writes survive a power failure and recover
/// through a freshly built stack (same key — the key is the only secret).
#[test]
fn acknowledged_writes_survive_crashes_through_crypt_delay_stacks() {
    const KEY: u64 = 0xD15C_C0DE;

    let cfg = NvCacheConfig {
        nb_entries: 256,
        batch_min: 20, // some entries propagate through the stack, some stay
        batch_max: 40,
        fd_slots: 16,
        ..NvCacheConfig::default()
    };
    let make_stack =
        || -> Vec<Arc<dyn Layer>> { vec![Arc::new(CryptLayer::new(KEY)), active_delay()] };
    let (mut rig, cache) = Rig::new(cfg, Below { layers: make_stack(), ..Below::ext4(1) });
    let fd = cache
        .open("/sealed", OpenFlags::RDWR | OpenFlags::CREATE, &rig.clock)
        .expect("open");
    let mut rng = StdRng::seed_from_u64(77);
    let mut model = Model::new();
    for i in 0..60usize {
        let off = rng.gen_range(0..48u64) * 512;
        let val = vec![(i % 251 + 1) as u8; rng.gen_range(1..2000)];
        cache.pwrite(fd, &val, off, &rig.clock).expect("pwrite");
        model.write("/sealed", off, &val);
    }

    // Pull the power mid-drain, then recover through a *rebuilt* stack.
    rig.crash(&cache, 13);
    rig.below.layers = make_stack();
    let recovered = rig.mount(Mount::Recover).expect("recover through the stack");
    let held = model.check(&recovered);
    assert_eq!(held, Ok(()), "acknowledged writes lost through the stack");
    recovered.shutdown(&rig.clock);
}

/// Bytes corrupted below the crypt layer (disk tampering / bit rot) must
/// surface as a read error through the mount, not as silent garbage.
#[test]
fn tampering_below_the_crypt_layer_is_detected_through_the_mount() {
    let crypt = Arc::new(CryptLayer::new(0xBAD_CAB1E));
    let below = Below { layers: vec![crypt.clone()], ..Below::memfs(1) };
    let (rig, cache) = Rig::new(NvCacheConfig::tiny().with_read_cache_pages(1), below);
    let (clock, inner) = (&rig.clock, &rig.below.bases[0]);
    let fd = cache.open("/secret", OpenFlags::RDWR | OpenFlags::CREATE, clock).expect("open");
    cache.pwrite(fd, &[0x42; 8192], 0, clock).expect("pwrite");
    cache.flush_log(clock); // data now lives (encrypted) in the inner fs
    cache.close(fd, clock).expect("close");
    cache.shutdown(clock);

    // Flip one at-rest byte behind the layer's back.
    let raw = inner.open("/secret", OpenFlags::RDWR, clock).expect("raw open");
    let mut b = [0u8; 1];
    inner.pread(raw, &mut b, 4200, clock).expect("raw pread");
    inner.pwrite(raw, &[b[0] ^ 0xA5], 4200, clock).expect("raw pwrite");
    inner.close(raw, clock).expect("raw close");

    let remounted = rig.recover();
    let fd = remounted.open("/secret", OpenFlags::RDONLY, clock).expect("reopen");
    let mut buf = [0u8; 64];
    // Page 0 is untampered and still reads…
    remounted.pread(fd, &mut buf, 0, clock).expect("clean page");
    assert_eq!(buf, [0x42; 64]);
    // …page 1 was tampered and must refuse.
    let res = remounted.pread(fd, &mut buf, 4096, clock);
    assert!(
        matches!(res, Err(IoError::Other(_))),
        "tampered page must error through the mount, got {res:?}"
    );
    assert!(crypt.stats().tamper_detected >= 1, "the layer must count the detection");
    remounted.shutdown(clock);
}

/// Two mounts with identical delay profiles must produce identical virtual
/// timelines (delays are deterministic), and the delay layer's charges
/// must be visible on the application clock for inner-touching ops.
#[test]
fn delay_layer_timelines_are_deterministic_through_mounts() {
    let run = || -> (SimTime, u64) {
        let delay = Arc::new(DelayLayer::new(active_delay_profile()));
        // Parked cleanup worker (huge batch window): left free, it races
        // the `pwrite` and may split the drain into two batches, which moves
        // the app clock `flush_log` waits on by a different amount.
        let cfg = parked(NvCacheConfig::tiny()).with_read_cache_pages(1);
        let (Rig { clock, .. }, cache) = optane_memfs(cfg, vec![delay.clone()]);
        let fd = cache.open("/t", OpenFlags::RDWR | OpenFlags::CREATE, &clock).expect("open");
        cache.pwrite(fd, &[1; 8192], 0, &clock).expect("pwrite");
        cache.flush_log(&clock);
        let mut buf = [0u8; 4096];
        for page in 0..2u64 {
            cache.pread(fd, &mut buf, page * 4096, &clock).expect("pread");
        }
        cache.close(fd, &clock).expect("close");
        cache.shutdown(&clock);
        // Only the app-clock charges are deterministic (the drain worker
        // runs on its own clock), so compare the app clock and the fact
        // that delays happened at all.
        (clock.now(), delay.stats().ops_delayed)
    };
    let (t1, ops1) = run();
    let (t2, ops2) = run();
    assert_eq!(t1, t2, "identical delay mounts must have identical app timelines");
    assert!(ops1 > 0, "the delay layer must have charged inner-touching ops");
    assert_eq!(ops1, ops2);
}
