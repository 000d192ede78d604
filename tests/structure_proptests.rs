//! Property tests on the core data structures, beyond the crash-recovery
//! properties in `recovery_proptest.rs`.

use std::sync::Arc;

use nvcache_repro::nvcache::Radix;
use nvcache_repro::simclock::{ActorClock, Bandwidth, ChannelResource, SimTime};
use nvcache_repro::vfs::{FileSystem, MemFs, OpenFlags};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn radix_behaves_like_a_map(pages in proptest::collection::vec(0u64..1 << 20, 1..200)) {
        let radix = Radix::new(1);
        let mut model = std::collections::HashSet::new();
        for &p in &pages {
            let d = radix.get_or_create(p);
            prop_assert_eq!(d.page_no(), p);
            model.insert(p);
        }
        prop_assert_eq!(radix.len(), model.len());
        for &p in &model {
            let d = radix.get(p).expect("inserted page present");
            prop_assert_eq!(d.page_no(), p);
            // Idempotent: create again returns the same descriptor.
            prop_assert!(Arc::ptr_eq(&d, &radix.get_or_create(p)));
        }
        // A page never inserted is absent.
        prop_assert!(radix.get((1 << 21) + 1).is_none());
    }

    #[test]
    fn resource_conserves_service_time(services in proptest::collection::vec(1u64..10_000, 1..100)) {
        let r = ChannelResource::new(1);
        for &s in &services {
            r.serve(SimTime::ZERO, SimTime::from_nanos(s));
        }
        // All requests arrive at t=0 on a serial device: the timeline must
        // extend to exactly the sum of service times.
        prop_assert_eq!(r.busy_until().as_nanos(), services.iter().sum::<u64>());
    }

    #[test]
    fn bandwidth_time_is_monotone(bytes_a in 0u64..1 << 30, bytes_b in 0u64..1 << 30) {
        let bw = Bandwidth::mib_per_sec(123.0);
        let (lo, hi) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        prop_assert!(bw.time_for(lo) <= bw.time_for(hi));
    }

    #[test]
    fn posix_file_model(ops in proptest::collection::vec(
        (0u64..20_000, proptest::collection::vec(any::<u8>(), 1..512)), 1..50))
    {
        // MemFs against a flat Vec<u8> model: positional writes/reads with
        // sparse extension must agree byte for byte.
        let clock = ActorClock::new();
        let fs = MemFs::new();
        let fd = fs.open("/m", OpenFlags::RDWR | OpenFlags::CREATE, &clock).unwrap();
        let mut model: Vec<u8> = Vec::new();
        for (off, data) in &ops {
            fs.pwrite(fd, data, *off, &clock).unwrap();
            let end = *off as usize + data.len();
            if model.len() < end {
                model.resize(end, 0);
            }
            model[*off as usize..end].copy_from_slice(data);
        }
        prop_assert_eq!(fs.fstat(fd, &clock).unwrap().size, model.len() as u64);
        let mut content = vec![0u8; model.len()];
        fs.pread(fd, &mut content, 0, &clock).unwrap();
        prop_assert_eq!(content, model);
    }
}
