//! `db-apps`: the paper's actual target — unmodified storage engines.

use std::sync::Arc;

use nvcache::NvCacheConfig;
use rocklet::{RockletDb, RockletOptions, WriteOptions};
use sqlight::{SqlightDb, SqlightOptions};

use super::{driver_op, set_up, timed, Params, Pass, Window};
use crate::gen::{mix, Rng, StreamHash};
use crate::model::fill;
use crate::stack::{Stack, StackSpec};
use crate::stats::Samples;
use crate::trace::Tracer;

pub const WHY: &str = "unmodified engines: rocklet sync puts and gets, sqlight one-row transactions; the only user of open/close/unlink/rename, fd slots, SST writes, journals, bypass reads";

/// Capacities of the paper's defaults ÷ 256: a 65 536-entry log.
const SCALE: u64 = 256;
/// The keyspace. Two warm-up cycles populate most of it, so the timed phase
/// runs at a steady LSM shape.
const KEYS: u64 = 16_384;
const WARMUP_CYCLES: u32 = 2;
/// A round's put phase is one whole LSM cycle — four memtable flushes and
/// the compaction they trigger — however many puts that takes (about
/// 15 000): 85 % of put time is flush and compaction, so only whole cycles
/// make a pass of any length measure the same mix. The cap is a backstop.
const CYCLE_PUTS_CAP: u64 = 60_000;
const ROUND_GETS: u64 = 4_000;
/// Both engines' ops are the workload's write op and read op, so both move
/// the end-to-end latencies: at these counts `sqlight` takes two fifths of a
/// round's write time (a transaction's median is 112 µs, its mean several
/// times that: a few take milliseconds) and a tenth of its read time.
/// More would cost host time out of proportion: `Ext4::fsync` walks every
/// resident page, and each transaction brings several.
const ROUND_TXNS: u64 = 400;
const ROUND_SQL_GETS: u64 = 1_000;
const TABLE: &str = "bench";
/// Rows the table holds before the timed phase (inserted in one
/// transaction), so that a timed insert lands in a tree of settled depth.
const PREFILL_ROWS: u64 = 20_000;

/// Prefilled row `i` (from 1); timed inserts land between them.
fn prefilled(i: u64) -> i64 {
    (i << 24) as i64
}

/// `(version, value length)` of every key; version 0 = never put.
struct KvModel(Vec<(u32, u16)>);

fn key_bytes(key: u64) -> [u8; 16] {
    let mut k = [0u8; 16];
    k.copy_from_slice(format!("{key:016}").as_bytes());
    k
}

/// A 512 KiB memtable (the default's ratios kept): a cycle is short enough
/// that a run holds a couple of dozen.
fn rock_options(shrink: u64) -> RockletOptions {
    let memtable_bytes = (512 << 10) / shrink as usize;
    RockletOptions {
        memtable_bytes,
        target_table_bytes: 2 * memtable_bytes as u64,
        ..RockletOptions::default()
    }
}

/// Whether the engine sits at a cycle boundary: memtable and L0 both empty,
/// i.e. the last put flushed the fourth table and compacted.
fn cycle_done(rock: &RockletDb) -> bool {
    let (mem, l0, _) = rock.level_summary();
    mem == 0 && l0 == 0
}

/// One sync put of `key`'s next version.
fn put(rock: &RockletDb, model: &mut KvModel, key: u64, len: usize, stack: &Stack) -> bool {
    let mut buf = [0u8; 256];
    let (version, _) = model.0[key as usize];
    model.0[key as usize] = (version + 1, len as u16);
    fill(&mut buf[..len], key, version as u64 + 1);
    rock.put(&key_bytes(key), &buf[..len], &WriteOptions { sync: true }, &stack.clock)
        .is_ok()
}

/// A row's length is a function of its id, so the model needs no table.
fn row_len(rowid: i64) -> usize {
    64 + 8 * (mix(rowid as u64) % 13) as usize
}

pub fn run(params: &Params) -> Pass {
    let mut pass = Pass::default();
    let tracer = params.traced.then(Tracer::new);
    let spec = StackSpec {
        cfg: NvCacheConfig::default().scaled(SCALE * params.shrink),
        ssd_queue_depth: 1,
        track_durability: false,
    };
    let keys = params.scaled(KEYS, 2000);
    let rows = params.scaled(PREFILL_ROWS, 500);
    let (stack, rock, sql, mut model, mut rng) = set_up(
        params,
        &mut pass,
        || {
            let stack = Stack::format(&spec, tracer.clone());
            let fs = Arc::clone(&stack.fs);
            let rock = RockletDb::open(
                Arc::clone(&fs),
                "/rock",
                rock_options(params.shrink),
                &stack.clock,
            )
            .expect("open rocklet");
            let sql = SqlightDb::open(fs, "/sql/bench.db", SqlightOptions::default(), &stack.clock)
                .expect("open sqlight");
            sql.create_table(TABLE, &stack.clock).expect("create table");
            sql.begin().expect("prefill begin");
            let mut row = [0u8; 256];
            for i in 1..=rows {
                let len = row_len(prefilled(i));
                fill(&mut row[..len], prefilled(i) as u64, 0);
                sql.insert(TABLE, prefilled(i), &row[..len], &stack.clock).expect("prefill row");
            }
            sql.commit(&stack.clock).expect("prefill commit");
            let mut model = KvModel(vec![(0, 0); keys as usize]);
            let mut rng = Rng::new(params.seed, 1);
            for _ in 0..WARMUP_CYCLES {
                for n in 1..=CYCLE_PUTS_CAP {
                    let (key, len) = (rng.below(keys), 8 * rng.range(8, 20) as usize);
                    assert!(put(&rock, &mut model, key, len, &stack), "warm-up put");
                    if cycle_done(&rock) || n == CYCLE_PUTS_CAP {
                        break;
                    }
                }
            }
            (stack, rock, sql, model, rng)
        },
        |(stack, rock, sql, ..)| {
            drop((rock, sql));
            stack.shutdown();
        },
    );
    let clock = &stack.clock;
    let gets = params.scaled(ROUND_GETS, 400);
    let (txns, sql_gets) = (params.scaled(ROUND_TXNS, 20), params.scaled(ROUND_SQL_GETS, 20));
    let mut hash = StreamHash::default();
    let mut inserted = 0u64;
    let mut buf = [0u8; 256];
    // Each engine's own latencies, for its per-layer percentiles.
    let (mut put_lat, mut get_lat) = (Samples::default(), Samples::default());
    let (mut txn_lat, mut sql_get_lat) = (Samples::default(), Samples::default());
    // Driver-boundary calls and ops of each phase, for the calls-per-op
    // ratios (traced passes only).
    let calls = |stack: &Stack| stack.tracer.as_ref().map_or(0, |t| t.driver_calls());
    let (mut put_calls, mut get_calls, mut txn_calls) = (0u64, 0u64, 0u64);
    let (mut put_n, mut get_n, mut txn_n) = (0u64, 0u64, 0u64);

    let window = Window::open(&stack);
    for _ in 0..params.rounds {
        // rocklet: sync puts over a random keyspace.
        let c0 = calls(&stack);
        let mut puts = 0u64;
        let (bytes, virt) = timed(&mut pass, clock, 0, |pass| {
            let mut bytes = 0u64;
            while puts < CYCLE_PUTS_CAP {
                puts += 1;
                let key = rng.below(keys);
                let len = 8 * rng.range(8, 20) as usize;
                hash.op(b'p', key, len as u64);
                let (ok, ns) = driver_op(&stack, pass, || put(&rock, &mut model, key, len, &stack));
                pass.writes.push(ns);
                put_lat.push(ns);
                pass.op(ok);
                bytes += len as u64;
                if cycle_done(&rock) {
                    break;
                }
            }
            bytes
        });
        pass.timed_ops += puts;
        pass.write_bytes += bytes;
        pass.write_window_ns += virt;
        put_calls += calls(&stack) - c0;
        put_n += puts;

        // rocklet: gets, each checked against the model.
        let c0 = calls(&stack);
        timed(&mut pass, clock, gets, |pass| {
            for _ in 0..gets {
                let key = rng.below(keys);
                hash.op(b'g', key, 0);
                let (got, ns) = driver_op(&stack, pass, || rock.get(&key_bytes(key), clock));
                pass.reads.push(ns);
                get_lat.push(ns);
                let (version, len) = model.0[key as usize];
                let ok = match got {
                    Ok(None) => version == 0,
                    Ok(Some(v)) => {
                        fill(&mut buf[..len as usize], key, version as u64);
                        version > 0 && v == buf[..len as usize]
                    }
                    Err(_) => false,
                };
                pass.op(ok);
            }
        });
        get_calls += calls(&stack) - c0;
        get_n += gets;

        // sqlight: one-row insert transactions.
        let c0 = calls(&stack);
        let (bytes, virt) = timed(&mut pass, clock, txns, |pass| {
            let mut bytes = 0u64;
            for _ in 0..txns {
                // A fresh id right after a random prefilled row.
                inserted += 1;
                let rowid = prefilled(1 + rng.below(rows)) + inserted as i64;
                let len = row_len(rowid);
                fill(&mut buf[..len], rowid as u64, 0);
                hash.op(b't', rowid as u64, len as u64);
                let (ok, ns) = driver_op(&stack, pass, || {
                    sql.begin().is_ok()
                        && sql.insert(TABLE, rowid, &buf[..len], clock).is_ok()
                        && sql.commit(clock).is_ok()
                });
                pass.writes.push(ns);
                txn_lat.push(ns);
                pass.op(ok);
                bytes += len as u64;
            }
            bytes
        });
        pass.write_bytes += bytes;
        pass.write_window_ns += virt;
        txn_calls += calls(&stack) - c0;
        txn_n += txns;

        // sqlight: point lookups.
        timed(&mut pass, clock, sql_gets, |pass| {
            for _ in 0..sql_gets {
                let rowid = prefilled(1 + rng.below(rows));
                hash.op(b's', rowid as u64, 0);
                let (got, ns) = driver_op(&stack, pass, || sql.get(TABLE, rowid, clock));
                pass.reads.push(ns);
                sql_get_lat.push(ns);
                let len = row_len(rowid);
                fill(&mut buf[..len], rowid as u64, 0);
                pass.op(matches!(got, Ok(Some(row)) if row == buf[..len]));
            }
        });
    }
    window.close(&stack, &mut pass);
    pass.stream_hash = hash.value();
    let per_op = |calls: u64, ops: u64| {
        (stack.tracer.is_some() && ops > 0).then(|| calls as f64 / ops as f64)
    };
    pass.set("rocklet.fs_calls_per_put", per_op(put_calls, put_n), put_n);
    pass.set("rocklet.fs_calls_per_get", per_op(get_calls, get_n), get_n);
    pass.set("sqlight.fs_calls_per_txn", per_op(txn_calls, txn_n), txn_n);
    pass.set("rocklet.put_p50_us", put_lat.quantile_us(0.5), put_n);
    pass.set("rocklet.put_p99_us", put_lat.quantile_us(0.99), put_n);
    pass.set("rocklet.get_p50_us", get_lat.quantile_us(0.5), get_n);
    pass.set("sqlight.txn_p50_us", txn_lat.quantile_us(0.5), txn_n);
    pass.set("sqlight.txn_p99_us", txn_lat.quantile_us(0.99), txn_n);
    pass.set("sqlight.get_p50_us", sql_get_lat.quantile_us(0.5), sql_get_lat.len() as u64);
    drop((rock, sql));
    stack.shutdown();
    pass
}
