//! The traced run: one process replays every workload's seeded inputs
//! through each layer's public entry point in turn, records a span
//! around each call (or each fixed round of calls, for calls shorter
//! than the clock's own cost) and around each client request, and reads
//! the program's own counters. A layer's price is then a subtraction
//! within this one run.
//!
//! The ladder, bottom to top:
//! - `optiql`: `OptiQL::x_lock` + `x_unlock`; restarts and escalations
//!   from `index_stats()` under the `index-hot` mix;
//! - `reclaim`: `Handle::pin`;
//! - `btree`: bare `BTreeOptiQL` calls;
//! - `sharded`: `ShardedIndex::multi_lookup` and `range`;
//! - `wal`: `DurableIndex::multi_insert`, `Wal::commit_dirty` and
//!   `Wal::recover_into`;
//! - `proto`: `Request::encode` and `FrameDecoder`;
//! - `server`: a `kv-read-scan` client phase with a span per request,
//!   and the server's `StatsSnapshot`;
//! - `gen`: a `kv-open-loop` phase, for how late the generator ran.

use std::io;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use optiql::{ExclusiveLock, OptiQL};
use optiql_btree::BTreeOptiQL;
use optiql_index_api::ConcurrentIndex;
use optiql_server::proto::{FrameDecoder, Request, Response, SCAN_PART_MAX};
use optiql_sharded::{ShardedIndex, DEFAULT_BLOCK_BITS};
use optiql_wal::{DurableIndex, FsyncPolicy, Wal, WalConfig};

use crate::check::{self, SCAN_LEN};
use crate::client::{closed_loop, Conn, Reply};
use crate::util::{self, median_f64, Rng, SelfSimilar};
use crate::workloads::{
    build_tagged_tree, hot_pair, open_loop, start_preloaded, BIG_KEYS, DEPTH, SCAN_EVERY,
    SMALL_KEYS,
};
use crate::{Metric, Outcome, Tally};

/// Calls per span for calls that take tens of nanoseconds.
const ROUND: usize = 256;

/// One recorded span: a layer call (or a round of `items` calls), with
/// the span that caused it.
struct Span {
    layer: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
    items: u64,
}

/// All spans of the run, kept in memory and summarized at the end.
#[derive(Default)]
struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Open a step span; close it with [`close`](Self::close).
    fn open(&mut self, layer: &'static str) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            layer,
            parent: None,
            start: now,
            end: now,
            items: 0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Time `f`, covering `items` calls, as a child span of `parent`.
    fn call<T>(
        &mut self,
        parent: usize,
        layer: &'static str,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let r = f();
        self.record(parent, layer, items, start, Instant::now());
        r
    }

    fn record(
        &mut self,
        parent: usize,
        layer: &'static str,
        items: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            layer,
            parent: Some(parent),
            start,
            end,
            items,
        });
    }

    /// Total nanoseconds and items of every span of `layer`.
    fn sum(&self, layer: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0.0, 0), |(ns, n), s| {
                (ns + (s.end - s.start).as_nanos() as f64, n + s.items)
            })
    }

    /// Mean nanoseconds per item of `layer`.
    fn ns_per_item(&self, layer: &str) -> f64 {
        let (ns, n) = self.sum(layer);
        ns / n.max(1) as f64
    }

    /// Self time of a step span: its duration minus what its children
    /// cover.
    fn self_ns(&self, id: usize) -> f64 {
        let own = (self.spans[id].end - self.spans[id].start).as_nanos() as f64;
        let kids: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.end - s.start).as_nanos() as f64)
            .sum();
        own - kids
    }

    /// The ns an empty span measures: the clock's own cost, subtracted
    /// from every per-call figure.
    fn calibrate() -> f64 {
        let mut v: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..100_000 {
                    std::hint::black_box(Instant::now());
                }
                t.elapsed().as_nanos() as f64 / 100_000.0
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v[2]
    }
}

/// Run `round` repeatedly until `slice` has passed (at least once).
fn for_slice(slice: Duration, mut round: impl FnMut()) {
    let end = Instant::now() + slice;
    loop {
        round();
        if Instant::now() >= end {
            return;
        }
    }
}

/// The request mix of `kv-read-scan` (one SCAN in 64), seeded.
fn read_scan_requests(rng: &mut Rng, n: u64, count: usize) -> Vec<Request> {
    (1..=count as u64)
        .map(|i| {
            let key = rng.below(n);
            if i.is_multiple_of(SCAN_EVERY) {
                Request::Scan {
                    start: key,
                    count: SCAN_LEN as u32,
                }
            } else {
                Request::Get { key }
            }
        })
        .collect()
}

/// The response frames the server sends for `req` on preloaded keys.
fn responses_for(req: &Request, n: u64) -> Vec<Response> {
    match *req {
        Request::Get { key } => vec![Response::Value(Some(key + 1))],
        Request::Scan { start, count } => {
            let e: Vec<(u64, u64)> = (start..n.min(start + u64::from(count)))
                .map(|k| (k, k + 1))
                .collect();
            let total = e.len() as u32;
            let mut out: Vec<Response> = e
                .chunks(SCAN_PART_MAX)
                .map(|c| Response::ScanPart(c.to_vec()))
                .collect();
            out.push(Response::ScanEnd { total });
            out
        }
        _ => unreachable!("the read mix holds GETs and SCANs only"),
    }
}

pub fn ladder(seed: u64, seconds: f64, work: &Path) -> io::Result<Outcome> {
    // The timed steps below add up to 20 slices, so they fill the run.
    let slice = Duration::from_secs_f64((seconds / 20.0).max(0.05));
    let clock_ns = Trace::calibrate();
    let mut tr = Trace::default();
    let mut tally = Tally::default();
    let mut m: Vec<Metric> = Vec::new();
    let mut notes = vec![format!(
        "clock_ns={clock_ns:.2} slice_s={:.3}",
        slice.as_secs_f64()
    )];
    let price = |tr: &Trace, layer: &str| {
        (tr.ns_per_item(layer) - clock_ns_share(tr, layer, clock_ns)).max(0.0)
    };

    // ---- proto: the kv-read-scan request mix through the codec.
    let mut rng = Rng::new(seed, 20);
    let reqs = read_scan_requests(&mut rng, BIG_KEYS, 4096);
    let step = tr.open("proto");
    let mut wire = Vec::with_capacity(reqs.len() * 24);
    for_slice(slice, || {
        wire.clear();
        tr.call(step, "proto.encode", reqs.len() as u64, || {
            for r in &reqs {
                r.encode(&mut wire);
            }
        });
    });
    for_slice(slice, || {
        let mut dec = FrameDecoder::new();
        let decoded = tr.call(step, "proto.decode", reqs.len() as u64, || {
            dec.feed(&wire);
            let mut got = 0usize;
            while let Ok(Some(r)) = dec.next_request() {
                got += usize::from(std::hint::black_box(r) != Request::Shutdown);
            }
            got
        });
        tally.check(decoded == reqs.len());
    });
    let resp: Vec<Vec<Response>> = reqs.iter().map(|r| responses_for(r, BIG_KEYS)).collect();
    let mut rbuf = Vec::new();
    for_slice(slice, || {
        let mut dec = FrameDecoder::new();
        let ok = tr.call(step, "proto.resp", reqs.len() as u64, || {
            let mut ok = true;
            for frames in &resp {
                rbuf.clear();
                for f in frames {
                    f.encode(&mut rbuf);
                }
                dec.feed(&rbuf);
                for f in frames {
                    ok &= dec.next_response().ok().flatten().as_ref() == Some(f);
                }
            }
            ok
        });
        tally.check(ok);
    });
    tr.close(step);
    let enc = price(&tr, "proto.encode");
    let dec = price(&tr, "proto.decode");
    let rt = price(&tr, "proto.resp");
    m.push(Metric::new("proto.req_encode_ns", enc, "ns"));
    m.push(Metric::new("proto.req_decode_ns", dec, "ns"));
    m.push(Metric::new("proto.resp_roundtrip_ns", rt, "ns"));
    let codec_ns = enc + dec + rt;

    // ---- sharded: 8 B+-tree shards of 4 Mi keys, as the server serves.
    let n = BIG_KEYS;
    let sharded: Arc<ShardedIndex<BTreeOptiQL>> = Arc::new(ShardedIndex::new(8));
    for k in 0..n {
        sharded.insert(k, k + 1);
    }
    let step = tr.open("sharded");
    let mut rng = Rng::new(seed, 21);
    for_slice(slice, || {
        let keys: Vec<u64> = (0..DEPTH).map(|_| rng.below(n)).collect();
        let got = tr.call(step, "sharded.multi_lookup", keys.len() as u64, || {
            sharded.multi_lookup(&keys)
        });
        for (k, v) in keys.iter().zip(got) {
            tally.check(check::get_ok(*k, v));
        }
    });
    for_slice(slice, || {
        let start = rng.below(n);
        let got: Vec<(u64, u64)> = tr.call(step, "sharded.range100", 1, || {
            sharded
                .range(Bound::Included(start), Bound::Unbounded)
                .take(SCAN_LEN as usize)
                .collect()
        });
        tally.check(check::scan_ok(start, n, &got, |k| k + 1));
    });
    // The SET path below the log, for the WAL subtraction.
    let set_rounds: Vec<Vec<(u64, u64)>> = (0..512)
        .map(|_| {
            (0..DEPTH)
                .map(|_| rng.below(n))
                .map(|k| (k, k + 1))
                .collect()
        })
        .collect();
    let mut r = 0;
    for_slice(slice, || {
        let pairs = &set_rounds[r % set_rounds.len()];
        r += 1;
        let got = tr.call(step, "sharded.multi_insert", pairs.len() as u64, || {
            sharded.multi_insert(pairs)
        });
        for ((k, _), old) in pairs.iter().zip(got) {
            tally.check(check::set_ok(k + 1, old));
        }
    });
    tr.close(step);
    let ml = price(&tr, "sharded.multi_lookup");
    let rg = price(&tr, "sharded.range100");
    m.push(Metric::new("sharded.multi_lookup_ns_per_key", ml, "ns"));
    m.push(Metric::new("sharded.range100_us", rg / 1e3, "us"));

    // ---- wal: the same SETs through a group-commit log, one commit per
    // round of DEPTH, then replay.
    let dir = work.join("trace-wal");
    let wal_cfg = || WalConfig {
        dir: dir.clone(),
        shards: 8,
        block_bits: DEFAULT_BLOCK_BITS,
        policy: FsyncPolicy::Group,
    };
    let wal = Arc::new(Wal::open(wal_cfg())?);
    let durable = DurableIndex::new(Arc::clone(&sharded), Arc::clone(&wal));
    let step = tr.open("wal");
    let w0 = wal.stats();
    let mut r = 0;
    for_slice(slice * 2, || {
        let pairs = &set_rounds[r % set_rounds.len()];
        r += 1;
        let got = tr.call(step, "wal.multi_insert", pairs.len() as u64, || {
            durable.multi_insert(pairs)
        });
        tr.call(step, "wal.commit", 1, || wal.commit_dirty());
        for ((k, _), old) in pairs.iter().zip(got) {
            tally.check(check::set_ok(k + 1, old));
        }
    });
    tr.close(step);
    let ws = wal.stats().since(&w0);
    drop(durable);
    drop(wal);
    let sharded_set = price(&tr, "sharded.multi_insert");
    let logged_set = price(&tr, "wal.multi_insert");
    let records = ws.records.max(1) as f64;
    m.push(Metric::new(
        "wal.append_ns_per_write",
        logged_set - sharded_set,
        "ns",
    ));
    m.push(Metric::new(
        "wal.commit_us_per_round",
        tr.ns_per_item("wal.commit") / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "wal.fsyncs_per_write",
        ws.fsyncs as f64 / records,
        "count",
    ));
    m.push(Metric::new(
        "wal.bytes_per_write",
        ws.bytes as f64 / records,
        "B",
    ));
    let step = tr.open("wal.recover");
    let mut rates = Vec::new();
    for _ in 0..3 {
        let wal = Wal::open(wal_cfg())?;
        let fresh: ShardedIndex<BTreeOptiQL> = ShardedIndex::new(8);
        let t = Instant::now();
        let rep = tr.call(step, "wal.replay", 1, || wal.recover_into::<u64, _>(&fresh))?;
        rates.push(rep.applied() as f64 / util::secs_since(t));
        tally.check(rep.applied() == ws.records);
    }
    tr.close(step);
    std::fs::remove_dir_all(&dir)?;
    m.push(Metric::new(
        "wal.replay_records_per_s",
        median_f64(&rates),
        "1/s",
    ));
    drop(sharded);

    // ---- btree: one bare BTreeOptiQL of 4 Mi tagged keys.
    let tree = build_tagged_tree(n);
    let step = tr.open("btree");
    let mut rng = Rng::new(seed, 22);
    for_slice(slice, || {
        let keys: Vec<u64> = (0..ROUND).map(|_| rng.below(n)).collect();
        let got: Vec<Option<u64>> = tr.call(step, "btree.lookup", ROUND as u64, || {
            keys.iter().map(|&k| tree.lookup(k)).collect()
        });
        for (k, v) in keys.iter().zip(got) {
            tally.check(check::tag_ok(*k, v));
        }
    });
    for_slice(slice, || {
        let keys: Vec<u64> = (0..DEPTH).map(|_| rng.below(n)).collect();
        let got = tr.call(step, "btree.multi_lookup", keys.len() as u64, || {
            tree.multi_lookup(&keys)
        });
        for (k, v) in keys.iter().zip(got) {
            tally.check(check::tag_ok(*k, v));
        }
    });
    for_slice(slice, || {
        let start = rng.below(n);
        let got: Vec<(u64, u64)> = tr.call(step, "btree.range100", 1, || {
            tree.range(Bound::Included(start), Bound::Unbounded)
                .take(SCAN_LEN as usize)
                .collect()
        });
        tally.check(check::sweep_chunk_ok(start, n, &got));
    });
    let hot = SelfSimilar::new(n);
    let mut seq = 0u32;
    for_slice(slice, || {
        seq = seq.wrapping_add(1);
        let keys: Vec<u64> = (0..ROUND).map(|_| hot.sample(&mut rng)).collect();
        let got: Vec<Option<u64>> = tr.call(step, "btree.update", ROUND as u64, || {
            keys.iter()
                .map(|&k| tree.update(k, check::tagged(k, seq)))
                .collect()
        });
        for (k, v) in keys.iter().zip(got) {
            tally.check(check::tag_ok(*k, v));
        }
    });
    for_slice(slice, || {
        seq = seq.wrapping_add(1);
        let pairs: Vec<(u64, u64)> = (0..DEPTH)
            .map(|_| rng.below(n))
            .map(|k| (k, check::tagged(k, seq)))
            .collect();
        let got = tr.call(step, "btree.multi_insert", pairs.len() as u64, || {
            tree.multi_insert(&pairs)
        });
        for ((k, _), v) in pairs.iter().zip(got) {
            tally.check(check::tag_ok(*k, v));
        }
    });
    tr.close(step);
    m.push(Metric::new(
        "btree.lookup_ns",
        price(&tr, "btree.lookup"),
        "ns",
    ));
    m.push(Metric::new(
        "btree.multi_lookup_ns_per_key",
        price(&tr, "btree.multi_lookup"),
        "ns",
    ));
    m.push(Metric::new(
        "btree.range100_us",
        price(&tr, "btree.range100") / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "btree.update_ns",
        price(&tr, "btree.update"),
        "ns",
    ));
    m.push(Metric::new(
        "btree.insert_ns_per_key",
        price(&tr, "btree.multi_insert"),
        "ns",
    ));

    // ---- optiql: the lock word alone, then the index-hot mix's
    // restarts on the same tree, 2 threads pinned one per core.
    let step = tr.open("optiql");
    let lock = OptiQL::default();
    for_slice(slice, || {
        tr.call(step, "optiql.x_lock", ROUND as u64, || {
            for _ in 0..ROUND {
                let t = lock.x_lock();
                lock.x_unlock(std::hint::black_box(t));
            }
        });
    });
    let s0 = tree.index_stats();
    let deadline = Instant::now() + slice;
    let (hot_tally, _, _) = hot_pair(&tree, n, seed, deadline);
    tally.merge(&hot_tally);
    let st = tree.index_stats().since(&s0);
    tr.close(step);
    m.push(Metric::new(
        "optiql.x_lock_ns",
        price(&tr, "optiql.x_lock"),
        "ns",
    ));
    m.push(Metric::new(
        "optiql.restarts_per_op",
        st.restarts as f64 / st.ops.max(1) as f64,
        "count",
    ));
    m.push(Metric::new(
        "optiql.escalations_per_op",
        st.escalations as f64 / st.ops.max(1) as f64,
        "count",
    ));

    // ---- reclaim: an outermost epoch pin on the tree's domain.
    let step = tr.open("reclaim");
    let handle = tree
        .reclaim_handle()
        .expect("the B+-tree has a reclaim domain");
    for_slice(slice, || {
        tr.call(step, "reclaim.pin", ROUND as u64, || {
            for _ in 0..ROUND {
                drop(std::hint::black_box(handle.pin()));
            }
        });
    });
    tr.close(step);
    drop(handle);
    drop(tree);
    m.push(Metric::new(
        "reclaim.pin_ns",
        price(&tr, "reclaim.pin"),
        "ns",
    ));

    // ---- server: a kv-read-scan client phase, one span per request.
    let h = start_preloaded(n, None)?;
    let addr = h.addr();
    let st0 = h.stats();
    let step = tr.open("server");
    let mut rng = Rng::new(seed, 23);
    let mut req_spans: Vec<(Instant, Instant)> = Vec::new();
    let (phase, sent) = util::on_core1(|| -> io::Result<(f64, u64)> {
        let mut conn = Conn::connect(addr)?;
        let mut i = 0u64;
        let start = Instant::now();
        let end = start + slice * 2;
        let mut open = true;
        closed_loop(
            &mut conn,
            DEPTH,
            || {
                if i.is_multiple_of(SCAN_EVERY) && open && Instant::now() >= end {
                    open = false;
                }
                if !open {
                    return None;
                }
                i += 1;
                let key = rng.below(n);
                Some(if i.is_multiple_of(SCAN_EVERY) {
                    let s = Request::Scan {
                        start: key,
                        count: SCAN_LEN as u32,
                    };
                    (s, (key, true))
                } else {
                    (Request::Get { key }, (key, false))
                })
            },
            |(key, scan), reply, sent, now| {
                req_spans.push((sent, now));
                tally.check(match (&reply, scan) {
                    (Reply::Scan(e, t), true) => {
                        *t as usize == e.len() && check::scan_ok(key, n, e, |k| k + 1)
                    }
                    (Reply::Value(v), false) => check::get_ok(key, *v),
                    _ => false,
                });
            },
        )?;
        Ok((util::secs_since(start), i))
    })
    .0?;
    for &(s, e) in &req_spans {
        tr.record(step, "server.request", 1, s, e);
    }
    tr.close(step);
    let st = h.stats();
    h.shutdown();
    let reqs_done = st.requests - st0.requests;
    let client_us = phase * 1e6 / sent.max(1) as f64;
    let scan_share = 1.0 / SCAN_EVERY as f64;
    let index_us = ((1.0 - scan_share) * ml + scan_share * rg) / 1e3;
    m.push(Metric::new(
        "server.ops_per_burst",
        reqs_done as f64 / (st.groups - st0.groups).max(1) as f64,
        "count",
    ));
    m.push(Metric::new(
        "server.batched_share",
        (st.batched_ops - st0.batched_ops) as f64 / (st.index_ops - st0.index_ops).max(1) as f64,
        "ratio",
    ));
    m.push(Metric::new(
        "server.self_us_per_req",
        client_us - codec_ns / 1e3 - index_us,
        "us",
    ));
    let mut span_lat: Vec<u64> = req_spans
        .iter()
        .map(|(s, e)| (*e - *s).as_nanos() as u64)
        .collect();
    notes.push(format!(
        "traced kv-read-scan phase: ops_per_s={:.0} p50_us={:.3} (compare the untraced run for tracing overhead)",
        sent as f64 / phase,
        util::quantile(&mut span_lat, 0.5) as f64 / 1e3
    ));
    tally.check(reqs_done == sent);

    // ---- gen: a kv-open-loop phase.
    let h = start_preloaded(SMALL_KEYS, None)?;
    let addr = h.addr();
    let mut rng = Rng::new(seed, 24);
    let gen = (slice * 2).as_secs_f64();
    let mut p = util::on_core1(|| open_loop(addr, SMALL_KEYS, &mut rng, gen)).0?;
    h.shutdown();
    tally.merge(&p.tally);
    m.push(Metric::new("gen.late_p99_us", p.late.us(0.99), "us"));
    notes.push(format!(
        "traced kv-open-loop phase: p50_us={:.3}",
        p.windows.lat_us(0.5)
    ));

    // The server step is left out: its request spans overlap (32 in
    // flight), so their sum exceeds the step.
    for layer in ["proto", "sharded", "wal", "btree", "optiql", "reclaim"] {
        if let Some(id) = tr
            .spans
            .iter()
            .position(|s| s.layer == layer && s.parent.is_none())
        {
            notes.push(format!("span {layer}: self_ms={:.1}", tr.self_ns(id) / 1e6));
        }
    }
    notes.push(format!("spans={}", tr.spans.len()));
    Ok(Outcome {
        correct: true,
        tally,
        metrics: m,
        notes,
    })
}

/// The clock cost per item of a span of `layer` (one clock read per
/// span, spread over its items).
fn clock_ns_share(tr: &Trace, layer: &str, clock_ns: f64) -> f64 {
    let spans = tr.spans.iter().filter(|s| s.layer == layer).count() as f64;
    let (_, items) = tr.sum(layer);
    clock_ns * spans / items.max(1) as f64
}
