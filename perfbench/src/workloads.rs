//! The four end-to-end workloads. Each measures with tracing off and
//! checks every reply against a result computed on the client side.

use std::io;
use std::net::SocketAddr;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use optiql_btree::BTreeOptiQL;
use optiql_server::proto::Request;
use optiql_server::{server, BackendKind, Dispatch, FsyncPolicy, ServerConfig, ServerHandle};

use crate::check::{self, Model, SCAN_LEN};
use crate::client::{closed_loop, Conn, Reply};
use crate::util::{
    self, median_f64, quantile, secs_since, Rng, SelfSimilar, Series, StealMeter, Windows,
};
use crate::{Metric, Outcome, Tally};

/// Dense keys preloaded for `kv-read-scan` and built for `index-hot`.
pub const BIG_KEYS: u64 = 4 << 20;
/// Dense keys preloaded for `kv-write-durable` and `kv-open-loop`.
pub const SMALL_KEYS: u64 = 1 << 20;
/// Requests a closed-loop client keeps in flight.
pub const DEPTH: usize = 32;
/// One request in this many is a SCAN in `kv-read-scan`.
pub const SCAN_EVERY: u64 = 64;
/// SETs per write cycle of `kv-write-durable`; fixed so every restart
/// replays a log of the same length.
pub const SETS_PER_CYCLE: u64 = 1 << 17;
/// Poisson arrival rate of `kv-open-loop`, requests per second.
pub const OPEN_RATE: f64 = 20_000.0;
/// Set-ups per run; `setup_s` is their median. Each in-memory run is cut
/// into this many segments, each on a fresh set-up, so that set-ups and
/// measurements sample the host across the whole run.
const SETUPS: usize = 5;
/// Every this-many-th GET or index call has its latency recorded.
const SAMPLE_EVERY: u64 = 8;

/// The served configuration: 8 B+-tree shards behind one pinned worker
/// with grouped dispatch, so the server keeps one core and the load
/// thread the other.
fn server_cfg(wal_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        backend: BackendKind::ShardedBtree { shards: 8 },
        workers: 1,
        dispatch: Dispatch::Grouped,
        preload: 0,
        wal_dir,
        fsync: FsyncPolicy::Group,
        ..ServerConfig::default()
    }
}

/// Start a server and preload dense keys `0..keys` with value `key + 1`
/// through its served index: the inserts (and, with a WAL, the commit)
/// that `ServerConfig::preload` makes, but on core 1. `server::start`
/// itself must run unpinned (see `util::on_core1`), and a 4 Mi-key build
/// took 0.62–0.64 s on core 1 against 0.72–0.94 s on core 0.
pub fn start_preloaded(keys: u64, wal_dir: Option<PathBuf>) -> io::Result<ServerHandle> {
    let h = server::start(&server_cfg(wal_dir))?;
    let index = Arc::clone(h.index());
    let wal = h.wal().cloned();
    util::on_core1(move || {
        for k in 0..keys {
            index.insert(k, k + 1);
        }
        if let Some(w) = wal {
            w.commit_dirty();
        }
    });
    Ok(h)
}

/// Latency samples in nanoseconds, reported in microseconds (for
/// samples taken outside a windowed phase: SCAN sweeps, lateness).
#[derive(Default)]
pub struct Lat(pub Vec<u64>);

impl Lat {
    pub fn push(&mut self, from: Instant, to: Instant) {
        self.0
            .push(to.saturating_duration_since(from).as_nanos() as u64);
    }

    pub fn us(&mut self, q: f64) -> f64 {
        quantile(&mut self.0, q) as f64 / 1e3
    }
}

/// Set-up and restart timings of one run.
#[derive(Default)]
struct Setups {
    setup: Vec<f64>,
    recovery: Vec<f64>,
    mem_per_key: f64,
}

impl Setups {
    fn metrics(&self, out: &mut Vec<Metric>) {
        out.push(Metric::new("setup_s", median_f64(&self.setup), "s"));
        out.push(Metric::new("recovery_s", median_f64(&self.recovery), "s"));
        out.push(Metric::new("mem_bytes_per_key", self.mem_per_key, "B"));
    }
}

/// Stop the previous in-memory server, if any, and start a new one with
/// `keys` preloaded, recording the set-up time. A restart of an
/// in-memory server is a stop plus a full preload, so that is what
/// `recovery_s` times.
fn next_server(prev: Option<ServerHandle>, keys: u64, s: &mut Setups) -> io::Result<ServerHandle> {
    let restart = prev.is_some();
    let t = Instant::now();
    if let Some(h) = prev {
        h.shutdown();
    }
    let stop = secs_since(t);
    let rss0 = util::rss_bytes();
    let t = Instant::now();
    let h = start_preloaded(keys, None)?;
    let setup = secs_since(t);
    if restart {
        s.recovery.push(stop + setup);
    } else {
        s.mem_per_key = util::rss_bytes().saturating_sub(rss0) as f64 / keys as f64;
    }
    s.setup.push(setup);
    Ok(h)
}

/// The server executed exactly the requests the client sent, and closed
/// no connection for a protocol error.
fn server_agrees(h: &ServerHandle, sent: u64) -> bool {
    let st = h.stats();
    st.requests == sent && st.proto_errors == 0
}

/// Note the steal time of the phase just ended and the core the load
/// ran on.
fn note_phase(notes: &mut Vec<String>, steal: &StealMeter, core: i32) {
    let (ticks, share) = steal.read();
    notes.push(format!(
        "steal_ticks={ticks} steal_share={share:.4} load_core={core}"
    ));
}

/// Closed-loop SCANs over `0..n` in steps of `SCAN_LEN`, one at a time,
/// each checked against `value_of`. Returns the SCAN latencies.
fn scan_sweep(
    addr: SocketAddr,
    n: u64,
    value_of: impl Fn(u64) -> u64,
    tally: &mut Tally,
) -> io::Result<Lat> {
    let mut conn = Conn::connect(addr)?;
    let mut lat = Lat::default();
    let mut start = 0u64;
    closed_loop(
        &mut conn,
        1,
        || {
            (start < n).then(|| {
                let s = start;
                start += SCAN_LEN;
                (
                    Request::Scan {
                        start: s,
                        count: SCAN_LEN as u32,
                    },
                    s,
                )
            })
        },
        |s, reply, sent, now| {
            lat.push(sent, now);
            tally.check(
                matches!(&reply, Reply::Scan(e, t) if *t as usize == e.len() && check::scan_ok(s, n, e, &value_of)),
            );
        },
    )?;
    Ok(lat)
}

/// The end-to-end metrics every workload reports.
fn e2e(w: &mut Windows, scan_lat: &mut Lat, setups: &Setups) -> Vec<Metric> {
    let mut m = vec![
        Metric::new("ops_per_s", w.ops_per_s(), "1/s"),
        Metric::new("p50_us", w.lat_us(0.5), "us"),
        Metric::new("p90_us", w.lat_us(0.9), "us"),
        Metric::new("scan_p50_us", scan_lat.us(0.5), "us"),
    ];
    setups.metrics(&mut m);
    m
}

/// `kv-read-scan`: uniform GETs with one SCAN in 64, depth 32, one
/// connection, 4 Mi keys, no WAL. The run is `SETUPS` segments, each on a
/// freshly started server, so set-ups and measurements are spread over
/// the whole run.
pub fn kv_read_scan(seed: u64, seconds: f64) -> io::Result<Outcome> {
    let n = BIG_KEYS;
    let seg = Duration::from_secs_f64(seconds / SETUPS as f64);
    let mut setups = Setups::default();
    let mut tally = Tally::default();
    let mut w = Windows::default();
    let mut scan_lat = Lat::default();
    let mut rng = Rng::new(seed, 1);
    let mut correct = true;
    let mut core = -1;
    let steal = StealMeter::start();
    let mut h: Option<ServerHandle> = None;
    for _ in 0..SETUPS {
        let srv = next_server(h.take(), n, &mut setups)?;
        let addr = srv.addr();
        let (phase, c) = util::on_core1(|| -> io::Result<_> {
            let mut conn = Conn::connect(addr)?;
            let mut i = 0u64;
            let start = Instant::now();
            let mut series = Series::new(start);
            let deadline = start + seg;
            let mut open = true;
            closed_loop(
                &mut conn,
                DEPTH,
                || {
                    // Whole rounds of SCAN_EVERY requests, so every run
                    // sends the same GET/SCAN mix.
                    if i.is_multiple_of(SCAN_EVERY) && open && Instant::now() >= deadline {
                        open = false;
                    }
                    if !open {
                        return None;
                    }
                    i += 1;
                    let key = rng.below(n);
                    Some(if i.is_multiple_of(SCAN_EVERY) {
                        let req = Request::Scan {
                            start: key,
                            count: SCAN_LEN as u32,
                        };
                        (req, (key, true, false))
                    } else {
                        (
                            Request::Get { key },
                            (key, false, i.is_multiple_of(SAMPLE_EVERY)),
                        )
                    })
                },
                |(key, scan, sample), reply, sent, now| {
                    series.ops(now, 1);
                    let ok = match (&reply, scan) {
                        (Reply::Scan(e, t), true) => {
                            scan_lat.push(sent, now);
                            *t as usize == e.len() && check::scan_ok(key, n, e, |k| k + 1)
                        }
                        (Reply::Value(v), false) => {
                            if sample {
                                series.lat(sent, now);
                            }
                            check::get_ok(key, *v)
                        }
                        _ => false,
                    };
                    tally.check(ok);
                },
            )?;
            w.extend(series.close(deadline));
            Ok(i)
        });
        core = c;
        correct &= server_agrees(&srv, phase?);
        h = Some(srv);
    }
    if let Some(srv) = h {
        srv.shutdown();
    }
    let mut notes = Vec::new();
    note_phase(&mut notes, &steal, core);
    notes.push(format!(
        "p99_us={:.3} {}",
        w.pooled_us(0.99),
        w.spread_note()
    ));
    Ok(Outcome {
        correct,
        tally,
        metrics: e2e(&mut w, &mut scan_lat, &setups),
        notes,
    })
}

/// A fresh, empty directory for one write cycle's log.
fn fresh_dir(work: &Path, cycle: usize) -> io::Result<PathBuf> {
    let d = work.join(format!("wal-{cycle}"));
    if d.exists() {
        std::fs::remove_dir_all(&d)?;
    }
    std::fs::create_dir_all(&d)?;
    Ok(d)
}

/// `kv-write-durable`: write cycles on a group-commit WAL. Each cycle
/// preloads 1 Mi keys through a fresh log, sends `SETS_PER_CYCLE` uniform
/// SETs at depth 32, stops cleanly, restarts on the same log and checks
/// every key against the client's model with a SCAN sweep. Cycles repeat
/// until the SET phases add up to `seconds` (and at least `SETUPS`
/// times).
pub fn kv_write_durable(seed: u64, seconds: f64, work: &Path) -> io::Result<Outcome> {
    let n = SMALL_KEYS;
    let mut setups = Setups::default();
    let mut tally = Tally::default();
    let mut w = Windows::default();
    let mut scan_lat = Lat::default();
    let mut set_secs = 0.0f64;
    let mut correct = true;
    let mut notes = Vec::new();
    let mut rng = Rng::new(seed, 2);
    let mut core = -1;
    let steal = StealMeter::start();
    let mut cycle = 0;
    while cycle < SETUPS || set_secs < seconds {
        let dir = fresh_dir(work, cycle)?;
        let rss0 = util::rss_bytes();
        let t = Instant::now();
        let h = start_preloaded(n, Some(dir.clone()))?;
        setups.setup.push(secs_since(t));
        if cycle == 0 {
            setups.mem_per_key = util::rss_bytes().saturating_sub(rss0) as f64 / n as f64;
        }

        let mut model = Model::preloaded(n);
        let addr = h.addr();
        let (phase, c) = util::on_core1(|| -> io::Result<_> {
            let mut conn = Conn::connect(addr)?;
            let mut tally = Tally::default();
            let mut left = SETS_PER_CYCLE;
            let start = Instant::now();
            let mut series = Series::new(start);
            closed_loop(
                &mut conn,
                DEPTH,
                || {
                    (left > 0).then(|| {
                        left -= 1;
                        let key = rng.below(n);
                        let value = rng.next_u64();
                        (Request::Set { key, value }, model.set(key, value))
                    })
                },
                |old, reply, sent, now| {
                    series.ops(now, 1);
                    series.lat(sent, now);
                    tally.check(matches!(reply, Reply::Old(got) if check::set_ok(old, got)));
                },
            )?;
            let end = Instant::now();
            Ok((tally, series.close(end), (end - start).as_secs_f64()))
        });
        let (t_set, w_set, secs) = phase?;
        core = c;
        tally.merge(&t_set);
        w.extend(w_set);
        set_secs += secs;
        correct &= server_agrees(&h, SETS_PER_CYCLE);

        let t = Instant::now();
        h.shutdown();
        let h = server::start(&server_cfg(Some(dir.clone())))?;
        setups.recovery.push(secs_since(t));
        let replayed = h.recovery().map_or(0, |r| r.applied());
        correct &= replayed == n + SETS_PER_CYCLE;

        let addr = h.addr();
        let sweep = util::on_core1(|| scan_sweep(addr, n, |k| model.value(k), &mut tally)).0?;
        correct &= server_agrees(&h, n.div_ceil(SCAN_LEN));
        scan_lat.0.extend(sweep.0);
        h.shutdown();
        std::fs::remove_dir_all(&dir)?;
        cycle += 1;
    }
    note_phase(&mut notes, &steal, core);
    notes.push(format!(
        "cycles={cycle} p99_us={:.3} {}",
        w.pooled_us(0.99),
        w.spread_note()
    ));
    Ok(Outcome {
        correct,
        tally,
        metrics: e2e(&mut w, &mut scan_lat, &setups),
        notes,
    })
}

/// Build the `index-hot` tree: dense keys, each value tagged with its
/// key.
pub fn build_tagged_tree(n: u64) -> BTreeOptiQL {
    let t = <BTreeOptiQL>::new();
    for k in 0..n {
        t.insert(k, check::tagged(k, 0));
    }
    t
}

/// The final ordered sweep of `index-hot`: `range` in chunks of
/// `SCAN_LEN` chained from key 0, each chunk checked for consecutive keys
/// carrying their own tags. Returns the chunk latencies.
pub fn ordered_sweep(tree: &BTreeOptiQL, n: u64, tally: &mut Tally) -> Lat {
    let mut lat = Lat::default();
    let mut chunk = Vec::with_capacity(SCAN_LEN as usize);
    let mut start = 0;
    while start < n {
        let t = Instant::now();
        chunk.clear();
        chunk.extend(
            tree.range(Bound::Included(start), Bound::Unbounded)
                .take(SCAN_LEN as usize),
        );
        lat.push(t, Instant::now());
        tally.check(check::sweep_chunk_ok(start, n, &chunk));
        start += SCAN_LEN;
    }
    lat
}

/// One `index-hot` thread: 50% lookup, 50% update, self-similar 0.2,
/// from `start` until `deadline`, in whole rounds of 256 calls.
pub fn hot_thread(
    tree: &BTreeOptiQL,
    n: u64,
    seed: u64,
    t: u64,
    start: Instant,
    deadline: Instant,
) -> (Tally, Series) {
    let dist = SelfSimilar::new(n);
    let mut rng = Rng::new(seed, 10 + t);
    let mut tally = Tally::default();
    let mut series = Series::new(start);
    let mut seq = 0u32;
    loop {
        for i in 0..256u64 {
            let key = dist.sample(&mut rng);
            let update = rng.next_u64() & 1 == 1;
            let t0 = (i.is_multiple_of(SAMPLE_EVERY)).then(Instant::now);
            let got = if update {
                seq = seq.wrapping_add(1);
                tree.update(key, check::tagged(key, seq))
            } else {
                tree.lookup(key)
            };
            if let Some(t0) = t0 {
                series.lat(t0, Instant::now());
            }
            tally.check(check::tag_ok(key, got));
        }
        let now = Instant::now();
        series.ops(now, 256);
        if now >= deadline {
            return (tally, series);
        }
    }
}

/// Run `hot_thread` on 2 threads pinned one per core until `deadline`.
pub fn hot_pair(
    tree: &BTreeOptiQL,
    n: u64,
    seed: u64,
    deadline: Instant,
) -> (Tally, Series, Vec<i32>) {
    let start = Instant::now();
    let per_thread: Vec<(Tally, Series, i32)> = std::thread::scope(|sc| {
        let hs: Vec<_> = (0..2u64)
            .map(|t| {
                sc.spawn(move || {
                    util::pin(t as usize);
                    let (tally, series) = hot_thread(tree, n, seed, t, start, deadline);
                    (tally, series, util::current_core())
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("index thread panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut series = Series::new(start);
    let mut cores = Vec::new();
    for (t, s, core) in per_thread {
        tally.merge(&t);
        series.merge(s);
        cores.push(core);
    }
    (tally, series, cores)
}

/// `index-hot`: 2 threads pinned one per core on one in-process
/// `BTreeOptiQL` of 4 Mi keys. The run is `SETUPS` segments, each on a
/// freshly built tree and ending with an ordered sweep.
pub fn index_hot(seed: u64, seconds: f64) -> io::Result<Outcome> {
    let n = BIG_KEYS;
    let seg = Duration::from_secs_f64(seconds / SETUPS as f64);
    let mut setups = Setups::default();
    let mut tally = Tally::default();
    let mut w = Windows::default();
    let mut scan_lat = Lat::default();
    let mut restarts = (0, 0);
    let mut cores = Vec::new();
    let mut correct = true;
    let steal = StealMeter::start();
    let mut tree: Option<BTreeOptiQL> = None;
    for i in 0..SETUPS as u64 {
        let t = util::on_core1(|| {
            let s = Instant::now();
            drop(tree.take());
            let stop = secs_since(s);
            let rss0 = util::rss_bytes();
            let s = Instant::now();
            let t = build_tagged_tree(n);
            let setup = secs_since(s);
            if i == 0 {
                setups.mem_per_key = util::rss_bytes().saturating_sub(rss0) as f64 / n as f64;
            } else {
                setups.recovery.push(stop + setup);
            }
            setups.setup.push(setup);
            t
        })
        .0;
        let stats0 = t.index_stats();
        let deadline = Instant::now() + seg;
        let (hot_tally, series, c) = hot_pair(&t, n, seed ^ (i << 32), deadline);
        tally.merge(&hot_tally);
        w.extend(series.close(deadline));
        cores = c;
        let st = t.index_stats().since(&stats0);
        restarts = (restarts.0 + st.restarts, restarts.1 + st.ops);
        util::on_core1(|| scan_lat.0.extend(ordered_sweep(&t, n, &mut tally).0));
        correct &= t.len() as u64 == n;
        tree = Some(t);
    }
    let (ticks, share) = steal.read();
    let notes = vec![format!(
        "steal_ticks={ticks} steal_share={share:.4} load_cores={cores:?} restarts_per_op={:.6} p99_us={:.3} {}",
        restarts.0 as f64 / restarts.1.max(1) as f64,
        w.pooled_us(0.99),
        w.spread_note()
    )];
    Ok(Outcome {
        correct,
        tally,
        metrics: e2e(&mut w, &mut scan_lat, &setups),
        notes,
    })
}

/// What the open-loop generator measured.
pub struct OpenPhase {
    pub tally: Tally,
    /// Reply time minus due time, by window.
    pub windows: Windows,
    /// Send time minus due time.
    pub late: Lat,
    pub sent: u64,
}

/// Poisson arrivals at `OPEN_RATE` for `seconds` on one connection: 90%
/// GETs, 10% SETs of `key + 1`, uniform over `0..n`. The generator spins
/// and sends each request at its due time; every latency is timed from
/// the due time. Callers pin it to core 1: left unpinned, it was found on
/// the worker's core in 2 of 5 runs, with its p99 lateness at 0.4–0.7 ms
/// and the run's p90 latency 7× higher.
pub fn open_loop(addr: SocketAddr, n: u64, rng: &mut Rng, seconds: f64) -> io::Result<OpenPhase> {
    let mut plan: Vec<(u64, u64, bool)> = Vec::new();
    let mut due = 0.0f64;
    loop {
        due += -(1.0 - rng.unit()).ln() / OPEN_RATE * 1e9;
        if due >= seconds * 1e9 {
            break;
        }
        plan.push((due as u64, rng.below(n), rng.below(10) == 0));
    }
    let mut conn = Conn::connect(addr)?;
    let mut tally = Tally::default();
    let mut late = Lat::default();
    let mut inflight = std::collections::VecDeque::new();
    let mut replies = Vec::new();
    let mut next = 0;
    let start = Instant::now();
    let mut series = Series::new(start);
    let at = |ns: u64| start + Duration::from_nanos(ns);
    while next < plan.len() || !inflight.is_empty() {
        let now = Instant::now();
        while next < plan.len() && at(plan[next].0) <= now {
            let (d, key, set) = plan[next];
            conn.queue(&if set {
                Request::Set {
                    key,
                    value: key + 1,
                }
            } else {
                Request::Get { key }
            });
            late.push(at(d), now);
            inflight.push_back(next);
            next += 1;
        }
        conn.flush()?;
        conn.recv(&mut replies)?;
        if replies.is_empty() {
            continue;
        }
        let now = Instant::now();
        for r in replies.drain(..) {
            let i = inflight.pop_front().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "reply without request")
            })?;
            let (d, key, set) = plan[i];
            series.ops(now, 1);
            series.lat(at(d), now);
            tally.check(match r {
                Reply::Old(got) if set => check::set_ok(key + 1, got),
                Reply::Value(got) if !set => check::get_ok(key, got),
                _ => false,
            });
        }
    }
    Ok(OpenPhase {
        tally,
        windows: series.close(at((seconds * 1e9) as u64)),
        late,
        sent: plan.len() as u64,
    })
}

/// `kv-open-loop`: Poisson arrivals at 20 k/s on one connection over 1 Mi
/// keys, no WAL, then a SCAN sweep checking every key is still `key + 1`.
/// The run is `SETUPS` segments, each on a freshly started server.
pub fn kv_open_loop(seed: u64, seconds: f64) -> io::Result<Outcome> {
    let n = SMALL_KEYS;
    let seg = seconds / SETUPS as f64;
    let mut setups = Setups::default();
    let mut tally = Tally::default();
    let mut w = Windows::default();
    let (mut scan_lat, mut late) = (Lat::default(), Lat::default());
    let mut rng = Rng::new(seed, 3);
    let mut correct = true;
    let mut core = -1;
    let steal = StealMeter::start();
    let mut h: Option<ServerHandle> = None;
    for _ in 0..SETUPS {
        let srv = next_server(h.take(), n, &mut setups)?;
        let addr = srv.addr();
        let (p, c) = util::on_core1(|| -> io::Result<_> {
            let p = open_loop(addr, n, &mut rng, seg)?;
            let sweep = scan_sweep(addr, n, |k| k + 1, &mut tally)?;
            Ok((p, sweep))
        });
        let (p, sweep) = p?;
        core = c;
        correct &= server_agrees(&srv, p.sent + n.div_ceil(SCAN_LEN));
        tally.merge(&p.tally);
        w.extend(p.windows);
        late.0.extend(p.late.0);
        scan_lat.0.extend(sweep.0);
        h = Some(srv);
    }
    if let Some(srv) = h {
        srv.shutdown();
    }
    let mut notes = Vec::new();
    note_phase(&mut notes, &steal, core);
    notes.push(format!(
        "p99_us={:.3} gen_late_p99_us={:.3} {}",
        w.pooled_us(0.99),
        late.us(0.99),
        w.spread_note()
    ));
    Ok(Outcome {
        correct,
        tally,
        metrics: e2e(&mut w, &mut scan_lat, &setups),
        notes,
    })
}
