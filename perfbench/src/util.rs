//! Seeded inputs, sample statistics, and host facts.

use std::time::{Duration, Instant};

/// SplitMix64: every input of a run derives from `--seed` through this
/// generator, so one seed gives one input sequence on any host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for stream `stream` of seed `seed` (streams keep the
    /// inputs of different threads and phases independent).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The paper's self-similar distribution with skew 0.2 over dense keys
/// `0..n` (80% of accesses to the first 20% of keys; key 0 is hottest).
#[derive(Debug, Clone, Copy)]
pub struct SelfSimilar {
    n: u64,
    exp: f64,
}

impl SelfSimilar {
    pub fn new(n: u64) -> SelfSimilar {
        let h: f64 = 0.2;
        SelfSimilar {
            n,
            exp: h.ln() / (1.0 - h).ln(),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        ((self.n as f64 * rng.unit().powf(self.exp)) as u64).min(self.n - 1)
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; reorders `v`.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let i = ((v.len() - 1) as f64 * q).round() as usize;
    *v.select_nth_unstable(i).1
}

/// Median of a small sample of seconds (mean of the middle pair when
/// even).
pub fn median_f64(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Resident set size of this process in bytes.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// Host-wide `(steal, total)` CPU ticks from the first line of
/// `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = s
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Steal time over an interval, as a share of all CPU ticks.
pub struct StealMeter((u64, u64));

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_ticks())
    }

    /// `(steal ticks, steal share)` since `start`.
    pub fn read(&self) -> (u64, f64) {
        let (s1, t1) = cpu_ticks();
        let (s0, t0) = self.0;
        let steal = s1.saturating_sub(s0);
        (steal, steal as f64 / (t1.saturating_sub(t0)).max(1) as f64)
    }
}

extern "C" {
    fn sched_getcpu() -> i32;
}

/// The core the calling thread runs on now (-1 if unknown).
pub fn current_core() -> i32 {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's scheduler state.
    unsafe { sched_getcpu() }
}

/// Pin the calling thread to `core` (best effort; false when the host has
/// one core or refuses).
pub fn pin(core: usize) -> bool {
    optiql_sharded::ShardAffinity::probe(core + 1).pin_to_shard(core)
}

/// Run `f` on a thread pinned to core 1, away from the server worker,
/// which pins itself to core 0; returns its result and the core it ran
/// on at the end. The calling thread stays unpinned: `server::start`
/// must see every core, or it leaves its worker unpinned.
pub fn on_core1<T: Send>(f: impl FnOnce() -> T + Send) -> (T, i32) {
    std::thread::scope(|sc| {
        sc.spawn(|| {
            pin(1);
            let r = f();
            (r, current_core())
        })
        .join()
        .expect("pinned thread panicked")
    })
}

/// The git revision of the checkout in the working directory, read from
/// `.git` without leaving it; `none` when the checkout has no `.git`.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(h) = read(&format!(".git/{r}")) {
        return h.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One line of host facts: CPU model, cores, kernel, git revision.
pub fn host_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "# host: cpu=\"{cpu}\" nproc={nproc} kernel={kernel} git_rev={}",
        git_rev()
    )
}

/// Width of the windows a measured phase is cut into.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Operation counts and latency samples of one measured phase, by
/// window of `WINDOW` from the phase start.
pub struct Series {
    start: Instant,
    ops: Vec<u64>,
    lat: Vec<Vec<u64>>,
}

impl Series {
    pub fn new(start: Instant) -> Series {
        Series {
            start,
            ops: Vec::new(),
            lat: Vec::new(),
        }
    }

    fn win(&mut self, at: Instant) -> usize {
        let i = (at.saturating_duration_since(self.start).as_nanos() / WINDOW.as_nanos()) as usize;
        if i >= self.ops.len() {
            self.ops.resize(i + 1, 0);
            self.lat.resize_with(i + 1, Vec::new);
        }
        i
    }

    /// `n` operations completed at `at`.
    pub fn ops(&mut self, at: Instant, n: u64) {
        let i = self.win(at);
        self.ops[i] += n;
    }

    /// One latency sample, filed under the window it completed in.
    pub fn lat(&mut self, from: Instant, to: Instant) {
        let i = self.win(to);
        self.lat[i].push(to.saturating_duration_since(from).as_nanos() as u64);
    }

    /// Add another thread's series of the same phase.
    pub fn merge(&mut self, o: Series) {
        assert_eq!(self.start, o.start, "series of different phases");
        if o.ops.len() > self.ops.len() {
            self.ops.resize(o.ops.len(), 0);
            self.lat.resize_with(o.ops.len(), Vec::new);
        }
        for (i, (n, l)) in o.ops.into_iter().zip(o.lat).enumerate() {
            self.ops[i] += n;
            self.lat[i].extend(l);
        }
    }

    /// End the phase at `end`, keeping the windows that closed before it
    /// (a phase shorter than one window is kept whole).
    pub fn close(mut self, end: Instant) -> Windows {
        let span = end.saturating_duration_since(self.start);
        let full = (span.as_nanos() / WINDOW.as_nanos()) as usize;
        self.win(end);
        if full == 0 {
            return Windows {
                rates: vec![self.ops.iter().sum::<u64>() as f64 / span.as_secs_f64()],
                lat: vec![self.lat.concat()],
            };
        }
        Windows {
            rates: self.ops[..full]
                .iter()
                .map(|&n| n as f64 / WINDOW.as_secs_f64())
                .collect(),
            lat: self.lat.drain(..full).collect(),
        }
    }
}

/// The closed windows of one or more measured phases. Each figure is
/// the median over windows, so a burst of host noise inside a run moves
/// few windows and not the figure.
#[derive(Default)]
pub struct Windows {
    rates: Vec<f64>,
    lat: Vec<Vec<u64>>,
}

impl Windows {
    pub fn extend(&mut self, o: Windows) {
        self.rates.extend(o.rates);
        self.lat.extend(o.lat);
    }

    /// Median over windows of operations per second.
    pub fn ops_per_s(&self) -> f64 {
        median_f64(&self.rates)
    }

    /// Median over windows of each window's `q`-quantile latency, in µs.
    pub fn lat_us(&mut self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .lat
            .iter_mut()
            .filter(|l| !l.is_empty())
            .map(|l| quantile(l, q) as f64 / 1e3)
            .collect();
        median_f64(&per)
    }

    /// Window rates: count, minimum, quartiles and maximum.
    pub fn spread_note(&self) -> String {
        let mut r = self.rates.clone();
        r.sort_by(f64::total_cmp);
        let at = |q: f64| r[((r.len() - 1) as f64 * q).round() as usize];
        format!(
            "windows={} rate_min={:.0} rate_q1={:.0} rate_q3={:.0} rate_max={:.0}",
            r.len(),
            at(0.0),
            at(0.25),
            at(0.75),
            at(1.0)
        )
    }

    /// The `q`-quantile latency over all samples pooled, in µs.
    pub fn pooled_us(&self, q: f64) -> f64 {
        quantile(&mut self.lat.concat(), q) as f64 / 1e3
    }
}
