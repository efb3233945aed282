//! End-to-end and per-layer benchmark of the ActorSpace runtime.
//!
//! One run builds a workload from its seed, drives it with a closed loop
//! for a fixed time, checks every reply, and reports metrics by name and
//! unit. An untraced run (`trace: false`) gives the end-to-end metrics; a
//! traced run alternates untraced and traced segments and gives the
//! per-layer metrics, measured from outside the program: spans around the
//! benchmark's own calls into each layer, the program's public counters
//! (`Obs::snapshot`, `NodeStats`, `lock_timing`) and `/proc/self`.

pub mod client;
pub mod procfs;
pub mod setup;
pub mod spans;
pub mod stats;

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use client::{Client, Phase, Tally, Window};
use setup::{Setup, WriteKind, LOCK_CLASSES};
use stats::{median, percentile, ratio, slower_quartile};

pub use setup::Workload;

/// Driven builds per untraced run, and the builds made after each one that
/// are only timed, for `setup_s`.
pub const BUILDS: usize = 5;
const SETUP_ONLY_BUILDS: usize = 3;
/// Untimed loop before measuring.
const WARMUP: Duration = Duration::from_millis(300);
/// Length of one untraced/traced segment pair's half in a traced run.
const TRACE_SEGMENT: f64 = 1.0;
/// Probe phases per build, each followed by an equal share of the loop,
/// and the writes in each.
const PROBE_ROUNDS: u32 = 3;
const PROBE_WRITES: usize = 500;

/// Nanoseconds on the benchmark's monotonic clock, shared by every thread.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let ns = EPOCH.get_or_init(Instant::now).elapsed().as_nanos();
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("throughput_rps", "1/s"),
    ("rpc_p50_us", "us"),
    ("rpc_p90_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("write_p50_us", "us"),
    ("visible_p50_us", "us"),
];

/// The per-layer metrics, reported by every traced run, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("runtime.send_call_us.p50", "us"),
        ("runtime.send_call_us.p99", "us"),
        ("runtime.queue_us.p50", "us"),
        ("runtime.reply_us.p50", "us"),
        ("runtime.behavior_us.p50", "us"),
        ("runtime.deliveries_per_op", "count"),
        ("proc.ctx_switches_per_op", "count"),
        ("core.resolve_us.p50", "us"),
        ("core.resolve_us.p99", "us"),
        ("core.match_ns.p50", "ns"),
        ("core.index_hit_ratio", "ratio"),
        ("core.write_us.make_visible.p50", "us"),
        ("core.write_us.change_attributes.p50", "us"),
        ("core.write_us.make_invisible.p50", "us"),
        ("core.suspended_per_write", "count"),
        ("core.woken_per_write", "count"),
        ("pattern.matches_ns.p50", "ns"),
        ("codec.encode_ns.p50", "ns"),
        ("codec.decode_ns.p50", "ns"),
        ("codec.bytes_per_msg", "B"),
        ("net.forwarded_per_op", "count"),
        ("net.retransmits_per_op", "count"),
        ("net.bus_applied_per_write", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for c in LOCK_CLASSES {
        m.push((format!("lock.{c}.holds_per_op"), "count"));
        m.push((format!("lock.{c}.waits_per_op"), "count"));
        m.push((format!("lock.{c}.hold_ns_per_op"), "ns"));
    }
    m.push(("trace.overhead_throughput_pct".into(), "%"));
    m.push(("trace.overhead_rpc_p50_pct".into(), "%"));
    m
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in [`END_TO_END`] or [`per_layer`] order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Noise diagnostics and sample counts: `(name, JSON value)`.
    pub diagnostics: Vec<(String, String)>,
    /// Why the run is not correct.
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn diagnostics_json(&self) -> String {
        let d: Vec<String> = self
            .diagnostics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"diagnostics\": {{{}}}}}", d.join(", "))
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn num_list(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(", "))
}

/// Percentile of nanosecond samples, in microseconds (0 when empty).
fn us(samples: &mut [u32], q: f64) -> f64 {
    percentile(samples, q).map_or(0.0, |v| f64::from(v) / 1e3)
}

/// One probe round's medians and the host's steal while it ran.
struct Round {
    steal: f64,
    write_p50_us: f64,
    visible_p50_us: f64,
}

/// What one build contributed to the run.
struct Build {
    setup_s: f64,
    rounds: Vec<Round>,
    /// First build: `VmHWM` after [`Workload::rss_after`] main round trips
    /// of the measured loop, or when the loop ended if it completed fewer
    /// (`rss_on_count` false).
    peak_rss_mb: f64,
    rss_on_count: bool,
    tally: Tally,
    problems: Vec<String>,
    /// Traced runs: the per-layer values and where the spans went.
    per_layer: Option<(Vec<f64>, String)>,
}

fn timed_build(o: &Options) -> Result<(Setup, f64), String> {
    let started = Instant::now();
    let setup = Setup::build(o.workload, o.seed)?;
    Ok((setup, started.elapsed().as_secs_f64()))
}

/// Builds the workload (timed), then alternates probe rounds with shares of
/// the loop for `dur` in all, checks the final counters and tears it down.
/// A probe round makes scheduled writes one at a time with the loop
/// stopped, each followed by a probe of the attribute just written.
/// Untraced: the loop's windows go to `u`. Traced: untraced and traced
/// segments alternate, into `u` and `t`.
fn run_build(
    o: &Options,
    first: bool,
    dur: Duration,
    u: &mut Phase,
    t: &mut Phase,
) -> Result<Build, String> {
    let (setup, setup_s) = timed_build(o)?;
    let mut d = Client::new(&setup, o.seed);
    let mut w = Phase::default();
    let mut rounds = Vec::new();
    d.segment(WARMUP.min(dur / 4), &mut Phase::default(), false);
    let share = dur / PROBE_ROUNDS;
    for round in 0..PROBE_ROUNDS {
        let (fw, fv, host) = (w.write_ns.len(), w.visible_ns.len(), procfs::host_cpu());
        d.probe_phase(PROBE_WRITES, &mut w, o.trace);
        rounds.push(Round {
            steal: procfs::steal_share(host, procfs::host_cpu()),
            write_p50_us: us(&mut w.write_ns[fw..], 0.5),
            visible_p50_us: us(&mut w.visible_ns[fv..], 0.5),
        });
        if first && round == 0 {
            d.read_rss_after(o.workload.rss_after());
        }
        if o.trace {
            let pairs = ((share.as_secs_f64() / (2.0 * TRACE_SEGMENT)).round() as u32).max(1);
            for _ in 0..pairs {
                d.segment(share / (2 * pairs), u, false);
                d.segment(share / (2 * pairs), t, true);
            }
        } else {
            d.segment(share, u, false);
        }
    }

    let rss_on_count = d.peak_rss_kb.is_some();
    let peak_rss_mb = d.peak_rss_kb.unwrap_or_else(procfs::peak_rss_kb) as f64 / 1024.0;
    let end = setup.counters();
    let mut problems = Vec::new();
    for (what, n) in [
        ("runtime.dead_letters", end["runtime.dead_letters"]),
        ("net.decode_failures", end["net.decode_failures"]),
        ("codec round trips failed", t.codec_errors),
    ] {
        if n > 0 {
            problems.push(format!("{what}: {n}"));
        }
    }
    if end["core.suspended"] != end["core.woken"] {
        problems.push(format!(
            "suspended sends not all woken: {} suspended, {} woken",
            end["core.suspended"], end["core.woken"]
        ));
    }
    if w.visible_ns.is_empty() {
        problems.push("no visibility probe completed".into());
    }
    let per_layer = o.trace.then(|| {
        let mut vals = per_layer_values(&setup, &mut d, u, t, &w);
        let (tu, tt) = (u.throughput(), t.throughput());
        let p50 = |p: &Phase| p.slower(0.75, |w| f64::from(w.p50_ns));
        let (pu, pt) = (p50(u), p50(t));
        vals.push(100.0 * ratio(tu - tt, tu));
        vals.push(100.0 * ratio(pt - pu, pu));
        (vals, write_spans(&d, o))
    });
    Ok(Build {
        setup_s,
        rounds,
        peak_rss_mb,
        rss_on_count,
        tally: d.tally,
        problems,
        per_layer,
    })
}

/// Runs one benchmark invocation. An untraced run makes [`BUILDS`] fresh
/// builds in turn and drives each for an equal share of the time, so no
/// single slow thread spawn, memory layout or stretch of host noise sets a
/// figure: `setup_s` is the median over the timed-only builds made after
/// each driven one; the other metrics are the slower quartile (see
/// [`slower_quartile`]) of the loop's half-second windows or of the probe
/// rounds of all builds. A traced run makes one build.
pub fn run(o: &Options) -> Result<Report, String> {
    let host_before = procfs::host_cpu();
    let ctx_before = procfs::ctx_switches();
    let builds = if o.trace { 1 } else { BUILDS };
    let share = Duration::from_secs_f64(o.seconds) / builds as u32;
    let (mut u, mut t) = (Phase::default(), Phase::default());
    let mut done = Vec::new();
    let mut setup_s = Vec::new();
    for i in 0..builds {
        done.push(run_build(o, i == 0, share, &mut u, &mut t)?);
        // Spread over the run, like the loop, so that one stretch of host
        // noise cannot set `setup_s`. The driven builds' own set-up times
        // are left out: the first starts cold and the others follow the
        // teardown of a loaded system, so they run slower and more
        // unevenly, and mixing the kinds would put the median between them.
        if !o.trace {
            for _ in 0..SETUP_ONLY_BUILDS {
                setup_s.push(timed_build(o)?.1);
            }
        }
    }
    // The first build's: later builds add what earlier ones left behind.
    let rss_mb = done[0].peak_rss_mb;
    let driven_setup_s: Vec<f64> = done.iter().map(|b| b.setup_s).collect();

    let mut tally = Tally::default();
    let mut problems = Vec::new();
    for b in &done {
        tally.add(&b.tally);
        problems.extend(b.problems.iter().cloned());
    }
    if tally.failed > 0 {
        problems.push(format!(
            "requests failed: {} ({} from a wrong sender, the rest refused or past the {:?} \
             deadline; {} answered after it)",
            tally.failed,
            tally.wrong_sender,
            client::DEADLINE,
            tally.late
        ));
    }
    if tally.stray > 0 {
        problems.push(format!("stray replies: {}", tally.stray));
    }
    if u.windows.iter().all(|w| w.done == 0) {
        problems.push("no request completed".into());
    }

    let rounds = || done.iter().flat_map(|b| &b.rounds);
    let slow_rounds =
        |f: fn(&Round) -> f64| slower_quartile(rounds().map(|r| (r.steal, f(r))), 0.75);
    let metrics: Vec<(String, f64, &'static str)> = match done[0].per_layer.clone() {
        Some((vals, _)) => per_layer()
            .into_iter()
            .zip(vals)
            .map(|((n, unit), v)| (n, v, unit))
            .collect(),
        None => {
            let vals = [
                u.slower(0.25, |w| w.done as f64 / w.secs),
                u.slower(0.75, |w| f64::from(w.p50_ns) / 1e3),
                u.slower(0.75, |w| f64::from(w.p90_ns) / 1e3),
                u.slower(0.75, |w| ratio(w.cpu_ns as f64 / 1e3, w.done as f64)),
                rss_mb,
                median(&mut setup_s.clone()).unwrap_or(0.0),
                slow_rounds(|r| r.write_p50_us),
                slow_rounds(|r| r.visible_p50_us),
            ];
            END_TO_END
                .iter()
                .zip(vals)
                .map(|(&(n, unit), v)| (n.to_string(), v, unit))
                .collect()
        }
    };

    let windows = |f: fn(&Window) -> f64| num_list(&u.windows.iter().map(f).collect::<Vec<_>>());
    let round_list = |f: fn(&Round) -> f64| num_list(&rounds().map(f).collect::<Vec<_>>());
    let mut diagnostics = vec![
        ("workload".into(), format!("\"{}\"", o.workload.name())),
        ("seed".into(), o.seed.to_string()),
        ("traced".into(), o.trace.to_string()),
        ("nproc".into(), nproc().to_string()),
        ("window".into(), o.workload.window().to_string()),
        (
            "steal_share".into(),
            num(procfs::steal_share(host_before, procfs::host_cpu())),
        ),
        (
            "ctx_switches".into(),
            procfs::ctx_switches()
                .saturating_sub(ctx_before)
                .to_string(),
        ),
        ("late_replies".into(), tally.late.to_string()),
        ("wrong_sender".into(), tally.wrong_sender.to_string()),
        ("stray_replies".into(), tally.stray.to_string()),
        (
            "peak_rss_after_fixed_ops".into(),
            done[0].rss_on_count.to_string(),
        ),
        ("threads_at_end".into(), procfs::threads().to_string()),
        ("build_setup_s".into(), num_list(&setup_s)),
        ("driven_build_setup_s".into(), num_list(&driven_setup_s)),
        ("round_steal".into(), round_list(|r| r.steal)),
        ("round_write_p50_us".into(), round_list(|r| r.write_p50_us)),
        (
            "round_visible_p50_us".into(),
            round_list(|r| r.visible_p50_us),
        ),
        ("window_rpc_samples".into(), windows(|w| w.done as f64)),
        ("window_rps".into(), windows(|w| w.done as f64 / w.secs)),
        ("window_steal".into(), windows(|w| w.steal)),
        (
            "window_p50_us".into(),
            windows(|w| f64::from(w.p50_ns) / 1e3),
        ),
        (
            "window_p90_us".into(),
            windows(|w| f64::from(w.p90_ns) / 1e3),
        ),
        (
            "window_p99_us".into(),
            windows(|w| f64::from(w.p99_ns) / 1e3),
        ),
        (
            "window_cpu_us_per_op".into(),
            windows(|w| ratio(w.cpu_ns as f64 / 1e3, w.done as f64)),
        ),
        (
            "rpc_p99_us".into(),
            num(u.slower(0.75, |w| f64::from(w.p99_ns) / 1e3)),
        ),
        ("loaded_write_p50_us".into(), num(us(&mut u.write_ns, 0.5))),
        (
            "loaded_visible_p50_us".into(),
            num(us(&mut u.visible_ns, 0.5)),
        ),
    ];
    if let Some((_, file)) = &done[0].per_layer {
        diagnostics.push(("spans_file".into(), format!("\"{file}\"")));
    }
    Ok(Report {
        correct: problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        diagnostics,
        problems,
    })
}

/// Per-layer values in [`per_layer`] order, without the two trace-overhead
/// entries. Counter ratios come from the untraced segments (`u`, plus the
/// probe phase `w` for per-write counts), so the traced run's own probe
/// calls do not inflate them; span self times come from the traced ones.
fn per_layer_values(
    setup: &Setup,
    d: &mut Client,
    u: &mut Phase,
    t: &mut Phase,
    w: &Phase,
) -> Vec<f64> {
    let ops = (u.main_done + u.probes_done) as f64;
    let per_op = |name: &str| ratio(u.counter(name), ops);
    let per_write = |name: &str| ratio(w.counter(name), w.writes as f64);
    let both = |name: &str| u.counter(name) + w.counter(name);
    let tr = &mut d.tracer;
    let mut span_us = |name: &str, q: f64| tr.self_ns(name, q).map_or(0.0, |v| f64::from(v) / 1e3);
    let mut v = vec![
        span_us("runtime.send_call", 0.5),
        span_us("runtime.send_call", 0.99),
        span_us("runtime.queue", 0.5),
        span_us("runtime.reply", 0.5),
        span_us("runtime.behavior", 0.5),
        per_op("runtime.deliveries"),
        per_op("proc.ctx_switches"),
        span_us("core.resolve", 0.5),
        span_us("core.resolve", 0.99),
        setup.match_ns_p50() as f64,
        ratio(
            both("core.index.hits"),
            both("core.index.hits") + both("core.index.misses"),
        ),
    ];
    v.extend(WriteKind::ALL.map(|k| span_us(k.span(), 0.5)));
    v.extend([
        per_write("core.suspended"),
        per_write("core.woken"),
        span_us("pattern.matches", 0.5) * 1e3,
        span_us("codec.encode", 0.5) * 1e3,
        span_us("codec.decode", 0.5) * 1e3,
        ratio(t.codec_bytes as f64, t.codec_msgs as f64),
        per_op("net.forwarded"),
        per_op("net.retransmits"),
        per_write("net.bus_applied"),
    ]);
    for c in LOCK_CLASSES {
        v.push(per_op(&format!("lock.{c}.holds")));
        v.push(per_op(&format!("lock.{c}.waits")));
        v.push(per_op(&format!("lock.{c}.hold_ns")));
    }
    v
}

/// Writes the kept spans next to the benchmark's sources; returns the path
/// or the error.
fn write_spans(d: &Client, o: &Options) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("spans-{}-{}.jsonl", o.workload.name(), o.seed));
    let result = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&file)?);
        d.tracer.write_jsonl(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    match result {
        Ok(()) => file.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
