//! End-to-end benchmark of the volcast simulators.
//!
//! One invocation runs one workload as a closed loop: a single process
//! issues one request (one whole simulation run) at a time and starts the
//! next when it returns. The worker budget is pinned per workload
//! (`Workload::e2e_threads`) and printed. Every request's outcome is
//! checked; the last line of standard output is the JSON result.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` reports the
//! per-layer breakdown instead, from three passes over the same inputs:
//! untraced at the host's full worker budget, untraced at one worker (which
//! gives `par.speedup`, the determinism cross-check and the allocation
//! counts) and traced at one worker (where layer spans add up to the
//! whole). See `NOTES.md`.

mod probes;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;
use volcast_util::obs::{self, MetricsSnapshot};
use volcast_util::par;
use volcast_util::scratch::counting;
use workloads::{Detail, Instance, Outcome, Size, Workload};

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

const USAGE: &str =
    "usage: perfbench --workload <classroom|hallway_faults|campus_paper|server_churn> \
--seed <n> --seconds <s> --trace <0|1> [--size full|tiny]";

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut size = Size::Full;
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {key}"))?;
            match key.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds '{value}'"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                    })
                }
                "--size" => {
                    size = match value.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err(format!("--size takes full or tiny, got '{value}'")),
                    }
                }
                _ => return Err(format!("unknown flag {key}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size,
        })
    }
}

/// A metric value with its unit.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The run's result: the benchmark's JSON line.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Set-up repetitions per run; `setup_s` is their median. A session room
/// sets up in about 0.1 ms, so every room is set up three times and the
/// warm repeats outweigh the cold first pass.
fn setup_reps(w: Workload, size: Size) -> usize {
    let n = w.instances(size);
    match (w, size) {
        (_, Size::Tiny) => n.max(3),
        (Workload::ServerChurn, _) => 3,
        (Workload::CampusPaper, _) => 5,
        _ => 3 * n,
    }
}

/// Builds the run's inputs, timing every set-up. Repeats beyond the
/// input count rebuild the inputs in turn and are discarded.
fn set_up(args: &Args) -> Result<(Vec<Instance>, Vec<f64>), String> {
    let n = args.workload.instances(args.size);
    let reps = setup_reps(args.workload, args.size);
    let mut instances = Vec::with_capacity(n);
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t = Instant::now();
        let inst = workloads::setup(args.workload, args.size, args.seed, rep % n)?;
        times.push(t.elapsed().as_secs_f64());
        if rep < n {
            instances.push(inst);
        }
    }
    Ok((instances, times))
}

/// Per-instance reference: the first outcome every later run of the same
/// instance must reproduce.
struct Reference {
    outcomes: Vec<Option<Outcome>>,
}

impl Reference {
    fn new(n: usize) -> Reference {
        Reference {
            outcomes: vec![None; n],
        }
    }

    /// Records or checks one run of instance `i`.
    fn check(&mut self, i: usize, result: &Result<Outcome, String>) -> Result<(), String> {
        let out = result.as_ref().map_err(|e| e.clone())?;
        match &self.outcomes[i] {
            None => {
                self.outcomes[i] = Some(out.clone());
                Ok(())
            }
            Some(r) if r.hash == out.hash => Ok(()),
            Some(r) => Err(format!(
                "instance {i}: outcome hash 0x{:016x} differs from the first run's 0x{:016x}",
                out.hash, r.hash
            )),
        }
    }
}

/// Tallies requests and failures; failed requests count all their
/// user-frames as late.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failed_frames: u64,
}

impl Tally {
    fn record(&mut self, inst: &Instance, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            eprintln!("check failed: {e}");
            self.failed += 1;
            self.failed_frames += nominal_user_frames(inst);
        }
    }
}

fn nominal_user_frames(inst: &Instance) -> u64 {
    let users = match inst {
        Instance::Session(s) => s.traces.len(),
        Instance::Campus(c) => c.params.users,
        Instance::Server { clients, .. } => *clients,
    };
    (users * inst.frames()) as u64
}

/// `on_time_frac` and `quality` over the run's distinct inputs, each
/// counted once, plus the frames of every failed request (all late).
fn sim_metrics(reference: &Reference, instances: &[Instance], tally: &Tally) -> (f64, f64) {
    let mut late = tally.failed_frames as f64;
    let mut frames = tally.failed_frames as f64;
    let mut quality = Vec::new();
    for (i, r) in reference.outcomes.iter().enumerate() {
        match r {
            Some(o) => {
                late += o.late;
                frames += o.user_frames as f64;
                quality.push(o.quality);
            }
            None => {
                let f = nominal_user_frames(&instances[i]) as f64;
                late += f;
                frames += f;
                quality.push(0.0);
            }
        }
    }
    let q = quality.iter().sum::<f64>() / quality.len().max(1) as f64;
    (1.0 - late / frames.max(1.0), q)
}

/// Runs the benchmark and returns its report.
fn run(args: &Args) -> Result<Report, String> {
    let threads = host_threads();
    let e2e_threads = args.workload.e2e_threads(threads);
    par::set_thread_count(e2e_threads);
    obs::set_enabled(false);
    obs::reset();
    println!(
        "workload {} seed {} size {:?} trace {} threads {} (host {threads})",
        args.workload.name(),
        args.seed,
        args.size,
        args.trace as u8,
        if args.trace { threads } else { e2e_threads },
    );
    let (mut instances, mut setup_times) = set_up(args)?;
    let report = if args.trace {
        traced(args, &mut instances, threads)?
    } else {
        end_to_end(args, &mut instances, &mut setup_times)?
    };
    for (name, (value, unit)) in &report.metrics {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
    Ok(report)
}

/// `--trace 0`: the closed loop at the workload's pinned worker budget.
fn end_to_end(
    args: &Args,
    instances: &mut [Instance],
    setup_times: &mut [f64],
) -> Result<Report, String> {
    let n = instances.len();
    let mut reference = Reference::new(n);
    let mut tally = Tally::default();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let start = Instant::now();
    let mut i = 0usize;
    // Every input runs at least once and one repeats, so the hash check
    // always has a pair to compare.
    while start.elapsed().as_secs_f64() < args.seconds || i <= n {
        let k = i % n;
        let t = Instant::now();
        let result = instances[k].run();
        times[k].push(t.elapsed().as_secs_f64());
        let check = reference.check(k, &result);
        tally.record(&instances[k], check);
        i += 1;
    }
    // Throughput from each input's median request time, so inputs weigh
    // the same however the deadline splits the loop.
    let mut frames = 0u64;
    let mut secs = 0.0;
    for (k, inst) in instances.iter().enumerate() {
        frames += nominal_user_frames(inst);
        secs += median(&mut times[k]);
    }
    let (on_time_frac, quality) = sim_metrics(&reference, instances, &tally);
    let mut m = Metrics::new();
    m.insert("sim_frames_per_s", (frames as f64 / secs, "1/s"));
    m.insert("setup_s", (median(setup_times), "s"));
    m.insert("on_time_frac", (on_time_frac, "ratio"));
    m.insert("quality", (quality, "ratio"));
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

/// Accumulates one workload's traced-run measurements.
#[derive(Default)]
struct TraceAcc {
    /// Host seconds per pass: pinned untraced, 1-worker untraced,
    /// 1-worker traced.
    pinned_s: f64,
    single_s: f64,
    traced_s: f64,
    /// Requests per pass (per-request averages divide by this).
    runs: f64,
    /// Allocations in the 1-worker untraced pass.
    allocs: u64,
    epoch_ms: Vec<f64>,
    predict_s: f64,
    visibility_s: f64,
    analysis_s: f64,
    rss_s: f64,
    parse_s: f64,
    /// Sums of outcome details over traced runs.
    group_size: f64,
    multicast_frac: f64,
    handoffs: f64,
    refused: f64,
    dropped: f64,
    reconnects: f64,
    p50_ms: f64,
    p99_ms: f64,
    latency_samples: f64,
}

/// `--trace 1`: the per-layer breakdown.
fn traced(args: &Args, instances: &mut [Instance], threads: usize) -> Result<Report, String> {
    let n = instances.len();
    let mut reference = Reference::new(n);
    let mut tally = Tally::default();
    let mut acc = TraceAcc::default();
    let start = Instant::now();
    // Inputs in turn, each through all three passes, until the time is
    // up; at least one input.
    let mut i = 0usize;
    while i == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let k = i % n;
        // Pass 1: untraced, every host worker (the reference outcome).
        par::set_thread_count(threads);
        let t = Instant::now();
        let result = instances[k].run();
        acc.pinned_s += t.elapsed().as_secs_f64();
        let check = reference.check(k, &result);
        tally.record(&instances[k], check);

        // Passes 2 and 3 at one worker, alternating which goes first so
        // neither always runs on the other's warm caches.
        par::set_thread_count(1);
        let odd = i % 2 == 1;
        for traced_pass in [odd, !odd] {
            let t = Instant::now();
            let result = if traced_pass {
                // Pass 3: traced.
                obs::set_enabled(true);
                let result = run_traced(&mut instances[k], &mut acc.epoch_ms);
                acc.traced_s += t.elapsed().as_secs_f64();
                obs::set_enabled(false);
                if let Ok(out) = &result {
                    acc.add_detail(&out.detail);
                }
                result
            } else {
                // Pass 2: untraced, counting allocations.
                let a0 = counting::allocations();
                let result = instances[k].run();
                acc.single_s += t.elapsed().as_secs_f64();
                acc.allocs += counting::allocations() - a0;
                result
            };
            let check = reference.check(k, &result);
            tally.record(&instances[k], check);
        }
        acc.runs += 1.0;

        // Probes, untraced at one worker.
        match &instances[k] {
            Instance::Session(s) => {
                let v = probes::session_layers(s);
                acc.predict_s += v.predict_s;
                acc.visibility_s += v.visibility_s;
                acc.analysis_s += v.analysis_s;
                acc.rss_s += v.rss_s;
            }
            Instance::Server { stream, .. } => {
                let t = Instant::now();
                let parsed = workloads::wire_parse(stream);
                acc.parse_s += t.elapsed().as_secs_f64();
                tally.record(&instances[k], parsed);
            }
            Instance::Campus(_) => {}
        }
        i += 1;
    }
    par::set_thread_count(threads);
    let snap = obs::snapshot();
    let mut metrics = layer_metrics(args.workload, instances, &acc, &snap);
    metrics.insert("mem.peak_rss_mib", (peak_rss_mib()?, "MiB"));
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// One traced request. Campus steps its epochs one by one so each epoch's
/// host time is measured.
fn run_traced(inst: &mut Instance, epoch_ms: &mut Vec<f64>) -> Result<Outcome, String> {
    match inst {
        Instance::Campus(c) => {
            let mut runner = c.runner();
            loop {
                let t = Instant::now();
                let more = runner.step_epoch();
                if !more {
                    break;
                }
                epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let out = runner.finish();
            workloads::campus_outcome(c, &out)
        }
        _ => inst.run(),
    }
}

impl TraceAcc {
    fn add_detail(&mut self, d: &Detail) {
        match d {
            Detail::Session(o) => {
                self.group_size += o.mean_group_size;
                self.multicast_frac += o.multicast_byte_fraction;
            }
            Detail::Campus {
                handoffs,
                mean_group_size,
                multicast_byte_fraction,
            } => {
                self.handoffs += *handoffs as f64;
                self.group_size += mean_group_size;
                self.multicast_frac += multicast_byte_fraction;
            }
            Detail::Server(o) => {
                self.refused += o.rejected as f64;
                self.dropped += o.dropped_frames as f64;
                self.reconnects += o.reconnects as f64;
                self.p50_ms += o.p50_latency_ms as f64;
                self.p99_ms += o.p99_latency_ms as f64;
                self.latency_samples += o.delivered_frames as f64;
            }
        }
    }
}

fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

fn histogram<'a>(
    list: &'a [obs::HistogramSnapshot],
    name: &str,
) -> Option<&'a obs::HistogramSnapshot> {
    list.iter().find(|h| h.name == name)
}

/// Total span time, ms.
fn span_ms(s: &MetricsSnapshot, name: &str) -> f64 {
    histogram(&s.spans, name).map_or(0.0, |h| h.sum as f64 / 1e6)
}

/// Quantile `q` of a log₂-bucketed span histogram, ms: linear within the
/// bucket that holds the rank, clamped to the observed min and max.
fn span_quantile_ms(s: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    let Some(h) = histogram(&s.spans, name) else {
        return 0.0;
    };
    if h.count == 0 {
        return 0.0;
    }
    let rank = q * h.count as f64;
    let mut seen = 0.0;
    for (i, &c) in h.buckets.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= rank {
            let (lo, hi) = if i == 0 {
                (0.0, 0.0)
            } else {
                ((1u64 << (i - 1)) as f64, (1u128 << i) as f64)
            };
            let lo = lo.max(h.min as f64);
            let hi = hi.min(h.max as f64);
            return (lo + (hi - lo) * ((rank - seen) / c)) / 1e6;
        }
        seen += c;
    }
    h.max as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric. Layers a workload bypasses read 0.
fn layer_metrics(
    w: Workload,
    instances: &[Instance],
    acc: &TraceAcc,
    snap: &MetricsSnapshot,
) -> Metrics {
    let runs = acc.runs.max(1.0);
    let per_run = |v: f64| v / runs;
    let mut m = Metrics::new();
    let frames_per_run: f64 =
        instances.iter().map(|i| i.frames() as f64).sum::<f64>() / instances.len().max(1) as f64;

    let allocs_per_run = per_run(acc.allocs as f64);
    m.insert("par.speedup", (ratio(acc.single_s, acc.pinned_s), "x"));
    m.insert(
        "trace.overhead_frac",
        (ratio(acc.traced_s, acc.single_s) - 1.0, "ratio"),
    );

    // core::session
    let frame_ms = span_ms(snap, "session.frame");
    let frame_n = histogram(&snap.spans, "session.frame").map_or(0, |h| h.count);
    m.insert(
        "session.frame_ms.p50",
        (span_quantile_ms(snap, "session.frame", 0.50), "ms"),
    );
    m.insert(
        "session.frame_ms.p95",
        (span_quantile_ms(snap, "session.frame", 0.95), "ms"),
    );
    m.insert("session.frame_ms.n", (frame_n as f64, "count"));
    let is_session = matches!(w, Workload::Classroom | Workload::HallwayFaults);
    m.insert(
        "session.allocs_per_frame",
        (
            if is_session {
                ratio(allocs_per_run, frames_per_run)
            } else {
                0.0
            },
            "count",
        ),
    );

    // mmwave::multilobe
    let design_ms = span_ms(snap, "mmwave.designer.design");
    let design_n = histogram(&snap.spans, "mmwave.designer.design").map_or(0, |h| h.count);
    m.insert("mmwave.design.calls", (per_run(design_n as f64), "count"));
    m.insert("mmwave.design.busy_ms", (per_run(design_ms), "ms"));
    m.insert("mmwave.design.share", (ratio(design_ms, frame_ms), "ratio"));
    m.insert(
        "mmwave.design.sectors_swept",
        (
            per_run(counter(snap, "mmwave.designer.sectors_swept")),
            "count",
        ),
    );
    let hits = counter(snap, "mmwave.designer.path_cache_hits");
    let misses = counter(snap, "mmwave.designer.path_cache_misses");
    m.insert(
        "mmwave.design.path_cache_hit_ratio",
        (ratio(hits, hits + misses), "ratio"),
    );

    // viewport::{joint,visibility}
    let predict_ms = per_run(acc.predict_s * 1e3);
    let visibility_ms = per_run(acc.visibility_s * 1e3);
    let analysis_ms = per_run(acc.analysis_s * 1e3);
    let rss_probe_ms = per_run(acc.rss_s * 1e3);
    m.insert("viewport.predict.busy_ms", (predict_ms, "ms"));
    m.insert("viewport.visibility.busy_ms", (visibility_ms, "ms"));
    m.insert("pointcloud.analysis.busy_ms", (analysis_ms, "ms"));
    m.insert("mmwave.rss.busy_ms", (rss_probe_ms, "ms"));
    let visible = counter(snap, "viewport.visibility.visible_cells");
    let culled = counter(snap, "viewport.visibility.culled_cells");
    m.insert(
        "viewport.visibility.culled_frac",
        (ratio(culled, visible + culled), "ratio"),
    );

    // core::{grouping,rate_adapt,mitigation}
    m.insert(
        "grouping.mean_group_size",
        (per_run(acc.group_size), "users"),
    );
    m.insert(
        "grouping.multicast_byte_frac",
        (per_run(acc.multicast_frac), "ratio"),
    );
    m.insert(
        "rate_adapt.quality_clamps",
        (
            per_run(counter(snap, "session.degrade.quality_clamps")),
            "count",
        ),
    );
    m.insert(
        "rate_adapt.enhancements_deferred",
        (
            per_run(counter(snap, "session.layered.enhancements_deferred")),
            "count",
        ),
    );
    m.insert(
        "mitigation.prefetch_frames",
        (per_run(counter(snap, "session.prefetch_frames")), "count"),
    );

    // net::{plan,sim,fec} + playback
    let items = counter(snap, "net.plan.unicast_items") + counter(snap, "net.plan.multicast_items");
    m.insert("net.plan.items", (per_run(items), "count"));
    let airtime_us =
        histogram(&snap.histograms, "net.plan.airtime_us").map_or(0.0, |h| h.sum as f64);
    m.insert("net.plan.airtime_ms", (per_run(airtime_us / 1e3), "ms"));
    let lost = counter(snap, "net.sim.faults.lost_receptions");
    m.insert("net.sim.lost_receptions", (per_run(lost), "count"));
    m.insert(
        "net.fec.recovered_ratio",
        (
            ratio(counter(snap, "net.sim.fec_recovered_receptions"), lost),
            "ratio",
        ),
    );
    m.insert(
        "net.sim.dropped_items",
        (per_run(counter(snap, "net.sim.dropped_items")), "count"),
    );
    m.insert(
        "session.retransmits",
        (
            per_run(counter(snap, "session.degrade.retransmits")),
            "count",
        ),
    );
    m.insert(
        "session.stalls",
        (per_run(counter(snap, "session.stalls")), "count"),
    );
    m.insert(
        "session.decode_overruns",
        (
            per_run(counter(snap, "session.faults.decode_overruns")),
            "count",
        ),
    );

    // core::{campus,multi_ap} + mmwave::sweep
    let mut epochs = acc.epoch_ms.clone();
    let epoch_count = epochs.len() as f64;
    m.insert("campus.epoch_ms.p50", (median(&mut epochs), "ms"));
    let campus_wall_ms: f64 = acc.epoch_ms.iter().sum();
    let rss_ms = span_ms(snap, "campus.room.rss");
    m.insert("campus.rss.busy_ms", (per_run(rss_ms), "ms"));
    m.insert("campus.rss.share", (ratio(rss_ms, campus_wall_ms), "ratio"));
    let campus_spans = [
        ("campus.grouping.busy_ms", "campus.room.grouping"),
        ("campus.plan.busy_ms", "campus.room.plan"),
        ("campus.sim.busy_ms", "campus.room.sim"),
        ("campus.barrier.busy_ms", "campus.epoch.barrier"),
    ];
    for (metric, span) in campus_spans {
        m.insert(metric, (per_run(span_ms(snap, span)), "ms"));
    }
    m.insert(
        "campus.allocs_per_epoch",
        (
            if w == Workload::CampusPaper {
                ratio(allocs_per_run, epoch_count / runs)
            } else {
                0.0
            },
            "count",
        ),
    );
    m.insert("campus.handoffs", (per_run(acc.handoffs), "count"));

    // pointcloud::codec, net::wire, core::server
    let mut server_runs_client_frames = 0.0;
    let (mut synth_ms, mut encode_ms, mut write_ms, mut other_ms) = (0.0, 0.0, 0.0, 0.0);
    let mut bytes_per_frame = 0.0;
    if let Some(Instance::Server {
        setup,
        clients,
        frames,
        ..
    }) = instances.first()
    {
        synth_ms = setup.synth_s * 1e3;
        other_ms = setup.other_s * 1e3;
        encode_ms = setup.encode_s * 1e3;
        write_ms = setup.write_s * 1e3;
        bytes_per_frame = ratio(setup.payload_bytes as f64, *frames as f64);
        server_runs_client_frames = (clients * frames) as f64;
    }
    m.insert("pointcloud.synth_ms", (synth_ms, "ms"));
    m.insert("codec.encode_ms", (encode_ms, "ms"));
    m.insert("codec.bytes_per_frame", (bytes_per_frame, "bytes"));
    m.insert("wire.write_ms", (write_ms, "ms"));
    m.insert("wire.parse_ms", (per_run(acc.parse_s * 1e3), "ms"));
    let is_server = w == Workload::ServerChurn;
    let serve_ms = if is_server {
        acc.pinned_s * 1e3 / runs
    } else {
        0.0
    };
    m.insert("server.serve_ms", (serve_ms, "ms"));
    m.insert("server.refused_clients", (per_run(acc.refused), "count"));
    m.insert("server.dropped_frames", (per_run(acc.dropped), "count"));
    m.insert("server.reconnects", (per_run(acc.reconnects), "count"));
    m.insert(
        "server.allocs_per_client_frame",
        (
            if is_server {
                ratio(allocs_per_run, server_runs_client_frames)
            } else {
                0.0
            },
            "count",
        ),
    );
    m.insert("server.latency_p50_ms", (per_run(acc.p50_ms), "ms"));
    m.insert("server.latency_p99_ms", (per_run(acc.p99_ms), "ms"));
    m.insert(
        "server.latency_samples",
        (per_run(acc.latency_samples), "count"),
    );

    // What the named layers do not cover, as a share of the whole.
    let unattributed = match w {
        Workload::Classroom | Workload::HallwayFaults => {
            let probes_ms = predict_ms + visibility_ms + analysis_ms + rss_probe_ms;
            1.0 - ratio(design_ms + probes_ms * runs, frame_ms)
        }
        Workload::CampusPaper => {
            let parts: f64 = [
                "campus.room.rss",
                "campus.room.grouping",
                "campus.room.plan",
                "campus.room.sim",
                "campus.epoch.barrier",
                "campus.epoch.merge",
            ]
            .iter()
            .map(|s| span_ms(snap, s))
            .sum();
            1.0 - ratio(parts, campus_wall_ms)
        }
        Workload::ServerChurn => {
            // Set-up + one serve at one worker: synthesis, codec, wire and
            // serving are the layers; traces and `SessionServer::new` are
            // the rest.
            let parts = synth_ms + encode_ms + write_ms + per_run(acc.single_s * 1e3);
            1.0 - ratio(parts, parts + other_ms)
        }
    };
    m.insert("trace.unattributed_frac", (unattributed, "ratio"));
    m
}

/// Entry point shared by both binaries: parses arguments, runs, prints the
/// result line, and returns the process exit code.
pub fn main_with_args() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}
