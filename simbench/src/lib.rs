//! The RECN simulator's benchmark of record.
//!
//! One invocation measures one workload (see [`workload`]) for a fixed
//! number of host seconds and checks every simulated output it produces:
//!
//! * untraced ([`measure`]): the end-to-end metrics, timed from outside
//!   around `run_one` (single-run workloads) or a cold `Sweep::run_report`
//!   into an empty run cache (the sweep), each iteration followed by the
//!   [`reference`] kernel so its time can be stated in units of the host's
//!   current speed;
//! * traced ([`measure_traced`]): the per-layer metrics, from the
//!   outside-in rebuild in [`traced`] run beside the untraced path, whose
//!   outputs it must reproduce exactly.
//!
//! Each statistic is the median over the iterations one invocation fits in
//! its time budget; the first iteration is a warm-up whose outputs become
//! the reference later iterations are checked against.

pub mod check;
pub mod reference;
pub mod traced;
pub mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use experiments::runner::{run_one, RunOutput};
use experiments::{CacheStatus, RunCache, RunSpec, Sweep};

use check::{check_pin, fingerprint, pinned, sane};
use reference::Reference;
use traced::{run_traced, Layers, Span, EVENT_KINDS, HOOKS};
use workload::{Size, Workload, DEFAULT_SEED};

/// Spec hashing repeats until it lasts this long.
const HASH_SAMPLE_S: f64 = 0.01;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Simulation outputs checked.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// The first few check failures, for the log.
    pub errors: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Host-speed-dependent figures printed beside the metrics but not
    /// part of the result line: `(name, value, unit)`.
    pub raw: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The share of checked outputs that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_owned()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks outputs against the reference and counts the results.
struct Checker {
    specs: Vec<RunSpec>,
    /// Pin lines, for the default seed.
    pins: Option<Vec<&'static str>>,
    /// Fingerprints of the warm-up outputs (checked on every seed).
    first: Vec<String>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checker {
    /// A checker whose reference is the warm-up run `outs`, which is itself
    /// checked against the pins when `seed` is the default seed.
    fn new(w: Workload, seed: u64, specs: &[RunSpec], outs: &[RunOutput]) -> Checker {
        let first = outs.iter().map(fingerprint).collect();
        let mut c = Checker {
            specs: specs.to_vec(),
            pins: (seed == DEFAULT_SEED).then(|| pinned(w)),
            first,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        };
        if let Some(p) = &c.pins {
            if p.len() != specs.len() {
                c.fail(format!(
                    "{} pinned outputs for {} runs of {}",
                    p.len(),
                    specs.len(),
                    w.name()
                ));
            }
        }
        for (i, out) in outs.iter().enumerate() {
            c.check(i, out);
        }
        c
    }

    fn fail(&mut self, error: String) {
        self.record(Err(error));
    }

    /// Counts one checked output.
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Checks cell `i`'s output against the pins (default seed) and the
    /// warm-up run's fingerprint.
    fn check(&mut self, i: usize, out: &RunOutput) {
        let spec = &self.specs[i];
        let result = sane(spec, out).and_then(|()| match &self.pins {
            Some(pins) => check_pin(pins, i, spec, out),
            None => Ok(()),
        });
        let same = if self.first.get(i) == Some(&fingerprint(out)) {
            Ok(())
        } else {
            Err(format!(
                "{}: outputs differ from the warm-up run",
                spec.label()
            ))
        };
        self.record(result.and(same));
    }

    /// Checks a traced run of cell `i` against the untraced output `u`:
    /// every simulated output, the event count, the queue's peak depth and
    /// the memory estimate must agree exactly.
    fn check_traced(&mut self, i: usize, u: &RunOutput, t: &RunOutput, layers: &Layers) {
        let label = self.specs[i].label().to_owned();
        if layers.kind_n.iter().sum::<u64>() != u.events {
            self.fail(format!(
                "{label}: handler counts do not sum to the untraced run's events"
            ));
        } else if (t.events, t.peak_event_queue_depth, t.peak_bytes_estimate)
            != (u.events, u.peak_event_queue_depth, u.peak_bytes_estimate)
        {
            self.fail(format!(
                "{label}: traced run differs: events/depth/bytes {}/{}/{} vs {}/{}/{}",
                t.events,
                t.peak_event_queue_depth,
                t.peak_bytes_estimate,
                u.events,
                u.peak_event_queue_depth,
                u.peak_bytes_estimate
            ));
        } else {
            self.check(i, t);
        }
    }

    fn into_report(self) -> Report {
        Report {
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
            ..Report::default()
        }
    }
}

/// Median of the samples (0 when there are none).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(root: &Path) -> std::io::Result<Scratch> {
        let dir = root.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One untraced iteration of a workload.
struct Cold {
    outs: Vec<RunOutput>,
    /// Host seconds around `run_one` or the cold sweep.
    wall_s: f64,
    /// `RunOutput::wall_secs` (queue allocation, priming and the event
    /// loop), summed over runs.
    loop_s: f64,
    /// Cache statuses (all `Off` for a single run).
    statuses: Vec<CacheStatus>,
}

impl Cold {
    /// Host seconds outside `RunOutput::wall_secs`: construction of the
    /// network, probe and sources, output assembly and teardown (for the
    /// sweep also cache stores and the pool). Event-queue allocation and
    /// priming fall inside `wall_secs`, so they are not part of it.
    fn setup_s(&self, jobs: usize) -> f64 {
        self.wall_s - self.loop_s / jobs as f64
    }

    fn pkts(&self) -> u64 {
        self.outs.iter().map(|o| o.counters.delivered_packets).sum()
    }

    fn pkts_per_s(&self) -> f64 {
        self.pkts() as f64 / self.loop_s
    }
}

/// Runs the workload once, untraced: `run_one` for a single run, a
/// sweep into the empty cache `cache` for the sweep workload.
fn cold(w: Workload, specs: &[RunSpec], cache: &Path) -> Cold {
    let (outs, wall_s, statuses) = if w == Workload::SweepFt64 {
        let sweep = Sweep::new(specs.to_vec()).jobs(w.jobs()).cache(cache);
        let start = Instant::now();
        let report = sweep.run_report();
        let wall_s = start.elapsed().as_secs_f64();
        (report.outputs, wall_s, report.cache)
    } else {
        let start = Instant::now();
        let out = run_one(&specs[0]);
        let wall_s = start.elapsed().as_secs_f64();
        (vec![out], wall_s, vec![CacheStatus::Off])
    };
    let loop_s = outs.iter().map(|o| o.wall_secs).sum();
    Cold {
        outs,
        wall_s,
        loop_s,
        statuses,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Runs the traced rebuild of `spec`, turning a validator panic into an
/// error.
fn traced_checked(spec: &RunSpec) -> Result<(RunOutput, Layers, Vec<Span>), String> {
    let validate = !spec.transport().is_pfc();
    catch_unwind(AssertUnwindSafe(|| run_traced(spec, validate)))
        .map_err(|_| format!("{}: traced run panicked", spec.label()))
}

/// The untraced measurement: every end-to-end metric, with each run's
/// outputs checked.
pub fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    root: &Path,
) -> Result<Report, String> {
    let specs = w.specs(seed, size);
    let scratch = Scratch::new(root).map_err(|e| format!("scratch directory: {e}"))?;

    // Warm-up: its outputs are the reference the later runs must match.
    // The process's peak so far is the workload's: the reference kernel's
    // memory is allocated only after it is read.
    let first = cold(w, &specs, &scratch.dir("warmup"));
    let mut checker = Checker::new(w, seed, &specs, &first.outs);
    let rss = peak_rss_mib()?;
    let reference = Reference::new();
    reference.run(w.jobs());

    // Each iteration's reference time is the mean of the kernel runs just
    // before and just after it, so it brackets the iteration.
    let mut t = Samples::default();
    let mut before = reference.run(w.jobs());
    let start = Instant::now();
    let mut i = 0;
    while t.wall.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let dir = scratch.dir(&format!("cold{i}"));
        let it = cold(w, &specs, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let after = reference.run(w.jobs());
        i += 1;
        if it.statuses.contains(&CacheStatus::Hit) {
            checker.fail("cold sweep served a cache hit".to_owned());
        }
        for (k, out) in it.outs.iter().enumerate() {
            checker.check(k, out);
        }
        t.wall.push(it.wall_s);
        t.setup.push(it.setup_s(w.jobs()));
        t.rate.push(it.pkts_per_s());
        t.loop_s.push(it.loop_s);
        t.pkts += it.pkts() as f64;
        t.ref_s.push((before + after) / 2.0);
        before = after;
    }

    // Seeds without pins: the outside-in rebuild (with the validator)
    // must reproduce the untraced outputs exactly, and the default seed,
    // run once untimed, must still match its pins.
    if seed != DEFAULT_SEED {
        for (k, spec) in specs.iter().enumerate() {
            match traced_checked(spec) {
                Ok((t, layers, _)) => checker.check_traced(k, &first.outs[k], &t, &layers),
                Err(e) => checker.fail(e),
            }
        }
        if size == Size::Full {
            let pins = pinned(w);
            let pinned_specs = w.specs(DEFAULT_SEED, size);
            let outs = Sweep::new(pinned_specs.clone()).jobs(w.jobs()).run();
            for (k, (spec, out)) in pinned_specs.iter().zip(&outs).enumerate() {
                checker.record(sane(spec, out).and_then(|()| check_pin(&pins, k, spec, out)));
            }
        }
    }

    let mut report = checker.into_report();
    // Ratios of totals over the run: a slow iteration usually has a slow
    // reference beside it, and the totals let the two cancel.
    let ref_mean = t.ref_s.iter().sum::<f64>() / t.ref_s.len() as f64;
    let loop_total: f64 = t.loop_s.iter().sum();
    let wall_mean = t.wall.iter().sum::<f64>() / t.wall.len() as f64;
    report.push("wall_ref", wall_mean / ref_mean, "ref");
    let setup_ref: Vec<f64> = t.setup.iter().zip(&t.ref_s).map(|(s, r)| s / r).collect();
    report.push("setup_s", median(&setup_ref) * reference::NOMINAL_S, "s");
    report.push("pkts_per_ref", t.pkts / (loop_total / ref_mean), "1/ref");
    report.push("peak_rss_mib", rss, "MiB");
    report.raw = vec![
        ("wall_s", median(&t.wall), "s"),
        ("pkts_per_s", median(&t.rate), "1/s"),
        ("setup_host_s", median(&t.setup), "s"),
        ("ref_s", median(&t.ref_s), "s"),
        ("iterations", t.wall.len() as f64, "count"),
    ];
    Ok(report)
}

/// Per-iteration samples of the untraced measurement.
#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    setup: Vec<f64>,
    rate: Vec<f64>,
    loop_s: Vec<f64>,
    /// Delivered packets, summed over iterations.
    pkts: f64,
    /// The reference kernel's seconds around each iteration.
    ref_s: Vec<f64>,
}

/// Per-iteration time samples of the traced measurement.
#[derive(Default)]
struct LayerTimes {
    layers: Vec<Layers>,
    overhead: Vec<f64>,
    spec_hash: Vec<f64>,
    store: Vec<f64>,
    load: Vec<f64>,
    busy: Vec<f64>,
    replay: Vec<f64>,
}

/// The traced measurement: every per-layer metric. Raw spans of the first
/// iteration are written to `spans` as JSON lines.
pub fn measure_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    root: &Path,
    spans: Option<&Path>,
) -> Result<Report, String> {
    let specs = w.specs(seed, size);
    let scratch = Scratch::new(root).map_err(|e| format!("scratch directory: {e}"))?;
    let mut checker: Option<Checker> = None;
    let mut times = LayerTimes::default();
    let mut counts: Option<(Layers, Vec<RunOutput>)> = None;
    let mut store_bytes = 0u64;
    let mut hit_frac = 0.0;
    let mut span_log: Vec<(String, Span)> = Vec::new();

    let start = Instant::now();
    let mut i = 0;
    while times.layers.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let outs: Vec<RunOutput> = specs.iter().map(run_one).collect();
        let c = match &mut checker {
            Some(c) => {
                for (k, out) in outs.iter().enumerate() {
                    c.check(k, out);
                }
                c
            }
            None => checker.insert(Checker::new(w, seed, &specs, &outs)),
        };
        // Same basis on both sides: queue allocation, priming and the loop.
        let untraced_loop: f64 = outs.iter().map(|o| o.wall_secs).sum();
        let mut layers = Layers::default();
        for (k, spec) in specs.iter().enumerate() {
            match traced_checked(spec) {
                Ok((t, l, s)) => {
                    c.check_traced(k, &outs[k], &t, &l);
                    layers.add(&l);
                    if i == 0 {
                        span_log.extend(s.into_iter().map(|s| (spec.label().to_owned(), s)));
                    }
                }
                Err(e) => c.fail(e),
            }
        }
        times.overhead.push(layers.engine_s / untraced_loop);

        // Experiments layer: hashing, cache stores and loads called
        // directly, then a cold and a warm sweep through the cache.
        let hash_start = Instant::now();
        let mut hashes = 0u64;
        let mut acc = 0u64;
        while hashes == 0 || hash_start.elapsed().as_secs_f64() < HASH_SAMPLE_S {
            for s in &specs {
                acc ^= std::hint::black_box(s).spec_hash();
            }
            hashes += 1;
        }
        std::hint::black_box(acc);
        times
            .spec_hash
            .push(hash_start.elapsed().as_secs_f64() / hashes as f64);

        let cache = RunCache::new(scratch.dir(&format!("store{i}")));
        let (mut store_s, mut load_s) = (0.0, 0.0);
        store_bytes = 0;
        for (k, spec) in specs.iter().enumerate() {
            let t = Instant::now();
            let stored = cache.store(spec, &outs[k]);
            store_s += t.elapsed().as_secs_f64();
            match stored.and_then(std::fs::metadata) {
                Ok(meta) => store_bytes += meta.len(),
                Err(e) => c.fail(format!("cache store: {e}")),
            }
        }
        for (k, spec) in specs.iter().enumerate() {
            let t = Instant::now();
            let loaded = cache.load(spec);
            load_s += t.elapsed().as_secs_f64();
            match loaded {
                Some(out) => c.check(k, &out),
                None => c.fail(format!("{}: stored entry did not load", spec.label())),
            }
        }
        times.store.push(store_s);
        times.load.push(load_s);

        let dir = scratch.dir(&format!("sweep{i}"));
        let sweep = || {
            Sweep::new(specs.clone())
                .jobs(w.jobs())
                .cache(&dir)
                .run_report()
        };
        let cold = sweep();
        let replay = Instant::now();
        let warm = sweep();
        times.replay.push(replay.elapsed().as_secs_f64());
        for (k, out) in warm.outputs.iter().enumerate() {
            c.check(k, out);
        }
        let loop_s: f64 = cold.outputs.iter().map(|o| o.wall_secs).sum();
        times
            .busy
            .push(loop_s / (cold.jobs as f64 * cold.total_wall_secs));
        hit_frac = (cold.cache_hits() + warm.cache_hits()) as f64 / (2 * specs.len()) as f64;
        let _ = std::fs::remove_dir_all(&dir);

        match &counts {
            None => counts = Some((layers.clone(), outs)),
            Some((first, _)) => {
                if (
                    first.kind_n,
                    first.hook_n,
                    first.push_n,
                    first.next_message_n,
                ) != (
                    layers.kind_n,
                    layers.hook_n,
                    layers.push_n,
                    layers.next_message_n,
                ) {
                    c.fail("traced counts differ between iterations".to_owned());
                }
            }
        }
        times.layers.push(layers);
        i += 1;
    }

    if let Some(path) = spans {
        write_spans(path, &span_log).map_err(|e| format!("writing spans: {e}"))?;
    }
    let (counts, outs) = counts.expect("one iteration ran");
    let mut report = checker.expect("one iteration ran").into_report();
    push_layer_metrics(&mut report, &counts, &outs, &times);
    report.push("experiments.spec_hash.s", median(&times.spec_hash), "s");
    report.push("experiments.cache.store.n", specs.len() as f64, "count");
    report.push("experiments.cache.store.s", median(&times.store), "s");
    report.push("experiments.cache.store.bytes", store_bytes as f64, "B");
    report.push("experiments.cache.load.n", specs.len() as f64, "count");
    report.push("experiments.cache.load.s", median(&times.load), "s");
    report.push("experiments.cache.hit_frac", hit_frac, "ratio");
    report.push("experiments.sweep.busy_frac", median(&times.busy), "ratio");
    report.push("experiments.sweep.replay_s", median(&times.replay), "s");
    report.push("trace.overhead", median(&times.overhead), "ratio");
    Ok(report)
}

/// Adds the simcore, fabric, metrics, traffic, recn, topology and
/// transport metrics: counts from `counts`/`outs`, times as medians.
fn push_layer_metrics(
    report: &mut Report,
    counts: &Layers,
    outs: &[RunOutput],
    times: &LayerTimes,
) {
    let med = |f: &dyn Fn(&Layers) -> f64| median(&times.layers.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&RunOutput) -> u64| outs.iter().map(f).sum::<u64>() as f64;
    let count = "count";

    report.push("simcore.pop.n", counts.pop_n as f64, count);
    report.push("simcore.pop.s", med(&|l| l.pop_s), "s");
    report.push("simcore.push.n", counts.push_n as f64, count);
    report.push("simcore.peak_depth", counts.peak_depth as f64, count);
    for (k, name) in EVENT_KINDS.iter().enumerate() {
        report.push(format!("fabric.{name}.n"), counts.kind_n[k] as f64, count);
        report.push(
            format!("fabric.{name}.self_s"),
            med(&|l| l.kind_self_s[k]),
            "s",
        );
    }
    report.push("fabric.setup_s", med(&|l| l.setup_s), "s");
    report.push("fabric.model_bytes", counts.model_bytes as f64, "B");
    let pkts = sum(&|o| o.counters.delivered_packets);
    report.push("fabric.events_per_pkt", counts.pop_n as f64 / pkts, "ratio");

    report.push(
        "metrics.probe.n",
        counts.hook_n.iter().sum::<u64>() as f64,
        count,
    );
    report.push("metrics.probe.s", med(&|l| l.probe_s), "s");
    for (h, name) in HOOKS.iter().enumerate() {
        report.push(
            format!("metrics.probe.{name}.n"),
            counts.hook_n[h] as f64,
            count,
        );
    }
    report.push("metrics.render_s", med(&|l| l.render_s), "s");

    report.push(
        "traffic.next_message.n",
        counts.next_message_n as f64,
        count,
    );
    report.push("traffic.next_message.s", med(&|l| l.next_message_s), "s");

    report.push(
        "recn.notifications.n",
        sum(&|o| o.counters.recn_notifications),
        count,
    );
    report.push("recn.saq_allocs.n", sum(&|o| o.counters.saq_allocs), count);
    report.push("recn.rejects.n", sum(&|o| o.counters.recn_rejects), count);
    report.push("recn.tokens.n", sum(&|o| o.counters.recn_tokens), count);
    report.push("recn.xoffs.n", sum(&|o| o.counters.xoffs), count);
    report.push(
        "recn.root_activations.n",
        sum(&|o| o.counters.root_activations),
        count,
    );
    let saq_peak = outs.iter().map(|o| o.saq_peaks.2).max().unwrap_or(0);
    report.push("recn.saq_peak", saq_peak as f64, count);

    report.push("topology.hops.n", counts.hops() as f64, count);
    report.push(
        "topology.arn_notifications.n",
        sum(&|o| o.counters.arn_hot_notifications + o.counters.arn_cold_notifications),
        count,
    );

    report.push(
        "fabric.transport.retransmits.n",
        sum(&|o| o.counters.retransmitted_packets),
        count,
    );
    report.push(
        "fabric.transport.timeouts.n",
        sum(&|o| o.counters.transport_timeouts),
        count,
    );
    report.push(
        "fabric.transport.acks.n",
        sum(&|o| o.counters.transport_acks),
        count,
    );
    report.push(
        "fabric.transport.pfc_drops.n",
        sum(&|o| o.counters.pfc_dropped_packets),
        count,
    );
}

/// Writes raw spans as JSON lines: run label, span name, start and end
/// (ns after that run's loop began), and the parent event for children.
fn write_spans(path: &Path, spans: &[(String, Span)]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (run, s) in spans {
        let parent = if s.child {
            s.event.to_string()
        } else {
            "null".to_owned()
        };
        writeln!(
            f,
            "{{\"run\": \"{run}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"event\": {}, \"parent\": {parent}}}",
            s.name, s.start_ns, s.end_ns, s.event
        )?;
    }
    f.flush()
}
