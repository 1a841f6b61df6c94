//! The traced run: the same simulation `run_one` performs, rebuilt from
//! the public pieces (`Network::new`, `Network::prime`, the event queue and
//! `SimModel::handle`) so the benchmark can put timers at each layer
//! boundary without changing the program.
//!
//! Counts are exact. Times are sampled and scaled up by the sampled
//! fraction: each event has its handler span timed with probability
//! 1/[`EVENT_STRIDE`], or else the observer and source calls inside it with
//! the same probability, and every [`POP_STRIDE`]-th pop is timed. A handler's self time is its
//! estimated span minus its estimated child time. Timing every event would
//! inflate the loop by roughly 1.3–1.5×.
//!
//! Every timed interval also contains the cost of reading the clock once.
//! Each run measures that cost (`clock_cost_ns`) and subtracts it once
//! per timed interval, so a cheap hook that fires many times per event
//! is not overstated.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use experiments::runner::{RunOutput, Workload as Traffic, OUTPUT_SCHEMA_VERSION};
use experiments::RunSpec;
use fabric::{
    Event, FabricConfig, FanoutObserver, MessageSource, NetObserver, Network, Packet, PortRef,
    QueueKind, SaqSite, SilentSource, SourcedMessage, ValidatingObserver,
};
use metrics::Probe;
use simcore::{EventQueue, MetricsMode, Picos, SimModel};
use topology::{HostId, PathSpec};

/// One event in `EVENT_STRIDE` has its span timed, another its children.
pub const EVENT_STRIDE: u64 = 8;
/// Every `POP_STRIDE`-th pop is timed.
pub const POP_STRIDE: u64 = 8;
/// Raw spans kept per traced run; the aggregates cover every event.
const SPAN_CAP: usize = 4096;
/// Back-to-back clock reads measured per run by `clock_cost_ns`.
const CLOCK_SAMPLES: usize = 1001;

/// The time one timed interval adds to what it measures: the median gap
/// between two back-to-back `Instant::now()` calls.
fn clock_cost_ns() -> u64 {
    let mut gaps: Vec<u64> = (0..CLOCK_SAMPLES)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.duration_since(a).as_nanos() as u64
        })
        .collect();
    gaps.sort_unstable();
    gaps[gaps.len() / 2]
}

/// The 13 kinds of `fabric::Event`, in declaration order.
pub const EVENT_KINDS: [&str; 13] = [
    "NextMessage",
    "NicTransfer",
    "NicArb",
    "Deliver",
    "DeliverRev",
    "InputArb",
    "XbarDone",
    "OutputArb",
    "SaqIdleCheck",
    "FlowStart",
    "TransportAck",
    "TransportTimeout",
    "Sweep",
];

fn kind(ev: &Event) -> usize {
    match ev {
        Event::NextMessage { .. } => 0,
        Event::NicTransfer { .. } => 1,
        Event::NicArb { .. } => 2,
        Event::Deliver { .. } => 3,
        Event::DeliverRev { .. } => 4,
        Event::InputArb { .. } => 5,
        Event::XbarDone { .. } => 6,
        Event::OutputArb { .. } => 7,
        Event::SaqIdleCheck { .. } => 8,
        Event::FlowStart { .. } => 9,
        Event::TransportAck { .. } => 10,
        Event::TransportTimeout { .. } => 11,
        Event::Sweep => 12,
    }
}

/// The 14 `NetObserver` hooks, in declaration order.
pub const HOOKS: [&str; 14] = [
    "injected",
    "delivered",
    "saq_census",
    "root_change",
    "hop",
    "enqueue",
    "dequeue",
    "credit_change",
    "saq_alloc",
    "saq_dealloc",
    "drop_attempt",
    "retransmit",
    "pause_change",
    "flow_complete",
];
const HOP: usize = 4;

/// One raw span: a sampled handler, or an observer or source call inside
/// one (its parent is the handler's event).
#[derive(Debug, Clone)]
pub struct Span {
    /// Event kind, `probe.<hook>` or `traffic.next_message`.
    pub name: &'static str,
    /// Start, ns after the traced run's loop began.
    pub start_ns: u64,
    /// End, ns after the traced run's loop began.
    pub end_ns: u64,
    /// Index of the event the span belongs to.
    pub event: u64,
    /// Whether the span is a child of that event's handler span.
    pub child: bool,
}

/// State shared by the loop and the forwarding timers.
struct Tracer {
    origin: Instant,
    /// Whether a sampled event is executing (children time themselves).
    timing: Cell<bool>,
    event: Cell<u64>,
    hook_n: [Cell<u64>; 14],
    next_message_n: Cell<u64>,
    /// Child time and timed calls observed since the last `take_children`.
    probe: Child,
    source: Child,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            timing: Cell::new(false),
            event: Cell::new(0),
            hook_n: Default::default(),
            next_message_n: Cell::new(0),
            probe: Child::default(),
            source: Child::default(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn record(&self, name: &'static str, start: Instant, end: Instant, child: bool) {
        let mut spans = self.spans.borrow_mut();
        if spans.len() < SPAN_CAP {
            spans.push(Span {
                name,
                start_ns: self.ns_since_origin(start),
                end_ns: self.ns_since_origin(end),
                event: self.event.get(),
                child,
            });
        }
    }

    fn child_done(&self, name: &'static str, start: Instant, acc: &Child) {
        let end = Instant::now();
        acc.ns
            .set(acc.ns.get() + end.duration_since(start).as_nanos() as u64);
        acc.calls.set(acc.calls.get() + 1);
        self.record(name, start, end, true);
    }

    /// Returns and clears the `(observer, source)` child time seen since
    /// the last call, each as `(ns, timed calls)`.
    fn take_children(&self) -> ((u64, u64), (u64, u64)) {
        (self.probe.take(), self.source.take())
    }
}

/// Timed child calls of one kind (observer or source).
#[derive(Default)]
struct Child {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Child {
    fn take(&self) -> (u64, u64) {
        (self.ns.replace(0), self.calls.replace(0))
    }
}

/// Forwards every hook to the real observers, counting each call and
/// timing it while a sampled event executes.
struct TimedObserver {
    inner: FanoutObserver,
    tracer: Rc<Tracer>,
}

const PROBE_SPAN: [&str; 14] = [
    "probe.injected",
    "probe.delivered",
    "probe.saq_census",
    "probe.root_change",
    "probe.hop",
    "probe.enqueue",
    "probe.dequeue",
    "probe.credit_change",
    "probe.saq_alloc",
    "probe.saq_dealloc",
    "probe.drop_attempt",
    "probe.retransmit",
    "probe.pause_change",
    "probe.flow_complete",
];

macro_rules! forward {
    ($self:ident, $hook:expr, $call:expr) => {{
        let n = &$self.tracer.hook_n[$hook];
        n.set(n.get() + 1);
        if $self.tracer.timing.get() {
            let start = Instant::now();
            $call;
            $self
                .tracer
                .child_done(PROBE_SPAN[$hook], start, &$self.tracer.probe);
        } else {
            $call;
        }
    }};
}

impl NetObserver for TimedObserver {
    fn on_injected(&mut self, now: Picos, pkt: &Packet) {
        forward!(self, 0, self.inner.on_injected(now, pkt))
    }
    fn on_delivered(&mut self, now: Picos, pkt: &Packet) {
        forward!(self, 1, self.inner.on_delivered(now, pkt))
    }
    fn on_saq_census(&mut self, now: Picos, max_ingress: u32, max_egress: u32, total: u32) {
        forward!(
            self,
            2,
            self.inner
                .on_saq_census(now, max_ingress, max_egress, total)
        )
    }
    fn on_root_change(&mut self, now: Picos, switch: usize, port: usize, active: bool) {
        forward!(
            self,
            3,
            self.inner.on_root_change(now, switch, port, active)
        )
    }
    fn on_hop(&mut self, now: Picos, pkt: &Packet, link: usize) {
        forward!(self, HOP, self.inner.on_hop(now, pkt, link))
    }
    fn on_enqueue(
        &mut self,
        now: Picos,
        port: PortRef,
        queue: usize,
        kind: QueueKind,
        pkt: &Packet,
    ) {
        forward!(self, 5, self.inner.on_enqueue(now, port, queue, kind, pkt))
    }
    fn on_dequeue(
        &mut self,
        now: Picos,
        port: PortRef,
        queue: usize,
        kind: QueueKind,
        pkt: &Packet,
    ) {
        forward!(self, 6, self.inner.on_dequeue(now, port, queue, kind, pkt))
    }
    fn on_credit_change(
        &mut self,
        now: Picos,
        link: usize,
        queue: u16,
        delta: i64,
        free_after: u64,
        cap: Option<u64>,
    ) {
        forward!(
            self,
            7,
            self.inner
                .on_credit_change(now, link, queue, delta, free_after, cap)
        )
    }
    fn on_saq_alloc(
        &mut self,
        now: Picos,
        site: SaqSite,
        index: usize,
        line: usize,
        path: &PathSpec,
    ) {
        forward!(
            self,
            8,
            self.inner.on_saq_alloc(now, site, index, line, path)
        )
    }
    fn on_saq_dealloc(
        &mut self,
        now: Picos,
        site: SaqSite,
        index: usize,
        line: usize,
        path: &PathSpec,
    ) {
        forward!(
            self,
            9,
            self.inner.on_saq_dealloc(now, site, index, line, path)
        )
    }
    fn on_drop_attempt(&mut self, now: Picos, host: usize, dst: HostId, bytes: u32) {
        forward!(self, 10, self.inner.on_drop_attempt(now, host, dst, bytes))
    }
    fn on_retransmit(&mut self, now: Picos, host: usize, dst: HostId, seq: u64) {
        forward!(self, 11, self.inner.on_retransmit(now, host, dst, seq))
    }
    fn on_pause_change(&mut self, now: Picos, link: usize, paused: bool) {
        forward!(self, 12, self.inner.on_pause_change(now, link, paused))
    }
    fn on_flow_complete(&mut self, now: Picos, src: HostId, dst: HostId, fct: Picos) {
        forward!(self, 13, self.inner.on_flow_complete(now, src, dst, fct))
    }
}

/// Forwards `next_message` to a traffic source, counting and timing it.
struct TimedSource {
    inner: Box<dyn MessageSource>,
    tracer: Rc<Tracer>,
}

impl MessageSource for TimedSource {
    fn next_message(&mut self) -> Option<SourcedMessage> {
        let n = &self.tracer.next_message_n;
        n.set(n.get() + 1);
        if self.tracer.timing.get() {
            let start = Instant::now();
            let msg = self.inner.next_message();
            self.tracer
                .child_done("traffic.next_message", start, &self.tracer.source);
            msg
        } else {
            self.inner.next_message()
        }
    }
}

/// The message sources `run_one` builds for a spec's traffic.
fn sources(spec: &RunSpec) -> Vec<Box<dyn MessageSource>> {
    let hosts = spec.params().hosts();
    match spec.workload() {
        Traffic::Corner(c) => c.build_sources(spec.horizon()),
        Traffic::San(p) => p.build_sources(hosts, spec.horizon()),
        Traffic::Uniform {
            load,
            msg_bytes,
            seed,
        } => (0..hosts)
            .map(|h| {
                Box::new(
                    traffic::RandomUniformSource::new(
                        hosts,
                        Some(HostId::new(h)),
                        *msg_bytes,
                        *load,
                    )
                    .window(Picos::ZERO, spec.horizon())
                    .seed(seed.wrapping_add(h as u64))
                    .build(),
                ) as Box<dyn MessageSource>
            })
            .collect(),
        Traffic::Flows(_) => (0..hosts)
            .map(|_| Box::new(SilentSource) as Box<dyn MessageSource>)
            .collect(),
    }
}

/// The fabric configuration `run_one` derives from a spec.
fn fabric_config(spec: &RunSpec) -> FabricConfig {
    let mut cfg = if spec.params().hosts() >= 512 {
        FabricConfig::paper_512(spec.scheme())
    } else {
        FabricConfig::paper(spec.scheme())
    }
    .with_routing(spec.routing())
    .with_event_model(spec.event_model())
    .with_transport(spec.transport());
    cfg.admit_cap = match spec.workload() {
        Traffic::San(_) => 64 * 1024,
        _ => 4 * 1024,
    };
    cfg
}

/// Per-layer measurements of traced runs; counts add across runs.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Events per kind.
    pub kind_n: [u64; 13],
    /// Estimated handler self seconds per kind.
    pub kind_self_s: [f64; 13],
    /// Events popped.
    pub pop_n: u64,
    /// Estimated seconds spent in `EventQueue::pop`.
    pub pop_s: f64,
    /// Events scheduled (`EventQueue::scheduled_total`).
    pub push_n: u64,
    /// Deepest event queue of any run.
    pub peak_depth: u64,
    /// `Network::new` + `prime` seconds.
    pub setup_s: f64,
    /// Largest `peak_bytes_estimate` of any run.
    pub model_bytes: u64,
    /// Observer calls per hook.
    pub hook_n: [u64; 14],
    /// Estimated seconds inside the observers.
    pub probe_s: f64,
    /// Seconds rendering the probe's series and summaries.
    pub render_s: f64,
    /// `MessageSource::next_message` calls.
    pub next_message_n: u64,
    /// Estimated seconds inside the traffic sources.
    pub next_message_s: f64,
    /// Traced event-loop seconds.
    pub loop_s: f64,
    /// Seconds from event-queue creation to the end of the loop: the
    /// interval `RunOutput::wall_secs` covers in `run_one` (queue
    /// allocation and priming included).
    pub engine_s: f64,
}

impl Layers {
    /// Adds another traced run's measurements.
    pub fn add(&mut self, o: &Layers) {
        for k in 0..13 {
            self.kind_n[k] += o.kind_n[k];
            self.kind_self_s[k] += o.kind_self_s[k];
        }
        for h in 0..14 {
            self.hook_n[h] += o.hook_n[h];
        }
        self.pop_n += o.pop_n;
        self.pop_s += o.pop_s;
        self.push_n += o.push_n;
        self.peak_depth = self.peak_depth.max(o.peak_depth);
        self.setup_s += o.setup_s;
        self.model_bytes = self.model_bytes.max(o.model_bytes);
        self.probe_s += o.probe_s;
        self.render_s += o.render_s;
        self.next_message_n += o.next_message_n;
        self.next_message_s += o.next_message_s;
        self.loop_s += o.loop_s;
        self.engine_s += o.engine_s;
    }

    /// On-path `topology` count: data-packet hops.
    pub fn hops(&self) -> u64 {
        self.hook_n[HOP]
    }
}

/// Runs `spec` traced. `validate` fans a `ValidatingObserver` in beside
/// the probe (it panics on a broken invariant). Also returns the first
/// [`SPAN_CAP`] raw spans.
pub fn run_traced(spec: &RunSpec, validate: bool) -> (RunOutput, Layers, Vec<Span>) {
    let tracer = Rc::new(Tracer::new());
    let horizon = spec.horizon();
    let (probe, handle) = match spec.metrics() {
        MetricsMode::Full => Probe::new(spec.bin()),
        MetricsMode::Streaming => Probe::streaming(spec.bin(), horizon),
    };
    let mut fan = FanoutObserver::new().push(Box::new(probe));
    if validate {
        fan = fan.push(Box::new(ValidatingObserver::new().0));
    }
    let observer = TimedObserver {
        inner: fan,
        tracer: tracer.clone(),
    };
    let sources = sources(spec)
        .into_iter()
        .map(|inner| {
            Box::new(TimedSource {
                inner,
                tracer: tracer.clone(),
            }) as Box<dyn MessageSource>
        })
        .collect();
    let mut layers = Layers::default();
    let clock_ns = clock_cost_ns();
    // Time measured over `calls` timed intervals, less the clock reads.
    let net_ns = |ns: u64, calls: u64| ns.saturating_sub(calls * clock_ns);

    let setup = Instant::now();
    let mut net = Network::new(
        spec.params(),
        fabric_config(spec),
        spec.packet_size(),
        sources,
        Box::new(observer),
    );
    if let Traffic::Flows(f) = spec.workload() {
        net.install_flows(&f.build());
    }
    let engine = Instant::now();
    let mut q = EventQueue::with_scheduler(spec.scheduler());
    // Priming pulls each source's first message: time all of it, but keep
    // the raw-span budget for the loop.
    tracer.timing.set(true);
    net.prime(&mut q);
    tracer.timing.set(false);
    let (_, (prime_ns, prime_calls)) = tracer.take_children();
    tracer.spans.borrow_mut().clear();
    layers.setup_s = setup.elapsed().as_secs_f64();

    // Per kind: handler spans timed on one sample of events, child calls
    // timed on a disjoint sample, so timing the children never inflates a
    // measured span.
    let mut span_n = [0u64; 13];
    let mut span_ns = [0u64; 13];
    let mut child_n = [0u64; 13];
    let mut probe_ns = [0u64; 13];
    let mut probe_calls = [0u64; 13];
    let mut source_ns = [0u64; 13];
    let mut source_calls = [0u64; 13];
    let (mut pop_sampled, mut pop_ns) = (0u64, 0u64);
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut now = Picos::ZERO;
    let started = Instant::now();
    while let Some(t) = q.peek_time() {
        if t > horizon {
            break;
        }
        let pop_start = (layers.pop_n % POP_STRIDE == 0).then(Instant::now);
        let ev = q.pop().expect("peeked event must exist");
        if let Some(start) = pop_start {
            pop_ns += start.elapsed().as_nanos() as u64;
            pop_sampled += 1;
        }
        layers.pop_n += 1;
        assert!(ev.time >= now, "event scheduled in the past");
        now = ev.time;
        let k = kind(&ev.event);
        layers.kind_n[k] += 1;
        // Pseudo-random (xorshift) choice, so the samples cannot alias
        // with periodic event patterns.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let phase = rng % EVENT_STRIDE;
        if phase == 0 {
            let start = Instant::now();
            net.handle(now, ev.event, &mut q);
            let end = Instant::now();
            span_n[k] += 1;
            span_ns[k] += end.duration_since(start).as_nanos() as u64;
            tracer.event.set(layers.pop_n - 1);
            tracer.record(EVENT_KINDS[k], start, end, false);
        } else if phase == 1 {
            tracer.event.set(layers.pop_n - 1);
            tracer.timing.set(true);
            let start = Instant::now();
            net.handle(now, ev.event, &mut q);
            let end = Instant::now();
            tracer.timing.set(false);
            let ((p, pc), (s, sc)) = tracer.take_children();
            child_n[k] += 1;
            probe_ns[k] += p;
            probe_calls[k] += pc;
            source_ns[k] += s;
            source_calls[k] += sc;
            tracer.record(EVENT_KINDS[k], start, end, false);
        } else {
            net.handle(now, ev.event, &mut q);
        }
    }
    layers.loop_s = started.elapsed().as_secs_f64();
    layers.engine_s = engine.elapsed().as_secs_f64();

    // Scale each kind's samples up to all its events.
    let scaled = |ns: u64, sampled: u64, k: usize| {
        if sampled == 0 {
            0.0
        } else {
            ns as f64 * 1e-9 * layers.kind_n[k] as f64 / sampled as f64
        }
    };
    for k in 0..13 {
        let probe = scaled(net_ns(probe_ns[k], probe_calls[k]), child_n[k], k);
        let source = scaled(net_ns(source_ns[k], source_calls[k]), child_n[k], k);
        let span = scaled(net_ns(span_ns[k], span_n[k]), span_n[k], k);
        layers.kind_self_s[k] = (span - probe - source).max(0.0);
        layers.probe_s += probe;
        layers.next_message_s += source;
    }
    if pop_sampled > 0 {
        layers.pop_s =
            net_ns(pop_ns, pop_sampled) as f64 * 1e-9 * layers.pop_n as f64 / pop_sampled as f64;
    }
    // With few events a kind's scaled samples can overshoot; the estimates
    // cannot jointly exceed the loop they were measured in.
    let estimated = layers.kind_self_s.iter().sum::<f64>()
        + layers.probe_s
        + layers.next_message_s
        + layers.pop_s;
    if estimated > layers.loop_s {
        let fit = layers.loop_s / estimated;
        layers.kind_self_s.iter_mut().for_each(|s| *s *= fit);
        layers.probe_s *= fit;
        layers.next_message_s *= fit;
        layers.pop_s *= fit;
    }
    layers.next_message_s += net_ns(prime_ns, prime_calls) as f64 * 1e-9;
    layers.push_n = q.scheduled_total();
    layers.peak_depth = q.peak_len() as u64;
    for h in 0..14 {
        layers.hook_n[h] = tracer.hook_n[h].get();
    }
    layers.next_message_n = tracer.next_message_n.get();

    let render = Instant::now();
    let out = RunOutput {
        schema_version: OUTPUT_SCHEMA_VERSION,
        scheme: spec.scheme().name(),
        throughput: handle.throughput(horizon),
        saq_ingress: handle.saq_max_ingress(horizon),
        saq_egress: handle.saq_max_egress(horizon),
        saq_total: handle.saq_total(horizon),
        saq_peaks: handle.saq_peaks(),
        counters: net.counters().clone(),
        wall_secs: layers.engine_s,
        events: layers.pop_n,
        peak_event_queue_depth: q.peak_len(),
        trace_digest: None,
        peak_bytes_estimate: 0,
        stream: handle.stream_summary(),
        fct: handle.fct_summary(),
    };
    layers.render_s = render.elapsed().as_secs_f64();
    let out = RunOutput {
        peak_bytes_estimate: net.memory_footprint()
            + Network::event_queue_bytes(q.peak_len())
            + handle.backing_bytes(),
        ..out
    };
    layers.model_bytes = out.peak_bytes_estimate;
    let spans = tracer.spans.take();
    (out, layers, spans)
}
