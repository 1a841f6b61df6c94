//! Output checks: what a run must reproduce exactly.
//!
//! Two levels. The *pin* of a run is the short list of simulated outputs
//! recorded in `pins.txt` for [`DEFAULT_SEED`](crate::workload::DEFAULT_SEED):
//! delivered packets and bytes, the mean latency's bits, the SAQ peaks,
//! order violations, ARN notification counts and, for closed-loop runs, the
//! FCT p50/p99 bits. The *fingerprint* is everything the run reports about
//! the simulated network (all counters, series and summaries), used to
//! prove that repeated, replayed and traced runs of any seed agree.
//! Neither includes the event count: a change that removes events
//! legitimately moves it.

use experiments::runner::RunOutput;
use experiments::RunSpec;

use crate::workload::Workload;

/// The pinned outputs of `pins.txt`, embedded at build time.
const PINS: &str = include_str!("../pins.txt");

/// One run's pin line: `label key=value ...`.
pub fn pin_line(spec: &RunSpec, out: &RunOutput) -> String {
    let c = &out.counters;
    let fct = out.fct.map_or("-".to_owned(), |f| {
        format!("{:016x}/{:016x}", f.p50_ns.to_bits(), f.p99_ns.to_bits())
    });
    format!(
        "{} pkts={} bytes={} latency_bits={:016x} saq_peaks={}/{}/{} order_violations={} arn={}/{} fct={}",
        spec.label(),
        c.delivered_packets,
        c.delivered_bytes,
        c.latency_ns.mean().to_bits(),
        out.saq_peaks.0,
        out.saq_peaks.1,
        out.saq_peaks.2,
        c.order_violations,
        c.arn_hot_notifications,
        c.arn_cold_notifications,
        fct,
    )
}

/// Every simulated output of a run, rendered exactly (`f64` debug output
/// round-trips), for equality checks between runs of the same spec.
pub fn fingerprint(out: &RunOutput) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        out.counters,
        out.saq_peaks,
        out.fct,
        out.stream,
        out.throughput,
        out.saq_ingress,
        out.saq_egress,
        out.saq_total,
    )
}

/// The pinned lines of `workload`, in spec order.
pub fn pinned(workload: Workload) -> Vec<&'static str> {
    PINS.lines()
        .filter_map(|l| l.strip_prefix(workload.name()))
        .filter_map(|l| l.strip_prefix(' '))
        .collect()
}

/// Checks one output against what every seed must satisfy: delivered
/// traffic, and in-order delivery unless the run may reorder a flow by
/// design (4Q's four queues, or multipath adaptive up-routing).
pub fn sane(spec: &RunSpec, out: &RunOutput) -> Result<(), String> {
    if out.counters.delivered_packets == 0 {
        return Err(format!("{}: no packet delivered", spec.label()));
    }
    let may_reorder = out.scheme == "4Q" || spec.routing().is_adaptive();
    if !may_reorder && out.counters.order_violations != 0 {
        return Err(format!(
            "{}: {} order violations",
            spec.label(),
            out.counters.order_violations
        ));
    }
    Ok(())
}

/// Checks cell `i`'s output against its line in `pins`.
pub fn check_pin(pins: &[&str], i: usize, spec: &RunSpec, out: &RunOutput) -> Result<(), String> {
    let got = pin_line(spec, out);
    match pins.get(i) {
        Some(want) if *want == got => Ok(()),
        Some(want) => Err(format!(
            "pinned output differs:\n  want {want}\n  got  {got}"
        )),
        None => Err(format!("no pin for cell {i} ({})", spec.label())),
    }
}
