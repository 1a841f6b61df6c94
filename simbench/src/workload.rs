//! The four benchmark workloads and the run specs each one submits.
//!
//! Every workload is a batch job: a fixed set of simulations whose traffic
//! is generated from the benchmark's `--seed`. Sizes (hosts, compression,
//! horizons) are fixed here so that a parent commit and a change always
//! measure the same work.

use experiments::runner::{paper_recn_config, scaled_recn_config, Workload as Traffic};
use experiments::{RunSpec, SchemeSet};
use fabric::{RoutingPolicy, SchemeKind, TransportKind};
use simcore::{EventModel, MetricsMode, Picos};
use topology::{FatTreeParams, MinParams};
use traffic::corner::CornerCase;
use traffic::FlowSet;

/// The seed whose simulated outputs are pinned in `pins.txt`. (Seed 7 is
/// held out: no tuning uses it, so a claimed gain can be confirmed on it.)
pub const DEFAULT_SEED: u64 = 2005;

/// Time compression of the 256-host hotspot and the 64-host sweep: the
/// Table 1 windows shrink 64×, so a run lasts about a second of host time.
const HOTSPOT_DIV: u64 = 64;

/// Time compression of the 4096-host hotspot. CI's scale smoke uses 256;
/// 1024 keeps one run near a second of host time while the congestion
/// tree still forms and the event queue still reaches ~80k entries.
const SCALE_DIV: u64 = 1024;

/// How much simulated time a workload covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// A horizon of a few microseconds, for smoke tests.
    Tiny,
}

impl Size {
    /// The simulated horizon: `full`, or 2 µs for [`Size::Tiny`].
    fn horizon(self, full: Picos) -> Picos {
        match self {
            Size::Full => full,
            Size::Tiny => Picos::from_us(2),
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 6 congestion-tree scenario on the 256-host MIN.
    Hotspot256,
    /// Uniform 64-B traffic at load 0.6 on the 64-host MIN: no tree.
    Uniform64,
    /// The strided hotspot on the 4096-host fat tree.
    Scale4096,
    /// The routing × scheme hotspot matrix on `ft_64` plus incast64 under
    /// three transports, as one two-worker sweep through the run cache.
    SweepFt64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Hotspot256,
        Workload::Uniform64,
        Workload::Scale4096,
        Workload::SweepFt64,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hotspot256 => "hotspot256",
            Workload::Uniform64 => "uniform64",
            Workload::Scale4096 => "scale4096",
            Workload::SweepFt64 => "sweep_ft64",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload's sweep uses (the single-run workloads
    /// run in one thread).
    pub fn jobs(self) -> usize {
        match self {
            Workload::SweepFt64 => 2,
            _ => 1,
        }
    }

    /// The run specs of the workload for `seed`.
    pub fn specs(self, seed: u64, size: Size) -> Vec<RunSpec> {
        let specs = match self {
            Workload::Hotspot256 => vec![RunSpec::corner(
                MinParams::paper_256(),
                SchemeKind::Recn(scaled_recn_config(16)),
                CornerCase::case2_256().with_seed(seed).shrunk(HOTSPOT_DIV),
            )
            .with_horizon(size.horizon(Picos::from_us(1600) / HOTSPOT_DIV))
            .with_label("hotspot256")],
            Workload::Uniform64 => vec![RunSpec::new(
                MinParams::paper_64(),
                SchemeKind::Recn(paper_recn_config()),
                Traffic::Uniform {
                    load: 0.6,
                    msg_bytes: 64,
                    seed,
                },
            )
            .with_horizon(size.horizon(Picos::from_us(200)))
            .with_label("uniform64")],
            Workload::Scale4096 => vec![RunSpec::corner(
                FatTreeParams::ft_4096(),
                SchemeKind::Recn(scaled_recn_config(SCALE_DIV)),
                CornerCase::fattree_4096().with_seed(seed).shrunk(SCALE_DIV),
            )
            .with_horizon(size.horizon(Picos::from_us(1600) / SCALE_DIV))
            .with_metrics(MetricsMode::Streaming)
            .with_label("scale4096")],
            Workload::SweepFt64 => sweep_specs(seed, size),
        };
        specs
            .into_iter()
            .map(|s| {
                s.with_bin(Picos::from_us(1))
                    .with_event_model(EventModel::Lazy)
            })
            .collect()
    }
}

/// The 18 cells of `sweep_ft64`: {deterministic, adaptive, arn} ×
/// {VOQnet, VOQsw, 4Q, 1Q, RECN} on the 4-ary 3-tree hotspot, then incast64
/// under go-back-N, NACK and PFC.
fn sweep_specs(seed: u64, size: Size) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for routing in [
        RoutingPolicy::Deterministic,
        RoutingPolicy::adaptive(),
        RoutingPolicy::arn(),
    ] {
        for scheme in SchemeSet::All.schemes_scaled(HOTSPOT_DIV) {
            specs.push(
                RunSpec::corner(
                    FatTreeParams::ft_64(),
                    scheme,
                    CornerCase::fattree_64().with_seed(seed).shrunk(HOTSPOT_DIV),
                )
                .with_routing(routing)
                .with_horizon(size.horizon(Picos::from_us(1600) / HOTSPOT_DIV))
                .with_label(format!("ft64/{}/{}", routing.name(), scheme.name())),
            );
        }
    }
    // Closed-loop flows finish on their own; the horizon only bounds a run
    // whose recovery stalls.
    for transport in ["gbn", "nack", "pfc"] {
        let transport = TransportKind::parse(transport).expect("known transport name");
        specs.push(
            RunSpec::flows(
                MinParams::paper_64(),
                SchemeKind::Recn(scaled_recn_config(HOTSPOT_DIV)),
                FlowSet::incast64(),
            )
            .with_transport(transport)
            .with_horizon(size.horizon(Picos::from_us(2000)))
            .with_label(format!("incast64/{}", transport.name())),
        );
    }
    specs
}
