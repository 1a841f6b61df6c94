//! Pinned `spec_v1` hashes: the content addresses of the run cache.
//!
//! These constants are the contract that makes cache directories (and
//! spool files full of `spec_v1` hex) portable across versions: if any
//! hash here drifts, old cache entries silently stop matching. A failure
//! means the canonical encoding changed — that requires bumping
//! `SPEC_VERSION`, not updating the table.

use experiments::runner::paper_recn_config;
use experiments::spec::RunSpec;
use fabric::{EventModel, RoutingPolicy, SchemeKind};
use simcore::MetricsMode;
use topology::{FatTreeParams, MinParams};
use traffic::corner::CornerCase;

/// The five schemes of the paper's comparison, paper-exact RECN config.
fn schemes() -> [SchemeKind; 5] {
    [
        SchemeKind::OneQ,
        SchemeKind::FourQ,
        SchemeKind::VoqSw,
        SchemeKind::VoqNet,
        SchemeKind::Recn(paper_recn_config()),
    ]
}

/// Corner case 2 on the 64-host MIN, spec defaults (64 B packets, 1600 µs
/// horizon, deterministic routing, eager events) — one hash per scheme.
/// (Every table in this file is pinned at spec version 6.)
const GOLDEN_MIN: [u64; 5] = [
    0x799a94400f71fac2,
    0xa0963c4d3d14b39d,
    0x980c9c8cc529905c,
    0xf1bafeae25b6f47f,
    0x0d54b6abe220f4f4,
];

/// The fat-tree hotspot under the same five schemes with adaptive
/// up-routing and 512-byte packets.
const GOLDEN_FATTREE_ADAPTIVE: [u64; 5] = [
    0x32e5f2ef273008b8,
    0x53eeb4efe0029cb9,
    0x08fb9650563308c6,
    0x457ee41a88dbc047,
    0x69ee732fd3b1e552,
];

/// The MIN table again under the lazy event model: same simulation
/// behaviour, different content address — lazy outputs report different
/// event counts, so the two models must never alias in the cache.
const GOLDEN_MIN_LAZY: [u64; 5] = [
    0x82440f401459f96d,
    0x97ecc14d382cb4f2,
    0xa0b6178cca118f07,
    0xe91183ae20cef5d4,
    0x15fe31abe708f39f,
];

/// The MIN table under streaming metrics: the run's *behaviour* is
/// identical (streaming is a metrics-storage knob), but the probe's
/// output shape differs — series render empty, a `StreamSummary` rides
/// along — so the two modes must never alias in the cache.
const GOLDEN_MIN_STREAMING: [u64; 5] = [
    0x799dfa400f74ddeb,
    0xa092d64d3d11d074,
    0x9810028cc52c7385,
    0xf1b798ae25b41156,
    0x0d581cabe223d81d,
];

/// Closed-loop incast64 on RECN under each non-open transport, plus the
/// go-back-N spec with streaming metrics.
const GOLDEN_MIN_TRANSPORT: [u64; 4] = [
    0x1432816e8221d1f5, // go-back-N
    0x8802e6330c7b30e4, // NACK
    0x915dbad32ffb24cb, // PFC
    0x6e6b65d3257dcb58, // go-back-N + streaming metrics
];

/// The fat-tree hotspot under ARN routing.
const GOLDEN_FATTREE_ARN: [u64; 5] = [
    0x5981f8bc513f1425,
    0x5ff6069b12db4b1c,
    0x647aba57d48233e7,
    0xb8b07b293187ff26,
    0xf94d6e9bb3de63d3,
];

fn min_spec(scheme: SchemeKind) -> RunSpec {
    RunSpec::corner(MinParams::paper_64(), scheme, CornerCase::case2_64())
}

fn fattree_spec(scheme: SchemeKind) -> RunSpec {
    RunSpec::corner(FatTreeParams::ft_64(), scheme, CornerCase::fattree_64())
        .with_packet_size(512)
        .with_routing(RoutingPolicy::adaptive())
}

#[test]
fn min_spec_hashes_are_pinned() {
    for (scheme, golden) in schemes().into_iter().zip(GOLDEN_MIN) {
        let spec = min_spec(scheme);
        assert_eq!(
            spec.spec_hash(),
            golden,
            "{}: spec_v1 encoding drifted (hash {:#018x}); this breaks \
             existing cache directories — bump SPEC_VERSION instead",
            scheme.name(),
            spec.spec_hash(),
        );
    }
}

#[test]
fn fattree_adaptive_spec_hashes_are_pinned() {
    for (scheme, golden) in schemes().into_iter().zip(GOLDEN_FATTREE_ADAPTIVE) {
        let spec = fattree_spec(scheme);
        assert_eq!(
            spec.spec_hash(),
            golden,
            "{}: fat-tree spec_v1 encoding drifted (hash {:#018x})",
            scheme.name(),
            spec.spec_hash(),
        );
    }
}

#[test]
fn fattree_arn_spec_hashes_are_pinned_and_distinct() {
    for ((scheme, golden), adaptive) in schemes()
        .into_iter()
        .zip(GOLDEN_FATTREE_ARN)
        .zip(GOLDEN_FATTREE_ADAPTIVE)
    {
        let spec = fattree_spec(scheme).with_routing(RoutingPolicy::arn());
        assert_eq!(
            spec.spec_hash(),
            golden,
            "{}: ARN spec_v1 encoding drifted (hash {:#018x}); this breaks \
             existing cache directories — bump SPEC_VERSION instead",
            scheme.name(),
            spec.spec_hash(),
        );
        assert_ne!(
            golden,
            adaptive,
            "{}: the two adaptive policies must have distinct content addresses",
            scheme.name(),
        );
        // The decoded spec carries the policy back out — a cache replay of
        // an ARN entry reruns with notifications on.
        let back = RunSpec::decode_hex(&spec.encode_hex()).expect("round trip");
        assert_eq!(back.routing(), RoutingPolicy::arn());
        assert_eq!(back.spec_hash(), golden);
    }
}

#[test]
fn lazy_spec_hashes_are_pinned_and_distinct() {
    for ((scheme, golden), eager) in schemes().into_iter().zip(GOLDEN_MIN_LAZY).zip(GOLDEN_MIN) {
        let spec = min_spec(scheme).with_event_model(EventModel::Lazy);
        assert_eq!(
            spec.spec_hash(),
            golden,
            "{}: lazy spec_v1 encoding drifted (hash {:#018x})",
            scheme.name(),
            spec.spec_hash(),
        );
        assert_ne!(
            golden,
            eager,
            "{}: the two event models must have distinct content addresses",
            scheme.name(),
        );
        // The decoded spec carries the model back out — a cache replay of a
        // lazy entry reruns lazily.
        let back = RunSpec::decode_hex(&spec.encode_hex()).expect("round trip");
        assert_eq!(back.event_model(), EventModel::Lazy);
    }
}

#[test]
fn streaming_spec_hashes_are_pinned_and_distinct() {
    for ((scheme, golden), full) in schemes()
        .into_iter()
        .zip(GOLDEN_MIN_STREAMING)
        .zip(GOLDEN_MIN)
    {
        let spec = min_spec(scheme).with_metrics(MetricsMode::Streaming);
        assert_eq!(
            spec.spec_hash(),
            golden,
            "{}: streaming spec_v1 encoding drifted (hash {:#018x})",
            scheme.name(),
            spec.spec_hash(),
        );
        assert_ne!(
            golden,
            full,
            "{}: the two metrics modes must have distinct content addresses",
            scheme.name(),
        );
        // The decoded spec carries the mode back out — a cache replay of
        // a streaming entry replays with the streaming output shape.
        let back = RunSpec::decode_hex(&spec.encode_hex()).expect("round trip");
        assert_eq!(back.metrics(), MetricsMode::Streaming);
    }
}

#[test]
fn transport_spec_hashes_are_pinned_and_distinct() {
    use fabric::{PfcConfig, TransportConfig, TransportKind};
    use traffic::FlowSet;

    let base = || {
        RunSpec::flows(
            MinParams::paper_64(),
            SchemeKind::Recn(paper_recn_config()),
            FlowSet::incast64(),
        )
    };
    let specs = [
        base().with_transport(TransportKind::GoBackN(TransportConfig::default())),
        base().with_transport(TransportKind::Nack(TransportConfig::default())),
        base().with_transport(TransportKind::Pfc(
            TransportConfig::default(),
            PfcConfig::default(),
        )),
        base()
            .with_transport(TransportKind::GoBackN(TransportConfig::default()))
            .with_metrics(MetricsMode::Streaming),
    ];
    for (spec, golden) in specs.into_iter().zip(GOLDEN_MIN_TRANSPORT) {
        assert_eq!(
            spec.spec_hash(),
            golden,
            "{}: transport spec_v1 encoding drifted (hash {:#018x}); this \
             breaks existing cache directories — bump SPEC_VERSION instead",
            spec.transport().name(),
            spec.spec_hash(),
        );
        // The decoded spec carries the transport back out — a cache replay
        // of a closed-loop entry reruns closed-loop.
        let back = RunSpec::decode_hex(&spec.encode_hex()).expect("round trip");
        assert_eq!(back.transport(), spec.transport());
        assert_eq!(back.spec_hash(), golden);
    }
}

#[test]
fn hashes_survive_the_hex_round_trip() {
    for scheme in schemes() {
        for spec in [min_spec(scheme), fattree_spec(scheme)] {
            let back = RunSpec::decode_hex(&spec.encode_hex()).expect("round trip");
            assert_eq!(back.spec_hash(), spec.spec_hash());
        }
    }
}

#[test]
fn observers_do_not_move_the_content_address() {
    let base = min_spec(SchemeKind::VoqNet);
    let decorated = min_spec(SchemeKind::VoqNet)
        .with_label("renamed")
        .with_validation(true)
        .with_trace(128);
    assert_eq!(base.spec_hash(), decorated.spec_hash());
}

#[test]
fn every_scheme_gets_a_distinct_address() {
    let mut hashes: Vec<u64> = GOLDEN_MIN
        .iter()
        .chain(GOLDEN_FATTREE_ADAPTIVE.iter())
        .chain(GOLDEN_FATTREE_ARN.iter())
        .chain(GOLDEN_MIN_LAZY.iter())
        .chain(GOLDEN_MIN_STREAMING.iter())
        .chain(GOLDEN_MIN_TRANSPORT.iter())
        .copied()
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(
        hashes.len(),
        29,
        "all twenty-nine golden hashes are distinct"
    );
}
