//! Flight-recorded detection runs: train, attack, discover with the
//! causal trace on, explain the verdict, and package everything as a
//! [`FlightRecording`] for the `sam-trace` CLI.

use crate::runner::{train_normal_profile, Trial};
use crate::scenario::ScenarioSpec;
use manet_attacks::WormholeConfig;
use manet_routing::RouterConfig;
use manet_sim::{Channel, NodeId};
use sam::prelude::*;
use sam_flight::{reconstruct_route, FlightMeta, FlightRecording};
use sam_telemetry::Telemetry;

/// Knobs for one recorded run.
#[derive(Clone, Debug)]
pub struct FlightOptions {
    /// Trace buffer bound (entries past it are counted, not stored).
    pub trace_capacity: usize,
    /// Normal-condition discoveries used to train the profile.
    pub train_runs: u64,
    /// Fault plan composed onto the recorded run (training always stays
    /// clean). Fault activations land on the trace's fault channel, so
    /// the recording explains every loss burst and churn event.
    pub faults: Option<sam_faults::FaultPlan>,
}

impl Default for FlightOptions {
    fn default() -> Self {
        FlightOptions {
            trace_capacity: 200_000,
            train_runs: 8,
            faults: None,
        }
    }
}

/// Run `spec` once with the flight recorder on, explain the verdict, and
/// return the full recording plus the typed explanation.
///
/// The run's engine telemetry (spans, counters) is captured into a
/// *local* collector — no global install — so this is safe to call from
/// parallel tests.
pub fn record_flight(
    spec: &ScenarioSpec,
    run: u64,
    opts: &FlightOptions,
) -> (FlightRecording, Explanation) {
    let tel = Telemetry::new();

    // Train on attack-free discoveries with disjoint run indices.
    let normal = ScenarioSpec {
        active_wormholes: 0,
        ..*spec
    };
    let profile = train_normal_profile(&normal, opts.train_runs);
    // The calibrated 2.5σ threshold, as in the detection experiment:
    // small-sample profiles under-fire at the library's 3σ default.
    let detector = SamDetector::new(SamConfig::calibrated());

    // The recorded run, trace on.
    let mut trial = Trial::new(
        spec,
        run,
        &RouterConfig::new(spec.protocol),
        WormholeConfig::blackholing(),
        opts.faults.as_ref(),
    );
    trial.session.network_mut().set_telemetry(Some(tel.clone()));
    trial.session.enable_trace(opts.trace_capacity);
    let discovery = trial.discover();
    let trace = trial.session.take_trace().expect("tracing was enabled");

    // Explain the verdict from the table the analysis read, backing
    // every suspicious route's hops with the causal trace.
    let stats = LinkStats::from_routes(&discovery.routes);
    let analysis = detector.analyze_with(&discovery.routes, &stats, &profile);
    let verdict = verdict_from_sam(detector.config(), &analysis);
    let mut explanation = Explanation::from_verdict_with(&discovery.routes, &stats, &verdict);
    for i in 0..explanation.routes.len() {
        let nodes: Vec<NodeId> = explanation.routes[i]
            .nodes
            .iter()
            .map(|&n| NodeId(n))
            .collect();
        if let Some(lineage) = reconstruct_route(&trace, &nodes) {
            let hops: Vec<HopProvenance> = lineage
                .hops
                .iter()
                .map(|e| HopProvenance {
                    from: e.from().expect("hop entries are deliveries").0,
                    to: e.node.0,
                    tunneled: e.channel() == Some(Channel::Tunnel),
                    event: Some(e.id),
                    cause: e.cause,
                })
                .collect();
            explanation.set_provenance(i, hops, lineage.depth as u64);
        }
    }

    let mut meta = FlightMeta::new(&spec.topology.label(), spec.protocol.label(), trial.seed);
    meta.nodes = trial.plan.topology.len() as u64;
    meta.src = trial.src.0;
    meta.dst = trial.dst.0;
    meta.attacker_pairs = trial.plan.attacker_pairs[..spec.active_wormholes]
        .iter()
        .map(|p| (p.a.0, p.b.0))
        .collect();
    meta.dropped = trace.dropped();

    let mut recording = FlightRecording::new(meta);
    recording.entries = trace.entries().to_vec();
    recording.spans = tel.drain();
    recording.snapshot = Some(tel.snapshot());
    let line = serde_json::to_string(&explanation).expect("explanation serializes");
    recording.explanation = Some(serde_json::from_str(&line).expect("explanation reparses"));
    (recording, explanation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TopologyKind;
    use manet_routing::ProtocolKind;

    #[test]
    fn recorded_wormhole_run_explains_the_attack_link() {
        let spec = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
        let (recording, explanation) = record_flight(&spec, 0, &FlightOptions::default());

        // The explainer names the attacker-pair link as most frequent.
        let pair = recording.meta.attacker_pairs[0];
        let expected = (pair.0.min(pair.1), pair.0.max(pair.1));
        assert_eq!(
            explanation.suspect_link,
            Some(expected),
            "suspect must be the attacker pair: {explanation:?}"
        );
        assert!(explanation.anomalous, "wormhole run must be flagged");

        // At least one explained route's lineage crossed the tunnel.
        assert!(
            explanation.routes.iter().any(|r| r.tunnel_hops > 0),
            "no explained route shows a tunnel traversal"
        );
        assert!(explanation.tunnel_traversals > 0);

        // The recording itself is coherent: causal entries present,
        // non-trivial lineage depth, engine spans captured.
        assert!(!recording.entries.is_empty());
        assert!(recording.trace().max_lineage_depth() > 1);
        assert!(recording.snapshot.is_some());
        assert!(recording.explanation.is_some());
    }

    #[test]
    fn faulted_recording_lands_on_the_fault_channel() {
        let spec = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
        let opts = FlightOptions {
            faults: Some(sam_faults::FaultPlan::constant_loss(0.2)),
            ..FlightOptions::default()
        };
        let (recording, _) = record_flight(&spec, 0, &opts);
        let summary = sam_flight::FlightSummary::from_recording(&recording);
        assert!(
            summary.faults > 0,
            "a 20% loss field must drop something: {summary}"
        );
    }

    #[test]
    fn normal_run_is_not_flagged() {
        let spec = ScenarioSpec::normal(TopologyKind::cluster1(), ProtocolKind::Mr);
        let (recording, explanation) = record_flight(&spec, 0, &FlightOptions::default());
        assert!(!explanation.anomalous, "{explanation:?}");
        assert_eq!(recording.meta.attacker_pairs, vec![]);
        let summary = sam_flight::FlightSummary::from_recording(&recording);
        assert_eq!(summary.tunnel, 0, "no tunnel without an attacker");
    }
}
