//! The serving-tier deployment catalogue: which simulated deployments the
//! online tier (`loadgen`, `sam-gateway`) knows how to train profiles
//! for, and the training convention they share.
//!
//! Keeping this in `sam-experiments` (rather than duplicated in each
//! binary) guarantees the gateway process and a remote load generator
//! agree on deployment keys: a key string minted by
//! [`Deployment::key_string`] on the client resolves to the same
//! [`ScenarioSpec`]s — and therefore the same trained profile — on the
//! server.

pub use crate::runner::TRAIN_OFFSET;
use crate::runner::{run_once_faulted, run_once_with_routes};
use crate::scenario::{derive_seed, ScenarioSpec, TopologyKind};
use manet_attacks::WormholeConfig;
use manet_routing::{ProtocolKind, Route, RouterConfig};
use sam::{NormalProfile, SamConfig};
use std::sync::OnceLock;

/// Training route sets per profile.
pub const TRAIN_RUNS: u64 = 8;
/// Distinct replayed route sets per scenario in a loadgen corpus.
pub const REPLAY_SETS: u64 = 16;

/// Deployments in the catalogue.
const CATALOGUE_LEN: usize = 3;

/// The recorded training discoveries of each catalogue entry, in
/// catalogue order. Filled on the entry's first training and kept for
/// the life of the process.
static RECORDINGS: [OnceLock<Vec<Vec<Route>>>; CATALOGUE_LEN] =
    [const { OnceLock::new() }; CATALOGUE_LEN];

/// One deployment the serving tier can answer for: a topology/protocol
/// pair plus its normal and attacked scenario specs.
///
/// A `Deployment` also names its catalogue entry, whose recorded
/// training discoveries [`train_profile`] reads. They belong to the
/// entry, not to `normal`: a copy whose `normal` was edited still trains
/// the entry's profile.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// Topology half of the profile key (e.g. `"Uniform { cols: 6, ... }"`).
    pub topology: String,
    /// Protocol half of the profile key (e.g. `"mr"`).
    pub protocol: String,
    /// Clean-network scenario: the source of training runs.
    pub normal: ScenarioSpec,
    /// Wormhole-attacked variant of the same deployment.
    pub attacked: ScenarioSpec,
    /// Index of the catalogue entry, whose recording every `Deployment`
    /// that [`catalogue`] and [`find`] return for it shares.
    entry: usize,
}

impl Deployment {
    /// The `topology/protocol` form used in logs and the wire protocol.
    pub fn key_string(&self) -> String {
        format!("{}/{}", self.topology, self.protocol)
    }
}

/// The deployments the serving tier replays traffic from and trains
/// profiles for.
pub fn catalogue() -> Vec<Deployment> {
    [
        TopologyKind::uniform6x6(),
        TopologyKind::cluster1(),
        TopologyKind::uniform10x6(),
    ]
    .into_iter()
    .enumerate()
    .map(|(entry, topo)| {
        let normal = ScenarioSpec::normal(topo, ProtocolKind::Mr);
        let attacked = ScenarioSpec::attacked(topo, ProtocolKind::Mr);
        Deployment {
            topology: format!("{:?}", normal.topology),
            protocol: "mr".to_string(),
            normal,
            attacked,
            entry,
        }
    })
    .collect()
}

/// The deployment whose topology/protocol strings match, if known.
pub fn find(topology: &str, protocol: &str) -> Option<Deployment> {
    catalogue()
        .into_iter()
        .find(|d| d.topology == topology && d.protocol == protocol)
}

/// Train the normal-condition profile for one catalogue deployment the
/// way the detection experiment does: [`TRAIN_RUNS`] clean route sets at
/// seeds offset far from serving traffic, the profile
/// [`train_normal_profile`](crate::runner::train_normal_profile) gives
/// for the entry's `normal` spec.
///
/// The first call for a catalogue entry simulates its training
/// discoveries and records them. Every later call, from any thread,
/// tabulates the recording in place: no simulation, no lookup by string,
/// no route copied. The recording is the entry's, so edits to
/// `deployment.normal` are not seen; train such a spec with
/// `train_normal_profile`.
pub fn train_profile(deployment: &Deployment) -> NormalProfile {
    let entry = deployment.entry;
    let sets = RECORDINGS[entry].get_or_init(|| {
        let spec = catalogue()[entry].normal;
        (0..TRAIN_RUNS)
            .map(|i| run_once_with_routes(&spec, TRAIN_OFFSET + i).1)
            .collect()
    });
    NormalProfile::train(sets, SamConfig::default().pmf_bins)
}

/// One pre-simulated replay corpus entry: the deployment it belongs to,
/// whether the run was attacked, and the discovered route set.
pub type CorpusEntry = (Deployment, bool, Vec<Route>);

/// Pre-simulate a replay corpus over the whole catalogue:
/// [`REPLAY_SETS`] route sets per deployment with `attacked_pct` percent
/// of slots drawn from the attacked scenario (deterministic Bresenham
/// interleave — no RNG, so replay is reproducible), optionally composed
/// with a fault plan.
pub fn replay_corpus(
    attacked_pct: u32,
    fault_plan: Option<&sam_faults::FaultPlan>,
) -> Vec<CorpusEntry> {
    catalogue()
        .iter()
        .flat_map(|deployment| {
            (0..REPLAY_SETS).map(move |r| {
                let pct = attacked_pct as u64;
                let attacked_slot = (r + 1) * pct / 100 > r * pct / 100;
                let spec = if attacked_slot {
                    &deployment.attacked
                } else {
                    &deployment.normal
                };
                let (_, routes) = run_once_faulted(
                    spec,
                    derive_seed(r, 7) % 500,
                    &RouterConfig::new(spec.protocol),
                    WormholeConfig::default(),
                    fault_plan,
                );
                (deployment.clone(), attacked_slot, routes)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_keys_are_distinct_and_findable() {
        let cat = catalogue();
        assert_eq!(cat.len(), 3);
        for d in &cat {
            let found = find(&d.topology, &d.protocol).expect("key resolves");
            assert_eq!(found.topology, d.topology);
        }
        assert!(find("nonsense", "mr").is_none());
        let mut keys: Vec<String> = cat.iter().map(Deployment::key_string).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 3, "keys are distinct");
    }

    #[test]
    fn recorded_training_trains_the_memos_profile() {
        for d in catalogue() {
            // `train_normal_profile` simulates its training runs afresh;
            // the recording must train the same profile, bit for bit.
            let recorded = train_profile(&d);
            let fresh = crate::runner::train_normal_profile(&d.normal, TRAIN_RUNS);
            assert_eq!(
                (recorded.p_max, recorded.delta, recorded.hops),
                (fresh.p_max, fresh.delta, fresh.hops),
                "{}",
                d.key_string()
            );
            assert_eq!(recorded.pmf, fresh.pmf, "{}", d.key_string());

            // Another lookup of the key shares the recording the first
            // training filled, so it simulates nothing.
            let again = find(&d.topology, &d.protocol).expect("key resolves");
            assert_eq!(again.entry, d.entry);
            let sets = RECORDINGS[again.entry]
                .get()
                .expect("recorded by the first training");
            assert_eq!(sets.len() as u64, TRAIN_RUNS);
            let second = train_profile(&again);
            assert_eq!(second.pmf, recorded.pmf);

            // The recording is the entry's: an edited `normal` is not seen.
            let mut edited = again.clone();
            edited.normal.base_seed += 1;
            assert_eq!(train_profile(&edited).pmf, recorded.pmf);

            // Debug names the entry, not the thousands of recorded nodes.
            let shown = format!("{again:?}");
            assert!(shown.contains(&d.topology), "{shown}");
            assert!(shown.len() < 1_000, "{shown}");
        }
    }

    #[test]
    fn corpus_interleaves_the_requested_attack_mix() {
        let corpus = replay_corpus(25, None);
        assert_eq!(corpus.len(), 3 * REPLAY_SETS as usize);
        let attacked = corpus.iter().filter(|(_, a, _)| *a).count();
        assert_eq!(attacked, 3 * (REPLAY_SETS as usize / 4), "25% of slots");
        assert!(corpus.iter().all(|(_, _, routes)| !routes.is_empty()));
    }
}
