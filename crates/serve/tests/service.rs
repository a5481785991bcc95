//! Integration tests for the detection service: determinism across worker
//! counts, profile-cache accounting, backpressure behaviour, and panic
//! isolation.

use manet_routing::Route;
use manet_sim::NodeId;
use sam::{NormalProfile, SamConfig};
use sam_serve::prelude::*;
use sam_serve::service::ProfileSource;
use sam_telemetry::Registry;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

fn route(ids: &[u32]) -> Route {
    Route::new(ids.iter().map(|&i| NodeId(i)).collect()).unwrap()
}

/// A normal-looking route set: middles vary with `salt` so no link
/// dominates across the set.
fn normal_set(salt: u32) -> Vec<Route> {
    (0..6u32)
        .map(|i| {
            let a = 1 + (salt + i) % 5;
            let b = 6 + (salt + 2 * i) % 4;
            route(&[0, a, b, 11])
        })
        .collect()
}

/// A wormhole-shaped route set: the link 20-21 rides on every route.
fn worm_set(salt: u32) -> Vec<Route> {
    (0..6u32)
        .map(|i| {
            let a = 1 + (salt + i) % 5;
            let b = 6 + (salt + 3 * i) % 4;
            route(&[0, a, 20, 21, b, 11])
        })
        .collect()
}

/// Profiles trained on synthetic normal traffic, one per key (the key is
/// only an identity here — contents are identical, which is fine).
fn synthetic_profiles() -> ProfileSource {
    Arc::new(|_key: &ProfileKey| {
        let sets: Vec<Vec<Route>> = (0..8).map(normal_set).collect();
        NormalProfile::train(&sets, 20)
    })
}

/// A request mix with normal and attacked traffic, clean and failing
/// probes, across two deployments.
fn request_mix(n: u64) -> Vec<DetectionRequest> {
    (0..n)
        .map(|i| {
            let salt = (i % 17) as u32;
            let attacked = i % 3 == 0;
            DetectionRequest {
                id: i,
                key: if i % 2 == 0 {
                    ProfileKey::new("synthetic-a", "mr")
                } else {
                    ProfileKey::new("synthetic-b", "mr")
                },
                routes: if attacked {
                    worm_set(salt)
                } else {
                    normal_set(salt)
                },
                probe_ack_ratio: if attacked && i % 6 == 0 {
                    Some(0.0)
                } else {
                    None
                },
                detector: None,
            }
        })
        .collect()
}

fn serve_all(workers: usize, requests: &[DetectionRequest]) -> BTreeMap<u64, Verdict> {
    let cfg = ServiceConfig {
        workers,
        queue_capacity: 64,
        max_batch: 4,
        cache_capacity: 8,
        // A permissive threshold so the mix produces all three outcome
        // shapes, making the invariance comparison meaningful.
        detector: SamConfig {
            z_threshold: 1.5,
            ..SamConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = DetectionService::start(cfg, synthetic_profiles(), Arc::default());
    let mut verdicts = BTreeMap::new();
    let mut pending = Vec::new();
    for req in requests {
        // Retry on shed: correctness tests must process every request.
        loop {
            match service.submit(req.clone(), None) {
                Ok(p) => {
                    pending.push(p);
                    break;
                }
                Err(SubmitError::Rejected { .. }) => std::thread::yield_now(),
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
    for p in pending {
        let resp = p.wait().expect("served");
        assert!(
            verdicts.insert(resp.id, resp.verdict).is_none(),
            "duplicate response id"
        );
    }
    service.shutdown();
    verdicts
}

#[test]
fn verdicts_are_invariant_across_worker_counts() {
    let requests = request_mix(120);
    let one = serve_all(1, &requests);
    let two = serve_all(2, &requests);
    let eight = serve_all(8, &requests);
    assert_eq!(one.len(), 120);
    assert_eq!(one, two, "1-worker and 2-worker verdicts differ");
    assert_eq!(one, eight, "1-worker and 8-worker verdicts differ");
    // The mix must actually exercise the interesting paths, otherwise the
    // invariance above is vacuous.
    assert!(
        one.values().any(|v| v.confirmed),
        "no confirmed verdicts in mix"
    );
    assert!(
        one.values().any(|v| !v.anomalous),
        "no normal verdicts in mix"
    );
}

#[test]
fn profile_cache_accounts_hits_and_misses() {
    let cfg = ServiceConfig {
        workers: 1, // single worker ⇒ exact hit/miss sequencing
        queue_capacity: 64,
        max_batch: 8,
        cache_capacity: 8,
        ..ServiceConfig::default()
    };
    let service = DetectionService::start(cfg, synthetic_profiles(), Arc::default());
    let requests = request_mix(40); // two distinct keys
    let pending: Vec<Pending> = requests
        .iter()
        .map(|r| {
            service
                .submit(r.clone(), None)
                .expect("queue is large enough")
        })
        .collect();
    let responses: Vec<DetectionResponse> = pending
        .into_iter()
        .map(|p| p.wait().expect("served"))
        .collect();

    let cache = service.cache();
    assert_eq!(cache.misses(), 2, "one training per distinct key");
    assert_eq!(cache.hits(), 38);
    assert_eq!(responses.iter().filter(|r| !r.profile_cache_hit).count(), 2);
    assert_eq!(service.metrics().completed(), 40);
    service.shutdown();
}

#[test]
fn explain_flag_attaches_explanations_that_name_the_wormhole() {
    let cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        max_batch: 4,
        cache_capacity: 8,
        detector: SamConfig {
            z_threshold: 1.5,
            ..SamConfig::default()
        },
        explain: true,
    };
    let service = DetectionService::start(cfg, synthetic_profiles(), Arc::default());
    let requests = request_mix(24);
    let pending: Vec<Pending> = requests
        .iter()
        .map(|r| {
            service
                .submit(r.clone(), None)
                .expect("queue is large enough")
        })
        .collect();
    let responses: Vec<DetectionResponse> = pending
        .into_iter()
        .map(|p| p.wait().expect("served"))
        .collect();
    service.shutdown();

    for resp in &responses {
        let ex = resp
            .explanation
            .as_ref()
            .expect("explain mode attaches an explanation to every response");
        let attacked = resp.id % 3 == 0;
        if attacked {
            assert_eq!(
                ex.suspect_link,
                Some((20, 21)),
                "explanation must name the planted wormhole link"
            );
            assert!(
                ex.routes.iter().all(|r| r.p_max_contribution >= 0.0) && !ex.routes.is_empty(),
                "suspect-crossing routes with contributions: {ex:?}"
            );
        }
        assert_eq!(ex.anomalous, resp.verdict.anomalous);
    }
}

#[test]
fn full_queue_sheds_with_rejected_and_never_deadlocks() {
    // Gate the profile source so the single worker wedges on its first
    // request until we release it — queues fill deterministically.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let source: ProfileSource = {
        let gate = gate.clone();
        Arc::new(move |_key: &ProfileKey| {
            let (lock, cvar) = &*gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cvar.wait(open).unwrap();
            }
            NormalProfile::train(&(0..4).map(normal_set).collect::<Vec<_>>(), 20)
        })
    };
    let service = DetectionService::start(
        ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            max_batch: 4,
            cache_capacity: 4,
            ..ServiceConfig::default()
        },
        source,
        Arc::default(),
    );

    let requests = request_mix(32);
    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for req in &requests {
        match service.submit(req.clone(), None) {
            Ok(p) => accepted.push(p),
            Err(SubmitError::Rejected { queue_depth }) => {
                assert!(queue_depth > 0, "rejection must report a full queue");
                shed += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    // Capacity 2 + at most a few in worker hands: most of the 32 shed.
    assert!(shed > 0, "full queue must shed");
    assert_eq!(service.metrics().rejected(), shed as u64);
    assert_eq!(
        accepted.len() + shed,
        requests.len(),
        "every request either accepted or explicitly shed"
    );

    // Open the gate: everything accepted must still complete.
    {
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
    let n = accepted.len() as u64;
    for p in accepted {
        p.wait().expect("served");
    }
    assert_eq!(service.metrics().completed(), n);
    service.shutdown();
}

#[test]
fn explicit_sam_is_byte_identical_to_the_unset_default() {
    // `detector: "sam"` must reproduce the default path's verdicts
    // exactly — same struct, field for field — because it IS the same
    // code path.
    let requests = request_mix(60);
    let implicit = serve_all(2, &requests);
    let explicit_requests: Vec<DetectionRequest> = requests
        .iter()
        .map(|r| DetectionRequest {
            detector: Some("sam".to_string()),
            ..r.clone()
        })
        .collect();
    let explicit = serve_all(2, &explicit_requests);
    assert_eq!(implicit, explicit, "naming sam changed a verdict");
}

#[test]
fn unknown_detector_is_rejected_at_submission_with_a_typed_error() {
    let service = DetectionService::start(
        ServiceConfig::default(),
        synthetic_profiles(),
        Arc::default(),
    );
    let mut req = request_mix(1).remove(0);
    req.detector = Some("oracle".to_string());
    match service.submit(req, None) {
        Err(SubmitError::UnknownDetector { name }) => {
            assert_eq!(name, "oracle");
        }
        Err(other) => panic!("expected UnknownDetector, got {other:?}"),
        Ok(_) => panic!("expected UnknownDetector, got an accepted request"),
    }
    // The error names the registry so a typo is self-correcting.
    let err = SubmitError::UnknownDetector {
        name: "oracle".to_string(),
    };
    let msg = err.to_string();
    for name in sam::DETECTOR_NAMES {
        assert!(msg.contains(name), "{msg:?} must list {name}");
    }
    service.shutdown();
}

#[test]
fn alternative_detectors_serve_verdicts_and_echo_their_name() {
    let cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        max_batch: 4,
        cache_capacity: 8,
        explain: true,
        ..ServiceConfig::default()
    };
    let service = DetectionService::start(cfg, synthetic_profiles(), Arc::default());
    for name in ["zscore", "ensemble"] {
        let mut req = request_mix(1).remove(0); // id 0: attacked worm_set
        req.detector = Some(name.to_string());
        let resp = service
            .submit(req, None)
            .expect("known detector")
            .wait()
            .expect("served");
        assert_eq!(resp.detector, name);
        assert!(
            resp.verdict.anomalous,
            "{name} must flag the planted wormhole: {:?}",
            resp.verdict
        );
        assert!(
            resp.score > 1.0,
            "{name} score must sit past the boundary: {}",
            resp.score
        );
        assert_eq!(
            resp.verdict.suspect_link.map(|(a, b)| (a.0, b.0)),
            Some((20, 21)),
            "{name} must localize the planted link"
        );
        let ex = resp.explanation.expect("explain mode");
        assert_eq!(ex.detector, name);
        assert_eq!(ex.score, resp.score);
        assert!(ex.evidence.is_some(), "{name} explanation carries evidence");
    }
    // A normal set stays clean under the ensemble.
    let mut normal = request_mix(2).remove(1);
    normal.detector = Some("ensemble".to_string());
    let resp = service
        .submit(normal, None)
        .expect("known detector")
        .wait()
        .expect("served");
    assert!(!resp.verdict.anomalous, "{:?}", resp.verdict);
    service.shutdown();
}

#[test]
fn a_panicking_request_answers_none_and_costs_no_worker() {
    // The source panics for synthetic-a (even ids of the mix) and trains
    // synthetic-b (odd ids) as usual.
    let synthetic = synthetic_profiles();
    let source: ProfileSource = Arc::new(move |key: &ProfileKey| {
        assert_ne!(key.topology, "synthetic-a", "profile source failed");
        synthetic(key)
    });
    let registry = Arc::new(Registry::new());
    let cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        max_batch: 4,
        cache_capacity: 8,
        ..ServiceConfig::default()
    };
    let service = DetectionService::start(cfg, source, registry.clone());
    let requests = request_mix(16);

    // Three panics: without isolation both workers would be dead by now,
    // and the healthy submissions below would fail with `Closed`.
    for req in requests.iter().filter(|r| r.id % 2 == 0).take(3) {
        let pending = service.submit(req.clone(), None).expect("accepted");
        assert!(pending.wait().is_none(), "request {} panicked", req.id);
    }
    for req in requests.iter().filter(|r| r.id % 2 == 1) {
        let pending = service.submit(req.clone(), None).expect("accepted");
        let resp = pending.wait().expect("the workers survive the panics");
        assert_eq!(resp.id, req.id);
    }
    service.shutdown();

    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.submitted"), 11);
    assert_eq!(snap.counter("serve.completed"), 8);
    assert_eq!(snap.counter("serve.failed"), 3);
    assert_eq!(
        snap.counter("serve.submitted"),
        snap.counter("serve.completed") + snap.counter("serve.failed"),
        "every accepted request ends completed or failed"
    );
}

#[test]
fn serving_on_the_callers_thread_gives_the_pools_verdicts() {
    let requests = request_mix(60);
    let pooled = serve_all(1, &requests);
    let synthetic = synthetic_profiles();
    // synthetic-a (even ids) panics, to show the panic leaves compute.
    let source: ProfileSource = Arc::new(move |key: &ProfileKey| {
        assert_ne!(key.topology, "synthetic-a", "profile source failed");
        synthetic(key)
    });
    let registry = Arc::new(Registry::new());
    let cfg = ServiceConfig {
        queue_capacity: 1,
        cache_capacity: 8,
        detector: SamConfig {
            z_threshold: 1.5,
            ..SamConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = DetectionService::inline(cfg, source, registry.clone());
    for req in &requests {
        let served = service.serve(req.clone(), None).expect("admitted");
        assert_eq!(service.queue_depth(), 0, "request {} left compute", req.id);
        match served {
            Some(resp) => {
                assert_eq!(resp.verdict, pooled[&req.id], "request {}", req.id);
                assert_eq!(resp.timing.queue_wait_us, 0, "nothing queues");
            }
            None => assert_eq!(req.id % 2, 0, "only synthetic-a fails"),
        }
    }
    assert_eq!(
        service.submit(requests[0].clone(), None).err(),
        Some(SubmitError::Closed),
        "an inline service has no queue"
    );
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.submitted"), 60);
    assert_eq!(snap.counter("serve.completed"), 30);
    assert_eq!(snap.counter("serve.failed"), 30);
    assert_eq!(snap.counter("serve.batches"), 60, "one batch per request");
}
