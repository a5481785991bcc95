//! Integration tests for the detection service: determinism across
//! calling threads, profile-cache accounting, backpressure behaviour, and
//! panic isolation.

use manet_routing::Route;
use manet_sim::NodeId;
use sam::{NormalProfile, SamConfig};
use sam_serve::prelude::*;
use sam_serve::service::ProfileSource;
use sam_telemetry::Registry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// The permissive configuration the verdict comparisons use: a low
/// threshold, so the mix produces all three outcome shapes and the
/// comparisons are not vacuous.
fn permissive() -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 64,
        cache_capacity: 8,
        detector: SamConfig {
            z_threshold: 1.5,
            ..SamConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// Serve `requests` on one service from `threads` scoped threads, each
/// taking every `threads`-th request, and collect the verdicts by id.
fn serve_all(threads: usize, requests: &[DetectionRequest]) -> BTreeMap<u64, Verdict> {
    let service = DetectionService::new(permissive(), synthetic_profiles(), Arc::default());
    let verdicts = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for t in 0..threads {
            let (service, verdicts) = (&service, &verdicts);
            s.spawn(move || {
                for req in requests.iter().skip(t).step_by(threads) {
                    // Retry on shed: correctness tests must judge every
                    // request.
                    let resp = loop {
                        match service.serve(req.clone(), None) {
                            Ok(served) => break served.expect("served"),
                            Err(SubmitError::Rejected { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected serve error: {e}"),
                        }
                    };
                    let fresh = verdicts.lock().unwrap().insert(resp.id, resp.verdict);
                    assert!(fresh.is_none(), "duplicate response id");
                }
            });
        }
    });
    assert_eq!(service.queue_depth(), 0, "every request left compute");
    verdicts.into_inner().unwrap()
}

#[test]
fn verdicts_are_invariant_across_calling_threads() {
    let requests = request_mix(120);
    let one = serve_all(1, &requests);
    let two = serve_all(2, &requests);
    let eight = serve_all(8, &requests);
    assert_eq!(one.len(), 120);
    assert_eq!(one, two, "1-thread and 2-thread verdicts differ");
    assert_eq!(one, eight, "1-thread and 8-thread verdicts differ");
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

/// Serve `request` on the calling thread, which must be admitted and
/// answered.
fn served(service: &DetectionService, request: &DetectionRequest) -> DetectionResponse {
    service
        .serve(request.clone(), None)
        .expect("admitted")
        .expect("served")
}

#[test]
fn profile_cache_accounts_hits_and_misses() {
    let cfg = ServiceConfig {
        queue_capacity: 64,
        cache_capacity: 8,
        ..ServiceConfig::default()
    };
    // One calling thread ⇒ exact hit/miss sequencing.
    let service = DetectionService::new(cfg, synthetic_profiles(), Arc::default());
    let requests = request_mix(40); // two distinct keys
    let responses: Vec<DetectionResponse> = requests.iter().map(|r| served(&service, r)).collect();

    let cache = service.cache();
    assert_eq!(cache.misses(), 2, "one training per distinct key");
    assert_eq!(cache.hits(), 38);
    assert_eq!(responses.iter().filter(|r| !r.profile_cache_hit).count(), 2);
    assert_eq!(service.metrics().completed(), 40);
}

#[test]
fn explain_flag_attaches_explanations_that_name_the_wormhole() {
    let cfg = ServiceConfig {
        explain: true,
        ..permissive()
    };
    let service = DetectionService::new(cfg, synthetic_profiles(), Arc::default());
    let requests = request_mix(24);
    let responses: Vec<DetectionResponse> = requests.iter().map(|r| served(&service, r)).collect();

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
fn full_compute_sheds_with_rejected_and_never_deadlocks() {
    // Gate the profile source so the first `CAP` callers wedge in compute
    // until we release them: the service fills deterministically. A call
    // admitted past the bound would wedge the test's own thread, so the
    // gate gives up after a while and fails that call instead.
    const CAP: usize = 2;
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let source: ProfileSource = {
        let gate = gate.clone();
        Arc::new(move |_key: &ProfileKey| {
            let (lock, cvar) = &*gate;
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut open = lock.lock().unwrap();
            while !*open {
                let left = deadline
                    .checked_duration_since(Instant::now())
                    .expect("the gate opens within 10 s");
                open = cvar.wait_timeout(open, left).unwrap().0;
            }
            NormalProfile::train(&(0..4).map(normal_set).collect::<Vec<_>>(), 20)
        })
    };
    let service = DetectionService::new(
        ServiceConfig {
            queue_capacity: CAP,
            cache_capacity: 4,
            ..ServiceConfig::default()
        },
        source,
        Arc::default(),
    );

    let requests = request_mix(32);
    std::thread::scope(|s| {
        // Ids 0 and 1 carry distinct keys, so each caller trains its own.
        let service = &service;
        let held: Vec<_> = requests[..CAP]
            .iter()
            .map(|req| s.spawn(move || service.serve(req.clone(), None)))
            .collect();
        while service.queue_depth() < CAP {
            std::thread::yield_now();
        }
        for req in &requests[CAP..] {
            match service.serve(req.clone(), None) {
                Err(SubmitError::Rejected { queue_depth }) => {
                    assert_eq!(queue_depth, CAP, "rejection reports the full count");
                }
                other => panic!("a full service must shed, got {other:?}"),
            }
        }
        let shed = (requests.len() - CAP) as u64;
        assert_eq!(service.metrics().rejected(), shed);

        // Open the gate: every admitted request must still complete.
        {
            let (lock, cvar) = &*gate;
            *lock.lock().unwrap() = true;
            cvar.notify_all();
        }
        for (h, req) in held.into_iter().zip(&requests) {
            let resp = h.join().unwrap().expect("admitted").expect("served");
            assert_eq!(resp.id, req.id);
        }
    });
    assert_eq!(service.metrics().completed(), CAP as u64);
    assert_eq!(service.queue_depth(), 0, "every request left compute");
}

#[test]
fn admission_bound_holds_under_contention() {
    // Eight threads contend for three places in compute. Every request
    // has its own key and the cache holds one profile, so every request
    // runs the profile source inside compute, where the source counts
    // the calls in flight at once.
    const CAP: usize = 3;
    const THREADS: usize = 8;
    const CALLS: usize = 40;
    let (in_flight, most) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let source: ProfileSource = {
        let (in_flight, most) = (in_flight.clone(), most.clone());
        Arc::new(move |_key: &ProfileKey| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            most.fetch_max(now, Ordering::SeqCst);
            // Stay in compute long enough for the other threads to
            // collide with this call.
            std::thread::sleep(Duration::from_millis(1));
            let profile = NormalProfile::train(&(0..4).map(normal_set).collect::<Vec<_>>(), 20);
            in_flight.fetch_sub(1, Ordering::SeqCst);
            profile
        })
    };
    let registry = Arc::new(Registry::new());
    let cfg = ServiceConfig {
        queue_capacity: CAP,
        cache_capacity: 1,
        ..ServiceConfig::default()
    };
    let service = DetectionService::new(cfg, source, registry.clone());
    let routes = normal_set(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (service, routes) = (&service, &routes);
            s.spawn(move || {
                for i in 0..CALLS {
                    let request = DetectionRequest {
                        id: (t * CALLS + i) as u64,
                        key: ProfileKey::new(format!("synthetic-{t}-{i}"), "mr"),
                        routes: routes.clone(),
                        probe_ack_ratio: None,
                        detector: None,
                    };
                    match service.serve(request, None) {
                        Ok(resp) => assert!(resp.is_some(), "no request fails here"),
                        Err(SubmitError::Rejected { queue_depth }) => {
                            assert_eq!(queue_depth, CAP, "shed only at the bound");
                        }
                        Err(e) => panic!("unexpected serve error: {e}"),
                    }
                }
            });
        }
    });
    let most = most.load(Ordering::SeqCst);
    assert!(most <= CAP, "{most} calls in compute at once, bound {CAP}");
    assert_eq!(most, CAP, "contention must fill compute");
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("serve.submitted") + snap.counter("serve.rejected"),
        (THREADS * CALLS) as u64,
        "every call is admitted or shed"
    );
    assert_eq!(
        snap.counter("serve.submitted"),
        snap.counter("serve.completed") + snap.counter("serve.failed"),
        "every admitted call ends completed or failed"
    );
    assert_eq!(service.queue_depth(), 0, "every request left compute");
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
    let registry = Arc::new(Registry::new());
    let service = DetectionService::new(
        ServiceConfig::default(),
        synthetic_profiles(),
        registry.clone(),
    );
    let mut req = request_mix(1).remove(0);
    req.detector = Some("oracle".to_string());
    match service.serve(req, None) {
        Err(SubmitError::UnknownDetector { name }) => {
            assert_eq!(name, "oracle");
        }
        Err(other) => panic!("expected UnknownDetector, got {other:?}"),
        Ok(_) => panic!("expected UnknownDetector, got a served request"),
    }
    // Refused at the door: it was neither admitted nor shed.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.submitted"), 0);
    assert_eq!(snap.counter("serve.rejected"), 0);
    // The error names the registry so a typo is self-correcting.
    let err = SubmitError::UnknownDetector {
        name: "oracle".to_string(),
    };
    let msg = err.to_string();
    for name in sam::DETECTOR_NAMES {
        assert!(msg.contains(name), "{msg:?} must list {name}");
    }
}

#[test]
fn alternative_detectors_serve_verdicts_and_echo_their_name() {
    let cfg = ServiceConfig {
        queue_capacity: 64,
        cache_capacity: 8,
        explain: true,
        ..ServiceConfig::default()
    };
    let service = DetectionService::new(cfg, synthetic_profiles(), Arc::default());
    for name in ["zscore", "ensemble"] {
        let mut req = request_mix(1).remove(0); // id 0: attacked worm_set
        req.detector = Some(name.to_string());
        let resp = served(&service, &req);
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
    let resp = served(&service, &normal);
    assert!(!resp.verdict.anomalous, "{:?}", resp.verdict);
}

#[test]
fn a_panicking_request_answers_none_and_fails_alone() {
    let requests = request_mix(60);
    let clean = serve_all(1, &requests);
    // The source panics for synthetic-a (even ids of the mix) and trains
    // synthetic-b (odd ids) as usual, so panics and healthy requests
    // alternate on one calling thread.
    let synthetic = synthetic_profiles();
    let source: ProfileSource = Arc::new(move |key: &ProfileKey| {
        assert_ne!(key.topology, "synthetic-a", "profile source failed");
        synthetic(key)
    });
    let registry = Arc::new(Registry::new());
    let cfg = ServiceConfig {
        queue_capacity: 1,
        ..permissive()
    };
    let service = DetectionService::new(cfg, source, registry.clone());
    for req in &requests {
        // With one place in compute, a panic that kept its place would
        // shed every later request.
        let answer = service.serve(req.clone(), None).expect("admitted");
        assert_eq!(service.queue_depth(), 0, "request {} left compute", req.id);
        match answer {
            Some(resp) => {
                assert_eq!(resp.id, req.id);
                assert_eq!(resp.verdict, clean[&req.id], "request {}", req.id);
                assert_eq!(resp.timing.queue_wait_us, 0, "nothing queues");
            }
            None => assert_eq!(req.id % 2, 0, "only synthetic-a fails"),
        }
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.submitted"), 60);
    assert_eq!(snap.counter("serve.completed"), 30);
    assert_eq!(snap.counter("serve.failed"), 30);
    assert_eq!(
        snap.counter("serve.submitted"),
        snap.counter("serve.completed") + snap.counter("serve.failed"),
        "every accepted request ends completed or failed"
    );
    assert_eq!(snap.counter("serve.batches"), 60, "one batch per request");
}
