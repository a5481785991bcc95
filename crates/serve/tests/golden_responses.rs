//! Golden wire responses: the serving tier's output, frozen byte for
//! byte.
//!
//! Every entry of the 30%-attacked replay corpus goes through an
//! in-process [`DetectionService`] (one worker, explanations on, the
//! calibrated SAM configuration, catalogue-trained profiles) under every
//! detector selection: absent, `"sam"`, `"zscore"`, `"geometric"` and
//! `"ensemble"`. Attacked entries run twice, with the probe ratio absent
//! and at `0.1`; normal entries run with it absent. That is 300
//! requests.
//!
//! Each golden line keeps the response's `id`, `detector`, `score` and
//! `verdict` in clear, plus a 64-bit FNV-1a digest of the full
//! `WireResponse::ok(..)` line. Explanations make those lines tens of
//! kilobytes, hence the digest. The diagnostic fields (`timing`,
//! `profile_cache_hit`) are zeroed before hashing.
//!
//! When a change to the wire output is *intentional*, regenerate the file
//! and review the diff like any other code change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sam-serve --test golden_responses
//! git diff crates/serve/tests/golden/
//! ```

use sam::{SamConfig, DETECTOR_NAMES};
use sam_experiments::serving::{find, replay_corpus, train_profile};
use sam_serve::prelude::*;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// One frozen response.
#[derive(Serialize)]
struct GoldenLine {
    id: u64,
    detector: String,
    score: f64,
    verdict: Verdict,
    /// FNV-1a 64 of the full encoded wire line, 16 hex digits.
    digest: String,
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The 300 requests, ids in order.
fn requests() -> Vec<DetectionRequest> {
    let detectors: Vec<Option<&str>> = std::iter::once(None)
        .chain(DETECTOR_NAMES.iter().copied().map(Some))
        .collect();
    let mut requests = Vec::new();
    for (deployment, attacked, routes) in replay_corpus(30, None) {
        let ratios: &[Option<f64>] = if attacked {
            &[None, Some(0.1)]
        } else {
            &[None]
        };
        for &probe_ack_ratio in ratios {
            for detector in &detectors {
                requests.push(DetectionRequest {
                    id: requests.len() as u64,
                    key: ProfileKey::new(&deployment.topology, &deployment.protocol),
                    routes: routes.clone(),
                    probe_ack_ratio,
                    detector: detector.map(str::to_string),
                });
            }
        }
    }
    requests
}

/// Serve every request and render its golden line.
fn golden_lines() -> Vec<String> {
    let cfg = ServiceConfig {
        workers: 1,
        detector: SamConfig::calibrated(),
        explain: true,
        ..ServiceConfig::default()
    };
    let service = DetectionService::start(
        cfg,
        Arc::new(|key: &ProfileKey| {
            let deployment = find(&key.topology, &key.protocol).expect("catalogue key");
            train_profile(&deployment)
        }),
    );
    let lines = requests()
        .into_iter()
        .map(|request| {
            let mut response = service.submit(request).expect("one in flight").wait();
            response.timing = StageTiming::default();
            response.profile_cache_hit = false;
            let wire = WireResponse::ok(response.clone()).encode();
            let golden = GoldenLine {
                id: response.id,
                detector: response.detector,
                score: response.score,
                verdict: response.verdict,
                digest: format!("{:016x}", fnv1a64(wire.as_bytes())),
            };
            serde_json::to_string(&golden).expect("golden line serializes")
        })
        .collect();
    service.shutdown();
    lines
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/responses.jsonl")
}

#[test]
fn wire_responses_match_the_golden_file() {
    let actual = golden_lines();
    assert_eq!(actual.len(), 300, "corpus shape changed");
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual.join("\n") + "\n").unwrap();
        eprintln!("golden: rewrote {}", path.display());
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let expected: Vec<&str> = stored.lines().collect();
    assert_eq!(expected.len(), actual.len(), "golden line count");
    for (want, got) in expected.iter().zip(&actual) {
        assert_eq!(
            *want, got,
            "wire response drifted; if intended, rerun with UPDATE_GOLDEN=1"
        );
    }
}
