//! Differential property test: reading JSON text directly agrees with
//! parsing it into a value tree first and reading the tree.
//!
//! Each case encodes arbitrary `WireRequest`, `WireResponse` (a verdict
//! with its explanation, shed, error, stats) and `AuditRecord` values,
//! applies one mutation to each encoding — retype a value, drop a key,
//! duplicate a key with another value, add a nested unknown key,
//! truncate at a random byte, or flip a byte — and decodes the result
//! both ways: `serde_json::from_str::<T>`, and `from_str::<Value>`
//! followed by `T::from_value`. The two must give the same value (compared
//! through its re-encoding, and with `==` where `T` has it) or the same
//! error text.
//!
//! Text reads a run of plain integers in one pass (`Source::uint_run`),
//! a tree one element at a time, so a request's route elements also get
//! edge lexemes of that pass: leading zeros, signs, fractions, exponents,
//! the `u32` and `u64` limits, whitespace around commas, a nested array,
//! a stray or missing comma, and a cut inside the number.

use proptest::prelude::*;
use sam::SamConfig;
use sam_experiments::serving::{find, replay_corpus, train_profile};
use sam_serve::prelude::*;
use sam_telemetry::TraceId;
use serde::{Deserialize, Serialize, Value};
use std::sync::{Arc, OnceLock};

/// SplitMix64: the cases' own deterministic stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    fn float(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 4.0
    }

    fn text(&mut self) -> String {
        const PIECES: &[&str] = &[
            "a", "mr", "6x6", " ", "\"", "\\", "\n", "\t", "é", "😀", "\u{1}",
        ];
        (0..self.below(6))
            .map(|_| PIECES[self.below(PIECES.len())])
            .collect()
    }

    fn maybe<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        (!self.chance(3)).then(|| f(self))
    }
}

fn request(rng: &mut Rng) -> WireRequest {
    WireRequest {
        id: rng.next() >> rng.below(64),
        topology: rng.text(),
        protocol: rng.text(),
        routes: (0..rng.below(5))
            .map(|_| (0..rng.below(6)).map(|_| rng.below(40) as u32).collect())
            .collect(),
        probe_ack_ratio: rng.maybe(|r| r.float()),
        detector: rng.maybe(|r| r.text()),
        timings: rng.chance(2),
        trace: rng.maybe(|r| format!("{:016x}{:016x}", r.next(), r.next())),
    }
}

/// Served responses with explanations, computed once: the first entries
/// of the replay corpus through an in-process service.
fn served() -> &'static [DetectionResponse] {
    static SERVED: OnceLock<Vec<DetectionResponse>> = OnceLock::new();
    SERVED.get_or_init(|| {
        let cfg = ServiceConfig {
            detector: SamConfig::calibrated(),
            explain: true,
            ..ServiceConfig::default()
        };
        let service = DetectionService::new(
            cfg,
            Arc::new(|key: &ProfileKey| {
                train_profile(&find(&key.topology, &key.protocol).expect("catalogue key"))
            }),
            Arc::default(),
        );
        replay_corpus(50, None)
            .into_iter()
            .take(6)
            .enumerate()
            .map(|(id, (deployment, _, routes))| {
                let request = DetectionRequest {
                    id: id as u64,
                    key: ProfileKey::new(&deployment.topology, &deployment.protocol),
                    routes,
                    probe_ack_ratio: None,
                    detector: None,
                };
                service
                    .serve(request, None)
                    .expect("one in compute")
                    .expect("served")
            })
            .collect()
    })
}

fn stats(rng: &mut Rng) -> StatsReport {
    let n = |rng: &mut Rng| rng.next() >> rng.below(64);
    StatsReport {
        kind: "stats".to_string(),
        uptime_s: rng.float(),
        draining: rng.chance(2),
        slo_p99_us: rng.maybe(n),
        shards: (0..rng.below(3))
            .map(|shard| ShardStats {
                shard: shard as u64,
                queue_depth: n(rng),
                requests: n(rng),
            })
            .collect(),
        windows: (0..rng.below(3))
            .map(|_| WindowStats {
                window_s: n(rng),
                span_s: rng.float(),
                completed: n(rng),
                throughput_rps: rng.float(),
                shed: n(rng),
                shed_rate: rng.float(),
                cache_hit_ratio: rng.float(),
                p50_us: n(rng),
                p90_us: n(rng),
                p99_us: n(rng),
                queue_wait_p99_us: n(rng),
                compute_p99_us: n(rng),
                serialize_p99_us: n(rng),
                slo_burn: rng.float(),
            })
            .collect(),
        totals: StatsTotals {
            requests: n(rng),
            request_shed: n(rng),
            refused: n(rng),
            failed: n(rng),
            conns_accepted: n(rng),
            conn_shed: n(rng),
            active_conns: n(rng),
            cache_hits: n(rng),
            cache_misses: n(rng),
            slow_requests: n(rng),
            slo_violations: n(rng),
            p99_us: n(rng),
            traced_requests: n(rng),
            trace_exemplars: n(rng),
            audit_records: n(rng),
        },
    }
}

/// One response of each kind: a verdict with its explanation, shed,
/// error, stats.
fn responses(rng: &mut Rng) -> [WireResponse; 4] {
    let served = &served()[rng.below(served().len())];
    let mut ok = WireResponse::ok(served.clone());
    ok.id = rng.next();
    if rng.chance(2) {
        ok = ok.with_trace(format!("{:032x}", rng.next()));
    }
    [
        ok,
        WireResponse::shed(rng.next(), rng.below(1 << 10)),
        WireResponse::error(rng.next(), rng.text()),
        WireResponse::stats(stats(rng), rng.maybe(|r| r.text())),
    ]
}

fn audit(rng: &mut Rng, response: &WireResponse) -> AuditRecord {
    let timing = StageTiming {
        queue_wait_us: rng.next() >> 40,
        compute_us: rng.next() >> 40,
        serialize_us: rng.next() >> 40,
    };
    AuditRecord::new(
        TraceId(rng.next(), rng.next()),
        &rng.text(),
        rng.maybe(|r| r.below(4) as u64),
        response,
        timing,
        rng.next() >> 30,
    )
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

/// A value of some JSON type, never `like`'s own.
fn retyped(rng: &mut Rng, like: &Value) -> Value {
    let palette = [
        Value::Null,
        Value::Bool(true),
        Value::Int(-3),
        Value::UInt(4_294_967_296),
        Value::Float(1.5),
        Value::Str("x".to_string()),
        Value::Array(vec![Value::Str("y".to_string())]),
        Value::Object(vec![("k".to_string(), Value::UInt(1))]),
    ];
    loop {
        let v = palette[rng.below(palette.len())].clone();
        if std::mem::discriminant(&v) != std::mem::discriminant(like) {
            return v;
        }
    }
}

/// A value `depth` containers deep.
fn nested(rng: &mut Rng, depth: usize) -> Value {
    (0..depth).fold(Value::UInt(1), |inner, _| {
        if rng.chance(2) {
            Value::Array(vec![inner])
        } else {
            Value::Object(vec![("u".to_string(), inner)])
        }
    })
}

/// Paths (child indices) to the nodes of `v` that satisfy `keep`.
fn paths(v: &Value, keep: &dyn Fn(&Value) -> bool, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if keep(v) {
        out.push(at.clone());
    }
    let children: Vec<&Value> = match v {
        Value::Array(items) => items.iter().collect(),
        Value::Object(fields) => fields.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        paths(child, keep, at, out);
        at.pop();
    }
}

/// A random node of `tree` satisfying `keep`, if any.
fn pick<'a>(
    rng: &mut Rng,
    tree: &'a mut Value,
    keep: impl Fn(&Value) -> bool,
) -> Option<&'a mut Value> {
    let mut candidates = Vec::new();
    paths(tree, &keep, &mut Vec::new(), &mut candidates);
    let path = candidates.get(rng.below(candidates.len().max(1)))?;
    Some(path.iter().fold(tree, |v, &i| match v {
        Value::Array(items) => &mut items[i],
        Value::Object(fields) => &mut fields[i].1,
        _ => unreachable!("paths lead through containers"),
    }))
}

fn nonempty_object(v: &Value) -> bool {
    matches!(v, Value::Object(f) if !f.is_empty())
}

/// `line` with one mutation applied.
fn mutate(rng: &mut Rng, line: &str) -> String {
    let mut tree: Value = serde_json::from_str(line).expect("encodings parse");
    match rng.below(6) {
        0 => {
            let target = pick(rng, &mut tree, |_| true).expect("the root");
            *target = retyped(rng, target);
        }
        1 => {
            if let Some(Value::Object(fields)) = pick(rng, &mut tree, nonempty_object) {
                fields.remove(rng.below(fields.len()));
            }
        }
        2 => {
            if let Some(Value::Object(fields)) = pick(rng, &mut tree, nonempty_object) {
                let (key, value) = fields[rng.below(fields.len())].clone();
                let other = retyped(rng, &value);
                fields.insert(rng.below(fields.len() + 1), (key, other));
            }
        }
        3 => {
            let depth = 1 + rng.below(140);
            let value = nested(rng, depth);
            if let Some(Value::Object(fields)) =
                pick(rng, &mut tree, |v| matches!(v, Value::Object(_)))
            {
                fields.insert(rng.below(fields.len() + 1), ("zz".to_string(), value));
            }
        }
        4 => {
            let mut cut = rng.below(line.len());
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            return line[..cut].to_string();
        }
        _ => {
            const BYTES: &[u8] = b"{}[],:\"\\ 0-9.eE+ntfux";
            let mut bytes = line.as_bytes().to_vec();
            let ascii: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii()).collect();
            bytes[ascii[rng.below(ascii.len())]] = BYTES[rng.below(BYTES.len())];
            return String::from_utf8(bytes).expect("an ASCII byte swapped for another");
        }
    }
    serde_json::to_string(&tree).expect("a tree serializes")
}

/// A request's `line` with one route element's text replaced by an edge
/// lexeme of the integer pass, or cut inside that element. Unchanged when
/// the request has no route element.
fn edge_lexeme(rng: &mut Rng, line: &str) -> String {
    const LEXEMES: &[&str] = &[
        "01",
        "-0",
        "-1",
        "1.0",
        "1e2",
        "4294967295",
        "4294967296",
        "18446744073709551616",
        "\n7\n",
        " 7 ",
        "[]",
        "7,",
        "7 8",
    ];
    let routes = line.find("\"routes\":[").expect("requests encode routes") + 10;
    let mut elements = Vec::new();
    let (mut depth, mut at) = (0, routes);
    for (i, b) in line.bytes().enumerate().skip(routes) {
        match b {
            b'[' => depth += 1,
            b']' if depth == 0 => break,
            b']' => depth -= 1,
            b'0'..=b'9' if !line.as_bytes()[i - 1].is_ascii_digit() => at = i,
            _ => {}
        }
        if b.is_ascii_digit() && !line.as_bytes()[i + 1].is_ascii_digit() {
            elements.push(at..i + 1);
        }
    }
    let Some(element) = elements.get(rng.below(elements.len().max(1))).cloned() else {
        return line.to_string();
    };
    if rng.chance(LEXEMES.len() + 1) {
        return line[..element.start + 1 + rng.below(element.len())].to_string();
    }
    let lexeme = LEXEMES[rng.below(LEXEMES.len())];
    format!("{}{lexeme}{}", &line[..element.start], &line[element.end..])
}

// ---------------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------------

/// A decode's outcome: the value's re-encoding, or the error text.
fn outcome<T: Serialize>(read: &Result<T, serde_json::Error>) -> Result<String, String> {
    read.as_ref()
        .map(|v| serde_json::to_string(v).expect("decoded values encode"))
        .map_err(|e| e.to_string())
}

/// Decode `text` both ways, require the same outcome, and hand back the
/// direct one.
fn agree<T: Serialize + Deserialize>(text: &str) -> Result<T, serde_json::Error> {
    let direct = serde_json::from_str::<T>(text);
    let via_tree = serde_json::from_str::<Value>(text)
        .and_then(|tree| T::from_value(&tree).map_err(serde_json::Error::from));
    assert_eq!(
        outcome(&direct),
        outcome(&via_tree),
        "direct vs tree on {text}"
    );
    direct
}

fn check<T: Serialize + Deserialize>(rng: &mut Rng, value: &T) {
    let line = serde_json::to_string(value).expect("encodes");
    agree::<T>(&line).expect("an unmutated line decodes");
    for _ in 0..8 {
        agree::<T>(&mutate(rng, &line)).ok();
    }
}

proptest! {
    #[test]
    fn direct_decoding_agrees_with_the_tree(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let req = request(&mut rng);
        let line = req.encode();
        prop_assert_eq!(agree::<WireRequest>(&line).ok(), Some(req.clone()));
        for _ in 0..8 {
            let mutated = mutate(&mut rng, &line);
            let direct = serde_json::from_str::<WireRequest>(&mutated).ok();
            let via_tree = serde_json::from_str::<Value>(&mutated)
                .ok()
                .and_then(|tree| WireRequest::from_value(&tree).ok());
            prop_assert_eq!(direct, via_tree, "{}", mutated);
            agree::<WireRequest>(&mutated).ok();
        }
        for _ in 0..8 {
            agree::<WireRequest>(&edge_lexeme(&mut rng, &line)).ok();
        }
        for response in responses(&mut rng) {
            check(&mut rng, &response);
            let record = audit(&mut rng, &response);
            check(&mut rng, &record);
        }
    }
}
