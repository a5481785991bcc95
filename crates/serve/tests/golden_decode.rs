//! Golden decode outcomes: what `decode_line` makes of each hand-written
//! line, frozen byte for byte.
//!
//! The lines sit where a decoder that reads JSON text directly could
//! drift from one that parses a whole tree first and then walks it: a
//! syntax error behind a type error, several type errors at once,
//! duplicate and unknown keys, nesting at the depth cap, commands that
//! carry request fields, number and string edge cases, non-object lines
//! and trailing bytes.
//!
//! Each golden line records the input and its outcome. A line that
//! decodes records the decoded line's `Debug` and, for a request, what
//! `into_request` makes of it (the request's `Debug`, or the error's
//! `Display`). A line that fails records the error's `Display`.
//!
//! When a change to these outcomes is *intentional*, regenerate the file
//! and review the diff like any other code change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sam-serve --test golden_decode
//! git diff crates/serve/tests/golden/
//! ```

use sam_serve::wire::{decode_line, WireLine};
use serde::Serialize;
use std::path::PathBuf;

/// One frozen outcome.
#[derive(Serialize)]
struct GoldenLine {
    line: String,
    /// The decode error's `Display`, when the line fails to decode.
    error: Option<String>,
    /// The decoded line's `Debug`, when it decodes.
    decoded: Option<String>,
    /// For a decoded request: `Ok(<request Debug>)` or `Err(<error Display>)`.
    into_request: Option<String>,
}

/// A request line whose unknown key `x` holds nested objects, so that the
/// innermost one sits `levels` deep, counting the line's own object.
fn unknown_nested(levels: usize) -> String {
    let inner = levels - 1;
    format!(
        r#"{{"id":1,"topology":"t","protocol":"p","routes":[[0,1]],"x":{}1{}}}"#,
        r#"{"a":"#.repeat(inner),
        "}".repeat(inner)
    )
}

/// `routes` holding one route nested `levels` deep, counting the line's
/// own object.
fn routes_nested(levels: usize) -> String {
    let inner = levels - 1;
    format!(
        r#"{{"id":1,"topology":"t","protocol":"p","routes":{}0{}}}"#,
        "[".repeat(inner),
        "]".repeat(inner)
    )
}

/// The inputs, in golden-file order.
fn lines() -> Vec<String> {
    let fixed: &[&str] = &[
        // Well-formed requests.
        r#"{"id":7,"topology":"uniform6x6","protocol":"mr","routes":[[0,3,9,11],[0,4,8,11]],"probe_ack_ratio":null}"#,
        r#"{"id":8,"topology":"cluster1","protocol":"dsr","routes":[[0,1,2]],"probe_ack_ratio":0.25,"detector":"ensemble","timings":true,"trace":"000000000000002a000000000000007b"}"#,
        r#"{"trace":null,"timings":false,"detector":null,"probe_ack_ratio":null,"routes":[[2,1,0]],"protocol":"mr","topology":"t","id":9}"#,
        r#" { "id" : 10 , "topology" : "t" , "protocol" : "p" , "routes" : [ [ 0 , 1 ] ] } "#,
        r#"{"id":11,"topology":"t","protocol":"p","routes":[]}"#,
        // A syntax error after a wrongly typed field: the syntax error wins.
        r#"{"id":"x","topology":"t","protocol":"p","routes":[[0,1]],}"#,
        r#"{"id":"x","topology":"t","protocol":"p","routes":[[0,1]]"#,
        r#"{"routes":[["a"]],"id":1,"topology":"t","protocol":"p","x":[1 2]}"#,
        // Two wrongly typed fields in reverse declaration order: the first
        // declared wins.
        r#"{"routes":"r","id":"x","topology":"t","protocol":"p"}"#,
        r#"{"protocol":1,"topology":2,"id":3,"routes":[]}"#,
        r#"{"trace":5,"timings":"yes","id":1,"topology":"t","protocol":"p","routes":[]}"#,
        // A missing `id` beside a bad `routes`.
        r#"{"topology":"t","protocol":"p","routes":[["a"]]}"#,
        r#"{"routes":7,"topology":"t","protocol":"p"}"#,
        // Duplicate keys: the first occurrence is the one decoded.
        r#"{"id":1,"id":"x","topology":"t","protocol":"p","routes":[]}"#,
        r#"{"id":"x","id":1,"topology":"t","protocol":"p","routes":[]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1]],"routes":[["bad"]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[],"id":[1,}"#,
        // Unknown keys are skipped, whatever they hold.
        r#"{"id":12,"topology":"t","protocol":"p","routes":[[0,1]],"extra":{"a":[1,{"b":null}],"c":"é"},"deadline_us":500}"#,
        // `cmd` beside request fields, and command-argument errors.
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1,2]],"cmd":"ping"}"#,
        r#"{"cmd":"stats","id":"x","routes":"bad"}"#,
        r#"{"cmd":"stats","window":10,"format":"prometheus","limit":3}"#,
        r#"{"limit":2,"format":null,"window":null,"cmd":"trace"}"#,
        r#"{"cmd":"ping","cmd":7}"#,
        r#"{"cmd":7,"cmd":"ping"}"#,
        r#"{"cmd":null}"#,
        r#"{"cmd":"stats","window":"ten"}"#,
        r#"{"cmd":"stats","window":-1}"#,
        r#"{"cmd":"stats","window":1.5}"#,
        r#"{"cmd":"stats","format":7}"#,
        r#"{"cmd":"trace","limit":"all"}"#,
        r#"{"cmd":"stats","window":"ten","format":7}"#,
        r#"{"cmd":"ping","window":[1,}"#,
        // Numbers.
        r#"{"id":-0,"topology":"t","protocol":"p","routes":[[-0,1]]}"#,
        r#"{"id":1e3,"topology":"t","protocol":"p","routes":[]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[],"probe_ack_ratio":1.}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[],"probe_ack_ratio":1e3}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,4294967296]]}"#,
        r#"{"id":18446744073709551616,"topology":"t","protocol":"p","routes":[]}"#,
        r#"{"id":01,"topology":"t","protocol":"p","routes":[[0,-1]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[],"probe_ack_ratio":1.5e}"#,
        r#"{"id":+1,"topology":"t","protocol":"p","routes":[]}"#,
        // `"timings":null` is a value, not an absent key.
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1,2]],"timings":null}"#,
        // Escaped strings and surrogate pairs.
        r#"{"id":13,"topology":"uniform\n\"6x6\"\\\/","protocol":"😀","routes":[]}"#,
        r#"{"id":14,"topology":"t","protocol":"p","routes":[],"trace":"\ud800"}"#,
        r#"{"id":15,"topology":"\udc00","protocol":"p","routes":[]}"#,
        r#"{"id":16,"topology":"\ud800A","protocol":"p","routes":[]}"#,
        r#"{"id":17,"topology":"\x","protocol":"p","routes":[]}"#,
        r#"{"id":18,"topology":"\u12","protocol":"p","routes":[]}"#,
        // Wrongly typed values inside containers.
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1],"x"]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":{"a":1}}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1]],"probe_ack_ratio":"high"}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1]],"detector":["sam"]}"#,
        // Routes that decode but fail validation.
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1,0]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1],[5]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[1,2,3,2,1]]}"#,
        // Non-object lines.
        "5",
        "[1,2]",
        r#""id""#,
        "null",
        "{}",
        " ",
        "nul",
        // Trailing bytes.
        r#"{"cmd":"ping"} x"#,
        r#"{"cmd":"ping"}{}"#,
        "  {\"cmd\":\"ping\"}\t ",
        r#"{"id":1 "topology":"t"}"#,
    ];
    let mut lines: Vec<String> = fixed.iter().map(|s| s.to_string()).collect();
    for levels in [127, 128, 129] {
        lines.push(unknown_nested(levels));
    }
    lines.push(routes_nested(129));
    // Integer runs inside a route, where a one-pass reader of plain
    // integers must hand over to the per-element path exactly as it
    // would: zero padding (a 20-digit id included), the `u32` maximum
    // and one past `u64`, floats and strings, whitespace, and broken
    // separators.
    let runs: &[&str] = &[
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[00,1]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,00000000000000000001]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,4294967295]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,18446744073709551616]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1.5]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1e2]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,"1"]]}"#,
        "{\"id\":1,\"topology\":\"t\",\"protocol\":\"p\",\"routes\":[ [ 0 ,\n 1 ,\t2\r\n] ,\n[\n3\n,\n4\n]\n]}",
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1,]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,,1]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0 1]]}"#,
        r#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1]"#,
    ];
    lines.extend(runs.iter().map(|s| s.to_string()));
    lines
}

/// Decode every line and render its golden line.
fn golden_lines() -> Vec<String> {
    lines()
        .into_iter()
        .map(|line| {
            let golden = match decode_line(line.as_bytes()) {
                Err(e) => GoldenLine {
                    line,
                    error: Some(e.to_string()),
                    decoded: None,
                    into_request: None,
                },
                Ok(decoded) => {
                    let into_request = match &decoded {
                        WireLine::Request(r) => Some(match (**r).clone().into_request() {
                            Ok(req) => format!("Ok({req:?})"),
                            Err(e) => format!("Err({e})"),
                        }),
                        WireLine::Command(_) => None,
                    };
                    GoldenLine {
                        line,
                        error: None,
                        decoded: Some(format!("{decoded:?}")),
                        into_request,
                    }
                }
            };
            serde_json::to_string(&golden).expect("golden line serializes")
        })
        .collect()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/decode_lines.jsonl")
}

#[test]
fn decode_outcomes_match_the_golden_file() {
    let actual = golden_lines();
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
            "decode outcome drifted; if intended, rerun with UPDATE_GOLDEN=1"
        );
    }
}
