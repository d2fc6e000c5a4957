//! The one JSON value model, across the crates that feed it: typed data
//! becomes a `json::Value` through `json::to_value` (the `compat/serde`
//! impls of std types, telemetry's `EventValue`, every artifact struct),
//! `Value::render_pretty` / `render_compact` write it, and `json::parse`
//! reads it back. These tests pin that round trip on generated inputs,
//! on fresh runs and on every committed baseline.

use emb_telemetry::{EventValue, Fields, Name};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::path::Path;
use ugache_bench::artifact::{trace_header, trace_line, Artifact};
use ugache_bench::json::{self, Value};
use ugache_bench::runner::{run_units, units_for};
use ugache_bench::scenario::Scenario;
use ugache_bench::{chrome, explain, timeline};

/// Characters a generated string draws from: plain text, the characters
/// JSON escapes by name, other control characters, and multi-byte
/// scalars.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
    '\u{1f}', '\u{7f}', 'é', '中', '\u{2028}', '😀',
];

fn text(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..max_len)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Generates `Value` trees of the shapes the writer emits: numbers are
/// tokens of finite floats and of integers, containers nest `depth`
/// levels at most.
struct Trees {
    depth: usize,
}

impl Strategy for Trees {
    type Value = Value;

    fn sample(&self, rng: &mut StdRng) -> Value {
        tree(rng, self.depth)
    }
}

fn trees(depth: usize) -> Trees {
    Trees { depth }
}

fn string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..8usize);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

fn finite_f64(rng: &mut StdRng) -> f64 {
    loop {
        let x = f64::from_bits(rng.gen::<u64>());
        if x.is_finite() {
            return x;
        }
    }
}

fn tree(rng: &mut StdRng, depth: usize) -> Value {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0..kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::from(finite_f64(rng)),
        3 => Value::Num(rng.gen_range(i64::MIN..i64::MAX).to_string()),
        4 => Value::Str(string(rng)),
        5 => {
            let len = rng.gen_range(0..4usize);
            Value::Arr((0..len).map(|_| tree(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0..4usize);
            Value::Obj(
                (0..len)
                    .map(|_| (string(rng), tree(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// `text` without the whitespace outside its string literals.
fn strip_layout(text: &str) -> String {
    let mut out = String::new();
    let (mut in_string, mut escaped) = (false, false);
    for c in text.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
        } else if c.is_ascii_whitespace() {
            continue;
        }
        out.push(c);
    }
    out
}

/// Field keys of a generated record.
const KEYS: &[&str] = &["f0", "f1", "f2", "f3", "f4", "f5"];

/// Floats whose text is easy to get wrong: signed zero, subnormals, 17
/// significant digits, the extremes and the non-finite values.
const EDGE_FLOATS: &[f64] = &[
    -0.0,
    0.0,
    5e-324,
    2.225_073_858_507_201e-308,
    0.1 + 0.2,
    1.0 / 3.0,
    f64::MAX,
    f64::MIN,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// A field list as records carried it before they were rows: one JSON
/// object, each value through `json::to_value`, in list order.
fn list_value(fields: &[(Name, EventValue)]) -> Value {
    Value::Obj(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), json::to_value(v).unwrap()))
            .collect(),
    )
}

/// The number token of `v`.
fn token(v: &Value) -> &str {
    match v {
        Value::Num(raw) => raw,
        other => panic!("not a number: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every finite `f64` (subnormals, extremes, negative zero) writes a
    /// token that reads back to the same bits; a non-finite one writes
    /// `null`. `to_value` agrees with `Value::from`, the one float
    /// conversion.
    #[test]
    fn floats_read_back_bit_for_bit(bits in 0u64..u64::MAX) {
        let x = f64::from_bits(bits);
        let v = json::to_value(&x).unwrap();
        prop_assert_eq!(&v, &Value::from(x));
        if x.is_finite() {
            let back = json::parse(&v.render_compact()).unwrap();
            prop_assert_eq!(token(&back).parse::<f64>().unwrap().to_bits(), bits);
        } else {
            prop_assert_eq!(v, Value::Null);
        }
    }

    /// An `f32` widens inside its `Serialize` impl: it writes the token of
    /// the `f64` it equals, and that token reads back to the same `f32`.
    #[test]
    fn f32_writes_the_f64_it_equals(bits in 0u32..u32::MAX) {
        let x = f32::from_bits(bits);
        let v = json::to_value(&x).unwrap();
        prop_assert_eq!(&v, &json::to_value(&f64::from(x)).unwrap());
        if x.is_finite() {
            prop_assert_eq!(token(&v).parse::<f32>().unwrap().to_bits(), bits);
        } else {
            prop_assert_eq!(v, Value::Null);
        }
    }

    /// Integers of every width write their decimal digits: the narrow
    /// ones widen to `i64` / `u64` without changing the token, and the
    /// parser keeps the token verbatim.
    #[test]
    fn integers_of_every_width_write_their_digits(u in 0u64..u64::MAX, i in i64::MIN..i64::MAX) {
        let digits = |v: Result<Value, json::Error>| token(&v.unwrap()).to_string();
        prop_assert_eq!(digits(json::to_value(&u)), u.to_string());
        prop_assert_eq!(digits(json::to_value(&(u as usize))), u.to_string());
        prop_assert_eq!(digits(json::to_value(&(u as u32))), (u as u32).to_string());
        prop_assert_eq!(digits(json::to_value(&(u as u16))), (u as u16).to_string());
        prop_assert_eq!(digits(json::to_value(&(u as u8))), (u as u8).to_string());
        prop_assert_eq!(digits(json::to_value(&i)), i.to_string());
        prop_assert_eq!(digits(json::to_value(&(i as isize))), i.to_string());
        prop_assert_eq!(digits(json::to_value(&(i as i32))), (i as i32).to_string());
        prop_assert_eq!(digits(json::to_value(&(i as i16))), (i as i16).to_string());
        prop_assert_eq!(digits(json::to_value(&(i as i8))), (i as i8).to_string());
        prop_assert_eq!(json::parse(&u.to_string()), Ok(Value::Num(u.to_string())));
        prop_assert_eq!(json::parse(&i.to_string()), Ok(Value::Num(i.to_string())));
    }

    /// Any string (quotes, backslashes, every control character,
    /// multi-byte scalars) reads back unchanged from either layout, and
    /// neither layout writes a raw control character.
    #[test]
    fn strings_survive_escaping(s in text(24)) {
        let v = json::to_value(&s).unwrap();
        prop_assert_eq!(&v, &Value::Str(s.clone()));
        for rendered in [v.render_pretty(), v.render_compact()] {
            prop_assert!(!rendered.chars().any(|c| (c as u32) < 0x20), "{rendered:?}");
            prop_assert_eq!(json::parse(&rendered).unwrap(), v.clone());
        }
    }

    /// Both layouts of any tree parse back to the tree, and rendering the
    /// parsed tree again writes the same bytes.
    #[test]
    fn rendered_trees_parse_back_to_themselves(v in trees(4)) {
        for rendered in [v.render_pretty(), v.render_compact()] {
            let back = json::parse(&rendered).unwrap();
            prop_assert_eq!(&back, &v);
        }
        let pretty = v.render_pretty();
        prop_assert_eq!(json::parse(&pretty).unwrap().render_pretty(), pretty);
        let compact = v.render_compact();
        prop_assert_eq!(json::parse(&compact).unwrap().render_compact(), compact);
    }

    /// The two renderers differ only in layout: the pretty text without
    /// its whitespace outside strings is the compact text.
    #[test]
    fn pretty_and_compact_differ_only_in_layout(v in trees(4)) {
        prop_assert_eq!(strip_layout(&v.render_pretty()), v.render_compact());
    }

    /// A number token beyond the `f64` range would read as infinity,
    /// which the writer never emits: `parse` refuses it wherever it
    /// stands, and the same digits at an in-range exponent read back
    /// verbatim.
    #[test]
    fn parse_refuses_numbers_beyond_f64(
        digits in prop::collection::vec(0u8..10, 1..12),
        exp in 309i32..2_000,
        small_exp in -300i32..290,
        negative in 0u8..2,
    ) {
        let sign = if negative == 1 { "-" } else { "" };
        // A leading digit 1-9: the mantissa is at least 1, so every
        // `e{exp}` here is at least 1e309.
        let mantissa: String = std::iter::once(char::from(b'1' + digits[0] % 9))
            .chain(digits[1..].iter().map(|d| char::from(b'0' + d)))
            .collect();
        let huge = format!("{sign}{mantissa}e{exp}");
        for doc in [huge.clone(), format!("[{huge}]"), format!("{{\"k\": {huge}}}")] {
            prop_assert!(json::parse(&doc).is_err(), "{doc} parsed");
        }
        let fine = format!("{sign}{mantissa}e{small_exp}");
        prop_assert_eq!(json::parse(&fine), Ok(Value::Num(fine.clone())));
    }

    /// Std containers map onto the model: a `Vec` or an array is a JSON
    /// array, `None` is `null`, `Some(x)` is `x`, and a tuple is an array
    /// of its fields.
    #[test]
    fn std_containers_map_onto_arrays_and_nulls(
        ids in prop::collection::vec(0u32..u32::MAX, 0..6),
        present in prop::collection::vec(0u8..2, 6),
        label in text(6),
    ) {
        let rows: Vec<Option<(u32, f64, &str)>> = ids
            .iter()
            .zip(&present)
            .map(|(&id, &p)| (p == 1).then_some((id, f64::from(id) / 7.0, label.as_str())))
            .collect();
        let want = Value::Arr(
            rows.iter()
                .map(|row| match row {
                    None => Value::Null,
                    Some((id, x, s)) => Value::Arr(vec![
                        Value::Num(id.to_string()),
                        Value::from(*x),
                        Value::Str(s.to_string()),
                    ]),
                })
                .collect(),
        );
        prop_assert_eq!(json::to_value(&rows).unwrap(), want);
        prop_assert_eq!(
            json::to_value(&[label.as_str(), label.as_str()]).unwrap(),
            Value::Arr(vec![Value::Str(label.clone()); 2])
        );
    }

    /// A telemetry event's `--trace` line reads back to the same line;
    /// each field keeps its value: integers their digits, finite floats
    /// their bits, non-finite floats `null`, labels their text. A record
    /// written as a `Fields` row renders its fields — serialized, in the
    /// trace line and as a Chrome span's `args` — exactly as the same
    /// `(Name, EventValue)` list did when records carried one.
    #[test]
    fn trace_lines_read_back_with_their_field_values(
        kinds in prop::collection::vec(0u8..4, 0..6),
        words in prop::collection::vec(0u64..u64::MAX, 6),
        label in text(8),
    ) {
        let fields: Vec<(Name, EventValue)> = kinds
            .iter()
            .zip(&words)
            .enumerate()
            .map(|(i, (&kind, &w))| {
                let value = match kind {
                    0 => EventValue::U64(w),
                    1 => EventValue::F64(f64::from_bits(w)),
                    2 => EventValue::F64(EDGE_FLOATS[w as usize % EDGE_FLOATS.len()]),
                    _ => EventValue::Str(Name::from(label.clone())),
                };
                (Name::from(KEYS[i]), value)
            })
            .collect();
        let values: Vec<EventValue> = fields.iter().map(|&(_, v)| v).collect();
        let row = || Fields::new(&KEYS[..values.len()], &values);
        let ((), report) = emb_telemetry::collect(|| {
            emb_telemetry::event(Name::from(label.clone()), row);
            emb_telemetry::span("gpu0/cores", "stall", 0, 1, row);
        });
        let old = list_value(&fields);
        prop_assert_eq!(json::to_value(&report.events[0].fields).unwrap(), old.clone());
        let line = trace_line("fig2", &report.events[0]);
        let old_line = Value::Obj(vec![
            ("target".to_string(), Value::Str("fig2".to_string())),
            ("seq".to_string(), Value::Num("0".to_string())),
            ("event".to_string(), Value::Str(label.clone())),
            ("fields".to_string(), old.clone()),
        ]);
        prop_assert_eq!(line.render_compact(), old_line.render_compact());
        let chrome = chrome::chrome_trace(&[("fig2", &report)]);
        let Some(Value::Arr(events)) = chrome.get("traceEvents") else {
            panic!("no traceEvents");
        };
        let x = Value::Str("X".to_string());
        let span = events.iter().find(|e| e.get("ph") == Some(&x)).unwrap();
        prop_assert_eq!(span.get("args"), Some(&old));
        let back = json::parse(&line.render_compact()).unwrap();
        prop_assert_eq!(&back, &line);
        let read = back.get("fields").unwrap();
        for (name, value) in &fields {
            let got = read.get(name).unwrap();
            match value {
                EventValue::U64(u) => prop_assert_eq!(token(got), u.to_string()),
                EventValue::F64(x) if x.is_finite() => {
                    prop_assert_eq!(token(got).parse::<f64>().unwrap().to_bits(), x.to_bits());
                }
                EventValue::F64(_) => prop_assert_eq!(got, &Value::Null),
                EventValue::Str(s) => prop_assert_eq!(got, &Value::Str(s.to_string())),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The Chrome trace of properly nested spans reads back to the same
    /// value and passes `validate`, and every span's `ts` / `dur` is the
    /// exact microsecond value of its nanoseconds.
    #[test]
    fn chrome_traces_of_nested_spans_read_back_valid(
        lengths in prop::collection::vec(1u64..5_000_000, 1..8),
        gaps in prop::collection::vec(0u64..1_000, 8),
        tracks in prop::collection::vec(0usize..3, 8),
    ) {
        let ((), report) = emb_telemetry::collect(|| {
            let mut free_at = [0u64; 3];
            for ((&len, &gap), &t) in lengths.iter().zip(&gaps).zip(&tracks) {
                let start = free_at[t] + gap;
                let track = format!("gpu{t}/cores");
                emb_telemetry::span(track.clone(), "outer", start, start + len, Vec::new);
                emb_telemetry::span(track, "inner", start + len / 4, start + len / 2, || {
                    vec![("bytes".into(), EventValue::U64(len))]
                });
                free_at[t] = start + len;
            }
        });
        let trace = chrome::chrome_trace(&[("fig13", &report)]);
        let back = json::parse(&trace.render_compact()).unwrap();
        prop_assert_eq!(&back, &trace);
        let errors = chrome::validate(&back);
        prop_assert!(errors.is_empty(), "{errors:?}");
        let Some(Value::Arr(events)) = back.get("traceEvents") else {
            panic!("no traceEvents");
        };
        let x = Value::Str("X".to_string());
        let spans: Vec<&Value> = events.iter().filter(|e| e.get("ph") == Some(&x)).collect();
        prop_assert_eq!(spans.len(), report.spans.len());
        for (event, span) in spans.iter().zip(&report.spans) {
            let us = |key: &str| token(event.get(key).unwrap()).parse::<f64>().unwrap();
            prop_assert_eq!(us("ts").to_bits(), (span.start_ns as f64 / 1e3).to_bits());
            prop_assert_eq!(us("dur").to_bits(), (span.dur_ns() as f64 / 1e3).to_bits());
        }
    }
}

/// Every committed baseline (each `repro --json` artifact and the
/// explain-tail golden) is a fixed point of parsing and rendering: its
/// bytes are `render_pretty` of its own value plus one newline.
#[test]
fn committed_baselines_are_fixed_points_of_the_renderer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
    let mut files = Vec::new();
    for dir in [root.clone(), root.join("quick")] {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                files.push(path);
            }
        }
    }
    for name in ["explain_tail_serve.json", "serve.json", "fig10.json"] {
        assert!(files.iter().any(|p| p.ends_with(name)), "{name} not found");
    }
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let v = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(v.render_pretty() + "\n", text, "{}", path.display());
    }
}

/// Scenario knobs small enough for a debug build.
fn tiny() -> Scenario {
    Scenario {
        gnn_scale: 16_384,
        dlr_scale: 65_536,
        gnn_batch: 128,
        dlr_batch: 128,
        iters: 1,
        serve_users: 50_000,
        serve_requests: 48,
    }
}

/// An artifact is the value it renders: `to_value` in process equals
/// `parse` of the written document (payload, metrics and timeline), and
/// the artifact and the trace header carry the scenario's own value.
#[test]
fn artifacts_read_the_same_in_process_and_from_their_document() {
    let s = tiny();
    let targets = ["table1", "fig9", "fig14"];
    let results = run_units(&s, &units_for(&targets), 1);
    let scenario = json::to_value(&s).unwrap();
    for (t, r) in targets.iter().zip(&results) {
        let artifact = Artifact::new(
            t,
            &s,
            r.data.clone(),
            Some(r.telemetry.metrics.clone()),
            Some(timeline::from_report(&r.telemetry)),
        );
        let value = json::to_value(&artifact).unwrap();
        assert_eq!(
            json::parse(&json::to_document(&artifact)),
            Ok(value.clone()),
            "{t}"
        );
        assert_eq!(value.get("target"), Some(&Value::Str(t.to_string())));
        assert_eq!(value.get("scenario"), Some(&scenario), "{t}");
        assert_ne!(value.get("metrics"), Some(&Value::Null), "{t}");
    }
    assert_eq!(trace_header(&s).get("scenario"), Some(&scenario));
}

/// `explain-tail` reads one report from a live serve run and from the
/// artifact that run writes: the in-process path is the artifact reader
/// applied to the snapshot's value.
#[test]
fn explain_tail_reads_one_report_from_a_live_run_and_its_artifact() {
    let s = tiny();
    let results = run_units(&s, &units_for(&["serve"]), 1);
    let r = &results[0];
    let live =
        explain::report_from_snapshot(&r.telemetry.metrics).expect("a live serve run explains");
    let artifact = Artifact::new(
        "serve",
        &s,
        r.data.clone(),
        Some(r.telemetry.metrics.clone()),
        None,
    );
    let parsed = json::parse(&json::to_document(&artifact)).unwrap();
    let from_file = explain::report_from_artifact(&parsed).expect("its artifact explains");
    assert_eq!(live.summary.requests, emb_telemetry::EXEMPLAR_K);
    assert_eq!(live, from_file);
    assert_eq!(json::to_document(&live), json::to_document(&from_file));
}
