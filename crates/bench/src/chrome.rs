//! Chrome trace-event export of telemetry spans.
//!
//! [`chrome_trace`] renders the simulated-time spans of a repro run as a
//! Chrome trace-event JSON object (the `{"traceEvents": [...]}` format
//! that `chrome://tracing` and Perfetto load directly): each target is a
//! process, each span track a thread, and every span a complete (`"X"`)
//! event with `ts`/`dur` in simulated microseconds. The rendering is a
//! pure function of the per-target reports, so serial and `--jobs N`
//! runs produce byte-identical files (CI diffs them).
//!
//! [`validate`] is the structural check behind `repro check-trace`:
//! every `ts`/`dur` must be finite and non-negative and the events of
//! each `(pid, tid)` must nest properly when swept in time order.

use crate::artifact::fields_value;
use crate::json::Value;

/// Nanoseconds → trace microseconds (Chrome's native unit).
fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn metadata_event(name: &str, pid: usize, tid: Option<usize>, label: &str) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::Num(pid.to_string())),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".to_string(), Value::Num(tid.to_string())));
    }
    fields.push((
        "args".to_string(),
        Value::Obj(vec![("name".to_string(), Value::Str(label.to_string()))]),
    ));
    Value::Obj(fields)
}

/// Renders the spans of a run as one Chrome trace-event JSON value.
///
/// `per_target` lists `(target, report)` in the run's requested-target
/// order. Targets map to processes (`pid` = position + 1) and each
/// target's tracks to threads (`tid` = first-encounter order + 1, which
/// is span record order and therefore deterministic); process/thread
/// `"M"` metadata events carry the human-readable names. Span fields
/// become the `args` object of their `"X"` event.
pub fn chrome_trace(per_target: &[(&str, &emb_telemetry::Report)]) -> Value {
    let mut events: Vec<Value> = Vec::new();
    for (t_idx, (target, report)) in per_target.iter().enumerate() {
        let pid = t_idx + 1;
        events.push(metadata_event("process_name", pid, None, target));
        let mut tracks: Vec<&str> = Vec::new();
        for span in &report.spans {
            if !tracks.contains(&span.track.as_str()) {
                tracks.push(&span.track);
            }
        }
        for (k, track) in tracks.iter().enumerate() {
            events.push(metadata_event("thread_name", pid, Some(k + 1), track));
        }
        for span in &report.spans {
            let tid = tracks.iter().position(|t| span.track == *t).expect("seen") + 1;
            events.push(Value::Obj(vec![
                ("name".to_string(), Value::Str(span.name.to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("pid".to_string(), Value::Num(pid.to_string())),
                ("tid".to_string(), Value::Num(tid.to_string())),
                ("ts".to_string(), Value::from(ns_to_us(span.start_ns))),
                ("dur".to_string(), Value::from(ns_to_us(span.dur_ns()))),
                ("args".to_string(), fields_value(&span.fields)),
            ]));
        }
    }
    Value::Obj(vec![("traceEvents".to_string(), Value::Arr(events))])
}

/// Tolerance for float comparisons in [`validate`]: 1 ns expressed in
/// trace microseconds, absorbing the ns→µs division rounding.
const EPS_US: f64 = 1e-3;

fn as_f64(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Num(raw)) => raw.parse::<f64>().ok(),
        _ => None,
    }
}

/// Structurally validates a Chrome trace-event value.
///
/// Checks that `traceEvents` exists, every event carries a `ph`, every
/// `"X"` event has finite non-negative `ts`/`dur`, and the `"X"` events
/// of each `(pid, tid)` pair nest properly (an event starting inside
/// another must end inside it). Returns one message per violation; an
/// empty vector means the trace is well-formed.
pub fn validate(trace: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(Value::Arr(events)) = trace.get("traceEvents") else {
        return vec!["missing `traceEvents` array".to_string()];
    };
    // (pid, tid) -> [(ts, end)]
    type Lane = ((String, String), Vec<(f64, f64)>);
    let mut lanes: Vec<Lane> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let Value::Obj(_) = ev else {
            errors.push(format!("event {i}: not an object"));
            continue;
        };
        let ph = match ev.get("ph") {
            Some(Value::Str(s)) => s.clone(),
            _ => {
                errors.push(format!("event {i}: missing `ph`"));
                continue;
            }
        };
        if ph != "X" {
            continue;
        }
        let (Some(Value::Num(pid)), Some(Value::Num(tid))) = (ev.get("pid"), ev.get("tid")) else {
            errors.push(format!("event {i}: X event without pid/tid"));
            continue;
        };
        let (Some(ts), Some(dur)) = (as_f64(ev.get("ts")), as_f64(ev.get("dur"))) else {
            errors.push(format!("event {i}: X event without numeric ts/dur"));
            continue;
        };
        if !ts.is_finite() || ts < 0.0 {
            errors.push(format!("event {i}: ts {ts} not finite and non-negative"));
            continue;
        }
        if !dur.is_finite() || dur < 0.0 {
            errors.push(format!("event {i}: dur {dur} not finite and non-negative"));
            continue;
        }
        let key = (pid.clone(), tid.clone());
        match lanes.iter_mut().find(|(k, _)| *k == key) {
            Some((_, spans)) => spans.push((ts, ts + dur)),
            None => lanes.push((key, vec![(ts, ts + dur)])),
        }
    }
    // Nesting check per lane: sweep in (start, -end) order with a stack
    // of enclosing end times.
    for ((pid, tid), mut spans) in lanes {
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<f64> = Vec::new();
        for (ts, end) in spans {
            while stack.last().is_some_and(|&top| top <= ts + EPS_US) {
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                if end > top + EPS_US {
                    errors.push(format!(
                        "pid {pid} tid {tid}: span [{ts}, {end}] straddles \
                         enclosing span ending at {top}"
                    ));
                }
            }
            stack.push(end);
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(spans: Vec<(&'static str, &'static str, u64, u64)>) -> emb_telemetry::Report {
        emb_telemetry::collect(|| {
            for (track, name, s, e) in spans {
                emb_telemetry::span(track, name, s, e, emb_telemetry::Fields::default);
            }
        })
        .1
    }

    #[test]
    fn trace_has_metadata_and_events() {
        let r = report(vec![
            ("gpu0", "extract", 0, 100),
            ("gpu0/cores", "stall", 10, 40),
        ]);
        let trace = chrome_trace(&[("fig6", &r)]);
        let Some(Value::Arr(events)) = trace.get("traceEvents") else {
            panic!("no traceEvents");
        };
        // 1 process_name + 2 thread_name + 2 X events.
        assert_eq!(events.len(), 5);
        assert!(validate(&trace).is_empty());
    }

    #[test]
    fn rendering_is_deterministic() {
        let r = report(vec![("a", "x", 0, 5), ("b", "y", 2, 9)]);
        let t1 = chrome_trace(&[("fig2", &r)]).render_compact();
        let t2 = chrome_trace(&[("fig2", &r)]).render_compact();
        assert_eq!(t1, t2);
    }

    #[test]
    fn validate_flags_straddling_spans() {
        let trace = Value::Obj(vec![(
            "traceEvents".to_string(),
            Value::Arr(vec![
                Value::Obj(vec![
                    ("name".to_string(), Value::Str("outer".to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("pid".to_string(), Value::Num("1".to_string())),
                    ("tid".to_string(), Value::Num("1".to_string())),
                    ("ts".to_string(), Value::Num("0".to_string())),
                    ("dur".to_string(), Value::Num("10".to_string())),
                ]),
                Value::Obj(vec![
                    ("name".to_string(), Value::Str("straddler".to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("pid".to_string(), Value::Num("1".to_string())),
                    ("tid".to_string(), Value::Num("1".to_string())),
                    ("ts".to_string(), Value::Num("5".to_string())),
                    ("dur".to_string(), Value::Num("10".to_string())),
                ]),
            ]),
        )]);
        let errors = validate(&trace);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("straddles"));
    }

    #[test]
    fn validate_flags_negative_dur() {
        let trace = Value::Obj(vec![(
            "traceEvents".to_string(),
            Value::Arr(vec![Value::Obj(vec![
                ("ph".to_string(), Value::Str("X".to_string())),
                ("pid".to_string(), Value::Num("1".to_string())),
                ("tid".to_string(), Value::Num("1".to_string())),
                ("ts".to_string(), Value::Num("0".to_string())),
                ("dur".to_string(), Value::Num("-1".to_string())),
            ])]),
        )]);
        assert_eq!(validate(&trace).len(), 1);
    }

    #[test]
    fn nested_spans_pass() {
        let r = report(vec![("t", "outer", 0, 100), ("t", "inner", 20, 60)]);
        assert!(validate(&chrome_trace(&[("x", &r)])).is_empty());
    }
}
