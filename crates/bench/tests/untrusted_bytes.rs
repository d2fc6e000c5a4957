//! Byte-level robustness of the two decoders that read files a user
//! hands to `repro` (`replay`'s UGTR traces; `compare` / `diff` /
//! `explain-tail` / `check-trace`'s JSON): whatever the bytes, decoding
//! returns — `Ok` or a typed error, never a panic or an abort — holds
//! at most a small multiple of the input on the heap while it does, and
//! an `Ok` re-encodes to what was read. A trace that decodes goes on
//! through `replay_trace`, which sizes dense tables from the header: it
//! too returns, and holds what the keys it was given can account for.
//!
//! One binary with its own counting `#[global_allocator]`
//! (`test_support::CountingAlloc`). It counts per thread, so each
//! measurement sees only the allocations of the test that takes it, not
//! those of the tests libtest runs beside it.

use emb_workload::{Trace, TraceError, TRACE_MAGIC, TRACE_VERSION};
use proptest::prelude::*;
use test_support::{peak_of, CountingAlloc};
use ugache::baselines::SystemKind;
use ugache_bench::json;
use ugache_bench::replay::{replay_trace, MAX_REPLAY_KEYS};
use ugache_bench::scenario::PlatformId;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Decodes `bytes` under the allocation budget; an `Ok` must re-encode
/// to exactly `bytes`.
fn decode_trace(bytes: &[u8]) -> Result<Trace, TraceError> {
    let (decoded, peak) = peak_of(|| Trace::from_bytes(bytes));
    assert!(
        peak <= 8 * bytes.len() + 1024,
        "{peak} bytes held decoding {} bytes",
        bytes.len()
    );
    if let Ok(trace) = &decoded {
        assert_eq!(trace.to_bytes(), bytes, "decoded but not canonical");
    }
    decoded
}

/// Replays `trace` three ways (solver, replication with re-sharding,
/// a policy that can refuse to launch) under the allocation budget:
/// 1 MB to say no, whatever the header claims, and the few MB a solve
/// over a [`trace_from`]-sized domain takes to say yes.
fn replay(trace: &Trace) {
    for (policy, platform) in [
        (SystemKind::UGache, None),
        (SystemKind::Hps, Some(PlatformId::ServerA)),
        (SystemKind::WholeGraph, Some(PlatformId::ServerC)),
    ] {
        let (report, peak) = peak_of(|| replay_trace(trace, policy, platform));
        let budget = match &report {
            Ok(report) => {
                assert!(trace.num_keys <= MAX_REPLAY_KEYS);
                assert_eq!(report.iterations.len(), trace.records.len());
                8 << 20
            }
            Err(_) => 1 << 20,
        };
        assert!(
            peak <= budget,
            "{peak} bytes held replaying {} keys of {} under {policy:?}",
            trace.total_keys(),
            trace.num_keys
        );
    }
}

/// Parses `text` under the allocation budget; an `Ok` must survive both
/// renderings.
fn parse_json(text: &str) -> Result<json::Value, json::Error> {
    let (parsed, peak) = peak_of(|| json::parse(text));
    assert!(
        peak <= 64 * text.len() + 4096,
        "{peak} bytes held parsing {} bytes",
        text.len()
    );
    if let Ok(value) = &parsed {
        assert_eq!(json::parse(&value.render_pretty()).as_ref(), Ok(value));
        assert_eq!(json::parse(&value.render_compact()).as_ref(), Ok(value));
    }
    parsed
}

fn bytes_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u32..256, 0..max_len)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// A small valid trace drawn from `shape`: GPUs, records and a key
/// domain from its first bytes, keys from the rest.
fn trace_from(shape: &[u8]) -> Trace {
    let at = |i: usize| shape.get(i).copied().unwrap_or(0) as usize;
    let (gpus, count) = (at(0) % 4, 1 + at(1) % 4);
    let num_keys = 1 + at(2) as u64;
    let records = (0..count)
        .map(|r| {
            (0..gpus)
                .map(|g| {
                    let len = at(3 + r * 4 + g) % 6;
                    (0..len)
                        .map(|k| (at(20 + r + g + k) as u64 % num_keys) as u32)
                        .collect()
                })
                .collect()
        })
        .collect();
    Trace {
        seed: at(4) as u64,
        num_gpus: gpus as u32,
        num_keys,
        scenario: "dlr/cr@server_a"[..at(5) % 16].to_string(),
        records,
    }
}

/// Byte offsets of every `u32` length field of `trace`'s encoding:
/// `num_gpus`, `record_count`, `name_len`, then per record its payload
/// length and each list's key count.
fn length_fields(trace: &Trace) -> Vec<usize> {
    let mut fields = vec![16, 28, 32];
    let mut pos = 36 + trace.scenario.len();
    for record in &trace.records {
        fields.push(pos);
        pos += 4;
        for keys in record {
            fields.push(pos);
            pos += 4 + 4 * keys.len();
        }
    }
    fields
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic_the_trace_decoder(bytes in bytes_strategy(160)) {
        let _ = decode_trace(&bytes);
        // Past the magic and the version, where the length fields are.
        let mut framed = TRACE_MAGIC.to_vec();
        framed.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        framed.extend_from_slice(&bytes);
        let _ = decode_trace(&framed);
    }

    #[test]
    fn mutated_traces_decode_to_an_error_or_to_themselves(
        shape in bytes_strategy(48),
        at in 0usize..10_000,
        to in 0u32..256,
    ) {
        let trace = trace_from(&shape);
        let bytes = trace.to_bytes();
        prop_assert_eq!(decode_trace(&bytes), Ok(trace.clone()));

        // Truncated anywhere: no proper prefix is a trace.
        prop_assert!(decode_trace(&bytes[..at % bytes.len()]).is_err());

        // One byte changed: an error, or the trace the new bytes spell.
        let mut flipped = bytes.clone();
        flipped[at % bytes.len()] = to as u8;
        let _ = decode_trace(&flipped);

        // Each length field lying in turn. Off by one can spell another
        // trace (the format has no checksum: a key count one too high
        // swallows the next list's count as a key); the most a field can
        // claim never does.
        for field in length_fields(&trace) {
            let truth = u32::from_le_bytes(bytes[field..field + 4].try_into().unwrap());
            for lie in [u32::MAX, truth.wrapping_add(1), truth.wrapping_sub(1)] {
                let mut lying = bytes.clone();
                lying[field..field + 4].copy_from_slice(&lie.to_le_bytes());
                let decoded = decode_trace(&lying);
                prop_assert!(
                    lie != u32::MAX || decoded.is_err(),
                    "field at byte {field}: {truth} → {lie} decoded"
                );
            }
        }
    }

    #[test]
    fn a_header_never_panics_or_sizes_a_replay(
        shape in bytes_strategy(48),
        claim in 0usize..8,
        word in 0u64..u64::MAX,
    ) {
        // A valid small trace whose header claims a domain its keys do
        // not need: a little more, the bounds and their neighbours, noise.
        let mut trace = trace_from(&shape);
        let truth = trace.num_keys;
        trace.num_keys = [
            truth,
            truth + word % 4096,
            MAX_REPLAY_KEYS + 1,
            1 << 31,
            1 << 32,
            (1 << 32) + 1,
            1 << 40,
            word.max(truth),
        ][claim];
        match decode_trace(&trace.to_bytes()) {
            Ok(decoded) => {
                prop_assert!(trace.num_keys <= 1 << 32);
                replay(&decoded);
            }
            Err(e) => prop_assert_eq!(e, TraceError::DomainTooLarge { num_keys: trace.num_keys }),
        }
    }

    #[test]
    fn arbitrary_text_never_panics_the_json_parser(
        bytes in bytes_strategy(200),
        tokens in prop::collection::vec(0usize..24, 0..120),
    ) {
        let _ = parse_json(&String::from_utf8_lossy(&bytes));
        // JSON's own alphabet gets further than noise does.
        const TOKENS: [&str; 24] = [
            "[", "]", "{", "}", ",", ":", "\"", "\\", "\"a\"", "\"k\":", "null", "true", "false",
            "0", "-1.5e3", "1e999", "-", ".", "e", " ", "\n", "\\u00e9", "\\ud800", "é",
        ];
        let text: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        let _ = parse_json(&text);
    }
}

#[test]
fn well_formed_documents_parse_within_the_budget() {
    // The shapes that hold the most heap per input byte: empty
    // containers, one-digit numbers, one-letter keys.
    for unit in ["[]", "{}", "0", "null", "{\"k\":0}", "\"\""] {
        let text = format!("[{}{unit}]", format!("{unit},").repeat(2_000));
        parse_json(&text).expect("well formed");
    }
    let nested = "[".repeat(64) + &"]".repeat(64);
    parse_json(&nested).expect("at the nesting cap");
    assert!(parse_json(&"[".repeat(100_000)).is_err());
}
