//! Deterministic access-trace record/replay codec.
//!
//! A trace captures a workload's per-iteration key batches — its entire
//! influence on the cache layer — in the versioned, seed-stamped,
//! length-prefixed binary format specified in EXPERIMENTS.md
//! ("Access-trace format"). All integers are little-endian; a trace
//! either round-trips bitwise ([`Trace::to_bytes`] /
//! [`Trace::from_bytes`]) or decoding hard-errors ([`TraceError`]).
//! Replaying never draws randomness: the recorded batches *are* the
//! stream, and feeding them into an identically built system reproduces
//! the live generator's extraction results and telemetry bitwise (see
//! DESIGN.md, "Why replay is bitwise").

use crate::{DlrWorkload, GnnWorkload};

/// The 4-byte magic opening every trace file.
pub const TRACE_MAGIC: [u8; 4] = *b"UGTR";

/// Current wire-format version. The reader hard-errors on any other
/// value; bump on any layout change, however small.
pub const TRACE_VERSION: u32 = 1;

/// Anything that emits per-GPU key batches, one call per iteration.
///
/// Both workload generators implement this, which is what lets the
/// recorder drive them generically; a decoded [`Trace`]'s records slot
/// into the same consumers.
pub trait BatchSource {
    /// Draws the next iteration's keys, one list per GPU.
    fn next_batch(&mut self) -> Vec<Vec<u32>>;
}

impl BatchSource for DlrWorkload {
    fn next_batch(&mut self) -> Vec<Vec<u32>> {
        DlrWorkload::next_batch(self)
    }
}

impl BatchSource for GnnWorkload {
    fn next_batch(&mut self) -> Vec<Vec<u32>> {
        GnnWorkload::next_batch(self)
    }
}

/// Why a trace buffer could not be decoded.
///
/// Every variant is a hard error: there is no partial or
/// version-tolerant parsing (EXPERIMENTS.md, "Versioning and
/// compatibility rules").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer does not open with [`TRACE_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The header's version is not [`TRACE_VERSION`].
    VersionMismatch {
        /// The version stamped in the header.
        found: u32,
    },
    /// The buffer ended before the named field could be read.
    Truncated {
        /// Which field was being read.
        context: &'static str,
    },
    /// The scenario name is not valid UTF-8.
    BadName,
    /// A record's `payload_len` prefix disagrees with its contents.
    RecordLengthMismatch {
        /// Zero-based record index.
        record: usize,
    },
    /// Bytes remain after the last record.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// The header's `num_keys` is more than `u32` keys can address.
    DomainTooLarge {
        /// The domain size stamped in the header.
        num_keys: u64,
    },
    /// A key is not below the header's `num_keys` domain.
    KeyOutOfDomain {
        /// Zero-based record index.
        record: usize,
        /// The offending key.
        key: u32,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic { found } => {
                write!(f, "not a UGTR trace (magic {found:?})")
            }
            TraceError::VersionMismatch { found } => write!(
                f,
                "trace version {found} is not supported (this build reads only \
                 version {TRACE_VERSION}; see EXPERIMENTS.md)"
            ),
            TraceError::Truncated { context } => {
                write!(f, "trace truncated while reading {context}")
            }
            TraceError::BadName => write!(f, "trace scenario name is not valid UTF-8"),
            TraceError::RecordLengthMismatch { record } => {
                write!(f, "record {record}: payload length prefix mismatch")
            }
            TraceError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last record")
            }
            TraceError::DomainTooLarge { num_keys } => {
                write!(
                    f,
                    "key domain {num_keys} is larger than 32-bit keys address"
                )
            }
            TraceError::KeyOutOfDomain { record, key } => {
                write!(f, "record {record}: key {key} outside the stamped domain")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A decoded (or freshly captured) access trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The generator's root seed (provenance stamp; replay never draws).
    pub seed: u64,
    /// Key lists per record (1 for serving traces).
    pub num_gpus: u32,
    /// Key-domain size; every key is `< num_keys`.
    pub num_keys: u64,
    /// The registry name of the scenario that generated the stream.
    pub scenario: String,
    /// Per-iteration key batches, outer = record, inner = GPU.
    pub records: Vec<Vec<Vec<u32>>>,
}

/// Cursor-style little-endian reads over the decode buffer.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(TraceError::Truncated { context })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// How many lists the unread bytes can still hold when each needs at
    /// least a 4-byte length prefix — the most a count read from the
    /// buffer may reserve, whatever it claims.
    fn prefixes_left(&self) -> usize {
        (self.bytes.len() - self.pos) / 4
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, TraceError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, TraceError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

impl Trace {
    /// Records `iters` iterations from a live generator.
    ///
    /// # Panics
    ///
    /// Panics if `iters == 0` (a trace must carry at least one record
    /// to pin `num_gpus`) or if the source changes its GPU count
    /// between iterations.
    pub fn capture<S: BatchSource>(
        source: &mut S,
        iters: usize,
        seed: u64,
        num_keys: u64,
        scenario: &str,
    ) -> Trace {
        assert!(iters > 0, "a trace needs at least one record");
        let mut records = Vec::with_capacity(iters);
        for _ in 0..iters {
            records.push(source.next_batch());
        }
        let num_gpus = records[0].len();
        assert!(
            records.iter().all(|r| r.len() == num_gpus),
            "batch source changed its GPU count mid-stream"
        );
        Trace {
            seed,
            num_gpus: num_gpus as u32,
            num_keys,
            scenario: scenario.to_string(),
            records,
        }
    }

    /// Encodes the trace into the UGTR wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.num_gpus.to_le_bytes());
        out.extend_from_slice(&self.num_keys.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.scenario.len() as u32).to_le_bytes());
        out.extend_from_slice(self.scenario.as_bytes());
        for record in &self.records {
            let payload: usize = record.iter().map(|keys| 4 + 4 * keys.len()).sum();
            out.extend_from_slice(&(payload as u32).to_le_bytes());
            for keys in record {
                out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                for &k in keys {
                    out.extend_from_slice(&k.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decodes a UGTR buffer, validating every framing invariant.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] encountered; see the variant
    /// docs for the full list of hard-error conditions.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(4, "magic")?;
        if magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic {
                found: [magic[0], magic[1], magic[2], magic[3]],
            });
        }
        let version = r.u32("version")?;
        if version != TRACE_VERSION {
            return Err(TraceError::VersionMismatch { found: version });
        }
        let seed = r.u64("seed")?;
        let num_gpus = r.u32("num_gpus")?;
        let num_keys = r.u64("num_keys")?;
        if num_keys > u64::from(u32::MAX) + 1 {
            return Err(TraceError::DomainTooLarge { num_keys });
        }
        let record_count = r.u32("record_count")? as usize;
        let name_len = r.u32("name_len")? as usize;
        let name = r.take(name_len, "scenario name")?;
        let scenario = std::str::from_utf8(name)
            .map_err(|_| TraceError::BadName)?
            .to_string();
        let mut records = Vec::with_capacity(record_count.min(r.prefixes_left()));
        for record in 0..record_count {
            let payload_len = r.u32("record payload length")? as usize;
            let start = r.pos;
            let mut lists = Vec::with_capacity((num_gpus as usize).min(r.prefixes_left()));
            for _ in 0..num_gpus {
                let count = r.u32("key count")? as usize;
                let raw = r.take(count.saturating_mul(4), "keys")?;
                let mut keys = Vec::with_capacity(count);
                for c in raw.chunks_exact(4) {
                    let k = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                    if u64::from(k) >= num_keys {
                        return Err(TraceError::KeyOutOfDomain { record, key: k });
                    }
                    keys.push(k);
                }
                lists.push(keys);
            }
            if r.pos - start != payload_len {
                return Err(TraceError::RecordLengthMismatch { record });
            }
            records.push(lists);
        }
        if r.pos != bytes.len() {
            return Err(TraceError::TrailingBytes {
                extra: bytes.len() - r.pos,
            });
        }
        Ok(Trace {
            seed,
            num_gpus,
            num_keys,
            scenario,
            records,
        })
    }

    /// Total keys across all records and GPUs (raw, duplicates counted).
    pub fn total_keys(&self) -> u64 {
        self.records
            .iter()
            .flat_map(|r| r.iter())
            .map(|keys| keys.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{dlr_preset, gnn_preset, DlrDatasetId, GnnDatasetId};
    use crate::GnnModel;

    fn sample() -> Trace {
        Trace {
            seed: 0x5EED,
            num_gpus: 2,
            num_keys: 100,
            scenario: "dlr/cr@server_a".to_string(),
            records: vec![vec![vec![1, 5, 9], vec![0, 2]], vec![vec![], vec![99]]],
        }
    }

    #[test]
    fn round_trips_bitwise() {
        let t = sample();
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn version_mismatch_is_a_hard_error() {
        let mut bytes = sample().to_bytes();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::VersionMismatch { found: 2 })
        );
    }

    #[test]
    fn bad_magic_truncation_and_trailing_are_rejected() {
        let bytes = sample().to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Trace::from_bytes(&bad),
            Err(TraceError::BadMagic { .. })
        ));
        for cut in [3, 10, 30, bytes.len() - 1] {
            assert!(
                matches!(
                    Trace::from_bytes(&bytes[..cut]),
                    Err(TraceError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            Trace::from_bytes(&long),
            Err(TraceError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn a_lying_gpu_count_is_an_error_not_an_allocation() {
        // 40 bytes: a header claiming `u32::MAX` key lists per record,
        // then one record's payload length and nothing else. Reserving
        // what the header says asked the allocator for 96 GiB and
        // aborted `repro replay`.
        let mut t = sample();
        t.scenario.clear();
        t.num_gpus = u32::MAX;
        t.records.clear();
        let mut bytes = t.to_bytes();
        bytes[28..32].copy_from_slice(&1u32.to_le_bytes()); // record_count
        bytes.extend_from_slice(&8u32.to_le_bytes());
        assert_eq!(bytes.len(), 40);
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Truncated {
                context: "key count"
            })
        );
        // The same lie in `record_count`.
        bytes[16..20].copy_from_slice(&0u32.to_le_bytes()); // num_gpus
        bytes[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes[36..40].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Truncated {
                context: "record payload length"
            })
        );
    }

    #[test]
    fn payload_length_mismatch_is_rejected() {
        let t = sample();
        let mut bytes = t.to_bytes();
        // The first record's payload_len sits right after the header.
        let header = 36 + t.scenario.len();
        let wrong = 9999u32;
        bytes[header..header + 4].copy_from_slice(&wrong.to_le_bytes());
        // Reading 9999 bytes of payload either truncates or mismatches.
        assert!(Trace::from_bytes(&bytes).is_err());
    }

    #[test]
    fn out_of_domain_keys_are_rejected() {
        let mut t = sample();
        t.records[1][1][0] = 100; // num_keys is 100, so 100 is out.
        assert_eq!(
            Trace::from_bytes(&t.to_bytes()),
            Err(TraceError::KeyOutOfDomain {
                record: 1,
                key: 100
            })
        );
    }

    #[test]
    fn captures_dlr_and_gnn_streams_verbatim() {
        let mut w = DlrWorkload::new(dlr_preset(DlrDatasetId::SynA, 65_536), 64, 4, 7);
        let mut w2 = w.clone();
        let t = Trace::capture(&mut w, 3, 7, w2.dataset().num_entries() as u64, "x");
        assert_eq!(t.num_gpus, 4);
        assert_eq!(t.records.len(), 3);
        for r in &t.records {
            assert_eq!(*r, w2.next_batch());
        }

        let d = gnn_preset(GnnDatasetId::Pa, 16_384, 5);
        let n = d.num_entries() as u64;
        let mut g = GnnWorkload::new(d, GnnModel::Gcn, 32, 2, 5);
        let mut g2 = g.clone();
        let t = Trace::capture(&mut g, 2, 5, n, "y");
        for r in &t.records {
            assert_eq!(*r, g2.next_batch());
        }
        // And the captured stream survives the wire format bitwise.
        assert_eq!(Trace::from_bytes(&t.to_bytes()).unwrap(), t);
    }
}
