//! Output digests: one 64-bit FNV-1a hash over a run's canonical
//! `stats_to_value` JSON, and the recorded per-workload expectations
//! they are checked against.

use orderlight_sim::schema::stats_to_value;
use orderlight_sim::RunStats;
use orderlight_trace::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write;

/// FNV-1a, 64 bits.
#[must_use]
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The digest of a JSON value, serialised by the canonical writer: key
/// order and whitespace of the text it was parsed from do not change it.
#[must_use]
pub fn value_digest(value: &Value) -> u64 {
    fnv1a(value.to_json().as_bytes())
}

/// The digest of a run's statistics: every counter, serialised the way
/// the service serialises them, so a served reply and a direct run of
/// the same scenario digest equal.
#[must_use]
pub fn stats_digest(stats: &RunStats) -> u64 {
    value_digest(&stats_to_value(stats))
}

/// Parses a recorded expectation file: one `KEY DIGEST` pair per line,
/// the digest in hexadecimal; blank lines and `#` comments are skipped.
///
/// # Errors
/// Names the first malformed line.
pub fn parse_expected(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut map = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(key), Some(hex), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("line {}: expected `KEY DIGEST`", n + 1));
        };
        let digest = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .map_err(|e| format!("line {}: bad digest {hex:?}: {e}", n + 1))?;
        if map.insert(key.to_string(), digest).is_some() {
            return Err(format!("line {}: duplicate key {key}", n + 1));
        }
    }
    Ok(map)
}

/// Formats expectations as [`parse_expected`] reads them.
#[must_use]
pub fn format_expected(header: &str, entries: &BTreeMap<String, u64>) -> String {
    let mut out = format!("# {header}\n");
    for (key, digest) in entries {
        let _ = writeln!(out, "{key} {digest:#018x}");
    }
    out
}
