//! Minimal JSON support for the bench artifacts.
//!
//! The workspace is offline (no serde), so the figure binaries emit JSON
//! as hand-built strings; this module provides the other direction — a
//! small recursive-descent parser — plus the schema check behind
//! `bench_scaling --check`, so CI can prove the emitted artifact is
//! well-formed and carries all five sections of the scaling study.

use tn_core::kernel::{DENSE_FUSED_MIN_INPUTS, LOCKSTEP_MIN_CHAINS};
use tn_core::{NEURON_DENSE_MIN_VISITS, SYNAPSE_KERNEL_MIN_DUE, SYNAPSE_KERNEL_MIN_EVENTS};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64, which covers the bench artifacts).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as a single JSON value (trailing whitespace allowed).
    ///
    /// # Errors
    /// Returns a message with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut at = 0usize;
        let v = parse_value(b, &mut at)?;
        skip_ws(b, &mut at);
        if at != b.len() {
            return Err(format!("trailing garbage at byte {at}"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && matches!(b[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn parse_value(b: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_ws(b, at);
    match b.get(*at) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *at += 1;
            let mut fields = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, at);
                let key = match parse_value(b, at)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key must be a string at byte {at}")),
                };
                skip_ws(b, at);
                if b.get(*at) != Some(&b':') {
                    return Err(format!("expected ':' at byte {at}"));
                }
                *at += 1;
                let val = parse_value(b, at)?;
                fields.push((key, val));
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {at}")),
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, at)?);
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {at}")),
                }
            }
        }
        Some(b'"') => {
            *at += 1;
            let mut s = String::new();
            loop {
                match b.get(*at) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *at += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *at += 1;
                        match b.get(*at) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'u') => {
                                let esc_at = *at - 1; // the backslash
                                let hi = parse_hex4(b, *at + 1)?;
                                *at += 4;
                                // UTF-16 surrogate halves are not scalar
                                // values: a high surrogate must combine
                                // with the low surrogate escaped right
                                // after it (RFC 8259 §7), and either half
                                // alone is malformed.
                                let ch = match hi {
                                    0xD800..=0xDBFF => {
                                        if b.get(*at + 1..*at + 3) != Some(b"\\u".as_slice()) {
                                            return Err(format!(
                                                "lone high surrogate \\u{hi:04X} at byte {esc_at} \
                                                 (expected a \\uDC00-\\uDFFF low surrogate next)"
                                            ));
                                        }
                                        let lo = parse_hex4(b, *at + 3)?;
                                        if !(0xDC00..=0xDFFF).contains(&lo) {
                                            return Err(format!(
                                                "high surrogate \\u{hi:04X} at byte {esc_at} \
                                                 followed by \\u{lo:04X}, not a low surrogate"
                                            ));
                                        }
                                        *at += 6;
                                        let c = 0x10000
                                            + ((u32::from(hi) - 0xD800) << 10)
                                            + (u32::from(lo) - 0xDC00);
                                        char::from_u32(c)
                                            .expect("surrogate pairs cover 0x10000..=0x10FFFF")
                                    }
                                    0xDC00..=0xDFFF => {
                                        return Err(format!(
                                            "lone low surrogate \\u{hi:04X} at byte {esc_at} \
                                             (low surrogates only follow a high surrogate)"
                                        ));
                                    }
                                    code => char::from_u32(u32::from(code))
                                        .expect("non-surrogate BMP code point"),
                                };
                                s.push(ch);
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *at += 1;
                    }
                    Some(&c) => {
                        // Multi-byte UTF-8 passes through byte-wise: the
                        // input is a &str, so the bytes are valid UTF-8.
                        let ch_len = utf8_len(c);
                        let chunk = b
                            .get(*at..*at + ch_len)
                            .ok_or_else(|| "truncated UTF-8".to_string())?;
                        s.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                        *at += ch_len;
                    }
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *at;
            *at += 1;
            while *at < b.len() && matches!(b[*at], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *at += 1;
            }
            let text = std::str::from_utf8(&b[start..*at]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
        Some(b't') if b[*at..].starts_with(b"true") => {
            *at += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*at..].starts_with(b"false") => {
            *at += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*at..].starts_with(b"null") => {
            *at += 4;
            Ok(Json::Null)
        }
        Some(c) => Err(format!("unexpected byte {c:?} at {at}")),
    }
}

/// Reads the four hex digits of a `\u` escape starting at `at`.
fn parse_hex4(b: &[u8], at: usize) -> Result<u16, String> {
    let hex = b
        .get(at..at + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
    let text = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    u16::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape {text:?} at byte {at}"))
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Checks that `points` is non-empty and that every point reports each
/// of `keys` as a finite number.
fn check_points(section: &str, points: &[Json], keys: &[&str]) -> Result<(), String> {
    if points.is_empty() {
        return Err(format!("section {section:?} has no points"));
    }
    for (i, p) in points.iter().enumerate() {
        for key in keys {
            let v = p
                .get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{section}[{i}] missing numeric {key:?}"))?;
            if !v.is_finite() {
                return Err(format!("{section}[{i}].{key} is not finite"));
            }
        }
    }
    Ok(())
}

/// The `points` array of object section `section`.
fn points_of<'a>(root: &'a Json, section: &str) -> Result<&'a [Json], String> {
    root.get(section)
        .ok_or_else(|| format!("missing section {section:?}"))?
        .get("points")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("section {section:?} missing \"points\" array"))
}

/// The elements of array section `section`, numbered; none if absent.
fn rows<'a>(root: &'a Json, section: &str) -> impl Iterator<Item = (usize, &'a Json)> {
    root.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .enumerate()
}

/// `p.key` as a number, or `default`.
fn num_or(p: &Json, key: &str, default: f64) -> f64 {
    p.get(key).and_then(Json::as_num).unwrap_or(default)
}

/// Checks that `section.key` is present and a number or `null` — a
/// crossover or threshold the sweep may never reach.
fn check_nullable(root: &Json, section: &str, key: &str) -> Result<(), String> {
    let v = root
        .get(section)
        .and_then(|s| s.get(key))
        .ok_or_else(|| format!("section {section:?} missing {key:?}"))?;
    if !matches!(v, Json::Null | Json::Num(_)) {
        return Err(format!("{section}.{key} must be a number or null"));
    }
    Ok(())
}

/// The five sections `BENCH_scaling.json` must carry, with the figure
/// each one miniaturizes and the per-point keys it must report.
const SECTIONS: [(&str, &[&str]); 5] = [
    (
        "thread_strong_scaling", // Fig. 6
        &[
            "threads",
            "wall_s",
            "synapse_s",
            "neuron_s",
            "network_s",
            "critical_wait_s",
            "speedup",
        ],
    ),
    (
        "rank_weak_scaling", // Fig. 4a
        &[
            "ranks",
            "cores",
            "wall_s",
            "fires",
            "messages_per_tick",
            "collective_s",
        ],
    ),
    (
        "mpi_vs_pgas", // Fig. 7
        &["cores", "mpi_wall_s", "pgas_wall_s", "pgas_over_mpi"],
    ),
    (
        "real_time_threshold", // ticks/sec vs core count
        &["cores", "ticks_per_s", "slowdown"],
    ),
    (
        "memory", // SoA pool vs boxed-core resident/snapshot cost
        &[
            "cores",
            "aos_bytes_per_core",
            "soa_bytes_per_core",
            "aos_snapshot_us_per_core",
            "soa_snapshot_us_per_core",
        ],
    ),
];

/// Validates the scaling artifact's schema: a versioned object carrying
/// compile accounting and all five study sections, each with a non-empty
/// `points` array whose entries report the required numeric keys.
///
/// # Errors
/// Returns the first schema violation found, as a human-readable message.
pub fn validate_scaling_json(text: &str) -> Result<(), String> {
    let root = Json::parse(text)?;
    let version = root
        .get("version")
        .and_then(Json::as_num)
        .ok_or("missing numeric \"version\"")?;
    if version < 1.0 {
        return Err(format!("bad version {version}"));
    }
    for key in ["model", "seed", "max_cores", "ticks", "host_threads"] {
        if root.get(key).is_none() {
            return Err(format!("missing top-level {key:?}"));
        }
    }
    let compile = root.get("compile").ok_or("missing \"compile\" section")?;
    for key in ["cores", "plan_s", "wire_s", "balance_iterations"] {
        compile
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("compile section missing numeric {key:?}"))?;
    }
    for (section, required) in SECTIONS {
        check_points(section, points_of(&root, section)?, required)?;
    }
    // The crossover and threshold summaries must be present, though each
    // may be null when the sweep never reaches it.
    check_nullable(&root, "mpi_vs_pgas", "crossover_cores")?;
    check_nullable(&root, "real_time_threshold", "max_real_time_cores")?;
    Ok(())
}

/// The array sections `BENCH_kernels.json` must carry and the numeric
/// keys every point of each must report.
const KERNEL_ARRAY_SECTIONS: [(&str, &[&str]); 6] = [
    (
        "synapse_kernel",
        &[
            "types",
            "density",
            "due",
            "events",
            "scalar_ns",
            "bitsliced_ns",
            "speedup",
            "scalar_portable_ns",
            "bitsliced_portable_ns",
        ],
    ),
    (
        "tick_loop",
        &[
            "kernels_on_ns_per_core_tick",
            "kernels_off_ns_per_core_tick",
            "speedup",
        ],
    ),
    (
        "degraded",
        &[
            "ranks",
            "armed_ns_per_tick",
            "replicating_ns_per_tick",
            "replication_overhead",
            "replication_bytes",
            "staging_bytes",
            "kill_tick",
            "time_to_recover_ns",
            "replayed_ticks",
        ],
    ),
    (
        "batched",
        &[
            "ticks",
            "lanes",
            "batched_ns_per_core_tick_replica",
            "solo_ns_per_core_tick_run",
            "sessions_per_s",
            "speedup",
        ],
    ),
    (
        "elastic",
        &[
            "cores",
            "ranks",
            "delta_bytes_per_boundary",
            "full_bytes_per_boundary",
            "delta_reduction",
            "migrated_cores",
            "migration_bytes_per_core",
        ],
    ),
    (
        "durable",
        &[
            "cores",
            "ranks",
            "ticks",
            "every",
            "base_ns_per_tick",
            "nosync_ns_per_tick",
            "fsync_ns_per_tick",
            "nosync_overhead",
            "fsync_overhead",
            "generations",
            "durable_bytes",
            "full_bytes_per_generation",
            "delta_bytes_per_generation",
            "delta_reduction",
        ],
    ),
];

/// The crossover probes of `BENCH_kernels.json`: each is an object with
/// a `points` array whose entries report these numeric keys.
const KERNEL_PROBE_SECTIONS: [(&str, &[&str]); 4] = [
    (
        "dense_integrate",
        &[
            "visits",
            "sparse_ns",
            "fused_ns",
            "fused_avx2_ns",
            "sparse_avx512_ns",
            "fused_avx512_ns",
            "masked_input_ns",
            "auto_input_ns",
            "masked_restless_ns",
            "auto_restless_ns",
            "masked_drawing_ns",
            "auto_drawing_ns",
        ],
    ),
    ("draw_ahead", &["chains", "portable_ns", "avx2_ns"]),
    ("take_due", &["due", "vector_ns", "scalar_ns", "speedup"]),
    (
        "lane_step",
        &[
            "lanes",
            "all_input_ns",
            "settling_ns",
            "saturating_ns",
            "saturating_over_wrapping",
        ],
    ),
];

/// The measured crossovers the artifact records, each a number or `null`.
const KERNEL_CROSSOVERS: [(&str, &str); 8] = [
    ("dispatch", "crossover_events_t1"),
    ("dispatch", "crossover_events_t4"),
    ("dense_integrate", "fused_crossover_inputs"),
    ("dense_integrate", "dense_crossover_input"),
    ("dense_integrate", "dense_crossover_restless"),
    ("dense_integrate", "dense_crossover_drawing"),
    ("draw_ahead", "crossover_chains"),
    ("take_due", "crossover_due"),
];

/// The `tn-core` dispatch constants the artifact records beside their
/// grids: `(section, key, constant, compiled value)`. A constant edited
/// without regenerating the artifact fails the check.
const KERNEL_CONSTANTS: [(&str, &str, &str, usize); 5] = [
    (
        "dispatch",
        "min_due",
        "SYNAPSE_KERNEL_MIN_DUE",
        SYNAPSE_KERNEL_MIN_DUE,
    ),
    (
        "dispatch",
        "min_events",
        "SYNAPSE_KERNEL_MIN_EVENTS",
        SYNAPSE_KERNEL_MIN_EVENTS,
    ),
    (
        "dense_integrate",
        "min_visits",
        "NEURON_DENSE_MIN_VISITS",
        NEURON_DENSE_MIN_VISITS as usize,
    ),
    (
        "dense_integrate",
        "fused_min_inputs",
        "DENSE_FUSED_MIN_INPUTS",
        DENSE_FUSED_MIN_INPUTS as usize,
    ),
    (
        "draw_ahead",
        "lockstep_min_chains",
        "LOCKSTEP_MIN_CHAINS",
        LOCKSTEP_MIN_CHAINS,
    ),
];

/// Validates the kernels artifact's schema: the dispatch constants, each
/// equal to the compiled one, beside the crossovers their grids measured
/// (the Synapse sweep, `dense_integrate`, `draw_ahead`), the `take_due`
/// and `lane_step` probes, the Neuron sweep pair, the engine tick loops,
/// checkpoint and recovery pricing, degraded-mode rows, the replica
/// `batched` section (which must report a measured ≥ 1 sessions/sec
/// throughput per point), and the `durable` checkpoint-store section
/// (which must have committed generations whose deltas undercut the
/// full anchors).
///
/// # Errors
/// Returns the first schema violation found, as a human-readable message.
pub fn validate_kernels_json(text: &str) -> Result<(), String> {
    let root = Json::parse(text)?;
    if root.get("bench").and_then(Json::as_str) != Some("kernels") {
        return Err("missing \"bench\": \"kernels\" tag".into());
    }
    for (section, keys) in KERNEL_PROBE_SECTIONS {
        check_points(section, points_of(&root, section)?, keys)?;
    }
    for (section, key, name, compiled) in KERNEL_CONSTANTS {
        let recorded = root
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_num)
            .ok_or_else(|| format!("section {section:?} missing numeric {key:?}"))?;
        if recorded != compiled as f64 {
            return Err(format!(
                "{section}.{key} = {recorded}, but {name} is {compiled}: \
                 regenerate BENCH_kernels.json"
            ));
        }
    }
    for (section, key) in KERNEL_CROSSOVERS {
        check_nullable(&root, section, key)?;
    }
    for (section, keys) in [
        (
            "neuron_sweep",
            &["full_ns", "masked_ns", "speedup"] as &[&str],
        ),
        (
            "checkpoint",
            &[
                "core_snapshot_bytes",
                "snapshot_ns_per_core",
                "restore_ns_per_core",
            ],
        ),
        (
            "recovery",
            &[
                "baseline_ns_per_tick",
                "reliable_ns_per_tick",
                "armed_ns_per_tick",
                "staging_bytes",
            ],
        ),
    ] {
        let s = root
            .get(section)
            .ok_or_else(|| format!("missing section {section:?}"))?;
        check_points(section, std::slice::from_ref(s), keys)?;
    }
    for (section, required) in KERNEL_ARRAY_SECTIONS {
        let points = root
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array section {section:?}"))?;
        check_points(section, points, required)?;
    }
    // The batched section's throughput claims must be actual measurements,
    // not placeholders.
    for (i, p) in rows(&root, "batched") {
        let rate = num_or(p, "sessions_per_s", 0.0);
        if rate < 1.0 {
            return Err(format!(
                "batched[{i}].sessions_per_s = {rate} is not a measurement"
            ));
        }
    }
    // The elastic section's reason to exist: delta replication must ship
    // measurably fewer bytes per boundary than the snapshots of every core
    // a full payload carries, on real migrated cores.
    for (i, p) in rows(&root, "elastic") {
        let delta = num_or(p, "delta_bytes_per_boundary", f64::INFINITY);
        let full = num_or(p, "full_bytes_per_boundary", 0.0);
        if delta >= full {
            return Err(format!(
                "elastic[{i}]: delta replicas ship {delta} bytes/boundary, \
                 not less than full's {full}"
            ));
        }
        let migrated = num_or(p, "migrated_cores", 0.0);
        if migrated < 1.0 {
            return Err(format!(
                "elastic[{i}].migrated_cores = {migrated} — the scale-out never moved a core"
            ));
        }
    }
    // The durable section's reason to exist: the job must have committed
    // generations on disk, and delta generations must be measurably
    // smaller than the full anchors they diff against.
    for (i, p) in rows(&root, "durable") {
        let gens = num_or(p, "generations", 0.0);
        if gens < 1.0 {
            return Err(format!(
                "durable[{i}].generations = {gens} — the run never committed a generation"
            ));
        }
        let delta = num_or(p, "delta_bytes_per_generation", f64::INFINITY);
        let full = num_or(p, "full_bytes_per_generation", 0.0);
        if delta >= full {
            return Err(format!(
                "durable[{i}]: delta generations cost {delta} bytes, \
                 not less than full's {full}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].get("b"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"x"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_unicode_strings() {
        let v = Json::parse("\"α→β \\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("α→β é"));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        // U+1F600 😀 is \uD83D\uDE00 in UTF-16 — one char, not two U+FFFD.
        assert_eq!(
            Json::parse("\"\\uD83D\\uDE00\"").unwrap().as_str(),
            Some("😀")
        );
        // Case-insensitive hex, surrounded by other content.
        assert_eq!(
            Json::parse("\"a\\ud83d\\ude00b \\uD834\\uDD1E\"")
                .unwrap()
                .as_str(),
            Some("a😀b 𝄞")
        );
        // Extremes of the supplementary range.
        assert_eq!(
            Json::parse("\"\\uD800\\uDC00\"").unwrap().as_str(),
            Some("\u{10000}")
        );
        assert_eq!(
            Json::parse("\"\\uDBFF\\uDFFF\"").unwrap().as_str(),
            Some("\u{10FFFF}")
        );
    }

    #[test]
    fn supplementary_chars_round_trip_through_escapes() {
        // What a UTF-16-escaping emitter would write for "😀𝄞" parses
        // back to the literal string, and the literal passes through raw.
        for text in ["😀", "😀𝄞", "mixed 😀 α \u{10FFFF}"] {
            let mut escaped = String::from('"');
            for u in text.encode_utf16() {
                escaped.push_str(&format!("\\u{u:04X}"));
            }
            escaped.push('"');
            assert_eq!(Json::parse(&escaped).unwrap().as_str(), Some(text));
            assert_eq!(
                Json::parse(&format!("\"{text}\"")).unwrap().as_str(),
                Some(text)
            );
        }
    }

    #[test]
    fn lone_surrogates_are_rejected_with_position() {
        // Lone high surrogate at end of string.
        let e = Json::parse("\"\\uD83D\"").unwrap_err();
        assert!(e.contains("lone high surrogate \\uD83D"), "{e}");
        assert!(e.contains("byte 1"), "{e}");
        // Lone low surrogate.
        let e = Json::parse("\"x\\uDE00\"").unwrap_err();
        assert!(e.contains("lone low surrogate \\uDE00"), "{e}");
        // High surrogate followed by a non-surrogate escape.
        let e = Json::parse("\"\\uD83D\\u0041\"").unwrap_err();
        assert!(e.contains("not a low surrogate"), "{e}");
        // High surrogate followed by a literal character.
        let e = Json::parse("\"\\uD83Dz\"").unwrap_err();
        assert!(e.contains("lone high surrogate"), "{e}");
        // Two high surrogates in a row.
        let e = Json::parse("\"\\uD83D\\uD83D\"").unwrap_err();
        assert!(e.contains("not a low surrogate"), "{e}");
        // Truncated pair tail.
        assert!(Json::parse("\"\\uD83D\\uDE\"").is_err());
        assert!(Json::parse("\"\\uD8\"").is_err());
    }

    fn skeleton() -> String {
        let point = |keys: &[&str]| -> String {
            let fields: Vec<String> = keys.iter().map(|k| format!("\"{k}\": 1")).collect();
            format!("{{{}}}", fields.join(", "))
        };
        let mut sections = String::new();
        for (name, keys) in SECTIONS {
            sections.push_str(&format!(
                ",\n\"{name}\": {{\"points\": [{}]{}}}",
                point(keys),
                match name {
                    "mpi_vs_pgas" => ", \"crossover_cores\": null",
                    "real_time_threshold" => ", \"max_real_time_cores\": 1024",
                    _ => "",
                }
            ));
        }
        format!(
            "{{\"version\": 1, \"model\": \"m\", \"seed\": 1, \"max_cores\": 4096, \
             \"ticks\": 100, \"host_threads\": 1, \
             \"compile\": {{\"cores\": 4096, \"plan_s\": 0.1, \"wire_s\": 0.2, \
             \"balance_iterations\": 3}}{sections}}}"
        )
    }

    #[test]
    fn validates_complete_artifact() {
        validate_scaling_json(&skeleton()).unwrap();
    }

    fn kernels_skeleton() -> String {
        let point = |keys: &[&str]| -> String {
            let fields: Vec<String> = keys
                .iter()
                .map(|k| match *k {
                    "sessions_per_s" => format!("\"{k}\": 250.0"),
                    // The elastic and durable validators check delta < full.
                    "full_bytes_per_boundary" => format!("\"{k}\": 2"),
                    "full_bytes_per_generation" => format!("\"{k}\": 2"),
                    _ => format!("\"{k}\": 1"),
                })
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        let mut sections = String::new();
        for (name, keys) in KERNEL_ARRAY_SECTIONS {
            sections.push_str(&format!(",\n\"{name}\": [{}]", point(keys)));
        }
        // Each probe object: its points, then its constants and
        // crossovers as the compiled values and nulls.
        for (name, keys) in KERNEL_PROBE_SECTIONS {
            let mut fields = format!("\"points\": [{}]", point(keys));
            for (section, key, _, compiled) in KERNEL_CONSTANTS {
                if section == name {
                    fields.push_str(&format!(", \"{key}\": {compiled}"));
                }
            }
            for (section, key) in KERNEL_CROSSOVERS {
                if section == name {
                    fields.push_str(&format!(", \"{key}\": null"));
                }
            }
            sections.push_str(&format!(",\n\"{name}\": {{{fields}}}"));
        }
        format!(
            "{{\"bench\": \"kernels\", \
             \"dispatch\": {{\"min_due\": {}, \"min_events\": {}, \
             \"crossover_events_t1\": 409, \"crossover_events_t4\": null}}, \
             \"neuron_sweep\": {{\"full_ns\": 1, \"masked_ns\": 1, \"speedup\": 1}}, \
             \"checkpoint\": {{\"core_snapshot_bytes\": 3632, \
             \"snapshot_ns_per_core\": 1, \"restore_ns_per_core\": 1}}, \
             \"recovery\": {{\"baseline_ns_per_tick\": 1, \"reliable_ns_per_tick\": 1, \
             \"armed_ns_per_tick\": 1, \"staging_bytes\": 1}}{sections}}}",
            SYNAPSE_KERNEL_MIN_DUE, SYNAPSE_KERNEL_MIN_EVENTS,
        )
    }

    #[test]
    fn validates_complete_kernels_artifact() {
        let full = kernels_skeleton();
        let root = Json::parse(&full).unwrap();
        for section in ["dense_integrate", "draw_ahead", "take_due", "lane_step"] {
            assert!(root.get(section).is_some(), "skeleton lacks {section}");
        }
        validate_kernels_json(&full).unwrap();
    }

    #[test]
    fn kernels_validator_requires_every_probe_section() {
        let full = kernels_skeleton();
        for (name, _) in KERNEL_PROBE_SECTIONS {
            let e = validate_kernels_json(&full.replace(&format!("\"{name}\""), "\"gone\""))
                .unwrap_err();
            assert!(e.contains(name), "{name}: {e}");
        }
        // A crossover is a number or null, never a placeholder string.
        let e = validate_kernels_json(
            &full.replace("\"crossover_chains\": null", "\"crossover_chains\": \"3\""),
        )
        .unwrap_err();
        assert!(e.contains("crossover_chains"), "{e}");
    }

    #[test]
    fn kernels_validator_names_a_constant_that_drifted_from_its_record() {
        let full = kernels_skeleton();
        for (_, key, name, compiled) in KERNEL_CONSTANTS {
            let recorded = format!("\"{key}\": {compiled}");
            assert!(full.contains(&recorded), "skeleton lacks {recorded}");
            let edited = full.replace(&recorded, &format!("\"{key}\": {}", compiled + 1));
            let e = validate_kernels_json(&edited).unwrap_err();
            assert!(e.contains(name) && e.contains(key), "{key}: {e}");
        }
    }

    #[test]
    fn kernels_validator_rejects_missing_batched_section_and_fake_rates() {
        let full = kernels_skeleton();
        let e = validate_kernels_json(&full.replace("\"batched\"", "\"batch\"")).unwrap_err();
        assert!(e.contains("batched"), "{e}");
        let e =
            validate_kernels_json(&full.replace("\"lanes\": 1", "\"lanes\": \"64\"")).unwrap_err();
        assert!(e.contains("lanes"), "{e}");
        let e = validate_kernels_json(
            &full.replace("\"sessions_per_s\": 250.0", "\"sessions_per_s\": 0"),
        )
        .unwrap_err();
        assert!(e.contains("sessions_per_s"), "{e}");
        let e = validate_kernels_json(&full.replace("\"bench\": \"kernels\"", "\"bench\": \"x\""))
            .unwrap_err();
        assert!(e.contains("kernels"), "{e}");
    }

    #[test]
    fn kernels_validator_pins_the_elastic_claims() {
        let full = kernels_skeleton();
        let e = validate_kernels_json(&full.replace("\"elastic\"", "\"elasticity\"")).unwrap_err();
        assert!(e.contains("elastic"), "{e}");
        // Delta payloads that don't beat full payloads are a regression,
        // not a measurement.
        let e = validate_kernels_json(&full.replace(
            "\"full_bytes_per_boundary\": 2",
            "\"full_bytes_per_boundary\": 1",
        ))
        .unwrap_err();
        assert!(e.contains("bytes/boundary"), "{e}");
        // A scale-out that moved nothing measured nothing.
        let e =
            validate_kernels_json(&full.replace("\"migrated_cores\": 1", "\"migrated_cores\": 0"))
                .unwrap_err();
        assert!(e.contains("migrated_cores"), "{e}");
    }

    #[test]
    fn kernels_validator_pins_the_durable_claims() {
        let full = kernels_skeleton();
        let e = validate_kernels_json(&full.replace("\"durable\"", "\"durability\"")).unwrap_err();
        assert!(e.contains("durable"), "{e}");
        // A durable run that committed nothing measured nothing.
        let e = validate_kernels_json(&full.replace("\"generations\": 1", "\"generations\": 0"))
            .unwrap_err();
        assert!(e.contains("generations"), "{e}");
        // Delta generations that don't beat full anchors are a regression.
        let e = validate_kernels_json(&full.replace(
            "\"full_bytes_per_generation\": 2",
            "\"full_bytes_per_generation\": 1",
        ))
        .unwrap_err();
        assert!(e.contains("delta generations"), "{e}");
    }

    #[test]
    fn rejects_missing_section_and_keys() {
        let full = skeleton();
        let e = validate_scaling_json(&full.replace("thread_strong_scaling", "thread_scaling"))
            .unwrap_err();
        assert!(e.contains("thread_strong_scaling"), "{e}");
        let e = validate_scaling_json(&full.replace("\"speedup\": 1", "\"speedup\": \"fast\""))
            .unwrap_err();
        assert!(e.contains("speedup"), "{e}");
        let e = validate_scaling_json(&full.replace("\"version\": 1, ", "")).unwrap_err();
        assert!(e.contains("version"), "{e}");
        let e = validate_scaling_json(&full.replace("\"memory\"", "\"mem\"")).unwrap_err();
        assert!(e.contains("memory"), "{e}");
        let e = validate_scaling_json(
            &full.replace("\"soa_bytes_per_core\": 1", "\"soa_bytes_per_core\": null"),
        )
        .unwrap_err();
        assert!(e.contains("soa_bytes_per_core"), "{e}");
    }
}
