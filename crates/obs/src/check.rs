//! Schema validators behind `sfr obs-check`.
//!
//! Line-by-line structural validation of the JSONL trace, the run
//! manifest, and the Prometheus metrics export — so CI can prove the
//! artifacts a campaign emitted are well-formed without hauling in an
//! external toolchain.

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// What a valid trace contained, for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total JSONL lines.
    pub lines: usize,
    /// Balanced span begin/end pairs.
    pub spans: usize,
    /// Spans that ended `aborted`.
    pub aborted_spans: usize,
    /// Grading pack records.
    pub packs: usize,
    /// Fault-simulation chunk records.
    pub chunks: usize,
    /// Quarantine records.
    pub quarantines: usize,
    /// Budget-exhaustion records.
    pub budgets: usize,
    /// Fault-collapsing summary records.
    pub collapses: usize,
    /// Note records.
    pub notes: usize,
}

fn field<'a>(obj: &'a Value, line_no: usize, key: &str) -> Result<&'a Value, String> {
    obj.get(key)
        .ok_or_else(|| format!("line {line_no}: missing field {key:?}"))
}

fn str_field<'a>(obj: &'a Value, line_no: usize, key: &str) -> Result<&'a str, String> {
    field(obj, line_no, key)?
        .as_str()
        .ok_or_else(|| format!("line {line_no}: field {key:?} must be a string"))
}

fn num_field(obj: &Value, line_no: usize, key: &str) -> Result<f64, String> {
    field(obj, line_no, key)?
        .as_num()
        .ok_or_else(|| format!("line {line_no}: field {key:?} must be a number"))
}

/// A count: a finite, non-negative integer below 2^64. JSON numbers are
/// `f64`, and `as` casts saturate (NaN and negatives become 0), so a
/// count is checked before it is converted.
fn count_field(obj: &Value, line_no: usize, key: &str) -> Result<u64, String> {
    let n = num_field(obj, line_no, key)?;
    if n >= 0.0 && n.fract() == 0.0 && n < 18_446_744_073_709_551_616.0 {
        Ok(n as u64)
    } else {
        Err(format!(
            "line {line_no}: field {key:?} must be a non-negative integer, got {n}"
        ))
    }
}

fn bool_field(obj: &Value, line_no: usize, key: &str) -> Result<bool, String> {
    field(obj, line_no, key)?
        .as_bool()
        .ok_or_else(|| format!("line {line_no}: field {key:?} must be a boolean"))
}

fn id_list(obj: &Value, line_no: usize, key: &str) -> Result<usize, String> {
    let arr = field(obj, line_no, key)?
        .as_arr()
        .ok_or_else(|| format!("line {line_no}: field {key:?} must be an array"))?;
    for v in arr {
        if v.as_str().is_none() {
            return Err(format!("line {line_no}: {key:?} entries must be strings"));
        }
    }
    Ok(arr.len())
}

fn opt_str(obj: &Value, line_no: usize, key: &str) -> Result<(), String> {
    match field(obj, line_no, key)? {
        Value::Null | Value::Str(_) => Ok(()),
        _ => Err(format!(
            "line {line_no}: field {key:?} must be a string or null"
        )),
    }
}

/// Validate a JSONL trace: every line parses, every event type is
/// known and carries its required fields, and span begin/end events
/// balance per phase (no end without a begin, none left open).
pub fn check_trace(text: &str) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let mut open_spans: BTreeMap<String, usize> = BTreeMap::new();
    let mut started = false;
    let mut ended = false;
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            return Err(format!("line {line_no}: blank line in trace"));
        }
        let v = json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        if ended {
            return Err(format!("line {line_no}: data after trace_end"));
        }
        let ev = str_field(&v, line_no, "ev")?;
        if !started && ev != "trace_start" {
            return Err(format!("line {line_no}: trace must begin with trace_start"));
        }
        stats.lines += 1;
        match ev {
            "trace_start" => {
                if started {
                    return Err(format!("line {line_no}: duplicate trace_start"));
                }
                started = true;
                let version = num_field(&v, line_no, "version")?;
                if version != f64::from(crate::trace::TRACE_VERSION) {
                    return Err(format!(
                        "line {line_no}: unsupported trace version {version}"
                    ));
                }
            }
            "trace_end" => {
                num_field(&v, line_no, "t_ms")?;
                ended = true;
            }
            "span_begin" => {
                let phase = str_field(&v, line_no, "phase")?;
                num_field(&v, line_no, "t_ms")?;
                *open_spans.entry(phase.to_string()).or_insert(0) += 1;
            }
            "span_end" => {
                let phase = str_field(&v, line_no, "phase")?;
                num_field(&v, line_no, "ms")?;
                if bool_field(&v, line_no, "aborted")? {
                    stats.aborted_spans += 1;
                }
                let open = open_spans
                    .get_mut(phase)
                    .filter(|n| **n > 0)
                    .ok_or_else(|| {
                        format!(
                            "line {line_no}: span_end for {phase:?} without matching span_begin"
                        )
                    })?;
                *open -= 1;
                stats.spans += 1;
            }
            "plan" => {
                str_field(&v, line_no, "phase")?;
                count_field(&v, line_no, "items")?;
            }
            "pack" => {
                count_field(&v, line_no, "pack")?;
                count_field(&v, line_no, "cycles")?;
                bool_field(&v, line_no, "restored")?;
                id_list(&v, line_no, "stalled")?;
                let occupancy = count_field(&v, line_no, "occupancy")?;
                let lanes = field(&v, line_no, "lanes")?
                    .as_arr()
                    .ok_or_else(|| format!("line {line_no}: \"lanes\" must be an array"))?;
                if lanes.len() as u64 != occupancy {
                    return Err(format!(
                        "line {line_no}: occupancy {occupancy} != {} lanes",
                        lanes.len()
                    ));
                }
                for lane in lanes {
                    opt_str(lane, line_no, "fault")?;
                    num_field(lane, line_no, "mean_uw")?;
                    num_field(lane, line_no, "half_width_uw")?;
                    count_field(lane, line_no, "batches")?;
                    bool_field(lane, line_no, "converged")?;
                }
                match lanes.first() {
                    Some(first) if first.get("fault") == Some(&Value::Null) => {}
                    _ => {
                        return Err(format!(
                            "line {line_no}: lane 0 must be the fault-free baseline (fault null)"
                        ))
                    }
                }
                stats.packs += 1;
            }
            "chunk" => {
                count_field(&v, line_no, "chunk")?;
                let faults = id_list(&v, line_no, "faults")?;
                let detected = count_field(&v, line_no, "detected")?;
                let potential = count_field(&v, line_no, "potential")?;
                match detected.checked_add(potential) {
                    Some(flagged) if flagged <= faults as u64 => {}
                    _ => {
                        return Err(format!(
                            "line {line_no}: detected+potential exceeds {faults} chunk faults"
                        ))
                    }
                }
                count_field(&v, line_no, "cycles")?;
                bool_field(&v, line_no, "restored")?;
                stats.chunks += 1;
            }
            "quarantine" => {
                let kind = str_field(&v, line_no, "kind")?;
                if kind != "faultsim" && kind != "grade" {
                    return Err(format!("line {line_no}: unknown quarantine kind {kind:?}"));
                }
                count_field(&v, line_no, "index")?;
                id_list(&v, line_no, "faults")?;
                str_field(&v, line_no, "message")?;
                opt_str(&v, line_no, "journal")?;
                stats.quarantines += 1;
            }
            "budget" => {
                str_field(&v, line_no, "fault")?;
                opt_str(&v, line_no, "journal")?;
                stats.budgets += 1;
            }
            "collapse" => {
                let universe = count_field(&v, line_no, "universe")?;
                let classes = count_field(&v, line_no, "classes")?;
                let merged = count_field(&v, line_no, "merged")?;
                if classes.checked_add(merged) != Some(universe) {
                    return Err(format!(
                        "line {line_no}: classes {classes} + merged {merged} != universe {universe}"
                    ));
                }
                stats.collapses += 1;
            }
            "journal_degraded" => {
                str_field(&v, line_no, "message")?;
            }
            "note" => {
                str_field(&v, line_no, "text")?;
                stats.notes += 1;
            }
            other => return Err(format!("line {line_no}: unknown event type {other:?}")),
        }
    }
    if !started {
        return Err("empty trace (no trace_start)".into());
    }
    if !ended {
        return Err("truncated trace (no trace_end)".into());
    }
    for (phase, open) in open_spans {
        if open > 0 {
            return Err(format!(
                "unbalanced spans: {open} open span(s) for phase {phase:?}"
            ));
        }
    }
    Ok(stats)
}

/// Validate a run manifest: parses as JSON and carries every field the
/// schema requires, with the self-fingerprint consistent.
pub fn check_manifest(text: &str) -> Result<(), String> {
    let v = json::parse(text).map_err(|e| format!("manifest: {e}"))?;
    for key in ["benchmark", "engine"] {
        str_field(&v, 1, key)?;
    }
    for key in ["width", "fault_universe", "threads"] {
        count_field(&v, 1, key)?;
    }
    num_field(&v, 1, "wall_ms")?;
    for key in ["campaign_fingerprint", "fingerprint"] {
        let fp = str_field(&v, 1, key)?;
        let digits = fp
            .strip_prefix("0x")
            .ok_or_else(|| format!("{key} must start 0x"))?;
        u64::from_str_radix(digits, 16).map_err(|_| format!("{key} is not a hex u64: {fp:?}"))?;
    }
    let tallies = field(&v, 1, "tallies")?;
    for key in [
        "total",
        "sfi",
        "cfr",
        "sfr",
        "graded",
        "flagged",
        "pruned",
        "incidents",
    ] {
        count_field(tallies, 1, key)?;
    }
    let config = field(&v, 1, "config")?;
    let config = config.as_obj().ok_or("\"config\" must be an object")?;
    for value in config.values() {
        if value.as_str().is_none() {
            return Err("config values must be strings".into());
        }
    }
    let phases = field(&v, 1, "phases")?
        .as_arr()
        .ok_or("\"phases\" must be an array")?;
    for p in phases {
        str_field(p, 1, "name")?;
        num_field(p, 1, "wall_ms")?;
        bool_field(p, 1, "aborted")?;
    }
    let profile = field(&v, 1, "profile")?;
    for key in [
        "packs_computed",
        "packs_restored",
        "pack_p50_us",
        "pack_p90_us",
        "pack_max_us",
        "mc_batches",
        "tape_ops",
        "tape_levels",
        "tape_force_ops",
    ] {
        count_field(profile, 1, key)?;
    }
    let p50 = count_field(profile, 1, "pack_p50_us")?;
    let p90 = count_field(profile, 1, "pack_p90_us")?;
    let max = count_field(profile, 1, "pack_max_us")?;
    if p50 > p90 || p90 > max {
        return Err(format!(
            "profile pack percentiles not monotone: p50 {p50} / p90 {p90} / max {max}"
        ));
    }
    for key in ["cpu_ms", "git", "journal"] {
        field(&v, 1, key)?;
    }
    Ok(())
}

/// Validate a Prometheus text exposition: every line is a comment
/// (`# HELP` / `# TYPE`) or a `name[{labels}] value` sample with a
/// parseable value. Returns the sample count.
pub fn check_metrics(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if !comment.starts_with("HELP ") && !comment.starts_with("TYPE ") {
                return Err(format!("metrics line {line_no}: unknown comment form"));
            }
            continue;
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("metrics line {line_no}: no sample value"))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("metrics line {line_no}: bad value {value:?}"))?;
        let name = name_part.split('{').next().unwrap_or(name_part);
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("metrics line {line_no}: bad metric name {name:?}"));
        }
        if name_part.contains('{') && !name_part.ends_with('}') {
            return Err(format!("metrics line {line_no}: unclosed label set"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("metrics file contains no samples".into());
    }
    Ok(samples)
}

/// Validate a machine-readable lint report (`sfr lint --format json`):
/// tool tag, per-diagnostic shape (rule id, known severity, subject,
/// message), and severity counts consistent with the diagnostics array.
/// Returns the diagnostic count.
pub fn check_diagnostics(text: &str) -> Result<usize, String> {
    let v = json::parse(text).map_err(|e| format!("diagnostics: {e}"))?;
    let tool = str_field(&v, 1, "tool")?;
    if tool != "sfr-lint" {
        return Err(format!("unexpected tool tag {tool:?}"));
    }
    str_field(&v, 1, "subject")?;
    let diags = field(&v, 1, "diagnostics")?
        .as_arr()
        .ok_or("\"diagnostics\" must be an array")?;
    let mut tally = [0usize; 3]; // error, warning, info
    for (i, d) in diags.iter().enumerate() {
        let line_no = i + 1;
        str_field(d, line_no, "rule")?;
        str_field(d, line_no, "subject")?;
        str_field(d, line_no, "message")?;
        match str_field(d, line_no, "severity")? {
            "error" => tally[0] += 1,
            "warning" => tally[1] += 1,
            "info" => tally[2] += 1,
            other => {
                return Err(format!("diagnostic {line_no}: unknown severity {other:?}"));
            }
        }
    }
    let counts = field(&v, 1, "counts")?;
    for (key, expected) in [
        ("error", tally[0]),
        ("warning", tally[1]),
        ("info", tally[2]),
    ] {
        let n = count_field(counts, 1, key)?;
        if n != expected as u64 {
            return Err(format!(
                "counts.{key} = {n} but the diagnostics array holds {expected}"
            ));
        }
    }
    Ok(diags.len())
}

/// Validate a static-analysis report (`sfr analyze --format json`):
/// tool tag, universe/class arithmetic, ratio ranges, per-rule static
/// attribution, and simulation-reduction figures.
pub fn check_analysis(text: &str) -> Result<(), String> {
    let v = json::parse(text).map_err(|e| format!("analysis: {e}"))?;
    let tool = str_field(&v, 1, "tool")?;
    if tool != "sfr-analyze" {
        return Err(format!("unexpected tool tag {tool:?}"));
    }
    str_field(&v, 1, "benchmark")?;
    count_field(&v, 1, "width")?;

    let universe = field(&v, 1, "universe")?;
    let uncollapsed = count_field(universe, 1, "uncollapsed")?;
    let enumerated = count_field(universe, 1, "collapsed")?;
    if enumerated > uncollapsed {
        return Err("universe.collapsed exceeds universe.uncollapsed".into());
    }

    let classes = field(&v, 1, "classes")?;
    let count = count_field(classes, 1, "count")?;
    let merged = count_field(classes, 1, "merged")?;
    if count.checked_add(merged) != Some(enumerated) {
        return Err(format!(
            "classes.count {count} + classes.merged {merged} != universe.collapsed {enumerated}"
        ));
    }
    let chain_buffer = count_field(classes, 1, "chain_buffer")?;
    let chain_controlling = count_field(classes, 1, "chain_controlling")?;
    if chain_buffer.checked_add(chain_controlling) != Some(merged) {
        return Err("chain merge attribution does not sum to classes.merged".into());
    }
    let ratio = num_field(classes, 1, "collapse_ratio")?;
    if !(0.0..=1.0).contains(&ratio) {
        return Err(format!("collapse_ratio {ratio} outside [0, 1]"));
    }
    count_field(classes, 1, "dominance_pairs")?;

    let stat = field(&v, 1, "static")?;
    let cfr = count_field(stat, 1, "cfr")?;
    let sfr = count_field(stat, 1, "sfr")?;
    let undecided = count_field(stat, 1, "undecided")?;
    if cfr.checked_add(sfr).and_then(|n| n.checked_add(undecided)) != Some(enumerated) {
        return Err("static cfr + sfr + undecided != universe.collapsed".into());
    }
    let by_rule = field(stat, 1, "by_rule")?;
    let rules = by_rule
        .as_obj()
        .ok_or("\"static.by_rule\" must be an object")?;
    for rule in rules.keys() {
        count_field(by_rule, 1, rule)?;
    }

    let simulate = field(&v, 1, "simulate")?;
    for key in ["collapse_only", "static_only", "combined"] {
        let n = count_field(simulate, 1, key)?;
        if n > enumerated {
            return Err(format!("simulate.{key} {n} exceeds the universe"));
        }
    }
    let pct = num_field(simulate, 1, "reduction_pct")?;
    if !(0.0..=100.0).contains(&pct) {
        return Err(format!("reduction_pct {pct} outside [0, 100]"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sfr_exec::Progress as _;

    const GOOD_TRACE: &str = r#"{"ev":"trace_start","version":1}
{"ev":"span_begin","phase":"grade","t_ms":0.1}
{"ev":"plan","phase":"grade","items":1,"t_ms":0.2}
{"ev":"pack","pack":0,"occupancy":2,"cycles":90,"ms":1.5,"restored":false,"stalled":[],"lanes":[{"fault":null,"mean_uw":100.0,"half_width_uw":2.0,"batches":4,"converged":true},{"fault":"g1.out/sa0","mean_uw":104.0,"half_width_uw":2.1,"batches":4,"converged":true}],"t_ms":1.9}
{"ev":"span_end","phase":"grade","ms":2.0,"aborted":false,"t_ms":2.1}
{"ev":"trace_end","t_ms":2.2}"#;

    #[test]
    fn accepts_good_trace() {
        let stats = check_trace(GOOD_TRACE).expect("valid");
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.packs, 1);
        assert_eq!(stats.aborted_spans, 0);
    }

    #[test]
    fn rejects_unbalanced_spans() {
        let truncated = GOOD_TRACE.replace(
            "{\"ev\":\"span_end\",\"phase\":\"grade\",\"ms\":2.0,\"aborted\":false,\"t_ms\":2.1}\n",
            "",
        );
        let err = check_trace(&truncated).expect_err("unbalanced");
        assert!(err.contains("open span"), "{err}");
    }

    #[test]
    fn rejects_end_without_begin_and_unknown_events() {
        let orphan = "{\"ev\":\"trace_start\",\"version\":1}\n{\"ev\":\"span_end\",\"phase\":\"grade\",\"ms\":1.0,\"aborted\":false,\"t_ms\":1.0}\n{\"ev\":\"trace_end\",\"t_ms\":2.0}";
        assert!(check_trace(orphan)
            .expect_err("orphan end")
            .contains("without matching"));
        for ev in ["mystery", "shard"] {
            let unknown = format!("{{\"ev\":\"trace_start\",\"version\":1}}\n{{\"ev\":\"{ev}\"}}\n{{\"ev\":\"trace_end\",\"t_ms\":2.0}}");
            assert!(check_trace(&unknown)
                .expect_err("unknown ev")
                .contains("unknown event"));
        }
        assert!(check_trace("").is_err());
    }

    #[test]
    fn rejects_torn_and_truncated_traces() {
        // A trace whose writer was SIGKILLed: no trace_end.
        let torn = "{\"ev\":\"trace_start\",\"version\":1}\n{\"ev\":\"note\",\"text\":\"grade pack 0\",\"t_ms\":0.5}";
        let err = check_trace(torn).expect_err("torn trace rejected");
        assert!(err.contains("truncated"), "{err}");
        // A half-written final line (kill mid-write) fails to parse.
        let half = format!("{torn}\n{{\"ev\":\"note\",\"te");
        assert!(check_trace(&half).is_err());
        // The same content properly footered passes.
        let whole = format!("{torn}\n{{\"ev\":\"trace_end\",\"t_ms\":1.0}}");
        check_trace(&whole).expect("complete trace valid");
        // A note without its text is rejected.
        let bad_note = whole.replace("\"text\":\"grade pack 0\",", "");
        assert!(check_trace(&bad_note)
            .expect_err("bad note")
            .contains("text"));
    }

    /// A one-chunk trace whose single fault has the given tallies.
    fn chunk_trace(detected: &str, potential: &str) -> String {
        format!(
            "{{\"ev\":\"trace_start\",\"version\":1}}\n\
             {{\"ev\":\"chunk\",\"chunk\":0,\"faults\":[\"g1.out/sa0\"],\
             \"detected\":{detected},\"potential\":{potential},\"cycles\":9,\"ms\":0.1,\
             \"restored\":false,\"t_ms\":0.2}}\n\
             {{\"ev\":\"trace_end\",\"t_ms\":0.3}}"
        )
    }

    #[test]
    fn rejects_hostile_counts() {
        check_trace(&chunk_trace("1", "0")).expect("one detected fault of one");
        // 2^63 + 2^63 wraps to 0 in a `usize` sum; -1, 0.5 and 1e999
        // (infinity) saturate under an `as` cast.
        for (detected, potential) in [
            ("1e19", "1e19"),
            ("9223372036854775808", "9223372036854775808"),
            ("1", "-1"),
            ("0.5", "0.5"),
            ("1e999", "0"),
            ("18446744073709551616", "0"),
        ] {
            let err = check_trace(&chunk_trace(detected, potential))
                .expect_err("hostile chunk tallies are refused");
            assert!(
                err.starts_with("line 2:"),
                "{detected} + {potential}: {err}"
            );
        }
        for occupancy in ["2.5", "-2", "1e19", "-0.5"] {
            let pack = GOOD_TRACE.replace("\"occupancy\":2", &format!("\"occupancy\":{occupancy}"));
            assert!(check_trace(&pack).is_err(), "occupancy {occupancy}");
        }
        let diagnostics = r#"{"tool":"sfr-lint","subject":"poly","diagnostics":[],
            "counts":{"error":0,"warning":0,"info":0}}"#;
        assert_eq!(check_diagnostics(diagnostics), Ok(0));
        for count in ["0.5", "-0.5", "1e19", "-1e999"] {
            let hostile = diagnostics.replace("\"info\":0", &format!("\"info\":{count}"));
            assert!(check_diagnostics(&hostile).is_err(), "counts.info {count}");
        }
    }

    #[test]
    fn counts_aborted_spans() {
        let aborted = GOOD_TRACE.replace(
            "\"aborted\":false,\"t_ms\":2.1",
            "\"aborted\":true,\"t_ms\":2.1",
        );
        let stats = check_trace(&aborted).expect("still balanced");
        assert_eq!(stats.aborted_spans, 1);
    }

    #[test]
    fn validates_manifest_shape() {
        let m = crate::manifest::RunManifest {
            benchmark: "poly".into(),
            width: 8,
            campaign_fingerprint: 1,
            fault_universe: 10,
            config: vec![("seed".into(), "7".into())],
            engine: "tape".into(),
            threads: 1,
            tallies: crate::manifest::Tallies::default(),
            phases: vec![],
            profile: crate::manifest::ProfileSection::default(),
            wall_ms: 1.0,
            cpu_ms: None,
            git: None,
            journal: None,
        };
        check_manifest(&m.render_json()).expect("manifest valid");
        assert!(check_manifest("{}").is_err());
        assert!(check_manifest("not json").is_err());
    }

    #[test]
    fn validates_metrics_text() {
        let m = crate::metrics::Metrics::new();
        m.event(sfr_exec::ProgressEvent::FaultGraded { flagged: false });
        let n = check_metrics(&m.render_prometheus()).expect("metrics valid");
        assert!(n > 10);
        assert!(check_metrics("").is_err());
        assert!(check_metrics("bad metric line with no value at all\n").is_err());
        assert!(check_metrics("name notanumber\n").is_err());
    }

    #[test]
    fn validates_diagnostics_json() {
        let good = r#"{"tool":"sfr-lint","subject":"poly","diagnostics":[
            {"rule":"constant-net","severity":"warning","subject":"n3","message":"stuck"},
            {"rule":"dead-state","severity":"info","subject":"s1","message":"slack"}
        ],"counts":{"error":0,"warning":1,"info":1}}"#;
        assert_eq!(check_diagnostics(good), Ok(2));

        let wrong_tool = good.replace("sfr-lint", "sfr-lintx");
        assert!(check_diagnostics(&wrong_tool).is_err());
        let bad_sev = good.replace("\"warning\",", "\"fatal\",");
        assert!(check_diagnostics(&bad_sev).is_err());
        let bad_count = good.replace("\"warning\":1", "\"warning\":2");
        assert!(check_diagnostics(&bad_count).is_err());
        assert!(check_diagnostics("not json").is_err());
    }

    #[test]
    fn validates_analysis_json() {
        let good = r#"{"tool":"sfr-analyze","benchmark":"poly","width":8,
            "universe":{"uncollapsed":120,"collapsed":100},
            "classes":{"count":80,"merged":20,"chain_buffer":12,"chain_controlling":8,
                       "collapse_ratio":0.8,"dominance_pairs":5},
            "static":{"cfr":30,"sfr":10,"undecided":60,"by_rule":{"dead-cone":9,"masked-propagation":2}},
            "simulate":{"collapse_only":80,"static_only":60,"combined":48,"reduction_pct":52.0}}"#;
        check_analysis(good).expect("analysis valid");

        let bad_sum = good.replace("\"count\":80", "\"count\":81");
        assert!(check_analysis(&bad_sum).is_err());
        let bad_static = good.replace("\"undecided\":60", "\"undecided\":61");
        assert!(check_analysis(&bad_static).is_err());
        let bad_ratio = good.replace("\"collapse_ratio\":0.8", "\"collapse_ratio\":1.3");
        assert!(check_analysis(&bad_ratio).is_err());
        let bad_pct = good.replace("52.0", "152.0");
        assert!(check_analysis(&bad_pct).is_err());
        let bad_universe = good.replace("\"collapsed\":100", "\"collapsed\":130");
        assert!(check_analysis(&bad_universe).is_err());
        assert!(check_analysis("{}").is_err());
    }

    /// One valid artifact of every kind the validators read.
    fn valid_artifacts() -> Vec<String> {
        // The chunk line comes first, so a mutation of its counts is
        // not masked by an earlier line's refusal.
        let trace = GOOD_TRACE
            .replace(
                "\"version\":1}\n",
                "\"version\":1}\n{\"ev\":\"chunk\",\"chunk\":0,\"faults\":[\"g1.out/sa0\",\"g2.in1/sa1\"],\
                 \"detected\":1,\"potential\":1,\"cycles\":40,\"ms\":0.3,\"restored\":true,\"t_ms\":0.05}\n",
            )
            .replace(
            "{\"ev\":\"trace_end\"",
            "{\"ev\":\"collapse\",\"universe\":10,\"classes\":7,\"merged\":3,\"t_ms\":2.16}\n\
             {\"ev\":\"quarantine\",\"kind\":\"grade\",\"index\":1,\"faults\":[\"g3.out/sa0\"],\"message\":\"boom\",\"journal\":\"grade/1\",\"t_ms\":2.17}\n\
             {\"ev\":\"budget\",\"fault\":\"g3.out/sa0\",\"journal\":null,\"t_ms\":2.18}\n\
             {\"ev\":\"note\",\"text\":\"n\",\"t_ms\":2.19}\n\
             {\"ev\":\"trace_end\"",
        );
        check_trace(&trace).expect("the rich trace is valid");
        let manifest = crate::manifest::RunManifest {
            benchmark: "poly".into(),
            width: 8,
            campaign_fingerprint: 1,
            fault_universe: 10,
            config: vec![("seed".into(), "7".into())],
            engine: "tape".into(),
            threads: 1,
            tallies: crate::manifest::Tallies {
                total: 10,
                sfr: 2,
                ..Default::default()
            },
            phases: vec![crate::manifest::PhaseTime {
                name: "grade".into(),
                wall_ms: 2.5,
                aborted: false,
            }],
            profile: crate::manifest::ProfileSection {
                packs_computed: 1,
                pack_p50_us: 5,
                pack_p90_us: 6,
                pack_max_us: 7,
                ..Default::default()
            },
            wall_ms: 3.0,
            cpu_ms: Some(2.0),
            git: None,
            journal: Some("j".into()),
        }
        .render_json();
        let metrics = crate::metrics::Metrics::new();
        metrics.event(sfr_exec::ProgressEvent::FaultGraded { flagged: true });
        metrics.event(sfr_exec::ProgressEvent::CyclesSimulated { cycles: 90 });
        let diagnostics = r#"{"tool":"sfr-lint","subject":"poly","diagnostics":[
            {"rule":"constant-net","severity":"warning","subject":"n3","message":"stuck"}
        ],"counts":{"error":0,"warning":1,"info":0}}"#;
        let analysis = r#"{"tool":"sfr-analyze","benchmark":"poly","width":8,
            "universe":{"uncollapsed":120,"collapsed":100},
            "classes":{"count":80,"merged":20,"chain_buffer":12,"chain_controlling":8,
                       "collapse_ratio":0.8,"dominance_pairs":5},
            "static":{"cfr":30,"sfr":10,"undecided":60,"by_rule":{"dead-cone":9}},
            "simulate":{"collapse_only":80,"static_only":60,"combined":48,"reduction_pct":52.0}}"#;
        vec![
            trace,
            manifest,
            metrics.render_prometheus(),
            diagnostics.to_string(),
            analysis.to_string(),
        ]
    }

    /// Numbers a hostile artifact may carry where a count belongs.
    const HOSTILE_NUMBERS: [&str; 10] = [
        "1e19",
        "9223372036854775808",
        "18446744073709551616",
        "-1",
        "-0",
        "0.5",
        "1e999",
        "-1e999",
        "1e-999",
        "0",
    ];

    /// `text` with about half of its numbers replaced by
    /// [`HOSTILE_NUMBERS`], the choices drawn from `seed`.
    fn hostile_numbers(text: &str, mut seed: u64) -> String {
        let bytes = text.as_bytes();
        let mut out = String::with_capacity(text.len());
        let (mut copied, mut i) = (0, 0);
        while i < bytes.len() {
            let in_word = i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
            if !bytes[i].is_ascii_digit() || in_word {
                i += 1;
                continue;
            }
            let end = (i..bytes.len())
                .find(|&j| !matches!(bytes[j], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                .unwrap_or(bytes.len());
            // splitmix64: one draw per number.
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if z & 1 == 1 {
                out.push_str(&text[copied..i]);
                out.push_str(HOSTILE_NUMBERS[(z >> 1) as usize % HOSTILE_NUMBERS.len()]);
                copied = end;
            }
            i = end;
        }
        out.push_str(&text[copied..]);
        out
    }

    /// Runs every validator over `text`; each may refuse it, none may
    /// panic.
    fn validate_all(text: &str) {
        let _ = check_trace(text);
        let _ = check_manifest(text);
        let _ = check_metrics(text);
        let _ = check_diagnostics(text);
        let _ = check_analysis(text);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn validators_never_panic_on_arbitrary_text(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            validate_all(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn validators_never_panic_on_mutated_artifacts(
            seed in any::<u64>(),
            at in any::<usize>(),
            byte in prop_oneof![Just(b'['), Just(b'{'), Just(b'"'), Just(b','), Just(b':'),
                                Just(b'-'), Just(b'9'), Just(b'.'), Just(b'\n'), any::<u8>()],
        ) {
            for text in valid_artifacts() {
                validate_all(&hostile_numbers(&text, seed));
                let mut bytes = text.as_bytes().to_vec();
                bytes[at % text.len()] = byte;
                validate_all(&String::from_utf8_lossy(&bytes));
                validate_all(&String::from_utf8_lossy(&text.as_bytes()[..at % (text.len() + 1)]));
            }
        }
    }
}
