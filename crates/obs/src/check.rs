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
                num_field(&v, line_no, "items")?;
            }
            "pack" => {
                num_field(&v, line_no, "pack")?;
                num_field(&v, line_no, "cycles")?;
                bool_field(&v, line_no, "restored")?;
                id_list(&v, line_no, "stalled")?;
                let occupancy = num_field(&v, line_no, "occupancy")?;
                let lanes = field(&v, line_no, "lanes")?
                    .as_arr()
                    .ok_or_else(|| format!("line {line_no}: \"lanes\" must be an array"))?;
                if lanes.len() != occupancy as usize {
                    return Err(format!(
                        "line {line_no}: occupancy {occupancy} != {} lanes",
                        lanes.len()
                    ));
                }
                for lane in lanes {
                    opt_str(lane, line_no, "fault")?;
                    num_field(lane, line_no, "mean_uw")?;
                    num_field(lane, line_no, "half_width_uw")?;
                    num_field(lane, line_no, "batches")?;
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
                num_field(&v, line_no, "chunk")?;
                let faults = id_list(&v, line_no, "faults")?;
                let detected = num_field(&v, line_no, "detected")?;
                let potential = num_field(&v, line_no, "potential")?;
                if detected as usize + potential as usize > faults {
                    return Err(format!(
                        "line {line_no}: detected+potential exceeds {faults} chunk faults"
                    ));
                }
                num_field(&v, line_no, "cycles")?;
                bool_field(&v, line_no, "restored")?;
                stats.chunks += 1;
            }
            "quarantine" => {
                let kind = str_field(&v, line_no, "kind")?;
                if kind != "faultsim" && kind != "grade" {
                    return Err(format!("line {line_no}: unknown quarantine kind {kind:?}"));
                }
                num_field(&v, line_no, "index")?;
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
                let universe = num_field(&v, line_no, "universe")?;
                let classes = num_field(&v, line_no, "classes")?;
                let merged = num_field(&v, line_no, "merged")?;
                if classes + merged != universe {
                    return Err(format!(
                        "line {line_no}: classes {classes} + merged {merged} != universe {universe}"
                    ));
                }
                stats.collapses += 1;
            }
            "journal_degraded" => {
                str_field(&v, line_no, "message")?;
            }
            "shard" => {
                num_field(&v, line_no, "worker")?;
                str_field(&v, line_no, "action")?;
                // "pack" and "lease" are number-or-null (worker-level
                // actions carry neither); "journal" is string-or-null.
                for key in ["pack", "lease"] {
                    match field(&v, line_no, key)? {
                        Value::Null => {}
                        p if p.as_num().is_some() => {}
                        _ => {
                            return Err(format!("line {line_no}: {key:?} must be a number or null"))
                        }
                    }
                }
                opt_str(&v, line_no, "journal")?;
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
    for key in ["width", "fault_universe", "threads", "wall_ms"] {
        num_field(&v, 1, key)?;
    }
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
        num_field(tallies, 1, key)?;
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
        "tape_sparsity_pct",
    ] {
        num_field(profile, 1, key)?;
    }
    let p50 = num_field(profile, 1, "pack_p50_us")?;
    let p90 = num_field(profile, 1, "pack_p90_us")?;
    let max = num_field(profile, 1, "pack_max_us")?;
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
/// span null-or-`[line,col]`, message), and severity counts consistent
/// with the diagnostics array. Returns the diagnostic count.
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
        match field(d, line_no, "span")? {
            Value::Null => {}
            span => {
                let arr = span.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                    format!("diagnostic {line_no}: span must be null or [line, col]")
                })?;
                for half in arr {
                    if half.as_num().is_none() {
                        return Err(format!("diagnostic {line_no}: span halves must be numbers"));
                    }
                }
            }
        }
    }
    let counts = field(&v, 1, "counts")?;
    for (key, expected) in [
        ("error", tally[0]),
        ("warning", tally[1]),
        ("info", tally[2]),
    ] {
        let n = num_field(counts, 1, key)?;
        if n as usize != expected {
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
    num_field(&v, 1, "width")?;

    let universe = field(&v, 1, "universe")?;
    let uncollapsed = num_field(universe, 1, "uncollapsed")?;
    let enumerated = num_field(universe, 1, "collapsed")?;
    if enumerated > uncollapsed {
        return Err("universe.collapsed exceeds universe.uncollapsed".into());
    }

    let classes = field(&v, 1, "classes")?;
    let count = num_field(classes, 1, "count")?;
    let merged = num_field(classes, 1, "merged")?;
    if count + merged != enumerated {
        return Err(format!(
            "classes.count {count} + classes.merged {merged} != universe.collapsed {enumerated}"
        ));
    }
    let chain_buffer = num_field(classes, 1, "chain_buffer")?;
    let chain_controlling = num_field(classes, 1, "chain_controlling")?;
    if chain_buffer + chain_controlling != merged {
        return Err("chain merge attribution does not sum to classes.merged".into());
    }
    let ratio = num_field(classes, 1, "collapse_ratio")?;
    if !(0.0..=1.0).contains(&ratio) {
        return Err(format!("collapse_ratio {ratio} outside [0, 1]"));
    }
    num_field(classes, 1, "dominance_pairs")?;

    let stat = field(&v, 1, "static")?;
    let cfr = num_field(stat, 1, "cfr")?;
    let sfr = num_field(stat, 1, "sfr")?;
    let undecided = num_field(stat, 1, "undecided")?;
    if cfr + sfr + undecided != enumerated {
        return Err("static cfr + sfr + undecided != universe.collapsed".into());
    }
    let by_rule = field(stat, 1, "by_rule")?
        .as_obj()
        .ok_or("\"static.by_rule\" must be an object")?;
    for (rule, n) in by_rule {
        if n.as_num().is_none() {
            return Err(format!("static.by_rule.{rule} must be a number"));
        }
    }

    let simulate = field(&v, 1, "simulate")?;
    for key in ["collapse_only", "static_only", "combined"] {
        let n = num_field(simulate, 1, key)?;
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

/// Validate a flight-recorder report (`sfr report --format json`):
/// tool tag, per-section shapes, monotone latency percentiles, known
/// gap kinds, and the timeline event count consistent with the
/// timeline array. Returns the number of timeline entries.
pub fn check_report(text: &str) -> Result<usize, String> {
    let v = json::parse(text).map_err(|e| format!("report: {e}"))?;
    let tool = str_field(&v, 1, "tool")?;
    if tool != "sfr-report" {
        return Err(format!("unexpected tool tag {tool:?}"));
    }
    for key in ["benchmark", "fingerprint"] {
        opt_str(&v, 1, key)?;
    }
    let traces = field(&v, 1, "traces")?;
    let total = num_field(traces, 1, "total")?;
    let coordinator = num_field(traces, 1, "coordinator")?;
    let worker = num_field(traces, 1, "worker")?;
    if coordinator + worker != total {
        return Err(format!(
            "traces.coordinator {coordinator} + traces.worker {worker} != traces.total {total}"
        ));
    }
    let workers = field(&v, 1, "workers")?
        .as_arr()
        .ok_or("\"workers\" must be an array")?;
    for (i, w) in workers.iter().enumerate() {
        let line_no = i + 1;
        num_field(w, line_no, "worker")?;
        str_field(w, line_no, "label")?;
        for key in [
            "packs_received",
            "packs_sent",
            "stalls",
            "busy_ms",
            "span_ms",
        ] {
            num_field(w, line_no, key)?;
        }
        let util = num_field(w, line_no, "utilization_pct")?;
        if !(0.0..=100.0).contains(&util) {
            return Err(format!(
                "worker {line_no}: utilization_pct {util} outside [0, 100]"
            ));
        }
        bool_field(w, line_no, "torn")?;
    }
    let leases = field(&v, 1, "leases")?;
    let granted = num_field(leases, 1, "granted")?;
    for key in ["merged", "expired", "fenced", "revoked"] {
        let n = num_field(leases, 1, key)?;
        if n > granted {
            return Err(format!("leases.{key} {n} exceeds leases.granted {granted}"));
        }
    }
    for key in ["backoffs", "heartbeats", "churn_pct"] {
        num_field(leases, 1, key)?;
    }
    let packs = field(&v, 1, "packs")?;
    for key in ["computed", "restored", "merged", "unattributed"] {
        num_field(packs, 1, key)?;
    }
    match field(packs, 1, "journaled")? {
        Value::Null => {}
        j if j.as_num().is_some() => {}
        _ => return Err("packs.journaled must be a number or null".into()),
    }
    let p50 = num_field(packs, 1, "latency_p50_ms")?;
    let p90 = num_field(packs, 1, "latency_p90_ms")?;
    let max = num_field(packs, 1, "latency_max_ms")?;
    if p50 > p90 || p90 > max {
        return Err(format!(
            "pack latency percentiles not monotone: p50 {p50} / p90 {p90} / max {max}"
        ));
    }
    let heartbeat = field(&v, 1, "heartbeat")?;
    for key in ["intervals", "mean_ms", "max_ms", "jitter_ms"] {
        num_field(heartbeat, 1, key)?;
    }
    let phases = field(&v, 1, "phases")?
        .as_arr()
        .ok_or("\"phases\" must be an array")?;
    for p in phases {
        str_field(p, 1, "name")?;
        num_field(p, 1, "wall_ms")?;
        bool_field(p, 1, "aborted")?;
    }
    let incidents = field(&v, 1, "incidents")?
        .as_arr()
        .ok_or("\"incidents\" must be an array")?;
    for (i, inc) in incidents.iter().enumerate() {
        str_field(inc, i + 1, "kind")?;
        opt_str(inc, i + 1, "journal")?;
        str_field(inc, i + 1, "detail")?;
    }
    let timeline = field(&v, 1, "timeline")?
        .as_arr()
        .ok_or("\"timeline\" must be an array")?;
    let mut events = 0usize;
    for (i, t) in timeline.iter().enumerate() {
        let line_no = i + 1;
        num_field(t, line_no, "lease")?;
        for key in ["pack", "worker"] {
            match field(t, line_no, key)? {
                Value::Null => {}
                p if p.as_num().is_some() => {}
                _ => {
                    return Err(format!(
                        "timeline {line_no}: {key:?} must be a number or null"
                    ))
                }
            }
        }
        events += id_list(t, line_no, "events")?;
    }
    let declared = num_field(&v, 1, "timeline_events")?;
    if declared as usize != events {
        return Err(format!(
            "timeline_events = {declared} but the timeline holds {events} events"
        ));
    }
    let gaps = field(&v, 1, "gaps")?
        .as_arr()
        .ok_or("\"gaps\" must be an array")?;
    for (i, g) in gaps.iter().enumerate() {
        let line_no = i + 1;
        let kind = str_field(g, line_no, "kind")?;
        if ![
            "unresolved_grant",
            "fenced_zombie",
            "torn_trace",
            "unattributed_pack",
        ]
        .contains(&kind)
        {
            return Err(format!("gap {line_no}: unknown gap kind {kind:?}"));
        }
        str_field(g, line_no, "detail")?;
    }
    Ok(timeline.len())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let unknown = "{\"ev\":\"trace_start\",\"version\":1}\n{\"ev\":\"mystery\"}\n{\"ev\":\"trace_end\",\"t_ms\":2.0}";
        assert!(check_trace(unknown)
            .expect_err("unknown ev")
            .contains("unknown event"));
        assert!(check_trace("").is_err());
    }

    #[test]
    fn rejects_torn_and_truncated_worker_traces() {
        // A worker trace whose writer was SIGKILLed: no trace_end.
        let torn = "{\"ev\":\"trace_start\",\"version\":1}\n{\"ev\":\"shard\",\"worker\":1,\"action\":\"received\",\"pack\":0,\"lease\":9,\"journal\":\"grade/0\",\"t_ms\":0.5}";
        let err = check_trace(torn).expect_err("torn trace rejected");
        assert!(err.contains("truncated"), "{err}");
        // A half-written final line (kill mid-write) fails to parse.
        let half = format!("{torn}\n{{\"ev\":\"shard\",\"wor");
        assert!(check_trace(&half).is_err());
        // The same content properly footered passes, lease and all.
        let whole = format!("{torn}\n{{\"ev\":\"trace_end\",\"t_ms\":1.0}}");
        check_trace(&whole).expect("complete worker trace valid");
        // A lease that is neither number nor null is rejected.
        let bad_lease = whole.replace("\"lease\":9", "\"lease\":\"nine\"");
        assert!(check_trace(&bad_lease)
            .expect_err("bad lease")
            .contains("lease"));
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
            {"rule":"constant-net","severity":"warning","subject":"n3","span":[7,3],"message":"stuck"},
            {"rule":"dead-state","severity":"info","subject":"s1","span":null,"message":"slack"}
        ],"counts":{"error":0,"warning":1,"info":1}}"#;
        assert_eq!(check_diagnostics(good), Ok(2));

        let wrong_tool = good.replace("sfr-lint", "sfr-lintx");
        assert!(check_diagnostics(&wrong_tool).is_err());
        let bad_sev = good.replace("\"warning\",", "\"fatal\",");
        assert!(check_diagnostics(&bad_sev).is_err());
        let bad_span = good.replace("[7,3]", "[7]");
        assert!(check_diagnostics(&bad_span).is_err());
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
}
