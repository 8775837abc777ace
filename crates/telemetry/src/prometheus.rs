//! Prometheus text-exposition export and a format checker.
//!
//! Counters and gauges render directly; histograms render as Prometheus
//! *summaries* (pre-computed `quantile` series plus `_sum` / `_count`),
//! which matches what the log-linear sketch can answer without retaining
//! raw samples. Families are emitted in metric-name order and series in
//! sorted-label order, and all values go through Rust's deterministic `f64`
//! `Display` (which prints `12.0` as `12`), so same-seed runs are
//! byte-identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{metric_help, LabelSet, MetricsRegistry};
use crate::text::push_u64;

fn push_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Appends a sample line up to its value: `name` + `suffix`, the labels
/// (plus a trailing `quantile` label when given) as `{k="v",...}` — nothing
/// when there are no labels at all — and the separating space.
fn push_series(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &LabelSet,
    quantile: Option<&str>,
) {
    out.push_str(name);
    out.push_str(suffix);
    let quantile = quantile.map(|q| ("quantile", q));
    let mut open = false;
    for (k, v) in labels.iter().map(|(k, v)| (*k, v.as_str())).chain(quantile) {
        out.push(if open { ',' } else { '{' });
        open = true;
        out.push_str(k);
        out.push_str("=\"");
        push_label_value(out, v);
        out.push('"');
    }
    if open {
        out.push('}');
    }
    out.push(' ');
}

/// Appends a float sample value and the line end; `f64`'s `Display` prints
/// `12.0` as `12`.
fn push_float_line(out: &mut String, value: f64) {
    writeln!(out, "{value}").expect("writing to a String cannot fail");
}

enum Kind {
    Counter,
    Gauge,
    Summary,
}

/// Renders the registry as Prometheus text exposition (version 0.0.4).
pub fn render(metrics: &mut MetricsRegistry) -> String {
    // Counters, gauges and summaries interleave in one global metric-name
    // order.
    let mut families: BTreeMap<&'static str, Kind> = BTreeMap::new();
    families.extend(metrics.counters.index.keys().map(|n| (*n, Kind::Counter)));
    families.extend(metrics.gauges.index.keys().map(|n| (*n, Kind::Gauge)));
    families.extend(metrics.histograms.index.keys().map(|n| (*n, Kind::Summary)));

    let mut out = String::new();
    for (name, kind) in families {
        let (kind_name, scalars) = match kind {
            Kind::Counter => ("counter", Some(&metrics.counters)),
            Kind::Gauge => ("gauge", Some(&metrics.gauges)),
            Kind::Summary => ("summary", None),
        };
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        out.push_str(metric_help(name));
        out.push_str("\n# TYPE ");
        out.push_str(name);
        out.push(' ');
        out.push_str(kind_name);
        out.push('\n');
        if let Some(scalars) = scalars {
            for (labels, &cell) in &scalars.index[name] {
                push_series(&mut out, name, "", labels, None);
                push_u64(&mut out, scalars.cells[cell]);
                out.push('\n');
            }
            continue;
        }
        for (labels, &cell) in &metrics.histograms.index[name] {
            let hist = &mut metrics.histograms.cells[cell];
            for (q, qs) in [(50.0, "0.5"), (90.0, "0.9"), (99.0, "0.99")] {
                push_series(&mut out, name, "", labels, Some(qs));
                push_float_line(&mut out, hist.percentile(q));
            }
            let count = hist.len();
            push_series(&mut out, name, "_sum", labels, None);
            push_float_line(&mut out, hist.mean() * count as f64);
            push_series(&mut out, name, "_count", labels, None);
            push_u64(&mut out, count as u64);
            out.push('\n');
        }
    }
    out
}

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Extracts the metric name from a sample line (`name{...} value` or
/// `name value`).
fn sample_name(line: &str) -> Option<&str> {
    let end = line.find(['{', ' '])?;
    Some(&line[..end])
}

/// Checks that `text` is plausible Prometheus text exposition: every line
/// is a comment, blank, or sample; every `# TYPE` kind is known; every
/// sample belongs to a family with a preceding `# TYPE`; and every sample
/// value parses as a float. Returns the first problem found.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    for (no, line) in text.lines().enumerate() {
        let no = no + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            if !is_valid_metric_name(name) {
                return Err(format!("line {no}: bad metric name in TYPE: {name:?}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                return Err(format!("line {no}: unknown TYPE kind: {kind:?}"));
            }
            if typed.contains_key(name) {
                return Err(format!("line {no}: duplicate TYPE for {name}"));
            }
            typed.insert(name.to_owned(), kind.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free comment
        }
        let name = sample_name(line)
            .ok_or_else(|| format!("line {no}: malformed sample line: {line:?}"))?;
        if !is_valid_metric_name(name) {
            return Err(format!("line {no}: bad metric name: {name:?}"));
        }
        let base = name
            .strip_suffix("_sum")
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| typed.contains_key(*b))
            .unwrap_or(name);
        if !typed.contains_key(base) {
            return Err(format!("line {no}: sample for {name} precedes its TYPE"));
        }
        let value = line
            .rsplit(' ')
            .next()
            .ok_or_else(|| format!("line {no}: missing value"))?;
        if value.parse::<f64>().is_err() {
            return Err(format!("line {no}: unparseable value: {value:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_sim::Nanos;

    fn sample_registry() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add(
            "vampos_calls_total",
            &[("component", "vfs"), ("direction", "in")],
            4,
        );
        m.counter_add("vampos_full_reboots_total", &[], 1);
        m.gauge_set("vampos_log_bytes_live", &[("component", "vfs")], 512);
        m.observe(
            "vampos_recovery_downtime_us",
            &[("component", "vfs")],
            Nanos::from_micros(42),
        );
        m
    }

    #[test]
    fn rendered_exposition_passes_the_validator() {
        let text = render(&mut sample_registry());
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn families_are_in_global_name_order_with_help_and_type() {
        let text = render(&mut sample_registry());
        let calls = text.find("# TYPE vampos_calls_total counter").unwrap();
        let reboots = text
            .find("# TYPE vampos_full_reboots_total counter")
            .unwrap();
        let bytes = text.find("# TYPE vampos_log_bytes_live gauge").unwrap();
        let downtime = text
            .find("# TYPE vampos_recovery_downtime_us summary")
            .unwrap();
        assert!(calls < reboots && reboots < bytes && bytes < downtime);
        assert!(text.contains("# HELP vampos_calls_total "));
        assert!(text.contains("vampos_calls_total{component=\"vfs\",direction=\"in\"} 4\n"));
        assert!(text.contains("vampos_full_reboots_total 1\n"));
    }

    #[test]
    fn summaries_expose_quantiles_sum_and_count() {
        let text = render(&mut sample_registry());
        assert!(
            text.contains("vampos_recovery_downtime_us{component=\"vfs\",quantile=\"0.5\"} 42\n")
        );
        assert!(text.contains("vampos_recovery_downtime_us_sum{component=\"vfs\"} 42\n"));
        assert!(text.contains("vampos_recovery_downtime_us_count{component=\"vfs\"} 1\n"));
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(
            render(&mut sample_registry()),
            render(&mut sample_registry())
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut m = MetricsRegistry::new();
        m.counter_add("x_total", &[("k", "a\"b\\c\nd")], 1);
        let text = render(&mut m);
        assert!(text.contains("x_total{k=\"a\\\"b\\\\c\\nd\"} 1\n"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_input() {
        assert!(validate_exposition("# TYPE foo banana\n").is_err());
        assert!(
            validate_exposition("foo 1\n").is_err(),
            "sample before TYPE"
        );
        assert!(
            validate_exposition("# TYPE foo counter\nfoo notanumber\n").is_err(),
            "bad value"
        );
        assert!(
            validate_exposition("# TYPE foo counter\n# TYPE foo counter\n").is_err(),
            "duplicate TYPE"
        );
        assert!(validate_exposition("# TYPE 9bad counter\n").is_err());
    }

    #[test]
    fn validator_accepts_sum_and_count_of_declared_summaries() {
        let text = "# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 2\ns_count 1\n";
        validate_exposition(text).unwrap();
    }
}
