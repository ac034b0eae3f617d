//! Hand-rolled, deterministic JSON/CSV rendering for registries and
//! epoch series.
//!
//! No serde in this workspace (it must build offline with zero crates.io
//! dependencies), so this module writes the two formats directly. The
//! output is deterministic by construction — `BTreeMap` iteration order
//! plus shortest-round-trip `f64` formatting — which is what lets the
//! golden-stats tests compare rendered JSON byte-for-byte. JSON is
//! pretty-printed (two-space indent) so goldens diff readably in review.
//!
//! Only *writing* is implemented; nothing in the workspace parses these
//! files back. Consumers are humans, diff tools, and external plotting
//! scripts.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::registry::Registry;
use crate::series::EpochSeries;

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON value. Finite values use Rust's shortest
/// round-trip `{:?}` formatting (always containing a `.` or exponent);
/// non-finite values — which JSON cannot represent — become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn push_map<K: AsRef<str>, V: AsRef<str>>(
    out: &mut String,
    indent: &str,
    entries: impl Iterator<Item = (K, V)>,
) {
    let items: Vec<(K, V)> = entries.collect();
    if items.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    let inner = format!("{indent}  ");
    for (i, (k, v)) in items.iter().enumerate() {
        let _ = write!(
            out,
            "{inner}\"{}\": {}",
            json_escape(k.as_ref()),
            v.as_ref()
        );
        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
    }
    let _ = write!(out, "{indent}}}");
}

fn hist_json(h: &crate::hist::Histogram, indent: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let inner = format!("{indent}  ");
    let _ = writeln!(out, "{inner}\"count\": {},", h.count());
    let _ = writeln!(out, "{inner}\"sum\": {},", h.sum());
    let _ = writeln!(
        out,
        "{inner}\"min\": {},",
        h.min().map_or("null".into(), |v| v.to_string())
    );
    let _ = writeln!(
        out,
        "{inner}\"max\": {},",
        h.max().map_or("null".into(), |v| v.to_string())
    );
    let _ = write!(out, "{inner}\"buckets\": ");
    push_map(
        &mut out,
        &inner,
        h.buckets().map(|(lb, c)| (lb.to_string(), c.to_string())),
    );
    out.push('\n');
    let _ = write!(out, "{indent}}}");
    out
}

/// Renders a full registry as pretty-printed JSON:
/// `{"counters": {..}, "gauges": {..}, "histograms": {..}}`, every map
/// in lexicographic key order. Ends with a trailing newline.
pub fn registry_to_json(reg: &Registry) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"counters\": ");
    push_map(
        &mut out,
        "  ",
        reg.counters().map(|(k, v)| (k, v.to_string())),
    );
    out.push_str(",\n  \"gauges\": ");
    push_map(&mut out, "  ", reg.gauges().map(|(k, v)| (k, json_f64(v))));
    out.push_str(",\n  \"histograms\": ");
    push_map(
        &mut out,
        "  ",
        reg.hists().map(|(k, h)| (k, hist_json(h, "    "))),
    );
    out.push_str("\n}\n");
    out
}

/// Renders an epoch series as pretty-printed JSON:
/// `{"samples": [{"tick": t, "counters": {..}, "gauges": {..}}, ..]}`.
/// Histograms are omitted from series samples (the cumulative registry
/// export carries them); counters and gauges are what epoch plots use.
pub fn series_to_json(series: &EpochSeries) -> String {
    let mut out = String::from("{\n  \"samples\": [");
    let samples = series.samples();
    if samples.is_empty() {
        out.push_str("]\n}\n");
        return out;
    }
    out.push('\n');
    for (i, s) in samples.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"tick\": {},", s.tick);
        out.push_str("      \"counters\": ");
        push_map(
            &mut out,
            "      ",
            s.registry.counters().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str(",\n      \"gauges\": ");
        push_map(
            &mut out,
            "      ",
            s.registry.gauges().map(|(k, v)| (k, json_f64(v))),
        );
        out.push_str("\n    }");
        out.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Escapes a CSV field (quote when it contains a comma, quote, or
/// newline; double embedded quotes).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders an epoch series as CSV: one header row
/// (`tick,<metric>,<metric>,..`) over the union of every counter and
/// gauge name seen in any sample, then one row per sample. Counters
/// absent from a sample render as `0`; gauges absent render empty.
pub fn series_to_csv(series: &EpochSeries) -> String {
    let mut counter_names: BTreeSet<String> = BTreeSet::new();
    let mut gauge_names: BTreeSet<String> = BTreeSet::new();
    for s in series.samples() {
        for (k, _) in s.registry.counters() {
            counter_names.insert(k.to_string());
        }
        for (k, _) in s.registry.gauges() {
            gauge_names.insert(k.to_string());
        }
    }
    let mut out = String::from("tick");
    for name in counter_names.iter().chain(gauge_names.iter()) {
        out.push(',');
        out.push_str(&csv_field(name));
    }
    out.push('\n');
    for s in series.samples() {
        let _ = write!(out, "{}", s.tick);
        for name in &counter_names {
            let _ = write!(out, ",{}", s.registry.counter(name));
        }
        for name in &gauge_names {
            out.push(',');
            if let Some(v) = s.registry.gauge(name) {
                let _ = write!(out, "{v:?}");
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.set_counter("dram.reads", 12);
        r.set_counter("core.hits", 4);
        r.set_gauge("accuracy", 0.75);
        r.hist_mut("lat").record(5);
        r.hist_mut("lat").record(9);
        r
    }

    #[test]
    fn registry_json_is_ordered_and_stable() {
        let json = registry_to_json(&sample_registry());
        let again = registry_to_json(&sample_registry());
        assert_eq!(json, again);
        let core = json.find("core.hits").unwrap();
        let dram = json.find("dram.reads").unwrap();
        assert!(core < dram, "keys must be sorted:\n{json}");
        assert!(json.contains("\"accuracy\": 0.75"), "{json}");
        assert!(json.contains("\"count\": 2"), "{json}");
        assert!(json.contains("\"4\": 1"), "bucket lb 4:\n{json}");
        assert!(json.contains("\"8\": 1"), "bucket lb 8:\n{json}");
        assert!(json.ends_with("}\n"), "{json}");
    }

    #[test]
    fn empty_registry_renders_empty_maps() {
        let json = registry_to_json(&Registry::new());
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"histograms\": {}"), "{json}");
    }

    #[test]
    fn non_finite_gauges_become_null() {
        let mut r = Registry::new();
        r.set_gauge("bad", f64::NAN);
        let json = registry_to_json(&r);
        assert!(json.contains("\"bad\": null"), "{json}");
    }

    #[test]
    fn series_json_lists_every_sample() {
        let mut s = EpochSeries::new();
        s.push(100, sample_registry());
        s.push(200, sample_registry());
        let json = series_to_json(&s);
        assert!(json.contains("\"tick\": 100"), "{json}");
        assert!(json.contains("\"tick\": 200"), "{json}");
        assert_eq!(json.matches("\"counters\"").count(), 2, "{json}");
    }

    #[test]
    fn series_csv_has_union_header_and_defaults() {
        let mut s = EpochSeries::new();
        let mut first = Registry::new();
        first.set_counter("a", 1);
        s.push(10, first);
        let mut second = Registry::new();
        second.set_counter("a", 2);
        second.set_counter("b", 5);
        second.set_gauge("g", 0.5);
        s.push(20, second);
        let csv = series_to_csv(&s);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("tick,a,b,g"));
        assert_eq!(lines.next(), Some("10,1,0,"));
        assert_eq!(lines.next(), Some("20,2,5,0.5"));
    }
}
