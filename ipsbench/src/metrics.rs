//! Named metrics, summary statistics, the result line, and the metric
//! list `BENCHMARK.json` declares.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// Print every metric by name, with its unit.
    pub fn print(&self) {
        for m in &self.0 {
            println!("  {:<30} {} {}", m.name, m.value, m.unit);
        }
    }

    /// The metrics as the result line's `metrics` object.
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives; non-finite values (never expected) become 0 and are caught by
/// the caller's correctness checks.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Median of `values` (0 for an empty list).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentile `p` (0–100) of sorted integer samples. The samples are
/// whole nanoseconds, so many share a value; the value at the target rank
/// is refined by where that rank falls among its ties (the grouped-data
/// estimate, each integer standing for the interval ±0.5 around it).
pub fn percentile_sorted(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let target = (p / 100.0) * sorted.len() as f64;
    let at = (target.ceil() as usize).clamp(1, sorted.len()) - 1;
    let v = sorted[at];
    let below = sorted.partition_point(|&x| x < v);
    let ties = sorted.partition_point(|&x| x <= v) - below;
    f64::from(v) - 0.5 + (target - below as f64).clamp(0.0, ties as f64) / ties as f64
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s metric
/// arrays (`end_to_end` or `per_layer`).
pub fn declared(benchmark_json: &str, array: &str) -> Result<Vec<(String, String)>, String> {
    let start = benchmark_json
        .find(&format!("\"{array}\""))
        .ok_or_else(|| format!("BENCHMARK.json has no `{array}`"))?;
    let rest = &benchmark_json[start..];
    let open = rest.find('[').ok_or("array expected")?;
    let close = rest.find(']').ok_or("unterminated array")?;
    let body = &rest[open + 1..close];
    let mut out = Vec::new();
    for obj in body.split('}').filter(|o| o.contains('{')) {
        let name = string_field(obj, "name").ok_or("metric without name")?;
        let unit = string_field(obj, "unit").ok_or("metric without unit")?;
        out.push((name, unit));
    }
    Ok(out)
}

/// The string value of `"key": "value"` inside one flat JSON object.
fn string_field(obj: &str, key: &str) -> Option<String> {
    let at = obj.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_spreads_ties_over_their_interval() {
        // Ranks 1..=4 hold 10, ranks 5..=8 hold 20: the median rank (4)
        // is the last of the 10s, so the estimate is the top of 10's bin.
        let s = [10, 10, 10, 10, 20, 20, 20, 20];
        assert_eq!(percentile_sorted(&s, 50.0), 10.5);
        assert_eq!(percentile_sorted(&s, 100.0), 20.5);
        assert!((percentile_sorted(&[7], 99.9) - 7.499).abs() < 1e-9);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn declared_reads_names_and_units() {
        let json = r#"{"end_to_end": [
            {"name": "a", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "b", "unit": "1/s", "better": "higher", "bound": 0.2}
        ], "per_layer": [{"name": "c.d", "unit": "count", "better": "lower"}]}"#;
        let e2e = declared(json, "end_to_end").expect("array present");
        assert_eq!(
            e2e,
            vec![("a".into(), "s".into()), ("b".into(), "1/s".into())]
        );
        assert_eq!(
            declared(json, "per_layer").expect("array present"),
            vec![("c.d".to_string(), "count".to_string())]
        );
        assert!(declared(json, "missing").is_err());
    }
}
