//! Point-in-time snapshots, their `subcore-persist` codecs, and the
//! Prometheus text renderer.
//!
//! A [`MetricsSnapshot`] is a self-contained JSON document: one line of
//! a snapshot stream (see [`crate::export`]). Gauges are encoded as
//! `f64` *bits* (a `u64`) so round-trips are exact even for values the
//! decimal rendering would distort. Decoders are tolerant the same way
//! the cache and journal loaders are: corrupt input yields an error,
//! never a panic. (The stream file stamps each line with its layout
//! version: [`crate::export::SNAPSHOT_RECORD`].)

use std::collections::BTreeMap;

use subcore_persist::{Json, JsonCodec, JsonError};

use crate::{bucket_upper_bound, HISTOGRAM_BUCKETS};

/// Bucket counts of one histogram at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered dotted name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wraps on overflow).
    pub sum: u64,
    /// [`HISTOGRAM_BUCKETS`] log₂ bucket counts.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket where the cumulative count first
    /// reaches `q * count` — a conservative quantile estimate with
    /// log₂ resolution. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper_bound(idx);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

impl JsonCodec for HistogramSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("count", Json::Uint(self.count)),
            ("sum", Json::Uint(self.sum)),
            ("buckets", Json::from_u64_list(&self.buckets)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let mut buckets = json.field("buckets")?.as_u64_list()?;
        if buckets.len() > HISTOGRAM_BUCKETS {
            return Err(JsonError {
                msg: format!("histogram has {} buckets, max {HISTOGRAM_BUCKETS}", buckets.len()),
            });
        }
        buckets.resize(HISTOGRAM_BUCKETS, 0);
        Ok(HistogramSnapshot {
            name: json.field("name")?.as_str()?.to_string(),
            count: json.field("count")?.as_u64()?,
            sum: json.field("sum")?.as_u64()?,
            buckets,
        })
    }
}

/// Aggregate duration statistics for one span kind
/// (e.g. `campaign/job/simulate`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanAggSnapshot {
    /// `/`-joined span name chain.
    pub kind: String,
    /// Completed spans of this kind.
    pub count: u64,
    /// Total wall time, microseconds.
    pub total_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
}

impl JsonCodec for SpanAggSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::Str(self.kind.clone())),
            ("count", Json::Uint(self.count)),
            ("total_us", Json::Uint(self.total_us)),
            ("max_us", Json::Uint(self.max_us)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(SpanAggSnapshot {
            kind: json.field("kind")?.as_str()?.to_string(),
            count: json.field("count")?.as_u64()?,
            total_us: json.field("total_us")?.as_u64()?,
            max_us: json.field("max_us")?.as_u64()?,
        })
    }
}

/// A span still running at snapshot time (an in-flight job or phase).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenSpanSnapshot {
    /// `/`-joined span name chain.
    pub kind: String,
    /// `/`-joined display labels (campaign name, `SimKey`, phase).
    pub path: String,
    /// Elapsed wall time so far, microseconds.
    pub elapsed_us: u64,
}

impl JsonCodec for OpenSpanSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::Str(self.kind.clone())),
            ("path", Json::Str(self.path.clone())),
            ("elapsed_us", Json::Uint(self.elapsed_us)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(OpenSpanSnapshot {
            kind: json.field("kind")?.as_str()?.to_string(),
            path: json.field("path")?.as_str()?.to_string(),
            elapsed_us: json.field("elapsed_us")?.as_u64()?,
        })
    }
}

/// A recently completed span with its attribution notes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecordSnapshot {
    /// `/`-joined span name chain.
    pub kind: String,
    /// `/`-joined display labels.
    pub path: String,
    /// Wall-clock duration, microseconds.
    pub dur_us: u64,
    /// Attribution notes in insertion order (`engine_mode`,
    /// `cycles_per_sec`, …).
    pub meta: Vec<(String, String)>,
}

impl JsonCodec for SpanRecordSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::Str(self.kind.clone())),
            ("path", Json::Str(self.path.clone())),
            ("dur_us", Json::Uint(self.dur_us)),
            (
                "meta",
                Json::Arr(
                    self.meta
                        .iter()
                        .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let mut meta = Vec::new();
        for pair in json.field("meta")?.as_arr()? {
            let kv = pair.as_arr()?;
            if kv.len() != 2 {
                return Err(JsonError { msg: format!("meta pair has {} items", kv.len()) });
            }
            meta.push((kv[0].as_str()?.to_string(), kv[1].as_str()?.to_string()));
        }
        Ok(SpanRecordSnapshot {
            kind: json.field("kind")?.as_str()?.to_string(),
            path: json.field("path")?.as_str()?.to_string(),
            dur_us: json.field("dur_us")?.as_u64()?,
            meta,
        })
    }
}

/// Everything a registry knows at one instant. One JSON line of a
/// snapshot stream.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic per-registry snapshot number.
    pub seq: u64,
    /// Microseconds since the registry was created.
    pub uptime_us: u64,
    /// `(name, value)` for every registered counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Every registered histogram, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
    /// Per-kind span duration aggregates.
    pub span_aggs: Vec<SpanAggSnapshot>,
    /// Spans still open, oldest first.
    pub open_spans: Vec<OpenSpanSnapshot>,
    /// Recent completions, oldest first (bounded ring).
    pub recent_spans: Vec<SpanRecordSnapshot>,
}

impl MetricsSnapshot {
    /// Value of counter `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Value of gauge `name`, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

fn pairs_to_json<V, F: Fn(&V) -> Json>(pairs: &[(String, V)], enc: F) -> Json {
    Json::Arr(pairs.iter().map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), enc(v)])).collect())
}

fn pairs_from_json<V, F: Fn(&Json) -> Result<V, JsonError>>(
    json: &Json,
    dec: F,
) -> Result<Vec<(String, V)>, JsonError> {
    let mut out = Vec::new();
    for pair in json.as_arr()? {
        let kv = pair.as_arr()?;
        if kv.len() != 2 {
            return Err(JsonError { msg: format!("metric pair has {} items", kv.len()) });
        }
        out.push((kv[0].as_str()?.to_string(), dec(&kv[1])?));
    }
    Ok(out)
}

fn list_from_json<T: JsonCodec>(json: &Json) -> Result<Vec<T>, JsonError> {
    json.as_arr()?.iter().map(T::from_json).collect()
}

impl JsonCodec for MetricsSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::Uint(self.seq)),
            ("uptime_us", Json::Uint(self.uptime_us)),
            ("counters", pairs_to_json(&self.counters, |v| Json::Uint(*v))),
            // f64 bits, not decimal text: exact round-trip.
            ("gauges", pairs_to_json(&self.gauges, |v| Json::Uint(v.to_bits()))),
            ("histograms", Json::Arr(self.histograms.iter().map(JsonCodec::to_json).collect())),
            ("span_aggs", Json::Arr(self.span_aggs.iter().map(JsonCodec::to_json).collect())),
            ("open_spans", Json::Arr(self.open_spans.iter().map(JsonCodec::to_json).collect())),
            ("recent_spans", Json::Arr(self.recent_spans.iter().map(JsonCodec::to_json).collect())),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(MetricsSnapshot {
            seq: json.field("seq")?.as_u64()?,
            uptime_us: json.field("uptime_us")?.as_u64()?,
            counters: pairs_from_json(json.field("counters")?, Json::as_u64)?,
            gauges: pairs_from_json(json.field("gauges")?, |v| Ok(f64::from_bits(v.as_u64()?)))?,
            histograms: list_from_json(json.field("histograms")?)?,
            span_aggs: list_from_json(json.field("span_aggs")?)?,
            open_spans: list_from_json(json.field("open_spans")?)?,
            recent_spans: list_from_json(json.field("recent_spans")?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Prometheus text format
// ---------------------------------------------------------------------------

/// Maps a dotted metric name onto the Prometheus charset: every
/// character outside `[A-Za-z0-9_]` becomes `_`, and the result gains
/// a `subcore_` namespace prefix (`session.cache.hit` →
/// `subcore_session_cache_hit`).
#[must_use]
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("subcore_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format:
/// counters and gauges as single samples, histograms as cumulative
/// `_bucket{le=…}`/`_sum`/`_count` families, span aggregates as
/// `subcore_span_*{span="kind"}` series, plus `subcore_snapshot_seq`
/// and `subcore_uptime_us`.
#[must_use]
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE subcore_snapshot_seq counter");
    let _ = writeln!(out, "subcore_snapshot_seq {}", snap.seq);
    let _ = writeln!(out, "# TYPE subcore_uptime_us gauge");
    let _ = writeln!(out, "subcore_uptime_us {}", snap.uptime_us);
    for (name, value) in &snap.counters {
        let prom = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {prom} counter");
        let _ = writeln!(out, "{prom} {value}");
    }
    for (name, value) in &snap.gauges {
        let prom = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {prom} gauge");
        if value.is_finite() {
            let _ = writeln!(out, "{prom} {value}");
        } else {
            let _ = writeln!(out, "{prom} NaN");
        }
    }
    for hist in &snap.histograms {
        let prom = sanitize_metric_name(&hist.name);
        let _ = writeln!(out, "# TYPE {prom} histogram");
        let last_used = hist.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
        let mut cumulative = 0u64;
        for (idx, &n) in hist.buckets.iter().enumerate().take(last_used + 1) {
            cumulative += n;
            let _ =
                writeln!(out, "{prom}_bucket{{le=\"{}\"}} {cumulative}", bucket_upper_bound(idx));
        }
        let _ = writeln!(out, "{prom}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{prom}_sum {}", hist.sum);
        let _ = writeln!(out, "{prom}_count {}", hist.count);
    }
    if !snap.span_aggs.is_empty() {
        let _ = writeln!(out, "# TYPE subcore_span_count counter");
        let _ = writeln!(out, "# TYPE subcore_span_us_total counter");
        for agg in &snap.span_aggs {
            let label = prom_escape_label(&agg.kind);
            let _ = writeln!(out, "subcore_span_count{{span=\"{label}\"}} {}", agg.count);
            let _ = writeln!(out, "subcore_span_us_total{{span=\"{label}\"}} {}", agg.total_us);
        }
    }
    out
}

fn valid_prom_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn check_sample_line(line: &str) -> Result<(), String> {
    let (series, value) =
        line.rsplit_once(' ').ok_or_else(|| "sample line has no value separator".to_string())?;
    if value.parse::<f64>().is_err() && value != "NaN" && value != "+Inf" && value != "-Inf" {
        return Err(format!("unparseable sample value `{value}`"));
    }
    let name = match series.split_once('{') {
        Some((name, rest)) => {
            if !rest.ends_with('}') {
                return Err(format!("unterminated label block in `{series}`"));
            }
            name
        }
        None => series,
    };
    if !valid_prom_name(name) {
        return Err(format!("invalid metric name `{name}`"));
    }
    Ok(())
}

/// Validates Prometheus exposition text: every line must be blank, a
/// well-formed `# TYPE`/`# HELP` comment, or a `name[{labels}] value`
/// sample with a numeric value. Returns the number of sample lines.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("TYPE") => {
                    let name = words
                        .next()
                        .ok_or_else(|| format!("line {n}: TYPE without metric name"))?;
                    let kind = words
                        .next()
                        .ok_or_else(|| format!("line {n}: TYPE without metric type"))?;
                    if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                        return Err(format!("line {n}: unknown metric type `{kind}`"));
                    }
                    types.insert(name, kind);
                }
                Some("HELP") | Some("EOF") => {}
                _ => return Err(format!("line {n}: malformed comment `{line}`")),
            }
            continue;
        }
        check_sample_line(line).map_err(|e| format!("line {n}: {e}"))?;
        samples += 1;
    }
    if samples == 0 {
        return Err("no sample lines".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn busy_snapshot() -> MetricsSnapshot {
        let reg = Registry::new();
        reg.counter("session.cache.hit").inc_by(10);
        reg.counter("session.run").inc_by(12);
        reg.gauge("engine.cycles_per_sec").set(1.5e8);
        reg.gauge("weird.gauge").set(f64::NAN);
        let h = reg.histogram("session.sim.wall_us");
        for v in [0, 1, 7, 900, 40_000] {
            h.observe(v);
        }
        let mut campaign = reg.span("campaign", "fig_test");
        {
            let mut job = campaign.child("job", "deadbeef01234567");
            job.note("engine_mode", "adaptive");
        }
        let _open = campaign.child("job", "feedface89abcdef");
        let snap = reg.snapshot();
        campaign.note("done", "no");
        snap
    }

    #[test]
    fn snapshot_json_round_trips() {
        let snap = busy_snapshot();
        let text = snap.to_json().render();
        let back = MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        // NaN breaks PartialEq; compare the NaN gauge by bits and the
        // rest structurally.
        assert!(back.gauge("weird.gauge").unwrap().is_nan());
        let strip = |mut s: MetricsSnapshot| {
            s.gauges.retain(|(n, _)| n != "weird.gauge");
            s
        };
        assert_eq!(strip(back), strip(snap));
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounds() {
        let h = busy_snapshot().histogram("session.sim.wall_us").cloned().unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.quantile(0.0), 0);
        // 3rd of 5 samples (value 7) lands in bucket 3 → upper bound 7.
        assert_eq!(h.quantile(0.5), 7);
        assert!(h.quantile(1.0) >= 40_000);
        assert_eq!(
            HistogramSnapshot::quantile(
                &HistogramSnapshot {
                    name: "empty".into(),
                    count: 0,
                    sum: 0,
                    buckets: vec![0; HISTOGRAM_BUCKETS]
                },
                0.9
            ),
            0
        );
    }

    #[test]
    fn prometheus_output_validates_and_names_are_sane() {
        let snap = busy_snapshot();
        let text = render_prometheus(&snap);
        let samples = validate_prometheus(&text).expect("rendered output must validate");
        assert!(samples > 5, "expected several samples, got {samples}");
        assert!(text.contains("subcore_session_cache_hit 10"));
        assert!(text.contains("subcore_session_sim_wall_us_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("subcore_span_count{span=\"campaign/job\"} 1"));
        assert_eq!(sanitize_metric_name("engine.cycles_per_sec"), "subcore_engine_cycles_per_sec");
    }

    #[test]
    fn prometheus_validator_rejects_garbage() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("just some words\n").is_err());
        assert!(validate_prometheus("ok_name notanumber\n").is_err());
        assert!(validate_prometheus("# TYPE x flavor\nx 1\n").is_err());
        assert!(validate_prometheus("9leading_digit 1\n").is_err());
        assert!(validate_prometheus("ok_name 1\n").is_ok());
    }

    #[test]
    fn corrupt_snapshot_json_errors_without_panic() {
        let good = busy_snapshot().to_json().render();
        for cut in [0, 5, good.len() / 2, good.len().saturating_sub(3)] {
            let _ = Json::parse(&good[..cut]).map(|j| MetricsSnapshot::from_json(&j));
        }
        let wrong = Json::parse("{\"seq\":1}").unwrap();
        assert!(MetricsSnapshot::from_json(&wrong).is_err());
    }
}
