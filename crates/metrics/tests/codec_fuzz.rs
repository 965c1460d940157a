//! Property tests for the snapshot codecs: encode/decode round-trips
//! over randomized registry activity, and stream-loader robustness
//! against arbitrary byte corruption (corruption degrades, never panics).
//! The cross-loader record fuzz in `subcore-experiments` damages every
//! durable record kind at once; this one exercises multi-line streams.

use subcore_metrics::{load_snapshots, MetricsSnapshot, Registry, SnapshotWriter};
use subcore_persist::{Json, JsonCodec};

fn build_snapshot(seed: u64, values: &[u64]) -> MetricsSnapshot {
    let reg = Registry::new();
    reg.counter(&format!("c.fuzz{}", seed % 5)).inc_by(seed % 100_000);
    reg.counter("c.other").inc();
    // Raw bit patterns cover every f64 including NaN and infinities;
    // the codec stores bits, so all of them must survive.
    reg.gauge("g.bits").set(f64::from_bits(seed));
    let h = reg.histogram("h.vals");
    for &v in values {
        h.observe(v);
    }
    let mut campaign = reg.span("campaign", &format!("camp{}", seed % 3));
    campaign.note("seed", seed);
    {
        let mut job = campaign.child("job", &format!("{seed:016x}"));
        job.note("engine_mode", "adaptive");
    }
    let _open = campaign.child("job", "inflight");
    reg.snapshot()
}

proptest::proptest! {
    /// encode → render → parse → decode → re-render is the identity on
    /// the rendered text (text comparison sidesteps NaN != NaN).
    #[test]
    fn snapshot_codec_round_trips(
        seed in proptest::any::<u64>(),
        values in proptest::prop::collection::vec(proptest::any::<u64>(), 1..20),
    ) {
        let snap = build_snapshot(seed, &values);
        let text = snap.to_json().render();
        let parsed = Json::parse(&text).expect("rendered snapshot parses");
        let back = MetricsSnapshot::from_json(&parsed).expect("parsed snapshot decodes");
        assert_eq!(back.to_json().render(), text);
        assert_eq!(back.histogram("h.vals").unwrap().count, values.len() as u64);
    }

    /// Arbitrary byte-mutations of a snapshot stream never panic the
    /// loader: each damaged line is dropped, intact lines survive.
    #[test]
    fn stream_loader_survives_arbitrary_corruption(
        seed in proptest::any::<u64>(),
        edits in proptest::prop::collection::vec(
            (proptest::any::<u16>(), proptest::any::<u8>()),
            1..8,
        ),
    ) {
        let dir = std::env::temp_dir()
            .join(format!("subcore-metrics-fuzz-{seed:x}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = SnapshotWriter::new(&dir, "fuzz");
        writer.push(build_snapshot(seed, &[1, 2, 3])).expect("write stream");
        writer.push(build_snapshot(seed.wrapping_add(1), &[4])).expect("write stream");
        let path = writer.path();
        let mut bytes = std::fs::read(&path).expect("stream written");
        for (pos, val) in edits {
            let i = pos as usize % bytes.len();
            bytes[i] = val;
        }
        std::fs::write(&path, &bytes).expect("rewrite stream");
        // Must not panic; anything it returns decoded cleanly.
        let recovered = load_snapshots(&path);
        assert!(recovered.len() <= 2);
        // Direct decode of the mutilated text must error or succeed, never panic.
        if let Ok(text) = String::from_utf8(bytes) {
            for line in text.lines() {
                if let Ok(json) = Json::parse(line) {
                    let _ = MetricsSnapshot::from_json(&json);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
