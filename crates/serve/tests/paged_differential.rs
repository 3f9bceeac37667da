//! Paged-plane differential tests: a server reading store pages through
//! per-shard buffer pools must emit byte-identical bodies to a resident
//! server over the same family and marked weights — the out-of-core
//! path may change memory behavior, never the wire.

use qpwm_serve::client::{http_get, http_post};
use qpwm_serve::{PagedPlane, ServeData, Server, ServerConfig};
use qpwm_store::paged::LABEL_STRIDE;
use qpwm_store::{DiskVfs, Store, StoreContent, WalStats};
use qpwm_structures::{AnswerFamily, Weights};

struct Planes {
    resident: Server,
    resident_addr: String,
    paged: Server,
    paged_addr: String,
    dir: std::path::PathBuf,
}

/// A small family with labels and element names, served both ways from
/// the same marked weights.
fn planes(tag: &str) -> Planes {
    let params = vec![vec![10u32], vec![11], vec![12]];
    let sets = vec![
        vec![vec![0u32], vec![1]],
        vec![vec![1u32], vec![2], vec![3]],
        vec![vec![3u32]],
    ];
    let labels: Vec<String> = ["alpha", "beta", "gamma"].map(String::from).to_vec();
    let names: Vec<String> = (0..4).map(|e| format!("n{e}")).collect();
    serve_both(tag, AnswerFamily::from_nested(params, &sets), labels, names)
}

/// `3 * LABEL_STRIDE + 5` parameters, each answering two elements,
/// with labels and names of mixed lengths — empty, multi-byte UTF-8,
/// and characters JSON must escape — so label lookups cross string
/// index strides and blob pages.
fn wide_planes(tag: &str) -> Planes {
    let n = 3 * LABEL_STRIDE + 5;
    let params: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![1000 + i]).collect();
    let sets: Vec<Vec<Vec<u32>>> =
        (0..n as u32).map(|i| vec![vec![i], vec![i + 1]]).collect();
    let mixed = |tag: &str, i: usize| match i % 5 {
        0 => String::new(),
        1 => format!("{tag}{i}"),
        2 => format!("{tag}-\u{e9}\u{2192}\u{1d11e}-{i}-{}", "x".repeat(i % 40)),
        3 => format!("{tag} \"quoted\\\t{i}\""),
        _ => format!("{tag}{}", "\u{3b1}".repeat(i % 23)),
    };
    let labels = (0..n).map(|i| mixed("p", i)).collect();
    let names = (0..=n).map(|e| mixed("n", e)).collect();
    serve_both(tag, AnswerFamily::from_nested(params, &sets), labels, names)
}

/// Serves `family` both ways: resident from memory, and paged from a
/// store file written from the same marked weights.
fn serve_both(tag: &str, family: AnswerFamily, labels: Vec<String>, names: Vec<String>) -> Planes {
    let mut base = Weights::new(1);
    let mut marked = Weights::new(1);
    for e in 0..names.len() as u32 {
        base.set(&[e], 50 + e as i64);
        marked.set(&[e], 50 + e as i64 + if e % 2 == 0 { 1 } else { -1 });
    }

    let dir = std::env::temp_dir().join(format!("qpwm-paged-diff-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("served.qps").to_string_lossy().into_owned();
    let content = StoreContent::from_family(
        &family,
        &base,
        &marked,
        labels.clone(),
        names.clone(),
        "edge".into(),
    )
    .expect("content");
    drop(Store::create(&DiskVfs::new(""), &path, &content).expect("create store"));

    let data = ServeData::new(family, marked, labels, Some(names), "edge".into());
    let resident = Server::start(data, ServerConfig::default()).expect("resident server");
    let resident_addr = resident.addr().to_string();

    let empty = ServeData::new(
        AnswerFamily::from_nested(Vec::new(), &[]),
        Weights::new(1),
        Vec::new(),
        None,
        "edge".into(),
    );
    let plane = PagedPlane {
        path,
        pool_frames: Some(4),
        wal: WalStats { records: 3, fsyncs: 2, group_commits: 1 },
    };
    let paged = Server::start(empty, ServerConfig { paged: Some(plane), ..Default::default() })
        .expect("paged server");
    let paged_addr = paged.addr().to_string();
    Planes { resident, resident_addr, paged, paged_addr, dir }
}

impl Planes {
    fn finish(self) {
        self.resident.shutdown();
        self.paged.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn paged_bodies_are_byte_identical_to_resident() {
    let px = planes("bodies");
    for path in
        ["/healthz", "/params", "/answer?i=0", "/answer?i=1", "/answer?i=2", "/aggregate?i=1"]
    {
        let (rs, rb) = http_get(&px.resident_addr, path).expect("resident");
        let (ps, pb) = http_get(&px.paged_addr, path).expect("paged");
        assert_eq!((rs, &rb), (ps, &pb), "{path} diverged between planes");
        assert_eq!(rs, 200, "{path}: {rb}");
    }
    // batch: same NDJSON concatenation, repeats included
    let (rs, rb) = http_post(&px.resident_addr, "/answers", "0 2 0").expect("resident batch");
    let (ps, pb) = http_post(&px.paged_addr, "/answers", "0 2 0").expect("paged batch");
    assert_eq!((rs, &rb), (ps, &pb), "batch diverged");
    assert_eq!(rs, 200, "{rb}");
    // a second round is served from the body cache — still identical
    let (_, again) = http_get(&px.paged_addr, "/answer?i=1").expect("cached");
    let (_, fresh) = http_get(&px.resident_addr, "/answer?i=1").expect("resident");
    assert_eq!(again, fresh, "cache hit changed the body");
    px.finish();
}

#[test]
fn paged_bodies_match_resident_across_label_strides() {
    let px = wide_planes("strides");
    let n = 3 * LABEL_STRIDE + 5;
    for i in [0, LABEL_STRIDE - 1, LABEL_STRIDE, n - 1] {
        for path in [format!("/answer?i={i}"), format!("/aggregate?i={i}")] {
            let (rs, rb) = http_get(&px.resident_addr, &path).expect("resident");
            let (ps, pb) = http_get(&px.paged_addr, &path).expect("paged");
            assert_eq!((rs, &rb), (ps, &pb), "{path} diverged between planes");
            assert_eq!(rs, 200, "{path}: {rb}");
        }
    }
    let (rs, rb) = http_get(&px.resident_addr, "/params").expect("resident params");
    let (ps, pb) = http_get(&px.paged_addr, "/params").expect("paged params");
    assert_eq!((rs, &rb), (ps, &pb), "/params diverged between planes");
    px.finish();
}

#[test]
fn paged_plane_surfaces_its_limits_and_pool_metrics() {
    let px = planes("limits");
    // label resolution is an O(blob) scan — refused, not slow
    let (status, body) = http_get(&px.paged_addr, "/answer?param=alpha").expect("label");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("index only"), "{body}");
    // inline detection would materialize the observed table — refused
    let (status, body) = http_post(&px.paged_addr, "/detect", "anything").expect("detect");
    assert_eq!(status, 501, "{body}");
    assert!(body.contains("store verify"), "{body}");
    // out-of-range index still 400s like the resident plane
    let (status, _) = http_get(&px.paged_addr, "/answer?i=99").expect("range");
    assert_eq!(status, 400);
    // one real answer so the pool has seen traffic
    let (status, _) = http_get(&px.paged_addr, "/answer?i=0").expect("prime");
    assert_eq!(status, 200);

    let (status, metrics) = http_get(&px.paged_addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    for series in [
        "qpwm_store_pool_hits ",
        "qpwm_store_pool_misses ",
        "qpwm_store_pool_evictions ",
        "qpwm_store_pool_pinned 0",
        "qpwm_store_wal_records 3",
        "qpwm_store_wal_fsyncs 2",
        "qpwm_store_wal_group_commits 1",
    ] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }
    let (hits, misses, _, pinned) =
        px.paged.store_pool_totals().expect("paged server exports pool totals");
    assert!(misses > 0, "page reads must go through the pool");
    assert_eq!(pinned, 0, "no frames pinned between requests");
    let _ = hits;
    assert_eq!(px.resident.store_pool_totals(), None, "resident plane has no pool");

    // the resident plane keeps serving labels and /detect-shaped errors
    let (status, _) = http_get(&px.resident_addr, "/answer?param=alpha").expect("resident label");
    assert_eq!(status, 200);
    let (status, metrics) = http_get(&px.resident_addr, "/metrics").expect("resident metrics");
    assert_eq!(status, 200);
    assert!(!metrics.contains("qpwm_store_pool_"), "resident /metrics grew store series");
    px.finish();
}
