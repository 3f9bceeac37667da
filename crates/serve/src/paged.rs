//! The out-of-core data plane: answers served straight off store pages
//! through each shard's private buffer pool.
//!
//! The resident plane ([`crate::state`]) decodes the whole family at
//! startup and precomputes every response — O(family) RAM. This plane
//! keeps only a [`qpwm_store::ReadView`] per shard: a file handle, a
//! small clock pool, and the blob's string index. A request pins the
//! few pages its answer set lives on, renders the same JSON the
//! resident plane would, and lets the clock hand reclaim the frames.
//! Peak RSS is O(pool frames), independent of the store size.
//!
//! Trade-offs versus the resident plane, surfaced as errors rather than
//! silent slow paths:
//!
//! * parameters resolve by canonical index (`?i=`) only — a label scan
//!   would touch every blob page per request;
//! * `POST /detect` is refused — inline detection materializes the full
//!   observed-weight table, exactly the allocation this plane exists to
//!   avoid (`qpwm store verify --paged` is the out-of-core detector);
//! * fingerprint stamping requires the resident plane (the stamping
//!   templates are precomputed bodies).
//!
//! Pool traffic is published per shard into lock-free [`PoolGauges`]
//! after each request, so `/metrics` can report
//! `qpwm_store_pool_{hits,misses,evictions,pinned}` without reaching
//! into another shard's (single-threaded) view.

use crate::http::{json_escape, json_escape_into};
use qpwm_store::{DiskVfs, ReadView, WalStats};
use qpwm_structures::Element;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration for serving a store through the buffer pool: which
/// page file, how many frames each shard's view may hold, and the WAL
/// counters observed at recovery time (the server is read-only, so they
/// are constants for its lifetime).
#[derive(Debug, Clone)]
pub struct PagedPlane {
    /// Path of the store page file (the `.wal` sibling must be empty —
    /// recovery runs before serving).
    pub path: String,
    /// Buffer-pool frames per shard view; `None` resolves via
    /// `QPWM_POOL_FRAMES` and the size-scaled default.
    pub pool_frames: Option<usize>,
    /// WAL counters captured when the CLI opened (and recovered) the
    /// store, exported verbatim as `qpwm_store_wal_*`.
    pub wal: WalStats,
}

/// Pool counters a shard publishes after each paged request. The view
/// itself is single-threaded; these atomics are the only thing
/// `/metrics` (served by any shard) reads across shard boundaries.
#[derive(Default)]
pub struct PoolGauges {
    /// Page requests satisfied by a resident frame.
    pub hits: AtomicU64,
    /// Page requests that went to disk.
    pub misses: AtomicU64,
    /// Frames reclaimed by the clock hand.
    pub evictions: AtomicU64,
    /// Frames currently pinned (gauge; ~0 between requests).
    pub pinned: AtomicU64,
}

/// One shard's slice of the paged plane: its private read view plus the
/// gauges it exports.
pub struct PagedShard {
    view: RefCell<ReadView>,
    gauges: Arc<PoolGauges>,
}

impl PagedShard {
    /// Opens a fresh view of the store (own file handle, own pool).
    pub fn open(plane: &PagedPlane) -> io::Result<PagedShard> {
        let vfs = DiskVfs::new("");
        let view = ReadView::open(&vfs, &plane.path, plane.pool_frames)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(PagedShard { view: RefCell::new(view), gauges: Arc::new(PoolGauges::default()) })
    }

    /// The gauges this shard publishes (shared with `/metrics`).
    pub fn gauges(&self) -> Arc<PoolGauges> {
        Arc::clone(&self.gauges)
    }

    /// Number of canonical parameters.
    pub fn n_params(&self) -> usize {
        self.view.borrow().n_params()
    }

    /// Resolves `?i=<index>` (the only parameter form the paged plane
    /// accepts — see the module docs).
    pub fn resolve_param(
        &self,
        index: Option<&str>,
        label: Option<&str>,
    ) -> Result<usize, String> {
        let n = self.n_params();
        if let Some(raw) = index {
            let i: usize = raw
                .parse()
                .map_err(|_| format!("i must be a parameter index, got '{raw}'"))?;
            if i >= n {
                return Err(format!("parameter index {i} out of range (domain has {n})"));
            }
            return Ok(i);
        }
        if label.is_some() {
            return Err(
                "paged serving resolves parameters by index only: pass ?i=<index>".into()
            );
        }
        Err("missing parameter: pass ?i=<index>".into())
    }

    /// `GET /answer` body — same wire format as the resident plane's
    /// [`crate::state::ServeData::answer_json`].
    pub fn answer_json(&self, i: usize) -> Result<String, String> {
        let mut view = self.view.borrow_mut();
        let result = render_answer(&mut view, i);
        self.publish(&view);
        result
    }

    /// `GET /aggregate` body: `f(ā) = Σ W(b̄)` over the pinned pages.
    pub fn aggregate_json(&self, i: usize) -> Result<String, String> {
        let mut view = self.view.borrow_mut();
        let result = (|| {
            let label = view.label(i).map_err(stringify)?;
            let pairs = view.answer_pairs(i).map_err(stringify)?;
            let f: i64 = pairs.iter().map(|(_, w)| w).sum();
            let mut out = String::with_capacity(64 + label.len());
            let _ = write!(out, "{{\"param\":{i},\"label\":\"");
            json_escape_into(&mut out, &label);
            let _ = writeln!(out, "\",\"count\":{},\"f\":{f}}}", pairs.len());
            Ok(out)
        })();
        self.publish(&view);
        result
    }

    /// `GET /params` body: the canonical domain, labels read through
    /// the pool.
    pub fn params_json(&self) -> Result<String, String> {
        let mut view = self.view.borrow_mut();
        let result = (|| {
            let n = view.n_params();
            let mut out = String::with_capacity(32 + n * 24);
            out.push_str("{\"params\":[");
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                }
                let label = view.label(i).map_err(stringify)?;
                let _ = write!(out, "{{\"i\":{i},\"label\":\"");
                json_escape_into(&mut out, &label);
                out.push_str("\"}");
            }
            let _ = writeln!(out, "],\"count\":{n}}}");
            Ok(out)
        })();
        self.publish(&view);
        result
    }

    /// `GET /healthz` body (pure meta — no page reads).
    pub fn healthz_json(&self) -> String {
        let view = self.view.borrow();
        format!(
            "{{\"status\":\"ok\",\"query\":\"{}\",\"parameters\":{},\"active_tuples\":{},\"output_arity\":{}}}\n",
            json_escape(view.query_name()),
            view.n_params(),
            view.universe_len(),
            view.output_arity()
        )
    }

    /// Copies the view's pool counters into the shared gauges.
    fn publish(&self, view: &ReadView) {
        let stats = view.pool_stats();
        let pinned = view.pool_pinned();
        self.gauges.hits.store(stats.hits, Ordering::Relaxed);
        self.gauges.misses.store(stats.misses, Ordering::Relaxed);
        self.gauges.evictions.store(stats.evictions, Ordering::Relaxed);
        self.gauges.pinned.store(pinned as u64, Ordering::Relaxed);
    }
}

fn stringify(e: qpwm_store::StoreError) -> String {
    e.to_string()
}

/// Renders one `/answer` body from pinned pages, straight into one
/// buffer. Element names come through the pool too, so a store written
/// with names renders them exactly as the resident plane would.
fn render_answer(view: &mut ReadView, i: usize) -> Result<String, String> {
    let label = view.label(i).map_err(stringify)?;
    let pairs = view.answer_pairs(i).map_err(stringify)?;
    let named = view.has_element_names();
    let mut out = String::with_capacity(64 + label.len() + pairs.len() * 32);
    let _ = write!(out, "{{\"param\":{i},\"label\":\"");
    json_escape_into(&mut out, &label);
    let _ = write!(out, "\",\"count\":{},\"answers\":[", pairs.len());
    for (n, (tuple, w)) in pairs.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str("{\"t\":[");
        push_ids(&mut out, tuple);
        out.push_str("],\"label\":\"");
        if named {
            // escaping each name and joining with ',' equals escaping the
            // joined display string: the separator needs no escape
            for (k, &e) in tuple.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                match view.element_name(e).map_err(stringify)? {
                    Some(name) => json_escape_into(&mut out, &name),
                    None => {
                        let _ = write!(out, "{e}");
                    }
                }
            }
        } else {
            // element ids are digits and commas: nothing to escape
            push_ids(&mut out, tuple);
        }
        let _ = write!(out, "\",\"w\":{w}}}");
    }
    out.push_str("]}\n");
    Ok(out)
}

/// Appends `tuple`'s element ids, comma-separated.
fn push_ids(out: &mut String, tuple: &[Element]) {
    for (k, e) in tuple.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "{e}");
    }
}

/// Sums every shard's gauges for `/metrics`.
pub fn sum_gauges(gauges: &[Arc<PoolGauges>]) -> (u64, u64, u64, u64) {
    let mut totals = (0, 0, 0, 0);
    for g in gauges {
        totals.0 += g.hits.load(Ordering::Relaxed);
        totals.1 += g.misses.load(Ordering::Relaxed);
        totals.2 += g.evictions.load(Ordering::Relaxed);
        totals.3 += g.pinned.load(Ordering::Relaxed);
    }
    totals
}

/// Renders the `qpwm_store_*` section of `/metrics`: pool traffic
/// summed across shard views plus the WAL counters captured at open.
pub fn render_store_metrics(out: &mut String, pool: (u64, u64, u64, u64), wal: &WalStats) {
    let (hits, misses, evictions, pinned) = pool;
    out.push_str("# HELP qpwm_store_pool_hits Store pages served from a resident frame.\n");
    out.push_str("# TYPE qpwm_store_pool_hits counter\n");
    out.push_str(&format!("qpwm_store_pool_hits {hits}\n"));
    out.push_str("# HELP qpwm_store_pool_misses Store page reads that went to disk.\n");
    out.push_str("# TYPE qpwm_store_pool_misses counter\n");
    out.push_str(&format!("qpwm_store_pool_misses {misses}\n"));
    out.push_str("# HELP qpwm_store_pool_evictions Frames reclaimed by the clock hand.\n");
    out.push_str("# TYPE qpwm_store_pool_evictions counter\n");
    out.push_str(&format!("qpwm_store_pool_evictions {evictions}\n"));
    out.push_str("# HELP qpwm_store_pool_pinned Frames currently pinned across shard views.\n");
    out.push_str("# TYPE qpwm_store_pool_pinned gauge\n");
    out.push_str(&format!("qpwm_store_pool_pinned {pinned}\n"));
    out.push_str("# HELP qpwm_store_wal_records WAL records appended, captured at recovery.\n");
    out.push_str("# TYPE qpwm_store_wal_records counter\n");
    out.push_str(&format!("qpwm_store_wal_records {}\n", wal.records));
    out.push_str("# HELP qpwm_store_wal_fsyncs WAL fsyncs issued, captured at recovery.\n");
    out.push_str("# TYPE qpwm_store_wal_fsyncs counter\n");
    out.push_str(&format!("qpwm_store_wal_fsyncs {}\n", wal.fsyncs));
    out.push_str(
        "# HELP qpwm_store_wal_group_commits Batched commit flushes, captured at recovery.\n",
    );
    out.push_str("# TYPE qpwm_store_wal_group_commits counter\n");
    out.push_str(&format!("qpwm_store_wal_group_commits {}\n", wal.group_commits));
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpwm_store::{Store, StoreContent};

    fn sample_store(dir: &std::path::Path) -> String {
        let path = dir.join("plane.qps").to_string_lossy().into_owned();
        let ids: Vec<u32> = (0..6).collect();
        let content = StoreContent {
            tuple_arity: 1,
            param_arity: 1,
            flat: ids.clone(),
            parameters: vec![0, 1, 2],
            offsets: vec![0, 2, 4, 6],
            ids: ids.clone(),
            universe: ids,
            base: (0..6).map(|e| 5 + e).collect(),
            delta: vec![1, -1, 1, -1, 1, -1],
            param_labels: vec!["alpha".into(), "beta".into(), "gamma".into()],
            element_names: (0..6).map(|e| format!("n{e}")).collect(),
            query_name: "q".into(),
        };
        let vfs = DiskVfs::new("");
        drop(Store::create(&vfs, &path, &content).expect("create"));
        path
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qpwm-paged-plane-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn paged_shard_renders_the_resident_formats() {
        let dir = temp_dir("render");
        let path = sample_store(&dir);
        let plane =
            PagedPlane { path, pool_frames: Some(4), wal: WalStats::default() };
        let shard = PagedShard::open(&plane).expect("open");
        assert_eq!(shard.n_params(), 3);
        let answer = shard.answer_json(0).expect("answer");
        assert!(answer.contains("\"label\":\"alpha\""), "{answer}");
        assert!(answer.contains("{\"t\":[0],\"label\":\"n0\",\"w\":6}"), "{answer}");
        assert!(answer.contains("{\"t\":[1],\"label\":\"n1\",\"w\":5}"), "{answer}");
        assert!(answer.ends_with("]}\n"), "{answer}");
        let agg = shard.aggregate_json(0).expect("aggregate");
        assert!(agg.contains("\"f\":11"), "{agg}");
        let params = shard.params_json().expect("params");
        assert!(params.contains("{\"i\":2,\"label\":\"gamma\"}"), "{params}");
        assert!(params.contains("\"count\":3"), "{params}");
        let health = shard.healthz_json();
        assert!(health.contains("\"parameters\":3"), "{health}");
        assert!(health.contains("\"active_tuples\":6"), "{health}");

        assert_eq!(shard.resolve_param(Some("1"), None), Ok(1));
        assert!(shard.resolve_param(Some("9"), None).unwrap_err().contains("out of range"));
        assert!(shard.resolve_param(None, Some("alpha")).unwrap_err().contains("index only"));
        assert!(shard.resolve_param(None, None).is_err());

        let gauges = shard.gauges();
        assert!(gauges.misses.load(Ordering::Relaxed) > 0, "reads must hit the pool");
        let mut out = String::new();
        render_store_metrics(&mut out, sum_gauges(&[gauges]), &plane.wal);
        assert!(out.contains("qpwm_store_pool_misses "), "{out}");
        assert!(out.contains("qpwm_store_wal_group_commits 0"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
