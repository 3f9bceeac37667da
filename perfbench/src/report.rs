//! The metric catalogue, the result line, and the host and settings
//! record printed with every result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// The unit printed with every value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; printed by an untraced run.
pub const END_TO_END: [MetricDef; 10] = [
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
    m("mark_s", "s"),
    m("detect_s", "s"),
    m("accuse_s", "s"),
    m("lifecycle_s", "s"),
    m("store_bytes_per_tuple", "B"),
    m("read_p50_us", "us"),
    m("max_rps", "req/s"),
    m("commit_p50_ms", "ms"),
];

/// Single layers; printed by a traced run. The last ten are the
/// tracing overhead of each end-to-end metric.
pub const PER_LAYER: [MetricDef; 63] = [
    m("csv_db.load_ms", "ms"),
    m("engine.eval_ms", "ms"),
    m("core.typing_ms", "ms"),
    m("core.pairing_ms", "ms"),
    m("core.select_ms", "ms"),
    m("core.mark_ms", "ms"),
    m("core.candidate_pairs", "count"),
    m("core.capacity_bits", "count"),
    m("core.collect_ms", "ms"),
    m("core.extract_ms", "ms"),
    m("core.claim_check_ms", "ms"),
    m("core.remark_plan_us", "us"),
    m("par.eval_speedup", "ratio"),
    m("par.build_speedup", "ratio"),
    m("store.encode_ms", "ms"),
    m("store.create_ms", "ms"),
    m("store.pages", "count"),
    m("store.txn_write_us", "us"),
    m("store.commit_call_ms_p50", "ms"),
    m("store.commit_call_ms_p99", "ms"),
    m("store.wal_bytes_per_txn", "B"),
    m("store.pages_per_txn", "count"),
    m("store.fsyncs_per_txn", "count"),
    m("store.read_service_us_p50", "us"),
    m("store.read_service_us_p99", "us"),
    m("store.reader_pool_hit_rate", "ratio"),
    m("store.reader_misses_per_read", "count"),
    m("store.server_pool_hit_rate", "ratio"),
    m("serve.start_ms", "ms"),
    m("serve.service_us.answer", "us"),
    m("serve.service_us.aggregate", "us"),
    m("serve.service_us.answers", "us"),
    m("serve.cache_hit_rate", "ratio"),
    m("serve.plan_hit_rate", "ratio"),
    m("serve.shed", "count"),
    m("serve.degraded", "count"),
    m("client.round_trip_us_p99", "us"),
    m("client.round_trips", "count"),
    m("client.retries", "count"),
    m("client.reconnects", "count"),
    m("fingerprint.issue_ms", "ms"),
    m("fingerprint.stamp_ms", "ms"),
    m("fingerprint.extract_ms", "ms"),
    m("fingerprint.score_ms", "ms"),
    m("fingerprint.scored", "count"),
    m("fingerprint.gap_log10", "log10"),
    m("csv_db.self_ms", "ms"),
    m("core.self_ms", "ms"),
    m("store.self_ms", "ms"),
    m("serve.self_ms", "ms"),
    m("client.self_ms", "ms"),
    m("fingerprint.self_ms", "ms"),
    m("lifecycle.unattributed_ms", "ms"),
    m("trace.overhead.setup_s", "s"),
    m("trace.overhead.peak_rss_mib", "MiB"),
    m("trace.overhead.mark_s", "s"),
    m("trace.overhead.detect_s", "s"),
    m("trace.overhead.accuse_s", "s"),
    m("trace.overhead.lifecycle_s", "s"),
    m("trace.overhead.store_bytes_per_tuple", "B"),
    m("trace.overhead.read_p50_us", "us"),
    m("trace.overhead.max_rps", "req/s"),
    m("trace.overhead.commit_p50_ms", "ms"),
];

/// Metric values by name, checked against the catalogue.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under a catalogued `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Operations attempted and failed, where a failure is a non-200
/// response, a read or commit error, or a failed output check.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: std::sync::atomic::AtomicU64,
    failed: std::sync::atomic::AtomicU64,
    /// The first few failures, for the log.
    notes: std::sync::Mutex<Vec<String>>,
}

impl Tally {
    /// Counts one operation; `Err` counts it as failed.
    pub fn op(&self, outcome: Result<(), String>) {
        use std::sync::atomic::Ordering::Relaxed;
        self.attempted.fetch_add(1, Relaxed);
        if let Err(why) = outcome {
            self.failed.fetch_add(1, Relaxed);
            let mut notes = self.notes.lock().expect("notes poisoned");
            if notes.len() < 8 {
                notes.push(why);
            }
        }
    }

    /// Counts `attempted` operations of which `failed` failed, without
    /// notes (a bulk read whose failures the library counts itself).
    pub fn bulk(&self, attempted: u64, failed: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.attempted.fetch_add(attempted, Relaxed);
        self.failed.fetch_add(failed, Relaxed);
        if failed > 0 {
            let mut notes = self.notes.lock().expect("notes poisoned");
            if notes.len() < 8 {
                notes.push(format!("{failed} of {attempted} reads failed"));
            }
        }
    }

    /// Counts one operation that is correct iff `ok`.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.op(if ok { Ok(()) } else { Err(what()) });
    }

    /// `(attempted, failed)`.
    pub fn counts(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (self.attempted.load(Relaxed), self.failed.load(Relaxed))
    }

    /// The first recorded failures.
    pub fn notes(&self) -> Vec<String> {
        self.notes.lock().expect("notes poisoned").clone()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with the metrics of `defs` in catalogue order.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics, defs: &[MetricDef]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (k, d) in defs.iter().enumerate() {
        let value = metrics
            .get(d.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        if k > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    out.push_str("}}");
    out
}

/// The host the result was measured on: CPU count, CPU model and kernel
/// release. Results from different hosts are not comparable.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"kernel\": \"{}\"}}",
        json_escape(&model),
        json_escape(&kernel)
    )
}

/// Every explicit setting of a run, as a JSON object.
pub fn settings_json(settings: &[(&str, String)]) -> String {
    let body: Vec<String> = settings
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", json_escape(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_owned();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
