//! The qpwm benchmark: two workloads that drive qpwm only through the
//! public functions of its crates, check every output, and report
//! end-to-end metrics (untraced runs) or per-layer metrics (traced
//! runs). See `perfbench/README.md` for the workloads and the metric
//! map.

pub mod carrier;
pub mod lifecycle;
pub mod owner;
pub mod remark;
pub mod report;
pub mod trace;
pub mod zipf;

use report::{Metrics, Tally, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Engine threads every run sets explicitly (the host has two cores).
pub const ENGINE_THREADS: usize = 2;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop passes of the owner's whole lifecycle on one carrier,
    /// served on the paged plane.
    OwnerLifecycle,
    /// The same passes served from memory with fingerprinting, with a
    /// burst of Zipf users per pass.
    OwnerResident,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::OwnerLifecycle, Workload::OwnerResident];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OwnerLifecycle => "owner_lifecycle",
            Workload::OwnerResident => "owner_resident",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A fault injected on purpose, so that the smoke tests can show that
/// the output checks fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Audits check a claim with one bit flipped.
    WrongClaim,
    /// One response body is altered before it is checked.
    CorruptResponse,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Every input is generated from this seed.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny carriers and rates, for the benchmark's own tests.
    pub smoke: bool,
    /// A deliberate fault (tests only).
    pub inject: Option<Inject>,
    /// Where the run writes its stores; removed afterwards.
    pub work_dir: PathBuf,
}

/// What a run produced.
pub struct Outcome {
    /// Every metric measured: end-to-end always, per-layer when traced.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first failures, for the log.
    pub notes: Vec<String>,
    /// Every explicit setting of the run.
    pub settings: Vec<(&'static str, String)>,
}

/// What a workload returns: its end-to-end metrics, its per-layer
/// samples (traced runs) and its settings.
pub type WorkloadResult = Result<(Metrics, Samples, Vec<(&'static str, String)>), String>;

/// Per-layer samples, one per operation; reported as medians.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Adds every `(name, value)`.
    pub fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (k, v) in values {
            self.push(k, v);
        }
    }

    /// The median of every sampled per-layer metric; a metric of a layer
    /// the workload never called reads 0.
    pub fn into_metrics(self, metrics: &mut Metrics) {
        for d in PER_LAYER.iter().filter(|d| !d.name.starts_with("trace.")) {
            let v = self.0.get(d.name).map_or(0.0, |v| trace::median(v));
            metrics.set(d.name, v);
        }
    }
}

/// Runs one workload. A traced run's overhead metrics are left unset:
/// they need an untraced reference run, see [`set_overhead`].
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("{}: {e}", opts.work_dir.display()))?;
    qpwm_par::set_threads(ENGINE_THREADS);
    let tracer = trace::Tracer::new(opts.trace);
    let tally = Tally::default();
    let ctx = owner::Ctx {
        tr: &tracer,
        tally: &tally,
        threads: ENGINE_THREADS,
        inject: opts.inject,
    };
    let result = match opts.workload {
        Workload::OwnerLifecycle => lifecycle::run(&ctx, opts, lifecycle::Plane::Paged),
        Workload::OwnerResident => lifecycle::run(&ctx, opts, lifecycle::Plane::Resident),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let (mut metrics, samples, mut settings) = result?;
    if metrics.get("peak_rss_mib").is_none() {
        metrics.set("peak_rss_mib", report::peak_rss_mib());
    }
    if opts.trace {
        samples.into_metrics(&mut metrics);
    }
    let (attempted, failed) = tally.counts();
    let mut all = vec![
        ("workload", opts.workload.name().to_owned()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("smoke", opts.smoke.to_string()),
        ("engine_threads", ENGINE_THREADS.to_string()),
    ];
    all.append(&mut settings);
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        notes: tally.notes(),
        settings: all,
    })
}

/// Sets each `trace.overhead.<metric>` of a traced outcome to its value
/// minus the untraced `reference` value.
pub fn set_overhead(traced: &mut Metrics, reference: &Metrics) {
    for d in report::END_TO_END {
        let name = PER_LAYER
            .iter()
            .find(|p| p.name.strip_prefix("trace.overhead.") == Some(d.name))
            .expect("an overhead metric per end-to-end metric")
            .name;
        let (t, r) = (
            traced.get(d.name).unwrap_or(0.0),
            reference.get(d.name).unwrap_or(0.0),
        );
        traced.set(name, t - r);
    }
}

/// A duration in seconds.
pub fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

/// A duration in milliseconds.
pub fn millis(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
