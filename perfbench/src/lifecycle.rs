//! `owner_lifecycle` and `owner_resident`: one owner, closed loop,
//! repeated passes over one carrier. A pass parses the ring CSV, builds
//! and marks the scheme, writes the store, serves it, audits it
//! remotely in batches, then stamps one recipient's copy, leaks it
//! whole and accuses. The two workloads differ in how the store is
//! served:
//!
//! - `owner_lifecycle` serves it on the paged plane, through a small
//!   buffer pool, and issues the recipients after the audit. It never
//!   touches the answer cache, the resident plane or stamping.
//! - `owner_resident` issues the recipients first and serves the
//!   store's content from memory with a fingerprinting context and the
//!   answer cache; between start and audit, outside the pass's timing,
//!   a burst of Zipf users loads the cache and the stamping plans.
//!
//! After each pass, outside its timing, the re-marking drill runs for a
//! second on the pass's store, for the commit metrics.

use crate::owner::{self, Ctx};
use crate::report::Metrics;
use crate::trace::{iqm, median, percentile, SpanIndex};
use crate::{carrier, millis, remark, secs, zipf, Options, Samples, WorkloadResult};
use qpwm_fingerprint::{Fingerprinter, MasterSecret};
use qpwm_rng::Rng;
use std::time::{Duration, Instant};

struct Sizes {
    ring: u32,
    recipients: usize,
    frames: usize,
    batch: usize,
    /// Audits per pass on the resident plane, where one takes a fifth
    /// of a second; on the paged plane one takes seconds and runs once.
    resident_audits: usize,
    setup_reps: usize,
    min_passes: usize,
    /// Seconds of the re-marking drill after each pass: 100 updates at
    /// the full pace, enough for a tail with ten samples beyond it.
    drill_seconds: f64,
    drill: remark::Pace,
    /// Seconds of the users' burst in each resident pass.
    burst_seconds: f64,
}

/// How a pass serves its store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// The paged plane: answers read through a buffer pool.
    Paged,
    /// The resident plane, with fingerprinting and the answer cache.
    Resident,
}

const FULL: Sizes = Sizes {
    ring: 65536,
    recipients: 2000,
    frames: 64,
    batch: 64,
    resident_audits: 3,
    setup_reps: 15,
    min_passes: 3,
    drill_seconds: 1.5,
    drill: remark::PACE,
    burst_seconds: 1.0,
};
const SMOKE: Sizes = Sizes {
    ring: 512,
    recipients: 40,
    frames: 8,
    batch: 16,
    resident_audits: 2,
    setup_reps: 2,
    min_passes: 1,
    drill_seconds: 0.2,
    drill: remark::SMOKE_PACE,
    burst_seconds: 0.2,
};

/// What one pass measured.
struct Pass {
    wall: Duration,
    mark: Duration,
    accuse: Duration,
    file_bytes: u64,
    tuples: usize,
    pages: u64,
}

/// Runs the workload; returns the end-to-end metrics, the per-layer
/// samples (traced runs) and the settings.
pub fn run(ctx: &Ctx, opts: &Options, plane: Plane) -> WorkloadResult {
    let sz = if opts.smoke { SMOKE } else { FULL };
    let tr = ctx.tr;
    let audits = match plane {
        Plane::Paged => 1,
        Plane::Resident => sz.resident_audits,
    };
    let path = opts
        .work_dir
        .join("lifecycle.qps")
        .to_string_lossy()
        .into_owned();

    // set-up: qpwm loads the owner's CSV text and parses the rule,
    // several times; the passes load it again each
    let carrier = carrier::ring(sz.ring);
    let mut setup = Vec::new();
    for rep in 0..sz.setup_reps {
        let t = Instant::now();
        std::hint::black_box(owner::load(ctx, 0, owner::PROBE_OP + rep as u64, &carrier)?);
        setup.push(secs(t.elapsed()));
    }
    let config = owner::scheme_config(opts.seed);
    let master = MasterSecret::from_u64(opts.seed ^ 0x5EED_F1E6);

    let mut passes: Vec<Pass> = Vec::new();
    // per audit: seconds to a verdict, median round trip (us), round
    // trips per second
    let mut audit_times: Vec<[f64; 3]> = Vec::new();
    let mut samples = Samples::default();
    let mut service_ms: Vec<(u64, f64)> = Vec::new();
    let mut drills = Vec::new();
    let mut bursts = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    while passes.len() < sz.min_passes || start.elapsed().as_secs_f64() < opts.seconds {
        op += 1;
        // every pass sees the same inputs, so passes differ only by noise
        let mut rng = Rng::seed_from_u64(opts.seed);
        let culprit = rng.gen_range(0..sz.recipients as u64) as usize;
        let (out, wall) = tr.span("lifecycle", 0, op, |root| -> Result<_, String> {
            let m = owner::mark(ctx, root, op, &carrier, &config, &mut rng, &path)?;
            let issue = || -> Result<_, String> {
                let (registry, _) = owner::issue(ctx, root, op, master, sz.recipients)?;
                let (fp, _) = tr.span("fingerprint.new", root, op, |_| {
                    Fingerprinter::new(m.scheme.marking().clone(), m.original().clone())
                });
                Ok((fp, registry))
            };
            let (closing, burst) = match plane {
                Plane::Paged => {
                    let (server, _) = owner::serve_paged(ctx, root, op, &m, sz.frames)?;
                    let closing =
                        owner::close(ctx, root, op, server, audits, sz.batch, &m, culprit, issue)?;
                    (closing, None)
                }
                Plane::Resident => {
                    let (fp, registry) = issue()?;
                    let (server, expect) = zipf::serve_resident(ctx, root, op, &m, &registry, &fp)?;
                    // the users are not the owner: their burst is a span
                    // of its own operation, out of the pass's bill
                    let (burst, users) = tr.span("users", root, owner::PROBE_OP + op, |_| {
                        zipf::burst(ctx, &server, &expect, sz.burst_seconds, opts.seed)
                    });
                    let closing =
                        owner::close(ctx, root, op, server, audits, sz.batch, &m, culprit, || {
                            Ok((fp, registry))
                        })?;
                    (closing, Some((burst?, users)))
                }
            };
            Ok((m, closing, burst))
        });
        let (m, closing, burst) = out?;
        // the users' burst is not the owner's time
        let (wall, burst) = match burst {
            Some((b, users)) => (wall - users, Some(b)),
            None => (wall, None),
        };
        let reference =
            owner::paged_reference(&m.path, &m.scheme, m.original(), &m.message, sz.frames)?;
        for audit in &closing.audits {
            owner::check_audit(ctx, audit, &reference, &m.message);
            audit_times.push([
                secs(audit.total),
                percentile(&audit.rtt_us, 50.0),
                audit.rtt_us.len() as f64 / secs(audit.collect).max(1e-9),
            ]);
        }
        if tr.enabled() {
            samples.extend(owner::probe_build(ctx, op, &m, &config));
            let audit_ms = owner::closing_samples(&mut samples, &m, &closing);
            service_ms.push((op, audit_ms));
        }
        drills.push(remark::drill(
            ctx,
            &m,
            &sz.drill,
            sz.drill_seconds,
            opts.seed,
            op,
        )?);
        bursts.extend(burst);
        passes.push(Pass {
            wall,
            mark: m.mark_time,
            accuse: closing.leak.accuse,
            file_bytes: m.file_bytes,
            tuples: m.n_tuples(),
            pages: m.stat.total_pages,
        });
        owner::remove_store(&path);
    }

    if tr.enabled() {
        let index = SpanIndex::new(tr.spans());
        add_span_samples(&mut samples, &index, &service_ms);
        remark::mixed_samples(&mut samples, &index, &drills);
        burst_samples(&mut samples, &bursts);
    }

    let col = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let audit_col = |k: usize| audit_times.iter().map(|a| a[k]).collect::<Vec<f64>>();
    // each pass's commits: their median moves with the host's slow
    // phases, so it is taken per pass like every other value
    let commits: Vec<Vec<f64>> = drills
        .iter()
        .map(|d| d.updates.iter().map(|u| millis(u.total)).collect())
        .collect();
    let last = passes.last().expect("at least one pass");
    // each time and rate is the interquartile mean over passes, or
    // over audits
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup));
    metrics.set("mark_s", iqm(&col(&|p| secs(p.mark))));
    metrics.set("detect_s", iqm(&audit_col(0)));
    metrics.set("accuse_s", iqm(&col(&|p| secs(p.accuse))));
    metrics.set("lifecycle_s", iqm(&col(&|p| secs(p.wall))));
    metrics.set(
        "store_bytes_per_tuple",
        last.file_bytes as f64 / last.tuples as f64,
    );
    metrics.set("read_p50_us", iqm(&audit_col(1)));
    metrics.set("max_rps", iqm(&audit_col(2)));
    let per_pass: Vec<f64> = commits.iter().map(|c| percentile(c, 50.0)).collect();
    metrics.set("commit_p50_ms", iqm(&per_pass));

    let mut settings = vec![
        (
            "carrier",
            format!("ring n={}, q($u; v) :- R($u, v), weights 100+3i", sz.ring),
        ),
        ("scheme", "rho=1 d=1 greedy".to_owned()),
        ("server_shards", "1".to_owned()),
        ("batch", sz.batch.to_string()),
        ("audits_per_pass", audits.to_string()),
        ("audits", audit_times.len().to_string()),
        ("registry_size", sz.recipients.to_string()),
        ("store_pages", last.pages.to_string()),
        ("passes", passes.len().to_string()),
        ("setup_reps", sz.setup_reps.to_string()),
        ("drill_seconds_per_pass", sz.drill_seconds.to_string()),
        ("drill_reader_frames", sz.drill.frames.to_string()),
        ("drill_read_rate_rps", sz.drill.read_rate.to_string()),
        (
            "drill_update_interval_ms",
            sz.drill.update_every.as_millis().to_string(),
        ),
        ("drill_touched_per_update", sz.drill.touched.to_string()),
        (
            "drill_updates",
            commits.iter().map(Vec::len).sum::<usize>().to_string(),
        ),
        ("flush", "fsync per commit, then checkpoint".to_owned()),
    ];
    match plane {
        Plane::Paged => settings.extend([
            ("plane", "paged".to_owned()),
            ("pool_frames", sz.frames.to_string()),
        ]),
        Plane::Resident => settings.extend([
            ("plane", "resident+fingerprint".to_owned()),
            ("answer_cache_entries", zipf::CACHE_ENTRIES.to_string()),
            ("reference_pool_frames", sz.frames.to_string()),
            ("burst_seconds_per_pass", sz.burst_seconds.to_string()),
            ("burst_conns", format!("{} closed-loop", zipf::CONNS)),
            ("burst_mix", zipf::MIX.to_owned()),
            (
                "burst_requests",
                bursts.iter().map(|b| b.requests).sum::<usize>().to_string(),
            ),
        ]),
    }
    Ok((metrics, samples, settings))
}

/// The users' per-layer samples, one per burst: the answer and plan
/// caches' hit rates, shedding, and (traced) the server's time per
/// request of each endpoint the users call.
fn burst_samples(samples: &mut Samples, bursts: &[zipf::Burst]) {
    let rate = |(hits, misses): (u64, u64)| hits as f64 / (hits + misses).max(1) as f64;
    for b in bursts {
        samples.push("serve.cache_hit_rate", rate(b.cache));
        samples.push("serve.plan_hit_rate", rate(b.plan));
        samples.push("serve.shed", b.shed as f64);
        samples.push("serve.degraded", b.degraded as f64);
        if let Some((answer, aggregate)) = b.service_us {
            samples.push("serve.service_us.answer", answer);
            samples.push("serve.service_us.aggregate", aggregate);
        }
    }
}

/// Per-layer samples that come from the spans: call times (per
/// operation, or per call for the audit's calls, which a resident pass
/// repeats), and the owner's bill, i.e. each layer's self time per
/// lifecycle operation plus what no layer accounts for. The client's
/// round trips include the server's request time, which `/metrics`
/// reports; it is moved from the client's bill to the server's.
pub fn add_span_samples(samples: &mut Samples, index: &SpanIndex, service_ms: &[(u64, f64)]) {
    for (metric, span) in [
        ("csv_db.load_ms", "csv_db.load"),
        ("core.mark_ms", "core.mark"),
        ("store.encode_ms", "store.encode"),
        ("store.create_ms", "store.create"),
        ("serve.start_ms", "serve.start"),
        ("fingerprint.issue_ms", "fingerprint.issue"),
        ("fingerprint.stamp_ms", "fingerprint.stamp"),
    ] {
        for v in index.per_op_ms(span) {
            samples.push(metric, v);
        }
    }
    for (metric, span) in [
        ("core.collect_ms", "core.collect"),
        ("core.extract_ms", "core.extract"),
        ("core.claim_check_ms", "core.claim_check"),
    ] {
        for v in index.per_call_ms(span) {
            samples.push(metric, v);
        }
    }
    for &(op, service) in service_ms {
        let (layers, unattributed) = index.bill_ms(&[op]);
        for (metric, layer) in [
            ("csv_db.self_ms", "csv_db"),
            ("core.self_ms", "core"),
            ("store.self_ms", "store"),
            ("fingerprint.self_ms", "fingerprint"),
        ] {
            samples.push(metric, layers[layer]);
        }
        samples.push("serve.self_ms", layers["serve"] + service);
        samples.push("client.self_ms", (layers["client"] - service).max(0.0));
        samples.push("lifecycle.unattributed_ms", unattributed);
    }
}
