//! The owner's phases, shared by both workloads: mark a carrier into a
//! store on disk, serve it, audit the server remotely, and trace a
//! leaked copy to its recipient. Both workloads repeat them as
//! closed-loop passes.

use crate::carrier::Carrier;
use crate::report::Tally;
use crate::trace::{tail, Tracer};
use crate::Inject;
use qpwm_core::detect::{
    AnswerServer, ClaimCheck, DetectionReport, HonestServer, ObservedWeights, Verdict,
    DEFAULT_DELTA,
};
use qpwm_core::local_scheme::{LocalScheme, LocalSchemeConfig, SelectionStrategy};
use qpwm_core::pairing::{classes_ids, s_partition_ids};
use qpwm_fingerprint::{
    accuse, observed_from_pairs, AccuseOutcome, Fingerprinter, KeyRegistry, MasterSecret,
};
use qpwm_logic::datalog::{parse_rule, Rule};
use qpwm_rng::Rng;
use qpwm_serve::client::http_get;
use qpwm_serve::{
    PagedPlane, RemoteServer, RetryPolicy, ServeData, Server, ServerConfig, Timeouts,
    TransportStats,
};
use qpwm_store::{DiskVfs, PagedServer, ReadView, Store, StoreContent, StoreStat};
use qpwm_structures::{AnswerFamily, Element, GaifmanGraph, NeighborhoodTypes, TupleId, Weights};
use qpwm_workloads::csv_db::{load_csv_database, CsvDatabase};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Duration;

/// Operation ids at or above this mark the traced-only probe calls, so
/// that they stay out of the owner's bill.
pub const PROBE_OP: u64 = 1 << 40;

/// What every phase needs: the tracer, the failure tally, the engine
/// thread count, and the fault the smoke tests inject (if any).
pub struct Ctx<'a> {
    /// Times calls; records spans in a traced run.
    pub tr: &'a Tracer,
    /// Attempted and failed operations.
    pub tally: &'a Tally,
    /// Engine threads, set explicitly for every run.
    pub threads: usize,
    /// A deliberate fault, to prove the checks fire.
    pub inject: Option<Inject>,
}

/// A carrier marked into a store on disk.
pub struct Marked {
    /// The loaded CSV database (names, original weights).
    pub db: CsvDatabase,
    /// The parsed rule.
    pub rule: Rule,
    /// The parameter domain, as elements.
    pub domain: Vec<Vec<Element>>,
    /// The Theorem 3 scheme built over the domain.
    pub scheme: LocalScheme,
    /// The embedded message (one bit per pair).
    pub message: Vec<bool>,
    /// The store's page file.
    pub path: String,
    /// The store after creation.
    pub stat: StoreStat,
    /// Page-file bytes.
    pub file_bytes: u64,
    /// From CSV text to the store on disk.
    pub mark_time: Duration,
    /// The `LocalScheme::build_over` call alone.
    pub build_time: Duration,
}

impl Marked {
    /// The owner's original weights.
    pub fn original(&self) -> &Weights {
        self.db.instance.weights()
    }

    /// Tuples in the store.
    pub fn n_tuples(&self) -> usize {
        self.stat.n_tuples
    }
}

/// The scheme configuration every workload marks with: ρ = 1, d = 1,
/// greedy selection, selection order from the run's seed.
pub fn scheme_config(seed: u64) -> LocalSchemeConfig {
    LocalSchemeConfig {
        rho: 1,
        d: 1,
        strategy: SelectionStrategy::Greedy,
        seed,
    }
}

/// Loads `carrier`'s CSV text into a database, parses its rule, and
/// resolves its parameter domain.
pub fn load(
    ctx: &Ctx,
    parent: u64,
    op: u64,
    carrier: &Carrier,
) -> Result<(CsvDatabase, Rule, Vec<Vec<Element>>), String> {
    ctx.tr
        .span("csv_db.load", parent, op, |_| -> Result<_, String> {
            let db = load_csv_database(
                carrier.schema,
                &[(carrier.relation, &carrier.table)],
                Some(&carrier.weights),
            )
            .map_err(|e| format!("loading the carrier CSV: {e}"))?;
            let rule = parse_rule(carrier.rule, db.instance.structure().schema())
                .map_err(|e| format!("parsing {}: {e}", carrier.rule))?;
            let domain = carrier
                .params
                .iter()
                .map(|p| {
                    db.element(p)
                        .map(|e| vec![e])
                        .ok_or_else(|| format!("no element {p}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((db, rule, domain))
        })
        .0
}

/// Marks `carrier` and writes it to a store at `path`: CSV parse,
/// scheme construction, marking, store encode and create. The message
/// bits come from `rng`.
pub fn mark(
    ctx: &Ctx,
    parent: u64,
    op: u64,
    carrier: &Carrier,
    config: &LocalSchemeConfig,
    rng: &mut Rng,
    path: &str,
) -> Result<Marked, String> {
    let tr = ctx.tr;
    let (out, mark_time) = tr.span("mark", parent, op, |id| -> Result<_, String> {
        let (db, rule, domain) = load(ctx, id, op, carrier)?;
        let (scheme, build_time) = tr.span("core.build", id, op, |_| {
            LocalScheme::build_over(&db.instance, &rule.query, domain.clone(), config)
        });
        let scheme = scheme.map_err(|e| format!("building the scheme: {e}"))?;
        let message = crate::carrier::message(scheme.capacity(), rng);
        let (marked, _) = tr.span("core.mark", id, op, |_| {
            scheme.mark(db.instance.weights(), &message)
        });
        let (content, _) = tr.span("store.encode", id, op, |_| {
            let labels: Vec<String> = scheme
                .answers()
                .parameters()
                .iter()
                .map(|a| a.iter().map(|&e| db.name(e)).collect::<Vec<_>>().join(","))
                .collect();
            StoreContent::from_family(
                scheme.answers(),
                db.instance.weights(),
                &marked,
                labels,
                db.names.clone(),
                rule.name.clone(),
            )
        });
        let content = content.map_err(|e| format!("encoding the store: {e}"))?;
        remove_store(path);
        let (stat, _) = tr.span("store.create", id, op, |_| -> Result<_, String> {
            let store = Store::create(&DiskVfs::new(""), path, &content)
                .map_err(|e| format!("creating {path}: {e}"))?;
            Ok(store.stat())
        });
        let stat = stat?;
        Ok((db, rule, domain, scheme, message, stat, build_time))
    });
    let (db, rule, domain, scheme, message, stat, build_time) = out?;
    let file_bytes = std::fs::metadata(path)
        .map_err(|e| format!("{path}: {e}"))?
        .len();
    Ok(Marked {
        db,
        rule,
        domain,
        scheme,
        message,
        path: path.to_owned(),
        stat,
        file_bytes,
        mark_time,
        build_time,
    })
}

/// Deletes a store's page file and WAL, if present.
pub fn remove_store(path: &str) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(qpwm_store::wal_name(path));
}

/// Traced-only probes of the calls `build_over` makes internally, each
/// repeated standalone on the same inputs: evaluation at the run's
/// thread count and at one thread, neighbourhood typing, pairing, and
/// the whole build at one thread. Returns per-layer values in ms, plus
/// the two speed-ups.
pub fn probe_build(
    ctx: &Ctx,
    op: u64,
    m: &Marked,
    config: &LocalSchemeConfig,
) -> BTreeMap<&'static str, f64> {
    let tr = ctx.tr;
    let op = op + PROBE_OP;
    let structure = m.db.instance.structure();
    let mut out = BTreeMap::new();
    let (answers, eval) = tr.span("engine.eval", 0, op, |_| {
        m.rule.query.answers_over(structure, m.domain.clone())
    });
    qpwm_par::set_threads(1);
    let (_, eval_1t) = tr.span("par.eval_1t", 0, op, |_| {
        m.rule.query.answers_over(structure, m.domain.clone())
    });
    let (_, build_1t) = tr.span("par.build_1t", 0, op, |_| {
        LocalScheme::build_over(&m.db.instance, &m.rule.query, m.domain.clone(), config)
    });
    qpwm_par::set_threads(ctx.threads);
    let (census, typing) = tr.span("core.typing", 0, op, |_| {
        let gaifman = GaifmanGraph::of(structure);
        NeighborhoodTypes::classify(
            structure,
            &gaifman,
            config.rho,
            answers.parameters().iter().cloned(),
        )
    });
    let (pairs, pairing) = tr.span("core.pairing", 0, op, |_| {
        let canonical: Vec<&[TupleId]> = (0..census.num_types())
            .map(|t| {
                answers
                    .ids_of(census.representative(t))
                    .expect("representative is in the domain")
            })
            .collect();
        let active = answers.active_universe();
        s_partition_ids(active, &classes_ids(active, &canonical)).len()
    });
    std::hint::black_box(pairs);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    out.insert("engine.eval_ms", ms(eval));
    out.insert("core.typing_ms", ms(typing));
    out.insert("core.pairing_ms", ms(pairing));
    out.insert(
        "core.select_ms",
        (ms(m.build_time) - ms(eval) - ms(typing) - ms(pairing)).max(0.0),
    );
    out.insert("par.eval_speedup", ms(eval_1t) / ms(eval).max(1e-9));
    out.insert(
        "par.build_speedup",
        ms(build_1t) / ms(m.build_time).max(1e-9),
    );
    out
}

/// Starts a one-shard server on the paged plane over `m`'s store.
pub fn serve_paged(
    ctx: &Ctx,
    parent: u64,
    op: u64,
    m: &Marked,
    frames: usize,
) -> Result<(Server, Duration), String> {
    let placeholder = ServeData::new(
        AnswerFamily::from_nested(Vec::new(), &[]),
        Weights::new(1),
        Vec::new(),
        None,
        String::new(),
    );
    let plane = PagedPlane {
        path: m.path.clone(),
        pool_frames: Some(frames),
        wal: m.stat.wal,
    };
    let (server, start) = ctx.tr.span("serve.start", parent, op, |_| {
        Server::start(
            placeholder,
            ServerConfig {
                shards: 1,
                paged: Some(plane),
                ..Default::default()
            },
        )
    });
    let server = server.map_err(|e| format!("starting the paged server: {e}"))?;
    Ok((server, start))
}

/// Stops a server.
pub fn stop(ctx: &Ctx, parent: u64, op: u64, server: Server) -> Duration {
    ctx.tr
        .span("serve.stop", parent, op, |_| server.shutdown())
        .1
}

/// A remote audit's evidence and costs.
pub struct Audit {
    /// The detection report over the server's answers.
    pub report: DetectionReport,
    /// The claim check of the owner's message.
    pub check: ClaimCheck,
    /// Round-trip latency of each batched request, microseconds.
    pub rtt_us: Vec<f64>,
    /// `ObservedWeights::collect` over the server.
    pub collect: Duration,
    /// Connect, collect, extract and claim check.
    pub total: Duration,
    /// The client's transport counters.
    pub transport: TransportStats,
}

/// An [`AnswerServer`] over a [`RemoteServer`] that times each call
/// which goes to the wire: with batch `b`, the detector reads parameters
/// in order, so parameter `i` costs a round trip iff `b` divides `i`.
struct TimedRemote<'a> {
    inner: &'a RemoteServer,
    batch: usize,
    ctx: &'a Ctx<'a>,
    parent: u64,
    op: u64,
    rtt_us: RefCell<Vec<f64>>,
    /// With `Inject::CorruptResponse`: a marked tuple whose weight is
    /// altered in the answers read back.
    corrupt: Option<&'a [Element]>,
}

impl AnswerServer for TimedRemote<'_> {
    fn num_parameters(&self) -> usize {
        self.inner.num_parameters()
    }

    fn answer(&self, i: usize) -> Vec<(Vec<Element>, i64)> {
        let mut out = if i.is_multiple_of(self.batch.max(1)) {
            let (out, d) = self
                .ctx
                .tr
                .span("client.round_trip", self.parent, self.op, |_| {
                    self.inner.answer(i)
                });
            self.rtt_us.borrow_mut().push(d.as_secs_f64() * 1e6);
            out
        } else {
            self.inner.answer(i)
        };
        if let Some(target) = self.corrupt {
            for (_, w) in out.iter_mut().filter(|(t, _)| t.as_slice() == target) {
                *w += 7;
            }
        }
        out
    }
}

/// The claim an audit checks: the owner's message, or (when the smoke
/// tests inject it) the message with its first bit flipped.
fn claim_for(ctx: &Ctx, message: &[bool]) -> Vec<bool> {
    let mut claim = message.to_vec();
    if ctx.inject == Some(Inject::WrongClaim) {
        if let Some(b) = claim.first_mut() {
            *b = !*b;
        }
    }
    claim
}

/// Audits the server at `addr` over HTTP with `batch` parameters per
/// request: collect every answer, extract the pair bits against the
/// original weights, and check the owner's claim.
#[allow(clippy::too_many_arguments)]
pub fn audit(
    ctx: &Ctx,
    parent: u64,
    op: u64,
    addr: &str,
    batch: usize,
    scheme: &LocalScheme,
    original: &Weights,
    message: &[bool],
) -> Result<Audit, String> {
    let tr = ctx.tr;
    let claim = claim_for(ctx, message);
    let (out, total) = tr.span("detect", parent, op, |id| -> Result<_, String> {
        let (remote, _) = tr.span("client.connect", id, op, |_| {
            RemoteServer::connect_batched(addr, Timeouts::default(), RetryPolicy::default(), batch)
        });
        let remote = remote?;
        let (observed, collect) = tr.span("core.collect", id, op, |cid| {
            let corrupt = (ctx.inject == Some(Inject::CorruptResponse))
                .then(|| scheme.marking().pairs().first().map(|p| p.plus.as_slice()))
                .flatten();
            let timed = TimedRemote {
                inner: &remote,
                batch,
                ctx,
                parent: cid,
                op,
                rtt_us: RefCell::new(Vec::new()),
                corrupt,
            };
            let observed = ObservedWeights::collect(&timed);
            (observed, timed.rtt_us.into_inner())
        });
        let (observed, rtt_us) = observed;
        let (report, _) = tr.span("core.extract", id, op, |_| {
            scheme.marking().extract(original, &observed)
        });
        let (check, _) = tr.span("core.claim_check", id, op, |_| {
            report.claim_check(&claim, DEFAULT_DELTA)
        });
        Ok((
            report,
            check,
            rtt_us,
            collect,
            remote.transport_stats(),
            remote.failed_reads(),
            remote.num_parameters(),
        ))
    });
    let (report, check, rtt_us, collect, transport, failed_reads, params) = out?;
    ctx.tally.bulk(params as u64, failed_reads as u64);
    Ok(Audit {
        report,
        check,
        rtt_us,
        collect,
        total,
        transport,
    })
}

/// Checks an audit: the claim must match in full with a `MarkPresent`
/// verdict, and the evidence must equal `reference` — an in-process
/// detection of the same data — bit for bit, score for score.
pub fn check_audit(
    ctx: &Ctx,
    audit: &Audit,
    reference: &(DetectionReport, ClaimCheck),
    message: &[bool],
) {
    let (ref_report, ref_check) = reference;
    ctx.tally.check(
        audit.check.verdict == Verdict::MarkPresent && audit.check.matches == audit.check.claimed,
        || {
            format!(
                "claim check {}/{} ({:?})",
                audit.check.matches, audit.check.claimed, audit.check.verdict
            )
        },
    );
    ctx.tally
        .check(audit.report.bits.as_slice() == message, || {
            "the message was not recovered bit for bit".into()
        });
    ctx.tally.check(
        audit.report.bits == ref_report.bits
            && audit.report.scores == ref_report.scores
            && audit.report.missing_pairs == ref_report.missing_pairs
            && audit.check.matches == ref_check.matches
            && audit.check.compared == ref_check.compared
            && audit.check.significance == ref_check.significance
            && audit.check.verdict == ref_check.verdict,
        || "the remote evidence differs from the in-process detection".into(),
    );
}

/// The in-process reference: detection over the store's pages through a
/// `PagedServer`, against the owner's current `original` weights, with
/// the true claim.
pub fn paged_reference(
    path: &str,
    scheme: &LocalScheme,
    original: &Weights,
    message: &[bool],
    frames: usize,
) -> Result<(DetectionReport, ClaimCheck), String> {
    let view = ReadView::open(&DiskVfs::new(""), path, Some(frames))
        .map_err(|e| format!("{path}: {e}"))?;
    let observed = ObservedWeights::collect(&PagedServer::new(view));
    let report = scheme.marking().extract(original, &observed);
    let check = report.claim_check(message, DEFAULT_DELTA);
    Ok((report, check))
}

/// The in-RAM reference for a paged audit: a store's content decoded
/// whole and served by an `HonestServer`, detected against `original`
/// with the true claim.
pub fn content_reference(
    content: &StoreContent,
    scheme: &LocalScheme,
    original: &Weights,
    message: &[bool],
) -> Result<(DetectionReport, ClaimCheck), String> {
    let family = content.family().map_err(|e| e.to_string())?;
    let observed = ObservedWeights::collect(&HonestServer::new(family, content.marked_weights()));
    let report = scheme.marking().extract(original, &observed);
    let check = report.claim_check(message, DEFAULT_DELTA);
    Ok((report, check))
}

/// Server-side request time by endpoint, scraped from `/metrics`:
/// `endpoint → (latency sum µs, requests)`.
pub fn scrape_service(addr: &str) -> Result<BTreeMap<String, (f64, f64)>, String> {
    let (status, body) = http_get(addr, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics returned {status}"));
    }
    let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for line in body.lines() {
        for (prefix, sum) in [
            ("qpwm_request_latency_us_sum{endpoint=\"", true),
            ("qpwm_request_latency_us_count{endpoint=\"", false),
        ] {
            let Some(rest) = line.strip_prefix(prefix) else {
                continue;
            };
            let Some((endpoint, value)) = rest.split_once("\"} ") else {
                continue;
            };
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("bad metrics line {line}"))?;
            let entry = out.entry(endpoint.to_owned()).or_insert((0.0, 0.0));
            if sum {
                entry.0 = value;
            } else {
                entry.1 = value;
            }
        }
    }
    Ok(out)
}

/// Mean server-side µs per request of `endpoint` between two scrapes
/// (0 when it served none).
pub fn service_us(
    before: &BTreeMap<String, (f64, f64)>,
    after: &BTreeMap<String, (f64, f64)>,
    endpoint: &str,
) -> (f64, f64) {
    let a = after.get(endpoint).copied().unwrap_or((0.0, 0.0));
    let b = before.get(endpoint).copied().unwrap_or((0.0, 0.0));
    let (sum, count) = (a.0 - b.0, a.1 - b.1);
    (if count > 0.0 { sum / count } else { 0.0 }, sum)
}

/// Issues `recipients` keys under a master secret from the seed.
pub fn issue(
    ctx: &Ctx,
    parent: u64,
    op: u64,
    master: MasterSecret,
    recipients: usize,
) -> Result<(KeyRegistry, Duration), String> {
    let (registry, d) = ctx
        .tr
        .span("fingerprint.issue", parent, op, |_| -> Result<_, String> {
            let mut registry = KeyRegistry::new(master);
            for i in 0..recipients {
                registry
                    .issue(&recipient_name(i), i as u64)
                    .map_err(|e| e.to_string())?;
            }
            Ok(registry)
        });
    Ok((registry?, d))
}

/// The id of the `i`-th issued recipient.
pub fn recipient_name(i: usize) -> String {
    format!("r{i:05}")
}

/// A traced leak.
pub struct Traced {
    /// `Fingerprinter::stamp` of the culprit's copy.
    pub stamp: Duration,
    /// From the leaked table to the accused recipient.
    pub accuse: Duration,
    /// The registry-wide scoring.
    pub outcome: AccuseOutcome,
    /// Traced runs only: `PairMarking::extract` on the leak, standalone.
    pub extract_probe: Option<Duration>,
    /// Traced runs only: the `accuse` call alone.
    pub accuse_call: Duration,
}

/// Stamps `culprit`'s copy, leaks it whole, and accuses over `registry`.
/// The accusation must name the culprit.
pub fn leak_and_accuse(
    ctx: &Ctx,
    parent: u64,
    op: u64,
    fp: &Fingerprinter,
    registry: &KeyRegistry,
    culprit: usize,
) -> Traced {
    let tr = ctx.tr;
    let (leaked, stamp) = tr.span("fingerprint.stamp", parent, op, |_| {
        fp.stamp(registry.key_at(culprit as u64))
    });
    let ((outcome, observed, accuse_call), accuse_time) = tr.span("accuse", parent, op, |id| {
        let pairs: Vec<(Vec<Element>, i64)> = fp
            .original()
            .keys_sorted()
            .into_iter()
            .map(|k| {
                let w = leaked.get(&k);
                (k, w)
            })
            .collect();
        let (observed, _) = tr.span("fingerprint.observe", id, op, |_| {
            observed_from_pairs(pairs)
        });
        let (outcome, call) = tr.span("fingerprint.accuse", id, op, |_| {
            accuse(fp, registry, &observed, DEFAULT_DELTA)
        });
        (outcome, observed, call)
    });
    let extract_probe = tr.enabled().then(|| {
        tr.span("fingerprint.extract", 0, op + PROBE_OP, |_| {
            fp.marking().extract(fp.original(), &observed)
        })
        .1
    });
    let want = recipient_name(culprit);
    ctx.tally.check(
        outcome.accused().is_some_and(|a| a.recipient == want),
        || {
            format!(
                "accusation named {:?}, not {want}",
                outcome.accused().map(|a| &a.recipient)
            )
        },
    );
    Traced {
        stamp,
        accuse: accuse_time,
        outcome,
        extract_probe,
        accuse_call,
    }
}

/// What the owner's closing phases measured.
pub struct Closing {
    /// The audits of the running server, in order.
    pub audits: Vec<Audit>,
    /// The traced leak.
    pub leak: Traced,
    /// The server's paged-pool counters after the audit, if paged.
    pub pool: Option<(u64, u64, u64, u64)>,
    /// `/metrics` after the audit (traced runs).
    pub scrape: Option<BTreeMap<String, (f64, f64)>>,
}

/// The owner's closing phases: audit the running `server` against `m`
/// `audits` times over, each time on a fresh connection, stop it, then
/// (with the fingerprinter and registry `prepare` builds) trace a
/// leaked copy of `culprit`.
#[allow(clippy::too_many_arguments)]
pub fn close(
    ctx: &Ctx,
    root: u64,
    op: u64,
    server: Server,
    audits: usize,
    batch: usize,
    m: &Marked,
    culprit: usize,
    prepare: impl FnOnce() -> Result<(Fingerprinter, KeyRegistry), String>,
) -> Result<Closing, String> {
    let addr = server.addr().to_string();
    let audited: Result<Vec<Audit>, String> = (0..audits.max(1))
        .map(|_| {
            audit(
                ctx,
                root,
                op,
                &addr,
                batch,
                &m.scheme,
                m.original(),
                &m.message,
            )
        })
        .collect();
    let pool = server.store_pool_totals();
    let scrape = ctx.tr.enabled().then(|| scrape_service(&addr)).transpose();
    stop(ctx, root, op, server);
    let audits = audited?;
    let scrape = scrape?;
    let (fp, registry) = prepare()?;
    let leak = leak_and_accuse(ctx, root, op, &fp, &registry, culprit);
    Ok(Closing {
        audits,
        leak,
        pool,
        scrape,
    })
}

/// Per-layer samples every workload takes from its marked carrier and
/// its closing phases: scheme and store sizes, the paged pool, each
/// audit's round-trip tail and transport counters, the accusation's
/// outcome, and the server's request time for the audits' batches (from
/// `/metrics`; the server served nothing else on that endpoint).
/// Returns the audits' server-side time, in ms.
pub fn closing_samples(samples: &mut crate::Samples, m: &Marked, closing: &Closing) -> f64 {
    samples.push(
        "core.candidate_pairs",
        m.scheme.stats().candidate_pairs as f64,
    );
    samples.push("core.capacity_bits", m.scheme.capacity() as f64);
    samples.push("store.pages", m.stat.total_pages as f64);
    if let Some((hits, misses, _, _)) = closing.pool {
        samples.push(
            "store.server_pool_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
    let (per_batch, sum_us) = closing.scrape.as_ref().map_or((0.0, 0.0), |after| {
        service_us(&BTreeMap::new(), after, "answers")
    });
    samples.push("serve.service_us.answers", per_batch);
    for a in &closing.audits {
        samples.push("client.round_trip_us_p99", tail(&a.rtt_us, 99.0));
        samples.push("client.round_trips", a.transport.attempts as f64);
        samples.push("client.retries", a.transport.retries as f64);
        samples.push("client.reconnects", a.transport.reconnects as f64);
    }
    let leak = &closing.leak;
    samples.push("fingerprint.scored", leak.outcome.scored as f64);
    samples.push("fingerprint.gap_log10", leak.outcome.gap_log10);
    if let Some(extract) = leak.extract_probe {
        samples.push("fingerprint.extract_ms", extract.as_secs_f64() * 1e3);
        samples.push(
            "fingerprint.score_ms",
            ((leak.accuse_call - extract.min(leak.accuse_call)).as_secs_f64()) * 1e3,
        );
    }
    sum_us / 1e3
}
