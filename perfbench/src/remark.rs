//! The re-marking drill: writes beside reads on one marked store. One
//! writer applies a paced stream of Theorem 7 updates, as `qpwm store
//! update --key` does: bump 64 base weights, plan the re-mark with
//! `remark_touched`, write both into one transaction, and commit (WAL
//! fsync, then checkpoint). Every commit is fsync'd. Beside it one
//! reader thread reads uniformly random parameters through an attached
//! `ReadView` with a small pool, open loop at a fixed rate, timed from
//! each read's scheduled time. Every read is checked against an
//! invariant that every commit preserves; afterwards the store must
//! reopen with nothing discarded and still carry the full mark. Both
//! listed workloads run the drill between their own phases, so that
//! `commit_p50_ms` times real commits.

use crate::owner::{self, Ctx, Marked};
use crate::trace::{percentile, tail, SpanIndex};
use crate::Samples;
use qpwm_core::incremental::remark_touched;
use qpwm_rng::Rng;
use qpwm_serve::TransportStats;
use qpwm_store::{DiskVfs, ReadView, Store, StoreContent};
use qpwm_structures::{WeightKey, Weights};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How hard the writer and the reader push.
pub struct Pace {
    /// Reader (and audit) pool frames.
    pub frames: usize,
    /// Base weights each update bumps.
    pub touched: usize,
    /// Time between updates.
    pub update_every: Duration,
    /// The reader's fixed rate, reads/s.
    pub read_rate: f64,
}

/// The pace of the full-size drill.
pub const PACE: Pace = Pace {
    frames: 64,
    touched: 64,
    update_every: Duration::from_millis(15),
    read_rate: 2000.0,
};

/// The pace of the smoke drill.
pub const SMOKE_PACE: Pace = Pace {
    frames: 8,
    touched: 8,
    update_every: Duration::from_millis(20),
    read_rate: 500.0,
};

/// Every update adds this to a base weight, so that a committed state
/// always shows `published - original - mark delta ≡ 0 (mod BUMP)`.
const BUMP: i64 = 1000;

/// Operation ids of updates and reads, kept apart from the owner's:
/// drill `k` numbers its updates from `UPDATE_OP + k << 12` and its
/// reads from `READ_OP + k << 20`.
const UPDATE_OP: u64 = 1 << 20;
const READ_OP: u64 = 1 << 30;

/// What one update measured.
pub struct Update {
    /// From `begin` to the return of `commit`.
    pub total: Duration,
    wal_bytes: u64,
    pages: usize,
    fsyncs: u64,
}

/// What the reader measured.
#[derive(Default)]
struct Reads {
    latency_us: Vec<f64>,
    /// Time spent inside `answer_pairs`.
    busy: Duration,
    hits: u64,
    misses: u64,
}

/// The reader: open loop at `rate`, uniform parameters, each answer
/// checked against the invariant every commit preserves.
fn read_loop(
    ctx: &Ctx,
    mut view: ReadView,
    content: &StoreContent,
    rate: f64,
    seed: u64,
    first_op: u64,
    stop: &AtomicBool,
) -> Reads {
    let tr = ctx.tr;
    let n = view.n_params();
    let mut rng = Rng::seed_from_u64(seed ^ 0x4EAD);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut reads = Reads::default();
    let t0 = Instant::now();
    let mut k = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = t0 + interval * k as u32;
        // sleep most of the way, spin the rest, so wake-up jitter does
        // not count as read latency
        let now = Instant::now();
        if due > now + Duration::from_micros(150) {
            std::thread::sleep(due - now - Duration::from_micros(100));
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let i = rng.gen_range(0..n as u64) as usize;
        let (answer, service) = tr.span("store.read", 0, first_op + k, |_| view.answer_pairs(i));
        reads.busy += service;
        reads.latency_us.push(due.elapsed().as_secs_f64() * 1e6);
        ctx.tally.op(answer
            .map_err(|e| format!("read {i}: {e}"))
            .and_then(|a| committed(content, i, &a)));
        k += 1;
    }
    let pool = view.pool_stats();
    reads.hits = pool.hits;
    reads.misses = pool.misses;
    reads
}

/// The invariant: parameter `i`'s answer holds exactly its stored
/// tuples, in order, and each published weight is the tuple's original
/// weight plus its mark delta plus a whole number of update bumps.
fn committed(content: &StoreContent, i: usize, answer: &[(Vec<u32>, i64)]) -> Result<(), String> {
    let ids = &content.ids[content.offsets[i] as usize..content.offsets[i + 1] as usize];
    if answer.len() != ids.len() {
        return Err(format!(
            "read {i} returned {} tuples, the store holds {}",
            answer.len(),
            ids.len()
        ));
    }
    for (&id, (tuple, w)) in ids.iter().zip(answer) {
        let t = id as usize;
        let drift = w - content.base[t] - content.delta[t];
        if tuple.as_slice() != [content.flat[t]] || drift < 0 || drift % BUMP != 0 {
            return Err(format!(
                "read {i} returned {tuple:?} = {w}, not a committed state"
            ));
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
/// One Theorem 7 update: bump `touched` random base weights and re-mark
/// the pairs they touch, in one transaction.
fn update(
    ctx: &Ctx,
    store: &mut Store,
    m: &Marked,
    content: &StoreContent,
    bases: &mut [i64],
    rng: &mut Rng,
    touched: usize,
    op: u64,
) -> Result<Update, String> {
    let tr = ctx.tr;
    let n = bases.len() as u64;
    let mut ids: Vec<u32> = Vec::with_capacity(touched);
    while ids.len() < touched {
        let id = rng.gen_range(0..n) as u32;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    let fsyncs = store.stat().wal.fsyncs;
    let (stats, total) = tr.span("remark.update", 0, op, |root| -> Result<_, String> {
        let mut txn = store.begin();
        let (wrote, _) = tr.span("store.txn_write", root, op, |_| -> Result<(), String> {
            for &id in &ids {
                bases[id as usize] += BUMP;
                txn.set_base(id, bases[id as usize])
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        wrote?;
        let keys: HashSet<WeightKey> = ids
            .iter()
            .map(|&id| vec![content.flat[id as usize]])
            .collect();
        let (plan, _) = tr.span("core.remark_plan", root, op, |_| {
            remark_touched(m.scheme.marking(), &m.message, &keys)
        });
        let (wrote, _) = tr.span("store.txn_write", root, op, |_| -> Result<(), String> {
            for (key, delta) in &plan {
                let id = content
                    .lookup(key)
                    .ok_or("a re-marked tuple is not in the store")?;
                txn.set_delta(id, *delta).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        wrote?;
        let (stats, _) = tr.span("store.commit", root, op, |_| txn.commit());
        stats.map_err(|e| format!("commit: {e}"))
    });
    let stats = stats?;
    Ok(Update {
        total,
        wal_bytes: stats.wal_bytes,
        pages: stats.pages,
        fsyncs: store.stat().wal.fsyncs - fsyncs,
    })
}

/// The owner's true weights when the base weights are `bases` (by
/// tuple id).
fn true_weights(content: &StoreContent, bases: &[i64]) -> Weights {
    let mut original = Weights::new(1);
    for (t, &b) in bases.iter().enumerate() {
        original.set(&[content.flat[t]], b);
    }
    original
}

/// What the update stream and the reader beside it measured.
pub struct Mixed {
    /// Every update, in order.
    pub updates: Vec<Update>,
    reads: Reads,
}

/// The drill: paced Theorem 7 updates on `store` from this thread for
/// `seconds`, with a reader on `view` beside it; `k` numbers the drill
/// within the run. Returns the measurements and the base weights after
/// the last update (by tuple id).
#[allow(clippy::too_many_arguments)]
fn mixed(
    ctx: &Ctx,
    store: &mut Store,
    view: ReadView,
    content: &StoreContent,
    m: &Marked,
    pace: &Pace,
    seconds: f64,
    seed: u64,
    k: u64,
) -> Result<(Mixed, Vec<i64>), String> {
    let mut bases = content.base.clone();
    let mut rng = Rng::seed_from_u64(seed ^ 0x0BDA ^ k);
    let stop = AtomicBool::new(false);
    let mut updates = Vec::new();
    let reads = std::thread::scope(|scope| -> Result<Reads, String> {
        let reader = scope.spawn(|| {
            read_loop(
                ctx,
                view,
                content,
                pace.read_rate,
                seed ^ k,
                READ_OP + (k << 20),
                &stop,
            )
        });
        let t0 = Instant::now();
        let mut result = Ok(());
        for u in 0u32.. {
            let due = t0 + pace.update_every * u;
            if due.duration_since(t0).as_secs_f64() >= seconds {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            match update(
                ctx,
                store,
                m,
                content,
                &mut bases,
                &mut rng,
                pace.touched,
                UPDATE_OP + (k << 12) + u64::from(u),
            ) {
                Ok(up) => {
                    ctx.tally.op(Ok(()));
                    updates.push(up);
                }
                Err(e) => {
                    ctx.tally.op(Err(e.clone()));
                    result = Err(e);
                    break;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        let reads = reader
            .join()
            .map_err(|_| "the reader panicked".to_owned())?;
        result.map(|()| reads)
    })?;
    Ok((Mixed { updates, reads }, bases))
}

/// Runs drill `k` for `seconds` on `m`'s store: opens it for writing,
/// attaches the reader's view, and runs the paced updates beside the
/// reader. Then checks the result: the store reopens with no
/// transaction discarded, and an audit through its pages against the
/// updated true weights recovers the full mark, with the same evidence
/// as the in-RAM decode of the same store.
pub fn drill(
    ctx: &Ctx,
    m: &Marked,
    pace: &Pace,
    seconds: f64,
    seed: u64,
    k: u64,
) -> Result<Mixed, String> {
    let vfs = DiskVfs::new("");
    let path = m.path.as_str();
    let mut store = Store::open(&vfs, path).map_err(|e| format!("{path}: {e}"))?;
    let content = store.content().map_err(|e| format!("{path}: {e}"))?;
    let view =
        ReadView::attach(&store, &vfs, path, Some(pace.frames)).map_err(|e| e.to_string())?;
    let (mixed, bases) = mixed(ctx, &mut store, view, &content, m, pace, seconds, seed, k)?;
    drop(store);

    let mut reopened = Store::open(&vfs, path).map_err(|e| format!("reopening {path}: {e}"))?;
    let discarded = reopened.recovery().discarded_txns;
    ctx.tally.check(discarded == 0, || {
        format!("reopening discarded {discarded} transactions")
    });
    let now = reopened.content().map_err(|e| format!("{path}: {e}"))?;
    drop(reopened);
    let updated = true_weights(&content, &bases);
    let (report, check) =
        owner::paged_reference(path, &m.scheme, &updated, &m.message, pace.frames)?;
    let paged = owner::Audit {
        report,
        check,
        rtt_us: Vec::new(),
        collect: Duration::ZERO,
        total: Duration::ZERO,
        transport: TransportStats::default(),
    };
    let decoded = owner::content_reference(&now, &m.scheme, &updated, &m.message)?;
    owner::check_audit(ctx, &paged, &decoded, &m.message);
    Ok(mixed)
}

/// The drills' per-layer samples: the update's calls from the spans,
/// the commits' WAL counters, and the reader's pool.
pub fn mixed_samples(samples: &mut Samples, index: &SpanIndex, drills: &[Mixed]) {
    for v in index.per_op_ms("core.remark_plan") {
        samples.push("core.remark_plan_us", v * 1e3);
    }
    for v in index.per_op_ms("store.txn_write") {
        samples.push("store.txn_write_us", v * 1e3);
    }
    let commits = index.per_op_ms("store.commit");
    samples.push("store.commit_call_ms_p50", percentile(&commits, 50.0));
    samples.push("store.commit_call_ms_p99", tail(&commits, 99.0));
    let service: Vec<f64> = index
        .per_op_ms("store.read")
        .iter()
        .map(|v| v * 1e3)
        .collect();
    samples.push("store.read_service_us_p50", percentile(&service, 50.0));
    samples.push("store.read_service_us_p99", tail(&service, 99.0));
    let updates: Vec<&Update> = drills.iter().flat_map(|d| &d.updates).collect();
    let count = updates.len().max(1) as f64;
    let per_txn = |f: &dyn Fn(&Update) -> f64| updates.iter().map(|u| f(u)).sum::<f64>() / count;
    samples.push("store.wal_bytes_per_txn", per_txn(&|u| u.wal_bytes as f64));
    samples.push("store.pages_per_txn", per_txn(&|u| u.pages as f64));
    samples.push("store.fsyncs_per_txn", per_txn(&|u| u.fsyncs as f64));
    let (hits, misses, reads) = drills.iter().fold((0, 0, 0), |(h, m, n), d| {
        (
            h + d.reads.hits,
            m + d.reads.misses,
            n + d.reads.latency_us.len(),
        )
    });
    samples.push(
        "store.reader_pool_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    samples.push(
        "store.reader_misses_per_read",
        misses as f64 / reads.max(1) as f64,
    );
}
