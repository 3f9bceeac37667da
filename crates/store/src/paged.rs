//! Paged, read-only access to a store file.
//!
//! A [`ReadView`] answers family queries — parameter tuples, labels,
//! active sets, weights — straight through its own buffer pool, page by
//! page, without ever decoding the full content image. Peak memory is
//! O(pool frames + one answer), so a 10^8-tuple store serves and verifies
//! on a small-RAM box. [`PagedServer`] adapts a view to the detector's
//! [`AnswerServer`] trait, making the full
//! `ObservedWeights::collect → PairMarking::extract` pipeline run out of
//! core.
//!
//! ## Consistency against a live writer
//!
//! A view opened standalone ([`ReadView::open`]) reads a quiescent file.
//! A view attached to an open [`Store`] ([`ReadView::attach`]) shares its
//! [`LockTable`]: every page read holds the page's shared lock (so a
//! checkpoint's exclusive page writes never interleave with it), and
//! every multi-page logical operation validates the checkpoint epoch —
//! if a checkpoint completed mid-scan, the cached frames may mix old and
//! new pages, so the pool is dropped and the operation retried. Each
//! retrieved answer therefore reflects exactly one committed state.
//!
//! Labels and element names live in the immutable blob section, so the
//! view indexes them once at open (a sparse checkpoint every
//! [`LABEL_STRIDE`] = 64 entries, 0.125 B per entry, read directly from
//! the file) and afterwards resolves any label with a short forward walk
//! through the pool. The walk is page-local: it pins each blob page it
//! crosses once and scans the length prefixes inside that frame's
//! payload, carrying a prefix or string body that straddles a page
//! boundary over to the next page. A lookup over short strings
//! therefore touches one or two frames, not one per skipped string; a
//! length prefix that would lead past the blob's last page is reported
//! as corruption rather than read out of the weight section.

use crate::locks::LockTable;
use crate::page::{self, kind, PAGE_HDR, PAGE_PAYLOAD, PAGE_SIZE};
use crate::pool::{BufferPool, PoolStats};
use crate::store::{read_meta_direct, resolve_pool_frames, wal_name, Meta, WEIGHTS_PER_PAGE};
use crate::vfs::{Result, StoreError, Vfs, VfsFile};
use crate::Store;
use qpwm_core::detect::AnswerServer;
use qpwm_structures::{Element, Weights};
use std::cell::RefCell;
use std::sync::Arc;

/// One label-offset checkpoint covers this many entries.
pub const LABEL_STRIDE: usize = 64;

/// Sparse offsets into a run of length-prefixed strings: byte offset
/// (within the blob) of every `LABEL_STRIDE`-th entry.
#[derive(Debug, Clone, Default)]
struct StringIndex {
    checkpoints: Vec<u64>,
    count: usize,
}

/// A read-only, paged view of a store file.
pub struct ReadView {
    file: Box<dyn VfsFile>,
    pool: BufferPool,
    meta: Meta,
    locks: Option<Arc<LockTable>>,
    /// Epoch the pooled frames were read under (only with `locks`).
    cached_epoch: u64,
    labels: StringIndex,
    names: StringIndex,
    query_name: String,
}

impl ReadView {
    /// Opens a view on a quiescent store file. Fails if the store has a
    /// non-empty WAL — unapplied committed transactions mean the page
    /// file alone is stale; run recovery first by opening the store
    /// read-write ([`Store::open`]).
    pub fn open(vfs: &dyn Vfs, name: &str, pool_frames: Option<usize>) -> Result<ReadView> {
        if vfs.exists(&wal_name(name)) {
            let wal = vfs.open(&wal_name(name), false)?;
            if wal.size()? > 0 {
                return Err(StoreError::Invalid(format!(
                    "{name}: WAL holds unapplied records; open the store read-write to \
                     recover before serving read-only"
                )));
            }
        }
        let file = vfs.open(name, false)?;
        ReadView::build(file, pool_frames, None)
    }

    /// Opens a view sharing `store`'s lock table, so it can scan safely
    /// while the store commits (and checkpoints) from another thread.
    /// The store must have no buffered (group-pending) commits — those
    /// live only in its WAL and pool, invisible to the file.
    pub fn attach(
        store: &Store,
        vfs: &dyn Vfs,
        name: &str,
        pool_frames: Option<usize>,
    ) -> Result<ReadView> {
        if store.buffered_txns() > 0 {
            return Err(StoreError::Invalid(
                "store has buffered commits; group_commit before attaching a view".into(),
            ));
        }
        let file = vfs.open(name, false)?;
        ReadView::build(file, pool_frames, Some(store.lock_table()))
    }

    fn build(
        file: Box<dyn VfsFile>,
        pool_frames: Option<usize>,
        locks: Option<Arc<LockTable>>,
    ) -> Result<ReadView> {
        let meta = read_meta_direct(file.as_ref())?;
        let frames = resolve_pool_frames(pool_frames, meta.total_pages() as u64)?;
        let cached_epoch = locks.as_ref().map_or(0, |l| l.read_epoch());
        let mut view = ReadView {
            file,
            pool: BufferPool::new(frames),
            meta,
            locks,
            cached_epoch,
            labels: StringIndex::default(),
            names: StringIndex::default(),
            query_name: String::new(),
        };
        view.index_blob()?;
        Ok(view)
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.meta.n_params as usize
    }

    /// Number of interned tuples.
    pub fn n_tuples(&self) -> usize {
        self.meta.n_tuples as usize
    }

    /// Output (tuple) arity.
    pub fn output_arity(&self) -> usize {
        self.meta.tuple_arity as usize
    }

    /// Parameter arity.
    pub fn param_arity(&self) -> usize {
        self.meta.param_arity as usize
    }

    /// Size of the active universe.
    pub fn universe_len(&self) -> usize {
        self.meta.n_universe as usize
    }

    /// Name of the registered query.
    pub fn query_name(&self) -> &str {
        &self.query_name
    }

    /// True when the store carries per-element display names.
    pub fn has_element_names(&self) -> bool {
        self.names.count > 0
    }

    /// Pool hit/miss/eviction counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Frames currently resident / configured capacity.
    pub fn pool_usage(&self) -> (usize, usize) {
        (self.pool.resident(), self.pool.capacity())
    }

    /// Frames currently pinned (0 whenever no read is in flight).
    pub fn pool_pinned(&self) -> usize {
        self.pool.pinned()
    }

    // -- logical reads ------------------------------------------------------

    /// The i-th parameter tuple.
    pub fn param_tuple(&mut self, i: usize) -> Result<Vec<Element>> {
        self.check_param(i)?;
        let pa = self.meta.param_arity as usize;
        self.consistent(|v| {
            let off = v.flat_bytes() + (i * pa * 4) as u64;
            let mut buf = vec![0u8; pa * 4];
            v.read_blob(off, &mut buf)?;
            Ok(le_u32s(&buf))
        })
    }

    /// The i-th parameter's display label.
    pub fn label(&mut self, i: usize) -> Result<String> {
        self.check_param(i)?;
        let start = self.labels.checkpoints[i / LABEL_STRIDE];
        self.consistent(|v| v.walk_strings(start, i % LABEL_STRIDE))
    }

    /// The display name of element `e`, if the store carries names.
    pub fn element_name(&mut self, e: Element) -> Result<Option<String>> {
        if (e as usize) >= self.names.count {
            return Ok(None);
        }
        let start = self.names.checkpoints[e as usize / LABEL_STRIDE];
        self.consistent(|v| v.walk_strings(start, e as usize % LABEL_STRIDE))
            .map(Some)
    }

    /// The sorted active-id set of parameter `i`.
    pub fn active_ids(&mut self, i: usize) -> Result<Vec<u32>> {
        self.check_param(i)?;
        self.consistent(|v| v.active_ids_inner(i))
    }

    /// The content of tuple `id`.
    pub fn tuple(&mut self, id: u32) -> Result<Vec<Element>> {
        self.check_tuple(id)?;
        let arity = self.meta.tuple_arity as usize;
        self.consistent(|v| {
            let mut buf = vec![0u8; arity * 4];
            v.read_blob(id as u64 * arity as u64 * 4, &mut buf)?;
            Ok(le_u32s(&buf))
        })
    }

    /// The `(base, delta)` weight entry of tuple `id`.
    pub fn weight_entry(&mut self, id: u32) -> Result<(i64, i64)> {
        self.check_tuple(id)?;
        self.consistent(|v| v.weight_entry_inner(id))
    }

    /// The published (marked) weight of tuple `id`: `base + delta`.
    pub fn marked_weight(&mut self, id: u32) -> Result<i64> {
        self.weight_entry(id).map(|(b, d)| b + d)
    }

    /// Parameter `i`'s full answer: `(tuple content, marked weight)` per
    /// active id — the paged equivalent of `AnswerServer::answer`.
    pub fn answer_pairs(&mut self, i: usize) -> Result<Vec<(Vec<Element>, i64)>> {
        self.check_param(i)?;
        let arity = self.meta.tuple_arity as usize;
        self.consistent(|v| {
            let ids = v.active_ids_inner(i)?;
            let mut out = Vec::with_capacity(ids.len());
            for id in ids {
                let mut buf = vec![0u8; arity * 4];
                v.read_blob(id as u64 * arity as u64 * 4, &mut buf)?;
                let (b, d) = v.weight_entry_inner(id)?;
                out.push((le_u32s(&buf), b + d));
            }
            Ok(out)
        })
    }

    /// The aggregate `f(ā)` of parameter `i`: sum of marked weights over
    /// its active set, computed through the pool.
    pub fn aggregate(&mut self, i: usize) -> Result<i64> {
        self.check_param(i)?;
        self.consistent(|v| {
            let ids = v.active_ids_inner(i)?;
            let mut sum = 0i64;
            for id in ids {
                let (b, d) = v.weight_entry_inner(id)?;
                sum += b + d;
            }
            Ok(sum)
        })
    }

    /// Materializes the owner's base weights (O(n) memory — the CLI-scale
    /// verify path; out-of-core detection supplies bases procedurally).
    pub fn base_weights(&mut self) -> Result<Weights> {
        let arity = self.meta.tuple_arity as usize;
        let n = self.meta.n_tuples;
        let mut w = Weights::new(arity);
        for id in 0..n {
            let t = self.tuple(id)?;
            let (b, _) = self.weight_entry(id)?;
            w.set(&t, b);
        }
        Ok(w)
    }

    // -- internals ----------------------------------------------------------

    fn check_param(&self, i: usize) -> Result<()> {
        if i >= self.meta.n_params as usize {
            return Err(StoreError::Invalid(format!(
                "parameter {i} out of range ({} params)",
                self.meta.n_params
            )));
        }
        Ok(())
    }

    fn check_tuple(&self, id: u32) -> Result<()> {
        if id >= self.meta.n_tuples {
            return Err(StoreError::Invalid(format!(
                "tuple {id} out of range ({} tuples)",
                self.meta.n_tuples
            )));
        }
        Ok(())
    }

    fn flat_bytes(&self) -> u64 {
        self.meta.n_tuples as u64 * self.meta.tuple_arity as u64 * 4
    }

    /// Runs one logical read under seqlock validation: if a checkpoint
    /// completed while it ran, cached frames may span two committed
    /// states — drop them, refresh the meta snapshot, and retry.
    fn consistent<T>(&mut self, op: impl Fn(&mut Self) -> Result<T>) -> Result<T> {
        let Some(locks) = self.locks.clone() else { return op(self) };
        loop {
            let epoch = locks.read_epoch();
            if epoch != self.cached_epoch {
                self.pool.clear();
                self.cached_epoch = epoch;
                self.meta = read_meta_direct(self.file.as_ref())?;
            }
            let out = op(self)?;
            if locks.epoch_unchanged(epoch) {
                return Ok(out);
            }
        }
    }

    /// Copies `out.len()` bytes starting at blob byte `off`.
    fn read_blob(&mut self, off: u64, out: &mut [u8]) -> Result<()> {
        self.read_section(1, self.meta.weight_first(), "blob", off, out)
    }

    /// Copies `out.len()` bytes starting at answer-stream byte `off`.
    fn read_answers(&mut self, off: u64, out: &mut [u8]) -> Result<()> {
        let first = self.meta.answer_first();
        self.read_section(first, self.meta.total_pages(), "answer", off, out)
    }

    /// Copies `out.len()` bytes starting at logical payload byte
    /// `byte_off` of the section spanning pages `first_page..end_page`,
    /// each touched page read through the pool under its shared lock.
    fn read_section(
        &mut self,
        first_page: u32,
        end_page: u32,
        section: &str,
        byte_off: u64,
        out: &mut [u8],
    ) -> Result<()> {
        let kind = self.meta.kind_of(first_page);
        let mut copied = 0usize;
        while copied < out.len() {
            let logical = byte_off + copied as u64;
            let page_no = first_page as u64 + logical / PAGE_PAYLOAD as u64;
            if page_no >= end_page as u64 {
                return Err(StoreError::Corrupt(format!("{section} overrun")));
            }
            let page_no = page_no as u32;
            let off = (logical % PAGE_PAYLOAD as u64) as usize;
            let take = (PAGE_PAYLOAD - off).min(out.len() - copied);
            let _s = self.locks.as_ref().map(|l| l.lock_shared(page_no));
            let bytes = self.pool.page(self.file.as_mut(), page_no, Some(kind))?;
            out[copied..copied + take]
                .copy_from_slice(&bytes[PAGE_HDR + off..PAGE_HDR + off + take]);
            copied += take;
        }
        Ok(())
    }

    fn active_ids_inner(&mut self, i: usize) -> Result<Vec<u32>> {
        let mut two = [0u8; 8];
        self.read_answers(i as u64 * 4, &mut two)?;
        let lo = u32::from_le_bytes(two[0..4].try_into().expect("4")) as usize;
        let hi = u32::from_le_bytes(two[4..8].try_into().expect("4")) as usize;
        if lo > hi || hi > self.meta.n_ids as usize {
            return Err(StoreError::Corrupt(format!("CSR offsets {lo}..{hi} out of shape")));
        }
        let ids_base = (self.meta.n_params as u64 + 1) * 4;
        let mut buf = vec![0u8; (hi - lo) * 4];
        self.read_answers(ids_base + lo as u64 * 4, &mut buf)?;
        Ok(le_u32s(&buf))
    }

    fn weight_entry_inner(&mut self, id: u32) -> Result<(i64, i64)> {
        let page_no = self.meta.weight_first() + id / WEIGHTS_PER_PAGE as u32;
        let off = PAGE_HDR + (id as usize % WEIGHTS_PER_PAGE) * 16;
        let kind = self.meta.kind_of(page_no);
        let _s = self.locks.as_ref().map(|l| l.lock_shared(page_no));
        let bytes = self.pool.page(self.file.as_mut(), page_no, Some(kind))?;
        let base = i64::from_le_bytes(bytes[off..off + 8].try_into().expect("8"));
        let delta = i64::from_le_bytes(bytes[off + 8..off + 16].try_into().expect("8"));
        Ok((base, delta))
    }

    /// Skips `skip` length-prefixed strings starting at blob byte
    /// `start`, then reads and returns the next one. Each blob page the
    /// walk crosses is pinned once and its length prefixes are scanned
    /// in the frame; a prefix or the returned string's body that
    /// straddles a page boundary is carried over to the next page, and
    /// pages holding only skipped bytes are never read.
    fn walk_strings(&mut self, start: u64, skip: usize) -> Result<String> {
        let mut off = start;
        let mut left = skip;
        let mut prefix = [0u8; 4];
        let mut have = 0usize; // prefix bytes gathered so far
        let mut target: Option<(usize, Vec<u8>)> = None; // (length, body so far)
        let blob_end = self.meta.blob_len.min(self.meta.blob_pages as u64 * PAGE_PAYLOAD as u64);
        loop {
            if off >= blob_end {
                return Err(StoreError::Corrupt("blob overrun".into()));
            }
            let page_no = 1 + (off / PAGE_PAYLOAD as u64) as u32;
            let page_start = off - off % PAGE_PAYLOAD as u64;
            let mut pos = (off % PAGE_PAYLOAD as u64) as usize;
            let _s = self.locks.as_ref().map(|l| l.lock_shared(page_no));
            let bytes = self.pool.page(self.file.as_mut(), page_no, Some(kind::BLOB))?;
            let payload = &bytes[PAGE_HDR..PAGE_HDR + PAGE_PAYLOAD];
            while pos < PAGE_PAYLOAD {
                if target.is_none() {
                    let take = (4 - have).min(PAGE_PAYLOAD - pos);
                    prefix[have..have + take].copy_from_slice(&payload[pos..pos + take]);
                    have += take;
                    pos += take;
                    if have < 4 {
                        break;
                    }
                    have = 0;
                    let len = u32::from_le_bytes(prefix) as usize;
                    if len > 1 << 24 {
                        return Err(StoreError::Corrupt(format!(
                            "implausible string length {len}"
                        )));
                    }
                    if page_start + (pos + len) as u64 > blob_end {
                        return Err(StoreError::Corrupt("blob overrun".into()));
                    }
                    if left > 0 {
                        left -= 1;
                        pos += len;
                        continue;
                    }
                    target = Some((len, Vec::with_capacity(len)));
                }
                let (len, raw) = target.as_mut().expect("target set above");
                let take = (*len - raw.len()).min(PAGE_PAYLOAD - pos);
                raw.extend_from_slice(&payload[pos..pos + take]);
                pos += take;
                if raw.len() == *len {
                    let raw = std::mem::take(raw);
                    return String::from_utf8(raw)
                        .map_err(|_| StoreError::Corrupt("non-UTF-8 string".into()));
                }
            }
            off = page_start + pos as u64;
        }
    }

    /// One sequential pass over the blob's string region (immutable after
    /// create, so read directly from the file — no pool pollution):
    /// records sparse label/name offsets and the query name.
    fn index_blob(&mut self) -> Result<()> {
        let mut cursor = BlobCursor::new(
            self.file.as_ref(),
            self.meta,
            self.flat_bytes() + self.meta.n_params as u64 * self.meta.param_arity as u64 * 4,
        );
        let n_params = self.meta.n_params as usize;
        for i in 0..n_params {
            if i % LABEL_STRIDE == 0 {
                self.labels.checkpoints.push(cursor.off);
            }
            cursor.skip_string()?;
        }
        self.labels.count = n_params;
        let n_names = cursor.u32()? as usize;
        if n_names > 1 << 28 {
            return Err(StoreError::Corrupt(format!("implausible name count {n_names}")));
        }
        for e in 0..n_names {
            if e % LABEL_STRIDE == 0 {
                self.names.checkpoints.push(cursor.off);
            }
            cursor.skip_string()?;
        }
        self.names.count = n_names;
        self.query_name = cursor.string()?;
        Ok(())
    }
}

/// Sequential reader over the blob section, straight from the file.
struct BlobCursor<'a> {
    file: &'a dyn VfsFile,
    meta: Meta,
    off: u64,
    /// Currently buffered page (page_no, payload).
    page: Option<(u32, Vec<u8>)>,
}

impl<'a> BlobCursor<'a> {
    fn new(file: &'a dyn VfsFile, meta: Meta, off: u64) -> Self {
        BlobCursor { file, meta, off, page: None }
    }

    fn read(&mut self, out: &mut [u8]) -> Result<()> {
        let mut copied = 0usize;
        while copied < out.len() {
            let page_no = 1 + (self.off as usize / PAGE_PAYLOAD) as u32;
            if page_no > self.meta.blob_pages {
                return Err(StoreError::Corrupt("blob overrun".into()));
            }
            if self.page.as_ref().is_none_or(|(p, _)| *p != page_no) {
                let mut bytes = vec![0u8; PAGE_SIZE];
                self.file.read_at(&mut bytes, page_no as u64 * PAGE_SIZE as u64)?;
                page::verify(&bytes, page_no, Some(crate::page::kind::BLOB))?;
                self.page = Some((page_no, bytes));
            }
            let (_, bytes) = self.page.as_ref().expect("just set");
            let in_page = self.off as usize % PAGE_PAYLOAD;
            let take = (PAGE_PAYLOAD - in_page).min(out.len() - copied);
            out[copied..copied + take]
                .copy_from_slice(&bytes[PAGE_HDR + in_page..PAGE_HDR + in_page + take]);
            self.off += take as u64;
            copied += take;
        }
        Ok(())
    }

    fn u32(&mut self) -> Result<u32> {
        let mut four = [0u8; 4];
        self.read(&mut four)?;
        Ok(u32::from_le_bytes(four))
    }

    fn skip_string(&mut self) -> Result<()> {
        let len = self.u32()?;
        if len > 1 << 24 {
            return Err(StoreError::Corrupt(format!("implausible string length {len}")));
        }
        self.off += len as u64;
        Ok(())
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        if len > 1 << 24 {
            return Err(StoreError::Corrupt(format!("implausible string length {len}")));
        }
        let mut raw = vec![0u8; len];
        self.read(&mut raw)?;
        String::from_utf8(raw).map_err(|_| StoreError::Corrupt("non-UTF-8 string".into()))
    }
}

fn le_u32s(raw: &[u8]) -> Vec<u32> {
    raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4"))).collect()
}

/// [`AnswerServer`] over a [`ReadView`]: the detector's standard
/// `collect → extract` pipeline, with every answer read through the
/// buffer pool. I/O errors panic — detection runs after recovery, so a
/// failing read here means the file vanished mid-scan.
pub struct PagedServer {
    view: RefCell<ReadView>,
}

impl PagedServer {
    /// Wraps a view.
    pub fn new(view: ReadView) -> Self {
        PagedServer { view: RefCell::new(view) }
    }

    /// Unwraps the view (e.g. to read pool counters after a scan).
    pub fn into_inner(self) -> ReadView {
        self.view.into_inner()
    }
}

impl AnswerServer for PagedServer {
    fn num_parameters(&self) -> usize {
        self.view.borrow().n_params()
    }

    fn answer(&self, i: usize) -> Vec<(Vec<Element>, i64)> {
        self.view.borrow_mut().answer_pairs(i).expect("paged answer read")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Store, StoreContent, StoreOptions};
    use crate::vfs::SimVfs;
    use qpwm_core::detect::{HonestServer, ObservedWeights, Verdict, DEFAULT_DELTA};
    use qpwm_core::pairing::{Pair, PairMarking};

    /// `n_pairs` pair-marked unary tuples: parameter `[i]` activates
    /// `{2i, 2i+1}`; base weight `100 + e`, delta `+1` even / `-1` odd
    /// (the bit-1 marking of pair `([2i], [2i+1])`).
    fn content(n_pairs: usize) -> StoreContent {
        let n = 2 * n_pairs;
        let ids: Vec<u32> = (0..n as u32).collect();
        StoreContent {
            tuple_arity: 1,
            param_arity: 1,
            flat: ids.clone(),
            parameters: (0..n_pairs as u32).collect(),
            offsets: (0..=n_pairs as u32).map(|i| 2 * i).collect(),
            ids: ids.clone(),
            universe: ids,
            base: (0..n).map(|e| 100 + e as i64).collect(),
            delta: (0..n).map(|e| if e % 2 == 0 { 1 } else { -1 }).collect(),
            param_labels: (0..n_pairs).map(|i| format!("p{i}")).collect(),
            element_names: (0..n).map(|e| format!("n{e}")).collect(),
            query_name: "q".into(),
        }
    }

    fn tiny_pool() -> Option<usize> {
        Some(crate::store::MIN_POOL_FRAMES)
    }

    #[test]
    fn paged_reads_match_the_content() {
        let vfs = SimVfs::new();
        let c = content(600); // blob, weight and answer sections all span pages
        drop(Store::create(&vfs, "db", &c).expect("create"));
        let mut v = ReadView::open(&vfs, "db", tiny_pool()).expect("view");
        assert_eq!(v.n_params(), 600);
        assert_eq!(v.n_tuples(), 1200);
        assert_eq!(v.query_name(), "q");
        assert!(v.has_element_names());
        for i in [0usize, 7, 599] {
            assert_eq!(v.param_tuple(i).expect("param"), vec![i as u32]);
            assert_eq!(v.label(i).expect("label"), format!("p{i}"));
            assert_eq!(
                v.active_ids(i).expect("ids"),
                vec![2 * i as u32, 2 * i as u32 + 1]
            );
            let want: Vec<(Vec<u32>, i64)> = vec![
                (vec![2 * i as u32], 100 + 2 * i as i64 + 1),
                (vec![2 * i as u32 + 1], 100 + 2 * i as i64 + 1 - 1),
            ];
            assert_eq!(v.answer_pairs(i).expect("answer"), want);
            assert_eq!(v.aggregate(i).expect("agg"), want[0].1 + want[1].1);
        }
        assert_eq!(v.tuple(5).expect("tuple"), vec![5]);
        assert_eq!(v.weight_entry(5).expect("weight"), (105, -1));
        assert_eq!(v.element_name(3).expect("name"), Some("n3".into()));
        assert_eq!(v.element_name(99999).expect("none"), None);
        // a 4-frame pool over a ~20-page store must be evicting
        let s = v.pool_stats();
        assert!(s.misses > 0 && s.evictions > 0, "stats: {s:?}");
        let (resident, cap) = v.pool_usage();
        assert!(resident <= cap + 1, "paged reads must respect the tiny pool");
    }

    /// Satellite (c): a full detection pass through a 4-frame pool
    /// returns evidence byte-identical to the in-RAM path.
    #[test]
    fn paged_detection_is_byte_identical_to_in_ram() {
        let n_pairs = 300;
        let c = content(n_pairs);
        let vfs = SimVfs::new();
        drop(Store::create(&vfs, "db", &c).expect("create"));

        // in-RAM path: decode the store, serve from the family
        let mut store = Store::open(&vfs, "db").expect("open");
        let full = store.content().expect("content");
        let family = full.family().expect("family");
        let marked = full.marked_weights();
        let base = full.base_weights();
        drop(store);
        let in_ram = HonestServer::new(family, marked);

        // paged path: a 4-frame pool over the same file
        let paged =
            PagedServer::new(ReadView::open(&vfs, "db", tiny_pool()).expect("view"));

        let marking = PairMarking::new(
            (0..n_pairs as u32).map(|i| Pair { plus: vec![2 * i], minus: vec![2 * i + 1] }).collect(),
        );
        let expected = vec![true; n_pairs];

        let report_ram =
            marking.extract(&base, &ObservedWeights::collect(&in_ram));
        let report_paged =
            marking.extract(&base, &ObservedWeights::collect(&paged));
        assert_eq!(report_ram, report_paged, "detection reports must be identical");
        let check_ram = report_ram.claim_check(&expected, DEFAULT_DELTA);
        let check_paged = report_paged.claim_check(&expected, DEFAULT_DELTA);
        assert_eq!(check_ram, check_paged, "claim evidence must be identical");
        assert_eq!(check_ram.verdict, Verdict::MarkPresent);

        // and the pool really was the bottleneck resource
        let view = paged.into_inner();
        assert!(view.pool_stats().evictions > 0, "4 frames must evict on this store");
    }

    #[test]
    fn read_view_refuses_a_store_with_unapplied_wal() {
        let vfs = SimVfs::new();
        let c = content(8);
        let mut store = Store::create(&vfs, "db", &c).expect("create");
        let mut txn = store.begin();
        txn.set_delta(0, -1).expect("delta");
        txn.commit_no_checkpoint().expect("commit");
        drop(store);
        let err = ReadView::open(&vfs, "db", tiny_pool());
        assert!(err.is_err(), "unapplied WAL must refuse a read-only view");
        // recovery clears the WAL; the view then opens and sees the commit
        drop(Store::open(&vfs, "db").expect("recover"));
        let mut v = ReadView::open(&vfs, "db", tiny_pool()).expect("view");
        assert_eq!(v.weight_entry(0).expect("w"), (100, -1));
    }

    /// Overwrites blob bytes at `off` on the file and re-seals every
    /// touched page, so the checksum passes and only the content lies.
    fn patch_blob(vfs: &SimVfs, off: u64, patch: &[u8]) {
        let mut file = vfs.open("db", false).expect("reopen");
        for (k, &b) in patch.iter().enumerate() {
            let at = off as usize + k;
            let page_at = (1 + at / PAGE_PAYLOAD) as u64 * PAGE_SIZE as u64;
            let mut page = vec![0u8; PAGE_SIZE];
            file.read_at(&mut page, page_at).expect("read page");
            page[PAGE_HDR + at % PAGE_PAYLOAD] = b;
            let lsn = u64::from_le_bytes(page[4..12].try_into().expect("8"));
            page::seal(&mut page, lsn, kind::BLOB);
            file.write_at(&page, page_at).expect("write page");
        }
    }

    /// Blob byte offset of string `k` in a run of length-prefixed
    /// strings starting at `start`.
    fn string_offset(strings: &[String], start: u64, k: usize) -> u64 {
        start + strings[..k].iter().map(|s| 4 + s.len() as u64).sum::<u64>()
    }

    fn assert_overrun<T: std::fmt::Debug>(got: Result<T>, what: &str) {
        match got {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("blob overrun"), "{what}: {msg}"),
            other => panic!("{what}: expected a blob overrun, got {other:?}"),
        }
    }

    /// A re-sealed blob page whose length prefix points past the blob:
    /// the string would otherwise be read out of the weight section and
    /// decoded as a label (those bytes are valid ASCII), so both the
    /// returned string and a string walked over must fail as `Corrupt`.
    #[test]
    fn hostile_length_prefix_is_a_blob_overrun_not_a_weight_read() {
        let vfs = SimVfs::new();
        let c = content(600);
        drop(Store::create(&vfs, "db", &c).expect("create"));
        let mut v = ReadView::open(&vfs, "db", tiny_pool()).expect("view");
        let blob_end = v.meta.blob_len;
        let labels_start = v.flat_bytes() + c.parameters.len() as u64 * 4;
        let names_start = string_offset(&c.param_labels, labels_start, c.param_labels.len()) + 4;

        // label 5 claims a body running 100 bytes into the weight pages
        let at = string_offset(&c.param_labels, labels_start, 5);
        let len = (blob_end - at - 4 + 100) as u32;
        patch_blob(&vfs, at, &len.to_le_bytes());
        assert_overrun(v.label(5), "reading label 5");
        assert_overrun(v.label(6), "walking over label 5");
        assert_eq!(v.label(4).expect("earlier label"), "p4");

        // name 9 claims a body far past the blob, under the 2^24 bound
        let at = string_offset(&c.element_names, names_start, 9);
        patch_blob(&vfs, at, &(1u32 << 20).to_le_bytes());
        assert_overrun(v.element_name(9), "reading name 9");
        assert_overrun(v.element_name(10), "walking over name 9");
        assert_eq!(v.element_name(8).expect("earlier name"), Some("n8".into()));
    }

    /// `count` strings of mixed byte lengths (empty, ASCII, and 2-, 3-
    /// and 4-byte UTF-8 characters) for a run starting at blob byte
    /// `start`. The first string that would end near a page boundary is
    /// padded so that the next string's 4-byte length prefix straddles
    /// it; returns the strings and how many prefixes straddle.
    fn mixed_strings(tag: char, count: usize, start: u64) -> (Vec<String>, usize) {
        const CHARS: [char; 4] = ['\u{e9}', '\u{2192}', '\u{1d11e}', 'x'];
        let mut out = Vec::with_capacity(count);
        let mut off = start;
        let mut straddles = 0;
        for i in 0..count {
            let mut s = String::new();
            if i % 17 != 3 {
                s = format!("{tag}{i}-");
                for k in 0..(i * 7) % 23 {
                    s.push(CHARS[(i + k) % CHARS.len()]);
                }
            }
            let boundary = (off / PAGE_PAYLOAD as u64 + 1) * PAGE_PAYLOAD as u64;
            let next = off + 4 + s.len() as u64;
            if straddles == 0 && next + 4 > boundary && boundary >= off + 6 {
                s = "x".repeat((boundary - 2 - off - 4) as usize);
            }
            off += 4 + s.len() as u64;
            let in_page = off as usize % PAGE_PAYLOAD;
            if i + 1 < count && in_page + 4 > PAGE_PAYLOAD {
                straddles += 1;
            }
            out.push(s);
        }
        (out, straddles)
    }

    /// Every label and name across several strides and page boundaries
    /// — including length prefixes split over two pages and multi-byte
    /// characters — reads back exactly through a 4-frame pool.
    #[test]
    fn labels_and_names_survive_stride_and_page_boundaries() {
        let n_params = 3 * LABEL_STRIDE + 5;
        let mut c = content(n_params);
        let labels_start = (c.flat.len() + c.parameters.len()) as u64 * 4;
        let (labels, label_straddles) = mixed_strings('p', n_params, labels_start);
        let names_start = string_offset(&labels, labels_start, n_params) + 4;
        let (names, name_straddles) = mixed_strings('n', c.flat.len(), names_start);
        assert!(label_straddles > 0 && name_straddles > 0, "fixture must split a prefix");
        let multi_byte = names.iter().any(|s| s.len() > s.chars().count());
        assert!(multi_byte, "fixture needs multi-byte names");
        c.param_labels = labels;
        c.element_names = names;

        let vfs = SimVfs::new();
        drop(Store::create(&vfs, "db", &c).expect("create"));
        let mut v = ReadView::open(&vfs, "db", tiny_pool()).expect("view");
        for (i, want) in c.param_labels.iter().enumerate() {
            assert_eq!(&v.label(i).expect("label"), want, "label {i}");
        }
        for (e, want) in c.element_names.iter().enumerate() {
            assert_eq!(v.element_name(e as u32).expect("name").as_ref(), Some(want), "name {e}");
        }
        assert_eq!(v.query_name(), "q");
    }

    /// A lookup pins each page it crosses once: with strings of at most
    /// 16 bytes a stride's walk spans at most two pages, so one `label`
    /// or `element_name` call costs at most two pool probes. A walk that
    /// probed the pool per skipped string would cost up to a stride's
    /// worth here.
    #[test]
    fn one_lookup_touches_at_most_two_frames() {
        let n_params = 3 * LABEL_STRIDE + 5;
        let c = content(n_params);
        assert!(c.param_labels.iter().chain(&c.element_names).all(|s| s.len() <= 16));
        let vfs = SimVfs::new();
        drop(Store::create(&vfs, "db", &c).expect("create"));
        let mut v = ReadView::open(&vfs, "db", tiny_pool()).expect("view");
        let probes = |v: &ReadView| {
            let s = v.pool_stats();
            s.hits + s.misses
        };
        for i in 0..n_params {
            let before = probes(&v);
            v.label(i).expect("label");
            assert!(probes(&v) - before <= 2, "label {i} took {} probes", probes(&v) - before);
        }
        for e in 0..c.element_names.len() as u32 {
            let before = probes(&v);
            v.element_name(e).expect("name");
            assert!(probes(&v) - before <= 2, "name {e} took {} probes", probes(&v) - before);
        }
    }

    /// Reader threads scan while the writer re-marks and checkpoints:
    /// every answer must reflect exactly one committed state — all
    /// deltas flipped or none, never a half-checkpointed mix.
    #[test]
    fn attached_view_never_observes_a_torn_checkpoint() {
        let n_pairs = 400; // weight section spans several pages
        let vfs = SimVfs::new();
        let mut store =
            Store::create_with(&vfs, "db", &content(n_pairs), &StoreOptions::default())
                .expect("create");
        let view = ReadView::attach(&store, &vfs, "db", tiny_pool()).expect("attach");

        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let stop = std::sync::Arc::clone(&stop);
            let mut view = view;
            std::thread::spawn(move || {
                let mut scans = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // one logical read spanning many weight pages
                    let mut seen = std::collections::HashSet::new();
                    for i in (0..n_pairs).step_by(37) {
                        let a = view.answer_pairs(i).expect("scan");
                        // bases inside a pair differ by 1, deltas by ±2,
                        // so a committed state shows a gap of exactly
                        // +1 (sign +1) or −3 (sign −1) — anything else
                        // is a torn mix of two checkpoints
                        let gap = a[0].1 - a[1].1;
                        assert!(
                            gap == 1 || gap == -3,
                            "gap {gap} is not a committed state"
                        );
                        seen.insert(gap < 0);
                    }
                    scans += 1;
                }
                scans
            })
        };

        for round in 0..40 {
            let mut txn = store.begin();
            let sign = if round % 2 == 0 { -1 } else { 1 };
            for e in 0..(2 * n_pairs as u32) {
                let d = if e % 2 == 0 { sign } else { -sign };
                txn.set_delta(e, d).expect("delta");
            }
            txn.commit().expect("commit");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let scans = reader.join().expect("reader");
        assert!(scans > 0, "reader must have scanned at least once");
    }
}
