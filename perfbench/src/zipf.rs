//! The users of a resident server. One generator thread multiplexes
//! keep-alive connections and keeps each one busy: a connection sends
//! its next request as soon as its previous response has arrived. The
//! mix is Zipf(1.1) over parameters: 80% plain answers, 10% aggregates,
//! 10% answers stamped for a recipient drawn (by Zipf too) from the
//! registry, which holds more keys than a shard's plan cache. Sampled
//! responses are checked byte for byte after the burst.

use crate::carrier::Zipf;
use crate::owner::{self, Ctx, Marked};
use crate::Inject;
use qpwm_fingerprint::{Fingerprinter, KeyRegistry};
use qpwm_rng::Rng;
use qpwm_serve::client::parse_answer_tuples;
use qpwm_serve::reactor::{Event, Poller};
use qpwm_serve::{FingerprintContext, ServeData, Server, ServerConfig};
use qpwm_store::{DiskVfs, Store};
use qpwm_structures::{Element, Weights};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Zipf exponent of the parameter and recipient draws.
const ZIPF_S: f64 = 1.1;

/// Keep-alive connections of the generator.
pub const CONNS: usize = 96;

/// One response in this many is checked byte for byte.
const CHECK_EVERY: u64 = 16;

/// Entries of the server's answer cache (the server's default).
pub const CACHE_ENTRIES: usize = 1024;

/// The request mix, as recorded with every result.
pub const MIX: &str = "zipf s=1.1: 80% answer, 10% aggregate, 10% stamped answer";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Answer,
    Aggregate,
    Stamped(usize),
}

/// One request of the mix.
#[derive(Clone, Copy)]
struct Req {
    kind: Kind,
    param: usize,
}

/// What the checks compare responses against.
pub struct Expect {
    data: ServeData,
    marked: Weights,
    fp: Fingerprinter,
    registry: KeyRegistry,
}

impl Expect {
    /// `Ok` iff `body` is exactly what the server must send for `req`.
    fn check(&self, req: Req, body: &[u8]) -> Result<(), String> {
        let body = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_owned())?;
        match req.kind {
            Kind::Answer => equal(body, &self.data.answer_json(req.param), req),
            Kind::Aggregate => equal(body, &self.data.aggregate_json(req.param), req),
            Kind::Stamped(r) => {
                let plain = parse_answer_tuples(&self.data.answer_json(req.param))?;
                let got = parse_answer_tuples(body)?;
                let deltas = self.fp.delta_map(self.registry.key_at(r as u64));
                let want: Vec<(Vec<Element>, i64)> = plain
                    .into_iter()
                    .map(|(t, _)| {
                        let w = self.marked.get(&t) + deltas.get(&t).copied().unwrap_or(0);
                        (t, w)
                    })
                    .collect();
                if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "stamped answer {} for recipient {r} does not match delta_map",
                        req.param
                    ))
                }
            }
        }
    }
}

fn equal(got: &str, want: &str, req: Req) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{:?} {} differs from the expected body",
            req.kind, req.param
        ))
    }
}

/// The request stream: Zipf parameters, 80/10/10 mix, recipients drawn
/// from the registry by Zipf too (some recipients are far busier than
/// others).
struct Mix {
    params: Zipf,
    recipients: Zipf,
    rng: Rng,
}

impl Mix {
    fn next(&mut self) -> Req {
        let param = self.params.sample(&mut self.rng);
        let u = self.rng.gen_f64();
        let kind = if u < 0.8 {
            Kind::Answer
        } else if u < 0.9 {
            Kind::Aggregate
        } else {
            Kind::Stamped(self.recipients.sample(&mut self.rng))
        };
        Req { kind, param }
    }
}

fn target(req: Req) -> String {
    match req.kind {
        Kind::Answer => format!("/answer?i={}", req.param),
        Kind::Aggregate => format!("/aggregate?i={}", req.param),
        Kind::Stamped(r) => format!(
            "/answer?i={}&recipient={}",
            req.param,
            owner::recipient_name(r)
        ),
    }
}

/// One keep-alive connection of the generator.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// The request on the wire, and whether its response is checked.
    inflight: Option<(Req, bool)>,
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_nonblocking(true).map_err(|e| e.to_string())?;
    Ok(s)
}

/// The generator's connections, registered with one poller, so that
/// the generator sleeps while it waits for responses instead of taking
/// a core from the server it measures.
struct Generator {
    addr: String,
    conns: Vec<Conn>,
    poller: Poller,
    events: Vec<Event>,
}

impl Generator {
    fn open(addr: &str, conns: usize) -> Result<Generator, String> {
        let mut g = Generator {
            addr: addr.to_owned(),
            conns: Vec::with_capacity(conns),
            poller: Poller::new(conns).map_err(|e| format!("poller: {e}"))?,
            events: Vec::with_capacity(conns),
        };
        for i in 0..conns {
            let stream = connect(addr)?;
            g.poller
                .add(stream.as_raw_fd(), i as u64, false)
                .map_err(|e| format!("poller: {e}"))?;
            g.conns.push(Conn {
                stream,
                buf: Vec::new(),
                inflight: None,
            });
        }
        Ok(g)
    }

    /// Replaces connection `i` with a fresh one (closing the old one
    /// also takes it out of the poller).
    fn reconnect(&mut self, i: usize) -> Result<(), String> {
        let stream = connect(&self.addr)?;
        self.poller
            .add(stream.as_raw_fd(), i as u64, false)
            .map_err(|e| format!("poller: {e}"))?;
        let c = &mut self.conns[i];
        c.stream = stream;
        c.buf.clear();
        c.inflight = None;
        Ok(())
    }
}

/// A parsed response head: `(status, body range, close)`.
type Head = Result<(u16, std::ops::Range<usize>, bool), String>;

/// A complete response in `buf`, if one has arrived.
fn parse_response(buf: &[u8]) -> Option<Head> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return Some(Err("response head is not UTF-8".into())),
    };
    let status = head.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok());
    let mut len = None;
    let mut close = false;
    for line in head.lines().skip(1) {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        if k.eq_ignore_ascii_case("content-length") {
            len = v.trim().parse::<usize>().ok();
        } else if k.eq_ignore_ascii_case("connection") && v.trim().eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    let (Some(status), Some(len)) = (status, len) else {
        return Some(Err("response head lacks a status or Content-Length".into()));
    };
    let start = head_end + 4;
    (buf.len() >= start + len).then(|| Ok((status, start..start + len, close)))
}

/// Keeps every connection busy for `seconds`: each sends its next
/// request as soon as its previous response has arrived. Sampled
/// responses are kept for checking afterwards, so that checking never
/// slows the users. Returns the number of responses.
fn drive(
    g: &mut Generator,
    mix: &mut Mix,
    seconds: f64,
    sampled: &mut Vec<(Req, Vec<u8>)>,
    tally: &crate::report::Tally,
) -> Result<usize, String> {
    let mut tmp = vec![0u8; 64 * 1024];
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let drain_deadline = end + Duration::from_secs(5);
    let (mut sent, mut received) = (0u64, 0usize);
    loop {
        let now = Instant::now();
        if now < end {
            for c in g.conns.iter_mut().filter(|c| c.inflight.is_none()) {
                let req = mix.next();
                let request = format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", target(req));
                write_all_nonblocking(&mut c.stream, request.as_bytes())?;
                c.inflight = Some((req, sent.is_multiple_of(CHECK_EVERY)));
                sent += 1;
            }
        }
        let busy = g.conns.iter().filter(|c| c.inflight.is_some()).count();
        if now >= end && busy == 0 {
            break;
        }
        if now > drain_deadline {
            return Err(format!(
                "{busy} requests still in flight after the drain deadline"
            ));
        }
        let until = if now < end { end } else { drain_deadline };
        g.poller
            .wait(Some(until.saturating_duration_since(now)), &mut g.events)
            .map_err(|e| format!("poller: {e}"))?;
        // collect whatever responses have arrived
        for k in 0..g.events.len() {
            let i = g.events[k].token as usize;
            let c = &mut g.conns[i];
            match c.stream.read(&mut tmp) {
                Ok(0) => {
                    if c.inflight.is_some() {
                        tally.op(Err("the server closed a connection mid-request".into()));
                    }
                    g.reconnect(i)?;
                    continue;
                }
                Ok(n) => c.buf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
            let Some(parsed) = parse_response(&c.buf) else {
                continue;
            };
            let Some((req, check)) = c.inflight.take() else {
                return Err("a response arrived with no request in flight".into());
            };
            let (status, body, close) = parsed?;
            received += 1;
            if status != 200 {
                tally.op(Err(format!("{} returned {status}", target(req))));
            } else if check {
                sampled.push((req, c.buf[body].to_vec()));
            } else {
                tally.op(Ok(()));
            }
            c.buf.clear();
            if close {
                g.reconnect(i)?;
            }
        }
    }
    Ok(received)
}

fn write_all_nonblocking(stream: &mut TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    Ok(())
}

/// Serves `m`'s store on the resident plane: opens it, loads its
/// content into `ServeData`, and starts a one-shard server with the
/// default answer cache and a `FingerprintContext` over `registry` and
/// `fp`. Returns the server and what its responses must equal.
pub fn serve_resident(
    ctx: &Ctx,
    parent: u64,
    op: u64,
    m: &Marked,
    registry: &KeyRegistry,
    fp: &Fingerprinter,
) -> Result<(Server, Expect), String> {
    let tr = ctx.tr;
    let path = m.path.as_str();
    let (content, _) = tr.span("store.open", parent, op, |_| -> Result<_, String> {
        let mut store = Store::open(&DiskVfs::new(""), path).map_err(|e| format!("{path}: {e}"))?;
        store.content().map_err(|e| format!("{path}: {e}"))
    });
    let content = content?;
    // one copy to serve, one to check the responses against
    let (datas, _) = tr.span("serve.data", parent, op, |_| -> Result<_, String> {
        let family = content.family().map_err(|e| e.to_string())?;
        let make = || {
            ServeData::new(
                family.clone(),
                content.marked_weights(),
                content.param_labels.clone(),
                Some(content.element_names.clone()),
                content.query_name.clone(),
            )
        };
        Ok((make(), make()))
    });
    let (data, data_check) = datas?;
    let (fctx, _) = tr.span("serve.fingerprint", parent, op, |_| {
        FingerprintContext::new(&data, registry.clone(), fp.clone(), None)
    });
    let config = ServerConfig {
        shards: 1,
        cache_entries: CACHE_ENTRIES,
        fingerprint: Some(fctx?),
        ..Default::default()
    };
    let expect = Expect {
        data: data_check,
        marked: content.marked_weights(),
        fp: fp.clone(),
        registry: registry.clone(),
    };
    let (server, _) = tr.span("serve.start", parent, op, |_| Server::start(data, config));
    let server = server.map_err(|e| format!("starting the resident server: {e}"))?;
    Ok((server, expect))
}

/// What one burst of users measured, for the per-layer metrics.
pub struct Burst {
    /// Answer-cache `(hits, misses)` during the burst.
    pub cache: (u64, u64),
    /// Stamping-plan cache `(hits, misses)` during the burst.
    pub plan: (u64, u64),
    /// Requests shed during the burst.
    pub shed: u64,
    /// Requests served degraded during the burst.
    pub degraded: u64,
    /// Server-side µs per request of `answer` and `aggregate` (traced
    /// runs; `/metrics` scraped around the burst).
    pub service_us: Option<(f64, f64)>,
    /// Requests completed.
    pub requests: usize,
}

/// Runs the users against `server` for `seconds`, then checks the
/// sampled responses against `expect`. Every response counts as one
/// operation; a non-200 or a wrong body is a failed one.
pub fn burst(
    ctx: &Ctx,
    server: &Server,
    expect: &Expect,
    seconds: f64,
    seed: u64,
) -> Result<Burst, String> {
    let addr = server.addr().to_string();
    let mut mix = Mix {
        params: Zipf::new(
            expect.data.num_parameters(),
            ZIPF_S,
            &mut Rng::seed_from_u64(seed ^ 0x21F),
        ),
        recipients: Zipf::new(
            expect.registry.len(),
            ZIPF_S,
            &mut Rng::seed_from_u64(seed ^ 0x2EC),
        ),
        rng: Rng::seed_from_u64(seed ^ 0x313),
    };
    let scrape = || {
        ctx.tr
            .enabled()
            .then(|| owner::scrape_service(&addr))
            .transpose()
    };
    let before = (
        server.cache_stats(),
        server.plan_cache_stats(),
        server.resilience_snapshot(),
        scrape()?,
    );
    let mut generator = Generator::open(&addr, CONNS)?;
    let mut sampled = Vec::new();
    let requests = drive(&mut generator, &mut mix, seconds, &mut sampled, ctx.tally)?;
    drop(generator);
    let after = (
        server.cache_stats(),
        server.plan_cache_stats(),
        server.resilience_snapshot(),
        scrape()?,
    );
    for (k, (req, mut body)) in sampled.into_iter().enumerate() {
        if k == 0 && ctx.inject == Some(Inject::CorruptResponse) {
            if let Some(b) = body.last_mut() {
                *b ^= 0x20;
            }
        }
        ctx.tally.op(expect.check(req, &body));
    }
    let delta = |(h0, m0): (u64, u64), (h1, m1): (u64, u64)| (h1 - h0, m1 - m0);
    let service_us = match (&before.3, &after.3) {
        (Some(b), Some(a)) => Some((
            owner::service_us(b, a, "answer").0,
            owner::service_us(b, a, "aggregate").0,
        )),
        _ => None,
    };
    Ok(Burst {
        cache: delta(before.0, after.0),
        plan: delta(before.1, after.1),
        shed: after.2 .1 - before.2 .1,
        degraded: after.2 .3 - before.2 .3,
        service_us,
        requests,
    })
}
