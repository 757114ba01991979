//! Per-layer measurements for the traced run.
//!
//! Each layer is timed from outside, by spans around calls into its
//! public API, on inputs recorded from a run of the composed system:
//!
//! * `workloads` — `AccessStream::next_op` on the lbm generators.
//! * `frontend` — cores, paging and the LLC against an ideal memory that
//!   answers every miss after a fixed latency.
//! * `memctrl` — the request stream recorded at the frontend→controller
//!   boundary, replayed pass by pass through `MemController::enqueue` /
//!   `run_until`.
//! * `dram` — the command stream the controller wrote to its
//!   `TraceSink`, replayed through `Subchannel::issue`.
//! * `trackers` — the ACT/REF/RFM hook stream each roster mitigator saw,
//!   replayed into a fresh `Mitigator`.
//! * `runner`/`telemetry` — a small observed campaign through `Lab` on the
//!   work pool, with its manifest written and parsed back.
//!
//! The recording run is a re-composition of `System`'s default
//! event-driven loop from the same public parts `System` uses. Every
//! replay is checked to reproduce the recorded statistics exactly, and
//! runs twice, with span recording paused and on, for the tracing
//! overhead. The same re-composition, with a span around each phase,
//! calibrates the sampled host profiler.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use mirza_bench::compare::compare_manifests;
use mirza_bench::experiments::table8;
use mirza_bench::lab::Lab;
use mirza_bench::scale::Scale;
use mirza_dram::address::{BankId, RowMapping};
use mirza_dram::command::Command;
use mirza_dram::device::Subchannel;
use mirza_dram::mitigation::{DeviceFault, MitigationStats, Mitigator, RefreshSlice};
use mirza_dram::stats::DeviceStats;
use mirza_dram::time::Ps;
use mirza_frontend::cache::{CacheOutcome, SetAssocCache};
use mirza_frontend::core::{AccessResult, Core, RunStatus};
use mirza_frontend::hash::FxHashMap;
use mirza_frontend::paging::PageAllocator;
use mirza_memctrl::controller::MemController;
use mirza_memctrl::mapping::AddressMapper;
use mirza_memctrl::request::{AccessKind, Completion, McStats, Request};
use mirza_sim::config::{MitigationConfig, SimConfig};
use mirza_sim::runner::try_build_traces;
use mirza_sim::system::{CoreSetup, System};
use mirza_telemetry::sink::TraceSink;
use mirza_telemetry::{Json, Telemetry};

use crate::report::{Checks, Metrics};
use crate::spans::{self, CHUNK};
use crate::suites::{commands, roster};

/// Fixed latency of the ideal memory the frontend runs against.
const IDEAL_LATENCY: Ps = Ps::from_ns(80);

/// Operations pulled from each workload generator.
const OPS_PER_STREAM: usize = 250_000;

/// Jobs of the observed campaign (the runner layer).
const CAMPAIGN_JOBS: usize = 2;

/// Epoch sampling period of the observed campaign, in picoseconds.
const CAMPAIGN_EPOCH_PS: u64 = 10_000_000;

// ---------------------------------------------------------------------
// Mitigator probe
// ---------------------------------------------------------------------

/// One tracker hook call.
#[derive(Debug, Clone)]
enum Hook {
    Act { bank: usize, row: u32, now: Ps },
    Ref { slice: RefreshSlice, now: Ps },
    Rfm { alert: bool, now: Ps },
}

/// Summed duration and count of timed hook calls.
#[derive(Debug, Default)]
struct HookClock {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl HookClock {
    fn take(&self) -> (u64, u64) {
        (self.ns.replace(0), self.calls.replace(0))
    }

    fn time<R>(&self, call: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = call();
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }

    /// Per-call cost of the clock itself, in nanoseconds, as
    /// `(inside, whole)`: the part a timed call's own duration includes,
    /// and the part the span around the calls sees.
    fn cost() -> (f64, f64) {
        const N: u32 = 200_000;
        let clock = HookClock::default();
        let started = Instant::now();
        for _ in 0..N {
            clock.time(|| black_box(()));
        }
        let whole = started.elapsed().as_nanos() as f64 / f64::from(N);
        (clock.take().0 as f64 / f64::from(N), whole)
    }
}

/// Pass-through `Mitigator` that logs or times the hook calls reaching
/// the tracker it wraps.
struct Probe {
    inner: Box<dyn Mitigator>,
    log: Option<Rc<RefCell<Vec<Hook>>>>,
    clock: Option<Rc<HookClock>>,
}

impl Probe {
    fn hook<R>(
        &mut self,
        hook: impl FnOnce() -> Hook,
        call: impl FnOnce(&mut dyn Mitigator) -> R,
    ) -> R {
        if let Some(log) = &self.log {
            log.borrow_mut().push(hook());
        }
        let inner = self.inner.as_mut();
        match &self.clock {
            Some(clock) => clock.time(|| call(inner)),
            None => call(inner),
        }
    }
}

impl Mitigator for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_activate(&mut self, bank: usize, row: u32, now: Ps) {
        self.hook(
            || Hook::Act { bank, row, now },
            |m| m.on_activate(bank, row, now),
        );
    }
    fn alert_pending(&self) -> bool {
        self.inner.alert_pending()
    }
    fn on_ref(&mut self, slice: &RefreshSlice, now: Ps) {
        self.hook(
            || Hook::Ref {
                slice: slice.clone(),
                now,
            },
            |m| m.on_ref(slice, now),
        );
    }
    fn on_rfm(&mut self, alert: bool, now: Ps) {
        self.hook(|| Hook::Rfm { alert, now }, |m| m.on_rfm(alert, now));
    }
    fn stats(&self) -> MitigationStats {
        self.inner.stats()
    }
    fn mapping(&self) -> Option<&RowMapping> {
        self.inner.mapping()
    }
    fn drain_mitigations(&mut self) -> Vec<(usize, u32)> {
        self.inner.drain_mitigations()
    }
    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.set_telemetry(telemetry);
    }
    fn inject_fault(&mut self, fault: &DeviceFault, now: Ps) -> bool {
        self.inner.inject_fault(fault, now)
    }
}

/// `Write` target shared with the trace sink the controllers own.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The event-driven loop, re-composed from public parts
// ---------------------------------------------------------------------

/// Device seed of sub-channel `s`, as `System::new` derives it.
fn device_seed(cfg: &SimConfig, s: u32) -> u64 {
    cfg.seed.wrapping_add(u64::from(s) * 7919)
}

fn build_device(cfg: &SimConfig, mitigator: Box<dyn Mitigator>) -> Subchannel {
    let geom = cfg.geometry;
    let mapping = RowMapping::for_geometry(cfg.metrics_mapping, &geom);
    let mut device = Subchannel::new(cfg.timing(), geom, mapping, mitigator);
    device.set_rowpress_weighting(cfg.rowpress);
    device
}

/// Cores, LLC and paging of one run: everything above the controller.
struct Frontend {
    llc: SetAssocCache,
    pager: PageAllocator,
    mapper: AddressMapper,
    owner: FxHashMap<u64, usize>,
    next_token: u64,
    issued: bool,
}

/// What sits below the frontend: the real controllers or ideal memory.
trait Backend {
    fn enqueue(&mut self, req: Request);
    fn advance(&mut self, t_end: Ps, out: &mut Vec<Completion>);
    /// The earliest instant the backend can next change state.
    fn next_event_ps(&mut self) -> Ps;
}

impl Frontend {
    fn new(cfg: &SimConfig) -> Self {
        Frontend {
            llc: SetAssocCache::new(cfg.llc_sets, 16),
            pager: PageAllocator::new(cfg.geometry.total_bytes()),
            mapper: AddressMapper::mop4(cfg.geometry),
            owner: FxHashMap::default(),
            next_token: 1,
            issued: false,
        }
    }

    fn enqueue(
        &mut self,
        backend: &mut dyn Backend,
        pa: u64,
        kind: AccessKind,
        now: Ps,
        owner: Option<usize>,
    ) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let addr = self.mapper.decode(pa);
        if let Some(core) = owner {
            self.owner.insert(token, core);
        }
        backend.enqueue(Request {
            id: token,
            addr,
            kind,
            arrival: now,
        });
        self.issued = true;
        token
    }

    /// The memory path of a benign core: page translation, then the LLC,
    /// then (on a miss) the backend, as `System` does it.
    fn access(
        &mut self,
        backend: &mut dyn Backend,
        core: usize,
        vaddr: u64,
        store: bool,
        now: Ps,
    ) -> AccessResult {
        let pa = self.pager.translate(core as u32, vaddr);
        match self.llc.access(pa / 64, store) {
            CacheOutcome::Hit => AccessResult::Ready,
            CacheOutcome::Miss { writeback } => {
                if let Some(line) = writeback {
                    self.enqueue(backend, line * 64, AccessKind::Write, now, None);
                }
                AccessResult::Pending(self.enqueue(backend, pa, AccessKind::Read, now, Some(core)))
            }
        }
    }
}

/// Span names for the three phases of a pass (`None` = no per-pass spans).
struct PhaseNames {
    frontend: &'static str,
    backend: &'static str,
    deliver: &'static str,
}

fn build_cores(cfg: &SimConfig, workload: &str) -> Result<Vec<Core>, String> {
    let streams = try_build_traces(workload, cfg.cores, cfg.seed, cfg.footprint_divisor)
        .map_err(|e| e.to_string())?;
    Ok(streams
        .into_iter()
        .enumerate()
        .map(|(i, t)| Core::new(i as u32, cfg.core_params, t, cfg.instructions_per_core))
        .collect())
}

/// The event-driven loop of `System` (its default path), without faults,
/// epochs or heartbeats. Each quantum runs every runnable core to the
/// horizon, lets the backend catch up and hands completions back, until
/// a pass neither issues nor delivers. A blocked core is parked until a
/// completion reaches it; when every core is parked, the clock skips to
/// the first quantum boundary that can host an event.
fn drive(
    cfg: &SimConfig,
    cores: &mut [Core],
    front: &mut Frontend,
    backend: &mut dyn Backend,
    names: Option<&PhaseNames>,
) -> Result<(), String> {
    let quantum = cfg.quantum;
    let idle_budget_ps = quantum.as_ps().saturating_mul(cfg.watchdog_idle_quanta);
    let mut t_end = quantum;
    let mut last_progress_end = Ps::ZERO;
    let mut completions = Vec::new();
    let mut runnable = vec![true; cores.len()];
    let mut status = vec![RunStatus::HorizonReached; cores.len()];
    let mut future: Vec<Vec<Ps>> = vec![Vec::new(); cores.len()];
    let span = |name: Option<&'static str>| name.map(spans::enter);
    while !cores.iter().all(Core::finished) {
        let mut progressed = false;
        loop {
            front.issued = false;
            let mut delivered = false;
            {
                let _g = span(names.map(|n| n.frontend));
                for core in cores.iter_mut() {
                    let id = core.id() as usize;
                    if core.finished() || !runnable[id] {
                        continue;
                    }
                    runnable[id] = false;
                    status[id] = core.run(t_end, |v, s, now| front.access(backend, id, v, s, now));
                }
            }
            {
                let _g = span(names.map(|n| n.backend));
                backend.advance(t_end, &mut completions);
            }
            {
                let _g = span(names.map(|n| n.deliver));
                for c in completions.drain(..) {
                    if let Some(owner) = front.owner.remove(&c.id) {
                        cores[owner].complete(c.id, c.done_at);
                        if c.done_at > t_end {
                            future[owner].push(c.done_at);
                        } else {
                            runnable[owner] = true;
                        }
                        delivered = true;
                    }
                }
            }
            if !(front.issued || delivered) {
                break;
            }
            progressed = true;
        }
        if progressed {
            last_progress_end = t_end;
        } else if t_end.as_ps() - last_progress_end.as_ps() >= idle_budget_ps {
            return Err(format!("no forward progress since {last_progress_end}"));
        }
        let mut next = t_end + quantum;
        if cores
            .iter()
            .all(|c| c.finished() || status[c.id() as usize] == RunStatus::Blocked)
        {
            let mut bound = last_progress_end.as_ps().saturating_add(idle_budget_ps);
            bound = bound.min(backend.next_event_ps().as_ps());
            for d in future.iter().flatten() {
                bound = bound.min(d.as_ps());
            }
            if bound > next.as_ps() {
                next = t_end + quantum * (bound - t_end.as_ps()).div_ceil(quantum.as_ps());
            }
        }
        for (i, core) in cores.iter().enumerate() {
            if core.finished() {
                continue;
            }
            if status[i] != RunStatus::Blocked {
                runnable[i] = true;
            }
            let waits = &mut future[i];
            let before = waits.len();
            waits.retain(|d| *d > next);
            if waits.len() < before {
                runnable[i] = true;
            }
        }
        t_end = next;
    }
    Ok(())
}

/// Memory that completes every request a fixed latency after it arrives.
struct IdealMemory {
    due: Vec<Completion>,
}

impl Backend for IdealMemory {
    fn enqueue(&mut self, req: Request) {
        self.due.push(Completion {
            id: req.id,
            done_at: req.arrival + IDEAL_LATENCY,
        });
    }
    fn advance(&mut self, _t_end: Ps, out: &mut Vec<Completion>) {
        out.append(&mut self.due);
    }
    fn next_event_ps(&mut self) -> Ps {
        Ps::MAX
    }
}

/// One call the loop made into the controllers.
enum McCall {
    Enqueue(Request),
    RunUntil(Ps),
    NextEvent,
}

/// The real controllers, optionally logging every call into them and
/// folding timed tracker calls into a span per `advance`.
struct Controllers {
    mcs: Vec<MemController>,
    log: Option<Vec<McCall>>,
    clock: Option<Rc<HookClock>>,
}

impl Backend for Controllers {
    fn enqueue(&mut self, req: Request) {
        if let Some(log) = &mut self.log {
            log.push(McCall::Enqueue(req));
        }
        self.mcs[req.addr.bank.subch as usize].enqueue(req);
    }
    fn advance(&mut self, t_end: Ps, out: &mut Vec<Completion>) {
        if let Some(log) = &mut self.log {
            log.push(McCall::RunUntil(t_end));
        }
        for mc in &mut self.mcs {
            mc.run_until(t_end, out);
        }
        if let Some(clock) = &self.clock {
            let (ns, calls) = clock.take();
            if calls > 0 {
                spans::record_within("replica.tracker", ns, calls);
            }
        }
    }
    fn next_event_ps(&mut self) -> Ps {
        if let Some(log) = &mut self.log {
            log.push(McCall::NextEvent);
        }
        self.mcs
            .iter_mut()
            .map(MemController::next_event_ps)
            .min()
            .unwrap_or(Ps::MAX)
    }
}

/// Statistics a run leaves in its controllers and devices.
#[derive(Debug, Clone, PartialEq)]
struct LayerStats {
    mc: Vec<McStats>,
    device: Vec<DeviceStats>,
    tracker: Vec<MitigationStats>,
}

fn layer_stats(mcs: &[MemController]) -> LayerStats {
    LayerStats {
        mc: mcs.iter().map(|m| *m.stats()).collect(),
        device: mcs.iter().map(|m| *m.device().stats()).collect(),
        tracker: mcs.iter().map(|m| m.device().mitigation_stats()).collect(),
    }
}

/// Everything recorded at the layer boundaries of one run.
struct Recording {
    calls: Vec<McCall>,
    commands: String,
    hooks: Vec<Vec<Hook>>,
    stats: LayerStats,
}

/// Runs `cfg` on `workload` through the re-composed loop, recording the
/// calls into the controllers, their command trace and each tracker's
/// hook stream.
fn record(cfg: &SimConfig, workload: &str) -> Result<Recording, String> {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::enabled().with_trace(TraceSink::new(Box::new(buf.clone())));
    let mut logs = Vec::new();
    let mcs = (0..cfg.geometry.subchannels)
        .map(|s| {
            let log = Rc::new(RefCell::new(Vec::new()));
            logs.push(log.clone());
            let probe = Probe {
                inner: cfg.mitigation.build(&cfg.geometry, device_seed(cfg, s)),
                log: Some(log),
                clock: None,
            };
            let mut mc = MemController::new(
                build_device(cfg, Box::new(probe)),
                cfg.mitigation.mc_config(),
                s,
            );
            mc.set_telemetry(telemetry.clone());
            mc
        })
        .collect();
    let mut backend = Controllers {
        mcs,
        log: Some(Vec::new()),
        clock: None,
    };
    let mut cores = build_cores(cfg, workload)?;
    drive(cfg, &mut cores, &mut Frontend::new(cfg), &mut backend, None)?;
    telemetry.flush();
    let stats = layer_stats(&backend.mcs);
    drop(backend.mcs);
    drop(telemetry);
    let commands = String::from_utf8(std::mem::take(&mut *buf.0.borrow_mut()))
        .map_err(|e| format!("command trace is not UTF-8: {e}"))?;
    Ok(Recording {
        calls: backend.log.take().unwrap_or_default(),
        commands,
        hooks: logs.into_iter().map(|l| l.take()).collect(),
        stats,
    })
}

// ---------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------

/// Host seconds of the layer replays with span recording paused and on.
#[derive(Debug, Default)]
struct Overhead {
    plain: f64,
    traced: f64,
}

impl Overhead {
    /// Runs `replay` with spans paused and then with spans on, adding
    /// each side's host time; returns the traced side's result.
    fn pair<R>(&mut self, mut replay: impl FnMut() -> R) -> R {
        spans::pause(true);
        let started = Instant::now();
        black_box(replay());
        self.plain += started.elapsed().as_secs_f64();
        spans::pause(false);
        let started = Instant::now();
        let r = replay();
        self.traced += started.elapsed().as_secs_f64();
        r
    }
}

/// Replays the recorded calls into fresh controllers, one chunk span per
/// [`CHUNK`] calls. The same call sequence as the recording run must give
/// the same statistics.
fn replay_memctrl(cfg: &SimConfig, rec: &Recording) -> LayerStats {
    let mut mcs: Vec<MemController> = (0..cfg.geometry.subchannels)
        .map(|s| {
            let m = cfg.mitigation.build(&cfg.geometry, device_seed(cfg, s));
            MemController::new(build_device(cfg, m), cfg.mitigation.mc_config(), s)
        })
        .collect();
    let mut out = Vec::new();
    for chunk in rec.calls.chunks(CHUNK) {
        let requests = chunk
            .iter()
            .filter(|c| matches!(c, McCall::Enqueue(_)))
            .count();
        let _g = spans::enter_calls("memctrl.replay", requests as u64);
        for call in chunk {
            match call {
                McCall::Enqueue(req) => mcs[req.addr.bank.subch as usize].enqueue(*req),
                McCall::RunUntil(t_end) => {
                    for mc in &mut mcs {
                        mc.run_until(*t_end, &mut out);
                    }
                    out.clear();
                }
                McCall::NextEvent => {
                    for mc in &mut mcs {
                        black_box(mc.next_event_ps());
                    }
                }
            }
        }
    }
    layer_stats(&mcs)
}

fn field(tok: Option<&str>, prefix: &str) -> Result<u32, String> {
    tok.and_then(|t| t.strip_prefix(prefix))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad trace field, want {prefix}<n>"))
}

/// Parses the controllers' DRAMSim3-style trace lines
/// (`<t_ps> <CMD> sc<n> [ra<r> ba<b> row<r>|col<c>]`).
fn parse_commands(text: &str) -> Result<Vec<(u32, Command, Ps)>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let mut it = line.split_ascii_whitespace();
        let t: u64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad trace line {line:?}"))?;
        let op = it.next().unwrap_or("");
        let subch = field(it.next(), "sc")?;
        let mut bank = || -> Result<BankId, String> {
            let rank = field(it.next(), "ra")?;
            let bank = field(it.next(), "ba")?;
            Ok(BankId::new(subch, rank, bank))
        };
        let cmd = match op {
            "ACT" => {
                let bank = bank()?;
                Command::Act {
                    bank,
                    row: field(it.next(), "row")?,
                }
            }
            "PRE" => Command::Pre { bank: bank()? },
            "PREA" => Command::PreAll,
            "RD" => {
                let bank = bank()?;
                Command::Rd {
                    bank,
                    col: field(it.next(), "col")?,
                }
            }
            "WR" => {
                let bank = bank()?;
                Command::Wr {
                    bank,
                    col: field(it.next(), "col")?,
                }
            }
            "REF" => Command::Ref,
            "RFM" => Command::Rfm { alert: false },
            "RFM-ABO" => Command::Rfm { alert: true },
            _ => return Err(format!("unknown command in {line:?}")),
        };
        out.push((subch, cmd, Ps::from_ps(t)));
    }
    Ok(out)
}

/// Replays the command stream into fresh devices, one chunk span per
/// [`CHUNK`] commands.
fn replay_dram(cfg: &SimConfig, cmds: &[(u32, Command, Ps)]) -> Vec<DeviceStats> {
    let mut devices: Vec<Subchannel> = (0..cfg.geometry.subchannels)
        .map(|s| {
            let mut d = build_device(
                cfg,
                cfg.mitigation.build(&cfg.geometry, device_seed(cfg, s)),
            );
            d.set_subch_index(s);
            d
        })
        .collect();
    for chunk in cmds.chunks(CHUNK) {
        let _g = spans::enter_calls("dram.issue", chunk.len() as u64);
        for &(s, cmd, at) in chunk {
            black_box(devices[s as usize].issue(cmd, at));
        }
    }
    devices.iter().map(|d| *d.stats()).collect()
}

/// Replays one tracker's hook stream into a fresh instance.
fn replay_tracker(m: &mut dyn Mitigator, hooks: &[Hook], span: &'static str) {
    for chunk in hooks.chunks(CHUNK) {
        let _g = spans::enter_calls(span, chunk.len() as u64);
        for h in chunk {
            match h {
                Hook::Act { bank, row, now } => m.on_activate(*bank, *row, *now),
                Hook::Ref { slice, now } => m.on_ref(slice, *now),
                Hook::Rfm { alert, now } => m.on_rfm(*alert, *now),
            }
        }
    }
}

fn tracker_span(name: &str) -> &'static str {
    match name {
        "mirza" => "trackers.mirza",
        "prac" => "trackers.prac",
        "mithril" => "trackers.mithril",
        "trr" => "trackers.trr",
        _ => "trackers.mint-rfm",
    }
}

fn ns_per(span: &str, count: u64) -> f64 {
    spans::totals()
        .get(span)
        .map_or(0.0, |t| t.total_ns as f64 / count.max(1) as f64)
}

// ---------------------------------------------------------------------
// Layer suite
// ---------------------------------------------------------------------

/// Generator, frontend, controller, device and tracker layers, measured
/// on the lbm layer cell at `scale` (instructions cut to half).
pub fn run_layer_replays(scale: &Scale, metrics: &mut Metrics, checks: &mut Checks) {
    let mut base = scale.sim_config(MitigationConfig::None);
    base.instructions_per_core = scale.instructions / 2;
    let workload = "lbm";

    let mut overhead = Overhead::default();

    // Workload generators.
    let generated = overhead.pair(|| {
        let mut streams =
            try_build_traces(workload, base.cores, base.seed, base.footprint_divisor)?;
        let (mut ops, mut sink) = (0u64, 0u64);
        for s in &mut streams {
            for _ in 0..OPS_PER_STREAM / CHUNK {
                let _g = spans::enter_calls("workloads.next_op", CHUNK as u64);
                for _ in 0..CHUNK {
                    if let Some(op) = s.next_op() {
                        sink = sink.wrapping_add(op.vaddr ^ u64::from(op.nonmem));
                        ops += 1;
                    }
                }
            }
        }
        black_box(sink);
        Ok::<_, mirza_sim::SimError>(ops)
    });
    let want = (base.cores * (OPS_PER_STREAM / CHUNK) * CHUNK) as u64;
    let ops = *generated.as_ref().unwrap_or(&0);
    checks.check(ops == want, || {
        format!("workloads: {generated:?} ops, want {want}")
    });
    metrics.put("workloads.ops", ops as f64, "count");
    metrics.put(
        "workloads.ns_per_op",
        ns_per("workloads.next_op", ops),
        "ns",
    );

    // Frontend against ideal memory.
    let (mut instr, mut hit_ratio) = (0u64, 0.0);
    let ideal = build_cores(&base, workload).and_then(|mut cores| {
        let mut front = Frontend::new(&base);
        let _g = spans::enter("frontend.ideal_run");
        drive(
            &base,
            &mut cores,
            &mut front,
            &mut IdealMemory { due: Vec::new() },
            None,
        )?;
        instr = cores.iter().map(Core::instructions).sum();
        let (h, m) = (front.llc.hits(), front.llc.misses());
        hit_ratio = h as f64 / (h + m).max(1) as f64;
        Ok(())
    });
    let want = base.instructions_per_core * base.cores as u64;
    checks.check(ideal.is_ok() && instr == want, || {
        format!("frontend: {ideal:?}, {instr} instructions, want {want}")
    });
    metrics.put("frontend.kinstr", instr as f64 / 1e3, "kinstr");
    metrics.put(
        "frontend.ns_per_kinstr",
        ns_per("frontend.ideal_run", instr / 1000),
        "ns",
    );
    metrics.put("frontend.llc_hit_ratio", hit_ratio, "frac");

    // Controller, device and trackers: record under each configuration,
    // then replay each layer alone.
    let mut configs = vec![("none", MitigationConfig::None)];
    configs.extend(roster(scale));
    let (mut requests, mut row_hits, mut row_total) = (0u64, 0u64, 0u64);
    let (mut alerts, mut rfms, mut n_cmds) = (0u64, 0u64, 0u64);
    for (name, mitigation) in configs {
        let mut cfg = base.clone();
        cfg.mitigation = mitigation;
        let rec = match record(&cfg, workload) {
            Ok(r) => r,
            Err(e) => {
                checks.check(false, || format!("recording under {name}: {e}"));
                continue;
            }
        };
        let replayed = overhead.pair(|| replay_memctrl(&cfg, &rec));
        checks.check(replayed == rec.stats, || {
            format!("memctrl replay under {name} diverged from the recording")
        });
        for m in &rec.stats.mc {
            requests += m.reads_done + m.writes_done;
            row_hits += m.row_hits;
            row_total += m.row_hits + m.row_misses + m.row_conflicts;
            alerts += m.alerts_serviced;
            rfms += m.rfms_issued;
        }
        match parse_commands(&rec.commands) {
            Ok(cmds) => {
                n_cmds += cmds.len() as u64;
                let devices = overhead.pair(|| replay_dram(&cfg, &cmds));
                checks.check(devices == rec.stats.device, || {
                    format!("dram replay under {name} diverged from the recording")
                });
            }
            Err(e) => checks.check(false, || format!("command trace under {name}: {e}")),
        }
        if name == "none" {
            continue;
        }
        let span = tracker_span(name);
        let (mut acts, mut mitigations) = (0u64, 0u64);
        for (s, hooks) in rec.hooks.iter().enumerate() {
            let m = overhead.pair(|| {
                let mut m = cfg
                    .mitigation
                    .build(&cfg.geometry, device_seed(&cfg, s as u32));
                replay_tracker(m.as_mut(), hooks, span);
                m
            });
            let st = m.stats();
            checks.check(st == rec.stats.tracker[s], || {
                format!("{span} replay on sub-channel {s} diverged from the recording")
            });
            acts += st.acts_observed;
            mitigations += st.mitigations;
        }
        metrics.put(format!("{span}.acts"), acts as f64, "count");
        metrics.put(format!("{span}.ns_per_act"), ns_per(span, acts), "ns");
        metrics.put(
            format!("{span}.mitigations_per_kact"),
            mitigations as f64 * 1e3 / acts.max(1) as f64,
            "1/kact",
        );
    }
    metrics.put("memctrl.requests", requests as f64, "count");
    metrics.put(
        "memctrl.ns_per_request",
        ns_per("memctrl.replay", requests),
        "ns",
    );
    metrics.put(
        "memctrl.row_hit_ratio",
        row_hits as f64 / row_total.max(1) as f64,
        "frac",
    );
    metrics.put("memctrl.alerts_serviced", alerts as f64, "count");
    metrics.put("memctrl.rfms_issued", rfms as f64, "count");
    metrics.put("dram.commands", n_cmds as f64, "count");
    metrics.put("dram.ns_per_command", ns_per("dram.issue", n_cmds), "ns");
    metrics.put(
        "trace.overhead_frac",
        overhead.traced / overhead.plain.max(1e-9) - 1.0,
        "frac",
    );
}

// ---------------------------------------------------------------------
// Profiler calibration
// ---------------------------------------------------------------------

/// Profiler phases compared, with the replica span measuring each.
const CALIBRATED: [(&str, &str); 4] = [
    ("frontend", "replica.frontend"),
    ("device", "replica.device"),
    ("tracker", "replica.tracker"),
    ("scheduler", "replica.scheduler"),
];

/// Puts the sampled profiler's phase shares next to shares measured by
/// spans. Each calibration cell runs twice: through `System` on its
/// default path with `Telemetry::with_profiler`, and through the
/// re-composed loop with a span around every phase of every pass and
/// every tracker call timed. The clock's own per-call cost, measured
/// beforehand, is taken out of the tracker and device spans. Shares are
/// of the attributed time (frontend + device + scheduler), so the
/// tracker share nests inside the device share in both. Reports the
/// largest absolute gap over the cells, in percentage points.
pub fn calibrate_profiler(scale: &Scale, metrics: &mut Metrics, checks: &mut Checks) {
    let mut worst = [0.0f64; CALIBRATED.len()];
    let roster = roster(scale);
    let (clock_inside_ns, clock_whole_ns) = HookClock::cost();
    for (tracker, workload) in [("mithril", "lbm"), ("trr", "cam4")] {
        let Some(&(_, mitigation)) = roster.iter().find(|(n, _)| *n == tracker) else {
            continue;
        };
        let cfg = scale.sim_config(mitigation);
        let key = format!("{tracker}/{workload}");

        let profiled = (|| {
            let streams = try_build_traces(workload, cfg.cores, cfg.seed, cfg.footprint_divisor)
                .map_err(|e| e.to_string())?;
            let setups = streams
                .into_iter()
                .map(|t| CoreSetup::benign(t, cfg.instructions_per_core))
                .collect();
            let mut system = System::new(cfg.clone(), workload, setups);
            let telemetry = Telemetry::enabled().with_profiler();
            system.set_telemetry(telemetry.clone());
            let report = spans::time("calibration.profiled_run", || system.try_run())
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((report, telemetry.profile_json()))
        })();
        let (report, profile) = match profiled {
            Ok((r, Some(p))) => (r, p),
            Ok((_, None)) => {
                checks.check(false, || format!("calibration {key}: no profile"));
                continue;
            }
            Err(e) => {
                checks.check(false, || format!("calibration {key}: {e}"));
                continue;
            }
        };

        let clock = Rc::new(HookClock::default());
        let mcs = (0..cfg.geometry.subchannels)
            .map(|s| {
                let probe = Probe {
                    inner: cfg.mitigation.build(&cfg.geometry, device_seed(&cfg, s)),
                    log: None,
                    clock: Some(clock.clone()),
                };
                MemController::new(
                    build_device(&cfg, Box::new(probe)),
                    cfg.mitigation.mc_config(),
                    s,
                )
            })
            .collect();
        let mut backend = Controllers {
            mcs,
            log: None,
            clock: Some(clock),
        };
        let before = spans::totals();
        let mut front = Frontend::new(&cfg);
        let names = PhaseNames {
            frontend: "replica.frontend",
            backend: "replica.device",
            deliver: "replica.scheduler",
        };
        let ran = build_cores(&cfg, workload).and_then(|mut cores| {
            let _g = spans::enter("calibration.replica_run");
            drive(&cfg, &mut cores, &mut front, &mut backend, Some(&names))?;
            Ok(cores.iter().map(Core::instructions).sum::<u64>())
        });
        let after = spans::totals();
        let stats = layer_stats(&backend.mcs);
        let acts: u64 = stats.device.iter().map(|d| d.acts).sum();
        let reads: u64 = stats.device.iter().map(|d| d.reads).sum();
        let row_hits: u64 = stats.mc.iter().map(|m| m.row_hits).sum();
        let same = ran.as_ref().is_ok_and(|&i| i == report.instructions)
            && acts == report.device.acts
            && reads == report.device.reads
            && row_hits == report.mc.row_hits
            && front.llc.hits() == report.llc_hits
            && front.llc.misses() == report.llc_misses
            && commands(&report) > 0;
        checks.check(same, || {
            format!("calibration {key}: re-composed loop diverged from System")
        });

        let spent = |span: &str| {
            let a = after.get(span).copied().unwrap_or_default();
            let b = before.get(span).copied().unwrap_or_default();
            ((a.total_ns - b.total_ns) as f64, (a.calls - b.calls) as f64)
        };
        let (tracker_ns, tracker_calls) = spent("replica.tracker");
        let corrected = |span: &str| match span {
            "replica.tracker" => tracker_ns - tracker_calls * clock_inside_ns,
            "replica.device" => spent(span).0 - tracker_calls * clock_whole_ns,
            _ => spent(span).0,
        };
        let attributed = corrected("replica.frontend")
            + corrected("replica.device")
            + corrected("replica.scheduler");
        for (i, (phase, span)) in CALIBRATED.iter().enumerate() {
            let profiler_pct = profile
                .get("phases")
                .and_then(|p| p.get(phase))
                .and_then(|p| p.get("pct_of_attributed"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let span_pct = corrected(span) * 100.0 / attributed.max(1.0);
            eprintln!(
                "calibration {key}: {phase:<9} profiler {profiler_pct:6.2}%  spans {span_pct:6.2}%"
            );
            worst[i] = worst[i].max((profiler_pct - span_pct).abs());
        }
    }
    for ((phase, _), err) in CALIBRATED.iter().zip(worst) {
        metrics.put(format!("profiler.{phase}.share_err_pts"), err, "pts");
    }
}

// ---------------------------------------------------------------------
// Observed campaign: runner and telemetry layers
// ---------------------------------------------------------------------

fn table8_pairs(lab: &Lab) -> Vec<(MitigationConfig, &'static str)> {
    let mut pairs = Vec::new();
    for trhd in [500, 1000, 2000] {
        for w in lab.workloads() {
            pairs.push((lab.mirza(trhd), w));
        }
    }
    pairs
}

/// Runs the Table VIII cells at `scale` through `Lab` on the work pool
/// twice, plain and with manifest, epoch sampling and auditor armed; then
/// writes the manifest and parses it back as `repro --compare` does.
pub fn run_campaign(
    scale: &Scale,
    out_dir: &std::path::Path,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let mut plain = Lab::new(scale.clone());
    plain.jobs = CAMPAIGN_JOBS;
    let started = Instant::now();
    let plain_table = spans::time("runner.campaign_plain", || {
        plain.prewarm(&table8_pairs(&plain));
        table8(&mut plain)
    });
    let plain_secs = started.elapsed().as_secs_f64();

    let mut lab = Lab::new(scale.clone());
    lab.jobs = CAMPAIGN_JOBS;
    lab.enable_manifest();
    lab.begin_experiment("table8");
    lab.epoch_ps = Some(CAMPAIGN_EPOCH_PS);
    lab.epoch_dir = out_dir.join("epochs");
    lab.audit = true;
    let started = Instant::now();
    let observed_table = spans::time("runner.campaign_observed", || {
        lab.prewarm(&table8_pairs(&lab));
        table8(&mut lab)
    });
    let observed_secs = started.elapsed().as_secs_f64();
    checks.check(plain_table == observed_table, || {
        "campaign: telemetry changed the Table VIII output".to_string()
    });
    checks.check(lab.audit_failures().is_empty(), || {
        format!("campaign: auditor flagged {:?}", lab.audit_failures())
    });

    let Some(doc) = lab.manifest_json() else {
        checks.check(false, || "campaign: no manifest".to_string());
        return;
    };
    let path = out_dir.join("campaign_manifest.json");
    let started = Instant::now();
    let written = spans::time("telemetry.manifest_write", || {
        let text = doc.to_string_pretty() + "\n";
        std::fs::write(&path, &text).map(|()| text.len())
    });
    let write_secs = started.elapsed().as_secs_f64();
    let bytes = match written {
        Ok(n) => n as f64,
        Err(e) => {
            checks.check(false, || format!("campaign: cannot write manifest: {e}"));
            return;
        }
    };
    let started = Instant::now();
    let parsed = spans::time("telemetry.manifest_parse", || {
        std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
    });
    let parse_secs = started.elapsed().as_secs_f64();
    match &parsed {
        Ok(p) => {
            let diffs = compare_manifests(&doc, p);
            checks.check(diffs.is_empty(), || {
                format!("campaign: manifest round trip: {diffs:?}")
            });
        }
        Err(e) => checks.check(false, || format!("campaign: manifest parse: {e}")),
    }

    let runner = doc.get("runner");
    let num = |key: &str| {
        runner
            .and_then(|r| r.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let busy: f64 = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .flat_map(|e| e.get("runs").and_then(Json::as_arr).unwrap_or(&[]))
        .filter_map(|r| r.get("host_profile")?.get("total_secs")?.as_f64())
        .sum();
    let speedup = busy / num("wall_secs").max(1e-9);
    checks.check(num("cells") > 0.0, || {
        "campaign: the pool ran no cells".to_string()
    });
    metrics.put("runner.cells", num("cells"), "count");
    metrics.put("runner.busy_frac", speedup / CAMPAIGN_JOBS as f64, "frac");
    metrics.put("runner.speedup", speedup, "x");
    metrics.put("runner.retries", num("retries"), "count");
    metrics.put(
        "telemetry.overhead_frac",
        observed_secs / plain_secs.max(1e-9) - 1.0,
        "frac",
    );
    metrics.put(
        "telemetry.json_parse_mb_per_s",
        bytes / 1e6 / parse_secs.max(1e-9),
        "MB/s",
    );
    metrics.put(
        "telemetry.json_write_mb_per_s",
        bytes / 1e6 / write_secs.max(1e-9),
        "MB/s",
    );
    metrics.put("telemetry.manifest_mb", bytes / 1e6, "MB");
}
