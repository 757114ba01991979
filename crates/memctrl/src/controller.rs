//! The per-sub-channel memory controller: FR-FCFS scheduling with a soft
//! close-page policy, on-time refresh, proactive RFM (Bank-Activation
//!-Threshold counters) and reactive ALERT back-off servicing.

use std::collections::VecDeque;

use mirza_dram::address::BankId;
use mirza_dram::command::Command;
use mirza_dram::device::Subchannel;
use mirza_dram::mitigation::DeviceFault;
use mirza_dram::time::Ps;
use mirza_telemetry::{names, Json, StallBucket, Telemetry};

use crate::request::{AccessKind, Completion, McStats, Request};

/// Controller policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct McConfig {
    /// Proactive RFM: issue an RFM once any bank accumulates this many ACTs
    /// (`None` disables proactive RFM).
    pub rfm_bat: Option<u32>,
    /// Refresh postponement budget: demand traffic may run up to this many
    /// tREFI past a due REF before refresh preempts it (DDR5 permits up to
    /// 4 postponed REFs; 0 = strict on-time refresh).
    pub postpone_refs: u32,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    req: Request,
    needed_act: bool,
    needed_pre: bool,
    /// When the first ACT/PRE was issued on this request's behalf — the
    /// instant it became the oldest request needing its bank. `None` for
    /// pure row hits; feeds the span layer's queue-vs-bank stall split.
    own_cmd_at: Option<Ps>,
}

/// Winning demand command with its earliest legal instant. The scheduling
/// class and arrival that decided the FR-FCFS tie-break live in the packed
/// candidate (see [`pack_cand`]); only the materialized command survives.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    cmd: Command,
    at: Ps,
}

/// Candidate kinds. Banks holding a candidate are grouped by the shared
/// floor their selection instant takes: column reads, column writes,
/// conflict PREs, soft-close PREs, and ACTs, one kind per rank (tRRD and
/// tFAW are per rank). `KIND_ACT + rank` indexes a rank's ACT kind.
const KIND_RD: usize = 0;
const KIND_WR: usize = 1;
const KIND_CONFLICT: usize = 2;
const KIND_SOFTCLOSE: usize = 3;
const KIND_ACT: usize = 4;
/// [`BankEntry::kind`] of a bank without a candidate (empty queue, closed).
const NO_KIND: u8 = u8::MAX;

/// One bank's arbitration state: its candidate kind and the floor-free
/// candidate `pack_cand(max(local, arrival), class, arrival, flat)`.
#[derive(Debug, Clone, Copy)]
struct BankEntry {
    kind: u8,
    packed: u128,
}

const IDLE_ENTRY: BankEntry = BankEntry {
    kind: NO_KIND,
    packed: u128::MAX,
};

/// One candidate kind's cached FR-FCFS winner.
///
/// Exactness rule: `winner` is the `min` over the kind's members of the
/// floored candidate `pack_cand(max(key, floor, now), ..)`. It stays exact
/// while the members are unchanged and the effective floor moves within
/// `old ≤ new ≤ at(winner)`: the winner's `at` is then unchanged, and
/// every other member's candidate can only rise.
///
/// `floor` itself leaves `now` out, so a command that moves no floor of
/// this kind leaves the kind untouched. `now` rises only by issuing, and
/// stays inside the window without being stored: after a demand command
/// `now` is its instant, the `min` over every kind's winner, so it never
/// passes any winner's `at`; every other command (PREA, REF, RFM) empties
/// all kinds. `now` is therefore folded in only where a candidate is
/// evaluated afresh: a joiner's `min` and a dirty kind's rescan.
#[derive(Debug, Clone, Copy)]
struct KindWinner {
    /// Best floored member candidate, `u128::MAX` when the kind is empty.
    winner: u128,
    /// The kind's shared floor without `now`, pre-shifted into the `at`
    /// field of the pack.
    floor: u128,
}

const EMPTY_KIND: KindWinner = KindWinner {
    winner: u128::MAX,
    floor: 0,
};

/// The kinds whose shared floor issuing `cmd` moves, as a bitmask over
/// `KIND_*` (see [`MemController::refloor`] for the floors themselves).
/// An ACT moves its rank's tRRD/tFAW window, a column command the
/// column/bus floor of both directions, and a PRE only bank-local state.
/// PREA, REF and RFM empty every kind (`mark_all_stale`) and REF/RFM lift
/// the global block, so they re-floor every kind.
#[inline]
fn floors_moved_by(cmd: &Command) -> u32 {
    match *cmd {
        Command::Act { bank, .. } => 1 << (KIND_ACT + bank.rank as usize),
        Command::Rd { .. } | Command::Wr { .. } => (1 << KIND_RD) | (1 << KIND_WR),
        Command::Pre { .. } => 0,
        Command::PreAll | Command::Ref | Command::Rfm { .. } => u32::MAX,
    }
}

/// Packed candidate layout: `[at:48 | class:8 | arr:48 | flat:8]`.
/// Ordering a candidate by this u128 is exactly the FR-FCFS selection rule
/// — `(at, class, arrival)` strict `<` with the lowest flat index winning
/// ties (the bank a full ascending scan would visit first). 48 bits hold
/// any real instant (2^48 ps ≈ 78 h of simulated time); arrivals saturate
/// so the SoftClose `Ps::MAX` sentinel still compares above every real one.
const PACK_MASK48: u64 = (1 << 48) - 1;
const PACK_ARR: u32 = 8;
const PACK_CLASS: u32 = 8 + 48;
const PACK_AT: u32 = 8 + 48 + 8;
/// Everything below the `at` field: `[class | arr | flat]`.
const PACK_LOW_MASK: u128 = (1u128 << PACK_AT) - 1;

#[inline]
fn pack_cand(at: Ps, class: u8, arr: Ps, flat: usize) -> u128 {
    debug_assert!(at.as_ps() <= PACK_MASK48, "instant exceeds 48-bit pack");
    debug_assert!(flat <= 0xff, "flat bank index exceeds 8-bit pack");
    (u128::from(at.as_ps()) << PACK_AT)
        | (u128::from(class) << PACK_CLASS)
        | (u128::from(arr.as_ps().min(PACK_MASK48)) << PACK_ARR)
        | flat as u128
}

/// A shared floor shifted into the `at` field of the pack.
#[inline]
fn pack_floor(floor: Ps) -> u128 {
    u128::from(floor.as_ps().min(PACK_MASK48)) << PACK_AT
}

/// A floor-free candidate with the shared floor folded in: the same as
/// re-packing `max(key, floor)`, since the low bits match. Branchless, so
/// the winner fold is a plain u128 `min` (compare + cmov) rather than the
/// unpredictable branch chain a tuple compare produces.
#[inline]
fn floored(packed: u128, floor: u128) -> u128 {
    packed.max(floor | (packed & PACK_LOW_MASK))
}

/// Cached per-bank scheduling plan: what this bank's queue wants next,
/// with the *bank-local* release instant. The shared floors — rank ACT
/// window ([`Subchannel::act_floor`]), column/bus
/// ([`Subchannel::col_floor`]), global block and `now` — are applied at
/// selection time, so a plan only goes stale when the bank itself is
/// mutated (a command issued to it, a request enqueued on it, or a
/// blocking command touching every bank). Staleness lives in
/// `MemController::stale`: a set bit means this plan is out of date and
/// `refresh_plan` must run before it is read.
#[derive(Debug, Clone, Copy)]
enum BankPlan {
    /// Empty queue, bank precharged: nothing to do.
    Idle,
    /// Empty queue, row open: soft close-page PRE (class 3).
    SoftClose { local: Ps },
    /// Row hit waiting in the queue (class 0).
    Hit {
        local: Ps,
        col: u32,
        write: bool,
        arrival: Ps,
    },
    /// Row conflict: PRE on behalf of the oldest request (class 2).
    Conflict { local: Ps, arrival: Ps },
    /// Bank closed: ACT for the oldest request (class 1).
    Act { local: Ps, row: u32, arrival: Ps },
}

/// Commands issued by one [`MemController::run_until`] call, flushed to the
/// telemetry counters once per call instead of per command.
#[derive(Debug, Default)]
struct PassCounts {
    cmds: u64,
    reads: u64,
    writes: u64,
    acts: u64,
    refs: u64,
}

/// Memory controller driving one [`Subchannel`].
///
/// The controller is event-driven: [`MemController::run_until`] issues every
/// command whose legal issue instant falls inside the window and returns the
/// read/write completions produced.
pub struct MemController {
    device: Subchannel,
    cfg: McConfig,
    subch: u32,
    queues: Vec<VecDeque<Queued>>,
    /// Per-bank plan cache, flat-indexed alongside `queues`: what each
    /// bank wants next, read when its candidate wins.
    plans: Vec<BankPlan>,
    /// Arbitration mirror of `plans`, one slot per bank (see
    /// [`BankEntry`]). Maintained by `refresh_plan`.
    entries: Vec<BankEntry>,
    /// Bitmask words over the banks whose plan is out of date. A pick
    /// replans exactly these banks and moves them between kinds.
    stale: Vec<u64>,
    /// Per-kind cached winners (see [`KindWinner`]), indexed by `KIND_*`.
    kinds: Vec<KindWinner>,
    /// Member bitmask words of every kind: kind `k` owns
    /// `members[k * words..(k + 1) * words]`.
    members: Vec<u64>,
    /// Bitmask words per kind (`banks.div_ceil(64)`).
    words: usize,
    /// Kinds whose shared floor a command issued since the last pick
    /// moved ([`floors_moved_by`]): the next pick re-floors exactly these.
    moved: u32,
    /// Kinds whose cached winner a floor move or a departing winner left
    /// inexact: the next pick rescans exactly these over their members.
    dirty: u32,
    /// Flat index → bank coordinates, so materializing a winner and
    /// finding a bank's ACT kind need no division.
    bank_ids: Vec<BankId>,
    /// Banks whose activation counter has crossed `cfg.rfm_bat` since the
    /// last proactive RFM — the O(1) stand-in for scanning `raa`.
    raa_armed: u32,
    /// Outstanding requests across all bank queues (see
    /// [`MemController::pending_requests`]).
    pending: usize,
    /// The already-computed next command and its instant, carried across
    /// [`MemController::run_until`] calls. Valid until a command issues,
    /// a request arrives or a fault hook fires.
    cached_next: Option<(Command, Ps)>,
    /// Per-bank activation counters for proactive RFM (reset on RFM).
    raa: Vec<u32>,
    now: Ps,
    /// Instant the current ALERT was observed, if one is being serviced.
    alert_observed_at: Option<Ps>,
    stats: McStats,
    telemetry: Telemetry,
    /// Cached `telemetry.has_spans()` so the hot path tests one local bool
    /// instead of borrowing the recorder.
    spans: bool,
    /// Cached `telemetry.has_opportunity()`: arms the per-pass work
    /// counters and skip-gap histogram in `run_until`.
    opp: bool,
    /// Length of the current streak of row-buffer hits (for the
    /// `mc.row_hit_run` histogram; flushed when a miss/conflict breaks it).
    hit_run: u64,
}

impl std::fmt::Debug for MemController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemController")
            .field("subch", &self.subch)
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MemController {
    /// Creates a controller for sub-channel index `subch` of the channel.
    pub fn new(mut device: Subchannel, cfg: McConfig, subch: u32) -> Self {
        let g = *device.geometry();
        let nbanks = g.banks_per_subchannel() as usize;
        let words = nbanks.div_ceil(64);
        let nkinds = KIND_ACT + g.ranks as usize;
        assert!(nkinds <= 32, "kind masks hold at most 32 kinds");
        device.set_subch_index(subch);
        let mut mc = MemController {
            cfg,
            subch,
            queues: vec![VecDeque::new(); nbanks],
            plans: vec![BankPlan::Idle; nbanks],
            entries: vec![IDLE_ENTRY; nbanks],
            stale: vec![0; words],
            kinds: vec![EMPTY_KIND; nkinds],
            members: vec![0; nkinds * words],
            words,
            moved: u32::MAX,
            dirty: 0,
            bank_ids: (0..g.ranks)
                .flat_map(|r| (0..g.banks).map(move |b| BankId::new(subch, r, b)))
                .collect(),
            raa_armed: 0,
            pending: 0,
            cached_next: None,
            raa: vec![0; nbanks],
            now: Ps::ZERO,
            alert_observed_at: None,
            stats: McStats::default(),
            telemetry: Telemetry::disabled(),
            spans: false,
            opp: false,
            hit_run: 0,
            device,
        };
        mc.mark_all_stale();
        mc
    }

    /// Marks bank `flat`'s plan out of date.
    #[inline]
    fn stale_bank(&mut self, flat: usize) {
        self.stale[flat >> 6] |= 1 << (flat & 63);
    }

    /// Marks every plan out of date after a command that touched every
    /// bank (PREA, REF, RFM), and empties every kind: the next pick folds
    /// each bank back in from scratch.
    fn mark_all_stale(&mut self) {
        let n = self.entries.len();
        for (w, word) in self.stale.iter_mut().enumerate() {
            let bits = n.saturating_sub(w * 64).min(64);
            *word = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
        }
        self.entries.fill(IDLE_ENTRY);
        self.members.fill(0);
        self.kinds.fill(EMPTY_KIND);
        self.dirty = 0;
    }

    /// Attaches a telemetry handle (cloned down into the device and its
    /// mitigator). Both sub-channel controllers share one handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.device.set_telemetry(telemetry.clone());
        self.spans = telemetry.has_spans();
        self.opp = telemetry.has_opportunity();
        self.telemetry = telemetry;
    }

    /// Flushes end-of-run telemetry state (the trailing row-hit streak).
    pub fn finish_telemetry(&mut self) {
        if self.hit_run > 0 {
            self.telemetry.observe(names::MC_ROW_HIT_RUN, self.hit_run);
            self.hit_run = 0;
        }
    }

    /// The device this controller drives.
    pub fn device(&self) -> &Subchannel {
        &self.device
    }

    /// Fault-injection hook: forwards a state fault to the device's
    /// mitigation engine, returning whether it changed anything.
    pub fn inject_device_fault(&mut self, fault: &DeviceFault, now: Ps) -> bool {
        self.cached_next = None;
        self.device.inject_fault(fault, now)
    }

    /// Fault-injection hook: suppresses the device's ALERT assertion until
    /// device time reaches `until` (a dropped/delayed raise).
    pub fn mask_alert_until(&mut self, until: Ps) {
        self.cached_next = None;
        self.device.mask_alert_until(until);
    }

    /// Fault-injection hook: jumps the device's refresh pointer forward by
    /// `steps` REF slots without refreshing the skipped rows.
    pub fn skip_refresh_steps(&mut self, steps: u32) {
        self.cached_next = None;
        self.device.skip_refresh_steps(steps);
    }

    /// Scheduling statistics.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// The controller's current time (last command issue instant).
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Outstanding requests across all bank queues (running counter; the
    /// queue-occupancy histogram samples this on every arrival, so summing
    /// the per-bank queue lengths each time would be O(banks) on a hot
    /// path).
    pub fn pending_requests(&self) -> usize {
        self.pending
    }

    /// Enqueues a request.
    ///
    /// # Panics
    /// Panics if the request targets a different sub-channel.
    pub fn enqueue(&mut self, req: Request) {
        assert_eq!(
            req.addr.bank.subch, self.subch,
            "request routed to wrong sub-channel"
        );
        let flat = req.addr.bank.flat_in_subchannel(self.device.geometry());
        self.queues[flat].push_back(Queued {
            req,
            needed_act: false,
            needed_pre: false,
            own_cmd_at: None,
        });
        self.pending += 1;
        // The next pick folds the bank's fresh candidate into its kind
        // with one `min`. An ALERT back-off or a due RFM outranks demand
        // and reads no queue, so while one is pending the cached next
        // command stands.
        self.stale_bank(flat);
        if self.alert_observed_at.is_none() && !self.rfm_due() {
            self.cached_next = None;
        }
        if self.telemetry.is_enabled() {
            self.telemetry
                .observe(names::MC_QUEUE_OCCUPANCY, self.pending_requests() as u64);
        }
    }

    /// Recomputes the plan for bank `flat` from its queue and row state.
    /// Mirrors the legacy FR-FCFS walk, but stores only the bank-local
    /// release: the shared floors are layered on in `best_demand`.
    fn bank_plan(&self, flat: usize) -> BankPlan {
        let q = &self.queues[flat];
        let open = self.device.open_row_flat(flat);
        if q.is_empty() {
            // Soft close-page: close an idle open row once tRAS allows.
            return match open {
                Some(_) => BankPlan::SoftClose {
                    local: self.device.earliest_local_pre(flat).expect("row open"),
                },
                None => BankPlan::Idle,
            };
        }
        if let Some(row) = open {
            // Row hits anywhere in the queue are served first (FR-FCFS).
            if let Some(hit) = q.iter().find(|x| x.req.addr.row == row) {
                let write = matches!(hit.req.kind, AccessKind::Write);
                let local = if write {
                    self.device.earliest_local_wr(flat, row)
                } else {
                    self.device.earliest_local_rd(flat, row)
                }
                .expect("open row matches hit");
                return BankPlan::Hit {
                    local,
                    col: hit.req.addr.col,
                    write,
                    arrival: hit.req.arrival,
                };
            }
            // Conflict: close the open row for the oldest request.
            BankPlan::Conflict {
                local: self.device.earliest_local_pre(flat).expect("row open"),
                arrival: q[0].req.arrival,
            }
        } else {
            // Bank closed: activate for the oldest request.
            BankPlan::Act {
                local: self.device.earliest_local_act(flat).expect("bank closed"),
                row: q[0].req.addr.row,
                arrival: q[0].req.arrival,
            }
        }
    }

    /// Refreshes the plan *and* its arbitration mirror for bank `flat`.
    /// The key stores `max(local, arrival)` — the selection `at` is then a
    /// single `max` against the kind's shared floor, because
    /// `max(local, floor, block, arrival, now)` factors into
    /// `max(max(local, arrival), max(floor, block, now))`.
    #[inline]
    fn refresh_plan(&mut self, flat: usize) -> BankEntry {
        let p = self.bank_plan(flat);
        self.plans[flat] = p;
        let (kind, class, key, arr) = match p {
            BankPlan::Idle => {
                self.entries[flat] = IDLE_ENTRY;
                return IDLE_ENTRY;
            }
            BankPlan::SoftClose { local } => (KIND_SOFTCLOSE, 3, local, Ps::MAX),
            BankPlan::Hit {
                local,
                write,
                arrival,
                ..
            } => (
                if write { KIND_WR } else { KIND_RD },
                0,
                local.max(arrival),
                arrival,
            ),
            BankPlan::Conflict { local, arrival } => {
                (KIND_CONFLICT, 2, local.max(arrival), arrival)
            }
            BankPlan::Act { local, arrival, .. } => (
                KIND_ACT + self.bank_ids[flat].rank as usize,
                1,
                local.max(arrival),
                arrival,
            ),
        };
        let e = BankEntry {
            kind: kind as u8,
            packed: pack_cand(key, class, arr, flat),
        };
        self.entries[flat] = e;
        e
    }

    /// Step 1 of a pick: moves each kind in the `moved` mask to its current
    /// shared floor with the global block folded in. These are the floor
    /// definitions [`floors_moved_by`] mirrors; `now` is not part of them
    /// (see [`KindWinner`]).
    fn refloor(&mut self) {
        let mut moved = std::mem::take(&mut self.moved) & (u32::MAX >> (32 - self.kinds.len()));
        let block = self.device.block_floor();
        while moved != 0 {
            let k = moved.trailing_zeros() as usize;
            moved &= moved - 1;
            let floor = match k {
                KIND_RD => self.device.col_floor(false),
                KIND_WR => self.device.col_floor(true),
                KIND_CONFLICT | KIND_SOFTCLOSE => Ps::ZERO,
                _ => self.device.act_floor(k - KIND_ACT),
            };
            self.set_floor(k, floor.max(block));
        }
    }

    /// Moves kind `k` to `floor` (which excludes `now`), dirtying it when
    /// the move leaves its winner inexact. `floor > winner` exactly when
    /// the floor passed `at(winner)`: the winner's low bits never reach
    /// into the `at` field. Leaving `now` out is exact because `now` never
    /// passes a surviving winner's `at` (the [`KindWinner`] argument), so
    /// `max(floor, now)` crosses the winner only where `floor` does. With
    /// the device's timing model floors only rise (the block is monotone,
    /// and each column or ACT issue lifts its floor past the old one); the
    /// fall test guards the rule.
    #[inline]
    fn set_floor(&mut self, k: usize, floor: Ps) {
        let floor = pack_floor(floor);
        let kw = &mut self.kinds[k];
        if kw.winner != u128::MAX && (floor < kw.floor || floor > kw.winner) {
            self.dirty |= 1 << k;
        }
        kw.floor = floor;
    }

    /// Picks the best demand-side candidate (column > activate > precharge,
    /// earliest issue time first, oldest request breaking ties, lowest flat
    /// bank last) from the per-kind cached winners. A pick touches only
    /// what changed since the last one:
    ///
    /// 1. re-floor the kinds whose floor the issued commands moved,
    ///    dirtying one whose floor fell or passed its winner (the
    ///    [`KindWinner`] exactness rule);
    /// 2. replan the stale banks, moving each between kinds: a departing
    ///    winner dirties its kind, a joining candidate folds in with `min`
    ///    at `max(floor, now)`;
    /// 3. rescan each dirty kind over its own members at `max(floor, now)`,
    ///    and take the `min` of the kind winners.
    ///
    /// The winning [`Command`] is materialized once, afterwards.
    fn best_demand(&mut self) -> Option<Candidate> {
        self.refloor();
        let now = pack_floor(self.now);
        let words = self.words;
        for w in 0..words {
            let mut word = std::mem::take(&mut self.stale[w]);
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let flat = (w << 6) | bit;
                let old = self.entries[flat];
                let e = self.refresh_plan(flat);
                if e.kind == old.kind && e.packed == old.packed {
                    continue;
                }
                if old.kind != NO_KIND {
                    let k = old.kind as usize;
                    self.members[k * words + w] &= !(1u64 << bit);
                    if (self.kinds[k].winner & 0xff) as usize == flat {
                        self.dirty |= 1 << k;
                    }
                }
                if e.kind != NO_KIND {
                    let k = e.kind as usize;
                    self.members[k * words + w] |= 1u64 << bit;
                    if self.dirty & (1 << k) == 0 {
                        let kw = &mut self.kinds[k];
                        kw.winner = kw.winner.min(floored(e.packed, kw.floor.max(now)));
                    }
                }
            }
        }
        // With this device model the rescan's `now` fold never binds. Only
        // ACT and RD/WR members can sit below `now` (a closed bank whose
        // request waited, or a hit that arrived late), and those kinds are
        // dirtied only by an ACT or column issue, which lifts their floor
        // to `now` or past it. CONFLICT and SOFTCLOSE keys never fall below
        // `now`: their PRE release follows the bank's last command. The
        // fold keeps the rescan exact without leaning on that argument.
        let mut dirty = std::mem::take(&mut self.dirty);
        while dirty != 0 {
            let k = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            let floor = self.kinds[k].floor.max(now);
            let mut winner = u128::MAX;
            for w in 0..words {
                let mut word = self.members[k * words + w];
                while word != 0 {
                    let flat = (w << 6) | word.trailing_zeros() as usize;
                    word &= word - 1;
                    winner = winner.min(floored(self.entries[flat].packed, floor));
                }
            }
            self.kinds[k].winner = winner;
        }
        let best = self.kinds.iter().fold(u128::MAX, |b, kw| b.min(kw.winner));
        if best == u128::MAX {
            return None;
        }
        let best_at = Ps::from_ps((best >> PACK_AT) as u64);
        let flat = (best & 0xff) as usize;
        let bank = self.bank_ids[flat];
        let cmd = match self.plans[flat] {
            BankPlan::SoftClose { .. } | BankPlan::Conflict { .. } => Command::Pre { bank },
            BankPlan::Hit { col, write, .. } => {
                if write {
                    Command::Wr { bank, col }
                } else {
                    Command::Rd { bank, col }
                }
            }
            BankPlan::Act { row, .. } => Command::Act { bank, row },
            BankPlan::Idle => unreachable!("winner holds a candidate"),
        };
        Some(Candidate { cmd, at: best_at })
    }

    /// The next command the controller wants to issue, with its instant.
    /// Whether a proactive RFM is due: some bank's activation counter
    /// reached BAT (or BAT is zero).
    fn rfm_due(&self) -> bool {
        self.cfg.rfm_bat == Some(0) || self.raa_armed > 0
    }

    fn next_action(&mut self) -> Option<(Command, Ps)> {
        let t = self.device.timing();
        // 1. ALERT back-off has absolute priority.
        if let Some(t0) = self.alert_observed_at {
            if !self.device.all_precharged() {
                let e = self.device.earliest(&Command::PreAll)?;
                return Some((Command::PreAll, e.max(self.now)));
            }
            let e = self
                .device
                .earliest(&Command::Rfm { alert: true })
                .expect("all banks precharged");
            let at = e.max(t0 + t.t_alert_prologue).max(self.now);
            return Some((Command::Rfm { alert: true }, at));
        }
        // 2. Proactive RFM when a bank's activation counter reaches BAT.
        if self.rfm_due() {
            if !self.device.all_precharged() {
                let e = self.device.earliest(&Command::PreAll)?;
                return Some((Command::PreAll, e.max(self.now)));
            }
            let e = self
                .device
                .earliest(&Command::Rfm { alert: false })
                .expect("all banks precharged");
            return Some((Command::Rfm { alert: false }, e.max(self.now)));
        }
        // 3. Demand traffic until refresh is due (plus any postponement
        // budget). Postponed REFs are repaid back-to-back afterwards.
        let ref_deadline =
            self.device.next_ref_due().max(self.now) + t.t_refi * u64::from(self.cfg.postpone_refs);
        if let Some(c) = self.best_demand() {
            if c.at < ref_deadline {
                return Some((c.cmd, c.at));
            }
        }
        let ref_at = self.device.next_ref_due().max(self.now);
        // 4. Refresh path: precharge everything, then REF on time.
        if self.device.all_precharged() {
            let e = self.device.earliest(&Command::Ref).expect("precharged");
            Some((Command::Ref, e.max(ref_at)))
        } else {
            let e = self.device.earliest(&Command::PreAll)?;
            Some((Command::PreAll, e.max(self.now)))
        }
    }

    /// The next command and its instant, computed at most once per state
    /// change: the cache survives across `run_until` calls while nothing
    /// issues, arrives, or faults.
    fn peek_next(&mut self) -> (Command, Ps) {
        if let Some(n) = self.cached_next {
            return n;
        }
        let n = self
            .next_action()
            .expect("controller always has a next action (refresh fallback)");
        self.cached_next = Some(n);
        n
    }

    /// The instant of the next command this controller will issue — its
    /// contribution to the sim layer's next-event skip bound. Total: the
    /// refresh fallback guarantees a pending command at all times.
    pub fn next_event_ps(&mut self) -> Ps {
        self.peek_next().1
    }

    fn mark_head(&mut self, flat: usize, act: bool) {
        let spans = self.spans;
        let now = self.now;
        if let Some(head) = self.queues[flat].front_mut() {
            if act {
                head.needed_act = true;
            } else {
                head.needed_pre = true;
            }
            if spans && head.own_cmd_at.is_none() {
                head.own_cmd_at = Some(now);
            }
        }
    }

    /// Issues every command whose legal instant is at or before `t_end`,
    /// appending read/write completions to `out`.
    ///
    /// Event-driven: the next command is served from the cross-call cache
    /// ([`MemController::peek_next`]) and per-bank candidates from the plan
    /// cache, so a pass with nothing to issue costs O(1) instead of a full
    /// bank scan. With opportunity counters armed, each call is one
    /// "scheduler pass": commands issued and the gap to the next pending
    /// command past the window are recorded — the residual-waste picture
    /// the skip-ahead sim loop acts on.
    pub fn run_until(&mut self, t_end: Ps, out: &mut Vec<Completion>) {
        let opp = self.opp;
        let mut pass = PassCounts::default();
        loop {
            let (cmd, at) = self.peek_next();
            if at > t_end {
                // Nothing issuable in the window: keep the cache for the
                // next pass.
                if opp {
                    self.telemetry
                        .observe(names::MC_OPP_SKIP_GAP_NS, (at - t_end).as_ps() / 1000);
                }
                break;
            }
            self.issue(cmd, at, out, &mut pass);
        }
        // Flush the batched command counters once per pass (before any
        // epoch boundary can read them) instead of per command. Zero
        // deltas are skipped so untouched counters never materialize.
        if pass.reads > 0 {
            self.telemetry.inc(names::MC_READS, pass.reads);
        }
        if pass.writes > 0 {
            self.telemetry.inc(names::MC_WRITES, pass.writes);
        }
        if pass.acts > 0 {
            self.telemetry.inc(names::MC_ACTS, pass.acts);
        }
        if pass.refs > 0 {
            self.telemetry.inc(names::MC_REFS, pass.refs);
        }
        if opp {
            self.telemetry.inc(names::MC_OPP_SCHED_PASSES, 1);
            if pass.cmds == 0 {
                // Under the event core an idle pass means "this window
                // held no event", not "a full scan found nothing".
                self.telemetry.inc(names::MC_OPP_IDLE_PASSES, 1);
            }
            self.telemetry
                .observe(names::MC_OPP_CMDS_PER_PASS, pass.cmds);
        }
    }

    /// Issues `cmd` at `at`, updating queues, plans, statistics and the
    /// ALERT latch, and appending any completion to `out`.
    fn issue(&mut self, cmd: Command, at: Ps, out: &mut Vec<Completion>, pass: &mut PassCounts) {
        self.cached_next = None;
        self.moved |= floors_moved_by(&cmd);
        pass.cmds += 1;
        self.now = at;
        self.telemetry
            .trace_line(|| trace_line(self.subch, &cmd, at));
        match cmd {
            Command::Rd { bank, col } | Command::Wr { bank, col } => {
                let flat = bank.flat_in_subchannel(self.device.geometry());
                let row = self.device.open_row(bank).expect("column to open row");
                let pos = self.queues[flat]
                    .iter()
                    .position(|x| x.req.addr.row == row && x.req.addr.col == col)
                    .expect("queued request for column command");
                let q = self.queues[flat].remove(pos).expect("position valid");
                self.pending -= 1;
                let issued = self.device.issue(cmd, at);
                self.stale_bank(flat);
                let done = issued.data_ready.expect("column returns data time");
                if self.spans {
                    self.telemetry.span_request(
                        self.subch,
                        flat,
                        q.req.arrival.as_ps(),
                        q.own_cmd_at.map(Ps::as_ps),
                        at.as_ps(),
                    );
                }
                // Row-buffer classification.
                if q.needed_pre {
                    self.stats.row_conflicts += 1;
                } else if q.needed_act {
                    self.stats.row_misses += 1;
                } else {
                    self.stats.row_hits += 1;
                }
                if self.telemetry.is_enabled() {
                    if q.needed_pre || q.needed_act {
                        self.finish_telemetry();
                    } else {
                        self.hit_run += 1;
                    }
                }
                match q.req.kind {
                    AccessKind::Read => {
                        self.stats.reads_done += 1;
                        self.stats.read_latency_ps += (done - q.req.arrival).as_ps();
                        pass.reads += 1;
                        self.telemetry.observe(
                            names::MC_READ_LATENCY_NS,
                            (done - q.req.arrival).as_ps() / 1000,
                        );
                        out.push(Completion {
                            id: q.req.id,
                            done_at: done,
                        });
                    }
                    AccessKind::Write => {
                        self.stats.writes_done += 1;
                        pass.writes += 1;
                        out.push(Completion {
                            id: q.req.id,
                            done_at: at,
                        });
                    }
                }
            }
            Command::Act { bank, .. } => {
                let flat = bank.flat_in_subchannel(self.device.geometry());
                self.mark_head(flat, true);
                self.raa[flat] += 1;
                if self.cfg.rfm_bat == Some(self.raa[flat]) {
                    self.raa_armed += 1;
                }
                self.device.issue(cmd, at);
                self.stale_bank(flat);
                pass.acts += 1;
            }
            Command::Pre { bank } => {
                let flat = bank.flat_in_subchannel(self.device.geometry());
                // Mark only when the close is on behalf of a waiting miss.
                if !self.queues[flat].is_empty() {
                    self.mark_head(flat, false);
                }
                self.device.issue(cmd, at);
                self.stale_bank(flat);
            }
            Command::PreAll => {
                self.device.issue(cmd, at);
                self.mark_all_stale();
            }
            Command::Ref => {
                if self.spans {
                    // Classify the whole tRFC window by whether the
                    // mitigator piggybacked victim refreshes on this
                    // REF (TRR-style) — the delta in its counter across
                    // the issue tells us.
                    let before = self.device.mitigation_stats().ref_mitigations;
                    self.device.issue(cmd, at);
                    let bucket = if self.device.mitigation_stats().ref_mitigations > before {
                        StallBucket::MitigativeRef
                    } else {
                        StallBucket::Refresh
                    };
                    let t_rfc = self.device.timing().t_rfc;
                    self.telemetry
                        .span_block(self.subch, bucket, at.as_ps(), (at + t_rfc).as_ps());
                } else {
                    self.device.issue(cmd, at);
                }
                self.mark_all_stale();
                pass.refs += 1;
            }
            Command::Rfm { alert } => {
                self.device.issue(cmd, at);
                self.mark_all_stale();
                if alert {
                    if let Some(t0) = self.alert_observed_at.take() {
                        let stall = at - t0;
                        self.telemetry
                            .observe(names::MC_ALERT_STALL_NS, stall.as_ps() / 1000);
                        self.telemetry.event(
                            at.as_ps(),
                            names::EV_ALERT_CLEARED,
                            &[
                                ("subch", Json::U64(u64::from(self.subch))),
                                ("stall_ns", Json::U64(stall.as_ps() / 1000)),
                            ],
                        );
                        if self.spans {
                            // The whole back-off — from observing
                            // ALERT_n through the recovery RFM's tRFM —
                            // is ABO stall.
                            let t_rfm = self.device.timing().t_rfm;
                            self.telemetry.span_block(
                                self.subch,
                                StallBucket::AboAlert,
                                t0.as_ps(),
                                (at + t_rfm).as_ps(),
                            );
                        }
                    }
                    self.stats.alerts_serviced += 1;
                    self.telemetry.inc(names::MC_ALERTS, 1);
                } else {
                    self.stats.rfms_issued += 1;
                    self.telemetry.inc(names::MC_RFMS, 1);
                    self.telemetry.event(
                        at.as_ps(),
                        names::EV_RFM_ISSUED,
                        &[("subch", Json::U64(u64::from(self.subch)))],
                    );
                    if self.spans {
                        let t_rfm = self.device.timing().t_rfm;
                        self.telemetry.span_block(
                            self.subch,
                            StallBucket::Rfm,
                            at.as_ps(),
                            (at + t_rfm).as_ps(),
                        );
                    }
                    for c in &mut self.raa {
                        *c = 0;
                    }
                    self.raa_armed = 0;
                }
            }
        }
        // Sample the ALERT line after every command.
        if self.alert_observed_at.is_none() && self.device.alert_asserted() {
            self.alert_observed_at = Some(self.now);
            self.telemetry.event(
                self.now.as_ps(),
                names::EV_ALERT_RAISED,
                &[("subch", Json::U64(u64::from(self.subch)))],
            );
        }
    }
}

/// One DRAMSim3-style command-trace line: `<t_ps> <CMD> sc<n> [location]`.
fn trace_line(subch: u32, cmd: &Command, at: Ps) -> String {
    let t = at.as_ps();
    match *cmd {
        Command::Act { bank, row } => {
            format!("{t} ACT sc{subch} ra{} ba{} row{row}", bank.rank, bank.bank)
        }
        Command::Pre { bank } => {
            format!("{t} PRE sc{subch} ra{} ba{}", bank.rank, bank.bank)
        }
        Command::PreAll => format!("{t} PREA sc{subch}"),
        Command::Rd { bank, col } => {
            format!("{t} RD sc{subch} ra{} ba{} col{col}", bank.rank, bank.bank)
        }
        Command::Wr { bank, col } => {
            format!("{t} WR sc{subch} ra{} ba{} col{col}", bank.rank, bank.bank)
        }
        Command::Ref => format!("{t} REF sc{subch}"),
        Command::Rfm { alert: true } => format!("{t} RFM-ABO sc{subch}"),
        Command::Rfm { alert: false } => format!("{t} RFM sc{subch}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirza_dram::address::{DramAddr, MappingScheme, RowMapping};
    use mirza_dram::geometry::Geometry;
    use mirza_dram::mitigation::{MitigationStats, Mitigator, NullMitigator, RefreshSlice};
    use mirza_dram::timing::TimingParams;

    fn mc(cfg: McConfig) -> MemController {
        let geom = Geometry::ddr5_32gb();
        let device = Subchannel::new(
            TimingParams::ddr5_6000(),
            geom,
            RowMapping::for_geometry(MappingScheme::Strided, &geom),
            Box::new(NullMitigator::new()),
        );
        MemController::new(device, cfg, 0)
    }

    fn read(id: u64, bank: u32, row: u32, col: u32, at_ns: u64) -> Request {
        Request {
            id,
            addr: DramAddr {
                bank: BankId::new(0, 0, bank),
                row,
                col,
            },
            kind: AccessKind::Read,
            arrival: Ps::from_ns(at_ns),
        }
    }

    #[test]
    fn single_read_latency_is_rcd_plus_cl_plus_burst() {
        let mut mc = mc(McConfig::default());
        mc.enqueue(read(1, 0, 100, 0, 0));
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(1), &mut out);
        assert_eq!(out.len(), 1);
        let t = TimingParams::ddr5_6000();
        assert_eq!(out[0].done_at, t.t_rcd + t.cl + t.t_burst);
        assert_eq!(mc.stats().row_misses, 1);
    }

    #[test]
    fn row_hits_are_served_first_and_classified() {
        let mut mc = mc(McConfig::default());
        mc.enqueue(read(1, 0, 100, 0, 0));
        mc.enqueue(read(2, 0, 100, 1, 0));
        mc.enqueue(read(3, 0, 100, 2, 0));
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(1), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(mc.stats().row_misses, 1);
        assert_eq!(mc.stats().row_hits, 2);
    }

    #[test]
    fn conflicting_rows_classified_as_conflicts() {
        let mut mc = mc(McConfig::default());
        mc.enqueue(read(1, 0, 100, 0, 0));
        mc.enqueue(read(2, 0, 200, 0, 0));
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(2), &mut out);
        assert_eq!(out.len(), 2);
        // Depending on the soft-close timing the second is a conflict (PRE
        // on its behalf) or a miss (already closed); either way it needed
        // an ACT.
        assert_eq!(mc.stats().row_hits, 0);
        assert_eq!(mc.stats().row_misses + mc.stats().row_conflicts, 2);
    }

    #[test]
    fn refresh_happens_on_schedule() {
        let mut mc = mc(McConfig::default());
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(40), &mut out);
        // 40 us / 3.9 us ~ 10 REFs.
        let refs = mc.device().stats().refs;
        assert!((9..=11).contains(&refs), "got {refs}");
    }

    #[test]
    fn postponed_refresh_yields_to_demand_then_repays() {
        let strict = {
            let mut mc = mc(McConfig::default());
            for i in 0..64 {
                mc.enqueue(read(i, (i % 8) as u32, i as u32 * 3, 0, 3800));
            }
            let mut out = Vec::new();
            mc.run_until(Ps::from_us(20), &mut out);
            assert_eq!(out.len(), 64);
            (
                out.iter().map(|c| c.done_at).max().unwrap(),
                mc.device().stats().refs,
            )
        };
        let relaxed = {
            let mut mc = mc(McConfig {
                postpone_refs: 4,
                ..McConfig::default()
            });
            for i in 0..64 {
                mc.enqueue(read(i, (i % 8) as u32, i as u32 * 3, 0, 3800));
            }
            let mut out = Vec::new();
            mc.run_until(Ps::from_us(20), &mut out);
            assert_eq!(out.len(), 64);
            (
                out.iter().map(|c| c.done_at).max().unwrap(),
                mc.device().stats().refs,
            )
        };
        // The burst lands right at the first REF due time (3.9 us): with
        // postponement the batch finishes no later, and the REF debt is
        // repaid by the horizon (same REF count over the window).
        assert!(relaxed.0 <= strict.0, "postponement must not slow demand");
        assert_eq!(relaxed.1, strict.1, "refresh debt fully repaid");
    }

    #[test]
    fn proactive_rfm_fires_at_bat() {
        let mut mc = mc(McConfig {
            rfm_bat: Some(4),
            ..McConfig::default()
        });
        // 8 conflicting reads to one bank -> 8 ACTs -> 2 RFMs.
        for i in 0..8 {
            mc.enqueue(read(i, 0, i as u32 * 7, 0, 0));
        }
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(5), &mut out);
        assert_eq!(out.len(), 8);
        assert!(mc.stats().rfms_issued >= 1, "BAT of 4 must trigger RFM");
        assert_eq!(mc.device().stats().rfms_proactive, mc.stats().rfms_issued);
    }

    #[test]
    fn writes_complete_at_issue() {
        let mut mc = mc(McConfig::default());
        let mut w = read(9, 0, 50, 0, 0);
        w.kind = AccessKind::Write;
        mc.enqueue(w);
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(1), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(mc.stats().writes_done, 1);
    }

    #[test]
    #[should_panic(expected = "wrong sub-channel")]
    fn rejects_cross_subchannel_requests() {
        let mut mc = mc(McConfig::default());
        let mut r = read(1, 0, 0, 0, 0);
        r.addr.bank.subch = 1;
        mc.enqueue(r);
    }

    #[test]
    fn span_attribution_conserves_across_a_backlog_with_refreshes() {
        use mirza_telemetry::{SpanCollector, Telemetry};
        let mut mc = mc(McConfig::default());
        let tel = Telemetry::enabled().with_spans(SpanCollector::new());
        mc.set_telemetry(tel.clone());
        for i in 0..48u64 {
            mc.enqueue(read(i, (i % 8) as u32, (i * 7) as u32, 0, i / 4));
        }
        let mut out = Vec::new();
        mc.run_until(Ps::from_us(60), &mut out);
        assert_eq!(out.len(), 48);
        let s = tel.spans_summary().unwrap();
        assert_eq!(s.requests, 48);
        assert!(s.conserved, "buckets must sum to total stall");
        assert!(s.total_stall_ps > 0);
        // A backlog of conflicting rows waits on ordering and bank timing.
        assert!(s.buckets_ps[StallBucket::QueueConflict.index()] > 0);
        assert!(s.buckets_ps[StallBucket::BankTiming.index()] > 0);
        for (_, b) in tel.spans_bank_attributions() {
            assert!(b.conserved(), "per-bank conservation");
        }
    }

    #[test]
    fn drains_large_backlog_without_violations() {
        let mut mc = mc(McConfig::default());
        let mut id = 0;
        for row in 0..32u32 {
            for bank in 0..8u32 {
                for col in 0..4u32 {
                    mc.enqueue(read(id, bank, row * 13, col, 0));
                    id += 1;
                }
            }
        }
        let mut out = Vec::new();
        mc.run_until(Ps::from_ms(1), &mut out);
        assert_eq!(out.len(), id as usize);
        assert_eq!(mc.pending_requests(), 0);
        // Device saw at least one REF along the way.
        assert!(mc.device().stats().refs > 0);
    }

    /// A toy tracker that wants an ALERT back-off after every `every`
    /// ACTs, so differential streams exercise the ABO arm. `every` must
    /// exceed the number of banks a stream touches: otherwise the ACTs
    /// that reopen them after a back-off raise the next ALERT before any
    /// column command issues, and the controller livelocks.
    struct AlertEvery {
        every: u64,
        acts: u64,
        pending: bool,
    }

    impl Mitigator for AlertEvery {
        fn name(&self) -> &'static str {
            "alert-every"
        }

        fn on_activate(&mut self, _bank: usize, _row: u32, _now: Ps) {
            self.acts += 1;
            if self.acts.is_multiple_of(self.every) {
                self.pending = true;
            }
        }

        fn alert_pending(&self) -> bool {
            self.pending
        }

        fn on_ref(&mut self, _slice: &RefreshSlice, _now: Ps) {}

        fn on_rfm(&mut self, alert: bool, _now: Ps) {
            if alert {
                self.pending = false;
            }
        }

        fn stats(&self) -> MitigationStats {
            MitigationStats::default()
        }
    }

    /// A controller over `ranks` ranks of 32 banks, optionally with an
    /// ALERT-raising tracker and PRAC timings.
    fn differential_mc(
        ranks: u32,
        cfg: McConfig,
        alert_every: Option<u64>,
        prac: bool,
    ) -> MemController {
        let geom = Geometry {
            ranks,
            ..Geometry::ddr5_32gb()
        };
        let mitigator: Box<dyn Mitigator> = match alert_every {
            Some(every) => Box::new(AlertEvery {
                every,
                acts: 0,
                pending: false,
            }),
            None => Box::new(NullMitigator::new()),
        };
        let timing = if prac {
            TimingParams::ddr5_6000_prac()
        } else {
            TimingParams::ddr5_6000()
        };
        let device = Subchannel::new(
            timing,
            geom,
            RowMapping::for_geometry(MappingScheme::Strided, &geom),
            mitigator,
        );
        MemController::new(device, cfg, 0)
    }

    /// Brute-force FR-FCFS reference for `next_action`, with the
    /// semantics the controller had before per-kind winners: every bank's
    /// candidate is re-derived from its queue and row state, its instant
    /// comes from [`Subchannel::earliest`], and all banks are folded in
    /// ascending flat order under the strict `(at, class, arrival)` order.
    /// It reads none of the controller's plans, kinds or caches.
    fn reference_next(mc: &MemController) -> (Command, Ps) {
        let d = &mc.device;
        let t = d.timing();
        // A blocking command once every bank is closed, else PREA first.
        let after_prea = |cmd: Command, floor: Ps| {
            if d.all_precharged() {
                (cmd, d.earliest(&cmd).expect("precharged").max(floor))
            } else {
                let e = d.earliest(&Command::PreAll).expect("PREA is legal");
                (Command::PreAll, e.max(mc.now))
            }
        };
        if let Some(t0) = mc.alert_observed_at {
            let floor = (t0 + t.t_alert_prologue).max(mc.now);
            return after_prea(Command::Rfm { alert: true }, floor);
        }
        if let Some(bat) = mc.cfg.rfm_bat {
            if bat == 0 || mc.raa.iter().any(|&c| c >= bat) {
                return after_prea(Command::Rfm { alert: false }, mc.now);
            }
        }
        let deadline = d.next_ref_due().max(mc.now) + t.t_refi * u64::from(mc.cfg.postpone_refs);
        if let Some((cmd, at)) = reference_demand(mc) {
            if at < deadline {
                return (cmd, at);
            }
        }
        after_prea(Command::Ref, d.next_ref_due().max(mc.now))
    }

    fn reference_demand(mc: &MemController) -> Option<(Command, Ps)> {
        let g = *mc.device.geometry();
        let mut best: Option<((Ps, u8, Ps, usize), Command)> = None;
        for (flat, q) in mc.queues.iter().enumerate() {
            let bank = BankId::new(mc.subch, flat as u32 / g.banks, flat as u32 % g.banks);
            let (cmd, class, arrival) = match (mc.device.open_row(bank), q.front()) {
                (None, None) => continue,
                (Some(_), None) => (Command::Pre { bank }, 3, Ps::MAX),
                (Some(row), Some(head)) => match q.iter().find(|x| x.req.addr.row == row) {
                    Some(hit) => {
                        let col = hit.req.addr.col;
                        let cmd = match hit.req.kind {
                            AccessKind::Read => Command::Rd { bank, col },
                            AccessKind::Write => Command::Wr { bank, col },
                        };
                        (cmd, 0, hit.req.arrival)
                    }
                    None => (Command::Pre { bank }, 2, head.req.arrival),
                },
                (None, Some(head)) => {
                    let row = head.req.addr.row;
                    (Command::Act { bank, row }, 1, head.req.arrival)
                }
            };
            let mut at = mc.device.earliest(&cmd).expect("candidate is legal");
            at = at.max(mc.now);
            if class != 3 {
                at = at.max(arrival);
            }
            let key = (at, class, arrival, flat);
            if best.is_none_or(|(b, _)| key < b) {
                best = Some((key, cmd));
            }
        }
        best.map(|((at, ..), cmd)| (cmd, at))
    }

    /// Issues every command up to `t_end` one at a time, asserting before
    /// each that the controller's pick equals the reference's.
    fn run_checked(mc: &mut MemController, t_end: Ps, issued: &mut Vec<(Command, Ps)>) {
        let mut out = Vec::new();
        let mut pass = PassCounts::default();
        loop {
            let expect = reference_next(mc);
            let got = mc.peek_next();
            assert_eq!(got, expect, "pick {} diverged", issued.len());
            if got.1 > t_end {
                return;
            }
            mc.issue(got.0, got.1, &mut out, &mut pass);
            issued.push(got);
        }
    }

    /// What [`drive_checked`] saw: the issued sequence, and how many
    /// requests arrived before the controller's `now` when enqueued.
    struct Driven {
        issued: Vec<(Command, Ps)>,
        late_arrivals: usize,
    }

    /// Drives an op stream through `mc` under [`run_checked`], then drains
    /// it. Ops are `(op, a, b, c)`: 0–5 enqueue a read (0–3) or write
    /// (4–5) on one of 12 banks spread over every rank, on one of 4 rows so
    /// that hits and conflicts both occur; 6 enqueues the same way, but
    /// with an arrival up to 500 ns before `mc.now()` (clamped at 0), as
    /// the system's cores deliver most requests; 7–8 advance time; 9
    /// masks ALERT; 10 skips refresh steps.
    fn drive_checked(mc: &mut MemController, ops: &[(u8, u32, u32, u64)]) -> Driven {
        let g = *mc.device.geometry();
        let nbanks = g.banks_per_subchannel();
        let mut clock = Ps::ZERO;
        let mut issued = Vec::new();
        let mut late_arrivals = 0;
        for (id, &(op, a, b, c)) in ops.iter().enumerate() {
            match op % 11 {
                op @ 0..=6 => {
                    let flat = (a % 12) * nbanks / 12;
                    let (write, arrival) = if op == 6 {
                        let at = mc.now().saturating_sub(Ps::from_ns(c % 500));
                        (b & 16 != 0, at)
                    } else {
                        (op >= 4, clock)
                    };
                    if arrival < mc.now() {
                        late_arrivals += 1;
                    }
                    mc.enqueue(Request {
                        id: id as u64,
                        addr: DramAddr {
                            bank: BankId::new(0, flat / g.banks, flat % g.banks),
                            row: (b % 4) * 977,
                            col: (c % 64) as u32,
                        },
                        kind: if write {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                        arrival,
                    });
                    if op != 6 {
                        clock += Ps::from_ns(c % 40);
                    }
                }
                7 | 8 => {
                    clock += Ps::from_ns(c % 2_000);
                    run_checked(mc, clock, &mut issued);
                }
                9 => mc.mask_alert_until(mc.now() + Ps::from_ns(u64::from(a % 3_000))),
                _ => mc.skip_refresh_steps(a % 4),
            }
        }
        run_checked(mc, clock + Ps::from_us(100), &mut issued);
        assert_eq!(mc.pending_requests(), 0, "drain completes every request");
        Driven {
            issued,
            late_arrivals,
        }
    }

    proptest::proptest! {
        /// The per-kind incremental arbitration picks exactly the command
        /// and instant of the brute-force reference at every step, over
        /// random streams on 1-, 2- and 4-rank sub-channels with proactive
        /// RFM, refresh postponement, ALERT back-offs, PRAC timings, requests
        /// that arrive before the controller's `now`, and the ALERT-mask and
        /// refresh-skip fault hooks.
        #[test]
        fn incremental_arbitration_matches_brute_force_reference(
            ops in proptest::collection::vec(
                (0u8..11, 0u32..u32::MAX, 0u32..u32::MAX, 0u64..u64::MAX),
                1..250,
            ),
            rank_log2 in 0u32..3,
            bat in proptest::option::of(2u32..24),
            postpone_refs in 0u32..5,
            alert_every in proptest::option::of(16u64..64),
            prac in 0u8..2,
        ) {
            let cfg = McConfig { rfm_bat: bat, postpone_refs };
            let mut mc = differential_mc(1 << rank_log2, cfg, alert_every, prac == 1);
            drive_checked(&mut mc, &ops);
        }
    }

    #[test]
    fn differential_streams_reach_every_arbitration_path() {
        // A fixed long stream on two ranks: the property above must not
        // pass vacuously, so pin that its op mix reaches hits, conflicts,
        // writes, ACTs on the second rank, refresh, proactive RFM, ALERT
        // back-offs and arrivals dated before the controller's `now`.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let ops: Vec<_> = (0..3_000)
            .map(|_| {
                let r = next();
                ((r % 11) as u8, (r >> 8) as u32, (r >> 24) as u32, next())
            })
            .collect();
        let cfg = McConfig {
            rfm_bat: Some(12),
            postpone_refs: 2,
        };
        let mut mc = differential_mc(2, cfg, Some(20), false);
        let driven = drive_checked(&mut mc, &ops);
        let s = *mc.stats();
        assert!(s.row_hits > 0 && s.row_conflicts > 0 && s.row_misses > 0);
        assert!(s.writes_done > 0 && s.reads_done > 0);
        assert!(s.alerts_serviced > 0 && s.rfms_issued > 0);
        assert!(mc.device().stats().refs > 0);
        assert!(driven
            .issued
            .iter()
            .any(|(c, _)| matches!(c, Command::Act { bank, .. } if bank.rank == 1)));
        assert!(driven.late_arrivals > 0, "no request arrived before `now`");
    }
}
