//! Layered host-time benchmark of the MIRZA simulator.
//!
//! ```text
//! cargo run --release --manifest-path mirzabench/Cargo.toml -- \
//!     --workload <table4-baseline|roster-mitigated|attack-rig> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--write-refs]
//! ```
//!
//! `--trace 0` builds the inputs of every unit repeatedly (`setup_s`),
//! then runs the workload's units round-robin with tracing off and
//! prints the end-to-end metrics, each time scaled to a reference host
//! speed by the probe in `probe.rs`. `--trace 1` runs traced passes plus the
//! layer replays, the profiler calibration and the observed campaign,
//! and prints the per-layer metrics. Every
//! cell is checked against the references under `refs/`. The last line
//! of stdout is the JSON result. `--write-refs` runs one unchecked pass
//! and writes the references for the seed; `--smoke` shrinks everything
//! to seconds and skips the reference check (used by the smoke test).
//! See `README.md` for the metrics and workloads.

mod layers;
mod probe;
mod report;
mod spans;
mod suites;

use std::hint::black_box;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mirza_bench::scale::Scale;

use probe::HostProbe;
use report::{median, peak_rss_mb, Checks, Metrics};
use suites::{sim_seed, Checking, Pass, Suite, Workload, DEFAULT_SEED};

/// Set-up batches per untraced run: at least this many, and more until
/// [`SETUP_BUDGET_S`] is spent. `setup_s` is their median.
const SETUP_BATCHES: usize = 7;

/// Host seconds a batch of set-ups lasts at least, so that the probe runs
/// around it cost a small share of the set-up budget.
const SETUP_BATCH_S: f64 = 0.05;

/// Host seconds the repeated set-ups may take in total.
const SETUP_BUDGET_S: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    write_refs: bool,
}

const USAGE: &str = "usage: mirzabench --workload <table4-baseline|roster-mitigated|attack-rig> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--write-refs]";

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let (mut smoke, mut write_refs) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = parse_u64(&value()?).ok_or("--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            "--write-refs" => write_refs = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        write_refs,
    })
}

struct Ctx {
    args: Args,
    scale: Scale,
    repo_root: PathBuf,
    bench_dir: PathBuf,
    checking: Checking,
}

impl Ctx {
    fn load(&self, workload: Workload) -> Result<Suite, String> {
        Suite::load(
            workload,
            self.scale.clone(),
            &self.repo_root,
            &self.bench_dir,
            self.checking,
        )
    }

    fn out_dir(&self) -> PathBuf {
        self.bench_dir.join("out")
    }
}

fn write_refs(ctx: &Ctx) -> Result<(), String> {
    if sim_seed(ctx.args.seed) != ctx.args.seed {
        return Err(format!(
            "seed {} has no reference set; use one of {:?} or {}",
            ctx.args.seed,
            suites::SEED_POOL,
            suites::HELD_OUT_SEED
        ));
    }
    let suite = ctx.load(ctx.args.workload)?;
    let path = ctx
        .args
        .workload
        .reference_path(suite.seed, &ctx.repo_root, &ctx.bench_dir);
    if !path.starts_with(&ctx.bench_dir) {
        return Err(format!(
            "the reference for seed {} is the committed {}; regenerate it with repro",
            suite.seed,
            path.display()
        ));
    }
    let pass = suite.run_pass(true);
    if pass.failed > 0 {
        return Err(format!("pass failed: {:?}", pass.errors));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, suite.reference_text(&pass)).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} ({} cells, {:.1}s)",
        path.display(),
        pass.attempted,
        pass.secs
    );
    Ok(())
}

/// Host seconds to build the inputs of every unit of `suite` once.
fn time_setup(suite: &Suite) -> Result<f64, String> {
    let started = Instant::now();
    for unit in 0..suite.units() {
        black_box(suite.prepare(unit)?);
    }
    Ok(started.elapsed().as_secs_f64())
}

/// The untraced run: references loaded untimed, repeated set-up, then
/// units run round-robin until the time budget is spent. Every set-up
/// batch and every unit is followed by a run of the host probe, and its
/// time is scaled to the probe's reference speed.
fn end_to_end(ctx: &Ctx, metrics: &mut Metrics, checks: &mut Checks) -> Result<(), String> {
    let suite = ctx.load(ctx.args.workload)?;
    let mut probe = HostProbe::new();
    let mut probes = Vec::new();

    let mut setups: Vec<f64> = Vec::new();
    let mut setup_raw: Vec<f64> = Vec::new();
    let mut spent = 0.0;
    while setups.len() < SETUP_BATCHES || spent < SETUP_BUDGET_S {
        let (mut secs, mut count) = (0.0, 0u32);
        while count == 0 || secs < SETUP_BATCH_S {
            secs += time_setup(&suite)?;
            count += 1;
        }
        spent += secs;
        let p = probe.run();
        setups.push(HostProbe::scale(secs / f64::from(count), p));
        setup_raw.push(secs / f64::from(count));
        probes.push(p);
    }

    let units = suite.units();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); units];
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); units];
    let mut all = Pass::default();
    let mut acts_per_pass = 0;
    let started = Instant::now();
    let mut n = 0;
    while n < units || started.elapsed().as_secs_f64() < ctx.args.seconds {
        let secs = suite.run_unit(n % units, false, &mut all);
        let p = probe.run();
        samples[n % units].push(HostProbe::scale(secs, p));
        raw[n % units].push(secs);
        probes.push(p);
        n += 1;
        if n == units {
            acts_per_pass = all.acts;
        }
    }
    checks.add(all.attempted, all.failed, &all.errors);
    // A pass's time is the sum of each unit's median, so a slow spell of
    // the host that the probe misses moves it only if it covers most
    // samples of a unit.
    let wall: f64 = samples.iter().map(|s| median(s)).sum();
    eprintln!(
        "{}: {n} unit runs over {units} unit(s) at sim seed {}, {} set-up batches; \
         unscaled wall {:.6}s, set-up {:.6}s; probe median {:.6}s over {} runs",
        ctx.args.workload.name(),
        suite.seed,
        setups.len(),
        raw.iter().map(|s| median(s)).sum::<f64>(),
        median(&setup_raw),
        median(&probes),
        probes.len()
    );
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("wall_s", wall, "s");
    metrics.put(
        "sim_macts_per_s",
        acts_per_pass as f64 / 1e6 / wall.max(1e-9),
        "Mact/s",
    );
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(())
}

/// Runs one stage of the traced run; a panic inside it counts as one
/// failed check instead of ending the run.
fn stage(name: &str, checks: &mut Checks, f: impl FnOnce(&mut Checks)) {
    let mut inner = Checks::default();
    let ok = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut inner))).is_ok();
    checks.add(inner.attempted, inner.failed, &inner.errors);
    checks.check(ok, || format!("{name} panicked"));
}

/// The traced run: the per-layer metrics.
fn traced(ctx: &Ctx, metrics: &mut Metrics, checks: &mut Checks) -> Result<(), String> {
    let workload = ctx.args.workload;
    let suite = ctx.load(workload)?;
    spans::enable();
    let started = Instant::now();
    let mut spanned: Vec<Pass> = Vec::new();
    // A traced pass starts only if it should end within the budget, so
    // the replays, campaign and calibration that follow do not start late.
    let mut last = 0.0;
    while spanned.is_empty() || started.elapsed().as_secs_f64() + last <= ctx.args.seconds {
        let began = Instant::now();
        let pass = suite.run_pass(false);
        last = began.elapsed().as_secs_f64();
        checks.add(pass.attempted, pass.failed, &pass.errors);
        spanned.push(pass);
    }

    // Layers the workload does not exercise get a fixed stand-in: one lbm
    // baseline cell for the simulator, one standard attack matrix.
    let mut stand_ins = Vec::new();
    if suite.cells().is_empty() {
        stand_ins.push(ctx.load(Workload::Table4Baseline)?.only("lbm"));
    }
    if workload != Workload::AttackRig {
        stand_ins.push(ctx.load(Workload::AttackRig)?);
    }
    for s in stand_ins {
        let p = s.run_pass(false);
        checks.add(p.attempted, p.failed, &p.errors);
        spanned.push(p);
    }
    let sum = |f: fn(&Pass) -> u64| spanned.iter().map(f).sum::<u64>() as f64;

    let try_run_ns = spans::total_secs("sim.try_run") * 1e9;
    metrics.put(
        "sim.host_ns_per_cmd",
        try_run_ns / sum(|p| p.commands).max(1.0),
        "ns",
    );
    metrics.put(
        "sim.host_ns_per_kinstr",
        try_run_ns / (sum(|p| p.instructions) / 1e3).max(1.0),
        "ns",
    );
    let rig_ns = spans::total_secs("attacks.run_matrix") * 1e9;
    let intervals = sum(|p| p.intervals);
    let compromised = spanned
        .iter()
        .find(|p| p.intervals > 0)
        .map_or(0, |p| p.compromised);
    metrics.put("attacks.intervals", intervals, "count");
    metrics.put("attacks.ns_per_interval", rig_ns / intervals.max(1.0), "ns");
    metrics.put("attacks.compromised_cells", compromised as f64, "count");

    stage("layer replays", checks, |c| {
        layers::run_layer_replays(&ctx.scale, metrics, c);
    });
    let mut campaign = ctx.scale.clone();
    campaign
        .workloads
        .retain(|w| ["lbm", "mcf", "bc", "mix_1"].contains(w));
    stage("observed campaign", checks, |c| {
        layers::run_campaign(&campaign, &ctx.out_dir(), metrics, c);
    });
    stage("profiler calibration", checks, |c| {
        layers::calibrate_profiler(&ctx.scale, metrics, c);
    });

    let path = ctx.out_dir().join(format!(
        "spans_{}_seed{}.jsonl",
        workload.name(),
        ctx.scale.seed
    ));
    spans::write_jsonl(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
    let repo_root = bench_dir
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf();
    let base = if args.smoke {
        Scale::smoke()
    } else {
        Scale::fast()
    };
    let scale = Scale {
        seed: sim_seed(args.seed),
        ..base
    };
    let checking = if args.smoke || args.write_refs {
        Checking::Skip
    } else {
        Checking::Check
    };
    let ctx = Ctx {
        args,
        scale,
        repo_root,
        bench_dir,
        checking,
    };
    if ctx.args.write_refs {
        if let Err(e) = write_refs(&ctx) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let ran = if ctx.args.trace {
        traced(&ctx, &mut metrics, &mut checks)
    } else {
        end_to_end(&ctx, &mut metrics, &mut checks)
    };
    if let Err(e) = ran {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    for e in &checks.errors {
        eprintln!("check failed: {e}");
    }
    print!("{}", report::table(&metrics));
    println!("{}", report::result_line(&checks, &metrics));
}
