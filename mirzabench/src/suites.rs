//! The benchmark's end-to-end workloads: which simulated cells each one
//! runs, how a pass over them executes, and how every cell is checked
//! against the references kept in `refs/`.
//!
//! All workloads are closed loops on one thread: a cell starts only when
//! the previous one has completed and been checked.

use std::collections::HashMap;
use std::hint::black_box;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mirza_bench::attack_matrix::{run_matrix, MatrixSpec};
use mirza_bench::compare::compare_manifests;
use mirza_bench::lab::Lab;
use mirza_bench::scale::Scale;
use mirza_sim::config::{MitigationConfig, SimConfig};
use mirza_sim::report::SimReport;
use mirza_sim::runner::try_build_traces;
use mirza_sim::system::{CoreSetup, System};
use mirza_telemetry::{Json, Telemetry};

use crate::spans;

/// The repository's master seed. Its table4 and attack-matrix references
/// are the committed `results/` artifacts.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Simulation seeds the benchmark rotates through. Every `--seed` maps to
/// one of them, so every run has committed references to check against.
pub const SEED_POOL: [u64; 4] = [DEFAULT_SEED, 101, 202, 303];

/// A seed with shipped references that no tuning of this benchmark used.
/// `--seed 424242` runs it, to recheck a claimed gain on unseen inputs.
pub const HELD_OUT_SEED: u64 = 424_242;

/// Maps the run's `--seed` to the simulation seed of every cell: a
/// seed with references runs as itself, any other picks one from
/// [`SEED_POOL`].
pub fn sim_seed(seed: u64) -> u64 {
    if seed == HELD_OUT_SEED || SEED_POOL.contains(&seed) {
        seed
    } else {
        SEED_POOL[(seed % SEED_POOL.len() as u64) as usize]
    }
}

/// A named end-to-end workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 24 Table-IV workloads, unprotected (`MitigationConfig::None`).
    Table4Baseline,
    /// Five mitigators over lbm, mcf, bc and mix_1.
    RosterMitigated,
    /// The strategy x schedule x mitigator attack matrix.
    AttackRig,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table4Baseline,
        Workload::RosterMitigated,
        Workload::AttackRig,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table4Baseline => "table4-baseline",
            Workload::RosterMitigated => "roster-mitigated",
            Workload::AttackRig => "attack-rig",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed reference for `seed`. At [`DEFAULT_SEED`] the
    /// table4 and attack-matrix references are the repository's own
    /// `results/` artifacts; every other reference lives in
    /// `refs/seed-<n>/`.
    pub fn reference_path(self, seed: u64, repo_root: &Path, bench_dir: &Path) -> PathBuf {
        match (self, seed) {
            (Workload::Table4Baseline, DEFAULT_SEED) => {
                repo_root.join("results/baseline_fast.json")
            }
            (Workload::AttackRig, DEFAULT_SEED) => repo_root.join("results/attack_matrix.csv"),
            _ => refs_dir(bench_dir, seed).join(self.reference_file()),
        }
    }

    /// File name of the workload's reference under `refs/seed-<n>/`.
    fn reference_file(self) -> &'static str {
        match self {
            Workload::Table4Baseline => "table4-baseline.json",
            Workload::RosterMitigated => "roster-mitigated.json",
            Workload::AttackRig => "attack-rig.csv",
        }
    }
}

/// The mitigator roster of `roster-mitigated`, as `(tracker name, config)`.
pub fn roster(scale: &Scale) -> Vec<(&'static str, MitigationConfig)> {
    vec![
        ("mirza", Lab::new(scale.clone()).mirza(1000)),
        ("prac", MitigationConfig::PracAbo { trhd: 1000 }),
        (
            "mithril",
            MitigationConfig::Mithril {
                entries: (2_048 / scale.shrink as usize).max(64),
                refs_per_mit: 1,
            },
        ),
        ("trr", MitigationConfig::Trr),
        ("mint-rfm", MitigationConfig::MintRfm { bat: 48 }),
    ]
}

const ROSTER_WORKLOADS: [&str; 4] = ["lbm", "mcf", "bc", "mix_1"];

/// One full-system simulation cell.
#[derive(Debug, Clone)]
pub struct SysCell {
    /// Table-IV workload name.
    pub workload: &'static str,
    /// Complete simulation configuration.
    pub cfg: SimConfig,
}

impl SysCell {
    /// Builds the cell for `mitigation` on `workload` at `scale`.
    pub fn new(scale: &Scale, mitigation: MitigationConfig, workload: &'static str) -> Self {
        SysCell {
            workload,
            cfg: scale.sim_config(mitigation),
        }
    }

    /// `label/workload`, the key the manifests use.
    pub fn key(&self) -> String {
        format!("{}/{}", self.cfg.mitigation.label(), self.workload)
    }

    /// Builds the cell's inputs through the public sim entry points: its
    /// access streams and the `System`, with a span around each. This is
    /// the program's set-up, timed as `setup_s`.
    pub fn build(&self) -> Result<System, String> {
        let cfg = &self.cfg;
        let streams = spans::time("workloads.build_traces", || {
            try_build_traces(self.workload, cfg.cores, cfg.seed, cfg.footprint_divisor)
        })
        .map_err(|e| e.to_string())?;
        let setups = streams
            .into_iter()
            .map(|t| CoreSetup::benign(t, cfg.instructions_per_core))
            .collect();
        let mut system = spans::time("sim.new", || {
            System::new(cfg.clone(), self.workload, setups)
        });
        system.set_telemetry(Telemetry::disabled());
        Ok(system)
    }

    /// The manifest run record (`label`, `workload`, `config`, `report`).
    pub fn run_record(&self, report: &SimReport) -> Json {
        let mut run = Json::obj();
        run.push("label", self.cfg.mitigation.label())
            .push("workload", self.workload)
            .push("config", self.cfg.to_json())
            .push("report", report.to_json());
        run
    }
}

/// The prepared input of one timed unit.
pub enum Input {
    /// A system cell, ready to run.
    System(Box<System>),
    /// The attack matrix.
    Matrix(MatrixSpec),
}

/// What the cells of a workload are checked against.
enum Expected {
    /// Run records keyed by `label/workload`.
    Runs(HashMap<String, Json>),
    /// The CSV lines the matrix must reproduce byte for byte.
    Csv(Vec<String>),
    /// Nothing (reference generation and the smoke test).
    Unchecked,
}

/// The cells of one workload and their references.
pub struct Suite {
    /// Simulation seed in force.
    pub seed: u64,
    scale: Scale,
    experiment: &'static str,
    cells: Vec<SysCell>,
    matrix: bool,
    expected: Expected,
}

/// Outcome of one or more units of a suite.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds spent running the units (set-up and checks excluded).
    pub secs: f64,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that errored, panicked or mismatched their reference.
    pub failed: u64,
    /// Simulated DRAM activations (demand ACTs, or attacker ACTs).
    pub acts: u64,
    /// Simulated instructions retired.
    pub instructions: u64,
    /// DRAM commands issued by the simulated controllers.
    pub commands: u64,
    /// First few mismatch descriptions.
    pub errors: Vec<String>,
    /// Manifest run records, kept when writing references.
    pub records: Vec<Json>,
    /// The matrix CSV of the pass (attack-rig only).
    pub csv: Option<String>,
    /// REF intervals the attack rig simulated.
    pub intervals: u64,
    /// Matrix cells whose victim reached the bound in some trial.
    pub compromised: u64,
}

impl Pass {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// Directory of the committed references for `seed`.
fn refs_dir(bench_dir: &Path, seed: u64) -> PathBuf {
    bench_dir.join("refs").join(format!("seed-{seed}"))
}

fn parse_json_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn index_runs(manifest: &Json, experiment: &str) -> HashMap<String, Json> {
    let mut out = HashMap::new();
    for exp in manifest
        .get("experiments")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        if exp.get("name").and_then(Json::as_str) != Some(experiment) {
            continue;
        }
        for run in exp.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
            let label = run.get("label").and_then(Json::as_str).unwrap_or("?");
            let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
            out.insert(format!("{label}/{workload}"), run.clone());
        }
    }
    out
}

/// Which references a suite loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checking {
    /// Compare every cell with the committed references.
    Check,
    /// Run unchecked (writing references, smoke test).
    Skip,
}

impl Suite {
    /// Lists the cells of `workload` at `scale`, whose seed is the
    /// simulation seed of every cell, and loads their references.
    ///
    /// # Errors
    /// A missing or unparsable reference file.
    pub fn load(
        workload: Workload,
        scale: Scale,
        repo_root: &Path,
        bench_dir: &Path,
        checking: Checking,
    ) -> Result<Suite, String> {
        let seed = scale.seed;
        let (experiment, cells) = match workload {
            Workload::Table4Baseline => {
                let cells = scale
                    .workloads
                    .iter()
                    .map(|w| SysCell::new(&scale, MitigationConfig::None, w))
                    .collect();
                ("table4", cells)
            }
            Workload::RosterMitigated => {
                let mut cells = Vec::new();
                for (_, m) in roster(&scale) {
                    for w in ROSTER_WORKLOADS {
                        if scale.workloads.contains(&w) {
                            cells.push(SysCell::new(&scale, m, w));
                        }
                    }
                }
                ("roster", cells)
            }
            Workload::AttackRig => ("attack-matrix", Vec::new()),
        };
        let expected = match checking {
            Checking::Skip => Expected::Unchecked,
            Checking::Check => {
                let path = workload.reference_path(seed, repo_root, bench_dir);
                if workload == Workload::AttackRig {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                    Expected::Csv(text.lines().map(str::to_string).collect())
                } else {
                    Expected::Runs(index_runs(&parse_json_file(&path)?, experiment))
                }
            }
        };
        Ok(Suite {
            seed,
            scale,
            experiment,
            cells,
            matrix: workload == Workload::AttackRig,
            expected,
        })
    }

    /// Keeps only the cells of one Table-IV workload.
    pub fn only(mut self, workload: &str) -> Self {
        self.cells.retain(|c| c.workload == workload);
        self
    }

    /// The system cells of the suite (empty for the attack rig).
    pub fn cells(&self) -> &[SysCell] {
        &self.cells
    }

    fn manifest(&self, runs: Vec<Json>) -> Json {
        let mut exp = Json::obj();
        exp.push("name", self.experiment)
            .push("runs", Json::Arr(runs));
        let mut doc = Json::obj();
        doc.push("scale", self.scale.to_json())
            .push("seed", self.seed)
            .push("experiments", Json::Arr(vec![exp]));
        doc
    }

    /// The reference document for this suite built from a pass's records
    /// (the manifest, or the matrix CSV).
    pub fn reference_text(&self, pass: &Pass) -> String {
        match &pass.csv {
            Some(csv) => csv.clone(),
            None => self.manifest(pass.records.clone()).to_string_pretty() + "\n",
        }
    }

    fn check_run(&self, cell: &SysCell, record: Json, pass: &mut Pass) {
        let Expected::Runs(runs) = &self.expected else {
            return;
        };
        let key = cell.key();
        let Some(expected) = runs.get(&key) else {
            pass.fail(format!("{key}: no reference run"));
            return;
        };
        let diffs = compare_manifests(
            &self.manifest(vec![expected.clone()]),
            &self.manifest(vec![record]),
        );
        if let Some(first) = diffs.first() {
            pass.fail(format!(
                "{key}: {} difference(s), first: {first}",
                diffs.len()
            ));
        }
    }

    fn check_csv(&self, csv: &str, pass: &mut Pass) {
        let Expected::Csv(expected) = &self.expected else {
            return;
        };
        // Count each differing matrix row as one failed cell.
        let rows: Vec<&str> = csv.lines().collect();
        let mut bad = rows.len().abs_diff(expected.len()) as u64;
        for (i, (a, b)) in rows.iter().zip(expected).enumerate() {
            if a != b {
                bad += 1;
                if pass.errors.len() < 8 {
                    pass.errors
                        .push(format!("matrix row {i}: got {a:?}, want {b:?}"));
                }
            }
        }
        pass.failed += bad;
    }

    /// Timed units of a pass: the whole matrix, or each system cell.
    pub fn units(&self) -> usize {
        if self.matrix {
            1
        } else {
            self.cells.len()
        }
    }

    /// Builds the input of unit `unit`: the cell's traces and `System`,
    /// or the attack matrix and the trackers its trials use.
    ///
    /// # Errors
    /// The cell's traces cannot be built.
    pub fn prepare(&self, unit: usize) -> Result<Input, String> {
        if self.matrix {
            let spec = MatrixSpec::for_scale(self.scale.clone());
            // `run_matrix` builds each trial's tracker inside its own
            // timer. Building the same trackers here, once per cell and
            // trial, gives the rig a set-up cost of its own.
            let geom = spec.scale.geometry();
            let cells_per_tracker = spec.strategies.len() * spec.schedules.len();
            for mitigator in &spec.mitigators {
                for seed in &spec.seeds {
                    for trial in 0..spec.trials {
                        let trial_seed = seed.wrapping_mul(1_000).wrapping_add(u64::from(trial));
                        for _ in 0..cells_per_tracker {
                            black_box(mitigator.build(&spec.scale, &geom, trial_seed));
                        }
                    }
                }
            }
            Ok(Input::Matrix(spec))
        } else {
            self.cells[unit].build().map(|s| Input::System(Box::new(s)))
        }
    }

    /// Runs every unit once, serially, checking each against the
    /// references. `keep_records` retains run records for writing
    /// references.
    pub fn run_pass(&self, keep_records: bool) -> Pass {
        let mut pass = Pass::default();
        let _pass_span = spans::enter("pass");
        for unit in 0..self.units() {
            self.run_unit(unit, keep_records, &mut pass);
        }
        pass
    }

    /// Prepares unit `unit` untimed, runs it timed, checks it and adds it
    /// to `pass`. Returns the host seconds of the run alone.
    pub fn run_unit(&self, unit: usize, keep_records: bool, pass: &mut Pass) -> f64 {
        let input = match std::panic::catch_unwind(|| self.prepare(unit)) {
            Ok(Ok(input)) => input,
            Ok(Err(e)) => {
                pass.attempted += 1;
                pass.fail(format!("unit {unit}: {e}"));
                return 0.0;
            }
            Err(_) => {
                pass.attempted += 1;
                pass.fail(format!("unit {unit}: set-up panicked"));
                return 0.0;
            }
        };
        match input {
            Input::Matrix(spec) => self.run_matrix(&spec, pass),
            Input::System(system) => self.run_cell(&self.cells[unit], *system, keep_records, pass),
        }
    }

    fn run_matrix(&self, spec: &MatrixSpec, pass: &mut Pass) -> f64 {
        let started = Instant::now();
        let result = std::panic::catch_unwind(|| {
            spans::time("attacks.run_matrix", || {
                run_matrix(spec, &Telemetry::disabled())
            })
        });
        let secs = started.elapsed().as_secs_f64();
        pass.secs += secs;
        pass.attempted += spec.cells() as u64;
        match result {
            Ok(result) => {
                let csv = result.to_csv();
                pass.acts += result.cells.iter().map(|c| c.total_acts).sum::<u64>();
                pass.compromised = result.cells.iter().filter(|c| c.successes > 0).count() as u64;
                let geom = spec.scale.geometry();
                pass.intervals += spec.cells() as u64
                    * u64::from(spec.trials)
                    * spec.walks
                    * u64::from(geom.refs_per_full_walk());
                self.check_csv(&csv, pass);
                pass.csv = Some(csv);
            }
            Err(_) => pass.fail("attack matrix panicked".into()),
        }
        secs
    }

    fn run_cell(
        &self,
        cell: &SysCell,
        mut system: System,
        keep_records: bool,
        pass: &mut Pass,
    ) -> f64 {
        pass.attempted += 1;
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _cell_span = spans::enter("cell");
            spans::time("sim.try_run", || system.try_run())
        }));
        let secs = started.elapsed().as_secs_f64();
        pass.secs += secs;
        match outcome {
            Ok(Ok(report)) => {
                pass.acts += report.device.acts;
                pass.instructions += report.instructions;
                pass.commands += commands(&report);
                let record = cell.run_record(&report);
                self.check_run(cell, record.clone(), pass);
                if keep_records {
                    pass.records.push(record);
                }
            }
            Ok(Err(e)) => pass.fail(format!("{}: {e}", cell.key())),
            Err(_) => pass.fail(format!("{}: panicked", cell.key())),
        }
        secs
    }
}

/// DRAM commands a run issued (both sub-channels).
pub fn commands(r: &SimReport) -> u64 {
    let d = &r.device;
    d.acts + d.pres + d.reads + d.writes + d.refs + d.rfms_proactive + d.rfms_alert
}
