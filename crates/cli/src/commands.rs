//! Subcommand implementations for `iarank`.

use std::path::Path;

use crate::args::{ArgsError, ParsedArgs};
use ia_dse::scheduler::{execute, ExecOptions};
use ia_netlist::{NetModel, Placement};
use ia_rank::canon::BoundConfig;
use ia_rank::optimize::{optimize_stack, pareto_front, StackSearchSpace};
use ia_rank::sweep::{self, Axis, NoCache};
use ia_rank::{explain, utilization};
use ia_report::Table;
use ia_wld::{Wld, WldSpec};

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failed.
    Args(ArgsError),
    /// A domain operation failed.
    Domain(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Domain(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError::Args(e)
    }
}

impl From<ia_dse::DseError> for CliError {
    fn from(e: ia_dse::DseError) -> Self {
        domain(e)
    }
}

fn domain<E: std::fmt::Display>(e: E) -> CliError {
    CliError::Domain(e.to_string())
}

/// Output format for the `--metrics` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Human-readable counter/span tables.
    Text,
    /// One compact JSON object, printed as the final stdout line so
    /// scripts can `tail -n 1` it (the CI metrics check does exactly
    /// that).
    Json,
}

/// Telemetry-reporting flags shared by every subcommand.
///
/// Parsed **before** dispatch so `--metrics`/`--trace` count as
/// consumed when the subcommand calls `reject_unknown`, and so the
/// collector (and event tracer) can be enabled before any
/// instrumented code runs.
#[derive(Debug, Clone, Default)]
pub struct MetricsOptions {
    /// Requested snapshot format, if any.
    pub format: Option<MetricsFormat>,
    /// Path for the Chrome trace-event export, if `--trace` was given.
    pub trace: Option<String>,
}

impl MetricsOptions {
    /// Reads `--metrics text|json` and `--trace PATH` from the parsed
    /// args.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Domain`] for an unrecognised metrics format.
    pub fn from_args(args: &ParsedArgs) -> Result<Self, CliError> {
        let format = match args.get_str("metrics").as_deref() {
            None => None,
            Some("text") => Some(MetricsFormat::Text),
            Some("json") => Some(MetricsFormat::Json),
            Some(other) => {
                return Err(CliError::Domain(format!(
                    "unknown metrics format `{other}` (expected text or json)"
                )))
            }
        };
        let trace = args.get_str("trace");
        Ok(Self { format, trace })
    }

    /// Whether the collector must be enabled before dispatch.
    #[must_use]
    pub fn wants_collector(&self) -> bool {
        self.format.is_some()
    }

    /// Whether event tracing must be enabled before dispatch.
    #[must_use]
    pub fn wants_trace(&self) -> bool {
        self.trace.is_some()
    }

    /// Drains the buffered trace events and writes the Chrome
    /// trace-event export to the `--trace` path. Returns the path
    /// written, or `None` when `--trace` was not given.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Domain`] when the file cannot be written.
    pub fn write_trace(&self) -> Result<Option<String>, CliError> {
        let Some(path) = &self.trace else {
            return Ok(None);
        };
        let trace = ia_obs::drain_trace();
        std::fs::write(path, trace.to_chrome_json_string("iarank"))
            .map_err(|e| CliError::Domain(format!("cannot write trace {path}: {e}")))?;
        Ok(Some(path.clone()))
    }

    /// Renders the current thread's collector snapshot in the
    /// requested format. Empty when `--metrics` was not given. The
    /// JSON form is always last so it stays the final stdout line.
    #[must_use]
    pub fn render(&self) -> String {
        match self.format {
            Some(MetricsFormat::Text) => {
                format!("\n-- metrics --\n{}", ia_obs::snapshot().to_text())
            }
            Some(MetricsFormat::Json) => format!("\n{}\n", ia_obs::snapshot().to_json_string()),
            None => String::new(),
        }
    }
}

/// Resolves `--net-model star|hpwl` (default star).
fn resolve_net_model(args: &ParsedArgs) -> Result<NetModel, CliError> {
    match args
        .get_str("net-model")
        .unwrap_or_else(|| "star".to_owned())
        .to_ascii_lowercase()
        .as_str()
    {
        "star" => Ok(NetModel::Star),
        "hpwl" => Ok(NetModel::Hpwl),
        other => Err(CliError::Domain(format!(
            "unknown net model `{other}` (expected star or hpwl)"
        ))),
    }
}

/// Reads the shared problem flags of `rank`, `sweep` and `optimize`
/// into a configuration over [`BoundConfig::default`], with the
/// `--global/--semi-global/--local` pair counts when `stack` is set
/// (`optimize` searches the stack instead). Also returns the
/// distribution `--wld` or `--netlist` supplies in place of the
/// configuration's Davis WLD, read once, here.
fn problem_flags(args: &ParsedArgs, stack: bool) -> Result<(BoundConfig, Option<Wld>), CliError> {
    let defaults = BoundConfig::default();
    let gates = args.get_opt("gates")?;
    let mut config = BoundConfig {
        node: args.get_str("node").unwrap_or(defaults.node),
        gates: gates.unwrap_or(defaults.gates),
        bunch: args.get("bunch", defaults.bunch)?,
        clock_mhz: args.get("clock-mhz", defaults.clock_mhz)?,
        fraction: args.get("fraction", defaults.fraction)?,
        miller: args.get("miller", defaults.miller)?,
        k: args.get_opt("k")?,
        ..defaults
    };
    if stack {
        config.global = args.get("global", config.global)?;
        config.semi_global = args.get("semi-global", config.semi_global)?;
        config.local = args.get("local", config.local)?;
    }
    let net_model = resolve_net_model(args)?;
    let wld = if let Some(path) = args.get_str("wld") {
        Some(ia_wld::io::read_csv_file(Path::new(&path)).map_err(domain)?)
    } else if let Some(path) = args.get_str("netlist") {
        let placement = Placement::read_file(Path::new(&path)).map_err(domain)?;
        let wld = placement.to_wld(net_model).map_err(domain)?;
        // Die sizing uses the placement's own cell count unless
        // --gates was given explicitly.
        if gates.is_none() {
            config.gates = (placement.cell_count() as u64).max(16);
        }
        Some(wld)
    } else {
        None
    };
    Ok((config, wld))
}

/// `iarank rank`: compute the rank of one configuration.
pub fn cmd_rank(args: &ParsedArgs) -> Result<String, CliError> {
    let (config, wld) = problem_flags(args, true)?;
    let detail = args.get("detail", false)?;
    args.reject_unknown()?;

    let bound = config.bind().map_err(domain)?;
    let builder = match wld {
        Some(wld) => bound.builder_with_wld(wld),
        None => bound.builder(),
    };
    let problem = builder.map_err(domain)?.build().map_err(domain)?;
    let result = problem.rank();
    let greedy = problem.greedy_rank();

    let mut out = String::new();
    out.push_str(&format!("node         : {}\n", bound.node.name()));
    out.push_str(&format!(
        "architecture : {} layer-pairs\n",
        bound.architecture.len()
    ));
    out.push_str(&format!("die area     : {}\n", problem.die().die_area()));
    out.push_str(&format!("result       : {result}\n"));
    out.push_str(&format!("greedy       : {greedy}\n"));
    out.push_str(&format!(
        "repeaters    : {} ({})\n",
        result.repeater_count(),
        result.repeater_area()
    ));
    out.push_str(&format!(
        "frontier     : {}\n",
        explain::frontier(problem.instance(), result.solution())
    ));
    if detail {
        let mut t = Table::new(["pair", "wires", "met", "util %", "repeaters"]);
        for u in utilization(problem.instance(), result.solution()) {
            t.row([
                u.pair.to_string(),
                u.wires.to_string(),
                u.met_wires.to_string(),
                u.utilization()
                    .map_or_else(|| "blocked".to_string(), |x| format!("{:.1}", 100.0 * x)),
                u.repeaters.to_string(),
            ]);
        }
        out.push('\n');
        out.push_str(&t.render());
    }
    Ok(out)
}

/// `iarank sweep --axis k|m|c|r [--parallel]`: regenerate one Table 4
/// column on the dse point executor, with one worker, or one per
/// available CPU under `--parallel`.
pub fn cmd_sweep(args: &ParsedArgs) -> Result<String, CliError> {
    let (config, wld) = problem_flags(args, true)?;
    let axis = args.get_str("axis").unwrap_or_else(|| "k".to_owned());
    let parallel = args.get("parallel", false)?;
    args.reject_unknown()?;

    let axis = Axis::parse(&axis).map_err(domain)?;
    let values = axis.paper_values();
    let configs = sweep::configs(&config, axis, values).map_err(domain)?;
    let workers = if parallel {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        1
    };
    let solve = |config: &BoundConfig| {
        match &wld {
            Some(wld) => config.solve_with_wld(wld.clone()),
            None => config.solve(),
        }
        .map_err(domain)
    };
    let outcome = execute(
        &ia_serve::api::SWEEP_EXEC,
        &configs,
        &BoundConfig::cache_key,
        &solve,
        &NoCache,
        &ExecOptions {
            workers,
            ..ExecOptions::default()
        },
    )?;
    let points = ia_serve::api::sweep_points(values, &outcome);
    Ok(ia_serve::api::sweep_table(axis, &points))
}

/// `iarank wld`: generate a Davis WLD and print or save it as CSV.
pub fn cmd_wld(args: &ParsedArgs) -> Result<String, CliError> {
    let gates = args.get("gates", 1_000_000u64)?;
    let rent_p = args.get("rent-p", 0.6f64)?;
    let out = args.get_str("out");
    args.reject_unknown()?;

    let rent = ia_wld::RentParameters::new(rent_p, 4.0, 3.0).map_err(domain)?;
    let wld = WldSpec::with_rent(gates, rent).map_err(domain)?.generate();
    let stats = wld.stats();
    let csv = ia_wld::io::to_csv(&wld);
    if let Some(path) = out {
        ia_wld::io::write_csv_file(&wld, std::path::Path::new(&path)).map_err(domain)?;
        Ok(format!(
            "wrote {} wires across {} lengths to {path} (mean {:.2}, max {})\n",
            stats.total_wires, stats.distinct_lengths, stats.mean_length, stats.max_length
        ))
    } else {
        Ok(csv)
    }
}

/// `iarank netlist`: inspect a placement and convert it to a WLD CSV.
pub fn cmd_netlist(args: &ParsedArgs) -> Result<String, CliError> {
    let Some(path) = args.get_str("in") else {
        return Err(CliError::Domain("`netlist` needs `--in FILE`".to_owned()));
    };
    let model = resolve_net_model(args)?;
    let out = args.get_str("out");
    args.reject_unknown()?;

    let placement = Placement::read_file(std::path::Path::new(&path)).map_err(domain)?;
    let stats = placement.stats();
    let wld = placement.to_wld(model).map_err(domain)?;
    let wld_stats = wld.stats();
    let mut text = format!(
        "placement: {} cells, {} nets, mean fanout {:.2}, span {} pitches\nextracted ({model}): {} connections across {} lengths (mean {:.2}, max {})\n",
        stats.cells,
        stats.nets,
        stats.mean_fanout,
        stats.span,
        wld_stats.total_wires,
        wld_stats.distinct_lengths,
        wld_stats.mean_length,
        wld_stats.max_length,
    );
    if let Some(out_path) = out {
        ia_wld::io::write_csv_file(&wld, std::path::Path::new(&out_path)).map_err(domain)?;
        text.push_str(&format!(
            "wrote {out_path}
"
        ));
    } else {
        text.push('\n');
        text.push_str(&ia_wld::io::to_csv(&wld));
    }
    Ok(text)
}

/// `iarank optimize`: search stacks by rank within a pair budget.
pub fn cmd_optimize(args: &ParsedArgs) -> Result<String, CliError> {
    let (config, wld) = problem_flags(args, false)?;
    let max_pairs = args.get("max-pairs", 5usize)?;
    args.reject_unknown()?;
    let space = StackSearchSpace {
        max_total_pairs: max_pairs,
        global_pairs: 1..=2.min(max_pairs),
        semi_global_pairs: 1..=4.min(max_pairs),
        local_pairs: 0..=2.min(max_pairs),
        semi_global_pitch_scales: vec![1.0, 1.5],
    };
    let node = config.bind().map_err(domain)?.node;
    // Every candidate stack ranks the same distribution: the supplied
    // one, or the configuration's Davis WLD, generated once.
    let wld = match wld {
        Some(wld) => wld,
        None => WldSpec::new(config.gates).map_err(domain)?.generate(),
    };
    let ranked = optimize_stack(&node, &space, |builder| {
        config.knobs(builder.wld(wld.clone()).gates(config.gates))
    })
    .map_err(domain)?;

    let mut t = Table::new(["pairs", "stack", "rank", "normalized"]);
    for e in &ranked {
        t.row([
            e.candidate.total_pairs().to_string(),
            e.candidate.to_string(),
            if e.routable {
                e.rank.to_string()
            } else {
                "unroutable".to_owned()
            },
            format!("{:.6}", e.normalized),
        ]);
    }
    let mut out = t.render();
    out.push_str("\npareto front (pairs vs rank):\n");
    for e in pareto_front(&ranked) {
        out.push_str(&format!(
            "  {} pairs: {} -> rank {}\n",
            e.candidate.total_pairs(),
            e.candidate,
            e.rank
        ));
    }
    Ok(out)
}

/// Formats a dse run outcome as the `dse run`/`dse resume` status
/// block. The first line is `run: <dir>` so scripts (and the CI smoke
/// job) can scrape the run directory.
fn dse_status(outcome: &ia_dse::RunOutcome) -> String {
    let mut out = format!("run: {}\n", outcome.run_dir);
    out.push_str(&format!("run id: {}\n", outcome.run_id));
    out.push_str(&format!(
        "points: {} total, {} solved, {} cached, {} skipped ({} rounds)\n",
        outcome.total_points, outcome.solved, outcome.cached, outcome.skipped, outcome.rounds
    ));
    if outcome.complete {
        out.push_str("status: complete\n");
    } else {
        out.push_str(&format!(
            "status: incomplete — continue with `iarank dse resume --run {}`\n",
            outcome.run_dir
        ));
    }
    out
}

/// `iarank dse run|resume|report`: declarative design-space
/// exploration over a resumable on-disk run store (see docs/dse.md).
pub fn cmd_dse(args: &ParsedArgs) -> Result<String, CliError> {
    let Some(action) = args.subcommand().map(str::to_owned) else {
        return Err(CliError::Domain(
            "`dse` needs an action: run, resume or report".to_owned(),
        ));
    };
    match action.as_str() {
        "run" => {
            let opts = dse_options(args)?;
            let Some(spec_path) = args.get_str("spec") else {
                return Err(CliError::Domain("`dse run` needs `--spec FILE`".to_owned()));
            };
            let runs = args.get_str("runs").unwrap_or_else(|| "runs".to_owned());
            let remote = args.get_str("workers-remote");
            args.reject_unknown()?;
            let text = std::fs::read_to_string(&spec_path)
                .map_err(|e| CliError::Domain(format!("cannot read spec {spec_path}: {e}")))?;
            let spec = ia_dse::ExperimentSpec::parse_str(&text).map_err(domain)?;
            if let Some(coordinator) = remote {
                return dse_run_remote(&coordinator, &text, &spec);
            }
            let outcome = ia_dse::run(&spec, std::path::Path::new(&runs), &opts).map_err(domain)?;
            Ok(dse_status(&outcome))
        }
        "resume" => {
            let opts = dse_options(args)?;
            let Some(run_dir) = args.get_str("run") else {
                return Err(CliError::Domain(
                    "`dse resume` needs `--run DIR`".to_owned(),
                ));
            };
            args.reject_unknown()?;
            let outcome = ia_dse::resume(std::path::Path::new(&run_dir), &opts).map_err(domain)?;
            Ok(dse_status(&outcome))
        }
        "report" => {
            let Some(run_dir) = args.get_str("run") else {
                return Err(CliError::Domain(
                    "`dse report` needs `--run DIR`".to_owned(),
                ));
            };
            let csv = args.get("csv", false)?;
            args.reject_unknown()?;
            // The report is a pure function of the persisted run: an
            // interrupted-then-resumed run prints byte-identically to
            // an uninterrupted one. Nothing is appended here.
            if csv {
                ia_dse::report::for_run_csv(std::path::Path::new(&run_dir)).map_err(domain)
            } else {
                ia_dse::report::for_run(std::path::Path::new(&run_dir)).map_err(domain)
            }
        }
        other => Err(CliError::Domain(format!(
            "unknown dse action `{other}` (expected run, resume or report)"
        ))),
    }
}

/// Reads the optional `--workers`/`--max-points` overrides into
/// engine options.
fn dse_options(args: &ParsedArgs) -> Result<ia_dse::RunOptions<'static>, CliError> {
    Ok(ia_dse::RunOptions {
        workers: args.get_opt("workers")?,
        budget: args.get_opt("max-points")?,
        ..ia_dse::RunOptions::default()
    })
}

/// `dse run --workers-remote ADDR`: submit the spec to a fleet
/// coordinator's `POST /dse` and poll `GET /dse/<id>` until the job
/// finishes, so the exploration executes on the coordinator's worker
/// fleet instead of this process.
fn dse_run_remote(
    coordinator: &str,
    spec_text: &str,
    spec: &ia_dse::ExperimentSpec,
) -> Result<String, CliError> {
    use ia_obs::json::JsonValue;
    let timeout = std::time::Duration::from_secs(10);
    let (status, body) =
        ia_serve::client::post_json(coordinator, "/dse", spec_text, timeout).map_err(domain)?;
    if status != 202 {
        return Err(CliError::Domain(format!(
            "coordinator rejected the spec ({status}): {body}"
        )));
    }
    let job = JsonValue::parse(&body)
        .ok()
        .and_then(|doc| doc.get("job").and_then(JsonValue::as_u64))
        .ok_or_else(|| CliError::Domain(format!("bad submit response: {body}")))?;
    let path = format!("/dse/{job}");
    loop {
        std::thread::sleep(std::time::Duration::from_millis(100));
        let (status, body) = ia_serve::client::get(coordinator, &path, timeout).map_err(domain)?;
        if status != 200 {
            return Err(CliError::Domain(format!(
                "job poll failed ({status}): {body}"
            )));
        }
        let doc = JsonValue::parse(&body)
            .map_err(|e| CliError::Domain(format!("bad job status: {e}")))?;
        match doc.get("status").and_then(|v| v.as_str()) {
            Some("running") => {}
            Some("done") => {
                let count = |name: &str| {
                    doc.get("result")
                        .and_then(|r| r.get(name))
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0)
                };
                let complete = doc
                    .get("result")
                    .and_then(|r| r.get("complete"))
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false);
                return Ok(format!(
                    "coordinator: {coordinator}\njob: {job}\nrun id: {}\n\
                     points: {} total, {} solved, {} cached, {} skipped ({} rounds)\n\
                     status: {}\n",
                    spec.run_id(),
                    count("total_points"),
                    count("solved"),
                    count("cached"),
                    count("skipped"),
                    count("rounds"),
                    if complete { "complete" } else { "incomplete" },
                ));
            }
            Some("failed") => {
                let message = doc
                    .get("error")
                    .and_then(|v| v.as_str().map(str::to_owned))
                    .unwrap_or_else(|| "unknown error".to_owned());
                return Err(CliError::Domain(format!(
                    "remote dse job failed: {message}"
                )));
            }
            other => {
                return Err(CliError::Domain(format!(
                    "unexpected job status `{}`",
                    other.unwrap_or("<missing>")
                )))
            }
        }
    }
}

/// Formats a corpus run outcome as the `corpus run`/`corpus resume`
/// status block. The first line is `run: <dir>` so scripts (and the
/// CI smoke job) can scrape the run directory, matching `dse run`.
fn corpus_status(outcome: &ia_corpus::RunOutcome) -> String {
    let mut out = format!("run: {}\n", outcome.run_dir);
    out.push_str(&format!("run id: {}\n", outcome.run_id));
    out.push_str(&format!(
        "points: {} total, {} solved, {} cached, {} skipped\n",
        outcome.total_points, outcome.solved, outcome.cached, outcome.skipped
    ));
    if outcome.complete {
        out.push_str("status: complete\n");
    } else {
        out.push_str(&format!(
            "status: incomplete — continue with `iarank corpus resume --run {}`\n",
            outcome.run_dir
        ));
    }
    out
}

/// Reads the optional `--workers`/`--max-points` overrides into corpus
/// engine options.
fn corpus_options(args: &ParsedArgs) -> Result<ia_corpus::RunOptions, CliError> {
    Ok(ia_corpus::RunOptions {
        workers: args.get_opt("workers")?,
        budget: args.get_opt("max-points")?,
    })
}

/// `iarank corpus run|resume|report`: real-design corpus workloads —
/// designs × WLD backends × degradation levels over a resumable run
/// store (see docs/corpus.md).
pub fn cmd_corpus(args: &ParsedArgs) -> Result<String, CliError> {
    let Some(action) = args.subcommand().map(str::to_owned) else {
        return Err(CliError::Domain(
            "`corpus` needs an action: run, resume or report".to_owned(),
        ));
    };
    match action.as_str() {
        "run" => {
            let opts = corpus_options(args)?;
            let Some(spec_path) = args.get_str("spec") else {
                return Err(CliError::Domain(
                    "`corpus run` needs `--spec FILE`".to_owned(),
                ));
            };
            let runs = args.get_str("runs").unwrap_or_else(|| "runs".to_owned());
            args.reject_unknown()?;
            let text = std::fs::read_to_string(&spec_path)
                .map_err(|e| CliError::Domain(format!("cannot read spec {spec_path}: {e}")))?;
            let spec = ia_corpus::CorpusSpec::parse_str(&text).map_err(domain)?;
            let outcome =
                ia_corpus::run(&spec, std::path::Path::new(&runs), &opts).map_err(domain)?;
            Ok(corpus_status(&outcome))
        }
        "resume" => {
            let opts = corpus_options(args)?;
            let Some(run_dir) = args.get_str("run") else {
                return Err(CliError::Domain(
                    "`corpus resume` needs `--run DIR`".to_owned(),
                ));
            };
            args.reject_unknown()?;
            let (_, outcome) =
                ia_corpus::resume(std::path::Path::new(&run_dir), &opts).map_err(domain)?;
            Ok(corpus_status(&outcome))
        }
        "report" => {
            let Some(run_dir) = args.get_str("run") else {
                return Err(CliError::Domain(
                    "`corpus report` needs `--run DIR`".to_owned(),
                ));
            };
            let csv = args.get("csv", false)?;
            args.reject_unknown()?;
            // The report is a pure replay of the persisted run:
            // nothing is solved, generated, or ingested here, and an
            // interrupted-then-resumed run prints byte-identically to
            // an uninterrupted one.
            if csv {
                ia_corpus::report::for_run_csv(std::path::Path::new(&run_dir)).map_err(domain)
            } else {
                ia_corpus::report::for_run(std::path::Path::new(&run_dir)).map_err(domain)
            }
        }
        other => Err(CliError::Domain(format!(
            "unknown corpus action `{other}` (expected run, resume or report)"
        ))),
    }
}

/// `iarank fleet worker --coordinator ADDR`: one distributed-dse
/// worker process that pulls point leases from a fleet-mode `iarank
/// serve` over HTTP (see docs/dse.md).
pub fn cmd_fleet(args: &ParsedArgs) -> Result<String, CliError> {
    let Some(action) = args.subcommand().map(str::to_owned) else {
        return Err(CliError::Domain(
            "`fleet` needs an action: worker".to_owned(),
        ));
    };
    if action != "worker" {
        return Err(CliError::Domain(format!(
            "unknown fleet action `{action}` (expected worker)"
        )));
    }
    let coordinator = args.get_str("coordinator");
    let defaults = ia_serve::WorkerOptions::default();
    let opts = ia_serve::WorkerOptions {
        worker_id: args.get_str("worker-id").unwrap_or(defaults.worker_id),
        poll_ms: args.get("poll-ms", defaults.poll_ms)?,
        max_idle_ms: args.get("max-idle-ms", defaults.max_idle_ms)?,
        stall_ms: args.get("stall-ms", defaults.stall_ms)?,
        timeout: defaults.timeout,
    };
    args.reject_unknown()?;
    let Some(coordinator) = coordinator else {
        return Err(CliError::Domain(
            "`fleet worker` needs `--coordinator ADDR`".to_owned(),
        ));
    };
    let outcome = ia_serve::fleet::run_worker(&coordinator, &opts).map_err(domain)?;
    Ok(format!(
        "coordinator: {coordinator}\nworker: {}\n\
         points: {} solved, {} failed, {} idle polls, {} uploads abandoned\n\
         stopped: {}\n",
        opts.worker_id,
        outcome.solved,
        outcome.failed,
        outcome.idle_polls,
        outcome.abandoned_uploads,
        outcome.stop
    ))
}

/// The `--help` text.
#[must_use]
pub fn usage() -> String {
    "\
iarank — the DATE 2003 interconnect-architecture rank metric

USAGE:
  iarank <command> [--flag value]...

COMMANDS:
  rank       compute the rank of one configuration
  sweep      regenerate a Table 4 column (--axis k|m|c|r [--parallel])
  wld        generate a Davis wire-length distribution as CSV
  netlist    extract a WLD from a placed netlist (--in FILE [--net-model star|hpwl])
  optimize   search BEOL stacks by rank within a pair budget
  serve      run the rank service over HTTP (see docs/serving.md)
  dse        declarative design-space exploration (see docs/dse.md):
             dse run --spec FILE | dse resume --run DIR | dse report --run DIR
  corpus     real-design corpus workloads (see docs/corpus.md):
             corpus run --spec FILE | corpus resume --run DIR |
             corpus report --run DIR [--csv]
  fleet      distributed dse worker (see docs/dse.md):
             fleet worker --coordinator ADDR
  help       show this text (also `--help` or `-h`, after any command)

SHARED FLAGS (rank, sweep, optimize):
  --node 90|130|180        technology node preset       [130]
  --gates N                design gate count            [1000000]
  --wld FILE.csv           use a CSV WLD instead of the Davis model
  --netlist FILE           extract the WLD from a placed netlist
  --net-model star|hpwl    multi-terminal net decomposition [star]
  --bunch N                coarsening bunch size        [10000]
  --clock-mhz F            target clock frequency (MHz) [500]
  --fraction F             repeater area fraction       [0.4]
  --miller F               Miller coupling factor       [2.0]
  --k F                    ILD permittivity override    [node default]
  --global/--semi-global/--local N   (rank, sweep) stack pair counts [1/2/0]
  --detail                 (rank only) also print the per-pair
                           utilization table (--detail true also
                           accepted)
  --parallel               (sweep only) solve on one worker thread per
                           available CPU instead of one; worker
                           telemetry is merged into the caller's
                           snapshot and trace

DSE FLAGS:
  --spec FILE              experiment spec, TOML or JSON (dse run)
  --runs DIR               run-store root directory       [runs]
  --run DIR                an existing run directory (resume, report)
  --workers N              worker-thread override         [spec value]
  --max-points N           fresh-solve budget for this invocation; the
                           run stops incomplete when it is reached and
                           `dse resume` continues it
  --csv                    (dse report) emit the run as CSV instead of
                           the Table-4-style text report
  --workers-remote ADDR    (dse run) submit the spec to a fleet
                           coordinator and poll until the job finishes

CORPUS FLAGS:
  --spec FILE              corpus spec, TOML or JSON (corpus run):
                           designs × backends (measured, davis,
                           hefeida-site, hefeida-occupancy) × degrade
                           levels (γ ≥ 1)
  --runs DIR               run-store root directory       [runs]
  --run DIR                an existing run directory (resume, report)
  --workers N              worker-thread override         [spec value]
  --max-points N           fresh-solve budget; `corpus resume`
                           continues an incomplete run
  --csv                    (corpus report) emit the stable ia-corpus-v1
                           CSV instead of the text report

FLEET WORKER FLAGS:
  --coordinator ADDR       pull point leases over HTTP from a
                           `serve --fleet` coordinator
  --worker-id ID           lease identity               [worker-<pid>]
  --poll-ms N              idle poll interval           [25]
  --max-idle-ms N          exit after this long with no work (0 = wait
                           until the coordinator drains) [0]
  --stall-ms N             fault injection: hold each lease this long
                           before solving               [0]

SERVE FLAGS:
  --addr HOST:PORT         listen address (port 0 = ephemeral) [127.0.0.1:8080]
  --workers N              worker-thread count           [4]
  --cache-entries N        solve-cache capacity          [256]
  --queue-depth N          accept-queue bound (429 past it) [64]
  --request-timeout-ms N   per-request deadline          [10000]
  --fleet                  enable the fleet coordinator: dse jobs are
                           dispatched to remote workers over /fleet/*
  --lease-ms N             fleet point-lease duration    [30000]
  --heartbeat-ms N         fleet worker heartbeat cadence [5000]
  --runs DIR               persist dse jobs as resumable run stores

TELEMETRY FLAGS (any command):
  --metrics text|json      print solver counters and span timings after
                           the command output (text shows the spans as
                           a call tree with self times; json is one
                           compact object on the final stdout line)
  --trace FILE.json        record span/counter events and write a
                           Chrome trace-event file (open it at
                           ui.perfetto.dev or chrome://tracing)

EXAMPLES:
  iarank rank --node 130 --gates 1000000 --detail true
  iarank rank --gates 400000 --metrics json
  iarank sweep --axis r --gates 400000 --metrics text
  iarank sweep --axis k --gates 400000 --parallel --trace sweep.json
  iarank wld --gates 250000 --out design.csv
  iarank optimize --node 90 --max-pairs 5 --gates 400000
  iarank serve --addr 127.0.0.1:0 --workers 4 --cache-entries 512
  iarank dse run --spec grid.toml --runs runs --metrics json
  iarank dse report --run runs/1a2b3c4d5e6f7a8b --csv
  iarank corpus run --spec corpus.toml --runs runs
  iarank corpus report --run runs/9f8e7d6c5b4a3f2e --csv
  iarank serve --addr 127.0.0.1:8080 --fleet --runs runs
  iarank fleet worker --coordinator 127.0.0.1:8080 --worker-id w1
  iarank dse run --spec grid.toml --workers-remote 127.0.0.1:8080
"
    .to_owned()
}

/// `iarank serve`: run the rank service until `POST /shutdown` drains
/// it. SIGTERM takes its default action: the process ends at once
/// with exit status 143.
///
/// The listening address is printed (and flushed) *before* the call
/// blocks, so scripts binding an ephemeral port (`--addr
/// 127.0.0.1:0`) can parse the resolved port from the first stdout
/// line. On graceful shutdown the worker threads' telemetry has been
/// merged into this thread, so `--metrics`/`--trace` reports cover
/// everything the server did.
pub fn cmd_serve(args: &ParsedArgs) -> Result<String, CliError> {
    let addr = args
        .get_str("addr")
        .unwrap_or_else(|| "127.0.0.1:8080".to_owned());
    let workers = args.get("workers", 4usize)?;
    let cache_entries = args.get("cache-entries", 256usize)?;
    let queue_depth = args.get("queue-depth", 64usize)?;
    let request_timeout_ms = args.get("request-timeout-ms", 10_000u64)?;
    let fleet = args.get("fleet", false)?;
    let lease_ms = args.get("lease-ms", 30_000u64)?;
    let heartbeat_ms = args.get("heartbeat-ms", 5_000u64)?;
    let runs = args.get_str("runs");
    args.reject_unknown()?;

    let config = ia_serve::ServerConfig {
        addr,
        workers,
        cache_entries,
        queue_depth,
        request_timeout: std::time::Duration::from_millis(request_timeout_ms),
        fleet,
        lease_ms,
        heartbeat_ms,
        runs: runs.map(std::path::PathBuf::from),
        ..ia_serve::ServerConfig::default()
    };
    let server = ia_serve::Server::bind(config).map_err(domain)?;
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        let _ = writeln!(stdout, "listening on {}", server.local_addr());
        let _ = stdout.flush();
    }
    let served = server.join();
    Ok(format!("served {served} requests"))
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, bad flags, or domain
/// failures; the caller prints the message and exits non-zero.
pub fn dispatch(args: &ParsedArgs) -> Result<String, CliError> {
    if args.help {
        return Ok(usage());
    }
    match args.command.as_deref() {
        Some("rank") => cmd_rank(args),
        Some("sweep") => cmd_sweep(args),
        Some("wld") => cmd_wld(args),
        Some("netlist") => cmd_netlist(args),
        Some("optimize") => cmd_optimize(args),
        Some("serve") => cmd_serve(args),
        Some("dse") => cmd_dse(args),
        Some("corpus") => cmd_corpus(args),
        Some("fleet") => cmd_fleet(args),
        Some("help") | None => Ok(usage()),
        Some(other) => Err(CliError::Domain(format!(
            "unknown command `{other}` — try `iarank help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tokens: &[&str]) -> Result<String, CliError> {
        let args = ParsedArgs::parse(tokens.iter().copied()).map_err(CliError::Args)?;
        dispatch(&args)
    }

    #[test]
    fn serve_rejects_unknown_flags_before_binding() {
        let err = run(&["serve", "--typo", "1"]).unwrap_err();
        assert!(err.to_string().contains("typo"));
        let err = run(&["serve", "--workers", "many"]).unwrap_err();
        assert!(err.to_string().contains("workers"));
    }

    #[test]
    fn help_lists_all_commands() {
        let text = run(&["help"]).unwrap();
        for cmd in ["rank", "sweep", "wld", "optimize", "serve"] {
            assert!(text.contains(cmd));
        }
        assert_eq!(run(&[]).unwrap(), usage());
        for tokens in [
            &["--help"][..],
            &["-h"],
            &["rank", "--help"],
            &["sweep", "-h"],
        ] {
            assert_eq!(run(tokens).unwrap(), usage(), "{tokens:?}");
        }
    }

    #[test]
    fn rank_small_design_runs() {
        let out = run(&["rank", "--gates", "30000", "--bunch", "3000"]).unwrap();
        assert!(out.contains("rank"));
        assert!(out.contains("tsmc130"));
        assert!(out.contains("frontier"));
    }

    #[test]
    fn rank_detail_prints_utilization_table() {
        let out = run(&[
            "rank", "--gates", "30000", "--bunch", "3000", "--detail", "true",
        ])
        .unwrap();
        assert!(out.contains("util %"));
    }

    #[test]
    fn unknown_node_is_rejected() {
        let err = run(&["rank", "--node", "65", "--gates", "30000"]).unwrap_err();
        assert!(err.to_string().contains("unknown node"));
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = run(&["rank", "--gates", "30000", "--typo", "1"]).unwrap_err();
        assert!(err.to_string().contains("--typo"));
        // The telemetry flags are read before dispatch, as in `main`.
        let args = ParsedArgs::parse(["rank", "--gates", "30000", "--prof-out", "x"]).unwrap();
        MetricsOptions::from_args(&args).unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(matches!(err, CliError::Args(_)), "{err}");
        assert!(err.to_string().contains("--prof-out"));
    }

    #[test]
    fn sweep_axis_validation() {
        let err = run(&["sweep", "--axis", "x", "--gates", "30000"]).unwrap_err();
        assert!(err.to_string().contains("unknown axis"));
    }

    #[test]
    fn sweep_r_small_runs() {
        let out = run(&[
            "sweep", "--axis", "r", "--gates", "30000", "--bunch", "3000",
        ])
        .unwrap();
        assert!(out.lines().count() >= 7); // header + rule + 5 rows
    }

    #[test]
    fn wld_generation_prints_csv() {
        let out = run(&["wld", "--gates", "10000"]).unwrap();
        assert!(out.starts_with("length,count"));
        let parsed = ia_wld::io::from_csv(&out).unwrap();
        assert!(parsed.total_wires() > 10_000);
    }

    #[test]
    fn wld_round_trips_through_rank() {
        let dir = std::env::temp_dir().join("iarank_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.csv");
        let msg = run(&["wld", "--gates", "30000", "--out", path.to_str().unwrap()]).unwrap();
        assert!(msg.contains("wrote"));
        let out = run(&[
            "rank",
            "--gates",
            "30000",
            "--wld",
            path.to_str().unwrap(),
            "--bunch",
            "3000",
        ])
        .unwrap();
        assert!(out.contains("rank"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn netlist_command_extracts_and_ranks() {
        let dir = std::env::temp_dir().join("iarank_netlist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.place");
        std::fs::write(
            &path,
            "cell a 0 0\ncell b 10 0\ncell c 0 20\nnet n1 a b c\nnet n2 b c\n",
        )
        .unwrap();
        let out = run(&["netlist", "--in", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("3 cells"));
        assert!(out.contains("length,count"));
        // HPWL model merges each net into one connection.
        let out = run(&[
            "netlist",
            "--in",
            path.to_str().unwrap(),
            "--net-model",
            "hpwl",
        ])
        .unwrap();
        assert!(out.contains("2 connections"));
        // Rank directly from the placement.
        let out = run(&["rank", "--netlist", path.to_str().unwrap(), "--bunch", "1"]).unwrap();
        assert!(out.contains("result"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn netlist_rejects_bad_model_and_missing_input() {
        let err = run(&["netlist"]).unwrap_err();
        assert!(err.to_string().contains("--in"));
        let err = run(&["netlist", "--in", "/nonexistent", "--net-model", "mesh"]).unwrap_err();
        assert!(err.to_string().contains("unknown net model"));
    }

    /// Mimics `main`'s flow for telemetry flags: metrics options are
    /// parsed (and thereby consumed) before dispatch, and the collector
    /// (and tracer) are enabled when requested. The flags are global
    /// but the collector storage is thread-local, so enabling them here
    /// cannot perturb other tests' assertions; they are intentionally
    /// never disabled.
    fn run_with_metrics(tokens: &[&str]) -> (String, MetricsOptions) {
        let args = ParsedArgs::parse(tokens.iter().copied()).unwrap();
        let metrics = MetricsOptions::from_args(&args).unwrap();
        if metrics.wants_collector() {
            ia_obs::set_enabled(true);
            ia_obs::reset();
        }
        if metrics.wants_trace() {
            ia_obs::set_trace_enabled(true);
            let _ = ia_obs::drain_trace();
        }
        let out = dispatch(&args).unwrap();
        (out, metrics)
    }

    #[test]
    fn metrics_json_is_final_line_with_dp_counters() {
        let (_, metrics) = run_with_metrics(&[
            "rank",
            "--gates",
            "30000",
            "--bunch",
            "3000",
            "--metrics",
            "json",
        ]);
        let rendered = metrics.render();
        let last = rendered.lines().last().unwrap();
        let doc = ia_obs::json::JsonValue::parse(last).unwrap();
        let counters = doc.get("counters").unwrap();
        assert!(counters.get("dp.states").unwrap().as_u64().unwrap() > 0);
        assert!(counters.get("dp.front_max").unwrap().as_u64().unwrap() >= 1);
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("path").and_then(ia_obs::json::JsonValue::as_str) == Some("dp.solve")));
    }

    #[test]
    fn metrics_text_renders_spans_as_a_call_tree() {
        let (_, metrics) = run_with_metrics(&[
            "rank",
            "--gates",
            "30000",
            "--bunch",
            "3000",
            "--metrics",
            "text",
        ]);
        let rendered = metrics.render();
        assert!(rendered.contains("-- metrics --"));
        assert!(rendered.contains("dp.states"));
        let indent = |line: &str| line.len() - line.trim_start().len();
        let solve = rendered
            .lines()
            .find(|l| l.trim_start().starts_with("dp.solve "))
            .expect("a dp.solve line");
        let expand = rendered
            .lines()
            .find(|l| l.trim_start().starts_with("expand "))
            .expect("an expand line");
        assert!(solve.contains("self=") && expand.contains("self="));
        assert_eq!(indent(expand), indent(solve) + 2, "{rendered}");
    }

    #[test]
    fn parallel_sweep_merges_worker_counters_into_snapshot() {
        let (out, metrics) = run_with_metrics(&[
            "sweep",
            "--axis",
            "r",
            "--gates",
            "30000",
            "--bunch",
            "3000",
            "--parallel",
            "true",
            "--metrics",
            "json",
        ]);
        assert!(out.lines().count() >= 7, "sweep table rendered: {out}");
        let rendered = metrics.render();
        let last = rendered.lines().last().unwrap();
        let doc = ia_obs::json::JsonValue::parse(last).unwrap();
        let counters = doc.get("counters").unwrap();
        assert!(
            counters.get("dp.states").unwrap().as_u64().unwrap() > 0,
            "worker-thread DP counters reach the caller's snapshot: {last}"
        );
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        let paths: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.get("path").and_then(ia_obs::json::JsonValue::as_str))
            .collect();
        assert!(paths.contains(&"sweep.point"), "{paths:?}");
        assert!(paths.contains(&"sweep.point/dp.solve"), "{paths:?}");
    }

    #[test]
    fn parallel_sweep_trace_has_worker_tracks() {
        use ia_obs::json::JsonValue;
        let dir = std::env::temp_dir().join("iarank_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep_trace.json");
        let (_, metrics) = run_with_metrics(&[
            "sweep",
            "--axis",
            "r",
            "--gates",
            "30000",
            "--bunch",
            "3000",
            "--parallel",
            "true",
            "--trace",
            path.to_str().unwrap(),
        ]);
        assert_eq!(
            metrics.write_trace().unwrap().as_deref(),
            path.to_str(),
            "write_trace reports the written path"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = JsonValue::parse(&text).expect("trace file is valid JSON");
        let events = doc.as_array().expect("chrome trace is a JSON array");
        let worker_tracks: Vec<&JsonValue> = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(JsonValue::as_str) == Some("thread_name")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(JsonValue::as_str)
                        .is_some_and(|n| n.starts_with("sweep.worker."))
            })
            .collect();
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(
            worker_tracks.len(),
            workers.min(5),
            "one per worker: {text}"
        );
        let span_tids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(JsonValue::as_str), Some("B" | "E")))
            .filter_map(|e| e.get("tid").and_then(JsonValue::as_u64))
            .collect();
        assert!(
            span_tids.len() >= worker_tracks.len(),
            "workers render as distinct tracks: {span_tids:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn metrics_format_is_validated() {
        let args = ParsedArgs::parse(["rank", "--metrics", "xml"].iter().copied()).unwrap();
        let err = MetricsOptions::from_args(&args).unwrap_err();
        assert!(err.to_string().contains("unknown metrics format"));
        assert!(matches!(err, CliError::Domain(_)));
    }

    #[test]
    fn metrics_render_is_empty_without_flags() {
        let args = ParsedArgs::parse(["rank"].iter().copied()).unwrap();
        let metrics = MetricsOptions::from_args(&args).unwrap();
        assert!(!metrics.wants_collector());
        assert_eq!(metrics.render(), "");
    }

    #[test]
    fn dse_run_interrupt_resume_report_round_trip() {
        let dir = std::env::temp_dir().join(format!("iarank_dse_cli_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("grid.toml");
        std::fs::write(
            &spec_path,
            "name = \"cli-smoke\"\n\n[base]\ngates = 20000\nbunch = 2000\n\n[[axes]]\nknob = \"m\"\nvalues = [1.5, 2.0, 2.5]\n",
        )
        .unwrap();
        let runs = dir.join("runs");

        // Interrupted run: only one fresh solve allowed.
        let out = run(&[
            "dse",
            "run",
            "--spec",
            spec_path.to_str().unwrap(),
            "--runs",
            runs.to_str().unwrap(),
            "--max-points",
            "1",
        ])
        .unwrap();
        assert!(out.contains("1 solved"));
        assert!(out.contains("status: incomplete"));
        let run_dir = out
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("run: "))
            .unwrap()
            .to_owned();

        // Resume finishes without re-solving the persisted point.
        let out = run(&["dse", "resume", "--run", &run_dir]).unwrap();
        assert!(out.contains("2 solved"));
        assert!(out.contains("1 cached"));
        assert!(out.contains("status: complete"));

        // The report matches an uninterrupted run byte for byte.
        let resumed_report = run(&["dse", "report", "--run", &run_dir]).unwrap();
        let runs2 = dir.join("runs2");
        let out = run(&[
            "dse",
            "run",
            "--spec",
            spec_path.to_str().unwrap(),
            "--runs",
            runs2.to_str().unwrap(),
        ])
        .unwrap();
        let straight_dir = out
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("run: "))
            .unwrap()
            .to_owned();
        let straight_report = run(&["dse", "report", "--run", &straight_dir]).unwrap();
        assert_eq!(resumed_report, straight_report);
        assert!(resumed_report.contains("== dse report: cli-smoke =="));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_run_interrupt_resume_report_round_trip() {
        let dir = std::env::temp_dir().join(format!("iarank_corpus_cli_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("corpus.toml");
        std::fs::write(
            &spec_path,
            "name = \"cli-corpus\"\ndegrade = [1.0, 2.0]\n\
             backends = [\"davis\", \"hefeida-site\"]\n\n\
             [base]\ngates = 20000\nbunch = 2000\n\n\
             [[designs]]\nname = \"ref\"\nkind = \"davis\"\ngates = 20000\n",
        )
        .unwrap();
        let runs = dir.join("runs");

        // Interrupted run: only one fresh solve allowed.
        let out = run(&[
            "corpus",
            "run",
            "--spec",
            spec_path.to_str().unwrap(),
            "--runs",
            runs.to_str().unwrap(),
            "--max-points",
            "1",
        ])
        .unwrap();
        assert!(out.contains("1 solved"), "{out}");
        assert!(out.contains("status: incomplete"), "{out}");
        let run_dir = out
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("run: "))
            .unwrap()
            .to_owned();

        // Resume finishes without re-solving the persisted point.
        let out = run(&["corpus", "resume", "--run", &run_dir]).unwrap();
        assert!(out.contains("3 solved"), "{out}");
        assert!(out.contains("1 cached"), "{out}");
        assert!(out.contains("status: complete"), "{out}");

        // The report matches an uninterrupted run byte for byte.
        let resumed_report = run(&["corpus", "report", "--run", &run_dir]).unwrap();
        let runs2 = dir.join("runs2");
        let out = run(&[
            "corpus",
            "run",
            "--spec",
            spec_path.to_str().unwrap(),
            "--runs",
            runs2.to_str().unwrap(),
        ])
        .unwrap();
        let straight_dir = out
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("run: "))
            .unwrap()
            .to_owned();
        let straight_report = run(&["corpus", "report", "--run", &straight_dir]).unwrap();
        assert_eq!(resumed_report, straight_report);
        assert!(resumed_report.contains("ia-corpus-v1"), "{resumed_report}");
        assert!(
            resumed_report.contains("delta_vs_davis"),
            "{resumed_report}"
        );
        let csv = run(&["corpus", "report", "--run", &run_dir, "--csv", "true"]).unwrap();
        assert!(csv.starts_with("design,backend,gamma,key,"), "{csv}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_validates_its_arguments() {
        let err = run(&["corpus"]).unwrap_err();
        assert!(err.to_string().contains("needs an action"));
        let err = run(&["corpus", "explode"]).unwrap_err();
        assert!(err.to_string().contains("unknown corpus action"));
        let err = run(&["corpus", "run"]).unwrap_err();
        assert!(err.to_string().contains("--spec"));
        let err = run(&["corpus", "resume"]).unwrap_err();
        assert!(err.to_string().contains("--run"));
        let err = run(&["corpus", "report", "--run", "/nonexistent-run"]).unwrap_err();
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn dse_validates_its_arguments() {
        let err = run(&["dse"]).unwrap_err();
        assert!(err.to_string().contains("needs an action"));
        let err = run(&["dse", "explode"]).unwrap_err();
        assert!(err.to_string().contains("unknown dse action"));
        let err = run(&["dse", "run"]).unwrap_err();
        assert!(err.to_string().contains("--spec"));
        let err = run(&["dse", "resume"]).unwrap_err();
        assert!(err.to_string().contains("--run"));
        let err = run(&["dse", "report", "--run", "/nonexistent-run"]).unwrap_err();
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn optimize_small_space_runs() {
        let out = run(&[
            "optimize",
            "--gates",
            "30000",
            "--bunch",
            "3000",
            "--max-pairs",
            "3",
        ])
        .unwrap();
        assert!(out.contains("pareto front"));
    }
}
