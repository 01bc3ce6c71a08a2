//! The `fdn-lab` command line: run experiment campaigns, list their scenario
//! matrices, and re-render, merge and diff saved reports. `fdn-lab help`
//! prints the usage.

use std::io;
use std::num::ParseIntError;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use fdn_graph::GraphFamily;
use fdn_lab::{
    diff_reports, errln, merge_reports, out, outln, run_campaign, run_trace, shard_slice, Caches,
    Campaign, CampaignReport, CellTiming, CheckpointStore, DiffTolerance, Json, LabError, Shard,
    Stopwatch, StoreStats,
};
use fdn_netsim::{NoiseSpec, SchedulerSpec};
use fdn_protocols::WorkloadSpec;

/// Exit code of `fdn-lab diff` when regressions are present (distinct from
/// the generic error exit 1, so CI can tell "regression" from "broke").
const EXIT_REGRESSION: i32 = 2;

/// The largest seed a campaign may sweep: 2^53.
const MAX_SEED: u64 = 1 << 53;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = dispatch(&args) {
        errln!("fdn-lab: {e}");
        errln!("run `fdn-lab help` for usage");
        std::process::exit(1);
    }
}

fn dispatch(args: &[String]) -> Result<(), LabError> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("list-scenarios") => cmd_list(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            out!("{}", usage());
            Ok(())
        }
        Some(other) => Err(LabError::Usage(format!("unknown command `{other}`"))),
    }
}

fn usage() -> String {
    "fdn-lab — experiment campaigns for the fully-defective-networks reproduction\n\
     \n\
     Commands:\n\
    \x20 run             expand the matrix, run every scenario in parallel,\n\
    \x20                 write JSON + CSV + markdown reports\n\
    \x20 trace           run the first seed of every cell with the observer\n\
    \x20                 layer attached; write NAME.trace.{jsonl,json,md}\n\
    \x20                 (time series sampled every 64 deliveries,\n\
    \x20                 Perfetto/Chrome trace-event JSON, markdown phase\n\
    \x20                 breakdown)\n\
    \x20 list-scenarios  print the expanded matrix without running it\n\
    \x20 report          re-render a saved JSON campaign report\n\
    \x20                 (--input FILE)\n\
    \x20 merge           recombine per-shard reports (run --shard K/M) into\n\
    \x20                 the whole campaign's report (--out FILE, else stdout)\n\
    \x20 diff            compare two saved JSON campaign reports cell-by-cell;\n\
    \x20                 exit 0 when clean, 2 on regression\n\
     \n\
     Matrix flags (override one axis of the chosen --preset):\n\
    \x20 --preset quick|standard|paper|scale|huge  base campaign [default: standard]\n\
    \x20 --name NAME                     report name\n\
    \x20 --families CSV                  cycle(8),petersen,random2ec(10,5,s2),...\n\
    \x20 --modes CSV                     full,cycle,replay (--mode works too)\n\
    \x20 --encodings CSV                 binary,unary\n\
    \x20 --workloads CSV                 flood(4),leader,echo,gossip,token-ring\n\
    \x20 --noises CSV                    noiseless,full-corruption,constant-one,bitflip(0.1),\n\
    \x20                                 omission(200),crash-link(40),burst(8,2)\n\
    \x20 --schedulers CSV                random,fifo,lifo\n\
    \x20 --seeds N / --seed-start K      seed sweep per cell (the last seed\n\
    \x20                                 at most 2^53)\n\
    \x20 --max-steps N                   delivery limit per scenario\n\
    \x20 --link-store exact|counting     force every scenario onto one\n\
    \x20                                 link-queue representation; cell ids\n\
    \x20                                 and report bytes are unchanged (the\n\
    \x20                                 equivalence gate compares the two)\n\
     \n\
     Execution flags:\n\
    \x20 --threads N                     worker threads [default: all cores]\n\
    \x20 --out DIR                       report directory [default: lab-out]\n\
    \x20 --shard K/M                     run only the K-th of M deterministic\n\
    \x20                                 cell slices; run every K (concurrent\n\
    \x20                                 runs may share one --store), then\n\
    \x20                                 `merge` the M shard reports\n\
    \x20 --store DIR                     (run, trace) persist\n\
    \x20                                 replay-mode construction checkpoints\n\
    \x20                                 in a content-addressed on-disk store;\n\
    \x20                                 corrupt or stale entries are rebuilt,\n\
    \x20                                 report bytes never change\n\
    \x20 --format md|csv|json            (report command) output format\n\
    \x20 --timings PATH                  (run, trace) write a\n\
    \x20                                 per-cell wall-clock JSON sidecar\n\
    \x20                                 (and the runs copied from a twin);\n\
    \x20                                 reports themselves never carry wall\n\
    \x20                                 time, so diff gates stay byte-exact\n\
     \n\
     Diff flags (`fdn-lab diff BASE.json CANDIDATE.json`):\n\
    \x20 --tol-rate X                    tolerated success/quiescence drop,\n\
    \x20                                 absolute in [0,1] [default: 0]\n\
    \x20 --tol-pulses Y                  tolerated relative increase\n\
    \x20                                 of every statistic (min, mean, p50,\n\
    \x20                                 p95, max) of every cost field (pulses,\n\
    \x20                                 steps, cc_init, overhead, …;\n\
    \x20                                 0.1 = +10%) [default: 0]\n"
        .to_string()
}

/// One `--flag value` pair iterator with error reporting.
struct Flags<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args, pos: 0 }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.args.get(self.pos)?;
        self.pos += 1;
        Some(flag)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, LabError> {
        let v = self
            .args
            .get(self.pos)
            .ok_or_else(|| LabError::Usage(format!("flag `{flag}` needs a value")))?;
        self.pos += 1;
        Ok(v)
    }
}

/// The execution flags of every artifact-producing command.
struct Exec {
    /// `--threads N`: worker threads of the global pool.
    threads: Option<usize>,
    /// `--out DIR`: where the artifacts go.
    out_dir: PathBuf,
    /// `--timings PATH`: write the per-cell wall-clock sidecar.
    timings: Option<PathBuf>,
    /// `--store DIR`: persistent checkpoint store under the replay cache.
    store: Option<PathBuf>,
}

impl Default for Exec {
    fn default() -> Self {
        Exec {
            threads: None,
            out_dir: PathBuf::from("lab-out"),
            timings: None,
            store: None,
        }
    }
}

impl Exec {
    /// Applies one execution flag, returning `false` (without consuming a
    /// value) when the flag is not one.
    fn apply(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, LabError> {
        match flag {
            "--threads" => self.threads = Some(parse_num(flag, flags.value(flag)?)?),
            "--out" => self.out_dir = PathBuf::from(flags.value(flag)?),
            "--timings" => self.timings = Some(PathBuf::from(flags.value(flag)?)),
            "--store" => self.store = Some(PathBuf::from(flags.value(flag)?)),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Runs one artifact command the way every command runs: sizes the
    /// worker pool, builds the caches around the `--store` checkpoint store,
    /// times `run`, narrates the store traffic, writes each artifact that
    /// `render` returns as `STEM.EXT` under `--out` and, with `--timings`,
    /// the wall-clock sidecar. Store stats and wall time land on stderr, the
    /// markdown header and the sidecar only — never in gated bytes.
    fn execute<R>(
        &self,
        command: &str,
        name: &str,
        run: impl FnOnce(&Caches) -> Result<(R, Vec<CellTiming>), LabError>,
        render: impl FnOnce(&R, f64) -> (String, Vec<(&'static str, String)>),
    ) -> Result<(R, Duration), LabError> {
        if let Some(n) = self.threads {
            // First configuration wins; a second command in-process keeps the pool.
            let _ = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global();
        }
        let store = self
            .store
            .as_deref()
            .map(|dir| CheckpointStore::open(dir).map(Arc::new))
            .transpose()
            .map_err(LabError::Usage)?;
        let caches = Caches::with_store(store.clone());
        let started = Stopwatch::start();
        let (report, timings) = run(&caches)?;
        let store_stats = store.map(|s| {
            let stats = s.stats();
            errln!(
                "checkpoint store: {} hit(s), {} miss(es), {} rejected, {} write(s), {} write \
                 error(s)",
                stats.hits,
                stats.misses,
                stats.rejected,
                stats.writes,
                stats.write_errors
            );
            stats
        });
        let elapsed = started.elapsed();
        let (stem, artifacts) = render(&report, elapsed.as_secs_f64());
        std::fs::create_dir_all(&self.out_dir).map_err(io_at(&self.out_dir))?;
        for (ext, contents) in &artifacts {
            // `Path::with_extension` would eat the `.shardKofM` suffix of
            // sharded stems, so the extension is appended explicitly.
            let path = self.out_dir.join(format!("{stem}.{ext}"));
            std::fs::write(&path, contents).map_err(io_at(&path))?;
            outln!("wrote {}", path.display());
        }
        if let Some(path) = &self.timings {
            write_timings(
                path,
                command,
                name,
                elapsed.as_secs_f64(),
                &timings,
                store_stats,
            )?;
        }
        Ok((report, elapsed))
    }
}

/// The parsed flags of `run` (and of the commands layered over it).
struct RunArgs {
    campaign: Campaign,
    /// `--shard K/M`: run only this cell-atomic slice of the matrix.
    shard: Option<Shard>,
    exec: Exec,
}

/// The first pass over a command's flags: only `--preset` matters, every
/// other flag is skipped (it overrides the preset in the second pass).
fn parse_preset_name(args: &[String]) -> Result<String, LabError> {
    let mut preset = "standard".to_string();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        if flag == "--preset" {
            preset = flags.value(flag)?.to_string();
        } else if takes_value(flag) {
            let _ = flags.value(flag)?;
        }
    }
    Ok(preset)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, LabError> {
    // Two passes: --preset decides the base, every other flag overrides.
    let mut campaign = Campaign::preset(&parse_preset_name(args)?)?;
    let mut shard = None;
    let mut exec = Exec::default();

    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--preset" => {
                // Consumed by the first pass ([`parse_preset_name`]).
                let _ = flags.value(flag)?;
            }
            "--name" => campaign.name = flags.value(flag)?.to_string(),
            "--families" => {
                campaign.families = split_csv(flags.value(flag)?)
                    .map(|s| GraphFamily::parse(s).map_err(|e| parse_err(flag, e.to_string())))
                    .collect::<Result<_, _>>()?;
            }
            // `--mode replay` reads naturally for a single mode; both
            // spellings parse the same CSV.
            "--modes" | "--mode" => {
                campaign.modes = split_csv(flags.value(flag)?)
                    .map(|s| fdn_lab::EngineMode::parse(s).map_err(|e| parse_err(flag, e)))
                    .collect::<Result<_, _>>()?;
            }
            "--encodings" => {
                campaign.encodings = split_csv(flags.value(flag)?)
                    .map(|s| fdn_lab::EncodingSpec::parse(s).map_err(|e| parse_err(flag, e)))
                    .collect::<Result<_, _>>()?;
            }
            "--workloads" => {
                campaign.workloads = split_csv(flags.value(flag)?)
                    .map(|s| WorkloadSpec::parse(s).map_err(|e| parse_err(flag, e)))
                    .collect::<Result<_, _>>()?;
            }
            "--noises" => {
                campaign.noises = split_csv(flags.value(flag)?)
                    .map(|s| NoiseSpec::parse(s).map_err(|e| parse_err(flag, e)))
                    .collect::<Result<_, _>>()?;
            }
            "--schedulers" => {
                campaign.schedulers = split_csv(flags.value(flag)?)
                    .map(|s| SchedulerSpec::parse(s).map_err(|e| parse_err(flag, e)))
                    .collect::<Result<_, _>>()?;
            }
            "--seeds" => campaign.seeds.count = parse_num(flag, flags.value(flag)?)?,
            "--seed-start" => campaign.seeds.start = parse_num(flag, flags.value(flag)?)?,
            "--max-steps" => campaign.max_steps = parse_num(flag, flags.value(flag)?)?,
            "--shard" => {
                shard = Some(Shard::parse(flags.value(flag)?).map_err(|e| parse_err(flag, e))?);
            }
            "--link-store" => {
                campaign.link_store_override = Some(
                    fdn_netsim::LinkStore::parse(flags.value(flag)?)
                        .map_err(|e| parse_err(flag, e))?,
                );
            }
            other => {
                if !exec.apply(other, &mut flags)? {
                    return Err(LabError::Usage(format!("unknown flag `{other}`")));
                }
            }
        }
    }
    // Reports record seeds as JSON numbers, which hold integers exactly only
    // up to 2^53 (see `Json::as_u64`).
    let seeds = campaign.seeds;
    let last_seed = seeds
        .start
        .checked_add(u64::from(seeds.count.saturating_sub(1)));
    if last_seed.is_none_or(|seed| seed > MAX_SEED) {
        return Err(LabError::Usage(format!(
            "flag `--seed-start`: the last seed of the range must be at most 2^53 = {MAX_SEED}, \
             the largest integer a report stores exactly"
        )));
    }
    Ok(RunArgs {
        campaign,
        shard,
        exec,
    })
}

fn takes_value(flag: &str) -> bool {
    flag.starts_with("--")
}

/// Splits a comma-separated list, ignoring commas inside parentheses (so
/// `cycle(5),torus(3,3)` yields two items).
fn split_csv(s: &str) -> impl Iterator<Item = &str> {
    let mut items = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                items.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&s[start..]);
    items.into_iter().map(str::trim).filter(|p| !p.is_empty())
}

fn parse_err(flag: &str, e: String) -> LabError {
    LabError::Usage(format!("{flag}: {e}"))
}

/// Parses an unsigned integer of the flag's own type, so a value the type
/// cannot hold is an error, never truncated.
fn parse_num<T: FromStr<Err = ParseIntError>>(flag: &str, v: &str) -> Result<T, LabError> {
    v.parse().map_err(|e| {
        LabError::Usage(format!(
            "flag `{flag}` needs an unsigned integer, got `{v}` ({e})"
        ))
    })
}

fn cmd_run(args: &[String]) -> Result<(), LabError> {
    let RunArgs {
        campaign,
        shard,
        exec,
    } = parse_run_args(args)?;
    let scope = shard.map_or(String::new(), |shard| format!(" shard {shard}"));
    errln!("campaign `{}`{scope}: expanding and running", campaign.name);
    let (report, elapsed) = exec.execute(
        "run",
        &campaign.name,
        |caches| run_campaign(caches, &campaign, shard),
        |report, wall_s| {
            // Shard runs get a distinguishing file stem; the report
            // *content* keeps the plain campaign name so that `merge`
            // reproduces the unsharded report byte-for-byte.
            let stem = match shard {
                Some(shard) => format!("{}.shard{}", report.name, shard.file_tag()),
                None => report.name.clone(),
            };
            // The wall clock lives only in the markdown rendering; JSON/CSV
            // stay byte-deterministic for the diff gate and shard merging.
            let artifacts = vec![
                ("json", report.to_json_string()),
                ("csv", report.to_csv()),
                ("md", report.to_markdown_with_wall_clock(Some(wall_s))),
            ];
            (stem, artifacts)
        },
    )?;
    errln!(
        "campaign `{}`{scope}: {} scenarios on {} worker thread(s) ({} combinations skipped) \
         finished in {elapsed:.2?} ({:.1} scenarios/s)",
        report.name,
        report.scenario_count,
        rayon::current_num_threads().min(report.scenario_count.max(1)),
        report.skipped.len(),
        report.scenario_count as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    let failed: Vec<&fdn_lab::CellReport> = report
        .cells
        .iter()
        .filter(|c| c.success_rate < 1.0)
        .collect();
    outln!(
        "campaign `{}`: {} cells, {} scenarios, {} cell(s) below 100% success",
        report.name,
        report.cells.len(),
        report.scenario_count,
        failed.len()
    );
    for cell in failed {
        outln!(
            "  {}: success {}, {} error(s)",
            cell.cell_id(),
            fdn_lab::fmt_rate(cell.success_rate),
            cell.errors
        );
    }
    Ok(())
}

/// Writes the `--timings` sidecar: per-cell wall clock, runs and shared
/// runs, plus (when a store was attached) the checkpoint-store counters,
/// kept out of every report so the byte-identity diff gates never see wall
/// time or cache behaviour. CI's warm-store gate reads the `store` object
/// from here.
fn write_timings(
    path: &Path,
    command: &str,
    name: &str,
    wall_s: f64,
    cells: &[CellTiming],
    store: Option<StoreStats>,
) -> Result<(), LabError> {
    let mut fields = vec![
        ("command", Json::Str(command.to_string())),
        ("name", Json::Str(name.to_string())),
        ("wall_s", Json::Num(wall_s)),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("cell", Json::Str(t.cell.clone())),
                            ("wall_ms", Json::Num(t.wall_ms)),
                            ("runs", Json::num_u64(t.runs as u64)),
                            ("shared", Json::num_u64(t.shared as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(s) = store {
        fields.push((
            "store",
            Json::obj(vec![
                ("hits", Json::num_u64(s.hits)),
                ("misses", Json::num_u64(s.misses)),
                ("rejected", Json::num_u64(s.rejected)),
                ("writes", Json::num_u64(s.writes)),
                ("write_errors", Json::num_u64(s.write_errors)),
            ]),
        ));
    }
    let doc = Json::obj(fields);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(io_at(dir))?;
    }
    std::fs::write(path, doc.render()).map_err(io_at(path))?;
    outln!("wrote {}", path.display());
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), LabError> {
    let opts = parse_run_args(args)?;
    if opts.shard.is_some() {
        return Err(LabError::Usage(
            "trace runs one scenario per cell; --shard applies to `run`".into(),
        ));
    }
    errln!(
        "trace `{}`: first seed of every cell, probe attached",
        opts.campaign.name
    );
    let (report, elapsed) = opts.exec.execute(
        "trace",
        &opts.campaign.name,
        |caches| run_trace(caches, &opts.campaign),
        |report, _| {
            // `.trace` in the stem keeps the artifacts apart from the same
            // preset's campaign reports in a shared --out directory. The
            // `.json` artifact is the Perfetto / Chrome trace-event document
            // (load it at ui.perfetto.dev or chrome://tracing); `.jsonl` is
            // one record per sample/marker.
            let artifacts = vec![
                ("jsonl", report.to_jsonl()),
                ("json", report.to_perfetto_json()),
                ("md", report.to_markdown()),
            ];
            (format!("{}.trace", report.name), artifacts)
        },
    )?;
    errln!("{} cell(s) traced in {elapsed:.2?}", report.cells.len());
    outln!(
        "trace `{}`: {} cell(s), {} skipped combination(s)",
        report.name,
        report.cells.len(),
        report.skipped.len(),
    );
    for trace in &report.cells {
        outln!(
            "  {}: CCinit {}, online {}, {} sample(s), {} marker(s){}",
            trace.cell_id(),
            trace.outcome.cc_init(),
            trace.outcome.online_pulses(),
            trace.probe.samples().len(),
            trace.probe.markers().len(),
            if trace.outcome.success {
                ""
            } else {
                " — NOT successful"
            },
        );
    }
    Ok(())
}

fn cmd_list(args: &[String]) -> Result<(), LabError> {
    let opts = parse_run_args(args)?;
    let (mut scenarios, skipped) = opts.campaign.expand_with_skips();
    if let Some(shard) = opts.shard {
        scenarios = shard_slice(&scenarios, shard);
    }
    for s in &scenarios {
        outln!("{:>6}  {}", s.index, s.id());
    }
    errln!("{} scenarios", scenarios.len());
    for s in &skipped {
        errln!("skipped {} — {}", s.cell, s.reason);
    }
    Ok(())
}

/// Parses the `K`/`M` of a `NAME.shardKofM.json`-style file name, as written
/// by `run --shard K/M`.
fn shard_file_tag(path: &Path) -> Option<(usize, usize)> {
    let name = path.file_name()?.to_str()?;
    let rest = &name[name.rfind(".shard")? + ".shard".len()..];
    let rest = rest.strip_suffix(".json").unwrap_or(rest);
    let (k, m) = rest.split_once("of")?;
    Some((k.parse().ok()?, m.parse().ok()?))
}

/// When every input carries a `.shardKofM` file tag, requires the set to be
/// complete: one file per shard, all with the same `M`. Report *content*
/// cannot reveal missing tail shards (empty shards merge neutrally), so the
/// file names are the only place an incomplete set is reliably visible.
fn check_shard_file_set(inputs: &[PathBuf]) -> Result<(), LabError> {
    let tags: Option<Vec<(usize, usize)>> = inputs.iter().map(|p| shard_file_tag(p)).collect();
    let Some(tags) = tags else {
        return Ok(()); // not a pure shard-file set; the content checks rule
    };
    let m = tags[0].1;
    if tags.iter().any(|&(_, tm)| tm != m) {
        return Err(LabError::Usage(
            "merge inputs disagree on the shard count M in their file names".into(),
        ));
    }
    let mut ks: Vec<usize> = tags.iter().map(|&(k, _)| k).collect();
    ks.sort_unstable();
    if ks != (0..m).collect::<Vec<_>>() {
        return Err(LabError::Usage(format!(
            "incomplete shard set: file names cover shards {ks:?} but M = {m}; pass every \
             shard of the campaign (0..{m}) to merge"
        )));
    }
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), LabError> {
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--out" => out = Some(PathBuf::from(flags.value(flag)?)),
            other if other.starts_with("--") => {
                return Err(LabError::Usage(format!("unknown flag `{other}`")))
            }
            positional => inputs.push(PathBuf::from(positional)),
        }
    }
    if inputs.is_empty() {
        return Err(LabError::Usage(
            "merge requires at least one shard report: SHARD.json...".into(),
        ));
    }
    check_shard_file_set(&inputs)?;
    let reports = inputs
        .iter()
        .map(|path| load_report(path))
        .collect::<Result<Vec<_>, LabError>>()?;
    let merged = merge_reports(&reports).map_err(LabError::Usage)?;
    errln!(
        "merged {} shard report(s): {} scenarios across {} cells",
        reports.len(),
        merged.scenario_count,
        merged.cells.len()
    );
    match out {
        Some(path) => {
            std::fs::write(&path, merged.to_json_string()).map_err(io_at(&path))?;
            outln!("wrote {}", path.display());
        }
        None => out!("{}", merged.to_json_string()),
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), LabError> {
    let mut input: Option<PathBuf> = None;
    let mut format = "md".to_string();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--input" => input = Some(PathBuf::from(flags.value(flag)?)),
            "--format" => format = flags.value(flag)?.to_string(),
            other => return Err(LabError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    let input = input.ok_or_else(|| LabError::Usage("report requires --input FILE".into()))?;
    let report = load_report(&input)?;
    let rendered = match format.as_str() {
        "md" => report.to_markdown(),
        "csv" => report.to_csv(),
        "json" => report.to_json_string(),
        other => return Err(LabError::Usage(format!("unknown format `{other}`"))),
    };
    out!("{rendered}");
    Ok(())
}

fn parse_tol(flag: &str, v: &str) -> Result<f64, LabError> {
    let x: f64 = v
        .parse()
        .map_err(|_| LabError::Usage(format!("flag `{flag}` needs a number, got `{v}`")))?;
    if !(x.is_finite() && x >= 0.0) {
        return Err(LabError::Usage(format!(
            "flag `{flag}` must be a non-negative number, got `{v}`"
        )));
    }
    Ok(x)
}

/// An I/O error on `path`, as a [`LabError::Io`] whose message names the
/// path.
fn io_at(path: &Path) -> impl FnOnce(io::Error) -> LabError + '_ {
    move |e| LabError::Io(io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// Reads a saved campaign report; an I/O or parse error names the file.
fn load_report(path: &Path) -> Result<CampaignReport, LabError> {
    let text = std::fs::read_to_string(path).map_err(io_at(path))?;
    CampaignReport::from_json_str(&text)
        .map_err(|e| LabError::Parse(format!("{}: {e}", path.display())))
}

fn cmd_diff(args: &[String]) -> Result<(), LabError> {
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut tolerance = DiffTolerance::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--tol-rate" => tolerance.rate = parse_tol(flag, flags.value(flag)?)?,
            "--tol-pulses" => tolerance.pulses = parse_tol(flag, flags.value(flag)?)?,
            other if other.starts_with("--") => {
                return Err(LabError::Usage(format!("unknown flag `{other}`")))
            }
            positional => inputs.push(PathBuf::from(positional)),
        }
    }
    let [base_path, candidate_path] = inputs.as_slice() else {
        return Err(LabError::Usage(
            "diff requires exactly two report files: BASE.json CANDIDATE.json".into(),
        ));
    };
    let delta = diff_reports(
        &load_report(base_path)?,
        &load_report(candidate_path)?,
        tolerance,
    );
    let regressions = delta.regression_count();
    out!("{}", delta.to_markdown());
    if regressions > 0 {
        errln!("fdn-lab diff: {regressions} regression finding(s) — failing the gate");
        std::process::exit(EXIT_REGRESSION);
    }
    Ok(())
}
