//! The `fdn-lab run` matrix flags, parsed into the same [`Campaign`] the
//! CLI builds, so a workload is defined once (by its command line) for both
//! the end-to-end and the traced run.

use fdn_graph::GraphFamily;
use fdn_lab::{Campaign, EncodingSpec, EngineMode};
use fdn_netsim::{LinkStore, NoiseSpec, SchedulerSpec};
use fdn_protocols::WorkloadSpec;

/// Splits a comma-separated list, ignoring commas inside parentheses
/// (`cycle(5),torus(3,3)` is two items), as the CLI does.
fn split_csv(s: &str) -> Vec<&str> {
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
    items
        .into_iter()
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect()
}

fn parse_list<T>(
    flag: &str,
    v: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    split_csv(v)
        .into_iter()
        .map(|s| parse(s).map_err(|e| format!("{flag}: {e}")))
        .collect()
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} needs an unsigned integer, got `{v}`"))
}

/// Builds the campaign of an `fdn-lab run` flag list: `--preset` picks the
/// base, every matrix flag overrides one axis. Execution flags (`--threads`,
/// `--out`, `--timings`, `--store`) are accepted and ignored; anything else
/// is an error, so a workload cannot silently mean something different
/// here than on the CLI.
///
/// # Errors
///
/// Returns the offending flag and value.
pub fn parse(args: &[String]) -> Result<Campaign, String> {
    let preset = args
        .iter()
        .position(|a| a == "--preset")
        .and_then(|i| args.get(i + 1))
        .map_or("standard", String::as_str);
    let mut c = Campaign::preset(preset).map_err(|e| e.to_string())?;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--preset" | "--threads" | "--out" | "--timings" | "--store" => {}
            "--name" => c.name = v.clone(),
            "--families" => {
                c.families = parse_list(flag, v, |s| {
                    GraphFamily::parse(s).map_err(|e| e.to_string())
                })?;
            }
            "--modes" | "--mode" => c.modes = parse_list(flag, v, EngineMode::parse)?,
            "--encodings" => c.encodings = parse_list(flag, v, EncodingSpec::parse)?,
            "--workloads" => c.workloads = parse_list(flag, v, WorkloadSpec::parse)?,
            "--noises" => c.noises = parse_list(flag, v, NoiseSpec::parse)?,
            "--schedulers" => c.schedulers = parse_list(flag, v, SchedulerSpec::parse)?,
            "--seeds" => {
                c.seeds.count = u32::try_from(parse_u64(flag, v)?)
                    .map_err(|_| format!("{flag} is too large"))?;
            }
            "--seed-start" => c.seeds.start = parse_u64(flag, v)?,
            "--max-steps" => c.max_steps = parse_u64(flag, v)?,
            "--link-store" => {
                c.link_store_override =
                    Some(LinkStore::parse(v).map_err(|e| format!("{flag}: {e}"))?);
            }
            other => return Err(format!("unsupported flag `{other}`")),
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn flags_override_the_preset() {
        let c = parse(&args(&[
            "--families",
            "cycle(12),theta(1,2,3)",
            "--modes",
            "cycle",
            "--seeds",
            "3",
            "--seed-start",
            "5",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(c.families.len(), 2);
        assert_eq!(c.modes, vec![EngineMode::CycleOnly]);
        assert_eq!((c.seeds.start, c.seeds.count), (5, 3));
        // The unpinned axes keep the preset's values.
        let preset = Campaign::preset("standard").unwrap();
        assert_eq!(c.noises, preset.noises);
        let scenarios = c.expand();
        assert!(!scenarios.is_empty());
        assert!(scenarios.iter().all(|s| (5..8).contains(&s.seed)));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(&args(&["--shard", "0/2"])).is_err());
        assert!(parse(&args(&["--seeds"])).is_err());
    }
}
