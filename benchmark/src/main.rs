//! `gv-benchmark`: six workloads, two clocks, every layer timed from
//! outside. See README.md in this directory.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run (perf driver)
//! run.sh [--seed N] [--seconds S]                        every workload, both traces
//! run.sh --selfcheck                                     two sets, compared by the bounds
//! run.sh --quick                                         1-second runs, schema only
//! run.sh --emit-contract                                 prints BENCHMARK.json
//! ```

mod api;
mod catalog;
mod json;
mod modes;
mod pin;
mod probes;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use catalog::{END_TO_END, RUN_SECONDS};
use runner::{Plan, RunResult, Set};
use stats::{within_bound, worsening};

/// Looks up the unit of a metric by name.
type UnitOf = fn(&str) -> &'static str;

/// Flags that take no value.
const SWITCHES: [&str; 3] = ["--selfcheck", "--quick", "--emit-contract"];

struct Args(Vec<(String, Option<String>)>);

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Vec::new();
        while let Some(flag) = raw.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument '{flag}'"));
            }
            let value = if SWITCHES.contains(&flag.as_str()) {
                None
            } else {
                Some(raw.next().ok_or_else(|| format!("{flag} needs a value"))?)
            };
            parsed.push((flag, value));
        }
        Ok(Args(parsed))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad value '{v}' for {flag}")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.number(flag)?
            .ok_or_else(|| format!("{flag} is required"))
    }
}

/// One mode of one workload, in this (child) process. Prints its report
/// as one JSON line.
fn child(mode: &str, args: &Args) -> Result<(), String> {
    let workload = args.value("--workload").ok_or("--workload is required")?;
    if !catalog::workload_known(workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed: u64 = args.required("--seed")?;
    if let Some(first) = args.number("--first-core")? {
        pin::set_first_core(first);
    }
    let report = match mode {
        "wall" | "serial" => {
            let (p, rounds, seconds) = (
                args.required("--p")?,
                args.required("--rounds")?,
                args.required("--round-seconds")?,
            );
            let setup_seconds = args.required("--setup-seconds")?;
            with_workload!(workload, W => modes::child_wall::<W>(seed, p, rounds, seconds, setup_seconds))
        }
        "traced" => {
            let (p, rounds, seconds) = (
                args.required("--p")?,
                args.required("--rounds")?,
                args.required("--round-seconds")?,
            );
            let path = args
                .value("--trace-path")
                .ok_or("--trace-path is required")?;
            with_workload!(workload, W => modes::child_traced::<W>(seed, p, rounds, seconds, path))
        }
        "modeled" => with_workload!(workload, W => modes::child_modeled::<W>(seed)),
        "probes" => probes::child_probes(args.required("--scale")?, args.required("--p")?),
        other => return Err(format!("unknown child mode '{other}'")),
    };
    println!("{}", report.to_line());
    Ok(())
}

/// One run as the perf driver makes it. The result is the last line of
/// standard output.
fn single_run(workload: &str, args: &Args) -> Result<bool, String> {
    if !catalog::workload_known(workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed: u64 = args.number("--seed")?.unwrap_or(1);
    let seconds: f64 = args.number("--seconds")?.unwrap_or(f64::from(RUN_SECONDS));
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let plan = Plan::full(seed, seconds);
    let (result, unit): (RunResult, UnitOf) = match args.number::<u8>("--trace")?.unwrap_or(0) {
        0 => (
            runner::run_end_to_end(workload, &plan),
            runner::end_to_end_unit,
        ),
        1 => (
            runner::run_per_layer(workload, &plan, None),
            runner::per_layer_unit,
        ),
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    println!("{}", result.to_json(unit).to_line());
    Ok(true)
}

fn write_results(set: &Set, plan: &Plan, file: &str) {
    let path = format!("{}/{file}", runner::out_dir());
    let doc = set.to_json(runner::environment(plan.seed, api::isa_tier()), plan);
    match std::fs::create_dir_all(runner::out_dir())
        .and_then(|_| std::fs::write(&path, doc.to_pretty()))
    {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

/// Per-layer counts that must repeat exactly on a blocking workload.
const EXACT: [&str; 3] = ["modeled_s", "msgpass.comm.msgs", "msgpass.comm.bytes"];

/// Two sets of runs of the same code must agree within the benchmark's
/// own bounds on every end-to-end metric × workload, and exactly on the
/// modeled clock and counts of the blocking workloads.
fn selfcheck(first: &Set, second: &Set) -> bool {
    let mut agree = true;
    println!("\nselfcheck: second set against the first");
    for ((workload, a, a_layers), (_, b, b_layers)) in first.runs.iter().zip(&second.runs) {
        for m in &END_TO_END {
            let (x, y) = (a.get(m.name).unwrap_or(0.0), b.get(m.name).unwrap_or(0.0));
            // Neither set is "the parent": the two may differ by the bound either way.
            let ok = within_bound(x, y, m.better, m.bound) && within_bound(y, x, m.better, m.bound);
            println!(
                "  {workload:<12} {:<16} {x:>14.6} {y:>14.6} {:>+8.2}%  bound {:>4.0}%  {}",
                m.name,
                100.0 * worsening(x, y, m.better),
                100.0 * m.bound,
                if ok { "ok" } else { "DIFFERS" }
            );
            agree &= ok;
        }
        if *workload != "overlap" {
            for name in EXACT {
                let (x, y) = (a_layers.get(name), b_layers.get(name));
                if x != y {
                    println!("  {workload:<12} {name} is not exact: {x:?} vs {y:?}");
                    agree = false;
                }
            }
        }
    }
    agree
}

/// `--quick` checks the shape of what a run reports, not its values: every
/// catalogued metric is there under a valid name, with a valid unit and a
/// finite value.
fn schema_ok(set: &Set) -> bool {
    let mut ok = true;
    for (workload, end_to_end, per_layer) in &set.runs {
        let sides: [(&RunResult, UnitOf, usize); 2] = [
            (end_to_end, runner::end_to_end_unit, END_TO_END.len()),
            (per_layer, runner::per_layer_unit, catalog::PER_LAYER.len()),
        ];
        for (run, unit_of, expected) in sides {
            if run.metrics.len() != expected {
                println!(
                    "schema: {workload} reports {} metrics, the catalogue has {expected}",
                    run.metrics.len()
                );
                ok = false;
            }
            for (name, value) in &run.metrics {
                if !(catalog::valid_name(name)
                    && catalog::valid_unit(unit_of(name))
                    && value.is_finite())
                {
                    println!(
                        "schema: {workload} {name} = {value} {} is malformed",
                        unit_of(name)
                    );
                    ok = false;
                }
            }
        }
    }
    ok
}

fn suite(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.number("--seed")?.unwrap_or(1);
    let quick = args.has("--quick");
    let plan = if quick {
        Plan::quick(seed)
    } else {
        Plan::full(
            seed,
            args.number("--seconds")?.unwrap_or(f64::from(RUN_SECONDS)),
        )
    };
    let set = runner::run_set(&plan);
    set.print();
    write_results(
        &set,
        &plan,
        if quick {
            "results_quick.json"
        } else {
            "results.json"
        },
    );
    let mut ok = set.failed() == 0 && set.runs.iter().all(|(_, a, b)| a.correct() && b.correct());
    if quick {
        ok &= schema_ok(&set);
    }
    if args.has("--selfcheck") {
        let second = runner::run_set(&plan);
        write_results(&second, &plan, "results_selfcheck.json");
        ok &= second.failed() == 0 && selfcheck(&set, &second);
    }
    println!("\n{}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        if args.has("--emit-contract") {
            print!("{}", catalog::contract().to_pretty());
            Ok(true)
        } else if let Some(mode) = args.value("--child") {
            child(mode, &args).map(|()| true)
        } else if let Some(workload) = args.value("--workload") {
            single_run(workload, &args)
        } else {
            suite(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("gv-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Later PRs may edit only `api.rs` when an entry point moves; that
    /// holds only while no other file names the program.
    #[test]
    fn only_the_adapter_names_the_program() {
        let sources = [
            ("catalog.rs", include_str!("catalog.rs")),
            ("json.rs", include_str!("json.rs")),
            ("modes.rs", include_str!("modes.rs")),
            ("pin.rs", include_str!("pin.rs")),
            ("probes.rs", include_str!("probes.rs")),
            ("runner.rs", include_str!("runner.rs")),
            ("stats.rs", include_str!("stats.rs")),
            ("trace.rs", include_str!("trace.rs")),
            ("workloads.rs", include_str!("workloads.rs")),
        ];
        let crates = ["core", "executor", "msgpass", "rsmpi", "nas", "testkit"];
        for (file, text) in sources {
            for name in crates {
                assert!(
                    !text.contains(&format!("gv_{name}::")),
                    "{file} reaches into gv_{name} directly"
                );
            }
        }
    }

    #[test]
    fn arguments_parse_as_the_driver_sends_them() {
        let raw = [
            "--workload",
            "cg_solve",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let args = Args::parse(raw.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(args.value("--workload"), Some("cg_solve"));
        assert_eq!(args.number::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(args.number::<f64>("--seconds").unwrap(), Some(10.0));
        assert!(!args.has("--quick"));
        assert!(args.number::<u8>("--seed").is_ok() && args.number::<u8>("--workload").is_err());
        assert!(Args::parse(["--seed"].iter().map(|s| s.to_string())).is_err());
        assert!(Args::parse(["stray"].iter().map(|s| s.to_string())).is_err());
        let switches =
            Args::parse(["--quick", "--seed", "3"].iter().map(|s| s.to_string())).unwrap();
        assert!(switches.has("--quick") && switches.value("--seed") == Some("3"));
    }
}
