//! `fmore-e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints notes, check results and an environment line, then the result object as the
//! last line of standard output. Exits 0 only when every check passed. A traced run also
//! writes its spans to `traces/<workload>-seed<n>.tsv` beside this package's manifest.
//! `--write-reference` regenerates the committed `fl-cifar10` accuracy trajectory.

use fmore_e2ebench::report::{result_json, Check};
use fmore_e2ebench::sys::{env_line, Budget};
use fmore_e2ebench::{expected_metrics, fl_cifar10, run, trace, Scale};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        traced: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn write_reference(budget: &Budget) -> Result<(), Box<dyn std::error::Error>> {
    let mut trainer = fmore_fl::trainer::FederatedTrainer::with_engine(
        fl_cifar10::config(),
        fmore_fl::selection::SelectionStrategy::fmore(),
        fl_cifar10::TRAINER_SEED,
        budget.engine(),
    )?;
    let history = trainer.run(fl_cifar10::Plan::full().rounds)?;
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference/fl-cifar10.txt");
    std::fs::write(
        &path,
        fl_cifar10::reference_text(&history.accuracy_series()),
    )?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget = Budget::detect();
    if args.iter().any(|a| a == "--write-reference") {
        return match write_reference(&budget) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fmore-e2ebench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fmore-e2ebench: {e}");
            eprintln!(
                "usage: fmore-e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (mut outcome, spans) = match run(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        Scale::Full,
        &budget,
    ) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("fmore-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(live) = outcome.live_threads {
        outcome.checks.push(Check::new(
            "runnable threads within nproc",
            live <= budget.nproc,
            format!(
                "{live} live threads, budget {} of nproc {}",
                budget.runnable(),
                budget.nproc
            ),
        ));
    }
    let expected = expected_metrics(args.traced);
    outcome.checks.push(Check::new(
        "metric set",
        outcome.metric_names() == expected,
        format!("printed {:?}", outcome.metric_names()),
    ));
    if args.traced {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match trace::write_spans(&path, &spans) {
            Ok(()) => println!("spans {} written to {}", spans.len(), path.display()),
            Err(e) => outcome.checks.push(Check::new(
                "span write-out",
                false,
                format!("{}: {e}", path.display()),
            )),
        }
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for check in &outcome.checks {
        let verdict = if check.ok { "ok" } else { "FAILED" };
        println!("check {}: {verdict} ({})", check.name, check.detail);
    }
    println!(
        "{} workload={} traced={} attempted={} failed={}",
        env_line(&budget, args.seed, outcome.rounds),
        args.workload,
        args.traced,
        outcome.attempted,
        outcome.failed
    );
    println!("{}", result_json(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
