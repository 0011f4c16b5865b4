//! End-to-end and per-layer benchmark of whole federated rounds in all three
//! execution modes of the APF reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//! `lenet5-apf` and `lstm-fedavg` drive `FlRunner`, `population-apf`
//! drives `PopulationRunner`, and `net-apf-f16` drives an in-process
//! `NetServer` with `run_client` threads over loopback TCP. Every workload
//! is closed-loop: a round starts when the previous synchronous round ends.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics and a coverage table of the traced round. The last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A failed output check makes the exit code 1.
//! `--workload all` runs every workload in a process of its own and prints
//! one table.

mod fleet;
mod probes;
mod run;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use run::Opts;
use stats::{Metrics, Verdict};
use workloads::Workload;

const USAGE: &str =
    "usage: perfbench --workload <lenet5-apf|lstm-fedavg|population-apf|net-apf-f16|all> \
     --seed <u64> --seconds <1..=3600> --trace <0|1>";

/// Parsed command line; `workload` is `None` for `all`.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(if value == "all" {
                    None
                } else {
                    Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                });
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (verdict, metrics) = match args.workload {
        Some(workload) => {
            let o = Opts {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
            };
            println!(
                "workload {} seed {} seconds {} trace {} rounds {} threads {} host_parallelism {}",
                workload.name(),
                o.seed,
                o.seconds,
                u8::from(o.trace),
                workload.rounds(o.seconds),
                run::threads(),
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            );
            let (verdict, metrics) = run::run(&o);
            print_table(workload.name(), &verdict, &metrics);
            (verdict, metrics)
        }
        None => run_all(&argv),
    };
    println!("{}", stats::result_line(&verdict, &metrics));
    if verdict.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_table(workload: &str, v: &Verdict, m: &Metrics) {
    println!("{workload}:");
    for (name, value, unit) in &m.0 {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!(
        "  {:<34} {:>16.6} ratio ({} of {} rounds failed)",
        "round_fail_ratio",
        v.failed as f64 / v.attempted.max(1) as f64,
        v.failed,
        v.attempted
    );
    for f in &v.failures {
        println!("  FAILED CHECK: {f}");
    }
}

/// Runs every workload in its own process (this executable with the same
/// flags and one workload each); a workload that fails still lets the
/// others run. Metrics are named `<workload>/<metric>`.
fn run_all(argv: &[String]) -> (Verdict, Metrics) {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut total = Verdict::default();
    let mut metrics = Metrics::default();
    for w in Workload::ALL {
        let mut args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            args.push(flag.clone());
            args.push(if flag == "--workload" {
                w.name().to_owned()
            } else {
                value
            });
        }
        let out = Command::new(&exe).args(&args).output();
        let stdout = out
            .as_ref()
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
            .unwrap_or_default();
        print!("{stdout}");
        let parsed = stdout
            .lines()
            .last()
            .and_then(|l| apf_fedsim::json::parse(l).ok());
        let Some(result) = parsed else {
            total.check(false, format!("{} printed no result", w.name()));
            continue;
        };
        let correct = result.get("correct").and_then(|c| c.as_bool()) == Some(true);
        total.check(correct, format!("{} outputs correct", w.name()));
        total.attempted += result
            .get("attempted")
            .and_then(|x| x.as_u64())
            .unwrap_or(0);
        total.failed += result.get("failed").and_then(|x| x.as_u64()).unwrap_or(0);
        if let Some(apf_fedsim::json::Value::Obj(ms)) = result.get("metrics") {
            for (name, entry) in ms {
                let value = entry
                    .get("value")
                    .and_then(|x| x.as_f64())
                    .unwrap_or(f64::NAN);
                let unit = entry.get("unit").and_then(|u| u.as_str()).unwrap_or("");
                metrics.put(&format!("{}/{name}", w.name()), value, unit);
            }
        }
    }
    (total, metrics)
}
