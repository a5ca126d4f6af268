//! `chef-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--quick]`: run one workload and print an info line, then one JSON
//! result line, on standard output.

use chef_e2ebench::bench::Workload;
use chef_e2ebench::env::{self, Scratch, OUT_DIR};
use chef_e2ebench::inproc::{ooc_window, paper_inmem};
use chef_e2ebench::procfs;
use chef_e2ebench::serve::serve_durable;
use chef_e2ebench::trace::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workloads by name, with the compute threads each runs at. The rayon
/// shim spawns its threads per call: on a 2-vCPU host, `paper-inmem` at
/// two threads was no faster than at one, and it slowed by 55% (one
/// thread: 7%) while another process kept one vCPU busy.
const WORKLOADS: [(&str, usize); 3] = [("paper-inmem", 1), ("ooc-window", 1), ("serve-durable", 1)];

struct Args {
    workload: &'static str,
    threads: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let &(workload, threads) = WORKLOADS
        .iter()
        .find(|(w, _)| *w == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        threads,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        },
        quick: argv.iter().any(|a| a == "--quick"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chef-e2ebench: {e}");
            eprintln!(
                "usage: chef-e2ebench --workload <paper-inmem|ooc-window|serve-durable> --seed <n> --seconds <s> --trace <0|1> [--quick]"
            );
            return ExitCode::from(2);
        }
    };
    // Before any kernel runs: the thread pool reads it once.
    std::env::set_var("RAYON_NUM_THREADS", args.threads.to_string());

    let workload: Box<dyn Workload> = match args.workload {
        "paper-inmem" => Box::new(paper_inmem(args.quick)),
        "ooc-window" => Box::new(ooc_window(args.quick)),
        _ => Box::new(serve_durable(args.quick)),
    };
    let scratch = match Scratch::create(args.workload, workload.scratch_bytes()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("chef-e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut envinfo = env::describe(args.workload, args.threads, scratch.path());
    envinfo.push(("seed", args.seed.to_string()));
    envinfo.push(("quick", args.quick.to_string()));

    let mut tr = Tracer::new(args.trace);
    let (steal0, total0) = procfs::machine_ticks();
    let outcome = workload.run(args.seed, args.seconds, &mut tr, scratch.path());
    let (steal1, total1) = procfs::machine_ticks();
    drop(scratch);
    // A shared host can take CPU time away in bursts; a run with a high
    // share of steal measured the host, not the program.
    let steal = steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64;
    envinfo.push(("machine_steal_pct", format!("{:.1}", steal * 100.0)));

    if args.trace {
        let quick = if args.quick { "-quick" } else { "" };
        let path = PathBuf::from(OUT_DIR).join("traces").join(format!(
            "{}{quick}-seed{}-{}.json",
            args.workload,
            args.seed,
            std::process::id()
        ));
        match tr.write_json(&path, &envinfo) {
            Ok(()) => envinfo.push(("trace_file", path.display().to_string())),
            Err(e) => envinfo.push(("trace_file", format!("not written: {e}"))),
        }
    }
    outcome.print(args.trace, &envinfo);
    ExitCode::SUCCESS
}
