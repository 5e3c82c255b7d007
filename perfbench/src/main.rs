//! perfbench: the repository benchmark's measuring binary.
//!
//! ```text
//! perfbench --workload <sweep-1500|serve-distinct|serve-hot> --seed <n>
//!           --seconds <s> --trace <0|1> --server-bin <path>
//!           --out-dir <dir> --host <json>
//! ```
//!
//! Prints one JSON result line last on stdout: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`, named, in
//! order and with units as `BENCHMARK.json` (read from the working
//! directory) lists them; a metric missing or not finite fails the run.
//! The full result (host block, per-run samples, the per-layer ledger)
//! is written to `<out-dir>/<workload>-seed<n>-trace<t>.json`.
//! `perfbench/run.py` builds everything and calls this; see
//! `perfbench/README.md`.

mod serve;
mod sweep;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use javaflow_server::json::Json;
use util::{num, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Reports layers a workload does not exercise as 0.
pub fn bypassed(r: &mut util::Report, names: &[&'static str]) {
    for name in names {
        r.metric(name, 0.0);
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
    pub host: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut server_bin, mut out_dir, mut host) = (None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--host" => host = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
        host: host.unwrap_or_else(|| "{}".to_string()),
    })
}

/// The `(name, unit)` of each metric this mode prints, in order, from
/// `BENCHMARK.json` in the working directory: the end-to-end metrics,
/// or with `--trace 1` the per-layer ones.
fn metric_spec(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(if trace { "per_layer" } else { "end_to_end" })
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no metric list")?;
    list.iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name").zip(field("unit")).ok_or("a metric without name or unit".to_string())
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = metric_spec(args.trace).and_then(|spec| {
        let r = match args.workload.as_str() {
            "sweep-1500" => Ok(sweep::run(&args)),
            "serve-distinct" => serve::run(&args, &serve::distinct()),
            "serve-hot" => serve::run(&args, &serve::hot()),
            other => Err(format!("unknown workload {other}")),
        }?;
        let line = r.result_line(&spec)?;
        Ok((r, line))
    });
    let (report, line) = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = report.document(
        &args.host,
        &format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
            args.workload,
            args.seed,
            num(args.seconds),
            u8::from(args.trace)
        ),
        &line,
    );
    let path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, &doc))
    {
        eprintln!("perfbench: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("perfbench: host {}", args.host);
    eprintln!("perfbench: full result in {}", path.display());
    println!("{line}");
    ExitCode::SUCCESS
}
