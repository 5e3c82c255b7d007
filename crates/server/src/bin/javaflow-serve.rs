//! `javaflow-serve` — the sweep harness as a long-lived process.
//!
//! Binds a TCP listener (and optionally a Unix socket), prints a ready
//! line with the bound address, and serves length-prefixed JSON sweep
//! requests until a shutdown request or SIGINT/SIGTERM, then drains the
//! admission queue and exits 0. With `--metrics-addr` an HTTP sidecar
//! serves `/metrics`, `/healthz`, and `/varz`; SIGUSR1 dumps the flight
//! recorder to a Chrome-trace file.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use javaflow_server::{Server, ServerConfig};

/// Drain flag flipped by the C signal handler; the main loop polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);
/// Flight-dump flag flipped by SIGUSR1; the main loop polls and clears it.
static DUMP: AtomicBool = AtomicBool::new(false);

type SigHandler = extern "C" fn(i32);

extern "C" {
    fn signal(signum: i32, handler: SigHandler) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" fn on_dump_signal(_signum: i32) {
    DUMP.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGUSR1: i32 = 10;
const SIGTERM: i32 = 15;

const USAGE: &str = "\
javaflow-serve: long-lived sweep server

USAGE:
    javaflow-serve [OPTIONS]

OPTIONS:
    --addr <host:port>     TCP bind address (default 127.0.0.1:0; port 0
                           picks an ephemeral port, echoed on stdout)
    --uds <path>           also listen on a Unix socket at <path>
    --metrics-addr <h:p>   serve HTTP /metrics, /healthz, /varz here
    --queue-cap <n>        admission-queue capacity (default 32)
    --batch-records <n>    records per streamed batch (default 16)
    --threads <n>          default sweep threads (default: machine parallelism)
    --log-json             one structured JSON log line per request on stderr
    --flight-dump <path>   Chrome-trace dump target for SIGUSR1, and for
                           automatic dumps on request failure
    --help                 print this help

LIMITS:
    A sweep asking for more than 5000 synthetic records is refused (400).
    The server keeps the 4 most recently used prepared populations and
    the last 1024 request spans in its flight recorder.

SIGNALS:
    SIGINT/SIGTERM drain and exit; SIGUSR1 dumps the flight recorder to
    the --flight-dump path (default flight.trace.json).

PROTOCOL:
    4-byte big-endian length prefix + UTF-8 JSON per frame. Request kinds:
    sweep, metrics, ping, shutdown. See DESIGN.md \"Request lifecycle\".
";

fn parse_args() -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--addr" => cfg.addr = value("--addr")?,
            "--uds" => cfg.uds_path = Some(value("--uds")?.into()),
            "--metrics-addr" => cfg.metrics_addr = Some(value("--metrics-addr")?),
            "--queue-cap" => {
                cfg.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|_| "--queue-cap must be an integer".to_string())?;
            }
            "--batch-records" => {
                cfg.batch_records = value("--batch-records")?
                    .parse()
                    .map_err(|_| "--batch-records must be an integer".to_string())?;
                if cfg.batch_records == 0 {
                    return Err("--batch-records must be at least 1".to_string());
                }
            }
            "--threads" => {
                cfg.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be an integer".to_string())?;
                if cfg.threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--log-json" => cfg.log_json = true,
            "--flight-dump" => cfg.flight_dump_on_error = Some(value("--flight-dump")?.into()),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("javaflow-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
        signal(SIGUSR1, on_dump_signal);
    }
    let uds = cfg.uds_path.clone();
    let dump_path = cfg.flight_dump_on_error.clone().unwrap_or_else(|| "flight.trace.json".into());
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("javaflow-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The ready line CI and scripts scrape for the ephemeral port.
    println!("javaflow-serve listening on {}", server.addr());
    if let Some(path) = &uds {
        println!("javaflow-serve listening on unix:{}", path.display());
    }
    if let Some(addr) = server.metrics_addr() {
        println!("javaflow-serve metrics on http://{addr}/metrics");
    }
    loop {
        if SHUTDOWN.load(Ordering::SeqCst) || server.shutdown_requested() {
            break;
        }
        if DUMP.swap(false, Ordering::SeqCst) {
            match server.dump_flight(&dump_path) {
                Ok(()) => eprintln!("javaflow-serve: flight dump → {}", dump_path.display()),
                Err(e) => {
                    eprintln!("javaflow-serve: flight dump to {} failed: {e}", dump_path.display());
                }
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("javaflow-serve: draining");
    server.request_shutdown();
    match server.join() {
        Ok(()) => {
            eprintln!("javaflow-serve: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("javaflow-serve: drain failed: {e}");
            ExitCode::FAILURE
        }
    }
}
