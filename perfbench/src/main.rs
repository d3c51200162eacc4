//! Host-time benchmark of the F&S simulator.
//!
//! `fns-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out-dir <dir>]`
//!
//! With `--trace 0` the workload's basket runs repeatedly for `--seconds`
//! and the end-to-end metrics are printed, with host times scaled to a
//! nominal host speed. With `--trace 1` one traced pass
//! plus the layer replays give the per-layer metrics. Either way the last
//! line of stdout is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; the process exits 1 when any run failed its correctness
//! gate. See `README.md` for what each metric means.

mod gate;
mod reference;
mod replay;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fns_core::{Engine, HostSim, RunArena, RunMetrics, SimConfig};

use gate::Gate;
use workloads::Workload;

/// Fewest basket repeats an untraced run makes, however long they take.
const MIN_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value:?}")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out_dir,
    })
}

/// Host time of one simulation, split at the construction/event-loop line.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTime {
    pub setup_ns: u64,
    pub loop_ns: u64,
}

/// Builds and runs `cfg` once, timing construction (`HostSim::new_in` or,
/// for the sharded engine, `Engine::new`) apart from the event loop
/// (`run_salvaging` / `Engine::run`).
pub fn run_timed(cfg: &SimConfig, arena: &mut RunArena, time: &mut RunTime) -> RunMetrics {
    let t = Instant::now();
    if cfg.shards == 0 {
        let sim = HostSim::new_in(*cfg, arena);
        time.setup_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let m = sim.run_salvaging(arena);
        time.loop_ns = t.elapsed().as_nanos() as u64;
        m
    } else {
        let engine = Engine::new(*cfg);
        time.setup_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let m = engine.run();
        time.loop_ns = t.elapsed().as_nanos() as u64;
        m
    }
}

/// One gated pass over the basket; returns each run's host times. Entry
/// `i` is gated under key `key_base + i`.
pub fn run_basket(
    basket: &[SimConfig],
    key_base: usize,
    arena: &mut RunArena,
    gate: &mut Gate,
) -> Vec<RunTime> {
    let mut times = Vec::with_capacity(basket.len());
    for (i, cfg) in basket.iter().enumerate() {
        let mut time = RunTime::default();
        if gate
            .run(key_base + i, cfg, || run_timed(cfg, arena, &mut time))
            .is_none()
        {
            // A panicked run may leave the arena half-harvested.
            *arena = RunArena::new();
        }
        times.push(time);
    }
    times
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One named metric value for the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// A run is correct when no attempt failed its gate and every metric is a
/// finite number (a non-finite one is written as `null`).
pub fn result_json(gate: &Gate, metrics: &[Metric]) -> (bool, String) {
    let correct = gate.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted,
        gate.failed,
        body.join(", ")
    );
    (correct, line)
}

/// End-to-end metrics: the basket repeated while another repeat still fits
/// in `seconds` (at least [`MIN_REPEATS`] times), every repeat gated. Each
/// repeat's host times are scaled to the nominal host speed measured just
/// before it (see [`reference`]).
fn end_to_end(args: &Args, gate: &mut Gate) -> Vec<Metric> {
    let basket = args.workload.basket(args.seed);
    let sim_ms: f64 = basket.iter().map(workloads::sim_ms).sum();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut arena = RunArena::new();
    let (mut wall, mut setup, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_wall, mut scales) = (Vec::new(), Vec::new());
    let mut last = Duration::ZERO;
    while wall.len() < MIN_REPEATS || start.elapsed() + last < budget {
        let t = Instant::now();
        let scale = reference::scale();
        let times = run_basket(&basket, 0, &mut arena, gate);
        last = t.elapsed();
        let setup_s = times.iter().map(|t| t.setup_ns).sum::<u64>() as f64 / 1e9;
        let loop_s = times.iter().map(|t| t.loop_ns).sum::<u64>() as f64 / 1e9;
        raw_wall.push(setup_s + loop_s);
        scales.push(scale);
        wall.push((setup_s + loop_s) * scale);
        setup.push(setup_s * scale);
        rate.push(sim_ms / (loop_s * scale));
    }
    println!(
        "repeats {}  basket {} runs  {sim_ms} simulated ms each",
        wall.len(),
        basket.len()
    );
    let series: Vec<String> = raw_wall.iter().map(|w| format!("{w:.3}")).collect();
    println!("raw wall_s per repeat, in order: {}", series.join(" "));
    println!("raw wall_s    s      {}", stats::describe(&raw_wall));
    println!("host speed    x      {}", stats::describe(&scales));
    println!("wall_s        s      {}", stats::describe(&wall));
    println!("setup_s       s      {}", stats::describe(&setup));
    println!("sim_ms_per_s  ms/s   {}", stats::describe(&rate));
    let rss = peak_rss_mib();
    println!("peak_rss_mib  MiB    {rss:.3}");
    println!(
        "failed_run_share share  {:.6}  ({} of {} runs failed)",
        gate.failed_share(),
        gate.failed,
        gate.attempted
    );
    let med = |s: &[f64]| stats::median(s).expect("at least one repeat");
    vec![
        metric("wall_s", med(&wall), "s"),
        metric("setup_s", med(&setup), "s"),
        metric("sim_ms_per_s", med(&rate), "ms/s"),
        metric("peak_rss_mib", rss, "MiB"),
        metric("ok_run_share", 1.0 - gate.failed_share(), "share"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fns-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut gate = Gate::default();
    let metrics = if args.trace {
        traced::per_layer(
            args.workload,
            args.seed,
            args.seconds,
            args.out_dir.as_deref(),
            &mut gate,
        )
    } else {
        end_to_end(&args, &mut gate)
    };
    for (key, f) in &gate.failures {
        eprintln!("FAILED run {key}: {f:?}");
    }
    let (correct, line) = result_json(&gate, &metrics);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut gate = Gate::default();
        gate.attempted = 4;
        let (correct, line) = result_json(&gate, &[metric("wall_s", 1.25, "s")]);
        assert!(correct);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let (correct, line) = result_json(&gate, &[metric("x", f64::NAN, "ns")]);
        assert!(!correct);
        assert!(line.contains("\"x\": {\"value\": null, \"unit\": \"ns\"}"));
        gate.failed = 1;
        assert!(!result_json(&gate, &[metric("wall_s", 1.0, "s")]).0);
    }
}
