//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics of `BENCHMARK.json` (or, with `--trace 1`, its per-layer metrics).
//! Exits 1 when any answer check failed, 2 on bad arguments or a run error.

use perfbench::{run, Metric, Report, Settings, Window, Workload, GATED_E2E};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn fmt_value(m: &Metric) -> String {
    m.value
        .map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<34} {:>14}  {:<7} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "  {:<34} {:>14}  {:<7} {:>9}",
            m.name,
            fmt_value(m),
            m.unit,
            m.samples
        );
    }
}

fn print_report(a: &Args, sessions: usize, r: &Report) {
    println!(
        "workload {}  seed {}  window {} s  sessions {sessions}  trace {}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8
    );
    let title = if a.trace {
        "end-to-end (untraced window of this traced run)"
    } else {
        "end-to-end"
    };
    print_table(title, &r.e2e);
    if !a.trace {
        return;
    }
    let wall: u64 = r.self_times.values().map(|s| s.self_ns).sum();
    println!("self time by layer (span)");
    println!(
        "  {:<14} {:>9} {:>12} {:>12} {:>7}",
        "span", "count", "self ms", "mean us", "share"
    );
    for (name, s) in &r.self_times {
        println!(
            "  {:<14} {:>9} {:>12.3} {:>12.2} {:>6.1}%",
            name,
            s.count,
            s.self_ns as f64 / 1e6,
            s.self_ns as f64 / s.count.max(1) as f64 / 1e3,
            100.0 * s.self_ns as f64 / wall.max(1) as f64
        );
    }
    print_table("per-layer", &r.per_layer);
    if let Some(p) = &r.spans_file {
        println!("spans written to {}", p.display());
    }
}

fn json_line(r: &Report, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value.unwrap_or(0.0),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let settings = Settings::new(
        args.workload,
        args.seed,
        Window::Seconds(args.seconds),
        args.trace,
    );
    let report = match run(&settings) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::from(2);
        }
    };
    print_report(&args, settings.sessions, &report);
    let metrics: Vec<&Metric> = if args.trace {
        report.per_layer.iter().collect()
    } else {
        GATED_E2E
            .iter()
            .map(|name| {
                report
                    .e2e
                    .iter()
                    .find(|m| m.name == *name)
                    .expect("gated metric is computed")
            })
            .collect()
    };
    println!("{}", json_line(&report, &metrics));
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} ops failed their check",
            report.failed, report.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
