//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 2 on bad
//! arguments.

use perfbench::inputs::Workload;
use perfbench::report::{run_record, Outcome, END_TO_END, PER_LAYER};
use perfbench::{discovery, serve_mixed};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("`--seconds` must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let record: Vec<String> = run_record(args.seed)
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# {} {}", args.workload.name(), record.join(" "));

    let mut out = Outcome::default();
    match args.workload {
        Workload::ServeMixed => serve_mixed::run(args.seed, args.seconds, args.trace, &mut out),
        w => discovery::run(w, args.seed, args.seconds, args.trace, &mut out),
    }
    if args.trace {
        out.metric("error_rate", out.error_rate());
    }
    for note in &out.notes {
        println!("# {note}");
    }
    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, value, unit) in out.report(listed) {
        println!("{name} = {value} {unit}");
    }
    println!("{}", out.to_json(listed));
}
