//! The tonos end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <batch_cohort|ward_live|ward_replay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public APIs, checks its outputs, and
//! prints a report on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits nonzero
//! when any output check fails or the run is invalid. `WORKLOADS.md`
//! beside this crate explains each workload and metric.

mod cohort;
mod http;
mod layers;
mod live;
mod replay;
mod report;
mod stats;
mod ward;

use report::{metrics_json, Metric, Outcome};

/// A seed kept out of every tuning run; a claimed gain must also hold
/// on it.
const HELD_OUT_SEED: u64 = 20_040_917;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("physio.record_ms_per_session", "ms"),
    ("mems.capacitance_ns_per_frame", "ns"),
    ("analog.convert_ns_per_clock", "ns"),
    ("analog.bank_ns_per_clock_lane", "ns"),
    ("dsp.decimate_ns_per_bit", "ns"),
    ("core.scan_ms", "ms"),
    ("core.calibration_ms", "ms"),
    ("core.analysis_ms", "ms"),
    ("core.monitor_new_ms", "ms"),
    ("fleet.lane_occupancy", "lanes"),
    ("fleet.batches_scalar", "count"),
    ("link.send_to_tap_p50_ms", "ms"),
    ("link.send_to_tap_p99_ms", "ms"),
    ("link.decode_ms_per_chunk", "ms"),
    ("link.ingest_mbit_per_s", "Mbit/s"),
    ("link.concealed_samples", "count"),
    ("link.crc_failures", "count"),
    ("historian.tap_us_p99", "us"),
    ("historian.tap_to_visible_p99_ms", "ms"),
    ("historian.api_status_ms_p99", "ms"),
    ("historian.api_readings_ms_p99", "ms"),
    ("historian.api_waveform_ms_p99", "ms"),
    ("historian.read_range_p99_ms", "ms"),
    ("historian.tap_busy_frac", "fraction"),
    ("historian.append_mb_per_s", "MB/s"),
    ("historian.fsync_p99_ms", "ms"),
    ("historian.records_appended", "count"),
    ("historian.bytes_written", "count"),
    ("harness.send_lag_p99_ms", "ms"),
    ("harness.trace_overhead_frac", "fraction"),
    ("batch_cohort.bp_mae_mmhg", "mmHg"),
    ("batch_cohort.unattributed_frac", "fraction"),
    ("ward_live.poll_p50_ms", "ms"),
    ("ward_live.poll_p99_ms", "ms"),
    ("ward_live.unattributed_frac", "fraction"),
    ("ward_replay.reads_per_s", "1/s"),
    ("ward_replay.unattributed_frac", "fraction"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (seed, s, t) = (args.seed, args.seconds, args.trace);
    let mut out = match args.workload.as_str() {
        "batch_cohort" => cohort::run(seed, s, t, cohort::Size::FULL),
        "ward_live" => live::run(seed, s, t, live::Size::FULL),
        "ward_replay" => replay::run(seed, s, t, replay::Size::FULL),
        other => return Err(format!("unknown workload {other:?}")),
    };
    if let Some(o) = out.trace_overhead {
        out.layers
            .push(Metric::new("harness.trace_overhead_frac", o, "fraction"));
    }
    Ok(out)
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: --workload <batch_cohort|ward_live|ward_replay> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let metrics = if args.trace {
        out.per_layer(PER_LAYER)
    } else {
        out.end_to_end()
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        out.invalid = Some(format!("{} was not measured", m.name));
    }
    eprint!("{}", out.table());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"repro\": {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}, \"host_hardware_threads\": {threads}, \"bank_kernel\": \"{}\", \"noise_kernel\": \"{}\", \"build_features\": []}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tonos_analog::bank::kernel_name(),
        tonos_analog::noise::kernel_name(),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics_json(&metrics)
    );
    std::process::exit(if out.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Json;
    use crate::stats::Dist;

    fn manifest() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn listed(section: &str) -> Vec<(String, String)> {
        manifest()
            .get(section)
            .and_then(Json::arr)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_manifest_metric_is_emitted_with_its_unit() {
        let out = Outcome::new("x", 1.0, 2.0, Dist::of(&[3.0]));
        let e2e: Vec<(String, String)> = out
            .end_to_end()
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = out
            .per_layer(PER_LAYER)
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let json = Json::parse(&metrics_json(&out.end_to_end())).unwrap();
        assert_eq!(
            json.get("setup_s")
                .and_then(|m| m.get("unit"))
                .and_then(Json::str),
            Some("s")
        );
    }

    #[test]
    fn manifest_names_the_workloads() {
        let names: Vec<String> = manifest()
            .get("workloads")
            .and_then(Json::arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::str).unwrap().to_string())
            .collect();
        // `ward_replay` runs by hand only; WORKLOADS.md says why.
        assert_eq!(names, ["batch_cohort", "ward_live"]);
    }

    /// Every layer metric a workload measures is a manifest metric with
    /// the manifest's unit.
    pub fn assert_layers_listed(out: &Outcome) {
        for m in &out.layers {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, u)| *u);
            assert_eq!(
                unit,
                Some(m.unit),
                "{} is not listed with unit {}",
                m.name,
                m.unit
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse(s.split_whitespace().map(String::from));
        let a = args("--workload ward_live --seed 4 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("ward_live", 4, 2.0, true)
        );
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --seconds").is_err());
    }
}
