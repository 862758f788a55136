//! A tiny run of every workload prints every metric `BENCHMARK.json`
//! declares, with its unit, and passes the correctness gate; bad arguments
//! make the binary exit non-zero without a result line.

use std::process::Command;

/// `(name, unit)` of every metric object in one section of
/// `BENCHMARK.json`, which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| {
            let field = |key: &str| {
                let at = l.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
                let rest = &l[at..];
                let open = rest.find('"').expect("string value") + 1;
                let close = rest[open..].find('"').expect("closed string") + open;
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_turnbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// Metric names in the final result line, in order.
fn reported(last: &str) -> Vec<(String, String)> {
    let metrics = &last[last.find("\"metrics\":{").expect("metrics object") + 11..];
    metrics
        .split("}")
        .filter_map(|entry| {
            let entry = entry.trim_start_matches([',', '{']);
            let name = entry.strip_prefix('"')?.split('"').next()?.to_string();
            let unit = entry
                .split("\"unit\":\"")
                .nth(1)?
                .split('"')
                .next()?
                .to_string();
            Some((name, unit))
        })
        .collect()
}

#[test]
fn tiny_runs_report_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 16);
    for workload in ["pairs", "backlog", "handoff"] {
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let (ok, stdout) = run(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.4",
                "--trace",
                trace,
                "--burst-log2",
                "10",
            ]);
            let last = stdout.lines().last().expect("a result line");
            assert!(ok, "{workload} trace={trace} failed:\n{stdout}");
            assert!(last.starts_with("{\"correct\":true,"), "{last}");
            let mut got = reported(last);
            let mut want = want.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} trace={trace}");
            for (name, unit) in &want {
                let line = format!("metric {name} ");
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&line) && l.ends_with(unit.as_str())),
                    "{name} [{unit}] missing from the printed table"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "pairs", "--seconds", "1"][..],
        &[
            "--workload",
            "pairs",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result");
    }
}
