//! The benchmark's own tests: a tiny-size pass over every workload, traced
//! and untraced, against the metric list of `BENCHMARK.json`; and a check
//! that a wrong reference spectrum is counted as a failure.

use ge2val_bench::check::Tally;
use ge2val_bench::workloads::{
    per_call_loop, per_call_options, per_call_problems, stream_loop, stream_pool, Stop, Workload,
};
use std::path::Path;
use std::process::Command;

/// A parsed JSON value (just enough JSON for `BENCHMARK.json` and the
/// result line).
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser(text.as_bytes(), 0);
        let v = p.value();
        p.ws();
        assert_eq!(p.1, text.len(), "trailing characters in {text}");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

struct Parser<'a>(&'a [u8], usize);

impl Parser<'_> {
    fn ws(&mut self) {
        while self.1 < self.0.len() && self.0[self.1].is_ascii_whitespace() {
            self.1 += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.0[self.1], c,
            "expected {} at byte {}",
            c as char, self.1
        );
        self.1 += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.0[self.1]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.0[self.1];
            self.1 += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    out.push(self.0[self.1] as char);
                    self.1 += 1;
                }
                _ => out.push(c as char),
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut kv = Vec::new();
                while self.peek() != b'}' {
                    let k = self.string();
                    self.eat(b':');
                    kv.push((k, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(kv)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.1;
                while self.1 < self.0.len() && !b",}] \n".contains(&self.0[self.1]) {
                    self.1 += 1;
                }
                match &self.0[start..self.1] {
                    b"true" => Json::Bool(true),
                    b"false" => Json::Bool(false),
                    b"null" => Json::Null,
                    num => Json::Num(
                        std::str::from_utf8(num)
                            .expect("ascii")
                            .parse()
                            .unwrap_or_else(|_| panic!("bad number at byte {start}")),
                    ),
                }
            }
        }
    }
}

#[test]
fn tiny_pass_prints_every_metric_with_its_unit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root");
    let spec =
        Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["square", "tall", "stream", "medium"]);
    let trace_out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tiny.trace.json");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected: Vec<(&str, &str)> = spec
            .get(section)
            .arr()
            .iter()
            .map(|m| (m.get("name").str(), m.get("unit").str()))
            .collect();
        for w in &workloads {
            let out = Command::new(env!("CARGO_BIN_EXE_ge2val-bench"))
                .current_dir(root)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--tiny",
                ])
                .arg("--trace-out")
                .arg(&trace_out)
                .output()
                .expect("run the benchmark");
            assert!(
                out.status.success(),
                "{w} trace={trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let result = Json::parse(stdout.lines().last().expect("a result line"));
            assert!(
                matches!(result.get("correct"), Json::Bool(true)),
                "{w} trace={trace}: {stdout}"
            );
            assert!(result.get("attempted").num() >= 1.0);
            assert_eq!(result.get("failed").num(), 0.0);
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics is not an object")
            };
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
            let mut sorted = (printed.clone(), names.clone());
            sorted.0.sort_unstable();
            sorted.1.sort_unstable();
            assert_eq!(
                sorted.0, sorted.1,
                "{w} trace={trace}: printed metrics differ from {section}"
            );
            for (name, unit) in &expected {
                let m = result.get("metrics").get(name);
                assert_eq!(m.get("unit").str(), *unit, "{w}: unit of {name}");
                assert!(m.get("value").num().is_finite(), "{w}: value of {name}");
                // Every metric is also printed in the report with its unit and sample count.
                assert!(
                    stdout.lines().any(|l| l.starts_with(&format!("{name} "))
                        && l.contains(unit)
                        && l.contains("n=")),
                    "{w}: no report line for {name}"
                );
            }
        }
    }
}

#[test]
fn a_perturbed_reference_spectrum_is_counted_as_a_failure() {
    // Per-call loop: one of the two medium inputs carries a reference
    // spectrum off by 1e-8 relative, far beyond the 1e-10 tolerance.
    let mut problems = per_call_problems(Workload::Medium, true, 3);
    problems[1].sigma[0] *= 1.0 + 1.0e-8;
    let mut tally = Tally::default();
    per_call_loop(
        &problems,
        &per_call_options(2),
        Stop::requests(2),
        &mut tally,
    );
    assert_eq!(
        tally,
        Tally {
            attempted: 4,
            failed: 2
        }
    );

    // Session loop: every copy of one stream shape carries a wrong
    // reference; each request that drew it is a failure.
    let mut pool = stream_pool(3);
    for p in pool.iter_mut().filter(|p| p.a.rows() == 32) {
        let last = p.sigma.len() - 1;
        p.sigma[last] += 1.0e-9;
    }
    let session = bidiag_core::SvdSession::new(2);
    let mut next = 0;
    let mut pick = || {
        next += 1;
        (next - 1) % pool.len()
    };
    let mut tally = Tally::default();
    stream_loop(
        &session,
        &pool,
        &mut pick,
        4,
        Stop::requests(2 * pool.len()),
        &mut tally,
    );
    let wrong = 2 * pool.iter().filter(|p| p.a.rows() == 32).count() as u64;
    assert!(wrong > 0);
    assert_eq!(
        tally,
        Tally {
            attempted: 2 * pool.len() as u64,
            failed: wrong
        }
    );
}
