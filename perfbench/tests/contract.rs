//! The benchmark's own tests: the metric lists it prints are the ones
//! `BENCHMARK.json` declares, and a short-window run of each workload
//! repeats its sim-determined metrics exactly.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the simulations are slow unoptimised).

use es2_perfbench::bench::{self, Args, Report};
use es2_perfbench::cells::{SimWindow, WORKLOADS};
use es2_perfbench::metrics::{Clock, MetricDoc, END_TO_END, PER_LAYER};

/// A JSON value, parsed by hand (the benchmark has no dependencies).
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "no escapes expected");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                let word: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    w => panic!("bad literal {w}"),
                }
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| b"+-.eE0123456789".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing text after the JSON value");
    v
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => panic!("not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/"))
}

/// `(name, unit, better)` of every metric in a `BENCHMARK.json` list.
fn declared(list: &Json) -> Vec<(String, String, String)> {
    list.items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
                m.get("better").str().to_string(),
            )
        })
        .collect()
}

fn documented(docs: &[MetricDoc]) -> Vec<(String, String, String)> {
    docs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

/// A short window and the fewest batches, so the tests exercise every
/// code path in seconds.
fn short(workload: &str, trace: bool) -> Report {
    let args = Args {
        workload: workload.to_string(),
        seed: bench::DEFAULT_SEED,
        seconds: 0.001,
        trace,
    };
    let window = SimWindow {
        warmup_ms: 50,
        measure_ms: 100,
    };
    bench::run(&args, window).expect("known workload")
}

fn names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn benchmark_json_declares_the_documented_metrics_and_workloads() {
    let b = benchmark_json();
    assert_eq!(
        b.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(declared(b.get("end_to_end")), documented(END_TO_END));
    assert_eq!(declared(b.get("per_layer")), documented(PER_LAYER));
    let workloads: Vec<&str> = b
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for m in b.get("end_to_end").items() {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
    }
}

#[test]
fn printed_metrics_are_the_declared_lists_and_sim_metrics_repeat() {
    let b = benchmark_json();
    let e2e: Vec<String> = declared(b.get("end_to_end"))
        .into_iter()
        .map(|d| d.0)
        .collect();
    let layer: Vec<String> = declared(b.get("per_layer"))
        .into_iter()
        .map(|d| d.0)
        .collect();
    let sim = |r: &Report| -> Vec<(String, f64)> {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|d| d.clock == Clock::Sim)
            .filter_map(|d| Some((d.name.to_string(), r.value(d.name)?)))
            .collect()
    };
    for w in WORKLOADS {
        for trace in [false, true] {
            let a = short(w, trace);
            assert!(a.correct, "{w}: {}", a.text);
            assert_eq!(
                &names(&a),
                if trace { &layer } else { &e2e },
                "{w} trace={trace}"
            );
            let json = parse(&a.json());
            assert_eq!(json.keys(), ["correct", "attempted", "failed", "metrics"]);
            let again = short(w, trace);
            assert!(!sim(&a).is_empty());
            assert_eq!(
                sim(&a),
                sim(&again),
                "{w} trace={trace}: sim metrics differ"
            );
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    let args = |s: &[&str]| bench::parse_args(&s.iter().map(|a| a.to_string()).collect::<Vec<_>>());
    assert!(args(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(args(&["--workload", "paper_mux", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "paper_mux", "--seconds", "0"]).is_err());
    assert!(args(&["--workload"]).is_err());
    let ok = args(&[
        "--workload",
        "dense_observed",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .expect("valid arguments");
    assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3.0, true));
}
