//! Smoke mode: each workload, shrunk, through the real command line.
//!
//! Asserts that every metric `BENCHMARK.json` names prints with its
//! unit, that all correctness checks pass, that report fingerprints
//! agree between the untraced and traced runs, and that every per-layer
//! count repeats exactly across two traced runs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A minimal JSON value: enough for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used");
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
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i);
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let n = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                n.parse::<f64>()
                    .unwrap_or_else(|_| panic!("bad number {n:?}"));
                Json::Num(n.to_string())
            }
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// `(name, unit)` of each metric in a `BENCHMARK.json` list.
fn declared(list: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    match Json::parse(&text).get(list) {
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect(),
        other => panic!("{list} is not a list: {other:?}"),
    }
}

/// One smoke run: the note lines and the parsed result line.
fn run(workload: &str, trace: u8) -> (Vec<String>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_gtt-perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = Json::parse(&lines.pop().expect("a result line"));
    assert_eq!(result.get("correct"), &Json::Bool(true), "{lines:?}");
    assert_eq!(result.get("failed"), &Json::Num("0".into()));
    (lines, result)
}

/// `name → (value text, unit)` of a result line.
fn metrics(result: &Json) -> BTreeMap<String, (String, String)> {
    match result.get("metrics") {
        Json::Obj(m) => m
            .iter()
            .map(|(k, v)| {
                let Json::Num(n) = v.get("value") else {
                    panic!("{k}: value is not a number");
                };
                (k.clone(), (n.clone(), v.get("unit").str().to_string()))
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn fingerprint(lines: &[String]) -> String {
    lines
        .iter()
        .find(|l| l.starts_with("fingerprint "))
        .expect("a fingerprint line")
        .split(" (")
        .next()
        .expect("split yields one part")
        .to_string()
}

fn assert_declared(list: &str, got: &BTreeMap<String, (String, String)>) {
    let want = declared(list);
    let got_units: BTreeMap<String, String> = got
        .iter()
        .map(|(k, (_, u))| (k.clone(), u.clone()))
        .collect();
    assert_eq!(got_units, want, "{list} names and units");
}

fn smoke(workload: &str) {
    let (plain_notes, plain) = run(workload, 0);
    assert_declared("end_to_end", &metrics(&plain));

    let (notes_a, a) = run(workload, 1);
    let (notes_b, b) = run(workload, 1);
    let (a, b) = (metrics(&a), metrics(&b));
    assert_declared("per_layer", &a);
    assert_eq!(fingerprint(&plain_notes), fingerprint(&notes_a));
    assert_eq!(fingerprint(&notes_a), fingerprint(&notes_b));
    let timed = ["ms", "ns", "time_ratio"];
    for (name, (value, unit)) in &a {
        if !timed.contains(&unit.as_str()) {
            assert_eq!(
                value, &b[name].0,
                "per-layer count {name} must repeat exactly"
            );
        }
    }
}

#[test]
fn fig_sweep_smoke() {
    smoke("fig-sweep");
}

#[test]
fn city_1k_steady_smoke() {
    smoke("city-1k-steady");
}

#[test]
fn city_10k_stress_smoke() {
    smoke("city-10k-stress");
}
