//! Small shared pieces: order statistics, the
//! matrix digest used to check replies, per-kind operation accounting,
//! and a minimal JSON writer.

use dp_server::ClientError;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

pub fn millis(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Word-wise FNV-1a over the bit patterns of `values` (and the length):
/// equal digests mean bit-identical matrices for any honest input.
pub fn digest(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ values.len() as u64;
    for v in values {
        h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Sleep until `due`, finishing the last stretch with a short spin so
/// open-loop sends leave close to their scheduled time.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Attempted / succeeded / failed counts for one operation kind, with
/// failures broken down by cause. No operation is ever retried.
#[derive(Default, Clone)]
pub struct OpCount {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub causes: BTreeMap<String, u64>,
}

/// Per-kind operation accounting for one run.
#[derive(Default, Clone)]
pub struct Ops(pub BTreeMap<&'static str, OpCount>);

impl Ops {
    pub fn ok(&mut self, kind: &'static str) {
        let c = self.0.entry(kind).or_default();
        c.attempted += 1;
        c.succeeded += 1;
    }

    pub fn fail(&mut self, kind: &'static str, e: &ClientError) {
        let c = self.0.entry(kind).or_default();
        c.attempted += 1;
        c.failed += 1;
        *c.causes.entry(failure_cause(e)).or_default() += 1;
    }

    /// Record `result`, returning its value on success.
    pub fn record<T>(&mut self, kind: &'static str, result: Result<T, ClientError>) -> Option<T> {
        match result {
            Ok(v) => {
                self.ok(kind);
                Some(v)
            }
            Err(e) => {
                self.fail(kind, &e);
                None
            }
        }
    }

    pub fn merge(&mut self, other: &Ops) {
        for (kind, c) in &other.0 {
            let mine = self.0.entry(kind).or_default();
            mine.attempted += c.attempted;
            mine.succeeded += c.succeeded;
            mine.failed += c.failed;
            for (cause, n) in &c.causes {
                *mine.causes.entry(cause.clone()).or_default() += n;
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.0.values().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.0.values().map(|c| c.failed).sum()
    }

    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        for (kind, c) in &self.0 {
            let mut k = JsonObj::new();
            k.int("attempted", c.attempted);
            k.int("succeeded", c.succeeded);
            k.int("failed", c.failed);
            let mut causes = JsonObj::new();
            for (cause, n) in &c.causes {
                causes.int(cause, *n);
            }
            k.raw("causes", &causes.finish());
            o.raw(kind, &k.finish());
        }
        o.finish()
    }
}

/// The typed cause a failed operation is counted under.
fn failure_cause(e: &ClientError) -> String {
    match e {
        ClientError::Remote { code, .. } => match *code {
            dp_core::protocol::ERR_BUSY => "err_busy".to_string(),
            code => format!("err_{code}"),
        },
        ClientError::Timeout => "timeout".to_string(),
        ClientError::Io(_) => "disconnect".to_string(),
        ClientError::Codec(_) => "codec".to_string(),
        ClientError::UnexpectedResponse => "unexpected_response".to_string(),
    }
}

/// A flat JSON object writer (keys are benchmark-chosen identifiers).
pub struct JsonObj {
    out: String,
    first: bool,
}

impl JsonObj {
    pub fn new() -> Self {
        Self {
            out: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push_str(", ");
        }
        self.first = false;
        let _ = write!(self.out, "\"{}\": ", escape(key));
    }

    /// A number with every digit Rust's shortest round-trip form has.
    pub fn num(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.out, "{value:?}");
        } else {
            self.out.push_str("null");
        }
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.out, "{value}");
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        let _ = write!(self.out, "\"{}\"", escape(value));
    }

    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
    }

    pub fn raw(&mut self, key: &str, json: &str) {
        self.key(key);
        self.out.push_str(json);
    }

    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
