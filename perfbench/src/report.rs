//! Metric names, units and the result line.

use std::fmt::Write as _;

/// Whether a metric is a host measurement or a pure function of
/// `(seed, target)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall clock or memory of this host: varies run to run.
    Host,
    /// Repeats exactly for a given seed and target.
    Deterministic,
}

/// One metric's name, unit and kind.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Host-dependent or deterministic.
    pub kind: Kind,
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Host,
    }
}

const fn det(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::Deterministic,
    }
}

/// The end-to-end metrics every untraced run prints.
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s"),
    host("peak_rss_mb", "MB"),
    host("ops_per_s", "1/s"),
    host("latency_p50_ms", "ms"),
    host("latency_p99_ms", "ms"),
    det("done_share", "ratio"),
    det("kp_cycles", "cycles"),
    det("kg_cycles", "cycles"),
    det("kp_uj", "uJ"),
    det("kg_uj", "uJ"),
    host("direct_minstr_per_s", "Minstr/s"),
];

/// The per-layer metrics every traced run prints.
pub const PER_LAYER: &[MetricDef] = &[
    host("koblitz.curve.subgroup_check_us", "us"),
    host("koblitz.curve.decompress_us", "us"),
    host("protocols.wire.decode_public_key_us", "us"),
    host("service.frame.decode_us", "us"),
    host("protocols.ecdsa.verify_us", "us"),
    host("protocols.ecdh.shared_secret_us", "us"),
    host("protocols.ecies.encrypt_us", "us"),
    host("koblitz.mul.double_multiply_us", "us"),
    host("koblitz.mul.mul_wtnaf_us", "us"),
    det("koblitz.cache.hit_rate", "ratio"),
    det("koblitz.cache.evictions", "count"),
    host("koblitz.cache.table_for_us", "us"),
    host("koblitz.scalar.invert_us", "us"),
    host("koblitz.scalar.mul_us", "us"),
    host("protocols.ecdsa.sign_us", "us"),
    host("protocols.ecdsa.derive_nonce_us", "us"),
    host("koblitz.mul.mul_g_us", "us"),
    host("koblitz.tnaf.recode_w4_us", "us"),
    host("koblitz.tnaf.recode_w6_us", "us"),
    host("koblitz.projective.batch_to_affine_us", "us"),
    host("gf2m.mul_ns", "ns"),
    host("gf2m.sqr_ns", "ns"),
    host("gf2m.inv_us", "us"),
    host("gf2m.batch_invert_us", "us"),
    det("gf2m.bitsliced.calls", "count"),
    host("service.plane.submit_us", "us"),
    host("service.plane.tick_ms", "ms"),
    host("service.plane.queue_wait_ms", "ms"),
    det("service.plane.ops_per_tick", "count"),
    host("protocols.batch.parallel_efficiency", "ratio"),
    det("service.plane.admitted_share", "ratio"),
    det("service.plane.decode_wasted_share", "ratio"),
    det("service.plane.shed", "count"),
    det("service.plane.busy", "count"),
    det("service.plane.timeouts", "count"),
    det("service.plane.max_level", "count"),
    host("m0plus.backend.record_ms", "ms"),
    host("m0plus.backend.translate_ms", "ms"),
    host("m0plus.exec.predecode_ms", "ms"),
    det("m0plus.exec.predecode_hit_rate", "ratio"),
    host("m0plus.exec.replay_minstr_per_s", "Minstr/s"),
    host("m0plus.backend.code_minstr_per_s", "Minstr/s"),
    host("m0plus.fault.replay_minstr_per_s", "Minstr/s"),
    det("m0plus.profile.kp.tnaf_representation_cycles", "cycles"),
    det("m0plus.profile.kp.tnaf_precomputation_cycles", "cycles"),
    det("m0plus.profile.kp.multiply_cycles", "cycles"),
    det("m0plus.profile.kp.multiply_precomputation_cycles", "cycles"),
    det("m0plus.profile.kp.square_cycles", "cycles"),
    det("m0plus.profile.kp.inversion_cycles", "cycles"),
    det("m0plus.profile.kp.support_cycles", "cycles"),
    det("m0plus.profile.kg.tnaf_representation_cycles", "cycles"),
    det("m0plus.profile.kg.tnaf_precomputation_cycles", "cycles"),
    det("m0plus.profile.kg.multiply_cycles", "cycles"),
    det("m0plus.profile.kg.multiply_precomputation_cycles", "cycles"),
    det("m0plus.profile.kg.square_cycles", "cycles"),
    det("m0plus.profile.kg.inversion_cycles", "cycles"),
    det("m0plus.profile.kg.support_cycles", "cycles"),
    host("trace.overhead_share", "ratio"),
];

/// The metric-name stem of a Table 7 category.
pub fn category_stem(c: m0plus::Category) -> &'static str {
    use m0plus::Category::*;
    match c {
        TnafRepresentation => "tnaf_representation",
        TnafPrecomputation => "tnaf_precomputation",
        Multiply => "multiply",
        MultiplyPrecomputation => "multiply_precomputation",
        Square => "square",
        Inversion => "inversion",
        Support => "support",
    }
}

/// The measured values of one run, by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Renders exactly the metrics of `defs`, in order, as the body of
    /// the result's `metrics` object.
    ///
    /// # Errors
    ///
    /// A metric of `defs` that was not measured, or is not finite.
    pub fn render(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            let v = self
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", d.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// A finite f64 as a JSON number with every digit Rust keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

/// Median of a sample (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile of a sample (0 when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host the run measured on: CPU model, `nproc`, `rustc -V` and
/// the git commit of the checkout (when it is a git checkout).
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cpu\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        escape(&cpu),
        escape(&rustc),
        escape(&git_commit())
    )
}

/// The checkout's commit, read from `.git` in the working directory
/// without running git (which would search outside the checkout).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Names of the metrics of `defs` with the given kind, as a JSON list.
pub fn names_of(defs: &[MetricDef], kind: Kind) -> String {
    let names: Vec<String> = defs
        .iter()
        .filter(|d| d.kind == kind)
        .map(|d| format!("\"{}\"", d.name))
        .collect();
    format!("[{}]", names.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn render_refuses_missing_and_non_finite_metrics() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        assert!(m.render(&END_TO_END[..1]).is_ok());
        assert!(m.render(&END_TO_END[..2]).is_err());
        m.set("setup_s", f64::NAN);
        assert!(m.render(&END_TO_END[..1]).is_err());
        m.set("setup_s", 2.0);
        assert_eq!(
            m.render(&END_TO_END[..1]).unwrap(),
            "{\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}"
        );
    }
}
