//! Tests of the benchmark's own pieces: the generator, the checker, the
//! determinism of the modeled and virtual-time results, and the metric
//! names against `BENCHMARK.json`.

use perfbench::check::check_pass;
use perfbench::gen::{self, KeyPool, MixSpec, Schedule};
use perfbench::modeled;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::run::{plane_config, target};
use perfbench::traffic::run_pass;
use service::cost::CostTable;
use service::frame::{decode_request, OpRequest, Status};

fn small(spec: MixSpec) -> MixSpec {
    MixSpec { ticks: 12, ..spec }
}

fn build(seed: u64, spec: &MixSpec) -> (KeyPool, Schedule) {
    let pool = KeyPool::new(seed, spec);
    let costs = CostTable::shared(target());
    let schedule = gen::schedule(
        seed,
        spec,
        &pool,
        costs,
        plane_config().capacity_cycles_per_tick,
    );
    (pool, schedule)
}

fn frames(s: &Schedule) -> Vec<Vec<u8>> {
    s.frames.iter().map(|f| f.bytes.clone()).collect()
}

#[test]
fn same_seed_same_frames_and_outcomes_other_seed_other_schedule() {
    let spec = small(MixSpec::gateway_mix());
    let (pool_a, a) = build(7, &spec);
    let (_, b) = build(7, &spec);
    let (_, c) = build(8, &spec);
    assert_eq!(
        frames(&a),
        frames(&b),
        "same seed must give byte-identical frames"
    );
    assert_eq!(a.starts, b.starts);
    assert_ne!(
        frames(&a),
        frames(&c),
        "another seed must change the schedule"
    );

    let cfg = plane_config();
    let run = |s: &Schedule| {
        let log = run_pass(&cfg, s, None);
        let check = check_pass(s, &pool_a, &log, false).expect("outputs check");
        (log.counters, check.outcomes, check.encoded, log.cache)
    };
    let (c1, o1, e1, k1) = run(&a);
    let (c2, o2, e2, k2) = run(&b);
    assert_eq!(c1, c2, "virtual-time counters repeat");
    assert_eq!(o1, o2, "outcome histogram repeats");
    assert_eq!(e1, e2, "responses repeat byte for byte");
    assert_eq!(k1, k2, "with one worker, cache hits and evictions repeat");
    assert!(c1.accounted(0));
}

#[test]
fn checker_rejects_one_flipped_response_byte() {
    let spec = small(MixSpec::sign_burst());
    let (pool, schedule) = build(3, &spec);
    let mut log = run_pass(&plane_config(), &schedule, None);
    check_pass(&schedule, &pool, &log, true).expect("untouched outputs check");
    let body = log
        .tick_out
        .iter_mut()
        .flatten()
        .find_map(|r| match &mut r.status {
            Status::Done(body) => Some(body),
            _ => None,
        })
        .expect("the burst completes some signatures");
    body[7] ^= 0x10;
    let err =
        check_pass(&schedule, &pool, &log, true).expect_err("a flipped byte must fail the check");
    assert!(err.contains("signature"), "{err}");
}

#[test]
fn checker_rejects_a_wrong_verify_verdict() {
    let spec = small(MixSpec::gateway_mix());
    let (pool, schedule) = build(5, &spec);
    let mut log = run_pass(&plane_config(), &schedule, None);
    check_pass(&schedule, &pool, &log, true).expect("untouched outputs check");
    let verdict = log
        .tick_out
        .iter_mut()
        .flatten()
        .find_map(|r| {
            let i = schedule
                .frames
                .iter()
                .position(|f| f.client == r.client && f.seq == r.seq)?;
            let is_verify = matches!(
                decode_request(&schedule.frames[i].bytes).map(|q| q.op),
                Ok(OpRequest::Verify { .. })
            );
            match &mut r.status {
                Status::Done(body) if is_verify => Some(body),
                _ => None,
            }
        })
        .expect("the mix completes some verifies");
    verdict[0] ^= 1;
    assert!(check_pass(&schedule, &pool, &log, true).is_err());
}

#[test]
fn modeled_results_repeat_exactly() {
    let jobs = modeled::jobs(11);
    let first = modeled::direct_phase(&jobs[..4], target(), 0.0, None).expect("direct runs");
    let second = modeled::direct_phase(&jobs[..4], target(), 0.0, None).expect("direct runs");
    for (a, b) in first.reports.iter().zip(&second.reports) {
        assert!(
            modeled::same_report(a, b),
            "kp/kg cycles, energy and categories repeat"
        );
    }
    let kernels = modeled::capture_kernels(11, target()).expect("kernels capture");
    let f1 = modeled::fault_phase(&kernels, 11, 0.0, None);
    let f2 = modeled::fault_phase(&kernels, 11, 0.0, None);
    assert_eq!(
        (f1.aborted, f1.benign, f1.altered),
        (f2.aborted, f2.benign, f2.altered)
    );
    assert_eq!(
        f1.aborted + f1.benign + f1.altered,
        modeled::FAULT_CASES as u64
    );
}

/// The `"name"` values of the objects in `key`'s array.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let mut depth = 0;
    let mut close = open;
    for (i, ch) in json[open..].char_indices() {
        match ch {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    close = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &json[open..close];
    body.match_indices("\"name\"")
        .map(|(i, _)| {
            let rest = &body[i + 6..];
            let q1 = rest.find('"').expect("value quote");
            let q2 = q1 + 1 + rest[q1 + 1..].find('"').expect("closing quote");
            rest[q1 + 1..q2].to_string()
        })
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let layer: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    assert_eq!(names_in(&json, "per_layer"), layer);
    let workloads: Vec<&str> = perfbench::run::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
}
