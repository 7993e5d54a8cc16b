//! Campaign-runner determinism battery: thread-count independence,
//! same-seed replay, engine agreement, and summary sanity. The engine
//! under test follows `BASS_TEST_ENGINE` (`dense`, or unset for the
//! default delta engine) and the stepping strategy follows
//! `BASS_TEST_STEP_MODE` (`ticked` or `event-driven`), so CI runs the
//! whole file once per engine and once per step mode.

use bass::core::StepMode;
use bass::mesh::AllocEngine;
use bass::scenario::{run_campaign_opts, CampaignOptions, CampaignSummary, ScenarioSpec};
use serde_json::Value;

/// The allocation engine CI selects via `BASS_TEST_ENGINE`; defaults to
/// the production delta engine.
fn engine_under_test() -> AllocEngine {
    match std::env::var("BASS_TEST_ENGINE").as_deref() {
        Ok("dense") => AllocEngine::Dense,
        _ => AllocEngine::default(),
    }
}

/// The stepping strategy CI selects via `BASS_TEST_STEP_MODE`; defaults
/// to executing every tick. Because event-driven campaigns are
/// documented as byte-identical to ticked ones, every assertion in this
/// battery must hold unchanged under either mode.
fn step_mode_under_test() -> StepMode {
    match std::env::var("BASS_TEST_STEP_MODE") {
        Ok(name) => StepMode::parse(&name).expect("CI passes a valid step mode"),
        Err(_) => StepMode::Ticked,
    }
}

/// [`bass::scenario::run_campaign`] with the battery's step mode
/// threaded in; the engine/jobs surface stays identical so the test
/// bodies read the same as the public API.
fn run_campaign(
    spec: &ScenarioSpec,
    seed: u64,
    jobs: usize,
    engine: AllocEngine,
) -> Result<CampaignSummary, bass::scenario::CampaignError> {
    let opts = CampaignOptions {
        jobs,
        engine,
        step_mode: step_mode_under_test(),
        ..CampaignOptions::default()
    };
    Ok(run_campaign_opts(spec, seed, &opts)?.summary)
}

/// A reference campaign small enough for test time but exercising churn,
/// fades, faults, and multiple replicas.
fn test_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::small_reference();
    spec.horizon_ticks = 120;
    spec.replicas = 3;
    spec
}

#[test]
fn sequential_and_parallel_summaries_are_byte_identical() {
    let spec = test_spec();
    let engine = engine_under_test();
    let sequential = run_campaign(&spec, 42, 1, engine).unwrap();
    let parallel = run_campaign(&spec, 42, 4, engine).unwrap();
    assert_eq!(
        sequential.to_json(),
        parallel.to_json(),
        "--jobs must never change campaign output"
    );
}

#[test]
fn same_seed_replays_bit_for_bit_and_seeds_differ() {
    let spec = test_spec();
    let engine = engine_under_test();
    let a = run_campaign(&spec, 7, 2, engine).unwrap();
    let b = run_campaign(&spec, 7, 2, engine).unwrap();
    assert_eq!(a.to_json(), b.to_json(), "same seed must replay bit-for-bit");
    let c = run_campaign(&spec, 8, 2, engine).unwrap();
    assert_ne!(a.to_json(), c.to_json(), "different seeds must differ");
}

#[test]
fn dense_and_delta_engines_agree() {
    // The two allocation engines are documented as bit-identical
    // (docs/PERFORMANCE.md); campaigns must preserve that — everything
    // except the engine label matches.
    let mut spec = test_spec();
    spec.horizon_ticks = 60;
    spec.replicas = 1;
    let dense = run_campaign(&spec, 11, 1, AllocEngine::Dense).unwrap();
    let delta = run_campaign(&spec, 11, 1, AllocEngine::Delta).unwrap();
    assert_eq!(dense.engine, "dense");
    assert_eq!(delta.engine, "delta");
    assert_eq!(
        serde_json::to_string(&dense.replicas).unwrap(),
        serde_json::to_string(&delta.replicas).unwrap()
    );
}

#[test]
fn summary_json_is_well_formed_and_consistent() {
    let spec = test_spec();
    let summary = run_campaign(&spec, 3, 2, engine_under_test()).unwrap();
    // Counters fold correctly across replicas.
    assert_eq!(summary.replicas.len(), spec.replicas as usize);
    assert_eq!(
        summary.aggregate.ticks,
        spec.horizon_ticks * u64::from(spec.replicas)
    );
    let admitted: u64 = summary.replicas.iter().map(|r| r.apps_admitted).sum();
    assert_eq!(summary.aggregate.apps_admitted, admitted);
    let samples: u64 = summary.replicas.iter().map(|r| r.goodput.samples).sum();
    assert_eq!(summary.aggregate.goodput.samples, samples);
    for r in &summary.replicas {
        assert!(r.apps_retired <= r.apps_admitted);
        assert!(r.goodput.samples > 0);
        let share: f64 = r.bandwidth_share.values().sum();
        assert!(share == 0.0 || (share - 1.0).abs() < 1e-9);
    }
    // The JSON round-trips through both the shim parser and the typed
    // representation.
    let json = summary.to_json();
    let value: Value = serde_json::from_str(&json).expect("summary is valid JSON");
    assert!(value["aggregate"]["goodput"]["p50"].as_f64().is_some());
    let back: CampaignSummary = serde_json::from_str(&json).expect("summary deserializes");
    assert_eq!(back, summary);
}

#[test]
fn replica_seeds_are_order_independent() {
    // Replica k's scenario is forked straight off the campaign seed, so
    // shrinking the replica count must keep the surviving replicas'
    // results identical — the guarantee that makes sharding safe.
    let mut spec = test_spec();
    spec.replicas = 3;
    let three = run_campaign(&spec, 21, 2, engine_under_test()).unwrap();
    spec.replicas = 2;
    let two = run_campaign(&spec, 21, 2, engine_under_test()).unwrap();
    assert_eq!(
        serde_json::to_string(&three.replicas[..2]).unwrap(),
        serde_json::to_string(&two.replicas[..]).unwrap()
    );
}
