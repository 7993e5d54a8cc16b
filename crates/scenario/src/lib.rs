//! # bass-scenario — seeded city-scale scenarios and campaigns
//!
//! Everything upstream of this crate simulates *one* hand-built
//! deployment. Evaluating the orchestrator the way the paper does —
//! across a whole city of heterogeneous nodes, vagarious links, and
//! churning applications — needs two more pieces, and this crate is
//! both of them:
//!
//! * **Scenario generation** ([`spec`], [`mod@generate`]): a declarative
//!   [`ScenarioSpec`] (JSON) plus one `u64` seed materializes into a
//!   [`GeneratedScenario`] — a connected topology (random-geometric,
//!   grid, or hub-and-spoke; 50–1000 nodes), heterogeneous per-node
//!   resources, gateway placement, one OU bandwidth trace per link, an
//!   optional pre-compiled fault storm, and a time-ordered churning
//!   workload of camera / video-conference / social-network instances.
//!   Every draw comes from a forked sub-stream of a single
//!   [`SimRng`](bass_util::rng::SimRng), so the same `(spec, seed)`
//!   pair is byte-identical forever.
//! * **Campaign running** ([`campaign`]): [`run_campaign`] executes all
//!   replicas of a spec for 100k+ ticks in constant memory, folding
//!   each sample into fixed-bucket histograms and running sums instead
//!   of tick histories, and shards replicas across threads with the
//!   same order-preserving claim pattern as the experiment runner — the
//!   summary JSON is byte-identical for any `--jobs` value.
//!
//! On top of the campaign runner sits the **scheduler arena**
//! ([`arena`]): [`run_arena`] races every registered migration policy
//! (`bass_core::PolicyKind`) over a scenario corpus and emits a ranked
//! comparison table with the campaign runner's byte-identical
//! guarantees — `bassctl arena` is its CLI face and
//! `docs/POLICIES.md` its contract.
//!
//! The determinism battery lives in `tests/scenario_properties.rs`,
//! `tests/campaign.rs`, and `tests/policy.rs`; `docs/SCENARIOS.md`
//! documents the spec format.
//!
//! ## Example
//!
//! ```
//! use bass_scenario::{run_campaign, ScenarioSpec};
//! use bass_mesh::AllocEngine;
//!
//! let mut spec = ScenarioSpec::small_reference();
//! spec.horizon_ticks = 50;
//! spec.replicas = 1;
//! let summary = run_campaign(&spec, 7, 2, AllocEngine::Delta).unwrap();
//! assert_eq!(summary.replicas.len(), 1);
//! assert!(summary.to_json().contains("\"goodput\""));
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod campaign;
pub mod generate;
pub mod spec;

pub use arena::{
    run_arena, ArenaOptions, ArenaRow, ArenaRun, ArenaStanding, ArenaTable, ArenaTiming,
};
pub use campaign::{
    run_campaign, run_campaign_opts, AggregateSummary, CampaignError, CampaignOptions,
    CampaignRun, CampaignSummary, QuantileSummary, ReplicaSummary,
};
pub use generate::{
    generate, AppKind, GeneratedNode, GeneratedScenario, WorkloadEvent, INSTANCE_ID_STRIDE,
};
pub use spec::{
    LinkSpec, NodeSpec as ScenarioNodeSpec, ScenarioSpec, SpecError, TopologySpec, WorkloadSpec,
};
