//! The scheduler arena: every registered migration policy, head to
//! head over a scenario corpus.
//!
//! [`run_arena`] runs one campaign per `(policy, scenario)` pair
//! through the constant-memory campaign runner and folds the results
//! into an [`ArenaTable`]: one row per pair (user-experience
//! aggregates, migration counts) plus a cross-scenario ranking by mean
//! goodput fraction — the paper's user-experience proxy.
//!
//! Determinism contract (the same one the campaign runner carries):
//! the table's [`to_json`](ArenaTable::to_json) and
//! [`to_text`](ArenaTable::to_text) bytes are a function of
//! `(corpus, seed, policies, engine, step settings)` only — identical
//! for any `--jobs` value and across allocation engines' bit-identical
//! backends. Wall-clock throughput
//! (ticks/second) is measured too, but lives in the separate
//! [`ArenaTiming`] records and the
//! [`to_text_with_timing`](ArenaTable::to_text_with_timing) /
//! [`to_json_with_timing`](ArenaTable::to_json_with_timing)
//! renderings so the deterministic
//! table bytes never move (the golden snapshot under `tests/golden/`
//! compares `to_json` only).

use crate::campaign::{run_campaign_opts, CampaignError, CampaignOptions};
use crate::spec::ScenarioSpec;
use bass_core::PolicyKind;
use serde::Serialize;
use std::fmt::Write as _;

/// How to run an arena tournament: which policies compete and how each
/// underlying campaign executes.
#[derive(Debug, Clone)]
pub struct ArenaOptions {
    /// The competing policies, in presentation order. Empty means the
    /// full registry ([`PolicyKind::all`]).
    pub policies: Vec<PolicyKind>,
    /// Campaign execution settings shared by every entry; the
    /// [`policy`](CampaignOptions::policy) field is overridden per
    /// entry and ignored here.
    pub campaign: CampaignOptions,
}

impl Default for ArenaOptions {
    fn default() -> Self {
        ArenaOptions { policies: PolicyKind::all().to_vec(), campaign: CampaignOptions::default() }
    }
}

/// One `(policy, scenario)` entry of the tournament.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArenaRow {
    /// Policy registry name.
    pub policy: String,
    /// Scenario name from its spec.
    pub scenario: String,
    /// Mean goodput fraction across all replica samples (the
    /// user-experience aggregate the ranking sorts on).
    pub mean_goodput: f64,
    /// Median goodput fraction.
    pub p50_goodput: f64,
    /// 95th-percentile goodput fraction.
    pub p95_goodput: f64,
    /// Mean achieved bandwidth, Mbps.
    pub mean_achieved_mbps: f64,
    /// Migrations executed across all replicas.
    pub migrations: u64,
    /// Migration candidates with no feasible target, across replicas.
    pub unplaceable: u64,
    /// Ticks simulated across all replicas.
    pub ticks: u64,
}

/// One policy's cross-scenario standing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArenaStanding {
    /// 1-based rank (1 = best mean goodput).
    pub rank: usize,
    /// Policy registry name.
    pub policy: String,
    /// Unweighted mean of the policy's per-scenario mean goodputs.
    pub mean_goodput: f64,
    /// Total migrations across every scenario.
    pub migrations: u64,
}

/// The deterministic tournament result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArenaTable {
    /// Tournament seed (each campaign runs with it).
    pub seed: u64,
    /// Allocation engine label.
    pub engine: String,
    /// Scenario names, in corpus order.
    pub scenarios: Vec<String>,
    /// One row per `(policy, scenario)`, policies in presentation
    /// order, scenarios in corpus order within each policy.
    pub rows: Vec<ArenaRow>,
    /// Cross-scenario ranking, best first.
    pub ranking: Vec<ArenaStanding>,
}

/// Wall-clock throughput of one `(policy, scenario)` campaign. Never
/// part of the deterministic table bytes.
#[derive(Debug, Clone, Serialize)]
pub struct ArenaTiming {
    /// Policy registry name.
    pub policy: String,
    /// Scenario name.
    pub scenario: String,
    /// Simulated ticks per wall-clock second over the whole campaign.
    pub ticks_per_sec: f64,
}

/// A finished tournament: the deterministic table plus its wall-clock
/// timings, parallel to [`ArenaTable::rows`].
#[derive(Debug, Clone)]
pub struct ArenaRun {
    /// The deterministic comparison table.
    pub table: ArenaTable,
    /// Per-row wall-clock throughput, same order as `table.rows`.
    pub timings: Vec<ArenaTiming>,
}

impl ArenaTable {
    /// Pretty JSON rendering; byte-identical for any job count.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("arena table serializes")
    }

    /// [`to_json`](Self::to_json) with a `timing` section appended as
    /// the final top-level key — spliced textually so the
    /// deterministic table stays a byte-exact prefix (the same
    /// contract as `CampaignSummary::to_json_with_profile`).
    pub fn to_json_with_timing(&self, timings: &[ArenaTiming]) -> String {
        let base = self.to_json();
        let timing_json = serde_json::to_string_pretty(timings).expect("timings serialize");
        let indented = timing_json
            .lines()
            .enumerate()
            .map(|(i, line)| if i == 0 { line.to_string() } else { format!("  {line}") })
            .collect::<Vec<_>>()
            .join("\n");
        let body = base
            .trim_end()
            .strip_suffix('}')
            .expect("pretty table ends with a closing brace")
            .trim_end();
        format!("{body},\n  \"timing\": {indented}\n}}")
    }

    /// The ranked comparison table as fixed-width text; deterministic.
    pub fn to_text(&self) -> String {
        self.render_text(None)
    }

    /// [`to_text`](Self::to_text) with a trailing wall-clock ticks/s
    /// column (non-deterministic; for terminals, not goldens).
    pub fn to_text_with_timing(&self, timings: &[ArenaTiming]) -> String {
        self.render_text(Some(timings))
    }

    fn render_text(&self, timings: Option<&[ArenaTiming]>) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "arena: seed {} · engine {}", self.seed, self.engine);
        let _ = writeln!(
            out,
            "{:<22} {:<18} {:>9} {:>9} {:>9} {:>10} {:>11} {:>12}{}",
            "policy",
            "scenario",
            "gp-mean",
            "gp-p50",
            "gp-p95",
            "mbps-mean",
            "migrations",
            "unplaceable",
            if timings.is_some() { format!(" {:>9}", "ticks/s") } else { String::new() },
        );
        for (i, r) in self.rows.iter().enumerate() {
            let timing = timings
                .and_then(|t| t.get(i))
                .map(|t| format!(" {:>9.0}", t.ticks_per_sec))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{:<22} {:<18} {:>9.4} {:>9.4} {:>9.4} {:>10.2} {:>11} {:>12}{}",
                r.policy,
                r.scenario,
                r.mean_goodput,
                r.p50_goodput,
                r.p95_goodput,
                r.mean_achieved_mbps,
                r.migrations,
                r.unplaceable,
                timing,
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<5} {:<22} {:>9} {:>11}",
            "rank", "policy", "gp-mean", "migrations"
        );
        for s in &self.ranking {
            let _ = writeln!(
                out,
                "{:<5} {:<22} {:>9.4} {:>11}",
                s.rank, s.policy, s.mean_goodput, s.migrations
            );
        }
        out
    }

    /// The standing of `policy`, if it competed.
    pub fn standing(&self, policy: &str) -> Option<&ArenaStanding> {
        self.ranking.iter().find(|s| s.policy == policy)
    }
}

/// Runs the tournament: every policy in `opts.policies` over every
/// spec in `corpus`, each entry a full campaign at `seed`. Policies
/// run in presentation order and scenarios in corpus order, so the
/// table layout — like its bytes — is reproducible.
///
/// # Errors
///
/// Fails on an empty corpus, an invalid spec, or any campaign failure
/// ([`CampaignError`]).
pub fn run_arena(
    corpus: &[ScenarioSpec],
    seed: u64,
    opts: &ArenaOptions,
) -> Result<ArenaRun, CampaignError> {
    if corpus.is_empty() {
        return Err(CampaignError::Spec(crate::spec::SpecError::new("arena corpus is empty")));
    }
    // Duplicates would double-count the ranking; first mention wins.
    let mut policies: Vec<PolicyKind> =
        if opts.policies.is_empty() { PolicyKind::all().to_vec() } else { opts.policies.clone() };
    let mut seen = Vec::new();
    policies.retain(|p| {
        let fresh = !seen.contains(&p.name());
        seen.push(p.name());
        fresh
    });

    let mut rows = Vec::with_capacity(policies.len() * corpus.len());
    let mut timings = Vec::with_capacity(rows.capacity());
    for &policy in &policies {
        for spec in corpus {
            let copts = CampaignOptions { policy, ..opts.campaign };
            let started = std::time::Instant::now();
            let run = run_campaign_opts(spec, seed, &copts)?;
            let elapsed = started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
            let agg = &run.summary.aggregate;
            rows.push(ArenaRow {
                policy: policy.name().to_string(),
                scenario: run.summary.scenario.clone(),
                mean_goodput: agg.goodput.mean,
                p50_goodput: agg.goodput.p50,
                p95_goodput: agg.goodput.p95,
                mean_achieved_mbps: agg.mean_achieved_mbps,
                migrations: agg.migrations,
                unplaceable: agg.unplaceable,
                ticks: agg.ticks,
            });
            timings.push(ArenaTiming {
                policy: policy.name().to_string(),
                scenario: run.summary.scenario.clone(),
                ticks_per_sec: agg.ticks as f64 / elapsed,
            });
        }
    }

    // Cross-scenario standing: unweighted mean of per-scenario mean
    // goodputs, descending; name as the deterministic tie-break.
    let mut ranking: Vec<ArenaStanding> = policies
        .iter()
        .map(|p| {
            let mine: Vec<&ArenaRow> =
                rows.iter().filter(|r| r.policy == p.name()).collect();
            let mean = mine.iter().map(|r| r.mean_goodput).sum::<f64>() / mine.len() as f64;
            ArenaStanding {
                rank: 0,
                policy: p.name().to_string(),
                mean_goodput: mean,
                migrations: mine.iter().map(|r| r.migrations).sum(),
            }
        })
        .collect();
    ranking.sort_by(|a, b| {
        b.mean_goodput
            .partial_cmp(&a.mean_goodput)
            .expect("finite goodputs")
            .then_with(|| a.policy.cmp(&b.policy))
    });
    for (i, s) in ranking.iter_mut().enumerate() {
        s.rank = i + 1;
    }

    let table = ArenaTable {
        seed,
        engine: crate::campaign::engine_label(opts.campaign.engine).to_string(),
        scenarios: corpus.iter().map(|s| s.name.clone()).collect(),
        rows,
        ranking,
    };
    Ok(ArenaRun { table, timings })
}
