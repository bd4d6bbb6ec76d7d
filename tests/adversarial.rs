//! Adversarial workload suite (PR 10): each overload preset as a
//! deterministic schedule against a quota-protected deployment.
//!
//! The properties pinned down here are the overload-protection contract:
//!
//! * **Honest isolation** — quotas are per-client, and the adversary is its
//!   own registered identity, so its flooding exhausts only its own bucket:
//!   every honest add still confirms (commits into a proven epoch) within
//!   the run's drain window, and no honest client is ever told to back off.
//! * **Full attribution** — nothing is shed silently: every dropped element
//!   shows up in the per-cause counters, and the server-side totals agree
//!   between the quota state and the server stats.
//! * **Determinism** — the quota is integer arithmetic over simulated time
//!   and the attack driver draws only from its own seeded RNG, so same-seed
//!   attack runs replay bit-for-bit; and a quota that never sheds sends no
//!   messages and consumes nothing, so a quota-on honest run is
//!   schedule-identical to the pre-quota pipeline.

use std::collections::BTreeSet;

use setchain::{Algorithm, Element, ElementId, QuotaConfig};
use setchain_simnet::{SimDuration, SimTime};
use setchain_workload::{check_setchain_invariants, Adversary, Deployment};

/// Simulated horizon of every run: injection (and the attack) stop at 3 s,
/// the rest is drain time for batches, blocks and proof quorums.
const RUN_SECS: u64 = 14;

/// A small quota-protected deployment: 4 servers, 100 el/s per honest
/// client — far below the default 2 000 el/s bucket, so honest traffic is
/// never shed — and plenty of drain time.
fn protected_deployment(adversary: Option<Adversary>, seed: u64) -> Deployment {
    let mut builder = Deployment::builder(Algorithm::Hashchain)
        .servers(4)
        .rate(400.0)
        .collector(32)
        .injection_secs(3)
        .max_run_secs(RUN_SECS)
        .seed(seed)
        .quota(QuotaConfig::new());
    if let Some(preset) = adversary {
        builder = builder.adversary(preset);
    }
    builder.build()
}

fn run(deployment: &mut Deployment) {
    deployment.sim.run_until(SimTime::from_secs(RUN_SECS));
}

/// Sum of quota sheds over all servers, cross-checked between the quota
/// state's per-cause counters and the server stats — the "fully attributed"
/// half of the acceptance criteria.
fn attributed_sheds(deployment: &Deployment) -> u64 {
    let mut total = 0;
    for i in 0..4 {
        let server = deployment.server(i);
        let from_stats = server.stats().adds_rejected_quota;
        let from_quota = server
            .quota()
            .map(|q| q.shed_rate() + q.shed_pending())
            .unwrap_or(0);
        assert_eq!(
            from_stats, from_quota,
            "server {i}: quota-state sheds and stats disagree"
        );
        total += from_stats;
    }
    total
}

#[test]
fn every_preset_keeps_honest_clients_whole() {
    for preset in Adversary::ALL {
        let mut deployment = protected_deployment(Some(preset), 5001);
        run(&mut deployment);

        let added = deployment.trace.added_count();
        let committed = deployment
            .trace
            .honest_committed_count_by(SimTime::from_secs(RUN_SECS));
        assert!(added > 0, "{preset}: honest clients injected nothing");
        assert_eq!(
            committed, added,
            "{preset}: honest adds failed to confirm within the drain window"
        );
        assert_eq!(
            deployment.honest_rejections(),
            0,
            "{preset}: an honest client was told to back off"
        );

        let sheds = attributed_sheds(&deployment);
        let adversary = deployment.adversary().expect("attack client installed");
        assert!(adversary.sent() > 0, "{preset}: the attack never fired");
        match preset {
            // High-rate presets must actually trip the rate limit — and the
            // attacker observes its sheds as `Rejected` replies (one per
            // refused submission, so replies count messages, sheds count
            // elements).
            Adversary::FloodClient | Adversary::HotKeySkew | Adversary::ReplayStorm => {
                assert!(sheds > 0, "{preset}: the quota never shed anything");
                assert!(
                    adversary.rejected_replies() > 0,
                    "{preset}: the attacker never saw a Rejected reply"
                );
            }
            // Mass onboarding: one network source registering hundreds of
            // fresh signing identities. Its 200 el/s fits the source's own
            // bucket (nothing sheds), quota state — keyed by the
            // authenticated network source, not the element signer — stays
            // at exactly two entries on the target (its honest client and
            // the attack process), and every fresh signer costs the server
            // a cold admission probe.
            Adversary::ChurnStorm => {
                assert_eq!(sheds, 0, "churn stays under its source's bucket");
                let target = deployment.server(0);
                let clients = target.quota().expect("quota enabled").clients();
                assert_eq!(clients, 2, "churn must not bloat source-keyed quota state");
                let misses = target.core().admission_cache().misses();
                assert!(
                    misses >= adversary.sent(),
                    "{} fresh signers should each miss the admission cache \
                     (misses={misses})",
                    adversary.sent()
                );
            }
            _ => unreachable!("ALL covers every preset"),
        }
        check_setchain_invariants(&deployment)
            .unwrap_or_else(|e| panic!("{preset}: Setchain properties: {e}"));
    }
}

/// A replay storm re-sends one fixed 64-element `AddBatch`. Whatever the
/// quota lets through is absorbed by admission dedup: the target accepts the
/// 64 elements once and refuses every later copy as a duplicate, and every
/// server verifies each replayed element's MAC exactly once, as it does for
/// each honest element.
#[test]
fn replay_storm_costs_each_server_64_macs_once() {
    const REPLAY_BATCH: u64 = 64;
    let mut deployment = protected_deployment(Some(Adversary::ReplayStorm), 5001);
    run(&mut deployment);

    let sent = deployment
        .adversary()
        .expect("attack client installed")
        .sent();
    let target = deployment.server(0).stats();
    let shed = target.adds_rejected_quota;
    assert!(shed > 0, "the quota never metered the storm");
    assert_eq!(
        target.adds_rejected_duplicate,
        sent - shed - REPLAY_BATCH,
        "every admitted copy after the first is a duplicate"
    );
    let honest = deployment.trace.added_count() as u64;
    for i in 0..4 {
        let misses = deployment.server(i).core().admission_cache().misses();
        assert_eq!(
            misses,
            honest + REPLAY_BATCH,
            "server {i}: one MAC per honest element and per replayed element"
        );
    }
    check_setchain_invariants(&deployment).unwrap_or_else(|e| panic!("replay storm: {e}"));
}

#[test]
fn flood_goodput_stays_within_envelope_of_attack_free_twin() {
    // The bench grid's acceptance envelope, in the simulated domain: the
    // honest workload is seeded independently of the adversary, so the twin
    // runs inject identical elements, and per-client quotas keep the flood
    // from displacing any of them — honest goodput under attack is not just
    // within 25% of the attack-free twin, it is element-for-element equal.
    let mut attacked = protected_deployment(Some(Adversary::FloodClient), 5002);
    let mut calm = protected_deployment(None, 5002);
    run(&mut attacked);
    run(&mut calm);

    let horizon = SimTime::from_secs(RUN_SECS);
    assert_eq!(attacked.trace.added_count(), calm.trace.added_count());
    let under_attack = attacked.trace.honest_committed_count_by(horizon);
    let attack_free = calm.trace.honest_committed_count_by(horizon);
    assert_eq!(attack_free, calm.trace.added_count());
    assert_eq!(
        under_attack, attack_free,
        "the flood displaced honest commits"
    );
    assert!(
        under_attack as f64 >= 0.75 * attack_free as f64,
        "goodput envelope violated: {under_attack} vs {attack_free}"
    );
    assert!(attributed_sheds(&attacked) > 0);
    assert_eq!(attributed_sheds(&calm), 0);
    for deployment in [&attacked, &calm] {
        check_setchain_invariants(deployment).expect("Setchain properties");
    }
}

/// The runner's committed count, its stop rule and its efficiency measure
/// the honest workload alone: the flood's admitted elements are stamped and
/// committed too, but were never added by a traced client, so counting them
/// would end the run before the honest elements commit and report an
/// efficiency above 1.
#[test]
fn runner_counts_honest_commits_only_under_a_flood() {
    let result = Deployment::builder(Algorithm::Hashchain)
        .servers(4)
        .rate(400.0)
        .collector(32)
        .injection_secs(4)
        .max_run_secs(40)
        .seed(5005)
        .quota(QuotaConfig::new())
        .adversary(Adversary::FloodClient)
        .run();
    let trace = &result.deployment.trace;
    assert_eq!(result.added, trace.added_count() as u64);
    assert!(
        result.committed <= result.added,
        "committed {} > added {}",
        result.committed,
        result.added
    );
    assert!(
        result.final_efficiency() <= 1.0,
        "efficiency {}",
        result.final_efficiency()
    );
    assert_eq!(
        result.committed,
        trace.honest_committed_count_by(result.finished_at) as u64
    );
    // The flood's elements did commit: the raw count is larger.
    assert!(trace.committed_count_by(result.finished_at) as u64 > result.committed);
    check_setchain_invariants(&result.deployment).expect("Setchain properties");
}

/// Fingerprint of an attack run: enough to detect any divergence — event
/// counts, honest totals, per-cause sheds, the attacker's own view, and
/// every server's full epoch history.
#[derive(Debug, PartialEq, Eq)]
struct AttackFingerprint {
    events_processed: u64,
    added: usize,
    committed: usize,
    sheds: Vec<(u64, u64)>,
    attacker_sent: u64,
    attacker_rejected: u64,
    epochs: Vec<Vec<BTreeSet<ElementId>>>,
}

fn attack_fingerprint(preset: Adversary, seed: u64) -> AttackFingerprint {
    let mut deployment = protected_deployment(Some(preset), seed);
    run(&mut deployment);
    check_setchain_invariants(&deployment).expect("Setchain properties");
    let adversary = deployment.adversary().expect("attack client installed");
    let (attacker_sent, attacker_rejected) = (adversary.sent(), adversary.rejected_replies());
    let epochs = (0..4)
        .map(|i| {
            let state = deployment.server(i).state();
            (1..=state.epoch())
                .map(|e| {
                    state
                        .epoch_elements(e)
                        .expect("epoch in range")
                        .iter()
                        .map(|el| el.id)
                        .collect()
                })
                .collect()
        })
        .collect();
    AttackFingerprint {
        events_processed: deployment.sim.events_processed(),
        added: deployment.trace.added_count(),
        committed: deployment
            .trace
            .honest_committed_count_by(SimTime::from_secs(RUN_SECS)),
        sheds: (0..4)
            .map(|i| {
                let q = deployment.server(i).quota().expect("quota enabled");
                (q.shed_rate(), q.shed_pending())
            })
            .collect(),
        attacker_sent,
        attacker_rejected,
        epochs,
    }
}

#[test]
fn same_seed_attack_runs_are_bit_identical() {
    for preset in [Adversary::FloodClient, Adversary::ReplayStorm] {
        let first = attack_fingerprint(preset, 5003);
        let second = attack_fingerprint(preset, 5003);
        assert_eq!(
            first, second,
            "{preset}: an attack schedule must replay bit-for-bit under the same seed"
        );
        assert!(first.attacker_sent > 0);
    }
}

#[test]
fn quota_on_honest_run_is_schedule_identical_to_quota_off() {
    // The off-by-default contract, from the other side: a quota that never
    // sheds probes pure state — no message, no CPU charge, no RNG draw — so
    // turning quotas on under an honest workload must not move a single
    // event. This is what keeps every pre-quota deterministic suite and
    // bench baseline byte-identical.
    let build = |quota: bool| {
        let mut builder = Deployment::builder(Algorithm::Hashchain)
            .servers(4)
            .rate(400.0)
            .collector(32)
            .injection_secs(3)
            .max_run_secs(RUN_SECS)
            .seed(5004);
        if quota {
            builder = builder.quota(QuotaConfig::new());
        }
        builder.build()
    };
    let mut with_quota = build(true);
    let mut without = build(false);
    run(&mut with_quota);
    run(&mut without);

    assert_eq!(
        with_quota.sim.events_processed(),
        without.sim.events_processed(),
        "quota probes perturbed the event schedule"
    );
    assert_eq!(with_quota.trace.added_count(), without.trace.added_count());
    let horizon = SimTime::from_secs(RUN_SECS);
    assert_eq!(
        with_quota.trace.honest_committed_count_by(horizon),
        without.trace.honest_committed_count_by(horizon)
    );
    assert_eq!(attributed_sheds(&with_quota), 0);
    for deployment in [&with_quota, &without] {
        check_setchain_invariants(deployment).expect("Setchain properties");
    }
    // The checker compares servers within one deployment; this compares
    // each server with its twin.
    for i in 0..4 {
        assert!(
            with_quota
                .server(i)
                .state()
                .check_consistent_with(without.server(i).state()),
            "server {i}: quota-on state diverged from quota-off"
        );
    }
}

/// What one server concluded in an id-placement run, with the scripted
/// client's ids replaced by their position in the script so twin runs that
/// differ only in those ids can be compared.
#[derive(Debug, PartialEq, Eq)]
struct PlacementView {
    stats: setchain::ServerStats,
    hits: u64,
    misses: u64,
    /// Per epoch, per element: the script position, or the id itself for
    /// the injection clients' elements (the same in both runs).
    epochs: Vec<Vec<Result<usize, ElementId>>>,
}

/// Client index of the scripted client in [`placement_run`]: the first free
/// one after the four injection clients and the (absent) attacker slot, so
/// its ids pass the element index's row-table rule.
const SCRIPTED_CLIENT: u32 = 5;

/// Every server's `(the_set, admission cache)` entry counts in the element
/// index's hash fallback.
fn fallback_lens(deployment: &Deployment) -> Vec<(usize, usize)> {
    (0..4)
        .map(|i| {
            let server = deployment.server(i);
            (
                server.state().index_fallback_len(),
                server.core().admission_cache().fallback_len(),
            )
        })
        .collect()
}

/// Runs the honest workload plus one registered client that submits 48
/// elements — valid and forged alternating, each sent to two servers — under
/// the ids `id_of` assigns, and returns every server's view and
/// [`fallback_lens`].
fn placement_run(id_of: impl Fn(u64) -> ElementId) -> (Vec<PlacementView>, Vec<(usize, usize)>) {
    const SCRIPTED: u64 = 48;
    let mut deployment = protected_deployment(None, 5005);
    let mut session = deployment.client_session(SCRIPTED_CLIENT as usize, 777);
    let ids: Vec<ElementId> = (0..SCRIPTED).map(&id_of).collect();
    for (k, id) in ids.iter().enumerate() {
        let element = if k % 2 == 0 {
            Element::new(session.keys(), *id, 438, 9000 + k as u64)
        } else {
            Element::forged(session.id(), *id, 300)
        };
        let at = SimTime::from_millis(400 + 40 * k as u64);
        session.add_element(at, k % 4, element);
        // The re-send probes the verdict a peer may already hold.
        session.add_element(at + SimDuration::from_millis(700), (k + 1) % 4, element);
    }
    session.install(&mut deployment);
    run(&mut deployment);
    check_setchain_invariants(&deployment).expect("Setchain properties");

    let views = (0..4)
        .map(|i| {
            let server = deployment.server(i);
            let cache = server.core().admission_cache();
            let state = server.state();
            for id in ids.iter().step_by(2) {
                assert!(state.in_history(id), "server {i}: valid {id:?} not stamped");
            }
            for id in ids.iter().skip(1).step_by(2) {
                assert!(!state.contains(id), "server {i}: forged {id:?} admitted");
            }
            PlacementView {
                stats: server.stats(),
                hits: cache.hits(),
                misses: cache.misses(),
                epochs: (1..=state.epoch())
                    .map(|e| {
                        state
                            .epoch_elements(e)
                            .expect("epoch in range")
                            .iter()
                            .map(|el| ids.iter().position(|id| *id == el.id).ok_or(el.id))
                            .collect()
                    })
                    .collect(),
            }
        })
        .collect();
    (views, fallback_lens(&deployment))
}

#[test]
fn far_apart_ids_get_the_verdicts_of_their_near_twins() {
    // Ids are chosen by the sender. Where the element index files an id —
    // a row for `(5, k)`, the hash fallback for ids at the far corners of
    // the id space — must not show in any verdict, counter or epoch: the
    // twin runs differ in nothing but the scripted ids.
    let (near, near_fallback) = placement_run(|k| ElementId::new(SCRIPTED_CLIENT, k));
    let (far, far_fallback) = placement_run(|k| match k % 3 {
        0 => ElementId::new(SCRIPTED_CLIENT, (1 << 40) - 1 - k),
        1 => ElementId::new((1 << 24) - 1 - k as u32, k),
        _ => ElementId::new(7_000 * k as u32, 1 << 39),
    });
    // The twins really sit on the two sides: rows, then the fallback.
    assert!(near_fallback.iter().all(|&lens| lens == (0, 0)));
    assert!(far_fallback
        .iter()
        .all(|&(set, cache)| set > 0 && cache > 0));
    assert!(near[0].stats.adds_accepted > 0 && near[0].stats.adds_rejected_invalid > 0);
    assert!(near.iter().all(|view| view.hits > 0 && view.misses > 0));
    assert_eq!(near, far);
}

#[test]
fn quota_shed_flood_ids_stay_in_the_rows() {
    // `hash_flood`'s shape: 5,000 honest el/s make the flood 12,500 el/s
    // against the default 2,000 el/s bucket. Once its burst is spent, the
    // flood's ids are admitted one tick in six, in runs with the shed ticks'
    // ids missing between them — too sparse for rows sized `2·filled + 64`,
    // dense enough per page for the element index's paged rows.
    let mut deployment = Deployment::builder(Algorithm::Hashchain)
        .servers(4)
        .rate(5_000.0)
        .collector(64)
        .injection_secs(3)
        .max_run_secs(RUN_SECS)
        .seed(5006)
        .quota(QuotaConfig::new())
        .adversary(Adversary::FloodClient)
        .build();
    run(&mut deployment);
    assert!(attributed_sheds(&deployment) > 0, "the flood never shed");
    assert!(fallback_lens(&deployment)
        .iter()
        .all(|&lens| lens == (0, 0)));
    check_setchain_invariants(&deployment).expect("Setchain properties");
}
