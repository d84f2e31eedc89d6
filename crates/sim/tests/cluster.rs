//! The real replication kernel under the DES clock: what the deleted
//! `partition` / `failover` re-models and the deleted TCP chaos matrix
//! asserted of themselves, asserted of [`corona_replication`] — plus
//! determinism, replay, the defect-(ii) regression, the real stall
//! watchdog, and a fixed slice of the sweep.

use corona_health::WatchdogConfig;
use corona_sim::{run, run_with, scenario, Action, Outcome, Scenario, SCENARIOS};
use corona_transport::NemesisEvent;

const MS: u64 = 1000;
/// How long after `flapping`'s last heal a write must reach everyone:
/// its base timeout, the lease.
const SETTLE_MS: u64 = 150;

fn ok(name: &str, seed: u64) -> Outcome {
    let outcome = run(&scenario(name, seed).unwrap(), seed);
    outcome.unwrap_or_else(|failure| panic!("{name}: {failure}"))
}

#[test]
fn minority_coordinator_fences_and_sequences_nothing_after() {
    // Cut off at 180..182 ms, 250 ms lease, 15 ms ticks; healed at 900.
    let outcome = ok("partition_heal", 1);
    let s1 = &outcome.servers[0];
    let fenced_at = s1.fenced_at.expect("the minority coordinator fences");
    assert!((180 * MS..900 * MS).contains(&fenced_at), "{s1:?}");
    assert!(fenced_at <= (182 + 250 + 2 * 30) * MS, "{s1:?}");
    assert!(s1.ops.iter().any(|e| e.kind == "quorum_lost"), "{s1:?}");
    // "Sequences nothing while fenced" is checked after every event of
    // the run; what it was offered meanwhile it refused out loud, and
    // its writer was told so.
    assert!(s1.rejected > 0, "{s1:?}");
    assert!(outcome.unavailable[0] > 0, "{:?}", outcome.unavailable);
}

#[test]
fn fence_precedes_election_when_lease_is_shorter() {
    // s3 waits two base timeouts (rank 1: s2 is dead), the lease is one.
    for seed in 1..=20 {
        let servers = ok("fence_before_elect", seed).servers;
        let (fenced_at, elected_at) = (servers[0].fenced_at, servers[2].elected_at);
        assert!(elected_at.is_some(), "s3 wins: {servers:?}");
        assert!(fenced_at.is_some() && fenced_at < elected_at, "{servers:?}");
    }
}

#[test]
fn divergent_suffix_is_discarded_on_heal_and_views_converge() {
    for seed in 1..=20 {
        let outcome = ok("partition_heal", seed);
        let (s1, s2) = (&outcome.servers[0], &outcome.servers[1]);
        // Counted by its `divergence_repaired` ops event.
        assert!(s1.discarded > 0, "the lease window admits a suffix: {s1:?}");
        // The majority elected s2, and s1 follows it, unfenced.
        assert!(s2.elected_at.is_some(), "{s2:?}");
        let status = s1.status.as_ref().unwrap();
        assert!(!status.is_coordinator && !status.fenced, "{status:?}");
        assert_eq!(status.coordinator, s2.status.as_ref().map(|s| s.me));
        // The run required one gap-free view of every client; the
        // minority's client got there by retraction, the majority's saw
        // none.
        assert_eq!(outcome.views[0], outcome.views[1]);
        assert!(
            outcome.raw[0].len() > outcome.views[0].len(),
            "c0 saw the stale suffix replaced"
        );
        assert_eq!(
            outcome.raw[1].len(),
            outcome.views[1].len(),
            "c1 saw no retraction"
        );
    }
}

/// Whoever coordinates is cut off three times: three elections, three
/// heals, and every client's writes after the last heal — once the
/// cluster has had a lease to settle — are in the one converged view.
#[test]
fn flapping_partitions_elect_three_times_and_converge() {
    for seed in 1..=20 {
        let script = scenario("flapping", seed).unwrap().script;
        let heal =
            |(at, a): &(u64, Action)| matches!(a, Action::Fault(NemesisEvent::Heal)).then_some(*at);
        let settled = script.iter().filter_map(heal).max().unwrap() + SETTLE_MS * MS;
        let outcome = ok("flapping", seed);
        for server in &outcome.servers {
            let status = server.status.as_ref().unwrap();
            assert!(
                status.epoch.0 >= 3 && !status.fenced,
                "seed {seed}: {status:?}"
            );
        }
        for what in ["partitions", "heals"] {
            let injected = outcome.nemesis.counter(&format!("server.nemesis.{what}"));
            assert!(injected >= 3, "seed {seed}: {injected} {what}");
        }
        // The harness's payload for `Broadcast(c, tag)`.
        let late = script.iter().filter_map(|(at, a)| match a {
            Action::Broadcast(c, tag) if *at > settled => Some(format!("c{c}-{tag};")),
            _ => None,
        });
        for payload in late {
            let viewed = outcome.views[0].iter().any(|(_, p)| *p == payload);
            assert!(
                viewed,
                "seed {seed}: {payload} lost: {:?}",
                outcome.views[0]
            );
        }
    }
}

/// Duplicates and reorders on every peer link cost nobody the quorum
/// lease, and every client is handed each of the 24 updates once.
#[test]
fn a_duplicate_reorder_storm_keeps_every_stream_exact() {
    for seed in 1..=20 {
        let outcome = ok("storm", seed);
        for server in &outcome.servers {
            assert_eq!(server.fenced_at, None, "seed {seed}: {server:?}");
        }
        for what in ["duplicated", "reordered"] {
            let injected = outcome.nemesis.counter(&format!("server.nemesis.{what}"));
            assert!(injected > 0, "seed {seed}: the storm {what} nothing");
        }
        for (raw, view) in outcome.raw.iter().zip(&outcome.views) {
            assert_eq!(view.len(), 24, "seed {seed}: {view:?}");
            assert_eq!(raw.len(), view.len(), "seed {seed}: a duplicate: {raw:?}");
        }
    }
}

/// Deafness, not a partition: the coordinator fences in place and is
/// never replaced, and regains its lease on the heal.
#[test]
fn a_deaf_coordinator_fences_without_an_election_and_regains_its_lease() {
    for seed in 1..=20 {
        let outcome = ok("asymmetric", seed);
        let servers = &outcome.servers;
        let s1 = &servers[0];
        assert!(s1.fenced_at.is_some(), "{s1:?}");
        for server in servers {
            assert_eq!(server.elected_at, None, "{server:?}");
            let status = server.status.as_ref().unwrap();
            assert_eq!(status.epoch.0, 0, "{server:?}");
        }
        let kinds: Vec<&str> = s1.ops.iter().map(|e| e.kind).collect();
        let lost = kinds.iter().position(|k| *k == "quorum_lost");
        let regained = kinds.iter().rposition(|k| *k == "quorum_regained");
        assert!(lost.is_some() && lost < regained, "{kinds:?}");
        assert!(!s1.status.as_ref().unwrap().fenced, "{s1:?}");
    }
}

#[test]
fn blip_shorter_than_the_election_timeout_merges_back_with_zero_discards() {
    let outcome = ok("blip", 1);
    for server in &outcome.servers {
        assert_eq!(
            (server.discarded, server.elected_at),
            (0, None),
            "{server:?}"
        );
    }
    assert_eq!(outcome.views[0], outcome.views[1]);
}

#[test]
fn coordinator_crash_then_resume_with_updates_since_is_each_update_once_in_order() {
    let outcome = ok("failover", 1);
    let n = outcome.views[1].len() as u64;
    assert!(n > 40, "the stream went on past the crash: {n}");
    let handed: Vec<u64> = outcome.raw[0].iter().map(|(seq, _)| *seq).collect();
    assert_eq!(
        handed,
        (1..=n).collect::<Vec<_>>(),
        "live, then the catch-up, then live"
    );
    assert_eq!(
        outcome.applied[0], handed,
        "and the mirror applied each once"
    );
}

/// The same crash with a client that fails over by itself: nothing in
/// the script reconnects it after the kill, yet its session walks its
/// candidates with its seeded backoff, resumes on a survivor, and is
/// handed every update once, in order — as the writer saw them.
#[test]
fn a_supervised_session_resumes_on_a_survivor_with_no_scripted_connect() {
    for seed in 1..=20 {
        let script = scenario("client_failover", seed).unwrap().script;
        let kill = script.iter().find(|(_, a)| matches!(a, Action::Kill(_)));
        let kill = kill.expect("the coordinator dies").0;
        let connects = |(at, a): &&(u64, Action)| *at > kill && matches!(a, Action::Connect(..));
        assert_eq!(script.iter().filter(connects).count(), 0);

        let outcome = ok("client_failover", seed);
        assert_eq!(outcome.reconnects[0], 1, "seed {seed}: one resume");
        let n = outcome.views[1].len() as u64;
        assert!(n > 40, "the stream went on past the crash: {n}");
        let handed: Vec<u64> = outcome.raw[0].iter().map(|(seq, _)| *seq).collect();
        assert_eq!(handed, (1..=n).collect::<Vec<_>>(), "seed {seed}");
        assert_eq!(outcome.applied[0], handed, "seed {seed}");
        assert_eq!(outcome.views[0], outcome.views[1], "seed {seed}");
    }
}

#[test]
fn a_run_is_a_pure_function_of_scenario_and_seed() {
    for name in SCENARIOS {
        let hash = |seed| run(&scenario(name, seed).unwrap(), seed).map(|o| o.trace_hash);
        assert_eq!(hash(7), hash(7), "{name}");
        assert_ne!(hash(7), hash(8), "{name}: the seed moves the schedule");
    }
}

#[test]
fn a_broken_invariant_prints_a_schedule_that_replays_to_the_same_failure() {
    let fifth = |_: usize, raw: &[(u64, String)]| match raw.last() {
        Some((5, _)) => Err("nobody may be handed update 5".to_string()),
        _ => Ok(()),
    };
    let failure = run_with(&scenario("storm", 3).unwrap(), 3, &fifth).unwrap_err();
    let printed = failure.to_string();
    assert!(
        printed.starts_with("seed 3: at ") && printed.contains("update 5"),
        "{printed}"
    );
    assert!(printed.contains("us  Broadcast(") && printed.contains("us  Fault(SetLinkFaults"));
    // From the seed alone.
    let replayed = run_with(
        &scenario("storm", failure.seed).unwrap(),
        failure.seed,
        &fifth,
    );
    assert_eq!(replayed.unwrap_err(), failure);
}

/// Defect (ii): `Sequenced(2)` ahead of `Sequenced(1)` on a server that
/// has only just started hosting the group. With the `None` arms of
/// `ReplicaCore::sequenced` as they were, this seed hands c1 update 4
/// after 2 (and 1732 of the first 2000 seeds fail some such way).
#[test]
fn a_reordered_update_is_not_fanned_out_past_a_gap_on_a_fresh_host() {
    ok("fresh_host_reorder", 1);
}

/// `tests/health_stack.rs`'s coordinator kill in virtual time: a client
/// on s2 broadcasts every 20 ms, s1 dies, and no election resolves
/// inside the window, so s2's own watchdog sees submissions and no
/// sequencing. Polls come every tick (15 ms); the last progress s2 saw
/// was at the 285 ms poll, after the 280 ms broadcast's round trip.
#[test]
fn a_killed_coordinator_trips_the_real_stall_watchdog_at_an_exact_virtual_millisecond() {
    const KILL_MS: u64 = 290;
    let mut script = vec![
        (MS, Action::Connect(0, 2)),
        (3 * MS, Action::Create(0)),
        (5 * MS, Action::Join(0)),
        (KILL_MS * MS, Action::Kill(1)),
    ];
    script.extend((1..50).map(|k| (20 * k * MS, Action::Broadcast(0, k as u32))));
    script.sort_by_key(|(at, _)| *at);
    let scenario = Scenario {
        servers: 3,
        base_timeout_ms: 5_000,
        script,
        end: 1_000 * MS,
        converges: false,
        min_epoch: 0,
    };
    let stall_at = || {
        let outcome = run(&scenario, 1).unwrap_or_else(|failure| panic!("{failure}"));
        let ops = &outcome.servers[1].ops;
        ops.iter()
            .find(|e| e.kind == "sequencing_stall")
            .map(|e| e.at_ms)
    };
    let at = stall_at().expect("s2's watchdog trips");
    assert_eq!(
        stall_at(),
        Some(at),
        "the same virtual millisecond each run"
    );
    let stall_after = WatchdogConfig::default().stall_after_ms;
    let window = KILL_MS + stall_after..=KILL_MS + stall_after + 15;
    assert!(
        window.contains(&at),
        "tripped at {at} ms, not in {window:?}"
    );
}

/// The debug build's share of `sweep all`: every invariant holds on a
/// hundred seeds of every scenario, and every expectation on those
/// that are not hunting a known loss.
#[test]
fn a_hundred_seeds_of_every_scenario_break_no_invariant() {
    for name in SCENARIOS {
        for seed in 1..=100 {
            let outcome = ok(name, seed);
            assert!(name.starts_with("hunt_") || outcome.unmet.is_empty());
        }
    }
}
