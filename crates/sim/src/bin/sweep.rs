//! `sweep <scenario|all> <first-seed> <count>`: runs each scenario of
//! [`corona_sim::SCENARIOS`] under `count` consecutive seeds and prints
//! each scenario's counts and wall time, the seeds per second and the
//! first failing schedule. Exits 1 if an invariant broke; what a
//! `hunt_*` scenario finds is printed only.

use corona_sim::{run, scenario, Failure, SCENARIOS};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.as_slice() {
        [which, first, count] => first
            .parse::<u64>()
            .ok()
            .zip(count.parse::<u64>().ok())
            .map(|(first, count)| {
                let wanted = |s: &&str| which == "all" || which == s;
                let names: Vec<&str> = SCENARIOS.into_iter().filter(wanted).collect();
                (names, first, count)
            }),
        _ => None,
    };
    let Some((names, first, count)) = parsed.filter(|(names, ..)| !names.is_empty()) else {
        eprintln!("usage: sweep <scenario|all> <first-seed> <count>; scenarios: {SCENARIOS:?}");
        std::process::exit(2);
    };
    let started = Instant::now();
    let mut broken = 0;
    for name in &names {
        let (mut failed, mut unmet, mut shown) = (0, 0, false);
        let began = Instant::now();
        for seed in first..first + count {
            let scenario = scenario(name, seed).expect("listed scenario");
            let report = match run(&scenario, seed) {
                Ok(outcome) if outcome.unmet.is_empty() => continue,
                Ok(outcome) => {
                    unmet += 1;
                    Failure::new(&scenario, seed, scenario.end, outcome.unmet[0].clone())
                }
                Err(failure) => {
                    failed += 1;
                    failure
                }
            };
            if !std::mem::replace(&mut shown, true) {
                println!("{name}: first finding: {report}");
            }
        }
        println!(
            "{name}: {count} seeds, {failed} failed, {unmet} with unmet expectations, {:.1?}",
            began.elapsed()
        );
        broken += failed;
    }
    let seeds = count * names.len() as u64;
    let rate = seeds as f64 / started.elapsed().as_secs_f64();
    println!(
        "sweep: {seeds} seeds in {:.1?}, {rate:.0} seeds/s",
        started.elapsed()
    );
    std::process::exit(i32::from(broken > 0));
}
