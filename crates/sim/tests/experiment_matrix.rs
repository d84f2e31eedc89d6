//! Parameter-matrix tests of the simulator: the experiment models must
//! behave sanely across the whole configuration space, not just at the
//! paper's data points.

use corona_sim::{
    roundtrip, throughput, ExperimentConfig, PENTIUM_II_200, SPARC_20_CLIENT, ULTRASPARC_1,
};

fn base(n: usize) -> ExperimentConfig {
    ExperimentConfig {
        n_clients: n,
        messages: 30,
        closed_loop: true,
        ..ExperimentConfig::default()
    }
}

#[test]
fn rtt_is_monotone_in_clients_for_both_architectures() {
    for servers in [1usize, 3, 6] {
        let mut prev = 0.0;
        for n in [10, 40, 80, 160] {
            let r = roundtrip(ExperimentConfig {
                n_servers: servers,
                ..base(n)
            });
            assert!(
                r.mean_ms > prev,
                "{servers} servers, {n} clients: {} !> {prev}",
                r.mean_ms
            );
            prev = r.mean_ms;
        }
    }
}

#[test]
fn rtt_is_monotone_in_payload() {
    let mut prev = 0.0;
    for payload in [200usize, 1000, 4000, 10_000] {
        let r = roundtrip(ExperimentConfig {
            payload,
            ..base(30)
        });
        assert!(
            r.mean_ms > prev,
            "payload {payload}: {} !> {prev}",
            r.mean_ms
        );
        prev = r.mean_ms;
    }
}

#[test]
fn replication_has_a_crossover() {
    // At tiny populations the coordinator hop dominates and the single
    // server wins; at scale the parallel fan-out wins. Both regimes
    // must exist — that is the §4 design argument for splitting groups
    // over servers only when they are large.
    let tiny_single = roundtrip(ExperimentConfig {
        n_servers: 1,
        ..base(4)
    })
    .mean_ms;
    let tiny_repl = roundtrip(ExperimentConfig {
        n_servers: 6,
        ..base(4)
    })
    .mean_ms;
    assert!(
        tiny_repl > tiny_single,
        "at 4 clients the extra hop must cost more than it saves ({tiny_repl} vs {tiny_single})"
    );
    let big_single = roundtrip(ExperimentConfig {
        n_servers: 1,
        ..base(120)
    })
    .mean_ms;
    let big_repl = roundtrip(ExperimentConfig {
        n_servers: 6,
        ..base(120)
    })
    .mean_ms;
    assert!(big_repl < big_single, "at 120 clients replication must win");
}

#[test]
fn more_member_servers_help_monotonically_at_scale() {
    let mut prev = f64::INFINITY;
    for servers in [1usize, 2, 4, 8] {
        let r = roundtrip(ExperimentConfig {
            n_servers: servers,
            ..base(160)
        })
        .mean_ms;
        assert!(
            r < prev,
            "{servers} servers should beat {} at 160 clients ({r} !< {prev})",
            servers / 2
        );
        prev = r;
    }
}

#[test]
fn throughput_monotone_in_clients_until_saturation() {
    // The paper: "every time a new client was added, the throughput
    // increased".
    let window = 10_000_000;
    let mut prev = 0.0;
    for n in [1usize, 2, 4, 6] {
        let t = throughput(
            ExperimentConfig {
                n_clients: n,
                ..ExperimentConfig::default()
            },
            window,
        )
        .kbytes_per_sec;
        assert!(t > prev, "{n} clients: {t} !> {prev}");
        prev = t;
    }
}

#[test]
fn client_profile_affects_rtt_but_not_linearity() {
    // A slower client host shifts the intercept, not the slope driver.
    let fast = roundtrip(ExperimentConfig {
        client_profile: PENTIUM_II_200,
        ..base(30)
    })
    .mean_ms;
    let slow = roundtrip(ExperimentConfig {
        client_profile: SPARC_20_CLIENT,
        ..base(30)
    })
    .mean_ms;
    assert!(slow > fast);
    // Slope (per-client cost) is a server/wire property.
    let slope = |profile| {
        let a = roundtrip(ExperimentConfig {
            client_profile: profile,
            ..base(10)
        })
        .mean_ms;
        let b = roundtrip(ExperimentConfig {
            client_profile: profile,
            ..base(50)
        })
        .mean_ms;
        (b - a) / 40.0
    };
    let sf = slope(PENTIUM_II_200);
    let ss = slope(SPARC_20_CLIENT);
    assert!((sf - ss).abs() / sf < 0.15, "slopes diverged: {sf} vs {ss}");
}

#[test]
fn server_profile_scales_the_slope() {
    // Measured where the server CPU is the bottleneck. At 1000 B the
    // 10 Mbps LAN's per-frame wire time exceeds either host's per-send
    // CPU cost, so both slopes are the wire's and tie; at 200 B the
    // per-client cost is the server's enqueue.
    let slope = |profile| {
        let a = roundtrip(ExperimentConfig {
            server_profile: profile,
            payload: 200,
            ..base(10)
        })
        .mean_ms;
        let b = roundtrip(ExperimentConfig {
            server_profile: profile,
            payload: 200,
            ..base(50)
        })
        .mean_ms;
        (b - a) / 40.0
    };
    assert!(
        slope(PENTIUM_II_200) < slope(ULTRASPARC_1),
        "a faster server must flatten the per-client cost"
    );
}

#[test]
fn stateless_never_beats_stateful_by_more_than_model_noise() {
    // Upper-bounds the stateful overhead across the whole sweep, not
    // just the paper's points.
    for n in [5, 25, 45] {
        for payload in [500, 5000] {
            let cfg = ExperimentConfig { payload, ..base(n) };
            let stateful = roundtrip(ExperimentConfig {
                stateful: true,
                ..cfg
            })
            .mean_ms;
            let stateless = roundtrip(ExperimentConfig {
                stateful: false,
                ..cfg
            })
            .mean_ms;
            let overhead = (stateful - stateless) / stateless;
            assert!(
                (0.0..0.05).contains(&overhead),
                "n={n} payload={payload}: overhead {overhead:.4}"
            );
        }
    }
}
