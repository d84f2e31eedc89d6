//! **TAB1** — regenerates Table 1 of the paper: "Server throughput
//! obtained using multicast messages of size 1000/10000 bytes" on the
//! UltraSparc 1 (Solaris) and the quad Pentium II 200 (Windows NT).
//!
//! Configuration mirrors §5.2.2: 6 clients on separate machines
//! "multicasting data as fast as possible" (closed loop) through one
//! Corona server on a shared 10 Mbps Ethernet; the reported number is
//! the aggregate delivered throughput in kB/s. The server is the
//! shipping one, stepped under the DES clock at the host's 1999 costs.

use corona_bench::{header, row};
use corona_sim::{throughput, ExperimentConfig, PENTIUM_II_200, ULTRASPARC_1};

fn main() {
    println!("TAB1: server throughput (kB/s), 6 closed-loop senders, 10 Mbps shared Ethernet");
    println!("(the shipping server stepped under the DES clock; 60 s virtual window)\n");
    let widths = [24, 14, 14, 12, 12];
    let head = [
        "server host",
        "1000 B",
        "10000 B",
        "srv util@1k",
        "srv util@10k",
    ];
    println!("{}", header(&head, &widths));

    let window = 60_000_000; // 60 virtual seconds
    for profile in [ULTRASPARC_1, PENTIUM_II_200] {
        let cfg = |payload| ExperimentConfig {
            n_clients: 6,
            payload,
            server_profile: profile,
            ..ExperimentConfig::default()
        };
        let t1k = throughput(cfg(1000), window);
        let t10k = throughput(cfg(10_000), window);
        let cells = [
            profile.name.to_string(),
            format!("{:.0}", t1k.kbytes_per_sec),
            format!("{:.0}", t10k.kbytes_per_sec),
            format!("{:.0}%", t1k.server_utilization * 100.0),
            format!("{:.0}%", t10k.server_utilization * 100.0),
        ];
        println!("{}", row(&cells, &widths));
    }

    println!(
        "\nShape check: throughput rises with message size (per-message overhead amortised).\n\
         The server encodes each broadcast once, so at 1000 B neither host's CPU is the\n\
         bottleneck: the shared wire is, and the two tie (the paper's Java server, which\n\
         serialised per recipient, let the Pentium II pull ahead there) — the paper's own\n\
         finding ('the limitation ... not ... in the server code [but] in the network\n\
         capacity'). The Pentium II outruns the UltraSparc only below ~500 B. The paper\n\
         sustained ~600 kB/s on the NT host."
    );
}
