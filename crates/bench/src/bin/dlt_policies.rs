//! TAB-DLT — divisible-load distribution policies (§2.1, §5.2).
//!
//! Compares, on the three Fig. 3 interconnect classes and across load
//! sizes:
//!
//! * one-round bus closed form (with and without result gathering);
//! * one-round star, served by bandwidth vs by CPU speed (ordering
//!   ablation);
//! * multi-installment with the best round count (latency/pipelining
//!   trade-off);
//! * tuned dynamic self-scheduling (the work-stealing baseline);
//! * the steady-state throughput bound (asymptotic optimum for campaigns).
//!
//! Expected shape: multi-round and self-scheduling win on fast networks /
//! big loads; latency pushes the optimum toward one round and few
//! participants; every makespan respects the steady-state bound.

use lsps_bench::write_csv;
use lsps_dlt::multiround::best_round_count;
use lsps_dlt::selfsched::best_chunk;
use lsps_dlt::{
    bus_single_round, multi_round, self_schedule, star_single_round, star_steady_state,
    MultiRoundParams, Worker, WorkerOrder,
};
use lsps_scenario::Table;

struct NetClass {
    name: &'static str,
    bandwidth: f64, // units/s across the link (1 unit = 1 s of reference CPU)
    latency: f64,
}

fn main() {
    println!("TAB-DLT — divisible load policies on Fig. 3 network classes\n");
    // 1 unit = 1 reference-CPU-second; assume 10 MB of data per unit, so a
    // 250 MB/s Myrinet moves 25 units/s, etc.
    let nets = [
        NetClass {
            name: "myrinet",
            bandwidth: 25.0,
            latency: 10e-6,
        },
        NetClass {
            name: "gige",
            bandwidth: 12.5,
            latency: 50e-6,
        },
        NetClass {
            name: "eth100",
            bandwidth: 1.25,
            latency: 100e-6,
        },
        NetClass {
            name: "eth100+lat",
            bandwidth: 1.25,
            latency: 0.5,
        },
    ];
    let n_workers = 16usize;
    let loads = [1e3, 1e4, 1e5];

    let mut table = Table::new(&[
        "net",
        "load",
        "1-round",
        "1-rnd+gather",
        "star byBW",
        "star bySpeed",
        "multi-round",
        "(R)",
        "self-sched",
        "steady bound",
    ]);
    let mut csv = String::from(
        "net,load,one_round,one_round_gather,star_bybw,star_byspeed,multi_round,best_r,self_sched,steady_bound\n",
    );
    for net in &nets {
        // Mildly heterogeneous CPUs: 1.0 and 0.6 alternating (two CIMENT
        // generations).
        let speeds: Vec<f64> = (0..n_workers)
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.6 })
            .collect();
        let workers: Vec<Worker> = speeds
            .iter()
            .map(|&s| Worker::new(s, net.bandwidth, net.latency))
            .collect();
        // Heterogeneous-links variant for the ordering ablation: half the
        // links degraded 4×.
        let het_workers: Vec<Worker> = (0..speeds.len())
            .map(|i| {
                let bw = if i % 2 == 0 {
                    net.bandwidth / 4.0
                } else {
                    net.bandwidth
                };
                // Anti-correlated speed/bandwidth: fast CPUs on slow links.
                Worker::new(if i % 2 == 0 { 1.0 } else { 0.6 }, bw, net.latency)
            })
            .collect();
        let steady = star_steady_state(&workers);
        for &w in &loads {
            let one = bus_single_round(w, &speeds, net.bandwidth, net.latency, 0.0);
            let one_g = bus_single_round(w, &speeds, net.bandwidth, net.latency, 0.2);
            let by_bw = star_single_round(w, &het_workers, WorkerOrder::ByBandwidth);
            let by_speed = star_single_round(w, &het_workers, WorkerOrder::BySpeed);
            let (best_r, multi) = best_round_count(w, &workers, 32, 1.5);
            let (_, dynamic) = best_chunk(w, &workers);
            let bound = w / steady.throughput;
            table.row(vec![
                net.name.into(),
                format!("{w:.0}"),
                format!("{:.1}", one.makespan),
                format!("{:.1}", one_g.makespan),
                format!("{:.1}", by_bw.makespan),
                format!("{:.1}", by_speed.makespan),
                format!("{:.1}", multi.makespan),
                best_r.to_string(),
                format!("{:.1}", dynamic.makespan),
                format!("{:.1}", bound),
            ]);
            csv.push_str(&format!(
                "{},{w},{:.3},{:.3},{:.3},{:.3},{:.3},{best_r},{:.3},{:.3}\n",
                net.name,
                one.makespan,
                one_g.makespan,
                by_bw.makespan,
                by_speed.makespan,
                multi.makespan,
                dynamic.makespan,
                bound
            ));
        }
    }
    table.print();
    write_csv("dlt_policies.csv", &csv);

    // Round-count sweep detail on one config (the crossover figure).
    println!("\nround-count sweep (gige, load 1e4):");
    let workers: Vec<Worker> = (0..n_workers)
        .map(|i| Worker::new(if i % 2 == 0 { 1.0 } else { 0.6 }, 12.5, 50e-6))
        .collect();
    let mut t2 = Table::new(&["rounds", "makespan (s)"]);
    let mut csv2 = String::from("rounds,makespan\n");
    for r in [1usize, 2, 4, 8, 16, 32, 64] {
        let plan = multi_round(
            1e4,
            &workers,
            MultiRoundParams {
                rounds: r,
                growth: 1.5,
            },
        );
        t2.row(vec![r.to_string(), format!("{:.2}", plan.makespan)]);
        csv2.push_str(&format!("{r},{:.4}\n", plan.makespan));
    }
    t2.print();
    write_csv("dlt_rounds.csv", &csv2);

    // Self-scheduling chunk sweep (overhead vs imbalance).
    println!("\nchunk sweep (eth100+lat, load 1e4):");
    let lat_workers: Vec<Worker> = (0..n_workers)
        .map(|i| Worker::new(if i % 2 == 0 { 1.0 } else { 0.6 }, 1.25, 0.5))
        .collect();
    let mut t3 = Table::new(&["chunk", "makespan (s)"]);
    let mut csv3 = String::from("chunk,makespan\n");
    let mut c = 10.0;
    while c <= 10_000.0 {
        let plan = self_schedule(1e4, &lat_workers, c);
        t3.row(vec![format!("{c:.0}"), format!("{:.1}", plan.makespan)]);
        csv3.push_str(&format!("{c},{:.4}\n", plan.makespan));
        c *= 4.0;
    }
    t3.print();
    write_csv("dlt_chunks.csv", &csv3);
}
