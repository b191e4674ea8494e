//! Figure 4(b): messaging and data-transfer analysis per simulated tick.
//!
//! Paper setup: same weak-scaling sweep as Fig. 4(a). Results: the MPI
//! message count per tick grows **sub-linearly** with CPU count (white-
//! matter links get thinner as regions spread over more processes), spike
//! count grows with model size (~22M spikes/tick at 256M cores), and the
//! data volume (20 bytes/spike ⇒ 0.44 GB/tick) stays far below the torus
//! link bandwidth.
//!
//! The `KB/tick` column is the paper's accounting (spikes × 20 B,
//! [`SPIKE_WIRE_BYTES`]) so the curve compares with Fig. 4(b); `wire KB`
//! beside it is what this transport measured: an 8-byte record per spike
//! and a 16-byte header per message (`compass_sim::route`). The torus
//! link loads are the measured bytes.
//!
//! These are *counting* results, independent of host speed — the axis
//! levels shrink but the shapes are the paper's.

use compass_bench::torus::{LinkLoads, Torus};
use compass_bench::{banner, cocomac_run};
use compass_comm::WorldConfig;
use compass_sim::Backend;
use tn_core::SPIKE_WIRE_BYTES;

fn main() {
    let cores_per_rank = 96u64;
    let ticks = 100;
    banner(
        "Fig. 4(b) — messages, spikes, and bytes per simulated tick",
        "message count sub-linear in CPUs; 22M spikes/tick and 0.44 GB/tick at full scale",
        &format!("{cores_per_rank} cores/rank, 1..8 ranks, {ticks} ticks"),
    );

    println!(
        "{:>5} {:>7} | {:>12} {:>14} {:>12} {:>10} | {:>11} {:>11} {:>13}",
        "ranks",
        "cores",
        "msgs/tick",
        "spikes/tick",
        "KB/tick",
        "wire KB",
        "pair budget",
        "budget use",
        "spikes/msg"
    );
    for ranks in [1usize, 2, 4, 8] {
        let run = cocomac_run(
            cores_per_rank * ranks as u64,
            WorldConfig::flat(ranks),
            ticks,
            Backend::Mpi,
        );
        let msgs = run.messages_per_tick();
        let spikes = run.remote_spikes_per_tick();
        let kb = spikes * SPIKE_WIRE_BYTES as f64 / 1024.0;
        let wire_kb = run.transport.p2p_bytes as f64 / f64::from(ticks) / 1024.0;
        let budget = (ranks * (ranks - 1)) as f64;
        let utilization = if budget > 0.0 {
            msgs / budget * 100.0
        } else {
            0.0
        };
        let per_msg = if msgs > 0.0 { spikes / msgs } else { 0.0 };

        // Map the rank-pair traffic onto a BG/Q-style 5D torus and find
        // the busiest link — the basis of the paper's "well below the
        // interconnect bandwidth" claim (2 GB/s/link ⇒ 2 MB per 1 ms tick).
        let torus = Torus::fitting(ranks, 5);
        let mut loads = LinkLoads::new(torus);
        for (src, r) in run.ranks.iter().enumerate() {
            for (dst, &bytes) in r.bytes_to.iter().enumerate() {
                if bytes > 0 && src != dst {
                    loads.charge(src, dst, bytes);
                }
            }
        }
        let peak_per_tick = loads.peak() as f64 / f64::from(ticks);
        let link_budget = 2e6; // 2 GB/s × 1 ms tick
        println!(
            "{:>5} {:>7} | {:>12.1} {:>14.1} {:>12.2} {:>10.2} | {:>9.0}/t {:>10.0}% {:>13.1}   peak link {:>8.0} B/tick ({:.4}% of 2 GB/s)",
            ranks,
            run.cores,
            msgs,
            spikes,
            kb,
            wire_kb,
            budget,
            utilization,
            per_msg,
            peak_per_tick,
            peak_per_tick / link_budget * 100.0,
        );
    }
    println!();
    println!("shape checks vs paper:");
    println!("  * the paper's sub-linear message growth comes from white-matter links getting");
    println!("    thinner as regions spread over more processes; at this scale (ranks << 77");
    println!("    regions) it shows as *declining pair-budget utilization* and fewer spikes");
    println!("    per message as ranks grow");
    println!("  * spikes/tick grows ~linearly with model size (weak scaling adds neurons)");
    println!(
        "  * KB/tick = spikes x 20 B (the paper's accounting); wire KB = 8 B/spike + 16 B/message"
    );
    println!("    as measured — either way a vanishing fraction of any real link bandwidth");
}
