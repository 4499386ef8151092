//! Fig. 4 — critical paths within a synchronization window.
//!
//! Demonstrates the §IV-D model:
//!
//! * (top) single-rank vs two-rank critical paths — and the theorem that a
//!   single round of concurrent P2P communication implicates **at most two
//!   ranks** in the critical path, regardless of scale (verified over many
//!   random windows);
//! * (bottom) task-ordering impact: prioritizing sends shortens the path by
//!   minimizing dispatch delay for messages on it.
//!
//! ```text
//! cargo run -p amr-bench --release --bin fig4_critical_path -- \
//!     [--windows 200] [--ranks 64] [--seed 4]
//! ```

use amr_bench::{render_table, Args};
use amr_core::critical_path::{
    critical_path, execute, prioritize_sends, ranks_on_path, Task, Window,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random single-round window: every rank computes, sends to a few random
/// peers, then waits on the messages destined to it, then computes more.
fn random_window(ranks: usize, rng: &mut StdRng, sends_first: bool) -> Window {
    // Choose a random message pattern first (so waits know their senders).
    let mut msgs: Vec<(usize, usize)> = Vec::new(); // (src, dst)
    for src in 0..ranks {
        let fanout = rng.gen_range(1..4);
        for _ in 0..fanout {
            let dst = rng.gen_range(0..ranks - 1);
            let dst = if dst >= src { dst + 1 } else { dst };
            msgs.push((src, dst));
        }
    }
    let mut tasks: Vec<Vec<Task>> = vec![Vec::new(); ranks];
    for (r, list) in tasks.iter_mut().enumerate() {
        let compute = Task::Compute {
            dur: rng.gen_range(10..2_000),
        };
        let sends: Vec<Task> = msgs
            .iter()
            .enumerate()
            .filter(|(_, (src, _))| *src == r)
            .map(|(i, _)| Task::Send {
                msg: i as u32,
                dur: 5,
                latency: rng.gen_range(5..50),
            })
            .collect();
        let waits: Vec<Task> = msgs
            .iter()
            .enumerate()
            .filter(|(_, (_, dst))| *dst == r)
            .map(|(i, _)| Task::Wait { msg: i as u32 })
            .collect();
        if sends_first {
            list.extend(sends);
            list.push(compute);
        } else {
            list.push(compute);
            list.extend(sends);
        }
        list.extend(waits);
        list.push(Task::Compute {
            dur: rng.gen_range(5..200),
        });
    }
    Window { tasks }
}

fn main() {
    let mut args = Args::from_env();
    let windows = args.get_usize("windows", 200);
    let ranks = args.get_usize("ranks", 64);
    let seed = args.get_u64("seed", 4);
    args.finish();

    println!("== Fig. 4: critical paths within a synchronization window ==\n");

    // --- Theorem check over random windows -------------------------------
    let mut rng = StdRng::seed_from_u64(seed);
    let mut one_rank = 0usize;
    let mut two_rank = 0usize;
    let mut more = 0usize;
    for _ in 0..windows {
        let w = random_window(ranks, &mut rng, false);
        let s = execute(&w).expect("single-round windows cannot deadlock");
        let path = critical_path(&w, &s);
        match ranks_on_path(&path) {
            1 => one_rank += 1,
            2 => two_rank += 1,
            _ => more += 1,
        }
    }
    println!("-- (top) ranks implicated in the critical path, {windows} random single-round windows @ {ranks} ranks --");
    let rows = vec![
        vec!["1 (local compute chain)".to_string(), one_rank.to_string()],
        vec!["2 (one P2P dependency)".to_string(), two_rank.to_string()],
        vec![">2 (theorem violation)".to_string(), more.to_string()],
    ];
    println!("{}", render_table(&["ranks on path", "windows"], &rows));
    assert_eq!(more, 0, "two-rank theorem violated");
    println!("Theorem holds: at most two ranks on every single-round critical path.\n");

    // --- Ordering impact ---------------------------------------------------
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let mut makespan_default = 0u64;
    let mut makespan_tuned = 0u64;
    let mut wait_default = 0u64;
    let mut wait_tuned = 0u64;
    for _ in 0..windows {
        let w = random_window(ranks, &mut rng, false);
        let s = execute(&w).unwrap();
        makespan_default += s.makespan();
        wait_default += s.total_wait(&w);
        let tuned = prioritize_sends(&w);
        let st = execute(&tuned).unwrap();
        makespan_tuned += st.makespan();
        wait_tuned += st.total_wait(&tuned);
    }
    println!("-- (bottom) send prioritization, mean over {windows} windows --");
    let rows = vec![
        vec![
            "compute-before-send".to_string(),
            format!("{}", makespan_default / windows as u64),
            format!("{}", wait_default / windows as u64),
        ],
        vec![
            "sends prioritized".to_string(),
            format!("{}", makespan_tuned / windows as u64),
            format!("{}", wait_tuned / windows as u64),
        ],
    ];
    println!(
        "{}",
        render_table(&["schedule", "mean makespan", "mean total MPI_Wait"], &rows)
    );
    println!(
        "window makespan reduced {:.1}%, wait reduced {:.1}% (the §IV-B reordering win)",
        (1.0 - makespan_tuned as f64 / makespan_default as f64) * 100.0,
        (1.0 - wait_tuned as f64 / wait_default as f64) * 100.0,
    );
}
