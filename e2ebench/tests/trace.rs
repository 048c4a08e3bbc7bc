//! Self-time arithmetic on nested spans.

use e2ebench::trace::{self_times, Span, Tracer};
use std::time::Duration;

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        parent,
        group: 1,
        start_ns,
        end_ns,
        busy_ns: None,
        calls: 1,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = vec![
        span("walk", None, 0, 1_000),               // 0
        span("simdb.database", Some(0), 0, 300),    // 1
        span("rma_sim.managed", Some(0), 300, 900), // 2
        Span {
            // Aggregate child: 400 ns busy inside the 600 ns managed run.
            busy_ns: Some(400),
            calls: 25,
            ..span("core.on_interval", Some(2), 300, 900)
        },
        span("rma_sim.baseline", Some(0), 900, 1_000), // 4
    ];
    let times = self_times(&spans);
    let ns = |layer: &str| (times[layer] * 1e9).round() as u64;
    assert_eq!(ns("walk"), 0); // fully covered by its children
    assert_eq!(ns("simdb"), 300);
    assert_eq!(ns("core"), 400);
    // Managed self (600 - 400) plus the childless baseline (100).
    assert_eq!(ns("rma_sim"), 300);
    // Self times partition the root: they sum to its duration.
    let total: u64 = ["walk", "simdb", "core", "rma_sim"]
        .iter()
        .map(|l| ns(l))
        .sum();
    assert_eq!(total, 1_000);
}

#[test]
fn tracer_records_nested_and_aggregate_spans() {
    let mut tracer = Tracer::new(true);
    let root = tracer.open("rma_sim.managed", None, 7);
    std::thread::sleep(Duration::from_millis(2));
    tracer.close(root);
    tracer.aggregate("core.on_interval", root, 7, 3, Duration::from_micros(500));
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(root));
    assert_eq!(spans[1].calls, 3);
    assert_eq!(spans[1].duration_ns(), 500_000);
    let times = tracer.self_times();
    let managed = spans[0].duration_ns() as f64 * 1e-9;
    assert!((times["rma_sim"] - (managed - 500e-6)).abs() < 1e-12);
    assert_eq!(tracer.to_jsonl().lines().count(), 2);

    // A disabled tracer records nothing.
    let mut off = Tracer::new(false);
    let id = off.open("spec.lower", None, 0);
    off.close(id);
    off.aggregate("core.on_interval", id, 0, 1, Duration::from_micros(1));
    assert!(off.spans().is_empty());
}

#[test]
fn absorbed_spans_keep_their_parents() {
    let mut a = Tracer::new(true);
    let root = a.open("serve.submission", None, 0);
    a.close(root);
    let mut b = Tracer::new(true);
    let parent = b.open("serve.submission", None, 1);
    let child = b.open("serve.submit", Some(parent), 1);
    b.close(child);
    b.close(parent);
    a.absorb(b);
    assert_eq!(a.spans().len(), 3);
    assert_eq!(a.spans()[2].parent, Some(1));
}
