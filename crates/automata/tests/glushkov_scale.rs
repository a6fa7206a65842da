//! The Glushkov construction on long, sparse content models stays within a memory
//! and time bound.
//!
//! This file holds a single test so the counting allocator below sees no other test's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use xpsat_automata::{Nfa, Regex};

/// The system allocator, tracking the live and the peak number of bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Build the Glushkov automaton of `re`; also return the bytes its construction
/// allocated at the peak and the time it took.
fn measured(re: &Regex<char>) -> (Nfa<char>, usize, Duration) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let started = Instant::now();
    let nfa = Nfa::glushkov(re);
    let elapsed = started.elapsed();
    (nfa, PEAK.load(Ordering::Relaxed) - before, elapsed)
}

fn edge_count(nfa: &Nfa<char>) -> usize {
    (0..nfa.num_states())
        .flat_map(|q| nfa.transitions_from(q))
        .map(|(_, succ)| succ.len())
        .sum()
}

#[test]
fn long_sparse_models_build_in_linear_space() {
    // `a, a, …, a`: every position has exactly one successor.  Dense per-position sets
    // would need about n²/128 words here (~625 MB at n = 100k).
    let n = 100_000;
    let (nfa, peak, elapsed) = measured(&Regex::Concat(vec![Regex::Sym('a'); n]));
    assert_eq!(nfa.num_states(), n + 1);
    assert_eq!(edge_count(&nfa), n);
    assert!((0..n).all(|q| nfa.step(q, &'a').eq([q + 1])));
    assert_eq!(nfa.accepting_states().collect::<Vec<_>>(), vec![n]);
    assert!(peak < 64 << 20, "peak allocation {peak} bytes");
    assert!(elapsed < Duration::from_secs(10), "built in {elapsed:?}");

    // `(a0 | … | a99)+…+` with 1000 `+`s: the alternation's 10k pairs are recorded
    // once, not once per `+` (that would be 80 MB).
    let mut re = Regex::Alt(
        (0..100)
            .map(|i| Regex::Sym(char::from_u32(0x100 + i).unwrap()))
            .collect(),
    );
    for _ in 0..1000 {
        re = Regex::Plus(Box::new(re));
    }
    let (nfa, peak, _) = measured(&re);
    assert_eq!(edge_count(&nfa), 100 + 100 * 100);
    assert!(peak < 8 << 20, "peak allocation {peak} bytes");
}
