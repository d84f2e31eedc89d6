//! A log append allocates nothing once the store has held a record
//! as large: the record is encoded into a buffer the store keeps, and
//! framed into its file writer's.
//!
//! Only this thread's allocations are counted (the flag is
//! thread-local), so other tests of this binary add no noise.

use corona_statelog::{StableStore, SyncPolicy};
use corona_types::id::{ClientId, GroupId, ObjectId, SeqNo};
use corona_types::policy::Persistence;
use corona_types::state::{LoggedUpdate, SharedState, StateUpdate, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_steady_state_append_allocates_nothing() {
    let root = std::env::temp_dir().join(format!("corona-append-alloc-{}", std::process::id()));
    let store = StableStore::open(&root, SyncPolicy::OsDefault).unwrap();
    let group = GroupId::new(1);
    let mut log = store
        .create_group(group, Persistence::Persistent, &SharedState::new())
        .unwrap();
    // Records of one size: sequence numbers below 128 are one varint
    // byte each.
    let updates: Vec<LoggedUpdate> = (1..=127)
        .map(|seq| LoggedUpdate {
            seq: SeqNo::new(seq),
            sender: ClientId::new(7),
            timestamp: Timestamp::from_micros(1_000_000),
            update: StateUpdate::incremental(ObjectId::new(1), vec![seq as u8; 64]),
        })
        .collect();
    let (first, rest) = updates.split_first().unwrap();
    log.append_update(first).unwrap();

    COUNTING.with(|on| on.set(true));
    for update in rest {
        log.append_update(update).unwrap();
    }
    COUNTING.with(|on| on.set(false));
    assert_eq!(
        ALLOCATIONS.with(Cell::get),
        0,
        "allocations over 126 appends"
    );

    drop(log);
    let (recovered, _) = store.recover_group(group).unwrap().unwrap();
    assert_eq!(recovered.replayed, 127);
    std::fs::remove_dir_all(&root).unwrap();
}
