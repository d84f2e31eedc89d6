//! The paper's draw tool (§5.1): "similar both to a shared notebook
//! and a whiteboard ... a canvas for drawing, taking notes, and
//! importing images" — here as a headless whiteboard where each
//! stroke is an object, the lock service serialises concurrent edits
//! of the same stroke, `bcast_state` implements erase-and-replace, and
//! the whole canvas survives a server restart (persistent group +
//! stable storage).
//!
//! Run with:
//!
//! ```sh
//! cargo run --example whiteboard
//! ```

use corona::prelude::*;

const BOARD: GroupId = GroupId(7);

/// A stroke is encoded as a list of points; the service never looks
/// inside (client-based semantics, §3.1).
fn encode_points(points: &[(i32, i32)]) -> Vec<u8> {
    points
        .iter()
        .flat_map(|(x, y)| [x.to_le_bytes(), y.to_le_bytes()].concat())
        .collect()
}

fn decode_points(bytes: &[u8]) -> Vec<(i32, i32)> {
    bytes
        .chunks_exact(8)
        .map(|c| {
            (
                i32::from_le_bytes(c[..4].try_into().expect("4 bytes")),
                i32::from_le_bytes(c[4..].try_into().expect("4 bytes")),
            )
        })
        .collect()
}

fn main() -> corona::types::Result<()> {
    let storage = std::env::temp_dir().join(format!("corona-whiteboard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&storage);

    let addr;
    {
        // ---- Session 1: two artists draw together --------------------------
        let server = CoronaServer::bind(
            "127.0.0.1:0",
            ServerConfig::stateful(ServerId::new(1)).with_storage(&storage),
        )?;
        addr = server.local_addr();

        let ann = CoronaClient::connect(TcpDialer.dial(&addr).expect("dial"), "ann", None)?;
        let bob = CoronaClient::connect(TcpDialer.dial(&addr).expect("dial"), "bob", None)?;
        ann.create_group(BOARD, Persistence::Persistent, SharedState::new())?;
        ann.join(
            BOARD,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )?;
        bob.join(
            BOARD,
            MemberRole::Principal,
            StateTransferPolicy::FullState,
            false,
        )?;

        let stroke1 = ObjectId::new(1);
        let stroke2 = ObjectId::new(2);

        // Ann draws stroke 1 under a lock, extending it point by point
        // (bcastUpdate appends, preserving the stroke's history).
        assert_eq!(ann.acquire_lock(BOARD, stroke1, true)?, LockResult::Granted);
        ann.bcast_state(
            BOARD,
            stroke1,
            encode_points(&[(0, 0)]),
            DeliveryScope::SenderExclusive,
        )?;
        for p in [(10, 5), (20, 12), (30, 18)] {
            ann.bcast_update(
                BOARD,
                stroke1,
                encode_points(&[p]),
                DeliveryScope::SenderExclusive,
            )?;
        }

        // Bob tries to edit the same stroke: denied while Ann holds it.
        match bob.acquire_lock(BOARD, stroke1, false)? {
            LockResult::Denied { holder } => {
                println!("bob denied stroke1 (held by {holder}) — drawing stroke2 instead")
            }
            LockResult::Granted => unreachable!("lock service failed"),
        }
        assert_eq!(
            bob.acquire_lock(BOARD, stroke2, false)?,
            LockResult::Granted
        );
        bob.bcast_state(
            BOARD,
            stroke2,
            encode_points(&[(100, 100), (90, 80)]),
            DeliveryScope::SenderExclusive,
        )?;
        bob.release_lock(BOARD, stroke2)?;

        // Ann erases and redraws stroke 1: bcastState REPLACES the
        // object, dropping its history.
        ann.bcast_state(
            BOARD,
            stroke1,
            encode_points(&[(0, 0), (50, 50)]),
            DeliveryScope::SenderExclusive,
        )?;
        ann.release_lock(BOARD, stroke1)?;

        // Flush, then stop the server mid-session.
        ann.ping()?;
        ann.close();
        bob.close();
        server.shutdown();
        println!(
            "session 1 over; server stopped (canvas persisted to {})",
            storage.display()
        );
    }

    {
        // ---- Session 2: the canvas outlives the process ---------------------
        let server = CoronaServer::bind(
            "127.0.0.1:0",
            ServerConfig::stateful(ServerId::new(1)).with_storage(&storage),
        )?;
        let addr2 = server.local_addr();
        let cara = CoronaClient::connect(TcpDialer.dial(&addr2).expect("dial"), "cara", None)?;
        let (_, mirror) = cara.join_mirrored(BOARD, MemberRole::Principal, false)?;

        println!("session 2: cara joins the recovered board:");
        for (id, object) in mirror.state().iter() {
            let pts = decode_points(&object.materialize());
            println!("  stroke {id}: {pts:?}");
        }
        let stroke1 = mirror.state().object(ObjectId::new(1)).expect("stroke1");
        assert_eq!(
            decode_points(&stroke1.materialize()),
            vec![(0, 0), (50, 50)],
            "erase-and-replace must have replaced the stroke"
        );
        assert!(mirror.state().contains(ObjectId::new(2)));

        cara.close();
        server.shutdown();
    }

    std::fs::remove_dir_all(&storage).ok();
    println!("done");
    Ok(())
}
