//! End-to-end guard for the PR 3 codec overhaul: the chunked-LZ77 batch
//! pipeline must be *semantically transparent*. Whatever the codec does to
//! the bytes on the ledger, every server must commit exactly the same
//! element sets into exactly the same epochs — with delivery
//! decompression+validation on (full Compresschain) or off ("Compresschain
//! light", the paper's Fig. 2 left ablation).

use std::collections::BTreeSet;

use std::sync::Arc;

use setchain::collector::Batch;
use setchain::{
    make_epoch_proof, Algorithm, CompressedBatch, ElementGenerator, ElementId, SetchainTx,
};
use setchain_crypto::{sha256, KeyRegistry, ProcessId};
use setchain_ledger::NetMsg;
use setchain_simnet::SimTime;
use setchain_workload::{check_setchain_invariants, Deployment, ServerHandle};

const SIM_SECS: u64 = 10;

fn build(light: bool) -> Deployment {
    // Injection stops six simulated seconds before the end: both runs fully
    // drain, so every accepted element reaches an epoch in both.
    let mut builder = Deployment::builder(Algorithm::Compresschain)
        .servers(4)
        .rate(800.0)
        .collector(64)
        .injection_secs(4)
        .max_run_secs(SIM_SECS)
        .seed(11);
    if light {
        builder = builder.light();
    }
    builder.build()
}

fn run(light: bool) -> Deployment {
    let mut deployment = build(light);
    deployment.sim.run_until(SimTime::from_secs(SIM_SECS));
    deployment
}

/// All element ids stamped into epochs, for one server.
fn committed_ids(server: &ServerHandle<'_>) -> BTreeSet<ElementId> {
    let state = server.state();
    (1..=state.epoch())
        .flat_map(|e| {
            state
                .epoch_elements(e)
                .expect("epoch in range")
                .iter()
                .map(|el| el.id)
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn full_and_light_commit_identical_element_sets() {
    let full = run(false);
    let light = run(true);

    // Both runs committed real work.
    let committed_full = full.trace.committed_count_by(SimTime::from_secs(SIM_SECS));
    let committed_light = light.trace.committed_count_by(SimTime::from_secs(SIM_SECS));
    assert!(committed_full > 1000, "full run committed too little");
    assert_eq!(
        committed_full, committed_light,
        "decompression/validation on delivery must not change what commits"
    );

    // The committed element *sets* are identical across the two runs. (The
    // partition into epochs may differ: the light ablation consumes less
    // simulated CPU, so batch timing shifts — that is a schedule change,
    // not a codec effect.)
    let full_ids = committed_ids(&full.server(0));
    let light_ids = committed_ids(&light.server(0));
    assert!(!full_ids.is_empty(), "no epochs formed");
    assert_eq!(
        full_ids, light_ids,
        "committed element sets differ between full and light runs"
    );

    // Within each run, the Setchain properties hold.
    for deployment in [&full, &light] {
        check_setchain_invariants(deployment).expect("Setchain properties");
    }
}

#[test]
fn full_mode_really_decompresses_and_never_fails() {
    let full = run(false);
    let light = run(true);
    for i in 0..4 {
        let server = full.server(i);
        let stats = server.stats();
        // Every batch in every block this server committed was checked —
        // the host decodes each frame once, but each server still counts
        // its own check — and every frame decoded back to its declared
        // element bytes.
        let node = server.node();
        let committed_batches = node
            .committed_heights()
            .into_iter()
            .flat_map(|h| node.committed_block(h).expect("committed").txs.iter())
            .filter(|tx| matches!(tx, SetchainTx::Compressed(_)))
            .count() as u64;
        assert!(committed_batches > 0, "server {i} committed no batch");
        assert_eq!(
            stats.batches_decompressed, committed_batches,
            "server {i} skipped a committed batch"
        );
        assert_eq!(
            stats.batch_decompress_failures, 0,
            "server {i} saw bad frames"
        );
        // The light ablation skips delivery decompression entirely.
        assert_eq!(light.server(i).stats().batches_decompressed, 0);
    }

    // Ratio accounting measures the actually shipped chunked frames: with
    // compressible batch payloads the average must be a real compression
    // ratio, not a pass-through.
    for i in 0..4 {
        let ratio = full
            .server(i)
            .compression_ratio()
            .expect("expected a Compresschain server");
        assert!(
            ratio > 1.02 && ratio < 10.0,
            "server {i} reports implausible average ratio {ratio}"
        );
    }
    for deployment in [&full, &light] {
        check_setchain_invariants(deployment).expect("Setchain properties");
    }
}

/// Server 3 gossips `hostile` — a batch transaction whose frame is not a
/// chunked-LZ77 frame — straight into server 0's mempool mid-run. It passes
/// `check_tx` (the origin is a server of the deployment) and lands in a
/// block. `origin` is an unsigned field the sender is free to forge, so the
/// verdict must not depend on it: every correct server — the named origin
/// included — must count the frame as a decompress failure and skip the
/// transaction instead of panicking on it or building an epoch from it.
fn survives_hostile_frame(hostile: CompressedBatch) {
    let mut deployment = build(false);
    deployment.sim.schedule_message(
        SimTime::from_secs(2),
        ProcessId::server(3),
        ProcessId::server(0),
        NetMsg::TxGossip {
            txs: vec![SetchainTx::Compressed(hostile)],
        },
    );
    deployment.sim.run_until(SimTime::from_secs(SIM_SECS));

    for i in 0..4 {
        let server = deployment.server(i);
        assert!(
            server.stats().batch_decompress_failures >= 1,
            "server {i} never saw the hostile frame"
        );
        assert_eq!(
            server.state().epoch(),
            deployment.server(0).state().epoch(),
            "server {i} numbers its epochs differently"
        );
    }
    // The honest load still commits.
    let added = deployment.trace.added_count();
    let committed = deployment
        .trace
        .committed_count_by(SimTime::from_secs(SIM_SECS));
    assert!(added > 1000, "clients injected too little");
    assert_eq!(committed, added, "honest elements failed to commit");
    check_setchain_invariants(&deployment).expect("Setchain properties");
}

fn garbage_frame(origin: usize, original_size: u32) -> CompressedBatch {
    CompressedBatch {
        origin: ProcessId::server(origin),
        seq: u64::MAX,
        batch: Batch::default().into(),
        payload: Arc::new(vec![0xFF; 40].into()),
        compressed_size: 40,
        original_size,
    }
}

/// A garbage frame that declares zero bytes yet carries one epoch-proof:
/// the proof bytes alone exceed the declared size.
fn undersized_frame(origin: usize) -> CompressedBatch {
    let deployment = build(false);
    let signer = deployment.registry.lookup(ProcessId::server(3)).unwrap();
    let mut hostile = garbage_frame(origin, 0);
    hostile.batch = Batch::new(vec![], vec![make_epoch_proof(&signer, 1, &[])]).into();
    hostile
}

#[test]
fn undecodable_frame_is_counted_and_skipped() {
    survives_hostile_frame(garbage_frame(3, 40));
}

#[test]
fn frame_declaring_fewer_bytes_than_its_proofs_is_counted_and_skipped() {
    survives_hostile_frame(undersized_frame(3));
}

#[test]
fn frame_with_a_forged_origin_is_skipped_by_the_named_origin_too() {
    survives_hostile_frame(undersized_frame(0));
}

/// The bytes of Compresschain's frames, pinned: SHA-256 over the 16 KiB-chunk
/// frames of eight materialized batches (four of 64 elements, four of 256,
/// the two collector sizes the benchmark runs), each frame prefixed with its
/// length. Element sizes and content seeds come from a fixed xorshift
/// sequence spanning the workload's 96 B-16 KiB range. The end-to-end
/// fingerprints only see frame lengths; any change to the compressor's
/// output shows here.
#[test]
fn frame_bytes_match_the_golden_digest() {
    const GOLDEN: &str = "a2a3625a3e7f672a084ac691cccdfb8f9d636374241d669f3cdf6c095671f044";
    let registry = KeyRegistry::bootstrap(7, 4, 2);
    let mut generators: Vec<ElementGenerator> = (0..2)
        .map(|c| ElementGenerator::new(registry.lookup(ProcessId::client(c)).unwrap()))
        .collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut framed = Vec::new();
    let mut raw = Vec::new();
    for (i, count) in [64usize, 256, 64, 256, 64, 256, 64, 256]
        .into_iter()
        .enumerate()
    {
        let generator = &mut generators[i % 2];
        let elements = (0..count)
            .map(|_| {
                let r = next();
                // Mostly Arbitrum-sized, one in sixteen from the long tail.
                let size = if r % 16 == 0 {
                    96 + (r >> 8) % 16_289
                } else {
                    96 + (r >> 8) % 900
                };
                generator.next_element(size as u32, next())
            })
            .collect();
        Batch::new(elements, vec![]).encode_elements_into(&mut raw);
        let frame = setchain_compress::compress_chunked_with(&raw, 16 * 1024);
        assert_eq!(setchain_compress::decompress_chunked(&frame).unwrap(), raw);
        framed.extend_from_slice(&(frame.len() as u64).to_le_bytes());
        framed.extend_from_slice(&frame);
    }
    assert_eq!(sha256(&framed).to_hex(), GOLDEN);
}
