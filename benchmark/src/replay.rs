//! The traced run's per-layer numbers.
//!
//! Tracing inside the crates is a later issue, so the layers are timed from
//! here: after the traced simulation ends, this module takes the run's exact
//! elements, batches and epochs off server 0 and calls each layer's public
//! functions on them again, one span per call site. A layer's `busy_s` is
//! then `unit cost × the run's exact count` of that operation. Where a
//! replayed call contains another layer's work (MAC checks inside
//! `validate_elements`, the event loop under the ledger), that child's
//! separately measured cost is subtracted to leave self time.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use setchain::collector::Batch;
use setchain::hashchain::batch_hash;
use setchain::proofs::{make_epoch_proof_for_digest, verify_epoch_proof_digest};
use setchain::{
    epoch_hash, verify_epoch, Algorithm, Collector, Element, EpochProof, QuotaConfig, QuotaState,
    ServerByzMode, ServerCore, SetchainTrace, StoreConfig,
};
use setchain_crypto::{merkle_root, sha512, HmacSha256Key, KeyRegistry, ProcessId};
use setchain_ledger::{
    AppCtx, Application, Block, ByzMode, LedgerConfig, LedgerNode, LedgerTrace, NetMsg, TxData,
    TxId,
};
use setchain_simnet::{
    Context, Process, SimDuration, SimTime, Simulation, SimulationConfig, TimerToken, Wire,
};
use setchain_store::{DiskStore, EpochRecord, StateStore};
use setchain_workload::{ArbitrumWorkload, Deployment};

use crate::run::{Counts, RunOpts, RunOutput};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::Workload;

/// Chunk length Compresschain compresses batches with (its private
/// `BATCH_CHUNK_LEN`).
const COMPRESS_CHUNK_LEN: usize = 16 * 1024;

/// Batches sampled for the codec replay: enough bytes for a stable rate
/// without materializing the whole run (hundreds of MiB).
const CODEC_SAMPLE_BATCHES: usize = 256;

/// Elements generated for `workload.generate_ns_per_elem`.
const GENERATE_SAMPLE: usize = 100_000;

/// Epochs verified end to end for `setchain.verify_epoch_ns`: each call
/// rehashes the epoch once per proof, so a handful is plenty.
const VERIFY_EPOCH_SAMPLE: usize = 8;

fn ns_per(secs: f64, count: u64) -> f64 {
    secs * 1e9 / count.max(1) as f64
}

/// One epoch of server 0's history.
struct Epoch<'a> {
    number: u64,
    elements: &'a [Element],
    proofs: &'a [EpochProof],
}

/// Message of the bare event-loop simulation.
#[derive(Clone, Debug)]
struct Ping;

impl Wire for Ping {
    fn wire_size(&self) -> usize {
        128
    }
}

/// A process that does no work: on each tick it pings the next process and
/// re-arms. What is left is the simulator's own cost per event.
struct Idle {
    next: ProcessId,
}

impl Process<Ping> for Idle {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.set_timer(SimDuration::from_micros(100), 0);
    }
    fn on_message(&mut self, _from: ProcessId, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}
    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, Ping>) {
        ctx.send(self.next, Ping);
        ctx.set_timer(SimDuration::from_micros(100), 0);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// An opaque transaction of a given size for the null-application ledger.
#[derive(Clone, Debug)]
struct NullTx {
    id: u128,
    size: usize,
}

impl TxData for NullTx {
    fn tx_id(&self) -> TxId {
        TxId(self.id)
    }
    fn wire_size(&self) -> usize {
        self.size
    }
}

#[derive(Clone, Debug)]
struct Submit(NullTx);

impl Wire for Submit {
    fn wire_size(&self) -> usize {
        self.0.size
    }
}

/// Appends what it is sent and ignores committed blocks: the ledger with
/// no Setchain on top.
struct NullApp;

impl Application for NullApp {
    type Tx = NullTx;
    type Msg = Submit;
    fn finalize_block(
        &mut self,
        _block: &Block<NullTx>,
        _ctx: &mut AppCtx<'_, '_, '_, NullTx, Submit>,
    ) {
    }
    fn on_message(
        &mut self,
        _from: ProcessId,
        msg: Submit,
        ctx: &mut AppCtx<'_, '_, '_, NullTx, Submit>,
    ) {
        ctx.append(msg.0);
    }
}

/// Cost of one simulator event with no process work attached.
fn simnet_ns_per_event(tracer: &mut Tracer, servers: usize, seed: u64) -> f64 {
    let mut sim: Simulation<Ping> = Simulation::new(SimulationConfig {
        seed,
        ..SimulationConfig::default()
    });
    for i in 0..servers {
        let next = ProcessId::server((i + 1) % servers);
        sim.add_process(ProcessId::server(i), Box::new(Idle { next }));
    }
    // 2 events per process per 100 µs tick: about a million events.
    let sim_secs = (50 / servers as u64).max(1);
    let span = tracer.begin("simnet.bare_event_loop", "simnet");
    sim.run_until(SimTime::from_secs(sim_secs));
    let events = sim.events_processed();
    ns_per(tracer.end(span, events), events)
}

/// Ledger self time for the run's transaction load: `servers` validators
/// over [`NullApp`], fed the traced run's per-block transaction counts and
/// mean sizes, minus the event loop underneath.
fn ledger_busy_s(
    tracer: &mut Tracer,
    w: &Workload,
    d: &Deployment,
    end_secs: u64,
    ns_per_event: f64,
    seed: u64,
) -> f64 {
    let n = w.servers;
    let registry = KeyRegistry::bootstrap(seed, n, 0);
    let mut config = LedgerConfig::with_validators(n);
    if let Some(bytes) = w.block_bytes {
        config.max_block_bytes = bytes;
    }
    let mut sim: Simulation<NetMsg<NullTx, Submit>> = Simulation::new(SimulationConfig {
        seed,
        ..SimulationConfig::default()
    });
    for i in 0..n {
        let id = ProcessId::server(i);
        let keys = registry.lookup(id).expect("bootstrapped");
        let node = LedgerNode::new(
            id,
            config.clone(),
            keys,
            registry.clone(),
            NullApp,
            LedgerTrace::disabled(),
            ByzMode::Correct,
        );
        sim.add_process(id, Box::new(node));
    }
    // Each block's transactions are offered, evenly spaced, during the block
    // interval before the one that committed them in the traced run.
    let mut next_id = 0u128;
    let mut prev = SimTime::ZERO;
    for block in d.ledger_trace.blocks() {
        let span_us = (block.committed_at - prev).as_micros().max(1);
        for k in 0..block.txs {
            let at = SimTime(prev.0 + span_us * k as u64 / block.txs as u64);
            let tx = NullTx {
                id: next_id,
                size: block.bytes / block.txs,
            };
            let to = ProcessId::server(next_id as usize % n);
            sim.schedule_message(at, ProcessId::client(0), to, NetMsg::App(Submit(tx)));
            next_id += 1;
        }
        prev = block.committed_at;
    }
    let span = tracer.begin("ledger.null_app_replay", "ledger");
    sim.run_until(SimTime::from_secs(end_secs + 2));
    let events = sim.events_processed();
    let secs = tracer.end(span, events);
    (secs - events as f64 * ns_per_event / 1e9).max(0.0)
}

/// Store unit costs from appending, reopening and reading back server 0's
/// epochs through a fresh `DiskStore`.
struct StoreCosts {
    append_us: Vec<f64>,
    reopen_s: f64,
    load_epoch_us: f64,
}

fn store_costs(
    tracer: &mut Tracer,
    epochs: &[Epoch<'_>],
    digests: &[[u8; 64]],
    dir: &Path,
) -> StoreCosts {
    let cfg = StoreConfig::new("");
    let open = || {
        DiskStore::open(dir, cfg.segment_bytes, cfg.checkpoint_every)
            .expect("store opens in scratch dir")
    };
    let records: Vec<EpochRecord> = epochs
        .iter()
        .zip(digests)
        .map(|(e, digest)| {
            let elements = e.elements.iter().flat_map(|el| el.pack()).collect();
            let mut proofs = Vec::with_capacity(e.proofs.len() * setchain_store::PROOF_LEN);
            for p in e.proofs {
                proofs.extend_from_slice(&p.epoch.to_le_bytes());
                proofs.extend_from_slice(&p.signer.0.to_le_bytes());
                proofs.extend_from_slice(&p.signature.bytes);
            }
            EpochRecord::new(e.number, *digest, elements, proofs)
        })
        .collect();
    let mut store = open();
    let mut append_us = Vec::with_capacity(records.len());
    let span = tracer.begin("store.append_epoch", "store");
    for record in &records {
        let t = Instant::now();
        store.append_epoch(record).expect("append to scratch store");
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    tracer.end(span, records.len() as u64);
    drop(store);
    let span = tracer.begin("store.open", "store");
    let store = open();
    let reopen_s = tracer.end(span, 1);
    let span = tracer.begin("store.load_epoch", "store");
    for record in &records {
        black_box(
            store
                .load_epoch(record.epoch)
                .expect("load from scratch store"),
        );
    }
    let load_s = tracer.end(span, records.len() as u64);
    StoreCosts {
        append_us,
        reopen_s,
        load_epoch_us: load_s * 1e6 / records.len().max(1) as f64,
    }
}

/// Adds every traced-run metric to `out`: the `.detailed()` traces' stage
/// times and block bytes, then the replayed unit costs and `busy_s` totals.
pub fn traced_metrics(
    w: &Workload,
    opts: RunOpts,
    d: &Deployment,
    c: &Counts,
    scratch: &Path,
    tracer: &mut Tracer,
    out: &mut RunOutput,
) {
    let n = w.servers;
    let servers = c.servers as f64;
    let registry = &d.registry;
    let state = d.server(0).state();
    let epochs: Vec<Epoch<'_>> = (1..=state.epoch())
        .filter_map(|number| {
            Some(Epoch {
                number,
                elements: state.epoch_elements(number)?,
                proofs: state.proofs_for(number),
            })
        })
        .collect();
    let digests: Vec<[u8; 64]> = epochs
        .iter()
        .map(|e| state.epoch_digest(e.number).expect("epoch recorded").0)
        .collect();
    let elements: Vec<Element> = epochs
        .iter()
        .flat_map(|e| e.elements.iter().copied())
        .collect();
    let count = elements.len() as u64;

    // ---- ledger and setchain stage times from the detailed traces ----
    let blocks = d.ledger_trace.blocks();
    let block_bytes: usize = blocks.iter().map(|b| b.bytes).sum();
    out.put(
        "ledger.bytes_per_elem",
        block_bytes as f64 / count.max(1) as f64,
    );
    let (mut to_ledger, mut to_commit, mut mempool_wait) = (Vec::new(), Vec::new(), HashMap::new());
    for r in d.trace.element_records() {
        let Some(tx) = d.trace.tx_of(&r.id) else {
            continue;
        };
        let Some(in_block) = d.ledger_trace.ledger_time(&tx) else {
            continue;
        };
        to_ledger.push((in_block - r.added_at).as_micros() as f64 / 1e3);
        if let Some(done) = r.committed_at {
            to_commit.push((done - in_block).as_micros() as f64 / 1e3);
        }
        if let Some(first) = d.ledger_trace.first_mempool(&tx) {
            mempool_wait
                .entry(tx)
                .or_insert((in_block - first).as_micros() as f64 / 1e3);
        }
    }
    let p50 = |mut v: Vec<f64>| {
        stats::sort(&mut v);
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(&v, 50.0)
        }
    };
    out.put("setchain.stage_ledger_p50_ms", p50(to_ledger));
    out.put("setchain.stage_commit_p50_ms", p50(to_commit));
    out.put(
        "ledger.mempool_wait_p50_ms",
        p50(mempool_wait.into_values().collect()),
    );

    let replay = tracer.begin("replay", "workload");

    // ---- crypto ----
    // A handful of clients: a linear scan beats hashing the id per element.
    let client_ids: std::collections::BTreeSet<ProcessId> =
        elements.iter().map(|e| e.client).collect();
    let client_keys: Vec<(ProcessId, HmacSha256Key)> = client_ids
        .into_iter()
        .filter_map(|id| Some((id, HmacSha256Key::new(&registry.lookup(id)?.secret.0))))
        .collect();
    let key_of = |client: ProcessId| {
        &client_keys
            .iter()
            .find(|(id, _)| *id == client)
            .expect("registered client")
            .1
    };
    let span = tracer.begin("crypto.mac_verify", "crypto");
    let valid = elements
        .iter()
        .filter(|e| e.auth_matches(key_of(e.client)))
        .count();
    let mac_s = tracer.end(span, count);
    assert_eq!(
        valid as u64, count,
        "every committed element carries a valid MAC"
    );
    let mac_ns = ns_per(mac_s, count);

    let buffer: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 + i / 7) as u8).collect();
    let span = tracer.begin("crypto.sha512", "crypto");
    for _ in 0..32 {
        black_box(sha512(black_box(&buffer)));
    }
    let sha_s = tracer.end(span, 32 << 20);

    let keys0 = registry
        .lookup(ProcessId::server(0))
        .expect("server 0 registered");
    let rounds = (2000 / epochs.len().max(1)).max(1);
    let span = tracer.begin("crypto.sign_epoch_proof", "crypto");
    for _ in 0..rounds {
        for (e, digest) in epochs.iter().zip(&digests) {
            black_box(make_epoch_proof_for_digest(
                &keys0,
                e.number,
                &setchain_crypto::Digest512(*digest),
            ));
        }
    }
    let signs = (rounds * epochs.len()) as u64;
    let sign_ns = ns_per(tracer.end(span, signs), signs);
    let span = tracer.begin("crypto.verify_epoch_proof", "crypto");
    let mut verifies = 0u64;
    for _ in 0..rounds {
        for (e, digest) in epochs.iter().zip(&digests) {
            let digest = setchain_crypto::Digest512(*digest);
            for proof in e.proofs {
                assert!(verify_epoch_proof_digest(registry, n, proof, &digest));
                verifies += 1;
            }
        }
    }
    let verify_ns = ns_per(tracer.end(span, verifies), verifies);

    let packed: Vec<[u8; Element::PACKED_LEN]> =
        elements.iter().take(1 << 16).map(|e| e.pack()).collect();
    let span = tracer.begin("crypto.merkle_root", "crypto");
    black_box(merkle_root(&packed));
    let merkle_ns = ns_per(tracer.end(span, packed.len() as u64), packed.len() as u64);
    drop(packed);

    // ---- setchain ----
    let mut config = d.config.clone();
    config.store = None;
    config.quota = None;
    let mut core = ServerCore::new(
        keys0,
        registry.clone(),
        config,
        SetchainTrace::new(),
        ServerByzMode::Correct,
    );
    let span = tracer.begin("setchain.validate_elements", "setchain");
    for chunk in elements.chunks(w.collector) {
        assert!(core.validate_elements(chunk).iter().all(|ok| *ok));
    }
    let validate_s = tracer.end(span, count);
    drop(core);
    let validate_ns = (ns_per(validate_s, count) - mac_ns).max(0.0);

    let mut collector = Collector::new(w.collector);
    let mut batches: Vec<Batch> = Vec::with_capacity(elements.len() / w.collector + 1);
    let span = tracer.begin("setchain.collector", "setchain");
    for e in &elements {
        collector.add_element(*e);
        if collector.is_ready() {
            batches.push(collector.flush(SimTime::ZERO));
        }
    }
    let collector_ns = ns_per(tracer.end(span, count), count);

    let batched: u64 = batches.iter().map(|b| b.elements.len() as u64).sum();
    let span = tracer.begin("setchain.batch_hash", "setchain");
    for b in &batches {
        black_box(batch_hash(&b.elements, &b.proofs));
    }
    let batch_hash_ns = ns_per(tracer.end(span, batched), batched);

    let span = tracer.begin("setchain.epoch_hash", "setchain");
    for (e, digest) in epochs.iter().zip(&digests) {
        assert_eq!(
            &epoch_hash(e.number, e.elements).0,
            digest,
            "replayed epoch digest differs"
        );
    }
    let epoch_hash_ns = ns_per(tracer.end(span, count), count);

    let sample = &epochs[..epochs.len().min(VERIFY_EPOCH_SAMPLE)];
    let span = tracer.begin("setchain.verify_epoch", "setchain");
    for e in sample {
        black_box(verify_epoch(
            registry, n, d.config.f, e.number, e.elements, e.proofs,
        ));
    }
    let verify_epoch_ns = ns_per(tracer.end(span, sample.len() as u64), sample.len() as u64);

    let mut quota = QuotaState::new(QuotaConfig::new());
    let span = tracer.begin("setchain.quota_admit", "setchain");
    for i in 0..count {
        black_box(quota.admit(ProcessId::client((i % 8) as usize), 1, SimTime(i * 100)));
    }
    let quota_ns = ns_per(tracer.end(span, count), count);

    // ---- compress (with the element materialization that feeds it) ----
    let sample = &batches[..batches.len().min(CODEC_SAMPLE_BATCHES)];
    let span = tracer.begin("setchain.materialize", "setchain");
    let raw: Vec<Vec<u8>> = sample
        .iter()
        .map(|b| {
            let mut buf = Vec::new();
            b.encode_elements_into(&mut buf);
            buf
        })
        .collect();
    let raw_bytes: u64 = raw.iter().map(|r| r.len() as u64).sum();
    let materialize_s = tracer.end(span, raw_bytes);
    let span = tracer.begin("compress.compress_chunked", "compress");
    let packed: Vec<Vec<u8>> = raw
        .iter()
        .map(|r| setchain_compress::compress_chunked_with(r, COMPRESS_CHUNK_LEN))
        .collect();
    let compress_s = tracer.end(span, raw_bytes);
    let packed_bytes: u64 = packed.iter().map(|p| p.len() as u64).sum();
    let span = tracer.begin("compress.decompress_chunked", "compress");
    for (p, r) in packed.iter().zip(&raw) {
        let back = setchain_compress::decompress_chunked(p).expect("own frames decode");
        assert_eq!(back.len(), r.len());
    }
    let decompress_s = tracer.end(span, raw_bytes);
    drop((raw, packed));
    let mb = |bytes: u64, secs: f64| bytes as f64 / 1e6 / secs.max(1e-9);

    // ---- store ----
    let store = w
        .store
        .then(|| store_costs(tracer, &epochs, &digests, &scratch.join("replay-store")));

    // ---- simnet, ledger, workload ----
    let event_ns = simnet_ns_per_event(tracer, n, opts.seed);
    let ledger_s = ledger_busy_s(tracer, w, d, w.end_secs(opts.quick), event_ns, opts.seed);
    let mut generator = ArbitrumWorkload::for_client(registry, ProcessId::client(0), opts.seed);
    let span = tracer.begin("workload.generate", "workload");
    black_box(generator.take(GENERATE_SAMPLE));
    let generate_ns = ns_per(
        tracer.end(span, GENERATE_SAMPLE as u64),
        GENERATE_SAMPLE as u64,
    );

    tracer.end(replay, 1);

    // ---- unit costs ----
    out.put("simnet.ns_per_event", event_ns);
    out.put("crypto.mac_verify_ns", mac_ns);
    out.put("crypto.sha512_mb_s", mb(32 << 20, sha_s));
    out.put("crypto.sign_ns", sign_ns);
    out.put("crypto.verify_ns", verify_ns);
    out.put("crypto.merkle_ns_per_elem", merkle_ns);
    out.put("setchain.validate_ns_per_elem", validate_ns);
    out.put("setchain.collector_ns_per_elem", collector_ns);
    out.put("setchain.batch_hash_ns_per_elem", batch_hash_ns);
    out.put("setchain.epoch_hash_ns_per_elem", epoch_hash_ns);
    out.put("setchain.verify_epoch_ns", verify_epoch_ns);
    out.put("setchain.quota_admit_ns", quota_ns);
    out.put("compress.compress_mb_s", mb(raw_bytes, compress_s));
    out.put("compress.decompress_mb_s", mb(raw_bytes, decompress_s));
    out.put("workload.generate_ns_per_elem", generate_ns);

    // ---- busy_s: unit cost × the run's exact count ----
    let hashchain = w.algorithm == Algorithm::Hashchain;
    let compresschain = w.algorithm == Algorithm::Compresschain;
    let all_elems = c.history_elements as f64;
    let simnet_busy = c.events as f64 * event_ns / 1e9;
    // Every server signs each epoch it creates and verifies each proof it
    // receives; Hashchain servers also sign every hash-batch once and check
    // every server's signature on it.
    let hash_batches = if hashchain {
        c.batches_flushed as f64
    } else {
        0.0
    };
    let crypto_busy = (c.mac_verifies as f64 * mac_ns
        + (c.epochs_created as f64 + hash_batches * servers) * sign_ns
        + (c.proofs_received as f64 + hash_batches * servers * servers) * verify_ns)
        / 1e9;
    // The origin compresses each element once; every other server
    // decompresses it.
    let in_bytes = if compresschain {
        elements.iter().map(|e| e.size as f64).sum::<f64>()
    } else {
        0.0
    };
    let per_byte = |secs: f64| secs / raw_bytes.max(1) as f64;
    let compress_busy =
        in_bytes * (per_byte(compress_s) + (servers - 1.0) * per_byte(decompress_s));
    let client_adds = if w.flood {
        (c.added + c.attacker_sent) as f64
    } else {
        0.0
    };
    let setchain_busy = (c.mac_verifies as f64 * validate_ns
        + c.adds_accepted as f64 * collector_ns
        + if hashchain {
            all_elems * servers * batch_hash_ns
        } else {
            0.0
        }
        + all_elems * servers * epoch_hash_ns
        + client_adds * quota_ns)
        / 1e9
        + in_bytes * per_byte(materialize_s);
    let store_busy = store
        .as_ref()
        .map_or(0.0, |s| s.append_us.iter().sum::<f64>() / 1e6 * servers);
    let workload_busy = (c.added + c.attacker_sent) as f64 * generate_ns / 1e9;

    out.put("simnet.busy_s", simnet_busy);
    out.put("ledger.busy_s", ledger_s);
    out.put("crypto.busy_s", crypto_busy);
    out.put(
        "compress.batches",
        if compresschain {
            c.batches_flushed as f64
        } else {
            0.0
        },
    );
    out.put("compress.in_bytes", in_bytes);
    out.put(
        "compress.ratio",
        raw_bytes as f64 / packed_bytes.max(1) as f64,
    );
    out.put("compress.busy_s", compress_busy);
    out.put("setchain.busy_s", setchain_busy);
    let (p50, p99) = store.as_ref().map_or((0.0, 0.0), |s| {
        let mut v = s.append_us.clone();
        stats::sort(&mut v);
        (stats::percentile(&v, 50.0), stats::percentile(&v, 99.0))
    });
    out.put("store.append_us_p50", p50);
    out.put("store.append_us_p99", p99);
    out.put("store.busy_s", store_busy);
    out.put("store.reopen_s", store.as_ref().map_or(0.0, |s| s.reopen_s));
    out.put(
        "store.load_epoch_us",
        store.as_ref().map_or(0.0, |s| s.load_epoch_us),
    );
    out.put("workload.busy_s", workload_busy);
    let attributed = simnet_busy
        + ledger_s
        + crypto_busy
        + compress_busy
        + setchain_busy
        + store_busy
        + workload_busy;
    let wall_s = out.get("wall_s").expect("the run reports its window first");
    out.put("trace.attributed_share", attributed / wall_s);
}
