//! ABCI-style application interface.
//!
//! CometBFT separates the consensus engine from the replicated application
//! through ABCI; the paper implements the three Setchain algorithms "in the
//! ABCI section of the ledger" (Appendix E). This module is the equivalent
//! boundary: a [`LedgerNode`](crate::node::LedgerNode) drives an
//! [`Application`] through `check_tx` / `finalize_block` callbacks, and the
//! application talks back through [`AppCtx`] — submitting transactions
//! (CometBFT's `BroadcastTxAsync`), exchanging application-level messages
//! with peers (Hashchain's `Request_batch`), arming timers (collector
//! timeouts) and charging CPU time for hashing/compression work.

use rand::rngs::StdRng;
use setchain_crypto::ProcessId;
use setchain_simnet::{Context, SimDuration, SimTime, TimerToken, Wire};

use crate::messages::NetMsg;
use crate::types::{Block, TxData};

/// The replicated application run by every ledger node.
pub trait Application: Send + 'static {
    /// Ledger transaction type produced and consumed by this application.
    type Tx: TxData;
    /// Application-level message type (client requests and peer-to-peer).
    type Msg: Wire;

    /// Called once when the node starts.
    fn on_start(&mut self, _ctx: &mut AppCtx<'_, '_, '_, Self::Tx, Self::Msg>) {}

    /// Validates a transaction before it enters the mempool (ABCI `CheckTx`).
    /// Both locally submitted and gossiped transactions pass through here.
    fn check_tx(&self, _tx: &Self::Tx) -> bool {
        true
    }

    /// Called in block order, exactly once per committed block, on every
    /// correct node (ABCI `FinalizeBlock`). This is where the Setchain
    /// algorithms process `new_block(B)` notifications.
    fn finalize_block(
        &mut self,
        block: &Block<Self::Tx>,
        ctx: &mut AppCtx<'_, '_, '_, Self::Tx, Self::Msg>,
    );

    /// Called when an application-level message arrives from `from` (a client
    /// request or a peer server message).
    fn on_message(
        &mut self,
        _from: ProcessId,
        _msg: Self::Msg,
        _ctx: &mut AppCtx<'_, '_, '_, Self::Tx, Self::Msg>,
    ) {
    }

    /// Called when an application timer armed through
    /// [`AppCtx::set_app_timer`] fires.
    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut AppCtx<'_, '_, '_, Self::Tx, Self::Msg>) {
    }
}

/// Context handed to the application during callbacks.
pub struct AppCtx<'a, 'b, 'c, T, AM: Wire>
where
    T: TxData,
{
    pub(crate) node_id: ProcessId,
    pub(crate) sim: &'a mut Context<'c, NetMsg<T, AM>>,
    pub(crate) submitted: &'b mut Vec<T>,
}

impl<'a, 'b, 'c, T, AM> AppCtx<'a, 'b, 'c, T, AM>
where
    T: TxData,
    AM: Wire,
{
    /// Id of the node this application instance runs on.
    pub fn node_id(&self) -> ProcessId {
        self.node_id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Submits a transaction to the local mempool (CometBFT's
    /// `BroadcastTxAsync`): it will be validated with `check_tx`, gossiped to
    /// peers and eventually included in a block. This is the ledger
    /// `append` endpoint used by the Setchain algorithms.
    pub fn append(&mut self, tx: T) {
        self.submitted.push(tx);
    }

    /// Sends an application-level message to another process (server or
    /// client). Used by Hashchain's `Request_batch` and by servers answering
    /// client `get` requests.
    pub fn send_app(&mut self, to: ProcessId, msg: AM) {
        self.sim.send(to, NetMsg::App(msg));
    }

    /// Sends one application-level message to every process in `peers`.
    /// The payload is built once and Arc-shared: the send side and the event
    /// queue hold a single copy, with per-recipient clones deferred to
    /// delivery time (the last recipient takes the payload without one).
    pub fn broadcast_app<I>(&mut self, peers: I, msg: AM)
    where
        I: IntoIterator<Item = ProcessId>,
    {
        self.sim.send_to_all(peers, NetMsg::App(msg));
    }

    /// Arms an application timer; the token is returned verbatim in
    /// [`Application::on_timer`]. Tokens must be below 2^48.
    pub fn set_app_timer(&mut self, delay: SimDuration, token: TimerToken) {
        assert!(token < (1 << 48), "app timer token too large");
        self.sim
            .set_timer(delay, crate::node::APP_TIMER_BASE | token);
    }

    /// Charges simulated CPU time to this node (hashing, compression,
    /// signature checks performed by the application).
    pub fn consume_cpu(&mut self, amount: SimDuration) {
        self.sim.consume_cpu(amount);
    }

    /// Simulated CPU charged so far in this callback.
    pub fn cpu_consumed(&self) -> SimDuration {
        self.sim.cpu_consumed()
    }

    /// Deterministic RNG shared with the simulation.
    pub fn rng(&mut self) -> &mut StdRng {
        self.sim.rng()
    }
}
