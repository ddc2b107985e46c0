(** An execute-verify replica in the style of Eve (Kapritsos et al.,
    OSDI 2012) — the system paper §5 compares Rex against — built as one
    more execution stage of the ordered-log shell ({!Smr.make}).

    On the leader, the stage's batch former is a {e mixer}: it packs
    queued requests into batches whose members are believed
    non-conflicting (using an application-supplied conflict-key oracle).
    The batch goes through consensus like any other; every replica then
    runs the committed batch as a whole: it snapshots its state, executes
    the batch {e concurrently} on [Config.workers] fibers, and sends a
    digest of state and responses to the leader.  If the digests diverge
    — a conflict the mixer missed — all replicas roll the batch back and
    re-execute it {e sequentially}, which is deterministic.  Only then do
    replies go out; reads park while a batch is in flight, so they never
    observe state that may still roll back.

    Faithful to the paper's critique, this implementation:
    - treats a whole request as the unit of parallelism (the f = 100%
      configuration of Fig. 8a): two requests that share any conflict key
      never run in the same batch, no matter how briefly they would have
      held a common lock;
    - rejects applications with background timers — "Eve uses the end of
      processing a request batch as the point to check state consistency,
      assuming that the incoming requests are the only triggers to state
      changes" (§5);
    - supports [miss_rate], the probability that the mixer misses a true
      conflict, to study the cost of imperfect mixers (rollback + serial
      re-execution).

    Everything else — intake, leases and admission ([Config.t]), replay,
    checkpoints — is the shell's.  The mixer runs every 200 µs and packs
    at most 64 requests.  Obs counters under subsystem [eve], labelled by
    node: [batches], [batched_requests], [rollbacks] (batches that
    diverged and were re-run serially), [requests_executed]; histogram
    [batch_size]. *)

val create :
  Sim.Net.t ->
  Sim.Rpc.t ->
  Rex_core.Config.t ->
  node:int ->
  paxos_store:Paxos.Store.t ->
  ?miss_rate:float ->
  conflict:Sched.Conflict.oracle ->
  Rex_core.App.factory ->
  Smr.t
(** [miss_rate] (default 0): P(mixer misses a true conflict).  [conflict]
    is the app-level oracle, wrapped with {!Sched.Conflict.with_session}
    internally.  [Config.propose_interval] is ignored.  Raises
    [Invalid_argument] if the application registers background timers
    (unsupported by the execute-verify model, §5). *)
