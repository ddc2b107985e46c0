(** The ordered-log shell shared by every consensus-execute stack, and
    the standard replicated state machine built on it — the baseline Rex
    is measured against (paper Fig. 1, left; "RSM mode" in Fig. 7).

    Consensus-execute: the leader batches incoming requests, drives each
    batch through a Paxos instance, and every replica hands committed
    requests, in log order, to an execution {!stage}.  Application
    background timers are ordered the same way: the leader proposes a
    timer-tick pseudo-request, which the stage runs as a barrier, so all
    replicas run the callback at the same point in the request order.

    {!create} plugs in the serial stage: every replica executes committed
    requests {e sequentially} in a single executor fiber — the
    deterministic sequential execution model that wastes all but one
    core.  {!Sched.Server} plugs in the conflict-aware parallel stages,
    and {!Eve} the execute-verify stage, which forms conflict-free
    batches and runs each committed batch as a whole.

    The same {!Rex_core.App.factory} runs unchanged: its synchronization
    wrappers see unbound fibers and take the native path. *)

type t

(** What the shell hands a stage when it builds one. *)
type env = {
  execute : string -> string;
      (** The session-wrapped app step: answers ["ERR:handler-exception"]
          when the handler raises (a node crash still unwinds the
          caller). *)
  app : Rex_core.App.t;
      (** The session-wrapped app itself, for a stage that snapshots and
          rolls back state. *)
  leader_hint : unit -> int option;  (** the Paxos replica's leader guess *)
}

(** How a replica runs one committed batch. *)
type runner =
  | Per_request of {
      admit : string -> (string -> unit) -> unit;
          (** Take the next committed request (called in log order from
              the executor fiber); call the continuation with its
              response once executed. *)
      admit_barrier : (unit -> unit) -> unit;
          (** Take a timer tick: run the thunk after everything admitted
              before it and before everything admitted after. *)
    }
  | Per_batch of (instance:int -> string list -> string list)
      (** Run the whole (non-empty) batch on the executor fiber and
          return its final responses in order; replies go out and the instance retires
          only then.  Such a stage cannot run timer ticks: {!make}
          rejects apps with background timers. *)

type stage = {
  batch_max : int;  (** requests per proposed batch *)
  former : unit -> string -> bool;
      (** The leader's batch former: [former ()] starts a batch and is
          offered the queued requests in FIFO order; a refused request
          keeps its order and waits, behind the rest, for a later
          batch. *)
  runner : runner;
  read_gate : string -> unit;
      (** Park a local read until the state it reads is settled. *)
}

val fifo : unit -> string -> bool
(** The default former: every request joins, first in, first out. *)

val make :
  Sim.Net.t ->
  Sim.Rpc.t ->
  Rex_core.Config.t ->
  node:int ->
  paxos_store:Paxos.Store.t ->
  name:string ->
  stage:(env -> stage) ->
  Rex_core.App.factory ->
  t
(** The shell around the stage [stage env] builds.  [name] labels the
    session table and the shell's fibers.  [propose_interval] paces the
    batcher, which runs on the leader only.
    Raises [Invalid_argument] for an app with background timers under a
    {!Per_batch} stage. *)

val create :
  Sim.Net.t ->
  Sim.Rpc.t ->
  Rex_core.Config.t ->
  node:int ->
  paxos_store:Paxos.Store.t ->
  Rex_core.App.factory ->
  t
(** Classic SMR: the serial stage, named ["smr"].  [Config.workers] is
    ignored: execution is sequential by design.  [propose_interval]
    paces batching. *)

val start : t -> unit

val replay : t -> unit
(** Queue the store's committed prefix for re-execution — the rolling
    upgrade path: a replacement server [create]d over the retired
    server's {!Paxos.Store.t} calls this before {!start} to rebuild app
    and session state. *)

val node : t -> int
val is_primary : t -> bool

val session_table : t -> Rex_core.Session.Table.t
(** The replica's client-session table (see {!Rex_core.Session}). *)

val frontend : t -> Rex_core.Frontend.t
(** The replica's client-facing frontend, for history taps. *)

val submit : t -> string -> (string option -> unit) -> unit
(** Leader only; answers [None] elsewhere, and to a request carrying the
    timer-tick prefix (only the leader's timer fibers propose ticks). *)

val query : t -> string -> string
val app_digest : t -> string
val executed_requests : t -> int

val checkpoint : t -> string
(** Park until every admitted request has executed (a consistent
    log-prefix cut), then snapshot app + session table through the codec
    path.  Call from a fiber. *)

val restore : t -> string -> unit
