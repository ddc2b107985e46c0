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
    core.  {!Sched.Server} plugs in the conflict-aware parallel stages.

    The same {!Rex_core.App.factory} runs unchanged: its synchronization
    wrappers see unbound fibers and take the native path. *)

type t

type stage = {
  batch_max : int;  (** requests per proposed batch *)
  admit : string -> (string -> unit) -> unit;
      (** Take the next committed request (called in log order from the
          executor fiber); call the continuation with its response once
          executed. *)
  admit_barrier : (unit -> unit) -> unit;
      (** Take a timer tick: run the thunk after everything admitted
          before it and before everything admitted after. *)
  read_gate : string -> unit;
      (** Park a local read until the state it reads is settled. *)
}

val make :
  Sim.Net.t ->
  Sim.Rpc.t ->
  Rex_core.Config.t ->
  node:int ->
  paxos_store:Paxos.Store.t ->
  name:string ->
  stage:(execute:(string -> string) -> stage) ->
  Rex_core.App.factory ->
  t
(** The shell around the stage [stage ~execute] builds.  [execute] runs
    the session-wrapped app, answering ["ERR:handler-exception"] when the
    handler raises (a node crash still unwinds the caller).  [name]
    labels the session table and the shell's fibers. *)

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
