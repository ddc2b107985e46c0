(** Conflict-aware parallel SMR stacks behind the shared frontend
    (DESIGN.md §12): the ordered-log shell of {!Smr} with {!Exec} as its
    execution stage — a CBASE-style conflict DAG ([Cbase]) or early
    class-to-worker scheduling ([Early]) instead of a single sequential
    executor.  No record/replay: commuting requests interleave freely,
    conflicting ones execute in log order on every replica, so state
    stays identical without a trace.

    Background timers are proposed pseudo-requests executed as global
    barriers: every replica runs the callback at the same log position.
    Lease/quorum reads park until no in-flight write claims one of the
    read's conflict keys. *)

type t = Smr.t

val create :
  Sim.Net.t ->
  Sim.Rpc.t ->
  Rex_core.Config.t ->
  node:int ->
  paxos_store:Paxos.Store.t ->
  mode:Exec.mode ->
  conflict:Conflict.oracle ->
  Rex_core.App.factory ->
  t
(** [Config.workers] sizes the worker pool (min 1); [conflict] is the
    app-level oracle, wrapped with {!Conflict.with_session} internally.
    [propose_interval] paces batching, as in the other stacks.  The
    stack is labelled ["sched-cbase"] or ["sched-early"]. *)

(** {1 The shell's own, re-exported: see {!Smr} for the rest} *)

val start : t -> unit
val node : t -> int
val is_primary : t -> bool
val frontend : t -> Rex_core.Frontend.t
val app_digest : t -> string
