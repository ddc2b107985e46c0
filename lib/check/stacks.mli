(** The registry of ordered-log stacks: SMR, CBASE, early scheduling and
    Eve are one shell ({!Smr.t}) with four execution stages, each built
    here from its name, and each deployed the same way.  Rex has its own
    deploy path ({!Rex_core.Cluster}), and the sharded stack its own
    ({!Shard.Fleet}). *)

type kind = Smr | Cbase | Early | Eve

val all : kind list
val name : kind -> string
(** ["smr"], ["cbase"], ["early"], ["eve"]. *)

val of_string : string -> kind option

val create :
  kind ->
  Sim.Net.t ->
  Sim.Rpc.t ->
  Rex_core.Config.t ->
  node:int ->
  paxos_store:Paxos.Store.t ->
  ?miss_rate:float ->
  conflict:Sched.Conflict.oracle ->
  Rex_core.App.factory ->
  Smr.t
(** One replica of the stack.  [conflict] feeds the stages that schedule
    by conflict keys (SMR ignores it); [miss_rate] is Eve's alone. *)

(** {1 The standard deployment} *)

val replicas : int list
(** [[0; 1; 2]]: the replica nodes. *)

val client_node : int
(** [3]: where clients live. *)

type deployed = {
  eng : Sim.Engine.t;
  net : Sim.Net.t;
  rpc : Sim.Rpc.t;
  servers : Smr.t array;
      (** indexed by node; {!upgrade_node} replaces one in place *)
  remake : int -> Smr.t;  (** a fresh server on a node's own store *)
}

val deploy :
  ?cores_per_node:int ->
  ?miss_rate:float ->
  seed:int ->
  conflict:Sched.Conflict.oracle ->
  kind ->
  Rex_core.Config.t ->
  Rex_core.App.factory ->
  deployed
(** A four-node engine ([cores_per_node] default 8): three replicas on
    {!replicas}, started and run until a leader is elected (1 s of
    virtual time, up to 3 s if none is yet).  The config's [replicas]
    must be {!replicas}. *)

val leader : deployed -> Smr.t option
(** The live primary, if any. *)

val live : deployed -> Smr.t list

val upgrade_node : deployed -> int -> Smr.t
(** Crash the node, re-create its server over the {e same} Paxos store,
    replay the committed prefix to rebuild app and session state, start
    it, and return it — the rolling-upgrade path. *)
