(* The conflict-aware parallel SMR stacks: the ordered-log shell of
   [Smr] (leader batches, Paxos orders, all replicas execute) with
   {!Exec} — a conflict DAG ([Cbase]) or class-to-worker queues
   ([Early]) — as its execution stage.  No recording, no trace shipping:
   determinism comes from the conflict oracle alone (commuting requests
   may interleave freely; conflicting ones execute in log order on every
   replica).  A lease/quorum read parks until no in-flight write claims
   one of its conflict keys. *)

open Sim
module R = Rex_core

(* Everything but [create] is the shell's own. *)
include Smr

(* Bigger than Smr's 64: with one instance in flight the agreement
   round-trip is paid per batch, and unlike record/replay nothing here
   grows with batch size, so large batches amortize the RTT and keep
   the worker pool fed. *)
let batch_max = 256

let create net rpc cfg ~node ~paxos_store ~mode ~conflict factory =
  let eng = Net.engine net in
  make net rpc cfg ~node ~paxos_store
    ~name:("sched-" ^ Exec.mode_name mode)
    factory
    ~stage:(fun env ->
      (* The session-wrapped oracle prepends the per-client ordering key,
         so one client's requests never execute concurrently. *)
      let exec =
        Exec.create (Par.Backend.of_sim eng) ~node ~mode
          ~workers:(max 1 cfg.R.Config.workers)
          ~conflict:
            (Conflict.with_session ~obs:(Engine.obs eng) ~subsystem:"sched"
               ~node conflict)
          ~execute:env.execute
      in
      {
        batch_max;
        former = fifo;
        runner =
          Per_request
            { admit = Exec.admit exec; admit_barrier = Exec.admit_barrier exec };
        read_gate = (fun request -> Exec.park_until_quiet exec (conflict request));
      })
