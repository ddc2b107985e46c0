(* A replicated conflict-aware parallel SMR stack: consensus-execute
   like [Smr] (leader batches, Paxos orders, all replicas execute), but
   the committed stream feeds {!Exec} — a conflict DAG ([Cbase]) or
   class-to-worker queues ([Early]) — instead of a single executor
   fiber.  No recording, no trace shipping: determinism comes from the
   conflict oracle alone (commuting requests may interleave freely;
   conflicting ones execute in log order on every replica).

   Structure deliberately mirrors [lib/smr/smr.ml]: same batcher, same
   timer-as-pseudo-request scheme (a timer tick becomes an {!Exec}
   barrier, so every replica flushes at the same log position), same
   frontend registration.  What changes is the execution stage and the
   read path: a lease/quorum read parks until no in-flight write claims
   one of its conflict keys. *)

open Sim
module R = Rex_core

(* Bigger than Smr's 64: with one instance in flight the agreement
   round-trip is paid per batch, and unlike record/replay nothing here
   grows with batch size, so large batches amortize the RTT and keep
   the worker pool fed. *)
let batch_max = 256
let timer_prefix = "\x00TIMER:"

type stats = {
  requests_executed : int;
  replies_sent : int;
  queries_served : int;
  proposals_sent : int;
  proposal_bytes : int;
  exec : Exec.stats;
}

type t = {
  eng : Engine.t;
  net : Net.t;
  cfg : R.Config.t;
  node_id : int;
  pstore : Paxos.Store.t;
  app : R.App.t;  (* session-wrapped: see [create] *)
  session : R.Session.Table.t;
  timers : R.Api.timer_spec array;
  exec : Exec.t;
  oracle : Conflict.oracle;  (* app-level, for read-key extraction *)
  mutable pax : Paxos.Replica.t option;
  mutable front : R.Frontend.t option;
  mutable leader : bool;
  mutable leader_epoch : int;
  queue : (string * (string option -> unit)) Queue.t;
  mutable inflight : (string * (string option -> unit) option list) option;
  exec_queue : (int * (string * (string option -> unit) option) list) Queue.t;
  mutable exec_waiters : Engine.waker list;
  applied_q : (int * int ref) Queue.t;  (* instance, requests left *)
  mutable applied : int;  (* highest instance fully executed locally *)
  mutable st_replies : int;
  mutable st_queries : int;
  mutable st_proposals : int;
  mutable st_proposal_bytes : int;
}

let node t = t.node_id
let is_primary t = t.leader
let session_table t = t.session
let exec t = t.exec

let frontend t =
  match t.front with
  | Some f -> f
  | None -> invalid_arg "Sched.Server.frontend: not registered"

let app_digest t = t.app.R.App.digest ()
let executed_requests t = (Exec.stats t.exec).Exec.executed

let stats t =
  {
    requests_executed = (Exec.stats t.exec).Exec.executed;
    replies_sent = t.st_replies;
    queries_served = t.st_queries;
    proposals_sent = t.st_proposals;
    proposal_bytes = t.st_proposal_bytes;
    exec = Exec.stats t.exec;
  }

let encode_batch = R.Frontend.encode_batch
let decode_batch = R.Frontend.decode_batch

let wake_dispatcher t =
  let ws = t.exec_waiters in
  t.exec_waiters <- [];
  List.iter Engine.wake ws

let is_timer request =
  String.length request > String.length timer_prefix
  && String.sub request 0 (String.length timer_prefix) = timer_prefix

(* Completions arrive out of order (that's the point — non-conflicting
   requests of consecutive batches overlap), but commits arrive in order
   ([max_inflight = 1]): each completion decrements its own instance's
   counter, and the applied index advances by draining fully-executed
   instances from the head of [applied_q]. *)
let advance_applied t =
  let rec advance () =
    match Queue.peek_opt t.applied_q with
    | Some (instance, remaining) when !remaining = 0 ->
      ignore (Queue.pop t.applied_q);
      if instance > t.applied then t.applied <- instance;
      advance ()
    | Some _ | None -> ()
  in
  advance ()

(* A single dispatcher fiber admits committed batches into the Exec
   stage strictly in log order (admission may park on the pool mutex;
   funnelling through one fiber keeps instance i fully admitted before
   i+1 regardless). *)
let dispatcher_loop t () =
  let rec next_batch () =
    match Queue.take_opt t.exec_queue with
    | Some b -> b
    | None ->
      Engine.park (fun w -> t.exec_waiters <- w :: t.exec_waiters);
      next_batch ()
  in
  let admit_one remaining (request, cb) =
    if is_timer request then begin
      let idx =
        int_of_string
          (String.sub request (String.length timer_prefix)
             (String.length request - String.length timer_prefix))
      in
      Exec.admit_barrier t.exec (fun () ->
          if idx >= 0 && idx < Array.length t.timers then
            t.timers.(idx).R.Api.t_callback ();
          decr remaining;
          advance_applied t)
    end
    else
      Exec.admit t.exec request (fun resp ->
          (match cb with
          | Some cb ->
            t.st_replies <- t.st_replies + 1;
            cb (Some resp)
          | None -> ());
          decr remaining;
          advance_applied t)
  in
  let rec loop () =
    let instance, batch = next_batch () in
    let n = List.length batch in
    if n = 0 then begin
      if instance > t.applied then t.applied <- instance
    end
    else begin
      let remaining = ref n in
      Queue.push (instance, remaining) t.applied_q;
      List.iter (admit_one remaining) batch
    end;
    loop ()
  in
  loop ()

let on_committed t instance value =
  match decode_batch value with
  | exception Codec.Decode_error _ -> ()
  | reqs ->
    let cbs =
      match t.inflight with
      | Some (enc, cbs) when enc = value ->
        t.inflight <- None;
        cbs
      | Some _ | None -> List.map (fun _ -> None) reqs
    in
    let cbs =
      if List.length cbs = List.length reqs then cbs
      else List.map (fun _ -> None) reqs
    in
    Queue.push (instance, List.combine reqs cbs) t.exec_queue;
    wake_dispatcher t

(* Rolling-upgrade support: a replacement server created over the old
   server's store re-admits the committed prefix through the scheduler
   to rebuild app and session state.  Call between [create] and
   [start]. *)
let replay t = Paxos.Replica.replay_committed t.pstore (on_committed t)

let spawn_leader_fibers t =
  t.leader_epoch <- t.leader_epoch + 1;
  let epoch = t.leader_epoch in
  let live () = t.leader && t.leader_epoch = epoch in
  ignore
    (Engine.spawn t.eng ~node:t.node_id ~name:"sched.batcher" (fun () ->
         while live () do
           Engine.sleep t.cfg.R.Config.propose_interval;
           if live () && t.inflight = None && not (Queue.is_empty t.queue) then begin
             let pax = Option.get t.pax in
             if Paxos.Replica.is_leader pax && not (Paxos.Replica.in_flight pax)
             then begin
               let rec drain k acc =
                 if k = 0 then List.rev acc
                 else
                   match Queue.take_opt t.queue with
                   | None -> List.rev acc
                   | Some r -> drain (k - 1) (r :: acc)
               in
               let items = drain batch_max [] in
               if items <> [] then begin
                 let reqs = List.map fst items in
                 let enc = encode_batch reqs in
                 if Paxos.Replica.propose pax enc then begin
                   t.inflight <- Some (enc, List.map (fun (_, cb) -> Some cb) items);
                   t.st_proposals <- t.st_proposals + 1;
                   t.st_proposal_bytes <- t.st_proposal_bytes + String.length enc
                 end
                 else List.iter (fun (_, cb) -> cb None) items
               end
             end
           end
         done));
  (* Timers become proposed pseudo-requests → Exec barriers: every
     replica runs the callback at the same log position, so e.g. kyoto's
     autosync flushes identical dirty sets everywhere. *)
  Array.iteri
    (fun idx spec ->
      ignore
        (Engine.spawn t.eng ~node:t.node_id
           ~name:("sched.timer." ^ spec.R.Api.t_name)
           (fun () ->
             while live () do
               Engine.sleep spec.R.Api.t_interval;
               if live () then
                 Queue.push
                   (Printf.sprintf "%s%d" timer_prefix idx, fun _ -> ())
                   t.queue
             done)))
    t.timers

let create net rpc cfg ~node ~paxos_store ~mode ~conflict factory =
  let eng = Net.engine net in
  let backend = Par.Backend.of_sim eng in
  (* Worker fibers are never bound to trace slots: the app's sync
     wrappers take the native path, exactly like [Smr]. *)
  let rt = Rexsync.Runtime.create backend ~node ~slots:1 in
  let api = R.Api.make rt in
  let stack = "sched-" ^ Exec.mode_name mode in
  let session = R.Session.Table.create (Engine.obs eng) ~stack ~node () in
  (* The session-wrapped oracle prepends the per-client ordering key, so
     one client's requests never execute concurrently with each other —
     that is what keeps the in-execute duplicate check deterministic
     under parallel execution. *)
  let app = R.Session.wrap ~table:session ~dedup_in_execute:true (factory api) in
  let timers = Array.of_list (R.Api.seal api) in
  let workers = max 1 cfg.R.Config.workers in
  let exec =
    Exec.create backend ~node ~mode ~workers
      ~conflict:
        (Conflict.with_session ~obs:(Engine.obs eng) ~subsystem:"sched" ~node
           conflict)
      ~execute:(fun request -> app.R.App.execute ~request)
  in
  let t =
    {
      eng;
      net;
      cfg;
      node_id = node;
      pstore = paxos_store;
      app;
      session;
      timers;
      exec;
      oracle = conflict;
      pax = None;
      front = None;
      leader = false;
      leader_epoch = 0;
      queue = Queue.create ();
      inflight = None;
      exec_queue = Queue.create ();
      exec_waiters = [];
      applied_q = Queue.create ();
      applied = 0;
      st_replies = 0;
      st_queries = 0;
      st_proposals = 0;
      st_proposal_bytes = 0;
    }
  in
  (* A read on keys K is served locally only after every in-flight write
     claiming a key in K has executed — both the lease fast path and the
     quorum path route through [r_read_local]. *)
  let read_local request cb =
    Exec.park_until_quiet t.exec (t.oracle request);
    t.st_queries <- t.st_queries + 1;
    cb (Some (t.app.R.App.query ~request))
  in
  t.front <-
    Some
      (R.Frontend.register rpc ~node ~table:session
         ?admission:
           (R.Config.admission cfg ~queue_depth:(fun () ->
                Queue.length t.queue))
         ~reads:
           {
             R.Frontend.r_peers =
               (fun () ->
                 match t.pax with
                 | Some p -> Paxos.Replica.peers p
                 | None -> cfg.R.Config.replicas);
             r_lease_valid =
               (fun () ->
                 t.leader
                 &&
                 match t.pax with
                 | Some p -> Paxos.Replica.holds_lease p
                 | None -> false);
             r_read_index =
               (fun () ->
                 match t.pax with
                 | Some p -> Paxos.Replica.read_index p
                 | None -> 0);
             r_applied_upto = (fun () -> t.applied);
             r_read_local = read_local;
             r_lease_unsafe = cfg.R.Config.lease_unsafe;
           }
         {
           R.Frontend.is_leader = (fun () -> t.leader);
           leader_hint =
             (fun () ->
               match t.pax with
               | Some p -> Paxos.Replica.leader_hint p
               | None -> None);
           enqueue = (fun request cb -> Queue.push (request, cb) t.queue);
         });
  t

let start t =
  let pax_cfg =
    {
      Paxos.Replica.me = t.node_id;
      peers = t.cfg.R.Config.replicas;
      heartbeat_period = t.cfg.R.Config.heartbeat_period;
      election_timeout = t.cfg.R.Config.election_timeout;
      max_inflight = 1;
      sync_latency = 0.;
      lease_duration = t.cfg.R.Config.lease_duration;
      lease_drift_bound = t.cfg.R.Config.lease_drift_bound;
    }
  in
  let cbs =
    {
      Paxos.Replica.on_committed = (fun i v -> on_committed t i v);
      on_become_leader =
        (fun () ->
          t.leader <- true;
          spawn_leader_fibers t);
      on_new_leader =
        (fun _ ->
          if t.leader then begin
            t.leader <- false;
            (match t.inflight with
            | Some (_, cbs) ->
              List.iter (function Some cb -> cb None | None -> ()) cbs
            | None -> ());
            t.inflight <- None;
            Queue.iter (fun (_, cb) -> cb None) t.queue;
            Queue.clear t.queue
          end);
    }
  in
  let pax = Paxos.Replica.create t.net pax_cfg t.pstore cbs in
  t.pax <- Some pax;
  Paxos.Replica.start pax;
  ignore
    (Engine.spawn t.eng ~node:t.node_id ~name:"sched.dispatcher"
       (dispatcher_loop t))

let submit t request cb =
  if not t.leader then cb None
  else Queue.push (request, cb) t.queue

let query t request =
  t.st_queries <- t.st_queries + 1;
  t.app.R.App.query ~request

(* Checkpoints ride the existing codec path: drain the execution stage
   to a quiescent cut (every admitted request executed — a consistent
   log prefix), then snapshot app + session table exactly like the other
   stacks.  Callable only from a fiber (draining parks). *)
let checkpoint t =
  Exec.drain t.exec;
  let sink = Codec.sink ~initial_capacity:4096 () in
  t.app.R.App.write_checkpoint sink;
  Codec.contents sink

let restore t snap =
  Exec.drain t.exec;
  t.app.R.App.read_checkpoint (Codec.source snap)
