open Sim
module R = Rex_core

let batch_max = 64
let timer_prefix = "\x00TIMER:"

type pending = string * (string option -> unit) option

type stats = {
  requests_executed : int;
  replies_sent : int;
  queries_served : int;
  proposals_sent : int;
  proposal_bytes : int;
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
  mutable pax : Paxos.Replica.t option;
  mutable front : R.Frontend.t option;
  mutable leader : bool;
  mutable leader_epoch : int;
  queue : (string * (string option -> unit)) Queue.t;
  mutable inflight : (string * (string option -> unit) option list) option;
      (* encoded batch we proposed, and its callbacks in order *)
  exec_queue : (int * pending list) Queue.t;
  mutable exec_waiters : Engine.waker list;
  mutable applied : int;  (* highest instance fully executed locally *)
  mutable st_requests : int;
  mutable st_replies : int;
  mutable st_queries : int;
  mutable st_proposals : int;
  mutable st_proposal_bytes : int;
}

let node t = t.node_id
let is_primary t = t.leader
let session_table t = t.session

let frontend t =
  match t.front with
  | Some f -> f
  | None -> invalid_arg "Smr.frontend: not registered"
let app_digest t = t.app.R.App.digest ()
let executed_requests t = t.st_requests

let stats t =
  {
    requests_executed = t.st_requests;
    replies_sent = t.st_replies;
    queries_served = t.st_queries;
    proposals_sent = t.st_proposals;
    proposal_bytes = t.st_proposal_bytes;
  }

let encode_batch = R.Frontend.encode_batch
let decode_batch = R.Frontend.decode_batch

let wake_executor t =
  let ws = t.exec_waiters in
  t.exec_waiters <- [];
  List.iter Engine.wake ws

(* All replicas execute committed requests in order, one at a time: the
   sequential execution model of classic SMR. *)
let executor_loop t () =
  let rec next_batch () =
    match Queue.take_opt t.exec_queue with
    | Some b -> b
    | None ->
      Engine.park (fun w -> t.exec_waiters <- w :: t.exec_waiters);
      next_batch ()
  in
  let run_one (request, cb) =
    (if String.length request > String.length timer_prefix
        && String.sub request 0 (String.length timer_prefix) = timer_prefix
    then begin
      let idx =
        int_of_string
          (String.sub request (String.length timer_prefix)
             (String.length request - String.length timer_prefix))
      in
      if idx >= 0 && idx < Array.length t.timers then
        t.timers.(idx).R.Api.t_callback ()
    end
    else begin
      let resp =
        try t.app.R.App.execute ~request
        with exn ->
          Logs.warn (fun m ->
              m "smr[%d]: handler raised %s" t.node_id (Printexc.to_string exn));
          "ERR:handler-exception"
      in
      t.st_requests <- t.st_requests + 1;
      match cb with
      | Some cb ->
        t.st_replies <- t.st_replies + 1;
        cb (Some resp)
      | None -> ()
    end)
  in
  let rec loop () =
    let instance, batch = next_batch () in
    List.iter run_one batch;
    if instance > t.applied then t.applied <- instance;
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
      (* Defensive: lengths can differ if the commit is foreign. *)
      if List.length cbs = List.length reqs then cbs
      else List.map (fun _ -> None) reqs
    in
    Queue.push (instance, List.combine reqs cbs) t.exec_queue;
    wake_executor t

(* Rolling-upgrade support: a replacement server created over the old
   server's store re-executes the committed prefix to rebuild app and
   session state (this stack has no checkpoint recovery).  Call between
   [create] and [start]; the executor drains the queued batches in log
   order once it spawns. *)
let replay t = Paxos.Replica.replay_committed t.pstore (on_committed t)

let spawn_leader_fibers t =
  t.leader_epoch <- t.leader_epoch + 1;
  let epoch = t.leader_epoch in
  let live () = t.leader && t.leader_epoch = epoch in
  (* Batcher: drain the queue into proposals, one instance at a time. *)
  ignore
    (Engine.spawn t.eng ~node:t.node_id ~name:"smr.batcher" (fun () ->
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
  (* Timers become proposed pseudo-requests, serialized like the rest. *)
  Array.iteri
    (fun idx spec ->
      ignore
        (Engine.spawn t.eng ~node:t.node_id
           ~name:("smr.timer." ^ spec.R.Api.t_name)
           (fun () ->
             while live () do
               Engine.sleep spec.R.Api.t_interval;
               if live () then
                 Queue.push
                   (Printf.sprintf "%s%d" timer_prefix idx, fun _ -> ())
                   t.queue
             done)))
    t.timers

let create net rpc cfg ~node ~paxos_store factory =
  let eng = Net.engine net in
  (* The app's wrappers run native: no fiber is ever bound to a slot. *)
  let rt = Rexsync.Runtime.create (Par.Backend.of_sim eng) ~node ~slots:1 in
  let api = R.Api.make rt in
  let session =
    R.Session.Table.create (Engine.obs eng) ~stack:"smr" ~node ()
  in
  (* Serial execution is identical on every replica, so the in-execute
     duplicate check is deterministic here — it catches retries that
     slipped past intake on a freshly elected leader whose executor is
     still catching up on earlier instances. *)
  let app = R.Session.wrap ~table:session ~dedup_in_execute:true (factory api) in
  let timers = Array.of_list (R.Api.seal api) in
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
      pax = None;
      front = None;
      leader = false;
      leader_epoch = 0;
      queue = Queue.create ();
      inflight = None;
      exec_queue = Queue.create ();
      exec_waiters = [];
      applied = 0;
      st_requests = 0;
      st_replies = 0;
      st_queries = 0;
      st_proposals = 0;
      st_proposal_bytes = 0;
    }
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
             (* The leader replies to a write only after executing it
                locally, so leader state always covers every acked write:
                both read paths can answer from [t.app] directly. *)
             r_applied_upto = (fun () -> t.applied);
             r_read_local =
               (fun request cb ->
                 t.st_queries <- t.st_queries + 1;
                 cb (Some (t.app.R.App.query ~request)));
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
  ignore (Engine.spawn t.eng ~node:t.node_id ~name:"smr.executor" (executor_loop t))

let submit t request cb =
  if not t.leader then cb None
  else Queue.push (request, cb) t.queue

let query t request =
  t.st_queries <- t.st_queries + 1;
  t.app.R.App.query ~request
