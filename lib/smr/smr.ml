open Sim
module R = Rex_core

let timer_prefix = "\x00TIMER:"

type env = {
  execute : string -> string;
  app : R.App.t;
  leader_hint : unit -> int option;
}

type runner =
  | Per_request of {
      admit : string -> (string -> unit) -> unit;
      admit_barrier : (unit -> unit) -> unit;
    }
  | Per_batch of (instance:int -> string list -> string list)

type stage = {
  batch_max : int;
  former : unit -> string -> bool;
  runner : runner;
  read_gate : string -> unit;
}

let fifo () _ = true

type t = {
  eng : Engine.t;
  net : Net.t;
  cfg : R.Config.t;
  node_id : int;
  name : string;
  pstore : Paxos.Store.t;
  app : R.App.t;  (* session-wrapped: see [make] *)
  session : R.Session.Table.t;
  timers : R.Api.timer_spec array;
  stage : stage;
  executed : int ref;
  pax : Paxos.Replica.t option ref;
  mutable front : R.Frontend.t option;
  mutable leader : bool;
  mutable leader_epoch : int;
  queue : (string * (string option -> unit)) Queue.t;
  mutable inflight : (string * (string option -> unit) option list) option;
      (* encoded batch we proposed, and its callbacks in order *)
  exec_queue : (int * (string * (string option -> unit) option) list) Queue.t;
  mutable exec_waiters : Engine.waker list;
  applied_q : (int * int ref) Queue.t;  (* instance, requests left *)
  mutable applied : int;  (* highest instance fully executed locally *)
  mutable idle_waiters : Engine.waker list;  (* [quiesce] callers *)
}

let node t = t.node_id
let is_primary t = t.leader
let session_table t = t.session

let frontend t =
  match t.front with
  | Some f -> f
  | None -> invalid_arg "Smr.frontend: not registered"
let app_digest t = t.app.R.App.digest ()
let executed_requests t = !(t.executed)

let wake_all ws = List.iter Engine.wake ws

let is_tick request = String.starts_with ~prefix:timer_prefix request

(* The log's only intake besides the leader's timer fibers: a client
   request carrying the tick prefix is refused, so ticks cannot be
   forged. *)
let intake t request cb =
  if is_tick request then cb None else Queue.push (request, cb) t.queue

let run_tick t request =
  let n = String.length timer_prefix in
  match int_of_string_opt (String.sub request n (String.length request - n)) with
  | Some idx when idx >= 0 && idx < Array.length t.timers ->
    t.timers.(idx).R.Api.t_callback ()
  | Some _ | None -> ()

(* Completions may arrive out of order (a parallel stage overlaps
   non-conflicting requests of consecutive batches), but commits arrive
   in order ([max_inflight = 1]): each completion decrements its own
   instance's counter, and the applied index advances by draining
   fully-executed instances from the head of [applied_q]. *)
let advance_applied t =
  let rec advance () =
    match Queue.peek_opt t.applied_q with
    | Some (instance, remaining) when !remaining = 0 ->
      ignore (Queue.pop t.applied_q);
      if instance > t.applied then t.applied <- instance;
      advance ()
    | Some _ | None -> ()
  in
  advance ();
  if Queue.is_empty t.applied_q then begin
    let ws = t.idle_waiters in
    t.idle_waiters <- [];
    wake_all ws
  end

(* One executor fiber hands committed batches to the stage strictly in
   log order (a stage's admission may park; funnelling through one fiber
   keeps instance i fully admitted before i+1 regardless).  A
   per-request runner sees timer ticks as stage barriers, so every
   replica runs the callback at the same log position; a per-batch
   runner returns the whole batch's responses at once. *)
let executor_loop t () =
  let rec next_batch () =
    match Queue.take_opt t.exec_queue with
    | Some b -> b
    | None ->
      Engine.park (fun w -> t.exec_waiters <- w :: t.exec_waiters);
      next_batch ()
  in
  let retire remaining =
    decr remaining;
    advance_applied t
  in
  let finish remaining cb resp =
    Option.iter (fun cb -> cb (Some resp)) cb;
    retire remaining
  in
  let admit_one ~admit ~admit_barrier remaining (request, cb) =
    if is_tick request then
      admit_barrier (fun () ->
          run_tick t request;
          retire remaining)
    else admit request (finish remaining cb)
  in
  let rec loop () =
    (match next_batch () with
    | instance, [] -> if instance > t.applied then t.applied <- instance
    | instance, batch -> (
      let remaining = ref (List.length batch) in
      Queue.push (instance, remaining) t.applied_q;
      match t.stage.runner with
      | Per_request { admit; admit_barrier } ->
        List.iter (admit_one ~admit ~admit_barrier remaining) batch
      | Per_batch run ->
        List.iter2
          (fun (_, cb) resp -> finish remaining cb resp)
          batch
          (run ~instance (List.map fst batch))));
    loop ()
  in
  loop ()

let on_committed t instance value =
  match R.Frontend.decode_batch value with
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
    let ws = t.exec_waiters in
    t.exec_waiters <- [];
    wake_all ws

(* Rolling-upgrade support: a replacement server created over the old
   server's store re-executes the committed prefix to rebuild app and
   session state.  Call between [make] and [start]; the executor drains
   the queued batches in log order once it spawns. *)
let replay t = Paxos.Replica.replay_committed t.pstore (on_committed t)

(* Offer queued requests to the stage's former in FIFO order until
   [batch_max] joined or the queue ran dry; refused requests keep their
   order and go back behind the rest, for a later batch. *)
let form_batch t =
  let joins = t.stage.former () in
  let rec go k acc refused =
    if k = 0 then (acc, refused)
    else
      match Queue.take_opt t.queue with
      | None -> (acc, refused)
      | Some ((request, _) as r) ->
        if joins request then go (k - 1) (r :: acc) refused
        else go k acc (r :: refused)
  in
  let items, refused = go t.stage.batch_max [] [] in
  List.iter (fun r -> Queue.push r t.queue) (List.rev refused);
  List.rev items

let spawn_leader_fibers t =
  t.leader_epoch <- t.leader_epoch + 1;
  let epoch = t.leader_epoch in
  let live () = t.leader && t.leader_epoch = epoch in
  (* Batcher: the stage's former picks each proposal from the queue, one
     instance at a time. *)
  ignore
    (Engine.spawn t.eng ~node:t.node_id ~name:(t.name ^ ".batcher") (fun () ->
         while live () do
           Engine.sleep t.cfg.R.Config.propose_interval;
           if live () && t.inflight = None && not (Queue.is_empty t.queue) then begin
             let pax = Option.get !(t.pax) in
             if Paxos.Replica.is_leader pax && not (Paxos.Replica.in_flight pax)
             then begin
               let items = form_batch t in
               if items <> [] then begin
                 let enc = R.Frontend.encode_batch (List.map fst items) in
                 if Paxos.Replica.propose pax enc then
                   t.inflight <- Some (enc, List.map (fun (_, cb) -> Some cb) items)
                 else List.iter (fun (_, cb) -> cb None) items
               end
             end
           end
         done));
  (* Timers become proposed pseudo-requests, ordered like the rest. *)
  Array.iteri
    (fun idx spec ->
      ignore
        (Engine.spawn t.eng ~node:t.node_id
           ~name:(t.name ^ ".timer." ^ spec.R.Api.t_name)
           (fun () ->
             while live () do
               Engine.sleep spec.R.Api.t_interval;
               if live () then
                 Queue.push
                   (Printf.sprintf "%s%d" timer_prefix idx, fun _ -> ())
                   t.queue
             done)))
    t.timers

let make net rpc cfg ~node ~paxos_store ~name ~stage factory =
  let eng = Net.engine net in
  (* The app's wrappers run native: no fiber is ever bound to a slot. *)
  let rt = Rexsync.Runtime.create (Par.Backend.of_sim eng) ~node ~slots:1 in
  let api = R.Api.make rt in
  let session = R.Session.Table.create (Engine.obs eng) ~stack:name ~node () in
  (* Every stage executes one client's requests in log order (a parallel
     stage's session-wrapped oracle gives each client its own ordering
     key), so the in-execute duplicate check is deterministic — it
     catches retries that slipped past intake on a freshly elected
     leader whose executor is still catching up on earlier instances. *)
  let app = R.Session.wrap ~table:session ~dedup_in_execute:true (factory api) in
  let timers = Array.of_list (R.Api.seal api) in
  let executed = ref 0 in
  (* A node crash unwinds the executing fiber with [Engine.Killed]: let
     it through, so a dead node answers nobody. *)
  let execute request =
    let resp =
      try app.R.App.execute ~request with
      | Engine.Killed as e -> raise e
      | exn ->
        Logs.warn (fun m ->
            m "%s[%d]: handler raised %s" name node (Printexc.to_string exn));
        "ERR:handler-exception"
    in
    incr executed;
    resp
  in
  let pax = ref None in
  (* The Paxos replica exists once [start]ed; until then, [default]. *)
  let on_pax default f () = match !pax with Some p -> f p | None -> default in
  let leader_hint = on_pax None Paxos.Replica.leader_hint in
  let stage = stage { execute; app; leader_hint } in
  (match stage.runner with
  | Per_batch _ when timers <> [||] ->
    invalid_arg
      (name
     ^ ": background timers need a per-request stage (a per-batch runner \
        has no barrier to run their ticks at)")
  | Per_batch _ | Per_request _ -> ());
  let t =
    {
      eng;
      net;
      cfg;
      node_id = node;
      name;
      pstore = paxos_store;
      app;
      session;
      timers;
      stage;
      executed;
      pax;
      front = None;
      leader = false;
      leader_epoch = 0;
      queue = Queue.create ();
      inflight = None;
      exec_queue = Queue.create ();
      exec_waiters = [];
      applied_q = Queue.create ();
      applied = 0;
      idle_waiters = [];
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
             R.Frontend.r_peers = on_pax cfg.R.Config.replicas Paxos.Replica.peers;
             r_lease_valid =
               (fun () -> t.leader && on_pax false Paxos.Replica.holds_lease ());
             r_read_index = on_pax 0 Paxos.Replica.read_index;
             (* The leader replies to a write only after executing it
                locally, so once the stage's read gate has let in-flight
                conflicting writes finish, leader state covers every
                acked write: both read paths answer from [t.app]. *)
             r_applied_upto = (fun () -> t.applied);
             r_read_local =
               (fun request cb ->
                 t.stage.read_gate request;
                 cb (Some (t.app.R.App.query ~request)));
             r_lease_unsafe = cfg.R.Config.lease_unsafe;
           }
         {
           R.Frontend.is_leader = (fun () -> t.leader);
           leader_hint;
           enqueue = intake t;
         });
  t

(* Serial stage: execute inline on the executor fiber, one request at a
   time — the sequential execution model of classic SMR. *)
let create net rpc cfg ~node ~paxos_store factory =
  make net rpc cfg ~node ~paxos_store ~name:"smr" factory
    ~stage:(fun env ->
      {
        batch_max = 64;
        former = fifo;
        runner =
          Per_request
            {
              admit = (fun request k -> k (env.execute request));
              admit_barrier = (fun f -> f ());
            };
        read_gate = ignore;
      })

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
  t.pax := Some pax;
  Paxos.Replica.start pax;
  ignore
    (Engine.spawn t.eng ~node:t.node_id ~name:(t.name ^ ".executor")
       (executor_loop t))

let submit t request cb = if t.leader then intake t request cb else cb None

let query t request = t.app.R.App.query ~request

(* A consistent log-prefix cut: park until every admitted request has
   executed.  Callable only from a fiber. *)
let rec quiesce t =
  if not (Queue.is_empty t.applied_q) then begin
    Engine.park (fun w -> t.idle_waiters <- w :: t.idle_waiters);
    quiesce t
  end

let checkpoint t =
  quiesce t;
  let sink = Codec.sink ~initial_capacity:4096 () in
  t.app.R.App.write_checkpoint sink;
  Codec.contents sink

let restore t snap =
  quiesce t;
  t.app.R.App.read_checkpoint (Codec.source snap)
