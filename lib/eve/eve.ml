open Sim
module R = Rex_core

let digest_port = "eve.digest"
let verdict_port = "eve.verdict"

(* No caller tunes these: the mixer forms a batch every 200 µs, of at
   most 64 requests. *)
let mix_interval = 2e-4
let batch_max = 64

type verdict = Ok_batch | Rollback

(* One replica's execute-verify state: the digests its leader collects,
   the verdicts it has learned, and whether a batch is mid-execution. *)
type t = {
  eng : Engine.t;
  net : Net.t;
  node_id : int;
  replicas : int list;
  workers : int;
  env : Smr.env;
  collected : (int, (int * string) list) Hashtbl.t;
  verdicts : (int, verdict) Hashtbl.t;
  mutable verdict_waiters : Engine.waker list;
  mutable executing : bool;  (* a batch is mid-execution / pre-verdict *)
  mutable read_waiters : Engine.waker list;
      (* reads parked until the state is verdict-final again: mid-batch
         parallel state may roll back and must never be observed *)
  (* observability (subsystem "eve", labelled by node) *)
  obs : Obs.t;
  c_requests : Obs.Metric.counter;
  c_batches : Obs.Metric.counter;
  c_rollbacks : Obs.Metric.counter;
  c_batched_reqs : Obs.Metric.counter;
  h_batch_size : Obs.Histogram.t;
}

let wake_all ws = List.iter Engine.wake ws

let wake_verdicts t =
  let ws = t.verdict_waiters in
  t.verdict_waiters <- [];
  wake_all ws

let wake_readers t =
  let ws = t.read_waiters in
  t.read_waiters <- [];
  wake_all ws

let encode_verdict i v =
  Codec.encode
    (fun (i, ok) b ->
      Codec.write_uvarint b i;
      Codec.write_bool b ok)
    (i, v = Ok_batch)

(* --- Leader: verdict decision --- *)

let decide t instance =
  if not (Hashtbl.mem t.verdicts instance) then begin
    let ds = Option.value (Hashtbl.find_opt t.collected instance) ~default:[] in
    let alive = List.filter (Engine.node_alive t.eng) t.replicas in
    if List.length ds >= List.length alive then begin
      let v =
        match List.map snd ds with
        | [] -> Rollback
        | d :: rest -> if List.for_all (( = ) d) rest then Ok_batch else Rollback
      in
      Hashtbl.replace t.verdicts instance v;
      let payload = encode_verdict instance v in
      List.iter
        (fun peer ->
          if peer <> t.node_id then
            Net.send t.net ~src:t.node_id ~dst:peer ~port:verdict_port payload)
        t.replicas;
      wake_verdicts t
    end
  end

(* Any replica that holds a batch's verdict answers a digest for it (a
   restarted replica replays batches decided long ago); only the leader
   collects digests and decides. *)
let on_digest t ~src payload =
  let i, d =
    Codec.decode
      (fun s ->
        let i = Codec.read_uvarint s in
        let d = Codec.read_string s in
        (i, d))
      payload
  in
  match Hashtbl.find_opt t.verdicts i with
  | Some v ->
    if src <> t.node_id then
      Net.send t.net ~src:t.node_id ~dst:src ~port:verdict_port
        (encode_verdict i v)
  | None ->
    if t.env.Smr.leader_hint () = Some t.node_id then begin
      let prev = Option.value (Hashtbl.find_opt t.collected i) ~default:[] in
      if not (List.mem_assoc src prev) then
        Hashtbl.replace t.collected i ((src, d) :: prev);
      decide t i
    end

let on_verdict t payload =
  let i, ok =
    Codec.decode
      (fun s ->
        let i = Codec.read_uvarint s in
        let ok = Codec.read_bool s in
        (i, ok))
      payload
  in
  if not (Hashtbl.mem t.verdicts i) then begin
    Hashtbl.replace t.verdicts i (if ok then Ok_batch else Rollback);
    wake_verdicts t
  end

(* Report our digest for a batch to the leader and park until the
   verdict arrives, re-reporting to every replica periodically: the
   leader may have changed, or be a restarted replica that never saw the
   batch decided while a peer holds its verdict. *)
let await_verdict t instance digest =
  let payload =
    Codec.encode
      (fun (i, d) b ->
        Codec.write_uvarint b i;
        Codec.write_string b d)
      (instance, digest)
  in
  let send_to dst =
    if dst = t.node_id then on_digest t ~src:t.node_id payload
    else Net.send t.net ~src:t.node_id ~dst ~port:digest_port payload
  in
  let ask_all () = List.iter send_to t.replicas in
  (match t.env.Smr.leader_hint () with
  | Some l -> send_to l
  | None -> ask_all ());
  let rec wait () =
    match Hashtbl.find_opt t.verdicts instance with
    | Some v -> v
    | None ->
      Engine.park (fun w ->
          t.verdict_waiters <- w :: t.verdict_waiters;
          Engine.schedule t.eng
            ~at:(Engine.clock t.eng +. 0.02)
            (fun () -> Engine.wake w));
      if not (Hashtbl.mem t.verdicts instance) then ask_all ();
      wait ()
  in
  wait ()

(* --- Execution --- *)

let execute t request =
  let r = t.env.Smr.execute request in
  Obs.Metric.incr t.c_requests;
  r

(* Run the batch's requests concurrently on [workers] executor fibers;
   whole requests are the unit of parallelism. *)
let execute_parallel t (reqs : string array) =
  let n = Array.length reqs in
  let responses = Array.make n "" in
  let next = ref 0 in
  let remaining = ref n in
  Engine.park (fun w ->
      for _ = 1 to min t.workers n do
        ignore
          (Engine.spawn t.eng ~node:t.node_id ~name:"eve.exec" (fun () ->
               let rec work () =
                 if !next < n then begin
                   let i = !next in
                   incr next;
                   responses.(i) <- execute t reqs.(i);
                   decr remaining;
                   if !remaining = 0 then Engine.wake w;
                   work ()
                 end
               in
               work ()))
      done);
  responses

(* The per-batch runner: snapshot, execute in parallel, exchange
   digests, and on a mismatch roll back and re-execute serially (which is
   deterministic).  The shell replies and retires the instance once this
   returns, so clients only ever see verdict-final responses. *)
let run_batch t ~instance reqs =
  let reqs = Array.of_list reqs in
  t.executing <- true;
  Obs.Metric.incr t.c_batches;
  Obs.Metric.add t.c_batched_reqs (Array.length reqs);
  Obs.Histogram.observe t.h_batch_size (float_of_int (Array.length reqs));
  let batch_start = Engine.now () in
  (* Snapshot for rollback (execute-verify requires marked state that can
     be checkpointed, compared and rolled back, §5). *)
  let app = t.env.Smr.app in
  let snap = Codec.sink ~initial_capacity:4096 () in
  app.R.App.write_checkpoint snap;
  let responses = execute_parallel t reqs in
  (* Eve verifies outputs along with application state: conflicting
     requests whose state effects commute still produce divergent
     responses. *)
  let digest =
    Printf.sprintf "%s/%d" (app.R.App.digest ())
      (Hashtbl.hash (Array.to_list responses))
  in
  let responses =
    match await_verdict t instance digest with
    | Ok_batch -> responses
    | Rollback ->
      Obs.Metric.incr t.c_rollbacks;
      app.R.App.read_checkpoint (Codec.source (Codec.contents snap));
      Array.map (execute t) reqs
  in
  let sp = Obs.spans t.obs in
  if Obs.Span.enabled sp then
    Obs.Span.complete sp ~cat:"eve" ~pid:t.node_id ~name:"batch"
      ~ts:batch_start
      ~dur:(Engine.now () -. batch_start)
      ();
  t.executing <- false;
  wake_readers t;
  Array.to_list responses

(* Mid-batch state may roll back after a verdict: a read parks until the
   state is verdict-final again. *)
let rec read_gate t request =
  if t.executing then begin
    Engine.park (fun w -> t.read_waiters <- w :: t.read_waiters);
    read_gate t request
  end

(* --- Mixer (leader) --- *)

(* Greedy batch formation: a request joins the batch only if none of its
   conflict keys are already claimed; [miss_rate] models an imperfect
   mixer that sometimes fails to see a conflict. *)
let mixer ~conflict ~miss_rate rng () =
  let claimed = Hashtbl.create 32 in
  fun request ->
    let keys = conflict request in
    let blind = miss_rate > 0. && Rng.float rng 1.0 < miss_rate in
    if blind || not (List.exists (Hashtbl.mem claimed) keys) then begin
      List.iter (fun k -> Hashtbl.replace claimed k ()) keys;
      true
    end
    else false

(* --- Construction --- *)

let create net rpc cfg ~node ~paxos_store ?(miss_rate = 0.) ~conflict factory =
  let eng = Net.engine net in
  let obs = Engine.obs eng in
  Smr.make net rpc
    { cfg with R.Config.propose_interval = mix_interval }
    ~node ~paxos_store ~name:"eve" factory
    ~stage:(fun env ->
      (* Batches execute their requests in parallel, so two retries of
         the same request inside one batch would race the shell's
         in-execute duplicate check.  The per-client conflict key keeps a
         client's requests in distinct batches, and batches run one at a
         time — which makes that check deterministic. *)
      let conflict =
        Sched.Conflict.with_session ~obs ~subsystem:"eve" ~node conflict
      in
      let labels = [ ("node", string_of_int node) ] in
      let c name = Obs.counter obs ~subsystem:"eve" ~labels name in
      let t =
        {
          eng;
          net;
          node_id = node;
          replicas = cfg.R.Config.replicas;
          workers = cfg.R.Config.workers;
          env;
          collected = Hashtbl.create 64;
          verdicts = Hashtbl.create 64;
          verdict_waiters = [];
          executing = false;
          read_waiters = [];
          obs;
          c_requests = c "requests_executed";
          c_batches = c "batches";
          c_rollbacks = c "rollbacks";
          c_batched_reqs = c "batched_requests";
          h_batch_size = Obs.histogram obs ~subsystem:"eve" ~labels "batch_size";
        }
      in
      Net.register net ~node ~port:digest_port (fun ~src payload ->
          on_digest t ~src payload);
      Net.register net ~node ~port:verdict_port (fun ~src:_ payload ->
          on_verdict t payload);
      {
        Smr.batch_max;
        former = mixer ~conflict ~miss_rate (Rng.split (Engine.rng eng));
        runner = Smr.Per_batch (run_batch t);
        read_gate = read_gate t;
      })
