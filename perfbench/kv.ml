(* kv-open and kv-open-cbase: an open-loop session fleet over LevelDB on a
   3-replica group, driven only through the public client entry points
   (Client.call_outcome for writes, Client.query for reads).

   The whole arrival trace is generated at set-up (Load.Gen, one steady
   segment per ladder rate) and fired by a chained dispatcher: each
   arrival runs at exactly its scheduled virtual time, and only the next
   one sits in the event queue.  An arrival whose session is still busy
   queues behind it, and that wait counts in its latency, which is
   always timed from the scheduled arrival. *)

open Sim
module R = Rex_core

type stack = Rex | Cbase

type params = {
  sessions : int;
  keys : int;
  theta : float;
  read_ratio : float;
  value_len : int;
  op_cost : float;  (* LevelDB virtual CPU seconds per operation *)
  workers : int;
  rates : float array;  (* the ladder, req/s *)
  ref_rate : float;  (* the step the latency metrics are read at *)
  step : float;  (* virtual seconds per ladder step *)
  gap : float;  (* idle virtual seconds between steps *)
  slo_ms : float;  (* the p99 latency limit *)
}

let params =
  {
    sessions = 2000;
    keys = 100_000;
    theta = 0.99;
    read_ratio = 0.5;
    value_len = 100;
    op_cost = 400e-6;
    workers = 4;
    rates = [| 5e3; 10e3; 15e3; 18e3; 20e3; 22e3 |];
    ref_rate = 10e3;
    step = 1.0;
    gap = 0.25;
    slo_ms = 10.;
  }

type arrival = { at : float; step : int; session : int; key : int; read : bool }

let step_start (p : params) i = float_of_int i *. (p.step +. p.gap)

(* Every arrival of the ladder, absolute times from [t0], sorted. *)
let gen_arrivals (p : params) ~seed ~t0 =
  let all = ref [] in
  Array.iteri
    (fun i rate ->
      let g =
        Load.Gen.create ~sessions:p.sessions ~duration:p.step
          ~profile:(Load.Arrivals.Steady rate) ~keys:p.keys ~theta:p.theta
          ~read_ratio:p.read_ratio ~seed:((seed * 7919) + i) ()
      in
      let base = t0 +. step_start p i in
      ignore
        (Load.Gen.pull g ~until:p.step (fun ev ->
             all :=
               {
                 at = base +. ev.Load.Gen.at;
                 step = i;
                 session = ev.Load.Gen.session;
                 key = ev.Load.Gen.key;
                 read = ev.Load.Gen.read;
               }
               :: !all)))
    p.rates;
  let a = Array.of_list !all in
  Array.stable_sort (fun x y -> compare (x.at, x.session) (y.at, y.session)) a;
  a

(* A written value names its key and its writer, so any read can be
   checked against the key it asked for. *)
let make_value p ~key ~session ~n =
  let tag = Printf.sprintf "r%ds%dn%d." key session n in
  if String.length tag >= p.value_len then tag
  else tag ^ String.make (p.value_len - String.length tag) 'x'

let read_ok ~key v =
  v = "NOTFOUND"
  ||
  let pre = Printf.sprintf "r%ds" key in
  String.length v >= String.length pre && String.sub v 0 (String.length pre) = pre

let value_of_set req =
  match String.split_on_char ' ' req with [ "SET"; _; v ] -> Some v | _ -> None

(* (session, n) of a value written by this benchmark. *)
let parse_tag v =
  try Scanf.sscanf v "r%_ds%dn%d." (fun s n -> Some (s, n)) with _ -> None

(* --- Deployment --- *)

type deployed = {
  eng : Engine.t;
  rpc : Rpc.t;
  client_node : int;
  replicas : int list;
  fronts : R.Frontend.t list;
  digests : unit -> string list;
  leader : unit -> int option;
}

let deploy stack p ~seed ~trace factory =
  let cfg = R.Cluster.config ~workers:p.workers () in
  match stack with
  | Rex ->
    let c =
      R.Cluster.launch ~seed
        ~before_start:(fun c ->
          if trace then Obs.enable_tracing (Engine.obs (R.Cluster.engine c)) true)
        cfg factory
    in
    let servers = Array.to_list (R.Cluster.servers c) in
    {
      eng = R.Cluster.engine c;
      rpc = R.Cluster.rpc c;
      client_node = R.Cluster.client_node c;
      replicas = R.Cluster.replica_nodes c;
      fronts = List.map R.Server.frontend servers;
      digests = (fun () -> List.map R.Server.app_digest servers);
      leader =
        (fun () ->
          List.find_opt R.Server.is_primary servers |> Option.map R.Server.node);
    }
  | Cbase ->
    let eng = Engine.create ~seed ~cores_per_node:16 ~num_nodes:4 () in
    if trace then Obs.enable_tracing (Engine.obs eng) true;
    let net = Net.create eng in
    let rpc = Rpc.create net in
    let servers =
      List.init 3 (fun i ->
          Sched.Server.create net rpc cfg ~node:i
            ~paxos_store:(Paxos.Store.create ()) ~mode:Sched.Exec.Cbase
            ~conflict:Sched.Conflict.kv factory)
    in
    List.iter Sched.Server.start servers;
    while
      (not (List.exists Sched.Server.is_primary servers)) && Engine.clock eng < 30.
    do
      Engine.run ~until:(Engine.clock eng +. 0.05) eng
    done;
    if not (List.exists Sched.Server.is_primary servers) then
      failwith "cbase: no primary elected";
    {
      eng;
      rpc;
      client_node = 3;
      replicas = [ 0; 1; 2 ];
      fronts = List.map Sched.Server.frontend servers;
      digests = (fun () -> List.map Sched.Server.app_digest servers);
      leader =
        (fun () ->
          List.find_opt Sched.Server.is_primary servers
          |> Option.map Sched.Server.node);
    }

(* --- One run --- *)

type session = {
  client : R.Client.t;
  pending : int Queue.t;  (* arrival indices waiting for this session *)
  mutable busy : bool;
  mutable ops : int;  (* writes issued, for unique values *)
}

(* Per-arrival results, indexed like the arrival array. *)
type results = {
  arr : arrival array;
  start : float array;  (* the call began (session free) *)
  fin : float array;  (* the call returned; nan if never *)
  ok : bool array;
  lag : float array;  (* dispatch time - scheduled time *)
  cid : int array;  (* writes: envelope (client, seq); -1 otherwise *)
  cseq : int array;
}

(* Stage stamps of one write, from the frontend taps (traced run). *)
type stamps = { mutable enq : float; mutable commit : float }

type run = {
  t0 : float;  (* virtual time of the ladder's start *)
  res : results;
  setup_walls : float list;  (* wall seconds of each set-up *)
  steps : int;  (* ladder steps run *)
  step_wall : float array;  (* wall seconds of each step run, gap included;
                               the last one includes the drain *)
  attempted : int;
  failed : int;  (* failed, refused or never served *)
  incorrect : string list;
  digests_agree : bool;
  leader : int;
  client_node : int;
  (* traced run only *)
  final : Layers.snapshot;  (* registry at the end *)
  commit_p99 : float;  (* paxos commit latency p99, seconds *)
  stamps : (int * int, stamps) Hashtbl.t;
  by_tag : (int * int, int * int) Hashtbl.t;  (* (session, n) -> (client, seq) *)
  execs : Layers.exec list;
  window : Layers.snapshot * Layers.snapshot;  (* around the reference step *)
  window_wall : float;
  client_msgs : float;  (* messages the client node sent in the window *)
  sample : (Check.Sample.violation list * bool) option;
}

let ref_step p =
  let r = ref 0 in
  Array.iteri (fun i x -> if x = p.ref_rate then r := i) p.rates;
  !r

(* Messages sent by one node, summed over its outgoing links. *)
let sent_by obs node =
  Obs.Registry.fold (Obs.registry obs) ~init:0. ~f:(fun acc key inst ->
      match inst with
      | Obs.Registry.Counter c
        when key.Obs.Registry.subsystem = "net"
             && key.Obs.Registry.name = "link_messages"
             && List.assoc_opt "src" key.Obs.Registry.labels
                = Some (string_of_int node) ->
        acc +. float_of_int (Obs.Metric.value c)
      | _ -> acc)

(* Everything before the first timed arrival: deploy and elect, warm
   the session fleet, generate the arrival trace. *)
type prepared = {
  dp : deployed;
  sessions : session array;
  execs : Layers.exec list ref;
  t0 : float;
  res : results;
}

let prepare stack (p : params) ~seed ~trace =
  let execs = ref [] in
  let on_exec = if trace then Some (fun x -> execs := x :: !execs) else None in
  let factory = Layers.wrap_factory ?on_exec (Apps.Leveldb.factory ~op_cost:p.op_cost ()) in
  let dp = deploy stack p ~seed ~trace factory in
  let eng = dp.eng in
  let sessions =
    Array.init p.sessions (fun _ ->
        {
          client = R.Client.create dp.rpc ~me:dp.client_node ~replicas:dp.replicas;
          pending = Queue.create ();
          busy = false;
          ops = 0;
        })
  in
  (* Long-lived sessions know the leader: one untimed write per session
     (to a key outside the workload's key space) before the ladder. *)
  let warm = ref 0 in
  Array.iteri
    (fun i s ->
      ignore
        (Engine.spawn eng ~node:dp.client_node ~name:"warm" (fun () ->
             (match
                R.Client.call_outcome s.client (Printf.sprintf "SET warm%d x" i)
              with
             | R.Client.Reply _ -> ()
             | R.Client.Shed | R.Client.Gave_up -> failwith "warm-up write failed");
             incr warm)))
    sessions;
  while !warm < p.sessions && Engine.clock eng < 60. do
    Engine.run ~until:(Engine.clock eng +. 0.05) eng
  done;
  if !warm < p.sessions then failwith "kv: session warm-up did not finish";
  let t0 = Float.ceil ((Engine.clock eng +. 0.2) *. 10.) /. 10. in
  let arr = gen_arrivals p ~seed ~t0 in
  let n = Array.length arr in
  let res =
    {
      arr;
      start = Array.make n nan;
      fin = Array.make n nan;
      ok = Array.make n false;
      lag = Array.make n 0.;
      cid = Array.make n (-1);
      cseq = Array.make n (-1);
    }
  in
  { dp; sessions; execs; t0; res }

(* --- Metrics --- *)

(* Latency from the scheduled arrival; a failed, refused or unserved
   arrival misses every limit. *)
let latency res i = if res.ok.(i) then res.fin.(i) -. res.arr.(i).at else infinity

let lats res f =
  let l = ref [] in
  Array.iteri (fun i a -> if f a then l := latency res i :: !l) res.arr;
  Array.of_list !l

let ms x = x *. 1e3

(* Arrivals of the step that are outstanding at virtual time [t]. *)
let backlog res ~step t =
  let b = ref 0 in
  Array.iteri
    (fun i a ->
      if a.step = step && a.at <= t && not (res.ok.(i) && res.fin.(i) <= t) then incr b)
    res.arr;
  !b

type step_result = {
  rate : float;
  arrivals : int;
  p99_ms : float;
  failed_frac : float;
  growth : float;  (* backlog rise over the step's second half, in arrivals *)
  badness : float;  (* worst criterion over its limit; the step passes at <= 1 *)
  goodput : float;  (* completions per virtual second *)
}

(* Step [i] as far as [res] has it: arrivals not yet served count as
   failed. *)
let step_result (p : params) ~t0 res i =
      let rate = p.rates.(i) in
      let l = lats res (fun a -> a.step = i) in
      let n = Array.length l in
      let failed = Array.fold_left (fun c x -> if Float.is_finite x then c else c + 1) 0 l in
      let st = t0 +. step_start p i in
      let growth =
        backlog res ~step:i (st +. p.step) - backlog res ~step:i (st +. (p.step /. 2.))
      in
      let p99 = ms (Stats.quantile l 0.99) in
      let failed_frac = Stats.ratio failed n in
      let last = ref st in
      Array.iteri
        (fun j a -> if a.step = i && res.ok.(j) then last := Float.max !last res.fin.(j))
        res.arr;
      (* The limits: p99 <= slo_ms, failures <= 1%, and a backlog that
         rises by no more than max(16, 1% of the step's arrivals). *)
      let badness =
        List.fold_left Float.max 0.
          [
            p99 /. p.slo_ms;
            failed_frac /. 0.01;
            float_of_int growth /. float_of_int (max 16 (n / 100));
          ]
      in
      {
        rate;
        arrivals = n;
        p99_ms = p99;
        failed_frac;
        growth = float_of_int growth;
        badness;
        goodput = float_of_int (n - failed) /. (!last -. st);
      }

(* Every step run. *)
let step_results p ~t0 ~steps res = Array.init steps (step_result p ~t0 res)

let passes s = s.badness <= 1.

(* A ladder step whose limit ratio exceeds this, counted at the end of
   its gap with every arrival still outstanding as a miss, is well past
   the knee: the ladder ends there, and its later steps are not run. *)
let stop_ratio = 5.

(* Index of the first arrival of ladder step [k] or later. *)
let first_of_step arr k =
  let i = ref 0 in
  while !i < Array.length arr && arr.(!i).step < k do
    incr i
  done;
  !i

let execute ?(setups = 1) ?through stack (p : params) ~seed ~trace =
  (* Set up [setups] times, each from scratch and identical per seed,
     and run on the last, through ladder step [through] at most. *)
  let walls = ref [] and prep = ref None in
  for _ = 1 to max 1 setups do
    prep := None;
    (* Return the previous heap before timing anything. *)
    Gc.compact ();
    let w = Stats.wall () in
    prep := Some (prepare stack p ~seed ~trace);
    walls := (Stats.wall () -. w) :: !walls
  done;
  let { dp; sessions; execs; t0; res } = Option.get !prep in
  let eng = dp.eng and arr = res.arr in
  let n = Array.length arr in
  let incorrect = ref [] in
  let wrong fmt = Printf.ksprintf (fun s -> incorrect := s :: !incorrect) fmt in
  (* Traced run: stage stamps from every replica's frontend, and the
     sampled linearizability checker on the client-observed history. *)
  let stamps = Hashtbl.create (if trace then 1 lsl 16 else 1) in
  let by_tag = Hashtbl.create (if trace then 1 lsl 16 else 1) in
  let stamp client seq =
    match Hashtbl.find_opt stamps (client, seq) with
    | Some s -> s
    | None ->
      let s = { enq = nan; commit = nan } in
      Hashtbl.add stamps (client, seq) s;
      s
  in
  if trace then
    List.iter
      (fun f ->
        R.Frontend.set_tap f
          (Some
             (function
             | R.Frontend.Tap_enqueue { client; seq; _ } ->
               let s = stamp client seq in
               if Float.is_nan s.enq then s.enq <- Engine.clock eng
             | R.Frontend.Tap_commit { client; seq; _ } ->
               let s = stamp client seq in
               if Float.is_nan s.commit then s.commit <- Engine.clock eng
             | _ -> ())))
      dp.fronts;
  let sample =
    if trace then Some (Check.Sample.create ~seed Check.Spec.register) else None
  in
  let now () = Engine.clock eng in
  let invoke a req =
    Option.fold sample ~none:(-1) ~some:(fun sm ->
        Check.Sample.invoke sm ~now:(now ()) ~client:a.session ~request:req)
  in
  let finish tok r = Option.iter (fun sm -> Check.Sample.finish sm ~now:(now ()) tok r) sample in
  let rec serve s i =
    let a = arr.(i) in
    res.start.(i) <- now ();
    let k = Workload.Keygen.key a.key in
    (if a.read then begin
       let req = "GET " ^ k in
       let tok = invoke a req in
       let r = R.Client.query s.client req in
       finish tok r;
       match r with
       | Some v ->
         res.ok.(i) <- true;
         if not (read_ok ~key:a.key v) then
           wrong "read of key %d returned a value of another key" a.key
       | None -> ()
     end
     else begin
       let nw = s.ops in
       s.ops <- nw + 1;
       let req =
         Printf.sprintf "SET %s %s" k (make_value p ~key:a.key ~session:a.session ~n:nw)
       in
       res.cid.(i) <- R.Client.client_id s.client;
       res.cseq.(i) <- R.Client.peek_seq s.client;
       if trace then Hashtbl.replace by_tag (a.session, nw) (res.cid.(i), res.cseq.(i));
       let tok = invoke a req in
       match R.Client.call_outcome s.client req with
       | R.Client.Reply r ->
         finish tok (Some r);
         if r = "OK" then res.ok.(i) <- true else wrong "write answered %S" r
       | R.Client.Shed ->
         Option.iter (fun sm -> Check.Sample.reject sm ~now:(now ()) tok) sample
       | R.Client.Gave_up -> finish tok None
     end);
    res.fin.(i) <- now ();
    match Queue.take_opt s.pending with
    | Some j -> serve s j
    | None -> s.busy <- false
  in
  let arrive i =
    let s = sessions.(arr.(i).session) in
    res.lag.(i) <- now () -. arr.(i).at;
    if s.busy then Queue.push i s.pending
    else begin
      s.busy <- true;
      serve s i
    end
  in
  (* Chained dispatcher: arrival [i] is the only one in the event queue;
     firing it schedules [i + 1].  Raw scheduling plus an immediate
     spawn starts each arrival at exactly its time, with no jitter.
     Arrivals from [limit] on are dropped when the ladder ends early. *)
  let fired = ref 0 and limit = ref n in
  let rec fire i =
    if i < n then
      Engine.schedule eng ~at:arr.(i).at (fun () ->
          if i < !limit then begin
            incr fired;
            Engine.spawn_immediate eng ~node:dp.client_node ~name:"arrival" (fun () ->
                arrive i);
            fire (i + 1)
          end)
  in
  fire 0;
  (* The timed part, step by step so that the traced run reads the
     registry at the reference step's exact virtual boundaries. *)
  let obs = Engine.obs eng in
  let rs = ref_step p in
  let empty = Layers.snapshot (Obs.create ()) in
  let window = ref (empty, empty) and window_wall = ref 0. and client_msgs = ref 0. in
  let nsteps = Array.length p.rates in
  let step_wall = Array.make nsteps 0. in
  let steps = ref 0 and stop = ref false in
  while not !stop do
    let i = !steps in
    let ws = Stats.wall () in
    Engine.run ~until:(t0 +. step_start p i) eng;
    let before =
      if trace && i = rs then
        Some (Layers.snapshot obs, sent_by obs dp.client_node, Stats.wall ())
      else None
    in
    Engine.run ~until:(t0 +. step_start p (i + 1)) eng;
    Option.iter
      (fun (a, m, w) ->
        window_wall := Stats.wall () -. w;
        window := (a, Layers.snapshot obs);
        client_msgs := sent_by obs dp.client_node -. m)
      before;
    step_wall.(i) <- Stats.wall () -. ws;
    incr steps;
    if !steps = nsteps then stop := true
    else if through = Some i || (i >= rs && (step_result p ~t0 res i).badness > stop_ratio)
    then begin
      limit := first_of_step arr (i + 1);
      stop := true
    end
  done;
  let steps = !steps in
  (* Drain: every arrival either completes or is counted unserved. *)
  let wd = Stats.wall () in
  let all_done () = !fired >= !limit && Array.for_all (fun s -> not s.busy) sessions in
  let deadline = now () +. 30. in
  while (not (all_done ())) && now () < deadline do
    Engine.run ~until:(now () +. 0.05) eng
  done;
  step_wall.(steps - 1) <- step_wall.(steps - 1) +. (Stats.wall () -. wd);
  (* Quiescence: every replica's app state must agree. *)
  let agree () =
    match dp.digests () with [] -> true | d :: ds -> List.for_all (( = ) d) ds
  in
  let tries = ref 0 in
  while (not (agree ())) && !tries < 40 do
    Engine.run ~until:(now () +. 0.25) eng;
    incr tries
  done;
  (* Only the arrivals that were fired count. *)
  let m = !limit in
  let res =
    {
      arr = Array.sub res.arr 0 m;
      start = Array.sub res.start 0 m;
      fin = Array.sub res.fin 0 m;
      ok = Array.sub res.ok 0 m;
      lag = Array.sub res.lag 0 m;
      cid = Array.sub res.cid 0 m;
      cseq = Array.sub res.cseq 0 m;
    }
  in
  let failed = Array.fold_left (fun c ok -> if ok then c else c + 1) 0 res.ok in
  let sample =
    Option.map
      (fun sm ->
        Check.Sample.finalize sm;
        (Check.Sample.violations sm, Check.Sample.ok sm))
      sample
  in
  {
    t0;
    res;
    setup_walls = List.rev !walls;
    steps;
    step_wall = Array.sub step_wall 0 steps;
    attempted = m;
    failed;
    incorrect = List.rev !incorrect;
    digests_agree = agree ();
    leader = Option.value (dp.leader ()) ~default:(-1);
    client_node = dp.client_node;
    final = (if trace then Layers.snapshot obs else empty);
    commit_p99 = (if trace then Layers.hist_quantile obs "paxos.commit_latency" 0.99 else 0.);
    stamps;
    by_tag;
    execs = !execs;
    window = !window;
    window_wall = !window_wall;
    client_msgs = !client_msgs;
    sample;
  }


(* The highest ladder rate that meets every limit, refined by linear
   interpolation of the worst limit ratio towards the next (failing)
   rate, so the figure moves smoothly with the knee instead of jumping a
   whole ladder step. *)
let slo_rate steps =
  let best = ref (-1) in
  Array.iteri (fun i s -> if passes s then best := i) steps;
  let k = !best in
  if k < 0 then 0.
  else if k = Array.length steps - 1 then steps.(k).rate
  else
    let a = steps.(k) and b = steps.(k + 1) in
    let frac =
      if Float.is_finite b.badness then (1. -. a.badness) /. (b.badness -. a.badness) else 0.
    in
    a.rate +. (Float.min 1. (Float.max 0. frac) *. (b.rate -. a.rate))

let ns x = Int64.of_float (Float.round (x *. 1e9))

(* The steps [wall_rps] is timed on: those that meet the limits, or all
   steps if none does.  Past the knee a step's wall cost follows how deep
   the seed's backlog and retries go, not how fast the code is. *)
let timed_steps p (r : run) =
  let t = Array.map passes (step_results p ~t0:r.t0 ~steps:r.steps r.res) in
  if Array.exists Fun.id t then t else Array.make r.steps true

(* The last timed step: a timing repetition runs the ladder through it. *)
let last_timed p r =
  let k = ref 0 in
  Array.iteri (fun i t -> if t then k := i) (timed_steps p r);
  !k

(* What a repetition adds: its set-up and step wall times, and a digest
   of its virtual-time results through step [through]: every arrival of
   those steps served by the end of the step's gap, with its finish
   time.  Runs of one seed agree on it whether or not they went on past
   [through]. *)
type rep = { rep_setups : float list; rep_steps : float array; rep_digest : Digest.t }

let rep_of (p : params) ~through (r : run) =
  let cut = r.t0 +. step_start p (through + 1) in
  let served = ref [] in
  Array.iteri
    (fun i a ->
      if a.step <= through && r.res.ok.(i) && r.res.fin.(i) <= cut then
        served := (i, r.res.fin.(i)) :: !served)
    r.res.arr;
  {
    rep_setups = r.setup_walls;
    rep_steps = r.step_wall;
    rep_digest = Digest.string (Marshal.to_string !served []);
  }

(* Wall seconds of each step: the least over the repetitions, which
   holds up better against slow host periods than a median. *)
let best_step_wall (r : run) reps =
  Array.init r.steps (fun i ->
      List.fold_left
        (fun a x -> if i < Array.length x.rep_steps then Float.min a x.rep_steps.(i) else a)
        infinity reps)

(* End-to-end metrics: virtual time from the run [r], wall time from its
   repetitions [reps] ([r] included). *)
let report_e2e (p : params) (r : run) ~reps rep =
  let res = r.res in
  let rs = ref_step p in
  let at_ref f = lats res (fun a -> a.step = rs && f a) in
  let all = at_ref (fun _ -> true)
  and reads = at_ref (fun a -> a.read)
  and writes = at_ref (fun a -> not a.read) in
  let q name a x = Report.add rep ~samples:(Array.length a) name (ms (Stats.quantile a x)) in
  let step_wall = best_step_wall r reps in
  let steps = step_results p ~t0:r.t0 ~steps:r.steps res in
  let setups = List.concat_map (fun x -> x.rep_setups) reps in
  Report.add rep ~samples:(List.length setups) "setup_s" (Stats.median setups);
  (* Simulator speed over the timed steps. *)
  let timed = timed_steps p r in
  let completed = Array.make r.steps 0 in
  Array.iteri (fun i a -> if res.ok.(i) then completed.(a.step) <- completed.(a.step) + 1) res.arr;
  let n = ref 0 and wall = ref 0. in
  Array.iteri
    (fun i t ->
      if t then begin
        n := !n + completed.(i);
        wall := !wall +. step_wall.(i)
      end)
    timed;
  Report.add rep ~samples:!n "wall_rps" (float_of_int !n /. !wall);
  q "p50_ms" all 0.5;
  q "p99_ms" all 0.99;
  q "read_p50_ms" reads 0.5;
  q "read_p99_ms" reads 0.99;
  q "write_p50_ms" writes 0.5;
  q "write_p99_ms" writes 0.99;
  Report.add rep ~samples:(Array.length steps) "slo_rate_rps" (slo_rate steps);
  let top = steps.(Array.length steps - 1) in
  Report.add rep ~samples:top.arrivals "throughput_rps" top.goodput;
  Report.add rep ~samples:r.attempted "failed_frac" (Stats.ratio r.failed r.attempted);
  Array.iteri
    (fun i s ->
      Report.note rep
        (Printf.sprintf "ladder %5.0f req/s" s.rate)
        (Printf.sprintf
           "n=%d p99=%.3f ms failed=%.4f backlog_rise=%.0f goodput=%.0f limit_ratio=%.3f %s wall=%.3fs"
           s.arrivals s.p99_ms s.failed_frac s.growth s.goodput s.badness
           (if passes s then "PASS" else "miss")
           step_wall.(i)))
    steps;
  Report.note rep "repetitions"
    (Printf.sprintf "%d, set-ups %s s" (List.length reps)
       (String.concat " "
          (List.concat_map (fun x -> List.map (Printf.sprintf "%.3f") x.rep_setups) reps)))

let checks (r : run) ~reps rep =
  Report.count rep ~attempted:r.attempted ~failed:r.failed;
  (match reps with
  | first :: _ ->
    List.iteri
      (fun i x ->
        Report.check rep
          (x.rep_digest = first.rep_digest)
          "repetition %d's virtual-time results differ from the first's" i)
      reps
  | [] -> ());
  List.iter (fun m -> Report.check rep false "%s" m) r.incorrect;
  Report.check rep r.digests_agree "replica app digests disagree after quiescence";
  let lag = Stats.max_of r.res.lag in
  Report.note rep "bench.dispatch_lag_ms.max" (Printf.sprintf "%.6f" (ms lag));
  Report.check rep (lag = 0.) "an arrival was dispatched %.6f ms late" (ms lag);
  match r.sample with
  | None -> ()
  | Some (viols, ok) ->
    Report.note rep "check.sample"
      (Printf.sprintf "%d violation(s), budget %s" (List.length viols)
         (if ok then "ok" else "tripped"));
    Report.check rep (viols = [] && ok) "sampled linearizability check failed"

(* The reference step's writes split into stages, in virtual time:
   call start -> enqueue at the leader -> commit -> reply received.  A
   stage sum that differs from the client-observed call by even one
   nanosecond counts as a mismatch. *)
type stages = {
  to_leader : float list;
  commit : float list;
  reply : float list;
  checked : int;
  mismatches : int;
  ids : (int * int, int) Hashtbl.t;  (* (client, seq) -> arrival index *)
}

let stages (p : params) (r : run) =
  let res = r.res in
  let rs = ref_step p in
  let to_leader = ref [] and commit = ref [] and reply = ref [] in
  let checked = ref 0 and mismatches = ref 0 in
  let ids = Hashtbl.create 1024 in
  Array.iteri
    (fun i x ->
      if x.step = rs && res.ok.(i) && not x.read then begin
        incr checked;
        match Hashtbl.find_opt r.stamps (res.cid.(i), res.cseq.(i)) with
        | Some s when Float.is_finite s.enq && Float.is_finite s.commit ->
          Hashtbl.replace ids (res.cid.(i), res.cseq.(i)) i;
          to_leader := (s.enq -. res.start.(i)) :: !to_leader;
          commit := (s.commit -. s.enq) :: !commit;
          reply := (res.fin.(i) -. s.commit) :: !reply;
          let open Int64 in
          let a = ns res.start.(i) and e = ns s.enq and c = ns s.commit and f = ns res.fin.(i) in
          if add (sub e a) (add (sub c e) (sub f c)) <> sub f a || e < a || c < e || f < c then
            incr mismatches
        | _ -> incr mismatches
      end)
    res.arr;
  { to_leader = !to_leader; commit = !commit; reply = !reply; checked = !checked;
    mismatches = !mismatches; ids }

(* Per-layer metrics, from the traced run. *)
let report_layers (p : params) (r : run) rep ~spans =
  let res = r.res in
  let rs = ref_step p in
  let a, b = r.window in
  let d = Layers.delta a b in
  let st = stages p r in
  let ids = st.ids in
  Report.check rep (st.mismatches = 0) "%d of %d write(s) whose stages do not tile the call"
    st.mismatches st.checked;
  let reqs = ref 0 and nwrites = ref 0 in
  Array.iteri
    (fun i x ->
      if x.step = rs && res.ok.(i) then begin
        incr reqs;
        if not x.read then incr nwrites
      end)
    res.arr;
  let arr l = Array.of_list l in
  let q name l x = Report.add rep ~samples:(List.length l) name (ms (Stats.quantile (arr l) x)) in
  q "rex.client.to_leader_ms.p50" st.to_leader 0.5;
  q "rex.client.to_leader_ms.p99" st.to_leader 0.99;
  q "rex.order.commit_ms.p50" st.commit 0.5;
  q "rex.order.commit_ms.p99" st.commit 0.99;
  q "rex.client.reply_ms.p99" st.reply 0.99;
  let per name v den = Report.add rep ~samples:den name (if den = 0 then 0. else v /. float_of_int den) in
  per "rex.client.attempts_per_req" r.client_msgs !reqs;
  let lease = d "frontend.reads_fast_lease" in
  let served = lease +. d "frontend.reads_fast_quorum" +. d "frontend.reads_ordered_fallback" in
  Report.add rep ~samples:(int_of_float served) "rex.frontend.lease_read_frac"
    (if served = 0. then 0. else lease /. served);
  Report.add rep ~samples:r.attempted "bench.late_arrivals"
    (float_of_int (Array.fold_left (fun c l -> if l > 0. then c + 1 else c) 0 res.lag));
  Report.add rep "paxos.commit_ms.p99" (ms r.commit_p99);
  per "paxos.reqs_per_proposal" (float_of_int !nwrites) (int_of_float (d "paxos.proposals"));
  per "net.msgs_per_req" (d "net.messages") !reqs;
  per "net.bytes_per_req" (d "net.bytes") !reqs;
  let events = d "sim.events_dispatched" in
  per "sim.events_per_req" events !reqs;
  Report.add rep ~samples:(int_of_float events) "sim.wall_ns_per_event"
    (r.window_wall *. 1e9 /. events);
  per "sim.cpu_wait_ms"
    (1e3 *. (Layers.hist_sum b "sim.cpu_queue_wait" -. Layers.hist_sum a "sim.cpu_queue_wait"))
    !reqs;
  per "sched.barrier_stalls_per_req" (d "sched.barrier_stalls") !nwrites;
  per "rexsync.events_per_req" (d "rexsync.events_recorded") !nwrites;
  per "rexsync.edges_per_req" (d "rexsync.edges_recorded") !nwrites;
  per "trace.bytes_per_req" (d "rex.proposal_bytes") !nwrites;
  per "rexsync.replay_waits_per_req" (d "rexsync.waited_events") !nwrites;
  let fin = r.final in
  Report.add rep "trace.resident_events" (Layers.gauge_max fin "trace.resident_events");
  Report.add rep "rex.flow_stall_s" (Layers.hist_sum fin "rex.flow_stall_time");
  (* Execute, per replica, from the factory wrapper. *)
  let leader_exec = Hashtbl.create 1024 and follower_end = ref [] in
  let exec_ms = ref [] and wall_us = ref [] in
  List.iter
    (fun (x : Layers.exec) ->
      wall_us := (x.x_wall *. 1e6) :: !wall_us;
      match value_of_set x.x_request with
      | None -> ()
      | Some v -> (
        match Option.bind (parse_tag v) (Hashtbl.find_opt r.by_tag) with
        | Some id when Hashtbl.mem ids id ->
          if x.x_node = r.leader then begin
            Hashtbl.replace leader_exec id x;
            exec_ms := (x.x_t1 -. x.x_t0) :: !exec_ms
          end
          else follower_end := (id, x) :: !follower_end
        | _ -> ()))
    r.execs;
  q "apps.exec_ms.p50" !exec_ms 0.5;
  Report.add rep ~samples:(List.length !wall_us) "apps.exec_wall_us" (Stats.mean (arr !wall_us));
  let lag =
    List.filter_map
      (fun (id, (x : Layers.exec)) ->
        Option.map (fun (l : Layers.exec) -> x.x_t1 -. l.x_t1) (Hashtbl.find_opt leader_exec id))
      !follower_end
  in
  q "rex.replay_lag_ms.p99" lag 0.99;
  (* Spans: the call, its ordering stage, and the leader's execute. *)
  Hashtbl.iter
    (fun (c, s) i ->
      let id = Printf.sprintf "%d.%d" c s in
      let st = Hashtbl.find r.stamps (c, s) in
      Spans.add spans ~name:"client.call" ~id ~node:r.client_node ~t0:res.start.(i)
        ~t1:res.fin.(i) ();
      Spans.add spans ~name:"order.enqueue_commit" ~id ~parent:"client.call" ~node:r.leader
        ~t0:st.enq ~t1:st.commit ();
      match Hashtbl.find_opt leader_exec (c, s) with
      | Some x ->
        Spans.add spans ~name:"app.execute" ~id ~parent:"order.enqueue_commit" ~node:x.x_node
          ~t0:x.x_t0 ~t1:x.x_t1 ()
      | None -> ())
    ids;
  List.iter
    (fun ((c, s), (x : Layers.exec)) ->
      Spans.add spans ~name:"app.follower_execute" ~id:(Printf.sprintf "%d.%d" c s)
        ~node:x.x_node ~t0:x.x_t0 ~t1:x.x_t1 ())
    !follower_end
