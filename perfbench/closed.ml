(* leveldb-closed: Rex on the Fig. 7c setup (16 workers on 16-core
   nodes, default LevelDB, the 50/50 kv mix), driven in a closed loop
   through Server.submit on the primary with a fixed outstanding window
   and a fixed request count.  The client and frontend path is bypassed:
   record, trace deltas, consensus, replay on secondaries and flow
   control do the work.

   Checkpointing is off, as in Fig. 7, so the resident trace grows with
   the run and so does the wall cost per request: the request count is
   part of the workload. *)

open Sim
module R = Rex_core

type params = {
  workers : int;
  cores : int;
  window : int;  (* outstanding requests *)
  warmup : int;  (* completions before the measured part *)
  requests : int;  (* measured completions *)
  propose_interval : float;
}

let params =
  { workers = 16; cores = 16; window = 1024; warmup = 2_000; requests = 24_000; propose_interval = 2e-4 }

type run = {
  setup_wall : float;
  wall : float;  (* wall seconds of the measured part *)
  virt : float;  (* virtual seconds of the measured part *)
  lat : float array;  (* measured requests: submit -> committed reply *)
  is_read : bool array;
  attempted : int;
  failed : int;
  incorrect : string list;
  digests_agree : bool;
  primary : int;
  final : Layers.snapshot;  (* registry at the end (traced run) *)
  commit_p99 : float;  (* paxos commit latency p99, seconds (traced run) *)
  execs : Layers.exec list;
  spans : (string * float * float) list;  (* measured SETs: request, submit, reply *)
  window_snap : Layers.snapshot * Layers.snapshot;
}

(* The request inputs, from the seed alone. *)
let gen_requests p ~seed =
  let g = Workload.Mix.kv () in
  let rng = Rng.create seed in
  Array.init (p.warmup + p.requests) (fun _ -> g rng)

let execute (p : params) ~seed ~trace =
  (* Return the previous sub-run's heap before timing anything. *)
  Gc.compact ();
  let w_setup = Stats.wall () in
  let execs = ref [] in
  let on_exec = if trace then Some (fun x -> execs := x :: !execs) else None in
  let factory = Layers.wrap_factory ?on_exec (Apps.Leveldb.factory ()) in
  let cfg = R.Cluster.config ~workers:p.workers ~propose_interval:p.propose_interval () in
  let cluster =
    R.Cluster.launch ~seed ~cores_per_node:p.cores
      ~before_start:(fun c ->
        if trace then Obs.enable_tracing (Engine.obs (R.Cluster.engine c)) true)
      cfg factory
  in
  let eng = R.Cluster.engine cluster in
  let primary = R.Cluster.await_primary cluster in
  let reqs = gen_requests p ~seed in
  let total = Array.length reqs in
  let setup_wall = Stats.wall () -. w_setup in
  let obs = Engine.obs eng in
  let submitted = Array.make total nan and done_at = Array.make total nan in
  let incorrect = ref [] in
  let failed = ref 0 and completed = ref 0 and launched = ref 0 in
  let t_warm = ref 0. and t_end = ref 0. and w_warm = ref 0. and w_end = ref 0. in
  let empty = Layers.snapshot (Obs.create ()) in
  let snap_a = ref empty and snap_b = ref empty in
  let rec submit_one () =
    if !launched < total then begin
      let i = !launched in
      incr launched;
      submitted.(i) <- Engine.clock eng;
      R.Server.submit primary reqs.(i) (fun resp ->
          done_at.(i) <- Engine.clock eng;
          incr completed;
          (match (resp, String.sub reqs.(i) 0 3) with
          | None, _ -> incr failed
          | Some "OK", "SET" -> ()
          | Some r, "SET" -> incorrect := Printf.sprintf "SET answered %S" r :: !incorrect
          | Some r, _ ->
            if String.length r >= 4 && String.sub r 0 4 = "ERR:" then
              incorrect := Printf.sprintf "GET answered %S" r :: !incorrect);
          if !completed = p.warmup then begin
            t_warm := Engine.clock eng;
            w_warm := Stats.wall ();
            if trace then snap_a := Layers.snapshot obs
          end;
          if !completed = total then begin
            t_end := Engine.clock eng;
            w_end := Stats.wall ();
            if trace then snap_b := Layers.snapshot obs
          end;
          submit_one ())
    end
  in
  for _ = 1 to p.window do
    submit_one ()
  done;
  let deadline = Engine.clock eng +. 600. in
  while !completed < total && Engine.clock eng < deadline do
    Engine.run ~until:(Engine.clock eng +. 0.05) eng
  done;
  if !completed < total then failed := !failed + (total - !completed);
  (* Quiescence: secondaries finish replaying, then every digest agrees. *)
  let servers = Array.to_list (R.Cluster.servers cluster) in
  let agree () =
    match List.map R.Server.app_digest servers with
    | [] -> true
    | d :: ds -> List.for_all (( = ) d) ds
  in
  let tries = ref 0 in
  while (not (agree ())) && !tries < 40 do
    Engine.run ~until:(Engine.clock eng +. 0.25) eng;
    incr tries
  done;
  (* The measured part: the requests completing after the warm-up. *)
  let lat = ref [] and is_read = ref [] in
  Array.iteri
    (fun i t ->
      if Float.is_finite t && t > !t_warm then begin
        lat := (t -. submitted.(i)) :: !lat;
        is_read := (String.sub reqs.(i) 0 3 = "GET") :: !is_read
      end)
    done_at;
  {
    setup_wall;
    wall = !w_end -. !w_warm;
    virt = !t_end -. !t_warm;
    lat = Array.of_list !lat;
    is_read = Array.of_list !is_read;
    attempted = total;
    failed = !failed;
    incorrect = List.rev !incorrect;
    digests_agree = agree ();
    primary = R.Server.node primary;
    final = (if trace then Layers.snapshot obs else empty);
    commit_p99 = (if trace then Layers.hist_quantile obs "paxos.commit_latency" 0.99 else 0.);
    execs = !execs;
    spans =
      (if trace then
         List.filter_map
           (fun i ->
             if done_at.(i) > !t_warm && String.sub reqs.(i) 0 3 = "SET" then
               Some (reqs.(i), submitted.(i), done_at.(i))
             else None)
           (List.init total Fun.id)
       else []);
    window_snap = (!snap_a, !snap_b);
  }

let ms x = x *. 1e3

let select (r : run) f =
  let l = ref [] in
  Array.iteri (fun i x -> if f r.is_read.(i) then l := x :: !l) r.lat;
  Array.of_list !l

(* What a repetition of sub-run [rep_sub] adds: its wall times, and a
   digest of its virtual-time results, which every run of that sub-run
   must share. *)
type rep = { rep_sub : int; rep_setup : float; rep_wall : float; rep_digest : Digest.t }

let rep_of sub r =
  {
    rep_sub = sub;
    rep_setup = r.setup_wall;
    rep_wall = r.wall;
    rep_digest = Digest.string (Marshal.to_string (r.lat, r.is_read, r.failed, r.virt) []);
  }

(* [runs]: the sub-runs of one benchmark run, each on its own seed
   derived from the run's seed; [reps]: every repetition of them, the
   runs themselves included.  Virtual-time figures pool every sub-run's
   samples (exact order statistics over all of them).  [wall_rps] takes
   the least time over each sub-run's repetitions, which holds up better
   against slow host periods than a median; [setup_s] is the median
   set-up over every repetition. *)
let report_e2e p (runs : run list) ~reps rep =
  let n = List.length runs in
  let measured = p.requests * n in
  let best f sub =
    List.fold_left (fun a x -> if x.rep_sub = sub then Float.min a (f x) else a) infinity reps
  in
  let wall = List.fold_left ( +. ) 0. (List.init n (best (fun x -> x.rep_wall))) in
  Report.add rep ~samples:(List.length reps) "setup_s"
    (Stats.median (List.map (fun x -> x.rep_setup) reps));
  Report.add rep ~samples:(List.length reps) "wall_rps" (float_of_int measured /. wall);
  let pool f = Array.concat (List.map (fun r -> select r f) runs) in
  let q name a x = Report.add rep ~samples:(Array.length a) name (ms (Stats.quantile a x)) in
  let all = pool (fun _ -> true) in
  q "p50_ms" all 0.5;
  q "p99_ms" all 0.99;
  q "read_p50_ms" (pool Fun.id) 0.5;
  q "read_p99_ms" (pool Fun.id) 0.99;
  q "write_p50_ms" (pool not) 0.5;
  q "write_p99_ms" (pool not) 0.99;
  let virt = List.fold_left (fun a r -> a +. r.virt) 0. runs in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 runs in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 runs in
  let tput = float_of_int measured /. virt in
  Report.add rep ~samples:measured "throughput_rps" tput;
  (* A closed loop offers exactly the rate it is served at: that rate
     meets the SLO when its p99 and failures are within the limits. *)
  let ok = ms (Stats.quantile all 0.99) <= 10. && Stats.ratio failed attempted <= 0.01 in
  Report.add rep ~samples:measured "slo_rate_rps" (if ok then tput else 0.);
  Report.add rep ~samples:attempted "failed_frac" (Stats.ratio failed attempted)

let checks (runs : run list) ~reps rep =
  List.iter
    (fun x ->
      Report.check rep
        (x.rep_digest = (rep_of x.rep_sub (List.nth runs x.rep_sub)).rep_digest)
        "runs of sub-run %d gave different virtual-time results" x.rep_sub)
    reps;
  Report.note rep "repetitions"
    (Printf.sprintf "%d, set-ups %s s" (List.length reps)
       (String.concat " " (List.map (fun x -> Printf.sprintf "%.3f" x.rep_setup) reps)));
  Report.note rep "sub-run walls"
    (String.concat " " (List.map (fun x -> Printf.sprintf "%d:%.3f" x.rep_sub x.rep_wall) reps));
  List.iter
    (fun r ->
      Report.count rep ~attempted:r.attempted ~failed:r.failed;
      List.iter (fun m -> Report.check rep false "%s" m) r.incorrect;
      Report.check rep r.digests_agree "replica app digests disagree after quiescence")
    runs

(* The sub-run seeds of one benchmark run. *)
let sub_runs = 10

let sub_seed ~seed i = (seed * 1000) + i

let report_layers p r rep ~spans =
  let a, b = r.window_snap in
  let d = Layers.delta a b in
  let n = p.requests in
  let per name v = Report.add rep ~samples:n name (v /. float_of_int n) in
  let fin = r.final in
  Report.add rep "paxos.commit_ms.p99" (ms r.commit_p99);
  let props = d "paxos.proposals" in
  Report.add rep ~samples:(int_of_float props) "paxos.reqs_per_proposal"
    (if props = 0. then 0. else float_of_int n /. props);
  per "net.msgs_per_req" (d "net.messages");
  per "net.bytes_per_req" (d "net.bytes");
  let events = d "sim.events_dispatched" in
  per "sim.events_per_req" events;
  Report.add rep ~samples:(int_of_float events) "sim.wall_ns_per_event" (r.wall *. 1e9 /. events);
  per "sim.cpu_wait_ms"
    (1e3 *. (Layers.hist_sum b "sim.cpu_queue_wait" -. Layers.hist_sum a "sim.cpu_queue_wait"));
  per "sched.barrier_stalls_per_req" (d "sched.barrier_stalls");
  (* The primary records; secondaries replay (their counters are in the
     same registry under their own node label). *)
  per "rexsync.events_per_req" (d "rexsync.events_recorded");
  per "rexsync.edges_per_req" (d "rexsync.edges_recorded");
  per "trace.bytes_per_req" (d "rex.proposal_bytes");
  per "rexsync.replay_waits_per_req" (d "rexsync.waited_events");
  Report.add rep "trace.resident_events" (Layers.gauge_max fin "trace.resident_events");
  Report.add rep "rex.flow_stall_s" (Layers.hist_sum fin "rex.flow_stall_time");
  (* Execute per replica: the primary's duration, and how far behind it
     each secondary's replay of the same write finishes.  A SET of a
     fresh random value names its request uniquely. *)
  let primary_end = Hashtbl.create 4096 and exec_ms = ref [] and wall_us = ref [] in
  let firsts = Hashtbl.create 4096 in
  List.iter
    (fun (x : Layers.exec) ->
      wall_us := (x.x_wall *. 1e6) :: !wall_us;
      if x.x_node = r.primary then begin
        exec_ms := (x.x_t1 -. x.x_t0) :: !exec_ms;
        Hashtbl.replace primary_end x.x_request x.x_t1
      end
      else if String.sub x.x_request 0 3 = "SET" && not (Hashtbl.mem firsts (x.x_node, x.x_request))
      then Hashtbl.replace firsts (x.x_node, x.x_request) x.x_t1)
    (List.rev r.execs);
  let lag =
    Hashtbl.fold
      (fun (_, req) t l ->
        match Hashtbl.find_opt primary_end req with Some t0 -> (t -. t0) :: l | None -> l)
      firsts []
    |> Array.of_list
  in
  (* Spans: the submit-to-reply interval and the primary's execute. *)
  let primary_exec = Hashtbl.create 4096 in
  List.iter
    (fun (x : Layers.exec) -> if x.x_node = r.primary then Hashtbl.replace primary_exec x.x_request x)
    r.execs;
  List.iteri
    (fun i (req, t0, t1) ->
      let id = string_of_int i in
      Spans.add spans ~name:"server.submit" ~id ~node:r.primary ~t0 ~t1 ();
      match Hashtbl.find_opt primary_exec req with
      | Some x ->
        Spans.add spans ~name:"app.execute" ~id ~parent:"server.submit" ~node:r.primary
          ~t0:x.x_t0 ~t1:x.x_t1 ()
      | None -> ())
    r.spans;
  let exec_ms = Array.of_list !exec_ms in
  Report.add rep ~samples:(Array.length exec_ms) "apps.exec_ms.p50" (ms (Stats.quantile exec_ms 0.5));
  Report.add rep ~samples:(List.length !wall_us) "apps.exec_wall_us" (Stats.mean (Array.of_list !wall_us));
  Report.add rep ~samples:(Array.length lag) "rex.replay_lag_ms.p99" (ms (Stats.quantile lag 0.99))
