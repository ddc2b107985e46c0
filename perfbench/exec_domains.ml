(* The execution stage of one Rex primary on real OCaml 5 domains, with
   no network: the LevelDB app behind a record-mode runtime, one worker
   fiber per domain in a closed loop, the app's timers on their own
   slots (as on a replica), and the trace compacted periodically at the
   recorded cut, as a primary does after commit.  It runs beside the
   traced leveldb-closed run and reports per-layer metrics only: every
   figure here is wall time on real cores, and on a shared host how two
   domains get co-scheduled moves it by a quarter from run to run. *)

open Sim
module R = Rex_core

type params = {
  domains : int;
  workers : int;
  per_round : int;  (* requests per worker per timed round *)
  min_rounds : int;
}

let params () =
  let d = Domain.recommended_domain_count () in
  { domains = d; workers = d; per_round = 5_000; min_rounds = 5 }

let timer_slots = 8

(* Wall seconds between trace compactions. *)
let compact_every = 2e-3

(* One machine: pool, runtime, app.  [record = false] leaves the workers
   unbound, so they take the native path through the same primitives. *)
type machine = {
  d : Par.Domains.t;
  rt : Rexsync.Runtime.t;
  app : R.App.t;
  timers : R.Api.timer_spec list;
}

let machine ~domains ~workers ~seed =
  let d = Par.Domains.create ~seed ~domains () in
  let rt = Rexsync.Runtime.create (Par.Domains.backend d) ~node:0 ~slots:(workers + timer_slots) in
  let api = R.Api.make rt in
  let app = Apps.Leveldb.factory () api in
  let timers = R.Api.seal api in
  if List.length timers > timer_slots then failwith "exec_domains: too many app timers";
  { d; rt; app; timers }

(* Open the timing window only once every pool domain has taken a task:
   one spinning fiber per domain, each waiting until all have started.
   A domain that never picks its fiber up fails the run. *)
let warm_pool m =
  let n = Par.Domains.domains m.d in
  let started = Atomic.make 0 in
  let ids = Array.make n (-1) in
  for i = 0 to n - 1 do
    Par.Domains.spawn m.d ~node:0 ~name:"warm" (fun () ->
        ids.(i) <- (Domain.self () :> int);
        Atomic.incr started;
        let t = Stats.wall () in
        while Atomic.get started < n && Stats.wall () -. t < 5. do
          Domain.cpu_relax ()
        done)
  done;
  Par.Domains.join m.d;
  let distinct = List.length (List.sort_uniq compare (Array.to_list ids)) in
  if Atomic.get started < n || distinct < n then
    failwith (Printf.sprintf "exec_domains: only %d of %d pool domains took a task" distinct n)

(* The request inputs of one worker, from the seed alone; the same list
   is replayed every round. *)
let gen_requests p ~seed w =
  let g = Workload.Mix.kv () in
  let rng = Rng.create ((seed * 31) + w) in
  Array.init p.per_round (fun _ -> g rng)

(* What the rounds of one machine did: requests completed, and every
   wrong answer. *)
type tally = { completed : int Atomic.t; incorrect : string list Atomic.t }

let rec push a x =
  let l = Atomic.get a in
  if not (Atomic.compare_and_set a l (x :: l)) then push a x

(* One timed round, in wall seconds: every worker runs its requests back
   to back, while the timer fibers and the compactor run until the
   workers are done. *)
let round m ~record ~reqs tally =
  let workers = Array.length reqs in
  let remaining = Atomic.make workers in
  let bg name slot f =
    Par.Domains.spawn m.d ~node:0 ~name (fun () ->
        Option.iter (Rexsync.Runtime.bind_slot m.rt) slot;
        while Atomic.get remaining > 0 do
          f ()
        done;
        Option.iter (fun _ -> Rexsync.Runtime.unbind_slot m.rt) slot)
  in
  List.iteri
    (fun i (spec : R.Api.timer_spec) ->
      bg spec.R.Api.t_name (if record then Some (workers + i) else None) (fun () ->
          Engine.sleep spec.R.Api.t_interval;
          if Atomic.get remaining > 0 then spec.R.Api.t_callback ()))
    m.timers;
  if record then
    bg "compactor" None (fun () ->
        Engine.sleep compact_every;
        Rexsync.Runtime.compact_trace m.rt ~upto:(Rexsync.Runtime.recorded_cut m.rt));
  let t0 = Stats.wall () in
  Array.iteri
    (fun w rs ->
      Par.Domains.spawn m.d ~node:0 ~name:(Printf.sprintf "worker%d" w) (fun () ->
          if record then Rexsync.Runtime.bind_slot m.rt w;
          let completed = ref 0 in
          Array.iter
            (fun req ->
              let resp = m.app.R.App.execute ~request:req in
              if String.sub req 0 3 = "SET" && resp <> "OK" then
                push tally.incorrect (Printf.sprintf "SET answered %S" resp);
              incr completed)
            rs;
          ignore (Atomic.fetch_and_add tally.completed !completed);
          if record then Rexsync.Runtime.unbind_slot m.rt;
          Atomic.decr remaining))
    reqs;
  Par.Domains.join m.d;
  Stats.wall () -. t0

type rate = {
  rps : float;  (* median over the rounds *)
  rounds : int;
  busy : float;  (* wall seconds of the timed rounds *)
  before : Layers.snapshot;  (* the pool's registry around the rounds *)
  after : Layers.snapshot;
}

(* Requests per wall second of timed rounds (at least [rounds], then
   until [seconds] have passed) on a fresh, warmed machine. *)
let rate p ~seed ~domains ~workers ~record ~rounds ~seconds tally =
  Gc.compact ();
  let m = machine ~domains ~workers ~seed in
  warm_pool m;
  let reqs = Array.init workers (gen_requests p ~seed) in
  let obs = Par.Domains.obs m.d in
  let before = Layers.snapshot obs in
  let start = Stats.wall () in
  let walls = ref [] in
  while List.length !walls < rounds || Stats.wall () -. start < seconds do
    walls := round m ~record ~reqs tally :: !walls
  done;
  let busy = Stats.wall () -. start in
  let after = Layers.snapshot obs in
  Par.Domains.shutdown m.d;
  let requests = float_of_int (workers * p.per_round) in
  {
    rps = Stats.median (List.map (fun w -> requests /. w) !walls);
    rounds = List.length !walls;
    busy;
    before;
    after;
  }

(* The per-layer metrics of the record path on [p.domains] domains,
   timed for about [seconds], then short side runs on one domain and on
   the native path; the output checks go into [rep] too. *)
let report p ~seed ~seconds rep =
  let tally = { completed = Atomic.make 0; incorrect = Atomic.make [] } in
  let full =
    rate p ~seed ~domains:p.domains ~workers:p.workers ~record:true ~rounds:p.min_rounds ~seconds
      tally
  in
  let side = 5 in
  let one = rate p ~seed ~domains:1 ~workers:1 ~record:true ~rounds:side ~seconds:0. tally in
  let native =
    rate p ~seed ~domains:p.domains ~workers:p.workers ~record:false ~rounds:side ~seconds:0. tally
  in
  let n = p.workers * p.per_round * full.rounds in
  let d = Layers.delta full.before full.after in
  Report.add rep ~samples:full.rounds "par.record_rps" full.rps;
  Report.add rep "par.domain_busy_frac"
    (d "par.domain_busy" /. (float_of_int p.domains *. full.busy));
  Report.add rep ~samples:n "par.tasks_per_req" (d "par.pool_tasks" /. float_of_int n);
  Report.add rep "par.queue_depth_max" (Layers.gauge_max full.after "par.queue_depth_max");
  Report.add rep ~samples:side "par.scaling" (full.rps /. one.rps);
  Report.add rep ~samples:side "rexsync.record_overhead" (native.rps /. full.rps);
  Report.note rep "real domains"
    (Printf.sprintf "record %d workers %.0f req/s, record 1 worker %.0f req/s, native %.0f req/s"
       p.workers full.rps one.rps native.rps);
  let issued = p.per_round * ((full.rounds + native.rounds) * p.workers + one.rounds) in
  let completed = Atomic.get tally.completed in
  Report.count rep ~attempted:issued ~failed:(issued - completed);
  Report.check rep (completed = issued) "real domains: completed %d of %d issued requests" completed
    issued;
  List.iter
    (fun m -> Report.check rep false "real domains: %s" m)
    (List.rev (Atomic.get tally.incorrect))
