(* One benchmark run: a workload, untraced (end-to-end metrics) or
   traced (per-layer metrics).  [quick] shrinks every workload to a
   size the unit tests can afford; the benchmark itself never sets it. *)

let workloads = [ "kv-open"; "kv-open-cbase"; "leveldb-closed" ]

let kv_params ~quick =
  if quick then
    { Kv.params with sessions = 200; keys = 10_000; rates = [| 1e3; 2e3; 3e3 |]; ref_rate = 2e3; step = 0.5 }
  else Kv.params

let closed_params ~quick =
  if quick then { Closed.params with window = 256; warmup = 200; requests = 2_000 } else Closed.params

let domains_params ~quick =
  let p = Exec_domains.params () in
  if quick then { p with per_round = 500; min_rounds = 2 } else p

(* Self time per request of each layer's span, in ms. *)
let report_self spans rep =
  let selfs = Spans.self_times spans in
  let add metric span =
    match List.find_opt (fun (n, _, _) -> n = span) selfs with
    | Some (_, s, n) -> Report.add rep ~samples:n metric (s *. 1e3 /. float_of_int n)
    | None -> ()
  in
  add "self.client_ms" "client.call";
  add "self.order_ms" "order.enqueue_commit";
  add "self.order_ms" "server.submit";
  add "self.exec_ms" "app.execute"

let wall_rps_of r = Option.value (Report.find r "wall_rps") ~default:nan

(* Untraced wall_rps of a throwaway report, for the tracing overhead. *)
let untraced f =
  let r = Report.create () in
  f r;
  wall_rps_of r

(* [f 0], [f 1], ... while the next call, if it takes as long as the
   last one, ends within [seconds] of [start]; at least [min] calls.
   The simulator workloads repeat their deterministic runs this way:
   each repetition must give the same virtual-time results, and the
   wall-time rates take the best of them. *)
let repeat ~start ~seconds ~min f =
  let rec go i last acc =
    let now = Stats.wall () in
    if i >= min && now -. start +. last > seconds then List.rev acc
    else
      let x = f i in
      go (i + 1) (Stats.wall () -. now) (x :: acc)
  in
  go 0 0. []

(* [micro] measures the micro-benchmarks (traced runs only); by default
   in this process. *)
let run ?(quick = false) ?micro ~workload ~seed ~seconds ~trace () =
  let start = Stats.wall () in
  let rep = Report.create () in
  let spans = Spans.create () in
  Report.note rep "workload" workload;
  Report.note rep "seed" (string_of_int seed);
  Report.note rep "mode" (if trace then "traced (per-layer metrics)" else "untraced (end-to-end metrics)");
  Report.note rep "machine"
    (Printf.sprintf "%d core(s) (Domain.recommended_domain_count)" (Domain.recommended_domain_count ()));
  let micro =
    if not trace then []
    else
      match micro with
      | Some f -> f ()
      | None -> Micro.run ~quota:(if quick then 0.01 else 0.15) ()
  in
  let overhead base traced =
    let tmp = Report.create () in
    traced tmp;
    Report.add rep "wall_rps" base;
    Report.add rep "bench.tracing_overhead_rps" (base -. wall_rps_of tmp)
  in
  (match workload with
  | "kv-open" | "kv-open-cbase" ->
    let stack = if workload = "kv-open" then Kv.Rex else Kv.Cbase in
    let p = kv_params ~quick in
    if not trace then begin
      (* The first run gives the virtual-time figures.  The repetitions
         after it only run the ladder through its last timed step. *)
      let setups = if quick then 1 else 3 in
      let r = Kv.execute ~setups stack p ~seed ~trace:false in
      let through = Kv.last_timed p r in
      let reps =
        repeat ~start ~seconds ~min:2 (fun i ->
            if i = 0 then Kv.rep_of p ~through r
            else Kv.rep_of p ~through (Kv.execute ~setups ~through stack p ~seed ~trace:false))
      in
      Kv.report_e2e p r ~reps rep;
      Kv.checks r ~reps rep
    end
    else begin
      let base =
        untraced (fun tmp ->
            let r = Kv.execute stack p ~seed ~trace:false in
            Kv.report_e2e p r ~reps:[ Kv.rep_of p ~through:(Kv.last_timed p r) r ] tmp)
      in
      let r = Kv.execute stack p ~seed ~trace:true in
      let reps = [ Kv.rep_of p ~through:(Kv.last_timed p r) r ] in
      overhead base (Kv.report_e2e p r ~reps);
      Kv.checks r ~reps rep;
      Kv.report_layers p r rep ~spans
    end
  | "leveldb-closed" ->
    let p = closed_params ~quick in
    let subs = if quick then 2 else Closed.sub_runs in
    if not trace then begin
      (* Sub-runs in turn; the latest run of each is kept, for the
         virtual-time figures. *)
      let runs = Array.make subs None in
      let reps =
        repeat ~start ~seconds ~min:subs (fun i ->
            let sub = i mod subs in
            runs.(sub) <- None;
            let r = Closed.execute p ~seed:(Closed.sub_seed ~seed sub) ~trace:false in
            runs.(sub) <- Some r;
            Closed.rep_of sub r)
      in
      let runs = List.map Option.get (Array.to_list runs) in
      Closed.report_e2e p runs ~reps rep;
      Closed.checks runs ~reps rep
    end
    else begin
      (* The layers are read on the first sub-run. *)
      let seed = Closed.sub_seed ~seed 0 in
      let base =
        untraced (fun tmp ->
            let r = Closed.execute p ~seed ~trace:false in
            Closed.report_e2e p [ r ] ~reps:[ Closed.rep_of 0 r ] tmp)
      in
      let r = Closed.execute p ~seed ~trace:true in
      let reps = [ Closed.rep_of 0 r ] in
      overhead base (Closed.report_e2e p [ r ] ~reps);
      Closed.checks [ r ] ~reps rep;
      Closed.report_layers p r rep ~spans;
      (* The same app's record path on real domains. *)
      Exec_domains.report (domains_params ~quick) ~seed ~seconds:(seconds /. 5.) rep
    end
  | w -> invalid_arg ("Bench.run: unknown workload " ^ w));
  if trace then begin
    Report.add rep "gc.heap_peak_mb" (Layers.gc_heap_peak_mb ());
    report_self spans rep;
    List.iter (fun (name, ns) -> Report.add rep name ns) micro;
    (* A layer this workload never calls: measured as zero. *)
    List.iter
      (fun (name, _) -> if Report.find rep name = None then Report.add rep ~samples:0 name 0.)
      Catalog.per_layer
  end;
  (rep, spans)

(* The metrics the JSON line carries. *)
let declared ~trace = List.map fst (if trace then Catalog.per_layer else Catalog.end_to_end)
