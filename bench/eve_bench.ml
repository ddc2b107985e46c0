(* Rex vs execute-verify (Eve-style): the paper's §5 comparison made
   quantitative.  The Fig. 8 micro-benchmark runs under both frameworks:
   Rex preserves the application's 10%-in-lock granularity, while Eve's
   mixer must treat the whole request as the unit of parallelism — the
   f = 100% configuration — so its throughput collapses with contention
   much earlier.  A second sweep shows the cost of an imperfect mixer
   (missed conflicts → rollback + serial re-execution). *)

open Sim
module R = Rex_core

let threads = 16

let conflict_keys req =
  match Apps.Util.words req with [ "REQ"; i ] -> [ i ] | _ -> []

let run_eve ?(seed = 42) ?(miss_rate = 0.) ~locks ~frac ~warmup ~measure () =
  let d =
    Check.Stacks.deploy ~cores_per_node:16 ~miss_rate ~seed ~conflict:conflict_keys
      Check.Stacks.Eve
      (R.Config.make ~workers:threads ~replicas:Check.Stacks.replicas ())
      (Fig8.micro_factory ~frac ~locks ())
  in
  let eng = d.Check.Stacks.eng in
  let primary = Option.get (Check.Stacks.leader d) in
  let total = warmup + measure in
  let completed = ref 0 in
  let t_warm = ref 0. and t_end = ref 0. in
  let launched = ref 0 in
  let rng = Rng.create (seed + 13) in
  let rec submit_one () =
    if !launched < total + 512 then begin
      incr launched;
      Smr.submit primary (Fig8.gen ~locks rng) (fun _ ->
          incr completed;
          if !completed = warmup then t_warm := Engine.clock eng;
          if !completed = total then t_end := Engine.clock eng;
          submit_one ())
    end
  in
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         for _ = 1 to 512 do
           submit_one ()
         done));
  let deadline = Engine.clock eng +. 600. in
  let rec pump () =
    Engine.run ~until:(Engine.clock eng +. 0.25) eng;
    if !completed < total && Engine.clock eng < deadline then pump ()
  in
  pump ();
  let throughput =
    if !completed >= total then float_of_int measure /. (!t_end -. !t_warm)
    else 0.
  in
  (* The primary's [eve] obs counters. *)
  let count name =
    Obs.Metric.value
      (Obs.counter (Engine.obs eng) ~subsystem:"eve"
         ~labels:[ ("node", string_of_int (Smr.node primary)) ]
         name)
  in
  (throughput, count)

let run ?(quick = false) () =
  let warmup = if quick then 30 else 100 in
  let measure = if quick then 100 else 400 in
  Printf.printf
    "\n== Rex vs execute-verify (Eve-style), Fig. 8 micro-benchmark ==\n";
  Printf.printf
    "(10 ms requests, 10%% of compute in a lock for Rex; Eve parallelizes \
     whole requests)\n";
  Printf.printf "contention_p\tnative\tRex\tEve\tEve_avg_batch\n%!";
  List.iter
    (fun p ->
      let locks = max 1 (int_of_float (1. /. p)) in
      let native = Fig8.point ~quick ~mode:Harness.Native ~frac:0.1 ~locks () in
      let rex = Fig8.point ~quick ~mode:Harness.Rex ~frac:0.1 ~locks () in
      let eve_tp, count = run_eve ~locks ~frac:0.1 ~warmup ~measure () in
      Printf.printf "%g\t%.0f\t%.0f\t%.0f\t%.1f\n%!" p
        native.Harness.throughput rex.Harness.throughput eve_tp
        (float_of_int (count "batched_requests")
        /. float_of_int (max 1 (count "batches"))))
    [ 0.001; 0.01; 0.05; 0.1; 0.2; 0.5 ];
  Printf.printf "\n== Cost of an imperfect mixer (p = 0.1) ==\n";
  Printf.printf "miss_rate\tEve/s\trollbacks\tbatches\n%!";
  List.iter
    (fun miss_rate ->
      let tp, count = run_eve ~miss_rate ~locks:10 ~frac:0.1 ~warmup ~measure () in
      Printf.printf "%.2f\t%.0f\t%d\t%d\n%!" miss_rate tp (count "rollbacks")
        (count "batches"))
    [ 0.0; 0.1; 0.3; 0.6 ]
