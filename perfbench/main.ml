(* The benchmark's entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints one line per metric (name, value, unit, sample count), then as
   its last line one JSON object with the end-to-end metrics (--trace 0)
   or the per-layer metrics (--trace 1).  A traced run also writes its
   spans to perfbench/out/.  Exits 1 when an output check fails.  See
   perfbench/README.md for the workloads and metrics. *)

open Perfbench

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" Bench.workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let args () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := w;
      go rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := Option.value (float_of_string_opt s) ~default:nan;
      go rest
    | "--trace" :: t :: rest ->
      trace := Option.value (int_of_string_opt t) ~default:(-1);
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !seed with
  | Some seed
    when List.mem !workload Bench.workloads && (!trace = 0 || !trace = 1) && !seconds > 0. ->
    (!workload, seed, !seconds, !trace = 1)
  | _ -> usage ()

let out_dir = Filename.concat "perfbench" "out"

let () =
  let workload, seed, seconds, trace = args () in
  let rep, spans =
    Bench.run ~micro:(fun () -> Micro.run_in_child ()) ~workload ~seed ~seconds ~trace ()
  in
  if trace then begin
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
    Spans.write spans ~path;
    Report.note rep "spans" path;
    if Spans.dropped spans > 0 then
      Report.note rep "spans dropped"
        (Printf.sprintf "%d past the first %d, not written and not in the self times"
           (Spans.dropped spans) Spans.limit)
  end;
  Report.note rep "rss_peak_mb" (Layers.rss_peak_mb ());
  Report.print_lines rep;
  print_endline (Report.json_line rep ~keep:(Bench.declared ~trace));
  exit (if rep.Report.correct then 0 else 1)
