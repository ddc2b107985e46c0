(* Tests of the benchmark's own code, on shrunken workloads. *)

open Perfbench

let virtual_metrics = [ "p50_ms"; "p99_ms"; "read_p50_ms"; "read_p99_ms"; "write_p50_ms"; "write_p99_ms"; "slo_rate_rps"; "throughput_rps" ]

let run ?(seconds = 0.05) workload ~seed ~trace =
  fst (Bench.run ~quick:true ~workload ~seed ~seconds ~trace ())

let virtuals rep =
  List.map
    (fun name ->
      match Report.find rep name with
      | Some v -> Printf.sprintf "%s=%h" name v
      | None -> Alcotest.failf "%s missing" name)
    virtual_metrics

(* Same seed: byte-identical virtual-time metrics; another seed: not. *)
let determinism workload () =
  let a = virtuals (run workload ~seed:5 ~trace:false) in
  let b = virtuals (run workload ~seed:5 ~trace:false) in
  let c = virtuals (run workload ~seed:6 ~trace:false) in
  Alcotest.(check (list string)) "same seed, same virtual metrics" a b;
  Alcotest.(check bool) "another seed moves them" true (a <> c)

(* In the traced run every write's stages tile its client-observed
   latency to the nanosecond. *)
let stages stack () =
  let p = Bench.kv_params ~quick:true in
  let r = Kv.execute stack p ~seed:3 ~trace:true in
  let st = Kv.stages p r in
  Alcotest.(check bool) "writes were checked" true (st.Kv.checked > 100);
  Alcotest.(check int) "stage sums that miss the call latency" 0 st.Kv.mismatches

(* A step far past the knee ends the ladder: the steps after it are
   never fired. *)
let early_stop () =
  let p = { (Bench.kv_params ~quick:true) with Kv.rates = [| 1e3; 2e3; 60e3; 1e3 |] } in
  let r = Kv.execute Kv.Rex p ~seed:3 ~trace:false in
  Alcotest.(check int) "steps run" 3 r.Kv.steps;
  Alcotest.(check bool) "no arrival of the last step fired" true
    (Array.for_all (fun a -> a.Kv.step < 3) r.Kv.res.Kv.arr)

(* Every declared metric is printed, finite, for every workload, and the
   run's own output checks pass. *)
let catalog workload trace () =
  let rep = run workload ~seed:7 ~trace in
  let line = Report.json_line rep ~keep:(Bench.declared ~trace) in
  List.iter
    (fun name ->
      match Report.find rep name with
      | Some v -> if not (Float.is_finite v) then Alcotest.failf "%s is not finite" name
      | None -> Alcotest.failf "%s was not printed" name)
    (Bench.declared ~trace);
  Alcotest.(check bool) ("output checks pass: " ^ line) true rep.Report.correct

(* BENCHMARK.json declares exactly the catalog's metrics, in order, with
   the same units (workload entries carry no unit and are skipped). *)
let find s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go from

let upto_quote s i = String.sub s i (String.index_from s i '"' - i)

let declared_in_json () =
  let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let key = "\"name\": \"" and ukey = "\"unit\": \"" in
  let rec fields from acc =
    match find json key from with
    | None -> List.rev acc
    | Some i ->
      let name = upto_quote json (i + String.length key) in
      let acc =
        match (find json ukey i, find json key (i + 1)) with
        | Some u, next when Option.fold next ~none:true ~some:(fun n -> u < n) ->
          (name, upto_quote json (u + String.length ukey)) :: acc
        | _ -> acc
      in
      fields (i + 1) acc
  in
  Alcotest.(check (list (pair string string)))
    "metrics and units" (Catalog.end_to_end @ Catalog.per_layer) (fields 0 [])

let () =
  Alcotest.run "perfbench"
    [
      ( "determinism",
        [
          Alcotest.test_case "kv-open" `Quick (determinism "kv-open");
          Alcotest.test_case "kv-open-cbase" `Quick (determinism "kv-open-cbase");
          Alcotest.test_case "leveldb-closed" `Quick (determinism "leveldb-closed");
        ] );
      ( "stages",
        [
          Alcotest.test_case "rex" `Quick (stages Kv.Rex);
          Alcotest.test_case "cbase" `Quick (stages Kv.Cbase);
        ] );
      ("ladder", [ Alcotest.test_case "ends past the knee" `Quick early_stop ]);
      ("declared", [ Alcotest.test_case "BENCHMARK.json" `Quick declared_in_json ]);
      ( "catalog",
        List.concat_map
          (fun w ->
            [
              Alcotest.test_case (w ^ " untraced") `Quick (catalog w false);
              Alcotest.test_case (w ^ " traced") `Quick (catalog w true);
            ])
          Bench.workloads );
    ]
