(* Bechamel ns/op of the public functions on the simulated request path:
   the per-call constant factors behind wall_rps on the sim workloads. *)

open Bechamel
open Toolkit
module R = Rex_core

let envelope =
  let env = { R.Session.Envelope.client = 123456; seq = 7890; payload = String.make 120 'v' } in
  Test.make ~name:"micro.envelope_codec_ns"
    (Staged.stage (fun () -> ignore (R.Session.Envelope.decode (R.Session.Envelope.encode env))))

let batch =
  let reqs = List.init 16 (fun i -> Printf.sprintf "SET k%015d %s" i (String.make 100 'v')) in
  Test.make ~name:"micro.batch_codec_ns"
    (Staged.stage (fun () -> ignore (R.Frontend.decode_batch (R.Frontend.encode_batch reqs))))

let trace_delta =
  let t = Trace.create ~slots:4 () in
  for c = 1 to 256 do
    for s = 0 to 3 do
      Trace.append t
        { Event.id = { slot = s; clock = c }; kind = Event.Acquire; resource = 42; version = c; payload = "" }
    done;
    if c > 1 then Trace.add_edge t ~src:{ slot = 0; clock = c - 1 } ~dst:{ slot = 1; clock = c }
  done;
  Test.make ~name:"micro.trace_delta_ns"
    (Staged.stage (fun () ->
         let d = Trace.Delta.extract t ~base:(Trace.Cut.zero ~slots:4) in
         let b = Codec.sink () in
         Trace.Delta.write b d;
         ignore (Trace.Delta.read (Codec.source (Codec.contents b)))))

let vclock =
  let a = Vclock.create ~slots:24 and b = Vclock.create ~slots:24 in
  Test.make ~name:"micro.vclock_join_ns" (Staged.stage (fun () -> Vclock.join a b))

let paxos_accept =
  let accept =
    Paxos.Msg.Accept
      { ballot = { round = 7; replica = 2 }; instance = 123456; value = String.make 512 'x'; prior = [] }
  in
  let acked = Paxos.Msg.Accepted { ballot = { round = 7; replica = 2 }; instance = 123456 } in
  Test.make ~name:"micro.paxos_accept_ns"
    (Staged.stage (fun () ->
         ignore (Paxos.Msg.decode (Paxos.Msg.encode accept));
         ignore (Paxos.Msg.decode (Paxos.Msg.encode acked))))

(* 100 fibers each sleeping once: 200 dispatched events per run. *)
let sim_events = 200

let sim_spawn_sleep =
  Test.make ~name:"micro.sim_spawn_sleep_ns"
    (Staged.stage (fun () ->
         let eng = Sim.Engine.create ~seed:1 ~num_nodes:1 () in
         for _ = 1 to sim_events / 2 do
           ignore (Sim.Engine.spawn eng ~node:0 (fun () -> Sim.Engine.sleep 1e-6))
         done;
         Sim.Engine.run eng))

let tests = [ envelope; batch; trace_delta; vclock; paxos_accept; sim_spawn_sleep ]

(* (metric name, ns per op); the simulator test is reported per event. *)
let run ?(quota = 0.15) () =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      Hashtbl.fold
        (fun name est acc ->
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
            let ns = if name = "micro.sim_spawn_sleep_ns" then ns /. float_of_int sim_events else ns in
            (name, ns) :: acc
          | _ -> acc)
        (Analyze.all ols Instance.monotonic_clock results)
        [])
    tests

(* {!run} in a forked child, reporting back through a pipe: the
   benchmarks' allocations then leave the parent's heap, and so the
   workload measured after them, untouched.  Call before any domain is
   spawned (Unix.fork refuses afterwards). *)
let run_in_child () =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    List.iter (fun (name, ns) -> Printf.fprintf oc "%s %h\n" name ns) (run ());
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let results = In_channel.input_all ic |> String.split_on_char '\n' in
    close_in ic;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "micro-benchmark child failed");
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ name; ns ] -> Some (name, float_of_string ns)
        | _ -> None)
      results
