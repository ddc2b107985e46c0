(* lib/sched: the conflict-aware parallel SMR stacks.

   Five groups:
   - the shared conflict oracles (kv grammar, counter, session-envelope
     wrapping incl. the decode-error counter that replaced Eve's silent
     fallback);
   - the conflict DAG (same-key serialization, distinct-key parallelism,
     multi-key fan-in, barriers, trim-on-complete, double-complete);
   - the execution stage on the sim backend: log order preserved for
     conflicts in both modes, unknown requests serialize as barriers,
     early-mode rendezvous ordering across workers, read parking — plus
     the qcheck property that both modes reproduce a serial replay's
     state digest on random order-sensitive kv mixes;
   - the full stack: a 3-replica cluster per mode (replies, replica
     convergence, lease reads), checkpoint/restore through the codec
     path, and one seeded fault-schedule run per mode through the check
     runner;
   - the ordered-log shell shared with SMR and Eve, on its serial, cbase
     and execute-verify stages: a leader crashing mid-batch answers no
     client, and forged timer ticks are refused. *)

open Sim
module R = Rex_core
module C = Sched.Conflict

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- conflict oracles --- *)

let oracle_kv () =
  check_bool "SET claims its key" true (C.kv "SET a v1" = [ "a" ]);
  check_bool "DEL claims its key" true (C.kv "DEL a" = [ "a" ]);
  check_bool "GET claims its key" true (C.kv "GET a" = [ "a" ]);
  check_bool "RMW claims its key" true (C.kv "RMW a f" = [ "a" ]);
  check_bool "MGET claims every key" true (C.kv "MGET a b c" = [ "a"; "b"; "c" ]);
  check_bool "unknown verb claims nothing" true (C.kv "FROB a" = []);
  check_bool "counter is one register" true
    (C.counter "INC" = [ C.counter_key ] && C.counter "GET" = [ C.counter_key ])

let oracle_envelope () =
  let obs = Obs.create () in
  let oracle = C.with_session ~obs ~subsystem:"schedtest" ~node:0 C.kv in
  let errors = Obs.counter obs ~subsystem:"schedtest"
      ~labels:[ ("node", "0") ] "envelope_decode_errors"
  in
  (* raw request: passes straight through to the app oracle *)
  check_bool "raw request untouched" true (oracle "SET a v" = [ "a" ]);
  (* enveloped: per-client session key prepended to the payload's keys *)
  let env = { R.Session.Envelope.client = 7; seq = 3; payload = "SET a v" } in
  check_bool "envelope prepends session key" true
    (oracle (R.Session.Envelope.encode env) = [ C.session_key 7; "a" ]);
  check_int "no decode errors yet" 0 (Obs.Metric.value errors);
  (* a truncated envelope (magic byte intact) raises inside decode: the
     oracle must fall back to payload-only keys AND count it *)
  let enc = R.Session.Envelope.encode env in
  let truncated = String.sub enc 0 (String.length enc - 1) in
  ignore (oracle truncated);
  check_int "decode error counted" 1 (Obs.Metric.value errors)

(* --- the conflict DAG --- *)

let take_exn d =
  match Sched.Dag.take_ready d with
  | Some n -> n
  | None -> Alcotest.fail "expected a ready node"

let dag_same_key_serializes () =
  let d = Sched.Dag.create () in
  let _a = Sched.Dag.insert d ~keys:[ "k" ] "a" in
  let _b = Sched.Dag.insert d ~keys:[ "k" ] "b" in
  check_int "only the first is ready" 1 (Sched.Dag.ready_width d);
  let a = take_exn d in
  check_string "FIFO by admission" "a" (Sched.Dag.payload a);
  check_bool "b still blocked" true (Sched.Dag.take_ready d = None);
  Sched.Dag.complete d a;
  check_string "b ready after a" "b" (Sched.Dag.payload (take_exn d))

let dag_distinct_keys_parallel () =
  let d = Sched.Dag.create () in
  let _ = Sched.Dag.insert d ~keys:[ "k1" ] "a" in
  let _ = Sched.Dag.insert d ~keys:[ "k2" ] "b" in
  check_int "both ready at once" 2 (Sched.Dag.ready_width d)

let dag_multi_key_fan_in () =
  let d = Sched.Dag.create () in
  let a = Sched.Dag.insert d ~keys:[ "k1" ] "a" in
  let b = Sched.Dag.insert d ~keys:[ "k2" ] "b" in
  let _m = Sched.Dag.insert d ~keys:[ "k1"; "k2" ] "m" in
  let a' = take_exn d and b' = take_exn d in
  check_bool "a and b ready, m is not" true
    (List.sort compare [ Sched.Dag.payload a'; Sched.Dag.payload b' ]
     = [ "a"; "b" ]
    && Sched.Dag.take_ready d = None);
  Sched.Dag.complete d a;
  check_bool "m waits for both predecessors" true (Sched.Dag.take_ready d = None);
  Sched.Dag.complete d b;
  check_string "m ready after both" "m" (Sched.Dag.payload (take_exn d))

let dag_barrier_orders_everything () =
  let d = Sched.Dag.create () in
  let a = Sched.Dag.insert d ~keys:[ "k1" ] "a" in
  let x = Sched.Dag.insert_barrier d "x" in
  let _c = Sched.Dag.insert d ~keys:[ "k2" ] "c" in
  (* c's key is free, but the barrier is live: only a may run *)
  check_string "only a ready" "a" (Sched.Dag.payload (take_exn d));
  check_bool "barrier blocked on a" true (Sched.Dag.take_ready d = None);
  Sched.Dag.complete d a;
  check_string "barrier after a" "x" (Sched.Dag.payload (take_exn d));
  check_bool "c blocked on barrier" true (Sched.Dag.take_ready d = None);
  Sched.Dag.complete d x;
  check_string "c after barrier" "c" (Sched.Dag.payload (take_exn d))

let dag_trim_on_complete () =
  let d = Sched.Dag.create () in
  let a = Sched.Dag.insert d ~keys:[ "k" ] "a" in
  let b = Sched.Dag.insert d ~keys:[ "k" ] "b" in
  check_int "two live nodes" 2 (Sched.Dag.size d);
  ignore (take_exn d);
  Sched.Dag.complete d a;
  ignore (take_exn d);
  Sched.Dag.complete d b;
  check_int "graph empty after trim" 0 (Sched.Dag.size d);
  check_bool "idle" true (Sched.Dag.idle d);
  check_bool "key released" false (Sched.Dag.busy d [ "k" ]);
  (* the per-key tail must have been trimmed: a fresh insert on the same
     key is immediately ready, not chained behind a dead node *)
  let _c = Sched.Dag.insert d ~keys:[ "k" ] "c" in
  check_string "fresh insert ready at once" "c" (Sched.Dag.payload (take_exn d))

let dag_double_complete_raises () =
  let d = Sched.Dag.create () in
  let a = Sched.Dag.insert d ~keys:[ "k" ] "a" in
  ignore (take_exn d);
  Sched.Dag.complete d a;
  match Sched.Dag.complete d a with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double complete must raise"

(* --- the execution stage (sim backend) --- *)

(* Admit [reqs] in order from a driver fiber, record execution order,
   drain; [op_cost] of Engine.work per op makes executions overlap in
   virtual time so ordering bugs actually surface. *)
let run_exec ?(workers = 2) ?(op_cost = 1e-5) ~mode ~conflict reqs =
  let eng = Engine.create ~seed:7 ~cores_per_node:8 ~num_nodes:1 () in
  let backend = Par.Backend.of_sim eng in
  let order = ref [] in
  let execute req =
    Engine.work op_cost;
    order := req :: !order;
    "OK"
  in
  let exec =
    Sched.Exec.create backend ~node:0 ~mode ~workers ~conflict ~execute
  in
  ignore
    (Engine.spawn eng ~node:0 (fun () ->
         List.iter (fun r -> Sched.Exec.admit exec r ignore) reqs;
         Sched.Exec.drain exec));
  Engine.run ~until:600. eng;
  (List.rev !order, Sched.Exec.stats exec)

let pos order req =
  let rec go i = function
    | [] -> Alcotest.fail (req ^ " never executed")
    | r :: _ when r = req -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 order

let exec_conflicts_in_log_order mode () =
  (* every request hits one key: execution must be the admission order *)
  let reqs = List.init 20 (fun i -> Printf.sprintf "RMW k %d" i) in
  let order, stats = run_exec ~workers:4 ~mode ~conflict:C.kv reqs in
  check_bool "log order preserved under conflict" true (order = reqs);
  check_int "all executed" 20 stats.Sched.Exec.executed

let exec_unknown_serializes mode () =
  (* unparseable requests ([] keys) are global barriers: the whole
     stream degenerates to admission order *)
  let reqs =
    [ "SET a 1"; "FROB x"; "SET b 2"; "FROB y"; "SET a 3" ]
  in
  let order, stats = run_exec ~workers:4 ~mode ~conflict:C.kv reqs in
  check_bool "total order around barriers" true
    (pos order "SET a 1" < pos order "FROB x"
    && pos order "FROB x" < pos order "SET b 2"
    && pos order "SET b 2" < pos order "FROB y"
    && pos order "FROB y" < pos order "SET a 3");
  check_int "barrier per unknown request" 2 stats.Sched.Exec.barriers

let early_rendezvous_ordering () =
  (* two keys owned by different workers (the class map is
     [Hashtbl.hash key mod workers]); a spanning MGET must rendezvous:
     everything admitted before it on either queue runs first,
     everything after runs later *)
  let workers = 2 in
  let candidates = List.init 16 (fun i -> Printf.sprintf "k%d" i) in
  let owner k = Hashtbl.hash k mod workers in
  let ka = List.find (fun k -> owner k = 0) candidates in
  let kb = List.find (fun k -> owner k = 1) candidates in
  let reqs =
    [
      Printf.sprintf "SET %s 1" ka;
      Printf.sprintf "SET %s 1" kb;
      Printf.sprintf "MGET %s %s" ka kb;
      Printf.sprintf "SET %s 2" ka;
      Printf.sprintf "SET %s 2" kb;
    ]
  in
  let order, stats =
    run_exec ~workers ~mode:Sched.Exec.Early ~conflict:C.kv reqs
  in
  let m = pos order (Printf.sprintf "MGET %s %s" ka kb) in
  check_bool "writes before the MGET rendezvous" true
    (pos order (Printf.sprintf "SET %s 1" ka) < m
    && pos order (Printf.sprintf "SET %s 1" kb) < m);
  check_bool "writes after the MGET rendezvous" true
    (pos order (Printf.sprintf "SET %s 2" ka) > m
    && pos order (Printf.sprintf "SET %s 2" kb) > m);
  check_int "all executed" 5 stats.Sched.Exec.executed

let exec_park_until_quiet () =
  let eng = Engine.create ~seed:7 ~cores_per_node:8 ~num_nodes:1 () in
  let backend = Par.Backend.of_sim eng in
  let done_write = ref false in
  let execute _req =
    Engine.work 0.01;
    done_write := true;
    "OK"
  in
  let exec =
    Sched.Exec.create backend ~node:0 ~mode:Sched.Exec.Cbase ~workers:2
      ~conflict:C.kv ~execute
  in
  let read_after_write = ref false and unrelated_waited = ref false in
  ignore
    (Engine.spawn eng ~node:0 (fun () ->
         Sched.Exec.admit exec "SET hot 1" ignore;
         check_bool "hot busy while in flight" true
           (Sched.Exec.busy exec [ "hot" ]);
         (* a read on an unrelated key must not wait for the write *)
         Sched.Exec.park_until_quiet exec [ "cold" ];
         unrelated_waited := !done_write;
         Sched.Exec.park_until_quiet exec [ "hot" ];
         read_after_write := !done_write));
  Engine.run ~until:60. eng;
  check_bool "unrelated read did not park" false !unrelated_waited;
  check_bool "conflicting read parked until the write" true !read_after_write

(* qcheck: random order-sensitive kv mixes through both modes must end
   in the state a serial replay reaches (mirrors test_par's equivalence
   group).  RMW appends, so any per-key reordering changes the digest. *)
let apply_serial t req =
  match Apps.Util.words req with
  | [ "SET"; k; v ] -> Hashtbl.replace t k v
  | [ "DEL"; k ] -> Hashtbl.remove t k
  | [ "RMW"; k; v ] ->
    let old = Option.value (Hashtbl.find_opt t k) ~default:"0" in
    Hashtbl.replace t k (old ^ "+" ^ v)
  | _ -> ()

let kv_digest t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort compare
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat ";"

let op_gen =
  QCheck.Gen.(
    map3
      (fun verb k v ->
        let key = Printf.sprintf "k%d" k in
        match verb with
        | 0 -> Printf.sprintf "SET %s v%d" key v
        | 1 -> Printf.sprintf "RMW %s %d" key v
        | 2 -> Printf.sprintf "DEL %s" key
        | 3 -> Printf.sprintf "GET %s" key
        | _ -> Printf.sprintf "MGET k%d k%d" k (v mod 5))
      (int_bound 4) (int_bound 4) (int_bound 9))

let prop_digest_matches_serial mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s replay matches serial digest"
         (Sched.Exec.mode_name mode))
    ~count:40
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) op_gen))
    (fun reqs ->
      let eng = Engine.create ~seed:11 ~cores_per_node:8 ~num_nodes:1 () in
      let backend = Par.Backend.of_sim eng in
      let t = Hashtbl.create 16 in
      let execute req =
        Engine.work 1e-5;
        apply_serial t req;
        "OK"
      in
      let exec =
        Sched.Exec.create backend ~node:0 ~mode ~workers:4 ~conflict:C.kv
          ~execute
      in
      ignore
        (Engine.spawn eng ~node:0 (fun () ->
             List.iter (fun r -> Sched.Exec.admit exec r ignore) reqs;
             Sched.Exec.drain exec));
      Engine.run ~until:600. eng;
      let serial = Hashtbl.create 16 in
      List.iter (apply_serial serial) reqs;
      kv_digest t = kv_digest serial)

(* --- the full stack --- *)

let make_cluster ~mode =
  let d =
    Check.Stacks.deploy ~seed:5 ~conflict:C.kv
      (Option.get (Check.Stacks.of_string (Sched.Exec.mode_name mode)))
      (R.Config.make ~workers:4 ~replicas:Check.Stacks.replicas ())
      (Apps.Kyoto.factory ())
  in
  (d.Check.Stacks.eng, d.Check.Stacks.servers, Option.get (Check.Stacks.leader d))

let cluster_smoke mode () =
  let eng, servers, primary = make_cluster ~mode in
  let n = 40 in
  let replies = ref 0 and read = ref "" in
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         for i = 0 to n - 1 do
           Smr.submit primary
             (Printf.sprintf "SET s%d v%d" (i mod 7) i)
             (fun resp -> if resp <> None then incr replies)
         done));
  Engine.run ~until:30. eng;
  check_int "every submit answered" n !replies;
  (* lease read through the frontend read routing (parks behind
     conflicting in-flight writes) *)
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         read := Smr.query primary "GET s0"));
  Engine.run ~until:40. eng;
  check_string "lease read sees the committed write" "v35" !read;
  let d = Sched.Server.app_digest servers.(0) in
  Array.iter
    (fun s -> check_string "replicas converged" d (Sched.Server.app_digest s))
    servers;
  check_bool "executed on every replica" true
    (Array.for_all (fun s -> Smr.executed_requests s >= n) servers)

let checkpoint_roundtrip () =
  let eng, _servers, primary = make_cluster ~mode:Sched.Exec.Cbase in
  let phase = ref `Write and snap = ref "" and d0 = ref "" in
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         let put i =
           let resp = ref None in
           Smr.submit primary
             (Printf.sprintf "SET c%d v%d" i i)
             (fun r -> resp := r);
           while !resp = None do
             Engine.sleep 0.01
           done
         in
         for i = 0 to 9 do
           put i
         done;
         d0 := Sched.Server.app_digest primary;
         snap := Smr.checkpoint primary;
         phase := `Snapped;
         (* mutate past the snapshot, then rewind *)
         put 10;
         check_bool "state moved past the snapshot" true
           (Sched.Server.app_digest primary <> !d0);
         Smr.restore primary !snap;
         phase := `Restored));
  Engine.run ~until:60. eng;
  check_bool "restore completed" true (!phase = `Restored);
  check_string "restore rewound to the checkpoint cut" !d0
    (Sched.Server.app_digest primary)

let runner_one_seed stack () =
  let nemesis = Option.get (Check.Nemesis.profile_of_string "crash") in
  let cfg =
    Check.Runner.default_config ~clients:2 ~ops_per_client:4 ~stack
      ~app:Check.Runner.Kv ~nemesis ~seed:77 ()
  in
  let o = Check.Runner.run_one cfg in
  check_bool "linearizable, converged and live" true (Check.Runner.passed o)

(* --- the ordered-log shell: serial (smr), parallel (cbase) and
   execute-verify (eve) stages --- *)

let make_shell ~stack ~seed ~op_cost =
  (* Eve rejects background timers: it runs the timer-less kv. *)
  let factory =
    match stack with
    | Check.Stacks.Eve -> Check.Runner.plain_kv_factory ~op_cost ()
    | Check.Stacks.(Smr | Cbase | Early) -> Apps.Kyoto.factory ~op_cost ()
  in
  let d =
    Check.Stacks.deploy ~seed ~conflict:C.kv stack
      (R.Config.make ~workers:4 ~replicas:Check.Stacks.replicas ())
      factory
  in
  ( d.Check.Stacks.eng,
    d.Check.Stacks.rpc,
    d.Check.Stacks.servers,
    Option.get (Check.Stacks.leader d) )

let live_digests_agree eng servers =
  match
    Array.to_list servers
    |> List.filter (fun s -> Engine.node_alive eng (Smr.node s))
    |> List.map Smr.app_digest
  with
  | d :: rest -> List.iter (check_string "live replicas agree" d) rest
  | [] -> Alcotest.fail "no live replicas"

(* A leader crashing while it executes a committed batch must answer
   nobody: its clients retry and get the new leader's reply.  Twenty
   one-shot clients, 1 ms per SET, the crash swept across the batch. *)
let crash_mid_batch stack () =
  let errs = ref 0 and answered = ref 0 in
  List.iter
    (fun k ->
      let eng, rpc, servers, leader = make_shell ~stack ~seed:21 ~op_cost:1e-3 in
      let t0 = Engine.clock eng in
      for c = 0 to 19 do
        let cl = R.Client.create rpc ~me:3 ~replicas:[ 0; 1; 2 ] in
        ignore
          (Engine.spawn eng ~node:3 (fun () ->
               match R.Client.call cl (Printf.sprintf "SET k%d v%d" c c) with
               | Some "ERR:handler-exception" -> incr errs
               | Some _ -> incr answered
               | None -> ()))
      done;
      Engine.run ~until:(t0 +. (float_of_int k *. 5e-4)) eng;
      Engine.crash_node eng (Smr.node leader);
      Engine.run ~until:(t0 +. 10.) eng;
      live_digests_agree eng servers)
    [ 8; 12; 16; 20; 30; 40 ];
  check_int "no handler-exception reply" 0 !errs;
  check_int "every client answered" (6 * 20) !answered

(* Only the leader's timer fibers propose timer ticks: a client request
   carrying the tick prefix is refused, well-formed or not. *)
let forged_tick_refused stack () =
  let eng, rpc, servers, leader = make_shell ~stack ~seed:23 ~op_cost:7e-6 in
  let forged = ref [] and answered = ref 0 in
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         forged :=
           List.map
             (fun req ->
               Rpc.call rpc ~src:3 ~dst:(Smr.node leader)
                 ~port:R.Client.client_port req
               |> Option.map R.Client.decode_reply)
             [ "\x00TIMER:zz"; "\x00TIMER:0" ];
         let cl = R.Client.create rpc ~me:3 ~replicas:[ 0; 1; 2 ] in
         for i = 0 to 9 do
           match R.Client.call cl (Printf.sprintf "SET f%d v%d" i i) with
           | Some "OK" -> incr answered
           | Some _ | None -> ()
         done));
  Engine.run ~until:10. eng;
  check_bool "forged ticks refused" true
    (!forged = [ Some R.Client.Dropped; Some R.Client.Dropped ]);
  check_int "later SETs answered" 10 !answered;
  live_digests_agree eng servers

let suite =
  [
    Alcotest.test_case "conflict: kv + counter oracles" `Quick oracle_kv;
    Alcotest.test_case "conflict: session envelopes + decode-error counter"
      `Quick oracle_envelope;
    Alcotest.test_case "dag: same key serializes" `Quick dag_same_key_serializes;
    Alcotest.test_case "dag: distinct keys parallel" `Quick
      dag_distinct_keys_parallel;
    Alcotest.test_case "dag: multi-key fan-in" `Quick dag_multi_key_fan_in;
    Alcotest.test_case "dag: barrier orders everything" `Quick
      dag_barrier_orders_everything;
    Alcotest.test_case "dag: trim on complete" `Quick dag_trim_on_complete;
    Alcotest.test_case "dag: double complete raises" `Quick
      dag_double_complete_raises;
    Alcotest.test_case "exec: cbase keeps log order under conflict" `Quick
      (exec_conflicts_in_log_order Sched.Exec.Cbase);
    Alcotest.test_case "exec: early keeps log order under conflict" `Quick
      (exec_conflicts_in_log_order Sched.Exec.Early);
    Alcotest.test_case "exec: cbase serializes unknown requests" `Quick
      (exec_unknown_serializes Sched.Exec.Cbase);
    Alcotest.test_case "exec: early serializes unknown requests" `Quick
      (exec_unknown_serializes Sched.Exec.Early);
    Alcotest.test_case "exec: early rendezvous ordering" `Quick
      early_rendezvous_ordering;
    Alcotest.test_case "exec: reads park behind conflicting writes" `Quick
      exec_park_until_quiet;
    QCheck_alcotest.to_alcotest (prop_digest_matches_serial Sched.Exec.Cbase);
    QCheck_alcotest.to_alcotest (prop_digest_matches_serial Sched.Exec.Early);
    Alcotest.test_case "stack: cbase cluster smoke" `Quick
      (cluster_smoke Sched.Exec.Cbase);
    Alcotest.test_case "stack: early cluster smoke" `Quick
      (cluster_smoke Sched.Exec.Early);
    Alcotest.test_case "stack: checkpoint round-trip" `Quick
      checkpoint_roundtrip;
    Alcotest.test_case "stack: check runner passes on cbase" `Quick
      (runner_one_seed Check.Runner.Cbase);
    Alcotest.test_case "stack: check runner passes on early" `Quick
      (runner_one_seed Check.Runner.Early);
    Alcotest.test_case "shell: crashed smr leader answers nobody" `Quick
      (crash_mid_batch Check.Stacks.Smr);
    Alcotest.test_case "shell: crashed cbase leader answers nobody" `Quick
      (crash_mid_batch Check.Stacks.Cbase);
    Alcotest.test_case "shell: crashed eve leader answers nobody" `Quick
      (crash_mid_batch Check.Stacks.Eve);
    Alcotest.test_case "shell: smr refuses forged timer ticks" `Quick
      (forged_tick_refused Check.Stacks.Smr);
    Alcotest.test_case "shell: cbase refuses forged timer ticks" `Quick
      (forged_tick_refused Check.Stacks.Cbase);
    Alcotest.test_case "shell: eve refuses forged timer ticks" `Quick
      (forged_tick_refused Check.Stacks.Eve);
  ]
