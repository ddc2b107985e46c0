(* Tests for the discrete-event engine, synchronization primitives,
   network, timers and RPC. *)

open Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_sim ?(seed = 1) ?(cores = 4) ?(nodes = 1) f =
  let eng = Engine.create ~seed ~cores_per_node:cores ~num_nodes:nodes () in
  f eng;
  Engine.run eng;
  eng

(* --- Engine basics --- *)

let work_advances_time () =
  let finished = ref 0. in
  let eng =
    run_sim (fun eng ->
        ignore
          (Engine.spawn eng ~node:0 (fun () ->
               Engine.work 1.0;
               Engine.work 0.5;
               finished := Engine.now ())))
  in
  Alcotest.(check bool) "took 1.5s" true (abs_float (!finished -. 1.5) < 1e-6);
  Alcotest.(check bool)
    "busy time" true
    (abs_float (Engine.busy_time eng 0 -. 1.5) < 1e-6)

let cores_limit_parallelism () =
  (* 8 fibers x 1s of work on 4 cores must take ~2s. *)
  let finish = ref 0. in
  ignore
    (run_sim ~cores:4 (fun eng ->
         for _ = 1 to 8 do
           ignore
             (Engine.spawn eng ~node:0 (fun () ->
                  Engine.work 1.0;
                  finish := Float.max !finish (Engine.now ())))
         done));
  Alcotest.(check bool)
    (Printf.sprintf "8x1s on 4 cores ends at ~2s (got %f)" !finish)
    true
    (abs_float (!finish -. 2.0) < 1e-3)

let sleep_needs_no_core () =
  (* Sleepers do not occupy cores: 8 sleepers + 1 worker on 1 core finish
     together at ~1s. *)
  let finish = ref 0. in
  ignore
    (run_sim ~cores:1 (fun eng ->
         for _ = 1 to 8 do
           ignore
             (Engine.spawn eng ~node:0 (fun () ->
                  Engine.sleep 1.0;
                  finish := Float.max !finish (Engine.now ())))
         done;
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Engine.work 1.0;
                finish := Float.max !finish (Engine.now ())))));
  Alcotest.(check bool) "ends ~1s" true (abs_float (!finish -. 1.0) < 1e-3)

let park_wake () =
  let log = ref [] in
  ignore
    (run_sim (fun eng ->
         let saved = ref None in
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                log := "parking" :: !log;
                Engine.park (fun w -> saved := Some w);
                log := "woken" :: !log));
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Engine.sleep 1.0;
                match !saved with
                | Some w ->
                  Engine.wake w;
                  Engine.wake w (* double wake is harmless *)
                | None -> Alcotest.fail "waker not registered"))));
  Alcotest.(check (list string)) "order" [ "woken"; "parking" ] !log

let run_until_slices () =
  let eng = Engine.create ~num_nodes:1 () in
  let ticks = ref 0 in
  ignore
    (Engine.spawn eng ~node:0 (fun () ->
         for _ = 1 to 10 do
           Engine.sleep 1.0;
           incr ticks
         done));
  Engine.run ~until:3.5 eng;
  check_int "3 ticks at t=3.5" 3 !ticks;
  Engine.run ~until:10.5 eng;
  check_int "all ticks" 10 !ticks

let determinism_same_seed () =
  let trace_of seed =
    let log = ref [] in
    ignore
      (run_sim ~seed ~cores:2 (fun eng ->
           for i = 1 to 6 do
             ignore
               (Engine.spawn eng ~node:0 (fun () ->
                    Engine.work 0.1;
                    log := i :: !log))
           done));
    !log
  in
  Alcotest.(check (list int)) "same seed, same order" (trace_of 7) (trace_of 7);
  (* Different seeds typically yield different interleavings; do not assert
     inequality (it is not guaranteed), just that both complete. *)
  check_int "all ran" 6 (List.length (trace_of 8))

let crash_kills_fibers () =
  let eng = Engine.create ~num_nodes:2 () in
  let cleanup_ran = ref false in
  let survived = ref false in
  ignore
    (Engine.spawn eng ~node:0 (fun () ->
         Fun.protect
           ~finally:(fun () -> cleanup_ran := true)
           (fun () ->
             Engine.sleep 100.;
             survived := true)));
  ignore
    (Engine.spawn eng ~node:1 (fun () ->
         Engine.sleep 1.0;
         Engine.crash_node eng 0));
  Engine.run eng;
  check_bool "fiber did not survive" false !survived;
  check_bool "Fun.protect cleanup ran" true !cleanup_ran;
  check_bool "node marked dead" false (Engine.node_alive eng 0)

let restart_allows_new_fibers () =
  let eng = Engine.create ~num_nodes:1 () in
  let ran_after_restart = ref false in
  ignore
    (Engine.spawn eng ~node:0 (fun () -> Engine.sleep 1000.));
  Engine.run ~until:1.0 eng;
  Engine.crash_node eng 0;
  Engine.restart_node eng 0;
  ignore (Engine.spawn eng ~node:0 (fun () -> ran_after_restart := true));
  Engine.run eng;
  check_bool "new fiber ran" true !ran_after_restart

(* --- Msync --- *)

let mutex_exclusion () =
  let inside = ref 0 and max_inside = ref 0 and total = ref 0 in
  ignore
    (run_sim ~cores:8 (fun eng ->
         let m = Msync.Mutex.create eng in
         for _ = 1 to 20 do
           ignore
             (Engine.spawn eng ~node:0 (fun () ->
                  Msync.Mutex.lock m;
                  incr inside;
                  max_inside := max !max_inside !inside;
                  Engine.work 0.01;
                  decr inside;
                  incr total;
                  Msync.Mutex.unlock m))
         done));
  check_int "mutual exclusion" 1 !max_inside;
  check_int "all critical sections ran" 20 !total

let mutex_try_lock () =
  ignore
    (run_sim (fun eng ->
         let m = Msync.Mutex.create eng in
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                check_bool "first try succeeds" true (Msync.Mutex.try_lock m);
                check_bool "second try fails" false (Msync.Mutex.try_lock m);
                Msync.Mutex.unlock m;
                check_bool "after unlock succeeds" true (Msync.Mutex.try_lock m);
                Msync.Mutex.unlock m))))

let mutex_unlock_not_holder () =
  ignore
    (run_sim (fun eng ->
         let m = Msync.Mutex.create eng in
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                match Msync.Mutex.unlock m with
                | exception Invalid_argument _ -> ()
                | () -> Alcotest.fail "unlock without holding must raise"))))

let cond_signal_wakes_one () =
  let woken = ref 0 in
  ignore
    (run_sim (fun eng ->
         let m = Msync.Mutex.create eng in
         let c = Msync.Cond.create eng in
         for _ = 1 to 3 do
           ignore
             (Engine.spawn eng ~node:0 (fun () ->
                  Msync.Mutex.lock m;
                  Msync.Cond.wait c m;
                  incr woken;
                  Msync.Mutex.unlock m))
         done;
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Engine.sleep 1.0;
                Msync.Mutex.lock m;
                Msync.Cond.signal c;
                Msync.Mutex.unlock m;
                Engine.sleep 1.0;
                Msync.Mutex.lock m;
                Msync.Cond.broadcast c;
                Msync.Mutex.unlock m))));
  check_int "1 + 2 woken" 3 !woken

let rwlock_readers_share () =
  let concurrent_readers = ref 0 and max_readers = ref 0 in
  let writer_alone = ref true in
  ignore
    (run_sim ~cores:8 (fun eng ->
         let l = Msync.Rwlock.create eng in
         for _ = 1 to 5 do
           ignore
             (Engine.spawn eng ~node:0 (fun () ->
                  Msync.Rwlock.rd_lock l;
                  incr concurrent_readers;
                  max_readers := max !max_readers !concurrent_readers;
                  Engine.work 0.1;
                  decr concurrent_readers;
                  Msync.Rwlock.rd_unlock l))
         done;
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Msync.Rwlock.wr_lock l;
                if !concurrent_readers > 0 then writer_alone := false;
                Engine.work 0.1;
                Msync.Rwlock.wr_unlock l))));
  check_bool "readers overlapped" true (!max_readers > 1);
  check_bool "writer excluded readers" true !writer_alone

let sem_counting () =
  let inside = ref 0 and max_inside = ref 0 in
  ignore
    (run_sim ~cores:8 (fun eng ->
         let s = Msync.Sem.create eng 2 in
         for _ = 1 to 10 do
           ignore
             (Engine.spawn eng ~node:0 (fun () ->
                  Msync.Sem.acquire s;
                  incr inside;
                  max_inside := max !max_inside !inside;
                  Engine.work 0.05;
                  decr inside;
                  Msync.Sem.release s))
         done));
  check_int "at most 2 inside" 2 !max_inside

(* --- Net / Timer / Rpc --- *)

let net_delivery () =
  let got = ref None in
  ignore
    (run_sim ~nodes:2 (fun eng ->
         let net = Net.create eng in
         Net.register net ~node:1 ~port:"echo" (fun ~src payload ->
             got := Some (src, payload));
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Net.send net ~src:0 ~dst:1 ~port:"echo" "hi"))));
  Alcotest.(check (option (pair int string))) "delivered" (Some (0, "hi")) !got

let net_partition_drops () =
  let got = ref 0 in
  ignore
    (run_sim ~nodes:2 (fun eng ->
         let net = Net.create eng in
         Net.register net ~node:1 ~port:"p" (fun ~src:_ _ -> incr got);
         Net.partition net 0 1;
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Net.send net ~src:0 ~dst:1 ~port:"p" "x";
                Engine.sleep 1.0;
                Net.heal net 0 1;
                Net.send net ~src:0 ~dst:1 ~port:"p" "y"))));
  check_int "only post-heal message" 1 !got

let net_fifo_per_pair () =
  let order = ref [] in
  ignore
    (run_sim ~nodes:2 (fun eng ->
         let net = Net.create eng in
         Net.register net ~node:1 ~port:"f" (fun ~src:_ p ->
             order := p :: !order);
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                for i = 1 to 10 do
                  Net.send net ~src:0 ~dst:1 ~port:"f" (string_of_int i)
                done))));
  Alcotest.(check (list string))
    "FIFO order"
    (List.map string_of_int [ 10; 9; 8; 7; 6; 5; 4; 3; 2; 1 ])
    !order

let net_crashed_node_drops () =
  let got = ref 0 in
  ignore
    (run_sim ~nodes:2 (fun eng ->
         let net = Net.create eng in
         Net.register net ~node:1 ~port:"c" (fun ~src:_ _ -> incr got);
         Engine.crash_node eng 1;
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Net.send net ~src:0 ~dst:1 ~port:"c" "x"))));
  check_int "no delivery to dead node" 0 !got

(* A fiber that survives its node's crash by catching [Killed] must not
   speak for the node: not while it is down, nor after a restart (the
   fiber belongs to the old incarnation).  A fresh fiber on the
   restarted node does get through. *)
let net_dead_sender_drops () =
  List.iter
    (fun restart ->
      let got = ref [] in
      let eng = Engine.create ~num_nodes:2 () in
      let net = Net.create eng in
      Net.register net ~node:1 ~port:"z" (fun ~src:_ p -> got := p :: !got);
      ignore
        (Engine.spawn eng ~node:0 (fun () ->
             try Engine.sleep 1.0
             with Engine.Killed -> Net.send net ~src:0 ~dst:1 ~port:"z" "zombie"));
      Engine.run ~until:0.1 eng;
      Engine.crash_node eng 0;
      if restart then begin
        Engine.restart_node eng 0;
        ignore
          (Engine.spawn eng ~node:0 (fun () ->
               Engine.sleep 2.0;
               Net.send net ~src:0 ~dst:1 ~port:"z" "fresh"))
      end;
      Engine.run ~until:5.0 eng;
      Alcotest.(check (list string))
        (if restart then "only the new incarnation speaks" else "dead node silent")
        (if restart then [ "fresh" ] else [])
        !got)
    [ false; true ]

let timer_after_and_every () =
  let fired = ref 0 and periodic_count = ref 0 in
  let eng = Engine.create ~num_nodes:1 () in
  Timer.after eng ~node:0 ~delay:1.0 (fun () -> incr fired);
  let p = Timer.every eng ~node:0 ~period:1.0 (fun () -> incr periodic_count) in
  Engine.run ~until:5.5 eng;
  Timer.cancel p;
  Engine.run ~until:10.0 eng;
  check_int "one-shot fired once" 1 !fired;
  check_int "periodic fired 5 times then cancelled" 5 !periodic_count

let rpc_roundtrip () =
  let answer = ref None in
  ignore
    (run_sim ~nodes:2 (fun eng ->
         let net = Net.create eng in
         let rpc = Rpc.create net in
         Rpc.serve rpc ~node:1 ~port:"double" (fun ~src:_ s ->
             string_of_int (2 * int_of_string s));
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                answer := Rpc.call rpc ~src:0 ~dst:1 ~port:"double" "21"))));
  Alcotest.(check (option string)) "rpc reply" (Some "42") !answer

let rpc_timeout () =
  let answer = ref (Some "sentinel") in
  let finish = ref 0. in
  ignore
    (run_sim ~nodes:2 (fun eng ->
         let net = Net.create eng in
         let rpc = Rpc.create net in
         (* No handler registered on node 1: the call must time out. *)
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                answer := Rpc.call rpc ~src:0 ~dst:1 ~port:"void" ~timeout:0.5 "x";
                finish := Engine.now ()))));
  Alcotest.(check (option string)) "timed out" None !answer;
  check_bool "timed out at ~0.5s" true (abs_float (!finish -. 0.5) < 0.01)

(* --- Pqueue and Rng --- *)

let pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.add q ~priority:3.0 "c";
  Pqueue.add q ~priority:1.0 "a1";
  Pqueue.add q ~priority:2.0 "b";
  Pqueue.add q ~priority:1.0 "a2";
  let rec drain acc =
    match Pqueue.pop q with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list string))
    "priority then insertion order"
    [ "a1"; "a2"; "b"; "c" ]
    (drain [])

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops sorted" ~count:100
    QCheck.(list (float_range 0. 1000.))
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.add q ~priority:p ()) prios;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (p, ()) -> p >= last && drain p
      in
      drain neg_infinity)

let rng_deterministic () =
  let a = Rng.create 5 and b = Rng.create 5 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done;
  let c = Rng.split a and d = Rng.split b in
  check_bool "split streams agree" true (Rng.bits64 c = Rng.bits64 d)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng int respects bound" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let suite =
  [
    Alcotest.test_case "work advances virtual time" `Quick work_advances_time;
    Alcotest.test_case "cores limit parallelism" `Quick cores_limit_parallelism;
    Alcotest.test_case "sleep needs no core" `Quick sleep_needs_no_core;
    Alcotest.test_case "park/wake" `Quick park_wake;
    Alcotest.test_case "run in slices" `Quick run_until_slices;
    Alcotest.test_case "determinism per seed" `Quick determinism_same_seed;
    Alcotest.test_case "crash kills fibers" `Quick crash_kills_fibers;
    Alcotest.test_case "restart allows new fibers" `Quick restart_allows_new_fibers;
    Alcotest.test_case "mutex exclusion" `Quick mutex_exclusion;
    Alcotest.test_case "mutex try_lock" `Quick mutex_try_lock;
    Alcotest.test_case "mutex unlock checks holder" `Quick mutex_unlock_not_holder;
    Alcotest.test_case "cond signal/broadcast" `Quick cond_signal_wakes_one;
    Alcotest.test_case "rwlock semantics" `Quick rwlock_readers_share;
    Alcotest.test_case "semaphore counting" `Quick sem_counting;
    Alcotest.test_case "net delivery" `Quick net_delivery;
    Alcotest.test_case "net partition" `Quick net_partition_drops;
    Alcotest.test_case "net FIFO per pair" `Quick net_fifo_per_pair;
    Alcotest.test_case "net drops to dead node" `Quick net_crashed_node_drops;
    Alcotest.test_case "net drops sends from dead or stale fibers" `Quick
      net_dead_sender_drops;
    Alcotest.test_case "timers" `Quick timer_after_and_every;
    Alcotest.test_case "rpc roundtrip" `Quick rpc_roundtrip;
    Alcotest.test_case "rpc timeout" `Quick rpc_timeout;
    Alcotest.test_case "pqueue order" `Quick pqueue_order;
    QCheck_alcotest.to_alcotest prop_pqueue_sorted;
    Alcotest.test_case "rng deterministic" `Quick rng_deterministic;
    QCheck_alcotest.to_alcotest prop_rng_bounds;
  ]
